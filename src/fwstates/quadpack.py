"""QUADPACK's QAGS: adaptive 21-point Gauss-Kronrod with Wynn's epsilon algorithm.

A line-for-line port of dqagse, dqk21, dqpsrt and dqelg (R. Piessens,
E. de Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner, QUADPACK,
Springer 1983; P. Wynn, 1956), kept in QUADPACK's order of operations
so that every value, error estimate, subinterval count and ier equals
what scipy.integrate.quad(f, a, b, epsabs=..., epsrel=..., limit=...,
full_output=1) returns for the same point values.  Fortran's 1-based
arrays are kept, with a slot 0 that is never read.

The integrand differs: it takes a subinterval (a, b) and returns its
values on the 21 Kronrod nodes that `nodes(a, b)` gives, in ascending
order, as floats or a float array.  That lets a caller form the values
in one array pass, and cache per subinterval what does not change from
call to call.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import QuadratureFailure, ValidationError

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# dqk21's abscissae xgk(1..11) and weights wgk(1..11), wg(1..5); the
# Gauss nodes are xgk(2), xgk(4), ..., xgk(10)
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# node j of nodes(a, b) is centr + hlgth * _OFFSETS[j]: centr - hlgth * xgk(k)
# for k = 1..10, the centre, then centr + hlgth * xgk(k) for k = 10..1
_OFFSETS = np.array([-x for x in _XGK[:10]] + [0.0] + list(_XGK[9::-1]))
# dqk21's loops over node pairs, as (weights, left index, right index) into
# the node values: xgk(k) is at k - 1 left of the centre and 21 - k right of
# it; Gauss nodes k = 2, 4, .., 10 first, then k = 1, 3, .., 9, and then all
_GAUSS_PAIRS = tuple((_WG[j - 1], _WGK[2 * j - 1], 2 * j - 1, 21 - 2 * j) for j in range(1, 6))
_KRONROD_PAIRS = tuple((_WGK[2 * j - 2], 2 * j - 2, 22 - 2 * j) for j in range(1, 6))
_ALL_PAIRS = tuple((_WGK[k - 1], k - 1, 21 - k) for k in range(1, 11))

_MESSAGES = {
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  in the extrapolation "
       "table.  It is assumed that the requested tolerance\n  cannot be achieved, and that "
       "the returned result (if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def nodes(a: float, b: float) -> np.ndarray:
    """The 21 Kronrod nodes of [a, b], ascending, as dqk21 forms them."""
    centr = 0.5 * (a + b)
    x = centr + (0.5 * (b - a)) * _OFFSETS  # centr + (-y) is centr - y exactly
    x[10] = centr
    return x


def message(ier: int, limit: int) -> str:
    """scipy.integrate.quad's text for ier 1 to 5."""
    if ier == 1:
        return (
            f"The maximum number of subdivisions ({limit}) has been achieved.\n  "
            "If increasing the limit yields no improvement it is advised to analyze \n  "
            "the integrand in order to determine the difficulties.  If the position of a \n  "
            "local difficulty can be determined (singularity, discontinuity) one will \n  "
            "probably gain from splitting up the interval and calling the integrator \n  "
            "on the subranges.  Perhaps a special-purpose integrator should be used."
        )
    return _MESSAGES[ier]


def qags(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(result, abserr) of dqagse; QuadratureFailure with scipy's text where ier > 0."""
    result, abserr, _, ier, _ = dqagse(f, a, b, epsabs, epsrel, limit)
    if ier:
        raise QuadratureFailure(f"Gauss-Kronrod failed: {message(ier, limit)}")
    return result, abserr


def _divide(x: float, y: float) -> float:
    """x / y in IEEE arithmetic, where Python raises on a zero y."""
    if y:
        return x / y
    return math.nan if x != x or not x else math.copysign(math.inf, x) * math.copysign(1.0, y)


def dqk21(f, a: float, b: float):
    """21-point Kronrod rule on [a, b]: (result, abserr, resabs, resasc)."""
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv = f(a, b)
    if isinstance(fv, np.ndarray):
        fv = fv.tolist()
    resg = 0.0
    fc = fv[10]
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for wg, wgk, left, right in _GAUSS_PAIRS:
        fval1 = fv[left]
        fval2 = fv[right]
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    for wgk, left, right in _KRONROD_PAIRS:
        fval1 = fv[left]
        fval2 = fv[right]
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for wgk, left, right in _ALL_PAIRS:
        resasc = resasc + wgk * (abs(fv[left] - reskh) + abs(fv[right] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # fmin(1, pow(ratio, 1.5)), without Python's overflow error past 1
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep iord's error ranking descending; return (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # the number of entries kept in order shrinks as the limit nears
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax by traversing the list top-down
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                while k >= i and not errmin < elist[iord[k]]:
                    iord[k + 1] = iord[k]
                    k -= 1
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def dqelg(n, epstab, res3la, nres):
    """Wynn's epsilon algorithm on epstab[1..n]: (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two close elements, or irregular behaviour: omit a part of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def dqagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK's dqagse on [a, b], a < b: (result, abserr, neval, ier, last).

    ier is QUADPACK's: 0 success, 1 limit reached, 2 roundoff, 3 bad
    integrand behaviour, 4 no convergence of the extrapolation, 5
    divergence.  A limit below 1 or tolerances QUADPACK refuses (its ier
    6) raise ValidationError.
    """
    if not a < b:
        raise ValidationError(f"dqagse needs a < b, got a={a!r}, b={b!r}")
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValidationError(
            f"QUADPACK refuses limit={limit!r}, epsabs={epsabs!r}, epsrel={epsrel!r}"
        )
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53  # the epsilon table, rlist2(1..52)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    ier = 0

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    # initialization
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0

    # the main loop; `final` is where it leaves: 100 (set the result),
    # 115 (sum the subintervals)
    final = None
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = dqk21(f, a2, b2)

        # improve previous approximations to integral and error, test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the limit, and bad behaviour at a point of the range
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly-created intervals to the list
        if not error2 > error1:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        else:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1

        # keep the error ranking, and select the subinterval to bisect next
        maxerr, errmax, nrmax = dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            final = 115
            break
        if ier != 0:
            final = 100
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                final = 100
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            final = 100
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate
    if final == 100:
        if abserr == _OFLOW:
            final = 115
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    final = 115
            elif abserr > errsum:
                final = 115
            elif area == 0.0:
                final = 130
        if final == 100:
            # test on divergence
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = _divide(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if final == 115:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier, last
