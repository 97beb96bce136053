"""Complex log-gamma (Lanczos), bicomplex gamma, Pochhammer, gamma-ratio logs.

Everything downstream (series terms, contour integrands, parameter
functions) consumes gammas in log form; Gamma itself is a convenience
wrapper.  The Lanczos approximation with g = 7 and 9 coefficients covers
Re(w) >= 0.5; the reflection formula handles the left half plane, with
log(sin(pi w)) computed in a factored form that cannot overflow for
large |Im w|.

The Lanczos partial-fraction sum adds its eight tail terms left to right
for every point.  Below _ROW_SUM_MIN entries one division forms them as
an (8, ...) block whose rows are then added in order; from there up each
row is formed alone too, as a larger block only raised the peak memory.
Each point's sum is bit-identical whether it is computed alone or in any
array, so scalar callers can be batched without moving a bit.
log_gamma_vec makes one Lanczos call for both half planes, on z or on
the reflected 1 - z.

log_gamma_ratio batches the Lanczos sums and its pole screen, and forms
its entries left of the reflection threshold from one log_gamma_vec call
over their w + A and w; the rest of its formula stays scalar in cmath
and math, because numpy's log and exp differ from them in the last bit
(vectorising it moved 7 of 32 ladder factors by 1 ulp).
_log_gamma_ratio_real serves the ladder factors of coherent models,
whose arguments are real: one Lanczos call for all of a model's pairs,
then the same formula on floats, with the real part of cmath.log.  Every
imaginary part in that complex formula is then a zero, so the real parts
keep their bits as long as CPython's complex arithmetic gives the float
result on the real axis, which is why the test matrix runs every
supported interpreter.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bicomplex import (Bicomplex, _check_finite_complex, _check_finite_real, _check_number, _check_real,
                        componentwise)
from .errors import PoleError, ValidationError

# Godfrey's coefficient set for g = 7, 9 terms; relative error ~1e-15 on
# the real axis, comfortably below the 1e-13 target for Re(w) >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LANCZOS_TAIL = np.array(_LANCZOS_COEFFS[1:])
_LANCZOS_SHIFT = np.arange(len(_LANCZOS_TAIL))
# array size from which _lanczos_series forms each row alone, not one (8, ...)
# block; the block wins in-process up to ~1,280 entries, but a threshold there
# read the same end-to-end times and a 0.2 MB higher peak RSS (numpy 2.4)
_ROW_SUM_MIN = 512

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

POLE_TOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
# relative accuracy that log_gamma_ratio's reflected entries must keep
_REFLECTED_TOL = 1e-8


def is_gamma_pole(w: complex) -> bool:
    """pole_mask on the one entry w; False if w is not finite."""
    w = complex(w)
    # every pole lies at Re <= POLE_TOL, so most calls stop at this test (NaN fails it too)
    return w.real <= POLE_TOL and cmath.isfinite(w) and bool(pole_mask(np.complex128(w)))


def pole_mask(w: np.ndarray) -> np.ndarray:
    """True where w lies within POLE_TOL of a nonpositive integer."""
    near_axis = np.abs(w.imag) <= POLE_TOL
    rounded = np.round(w.real)
    return near_axis & (rounded <= 0) & (np.abs(w.real - rounded) <= POLE_TOL)


def _lanczos_series(z):
    """Lanczos partial-fraction sum A(z) for Re(z) >= 0.5, over any array shape.

    c_0 + sum_k c_k / (z + k - 1), added left to right.  Below
    _ROW_SUM_MIN entries the tail terms form one (8, *z.shape) block whose
    rows are added in order; from there up each row is formed and added
    alone.  Both do the same operations in the same order, so every entry
    is bit-identical to the scalar loop and independent of the array's
    length.
    """
    z = np.asarray(z, dtype=complex)
    if z.size >= _ROW_SUM_MIN:
        out = _LANCZOS_TAIL[0] / (z + _LANCZOS_SHIFT[0])
        out += _LANCZOS_COEFFS[0]
        row = np.empty_like(out)
        for tail, shift in zip(_LANCZOS_TAIL[1:], _LANCZOS_SHIFT[1:]):
            np.add(z, shift, out=row)
            np.divide(tail, row, out=row)
            out += row
        return out
    col = (-1,) + (1,) * z.ndim
    terms = _LANCZOS_TAIL.reshape(col) / (z + _LANCZOS_SHIFT.reshape(col))
    out = terms[0] + _LANCZOS_COEFFS[0]
    for row in terms[1:]:
        out += row
    return out


def _lanczos_log(z):
    """log Gamma on Re(z) >= 0.5 (principal branch there)."""
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(_lanczos_series(z))


def _log_sin_pi(z):
    """A branch of log sin(pi z), overflow-free for large |Im z|.

    Factored so the exponential with the decaying modulus is the one
    inside the log1p-style term.  The branch is only guaranteed up to
    multiples of 2 pi i, which is harmless: callers feed the result into
    exp() differences.  When every point has Im z >= 0 the upper form
    runs on the whole array, skipping the half-plane gather and scatter.
    """
    z = np.asarray(z, dtype=complex)
    upper = z.imag >= 0
    # log(0) = -inf at exact poles is the intended result, not an error
    with np.errstate(divide="ignore", invalid="ignore"):
        if upper.all():
            return _log_sin_pi_upper(z)
        out = np.empty_like(z)
        out[upper] = _log_sin_pi_upper(z[upper])
        # Im z < 0: sin(pi z) = e^{i pi z} (1 - e^{-2 i pi z}) / (2 i)
        zl = z[~upper]
        out[~upper] = (
            1j * math.pi * zl
            + np.log(-np.expm1(-2j * math.pi * zl))
            - (math.log(2.0) + 0.5j * math.pi)
        )
    return out


def _log_sin_pi_upper(z):
    # Im z >= 0: sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2 i)
    return (
        -1j * math.pi * z
        + np.log(np.expm1(2j * math.pi * z))
        - (math.log(2.0) + 0.5j * math.pi)
    )


def log_gamma_vec(z) -> np.ndarray:
    """Vectorized log Gamma over complex arrays.

    No pole screening: entries at or near poles come back huge or
    non-finite, which downstream log-domain sums turn into 0 or inf
    terms as appropriate.  Scalar callers wanting diagnostics should use
    log_gamma.  One Lanczos call serves every entry: on z where Re z >=
    0.5, and on 1 - z elsewhere, where the reflection formula takes it.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    right = z.real >= 0.5
    if right.all():
        return _lanczos_log(z)
    out = _lanczos_log(np.where(right, z, 1.0 - z))
    left = ~right
    out[left] = _LOG_PI - _log_sin_pi(z[left]) - out[left]
    return out


def log_gamma(w: complex) -> complex:
    """Principal-branch log Gamma for Re(w) >= 0.5; exp-accurate elsewhere.

    exp(log_gamma(w)) matches Gamma(w) to relative error <= 1e-12 for
    |w| <= 170.  On the reflection side the imaginary part may differ
    from the principal branch by a multiple of 2 pi.  w must be finite.
    """
    w = _check_finite_complex(w, "w")
    if is_gamma_pole(w):
        raise PoleError(f"log_gamma pole at w={w}")
    return complex(log_gamma_vec(np.array([w]))[0])


def gamma(w: complex) -> complex:
    """Gamma(w) = exp(log_gamma(w))."""
    return cmath.exp(log_gamma(w))


def gamma_bicomplex(W: Bicomplex) -> Bicomplex:
    """Idempotent bicomplex gamma: Gamma(w1) e1 + Gamma(w2) e2."""
    return Bicomplex(*componentwise(gamma, W))


def pochhammer(a: complex, E: float) -> complex:
    """Continuous Pochhammer (a)_E = Gamma(a+E)/Gamma(a), via log differences; a, E finite."""
    a, E = _check_finite_complex(a, "a"), _check_finite_real(E, "E")
    if is_gamma_pole(a):
        raise PoleError(f"pochhammer base at gamma pole, a={a}")
    if is_gamma_pole(a + E):
        raise PoleError(f"pochhammer shifted argument at gamma pole, a+E={a + E}")
    return cmath.exp(log_gamma(a + E) - log_gamma(a))


def _log1p_c(x, log=cmath.log):
    # forming 1+x first would round away |x| digits; below the cutoff a
    # quartic series (remainder < 1e-20), above it Kahan's rescaling
    # log(u)*x/(u-1), which cancels the rounding of u = 1+x
    if abs(x) < 1e-4:
        return x * (1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x)))
    u = 1.0 + x
    return log(u) * (x / (u - 1.0))


def _ratio_remainder(w, A: float, s_w, s_wA, log=cmath.log):
    """log_gamma_ratio's formula right of the threshold, from the Lanczos sums at w and w + A."""
    t = w + (_LANCZOS_G - 0.5)
    return (w - 0.5) * _log1p_c(A / t, log) + A * log(t + A) - A + log(s_wA / s_w)


def log_gamma_ratio(a: complex, A: float, k: int | np.ndarray) -> complex | np.ndarray:
    """log[Gamma(a+(k+1)A) / Gamma(a+kA)], stable at large k.

    With w = a + kA and both w, w+A right of the reflection threshold the
    two Lanczos logs share their large leading terms analytically:

        (w - 1/2) log(1 + A/t) + A log(t + A) - A + log(S(w+A)/S(w)),

    t = w + g - 1/2, S the Lanczos partial-fraction sum.  No
    large-minus-large cancellation remains.  Left of the threshold the
    plain difference of log_gamma values is used.

    k may be an array; the result is then a complex array of its shape,
    each entry bit-identical to the scalar call.  One array test screens
    every w and w + A for poles, one array call forms their Lanczos sums
    and one log_gamma_vec call the log-gammas of the entries left of the
    threshold (_reflected_ratios), while the cmath remainder above runs
    per entry.  A non-finite a, A or k, an a that is no number (a str,
    None), or an A or k with no order (a str, a complex), raises
    ValidationError; an int k, a w or w + A past the float range, a w
    right of the threshold so large that A/t overflows, a w left of it
    where the difference's rounding passes 1e-8 of its value, or a
    result past the float range, raises OverflowError.
    """
    if not cmath.isfinite(complex(_check_number(a, "a"))):
        raise ValidationError(f"a must be finite, got {a!r}")
    if not cmath.isfinite(_check_real(A, "A")):
        raise ValidationError(f"A must be finite, got {A!r}")
    ks = np.asarray(k)
    out = _log_gamma_ratios(a, A, [_check_real(kk, "k") for kk in ks.ravel().tolist()])
    return out[0] if ks.ndim == 0 else np.array(out, dtype=complex).reshape(ks.shape)


def _log_gamma_ratios(a: complex, A: float, kl: list) -> list[complex]:
    """log_gamma_ratio at each k of a list, as a list."""
    # a sum is finite only where every k is, so one test serves most calls; it
    # sums in floats, as a + kA forms float(k), so large int k cannot overflow it
    try:
        total = sum(kl, 0.0)
    except OverflowError:  # an int k that no float holds, so the longest int is one
        bits = max(kk.bit_length() for kk in kl if isinstance(kk, int))
        raise OverflowError(
            f"int k of {bits} bits is past the float range (a={a}, A={A})"
        ) from None
    bad = [] if math.isfinite(total) else [kk for kk in kl if not math.isfinite(kk)]
    if bad:
        raise ValidationError(f"k must be finite, got {float(bad[0])!r}")
    ws = [complex(a) + kk * A for kk in kl]
    n = len(ws)
    args = np.array(ws + [w + A for w in ws], dtype=complex)
    # every pole lies at Re <= POLE_TOL, so most calls stop at this test
    if (args.real <= POLE_TOL).any():
        # a w or w + A at -inf would reach the pole test as inf - inf
        finite = np.isfinite(args)
        if not finite.all():
            i = int(np.flatnonzero(~(finite[:n] & finite[n:]))[0])
            raise _not_finite(a, A, kl[i], ws[i])
        poles = pole_mask(args)
        bad = np.flatnonzero(poles[:n] | poles[n:])
        if bad.size:
            raise PoleError(f"log_gamma_ratio crosses a pole at w={ws[bad[0]]}, A={A}")
    right = [w.real >= 0.5 and (w + A).real >= 0.5 for w in ws]
    # A / t, t = w + g - 1/2, is 0 where its denominator |t|^2 / max(|Re t|,
    # |Im t|) overflows at a finite w, and the remainder then drops its A
    # term; 1 / t is 0 exactly there, and the Lanczos sums would overflow too
    for w, r in zip(ws, right):
        if r and 1.0 / (w + (_LANCZOS_G - 0.5)) == 0 and cmath.isfinite(w):
            raise OverflowError(f"A/(w + {_LANCZOS_G - 0.5}) overflows at w = a + kA = {w} (A={A})")
    # the reflected entries first: they refuse a w so large that its sums would overflow
    left = iter(() if all(right) else _reflected_ratios([w for w, r in zip(ws, right) if not r], A))
    sums = _lanczos_series(args).tolist()
    out = [
        _ratio_remainder(w, A, s_w, s_wA) if r else next(left)
        for w, r, s_w, s_wA in zip(ws, right, sums[:n], sums[n:])
    ]
    # a w past the float range gives nan, a w + A past it inf, and a large
    # A can carry the result itself past it; only then is each entry tested
    for kk, w, r in [] if cmath.isfinite(sum(out)) else zip(kl, ws, out):
        if cmath.isfinite(r):
            continue
        if not cmath.isfinite(w + A):
            raise _not_finite(a, A, kk, w)
        raise OverflowError(
            f"log Gamma(a + (k+1)A) - log Gamma(a + kA) = {r} is past the float range"
            f" (a={a}, A={A}, k={float(kk)!r})"
        )
    return out


def _reflected_ratios(ws: list, A: float) -> list:
    """log_gamma(w + A) - log_gamma(w) for each w, from one log_gamma_vec
    call over every w + A and w; each entry has the bits of the two scalar
    calls, whose pole screen log_gamma_ratio's has already passed.

    The difference keeps the absolute rounding of its two terms, about
    u (|log_gamma(w + A)| + |log_gamma(w)|) with u = 2^-53, which grows
    like |w| log |w| (at w = 0.3 + 1e16j it is larger than the value).
    Where that estimate passes 1e-8 max(1, |difference|), or a term is not
    finite (near DBL_MAX), the entry is refused with OverflowError.
    """
    args = [w + A for w in ws] + ws
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        lg = log_gamma_vec(np.array(args, dtype=complex)).tolist()
    lg_wA, lg_w = lg[: len(ws)], lg[len(ws) :]
    out = [wA - w for wA, w in zip(lg_wA, lg_w)]
    for w, r, wA_term, w_term in zip(ws, out, lg_wA, lg_w):
        est = _UNIT_ROUNDOFF * (abs(wA_term) + abs(w_term))
        # a term past the float range makes est inf or NaN, and is refused too
        if not (est <= _REFLECTED_TOL * max(1.0, abs(r)) and est < math.inf):
            raise OverflowError(
                f"log Gamma(w + A) - log Gamma(w) cannot be formed to {_REFLECTED_TOL:g}"
                f" in float64 at w = a + kA = {w} (A={A})"
            )
    return out


def _not_finite(a, A, k, w) -> OverflowError:
    """log_gamma_ratio's refusal of a gamma argument w = a + kA or w + A past the float range."""
    name, v = ("a + kA", w) if not cmath.isfinite(w) else ("a + (k+1)A", w + A)
    return OverflowError(f"gamma argument {name} = {v} is not finite (a={a}, A={A}, k={float(k)!r})")


# the float route of _log_gamma_ratio_real covers w + A up to this bound;
# past it an entry takes the checked complex route, _log_gamma_ratios
_REAL_RATIO_MAX = 2.0**1000


def _log_gamma_ratio_real(pairs, ks: list) -> list[list[float]]:
    """log_gamma_ratio(a, A, ks).real as a float list, for each real pair
    (a, A) with a, A > 0, each entry with the bits of the public call.

    One _lanczos_series call forms the sums at w = a + kA and w + A of
    every pair.  Where w >= 0.5 and w + A <= _REAL_RATIO_MAX,
    _ratio_remainder runs on floats: for real w the sums are real, so
    every imaginary part in the complex formula is a zero, each complex
    product, quotient and sum has the float result as its real part, and
    each log is cmath.log's real part.  A pair's other entries take one
    _log_gamma_ratios call together.
    """
    real_log = lambda v: cmath.log(v).real  # noqa: E731
    ws = [[a + kk * A for kk in ks] for a, A in pairs]
    sums = _lanczos_series(np.array(ws + [[w + A for w in row] for row, (_, A) in zip(ws, pairs)]))
    sums = sums.real.tolist()
    # w = a + kA grows with k (A > 0), so the least and greatest k bound a row
    k_lo, k_hi = min(ks, default=0.0), max(ks, default=0.0)
    out = []
    for (a, A), row, s_ws, s_wAs in zip(pairs, ws, sums, sums[len(pairs) :]):
        rest = ()
        if row and (a + k_lo * A < 0.5 or a + k_hi * A + A > _REAL_RATIO_MAX):
            # as floats: a + kA forms float(k) anyway, and a sum of large int k,
            # each below DBL_MAX, could overflow _log_gamma_ratios' finite test
            slow = [float(kk) for kk, w in zip(ks, row) if not (w >= 0.5 and w + A <= _REAL_RATIO_MAX)]
            rest = [r.real for r in _log_gamma_ratios(a, A, slow)]
        rest = iter(rest)
        out.append([
            _ratio_remainder(w, A, s_w, s_wA, real_log)
            if w >= 0.5 and w + A <= _REAL_RATIO_MAX
            else next(rest)
            for w, s_w, s_wA in zip(row, s_ws, s_wAs)
        ])
    return out
