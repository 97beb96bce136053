"""Frozen references for the bit-identity tests: one per live route.

Each reference is a plain form of a routine that a change had to keep
bit for bit; the tests compare the live routine with it, result for
result and error for error.  A reference calls no live helper of the
route it pins: where it needs a lower layer (log-gamma, the column
table), it takes that layer's own reference here.  A change that must
keep a route's bits compares the route with its reference, and adds a
copy only for a route that has none.  tests/test_frozen_names.py fails
on a public top-level name here that no test module imports.

live route                     its one reference                tests that use it
-----------------------------  -------------------------------  ---------------------------
gammafn._lanczos_series        reference_lanczos_series         test_gammafn,
                                                                test_log_gamma_batching
gammafn.log_gamma_vec          log_gamma_vec_masked             test_log_gamma_batching,
                                                                test_fresh_model_bits,
                                                                test_measure_bits
gammafn.log_gamma_ratio        reference_log_gamma_ratio        test_gammafn
gammafn.is_gamma_pole          scalar_pole_rule                 test_gammafn
  its pole screen              ref_log_gamma_ratio_screen       test_states_bits
coherent.f_factor              f_factor_per_pair                test_fresh_model_bits,
                                                                test_states
foxwright._ColumnCache         grow_columns, empty_columns      test_states_bits,
                                                                test_fresh_model_bits
foxwright.evaluate             evaluate_per_term                test_foxwright,
                                                                test_states_bits
coherent.overlap               overlap_three_calls              test_states_bits
coherent.make_state            ref_make_state                   test_states_bits
coherent._log_rho_vec          ref_log_rho_vec                  test_measure_bits
foxwright_bc.evaluate          reference_evaluate_bc            test_bcfoxwright
hfunction._log_mellin_vec      log_mellin_vec_per_factor        test_measure_bits
hfunction._level               ContourPerLevel, per_level_line, test_log_gamma_batching,
                               line_abscissa, contour_abscissa  test_measure_bits
hfunction._h_line (eval_h)     eval_h_per_level                 test_log_gamma_batching,
                                                                test_measure_bits
continuum._tanh_sinh           tanh_sinh_per_side               test_log_gamma_batching
continuum._nu_integral         nu_integral, e_max, integrands   test_node_table, test_quadpack,
                                                                test_log_gamma_batching
continuum.overlap_tilde        ref_overlap_tilde                test_quadrature_driver,
                                                                test_quadpack
continuum.state_density        ref_state_density                test_quadpack
hfunction.moment_check         ref_moment_check                 test_quadrature_driver,
                                                                test_quadpack

The nu references run scipy's QUADPACK, an independent route, not a
frozen ancestor; they take log rho from the live coherent._log_rho_vec,
which ref_log_rho_vec pins.  assert_same_nu_outcome compares a live nu
outcome with theirs where the live range refuses a log-integrand past
the float range.  gauss_psi and mittag_leffler are mpmath references,
for values the package holds no second route to (test_bcfoxwright,
test_foxwright, test_long_sums, test_hweight, test_cli).

On the convergence circle evaluate_per_term sums to max_terms and
returns the majorant tail.  evaluate still does that wherever its Levin
route does not apply; takes_levin_route says which boundary calls leave
the frozen copy, so those are checked against mpmath (gauss_psi) or
against the capped sum within both bounds (assert_levin_within_capped).
evaluate sums up to foxwright.MAX_TERMS terms; series_length sets that
length for a test, as evaluate_per_term's max_terms sets the copy's.
"""

import cmath
import contextlib
import math
from functools import lru_cache
from typing import NamedTuple
from unittest import mock

import numpy as np
from scipy import integrate

from fwstates import coherent, continuum, foxwright, hfunction
from fwstates.bicomplex import Bicomplex, componentwise
from fwstates.coherent import StateVector, _log_rho_vec, normalization, rho
from fwstates.continuum import DEFAULT_QUAD
from fwstates.errors import (
    ContourFailure,
    DomainViolation,
    MaxTermsExceeded,
    PoleError,
    QuadratureFailure,
    TruncationError,
    ValidationError,
)
from fwstates.foxwright import EvalResult, boundary_exponent, evaluate, radius
from fwstates.foxwright_bc import Domain, classify
from fwstates.gammafn import (
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _LOG_PI,
    _LOG_SQRT_TWO_PI,
    POLE_TOL,
    is_gamma_pole,
)
from fwstates.hfunction import HWeightParams, MomentResult


@contextlib.contextmanager
def series_length(n):
    """evaluate's series length foxwright.MAX_TERMS set to n, with the
    column table emptied on entry and exit, as its entries hold Levin
    plans made for one length."""
    with mock.patch.object(foxwright, "MAX_TERMS", n):
        foxwright._column_cache.cache_clear()
        try:
            yield
        finally:
            foxwright._column_cache.cache_clear()


def takes_levin_route(params, z):
    """True if evaluate(params, z, allow_boundary=True) sums by Levin
    transforms rather than the capped sum of the frozen copy."""
    z = complex(z)
    r = radius(params)
    if z == 0 or not 0.0 < r < math.inf or foxwright._circle_side(abs(z), r) != 0:
        return False
    if boundary_exponent(params).real <= 0.5:
        return False
    with np.errstate(all="ignore"):
        return foxwright._boundary_sum(foxwright._column_cache(params), z, cmath.log(z)) is not None


def gauss_psi(params, z):
    """psi(z) from mpmath's 2F1 at 30 digits, a route independent of the series.

    A unit-weight model upper ((a1, 1), (a2, 1)), lower ((b, 1)) is
    Gamma(a1) Gamma(a2) / Gamma(b) 2F1(a1, a2; b; z).  A model upper
    ((a, 2)), lower ((b, 1)) has Gamma(a + 2k) = Gamma(a) 4^k (a/2)_k
    ((a+1)/2)_k by Legendre's duplication, so it is Gamma(a) / Gamma(b)
    2F1(a/2, (a+1)/2; b; 4z).
    """
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        ((b, _),) = params.lower
        b = mpmath.mpc(b)
        if len(params.upper) == 1:
            ((a, A),) = params.upper
            assert A == 2.0
            a = mpmath.mpc(a)
            value = mpmath.gamma(a) * mpmath.rgamma(b) * mpmath.hyp2f1(a / 2, (a + 1) / 2, b, 4 * z)
        else:
            a1, a2 = (mpmath.mpc(a) for a, _ in params.upper)
            value = mpmath.gamma(a1) * mpmath.gamma(a2) * mpmath.rgamma(b) * mpmath.hyp2f1(a1, a2, b, z)
        return complex(value)


def mittag_leffler(B1, b1, z):
    """E_{B1,b1}(z) = sum_k z^k / Gamma(b1 + k B1) by mpmath.nsum at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return complex(mpmath.nsum(lambda k: z**k * mpmath.rgamma(b1 + k * B1), [0, mpmath.inf]))


def assert_levin_within_capped(copy, params, z, **kwargs):
    """A Levin-route result and a frozen copy's capped sum, at the same
    series length, lie within the sum of their two bounds of each other."""
    got = evaluate(params, z, **kwargs)
    capped = copy(params, z, max_terms=foxwright.MAX_TERMS, **kwargs)
    assert abs(got.value - capped.value) <= got.tail_bound + capped.tail_bound
    return got


# -- log-gamma -----------------------------------------------------------------


def reference_lanczos_series(z):
    """The Lanczos sum as one numpy call per coefficient, left to right."""
    z = np.asarray(z, dtype=complex)
    acc = np.full_like(z, _LANCZOS_COEFFS[0])
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc = acc + _LANCZOS_COEFFS[k] / (z + (k - 1))
    return acc


def _lanczos_log(z):
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(reference_lanczos_series(z))


def _log_sin_pi(z):
    """log sin(pi z), split by half plane."""
    upper = z.imag >= 0
    out = np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        zu = z[upper]
        out[upper] = (
            -1j * math.pi * zu
            + np.log(np.expm1(2j * math.pi * zu))
            - (math.log(2.0) + 0.5j * math.pi)
        )
        zl = z[~upper]
        out[~upper] = (
            1j * math.pi * zl
            + np.log(-np.expm1(-2j * math.pi * zl))
            - (math.log(2.0) + 0.5j * math.pi)
        )
    return out


def log_gamma_vec_masked(z):
    """log_gamma_vec on the masked route: the Lanczos log on the entries
    right of Re = 1/2, the reflection formula on the others, over
    reference_lanczos_series."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    right = z.real >= 0.5
    out[right] = _lanczos_log(z[right])
    zl = z[~right]
    out[~right] = _LOG_PI - _log_sin_pi(zl) - _lanczos_log(1.0 - zl)
    return out


def _pole_mask(w):
    """True where w lies within POLE_TOL of a nonpositive integer."""
    rounded = np.round(w.real)
    return (np.abs(w.imag) <= POLE_TOL) & (rounded <= 0) & (np.abs(w.real - rounded) <= POLE_TOL)


def scalar_pole_rule(w):
    """is_gamma_pole as a scalar rule of its own: True if w lies within
    POLE_TOL of a nonpositive integer; False if w is not finite."""
    w = complex(w)
    if not (abs(w.imag) <= POLE_TOL and math.isfinite(w.real)):  # NaN fails this test too
        return False
    n = round(w.real)
    return n <= 0 and abs(w.real - n) <= POLE_TOL


def _log1p(x):
    """log(1 + x): a quartic series below 1e-4, else Kahan's log(u) x / (u - 1)."""
    if abs(x) < 1e-4:
        return x * (1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x)))
    u = 1.0 + x
    return cmath.log(u) * (x / (u - 1.0))


def reference_log_gamma_ratio(a, A, ks):
    """log_gamma_ratio at each k of ks, as a list: the first pole raises, the
    Lanczos sums come from one reference_lanczos_series call, and the
    formula runs per entry in cmath; left of 1/2 it is the difference of
    two log_gamma_vec_masked values."""
    ws = [complex(a) + k * A for k in ks]
    args = np.array(ws + [w + A for w in ws], dtype=complex)
    poles = _pole_mask(args)
    bad = np.flatnonzero(poles[: len(ws)] | poles[len(ws) :])
    if bad.size:
        raise PoleError(f"log_gamma_ratio crosses a pole at w={ws[bad[0]]}, A={A}")
    sums = reference_lanczos_series(args).tolist()
    out = []
    for w, s_w, s_wA in zip(ws, sums, sums[len(ws) :]):
        wA = w + A
        if w.real >= 0.5 and wA.real >= 0.5:
            t = w + (_LANCZOS_G - 0.5)
            out.append((w - 0.5) * _log1p(A / t) + A * cmath.log(t + A) - A + cmath.log(s_wA / s_w))
        else:
            out.append(complex(log_gamma_vec_masked(wA)[0]) - complex(log_gamma_vec_masked(w)[0]))
    return out


def f_factor_per_pair(model, s):
    """f(s) with one reference_log_gamma_ratio call per parameter pair, summed left to right."""
    ss = np.asarray(s)
    flat = ss.ravel()
    if (flat < 0).any():
        raise ValidationError("s must be >= 0")
    ks = flat.tolist()
    lower = [[r.real for r in reference_log_gamma_ratio(b.real, B, ks)] for b, B in model.params.lower]
    upper = [[r.real for r in reference_log_gamma_ratio(a.real, A, ks)] for a, A in model.params.upper]
    out = []
    for i, v in enumerate(ks):
        acc = math.log(v + 1.0)
        for r in lower:
            acc += r[i]
        for r in upper:
            acc -= r[i]
        out.append(math.exp(0.5 * acc))
    return out[0] if ss.ndim == 0 else np.array(out).reshape(ss.shape)


# -- the column table and the series ---------------------------------------------


class _RefColumns(NamedTuple):
    n: int
    log_fact: np.ndarray
    upper: tuple
    upper_poles: tuple
    lower: tuple
    lower_poles: tuple


def _append(col, new):
    return np.concatenate((col, new)) if col.size else new


def grow_columns(params, cols, end):
    """Column growth with one log_gamma_vec_masked call and one pole mask per column."""
    kf = np.arange(cols.n, end, dtype=float)
    upper, upper_poles = [], []
    for (a, A), col, pole in zip(params.upper, cols.upper, cols.upper_poles):
        args = a + kf * A
        if pole is None:
            bad = np.flatnonzero(_pole_mask(args))
            if bad.size:
                pole = (cols.n + int(bad[0]), args[bad[0]])
        upper.append(_append(col, log_gamma_vec_masked(args)))
        upper_poles.append(pole)
    lower, lower_poles = [], []
    for (b, B), col, poles in zip(params.lower, cols.lower, cols.lower_poles):
        args = b + kf * B
        lower.append(_append(col, log_gamma_vec_masked(args)))
        lower_poles.append(_append(poles, _pole_mask(args)))
    return _RefColumns(
        end,
        _append(cols.log_fact, log_gamma_vec_masked(kf + 1.0)),
        tuple(upper),
        tuple(upper_poles),
        tuple(lower),
        tuple(lower_poles),
    )


def empty_columns(params):
    empty = np.empty(0, dtype=complex)
    return _RefColumns(
        0,
        empty,
        (empty,) * params.p,
        (None,) * params.p,
        (empty,) * params.q,
        (np.empty(0, dtype=bool),) * params.q,
    )


def _per_term_log_terms(params, log_z, ks):
    kf = ks.astype(float)
    acc = kf * log_z - log_gamma_vec_masked(kf + 1.0)
    for a, A in params.upper:
        args = a + kf * A
        bad = _pole_mask(args)
        if bad.any():
            raise PoleError(
                f"upper gamma pole at k={ks[bad][0]} (argument {args[bad][0]})"
            )
        acc = acc + log_gamma_vec_masked(args)
    for b, B in params.lower:
        args = b + kf * B
        acc = acc - log_gamma_vec_masked(args)
        bad = _pole_mask(args)
        if bad.any():
            acc[bad] = complex(-math.inf, 0.0)
    return acc


def evaluate_per_term(params, z, tol=1e-14, max_terms=10000, allow_boundary=False):
    """evaluate() as a per-term Python loop over columns formed afresh per
    block of 32 .. 512 terms, with evaluate's checks and error texts."""
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    z = complex(z)
    if z == 0:
        s = 0j
        for a, _ in params.upper:
            s += complex(log_gamma_vec_masked(a)[0])
        for b, _ in params.lower:
            s -= complex(log_gamma_vec_masked(b)[0])
        return EvalResult(cmath.exp(s), 1, 0.0)
    r = radius(params)
    on_boundary = False
    if not math.isinf(r):
        az = abs(z)
        if r == 0.0 or az > r * (1.0 + 1e-12):
            raise DomainViolation(f"|z|={az:.6g} outside convergence radius {r:.6g}")
        if az >= r * (1.0 - 1e-12):
            lam = boundary_exponent(params)
            if not allow_boundary:
                raise DomainViolation(
                    f"|z|={az:.6g} lies on the convergence circle (radius {r:.6g}); "
                    "pass allow_boundary to evaluate under the Re(lambda) > 1/2 condition"
                )
            if lam.real <= 0.5:
                raise DomainViolation(
                    f"boundary evaluation needs Re(lambda) > 1/2, got {lam.real:.6g}"
                )
            on_boundary = True
    log_z = cmath.log(z)
    total = 0j
    consec = 0
    terms_used = 0
    mag_hist = [0.0, 0.0, 0.0]
    k0 = 0
    block = 32
    while k0 < max_terms:
        ks = np.arange(k0, min(k0 + block, max_terms))
        logt = _per_term_log_terms(params, log_z, ks)
        if (logt.real > 709.0).any():
            raise OverflowError(
                "series term exceeds the floating-point range; value not representable"
            )
        with np.errstate(under="ignore", invalid="ignore"):
            terms = np.exp(logt)
        stopped = False
        for i in range(len(ks)):
            total += terms[i]
            terms_used += 1
            m = abs(terms[i])
            mag_hist = [mag_hist[1], mag_hist[2], m]
            if m <= tol * abs(total):
                consec += 1
            else:
                consec = 0
            if consec >= 3:
                stopped = True
                break
        if stopped:
            break
        k0 += len(ks)
        block = min(2 * block, 512)
    else:
        stopped = False
    if not stopped and not on_boundary:
        raise MaxTermsExceeded(
            f"no convergence after {terms_used} terms (tol={tol:g}, |z|={abs(z):.6g})"
        )
    if on_boundary and not stopped:
        lam_re = boundary_exponent(params).real
        tail = abs(mag_hist[2]) * terms_used / (lam_re - 0.5)
    else:
        last = mag_hist[2]
        prev = mag_hist[1]
        ratio = last / prev if prev > 0 else 0.5
        ratio = min(max(ratio, 0.0), 0.9)
        tail = 4.0 * max(mag_hist) * ratio / (1.0 - ratio)
        tail = max(tail, max(mag_hist))
    return EvalResult(total, terms_used, tail)


def overlap_three_calls(model, z, zp):
    """overlap() as it was before its three sums shared one block pass: one
    evaluate call per normalization (here evaluate_per_term)."""

    def normalization_at(zeta):
        zeta = complex(zeta)
        if zeta == 0:
            return 1.0 + 0j
        log_pref = 0.0
        for b, _ in model.params.lower:
            log_pref += math.lgamma(b.real)
        for a, _ in model.params.upper:
            log_pref -= math.lgamma(a.real)
        return cmath.exp(log_pref) * evaluate_per_term(model.params, zeta).value

    def normalization(zeta):
        zeta = float(zeta)
        if zeta < 0:
            raise ValidationError("normalization argument must be >= 0")
        return normalization_at(zeta).real

    z = complex(z)
    zp = complex(zp)
    num = normalization_at(z.conjugate() * zp)
    n1, n2 = float(normalization(abs(z) ** 2)), float(normalization(abs(zp) ** 2))
    den = math.sqrt(n1 * n2)
    if math.isinf(den):
        den = math.sqrt(n1) * math.sqrt(n2)
    return num / den


# -- the nu integral -----------------------------------------------------------


def tanh_sinh_per_side(f, a, b, rel_tol, abs_tol):
    """Tanh-sinh with one integrand call per side of the midpoint."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t_cap = 4.0

    def level_nodes(h, only_odd):
        j = np.arange(1, int(t_cap / h) + 1)
        if only_odd:
            j = j[j % 2 == 1]
        t = j * h
        u = 0.5 * math.pi * np.sinh(t)
        x_off = half * np.tanh(u)
        w = half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        return x_off, w

    w0 = half * 0.5 * math.pi
    total = w0 * f(np.array([mid]))[0]
    h = 2.0
    value, err = None, math.inf
    for level in range(continuum._TS_MAX_LEVEL + 1):
        h *= 0.5
        x_off, w = level_nodes(h, only_odd=level > 0)
        total = total + np.sum(w * (f(mid + x_off) + f(mid - x_off)))
        if not np.isfinite(total):
            raise OverflowError(f"tanh-sinh sum {total} leaves the float64 range")
        new_value = h * total
        if value is not None:
            err = abs(new_value - value)
            if err <= max(abs_tol, rel_tol * abs(new_value)):
                return new_value, err
        value = new_value
    raise QuadratureFailure(f"tanh-sinh did not reach tolerance (last step error {err:.3g})")


def e_max(model, log_zeta):
    """continuum._e_max with its 257-point log-rho grid formed afresh, and
    no refusal of a log-integrand past the float range."""
    hi = 8.0
    for _ in range(80):
        grid = np.linspace(0.0, hi, 257)
        logf = grid * log_zeta - _log_rho_vec(model.params, grid)
        peak = logf.max()
        if logf[-1] <= peak - continuum.E_MAX_DROP:
            return hi
        hi *= 1.5
    raise QuadratureFailure("could not locate a decaying tail for the nu integrand")


def integrands(params, log_zeta):
    """zeta^E / rho(E) on a node array, and at one node on a 1-element array."""

    def on_nodes(Es):
        return np.exp(Es * log_zeta - _log_rho_vec(params, Es))

    def at_node(E):
        log_rho = float(_log_rho_vec(params, np.array([E]))[0])
        return np.exp(np.array([E]) * log_zeta - log_rho)[0]

    return on_nodes, at_node


def nu_integral(model, log_zeta, cfg, scheme):
    """continuum._nu_integral with no node sets: Gauss-Kronrod in one or
    two real QUADPACK passes, tanh-sinh by tanh_sinh_per_side."""
    e_hi = e_max(model, log_zeta.real)
    on_nodes, at_node = integrands(model.params, log_zeta)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if scheme == "ts":
            out = tanh_sinh_per_side(on_nodes, 0.0, e_hi, cfg.rel_tol, cfg.abs_tol)
        else:
            parts = (at_node,)
            if isinstance(log_zeta, complex):
                parts = (lambda x: at_node(x).real, lambda x: at_node(x).imag)
            outs = []
            for part in parts:
                res = integrate.quad(
                    part, 0.0, e_hi, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                    limit=continuum.MAX_SUBDIVISIONS, full_output=1,
                )
                if len(res) > 3:
                    raise QuadratureFailure(f"Gauss-Kronrod failed: {res[3]}")
                outs.append(res[:2])
            out = outs[0] if len(outs) == 1 else [re + 1j * im for re, im in zip(*outs)]
    value, err = out
    if not (cmath.isfinite(value) and cmath.isfinite(err)):
        raise OverflowError(f"integral {value!r} (error {err!r}) leaves the float64 range")
    return value, err


_REFUSAL = "OverflowError: nu(zeta) is past the float range"


def assert_same_nu_outcome(got, want):
    """A live nu outcome ("Type: text", or a repr) equals the frozen route's,
    unless the live range refused a log-integrand past the float range:
    then the frozen route must have found no finite value either."""
    if got.startswith(_REFUSAL):
        assert want.startswith(("OverflowError: ", "QuadratureFailure: ")), want
    else:
        assert got == want


# -- the contour lines and trapezoid loop behind eval_h -------------------------

_EPS = float(np.finfo(float).eps)


def log_mellin_vec_per_factor(hp, s):
    """hfunction._log_mellin_vec with one log_gamma_vec_masked call per factor."""
    out = np.zeros(s.shape, dtype=complex)
    for beta, B in hp.lower:
        out += log_gamma_vec_masked(beta + s * B)
    for alpha, A in hp.upper:
        out -= log_gamma_vec_masked(alpha + s * A)
    return out


def line_abscissa(hp, cc, level):
    """The abscissa of a line level steps right of the base."""
    return max(0.0, hp.rightmost_pole()) + cc.c_offset + hfunction._ABSCISSA_STEP * level


def contour_abscissa(hp, cc, x):
    """The abscissa of x's line, from the weight sums formed afresh."""
    base = max(0.0, hp.rightmost_pole()) + cc.c_offset
    mu = sum(B for _, B in hp.lower) - sum(A for _, A in hp.upper)
    log_kappa = sum(B * math.log(B) for _, B in hp.lower) - sum(
        A * math.log(A) for _, A in hp.upper
    )
    sigma = math.exp((math.log(x) - log_kappa) / mu)
    level = 0 if sigma <= base else math.ceil((sigma - base) / hfunction._ABSCISSA_STEP)
    return line_abscissa(hp, cc, level)


class ContourPerLevel:
    """The line Re s = c: its height search one height per call, and one
    array per level, n+1 fresh nodes or the level below plus odd nodes."""

    def __init__(self, hp, c):
        self.hp = hp
        self.c = c
        self.log_m0 = float(log_mellin_vec_per_factor(hp, np.array([complex(self.c, 0.0)]))[0].real)
        T = 8.0
        for _ in range(120):
            top = log_mellin_vec_per_factor(hp, np.array([complex(self.c, T)]))[0].real
            if top <= self.log_m0 + hfunction._LOG_DECAY_TARGET:
                break
            T *= 1.5
        else:
            raise ContourFailure("could not truncate the contour; kernel decays too slowly")
        self.T = T
        self._vals = {}

    def _scaled(self, t):
        with np.errstate(under="ignore"):
            return np.exp(log_mellin_vec_per_factor(self.hp, self.c + 1j * t) - self.log_m0)

    def values(self, n):
        if n in self._vals:
            return self._vals[n]
        if n // 2 in self._vals:
            t_odd = (2 * np.arange(n // 2) + 1) * (self.T / n)
            vals = np.empty(n + 1, dtype=complex)
            vals[0::2] = self._vals[n // 2]
            vals[1::2] = self._scaled(t_odd)
        else:
            vals = self._scaled(np.linspace(0.0, self.T, n + 1))
        self._vals[n] = vals
        return vals

    def floor(self, n):
        """The roundoff floor of level n's node sum, by np.trapezoid."""
        return 16.0 * _EPS * float(np.trapezoid(np.abs(self.values(n)), dx=self.T / n))


per_level_line = lru_cache(maxsize=None)(ContourPerLevel)


def eval_h_per_level(hp, x, cc=hfunction.DEFAULT_CONTOUR, floor=None):
    """The plain eval_h loop, from the level below the live loop's first
    (hfunction._FIRST_N, read at each call); a given floor replaces the
    computed one."""
    x = float(x)
    st_ = per_level_line(hp, contour_abscissa(hp, cc, x))
    log_x = math.log(x)
    log_scale = st_.log_m0 - st_.c * log_x - math.log(math.pi)
    n = hfunction._FIRST_N // 2
    prev = None
    while n <= hfunction.MAX_NODES:
        vals = st_.values(n)
        t = np.linspace(0.0, st_.T, n + 1)
        h = st_.T / n
        f = vals * np.exp(-1j * (t * log_x))
        bracket = float(np.trapezoid(f, dx=h).real)
        if prev is not None:
            level_floor = st_.floor(n) if floor is None else floor
            if abs(bracket - prev) <= max(hfunction._REL_STOP * abs(bracket), level_floor):
                if bracket == 0.0:
                    return 0.0
                with np.errstate(under="ignore"):
                    return float(bracket * np.exp(log_scale))
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


def ref_log_rho_vec(params, ks):
    """log rho at real k with one log_gamma_vec_masked call per gamma argument."""
    kf = ks.astype(float)
    s = log_gamma_vec_masked(kf + 1.0).real
    for a, A in params.upper:
        s += math.lgamma(a.real) - log_gamma_vec_masked(a.real + kf * A).real
    for b, B in params.lower:
        s += log_gamma_vec_masked(b.real + kf * B).real - math.lgamma(b.real)
    return s


# -- the quadrature driver ------------------------------------------------------


def ref_overlap_tilde(model, z, zp, cfg=DEFAULT_QUAD, scheme="gk"):
    z = complex(z)
    zp = complex(zp)
    if z == 0 or zp == 0:
        raise ValidationError("overlap_tilde needs |z|, |z'| > 0")
    log_zeta = cmath.log(z.conjugate() * zp)
    e_hi = e_max(model, log_zeta.real)
    on_nodes, at_node = integrands(model.params, log_zeta)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if scheme == "gk":
            out = integrate.quad(
                at_node, 0.0, e_hi, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                limit=continuum.MAX_SUBDIVISIONS, complex_func=True,
            )
        else:
            out = tanh_sinh_per_side(on_nodes, 0.0, e_hi, cfg.rel_tol, cfg.abs_tol)
    num, _ = continuum._finite(*out)
    den = math.sqrt(
        continuum.nu(model, abs(z) ** 2, cfg, scheme) * continuum.nu(model, abs(zp) ** 2, cfg, scheme)
    )
    return num / den


def ref_state_density(model, z, E, cfg=DEFAULT_QUAD):
    """continuum.state_density with its nu from nu_integral's scipy route."""
    z = complex(z)
    log_z = cmath.log(z)
    log_nu = math.log(nu_integral(model, math.log(abs(z) ** 2), cfg, "gk")[0])
    return cmath.exp(E * log_z - 0.5 * continuum.log_rho_tilde(model, E) - 0.5 * log_nu)


def ref_moment_check(model, k):
    k = int(k)
    p = model.params
    log_pref = sum(math.lgamma(a.real) for a, _ in p.upper) - sum(
        math.lgamma(b.real) for b, _ in p.lower
    )
    pref = math.exp(log_pref)
    hp = HWeightParams.from_model(model)

    def density(x):
        return pref * hfunction.eval_h(hp, x)

    x_max = hfunction._density_scan(density, k)
    out = integrate.quad(
        lambda x: (x ** k) * density(x), 0.0, x_max, epsabs=DEFAULT_QUAD.abs_tol,
        epsrel=DEFAULT_QUAD.rel_tol, limit=continuum.MAX_SUBDIVISIONS, full_output=1,
    )
    if len(out) > 3:
        raise QuadratureFailure(f"outer moment quadrature failed: {out[3]}")
    lhs = out[0]
    rhs = rho(model, k)
    return MomentResult(lhs, rhs, abs(lhs - rhs) / abs(rhs))


# -- earlier references, kept from the test files that first held them ----------


def reference_evaluate_bc(params, Z, tol=1e-14, allow_boundary=False):
    """Reference: each component placed against classify's radii before either is summed."""
    if not isinstance(Z, Bicomplex):
        Z = Bicomplex.from_scalar(Z)
    report = classify(params)
    status = []
    for p, v, zp in zip((1, 2), report.v_radius, Z.decompose()):
        az = abs(zp)
        if math.isinf(v) or az == 0.0 or az < v * (1.0 - 1e-12):
            status.append("inside")
        elif v == 0.0 or az > v * (1.0 + 1e-12):
            raise DomainViolation(f"component {p}: |z{p}|={az:.6g} outside radius {v:.6g}")
        else:
            status.append("boundary")
    if "boundary" in status:
        if report.domain is Domain.HYPERBOLIC_BALL and status != ["boundary", "boundary"]:
            raise DomainViolation("mixed boundary point of the hyperbolic ball")
        if not allow_boundary:
            raise DomainViolation("component on its convergence circle")
    r1, r2 = componentwise(evaluate, params, Z, tol, allow_boundary)
    return Bicomplex(r1.value, r2.value)


def ref_make_state(model, z, tail_target=1e-12):
    """make_state with log rho(k) from its own _log_rho_vec call per K."""
    z = complex(z)
    zeta = abs(z) ** 2
    log_n = math.log(normalization(model, zeta))
    pref = math.exp(-0.5 * log_n)
    K = model.K
    if zeta == 0.0:
        coeffs = (1.0 + 0j,) + (0j,) * K
        return StateVector(coeffs=coeffs, norm_prefactor=pref, z=z, tail_mass=0.0)
    log_zeta = math.log(zeta)
    while True:
        ks = np.arange(K + 1)
        log_rho_k = coherent._log_rho_vec(model.params, ks)
        with np.errstate(under="ignore"):
            probs = np.exp(ks * log_zeta - log_rho_k - log_n)
        tail = max(1.0 - float(probs.sum()), 0.0)
        if tail <= tail_target:
            break
        if K >= coherent.K_MAX:
            raise TruncationError(f"tail mass {tail:.3g} above target {tail_target:g} at K={K}")
        K = min(2 * K, coherent.K_MAX)
    log_z = cmath.log(z)
    with np.errstate(under="ignore"):
        coeffs = np.exp(ks * log_z - 0.5 * log_rho_k - 0.5 * log_n)
    return StateVector(coeffs=tuple(coeffs.tolist()), norm_prefactor=pref, z=z, tail_mass=tail)


def ref_log_gamma_ratio_screen(a, A, ks):
    """The per-entry pole check log_gamma_ratio made before its array test."""
    for kk in np.asarray(ks).ravel().tolist():
        w = complex(a) + kk * A
        if is_gamma_pole(w) or is_gamma_pole(w + A):
            raise PoleError(f"log_gamma_ratio crosses a pole at w={w}, A={A}")
