"""Frozen copies of replaced routines, for the bit-identity tests.

Each copy is a routine as it was before a change that had to keep every
output bit; the tests compare the live routine with them, result for
result and error for error.

- evaluate_per_term: a per-term Python loop over uncached columns, in
  blocks of 32 .. 512 terms (tests/test_foxwright.py).
- evaluate_blocks: the 512-capped block loop with a concatenated cumsum,
  np.errstate per block, np.arange for k and a pole write per lower
  column, over columns grown by grow_columns with one log_gamma_vec call
  per column (tests/test_states_bits.py).

- overlap_three_calls: coherent.overlap as three separate sums,
  N(conj(z) z'), N(|z|^2), N(|z'|^2) one after another, each by
  evaluate_blocks (tests/test_states_bits.py).

On the convergence circle both copies sum to max_terms and return the
majorant tail.  evaluate still does that wherever its Levin route does
not apply; takes_levin_route says which boundary calls leave the
frozen copies, so those are checked against mpmath (gauss_psi) or
against the capped sum within both bounds instead.

mittag_leffler is no frozen copy but the mpmath reference for the
two-parameter Mittag-Leffler function, which the package does not hold
(tests/test_foxwright.py, tests/test_hweight.py, tests/test_cli.py).

The measure layer's copies:

- log_gamma_vec_masked: log_gamma_vec on the masked route throughout, over
  the live Lanczos sum (tests/test_measure_bits.py).
- lanczos_series_fused, log_gamma_vec_fused: the Lanczos sum as one fused
  (8, ...) block and a cumsum, and log_gamma_vec over it
  (tests/test_log_gamma_batching.py).
- tanh_sinh_per_side: the tanh-sinh rule with one integrand call per side
  of the midpoint (tests/test_log_gamma_batching.py).
- log_mellin_vec_per_factor, contour_abscissa, ContourPerLevel,
  eval_h_per_level: the kernel's log Mellin transform with one
  log_gamma_vec_masked call per gamma factor, and a contour line with one
  array per trapezoid level, node values formed afresh or as the level
  below plus its odd nodes, np.trapezoid at every level
  (tests/test_measure_bits.py).
- ContourFirstGridN, contour_state_first_grid_n, h_value_afresh: a line
  whose height search tests one height per call and whose first grid is
  level n, and the trapezoid loop forming its integrand afresh at every
  level (tests/test_log_gamma_batching.py).
- h_value_two_passes: hfunction._h_value's loop, on the live contour
  lines, forming level n and then the odd nodes of level 2n in a second
  pass, halving each level's complex sum, under np.errstate on every
  return (tests/test_measure_bits.py).
- e_max, integrands, nu_integral: the nu integral with no node table: the
  truncation grid and log rho at every node formed afresh, the one-node
  integrand on a 1-element array, and tanh_sinh_per_side on the node
  arrays (tests/test_node_table.py, tests/test_quadrature_driver.py).
- ref_log_rho_vec: log rho at real k with one log_gamma_vec_masked call
  per gamma argument (tests/test_measure_bits.py).

A fresh parameter set's first use:

- reference_lanczos_series, reference_log_gamma_ratio: the Lanczos sum as
  one numpy call per coefficient, and log_gamma_ratio on one k with its
  sums from that loop (tests/test_gammafn.py).
- ColumnCacheAppend: the column table with one array per column, each
  grown by its own concatenate, and a pole scan of every chunk
  (tests/test_fresh_model_bits.py).
- f_factor_per_pair: the ladder factor with one log_gamma_ratio call per
  parameter pair, its formula in complex arithmetic and cmath
  (tests/test_fresh_model_bits.py).
- log_sin_pi_split, log_gamma_vec_gathered: log_gamma_vec with one
  Lanczos call on the right half plane's entries and one on 1 - z of the
  left's, and log sin(pi z) split by half plane on every call
  (tests/test_fresh_model_bits.py).
- lanczos_series_cumsum, log_gamma_vec_cumsum: the Lanczos sum adding
  its (8, ...) block by a cumsum below 512 entries and forming each row
  alone from there up, and log_gamma_vec over it
  (tests/test_log_gamma_batching.py).

The quadrature driver's copies:

- ref_overlap_tilde, ref_moment_check: overlap_tilde with its own
  QUADPACK call through scipy's complex_func, and moment_check with its
  own outer quad and failure text (tests/test_quadrature_driver.py,
  tests/test_quadpack.py).
- ref_state_density: state_density with its nu from nu_integral, which
  calls scipy.integrate.quad at every Gauss-Kronrod node
  (tests/test_quadpack.py).

Earlier references, kept from the test files that first held them:

- reference_evaluate_bc: bicomplex evaluate that places each component
  against classify's radii before either is summed
  (tests/test_bcfoxwright.py).
- reference_f_factor: the scalar ladder factor with one log_gamma_ratio
  call per parameter, summed left to right (tests/test_states.py).
- ref_make_state: make_state with log rho(k) from its own _log_rho_vec
  call per K (tests/test_states_bits.py).
- ref_log_gamma_ratio_screen: the per-entry pole check log_gamma_ratio
  made before its array test (tests/test_states_bits.py).
"""

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import integrate

from fwstates import coherent, continuum, foxwright, hfunction
from fwstates.bicomplex import Bicomplex, componentwise
from fwstates.coherent import StateVector, _log_prefactor, _log_rho_vec, normalization, rho
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
from fwstates.foxwright import (
    EvalResult,
    _abs,
    _streak_end,
    _term_zero,
    boundary_exponent,
    evaluate,
    radius,
)
from fwstates.foxwright import evaluate as evaluate_c
from fwstates.foxwright_bc import Domain, classify
from fwstates.gammafn import (
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _LANCZOS_SHIFT,
    _LANCZOS_TAIL,
    _LOG_PI,
    _LOG_SQRT_TWO_PI,
    _lanczos_log,
    _log1p_c,
    _log_sin_pi,
    is_gamma_pole,
    log_gamma,
    log_gamma_ratio,
    log_gamma_vec,
    pole_mask,
)
from fwstates.hfunction import HWeightParams, MomentResult


def takes_levin_route(params, z, max_terms=10000):
    """True if evaluate(params, z, allow_boundary=True, max_terms=...) sums
    by Levin transforms rather than the capped sum of the frozen copies."""
    z = complex(z)
    r = radius(params)
    if z == 0 or not 0.0 < r < math.inf or foxwright._circle_side(abs(z), r) != 0:
        return False
    if boundary_exponent(params).real <= 0.5 or max_terms < 1:
        return False
    with np.errstate(all="ignore"):
        return foxwright._boundary_sum(params, z, cmath.log(z), max_terms, r) is not None


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
    """A Levin-route result and a frozen copy's capped sum lie within the
    sum of their two bounds of each other."""
    got = evaluate(params, z, **kwargs)
    capped = copy(params, z, **kwargs)
    assert abs(got.value - capped.value) <= got.tail_bound + capped.tail_bound
    return got


# -- the per-term loop --------------------------------------------------------


def _per_term_log_terms(params, log_z, ks):
    kf = ks.astype(float)
    acc = kf * log_z - log_gamma_vec(kf + 1.0)
    for a, A in params.upper:
        args = a + kf * A
        bad = pole_mask(args)
        if bad.any():
            raise PoleError(
                f"upper gamma pole at k={ks[bad][0]} (argument {args[bad][0]})"
            )
        acc = acc + log_gamma_vec(args)
    for b, B in params.lower:
        args = b + kf * B
        acc = acc - log_gamma_vec(args)
        bad = pole_mask(args)
        if bad.any():
            acc[bad] = complex(-math.inf, 0.0)
    return acc


def evaluate_per_term(params, z, tol=1e-14, max_terms=10000, allow_boundary=False):
    """evaluate() as it was with a per-term Python loop and no caching."""
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    z = complex(z)
    if z == 0:
        return evaluate(params, z)
    r = radius(params)
    on_boundary = False
    if not math.isinf(r):
        az = abs(z)
        if r == 0.0 or az > r * (1.0 + 1e-12):
            raise DomainViolation("outside")
        if az >= r * (1.0 - 1e-12):
            if not allow_boundary or boundary_exponent(params).real <= 0.5:
                raise DomainViolation("boundary")
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
            raise OverflowError("overflow")
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
        raise MaxTermsExceeded("max terms")
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


# -- the block loop -----------------------------------------------------------


class RefColumns(NamedTuple):
    n: int
    log_fact: np.ndarray
    upper: tuple
    upper_poles: tuple
    lower: tuple
    lower_poles: tuple


def _append(col, new):
    return np.concatenate((col, new)) if col.size else new


def grow_columns(params, cols, end):
    """Column growth with one log_gamma_vec call and one pole mask per column."""
    kf = np.arange(cols.n, end, dtype=float)
    upper, upper_poles = [], []
    for (a, A), col, pole in zip(params.upper, cols.upper, cols.upper_poles):
        args = a + kf * A
        if pole is None:
            bad = np.flatnonzero(pole_mask(args))
            if bad.size:
                pole = (cols.n + int(bad[0]), args[bad[0]])
        upper.append(_append(col, log_gamma_vec(args)))
        upper_poles.append(pole)
    lower, lower_poles = [], []
    for (b, B), col, poles in zip(params.lower, cols.lower, cols.lower_poles):
        args = b + kf * B
        lower.append(_append(col, log_gamma_vec(args)))
        lower_poles.append(_append(poles, pole_mask(args)))
    return RefColumns(
        end,
        _append(cols.log_fact, log_gamma_vec(kf + 1.0)),
        tuple(upper),
        tuple(upper_poles),
        tuple(lower),
        tuple(lower_poles),
    )


def empty_columns(params):
    empty = np.empty(0, dtype=complex)
    return RefColumns(
        0,
        empty,
        (empty,) * params.p,
        (None,) * params.p,
        (empty,) * params.q,
        (np.empty(0, dtype=bool),) * params.q,
    )


def evaluate_blocks(params, z, tol=1e-14, max_terms=10000, allow_boundary=False):
    """evaluate() with the block loop it had before: a concatenated cumsum,
    np.errstate per block, np.arange for k and a pole write per lower column."""
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    z = complex(z)
    if z == 0:
        return EvalResult(_term_zero(params), 1, 0.0)
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
    cols = empty_columns(params)
    total = 0j
    streak = 0
    terms_used = 0
    recent = np.empty(0, dtype=complex)
    stopped = False
    k0 = 0
    block = 32
    while k0 < max_terms and not stopped:
        end = min(k0 + block, max_terms)
        if cols.n < end:
            cols = grow_columns(params, cols, end)
        for pole in cols.upper_poles:
            if pole is not None and pole[0] < end:
                raise PoleError(f"upper gamma pole at k={pole[0]} (argument {pole[1]})")
        logt = np.arange(k0, end, dtype=float) * log_z - cols.log_fact[k0:end]
        for col in cols.upper:
            logt = logt + col[k0:end]
        for col, poles in zip(cols.lower, cols.lower_poles):
            logt = logt - col[k0:end]
            logt[poles[k0:end]] = complex(-math.inf, 0.0)
        if (logt.real > 709.0).any():
            raise OverflowError(
                "series term exceeds the floating-point range; value not representable"
            )
        with np.errstate(under="ignore", invalid="ignore"):
            terms = np.exp(logt)
        sums = np.cumsum(np.concatenate(([total], terms)))[1:]
        ok = _abs(terms) <= tol * _abs(sums)
        stop, streak = _streak_end(ok, streak)
        stopped = stop >= 0
        used = stop + 1 if stopped else terms.size
        total = sums[used - 1]
        terms_used += used
        summed = terms[:used]
        recent = summed[-3:] if used >= 3 else np.concatenate((recent, summed))[-3:]
        k0 = end
        block = min(2 * block, 512)
    mag_hist = [0.0] * (3 - recent.size) + [abs(t) for t in recent]
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
    evaluate call per normalization (here the frozen block loop)."""

    def normalization_at(zeta):
        zeta = complex(zeta)
        if zeta == 0:
            return 1.0 + 0j
        return cmath.exp(_log_prefactor(model)) * evaluate_blocks(model.params, zeta).value

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


# -- the measure layer -------------------------------------------------------


def log_gamma_vec_masked(z):
    """log_gamma_vec with the masked route for every array, also when every
    entry lies right of Re = 1/2."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    right = z.real >= 0.5
    if right.any():
        out[right] = _lanczos_log(z[right])
    left = ~right
    if left.any():
        zl = z[left]
        out[left] = _LOG_PI - _log_sin_pi(zl) - _lanczos_log(1.0 - zl)
    return out


def lanczos_series_fused(z):
    """The fused form: one (8, *z.shape) block of tail terms and a cumsum."""
    z = np.asarray(z, dtype=complex)
    col = (-1,) + (1,) * z.ndim
    terms = _LANCZOS_TAIL.reshape(col) / (z + _LANCZOS_SHIFT.reshape(col))
    terms[0] += _LANCZOS_COEFFS[0]
    return terms.cumsum(axis=0)[-1]


def _lanczos_log_fused(z):
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(lanczos_series_fused(z))


def log_gamma_vec_fused(z):
    """log_gamma_vec over the fused Lanczos block."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    right = z.real >= 0.5
    if right.all():
        return _lanczos_log_fused(z)
    out = np.empty_like(z)
    if right.any():
        out[right] = _lanczos_log_fused(z[right])
    zl = z[~right]
    out[~right] = _LOG_PI - _log_sin_pi(zl) - _lanczos_log_fused(1.0 - zl)
    return out


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
    """continuum._e_max with its 257-point log-rho grid formed afresh."""
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
    """continuum._nu_integral with no node table: Gauss-Kronrod in one or
    two real QUADPACK passes, tanh-sinh by tanh_sinh_per_side."""
    e_hi = e_max(model, log_zeta.real)
    on_nodes, at_node = integrands(model.params, log_zeta)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if scheme == "ts":
            out = tanh_sinh_per_side(on_nodes, 0.0, e_hi, cfg.rel_tol, cfg.abs_tol)
        else:
            from scipy import integrate

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


# -- the contour lines and trapezoid loops behind eval_h ----------------------

_EPS = float(np.finfo(float).eps)


def log_mellin_vec_per_factor(hp, s):
    """hfunction._log_mellin_vec with one log_gamma_vec_masked call per factor."""
    out = np.zeros(s.shape, dtype=complex)
    for beta, B in hp.lower:
        out += log_gamma_vec_masked(beta + s * B)
    for alpha, A in hp.upper:
        out -= log_gamma_vec_masked(alpha + s * A)
    return out


def contour_abscissa(hp, cc, x):
    """The abscissa of x's line, from the weight sums formed afresh."""
    base = max(0.0, hp.rightmost_pole()) + cc.c_offset
    mu = sum(B for _, B in hp.lower) - sum(A for _, A in hp.upper)
    log_kappa = sum(B * math.log(B) for _, B in hp.lower) - sum(
        A * math.log(A) for _, A in hp.upper
    )
    sigma = math.exp((math.log(x) - log_kappa) / mu)
    level = 0 if sigma <= base else math.ceil((sigma - base) / hfunction._ABSCISSA_STEP)
    return base + hfunction._ABSCISSA_STEP * level


class ContourPerLevel:
    """One array per level: n+1 fresh nodes, or the level below plus odd nodes."""

    def __init__(self, hp, cc, x):
        self.hp = hp
        self.c = contour_abscissa(hp, cc, x)
        self.log_m0 = log_mellin_vec_per_factor(hp, np.array([complex(self.c, 0.0)]))[0].real
        T = 8.0
        for _ in range(120):
            top = log_mellin_vec_per_factor(hp, np.array([complex(self.c, T)]))[0].real
            if top <= self.log_m0 + hfunction._LOG_DECAY_TARGET:
                break
            T *= 1.5
        else:
            raise ContourFailure("could not truncate the contour")
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


_PER_LEVEL_LINES = {}


def eval_h_per_level(hp, x, cc=hfunction.DEFAULT_CONTOUR, floor=None):
    """The plain eval_h loop; a given floor replaces the computed one."""
    x = float(x)
    key = (hp, cc, contour_abscissa(hp, cc, x))
    if key not in _PER_LEVEL_LINES:
        _PER_LEVEL_LINES[key] = ContourPerLevel(hp, cc, x)
    st_ = _PER_LEVEL_LINES[key]
    log_x = math.log(x)
    log_scale = st_.log_m0 - st_.c * log_x - math.log(math.pi)
    n = cc.n_nodes
    prev = None
    while n <= hfunction.MAX_NODES:
        vals = st_.values(n)
        t = np.linspace(0.0, st_.T, n + 1)
        h = st_.T / n
        f = vals * np.exp(-1j * (t * log_x))
        bracket = float(np.trapezoid(f, dx=h).real)
        if prev is not None:
            if floor is None:
                level_floor = 16.0 * _EPS * float(np.trapezoid(np.abs(vals), dx=h))
            else:
                level_floor = floor
            if abs(bracket - prev) <= max(hfunction._REL_STOP * abs(bracket), level_floor):
                if bracket == 0.0:
                    return 0.0
                with np.errstate(under="ignore"):
                    return float(bracket * np.exp(log_scale))
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


class ContourFirstGridN:
    """A line with one-point height tests and a first grid on n + 1 nodes."""

    def __init__(self, hp, cc, level):
        self.hp = hp
        self.c = hp._right + cc.c_offset + hfunction._ABSCISSA_STEP * level
        self.log_m0 = hp.log_mellin(complex(self.c, 0.0)).real
        T = 8.0
        for _ in range(120):
            top = hfunction._log_mellin_vec(hp, np.array([complex(self.c, T)]))[0].real
            if top <= self.log_m0 + hfunction._LOG_DECAY_TARGET:
                break
            T *= 1.5
        else:
            raise ContourFailure("could not truncate the contour; kernel decays too slowly")
        self.T = T
        self.t = np.linspace(0.0, self.T, cc.n_nodes + 1)
        self.vals = self._scaled(self.t)
        self._levels = {}

    def _scaled(self, t):
        with np.errstate(under="ignore"):
            return np.exp(hfunction._log_mellin_vec(self.hp, self.c + 1j * t) - self.log_m0)

    def level(self, n):
        if n not in self._levels:
            if n > len(self.t) - 1:
                vals = np.empty(n + 1, dtype=complex)
                vals[0::2] = self.vals
                vals[1::2] = self._scaled((2 * np.arange(n // 2) + 1) * (self.T / n))
                self.vals, self.t = vals, np.linspace(0.0, self.T, n + 1)
                self._levels = {m: self._view(m) + lev[2:] for m, lev in self._levels.items()}
            vals, t = self._view(n)
            floor = 16.0 * _EPS * float(np.trapezoid(np.abs(vals), dx=self.T / n))
            self._levels[n] = (vals, t, self.T / n, floor)
        return self._levels[n]

    def _view(self, n):
        step = (len(self.t) - 1) // n
        return self.vals[::step], self.t[::step]


contour_state_first_grid_n = lru_cache(maxsize=None)(ContourFirstGridN)


def h_value_afresh(hp, x, cc):
    """The trapezoid loop with the integrand formed afresh at every level."""
    st_ = contour_state_first_grid_n(hp, cc, hfunction._abscissa_level(hp, cc, x))
    log_x = math.log(x)
    log_scale = st_.log_m0 - st_.c * log_x - math.log(math.pi)
    n = cc.n_nodes
    prev = None
    while n <= hfunction.MAX_NODES:
        vals, t, h, floor = st_.level(n)
        f = vals * np.exp(-1j * (t * log_x))
        bracket = float((h * (f[1:] + f[:-1]) / 2.0).sum().real)
        if prev is not None and abs(bracket - prev) <= max(hfunction._REL_STOP * abs(bracket), floor):
            if bracket == 0.0:
                return 0.0
            with np.errstate(under="ignore"):
                return float(bracket * np.exp(log_scale))
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


def h_value_two_passes(hp, x, cc):
    """hfunction._h_value's loop before level n was read off level 2n's pass."""
    st = hfunction._contour_state(hp, cc, hfunction._abscissa_level(hp, cc, x))
    log_x = math.log(x)
    log_scale = st.log_m0 - st.c * log_x - math.log(math.pi)
    n = cc.n_nodes
    prev = f = None
    while n <= hfunction.MAX_NODES:
        vals, t, h = st.level(n)
        floor = 16.0 * _EPS * float(np.trapezoid(np.abs(vals), dx=h))
        if f is None:
            f = vals * np.exp(-1j * (t * log_x))
        else:
            # the even nodes are the level below's; only the odd ones are new
            f_even, f = f, np.empty(n + 1, dtype=complex)
            f[0::2] = f_even
            f[1::2] = vals[1::2] * np.exp(-1j * (t[1::2] * log_x))
        bracket = float((h * (f[1:] + f[:-1]) / 2.0).sum().real)  # np.trapezoid(f, dx=h)
        if prev is not None and abs(bracket - prev) <= max(hfunction._REL_STOP * abs(bracket), floor):
            if bracket == 0.0:
                return 0.0
            with np.errstate(under="ignore"):
                return float(bracket * np.exp(log_scale))
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


def ref_log_rho_vec(params, ks):
    kf = ks.astype(float)
    s = log_gamma_vec_masked(kf + 1.0).real
    for a, A in params.upper:
        s += math.lgamma(a.real) - log_gamma_vec_masked(a.real + kf * A).real
    for b, B in params.lower:
        s += log_gamma_vec_masked(b.real + kf * B).real - math.lgamma(b.real)
    return s


# -- a fresh parameter set's first use ---------------------------------------


def reference_lanczos_series(z):
    """The Lanczos sum as one numpy call per coefficient, left to right."""
    acc = np.full_like(np.asarray(z, dtype=complex), _LANCZOS_COEFFS[0])
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc = acc + _LANCZOS_COEFFS[k] / (z + (k - 1))
    return acc


def reference_log_gamma_ratio(a, A, k):
    """Scalar log_gamma_ratio with 1-element Lanczos sums from the reference loop."""
    w = complex(a) + k * A
    wA = w + A
    if is_gamma_pole(w) or is_gamma_pole(wA):
        raise PoleError(f"log_gamma_ratio crosses a pole at w={w}, A={A}")
    if w.real >= 0.5 and wA.real >= 0.5:
        t = w + (_LANCZOS_G - 0.5)
        s_ratio = complex(reference_lanczos_series(np.array([wA]))[0]) / complex(
            reference_lanczos_series(np.array([w]))[0]
        )
        return (w - 0.5) * _log1p_c(A / t) + A * cmath.log(t + A) - A + cmath.log(
            s_ratio
        )
    return log_gamma(wA) - log_gamma(w)


class AppendColumns(NamedTuple):
    n: int
    k: np.ndarray
    log_fact: np.ndarray
    upper: tuple
    upper_poles: tuple
    lower: tuple
    lower_poles: tuple
    lower_first_pole: tuple


def _append_read_only(col, new):
    out = np.concatenate((col, new)) if col.size else new
    out.flags.writeable = False
    return out


class ColumnCacheAppend:
    """The column table grown one array per column, each by one concatenate."""

    def __init__(self, params, chunk=512):
        empty = np.empty(0, dtype=complex)
        self.params = params
        self.chunk = chunk
        self.cols = AppendColumns(
            0,
            np.empty(0),
            empty,
            (empty,) * params.p,
            (None,) * params.p,
            (empty,) * params.q,
            (np.empty(0, dtype=bool),) * params.q,
            (None,) * params.q,
        )
        pairs = ((1.0, 1.0),) + params.upper + params.lower
        self.off = np.array([v for v, _ in pairs], dtype=complex)[:, None]
        self.wt = np.array([w for _, w in pairs])[:, None]

    def upto(self, end):
        if self.cols.n < end:
            self.cols = self._grow(self.cols, end)
        return self.cols

    def _grow(self, cols, end):
        p = self.params.p
        upper_poles = list(cols.upper_poles)
        lower_first = list(cols.lower_first_pole)
        kfs, lgs, masks = [], [], []
        for lo in range(cols.n, end, self.chunk):
            kf = np.arange(lo, min(lo + self.chunk, end), dtype=float)
            args = self.off + self.wt * kf
            poles = pole_mask(args[1:])
            for j, pole in enumerate(upper_poles):
                if pole is None:
                    bad = np.flatnonzero(poles[j])
                    if bad.size:
                        upper_poles[j] = (lo + int(bad[0]), args[1 + j, bad[0]])
            for r, first in enumerate(lower_first):
                if first is None:
                    bad = np.flatnonzero(poles[p + r])
                    if bad.size:
                        lower_first[r] = lo + int(bad[0])
            kfs.append(kf)
            lgs.append(log_gamma_vec_gathered(args))
            masks.append(poles[p:])
        kf, lg, poles = (np.concatenate(parts, axis=-1) for parts in (kfs, lgs, masks))
        return AppendColumns(
            end,
            _append_read_only(cols.k, kf),
            _append_read_only(cols.log_fact, lg[0]),
            tuple(_append_read_only(col, row) for col, row in zip(cols.upper, lg[1 : 1 + p])),
            tuple(upper_poles),
            tuple(_append_read_only(col, row) for col, row in zip(cols.lower, lg[1 + p :])),
            tuple(_append_read_only(m, row) for m, row in zip(cols.lower_poles, poles)),
            tuple(lower_first),
        )


def f_factor_per_pair(model, s):
    """f(s) with one log_gamma_ratio call per parameter pair."""
    ss = np.asarray(s)
    flat = ss.ravel()
    if (flat < 0).any():
        raise ValidationError("s must be >= 0")
    lower = [log_gamma_ratio(b.real, B, flat).real.tolist() for b, B in model.params.lower]
    upper = [log_gamma_ratio(a.real, A, flat).real.tolist() for a, A in model.params.upper]
    out = []
    for i, v in enumerate(flat.tolist()):
        acc = math.log(v + 1.0)
        for r in lower:
            acc += r[i]
        for r in upper:
            acc -= r[i]
        out.append(math.exp(0.5 * acc))
    return out[0] if ss.ndim == 0 else np.array(out).reshape(ss.shape)


def log_sin_pi_split(z):
    """log sin(pi z), split by half plane on every call."""
    z = np.asarray(z, dtype=complex)
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


def log_gamma_vec_gathered(z):
    """log_gamma_vec with one Lanczos call per half plane's gathered entries."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    right = z.real >= 0.5
    if right.all():
        return _lanczos_log(z)
    out = np.empty_like(z)
    if right.any():
        out[right] = _lanczos_log(z[right])
    left = ~right
    zl = z[left]
    out[left] = _LOG_PI - log_sin_pi_split(zl) - _lanczos_log(1.0 - zl)
    return out


def lanczos_series_cumsum(z):
    """The Lanczos sum with one crossover: each row formed and added alone
    from 512 entries up, below that the fused block and its cumsum."""
    z = np.asarray(z, dtype=complex)
    if z.size < 512:
        return lanczos_series_fused(z)
    out = _LANCZOS_TAIL[0] / (z + _LANCZOS_SHIFT[0])
    out += _LANCZOS_COEFFS[0]
    row = np.empty_like(out)
    for tail, shift in zip(_LANCZOS_TAIL[1:], _LANCZOS_SHIFT[1:]):
        np.add(z, shift, out=row)
        np.divide(tail, row, out=row)
        out += row
    return out


def _lanczos_log_cumsum(z):
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(lanczos_series_cumsum(z))


def log_gamma_vec_cumsum(z):
    """log_gamma_vec, one Lanczos call for both half planes, over lanczos_series_cumsum."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    right = z.real >= 0.5
    if right.all():
        return _lanczos_log_cumsum(z)
    out = _lanczos_log_cumsum(np.where(right, z, 1.0 - z))
    left = ~right
    out[left] = _LOG_PI - _log_sin_pi(z[left]) - out[left]
    return out


# -- the quadrature driver ----------------------------------------------------


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


def reference_evaluate_bc(params, Z, tol=1e-14, max_terms=10000, allow_boundary=False):
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
    r1, r2 = componentwise(evaluate_c, params, Z, tol, max_terms, allow_boundary)
    return Bicomplex(r1.value, r2.value)


def reference_f_factor(model, s):
    """Scalar f(s): one log_gamma_ratio call per parameter, summed left to right."""
    if s < 0:
        raise ValidationError("s must be >= 0")
    acc = math.log(s + 1.0)
    for b, B in model.params.lower:
        acc += log_gamma_ratio(b.real, B, s).real
    for a, A in model.params.upper:
        acc -= log_gamma_ratio(a.real, A, s).real
    return math.exp(0.5 * acc)


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
