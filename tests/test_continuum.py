"""Continuous-spectrum nu-function, dual quadrature schemes, state densities."""

import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate as si

from fwstates import continuum
from fwstates.bicomplex import Bicomplex, Hyperbolic
from fwstates.coherent import BCCoherentModel, CoherentModel, _log_rho_vec, log_rho, rho
from fwstates.continuum import (
    DEFAULT_QUAD,
    QuadConfig,
    log_rho_tilde,
    nu,
    nu_bicomplex,
    nu_with_error,
    overlap_tilde,
    rho_tilde,
    state_density,
)
from fwstates.errors import QuadratureFailure, ValidationError
from fwstates.foxwright import FWParams
from fwstates.foxwright_bc import BCFWParams

H = Hyperbolic

VACUUM = CoherentModel(FWParams(upper=[], lower=[]))
GENERIC = CoherentModel(FWParams(upper=[(0.9, 0.4)], lower=[(1.3, 0.8), (0.7, 0.5)]))
WRIGHT = CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)]))
BC_SHIFT = BCCoherentModel(BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))]))
_UNKNOWN_SCHEME = "unknown quadrature scheme 'bogus'; use one of ('gk', 'ts')"

# integral_0^inf dE / Gamma(E+1), 50-digit tanh-sinh via mpmath, frozen
NU_VACUUM_AT_1 = 2.2665345076998488351


def test_rho_tilde_examples():
    for model in (VACUUM, GENERIC):
        assert rho_tilde(model, 0.0) == 1.0
    assert rho_tilde(VACUUM, 2.5) == pytest.approx(math.gamma(3.5), rel=1e-13)
    with pytest.raises(ValidationError):
        rho_tilde(VACUUM, -0.1)


def test_integer_consistency():
    # rho_tilde is rho; the independent comparison is scalar log_rho
    # (math.lgamma) against the array form (Lanczos) at integer k
    assert log_rho_tilde is log_rho and rho_tilde is rho
    ks = np.arange(51)
    for model in (VACUUM, GENERIC):
        vec = _log_rho_vec(model.params, ks)
        for k in ks:
            assert abs(math.expm1(log_rho(model, int(k)) - vec[k])) <= 1e-12


def test_rho_tilde_overflow():
    with pytest.raises(OverflowError):
        rho_tilde(VACUUM, 200.0)
    assert log_rho_tilde(VACUUM, 200.0) == pytest.approx(math.lgamma(201.0), rel=1e-14)


def test_nu_zero_and_validation():
    assert nu_with_error(VACUUM, 0.0) == (0.0, 0.0)
    with pytest.raises(ValidationError):
        nu(VACUUM, -1.0)
    with pytest.raises(ValidationError):
        nu(VACUUM, 1.0, scheme="simpson")
    with pytest.raises(ValidationError):
        QuadConfig(rel_tol=0.0)


@pytest.mark.parametrize(
    "call, text",
    [
        # each walked _e_max's 80-step ladder, building 80 node tables, and
        # exited with "could not locate a decaying tail"
        (lambda: nu_with_error(VACUUM, math.nan), "zeta must be finite, got nan"),
        (lambda: nu(GENERIC, math.inf, scheme="ts"), "zeta must be finite, got inf"),
        (lambda: overlap_tilde(VACUUM, complex(math.nan, 1.0), 1.0), "z must be finite, got (nan+1j)"),
        (lambda: overlap_tilde(VACUUM, 1.0, math.inf), "zp must be finite, got (inf+0j)"),
        (lambda: overlap_tilde(VACUUM, 1e200, 1e200j), "conj(z) zp must be finite, got infj"),
        (lambda: state_density(VACUUM, math.inf, 1.0), "z must be finite, got (inf+0j)"),
        # said "k must be finite", naming log rho's argument
        (lambda: state_density(VACUUM, 1.0, math.nan), "E must be finite, got nan"),
        (lambda: nu(VACUUM, 1j), "zeta must be a real number, got 1j"),
        # an unknown scheme was refused only after the range search had built
        # node sets: 6 of them for nu(WRIGHT, 50.0)
        (lambda: nu(WRIGHT, 50.0, scheme="bogus"), _UNKNOWN_SCHEME),
        (lambda: overlap_tilde(WRIGHT, 0.7, 1.3 + 0.4j, scheme="bogus"), _UNKNOWN_SCHEME),
        (lambda: nu_bicomplex(BC_SHIFT, H(1.5, 2.5), scheme="bogus"), "component 1: " + _UNKNOWN_SCHEME),
        # at zeta = 0 any scheme was accepted, and nu returned 0.0
        pytest.param(
            lambda: nu(VACUUM, 0.0, scheme="simpson"),
            "unknown quadrature scheme 'simpson'; use one of ('gk', 'ts')",
            id="nu-zeta-0-simpson",
        ),
        pytest.param(lambda: nu_with_error(WRIGHT, 0.0, scheme="bogus"), _UNKNOWN_SCHEME,
                     id="nu_with_error-zeta-0-bogus"),
        pytest.param(lambda: nu_bicomplex(BC_SHIFT, H(0.0, 0.0), scheme="bogus"),
                     "component 1: " + _UNKNOWN_SCHEME, id="nu_bicomplex-zeta-0-bogus"),
    ],
)
def test_non_finite_arguments_refused_before_any_table(call, text):
    continuum._node_sets.cache_clear()
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        call()
    assert continuum._node_sets.nbytes == 0


@pytest.mark.parametrize("zeta", [1e10, 1e16])
@pytest.mark.parametrize("scheme", continuum.SCHEMES)
def test_nu_past_the_float_range_is_refused_from_few_tables(zeta, scheme):
    # nu(1e10) built 53 node tables before its sum overflowed, and nu(1e16)
    # all 80 of the range ladder before "could not locate a decaying tail"
    continuum._node_sets.cache_clear()
    with pytest.raises(OverflowError, match=r"^nu\(zeta\) is past the float range \(log-integrand peak "):
        nu(VACUUM, zeta, scheme=scheme)
    assert len(continuum._node_sets._sets) < 10


_LOG_DBL_MAX = math.log(np.finfo(float).max)
# the vacuum nu is e^zeta up to an absolute term below 1; tanh-sinh's running
# sum overflowed from 704.93, Gauss-Kronrod's error terms from 708.8, and
# from 709.8 to 713.98 nu is past DBL_MAX but the range search lets it through
_EDGE_ZETAS = sorted(
    np.linspace(704.0, 714.1, 102).tolist()
    + [704.93, 708.8, 709.05, 709.1, 713.98, _LOG_DBL_MAX - 1e-6, _LOG_DBL_MAX + 1e-6]
)


@pytest.mark.parametrize("scheme", continuum.SCHEMES)
def test_nu_near_the_float_range_edge(scheme):
    """Every vacuum nu that fits in float64 comes back as e^zeta, and every
    other one is refused with the range search's wording, warnings as errors."""
    refusal = r"^nu\(zeta\) is past the float range \(log-integrand peak 7\d\d\.\d+\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in _EDGE_ZETAS:
            if zeta < _LOG_DBL_MAX:
                assert nu(VACUUM, zeta, scheme=scheme) == pytest.approx(math.exp(zeta), rel=1e-11), zeta
            else:
                with pytest.raises(OverflowError, match=refusal):
                    nu(VACUUM, zeta, scheme=scheme)


def test_nu_monotone():
    for model in (VACUUM, GENERIC):
        assert nu(model, 1.0) < nu(model, 2.0)


def test_nu_vacuum_frozen_and_dual_scheme():
    cfg = QuadConfig()
    v_gk, err_gk = nu_with_error(VACUUM, 1.0, cfg, scheme="gk")
    v_ts, _ = nu_with_error(VACUUM, 1.0, cfg, scheme="ts")
    assert v_gk == pytest.approx(NU_VACUUM_AT_1, rel=1e-10)
    assert abs(v_gk - v_ts) <= 1e-8 * v_gk
    assert err_gk <= cfg.rel_tol * v_gk + cfg.abs_tol


def test_nu_dual_scheme_on_grid():
    for model in (VACUUM, GENERIC):
        for zeta in np.geomspace(0.1, 10.0, 7):
            a = nu(model, float(zeta), scheme="gk")
            b = nu(model, float(zeta), scheme="ts")
            assert abs(a - b) <= 1e-8 * abs(a)


def test_nu_bicomplex_real_embedding():
    bc = BCCoherentModel(
        BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))])
    )
    base = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)]))
    got = nu_bicomplex(bc, H(1.5, 1.5))
    ref = nu(base, 1.5)
    assert abs(got.c1 - ref) <= 1e-10 * ref
    assert abs(got.c2 - ref) <= 1e-10 * ref
    edge = nu_bicomplex(bc, H(0.0, 1.5))
    assert edge.c1 == 0.0
    assert abs(edge.c2 - ref) <= 1e-10 * ref


def test_nu_bicomplex_mixed_components():
    bc = BCCoherentModel(
        BCFWParams(upper=[(Bicomplex(1.0, 0.9), H(1.0, 0.4))], lower=[(2.0, H(1, 1))])
    )
    got = nu_bicomplex(bc, H(0.7, 2.1))
    for p, w in ((1, 0.7), (2, 2.1)):
        ref = nu(bc.component_model(p), w)
        assert abs(got.decompose()[p - 1] - ref) <= 1e-8 * ref


def test_nu_bicomplex_rejects_outside_dplus():
    bc = BCCoherentModel(
        BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))])
    )
    with pytest.raises(ValidationError):
        nu_bicomplex(bc, H(-1.0, 2.0))


def test_overlap_tilde_normalized():
    cfg = DEFAULT_QUAD
    for model in (VACUUM, GENERIC):
        for z in (0.7, 1.3 + 0.4j):
            got = overlap_tilde(model, z, z)
            assert abs(got - 1.0) <= 10 * cfg.rel_tol


def test_overlap_tilde_bound_and_validation():
    cfg = DEFAULT_QUAD
    rng = np.random.default_rng(4410)
    for _ in range(12):
        z = rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(-1.2, 1.2))
        zp = rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(-1.2, 1.2))
        assert abs(overlap_tilde(GENERIC, z, zp)) <= 1.0 + 10 * cfg.rel_tol
    with pytest.raises(ValidationError):
        overlap_tilde(GENERIC, 0.0, 1.0)
    # |z|^2 past the float range, although conj(z) z' = 1: refused before any
    # integral, where a bare OverflowError came after the numerator's
    continuum._node_sets.cache_clear()
    for z, zp, name in ((1e200, 1e-200, "z"), (1e-200, 1e200j, "zp")):
        with pytest.raises(OverflowError, match=rf"^\|{name}\|\^2 is past the float range, {name} = "):
            overlap_tilde(VACUUM, z, zp)
    assert continuum._node_sets.nbytes == 0


def test_overlap_tilde_vacuum_ratio():
    # <1|2> = nu(2)/sqrt(nu(1) nu(4)), every factor by quadrature
    for scheme in ("gk", "ts"):
        got = overlap_tilde(VACUUM, 1.0, 2.0, scheme=scheme)
        ref = nu(VACUUM, 2.0, scheme=scheme) / math.sqrt(
            nu(VACUUM, 1.0, scheme=scheme) * nu(VACUUM, 4.0, scheme=scheme)
        )
        assert abs(got - ref) <= 1e-7 * abs(ref)


@pytest.mark.parametrize("scheme", ["gk", "ts"])
def test_overlap_tilde_overflow_raises_without_warnings(scheme):
    # about e^800, past float64: the range search refuses it before any
    # integral; about e^711: every integrand value is finite but their sum
    # is not, and the one run, on the scaled integrand, refuses it.  Either
    # way numpy's overflow warnings stay inside, and nothing reaches stderr.
    for z, peak in ((28.3, "711.813"), (math.sqrt(711.0), "706.797")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=rf"^nu\(zeta\) is past the float range \(log-integrand peak {peak}\)$"):
                overlap_tilde(VACUUM, z, z, scheme=scheme)


@pytest.mark.parametrize(
    "value, complex_func, text",
    [
        (math.inf, False, r"integral inf \(error inf\)"),
        (complex(math.inf, 0.0), True, r"integral \(inf\+0j\) \(error \(inf\+0j\)\)"),
    ],
)
def test_non_finite_integral_leaves_the_float64_range(value, complex_func, text):
    # the last check of every integral: since the range search refuses a
    # log-integrand past the float range, no nu reaches it with an inf value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=f"^{text} leaves the float64 range$"):
            continuum._integrate(
                None, lambda lo, hi: np.full(21, value), 0.0, 1.0, continuum.DEFAULT_QUAD, "gk", complex_func
            )


def test_state_density_at_zero_energy():
    for z in (0.5, 1.0 + 0.8j):
        got = state_density(GENERIC, z, 0.0)
        ref = 1.0 / math.sqrt(nu(GENERIC, abs(z) ** 2))
        assert got == pytest.approx(ref, rel=1e-12)


def test_state_density_real_positive():
    for E in (0.0, 0.5, 1.0, 3.7):
        d = state_density(VACUUM, 1.3, E)
        assert d.imag == 0.0
        assert d.real > 0.0


def test_state_density_normalized():
    # at DEFAULT_QUAD, with the bound this test held at rel_tol 1e-9
    for r in (0.5, 1.0, 2.0):
        z = r * cmath.exp(0.4j)
        total, _ = si.quad(
            lambda E: abs(state_density(VACUUM, z, E)) ** 2, 0.0, 60.0, limit=200
        )
        assert abs(total - 1.0) <= 10 * 1e-9 + 1e-9


def test_state_density_validation():
    with pytest.raises(ValidationError):
        state_density(VACUUM, 0.0, 1.0)
    with pytest.raises(ValidationError):
        state_density(VACUUM, 1.0, -0.5)
    continuum._node_sets.cache_clear()
    with pytest.raises(OverflowError, match=r"^\|z\|\^2 is past the float range, z = \(1e\+200\+0j\)$"):
        state_density(VACUUM, 1e200, 1.0)
    assert continuum._node_sets.nbytes == 0


def _vacuum_nu_by_quad(log_zeta):
    """integral_0^1 exp(E log zeta) / Gamma(E+1) dE by scipy's quad; past
    E = 1 the integrand of a log zeta below -400 is under e^-400."""
    def part(f):
        return si.quad(lambda E: f(cmath.exp(E * log_zeta - math.lgamma(E + 1.0))), 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return complex(part(lambda v: v.real), part(lambda v: v.imag))


_TINY = 1e-200  # |z|^2 = 1e-400 underflows to 0.0


@pytest.mark.parametrize("scheme", ["gk", "ts"])
def test_a_tiny_z_whose_square_underflows(scheme):
    # these raised a bare ValueError or ZeroDivisionError: nu(0.0) is 0, and log(0) has no value
    log_sq = 2.0 * math.log(_TINY)
    nu_sq, nu_one = _vacuum_nu_by_quad(log_sq).real, NU_VACUUM_AT_1
    assert continuum._nu_integral(VACUUM, log_sq, QuadConfig(), scheme)[0] == pytest.approx(nu_sq, rel=1e-10)
    assert overlap_tilde(VACUUM, _TINY, _TINY, scheme=scheme) == pytest.approx(1.0, rel=1e-10)
    ref = _vacuum_nu_by_quad(math.log(_TINY)) / math.sqrt(nu_sq * nu_one)
    assert overlap_tilde(VACUUM, _TINY, 1.0, scheme=scheme) == pytest.approx(ref, rel=1e-10)
    # conj(z) z' underflows too; the phase difference -3.2 is brought to 2 pi - 3.2
    z, zp = _TINY * cmath.exp(0.3j), _TINY * cmath.exp(-2.9j)
    ref = _vacuum_nu_by_quad(complex(log_sq, 2.0 * math.pi - 3.2)) / nu_sq
    assert overlap_tilde(VACUUM, z, zp, scheme=scheme) == pytest.approx(ref, rel=1e-10)
    assert overlap_tilde(VACUUM, z, z, scheme=scheme) == pytest.approx(1.0, rel=1e-10)


def test_state_density_at_a_tiny_z():
    ref = cmath.exp(0.5 * math.log(_TINY) - 0.5 * math.lgamma(1.5)) / math.sqrt(
        _vacuum_nu_by_quad(2.0 * math.log(_TINY)).real)
    assert state_density(VACUUM, _TINY, 0.5) == pytest.approx(ref, rel=1e-10)


def _vacuum_nu_mp(zeta):
    """integral_0^inf zeta^E / Gamma(E+1) dE by mpmath's quad, at the caller's precision."""
    log_zeta = mpmath.log(zeta)
    return mpmath.quad(lambda E: mpmath.exp(E * log_zeta) / mpmath.gamma(E + 1),
                       [0, mpmath.mpf("0.001"), mpmath.mpf("0.01"), mpmath.mpf("0.1"), 1, mpmath.inf])


@pytest.mark.parametrize("z, w", [(1e-160, None), (1e-160, 0.5), (2e-159 + 1e-159j, 3e-160 - 1e-160j),
                                  (1e-160, 1e-160j)])
def test_a_subnormal_square_or_product(z, w):
    # |z|^2, |z'|^2 or conj(z) z' is a subnormal that has lost bits: these
    # were 3.2e-11 to 7.6e-9 off; w None is state_density at E = 0.5
    with mpmath.workdps(40):
        zm = mpmath.mpc(z)
        if w is None:
            got = state_density(VACUUM, z, 0.5)
            ref = zm ** 0.5 / mpmath.sqrt(mpmath.gamma(1.5) * _vacuum_nu_mp(abs(zm) ** 2))
        else:
            wm = mpmath.mpc(w)
            got = overlap_tilde(VACUUM, z, w)
            ref = _vacuum_nu_mp(mpmath.conj(zm) * wm) / mpmath.sqrt(
                _vacuum_nu_mp(abs(zm) ** 2) * _vacuum_nu_mp(abs(wm) ** 2))
        ref = complex(ref)
    assert abs(got - ref) <= 1e-12 * abs(ref)


# -- one run per nu integral, with tolerances at nu_with_error ------------------

# nu(705) on the vacuum model, 40-digit mpmath: e^705 - 0.1257069638360890,
# from nu(x) = e^x - integral_0^inf e^{-xt} / (t (pi^2 + ln^2 t)) dt
NU_VACUUM_AT_705 = 1.5052538330631940638e306


def _scaled_range(model, log_zeta):
    """(hi, peak) of the range search, and whether the one run takes the scaled integrand."""
    hi, peak = continuum._e_max(model, log_zeta)
    return hi, peak, peak + math.log(hi) > continuum._LOG_FLOAT_MAX - continuum._SCALE_BITS * math.log(2.0)


@pytest.mark.parametrize("scheme", ["gk", "ts"])
@pytest.mark.parametrize("zeta", [705.0, 708.5, 709.7])
def test_an_in_gap_nu_integral_runs_once(monkeypatch, zeta, scheme):
    # the range search picks the scale before the one run; a failed first
    # run used to run again on the scaled integrand, with abs_tol unscaled
    assert _scaled_range(VACUUM, math.log(zeta))[2]
    calls = []
    integrate = continuum._integrate

    def counted(*args):
        calls.append(args[4])
        return integrate(*args)

    monkeypatch.setattr(continuum, "_integrate", counted)
    for cfg in (DEFAULT_QUAD, QuadConfig(1e-10, 1e290), QuadConfig(1e-10, 5e-324)):
        calls.clear()
        value, err = nu_with_error(VACUUM, zeta, cfg, scheme)
        assert math.isfinite(value) and math.isfinite(err)
        assert len(calls) == 1
        assert calls[0].rel_tol == cfg.rel_tol
        assert calls[0].abs_tol == (math.ldexp(cfg.abs_tol, -continuum._SCALE_BITS) or math.ulp(0.0))


@pytest.mark.parametrize("scheme", ["gk", "ts"])
@pytest.mark.parametrize(
    "cfg", [DEFAULT_QUAD, QuadConfig(1e-6, 1e-9), QuadConfig(1e-13, 1e-300), QuadConfig(1e-10, 1e250)]
)
def test_the_scaled_run_keeps_the_bits_of_an_unscaled_run(scheme, cfg):
    # 2^-64 scales the integrand and abs_tol exactly, so wherever the
    # unscaled run settles an in-gap integral, the scaled run returns the
    # same value and error estimate
    params = VACUUM.params
    settled = 0
    for log_zeta in [math.log(x) for x in np.linspace(640.0, 713.0, 30)] + [complex(math.log(705.0), 0.3)]:
        hi, _, scaled = _scaled_range(VACUUM, log_zeta.real)
        if not scaled:
            continue
        on_nodes, on_sub = continuum._integrands(params, log_zeta)
        try:
            with np.errstate(under="ignore", over="ignore", invalid="ignore"):
                want = continuum._integrate(
                    on_nodes, on_sub, 0.0, hi, cfg, scheme, isinstance(log_zeta, complex),
                    lambda level: continuum._ts_level(params, hi, level),
                )
        except (OverflowError, QuadratureFailure):
            continue  # what the scale is for
        assert continuum._nu_integral(VACUUM, log_zeta, cfg, scheme) == want
        settled += 1
    assert settled >= 15


def test_a_scaled_tanh_sinh_refusal_quotes_the_unscaled_step_error():
    # the scaled run quoted its own step error, 2^64 too small: "last step
    # error 1.59e+259" for an integral near 1.5e292.  The unscaled run,
    # which meets no overflow here, refuses with the same step error.
    zeta, cfg = 672.7241379310345, QuadConfig(1e-14, 1e-300)
    hi, _, scaled = _scaled_range(VACUUM, math.log(zeta))
    assert scaled
    on_nodes, on_sub = continuum._integrands(VACUUM.params, math.log(zeta))
    with pytest.raises(QuadratureFailure) as unscaled, np.errstate(under="ignore"):
        continuum._integrate(
            on_nodes, on_sub, 0.0, hi, cfg, "ts", False,
            lambda level: continuum._ts_level(VACUUM.params, hi, level),
        )
    text = "tanh-sinh did not reach tolerance (last step error 2.92e+278)"
    assert str(unscaled.value) == text
    with pytest.raises(QuadratureFailure, match=f"^{re.escape(text)}$"):
        nu_with_error(VACUUM, zeta, cfg, "ts")


@pytest.mark.parametrize("zeta, scheme", [(705.0, "ts"), (709.7, "gk")])
def test_an_in_gap_nu_with_a_loose_abs_tol(zeta, scheme):
    # these printed 1.0178016411077975e+299 (ts at 705) and refused (gk at
    # 709.7): a retry kept abs_tol 1e290 on an integrand 2^64 smaller.  At
    # 709.7 the reference is e^zeta, whose correction (below 1) is far
    # under the bound.
    ref = NU_VACUUM_AT_705 if zeta == 705.0 else float(mpmath.exp(mpmath.mpf(zeta)))
    value, _ = nu_with_error(VACUUM, zeta, QuadConfig(1e-10, 1e290), scheme)
    assert abs(value - ref) <= 1e-10 * ref


@pytest.mark.parametrize("call", [
    lambda: nu(VACUUM, 1.0, cfg=DEFAULT_QUAD),
    lambda: overlap_tilde(VACUUM, 1.0, 0.5j, cfg=DEFAULT_QUAD),
    lambda: state_density(VACUUM, 1.0, 0.5, cfg=DEFAULT_QUAD),
])
def test_only_nu_with_error_takes_tolerances(call):
    with pytest.raises(TypeError, match="cfg"):
        call()
