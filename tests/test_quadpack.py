"""The in-package QUADPACK port against scipy.integrate.quad.

quadpack.dqagse must give, on the same point values, the value, error
estimate, subinterval count, evaluation count and ier that
scipy.integrate.quad(..., full_output=1) gives, and quadpack.message
scipy's text for that ier.  The corpus reaches every ier from 0 to 5,
with NaN and inf among the values.  Every Gauss-Kronrod output of the
package must also keep the repr of the scipy-route frozen copies in
_frozen.py.
"""

import cmath
import math
import warnings

import pytest
from _frozen import (
    assert_same_nu_outcome,
    nu_integral,
    ref_moment_check,
    ref_overlap_tilde,
    ref_state_density,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from fwstates import continuum, quadpack
from fwstates.coherent import CoherentModel
from fwstates.continuum import DEFAULT_QUAD, QuadConfig, nu, nu_with_error, overlap_tilde, state_density
from fwstates.errors import QuadratureFailure, ValidationError
from fwstates.foxwright import FWParams
from fwstates.hfunction import moment_check

_VACUUM = CoherentModel(FWParams())
_UNIT = CoherentModel(FWParams([(1.0, 1.0)], [(2.0, 1.0)]))
_WRIGHT = CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)]))
_TWO = CoherentModel(FWParams([(1.7, 0.6), (0.9, 0.5)], [(2.4, 1.2), (1.5, 0.9)]))
_MODELS = [_VACUUM, _UNIT, _WRIGHT, _TWO]


def _family(name, c):
    """A scalar integrand of x, with one parameter c in [0, 1]."""
    if name == "smooth":
        return lambda x: math.exp(-c * x) * math.cos(3.0 * x)
    if name == "peaked":
        w = 10.0 ** (-6.0 * c)
        return lambda x: 1.0 / ((x - 0.5) ** 2 + w * w)
    if name == "oscillatory":
        w = 10.0 ** (4.0 * c)
        return lambda x: math.sin(w * x)
    if name == "inv_sqrt":
        return lambda x: 1.0 / math.sqrt(abs(x - c)) if x != c else math.inf
    if name == "log":
        return lambda x: math.log(abs(x - c)) if x != c else -math.inf
    if name == "pow_0.9":
        return lambda x: abs(x - c) ** -0.9 if x != c else math.inf
    if name == "step":
        return lambda x: 1.0 if x < c else -2.0
    if name == "reciprocal":
        return lambda x: 1.0 / (x - c) if x != c else math.inf
    if name == "sin_1e9":
        return lambda x: math.sin(1e9 * x + c)
    if name == "nan":
        return lambda x: math.nan if abs(x - c) < 0.01 else x
    assert name == "inf"
    return lambda x: math.inf if abs(x - c) < 0.01 else x


_FAMILIES = ["smooth", "peaked", "oscillatory", "inv_sqrt", "log", "pow_0.9", "step",
             "reciprocal", "sin_1e9", "nan", "inf"]


def _scipy(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, last, neval, message or None) of scipy's quad."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    info = out[2]
    return out[0], out[1], int(info["last"]), int(info["neval"]), out[3] if len(out) > 3 else None


def _port(f, a, b, epsabs, epsrel, limit):
    """The same tuple from quadpack.dqagse, f taken on each subinterval's nodes, and its ier."""
    def on_sub(lo, hi):
        return [f(x) for x in quadpack.nodes(lo, hi).tolist()]

    result, abserr, neval, ier, last = quadpack.dqagse(on_sub, a, b, epsabs, epsrel, limit)
    return (result, abserr, last, neval, quadpack.message(ier, limit) if ier else None), ier


# cases that reach each ier (QUADPACK's code: 0 success, 1 limit, 2 roundoff,
# 3 bad integrand behaviour, 4 no convergence of the extrapolation, 5 divergence)
_IER_CASES = [
    (0, ("oscillatory", 0.5, -1.0, 2.0, 1e-12, 1e-6, 200)),
    (1, ("oscillatory", 0.618, 0.0, 1.0, 1e-12, 1e-10, 3)),
    (1, ("nan", 1.0, 0.0, 2.0, 1e-12, 1e-13, 1)),
    (2, ("nan", 1.0, 0.0, 2.0, 0.0, 1e-6, 200)),
    (2, ("smooth", 1.0, -1.0, 0.3, 0.0, 1e-13, 50)),
    (3, ("pow_0.9", 0.558, 0.0, 2.0, 1e-12, 1e-10, 200)),
    (4, ("peaked", 1.0, -1.0, 1.0, 1e-12, 1e-10, 200)),
    (5, ("reciprocal", 1.0, -1.0, 2.0, 0.0, 1e-6, 200)),
    (5, ("sin_1e9", 1.0, -1.0, 2.0, 0.0, 1e-13, 200)),
]


@pytest.mark.parametrize("ier, case", _IER_CASES)
def test_each_ier_matches_scipy(ier, case):
    name, c, *rest = case
    got, got_ier = _port(_family(name, c), *rest)
    assert got_ier == ier
    assert repr(got) == repr(_scipy(_family(name, c), *rest))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.sampled_from(_FAMILIES),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.sampled_from([0.0, -1.0]),
    st.sampled_from([0.3, 1.0, 2.0]),
    st.sampled_from([1e-12, 0.0]),
    st.sampled_from([1e-10, 1e-6, 1e-13]),
    st.sampled_from([1, 3, 50, 200]),
)
@example("inf", 0.5, 0.0, 1.0, 1e-12, 1e-10, 50)
@example("log", 0.5, 0.0, 1.0, 0.0, 1e-13, 200)
# a NaN on the first rule's nodes alone: the running area and error sum stay
# NaN while every subinterval is finite, so each comparison must fall as
# QUADPACK's does (extrapolation at limit 4, the result from it at 50)
@example("nan", 0.1276513458300732, -1.0, 2.9932327640839995, 1e-12, 1.49e-8, 4)
@example("nan", 0.1276513458300732, -1.0, 2.9932327640839995, 1e-12, 1.49e-8, 50)
# a NaN error estimate, which the bisected pair's order must place as QUADPACK does
@example("nan", 0.696, -1.0, 1.94, 1e-12, 1e-13, 3)
# the order of the Gauss sum shows in the error estimate here
@example("inf", 0.231, 0.0, 3.09, 0.0, 1e-10, 200)
def test_dqagse_matches_scipy(name, c, a, b, epsabs, epsrel, limit):
    f = _family(name, c)
    assert repr(_port(f, a, b, epsabs, epsrel, limit)[0]) == repr(_scipy(f, a, b, epsabs, epsrel, limit))


def test_nodes_are_the_points_scipy_asks_for():
    seen = []

    def f(x):
        seen.append(x)
        return x * x

    integrate.quad(f, 0.1, 0.7, limit=1, full_output=1)
    assert sorted(seen) == quadpack.nodes(0.1, 0.7).tolist()


def test_qags_raises_scipys_text():
    f = _family("oscillatory", 0.618)
    value, err = quadpack.qags(lambda a, b: quadpack.nodes(a, b) ** 2, 0.0, 1.0, 1e-12, 1e-10, 200)
    assert (value, err) == _scipy(lambda x: x * x, 0.0, 1.0, 1e-12, 1e-10, 200)[:2]
    with pytest.raises(QuadratureFailure) as caught:
        quadpack.qags(lambda a, b: [f(x) for x in quadpack.nodes(a, b).tolist()], 0.0, 1.0, 1e-12, 1e-10, 3)
    assert str(caught.value) == "Gauss-Kronrod failed: " + _scipy(f, 0.0, 1.0, 1e-12, 1e-10, 3)[4]


@pytest.mark.parametrize("a, b, epsabs, epsrel, limit", [
    (1.0, 1.0, 1e-12, 1e-10, 50), (1.0, 0.0, 1e-12, 1e-10, 50), (0.0, 1.0, 1e-12, 1e-10, 0),
    (0.0, 1.0, 0.0, 1e-15, 50),
])
def test_dqagse_refuses_what_quadpack_refuses(a, b, epsabs, epsrel, limit):
    with pytest.raises(ValidationError):
        quadpack.dqagse(lambda lo, hi: [1.0] * 21, a, b, epsabs, epsrel, limit)


# -- the package's Gauss-Kronrod outputs keep the scipy route's reprs ---------


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, QuadratureFailure) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("zeta", [1e-3, 0.4, 2.5, 9.0, 60.0, 800.0])
def test_nu_matches_scipy_route(model, zeta):
    continuum._node_sets.cache_clear()
    log_zeta = math.log(zeta)
    assert_same_nu_outcome(
        _outcome(nu_with_error, model, zeta), _outcome(nu_integral, model, log_zeta, DEFAULT_QUAD, "gk")
    )
    assert_same_nu_outcome(
        _outcome(nu, model, zeta), _outcome(lambda: nu_integral(model, log_zeta, DEFAULT_QUAD, "gk")[0])
    )


def test_nu_overflow_at_800_keeps_its_text():
    # the range search refuses it before Gauss-Kronrod integrates; the
    # scipy route's integral was inf
    assert _outcome(nu, _VACUUM, 800.0) == (
        "OverflowError: nu(zeta) is past the float range (log-integrand peak 711.3)"
    )
    assert _outcome(nu_integral, _VACUUM, math.log(800.0), DEFAULT_QUAD, "gk") == (
        "OverflowError: integral inf (error inf) leaves the float64 range"
    )
    # nu(711) passes the range search: every integrand value is finite, their
    # sum is not, and the scipy route ends in QUADPACK's roundoff flag, where
    # the retry on the scaled integrand refuses it
    assert _outcome(nu, _VACUUM, 711.0) == (
        "OverflowError: nu(zeta) is past the float range (log-integrand peak 706.797)"
    )
    assert _outcome(nu_integral, _VACUUM, math.log(711.0), DEFAULT_QUAD, "gk").startswith(
        "QuadratureFailure: Gauss-Kronrod failed: The occurrence of roundoff"
    )
    # nu(709.5), about 1.35e308, fits in float64: the scipy route fails on it
    assert nu(_VACUUM, 709.5) == pytest.approx(math.exp(709.5), rel=1e-12)
    assert _outcome(nu_integral, _VACUUM, math.log(709.5), DEFAULT_QUAD, "gk").startswith(
        "QuadratureFailure: Gauss-Kronrod failed: The occurrence of roundoff"
    )


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("log_zeta", [complex(0.3, 1.0), complex(-1.0, 2.9), complex(math.log(800.0), 0.3),
                                      complex(2.0, -0.5)])
@pytest.mark.parametrize("cfg", [DEFAULT_QUAD, QuadConfig(1e-6, 1e-9)])
def test_complex_nu_matches_scipy_route(model, log_zeta, cfg):
    assert_same_nu_outcome(
        _outcome(continuum._nu_integral, model, log_zeta, cfg, "gk"),
        _outcome(nu_integral, model, log_zeta, cfg, "gk"),
    )


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("z, zp", [(1.1 + 0.3j, 0.7 - 0.2j), (0.5, 2.0j), (3.0 - 1.0j, -2.5 + 0.5j)])
def test_overlap_tilde_matches_scipy_route(model, z, zp):
    assert _outcome(overlap_tilde, model, z, zp) == _outcome(ref_overlap_tilde, model, z, zp)


def test_overlap_tilde_roundoff_failure_keeps_scipys_text():
    # the frozen copy warned and returned a value; its numerator through
    # scipy with full_output names the failure the package raises
    z, zp = 10.0, 10.0 * cmath.exp(2.5j)
    want = _outcome(nu_integral, _VACUUM, cmath.log(z * zp), DEFAULT_QUAD, "gk")
    assert want.startswith("QuadratureFailure: Gauss-Kronrod failed: The occurrence of roundoff")
    assert _outcome(overlap_tilde, _VACUUM, z, zp) == want


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("z, E", [(0.8 + 0.6j, 0.0), (1.5, 2.5), (-2.0 + 1.0j, 7.3)])
def test_state_density_matches_scipy_route(model, z, E):
    continuum._node_sets.cache_clear()
    assert _outcome(state_density, model, z, E) == _outcome(ref_state_density, model, z, E)


@pytest.mark.parametrize("model", [_VACUUM, _UNIT, _WRIGHT])
def test_moment_check_matches_scipy_route(model):
    for k in range(9):
        assert _outcome(moment_check, model, k) == _outcome(ref_moment_check, model, k)
