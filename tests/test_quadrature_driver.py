"""overlap_tilde and moment_check through continuum._integrate.

Both used to call QUADPACK themselves: overlap_tilde through scipy's
complex_func without full_output, so a failed pass only warned and its
value came back, and moment_check with a failure text of its own.  The
frozen copies below are those two routes.  Wherever a copy ran without a
QUADPACK warning the package must give the same repr, and wherever it
warned the package must raise QuadratureFailure.
"""

import cmath
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from fwstates import continuum, foxwright, gammafn, hfunction
from fwstates.coherent import CoherentModel, rho
from fwstates.continuum import DEFAULT_QUAD, QuadConfig, overlap_tilde
from fwstates.errors import ContourFailure, QuadratureFailure, ValidationError
from fwstates.foxwright import FWParams
from fwstates.foxwright_bc import BCFWParams, ConvergenceReport, classify
from fwstates.hfunction import HWeightParams, MomentResult, moment_check

_VACUUM = CoherentModel(FWParams())


# -- frozen copies -----------------------------------------------------------


def _ref_overlap_tilde(model, z, zp, cfg=DEFAULT_QUAD, scheme="gk"):
    z = complex(z)
    zp = complex(zp)
    if z == 0 or zp == 0:
        raise ValidationError("overlap_tilde needs |z|, |z'| > 0")
    log_zeta = cmath.log(z.conjugate() * zp)
    e_hi = continuum._e_max(model, log_zeta.real)
    on_nodes, at_node = continuum._integrands(model.params, log_zeta)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if scheme == "gk":
            out = integrate.quad(
                at_node, 0.0, e_hi, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                limit=continuum.MAX_SUBDIVISIONS, complex_func=True,
            )
        else:
            out = continuum._tanh_sinh(on_nodes, 0.0, e_hi, cfg.rel_tol, cfg.abs_tol)
    num, _ = continuum._finite(*out)
    den = math.sqrt(
        continuum.nu(model, abs(z) ** 2, cfg, scheme) * continuum.nu(model, abs(zp) ** 2, cfg, scheme)
    )
    return num / den


def _ref_moment_check(model, k):
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


def _outcome(fn, *args, **kwargs):
    """(repr of fn's value or of its exception, whether QUADPACK warned)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        try:
            out = repr(fn(*args, **kwargs))
        except (ArithmeticError, QuadratureFailure, ContourFailure) as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, any(issubclass(w.category, integrate.IntegrationWarning) for w in caught)


# -- strategies --------------------------------------------------------------

_PAIR = st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 1.5))


@st.composite
def _models(draw):
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.4)
    return CoherentModel(FWParams(upper=upper, lower=lower))


_POINTS = st.builds(cmath.rect, st.floats(0.1, 6.0), st.floats(-math.pi, math.pi))


# -- the fold keeps every output the old routes gave without a warning ------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    _models(),
    _POINTS,
    _POINTS,
    st.sampled_from(["gk", "ts"]),
    st.sampled_from([DEFAULT_QUAD, QuadConfig(1e-6, 1e-9)]),
)
def test_overlap_tilde_matches_frozen_copy(model, z, zp, scheme, cfg):
    want, warned = _outcome(_ref_overlap_tilde, model, z, zp, cfg, scheme)
    got, got_warned = _outcome(overlap_tilde, model, z, zp, cfg, scheme)
    assert not got_warned
    if warned:
        assert got.startswith("QuadratureFailure: Gauss-Kronrod failed: ")
    else:
        assert got == want


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_models(), st.integers(0, 8))
def test_moment_check_matches_frozen_copy(model, k):
    want, warned = _outcome(_ref_moment_check, model, k)
    got, got_warned = _outcome(moment_check, model, k)
    assert not (warned or got_warned)
    if want.startswith("QuadratureFailure: outer moment quadrature failed: "):
        assert got.startswith("QuadratureFailure: Gauss-Kronrod failed: ")
    else:
        assert got == want


def test_overlap_tilde_gk_failure_raises():
    # the old route warned and returned -1.16e-15-5.9e-16j; tanh-sinh gives
    # 0.27-0.94j, and a 50-digit mpmath quadrature -5.7e-45+2.4e-45j
    zp = 10.0 * cmath.exp(2.5j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="^Gauss-Kronrod failed: The occurrence of roundoff"):
            overlap_tilde(_VACUUM, 10.0, zp)


def test_complex_integrand_takes_two_real_passes(monkeypatch):
    """A complex integrand is integrated real part first, then imaginary
    part, each with full_output; a real one in a single pass."""
    calls = []
    quad = integrate.quad

    def spy(f, *args, **kwargs):
        calls.append((f(0.5), kwargs["full_output"]))
        return quad(f, *args, **kwargs)

    monkeypatch.setattr(integrate, "quad", spy)
    f = lambda x: complex(x, -2 * x)  # noqa: E731
    value, err = continuum._integrate(None, f, 0.0, 1.0, DEFAULT_QUAD, "gk", True)
    assert calls == [(0.5, 1), (-1.0, 1)]
    assert value == 0.5 - 1j and isinstance(err, complex)
    calls.clear()
    assert continuum._integrate(None, lambda x: 3.0 * x, 0.0, 1.0, DEFAULT_QUAD, "gk")[0] == 1.5
    assert calls == [(1.5, 1)]


def test_moment_failure_names_gauss_kronrod(monkeypatch):
    # a density no 200-subinterval rule can settle
    monkeypatch.setattr(hfunction, "_density_scan", lambda density, k: 1.0)
    monkeypatch.setattr(hfunction, "eval_h", lambda hp, x: math.sin(1.0 / x) / x)
    with pytest.raises(QuadratureFailure, match="^Gauss-Kronrod failed: "):
        moment_check(_VACUUM, 0)


def test_settings_no_caller_passed_are_gone():
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(hfunction.weight) == ["model", "x"]
    assert hfunction.measure_density is hfunction.weight
    assert names(hfunction.measure_density_b) == ["model", "X"]
    assert names(moment_check) == ["model", "k"]
    assert names(continuum.nu_bicomplex) == ["model", "W", "scheme"]
    assert names(gammafn.is_gamma_pole) == names(gammafn.pole_mask) == ["w"]
    assert names(foxwright.oracle_pfq) == ["upper", "lower", "z"]
    assert names(foxwright.oracle_mittag_leffler) == ["B1", "b1", "z"]
    assert names(foxwright.oracle_bessel_j) == ["v", "y"]
    assert "sign_tol" not in {f.name for f in dataclasses.fields(ConvergenceReport)}
    assert classify(BCFWParams([], [])).to_json()["sign_tol"] == 1e-12
