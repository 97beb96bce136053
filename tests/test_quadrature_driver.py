"""overlap_tilde and moment_check through continuum._integrate.

Both used to call QUADPACK themselves: overlap_tilde through scipy's
complex_func without full_output, so a failed pass only warned and its
value came back, and moment_check with a failure text of its own.  The
frozen copies ref_overlap_tilde and ref_moment_check in _frozen.py are
those two routes.  Wherever a copy ran without a QUADPACK warning the
package must give the same repr, and wherever it warned the package must
raise QuadratureFailure.
"""

import cmath
import dataclasses
import inspect
import math
import warnings

import pytest
from _frozen import ref_moment_check, ref_overlap_tilde
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from fwstates import continuum, foxwright, gammafn, hfunction, quadpack
from fwstates.coherent import CoherentModel
from fwstates.continuum import DEFAULT_QUAD, QuadConfig, overlap_tilde
from fwstates.errors import ContourFailure, QuadratureFailure
from fwstates.foxwright import FWParams
from fwstates.foxwright_bc import BCFWParams, ConvergenceReport, classify
from fwstates.hfunction import moment_check

_VACUUM = CoherentModel(FWParams())


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
    want, warned = _outcome(ref_overlap_tilde, model, z, zp, cfg, scheme)
    got, got_warned = _outcome(overlap_tilde, model, z, zp, cfg, scheme)
    assert not got_warned
    if warned:
        assert got.startswith("QuadratureFailure: Gauss-Kronrod failed: ")
    else:
        assert got == want


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_models(), st.integers(0, 8))
def test_moment_check_matches_frozen_copy(model, k):
    want, warned = _outcome(ref_moment_check, model, k)
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
    part, each by quadpack.qags; a real one in a single pass."""
    calls = []
    qags = quadpack.qags

    def spy(f, *args):
        calls.append(f(0.0, 1.0)[10])  # the value at the centre, 0.5
        return qags(f, *args)

    monkeypatch.setattr(quadpack, "qags", spy)
    f = lambda a, b: quadpack.nodes(a, b) * (1 - 2j)  # noqa: E731
    value, err = continuum._integrate(None, f, 0.0, 1.0, DEFAULT_QUAD, "gk", True)
    assert calls == [0.5, -1.0]
    assert value == 0.5 - 1j and isinstance(err, complex)
    calls.clear()
    g = lambda a, b: 3.0 * quadpack.nodes(a, b)  # noqa: E731
    assert continuum._integrate(None, g, 0.0, 1.0, DEFAULT_QUAD, "gk")[0] == 1.5
    assert calls == [1.5]


def test_moment_failure_names_gauss_kronrod(monkeypatch):
    # a density no 200-subinterval rule can settle
    monkeypatch.setattr(hfunction, "_density_scan", lambda density, k: 1.0)

    monkeypatch.setattr(hfunction, "_h_value", lambda hp, x, cc: math.sin(1.0 / x) / x)
    # the moment memo may hold this check's result from an earlier test
    monkeypatch.setattr(hfunction, "_moment", hfunction._moment.__wrapped__)
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
    assert names(foxwright.oracle_bessel_j) == ["v", "y"]
    assert "sign_tol" not in {f.name for f in dataclasses.fields(ConvergenceReport)}
    assert classify(BCFWParams([], [])).to_json()["sign_tol"] == 1e-12
