"""The defect ledger: each wrong value returned with no error that
ROADMAP.md names, as one strict xfail.

A case holds the package to the north-star contract: the value lies
within 1e-10 relative of a frozen reference, or the call refuses with a
numeric failure, one of the errors the CLI maps to exit 3.  The
boundary cases (item 9) and the vacuum state (item 7(b)) are held to
their items' own contracts, which a refusal does not meet.  Every
reference is a literal from a 50-digit (or finer) mpmath computation
on the float inputs as given, with each gamma argument formed as
a + k*mpf(A), since forming a + k*A in float64 first moves the
reference itself.

Each case fails today for the reason its marker states, so tier-1's
xfailed count is the count of known open defects.  A fix shows as an
XPASS, which strict=True turns into a failure until the fix removes
that case's marker.  The seed-905 overlap's strict xfail lives in
test_states.py and is not repeated here.
"""

import cmath

import mpmath
import pytest

from fwstates.coherent import CoherentModel, make_state, overlap
from fwstates.continuum import overlap_tilde
from fwstates.errors import (
    ContourFailure,
    MaxTermsExceeded,
    PoleError,
    QuadratureFailure,
    SingularElement,
    TruncationError,
)
from fwstates.foxwright import FWParams, evaluate
from fwstates.hfunction import HWeightParams, eval_h

# what the CLI reports as a numeric failure (exit 3)
_NUMERIC_FAILURES = (
    PoleError,
    MaxTermsExceeded,
    TruncationError,
    QuadratureFailure,
    ContourFailure,
    SingularElement,
    OverflowError,
)


def _holds(call, ref, rel=1e-10):
    """The contract: call() within rel of ref, or a numeric failure."""
    try:
        value = call()
    except _NUMERIC_FAILURES:
        return
    assert abs(value - ref) <= rel * abs(ref), f"{value!r} against {ref!r}"


# -- item 1: series cancellation on the negative real axis ------------------

_ITEM1_MODELS = {
    "exp": FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]),
    "upper-lower": FWParams(upper=[(1.2, 0.7)], lower=[(2.1, 0.4)]),
    "wright": FWParams(upper=[], lower=[(1.5, 0.5)]),
}
# psi(z), summed by mpmath at 160 digits (200 agree to 110 digits or more);
# the imaginary parts, from the phase k i pi of log z, are below 1e-110
_ITEM1_CELLS = [
    ("exp", -10.0, 4.539992976248485153559152e-5, "1.4e-7"),
    ("exp", -20.0, 2.06115362243855782796594e-9, "5.8e2"),
    ("exp", -30.0, 9.357622968840174604915832e-14, "7.8e9"),
    ("upper-lower", -10.0, 0.02633025923594589151364131, "4.4e-5"),
    ("upper-lower", -20.0, 0.008406071069611129794220189, "3.3e12"),
    ("upper-lower", -30.0, 0.004246067424916519793828282, "3.2e33"),
    ("wright", -10.0, 0.002096310264261040912121638, "1.6e-10"),
    ("wright", -20.0, -0.0001139865284178508234517551, "7.7e-7"),
    ("wright", -30.0, 4.715941581083147401768348e-6, "7.5e-4"),
]


@pytest.mark.parametrize(
    "model, z, ref",
    [
        pytest.param(
            model, z, ref,
            id=f"{model}-z{z:g}",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"series cancellation: relative error {err} with exit 0 (ROADMAP item 1)",
            ),
        )
        for model, z, ref, err in _ITEM1_CELLS
    ],
)
def test_series_on_the_negative_axis(model, z, ref):
    _holds(lambda: evaluate(_ITEM1_MODELS[model], z).value, ref)


# -- item 1(d): the overlap whose N(conj(z) z') cancels by about 1e83 --------

_ITEM1D_MODEL = CoherentModel(
    FWParams(
        upper=[(2.929550738930658, 1.4472416378738564), (2.0862003957136137, 0.831315097839454)],
        lower=[(2.668222991444634, 0.520648631953876), (1.6246481863813942, 1.0825954364681925)],
    )
)
# the three N series at 150 digits, conj(z) z' formed exactly (200 digits agree)
_ITEM1D_OVERLAP = 4.222874431568624654286064e-84 + 8.587321111785026376811062e-85j


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="series cancellation past float64: returns 2.1e-13+3.0e-13j (ROADMAP item 1(d))",
)
def test_overlap_whose_normalization_cancels():
    z, zp = 2.46744398865572, 2.3797241532920346 + 0.652068088002898j
    _holds(lambda: overlap(_ITEM1D_MODEL, z, zp), _ITEM1D_OVERLAP)


# -- item 6: tanh-sinh on the oscillating complex nu integrand ----------------

_VACUUM = CoherentModel(FWParams(upper=[], lower=[]))
# nu(conj(z) z') on the ray E = r e^{1.3i} (1.1 agrees) over nu(100) on the
# real axis, both by mpmath quadrature at 50 digits
_ITEM6_OVERLAP = -5.746895107571607524089204e-45 + 2.431646144198109387336737e-45j


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="tanh-sinh aliases zeta^E: returns 0.27-0.94j (ROADMAP item 6)",
)
def test_overlap_tilde_ts_on_the_vacuum_model():
    zp = 10.0 * cmath.exp(2.5j)
    _holds(lambda: overlap_tilde(_VACUUM, 10.0, zp, scheme="ts"), _ITEM6_OVERLAP)


# -- item 7(b): the vacuum state past the float range of N ---------------------


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="N(729) = e^729 is formed itself and overflows (ROADMAP item 7(b))",
)
def test_vacuum_state_at_27_gives_the_poisson_weights():
    z = 27.0
    state = make_state(_VACUUM, z)
    mean = z * z
    with mpmath.workdps(30):
        for k, c in enumerate(state.coeffs):
            weight = mpmath.exp(k * mpmath.log(mean) - mean - mpmath.loggamma(k + 1))
            if weight > 1e-250:
                assert abs(abs(c) ** 2 - weight) <= 1e-10 * weight, k
    assert len(state.coeffs) > mean + 10 * z


# -- item 9: the capped sum next to the convergence circle's real point -------

_GAUSS = FWParams(upper=[(1.0, 1.0), (1.0, 1.0)], lower=[(2.2, 1.0)])


# 2F1(1, 1; 2.2; z) / Gamma(2.2) by mpmath at 50 digits (80 agree to 50)
_ITEM9_POINTS = [
    (1e-100, 5.445622105291676982012531 + 1.798833834486920298925252e-20j,
     "error 0.79 above its tail_bound"),
    (1e-3, 4.055474894650717678224384 + 0.4465690317565437422325064j, "error 1.6e-2"),
    (0.0199, 2.933362372001312546439197 + 0.7415051849729450469704717j, "error 8.0e-4"),
]


@pytest.mark.parametrize(
    "phase, ref",
    [
        pytest.param(
            phase, ref,
            id=f"phase{phase:g}",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"the capped sum of 10,000 terms: {err} (ROADMAP item 9)",
            ),
        )
        for phase, ref, err in _ITEM9_POINTS
    ],
)
def test_boundary_value_next_to_the_real_axis(phase, ref):
    res = evaluate(_GAUSS, cmath.exp(1j * phase), allow_boundary=True)
    err = abs(res.value - ref)
    assert err <= 1e-12 * abs(ref) and err <= res.tail_bound, (err, res.tail_bound)


# -- item 16: a cancelling H line ----------------------------------------------

_ITEM16_BLOCK = HWeightParams(
    upper=[(0.763, 0.840)], lower=[(0.0, 1.0), (1.43, 1.47), (1.02, 1.48)]
)
# the line integral at Re s = 1 by mpmath quadrature at 50 digits (Re s = 2 agrees)
_ITEM16_H = 0.3199325017612838267558814


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 16-eps stop on a cancelling line: relative error 1.2e-8 (ROADMAP item 16)",
)
def test_h_on_a_cancelling_line():
    _holds(lambda: eval_h(_ITEM16_BLOCK, 1.0483), _ITEM16_H)

