"""Series evaluation, margin/radius, reductions, and boundary handling."""

import cmath
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from _frozen import (
    assert_levin_within_capped,
    evaluate_per_term,
    gauss_psi,
    mittag_leffler,
    series_length,
    takes_levin_route,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwstates import foxwright
from fwstates.bicomplex import Hyperbolic, compose_idempotent
from fwstates.errors import (
    DomainViolation,
    FWError,
    MaxTermsExceeded,
    PoleError,
    ValidationError,
)
from fwstates.foxwright import (
    FWParams,
    _abs,
    _column_cache,
    _ColumnCache,
    _streak_end,
    as_pfq,
    boundary_exponent,
    evaluate,
    margin,
    oracle_bessel_j,
    oracle_pfq,
    radius,
)
from fwstates.foxwright_bc import BCFWParams
from fwstates.foxwright_bc import evaluate as evaluate_bc
from fwstates.gammafn import log_gamma_ratio

# 50-digit mpmath sums, frozen
GENERIC_PARAMS = FWParams(upper=[(0.7, 1.3)], lower=[(1.2, 0.9), (0.8, 1.1)])
GENERIC_Z = 2.5 + 1.5j
GENERIC_VALUE = 4.5314316002015950964 + 6.0197547957741199603j

DISK_PARAMS = FWParams(upper=[(1.0, 2.0)], lower=[(1.5, 1.0)])  # radius 0.25
DISK_VALUE_AT_02 = 1.8212418086828419506

# on the circle |z| = 0.25 with boundary exponent 1.2; Euler-Maclaurin
# tail summation, two independent routes agreeing to 19 digits
BOUNDARY_PARAMS = FWParams(upper=[(0.8, 2.0)], lower=[(2.0, 1.0)])
BOUNDARY_VALUE = 1.7778257552865595


def test_margin_examples():
    assert margin(FWParams(upper=[(1, 1)], lower=[(2, 1)])) == 1.0
    assert margin(DISK_PARAMS) == 0.0
    assert margin(FWParams(upper=[(1, 2)], lower=[])) == -1.0


def test_radius_examples():
    assert math.isinf(radius(FWParams(upper=[(1, 1)], lower=[(2, 1)])))
    assert radius(DISK_PARAMS) == 0.25
    third = FWParams(upper=[(1, 3)], lower=[(1, 1), (1, 1)])
    assert margin(third) == 0.0
    assert abs(radius(third) - 1.0 / 27.0) < 1e-16
    assert radius(FWParams(upper=[(1, 2)], lower=[])) == 0.0


def _empirical_ratio(params, k=2000):
    d = math.lgamma(k + 2.0) - math.lgamma(k + 1.0)
    for a, A in params.upper:
        d -= log_gamma_ratio(a, A, k).real
    for b, B in params.lower:
        d += log_gamma_ratio(b, B, k).real
    return math.exp(d)


@pytest.mark.parametrize(
    "params",
    [
        DISK_PARAMS,
        FWParams(upper=[(1, 3)], lower=[(1, 1), (1, 1)]),
        FWParams(upper=[(0.4, 1.7), (2.2, 0.8)], lower=[(1.1, 1.5)]),
    ],
)
def test_ratio_test_consistency(params):
    assert abs(margin(params)) < 1e-12
    v = radius(params)
    assert abs(_empirical_ratio(params) - v) <= 0.01 * v


def test_eval_at_zero_is_gamma_prefactor():
    res = evaluate(GENERIC_PARAMS, 0.0)
    expect = math.gamma(0.7) / (math.gamma(1.2) * math.gamma(0.8))
    assert abs(res.value - expect) < 1e-14 * expect
    assert res.tail_bound == 0.0


def test_eval_frozen_generic():
    res = evaluate(GENERIC_PARAMS, GENERIC_Z)
    assert abs(res.value - GENERIC_VALUE) <= 1e-13 * abs(GENERIC_VALUE)


def test_eval_exp_and_shifted_exp():
    assert abs(evaluate(FWParams(upper=[], lower=[]), 2.0).value - math.e**2) < 1e-13
    got = evaluate(FWParams(upper=[(1, 1)], lower=[(2, 1)]), 1.0).value
    assert abs(got - (math.e - 1.0)) < 1e-13


def test_eval_inside_finite_radius():
    res = evaluate(DISK_PARAMS, 0.2)
    assert abs(res.value - DISK_VALUE_AT_02) <= 1e-12 * DISK_VALUE_AT_02


def test_mittag_leffler_cosh():
    params = FWParams(upper=[(1, 1)], lower=[(1, 2)])
    got = evaluate(params, 4.0).value
    assert abs(got - math.cosh(2.0)) < 1e-12 * math.cosh(2.0)
    for x in np.linspace(0.0, 9.0, 10):
        got = evaluate(params, x).value
        ref = mittag_leffler(2.0, 1.0, x)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_bessel_identity():
    # (y/2)^v * 0psi1[(v+1,1)](-y^2/4) = J_v(y)
    for v in (0.0, 1.0, 2.0):
        for y in (0.5, 1.0, 3.0):
            psi = evaluate(FWParams(upper=[], lower=[(v + 1, 1)]), -(y**2) / 4.0).value
            got = (y / 2.0) ** v * psi
            assert abs(got - oracle_bessel_j(v, y)) <= 1e-10
            assert abs(got - sp.jv(v, y)) <= 1e-10


def test_oracle_anchors():
    assert abs(mittag_leffler(1.0, 1.0, 1.3) - math.exp(1.3)) < 1e-13 * math.exp(1.3)
    assert abs(oracle_pfq([], [], 2.0 + 1.0j) - cmath.exp(2.0 + 1.0j)) < 1e-13 * abs(
        cmath.exp(2 + 1j)
    )
    assert abs(oracle_bessel_j(0.0, 1.0) - 0.76519768656) < 1e-10


def test_as_pfq():
    pref, up, lo = as_pfq(FWParams(upper=[(2, 1)], lower=[(3, 1)]))
    assert abs(pref - 0.5) < 1e-15
    assert up == [2] and lo == [3]
    assert as_pfq(DISK_PARAMS) is None
    pref, up, lo = as_pfq(FWParams(upper=[], lower=[]))
    assert pref == 1.0 and up == [] and lo == []


def test_reduction_identity_against_scipy():
    # 1psi1 with unit weights is Gamma(a)/Gamma(b) * 1F1(a; b; z)
    params = FWParams(upper=[(1.7, 1)], lower=[(2.4, 1)])
    pref = math.gamma(1.7) / math.gamma(2.4)
    for x in (-3.0, -0.5, 0.7, 4.0):
        got = evaluate(params, x).value
        ref = pref * sp.hyp1f1(1.7, 2.4, x)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


def test_lower_pole_terms_drop_out():
    # lower pair (-0.5, 0.5) passes through Gamma(0) at k=1; that term
    # contributes exactly 0, everything else follows 1/Gamma as usual
    params = FWParams(upper=[(1, 1)], lower=[(-0.5, 0.5)])
    for z in (0.7, 1.1 + 0.6j):
        got = evaluate(params, z).value
        # upper Gamma(1+k) cancels 1/k!, so the reference is sum rgamma * z^k
        ref = sum(sp.rgamma(-0.5 + 0.5 * k) * z**k for k in range(120))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_upper_pole_raises():
    # a + kA = -1.5 + 0.5k is a valid k=0 parameter but hits 0 at k=3
    with pytest.raises(PoleError):
        evaluate(FWParams(upper=[(-1.5, 0.5)], lower=[]), 0.5)


def test_domain_violation_outside_radius():
    with pytest.raises(DomainViolation):
        evaluate(DISK_PARAMS, 0.3)
    with pytest.raises(DomainViolation):
        evaluate(FWParams(upper=[(1, 2)], lower=[]), 1e-3)  # radius 0


def test_boundary_refused_by_default():
    assert abs(radius(BOUNDARY_PARAMS) - 0.25) < 1e-16
    assert abs(boundary_exponent(BOUNDARY_PARAMS).real - 1.2) < 1e-14
    with pytest.raises(DomainViolation):
        evaluate(BOUNDARY_PARAMS, 0.25)


def test_boundary_allowed_when_exponent_large():
    res = evaluate(BOUNDARY_PARAMS, 0.25, allow_boundary=True)
    err = abs(res.value - BOUNDARY_VALUE)
    # polynomial k^-1.7 tail, summed by Levin transforms: the bound covers
    # the error, and both are far below the 10,000-term majorant's 1.7e-3
    assert err <= res.tail_bound <= 1e-6 * abs(res.value)


def test_boundary_rejected_when_exponent_small():
    params = FWParams(upper=[(2.0, 2.0)], lower=[(2.2, 1.0)])  # lambda = 0.2
    with pytest.raises(DomainViolation):
        evaluate(params, radius(params), allow_boundary=True)


def test_tail_bound_covers_observed_difference():
    rng = np.random.default_rng(4201)
    n = 0
    while n < 100:
        p = int(rng.integers(0, 3))
        q = int(rng.integers(p, 3))
        upper = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(p)]
        lower = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(q)]
        params = FWParams(upper=upper, lower=lower)
        if margin(params) <= 0.5:
            continue
        n += 1
        z = rng.uniform(0.2, 3.0) * cmath.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        loose = evaluate(params, z, tol=1e-6)
        tight = evaluate(params, z, tol=1e-15)
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-13 * abs(tight.value)


def test_param_validation():
    with pytest.raises(ValidationError):
        FWParams(upper=[(1.0, 0.0)], lower=[])  # weight must be positive
    with pytest.raises(ValidationError):
        FWParams(upper=[(1.0, -1.0)], lower=[])
    with pytest.raises(ValidationError):
        FWParams(upper=[(0.0, 1.0)], lower=[])  # k=0 pole in an upper pair
    with pytest.raises(ValidationError):
        evaluate(FWParams(upper=[], lower=[]), 1.0, tol=0.0)


@pytest.mark.parametrize(
    "z, text",
    [
        # NaN ran 10,000 terms and raised MaxTermsExceeded, inf overflowed
        (math.nan, "z must be finite, got (nan+0j)"),
        (complex(0.5, math.nan), "z must be finite, got (0.5+nanj)"),
        (math.inf, "z must be finite, got (inf+0j)"),
        (complex(-math.inf, 1.0), "z must be finite, got (-inf+1j)"),
        # complex() raised a raw ValueError or TypeError
        ("x", "z must be a complex number, got 'x'"),
        (None, "z must be a complex number, got None"),
    ],
)
@pytest.mark.parametrize("params", [FWParams(upper=[], lower=[]), DISK_PARAMS, BOUNDARY_PARAMS])
def test_non_finite_and_malformed_points_are_refused(params, z, text, monkeypatch):
    for loop in ("_block_sums", "_lone_sum"):
        monkeypatch.setattr(foxwright, loop, lambda *a: pytest.fail("the series ran"))
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        evaluate(params, z, allow_boundary=True)


# -- the Levin route on the convergence circle -------------------------------


def _assert_levin_covers(params, z, ref, max_terms=10000):
    """The Levin route: the error is within tail_bound, itself within 1e-6 |value|."""
    with series_length(max_terms):
        assert takes_levin_route(params, z)
        res = evaluate(params, z, allow_boundary=True)
    assert abs(res.value - ref) <= res.tail_bound <= 1e-6 * abs(res.value)
    assert res.terms_used < 100
    return res


GAUSS_A = FWParams(upper=[(0.5, 1.0), (0.7, 1.0)], lower=[(2.0, 1.0)])

# the boundary points FIXED_CASES held before the Levin route took them
LEVIN_CASES = [
    (BOUNDARY_PARAMS, 0.25, {}),
    (BOUNDARY_PARAMS, 0.25j, {"max_terms": 700}),
    (BOUNDARY_PARAMS, -0.25j, {}),
    (GAUSS_A, -1.0, {}),
    (GAUSS_A, cmath.exp(0.3j), {"max_terms": 1000}),
]


@pytest.mark.parametrize("case", range(len(LEVIN_CASES)))
def test_levin_route_matches_mpmath(case):
    params, z, kwargs = LEVIN_CASES[case]
    _assert_levin_covers(params, z, gauss_psi(params, z), **kwargs)
    assert gauss_psi(BOUNDARY_PARAMS, 0.25) == pytest.approx(BOUNDARY_VALUE, rel=1e-15)


@pytest.mark.parametrize("lam", [0.6, 0.7, 0.8, 1.5])
def test_levin_route_at_v_matches_gauss_closed_form(lam):
    # 2F1(1, 1; b; 1) / Gamma(b) = Gamma(b - 2) / Gamma(b - 1)^2 with
    # b = lambda + 3/2; at lambda = 0.7 the 10,000-term majorant
    # 0.79243708714653 lay below the capped sum's error 0.79243708715044
    b = lam + 1.5
    params = FWParams(upper=[(1.0, 1.0), (1.0, 1.0)], lower=[(b, 1.0)])
    assert abs(boundary_exponent(params) - lam) < 1e-15
    with mpmath.workdps(30):
        bm = mpmath.mpf(b)
        ref = float(mpmath.gamma(bm - 2) / mpmath.gamma(bm - 1) ** 2)
    _assert_levin_covers(params, 1.0, ref)


# 2F1 models a1 = 0.6, a2 = 0.45 + 0.2j, b = a1 + a2 + lambda - 1/2
_LAMBDAS = st.sampled_from([0.55, 0.6, 0.7, 0.8, 1.0, 1.5, 2.5, 1.2 - 0.7j])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    lam=_LAMBDAS,
    phase=st.floats(-math.pi, math.pi),
    model=st.sampled_from(["2F1", "duplication"]),
)
@example(lam=0.7, phase=0.0, model="duplication")  # z = V: the frozen 19 digits
def test_boundary_tail_bound_covers_mpmath(lam, phase, model):
    if model == "duplication":
        params = BOUNDARY_PARAMS
    else:
        a1, a2 = 0.6, 0.45 + 0.2j
        params = FWParams(upper=[(a1, 1.0), (a2, 1.0)], lower=[(a1 + a2 + lam - 0.5, 1.0)])
    z = radius(params) * cmath.exp(1j * phase)
    res = evaluate(params, z, allow_boundary=True)
    ref = BOUNDARY_VALUE if params == BOUNDARY_PARAMS and phase == 0.0 else gauss_psi(params, z)
    assert abs(res.value - ref) <= res.tail_bound


# -- the block kernel against the per-term loop it replaced ---------------


def _outcome(fn, *args, **kwargs):
    """repr of the result (bits and types of every field) or the exception type."""
    try:
        return repr(fn(*args, **kwargs))
    except (FWError, OverflowError) as exc:
        return type(exc)


def _assert_same_as_reference(params, z, max_terms=10000, **kwargs):
    """Bit identity with the frozen per-term loop at one series length,
    except on the Levin route."""
    with series_length(max_terms):
        if kwargs.get("allow_boundary") and takes_levin_route(params, z):
            return repr(assert_levin_within_capped(evaluate_per_term, params, z, **kwargs))
        got = _outcome(evaluate, params, z, **kwargs)
    assert got == _outcome(evaluate_per_term, params, z, max_terms=max_terms, **kwargs)
    return got


FIXED_CASES = [
    # right half-plane
    (GENERIC_PARAMS, GENERIC_Z, {}),
    (FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]), 7.5 + 2.0j, {}),
    (DISK_PARAMS, 0.2 + 0.1j, {}),
    # left half-plane, including the cancelling exp sums
    (FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]), -20.0, {}),
    (FWParams(upper=[(1.3, 0.8)], lower=[(2.1, 1.1)]), -6.0 + 3.0j, {}),
    (FWParams(upper=[], lower=[(1.5, 1.0)]), -2.25, {}),
    # on the convergence circle where the capped sum still runs to
    # max_terms with the majorant tail: max_terms below K + 1, a phase
    # below _LEVIN_MIN_PHASE, max_terms short of the second window
    (BOUNDARY_PARAMS, 0.25, {"allow_boundary": True, "max_terms": 30}),
    (BOUNDARY_PARAMS, 0.25 * cmath.exp(0.01j), {"allow_boundary": True, "max_terms": 700}),
    (
        FWParams(upper=[(0.5, 1.0), (0.7, 1.0)], lower=[(2.0, 1.0)]),
        -1.0,
        {"allow_boundary": True, "max_terms": 44},
    ),
    # a lower pole nulls term k = 1; an upper pole at k = 3 raises
    (FWParams(upper=[(1.0, 1.0)], lower=[(-1.5, 1.0)]), 0.7 + 0.6j, {}),
    (FWParams(upper=[(1.0, 1.0)], lower=[(-0.5, 0.5)]), 1.1 + 0.6j, {}),
    (FWParams(upper=[(-1.5, 0.5)], lower=[]), 0.5, {}),
    (FWParams(upper=[(0.5, 1.0), (-1.5, 0.5)], lower=[(2.0, 1.0)]), 0.5, {}),
    # too few terms, overflow, refused points
    (GENERIC_PARAMS, GENERIC_Z, {"max_terms": 5}),
    (FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]), 800.0, {}),
    (DISK_PARAMS, 0.3, {}),
    (BOUNDARY_PARAMS, 0.25, {}),
    # circle points whose Levin route refuses and the capped sum runs:
    # a bound no better than the majorant, and an upper pole at k = 2
    (GAUSS_A, cmath.exp(0.02j), {"allow_boundary": True}),
    (
        FWParams(upper=[(1.0, 1.0), (-7.5, 0.25)], lower=[(2.0, 0.25)]),
        cmath.exp(1.0j),
        {"allow_boundary": True},
    ),
]


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15])
@pytest.mark.parametrize("case", range(len(FIXED_CASES)))
def test_block_kernel_matches_per_term_loop(case, tol):
    params, z, kwargs = FIXED_CASES[case]
    _assert_same_as_reference(params, z, tol=tol, **kwargs)


@pytest.mark.parametrize("z, terms", [(10.4, 33), (10.95, 34)])
def test_stop_streak_carries_across_blocks(z, terms):
    # the three small terms that end the sum start in the first block
    params = FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
    res = _assert_same_as_reference(params, z, tol=1e-6)
    assert f"terms_used={terms}," in res


@settings(deadline=None, derandomize=True)
@given(ok=st.lists(st.booleans(), max_size=40), streak=st.integers(0, 2))
def test_streak_end_matches_per_term_counter(ok, streak):
    count, expect = streak, None
    for i, flag in enumerate(ok):
        count = count + 1 if flag else 0
        if count >= 3:
            expect = (i, 3)
            break
    assert _streak_end(np.array(ok, dtype=bool), streak) == (expect or (-1, count))


def test_magnitudes_match_scalar_abs():
    rng = np.random.default_rng(77)
    scale = 10.0 ** rng.uniform(-300, 300, 20000)
    x = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * scale
    x[::5] = x[::5].real
    assert _abs(x).tolist() == [abs(t) for t in x]


def test_fixed_boundary_cases_keep_the_capped_sum():
    boundary = [(p, z, kw) for p, z, kw in FIXED_CASES if kw.get("allow_boundary")]
    assert len(boundary) == 5
    for params, z, kwargs in boundary:
        with series_length(kwargs.get("max_terms", 10000)):
            assert not takes_levin_route(params, z)


def test_fixed_cases_cover_every_outcome():
    outcomes = set()
    for params, z, kwargs in FIXED_CASES:
        kwargs = dict(kwargs)
        with series_length(kwargs.pop("max_terms", 10000)):
            outcomes.add(_outcome(evaluate, params, z, **kwargs))
    for exc in (PoleError, MaxTermsExceeded, OverflowError, DomainViolation):
        assert exc in outcomes
    assert sum(isinstance(o, str) for o in outcomes) >= 10


def test_sum_past_the_float_range_with_every_term_inside_it():
    """At z = 710 every term of the exp series lies below e^709, so the
    block loop's term screen passes them, but their sum passes DBL_MAX:
    the row's finish refuses it."""
    with pytest.raises(OverflowError, match="^series term exceeds the floating-point range; value not representable$"):
        evaluate(FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]), 710.0)


_VALUES = st.one_of(
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),
    # a + k A lands on a gamma pole at some k > 0
    st.sampled_from([-0.5, -1.5, -2.25, -3.5 + 0j]),
)
_WEIGHTS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.3, 2.0])
_PAIRS = st.lists(st.tuples(_VALUES, _WEIGHTS), max_size=2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    upper=_PAIRS,
    lower=_PAIRS,
    scale=st.floats(0.0, 1.0),
    angle=st.floats(-math.pi, math.pi),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-14, 1e-15]),
    max_terms=st.sampled_from([2, 40, 10000]),
    allow_boundary=st.booleans(),
)
def test_block_kernel_matches_per_term_loop_random(
    upper, lower, scale, angle, tol, max_terms, allow_boundary
):
    try:
        params = FWParams(upper=upper, lower=lower)
    except ValidationError:
        assume(False)
    r = radius(params)
    # finite radius: inside, and exactly on the circle; else |z| up to 40
    if 0.0 < r < math.inf:
        modulus = r if scale > 0.8 else r * scale
    else:
        modulus = 40.0 * scale
    z = modulus * cmath.exp(1j * angle)
    _assert_same_as_reference(
        params, z, tol=tol, max_terms=max_terms, allow_boundary=allow_boundary
    )


# -- _psi: a coherent model's series at several points in one pass --------

# a coherent model's parameters: real a_l, b_r > 0 and Delta > 0
_ROW_PAIRS = st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.3, 1.5)), max_size=2)
# nonzero points within 30, and terms past the float range at 800
_ROW_POINTS = st.builds(
    cmath.rect, st.floats(0.0, 30.0, exclude_min=True) | st.just(800.0), st.floats(-math.pi, math.pi)
)


@st.composite
def _row_models(draw):
    params = FWParams(draw(_ROW_PAIRS), draw(_ROW_PAIRS))
    assume(foxwright.margin_sign(params) > 0)
    return params


def _value_outcome(fn, *args):
    """repr of fn's value, or its error's type and text."""
    try:
        return repr(fn(*args))
    except (FWError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=_row_models(), zs=st.lists(_ROW_POINTS, min_size=2, max_size=3))
def test_a_row_of_two_gets_the_bits_of_its_lone_sum(params, zs):
    # evaluate sums a lone series in _lone_sum, _psi's two or three in one
    # _block_sums pass: each row gets evaluate's value bits, or its error's
    # type and text, and _psi raises the first error in the order of zs
    want = [_value_outcome(lambda z=z: evaluate(params, z).value) for z in zs]
    rows = foxwright._block_sums(_column_cache(params), [cmath.log(z) for z in zs])
    assert [_value_outcome(row.finish, z) for row, z in zip(rows, zs)] == want
    errors = [out for out in want if type(out) is tuple]
    if errors:
        assert _value_outcome(foxwright._psi, params, zs) == errors[0]
    else:
        assert [repr(value) for value in foxwright._psi(params, zs)] == want


# -- the per-parameter column cache ---------------------------------------


def test_column_cache_stays_bounded():
    bound = _column_cache.cache_info().maxsize
    for i in range(bound + 8):
        evaluate(FWParams(upper=[(0.5 + i / 64.0, 1.0)], lower=[(1.7, 0.8)]), 1.5)
    assert _column_cache.cache_info().currsize == bound


def test_equal_bicomplex_params_share_one_entry():
    def make():
        return BCFWParams(
            upper=[(compose_idempotent(1.2, 0.8 + 0.1j), Hyperbolic(1.0, 0.9))],
            lower=[(compose_idempotent(2.0, 2.5), Hyperbolic(1.1, 1.3))],
        )

    first, second = make(), make()
    assert first is not second
    for p in (1, 2):
        assert _column_cache(first.component_params(p)) is _column_cache(
            second.component_params(p)
        )
    evaluate_bc(first, compose_idempotent(0.5, 0.25))
    hits = _column_cache.cache_info().hits
    evaluate_bc(second, compose_idempotent(0.5, 0.25))
    assert _column_cache.cache_info().hits >= hits + 2


def test_columns_stop_at_max_terms():
    params = FWParams(upper=[(0.9, 1.0), (0.6, 1.0)], lower=[(1.8, 1.0)])  # radius 1
    cache = _column_cache(params)
    assert cache.cols is None  # no record before the first growth
    evaluate(params, 0.3)
    assert cache.cols.n == 32  # the first block's end
    with series_length(10):
        cache = _column_cache(params)
        with pytest.raises(MaxTermsExceeded):
            evaluate(params, 0.3)
        assert cache.cols.n == 10
    with series_length(100):
        cache = _column_cache(params)
        with pytest.raises(MaxTermsExceeded):
            evaluate(params, 0.999)
        assert cache.cols.n == 100
    # a phase below _LEVIN_MIN_PHASE keeps the capped sum, to MAX_TERMS
    with series_length(1000):
        cache = _column_cache(params)
        res = evaluate(params, cmath.exp(0.01j), allow_boundary=True)
        assert res.terms_used == 1000 and cache.cols.n == 1000
    cols = cache.cols
    for col in (cols.log_fact, *cols.upper, *cols.lower, *cols.lower_poles):
        assert col.shape == (1000,)


def test_levin_route_grows_the_table_only_to_its_windows():
    # windows from n0 = 3 and n1 = 14, so the route reads 45 terms
    params = FWParams(upper=[(0.9, 1.0), (0.65, 1.0)], lower=[(1.85, 1.0)])
    with series_length(44):
        cache = _column_cache(params)
        res = evaluate(params, -1.0, allow_boundary=True)
        assert res.terms_used == 44 and cache.cols.n == 44  # the capped sum
    with series_length(45):
        cache = _column_cache(params)
        assert takes_levin_route(params, -1.0) and cache.cols.n == 45
    cache = _column_cache(params)
    res = evaluate(params, -1.0, allow_boundary=True)
    assert res.terms_used < 45 and cache.cols.n == 45


def test_one_entry_holds_the_radius_the_columns_and_the_plan():
    # frozen reprs of a Levin point, a capped point and the radius, from a
    # cold table; the one entry then holds all that they used
    _column_cache.cache_clear()
    levin = evaluate(GAUSS_A, cmath.exp(0.3j), allow_boundary=True)
    assert repr(levin) == (
        "EvalResult(value=np.complex128(2.8333737542660224+0.43601816139424376j), "
        "terms_used=26, tail_bound=np.float64(4.3046857962821913e-08))"
    )
    capped = evaluate(GAUSS_A, cmath.exp(0.01j), allow_boundary=True)
    assert repr(capped) == (
        "EvalResult(value=np.complex128(3.3238231478886826+0.07845180748885908j), "
        "terms_used=10000, tail_bound=np.float64(0.0007887416389881244))"
    )
    assert repr(radius(GAUSS_A)) == "1.0"
    cache = _column_cache(GAUSS_A)
    assert _column_cache.cache_info().currsize == 1
    assert cache.radius == 1.0 and type(cache.plan) is foxwright._BoundaryPlan
    assert cache.cols.n == 10000


@pytest.mark.parametrize("fn, params, z", [
    (evaluate, GAUSS_A, 0.5),
    (evaluate_bc, BCFWParams.from_components(GAUSS_A, GAUSS_A), compose_idempotent(0.5, 0.5)),
])
def test_max_terms_is_no_argument(fn, params, z):
    with pytest.raises(TypeError, match="max_terms"):
        fn(params, z, max_terms=10000)


def test_concurrent_evaluation_matches_serial():
    # fresh parameter sets, so the threads grow the same entries at once
    models = [
        FWParams(
            upper=[(0.3 + 0.01 * i, 1.0), (0.45, 1.0)], lower=[(1.9 + 0.01 * i, 1.0)]
        )
        for i in range(6)
    ]
    jobs = [(params, z) for params in models for z in (0.4, -0.7 + 0.2j, 1.0j)]
    # the frozen copy, or on the Levin route (every job at 1.0j) the
    # serial result, checked against that copy's capped sum
    expect = [
        repr(assert_levin_within_capped(evaluate_per_term, p, z, allow_boundary=True))
        if takes_levin_route(p, z)
        else _outcome(evaluate_per_term, p, z, allow_boundary=True)
        for p, z in jobs
    ]
    assert sum(takes_levin_route(p, z) for p, z in jobs) == 6
    _column_cache.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(_outcome, evaluate, p, z, allow_boundary=True) for p, z in jobs
            ]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == expect


# -- long sums: poles past the stop, the block schedule, chunked column growth


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    pole_k=st.integers(993, 8191),
    scale=st.sampled_from([0.97, 0.98, 0.99, 0.995, 1.0]),
    angle=st.floats(-math.pi, math.pi),
    tol=st.sampled_from([1e-14, 1e-10, 1e-6]),
)
def test_long_sums_with_an_upper_pole_match_reference(pole_k, scale, angle, tol):
    # Delta = 0 and radius 1; -pole_k/8192 + k/8192 first meets a pole at
    # k = pole_k, which a block may hold past the point the sum stops
    w = 2.0**-13
    params = FWParams(upper=[(1.0, 1.0), (-pole_k * w, w)], lower=[(2.0, w)])
    z = scale * cmath.exp(1j * angle)
    _column_cache.cache_clear()
    _assert_same_as_reference(params, z, tol=tol, allow_boundary=True)


def test_long_boundary_sum_blocks_stop_doubling_at_512(monkeypatch):
    # 10,000 terms in blocks of 32 .. 512, then 17 more of 512 and one of
    # 304, each with the two magnitude passes of the stop test; the phase
    # lies below _LEVIN_MIN_PHASE, so the capped sum runs
    calls = []

    def counted(x):
        calls.append(x.size)
        return _abs(x)

    params = FWParams(upper=[(0.5, 1.0), (0.7, 1.0)], lower=[(2.0, 1.0)])
    z = cmath.exp(0.01j)
    assert not takes_levin_route(params, z)
    want = repr(evaluate(params, z, allow_boundary=True))
    monkeypatch.setattr(foxwright, "_abs", counted)
    assert repr(evaluate(params, z, allow_boundary=True)) == want
    assert calls == [32, 32, 64, 64, 128, 128, 256, 256, 512, 512] + [512, 512] * 17 + [304, 304]


def _column_bytes(cols):
    arrays = (cols.k, cols.log_fact, *cols.upper, *cols.lower, *cols.lower_poles)
    return (
        cols.n,
        [col.tobytes() for col in arrays],
        repr(cols.upper_poles),
        cols.lower_first_pole,
    )


@pytest.mark.parametrize(
    "params",
    [
        FWParams(upper=[(0.5, 1.0), (0.7, 1.0)], lower=[(2.0, 1.0)]),
        FWParams(upper=[(0.7 + 0.4j, 0.9), (1.1, 0.6)], lower=[(1.9 - 0.2j, 0.9)]),
        # upper poles at k = 1792 and 3072; lower poles at k = 480 and at
        # 1504, where a chunk of the growth 992 -> 2016 starts
        FWParams(upper=[(-0.875, 2.0**-11), (-0.75, 2.0**-12)], lower=[]),
        FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0), (-1.46875, 2.0**-10)]),
        FWParams(upper=[], lower=[(-0.5, 2.0**-10)]),
    ],
)
def test_chunked_growth_matches_one_shot(params, monkeypatch):
    steps = [(32, 96, 224, 480, 992, 2016, 4064, 8160, 10000), (1, 511, 512, 513, 5000), (3000,)]
    grown = []
    for ends in steps:
        cache = _ColumnCache(params)
        for end in ends:
            cache.upto(end)
        grown.append(_column_bytes(cache.cols))
    monkeypatch.setattr(foxwright, "_GROW_CHUNK", 1 << 30)
    for ends, got in zip(steps, grown):
        ref = _ColumnCache(params)
        ref.upto(ends[-1])
        assert got == _column_bytes(ref.cols)
