"""Series evaluation, margin/radius, reductions, and boundary handling."""

import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwstates.bicomplex import Hyperbolic, compose_idempotent
from fwstates.errors import (
    DomainViolation,
    FWError,
    MaxTermsExceeded,
    PoleError,
    ValidationError,
)
from fwstates.foxwright import (
    EvalResult,
    FWParams,
    _abs,
    _column_cache,
    _streak_end,
    as_pfq,
    boundary_exponent,
    evaluate,
    margin,
    oracle_bessel_j,
    oracle_mittag_leffler,
    oracle_pfq,
    radius,
)
from fwstates.foxwright_bc import BCFWParams
from fwstates.foxwright_bc import evaluate as evaluate_bc
from fwstates.gammafn import log_gamma_ratio, log_gamma_vec
from fwstates.gammafn import pole_mask as _pole_mask

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
        ref = oracle_mittag_leffler(2.0, 1.0, x)
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
    assert abs(oracle_mittag_leffler(1.0, 1.0, 1.3) - math.exp(1.3)) < 1e-13 * math.exp(1.3)
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
    # polynomial k^-1.7 tail: the majorant bound must cover the truncation
    assert err <= 3.0 * res.tail_bound
    assert res.tail_bound < 5e-3
    assert err < 2e-3


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


# -- the block kernel against the per-term loop it replaced ---------------


def _reference_log_terms(params, log_z, ks):
    kf = ks.astype(float)
    acc = kf * log_z - log_gamma_vec(kf + 1.0)
    for a, A in params.upper:
        args = a + kf * A
        bad = _pole_mask(args)
        if bad.any():
            raise PoleError(
                f"upper gamma pole at k={ks[bad][0]} (argument {args[bad][0]})"
            )
        acc = acc + log_gamma_vec(args)
    for b, B in params.lower:
        args = b + kf * B
        acc = acc - log_gamma_vec(args)
        bad = _pole_mask(args)
        if bad.any():
            acc[bad] = complex(-math.inf, 0.0)
    return acc


def _reference_evaluate(params, z, tol=1e-14, max_terms=10000, allow_boundary=False):
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
        logt = _reference_log_terms(params, log_z, ks)
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


def _outcome(fn, *args, **kwargs):
    """repr of the result (bits and types of every field) or the exception type."""
    try:
        return repr(fn(*args, **kwargs))
    except (FWError, OverflowError) as exc:
        return type(exc)


def _assert_same_as_reference(params, z, **kwargs):
    got = _outcome(evaluate, params, z, **kwargs)
    assert got == _outcome(_reference_evaluate, params, z, **kwargs)
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
    # on the convergence circle: runs to max_terms with the majorant tail
    (BOUNDARY_PARAMS, 0.25, {"allow_boundary": True}),
    (BOUNDARY_PARAMS, 0.25j, {"allow_boundary": True, "max_terms": 700}),
    (
        FWParams(upper=[(0.5, 1.0), (0.7, 1.0)], lower=[(2.0, 1.0)]),
        -1.0,
        {"allow_boundary": True},
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


def test_fixed_cases_cover_every_outcome():
    outcomes = {
        _outcome(evaluate, params, z, **kwargs) for params, z, kwargs in FIXED_CASES
    }
    for exc in (PoleError, MaxTermsExceeded, OverflowError, DomainViolation):
        assert exc in outcomes
    assert sum(isinstance(o, str) for o in outcomes) >= 10


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
    assert cache.cols.n == 0
    with pytest.raises(MaxTermsExceeded):
        evaluate(params, 0.3, max_terms=10)
    assert cache.cols.n == 10
    evaluate(params, 0.3)
    assert cache.cols.n == 32  # the first block's end
    with pytest.raises(MaxTermsExceeded):
        evaluate(params, 0.999, max_terms=100)
    assert cache.cols.n == 100
    res = evaluate(params, -1.0, allow_boundary=True, max_terms=1000)
    assert res.terms_used == 1000 and cache.cols.n == 1000
    cols = cache.cols
    for col in (cols.log_fact, *cols.upper, *cols.lower, *cols.lower_poles):
        assert col.shape == (1000,)


def test_concurrent_evaluation_matches_serial():
    # fresh parameter sets, so the threads grow the same entries at once
    models = [
        FWParams(
            upper=[(0.3 + 0.01 * i, 1.0), (0.45, 1.0)], lower=[(1.9 + 0.01 * i, 1.0)]
        )
        for i in range(6)
    ]
    jobs = [
        (params, z, max_terms)
        for params in models
        for z in (0.4, -0.7 + 0.2j, 1.0j)
        for max_terms in (10000, 300, 2000)
    ]
    expect = [
        _outcome(_reference_evaluate, p, z, max_terms=m, allow_boundary=True)
        for p, z, m in jobs
    ]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(_outcome, evaluate, p, z, max_terms=m, allow_boundary=True)
                for p, z, m in jobs
            ]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == expect
