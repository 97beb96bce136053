"""Nine-case classification and bicomplex series evaluation."""

import cmath
import math

import numpy as np
import pytest
from _frozen import gauss_psi, reference_evaluate_bc, takes_levin_route
from hypothesis import given, settings
from hypothesis import strategies as st

from fwstates.bicomplex import Bicomplex, Hyperbolic, compose_idempotent
from fwstates.errors import DomainViolation, FWError, ValidationError
from fwstates.foxwright import FWParams
from fwstates.foxwright import evaluate as evaluate_c
from fwstates.foxwright import oracle_pfq
from fwstates.foxwright import radius as radius_c
from fwstates.foxwright_bc import (
    BCFWParams,
    Domain,
    GridSpec,
    classify,
    contains_abs,
    evaluate,
    region_sample,
)
from fwstates.gammafn import gamma_bicomplex, log_gamma


def _bc(upper, lower):
    return BCFWParams(upper=upper, lower=lower)


H = Hyperbolic
ENTIRE = _bc([(1.5, H(1, 1))], [(1.0, H(1, 1))])
DISK1_PLANE2 = _bc([(1.5, H(2, 1))], [(1.0, H(1, 1))])
BALL = _bc([(1.5, H(2, 2))], [(1.0, H(1, 1))])
DIVERGENT = _bc([(1.5, H(3, 3))], [])


def test_classify_entire():
    rep = classify(ENTIRE)
    assert rep.domain is Domain.ENTIRE_BC
    assert rep.upsilon == H(0, 0)
    assert math.isinf(rep.v_radius[0]) and math.isinf(rep.v_radius[1])


def test_classify_disk_plane():
    rep = classify(DISK1_PLANE2)
    assert rep.domain is Domain.DISK1_PLANE2
    assert rep.upsilon == H(-1, 0)
    assert abs(rep.v_radius[0] - 0.25) < 1e-15
    assert math.isinf(rep.v_radius[1])


def test_classify_ball():
    rep = classify(BALL)
    assert rep.domain is Domain.HYPERBOLIC_BALL
    assert rep.upsilon == H(-1, -1)
    assert abs(rep.v_radius[0] - 0.25) < 1e-15
    assert abs(rep.v_radius[1] - 0.25) < 1e-15


def test_classify_divergent():
    rep = classify(DIVERGENT)
    assert rep.domain is Domain.DIVERGENT
    assert rep.upsilon == H(-3, -3)
    assert rep.v_radius == (0.0, 0.0)


def test_classify_remaining_cases():
    assert classify(_bc([(1.5, H(1, 2))], [(1.0, H(1, 1))])).domain is Domain.PLANE1_DISK2
    assert classify(_bc([(1.5, H(2, 3))], [(1.0, H(1, 1))])).domain is Domain.DISK1_ZERO2
    assert classify(_bc([(1.5, H(3, 2))], [(1.0, H(1, 1))])).domain is Domain.ZERO1_DISK2
    assert classify(_bc([(1.5, H(1, 3))], [(1.0, H(1, 1))])).domain is Domain.PLANE1_ZERO2
    assert classify(_bc([(1.5, H(3, 1))], [(1.0, H(1, 1))])).domain is Domain.ZERO1_PLANE2


def test_lambda_cartesian_consistency():
    rep = classify(_bc([(Bicomplex(1.1 + 0.3j, 0.7), H(1, 1))], [(2.0, H(1, 1))]))
    l1, l2 = rep.lambda_idem
    L1, L2 = rep.lambda_cart
    assert abs(L1 - (l1 + l2) / 2) < 1e-15
    assert abs(L2 - 0.5j * (l1 - l2)) < 1e-15


def test_eval_at_zero_is_gamma_ratio():
    got = evaluate(ENTIRE, Bicomplex(0, 0))
    ref = gamma_bicomplex(Bicomplex.from_scalar(1.5))
    assert abs(got.z1 - ref.z1) < 1e-14 and abs(got.z2 - ref.z2) < 1e-14


def test_eval_mittag_leffler_components():
    # lower value compose(2,3): components are E_{1,2} and E_{1,3} at 1
    params = _bc([(1.0, H(1, 1))], [(compose_idempotent(2, 3), H(1, 1))])
    got = evaluate(params, compose_idempotent(1, 1))
    assert abs(got.z1 - (math.e - 1.0)) < 1e-13
    assert abs(got.z2 - (math.e - 2.0)) < 1e-13


def test_eval_reduces_to_bicomplex_pfq():
    # all unit weights: (prod Gamma_b(mu)/prod Gamma_b(nu)) * pFq per component
    mu = Bicomplex(1.3 + 0.2j, 0.9)
    nu = Bicomplex(2.1, 1.7 - 0.4j)
    params = _bc([(mu, H(1, 1))], [(nu, H(1, 1))])
    Z = Bicomplex(0.8 - 0.3j, 1.4 + 0.5j)
    got = evaluate(params, Z)
    for p in (0, 1):
        m, n, zp = mu.decompose()[p], nu.decompose()[p], Z.decompose()[p]
        pref = cmath.exp(log_gamma(m) - log_gamma(n))
        ref = pref * oracle_pfq([m], [n], zp)
        assert abs(got.decompose()[p] - ref) <= 1e-12 * max(1.0, abs(ref))


def _direct_bicomplex_sum(params, Z, n_terms=70):
    """Partial sums in the bicomplex ring itself, no idempotent shortcut."""
    total = Bicomplex(0, 0)
    power = Bicomplex(1, 1)
    for k in range(n_terms):
        term = power * (1.0 / math.factorial(k))
        for mu, M in params.upper:
            arg = Bicomplex(mu.z1 + k * M.c1, mu.z2 + k * M.c2)
            term = term * gamma_bicomplex(arg)
        for nu, N in params.lower:
            arg = Bicomplex(nu.z1 + k * N.c1, nu.z2 + k * N.c2)
            term = term * gamma_bicomplex(arg).inverse()
        total = total + term
        power = power * Z
    return total


def test_direct_ring_summation_matches_componentwise_eval():
    params = _bc(
        [(Bicomplex(1.2 + 0.1j, 0.8), H(1.0, 0.7))],
        [(Bicomplex(2.0, 2.5 - 0.2j), H(1.3, 1.2))],
    )
    for Z in (Bicomplex(0.9, -0.4 + 0.6j), Bicomplex(1.5 + 0.2j, 0.3)):
        direct = _direct_bicomplex_sum(params, Z)
        fast = evaluate(params, Z)
        for p in (0, 1):
            d, f = direct.decompose()[p], fast.decompose()[p]
            assert abs(d - f) <= 1e-12 * max(1.0, abs(f))


def test_idempotent_equivalence_random():
    rng = np.random.default_rng(901)
    for _ in range(200):
        m = int(rng.integers(0, 2))
        n = int(rng.integers(m, 2))
        upper = [
            (
                Bicomplex(
                    complex(rng.uniform(0.5, 2.5), rng.uniform(-0.3, 0.3)),
                    complex(rng.uniform(0.5, 2.5), rng.uniform(-0.3, 0.3)),
                ),
                H(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)),
            )
            for _ in range(m)
        ]
        lower = [
            (
                Bicomplex(
                    complex(rng.uniform(0.5, 2.5), rng.uniform(-0.3, 0.3)),
                    complex(rng.uniform(0.5, 2.5), rng.uniform(-0.3, 0.3)),
                ),
                H(rng.uniform(1.0, 1.5), rng.uniform(1.0, 1.5)),
            )
            for _ in range(n)
        ]
        params = _bc(upper, lower)
        rep = classify(params)
        if rep.domain is not Domain.ENTIRE_BC:
            continue
        Z = Bicomplex(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        )
        got = evaluate(params, Z)
        for p in (1, 2):
            ref = evaluate_c(params.component_params(p), Z.decompose()[p - 1]).value
            diff = abs(got.decompose()[p - 1] - ref)
            assert diff <= 1e-12 * max(1.0, abs(ref))


def test_entireness_far_out():
    # margin 2 per component; |z_p| = 1000 must still sum to a finite value
    params = _bc([], [(1.0, H(1, 1))])
    for theta in (0.0, 2.0):
        Z = Bicomplex(1000.0, 1000.0 * cmath.exp(1j * theta))
        got = evaluate(params, Z)
        assert np.isfinite(got.z1.real) and np.isfinite(got.z2.real)
        assert abs(got.z1) > 0


def test_boundary_predicate_equivalence_random():
    rng = np.random.default_rng(907)
    for _ in range(300):
        m = int(rng.integers(0, 3))
        n = int(rng.integers(0, 3))
        upper = [
            (
                Bicomplex(
                    complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
                    complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
                ),
                H(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)),
            )
            for _ in range(m)
        ]
        lower = [
            (
                Bicomplex(
                    complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
                    complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
                ),
                H(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)),
            )
            for _ in range(n)
        ]
        rep = classify(_bc(upper, lower))
        L1, L2 = rep.lambda_cart
        cartesian_form = (L1.real - 0.5) > abs(L2.imag)
        l1, l2 = rep.lambda_idem
        if min(abs(l1.real - 0.5), abs(l2.real - 0.5)) < 1e-9:
            continue  # razor-edge ties are not the predicate's business
        assert rep.boundary_abs_convergent == (l1.real > 0.5 and l2.real > 0.5)
        assert rep.boundary_abs_convergent == cartesian_form


def test_ball_boundary_evaluation_when_predicate_holds():
    # per-component lambda = 1.2 > 1/2, V = (0.25, 0.25)
    params = _bc([(0.8, H(2, 2))], [(2.0, H(1, 1))])
    rep = classify(params)
    assert rep.domain is Domain.HYPERBOLIC_BALL
    assert rep.boundary_abs_convergent
    Z = Bicomplex(0.25, 0.25 * cmath.exp(0.7j))
    got = evaluate(params, Z, allow_boundary=True)
    for p in (1, 2):
        comp, zp = params.component_params(p), Z.decompose()[p - 1]
        res = evaluate_c(comp, zp, allow_boundary=True)
        assert got.decompose()[p - 1] == res.value
        # each component takes the Levin route, checked against mpmath
        assert takes_levin_route(comp, zp)
        assert abs(res.value - gauss_psi(comp, zp)) <= res.tail_bound <= 1e-6 * abs(res.value)


def test_ball_boundary_cases_rejected():
    params = _bc([(0.8, H(2, 2))], [(2.0, H(1, 1))])
    Z_full = Bicomplex(0.25, 0.25)
    with pytest.raises(DomainViolation):
        evaluate(params, Z_full)  # no allow_boundary
    for Z in (Bicomplex(0.25, 0.1), Bicomplex(0.1j, 0.25 * (1 + 5e-13))):
        with pytest.raises(DomainViolation, match="^mixed boundary"):
            evaluate(params, Z, allow_boundary=True)
        # without the flag the on-circle component's own test rejects it
        with pytest.raises(DomainViolation, match="^component [12]: .* convergence circle"):
            evaluate(params, Z)
    weak = _bc([(2.0, H(2, 2))], [(2.2, H(1, 1))])  # lambda = 0.2
    assert not classify(weak).boundary_abs_convergent
    with pytest.raises(DomainViolation):
        evaluate(weak, Bicomplex(0.25, 0.25), allow_boundary=True)


def test_ball_majorant_tail_is_cauchy():
    # |a_k| V^k ~ k^-(lambda+1/2) with lambda=1.2.  The closed-form tail
    # t_K*K/(lambda-1/2) must overbound the majorant's own remaining mass
    # and shrink like K^-0.7, so the partial sums form a Cauchy sequence.
    params = FWParams(upper=[(0.8, 2.0)], lower=[(2.0, 1.0)])
    ks = np.arange(1, 2_000_001, dtype=float)
    m = ks**-1.7
    for K in (1000, 10000, 100000):
        tail = m[K - 1] * K / 0.7
        assert m[K : 20 * K].sum() <= tail <= 2.0 * m[K:].sum()
    ratio = (m[199999] * 200000) / (m[99999] * 100000)
    assert abs(ratio - 2.0**-0.7) < 2e-5
    # and the actual boundary partial sums are consistent with it; a phase
    # below the Levin route's keeps the capped sums at z = 0.25 e^{0.01i}
    z = 0.25 * cmath.exp(0.01j)
    r1 = evaluate_c(params, z, allow_boundary=True, max_terms=5000)
    r2 = evaluate_c(params, z, allow_boundary=True, max_terms=10000)
    assert (r1.terms_used, r2.terms_used) == (5000, 10000)
    assert abs(r1.value - r2.value) <= r1.tail_bound


def test_domain_violation_names_component():
    with pytest.raises(DomainViolation, match="component 1"):
        evaluate(BALL, Bicomplex(0.3, 0.1))
    with pytest.raises(DomainViolation, match="component 2"):
        evaluate(_bc([(1.5, H(1, 2))], [(1.0, H(1, 1))]), Bicomplex(5.0, 0.3))
    with pytest.raises(DomainViolation, match="component 1"):
        evaluate(DISK1_PLANE2, Bicomplex(0.3, 5.0))


def test_region_membership():
    rep = classify(BALL)
    assert not contains_abs(rep, 0.2, 0.3)
    assert contains_abs(rep, 0.2, 0.2)
    assert not contains_abs(rep, 0.25, 0.2)  # on the circle: rejected
    # a zero radius holds its component's origin alone
    rep = classify(_bc([(1.5, H(2, 3))], [(1.0, H(1, 1))]))
    assert rep.domain is Domain.DISK1_ZERO2 and rep.v_radius == (0.25, 0.0)
    assert contains_abs(rep, 0.1, 0.0)
    assert not contains_abs(rep, 0.1, 0.1)
    assert not contains_abs(rep, 0.0, 5e-324)
    rows = region_sample(ENTIRE, GridSpec(2.0, 2.0, 3, 3))
    assert all(inside for _, _, inside in rows)
    rows = region_sample(BALL, GridSpec(0.5, 0.5, 5, 5))
    marks = {(round(r1, 3), round(r2, 3)): inside for r1, r2, inside in rows}
    assert marks[(0.125, 0.125)] is True
    assert marks[(0.375, 0.125)] is False
    assert marks[(0.25, 0.125)] is False  # boundary row false


def test_params_validation():
    with pytest.raises(ValidationError):
        _bc([(1.5, H(1, 0))], [])  # weight component must be > 0
    with pytest.raises(ValidationError):
        _bc([(1.5, H(-1, 1))], [])
    with pytest.raises(ValidationError):
        _bc([(Bicomplex(0.0, 1.0), H(1, 1))], [])  # component-1 pole at k=0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite nonnegative extents"):
            GridSpec(bad, 1.0)
        with pytest.raises(ValidationError, match="finite nonnegative extents"):
            GridSpec(1.0, bad)
        with pytest.raises(ValidationError, match="^magnitudes must be finite and nonnegative$"):
            contains_abs(classify(ENTIRE), 0.5, bad)
    p1, p2 = FWParams([(1.5, 1.0)], [(1.0, 1.0)]), FWParams([(2.5, 2.0)], [(3.0, 1.0)])
    assert BCFWParams.from_components(p1, p2).decompose() == (p1, p2)
    with pytest.raises(ValidationError, match="^component parameter lists must have equal lengths$"):
        BCFWParams.from_components(p1, FWParams([(2.5, 2.0)], []))


# -- evaluate is componentwise plus the mixed-ball rule --------------------


def _outcome(fn, *args, **kwargs):
    """repr of the value (every bit of both components) or the exception type."""
    try:
        return repr(fn(*args, **kwargs))
    except (FWError, OverflowError) as exc:
        return type(exc)


def _assert_parity(params, Z, **kwargs):
    got = _outcome(evaluate, params, Z, **kwargs)
    ref = _outcome(reference_evaluate_bc, params, Z, **kwargs)
    if got != ref:
        # the one departure: component 1 is in its domain but its own sum
        # fails, and component 2 is out of its domain.  The reference
        # rejects component 2 before summing; componentwise reports the
        # first component that fails.
        assert ref is DomainViolation
        comps = [
            _outcome(evaluate_c, params.component_params(p), Z.decompose()[p - 1], **kwargs)
            for p in (1, 2)
        ]
        assert comps[1] is DomainViolation and comps[0] is not DomainViolation
        assert got == comps[0]
    return got


# upper weights per component; lower weight (1, 1), as in the nine-case table
NINE_CASE_WEIGHTS = [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (1, 3), (3, 1), (2, 2), (3, 3)]
PARITY_MODELS = [_bc([(1.5, H(m1, m2))], [(1.0, H(1, 1))]) for m1, m2 in NINE_CASE_WEIGHTS] + [
    _bc([(0.8, H(2, 2))], [(2.0, H(1, 1))]),  # the ball, lambda = 1.2
    _bc([(2.0, H(2, 2))], [(2.2, H(1, 1))]),  # the ball, lambda = 0.2
]
# |z_p| / r_p: inside (the third just below the 1e-12 band), on the circle
# (three points in the band), outside (the first just above the band)
RELATIVE_MODULI = [0.0, 0.5, 1 - 5e-12, 1 - 5e-13, 1.0, 1 + 5e-13, 1 + 5e-12, 1.5]


def _moduli(r):
    if math.isinf(r):
        return [0.0, 0.5, 3.0]
    if r == 0.0:
        return [0.0, 0.3]
    return [r * x for x in RELATIVE_MODULI]


@pytest.mark.parametrize("allow_boundary", [False, True])
@pytest.mark.parametrize("model", range(len(PARITY_MODELS)))
def test_evaluate_matches_reference(model, allow_boundary):
    params = PARITY_MODELS[model]
    r1, r2 = (radius_c(P) for P in params.decompose())
    outcomes = set()
    for a1 in _moduli(r1):
        for a2 in _moduli(r2):
            Z = Bicomplex(a1 * cmath.exp(0.3j), a2 * cmath.exp(-2.1j))
            outcomes.add(_assert_parity(params, Z, allow_boundary=allow_boundary))
    assert any(isinstance(o, str) for o in outcomes)


def test_first_failing_component_is_reported():
    # component 1 overflows (exp at 800); component 2 lies outside its disk
    params = _bc([(1.0, H(1, 2))], [(1.0, H(1, 1))])
    Z = Bicomplex(800.0, 5.0)
    assert _outcome(reference_evaluate_bc, params, Z) is DomainViolation
    with pytest.raises(OverflowError, match="^component 1: "):
        evaluate(params, Z)
    _assert_parity(params, Z)


_BC_WEIGHTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
_BC_VALUES = st.floats(0.2, 3.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    upper=st.lists(
        st.tuples(_BC_VALUES, _BC_VALUES, _BC_WEIGHTS, _BC_WEIGHTS), min_size=1, max_size=2
    ),
    lower=st.lists(st.tuples(_BC_VALUES, _BC_VALUES, _BC_WEIGHTS, _BC_WEIGHTS), max_size=2),
    rel=st.tuples(st.sampled_from(RELATIVE_MODULI), st.sampled_from(RELATIVE_MODULI)),
    angle=st.floats(-math.pi, math.pi),
    tol=st.sampled_from([1e-8, 1e-14]),
    max_terms=st.sampled_from([40, 10000]),
    allow_boundary=st.booleans(),
)
def test_evaluate_matches_reference_random(
    upper, lower, rel, angle, tol, max_terms, allow_boundary
):
    params = _bc(
        [(Bicomplex(v1, v2), H(w1, w2)) for v1, v2, w1, w2 in upper],
        [(Bicomplex(v1, v2), H(w1, w2)) for v1, v2, w1, w2 in lower],
    )
    # finite radius: rel times it; infinite: 4 rel; zero: 0 or 0.3
    moduli = []
    for r, x in zip((radius_c(P) for P in params.decompose()), rel):
        moduli.append(4.0 * x if math.isinf(r) else r * x if r > 0 else 0.3 * (x > 0.7))
    Z = Bicomplex(moduli[0] * cmath.exp(1j * angle), moduli[1] * cmath.exp(-2j * angle))
    _assert_parity(params, Z, tol=tol, max_terms=max_terms, allow_boundary=allow_boundary)
