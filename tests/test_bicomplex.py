"""Ring arithmetic, idempotent decomposition, and the hyperbolic order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwstates.bicomplex import (
    E1,
    E2,
    ONE,
    ZERO,
    Bicomplex,
    Hyperbolic,
    compose_idempotent,
    decompose,
    leq_h,
    lt_h,
    pow_real,
)
from fwstates.errors import DomainError, SingularElement, ValidationError


def test_unit_constants():
    assert E1 + E2 == ONE
    assert E1 * E2 == ZERO
    assert E1 * E1 == E1
    assert E2 * E2 == E2


def test_compose_decompose_round_trip():
    Z = compose_idempotent(1.5 - 0.25j, -2.0 + 3.0j)
    assert decompose(Z) == (1.5 - 0.25j, -2.0 + 3.0j)
    assert compose_idempotent(*decompose(Z)) == Z


def test_cartesian_view():
    # e1 = (1 + i j)/2, so compose(1, 0) has cartesian (1/2, i/2)
    a, b = compose_idempotent(1, 0).cartesian
    assert a == 0.5 and b == 0.5j
    a, b = compose_idempotent(1, 1).cartesian
    assert a == 1.0 and b == 0.0
    # z1 = a - i b, z2 = a + i b
    Z = Bicomplex.from_cartesian(2.5, -0.5j)
    assert Z.decompose() == (2.0, 3.0)


def test_ring_operations_are_componentwise():
    Z = compose_idempotent(2, 3)
    W = compose_idempotent(5, 7)
    assert Z * W == compose_idempotent(10, 21)
    assert Z + W == compose_idempotent(7, 10)
    assert Z - W == compose_idempotent(-3, -4)
    assert Z * ONE == Z
    assert -Z == ZERO - Z


def test_inverse():
    assert Bicomplex(2, 4).inverse() == Bicomplex(0.5, 0.25)
    got = Bicomplex(1 + 1j, 2).inverse()
    assert abs(got.z1 - (1 - 1j) / 2) < 1e-15
    assert got.z2 == 0.5
    with pytest.raises(SingularElement):
        E1.inverse()
    with pytest.raises(SingularElement):
        ZERO.inverse()


def test_zero_divisor_predicate_matches_inverse():
    cases = [E1, E2, Bicomplex(0, 3j), Bicomplex(1 + 2j, 0)]
    for Z in cases:
        assert Z.is_zero_divisor()
        with pytest.raises(SingularElement):
            Z.inverse()
    assert not ZERO.is_zero_divisor()
    assert not ONE.is_zero_divisor()


def test_hyper_norm():
    assert Bicomplex(3, 4).hyper_norm() == Hyperbolic(3, 4)
    assert ZERO.hyper_norm() == Hyperbolic(0, 0)
    assert Bicomplex(3 + 4j, 5).hyper_norm() == Hyperbolic(5, 5)


def test_hyper_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(200):
        Z = Bicomplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        W = Bicomplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        lhs = (Z * W).hyper_norm()
        rhs = Z.hyper_norm()
        rhs = Hyperbolic(rhs.c1 * W.hyper_norm().c1, rhs.c2 * W.hyper_norm().c2)
        assert abs(lhs.c1 - rhs.c1) <= 1e-14 * (1 + abs(rhs.c1))
        assert abs(lhs.c2 - rhs.c2) <= 1e-14 * (1 + abs(rhs.c2))


def test_conjugation_recovers_squared_norm():
    Z = Bicomplex(2 - 1j, 0.5 + 3j)
    P = (Z.conj() * Z).decompose()
    assert abs(P[0] - abs(Z.z1) ** 2) < 1e-14
    assert abs(P[1] - abs(Z.z2) ** 2) < 1e-14


def test_idempotent_homomorphism_random():
    rng = np.random.default_rng(23)
    for _ in range(500):
        Z = Bicomplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        W = Bicomplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        assert (Z + W).decompose() == (Z.z1 + W.z1, Z.z2 + W.z2)
        assert (Z * W).decompose() == (Z.z1 * W.z1, Z.z2 * W.z2)


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        Bicomplex(float("nan"), 1.0)
    with pytest.raises(ValidationError):
        Bicomplex(1.0, complex(float("inf"), 0))
    with pytest.raises(ValidationError):
        Hyperbolic(float("nan"), 0.0)


def test_json_round_trip():
    Z = Bicomplex(1.5 + 0.5j, -2j)
    assert Bicomplex.from_json(Z.to_json()) == Z
    P = Hyperbolic(0.25, 4.0)
    assert Hyperbolic.from_json(P.to_json()) == P
    with pytest.raises(ValidationError):
        Bicomplex.from_json({"z1": [1, 2]})


def test_hyperbolic_membership():
    assert Hyperbolic(0, 2).in_dplus()
    assert not Hyperbolic(0, 2).strictly_positive()
    assert Hyperbolic(1, 2).strictly_positive()
    assert not Hyperbolic(-1e-9, 2).in_dplus()


def test_partial_order_examples():
    assert leq_h(Hyperbolic(1, 1), Hyperbolic(2, 3))
    assert not leq_h(Hyperbolic(1, 3), Hyperbolic(2, 2))  # incomparable
    assert leq_h(Hyperbolic(-1, -1), Hyperbolic(0, 0))
    assert lt_h(Hyperbolic(1, 1), Hyperbolic(2, 3))
    assert not lt_h(Hyperbolic(1, 1), Hyperbolic(1, 3))


def test_partial_order_axioms_random():
    rng = np.random.default_rng(31)
    hs = [Hyperbolic(*rng.uniform(-2, 2, size=2)) for _ in range(60)]
    for P in hs:
        assert leq_h(P, P)
    for P in hs:
        for Q in hs:
            if leq_h(P, Q) and leq_h(Q, P):
                assert P == Q
    for _ in range(10000):
        P, Q, R = (hs[i] for i in rng.integers(0, len(hs), size=3))
        if leq_h(P, Q) and leq_h(Q, R):
            assert leq_h(P, R)


def test_pow_real():
    assert pow_real(Hyperbolic(4, 9), Hyperbolic(0.5, 0.5)) == Hyperbolic(2, 3)
    assert pow_real(Hyperbolic(2, 2), -2.0) == Hyperbolic(0.25, 0.25)
    assert pow_real(Hyperbolic(1, 5), Hyperbolic(3, 0)) == Hyperbolic(1, 1)
    with pytest.raises(DomainError):
        pow_real(Hyperbolic(0, 1), 0.5)


def test_hyperbolic_bicomplex_embedding():
    P = Hyperbolic(1.25, -0.5)
    assert P.as_bicomplex().decompose() == (1.25 + 0j, -0.5 + 0j)
    x1, x4 = P.cartesian
    assert x1 == (1.25 - 0.5) / 2 and x4 == (1.25 + 0.5) / 2
    assert math.isclose(x1 + x4, 1.25) and math.isclose(x1 - x4, -0.5)


_REALS = st.floats(-1e3, 1e3)
_COMPLEX = st.builds(complex, _REALS, _REALS)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_COMPLEX, _COMPLEX, _REALS, _REALS, _COMPLEX, _REALS)
def test_pair_operations_act_on_each_component(z1, z2, c1, c2, s, x):
    """Every ring operation, reflected form and mixed-type case is the
    operation on each component, bit for bit (compared by repr)."""
    Z, P = Bicomplex(z1, z2), Hyperbolic(c1, c2)
    cases = [
        (Z + P, Bicomplex(z1 + c1, z2 + c2)),
        (P + Z, Bicomplex(z1 + c1, z2 + c2)),
        (Z - P, Bicomplex(z1 - c1, z2 - c2)),
        (P - Z, Bicomplex(c1 - z1, c2 - z2)),
        (Z * P, Bicomplex(z1 * c1, z2 * c2)),
        (s - Z, Bicomplex(s - z1, s - z2)),
        (Z - s, Bicomplex(z1 - s, z2 - s)),
        (s * Z, Bicomplex(s * z1, s * z2)),
        (Z + s, Bicomplex(z1 + s, z2 + s)),
        (-Z, Bicomplex(-z1, -z2)),
        (x - P, Hyperbolic(x - c1, x - c2)),
        (P * x, Hyperbolic(c1 * x, c2 * x)),
        (x + P, Hyperbolic(x + c1, x + c2)),
        (-P, Hyperbolic(-c1, -c2)),
    ]
    for got, want in cases:
        assert type(got) is type(want) and repr(got) == repr(want)
    assert repr(Z) == f"Bicomplex({complex(z1)!r}, {complex(z2)!r})"
    assert hash(Z) == hash((z1, z2)) and hash(P) == hash((c1, c2))
    assert (Z == Bicomplex(z1, z2)) and (P == Hyperbolic(c1, c2))
    assert (Z == s) == (z1 == s and z2 == s)
    assert (P == Z) == (c1 == z1 and c2 == z2)


def test_of_embeds_scalars_and_keeps_elements():
    Z = Bicomplex(1j, 2.0)
    assert Bicomplex.of(Z) is Z and Bicomplex.of(0.5j) == Bicomplex(0.5j, 0.5j)
    P = Hyperbolic(1.0, 2.0)
    assert Hyperbolic.of(P) is P and Hyperbolic.of(3) == Hyperbolic(3.0, 3.0)
    assert Hyperbolic.from_scalar(2).decompose() == (2.0, 2.0)
    with pytest.raises(ValidationError, match="^c1 must be a real number, got Bicomplex"):
        Hyperbolic.of(Z)
    with pytest.raises(ValidationError, match="^z1 must be a complex number, got 'x'$"):
        Bicomplex("x", 0)
    with pytest.raises(ValidationError, match="^c1 must be finite, got nan$"):
        Hyperbolic.of(math.nan)


def test_pairs_are_immutable_and_refuse_other_operands():
    for value, name in ((Bicomplex(1, 2), "Bicomplex"), (Hyperbolic(1, 2), "Hyperbolic")):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.extra = 1
        with pytest.raises(TypeError):
            value + "x"
        assert (value == "x") is False
    with pytest.raises(TypeError):
        Hyperbolic(1, 2) * 1j
