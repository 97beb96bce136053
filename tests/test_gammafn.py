"""Gamma bedrock: Lanczos log-gamma, ratios, Pochhammer, bicomplex gamma.

The Gamma(1+i) anchor is checked against an oracle built here from
scratch (Euler's product with a zeta-tail correction, plus a Stirling
series cross-check), so no library gamma enters that comparison.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from _frozen import reference_lanczos_series, reference_log_gamma_ratio, scalar_pole_rule
from hypothesis import given, settings
from hypothesis import strategies as st

from fwstates import gammafn
from fwstates.bicomplex import Bicomplex
from fwstates.errors import PoleError, ValidationError
from fwstates.gammafn import (
    _lanczos_series,
    gamma,
    gamma_bicomplex,
    is_gamma_pole,
    log_gamma,
    log_gamma_ratio,
    log_gamma_vec,
    pochhammer,
)

# mpmath gamma at 50 digits, rounded to float64 pairs
GAMMA_GRID = [
    (0.5 + 0j, 1.7724538509055160273 + 0j, 1e-13),
    (2.0 + 0j, 1.0 + 0j, 1e-13),
    (5.0 + 0j, 24.0 + 0j, 1e-13),
    (0.1 + 0j, 9.5135076986687318363 + 0j, 1e-13),
    (1 + 1j, 0.49801566811835604271 - 0.15494982830181068512j, 1e-13),
    (3.7 - 2.2j, -1.8850260130418723166 - 0.84979094159458996452j, 1e-13),
    (8 + 3j, 2774.1582375598594894 - 448.08176438224159241j, 1e-13),
    (20 + 10j, 2741188744832832.6152 - 10006853062146087.759j, 1e-13),
    # left half plane goes through the reflection formula
    (-2.5 + 0.5j, -0.3338752035224323374 - 0.20645730796360841492j, 1e-12),
    (-0.5 - 1.5j, -0.13920273326162969236 + 0.056553073037431998148j, 1e-12),
]


def _gamma_product_oracle(z: complex, n_terms: int = 10**6) -> complex:
    """Euler's product, log domain, with the zeta-tail correction.

    log Gamma(z) = -log z + sum_n [z log(1+1/n) - log(1+z/n)]; the tail
    past n_terms is summed analytically from the cubic expansion of
    log(1+x), which brings the truncation error below 1e-18 at 1e6 terms.
    """
    n = np.arange(1, n_terms + 1, dtype=float)
    log_g = -np.log(complex(z)) + np.sum(z * np.log1p(1.0 / n) - np.log1p(z / n))
    N = float(n_terms)
    s2 = 1.0 / N - 1.0 / (2 * N**2) + 1.0 / (6 * N**3)
    s3 = 1.0 / (2 * N**2) - 1.0 / (2 * N**3)
    s4 = 1.0 / (3 * N**3)
    log_g += (z * z - z) / 2.0 * s2 + (z - z**3) / 3.0 * s3 + (z**4 - z) / 4.0 * s4
    return cmath.exp(log_g)


def _gamma_stirling_oracle(z: complex, shift: int = 9) -> complex:
    # Stirling series at z+shift, then divide the recurrence back down
    w = z + shift
    log_g = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2 * math.pi)
    for coeff, pw in [
        (1 / 12, 1),
        (-1 / 360, 3),
        (1 / 1260, 5),
        (-1 / 1680, 7),
        (1 / 1188, 9),
    ]:
        log_g += coeff / w**pw
    g = cmath.exp(log_g)
    for m in range(shift):
        g /= z + m
    return g


def test_gamma_one_plus_i_against_independent_oracles():
    z = 1 + 1j
    by_product = _gamma_product_oracle(z)
    by_stirling = _gamma_stirling_oracle(z)
    # the two constructions agree with each other first
    assert abs(by_product - by_stirling) <= 1e-11 * abs(by_stirling)
    got = gamma(z)
    assert abs(got - by_product) <= 1e-11 * abs(by_product)
    assert abs(got - by_stirling) <= 1e-12 * abs(by_stirling)


@pytest.mark.parametrize("w,expected,tol", GAMMA_GRID)
def test_gamma_validation_grid(w, expected, tol):
    assert abs(gamma(w) - expected) <= tol * abs(expected)


def test_log_gamma_anchors():
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-14
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_exponentiates_to_gamma():
    for w, expected, _ in GAMMA_GRID[:8]:
        lg = log_gamma(w)
        assert abs(cmath.exp(lg) - expected) <= 1e-13 * abs(expected)
        # standard continuation is conjugate-symmetric
        assert log_gamma(complex(w).conjugate()) == lg.conjugate()


def test_recurrence_random():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        w = complex(rng.uniform(0.1, 50.0), rng.uniform(-20.0, 20.0))
        lhs = log_gamma(w + 1)
        rhs = log_gamma(w) + cmath.log(w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_reflection():
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 300:
        w = complex(rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0))
        if min(abs(w - round(w.real)), abs(1 - w - round(1 - w.real))) < 0.05:
            continue
        if abs(w.imag) < 0.05 and (w.real <= 0 or w.real >= 1):
            # keep the guard simple: stay off the real axis near poles
            continue
        lhs = gamma(w) * gamma(1 - w)
        rhs = math.pi / cmath.sin(math.pi * w)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
        checked += 1


def test_poles():
    for w in (0.0, -1.0, -7.0, -3.0 + 1e-13j):
        assert is_gamma_pole(w)
        with pytest.raises(PoleError):
            log_gamma(w)
    assert not is_gamma_pole(-3.0 + 1e-9)
    assert not is_gamma_pole(0.5)
    # no pole, and refused: these raised a raw ValueError or OverflowError
    # from round(), and gamma(1 + inf j) returned nan+nanj with two warnings
    for w, shown in [(math.nan, "(nan+0j)"), (math.inf, "(inf+0j)"), (complex(1.0, math.inf), "(1+infj)"),
                     (complex(-math.inf, 0.0), "(-inf+0j)"), (complex(-2.0, math.nan), "(-2+nanj)")]:
        assert not is_gamma_pole(w)
        for fn in (log_gamma, gamma):
            with pytest.raises(ValidationError, match=f"^w must be finite, got {re.escape(shown)}$"):
                fn(w)
    with pytest.raises(ValidationError, match="^E must be finite, got nan$"):
        pochhammer(1.0, math.nan)
    with pytest.raises(ValidationError, match=r"^a must be finite, got \(inf\+0j\)$"):
        pochhammer(math.inf, 1.0)


def test_is_gamma_pole_is_pole_mask_on_one_entry():
    """is_gamma_pole is pole_mask on one entry, and decides as the scalar
    rule does: at signed zeros, non-finite parts, huge and half-integer
    reals, and within and just past POLE_TOL of a pole on either axis."""
    tol = gammafn.POLE_TOL
    points = [
        0.0, -0.0, complex(0.0, -0.0), complex(-0.0, tol), math.inf, -math.inf, math.nan,
        complex(math.nan, 0.0), complex(-2.0, math.nan), complex(-2.0, math.inf), complex(-2.0, -math.inf),
        -1e300, 1e300, -0.5, 0.5, -1.5, -2.5, -4503599627370495.5, -4503599627370496.0,
        tol, -tol, 1.1e-12, -1.1e-12, 0.5 * tol, -0.5 * tol,
        -3.0 + 0.9e-12, -3.0 - 0.9e-12, -3.0 + 1e-12, -3.0 + 1.1e-12, -3.0 - 1.1e-12,
        complex(-3.0, tol), complex(-3.0, -tol), complex(-3.0, 1.0000001e-12), complex(-7.0, -1.1e-12),
    ]
    got = [is_gamma_pole(w) for w in points]
    assert got == [scalar_pole_rule(w) for w in points]
    assert True in got and False in got
    finite = [w for w in points if cmath.isfinite(w)]
    assert gammafn.pole_mask(np.array(finite, dtype=complex)).tolist() == [is_gamma_pole(w) for w in finite]


def test_log_gamma_vec_matches_scalar():
    ws = np.array([0.3, 1.0, 4.2 + 1.1j, 12.0 - 3.0j, 0.5 + 9.0j])
    vec = log_gamma_vec(ws)
    for i, w in enumerate(ws):
        assert abs(vec[i] - log_gamma(complex(w))) <= 1e-13 * max(1.0, abs(vec[i]))


def test_gamma_bicomplex():
    got = gamma_bicomplex(Bicomplex(2, 3))
    assert abs(got.z1 - 1.0) < 1e-14 and abs(got.z2 - 2.0) < 1e-14
    # real embedding: both components identical to the complex value
    emb = gamma_bicomplex(Bicomplex.from_scalar(0.5))
    assert emb.z1 == emb.z2 == gamma(0.5)
    with pytest.raises(PoleError, match="component 1"):
        gamma_bicomplex(Bicomplex(-1, 2))


def test_pochhammer():
    assert abs(pochhammer(2.3, 0.0) - 1.0) < 1e-14
    assert abs(pochhammer(1.0, 6.0) - 720.0) < 1e-11
    assert abs(pochhammer(0.5, 2.0) - 0.75) < 1e-14


def test_log_gamma_ratio_small_k():
    for k in (0, 1, 5, 40):
        assert abs(log_gamma_ratio(1.0, 1.0, k) - math.log(k + 1)) < 1e-13
    assert abs(log_gamma_ratio(1.0, 2.0, 0) - math.log(2.0)) < 1e-14
    direct = log_gamma(0.5 + 4 * 1.5) - log_gamma(0.5 + 3 * 1.5)
    assert abs(log_gamma_ratio(0.5, 1.5, 3) - direct) <= 1e-13 * abs(direct)


def test_log_gamma_ratio_large_k_is_stable():
    # direct differencing at k=1e4 still has ~1e-12 headroom; check agreement
    k = 10**4
    direct = log_gamma(0.7 + 1.1 * (k + 1)) - log_gamma(0.7 + 1.1 * k)
    assert abs(log_gamma_ratio(0.7, 1.1, k) - direct) <= 5e-12 * abs(direct)
    # at k=1e8 differencing is hopeless in float64; frozen 40-digit value
    frozen = 20.36759002363235933904
    assert abs(log_gamma_ratio(0.7, 1.1, 10**8).real - frozen) <= 1e-13 * frozen


def test_log_gamma_ratio_refuses_arguments_past_the_float_range():
    with pytest.raises(OverflowError, match=r"^gamma argument a \+ kA = \(inf\+0j\) is not finite "
                       r"\(a=2\.1, A=1\.1, k=1\.7e\+308\)$"):
        log_gamma_ratio(2.1, 1.1, 1.7e308)
    # the largest int that a float holds is refused as its float is
    with pytest.raises(OverflowError, match=r"^gamma argument a \+ kA = \(inf\+0j\) is not finite "
                       r"\(a=2\.1, A=1\.1, k=1\.7976931348623157e\+308\)$"):
        log_gamma_ratio(2.1, 1.1, 2**1024 - 2**970 - 1)
    # w = a + kA fits at k = 17, w + A does not; the first such k of an array is named
    with pytest.raises(OverflowError, match=r"^gamma argument a \+ \(k\+1\)A = \(inf\+0j\) is not finite "
                       r"\(a=1\.0, A=1e\+307, k=17\.0\)$"):
        log_gamma_ratio(1.0, 1e307, np.array([17, 18]))


@pytest.mark.parametrize("A, k, shown", [(1.1, -1.7e308, "1.1, k=-1.7e+308"), (-1.1, 1.7e308, "-1.1, k=1.7e+308")])
def test_log_gamma_ratio_refuses_an_argument_at_minus_infinity(A, k, shown):
    # w = a + kA at -inf lies left of every pole; it is refused by name, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as caught:
            log_gamma_ratio(2.1, A, k)
    assert str(caught.value) == f"gamma argument a + kA = (-inf+0j) is not finite (a=2.1, A={shown})"


def test_log_gamma_ratio_refuses_a_result_past_the_float_range():
    # both gamma arguments fit, but log Gamma(1 + 1e308) does not
    with pytest.raises(OverflowError, match=r"^log Gamma\(a \+ \(k\+1\)A\) - log Gamma\(a \+ kA\) = \(inf\+0j\) "
                       r"is past the float range \(a=1\.0, A=1e\+308, k=0\.0\)$"):
        log_gamma_ratio(1.0, 1e308, 0)
    # k whose sum overflows, while every k and every result fits; int k give
    # the values of the same k as floats, as a + kA forms float(k)
    out = log_gamma_ratio(2.1, 1.1, np.array([1e308, 1e308]))
    assert np.isfinite(out).all()
    assert log_gamma_ratio(2.1, 1.1, [10**308, 10**308]).tolist() == out.tolist()


@pytest.mark.parametrize("A", [0.5, 2.0])
def test_log_gamma_ratio_refuses_w_where_a_over_t_overflows(A):
    """Off the real axis near DBL_MAX, A/(w + 6.5) overflows its
    denominator: it came out 0, and the value lost exactly A.  That w is
    refused by name; a neighbour where the quotient fits matches A log w
    + A(A - 1)/(2w).  mpmath at 40 digits gives 0 for these differences,
    so it cannot be the reference."""
    with pytest.raises(OverflowError) as caught:
        log_gamma_ratio(1e308 + 1e308j, A, 0)
    assert str(caught.value) == f"A/(w + 6.5) overflows at w = a + kA = (1e+308+1e+308j) (A={A})"
    w = 6e307 + 6e307j
    assert log_gamma_ratio(w, A, 0) == pytest.approx(A * cmath.log(w) + A * (A - 1) / (2 * w), rel=1e-15)


def test_log_gamma_ratio_reflection_side_takes_one_log_gamma_vec_call(monkeypatch):
    """The entries left of the reflection threshold (here k = 0..4 of 0..7)
    take their log-gammas from one log_gamma_vec call over their w + A and
    w, each with the bits of two scalar log_gamma calls."""
    a, A, ks = 0.05 + 0.2j, 0.1, np.arange(8)
    want = [repr(log_gamma(w + A) - log_gamma(w)) for w in (a + k * A for k in range(5))]
    sizes = []
    lgv = gammafn.log_gamma_vec

    def counted(z):
        sizes.append(np.size(z))
        return lgv(z)

    monkeypatch.setattr(gammafn, "log_gamma_vec", counted)
    out = log_gamma_ratio(a, A, ks)
    assert sizes == [10]
    assert [repr(v) for v in out.tolist()[:5]] == want


@pytest.mark.parametrize("k, shown", [(math.nan, "nan"), (math.inf, "inf"), (np.array([1.0, -math.inf]), "-inf")])
def test_log_gamma_ratio_refuses_non_finite_k(k, shown):
    with pytest.raises(ValidationError, match=f"^k must be finite, got {shown}$"):
        log_gamma_ratio(2.1, 1.1, k)


@pytest.mark.parametrize("A", [math.inf, -math.inf, math.nan])
def test_log_gamma_ratio_refuses_non_finite_A(A):
    # refused by name before any array work, so numpy writes no warning on
    # w = 1 + 0 * inf = nan (the suite turns a RuntimeWarning into an error)
    with pytest.raises(ValidationError, match=f"^A must be finite, got {A!r}$"):
        log_gamma_ratio(1.0, A, np.array([0, 1]))


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_log_gamma_ratio_refuses_non_finite_a(a):
    # refused by name before any array work, as A is, so numpy writes no
    # warning on w = nan (the suite turns a RuntimeWarning into an error)
    with pytest.raises(ValidationError, match=f"^a must be finite, got {re.escape(repr(a))}$"):
        log_gamma_ratio(a, 1.0, [0, 1])


@pytest.mark.parametrize(
    "k, bits",
    [
        (10**309, 1027),
        ([10**309], 1027),
        ([1, -(10**400)], 1329),
        (np.array([2, 10**309], dtype=object), 1027),
    ],
    ids=["int", "list", "negative", "object-array"],
)
def test_log_gamma_ratio_names_an_int_k_past_the_float_range(k, bits):
    with pytest.raises(OverflowError, match=rf"^int k of {bits} bits is past the float range \(a=2\.1, A=1\.1\)$"):
        log_gamma_ratio(2.1, 1.1, k)


def test_stirling_modulus_at_100():
    # |Gamma(w)| against the leading Stirling envelope on the real axis
    w = 100.0
    envelope = 0.5 * math.log(2 * math.pi) + (w - 0.5) * math.log(w) - w
    assert abs(math.expm1(log_gamma(w).real - envelope)) <= 1e-3


# -- bit identity of the batched Lanczos work -----------------------------


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(float).tobytes()


_REAL_PART = st.floats(0.5, 1e6)
_POINT = st.one_of(
    st.builds(complex, _REAL_PART, st.floats(-1e6, 1e6)),
    # the real axis, with both signs of a zero imaginary part
    st.builds(complex, _REAL_PART, st.sampled_from([0.0, -0.0])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zs=st.lists(_POINT, min_size=1, max_size=40))
def test_lanczos_series_bit_identical_to_loop(zs):
    z = np.array(zs, dtype=complex)
    ref = reference_lanczos_series(z)
    assert _bits(_lanczos_series(z)) == _bits(ref)
    for i, zi in enumerate(zs):
        assert _bits(_lanczos_series(np.array([zi]))) == _bits(ref[i])
        zero_d = _lanczos_series(np.asarray(zi))
        assert np.ndim(zero_d) == 0
        assert _bits(zero_d) == _bits(ref[i])


def test_lanczos_series_bit_identical_on_grid():
    rng = np.random.default_rng(606)
    z = rng.uniform(0.5, 400.0, 20000) + 1j * rng.normal(0.0, 30.0, 20000)
    z = np.concatenate([z, z.real + 0j, z.real - 0j, 0.5 + 0.25 * np.arange(2000) + 0j])
    assert _bits(_lanczos_series(z)) == _bits(reference_lanczos_series(z))


# (a, A, ks): right of the threshold, the reflection branch at small k
# (a < 0.5), complex a, and runs that reach a pole of w or w + A
_RATIO_CASES = [
    (1.0, 1.0, range(60)),
    (0.3, 0.45, range(20)),
    (0.05, 1.7, range(10)),
    (-2.6, 0.8, range(12)),
    (0.2 + 1.0j, 0.7, range(50)),
    (0.7, 1.1, [10**4, 10**8]),
    (-2.0, 1.0, range(6)),
    (-0.5, 0.25, range(8)),
    (-3.5, 1.5, range(6)),
]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except PoleError as exc:
        return repr(exc)


@pytest.mark.parametrize("a, A, ks", _RATIO_CASES)
def test_log_gamma_ratio_array_matches_scalar_reference(a, A, ks):
    ks = list(ks)
    scalar = [_outcome(lambda k: reference_log_gamma_ratio(a, A, [k])[0], k) for k in ks]
    assert [_outcome(log_gamma_ratio, a, A, k) for k in ks] == scalar
    errors = [o for o in scalar if o.startswith("PoleError")]
    if errors:
        # the array call stops at the first pole, with the scalar's message
        with pytest.raises(PoleError) as info:
            log_gamma_ratio(a, A, np.array(ks))
        assert repr(info.value) == errors[0]
    else:
        out = log_gamma_ratio(a, A, np.array(ks))
        assert out.shape == (len(ks),)
        assert [repr(v) for v in out.tolist()] == scalar
        grid = log_gamma_ratio(a, A, np.array(ks).reshape(1, -1))
        assert grid.shape == (1, len(ks)) and _bits(grid.ravel()) == _bits(out)
