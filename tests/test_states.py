"""Coherent-state apparatus: rho/f ladder data, states, overlaps, bicomplex."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from _frozen import f_factor_per_pair

from fwstates import foxwright
from fwstates.bicomplex import E1, ZERO, Bicomplex, Hyperbolic
from fwstates.coherent import (
    BCCoherentModel,
    CoherentModel,
    annihilation_residual,
    f_b,
    f_factor,
    ladder_elements,
    log_rho,
    log_rho_b,
    make_state,
    make_state_b,
    normalization,
    normalization_at,
    normalization_b,
    overlap,
    overlap_b,
    photon_distribution,
    recurrence_worst,
    rho,
    rho_b,
)
from fwstates.errors import ValidationError
from fwstates.foxwright import FWParams
from fwstates.foxwright_bc import BCFWParams

H = Hyperbolic

VACUUM = CoherentModel(FWParams(upper=[], lower=[]))  # rho(k) = k!
SHIFT = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)]))  # (k+1)!
GENERIC = CoherentModel(FWParams(upper=[(0.9, 0.4)], lower=[(1.3, 0.8), (0.7, 0.5)]))


def _random_models(rng, n):
    models = []
    while len(models) < n:
        p = rng.integers(0, 3)
        q = rng.integers(p, 3)
        upper = [(rng.uniform(0.4, 2.0), rng.uniform(0.3, 0.8)) for _ in range(p)]
        lower = [(rng.uniform(0.4, 2.5), rng.uniform(0.5, 1.2)) for _ in range(q)]
        sa = sum(w for _, w in upper)
        sb = sum(w for _, w in lower)
        if 1.0 + sb - sa <= 0.2:
            continue
        models.append(CoherentModel(FWParams(upper=upper, lower=lower)))
    return models


def test_rho_examples():
    for model in (VACUUM, SHIFT, GENERIC):
        assert rho(model, 0) == pytest.approx(1.0, rel=1e-14)
    assert rho(VACUUM, 3) == pytest.approx(6.0, rel=1e-13)
    assert rho(SHIFT, 2) == pytest.approx(6.0, rel=1e-13)


def test_rho_overflow_and_log_form():
    # 200! ~ e^864 is past float64; the log companion keeps working
    with pytest.raises(OverflowError):
        rho(VACUUM, 200)
    assert log_rho(VACUUM, 200) == pytest.approx(math.lgamma(201.0), rel=1e-14)
    with pytest.raises(ValidationError):
        log_rho(VACUUM, -1)


def test_f_factor_examples():
    for s in range(12):
        assert f_factor(VACUUM, s) == pytest.approx(math.sqrt(s + 1.0), rel=1e-13)
    for model in (VACUUM, SHIFT, GENERIC):
        assert f_factor(model, 0) == pytest.approx(math.sqrt(rho(model, 1)), rel=1e-12)
    assert f_factor(SHIFT, 1) ** 2 == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValidationError):
        f_factor(VACUUM, -1)


def test_recurrence_random_models():
    # rho(k+1) = rho(k) f(k)^2, with f from its own gamma-ratio formula
    rng = np.random.default_rng(1105)
    worst = 0.0
    for model in _random_models(rng, 12):
        for k in range(101):
            step = log_rho(model, k + 1) - log_rho(model, k)
            err = abs(math.expm1(step - 2.0 * math.log(f_factor(model, k))))
            worst = max(worst, err)
    assert worst <= 1e-11


def test_product_identity():
    # prod_{s<k} f(s) = sqrt(rho(k)), accumulated in log form
    rng = np.random.default_rng(2207)
    worst = 0.0
    for model in _random_models(rng, 8):
        acc = 0.0
        for k in range(1, 61):
            acc += math.log(f_factor(model, k - 1))
            err = abs(math.expm1(acc - 0.5 * log_rho(model, k)))
            worst = max(worst, err)
    assert worst <= 1e-10


def _bit_models():
    rng = np.random.default_rng(6006)
    models = []
    while len(models) < 40:
        p, q = rng.integers(0, 3, size=2)
        upper = [(rng.uniform(0.05, 3.0), rng.uniform(0.1, 2.0)) for _ in range(p)]
        lower = [(rng.uniform(0.05, 3.0), rng.uniform(0.1, 2.0)) for _ in range(q)]
        if 1.0 + sum(w for _, w in lower) - sum(w for _, w in upper) >= 0.3:
            models.append(CoherentModel(FWParams(upper=upper, lower=lower)))
    # s = 0 with a parameter below 1/2 takes the reflection branch
    models.append(CoherentModel(FWParams(upper=[(0.2, 0.6)], lower=[(0.35, 0.9)])))
    return models


def test_f_factor_array_bit_identical_to_scalar():
    reflection_seen = 0
    for model in _bit_models():
        ss = np.arange(200)
        ref = [repr(f_factor_per_pair(model, s)) for s in range(200)]
        out = f_factor(model, ss)
        assert out.shape == (200,)
        assert [repr(v) for v in out.tolist()] == ref
        for s in (0, 1, 57, 199):
            assert repr(f_factor(model, s)) == ref[s]
        grid = f_factor(model, ss.reshape(20, 10))
        assert grid.shape == (20, 10) and [repr(v) for v in grid.ravel().tolist()] == ref
        pairs = model.params.upper + model.params.lower
        reflection_seen += any(v.real < 0.5 for v, _ in pairs)
    assert reflection_seen >= 5
    with pytest.raises(ValidationError):
        f_factor(GENERIC, np.array([3, -1]))


def test_ladder_data_bit_identical_to_scalar_loops():
    for model in _bit_models()[::4]:
        for k in (0, 1, 2, 31, 59):
            f_up = f_factor_per_pair(model, k)
            f_down = f_factor_per_pair(model, k - 1) if k > 0 else 0.0
            want = (f_down, f_up, f_up * f_up, f_down * f_down)
            assert repr(ladder_elements(model, k)) == repr(want)
        worst = 0.0
        for k in range(60):
            f = f_factor_per_pair(model, k)
            delta = log_rho(model, k) + 2.0 * math.log(f) - log_rho(model, k + 1)
            worst = max(worst, abs(math.expm1(delta)))
        assert repr(recurrence_worst(model, 60)) == repr(worst)
        for z in (0.4 + 0.3j, -1.1 + 0.2j):
            state = make_state(model, z)
            c = np.asarray(state.coeffs)
            K = len(c) - 1
            fs = np.array([f_factor_per_pair(model, k) for k in range(K)])
            want = float(np.linalg.norm(fs * c[1:] - state.z * c[:-1]))
            assert repr(annihilation_residual(model, state)) == repr(want)


def test_normalization_examples():
    for model in (VACUUM, SHIFT, GENERIC):
        assert normalization(model, 0.0) == 1.0
    for zeta in (0.3, 1.0, 2.5):
        assert normalization(VACUUM, zeta) == pytest.approx(math.exp(zeta), rel=1e-13)
    assert normalization(SHIFT, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    assert normalization_at(VACUUM, 1j) == pytest.approx(cmath.exp(1j), rel=1e-13)
    with pytest.raises(ValidationError):
        normalization(VACUUM, -0.5)


def test_normalization_matches_direct_series():
    for model in (SHIFT, GENERIC):
        for zeta in (0.5, 1.7, 4.0):
            direct = sum(
                math.exp(k * math.log(zeta) - log_rho(model, k)) for k in range(120)
            )
            assert normalization(model, zeta) == pytest.approx(direct, rel=1e-11)


def test_make_state_at_zero():
    st = make_state(GENERIC, 0.0)
    assert st.coeffs[0] == 1.0 + 0j
    assert all(c == 0j for c in st.coeffs[1:])
    assert st.tail_mass == 0.0
    assert st.norm_prefactor == 1.0


def test_make_state_vacuum_poisson():
    st = make_state(VACUUM, 0.5)
    for k, c in enumerate(st.coeffs):
        ref = math.exp(-0.125) * 0.5**k / math.sqrt(math.factorial(k))
        assert c == pytest.approx(ref, rel=1e-12, abs=1e-300)
    probs = photon_distribution(st)
    assert sum(probs) + st.tail_mass == pytest.approx(1.0, abs=1e-12)
    # Poisson(0.25) occupation
    for k in (0, 1, 2, 5):
        assert probs[k] == pytest.approx(
            math.exp(-0.25) * 0.25**k / math.factorial(k), rel=1e-12
        )


def test_make_state_auto_extends_truncation():
    st = make_state(VACUUM, 4.0, tail_target=1e-12)
    assert len(st.coeffs) > 33  # model default K=32 cannot hold Poisson(16)
    assert st.tail_mass <= 1e-12
    assert sum(photon_distribution(st)) + st.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_overlap_examples():
    for model in (VACUUM, GENERIC):
        for z in (0.3, 1.0 + 0.5j, -2.0 + 1.0j):
            assert overlap(model, z, z) == pytest.approx(1.0, abs=1e-12)
            ref = 1.0 / math.sqrt(normalization(model, abs(z) ** 2))
            assert overlap(model, z, 0.0) == pytest.approx(ref, rel=1e-12)
    got = overlap(VACUUM, 1.0, 1j)
    assert got == pytest.approx(cmath.exp(1j - 1.0), rel=1e-12)
    assert abs(got) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_overlap_cauchy_schwarz():
    rng = np.random.default_rng(3309)
    for _ in range(1000):
        z = rng.uniform(0, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        zp = rng.uniform(0, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        model = VACUUM if rng.integers(0, 2) else GENERIC
        assert abs(overlap(model, z, zp)) <= 1.0 + 1e-10


def test_overlap_when_the_normalization_product_overflows():
    # N(|z|^2) = N(|z'|^2) = 2.5e263, so their product leaves float64
    model = CoherentModel(
        FWParams(
            upper=[(2.929550738930658, 1.4472416378738564), (2.0862003957136137, 0.831315097839454)],
            lower=[(2.668222991444634, 0.520648631953876), (1.6246481863813942, 1.0825954364681925)],
        )
    )
    w = 5.871836056699253 + 1.6089414839369796j
    z = complex(math.sqrt(abs(w)), 0.0)
    zp = w / z.real
    n1, n2 = float(normalization(model, abs(z) ** 2)), float(normalization(model, abs(zp) ** 2))
    assert math.isinf(n1 * n2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = overlap(model, z, zp)
    assert got == normalization_at(model, z.conjugate() * zp) / (math.sqrt(n1) * math.sqrt(n2))
    # the N(w) series cancels by about 1e83 (a 200-digit mpmath series gives
    # an overlap of 4.2e-84), so only the absolute size can be checked
    assert 0.0 < abs(got) <= 1e-12
    # |z|^2 itself past the float range, named after N(conj(z) z') is
    # summed; an error of that sum comes first
    for z, zp in ((1e200, 1e-200), (1e-200, 1e200)):
        name = "z" if z == 1e200 else "zp"
        with pytest.raises(OverflowError, match=rf"^\|{name}\|\^2 is past the float range, {name} = "):
            overlap(VACUUM, z, zp)
    with pytest.raises(OverflowError, match="^series term exceeds the floating-point range"):
        overlap(VACUUM, 1e200, 1e-197)
    with pytest.raises(OverflowError, match=r"^\|z\|\^2 is past the float range, z = \(1e\+200\+0j\)$"):
        make_state(VACUUM, 1e200)


def test_ladder_elements():
    for model in (VACUUM, SHIFT, GENERIC):
        f0 = f_factor(model, 0)
        assert ladder_elements(model, 0) == (0.0, f0, f0 * f0, 0.0)
    down, up, aa, ad = ladder_elements(VACUUM, 4)
    assert down == pytest.approx(2.0, rel=1e-13)
    assert up == pytest.approx(math.sqrt(5.0), rel=1e-13)
    assert aa == pytest.approx(5.0, rel=1e-13)
    assert ad == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(ValidationError):
        ladder_elements(VACUUM, -1)


def test_vacuum_commutator_diagonal():
    for k in range(25):
        _, _, aa, ad = ladder_elements(VACUUM, k)
        assert aa - ad == pytest.approx(1.0, rel=1e-12)


def test_commutator_telescoping():
    for model in (VACUUM, SHIFT, GENERIC):
        total = 0.0
        for k in range(40):
            _, _, aa, ad = ladder_elements(model, k)
            total += aa - ad
        assert total == pytest.approx(f_factor(model, 39) ** 2, rel=1e-9)


def test_annihilation_residual():
    assert annihilation_residual(GENERIC, make_state(GENERIC, 0.0)) == 0.0
    st = make_state(VACUUM, 0.5)
    assert st.tail_mass <= 1e-12
    assert annihilation_residual(VACUUM, st) <= 1e-8


def test_annihilation_residual_k_doubling():
    for model, z in ((VACUUM, 0.5), (GENERIC, 1.2 + 0.4j)):
        prev = None
        for K in (32, 64, 128):
            m = CoherentModel(model.params, K=K)
            r = annihilation_residual(m, make_state(m, z, tail_target=1.0))
            if prev is not None:
                assert r <= prev + 1e-15
            prev = r


def test_bicomplex_delegation_real_embedding():
    bc = BCCoherentModel(
        BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))])
    )
    for k in (0, 1, 2, 7):
        r = rho_b(bc, k)
        assert abs(r.c1 - rho(SHIFT, k)) <= 1e-12 * rho(SHIFT, k)
        assert r.c1 == r.c2
        lr = log_rho_b(bc, k)
        assert lr.c1 == pytest.approx(log_rho(SHIFT, k), abs=1e-12)
        fb = f_b(bc, k)
        assert fb.c1 == pytest.approx(f_factor(SHIFT, k), rel=1e-13)
        assert fb.c1 == fb.c2


def test_bicomplex_mixed_components():
    bc = BCCoherentModel(
        BCFWParams(upper=[(Bicomplex(1.0, 0.9), H(1.0, 0.4))], lower=[(2.0, H(1, 1))])
    )
    m1 = bc.component_model(1)
    m2 = bc.component_model(2)
    assert m1.params.upper[0] == (1.0 + 0j, 1.0)
    assert m2.params.upper[0] == (0.9 + 0j, 0.4)
    for k in (1, 3, 6):
        r = rho_b(bc, k)
        assert r.c1 == pytest.approx(rho(m1, k), rel=1e-13)
        assert r.c2 == pytest.approx(rho(m2, k), rel=1e-13)
    W = H(0.7, 1.3)
    nb = normalization_b(bc, W)
    assert nb.c1 == pytest.approx(normalization(m1, 0.7), rel=1e-12)
    assert nb.c2 == pytest.approx(normalization(m2, 1.3), rel=1e-12)


def test_normalization_b_rejects_outside_dplus():
    bc = BCCoherentModel(
        BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))])
    )
    with pytest.raises(ValidationError):
        normalization_b(bc, H(-0.5, 1.0))


def test_bicomplex_zero_divisor_state():
    bc = BCCoherentModel(
        BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))])
    )
    Z = E1 * 0.5  # z1 = 0.5, z2 = 0: component 2 sees the vacuum point
    st = make_state_b(bc, Z)
    s2 = st.components[1]
    assert s2.coeffs[0] == 1.0 + 0j and all(c == 0j for c in s2.coeffs[1:])
    s1_direct = make_state(bc.component_model(1), 0.5)
    assert st.components[0].coeffs == s1_direct.coeffs

    ov0 = overlap_b(bc, Z, ZERO)
    ref1 = 1.0 / math.sqrt(normalization(bc.component_model(1), 0.25))
    assert abs(ov0.z1 - ref1) <= 1e-12
    assert abs(ov0.z2 - 1.0) <= 1e-12

    ovz = overlap_b(bc, Z, Z)
    assert abs(ovz.z1 - 1.0) <= 1e-12 and abs(ovz.z2 - 1.0) <= 1e-12


def test_bicomplex_overlap_delegates():
    bc = BCCoherentModel(
        BCFWParams(upper=[(Bicomplex(1.0, 0.9), H(1.0, 0.4))], lower=[(2.0, H(1, 1))])
    )
    Z = Bicomplex(0.8 + 0.3j, 0.5)
    Zp = Bicomplex(0.2 - 0.6j, 1.1 + 0.2j)
    got = overlap_b(bc, Z, Zp)
    for p in (0, 1):
        m = bc.component_model(p + 1)
        ref = overlap(m, Z.decompose()[p], Zp.decompose()[p])
        assert abs(got.decompose()[p] - ref) <= 1e-12


@pytest.mark.parametrize(
    "call, text",
    [
        # these ran 10,000 terms and raised MaxTermsExceeded, or overflowed
        (lambda: make_state(VACUUM, math.nan), "z must be finite, got (nan+0j)"),
        (lambda: make_state(VACUUM, complex(1.0, math.nan)), "z must be finite, got (1+nanj)"),
        (lambda: make_state(VACUUM, math.inf), "z must be finite, got (inf+0j)"),
        (lambda: normalization(VACUUM, math.nan), "zeta must be finite, got nan"),
        (lambda: normalization_at(VACUUM, math.inf), "zeta must be finite, got (inf+0j)"),
        (lambda: overlap(VACUUM, math.nan, 1.0), "z must be finite, got (nan+0j)"),
        (lambda: overlap(GENERIC, 1.0, complex(math.inf, 1.0)), "zp must be finite, got (inf+1j)"),
        (lambda: overlap(VACUUM, 1e200, 1e200), "conj(z) zp must be finite, got (inf+0j)"),
        # these raised a raw TypeError or ValueError
        (lambda: normalization(VACUUM, 1j), "zeta must be a real number, got 1j"),
        (lambda: normalization(VACUUM, "x"), "zeta must be a real number, got 'x'"),
        (lambda: make_state(VACUUM, None), "z must be a complex number, got None"),
        (lambda: overlap(VACUUM, "x", 1), "z must be a complex number, got 'x'"),
        (lambda: ladder_elements(VACUUM, "x"), "k must be a whole number, got 'x'"),
        # numpy's "arange: cannot compute length"
        (lambda: ladder_elements(VACUUM, math.nan), "k must be >= 0"),
        (lambda: ladder_elements(VACUUM, math.inf), "k must be a whole number, got inf"),
        # this returned f(1.5) and f(2.5)
        (lambda: ladder_elements(VACUUM, 2.5), "k must be a whole number, got 2.5"),
    ],
)
def test_malformed_and_non_finite_arguments_are_refused(call, text, monkeypatch):
    for loop in ("_block_sums", "_lone_sum"):
        monkeypatch.setattr(foxwright, loop, lambda *a: pytest.fail("a series ran"))
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        call()


def test_integral_float_k_is_taken_as_the_int():
    for model in (VACUUM, GENERIC):
        for k in (0, 1, 4, 30):
            assert repr(ladder_elements(model, float(k))) == repr(ladder_elements(model, k))


def test_model_validation():
    with pytest.raises(ValidationError):
        CoherentModel(FWParams(upper=[(1.0 + 0.5j, 1.0)], lower=[(2.0, 1.0)]))
    with pytest.raises(ValidationError):
        CoherentModel(FWParams(upper=[], lower=[]), K=0)
    # margin 0 normalizations are not entire
    with pytest.raises(ValidationError):
        CoherentModel(FWParams(upper=[(1.0, 2.0)], lower=[(1.5, 1.0)]))
    with pytest.raises(ValidationError):
        BCCoherentModel(
            BCFWParams(upper=[(Bicomplex(1.0, -0.9), H(1, 1))], lower=[(2.0, H(1, 1))])
        )


# The one `complex`-slice overlap that misses 1e-10 in the `states`
# benchmark at seed 905 (pass 6).  Its N(conj(z) z') series cancels by
# sum|t_k| / |N| = 9.7e3, just under the benchmark's 1e4 slice cut.  The
# digits go in the series terms, not in overlap's own arithmetic: each
# log-domain term carries 1e-13 to 3e-13 relative rounding (its
# log-gamma values run to hundreds of nats), an exact fsum of the float64
# terms still misses by 1.37e-10, and both denominators are good to 3e-14.
SEED_905_MODEL = CoherentModel(
    FWParams(
        upper=[(2.499181519729083, 1.4452742638649818), (1.3790468629794617, 0.7663910075026524)],
        lower=[(2.252938486838932, 0.9088113536704927), (2.3140170184338755, 0.7146961312042761)],
    ),
    16,
)
# 50-digit mpmath series with exact gamma arguments, frozen
SEED_905_OVERLAP = -5.28939832918107676e-7 + 1.0646448970974544651e-7j


@pytest.mark.xfail(
    strict=True,
    reason="series-cancellation defect: log-domain term rounding times a "
    "condition number of 9.7e3 (ROADMAP item 1)",
)
def test_overlap_under_the_cancellation_cut_holds_1e10():
    z = 1.120010473491107 + 1.6451859935755342j
    zp = 1.251886073464164 + 0.9648403155148083j
    got = overlap(SEED_905_MODEL, z, zp)
    assert abs(got - SEED_905_OVERLAP) <= 1e-10 * abs(SEED_905_OVERLAP)


# -- non-finite arguments --------------------------------------------------------

_BC = BCCoherentModel(BCFWParams(upper=[(1.0, H(1, 0.8))], lower=[(2.0, H(1, 1.2))]))


@pytest.mark.parametrize(
    "s, shown",
    [
        (math.nan, "nan"),
        (math.inf, "inf"),
        (np.float64(math.nan), "nan"),
        (np.array([1.0, math.inf]), "inf"),
        (np.array([[2.0], [math.nan]]), "nan"),
    ],
)
def test_f_factor_refuses_non_finite_s(s, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^s must be finite, got {shown}$"):
            f_factor(GENERIC, s)
        with pytest.raises(ValidationError, match=f"^component 1: s must be finite, got {shown}$"):
            f_b(_BC, s)
    with pytest.raises(ValidationError, match="^s must be >= 0$"):
        f_factor(GENERIC, -math.inf)


@pytest.mark.parametrize("fn, bc_fn", [(log_rho, log_rho_b), (rho, rho_b)])
@pytest.mark.parametrize("k, shown", [(math.nan, "nan"), (math.inf, "inf"), (np.float64(math.inf), "inf")])
def test_rho_refuses_non_finite_k(fn, bc_fn, k, shown):
    with pytest.raises(ValidationError, match=f"^k must be finite, got {shown}$"):
        fn(GENERIC, k)
    with pytest.raises(ValidationError, match=f"^component 1: k must be finite, got {shown}$"):
        bc_fn(_BC, k)
    with pytest.raises(ValidationError, match="^k must be >= 0$"):
        fn(GENERIC, -math.inf)


# 2.1 + 1.7e308 * 1.1 overflows to inf, while 1.3 + 1.7e308 * 0.8 does not
_OVERFLOW_MODEL = CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)]))
_OVERFLOW_TEXT = r"^gamma argument a \+ kA = \(inf\+0j\) is not finite \(a=2\.1, A=1\.1, k=1\.7e\+308\)$"


def test_f_factor_refuses_a_gamma_argument_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a far s whose gamma arguments still fit keeps its value, bit for bit
        assert repr(f_factor(_OVERFLOW_MODEL, 1e305)) == "2.0489434963459408e+198"
        with pytest.raises(OverflowError, match=_OVERFLOW_TEXT):
            f_factor(_OVERFLOW_MODEL, 1.7e308)
        with pytest.raises(OverflowError, match=_OVERFLOW_TEXT):
            f_factor(_OVERFLOW_MODEL, np.array([2.0, 1.7e308]))


def test_ladder_elements_refuses_a_gamma_argument_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=_OVERFLOW_TEXT):
            ladder_elements(_OVERFLOW_MODEL, 1.7e308)
