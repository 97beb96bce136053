"""Mellin-Barnes kernel, measure weight, and the moment identity."""

import math

import numpy as np
import pytest
import scipy.special as sp
from _frozen import mittag_leffler
from scipy import integrate as si

from fwstates.bicomplex import Bicomplex, Hyperbolic
from fwstates.coherent import BCCoherentModel, CoherentModel
from fwstates.errors import ContourFailure, DomainError, ValidationError
from fwstates.foxwright import FWParams
from fwstates.foxwright_bc import BCFWParams
from fwstates import hfunction
from fwstates.hfunction import (
    DEFAULT_CONTOUR,
    ContourConfig,
    HWeightParams,
    _level,
    eval_h,
    measure_density,
    measure_density_b,
    moment_check,
    weight,
)

H = Hyperbolic

VACUUM = CoherentModel(FWParams(upper=[], lower=[]))
SHIFT = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)]))
ML = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(1.5, 0.7)]))  # Mittag-Leffler
TWO_LOWER = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0), (1.5, 1.0)]))

VACUUM_HP = HWeightParams(lower=[(0.0, 1.0)])
BESSEL_HP = HWeightParams(lower=[(0.0, 1.0), (0.0, 1.0)])

# 2 K_0(2), 50-digit mpmath, frozen
TWO_K0_AT_2 = 0.22778774549906687


def _random_models(rng, n):
    """Models whose kernel is a product-of-positive-variables density.

    Each upper pair gets a lower partner with the same weight and a
    smaller offset (a beta-type Mellin factor); leftover lower pairs are
    free gamma-type factors.  Positivity of the kernel is a theorem for
    this class; unconstrained parameter draws can and do go negative.
    """
    models = []
    while len(models) < n:
        upper, lower = [], []
        for _ in range(rng.integers(0, 3)):
            A = rng.uniform(0.3, 1.2)
            a = rng.uniform(0.5, 2.0)
            upper.append((a, A))
            lower.append((rng.uniform(0.3, 1.0) * a, A))
        for _ in range(rng.integers(0, 2)):
            lower.append((rng.uniform(0.4, 2.5), rng.uniform(0.5, 1.2)))
        models.append(CoherentModel(FWParams(upper=upper, lower=lower)))
    return models


def test_vacuum_kernel_is_exponential():
    # single Gamma(s) on the line inverts to e^{-x}
    for x in (0.25, 1.0, 2.0, 5.0, 12.0):
        assert eval_h(VACUUM_HP, x) == pytest.approx(math.exp(-x), rel=1e-10)


def test_two_gamma_kernel_is_bessel_k():
    assert eval_h(BESSEL_HP, 1.0) == pytest.approx(TWO_K0_AT_2, rel=1e-10)
    for x in (0.3, 1.0, 2.5, 7.0):
        ref = 2.0 * float(sp.kv(0, 2.0 * math.sqrt(x)))
        assert eval_h(BESSEL_HP, x) == pytest.approx(ref, rel=1e-10)


def test_kernel_positivity_random_models():
    rng = np.random.default_rng(5512)
    grid = np.geomspace(0.05, 20.0, 9)
    for model in _random_models(rng, 20):
        hp = HWeightParams.from_model(model)
        for x in grid:
            assert eval_h(hp, float(x)) >= -1e-12


def test_weight_vacuum_is_one():
    for x in (0.0, 0.5, 1.0, 4.0, 10.0):
        assert weight(VACUUM, x) == pytest.approx(1.0, rel=1e-10)


def test_weight_mittag_leffler_structure():
    # the Fox-Wright factor collapses to E_{B,b}, leaving the bare kernel
    hp = HWeightParams.from_model(ML)
    for x in (0.3, 1.0, 2.2):
        ref = mittag_leffler(0.7, 1.5, x).real * eval_h(hp, x)
        assert weight(ML, x) == pytest.approx(ref, rel=1e-9)


def test_weight_nonnegative_on_grid():
    for model in (ML, TWO_LOWER, SHIFT):
        for x in np.geomspace(0.05, 12.0, 8):
            assert weight(model, float(x)) >= -1e-10


def test_weight_at_zero_branches():
    # all b > B: finite residue value; here Gamma(2.5)/Gamma(1.5) = 1.5
    model = CoherentModel(FWParams(upper=[(2.5, 1.0)], lower=[(2.0, 1.0)]))
    assert weight(model, 0.0) == pytest.approx(1.5, rel=1e-12)
    # upper alpha = a - A lands on a Gamma pole: kernel vanishes at 0
    assert weight(SHIFT, 0.0) == 0.0
    # some b <= B: no finite limit
    flat = CoherentModel(FWParams(upper=[], lower=[(1.0, 1.0)]))
    with pytest.raises(DomainError):
        weight(flat, 0.0)


def test_moment_identity_vacuum():
    for k in range(7):
        res = moment_check(VACUUM, k)
        assert res.rhs == pytest.approx(math.factorial(k), rel=1e-13)
        assert res.rel_err <= 1e-6


def test_moment_identity_panel():
    res = moment_check(SHIFT, 2)
    assert res.rhs == pytest.approx(6.0, rel=1e-13)
    assert res.rel_err <= 1e-5
    for model in (SHIFT, ML, TWO_LOWER):
        assert moment_check(model, 0).rel_err <= 1e-6
    assert moment_check(ML, 3).rel_err <= 1e-5
    assert moment_check(TWO_LOWER, 4).rel_err <= 1e-5


def test_moment_order_validation():
    with pytest.raises(ValidationError):
        moment_check(VACUUM, 9)
    with pytest.raises(ValidationError):
        moment_check(VACUUM, -1)
    # 2.5 ran as order 2, "3" as order 3, and NaN raised a bare ValueError
    for k in (2.5, "3", math.nan, math.inf):
        with pytest.raises(ValidationError, match="^moment order k must be"):
            moment_check(VACUUM, k)
    assert moment_check(VACUUM, 2.0) == moment_check(VACUUM, 2)


def test_mellin_round_trip():
    # forward transform of the evaluated kernel lands back on the Gamma product
    for hp, x_hi in ((VACUUM_HP, 60.0), (BESSEL_HP, 120.0)):
        for s in (1.0, 1.5, 2.0):
            val, _ = si.quad(
                lambda x: x ** (s - 1.0) * eval_h(hp, x), 0.0, x_hi, limit=300
            )
            ref = hp.mellin(s).real
            assert val == pytest.approx(ref, rel=1e-6)
    assert VACUUM_HP.mellin(1.5) == pytest.approx(math.gamma(1.5), rel=1e-13)


def test_contour_node_start_insensitive(monkeypatch):
    # lines from a first level of 32, 128 (the live one) and 512 intervals
    for n in (16, 64, 256):
        for memo in (hfunction._level, hfunction._pair_calls):
            memo.cache_clear()
        monkeypatch.setattr(hfunction, "_FIRST_N", 2 * n)
        assert eval_h(VACUUM_HP, 1.7) == pytest.approx(math.exp(-1.7), rel=1e-10)
        assert eval_h(BESSEL_HP, 1.0) == pytest.approx(TWO_K0_AT_2, rel=1e-10)
    _level.cache_clear()


def test_eval_h_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            eval_h(VACUUM_HP, bad)
    with pytest.raises(DomainError):
        weight(VACUUM, -0.5)


def test_measure_density_is_weight():
    for x in (0.4, 1.0, 3.0):
        assert measure_density(ML, x) == weight(ML, x)


def test_measure_density_bicomplex():
    bc = BCCoherentModel(
        BCFWParams(upper=[(1.0, H(1, 1))], lower=[(2.0, H(1, 1))])
    )
    got = measure_density_b(bc, H(1.5, 1.5))
    ref = measure_density(SHIFT, 1.5)
    assert got.c1 == pytest.approx(ref, rel=1e-12)
    assert got.c1 == got.c2
    with pytest.raises(ValidationError):
        measure_density_b(bc, H(-1.0, 1.0))


def test_measure_density_b_labels_component():
    # component 2 has b = B, so its weight has no limit at x = 0
    bc = BCCoherentModel(
        BCFWParams(upper=[], lower=[(Bicomplex(2.0, 1.0), H(1, 1))])
    )
    with pytest.raises(DomainError, match="component 2"):
        measure_density_b(bc, H(0.5, 0.0))


def test_hweight_params_validation():
    with pytest.raises(ValidationError):
        HWeightParams(upper=[(0.0, 1.0)], lower=[(0.0, 1.0)])  # no decay
    with pytest.raises(ValidationError):
        HWeightParams(lower=[(0.0, -1.0)])
    with pytest.raises(ValidationError):
        HWeightParams(lower=[(math.inf, 1.0)])
    hp = HWeightParams.from_model(SHIFT)
    assert hp.upper == ((0.0, 1.0),)
    assert hp.lower == ((0.0, 1.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "upper, text",
    [
        ([1.0], "upper entries must be (value, weight) pairs"),
        ([("x", 1.0)], "upper entry ('x', 1.0) is not a number pair"),
        ([(0.5, "w")], "upper entry (0.5, 'w') is not a number pair"),
        ([(1 + 1j, 0.5)], "upper offset must be real, got (1+1j)"),
    ],
)
def test_malformed_pairs_are_validation_errors(upper, text):
    # the first three were a raw TypeError or ValueError
    with pytest.raises(ValidationError) as exc:
        HWeightParams(upper, [(0.0, 1.0)])
    assert str(exc.value) == text
    if "offset" not in text:
        with pytest.raises(ValidationError) as exc:
            FWParams(upper)
        assert str(exc.value) == text


def test_kernel_zero_on_the_line_moves_only_that_line(monkeypatch):
    # 1/Gamma(-0.25 + s/2) vanishes at the level-0 abscissa 0.5
    hp = HWeightParams([(-0.25, 0.5)], [(0.0, 1.0), (0.0, 1.0)])
    # the height search sees M(0.5) = 0 in its first log-gamma call, and stops
    on_zero = []
    log_mellin = hfunction._log_mellin_vec
    monkeypatch.setattr(hfunction, "_log_mellin_vec",
                        lambda hp, s: on_zero.append(s[0].real == 0.5) or log_mellin(hp, s))
    _level.cache_clear()
    assert _level(hp, DEFAULT_CONTOUR, 0, 128)[0] == 0.75
    assert on_zero.count(True) == 1
    assert _level(hp, DEFAULT_CONTOUR, 1, 128)[0] == 4.5
    assert _level(hp, ContourConfig(c_offset=1.5), 0, 128)[0] == 1.5
    far = eval_h(hp, 0.3, ContourConfig(c_offset=1.5))
    assert repr(far) == "0.0783073451765581"
    assert eval_h(hp, 0.3) == pytest.approx(far, rel=1e-12, abs=0.0)


def test_kernel_zero_on_both_lines_still_fails():
    # 1/Gamma(-0.125 + s/4) vanishes at 0.5 and 1/Gamma(-0.1875 + s/4) at
    # 0.75, the moved line; a second move is not tried
    hp = HWeightParams([(-0.125, 0.25), (-0.1875, 0.25)], [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ContourFailure, match=r"^M\(s\) vanishes on both abscissae, Re s = 0\.5 and 0\.75$"):
        eval_h(hp, 0.3)


def test_contour_config_validation():
    with pytest.raises(ValidationError):
        ContourConfig(c_offset=0.0)
    # the offset is the one setting; a whole number is taken as its float
    cc = ContourConfig(c_offset=1)
    assert type(cc.c_offset) is float and cc == ContourConfig(1.0) and hash(cc) == hash(ContourConfig(1.0))
    with pytest.raises(TypeError):
        ContourConfig(n_nodes=64)


@pytest.mark.parametrize(
    "field, value, text",
    [
        ("c_offset", math.nan, "c_offset must be finite, got nan"),
        ("c_offset", math.inf, "c_offset must be finite, got inf"),
        ("c_offset", -math.inf, "c_offset must be finite, got -inf"),
        ("c_offset", 1j, "c_offset must be a real number, got 1j"),
        ("c_offset", None, "c_offset must be a real number, got None"),
        ("c_offset", 0.0, "c_offset must be > 0 to clear the pole at the abscissa"),
        ("c_offset", -0.5, "c_offset must be > 0 to clear the pole at the abscissa"),
        # float() parsed it, and the contour ran at 1.5
        ("c_offset", "1.5", "c_offset must be a real number, got '1.5'"),
    ],
)
def test_contour_config_refuses_malformed_fields(field, value, text):
    """Each malformed field is refused at construction with ValidationError,
    before eval_h could raise a bare ValueError or numpy warning from it;
    the suite turns any RuntimeWarning into an error."""
    with pytest.raises(ValidationError) as exc:
        ContourConfig(**{field: value})
    assert str(exc.value) == text
