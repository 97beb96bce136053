"""Bit identity of the measure-layer kernels against their plain forms.

`coherent._log_rho_vec` and `hfunction._log_mellin_vec` make one
log_gamma_vec call over every gamma argument, log_gamma_vec skips its
masked route when every entry lies right of Re = 1/2, and `eval_h`
reads each trapezoid level from one memo of finished levels, each built
from the level below and its new odd nodes, and reads level n off the
pass over level 2n.  The references, in _frozen.py, are the plain
forms: one log_gamma_vec_masked call per gamma factor, the masked route
throughout, one array per level built by doubling, and np.trapezoid at
every step (eval_h_per_level, also the reference for the loop alone on
warm lines and under lowered node caps).  Every output must match them
bit for bit.

Contour levels, H values, H on moment_check's Gauss-Kronrod
subintervals, finished moment checks and the nu node sets (log rho at
Gauss-Kronrod nodes, on tanh-sinh levels and on _e_max's grids) are
memoized; each output must also match the same call with the memos
bypassed (their `__wrapped__` functions), cold and warm.
"""

import dataclasses
import json
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from _frozen import (
    ContourPerLevel,
    contour_abscissa,
    eval_h_per_level,
    log_gamma_vec_masked,
    log_mellin_vec_per_factor,
    ref_log_rho_vec,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwstates import coherent, continuum, hfunction, quadpack
from fwstates.bicomplex import Bicomplex, Hyperbolic
from fwstates.cli import main
from fwstates.coherent import BCCoherentModel, CoherentModel
from fwstates.errors import ContourFailure, QuadratureFailure, ValidationError
from fwstates.foxwright import FWParams, boundary_exponent, margin_sign, radius
from fwstates.foxwright_bc import _DOMAIN_BY_SIGNS, BCFWParams, classify
from fwstates.gammafn import log_gamma_vec
from fwstates.hfunction import ContourConfig, HWeightParams

_EPS = float(np.finfo(float).eps)
# the measure memos: contour levels, the calls per (block, contour) pair,
# H(x), finished moment checks, and the nu node sets (log rho at nodes and
# on grids)
_MEMOS = (
    (hfunction, "_level"),
    (hfunction, "_pair_calls"),
    (hfunction, "_h_value"),
    (hfunction, "_moment"),
    (continuum, "_node_sets"),
)


def _bits(v):
    """Bits of a float, complex, tuple of them, or array, for exact comparison."""
    if isinstance(v, np.ndarray):
        return v.shape, v.dtype.str, v.tobytes()
    return repr(v)


_PAIR = st.tuples(st.floats(0.3, 3.0), st.floats(0.5, 1.5))


@st.composite
def _models(draw):
    """Real positive parameters with margin >= 0.4, as the benchmark draws them."""
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.4)
    return CoherentModel(FWParams(upper=upper, lower=lower))


_KS = st.sampled_from(
    [
        np.array(2.75),
        np.array([3.5]),
        np.array([0.0]),
        np.linspace(0.0, 41.0, 257),
        np.arange(33),
        np.linspace(0.0, 9.0, 12).reshape(3, 4),
    ]
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_models(), _KS)
def test_log_rho_vec_bits(model, ks):
    assert _bits(coherent._log_rho_vec(model.params, ks)) == _bits(
        ref_log_rho_vec(model.params, ks)
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models(), st.floats(0.05, 25.0), st.integers(1, 200))
def test_log_mellin_vec_bits(model, c, n):
    hp = HWeightParams.from_model(model)
    s = c + 1j * np.linspace(0.0, 60.0, n)
    assert _bits(hfunction._log_mellin_vec(hp, s)) == _bits(log_mellin_vec_per_factor(hp, s))
    z = complex(c, -2.5)
    assert _bits(hp.log_mellin(z)) == _bits(
        complex(log_mellin_vec_per_factor(hp, np.array([z], dtype=complex))[0])
    )


# blocks whose sides share a pair: the unit and Mittag-Leffler blocks carry
# Gamma(s) as upper (0, 1) and lower (0, 1); the third repeats a lower pair;
# the last has -0.0 offsets, which compare equal to 0.0 and share its row
_SHARED_ROW_BLOCKS = [
    (HWeightParams([(0.0, 1.0)], [(0.0, 1.0), (1.0, 1.0)]), (0, 1), (0,)),
    (HWeightParams([(0.0, 1.0)], [(0.0, 1.0), (1.0, 0.5)]), (0, 1), (0,)),
    (HWeightParams([(0.5, 0.5)], [(0.0, 1.0), (0.0, 1.0)]), (0, 0), (1,)),
    (HWeightParams([(-0.0, 1.0), (0.5, 1.0)], [(0.0, 1.0), (-0.0, 1.0), (1.0, 2.0)]),
     (0, 0, 1), (0, 2)),
]


@pytest.mark.parametrize("hp, lower_rows, upper_rows", _SHARED_ROW_BLOCKS)
def test_log_mellin_vec_shared_rows_bits(hp, lower_rows, upper_rows):
    """One log-gamma row per distinct pair, added once per lower use and
    subtracted once per upper use: the bits of one call per factor."""
    assert (hp._lower_rows, hp._upper_rows) == (lower_rows, upper_rows)
    assert hp._off.shape == (max(lower_rows + upper_rows) + 1, 1)
    lines = [c + 1j * np.linspace(0.0, 60.0, 129) for c in (0.5, 4.5, 120.5)]
    # off the contours too: Re s = +-0 and Re s < 0, where a zero offset's
    # sign could reach the result
    lines.append(np.array([0.25j, -0.25j, complex(-0.0, 1.0), complex(-0.0, -0.5),
                           -0.5 + 3j, -2.5 - 0.75j, 1e-300 + 1j]))
    for s in lines:
        assert _bits(hfunction._log_mellin_vec(hp, s)) == _bits(log_mellin_vec_per_factor(hp, s))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.floats(0.5, 40.0), st.floats(-30.0, 30.0)), min_size=1, max_size=20
    ),
    st.lists(st.tuples(st.floats(-20.0, 0.49), st.floats(-30.0, 30.0)), min_size=1, max_size=5),
)
def test_log_gamma_vec_all_right_matches_mixed(right, left):
    """The all-right exit gives each entry the bits it gets inside a mixed array."""
    zr = np.array([complex(*p) for p in right])
    zl = np.array([complex(*p) for p in left])
    mixed = log_gamma_vec(np.concatenate([zl[:1], zr, zl[1:]]))
    assert _bits(log_gamma_vec(zr)) == _bits(mixed[1 : 1 + len(zr)])
    assert _bits(log_gamma_vec(zr)) == _bits(log_gamma_vec_masked(zr))
    assert _bits(log_gamma_vec(zr.reshape(1, -1))) == _bits(log_gamma_vec_masked(zr).reshape(1, -1))


# x spans several abscissa levels; each list is evaluated in order, so the
# first call on a contour is cold and the later ones warm
_XS = st.lists(st.floats(0.02, 80.0), min_size=1, max_size=8)
_CONTOURS = st.sampled_from([hfunction.DEFAULT_CONTOUR, ContourConfig(c_offset=1.5)])
# the contours, and a first level of 16 intervals, where lines double early
_FIRST_LEVELS = pytest.mark.parametrize(
    "cc, first_n",
    [(hfunction.DEFAULT_CONTOUR, 128), (ContourConfig(c_offset=1.5), 128), (hfunction.DEFAULT_CONTOUR, 16)],
    ids=["default", "offset-1.5", "n-8"],
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models(), _XS, _CONTOURS)
def test_eval_h_bits(model, xs, cc):
    hp = HWeightParams.from_model(model)
    for x in xs:
        assert _bits(hfunction.eval_h(hp, x, cc)) == _bits(eval_h_per_level(hp, x, cc)), x


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_models(), _CONTOURS)
def test_level_even_nodes_are_the_level_below(model, cc):
    """Each level above the first holds only its new, odd nodes: the level
    below's values, interleaved with them, are the per-level arrays'
    values bit for bit, the new heights' real parts are linspace's odd
    nodes (all of them on the first level) and their imaginary parts +0,
    and each level's |values| are np.abs of the interleaved values."""
    hp = HWeightParams.from_model(model)
    level = hfunction._abscissa_level(hp, cc, 0.9)
    ref = ContourPerLevel(hp, contour_abscissa(hp, cc, 0.9))
    vals = None
    for n in (128, 256, 512, 1024):
        lv = hfunction._level(hp, cc, level, n)
        assert _bits((lv.c, lv.log_m0, lv.T)) == _bits((ref.c, ref.log_m0, ref.T))
        heights = np.linspace(0.0, ref.T, n + 1)
        if vals is None:
            vals = lv.vals
        else:
            vals, below = np.empty(n + 1, dtype=complex), vals
            vals[0::2], vals[1::2] = below, lv.vals
            heights = heights[1::2]
        assert _bits(vals) == _bits(ref.values(n))
        assert _bits(lv.t.real) == _bits(heights) and _bits(lv.t.imag) == _bits(np.zeros(heights.size))
        assert _bits(lv.mags) == _bits(np.abs(vals))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.floats(1e-3, 1e6),
        st.integers(0, 119).map(lambda j: 8.0 * 1.5**j),  # the truncation heights
    ),
    st.integers(4, 20).map(lambda k: 1 << k),
)
@example(T=8.0 * 1.5**119, n=hfunction.MAX_NODES)
def test_grid_is_linspace(T, n):
    """The node grid of a line and of each doubling has linspace's bits."""
    assert _bits(hfunction._grid(T, n)) == _bits(np.linspace(0.0, T, n + 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_models(), _CONTOURS)
def test_floor_is_trapezoid_of_abs(model, cc):
    """Each level's roundoff floor, formed inline when the level is built,
    is 16 eps times np.trapezoid of |values| over all its nodes (the
    per-level arrays', which the level's values have bit for bit) at the
    level's step T/n."""
    hp = HWeightParams.from_model(model)
    level = hfunction._abscissa_level(hp, cc, 0.9)
    ref = ContourPerLevel(hp, contour_abscissa(hp, cc, 0.9))
    for n in (128, 256, 512, 1024):
        lv = hfunction._level(hp, cc, level, n)
        assert lv.floor == 16.0 * _EPS * float(np.trapezoid(np.abs(ref.values(n)), dx=lv.T / n))


def _clear_contour_memos():
    for memo in (hfunction._level, hfunction._pair_calls, hfunction._h_value):
        memo.cache_clear()


def _first_level(monkeypatch, n):
    """Lines from a first level of n intervals (hfunction._FIRST_N), with
    the contour memos emptied first and the levels kept, until the test
    ends, in a level memo of its own: a first level holds all its nodes
    and a later one only its odd ones, so no level built on another first
    level may outlive the test."""
    _clear_contour_memos()
    monkeypatch.setattr(hfunction, "_FIRST_N", n)
    monkeypatch.setattr(hfunction, "_level", lru_cache(hfunction._LEVEL_CACHE)(hfunction._level.__wrapped__))


def _eval_h_with_floor(hp, x, cc, floor):
    """eval_h with every level's floor read as floor.  A (block, contour)
    pair's first call builds its levels without reading `_level`, so an
    unpatched call comes first; eval_h keeps no H value, so the patched
    call runs the loop on the levels it reads."""
    hfunction.eval_h(hp, x, cc)
    level_of = hfunction._level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hfunction, "_level", lambda *key: level_of(*key)._replace(floor=floor))
        return hfunction.eval_h(hp, x, cc)


def test_eval_h_stops_on_the_cached_floor(monkeypatch):
    """The stop compares with the floor each level carries: from a first
    level of 16 intervals, with every level's floor read as 1e-6, eval_h
    stops at n = 64 (|bracket| is 1.4e-3, so the floor stays below the 1%
    refusal), as the plain loop does with that floor, before the 128 nodes
    it needs alone."""
    _first_level(monkeypatch, 16)
    hp = HWeightParams.from_model(_WRIGHT)
    cc = hfunction.DEFAULT_CONTOUR
    x = 0.7
    converged = hfunction.eval_h(hp, x, cc)
    early = _eval_h_with_floor(hp, x, cc, 1e-6)
    assert _bits(early) == _bits(eval_h_per_level(hp, x, cc, floor=1e-6))
    assert early != converged
    assert _bits(hfunction.eval_h(hp, x, cc)) == _bits(converged)


def test_eval_h_refuses_a_floor_past_one_percent_of_the_sum():
    """With every level's floor read as inf, the first test stops the
    loop with no correct digit left, so eval_h refuses, naming x."""
    hp = HWeightParams.from_model(_WRIGHT)
    with pytest.raises(ContourFailure, match=r"^no correct digit in H\(0\.7\): .* floor inf passes 0\.01"):
        _eval_h_with_floor(hp, 0.7, hfunction.DEFAULT_CONTOUR, math.inf)


@_FIRST_LEVELS
def test_a_pairs_first_call_keeps_no_level(monkeypatch, cc, first_n):
    """A (block, contour) pair's first eval_h call builds its line and
    leaves the level memo as it was; its second call, on the same line,
    reads the levels through the memo, which keeps them.  Both calls have
    the plain loop's bits."""
    hp = HWeightParams.from_model(_WRIGHT)
    _first_level(monkeypatch, first_n)
    assert hfunction._abscissa_level(hp, cc, 0.7) == hfunction._abscissa_level(hp, cc, 0.9)
    before = hfunction._level.cache_info()
    assert _bits(hfunction.eval_h(hp, 0.7, cc)) == _bits(eval_h_per_level(hp, 0.7, cc))
    assert hfunction._level.cache_info() == before
    assert _bits(hfunction.eval_h(hp, 0.9, cc)) == _bits(eval_h_per_level(hp, 0.9, cc))
    info = hfunction._level.cache_info()
    assert info.misses == info.currsize >= 1 and hfunction._pair_calls.cache_info().currsize == 1


def test_warm_eval_h_builds_no_level(monkeypatch):
    """eval_h keeps no H value, so with its lines' levels kept, a second
    pass reads every level from the level memo: it builds none, makes no
    _log_mellin_vec call and returns the cold call's bits.  The pair's
    first call, at an x of its own, keeps no level, so the levels are
    those the later calls read.  Lines start at 16 intervals, so each
    doubles."""
    hp = HWeightParams.from_model(_WRIGHT)
    cc = hfunction.DEFAULT_CONTOUR
    xs = [0.3, 0.9, 2.0, 3.0, 0.7]
    _first_level(monkeypatch, 16)
    hfunction.eval_h(hp, 5.0, cc)
    assert hfunction._level.cache_info().currsize == 0
    cold = [hfunction.eval_h(hp, x, cc) for x in xs]
    built = hfunction._level.cache_info()
    assert built.misses == built.currsize >= 2 * len({hfunction._abscissa_level(hp, cc, x) for x in xs})
    sizes = []
    log_mellin = hfunction._log_mellin_vec
    monkeypatch.setattr(hfunction, "_log_mellin_vec", lambda hp, s: sizes.append(s.size) or log_mellin(hp, s))
    assert _bits([hfunction.eval_h(hp, x, cc) for x in xs]) == _bits(cold)
    info = hfunction._level.cache_info()
    assert sizes == [] and (info.misses, info.currsize) == (built.misses, built.currsize)
    assert info.hits > built.hits


def test_level_arrays_are_read_only(monkeypatch):
    """Every array of each cached level, its new node values and heights
    and its |values|, is read-only, so no reader can change a stored level."""
    hp = HWeightParams.from_model(_WRIGHT)
    cc = hfunction.DEFAULT_CONTOUR
    xs = [0.3, 0.9, 2.0, 3.0]
    _first_level(monkeypatch, 16)
    # the pair's first call keeps no level; the later ones keep theirs
    for x in [5.0] + xs:
        hfunction.eval_h(hp, x, cc)
    misses = hfunction._level.cache_info().misses
    for level in {hfunction._abscissa_level(hp, cc, x) for x in xs}:
        for n in (16, 32):
            lv = hfunction._level(hp, cc, level, n)
            for array in (lv.vals, lv.t, lv.mags):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[1] = 0.0
    assert hfunction._level.cache_info().misses == misses


def test_kept_line_is_contiguous_within_its_byte_bound(monkeypatch):
    """A kept line's arrays are C-contiguous: the first level holds its
    n+1 new nodes, each later level its n/2 odd ones.  A line kept from
    128 to 1024 nodes holds no more bytes than full complex values and
    float heights on each level would, plus 16 bytes for each of the first
    level's 129 complex heights, which every line cut at the same T
    shares."""
    _first_level(monkeypatch, 128)
    hp = HWeightParams.from_model(_WRIGHT)
    cc = hfunction.DEFAULT_CONTOUR
    level = hfunction._abscissa_level(hp, cc, 0.9)
    ns = (128, 256, 512, 1024)
    line = [hfunction._level(hp, cc, level, n) for n in ns]
    for n, lv in zip(ns, line):
        new = n + 1 if n == 128 else n // 2
        assert (lv.vals.size, lv.t.size, lv.mags.size) == (new, new, n + 1)
        assert all(array.flags.c_contiguous for array in (lv.vals, lv.t, lv.mags))
    kept = sum(array.nbytes for lv in line for array in (lv.vals, lv.t, lv.mags))
    assert kept <= sum(24 * (n + 1) for n in ns) + 16 * 129
    # the unit model's level-0 line is cut at Wright's T = 40.5 too
    other = hfunction._level(HWeightParams.from_model(_UNIT), cc, 0, 128)
    assert other.T == line[0].T and other.t is line[0].t


def test_contour_past_max_nodes_is_refused_before_any_level(monkeypatch):
    """Where the first level passes MAX_NODES, here lowered to 64, no level
    can be summed: eval_h raises the loop's error without building one (a
    first level past a cap of 2^20 nodes took 0.36 s, peaked at 110 MB and
    stayed in the memo)."""
    monkeypatch.setattr(hfunction, "MAX_NODES", 64)
    hp = HWeightParams.from_model(_UNIT)
    size = hfunction._level.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(ContourFailure) as exc:
            hfunction.eval_h(hp, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "node doubling stalled below tolerance at n=64 for x=1"
    assert peak < 1 << 20
    assert hfunction._level.cache_info().currsize == size


def _uncached(monkeypatch):
    """The memos bypassed: each call runs the function they wrap."""
    for module, name in _MEMOS:
        monkeypatch.setattr(module, name, getattr(module, name).__wrapped__)


def _patched(monkeypatch):
    _uncached(monkeypatch)
    monkeypatch.setattr(continuum, "_log_rho_vec", ref_log_rho_vec)
    monkeypatch.setattr(hfunction, "eval_h", eval_h_per_level)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_models(), st.floats(0.05, 30.0))
def test_nu_bits(model, zeta):
    outs = []
    for patch in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if patch:
                _patched(mp)
            row = []
            for scheme in continuum.SCHEMES:
                try:
                    row.append(continuum.nu_with_error(model, zeta, scheme=scheme))
                except (OverflowError, QuadratureFailure) as exc:
                    row.append(str(exc))
            outs.append(_bits(row))
    assert outs[0] == outs[1]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_models(), st.sampled_from([0, 3, 6]), st.floats(0.2, 1.5), st.floats(0.1, 1.5))
def test_measure_outputs_bits(model, k, r, x):
    """moment_check, overlap_tilde, state_density and weight."""
    z, zp = r * complex(0.6, 0.8), complex(x, -0.5)

    def run():
        row = []
        for f in (
            lambda: hfunction.moment_check(model, k),
            lambda: continuum.overlap_tilde(model, z, zp, scheme="gk"),
            lambda: continuum.overlap_tilde(model, z, zp, scheme="ts"),
            lambda: continuum.state_density(model, z, 0.5 + k),
            lambda: hfunction.weight(model, x),
        ):
            try:
                row.append(f())
            except (ArithmeticError, QuadratureFailure, ContourFailure) as exc:
                row.append(type(exc).__name__ + str(exc))
        return _bits(row)

    ours = run()
    with pytest.MonkeyPatch.context() as mp:
        _patched(mp)
        assert ours == run()


_UNIT = CoherentModel(FWParams([(1.0, 1.0)], [(2.0, 1.0)]))
_WRIGHT = CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)]))
_ZETAS = (0.37, 2.5, 7.9)
_PAIRS = ((1.1 + 0.3j, 0.7 - 0.2j), (0.4j, 1.5 + 0.1j))


def _each(calls):
    """Every call's value, or its exception's type and text."""
    row = []
    for call in calls:
        try:
            row.append(call())
        except (ArithmeticError, QuadratureFailure, ContourFailure) as exc:
            row.append(type(exc).__name__ + str(exc))
    return row


_MEMO_OUTPUTS = {
    "moment_check": lambda m: [hfunction.moment_check(m, k) for k in range(7)],
    "nu_with_error": lambda m: _each(
        lambda z=z, s=s: continuum.nu_with_error(m, z, scheme=s)
        for z in _ZETAS
        for s in continuum.SCHEMES
    ),
    "overlap_tilde": lambda m: _each(
        lambda p=p, s=s: continuum.overlap_tilde(m, *p, scheme=s)
        for p in _PAIRS
        for s in continuum.SCHEMES
    ),
    "state_density": lambda m: [continuum.state_density(m, 0.8 - 0.6j, E) for E in (0.0, 2.5)],
    "weight": lambda m: [hfunction.weight(m, x) for x in (0.0, 0.3, 4.2, 17.0)],
    "eval_h": lambda m: [
        hfunction.eval_h(HWeightParams.from_model(m), x, cc)
        for x in (0.05, 0.9, 6.5, 29.0)
        for cc in (hfunction.DEFAULT_CONTOUR, ContourConfig(c_offset=1.5))
    ],
}


@pytest.mark.parametrize("model", [_UNIT, _WRIGHT], ids=["unit", "wright"])
@pytest.mark.parametrize("name", _MEMO_OUTPUTS)
def test_memo_bits_cold_and_warm(name, model):
    """Each output through the memos, cold after cache_clear() and then
    warm, has the bits of the same call with every memo bypassed."""
    run = _MEMO_OUTPUTS[name]
    with pytest.MonkeyPatch.context() as mp:
        _uncached(mp)
        want = _bits(run(model))
    for module, memo in _MEMOS:
        getattr(module, memo).cache_clear()
    assert _bits(run(model)) == want
    assert _bits(run(model)) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_models(), st.lists(st.floats(0.02, 80.0), min_size=1, max_size=6))
def test_eval_h_memo_bits(model, xs):
    """eval_h, and the H memo, cold and then warm, give the bits of the
    loop the memo wraps."""
    hp = HWeightParams.from_model(model)
    loop = hfunction._h_value.__wrapped__
    cc = hfunction.DEFAULT_CONTOUR
    for x in xs + xs:
        want = _bits(_each([lambda: loop(hp, x, cc)]))
        assert _bits(_each([lambda: hfunction.eval_h(hp, x)])) == want, x
        assert _bits(_each([lambda: hfunction._h_value(hp, x, cc)])) == want, x


# the measure workload's four models, with their largest x
_MEASURE_MODELS = (
    (CoherentModel(FWParams()), 30.0),
    (_UNIT, 30.0),
    (CoherentModel(FWParams([(1.0, 1.0)], [(1.5, 0.5)])), 20.0),
    (_WRIGHT, 30.0),
)


def _loop_bits(hp, x, cc):
    """Bits of the live loop and of the plain loop at x, value or error."""
    loop = hfunction._h_value.__wrapped__
    return (
        _bits(_each([lambda: loop(hp, x, cc)])),
        _bits(_each([lambda: eval_h_per_level(hp, x, cc)])),
    )


@_FIRST_LEVELS
def test_warm_h_loop_matches_the_two_pass_loop(monkeypatch, cc, first_n):
    """On lines warmed as a measure pass warms them (120 geometric x per
    model), the loop gives the plain loop's bits at 250 log-uniform x per
    model, mostly on warm lines."""
    _first_level(monkeypatch, first_n)
    rng = np.random.default_rng(20261019)
    for model, x_max in _MEASURE_MODELS:
        hp = HWeightParams.from_model(model)
        for x in np.geomspace(0.05, x_max, 120).tolist():
            hfunction.eval_h(hp, x, cc)
        for x in np.exp(rng.uniform(math.log(0.02), math.log(2.0 * x_max), 250)).tolist():
            ours, ref = _loop_bits(hp, x, cc)
            assert ours == ref, x


@pytest.mark.parametrize("max_nodes", [8, 16, 32, 64])
def test_h_loop_under_a_lowered_node_cap(monkeypatch, max_nodes):
    """With MAX_NODES at 8, 2n passes the cap: both loops raise at n=8,
    and the live one builds no level.  Under caps of 16 to 64, doubling
    stops at the cap.  Lines start at 16 intervals.  Values and failures
    match the plain loop's."""
    monkeypatch.setattr(hfunction, "MAX_NODES", max_nodes)
    monkeypatch.setattr(hfunction, "_FIRST_N", 16)
    cc = hfunction.DEFAULT_CONTOUR
    outcomes = set()
    # the level sizes built, kept or not
    ns = []
    build = hfunction._build_level
    monkeypatch.setattr(hfunction, "_build_level", lambda *key: ns.append(key[3]) or build(*key))
    # the memos hold levels and values built under the live cap, and must
    # not keep the lowered cap's
    _clear_contour_memos()
    try:
        for model, x_max in _MEASURE_MODELS:
            hp = HWeightParams.from_model(model)
            for x in np.geomspace(0.02, 2.0 * x_max, 40).tolist():
                ours, ref = _loop_bits(hp, x, cc)
                assert ours == ref, x
                outcomes.add("ContourFailure" in ours)
                if max_nodes == 8:
                    assert ours.endswith(f"at n=8 for x={x:g}']"), ours
        # no level under a cap of 8; else levels from 2n = 16 up to the cap
        assert set(ns) == {16 << i for i in range(max_nodes.bit_length() - 4)}
    finally:
        _clear_contour_memos()
    # two levels (8 and 16 nodes) never agree here; from 32 up some x converge
    assert True in outcomes and (False in outcomes) == (max_nodes >= 32)


def test_h_loop_underflow_under_raise():
    """On the vacuum kernel H(720) = e^-720 is subnormal and the line's
    log scale lies below -700.  Under np.errstate(under="raise") the loop
    raises nothing and returns the plain loop's bits."""
    hp = HWeightParams.from_model(_MEASURE_MODELS[0][0])
    cc, x = hfunction.DEFAULT_CONTOUR, 720.0
    hfunction.eval_h(hp, x, cc)  # builds the levels outside the raise
    c, log_m0 = hfunction._level(hp, cc, hfunction._abscissa_level(hp, cc, x), hfunction._FIRST_N)[:2]
    assert log_m0 - c * math.log(x) - math.log(math.pi) < -700.0
    with np.errstate(under="raise"):
        ours, ref = _loop_bits(hp, x, cc)
    assert ours == ref
    assert 0.0 < hfunction._h_value.__wrapped__(hp, x, cc) < np.finfo(float).tiny


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    _models(),
    st.floats(0.0, 60.0),
    st.one_of(st.floats(-3.0, 6.0), st.complex_numbers(max_magnitude=6.0)),
)
# E * Im(log_zeta) underflows, and the sign of that zero must survive
@example(CoherentModel(FWParams()), 4.2989726191302816e-159, -7.686563769251845e-204j)
def test_node_integrand_bits(model, E, log_zeta):
    """The integrand Gauss-Kronrod calls on the subinterval [E, 2E] ([0, 1]
    at E = 0) has, at each node, the bits of the array form on that node
    alone, and of the plain kernel there; the nodes are quadpack.nodes'."""
    continuum._node_sets.cache_clear()
    _, on_sub = continuum._integrands(model.params, log_zeta)
    a, b = E, 2.0 * E or 1.0
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        got = on_sub(a, b)
        assert _bits(got) == _bits(on_sub(a, b))  # a stored node set, then read back
        xs, log_rho = continuum._node_sets(continuum._gk_subinterval, model.params, a, b)
        assert _bits(xs) == _bits(quadpack.nodes(a, b))
        for x, value in zip(xs.tolist(), got.tolist()):
            one = np.array([x])
            assert _bits(value) == _bits(np.exp(one * log_zeta - coherent._log_rho_vec(model.params, one))[0].item())
            assert _bits(value) == _bits(np.exp(one * log_zeta - ref_log_rho_vec(model.params, one))[0].item())


def test_rho_grid_entries_are_read_only_copies():
    sets, params = continuum._node_sets, _WRIGHT.params
    grid, log_rho_grid = sets(continuum._rho_grid, params, 12.0)
    assert not grid.flags.writeable and not log_rho_grid.flags.writeable
    assert log_rho_grid.flags.owndata and log_rho_grid.shape == (257,)
    w, xs, log_rho = sets(continuum._ts_level, params, 12.0, 3)
    assert not (w.flags.writeable or xs.flags.writeable or log_rho.flags.writeable)
    assert log_rho.flags.owndata and log_rho.shape == xs.shape == (2 * w.size,)
    xs, log_rho = sets(continuum._gk_subinterval, params, 0.0, 12.0)
    assert not (xs.flags.writeable or log_rho.flags.writeable) and log_rho.shape == xs.shape == (21,)


def test_measure_check_memo_counts(tmp_path, capsys):
    """One `measure check --k 0..6` on the unit-weight model evaluates H at
    193 distinct x: the 189 nodes of 9 distinct Gauss-Kronrod subintervals
    and 4 of the 63 points the truncation scans take.  The H memo answers
    the other 941 reads: 59 of the scans' and the 882 nodes of 42 revisits
    of those subintervals.  Run again, it takes all 7 results from the
    moment memo."""
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(_UNIT.params.to_json()), encoding="utf-8")
    hfunction._h_value.cache_clear()
    hfunction._moment.cache_clear()
    assert main(["measure", "check", "--model", str(path), "--k", "0..6"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 7 and all(row.endswith(",pass") for row in rows)
    info = hfunction._h_value.cache_info()
    assert (info.misses, info.hits, info.currsize) == (193, 941, 193)
    # the same check again reads each order's finished result and no H value
    h_info = hfunction._h_value.cache_info()
    assert main(["measure", "check", "--model", str(path), "--k", "0..6"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == rows
    assert hfunction._h_value.cache_info() == h_info
    info = hfunction._moment.cache_info()
    assert (info.misses, info.hits, info.currsize) == (7, 7, 7)


def test_only_the_moment_quadrature_fills_the_h_memo():
    """eval_h, weight and measure_density_b run the contour loop and leave
    the H memo as it was, over a few hundred x; moment_check, whose
    quadrature revisits its nodes, reads H through it and fills it."""
    hfunction._h_value.cache_clear()
    hfunction._moment.cache_clear()
    hp = HWeightParams.from_model(_WRIGHT)
    bc = BCCoherentModel(BCFWParams.from_components(_UNIT.params, _WRIGHT.params))
    xs = np.geomspace(0.05, 30.0, 300).tolist()
    before = hfunction._h_value.cache_info()
    for x in xs:
        hfunction.eval_h(hp, x)
        hfunction.weight(_WRIGHT, x)
        hfunction.measure_density_b(bc, Hyperbolic(x, 0.5 * x))
    assert hfunction._h_value.cache_info() == before
    hfunction.moment_check(_WRIGHT, 2)
    info = hfunction._h_value.cache_info()
    assert info.currsize > 0 and info.hits > 0


def _count_quadratures(monkeypatch) -> list:
    """Patch moment_check's quadrature (`_integrate`) to log each call; return the log."""
    calls = []
    integrate = hfunction._integrate

    def counted(*args):
        calls.append(args[2:4])
        return integrate(*args)

    monkeypatch.setattr(hfunction, "_integrate", counted)
    return calls


def test_repeated_moment_check_runs_no_quadrature(monkeypatch):
    """A repeated (parameter set, k) returns the first call's result object
    without integrating; another k integrates once."""
    calls = _count_quadratures(monkeypatch)
    hfunction._moment.cache_clear()
    first = hfunction.moment_check(_WRIGHT, 3)
    assert len(calls) == 1
    for k in (3, 3.0, np.int64(3)):
        assert hfunction.moment_check(_WRIGHT, k) is first
    assert len(calls) == 1
    hfunction.moment_check(_WRIGHT, 4)
    assert len(calls) == 2


def test_moment_memo_is_shared_across_truncations(monkeypatch):
    """K enters nothing: models that differ only in K share one entry."""
    calls = _count_quadratures(monkeypatch)
    hfunction._moment.cache_clear()
    small, large = (CoherentModel(_WRIGHT.params, K) for K in (8, 32))
    assert small != large
    res = hfunction.moment_check(small, 5)
    assert hfunction.moment_check(large, 5) is res
    info = hfunction._moment.cache_info()
    assert (info.misses, info.hits, info.currsize, len(calls)) == (1, 1, 1, 1)


def test_moment_errors_are_not_memoized(monkeypatch):
    """An order past 8 is refused on every call before the memo, and a
    failed quadrature runs again on the next call."""
    hfunction._moment.cache_clear()
    for _ in range(2):
        with pytest.raises(ValidationError, match="^moment order k must lie in 0..8$"):
            hfunction.moment_check(_WRIGHT, 9)
    assert hfunction._moment.cache_info().currsize == 0
    scans = []

    def failing_scan(density, k):
        scans.append(k)
        raise QuadratureFailure("moment integrand does not decay below 1e-16 of its peak")

    monkeypatch.setattr(hfunction, "_density_scan", failing_scan)
    for _ in range(2):
        with pytest.raises(QuadratureFailure, match="^moment integrand does not decay"):
            hfunction.moment_check(_WRIGHT, 2)
    assert scans == [2, 2] and hfunction._moment.cache_info().currsize == 0


@pytest.mark.parametrize("model", [_UNIT, _WRIGHT], ids=["unit", "wright"])
def test_moment_check_after_cache_clear_keeps_its_bits(model):
    """A check after _moment.cache_clear() integrates again, on warm H
    values and then on cold ones, and gives the memoized result's bits."""
    want = [repr(hfunction.moment_check(model, k)) for k in range(9)]
    hfunction._moment.cache_clear()
    assert [repr(hfunction.moment_check(model, k)) for k in range(9)] == want
    for module, memo in _MEMOS:
        getattr(module, memo).cache_clear()
    assert [repr(hfunction.moment_check(model, k)) for k in range(9)] == want


def test_hweight_constants_stay_off_equality():
    a = HWeightParams(upper=[(0.5, 1.0)], lower=[(0.0, 1.0), (1.0, 1.0)])
    b = HWeightParams(upper=[(0.5, 1.0)], lower=[(0.0, 1.0), (1.0, 1.0)])
    assert a == b and hash(a) == hash(b)
    assert a._mu == 1.0 and a._right == 0.0
    assert repr(a) == (
        "HWeightParams(upper=((0.5, 1.0),), lower=((0.0, 1.0), (1.0, 1.0)))"
    )
    assert (a._lower_rows, a._upper_rows) == ((0, 1), (2,))
    # Gamma(s) on both sides: one row, and still only the fields in equality
    c = HWeightParams(upper=[(0.0, 1.0)], lower=[(0.0, 1.0), (1.0, 1.0)])
    assert c != a and (c._lower_rows, c._upper_rows) == ((0, 1), (0,))
    assert repr(c) == "HWeightParams(upper=((0.0, 1.0),), lower=((0.0, 1.0), (1.0, 1.0)))"
    assert [f.name for f in dataclasses.fields(c)] == ["upper", "lower"]
    # -0.0 and 0.0 offsets compare and hash equal, so they share memos and a row
    d = HWeightParams(upper=[(-0.0, 1.0)], lower=[(0.0, 1.0), (1.0, 1.0)])
    assert d == c and hash(d) == hash(c)
    assert (d._lower_rows, d._upper_rows) == ((0, 1), (0,))


_BALLS = [
    BCFWParams(
        upper=[(Bicomplex.from_scalar(1.5), Hyperbolic(2.0, 2.0))],
        lower=[(Bicomplex.from_scalar(1.0), Hyperbolic(1.0, 1.0))],
    ),
    BCFWParams.from_components(
        FWParams([(1.0, 1.5)], [(2.0, 0.5)]), FWParams([(0.5, 0.7)], [(1.2, 0.2)])
    ),
]
_TABLE = [
    BCFWParams(
        upper=[(Bicomplex.from_scalar(1.5), Hyperbolic(m1, m2))],
        lower=[(Bicomplex.from_scalar(1.0), Hyperbolic(1.0, 1.0))],
    )
    for m1 in (1.0, 2.0, 3.0)
    for m2 in (1.0, 2.0, 3.0)
]


@pytest.mark.parametrize("params", _TABLE + _BALLS)
def test_classify_matches_component_functions(params):
    """classify takes each margin sign once; its report is the one the
    public per-component functions give."""
    comps = params.decompose()
    rep = classify(params)
    lam = tuple(boundary_exponent(P) for P in comps)
    assert rep.domain is _DOMAIN_BY_SIGNS[tuple(margin_sign(P) for P in comps)]
    assert repr(rep.v_radius) == repr(tuple(radius(P) for P in comps))
    assert repr(rep.lambda_idem) == repr(lam)
