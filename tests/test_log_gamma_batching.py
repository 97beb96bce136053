"""Bit identity of the batched log-gamma work in the measure layer.

The measure layer makes few, large log-gamma calls: `_lanczos_series`
adds its block's rows one at a time and forms each row alone from
`_ROW_SUM_MIN` entries up, a new contour line tests
M(c) and eight heights per `_log_mellin_vec` call and builds its first
level at 2n nodes, each further level forms only its odd nodes, and
`_tanh_sinh` calls its integrand once per level.  The references, in _frozen.py, are the plain forms: the Lanczos sum with
one numpy call per coefficient and log_gamma_vec on the masked route
over it (bit-equal to the fused (8, ...) block and to the kernel with
its one crossover at 512, which they replaced here), a line with a
one-point call per height and one array per level, the plain trapezoid
loop, and one integrand call per side of the midpoint.  Every output,
every error text and the level where an error is raised must match them
bit for bit.
"""

import cmath
import math
from functools import lru_cache, partial

import numpy as np
import pytest
from _frozen import (
    ContourPerLevel,
    e_max,
    eval_h_per_level,
    integrands,
    line_abscissa,
    log_gamma_vec_masked,
    nu_integral,
    per_level_line,
    reference_lanczos_series,
    tanh_sinh_per_side,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwstates import cli, coherent, continuum, foxwright, gammafn, hfunction
from fwstates.bicomplex import compose_idempotent
from fwstates.coherent import BCCoherentModel, CoherentModel, make_state, make_state_b
from fwstates.continuum import QuadConfig
from fwstates.errors import ContourFailure, QuadratureFailure, TruncationError, ValidationError
from fwstates.foxwright import FWParams, evaluate
from fwstates.foxwright_bc import BCFWParams
from fwstates.foxwright_bc import evaluate as evaluate_bc
from fwstates.gammafn import _ROW_SUM_MIN, _lanczos_series, log_gamma_vec
from fwstates.hfunction import MAX_NODES, ContourConfig, HWeightParams


def _bits(v):
    """Bits of an array (shape, dtype and bytes), or the repr of anything else."""
    if isinstance(v, np.ndarray):
        return v.shape, v.dtype.str, v.tobytes()
    return repr(v)


def _outcome(fn, *args):
    """fn's value, or its exception's type and text."""
    try:
        return fn(*args)
    except (ArithmeticError, QuadratureFailure, ContourFailure, TruncationError) as exc:
        return type(exc).__name__ + ": " + str(exc)


# -- the frozen route ---------------------------------------------------------


def _clear_memos():
    for memo in (
        hfunction._level,
        hfunction._pair_calls,
        hfunction._h_value,
        hfunction._moment,
        per_level_line,
        continuum._node_sets,
        foxwright._column_cache,
    ):
        memo.cache_clear()


def _first_level(mp, n):
    """Lines from a first level of n intervals (hfunction._FIRST_N), with
    the memos emptied, so no level built under another first level is
    read, and the levels kept, until mp is undone, in a level memo of
    their own, so none built on this first level is read after it."""
    _clear_memos()
    mp.setattr(hfunction, "_FIRST_N", n)
    mp.setattr(hfunction, "_level", lru_cache(hfunction._LEVEL_CACHE)(hfunction._level.__wrapped__))


def _reference(mp):
    """Route the package through the frozen copies, with every memo empty."""
    _clear_memos()
    mp.setattr(gammafn, "_lanczos_series", reference_lanczos_series)
    mp.setattr(hfunction, "_h_value", eval_h_per_level)
    mp.setattr(hfunction, "_h_line", eval_h_per_level)
    mp.setattr(continuum, "_nu_integral", nu_integral)


# -- strategies --------------------------------------------------------------

_PAIR = st.tuples(st.floats(0.3, 3.0), st.floats(0.5, 1.5))


@st.composite
def _models(draw):
    """Real positive parameters with margin >= 0.4, as the benchmark draws them."""
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.4)
    return CoherentModel(FWParams(upper=upper, lower=lower))


# sizes on both sides of the threshold: the block's rows added one at a
# time below it, rows formed alone from it up
_SHAPES = [
    (),
    (1,),
    (7,),
    (_ROW_SUM_MIN - 1,),
    (_ROW_SUM_MIN,),
    (_ROW_SUM_MIN + 1,),
    (3, 40),
    (2, _ROW_SUM_MIN // 2),
    (5, _ROW_SUM_MIN),
    (2, 3, 30),
    (2, 3, _ROW_SUM_MIN // 4),
]


def _points(seed, shape):
    """Right-half-plane, reflection-side, near-pole and real-axis (both
    signs of a zero imaginary part) arguments, mixed in one array."""
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    kind = rng.integers(0, 4, n)
    re = np.select(
        [kind == 0, kind == 1, kind == 2],
        [
            rng.uniform(0.5, 400.0, n),
            rng.uniform(-40.0, 0.5, n),
            -rng.integers(0, 30, n) + rng.choice([0.0, 1e-14, -1e-14, 1e-8, -1e-8], n),
        ],
        rng.uniform(0.5, 50.0, n),
    )
    im = np.select(
        [kind == 0, kind == 1, kind == 2],
        [rng.normal(0.0, 30.0, n), rng.normal(0.0, 5.0, n), rng.choice([0.0, -0.0, 1e-13], n)],
        rng.choice([0.0, -0.0], n),
    )
    z = np.empty(n, dtype=complex)
    z.real, z.imag = re, im  # assigned apart, so that -0.0 survives
    return z.reshape(shape)


# -- the Lanczos sum and log_gamma_vec ---------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1))
def test_lanczos_series_matches_fused_block(shape, seed):
    z = _points(seed, shape)
    # reflection-side arguments meet the partial fractions' own poles
    with np.errstate(all="ignore"):
        got, want = _lanczos_series(z), reference_lanczos_series(z)
    assert got.shape == shape
    assert _bits(got) == _bits(want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1))
def test_log_gamma_vec_matches_fused_block(shape, seed):
    z = _points(seed, shape)
    with np.errstate(all="ignore"):
        got, want = log_gamma_vec(z), log_gamma_vec_masked(z)
        # each entry also has the bits it gets alone
        alone = [log_gamma_vec(zi)[0] for zi in z.ravel()[:9]]
    assert _bits(got) == _bits(want)
    assert [_bits(v) for v in alone] == [_bits(v) for v in got.ravel()[:9]]


def _shape(n, ndim):
    """A shape of n entries on ndim axes, the leading ones small factors of n (or 1)."""
    lead = []
    for _ in range(ndim - 1):
        d = next((d for d in (2, 3, 5) if n % d == 0), 1)
        lead.append(d)
        n //= d
    return (*lead, n)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_log_gamma_vec_matches_cumsum_kernel_at_every_length(ndim):
    """Every length from 1 to 1,100 crosses _lanczos_series's threshold
    twice over; each array mixes both half planes, exact poles and both
    signs of a zero imaginary part."""
    assert 2 * _ROW_SUM_MIN < 1100
    for n in range(1, 1101):
        shape = _shape(n, ndim)
        assert len(shape) == ndim
        z = _points(n, shape)
        with np.errstate(all="ignore"):
            got, want = log_gamma_vec(z), log_gamma_vec_masked(z)
            sums = _lanczos_series(z), reference_lanczos_series(z)
        assert _bits(got) == _bits(want), shape
        assert _bits(sums[0]) == _bits(sums[1]), shape


# -- the height search -------------------------------------------------------

# (upper, lower): the model blocks, slowly decaying kernels whose search
# passes 8 heights (to j = 11, 15 and 54), and an upper gamma with its
# pole at the level-0 abscissa 0.5, which makes M(c) zero there
_BLOCKS = [
    ([], [(0.0, 1.0)]),
    ([(0.0, 1.0)], [(0.0, 1.0), (1.0, 1.0)]),
    ([(0.5, 0.8)], [(0.0, 1.0), (1.0, 1.1)]),
    ([(0.5, 0.95)], [(0.0, 1.0)]),
    ([(0.5, 0.99)], [(0.0, 1.0)]),
    ([(0.5, 1.0 - 1e-9)], [(0.0, 1.0)]),
    ([(-0.25, 0.5)], [(0.0, 1.0)]),
]


def _one_point_search(hp, c):
    ref = ContourPerLevel(hp, c)
    return ref.log_m0, ref.T


def _lines(hp, cc, level):
    """The live search's (c, log M(c), T) or failure, and the one-point
    search's; they agree off the zeros of M, where only the live one stops."""
    c = line_abscissa(hp, cc, level)
    out = []
    for search in (hfunction._truncation, _one_point_search):
        try:
            out.append(repr((c, *search(hp, c))))
        except ContourFailure as exc:
            out.append("ContourFailure: " + str(exc))
    return out


@pytest.mark.parametrize("upper, lower", _BLOCKS)
@pytest.mark.parametrize("level", [0, 1, 3])
def test_height_search_matches_one_point_search(upper, lower, level):
    hp, cc = HWeightParams(upper, lower), ContourConfig()
    c = line_abscissa(hp, cc, level)
    if hp.log_mellin(c).real == -math.inf:
        # a zero of M: the live search stops with no height, the one-point search refuses
        assert hfunction._truncation(hp, c) == (-math.inf, None)
        with pytest.raises(ContourFailure, match="^could not truncate the contour; kernel decays too slowly$"):
            _one_point_search(hp, c)
        return
    ours, ref = _lines(hp, cc, level)
    assert ours == ref


def test_height_search_batches(monkeypatch):
    """The search reaches past the first batch of heights, and stops in its
    first batch, with no height, where M(c) = 0."""
    _, T = hfunction._truncation(HWeightParams([(0.5, 1.0 - 1e-9)], [(0.0, 1.0)]), 0.5)
    assert T > 8.0 * 1.5**50
    sizes = []
    log_mellin = hfunction._log_mellin_vec
    monkeypatch.setattr(hfunction, "_log_mellin_vec", lambda hp, s: sizes.append(s.size) or log_mellin(hp, s))
    assert hfunction._truncation(HWeightParams([(-0.25, 0.5)], [(0.0, 1.0)]), 0.5) == (-math.inf, None)
    assert sizes == [1 + hfunction._HEIGHT_BATCH]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models(), st.integers(0, 4), st.sampled_from([0.5, 1.5, 3.0]))
def test_height_search_bits(model, level, c_offset):
    ours, ref = _lines(HWeightParams.from_model(model), ContourConfig(c_offset=c_offset), level)
    assert ours == ref


# -- contour levels and eval_h -----------------------------------------------


def _want_level(ref, n):
    """The record of level n from the plain loop's per-level arrays: its
    new nodes (all of the first level's, the odd ones above it), their
    heights from np.linspace as complex, and |values| over all nodes."""
    new = slice(None) if n == hfunction._FIRST_N else slice(1, None, 2)
    vals = ref.values(n)
    heights = np.linspace(0.0, ref.T, n + 1)[new].astype(complex)
    return hfunction._Level(ref.c, ref.log_m0, ref.T, ref.floor(n), vals[new], heights, np.abs(vals))


def _compare_lines(hp, cc, xs):
    """eval_h at each x in turn: the pair's first call keeps no level, and
    each later one reads its line's levels from `_level`, which keeps them.
    Then every field of each level of each line against the record the
    plain loop's levels give (_want_level); the plain loop starts at level
    _FIRST_N/2 and reaches the same levels.  Reading them back builds only the levels no later call read."""
    _clear_memos()
    level_of = hfunction._level
    read = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hfunction, "_level", lambda *key: read.add(key[2:]) or level_of(*key))
        for x in xs:
            first = hfunction._pair_calls.cache_info().currsize == 0
            assert _bits(_outcome(hfunction.eval_h, hp, x, cc)) == _bits(
                _outcome(eval_h_per_level, hp, x, cc)
            ), x
            if first:
                assert not read and level_of.cache_info().currsize == 0
    misses = level_of.cache_info().misses
    keys = set()
    for level in {hfunction._abscissa_level(hp, cc, x) for x in xs}:
        ref = per_level_line(hp, line_abscissa(hp, cc, level))
        for n in sorted(ref._vals.keys() - {hfunction._FIRST_N // 2}):
            want = _want_level(ref, n)
            ours = level_of(hp, cc, level, n)
            assert ours._fields == want._fields
            assert [_bits(v) for v in ours] == [_bits(v) for v in want], n
            keys.add((level, n))
    assert level_of.cache_info().misses - misses == len(keys - read)


# n: half the first level's intervals, 64 being the live one
@pytest.mark.parametrize("n_nodes", [8, 64, 100])
@pytest.mark.parametrize("upper, lower", _BLOCKS[:4])
def test_contour_levels_match_first_grid_at_n(monkeypatch, upper, lower, n_nodes):
    _first_level(monkeypatch, 2 * n_nodes)
    _compare_lines(HWeightParams(upper, lower), ContourConfig(), [0.05, 0.9, 0.3, 6.5])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    _models(),
    st.lists(st.floats(0.02, 80.0), min_size=1, max_size=6),
    st.sampled_from([8, 64]),
    st.sampled_from([0.5, 1.5]),
)
def test_eval_h_and_levels_bits(model, xs, n_nodes, c_offset):
    with pytest.MonkeyPatch.context() as mp:
        _first_level(mp, 2 * n_nodes)
        _compare_lines(HWeightParams.from_model(model), ContourConfig(c_offset), xs)


def test_contour_at_max_nodes(monkeypatch):
    """A first level of 2 MAX_NODES intervals leaves no level to double to:
    eval_h raises the plain loop's error, at n = MAX_NODES, and builds no
    level."""
    hp = HWeightParams([], [(0.0, 1.0)])
    cc = ContourConfig()
    _first_level(monkeypatch, 2 * MAX_NODES)
    try:
        _compare_lines(hp, cc, [0.7])
        assert hfunction._level.cache_info().currsize == 0
        with pytest.raises(ContourFailure, match=f"at n={MAX_NODES} for x=0.7$"):
            hfunction.eval_h(hp, 0.7, cc)
    finally:
        _clear_memos()


@pytest.mark.parametrize("n_nodes", [8, 100, MAX_NODES // 2, MAX_NODES // 2 + 1])
def test_first_grid_is_level_2n_and_level_n_its_view(monkeypatch, n_nodes):
    """With a first level of 2n intervals, level n, which the loop sums on
    its stride-2 view, holds the nodes of a grid on n + 1 nodes.  Where 2n
    passes MAX_NODES, eval_h raises and builds no level."""
    hp = HWeightParams([], [(0.0, 1.0)])
    cc = ContourConfig()
    _first_level(monkeypatch, 2 * n_nodes)
    try:
        if 2 * n_nodes > MAX_NODES:
            with pytest.raises(ContourFailure, match=f"at n={n_nodes} for x=0.7$"):
                hfunction.eval_h(hp, 0.7, cc)
            assert hfunction._level.cache_info().currsize == 0
        else:
            lv = hfunction._level(hp, cc, 0, 2 * n_nodes)
            assert len(lv.t) == 2 * n_nodes + 1 and hfunction._level.cache_info().currsize == 1
            assert _bits(lv.vals[::2]) == _bits(ContourPerLevel(hp, lv.c).values(n_nodes))
            assert _bits(lv.t.real[::2]) == _bits(np.linspace(0.0, lv.T, n_nodes + 1))
    finally:
        _clear_memos()


# -- tanh-sinh ----------------------------------------------------------------


def _counted_ts(ts, f, *args):
    """(outcome, sizes of the integrand calls) of one tanh-sinh integral:
    ts(f, nodes, rel_tol, abs_tol) live, ts(f, a, b, rel_tol, abs_tol) frozen."""
    calls = []

    def counted(*x):
        # a tanh-sinh node set hands the integrand its nodes and log rho on them
        calls.append(x[0].size)
        return f(*x)

    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        return _bits(_outcome(ts, counted, *args)), calls


def _nu_integral(model, log_zeta):
    """The tanh-sinh nu integrand and its range: live, on the stored node
    sets' levels, and frozen, on node arrays over [0, e_hi].  The range is the
    frozen e_max's, which keeps going where continuum._e_max refuses a
    log-integrand past the float range, so the overflowing sums stay here."""
    hi = e_max(model, log_zeta.real)
    live = continuum._integrands(model.params, log_zeta)[0], partial(
        continuum._node_sets, continuum._ts_level, model.params, hi
    )
    return live, (integrands(model.params, log_zeta)[0], 0.0, hi)


def _step(x):
    return np.where(x > 0.3, 1.0, 0.0)


_VACUUM = CoherentModel(FWParams())
_UNIT = CoherentModel(FWParams([(1.0, 1.0)], [(2.0, 1.0)]))
_WRIGHT = CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)]))


@pytest.mark.parametrize(
    "integral, calls_made, error",
    [
        # nu on the vacuum model overflows at level 2, 1 and 0, and not at 700
        (_nu_integral(_VACUUM, math.log(720.0)), 4, "OverflowError"),
        (_nu_integral(_VACUUM, math.log(740.0)), 3, "OverflowError"),
        (_nu_integral(_VACUUM, math.log(800.0)), 2, "OverflowError"),
        (_nu_integral(_VACUUM, math.log(700.0)), 9, None),
        # a step converges too slowly to reach the tolerance by the last level
        (((_step, partial(continuum._ts_nodes, 0.0, 1.0)), (_step, 0.0, 1.0)), 14, "QuadratureFailure"),
    ],
    ids=["nu720", "nu740", "nu800", "nu700", "step"],
)
def test_tanh_sinh_errors_and_their_level(integral, calls_made, error):
    live, ref = integral
    got, calls = _counted_ts(continuum._tanh_sinh, *live, 1e-10, 1e-12)
    want, ref_calls = _counted_ts(tanh_sinh_per_side, *ref, 1e-10, 1e-12)
    assert got == want
    assert (error or "(np.float64(") in got
    # one call on the midpoint, then one per level where the copy made two
    assert len(calls) == calls_made and len(ref_calls) == 2 * calls_made - 1
    assert calls[1:] == [a + b for a, b in zip(ref_calls[1::2], ref_calls[2::2])]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    _models(),
    st.one_of(
        st.floats(-3.0, 7.0).map(complex),
        st.builds(complex, st.floats(-3.0, 4.0), st.floats(-3.0, 3.0)),
    ),
    st.sampled_from([(1e-10, 1e-12), (1e-6, 1e-9), (1e-14, 1e-300)]),
)
def test_tanh_sinh_bits(model, log_zeta, tols):
    log_zeta = log_zeta.real if log_zeta.imag == 0.0 else log_zeta
    try:
        live, ref = _nu_integral(model, log_zeta)
    except QuadratureFailure:
        return  # _e_max found no decaying tail; it runs no quadrature
    got, _ = _counted_ts(continuum._tanh_sinh, *live, *tols)
    assert got == _counted_ts(tanh_sinh_per_side, *ref, *tols)[0]


# -- the public measure-layer outputs ----------------------------------------


def _measure_outputs(model, k, zeta, z, zp, x):
    row = []
    for call in (
        lambda: hfunction.weight(model, x),
        lambda: hfunction.moment_check(model, k),
        lambda: continuum.nu_with_error(model, zeta, scheme="gk"),
        lambda: continuum.nu_with_error(model, zeta, scheme="ts"),
        lambda: continuum.overlap_tilde(model, z, zp, scheme="gk"),
        lambda: continuum.overlap_tilde(model, z, zp, scheme="ts"),
        lambda: continuum.state_density(model, z, 0.5 + k),
        lambda: hfunction.eval_h(HWeightParams.from_model(model), x),
    ):
        row.append(_outcome(call))
    return _bits(row)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    _models(),
    st.sampled_from([0, 3, 6]),
    st.floats(0.05, 30.0),
    st.floats(0.2, 1.5),
    st.floats(0.02, 30.0),
)
def test_measure_outputs_match_frozen_copies(model, k, zeta, r, x):
    """weight, moment_check, nu_with_error (both schemes), overlap_tilde,
    state_density and eval_h, cold and then warm."""
    z, zp = r * complex(0.6, 0.8), complex(0.9, -0.5)
    _clear_memos()
    ours = [_measure_outputs(model, k, zeta, z, zp, x) for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        _reference(mp)
        want = _measure_outputs(model, k, zeta, z, zp, x)
    _clear_memos()
    assert ours == [want, want]


_GAUSS_B = FWParams([(0.6, 1.0), (0.8, 1.0)], [(1.9, 1.0)])
_BOUNDARY = FWParams([(0.5, 1.0), (0.7, 1.0)], [(2.0, 1.0)])  # Delta = 0, Re lambda = 0.8
_SERIES_OUTPUTS = {
    # 10,000 terms: the column table grows in chunks that take the row sum;
    # phases below foxwright._LEVIN_MIN_PHASE keep the capped sum
    "boundary": lambda: evaluate(_BOUNDARY, cmath.exp(0.01j), allow_boundary=True),
    "bicomplex": lambda: evaluate_bc(
        BCFWParams.from_components(_BOUNDARY, _GAUSS_B),
        compose_idempotent(cmath.exp(0.01j), cmath.exp(-0.015j)),
        allow_boundary=True,
    ),
    # the Levin route reads 45 terms from the same table
    "boundary_levin": lambda: evaluate(_BOUNDARY, complex(0.6, 0.8), allow_boundary=True),
    "make_state": lambda: make_state(CoherentModel(FWParams([(1.1, 0.9)], [(2.0, 0.6)]), 8), 3.5j),
    "f_factor": lambda: coherent.f_factor(_WRIGHT, np.arange(700)),
    "log_gamma_ratio": lambda: gammafn.log_gamma_ratio(0.3 + 1j, 0.7, np.arange(300)),
}


@pytest.mark.parametrize("name", _SERIES_OUTPUTS)
def test_series_outputs_match_fused_block(name):
    """The series and coherent-state routines call the Lanczos sum on long
    arrays too; their outputs keep the bits of the reference sum."""
    _clear_memos()
    ours = _bits(_outcome(_SERIES_OUTPUTS[name]))
    with pytest.MonkeyPatch.context() as mp:
        _reference(mp)
        want = _bits(_outcome(_SERIES_OUTPUTS[name]))
    _clear_memos()
    assert ours == want


# -- how many calls ----------------------------------------------------------



@pytest.mark.parametrize(
    "model, x, sizes, one_point_calls",
    [
        # the calls a one-point search (M(c), then one per height tested),
        # a first grid at n = 64 and a call per doubling made
        (_UNIT, 0.05, [9, 129, 128], 9),
        (_UNIT, 0.9, [9, 129], 8),
        (_UNIT, 29.0, [9, 129], 10),
        (_WRIGHT, 0.05, [9, 129, 128, 256], 9),
        (_WRIGHT, 6.5, [9, 129], 8),
    ],
)
def test_cold_eval_h_log_mellin_calls(monkeypatch, model, x, sizes, one_point_calls):
    """A cold eval_h makes one _log_mellin_vec call for the height search,
    one for the first grid (level 2n = 128) and one per further doubling."""
    calls = []
    log_mellin = hfunction._log_mellin_vec

    def counted(hp, s):
        calls.append(s.size)
        return log_mellin(hp, s)

    monkeypatch.setattr(hfunction, "_log_mellin_vec", counted)
    _clear_memos()
    hfunction.eval_h(HWeightParams.from_model(model), x)
    assert calls == sizes
    assert len(calls) < one_point_calls


_ML = CoherentModel(FWParams([(1.0, 1.0)], [(1.5, 0.5)]))


@pytest.mark.parametrize("model, rows", [(_UNIT, 2), (_ML, 2), (_WRIGHT, 3)])
def test_line_takes_one_log_gamma_row_per_distinct_pair(monkeypatch, model, rows):
    """A line's log_gamma_vec calls hold one row per distinct (offset, weight)
    pair of its block: the unit and Mittag-Leffler blocks carry Gamma(s) as
    upper (0, 1) and lower (0, 1), which share a row."""
    shapes, sizes = [], []
    lgv, log_mellin = hfunction.log_gamma_vec, hfunction._log_mellin_vec

    def counted_lgv(z):
        shapes.append(z.shape)
        return lgv(z)

    def counted(hp, s):
        sizes.append(s.size)
        return log_mellin(hp, s)

    monkeypatch.setattr(hfunction, "log_gamma_vec", counted_lgv)
    monkeypatch.setattr(hfunction, "_log_mellin_vec", counted)
    _clear_memos()
    # x = 0.05 builds a line (heights, first grid) and doubles it at least once
    hfunction.eval_h(HWeightParams.from_model(model), 0.05)
    assert len(sizes) >= 3
    assert shapes == [(rows, n) for n in sizes]


def test_tanh_sinh_nu_log_rho_calls(monkeypatch):
    """One "ts" nu on a new range makes one _log_rho_vec call on the
    midpoint and one per level, on the level's nodes right and left of it
    together."""
    sizes = []
    log_rho_vec = continuum._log_rho_vec

    def counted(params, ks):
        sizes.append(np.size(ks))
        return log_rho_vec(params, ks)

    continuum._node_sets.cache_clear()
    # builds _e_max's log-rho grid sets, which the LRU keeps, but no level
    continuum.nu(_WRIGHT, 2.5, scheme="gk")
    monkeypatch.setattr(continuum, "_log_rho_vec", counted)
    continuum.nu(_WRIGHT, 2.5, scheme="ts")
    # level 0 has 4 nodes a side, level l >= 1 has 2^(l+1) new ones a side
    assert sizes == [1, 8] + [4 * 2**level for level in range(1, len(sizes) - 1)]
    assert len(sizes) == 7


def test_hweight_params_hash_is_the_field_hash():
    hp = HWeightParams([(0.5, 1.0)], [(0.0, 1.0), (1.0, 1.0)])
    assert hash(hp) == hash((hp.upper, hp.lower))
    assert hp == HWeightParams([(0.5, 1.0)], [(0.0, 1.0), (1.0, 1.0)])
    assert hp != HWeightParams([(0.5, 1.0)], [(0.0, 1.0), (1.0, 1.5)])


def test_fw_params_and_contour_config_hash_once():
    """Both store the field hash; equality and repr stay on the fields,
    so -0.0 and 0.0 parameters compare and hash equal (and share memos)."""
    p = FWParams([(complex(1.5, -0.0), 1.0)], [(complex(-0.0, 2.0), 0.5)])
    q = FWParams([(complex(1.5, 0.0), 1.0)], [(complex(0.0, 2.0), 0.5)])
    assert p == q and hash(p) == hash(q) == hash((p.upper, p.lower))
    assert p != FWParams([(1.5, 1.0)], [(2.0j, 0.75)])
    assert repr(q) == "FWParams(upper=(((1.5+0j), 1.0),), lower=((2j, 0.5),))"
    cc = ContourConfig(c_offset=1.5)
    assert cc == ContourConfig(1.5) and hash(cc) == hash((1.5,))
    assert cc != ContourConfig(2.5)
    assert repr(cc) == "ContourConfig(c_offset=1.5)"


# -- bad tolerances ------------------------------------------------------------

_NAN = float("nan")
_GAUSS = FWParams([(1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0)])


@pytest.mark.parametrize("tol", [_NAN, -1.0, 0.0])
def test_evaluate_refuses_bad_tol(tol):
    # a NaN tol summed all max_terms terms, then raised MaxTermsExceeded
    with pytest.raises(ValidationError, match="^tol must be > 0$"):
        evaluate(FWParams([(1.0, 1.0)], [(1.0, 1.0)]), 5.0, tol=tol)
    params = BCFWParams.from_components(_GAUSS, _GAUSS)
    with pytest.raises(ValidationError, match="^component 1: tol must be > 0$"):
        evaluate_bc(params, compose_idempotent(0.5, 0.5), tol=tol)


@pytest.mark.parametrize("tail", [_NAN, -1.0, -1e-300])
@pytest.mark.parametrize("z", [0.7 + 0.2j, 0j])
def test_make_state_refuses_bad_tail_target(tail, z):
    # K doubled to K_MAX before a TruncationError with "above target nan"
    with pytest.raises(ValidationError, match="^tail_target must be >= 0$"):
        make_state(_UNIT, z, tail_target=tail)
    bc = BCCoherentModel(BCFWParams.from_components(_UNIT.params, _UNIT.params))
    with pytest.raises(ValidationError, match="^component 1: tail_target must be >= 0$"):
        make_state_b(bc, compose_idempotent(z, z), tail_target=tail)


def test_make_state_keeps_a_zero_tail_target():
    st_ = make_state(CoherentModel(FWParams(), 4), 0j, tail_target=0.0)
    assert st_.tail_mass == 0.0


@pytest.mark.parametrize("rel_tol, abs_tol", [(_NAN, 1e-12), (1e-10, _NAN), (-1.0, 1e-12)])
def test_quad_config_refuses_bad_tolerances(rel_tol, abs_tol):
    with pytest.raises(ValidationError, match="^quadrature tolerances must be > 0$"):
        QuadConfig(rel_tol=rel_tol, abs_tol=abs_tol)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fw", "eval", "--z", "0.5", "--tol", "nan"], "tol must be > 0"),
        (["cs", "coeffs", "--z", "0.7,0.2", "--tail", "nan"], "tail_target must be >= 0"),
        (["cs", "coeffs", "--z", "0.7,0.2", "--tail", "-1"], "tail_target must be >= 0"),
        (["nu", "eval", "--zeta", "2.5", "--rel-tol", "nan"], "quadrature tolerances must be > 0"),
        (["nu", "eval", "--zeta", "2.5", "--abs-tol", "nan"], "quadrature tolerances must be > 0"),
    ],
)
def test_cli_bad_tolerance_is_bad_input(tmp_path, capsys, argv, message):
    path = tmp_path / "unit.json"
    path.write_text('{"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]]}\n')
    flag = "--model" if argv[0] == "nu" else "--params"
    assert cli.main(argv[:2] + [flag, str(path)] + argv[2:]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
