"""Bit identity of the batched log-gamma work in the measure layer.

The measure layer makes few, large log-gamma calls: `_lanczos_series`
sums row by row from `_ROW_SUM_MIN` entries up, a new contour line tests
M(c) and eight heights per `_log_mellin_vec` call and builds its first
grid at level 2n, the trapezoid loop forms only the odd nodes of each
new level, and `_tanh_sinh` calls its integrand once per level.  The
references below are frozen copies of the forms these replaced: the
fused (8, ...) Lanczos block, a one-point call per height, a first grid
at level n, the integrand formed afresh at every level, and one
integrand call per side of the midpoint.  Every output, every error
text and the level where an error is raised must match them bit for bit.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
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
from fwstates.gammafn import (
    _LANCZOS_COEFFS,
    _LANCZOS_G,
    _LANCZOS_SHIFT,
    _LANCZOS_TAIL,
    _LOG_PI,
    _LOG_SQRT_TWO_PI,
    _ROW_SUM_MIN,
    _lanczos_series,
    _log_sin_pi,
    log_gamma_vec,
)
from fwstates.hfunction import MAX_NODES, ContourConfig, HWeightParams

_EPS = float(np.finfo(float).eps)


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


# -- frozen copies -----------------------------------------------------------


def _ref_lanczos_series(z):
    """The fused form: one (8, *z.shape) block of tail terms and a cumsum."""
    z = np.asarray(z, dtype=complex)
    col = (-1,) + (1,) * z.ndim
    terms = _LANCZOS_TAIL.reshape(col) / (z + _LANCZOS_SHIFT.reshape(col))
    terms[0] += _LANCZOS_COEFFS[0]
    return terms.cumsum(axis=0)[-1]


def _ref_lanczos_log(z):
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(_ref_lanczos_series(z))


def _ref_log_gamma_vec(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    right = z.real >= 0.5
    if right.all():
        return _ref_lanczos_log(z)
    out = np.empty_like(z)
    if right.any():
        out[right] = _ref_lanczos_log(z[right])
    zl = z[~right]
    out[~right] = _LOG_PI - _log_sin_pi(zl) - _ref_lanczos_log(1.0 - zl)
    return out


class _RefContour:
    """A line with one-point height tests and a first grid on n + 1 nodes."""

    def __init__(self, hp, cc, level):
        self.hp = hp
        self.c = hp._right + cc.c_offset + hfunction._ABSCISSA_STEP * level
        self.log_m0 = hp.log_mellin(complex(self.c, 0.0)).real
        T = 8.0
        for _ in range(120):
            top = hfunction._log_mellin_vec(hp, np.array([complex(self.c, T)]))[0].real
            if top <= self.log_m0 + hfunction._LOG_DECAY_TARGET:
                break
            T *= 1.5
        else:
            raise ContourFailure("could not truncate the contour; kernel decays too slowly")
        self.T = T
        self.t = np.linspace(0.0, self.T, cc.n_nodes + 1)
        self.vals = self._scaled(self.t)
        self._levels = {}

    def _scaled(self, t):
        with np.errstate(under="ignore"):
            return np.exp(hfunction._log_mellin_vec(self.hp, self.c + 1j * t) - self.log_m0)

    def level(self, n):
        if n not in self._levels:
            if n > len(self.t) - 1:
                vals = np.empty(n + 1, dtype=complex)
                vals[0::2] = self.vals
                vals[1::2] = self._scaled((2 * np.arange(n // 2) + 1) * (self.T / n))
                self.vals, self.t = vals, np.linspace(0.0, self.T, n + 1)
                self._levels = {m: self._view(m) + lev[2:] for m, lev in self._levels.items()}
            vals, t = self._view(n)
            floor = 16.0 * _EPS * float(np.trapezoid(np.abs(vals), dx=self.T / n))
            self._levels[n] = (vals, t, self.T / n, floor)
        return self._levels[n]

    def _view(self, n):
        step = (len(self.t) - 1) // n
        return self.vals[::step], self.t[::step]


_ref_contour_state = lru_cache(maxsize=None)(_RefContour)


def _ref_h_value(hp, x, cc):
    """The trapezoid loop with the integrand formed afresh at every level."""
    st_ = _ref_contour_state(hp, cc, hfunction._abscissa_level(hp, cc, x))
    log_x = math.log(x)
    log_scale = st_.log_m0 - st_.c * log_x - math.log(math.pi)
    n = cc.n_nodes
    prev = None
    while n <= MAX_NODES:
        vals, t, h, floor = st_.level(n)
        f = vals * np.exp(-1j * (t * log_x))
        bracket = float((h * (f[1:] + f[:-1]) / 2.0).sum().real)
        if prev is not None and abs(bracket - prev) <= max(hfunction._REL_STOP * abs(bracket), floor):
            if bracket == 0.0:
                return 0.0
            with np.errstate(under="ignore"):
                return float(bracket * np.exp(log_scale))
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


def _ref_tanh_sinh(f, a, b, rel_tol, abs_tol):
    """Tanh-sinh with one integrand call per side of the midpoint."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t_cap = 4.0

    def level_nodes(h, only_odd):
        j = np.arange(1, int(t_cap / h) + 1)
        if only_odd:
            j = j[j % 2 == 1]
        t = j * h
        u = 0.5 * math.pi * np.sinh(t)
        x_off = half * np.tanh(u)
        w = half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        return x_off, w

    w0 = half * 0.5 * math.pi
    total = w0 * f(np.array([mid]))[0]
    h = 2.0
    value, err = None, math.inf
    for level in range(continuum._TS_MAX_LEVEL + 1):
        h *= 0.5
        x_off, w = level_nodes(h, only_odd=level > 0)
        total = total + np.sum(w * (f(mid + x_off) + f(mid - x_off)))
        if not np.isfinite(total):
            raise OverflowError(f"tanh-sinh sum {total} leaves the float64 range")
        new_value = h * total
        if value is not None:
            err = abs(new_value - value)
            if err <= max(abs_tol, rel_tol * abs(new_value)):
                return new_value, err
        value = new_value
    raise QuadratureFailure(f"tanh-sinh did not reach tolerance (last step error {err:.3g})")


def _clear_memos():
    for memo in (
        hfunction._contour_state,
        hfunction._h_value,
        _ref_contour_state,
        continuum._log_rho_node,
        continuum._rho_grid,
        foxwright._column_cache,
    ):
        memo.cache_clear()


def _reference(mp):
    """Route the package through the frozen copies, with every memo empty."""
    _clear_memos()
    mp.setattr(gammafn, "_lanczos_series", _ref_lanczos_series)
    mp.setattr(hfunction, "_h_value", _ref_h_value)
    mp.setattr(continuum, "_tanh_sinh", _ref_tanh_sinh)


# -- strategies --------------------------------------------------------------

_PAIR = st.tuples(st.floats(0.3, 3.0), st.floats(0.5, 1.5))


@st.composite
def _models(draw):
    """Real positive parameters with margin >= 0.4, as the benchmark draws them."""
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.4)
    return CoherentModel(FWParams(upper=upper, lower=lower))


# sizes on both sides of the threshold: the fused block below, rows from it up
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
        got, want = _lanczos_series(z), _ref_lanczos_series(z)
    assert got.shape == shape
    assert _bits(got) == _bits(want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1))
def test_log_gamma_vec_matches_fused_block(shape, seed):
    z = _points(seed, shape)
    with np.errstate(all="ignore"):
        got, want = log_gamma_vec(z), _ref_log_gamma_vec(z)
        # each entry also has the bits it gets alone
        alone = [log_gamma_vec(zi)[0] for zi in z.ravel()[:9]]
    assert _bits(got) == _bits(want)
    assert [_bits(v) for v in alone] == [_bits(v) for v in got.ravel()[:9]]


# -- the height search -------------------------------------------------------

# (upper, lower): the model blocks, slowly decaying kernels whose search
# passes 8 heights (to j = 11, 15 and 54), and an upper gamma with its
# pole at c, which makes M(c) zero, so no height passes
_BLOCKS = [
    ([], [(0.0, 1.0)]),
    ([(0.0, 1.0)], [(0.0, 1.0), (1.0, 1.0)]),
    ([(0.5, 0.8)], [(0.0, 1.0), (1.0, 1.1)]),
    ([(0.5, 0.95)], [(0.0, 1.0)]),
    ([(0.5, 0.99)], [(0.0, 1.0)]),
    ([(0.5, 1.0 - 1e-9)], [(0.0, 1.0)]),
    ([(-0.25, 0.5)], [(0.0, 1.0)]),
]


def _line(state_cls, hp, cc, level):
    try:
        st_ = state_cls(hp, cc, level)
    except ContourFailure as exc:
        return "ContourFailure: " + str(exc)
    return repr((st_.c, st_.log_m0, st_.T))


@pytest.mark.parametrize("upper, lower", _BLOCKS)
@pytest.mark.parametrize("level", [0, 1, 3])
def test_height_search_matches_one_point_search(upper, lower, level):
    hp = HWeightParams(upper, lower)
    cc = ContourConfig(n_nodes=8)
    assert _line(hfunction._ContourState, hp, cc, level) == _line(_RefContour, hp, cc, level)


def test_height_search_batches():
    """The search reaches past the first batch of heights, and raises
    ContourFailure when none of the 120 heights passes."""
    cc = ContourConfig(n_nodes=8)
    st_ = hfunction._ContourState(HWeightParams([(0.5, 1.0 - 1e-9)], [(0.0, 1.0)]), cc, 0)
    assert st_.T > 8.0 * 1.5**50
    with pytest.raises(ContourFailure, match="^could not truncate the contour; kernel decays too slowly$"):
        hfunction._ContourState(HWeightParams([(-0.25, 0.5)], [(0.0, 1.0)]), cc, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models(), st.integers(0, 4), st.sampled_from([0.5, 1.5, 3.0]))
def test_height_search_bits(model, level, c_offset):
    hp = HWeightParams.from_model(model)
    cc = ContourConfig(c_offset=c_offset, n_nodes=8)
    assert _line(hfunction._ContourState, hp, cc, level) == _line(_RefContour, hp, cc, level)


# -- contour levels and eval_h -----------------------------------------------


def _levels_bits(st_):
    return {n: tuple(_bits(v) for v in lev) for n, lev in sorted(st_._levels.items())}


def _compare_lines(hp, cc, xs):
    """eval_h at each x in turn (the first call on a line cold, later ones
    warm), and each line's (vals, t, h, floor) at every level it reached."""
    _clear_memos()
    for x in xs:
        assert _bits(_outcome(hfunction.eval_h, hp, x, cc)) == _bits(
            _outcome(_ref_h_value, hp, x, cc)
        ), x
    for level in {hfunction._abscissa_level(hp, cc, x) for x in xs}:
        ours = _levels_bits(hfunction._contour_state(hp, cc, level))
        assert ours and ours == _levels_bits(_ref_contour_state(hp, cc, level))


@pytest.mark.parametrize("n_nodes", [8, 64, 100])
@pytest.mark.parametrize("upper, lower", _BLOCKS[:4])
def test_contour_levels_match_first_grid_at_n(upper, lower, n_nodes):
    _compare_lines(HWeightParams(upper, lower), ContourConfig(n_nodes=n_nodes), [0.05, 0.9, 0.3, 6.5])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    _models(),
    st.lists(st.floats(0.02, 80.0), min_size=1, max_size=6),
    st.sampled_from([8, 64]),
    st.sampled_from([0.5, 1.5]),
)
def test_eval_h_and_levels_bits(model, xs, n_nodes, c_offset):
    _compare_lines(HWeightParams.from_model(model), ContourConfig(c_offset, n_nodes), xs)


def test_contour_at_max_nodes():
    """n_nodes = MAX_NODES keeps one grid on MAX_NODES + 1 nodes, whose one
    level cannot converge, and the same raise."""
    hp = HWeightParams([], [(0.0, 1.0)])
    cc = ContourConfig(n_nodes=MAX_NODES)
    try:
        _compare_lines(hp, cc, [0.7])
        level = hfunction._abscissa_level(hp, cc, 0.7)
        assert len(hfunction._contour_state(hp, cc, level).t) == MAX_NODES + 1
        with pytest.raises(ContourFailure, match=f"at n={MAX_NODES} for x=0.7$"):
            hfunction.eval_h(hp, 0.7, cc)
    finally:
        _clear_memos()


@pytest.mark.parametrize("n_nodes", [8, 100, MAX_NODES // 2, MAX_NODES // 2 + 1])
def test_first_grid_is_level_2n_and_level_n_its_view(n_nodes):
    """Unless 2n passes MAX_NODES: then the first grid is level n."""
    st_ = hfunction._ContourState(HWeightParams([], [(0.0, 1.0)]), ContourConfig(n_nodes=n_nodes), 0)
    step = 2 if 2 * n_nodes <= MAX_NODES else 1
    assert len(st_.t) == step * n_nodes + 1 and not st_._levels
    vals, t, _, _ = st_.level(n_nodes)
    assert np.shares_memory(vals, st_.vals) and vals.strides == (step * st_.vals.strides[0],)
    assert _bits(t) == _bits(np.linspace(0.0, st_.T, n_nodes + 1))


# -- tanh-sinh ----------------------------------------------------------------


def _counted_ts(ts, f, a, b, rel_tol, abs_tol):
    """(outcome, sizes of the integrand calls) of one tanh-sinh integral."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        return _bits(_outcome(ts, counted, a, b, rel_tol, abs_tol)), calls


def _nu_integral(model, log_zeta):
    """The tanh-sinh nu integrand on its node arrays, and its range."""
    return continuum._integrands(model.params, log_zeta)[0], 0.0, continuum._e_max(model, log_zeta.real)


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
        ((lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0), 14, "QuadratureFailure"),
    ],
    ids=["nu720", "nu740", "nu800", "nu700", "step"],
)
def test_tanh_sinh_errors_and_their_level(integral, calls_made, error):
    got, calls = _counted_ts(continuum._tanh_sinh, *integral, 1e-10, 1e-12)
    want, ref_calls = _counted_ts(_ref_tanh_sinh, *integral, 1e-10, 1e-12)
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
        integral = _nu_integral(model, log_zeta)
    except QuadratureFailure:
        return  # _e_max found no decaying tail; it runs no quadrature
    got, _ = _counted_ts(continuum._tanh_sinh, *integral, *tols)
    assert got == _counted_ts(_ref_tanh_sinh, *integral, *tols)[0]


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
    # 10,000 terms: the column table grows in chunks that take the row sum
    "boundary": lambda: evaluate(_BOUNDARY, complex(0.6, 0.8), allow_boundary=True),
    "bicomplex": lambda: evaluate_bc(
        BCFWParams.from_components(_BOUNDARY, _GAUSS_B),
        compose_idempotent(complex(0.6, 0.8), -1.0),
        allow_boundary=True,
    ),
    "make_state": lambda: make_state(CoherentModel(FWParams([(1.1, 0.9)], [(2.0, 0.6)]), 8), 3.5j),
    "f_factor": lambda: coherent.f_factor(_WRIGHT, np.arange(700)),
    "log_gamma_ratio": lambda: gammafn.log_gamma_ratio(0.3 + 1j, 0.7, np.arange(300)),
}


@pytest.mark.parametrize("name", _SERIES_OUTPUTS)
def test_series_outputs_match_fused_block(name):
    """The series and coherent-state routines call the Lanczos sum on long
    arrays too; their outputs keep the bits of the fused block."""
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


def test_tanh_sinh_nu_log_rho_calls(monkeypatch):
    """One "ts" nu makes one _log_rho_vec call on the midpoint and one per
    level, on the level's nodes right and left of it together."""
    sizes = []
    log_rho_vec = continuum._log_rho_vec

    def counted(params, ks):
        sizes.append(np.size(ks))
        return log_rho_vec(params, ks)

    continuum.nu(_WRIGHT, 2.5, scheme="ts")  # _e_max's log-rho grid is memoized
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
