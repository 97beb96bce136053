"""Bit identity of the measure-layer kernels against their plain forms.

`coherent._log_rho_vec` and `hfunction._log_mellin_vec` make one
log_gamma_vec call over every gamma argument, log_gamma_vec skips its
masked route when every entry lies right of Re = 1/2, and `eval_h`
serves each trapezoid level as a strided view of one finest grid.  The
references below are the plain forms those replaced: one log_gamma_vec
call per gamma factor, the masked route throughout, one array per level
built by doubling, and np.trapezoid at every step.  Every output must
match them bit for bit.

H values, log rho at Gauss-Kronrod nodes and _e_max's log-rho grids are
memoized; each output must also match the same call with the memos
bypassed (their `__wrapped__` functions), cold and warm.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwstates import coherent, continuum, hfunction
from fwstates.bicomplex import Bicomplex, Hyperbolic
from fwstates.cli import main
from fwstates.coherent import CoherentModel
from fwstates.errors import ContourFailure, QuadratureFailure
from fwstates.foxwright import FWParams, boundary_exponent, margin_sign, radius
from fwstates.foxwright_bc import _DOMAIN_BY_SIGNS, BCFWParams, classify
from fwstates.gammafn import _LOG_PI, _lanczos_log, _log_sin_pi, log_gamma_vec
from fwstates.hfunction import ContourConfig, HWeightParams

_EPS = float(np.finfo(float).eps)
# the node-value memos: H(x), log rho at one node, and _e_max's log-rho grid
_MEMOS = ((hfunction, "_h_value"), (continuum, "_log_rho_node"), (continuum, "_rho_grid"))


def _ref_log_gamma_vec(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    right = z.real >= 0.5
    if right.any():
        out[right] = _lanczos_log(z[right])
    left = ~right
    if left.any():
        zl = z[left]
        out[left] = _LOG_PI - _log_sin_pi(zl) - _lanczos_log(1.0 - zl)
    return out


def _ref_log_rho_vec(params, ks):
    kf = ks.astype(float)
    s = _ref_log_gamma_vec(kf + 1.0).real
    for a, A in params.upper:
        s += math.lgamma(a.real) - _ref_log_gamma_vec(a.real + kf * A).real
    for b, B in params.lower:
        s += _ref_log_gamma_vec(b.real + kf * B).real - math.lgamma(b.real)
    return s


def _ref_log_mellin_vec(hp, s):
    out = np.zeros(s.shape, dtype=complex)
    for beta, B in hp.lower:
        out += _ref_log_gamma_vec(beta + s * B)
    for alpha, A in hp.upper:
        out -= _ref_log_gamma_vec(alpha + s * A)
    return out


def _ref_abscissa(hp, cc, x):
    base = max(0.0, hp.rightmost_pole()) + cc.c_offset
    mu = sum(B for _, B in hp.lower) - sum(A for _, A in hp.upper)
    log_kappa = sum(B * math.log(B) for _, B in hp.lower) - sum(
        A * math.log(A) for _, A in hp.upper
    )
    sigma = math.exp((math.log(x) - log_kappa) / mu)
    level = 0 if sigma <= base else math.ceil((sigma - base) / hfunction._ABSCISSA_STEP)
    return base + hfunction._ABSCISSA_STEP * level


class _RefContour:
    """One array per level: n+1 fresh nodes, or the level below plus odd nodes."""

    def __init__(self, hp, cc, x):
        self.hp = hp
        self.c = _ref_abscissa(hp, cc, x)
        self.log_m0 = _ref_log_mellin_vec(hp, np.array([complex(self.c, 0.0)]))[0].real
        T = 8.0
        for _ in range(120):
            top = _ref_log_mellin_vec(hp, np.array([complex(self.c, T)]))[0].real
            if top <= self.log_m0 + hfunction._LOG_DECAY_TARGET:
                break
            T *= 1.5
        else:
            raise ContourFailure("could not truncate the contour")
        self.T = T
        self._vals = {}

    def _scaled(self, t):
        with np.errstate(under="ignore"):
            return np.exp(_ref_log_mellin_vec(self.hp, self.c + 1j * t) - self.log_m0)

    def values(self, n):
        if n in self._vals:
            return self._vals[n]
        if n // 2 in self._vals:
            t_odd = (2 * np.arange(n // 2) + 1) * (self.T / n)
            vals = np.empty(n + 1, dtype=complex)
            vals[0::2] = self._vals[n // 2]
            vals[1::2] = self._scaled(t_odd)
        else:
            vals = self._scaled(np.linspace(0.0, self.T, n + 1))
        self._vals[n] = vals
        return vals


_REF_STATES = {}


def _ref_eval_h(hp, x, cc=hfunction.DEFAULT_CONTOUR, floor=None):
    """The plain eval_h loop; a given floor replaces the computed one."""
    x = float(x)
    key = (hp, cc, _ref_abscissa(hp, cc, x))
    if key not in _REF_STATES:
        _REF_STATES[key] = _RefContour(hp, cc, x)
    st_ = _REF_STATES[key]
    log_x = math.log(x)
    log_scale = st_.log_m0 - st_.c * log_x - math.log(math.pi)
    n = cc.n_nodes
    prev = None
    while n <= hfunction.MAX_NODES:
        vals = st_.values(n)
        t = np.linspace(0.0, st_.T, n + 1)
        h = st_.T / n
        f = vals * np.exp(-1j * (t * log_x))
        bracket = float(np.trapezoid(f, dx=h).real)
        if prev is not None:
            if floor is None:
                level_floor = 16.0 * _EPS * float(np.trapezoid(np.abs(vals), dx=h))
            else:
                level_floor = floor
            if abs(bracket - prev) <= max(hfunction._REL_STOP * abs(bracket), level_floor):
                if bracket == 0.0:
                    return 0.0
                with np.errstate(under="ignore"):
                    return float(bracket * np.exp(log_scale))
        prev = bracket
        n *= 2
    raise ContourFailure(f"node doubling stalled below tolerance at n={n // 2} for x={x:g}")


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
        _ref_log_rho_vec(model.params, ks)
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models(), st.floats(0.05, 25.0), st.integers(1, 200))
def test_log_mellin_vec_bits(model, c, n):
    hp = HWeightParams.from_model(model)
    s = c + 1j * np.linspace(0.0, 60.0, n)
    assert _bits(hfunction._log_mellin_vec(hp, s)) == _bits(_ref_log_mellin_vec(hp, s))
    z = complex(c, -2.5)
    assert _bits(hp.log_mellin(z)) == _bits(
        complex(_ref_log_mellin_vec(hp, np.array([z], dtype=complex))[0])
    )


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
    assert _bits(log_gamma_vec(zr)) == _bits(_ref_log_gamma_vec(zr))
    assert _bits(log_gamma_vec(zr.reshape(1, -1))) == _bits(_ref_log_gamma_vec(zr).reshape(1, -1))


# x spans several abscissa levels; each list is evaluated in order, so the
# first call on a contour is cold and the later ones warm
_XS = st.lists(st.floats(0.02, 80.0), min_size=1, max_size=8)
_CONTOURS = st.sampled_from(
    [hfunction.DEFAULT_CONTOUR, ContourConfig(c_offset=1.5), ContourConfig(n_nodes=8)]
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models(), _XS, _CONTOURS)
def test_eval_h_bits(model, xs, cc):
    hp = HWeightParams.from_model(model)
    for x in xs:
        assert _bits(hfunction.eval_h(hp, x, cc)) == _bits(_ref_eval_h(hp, x, cc)), x


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_models(), _CONTOURS)
def test_contour_levels_are_views_of_the_finest_grid(model, cc):
    """Each cached level is a strided view of the state's finest arrays,
    with the nodes, step and floor the per-level arrays had."""
    hp = HWeightParams.from_model(model)
    cc = ContourConfig(c_offset=cc.c_offset, n_nodes=8)
    hfunction.eval_h(hp, 0.9, cc)
    st_ = hfunction._contour_state(hp, cc, hfunction._abscissa_level(hp, cc, 0.9))
    assert len(st_._levels) >= 3
    ref = _RefContour(hp, cc, 0.9)
    for n, (vals, t, h, floor) in st_._levels.items():
        assert np.shares_memory(vals, st_.vals) and np.shares_memory(t, st_.t)
        assert _bits(vals) == _bits(ref.values(n))
        assert _bits(t) == _bits(np.linspace(0.0, ref.T, n + 1))
        assert h == ref.T / n
        assert floor == 16.0 * _EPS * float(np.trapezoid(np.abs(ref.values(n)), dx=h))
    assert len(st_.t) - 1 == max(st_._levels)


def test_eval_h_stops_on_the_cached_floor():
    """The stop compares with the floor each level carries, computed once
    from |vals|: with every cached floor set to inf, eval_h stops at its
    second level, as the plain loop does with an infinite floor."""
    hp = HWeightParams.from_model(CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)])))
    cc = ContourConfig(n_nodes=8)
    x = 0.7
    converged = hfunction.eval_h(hp, x, cc)
    st_ = hfunction._contour_state(hp, cc, hfunction._abscissa_level(hp, cc, x))
    saved = dict(st_._levels)
    # the H memo would answer from the converged value without running the loop
    hfunction._h_value.cache_clear()
    try:
        for n, (vals, t, h, _) in saved.items():
            st_._levels[n] = (vals, t, h, math.inf)
        early = hfunction.eval_h(hp, x, cc)
    finally:
        st_._levels.update(saved)
        hfunction._h_value.cache_clear()
    assert _bits(early) == _bits(_ref_eval_h(hp, x, cc, floor=math.inf))
    assert early != converged
    assert _bits(hfunction.eval_h(hp, x, cc)) == _bits(converged)


def _owner(a):
    """The array that owns a's memory (numpy points a view's base there)."""
    return a if a.base is None else a.base


def test_contour_memory_after_several_doublings():
    """No level holds its own copy: the only arrays are the finest vals and t."""
    hp = HWeightParams.from_model(CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)])))
    cc = ContourConfig(n_nodes=8)
    xs = [0.3, 0.9, 2.0, 3.0]
    for x in xs:
        hfunction.eval_h(hp, x, cc)
    levels = {hfunction._abscissa_level(hp, cc, x) for x in xs}
    for level in levels:
        st_ = hfunction._contour_state(hp, cc, level)
        assert len(st_._levels) >= 3
        for vals, t, _, _ in st_._levels.values():
            assert not vals.flags.owndata and not t.flags.owndata
            assert _owner(vals) is _owner(st_.vals) and _owner(t) is _owner(st_.t)


def _uncached(monkeypatch):
    """The memos bypassed: each call runs the function they wrap."""
    for module, name in _MEMOS:
        monkeypatch.setattr(module, name, getattr(module, name).__wrapped__)


def _patched(monkeypatch):
    _uncached(monkeypatch)
    monkeypatch.setattr(continuum, "_log_rho_vec", _ref_log_rho_vec)
    monkeypatch.setattr(hfunction, "eval_h", _ref_eval_h)


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
    """eval_h, cold and then warm, gives the bits of the uncached loop."""
    hp = HWeightParams.from_model(model)
    loop = hfunction._h_value.__wrapped__
    for x in xs + xs:
        assert _bits(_each([lambda: hfunction.eval_h(hp, x)])) == _bits(
            _each([lambda: loop(hp, x, hfunction.DEFAULT_CONTOUR)])
        ), x


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    _models(),
    st.floats(0.0, 60.0),
    st.one_of(st.floats(-3.0, 6.0), st.complex_numbers(max_magnitude=6.0)),
)
# E * Im(log_zeta) underflows, and the sign of that zero must survive
@example(CoherentModel(FWParams()), 4.2989726191302816e-159, -7.686563769251845e-204j)
def test_node_integrand_bits(model, E, log_zeta):
    """The one-node integrand Gauss-Kronrod calls has the bits of the
    array form on [E], and of the plain kernel there."""
    on_nodes, at_node = continuum._integrands(model.params, log_zeta)
    Es = np.array([E])
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        got = at_node(E)
        assert _bits(got) == _bits(on_nodes(Es)[0])
        assert _bits(got) == _bits(np.exp(Es * log_zeta - _ref_log_rho_vec(model.params, Es))[0])


def test_rho_grid_entries_are_read_only_copies():
    grid, log_rho_grid = continuum._rho_grid(_WRIGHT.params, 12.0)
    assert not grid.flags.writeable and not log_rho_grid.flags.writeable
    assert log_rho_grid.flags.owndata and log_rho_grid.shape == (257,)


def test_measure_check_memo_counts(tmp_path, capsys):
    """One `measure check --k 0..6` on the unit-weight model evaluates H at
    193 distinct x; its other 941 eval_h calls are answered by the memo."""
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(_UNIT.params.to_json()), encoding="utf-8")
    hfunction._h_value.cache_clear()
    assert main(["measure", "check", "--model", str(path), "--k", "0..6"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 7 and all(row.endswith(",pass") for row in rows)
    info = hfunction._h_value.cache_info()
    assert (info.misses, info.hits, info.currsize) == (193, 941, 193)


def test_hweight_constants_stay_off_equality():
    a = HWeightParams(upper=[(0.5, 1.0)], lower=[(0.0, 1.0), (1.0, 1.0)])
    b = HWeightParams(upper=[(0.5, 1.0)], lower=[(0.0, 1.0), (1.0, 1.0)])
    assert a == b and hash(a) == hash(b)
    assert a._mu == 1.0 and a._right == 0.0
    assert repr(a) == (
        "HWeightParams(upper=((0.5, 1.0),), lower=((0.0, 1.0), (1.0, 1.0)))"
    )


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
