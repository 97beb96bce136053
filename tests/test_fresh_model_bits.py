"""Bit identity of a fresh parameter set's first use.

A new model grows its log-gamma table as one (1 + p + q, n) array, forms
its ladder factors from one Lanczos pass with float arithmetic on its
real arguments, and log_gamma_vec makes one Lanczos call for both half
planes.  Each is compared here, bit for bit and error for error, with a
frozen copy of the routine it replaced (tests/_frozen.py), under
derandomized hypothesis.
"""

import numpy as np
from _frozen import ColumnCacheAppend, f_factor_per_pair, log_gamma_vec_gathered
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwstates import foxwright
from fwstates.bicomplex import Hyperbolic, compose_idempotent
from fwstates.coherent import BCCoherentModel, CoherentModel, f_b, f_factor, make_state
from fwstates.errors import ValidationError
from fwstates.foxwright import FWParams, _block_end, _column_cache, _ColumnCache, log_gamma_rows
from fwstates.foxwright_bc import BCFWParams
from fwstates.gammafn import _REAL_RATIO_MAX, log_gamma_vec


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype.str, x.tobytes()


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ArithmeticError, ValidationError) as exc:
        return repr(exc)
    return _bits(out) if isinstance(out, np.ndarray) else repr(out)


# -- ladder factors -----------------------------------------------------------

# offsets down to 0.01, so the first k of a pair can sit left of 1/2 and
# take log_gamma_ratio's reflection branch
_PAIR = st.tuples(st.floats(0.01, 3.0), st.floats(0.5, 1.5))


@st.composite
def _models(draw):
    """Real positive parameters with margin >= 0.3, as the benchmark and the
    acceptance battery draw them."""
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.3)
    return CoherentModel(FWParams(upper=upper, lower=lower))


_LEFT_OF_HALF = CoherentModel(FWParams([(0.2, 0.9)], [(0.05, 0.6), (1.7, 1.2)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_models(), st.integers(1, 300))
@example(_LEFT_OF_HALF, 300)
@example(CoherentModel(FWParams()), 1)
def test_f_factor_matches_per_pair_copy(model, K):
    ks = np.arange(K)
    want = f_factor_per_pair(model, ks)
    assert _bits(f_factor(model, ks)) == _bits(want)
    assert _bits(f_factor(model, ks.reshape(1, K))) == _bits(want.reshape(1, K))
    for s in {0, 1 % K, K - 1}:
        assert repr(f_factor(model, s)) == repr(f_factor_per_pair(model, s)) == repr(float(want[s]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    _models(),
    st.lists(
        st.one_of(
            st.floats(0.0, 50.0),
            st.floats(1e6, 1e300),
            # past _REAL_RATIO_MAX, where every entry takes log_gamma_ratio
            st.floats(_REAL_RATIO_MAX, 1e308),
        ),
        min_size=1,
        max_size=8,
    ),
)
@example(_LEFT_OF_HALF, [0.0, 0.25, 2.5, 1e12, 2.0**1000, 1e305])
def test_f_factor_off_the_integers_and_past_the_float_route(model, ss):
    """Fractional s, s far out, and s whose arguments leave the float route;
    a factor past the float range raises math.exp's OverflowError in both."""
    for s in ss:
        assert _outcome(f_factor, model, s) == _outcome(f_factor_per_pair, model, s)
    assert _outcome(f_factor, model, np.array(ss)) == _outcome(f_factor_per_pair, model, np.array(ss))


@st.composite
def _bc_models(draw):
    """Two models of one shape, as the idempotent components of one."""
    first = draw(_models())
    upper = draw(st.lists(_PAIR, min_size=first.params.p, max_size=first.params.p))
    lower = draw(st.lists(_PAIR, min_size=first.params.q, max_size=first.params.q))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.3)

    def side(a, b):
        return [(compose_idempotent(x[0], y[0]), Hyperbolic(x[1], y[1]))
                for x, y in zip(a, b)]

    return BCCoherentModel(
        BCFWParams(
            upper=side([(a.real, A) for a, A in first.params.upper], upper),
            lower=side([(b.real, B) for b, B in first.params.lower], lower),
        )
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_bc_models(), st.integers(0, 40))
def test_f_b_matches_per_pair_copy_on_each_component(bc, k):
    got = f_b(bc, k)
    c1, c2 = bc.decompose()
    assert (repr(got.c1), repr(got.c2)) == (
        repr(f_factor_per_pair(c1, k)),
        repr(f_factor_per_pair(c2, k)),
    )


# -- log_gamma_vec ------------------------------------------------------------

_IM = st.floats(-1e3, 1e3)
_POINT = st.one_of(
    st.builds(complex, st.floats(0.5, 60.0), _IM),
    st.builds(complex, st.floats(-60.0, 0.49), _IM),
    # exact poles, and the real axis with both signs of a zero imaginary part
    st.builds(complex, st.integers(-30, 0).map(float), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_POINT, min_size=1, max_size=40), st.booleans())
@example([complex(-3.0, 0.0), complex(0.2, 1e3), complex(7.5, -1e3)], False)
@example([complex(-3.0, 0.0), complex(0.2, 1e3), complex(-0.5, 0.0)], True)
def test_log_gamma_vec_matches_gathered_copy(zs, upper_half):
    """Mixed arrays, and arrays wholly in Im >= 0, where log sin(pi z) takes
    no half-plane split; on 0-d to 2-d shapes."""
    z = np.array(zs, dtype=complex)
    if upper_half:
        z = z.real + 1j * np.abs(z.imag)
    want = log_gamma_vec_gathered(z)
    assert _bits(log_gamma_vec(z)) == _bits(want)
    assert _bits(log_gamma_vec(z.reshape(1, -1))) == _bits(want.reshape(1, -1))
    assert _bits(log_gamma_vec(z[0])) == _bits(want[:1])


def test_log_gamma_vec_crosses_the_row_sum_size():
    """From 512 entries the Lanczos sum runs row by row; one call on both
    half planes reaches that size where neither gathered call did."""
    rng = np.random.default_rng(2201)
    z = rng.uniform(-20.0, 20.0, 600) + 1j * rng.normal(0.0, 50.0, 600)
    assert (z.real >= 0.5).sum() < 512 and (z.real < 0.5).sum() < 512
    assert _bits(log_gamma_vec(z)) == _bits(log_gamma_vec_gathered(z))


# -- the column table ---------------------------------------------------------

# Delta = 0, radius 1; upper poles at k = 1024 and k = 1792 (tests/test_long_sums.py)
POLE_1024 = FWParams([(1.0, 1.0), (-0.5, 2.0**-11)], [(2.0, 2.0**-11)])
POLE_1792 = FWParams([(1.0, 1.0), (-0.875, 2.0**-11)], [(2.0, 2.0**-11)])
_TABLES = [
    POLE_1024,
    POLE_1792,
    # lower poles at k = 480 and 1504, where a chunk of a 992 -> 2016 growth starts
    FWParams([(1.0, 1.0)], [(2.0, 1.0), (-1.46875, 2.0**-10)]),
    FWParams([(-0.5, 0.25)], [(-1.5, 0.5)]),
    FWParams([(0.7 + 0.4j, 0.9), (1.1, 0.6)], [(1.9 - 0.2j, 0.9)]),
    FWParams([(1.3, 0.8)], [(2.1, 1.1), (0.7, 0.6)]),
    FWParams(),
]


@st.composite
def _pole_params(draw):
    """Offsets -m/8 and weights 2^-j, so that arguments meet poles exactly."""
    pair = st.tuples(st.integers(1, 60).map(lambda m: -m / 8.0), st.integers(0, 8).map(lambda j: 2.0**-j))
    try:
        return FWParams(draw(st.lists(pair, max_size=2)), draw(st.lists(pair, max_size=2)))
    except ValidationError:
        assume(False)


def _assert_same_columns(cols, want):
    assert cols.n == want.n
    for got, ref in zip(
        (cols.k, cols.log_fact, *cols.upper, *cols.lower, *cols.lower_poles),
        (want.k, want.log_fact, *want.upper, *want.lower, *want.lower_poles),
    ):
        assert _bits(got) == _bits(ref)
        assert not got.flags.writeable
    assert repr(cols.upper_poles) == repr(want.upper_poles)
    assert cols.lower_first_pole == want.lower_first_pole
    # every column is a row of the one table, every mask a row of the one mask
    for row in (cols.log_fact, *cols.upper, *cols.lower):
        assert row.base is cols.lg
    for row in cols.lower_poles:
        assert row.base is cols.lower_mask


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(st.sampled_from(_TABLES), _pole_params()),
    st.lists(st.integers(1, 2600), min_size=1, max_size=5),
)
@example(POLE_1024, [33, 1, 1023, 1025, 1600])
@example(POLE_1792, [1792, 1793, 2600])
def test_column_growth_matches_append_copy(params, ends):
    """Uneven upto sequences, some asking for less than the table holds."""
    cache, ref = _ColumnCache(params), ColumnCacheAppend(params)
    for end in ends:
        _assert_same_columns(cache.upto(end), ref.upto(end))


def test_make_state_grows_the_table_to_whole_blocks():
    assert [_block_end(n) for n in (1, 32, 33, 96, 97, 480, 481, 992, 993, 1505)] == [
        32, 32, 96, 96, 224, 480, 992, 992, 1504, 2016,
    ]
    model = CoherentModel(FWParams([(1.1, 0.9)], [(2.0, 0.6)]), 32)
    _column_cache.cache_clear()
    cache = _column_cache(model.params)
    state = make_state(model, 0.5)
    assert len(state.coeffs) == 33
    # N(0.25) stops inside the first block; the 33 coefficients take the next
    assert cache.cols.n == 96
    rows = log_gamma_rows(model.params, 33)
    # one read-only 2-D view of the table, whose rows make_state reads
    assert rows.shape == (3, 33) and rows.base is cache.cols.lg and not rows.flags.writeable
    assert len(rows) == 3 and all(r.shape == (33,) and not r.flags.writeable for r in rows)
    ref = ColumnCacheAppend(model.params).upto(96)
    assert _bits(rows[1]) == _bits(ref.upper[0][:33])


def test_grow_chunks_and_scans_poles_only_where_they_can_be(monkeypatch):
    """One log_gamma_vec call per chunk; the pole test only on a chunk with
    an argument at Re <= POLE_TOL."""
    calls = []
    real_mask = foxwright.pole_mask

    def counted(args):
        calls.append(args.shape)
        return real_mask(args)

    monkeypatch.setattr(foxwright, "pole_mask", counted)
    _ColumnCache(FWParams([(1.3, 0.8)], [(2.1, 1.1)])).upto(1200)
    assert calls == []
    # -0.5 + k/4 <= 0 for k <= 2: only the first chunk holds such arguments
    _ColumnCache(FWParams([(-0.5, 0.25)], [(2.1, 1.1)])).upto(1200)
    assert calls == [(2, 512)]


def test_first_growth_publishes_its_chunk_without_a_concatenate(monkeypatch):
    """A new table holds no record; its first growth of one chunk publishes
    that chunk's arrays, and a later growth joins one chunk per array."""
    calls = []
    concatenate = np.concatenate

    def counted(arrays, *args, **kwargs):
        calls.append(len(arrays))
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    for params in (FWParams([(1.3, 0.8)], [(2.1, 1.1)]), FWParams([(-0.5, 0.25)], [(2.1, 1.1)])):
        want = ColumnCacheAppend(params).upto(224)
        calls.clear()
        cache = _ColumnCache(params)
        assert cache.cols is None
        cols = cache.upto(96)
        assert calls == [] and cols.n == 96 and cols.lg.base is None
        assert cols.lower_mask.base is None and cols.lower_mask.shape == (1, 96)
        _assert_same_columns(cache.upto(224), want)
        assert calls == [2, 2]
        _ColumnCache(params).upto(1200)  # three chunks, joined by one concatenate per array
        assert calls == [2, 2, 3, 3]
