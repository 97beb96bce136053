"""Bit identity of the coherent-state path against the routes it replaced.

The series' column cache forms every column's gamma arguments as one
block and makes one log_gamma_vec call per growth step; make_state reads
log rho(k) from that cache (`foxwright.log_gamma_rows`) instead of a
second `_log_rho_vec` call; overlap sums its three normalization series
in one block pass instead of three evaluate calls; the evaluate block
loop seeds its cumsum by adding the carried total to the first term,
enters np.errstate once per call, takes k from the cache and skips the
pole write for lower columns without a pole; log_gamma_ratio screens
every argument for poles with one array test.  The references, in
_frozen.py, are the plain forms: the column growth one column at a time
(grow_columns), the per-term evaluate loop (evaluate_per_term), three
evaluate calls per overlap, and the per-entry pole check, and every
output must match them bit for bit.  The one exception is a boundary
sum that evaluate now takes by Levin transforms: it must lie within
both bounds of the frozen capped sum.
"""

import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from _frozen import (
    assert_levin_within_capped,
    empty_columns,
    evaluate_per_term,
    grow_columns,
    overlap_three_calls,
    ref_log_gamma_ratio_screen,
    ref_make_state,
    series_length,
    takes_levin_route,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwstates import coherent, foxwright
from fwstates.bicomplex import Bicomplex, Hyperbolic, componentwise, compose_idempotent
from fwstates.coherent import (
    BCCoherentModel,
    CoherentModel,
    make_state,
    overlap,
    overlap_b,
)
from fwstates.errors import FWError, PoleError, ValidationError
from fwstates.foxwright import (
    FWParams,
    _abs,
    _column_cache,
    _ColumnCache,
    evaluate,
    log_gamma_rows,
    radius,
)
from fwstates.foxwright_bc import BCFWParams
from fwstates.gammafn import log_gamma_ratio

# -- helpers ----------------------------------------------------------------


def _bits(a):
    return a.shape, a.dtype.str, a.tobytes()


def _outcome(fn, *args, **kwargs):
    """Type and repr of each field of a result, or the error raised."""
    try:
        res = fn(*args, **kwargs)
    except FWError as exc:
        return type(exc).__name__, str(exc)
    except OverflowError as exc:
        return "OverflowError", str(exc)
    return [(type(v).__name__, repr(v)) for v in vars(res).values()]


# values include nonpositive half-integers and integers, so some a + kA
# and b + kB land on gamma poles at k > 0
_VALUE = st.one_of(
    st.sampled_from([-2.5, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0]),
    st.floats(-3.0, 3.0),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
)
_WEIGHT = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]), st.floats(0.2, 2.5))
_PAIRS = st.lists(st.tuples(_VALUE, _WEIGHT), max_size=3)


@st.composite
def _params(draw):
    try:
        return FWParams(upper=draw(_PAIRS), lower=draw(_PAIRS))
    except ValidationError:
        assume(False)


# -- the one-call column growth ---------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_params(), st.lists(st.integers(1, 300), min_size=1, max_size=4))
@example(FWParams(upper=[(-0.5, 0.5)], lower=[(-1.5, 0.5), (2.0, 1.0)]), [3, 40])
@example(FWParams(upper=[(1.0, 1.0)], lower=[(-2.5, 1.0), (-0.5, 0.25)]), [1, 2, 33])
def test_grow_matches_per_column_growth(params, ends):
    cache = _ColumnCache(params)
    ref = empty_columns(params)
    for end in sorted(ends):
        cols = cache.upto(end)
        ref = grow_columns(params, ref, end) if ref.n < end else ref
        assert cols.n == ref.n
        assert _bits(cols.k) == _bits(np.arange(cols.n, dtype=float))
        assert _bits(cols.log_fact) == _bits(ref.log_fact)
        for got, want in zip(cols.upper + cols.lower, ref.upper + ref.lower):
            assert _bits(got) == _bits(want)
        assert repr(cols.upper_poles) == repr(ref.upper_poles)
        for mask, want, first in zip(
            cols.lower_poles, ref.lower_poles, cols.lower_first_pole
        ):
            assert _bits(mask) == _bits(want)
            hits = np.flatnonzero(want)
            assert first == (int(hits[0]) if hits.size else None)
        for col in (cols.k, cols.log_fact, *cols.upper, *cols.lower, *cols.lower_poles):
            assert not col.flags.writeable


def test_grow_finds_an_upper_pole_and_lower_pole_masks():
    params = FWParams(upper=[(-0.5, 0.25)], lower=[(-1.5, 0.5)])
    cols = _ColumnCache(params).upto(12)
    assert cols.upper_poles[0][0] == 2  # -0.5 + 2 * 0.25 = 0
    assert cols.lower_first_pole == (1,)  # -1.5 + 0.5 = -1
    assert np.flatnonzero(cols.lower_poles[0]).tolist() == [1, 3]
    with pytest.raises(PoleError, match="upper gamma pole at k=2"):
        evaluate(params, 0.5)


# -- make_state from the column table ----------------------------------------

_PAIR = st.tuples(st.floats(0.3, 3.0), st.floats(0.5, 1.5))


@st.composite
def _models(draw):
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.3)
    return CoherentModel(FWParams(upper=upper, lower=lower), draw(st.sampled_from([1, 2, 8, 32])))


_Z = st.one_of(
    st.just(0j),
    st.builds(cmath.rect, st.floats(0.0, 2.5), st.floats(-math.pi, math.pi)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_models(), _Z, st.sampled_from([1e-12, 1e-15, 1e-6]))
@example(CoherentModel(FWParams(upper=[], lower=[]), 1), 2.4 + 0.3j, 1e-12)  # K doubles
@example(CoherentModel(FWParams(upper=[(1.2, 0.9)], lower=[(2.0, 1.1)]), 4), 0j, 1e-12)
# |z|^2 underflows to 0 for a nonzero z: log zeta is 2 log|z|
@example(CoherentModel(FWParams(upper=[], lower=[]), 1), complex(2.2250738585072014e-308), 1e-12)
def test_make_state_matches_log_rho_vec_route(model, z, tail_target):
    want = _outcome(ref_make_state, model, z, tail_target)
    _column_cache.cache_clear()
    assert _outcome(make_state, model, z, tail_target) == want  # cold column table
    assert _outcome(make_state, model, z, tail_target) == want  # warm
    _column_cache.cache_clear()
    log_gamma_rows(model.params, 4 * model.K + 100)  # table grown past K+1 first
    assert _outcome(make_state, model, z, tail_target) == want


def test_make_state_doubles_k_and_leaves_the_table_intact():
    model = CoherentModel(FWParams(upper=[(1.1, 0.9)], lower=[(2.0, 0.6)]), 1)
    _column_cache.cache_clear()
    state = make_state(model, 2.0)
    assert len(state.coeffs) - 1 > 8
    rows = log_gamma_rows(model.params, len(state.coeffs))
    assert all(not row.flags.writeable for row in rows)
    assert _bits(coherent._log_rho_rows(model.params, rows.real)) == _bits(
        coherent._log_rho_vec(model.params, np.arange(len(state.coeffs)))
    )


def test_concurrent_states_and_sums_share_the_table():
    # fresh parameter sets, so make_state and evaluate grow the same
    # entries at once, to different ends
    models = [
        CoherentModel(FWParams(upper=[(0.9 + 0.01 * i, 0.8)], lower=[(1.7, 0.6)]), 2)
        for i in range(6)
    ]
    jobs = [(m, z) for m in models for z in (0.3, 1.5 - 0.7j, 2.2j)]
    expect = [(_outcome(ref_make_state, m, z), _outcome(evaluate_per_term, m.params, -4 * z))
              for m, z in jobs]
    _column_cache.cache_clear()

    def run(m, z):
        return _outcome(make_state, m, z), _outcome(evaluate, m.params, -4 * z)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, m, z) for m, z in jobs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == expect


# -- overlap's shared block pass ---------------------------------------------


def _value_outcome(fn, *args):
    """Type and repr of a result, or the error raised."""
    try:
        res = fn(*args)
    except FWError as exc:
        return type(exc).__name__, str(exc)
    except OverflowError as exc:
        return "OverflowError", str(exc)
    return type(res).__name__, repr(res)


VACUUM = CoherentModel(FWParams(upper=[], lower=[]))
# N(|z|^2) = N(|z'|^2) = 2.5e263 at the point below, so N N' leaves float64
# (ROADMAP 1(d)); overlap then takes sqrt(N) sqrt(N')
WIDE = CoherentModel(
    FWParams(
        upper=[(2.929550738930658, 1.4472416378738564), (2.0862003957136137, 0.831315097839454)],
        lower=[(2.668222991444634, 0.520648631953876), (1.6246481863813942, 1.0825954364681925)],
    )
)
WIDE_Z = complex(math.sqrt(abs(5.871836056699253 + 1.6089414839369796j)), 0.0)
WIDE_ZP = (5.871836056699253 + 1.6089414839369796j) / WIDE_Z.real

_OVERLAP_Z = st.one_of(
    st.just(0j),
    st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_models(), _OVERLAP_Z, _OVERLAP_Z)
@example(VACUUM, 0.1, 3.0)  # the three rows stop in different blocks
@example(VACUUM, 3.0j, 0.1)
@example(VACUUM, 0.1, 40.0)  # only N(|z'|^2) overflows
@example(VACUUM, 40.0, 0.1)  # only N(|z|^2) overflows
@example(VACUUM, 0j, 0j)
@example(WIDE, WIDE_Z, WIDE_ZP)
def test_overlap_matches_three_calls(model, z, zp):
    want = _value_outcome(overlap_three_calls, model, z, zp)
    _column_cache.cache_clear()
    assert _value_outcome(overlap, model, z, zp) == want  # cold column table
    assert _value_outcome(overlap, model, z, zp) == want  # warm


@pytest.mark.parametrize(
    "z, zp, error",
    [
        (0.1, 40.0, "OverflowError"),
        (40.0, 0.1, "OverflowError"),
        (60.0, 60.0, "OverflowError"),  # all three rows overflow
        (WIDE_Z, WIDE_ZP, None),
    ],
)
def test_overlap_fixed_points(z, zp, error):
    model = WIDE if z == WIDE_Z else VACUUM
    want = _value_outcome(overlap_three_calls, model, z, zp)
    assert (want[0] == error) if error else want[0] == "complex128"
    assert _value_outcome(overlap, model, z, zp) == want


def test_overlap_sums_three_rows_per_block(monkeypatch):
    # N(0.3) and N(0.01) stop in the first block of 32 terms and N(9) in
    # the second, of 64: two magnitude passes per block, on all live rows
    calls = []

    def counted(x):
        calls.append(x.shape)
        return _abs(x)

    monkeypatch.setattr(foxwright, "_abs", counted)
    overlap(VACUUM, 0.1, 3.0)
    assert calls == [(3, 32), (3, 32), (1, 64), (1, 64)]


@pytest.mark.parametrize(
    "z, failing, raised",
    [
        (0.5, (1, 2), "row 1"),
        (0.5, (0, 1, 2), "row 0"),
        (0.5, (2,), "row 2"),
        # N(conj(z) z') and N(|z|^2) are 1 at zero, so N(|z'|^2) is row 0,
        # the lone series, which _lone_sum sums
        (0.0, (0,), "row 0"),
    ],
)
def test_overlap_raises_the_first_error_in_row_order(monkeypatch, z, failing, raised):
    real, real_lone = foxwright._block_sums, foxwright._lone_sum

    def with_errors(cache, log_z, tol):
        rows = real(cache, log_z, tol)
        for i in failing:
            rows[i].error = OverflowError(f"row {i}")
        return rows

    def lone_with_error(*args):
        res = real_lone(*args)
        return OverflowError("row 0") if 0 in failing else res

    monkeypatch.setattr(foxwright, "_block_sums", with_errors)
    monkeypatch.setattr(foxwright, "_lone_sum", lone_with_error)
    with pytest.raises(OverflowError, match=f"^{raised}$"):
        overlap(VACUUM, z, 1.5j)


@st.composite
def _bc_models(draw):
    first = draw(_models())
    p, q = first.params.p, first.params.q
    upper = draw(st.lists(_PAIR, min_size=p, max_size=p))
    lower = draw(st.lists(_PAIR, min_size=q, max_size=q))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.3)

    def side(a, b):
        return [(compose_idempotent(x[0].real, y[0]), Hyperbolic(x[1], y[1])) for x, y in zip(a, b)]

    return BCCoherentModel(
        BCFWParams(upper=side(first.params.upper, upper), lower=side(first.params.lower, lower)),
        first.K,
    )


def _overlap_b_three_calls(model, Z, Zp):
    return Bicomplex(*componentwise(overlap_three_calls, model, Z, Zp))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_bc_models(), _OVERLAP_Z, _OVERLAP_Z, _OVERLAP_Z, _OVERLAP_Z)
def test_overlap_b_matches_three_calls_per_component(model, z1, z2, zp1, zp2):
    Z, Zp = Bicomplex(z1, z2), Bicomplex(zp1, zp2)
    want = _value_outcome(_overlap_b_three_calls, model, Z, Zp)
    assert _value_outcome(overlap_b, model, Z, Zp) == want


# -- the evaluate block loop -------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _params(),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.sampled_from([1e-14, 1e-10, 1e-6]),
    st.sampled_from([10000, 700, 40, 5]),
    st.booleans(),
)
def test_block_loop_matches_parent_loop(params, scale, angle, tol, max_terms, allow_boundary):
    r = radius(params)
    # finite radius: inside, and exactly on the circle; else |z| up to 40
    if 0.0 < r < math.inf:
        modulus = r if scale > 0.8 else r * scale
    else:
        modulus = 40.0 * scale
    z = modulus * cmath.exp(1j * angle)
    kwargs = dict(tol=tol, allow_boundary=allow_boundary)
    with series_length(max_terms):
        if allow_boundary and takes_levin_route(params, z):
            assert_levin_within_capped(evaluate_per_term, params, z, **kwargs)
            return
        want = _outcome(evaluate_per_term, params, z, max_terms=max_terms, **kwargs)
        _column_cache.cache_clear()
        assert _outcome(evaluate, params, z, **kwargs) == want
        assert _outcome(evaluate, params, z, **kwargs) == want


_CAPPED = {"allow_boundary": True, "max_terms": 44}


@pytest.mark.parametrize(
    "params, z, kwargs",
    [
        # right and left half-plane points of an entire series
        (FWParams(upper=[(0.7, 1.3)], lower=[(1.2, 0.9), (0.8, 1.1)]), 2.5 + 1.5j, {}),
        (FWParams(upper=[(0.7, 1.3)], lower=[(1.2, 0.9), (0.8, 1.1)]), -30.0 + 4.0j, {}),
        (FWParams(upper=[], lower=[(1.5, 0.7)]), -12.0, {}),
        # boundary sums that stop at max_terms, with their tail majorant:
        # 44 terms cannot hold the Levin route's second window
        (FWParams(upper=[(0.8, 2.0)], lower=[(2.0, 1.0)]), 0.25, _CAPPED),
        (FWParams(upper=[(0.8, 2.0)], lower=[(2.0, 1.0)]), -0.25j, _CAPPED),
        # lower poles null terms in the middle of a block; -1.5 + 0.5 k
        # lands on -1 and 0, where log_gamma_vec is finite, so only the
        # pole write zeroes those terms
        (FWParams(upper=[(1.0, 1.0)], lower=[(-2.5, 1.0), (-0.5, 0.25)]), 0.5 - 2.0j, {}),
        (FWParams(upper=[], lower=[(-1.5, 0.5)]), 0.7 + 0.2j, {}),
        (FWParams(upper=[], lower=[(2.0, 1.0), (-1.5, 0.5)]), -3.0, {}),
    ],
)
def test_block_loop_matches_parent_loop_on_fixed_points(params, z, kwargs):
    kwargs = dict(kwargs)
    max_terms = kwargs.pop("max_terms", 10000)
    with series_length(max_terms):
        assert not (kwargs and takes_levin_route(params, z))
        want = _outcome(evaluate_per_term, params, z, max_terms=max_terms, **kwargs)
        assert want[0][0] == "complex128"  # a sum, not an error
        assert _outcome(evaluate, params, z, **kwargs) == want


# -- log_gamma_ratio's batched pole screen ----------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(st.sampled_from([-3.5, -2.0, -1.0, -0.5, 0.25, 1.0]), st.floats(-4.0, 3.0)),
    st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(0.1, 2.0)),
    st.lists(st.integers(0, 40), max_size=12),
)
@example(-2.0, 1.0, [5, 0, 1])  # poles at two entries: the error names the first
def test_log_gamma_ratio_pole_error_matches_per_entry_check(a, A, ks):
    ks = np.array(ks, dtype=int)
    try:
        ref_log_gamma_ratio_screen(a, A, ks)
        want = None
    except PoleError as exc:
        want = str(exc)
    try:
        log_gamma_ratio(a, A, ks)
        got = None
    except PoleError as exc:
        got = str(exc)
    assert got == want
