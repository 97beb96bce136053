"""The nu node sets: one LRU of finished sets, bounded by retained bytes.

Every part of a nu quadrature that does not depend on zeta comes from a
stored node set: _e_max's log-rho grid per (params, hi), a tanh-sinh
level per (params, hi, level) and a Gauss-Kronrod subinterval per
(params, a, b), each with log rho on its nodes.  The frozen route in
_frozen.py forms all of them afresh at every call; every output and
every error must match it bit for bit, cold and warm.
"""

import gc
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from _frozen import assert_same_nu_outcome, nu_integral
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwstates import continuum
from fwstates.coherent import CoherentModel
from fwstates.continuum import QuadConfig
from fwstates.errors import QuadratureFailure
from fwstates.foxwright import FWParams

_VACUUM = CoherentModel(FWParams())
_WRIGHT = CoherentModel(FWParams([(1.3, 0.8)], [(2.1, 1.1)]))
_PAIR = st.tuples(st.floats(0.3, 3.0), st.floats(0.5, 1.5))
_CFGS = [continuum.DEFAULT_QUAD, QuadConfig(1e-6, 1e-9), QuadConfig(1e-14, 1e-300)]


@st.composite
def _models(draw):
    """Real positive parameters with margin >= 0.4, as the benchmark draws them."""
    upper = draw(st.lists(_PAIR, max_size=2))
    lower = draw(st.lists(_PAIR, min_size=len(upper), max_size=2))
    assume(1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.4)
    return CoherentModel(FWParams(upper=upper, lower=lower))


def _outcome(fn, *args):
    """repr of fn's value, or its exception's type and text."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, QuadratureFailure) as exc:
        return type(exc).__name__ + ": " + str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    _models(),
    st.one_of(
        st.floats(-3.0, 7.0),
        st.builds(complex, st.floats(-3.0, 4.0), st.floats(-3.0, 3.0)),
    ),
    st.sampled_from(continuum.SCHEMES),
    st.sampled_from(_CFGS),
)
# overflow at tanh-sinh level 2, and in both Gauss-Kronrod passes
@example(_VACUUM, math.log(720.0), "ts", continuum.DEFAULT_QUAD)
@example(_VACUUM, complex(math.log(800.0), 0.3), "gk", continuum.DEFAULT_QUAD)
# the overlap_tilde numerator that QUADPACK refuses and tanh-sinh gets wrong
@example(_VACUUM, complex(math.log(100.0), 2.5), "gk", continuum.DEFAULT_QUAD)
@example(_VACUUM, complex(math.log(100.0), 2.5), "ts", continuum.DEFAULT_QUAD)
def test_nu_integral_matches_frozen_route(model, log_zeta, scheme, cfg):
    """Cold (every node set dropped), then warm, then warm at a second
    zeta on the same sets, against the route with no sets, which has no
    refusal of a log-integrand past the float range (assert_same_nu_outcome)."""
    continuum._node_sets.cache_clear()
    got = [_outcome(continuum._nu_integral, model, log_zeta, cfg, scheme) for _ in range(2)]
    assert got[0] == got[1]
    assert_same_nu_outcome(got[0], _outcome(nu_integral, model, log_zeta, cfg, scheme))
    other = log_zeta + 0.01
    assert_same_nu_outcome(
        _outcome(continuum._nu_integral, model, other, cfg, scheme),
        _outcome(nu_integral, model, other, cfg, scheme),
    )


def test_second_nu_on_a_range_makes_no_log_rho_call(monkeypatch):
    """Once the node sets hold what a nu needs, a nu at another zeta with
    the same e_hi (tanh-sinh) or at the same zeta (Gauss-Kronrod, whose
    adaptive nodes depend on zeta) forms no log rho at all."""
    sizes = []
    log_rho_vec = continuum._log_rho_vec

    def counted(params, ks):
        sizes.append(np.size(ks))
        return log_rho_vec(params, ks)

    continuum._node_sets.cache_clear()
    monkeypatch.setattr(continuum, "_log_rho_vec", counted)
    zeta, other = 2.5, 2.6
    assert continuum._e_max(_WRIGHT, math.log(other)) == continuum._e_max(_WRIGHT, math.log(zeta))
    continuum.nu(_WRIGHT, zeta, scheme="ts")
    continuum.nu(_WRIGHT, zeta, scheme="gk")
    assert sizes
    sizes.clear()
    continuum.nu(_WRIGHT, other, scheme="ts")
    continuum.nu(_WRIGHT, zeta, scheme="gk")
    continuum.state_density(_WRIGHT, zeta**0.5, 1.5)
    assert sizes == []


def _sets_of(hi_values, params):
    """(builder, args) of each range's grid and every tanh-sinh level, and
    of 200 Gauss-Kronrod subintervals, in the order they are stored."""
    keys = []
    for hi in hi_values:
        keys.append((continuum._rho_grid, (params, hi)))
        keys += [(continuum._ts_level, (params, hi, level)) for level in range(-1, continuum._TS_MAX_LEVEL + 1)]
        edges = np.linspace(0.0, hi, 201).tolist()
        keys += [(continuum._gk_subinterval, (params, a, b)) for a, b in zip(edges, edges[1:])]
    return keys


def _fill(cache, keys):
    for builder, args in keys:
        cache(builder, *args)
        assert cache.nbytes <= cache.max_bytes


def test_retained_bytes_stay_under_the_cap():
    """Ranges taken to the last tanh-sinh level hold 32,768 nodes each
    (about 0.66 MB); eight of them pass the cap, and the oldest sets go."""
    assert continuum._TABLE_BYTES == 1 << 22
    cache = continuum._node_sets
    cache.cache_clear()
    params = _WRIGHT.params
    hi_values = [8.0 * 1.5**j for j in range(8)]
    _fill(cache, _sets_of(hi_values[:1], params))  # the column table and numpy's lazy state
    cache.cache_clear()
    keys = _sets_of(hi_values, params)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _fill(cache, keys)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    kept = list(cache._sets)
    assert 1 < len(kept) < len(keys) and kept == keys[-len(kept) :]
    assert 1 < len({args[1] for builder, args in kept if builder is continuum._ts_level}) < len(hi_values)
    assert cache.nbytes == sum(size for _, size in cache._sets.values()) <= continuum._TABLE_BYTES
    # what the sets are charged covers what they hold
    assert retained <= cache.nbytes
    cache.cache_clear()


def test_concurrent_nu_matches_serial(monkeypatch):
    """Threads share the node sets while the cap keeps dropping them; every
    value is the serial one, and the byte count stays the sets' sum."""
    models = [CoherentModel(FWParams([(1.0 + 0.01 * i, 0.9)], [(2.0, 1.1)])) for i in range(4)]
    jobs = [(m, zeta, s) for m in models for zeta in (0.4, 2.5, 9.0) for s in continuum.SCHEMES]
    expect = [_outcome(continuum.nu_with_error, m, zeta, continuum.DEFAULT_QUAD, s) for m, zeta, s in jobs]
    cache = continuum._node_sets
    cache.cache_clear()
    monkeypatch.setattr(cache, "max_bytes", 64 * 1024)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(_outcome, continuum.nu_with_error, m, zeta, continuum.DEFAULT_QUAD, s)
                for m, zeta, s in jobs * 3
            ]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == expect * 3
    assert cache.nbytes == sum(size for _, size in cache._sets.values()) <= 64 * 1024
    cache.cache_clear()
