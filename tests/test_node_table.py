"""The nu node tables: one per (params, hi), bounded by retained bytes.

Every part of a nu quadrature that does not depend on zeta comes from
the range's table: _e_max's log-rho grid, log rho at the Gauss-Kronrod
nodes, and the tanh-sinh levels with log rho on their nodes.  The frozen
route in _frozen.py forms all of them afresh at every call; every output
and every error must match it bit for bit, cold and warm.
"""

import gc
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from _frozen import nu_integral
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
    """Cold (every table dropped), then warm, then warm at a second zeta
    on the same tables, against the route with no tables."""
    continuum._node_table.cache_clear()
    got = [_outcome(continuum._nu_integral, model, log_zeta, cfg, scheme) for _ in range(2)]
    assert got[0] == got[1] == _outcome(nu_integral, model, log_zeta, cfg, scheme)
    other = log_zeta + 0.01
    assert _outcome(continuum._nu_integral, model, other, cfg, scheme) == _outcome(
        nu_integral, model, other, cfg, scheme
    )


def test_second_nu_on_a_range_makes_no_log_rho_call(monkeypatch):
    """Once a range's tables hold what a nu needs, a nu at another zeta with
    the same e_hi (tanh-sinh) or at the same zeta (Gauss-Kronrod, whose
    adaptive nodes depend on zeta) forms no log rho at all."""
    sizes = []
    log_rho_vec = continuum._log_rho_vec

    def counted(params, ks):
        sizes.append(np.size(ks))
        return log_rho_vec(params, ks)

    continuum._node_table.cache_clear()
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


def _fill(cache, hi_values, params):
    """Every tanh-sinh level of each range, and 500 Gauss-Kronrod nodes."""
    for hi in hi_values:
        table = cache(params, hi)
        for level in range(-1, continuum._TS_MAX_LEVEL + 1):
            table.ts_nodes(level)
        for E in np.linspace(0.0, hi, 500).tolist():
            table.log_rho_at(E)
        assert cache.nbytes <= cache.max_bytes


def test_retained_bytes_stay_under_the_cap():
    """Ranges taken to the last tanh-sinh level hold 32,768 nodes each
    (about 0.66 MB); eight of them pass the cap, and the oldest go."""
    assert continuum._TABLE_BYTES == 1 << 22
    cache = continuum._node_table
    cache.cache_clear()
    params = _WRIGHT.params
    hi_values = [8.0 * 1.5**j for j in range(8)]
    _fill(cache, hi_values[:1], params)  # the column table and numpy's lazy state
    cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _fill(cache, hi_values, params)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    tables = list(cache._tables.values())
    assert 1 < len(tables) < len(hi_values)
    assert [t.hi for t in tables] == hi_values[-len(tables) :]
    assert cache.nbytes == sum(t.nbytes for t in tables) <= continuum._TABLE_BYTES
    # what the tables charge covers what they hold
    assert retained <= cache.nbytes
    cache.cache_clear()


def test_concurrent_nu_matches_serial(monkeypatch):
    """Threads share the tables while the cap keeps dropping them; every
    value is the serial one, and the byte count stays the tables' sum."""
    models = [CoherentModel(FWParams([(1.0 + 0.01 * i, 0.9)], [(2.0, 1.1)])) for i in range(4)]
    jobs = [(m, zeta, s) for m in models for zeta in (0.4, 2.5, 9.0) for s in continuum.SCHEMES]
    expect = [_outcome(continuum.nu_with_error, m, zeta, continuum.DEFAULT_QUAD, s) for m, zeta, s in jobs]
    cache = continuum._node_table
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
    assert cache.nbytes == sum(t.nbytes for t in cache._tables.values()) <= 64 * 1024
    cache.cache_clear()
