"""Frozen results of long Fox-Wright sums.

evaluate sums blocks that double up to foxwright._BLOCK_CAP terms and
grows its column table in chunks of foxwright._GROW_CHUNK columns.
Neither may move a bit.  The expected strings below are repr(result),
or the error's type and text, as blocks capped at 512 terms gave them;
they were taken from that code.  A None marks a boundary call that
evaluate now takes by Levin transforms: its value is checked against
mpmath's 2F1 instead, with the error within tail_bound and tail_bound
within 1e-6 |value|.  The capped sums at phases below
foxwright._LEVIN_MIN_PHASE, at the end of the list, keep long boundary
sums frozen.  A case's max_terms is the series length it runs at
(series_length).
"""

import cmath
import math

import pytest
from _frozen import gauss_psi, series_length, takes_levin_route

from fwstates.bicomplex import compose_idempotent
from fwstates.errors import FWError
from fwstates.foxwright import FWParams, evaluate, radius
from fwstates.foxwright_bc import BCFWParams
from fwstates.foxwright_bc import evaluate as evaluate_bc

# the benchmark's boundary models; Delta = 0, radius 1, lambda 1.3 and 1.0
GAUSS_A = FWParams([(0.5, 1.0), (0.7, 1.0)], [(2.0, 1.0)])
GAUSS_B = FWParams([(0.6, 1.0), (0.8, 1.0)], [(1.9, 1.0)])
# Delta = 0 with lambda = 1/2, so only points inside the circle are summed
SLOW = FWParams([(1.0, 1.0), (1.0, 1.0)], [(2.0, 1.0)])
# Delta = 0, radius 1; the upper argument -0.5 + k/2048 is 0 at k = 1024,
# and -0.875 + k/2048 is 0 at k = 1792
POLE_1024 = FWParams([(1.0, 1.0), (-0.5, 2.0**-11)], [(2.0, 2.0**-11)])
POLE_1792 = FWParams([(1.0, 1.0), (-0.875, 2.0**-11)], [(2.0, 2.0**-11)])
# Delta = 0; the lower argument -1.46875 + k/1024 is -1 at k = 480 and 0 at
# k = 1504, where the second chunk of a 992 -> 2016 growth starts
LOWER_EDGE = FWParams([(1.0, 1.0), (1.0, 1.0 + 2.0**-10)], [(2.0, 1.0), (-1.46875, 2.0**-10)])

CIRCLE = [cmath.exp(1j * math.pi * j / 4) for j in range(8)]
BOUNDARY = {"allow_boundary": True}
# phases below the Levin route's, where the capped sum still runs
SLOW_A, SLOW_B = cmath.exp(0.01j), cmath.exp(-0.015j)

FROZEN_CASES = (
    [(evaluate, GAUSS_A, z, BOUNDARY) for z in CIRCLE]
    + [(evaluate, GAUSS_B, z, BOUNDARY) for z in CIRCLE]
    + [
        (evaluate, params, z, {"allow_boundary": True, "max_terms": m})
        for params, z in ((GAUSS_A, cmath.exp(0.3j)), (GAUSS_B, -1.0))
        for m in (1000, 1500, 4097, 10000)
    ]
    + [(evaluate, SLOW, z, {}) for z in (0.99, -0.99, 0.99j)]
    + [
        # the sum reaches the pole at k = 1024
        (evaluate, POLE_1024, 0.99, {}),
        # stops near k = 1270, before the pole at 1792 in the same long block
        (evaluate, POLE_1792, 0.975, {}),
        (evaluate, POLE_1792, 0.975j, {}),
        # runs past 1792
        (evaluate, POLE_1792, 0.99, {}),
        (evaluate, LOWER_EDGE, 0.99 * radius(LOWER_EDGE), {}),
        (evaluate, LOWER_EDGE, -0.99j * radius(LOWER_EDGE), {}),
        (
            evaluate_bc,
            BCFWParams.from_components(GAUSS_A, GAUSS_B),
            compose_idempotent(cmath.exp(0.3j), -1.0),
            BOUNDARY,
        ),
        (
            evaluate_bc,
            BCFWParams.from_components(POLE_1792, GAUSS_A),
            compose_idempotent(0.975, 0.5),
            {},
        ),
        (
            evaluate_bc,
            BCFWParams.from_components(GAUSS_A, POLE_1792),
            compose_idempotent(0.5, 0.99),
            {},
        ),
    ]
    + [
        (evaluate, params, z, {"allow_boundary": True, "max_terms": m})
        for params, z in ((GAUSS_A, SLOW_A), (GAUSS_B, SLOW_B))
        for m in (1000, 1500, 4097, 10000)
    ]
    + [
        (
            evaluate_bc,
            BCFWParams.from_components(GAUSS_A, GAUSS_B),
            compose_idempotent(SLOW_A, SLOW_B),
            BOUNDARY,
        )
    ]
)

FROZEN = [
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    'EvalResult(value=np.complex128(4.651687056549292+0j), terms_used=2288, tail_bound=np.float64(1.6735778917092273e-12))',
    'EvalResult(value=np.complex128(0.6950854936731283-1.7662547606352228e-16j), terms_used=2470, tail_bound=np.float64(2.4887565587909433e-13))',
    'EvalResult(value=np.complex128(0.7882556364309435+0.34502391337455074j), terms_used=2450, tail_bound=np.float64(3.0676956287605947e-13))',
    'PoleError: upper gamma pole at k=1024 (argument 0j)',
    'EvalResult(value=np.complex128(-305.2425994256265-3.7381437133764715e-14j), terms_used=1093, tail_bound=np.float64(1.0961240246192287e-10))',
    'EvalResult(value=np.complex128(-4.4301878874462775-4.303258246702436j), terms_used=1252, tail_bound=np.float64(2.171193032034205e-12))',
    'PoleError: upper gamma pole at k=1792 (argument 0j)',
    'EvalResult(value=np.complex128(1.7487852751702166+7.217652668266313e-21j), terms_used=2328, tail_bound=np.float64(6.294187627960065e-13))',
    'EvalResult(value=np.complex128(0.32576401986093156-0.14156359599987203j), terms_used=2508, tail_bound=np.float64(1.2760731488408236e-13))',
    None,
    'Bicomplex((-305.2425994256265-3.7381437133764715e-14j), (2.562986276896471+0j))',
    'PoleError: component 2: upper gamma pole at k=1792 (argument 0j)',
    'EvalResult(value=np.complex128(3.323676086361651+0.07881295215752712j), terms_used=1000, tail_bound=np.float64(0.004979177835686899))',
    'EvalResult(value=np.complex128(3.3239660035616203+0.07858484646545154j), terms_used=1500, tail_bound=np.float64(0.00359916761009028))',
    'EvalResult(value=np.complex128(3.3238239413722828+0.07848844972201514j), terms_used=4097, tail_bound=np.float64(0.0016106369872263178))',
    'EvalResult(value=np.complex128(3.3238231478886826+0.07845180748885908j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(3.296594133435041-0.2598249352566513j), terms_used=1000, tail_bound=np.float64(0.06327371044644223))',
    'EvalResult(value=np.complex128(3.2945983430782246-0.25942743722876493j), terms_used=1500, tail_bound=np.float64(0.05165510245682092))',
    'EvalResult(value=np.complex128(3.29482914063456-0.2583513999057352j), terms_used=4097, tail_bound=np.float64(0.0312495802207059))',
    'EvalResult(value=np.complex128(3.295031379071355-0.25834662165173883j), terms_used=10000, tail_bound=np.float64(0.0200008900408381))',
    'Bicomplex((3.3238231478886826+0.07845180748885908j), (3.295031379071355-0.25834662165173883j))',
]


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the error's type and text."""
    try:
        return repr(fn(*args, **kwargs))
    except (FWError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_levin_matches_mpmath(fn, params, z, **kwargs):
    """Each component on the Levin route, against mpmath's 2F1."""
    parts = zip(params.decompose(), z.decompose()) if fn is evaluate_bc else [(params, z)]
    values = []
    for comp, zc in parts:
        assert takes_levin_route(comp, zc)
        res = evaluate(comp, zc, **kwargs)
        assert abs(res.value - gauss_psi(comp, zc)) <= res.tail_bound <= 1e-6 * abs(res.value)
        values.append(res.value)
    if fn is evaluate_bc:
        assert fn(params, z, **kwargs).decompose() == tuple(values)


@pytest.mark.parametrize("case", range(len(FROZEN_CASES)))
def test_long_sums_match_frozen_results(case):
    fn, params, z, kwargs = FROZEN_CASES[case]
    kwargs = dict(kwargs)
    with series_length(kwargs.pop("max_terms", 10000)):
        if FROZEN[case] is None:
            _assert_levin_matches_mpmath(fn, params, z, **kwargs)
            return
        assert _outcome(fn, params, z, **kwargs) == FROZEN[case]
        # and again from the grown column table
        assert _outcome(fn, params, z, **kwargs) == FROZEN[case]
