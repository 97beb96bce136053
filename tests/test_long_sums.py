"""Frozen results of long Fox-Wright sums, and the max_terms check.

evaluate sums blocks of up to foxwright._BLOCK_CAP terms past k = 992,
screens the stop test on those long blocks, and grows its column table
in chunks of foxwright._GROW_CHUNK columns.  None of that may move a
bit.  The expected strings below are repr(result), or the error's type
and text, as blocks capped at 512 terms gave them; they were taken from
that code.
"""

import cmath
import math

import pytest

from fwstates.bicomplex import compose_idempotent
from fwstates.errors import FWError, ValidationError
from fwstates.foxwright import FWParams, _column_cache, evaluate, radius
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
)

FROZEN = [
    'EvalResult(value=np.complex128(3.3669749522908434+0j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.4584256782463374+0.4645206299368158j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.171416031984139+0.3347244052427393j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.046263628782336+0.16949650697992263j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.0099324657824074+8.645448617591354e-18j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.046263628782337-0.1694965069799219j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.171416031984139-0.3347244052427393j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(2.4584256782463374-0.4645206299368158j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(3.57917908191157+0j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.9376376323222917+0.5488192577798311j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.6398155351440014+0.360447373057018j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.5222524002417557+0.17594059389361483j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.4894158697250388-1.3652373763460725e-16j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.5222524002417528-0.1759405938936135j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.6398155351440014-0.36044737305701796j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(1.9376376323222932-0.5488192577798293j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(2.833360649831944+0.43602051991189683j), terms_used=1000, tail_bound=np.float64(0.004979177835686899))',
    'EvalResult(value=np.complex128(2.8333701394468034+0.4360234653517076j), terms_used=1500, tail_bound=np.float64(0.00359916761009028))',
    'EvalResult(value=np.complex128(2.8333731729034914+0.43601903824291177j), terms_used=4097, tail_bound=np.float64(0.0016106369872263175))',
    'EvalResult(value=np.complex128(2.8333738312085406+0.4360183583133892j), terms_used=10000, tail_bound=np.float64(0.0007887416389881244))',
    'EvalResult(value=np.complex128(1.4894005631494953-7.688729676445742e-17j), terms_used=1000, tail_bound=np.float64(0.06327371044644223))',
    'EvalResult(value=np.complex128(1.4894077648314725-7.350320989832612e-17j), terms_used=1500, tail_bound=np.float64(0.05165510245682092))',
    'EvalResult(value=np.complex128(1.489418276218154-9.892253791530186e-17j), terms_used=4097, tail_bound=np.float64(0.031249580220705904))',
    'EvalResult(value=np.complex128(1.4894158697250388-1.3652373763460725e-16j), terms_used=10000, tail_bound=np.float64(0.020000890040838104))',
    'EvalResult(value=np.complex128(4.651687056549292+0j), terms_used=2288, tail_bound=np.float64(1.6735778917092273e-12))',
    'EvalResult(value=np.complex128(0.6950854936731283-1.7662547606352228e-16j), terms_used=2470, tail_bound=np.float64(2.4887565587909433e-13))',
    'EvalResult(value=np.complex128(0.7882556364309435+0.34502391337455074j), terms_used=2450, tail_bound=np.float64(3.0676956287605947e-13))',
    'PoleError: upper gamma pole at k=1024 (argument 0j)',
    'EvalResult(value=np.complex128(-305.2425994256265-3.7381437133764715e-14j), terms_used=1093, tail_bound=np.float64(1.0961240246192287e-10))',
    'EvalResult(value=np.complex128(-4.4301878874462775-4.303258246702436j), terms_used=1252, tail_bound=np.float64(2.171193032034205e-12))',
    'PoleError: upper gamma pole at k=1792 (argument 0j)',
    'EvalResult(value=np.complex128(1.7487852751702166+7.217652668266313e-21j), terms_used=2328, tail_bound=np.float64(6.294187627960065e-13))',
    'EvalResult(value=np.complex128(0.32576401986093156-0.14156359599987203j), terms_used=2508, tail_bound=np.float64(1.2760731488408236e-13))',
    'Bicomplex((2.8333738312085406+0.4360183583133892j), (1.4894158697250388-1.3652373763460725e-16j))',
    'Bicomplex((-305.2425994256265-3.7381437133764715e-14j), (2.562986276896471+0j))',
    'PoleError: component 2: upper gamma pole at k=1792 (argument 0j)',
]


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the error's type and text."""
    try:
        return repr(fn(*args, **kwargs))
    except (FWError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("case", range(len(FROZEN_CASES)))
def test_long_sums_match_frozen_results(case):
    fn, params, z, kwargs = FROZEN_CASES[case]
    _column_cache.cache_clear()
    assert _outcome(fn, params, z, **kwargs) == FROZEN[case]
    # and again from the grown column table
    assert _outcome(fn, params, z, **kwargs) == FROZEN[case]


@pytest.mark.parametrize("max_terms", [0, -5])
@pytest.mark.parametrize("z", [cmath.exp(0.7j), 0.5, 0.0])
def test_max_terms_below_one_is_refused(z, max_terms):
    # on the circle such a call returned 0j with a zero tail bound
    with pytest.raises(ValidationError, match="^max_terms must be >= 1$"):
        evaluate(GAUSS_A, z, allow_boundary=True, max_terms=max_terms)
    params = BCFWParams.from_components(GAUSS_A, GAUSS_B)
    with pytest.raises(ValidationError, match="^component 1: max_terms must be >= 1$"):
        evaluate_bc(params, compose_idempotent(z, z), max_terms=max_terms, allow_boundary=True)
