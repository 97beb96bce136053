"""The defect ledger: each wrong value returned with no error that
ROADMAP.md names, as one strict xfail.

A case holds the package to the north-star contract: the value lies
within 1e-10 relative of a frozen reference, or the call refuses with a
numeric failure, one of the errors the CLI maps to exit 3.  The
boundary cases (item 9) and the vacuum states (items 7(b) and 7(c)) are
held to their items' own contracts, which a refusal does not meet; the
loose-tol cases (item 1(a)) to an error within tail_bound, or a numeric
failure.  Every reference is a literal from a 45-digit (or finer)
mpmath computation on the float inputs as given, with each gamma
argument formed as a + k*mpf(A), since forming a + k*A in float64 first
moves the reference itself.

Each case fails today for the reason its marker states, so tier-1's
xfailed count is the count of known open defects.  A fix shows as an
XPASS, which strict=True turns into a failure until the fix removes
that case's marker.  The seed-905 overlap's strict xfail lives in
test_states.py and is not repeated here.
"""

import cmath
import json

import mpmath
import pytest

from fwstates.cli import main
from fwstates.coherent import CoherentModel, make_state, overlap
from fwstates.continuum import overlap_tilde
from fwstates.errors import (
    ContourFailure,
    MaxTermsExceeded,
    PoleError,
    QuadratureFailure,
    SingularElement,
    TruncationError,
)
from fwstates.foxwright import FWParams, evaluate
from fwstates.hfunction import HWeightParams, eval_h

# what the CLI reports as a numeric failure (exit 3)
_NUMERIC_FAILURES = (
    PoleError,
    MaxTermsExceeded,
    TruncationError,
    QuadratureFailure,
    ContourFailure,
    SingularElement,
    OverflowError,
)


def _holds(call, ref, rel=1e-10):
    """The contract: call() within rel of ref, or a numeric failure."""
    try:
        value = call()
    except _NUMERIC_FAILURES:
        return
    assert abs(value - ref) <= rel * abs(ref), f"{value!r} against {ref!r}"


# -- item 1: series cancellation on the negative real axis ------------------

_ITEM1_MODELS = {
    "exp": FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]),
    "upper-lower": FWParams(upper=[(1.2, 0.7)], lower=[(2.1, 0.4)]),
    "wright": FWParams(upper=[], lower=[(1.5, 0.5)]),
}
# psi(z), summed by mpmath at 160 digits (200 agree to 110 digits or more);
# the imaginary parts, from the phase k i pi of log z, are below 1e-110
_ITEM1_CELLS = [
    ("exp", -10.0, 4.539992976248485153559152e-5, "1.4e-7"),
    ("exp", -20.0, 2.06115362243855782796594e-9, "5.8e2"),
    ("exp", -30.0, 9.357622968840174604915832e-14, "7.8e9"),
    ("upper-lower", -10.0, 0.02633025923594589151364131, "4.4e-5"),
    ("upper-lower", -20.0, 0.008406071069611129794220189, "3.3e12"),
    ("upper-lower", -30.0, 0.004246067424916519793828282, "3.2e33"),
    ("wright", -10.0, 0.002096310264261040912121638, "1.6e-10"),
    ("wright", -20.0, -0.0001139865284178508234517551, "7.7e-7"),
    ("wright", -30.0, 4.715941581083147401768348e-6, "7.5e-4"),
]


@pytest.mark.parametrize(
    "model, z, ref",
    [
        pytest.param(
            model, z, ref,
            id=f"{model}-z{z:g}",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"series cancellation: relative error {err} with exit 0 (ROADMAP item 1)",
            ),
        )
        for model, z, ref, err in _ITEM1_CELLS
    ],
)
def test_series_on_the_negative_axis(model, z, ref):
    _holds(lambda: evaluate(_ITEM1_MODELS[model], z).value, ref)


# -- item 1(d): the overlap whose N(conj(z) z') cancels by about 1e83 --------

_ITEM1D_MODEL = CoherentModel(
    FWParams(
        upper=[(2.929550738930658, 1.4472416378738564), (2.0862003957136137, 0.831315097839454)],
        lower=[(2.668222991444634, 0.520648631953876), (1.6246481863813942, 1.0825954364681925)],
    )
)
# the three N series at 150 digits, conj(z) z' formed exactly (200 digits agree)
_ITEM1D_OVERLAP = 4.222874431568624654286064e-84 + 8.587321111785026376811062e-85j


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="series cancellation past float64: returns 2.1e-13+3.0e-13j (ROADMAP item 1(d))",
)
def test_overlap_whose_normalization_cancels():
    z, zp = 2.46744398865572, 2.3797241532920346 + 0.652068088002898j
    _holds(lambda: overlap(_ITEM1D_MODEL, z, zp), _ITEM1D_OVERLAP)


# -- item 6: tanh-sinh on the oscillating complex nu integrand ----------------

_VACUUM = CoherentModel(FWParams(upper=[], lower=[]))
# nu(conj(z) z') on the ray E = r e^{1.3i} (1.1 agrees) over nu(100) on the
# real axis, both by mpmath quadrature at 50 digits
_ITEM6_OVERLAP = -5.746895107571607524089204e-45 + 2.431646144198109387336737e-45j


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="tanh-sinh aliases zeta^E: returns 0.27-0.94j (ROADMAP item 6)",
)
def test_overlap_tilde_ts_on_the_vacuum_model():
    zp = 10.0 * cmath.exp(2.5j)
    _holds(lambda: overlap_tilde(_VACUUM, 10.0, zp, scheme="ts"), _ITEM6_OVERLAP)


# -- item 7(b): the vacuum state past the float range of N ---------------------


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="N(729) = e^729 is formed itself and overflows (ROADMAP item 7(b))",
)
def test_vacuum_state_at_27_gives_the_poisson_weights():
    z = 27.0
    state = make_state(_VACUUM, z)
    mean = z * z
    with mpmath.workdps(30):
        for k, c in enumerate(state.coeffs):
            weight = mpmath.exp(k * mpmath.log(mean) - mean - mpmath.loggamma(k + 1))
            if weight > 1e-250:
                assert abs(abs(c) ** 2 - weight) <= 1e-10 * weight, k
    assert len(state.coeffs) > mean + 10 * z


# -- item 7(c): log rho(0) of the column table is -8.9e-16, not 0 ---------------

# c_0 = 1/sqrt(1 + |z|^2) on the vacuum model by mpmath at 45 digits, which
# rounds to 1.0 at both z below; the contract, which a refusal does not
# meet, is |c_0| <= 1 and sum |c_k|^2 <= 1
_ITEM7C_C0 = 1.0
_ITEM7C = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="c_0 = 1.0000000000000004 and sum |c_k|^2 = 1.0000000000000009 with exit 0 (ROADMAP item 7(c))",
)


def _probabilities_at_most_one(coeffs):
    assert abs(coeffs[0] - _ITEM7C_C0) <= 1e-10
    assert abs(coeffs[0]) <= 1.0, coeffs[0]
    assert sum(abs(c) ** 2 for c in coeffs) <= 1.0


@_ITEM7C
@pytest.mark.parametrize("K, z", [(2, 1e-200), (1, 2.2250738585072014e-308)])
def test_tiny_state_has_probabilities_at_most_one(K, z):
    _probabilities_at_most_one(make_state(CoherentModel(FWParams(), K), z).coeffs)


@_ITEM7C
def test_cs_coeffs_at_a_tiny_z_has_probabilities_at_most_one(tmp_path, capsys):
    path = tmp_path / "vacuum.json"
    path.write_text('{"upper": [], "lower": []}\n', encoding="utf-8")
    code = main(["cs", "coeffs", "--params", str(path), "--z", "1e-200", "--K", "2"])
    out = capsys.readouterr().out
    assert code == 0
    _probabilities_at_most_one([complex(*c) for c in json.loads(out)["coeffs"]])


# -- item 9: the capped sum next to the convergence circle's real point -------

_GAUSS = FWParams(upper=[(1.0, 1.0), (1.0, 1.0)], lower=[(2.2, 1.0)])


# 2F1(1, 1; 2.2; z) / Gamma(2.2) by mpmath at 50 digits (80 agree to 50)
_ITEM9_POINTS = [
    (1e-100, 5.445622105291676982012531 + 1.798833834486920298925252e-20j,
     "error 0.79 above its tail_bound"),
    (1e-3, 4.055474894650717678224384 + 0.4465690317565437422325064j, "error 1.6e-2"),
    (0.0199, 2.933362372001312546439197 + 0.7415051849729450469704717j, "error 8.0e-4"),
]


@pytest.mark.parametrize(
    "phase, ref",
    [
        pytest.param(
            phase, ref,
            id=f"phase{phase:g}",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"the capped sum of 10,000 terms: {err} (ROADMAP item 9)",
            ),
        )
        for phase, ref, err in _ITEM9_POINTS
    ],
)
def test_boundary_value_next_to_the_real_axis(phase, ref):
    res = evaluate(_GAUSS, cmath.exp(1j * phase), allow_boundary=True)
    err = abs(res.value - ref)
    assert err <= 1e-12 * abs(ref) and err <= res.tail_bound, (err, res.tail_bound)


# -- item 16: a cancelling H line ----------------------------------------------

_ITEM16_BLOCK = HWeightParams(
    upper=[(0.763, 0.840)], lower=[(0.0, 1.0), (1.43, 1.47), (1.02, 1.48)]
)
_ITEM16_X = 1.0483
# the line integral at Re s = 1 by mpmath quadrature at 50 digits (Re s = 2 agrees)
_ITEM16_H = 0.3199325017612838267558814


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 16-eps stop on a cancelling line: relative error 1.2e-8 (ROADMAP item 16)",
)
def test_h_on_a_cancelling_line():
    _holds(lambda: eval_h(_ITEM16_BLOCK, _ITEM16_X), _ITEM16_H)


# the nine cold blocks of perfbench's `measure` (its draw of a fresh kernel
# block and an x, 300 draws on numpy's default_rng(11)) with x <= 1.32
# where eval_h misses the line integral by more than 1e-10: (draw, upper,
# lower, x, H(x), eval_h's relative error).  H(x) is the line integral on
# Re s = c + 1 by mpmath quadrature at 45 digits, c the rightmost
# numerator pole or 0; Re s = c + 2 agrees to 30 digits
_ITEM16_COLD_BLOCKS = [
    (
        10, [],
        [(0.0, 1.0), (0.2786631732673883, 1.3529199944545276), (0.07128777236459216, 0.8151827471434316)],
        0.2606899775655325, 0.665859345501671569699411415408, "1.1e-09",
    ),
    (
        40, [],
        [(0.0, 1.0), (0.6247186129026066, 0.6831359775564037), (-0.13302600489139205, 1.2206565393341178)],
        0.3997824216900355, 0.433507913935258437395293278337, "2.8e-10",
    ),
    (
        56, [(0.10255767778014069, 0.6807353202383575)],
        [(0.0, 1.0), (1.1396425144576017, 1.206829739510714), (1.4401530125041404, 1.2798000832637797)],
        0.7399009480591878, 0.158405179176496944192842843229, "2.8e-08",
    ),
    (
        58, [],
        [(0.0, 1.0), (1.7002256147803576, 0.8874704368907846), (-0.12114531020926167, 1.4268322690509891)],
        0.6241505463984593, 0.373040985031401094421078446196, "2.5e-10",
    ),
    (
        71, [(1.570127756620537, 0.5414451495581887)],
        [(0.0, 1.0), (0.6037951119717075, 1.4216249699129067), (0.6340710254735225, 1.4752157608898995)],
        1.3183045028075124, 0.147569488414886229904958169597, "1.3e-09",
    ),
    (
        96, [(0.7113056091417823, 0.7636228567449778)],
        [(0.0, 1.0), (1.4975103239532048, 1.2648965343551692), (1.7373227868638437, 0.721399452153611)],
        0.8169217781513635, 0.463181327793230264952257300118, "1.4e-10",
    ),
    (
        175, [],
        [(0.0, 1.0), (2.091596175843247, 0.7209624417803934), (0.3221043022840273, 1.0418621609806369)],
        0.2511209929280155, 0.853916932621157883484130898981, "2.1e-09",
    ),
    (
        236, [],
        [(0.0, 1.0), (0.23378116195654952, 1.0068077277600431), (0.13134232022728654, 1.0601712790564246)],
        0.3806470394909075, 0.436030015021027210758902777517, "1.2e-10",
    ),
    (
        285, [(0.2696762640722039, 1.283289764139803)],
        [(0.0, 1.0), (2.246378238408648, 0.6860867120098554), (0.9042575694936239, 1.4719065946519143)],
        0.36174138035684844, 0.555641802655260712620887207842, "2.2e-10",
    ),
]


@pytest.mark.parametrize(
    "upper, lower, x, ref",
    [
        pytest.param(
            upper, lower, x, ref,
            id=f"cold-draw{draw}",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"the 16-eps stop on a cancelling line: relative error {err} (ROADMAP item 16)",
            ),
        )
        for draw, upper, lower, x, ref, err in _ITEM16_COLD_BLOCKS
    ],
)
def test_h_on_a_cancelling_cold_line(upper, lower, x, ref):
    _holds(lambda: eval_h(HWeightParams(upper=upper, lower=lower), x), ref)



# -- item 1: a loose tol, whose geometric tail sits below the error ------------

_LOOSE_TOL_CASES = [
    # psi = e^z: 3 terms, value 61, tail_bound 1800 (fw eval --z 10 --tol 1)
    pytest.param(
        FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]), 10.0, 1.0,
        22026.4657948067165169579 + 0j,
        id="exp-z10-tol1",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="error 2.2e4 above tail_bound 1.8e3 with exit 0 (ROADMAP item 1(a))",
        ),
    ),
    # from a scan of random entire models at tol 0.1: 371 terms
    pytest.param(
        FWParams(upper=[(2.157313209320754, 0.5990216804228805)], lower=[]),
        15.77166146598711 - 0.6967531530946957j, 0.1,
        2.944464004897507129443885e82 - 1.001726288040243709196653e83j,
        id="one-upper-tol0.1",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="error 1.1e83, 25 times tail_bound, with exit 0 (ROADMAP item 1(a))",
        ),
    ),
]


@pytest.mark.parametrize("params, z, tol, ref", _LOOSE_TOL_CASES)
def test_loose_tol_tail_bound_covers_the_error(params, z, tol, ref):
    try:
        res = evaluate(params, z, tol=tol)
    except _NUMERIC_FAILURES:
        return
    err = abs(res.value - ref)
    assert err <= res.tail_bound, (err, res.tail_bound)


# -- items 1 and 2: a fixed sample of the benchmark's misses at seed 2921 ------

# perfbench's series models; 20 of the 439 left-half-plane misses of
# `series` at seed 2921 (every 22nd, in pass and draw order), psi(z) by an
# mpmath series at 160 digits (120 agree to 96 digits or more)
_BENCH_MODELS = {
    "exp": FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)]),
    "wright": FWParams(upper=[(1.3, 0.8)], lower=[(2.1, 1.1)]),
}
_SEED_2921_SERIES = [
    ("wright", (-16.66487961853153-1.972294843437413j),
     0.003797129645174390624369328 - 0.000499822496441164819588769j, "2.5e-10"),
    ("exp", (-8.14800090380676-0.9875794924223253j),
     0.0001593281807114542798451411 - 0.0002414883593389930591221185j, "3.3e-09"),
    ("exp", (-26.804328862509387-0.12577799172455473j),
     2.267689013286279479274964e-12 - 2.867390475462423893214586e-13j, "9.8e+07"),
    ("wright", (-21.573998876081696+0.4262600654451112j),
     0.002659713397356833257829264 + 0.00008360269979909865354718483j, "3.7e-09"),
    ("wright", (-14.65049884695166+0.5305946884566923j),
     0.004289747590066977694791122 + 0.000128971065963847455159562j, "1.7e-10"),
    ("wright", (-20.63578256974889+1.92824777705273j),
     0.002821149426517765046168536 + 0.0004110305815664941480045602j, "2.5e-09"),
    ("exp", (-15.311857795731848-0.1532704693793403j),
     0.0000002213213778893548834624105 - 3.419018176771328348660383e-8j, "0.019"),
    ("wright", (-14.768962909242708-0.10333016866640277j),
     0.004261071751143507483102619 - 0.00002517109665840815278839253j, "1.4e-10"),
    ("exp", (-26.94860873366693+0.26560566014409703j),
     1.909261452737423858715748e-12 + 5.193819823648877118184748e-13j, "7.1e+07"),
    ("wright", (-21.59322038752604+0.22860849384172344j),
     0.00265708185653840729340978 + 0.00004475835519337370210404091j, "4e-09"),
    ("wright", (-19.094787505427337-1.7774510920196471j),
     0.00317823353545914314232704 - 0.000421646550333190702805314j, "9.9e-10"),
    ("exp", (-24.761202835821756+0.062097592716083394j),
     1.759982544659554948696669e-11 + 1.094313752630380919591615e-12j, "1.5e+06"),
    ("exp", (-26.90071848560089-0.01120126498603602j),
     2.075578468533984375696108e-12 - 2.325007681632027948538925e-14j, "1.7e+08"),
    ("exp", (-26.86626364430622-0.5867432996239317j),
     1.789137164827076520712641e-12 - 1.189506407323606015721286e-12j, "6.5e+07"),
    ("exp", (-10.449908818354473+1.418776224169254j),
     0.000004384188605820879674910758 + 0.00002861702730981281190488666j, "4.8e-07"),
    ("wright", (-28.59784203168986-0.48867858950296705j),
     0.001670303813086741893630189 - 0.00004706450214932638971298261j, "7e-08"),
    ("wright", (-21.374141304878506+0.7633172872824989j),
     0.002695759206427915033023395 + 0.0001524104330343004780115122j, "2.7e-09"),
    ("exp", (-12.948757411167492-0.7650654033956852j),
     0.000001716186001556750381558917 - 0.000001647777903444212302903218j, "7.2e-05"),
    ("wright", (-27.557048674764893+0.2927038913042965j),
     0.001776601278100900620897456 + 0.00003127576551990936288026354j, "3.2e-08"),
    ("exp", (-22.343007752030086+0.092367867321824j),
     1.971059443193200470492381e-10 + 1.825821054475986579567797e-11j, "2.3e+04"),
]


@pytest.mark.parametrize(
    "model, z, ref",
    [
        pytest.param(
            model, z, ref,
            id=f"{model}-{z.real:.4f}{z.imag:+.4f}j",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"series cancellation: relative error {err} with exit 0 (ROADMAP item 2)",
            ),
        )
        for model, z, ref, err in _SEED_2921_SERIES
    ],
)
def test_benchmark_series_miss_at_seed_2921(model, z, ref):
    _holds(lambda: evaluate(_BENCH_MODELS[model], z).value, ref)


# the 19 overlap misses of `states` at seed 2921, all in its cancellation
# slice: (upper, lower, z, z', overlap), the three psi series by mpmath at
# 120 digits with conj(z) z' formed exactly (80 agree to 63 digits or more)
_SEED_2921_OVERLAPS = [
    (
        [(1.850955572249232, 1.4434763595640856), (1.038869240807314, 1.1996462649595938)],
        [(1.9850941972509504, 1.2424292768079712), (2.1569591475736996, 0.8166218340347088)],
        (1.3003530660893383+0.16258721584413569j), (1.5116633218388995-1.0133381365013812j),
        9.304454491126568122894671e-10 - 1.332579636999841083436811e-8j, "4e-09",
    ),
    (
        [(1.6181435158870208, 1.3599615599961514)],
        [(1.5747867401800482, 0.7702678904418273)],
        (1.3449045981048968-1.0834534779131861j), (-1.137358461728978-1.5510323509585853j),
        -2.48287780907393394451908e-18 - 9.403042720313650105556248e-18j, "3.7e+02",
    ),
    (
        [(1.7033231970988336, 0.5877933103967452), (1.200608194940886, 1.2659463093841503)],
        [(1.734729244984264, 0.75993686139595), (0.4615908582981524, 0.7007318537396338)],
        (-1.4810720446155943-0.3788439695014584j), (1.8053356575474062+0.335499803081598j),
        -0.000003148031727301533543802535 - 3.159370951335042111952313e-9j, "4.9e-10",
    ),
    (
        [(1.4708337498269732, 0.9425815118426399), (1.504698259779189, 0.7494634662611978)],
        [(0.3920752020875672, 0.6240014490155351), (1.2444174901475942, 0.6026564905624887)],
        (-1.9461462165124734+0.09429033336493003j), (1.1519409011045647+1.1539653781022081j),
        -3.969821061590452085790972e-8 + 8.024846092272323101729391e-8j, "9.9e-09",
    ),
    (
        [(1.484660526373749, 1.4238574071781755)],
        [(0.5619122703592865, 0.8505241428226333)],
        (0.03431446265115572+1.1544764885180623j), (-1.571488650543958+0.5982793025678055j),
        2.291151879104438124825176e-9 - 1.068357964847775341566157e-8j, "4.6e-09",
    ),
    (
        [(0.8779696874449225, 1.4989590990975368), (1.4266498609844738, 0.8939743138478631)],
        [(0.5677113524907706, 0.7338036599868316), (0.45927419972870115, 1.1001204837221639)],
        (-1.5572997259116599-0.30279914029144567j), (-1.2519470396694599+1.5224862859856785j),
        1.637422262318030654671076e-16 + 6.137882874207292294871999e-17j, "3.8",
    ),
    (
        [(0.8779696874449225, 1.4989590990975368), (1.4266498609844738, 0.8939743138478631)],
        [(0.5677113524907706, 0.7338036599868316), (0.45927419972870115, 1.1001204837221639)],
        (-1.2573849988769334+0.13535210954017268j), (0.08429678222392845+1.7335071353424278j),
        3.651734255938620895724611e-10 + 7.960416017685082763379924e-10j, "3.9e-07",
    ),
    (
        [(2.024767850161728, 1.2446711491317974), (2.840730821438522, 0.9256462115020998)],
        [(2.37801799469391, 0.5474748619219035), (0.41891355253765356, 1.1595491417985877)],
        (1.0174651577396163+1.3647782801476307j), (-1.355286320511549+0.4143528560809604j),
        0.000001906820928256434848974227 + 0.0000008337362436099681093527648j, "1.7e-10",
    ),
    (
        [(2.632762161610173, 1.0179191763880793)],
        [(1.4960886050133324, 0.6898985235038375)],
        (-0.8618190138564387+1.7238179914163434j), (1.2095740930922376-1.5581731756010369j),
        -5.767659674330992402852583e-8 - 1.880430017779146622326513e-8j, "3.8e-08",
    ),
    (
        [(0.5751475061909033, 1.0224066732385455), (0.7778060831392504, 0.9188270663176057)],
        [(1.3775899034915904, 0.6655521228580805), (1.0926819640798633, 0.7820683842447007)],
        (1.076790742367772-1.5747637476858756j), (-1.0957565815838533-1.6065741462095737j),
        0.000004673059014878346345093839 - 0.000004535871392757464320577856j, "6.6e-10",
    ),
    (
        [(1.8172334750768122, 0.987048418316288), (1.0264949639942917, 1.4170935861707687)],
        [(0.8771979897874889, 0.6994735937858149), (2.937891215668143, 1.1146560934352292)],
        (-1.6986522138090423-0.3449384152836863j), (-0.9726077207893654+1.524282153540755j),
        2.250289411388550592566374e-13 - 8.672754489689880684444543e-13j, "0.0061",
    ),
    (
        [(2.0427278246252, 1.3573594069529484), (2.6949803403809196, 0.9022729819500249)],
        [(1.9704807162433204, 1.145747234820973), (1.7580944214070426, 0.5361078579987826)],
        (0.21997695056839836-1.7702531355959534j), (1.0338201876771458+1.1911676909653244j),
        1.574939584213226266903755e-12 + 2.248094515017953118578621e-11j, "9.3e-05",
    ),
    (
        [(2.3206015658673564, 1.4683160995341293), (2.037925666822987, 0.9435147185500026)],
        [(0.585731300899695, 0.5317109448083635), (2.780266495893608, 1.3032250596870583)],
        (-0.04813766036538211-1.3491919213517958j), (1.797584904070675-0.7406077100713507j),
        4.717070832993031048025723e-12 - 5.219322749657415440500966e-12j, "1.2e-06",
    ),
    (
        [(2.3206015658673564, 1.4683160995341293), (2.037925666822987, 0.9435147185500026)],
        [(0.585731300899695, 0.5317109448083635), (2.780266495893608, 1.3032250596870583)],
        (-0.31421435266689246+1.8283136470299646j), (-1.2078064905899157+0.48643066449458777j),
        3.102490207199760417395506e-10 - 1.64543512066089591766863e-10j, "2.4e-07",
    ),
    (
        [(2.488763415925219, 1.3707143963889732), (0.9203500368384918, 1.1449313416041036)],
        [(2.673269739128543, 0.9775235966739322), (1.2620514503602107, 1.0422221058815329)],
        (0.3274803478244232-1.9210824542863942j), (-1.3102830057700423-1.2438760565355749j),
        -9.768690505050853652556366e-10 - 2.313978088563104750459289e-9j, "1.5e-06",
    ),
    (
        [(2.14885169951309, 1.3625542645628386), (2.459308782735702, 1.343735254507263)],
        [(1.2612354303723443, 1.37717080144136), (2.442396352036721, 0.9644798824865594)],
        (-0.8873326731465948-1.7069364142981516j), (-1.1513931464823564+1.470780232939691j),
        4.410907818199772757418978e-8 + 0.0000002523394481292437674534536j, "2.6e-08",
    ),
    (
        [(1.8323955433817334, 0.6771961368747836), (1.9170387483109157, 1.3850865317409702)],
        [(1.7352393360313492, 0.676449329614204), (0.8293636259135739, 1.0063115022471472)],
        (-1.382827703010083+1.4060225802278754j), (1.7147088552876404+0.6352085879745587j),
        1.016026051713031513269156e-8 + 3.282081525541616002671195e-8j, "3.1e-08",
    ),
    (
        [(1.8323955433817334, 0.6771961368747836), (1.9170387483109157, 1.3850865317409702)],
        [(1.7352393360313492, 0.676449329614204), (0.8293636259135739, 1.0063115022471472)],
        (-1.4272819826393293+0.3441682526540928j), (1.7053411518780046+0.25607979490798716j),
        -0.000005211577285504598421273056 + 0.000002189705156509280317432092j, "2.1e-10",
    ),
    (
        [(1.3104756273290927, 1.2502470232572782)],
        [(2.0562323135179694, 0.6529377909875738)],
        (1.7767577189324357+0.1659182988195243j), (-0.7403407725597991+1.7309004220064923j),
        3.820782288812964114144746e-15 + 6.914981530444307212275149e-15j, "1",
    ),
]


@pytest.mark.parametrize(
    "upper, lower, z, zp, ref",
    [
        pytest.param(
            upper, lower, z, zp, ref,
            id=f"overlap{i}",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=f"series cancellation in N(conj(z) z'): relative error {err} "
                "with exit 0 (ROADMAP item 2)",
            ),
        )
        for i, (upper, lower, z, zp, ref, err) in enumerate(_SEED_2921_OVERLAPS)
    ],
)
def test_benchmark_overlap_miss_at_seed_2921(upper, lower, z, zp, ref):
    model = CoherentModel(FWParams(upper=upper, lower=lower))
    _holds(lambda: overlap(model, z, zp), ref)


# -- item 1(b): the `complex`-slice overlap miss of `states` at seed 14028 ---

# pass 3, operation 751 of the seeded draw, the one miss outside the
# cancellation slice: N(conj(z) z') cancels by sum|t_k| / |N| = 7.3e3,
# under the benchmark's 1e4 cut, and its terms' log-gamma rounding, times
# that, leaves 1.7e-10; both denominators hold 6e-14.  The overlap by
# mpmath at 80 and 120 digits with conj(z) z' formed exactly (they agree
# to 78 digits).
_SEED_14028_MODEL = CoherentModel(
    FWParams(
        upper=[(2.458668245083436, 1.3696524607932372), (2.8610074126463423, 1.4474652541407216)],
        lower=[(0.354318991901187, 1.215483887281638), (2.5547687690161816, 1.0879644791030558)],
    )
)
_SEED_14028_OVERLAP = 7.98723174780457009515901676234e-6 - 1.11538927679346311225996767794e-5j


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="log-gamma term rounding times a condition number of 7.3e3 in N(conj(z) z'): "
    "relative error 1.7e-10 with exit 0 (ROADMAP item 1(b))",
)
def test_benchmark_overlap_miss_at_seed_14028():
    z = -1.4832531000006495 + 0.45234135497372296j
    zp = -1.9331234356864224 - 0.40815856176441406j
    _holds(lambda: overlap(_SEED_14028_MODEL, z, zp), _SEED_14028_OVERLAP)
