"""Acceptance suite: the verification battery behind `fwstates selftest`.

Each criterion is a standalone runner returning a CriterionResult; the
same runners back the pytest acceptance tests and the CLI.  All sampling
is seeded, so a fixed seed gives byte-identical reports.

Random arguments are drawn with nonnegative real part.  The series
comparisons contrast two float64 summation routes; for Re z << 0 both
routes lose the same digits to cancellation (the sum is exponentially
smaller than its largest term) and no series evaluator can hold a 1e-10
relative gap there, so the well-conditioned half-plane is the meaningful
sampling region.  It is also the physically relevant one: every state
formula consumes z through |z|^2 >= 0.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import continuum, hfunction
from .bicomplex import Bicomplex, Hyperbolic, compose_idempotent
from .coherent import (
    BCCoherentModel,
    CoherentModel,
    _log_rho_vec,
    annihilation_residual,
    log_rho,
    make_state,
    make_state_b,
    recurrence_worst,
)
from .foxwright import (
    FWParams,
    as_pfq,
    evaluate,
    margin,
    oracle_bessel_j,
    oracle_pfq,
    radius,
)
from .foxwright_bc import BCFWParams, Domain, classify
from .foxwright_bc import evaluate as evaluate_bc
from .gammafn import gamma, gamma_bicomplex, log_gamma_ratio

DEFAULT_SEED = 20260823


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    fingerprint: str = field(default="", repr=False)


def _result(name, t0, passed, detail, fingerprint=""):
    return CriterionResult(name, bool(passed), detail, time.perf_counter() - t0, fingerprint)


def _half_plane_z(rng, r_max: float) -> complex:
    r = rng.uniform(0.0, r_max)
    theta = rng.uniform(-math.pi / 2, math.pi / 2)
    return r * cmath.exp(1j * theta)


def criterion_reduction(seed: int = DEFAULT_SEED) -> CriterionResult:
    """All-unit-weight models match the gamma prefactor times pFq."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(0, 4))
        q = int(rng.integers(p, 4))
        upper = [(rng.uniform(0.2, 5.0), 1.0) for _ in range(p)]
        lower = [(rng.uniform(0.2, 5.0), 1.0) for _ in range(q)]
        params = FWParams(upper=upper, lower=lower)
        pref, a_list, b_list = as_pfq(params)
        for _ in range(10):
            z = _half_plane_z(rng, 10.0)
            ref = pref * oracle_pfq(a_list, b_list, z)
            got = evaluate(params, z).value
            worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    return _result(
        "reduction-conformance", t0, ok, f"worst rel err {worst:.3e}, {elapsed:.2f}s"
    )


def criterion_ml_bessel() -> CriterionResult:
    """Mittag-Leffler and Bessel reductions against their own oracles."""
    t0 = time.perf_counter()
    worst_exp = 0.0
    p_exp = FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
    for r in (0.5, 2.0, 3.5, 5.0):
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 9):
            z = r * cmath.exp(1j * theta)
            ref = cmath.exp(z)
            worst_exp = max(worst_exp, abs(evaluate(p_exp, z).value - ref) / abs(ref))
    worst_cosh = 0.0
    p_cosh = FWParams(upper=[(1.0, 1.0)], lower=[(1.0, 2.0)])
    for x in np.linspace(0.0, 10.0, 21):
        ref = math.cosh(math.sqrt(x))
        worst_cosh = max(worst_cosh, abs(evaluate(p_cosh, x).value - ref) / ref)
    worst_bessel = 0.0
    for v in (0.0, 1.0):
        p_bessel = FWParams(upper=[], lower=[(v + 1.0, 1.0)])
        for y in np.linspace(0.0, 10.0, 21):
            ref = oracle_bessel_j(v, y)
            got = ((y / 2.0) ** v) * evaluate(p_bessel, -(y * y) / 4.0).value.real
            worst_bessel = max(worst_bessel, abs(got - ref))
    ok = worst_exp <= 1e-12 and worst_cosh <= 1e-10 and worst_bessel <= 1e-10
    return _result(
        "ml-bessel-conformance",
        t0,
        ok,
        f"exp {worst_exp:.3e} (tol 1e-12), cosh {worst_cosh:.3e}, bessel {worst_bessel:.3e}",
    )


def _ratio_radius(params: FWParams, k: int = 2000) -> float:
    """Empirical ratio-test radius |t_k / t_{k+1}| from the term formula."""
    d = math.lgamma(k + 2.0) - math.lgamma(k + 1.0)
    for a, A in params.upper:
        d -= log_gamma_ratio(a, A, k).real
    for b, B in params.lower:
        d += log_gamma_ratio(b, B, k).real
    return math.exp(d)


def _zero_margin_weights(rng, p: int, q: int):
    """Positive weight draws with sum B = sum A - 1 (vanishing margin)."""
    while True:
        A = rng.uniform(0.4, 1.6, size=p)
        if A.sum() <= 1.2:
            continue
        B_raw = rng.uniform(0.4, 1.6, size=q)
        B = B_raw * (A.sum() - 1.0) / B_raw.sum()
        if B.min() >= 0.05:
            return A, B


def criterion_radius_law(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Ratio-test radius against the closed-form V on vanishing margin."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 3)
    lines = []
    worst = 0.0
    for _ in range(20):
        p, q = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        A, B = _zero_margin_weights(rng, p, q)
        params = FWParams(
            upper=[(rng.uniform(0.3, 3.0), float(Ai)) for Ai in A],
            lower=[(rng.uniform(0.3, 3.0), float(Bi)) for Bi in B],
        )
        v = radius(params)
        emp = _ratio_radius(params)
        rel = abs(emp - v) / v
        worst = max(worst, rel)
        lines.append(f"{v:.12e},{emp:.12e}")
    for _ in range(20):
        p, q = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        comps = []
        for _ in range(2):
            A, B = _zero_margin_weights(rng, p, q)
            comps.append(
                FWParams(
                    upper=[(rng.uniform(0.3, 3.0), float(Ai)) for Ai in A],
                    lower=[(rng.uniform(0.3, 3.0), float(Bi)) for Bi in B],
                )
            )
        report = classify(BCFWParams.from_components(*comps))
        for comp_idx in (0, 1):
            v = report.v_radius[comp_idx]
            emp = _ratio_radius(comps[comp_idx])
            rel = abs(emp - v) / v
            worst = max(worst, rel)
            lines.append(f"{v:.12e},{emp:.12e}")
    ok = worst <= 0.01
    return _result(
        "radius-law", t0, ok, f"worst rel dev {worst:.3e} (tol 1e-2)", ";".join(lines)
    )


_NINE_CASE_TABLE = [
    # (upper weight pair, expected domain); lower weight is (1,1) throughout
    ((1.0, 1.0), Domain.ENTIRE_BC),
    ((2.0, 1.0), Domain.DISK1_PLANE2),
    ((1.0, 2.0), Domain.PLANE1_DISK2),
    ((2.0, 3.0), Domain.DISK1_ZERO2),
    ((3.0, 2.0), Domain.ZERO1_DISK2),
    ((1.0, 3.0), Domain.PLANE1_ZERO2),
    ((3.0, 1.0), Domain.ZERO1_PLANE2),
    ((2.0, 2.0), Domain.HYPERBOLIC_BALL),
    ((3.0, 3.0), Domain.DIVERGENT),
]


def criterion_nine_case(seed: int = DEFAULT_SEED) -> CriterionResult:
    """One parameter set per sign pattern, plus the boundary-flag identity."""
    t0 = time.perf_counter()
    bad = []
    for (m1, m2), expected in _NINE_CASE_TABLE:
        params = BCFWParams(
            upper=[(Bicomplex.from_scalar(1.5), Hyperbolic(m1, m2))],
            lower=[(Bicomplex.from_scalar(1.0), Hyperbolic(1.0, 1.0))],
        )
        got = classify(params).domain
        if got is not expected:
            bad.append(f"weights ({m1},{m2}): {got.value} != {expected.value}")
    rng = np.random.default_rng(seed + 4)
    mismatches = 0
    for _ in range(1000):
        lam1 = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        lam2 = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        cap1 = (lam1 + lam2) / 2.0
        cap2 = 0.5j * (lam1 - lam2)
        lhs = cap1.real - 0.5 > abs(cap2.imag)
        rhs = lam1.real > 0.5 and lam2.real > 0.5
        mismatches += lhs != rhs
    ok = not bad and mismatches == 0
    detail = f"table ok, flag mismatches {mismatches}/1000" if not bad else "; ".join(bad)
    return _result("nine-case-classifier", t0, ok, detail)


def criterion_idempotent(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Componentwise agreement of bicomplex ops with complex ones."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    tol = 1e-12
    worst_arith = 0.0
    n_pairs = 10_000
    raw = rng.standard_normal((n_pairs, 8)) * 2.0
    for row in raw:
        Z = compose_idempotent(complex(row[0], row[1]), complex(row[2], row[3]))
        W = compose_idempotent(complex(row[4], row[5]), complex(row[6], row[7]))
        z1, z2 = Z.decompose()
        w1, w2 = W.decompose()
        for got, ref in (
            ((Z + W).decompose(), (z1 + w1, z2 + w2)),
            ((Z * W).decompose(), (z1 * w1, z2 * w2)),
        ):
            err = max(
                abs(got[0] - ref[0]) / (1.0 + abs(ref[0])),
                abs(got[1] - ref[1]) / (1.0 + abs(ref[1])),
            )
            worst_arith = max(worst_arith, err)
        if min(abs(z1), abs(z2)) > 1e-6:
            got = Z.inverse().decompose()
            err = max(abs(got[0] - 1.0 / z1), abs(got[1] - 1.0 / z2))
            worst_arith = max(worst_arith, err)
    worst_gamma = 0.0
    args = rng.uniform(0.3, 4.0, size=(n_pairs, 2)) + 1j * rng.uniform(-3.0, 3.0, size=(n_pairs, 2))
    for g1, g2 in args:
        got = gamma_bicomplex(compose_idempotent(g1, g2)).decompose()
        ref = (gamma(g1), gamma(g2))
        worst_gamma = max(
            worst_gamma,
            abs(got[0] - ref[0]) / (1.0 + abs(ref[0])),
            abs(got[1] - ref[1]) / (1.0 + abs(ref[1])),
        )
    bc_params = BCFWParams(
        upper=[(compose_idempotent(1.2, 0.8), Hyperbolic(1.0, 1.0))],
        lower=[(compose_idempotent(2.0, 2.5), Hyperbolic(1.0, 1.0))],
    )
    comp = [
        FWParams(upper=[(1.2, 1.0)], lower=[(2.0, 1.0)]),
        FWParams(upper=[(0.8, 1.0)], lower=[(2.5, 1.0)]),
    ]
    worst_eval = 0.0
    zs = rng.standard_normal((n_pairs, 4)) * 1.5
    for row in zs:
        Z = compose_idempotent(complex(row[0], row[1]), complex(row[2], row[3]))
        got = evaluate_bc(bc_params, Z).decompose()
        ref = (
            evaluate(comp[0], complex(row[0], row[1])).value,
            evaluate(comp[1], complex(row[2], row[3])).value,
        )
        worst_eval = max(
            worst_eval,
            abs(got[0] - ref[0]) / (1.0 + abs(ref[0])),
            abs(got[1] - ref[1]) / (1.0 + abs(ref[1])),
        )
    worst = max(worst_arith, worst_gamma, worst_eval)
    ok = worst <= tol
    return _result(
        "idempotent-homomorphism",
        t0,
        ok,
        f"arith {worst_arith:.2e}, gamma {worst_gamma:.2e}, eval {worst_eval:.2e}",
        f"{worst_arith!r},{worst_gamma!r},{worst_eval!r}",
    )


def random_margin_model(rng) -> FWParams:
    """Real positive parameters, at most two pairs a side, margin >= 0.3."""
    while True:
        p = int(rng.integers(0, 3))
        q = int(rng.integers(p, 3))
        upper = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(p)]
        lower = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(q)]
        params = FWParams(upper=upper, lower=lower)
        if margin(params) >= 0.3:
            return params


def criterion_state_structure(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Recurrence, unit norm, and eigenstate residual, complex and bicomplex."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 6)
    worst_rec = 0.0
    worst_norm = 0.0
    worst_res = 0.0
    for _ in range(10):
        model = CoherentModel(random_margin_model(rng))
        worst_rec = max(worst_rec, recurrence_worst(model))
        for r in (0.5, 1.25, 2.0):
            for theta in (0.0, 2.1, 4.2):
                z = r * cmath.exp(1j * theta)
                state = make_state(model, z)
                norm_sq = sum(abs(c) ** 2 for c in state.coeffs)
                worst_norm = max(worst_norm, abs(norm_sq - 1.0))
                worst_res = max(worst_res, annihilation_residual(model, state))
    for _ in range(4):
        first = random_margin_model(rng)
        second = random_margin_model(rng)
        while (second.p, second.q) != (first.p, first.q):
            second = random_margin_model(rng)
        bmodel = BCCoherentModel(BCFWParams.from_components(first, second))
        Z = compose_idempotent(
            1.5 * cmath.exp(1j * rng.uniform(0, 6.28)),
            0.8 * cmath.exp(1j * rng.uniform(0, 6.28)),
        )
        for cmodel, st in zip(bmodel.decompose(), make_state_b(bmodel, Z).components):
            worst_rec = max(worst_rec, recurrence_worst(cmodel))
            norm_sq = sum(abs(c) ** 2 for c in st.coeffs)
            worst_norm = max(worst_norm, abs(norm_sq - 1.0))
            worst_res = max(worst_res, annihilation_residual(cmodel, st))
    ok = worst_rec <= 1e-11 and worst_norm <= 1e-10 and worst_res <= 1e-8
    return _result(
        "coherent-structure",
        t0,
        ok,
        f"recurrence {worst_rec:.2e}, norm {worst_norm:.2e}, residual {worst_res:.2e}",
    )


def criterion_moments() -> CriterionResult:
    """Resolution-of-unity moment identity on the three reference models."""
    t0 = time.perf_counter()
    panels = [
        ("vacuum", CoherentModel(FWParams(upper=[], lower=[])), range(7)),
        (
            "unit-weight",
            CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)])),
            range(5),
        ),
        (
            "mittag-leffler",
            CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(1.5, 0.5)])),
            range(5),
        ),
    ]
    worst = 0.0
    for _, model, ks in panels:
        for k in ks:
            worst = max(worst, hfunction.moment_check(model, k).rel_err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed <= 60.0
    return _result(
        "moment-identity", t0, ok, f"worst rel err {worst:.3e}, {elapsed:.2f}s"
    )


def criterion_nu() -> CriterionResult:
    """Dual-scheme nu agreement, integer consistency, density normalization."""
    from . import quadpack
    t0 = time.perf_counter()
    models = [
        CoherentModel(FWParams(upper=[], lower=[])),
        CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)])),
    ]
    worst_dual = 0.0
    for model in models:
        for zeta in np.linspace(0.1, 10.0, 12):
            vg = continuum.nu(model, zeta, scheme="gk")
            vt = continuum.nu(model, zeta, scheme="ts")
            worst_dual = max(worst_dual, abs(vg - vt) / abs(vg))
    # scalar log_rho (math.lgamma) against the array form (Lanczos)
    worst_int = 0.0
    for model in models:
        vec = _log_rho_vec(model.params, np.arange(51))
        for k in range(51):
            worst_int = max(worst_int, abs(math.expm1(log_rho(model, k) - vec[k])))
    cfg = continuum.DEFAULT_QUAD
    worst_norm = 0.0
    for model in models:
        for z_abs in (0.7, 1.8):
            log_nu = math.log(continuum.nu(model, z_abs**2, cfg))
            e_hi = continuum._e_max(model, 2.0 * math.log(z_abs))

            def dens_sq(E, model=model, log_nu=log_nu, z_abs=z_abs):
                # |z^E / sqrt(rho_tilde nu)|^2, written in logs
                return math.exp(
                    2.0 * E * math.log(z_abs)
                    - continuum.log_rho_tilde(model, E)
                    - log_nu
                )

            total, _ = continuum._integrate(
                None, lambda a, b: [dens_sq(x) for x in quadpack.nodes(a, b).tolist()],
                0.0, e_hi, cfg, "gk",
            )
            worst_norm = max(worst_norm, abs(total - 1.0))
    norm_tol = 10.0 * max(cfg.rel_tol, cfg.abs_tol)
    ok = worst_dual <= 1e-8 and worst_int <= 1e-12 and worst_norm <= norm_tol
    return _result(
        "nu-function",
        t0,
        ok,
        f"dual {worst_dual:.2e}, integer {worst_int:.2e}, norm {worst_norm:.2e}",
    )


def _sample_fingerprint(seed: int) -> str:
    """Deterministic digest of a small seeded pipeline run."""
    rng = np.random.default_rng(seed)
    params = FWParams(upper=[(1.3, 0.8)], lower=[(2.1, 1.1)])
    out = []
    for _ in range(20):
        z = _half_plane_z(rng, 3.0)
        res = evaluate(params, z)
        out.append([repr(res.value.real), repr(res.value.imag), res.terms_used])
    bc = BCFWParams(
        upper=[(compose_idempotent(1.2, 0.9), Hyperbolic(1.0, 1.0))],
        lower=[(compose_idempotent(2.0, 1.8), Hyperbolic(1.5, 1.2))],
    )
    out.append(classify(bc).to_json())
    model = CoherentModel(FWParams(upper=[(1.0, 1.0)], lower=[(2.0, 1.0)]))
    state = make_state(model, complex(0.9, 0.4))
    out.append([repr(abs(c)) for c in state.coeffs[:10]])
    return json.dumps(out, sort_keys=True)


def criterion_determinism(
    seed: int = DEFAULT_SEED, elapsed_others: float | None = None
) -> CriterionResult:
    """Byte-identical seeded reruns; full-suite wall clock within budget."""
    t0 = time.perf_counter()
    fp1 = _sample_fingerprint(seed)
    fp2 = _sample_fingerprint(seed)
    r1 = criterion_radius_law(seed)
    r2 = criterion_radius_law(seed)
    deterministic = fp1 == fp2 and r1.fingerprint == r2.fingerprint
    if elapsed_others is None:
        # standalone invocation: time the remaining criteria here
        elapsed_others = sum(
            run(seed).elapsed
            for name, run in CRITERIA.items()
            if name not in ("radius-law", "determinism-runtime")
        ) + r1.elapsed
    total = elapsed_others + (time.perf_counter() - t0)
    ok = deterministic and total <= 120.0
    return _result(
        "determinism-runtime",
        t0,
        ok,
        f"reruns {'identical' if deterministic else 'DIFFER'}, full suite {total:.1f}s",
    )


CRITERIA = {
    "reduction-conformance": criterion_reduction,
    "ml-bessel-conformance": lambda seed=DEFAULT_SEED: criterion_ml_bessel(),
    "radius-law": criterion_radius_law,
    "nine-case-classifier": criterion_nine_case,
    "idempotent-homomorphism": criterion_idempotent,
    "coherent-structure": criterion_state_structure,
    "moment-identity": lambda seed=DEFAULT_SEED: criterion_moments(),
    "nu-function": lambda seed=DEFAULT_SEED: criterion_nu(),
    "determinism-runtime": criterion_determinism,
}


def run_all(seed: int = DEFAULT_SEED, only=None) -> list[CriterionResult]:
    """Run the acceptance battery; `only` filters by criterion name."""
    names = list(CRITERIA)
    if only:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise ValueError(f"unknown criteria: {', '.join(unknown)}")
        names = [n for n in names if n in set(only)]
    full = set(names) == set(CRITERIA)
    results = []
    elapsed = 0.0
    for name in names:
        if name == "determinism-runtime":
            # with the whole battery in this run, reuse its timings; a
            # filtered run must time the remaining criteria itself
            results.append(
                criterion_determinism(seed, elapsed_others=elapsed if full else None)
            )
        else:
            results.append(CRITERIA[name](seed))
        elapsed += results[-1].elapsed
    return results
