"""`states` workload: coherent states on a fresh random model every 10 operations.

One pass is 100 groups of 10 operations; each group draws a new
CoherentModel (margin >= 0.4, K cycling through 8, 16, 32) and a new
bicomplex model, then runs, in random order:

    1 normalization, 1 ladder_elements, 2 make_state, 4 overlap,
    1 annihilation_residual of a freshly built state,
    1 make_state_b or overlap_b (alternating).

Parameter sets serve only ten operations before they are replaced, so a
per-parameter cache fills far more often than it hits; with the
`series` workload this is the pair on which such a cache must show a
gain on one side and no loss on the other.  The mix keeps the median
inside the overlap operations and the 99th percentile inside the
annihilation residuals.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from common import CANCELLATION, Op
from refs import SeriesRef, is_finite, log_inv_rho, real_pairs, rel_err, series_fsum

from fwstates import (
    BCCoherentModel,
    BCFWParams,
    CoherentModel,
    FWParams,
    Hyperbolic,
    annihilation_residual,
    compose_idempotent,
    ladder_elements,
    make_state,
    make_state_b,
    normalization,
    overlap,
    overlap_b,
)

PASS_SECONDS = 0.9
GROUPS = 100
KS = (8, 16, 32)  # the models' starting truncations
MIN_MARGIN = 0.4
Z_MAX = 2.0
TOL = 1e-10  # normalization and overlap, relative
LADDER_TOL = 1e-11  # the acceptance recurrence tolerance
COEFF_TOL = 1e-11  # state coefficients, absolute (they are at most 1)
RESIDUAL_TOL = 1e-8  # the acceptance eigenstate tolerance
COND_MAX = 1e4  # sum|t_k| / |N| above which float64 sums lose the tolerance
FLOAT_COND_MAX, FLOAT_LOG_MAX = 1e2, 60.0  # where the float64 reference is used


def random_params(rng) -> FWParams:
    """Real positive parameters with margin >= MIN_MARGIN.

    The acceptance battery draws the same way down to margin 0.3; below
    0.4 a rare model needs K in the thousands and N(4) near e^350, and one
    such model sets the time of a whole pass.
    """
    while True:
        p = int(rng.integers(0, 3))
        q = int(rng.integers(p, 3))
        upper = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(p)]
        lower = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(q)]
        if 1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= MIN_MARGIN:
            return FWParams(upper=upper, lower=lower)


def random_model(rng, K: int) -> CoherentModel:
    return CoherentModel(random_params(rng), K)


def random_bc_model(rng, K: int) -> BCCoherentModel:
    first = random_params(rng)
    while True:
        second = random_params(rng)
        if (second.p, second.q) == (first.p, first.q):
            break

    def side(a, b):
        return [
            (compose_idempotent(x[0], y[0]), Hyperbolic(x[1], y[1])) for x, y in zip(a, b)
        ]

    return BCCoherentModel(
        BCFWParams(upper=side(first.upper, second.upper), lower=side(first.lower, second.lower)),
        K,
    )


def build_params() -> list:
    rng = np.random.default_rng(0)
    return [random_model(rng, KS[i % len(KS)]) for i in range(GROUPS // 10)]


class NormRef:
    """1/rho(k) and N(zeta) of one model.

    float64 sums of scipy gammaln terms where those hold ~1e-12: the sum
    keeps its digits and no term exceeds e^60 (gammaln's rounding grows
    with the size of the log); elsewhere the 50-digit mpmath series.
    """

    def __init__(self, model: CoherentModel):
        self.up, self.lo = real_pairs(model.params)
        n = 1024
        while True:
            self.log_c = log_inv_rho(self.up, self.lo, np.arange(n, dtype=float))
            log_t = self.log_c + np.arange(n) * math.log(Z_MAX**2)
            if log_t[-1] < log_t.max() - 60.0:
                break
            n *= 2
        self._exact = None

    def cond(self, zeta: complex) -> float:
        """sum |t_k| / |sum t_k|: how far the float64 sum cancels."""
        total, magnitude, _ = series_fsum(self.log_c, zeta)
        return magnitude / abs(total) if total else math.inf

    def N(self, zeta: complex) -> complex:
        total, magnitude, log_peak = series_fsum(self.log_c, zeta)
        if magnitude <= FLOAT_COND_MAX * abs(total) and log_peak <= FLOAT_LOG_MAX:
            return total
        if self._exact is None:
            self._exact = SeriesRef(self.up, self.lo)
        # 1/rho(k) = c_k / c_0, with c_0 = prod Gamma(a) / prod Gamma(b) > 0
        return self._exact.value(zeta) / math.exp(self._exact.coefficient_logs(1)[0])

    def f_sq(self, k: int) -> float:
        """f(k)^2 = rho(k+1)/rho(k); f(-1) = 0."""
        return 0.0 if k < 0 else math.exp(self.log_c[k] - self.log_c[k + 1])

    def coeffs(self, z: complex, n: int) -> np.ndarray:
        if n > len(self.log_c):
            self.log_c = log_inv_rho(self.up, self.lo, np.arange(n, dtype=float))
        if z == 0:
            return np.eye(1, n, dtype=complex)[0]
        log_n = math.log(self.N(abs(z) ** 2).real)
        ks = np.arange(n)
        with np.errstate(under="ignore"):
            return np.exp(ks * cmath.log(z) + 0.5 * self.log_c[:n] - 0.5 * log_n)


class Context:
    def __init__(self, seed: int):
        self.seed = seed
        self._refs: dict = {}

    def ref(self, model: CoherentModel) -> NormRef:
        if model not in self._refs:
            self._refs[model] = NormRef(model)
        return self._refs[model]


def prepare(seed: int, workdir) -> Context:
    return Context(seed)


def _z(rng) -> complex:
    return rng.uniform(0.0, Z_MAX) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _state_error(ctx: Context, model, z, state) -> str | None:
    coeffs = np.asarray(state.coeffs, dtype=complex)
    if not (np.isfinite(coeffs).all() and math.isfinite(state.tail_mass)):
        return "non-finite state"
    err = float(np.max(np.abs(coeffs - ctx.ref(model).coeffs(z, len(coeffs)))))
    if err > COEFF_TOL:
        return f"state coefficients off by {err:.3g} at z={z!r}"
    return None


def _group(ctx: Context, rng, g: int) -> list[Op]:
    # K cycles through KS so that every pass has the same mix of K
    model = random_model(rng, KS[g % len(KS)])
    bmodel = random_bc_model(rng, KS[(g + 1) % len(KS)])
    ops = []

    zeta = rng.uniform(0.0, Z_MAX**2)

    def check_norm(v):
        if not math.isfinite(v):
            return "non-finite normalization"
        err = rel_err(v, ctx.ref(model).N(zeta).real)
        return None if err <= TOL else f"normalization rel err {err:.3g} at zeta={zeta!r}"

    ops.append(
        Op(
            "coherent.normalization",
            "complex",
            model,
            lambda tr: tr.call("coherent.normalization", normalization, model, zeta),
            check_norm,
        )
    )

    k = int(rng.integers(0, 60))

    def check_ladder(out):
        ref = ctx.ref(model)
        f_down_sq, f_up_sq = ref.f_sq(k - 1), ref.f_sq(k)
        want = (math.sqrt(f_down_sq), math.sqrt(f_up_sq), f_up_sq, f_down_sq)
        for got, exp in zip(out, want):
            if not math.isfinite(got) or abs(got - exp) > LADDER_TOL * abs(exp):
                return f"ladder_elements({k}) = {out!r}, expected {want!r}"
        return None

    ops.append(
        Op(
            "coherent.ladder_elements",
            "complex",
            model,
            lambda tr: tr.call("coherent.ladder_elements", ladder_elements, model, k),
            check_ladder,
        )
    )

    for _ in range(2):
        z = _z(rng)
        ops.append(
            Op(
                "coherent.make_state",
                "complex",
                model,
                lambda tr, z=z: tr.call("coherent.make_state", make_state, model, z),
                lambda st, z=z: _state_error(ctx, model, z, st),
            )
        )

    for _ in range(4):
        z, zp = _z(rng), _z(rng)
        # where the series for N(conj(z) z') cancels, float64 summation
        # cannot hold the tolerance: the known defect, kept and counted
        # in its own slice
        ill = ctx.ref(model).cond(z.conjugate() * zp) > COND_MAX

        def check_overlap(v, z=z, zp=zp):
            if not is_finite(v):
                return "non-finite overlap"
            ref = ctx.ref(model)
            want = ref.N(z.conjugate() * zp) / math.sqrt(
                ref.N(abs(z) ** 2).real * ref.N(abs(zp) ** 2).real
            )
            err = rel_err(v, want)
            return None if err <= TOL else f"overlap rel err {err:.3g}"

        ops.append(
            Op(
                "coherent.overlap",
                "ill-conditioned" if ill else "complex",
                model,
                lambda tr, z=z, zp=zp: tr.call("coherent.overlap", overlap, model, z, zp),
                check_overlap,
                CANCELLATION if ill else "",
            )
        )

    z = _z(rng)

    def residual_op(tr, z=z):
        state = tr.call("coherent.make_state", make_state, model, z)
        return state, tr.call(
            "coherent.annihilation_residual", annihilation_residual, model, state
        )

    def check_residual(out, z=z):
        state, res = out
        bad = _state_error(ctx, model, z, state)
        if bad:
            return bad
        if not (math.isfinite(res) and res <= RESIDUAL_TOL):
            return f"annihilation residual {res!r} above {RESIDUAL_TOL:g}"
        return None

    ops.append(Op("coherent.annihilation_residual", "complex", model, residual_op, check_residual))

    Z = compose_idempotent(_z(rng), _z(rng))
    comps = [bmodel.component_model(p) for p in (1, 2)]
    if g % 2 == 0:

        def check_state_b(out):
            for p, st in enumerate(out.components):
                ref = make_state(comps[p], Z.decompose()[p])
                if st.coeffs != ref.coeffs:
                    return f"make_state_b component {p + 1} differs from make_state"
            return None

        ops.append(
            Op(
                "coherent.make_state_b",
                "bicomplex",
                bmodel,
                lambda tr: tr.call("coherent.make_state_b", make_state_b, bmodel, Z),
                check_state_b,
            )
        )
    else:
        Zp = compose_idempotent(_z(rng), _z(rng))

        def check_overlap_b(out):
            for p, got in enumerate(out.decompose()):
                ref = overlap(comps[p], Z.decompose()[p], Zp.decompose()[p])
                if not is_finite(got) or rel_err(got, ref) > 1e-12:
                    return f"overlap_b component {p + 1} differs from overlap"
            return None

        ops.append(
            Op(
                "coherent.overlap_b",
                "bicomplex",
                bmodel,
                lambda tr: tr.call("coherent.overlap_b", overlap_b, bmodel, Z, Zp),
                check_overlap_b,
            )
        )
    return [ops[i] for i in rng.permutation(len(ops))]


def make_pass(ctx: Context, index: int) -> list[Op]:
    rng = np.random.default_rng([ctx.seed, index])
    return [op for g in range(GROUPS) for op in _group(ctx, rng, g)]


def gamma_args(ctx: Context):
    """Gamma arguments and ratio triples of the first pass's models."""
    rng = np.random.default_rng([ctx.seed, 0])
    pairs = []
    for _ in range(20):
        params = random_params(rng)
        pairs += [(complex(a), A) for a, A in params.upper + params.lower]
    args = [a + k * A for a, A in pairs for k in range(0, 64, 2)]
    triples = [(a.real, A, k) for a, A in pairs for k in range(0, 64, 2)]
    return args, triples
