"""`series` workload: a few fixed parameter sets, each serving thousands of points.

One pass is 1000 operations in random order:

- 735 `foxwright.evaluate` on four complex models at points of the right
  half-plane with |z| stratified up to the model's radius below, where every term
  and the value fit in float64 and the sum stays well conditioned;
- 200 `foxwright_bc.evaluate` on two bicomplex models, component radii
  stratified;
- 15 boundary points |z| = 1 of two unit-weight models with vanishing
  margin and Re(lambda) > 1/2, evaluated with allow_boundary;
- 50 left-half-plane points, Re z stratified over [-30, -1], on the exp
  and Wright models.  The series loses every digit to cancellation
  there, yet evaluate returns normally: these operations are checked
  like all others and their failures stay in the counts (known defect,
  tagged "lhp").

Nearly all time is spent in gammafn, foxwright and foxwright_bc with
parameter sets that repeat thousands of times.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import battery
from common import CANCELLATION, Op, strata
from refs import SeriesRef, gauss_boundary, is_finite, rel_err

from fwstates import (
    BCFWParams,
    FWParams,
    Hyperbolic,
    compose_idempotent,
    evaluate,
    evaluate_bc,
)

PASS_SECONDS = 0.6
N_BOUNDARY, N_LHP, N_BC, N_RHP = 15, 50, 200, 735
SERIES_TOL = 1e-10  # relative error against the 50-digit reference
BC_TOL = 1e-12  # bicomplex against the complex routine per component

# name -> (upper, lower, right-half-plane radius)
COMPLEX_MODELS = {
    "exp": ([(1.0, 1.0)], [(1.0, 1.0)], 10.0),
    "wright": ([(1.3, 0.8)], [(2.1, 1.1)], 10.0),
    "bessel": ([], [(1.5, 0.5)], 10.0),
    "tight": ([(0.7 + 0.4j, 0.9), (1.1, 0.6)], [(1.9 - 0.2j, 0.9)], 4.0),
}
LHP_MODELS = ("exp", "wright")
BOUNDARY_MODELS = {
    "gauss-a": ([(0.5, 1.0), (0.7, 1.0)], [(2.0, 1.0)]),  # lambda = 1.3
    "gauss-b": ([(0.6, 1.0), (0.8, 1.0)], [(1.9, 1.0)]),  # lambda = 1.0
}
BC_RADIUS = 4.0


def _bc_models():
    return {
        "bc-a": BCFWParams(
            upper=[(compose_idempotent(1.2, 0.8), Hyperbolic(1.0, 0.9))],
            lower=[(compose_idempotent(2.0, 2.5), Hyperbolic(1.1, 1.3))],
        ),
        "bc-b": BCFWParams(
            upper=[(compose_idempotent(0.9 + 0.2j, 1.4), Hyperbolic(0.7, 1.2))],
            lower=[(compose_idempotent(1.6, 2.2), Hyperbolic(1.0, 0.8))],
        ),
    }


def build_params() -> dict:
    """The workload's parameter objects (also what set-up time covers)."""
    params = {name: FWParams(up, lo) for name, (up, lo, _) in COMPLEX_MODELS.items()}
    params.update({name: FWParams(up, lo) for name, (up, lo) in BOUNDARY_MODELS.items()})
    params.update(_bc_models())
    return params


class Context:
    def __init__(self, seed: int):
        self.seed = seed
        self.params = build_params()
        self._refs: dict[str, SeriesRef] = {}

    def ref(self, name: str) -> SeriesRef:
        if name not in self._refs:
            up, lo, _ = COMPLEX_MODELS[name]
            self._refs[name] = SeriesRef(up, lo)
        return self._refs[name]


def prepare(seed: int, workdir) -> Context:
    return Context(seed)


def _evaluate_op(ctx: Context, name: str, z: complex, tag: str, defect: str = "") -> Op:
    params = ctx.params[name]

    def check(res):
        if not is_finite(res.value):
            return f"non-finite value at z={z!r}"
        err = rel_err(res.value, ctx.ref(name).value(z))
        if err > SERIES_TOL:
            return f"{name}: rel err {err:.3g} at z={z!r}"
        return None

    return Op(
        "foxwright.evaluate",
        tag,
        name,
        lambda tr: tr.call("foxwright.evaluate", evaluate, params, z),
        check,
        defect,
    )


def _boundary_op(ctx: Context, name: str, z: complex) -> Op:
    params = ctx.params[name]
    up, lo = BOUNDARY_MODELS[name]

    def check(res):
        if not (is_finite(res.value) and math.isfinite(res.tail_bound)):
            return f"non-finite value at z={z!r}"
        err = abs(complex(res.value) - gauss_boundary(up, lo, z))
        if err > res.tail_bound:
            return f"{name}: error {err:.3g} above tail_bound {res.tail_bound:.3g}"
        return None

    return Op(
        "foxwright.evaluate.boundary",
        "boundary",
        name,
        lambda tr: tr.call(
            "foxwright.evaluate.boundary", evaluate, params, z, allow_boundary=True
        ),
        check,
    )


def _bc_op(ctx: Context, name: str, Z) -> Op:
    params = ctx.params[name]

    def check(value):
        got = value.decompose()
        for p, zp in zip((1, 2), Z.decompose()):
            if not is_finite(got[p - 1]):
                return f"{name}: non-finite component {p}"
            ref = evaluate(params.component_params(p), zp).value
            if abs(got[p - 1] - ref) > BC_TOL * (1.0 + abs(ref)):
                return f"{name}: component {p} differs from the complex routine"
        return None

    return Op(
        "foxwright_bc.evaluate",
        "bicomplex",
        name,
        lambda tr: tr.call("foxwright_bc.evaluate", evaluate_bc, params, Z),
        check,
    )


def make_pass(ctx: Context, index: int) -> list[Op]:
    rng = np.random.default_rng([ctx.seed, index])
    ops = []
    names = list(COMPLEX_MODELS)
    for m, name in enumerate(names):
        # |z| stratified over the model's radius: the cost grows with |z|
        for r in strata(rng, len(range(m, N_RHP, len(names))), 0.0, COMPLEX_MODELS[name][2]):
            z = r * cmath.exp(1j * rng.uniform(-math.pi / 2, math.pi / 2))
            ops.append(_evaluate_op(ctx, name, z, "rhp"))
    for i in range(N_LHP):
        # stratified so every pass covers [-30, -1] evenly
        re = -(1.0 + 29.0 * (i + rng.uniform()) / N_LHP)
        z = complex(re, rng.uniform(-2.0, 2.0))
        ops.append(_evaluate_op(ctx, LHP_MODELS[i % len(LHP_MODELS)], z, "lhp", CANCELLATION))
    bnames = list(BOUNDARY_MODELS)
    for i in range(N_BOUNDARY):
        # V = 1 for unit weights; |z| = 1 exactly up to rounding
        ops.append(_boundary_op(ctx, bnames[i % 2], cmath.exp(1j * rng.uniform(-math.pi, math.pi))))
    bcnames = ["bc-a", "bc-b"]
    for m, name in enumerate(bcnames):
        n = len(range(m, N_BC, len(bcnames)))
        radii = zip(strata(rng, n, 0.0, BC_RADIUS), rng.permutation(strata(rng, n, 0.0, BC_RADIUS)))
        for r1, r2 in radii:
            z1 = r1 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            z2 = float(r2) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            ops.append(_bc_op(ctx, name, compose_idempotent(z1, z2)))
    return [ops[i] for i in rng.permutation(len(ops))]


def traced_extra(ctx: Context, tracer) -> list:
    """The acceptance battery, measured here because series and bicomplex
    evaluation are most of its work."""
    return battery.run_battery(ctx.seed, tracer)


def gamma_args(ctx: Context):
    """Gamma arguments a + kA the models hit, and (a, A, k) ratio triples."""
    pairs = [pair for up, lo, _ in COMPLEX_MODELS.values() for pair in up + lo]
    pairs += [pair for up, lo in BOUNDARY_MODELS.values() for pair in up + lo]
    args = [complex(a) + k * A for a, A in pairs for k in range(40)]
    triples = [(complex(a), A, k) for a, A in pairs for k in range(0, 200, 5)]
    return args, triples
