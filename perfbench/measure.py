"""`measure` workload: continuum nu, the H kernel and the moment identity.

Four fixed models (vacuum, unit-weight, Mittag-Leffler, Wright).  One
pass is 1032 operations in random order:

- per model: 180 eval_h on its own kernel block at random x (the block
  repeats, so the contour cache is warm), 18 eval_h on freshly drawn
  blocks (cold), 36 weight, 6 nu with "gk" and 6 with "ts",
  3 state_density, 6 moment_check with k cycling through 0..6;
- 3 overlap_tilde ("gk") on the Wright model, 3 `fwstates measure check
  --k 0..6` on the unit-weight model and 6 `fwstates nu eval`
  (alternating schemes, rotating models), the CLI run in-process with
  stdout captured.

Every pass has the same composition, so pass times differ only by their
random arguments.  x, zeta and the radii are stratified: each set of
draws puts one uniform draw in each equal slice of its range, so passes
and seeds differ little in their mix of cheap and costly arguments.

Almost no series work happens here: the load is on continuum,
hfunction and cli, so a series-kernel change should leave it unchanged.
"""

from __future__ import annotations

import cmath
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from common import CONTOUR_CANCELLATION, Op, strata
from refs import (
    contour_condition,
    contour_line,
    is_finite,
    log_inv_rho,
    log_series_coeffs,
    real_pairs,
    rel_err,
    series_fsum,
)
from states import random_params

from fwstates import (
    DEFAULT_CONTOUR,
    DEFAULT_QUAD,
    CoherentModel,
    ContourConfig,
    FWParams,
    HWeightParams,
    eval_h,
    moment_check,
    nu,
    nu_with_error,
    overlap_tilde,
    state_density,
    weight,
)
from fwstates import cli

PASS_SECONDS = 1.6
# name -> (upper, lower, largest x), so that H(x) stays a normal float64
MODELS = {
    "vacuum": ([], [], 30.0),
    "unit": ([(1.0, 1.0)], [(2.0, 1.0)], 30.0),
    "mittag-leffler": ([(1.0, 1.0)], [(1.5, 0.5)], 20.0),
    "wright": ([(1.3, 0.8)], [(2.1, 1.1)], 30.0),
}
N_WARM, N_COLD, N_WEIGHT, N_NU, N_DENSITY, N_MOMENT = 180, 18, 36, 6, 3, 6
N_OVERLAP, N_CLI_MEASURE, N_CLI_NU = 3, 3, 6
X_MIN = 0.05
QUAD_TOL = 1e-8  # gk against ts, and the H kernel against a second contour
MOMENT_TOL = 1e-6  # the CLI's default moment tolerance
CLI_TOL = 1e-12
# a second contour: another abscissa, hence other nodes and another cache entry
REF_CONTOUR = ContourConfig(c_offset=1.5)
# eval_h stops refining at 16 eps of the summed |nodes|; on a line whose
# condition number is above this it cannot promise QUAD_TOL
COND_LIMIT = QUAD_TOL / (16.0 * float(np.finfo(float).eps))
# cold x is redrawn below any x where |H(x)| falls under this, so that
# H(x) stays a normal float64 with room to spare
H_FLOOR = 1e-280


def build_params() -> dict:
    return {
        name: CoherentModel(FWParams(up, lo), 32) for name, (up, lo, _) in MODELS.items()
    }


class Context:
    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.models = build_params()
        self.blocks = {name: HWeightParams.from_model(m) for name, m in self.models.items()}
        self.files = {}
        for name, model in self.models.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps({**model.params.to_json(), "K": model.K}))
            self.files[name] = str(path)
        self._psi: dict = {}
        self._moments: dict = {}

    def moment(self, name: str, k: int):
        """The library's moment_check, once per (model, k), to compare CLI rows with."""
        if (name, k) not in self._moments:
            self._moments[name, k] = moment_check(self.models[name], k)
        return self._moments[name, k]

    def psi(self, name: str, x: float) -> float:
        if name not in self._psi:
            up, lo = real_pairs(self.models[name].params)
            self._psi[name] = log_series_coeffs(up, lo, 3000)
        return series_fsum(self._psi[name], x)[0].real


def prepare(seed: int, workdir) -> Context:
    return Context(seed, workdir)


def warmup(ctx: Context) -> None:
    """Fill the contour cache for the fixed models' blocks, as steady use would."""
    for name, model in ctx.models.items():
        for x in np.geomspace(X_MIN, MODELS[name][2], 120):
            eval_h(ctx.blocks[name], float(x))
        for k in range(7):
            moment_check(model, k)


def _x(rng, x_max: float) -> float:
    return math.exp(rng.uniform(math.log(X_MIN), math.log(x_max)))


def _xs(rng, n: int, x_max: float) -> list[float]:
    """n log-uniform x in [X_MIN, x_max], stratified."""
    return [math.exp(u) for u in strata(rng, n, math.log(X_MIN), math.log(x_max))]


def _eval_h_op(hp, x, key, tag, ref=None, defect="") -> Op:
    name = "hfunction.eval_h." + tag

    def check(v):
        if not math.isfinite(v):
            return "non-finite H"
        err = rel_err(v, eval_h(hp, x, REF_CONTOUR) if ref is None else ref)
        return None if err <= QUAD_TOL else f"H({x!r}) rel err {err:.3g} against a second contour"

    return Op(name, tag, key, lambda tr: tr.call(name, eval_h, hp, x), check, defect)


def _cold_draw(rng):
    """A fresh random block, an x where |H(x)| >= H_FLOOR, and H(x) there
    on the second contour (x is redrawn below itself until it holds)."""
    while True:
        block = HWeightParams.from_model(CoherentModel(random_params(rng)))
        x = _x(rng, 30.0)
        for _ in range(20):
            ref = eval_h(block, x, REF_CONTOUR)
            if abs(ref) >= H_FLOOR:
                return block, x, ref
            x = _x(rng, x)
        # H is tiny even near X_MIN: draw another block


def _cold_eval_h_op(rng) -> Op:
    """eval_h on a fresh random block, at an x where H(x) is a normal float64.

    The reference value is taken here, untimed, and reused by the check.
    The call is in the contour-cancellation slice when the line the
    default contour uses for this x is ill-conditioned.
    """
    block, x, ref = _cold_draw(rng)
    c = contour_line(block.upper, block.lower, DEFAULT_CONTOUR.c_offset, x)
    ill = contour_condition(block.upper, block.lower, c, x, ref) > COND_LIMIT
    return _eval_h_op(block, x, block, "cold", ref, CONTOUR_CANCELLATION if ill else "")


def _model_ops(ctx: Context, rng, name: str, index: int) -> list[Op]:
    model, hp, x_max = ctx.models[name], ctx.blocks[name], MODELS[name][2]
    ops = [_eval_h_op(hp, x, model, "warm") for x in _xs(rng, N_WARM, x_max)]
    ops += [_cold_eval_h_op(rng) for _ in range(N_COLD)]

    for x in _xs(rng, N_WEIGHT, x_max):

        def check_weight(v, x=x):
            if not math.isfinite(v):
                return "non-finite weight"
            want = ctx.psi(name, x) * eval_h(hp, x, REF_CONTOUR)
            err = rel_err(v, want)
            return None if err <= QUAD_TOL else f"weight({x!r}) rel err {err:.3g}"

        ops.append(
            Op(
                "hfunction.weight",
                "warm",
                model,
                lambda tr, x=x: tr.call("hfunction.weight", weight, model, x),
                check_weight,
            )
        )

    for scheme, other in (("gk", "ts"), ("ts", "gk")):
        for zeta in strata(rng, N_NU, 0.1, 10.0):

            def check_nu(v, zeta=zeta, other=other):
                if not math.isfinite(v):
                    return "non-finite nu"
                err = rel_err(v, nu(model, zeta, scheme=other))
                return None if err <= QUAD_TOL else f"nu({zeta!r}) schemes differ by {err:.3g}"

            span = "continuum.nu." + scheme
            ops.append(
                Op(
                    span,
                    "complex",
                    model,
                    lambda tr, zeta=zeta, span=span, scheme=scheme: tr.call(
                        span, nu, model, zeta, scheme=scheme
                    ),
                    check_nu,
                )
            )

    radii, energies = strata(rng, N_DENSITY, 0.3, 3.0), strata(rng, N_DENSITY, 0.0, 10.0)
    for r, E in zip(radii, energies):
        z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

        def check_density(v, z=z, E=E):
            if not is_finite(v):
                return "non-finite density"
            up, lo = real_pairs(model.params)
            log_nu = math.log(nu(model, abs(z) ** 2, scheme="ts"))
            want = cmath.exp(
                E * cmath.log(z) + 0.5 * float(log_inv_rho(up, lo, E)) - 0.5 * log_nu
            )
            err = rel_err(v, want)
            return None if err <= QUAD_TOL else f"state_density rel err {err:.3g}"

        ops.append(
            Op(
                "continuum.state_density",
                "complex",
                model,
                lambda tr, z=z, E=E: tr.call("continuum.state_density", state_density, model, z, E),
                check_density,
            )
        )

    for j in range(N_MOMENT):
        k = (N_MOMENT * index + j) % 7
        ops.append(
            Op(
                "hfunction.moment_check",
                "warm",
                model,
                lambda tr, k=k: tr.call("hfunction.moment_check", moment_check, model, k),
                lambda res, k=k: _moment_error(model, k, res.lhs, res.rhs),
            )
        )
    return ops


def _moment_error(model, k: int, lhs: float, rhs: float) -> str | None:
    up, lo = real_pairs(model.params)
    rho_k = math.exp(-float(log_inv_rho(up, lo, float(k))))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return f"non-finite moment {k}"
    if abs(rhs - rho_k) > 1e-11 * rho_k:
        return f"moment {k}: rhs {rhs!r} is not rho(k) = {rho_k!r}"
    if abs(lhs - rho_k) > MOMENT_TOL * rho_k:
        return f"moment {k}: lhs {lhs!r} misses rho(k) = {rho_k!r}"
    return None


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_nu_op(ctx: Context, name: str, zeta: float, scheme: str) -> Op:
    model = ctx.models[name]
    argv = ["nu", "eval", "--model", ctx.files[name], "--zeta", repr(zeta), "--scheme", scheme]

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"nu eval exit {code}: {stderr.strip()}"
        got = json.loads(stdout)
        value, err = nu_with_error(model, zeta, DEFAULT_QUAD, scheme)
        if got["scheme"] != scheme or not math.isclose(got["value"], value, rel_tol=CLI_TOL):
            return f"nu eval printed {stdout.strip()}, library gives {value!r}"
        if not math.isclose(got["err_est"], err, rel_tol=1e-6, abs_tol=1e-300):
            return f"nu eval err_est {got['err_est']!r}, library gives {err!r}"
        return None

    return Op("cli.nu_eval", "cli", model, lambda tr: tr.call("cli.nu_eval", _run_cli, argv), check)


def _cli_measure_op(ctx: Context, name: str) -> Op:
    model = ctx.models[name]
    argv = ["measure", "check", "--model", ctx.files[name], "--k", "0..6"]

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"measure check exit {code}: {stderr.strip()}"
        lines = stdout.splitlines()
        if lines[0] != "k,lhs,rhs,rel_err,pass" or len(lines) != 8:
            return f"measure check printed {stdout!r}"
        for line in lines[1:]:
            k, lhs, rhs, _, verdict = line.split(",")
            res = ctx.moment(name, int(k))
            if verdict != "pass":
                return f"measure check row {line}"
            for got, want in ((float(lhs), res.lhs), (float(rhs), res.rhs)):
                if not math.isclose(got, want, rel_tol=CLI_TOL):
                    return f"measure check row {line}, library gives {res}"
            bad = _moment_error(model, int(k), float(lhs), float(rhs))
            if bad:
                return bad
        return None

    return Op(
        "cli.measure_check",
        "cli",
        model,
        lambda tr: tr.call("cli.measure_check", _run_cli, argv),
        check,
    )


def _overlap_tilde_op(model, rng, r: float, rp: float) -> Op:
    z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    zp = rp * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    def check(v):
        if not is_finite(v):
            return "non-finite overlap_tilde"
        err = rel_err(v, overlap_tilde(model, z, zp, scheme="ts"))
        return None if err <= QUAD_TOL else f"overlap_tilde schemes differ by {err:.3g}"

    return Op(
        "continuum.overlap_tilde",
        "complex",
        model,
        lambda tr: tr.call("continuum.overlap_tilde", overlap_tilde, model, z, zp),
        check,
    )


def make_pass(ctx: Context, index: int) -> list[Op]:
    rng = np.random.default_rng([ctx.seed, index])
    names = list(MODELS)
    ops = [op for name in names for op in _model_ops(ctx, rng, name, index)]

    radii = zip(strata(rng, N_OVERLAP, 0.3, 2.0), strata(rng, N_OVERLAP, 0.3, 2.0))
    for r, rp in radii:
        ops.append(_overlap_tilde_op(ctx.models["wright"], rng, r, rp))
    for _ in range(N_CLI_MEASURE):
        ops.append(_cli_measure_op(ctx, "unit"))
    for j, zeta in enumerate(strata(rng, N_CLI_NU, 0.1, 10.0)):
        name = names[(index + j) % len(names)]
        ops.append(_cli_nu_op(ctx, name, zeta, ("gk", "ts")[j % 2]))
    return [ops[i] for i in rng.permutation(len(ops))]


def gamma_args(ctx: Context):
    """Gamma arguments a + E A on the fixed models over the nu integration range."""
    pairs = [(complex(a), A) for up, lo, _ in MODELS.values() for a, A in up + lo]
    pairs.append((1.0 + 0j, 1.0))  # the Gamma(E + 1) of rho_tilde
    args = [a + E * A for a, A in pairs for E in np.linspace(0.0, 30.0, 100)]
    triples = [(a.real, A, k) for a, A in pairs for k in range(0, 40)]
    return args, triples
