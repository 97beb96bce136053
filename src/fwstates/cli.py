"""Command-line front end for evaluation, classification, and verification.

Subcommands mirror the library layout: ``fw`` for the scalar series,
``bcfw`` for the bicomplex extension, ``cs`` for coherent states, ``nu``
and ``measure`` for the continuous-spectrum quadratures, and ``selftest``
for the acceptance battery.

Output is machine-oriented: one-line JSON objects with sorted keys, or
CSV with '.' decimals and '\\n' line endings.  Floats are printed via
repr so a fixed seed gives byte-identical output.  Exit codes: 0 ok,
1 bad input, 2 domain violation, 3 numeric failure, 4 verification
failure, 141 stdout closed early (as a shell reports a process that
SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import lru_cache

import numpy as np

from . import acceptance
from .bicomplex import Bicomplex
from .coherent import (
    CoherentModel,
    annihilation_residual,
    make_state,
    overlap,
    photon_distribution,
    recurrence_worst,
)
from .continuum import DEFAULT_QUAD, SCHEMES, QuadConfig, nu_with_error
from .errors import (
    ContourFailure,
    DomainError,
    DomainViolation,
    MaxTermsExceeded,
    PoleError,
    QuadratureFailure,
    SingularElement,
    TruncationError,
    ValidationError,
)
from .foxwright import DEFAULT_TOL, boundary_exponent, evaluate, margin, radius
from .foxwright_bc import GridSpec, classify, region_sample
from .foxwright_bc import evaluate as evaluate_bc
from .hfunction import moment_check, moment_order
from .schemas import load_bc_params, load_fw_params

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, the status of `yes | head -1`'s yes

_NUMERIC_ERRORS = (
    PoleError,
    MaxTermsExceeded,
    TruncationError,
    QuadratureFailure,
    ContourFailure,
    SingularElement,
    OverflowError,
)


class _Parser(argparse.ArgumentParser):
    # usage errors are "bad input", not argparse's default exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _floats(text: str, what: str) -> list[float]:
    """Comma-separated floats; `what` names the expected form in the error."""
    try:
        return [float(p.strip()) for p in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {text!r} as {what}") from exc


# the options that take no value; every other option takes one
_FLAGS = ("--help", "--print-manifest", "--allow-boundary")


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each `--zeta -0.5,2` (any option but _FLAGS) written
    `--zeta=-0.5,2`: argparse takes a token that starts with "-" for an option
    unless it reads as one negative number (-1e-3 does not), and which forms
    it reads so differs between versions."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and prev not in _FLAGS
                and tok.startswith("-") and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_complex(text: str) -> complex:
    nums = _floats(text, "re[,im]")
    if len(nums) == 1:
        return complex(nums[0], 0.0)
    if len(nums) == 2:
        return complex(nums[0], nums[1])
    raise ValidationError(f"expected 1 or 2 comma-separated numbers, got {len(nums)}")


def _parse_bicomplex(text: str) -> Bicomplex:
    nums = _floats(text, "a bicomplex point")
    if len(nums) == 4:
        return Bicomplex(complex(nums[0], nums[1]), complex(nums[2], nums[3]))
    if len(nums) == 2:
        return Bicomplex.from_scalar(complex(nums[0], nums[1]))
    if len(nums) == 1:
        return Bicomplex.from_scalar(nums[0])
    raise ValidationError(
        "bicomplex point takes z1_re,z1_im,z2_re,z2_im (idempotent parts), re,im, or re"
    )


def _parse_orders(text: str) -> list[int]:
    """Moment orders: '0..6' (inclusive), '3', or '0,2,4'.  An order
    outside moment_check's 0..8 is refused before any check runs, a
    range's by its two ends, before its list is built."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValidationError(f"empty order range {text!r}")
            return list(range(moment_order(lo), moment_order(hi) + 1))
        orders = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {text!r} as moment orders") from exc
    return [moment_order(k) for k in orders]


def _load_model(path: str, k_flag: int) -> CoherentModel:
    # a "K" entry in the file wins over the command-line default
    params, k_file = load_fw_params(path)
    return CoherentModel(params, k_file if k_file is not None else k_flag)


# ---------------------------------------------------------------- fw


def cmd_fw_eval(args) -> int:
    params, _ = load_fw_params(args.params)
    res = evaluate(
        params,
        _parse_complex(args.z),
        tol=args.tol,
        allow_boundary=args.allow_boundary,
    )
    _emit_json(
        {
            "value": [res.value.real, res.value.imag],
            "terms": res.terms_used,
            "tail_bound": res.tail_bound,
        }
    )
    return EXIT_OK


def cmd_fw_radius(args) -> int:
    params, _ = load_fw_params(args.params)
    v = radius(params)
    lam = boundary_exponent(params)
    _emit_json(
        {
            "radius": "inf" if math.isinf(v) else v,
            "margin": margin(params),
            "boundary_exponent": [lam.real, lam.imag],
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------- bcfw


def cmd_bcfw_classify(args) -> int:
    _emit_json(classify(load_bc_params(args.params)).to_json())
    return EXIT_OK


def cmd_bcfw_eval(args) -> int:
    value = evaluate_bc(
        load_bc_params(args.params),
        _parse_bicomplex(args.z),
        tol=args.tol,
        allow_boundary=args.allow_boundary,
    )
    _emit_json({"value": value.to_json()})
    return EXIT_OK


def cmd_bcfw_region(args) -> int:
    rows = region_sample(
        load_bc_params(args.params),
        GridSpec(args.r1_max, args.r2_max, args.n1, args.n2),
    )
    sys.stdout.write("z1_abs,z2_abs,inside\n")
    for r1, r2, inside in rows:
        sys.stdout.write(f"{_fmt(r1)},{_fmt(r2)},{'true' if inside else 'false'}\n")
    return EXIT_OK


# ---------------------------------------------------------------- cs


def cmd_cs_coeffs(args) -> int:
    model = _load_model(args.params, args.K)
    state = make_state(model, _parse_complex(args.z), tail_target=args.tail)
    _emit_json(state.to_json())
    return EXIT_OK


def cmd_cs_overlap(args) -> int:
    model = _load_model(args.params, args.K)
    z = _parse_complex(args.z)
    zp = _parse_complex(args.zp)
    v = overlap(model, z, zp)
    sys.stdout.write("z_re,z_im,zp_re,zp_im,re,im,abs\n")
    cells = (z.real, z.imag, zp.real, zp.imag, v.real, v.imag, abs(v))
    sys.stdout.write(",".join(_fmt(c) for c in cells) + "\n")
    return EXIT_OK


_VERIFY_TOLS = {
    "recurrence": 1e-11,
    "norm": 1e-10,
    "self_overlap": 1e-10,
    "residual": 1e-8,
}


def _verify_model(label: str, model: CoherentModel) -> list[tuple[str, str, float]]:
    zs = [
        r * complex(math.cos(t), math.sin(t))
        for r in (0.5, 1.5)
        for t in (0.0, 2.4)
    ]
    worst = {name: 0.0 for name in _VERIFY_TOLS}
    worst["recurrence"] = recurrence_worst(model, min(100, 4 * model.K))
    for z in zs:
        state = make_state(model, z)
        total = sum(photon_distribution(state)) + state.tail_mass
        worst["norm"] = max(worst["norm"], abs(total - 1.0))
        worst["self_overlap"] = max(worst["self_overlap"], abs(overlap(model, z, z) - 1.0))
        worst["residual"] = max(worst["residual"], annihilation_residual(model, state))
    return [(label, name, worst[name]) for name in _VERIFY_TOLS]


def cmd_cs_verify(args) -> int:
    models = [("file", _load_model(args.params, args.K))]
    rng = np.random.default_rng(args.seed)
    for i in range(args.random):
        models.append((f"rng{i}", CoherentModel(acceptance.random_margin_model(rng), 32)))
    sys.stdout.write("model,check,worst,tol,pass\n")
    ok = True
    for label, model in models:
        for mlabel, name, value in _verify_model(label, model):
            tol = _VERIFY_TOLS[name]
            passed = value <= tol
            ok = ok and passed
            sys.stdout.write(
                f"{mlabel},{name},{_fmt(value)},{_fmt(tol)},{'pass' if passed else 'fail'}\n"
            )
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------- nu / measure


def cmd_nu_eval(args) -> int:
    model = _load_model(args.model, args.K)
    zetas = _floats(args.zeta, "zeta values")
    cfg = QuadConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    results = [nu_with_error(model, zeta, cfg, args.scheme) for zeta in zetas]
    if len(zetas) == 1:
        value, err = results[0]
        _emit_json({"value": value, "err_est": err, "scheme": args.scheme})
    else:
        for zeta, (value, err) in zip(zetas, results):
            _emit_json(
                {"zeta": zeta, "value": value, "err_est": err, "scheme": args.scheme}
            )
    return EXIT_OK


def cmd_measure_check(args) -> int:
    if not args.tol > 0:  # NaN fails this test too
        raise ValidationError("tol must be > 0")
    model = _load_model(args.model, args.K)
    orders = _parse_orders(args.k)
    results = [moment_check(model, k) for k in orders]
    sys.stdout.write("k,lhs,rhs,rel_err,pass\n")
    ok = True
    for k, res in zip(orders, results):
        passed = res.rel_err <= args.tol
        ok = ok and passed
        sys.stdout.write(
            f"{k},{_fmt(res.lhs)},{_fmt(res.rhs)},{_fmt(res.rel_err)},"
            f"{'pass' if passed else 'fail'}\n"
        )
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------- selftest


def cmd_selftest(args) -> int:
    started = time.perf_counter()
    results = acceptance.run_all(seed=args.seed, only=args.only)
    total = time.perf_counter() - started
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] {r.name} ({r.elapsed:.2f}s): {r.detail}\n")
    n_pass = sum(1 for r in results if r.passed)
    sys.stdout.write(f"{n_pass}/{len(results)} criteria passed in {total:.1f}s\n")
    failed = [r.name for r in results if not r.passed]
    if failed:
        sys.stderr.write(f"first failing criterion: {failed[0]}\n")
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _add_model_flag(sp, flag: str) -> None:
    sp.add_argument(flag, required=True, help="parameter file (JSON)")
    sp.add_argument("--K", type=int, default=32, help="truncation if absent from file")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="fwstates", description=__doc__.splitlines()[0])
    top.add_argument(
        "--print-manifest",
        action="store_true",
        help="echo the run manifest as JSON on stderr",
    )
    sub = top.add_subparsers(dest="command", metavar="command")

    fw = sub.add_parser("fw", help="generalized Wright series")
    fwsub = fw.add_subparsers(dest="subcommand", metavar="subcommand")
    fe = fwsub.add_parser("eval", help="evaluate at a complex point")
    fe.add_argument("--params", required=True, help="parameter file (JSON)")
    fe.add_argument("--z", required=True, help="point, re or re,im")
    fe.add_argument("--tol", type=float, default=DEFAULT_TOL)
    fe.add_argument("--allow-boundary", action="store_true")
    fe.set_defaults(func=cmd_fw_eval, output_format="json")
    fr = fwsub.add_parser("radius", help="radius, margin, boundary exponent")
    fr.add_argument("--params", required=True, help="parameter file (JSON)")
    fr.set_defaults(func=cmd_fw_radius, output_format="json")

    bc = sub.add_parser("bcfw", help="bicomplex extension")
    bcsub = bc.add_subparsers(dest="subcommand", metavar="subcommand")
    bcc = bcsub.add_parser("classify", help="nine-case convergence report")
    bcc.add_argument("--params", required=True, help="bicomplex parameter file (JSON)")
    bcc.set_defaults(func=cmd_bcfw_classify, output_format="json")
    bce = bcsub.add_parser("eval", help="evaluate at a bicomplex point")
    bce.add_argument("--params", required=True, help="bicomplex parameter file (JSON)")
    bce.add_argument("--z", required=True, help="z1_re,z1_im,z2_re,z2_im or re,im or re")
    bce.add_argument("--tol", type=float, default=DEFAULT_TOL)
    bce.add_argument("--allow-boundary", action="store_true")
    bce.set_defaults(func=cmd_bcfw_eval, output_format="json")
    bcr = bcsub.add_parser("region", help="convergence-region membership grid")
    bcr.add_argument("--params", required=True, help="bicomplex parameter file (JSON)")
    bcr.add_argument("--r1-max", type=float, required=True)
    bcr.add_argument("--r2-max", type=float, required=True)
    bcr.add_argument("--n1", type=int, default=21)
    bcr.add_argument("--n2", type=int, default=21)
    bcr.set_defaults(func=cmd_bcfw_region, output_format="csv")

    cs = sub.add_parser("cs", help="coherent states")
    cssub = cs.add_subparsers(dest="subcommand", metavar="subcommand")
    csc = cssub.add_parser("coeffs", help="normalized state coefficients")
    _add_model_flag(csc, "--params")
    csc.add_argument("--z", required=True, help="label, re or re,im")
    csc.add_argument("--tail", type=float, default=1e-12, help="truncated-mass target")
    csc.set_defaults(func=cmd_cs_coeffs, output_format="json")
    cso = cssub.add_parser("overlap", help="overlap of two states")
    _add_model_flag(cso, "--params")
    cso.add_argument("--z", required=True)
    cso.add_argument("--zp", required=True)
    cso.set_defaults(func=cmd_cs_overlap, output_format="csv")
    csv_ = cssub.add_parser("verify", help="recurrence / norm / eigenstate checks")
    _add_model_flag(csv_, "--params")
    csv_.add_argument("--random", type=int, default=0, help="extra random models")
    csv_.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    csv_.set_defaults(func=cmd_cs_verify, output_format="csv")

    nu = sub.add_parser("nu", help="continuous-spectrum normalization")
    nusub = nu.add_subparsers(dest="subcommand", metavar="subcommand")
    nue = nusub.add_parser("eval", help="nu(zeta) with an error estimate")
    _add_model_flag(nue, "--model")
    nue.add_argument("--zeta", required=True, help="value or comma list")
    nue.add_argument("--scheme", choices=SCHEMES, default="gk")
    nue.add_argument("--rel-tol", type=float, default=DEFAULT_QUAD.rel_tol)
    nue.add_argument("--abs-tol", type=float, default=DEFAULT_QUAD.abs_tol)
    nue.set_defaults(func=cmd_nu_eval, output_format="json")

    me = sub.add_parser("measure", help="resolution-of-unity measure")
    mesub = me.add_subparsers(dest="subcommand", metavar="subcommand")
    mec = mesub.add_parser("check", help="moment identity table")
    _add_model_flag(mec, "--model")
    mec.add_argument("--k", required=True, help="orders: 0..6, 3, or 0,2,4")
    mec.add_argument("--tol", type=float, default=1e-6)
    mec.set_defaults(func=cmd_measure_check, output_format="csv")

    st = sub.add_parser("selftest", help="run the acceptance battery")
    st.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    st.add_argument(
        "--only",
        action="append",
        choices=sorted(acceptance.CRITERIA),
        help="restrict to named criteria (repeatable)",
    )
    st.set_defaults(func=cmd_selftest, output_format="text")

    return top


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on first use and shared by every main() call."""
    return build_parser()


def _manifest(args) -> dict:
    """What a run consumed: command, inputs, tolerances, seed, format."""
    tols = {}
    for key in ("tol", "tail", "rel_tol", "abs_tol"):
        value = getattr(args, key, None)
        if value is not None:
            tols[key] = value
    return {
        "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "params_file": getattr(args, "params", None) or getattr(args, "model", None),
        "tolerances": tols,
        "seed": getattr(args, "seed", None),
        "output_format": getattr(args, "output_format", "text"),
    }


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_BAD_INPUT
    if args.print_manifest:
        sys.stderr.write(json.dumps(_manifest(args), sort_keys=True) + "\n")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to devnull, so that the flush at interpreter exit
        # does not raise again (the advice of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except (DomainViolation, DomainError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
