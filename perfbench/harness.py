"""Timed phase, output checks and metrics for one workload run.

A run is a number of passes fixed by --seconds and the workload's
nominal pass time; pass i draws its inputs from (seed, i), so a seed and
a run length fix every input.  Inputs are generated before each pass is
timed, and outputs are checked only after the timed phase.

The machine is shared and its speed moves by up to a factor of two for
seconds or minutes at a time, so the calibration kernel (calib.py) runs
between every CHUNK operations, untimed, and every timing is rescaled to
the reference speed: raw time x REF_S / calibration time around it.
wall_s is the median over the passes of the rescaled pass wall time,
op_p50_ms and op_p99_ms the percentiles of the rescaled latencies of all
passes together (pooled, p99 rests on P times as many samples beyond it
as one pass gives, and reads steadier than the median of per-pass p99s);
the raw figures stay in the result file.  Each pass holds at least MIN_OPS
operations and has the same composition, so a change that slows some
operations slows every pass alike.  Failures are counted over all
passes.

With tracing off the passes give the end-to-end metrics.  With tracing
on, passes 0..P-1 run traced (the same inputs an untraced run at that
seed times) and passes P..2P-1 run untraced in between them; the traced
passes give the per-layer metrics (raw times, with the calibration time
beside them as calib.ms), and the traced wall_s minus the untraced
wall_s, both rescaled, is the tracing overhead.  A workload may add
traced operations after its passes (series adds the acceptance battery).
"""

from __future__ import annotations

import gc
import importlib
import math
import resource
import statistics
from collections import Counter
from time import perf_counter

import numpy as np
import calib
from common import CONTOUR_CANCELLATION, Record
from spans import NullTracer, Tracer, summarize

from fwstates import Bicomplex, compose_idempotent
from fwstates.coherent import K_MAX
from fwstates.gammafn import gamma_bicomplex, log_gamma, log_gamma_ratio, log_gamma_vec

MIN_OPS = 1000  # per pass: p99 needs at least ten samples beyond it
CHUNK = 50  # operations between calibration samples
WARMUP_INDEX = 1 << 20

# library calls the workloads make; each gives .calls, .busy_ms and .fail
CALLS = (
    "foxwright.evaluate",
    "foxwright.evaluate.boundary",
    "foxwright_bc.evaluate",
    "coherent.make_state",
    "coherent.overlap",
    "coherent.normalization",
    "coherent.ladder_elements",
    "coherent.annihilation_residual",
    "coherent.make_state_b",
    "coherent.overlap_b",
    "continuum.nu.gk",
    "continuum.nu.ts",
    "continuum.state_density",
    "continuum.overlap_tilde",
    "hfunction.eval_h.warm",
    "hfunction.eval_h.cold",
    "hfunction.weight",
    "hfunction.moment_check",
    "cli.nu_eval",
    "cli.measure_check",
)
SELF_LAYERS = ("foxwright", "foxwright_bc", "coherent", "continuum", "hfunction", "cli", "acceptance")
CRITERIA = (
    "reduction-conformance",
    "ml-bessel-conformance",
    "radius-law",
    "nine-case-classifier",
    "idempotent-homomorphism",
    "coherent-structure",
    "moment-identity",
    "nu-function",
    "determinism-runtime",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [
        ("gammafn.log_gamma.us", "us", "lower"),
        ("gammafn.log_gamma_vec.us_per_arg", "us", "lower"),
        ("gammafn.log_gamma_ratio.us", "us", "lower"),
        ("gammafn.gamma_bicomplex.us", "us", "lower"),
        ("bicomplex.arith.us", "us", "lower"),
    ]
    for name in CALLS:
        spec += [
            (name + ".calls", "count", "lower"),
            (name + ".busy_ms", "ms", "lower"),
            (name + ".fail", "count", "lower"),
        ]
    spec += [
        ("foxwright.evaluate.terms", "count", "lower"),
        ("foxwright.evaluate.boundary.terms", "count", "lower"),
        ("coherent.make_state.coeffs", "count", "lower"),
        ("coherent.make_state.useful_ratio", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("acceptance.run_all.fail", "count", "lower"),
    ]
    spec += [(f"acceptance.{c}.s", "s", "lower") for c in CRITERIA]
    spec += [(f"{layer}.self_ms", "ms", "lower") for layer in SELF_LAYERS]
    spec += [
        ("trace.overhead_s", "s", "lower"),
        ("calib.ms", "ms", "lower"),
        ("trace.spans", "count", "lower"),
        ("input.repeat_share", "ratio", "higher"),
        ("input.distinct_params_per_kop", "count", "lower"),
        ("input.boundary_share", "ratio", "lower"),
        ("input.lhp_share", "ratio", "lower"),
        ("input.ill_conditioned_share", "ratio", "lower"),
        ("input.contour_cancel_share", "ratio", "lower"),
        ("input.eval_h_cold_share", "ratio", "lower"),
    ]
    return spec


def passes_for(mod, seconds: int) -> int:
    return max(2, round(seconds / mod.PASS_SECONDS))


def _run_ops(mod, ctx, index: int, tracer, first_id: int) -> tuple[list[Record], list]:
    """Run one pass; returns its records and (wall, scale) per chunk.

    The calibration kernel runs between chunks of CHUNK operations, outside
    the timed chunks; each chunk's scale is REF_S over the mean of the
    calibration times on either side of it.
    """
    ops = mod.make_pass(ctx, index)
    gc.collect()
    records: list[Record] = []
    chunks = []
    before = calib.measure()
    for lo in range(0, len(ops), CHUNK):
        start = perf_counter()
        for i, op in enumerate(ops[lo : lo + CHUNK], first_id + lo):
            tracer.begin_op(i, op.kind)
            t0 = perf_counter()
            try:
                out, err = op.call(tracer), None
            except Exception as exc:  # a failed operation is counted, never dropped
                out, err = None, exc
            t1 = perf_counter()
            tracer.end_op()
            records.append(Record(op, t1 - t0, out, err))
        wall = perf_counter() - start
        after = calib.measure()
        scale = calib.REF_S / (0.5 * (before + after))
        for rec in records[lo:]:
            rec.scale = scale
        chunks.append((wall, scale))
        before = after
    return records, chunks


def _failure(rec: Record) -> str | None:
    if rec.error is not None:
        return f"raised {type(rec.error).__name__}: {rec.error}"
    try:
        return rec.op.check(rec.output)
    except Exception as exc:  # an output the check cannot read is wrong
        return f"output could not be checked: {type(exc).__name__}: {exc}"


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(workload: str, seed: int, seconds: int, trace: bool, workdir) -> dict:
    mod = importlib.import_module(workload)
    ctx = mod.prepare(seed, workdir)
    n_pass = passes_for(mod, seconds)
    warm, _ = _run_ops(mod, ctx, WARMUP_INDEX, NullTracer(), 0)
    if len(warm) < MIN_OPS:
        raise RuntimeError(f"{workload}: a pass has {len(warm)} operations, under {MIN_OPS}")
    if hasattr(mod, "warmup"):
        mod.warmup(ctx)

    tracer = Tracer() if trace else NullTracer()
    schedule = [(i, trace) for i in range(n_pass)]
    if trace:
        schedule = [s for i in range(n_pass) for s in ((i, True), (n_pass + i, False))]
    records: list[Record] = []
    passes = {True: [], False: []}  # traced -> [(records, chunks)]
    for index, traced in schedule:
        recs, chunks = _run_ops(mod, ctx, index, tracer if traced else NullTracer(), len(records))
        for rec in recs:
            rec.traced = traced
        records.extend(recs)
        passes[traced].append((recs, chunks))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inputs = input_properties(records)
    if trace and hasattr(mod, "traced_extra"):
        records.extend(mod.traced_extra(ctx, tracer))

    check_start = perf_counter()
    failures = []
    for rec in records:
        reason = _failure(rec)
        if reason is not None:
            failures.append((rec, reason))
    by_slice = Counter(rec.op.defect or rec.op.tag for rec, _ in failures)
    correct = all(rec.op.defect for rec, _ in failures)
    check_s = perf_counter() - check_start

    e2e = pass_timings(passes[False], rescale=True)
    result = {
        "workload": workload,
        "seed": seed,
        "passes": n_pass,
        "ops_per_pass": len(warm),
        "attempted": len(records),
        "failed": len(failures),
        "fail_frac": len(failures) / len(records),
        "failed_by_slice": dict(by_slice),
        "failure_samples": [f"{rec.op.kind}: {why}" for rec, why in failures[:8]],
        "correct": correct,
        "latency_samples": sum(len(recs) for recs, _ in passes[False]),
        "pass_walls_s": [sum(w for w, _ in chunks) for _, chunks in passes[False]],
        "pass_scales": [
            sum(w * k for w, k in chunks) / sum(w for w, _ in chunks) for _, chunks in passes[False]
        ],
        "raw": pass_timings(passes[False], rescale=False),
        "peak_rss_mb": peak_rss_mb,
        "check_s": check_s,
        "e2e": e2e,
        "inputs": inputs,
    }
    if trace:
        result["per_layer"] = {
            **layer_metrics(mod, ctx, records, failures, tracer, passes),
            **inputs,
        }
        result["spans"] = tracer.spans
    return result


def pass_timings(passes: list, rescale: bool) -> dict:
    """Median over (records, chunks) passes of the pass wall time, and the
    latency percentiles over all their operations, rescaled to the
    reference speed or raw."""
    walls = [sum(w * k if rescale else w for w, k in chunks) for _, chunks in passes]
    lat = sorted(
        rec.latency * rec.scale if rescale else rec.latency for recs, _ in passes for rec in recs
    )
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * nearest_rank(lat, 0.50),
        "op_p99_ms": 1e3 * nearest_rank(lat, 0.99),
    }


def input_properties(records: list[Record]) -> dict:
    """Shares of the input properties a cache or a faster route depends on."""
    seen, repeats = set(), 0
    for rec in records:
        key = rec.op.key
        if key is None:
            continue
        if key in seen:
            repeats += 1
        seen.add(key)
    n = len(records)
    eval_h = [rec for rec in records if rec.op.kind.startswith("hfunction.eval_h")]
    return {
        "input.repeat_share": repeats / n,
        "input.distinct_params_per_kop": 1e3 * len(seen) / n,
        "input.boundary_share": sum(rec.op.tag == "boundary" for rec in records) / n,
        "input.lhp_share": sum(rec.op.tag == "lhp" for rec in records) / n,
        "input.ill_conditioned_share": sum(rec.op.tag == "ill-conditioned" for rec in records) / n,
        "input.contour_cancel_share": (
            sum(rec.op.defect == CONTOUR_CANCELLATION for rec in records) / n
        ),
        "input.eval_h_cold_share": (
            sum(rec.op.tag == "cold" for rec in eval_h) / len(eval_h) if eval_h else 0.0
        ),
    }


def _useful_and_computed(rec: Record) -> tuple[int, int]:
    """Coefficients kept and coefficients computed over make_state's K doublings."""
    state = rec.output[0] if isinstance(rec.output, tuple) else rec.output
    final = len(state.coeffs) - 1
    k = rec.op.key.K
    computed = k + 1
    while k < final:
        k = min(2 * k, K_MAX)
        computed += k + 1
    return final + 1, computed


def layer_metrics(mod, ctx, records, failures, tracer, passes) -> dict:
    per_name, self_time = summarize(tracer.spans)
    traced = [rec for rec in records if rec.traced and rec.error is None]
    out = microbench(*mod.gamma_args(ctx), ctx.seed)
    fails = Counter(rec.op.kind for rec, _ in failures)
    for name in CALLS:
        calls, busy = per_name.get(name, (0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".busy_ms"] = 1e3 * busy
        out[name + ".fail"] = fails.get(name, 0)
    for kind in ("foxwright.evaluate", "foxwright.evaluate.boundary"):
        out[kind + ".terms"] = sum(r.output.terms_used for r in traced if r.op.kind == kind)
    states = [
        r
        for r in traced
        if r.op.kind in ("coherent.make_state", "coherent.annihilation_residual")
    ]
    pairs = [_useful_and_computed(r) for r in states]
    useful, computed = sum(u for u, _ in pairs), sum(c for _, c in pairs)
    out["coherent.make_state.coeffs"] = useful
    out["coherent.make_state.useful_ratio"] = useful / computed if computed else 0.0
    out["acceptance.run_all.fail"] = sum(fails[f"acceptance.{c}"] for c in CRITERIA)
    for c in CRITERIA:
        times = [r.latency for r in traced if r.op.kind == f"acceptance.{c}"]
        out[f"acceptance.{c}.s"] = min(times, default=0.0)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * self_time.get(layer, 0.0)
    out["trace.overhead_s"] = (
        pass_timings(passes[True], True)["wall_s"] - pass_timings(passes[False], True)["wall_s"]
    )
    out["calib.ms"] = 1e3 * calib.REF_S / statistics.median(
        rec.scale for p in passes.values() for recs, _ in p for rec in recs
    )
    out["trace.spans"] = len(tracer.spans)
    return out


def _per_call_us(fn, n: int, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e6 * statistics.median(times) / n


def microbench(args, triples, seed: int) -> dict:
    """Direct gamma and bicomplex calls on the workload's own arguments."""
    arr = np.asarray(args, dtype=complex)
    blocks = [arr[i : i + 64] for i in range(0, len(arr), 64)]
    pairs = [Bicomplex(w1, w2) for w1, w2 in zip(args[0::2], args[1::2])]
    # the idempotent-homomorphism criterion's arithmetic draws
    raw = np.random.default_rng(seed + 5).standard_normal((2000, 8)) * 2.0
    operands = [
        (
            compose_idempotent(complex(r[0], r[1]), complex(r[2], r[3])),
            compose_idempotent(complex(r[4], r[5]), complex(r[6], r[7])),
        )
        for r in raw
    ]

    def arith():
        for Z, W in operands:
            Z + W
            Z * W
            Z.inverse()

    return {
        "gammafn.log_gamma.us": _per_call_us(lambda: [log_gamma(w) for w in args], len(args)),
        "gammafn.log_gamma_vec.us_per_arg": _per_call_us(
            lambda: [log_gamma_vec(b) for b in blocks], len(arr)
        ),
        "gammafn.log_gamma_ratio.us": _per_call_us(
            lambda: [log_gamma_ratio(a, A, k) for a, A, k in triples], len(triples)
        ),
        "gammafn.gamma_bicomplex.us": _per_call_us(
            lambda: [gamma_bicomplex(W) for W in pairs], len(pairs)
        ),
        "bicomplex.arith.us": _per_call_us(arith, 3 * len(operands)),
    }
