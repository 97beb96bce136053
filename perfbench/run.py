"""fwstates benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload series --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout; the package is imported from ./src
(nothing needs installing).  One process drives the library as a closed
loop with a single client; FW_THREADS is removed so the CLI worker pool
stays off.  Set-up time is measured in fresh interpreters first.

stdout carries a readable report and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The full result,
with the run manifest (and the spans of a traced run), is written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("series", "states", "measure")
SETUP_REPEATS = 7
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def measure_setup(workload: str, env: dict) -> dict:
    """Median set-up and CLI import time over fresh interpreters.

    setup_s is rescaled to the reference speed by the calibration kernel,
    like the pass timings, timed inside each probe right after its set-up
    (timed from this process instead, it tracks the probe's speed worse
    and about doubles the spread); the raw times are kept in the samples.
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["setup_s"] * calib.REF_S / r["calibration_s"] for r in runs),
        "cli_import_s": statistics.median(r["cli_import_s"] for r in runs),
        "samples": runs,
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fwstates").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args, result: dict, fw_threads: str | None) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "FW_THREADS": fw_threads,  # as found; the run itself unsets it
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": result["passes"],
        "ops_per_pass": result["ops_per_pass"],
        "ops": result["attempted"],
    }


def report(result: dict, setup: dict, trace: bool) -> list[str]:
    e = result["e2e"]
    n = result["latency_samples"]
    raw = result["raw"]
    lines = [
        f"perfbench {result['workload']}  seed={result['seed']}  "
        f"passes={result['passes']} x {result['ops_per_pass']} ops  trace={int(trace)}",
        "  times are rescaled to the reference speed "
        f"(x{statistics.median(result['pass_scales']):.4g}); raw in brackets",
        f"  wall_s       {e['wall_s']:.6g} s    [{raw['wall_s']:.6g}] wall time of one pass",
        f"  op_p50_ms    {e['op_p50_ms']:.6g} ms   [{raw['op_p50_ms']:.6g}] nearest rank, "
        f"n={n}",
        f"  op_p99_ms    {e['op_p99_ms']:.6g} ms   [{raw['op_p99_ms']:.6g}] nearest rank, "
        f"n={n}, {n - math.ceil(0.99 * n)} beyond",
        f"  fail_frac    {result['fail_frac']:.6g}      {result['failed']} of "
        f"{result['attempted']} failed {result['failed_by_slice'] or ''}",
        f"  setup_s      {setup['setup_s']:.6g} s    "
        f"[{statistics.median(r['setup_s'] for r in setup['samples']):.6g}] "
        f"median of {SETUP_REPEATS} fresh interpreters",
        f"  peak_rss_mb  {result['peak_rss_mb']:.6g} MB",
        "  inputs: " + "  ".join(f"{k[6:]}={v:.4g}" for k, v in result["inputs"].items()),
    ]
    lines += [f"  failure: {why}" for why in result["failure_samples"]]
    if trace:
        lines += [
            f"  {k} = {v:.6g}" for k, v in result["per_layer"].items() if v and k[:6] != "input."
        ]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fwstates" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package sources at {SRC}/fwstates; run from a checkout\n")
        return 2
    fw_threads = os.environ.pop("FW_THREADS", None)
    setup = measure_setup(args.workload, dict(os.environ))

    sys.path.insert(0, str(SRC))
    import fwstates
    import harness

    if Path(fwstates.__file__).resolve().parent != (SRC / "fwstates").resolve():
        sys.stderr.write(f"perfbench: imported fwstates from {fwstates.__file__}, not {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        from spans import write_jsonl

        write_jsonl(spans, OUT / f"{stem}-spans.jsonl", spans[0][1] if spans else 0.0)
    result["setup"] = setup
    result["manifest"] = manifest(args, result, fw_threads)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))

    if args.trace:
        values = {**result["per_layer"], "cli.import_s": setup["cli_import_s"]}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in harness.per_layer_spec()
        }
    else:
        values = {**result["e2e"], "setup_s": setup["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for line in report(result, setup, bool(args.trace)):
        print(line)
    print("manifest: " + json.dumps(result["manifest"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
