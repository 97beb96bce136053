"""Alternating parent/change pairs of perfbench runs, summed up under the gain rule.

Each side is a git revision exported with `git archive` into its own
directory, and each pair runs `perfbench/run.py --workload W --seed S
--seconds N --trace 0` once from each copy, one run at a time, with N
the run_seconds of BENCHMARK.json.  The
parent runs first at even seeds and second at odd ones.  The same
revision may stand on both sides, for an A/A set that shows what the
second copy's position costs on its own.

    python3 tools/benchpairs.py --parent HEAD~1 --set claim \\
        --workload measure --seeds 3901-3910 --out BENCH_<n>.json

The runs and their summary go under the set's name in --out, in the
layout of the checked-in BENCH_*.json files (`about`, `summary`,
`runs`); other sets already in the file are kept.  After its perfbench
run, each side of a pair also times the CLI's cold start: the median
wall time of COLD_STARTS fresh `python -c "import fwstates.cli"`
processes on that copy's src, interpreter start-up included, kept as the
side's cold_start_s.  The summary gives, per workload, end-to-end metric
and cold_start_s, the medians, quartiles and interquartile range of each
side, the change's median over the parent's, how many pairs the change
won, and whether `failed` was equal in every pair.  The script then prints the
gain-rule verdict for each metric: a gain needs at least 10 pairs, the
change better in at least 9 of each 10, a median gap past the parent's
interquartile range and `failed` equal in every pair; a metric whose
median moved the wrong way by more than its bound in BENCHMARK.json is
past its bound, and one whose parent IQR is wider than that bound is
unresolved.  cold_start_s has no bound in BENCHMARK.json and gets no
verdict.

    python3 tools/benchpairs.py --failed-table BENCH_44.json BENCH_45.json

prints ROADMAP's Priority table instead: for each workload, the median
and range of `failed` on each side of every pair in each of two files
this script wrote (BENCH_38.json onward; the earlier files have other
layouts), as markdown rows.  It runs no benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9  # pairs the change must win, as a share of all pairs
COLD_STARTS = 5  # fresh CLI imports per side of a pair


def export(rev: str, dest: Path) -> str:
    """The tree of rev in dest, by git archive; returns rev's full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    tar = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(tar), sha], cwd=ROOT, check=True)
    with tarfile.open(tar) as tf:
        tf.extractall(dest, filter="data")
    tar.unlink()
    return sha


def run_once(copy: Path, workload: str, seed: int, seconds: int) -> dict:
    """perfbench's result line (its last stdout line) for one run from copy."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def cold_start(copy: Path) -> float:
    """Median wall seconds of COLD_STARTS fresh `python -c "import fwstates.cli"` runs on copy's src."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fwstates.cli"], cwd=copy, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def order(seed: int) -> list[str]:
    return ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]


def _stats(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (statistics.quantiles' default method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _compare(p: list[float], c: list[float], direction: str) -> dict:
    """Medians, quartiles and wins of the parent's values p against the change's c, pair by pair."""
    p_med, p_q1, p_q3 = _stats(p)
    c_med, c_q1, c_q3 = _stats(c)
    sign = 1.0 if direction == "lower" else -1.0
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": c_med / p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "parent_iqr": p_q3 - p_q1,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "change_wins": sum(sign * (pv - cv) > 0.0 for pv, cv in zip(p, c)),
        "pairs": len(p),
    }


def summarize(runs: dict, better: dict[str, str]) -> dict:
    """Per workload, the summary of its pairs for each metric of better
    ({name: "lower" or "higher"}) and for cold_start_s, and whether failed
    was equal in every pair.

    runs maps "<workload>-<seed>" to {"order", "parent", "change"}, each side
    a perfbench result line with the side's cold_start_s added."""
    by_workload: dict[str, list[dict]] = {}
    for key, pair in runs.items():
        by_workload.setdefault(key.rsplit("-", 1)[0], []).append(pair)
    out = {}
    for workload, pairs in by_workload.items():
        entry = {}
        for name, direction in better.items():
            p = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
            c = [pair["change"]["metrics"][name]["value"] for pair in pairs]
            entry[name] = _compare(p, c, direction)
        p = [pair["parent"]["cold_start_s"] for pair in pairs]
        c = [pair["change"]["cold_start_s"] for pair in pairs]
        entry["cold_start_s"] = _compare(p, c, "lower")
        entry["failed_equal_every_pair"] = all(
            pair["parent"]["failed"] == pair["change"]["failed"] for pair in pairs
        )
        out[workload] = entry
    return out


def verdict(stats: dict, direction: str, bound: float, failed_equal: bool) -> str:
    """"past bound" where the change's median is worse than the parent's by
    more than bound (a fraction of it), "gain" under the gain rule,
    "unresolved" where the parent's IQR is wider than the bound allows, so
    that a move inside the bound cannot be told from noise, else "within
    bound"."""
    sign = 1.0 if direction == "lower" else -1.0
    gap = sign * (stats["parent_median"] - stats["change_median"])
    if sign * (stats["change_over_parent"] - 1.0) > bound:
        return "past bound"
    if (stats["pairs"] >= MIN_PAIRS and stats["change_wins"] >= WIN_SHARE * stats["pairs"]
            and gap > stats["parent_iqr"] and failed_equal):
        return "gain"
    if stats["parent_iqr"] > bound * abs(stats["parent_median"]):
        return "unresolved"
    return "within bound"


def verdict_lines(summary: dict, spec: dict) -> list[str]:
    """One line per workload and metric of spec: medians, wins, IQR and verdict."""
    lines = []
    for workload, entry in summary.items():
        for name, stats in entry.items():
            if name not in spec:
                continue
            direction, bound = spec[name]
            lines.append(
                f"{workload} {name}: parent {stats['parent_median']:.6g} change "
                f"{stats['change_median']:.6g} ({stats['change_over_parent'] - 1.0:+.2%}), "
                f"wins {stats['change_wins']}/{stats['pairs']}, parent IQR "
                f"{stats['parent_iqr']:.3g}: {verdict(stats, direction, bound, entry['failed_equal_every_pair'])}"
            )
        lines.append(f"{workload} failed equal in every pair: {entry['failed_equal_every_pair']}")
    return lines


def failed_table(docs: dict[str, dict]) -> list[str]:
    """The markdown rows of the failed table: per workload, a cell
    "median (min-max)" for each side of each file, over all its sets;
    docs maps a file name to the file's contents."""
    sides = ("parent", "change")
    counts: dict[str, dict[tuple[str, str], list[int]]] = {}
    for name, doc in docs.items():
        for pairs in doc["runs"].values():
            for key, pair in pairs.items():
                cells = counts.setdefault(key.rsplit("-", 1)[0], {})
                for side in sides:
                    cells.setdefault((name, side), []).append(pair[side]["failed"])
    heads = [f"{name} {side}" for name in docs for side in sides]
    lines = ["| workload | " + " | ".join(heads) + " |", "|---" * (len(heads) + 1) + "|"]
    for workload, cells in counts.items():
        row = [cells.get((name, side)) for name in docs for side in sides]
        lines.append(f"| `{workload}` | " + " | ".join(
            f"{statistics.median(v):g} ({min(v)}–{max(v)})" if v else "–" for v in row
        ) + " |")
    return lines


def benchmark_spec() -> tuple[int, dict[str, tuple[str, float]]]:
    """BENCHMARK.json's run_seconds, and {metric: (better, bound)} from its end_to_end list."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return bench["run_seconds"], {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--parent", help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side (default HEAD)")
    ap.add_argument("--workload", action="append", help="perfbench workload; repeatable")
    ap.add_argument("--seeds", type=_seeds, help="a seed or an inclusive range, as 3901-3910")
    ap.add_argument("--set", help="name of this set of pairs in --out")
    ap.add_argument("--out", type=Path, help="BENCH_<pr>.json to add the set to")
    ap.add_argument("--about", help="the file's about text; kept from --out when not given")
    ap.add_argument("--failed-table", nargs=2, type=Path, metavar=("OLD", "NEW"),
                    help="print the failed table of two files this script wrote, and run nothing")
    args = ap.parse_args(argv)
    if args.failed_table:
        docs = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in args.failed_table}
        try:
            lines = failed_table(docs)
        except (KeyError, TypeError, AttributeError) as exc:
            ap.error(f"not a file of this script's layout (BENCH_38.json onward): {exc!r}")
        print("\n".join(lines))
        return 0
    missing = [opt for opt in ("parent", "workload", "seeds", "set", "out") if getattr(args, opt) is None]
    if missing:
        ap.error("the following arguments are required: " + ", ".join(f"--{opt}" for opt in missing))

    seconds, spec = benchmark_spec()
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("about", "")
    if args.about is not None:
        doc["about"] = args.about
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        copies = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), copies[side]) for side in copies}
        print(f"parent {shas['parent']}, change {shas['change']}", file=sys.stderr)
        runs = {}
        for workload in args.workload:
            for seed in args.seeds:
                pair = {"order": order(seed)}
                for side in pair["order"]:
                    pair[side] = run_once(copies[side], workload, seed, seconds)
                    pair[side]["cold_start_s"] = cold_start(copies[side])
                runs[f"{workload}-{seed}"] = pair
                print(f"{workload}-{seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['wall_s']['value']:.4g} s, "
                    f"cold start {pair[side]['cold_start_s']:.4g} s" for side in pair["order"]
                ), file=sys.stderr)
    summary = summarize(runs, {name: better for name, (better, _) in spec.items()})
    doc.setdefault("summary", {})[args.set] = summary
    doc.setdefault("runs", {})[args.set] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("\n".join(verdict_lines(summary, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
