"""Outputs that moved between two trees: a fixed, seeded call corpus run in each.

Each side is a git revision exported with `git archive` into its own
directory, as tools/benchpairs.py does, or a directory that already
holds a tree (`.` for the working tree).  The corpus below runs once in
a fresh interpreter per side, with that side's src/ on PYTHONPATH and
this file's corpus, so both sides make the same calls:

- `nu_with_error` under five QuadConfigs (abs_tol up to 1e290), both
  schemes, on four fixed models and seeded random ones, at zeta up to
  800, the values within 2^64 of DBL_MAX among them;
- `nu`, `overlap_tilde`, `state_density` and `nu_bicomplex`;
- `f_factor` and `ladder_elements`;
- the CLI's `nu eval` (gk and ts, comma lists, --zeta 800, the values
  near DBL_MAX), `measure check` and `cs coeffs`, each in its own
  process: stdout, stderr and exit code;
- the acceptance battery at seeds 20260823 and 7: each criterion's
  verdict, detail (times cut out) and fingerprint, and the sample
  fingerprint.

Every call is made only in a form that trees from e4c1e41 on accept.
Each output is one record, an id and a text: a value's repr or an
exception's type and text.  The tool prints every id whose text moved,
with both texts, and every id that only one side has, then a count; it
exits 1 where anything moved.

    python3 tools/bitdiff.py --parent HEAD~1
    python3 tools/bitdiff.py --parent e4c1e41 --change .
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchpairs import export  # noqa: E402

SEEDS = (20260823, 7)
_CORPUS_SEED = 4102
# the quadrature settings every nu_with_error id runs under: (rel_tol, abs_tol)
_CFGS = ((1e-10, 1e-12), (1e-6, 1e-9), (1e-14, 1e-300), (1e-10, 1e250), (1e-10, 1e290))
# vacuum zeta: small, moderate, within 2^64 of DBL_MAX, and past it
_VACUUM_ZETAS = (0.0, 1e-3, 0.4, 2.5, 9.0, 60.0, 600.0, 680.0, 700.0, 705.0, 708.5, 709.7, 711.0, 800.0)
_FIXED = {
    "vacuum": ([], []),
    "shift": ([(1.0, 1.0)], [(2.0, 1.0)]),
    "wright": ([(1.3, 0.8)], [(2.1, 1.1)]),
    "generic": ([(0.9, 0.4)], [(1.3, 0.8), (0.7, 0.5)]),
}
# CLI commands; VACUUM and SHIFT stand for parameter files the run writes
_CLI = [
    ("nu", "eval", "--model", "SHIFT", "--zeta", "0.5,2.5,9", "--scheme", "gk"),
    ("nu", "eval", "--model", "SHIFT", "--zeta", "0.5,2.5,9", "--scheme", "ts"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "1"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "800", "--scheme", "gk"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "800", "--scheme", "ts"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "705,708.5,709.7", "--scheme", "gk"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "705,708.5,709.7", "--scheme", "ts"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "705", "--scheme", "ts", "--abs-tol", "1e290"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "709.7", "--scheme", "gk", "--abs-tol", "1e290"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "708.5", "--scheme", "gk", "--abs-tol", "5e-324"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "708.5", "--scheme", "ts", "--abs-tol", "5e-324"),
    ("nu", "eval", "--model", "VACUUM", "--zeta", "711", "--scheme", "ts"),
    ("measure", "check", "--model", "SHIFT", "--k", "0..4"),
    ("cs", "coeffs", "--params", "SHIFT", "--z", "0.5"),
    ("cs", "coeffs", "--params", "VACUUM", "--z", "1e-200", "--K", "2"),
]
_TIMES = re.compile(r"\d+(\.\d+)?s\b")


def _outcome(fn, args, kwargs) -> str:
    """repr of fn's value (a list for an array), or its exception's type and text."""
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # every refusal is an output here
        return f"{type(exc).__name__}: {exc}"
    return repr(value.tolist() if hasattr(value, "tolist") else value)


def _random_models(rng, n: int) -> list[tuple[list, list]]:
    """n seeded parameter sets with real positive entries and margin >= 0.4."""
    out = []
    while len(out) < n:
        upper = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(rng.integers(0, 3))]
        lower = [(rng.uniform(0.3, 3.0), rng.uniform(0.5, 1.5)) for _ in range(len(upper) + rng.integers(0, 2))]
        if 1.0 + sum(B for _, B in lower) - sum(A for _, A in upper) >= 0.4:
            out.append((upper, lower))
    return out


def _selftest(r) -> tuple:
    return r.passed, _TIMES.sub("<time>", r.detail), r.fingerprint


def _calls():
    """(id, fn, args, kwargs) for every in-process call of the corpus."""
    import numpy as np

    from fwstates import acceptance, coherent, continuum
    from fwstates.bicomplex import Hyperbolic
    from fwstates.coherent import BCCoherentModel, CoherentModel
    from fwstates.foxwright import FWParams
    from fwstates.foxwright_bc import BCFWParams

    rng = np.random.default_rng(_CORPUS_SEED)
    specs = dict(_FIXED)
    specs.update((f"random{i}", spec) for i, spec in enumerate(_random_models(rng, 6)))
    models = {name: CoherentModel(FWParams(upper=u, lower=l)) for name, (u, l) in specs.items()}
    cfgs = [continuum.QuadConfig(r, a) for r, a in _CFGS]
    for name, model in models.items():
        zetas = _VACUUM_ZETAS if name == "vacuum" else (0.0, 0.4, 2.5, 9.0, 60.0, float(rng.uniform(0.1, 30.0)))
        for zeta in zetas:
            for scheme in continuum.SCHEMES:
                yield f"nu/{name}/{zeta!r}/{scheme}", continuum.nu, (model, zeta), {"scheme": scheme}
                for cfg, (r, a) in zip(cfgs, _CFGS):
                    yield (f"nu_with_error/{name}/{zeta!r}/{scheme}/{r!r},{a!r}",
                           continuum.nu_with_error, (model, zeta, cfg, scheme), {})
        points = [complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(3)]
        pairs = list(zip(points, points[1:] + points[:1])) + [(0.7, 0.7), (1e-200, 1.0), (28.3, 28.3)]
        for z, zp in pairs:
            for scheme in continuum.SCHEMES:
                yield (f"overlap_tilde/{name}/{z!r},{zp!r}/{scheme}",
                       continuum.overlap_tilde, (model, z, zp), {"scheme": scheme})
        for z in points + [1e-160, 1e-200]:
            for E in (0.0, 0.5, 2.5):
                yield f"state_density/{name}/{z!r}/{E!r}", continuum.state_density, (model, z, E), {}
        yield f"f_factor/{name}", coherent.f_factor, (model, np.arange(40)), {}
        for k in (0, 1, 5, 33):
            yield f"ladder_elements/{name}/{k}", coherent.ladder_elements, (model, k), {}
    bc = BCCoherentModel(BCFWParams(upper=[(1.0, Hyperbolic(1, 1))], lower=[(2.0, Hyperbolic(1, 1))]))
    for w in ((1.5, 0.7), (0.2, 2.5), (9.0, 60.0)):
        for scheme in continuum.SCHEMES:
            yield f"nu_bicomplex/shift/{w!r}/{scheme}", continuum.nu_bicomplex, (bc, Hyperbolic(*w), scheme), {}
    for seed in SEEDS:
        yield f"sample_fingerprint/{seed}", acceptance._sample_fingerprint, (seed,), {}
        for r in acceptance.run_all(seed=seed):
            yield f"selftest/{seed}/{r.name}", _selftest, (r,), {}


def run_corpus() -> list[dict]:
    """Every record of the corpus, for the package on sys.path."""
    records = [{"id": cid, "out": _outcome(fn, args, kwargs)} for cid, fn, args, kwargs in _calls()]
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        files = {"VACUUM": Path(tmp) / "vacuum.json", "SHIFT": Path(tmp) / "shift.json"}
        files["VACUUM"].write_text('{"upper": [], "lower": []}\n', encoding="utf-8")
        files["SHIFT"].write_text('{"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]]}\n', encoding="utf-8")
        for argv in _CLI:
            proc = subprocess.run(
                [sys.executable, "-m", "fwstates.cli", *(str(files.get(a, a)) for a in argv)],
                cwd=tmp, capture_output=True, text=True, timeout=600,
            )
            cid = "cli " + " ".join(argv)
            records += [{"id": f"{cid} :stdout", "out": proc.stdout},
                        {"id": f"{cid} :stderr", "out": proc.stderr.replace(tmp, "<tmp>")},
                        {"id": f"{cid} :exit", "out": str(proc.returncode)}]
    return records


def diff(parent: list[dict], change: list[dict]) -> list[str]:
    """The lines that report each record whose text moved, or that one side lacks, then a count."""
    old = {r["id"]: r["out"] for r in parent}
    new = {r["id"]: r["out"] for r in change}
    lines = []
    moved = 0
    for cid in list(old) + [c for c in new if c not in old]:
        if cid not in new:
            lines.append(f"only in parent: {cid}\n  parent: {old[cid]!r}")
        elif cid not in old:
            lines.append(f"only in change: {cid}\n  change: {new[cid]!r}")
        elif old[cid] == new[cid]:
            continue
        else:
            lines.append(f"moved: {cid}\n  parent: {old[cid]!r}\n  change: {new[cid]!r}")
        moved += 1
    lines.append(f"{moved} of {len(set(old) | set(new))} outputs moved")
    return lines


def _side(spec: str, dest: Path) -> Path:
    """The tree for a revision or a directory."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    export(spec, dest)
    return dest


def _records(tree: Path) -> list[dict]:
    """The corpus's records for tree, from a fresh interpreter on tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-corpus"],
        env=env, check=True, capture_output=True, text=True, timeout=1800,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--parent", help="revision or directory of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision or directory of the change side (default HEAD)")
    ap.add_argument("--run-corpus", action="store_true", help="print this interpreter's records as JSON lines")
    args = ap.parse_args(argv)
    if args.run_corpus:
        for record in run_corpus():
            print(json.dumps(record))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        records = [_records(_side(spec, Path(tmp) / side))
                   for side, spec in (("parent", args.parent), ("change", args.change))]
    lines = diff(*records)
    print("\n".join(lines))
    return 0 if lines[-1].startswith("0 of ") else 1


if __name__ == "__main__":
    sys.exit(main())
