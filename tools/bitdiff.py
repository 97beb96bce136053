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
- `evaluate` on the benchmark's four series models (`tight`'s upper a is
  complex) at right and left half-plane points, z = 0 and tiny |z|; on
  its two Gauss models at interior points and on the circle, where the
  Levin route or the capped sum runs; and its refusals: outside the
  radius, on the circle without allow_boundary, an upper pole, no
  convergence in MAX_TERMS terms, a term past the float range; and on
  each of these six models just inside and just past the |z| beyond
  which its first two blocks are one, at tol 1e-14, 1e-15 and 1e-13;
- `evaluate_bc` on the benchmark's two bicomplex models, and on one whose
  components are the two Gauss models at a zero component, Levin and
  capped circle points, outside the radius, on the circle without
  allow_boundary and at a mixed boundary point;
- `normalization`, `normalization_at`, `make_state` and `overlap` (its
  N(|z|^2) N(|z'|^2) past the float range among them);
- `radius` on the series, Gauss, a divergent and the coherent models'
  parameters, and `classify` on four bicomplex parameter sets (entire,
  a circle component, divergent);
- `weight` and `eval_h` on every coherent model at x = 0 (weight's
  residue value or refusal) and x from 1e-3 to 800 (psi past the float
  range there), `moment_check` at orders 0, 1 and 3, and
  `measure_density_b` on two bicomplex models, a radius pair outside D+
  among them;
- `eval_h` on the defect ledger's ten cancelling H lines (ROADMAP item
  16), their blocks and x read from tests/test_defect_ledger.py beside
  this file, without importing it;
- the CLI's `nu eval` (gk and ts, comma lists, --zeta 800, the values
  near DBL_MAX), `measure check`, `fw eval`, `fw radius`, `bcfw eval`,
  `bcfw classify`, `bcfw region`, `cs coeffs`, `cs overlap` and
  `cs verify --random 1`, each in its own process, option values that start
  with "-" among them: stdout, stderr and exit code;
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

With --expect FILE it is a gate on declared moves instead.  FILE lists
the ids of the records the change moves on purpose, one per line; it is
empty for a bit-identical change (tools/declared_moves.txt is the
checked-in one, replaced by each change).  After the report above, the
tool prints each record present on both sides that moved without being
declared, and each declared id that did not move, and exits 1 where
either list is not empty.  A record present on one side only, as where
the corpus grew, is listed in the report but does not fail the gate.

    python3 tools/bitdiff.py --parent HEAD~1 --change . --expect tools/declared_moves.txt
"""

from __future__ import annotations

import argparse
import ast
import cmath
import json
import math
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
_VACUUM_ZETAS = (0.0, 1e-3, 0.4, 2.5, 9.0, 60.0, 600.0, 672.7241379310345, 680.0, 700.0, 705.0, 708.5, 709.7, 711.0, 800.0)
_FIXED = {
    "vacuum": ([], []),
    "shift": ([(1.0, 1.0)], [(2.0, 1.0)]),
    "wright": ([(1.3, 0.8)], [(2.1, 1.1)]),
    "generic": ([(0.9, 0.4)], [(1.3, 0.8), (0.7, 0.5)]),
}
_SERIES_SEED = 4201
# the series and Gauss models of perfbench's series workload: (upper, lower, right-half-plane radius)
_SERIES = {
    "exp": ([(1.0, 1.0)], [(1.0, 1.0)], 10.0),
    "wright": ([(1.3, 0.8)], [(2.1, 1.1)], 10.0),
    "bessel": ([], [(1.5, 0.5)], 10.0),
    "tight": ([(0.7 + 0.4j, 0.9), (1.1, 0.6)], [(1.9 - 0.2j, 0.9)], 4.0),
}
_GAUSS = {
    "gauss-a": ([(0.5, 1.0), (0.7, 1.0)], [(2.0, 1.0)]),  # lambda = 1.3
    "gauss-b": ([(0.6, 1.0), (0.8, 1.0)], [(1.9, 1.0)]),  # lambda = 1.0
}
# Gauss points: Levin phases, capped phases (|arg z| < 0.02), V itself and
# within 1e-12 of it, inside, outside, and slow enough to pass MAX_TERMS
_GAUSS_POINTS = (
    cmath.exp(0.3j), cmath.exp(1.0j), cmath.exp(2.5j), -1.0, cmath.exp(0.01j), cmath.exp(-0.005j),
    1.0, 1.0 - 5e-13, 0.5, 0.9 + 0.3j, 2.0, 0.9999,
)
# (z1, z2, allow_boundary) on the Gauss components: a zero component, Levin
# phases, capped phases, outside, the circle without allow_boundary, mixed
_GAUSS_BC_POINTS = (
    (0j, 0.5 + 0.3j, False), (cmath.exp(1.0j), cmath.exp(2.5j), True),
    (cmath.exp(0.01j), cmath.exp(-0.005j), True), (2.0, 0.5, False),
    (cmath.exp(1.0j), cmath.exp(0.3j), False), (cmath.exp(1.0j), 0.5, True),
)
# per series and Gauss model, a point just inside and one just past the
# |z| beyond which its first 32 terms cannot hold the stop, so that
# evaluate takes its first two blocks as one (4.818, 15.31, 14.40, 1.490,
# 0.4710 and 0.4510), and the tolerances they run at
_THRESHOLD_POINTS = {
    "exp": (4.4287 + 1.8724j, 4.4465 - 1.8799j),
    "wright": (14.077 + 5.9519j, 14.134 - 5.9757j),
    "bessel": (13.241 + 5.598j, 13.294 - 5.6205j),
    "tight": (1.3692 + 0.5789j, 1.3747 - 0.58122j),
    "gauss-a": (0.43295 + 0.18305j, 0.43468 - 0.18378j),
    "gauss-b": (0.41454 + 0.17526j, 0.4162 - 0.17597j),
}
_THRESHOLD_TOLS = (1e-14, 1e-15, 1e-13)
# points in every series model's domain: zero, tiny, and where terms pass the float range
_TINY_POINTS = (0j, 1e-200, 1e-300j, 5e-324)
_COHERENT_ZETAS = (0.0, 1e-300, 0.4, 9.0, 60.0, 800.0)
_COHERENT_POINTS = (0j, 1e-200, 0.5 + 0.5j, 3.0, -2.0 + 1.0j)
# the measure's x, zero among them, and hyperbolic radius pairs, one outside D+
_WEIGHT_XS = (0.0, 1e-3, 0.4, 2.5, 9.0, 40.0, 800.0)
_MOMENT_ORDERS = (0, 1, 3)
_RADIUS_PAIRS = ((0.0, 0.0), (1.5, 0.7), (0.2, 9.0), (-1.0, 1.0))
# overlap pairs: one nonzero argument, equal points, N(|z|^2) N(|z'|^2)
# past the float range on the vacuum model, and every N past it
_OVERLAP_PAIRS = ((0j, 1.5j), (1.5j, 0j), (0.5, 0.5), (0.1, 3.0), (0.5 + 0.2j, 1.1), (20.0, 20.0), (60.0, 60.0))
# CLI commands; VACUUM, SHIFT, EXP, GAUSS, BC and BCBALL stand for parameter files the run writes
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
    ("nu", "eval", "--model", "VACUUM", "--zeta", "672.7241379310345", "--scheme", "ts",
     "--rel-tol", "1e-14", "--abs-tol", "1e-300"),
    ("measure", "check", "--model", "SHIFT", "--k", "0..4"),
    ("cs", "coeffs", "--params", "SHIFT", "--z", "0.5"),
    ("cs", "coeffs", "--params", "VACUUM", "--z", "1e-200", "--K", "2"),
    ("cs", "coeffs", "--params", "SHIFT", "--z", "2.5,-1"),
    ("cs", "overlap", "--params", "SHIFT", "--z", "0.5", "--zp", "1.5,0.5"),
    ("cs", "overlap", "--params", "VACUUM", "--z", "0", "--zp", "1.5"),
    ("cs", "overlap", "--params", "VACUUM", "--z", "20", "--zp", "20"),
    ("cs", "overlap", "--params", "VACUUM", "--z", "60", "--zp", "60"),
    ("fw", "eval", "--params", "EXP", "--z", "2.5"),
    ("fw", "eval", "--params", "EXP", "--z=-10,0.5"),
    ("fw", "eval", "--params", "EXP", "--z", "800"),
    ("fw", "eval", "--params", "EXP", "--z", "3", "--tol", "1e-6"),
    ("fw", "eval", "--params", "GAUSS", "--z", "0.5403023058681398,0.8414709848078965", "--allow-boundary"),
    ("fw", "eval", "--params", "GAUSS", "--z", "0.9999500004166653,0.009999833334166664", "--allow-boundary"),
    ("fw", "eval", "--params", "GAUSS", "--z", "0.5403023058681398,0.8414709848078965"),
    ("fw", "eval", "--params", "GAUSS", "--z", "2"),
    ("fw", "eval", "--params", "GAUSS", "--z", "0.9999"),
    ("bcfw", "eval", "--params", "BC", "--z", "0.5,0,0.1,0"),
    ("bcfw", "eval", "--params", "BC", "--z", "1.5,-0.5"),
    ("nu", "eval", "--model", "SHIFT", "--zeta", "-0.5,2"),
    ("nu", "eval", "--model", "SHIFT", "--zeta", "1", "--abs-tol", "-1e-12"),
    ("fw", "eval", "--params", "EXP", "--z", "1", "--tol", "-1e-3"),
    ("cs", "coeffs", "--params", "SHIFT", "--z", "0.5", "--tail", "-1e-12"),
    ("fw", "radius", "--params", "GAUSS"),
    ("fw", "radius", "--params", "EXP"),
    ("bcfw", "classify", "--params", "BC"),
    ("bcfw", "classify", "--params", "BCBALL"),
    ("bcfw", "region", "--params", "BCBALL", "--r1-max", "0.5", "--r2-max", "0.5", "--n1", "3", "--n2", "3"),
    ("cs", "verify", "--params", "SHIFT", "--random", "1"),
]
_BC_FILE = (
    '{"upper": [{"value": {"z1": [1.2, 0.0], "z2": [0.8, 0.0]}, "weight": {"c1": 1.0, "c2": 0.9}}], '
    '"lower": [{"value": {"z1": [2.0, 0.0], "z2": [2.5, 0.0]}, "weight": {"c1": 1.1, "c2": 1.3}}]}\n'
)
# both components' weights 2 over 1: a hyperbolic ball of radii 0.25
_BCBALL_FILE = (
    '{"upper": [{"value": {"z1": [1.5, 0.0], "z2": [1.5, 0.0]}, "weight": {"c1": 2.0, "c2": 2.0}}], '
    '"lower": [{"value": {"z1": [1.0, 0.0], "z2": [1.0, 0.0]}, "weight": {"c1": 1.0, "c2": 1.0}}]}\n'
)
_TIMES = re.compile(r"\d+(\.\d+)?s\b")
_LEDGER = Path(__file__).resolve().parent.parent / "tests" / "test_defect_ledger.py"


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
    yield from _series_calls(models)
    yield from _measure_calls(models, bc)
    for seed in SEEDS:
        yield f"sample_fingerprint/{seed}", acceptance._sample_fingerprint, (seed,), {}
        for r in acceptance.run_all(seed=seed):
            yield f"selftest/{seed}/{r.name}", _selftest, (r,), {}


def _series_calls(models):
    """(id, fn, args, kwargs) for the series and coherent entry points."""
    import numpy as np

    from fwstates import coherent
    from fwstates.bicomplex import Hyperbolic, compose_idempotent
    from fwstates.foxwright import FWParams, evaluate, radius
    from fwstates.foxwright_bc import BCFWParams, classify
    from fwstates.foxwright_bc import evaluate as evaluate_bc

    rng = np.random.default_rng(_SERIES_SEED)
    for name, (upper, lower, r) in _SERIES.items():
        params = FWParams(upper, lower)
        right = [cmath.rect(r * rng.uniform(0.05, 1.0), rng.uniform(-1.5, 1.5)) for _ in range(8)]
        left = [complex(-rng.uniform(1.0, 30.0), rng.uniform(-2.0, 2.0)) for _ in range(4)]
        for z in right + left + list(_TINY_POINTS):
            yield f"evaluate/{name}/{z!r}", evaluate, (params, z), {}
        yield f"evaluate/{name}/{right[0]!r}/tol=1e-6", evaluate, (params, right[0]), {"tol": 1e-6}
    for name, points in _THRESHOLD_POINTS.items():
        params = FWParams(*{**_SERIES, **_GAUSS}[name][:2])
        for z in points:
            for tol in _THRESHOLD_TOLS:
                yield f"evaluate/{name}/{z!r}/tol={tol!r}", evaluate, (params, z), {"tol": tol}
    exp = FWParams(*_SERIES["exp"][:2])
    for z in (800.0, 1e6):
        yield f"evaluate/exp/{z!r}", evaluate, (exp, z), {}
    pole = FWParams([(-1.5, 0.5)], [(1.0, 1.0)])  # -1.5 + k/2 is a pole at k = 1
    yield "evaluate/upper-pole/0.5", evaluate, (pole, 0.5), {}
    for name, (upper, lower) in _GAUSS.items():
        params = FWParams(upper, lower)
        for z in _GAUSS_POINTS:
            for allow in (True, False):
                yield f"evaluate/{name}/{z!r}/allow_boundary={allow}", evaluate, (params, z), {"allow_boundary": allow}
    bcs = {
        "bc-a": BCFWParams(
            upper=[(compose_idempotent(1.2, 0.8), Hyperbolic(1.0, 0.9))],
            lower=[(compose_idempotent(2.0, 2.5), Hyperbolic(1.1, 1.3))],
        ),
        "bc-b": BCFWParams(
            upper=[(compose_idempotent(0.9 + 0.2j, 1.4), Hyperbolic(0.7, 1.2))],
            lower=[(compose_idempotent(1.6, 2.2), Hyperbolic(1.0, 0.8))],
        ),
    }
    for name, (upper, lower) in {**{k: v[:2] for k, v in _SERIES.items()}, **_GAUSS}.items():
        yield f"radius/{name}", radius, (FWParams(upper, lower),), {}
    yield "radius/divergent", radius, (FWParams([(1.0, 2.0)], [(1.5, 0.5)]),), {}
    for name, model in models.items():
        yield f"radius/model/{name}", radius, (model.params,), {}
    bcs["bc-circle"] = BCFWParams(
        upper=[(compose_idempotent(1.5, 1.5), Hyperbolic(2.0, 1.0))],
        lower=[(compose_idempotent(1.0, 1.0), Hyperbolic(1.0, 1.0))],
    )
    bcs["bc-divergent"] = BCFWParams(
        upper=[(compose_idempotent(1.5, 0.5 + 0.5j), Hyperbolic(2.5, 2.5))],
        lower=[(compose_idempotent(1.0, 2.0), Hyperbolic(1.0, 1.0))],
    )
    for name, params in bcs.items():
        yield f"classify/{name}", classify, (params,), {}
    for name in ("bc-a", "bc-b"):
        params = bcs[name]
        for _ in range(6):
            z1, z2 = (cmath.rect(4.0 * rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi)) for _ in range(2))
            Z = compose_idempotent(z1, z2)
            yield f"evaluate_bc/{name}/{z1!r},{z2!r}", evaluate_bc, (params, Z), {}
    gauss = BCFWParams.from_components(*(FWParams(*pairs) for pairs in _GAUSS.values()))
    for z1, z2, allow in _GAUSS_BC_POINTS:
        yield (f"evaluate_bc/gauss/{z1!r},{z2!r}/allow_boundary={allow}",
               evaluate_bc, (gauss, compose_idempotent(z1, z2)), {"allow_boundary": allow})
    for name, model in models.items():
        for zeta in _COHERENT_ZETAS:
            yield f"normalization/{name}/{zeta!r}", coherent.normalization, (model, zeta), {}
        for z in _COHERENT_POINTS:
            yield f"normalization_at/{name}/{z!r}", coherent.normalization_at, (model, z), {}
            yield f"make_state/{name}/{z!r}", coherent.make_state, (model, z), {}
        for z, zp in _OVERLAP_PAIRS:
            yield f"overlap/{name}/{z!r},{zp!r}", coherent.overlap, (model, z, zp), {}


def _measure_calls(models, bc):
    """(id, fn, args, kwargs) for the measure's weight, kernel and moments."""
    from fwstates import hfunction
    from fwstates.bicomplex import Bicomplex, Hyperbolic
    from fwstates.coherent import BCCoherentModel
    from fwstates.foxwright_bc import BCFWParams

    for name, model in models.items():
        hp = hfunction.HWeightParams.from_model(model)
        for x in _WEIGHT_XS:
            yield f"weight/{name}/{x!r}", hfunction.weight, (model, x), {}
            yield f"eval_h/{name}/{x!r}", hfunction.eval_h, (hp, x), {}
        for k in _MOMENT_ORDERS:
            yield f"moment_check/{name}/{k}", hfunction.moment_check, (model, k), {}
    for name, upper, lower, x in _ledger_lines():
        yield f"eval_h/{name}/{x!r}", hfunction.eval_h, (hfunction.HWeightParams(upper, lower), x), {}
    # the second model's component 2 has b = B, so its weight has no limit at x = 0
    bcs = {"shift": bc, "mixed": BCCoherentModel(BCFWParams(
        upper=[(1.0, Hyperbolic(1.0, 0.8))], lower=[(Bicomplex(2.0, 1.0), Hyperbolic(1.0, 1.0))]))}
    for name, model in bcs.items():
        for X in _RADIUS_PAIRS:
            yield (f"measure_density_b/{name}/{X!r}",
                   hfunction.measure_density_b, (model, Hyperbolic(*X)), {})


def _ledger_lines():
    """(name, upper, lower, x) of the ledger's item-16 cases, its one block
    (_ITEM16_BLOCK at _ITEM16_X) and its nine cold ones
    (_ITEM16_COLD_BLOCKS), named as the ledger's test ids; the literals
    are read from the ledger's source, which imports pytest and mpmath."""
    source = {}
    for node in ast.parse(_LEDGER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            source[node.targets[0].id] = node.value
    block = {kw.arg: ast.literal_eval(kw.value) for kw in source["_ITEM16_BLOCK"].keywords}
    yield "ledger-item16", block["upper"], block["lower"], ast.literal_eval(source["_ITEM16_X"])
    for draw, upper, lower, x, _, _ in ast.literal_eval(source["_ITEM16_COLD_BLOCKS"]):
        yield f"ledger-item16-cold-draw{draw}", upper, lower, x


def run_corpus() -> list[dict]:
    """Every record of the corpus, for the package on sys.path."""
    records = [{"id": cid, "out": _outcome(fn, args, kwargs)} for cid, fn, args, kwargs in _calls()]
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        texts = {
            "VACUUM": '{"upper": [], "lower": []}\n',
            "SHIFT": '{"upper": [[1.0, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]]}\n',
            "EXP": '{"upper": [[1.0, 0.0, 1.0]], "lower": [[1.0, 0.0, 1.0]]}\n',
            "GAUSS": '{"upper": [[0.5, 0.0, 1.0], [0.7, 0.0, 1.0]], "lower": [[2.0, 0.0, 1.0]]}\n',
            "BC": _BC_FILE,
            "BCBALL": _BCBALL_FILE,
        }
        files = {key: Path(tmp) / f"{key.lower()}.json" for key in texts}
        for key, text in texts.items():
            files[key].write_text(text, encoding="utf-8")
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


def undeclared(parent: list[dict], change: list[dict], declared: set[str]) -> list[str]:
    """The gate's lines: each record present on both sides that moved but is
    not in declared, then each declared id that did not move; empty where
    the moves are the declared ones."""
    old = {r["id"]: r["out"] for r in parent}
    new = {r["id"]: r["out"] for r in change}
    moved = {cid for cid in old.keys() & new.keys() if old[cid] != new[cid]}
    return ([f"moved, not declared: {cid}" for cid in sorted(moved - declared)]
            + [f"declared, did not move: {cid}" for cid in sorted(declared - moved)])


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
    ap.add_argument("--expect", type=Path, help="file of the record ids the change moves on purpose, one per line")
    ap.add_argument("--run-corpus", action="store_true", help="print this interpreter's records as JSON lines")
    args = ap.parse_args(argv)
    if args.run_corpus:
        for record in run_corpus():
            print(json.dumps(record))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    if args.expect is not None:
        declared = {line.strip() for line in args.expect.read_text(encoding="utf-8").splitlines()} - {""}
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        records = [_records(_side(spec, Path(tmp) / side))
                   for side, spec in (("parent", args.parent), ("change", args.change))]
    lines = diff(*records)
    print("\n".join(lines))
    if args.expect is None:
        return 0 if lines[-1].startswith("0 of ") else 1
    gate = undeclared(*records, declared)
    print("\n".join(gate + [f"{len(gate)} differences from the {len(declared)} moves declared in {args.expect}"]))
    return 1 if gate else 0


if __name__ == "__main__":
    sys.exit(main())
