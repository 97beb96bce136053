"""The acceptance battery, traced once in the `series` workload's traced run.

`acceptance.run_all(seed)` is the CI gate users wait on; each of its
nine criteria is one operation, timed the way run_all times it (run_all
hands the other criteria's times to determinism-runtime, so nothing is
re-run), and a criterion that does not pass is a failed operation.

It is not a workload of its own: one battery is a single 10-20 s
sample, and ten runs of it spread by 22% in wall time and 37% in the
median criterion, beyond any bound the benchmark may set.  Its
per-criterion times and failures are per-layer metrics instead.

reduction-conformance compares two float64 summations at right-half-plane
points up to |z| = 10, where sums near the imaginary axis cancel: at
some seeds (104, 106 and 109 of 101..110) its worst error lands just
above its 1e-10 tolerance.  That is the series-cancellation defect, so
the criterion is in that slice.
"""

from __future__ import annotations

from common import CANCELLATION, Op, Record

from fwstates import acceptance

_DEFECTS = {"reduction-conformance": CANCELLATION}


def _check(result) -> str | None:
    return None if result.passed else f"{result.name}: {result.detail}"


def run_battery(seed: int, tracer) -> list[Record]:
    """One traced battery; its criteria become operation records."""
    tracer.begin_op(-1, "acceptance.run_all")
    results = tracer.call("acceptance.run_all", acceptance.run_all, seed)
    tracer.end_op()
    records = []
    for r in results:
        op = Op("acceptance." + r.name, "criterion", None, None, _check, _DEFECTS.get(r.name, ""))
        records.append(Record(op, r.elapsed, r, traced=True))
    return records
