"""Operation records and input draws shared by the workloads and the harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Documented defects whose input slices the workloads keep (Op.defect).
# float64 series sums that cancel lose their digits, yet evaluate returns
# normally (ROADMAP item 4): series left-half-plane points, states overlaps
CANCELLATION = "series-cancellation"
# eval_h stops refining its contour once the change falls to 16 eps of
# the summed |nodes|, so on a line where the integral cancels (condition
# number above QUAD_TOL / (16 eps)) it loses digits; its saddle shift can
# pick such a line near x = 1 for some random kernel blocks, where other
# lines and an mpmath quadrature agree to 1e-14: measure's cold calls on
# ill-conditioned lines
CONTOUR_CANCELLATION = "contour-cancellation"


def strata(rng, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi].

    Stratified draws keep each pass's mix of cheap and costly arguments
    close to the same, so passes and seeds differ less in cost.
    """
    return [lo + (hi - lo) * (j + rng.uniform()) / n for j in range(n)]


@dataclass
class Op:
    """One operation of a workload: library calls plus how to check them.

    kind  -- the layer function the operation measures, "<layer>.<fn>"
             (failures are counted under "<kind>.fail")
    tag   -- the input slice it belongs to, for the input-property report
    key   -- the parameter set it uses (hashable), for the repeat share
    call  -- call(tracer) -> output; every library call goes through
             tracer.call so a traced run records a span for it
    check -- check(output) -> None, or the reason the output is wrong;
             run after the timed phase, never timed
    defect -- the documented defect whose input slice this operation is
              in ("" for none); its failures are counted like all others
              but do not make the run incorrect
    """

    kind: str
    tag: str
    key: object
    call: Callable
    check: Callable
    defect: str = ""


@dataclass
class Record:
    op: Op
    latency: float
    output: object = None
    error: BaseException | None = None
    traced: bool = False
    scale: float = 1.0  # REF_S / calibration time around the operation
