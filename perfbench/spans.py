"""In-memory span recording around the benchmark's calls into fwstates.

A span is (name, start, end, parent, op): `name` is "<layer>.<function>"
for a library call and "op.<kind>" for the operation that made it,
`parent` is the index of the enclosing span (-1 for an operation) and
`op` the operation id shared by all spans of one operation.  Nothing is
instrumented inside the package; spans only wrap calls the benchmark
itself makes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    def begin_op(self, op_id: int, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Tracing on: one span per operation and one per library call in it."""

    def __init__(self):
        self.spans: list[list] = []
        self._root = -1
        self._op = -1

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = op_id
        self._root = len(self.spans)
        self.spans.append(["op." + kind, perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self._root][2] = perf_counter()
        self._root = -1

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), self._root, self._op])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> tuple[dict, dict]:
    """Per-name (calls, busy seconds) and per-layer self seconds.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap because calls are sequential.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name = defaultdict(lambda: [0, 0.0])
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = per_name[name]
        entry[0] += 1
        entry[1] += end - start
        self_time[layer_of(name)] += (end - start) - child_time[i]
    return dict(per_name), dict(self_time)


def write_jsonl(spans, path, t_origin: float) -> None:
    """Spans as JSON lines, times in seconds from t_origin."""
    with open(path, "w") as fh:
        for name, start, end, parent, op in spans:
            fh.write(
                json.dumps(
                    {
                        "name": name,
                        "start": start - t_origin,
                        "end": end - t_origin,
                        "parent": parent,
                        "op": op,
                    }
                )
                + "\n"
            )
