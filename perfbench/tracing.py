"""In-memory spans around the benchmark's own calls into ``lpdist``.

A span records its name, start, end, parent span and op id.  Spans stay in
memory while the benchmark runs and are written out once at exit.  The
summary turns them into per-layer metrics: median self time per call,
calls per op, and share of the traced time.  Self time is a span's duration
minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import gzip
import json
import statistics
import time

ROOT = -1  # parent index of a top-level span


class Tracer:
    """Records one span per ``call`` and one root span named ``op`` per ``op``."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op)
        self.counts = {}  # name -> [hits, total]
        self.ops = 0
        self._op_id = ROOT
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op_id)

    def op(self, fn, *args, **kwargs):
        self._op_id = self.ops
        self.ops += 1
        try:
            return self.call("op", fn, *args, **kwargs)
        finally:
            self._op_id = ROOT

    def count(self, name, hit):
        tally = self.counts.setdefault(name, [0, 0])
        tally[0] += int(bool(hit))
        tally[1] += 1

    def write(self, path):
        """Write every span as gzipped JSON: a name table, then one row per
        span with integer nanoseconds since the first start."""
        origin = min((s[1] for s in self.spans), default=0.0)
        names = {}
        rows = [[names.setdefault(name, len(names)), round((start - origin) * 1e9),
                 round((end - origin) * 1e9), parent, op]
                for name, start, end, parent, op in self.spans]
        payload = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                   "names": list(names), "spans": rows, "counts": self.counts,
                   "ops": self.ops}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(payload, separators=(",", ":")).encode())


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] != ROOT:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]]
        out.append(end - start - covered_length(clipped))
    return out


def summarize(spans, ops: int, names, counts, count_names) -> dict:
    """Per-layer metrics for every span in ``names`` and count in ``count_names``.

    ``<name>.self_us`` is the median self time per call, ``.calls_per_op``
    the calls divided by ``ops`` and ``.share`` the summed self time over
    the summed duration of top-level spans.  A count reports its hit
    fraction.  A span never called or a count never bumped reports 0.
    """
    own = self_times(spans)
    traced = sum(end - start for _, start, end, parent, _ in spans if parent == ROOT)
    by_name = {}
    for (name, *_), value in zip(spans, own):
        by_name.setdefault(name, []).append(value)
    metrics = {}
    for name in names:
        values = by_name.get(name, [])
        metrics[f"{name}.self_us"] = statistics.median(values) * 1e6 if values else 0.0
        metrics[f"{name}.calls_per_op"] = len(values) / ops if ops else 0.0
        metrics[f"{name}.share"] = sum(values) / traced if traced > 0 else 0.0
    for name in count_names:
        hits, total = counts.get(name, (0, 0))
        metrics[name] = hits / total if total else 0.0
    return metrics
