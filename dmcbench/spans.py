"""In-memory spans for the traced run.

A span records a name, start, end, its parent span and the workload id of the
pass it belongs to, plus counts taken at the same boundary. Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.workload_id = ""
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, extra: bool = False, **counts):
        """Record one span. `extra` marks work that is not on the CLI's own path."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload_id": self.workload_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "extra": extra,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict]) -> dict[int, list[dict]]:
    out = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]].append(span)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration minus the time its child spans cover (children never overlap)."""
    kids = children(spans)
    return {s["id"]: duration(s) - sum(duration(c) for c in kids[s["id"]]) for s in spans}


def summary_rows(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """(name, count, total seconds, self seconds) per span name, in first-seen order."""
    selfs = self_times(spans)
    rows: dict[str, list] = {}
    for span in spans:
        row = rows.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration(span)
        row[2] += selfs[span["id"]]
    return [(name, *row) for name, row in rows.items()]


def per_pass(spans: list[dict]) -> list[list[dict]]:
    groups: dict[str, list[dict]] = {}
    for span in spans:
        groups.setdefault(span["workload_id"], []).append(span)
    return list(groups.values())


def median_over_passes(spans: list[dict], fn) -> float:
    """Median over passes of fn(spans of one pass); 0.0 when there are none."""
    values = [fn(group) for group in per_pass(spans)]
    return statistics.median(values) if values else 0.0


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def count(spans: list[dict], name: str, counter: str) -> float:
    return sum(s["counts"].get(counter, 0) for s in spans if s["name"] == name)
