"""Exact LRU stack distance measurement and DMD accumulation.

The stack distance of an access is the number of distinct data touched
since the previous access to the same datum, counting that datum itself,
so an immediate re-access has distance 1.  First touches are cold and
have no finite distance.

Two engines compute the same distances: a naive O(N*M) stack scan that
serves as the oracle, and an O(N log N) engine built on a Fenwick tree
keyed by last-access time.  Their outputs are equal element-wise for
every trace.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Optional, Sequence

from dmclab.core import (
    AnalysisConfig,
    DataObject,
    DmdReport,
    LayoutTable,
    Trace,
    ValidationError,
    build_layout,
    scale_granularity,
)
from dmclab.models import model_cold as cold_cost

# Per-access outcome: a finite stack distance (>= 1) or None for a cold miss.
DistanceSequence = list[Optional[int]]


def stack_distances_oracle(trace: Trace) -> DistanceSequence:
    """Naive reference engine: simulate the LRU stack directly.

    The stack holds one entry per distinct datum, most recent first; the
    distance is the 1-based position of the datum before it moves to the
    front.  O(N*M) but trivially correct.
    """
    stack: list[tuple[int, int]] = []
    out: DistanceSequence = []
    for key in trace.accesses:
        try:
            idx = stack.index(key)
        except ValueError:
            out.append(None)
        else:
            out.append(idx + 1)
            del stack[idx]
        stack.insert(0, key)
    return out


def stack_distances_fast(trace: Trace) -> DistanceSequence:
    """Tree engine: identical output to the oracle, O(N log N).

    A Fenwick tree over access positions holds a 1 at the last-access
    position of every datum seen so far.  For a reuse at time i of a
    datum last seen at t0, the distinct data touched in between are
    exactly the ones whose marker lies in (t0, i), so the distance is
    (#markers) - prefix(t0) + 1.
    """
    accesses = trace.accesses
    n = len(accesses)
    tree = [0] * (n + 1)
    last: dict[tuple[int, int], int] = {}
    out: DistanceSequence = []
    append = out.append
    distinct = 0
    for i, key in enumerate(accesses):
        t0 = last.get(key, -1)
        if t0 < 0:
            distinct += 1
            append(None)
        else:
            j = t0 + 1
            s = 0
            while j:
                s += tree[j]
                j -= j & -j
            append(distinct - s + 1)
            j = t0 + 1
            while j <= n:
                tree[j] -= 1
                j += j & -j
        j = i + 1
        while j <= n:
            tree[j] += 1
            j += j & -j
        last[key] = i
    return out


def accumulate_dmd(
    distances: Sequence[Optional[int]],
    config: AnalysisConfig,
    touched_sizes: Iterable[int] = (),
) -> DmdReport:
    """Fold a distance sequence into a DmdReport.

    Cold handling follows config.cold_policy:
      exclude         - cold_dmd = 0
      footprint_bound - cold_dmd = M**1.5, M the number of distinct data
      per_object      - cold_dmd = sum of size**1.5 over touched objects
                        (pass their sizes as `touched_sizes`; in blocks
                        when the distances are in blocks)

    Summation runs through math.fsum over the histogram, so it is exact
    regardless of trace length.
    """
    histogram = Counter(d for d in distances if d is not None)
    n_cold = sum(1 for d in distances if d is None)
    reuse_dmd = math.fsum(c * math.sqrt(d) for d, c in histogram.items())
    policy = config.cold_policy
    if policy == "exclude":
        cold_dmd = 0.0
    elif policy == "footprint_bound":
        cold_dmd = cold_cost(n_cold)
    else:  # per_object
        cold_dmd = math.fsum(cold_cost(size) for size in touched_sizes)
    return DmdReport(
        reuse_dmd=reuse_dmd,
        cold_dmd=cold_dmd,
        n_accesses=len(distances),
        n_cold=n_cold,
        histogram=dict(histogram),
    )


def apply_block_transform(trace: Trace, layout: LayoutTable) -> Trace:
    """Remap element accesses to cache-block accesses under `layout`.

    Each access becomes an access to a synthetic block object with
    id = (base + offset) // block_size.  The output has the same length
    as the input; distances measured on it are distances in blocks.
    """
    b = layout.block_size
    bases = layout.bases
    missing = [obj.id for obj in trace.objects if obj.id not in bases]
    if missing:
        raise ValidationError(f"layout does not cover object ids {missing}")
    block_accesses: list[tuple[int, int]] = []
    append = block_accesses.append
    seen: set[int] = set()
    for oid, off in trace.accesses:
        bid = (bases[oid] + off) // b
        seen.add(bid)
        append((bid, 0))
    block_objects = [DataObject(id=bid, name=f"block{bid}", size=1) for bid in sorted(seen)]
    return Trace(block_objects, block_accesses, validate=False)


def analyze_trace(
    trace: Trace,
    config: AnalysisConfig = AnalysisConfig(),
    engine: str = "fast",
) -> DmdReport:
    """One-stop analysis: block transform, distances, accumulation, scaling."""
    if engine == "fast":
        distance_fn = stack_distances_fast
    elif engine == "oracle":
        distance_fn = stack_distances_oracle
    else:
        raise ValidationError(f"unknown engine {engine!r}; expected 'fast' or 'oracle'")
    measured = trace
    if config.block_size > 1:
        layout = build_layout(trace.objects, config.block_size)
        measured = apply_block_transform(trace, layout)
    distances = distance_fn(measured)
    touched_sizes = ()
    if config.cold_policy == "per_object":
        # build_layout aligns every object to a block, so an object of
        # size s occupies exactly ceil(s / b) blocks
        b = config.block_size
        touched_sizes = [-(-obj.size // b) for obj in trace.touched_objects()]
    report = accumulate_dmd(distances, config, touched_sizes)
    report.check()
    if config.granularity_bits > 1:
        report = scale_granularity(report, config.granularity_bits)
    return report
