"""Exact LRU stack distance measurement and DMD accumulation.

The stack distance of an access is the number of distinct data touched
since the previous access to the same datum, counting that datum itself,
so an immediate re-access has distance 1.  First touches are cold and
have no finite distance.

An analysis maps every access to one int64 key, its block under the
trace's own layout, and measures distances over that key column.  Two
engines compute the same distances: a naive O(N*M) stack scan that
serves as the oracle, and a vectorised numpy engine that counts them
offline (Bennett and Kruskal 1975; Olken 1981).  With prev[i] the
position of the previous access to the same datum, -1 for a cold one,
the distance of a reuse is the dominance count

    d(i) = #{j < i : prev[j] <= prev[i]} - prev[i],

taken exactly in integer arithmetic.  prev comes from one sort of keys
packed beside their positions, or a stable argsort of keys too wide for
that.  The count takes log2 N - 6 passes, each a stable partition by one
bit of prev's rank: over all reuses for the high bits, then one segment
of 2^16 ranks at a time while it is in cache; a bitset popcount counts
the low six bits.  The engines' outputs are equal element-wise for every
trace, and one fold turns either into a report.  numpy is imported only
inside the functions that analyse a trace, so the CLI's model and advice
commands never load it.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress
from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Sequence

from dmclab.core import (
    AnalysisConfig,
    DmdReport,
    LayoutTable,
    ObjectTable,
    Trace,
    ValidationError,
    build_layout,
    scale_granularity,
)
from dmclab.models import model_cold as cold_cost

if TYPE_CHECKING:
    import numpy as np

# Per-access outcome: a finite stack distance (>= 1) or None for a cold miss.
DistanceSequence = list[Optional[int]]

# _count_smaller_before packs a rank and a count below 2^31 into an int64
_MAX_ACCESSES = 2**31 - 1

# the passes over the bits below this one run one segment of 2^16 slots
# (512 KiB of int64) at a time, while it stays in a core's L2 cache
_SEGMENT_BITS = 16

# the rank bits below this one (at most 6 and _SEGMENT_BITS) are counted by a uint64 bitset
_FINISH_BITS = 6


def _lru_distances(keys: Iterable[Hashable]) -> DistanceSequence:
    """Naive reference engine: simulate the LRU stack directly.

    The stack holds one entry per distinct key, most recent first; the
    distance is the 1-based position of the key before it moves to the
    front.  O(N*M) but trivially correct.
    """
    stack: list[Hashable] = []
    out: DistanceSequence = []
    for key in keys:
        try:
            idx = stack.index(key)
        except ValueError:
            out.append(None)
        else:
            out.append(idx + 1)
            del stack[idx]
        stack.insert(0, key)
    return out


def stack_distances_oracle(trace: Trace) -> DistanceSequence:
    """The oracle's distances of the trace's ``(object_id, offset)`` pairs."""
    return _lru_distances(trace.accesses)


def _block_ids(trace: Trace, block_size: int) -> np.ndarray:
    """(base + offset) // block_size of every access under
    build_layout(trace.objects, block_size): one int64 key per access,
    equal exactly when two accesses share a block.  build_layout raises
    if the layout spans 2**63 elements or more, so every key fits."""
    import numpy as np

    layout = build_layout(trace.objects, block_size)
    keys = np.frombuffer(layout.starts, dtype=np.int64)[trace._rows()]
    keys += np.frombuffer(trace.offsets, dtype=np.int64)
    keys //= block_size
    return keys


def _partition_pass(slots: np.ndarray, out: np.ndarray, l: int,
                    mask: np.ndarray, columns: np.ndarray) -> None:
    """The pass over bit l of _count_smaller_before, from `slots` into
    `out`; `mask` is scratch of the same length, `columns` holds 0, 1, ...
    up to at least 2^l."""
    import numpy as np

    half = 1 << l
    np.bitwise_and(slots, 1 << (32 + l), out=out)  # out is scratch until the split
    np.not_equal(out, 0, out=mask)
    sets = slots[mask]
    before = np.flatnonzero(mask)
    np.logical_not(mask, out=mask)
    clears = slots[mask]
    # every full group holds 2^l set ranks, so the j-th set rank is the
    # (j mod 2^l)-th of its group; the clear ranks before it in its group
    # are its slot in the group less that
    groups = len(slots) >> (l + 1)
    full = groups << l
    before &= 2 * half - 1
    by_group = before[:full].reshape(groups, half)
    by_group -= columns[:half]
    before[full:] -= columns[:len(before) - full]
    sets += before
    # each group: its clear ranks in order, then its set ranks in order;
    # only the last group can be partial, and it has no set rank unless
    # it has all 2^l clear ones
    split = out[:2 * full].reshape(groups, 2, half)
    split[:, 0] = clears[:full].reshape(groups, half)
    split[:, 1] = sets[:full].reshape(groups, half)
    tail = out[2 * full:]
    tail[:len(clears) - full] = clears[full:]
    tail[len(clears) - full:] = sets[full:]


def _partition(slots: np.ndarray, spare: np.ndarray, bits: range,
               mask: np.ndarray, columns: np.ndarray) -> None:
    """The passes over `bits`, high to low, on `slots` in place; `spare`
    and `mask` are scratch of the same length."""
    for l in bits:
        _partition_pass(slots, spare, l, mask, columns)
        slots, spare = spare, slots
    if len(bits) % 2:
        spare[:] = slots


def _count_smaller_before(ranks: np.ndarray) -> np.ndarray:
    """c[i] = #{j < i : ranks[j] < ranks[i]} for a permutation of 0..R-1.

    Before the pass over bit l, the ranks are ordered by (rank >> (l+1),
    access order), so the group of 2^(l+1) ranks sharing those high bits
    fills the slots [g * 2^(l+1), (g+1) * 2^(l+1)), its 2^l clear-bit
    ranks first.  A rank with bit l set exceeds every earlier rank of its
    group with bit l clear; the pass counts those, then splits each group
    stably by bit l.

    Each slot holds rank << 32 | count in one int64, so a pass moves one
    array.  The passes over bits _SEGMENT_BITS and up run over all slots.
    Every later pass stays inside one segment of 2^_SEGMENT_BITS slots,
    so each segment then takes all its remaining passes while it is in
    cache.  They stop at bit _FINISH_BITS: each group of 2^_FINISH_BITS
    slots holds as many consecutive ranks, and a running OR of their
    one-hot low bits counts the smaller ones before each slot.
    """
    import numpy as np

    top = max(len(ranks) - 1, 0).bit_length()
    low = min(_SEGMENT_BITS, top)
    slots = ranks.astype(np.int64)
    slots <<= 32
    # one shared, read-only table of column numbers for every pass
    columns = np.arange(1 << max(top - 1, 0), dtype=np.int32)
    spare = np.empty_like(slots)
    mask = np.empty(len(slots), dtype=bool)
    _partition(slots, spare, range(top - 1, low - 1, -1), mask, columns)
    size, group = 1 << _SEGMENT_BITS, 1 << _FINISH_BITS
    for lo in range(0, len(slots), size):
        segment = slots[lo:lo + size]
        n = len(segment)
        # every segment reuses the same head of the buffers, still in cache
        _partition(segment, spare[:n], range(low - 1, _FINISH_BITS - 1, -1), mask[:n], columns)
        whole = -(-n // group) * group  # the padding changes no slot before it
        bit, seen = np.empty((2, whole), dtype=np.uint64)
        np.right_shift(segment.view(np.uint64), 32, out=bit[:n])
        bit &= group - 1
        np.left_shift(1, bit, out=bit)
        np.bitwise_or.accumulate(bit.reshape(-1, group), axis=1, out=seen.reshape(-1, group))
        bit -= 1  # the bits of the smaller ranks
        bit &= seen
        segment += np.bitwise_count(bit[:n])
        place = np.right_shift(segment, 32, out=seen[:n].view(np.int64))
        place &= size - 1
        spare[place] = segment  # rank r to slot r
        segment[:] = spare[:n]
    del spare, mask
    slots &= 0xFFFFFFFF
    return slots[ranks]


def _reuse_distances(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reuse mask, stack distance of each reuse in access order) of a
    key column."""
    import numpy as np

    n = len(keys)
    if n > _MAX_ACCESSES:
        raise ValidationError(f"{n} accesses exceed the fast engine's limit of {_MAX_ACCESSES}")
    # order by (key, position): a plain sort of key << shift | position if it fits
    shift = max(n - 1, 0).bit_length()
    bound = 1 << (63 - shift)
    if n and -bound <= keys.min() and keys.max() < bound:
        sorted_keys = np.arange(n)  # the positions until the sort is done
        order = keys << shift
        order |= sorted_keys
        order.sort()
        np.right_shift(order, shift, out=sorted_keys)
        order &= (1 << shift) - 1
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    del sorted_keys  # arrays go once used: on long traces they set peak memory
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    del order, same
    reuse = prev >= 0
    p = prev[reuse]
    del prev
    # prev is distinct over reuses: rank it among them, in access order;
    # positions and counts below _MAX_ACCESSES are exact in int32
    has_next = np.zeros(n, dtype=bool)
    has_next[p] = True
    ranks = np.cumsum(has_next, dtype=np.int32)[p]
    del has_next
    ranks -= 1
    # the reuses before i whose prev ranks below prev[i]'s have prev <=
    # prev[i]; so do the cold accesses before i, with prev -1
    distances = _count_smaller_before(ranks)
    del ranks
    cold_before = np.cumsum(~reuse, dtype=np.int32)[reuse]
    distances += cold_before
    distances -= p
    return reuse, distances


def stack_distances_fast(trace: Trace) -> DistanceSequence:
    """Numpy engine: identical output to the oracle, O(N log N)."""
    import numpy as np

    reuse, distances = _reuse_distances(_block_ids(trace, 1))
    full = np.zeros(len(trace), dtype=np.int64)
    full[reuse] = distances
    out: DistanceSequence = full.tolist()
    for i in np.flatnonzero(~reuse).tolist():
        out[i] = None
    return out


def _finite(distances: Sequence[Optional[int]]) -> np.ndarray:
    """The finite distances of a sequence, in order, as int64."""
    import numpy as np

    return np.array([d for d in distances if d is not None], dtype=np.int64)


def _report(
    distances: np.ndarray,
    n_accesses: int,
    config: AnalysisConfig,
    touched_sizes: Iterable[int],
) -> DmdReport:
    """The report of `n_accesses` accesses whose reuses have the int64
    stack `distances`; the other accesses are cold."""
    import numpy as np

    counts = np.bincount(distances)
    bins = np.flatnonzero(counts)
    counts = counts[bins]
    # bit for bit the sum of c * math.sqrt(d): a distance or count below
    # 2**53 converts to float64 exactly, and sqrt and product are
    # correctly rounded
    reuse_dmd = math.fsum((counts * np.sqrt(bins)).tolist())
    n_cold = n_accesses - len(distances)
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
        n_accesses=n_accesses,
        n_cold=n_cold,
        histogram=dict(zip(bins.tolist(), counts.tolist())),
    )


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
    return _report(_finite(distances), len(distances), config, touched_sizes)


def apply_block_transform(trace: Trace, layout: LayoutTable) -> Trace:
    """Remap element accesses to cache-block accesses under `layout`,
    which must be build_layout(trace.objects, layout.block_size).

    Each access becomes an access to a synthetic block object with
    id = (base + offset) // block_size.  The output has the same length
    as the input; distances measured on it are distances in blocks.
    """
    import numpy as np

    if layout != build_layout(trace.objects, layout.block_size):
        raise ValidationError("layout is not the trace's own build_layout")
    bids = _block_ids(trace, layout.block_size)
    # np.unique would load numpy.ma on its first call
    ordered = np.sort(bids)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    ids = ordered[first]
    blocks = ObjectTable(array("q", ids.tobytes()), [f"block{bid}" for bid in ids.tolist()],
                         array("q", [1]) * len(ids))
    return Trace.from_columns(blocks, array("q", bids.tobytes()),
                              array("q", [0]) * len(bids), validate=False)


def analyze_trace(
    trace: Trace,
    config: AnalysisConfig = AnalysisConfig(),
    engine: str = "fast",
) -> DmdReport:
    """Measure a trace: block keys under its own layout, their reuse
    distances by `engine` ('fast' or 'oracle'), the fold into a report,
    then scaling to the element width."""
    if engine not in ("fast", "oracle"):
        raise ValidationError(f"unknown engine {engine!r}; expected 'fast' or 'oracle'")
    b = config.block_size
    touched_sizes = ()
    if config.cold_policy == "per_object":
        # build_layout aligns every object to a block, so an object of
        # size s occupies exactly ceil(s / b) blocks
        sizes = compress(trace.objects.sizes, trace._touched())
        touched_sizes = [-(-size // b) for size in sizes]
    keys = _block_ids(trace, b)
    if engine == "fast":
        distances = _reuse_distances(keys)[1]
    else:
        distances = _finite(_lru_distances(keys.tolist()))
    report = _report(distances, len(trace), config, touched_sizes)
    report.check()
    if config.granularity_bits > 1:
        report = scale_granularity(report, config.granularity_bits)
    return report
