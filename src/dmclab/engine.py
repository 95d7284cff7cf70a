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

taken exactly in integer arithmetic.  Two steps compute it.
`_previous` takes prev from one sort of keys packed beside their
positions in the key column, which it takes over, or a stable argsort of
keys too wide for that; positions are int32.  `_dominance` counts on a
prev column in log2 N - 6 passes, each a stable partition by one bit of
prev's rank, one segment of 2^16 slots at a time, and a bitset popcount
for the low six bits.  The engines' outputs are equal element-wise for
every trace.  `analyze_trace` lets a caller's temporary trace go once
its keys exist, so a gen -> analyze peaks at 24-29 bytes per access: the
trace's 16 beside the keys' 8, then the engine's columns (tracemalloc,
conv n = 256, matmul n = 64 and fft n = 2^15).

Between the two steps, `analyze_trace` counts a repeating tail once.
Equivalently to the formula above, a reuse's distance is

    d(j) = #{m in (prev[j], j] : prev[m] <= prev[j]},

which depends only on the intervals e[m] = m - prev[m] (0 for a cold
access) over its window.  So where e[m] = e[m - tau] for every m in a
reuse's window, d(j) = d(j - tau).  `_tail_period` takes each tau <=
n/16 at which the last 64 intervals recur, and checks it exactly over the
whole column: with J the last access whose interval differs from the one
tau before, S is the first access from which every access lies after J
and is cold or has prev >= J.  Every access from S on then has the
distance, or the coldness, of the access tau before it.  When S <= n/2,
`_dominance` counts the base prev[:S] alone, and the last tau accesses
of the base stand for the tail too.  Nothing about the trace is assumed:
only the check is trusted, and without a verified period the whole column
is counted.  The search reads the last n/16 intervals and then, per
rejected candidate, back to its last mismatch: about 1 ms on fft
n = 2^15 (2.2 M accesses, no period), whose sort and count take about
160 ms.  conv n = 256 (1.2 M accesses) is counted from a base of 14,446
accesses at b = 1 and of 19,088 at b = 4, and its sort, search and count
take 26-27 ms instead of 122-130 ms (min of 9 runs, 2 vCPUs).

One fold follows.  `_fold_tail` counts a base of S accesses whose last
tau stand for the rest of n: with n - S = q * tau + r, the first r of
those count q + 2 times and the others q + 1.  `analyze_trace` folds a
verified period so, and `measure` a kernel's declared one
(`tracegen.prefix_rule`): the last outer-loop iteration of a prefix,
standing for those of a trace too long to generate.  Either way the
sum is the full trace's histogram exactly.  `_report`
turns a histogram into a report.  numpy is imported only inside the
functions that analyse a trace, so the CLI's model and advice commands
never load it.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Sequence

from dmclab import tracegen
from dmclab.core import (
    ANALYSIS_BYTES,
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

# analyze_trace looks for a repeating tail in traces of this many accesses
# or more: a period tau <= n / _PERIOD_SPAN at which the last _PERIOD_TAIL
# intervals recur, used when its base is at most n / _PERIOD_BASE accesses;
# the candidates it rejects read at most n intervals in all
_PERIOD_MIN_ACCESSES = 1 << 14
_PERIOD_SPAN = 16
_PERIOD_TAIL = 64
_PERIOD_BASE = 2

# the checks read the column back from its end in chunks growing to this
# many accesses, which bounds their temporaries; large_conv_file's peak RSS
# modes (80-86 MB against 71.5) follow start-up heap state, not this value
_PERIOD_CHUNK = 1 << 14


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
    keys = build_layout(trace.objects, block_size).starts[trace._rows()]
    keys += trace.offsets
    if block_size > 1:
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


def _high_pass(slots: np.ndarray, out: np.ndarray, l: int,
               mask: np.ndarray, columns: np.ndarray) -> None:
    """The pass over bit l >= _SEGMENT_BITS of _count_smaller_before, from
    `slots` into `out`, one segment at a time; `mask` and `columns` span a
    segment.  A segment lies in one group, the ranks start ... start +
    2^(l+1) - 1: its clear ranks go to the group's first 2^l slots and its
    set ranks, those from start + 2^l, to the rest, each in order."""
    import numpy as np

    size, half = 1 << _SEGMENT_BITS, 1 << l
    for lo in range(0, len(slots), size):
        segment, start = slots[lo:lo + size], lo & -(2 * half)
        if lo == start:
            clears = sets = 0  # the group's ranks placed so far
        n, is_set = len(segment), mask[:len(segment)]
        np.greater_equal(segment, (start + half) << 32, out=is_set)
        # a set rank's count grows by its place in the group less the
        # group's set ranks before it
        before = np.flatnonzero(is_set)
        k = len(before)
        before += lo - start - sets
        before -= columns[:k]
        placed = out[start + half + sets:start + half + sets + k]
        np.compress(is_set, segment, out=placed)
        placed += before
        np.logical_not(is_set, out=is_set)
        np.compress(is_set, segment, out=out[start + clears:start + clears + n - k])
        clears, sets = clears + n - k, sets + k


def _count_smaller_before(ranks: np.ndarray) -> np.ndarray:
    """c[i] = #{j < i : ranks[j] < ranks[i]} for a permutation of 0..R-1.

    Before the pass over bit l, the ranks are ordered by (rank >> (l+1),
    access order), so the group of 2^(l+1) ranks sharing those high bits
    fills the slots [g * 2^(l+1), (g+1) * 2^(l+1)), its 2^l clear-bit
    ranks first.  A rank with bit l set exceeds every earlier rank of its
    group with bit l clear; the pass counts those, then splits each group
    stably by bit l.

    Each slot holds rank << 32 | count in one int64, so a pass moves one
    array.  The passes over bits _SEGMENT_BITS and up (`_high_pass`) read
    one segment of 2^_SEGMENT_BITS slots at a time, inside one group.
    Every later pass stays inside one segment, so each segment then takes
    all its remaining passes while it is in cache.  They stop at bit
    _FINISH_BITS: each group of 2^_FINISH_BITS slots holds as many
    consecutive ranks, and a running OR of their one-hot low bits counts
    the smaller ones before each slot.
    """
    import numpy as np

    top = max(len(ranks) - 1, 0).bit_length()
    low = min(_SEGMENT_BITS, top)
    size, group = 1 << _SEGMENT_BITS, 1 << _FINISH_BITS
    slots = ranks.astype(np.int64)
    slots <<= 32
    spare = np.empty_like(slots)
    # one segment's mask and read-only column numbers, shared by every pass
    head = min(len(slots), size)
    mask, columns = np.empty(head, dtype=bool), np.arange(head, dtype=np.int32)
    for l in range(top - 1, low - 1, -1):
        _high_pass(slots, spare, l, mask, columns)
        slots, spare = spare, slots
    for lo in range(0, len(slots), size):
        segment = slots[lo:lo + size]
        n = len(segment)
        # every segment reuses the same head of the buffers, still in cache
        work, other = segment, spare[:n]
        for l in range(low - 1, _FINISH_BITS - 1, -1):
            _partition_pass(work, other, l, mask[:n], columns)
            work, other = other, work
        segment[:] = work  # no copy when work is segment
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
    slots &= 0xFFFFFFFF
    for lo in range(0, len(slots), size):  # a segment of ranks at a time becomes intp
        np.take(slots, ranks[lo:lo + size], out=spare[lo:lo + size])
    return spare


def _previous(keys: np.ndarray) -> np.ndarray:
    """prev[i], the position of the previous access with key i's key or -1,
    in int32, of a key column, which it takes over and reorders: pass it
    the only reference."""
    import numpy as np

    n = len(keys)
    if n > _MAX_ACCESSES:
        raise ValidationError(f"{n} accesses exceed the fast engine's limit of {_MAX_ACCESSES}")
    # order by (key, position): a plain sort of key << shift | position if it fits
    shift = max(n - 1, 0).bit_length()
    bound = 1 << (63 - shift)
    if n and -bound <= keys.min() and keys.max() < bound:
        keys <<= shift
        step = 1 << _SEGMENT_BITS
        for lo in range(0, n, step):
            keys[lo:lo + step] |= np.arange(lo, min(lo + step, n))
        keys.sort()
        # positions below _MAX_ACCESSES are exact in int32
        order = np.empty(n, dtype=np.int32)
        np.bitwise_and(keys, (1 << shift) - 1, out=order, casting="unsafe")
        keys >>= shift
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    same = keys[1:] == keys[:-1]
    del keys  # arrays go once used: on long traces they set peak memory
    prev = np.empty(n, dtype=np.int32)
    prev[order[:1]] = -1
    prev[order[1:]] = np.where(same, order[:-1], -1)
    return prev


def _dominance(prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reuse mask, stack distance of each reuse in access order) of a prev
    column, which it takes over: pass it the only reference."""
    import numpy as np

    n = len(prev)
    reuse = prev >= 0
    p = prev[reuse]
    del prev
    # prev is distinct over reuses: rank it among them, in access order;
    # counts below _MAX_ACCESSES are exact in int32
    has_next = np.zeros(n, dtype=bool)
    has_next[p] = True
    ranks = np.cumsum(has_next, dtype=np.int32)[p]
    del has_next
    ranks -= 1
    # the reuses before i whose prev ranks below prev[i]'s have prev <=
    # prev[i]; so do the cold accesses before i, with prev -1
    distances = _count_smaller_before(ranks)
    del ranks
    # the k-th reuse, at position i, has i - k cold accesses before it
    distances += np.flatnonzero(reuse)
    distances -= np.arange(len(p))
    distances -= p
    return reuse, distances


def _reuse_distances(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reuse mask, stack distance of each reuse in access order) of a key
    column, which it takes over and reorders: pass it the only reference."""
    return _dominance(_previous(keys))


def _mismatches(prev: np.ndarray, tau: int, lo: int, hi: int) -> np.ndarray:
    """e[j] != e[j - tau] for j in [lo, hi): the intervals agree where both
    accesses are reuses with prev[j] = prev[j - tau] + tau, or both cold."""
    x, y = prev[lo:hi], prev[lo - tau:hi - tau]
    return ~((x - y == tau) & (y >= 0) | ((x & y) < 0))


def _last_true(test, lo: int, hi: int) -> int:
    """The last j in [lo, hi) where test(a, b), a bool column over [a, b),
    holds, or lo - 1; it reads chunks back from hi, up to _PERIOD_CHUNK."""
    import numpy as np

    size = _PERIOD_TAIL
    while hi > lo:
        a = max(lo, hi - size)
        found = np.flatnonzero(test(a, hi))
        if len(found):
            return a + int(found[-1])
        hi, size = a, min(2 * size, _PERIOD_CHUNK)
    return lo - 1


def _candidates(prev: np.ndarray) -> list[int]:
    """Each tau <= n / _PERIOD_SPAN, ascending, at which the last
    _PERIOD_TAIL intervals recur: e[j - tau] = e[j] for each of them."""
    import numpy as np

    n = len(prev)
    span = n // _PERIOD_SPAN
    lo = n - _PERIOD_TAIL - span
    e = np.arange(lo, n, dtype=np.int32)
    e -= prev[lo:]
    e[prev[lo:] < 0] = 0
    back = e[::-1]  # back[t] = e[n - 1 - t]
    # the first scan matches the longest of the last intervals, the rarest
    first = int(back[:_PERIOD_TAIL].argmax())
    taus = np.flatnonzero(back[first + 1:first + span + 1] == back[first]) + 1
    for t in range(_PERIOD_TAIL):
        taus = taus[back[taus + t] == back[t]]
    return taus.tolist()


def _tail_period(prev: np.ndarray) -> Optional[tuple[int, int]]:
    """(S, tau) such that every access from S on has the distance of the
    access tau before it, or is cold as that one is, with S <= n /
    _PERIOD_BASE; None if no candidate of `_candidates` verifies.

    A reuse's distance is #{m in (prev[j], j] : prev[m] <= prev[j]}, so it
    is fixed by the intervals e over its window.  With J the last j at
    which e[j] != e[j - tau] (tau - 1 if none), an access after J whose
    window lies after J too has the distance of the access tau before it;
    S is the first access from which every access is such, or cold.  The
    candidates are tried in order; the first whose J lies before n /
    _PERIOD_BASE decides.
    """
    n = len(prev)
    if n < max(_PERIOD_MIN_ACCESSES, 2 * _PERIOD_TAIL):
        return None
    bound, scanned = n // _PERIOD_BASE, 0
    for tau in _candidates(prev):
        # J, read back from the end
        last = _last_true(lambda a, b: _mismatches(prev, tau, a, b), tau, n)
        if last >= bound:
            # a rejection reads n - J intervals; all of them read at most n
            scanned += n - last
            if scanned > n:
                return None
            continue
        # S lies past J and past every reuse whose window reaches back to J
        reach = _last_true(lambda a, b: (prev[a:b] >= 0) & (prev[a:b] < last), last + 1, n)
        start = max(last, reach) + 1
        return (start, tau) if start <= bound else None
    return None


def _fold_tail(reuse: np.ndarray, distances: np.ndarray, n: int, tau: int) -> np.ndarray:
    """The histogram of n accesses whose first len(reuse), with these
    reuses' distances, are counted and whose later ones repeat the last
    tau of those: with n - len(reuse) = q * tau + r, the first r of the
    last tau count q + 2 times and the others q + 1."""
    import numpy as np

    head = len(reuse) - tau
    q, r = divmod(n - len(reuse), tau)
    once, cut = np.count_nonzero(reuse[:head]), np.count_nonzero(reuse[:head + r])
    size = int(distances.max(initial=0)) + 1
    counts = np.bincount(distances[:once], minlength=size)
    counts += (q + 2) * np.bincount(distances[once:cut], minlength=size)
    counts += (q + 1) * np.bincount(distances[cut:], minlength=size)
    return counts


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
    counts: np.ndarray,
    n_accesses: int,
    config: AnalysisConfig,
    touched_sizes: Iterable[int],
) -> DmdReport:
    """The report of `n_accesses` accesses whose reuses have the int64
    histogram `counts`, indexed by stack distance; the other accesses
    are cold."""
    import numpy as np

    bins = np.flatnonzero(counts)
    counts = counts[bins]
    # bit for bit the sum of c * math.sqrt(d): a distance or count below
    # 2**53 converts to float64 exactly, and sqrt and product are
    # correctly rounded
    reuse_dmd = math.fsum((counts * np.sqrt(bins)).tolist())
    n_cold = n_accesses - int(counts.sum())
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
    import numpy as np

    return _report(np.bincount(_finite(distances)), len(distances), config, touched_sizes)


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
    blocks = ObjectTable(ids, [f"block{bid}" for bid in ids.tolist()],
                         np.ones(len(ids), dtype=np.int64))
    return Trace.from_columns(blocks, bids, np.zeros(len(bids), dtype=np.int64), validate=False)


def analyze_trace(
    trace: Trace,
    config: AnalysisConfig = AnalysisConfig(),
    engine: str = "fast",
) -> DmdReport:
    """Measure a trace: block keys under its own layout, their reuse
    distances by `engine` ('fast' or 'oracle'), the fold into a report,
    then scaling to the element width; refused beyond physical memory."""
    import numpy as np

    tracegen.check_memory(len(trace), ANALYSIS_BYTES)
    if engine not in ("fast", "oracle"):
        raise ValidationError(f"unknown engine {engine!r}; expected 'fast' or 'oracle'")
    b = config.block_size
    n_accesses = len(trace)
    touched_sizes = ()
    if config.cold_policy == "per_object":
        # build_layout aligns every object to a block, so an object of
        # size s occupies exactly ceil(s / b) blocks
        sizes = compress(trace.objects.sizes.tolist(), trace._touched())
        touched_sizes = [-(-size // b) for size in sizes]
    # the engine takes the key column over from this list; a caller's
    # temporary trace frees its columns here, before the distances
    keys = [_block_ids(trace, b)]
    del trace
    if engine == "oracle":
        counts = np.bincount(_finite(_lru_distances(keys.pop().tolist())))
    else:
        prev = [_previous(keys.pop())]
        period = _tail_period(prev[0])
        if period is None:
            counts = np.bincount(_dominance(prev.pop())[1])
        else:
            # count the base [0, start) only: its last period stands for the tail
            start, tau = period
            counts = _fold_tail(*_dominance(prev.pop()[:start]), n_accesses, tau)
    report = _report(counts, n_accesses, config, touched_sizes)
    report.check()
    if config.granularity_bits > 1:
        report = scale_granularity(report, config.granularity_bits)
    return report


def measure(spec: tracegen.GenSpec) -> DmdReport:
    """The report of ``analyze_trace(tracegen.generate(spec))`` under the
    default AnalysisConfig(), from the kernel's prefix where it declares
    one.

    A declared prefix is a rule of the kernel, proven by its tests rather
    than checked here, and it saves generating the full trace: a distance
    depends only on the accesses before it, and at b = 1 the prefix's keys
    repeat exactly where the full trace's do, so the prefix's last
    outer-loop iteration, tau accesses, has the distances of every later
    iteration of the full trace.  `_fold_tail` counts the prefix's
    histogram with that period as it counts a verified one, and `_report`
    makes the same report from it.
    Without a declared prefix the full trace is generated, and
    `analyze_trace` counts a tail that it verifies to repeat once.
    """
    rule = tracegen.prefix_rule(spec)
    if rule is None:
        return analyze_trace(tracegen.generate(spec))
    prefix, tau = rule
    n_accesses = tracegen.access_count(spec)
    if n_accesses >= 2**63:
        raise ValidationError(f"the trace has {n_accesses} accesses; a report counts fewer than 2**63")
    counts = _fold_tail(*_reuse_distances(_block_ids(tracegen.generate(prefix), 1)), n_accesses, tau)
    report = _report(counts, n_accesses, AnalysisConfig(), ())
    report.check()
    return report
