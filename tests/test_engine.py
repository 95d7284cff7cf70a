"""Distance engines, cold policies, block transform, and analysis glue."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmclab import engine
from dmclab.core import (
    COLD_POLICIES,
    AnalysisConfig,
    DataObject,
    Trace,
    ValidationError,
    build_layout,
)
from dmclab.engine import (
    accumulate_dmd,
    analyze_trace,
    apply_block_transform,
    cold_cost,
    stack_distances_fast,
    stack_distances_oracle,
)


def letter_trace(text: str) -> Trace:
    """One single-element object per distinct letter."""
    letters = sorted(set(text))
    objs = [DataObject(i, ch, 1) for i, ch in enumerate(letters)]
    index = {ch: i for i, ch in enumerate(letters)}
    return Trace(objs, [(index[ch], 0) for ch in text])


def test_inclusive_distance_convention():
    # second access to a letter counts the letter itself
    distances = stack_distances_oracle(letter_trace("abbbca"))
    assert distances == [None, None, 1, 1, None, 3]


def test_immediate_reuse_is_distance_one():
    assert stack_distances_fast(letter_trace("aa")) == [None, 1]


def test_reuse_dmd_closed_form():
    report = accumulate_dmd(stack_distances_fast(letter_trace("abbbca")), AnalysisConfig())
    assert report.reuse_dmd == pytest.approx(2 + math.sqrt(3), rel=1e-15)
    assert report.n_cold == 3


@st.composite
def traces(draw):
    n_objects = draw(st.integers(1, 20))
    sizes = draw(st.lists(st.integers(1, 8), min_size=n_objects, max_size=n_objects))
    objs = [DataObject(i, f"o{i}", s) for i, s in enumerate(sizes)]
    accesses = draw(
        st.lists(
            st.tuples(st.integers(0, n_objects - 1), st.integers(0, 7)),
            max_size=300,
        )
    )
    accesses = [(oid, off % sizes[oid]) for oid, off in accesses]
    return Trace(objs, accesses)


@settings(max_examples=200, deadline=None)
@given(traces())
def test_fast_engine_matches_oracle(trace):
    assert stack_distances_fast(trace) == stack_distances_oracle(trace)


@settings(max_examples=100, deadline=None)
@given(traces(), st.integers(2, 8))
def test_block_distance_never_exceeds_element_distance(trace, block):
    if not trace.objects:
        return
    layout = build_layout(trace.objects, block)
    blocked = apply_block_transform(trace, layout)
    element = stack_distances_fast(trace)
    per_block = stack_distances_fast(blocked)
    last_element: dict = {}
    last_block: dict = {}
    for i, (key, (bid, _), e, b) in enumerate(
        zip(trace.accesses, blocked.accesses, element, per_block)
    ):
        if e is not None and b is not None:
            assert b <= e
        # the block was last touched at the element's own previous access:
        # same interval, at most `block` elements per block
        prev = last_element.get(key)
        if prev is not None and last_block.get(bid) == prev:
            assert -(-e // block) <= b
        last_element[key] = i
        last_block[bid] = i


def test_block_transform_preserves_length_and_identity_at_b1():
    trace = letter_trace("abcabc")
    blocked = apply_block_transform(trace, build_layout(trace.objects, 1))
    assert len(blocked) == len(trace)
    assert stack_distances_fast(blocked) == stack_distances_fast(trace)


def test_block_transform_merges_neighbors():
    # 4 consecutive elements of one object fall into a single 4-wide block
    obj = [DataObject(0, "a", 4)]
    trace = Trace(obj, [(0, 0), (0, 1), (0, 2), (0, 3)])
    blocked = apply_block_transform(trace, build_layout(obj, 4))
    assert stack_distances_fast(blocked) == [None, 1, 1, 1]


def test_cold_cost():
    assert cold_cost(0) == 0.0
    assert cold_cost(4) == 8.0
    with pytest.raises(ValidationError):
        cold_cost(-1)


def test_cold_policies():
    trace = letter_trace("abbbca")
    distances = stack_distances_fast(trace)
    sizes = [o.size for o in trace.touched_objects()]

    excl = accumulate_dmd(distances, AnalysisConfig(cold_policy="exclude"), sizes)
    assert excl.cold_dmd == 0.0

    foot = accumulate_dmd(distances, AnalysisConfig(cold_policy="footprint_bound"), sizes)
    assert foot.cold_dmd == pytest.approx(3**1.5)

    per = accumulate_dmd(distances, AnalysisConfig(cold_policy="per_object"), sizes)
    assert per.cold_dmd == pytest.approx(sum(s**1.5 for s in sizes))


def test_per_object_cold_cost_counts_source_blocks():
    # under the aligned layout an object of size s spans ceil(s/b) blocks
    full = Trace([DataObject(0, "A", 8)], [(0, i) for i in range(8)])
    config = AnalysisConfig(block_size=4, cold_policy="per_object")
    assert analyze_trace(full, config).cold_dmd == pytest.approx(2**1.5)
    objs = [DataObject(0, "A", 8), DataObject(1, "B", 5)]
    partial = Trace(objs, [(0, 0), (1, 0)])
    assert analyze_trace(partial, config).cold_dmd == pytest.approx(2 * 2**1.5)
    assert analyze_trace(partial, AnalysisConfig(cold_policy="per_object")).cold_dmd == (
        pytest.approx(8**1.5 + 5**1.5))


@settings(max_examples=200, deadline=None)
@given(traces(), st.integers(1, 8), st.sampled_from(COLD_POLICIES))
@example(letter_trace("abcbadcbaabcd"), 1, "exclude")
def test_analyze_trace_engines_agree(trace, block, cold):
    config = AnalysisConfig(block_size=block, cold_policy=cold)
    fast = analyze_trace(trace, config, engine="fast")
    oracle = analyze_trace(trace, config, engine="oracle")
    assert fast == oracle
    # equal in type too: reports are compared and serialised as Python numbers
    for name in ("reuse_dmd", "cold_dmd", "n_accesses", "n_cold"):
        assert type(getattr(fast, name)) is type(getattr(oracle, name))
    assert all(type(d) is int and type(c) is int for d, c in fast.histogram.items())
    if block == 1:
        # the tuple oracle and the public fold reach the same report
        sizes = [o.size for o in trace.touched_objects()]
        assert accumulate_dmd(stack_distances_oracle(trace), config, sizes) == oracle
    with pytest.raises(ValidationError):
        analyze_trace(trace, engine="magic")


@pytest.mark.parametrize("engine_name", ["fast", "oracle"])
def test_engines_reject_addresses_beyond_64_bits(engine_name):
    trace = Trace([DataObject(0, "A", 2**63)], [(0, 0), (0, 1), (0, 0)])
    with pytest.raises(ValidationError, match="beyond 64-bit addresses"):
        analyze_trace(trace, engine=engine_name)


def test_analyze_trace_applies_bits_and_block():
    trace = letter_trace("abab")
    plain = analyze_trace(trace)
    scaled = analyze_trace(trace, AnalysisConfig(granularity_bits=16))
    assert scaled.reuse_dmd == pytest.approx(4 * plain.reuse_dmd)

    obj = [DataObject(0, "a", 8)]
    seq = Trace(obj, [(0, i) for i in range(8)] * 2)
    blocked = analyze_trace(seq, AnalysisConfig(block_size=4))
    element = analyze_trace(seq)
    assert blocked.reuse_dmd < element.reuse_dmd


def test_histogram_counts_are_exact():
    report = analyze_trace(letter_trace("abab" * 10))
    assert report.histogram == {2: 38}
    assert report.n_accesses == 40
    assert report.n_cold == 2


def _scrambled(n: int) -> list[int]:
    ranks = list(range(n))
    random.Random(n).shuffle(ranks)
    return ranks


# (segment bits, finish bits): a finish never wider than a segment or 6 bits
SEGMENT_AND_FINISH = st.integers(1, 7).flatmap(
    lambda s: st.tuples(st.just(s), st.integers(0, min(s, 6))))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(n))), SEGMENT_AND_FINISH)
@example(_scrambled(300), (1, 1))  # 150 segments, each one finish group
@example(_scrambled(299), (3, 2))  # partial last segment and group
@example(_scrambled(6), (3, 3))  # one segment, one partial group
@example(_scrambled(1000), (8, 6))  # segments of four groups of 64, the last partial
@example(_scrambled(300), (16, 6))  # the engine's own widths
@example([0], (1, 0))
@example([], (2, 1))
def test_count_smaller_before_matches_brute_force(ranks, bits):
    segment_bits, finish_bits = bits
    ranks = np.array(ranks, dtype=np.int32)
    earlier = np.tri(len(ranks), k=-1, dtype=bool)  # earlier[i, j]: j < i
    expected = ((ranks[None, :] < ranks[:, None]) & earlier).sum(axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_SEGMENT_BITS", segment_bits)
        patch.setattr(engine, "_FINISH_BITS", finish_bits)
        counts = engine._count_smaller_before(ranks)
    assert counts.tolist() == expected.tolist()


def test_keys_too_wide_to_pack_beside_positions():
    # a layout of about 2^62 elements: its keys leave no room beside a
    # position in an int64, so prev comes from the stable argsort
    objs = [DataObject(0, "A", 2**62), DataObject(1, "B", 5)]
    rng = random.Random(62)
    offsets = [0, 1, 2**61, 2**62 - 1]
    accesses = [rng.choice([(0, rng.choice(offsets)), (1, rng.randrange(5))]) for _ in range(60)]
    trace = Trace(objs, accesses)
    assert stack_distances_fast(trace) == stack_distances_oracle(trace)
    keys = engine._block_ids(trace, 1)
    assert keys.max() >= 2 ** (63 - (len(keys) - 1).bit_length())
    # distances depend only on which keys are equal: the same keys renamed
    # 0, 1, ... or just below zero take the packed sort, and negated they
    # take the argsort again
    reuse, distances = engine._reuse_distances(keys)
    small = np.searchsorted(np.sort(keys), keys)
    for column in (small, small - len(small), -keys):
        same_reuse, same_distances = engine._reuse_distances(column)
        assert same_reuse.tolist() == reuse.tolist()
        assert same_distances.tolist() == distances.tolist()
