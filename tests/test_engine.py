"""Distance engines, cold policies, block transform, and analysis glue."""

import dataclasses
import math
import random
import tracemalloc
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmclab import engine, tracegen
from dmclab.core import (
    COLD_POLICIES,
    AnalysisConfig,
    DataObject,
    DmdReport,
    Trace,
    ValidationError,
    build_layout,
)
from dmclab.engine import (
    accumulate_dmd,
    analyze_trace,
    apply_block_transform,
    cold_cost,
    measure,
    stack_distances_fast,
    stack_distances_oracle,
)
from dmclab.tracegen import (
    KERNELS,
    BatchParams,
    ConvParams,
    FftParams,
    GenSpec,
    Im2colParams,
    MatmulParams,
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
    trace = Trace([DataObject(0, "A", 2**62), DataObject(1, "B", 2**62)], [(0, 0), (1, 1), (0, 0)])
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
@example(_scrambled(1000), (3, 2))  # high passes over many segments, a partial last group
@example(_scrambled(777), (4, 4))  # high passes whose last group has no set rank
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
    reuse, distances = engine._reuse_distances(keys.copy())  # the engine takes a column over
    small = np.searchsorted(np.sort(keys), keys)
    for column in (small, small - len(small), -keys):
        same_reuse, same_distances = engine._reuse_distances(column)
        assert same_reuse.tolist() == reuse.tolist()
        assert same_distances.tolist() == distances.tolist()


def _last_seen(keys: list) -> list:
    """prev of a key column by a dict of each key's last position."""
    seen, prev = {}, []
    for i, key in enumerate(keys):
        prev.append(seen.get(key, -1))
        seen[key] = i
    return prev


EDGE_KEYS = {
    "empty": [],
    "single": [5],
    "all cold": [7, -4, 0, 31, -31, 6],
    "all reuse": [-9] * 7,
    "mixed": [4, 1, 4, -6, 1, 1, 4, -6, 20],
}


@pytest.mark.parametrize("wide", [False, True], ids=["packed", "argsort"])
@pytest.mark.parametrize("name", EDGE_KEYS)
def test_previous_and_dominance_on_edge_columns(name, wide):
    # scaled by 2^58, a key of magnitude 4 or more leaves no room for the
    # positions of 2 to 16 accesses, so the column takes the argsort; so
    # does an empty one, and one access always packs
    keys = [key << 58 if wide else key for key in EDGE_KEYS[name]]
    column = np.array(keys, dtype=np.int64)
    bound = 1 << (63 - max(len(keys) - 1, 0).bit_length())
    packs = bool(keys) and -bound <= min(keys) and max(keys) < bound
    assert packs == (len(keys) == 1 or bool(keys) and not wide)
    prev = engine._previous(column)
    assert prev.dtype == np.int32 and prev.tolist() == _last_seen(keys)
    oracle = engine._lru_distances(keys)
    reuse, distances = engine._dominance(prev)
    assert reuse.tolist() == [d is not None for d in oracle]
    assert distances.tolist() == [d for d in oracle if d is not None]


@pytest.mark.parametrize("spec", [GenSpec("fft", FftParams(2**12)),
                                  GenSpec("conv", ConvParams(64, 64, 3))])
def test_analysis_of_a_temporary_trace_peaks_below_52_bytes_per_access(spec):
    # about 34 (fft) and 45 (conv) B per access, against more than 68 when
    # the trace, the caller's key column, int64 positions or the high
    # passes' temporaries over all reuses stay alive through the passes
    tracemalloc.start()
    try:
        analyze_trace(tracegen.generate(spec), AnalysisConfig(block_size=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / tracegen.access_count(spec) < 52


# --- measurement from a kernel's periodic prefix ---------------------------


def assert_equal_reports(got: DmdReport, expected: DmdReport, label) -> None:
    for field in dataclasses.fields(DmdReport):
        assert getattr(got, field.name) == getattr(expected, field.name), (label, field.name)


def assert_same_report(spec: GenSpec) -> None:
    """measure(spec) equals the full trace's report, field by field."""
    assert_equal_reports(measure(spec), analyze_trace(tracegen.generate(spec)), spec)


@st.composite
def periodic_specs(draw) -> GenSpec:
    """Small matmul, conv and batchconv points, with or without a prefix."""
    alg = draw(st.sampled_from(["matmul", "conv", "batchconv"]))
    if alg == "matmul":
        return GenSpec(alg, MatmulParams(*draw(st.tuples(*[st.integers(1, 9)] * 3))))
    k = draw(st.integers(1, 5 if alg == "conv" else 3))
    if alg == "conv":
        h, w = draw(st.tuples(*[st.integers(k, k + 10)] * 2))
        return GenSpec(alg, ConvParams(h, w, k))
    x = draw(st.integers(1, 3))
    return GenSpec(alg, BatchParams(draw(st.integers(k, 8)), k, x * draw(st.integers(1, 6)), x))


@settings(max_examples=150, deadline=None)
@given(periodic_specs())
@example(GenSpec("matmul", MatmulParams(5, 3, 7)))
@example(GenSpec("conv", ConvParams(11, 6, 3)))
@example(GenSpec("conv", ConvParams(5, 13, 2)))
@example(GenSpec("batchconv", BatchParams(6, 2, 12, 3)))
def test_measure_equals_full_trace_report(spec):
    assert_same_report(spec)


# the sweeps of the benchmark's sweep_small workload, as (kernel, n values, sweep flags)
SWEEP_SMALL = [
    ("conv", range(8, 65, 8), [{"k": 3}]),
    ("matmul", range(4, 33, 4), [{}]),
    ("im2col", range(8, 49, 8), [{"k": 3}]),
    ("batchconv", (16, 32), [{"k": 3, "c": 8, "x": x} for x in (1, 2, 4, 8)]),
    ("fft", [2**i for i in range(1, 13)], [{}]),
    ("fftconv2d", (2, 4, 8, 16), [{}]),
]


def test_measure_equals_full_trace_report_on_sweep_points():
    specs = [GenSpec(alg, KERNELS[alg].point(n, flags))
             for alg, ns, flag_sets in SWEEP_SMALL for n in ns for flags in flag_sets]
    assert len(specs) == 46
    assert sum(tracegen.prefix_rule(spec) is not None for spec in specs) == 20
    for spec in specs:
        assert_same_report(spec)


def test_prefix_parts_cover_prefix_and_full_trace():
    specs = [GenSpec("matmul", MatmulParams(m, n, l)) for m in (3, 4, 9) for n in (1, 5) for l in (1, 4)]
    specs += [GenSpec("conv", ConvParams(h, w, k)) for k in (1, 3) for h in (k + 3, k + 8)
              for w in (k, k + 5)]
    specs += [GenSpec("batchconv", BatchParams(n, k, c, x)) for n, k in ((3, 1), (7, 3))
              for c, x in ((3, 1), (8, 2), (12, 3))]
    for spec in specs:
        prefix, _ = tracegen.prefix_rule(spec)
        _, lengths, weights = prefix_parts(spec)
        assert sum(lengths) == tracegen.access_count(prefix) == len(tracegen.generate(prefix))
        assert sum(l * w for l, w in zip(lengths, weights)) == tracegen.access_count(spec)
    for (alg, values), pin in PREFIX_PINS.items():
        spec = GenSpec(alg, KERNELS[alg].params(*values))
        assert prefix_parts(spec) == pin, spec


def prefix_parts(spec: GenSpec):
    """(prefix params, part lengths, multiplicities) of a declared prefix,
    or None: one part of tau accesses per outer-loop iteration of the
    prefix, its last standing for every later one of the full trace."""
    rule = tracegen.prefix_rule(spec)
    if rule is None:
        return None
    prefix, tau = rule
    parts, rest = divmod(tracegen.access_count(prefix), tau)
    full, tail = divmod(tracegen.access_count(spec), tau)
    assert rest == tail == 0, spec
    return dataclasses.astuple(prefix.params), (tau,) * parts, (1,) * (parts - 1) + (full - parts + 1,)


# prefix_parts around each kernel's threshold: matmul's m, conv's output
# rows, batchconv's batches
PREFIX_PINS = {
    ("matmul", (1, 5, 4)): None,
    ("matmul", (2, 5, 4)): None,
    ("matmul", (3, 5, 4)): ((2, 5, 4), (44, 44), (1, 2)),
    ("matmul", (4, 5, 4)): ((2, 5, 4), (44, 44), (1, 3)),
    ("matmul", (9, 5, 4)): ((2, 5, 4), (44, 44), (1, 8)),
    ("conv", (2, 4, 1)): None,
    ("conv", (3, 4, 1)): None,
    ("conv", (4, 4, 1)): ((3, 4, 1), (12, 12, 12), (1, 1, 2)),
    ("conv", (5, 4, 1)): ((3, 4, 1), (12, 12, 12), (1, 1, 3)),
    ("conv", (3, 5, 2)): None,
    ("conv", (4, 5, 2)): None,
    ("conv", (5, 5, 2)): ((4, 5, 2), (36, 36, 36), (1, 1, 2)),
    ("conv", (6, 5, 2)): ((4, 5, 2), (36, 36, 36), (1, 1, 3)),
    ("conv", (4, 6, 3)): None,
    ("conv", (5, 6, 3)): None,
    ("conv", (6, 6, 3)): ((5, 6, 3), (76, 76, 76), (1, 1, 2)),
    ("conv", (7, 6, 3)): ((5, 6, 3), (76, 76, 76), (1, 1, 3)),
    ("conv", (6, 8, 5)): None,
    ("conv", (7, 8, 5)): None,
    ("conv", (8, 8, 5)): ((7, 8, 5), (204, 204, 204), (1, 1, 2)),
    ("conv", (9, 8, 5)): ((7, 8, 5), (204, 204, 204), (1, 1, 3)),
    ("batchconv", (5, 2, 1, 1)): None,
    ("batchconv", (5, 2, 2, 1)): None,
    ("batchconv", (5, 2, 3, 1)): ((5, 2, 2, 1), (144, 144), (1, 2)),
    ("batchconv", (5, 2, 4, 1)): ((5, 2, 2, 1), (144, 144), (1, 3)),
    ("batchconv", (5, 2, 2, 2)): None,
    ("batchconv", (5, 2, 4, 2)): None,
    ("batchconv", (5, 2, 6, 2)): ((5, 2, 4, 2), (288, 288), (1, 2)),
    ("batchconv", (5, 2, 8, 2)): ((5, 2, 4, 2), (288, 288), (1, 3)),
}


def test_prefix_declared_only_where_a_part_repeats():
    assert tracegen.prefix_rule(GenSpec("matmul", MatmulParams(2, 5, 5))) is None
    assert tracegen.prefix_rule(GenSpec("conv", ConvParams(5, 9, 3))) is None
    assert tracegen.prefix_rule(GenSpec("batchconv", BatchParams(5, 3, 4, 2))) is None
    assert prefix_parts(GenSpec("conv", ConvParams(6, 9, 3)))[2] == (1, 1, 2)


@pytest.mark.parametrize("spec", [
    *[GenSpec("conv", ConvParams(n, n, 3)) for n in (32, 48, 64)],
    *[GenSpec("conv", ConvParams(100, 100, k)) for k in (1, 2, 5)],
    *[GenSpec("matmul", MatmulParams(n, n, n)) for n in (20, 32, 48)],
], ids=lambda spec: "-".join(map(str, [spec.algorithm, *dataclasses.astuple(spec.params)])))
def test_declared_period_is_a_multiple_of_the_verified_one(spec):
    # conv's verified period is one output row at k >= 2 and one window at
    # k = 1, matmul's one row; the check is sufficient, not necessary, so
    # matmul's verified start lies about a row past the declared prefix
    _, tau = tracegen.prefix_rule(spec)
    period = engine._tail_period(engine._previous(engine._block_ids(tracegen.generate(spec), 1)))
    assert period is not None
    assert tau % period[1] == 0, (tau, period)


@pytest.mark.parametrize("spec", [
    GenSpec("im2col", tracegen.Im2colParams(12, 3)),
    GenSpec("fft", tracegen.FftParams(64)),
    GenSpec("fftconv2d", tracegen.FftParams(4)),
    GenSpec("matmul", MatmulParams(2, 6, 6)),
], ids=lambda spec: spec.algorithm)
def test_kernels_without_prefix_measure_full_trace(spec, monkeypatch):
    generated = []
    generate = tracegen.generate
    monkeypatch.setattr(tracegen, "generate", lambda s: generated.append(s) or generate(s))
    assert tracegen.prefix_rule(spec) is None
    assert_same_report(spec)
    assert generated == [spec, spec]


def test_measure_refuses_counts_beyond_64_bits():
    spec = GenSpec("batchconv", BatchParams(3, 1, 2**62, 1))
    with pytest.raises(ValidationError, match="fewer than 2\\*\\*63"):
        measure(spec)


def test_every_object_of_a_periodic_kernel_is_touched():
    # so per_object's sizes follow from the parameters alone
    specs = [GenSpec(alg, KERNELS[alg].point(n, flags)) for alg, ns, flag_sets in SWEEP_SMALL
             if alg in ("matmul", "conv", "batchconv") for n in ns for flags in flag_sets]
    specs += [GenSpec("matmul", MatmulParams(m, n, l)) for m, n, l in ((30, 17, 13), (1, 1, 1), (19, 32, 2))]
    specs += [GenSpec("conv", ConvParams(h, w, k)) for h, w, k in ((17, 23, 5), (50, 3, 3), (4, 4, 4))]
    specs += [GenSpec("batchconv", BatchParams(n, k, c, x)) for n, k, c, x in ((7, 2, 6, 3), (3, 3, 1, 1))]
    assert len(specs) == 32
    for spec in specs:
        assert all(tracegen.generate(spec)._touched()), spec


# --- counting a verified repeating tail once --------------------------------


def unshortened_report(trace: Trace, config: AnalysisConfig) -> DmdReport:
    """The report folded from the bincount of every access's distance."""
    b = config.block_size
    counts = np.bincount(engine._reuse_distances(engine._block_ids(trace, b))[1])
    sizes = ()
    if config.cold_policy == "per_object":
        sizes = [-(-s // b) for s in compress(trace.objects.sizes.tolist(), trace._touched())]
    return engine._report(counts, len(trace), config, sizes)


def found_periods(monkeypatch) -> list:
    """Every result of engine._tail_period from now on, in call order."""
    found = []
    search = engine._tail_period
    monkeypatch.setattr(engine, "_tail_period", lambda prev: found.append(search(prev)) or found[-1])
    return found


PERIODIC_GRID = [
    GenSpec("conv", ConvParams(300, 10, 3)),
    GenSpec("conv", ConvParams(200, 13, 2)),
    GenSpec("matmul", MatmulParams(400, 5, 7)),
    GenSpec("matmul", MatmulParams(300, 3, 10)),
    *[GenSpec("batchconv", BatchParams(20, 3, 4, x)) for x in (4, 2, 1)],
    *[GenSpec("batchconv", BatchParams(10, 3, 16, x)) for x in (16, 8, 1)],
]


@pytest.mark.parametrize("spec", PERIODIC_GRID,
                         ids=lambda spec: "-".join(map(str, [spec.algorithm, *dataclasses.astuple(spec.params)])))
def test_repeating_tail_counted_once_equals_full_count(spec, monkeypatch):
    trace = tracegen.generate(spec)
    assert len(trace) >= engine._PERIOD_MIN_ACCESSES
    found = found_periods(monkeypatch)
    for b in (1, 2, 3, 4, 8, 16):
        for cold in COLD_POLICIES:
            config = AnalysisConfig(block_size=b, cold_policy=cold)
            assert_equal_reports(analyze_trace(trace, config), unshortened_report(trace, config), (b, cold))
    used = [period is not None for period in found[::len(COLD_POLICIES)]]
    # conv and matmul rows repeat at every b, and batchconv's 16 batches of
    # one channel; the rows of its single batch do at b = 1
    if spec.algorithm != "batchconv":
        assert used[:5] == [True] * 5
    elif (spec.params.c, spec.params.x) == (16, 1):
        assert all(used)
    elif (spec.params.c, spec.params.x) == (4, 4):
        assert used[0]


def periodic_trace(head: list, pattern: list, periods: int, lag: int, late=None) -> Trace:
    """`head`, then `periods` repetitions of `pattern`, whose slots hold a
    shared key (an int), a key fresh to the period (None) or "lag": the
    first fresh slot's key of `lag` periods before.  late = (position,
    shared key) replaces one access."""
    tau = len(pattern)
    fresh = [i for i, key in enumerate(pattern) if key is None]
    slot = {i: fresh[0] if key == "lag" and fresh else i for i, key in enumerate(pattern)}
    accesses = [(oid, off % (10 if oid == 0 else tau * periods)) for oid, off in head]
    for period in range(periods):
        accesses += [(0, key) if isinstance(key, int) else
                     (1, (period - lag * (key == "lag")) % periods * tau + slot[i])
                     for i, key in enumerate(pattern)]
    if late is not None:
        accesses[late[0]] = (0, late[1])
    return Trace([DataObject(0, "shared", 10), DataObject(1, "fresh", tau * periods)], accesses)


@st.composite
def periodic_traces(draw):
    """A random head, then a periodic body, optionally broken at one late
    access, so that a reuse's window can reach back across the break."""
    tau = draw(st.integers(1, 12))
    pattern = draw(st.lists(st.one_of(st.integers(0, 9), st.none(), st.just("lag")),
                            min_size=tau, max_size=tau))
    head = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10**6)), max_size=60))
    periods, lag = draw(st.integers(20, 150)), draw(st.integers(1, 8))
    late = None
    if draw(st.booleans()):
        n = len(head) + tau * periods
        late = (draw(st.integers(n // 4, n - 1)), draw(st.integers(0, 9)))
    return periodic_trace(head, pattern, periods, lag, late)


@settings(max_examples=100, deadline=None)
@given(periodic_traces(), st.sampled_from([1, 2, 3, 4, 8]), st.sampled_from(COLD_POLICIES))
# key 0's reuse at 59 spans the break at 56: the tail starts after it, at 64
@example(periodic_trace([], ["lag", 1, 1, 0], 32, 3, (56, 1)), 1, "exclude")
def test_repeating_tail_matches_oracle(trace, block, cold):
    config = AnalysisConfig(block_size=block, cold_policy=cold)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PERIOD_MIN_ACCESSES", 0)
        fast = analyze_trace(trace, config)
        period = engine._tail_period(engine._previous(engine._block_ids(trace, block)))
    assert fast == analyze_trace(trace, config, engine="oracle")
    if period is not None:
        # the verified property itself: from start on, each access has the
        # distance, or the coldness, of the access tau before it
        start, tau = period
        keys = engine._block_ids(trace, block).tolist()
        distances = [0 if d is None else d for d in engine._lru_distances(keys)]
        assert 2 * start <= len(trace)
        assert distances[start:] == distances[start - tau:len(trace) - tau]


def wrong_periods(tau: int) -> list[int]:
    return [tau - 1, tau + 1, tau // 2, 2 * tau + 1]


@pytest.mark.parametrize("spec, b", [(GenSpec("conv", ConvParams(300, 10, 3)), 1),
                                     (GenSpec("conv", ConvParams(300, 10, 3)), 4),
                                     (GenSpec("matmul", MatmulParams(400, 5, 7)), 2)])
@pytest.mark.parametrize("right_last", [False, True])
def test_wrong_candidates_keep_the_count_exact(spec, b, right_last, monkeypatch):
    trace = tracegen.generate(spec)
    config = AnalysisConfig(block_size=b)
    tau = engine._tail_period(engine._previous(engine._block_ids(trace, b)))[1]
    proposed = wrong_periods(tau) + [tau] * right_last
    monkeypatch.setattr(engine, "_candidates", lambda prev: proposed)
    found = found_periods(monkeypatch)
    assert_equal_reports(analyze_trace(trace, config), unshortened_report(trace, config), proposed)
    # only a verified candidate is used, and none of the wrong ones verifies here
    assert [period and period[1] for period in found] == [tau if right_last else None]


def test_no_candidate_verifies_on_a_broken_tail(monkeypatch):
    # conv's rows repeat with period 152 up to one late access, changed
    trace = tracegen.generate(GenSpec("conv", ConvParams(300, 10, 3)))
    late = len(trace) - 100
    offsets = trace.offsets.copy()
    offsets[late] = (offsets[late] + 1) % int(trace.objects.sizes[trace.oids[late]])
    broken = Trace.from_columns(trace.objects, trace.oids, offsets)
    for proposed in ([152], wrong_periods(152), [76, 304, 456]):
        monkeypatch.setattr(engine, "_candidates", lambda prev: proposed)
        assert engine._tail_period(engine._previous(engine._block_ids(broken, 1))) is None
        assert_equal_reports(analyze_trace(broken), unshortened_report(broken, AnalysisConfig()), proposed)


@pytest.mark.parametrize("b, period_rows", [(1, 1), (4, 2)])
def test_conv_base_is_at_most_four_output_rows(b, period_rows):
    # of 1,225,804 accesses, the engine counts a base of 19,304 or fewer
    trace = tracegen.generate(GenSpec("conv", ConvParams(256, 256, 3)))
    row = 254 * 19
    start, tau = engine._tail_period(engine._previous(engine._block_ids(trace, b)))
    assert tau == period_rows * row
    assert start <= 4 * row


@pytest.mark.parametrize("spec", [GenSpec("fft", FftParams(2**12)),
                                  GenSpec("im2col", Im2colParams(48, 3)),
                                  GenSpec("fftconv2d", FftParams(16))], ids=lambda spec: spec.algorithm)
def test_aperiodic_traces_have_no_period(spec):
    trace = tracegen.generate(spec)
    assert len(trace) >= engine._PERIOD_MIN_ACCESSES
    for b in (1, 4):
        assert engine._tail_period(engine._previous(engine._block_ids(trace, b))) is None
