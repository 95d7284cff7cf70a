"""End-to-end acceptance checks.

Each numbered criterion prints a single pass/fail line (on the real
stdout, so it survives capture) and then asserts.  Expensive traces are
measured once per session and shared across criteria.
"""

import math
import random
import sys

import pytest

from dmclab.core import AnalysisConfig, DataObject, Trace, build_layout
from dmclab.engine import (
    accumulate_dmd,
    analyze_trace,
    apply_block_transform,
    stack_distances_fast,
    stack_distances_oracle,
)
from dmclab.models import (
    model_attention,
    model_batched,
    model_conv,
    model_gqa,
    model_im2col,
    model_matmul,
)
from dmclab.advisor import (
    FFT_BOUND_NOTE,
    advise_gqa_dim,
    compare_conv_fft,
    crossover_channels,
    crossover_image_size,
    orientation_ratio,
)
from dmclab.tracegen import KERNELS, gen_conv, gen_fft


_CAP = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # route the criterion lines past pytest's capture so the run log
    # always shows one pass/fail line per criterion
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    message = f"criterion {num:02d} {status}: {detail}"
    if _CAP is not None:
        with _CAP.disabled():
            print(message, flush=True)
    else:
        print(message, file=sys.__stdout__, flush=True)


def _check(num: int, ok: bool, detail: str) -> None:
    _line(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


# --- shared measurements -----------------------------------------------------


@pytest.fixture(scope="session")
def conv_dmd():
    """reuse_dmd of gen_conv(n, n, 3) for the sizes used below."""
    return {n: analyze_trace(gen_conv(n, n, 3)).reuse_dmd for n in (64, 128, 256)}


@pytest.fixture(scope="session")
def conv256():
    """The n=256, k=3 convolution trace and its element distances."""
    trace = gen_conv(256, 256, 3)
    return trace, stack_distances_fast(trace)


# --- criteria ----------------------------------------------------------------


def test_criterion_01_engine_oracle_equivalence():
    rng = random.Random(20230117)
    worst = 0.0
    for _ in range(20):
        n_objects = rng.randint(1, 512)
        sizes = [rng.randint(1, 16) for _ in range(n_objects)]
        objs = [DataObject(i, f"o{i}", s) for i, s in enumerate(sizes)]
        n_accesses = rng.randint(1, 10_000)
        if rng.random() < 0.5:
            ids = [rng.randrange(n_objects) for _ in range(n_accesses)]
        else:
            # skewed toward low ids to create long and short reuses
            weights = [1.0 / (i + 1) for i in range(n_objects)]
            ids = rng.choices(range(n_objects), weights=weights, k=n_accesses)
        accesses = [(oid, rng.randrange(sizes[oid])) for oid in ids]
        trace = Trace(objs, accesses)

        fast = stack_distances_fast(trace)
        oracle = stack_distances_oracle(trace)
        assert fast == oracle

        total_fast = math.fsum(math.sqrt(d) for d in fast if d is not None)
        total_oracle = math.fsum(math.sqrt(d) for d in oracle if d is not None)
        if total_oracle:
            worst = max(worst, abs(total_fast - total_oracle) / total_oracle)
    _check(1, worst <= 1e-9, f"20 random traces identical, worst rel diff {worst:.2e}")


def test_criterion_02_inclusive_distance_convention():
    objs = [DataObject(0, "a", 1), DataObject(1, "b", 1), DataObject(2, "c", 1)]
    seq = [0, 1, 1, 1, 2, 0]  # a b b b c a
    trace = Trace(objs, [(i, 0) for i in seq])
    distances = stack_distances_fast(trace)
    reuse = math.fsum(math.sqrt(d) for d in distances if d is not None)
    ok = distances[-1] == 3 and reuse == 2 + math.sqrt(3)
    _check(2, ok, f"second a at distance {distances[-1]}, reuse_dmd {reuse!r}")


def test_criterion_03_conv_model_tracks_measurement(conv_dmd):
    errors = [abs(conv_dmd[n] / model_conv(n, n, 3).total - 1) for n in (64, 128, 256)]
    ok = errors == sorted(errors, reverse=True) and errors[-1] <= 0.20
    _check(3, ok, "conv |ratio-1| " + ", ".join(f"{e:.4f}" for e in errors))


def test_criterion_04_matmul_model_tracks_measurement():
    errors = []
    for s in (16, 32, 64):
        measured = analyze_trace(KERNELS["matmul"].generator(s, s, s)).reuse_dmd
        errors.append(abs(measured / model_matmul(s, s, s) - 1))
    ok = errors[-1] <= 0.25
    _check(4, ok, "matmul |ratio-1| " + ", ".join(f"{e:.4f}" for e in errors))


def test_criterion_05_fft_asymptotic_shape():
    r = {}
    for e in range(10, 15):
        n = 2**e
        measured = analyze_trace(gen_fft(n)).reuse_dmd
        r[n] = measured / (n**1.5 * math.sqrt(e))
    change = abs(r[2**14] - r[2**13]) / r[2**13]
    coefficient = r[2**14]
    ok = change < 0.10
    _check(
        5,
        ok,
        f"r(2^10..2^14) = {', '.join(f'{v:.3f}' for v in r.values())}; "
        f"last-step change {change:.4f}; empirical coefficient {coefficient:.2f} "
        f"(reference band [6.4, 6.5], informative only)",
    )


def test_criterion_06_batching_numbers():
    n_star = crossover_image_size(3, 10, 10).n_star
    fraction = model_batched(2000, 3, 10, 10).total / model_batched(2000, 3, 10, 1).total
    c_star = crossover_channels(1024, 3)
    ok_n = abs(n_star - 448) / 448 <= 0.02
    ok_f = abs(fraction - 0.47) <= 0.01
    ok_c = abs(c_star - 25) <= 1
    _check(
        6,
        ok_n and ok_f and ok_c,
        f"n* {n_star:.1f} (448 +/- 2%), batched cost fraction at n=2000 "
        f"{fraction:.4f} (0.47 +/- 0.01), channel crossover {c_star} (25 +/- 1)",
    )


def test_criterion_07_conv_vs_fft_numbers():
    targets = {3: 51e6, 5: 159e6, 7: 364e6}
    values = {k: model_conv(512, 512, k).asymptotic for k in targets}
    ok_values = all(abs(values[k] / targets[k] - 1) <= 0.02 for k in targets)
    ok_choice = all(compare_conv_fft(512, k).recommended == "spatial" for k in targets)
    ok_note = any(
        "lower bound" in note for note in compare_conv_fft(512, 3).notes
    ) and "not reconciled" in FFT_BOUND_NOTE
    _check(
        7,
        ok_values and ok_choice and ok_note,
        "conv512 asymptotics "
        + ", ".join(f"k={k}: {values[k] / 1e6:.1f}M" for k in targets)
        + "; spatial preferred; bound discrepancy documented",
    )


def test_criterion_08_granularity_exactness():
    trace = gen_conv(16, 16, 3)
    base = analyze_trace(trace)
    ok = True
    for bits in (2, 4, 16):
        scaled = analyze_trace(trace, AnalysisConfig(granularity_bits=bits))
        ok = ok and scaled.reuse_dmd == base.reuse_dmd * math.sqrt(bits)
    _check(8, ok, "sqrt(s) scaling exact for s in {2, 4, 16}")


def _expand_to_blocks(trace: Trace, b: int) -> Trace:
    """Each access (oid, off) becomes the b accesses (oid, off*b + j),
    j = 0..b-1, of one aligned block, in order; objects grow b-fold."""
    objs = [DataObject(o.id, o.name, o.size * b) for o in trace.objects]
    accesses = [(oid, off * b + j) for oid, off in trace.accesses for j in range(b)]
    return Trace(objs, accesses)


@pytest.mark.parametrize("block", [4, 16])
def test_criterion_09_block_properties(conv256, block):
    trace, element = conv256
    blocked = apply_block_transform(trace, build_layout(trace.objects, block))
    per_block = stack_distances_fast(blocked)

    # 1. a block's reuse interval never starts before its element's
    dominated = all(
        b <= e
        for e, b in zip(element, per_block)
        if e is not None and b is not None
    )

    # 2. where the block was last touched at the element's own previous
    #    access the two intervals coincide, and a block holds at most
    #    `block` elements, so ceil(d_elem / b) <= d_block
    last_element: dict = {}
    last_block: dict = {}
    coinciding = violations = 0
    for i, (key, (bid, _), e, b) in enumerate(
        zip(trace.accesses, blocked.accesses, element, per_block)
    ):
        prev = last_element.get(key)
        if prev is not None and last_block.get(bid) == prev:
            coinciding += 1
            violations += -(-e // block) > b
        last_element[key] = i
        last_block[bid] = i

    # 3. when every reuse interval is made of whole blocks, element
    #    distances are b*d and block-group heads keep d: exact 1/sqrt(b)
    small = gen_conv(16, 16, 3)
    base = stack_distances_fast(small)
    expanded = _expand_to_blocks(small, block)
    expanded_element = stack_distances_fast(expanded)
    expanded_block = stack_distances_fast(
        apply_block_transform(expanded, build_layout(expanded.objects, block))
    )
    exact = expanded_element == [
        None if d is None else block * d for d in base for _ in range(block)
    ] and expanded_block == [x for d in base for x in [d] + [1] * (block - 1)]

    element_dmd = math.fsum(math.sqrt(d) for d in element if d is not None)
    blocked_dmd = accumulate_dmd(per_block, AnalysisConfig()).reuse_dmd
    ratio = blocked_dmd / (element_dmd / math.sqrt(block))
    ok = dominated and coinciding > 0 and violations == 0 and exact
    _check(
        9,
        ok,
        f"b={block}: per-access domination {dominated}; ceil(d_elem/b) <= d_block "
        f"on {coinciding} coinciding reuses, {violations} violations; "
        f"expanded conv16 exact b*d / d / 1 scaling {exact}; "
        f"blocked/(element/sqrt(b)) = {ratio:.4f} (informative only)",
    )


def test_criterion_10_mha_head_invariance():
    costs = {model_attention(64, 1024, h).mha_cost for h in (1, 2, 4, 8, 16)}
    _check(10, len(costs) == 1, f"mha_cost identical across head counts: {costs}")


def test_criterion_11_gqa_advisor():
    budget = 1e5
    ok_mono = True
    for h in (8, 32, 64, 128):
        qs = [q for q in range(1, h + 1) if h % q == 0]
        dims = [advise_gqa_dim(budget, h, q).d for q in qs]
        ok_mono = ok_mono and all(a < b for a, b in zip(dims, dims[1:]))

    res = advise_gqa_dim(budget, 8, 2)
    d = res.d
    p = 8 // 2
    d2 = d * d
    forward = p * (d2 + 2 * d2 / 8) ** 1.5 + 2 * p * 1 * (d2 / 8) * math.sqrt(
        64 * 64 + 4 * d2 / 8
    )
    ok_budget = abs(forward - budget) / budget <= 1e-5
    ok_asym = res.asymptotic_d == (budget * 2 / 8) ** (1 / 3)
    _check(
        11,
        ok_mono and ok_budget and ok_asym,
        f"d(q) strictly increasing for h in {{8,32,64,128}}; forward cost "
        f"{forward:.2f} vs budget {budget:.0f}; asymptotic (Bq/h)^(1/3) exact",
    )


def test_criterion_12_im2col_and_orientation():
    res = model_im2col(1024, 7)
    ratio = res.r_term / res.conv_like_terms[1]
    ok_ratio = abs(ratio / math.sqrt(1024 / 7) - 1) <= 0.01
    orient = orientation_ratio(2)
    ok_orient = (
        abs(orient.square_over_portrait - 1.19) <= 0.02
        and abs(orient.landscape_over_portrait - 1.41) <= 0.02
    )
    _check(
        12,
        ok_ratio and ok_orient,
        f"im2col term ratio {ratio:.4f} (~12.1), orientation "
        f"({orient.square_over_portrait:.4f}, {orient.landscape_over_portrait:.4f})",
    )
