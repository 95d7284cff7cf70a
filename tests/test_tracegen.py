"""Trace generators: exact lengths, determinism, and access structure."""

import hashlib
import io
import itertools

import pytest

from dmclab.core import (
    COLD_POLICIES,
    AnalysisConfig,
    DataObject,
    Trace,
    ValidationError,
    write_dmt,
)
from dmclab.engine import analyze_trace, stack_distances_fast
import numpy as np

from dmclab.tracegen import (
    BatchParams,
    ConvParams,
    FftParams,
    KERNELS,
    GenSpec,
    Im2colParams,
    MatmulParams,
    _TraceBuilder,
    access_count,
    gen_batched_conv,
    gen_conv,
    gen_fft,
    gen_fft_conv2d,
    gen_matmul,
    generate,
)

SPECS = [
    GenSpec("matmul", MatmulParams(3, 4, 5)),
    GenSpec("conv", ConvParams(6, 9, 3)),
    GenSpec("im2col", Im2colParams(6, 2)),
    GenSpec("batchconv", BatchParams(5, 2, 6, 3)),
    GenSpec("fft", FftParams(16)),
    GenSpec("fftconv2d", FftParams(4)),
]


def _small_grid(alg: str) -> list:
    """Every valid parameter record of `alg` whose fields lie in 1..5."""
    kernel = KERNELS[alg]
    records = []
    for values in itertools.product(range(1, 6), repeat=len(kernel.param_names)):
        try:
            records.append(kernel.params(*values))
        except ValidationError:
            pass
    return records


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.algorithm)
def test_access_count_matches_generated_length(spec, monkeypatch):
    # the columns start as -1, so a position no access was placed at shows
    allocate = _TraceBuilder.allocate

    def allocate_filled(builder, count):
        columns = allocate(builder, count)
        for column in columns:
            column.fill(-1)
        return columns

    monkeypatch.setattr(_TraceBuilder, "allocate", allocate_filled)
    for params in [spec.params, *_small_grid(spec.algorithm)]:
        point = GenSpec(spec.algorithm, params)
        trace = generate(point)
        assert len(trace) == access_count(point)
        for column in (trace.oids, trace.offsets):
            assert -1 not in np.frombuffer(column, dtype=np.int64), params
        Trace.from_columns(trace.objects, trace.oids, trace.offsets)  # every access in bounds


def test_known_access_counts():
    assert access_count(GenSpec("matmul", MatmulParams(2, 2, 2))) == 20
    assert access_count(GenSpec("conv", ConvParams(4, 4, 2))) == 81
    assert access_count(GenSpec("im2col", Im2colParams(2, 2))) == 17
    assert access_count(GenSpec("fft", FftParams(16))) == 304
    # counts no trace could hold: exact ints, from arithmetic alone
    huge = access_count(GenSpec("matmul", MatmulParams(1, 10**200, 2)))
    assert type(huge) is int and huge == 4 * 10**200 + 2
    channels = access_count(GenSpec("batchconv", BatchParams(3, 1, 2**62, 1)))
    assert type(channels) is int and channels == 27 * 2**62


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.algorithm)
def test_generation_is_deterministic(spec):
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        trace = generate(spec)
        for obj in trace.objects:
            buf.write(f"%object {obj.id} {obj.size} {obj.name}\n")
        for oid, off in trace.accesses:
            buf.write(f"{oid} {off}\n")
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


def test_parameter_validation():
    with pytest.raises(ValidationError):
        generate(GenSpec("conv", ConvParams(3, 3, 4)))
    with pytest.raises(ValidationError):
        generate(GenSpec("fft", FftParams(12)))
    with pytest.raises(ValidationError):
        generate(GenSpec("batchconv", BatchParams(5, 2, 6, 4)))
    with pytest.raises(ValidationError):
        generate(GenSpec("sort", MatmulParams(1, 1, 1)))
    with pytest.raises(ValidationError, match="MatmulParams"):
        GenSpec("conv", MatmulParams(2, 5, 5))


def test_matmul_access_order():
    trace = gen_matmul(1, 2, 1)
    names = {obj.id: obj.name for obj in trace.objects}
    seq = [(names[oid], off) for oid, off in trace.accesses]
    assert seq == [("A", 0), ("B", 0), ("A", 1), ("B", 1), ("C", 0)]


def test_conv_reads_kernel_before_image():
    trace = gen_conv(3, 3, 2)
    names = {obj.id: obj.name for obj in trace.objects}
    first_window = [(names[oid], off) for oid, off in trace.accesses[:9]]
    assert first_window == [
        ("K", 0), ("I", 0), ("K", 1), ("I", 1),
        ("K", 2), ("I", 3), ("K", 3), ("I", 4),
        ("R", 0),
    ]


def test_conv_kernel_reuses_cluster_at_short_distances():
    # after the cold window, kernel cells come back every 2k^2 accesses
    # (give or take one for the result write), so the k^2-per-window
    # reuse mass sits in the three bins around 2k^2
    n, k = 32, 3
    report = analyze_trace(gen_conv(n, n, k))
    windows = (n - k + 1) ** 2
    spike = sum(report.histogram.get(d, 0) for d in (2 * k * k - 1, 2 * k * k, 2 * k * k + 1))
    assert spike >= k * k * (windows - 1)


def test_batched_conv_single_channel_equals_conv():
    plain = gen_conv(5, 5, 2)
    batched = gen_batched_conv(5, 2, 1, 1)
    assert batched.accesses == plain.accesses
    assert [o.size for o in batched.objects] == [o.size for o in plain.objects]


def test_batched_conv_result_reuse_distances():
    # with all channels in one batch, R is re-touched within the window;
    # with x=1 it is only revisited after a full pass over the image
    n, k, c = 8, 2, 4
    one_batch = analyze_trace(gen_batched_conv(n, k, c, c))
    unbatched = analyze_trace(gen_batched_conv(n, k, c, 1))
    near = 2 * k * k + 1
    assert max(d for d in one_batch.histogram if d <= near * c) < n * n
    assert any(d > n * n for d in unbatched.histogram)


def test_fft_object_inventory():
    # input, the shared root table, and even/odd/output per internal call
    trace = gen_fft(16)
    names = [obj.name for obj in trace.objects]
    assert names[0] == "A"
    assert names[1] == "omega"
    assert sum(1 for nm in names if nm.endswith(".y")) == 15
    omega = trace.objects[1]
    assert omega.size == 8


def test_fft_root_entry_zero_touched_at_every_level():
    # entry 0 is read once per internal call: 1 + 2 + 4 + 8 = 15 times
    trace = gen_fft(16)
    count = sum(1 for oid, off in trace.accesses if oid == 1 and off == 0)
    assert count == 15


def test_fft_odd_root_entries_touched_once():
    trace = gen_fft(16)
    for entry in (1, 3, 5, 7):
        count = sum(1 for oid, off in trace.accesses if oid == 1 and off == entry)
        assert count == 1


def test_fft_base_case():
    trace = gen_fft(1)
    assert len(trace) == 1
    assert trace.accesses == ((0, 0),)


def test_fftconv2d_shares_one_root_table():
    trace = generate(GenSpec("fftconv2d", FftParams(4)))
    omegas = [obj for obj in trace.objects if obj.name == "omega"]
    assert len(omegas) == 1
    assert omegas[0].size == 2


def test_fftconv2d_product_phase_is_triples():
    # after the kernel's and the image's 2D transforms, each of 2n transforms
    # of size n, come n*n triples: read K^[r][c] and I^[r][c], the outputs
    # of the column transforms, then write P[r*n + c]
    for n in (2, 4):
        trace = generate(GenSpec("fftconv2d", FftParams(n)))
        ids = {obj.name: obj.id for obj in trace.objects}
        start = 4 * n * access_count(GenSpec("fft", FftParams(n)))
        expected = []
        for r in range(n):
            for c in range(n):
                expected += [(ids[f"K.c{c}.y"], r), (ids[f"I.c{c}.y"], r),
                             (ids["P"], r * n + c)]
        assert list(trace.accesses[start:start + 3 * n * n]) == expected
        assert ids["P"] not in {oid for oid, _ in trace.accesses[:start]}


def test_traces_round_trip_through_dmt(tmp_path):
    spec = GenSpec("conv", ConvParams(5, 5, 2))
    path = tmp_path / "t.dmt"
    write_dmt(generate(spec), path)
    from dmclab.core import read_dmt

    again = read_dmt(path)
    assert again == generate(spec)


def test_distances_well_formed_on_all_generators():
    for spec in SPECS:
        trace = generate(spec)
        distances = stack_distances_fast(trace)
        n_cold = sum(1 for d in distances if d is None)
        assert n_cold == len({a for a in trace.accesses})


def _digest(trace) -> str:
    """sha256 of the object table, an `id name size` line per object, and
    then of both columns as little-endian int64."""
    h = hashlib.sha256()
    for obj in trace.objects:
        h.update(f"{obj.id} {obj.name} {obj.size}\n".encode("ascii"))
    for column in (trace.oids, trace.offsets):
        h.update(np.frombuffer(column, dtype=np.int64).astype("<i8").tobytes())
    return h.hexdigest()


# the traces of the call-by-call recursive generators these replaced
FFT_DIGESTS = [
    ("fft", 1, "a22dced8c3333688e3bdaa8a620b4892981f56f81f07d0a6c879c14dc11f1ec3"),
    ("fft", 2, "c867b54db1e0127c274ef023cb8e49b5863f818d73100cbd0c8d7af0dd296d11"),
    ("fft", 4, "93f67c4c9dd5f7616042f4d33d12459ca975b44176b6a5de5cfac7b690cac62f"),
    ("fft", 8, "b7f36012ee3ff79b33f96cde280bec57c26758f2bdc64e3a74b80087dc6e6d04"),
    ("fft", 16, "a94f3f22ce88c9a6e1fc6125bff359cac3d557f28b666817135da9f0448e9fa7"),
    ("fft", 32, "4779418d62ed724e6da0c21f952fda5922ef2f072c94cf7934532c41059cd2a8"),
    ("fft", 64, "13c96156cd182cd2798fe8afed1e62c38de2c73d1ed1747d66627c5e84255df7"),
    ("fft", 128, "954327e041fc2f4f9083a3cc2670b91976884da086ab9c4d0b919248a5b98268"),
    ("fft", 256, "6dfaac3906e2a5d2b6e43cc135b1e7c8226cff6112e9e4dbe50258dc28c386d4"),
    ("fft", 512, "9a432c2f473a0790b5a65148023d393afb72f26d5d33ffaacabd0444f6a97bf2"),
    ("fft", 1024, "6b38c7f21c60c772e05a558fe433c0985a6300415f4f02f32c4d923ef649b2a4"),
    ("fft", 2048, "d06de44f346ac1a1dd6a9e8bb1eae78f0e594bb19f4e3ffb35bbd781b58e02b1"),
    ("fft", 4096, "86d1b9a62094d79deed71471512c42cf6340b9e119dbe397ef2feb94be8ff154"),
    ("fft", 32768, "9f0dfad53feb7c827c61153e795ae570f766a2040860fd904ee8e3dd30de15ab"),
    ("fftconv2d", 1, "35309a2e3ee124fec02e4b2fbf89e41b70acc817c3a8ffa0a7004cef4050e026"),
    ("fftconv2d", 2, "645a2d0e11b4e1b6044ab9d236018f022d2d4a4257650aec6ea17e2917969836"),
    ("fftconv2d", 4, "d5a0331460a080e2c492b4ab40c63d1ba34dce4de0c89dbe5763df768929107a"),
    ("fftconv2d", 8, "a842fab3c21614329554d3a4dd7579f1f80c864720f7de6f17eb6a773e330d19"),
    ("fftconv2d", 16, "72797922071a71bd69f58ce322bf7744f5526d548bd6ac5daf1096f30021d8bc"),
]


@pytest.mark.parametrize("alg,n,digest", FFT_DIGESTS, ids=lambda v: str(v)[:9])
def test_fft_generators_emit_pinned_traces(alg, n, digest):
    generator = {"fft": gen_fft, "fftconv2d": gen_fft_conv2d}[alg]
    assert _digest(generator(n)) == digest


# the traces of the loop-by-loop generators that the loop-nest placement
# replaced, at sizes beyond the golden commands'
LOOP_NEST_DIGESTS = [
    ("matmul", (16, 5, 4), "5cbe2c2c619eae3e341e94a070b9c5f96209576abf82c420b0b81631373ec026"),
    ("matmul", (1, 1, 1), "db41cee5534e2297a0bfeb4db1dd3da0deca83a4859ba8be9af9446c56bb34ed"),
    ("matmul", (7, 13, 3), "198b8c1d95b96db2f01cf800796f890d7cba13f73b71bd4f64438fae9174b452"),
    ("conv", (64, 64, 3), "f695e452b711ed3b345b640766ebce2ae58100c2a289ad41313b30b014807ded"),
    ("conv", (17, 11, 5), "06008068bf3c316cb4347dfb26ef9cd25cc5825866ec0b1eedf8341747e9ac5a"),
    ("conv", (9, 30, 1), "bfc1dfcb76a1018ad5dacf6fcf86c64c554ded5ed720d1a7e49bd93567a8e1db"),
    ("conv", (7, 7, 7), "f66bbec53263cb04543cbf09f75ef29021746851e67c36c6c9e03488e38b4af2"),
    ("im2col", (40, 5), "dd2fd8e93b14ccebd7e448cb4055fbe793d0f51364749380c98224b543a249db"),
    ("im2col", (9, 1), "74fbdc9db6e0e46ae22559aa8423f41ae104ceb324437664d6d8220a5a1565b1"),
    ("im2col", (6, 6), "83728ed4af4945c667d73af199958e03f547b3d083df59362075c898ab3610ae"),
    ("batchconv", (17, 3, 6, 2), "ebf5f0302e544a9e81a0d0e80dc8ee09c8d2a4e9cf97c50251458afa21b41188"),
    ("batchconv", (17, 3, 6, 3), "642bc13d07a7df55e3efda51cc39fef322a5ab218de07fcec150fb7daa7863f3"),
    ("batchconv", (9, 2, 4, 4), "7554734f51396b6dd1edf9297f02233b04b3929f30f0a3136757ec79ea2d0d1c"),
    ("batchconv", (5, 5, 3, 1), "296c1e08ce04fa751ec25bccf139f96798cb7ac1e41fbdba3e6387b7176ca23a"),
]


@pytest.mark.parametrize("alg,params,digest", LOOP_NEST_DIGESTS,
                         ids=lambda v: str(v).replace(" ", "")[:12])
def test_loop_nest_generators_emit_pinned_traces(alg, params, digest):
    assert _digest(KERNELS[alg].generator(*params)) == digest


@pytest.mark.parametrize("generator,n", [(gen_fft, 1024), (gen_fft_conv2d, 8)])
def test_generation_and_analysis_build_no_data_object(generator, n, monkeypatch):
    built = []
    check = DataObject.__post_init__
    monkeypatch.setattr(DataObject, "__post_init__", lambda obj: built.append(check(obj)))
    trace = generator(n)
    for cold in COLD_POLICIES:
        analyze_trace(trace, AnalysisConfig(cold_policy=cold))
    assert len(built) == 0
