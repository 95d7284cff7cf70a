"""Domain types, layout, granularity scaling, and the .dmt format."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmclab import core
from dmclab.core import (
    AnalysisConfig,
    DataObject,
    DmdReport,
    Trace,
    TraceFormatError,
    ValidationError,
    build_layout,
    read_dmt,
    scale_granularity,
    write_dmt,
)


def test_data_object_rejects_empty():
    with pytest.raises(ValidationError):
        DataObject(id=0, name="x", size=0)


@pytest.mark.parametrize("name", ["", " pad", "a\nb", "\u00e9"])
def test_data_object_rejects_names_a_dmt_header_cannot_carry(name):
    with pytest.raises(ValidationError, match="name"):
        DataObject(id=0, name=name, size=1)


def test_trace_validates_object_ids_and_offsets():
    objs = [DataObject(0, "a", 4)]
    with pytest.raises(ValidationError):
        Trace(objs, [(1, 0)])
    with pytest.raises(ValidationError):
        Trace(objs, [(0, 4)])
    with pytest.raises(ValidationError):
        Trace(objs, [(0, -1)])
    Trace(objs, [(0, 0), (0, 3)])  # in range


def test_trace_rejects_duplicate_ids():
    objs = [DataObject(0, "a", 1), DataObject(0, "b", 1)]
    with pytest.raises(ValidationError):
        Trace(objs, [])


def test_touched_objects_in_id_order():
    objs = [DataObject(0, "a", 1), DataObject(1, "b", 1), DataObject(2, "c", 1)]
    trace = Trace(objs, [(2, 0), (0, 0), (2, 0)])
    assert [o.id for o in trace.touched_objects()] == [0, 2]


def test_analysis_config_validation():
    with pytest.raises(ValidationError):
        AnalysisConfig(granularity_bits=0)
    with pytest.raises(ValidationError):
        AnalysisConfig(block_size=0)
    with pytest.raises(ValidationError):
        AnalysisConfig(cold_policy="lru")


def test_build_layout_aligns_and_never_overlaps():
    objs = [DataObject(0, "a", 5), DataObject(1, "b", 3), DataObject(2, "c", 9)]
    layout = build_layout(objs, 4)
    assert layout.bases == {0: 0, 1: 8, 2: 12}
    for obj in objs:
        assert layout.bases[obj.id] % 4 == 0
    spans = sorted((layout.bases[o.id], layout.bases[o.id] + o.size) for o in objs)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


def test_build_layout_block_one_is_contiguous():
    objs = [DataObject(0, "a", 5), DataObject(1, "b", 3)]
    layout = build_layout(objs, 1)
    assert layout.bases == {0: 0, 1: 5}


def test_scale_granularity_exact():
    report = DmdReport(
        reuse_dmd=10.0, cold_dmd=4.0, n_accesses=7, n_cold=3,
        histogram={1: 2, 4: 2},
    )
    for bits in (2, 4, 16):
        scaled = scale_granularity(report, bits)
        assert scaled.reuse_dmd == 10.0 * math.sqrt(bits)
        assert scaled.cold_dmd == 4.0 * math.sqrt(bits)
        assert scaled.histogram == report.histogram
        assert scaled.n_accesses == report.n_accesses


def test_report_check_catches_inconsistency():
    bad = DmdReport(
        reuse_dmd=99.0, cold_dmd=0.0, n_accesses=4, n_cold=2,
        histogram={4: 2},
    )
    with pytest.raises(ValidationError):
        bad.check()
    good = DmdReport(
        reuse_dmd=4.0, cold_dmd=0.0, n_accesses=4, n_cold=2,
        histogram={4: 2},
    )
    good.check()


INT64 = st.integers(-(2**63), 2**63 - 1)
BEYOND_INT64 = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63) - 1)
NAMES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1,
                max_size=10).filter(lambda name: name == name.strip())
# never an integer: no digits, and non-ASCII letters are written as UTF-8
NOT_INTEGERS = st.text("abxyz\u00e9\u00a0\u0663", min_size=1, max_size=4)
NON_ASCII = st.text("\u00e9\u00a0\u0663", min_size=1, max_size=3)


@st.composite
def dmt_traces(draw):
    ids = draw(st.lists(INT64, min_size=1, max_size=5, unique=True))
    objs = [DataObject(oid, draw(NAMES), draw(st.integers(1, 2**62))) for oid in ids]
    picks = draw(st.lists(st.tuples(st.sampled_from(objs), st.integers(0, 2**62)), max_size=30))
    return Trace(objs, [(obj.id, off % obj.size) for obj, off in picks])


def _dmt_lines(trace: Trace) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.dmt"
        write_dmt(trace, path)
        return path.read_text().splitlines()


@settings(max_examples=100, deadline=None)
@given(dmt_traces())
@example(Trace([DataObject(0, "img data", 6), DataObject(1, "K", 2)], [(0, 0), (1, 1), (0, 5)]))
def test_dmt_round_trip(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.dmt"
        write_dmt(trace, path)
        assert read_dmt(path) == trace


@st.composite
def bad_headers(draw):
    oid, size, word = draw(INT64), draw(st.integers(1, 9)), draw(NOT_INTEGERS)
    return draw(st.sampled_from([
        f"%object {oid} {size}",
        f"%object {word} {size} A",
        f"%object {oid} {word} A",
        f"%object {oid} {draw(st.integers(-9, 0))} A",
        f"%object {draw(BEYOND_INT64)} {size} A",
        f"%object {oid} {size} A{draw(NON_ASCII)}",
    ]))


@st.composite
def bad_accesses(draw):
    oid, off, word = draw(INT64), draw(INT64), draw(NOT_INTEGERS)
    return draw(st.sampled_from([
        f"{oid}",
        f"{oid} {off} {off}",
        f"{word} {off}",
        f"{oid} {word}",
        f"{draw(BEYOND_INT64)} {off}",
        f"{oid} {draw(BEYOND_INT64)}",
    ]))


@settings(max_examples=200, deadline=None)
@given(dmt_traces(), st.data())
def test_corrupted_dmt_line_names_its_line(trace, data):
    lines = _dmt_lines(trace)
    index = data.draw(st.integers(0, len(lines) - 1))
    header = index < len(trace.objects)
    lines[index] = data.draw(bad_headers() if header else bad_accesses())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.dmt"
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        with pytest.raises(TraceFormatError) as exc:
            read_dmt(path)
    assert exc.value.line == index + 1


def _valid_or_error(build):
    """The trace `build()` returns, or the message and line of its error."""
    try:
        return build()
    except TraceFormatError as exc:
        return str(exc), exc.line


def _read_line_by_line(path) -> Trace:
    """The reference reader: `_parse_line` on each line that text mode reads."""
    objects, accesses = [], []
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            access = core._parse_line(raw, lineno, objects)
            if access is not None:
                accesses.append(tuple(access))
    try:
        return Trace(objects, accesses)
    except ValidationError as exc:
        raise TraceFormatError(str(exc))


EDGES = st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**17, 10**18 - 1,
                         -(10**18) + 1, 10**18, 10**19, -(10**19), 10**20 - 1])
VALUES = st.integers(-3, 40) | EDGES


@st.composite
def dmt_values(draw):
    value = draw(VALUES)
    if value >= 0:
        return draw(st.sampled_from(["", "+", "0", "00"])) + str(value)
    return str(value)


@st.composite
def dmt_lines(draw):
    kind = draw(st.sampled_from(["canonical"] * 12 + ["wide"] * 2 + [
        "access", "header", "comment", "blank", "corrupt"]))
    if kind == "canonical":
        oid = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
        return f"{oid} {draw(st.integers(0, 39) | st.integers(-1, 41))}"
    if kind == "wide":
        return f"{draw(VALUES)} {draw(VALUES)}"
    if kind == "access":
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        return f"{pad}{draw(dmt_values())}{sep}{draw(dmt_values())}{pad}"
    if kind == "header":
        return f"%object {draw(st.integers(-1, 3) | EDGES)} {draw(st.integers(0, 50))} {draw(NAMES)}"
    if kind == "comment":
        return "#" + draw(st.text("ab 12#-", max_size=6))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t "]))
    return draw(st.sampled_from(["x y", "1 2 3", "1", "-", "- 1", "1 -", "1_0 2", "1 1.5",
                                 "\u00e9 1", "1 2\x00", "--1 2", "1-2 3", "0 2-", "1 -+2",
                                 "%object 0 1", "%objectfoo 0 4 A"]))


LINE_ENDS = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=25, max_size=25)


@settings(max_examples=300, deadline=None)
@given(st.lists(dmt_lines(), max_size=25), LINE_ENDS, st.booleans(), st.integers(1, 64))
# a \r\n split across two reads is one line end
@example(["0 1", "x y"], ["\r\n"] * 25, True, 19)
# 14 bytes: the header is a chunk of its own, and both accesses are one chunk
# that is canonical or only just not
@example(["0 1", f"{-(10**18 - 1)} 1"], ["\n"] * 25, True, 14)
@example(["0 1", "--1 2"], ["\n"] * 25, True, 14)
@example(["0 1", "1-2 3"], ["\n"] * 25, True, 14)
@example(["0 1", "- 1"], ["\n"] * 25, True, 14)
@example(["0 1", "0 1 0 1"], ["\n"] * 25, True, 14)
@example(["0 1", "0", "1"], ["\n"] * 25, True, 14)
@example(["0 1", "0"], ["\n"] * 25, False, 14)
@example(["0 1", f"{2**63} 1"], ["\n"] * 25, True, 14)
@example(["0 1", "%object 1 2 B", "1 1"], ["\n"] * 25, True, 64)
def test_chunked_reader_matches_line_by_line_parse(lines, ends, final_newline, chunk_bytes):
    text = "%object 0 40 A\n" + "".join(line + end for line, end in zip(lines, ends))
    if not final_newline:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.dmt"
        path.write_bytes(text.encode("utf-8"))
        expected = _valid_or_error(lambda: _read_line_by_line(path))
        with mock.patch.object(core, "DMT_CHUNK_BYTES", chunk_bytes):
            assert _valid_or_error(lambda: read_dmt(path)) == expected


def test_dmt_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "t.dmt"
    path.write_text("# header\n%object 0 2 A\n\n0 1\n# tail\n0 0\n")
    trace = read_dmt(path)
    assert trace.accesses == ((0, 1), (0, 0))


@pytest.mark.parametrize(
    "text,line",
    [
        ("%object 0 2\n", 1),
        ("%object x 2 A\n", 1),
        ("%object 0 2 A\n0\n", 2),
        ("%object 0 2 A\n0 one\n", 2),
        ("%object 0 0 A\n", 1),
        ("%objectfoo 0 4 A\n0 1\n", 1),
    ],
)
def test_dmt_errors_carry_line_numbers(tmp_path, text, line):
    path = tmp_path / "bad.dmt"
    path.write_text(text)
    with pytest.raises(TraceFormatError) as exc:
        read_dmt(path)
    assert exc.value.line == line


def test_dmt_out_of_range_access_is_format_error(tmp_path):
    path = tmp_path / "bad.dmt"
    path.write_text("%object 0 2 A\n0 7\n")
    with pytest.raises(TraceFormatError):
        read_dmt(path)


# the whole file is one chunk, read line by line; at 1 byte each access is a
# canonical chunk of its own; at 22 bytes the last two accesses are one
@pytest.mark.parametrize("chunk_bytes", [core.DMT_CHUNK_BYTES, 1, 22])
def test_reader_stops_beyond_physical_memory(tmp_path, chunk_bytes):
    path = tmp_path / "t.dmt"
    path.write_text("%object 0 4 A\n0 0\n0 1\n# tail\n0 2\n0 3\n")
    with mock.patch.object(core, "physical_memory", lambda: 3 * core.ACCESS_BYTES), \
            mock.patch.object(core, "DMT_CHUNK_BYTES", chunk_bytes):
        with pytest.raises(TraceFormatError, match="more than this machine's") as exc:
            read_dmt(path)
    assert exc.value.line == 6


def _first_bad_access(objects, accesses):
    """The per-access reference for `Trace._validate`."""
    sizes = {obj.id: obj.size for obj in objects}
    for i, (oid, off) in enumerate(accesses):
        size = sizes.get(oid)
        if size is None:
            return f"access {i}: unknown object id {oid}"
        if not 0 <= off < size:
            return f"access {i}: offset {off} out of range for object {oid} (size {size})"
    return None


@st.composite
def traces_with_one_bad_access(draw):
    ids = draw(st.lists(st.integers(-3, 3) | EDGES.filter(lambda v: -(2**63) <= v < 2**63),
                        min_size=1, max_size=4, unique=True))
    sizes = st.integers(1, 6) | st.sampled_from([2**63 - 1, 2**63, 2**70])
    objs = [DataObject(oid, f"o{oid}", draw(sizes)) for oid in ids]
    picks = draw(st.lists(st.tuples(st.sampled_from(objs), st.integers(0, 2**63 - 1)),
                          max_size=20))
    accesses = [(obj.id, off % min(obj.size, 2**63)) for obj, off in picks]
    obj = draw(st.sampled_from(objs))
    unknown = draw((st.integers(-(2**63), 2**63 - 1) | EDGES.filter(
        lambda v: -(2**63) <= v < 2**63)).filter(lambda v: v not in ids))
    bad = draw(st.sampled_from([
        (unknown, 0),
        (obj.id, draw(st.integers(-(2**63), -1))),
        (obj.id, obj.size) if obj.size < 2**63 else (unknown, 2**63 - 1),
    ]))
    accesses.insert(draw(st.integers(0, len(accesses))), bad)
    return objs, accesses


@settings(max_examples=200, deadline=None)
@given(traces_with_one_bad_access(), st.integers(1, 8))
@example(([DataObject(0, "A", 4)], [(0, 99)]), 8)
@example(([DataObject(0, "A", 4)], [(1, 0)]), 8)
@example(([DataObject(0, "A", 2**70)], [(0, 2**63 - 1), (0, -1)]), 8)
def test_vectorised_validation_matches_per_access_loop(case, slice_accesses):
    objs, accesses = case
    with mock.patch.object(core, "VALIDATE_ACCESSES", slice_accesses):
        with pytest.raises(ValidationError) as exc:
            Trace(objs, accesses)
    assert str(exc.value) == _first_bad_access(objs, accesses)


def test_validation_messages_are_pinned():
    with pytest.raises(ValidationError, match=r"^access 0: offset 99 out of range for object 0 "
                                              r"\(size 4\)$"):
        Trace([DataObject(0, "A", 4)], [(0, 99)])
    with pytest.raises(ValidationError, match="^access 0: unknown object id 1$"):
        Trace([DataObject(0, "A", 4)], [(1, 0)])
