"""Domain types, layout, granularity scaling, and the .dmt format."""

import math
import os
import random
import subprocess
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmclab import core, engine
from dmclab.core import (
    AnalysisConfig,
    DataObject,
    DmdReport,
    ObjectTable,
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
    bases = dict(zip(layout.ids, layout.starts))
    assert bases == {0: 0, 1: 8, 2: 12}
    for obj in objs:
        assert bases[obj.id] % 4 == 0
    spans = sorted((bases[o.id], bases[o.id] + o.size) for o in objs)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


def test_build_layout_block_one_is_contiguous():
    objs = [DataObject(0, "a", 5), DataObject(1, "b", 3)]
    layout = build_layout(objs, 1)
    assert dict(zip(layout.ids, layout.starts)) == {0: 0, 1: 5}


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


# the int64 ends, each power of ten and its predecessor with both signs, and
# the ends of the writer's uint32 digit arithmetic
WRITER_EDGES = sorted({-(2**63), 2**63 - 1, 2**32 - 1, 2**32, -(2**32 - 1), -(2**32)}
                      | {s * v for k in range(19) for v in (10**k, 10**k - 1) for s in (1, -1)})
WRITER_VALUES = INT64 | st.integers(-1000, 1000) | st.sampled_from(WRITER_EDGES)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(WRITER_VALUES, WRITER_VALUES), max_size=40),
       st.sampled_from([1, 3, core.DMT_WRITE_ACCESSES]))
@example([], core.DMT_WRITE_ACCESSES)
@example(list(zip(WRITER_EDGES, reversed(WRITER_EDGES))), core.DMT_WRITE_ACCESSES)
@example(list(zip(WRITER_EDGES, reversed(WRITER_EDGES))), 3)
@example([(-(2**63), 2**63 - 1), (-1, 0)], 1)
def test_written_access_lines_match_percent_formatting(accesses, write_accesses):
    # the writer spells whatever the columns hold, valid trace or not
    trace = Trace([], accesses, validate=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.dmt"
        with mock.patch.object(core, "DMT_WRITE_ACCESSES", write_accesses):
            write_dmt(trace, path)
        assert path.read_bytes() == b"".join(b"%d %d\n" % pair for pair in accesses)


@settings(max_examples=100, deadline=None)
@given(dmt_traces(), st.integers(1, 8))
@example(Trace([DataObject(2, "a", 1), DataObject(0, "b", 1), DataObject(1, "c", 1)],
               [(1, 0), (2, 0), (1, 0)]), 1)
@example(Trace([DataObject(2**62, "a", 1), DataObject(-(2**62), "b", 1)],
               [(2**62, 0), (-(2**62), 0)]), 8)
def test_touched_objects_match_the_set_of_touched_ids(trace, slice_accesses):
    seen = set(trace.oids)
    with mock.patch.object(core, "VALIDATE_ACCESSES", slice_accesses):
        touched = trace.touched_objects()
    assert touched == [obj for obj in trace.objects if obj.id in seen]


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
# a header block that ends in a name of digits or '-', right before accesses
@example(["%object 1 2 3", "1 1", "0 3"], ["\n"] * 25, True, 64)
@example(["%object 2 5 -1", "2 4", "0 3"], ["\n"] * 25, True, 64)
@example(["%object 1 3 img data", "%object 2 1 a  b", "1 2"], ["\n"] * 25, True, 64)
# headers, accesses, a header and accesses again in one chunk
@example(["%object 1 2 B", "0 1", "%object 2 2 C", "2 1"], ["\n"] * 25, True, 64)
# a chunk ends inside the header block
@example(["%object 1 2 B", "%object 2 2 C", "1 1", "2 0"], ["\n"] * 25, True, 20)
@example(["%object 1 2 B", "%object 2 2 C", "1 1"], ["\r\n"] * 25, True, 16)
@example(["%object  1 2 B", "1 1"], ["\n"] * 25, True, 64)
@example(["# c", "%object 1 2 B", "", "1 1"], ["\n"] * 25, True, 64)
@example(["#%object 1 2 B", "0 1"], ["\n"] * 25, True, 64)
@example(["%object 2 2 C\t", "%object 3 2  C", "0 1"], ["\n"] * 25, True, 64)
# a repeated id in a header block that is otherwise as written
@example(["%object 0 5 -1", "0 4"], ["\n"] * 25, True, 64)
@example(["%object 1 2 B", "%object 1 3 C", "1 1"], ["\n"] * 25, True, 64)
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
        # only spaces and tabs separate fields, in headers too
        ("%object 0 2 A\n0\x1c1\n", 2),
        ("%object 0 2 A\n0\x0b 1\n", 2),
        ("%object 0 2 A\n0 1\x0c\n", 2),
        ("%object 0 2 A\n0 1\n\x1d0\x1e1\x1f\n", 3),
        # a bad header after headers as `write_dmt` writes them
        ("%object 0 2 A\n%object 1 2 B\n%object 2 0 C\n0 1\n", 3),
        ("%object 0 2 A\n%object 1 2 B\n%object 2 2 C \n0 1\n%object 3 x D\n", 5),
        ("%object\x0c0 2 A\n0 1\n", 1),
        ("%object 0 2\x1fA\n0 1\n", 1),
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


@pytest.mark.parametrize("chunk_bytes", [core.DMT_CHUNK_BYTES, 64])
def test_dmt_read_through_a_pipe_equals_the_file(tmp_path, chunk_bytes):
    rng = random.Random(0)
    objs = [DataObject(0, "A", 1000), DataObject(-7, "b c", 3)]
    trace = Trace(objs, [(obj.id, rng.randrange(obj.size)) for obj in rng.choices(objs, k=5000)])
    path, fifo = tmp_path / "t.dmt", tmp_path / "t.fifo"
    write_dmt(trace, path)
    os.mkfifo(fifo)
    # a pipe has no size up front, so the reader's columns grow as it reads
    feeder = subprocess.Popen(["sh", "-c", 'exec cat -- "$0" > "$1"', str(path), str(fifo)])
    try:
        with mock.patch.object(core, "DMT_CHUNK_BYTES", chunk_bytes):
            piped = read_dmt(fifo)
        assert feeder.wait(timeout=10) == 0
    finally:
        feeder.kill()
    assert piped == read_dmt(path) == trace


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


# --- the columnar object table ---------------------------------------------------

OBJECT_ROWS = st.lists(st.tuples(
    st.integers(-2, 3) | EDGES,
    NAMES | st.sampled_from(["", " pad", "pad ", "a\nb", "a\x7f", "\u00e9", "img data"]),
    st.integers(-1, 5) | st.sampled_from([2**63 - 1, 2**63, 2**70]),
), max_size=6)


def _objects_or_error(rows):
    """The reference: the DataObjects of `rows` built in order, then checked
    for a repeated id as a Trace of them was, or the first error's message."""
    try:
        objects = [DataObject(*row) for row in rows]
    except ValidationError as exc:
        return str(exc)
    seen = set()
    for obj in objects:
        if obj.id in seen:
            return f"duplicate object id {obj.id}"
        seen.add(obj.id)
    return objects


@settings(max_examples=200, deadline=None)
@given(OBJECT_ROWS)
@example([(0, "a", 1), (0, "b", 1), (1, "c", 0)])  # the bad size, not the repeat
@example([(1, "a", 1), (2**63, "b", 1)])
@example([(1, "a", 2**70), (2, "b b", 2)])
@example([])
def test_object_table_reads_as_a_list_of_data_objects(rows):
    expected = _objects_or_error(rows)
    columns = ([row[i] for row in rows] for i in range(3))
    try:
        trace = Trace.from_columns(ObjectTable(*columns), array("q"), array("q"))
    except ValidationError as exc:
        assert str(exc) == expected
        return
    table = trace.objects
    assert len(table) == len(expected)
    assert list(table) == expected
    assert [table[i] for i in range(-len(table), len(table))] == expected + expected
    assert table == expected and table == tuple(expected)
    assert Trace(expected, []) == trace
    assert Trace(table, []).objects is table


def _layout_loop(objects, block_size):
    """The reference layout: each base the cursor rounded up to a block."""
    bases, cursor = {}, 0
    for obj in objects:
        base = -(-cursor // block_size) * block_size
        bases[obj.id] = base
        cursor = base + obj.size
    return bases, cursor


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40) | st.integers(1, 2**62), max_size=8),
       st.sampled_from([1, 2, 4, 16]))
@example([2**62, 2**62 - 16], 16)  # ends at 2**63 - 1
@example([2**62, 2**62 - 15], 16)  # a base rounds up to 2**63
def test_vectorised_layout_matches_loop(sizes, block_size):
    objs = [DataObject(i, f"o{i}", size) for i, size in enumerate(sizes)]
    bases, end = _layout_loop(objs, block_size)
    if end >= 2**63:
        with pytest.raises(ValidationError, match=f"^layout spans {end} elements"):
            build_layout(objs, block_size)
    else:
        layout = build_layout(objs, block_size)
        assert dict(zip(layout.ids, layout.starts)) == bases


def _block_ids_loop(trace, layout):
    """The reference: (base + offset) // block_size, access by access."""
    bases = dict(zip(layout.ids, layout.starts))
    return [(bases[oid] + off) // layout.block_size for oid, off in trace.accesses]


DENSE_IDS = st.integers(1, 6).map(lambda k: list(range(k)))
SPARSE_IDS = st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=6, unique=True)


@settings(max_examples=100, deadline=None)
@given(DENSE_IDS | SPARSE_IDS | DENSE_IDS.map(lambda ids: ids[::-1]),
       st.sampled_from([1, 2, 4, 16]), st.data())
@example([0, 1, 2], 4, None)  # dense: a gather
@example([-5, 7, 2**40], 2, None)  # sparse and negative: a binary search
@example([1, 0], 1, None)
@example([7], 1, None)  # the partial layout is empty
def test_block_ids_match_a_loop(ids, block_size, data):
    sizes = [3 + 2 * i for i in range(len(ids))]
    objs = [DataObject(oid, f"o{oid}", size) for oid, size in zip(ids, sizes)]
    picks = data.draw(st.lists(st.integers(0, 10**6), max_size=40)) if data else range(12)
    trace = Trace(objs, [(objs[p % len(objs)].id, p % objs[p % len(objs)].size) for p in picks])
    layout = build_layout(objs, block_size)
    assert engine._block_ids(trace, block_size).tolist() == _block_ids_loop(trace, layout)
    blocked = engine.apply_block_transform(trace, layout)
    assert [oid for oid, _ in blocked.accesses] == _block_ids_loop(trace, layout)
    # the transform takes only the trace's own layout: not one placed in
    # another order, nor one that leaves an object out
    shuffled = random.Random(len(ids)).sample(objs, len(objs))
    for other in (build_layout(shuffled, block_size), build_layout(objs[1:], block_size)):
        if other != layout:
            with pytest.raises(ValidationError, match="^layout is not the trace's own build_layout$"):
                engine.apply_block_transform(trace, other)
