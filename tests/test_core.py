"""Domain types, layout, granularity scaling, and the .dmt format."""

import math
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
NAMES = st.text(string.ascii_letters + string.digits + " _.#%", min_size=1, max_size=10).filter(
    lambda name: name == name.strip() and name)
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
