"""Shared domain types: traces, layouts, analysis configuration, reports.

A trace is an ordered sequence of accesses to elements of declared data
objects.  All sizes and addresses are in abstract element units; data
granularity in bits is applied only afterwards, as a uniform sqrt(s)
scaling of a finished report (`scale_granularity`), never baked into the
trace itself.

All types are immutable after construction and safe to share across
concurrent analyses.
"""

from __future__ import annotations

import math
import os
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:
    import numpy as np


class DmcError(Exception):
    """Base class for errors raised by dmclab."""


class ValidationError(DmcError):
    """Invalid parameters or inconsistent inputs."""


class TraceFormatError(DmcError):
    """Malformed .dmt trace text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


COLD_POLICIES = ("exclude", "footprint_bound", "per_object")


@dataclass(frozen=True, slots=True)
class DataObject:
    """A named array of `size` abstract data elements."""

    id: int
    name: str
    size: int

    def __post_init__(self):
        if not -(2**63) <= self.id < 2**63:
            raise ValidationError(f"object {self.name!r}: id {self.id} does not fit in 64 bits")
        if self.size < 1:
            raise ValidationError(f"object {self.name!r}: size must be >= 1, got {self.size}")
        # exactly the names a .dmt header carries back unchanged
        if not (self.name.isascii() and self.name.isprintable()
                and self.name == self.name.strip() and self.name):
            raise ValidationError(
                f"object name {self.name!r} must be printable ASCII, non-empty, "
                "without surrounding whitespace"
            )


# bytes a trace holds per access: one int64 in each of its two columns
ACCESS_BYTES = 2 * array("q").itemsize
# accesses `Trace._validate` takes per numpy pass
VALIDATE_ACCESSES = 1 << 16
# printable ASCII but the space: the bytes of a name that is valid whatever
# its position
_NAME_BYTES = bytes(range(0x21, 0x7F))


def physical_memory() -> int:
    """Bytes of physical memory on this machine: no trace may need more."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _int_column(values: Sequence[int]) -> array | list:
    """`values` as an ``array('q')``, or as a list if one exceeds 64 bits."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return array("q", values)
    except OverflowError:
        return list(values)


class ObjectTable(Sequence):
    """The objects of a trace as columns: `ids` and `sizes` as
    ``array('q')`` (`sizes` as a list if one exceeds 64 bits) and `names`
    as a list, in declaration order.

    It reads as a sequence of DataObjects, each built on access.  It is
    validated as a whole: a table that breaks DataObject's rules or
    repeats an id raises what building its DataObjects in order, then a
    Trace of them, raises.  Array columns are taken over, not copied.
    """

    __slots__ = ("ids", "names", "sizes")

    def __init__(self, ids: Sequence[int], names: Sequence[str], sizes: Sequence[int]):
        import numpy as np

        if not len(ids) == len(names) == len(sizes):
            raise ValidationError("object ids, names and sizes differ in length")
        self.ids, self.names, self.sizes = _int_column(ids), list(names), _int_column(sizes)
        text = "\n".join(self.names)
        # a quick check that passes 64-bit values and names of printable
        # ASCII without spaces: once those bytes go, only the separators stay
        if (isinstance(self.ids, array) and isinstance(self.sizes, array)
                and np.frombuffer(self.sizes, dtype=np.int64).min(initial=1) >= 1
                and all(self.names) and text.isascii()
                and text.encode("ascii").translate(None, _NAME_BYTES) == b"\n" * (len(self) - 1)):
            ordered = np.sort(np.frombuffer(self.ids, dtype=np.int64))
            if (ordered[1:] != ordered[:-1]).all():
                return
        # the first invalid object raises its own error, then the first repeat
        seen = set()
        for obj in list(map(DataObject, ids, self.names, sizes)):
            if obj.id in seen:
                raise ValidationError(f"duplicate object id {obj.id}")
            seen.add(obj.id)

    @classmethod
    def of(cls, objects: Sequence[DataObject]) -> ObjectTable:
        """The table of `objects`; `objects` itself if it is one."""
        if isinstance(objects, cls):
            return objects
        return cls([o.id for o in objects], [o.name for o in objects],
                   [o.size for o in objects])

    def size_column(self) -> np.ndarray:
        """The sizes as int64, or as Python ints if one exceeds 64 bits."""
        import numpy as np

        if isinstance(self.sizes, array):
            return np.frombuffer(self.sizes, dtype=np.int64)
        return np.array(self.sizes, dtype=object)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> DataObject:
        return DataObject(self.ids[i], self.names[i], self.sizes[i])

    def __iter__(self):
        return map(DataObject, self.ids, self.names, self.sizes)

    def __eq__(self, other) -> bool:
        if isinstance(other, ObjectTable):
            return (self.ids == other.ids and self.sizes == other.sizes
                    and self.names == other.names)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def _row_finder(ids: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The rule that maps object ids to the rows of a table whose id column
    is `ids`: the id itself when the ids are 0 ... K-1, as every generator
    makes them, else found by binary search.  An id not in a non-empty
    table maps to a row that, clipped to 0 ... K-1, holds another id."""
    import numpy as np

    top = len(ids) - 1
    if np.array_equal(ids, np.arange(len(ids))):
        return lambda oids: oids
    by_id = np.argsort(ids)
    ordered = ids[by_id]
    return lambda oids: by_id[np.minimum(np.searchsorted(ordered, oids), top)]


class Trace:
    """An object table plus an ordered, immutable sequence of accesses.

    Accesses are stored as two read-only int64 columns, `oids` and
    `offsets`: the two fields of a .dmt access line.
    """

    __slots__ = ("objects", "oids", "offsets")

    def __init__(
        self,
        objects: Sequence[DataObject],
        accesses: Iterable[tuple[int, int]],
        validate: bool = True,
    ):
        pairs = accesses if isinstance(accesses, (list, tuple)) else list(accesses)
        try:
            oids = array("q", [oid for oid, _ in pairs])
            offsets = array("q", [off for _, off in pairs])
        except OverflowError:
            raise ValidationError("object ids and offsets must fit in 64 bits") from None
        self._init(objects, oids, offsets, validate)

    @classmethod
    def from_columns(
        cls,
        objects: Sequence[DataObject],
        oids,
        offsets,
        validate: bool = True,
    ) -> Trace:
        """A trace over two equal-length int64 access columns, each an
        ``array('q')`` or a memoryview of format ``'q'`` (of a numpy
        buffer: ``memoryview(a).cast('B').cast('q')``).  It takes them
        over, and `objects` too if it is an ObjectTable: the caller must
        not modify them afterwards."""
        trace = cls.__new__(cls)
        trace._init(objects, oids, offsets, validate)
        return trace

    def _init(self, objects, oids, offsets, validate: bool) -> None:
        self.objects = ObjectTable.of(objects)
        self.oids = memoryview(oids).toreadonly()
        self.offsets = memoryview(offsets).toreadonly()
        if validate:
            self._validate()

    def _validate(self):
        """Raise for the first access to an unknown object id or to an
        offset outside its object."""
        import numpy as np

        table = self.objects
        ids = np.frombuffer(table.ids, dtype=np.int64)
        # an offset is int64, so a size beyond 2**63 bounds nothing more
        last = table.size_column() - 1
        if last.dtype == object:
            last = np.minimum(last, 2**63 - 1).astype(np.int64)
        oids = np.frombuffer(self.oids, dtype=np.int64)
        offsets = np.frombuffer(self.offsets, dtype=np.int64)
        if len(oids) and not len(ids):
            self._reject(0)
        row_of = _row_finder(ids)
        # a slice at a time, so that the temporaries stay small
        for start in range(0, len(oids), VALIDATE_ACCESSES):
            oid = oids[start:start + VALIDATE_ACCESSES]
            off = offsets[start:start + VALIDATE_ACCESSES]
            slot = row_of(oid)
            bad = ((off < 0) | (ids.take(slot, mode="clip") != oid)
                   | (off > last.take(slot, mode="clip")))
            if bad.any():
                self._reject(start + int(np.argmax(bad)))

    def _reject(self, i: int):
        """Raise for access `i`, which is invalid."""
        oid, off = self.oids[i], self.offsets[i]
        table = self.objects
        if oid not in table.ids:
            raise ValidationError(f"access {i}: unknown object id {oid}")
        size = table.sizes[table.ids.index(oid)]
        raise ValidationError(
            f"access {i}: offset {off} out of range for object {oid} (size {size})"
        )

    @property
    def accesses(self) -> tuple[tuple[int, int], ...]:
        """The accesses as ``(object_id, offset)`` pairs, built on each call."""
        return tuple(zip(self.oids, self.offsets))

    def _rows(self) -> np.ndarray:
        """The row of the object table that holds each access's object."""
        import numpy as np

        ids = np.frombuffer(self.objects.ids, dtype=np.int64)
        return _row_finder(ids)(np.frombuffer(self.oids, dtype=np.int64))

    def _touched(self) -> list[bool]:
        """Whether each object of the table appears in an access."""
        import numpy as np

        hit = np.zeros(len(self.objects), dtype=bool)
        hit[self._rows()] = True
        return hit.tolist()

    def touched_objects(self) -> list[DataObject]:
        """Objects that appear in at least one access, in declaration order."""
        return list(compress(self.objects, self._touched()))

    def __len__(self) -> int:
        return len(self.oids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.objects == other.objects and self.oids == other.oids
                and self.offsets == other.offsets)

    def __repr__(self) -> str:
        return f"Trace({len(self.objects)} objects, {len(self)} accesses)"


@dataclass(frozen=True)
class LayoutTable:
    """Base addresses of objects, in element units: `starts[i]` is the
    base of the object whose id is `ids[i]`.

    Block ids are ``address // block_size``.  Address ranges of distinct
    objects never overlap and every base is a multiple of `block_size`,
    so two objects never share a cache block.
    """

    ids: array
    starts: array
    block_size: int


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of one analysis run.

    granularity_bits: element width s; the final DMD is scaled by sqrt(s).
    block_size: cache block size b; distances are counted in blocks of b
        elements under build_layout (b = 1: in elements).
    cold_policy: how first-touch (cold) accesses are costed.
    """

    granularity_bits: int = 1
    block_size: int = 1
    cold_policy: str = "exclude"

    def __post_init__(self):
        if self.granularity_bits < 1:
            raise ValidationError("granularity_bits must be >= 1")
        if self.block_size < 1:
            raise ValidationError("block_size must be >= 1")
        if self.cold_policy not in COLD_POLICIES:
            raise ValidationError(
                f"unknown cold policy {self.cold_policy!r}; expected one of {COLD_POLICIES}"
            )


@dataclass(frozen=True)
class DmdReport:
    """Result of one analysis.

    reuse_dmd: sum of sqrt(stack distance) over all non-cold accesses.
    cold_dmd: cold-miss cost under the configured policy.
    histogram: stack distance -> occurrence count, cold accesses excluded.
    """

    reuse_dmd: float
    cold_dmd: float
    n_accesses: int
    n_cold: int
    histogram: Mapping[int, int] = field(default_factory=dict)

    def check(self, rel_tol: float = 1e-9) -> None:
        """Raise if the report is self-inconsistent."""
        if self.n_accesses != self.n_cold + sum(self.histogram.values()):
            raise ValidationError("n_accesses must equal n_cold + histogram total")
        expected = math.fsum(c * math.sqrt(d) for d, c in self.histogram.items())
        if not math.isclose(self.reuse_dmd, expected, rel_tol=rel_tol, abs_tol=1e-12):
            raise ValidationError("reuse_dmd disagrees with histogram")

    def to_json_dict(self) -> dict:
        return {
            "reuse_dmd": self.reuse_dmd,
            "cold_dmd": self.cold_dmd,
            "n_accesses": self.n_accesses,
            "n_cold": self.n_cold,
            # every cold access is the first touch of one distinct datum
            "n_distinct": self.n_cold,
            "histogram": {str(d): c for d, c in sorted(self.histogram.items())},
        }


def build_layout(objects: Sequence[DataObject], block_size: int) -> LayoutTable:
    """Place objects contiguously in declaration order.

    Each base is rounded up to the next multiple of `block_size`, so
    distinct objects never share a block.  Raises if the layout spans
    2**63 elements or more.
    """
    import numpy as np

    if block_size < 1:
        raise ValidationError("block_size must be >= 1")
    table = ObjectTable.of(objects)
    sizes = table.size_column()
    # every sum below fits in int64 unless the sizes or the block are huge
    if (len(sizes) + 1) * (int(sizes.max(initial=0)) + block_size) >= 2**63:
        sizes = sizes.astype(object)
    # a base is a multiple of the block, so the next one is that base plus
    # the object's size rounded up to whole blocks
    aligned = -(-sizes // block_size) * block_size
    starts = np.cumsum(aligned) - aligned
    end = starts[-1] + sizes[-1] if len(sizes) else 0
    if end >= 2**63:
        raise ValidationError(f"layout spans {end} elements, beyond 64-bit addresses")
    return LayoutTable(table.ids, array("q", starts.astype(np.int64).tobytes()), block_size)


def scale_granularity(report: DmdReport, bits: int) -> DmdReport:
    """Scale a report to `bits`-wide elements: both DMD sums gain sqrt(bits).

    Counts and the histogram are unchanged; distances stay in element
    units.
    """
    if bits < 1:
        raise ValidationError("granularity bits must be >= 1")
    factor = math.sqrt(bits)
    return replace(report, reuse_dmd=report.reuse_dmd * factor, cold_dmd=report.cold_dmd * factor)


# --- .dmt trace text format -------------------------------------------------
#
#   %object <id> <size> <name>
#   <id> <offset>
#   # comment
#
# Header lines declare objects, one access per line after that, ASCII
# decimal, newline separated.  This is the interchange surface for
# externally produced traces.


# bytes read per chunk of whole lines: at 32 KiB of the lines `write_dmt`
# writes, a chunk's int64 index arrays stay below glibc's 128 KiB mmap
# threshold and reuse heap pages
DMT_CHUNK_BYTES = 1 << 15
# accesses formatted per write.  A chunk of N holds a column's magnitudes
# (8 bytes per access), per digit position a digit row and a mask row of N
# bytes each, then a byte matrix and a keep mask of N x W bytes each, W <= 42
# the widest line: about 0.4 MiB for conv n=256's lines at 2^13.  Writing
# that trace was as fast at 2^13 as at 2^14, and left 1.3 MB less resident.
DMT_WRITE_ACCESSES = 1 << 13
# digits a canonical field may have: every such value fits in int64
DMT_MAX_DIGITS = 18


def write_dmt(trace: Trace, path) -> None:
    """Write `trace` as .dmt text: a header per object, then one canonical
    access line ``%d %d`` per access, spelled by numpy digit arithmetic
    DMT_WRITE_ACCESSES accesses at a time."""
    import numpy as np

    oids = np.frombuffer(trace.oids, dtype=np.int64)
    offsets = np.frombuffer(trace.offsets, dtype=np.int64)
    with open(path, "wb") as fh:
        table = trace.objects
        fh.write("".join(f"%object {oid} {size} {name}\n" for oid, size, name
                         in zip(table.ids, table.sizes, table.names)).encode("ascii"))
        step = DMT_WRITE_ACCESSES
        for start in range(0, len(oids), step):
            oid_rows, oid_keep = _decimal(oids[start:start + step])
            off_rows, off_keep = _decimal(offsets[start:start + step])
            rows = [*oid_rows, ord(" "), *off_rows, ord("\n")]
            keep = [*oid_keep, True, *off_keep, True]
            # one line per matrix row, each byte position a column
            lines = np.empty((len(oid_keep[0]), len(rows)), dtype=np.uint8)
            kept = np.empty(lines.shape, dtype=bool)
            for j, (row, flag) in enumerate(zip(rows, keep)):
                lines[:, j] = row
                kept[:, j] = flag
            fh.write(np.compress(kept.ravel(), lines.ravel()).tobytes())


def _decimal(values: np.ndarray) -> tuple[list, list]:
    """The ASCII bytes of int64 `values` in decimal as rows, one per byte
    position: '-', then the digits from the most significant.  Each row
    comes with the mask of the values whose text has that byte; a scalar
    row or mask holds for every value."""
    import numpy as np

    negative = values < 0
    # the magnitude as uint64, so that -2**63 has one too
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, -magnitude, magnitude)
    top = int(magnitude.max(initial=0))
    if top < 2**32:
        magnitude = magnitude.astype(np.uint32)
    rows, keep = [], []
    for position in range(len(str(top))):
        quotient = magnitude // 10
        rows.append((magnitude - quotient * 10).astype(np.uint8) + ord("0"))
        # the units digit always, a higher one while digits remain
        keep.append(magnitude != 0 if position else True)
        magnitude = quotient
    return [ord("-"), *rows[::-1]], [negative, *keep[::-1]]


def read_dmt(path) -> Trace:
    """Parse a .dmt file into a trace, streaming accesses into its columns.

    The file is read about DMT_CHUNK_BYTES of whole lines at a time, and
    each chunk is split after its leading header, comment and blank lines.
    Those are parsed in bulk by `_read_headers` when every one is a
    header as `write_dmt` writes it; the lines after them, when every one
    is a canonical access (`_canonical`), by numpy in one call.  Any other
    part of a chunk goes through `_parse_line`, the definition of the
    format, a line at a time.  Every malformed line raises
    TraceFormatError with its line number, and so does the access that
    would take the columns beyond `physical_memory()`; an access to an
    undeclared object or element is reported by its access index.

    The access columns are int64 numpy buffers, sized from the file size
    (a pipe's grows by doubling), that the trace takes over.
    """
    import numpy as np

    table: tuple[list, list, list] = ([], [], [])  # object ids, names, sizes
    memory = physical_memory()
    limit = memory // ACCESS_BYTES
    count = lineno = 0
    # text mode ends a line at \r\n and a lone \r too; undecodable bytes
    # become lone surrogates, which no integer parse accepts
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        # no access line is shorter than "0 0\n"; a pipe's size reads 0
        capacity = min(os.fstat(fh.fileno()).st_size // 4 + 1, limit)
        oids, offsets = np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.int64)
        while raw := fh.read(DMT_CHUNK_BYTES):
            raw += fh.readline()
            text = raw.encode("ascii", errors="surrogateescape")
            # one character per byte, so both split at the same index
            split = _LEADING.match(text).end()
            if split and not _read_headers(raw[:split], table):
                _parse_lines(raw[:split], lineno, table)
            lineno += text.count(b"\n", 0, split)
            rest = text[split:]
            if not rest:
                continue
            if _canonical(rest):
                values = np.fromstring(rest, dtype=np.int64, sep=" ")
                lines = range(lineno + 1, lineno + 1 + len(values) // 2)
            else:
                values, lines = _parse_lines(raw[split:], lineno, table)
                values = np.frombuffer(values, dtype=np.int64)
            end = count + len(lines)
            if end > limit:
                raise TraceFormatError(
                    f"the trace has more than {limit} accesses, {ACCESS_BYTES} bytes each, "
                    f"more than this machine's {memory} bytes", lines[limit - count])
            if end > capacity:
                capacity = min(max(2 * capacity, end), limit)
                oids, offsets = (np.concatenate((column[:count], np.empty(
                    capacity - count, dtype=np.int64))) for column in (oids, offsets))
            oids[count:end] = values[0::2]
            offsets[count:end] = values[1::2]
            count = end
            lineno += rest.count(b"\n")
    # give back the tail that the file's size reserved and no access filled;
    # no view of either buffer exists yet, so the check for one can go
    oids.resize(count, refcheck=False)
    offsets.resize(count, refcheck=False)
    try:
        return Trace.from_columns(ObjectTable(*table),
                                  *(memoryview(column).cast("B").cast("q")
                                    for column in (oids, offsets)))
    except ValidationError as exc:
        raise TraceFormatError(str(exc))


# a chunk's leading lines that no access can be: headers (and other lines
# that open with '%'), comments and empty lines
_LEADING = re.compile(rb"(?:(?:[%#][^\n]*)?\n)*")
# a header as `write_dmt` writes it, if ObjectTable accepts its name
_HEADER = re.compile(rf"^%object (-?[0-9]{{1,{DMT_MAX_DIGITS}}}) ([0-9]{{1,{DMT_MAX_DIGITS}}}) (.*)\n",
                     re.MULTILINE)


def _read_headers(text: str, table: tuple[list, list, list]) -> bool:
    """Append the objects that `text`, whole lines, declares to `table`'s
    id, name and size columns if every line is a header as `write_dmt`
    writes it and ObjectTable accepts them as a table; else append none,
    and return False."""
    headers = _HEADER.findall(text)
    if len(headers) != text.count("\n"):
        return False
    ids, sizes, names = zip(*headers)
    new = list(map(int, ids)), names, list(map(int, sizes))
    try:
        ObjectTable(*new)
    except ValidationError:
        return False
    for column, values in zip(table, new):
        column += values
    return True


def _parse_lines(text: str, lineno: int,
                 table: tuple[list, list, list]) -> tuple[array, list[int]]:
    """The accesses of `text`, whole lines from line `lineno` + 1 on, each
    parsed by `_parse_line`, and the line of each; the objects its
    headers declare are appended to `table`'s id, name and size columns."""
    objects: list[DataObject] = []
    values, lines = array("q"), []
    for i, line in enumerate(text.split("\n"), start=lineno + 1):
        access = _parse_line(line, i, objects)
        if access is not None:
            values.extend(access)
            lines.append(i)
    for obj in objects:
        for column, value in zip(table, (obj.id, obj.name, obj.size)):
            column.append(value)
    return values, lines


def _canonical(text: bytes) -> bool:
    """Whether `text` is whole lines, each a canonical access
    ``[-]digits SP [-]digits`` of at most DMT_MAX_DIGITS digits a field:
    the lines that numpy's integer parser reads as `_parse_line` does."""
    import numpy as np

    if not text.endswith(b"\n") or text.translate(None, b"0123456789 -\n"):
        return False
    buf = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    # each line is one field, a space, one field and a newline
    if (buf[ends[0::2]] != ord(" ")).any() or (buf[ends[1::2]] != ord("\n")).any():
        return False
    starts = np.concatenate(([0], ends[:-1] + 1))
    negative = buf[starts] == ord("-")
    digits = ends - starts - negative
    # and a '-' only opens a field
    return bool(digits.min() >= 1 and digits.max() <= DMT_MAX_DIGITS
                and np.count_nonzero(negative) == text.count(b"-"))


# every ASCII control character but tab and the newline that ends a line
_CONTROL = re.compile("[\x00-\x08\x0b-\x1f\x7f]")


def _parse_line(raw: str, lineno: int, objects: list[DataObject]) -> array | None:
    """One .dmt line: an access ``(object id, offset)``, or None for a
    comment, a blank line or a header, whose object joins `objects`."""
    # fields are separated by spaces and tabs only: str.split() would also
    # split at the control characters that Python counts as whitespace
    control = _CONTROL.search(raw)
    if control:
        raise TraceFormatError(f"control character {control.group()!r}; "
                               "only spaces and tabs separate fields", lineno)
    parts = raw.split()
    if not parts or parts[0][0] == "#":
        return None
    if parts[0] == "%object":
        parts = raw.strip().split(maxsplit=3)
        if len(parts) != 4:
            raise TraceFormatError("expected '%object <id> <size> <name>'", lineno)
        if not parts[3].isascii():
            raise TraceFormatError("object name must be ASCII", lineno)
        try:
            oid, size = int(parts[1]), int(parts[2])
        except ValueError:
            raise TraceFormatError("object id and size must be integers", lineno)
        try:
            objects.append(DataObject(id=oid, name=parts[3], size=size))
        except ValidationError as exc:
            raise TraceFormatError(str(exc), lineno)
        return None
    if len(parts) != 2:
        raise TraceFormatError("expected '<object id> <offset>'", lineno)
    access = array("q")
    try:
        access.append(int(parts[0]))
        access.append(int(parts[1]))
    except ValueError:
        raise TraceFormatError("object id and offset must be integers", lineno)
    except OverflowError:
        raise TraceFormatError("object id and offset must fit in 64 bits", lineno)
    return access
