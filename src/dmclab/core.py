"""Shared domain types: traces, layouts, analysis configuration, reports.

A trace is an ordered sequence of accesses to elements of declared data
objects.  All sizes and addresses are in abstract element units; data
granularity in bits is applied only afterwards, as a uniform sqrt(s)
scaling of a finished report (`scale_granularity`), never baked into the
trace itself.

All types are immutable after construction and safe to share across
concurrent analyses.  Every integer column (object ids and sizes, access
ids and offsets, layout starts) is a read-only int64 numpy array, so an
id, a size or an offset is a 64-bit value.
"""

from __future__ import annotations

import math
import os
import re
import sys
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
        if self.size >= 2**63:
            raise ValidationError(f"object {self.name!r}: size {self.size} does not fit in 64 bits")
        # exactly the names a .dmt header carries back unchanged
        if not (self.name.isascii() and self.name.isprintable()
                and self.name == self.name.strip() and self.name):
            raise ValidationError(
                f"object name {self.name!r} must be printable ASCII, non-empty, "
                "without surrounding whitespace"
            )


# bytes a trace holds per access: one int64 in each of its two columns
ACCESS_BYTES = 2 * 8
# peak bytes per access of generating and analysing a trace: 24-29 measured, with room
ANALYSIS_BYTES = 40
# accesses `Trace._validate` takes per numpy pass
VALIDATE_ACCESSES = 1 << 16
# printable ASCII but the space: the bytes of a name that is valid whatever
# its position
_NAME_BYTES = bytes(range(0x21, 0x7F))


def physical_memory() -> int:
    """Bytes of physical memory on this machine: no trace may need more."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _column(values) -> np.ndarray:
    """`values` as a read-only int64 array.  An int64 numpy array is taken
    over, not copied; any other sequence is read as ``array('q')`` reads
    it, so a value that is not an integer raises TypeError and one beyond
    64 bits OverflowError."""
    import numpy as np

    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        values = np.frombuffer(array("q", values), dtype=np.int64)
    column = values.view()
    column.flags.writeable = False
    return column


class ObjectTable(Sequence):
    """The objects of a trace as columns: `ids` and `sizes` as read-only
    int64 arrays (`_column`) and `names` as a list, in declaration order.

    It reads as a sequence of DataObjects, each built on access.  It is
    validated as a whole: a table that breaks DataObject's rules or
    repeats an id raises what building its DataObjects in order, then a
    Trace of them, raises.
    """

    __slots__ = ("ids", "names", "sizes")

    def __init__(self, ids: Sequence[int], names: Sequence[str], sizes: Sequence[int]):
        import numpy as np

        if not len(ids) == len(names) == len(sizes):
            raise ValidationError("object ids, names and sizes differ in length")
        self.names = list(names)
        try:
            self.ids, self.sizes = _column(ids), _column(sizes)
        except OverflowError:
            pass  # the DataObject that holds the value raises below
        else:
            text = "\n".join(self.names)
            # a quick check that passes sizes >= 1 and names of printable
            # ASCII without spaces: once those bytes go, only the separators stay
            if (self.sizes.min(initial=1) >= 1 and all(self.names) and text.isascii()
                    and text.encode("ascii").translate(None, _NAME_BYTES) == b"\n" * (len(self) - 1)):
                ordered = np.sort(self.ids)
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

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> DataObject:
        return DataObject(self.ids.item(i), self.names[i], self.sizes.item(i))

    def __iter__(self):
        return map(DataObject, self.ids.tolist(), self.names, self.sizes.tolist())

    def __eq__(self, other) -> bool:
        import numpy as np

        if isinstance(other, ObjectTable):
            return (np.array_equal(self.ids, other.ids) and np.array_equal(self.sizes, other.sizes)
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

    Accesses are stored as two read-only int64 arrays (`_column`), `oids`
    and `offsets`: the two fields of a .dmt access line.
    """

    __slots__ = ("objects", "oids", "offsets")

    def __init__(self, objects: Sequence[DataObject], accesses: Iterable[tuple[int, int]]):
        pairs = accesses if isinstance(accesses, (list, tuple)) else list(accesses)
        self._init(objects, [oid for oid, _ in pairs], [off for _, off in pairs], True)

    @classmethod
    def from_columns(
        cls,
        objects: Sequence[DataObject],
        oids,
        offsets,
        validate: bool = True,
    ) -> Trace:
        """A trace over two equal-length access columns, each an int64
        numpy array, which the trace takes over, or a sequence of ints,
        which it copies.  It takes `objects` over too if it is an
        ObjectTable: the caller must not modify them afterwards."""
        trace = cls.__new__(cls)
        trace._init(objects, oids, offsets, validate)
        return trace

    def _init(self, objects, oids, offsets, validate: bool) -> None:
        try:
            self.oids, self.offsets = _column(oids), _column(offsets)
        except OverflowError:
            raise ValidationError("object ids and offsets must fit in 64 bits") from None
        if len(self.oids) != len(self.offsets):
            raise ValidationError(f"access columns differ in length: {len(self.oids)} object ids, "
                                  f"{len(self.offsets)} offsets")
        self.objects = ObjectTable.of(objects)
        if validate:
            self._validate()

    def _validate(self):
        """Raise for the first access to an unknown object id or to an
        offset outside its object."""
        import numpy as np

        ids, last = self.objects.ids, self.objects.sizes - 1
        if len(self) and not len(ids):
            self._reject(0)
        row_of = _row_finder(ids)
        # a slice at a time, so that the temporaries stay small
        for start in range(0, len(self), VALIDATE_ACCESSES):
            oid = self.oids[start:start + VALIDATE_ACCESSES]
            off = self.offsets[start:start + VALIDATE_ACCESSES]
            slot = row_of(oid)
            bad = ((off < 0) | (ids.take(slot, mode="clip") != oid)
                   | (off > last.take(slot, mode="clip")))
            if bad.any():
                self._reject(start + int(np.argmax(bad)))

    def _reject(self, i: int):
        """Raise for access `i`, which is invalid."""
        oid, off = self.oids.item(i), self.offsets.item(i)
        ids = self.objects.ids.tolist()
        if oid not in ids:
            raise ValidationError(f"access {i}: unknown object id {oid}")
        size = self.objects.sizes.item(ids.index(oid))
        raise ValidationError(
            f"access {i}: offset {off} out of range for object {oid} (size {size})"
        )

    @property
    def accesses(self) -> tuple[tuple[int, int], ...]:
        """The accesses as ``(object_id, offset)`` pairs, built on each call."""
        return tuple(zip(self.oids.tolist(), self.offsets.tolist()))

    def _rows(self) -> np.ndarray:
        """The row of the object table that holds each access's object."""
        return _row_finder(self.objects.ids)(self.oids)

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
        import numpy as np

        if not isinstance(other, Trace):
            return NotImplemented
        return (self.objects == other.objects and np.array_equal(self.oids, other.oids)
                and np.array_equal(self.offsets, other.offsets))

    def __repr__(self) -> str:
        return f"Trace({len(self.objects)} objects, {len(self)} accesses)"


@dataclass(frozen=True, eq=False)
class LayoutTable:
    """Base addresses of objects, in element units: `starts[i]` is the
    base of the object whose id is `ids[i]`; both are read-only int64
    arrays.

    Block ids are ``address // block_size``.  Address ranges of distinct
    objects never overlap and every base is a multiple of `block_size`,
    so two objects never share a cache block.
    """

    ids: np.ndarray
    starts: np.ndarray
    block_size: int

    def __eq__(self, other) -> bool:
        import numpy as np

        if not isinstance(other, LayoutTable):
            return NotImplemented
        return (self.block_size == other.block_size and np.array_equal(self.ids, other.ids)
                and np.array_equal(self.starts, other.starts))


def _check_block_size(block_size: int) -> None:
    """Raise unless `block_size` is an element count of 1 ... 2**63 - 1."""
    if block_size < 1:
        raise ValidationError("block_size must be >= 1")
    if block_size >= 2**63:
        raise ValidationError(f"block_size {block_size} does not fit in 64 bits")


def _check_granularity(bits: int) -> None:
    """Raise unless `bits` is an element width of 1 bit up to the float range."""
    if bits < 1:
        raise ValidationError("granularity_bits must be >= 1")
    if bits > sys.float_info.max:
        raise ValidationError(f"granularity_bits must be at most {sys.float_info.max}")


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
        _check_granularity(self.granularity_bits)
        _check_block_size(self.block_size)
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

    def check(self) -> None:
        """Raise if the report is self-inconsistent."""
        if self.n_accesses != self.n_cold + sum(self.histogram.values()):
            raise ValidationError("n_accesses must equal n_cold + histogram total")
        expected = math.fsum(c * math.sqrt(d) for d, c in self.histogram.items())
        if not math.isclose(self.reuse_dmd, expected, rel_tol=1e-9, abs_tol=1e-12):
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

    _check_block_size(block_size)
    table = ObjectTable.of(objects)
    sizes = table.sizes
    # a base is a multiple of the block, so the next one is that base plus
    # the object's size rounded up to whole blocks.  int64 arithmetic wraps
    # around, so the bases are exact whenever the layout ends below 2**63.
    aligned = -(-sizes // block_size) * block_size
    starts = np.cumsum(aligned) - aligned
    if (len(sizes) + 1) * (int(sizes.max(initial=0)) + block_size) < 2**63:
        end = int(starts[-1] + sizes[-1]) if len(sizes) else 0
    else:  # int64 may have wrapped: sum in Python ints
        end = sum(-(-size // block_size) * block_size for size in sizes[:-1].tolist())
        end += int(sizes[-1])
    if end >= 2**63:
        raise ValidationError(f"layout spans {end} elements, beyond 64-bit addresses")
    return LayoutTable(table.ids, _column(starts), block_size)


def scale_granularity(report: DmdReport, bits: int) -> DmdReport:
    """Scale a report to `bits`-wide elements: both DMD sums gain sqrt(bits).

    Counts and the histogram are unchanged; distances stay in element
    units.
    """
    _check_granularity(bits)
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


# bytes read per chunk of whole lines: at 32 KiB, unless most lines are as
# short as "0 0\n", a chunk's padded copy and per-field arrays (8 bytes a
# field) stay below glibc's 128 KiB mmap threshold and reuse heap pages
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

    with open(path, "wb") as fh:
        table = trace.objects
        fh.write("".join(f"%object {oid} {size} {name}\n" for oid, size, name
                         in zip(table.ids.tolist(), table.sizes.tolist(), table.names)
                         ).encode("ascii"))
        step = DMT_WRITE_ACCESSES
        for start in range(0, len(trace), step):
            oid_rows, oid_keep = _decimal(trace.oids[start:start + step])
            off_rows, off_keep = _decimal(trace.offsets[start:start + step])
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
    is a canonical access, by `_access_values`' 8-byte digit arithmetic.
    Any other part of a chunk goes through `_parse_line`, the definition
    of the format, a line at a time.  Every malformed line raises
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
            values = _access_values(rest)
            if values is None:
                values, lines = _parse_lines(raw[split:], lineno, table)
                lineno += rest.count(b"\n")
            else:
                lines = range(lineno + 1, lineno + 1 + len(values) // 2)
                lineno += len(lines)
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
    # give back the tail that the file's size reserved and no access filled;
    # no view of either buffer exists yet, so the check for one can go
    oids.resize(count, refcheck=False)
    offsets.resize(count, refcheck=False)
    try:
        return Trace.from_columns(ObjectTable(*table), oids, offsets)
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
                 table: tuple[list, list, list]) -> tuple[list[int], list[int]]:
    """The accesses of `text`, whole lines from line `lineno` + 1 on, each
    parsed by `_parse_line`, and the line of each; the objects its
    headers declare are appended to `table`'s id, name and size columns."""
    objects: list[DataObject] = []
    values, lines = [], []
    for i, line in enumerate(text.split("\n"), start=lineno + 1):
        access = _parse_line(line, i, objects)
        if access is not None:
            values.extend(access)
            lines.append(i)
    for obj in objects:
        for column, value in zip(table, (obj.id, obj.name, obj.size)):
            column.append(value)
    return values, lines


def _access_values(text: bytes) -> np.ndarray | None:
    """The fields of `text` as int64, two a line, if it is whole lines, each a
    canonical access ``[-]digits SP [-]digits`` of 1 to DMT_MAX_DIGITS digits a
    field, read as `_parse_line` reads them; else None.  Each 8 digits of a field
    come from the 8-byte word that ends with them (SWAR, after Langdale and Lemire)."""
    import numpy as np

    if not text.endswith(b"\n") or text.translate(None, b"0123456789 -\n"):
        return None
    buf = np.frombuffer(text, dtype=np.uint8)
    # of the bytes left, only space and newline sort below '-'
    ends = np.flatnonzero(buf <= ord(" "))
    # each field's width in bytes, then in digits once a sign is taken off
    digits = ends.copy()
    digits[1:] -= ends[:-1] + 1
    minus = text.count(b"-")
    if minus:
        negative = buf.take(ends - digits) == ord("-")
        digits -= negative
    # each line is one field, a space, one field and a newline (the
    # separators, two bytes at a time, spell " \n"), and a '-' only opens a field
    if (len(ends) % 2 or (buf.take(ends).view("<u2") != 0x0A20).any() or digits.min() < 1
            or digits.max() > DMT_MAX_DIGITS or minus and np.count_nonzero(negative) != minus):
        return None
    # word i is the 8 bytes of `text` that end at byte i - 1, little-endian
    words = np.ndarray((len(text) + 1,), dtype="<u8", buffer=bytes(8) + text, strides=(1,))
    # masks[w]: the low nibble, a digit's value, of a word's top min(w, 8) bytes
    masks = np.array([0x0F0F0F0F0F0F0F0F >> shift << shift for shift in range(64, 0, -8)]
                     + [0x0F0F0F0F0F0F0F0F] * (DMT_MAX_DIGITS - 7), dtype=np.uint64)
    values = _eight_digits(words.take(ends), masks.take(digits))
    for skip in range(8, digits.max(), 8):
        wide = np.flatnonzero(digits > skip)
        word = _eight_digits(words.take(ends[wide] - skip), masks.take(digits[wide] - skip))
        values[wide] += word * 10**skip
    if minus:  # two's complement, so the int64 view reads -value
        np.negative(values, out=values, where=negative)
    return values.view(np.int64)


def _eight_digits(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """`words & masks` as the numbers its digit bytes spell, low byte most significant, in place."""
    words &= masks
    for bits, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        # the low half of each lane of 2 * bits bits joins both halves
        words *= 10 ** (bits // 8) << bits | 1
        words >>= bits
        words &= mask
    return words


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
