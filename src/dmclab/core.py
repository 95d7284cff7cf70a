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
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence


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


@dataclass(frozen=True)
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
# accesses `Trace._validate` checks per numpy pass
VALIDATE_ACCESSES = 1 << 16


def physical_memory() -> int:
    """Bytes of physical memory on this machine: no trace may need more."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class Trace:
    """An object table plus an ordered, immutable sequence of accesses.

    Accesses are stored as two read-only int64 columns, `oids` and
    `offsets`: the two fields of a .dmt access line.
    """

    __slots__ = ("objects", "oids", "offsets", "_by_id")

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
        oids: array,
        offsets: array,
        validate: bool = True,
    ) -> Trace:
        """A trace over two equal-length ``array('q')`` columns, which it
        takes over: the caller must not modify them afterwards."""
        trace = cls.__new__(cls)
        trace._init(objects, oids, offsets, validate)
        return trace

    def _init(self, objects, oids: array, offsets: array, validate: bool) -> None:
        by_id: dict[int, DataObject] = {}
        for obj in objects:
            if obj.id in by_id:
                raise ValidationError(f"duplicate object id {obj.id}")
            by_id[obj.id] = obj
        self.objects: tuple[DataObject, ...] = tuple(objects)
        self.oids = memoryview(oids).toreadonly()
        self.offsets = memoryview(offsets).toreadonly()
        self._by_id = by_id
        if validate:
            self._validate()

    def _validate(self):
        """Raise for the first access to an unknown object id or to an
        offset outside its object."""
        import numpy as np

        ids = np.array(sorted(self._by_id), dtype=np.int64)
        # an offset is int64, so a size beyond 2**63 bounds nothing more
        last = np.array([min(self._by_id[oid].size, 2**63) - 1 for oid in ids.tolist()],
                        dtype=np.int64)
        oids = np.frombuffer(self.oids, dtype=np.int64)
        offsets = np.frombuffer(self.offsets, dtype=np.int64)
        if len(oids) and not len(ids):
            self._reject(0)
        # a slice at a time, so that the temporaries stay small
        for start in range(0, len(oids), VALIDATE_ACCESSES):
            oid = oids[start:start + VALIDATE_ACCESSES]
            off = offsets[start:start + VALIDATE_ACCESSES]
            slot = np.minimum(np.searchsorted(ids, oid), len(ids) - 1)
            bad = (off < 0) | (ids[slot] != oid) | (off > last[slot])
            if bad.any():
                self._reject(start + int(np.argmax(bad)))

    def _reject(self, i: int):
        """Raise for access `i`, which is invalid."""
        oid, off = self.oids[i], self.offsets[i]
        obj = self._by_id.get(oid)
        if obj is None:
            raise ValidationError(f"access {i}: unknown object id {oid}")
        raise ValidationError(
            f"access {i}: offset {off} out of range for object {oid} (size {obj.size})"
        )

    @property
    def accesses(self) -> tuple[tuple[int, int], ...]:
        """The accesses as ``(object_id, offset)`` pairs, built on each call."""
        return tuple(zip(self.oids, self.offsets))

    def touched_objects(self) -> list[DataObject]:
        """Objects that appear in at least one access, in id order."""
        seen = set(self.oids)
        return [obj for obj in self.objects if obj.id in seen]

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
    """Object id -> base address assignment, in element units.

    Block ids are ``address // block_size``.  Address ranges of distinct
    objects never overlap and every base is a multiple of `block_size`,
    so two objects never share a cache block.
    """

    bases: Mapping[int, int]
    block_size: int


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of one analysis run.

    granularity_bits: element width s; the final DMD is scaled by sqrt(s).
    block_size: cache block size b; b > 1 triggers the block transform.
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
    distinct objects never share a block.
    """
    if block_size < 1:
        raise ValidationError("block_size must be >= 1")
    bases: dict[int, int] = {}
    cursor = 0
    for obj in objects:
        base = -(-cursor // block_size) * block_size
        bases[obj.id] = base
        cursor = base + obj.size
    return LayoutTable(bases=bases, block_size=block_size)


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


# accesses formatted per write, and bytes read per chunk of whole lines
DMT_WRITE_ACCESSES = 1 << 14
DMT_CHUNK_BYTES = 1 << 16
# digits a canonical field may have: every such value fits in int64
DMT_MAX_DIGITS = 18


def write_dmt(trace: Trace, path) -> None:
    with open(path, "wb") as fh:
        for obj in trace.objects:
            fh.write(f"%object {obj.id} {obj.size} {obj.name}\n".encode("ascii"))
        step = DMT_WRITE_ACCESSES
        for start in range(0, len(trace), step):
            oids = trace.oids[start:start + step]
            pairs = [0] * (2 * len(oids))
            pairs[0::2] = oids
            pairs[1::2] = trace.offsets[start:start + step]
            fh.write(b"%d %d\n" * len(oids) % tuple(pairs))


def read_dmt(path) -> Trace:
    """Parse a .dmt file into a trace, streaming accesses into its columns.

    Canonical access lines, ``[-]digits SP [-]digits``, as `write_dmt`
    writes them, are parsed a chunk at a time by numpy; every other line
    goes through `_parse_line`, in file order.  Every malformed line
    raises TraceFormatError with its line number, and so does the access
    that would take the columns beyond `physical_memory()`; an access to
    an undeclared object or element is reported by its access index.
    """
    objects: list[DataObject] = []
    oids, offsets = array("q"), array("q")
    memory = physical_memory()
    limit = memory // ACCESS_BYTES
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            ids, offs, lines = _parse_chunk(chunk, lineno, objects)
            if len(oids) + len(ids) > limit:
                line = lineno + 1 + int(lines.nonzero()[0][limit - len(oids)])
                raise TraceFormatError(
                    f"the trace has more than {limit} accesses, {ACCESS_BYTES} bytes each, "
                    f"more than this machine's {memory} bytes", line)
            oids.frombytes(ids.tobytes())
            offsets.frombytes(offs.tobytes())
            lineno += chunk.count(b"\n")
    try:
        return Trace.from_columns(objects, oids, offsets)
    except ValidationError as exc:
        raise TraceFormatError(str(exc))


def _line_chunks(fh):
    """The file's whole lines, about DMT_CHUNK_BYTES at a time, each chunk
    ending in b"\n", with line ends translated as text mode reads them:
    \r\n and a lone \r are b"\n"."""
    pieces: list[bytes] = []
    while block := fh.read(DMT_CHUNK_BYTES):
        # a \r that ends the block may be the first half of \r\n
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            yield _newlines(b"".join([*pieces, block[:cut]]))
            pieces = []
        pieces.append(block[cut:])
    if tail := b"".join(pieces):
        yield _newlines(tail) + b"\n"


def _newlines(text: bytes) -> bytes:
    return text.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in text else text


def _parse_chunk(chunk: bytes, lineno: int, objects: list[DataObject]):
    """The object ids and offsets of the accesses in `chunk`, whole lines
    that follow line `lineno` of the file, and a mask of its access lines."""
    import numpy as np

    buf = np.frombuffer(chunk, dtype=np.uint8)
    delims = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    # is_newline[j + 2] tells delimiter j; two virtual newlines precede the chunk
    is_newline = np.concatenate(([True, True], buf[delims] == ord("\n")))
    k = np.flatnonzero(is_newline[2:])
    end = delims[k]
    start = np.concatenate(([0], end[:-1] + 1))
    space = delims[k - 1]
    # exactly one space: the delimiter before the newline is a space, and
    # the one before that ends the previous line
    canonical = ~is_newline[k + 1] & is_newline[k]
    neg1 = buf[start] == ord("-")
    neg2 = buf[np.minimum(space + 1, end)] == ord("-")
    len1 = space - start - neg1
    len2 = end - space - 1 - neg2
    canonical &= (len1 >= 1) & (len1 <= DMT_MAX_DIGITS) & (len2 >= 1) & (len2 <= DMT_MAX_DIGITS)
    if chunk.translate(None, b"0123456789 \n"):
        # a line holding any other byte is canonical only for a leading '-'
        allowed = np.zeros(256, dtype=bool)
        allowed[list(b"0123456789 \n")] = True
        other = np.flatnonzero(~allowed[buf])
        line = np.searchsorted(end, other)
        sign = (buf[other] == ord("-")) & ((other == start[line]) | (other == space[line] + 1))
        canonical[line[~sign]] = False
    ids = _field_values(buf, space, np.where(canonical, len1, 0), neg1)
    offs = _field_values(buf, end, np.where(canonical, len2, 0), neg2)
    keep = canonical
    rest = np.flatnonzero(~canonical)
    for i, a, b in zip(rest.tolist(), start[rest].tolist(), end[rest].tolist()):
        # undecodable bytes become lone surrogates, which no integer parse accepts
        raw = chunk[a:b + 1].decode("ascii", errors="surrogateescape")
        access = _parse_line(raw, lineno + i + 1, objects)
        if access is not None:
            ids[i], offs[i] = access
            keep[i] = True
    if keep.all():
        return ids, offs, keep
    return ids[keep], offs[keep], keep


def _field_values(buf, end, length, negative):
    """Signed decimal values of the fields of `length` digits that end just
    before each position `end` of `buf`; a length of 0 gives 0."""
    import numpy as np

    values = np.zeros(len(end), dtype=np.int64)
    scale = 1
    for t in range(int(length.max(initial=0))):
        digit = buf[np.maximum(end - 1 - t, 0)].astype(np.int64) - ord("0")
        digit[length <= t] = 0
        values += digit * scale
        scale *= 10
    return np.where(negative, -values, values)


def _parse_line(raw: str, lineno: int, objects: list[DataObject]) -> array | None:
    """One .dmt line: an access ``(object id, offset)``, or None for a
    comment, a blank line or a header, whose object joins `objects`."""
    parts = raw.split()
    if not parts or parts[0][0] == "#":
        return None
    if parts[0].startswith("%object"):
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
