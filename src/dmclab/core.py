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


# accesses formatted per write, and bytes read per chunk of whole lines; at
# 32 KiB of the lines `write_dmt` writes, a chunk's int64 index arrays stay
# below glibc's 128 KiB mmap threshold and reuse heap pages
DMT_WRITE_ACCESSES = 1 << 14
DMT_CHUNK_BYTES = 1 << 15
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

    The file is read about DMT_CHUNK_BYTES of whole lines at a time.  A
    chunk whose every line is a canonical access (`_canonical`), as
    `write_dmt` writes them, is parsed by numpy in one call; any other
    chunk goes through `_parse_line`, the definition of the format, a
    line at a time.  Every malformed line raises TraceFormatError with its
    line number, and so does the access that would take the columns
    beyond `physical_memory()`; an access to an undeclared object or
    element is reported by its access index.
    """
    import numpy as np

    objects: list[DataObject] = []
    oids, offsets = array("q"), array("q")
    memory = physical_memory()
    limit = memory // ACCESS_BYTES
    lineno = 0
    # text mode ends a line at \r\n and a lone \r too; undecodable bytes
    # become lone surrogates, which no integer parse accepts
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        while raw := fh.read(DMT_CHUNK_BYTES):
            raw += fh.readline()
            text = raw.encode("ascii", errors="surrogateescape")
            if _canonical(text):
                values = np.fromstring(text, dtype=np.int64, sep=" ")
                lines = range(lineno + 1, lineno + 1 + len(values) // 2)
            else:
                values, lines = array("q"), []
                for i, line in enumerate(raw.split("\n"), start=lineno + 1):
                    access = _parse_line(line, i, objects)
                    if access is not None:
                        values.extend(access)
                        lines.append(i)
                values = np.frombuffer(values, dtype=np.int64)
            if len(oids) + len(lines) > limit:
                raise TraceFormatError(
                    f"the trace has more than {limit} accesses, {ACCESS_BYTES} bytes each, "
                    f"more than this machine's {memory} bytes", lines[limit - len(oids)])
            oids.frombytes(values[0::2].tobytes())
            offsets.frombytes(values[1::2].tobytes())
            lineno += text.count(b"\n")
    try:
        return Trace.from_columns(objects, oids, offsets)
    except ValidationError as exc:
        raise TraceFormatError(str(exc))


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


def _parse_line(raw: str, lineno: int, objects: list[DataObject]) -> array | None:
    """One .dmt line: an access ``(object id, offset)``, or None for a
    comment, a blank line or a header, whose object joins `objects`."""
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
