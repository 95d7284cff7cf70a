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


# bytes a trace holds per access: one int64 in each of its two columns
ACCESS_BYTES = 2 * array("q").itemsize


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
        sizes = {oid: obj.size for oid, obj in self._by_id.items()}
        for i, (oid, off) in enumerate(zip(self.oids, self.offsets)):
            size = sizes.get(oid)
            if size is None:
                raise ValidationError(f"access {i}: unknown object id {oid}")
            if not 0 <= off < size:
                raise ValidationError(
                    f"access {i}: offset {off} out of range for object {oid} (size {size})"
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


def write_dmt(trace: Trace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for obj in trace.objects:
            fh.write(f"%object {obj.id} {obj.size} {obj.name}\n")
        for oid, off in zip(trace.oids, trace.offsets):
            fh.write(f"{oid} {off}\n")


def read_dmt(path) -> Trace:
    """Parse a .dmt file into a trace, streaming accesses into its columns.

    Every malformed line raises TraceFormatError with its line number;
    an access to an undeclared object or element is reported by its
    access index.
    """
    objects: list[DataObject] = []
    oids, offsets = array("q"), array("q")
    add_oid, add_offset = oids.append, offsets.append
    # undecodable bytes become lone surrogates, which no integer parse accepts
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
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
                continue
            if len(parts) != 2:
                raise TraceFormatError("expected '<object id> <offset>'", lineno)
            try:
                add_oid(int(parts[0]))
                add_offset(int(parts[1]))
            except ValueError:
                raise TraceFormatError("object id and offset must be integers", lineno)
            except OverflowError:
                raise TraceFormatError("object id and offset must fit in 64 bits", lineno)
    try:
        return Trace.from_columns(objects, oids, offsets)
    except ValidationError as exc:
        raise TraceFormatError(str(exc))
