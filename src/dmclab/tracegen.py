"""Deterministic memory trace generators for the measured algorithms.

Every generator is a pure function of its parameters and emits the exact
access sequence of the algorithm's straightforward implementation.
Register-resident scalars (running sums, loop temporaries) are not
traced; result writes are.  Object declaration order is inputs first,
temporaries in creation order, outputs last, which fixes the memory
layout (build_layout) under which `analyze --block` measures blocks.

A parameter record is plain data; its rule is its kernel's model's.
Constructing a `GenSpec` evaluates the model, which raises
ValidationError on an invalid set, so every spec that exists is valid
and generators trust their arguments.  The spec keeps that evaluation
as its `result`, so sweeps read the model columns without evaluating
the model again.

Every generator allocates its two columns at the trace's exact length
first (`_allocate`, which refuses a length beyond physical memory), then
writes its accesses through views of them (`_write`): a loop nest fills
a contiguous run, which reshaped to its loops' extents plus an axis of
its body is the nest, each access one index of that axis with its object
ids and offsets numpy expressions in the loop indices.  It hands them
with its objects' name and size lists, object i having id i, to the
trace (`_build`).  The affine kernels are declared as loop nests, such as
`_conv_loops`: objects as (name, size) pairs and a body run in order, of
nests, each loop extents over an inner body, and accesses, each a
function of the enclosing loop indices to an (object id, offset) pair.
Their generator is one interpreter (`_interpret`), which counts a
declaration's accesses by integer arithmetic and writes them, an inner
nest through a slice of its enclosing body's axis (`_emit`).  The FFT
generators write odd children and later transforms as copies of earlier
blocks with object ids raised (`_fft_fill`).  numpy is imported only
inside the functions that build a trace, so the commands that make no
trace never load it.

A kernel whose trace repeats may declare a prefix (`Kernel.prefix`): a
smaller parameter record whose trace is the full trace's first
iterations of its outer loop, up to a renaming of keys.  matmul repeats
by row, conv by output row and batchconv by batch.  `prefix_rule` reads
its period, one outer-loop iteration, off the prefix's declaration, so a
measurement at b = 1 folds the prefix's histogram into the full trace's
as it folds a verified repeating tail (`engine.measure`), without
generating the full trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Callable, Optional, Sequence

from dmclab import models
from dmclab.core import ObjectTable, Trace, ValidationError, check_memory


@dataclass(frozen=True)
class MatmulParams:
    m: int
    n: int
    l: int


@dataclass(frozen=True)
class ConvParams:
    h: int
    w: int
    k: int


@dataclass(frozen=True)
class BatchParams:
    n: int
    k: int
    c: int
    x: int


@dataclass(frozen=True)
class Im2colParams:
    n: int
    k: int


@dataclass(frozen=True)
class FftParams:
    n: int


@dataclass(frozen=True)
class GenSpec:
    """Algorithm tag plus its parameter record, valid by its kernel's model, whose result it keeps."""

    algorithm: str
    params: object
    result: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kernel = KERNELS.get(self.algorithm)
        if kernel is None:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.params, kernel.params):
            raise ValidationError(f"{self.algorithm} takes {kernel.params.__name__}, "
                                  f"not {type(self.params).__name__}")
        object.__setattr__(self, "result", kernel.model(*_values(self.params)))


@dataclass(frozen=True)
class Kernel:
    """Everything dmclab knows about one traced algorithm.

    params: parameter record, plain data; its fields, in order
      (`param_names`), are the generator's and the model's arguments and
      the flags `dmclab gen` takes, and `dmclab model`'s where it names
      the kernel.
    model: the kernel's closed-form model, fields -> its result; it
      raises ValidationError on an invalid set, so it is the rule a
      `GenSpec` checks, and the spec keeps its result.
    summary: its model's `dmclab model --list` line, the flags derived from
      `param_names`; None for the FFTs (listed as fftbounds and fftconv).
    sweep_flags: flags a sweep point takes besides the swept size n, each
      a range swept with n; a point's other fields are n (`point`).
    loops: an affine kernel's declaration, fields -> (objects, body),
      from which its generator and count follow (`_interpret`, `_count`).
    prefix: params -> the record of a prefix, or None when nothing
      repeats.  The prefix's trace is the full trace's first iterations
      of the outer loop of its declaration, and at b = 1 its last one has
      the stack distances of every later iteration of the full trace,
      access by access: a declared period (`prefix_rule`), folded as a
      verified one is.  A declared prefix is trusted, not checked: it lets
      `engine.measure` skip generating the repeated iterations, so a
      kernel declares one only where a test shows equality.  A trace that
      is generated anyway needs none, because `engine.analyze_trace`
      finds and verifies a repeating tail in the trace itself.
    columns: the model's result -> the sweep's model columns, by default
      model_total, the result's `total` or the result itself.
    generator, count: the trace, from the fields, and its exact length,
      at which the generator allocates it.  Only a kernel that is not
      declared as loops (the FFTs) gives them.
    """

    params: type
    model: Callable[..., object]
    summary: Optional[str] = None
    sweep_flags: tuple[str, ...] = ()
    loops: Optional[Callable[..., tuple]] = None
    prefix: Callable[[object], Optional[object]] = lambda params: None
    columns: Callable[[object], dict] = lambda result: {"model_total": getattr(result, "total", result)}
    generator: Optional[Callable[..., Trace]] = None
    count: Optional[Callable[..., int]] = None

    def __post_init__(self):
        object.__setattr__(self, "param_names", tuple(f.name for f in fields(self.params)))
        if self.loops is not None:
            object.__setattr__(self, "generator", lambda *args: _interpret(*self.loops(*args)))
            object.__setattr__(self, "count", lambda *args: _count(self.loops(*args)[1]))

    def point(self, n: int, flags: dict) -> object:
        """The record of a sweep point: each field its sweep flag's value in
        `flags` where the kernel names one, else the swept size n."""
        return self.params(*[flags.get(name, n) for name in self.param_names])


def _allocate(count: int) -> tuple:
    """A `count`-access trace's two columns, uninitialised int64 arrays for a
    generator to place every access in; raises beyond physical memory."""
    import numpy as np

    check_memory(count)
    return np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)


def _build(names: Sequence[str], sizes: Sequence[int], columns: tuple) -> Trace:
    """The trace over `columns`, which it takes over, whose object i has
    id i, name `names[i]` and size `sizes[i]`."""
    import numpy as np

    ids = np.arange(len(names), dtype=np.int64)
    # generators index within declared bounds by construction
    return Trace.from_columns(ObjectTable(ids, names, sizes), *columns, validate=False)


def _write(columns: tuple, at: int, shape: tuple, *body) -> None:
    """Write a loop nest over `shape` whose iterations each run `body`, its
    accesses in order, into `columns`, views of the trace's two columns,
    from position `at` of their last axis: the run it fills, viewed as
    `shape` plus an axis of the body, takes each access's (object ids,
    offsets) pair, arrays that broadcast to it, at its place on that axis."""
    for column, values in zip(columns, zip(*body)):
        run = column[..., at:at + math.prod(shape) * len(body)]
        view = run.reshape(run.shape[:-1] + shape + (len(body),))
        for i, value in enumerate(values):
            view[..., i] = value


def _values(params) -> list:
    """A record's fields in order, read without astuple's deep copy."""
    return list(vars(params).values())


def generate(spec: GenSpec) -> Trace:
    """Dispatch a GenSpec to its kernel's generator."""
    return KERNELS[spec.algorithm].generator(*_values(spec.params))


def access_count(spec: GenSpec) -> int:
    """Exact trace length for a GenSpec, without generating it."""
    return KERNELS[spec.algorithm].count(*_values(spec.params))


def prefix_rule(spec: GenSpec) -> Optional[tuple[GenSpec, int]]:
    """(prefix spec, tau) of a GenSpec whose kernel declares a prefix for
    its parameters, else None: tau is the length of one outer-loop
    iteration of the prefix's declaration, the last of which stands for
    every later one of the full trace."""
    kernel = KERNELS[spec.algorithm]
    params = kernel.prefix(spec.params)
    if params is None:
        return None
    (loops, body), = kernel.loops(*_values(params))[1]
    return GenSpec(spec.algorithm, params), math.prod(loops[1:]) * _count(body)


def _count(body) -> int:
    """The accesses in one run of a declared body, by arithmetic alone."""
    return sum(1 if callable(item) else math.prod(item[0]) * _count(item[1]) for item in body)


def _interpret(objects, body) -> Trace:
    """The trace that a declaration gives: its columns allocated at the
    declared count, its objects in order, then its body written."""
    columns = _allocate(_count(body))
    names, sizes = zip(*objects)
    _emit(columns, body)
    return _build(names, sizes, columns)


def _emit(views: tuple, body) -> None:
    """Write `body` through `views`, views of the trace's two columns shaped
    as the enclosing loops' extents plus an axis of the body's accesses.
    A nest fills a contiguous run of that axis, which splits, as a view,
    into its loops' extents plus an axis of its own body."""
    import numpy as np

    extents = views[0].shape[:-1]
    grid = np.ix_(*map(np.arange, extents))
    at = 0
    for item in body:
        if callable(item):
            for view, values in zip(views, item(*grid)):
                view[..., at] = values
            at += 1
            continue
        loops, inner = item
        per = _count(inner)
        span = math.prod(loops) * per
        _emit(tuple(view[..., at:at + span].reshape(extents + loops + (per,)) for view in views), inner)
        at += span


def _matmul_loops(m: int, n: int, l: int) -> tuple:
    """Naive triple-loop product of an m*n matrix with an n*l matrix.

    Per inner iteration: read A[i][k], read B[k][j]; the running sum
    stays in a register and C[i][j] is written once per (i, j).
    """
    A, B, C = range(3)
    return [("A", m * n), ("B", n * l), ("C", m * l)], [
        ((m, l), [((n,), [lambda i, j, kk: (A, i * n + kk), lambda i, j, kk: (B, kk * l + j)]),
                  lambda i, j: (C, i * l + j)])]


def _conv_loops(h: int, w: int, k: int) -> tuple:
    """Naive valid convolution of an h*w image with a k*k kernel.

    Windows sweep row-major; per kernel cell the kernel element is read,
    then the image element; one result write per window.
    """
    I, K, R = range(3)
    out_h, out_w = h - k + 1, w - k + 1
    return [("I", h * w), ("K", k * k), ("R", out_h * out_w)], [
        ((out_h, out_w), [((k, k), [lambda i, j, y, x: (K, y * k + x),
                                    lambda i, j, y, x: (I, (i + y) * w + x + j)]),
                          lambda i, j: (R, i * out_w + j)])]


def gen_conv(h: int, w: int, k: int) -> Trace:
    """conv's trace (`_conv_loops`), by the name the benchmark's selftest calls."""
    return _interpret(*_conv_loops(h, w, k))


def _im2col_loops(n: int, k: int) -> tuple:
    """im2col lowering of an n*n convolution with a k*k kernel.

    Copy phase: each window's elements are copied into one row of the
    patch matrix (read image, write patch per cell).  Multiply phase:
    row-major matrix-vector product of the (n-k+1)^2 x k^2 patch matrix
    with the flattened kernel, register accumulator, one write per
    output element.
    """
    I, KV, R, OUT = range(4)
    m = n - k + 1
    return [("I", n * n), ("Kv", k * k), ("R", m * m * k * k), ("out", m * m)], [
        ((m, m, k, k), [lambda i, j, y, x: (I, (i + y) * n + x + j),
                        lambda i, j, y, x: (R, ((i * m + j) * k + y) * k + x)]),
        ((m * m,), [((k * k,), [lambda row, col: (R, row * k * k + col), lambda row, col: (KV, col)]),
                    lambda row: (OUT, row)])]


def _batchconv_loops(n: int, k: int, c: int, x: int) -> tuple:
    """Multi-channel convolution processed x channels per pass.

    Each channel has its own image and kernel; all channels accumulate
    into one shared result.  Loop order: batch, window, channel in
    batch, kernel cells, then one accumulate access to R per channel.
    """
    I, K, R = 0, c, 2 * c  # channel ch's image and kernel are I + ch and K + ch
    m = n - k + 1
    # lazy: counting names none of the 2c channel objects
    objects = chain(((f"I{ch}", n * n) for ch in range(c)),
                    ((f"K{ch}", k * k) for ch in range(c)), [("R", m * m)])
    return objects, [
        ((c // x, m, m, x), [((k, k), [lambda b, i, j, lane, y, xx: (K + b * x + lane, y * k + xx),
                                       lambda b, i, j, lane, y, xx: (I + b * x + lane, (i + y) * n + xx + j)]),
                             lambda b, i, j, lane: (R, i * m + j)])]


def _fft_access_count(n: int) -> int:
    # a call of size m > 1 makes 2m divide and 5m/2 conquer accesses, and
    # each of the log2(n) depths has n/m of them; a base case makes one
    return n + 9 * n * (n.bit_length() - 1) // 2


def _fft_fill(
    names: list,
    sizes: list,
    columns: tuple,
    at: int,
    omega: Optional[int],
    src: tuple,
    labels: list[str],
) -> tuple:
    """Emit len(labels) recursive radix-2 transforms of one size n in
    sequence, from trace position `at` of `columns`, the trace's numpy
    views of its two columns; each transform's objects join the trace's
    `names` and `sizes` lists.

    `src` holds the transforms' inputs as (object ids, offsets) arrays of
    shape (transforms, n).  A call of size m > 1 copies its even inputs
    into a fresh `.even` object, recurses on it, does the same for the odd
    inputs, then conquers: per output pair it reads both child results
    and the shared root-of-unity table and writes both halves of a fresh
    `.y` object.  A call of size 1 reads its input.  Returns the outputs
    in the shape of `src`: a call's `.y`, or its input when n = 1.

    A call of size m spans A(m) = 9m/2 + 2 A(m/2) accesses (A(1) = 1) and
    creates O(m) = 3(m - 1) objects, so with h = m/2, a call at position P
    whose first object id is Q has its even copies at P and its even child
    at P + m, its odd copies at P + m + A(h) and its odd child at
    P + 2m + A(h), and conquers at P + 2m + 2 A(h); its `.even` is Q, its
    `.odd` is Q + 1 + O(h) and its `.y` is Q + 2 + 2 O(h).  Names and
    sizes are made one depth at a time, and the accesses through views of
    the columns, a row per transform, along the spine of even children
    from its innermost call out: each call's copies and conquer as slices
    of steps 2 and 5, and its odd child as a twin of its even one, every
    object id but omega's raised by 1 + O(h).
    """
    import numpy as np

    count, n = src[0].shape
    first = len(names)
    per_call = 3 * (n - 1)
    new_names = np.empty(count * per_call, dtype=object)
    new_sizes = np.empty(count * per_call, dtype=np.int64)
    base = first + per_call * np.arange(count)[:, None]  # each transform's first object id
    ids = base[:, 0]  # each call's first object id, one depth at a time
    m = n
    while m > 1:
        h = m // 2
        even, odd = ids, ids + 1 + 3 * (h - 1)
        y = odd + 1 + 3 * (h - 1)
        for made, suffix, size in ((even, ".even", h), (odd, ".odd", h), (y, ".y", m)):
            new_names[made - first] = np.array([label + suffix for label in labels], dtype=object)
            new_sizes[made - first] = size
        ids = np.stack([even + 1, odd + 1], axis=1).ravel()
        labels = [label + child for label in labels for child in (".e", ".o")]
        m = h
    names += new_names.tolist()
    sizes += new_sizes.tolist()

    span = _fft_access_count(n)
    oids, offsets = rows = tuple(c[at:at + count * span].reshape(count, span) for c in columns)
    # the spine call of size m starts at 2n - 2m, its first object id is the
    # base's plus its depth, and it reads its parent's `.even` or the input
    depth = n.bit_length() - 1
    ids, offs = src if n == 1 else np.broadcast_arrays(base + depth - 1, np.arange(1))
    _write(rows, 2 * n - 2, (1,), (ids, offs))
    m = 1
    while m < n:
        h, m, depth = m, 2 * m, depth - 1
        start, even = 2 * n - 2 * m, base + depth
        sub_accesses, sub_objects = _fft_access_count(h), 3 * (h - 1)
        odd = even + 1 + sub_objects
        y = odd + 1 + sub_objects
        col = np.arange(h)
        ids, offs = src if m == n else np.broadcast_arrays(even - 1, np.arange(m))
        _write(rows, start, (h,), (ids[:, 0::2], offs[:, 0::2]), (even, col))
        _write(rows, start + m + sub_accesses, (h,), (ids[:, 1::2], offs[:, 1::2]), (odd, col))
        child = slice(start + m, start + m + sub_accesses)
        twin = slice(start + 2 * m + sub_accesses, start + 2 * m + 2 * sub_accesses)
        np.add(oids[:, child], 1 + sub_objects, out=oids[:, twin])
        oids[:, twin][oids[:, child] == omega] = omega
        offsets[:, twin] = offsets[:, child]
        # a child's result is the last object of its subtree, its copy if h = 1
        _write(rows, start + 2 * m + 2 * sub_accesses, (h,), (even + sub_objects, col),
               (omega, col * (n // m)), (odd + sub_objects, col), (y, col), (y, col + h))
    if n == 1:
        return src
    return (np.broadcast_to(base + per_call - 1, (count, n)),
            np.broadcast_to(np.arange(n), (count, n)))


def gen_fft(n: int) -> Trace:
    """Recursive radix-2 transform over an n-element input, n a power of 2.

    The root-of-unity table is one global object of size n/2, indexed so
    a call of size N touches entries 0, n/N, 2n/N, ...
    """
    import numpy as np

    columns = _allocate(_fft_access_count(n))
    # the input, then the root-of-unity table, which n = 1 does not need
    names, sizes = ["A", "omega"][:1 + (n > 1)], [n, n // 2][:1 + (n > 1)]
    _fft_fill(names, sizes, columns, 0, 1 if n > 1 else None,
              (np.full((1, n), 0), np.arange(n)[None, :]), ["f"])
    return _build(names, sizes, columns)


def _fftconv2d_count(n: int) -> int:
    # three 2D transforms of 2n transforms each, then n*n product triples
    return 3 * (2 * n * _fft_access_count(n)) + 3 * n * n


def gen_fft_conv2d(n: int) -> Trace:
    """Convolution via 2D transforms: forward on padded kernel and image,
    pointwise product, inverse transform on the product.

    A 2D transform is n row transforms followed by n column transforms
    over the row results.  The inverse has identical memory behaviour to
    the forward pass, so it is emitted as one more forward transform.
    A grid is (object ids, offsets) arrays of shape (n, n).
    """
    import numpy as np

    columns = _allocate(_fftconv2d_count(n))
    ker, img, omega = 0, 1, 2 if n > 1 else None
    names, sizes = ["Kpad", "I", "omega"][:2 + (n > 1)], [n * n, n * n, n // 2][:2 + (n > 1)]
    per_pass = n * _fft_access_count(n)  # accesses of n transforms
    cells = np.arange(n * n).reshape(n, n)

    def transform2d(oid: int, at: int, label: str) -> tuple:
        grid = (np.full((n, n), oid), cells)
        rows = _fft_fill(names, sizes, columns, at, omega, grid, [f"{label}.r{r}" for r in range(n)])
        cols = _fft_fill(names, sizes, columns, at + per_pass, omega, (rows[0].T, rows[1].T),
                         [f"{label}.c{c}" for c in range(n)])
        return cols[0].T, cols[1].T

    ker_t = transform2d(ker, 0, "K")
    img_t = transform2d(img, 2 * per_pass, "I")
    prod = len(names)
    names.append("P")
    sizes.append(n * n)
    at = 4 * per_pass
    _write(columns, at, (n, n), ker_t, img_t, (prod, cells))
    transform2d(prod, at + 3 * n * n, "P")
    return _build(names, sizes, columns)


# --- kernel registry --------------------------------------------------------


KERNELS = {
    "matmul": Kernel(
        MatmulParams, models.model_matmul, "m * (n l)^1.5 for an m*n by n*l product", (),
        _matmul_loops, lambda p: MatmulParams(2, p.n, p.l) if p.m > 2 else None),
    "conv": Kernel(
        ConvParams, models.model_conv, "spatial convolution breakdown and asymptotic", ("k",),
        _conv_loops, lambda p: ConvParams(p.k + 2, p.w, p.k) if p.h - p.k + 1 > 3 else None,
        lambda r: {"model_total": r.total, "model_asymptotic": r.asymptotic}),
    "im2col": Kernel(Im2colParams, models.model_im2col, "im2col convolution total", ("k",),
                     _im2col_loops),
    "batchconv": Kernel(
        BatchParams, models.model_batched, "batched convolution total", ("k", "c", "x"),
        _batchconv_loops, lambda p: BatchParams(p.n, p.k, 2 * p.x, p.x) if p.c // p.x > 2 else None),
    "fft": Kernel(
        FftParams, models.model_fft_bounds,
        columns=lambda r: {"model_lower": r[0], "model_upper": r[1], "model_total": r[0]},
        generator=gen_fft, count=_fft_access_count),
    "fftconv2d": Kernel(
        FftParams, models.model_fftconv_lower, generator=gen_fft_conv2d, count=_fftconv2d_count),
}

ALGORITHMS = tuple(KERNELS)
