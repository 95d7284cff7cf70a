"""Deterministic memory trace generators for the measured algorithms.

Every generator is a pure function of its parameters and emits the exact
access sequence of the algorithm's straightforward implementation.
Register-resident scalars (running sums, loop temporaries) are not
traced; result writes are.  Object declaration order is inputs first,
temporaries in creation order, outputs last, which fixes the memory
layout (build_layout) under which `analyze --block` measures blocks.

A parameter record's rule is its model's: constructing a record
evaluates the model, which raises ValidationError on an invalid set.
Every record that exists is valid, so generators trust their arguments.
The record keeps that evaluation as its `result` attribute, outside its
fields, so sweeps read the model columns without evaluating it again.

Every generator first allocates its two columns at the trace's exact
length and refuses a length beyond physical memory (`check_memory`)
before any other work.  It then places its accesses into them a loop
nest at a time (`_place`): the position where each iteration starts and
each access's object id and offset are numpy expressions in the loop
indices.  The affine kernels are declared as loop nests, such as
`_conv_loops`: objects as (name, size) pairs, object i having id i, and
a body run in order, of nests, each loop extents over an inner body, and
accesses, each a function of the enclosing loop indices to an (object
id, offset) pair.  One interpreter (`_interpret`) counts a declaration's
accesses by integer arithmetic and places them, each nest's iterations
at multiples of its body's count.  The recursive FFT generators know
each call's place in the trace from its parent's, so they place one
recursion depth at a time.  numpy is imported only inside the functions
that build a trace, so the commands that make no trace never load it.

A kernel whose trace repeats may declare a prefix (`Kernel.prefix`): a
smaller parameter record whose trace is the full trace's first
iterations of its outer loop, up to a renaming of keys.  matmul repeats
by row, conv by output row and batchconv by batch.  `prefix_rule` reads
the parts and their integer multiplicities off the two declarations, so
a measurement at b = 1 reads the full trace's histogram from the
prefix's (`engine.measure`) without generating the full trace.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from itertools import chain
from typing import Callable, Optional

from dmclab import models
from dmclab.core import ACCESS_BYTES, ObjectTable, Trace, ValidationError, physical_memory


def _keep(record, result) -> None:
    """Store a record's model evaluation beside its fields."""
    object.__setattr__(record, "result", result)


@dataclass(frozen=True)
class MatmulParams:
    m: int
    n: int
    l: int

    def __post_init__(self):
        _keep(self, models.model_matmul(self.m, self.n, self.l))


@dataclass(frozen=True)
class ConvParams:
    h: int
    w: int
    k: int

    def __post_init__(self):
        _keep(self, models.model_conv(self.h, self.w, self.k))


@dataclass(frozen=True)
class BatchParams:
    n: int
    k: int
    c: int
    x: int

    def __post_init__(self):
        _keep(self, models.model_batched(self.n, self.k, self.c, self.x))


@dataclass(frozen=True)
class Im2colParams:
    n: int
    k: int

    def __post_init__(self):
        _keep(self, models.model_im2col(self.n, self.k))


@dataclass(frozen=True)
class FftParams:
    n: int

    def __post_init__(self):
        _keep(self, models.model_fft_bounds(self.n))


@dataclass(frozen=True)
class GenSpec:
    """Algorithm tag plus its parameter record."""

    algorithm: str
    params: object

    def __post_init__(self):
        if self.algorithm not in KERNELS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.params, KERNELS[self.algorithm].params):
            raise ValidationError(f"{self.algorithm} takes {KERNELS[self.algorithm].params.__name__}, "
                                  f"not {type(self.params).__name__}")


@dataclass(frozen=True)
class Kernel:
    """Everything dmclab knows about one traced algorithm.

    params: parameter record; its fields, in order, are the generator's
      arguments and the flags `dmclab gen` reads.
    generator: the trace, from those fields.
    sweep_flags: flags a sweep point takes besides the swept size n;
      a flag given as a string (batchconv's --x) is swept as a range too.
    square: (n, *sweep flag values) -> params of the square sweep point.
    model: params -> the sweep's model columns, including model_total,
      read from the record's kept `result` where its own model gives them.
    loops: an affine kernel's declaration, fields -> (objects, body),
      which its generator places (`_interpret`).
    prefix: params -> the record of a prefix, or None when nothing
      repeats.  The prefix's trace is the full trace's first iterations
      of the outer loop of its declaration, and at b = 1 each has the
      stack distances of the full trace's iterations it stands for
      (`prefix_rule`), access by access.  A declared prefix is trusted,
      not checked: it lets `engine.measure` skip generating the repeated
      iterations, so a kernel declares one only where a test shows
      equality.  A trace that is generated anyway needs none, because
      `engine.analyze_trace` finds and verifies a repeating tail in the
      trace itself.
    count: the trace's exact length, from the fields, at which the
      generator allocates it; a declared kernel's is its declaration's.
    """

    params: type
    generator: Callable[..., Trace]
    sweep_flags: tuple[str, ...]
    square: Callable[..., object]
    model: Callable[[object], dict]
    loops: Optional[Callable[..., tuple]] = None
    prefix: Callable[[object], Optional[object]] = lambda params: None
    count: Optional[Callable[..., int]] = None

    def __post_init__(self):
        if self.count is None:
            object.__setattr__(self, "count", lambda *args: _count(self.loops(*args)[1]))

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params))


def check_memory(count: int, per_access: int = ACCESS_BYTES) -> None:
    """Raise if `count` accesses, `per_access` bytes each, need more than `physical_memory()`."""
    memory = physical_memory()
    if count * per_access > memory:
        raise ValidationError(
            f"the trace has {count} accesses, {count * per_access} bytes in memory, "
            f"more than this machine's {memory} bytes"
        )


class _TraceBuilder:
    """Object columns and access columns of a trace under construction.

    A generator first `allocate`s the access columns at the trace's exact
    length, from its kernel's count function, then declares its objects
    and `_place`s every access into the columns, one loop nest per call.
    `build` hands the columns to the trace, which takes them over.
    """

    def __init__(self):
        # object i has id i
        self.names: list[str] = []
        self.sizes: list[int] = []

    def new_object(self, name: str, size: int) -> int:
        self.names.append(name)
        self.sizes.append(size)
        return len(self.names) - 1

    def allocate(self, count: int) -> tuple:
        """Make the columns `count` accesses long, uninitialised, and
        return them as numpy arrays, for the generator to place every
        access.  Raises if they need more than `physical_memory()`."""
        import numpy as np

        check_memory(count)
        self.columns = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
        return self.columns

    def build(self) -> Trace:
        import numpy as np

        ids = np.arange(len(self.names), dtype=np.int64)
        # generators index within declared bounds by construction
        return Trace.from_columns(ObjectTable(ids, self.names, self.sizes),
                                  *self.columns, validate=False)


def _place(columns: tuple, at, *body) -> None:
    """Write one loop nest's accesses into `columns`, numpy views of a
    trace's two columns.  Each iteration runs `body`, its accesses in
    order, from trace position `at` on.  `at` and each access's (object
    ids, offsets) pair are expressions in the loop indices: `at` an array
    over the nest's iteration space, the pairs arrays that broadcast to
    its shape."""
    for i, access in enumerate(body):
        where = at + i
        for column, values in zip(columns, access):
            column[where] = values


def generate(spec: GenSpec) -> Trace:
    """Dispatch a GenSpec to its kernel's generator."""
    return KERNELS[spec.algorithm].generator(*astuple(spec.params))


def access_count(spec: GenSpec) -> int:
    """Exact trace length for a GenSpec, without generating it."""
    return KERNELS[spec.algorithm].count(*astuple(spec.params))


def prefix_rule(spec: GenSpec) -> Optional[tuple[GenSpec, tuple[int, ...], tuple[int, ...]]]:
    """(prefix spec, part lengths, multiplicities) of a GenSpec whose
    kernel declares a prefix for its parameters, else None.  The parts
    are the prefix's outer-loop iterations, in order; each stands for
    itself but the last, which stands for every later outer-loop
    iteration of the full trace too."""
    kernel = KERNELS[spec.algorithm]
    params = kernel.prefix(spec.params)
    if params is None:
        return None
    (loops, body), = kernel.loops(*astuple(params))[1]
    (full, _), = kernel.loops(*astuple(spec.params))[1]
    part = math.prod(loops[1:]) * _count(body)
    weights = (1,) * (loops[0] - 1) + (full[0] - loops[0] + 1,)
    return GenSpec(spec.algorithm, params), (part,) * loops[0], weights


def generated_count(spec: GenSpec) -> int:
    """Length of the trace that measuring a GenSpec generates: its
    prefix's where its kernel declares one."""
    rule = prefix_rule(spec)
    return access_count(rule[0] if rule else spec)


def _count(body) -> int:
    """The accesses in one run of a declared body, by arithmetic alone."""
    return sum(1 if callable(item) else math.prod(item[0]) * _count(item[1]) for item in body)


def _interpret(objects, body) -> Trace:
    """The trace that a declaration gives: its columns allocated at the
    declared count, its objects in order, then its body placed."""
    b = _TraceBuilder()
    columns = b.allocate(_count(body))
    for name, size in objects:
        b.new_object(name, size)
    _emit(columns, 0, (), body)
    return b.build()


def _emit(columns: tuple, at, extents: tuple, body) -> None:
    """Place `body` in every iteration of the enclosing loops `extents`,
    from trace position `at`, an array over their iteration space.  A
    nest's iteration t, numbered row-major over its own loops, starts t
    times its body's count after the nest does."""
    import numpy as np

    grid = np.ix_(*map(np.arange, extents))
    for item in body:
        if callable(item):
            _place(columns, at, item(*grid))
            at = at + 1
            continue
        loops, inner = item
        per = _count(inner)
        t = 0
        for index, extent in zip(np.ix_(*map(np.arange, extents + loops))[len(extents):], loops):
            t = t * extent + index
        _emit(columns, np.reshape(at, np.shape(at) + (1,) * len(loops)) + per * t, extents + loops, inner)
        at = at + math.prod(loops) * per


def gen_matmul(m: int, n: int, l: int) -> Trace:
    """Naive triple-loop product of an m*n matrix with an n*l matrix.

    Per inner iteration: read A[i][k], read B[k][j]; the running sum
    stays in a register and C[i][j] is written once per (i, j).
    """
    return _interpret(*_matmul_loops(m, n, l))


def _matmul_loops(m: int, n: int, l: int) -> tuple:
    A, B, C = range(3)
    return [("A", m * n), ("B", n * l), ("C", m * l)], [
        ((m, l), [((n,), [lambda i, j, kk: (A, i * n + kk), lambda i, j, kk: (B, kk * l + j)]),
                  lambda i, j: (C, i * l + j)])]


def gen_conv(h: int, w: int, k: int) -> Trace:
    """Naive valid convolution of an h*w image with a k*k kernel.

    Windows sweep row-major; per kernel cell the kernel element is read,
    then the image element; one result write per window.
    """
    return _interpret(*_conv_loops(h, w, k))


def _conv_loops(h: int, w: int, k: int) -> tuple:
    I, K, R = range(3)
    out_h, out_w = h - k + 1, w - k + 1
    return [("I", h * w), ("K", k * k), ("R", out_h * out_w)], [
        ((out_h, out_w), [((k, k), [lambda i, j, y, x: (K, y * k + x),
                                    lambda i, j, y, x: (I, (i + y) * w + x + j)]),
                          lambda i, j: (R, i * out_w + j)])]


def gen_im2col(n: int, k: int) -> Trace:
    """im2col lowering of an n*n convolution with a k*k kernel.

    Copy phase: each window's elements are copied into one row of the
    patch matrix (read image, write patch per cell).  Multiply phase:
    row-major matrix-vector product of the (n-k+1)^2 x k^2 patch matrix
    with the flattened kernel, register accumulator, one write per
    output element.
    """
    return _interpret(*_im2col_loops(n, k))


def _im2col_loops(n: int, k: int) -> tuple:
    I, KV, R, OUT = range(4)
    m = n - k + 1
    return [("I", n * n), ("Kv", k * k), ("R", m * m * k * k), ("out", m * m)], [
        ((m, m, k, k), [lambda i, j, y, x: (I, (i + y) * n + x + j),
                        lambda i, j, y, x: (R, ((i * m + j) * k + y) * k + x)]),
        ((m * m,), [((k * k,), [lambda row, col: (R, row * k * k + col), lambda row, col: (KV, col)]),
                    lambda row: (OUT, row)])]


def gen_batched_conv(n: int, k: int, c: int, x: int) -> Trace:
    """Multi-channel convolution processed x channels per pass.

    Each channel has its own image and kernel; all channels accumulate
    into one shared result.  Loop order: batch, window, channel in
    batch, kernel cells, then one accumulate access to R per channel.
    """
    return _interpret(*_batchconv_loops(n, k, c, x))


def _batchconv_loops(n: int, k: int, c: int, x: int) -> tuple:
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
    b: _TraceBuilder,
    columns: tuple,
    at: int,
    omega: Optional[int],
    src: tuple,
    labels: list[str],
) -> tuple:
    """Emit len(labels) recursive radix-2 transforms of one size n in
    sequence, from trace position `at` of `columns`, the trace's numpy
    views of its two columns; each transform's objects join `b`.

    `src` holds the transforms' inputs as (object ids, offsets) arrays of
    shape (transforms, n).  A call of size m > 1 copies its even inputs
    into a fresh `.even` object, recurses on it, does the same for the odd
    inputs, then conquers: per output pair it reads both child results
    and the shared root-of-unity table and writes both halves of a fresh
    `.y` object.  A call of size 1 reads its input.  Returns the outputs
    in the shape of `src`: a call's `.y`, or its input when n = 1.

    The calls are emitted one recursion depth at a time.  A call of size
    m spans A(m) = 9m/2 + 2 A(m/2) accesses (A(1) = 1) and creates
    O(m) = 3(m - 1) objects, so with h = m/2, a call at position P whose
    first object id is Q has its even copies at P and its even child at
    P + m, its odd copies at P + m + A(h) and its odd child at
    P + 2m + A(h), and conquers at P + 2m + 2 A(h); its `.even` is Q, its
    `.odd` is Q + 1 + O(h) and its `.y` is Q + 2 + 2 O(h).
    """
    import numpy as np

    in_oids, in_offsets = src
    count, n = in_oids.shape
    first = len(b.names)
    per_call = 3 * (n - 1)
    names = np.empty(count * per_call, dtype=object)
    sizes = np.empty(count * per_call, dtype=np.int64)

    starts = (at + _fft_access_count(n) * np.arange(count))[:, None]
    ids = first + per_call * np.arange(count)  # each call's first object id
    m = n
    while m > 1:
        h = m // 2
        sub_accesses, sub_objects = _fft_access_count(h), 3 * (h - 1)
        even, odd = ids, ids + 1 + sub_objects
        y = odd + 1 + sub_objects
        col = np.arange(h)
        _place(columns, starts + 2 * col,
               (in_oids[:, 0::2], in_offsets[:, 0::2]), (even[:, None], col))
        _place(columns, starts + m + sub_accesses + 2 * col,
               (in_oids[:, 1::2], in_offsets[:, 1::2]), (odd[:, None], col))
        # a child's result is the last object of its subtree, its copy if h = 1
        _place(columns, starts + 2 * m + 2 * sub_accesses + 5 * col,
               ((even + sub_objects)[:, None], col), (omega, col * (n // m)),
               ((odd + sub_objects)[:, None], col), (y[:, None], col), (y[:, None], col + h))
        for made, suffix, size in ((even, ".even", h), (odd, ".odd", h), (y, ".y", m)):
            names[made - first] = np.array([label + suffix for label in labels], dtype=object)
            sizes[made - first] = size
        starts = np.stack([starts + m, starts + 2 * m + sub_accesses], axis=1).reshape(-1, 1)
        ids = np.stack([even + 1, odd + 1], axis=1).ravel()
        copies = np.stack([even, odd], axis=1).reshape(-1, 1)
        in_oids, in_offsets = np.broadcast_arrays(copies, col)
        labels = [label + child for label in labels for child in (".e", ".o")]
        m = h
    _place(columns, starts, (in_oids[:, :1], in_offsets[:, :1]))
    b.names += names.tolist()
    b.sizes += sizes.tolist()
    if n == 1:
        return src
    results = first + per_call * np.arange(count) + per_call - 1
    return (np.broadcast_to(results[:, None], (count, n)),
            np.broadcast_to(np.arange(n), (count, n)))


def gen_fft(n: int) -> Trace:
    """Recursive radix-2 transform over an n-element input, n a power of 2.

    The root-of-unity table is one global object of size n/2, indexed so
    a call of size N touches entries 0, n/N, 2n/N, ...
    """
    import numpy as np

    b = _TraceBuilder()
    columns = b.allocate(_fft_access_count(n))
    a_obj = b.new_object("A", n)
    omega = b.new_object("omega", n // 2) if n > 1 else None
    _fft_fill(b, columns, 0, omega, (np.full((1, n), a_obj), np.arange(n)[None, :]), ["f"])
    return b.build()


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

    b = _TraceBuilder()
    columns = b.allocate(_fftconv2d_count(n))
    ker = b.new_object("Kpad", n * n)
    img = b.new_object("I", n * n)
    omega = b.new_object("omega", n // 2) if n > 1 else None
    per_pass = n * _fft_access_count(n)  # accesses of n transforms
    cells = np.arange(n * n).reshape(n, n)

    def transform2d(oid: int, at: int, label: str) -> tuple:
        grid = (np.full((n, n), oid), cells)
        rows = _fft_fill(b, columns, at, omega, grid, [f"{label}.r{r}" for r in range(n)])
        cols = _fft_fill(b, columns, at + per_pass, omega, (rows[0].T, rows[1].T),
                         [f"{label}.c{c}" for c in range(n)])
        return cols[0].T, cols[1].T

    ker_t = transform2d(ker, 0, "K")
    img_t = transform2d(img, 2 * per_pass, "I")
    prod = b.new_object("P", n * n)
    at = 4 * per_pass
    _place(columns, at + 3 * cells, ker_t, img_t, (prod, cells))
    transform2d(prod, at + 3 * n * n, "P")
    return b.build()


# --- kernel registry --------------------------------------------------------


def _fft_columns(p: FftParams) -> dict:
    lower, upper = p.result
    return {"model_lower": lower, "model_upper": upper, "model_total": lower}


KERNELS = {
    "matmul": Kernel(
        MatmulParams, gen_matmul, (), lambda n: MatmulParams(n, n, n),
        lambda p: {"model_total": p.result},
        _matmul_loops, lambda p: MatmulParams(2, p.n, p.l) if p.m > 2 else None),
    "conv": Kernel(
        ConvParams, gen_conv, ("k",), lambda n, k: ConvParams(n, n, k),
        lambda p: {"model_total": p.result.total, "model_asymptotic": p.result.asymptotic},
        _conv_loops, lambda p: ConvParams(p.k + 2, p.w, p.k) if p.h - p.k + 1 > 3 else None),
    "im2col": Kernel(
        Im2colParams, gen_im2col, ("k",), Im2colParams,
        lambda p: {"model_total": p.result.total},
        _im2col_loops),
    "batchconv": Kernel(
        BatchParams, gen_batched_conv, ("k", "c", "x"), BatchParams,
        lambda p: {"model_total": p.result.total},
        _batchconv_loops, lambda p: BatchParams(p.n, p.k, 2 * p.x, p.x) if p.c // p.x > 2 else None),
    "fft": Kernel(
        FftParams, gen_fft, (), FftParams,
        _fft_columns, count=_fft_access_count),
    "fftconv2d": Kernel(
        FftParams, gen_fft_conv2d, (), FftParams,
        lambda p: {"model_total": models.model_fftconv_lower(p.n)}, count=_fftconv2d_count),
}

ALGORITHMS = tuple(KERNELS)
