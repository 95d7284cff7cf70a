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

Every generator allocates its two columns at the trace's exact length,
from the count function its kernel registers, and places its accesses
into them a loop nest at a time (`_place`): the trace position where
each iteration starts and each access's object id and offset are numpy
expressions in the loop indices.  The recursive FFT generators know
each call's place in the trace from its parent's, so they place one
recursion depth at a time.  numpy is imported only inside the functions
that build a trace, so the commands that make no trace never load it.
"""

from __future__ import annotations

from array import array
from dataclasses import astuple, dataclass, fields
from typing import Callable, Optional

from dmclab import models
from dmclab.core import ObjectTable, Trace, ValidationError


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


@dataclass(frozen=True)
class Kernel:
    """Everything dmclab knows about one traced algorithm.

    params: parameter record; its fields, in order, are the generator's
      arguments and the flags `dmclab gen` reads.
    generator, count: the trace and its exact length, from those fields;
      the generator allocates the trace at `count`'s length.
    sweep_flags: flags a sweep point takes besides the swept size n;
      a flag given as a string (batchconv's --x) is swept as a range too.
    square: (n, *sweep flag values) -> params of the square sweep point.
    model: params -> the sweep's model columns, including model_total,
      read from the record's kept `result` where its own model gives them.
    """

    params: type
    generator: Callable[..., Trace]
    count: Callable[..., int]
    sweep_flags: tuple[str, ...]
    square: Callable[..., object]
    model: Callable[[object], dict]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params))


class _TraceBuilder:
    """Object columns and access columns of a trace under construction.

    A generator `allocate`s the access columns at the trace's exact
    length, from its kernel's count function, then `_place`s every access
    into them, one loop nest per call.
    """

    def __init__(self):
        # object i has id i
        self.names: list[str] = []
        self.sizes = array("q")

    def new_object(self, name: str, size: int) -> int:
        self.names.append(name)
        self.sizes.append(size)
        return len(self.names) - 1

    def allocate(self, count: int) -> tuple:
        """Make the columns `count` accesses long, uninitialised, and
        return them as numpy arrays, for the generator to place every
        access."""
        import numpy as np

        columns = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
        self.oids, self.offsets = (memoryview(c).cast("B").cast("q") for c in columns)
        return columns

    def build(self) -> Trace:
        import numpy as np

        ids = array("q", np.arange(len(self.names), dtype=np.int64).tobytes())
        # generators index within declared bounds by construction
        return Trace.from_columns(ObjectTable(ids, self.names, self.sizes),
                                  self.oids, self.offsets, validate=False)


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


def _matmul_count(m: int, n: int, l: int) -> int:
    return m * l * (2 * n + 1)


def gen_matmul(m: int, n: int, l: int) -> Trace:
    """Naive triple-loop product of an m*n matrix with an n*l matrix.

    Per inner iteration: read A[i][k], read B[k][j]; the running sum
    stays in a register and C[i][j] is written once per (i, j).
    """
    import numpy as np

    b = _TraceBuilder()
    a_obj = b.new_object("A", m * n)
    b_obj = b.new_object("B", n * l)
    c_obj = b.new_object("C", m * l)
    columns = b.allocate(_matmul_count(m, n, l))
    i, j, kk = np.ogrid[:m, :l, :n]
    product = (2 * n + 1) * (i * l + j)  # where C[i][j]'s product starts
    _place(columns, product + 2 * kk, (a_obj, i * n + kk), (b_obj, kk * l + j))
    _place(columns, product + 2 * n, (c_obj, i * l + j))
    return b.build()


def _conv_count(h: int, w: int, k: int) -> int:
    return (h - k + 1) * (w - k + 1) * (2 * k**2 + 1)


def gen_conv(h: int, w: int, k: int) -> Trace:
    """Naive valid convolution of an h*w image with a k*k kernel.

    Windows sweep row-major; per kernel cell the kernel element is read,
    then the image element; one result write per window.
    """
    import numpy as np

    b = _TraceBuilder()
    img = b.new_object("I", h * w)
    ker = b.new_object("K", k * k)
    res = b.new_object("R", (h - k + 1) * (w - k + 1))
    columns = b.allocate(_conv_count(h, w, k))
    out_w = w - k + 1
    i, j, cell = np.ogrid[:h - k + 1, :out_w, :k * k]
    y, x = divmod(cell, k)
    window = (2 * k * k + 1) * (i * out_w + j)  # where window (i, j) starts
    _place(columns, window + 2 * cell, (ker, cell), (img, (i + y) * w + x + j))
    _place(columns, window + 2 * k * k, (res, i * out_w + j))
    return b.build()


def _im2col_count(n: int, k: int) -> int:
    return (n - k + 1) ** 2 * (4 * k**2 + 1)


def gen_im2col(n: int, k: int) -> Trace:
    """im2col lowering of an n*n convolution with a k*k kernel.

    Copy phase: each window's elements are copied into one row of the
    patch matrix (read image, write patch per cell).  Multiply phase:
    row-major matrix-vector product of the (n-k+1)^2 x k^2 patch matrix
    with the flattened kernel, register accumulator, one write per
    output element.
    """
    import numpy as np

    b = _TraceBuilder()
    img = b.new_object("I", n * n)
    ker = b.new_object("Kv", k * k)
    out_n = n - k + 1
    patches = b.new_object("R", out_n * out_n * k * k)
    out = b.new_object("out", out_n * out_n)
    columns = b.allocate(_im2col_count(n, k))
    kk = k * k
    i, j, cell = np.ogrid[:out_n, :out_n, :kk]
    y, x = divmod(cell, k)
    row = i * out_n + j  # the patch row of window (i, j)
    _place(columns, 2 * (row * kk + cell), (img, (i + y) * n + x + j), (patches, row * kk + cell))
    row, col = np.ogrid[:out_n * out_n, :kk]
    product = 2 * kk * out_n * out_n + (2 * kk + 1) * row  # where out[row]'s product starts
    _place(columns, product + 2 * col, (patches, row * kk + col), (ker, col))
    _place(columns, product + 2 * kk, (out, row))
    return b.build()


def _batched_count(n: int, k: int, c: int, x: int) -> int:
    return c * _conv_count(n, n, k)


def gen_batched_conv(n: int, k: int, c: int, x: int) -> Trace:
    """Multi-channel convolution processed x channels per pass.

    Each channel has its own image and kernel; all channels accumulate
    into one shared result.  Loop order: batch, window, channel in
    batch, kernel cells, then one accumulate access to R per channel.
    """
    import numpy as np

    b = _TraceBuilder()
    imgs = [b.new_object(f"I{ch}", n * n) for ch in range(c)]
    kers = [b.new_object(f"K{ch}", k * k) for ch in range(c)]
    out_n = n - k + 1
    res = b.new_object("R", out_n * out_n)
    columns = b.allocate(_batched_count(n, k, c, x))
    batch, i, j, lane, cell = np.ogrid[:c // x, :out_n, :out_n, :x, :k * k]
    ch = batch * x + lane
    y, xx = divmod(cell, k)
    # where channel ch's pass over window (i, j) starts
    window = (2 * k * k + 1) * (((batch * out_n + i) * out_n + j) * x + lane)
    _place(columns, window + 2 * cell, (kers[0] + ch, cell), (imgs[0] + ch, (i + y) * n + xx + j))
    _place(columns, window + 2 * k * k, (res, i * out_n + j))
    return b.build()


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
    b.sizes.frombytes(sizes.tobytes())
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
    a_obj = b.new_object("A", n)
    omega = b.new_object("omega", n // 2) if n > 1 else None
    columns = b.allocate(_fft_access_count(n))
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
    ker = b.new_object("Kpad", n * n)
    img = b.new_object("I", n * n)
    omega = b.new_object("omega", n // 2) if n > 1 else None
    columns = b.allocate(_fftconv2d_count(n))
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
        MatmulParams, gen_matmul, _matmul_count,
        (), lambda n: MatmulParams(n, n, n),
        lambda p: {"model_total": p.result}),
    "conv": Kernel(
        ConvParams, gen_conv, _conv_count,
        ("k",), lambda n, k: ConvParams(n, n, k),
        lambda p: {"model_total": p.result.total, "model_asymptotic": p.result.asymptotic}),
    "im2col": Kernel(
        Im2colParams, gen_im2col, _im2col_count,
        ("k",), Im2colParams,
        lambda p: {"model_total": p.result.total}),
    "batchconv": Kernel(
        BatchParams, gen_batched_conv, _batched_count,
        ("k", "c", "x"), BatchParams,
        lambda p: {"model_total": p.result.total}),
    "fft": Kernel(
        FftParams, gen_fft, _fft_access_count,
        (), FftParams,
        _fft_columns),
    "fftconv2d": Kernel(
        FftParams, gen_fft_conv2d, _fftconv2d_count,
        (), FftParams,
        lambda p: {"model_total": models.model_fftconv_lower(p.n)}),
}

ALGORITHMS = tuple(KERNELS)
