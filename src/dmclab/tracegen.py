"""Deterministic memory trace generators for the measured algorithms.

Every generator is a pure function of its parameters and emits the exact
access sequence of the algorithm's straightforward implementation.
Register-resident scalars (running sums, loop temporaries) are not
traced; result writes are.  Object declaration order is inputs first,
temporaries in creation order, outputs last, which fixes the memory
layout used by the block transform.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Callable, Optional, Sequence

from dmclab import models
from dmclab.core import DataObject, Trace, ValidationError


@dataclass(frozen=True)
class MatmulParams:
    m: int
    n: int
    l: int

    def validate(self):
        if min(self.m, self.n, self.l) < 1:
            raise ValidationError("matmul dimensions must be >= 1")


@dataclass(frozen=True)
class ConvParams:
    h: int
    w: int
    k: int

    def validate(self):
        if min(self.h, self.w, self.k) < 1:
            raise ValidationError("conv dimensions must be >= 1")
        if self.k > min(self.h, self.w):
            raise ValidationError("kernel must not exceed the image: k <= min(h, w)")


@dataclass(frozen=True)
class BatchParams:
    n: int
    k: int
    c: int
    x: int

    def validate(self):
        if min(self.n, self.k, self.c, self.x) < 1:
            raise ValidationError("batchconv dimensions must be >= 1")
        if self.k > self.n:
            raise ValidationError("kernel must not exceed the image: k <= n")
        if self.c % self.x != 0:
            raise ValidationError("x must divide c")


@dataclass(frozen=True)
class Im2colParams:
    n: int
    k: int

    def validate(self):
        if min(self.n, self.k) < 1:
            raise ValidationError("im2col dimensions must be >= 1")
        if self.k > self.n:
            raise ValidationError("kernel must not exceed the image: k <= n")


@dataclass(frozen=True)
class FftParams:
    n: int

    def validate(self):
        if self.n < 1 or self.n & (self.n - 1):
            raise ValidationError("n must be a power of 2")


@dataclass(frozen=True)
class GenSpec:
    """Algorithm tag plus its parameter record."""

    algorithm: str
    params: object

    def validate(self):
        if self.algorithm not in KERNELS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        self.params.validate()


@dataclass(frozen=True)
class Kernel:
    """Everything dmclab knows about one traced algorithm.

    params: parameter record; its fields, in order, are the generator's
      arguments and the flags `dmclab gen` reads.
    generator, count: the trace and its exact length, from those fields.
    sweep_flags: flags a sweep point takes besides the swept size n;
      a flag given as a string (batchconv's --x) is swept as a range too.
    square: (n, *sweep flag values) -> params of the square sweep point.
    model: params -> the sweep's model columns, including model_total.
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
    def __init__(self):
        self.objects: list[DataObject] = []
        self.accesses: list[tuple[int, int]] = []

    def new_object(self, name: str, size: int) -> int:
        oid = len(self.objects)
        self.objects.append(DataObject(id=oid, name=name, size=size))
        return oid

    def access(self, oid: int, offset: int) -> None:
        self.accesses.append((oid, offset))

    def build(self) -> Trace:
        # generators index within declared bounds by construction
        return Trace(self.objects, self.accesses, validate=False)


def generate(spec: GenSpec) -> Trace:
    """Dispatch a GenSpec to its kernel's generator."""
    spec.validate()
    return KERNELS[spec.algorithm].generator(*astuple(spec.params))


def access_count(spec: GenSpec) -> int:
    """Exact trace length for a GenSpec, without generating it."""
    spec.validate()
    return KERNELS[spec.algorithm].count(*astuple(spec.params))


def _fft_access_count(n: int) -> int:
    if n == 1:
        return 1
    # each call of size N > 1: 2N divide accesses + 5N/2 conquer accesses
    total = 0
    size = n
    calls = 1
    while size > 1:
        total += calls * (2 * size + 5 * size // 2)
        calls *= 2
        size //= 2
    return total + n  # one read per base case


def gen_matmul(m: int, n: int, l: int) -> Trace:
    """Naive triple-loop product of an m*n matrix with an n*l matrix.

    Per inner iteration: read A[i][k], read B[k][j]; the running sum
    stays in a register and C[i][j] is written once per (i, j).
    """
    MatmulParams(m, n, l).validate()
    b = _TraceBuilder()
    a_obj = b.new_object("A", m * n)
    b_obj = b.new_object("B", n * l)
    c_obj = b.new_object("C", m * l)
    access = b.access
    for i in range(m):
        for j in range(l):
            for k in range(n):
                access(a_obj, i * n + k)
                access(b_obj, k * l + j)
            access(c_obj, i * l + j)
    return b.build()


def gen_conv(h: int, w: int, k: int) -> Trace:
    """Naive valid convolution of an h*w image with a k*k kernel.

    Windows sweep row-major; per kernel cell the kernel element is read,
    then the image element; one result write per window.
    """
    ConvParams(h, w, k).validate()
    b = _TraceBuilder()
    img = b.new_object("I", h * w)
    ker = b.new_object("K", k * k)
    res = b.new_object("R", (h - k + 1) * (w - k + 1))
    access = b.access
    out_w = w - k + 1
    for i in range(h - k + 1):
        for j in range(out_w):
            for y in range(k):
                for x in range(k):
                    access(ker, y * k + x)
                    access(img, (i + y) * w + (j + x))
            access(res, i * out_w + j)
    return b.build()


def gen_im2col(n: int, k: int) -> Trace:
    """im2col lowering of an n*n convolution with a k*k kernel.

    Copy phase: each window's elements are copied into one row of the
    patch matrix (read image, write patch per cell).  Multiply phase:
    row-major matrix-vector product of the (n-k+1)^2 x k^2 patch matrix
    with the flattened kernel, register accumulator, one write per
    output element.
    """
    Im2colParams(n, k).validate()
    b = _TraceBuilder()
    img = b.new_object("I", n * n)
    ker = b.new_object("Kv", k * k)
    out_n = n - k + 1
    patches = b.new_object("R", out_n * out_n * k * k)
    out = b.new_object("out", out_n * out_n)
    access = b.access
    for i in range(out_n):
        for j in range(out_n):
            p = 0
            row = (i * out_n + j) * k * k
            for y in range(k):
                for x in range(k):
                    access(img, (i + y) * n + (j + x))
                    access(patches, row + p)
                    p += 1
    kk = k * k
    for row in range(out_n * out_n):
        for col in range(kk):
            access(patches, row * kk + col)
            access(ker, col)
        access(out, row)
    return b.build()


def gen_batched_conv(n: int, k: int, c: int, x: int) -> Trace:
    """Multi-channel convolution processed x channels per pass.

    Each channel has its own image and kernel; all channels accumulate
    into one shared result.  Loop order: batch, window, channel in
    batch, kernel cells, then one accumulate access to R per channel.
    """
    BatchParams(n, k, c, x).validate()
    b = _TraceBuilder()
    imgs = [b.new_object(f"I{ch}", n * n) for ch in range(c)]
    kers = [b.new_object(f"K{ch}", k * k) for ch in range(c)]
    out_n = n - k + 1
    res = b.new_object("R", out_n * out_n)
    access = b.access
    for batch in range(c // x):
        channels = range(batch * x, (batch + 1) * x)
        for i in range(out_n):
            for j in range(out_n):
                for ch in channels:
                    img, ker = imgs[ch], kers[ch]
                    for y in range(k):
                        for xx in range(k):
                            access(ker, y * k + xx)
                            access(img, (i + y) * n + (j + xx))
                    access(res, i * out_n + j)
    return b.build()


def _fft_recurse(
    b: _TraceBuilder,
    src: Sequence[tuple[int, int]],
    omega: Optional[int],
    n_root: int,
    label: str,
) -> list[tuple[int, int]]:
    """Emit accesses of one recursive transform call over `src` elements.

    Divide phase: fresh even/odd copy objects per call, even copies
    emitted just before the even recursive call, odd copies just before
    the odd one.  Conquer phase reads the two child results and the
    shared root-of-unity table, writing both output halves.  Returns the
    locations of the call's output; base case returns its input after a
    single read.
    """
    n = len(src)
    access = b.access
    if n == 1:
        access(*src[0])
        return list(src)
    half = n // 2
    even = b.new_object(f"{label}.even", half)
    for i in range(half):
        access(*src[2 * i])
        access(even, i)
    f_even = _fft_recurse(b, [(even, i) for i in range(half)], omega, n_root, label + ".e")
    odd = b.new_object(f"{label}.odd", half)
    for i in range(half):
        access(*src[2 * i + 1])
        access(odd, i)
    f_odd = _fft_recurse(b, [(odd, i) for i in range(half)], omega, n_root, label + ".o")
    y = b.new_object(f"{label}.y", n)
    stride = n_root // n
    for k in range(half):
        access(*f_even[k])
        access(omega, k * stride)
        access(*f_odd[k])
        access(y, k)
        access(y, k + half)
    return [(y, i) for i in range(n)]


def gen_fft(n: int) -> Trace:
    """Recursive radix-2 transform over an n-element input, n a power of 2.

    The root-of-unity table is one global object of size n/2, indexed so
    a call of size N touches entries 0, n/N, 2n/N, ...
    """
    FftParams(n).validate()
    b = _TraceBuilder()
    a_obj = b.new_object("A", n)
    omega = b.new_object("omega", n // 2) if n > 1 else None
    _fft_recurse(b, [(a_obj, i) for i in range(n)], omega, n, "f")
    return b.build()


def gen_fft_conv2d(n: int) -> Trace:
    """Convolution via 2D transforms: forward on padded kernel and image,
    pointwise product, inverse transform on the product.

    A 2D transform is n row transforms followed by n column transforms
    over the row results.  The inverse has identical memory behaviour to
    the forward pass, so it is emitted as one more forward transform.
    """
    FftParams(n).validate()
    b = _TraceBuilder()
    ker = b.new_object("Kpad", n * n)
    img = b.new_object("I", n * n)
    omega = b.new_object("omega", n // 2) if n > 1 else None

    def transform2d(grid: list[list[tuple[int, int]]], label: str) -> list[list[tuple[int, int]]]:
        rows = [
            _fft_recurse(b, grid[r], omega, n, f"{label}.r{r}") for r in range(n)
        ]
        cols = [
            _fft_recurse(b, [rows[r][c] for r in range(n)], omega, n, f"{label}.c{c}")
            for c in range(n)
        ]
        return [[cols[c][r] for c in range(n)] for r in range(n)]

    def obj_grid(oid: int) -> list[list[tuple[int, int]]]:
        return [[(oid, r * n + c) for c in range(n)] for r in range(n)]

    ker_t = transform2d(obj_grid(ker), "K")
    img_t = transform2d(obj_grid(img), "I")
    prod = b.new_object("P", n * n)
    for r in range(n):
        for c in range(n):
            b.access(*ker_t[r][c])
            b.access(*img_t[r][c])
            b.access(prod, r * n + c)
    transform2d(obj_grid(prod), "P")
    return b.build()


# --- kernel registry --------------------------------------------------------


def _im2col_count(n: int, k: int) -> int:
    nw = (n - k + 1) ** 2
    return nw * 2 * k**2 + nw * (2 * k**2 + 1)


def _fftconv2d_count(n: int) -> int:
    per_2d = 2 * n * _fft_access_count(n)
    return 3 * per_2d + 3 * n * n


def _conv_columns(p: ConvParams) -> dict:
    res = models.model_conv(p.h, p.w, p.k)
    return {"model_total": res.total, "model_asymptotic": res.asymptotic}


def _fft_columns(p: FftParams) -> dict:
    lower, upper = models.model_fft_bounds(p.n)
    return {"model_lower": lower, "model_upper": upper, "model_total": lower}


KERNELS = {
    "matmul": Kernel(
        MatmulParams, gen_matmul,
        lambda m, n, l: 2 * m * n * l + m * l,
        (), lambda n: MatmulParams(n, n, n),
        lambda p: {"model_total": models.model_matmul(p.m, p.n, p.l)}),
    "conv": Kernel(
        ConvParams, gen_conv,
        lambda h, w, k: (h - k + 1) * (w - k + 1) * (2 * k**2 + 1),
        ("k",), lambda n, k: ConvParams(n, n, k),
        _conv_columns),
    "im2col": Kernel(
        Im2colParams, gen_im2col, _im2col_count,
        ("k",), Im2colParams,
        lambda p: {"model_total": models.model_im2col(p.n, p.k).total}),
    "batchconv": Kernel(
        BatchParams, gen_batched_conv,
        lambda n, k, c, x: (n - k + 1) ** 2 * c * (2 * k**2 + 1),
        ("k", "c", "x"), BatchParams,
        lambda p: {"model_total": models.model_batched(p.n, p.k, p.c, p.x).total}),
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
