"""Closed-form data movement cost models.

Every model returns a small result record with a per-term breakdown and
a total, so callers can see which reuse class dominates.  Costs are
dimensionless DMD units in double precision.  Logarithms in the FFT
formulas are base 2 (the recursion depth of the algorithm).

Convolution component formulas assume the image comfortably exceeds the
kernel (roughly n >= 3k); out of that regime a component can evaluate
negative and is clamped to zero with a regime flag instead of being
extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from dmclab.core import ValidationError

SQRT2 = math.sqrt(2.0)


def model_matmul(m: int, n: int, l: int) -> float:
    """Cost of the naive product of an m*n matrix with an n*l matrix:
    m * (n*l)**1.5."""
    if min(m, n, l) < 1:
        raise ValidationError("matmul dimensions must be >= 1")
    return m * (n * l) ** 1.5


def model_cold(m: float) -> float:
    """Cold-miss lower bound for touching m distinct data: m**1.5.

    Each of the m items must have been at least m units away before its
    first load.  The engine charges cold misses with this function under
    the name `cold_cost`.
    """
    if m < 0:
        raise ValidationError("footprint must be non-negative")
    return m**1.5


@dataclass(frozen=True)
class ConvModelResult:
    """Breakdown of spatial convolution cost.

    kernel_term, row_term, col_term are the exact square-image component
    formulas; `total` is their sum.  `asymptotic` keeps only the two
    leading terms and is also defined for rectangular images.  `clamped`
    lists components that went negative (image too small for the
    formulas) and were clamped to zero.
    """

    kernel_term: float
    row_term: float
    col_term: float
    total: float
    asymptotic: float
    clamped: tuple[str, ...] = ()


def model_conv(h: int, w: int, k: int) -> ConvModelResult:
    """Spatial convolution of an h*w image with a k*k kernel.

    Square components (n = h = w):
      kernel reuses   k^2 ((n-k+1)^2 - 1) sqrt(2k^2 - 1)
      row-wise reuses k (k-1) (n-3k+2) (n-k) sqrt(2k^2 - 1)
      col-wise reuses (k-1) ((n-k-1)^2 - 1) sqrt(n k + k^2)
    Asymptotic: 2 sqrt(2) k^3 h w + k^1.5 h w^1.5.
    """
    if min(h, w, k) < 1 or k > min(h, w):
        raise ValidationError("need 1 <= k <= min(h, w)")
    asymptotic = 2 * SQRT2 * k**3 * h * w + k**1.5 * h * w**1.5
    if h != w:
        return ConvModelResult(
            kernel_term=float("nan"),
            row_term=float("nan"),
            col_term=float("nan"),
            total=float("nan"),
            asymptotic=asymptotic,
        )
    n = h
    short = math.sqrt(2 * k * k - 1)
    terms = {
        "kernel_term": k * k * ((n - k + 1) ** 2 - 1) * short,
        "row_term": k * (k - 1) * (n - 3 * k + 2) * (n - k) * short,
        "col_term": (k - 1) * ((n - k - 1) ** 2 - 1) * math.sqrt(n * k + k * k),
    }
    clamped = tuple(name for name, v in terms.items() if v < 0)
    for name in clamped:
        terms[name] = 0.0
    return ConvModelResult(
        **terms,
        total=sum(terms.values()),
        asymptotic=asymptotic,
        clamped=clamped,
    )


@dataclass(frozen=True)
class BatchedConvResult:
    """conv_term: c sqrt(x) times the per-channel convolution cost;
    result_term: cost of accumulating channel results across passes."""

    conv_term: float
    result_term: float
    total: float


def model_batched(n: int, k: int, c: int, x: int) -> BatchedConvResult:
    """Convolution over c channels processed x at a time:
    c sqrt(x) (2 sqrt(2) k^3 n^2 + k^1.5 n^2.5) + sqrt(x) (c/x - 1) n^3.

    n may be real-valued, so the advisor can bisect on it."""
    if min(n, k, c, x) < 1 or k > n:
        raise ValidationError("need 1 <= k <= n and positive c, x")
    if c % x != 0:
        raise ValidationError("x must divide c")
    sx = math.sqrt(x)
    conv_term = c * sx * (2 * SQRT2 * k**3 * n**2 + k**1.5 * n**2.5)
    result_term = sx * (c / x - 1) * n**3
    return BatchedConvResult(conv_term, result_term, conv_term + result_term)


@dataclass(frozen=True)
class Im2colResult:
    conv_like_terms: tuple[float, float]
    r_term: float
    total: float


def model_im2col(n: int, k: int) -> Im2colResult:
    """Convolution via im2col: the two spatial-convolution terms plus
    k n^3 for reuses of the patch matrix."""
    if min(n, k) < 1 or k > n:
        raise ValidationError("need 1 <= k <= n")
    t1 = 2 * SQRT2 * k**3 * n**2
    t2 = k**1.5 * n**2.5
    r_term = k * n**3
    return Im2colResult((t1, t2), r_term, t1 + t2 + r_term)


def model_blocked_conv(n: int, k: int, b: int) -> float:
    """Square convolution measured in b-element cache blocks: the
    asymptotic element cost divided by sqrt(b).

    The 1/sqrt(b) scaling is an idealisation.  It is exact only when
    every reuse interval consists of whole blocks, and it does not track
    `analyze --block` on the naive convolution trace: there the long
    column reuses shrink by b**-1.5 and the short reuses level off at a
    few blocks (measured blocked/(element/sqrt(b)) at n=256 is 0.69 for
    b=4 and 0.99 for b=16, drifting with n)."""
    if b < 1:
        raise ValidationError("block size must be >= 1")
    return model_conv(n, n, k).asymptotic / math.sqrt(b)


# --- FFT --------------------------------------------------------------------


def fft_level_data_size(level: int) -> float:
    """Distinct elements touched by one recursive call at `level`:
    (2L + 1.5) * 2**L.  Fractional at L=0 by construction."""
    if level < 0:
        raise ValidationError("level must be >= 0")
    return (2 * level + 1.5) * 2**level


@dataclass(frozen=True)
class FftComponents:
    """Component sums of the recursive transform's cost.

    level_sizes[L] is the data size of a call at level L.  divide_sum
    and conquer_sum share the printed double-sum form, with the per-call
    overhead taken as C(a) = a (the overhead is only specified as a
    small multiple of the call size).  distant_count maps a
    root-of-unity index to its number of distant reuses.
    """

    n: int
    level_sizes: tuple[float, ...]
    divide_sum: float
    conquer_sum: float
    distant_count: Callable[[int], int] = field(repr=False)


def fft_distant_reuses(n: int, index: int) -> int:
    """Distant reuses of root-of-unity entry `index` in a size-n transform.

    Entry 0 appears at every level and has n/4 - 1 distant reuses; an
    entry with 2-adic valuation v bottoms out v levels above that and
    has 2**(v-1) - 1; odd entries appear only at the root and have none.
    """
    if index == 0:
        return max(n // 4 - 1, 0)
    v = (index & -index).bit_length() - 1
    return max(2 ** (v - 1) - 1, 0)


def model_fft_components(n: int) -> FftComponents:
    """Evaluate the transform's component formulas for input size n."""
    _require_pow2(n)
    logn = n.bit_length() - 1
    component_sum = 0.0  # one double sum serves both divide and conquer
    for d in range(2, logn + 1):
        base = fft_level_data_size(d - 1)
        inner = math.fsum(math.sqrt(base + a) for a in range(2 ** (d - 1) + 1))
        component_sum += 2 ** (logn - d) * inner
    return FftComponents(
        n=n,
        level_sizes=tuple(fft_level_data_size(level) for level in range(logn + 1)),
        divide_sum=component_sum,
        conquer_sum=component_sum,
        distant_count=lambda index: fft_distant_reuses(n, index),
    )


def model_fft_bounds(n: int) -> tuple[float, float]:
    """Leading-coefficient bounds on the transform's cost:
    [6.4, 6.5] * n^1.5 * sqrt(log2 n)."""
    _require_pow2(n)
    shape = n**1.5 * math.sqrt(math.log2(n))
    return 6.4 * shape, 6.5 * shape


def model_fftconv_lower(n: int) -> float:
    """Lower bound for convolution via 2D transforms:
    38.5 * n^2.5 * sqrt(log2 n)."""
    _require_pow2(n)
    return 38.5 * n**2.5 * math.sqrt(math.log2(n))


def _require_pow2(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValidationError("n must be a power of 2")


# --- attention --------------------------------------------------------------


@dataclass(frozen=True)
class AttentionResult:
    head_cost: float
    mha_cost: float


def model_attention(l: int, d: int, h: int) -> AttentionResult:
    """Single-head and multi-head attention costs with head width d/h.

    head_cost = l d^2.5 h + l d^3 / sqrt(h); valid in the l, h << d
    regime.  mha_cost = l d^3, independent of the head count.
    """
    if min(l, d, h) < 1:
        raise ValidationError("attention parameters must be >= 1")
    if d % h != 0:
        raise ValidationError("head count must divide the model dimension")
    head = l * d**2.5 * h + l * d**3 / math.sqrt(h)
    return AttentionResult(head_cost=head, mha_cost=l * d**3)


@dataclass(frozen=True)
class GqaResult:
    """cold_term: allocation cost of the per-group projection and score
    matrices; reuse_term: cross-head reuse of shared projections within
    a group; asymptotic: p d^3 with p = h/q groups."""

    cold_term: float
    reuse_term: float
    total: float
    asymptotic: float


def model_gqa(l: int, d: int, h: int, q: int) -> GqaResult:
    """Grouped-query attention with h heads in groups of q:
    p (d^2 + 2 d^2/h)^1.5 + 2 p (q-1) (d^2/h) sqrt(l^2 + 4 d^2/h).

    d may be real-valued, so the advisor can bisect on it."""
    if min(l, h, q) < 1 or d <= 0:
        raise ValidationError("GQA parameters must be >= 1")
    if h % q != 0:
        raise ValidationError("group size must divide the head count")
    p = h // q
    d2 = float(d) * d
    cold = p * (d2 + 2 * d2 / h) ** 1.5
    reuse = 2 * p * (q - 1) * (d2 / h) * math.sqrt(l * l + 4 * d2 / h)
    return GqaResult(cold, reuse, cold + reuse, p * d**3)


@dataclass(frozen=True)
class TransformerResult:
    """Per-stage costs of one decoder forward pass plus the n-layer total.

    The feed-forward entry sqrt(4 d f) is kept as printed even though it
    is dimensionally out of line with the other stages; `as_printed`
    flags it.
    """

    stages: dict[str, float]
    forward_total: float
    as_printed: tuple[str, ...] = ("feed_forward",)


def model_transformer(n_layers: int, l: int, d: int, f: int) -> TransformerResult:
    if min(n_layers, l, d, f) < 1:
        raise ValidationError("transformer parameters must be >= 1")
    stages = {
        "embedding": (d * l) ** 1.5,
        "positional_encoding": (d * l) ** 1.5,
        "masked_mha": l * d**3,
        "mha": l * d**3,
        "feed_forward": math.sqrt(4 * d * f),
        "linear": 3 * l * d**1.5,
        "softmax": 2 * l**2.5,
    }
    return TransformerResult(stages=stages, forward_total=n_layers * 2 * l * d**3)
