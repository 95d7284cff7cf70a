"""Invert the cost models to recommend algorithmic parameters.

All routines are pure functions over `dmclab.models`.  Crossovers are
solved on the real line (bisection, relative tolerance 1e-6, bracket
doubling from the smallest size the model accepts) and reported
together with their integer neighborhood, since thresholds quoted in
practice are integers read off continuous curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from dmclab.core import ValidationError
from dmclab.models import (
    model_batched,
    model_conv,
    model_fftconv_lower,
    model_gqa,
)

BISECT_REL_TOL = 1e-6
BISECT_MAX_ITER = 200
CHANNELS_SEARCH_MAX = 10**6


@dataclass(frozen=True)
class AdvisorResult:
    """A recommended parameter value with the costs that justified it."""

    recommended: object
    costs: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


def _divisors(c: int) -> list[int]:
    return [x for x in range(1, c + 1) if c % x == 0]


def advise_batch(n: int, k: int, c: int) -> AdvisorResult:
    """Pick the batch size x (a divisor of c) minimizing the batched
    convolution cost; returns the full candidate table."""
    if k > n:
        raise ValidationError("need k <= n")
    if c < 1:
        raise ValidationError("need c >= 1")
    costs = {x: model_batched(n, k, c, x).total for x in _divisors(c)}
    best = min(costs, key=costs.get)
    return AdvisorResult(recommended=best, costs=costs)


def _bisect_root(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= BISECT_REL_TOL * max(abs(mid), 1.0):
            return mid
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ImageSizeCrossover:
    n_star: float
    bracket: tuple[int, int]


def crossover_image_size(k: int, c: int, x: int) -> ImageSizeCrossover:
    """Break-even image size between batch size x and no batching.

    Below n* batching costs more (the sqrt(x) reuse inflation
    dominates); above it the saved result-accumulation passes win.
    Raises if no sign change exists in [k, 1e7].
    """
    if x <= 1:
        raise ValidationError("need a batch size x > 1 to compare against x = 1")

    def diff(n: float) -> float:
        return model_batched(n, k, c, x).total - model_batched(n, k, c, 1).total

    # the model needs n >= k
    lo = float(k)
    hi = 2.0 * k
    while diff(hi) > 0:
        lo, hi = hi, hi * 2
        if hi > 1e7:
            raise ValidationError("no batching crossover for image sizes up to 1e7")
    if diff(lo) <= 0:
        raise ValidationError("batching already wins at the smallest image size")
    n_star = _bisect_root(diff, lo, hi)
    return ImageSizeCrossover(n_star, (math.floor(n_star), math.ceil(n_star)))


def crossover_channels(n: int, k: int) -> int:
    """Smallest channel count c at which one single batch (x = c) stops
    beating unbatched processing."""
    if k > n:
        raise ValidationError("need k <= n")
    for c in range(2, CHANNELS_SEARCH_MAX + 1):
        if model_batched(n, k, c, c).total >= model_batched(n, k, c, 1).total:
            return c
    raise ValidationError(f"single-batch processing still wins at c = {CHANNELS_SEARCH_MAX}")


@dataclass(frozen=True)
class GqaDimResult:
    """Largest model dimension affordable under a DMD budget."""

    d: float
    asymptotic_d: float
    achieved_cost: float
    l: int
    include_matmul: bool


def advise_gqa_dim(
    budget: float, h: int, q: int, l: int = 64, include_matmul: bool = False
) -> GqaDimResult:
    """Largest (real-valued) model dimension d whose grouped-query
    attention cost stays within `budget`.

    The cost model is the grouped-attention breakdown as printed, which
    omits the constant matrix-multiplication cost; include_matmul adds
    the l*d^3 multi-head term back in.  Also returns the asymptotic
    inversion d = (budget * q / h) ** (1/3).
    """
    if not math.isfinite(budget):
        raise ValidationError("budget must be finite")
    if budget <= 0:
        raise ValidationError("budget must be positive")

    def cost(d: float) -> float:
        if d == 0:  # the bisection starts here; the model needs d > 0
            return 0.0
        total = model_gqa(l, d, h, q).total
        if include_matmul:
            total += l * d**3
        return total

    hi = 1.0
    while cost(hi) <= budget:
        hi *= 2
    lo = hi / 2 if hi > 1 else 0.0
    # cost is strictly increasing in d, so bisect cost(d) - budget
    d = _bisect_root(lambda v: budget - cost(v), lo, hi)
    return GqaDimResult(
        d=d,
        asymptotic_d=(budget * q / h) ** (1.0 / 3.0),
        achieved_cost=cost(d),
        l=l,
        include_matmul=include_matmul,
    )


FFT_BOUND_NOTE = (
    "transform-based cost is a coefficient lower bound "
    "(38.5 n^2.5 sqrt(log2 n)); exact summation under other accounting "
    "conventions can give substantially different values (e.g. at n=512 "
    "the bound is ~6.85e8 while figures near 3.76e8 circulate), so the "
    "bound is reported, not reconciled"
)


def compare_conv_fft(n: int, k: int) -> AdvisorResult:
    """Spatial convolution versus convolution by 2D transforms.

    For n >> k spatial convolution wins by about sqrt(log2 n); when
    k^3 > n the k^3 n^2 term dominates and the ordering asymptotically
    reverses, which is flagged.
    """
    conv = model_conv(n, n, k).asymptotic
    fft = model_fftconv_lower(n)
    notes = [FFT_BOUND_NOTE]
    if k**3 > n:
        notes.append(
            "k^3 > n: the kernel term dominates spatial convolution and the "
            "transform route becomes asymptotically cheaper"
        )
    return AdvisorResult(
        recommended="spatial" if conv <= fft else "fft",
        costs={"spatial": conv, "fft": fft},
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class OrientationResult:
    """Cost ratios of square and landscape images against a portrait of
    the same pixel count, aspect ratio m: m**0.25 and m**0.5."""

    square_over_portrait: float
    landscape_over_portrait: float
    dominant_costs: dict = field(default_factory=dict)


def orientation_ratio(m: float, pixels: float | None = None, k: int | None = None) -> OrientationResult:
    """Width/height asymmetry of convolution at equal pixel count.

    The dominant k^1.5 h w^1.5 term grows faster in width than height,
    so with height-to-width ratio m the square costs m**0.25 and the
    landscape m**0.5 times the portrait.
    """
    if not math.isfinite(m):
        raise ValidationError("aspect ratio must be finite")
    if m <= 0:
        raise ValidationError("aspect ratio must be positive")
    if pixels is not None and not math.isfinite(pixels):
        raise ValidationError("pixel count must be finite")
    if pixels is not None and pixels <= 0:
        raise ValidationError("pixel count must be positive")
    if k is not None and k < 1:
        raise ValidationError("kernel size must be >= 1")
    costs = {}
    if pixels is not None and k is not None:
        def dominant(hh: float, ww: float) -> float:
            return k**1.5 * hh * ww**1.5

        costs = {
            "portrait": dominant(math.sqrt(pixels * m), math.sqrt(pixels / m)),
            "square": dominant(math.sqrt(pixels), math.sqrt(pixels)),
            "landscape": dominant(math.sqrt(pixels / m), math.sqrt(pixels * m)),
        }
    return OrientationResult(
        square_over_portrait=m**0.25,
        landscape_over_portrait=m**0.5,
        dominant_costs=costs,
    )
