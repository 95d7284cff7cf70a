"""Parameter advisors: argmin tables, crossovers, and inversions."""

import math

import pytest

from dmclab.advisor import (
    advise_batch,
    advise_gqa_dim,
    batched_fraction,
    compare_conv_fft,
    crossover_channels,
    crossover_image_size,
    orientation_ratio,
)
from dmclab.core import ValidationError
from dmclab.models import model_batched, model_gqa


def test_advise_batch_is_argmin_over_divisors():
    res = advise_batch(256, 3, 10)
    assert set(res.costs) == {1, 2, 5, 10}
    assert res.recommended == min(res.costs, key=res.costs.get)
    assert res.costs[res.recommended] <= min(res.costs.values())


def test_advise_batch_prefers_full_batch_for_large_images():
    assert advise_batch(1024, 3, 10).recommended == 10


def test_advise_batch_prefers_no_batching_for_small_images():
    assert advise_batch(32, 3, 10).recommended == 1


def test_crossover_image_size_matches_break_even():
    res = crossover_image_size(3, 10, 10)
    lo, hi = res.bracket
    assert hi - lo == 1
    assert lo <= res.n_star <= hi
    # the continuous curves actually cross there
    assert batched_fraction(res.n_star, 3, 10, 10) == pytest.approx(1.0, abs=1e-4)
    assert batched_fraction(lo - 50, 3, 10, 10) > 1.0
    assert batched_fraction(hi + 50, 3, 10, 10) < 1.0


def test_crossover_image_size_validation():
    with pytest.raises(ValidationError):
        crossover_image_size(3, 10, 1)
    with pytest.raises(ValidationError):
        crossover_image_size(3, 10, 3)


def test_crossover_channels_is_minimal():
    c_star = crossover_channels(1024, 3)
    assert model_batched(1024, 3, c_star, c_star).total >= model_batched(1024, 3, c_star, 1).total
    below = c_star - 1
    assert model_batched(1024, 3, below, below).total < model_batched(1024, 3, below, 1).total


def test_gqa_dim_inverts_the_cost_model():
    res = advise_gqa_dim(1e5, 8, 2)
    assert res.achieved_cost == pytest.approx(1e5, rel=1e-5)
    assert res.asymptotic_d == pytest.approx((1e5 * 2 / 8) ** (1 / 3))


def test_gqa_dim_monotone_in_group_size():
    for h in (8, 32):
        dims = [advise_gqa_dim(1e5, h, q).d for q in (1, 2, h // 2, h)]
        assert dims == sorted(dims)
        assert len(set(dims)) == len(dims)


def test_gqa_dim_include_matmul_lowers_affordable_dim():
    base = advise_gqa_dim(1e7, 8, 2)
    with_mm = advise_gqa_dim(1e7, 8, 2, include_matmul=True)
    assert with_mm.d < base.d


def test_gqa_dim_validation():
    with pytest.raises(ValidationError):
        advise_gqa_dim(-1, 8, 2)
    with pytest.raises(ValidationError):
        advise_gqa_dim(1e5, 8, 3)
    with pytest.raises(ValidationError):
        advise_gqa_dim(1e5, 8, 0)


@pytest.mark.parametrize("budget", [math.inf, math.nan])
def test_gqa_dim_rejects_non_finite_budget(budget):
    with pytest.raises(ValidationError):
        advise_gqa_dim(budget, 8, 2)


def test_compare_conv_fft_prefers_spatial_for_small_kernels():
    for k in (3, 5, 7):
        res = compare_conv_fft(512, k)
        assert res.recommended == "spatial"
        assert res.costs["spatial"] < res.costs["fft"]
        assert any("lower bound" in note for note in res.notes)


def test_compare_conv_fft_flags_cubed_kernel_regime():
    res = compare_conv_fft(64, 8)
    assert any("k^3 > n" in note for note in res.notes)
    assert not any("k^3 > n" in note for note in compare_conv_fft(512, 7).notes)


def test_orientation_ratios():
    res = orientation_ratio(2)
    assert res.square_over_portrait == pytest.approx(2**0.25)
    assert res.landscape_over_portrait == pytest.approx(math.sqrt(2))
    with pytest.raises(ValidationError):
        orientation_ratio(0)


def test_orientation_dominant_costs_order():
    res = orientation_ratio(2, pixels=1e6, k=3)
    costs = res.dominant_costs
    assert costs["portrait"] < costs["square"] < costs["landscape"]
    assert costs["square"] / costs["portrait"] == pytest.approx(2**0.25)
    assert costs["landscape"] / costs["portrait"] == pytest.approx(2**0.5)
