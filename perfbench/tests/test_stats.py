import random

import pytest

from perfbench.stats import TAIL_BEYOND, spread, tail


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 1001))
    random.Random(0).shuffle(samples)
    result = tail(samples)
    assert result.samples == 1000
    assert result.percentile == pytest.approx(99.0)
    assert result.value == 990
    assert sum(value > result.value for value in samples) == TAIL_BEYOND


def test_tail_percentile_depends_on_the_sample_count():
    result = tail([float(value) for value in range(250)])
    assert result.percentile == pytest.approx(96.0)
    assert result.value == 239.0
    assert result.samples == 250


def test_smallest_sample_with_a_tail():
    result = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0])
    assert result.samples == 11
    assert result.percentile == pytest.approx(100.0 / 11)
    assert result.value == 0.0


def test_ties_count_as_beyond_only_when_larger_ranks():
    samples = [1.0] * 20 + [2.0] * 10
    result = tail(samples)
    assert result.value == 1.0
    assert result.percentile == pytest.approx(100.0 * 20 / 30)


@pytest.mark.parametrize("count", [0, 1, TAIL_BEYOND])
def test_too_few_samples_have_no_tail(count):
    with pytest.raises(ValueError):
        tail([1.0] * count)


def test_spread_is_iqr_over_median():
    assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    # quantiles(n=4) of 1..9 are 2.5 and 7.5; median 5.
    assert spread([float(value) for value in range(1, 10)]) == \
        pytest.approx(1.0)
