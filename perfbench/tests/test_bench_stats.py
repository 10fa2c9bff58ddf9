"""Percentile rule: report the highest percentile with ten samples beyond it."""

import math

import pytest

from thzbench import stats


def test_fifty_samples_give_p80():
    assert stats.tail_percentile(50) == 80


def test_rule_leaves_at_least_ten_beyond():
    for n in range(20, 400):
        p = stats.tail_percentile(n)
        assert n - math.ceil(p / 100 * n) >= stats.MIN_TAIL
        if p < 99:
            assert n - math.ceil((p + 1) / 100 * n) < stats.MIN_TAIL


def test_too_few_samples_have_no_tail_percentile():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50


def test_nearest_rank_percentile_and_median():
    values = list(range(1, 51))
    assert stats.percentile(values, 80) == 40.0
    assert sum(v > stats.percentile(values, 80) for v in values) == 10
    assert stats.median([3, 1, 2]) == 2.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])
