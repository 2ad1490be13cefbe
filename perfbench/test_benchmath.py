"""Tests of the benchmark's own statistics."""

import math

import pytest

from benchmath import drift, geometric_mean, median, spearman, tail_percentile


def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_caps_at_target_with_many_samples():
    xs = list(range(1, 1001))
    value, fraction, n = tail_percentile(xs)
    assert (value, fraction, n) == (900, 0.9, 1000)
    assert sum(x > value for x in xs) >= 10


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(11, 120):
        xs = [float(i) for i in range(n)]
        value, fraction, count = tail_percentile(xs)
        assert count == n
        assert sum(x > value for x in xs) >= 10
        assert fraction <= 0.9
    value, fraction, _ = tail_percentile([float(i) for i in range(15)])
    assert (value, fraction) == (4.0, 5 / 15)


def test_tail_percentile_falls_back_to_maximum():
    assert tail_percentile([5.0, 1.0, 3.0]) == (5.0, 1.0, 3)
    assert tail_percentile([2.0] * 10) == (2.0, 1.0, 10)


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([0.5]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_spearman_known_values():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # one swapped pair among four: 1 - 6 * 2 / (4 * 15)
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)
    # ties share their mean rank
    assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(math.sqrt(3) / 2)
    assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))


def test_drift():
    record = {"a": [1.0, -2.0, 0.0], "b": [10.0]}
    assert drift({"a": [1.0, -2.0, 0.0], "b": [10.0]}, record) == (0.0, "")
    value, where = drift({"a": [1.0, -2.0, 1e-9], "b": [10.0]}, record)
    assert where == "a" and value == pytest.approx(0.5e-9)
    value, where = drift({"a": [1.0, -2.0, 0.0], "b": [11.0]}, record)
    assert where == "b" and value == pytest.approx(0.1)
    assert drift({"a": [1.0, -2.0]}, record) == (math.inf, "a")
    assert drift({"a": [1.0, -2.0, 0.0]}, record) == (math.inf, "b")
