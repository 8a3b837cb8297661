"""Quartile, median and IQR math."""

import statistics

import pytest

from stats import iqr, median, quartiles, relative_spread


def test_quartiles_use_the_statistics_exclusive_method():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert iqr(values) == 5.5
    assert relative_spread(values) == pytest.approx(1.0)


def test_single_value_and_zero_median():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert iqr([4.0]) == 0.0
    assert relative_spread([0.0, 0.0, 0.0]) == float("inf")
    assert median([3, 1, 2]) == 2


@pytest.mark.parametrize("fn", [median, iqr, quartiles])
def test_empty_input_raises(fn):
    with pytest.raises(ValueError):
        fn([])
