import math

import pytest

import metrics


def test_failures_rank_slower_than_every_success():
    lat = [5.0, 1.0, 2.0]
    assert metrics.p50(lat, [False, False, False]) == 2.0
    # the fast failure (1.0 s) ranks last, so the median moves up
    assert metrics.p50(lat, [False, True, False]) == 5.0


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    value, pct, beyond = metrics.tail(lat, [False] * 100)
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_tail_counts_failures_as_slowest():
    lat = [float(i) for i in range(1, 101)]
    bad = [False] * 100
    for i in range(10):
        bad[i] = True          # the ten fastest requests failed
    value, pct, beyond = metrics.tail(lat, bad)
    assert value == 100.0 and beyond == 10
    bad[10] = True
    assert metrics.tail(lat, bad)[0] == math.inf


def test_tail_with_few_samples_reports_the_minimum():
    assert metrics.tail([3.0, 1.0, 2.0], [False] * 3) == \
        (1.0, pytest.approx(100 / 3), 2)


def test_failed_share():
    assert metrics.failed_share([False, True, False, True]) == 0.5
    assert metrics.failed_share([False]) == 0.0


def test_self_time_is_span_minus_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    assert metrics.self_times(parent, start, end) == \
        pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] cover [1, 7]; [9, 12] is clipped to [9, 10]
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 7.0, 12.0]
    assert metrics.self_times(parent, start, end)[0] == pytest.approx(3.0)
