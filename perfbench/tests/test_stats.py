"""The percentile rule and the serve ladder's max_rate selection."""

import math

import pytest

import stats


@pytest.mark.parametrize("n, q", [
    (1000, 0.99), (5000, 0.99), (500, 0.98), (200, 0.95), (11, 0.09),
])
def test_supported_quantile_leaves_ten_samples_beyond(n, q):
    assert stats.supported_quantile(n) == pytest.approx(q)
    assert n * (1 - stats.supported_quantile(n)) >= stats.MIN_BEYOND - 1e-9


@pytest.mark.parametrize("n", [0, 1, 10])
def test_too_few_samples_have_no_tail(n):
    assert stats.supported_quantile(n) is None
    assert stats.tail(list(range(n))) == (None, None)


def test_tail_of_1000_is_p99():
    values = list(range(1, 1001))
    q, value = stats.tail(values)
    assert q == 0.99
    assert value == pytest.approx(stats.percentile(values, 0.99))
    assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2.5
    assert stats.percentile([7], 0.99) == 7
    assert stats.percentile([1, 3], 0.0) == 1


def test_describe_names_the_tail_and_count():
    text = stats.describe([1.0] * 500, " ms")
    assert "p98" in text and "n=500" in text
    assert "too few" in stats.describe([1.0, 2.0], " ms")


def test_ladder_is_geometric():
    rungs = stats.ladder(40, 1.06, 5)
    assert rungs[0] == 40
    assert all(b / a == pytest.approx(1.06, rel=1e-3)
               for a, b in zip(rungs, rungs[1:]))


def test_backlog_growth_ignores_one_stall():
    steady = [2] * 100
    assert not stats.backlog_growing(steady)
    stall = [2] * 90 + [30] * 10   # a short burst at the very end
    assert not stats.backlog_growing(stall)
    growing = list(range(100))
    assert stats.backlog_growing(growing)


def test_step_passes_counts_failures_as_misses():
    ok = [1.0] * 1000
    assert stats.step_passes(ok, 5.0, [1] * 1000)
    failed = [1.0] * 980 + [math.inf] * 20
    assert not stats.step_passes(failed, 5.0, [1] * 1000)
    assert not stats.step_passes([1.0] * 5, 5.0, [1] * 5)


def _run(search, probe) -> int:
    """Drive a Staircase to its end, one probe per rung it names."""
    i = search.next()
    while i is not None:
        search.record(i, probe(i))
        i = search.next()
    return search.best


def _search(capacity_rung, n=40, start=10, stride=3, settle=10):
    probed = []

    def probe(i):
        probed.append(i)
        return i <= capacity_rung

    return _run(stats.Staircase(n, start, stride, settle), probe), probed


@pytest.mark.parametrize("capacity_rung", [0, 3, 9, 10, 11, 17, 25, 38])
def test_staircase_finds_the_highest_passing_rung(capacity_rung):
    best, probed = _search(capacity_rung)
    assert best == capacity_rung
    # it ends up hovering between the last passing and first failing rung
    assert set(probed[-4:]) == {capacity_rung, capacity_rung + 1}
    assert len(probed) <= 10 + 40 // 3 + 1


def test_staircase_at_the_ends_of_the_ladder():
    assert _search(-1)[0] == -1           # nothing passes
    assert _search(39)[0] == 39           # everything passes


def test_one_slow_stretch_moves_the_result_by_one_rung_at_most():
    """Two stalled probes while hovering fail rungs that would pass."""
    stalls = iter([False, False])
    probed = []

    def probe(i):
        ok = i <= 17
        if len(probed) >= 3 and ok:    # past the climb, two stall
            ok = next(stalls, True)
        probed.append(i)
        return ok

    best = _run(stats.Staircase(40, 10, 3, 10), probe)
    assert best in (16, 17)


def test_max_rate_selection_on_a_synthetic_ladder():
    """A server whose tail latency explodes past 300 req/s."""
    rungs = stats.ladder(40, 1.06, 70)

    def probe(i):
        rate = rungs[i]
        lat = [2.0] * 980 + [2.0 if rate <= 300 else 80.0] * 20
        return stats.step_passes(lat, 30.0, [1] * 1000)

    best = _run(stats.Staircase(len(rungs), 20, 3, 10), probe)
    assert rungs[best] <= 300 < rungs[best + 1]
