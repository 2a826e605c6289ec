"""Concurrency timeline bucketing (Fig. 12 curves)."""

from repro.hw.machine import small_test_machine
from repro.runtime.ops import Compute, YieldPoint
from repro.runtime.policy import StaticSpreadStrategy
from repro.obs.profiler import concurrency_series
from repro.runtime.runtime import Runtime


def _report(workers=4):
    rt = Runtime(small_test_machine(2, 2, 2), workers, StaticSpreadStrategy(1),
                 seed=3, collect_timeline=True)

    def body(wid):
        for _ in range(4):
            yield Compute(200.0)
            yield YieldPoint()
        return wid

    for w in range(workers):
        rt.spawn(body, w, pin_worker=w)
    return rt.run()


def test_series_bounded_by_worker_count():
    report = _report(4)
    series = concurrency_series(report, buckets=10)
    assert series
    assert all(0 <= c <= 4.001 for _, c in series)
    # Mid-run buckets should show real concurrency.
    assert max(c for _, c in series) > 1.5


def test_series_x_monotone():
    series = concurrency_series(_report(2), buckets=8)
    xs = [x for x, _ in series]
    assert xs == sorted(xs)


def test_degenerate_inputs():
    report = _report(1)
    assert concurrency_series(report, buckets=0) == []
    report.concurrency_timeline = []
    assert concurrency_series(report, buckets=5) == []
