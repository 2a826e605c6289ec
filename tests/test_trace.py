"""Execution tracer: spans, migrations, exports."""

import io
import json

from repro.hw.machine import milan, small_test_machine
from repro.runtime.ops import AccessBatch, Compute, YieldPoint
from repro.runtime.policy import CharmStrategy, StaticSpreadStrategy
from repro.runtime.runtime import Runtime
from repro.obs.trace import EventKind, Tracer


def _traced_run(workers=2, rounds=3):
    rt = Runtime(small_test_machine(), workers, StaticSpreadStrategy(1), seed=3)
    tracer = Tracer(rt)

    def body(wid):
        for _ in range(rounds):
            yield Compute(100.0)
            yield YieldPoint()
        return wid

    for w in range(workers):
        rt.spawn(body, w, pin_worker=w)
    report = rt.run()
    return rt, tracer, report


def test_spans_cover_task_lifetime():
    _, tracer, report = _traced_run()
    summaries = tracer.task_summaries()
    assert len(summaries) == 2
    for s in summaries:
        # 3 yields + final finish = 4 spans per task.
        assert len(s.spans) == 4
        assert s.run_ns > 0
        assert s.first_start <= s.last_end <= report.wall_ns
        for (s0, e0, _), (s1, e1, _) in zip(s.spans, s.spans[1:]):
            assert s0 <= e0 <= s1 <= e1


def test_event_kinds_present():
    _, tracer, _ = _traced_run()
    kinds = {e.kind for e in tracer.events}
    assert EventKind.DISPATCH in kinds
    assert EventKind.PAUSE in kinds
    assert EventKind.FINISH in kinds


def test_occupancy_bounds():
    _, tracer, report = _traced_run()
    occ = tracer.worker_occupancy(report.wall_ns)
    assert occ and all(0 < v <= 1 for v in occ.values())


def test_migration_events_recorded():
    machine = milan(scale=64)
    rt = Runtime(machine, 8, CharmStrategy(), seed=3)
    tracer = Tracer(rt)
    region = rt.alloc_shared(8 << 20, name="big")

    def body(wid):
        for r in range(40):
            yield AccessBatch(region, list(range(r * 16, r * 16 + 16)))
            yield YieldPoint()
        return wid

    for w in range(8):
        rt.spawn(body, w, pin_worker=w)
    report = rt.run()
    assert len(tracer.migrations()) == report.migrations > 0
    assert all(e.detail.startswith("core ") for e in tracer.migrations())


def test_chrome_trace_export():
    _, tracer, _ = _traced_run()
    buf = io.StringIO()
    n = tracer.to_chrome_trace(buf)
    data = json.loads(buf.getvalue())
    assert len(data["traceEvents"]) == n > 0
    assert all("ts" in e for e in data["traceEvents"])


def test_longest_tasks_ordering():
    _, tracer, _ = _traced_run()
    longest = tracer.longest_tasks(2)
    assert len(longest) == 2
    assert longest[0].run_ns >= longest[1].run_ns


def test_double_install_is_noop():
    rt = Runtime(small_test_machine(), 1, StaticSpreadStrategy(1), seed=3)
    tracer = Tracer(rt)
    tracer.install()  # second call must not double-wrap

    def body():
        yield Compute(10.0)

    rt.spawn(body, pin_worker=0)
    rt.run()
    dispatches = [e for e in tracer.events if e.kind is EventKind.DISPATCH]
    assert len(dispatches) == 1
