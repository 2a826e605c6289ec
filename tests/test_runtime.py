"""End-to-end runtime semantics: ops, scheduling, migration, reporting."""

import gc
import weakref

import pytest

from repro.baselines.oslike import OsAsyncStrategy
from repro.hw.machine import milan, small_test_machine
from repro.runtime.ops import (
    Access,
    AccessBatch,
    Compute,
    CriticalSection,
    SimLock,
    SpawnOp,
    WaitBarrier,
    WaitFuture,
    YieldPoint,
)
from repro.runtime.policy import CharmStrategy, StaticSpreadStrategy
from repro.runtime.runtime import Runtime
from repro.runtime.sync import Barrier
from repro.sim.engine import SimulationError


def _runtime(workers=4, machine=None, strategy=None, **kw):
    machine = machine or small_test_machine()
    return Runtime(machine, workers, strategy or StaticSpreadStrategy(1), seed=3, **kw)


def test_compute_advances_time():
    rt = _runtime(1)

    def body():
        yield Compute(1234.0)
        return "done"

    t = rt.spawn(body, pin_worker=0)
    report = rt.run()
    assert t.result == "done"
    assert report.wall_ns >= 1234.0


def test_spawn_and_futures():
    rt = _runtime(2)

    def child(x):
        yield Compute(10.0)
        return x * 2

    def parent():
        c = yield SpawnOp(child, (21,))
        fut = rt.completion_future(c)
        value = yield WaitFuture(fut)
        return value

    p = rt.spawn(parent, pin_worker=0)
    rt.run()
    assert p.result == 42


def test_barrier_synchronizes_tasks():
    rt = _runtime(4)
    bar = Barrier(4)
    finish_times = {}

    def body(wid):
        yield Compute(100.0 * (wid + 1))
        yield WaitBarrier(bar)
        yield Compute(1.0)
        finish_times[wid] = True
        return wid

    for w in range(4):
        rt.spawn(body, w, pin_worker=w)
    rt.run()
    assert len(finish_times) == 4
    assert bar.releases == 1


def test_work_stealing_distributes_load():
    rt = _runtime(4)

    def chunk(i):
        yield Compute(5000.0)
        return i

    def root():
        tasks = []
        for i in range(16):
            t = yield SpawnOp(chunk, (i,), pin_worker=None)
            tasks.append(t)
        for t in tasks:
            fut = rt.completion_future(t)
            if not fut.done:
                yield WaitFuture(fut)
        return len(tasks)

    rt.spawn(root, pin_worker=0)
    report = rt.run()
    assert report.tasks_completed == 17
    busy = report.per_worker_busy_ns
    assert sum(1 for b in busy if b > 0) >= 3  # several workers participated


def test_critical_section_serialises():
    rt = _runtime(2)
    lock = SimLock("L")

    def body(wid):
        yield CriticalSection(lock, 1000.0)
        return wid

    rt.spawn(body, 0, pin_worker=0)
    rt.spawn(body, 1, pin_worker=1)
    report = rt.run()
    assert lock.acquisitions == 2
    assert report.wall_ns >= 2000.0  # fully serialised


def test_access_updates_counters():
    rt = _runtime(1)
    region = rt.alloc(4096, node=0)

    def body():
        yield Access(region, 0)
        yield AccessBatch(region, list(range(region.n_blocks)))
        return None

    rt.spawn(body, pin_worker=0)
    report = rt.run()
    assert report.counters.dram >= 1
    assert report.total_accesses == 1 + region.n_blocks


def test_migration_via_policy():
    machine = milan(scale=64)
    rt = Runtime(machine, 8, CharmStrategy(), seed=3)
    big = rt.alloc_shared(8 << 20, name="big")

    def body(wid):
        for rounds in range(40):
            yield AccessBatch(big, list(range(rounds * 16, rounds * 16 + 16)))
            yield YieldPoint()
        return wid

    for w in range(8):
        rt.spawn(body, w, pin_worker=w)
    report = rt.run()
    # The working set exceeds one chiplet: workers must have spread out.
    assert report.migrations > 0
    occupied = {machine.topo.chiplet_of_core(w.core) for w in rt.workers}
    assert len(occupied) > 1


def test_finished_runtime_is_freed_without_cyclic_gc():
    """A finished run leaves no Runtime <-> Worker cycle behind.

    Dropping the runtime must free its machine (and with it the workers
    and caches) by reference counting alone, so a sweep's peak memory
    does not follow the cyclic collector's timing.
    """
    gc.disable()
    try:
        machine = milan(scale=64)
        alive = weakref.ref(machine)
        rt = Runtime(machine, 8, CharmStrategy(), seed=3)
        del machine
        shared = rt.alloc_shared(1 << 20, name="shared")

        def body(wid):
            for rounds in range(4):
                yield AccessBatch(shared, list(range(rounds * 16, rounds * 16 + 16)))
                yield YieldPoint()
            return wid

        for w in range(16):
            rt.spawn(body, w)
        report = rt.run()
        assert report.tasks_completed == 16
        assert alive() is not None
        del rt
        assert alive() is None
    finally:
        gc.enable()


def test_migration_denied_when_core_held():
    rt = _runtime(2)
    w0, w1 = rt.workers
    assert not rt.request_migration(w0, w1.core)
    assert rt.request_migration(w0, w0.core)  # self is a no-op grant


def test_run_twice_rejected():
    rt = _runtime(1)
    rt.spawn(lambda: iter(()), pin_worker=0)

    def body():
        yield Compute(1.0)

    rt2 = _runtime(1)
    rt2.spawn(body, pin_worker=0)
    rt2.run()
    with pytest.raises(SimulationError):
        rt2.run()


def test_run_without_tasks_rejected():
    with pytest.raises(SimulationError):
        _runtime(1).run()


def test_too_many_workers_rejected():
    with pytest.raises(ValueError):
        _runtime(workers=100)


def test_task_exception_propagates():
    rt = _runtime(1)

    def bad():
        yield Compute(1.0)
        raise RuntimeError("boom")

    rt.spawn(bad, pin_worker=0)
    with pytest.raises(RuntimeError, match="boom"):
        rt.run()


def test_blocking_strategy_runs_to_completion():
    rt = _runtime(2, machine=small_test_machine(), strategy=OsAsyncStrategy())
    bar = Barrier(2)

    def body(wid):
        yield Compute(50.0)
        yield WaitBarrier(bar)
        return wid

    rt.spawn(body, 0, pin_worker=0)
    rt.spawn(body, 1, pin_worker=1)
    report = rt.run()
    assert report.tasks_completed == 2


def test_deterministic_given_seed():
    def make():
        rt = _runtime(4, machine=small_test_machine())
        region = rt.alloc(8192, node=0)

        def body(wid):
            yield AccessBatch(region, list(range(wid, wid + 4)))
            yield YieldPoint()
            yield Compute(10.0)
            return wid

        for w in range(4):
            rt.spawn(body, w, pin_worker=w)
        return rt.run()

    r1, r2 = make(), make()
    assert r1.wall_ns == r2.wall_ns
    assert r1.counters.as_row() == r2.counters.as_row()


def test_report_throughput_and_concurrency():
    rt = _runtime(2, collect_timeline=True)

    def body(wid):
        yield Compute(1000.0)
        return wid

    rt.spawn(body, 0, pin_worker=0)
    rt.spawn(body, 1, pin_worker=1)
    report = rt.run()
    assert report.throughput(100) > 0
    assert 0 < report.avg_concurrency() <= 2.0
