"""Local task queues, steal tiers and the shared stealable-task count."""

import random
from typing import List

import pytest
from hypothesis import given, strategies as st

from repro.hw.machine import milan
from repro.hw.topology import milan_topology
from repro.runtime.policy import SchedulingStrategy
from repro.runtime.queues import (
    LocalQueue,
    StealableCount,
    StealPlan,
    shuffle_tiers,
    skip_shuffles,
    steal_tiers,
)
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task
from repro.sim.rng import stream_rng


def _task(pinned=False):
    def body():
        yield None

    return Task(body, pinned=pinned)


# -- Reference steal orders: stdlib shuffles over tiers rebuilt per sweep ------


def hierarchical_steal_order(topo, my_core: int, worker_cores: List[int], rng) -> List[int]:
    my_chiplet = topo.chiplet_of_core(my_core)
    my_socket = topo.socket_of_core(my_core)
    tiers: List[List[int]] = [[], [], []]
    for wid, core in enumerate(worker_cores):
        if core == my_core:
            continue
        if topo.chiplet_of_core(core) == my_chiplet:
            tiers[0].append(wid)
        elif topo.socket_of_core(core) == my_socket:
            tiers[1].append(wid)
        else:
            tiers[2].append(wid)
    order: List[int] = []
    for tier in tiers:
        rng.shuffle(tier)
        order.extend(tier)
    return order


def flat_steal_order(my_worker: int, n_workers: int, rng) -> List[int]:
    order = [w for w in range(n_workers) if w != my_worker]
    rng.shuffle(order)
    return order


def _milan_tiers(my_worker, cores, hierarchical=True):
    topo = milan_topology()
    return steal_tiers(my_worker, cores, topo.chiplet_of_core_table,
                       topo.numa_of_core_table, hierarchical)


# -- Queue semantics -----------------------------------------------------------


def test_owner_pops_fifo():
    q = LocalQueue()
    a, b = _task(), _task()
    q.push(a)
    q.push(b)
    assert q.pop_local() is a
    assert q.pop_local() is b
    assert q.pop_local() is None


def test_thief_steals_newest_unpinned():
    q = LocalQueue()
    a, b = _task(), _task()
    q.push(a)
    q.push(b)
    assert q.steal() is b


def test_pinned_tasks_not_stealable():
    q = LocalQueue()
    p1, u, p2 = _task(pinned=True), _task(), _task(pinned=True)
    q.push(p1)
    q.push(u)
    q.push(p2)
    assert q.steal() is u  # skips the pinned tail
    assert q.steal() is None
    assert len(q) == 2


@given(st.lists(st.tuples(st.sampled_from(["push", "pop_local", "steal"]),
                          st.integers(0, 2), st.booleans()),
                max_size=80))
def test_stealable_count_matches_recount(ops):
    count = StealableCount()
    queues = [LocalQueue(count) for _ in range(3)]
    for op, qi, pinned in ops:
        q = queues[qi]
        if op == "push":
            q.push(_task(pinned=pinned))
        elif op == "pop_local":
            q.pop_local()
        else:
            task = q.steal()
            assert task is None or not task.pinned
        assert count.n == sum(not t.pinned for q in queues for t in q._dq)


# -- Steal tiers and exact RNG draws --------------------------------------------


def test_hierarchical_order_tiers():
    topo = milan_topology()
    # workers on cores 0..15 (chiplets 0,1) plus one on socket 1.
    cores = list(range(16)) + [64]
    tiers = _milan_tiers(0, cores)
    assert tiers == [list(range(1, 8)), list(range(8, 16)), [16]]
    order = shuffle_tiers(tiers, stream_rng(1, "steal"))
    # First tier: same chiplet (cores 1..7 -> worker ids 1..7).
    assert set(order[:7]) == set(range(1, 8))
    # Last: the cross-socket worker.
    assert order[-1] == 16
    ref = hierarchical_steal_order(topo, my_core=0, worker_cores=cores,
                                   rng=stream_rng(1, "steal"))
    assert order == ref


def test_flat_order_complete():
    tiers = _milan_tiers(3, list(range(8)), hierarchical=False)
    assert tiers == [[0, 1, 2, 4, 5, 6, 7]]
    order = shuffle_tiers(tiers, stream_rng(1, "steal"))
    assert sorted(order) == [0, 1, 2, 4, 5, 6, 7]
    assert order == flat_steal_order(3, 8, stream_rng(1, "steal"))


@pytest.mark.parametrize("seed", range(50))
def test_shuffle_and_skip_match_stdlib_shuffle(seed):
    for size in range(71):
        tier = list(range(100, 100 + size))
        ref_rng = random.Random(seed * 1000 + size)
        ref = list(tier)
        ref_rng.shuffle(ref)

        rng = random.Random(seed * 1000 + size)
        assert shuffle_tiers([tier], rng) == ref
        assert rng.getstate() == ref_rng.getstate()
        assert tier == list(range(100, 100 + size))  # input left alone

        rng = random.Random(seed * 1000 + size)
        plan = StealPlan([tier])
        skip_shuffles(plan, rng)
        assert rng.getstate() == ref_rng.getstate()
        assert plan.victims == size


def test_plan_draws_span_every_tier():
    tiers = [[1, 2, 3], [], [4], [5, 6]]
    ref_rng = random.Random(3)
    for tier in tiers:
        ref_rng.shuffle(list(tier))
    rng = random.Random(3)
    plan = StealPlan(tiers)
    skip_shuffles(plan, rng)
    assert rng.getstate() == ref_rng.getstate()
    assert plan.victims == 6


# -- Runtime integration ------------------------------------------------------------


class _Pinned(SchedulingStrategy):
    name = "pinned-test"

    def initial_core(self, worker_id, n_workers, machine):
        return worker_id


@pytest.mark.parametrize("hierarchical", [True, False])
def test_steal_order_after_migration_matches_rebuilt_tiers(hierarchical):
    strategy = _Pinned()
    strategy.hierarchical_stealing = hierarchical
    rt = Runtime(milan(scale=64), 10, strategy, seed=3)
    topo = rt.machine.topo
    for w in rt.workers:
        w.steal_plan()  # populate every cache before the move
    assert rt.request_migration(rt.workers[2], target_core=70)
    assert rt.request_migration(rt.workers[5], target_core=12)
    cores = rt.worker_cores()
    for w in rt.workers:
        ref_rng = random.Random(w.worker_id)
        if hierarchical:
            ref = hierarchical_steal_order(topo, w.core, cores, ref_rng)
        else:
            ref = flat_steal_order(w.worker_id, len(cores), ref_rng)
        w.rng = random.Random(w.worker_id)
        assert rt.strategy.steal_order(w, rt) == ref
        assert w.rng.getstate() == ref_rng.getstate()


def test_run_rejects_drifted_stealable_count():
    from repro.runtime.ops import Compute
    from repro.sim.engine import SimulationError

    def body():
        yield Compute(10.0)

    rt = Runtime(milan(scale=64), 2, _Pinned(), seed=1)
    rt.spawn(body)
    rt.stealable.n += 1
    with pytest.raises(SimulationError, match="stealable-task count"):
        rt.run()


def _dse_pagerank_cell():
    from repro.bench.dse import dse_cells

    return next(c for c in dse_cells(96) if c.params["workload"] == "pagerank")


def _fig14_oltp_cell():
    from repro.bench.experiments import _fig14_cells

    return next(c for c in _fig14_cells(True) if c.cores == 8)


@pytest.mark.parametrize("make_cell", [_dse_pagerank_cell, _fig14_oltp_cell],
                         ids=["dse_pagerank", "fig14_oltp"])
def test_steal_order_built_only_for_successful_steals(make_cell, monkeypatch):
    from repro.bench.cells import execute_cell

    import repro.baselines  # noqa: F401  (defines the strategy classes)

    # No strategy overrides the hook, so wrapping the base class counts all.
    classes, seen = [SchedulingStrategy], []
    while classes:
        cls = classes.pop()
        seen.append(cls)
        classes.extend(cls.__subclasses__())
    assert all("steal_order" not in cls.__dict__ for cls in seen[1:])
    calls = [0]
    reports = []
    orig_order = SchedulingStrategy.steal_order
    orig_run = Runtime.run

    def counting_order(self, worker, runtime):
        calls[0] += 1
        return orig_order(self, worker, runtime)

    def recording_run(self):
        report = orig_run(self)
        reports.append((report, sum(w.steal_attempts for w in self.workers)))
        return report

    monkeypatch.setattr(SchedulingStrategy, "steal_order", counting_order)
    monkeypatch.setattr(Runtime, "run", recording_run)
    execute_cell(make_cell())
    steals = sum(r.steals for r, _ in reports)
    probes = sum(p for _, p in reports)
    # Idle workers swept (OLTP pins every task, so none of its sweeps can
    # succeed), yet an order was built only for the sweeps that stole.
    assert probes > steals
    assert calls[0] == steals
