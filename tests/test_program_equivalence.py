"""Bit-identity of compiled op programs vs the forced-generator twin.

PR 9's compiled-execution fast path hands whole :class:`OpProgram`
columns to the worker (``Worker._run_program``) instead of yielding one
op dataclass per generator ``send()``.  The contract is the same one the
vector kernels obey: the compiled walk must be *bit-identical* to the
per-op dispatch path — every virtual time, every worker clock, the
event-loop step count, fill counters, LRU contents and order, the
sharing directory, and channel / fabric-link / cross-socket server
state.

The forced twin is :data:`repro.runtime.program.FORCE_GENERATOR`: when
set, a worker receiving a program splices ``program.to_ops()`` into the
task's generator and interprets every row through the ordinary per-op
``send()`` dispatch.  Both paths see the same post-fusion rows, so any
divergence is an interpreter bug, not a fusion artifact.

Covered producers: hypothesis-generated mixed programs (batch / run /
access / compute / critical / yield rows, plus program -> plain-op ->
program splice transitions), the perf-suite batched and run-compressed
stream tasks, and the six real workload emitters (gups, streamcluster,
OLAP scan-filter, SGD, graph owner-rounds) on all three machine presets.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.runtime.program as program_mod
from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from repro.runtime.ops import Compute, SimLock
from repro.runtime.policy import CharmStrategy
from repro.runtime.program import OpProgram
from repro.runtime.runtime import Runtime
from tests.twins import assert_same_state

MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
}

SEED = 7


def run_twin(run_fn):
    """Run ``run_fn()`` on the program path and the forced-generator twin.

    ``run_fn`` must build a fresh machine + runtime each call and return
    ``(report, machine, runtime_or_None)``.  Asserts full bit-identity.
    """
    assert not program_mod.FORCE_GENERATOR
    rep_p, m_p, rt_p = run_fn()
    program_mod.FORCE_GENERATOR = True
    try:
        rep_g, m_g, rt_g = run_fn()
    finally:
        program_mod.FORCE_GENERATOR = False
    assert rep_p.wall_ns == rep_g.wall_ns, "virtual end time diverged"
    assert rep_p.tasks_completed == rep_g.tasks_completed
    assert rep_p.tasks_created == rep_g.tasks_created
    assert rep_p.migrations == rep_g.migrations
    assert rep_p.steals == rep_g.steals
    assert rep_p.counters.as_row() == rep_g.counters.as_row()
    assert rep_p.per_worker_busy_ns == rep_g.per_worker_busy_ns
    assert rep_p.total_accesses == rep_g.total_accesses
    assert rep_p.fill_totals == rep_g.fill_totals
    assert_same_state(m_p, m_g)
    if rt_p is not None and rt_g is not None:
        assert rt_p.loop.steps == rt_g.loop.steps, "event-loop step count diverged"
        assert rt_p.loop.now == rt_g.loop.now
        assert [w.clock for w in rt_p.workers] == [w.clock for w in rt_g.workers]
        assert [w.busy_ns for w in rt_p.workers] == [w.busy_ns for w in rt_g.workers]
    return rep_p


def _n_workers(machine) -> int:
    return min(4, machine.topo.total_cores)


# --- hypothesis: arbitrary mixed programs with splice transitions ---------

def _mixed_task(region, lock, rows, second_rows):
    """Emit a program, a plain op (splice passthrough), then a second program."""
    program = OpProgram()
    for row in rows:
        _append_row(program, region, lock, row)
    yield program
    yield Compute(5.0)
    if second_rows:
        second = OpProgram()
        for row in second_rows:
            _append_row(second, region, lock, row)
        yield second
    return len(rows)


def _append_row(program, region, lock, row):
    kind = row[0]
    if kind == "compute":
        program.compute(row[1])
    elif kind == "access":
        program.access(region, row[1], write=row[2])
    elif kind == "batch":
        program.batch(region, list(row[1]), write=row[2])
    elif kind == "run":
        start, count, stride, write = row[1:]
        program.run(region, start, count, stride=stride, write=write)
    elif kind == "critical":
        program.critical(lock, row[1])
    else:
        program.yield_()


def _row_strategy(n_blocks):
    block = st.integers(0, n_blocks - 1)
    return st.one_of(
        st.tuples(st.just("compute"), st.floats(0.0, 500.0, allow_nan=False)),
        st.tuples(st.just("access"), block, st.booleans()),
        st.tuples(st.just("batch"),
                  st.lists(block, min_size=1, max_size=24), st.booleans()),
        st.tuples(st.just("run"), st.integers(0, n_blocks // 2),
                  st.integers(1, min(16, n_blocks // 2)), st.integers(1, 2),
                  st.booleans()),
        st.tuples(st.just("critical"), st.floats(0.0, 200.0, allow_nan=False)),
        st.tuples(st.just("yield")),
    )


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mixed_programs_match_generator_twin(mk, data):
    n_blocks = 64
    n_tasks = data.draw(st.integers(1, 3))
    tasks = []
    for _ in range(n_tasks):
        rows = data.draw(st.lists(_row_strategy(n_blocks), min_size=1,
                                  max_size=12))
        second = data.draw(st.lists(_row_strategy(n_blocks), min_size=0,
                                    max_size=6))
        tasks.append((rows, second))

    def run():
        machine = mk()
        runtime = Runtime(machine, _n_workers(machine), CharmStrategy(),
                          seed=SEED)
        region = runtime.alloc_shared(n_blocks * machine.block_bytes,
                                      name="peq")
        lock = SimLock("peq-lock")
        for i, (rows, second) in enumerate(tasks):
            runtime.spawn(_mixed_task, region, lock, rows, second,
                          pin_worker=i % len(runtime.workers), name=f"peq-{i}")
        report = runtime.run()
        return report, machine, runtime

    run_twin(run)


# --- the perf-suite stream producers (batched + run-compressed) -----------

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_perf_batched_task_matches_twin(mk):
    from repro.bench.perf import _batched_task

    def run():
        machine = mk()
        nw = _n_workers(machine)
        runtime = Runtime(machine, nw, CharmStrategy(), seed=SEED)
        region = runtime.alloc_shared(nw * 128 * machine.block_bytes,
                                      name="peq-stream")
        for wid in range(nw):
            base = wid * 128
            seq = list(range(base, base + 128))
            batches = [seq[s:s + 32] for s in range(0, 128, 32)]
            runtime.spawn(_batched_task, region, batches, False, None,
                          pin_worker=wid, name=f"peq-{wid}")
        report = runtime.run()
        return report, machine, runtime

    run_twin(run)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_perf_run_task_matches_twin(mk):
    from repro.bench.perf import _run_task

    def run():
        machine = mk()
        nw = _n_workers(machine)
        runtime = Runtime(machine, nw, CharmStrategy(), seed=SEED)
        region = runtime.alloc_shared(nw * 128 * machine.block_bytes,
                                      name="peq-stream")
        for wid in range(nw):
            base = wid * 128
            runs = [(base + s, 32) for s in range(0, 128, 32)]
            runtime.spawn(_run_task, region, runs, False, None,
                          pin_worker=wid, name=f"peq-{wid}")
        report = runtime.run()
        return report, machine, runtime

    run_twin(run)


# --- the real workload producers ------------------------------------------

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gups_matches_twin(mk):
    from repro.workloads.gups import run_gups

    def run():
        machine = mk()
        res = run_gups(machine, CharmStrategy(), _n_workers(machine),
                       table_bytes=64 * 1024, updates_per_worker=256,
                       seed=SEED)
        return res.report, machine, None

    rep = run_twin(run)
    assert rep.total_accesses > 0


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_streamcluster_matches_twin(mk):
    from repro.workloads.streamcluster import make_points, run_streamcluster

    points = make_points(64, 8, 4, seed=3)

    def run():
        machine = mk()
        res = run_streamcluster(machine, CharmStrategy(), _n_workers(machine),
                                points, n_centers=4, search_iterations=1,
                                seed=SEED)
        return res.report, machine, None

    run_twin(run)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_olap_scan_filter_matches_twin(mk):
    from repro.workloads.olap.data import generate
    from repro.workloads.olap.engine import execute_query
    from repro.workloads.olap.queries import q6

    data = generate(sf=0.05, seed=42)

    def run():
        machine = mk()
        res = execute_query(machine, CharmStrategy(), _n_workers(machine),
                            data, q6, name="q6", seed=SEED)
        return res.report, machine, None

    run_twin(run)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_sgd_matches_twin(mk):
    from repro.workloads.sgd.engine import make_dataset, run_sgd

    dataset = make_dataset(n_samples=96, n_features=32, seed=11)

    def run():
        machine = mk()
        res = run_sgd(machine, "charm", _n_workers(machine), dataset,
                      epochs=1, chunk_rows=32, seed=SEED)
        return res.report, machine, None

    run_twin(run)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_graph_pagerank_matches_twin(mk):
    from repro.workloads.graph.generator import kronecker
    from repro.workloads.graph.runner import run_graph_algorithm

    graph = kronecker(8, edgefactor=4, seed=5)

    def run():
        machine = mk()
        res = run_graph_algorithm(machine, CharmStrategy(), "pagerank", graph,
                                  _n_workers(machine), seed=SEED,
                                  pagerank_iterations=2)
        return res.report, machine, None

    run_twin(run)
