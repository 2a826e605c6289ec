"""Telemetry must never perturb the simulation: the bit-identity contract.

Property test: the same workload run bare, with full telemetry, and with
null-mode telemetry produces *bit-identical* simulated state — virtual
wall time, per-worker clocks and fill counters, and the machine's
:meth:`~repro.hw.machine.Machine.state_fingerprint` (per-chiplet LRU
contents in recency order, the sharing directory, every server's queue
state, per-core counters and fill-latency chains).  Observation reads;
it never writes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from repro.obs.bus import EventBus
from repro.obs.telemetry import Telemetry
from repro.runtime.ops import AccessBatch, AccessRun, Compute, YieldPoint
from repro.runtime.policy import CharmStrategy
from repro.runtime.runtime import Runtime
from tests.test_kernel_paths import shape_stream

MACHINES = [
    pytest.param(small_test_machine, 4, id="small_test_machine"),
    pytest.param(lambda: milan(scale=32), 8, id="milan32"),
    pytest.param(lambda: sapphire_rapids(scale=32), 8, id="sapphire_rapids32"),
]


def _task_body(region, ops):
    for op in ops:
        kind = op[0]
        if kind == "batch":
            yield AccessBatch(region, list(op[1]), write=op[2], nbytes=None)
        elif kind == "run":
            yield AccessRun(region, op[1], op[2], write=False, nbytes=None)
        elif kind == "compute":
            yield Compute(op[1])
        yield YieldPoint()
    return len(ops)


def _make_plan(rng: np.random.Generator, n_workers: int, region_blocks: int):
    """A mixed batch/run/compute workload, heavy enough that worker clocks
    cross several scheduler-timer intervals (so Alg. 1 actually fires)."""
    plan = []
    for _ in range(rng.integers(2, 2 * n_workers + 1)):
        ops = []
        for _ in range(rng.integers(2, 7)):
            k = rng.integers(0, 3)
            if k == 0:
                n = int(rng.integers(4, 65))
                blocks = rng.integers(0, region_blocks, size=n, dtype=np.int64)
                ops.append(("batch", blocks.tolist(), bool(rng.integers(0, 2))))
            elif k == 1:
                start = int(rng.integers(0, region_blocks // 2))
                count = int(rng.integers(4, region_blocks - start))
                ops.append(("run", start, count))
            else:
                ops.append(("compute", float(rng.integers(1_000, 40_000))))
        plan.append(ops)
    if all(op[0] == "compute" for ops in plan for op in ops):
        # A compute-only plan touches no memory, so the observed run
        # would have no hw/cache event to emit: keep the workload mixed.
        start = int(rng.integers(0, region_blocks // 2))
        count = int(rng.integers(4, region_blocks - start))
        plan[0].append(("run", start, count))
    return plan


def _build(machine_fn, n_workers: int, plan, region_blocks: int) -> Runtime:
    machine = machine_fn()
    rt = Runtime(machine, n_workers, CharmStrategy(), seed=11)
    region = rt.alloc_shared(region_blocks * machine.block_bytes, name="obs-eq")
    for i, ops in enumerate(plan):
        rt.spawn(_task_body, region, ops, pin_worker=i % n_workers, name=f"t{i}")
    return rt


def _state(rt: Runtime, report) -> dict:
    m = rt.machine
    return {
        "wall_ns": report.wall_ns,
        "clocks": [w.clock for w in rt.workers],
        "cores": [w.core for w in rt.workers],
        "spread": [w.spread_rate for w in rt.workers],
        "migrations": [w.migrations for w in rt.workers],
        "worker_fills": [list(w.fills.v) for w in rt.workers],
        "fill_totals": report.fill_totals,
        "steals": rt.total_steals,
        "machine": m.state_fingerprint(),
    }


@pytest.mark.parametrize("machine_fn,n_workers", MACHINES)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=178889212)  # draws only compute ops before the top-up
@settings(max_examples=5, deadline=None)
def test_telemetry_is_bit_identical(machine_fn, n_workers, seed):
    region_blocks = 256
    plan = _make_plan(np.random.default_rng(seed), n_workers, region_blocks)

    bare = _build(machine_fn, n_workers, plan, region_blocks)
    bare_report = bare.run()
    bare_state = _state(bare, bare_report)

    full = _build(machine_fn, n_workers, plan, region_blocks)
    tel = Telemetry(full)
    full_report = full.run()
    tel.finish()
    assert _state(full, full_report) == bare_state

    null = _build(machine_fn, n_workers, plan, region_blocks)
    Telemetry.null(null)
    null_report = null.run()
    assert _state(null, null_report) == bare_state

    # Post-run structural invariant: every run leaves the sharing
    # directory and the per-slice LRU dicts mutually consistent.
    for rt in (bare, full, null):
        assert rt.machine.caches.check_directory_consistent()

    # The observed run actually observed something.
    assert sum(tel.bus.counts.values()) > 0
    assert tel.sampler.count >= 1


def test_full_telemetry_summary_matches_report(tiny):
    """The digest reports the same totals as the runtime's own report."""
    rng = np.random.default_rng(3)
    plan = _make_plan(rng, 4, 128)
    rt = _build(small_test_machine, 4, plan, 128)
    tel = Telemetry(rt)
    report = rt.run()
    summary = tel.summary()
    assert summary["mode"] == "full"
    # summary wall is the max worker clock (>= the report's loop wall)
    assert summary["wall_ns"] == max(w.clock for w in rt.workers)
    assert summary["wall_ns"] >= report.wall_ns
    assert summary["fills"] == report.fill_totals
    assert summary["migrations"] == sum(w.migrations for w in rt.workers)


def test_null_telemetry_emits_per_batch_not_per_block(monkeypatch):
    """Attached-idle telemetry costs O(batches), not O(blocks): with the
    same number of stream batches, the ``EventBus.emit`` calls from the
    machine and the caches do not grow from 64 to 256 blocks per batch."""
    emit = EventBus.emit
    tally = {}

    def counting(bus, topic, fields):
        tally[topic] = tally.get(topic, 0) + 1
        emit(bus, topic, fields)

    monkeypatch.setattr(EventBus, "emit", counting)

    def counts_at(batch):
        tally.clear()
        rt = shape_stream(batch, n_batches=16)
        Telemetry.null(rt)
        rt.run()
        return {t: n for t, n in tally.items() if t.startswith(("hw.", "cache."))}

    small = counts_at(64)
    assert small and counts_at(256) == small
