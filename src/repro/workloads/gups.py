"""RandomAccess (GUPS): random read-modify-write updates to a huge table.

The HPCC RandomAccess kernel as used by the paper (section 5.1):
"evaluates non-contiguous memory accesses in a distributed shared memory
architecture, measured in global updates per second (GUPS)."  Each worker
performs batches of XOR updates to pseudo-random table locations; the
table is far larger than the aggregate L3, so performance is dominated by
where fills are served from and how the interconnect handles the random
traffic.

The updates are *actually applied* to a numpy table (deterministically
from the run seed), so tests can validate the result against a sequential
replay of the same update stream.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.machine import Machine
from repro.runtime.policy import SchedulingStrategy
from repro.runtime.program import OpProgram
from repro.runtime.runtime import Runtime, RunReport
from repro.sim.rng import derive_seed

#: updates issued per yield (one batch)
UPDATES_PER_BATCH = 256
#: bytes moved per update (read + modified write of one word's line)
UPDATE_BYTES = 64
#: ALU work per update, ns
UPDATE_COMPUTE_NS = 3.0


@dataclass
class GupsResult:
    strategy: str
    n_workers: int
    total_updates: int
    wall_ns: float
    table: np.ndarray
    report: RunReport

    @property
    def gups(self) -> float:
        """Giga-updates per second (the paper's Fig. 7 GUPS metric)."""
        if self.wall_ns <= 0:
            return 0.0
        return self.total_updates / self.wall_ns  # updates/ns == GUPS

    @property
    def mups(self) -> float:
        return self.gups * 1000.0


def update_stream(seed: int, worker_id: int, n_updates: int, table_size: int) -> np.ndarray:
    """The deterministic per-worker update-location stream."""
    rng = np.random.default_rng(derive_seed(seed, "gups", worker_id))
    return rng.integers(0, table_size, size=n_updates, dtype=np.int64)


def apply_updates_reference(table_size: int, seed: int, n_workers: int,
                            updates_per_worker: int) -> np.ndarray:
    """Sequential replay oracle: XOR of the index into each slot."""
    table = np.zeros(table_size, dtype=np.int64)
    for wid in range(n_workers):
        idx = update_stream(seed, wid, updates_per_worker, table_size)
        np.bitwise_xor.at(table, idx, idx + 1)
    return table


def _gups_task(region, table: np.ndarray, idx_stream: np.ndarray, word_bytes: int,
               block_bytes: int):
    """One worker's update loop, compiled to one op program.

    The whole update stream is straight-line: batches of writes with
    interleaved compute and cooperative yields, no control transfers — so
    it compiles into a single :class:`OpProgram` handed to the worker in
    one yield.  The XOR side effects apply at build time: XOR commutes, so
    the table is bit-identical to per-batch application regardless of the
    virtual-time interleaving across workers.
    """
    n = idx_stream.size
    program = OpProgram()
    for start in range(0, n, UPDATES_PER_BATCH):
        idx = idx_stream[start : start + UPDATES_PER_BATCH]
        # Raw update order, repeats and all: every XOR touches memory, and
        # the machine's scalar span services unsorted duplicate-laden
        # batches directly (repeats hit in L3 after the first touch).
        blocks = idx * word_bytes // block_bytes
        program.batch(region, blocks, write=True, nbytes=UPDATE_BYTES)
        program.compute(idx.size * UPDATE_COMPUTE_NS)
        program.yield_()
    np.bitwise_xor.at(table, idx_stream, idx_stream + 1)
    yield program
    return n


def run_gups(
    machine: Machine,
    strategy: SchedulingStrategy,
    n_workers: int,
    table_bytes: int,
    updates_per_worker: int = 4096,
    seed: int = 7,
    word_bytes: int = 8,
) -> GupsResult:
    """Run RandomAccess under ``strategy``; updates are really applied."""
    runtime = Runtime(machine, n_workers, strategy, seed=seed)
    region = runtime.alloc_shared(table_bytes, read_only=False, name="gups-table")
    table_size = table_bytes // word_bytes
    table = np.zeros(table_size, dtype=np.int64)
    for wid in range(n_workers):
        stream = update_stream(seed, wid, updates_per_worker, table_size)
        runtime.spawn(
            _gups_task, region, table, stream, word_bytes, region.block_bytes,
            pin_worker=wid, name=f"gups-{wid}",
        )
    report = runtime.run()
    return GupsResult(
        strategy=strategy.name,
        n_workers=n_workers,
        total_updates=n_workers * updates_per_worker,
        wall_ns=report.wall_ns,
        table=table,
        report=report,
    )
