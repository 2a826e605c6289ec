"""OLTP execution on the simulated runtime.

Each worker runs a stream of transactions as one pinned task.  Per
transaction the engine charges:

- record accesses — random 64 B reads/writes against the table region
  (key -> block via a fixed hash), the only chiplet-placement-sensitive
  part;
- commit — a :class:`~repro.runtime.ops.CriticalSection` on the global
  commit/log latch plus a sequential log-buffer write.  This serialised
  pipeline is why OLTP throughput is insensitive to cache placement
  (paper section 5.7 / Fig. 14): the latch and log dominate long before
  L3 locality matters.

Transactions really execute against the MVCC store; aborted transactions
(write-write conflicts) are counted and not retried, matching the paper's
committed-transactions-per-second metric.
"""

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, List

import numpy as np

from repro.hw.machine import Machine
from repro.runtime.ops import Access, AccessBatch, Compute, CriticalSection, SimLock, YieldPoint
from repro.runtime.policy import SchedulingStrategy
from repro.runtime.runtime import Runtime, RunReport
from repro.workloads.oltp.mvcc import MvccStore, Transaction, TxnAborted

#: commit-latch hold time (log reservation + version install), ns
COMMIT_LATCH_NS = 650.0
#: transaction logic cost per record op, ns
OP_LOGIC_NS = 120.0
#: bytes per record access
RECORD_BYTES = 64
#: log bytes per transaction
LOG_BYTES = 192


@dataclass
class OltpResult:
    workload: str
    strategy: str
    n_workers: int
    wall_ns: float
    committed: int
    aborted: int
    store: MvccStore
    report: RunReport

    @property
    def commits_per_second(self) -> float:
        if self.wall_ns <= 0:
            return 0.0
        return self.committed / (self.wall_ns * 1e-9)


def _key_block(key, region) -> int:
    # crc32 over repr, NOT built-in hash(): str hashing is randomised per
    # process (PYTHONHASHSEED), which would make record placement — and
    # therefore fig14 — differ between processes.  Cross-process
    # determinism is required by the sweep engine's result cache.
    h = zlib.crc32(repr(key).encode()) & 0x7FFFFFFF
    return (h * RECORD_BYTES) % region.size_bytes // region.block_bytes


def run_oltp(
    machine: Machine,
    strategy: SchedulingStrategy,
    n_workers: int,
    workload: Callable,
    workload_name: str,
    store: MvccStore,
    table_bytes: int,
    txns_per_worker: int = 200,
    seed: int = 7,
) -> OltpResult:
    """Run ``txns_per_worker`` transactions per worker under ``strategy``.

    ``workload(store, worker_id, txn_index, rng)`` must return a
    generator-driving callable: it executes one transaction against the
    MVCC store and returns the list of (key, is_write) record ops it
    performed (used for traffic charging).
    """
    runtime = Runtime(machine, n_workers, strategy, seed=seed)
    table_region = runtime.alloc_shared(table_bytes, read_only=False, name="oltp-table")
    log_region = runtime.alloc_shared(
        max(n_workers * 64 * 512, 4096), read_only=False, name="oltp-log", block_bytes=512
    )
    commit_latch = SimLock("commit-latch")
    stats = {"committed": 0, "aborted": 0}
    log_block_count = log_region.n_blocks

    def txn_stream(wid: int):
        from repro.sim.rng import stream_rng

        rng = stream_rng(seed, "oltp", wid)
        log_cursor = wid * 7
        for i in range(txns_per_worker):
            txn = Transaction(store)
            try:
                ops = workload(store, txn, wid, i, rng)
            except TxnAborted:
                stats["aborted"] += 1
                yield Compute(OP_LOGIC_NS * 2)
                continue
            # Record traffic: reads first, then written records, each in
            # raw op order with repeats kept — a transaction touching the
            # same record twice really touches memory twice.  The
            # machine's scalar span services unsorted duplicate-laden
            # batches directly (repeats hit in L3 after the first touch).
            read_blocks = np.fromiter(
                (_key_block(k, table_region) for k, w in ops if not w),
                dtype=np.int64)
            write_blocks = np.fromiter(
                (_key_block(k, table_region) for k, w in ops if w),
                dtype=np.int64)
            if read_blocks.size:
                yield AccessBatch(table_region, read_blocks, nbytes=RECORD_BYTES,
                                  dependent=True)
            yield Compute(len(ops) * OP_LOGIC_NS)
            if write_blocks.size:
                yield AccessBatch(table_region, write_blocks, write=True,
                                  nbytes=RECORD_BYTES, dependent=True)
            # Commit pipeline: serialised latch + log append.
            try:
                yield CriticalSection(commit_latch, COMMIT_LATCH_NS)
                txn.commit()
                stats["committed"] += 1
                log_cursor = (log_cursor + 1) % log_block_count
                yield Access(log_region, log_cursor, write=True, nbytes=LOG_BYTES)
            except TxnAborted:
                stats["aborted"] += 1
            if i % 8 == 7:
                yield YieldPoint()
        return txns_per_worker

    for wid in range(n_workers):
        runtime.spawn(txn_stream, wid, pin_worker=wid, name=f"txns-{wid}")
    report = runtime.run()
    return OltpResult(
        workload=workload_name,
        strategy=strategy.name,
        n_workers=n_workers,
        wall_ns=report.wall_ns,
        committed=stats["committed"],
        aborted=stats["aborted"],
        store=store,
        report=report,
    )
