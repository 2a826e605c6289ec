"""Vectorised morsel-driven query engine over the simulated runtime.

The execution model is DuckDB-like: every operator is split into morsels
(row ranges) executed as tasks; columns are separate regions so a scan is
charged only for the columns it touches; hash joins build a shared hash
region whose working set (often larger than one L3 slice) is the
placement-sensitive part CHARM's adaptive controller optimises (paper
section 5.6).  Results are computed with real numpy operators, so every
query returns actual values that tests verify against direct evaluation.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.machine import Machine
from repro.runtime.ops import AccessBatch, AccessRun, Compute, SpawnOp, WaitFuture, YieldPoint
from repro.runtime.program import OpProgram
from repro.runtime.policy import SchedulingStrategy
from repro.runtime.runtime import Runtime, RunReport
from repro.workloads import sorted_unique
from repro.workloads.olap.data import TpchData

#: predicate / arithmetic cost per row per column, ns
ROW_NS = 0.4
#: hash probe/build cost per row, ns
HASH_ROW_NS = 1.2
#: bytes per hash-table entry (key + payload + bucket overhead)
HASH_ENTRY_BYTES = 16
#: streaming scan bandwidth, bytes/ns
SCAN_BW = 25.0


@dataclass
class QueryResult:
    query: str
    strategy: str
    n_workers: int
    wall_ns: float
    value: float
    report: RunReport

    @property
    def ms(self) -> float:
        return self.wall_ns / 1e6


class QueryEngine:
    """A loaded column store bound to one runtime."""

    def __init__(self, runtime: Runtime, data: TpchData, morsel_rows: int = 4096):
        self.runtime = runtime
        self.data = data
        self.morsel_rows = morsel_rows
        self._col_regions: Dict[Tuple[str, str], object] = {}
        self._hash_seq = 0
        for table, cols in data.tables.items():
            for cname, arr in cols.items():
                self._col_regions[(table, cname)] = runtime.alloc_shared(
                    max(arr.nbytes, 4096), read_only=True, name=f"{table}.{cname}"
                )

    # -- Internals -------------------------------------------------------------

    def _col_run(self, table: str, cname: str, lo: int, hi: int) -> Tuple[object, int, int]:
        """Region plus the run-compressed ``(start, count)`` block range."""
        region = self._col_regions[(table, cname)]
        itemsize = self.data.col(table, cname).itemsize
        bb = region.block_bytes
        b0 = lo * itemsize // bb
        b1 = max(b0 + 1, -(-hi * itemsize // bb))
        return region, b0, b1 - b0

    def _morsels(self, n_rows: int) -> List[Tuple[int, int]]:
        step = self.morsel_rows
        return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]

    def _run_parallel(self, make_task: Callable, morsels: Sequence) -> Callable:
        """Generator helper: spawn one task per morsel, await all results."""
        runtime = self.runtime

        def gen():
            tasks = []
            for i, m in enumerate(morsels):
                t = yield SpawnOp(make_task, (i, m), name=f"morsel-{i}")
                tasks.append(t)
            out = []
            for t in tasks:
                fut = runtime.completion_future(t)
                if fut.done:
                    out.append(fut.value)
                else:
                    out.append((yield WaitFuture(fut)))
            return out

        return gen

    # -- Operators (each returns a generator usable inside a query task) -------

    def scan_filter(self, table: str, predicate: Callable[[Dict[str, np.ndarray]], np.ndarray],
                    pred_cols: Sequence[str]):
        """Parallel filter; returns the selected row indices."""
        data = self.data
        n = data.rows(table)
        scan_ns = 4096 / SCAN_BW

        def morsel_task(i, bounds):
            lo, hi = bounds
            program = OpProgram()
            for c in pred_cols:
                region, start, count = self._col_run(table, c, lo, hi)
                program.run(region, start, count, compute_ns_per_block=scan_ns)
            cols = {c: data.col(table, c)[lo:hi] for c in pred_cols}
            mask = predicate(cols)
            program.compute((hi - lo) * len(pred_cols) * ROW_NS)
            program.yield_()
            yield program
            return np.flatnonzero(mask) + lo

        def run():
            parts = yield from self._run_parallel(morsel_task, self._morsels(n))()
            return np.concatenate(parts) if parts else np.empty(0, np.int64)

        return run()

    def gather(self, table: str, column: str, rows: np.ndarray):
        """Parallel random gather of ``column`` at ``rows``."""
        data = self.data
        region = self._col_regions[(table, column)]
        itemsize = data.col(table, column).itemsize

        def morsel_task(i, bounds):
            lo, hi = bounds
            chunk = rows[lo:hi]
            if chunk.size:
                blocks = sorted_unique(chunk * itemsize // region.block_bytes)
                yield AccessBatch(region, blocks, nbytes=64)
                yield Compute(chunk.size * ROW_NS)
            yield YieldPoint()
            return None

        def run():
            if rows.size:
                yield from self._run_parallel(morsel_task, self._morsels(rows.size))()
            return data.col(table, column)[rows]

        return run()

    def hash_join(self, build_keys: np.ndarray, probe_keys: np.ndarray):
        """Join probe rows against build rows on equal keys.

        Returns ``(probe_idx, build_idx)`` match pairs (first build match
        per probe key occurrence, inner-join multiplicity via sorted
        search).  Charges a hash region sized to the build side — the
        cache-capacity-sensitive structure of Fig. 13's join queries.
        """
        runtime = self.runtime
        self._hash_seq += 1
        hash_region = runtime.alloc_shared(
            max(int(build_keys.size) * HASH_ENTRY_BYTES, 4096),
            read_only=False,
            name=f"hashtable-{self._hash_seq}",
        )
        n_workers = len(runtime.workers)

        order = np.argsort(build_keys, kind="stable")
        sorted_keys = build_keys[order]

        def build_task(i, bounds):
            lo, hi = bounds
            bb = hash_region.block_bytes
            b0 = lo * HASH_ENTRY_BYTES // bb
            b1 = max(b0 + 1, -(-hi * HASH_ENTRY_BYTES // bb))
            yield AccessRun(hash_region, b0, b1 - b0, write=True)
            yield Compute((hi - lo) * HASH_ROW_NS)
            yield YieldPoint()
            return hi - lo

        def probe_task(i, bounds):
            lo, hi = bounds
            keys = probe_keys[lo:hi]
            # Probes hit pseudo-random buckets across the whole table.
            pos = np.searchsorted(sorted_keys, keys)
            buckets = (keys.astype(np.int64) * 2654435761 % max(build_keys.size, 1))
            blocks = sorted_unique(buckets * HASH_ENTRY_BYTES // hash_region.block_bytes)
            yield AccessBatch(hash_region, blocks, nbytes=64)
            yield Compute((hi - lo) * HASH_ROW_NS)
            yield YieldPoint()
            valid = (pos < sorted_keys.size)
            valid[valid] &= sorted_keys[pos[valid]] == keys[valid]
            return np.flatnonzero(valid) + lo, order[pos[valid]]

        def run():
            yield from self._run_parallel(build_task, self._morsels(build_keys.size))()
            parts = yield from self._run_parallel(probe_task, self._morsels(probe_keys.size))()
            if not parts:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            probe_idx = np.concatenate([p[0] for p in parts])
            build_idx = np.concatenate([p[1] for p in parts])
            return probe_idx, build_idx

        return run()

    def aggregate(self, groups: np.ndarray, values: np.ndarray):
        """Parallel grouped sum; returns (group keys, sums)."""

        def morsel_task(i, bounds):
            lo, hi = bounds
            yield Compute((hi - lo) * ROW_NS * 2)
            yield YieldPoint()
            return None

        def run():
            if groups.size == 0:
                return np.empty(0, np.int64), np.empty(0)
            yield from self._run_parallel(morsel_task, self._morsels(groups.size))()
            uniq, inv = np.unique(groups, return_inverse=True)
            sums = np.bincount(inv, weights=values, minlength=uniq.size)
            return uniq, sums

        return run()


def execute_query(
    machine: Machine,
    strategy: SchedulingStrategy,
    n_workers: int,
    data: TpchData,
    query_fn: Callable[[QueryEngine], Callable],
    name: str = "query",
    seed: int = 7,
    morsel_rows: int = 4096,
) -> QueryResult:
    """Run one query body under one strategy; returns value + timing."""
    runtime = Runtime(machine, n_workers, strategy, seed=seed)
    engine = QueryEngine(runtime, data, morsel_rows=morsel_rows)
    box = {}

    def root():
        value = yield from query_fn(engine)
        box["value"] = value
        return value

    runtime.spawn(root, name=name)
    report = runtime.run()
    return QueryResult(
        query=name,
        strategy=strategy.name,
        n_workers=n_workers,
        wall_ns=report.wall_ns,
        value=float(box.get("value", 0.0) or 0.0),
        report=report,
    )
