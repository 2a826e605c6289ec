"""Streamcluster (PARSEC): streaming k-median clustering kernel.

The paper's Fig. 9 / Tab. 2 workload: points arrive in batches; each batch
is clustered by assigning every point to its nearest open center, with a
serialised critical section guarding cost accumulation and center opening
(the well-known scalability limiter of PARSEC streamcluster).

Execution model on the runtime:

- the point array is a large read-only region (SHOAL replicates it per
  node, CHARM binds it to the occupied socket, vanilla leaves it on
  node 0);
- the open-center array is a small, hot, read-mostly region that every
  distance evaluation touches — the chiplet-placement-sensitive part;
- the centers are fixed for a run, so the real nearest-center
  assignments (numpy) are computed once per run; each chunk task slices
  its rows of them, charges streaming point reads + hot center reads +
  distance compute, and enters a
  :class:`~repro.runtime.ops.CriticalSection` to fold its partial cost
  into the global accumulator.

As core counts grow the fixed per-chunk costs and the serial section
dominate the shrinking per-chunk work — the fragmentation collapse the
paper observes beyond ~40 cores.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.machine import Machine
from repro.runtime.ops import SimLock, YieldPoint
from repro.runtime.policy import SchedulingStrategy
from repro.runtime.program import OpProgram
from repro.runtime.runtime import Runtime, RunReport
from repro.sim.rng import stream_np_rng

#: distance evaluation cost per point-dimension pair, ns
DIST_NS_PER_ELEM = 0.04
#: critical section per chunk (cost fold + potential center open), ns
CRITICAL_NS = 400.0
#: streaming read bandwidth for point data, bytes/ns
POINT_SCAN_BW = 25.0
#: rows per block of the nearest-center precompute (bounds the
#: rows x centers x dims float32 temporary)
NEAREST_BLOCK_ROWS = 2048


@dataclass
class StreamclusterResult:
    strategy: str
    n_workers: int
    wall_ns: float
    cost: float
    assignment: np.ndarray
    report: RunReport


def make_points(n_points: int, dims: int, n_clusters: int, seed: int) -> np.ndarray:
    """Synthetic gaussian-mixture points (float32), deterministic."""
    rng = stream_np_rng(seed, "streamcluster")
    centers = rng.normal(0.0, 10.0, size=(n_clusters, dims)).astype(np.float32)
    labels = rng.integers(0, n_clusters, size=n_points)
    return (centers[labels] + rng.normal(0.0, 1.0, size=(n_points, dims))).astype(np.float32)


def assign_reference(points: np.ndarray, centers: np.ndarray):
    """Sequential oracle: nearest-center assignment + total cost."""
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assignment = d2.argmin(axis=1)
    return assignment, float(d2.min(axis=1).sum())


def _nearest(points: np.ndarray, centers: np.ndarray):
    """Each point's nearest center and squared distance to it.

    Row reductions do not depend on which rows share a block, so slicing
    the result equals recomputing it on any chunk of rows.
    """
    n = points.shape[0]
    best = np.empty(n, dtype=np.int64)
    d2min = np.empty(n, dtype=np.result_type(points, centers))
    for lo in range(0, n, NEAREST_BLOCK_ROWS):
        hi = min(lo + NEAREST_BLOCK_ROWS, n)
        d2 = ((points[lo:hi, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        best[lo:hi] = d2.argmin(axis=1)
        d2min[lo:hi] = d2.min(axis=1)
    return best, d2min


class _SCState:
    def __init__(self, n_points: int):
        self.assignment = np.full(n_points, -1, dtype=np.int64)
        self.cost = 0.0


def _chunk_task(pts_region, ctr_region, state: _SCState, best: np.ndarray,
                d2min: np.ndarray, dims: int, n_centers: int, lo: int, hi: int,
                lock: SimLock, pts_block: int, n_ctr_blocks: int,
                scan_ns: float, record: bool = True):
    # Stream my point rows; centers are hot shared reads.  The straight-line
    # section up to the critical section compiles into one program; the
    # cost fold stays on the generator side so the float accumulation order
    # across chunks is unchanged (it runs at the first resume after the
    # critical row — exactly where the interpreted ops resumed it).
    row_bytes = dims * 4
    b0 = lo * row_bytes // pts_block
    b1 = max(b0 + 1, -(-hi * row_bytes // pts_block))
    program = OpProgram()
    program.run(pts_region, b0, b1 - b0, compute_ns_per_block=scan_ns)
    program.run(ctr_region, 0, n_ctr_blocks)
    state.assignment[lo:hi] = best[lo:hi]
    part_cost = float(d2min[lo:hi].sum())
    program.compute((hi - lo) * n_centers * dims * DIST_NS_PER_ELEM)
    # Fold the partial cost under the global lock (center-open check).
    program.critical(lock, CRITICAL_NS)
    yield program
    if record:
        state.cost += part_cost
    yield YieldPoint()
    return hi - lo


def run_streamcluster(
    machine: Machine,
    strategy: SchedulingStrategy,
    n_workers: int,
    points: np.ndarray,
    n_centers: int = 12,
    batch_points: Optional[int] = None,
    search_iterations: int = 3,
    seed: int = 7,
) -> StreamclusterResult:
    """Cluster ``points`` in chunked batches under ``strategy``.

    Each batch runs ``search_iterations`` local-search passes over its
    points (PARSEC streamcluster's gain evaluation re-reads the batch many
    times), so the batch's working set is *reused* — a scheduler whose
    chiplet footprint covers it serves passes 2..n from L3, one that packs
    few chiplets re-streams from DRAM (Fig. 9 / Tab. 2).  Chunk count
    scales with workers, so high core counts fragment the per-chunk work
    until the serial center-open section dominates — the speedup collapse
    beyond ~40 cores.
    """
    n_points, dims = points.shape
    runtime = Runtime(machine, n_workers, strategy, seed=seed)
    pts_region = runtime.alloc_shared(
        n_points * dims * 4, read_only=True, name="sc-points"
    )
    ctr_region = runtime.alloc_shared(
        max(n_centers * dims * 4, 512), read_only=False, name="sc-centers", block_bytes=512
    )
    centers = points[:n_centers]
    best, d2min = _nearest(points, centers)
    state = _SCState(n_points)
    lock = SimLock("sc-open")
    batch = batch_points or n_points
    scan_ns = pts_region.block_bytes / POINT_SCAN_BW

    def coordinator(runtime=runtime):
        from repro.runtime.ops import SpawnOp, WaitFuture

        for b0 in range(0, n_points, batch):
            b1 = min(b0 + batch, n_points)
            for sweep in range(search_iterations):
                record = sweep == search_iterations - 1
                n_chunks = max(1, min(n_workers * 4, (b1 - b0) // 8 or 1))
                bounds = np.linspace(b0, b1, n_chunks + 1, dtype=np.int64)
                tasks = []
                for lo, hi in zip(bounds, bounds[1:]):
                    if hi <= lo:
                        continue
                    t = yield SpawnOp(
                        _chunk_task,
                        (pts_region, ctr_region, state, best, d2min, dims,
                         centers.shape[0], int(lo), int(hi), lock,
                         pts_region.block_bytes, ctr_region.n_blocks, scan_ns,
                         record),
                        name=f"sc-{lo}",
                    )
                    tasks.append(t)
                for t in tasks:
                    fut = runtime.completion_future(t)
                    if not fut.done:
                        yield WaitFuture(fut)
        return state.cost

    runtime.spawn(coordinator, name="sc-coordinator")
    report = runtime.run()
    return StreamclusterResult(
        strategy=strategy.name,
        n_workers=n_workers,
        wall_ns=report.wall_ns,
        cost=state.cost,
        assignment=state.assignment,
        report=report,
    )
