"""Streamcluster kernel correctness and scaling mechanics."""

import numpy as np

from repro.baselines import ShoalStrategy
from repro.baselines.vanilla import VanillaStrategy
from repro.hw.machine import milan
from repro.runtime.policy import CharmStrategy
import repro.workloads.streamcluster as sc_mod
from repro.workloads.streamcluster import assign_reference, make_points, run_streamcluster


def test_assignment_matches_reference():
    pts = make_points(4096, 16, 6, seed=4)
    res = run_streamcluster(milan(scale=64), CharmStrategy(), 8, pts, n_centers=6,
                            batch_points=1024)
    ref_assign, ref_cost = assign_reference(pts, pts[:6].copy())
    assert np.array_equal(res.assignment, ref_assign)
    assert abs(res.cost - ref_cost) / ref_cost < 1e-5


def test_points_deterministic():
    a = make_points(128, 8, 3, seed=1)
    b = make_points(128, 8, 3, seed=1)
    assert np.array_equal(a, b)


def test_assignment_independent_of_strategy():
    pts = make_points(4096, 16, 6, seed=4)
    r1 = run_streamcluster(milan(scale=64), CharmStrategy(), 8, pts, n_centers=6)
    r2 = run_streamcluster(milan(scale=64), ShoalStrategy(), 8, pts, n_centers=6)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert r1.cost == r2.cost


def test_parallel_speedup_then_fragmentation():
    pts = make_points(16384, 32, 8, seed=4)
    kw = dict(n_centers=8, batch_points=8192)
    t1 = run_streamcluster(milan(scale=32), VanillaStrategy(), 1, pts, **kw).wall_ns
    t16 = run_streamcluster(milan(scale=32), CharmStrategy(), 16, pts, **kw).wall_ns
    t128 = run_streamcluster(milan(scale=32), CharmStrategy(), 128, pts, **kw).wall_ns
    assert t1 / t16 > 3.0          # parallel speedup exists
    assert t1 / t128 < t1 / t16    # fragmentation erodes it


def test_precomputed_nearest_matches_per_chunk_computation(monkeypatch):
    """Slicing the once-per-run distances equals computing them per chunk.

    5000 points are not a multiple of the 2048-row precompute block, and
    three batches give chunk bounds that straddle the block edges.  The
    reference task recomputes each chunk's distances, as the chunk tasks
    did before the precompute; everything else about the run is equal.
    """
    from repro.runtime.ops import YieldPoint
    from repro.runtime.program import OpProgram

    pts = make_points(5000, 64, 10, seed=4)
    n_centers = 12
    centers = pts[:n_centers].copy()

    def per_chunk_task(pts_region, ctr_region, state, best, d2min, dims,
                       n_ctr, lo, hi, lock, pts_block, n_ctr_blocks, scan_ns,
                       record=True):
        chunk = pts[lo:hi]
        row_bytes = chunk.shape[1] * 4
        b0 = lo * row_bytes // pts_block
        b1 = max(b0 + 1, -(-hi * row_bytes // pts_block))
        program = OpProgram()
        program.run(pts_region, b0, b1 - b0, compute_ns_per_block=scan_ns)
        program.run(ctr_region, 0, n_ctr_blocks)
        d2 = ((chunk[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        state.assignment[lo:hi] = d2.argmin(axis=1)
        part_cost = float(d2.min(axis=1).sum())
        program.compute(chunk.shape[0] * centers.shape[0] * chunk.shape[1]
                        * sc_mod.DIST_NS_PER_ELEM)
        program.critical(lock, sc_mod.CRITICAL_NS)
        yield program
        if record:
            state.cost += part_cost
        yield YieldPoint()
        return hi - lo

    kw = dict(n_centers=n_centers, batch_points=1667)
    res = run_streamcluster(milan(scale=32), CharmStrategy(), 8, pts, **kw)
    monkeypatch.setattr(sc_mod, "_chunk_task", per_chunk_task)
    ref = run_streamcluster(milan(scale=32), CharmStrategy(), 8, pts, **kw)
    assert np.array_equal(res.assignment, ref.assignment)
    assert res.cost == ref.cost
    assert res.wall_ns == ref.wall_ns
    assert np.array_equal(res.assignment, assign_reference(pts, centers)[0])
