"""dse_slice: a cold DSE sweep on a two-process pool.

The slice is ``repro.bench.dse.dse_cells(96)``: the two anchor machines
plus fourteen lattice geometries, each with pagerank and gups under three
policies.  The benchmark seed replaces each cell's ``ExperimentCell.seed``.
Every pass runs ``repro.bench.sweep.run_cells(cells, jobs=2)`` on a fresh
result store (``REPRO_SWEEP_CACHE``), so every cell is simulated in a
forked pool worker and written to the store once.

A run does:

1. a check sweep with the per-runtime invariants installed (the forked
   workers inherit the check), recording each cell's result digest
   (compared with the recorded digests when the seed is the default one);
2. set-up, repeated: open a fresh store and start a two-worker pool;
3. timed cold sweeps until ``--seconds`` is spent.  Every result must
   equal the check sweep's bit for bit.

Per-cell latencies are the sweep's own per-cell wall times, read back
from the store.  Spans from forked workers do not come back, so the
traced run takes the simulator-layer split from an inline traced pass
over the same cells, and the sweep-level numbers from ``SweepStats``.
"""

import multiprocessing
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    DEFAULT_SEED, OUT, Outcome, digest, invariant_patch, load_golden, median,
    more_time, peak_rss_mb, quantile, work_dir,
)

BUDGET = 96
JOBS = 2
SETUP_REPEATS = 5
MIN_PASSES = 3


def slice_cells(seed: int) -> List[Any]:
    from repro.bench.dse import dse_cells

    return [replace(c, seed=seed) for c in dse_cells(BUDGET)]


class _Stores:
    """Numbered fresh store directories, removed together at the end."""

    def __init__(self) -> None:
        self.root = work_dir("dse_stores")
        self.n = 0

    def fresh(self) -> Path:
        self.n += 1
        path = self.root / f"store{self.n}"
        os.environ["REPRO_SWEEP_CACHE"] = str(path)
        return path

    def close(self) -> None:
        from repro.bench import sweep

        sweep.get_store().close()
        shutil.rmtree(self.root, ignore_errors=True)


def _sweep(cells: List[Any], stores: _Stores, out: Outcome,
           reference: Optional[Dict[str, str]],
           ) -> Tuple[Dict[str, Any], Any, float, List[float]]:
    """One cold sweep: (results, stats, wall seconds, per-cell walls)."""
    from repro.bench import sweep

    stores.fresh()
    out.attempted += len(cells)
    t0 = time.perf_counter()
    try:
        results, stats = sweep.run_cells(cells, jobs=JOBS, use_cache=True)
    except Exception as exc:  # a raising cell fails the whole sweep
        out.fail(f"sweep raised {exc!r}", count=len(cells))
        return {}, None, time.perf_counter() - t0, []
    wall = time.perf_counter() - t0
    store = sweep.get_store()
    walls = [store.wall_of(sweep.cache_key(c)) for c in cells]
    if reference is not None:
        for cell in cells:
            if digest(results.get(cell.cell_id)) != reference.get(cell.cell_id):
                out.fail(f"{cell.cell_id}: result differs from the check sweep")
    return results, stats, wall, [w for w in walls if w is not None]


def _check_sweep(cells: List[Any], seed: int, stores: _Stores,
                 out: Outcome) -> Dict[str, str]:
    with invariant_patch():
        results, _, _, _ = _sweep(cells, stores, out, None)
    reference = {c.cell_id: digest(results[c.cell_id])
                 for c in cells if c.cell_id in results}
    out.check("runtime invariants (fills == accesses, tasks completed == "
              "created, directory consistent) on every runtime, in the "
              "pool workers")
    if seed == DEFAULT_SEED and results:
        golden = load_golden()["dse_slice"]
        for cell in cells:
            if reference.get(cell.cell_id) != golden.get(cell.cell_id):
                out.fail(f"{cell.cell_id}: digest differs from the recorded one")
        out.check(f"recorded digests of all {len(cells)} cells (seed {seed})")
    out.check("every timed sweep bit-identical to the check sweep")
    return reference


def _setup(stores: _Stores) -> float:
    """Open a fresh store and start the sweep's pool, as run_cells does."""
    from repro.bench.store import ResultStore

    ctx = multiprocessing.get_context("fork")
    t0 = time.perf_counter()
    store = ResultStore.open(stores.fresh())
    pool = ProcessPoolExecutor(max_workers=JOBS, mp_context=ctx)
    try:
        for fut in [pool.submit(os.getpid) for _ in range(JOBS)]:
            fut.result()
        elapsed = time.perf_counter() - t0
    finally:
        pool.shutdown(wait=True)
        store.close()
    return elapsed


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome("dse_slice")
    cells = slice_cells(seed)
    stores = _Stores()
    try:
        reference = _check_sweep(cells, seed, stores, out)
        setup_s = median([_setup(stores) for _ in range(SETUP_REPEATS)])
        if trace:
            _traced(cells, stores, out, reference, seconds)
            return out
        walls: List[float] = []
        cell_walls: List[float] = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_PASSES or more_time(deadline, walls):
            _, _, wall, per_cell = _sweep(cells, stores, out, reference)
            walls.append(wall)
            cell_walls.extend(per_cell)
    finally:
        stores.close()
    out.metric("setup_s", import_s + setup_s)
    out.metric("wall_s", median(walls))
    out.metric("peak_rss_mb", peak_rss_mb())
    out.metric("p50_ms", median(cell_walls) * 1e3)
    out.metric("p95_ms", quantile(cell_walls, 0.95) * 1e3)
    out.notes.append(f"{len(walls)} cold sweeps of {len(cells)} cells at "
                     f"jobs={JOBS} ({min(walls):.3f}..{max(walls):.3f} s); "
                     f"{len(cell_walls)} cell latencies")
    return out


def _traced(cells: List[Any], stores: _Stores, out: Outcome,
            reference: Dict[str, str], seconds: float) -> None:
    from repro.bench import datasets
    from repro.bench.cells import execute_cell
    from tracer import LayerTracer

    untraced: List[float] = []
    traced: List[float] = []
    cell_walls: List[float] = []
    stats = None
    sweep_tracer: Optional[LayerTracer] = None
    deadline = time.perf_counter() + seconds / 2
    while not traced or more_time(deadline, [untraced[-1] + traced[-1]]):
        _, s, wall, per_cell = _sweep(cells, stores, out, reference)
        untraced.append(wall)
        cell_walls.extend(per_cell)
        stats = stats or s
        tracer = LayerTracer().install()
        try:
            with tracer.root("dse sweep", name="bench.sweep"):
                _, _, wall, _ = _sweep(cells, stores, out, reference)
        finally:
            tracer.restore()
        traced.append(wall)
        sweep_tracer = sweep_tracer or tracer

    # inline traced pass: the simulator layers of the same cells
    inline = LayerTracer().install()
    builds0 = datasets.stats()["builds"]
    t0 = time.perf_counter()
    try:
        for cell in cells:
            out.attempted += 1
            try:
                with inline.root(cell.cell_id):
                    result = execute_cell(cell)
            except Exception as exc:
                out.fail(f"{cell.cell_id}: {exc!r}")
                continue
            if digest(result) != reference.get(cell.cell_id):
                out.fail(f"{cell.cell_id}: inline result differs from the sweep")
    finally:
        inline.restore()
    inline_wall = time.perf_counter() - t0

    for name, value in inline.metrics().items():
        out.metric(name, value)
    tot = inline.totals()
    out.metric("bench.datasets.builds", datasets.stats()["builds"] - builds0)
    out.metric("bench.datasets.s",
               tot.get("bench.datasets.get", {"s": 0.0})["s"])
    out.metric("bench.cell.p50_ms", median(cell_walls) * 1e3)
    out.metric("bench.cell.max_s", max(cell_walls))
    if stats is not None:
        out.metric("bench.sweep.pool_efficiency", stats.efficiency)
        out.metric("bench.sweep.busy_s", stats.busy_s)
        out.metric("bench.sweep.chunks", stats.chunks)
    sweep_tot = sweep_tracer.totals()
    for op in ("get", "put"):
        agg = sweep_tot.get(f"bench.store.{op}", {"calls": 0, "s": 0.0})
        out.metric(f"bench.store.{op}.calls", agg["calls"])
        out.metric(f"bench.store.{op}.s", agg["s"])
    layer_self = inline.layer_self()
    covered = sum(layer_self.values())
    out.metric("trace.overhead", median(traced) / median(untraced))
    out.metric("trace.self_coverage", covered / inline_wall)
    events = inline.write_chrome(OUT / "trace_dse_slice.json")
    out.notes.append(
        f"traced {len(traced)} / untraced {len(untraced)} sweeps; inline "
        f"traced pass {inline_wall:.3f} s; {events} trace events in "
        f"{OUT / 'trace_dse_slice.json'}")
    out.notes.append("inline layer self s: " + ", ".join(
        f"{k} {v:.3f}" for k, v in layer_self.items())
        + f" (sum {covered:.3f} of inline wall {inline_wall:.3f})")
