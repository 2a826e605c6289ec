"""Parallel sweep engine: shard experiment cells across processes.

The experiment matrix of :mod:`repro.bench.experiments` is embarrassingly
parallel once decomposed into cells (:mod:`repro.bench.cells`): every
cell is a pure function of its own config, so the engine can

- **shard** the deduplicated cell list across a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``--jobs N``; ``0``
  means auto: one less than the CPUs this process may actually run on,
  per ``os.sched_getaffinity`` — not ``os.cpu_count()``, which
  overcounts on cgroup-limited/CPU-pinned hosts),
- **schedule** for throughput at scale: cells are ordered
  longest-job-first by a cost model (:mod:`repro.bench.cost`) calibrated
  from previously measured wall-clocks, and submitted to the pool in
  chunks sized to ``total/(jobs × 4)`` so ten thousand sub-50ms cells
  don't pay executor IPC per cell, and
- **cache** each finished cell's JSON result under a content-addressed
  key — ``sha256(cell config + code version)`` — in a packed
  SQLite-backed result store (:mod:`repro.bench.store`; one file, LRU
  bounded, atomic per entry), so a killed or repeated sweep skips
  completed cells entirely.

Outputs are bit-identical to the serial path by construction: the same
``run_cell`` executes (in a worker instead of inline), results are
JSON-native so a store round-trip preserves every bit, and each
experiment's ``merge`` folds results in cell order, never completion or
schedule order — reordering and chunking change *when* cells run, not
what any of them computes.  ``tests/test_sweep_equivalence.py`` pins
this.

The cache key includes a hash of every source file under ``src/repro``,
so any code change invalidates all cached results at once; stale entries
are reclaimed by ``python -m repro cache gc``.

Usage::

    python -m repro run fig07_amd_scalability --jobs 4
    python -m repro all --jobs 0            # auto-size the pool
    python -m repro cache stats             # result-store contents
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.cells import (
    ExperimentCell,
    REGISTRY,
    execute_cell,
    execute_cell_telemetry,
)
from repro.bench.cost import CostModel
from repro.bench.store import STORE_FILENAME, ResultStore

__all__ = [
    "SweepStats",
    "cache_dir",
    "cache_key",
    "code_version",
    "get_store",
    "run_cells",
    "run_experiment",
    "run_many",
]

#: default on-disk cache location (override with ``REPRO_SWEEP_CACHE``)
DEFAULT_CACHE_DIR = Path("results") / ".sweep-cache"

#: chunked submission targets this many chunks per worker, so the pool
#: stays load-balanced (workers that draw short chunks pick up more)
#: without per-cell submission overhead
CHUNKS_PER_WORKER = 4

#: hard cap on cells per chunk — bounds the result latency of one future
#: and the damage radius of a worker crash
MAX_CHUNK_CELLS = 64

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file — the cache-invalidation token.

    Computed once per process; any edit under ``src/repro`` changes the
    token and therefore every cache key.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        pkg_root = Path(__file__).resolve().parents[1]  # src/repro
        h = hashlib.sha256()
        for py in sorted(pkg_root.rglob("*.py")):
            h.update(str(py.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(py.read_bytes())
            h.update(b"\0")
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_SWEEP_CACHE", str(DEFAULT_CACHE_DIR)))


_STORE: Optional[ResultStore] = None
_STORE_DIR: Optional[Path] = None


def get_store() -> ResultStore:
    """The process-wide result store for the current cache directory.

    Opened lazily (``--no-cache`` runs never create the directory) and
    reopened whenever ``REPRO_SWEEP_CACHE`` points somewhere new — tests
    repoint it per-case.
    """
    global _STORE, _STORE_DIR
    d = cache_dir()
    if _STORE is None or _STORE_DIR != d:
        if _STORE is not None:
            _STORE.close()
        _STORE = ResultStore.open(d)
        _STORE_DIR = d
    return _STORE


def cache_key(cell: ExperimentCell, telemetry: bool = False) -> str:
    """Content address of one cell result: config + code version.

    Telemetry-mode results carry an extra ``telemetry`` summary, so they
    cache under a distinct key; plain-mode keys are unchanged (adding the
    marker only when set keeps every pre-telemetry cache entry valid).
    """
    doc: Dict[str, Any] = {"config": cell.config(), "code_version": code_version()}
    if telemetry:
        doc["telemetry"] = True
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def load_cached(cell: ExperimentCell, telemetry: bool = False) -> Tuple[bool, Any]:
    """Return ``(hit, result)``; corrupt/unreadable entries count as misses."""
    return get_store().get(cache_key(cell, telemetry))


def store_cached(cell: ExperimentCell, result: Any, telemetry: bool = False,
                 wall_s: Optional[float] = None) -> None:
    """Persist one cell result (one atomic store transaction).

    ``wall_s``, when known, is recorded alongside the result and the
    cell's work hint — that pair is the calibration set of the
    scheduler's cost model.
    """
    get_store().put(
        cache_key(cell, telemetry),
        cell_id=cell.cell_id,
        experiment=cell.experiment,
        code_version=code_version(),
        result=result,
        telemetry=telemetry,
        wall_s=wall_s,
        work_units=cell.work_hint(),
    )


@dataclass
class SweepStats:
    """What one sweep did: how many cells ran vs came from cache."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    busy_s: float = 0.0
    chunks: int = 0
    experiments: List[str] = field(default_factory=list)

    @property
    def cells_per_sec(self) -> float:
        """Executed cells per second of sweep wall-clock."""
        return self.executed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Pool efficiency: worker-busy seconds over ``wall × jobs``.

        1.0 means every worker computed cells the whole sweep; the gap
        to 1.0 is scheduling (stragglers, submission latency) plus the
        parent's cache probing and store writes.
        """
        if self.wall_s <= 0 or self.jobs <= 0:
            return 0.0
        return self.busy_s / (self.wall_s * self.jobs)

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"total": self.total, "executed": self.executed,
                "cache_hits": self.cache_hits, "jobs": self.jobs,
                "wall_s": round(self.wall_s, 3),
                "busy_s": round(self.busy_s, 3),
                "cells_per_sec": round(self.cells_per_sec, 2),
                "pool_efficiency": round(self.efficiency, 3),
                "chunks": self.chunks,
                "experiments": self.experiments}


def resolve_jobs(jobs: int) -> int:
    """``0`` → auto (available CPUs − 1, floor 1); negatives are an error.

    "Available" means the CPUs this process is allowed to run on
    (``os.sched_getaffinity``), not the machine's CPU count — on
    cgroup-limited or CPU-pinned hosts (CI containers, ``taskset``)
    ``os.cpu_count()`` overcounts and the pool would oversubscribe.
    Platforms without affinity support fall back to ``os.cpu_count()``.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        try:
            available = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            available = os.cpu_count() or 2
        return max(1, available - 1)
    return jobs


def _progress(msg: str) -> None:
    print(f"[sweep] {msg}", file=sys.stderr, flush=True)


def _execute_chunk(chunk: List[ExperimentCell], telemetry: bool,
                   ) -> List[Tuple[Any, float]]:
    """Worker-side: run a chunk of cells, timing each one.

    Returns ``(result, wall_s)`` per cell in chunk order.  One future
    per chunk instead of per cell is what amortizes executor IPC when
    cells are tens of milliseconds each.
    """
    executor = execute_cell_telemetry if telemetry else execute_cell
    out: List[Tuple[Any, float]] = []
    for cell in chunk:
        t0 = time.perf_counter()
        result = executor(cell)
        out.append((result, time.perf_counter() - t0))
    return out


def _order_cells(todo: List[ExperimentCell], model: CostModel,
                 ) -> List[ExperimentCell]:
    """Schedule order for uncached cells: longest-job-first by estimated
    cost (deterministic tiebreak on cell_id), so big cells start early
    and no straggler lands last."""
    return sorted(todo, key=lambda c: (-model.estimate(c), c.cell_id))


def _pack_chunks(ordered: List[ExperimentCell], model: CostModel,
                 jobs: int) -> List[List[ExperimentCell]]:
    """Greedily pack schedule-ordered cells into submission chunks.

    Target chunk cost is ``total/(jobs × CHUNKS_PER_WORKER)``: coarse
    enough to amortize IPC, fine enough that workers drawing short
    chunks rebalance.  Cells costing at least the target become
    singleton chunks (they are their own granule); chunk length is also
    capped at MAX_CHUNK_CELLS for the tiny-cell regime where cost-based
    packing would build huge chunks.
    """
    if not ordered:
        return []
    est = {c.cell_id: max(model.estimate(c), 1e-12) for c in ordered}
    total = sum(est.values())
    target = total / max(1, jobs * CHUNKS_PER_WORKER)
    chunks: List[List[ExperimentCell]] = []
    current: List[ExperimentCell] = []
    current_cost = 0.0
    for cell in ordered:
        current.append(cell)
        current_cost += est[cell.cell_id]
        if current_cost >= target or len(current) >= MAX_CHUNK_CELLS:
            chunks.append(current)
            current, current_cost = [], 0.0
    if current:
        chunks.append(current)
    return chunks


def _fmt_eta(seconds: float) -> str:
    """Compact remaining-time label for progress lines."""
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    if seconds >= 10.0:
        return f"{seconds:.0f}s"
    return f"{seconds:.1f}s"


def run_cells(cells: List[ExperimentCell], jobs: int = 1, use_cache: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              telemetry: bool = False,
              ) -> Tuple[Dict[str, Any], SweepStats]:
    """Execute ``cells``, returning ``({cell_id: result}, stats)``.

    Duplicate cells (same ``cell_id``) run once.  With ``jobs > 1`` the
    uncached cells are sharded across a process pool (fork start method
    where available, so workers inherit warm imports and the builders of
    :mod:`repro.bench.datasets` memoize per process); with ``jobs <= 1``
    they run inline.  Either way results land in a dict keyed by cell_id
    — merge order is the caller's cell order, not completion or schedule
    order, so scheduling cannot change any output bit.

    Uncached work runs longest-job-first by the cost model calibrated
    from the result store, packed into chunks (:func:`_pack_chunks`).

    ``telemetry=True`` runs each cell through
    :func:`~repro.bench.cells.execute_cell_telemetry` (dict results gain
    a ``"telemetry"`` summary) and caches under telemetry-marked keys so
    plain and telemetry sweeps never serve each other's entries.
    """
    jobs = resolve_jobs(jobs)
    say = progress or (lambda msg: None)
    t0 = time.perf_counter()
    executor = execute_cell_telemetry if telemetry else execute_cell
    unique: Dict[str, ExperimentCell] = {}
    for cell in cells:
        unique.setdefault(cell.cell_id, cell)
    stats = SweepStats(total=len(unique), jobs=jobs)

    results: Dict[str, Any] = {}
    todo: List[ExperimentCell] = []
    for cell_id, cell in unique.items():
        if use_cache:
            hit, result = load_cached(cell, telemetry)
            if hit:
                results[cell_id] = result
                stats.cache_hits += 1
                continue
        todo.append(cell)
    if stats.cache_hits:
        say(f"{stats.cache_hits}/{stats.total} cells from cache")

    # ``use_cache=False`` skips stored *results*, not the store's record
    # of what cells cost: calibrate from an existing store either way
    # (without creating one).
    calibrate = use_cache or (cache_dir() / STORE_FILENAME).exists()
    model = CostModel.from_store(get_store()) if calibrate else CostModel()
    ordered = _order_cells(todo, model)

    # ETA from the calibrated cost model: completed estimated-seconds so
    # far give an estimated-seconds/sec rate; remaining estimate / rate
    # is the ETA shown on each progress line.  Self-correcting — a slow
    # host or a mis-calibrated model shifts the observed rate, not the
    # formula.  An uncalibrated model's estimates are bare work hints,
    # not comparable across experiments, and longest-job-first retires
    # the largest first, so their share overstates progress: without
    # samples the ETA uses the observed cells/s rate instead.
    est_of = {cell.cell_id: max(model.estimate(cell), 1e-9) for cell in todo}
    total_est = sum(est_of.values())
    done_est = 0.0
    t_exec = time.perf_counter()

    def eta_suffix() -> str:
        if not 0 < done < len(todo):
            return ""
        elapsed = time.perf_counter() - t_exec
        if elapsed <= 0.0:
            return ""
        # done/elapsed rates already reflect pool parallelism — no jobs
        # division
        if model.calibrated:
            remaining = (total_est - done_est) * elapsed / done_est
        else:
            remaining = (len(todo) - done) * elapsed / done
        return f", eta ~{_fmt_eta(remaining)}"

    done = 0
    if jobs <= 1 or len(todo) <= 1:
        for cell in ordered:
            t_cell = time.perf_counter()
            results[cell.cell_id] = result = executor(cell)
            wall = time.perf_counter() - t_cell
            if use_cache:
                store_cached(cell, result, telemetry, wall_s=wall)
            stats.executed += 1
            stats.busy_s += wall
            done += 1
            done_est += est_of[cell.cell_id]
            say(f"{done}/{len(todo)} cells done ({cell.cell_id})"
                f"{eta_suffix()}")
    else:
        chunks = _pack_chunks(ordered, model, jobs)
        stats.chunks = len(chunks)
        # fork shares the parent's imported modules and dataset cache
        # snapshot; spawn (the only option on some platforms) re-imports
        # inside execute_cell instead.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks)),
                                 mp_context=ctx) as pool:
            pending = {pool.submit(_execute_chunk, chunk, telemetry): chunk
                       for chunk in chunks}
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    chunk = pending.pop(fut)
                    cell_outs = fut.result()  # propagate worker exceptions
                    for cell, (result, wall) in zip(chunk, cell_outs):
                        results[cell.cell_id] = result
                        if use_cache:
                            store_cached(cell, result, telemetry, wall_s=wall)
                        stats.executed += 1
                        stats.busy_s += wall
                        done += 1
                        done_est += est_of[cell.cell_id]
                    say(f"{done}/{len(todo)} cells done "
                        f"(+{len(chunk)}: {chunk[-1].cell_id})"
                        f"{eta_suffix()}")

    stats.wall_s = time.perf_counter() - t0
    return results, stats


def run_experiment(name: str, quick: bool = True, jobs: int = 1,
                   use_cache: bool = True,
                   progress: Optional[Callable[[str], None]] = None,
                   telemetry: bool = False,
                   **overrides) -> Tuple[Any, str, SweepStats]:
    """One experiment through the sweep engine: ``(rows, text, stats)``."""
    exp = REGISTRY[name]
    cells = exp.cells(quick, **overrides)
    results, stats = run_cells(cells, jobs=jobs, use_cache=use_cache,
                               progress=progress, telemetry=telemetry)
    stats.experiments = [name]
    rows, text = exp.merge(quick, results, **overrides)
    return rows, text, stats


def run_many(names: List[str], quick: bool = True, jobs: int = 1,
             use_cache: bool = True,
             progress: Optional[Callable[[str], None]] = None,
             telemetry: bool = False,
             ) -> Tuple[List[Tuple[str, Any, str]], SweepStats]:
    """Run several experiments as ONE pooled sweep.

    All cells are collected up front so the pool stays busy across
    experiment boundaries; each experiment's merge then picks its own
    cells' results out of the shared dict.
    """
    per_exp: List[Tuple[str, List[ExperimentCell]]] = []
    all_cells: List[ExperimentCell] = []
    for name in names:
        cells = REGISTRY[name].cells(quick)
        per_exp.append((name, cells))
        all_cells.extend(cells)
    results, stats = run_cells(all_cells, jobs=jobs, use_cache=use_cache,
                               progress=progress, telemetry=telemetry)
    stats.experiments = list(names)
    out = []
    for name, cells in per_exp:
        rows, text = REGISTRY[name].merge(
            quick, {c.cell_id: results[c.cell_id] for c in cells})
        out.append((name, rows, text))
    return out, stats


# -- maintenance CLI ---------------------------------------------------------


def cache_stats() -> Dict[str, Any]:
    """Describe the result store (for humans and the CI artifact)."""
    stats = get_store().stats(code_version())
    stats["code_version"] = code_version()
    return stats


def cache_gc(older_than_days: Optional[float] = None) -> Dict[str, Any]:
    """Garbage-collect the result store (see :meth:`ResultStore.gc`)."""
    older_than_s = None if older_than_days is None else older_than_days * 86400.0
    return get_store().gc(code_version(), older_than_s=older_than_s)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-stats", action="store_true", required=True,
                        help="print JSON stats of the sweep result store")
    parser.parse_args(argv)
    print(json.dumps(cache_stats(), indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
