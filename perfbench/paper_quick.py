"""paper_quick: a fixed slice of the quick paper suite, run serially.

This is what ``repro all`` users wait for.  The full quick suite (173
cells) takes about 25 s on a 2-cpu host, too long to repeat inside one
run, so the workload runs every sixth cell of the suite in suite order
(29 cells, about 3.6 s).  The slice keeps every workload family: graph,
gups, streamcluster, sgd, olap and oltp.  Cells run in the benchmark
process through ``repro.bench.cells.execute_cell``; the benchmark seed
replaces each cell's ``ExperimentCell.seed``.

A run does:

1. a check pass with the per-runtime invariants installed, recording the
   datasets the cells fetch and each cell's result digest (compared with
   the recorded digests when the seed is the default one);
2. set-up, repeated: drop the dataset cache and rebuild those datasets;
3. timed passes over the slice until ``--seconds`` is spent.  Every
   result must equal the check pass's bit for bit.
"""

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    DEFAULT_SEED, OUT, BenchError, Outcome, Patch, digest, invariant_patch,
    load_golden, median, more_time, peak_rss_mb, quantile,
)

STRIDE = 6
OFFSET = 2
FAMILIES = ("graph", "gups", "streamcluster", "sgd", "olap", "oltp")
SETUP_REPEATS = 3
MIN_PASSES = 3


def family(cell: Any) -> str:
    p = cell.params
    if p.get("algo") == "gups":
        return "gups"
    if "algo" in p:
        return "graph"
    if "n_points" in p:
        return "streamcluster"
    if "kernel" in p:
        return "sgd"
    if "query" in p:
        return "olap"
    if p.get("workload") in ("ycsb", "tpcc"):
        return "oltp"
    return "other"


def slice_cells(seed: int) -> List[Any]:
    from repro.bench.cells import REGISTRY
    from repro.cli import EXPERIMENT_ORDER

    suite = [c for name in EXPERIMENT_ORDER for c in REGISTRY[name].cells(True)]
    cells = [replace(c, seed=seed) for c in suite[OFFSET::STRIDE]]
    missing = set(FAMILIES) - {family(c) for c in cells}
    if missing:
        raise BenchError(f"paper_quick slice lost families {sorted(missing)}")
    return cells


def _run_pass(cells: List[Any], out: Outcome, reference: Dict[str, str],
              latencies: Optional[List[float]] = None,
              tracer: Any = None) -> float:
    """One serial pass over the slice; returns its wall seconds."""
    from repro.bench.cells import execute_cell

    t_pass = time.perf_counter()
    for cell in cells:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = execute_cell(cell)
            else:
                with tracer.root(cell.cell_id):
                    result = execute_cell(cell)
        except Exception as exc:  # a raising cell is a counted failure
            out.fail(f"{cell.cell_id}: {exc!r}")
            continue
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        if digest(result) != reference.get(cell.cell_id):
            out.fail(f"{cell.cell_id}: result differs from the check pass")
    return time.perf_counter() - t_pass


def _check_pass(cells: List[Any], seed: int, out: Outcome,
                ) -> Tuple[Dict[str, str], List[Tuple[str, Dict[str, Any]]]]:
    """Invariant-checked pass: reference digests + dataset requests."""
    from repro.bench import datasets
    from repro.bench.cells import execute_cell

    requested: Dict[Tuple, Tuple[str, Dict[str, Any]]] = {}
    get = datasets.get

    def recording_get(kind, **params):
        requested.setdefault((kind, tuple(sorted(params.items()))), (kind, params))
        return get(kind, **params)

    reference: Dict[str, str] = {}
    with invariant_patch(), Patch() as patch:
        patch.set(datasets, "get", recording_get)
        for cell in cells:
            out.attempted += 1
            try:
                reference[cell.cell_id] = digest(execute_cell(cell))
            except Exception as exc:
                out.fail(f"{cell.cell_id}: {exc!r}")
    out.check("runtime invariants (fills == accesses, tasks completed == "
              "created, directory consistent) on every runtime")
    if seed == DEFAULT_SEED:
        golden = load_golden()["paper_quick"]
        for cell in cells:
            if reference.get(cell.cell_id) != golden.get(cell.cell_id):
                out.fail(f"{cell.cell_id}: digest differs from the recorded one")
        out.check(f"recorded digests of all {len(cells)} cells (seed {seed})")
    out.check("every timed pass bit-identical to the check pass")
    return reference, list(requested.values())


def _setup(requested: List[Tuple[str, Dict[str, Any]]]) -> Tuple[float, int]:
    """Drop and rebuild the slice's datasets; (seconds, builds)."""
    from repro.bench import datasets

    datasets.clear()
    t0 = time.perf_counter()
    for kind, params in requested:
        datasets.get(kind, **params)
    return time.perf_counter() - t0, datasets.stats()["builds"]


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    from repro.bench import datasets

    out = Outcome("paper_quick")
    cells = slice_cells(seed)
    reference, requested = _check_pass(cells, seed, out)
    setups = [_setup(requested) for _ in range(SETUP_REPEATS)]
    setup_s = median([s for s, _ in setups])
    builds = setups[-1][1]

    if trace:
        _traced(cells, out, reference, seconds)
        out.metric("bench.datasets.builds", builds)
        out.metric("bench.datasets.s", setup_s)
        return out

    builds_before = datasets.stats()["builds"]
    walls: List[float] = []
    latencies: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or more_time(deadline, walls):
        walls.append(_run_pass(cells, out, reference, latencies))
    if datasets.stats()["builds"] != builds_before:
        out.fail("timed passes built datasets that set-up did not")
    out.metric("setup_s", import_s + setup_s)
    out.metric("wall_s", median(walls))
    out.metric("peak_rss_mb", peak_rss_mb())
    out.metric("p50_ms", median(latencies) * 1e3)
    out.metric("p95_ms", quantile(latencies, 0.95) * 1e3)
    out.notes.append(f"{len(walls)} passes of {len(cells)} cells "
                     f"({min(walls):.3f}..{max(walls):.3f} s); "
                     f"{len(latencies)} cell latencies; "
                     f"{builds} dataset builds per set-up")
    return out


def _traced(cells: List[Any], out: Outcome, reference: Dict[str, str],
            seconds: float) -> None:
    """Alternate untraced and traced passes; the first traced pass gives
    the per-layer numbers, the pass medians give the overhead."""
    from tracer import LayerTracer

    untraced: List[float] = []
    traced: List[float] = []
    latencies: List[float] = []
    first: Optional[LayerTracer] = None
    deadline = time.perf_counter() + seconds
    while not traced or more_time(deadline, [untraced[-1] + traced[-1]]):
        untraced.append(_run_pass(cells, out, reference, latencies))
        tracer = LayerTracer().install()
        try:
            traced.append(_run_pass(cells, out, reference, tracer=tracer))
        finally:
            tracer.restore()
        if first is None:
            first = tracer
    for name, value in first.metrics().items():
        out.metric(name, value)
    out.metric("bench.cell.p50_ms", median(latencies) * 1e3)
    out.metric("bench.cell.max_s", max(latencies))
    layer_self = first.layer_self()
    covered = sum(layer_self.values())
    out.metric("trace.overhead", median(traced) / median(untraced))
    out.metric("trace.self_coverage", covered / traced[0])
    events = first.write_chrome(OUT / "trace_paper_quick.json")
    out.notes.append(
        f"traced {len(traced)} / untraced {len(untraced)} passes; "
        f"{events} trace events in {OUT / 'trace_paper_quick.json'}")
    out.notes.append("layer self s: " + ", ".join(
        f"{k} {v:.3f}" for k, v in layer_self.items())
        + f" (sum {covered:.3f} of traced wall {traced[0]:.3f})")
