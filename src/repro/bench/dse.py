"""Design-space exploration: thousand-config Pareto sweeps over geometry.

This is the feature the sweep engine was rebuilt to carry: a
budget-driven generator of machine configurations — chiplet count ×
cores/chiplet × L3 slice size × DRAM channels × inter-chiplet link
latency, anchored on the EPYC Milan and Xeon Sapphire Rapids testbeds
(:data:`repro.hw.machine.GEOMETRY_ANCHORS`) — fanned as (config ×
workload × policy) cells through the parallel sweep pool and reduced to

- **Pareto frontiers** per workload: throughput vs total L3 capacity vs
  total channel count (a config is on the frontier if nothing beats it
  on every axis at once), and
- a **"where does CHARM win" summary**: per-config speedup of the CHARM
  policy over ring and static placement, ranked and aggregated along
  the geometry axes that drive it (chiplet count, link latency).

Workloads are chosen so every axis bites at DSE scale (machine scale
128): 3-iteration PageRank re-traverses its graph enough for L3
capacity, link latency, and placement policy to separate configs; GUPS
on a DRAM-resident table exposes channel count and geometry.

Usage::

    python -m repro dse --budget 1000 --jobs 0        # sweep + reduce

Outputs land under ``results/dse/`` (``cells.csv``, per-workload
``frontier_*.csv``, ``summary.txt``).  Serial and parallel runs produce
bit-identical CSVs — the reduction consumes the merged result dict, and
the sweep engine guarantees scheduling never changes a result bit.
"""

import argparse
import csv
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.cells import ExperimentCell, register
from repro.hw.machine import GEOMETRY_ANCHORS, MIB, MachineGeometry

__all__ = [
    "DEFAULT_BUDGET",
    "dse_cells",
    "generate_configs",
    "pareto_frontier",
    "run_dse",
]

#: L3-capacity divisor (and implicit dataset shrink) for every DSE
#: machine — same trick as the named presets: capacity boundaries are
#: preserved while each cell simulates tens of milliseconds of work.
DSE_MACHINE_SCALE = 128

#: default cell budget of ``python -m repro dse``
DEFAULT_BUDGET = 1000

#: cells per config: len(WORKLOADS) × len(POLICIES)
WORKLOADS = ("pagerank", "gups")
POLICIES = ("charm", "ring", "static-2")

#: worker-count cap per cell — beyond this the simulated work per cell
#: grows without changing which geometry wins
MAX_WORKERS = 48

# The config lattice.  Values were chosen (and sensitivity-tested) so
# each axis produces measurable spread at DSE_MACHINE_SCALE: the L3 axis
# straddles the PageRank working set, the channel axis saturates GUPS at
# the low end, and the link axis separates placement policies.
AXIS_CHIPLETS_PER_SOCKET = (2, 4, 8, 12)
AXIS_CORES_PER_CHIPLET = (4, 8, 12)
AXIS_L3_MIB = (4, 8, 16, 32)
AXIS_CHANNELS = (4, 8, 12)
AXIS_LINK_SCALE = (0.5, 1.0, 2.0)


def full_lattice() -> List[MachineGeometry]:
    """Every lattice point, in canonical axis order (deterministic)."""
    configs = []
    for cps in AXIS_CHIPLETS_PER_SOCKET:
        for cpc in AXIS_CORES_PER_CHIPLET:
            for l3 in AXIS_L3_MIB:
                for ch in AXIS_CHANNELS:
                    for lk in AXIS_LINK_SCALE:
                        configs.append(MachineGeometry(
                            chiplets_per_socket=cps, cores_per_chiplet=cpc,
                            l3_mib_per_chiplet=l3, mem_channels_per_socket=ch,
                            link_latency_scale=lk))
    return configs


def generate_configs(budget: int) -> List[MachineGeometry]:
    """Budget-driven config selection: ``budget // cells-per-config``
    geometries, anchors first, the rest an evenly-strided sample of the
    canonical lattice.

    Deterministic in ``budget`` alone, so two runs (or serial vs
    parallel) at the same budget explore the identical design space.
    Every returned geometry is validated.
    """
    if budget < len(WORKLOADS) * len(POLICIES):
        raise ValueError(
            f"budget {budget} is below one config's cell count "
            f"({len(WORKLOADS) * len(POLICIES)})")
    n_configs = budget // (len(WORKLOADS) * len(POLICIES))
    lattice = full_lattice()
    configs: List[MachineGeometry] = [
        anchor for anchor in GEOMETRY_ANCHORS[:n_configs]]
    remaining = n_configs - len(configs)
    if remaining >= len(lattice):
        configs.extend(lattice)
    elif remaining > 0:
        # evenly spaced indices including both lattice endpoints
        if remaining == 1:
            picked = [0]
        else:
            picked = sorted({round(i * (len(lattice) - 1) / (remaining - 1))
                             for i in range(remaining)})
        # index collisions (tiny budgets) are topped up from the front
        cursor = 0
        while len(picked) < remaining:
            if cursor not in picked:
                picked.append(cursor)
            cursor += 1
        configs.extend(lattice[i] for i in sorted(picked)[:remaining])
    for geo in configs:
        geo.validate()
    return configs


# -- cells ---------------------------------------------------------------------


def _config_cells(geo: MachineGeometry) -> List[ExperimentCell]:
    cores = min(geo.total_cores, MAX_WORKERS)
    cells = []
    for workload in WORKLOADS:
        for policy in POLICIES:
            params: Dict[str, Any] = {
                "workload": workload,
                "cps": geo.chiplets_per_socket,
                "cpc": geo.cores_per_chiplet,
                "l3_mib": geo.l3_mib_per_chiplet,
                "channels": geo.mem_channels_per_socket,
                "link_scale": geo.link_latency_scale,
            }
            if workload == "pagerank":
                params.update(graph_scale=12, edgefactor=8, graph_seed=2,
                              pagerank_iterations=3)
            else:
                params.update(table_bytes=4 * MIB, updates_per_worker=512)
            cells.append(ExperimentCell.make(
                "dse", machine_preset="dse", strategy=policy, cores=cores,
                **params))
    return cells


def dse_cells(budget: int) -> List[ExperimentCell]:
    """The full cell list for one budget, in merge order."""
    cells = []
    for geo in generate_configs(budget):
        cells.extend(_config_cells(geo))
    return cells


def _geometry_of(cell: ExperimentCell) -> MachineGeometry:
    p = cell.params
    return MachineGeometry(
        chiplets_per_socket=p["cps"], cores_per_chiplet=p["cpc"],
        l3_mib_per_chiplet=p["l3_mib"], mem_channels_per_socket=p["channels"],
        link_latency_scale=p["link_scale"])


def _run_dse_cell(cell: ExperimentCell) -> Dict[str, Any]:
    """One (config × workload × policy) simulation."""
    from repro.bench import datasets
    from repro.bench.experiments import _strategy_for
    from repro.workloads.graph.runner import run_graph_algorithm
    from repro.workloads.gups import run_gups

    p = cell.params
    machine = _geometry_of(cell).build(scale=DSE_MACHINE_SCALE)
    strategy = _strategy_for(cell.strategy, machine)
    if p["workload"] == "gups":
        res = run_gups(machine, strategy, cell.cores, p["table_bytes"],
                       updates_per_worker=p["updates_per_worker"],
                       seed=cell.seed)
        return {"metric": float(res.mups), "unit": "MUPS"}
    graph = datasets.graph(p["graph_scale"], p["edgefactor"],
                           seed=p["graph_seed"])
    res = run_graph_algorithm(
        machine, strategy, "pagerank", graph, cell.cores, seed=cell.seed,
        pagerank_iterations=p["pagerank_iterations"])
    return {"metric": float(res.mteps), "unit": "MTEPS"}


# -- reduction -----------------------------------------------------------------


def pareto_frontier(rows: Sequence[Dict[str, Any]],
                    objectives: Sequence[Tuple[str, str]],
                    ) -> List[Dict[str, Any]]:
    """Non-dominated rows under ``objectives`` (``(key, "max"|"min")``).

    Row A dominates row B when A is at least as good on every objective
    and strictly better on at least one.  Exact all-axis ties dominate
    neither way, so tied rows are all kept.  Output preserves input
    order — with deterministic input, the frontier is deterministic.
    """
    for key, sense in objectives:
        if sense not in ("max", "min"):
            raise ValueError(f"objective sense must be max/min, got {sense!r}")

    def dominates(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
        strictly = False
        for key, sense in objectives:
            av, bv = a[key], b[key]
            if sense == "min":
                av, bv = -av, -bv
            if av < bv:
                return False
            if av > bv:
                strictly = True
        return strictly

    return [r for r in rows
            if not any(dominates(other, r) for other in rows if other is not r)]


#: frontier objectives: best throughput from the least cache silicon and
#: the fewest memory channels (the two cost axes of the design space)
FRONTIER_OBJECTIVES = (
    ("metric", "max"), ("total_l3_mib", "min"), ("total_channels", "min"))


def _rows_from_results(cells: List[ExperimentCell],
                       results: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for cell in cells:
        geo = _geometry_of(cell)
        res = results[cell.cell_id]
        rows.append({
            "config": geo.config_id,
            "cps": geo.chiplets_per_socket,
            "cpc": geo.cores_per_chiplet,
            "l3_mib": geo.l3_mib_per_chiplet,
            "channels": geo.mem_channels_per_socket,
            "link_scale": geo.link_latency_scale,
            "total_cores": geo.total_cores,
            "total_l3_mib": geo.total_l3_mib,
            "total_channels": geo.total_channels,
            "workload": cell.params["workload"],
            "policy": cell.strategy,
            "metric": res["metric"],
            "unit": res["unit"],
        })
    return rows


def _charm_summary(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per (config, workload): CHARM's speedup over ring and static.

    Sorted by speedup over the *best* competitor, descending — the head
    of the list is where the heterogeneity-aware runtime matters most.
    """
    by_key: Dict[Tuple[str, str], Dict[str, float]] = {}
    for r in rows:
        by_key.setdefault((r["config"], r["workload"]), {})[r["policy"]] = r["metric"]
    summary = []
    for (config, workload), metrics in by_key.items():
        if not all(p in metrics for p in POLICIES):
            continue
        charm = metrics["charm"]
        ring, static = metrics["ring"], metrics["static-2"]
        best_rival = max(ring, static)
        summary.append({
            "config": config, "workload": workload,
            "charm": charm, "ring": ring, "static": static,
            "speedup_vs_ring": charm / ring if ring else 0.0,
            "speedup_vs_static": charm / static if static else 0.0,
            "speedup_vs_best": charm / best_rival if best_rival else 0.0,
        })
    summary.sort(key=lambda s: (-s["speedup_vs_best"], s["config"], s["workload"]))
    return summary


def _axis_trends(summary: List[Dict[str, Any]],
                 rows: List[Dict[str, Any]]) -> List[str]:
    """Mean CHARM-vs-best-rival speedup along the axes that drive it."""
    geo_of = {r["config"]: r for r in rows}
    lines = []
    for axis, label in (("cps", "chiplets/socket"), ("link_scale", "link scale")):
        buckets: Dict[Any, List[float]] = {}
        for s in summary:
            buckets.setdefault(geo_of[s["config"]][axis], []).append(
                s["speedup_vs_best"])
        parts = [f"{value:g}: {sum(v) / len(v):.3f}x"
                 for value, v in sorted(buckets.items())]
        lines.append(f"mean CHARM speedup by {label} — " + ", ".join(parts))
    return lines


# -- output --------------------------------------------------------------------

_CSV_COLUMNS = ["config", "cps", "cpc", "l3_mib", "channels", "link_scale",
                "total_cores", "total_l3_mib", "total_channels",
                "workload", "policy", "metric", "unit"]


def _write_csv(path: Path, rows: List[Dict[str, Any]],
               columns: List[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([r[c] for c in columns])


def _frontier_plot(workload: str, frontier: List[Dict[str, Any]]) -> str:
    from repro.bench.plot import ascii_plot

    series: Dict[str, List[Tuple[float, float]]] = {}
    for r in frontier:
        series.setdefault(f"ch{r['total_channels']}", []).append(
            (float(r["total_l3_mib"]), float(r["metric"])))
    for pts in series.values():
        pts.sort()
    unit = frontier[0]["unit"] if frontier else "?"
    return ascii_plot(series, width=64, height=16,
                      title=f"DSE frontier: {workload} (charm)",
                      x_label="total L3 MiB", y_label=unit)


def reduce_results(cells: List[ExperimentCell], results: Dict[str, Any],
                   ) -> Dict[str, Any]:
    """Fold raw cell results into rows, frontiers, and the CHARM summary."""
    rows = _rows_from_results(cells, results)
    frontiers = {}
    for workload in WORKLOADS:
        candidates = [r for r in rows
                      if r["workload"] == workload and r["policy"] == "charm"]
        frontiers[workload] = pareto_frontier(candidates, FRONTIER_OBJECTIVES)
    summary = _charm_summary(rows)
    return {"rows": rows, "frontiers": frontiers, "summary": summary,
            "trends": _axis_trends(summary, rows)}


def render_summary(report: Dict[str, Any]) -> str:
    lines = []
    for workload, frontier in report["frontiers"].items():
        lines.append(f"{workload}: {len(frontier)} non-dominated configs "
                     f"(of {sum(1 for r in report['rows'] if r['workload'] == workload and r['policy'] == 'charm')})")
        lines.append(_frontier_plot(workload, frontier))
    lines.append("Top CHARM wins (speedup over best of ring/static):")
    lines.append(f"  {'config':28s} {'workload':9s} {'charm':>9s} "
                 f"{'ring':>9s} {'static':>9s} {'vs best':>8s}")
    for s in report["summary"][:10]:
        lines.append(f"  {s['config']:28s} {s['workload']:9s} "
                     f"{s['charm']:9.1f} {s['ring']:9.1f} {s['static']:9.1f} "
                     f"{s['speedup_vs_best']:7.3f}x")
    lines.extend(report["trends"])
    return "\n".join(lines)


def write_outputs(out_dir: Path, report: Dict[str, Any]) -> List[Path]:
    out_dir = Path(out_dir)
    written = []
    cells_csv = out_dir / "cells.csv"
    _write_csv(cells_csv, report["rows"], _CSV_COLUMNS)
    written.append(cells_csv)
    for workload, frontier in report["frontiers"].items():
        path = out_dir / f"frontier_{workload}.csv"
        _write_csv(path, frontier, _CSV_COLUMNS)
        written.append(path)
    summary_path = out_dir / "summary.txt"
    summary_path.write_text(render_summary(report) + "\n")
    written.append(summary_path)
    return written


# -- the registered experiment (sweep-engine entry points) ---------------------


def _dse_exp_cells(quick: bool = True, budget: int = DEFAULT_BUDGET,
                   **_ignored) -> List[ExperimentCell]:
    return dse_cells(budget)


def _dse_exp_merge(quick: bool, results: Dict[str, Any],
                   budget: int = DEFAULT_BUDGET, **_ignored,
                   ) -> Tuple[Dict[str, Any], str]:
    cells = dse_cells(budget)
    report = reduce_results(cells, results)
    return report, render_summary(report)


register("dse", _dse_exp_cells, _run_dse_cell, _dse_exp_merge)


# -- orchestration -------------------------------------------------------------


def run_dse(budget: int = DEFAULT_BUDGET, jobs: int = 0,
            out_dir: Path = Path("results") / "dse", use_cache: bool = True,
            progress=None,
            ) -> Tuple[Dict[str, Any], Any]:
    """Generate, sweep, reduce, and write one DSE run.

    Returns ``(report, SweepStats)``; files land under ``out_dir``.
    """
    from repro.bench.sweep import run_cells

    cells = dse_cells(budget)
    results, stats = run_cells(cells, jobs=jobs, use_cache=use_cache,
                               progress=progress)
    stats.experiments = ["dse"]
    report = reduce_results(cells, results)
    report["stats"] = stats.as_dict()
    write_outputs(out_dir, report)
    return report, stats


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max cells to generate (configs × workloads × "
                             "policies)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (0 = auto from CPU affinity)")
    parser.add_argument("--out", type=Path, default=Path("results") / "dse",
                        help="output directory for CSVs and summary")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the result store")
    args = parser.parse_args(argv)

    def say(msg: str) -> None:
        print(f"[dse] {msg}", file=sys.stderr, flush=True)

    report, stats = run_dse(budget=args.budget, jobs=args.jobs,
                            out_dir=args.out,
                            use_cache=not args.no_cache, progress=say)
    print(render_summary(report))
    print(f"\n{stats.total} cells ({stats.cache_hits} cached) in "
          f"{stats.wall_s:.1f}s — {stats.cells_per_sec:.1f} cells/s, "
          f"pool efficiency {stats.efficiency:.2f}, jobs={stats.jobs}")
    print(f"outputs: {args.out}/cells.csv, frontier_*.csv, summary.txt")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
