"""Command-line interface: ``python -m repro <command>``.

Commands
--------

- ``list``                      — list all reproducible experiments;
- ``run <experiment> [--full]`` — run one experiment and print its table
  (and an ASCII chart for series-shaped results);
- ``all [--full]``              — run the whole evaluation in order;
- ``machine [--preset X]``      — describe a machine preset and its
  latency hierarchy;
- ``trace <experiment>``        — run one cell of an experiment with full
  telemetry attached and export a merged Chrome-trace JSON (loadable in
  Perfetto / ``chrome://tracing``) plus a text digest;
- ``dse [--budget N]``          — budget-driven design-space exploration
  over machine geometry, reduced to Pareto frontiers and a CHARM-vs-
  baselines summary (:mod:`repro.bench.dse`);
- ``serve [--port P --jobs N]`` — the placement-advisor service: an
  asyncio HTTP/JSON server answering what-if placement queries through
  a hot cache, the shared result store, and a warm simulation pool
  (:mod:`repro.serve.app`);
- ``cache stats|gc``            — inspect or garbage-collect the sweep
  result store (``gc --older-than DAYS`` also age-trims live entries).

``run`` and ``all`` accept ``--jobs N`` to shard the experiment cells
across N worker processes (``0`` = auto-size to the host), backed by the
on-disk result cache of :mod:`repro.bench.sweep`; ``--no-cache`` forces
every cell to execute.  Without ``--jobs`` the experiment runs inline in
this process, uncached.  Either way the output is bit-identical.

Examples
--------

::

    python -m repro list
    python -m repro run fig05_local_vs_distributed
    python -m repro run fig07_amd_scalability --full --jobs 4
    python -m repro run fig07_amd_scalability --jobs 1 --telemetry
    python -m repro all --jobs 0
    python -m repro machine --preset sapphire-rapids
    python -m repro trace fig07_amd_scalability
"""

import argparse
import inspect
import sys
from typing import Dict, List

from repro.bench import experiments
from repro.bench.plot import ascii_plot

#: experiments in paper order
EXPERIMENT_ORDER = [
    "fig01_summary",
    "fig03_latency_cdf",
    "fig04_channels",
    "fig05_local_vs_distributed",
    "fig07_amd_scalability",
    "tab1_chiplet_accesses",
    "fig08_intel_scalability",
    "fig09_streamcluster",
    "tab2_streamcluster_accesses",
    "fig10_datasize",
    "fig11_sgd",
    "fig12_concurrency",
    "fig13_tpch",
    "fig14_oltp",
    "sens_threshold",
    "abl_stealing",
    "abl_spread",
    "ext_genoa_whatif",
    "ext_colocation",
]


def _experiments() -> Dict[str, object]:
    return {name: getattr(experiments, name) for name in EXPERIMENT_ORDER}


def _render(name: str, rows, text: str) -> None:
    print(text)
    if isinstance(rows, dict):
        numeric = {
            k: v for k, v in rows.items()
            if isinstance(v, list) and v and isinstance(v[0], tuple)
        }
        if numeric:
            print()
            print(ascii_plot(numeric, title=f"{name} (series view)", x_label="cores"))
    print()


def _run_one(name: str, full: bool, jobs=None, use_cache: bool = True,
             telemetry: bool = False) -> None:
    if telemetry and jobs is None:
        jobs = 1  # telemetry summaries ride on the sweep path
    if jobs is not None:
        from repro.bench import sweep

        rows, text, stats = sweep.run_experiment(
            name, quick=not full, jobs=jobs, use_cache=use_cache,
            progress=sweep._progress, telemetry=telemetry)
        _render(name, rows, text)
        _print_sweep_stats(stats)
        return
    fn = _experiments()[name]
    kwargs = {}
    if "quick" in inspect.signature(fn).parameters:
        kwargs["quick"] = not full
    rows, text = fn(**kwargs)
    _render(name, rows, text)


def _print_sweep_stats(stats) -> None:
    print(f"[sweep] {stats.total} cells: {stats.executed} executed, "
          f"{stats.cache_hits} from cache, {stats.wall_s:.1f}s "
          f"(jobs={stats.jobs})", file=sys.stderr)


def cmd_list(_args) -> int:
    exps = _experiments()
    width = max(len(n) for n in exps)
    for name, fn in exps.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        print(f"{name:<{width}}  {doc[0] if doc else ''}")
    return 0


def cmd_run(args) -> int:
    if args.experiment not in _experiments():
        print(f"unknown experiment {args.experiment!r}; see `python -m repro list`",
              file=sys.stderr)
        return 2
    _run_one(args.experiment, args.full, jobs=args.jobs,
             use_cache=not args.no_cache, telemetry=args.telemetry)
    return 0


def cmd_all(args) -> int:
    jobs = args.jobs
    if args.telemetry and jobs is None:
        jobs = 1
    if jobs is not None:
        from repro.bench import sweep

        sections, stats = sweep.run_many(
            EXPERIMENT_ORDER, quick=not args.full, jobs=jobs,
            use_cache=not args.no_cache, progress=sweep._progress,
            telemetry=args.telemetry)
        for name, rows, text in sections:
            print(f"### {name}")
            _render(name, rows, text)
        _print_sweep_stats(stats)
        return 0
    for name in EXPERIMENT_ORDER:
        print(f"### {name}")
        _run_one(name, args.full)
    return 0


def cmd_machine(args) -> int:
    from repro.hw.machine import genoa, milan, sapphire_rapids

    presets = {
        "milan": milan,
        "sapphire-rapids": sapphire_rapids,
        "genoa": genoa,
    }
    if args.preset not in presets:
        print(f"unknown preset {args.preset!r}; have {sorted(presets)}", file=sys.stderr)
        return 2
    m = presets[args.preset](scale=args.scale)
    print(m.describe())
    topo, lat = m.topo, m.latency
    probes: List[tuple] = [("same chiplet", 0, 1)]
    if topo.chiplets_per_socket > 1:
        probes.append(("cross chiplet, same socket", 0, topo.cores_per_chiplet))
    if topo.sockets > 1:
        probes.append(("cross socket", 0, topo.cores_per_socket))
    print("core-to-core latencies:")
    for label, a, b in probes:
        print(f"  {label:<28s} {lat.core_to_core_ns(topo, a, b):7.1f} ns")
    print(f"  local L3 hit                 {lat.l3_hit:7.1f} ns")
    print(f"  DRAM (local / remote node)   {lat.dram_local:7.1f} / {lat.dram_remote:.1f} ns")
    return 0


def _pick_trace_cell(cells, selector):
    """Choose the cell to trace: ``--cell`` substring match, else the
    first CHARM cell (so the exported trace shows the Alg. 1 decision
    loop), else the first cell."""
    if selector:
        for cell in cells:
            if selector in cell.cell_id:
                return cell
        return None
    for cell in cells:
        if "charm" in cell.strategy:
            return cell
    return cells[0]


def cmd_trace(args) -> int:
    from pathlib import Path

    from repro.bench.cells import REGISTRY, execute_cell
    from repro.obs import capture
    from repro.obs.export import text_summary, write_chrome_trace, write_metrics_csv, \
        write_metrics_json

    if args.experiment not in REGISTRY:
        known = sorted(n for n in REGISTRY if n in EXPERIMENT_ORDER)
        print(f"unknown experiment {args.experiment!r}; celled experiments: {known}",
              file=sys.stderr)
        return 2
    cells = REGISTRY[args.experiment].cells(not args.full)
    cell = _pick_trace_cell(cells, args.cell)
    if cell is None:
        print(f"no cell of {args.experiment!r} matches --cell {args.cell!r}; "
              f"have: {[c.cell_id for c in cells]}", file=sys.stderr)
        return 2

    print(f"[trace] {cell.cell_id}", file=sys.stderr)
    with capture(interval_ns=args.interval) as cap:
        execute_cell(cell)
    if not cap.telemetries:
        print("no runtime was constructed while tracing this cell", file=sys.stderr)
        return 1

    serve_doc = None
    if args.serve:
        import json as _json

        with open(args.serve) as fh:
            serve_doc = _json.load(fh)

    out = Path(args.out or f"results/trace_{args.experiment}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        n_events = write_chrome_trace(cap.telemetries, fh, serve_doc=serve_doc)

    print(text_summary(cap.primary()))
    print(f"trace: {n_events} events from {len(cap.telemetries)} runtime(s) -> {out}")
    if serve_doc is not None:
        print(f"merged {len(serve_doc.get('traceEvents', []))} serve events "
              f"from {args.serve}")
    print("open in https://ui.perfetto.dev or chrome://tracing")

    if args.metrics:
        mpath = Path(args.metrics)
        mpath.parent.mkdir(parents=True, exist_ok=True)
        tel = cap.primary()
        if mpath.suffix == ".csv":
            with open(mpath, "w") as fh:
                rows = write_metrics_csv(tel, fh)
            print(f"metrics: {rows} samples -> {mpath}")
        else:
            with open(mpath, "w") as fh:
                write_metrics_json(tel, fh)
            print(f"metrics: json -> {mpath}")
    return 0


def cmd_dse(args) -> int:
    from repro.bench import dse

    argv = ["--budget", str(args.budget), "--jobs", str(args.jobs),
            "--out", str(args.out)]
    if args.no_cache:
        argv.append("--no-cache")
    return dse.main(argv)


def cmd_cache(args) -> int:
    import json

    from repro.bench import sweep

    if args.action == "stats":
        print(json.dumps(sweep.cache_stats(), indent=2))
        return 0
    # gc: stale (code-version-mismatched) entries always go; --older-than
    # additionally trims live entries by age.
    removed = sweep.cache_gc(older_than_days=args.older_than)
    print(json.dumps(removed, indent=2))
    return 0


def _add_sweep_args(p) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="shard cells across N worker processes with the "
                        "on-disk result cache (0 = auto-size; omit to run "
                        "inline, uncached)")
    p.add_argument("--no-cache", action="store_true",
                   help="with --jobs: ignore and don't write the result cache")
    p.add_argument("--telemetry", action="store_true",
                   help="attach a per-cell telemetry summary to every result "
                        "(cached under separate keys; implies --jobs 1 when "
                        "--jobs is omitted)")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the advisor service owns its own argparse (--port/--jobs/--store/...);
    # hand everything after `serve` straight through
    if argv and argv[0] == "serve":
        from repro.serve import app

        return app.main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro", description="CHARM reproduction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=cmd_list)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment")
    run_p.add_argument("--full", action="store_true", help="full paper-shaped sweep")
    _add_sweep_args(run_p)
    run_p.set_defaults(fn=cmd_run)

    all_p = sub.add_parser("all", help="run the whole evaluation")
    all_p.add_argument("--full", action="store_true")
    _add_sweep_args(all_p)
    all_p.set_defaults(fn=cmd_all)

    dse_p = sub.add_parser(
        "dse", help="design-space exploration: budget-driven geometry sweep "
                    "reduced to Pareto frontiers")
    dse_p.add_argument("--budget", type=int, default=1000, metavar="N",
                       help="max cells (configs × workloads × policies); "
                            "default 1000")
    dse_p.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker processes (0 = auto from CPU affinity)")
    dse_p.add_argument("--out", default="results/dse", metavar="DIR",
                       help="output directory (cells.csv, frontier_*.csv, "
                            "summary.txt)")
    dse_p.add_argument("--no-cache", action="store_true",
                       help="ignore and don't write the result store")
    dse_p.set_defaults(fn=cmd_dse)

    # `serve` is dispatched before parsing (its flags are owned by
    # repro.serve.app); registered here only so `repro -h` lists it
    sub.add_parser(
        "serve", help="run the placement-advisor HTTP service "
                      "(hot cache + result store + warm simulation pool); "
                      "see `python -m repro serve --help`")

    cache_p = sub.add_parser(
        "cache", help="inspect or garbage-collect the sweep result store")
    cache_p.add_argument("action", choices=("stats", "gc"),
                         help="stats: size/entries/hits; gc: drop entries "
                              "whose code version no longer matches")
    cache_p.add_argument("--older-than", type=float, default=None,
                         metavar="DAYS",
                         help="with gc: only collect entries last used more "
                              "than DAYS ago (also trims live entries by age)")
    cache_p.set_defaults(fn=cmd_cache)

    m_p = sub.add_parser("machine", help="describe a machine preset")
    m_p.add_argument("--preset", default="milan")
    m_p.add_argument("--scale", type=int, default=32)
    m_p.set_defaults(fn=cmd_machine)

    t_p = sub.add_parser(
        "trace", help="trace one experiment cell and export a Chrome trace")
    t_p.add_argument("experiment")
    t_p.add_argument("--cell", default=None, metavar="SUBSTR",
                     help="select the cell whose id contains SUBSTR "
                          "(default: first CHARM cell, else first cell)")
    t_p.add_argument("--full", action="store_true",
                     help="pick from the full paper-shaped cell list")
    t_p.add_argument("--out", default=None, metavar="PATH",
                     help="trace output path "
                          "(default: results/trace_<experiment>.json)")
    t_p.add_argument("--metrics", default=None, metavar="PATH",
                     help="also dump sampled metric series + decisions "
                          "(.csv -> wide CSV, otherwise JSON)")
    t_p.add_argument("--interval", type=float, default=None, metavar="NS",
                     help="sampling interval in virtual ns "
                          "(default: the strategy's scheduler timer)")
    t_p.add_argument("--serve", default=None, metavar="PATH",
                     help="merge a serve-side trace (GET /debug/trace "
                          "JSON) into the output")
    t_p.set_defaults(fn=cmd_trace)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
