"""End-to-end benchmark of the CHARM reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_quick --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

Workloads: ``paper_quick`` (a slice of the quick paper suite, serial),
``dse_slice`` (a cold DSE sweep on a two-process pool) and
``advise_mixed`` (an open-loop ``/advise`` stream against a ``repro
serve`` subprocess).  ``--trace 0`` measures the end-to-end metrics with
nothing attached; ``--trace 1`` is the separate traced run that reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong output is a failure: ``correct`` is
false and the exit code is 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from harness import (
    BenchError, Outcome, import_program, import_seconds, require_program,
)

WORKLOADS = ("paper_quick", "dse_slice", "advise_mixed")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "p50_ms": "ms", "p95_ms": "ms",
}

#: every per-layer metric the traced run reports, with its unit
PER_LAYER: Dict[str, str] = {}
for _attr in ("access_batch", "access_run", "access"):
    PER_LAYER[f"hw.{_attr}.calls"] = "count"
    PER_LAYER[f"hw.{_attr}.s"] = "s"
for _path in ("scalar", "vec_miss", "vec_dup_replay", "vec_gather", "vec_hit",
              "vec_peer", "hot_replay"):
    PER_LAYER[f"hw.{_path}.blocks"] = "count"
    PER_LAYER[f"hw.{_path}.s"] = "s"
PER_LAYER.update({
    "hw.vector_share": "ratio", "hw.accesses": "count",
    "sim.steps": "count", "sim.cohorts": "count", "sim.cohort_actors": "count",
    "sim.heap_pushes": "count", "sim.run.s": "s", "sim.accesses_per_s": "1/s",
    "runtime.program.s": "s", "runtime.orchestration.s": "s",
})
for _name in ("steal_order", "on_tick", "spawn"):
    PER_LAYER[f"runtime.{_name}.calls"] = "count"
    PER_LAYER[f"runtime.{_name}.s"] = "s"
PER_LAYER.update({
    "runtime.steals": "count", "runtime.migrations": "count",
    "runtime.tasks": "count", "workloads.self_s": "s",
    "bench.datasets.builds": "count", "bench.datasets.s": "s",
    "bench.cell.p50_ms": "ms", "bench.cell.max_s": "s",
    "bench.sweep.pool_efficiency": "ratio", "bench.sweep.busy_s": "s",
    "bench.sweep.chunks": "count",
    "bench.store.get.calls": "count", "bench.store.get.s": "s",
    "bench.store.put.calls": "count", "bench.store.put.s": "s",
    "serve.hot_hits": "count", "serve.store_hits": "count",
    "serve.coalesced": "count", "serve.computed": "count",
    "serve.cache_hit_ratio": "ratio", "serve.batch_cells.mean": "count",
})
for _stage in ("parse", "normalize", "hot_probe", "coalesce_wait",
               "store_probe", "batch_window", "pool_execute", "store_put"):
    PER_LAYER[f"serve.{_stage}.s"] = "s"
PER_LAYER.update({
    "serve.gen_late_ms": "ms", "serve.cached_p50_ms": "ms",
    "serve.computed_p50_ms": "ms", "serve.max_rps_under_slo": "1/s",
    "serve.error_rate": "ratio",
    "trace.overhead": "ratio", "trace.self_coverage": "ratio",
})

_SIM_LAYERS = ("hw.", "sim.", "runtime.", "workloads.", "bench.datasets.",
               "bench.cell.")

#: why a per-layer metric reads 0 on a workload that does not run the layer
ABSENT = {
    "paper_quick": [
        (("bench.sweep.", "bench.store."),
         "paper_quick runs cells inline: no sweep pool, no result store"),
        (("serve.",), "paper_quick sends no /advise requests"),
    ],
    "dse_slice": [
        (("serve.",), "dse_slice sends no /advise requests"),
    ],
    "advise_mixed": [
        (_SIM_LAYERS + ("bench.sweep.", "bench.store.", "trace.self_coverage"),
         "advise_mixed simulates inside the server's pool processes; "
         "its layers are read from the server's own /stats, /metrics and "
         "/debug/trace instead"),
    ],
}


def _run_workload(args: argparse.Namespace) -> Outcome:
    require_program()
    if args.workload == "advise_mixed":
        import advise_mixed

        return advise_mixed.run(args.seed, args.seconds, bool(args.trace))
    import_program()
    import_s = import_seconds()
    if args.workload == "paper_quick":
        import paper_quick

        return paper_quick.run(args.seed, args.seconds, bool(args.trace), import_s)
    import dse_slice

    return dse_slice.run(args.seed, args.seconds, bool(args.trace), import_s)


def _finish(out: Outcome, trace: bool) -> Dict:
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        if name in out.metrics:
            value = out.metrics[name]
        else:
            reason = next((why for prefixes, why in ABSENT[out.workload]
                           if name.startswith(prefixes)), None)
            if reason is None:
                raise BenchError(f"{out.workload} did not measure {name}")
            out.absent[name] = reason
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": out.failed == 0, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def _print_human(out: Outcome, doc: Dict) -> None:
    print(f"== {out.workload}")
    for name, m in doc["metrics"].items():
        if name not in out.absent:
            print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in out.metrics.items():
        if name not in doc["metrics"]:
            print(f"{name:32s} {value:.6g} {PER_LAYER[name]}")
    reasons: Dict[str, List[str]] = {}
    for name, why in out.absent.items():
        reasons.setdefault(why, []).append(name)
    for why, names in reasons.items():
        print(f"absent (reads 0): {len(names)} metrics: {why}")
    for check in out.checks:
        print(f"check: {check}")
    for note in out.notes:
        print(f"note: {note}")
    for failure in out.failures:
        print(f"FAILED: {failure}")
    rate = out.failed / out.attempted if out.attempted else 0.0
    print(f"error_rate {rate:.6g} ratio ({out.failed} failed of "
          f"{out.attempted} attempted)")


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1):
            print(f"{workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        doc = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        for name, m in doc["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return _run_all(args)
    t0 = time.perf_counter()
    try:
        out = _run_workload(args)
        doc = _finish(out, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_human(out, doc)
    print(f"note: run took {time.perf_counter() - t0:.1f} s")
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
