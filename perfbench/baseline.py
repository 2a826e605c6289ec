"""Measure the benchmark's own run-to-run spread and record a baseline.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --seconds 25

Runs every workload ``--runs`` times with seeds 1..runs (untraced), then
writes ``perfbench/baseline.json``: per workload and end-to-end metric,
the median, the quartiles, the interquartile spread as a share of the
median (``statistics.quantiles(values, n=4)``) and the sample count.
It adds one traced run per workload at seed 7, whose counts are
deterministic.  It takes about (runs + 1) × 3 × 35 s.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    doc = {"host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version()},
           "seconds": args.seconds, "seeds": list(range(1, args.runs + 1)),
           "measured": time.strftime("%Y-%m-%d"), "workloads": {},
           "traced_seed7": {}}
    for workload in ("paper_quick", "dse_slice", "advise_mixed"):
        values = {}
        for seed in doc["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "n": len(vals)}
            print(f"{workload} {name}: median {med:.4g} spread "
                  f"{(q3 - q1) / med:.3f}", flush=True)
        doc["workloads"][workload] = summary
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", str(args.seconds), "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=True)
        traced = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["traced_seed7"][workload] = {
            name: m["value"] for name, m in traced["metrics"].items()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
