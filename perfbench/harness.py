"""Shared plumbing of the end-to-end benchmark.

Everything here runs in the benchmark's own process: locating the
program's sources in the checkout, result digests, the per-runtime
invariant check, summary statistics and the outcome record each
workload fills in.  Nothing here changes what the program computes.
"""

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: working space for stores, server logs and traces (inside the checkout)
OUT = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: the seed whose cell outputs are pinned by recorded digests
DEFAULT_SEED = 7


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Raise :class:`BenchError` when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the program."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.bench.experiments  # noqa: F401  (registers the cells)
    import repro.bench.dse  # noqa: F401
    import repro.cli  # noqa: F401


#: what a cold import of the program's experiment machinery costs
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro.bench.experiments, repro.bench.dse, repro.cli
print(time.perf_counter() - t0)
"""


def import_seconds(repeats: int = 3) -> float:
    """Median seconds of a cold import of the program, in fresh interpreters."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(times)


def digest(result: Any) -> str:
    """Content digest of one JSON-native cell result."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def pool_key(cell_id: str) -> str:
    """Short key of an ``advise_mixed`` pool cell in the golden file."""
    return hashlib.sha256(cell_id.encode()).hexdigest()[:16]


def load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default rule)."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def more_time(deadline: float, walls: Sequence[float]) -> bool:
    """Whether another pass of median length ends near the deadline."""
    return time.perf_counter() + 0.5 * median(walls) < deadline


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def work_dir(name: str) -> Path:
    """A fresh, empty directory under the benchmark's working space."""
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name to its value; ``absent`` maps
    a per-layer metric the workload does not exercise to the reason;
    ``checks`` names the correctness checks that ran.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.checks: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.absent: Dict[str, str] = {}
        self.notes: List[str] = []

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, name: str) -> None:
        if name not in self.checks:
            self.checks.append(name)


class InvariantError(AssertionError):
    """A runtime finished in a state the model forbids."""


def check_runtime(rt: Any, report: Any, accesses: int, fills: int) -> None:
    """The per-runtime invariants that hold for every seed.

    ``accesses``/``fills`` are the machine's access count and fill-total
    sum taken over this run only, so machines shared by several
    runtimes are checked per run.
    """
    if accesses != fills:
        raise InvariantError(
            f"fill totals {fills} != accesses {accesses} ({report.strategy})")
    if report.tasks_completed != report.tasks_created:
        raise InvariantError(
            f"tasks completed {report.tasks_completed} != created "
            f"{report.tasks_created} ({report.strategy})")
    if not rt.machine.caches.check_directory_consistent():
        raise InvariantError(f"cache directory inconsistent ({report.strategy})")


def machine_totals(machine: Any) -> Tuple[int, int]:
    return machine.total_accesses, sum(machine.counters.totals())


def checked_run(run: Callable, after: Optional[Callable] = None) -> Callable:
    """Wrap ``Runtime.run`` so every runtime is invariant-checked.

    ``after(rt, report, accesses)`` is called on success, for the traced
    run's per-run counters.
    """
    def run_checked(rt):
        a0, f0 = machine_totals(rt.machine)
        report = run(rt)
        a1, f1 = machine_totals(rt.machine)
        check_runtime(rt, report, a1 - a0, f1 - f0)
        if after is not None:
            after(rt, report, a1 - a0)
        return report

    run_checked.__wrapped__ = run
    return run_checked


class Patch:
    """Monkeypatches that are undone in reverse order on ``restore``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def invariant_patch() -> Patch:
    """Install the per-runtime invariant check on ``Runtime.run``."""
    from repro.runtime.runtime import Runtime

    patch = Patch()
    patch.set(Runtime, "run", checked_run(Runtime.run))
    return patch
