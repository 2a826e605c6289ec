"""Wall-clock self-profiler: where does *simulator* time go?

Unlike everything else in ``repro.obs`` — which observes the simulated
machine in virtual time — this profiler observes the simulator itself in
host wall-clock time, attributing it to the machine's access paths:

- ``scalar``         — the per-access loop (``Machine._scalar_span``), which
  services every block the local-hit kernel does not
- ``vec_hit``        — local-hit runs of sorted batches
  (``Machine._local_hit_segment``)
- ``vec_miss``, ``vec_peer``, ``vec_gather``, ``vec_dup_replay`` and
  ``hot_replay`` — always zero: their kernels are deleted and those
  blocks take the scalar span.  The names stay because the end-to-end
  benchmark's tracer reads every path by name and reports
  ``hw.<path>.*``
- ``access``         — single-access ``Machine.access`` calls
- ``program``        — the worker's compiled op-program walk
  (``Worker._run_program``), net of the kernel time above
- ``orchestration``  — everything else inside a worker step: generator
  re-entry, op dispatch, scheduling bookkeeping (net of kernels and the
  program walk)

Attach with ``machine.profiler = KernelProfiler()`` before running.
Timing uses ``perf_counter`` around the kernel call only; it reads no
simulator state and feeds nothing back, so virtual time is unchanged by
construction.  ``tests/test_kernel_paths.py`` pins the exact calls and
accesses per path for the distinct access shapes and checks that an
unprofiled re-run reproduces ``sim_wall_ns`` bit-identically; the
end-to-end benchmark (``perfbench/``) reports the per-path wall time.
"""

from typing import Dict

PATHS = ("scalar", "vec_miss", "vec_hit", "vec_peer", "vec_gather",
         "vec_dup_replay", "hot_replay", "access", "program",
         "orchestration")


class KernelProfiler:
    """Per-path call/access/wall-clock tallies for the access kernels."""

    __slots__ = ("calls", "accesses", "wall_s")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {p: 0 for p in PATHS}
        self.accesses: Dict[str, int] = {p: 0 for p in PATHS}
        self.wall_s: Dict[str, float] = {p: 0.0 for p in PATHS}

    def add(self, path: str, n_accesses: int, wall_s: float) -> None:
        self.calls[path] += 1
        self.accesses[path] += n_accesses
        self.wall_s[path] += wall_s

    def total_wall_s(self) -> float:
        return sum(self.wall_s.values())

    def report(self) -> Dict[str, Dict]:
        """JSON-native per-path breakdown with wall-clock shares."""
        total = self.total_wall_s()
        out: Dict[str, Dict] = {}
        for p in PATHS:
            if self.calls[p] == 0:
                continue
            wall = self.wall_s[p]
            out[p] = {
                "calls": self.calls[p],
                "accesses": self.accesses[p],
                "wall_s": round(wall, 6),
                "share": round(wall / total, 4) if total > 0 else 0.0,
            }
        return out
