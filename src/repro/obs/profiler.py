"""Performance profiling utilities (paper section 4.5).

The virtual-time *interval* sampler built on the same signals lives in
:mod:`repro.obs.sampler`.

The low-level signal — per-worker fill counters classified by source — is
collected inline by the workers (zero extra simulation cost, mirroring the
paper's user-space PMU reads).  This module adds the analysis layer:

- :class:`WorkerSample` / :func:`sample_workers` — point-in-time snapshots
  of each worker's counters, spread rate and core;
- :func:`utilization` — busy fraction per worker from a run report;
- :class:`ProfileLog` — an append-only record of samples that examples and
  experiments use to inspect adaptation over time (e.g. spread-rate
  convergence, Fig. 12-style concurrency curves).
"""

from dataclasses import dataclass
from typing import Dict, List, TYPE_CHECKING

from repro.hw.counters import FillSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime, RunReport


@dataclass(frozen=True)
class WorkerSample:
    """Snapshot of one worker's state at a virtual time."""

    time_ns: float
    worker_id: int
    core: int
    chiplet: int
    spread_rate: int
    local_fills: int
    remote_fills: int
    dram_fills: int
    tasks_done: int


def sample_workers(runtime: "Runtime") -> List[WorkerSample]:
    """Snapshot every worker (callable between or after runs)."""
    topo = runtime.machine.topo
    out = []
    for w in runtime.workers:
        c = w.fills.counts
        out.append(
            WorkerSample(
                time_ns=w.clock,
                worker_id=w.worker_id,
                core=w.core,
                chiplet=topo.chiplet_of_core(w.core),
                spread_rate=w.spread_rate,
                local_fills=c[FillSource.LOCAL_CHIPLET],
                remote_fills=w.fills.remote_fills(),
                dram_fills=w.fills.dram_fills(),
                tasks_done=w.tasks_done,
            )
        )
    return out


def utilization(report: "RunReport") -> List[float]:
    """Per-worker busy fraction over the run."""
    if report.wall_ns <= 0:
        return [0.0] * report.n_workers
    return [min(1.0, b / report.wall_ns) for b in report.per_worker_busy_ns]


def fill_breakdown(report: "RunReport") -> Dict[str, int]:
    """Aggregate fill counts by source (Tab. 1 / Tab. 2 shape)."""
    return report.counters.as_row()


def concurrency_series(report: "RunReport", buckets: int = 40):
    """Bucketed average concurrency over the run (the Fig. 12 curves).

    Returns ``[(bucket_end_ns, avg_running_tasks), ...]`` computed from the
    report's concurrency timeline (requires ``collect_timeline=True``).
    """
    tl = report.cumulative_concurrency()
    if len(tl) < 2 or buckets < 1:
        return []
    t0, t1 = tl[0][0], tl[-1][0]
    if t1 <= t0:
        return []
    width = (t1 - t0) / buckets
    out = []
    area = 0.0
    edge = t0 + width
    prev_t, prev_c = tl[0]
    idx = 0
    for t, c in tl[1:]:
        while t > edge:
            area += prev_c * (edge - prev_t)
            out.append((edge, area / width))
            area = 0.0
            prev_t = edge
            edge += width
        area += prev_c * (t - prev_t)
        prev_t, prev_c = t, c
    area += prev_c * max(0.0, edge - prev_t)
    out.append((edge, area / width))
    return out


class ProfileLog:
    """Append-only sample log for adaptation studies."""

    def __init__(self) -> None:
        self.samples: List[WorkerSample] = []

    def record(self, runtime: "Runtime") -> None:
        self.samples.extend(sample_workers(runtime))

    def spread_of(self, worker_id: int) -> List[int]:
        return [s.spread_rate for s in self.samples if s.worker_id == worker_id]

    def last_by_worker(self) -> Dict[int, WorkerSample]:
        out: Dict[int, WorkerSample] = {}
        for s in self.samples:
            out[s.worker_id] = s
        return out
