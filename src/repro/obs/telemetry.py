"""Telemetry facade: one object that wires the whole observability stack.

``Telemetry(runtime)`` attaches, in one call:

- the :class:`~repro.obs.bus.EventBus` to ``runtime``, ``machine`` and
  ``machine.caches`` (instrumentation points fire into it);
- the :class:`~repro.obs.trace.Tracer` (task/migration timeline);
- the :class:`~repro.obs.sampler.IntervalSampler` (columnar metric
  series, pulsed by ``hw.batch`` events and runtime hooks);
- the :class:`~repro.obs.decisions.DecisionLog` (Alg. 1 evaluations,
  fed by ``CharmStrategy`` through :meth:`Telemetry.on_policy_decision`).

``mode="null"`` attaches only the bus with zero subscribers — every
instrumentation guard is taken but every event falls into the null sink.
Virtual time is bit-identical either way, and the hooks fire once per
batch, never per block (both pinned by tests/test_obs_equivalence.py).
"""

from typing import TYPE_CHECKING, Dict, Optional

from repro.hw.counters import FillSource
from repro.obs.bus import EventBus
from repro.obs.decisions import DecisionLog, PolicyDecision
from repro.obs.sampler import IntervalSampler
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime
    from repro.runtime.worker import Worker

DEFAULT_INTERVAL_NS = 50_000.0


class Telemetry:
    """Attached observability for one runtime (full or null mode)."""

    def __init__(self, runtime: "Runtime", interval_ns: Optional[float] = None,
                 ring_capacity: int = 4096, mode: str = "full") -> None:
        if mode not in ("full", "null"):
            raise ValueError(f"unknown telemetry mode: {mode!r}")
        if runtime.obs is not None:
            raise RuntimeError("runtime already has telemetry attached")
        self.runtime = runtime
        self.mode = mode
        self.bus = EventBus()
        runtime.obs = self
        machine = runtime.machine
        machine.obs = self.bus
        machine.caches.obs = self.bus
        self.tracer: Optional[Tracer] = None
        self.sampler: Optional[IntervalSampler] = None
        self.decisions: Optional[DecisionLog] = None
        self._finished = False
        if mode == "null":
            return
        if interval_ns is None:
            # Default to the policy's own evaluation cadence so samples
            # line up with decision intervals.
            cfg = getattr(runtime.strategy, "config", None)
            interval_ns = getattr(cfg, "scheduler_timer_ns", DEFAULT_INTERVAL_NS)
        self.tracer = Tracer(runtime)
        self.sampler = IntervalSampler(runtime, interval_ns, ring_capacity)
        self.decisions = DecisionLog()
        sampler = self.sampler

        def pulse(topic: str, fields: dict) -> None:
            sampler.maybe_sample(fields["t"])

        def tally(topic: str, fields: dict) -> None:
            # Subscribing at all makes the bus count the topic; kernel
            # activity tallies surface in summary()["events"].
            pass

        self.bus.subscribe("hw.batch", pulse)
        self.bus.subscribe("cache.touch_run", tally)
        self.bus.subscribe("worker.steal", tally)
        self._install_pulse_hooks()

    @classmethod
    def null(cls, runtime: "Runtime") -> "Telemetry":
        """Attach hooks-only telemetry: the bus wired, nothing subscribed."""
        return cls(runtime, mode="null")

    # -- Hook plumbing ---------------------------------------------------------

    def _install_pulse_hooks(self) -> None:
        """Pulse the sampler from dispatch/done so compute-only phases
        (no memory batches) still get sampled."""
        rt = self.runtime
        sampler = self.sampler
        orig_dispatch = rt.on_dispatch
        orig_done = rt.task_done

        def on_dispatch(worker, task):
            sampler.maybe_sample(worker.clock)
            orig_dispatch(worker, task)

        def task_done(task, worker):
            sampler.maybe_sample(worker.clock)
            orig_done(task, worker)

        rt.on_dispatch = on_dispatch
        rt.task_done = task_done

    # -- Policy instrumentation (called by CharmStrategy.on_tick) --------------

    def on_policy_decision(self, now: float, worker: "Worker", elapsed_ns: float,
                           counter: int, rate: float, threshold: float,
                           spread_before: int, core_before: int) -> None:
        if self.decisions is None:
            return
        after = worker.spread_rate
        if after > spread_before:
            action = "spread"
        elif after < spread_before:
            action = "compact"
        else:
            action = "hold"
        decision = PolicyDecision(
            time_ns=now, worker_id=worker.worker_id, elapsed_ns=elapsed_ns,
            counter=counter, rate=rate, threshold=threshold, action=action,
            spread_before=spread_before, spread_after=after,
            core_before=core_before, core_after=worker.core,
        )
        self.decisions.record(decision)
        self.sampler.maybe_sample(now)
        self.bus.emit("policy.decision", decision.as_dict())

    # -- Finalization / views --------------------------------------------------

    def finish(self) -> None:
        """Take the final sample (idempotent; called by the exporters)."""
        if self._finished or self.sampler is None:
            self._finished = True
            return
        end = max((w.clock for w in self.runtime.workers), default=0.0)
        self.sampler.finish(end)
        self._finished = True

    def summary(self) -> Dict:
        """Compact JSON-native digest (what sweep --telemetry attaches)."""
        self.finish()
        rt = self.runtime
        machine = rt.machine
        totals = machine.counters.totals()
        out: Dict = {
            "mode": self.mode,
            "events": dict(sorted(self.bus.counts.items())),
            "fills": {s.value: totals[i] for i, s in enumerate(FillSource)},
            "migrations": sum(w.migrations for w in rt.workers),
            "steals": sum(w.steals_ok for w in rt.workers),
            "wall_ns": max((w.clock for w in rt.workers), default=0.0),
        }
        cache_stats = machine.caches.stats()
        out["l3"] = {
            "hit_rate": round(cache_stats["total"]["hit_rate"], 4),
            "occupancy": round(
                sum(c.used_bytes for c in machine.caches.caches)
                / max(1, sum(c.capacity_bytes for c in machine.caches.caches)), 4),
        }
        if self.mode == "null":
            return out
        out["samples"] = self.sampler.count
        out["samples_dropped"] = self.sampler.ring.dropped()
        out["sample_interval_ns"] = self.sampler.interval_ns
        by_action = self.decisions.by_action()
        out["decisions"] = {
            "total": len(self.decisions),
            "spread": by_action.get("spread", 0),
            "compact": by_action.get("compact", 0),
            "hold": by_action.get("hold", 0),
            "migrated": self.decisions.migrations(),
        }
        out["tasks_traced"] = len(self.tracer.task_summaries())
        return out

    def metrics(self) -> Dict:
        """Full JSON-native metrics: summary + every series + decisions."""
        summary = self.summary()  # also finalizes the sampler
        out: Dict = {"summary": summary}
        if self.mode == "null":
            return out
        series: Dict = {}
        ring = self.sampler.ring
        times = [float(t) for t in ring.timestamps()]
        for name, (_, vals) in ring.series().items():
            series[name] = [float(v) for v in vals]
        out["series"] = {"time_ns": times, "columns": series}
        out["decisions"] = [d.as_dict() for d in self.decisions.rows]
        return out
