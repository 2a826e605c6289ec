"""Traced runs: spans around calls into each layer, timed from outside.

The tracer monkeypatches wrappers around exactly the public entry
points the benchmark attributes host time to, records one span per call
(name, start, end, parent) in memory, and writes them out as Chrome-trace
JSON when the run ends.  Each root span is one cell, so every span of a
cell shares that cell's lane.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly within one thread, so the children's coverage is the
sum of their durations.

The wrapped entry points are:

- ``repro.hw``: ``Machine.access_batch``, ``Machine.access_run`` and
  ``Machine.access``.  The existing ``KernelProfiler`` is attached through
  ``machine.profiler`` for the duration of each ``Runtime.run``.
- ``repro.sim``: ``Runtime.run``.  Its self time is the event loop with
  worker slicing and task bodies.  The ``EventLoop`` counters are read
  after each run.
- ``repro.runtime``: ``steal_order`` and ``on_tick`` on every strategy
  class that defines them, and ``Runtime.spawn``.
- ``repro.bench``: ``datasets.get``, ``ResultStore.get`` and
  ``ResultStore.put``.  Cells are root spans opened by the benchmark.
"""

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from harness import Patch, checked_run

#: KernelProfiler access paths reported as ``hw.<path>.{blocks,s}``
HW_PATHS = ("scalar", "vec_miss", "vec_dup_replay", "vec_gather", "vec_hit",
            "vec_peer", "hot_replay")
VECTOR_PATHS = ("vec_miss", "vec_dup_replay", "vec_gather", "vec_hit", "vec_peer")

#: span name → layer, for the self-time split
LAYER_OF = {
    "bench.cell": "workloads",
    "bench.sweep": "bench",
    "bench.datasets.get": "bench",
    "bench.store.get": "bench",
    "bench.store.put": "bench",
    "sim.run": "sim",
    "runtime.spawn": "runtime",
    "runtime.steal_order": "runtime",
    "runtime.on_tick": "runtime",
    "hw.access_batch": "hw",
    "hw.access_run": "hw",
    "hw.access": "hw",
}
LAYERS = ("workloads", "runtime", "sim", "hw", "bench")

# span record fields
_NAME, _T0, _T1, _PARENT, _COVER, _LABEL = range(6)


class LayerTracer:
    """In-memory span recorder plus the per-run simulator counters."""

    def __init__(self) -> None:
        from repro.obs.selfprof import KernelProfiler

        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patch = Patch()
        self.kernels = KernelProfiler()
        self.sim = {"steps": 0, "cohorts": 0, "cohort_actors": 0,
                    "heap_pushes": 0}
        self.runtime = {"steals": 0, "migrations": 0, "tasks": 0}
        self.accesses = 0

    # -- spans -----------------------------------------------------------------

    def _begin(self, name: str, label: Optional[str] = None) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, 0.0, label])
        stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        rec = self.spans[idx]
        rec[_T1] = t1
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_COVER] += t1 - rec[_T0]

    @contextmanager
    def root(self, label: str, name: str = "bench.cell") -> Iterator[None]:
        """One cell (or sweep): the root span its layer spans nest in."""
        idx = self._begin(name, label)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        orig = owner.__dict__[attr]
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                end(idx)

        traced.__wrapped__ = orig
        self._patch.set(owner, attr, traced)

    # -- install / remove ------------------------------------------------------

    def install(self) -> "LayerTracer":
        import repro.baselines  # noqa: F401  (defines the strategy classes)
        from repro.bench import datasets
        from repro.bench.store import ResultStore
        from repro.hw.machine import Machine
        from repro.runtime.policy import SchedulingStrategy
        from repro.runtime.runtime import Runtime

        for attr in ("access_batch", "access_run", "access"):
            self._wrap(Machine, attr, f"hw.{attr}")
        classes = [SchedulingStrategy]
        seen = set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            for attr in ("steal_order", "on_tick"):
                if attr in cls.__dict__:
                    self._wrap(cls, attr, f"runtime.{attr}")
        self._wrap(Runtime, "spawn", "runtime.spawn")
        self._wrap(datasets, "get", "bench.datasets.get")
        self._wrap(ResultStore, "get", "bench.store.get")
        self._wrap(ResultStore, "put", "bench.store.put")
        self._patch.set(Runtime, "run", self._traced_run(Runtime.__dict__["run"]))
        return self

    def restore(self) -> None:
        self._patch.restore()

    def _traced_run(self, run):
        checked = checked_run(run, after=self._count_run)

        def run_traced(rt):
            idx = self._begin("sim.run")
            machine = rt.machine
            previous = machine.profiler
            machine.profiler = self.kernels
            try:
                return checked(rt)
            finally:
                machine.profiler = previous
                self._end(idx)

        run_traced.__wrapped__ = run
        return run_traced

    def _count_run(self, rt, report, accesses: int) -> None:
        for key in self.sim:
            self.sim[key] += getattr(rt.loop, key)
        self.runtime["steals"] += report.steals
        self.runtime["migrations"] += report.migrations
        self.runtime["tasks"] += report.tasks_created
        self.accesses += accesses

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost calls, their seconds, and self seconds.

        A call nested in a call of the same name (a strategy override
        calling ``super()``) counts toward neither ``calls`` nor ``s``.
        """
        out: Dict[str, Dict[str, float]] = {}
        spans = self.spans
        for rec in spans:
            name = rec[_NAME]
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = rec[_T1] - rec[_T0]
            agg["self_s"] += dur - rec[_COVER]
            parent = rec[_PARENT]
            if parent < 0 or spans[parent][_NAME] != name:
                agg["calls"] += 1
                agg["s"] += dur
        return out

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer; they sum to the root spans' duration."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, agg in self.totals().items():
            out[LAYER_OF[name]] += agg["self_s"]
        return out

    def root_durations(self) -> List[float]:
        return [rec[_T1] - rec[_T0] for rec in self.spans if rec[_PARENT] < 0]

    def metrics(self) -> Dict[str, float]:
        """The hw / sim / runtime / workloads layer metrics of the trace."""
        tot = self.totals()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        m: Dict[str, float] = {}
        for attr in ("access_batch", "access_run", "access"):
            agg = tot.get(f"hw.{attr}", zero)
            m[f"hw.{attr}.calls"] = agg["calls"]
            m[f"hw.{attr}.s"] = agg["s"]
        kp = self.kernels
        blocks = 0
        for path in HW_PATHS:
            m[f"hw.{path}.blocks"] = kp.accesses[path]
            m[f"hw.{path}.s"] = kp.wall_s[path]
            blocks += kp.accesses[path]
        blocks += kp.accesses["access"]
        vector = sum(kp.accesses[p] for p in VECTOR_PATHS)
        m["hw.vector_share"] = vector / blocks if blocks else 0.0
        m["hw.accesses"] = self.accesses
        for key, value in self.sim.items():
            m[f"sim.{key}"] = value
        run_s = tot.get("sim.run", zero)["s"]
        m["sim.run.s"] = run_s
        m["sim.accesses_per_s"] = self.accesses / run_s if run_s > 0 else 0.0
        m["runtime.program.s"] = kp.wall_s["program"]
        m["runtime.orchestration.s"] = kp.wall_s["orchestration"]
        for name in ("steal_order", "on_tick", "spawn"):
            agg = tot.get(f"runtime.{name}", zero)
            m[f"runtime.{name}.calls"] = agg["calls"]
            m[f"runtime.{name}.s"] = agg["s"]
        for key, value in self.runtime.items():
            m[f"runtime.{key}"] = value
        m["workloads.self_s"] = tot.get("bench.cell", zero)["self_s"]
        return m

    def write_chrome(self, path: Path) -> int:
        """Write every span as Chrome-trace JSON; returns the event count."""
        spans = self.spans
        lane: List[int] = []
        labels: List[str] = []
        events: List[Dict[str, Any]] = []
        t_origin = spans[0][_T0] if spans else 0.0
        for idx, rec in enumerate(spans):
            parent = rec[_PARENT]
            if parent < 0:
                lane.append(len(labels))
                labels.append(rec[_LABEL] or rec[_NAME])
                events.append({"name": "thread_name", "ph": "M", "pid": 1,
                               "tid": lane[idx], "args": {"name": labels[-1]}})
            else:
                lane.append(lane[parent])
            events.append({
                "name": rec[_NAME], "ph": "X", "cat": LAYER_OF[rec[_NAME]],
                "ts": (rec[_T0] - t_origin) * 1e6,
                "dur": (rec[_T1] - rec[_T0]) * 1e6,
                "pid": 1, "tid": lane[idx],
                "args": {"id": idx, "parent": parent,
                         "root": labels[lane[idx]]},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))
        return len(events)
