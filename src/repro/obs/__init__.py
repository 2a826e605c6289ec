"""repro.obs — observability for the simulated machine and runtime.

Subsystems (PR 5):

- :mod:`repro.obs.bus`       — event bus with a null-sink fast path
- :mod:`repro.obs.trace`     — task/migration timeline
- :mod:`repro.obs.profiler`  — worker snapshots
- :mod:`repro.obs.sampler`   — virtual-time interval metric series
- :mod:`repro.obs.decisions` — Alg. 1 policy decision log
- :mod:`repro.obs.selfprof`  — wall-clock kernel-path self-profiler
- :mod:`repro.obs.telemetry` — facade attaching all of the above
- :mod:`repro.obs.export`    — merged Chrome trace / JSON / CSV / text
- :mod:`repro.obs.context`   — ``capture()`` for runtimes built in helpers

Attribute access is lazy (PEP 562): ``repro.runtime.runtime`` imports
``repro.obs.context`` at module scope (executing this ``__init__``), so
eagerly importing :mod:`repro.obs.telemetry` here — whose annotations
reference the runtime — would create an import cycle.
"""

from repro.obs.context import attach_if_active, capture

_LAZY = {
    "EventBus": "repro.obs.bus",
    "Telemetry": "repro.obs.telemetry",
    "Tracer": "repro.obs.trace",
    "TraceEvent": "repro.obs.trace",
    "EventKind": "repro.obs.trace",
    "TaskSummary": "repro.obs.trace",
    "IntervalSampler": "repro.obs.sampler",
    "RingSeries": "repro.obs.series",
    "DecisionLog": "repro.obs.decisions",
    "PolicyDecision": "repro.obs.decisions",
    "KernelProfiler": "repro.obs.selfprof",
    # wall-clock twins (serve/sweep observability)
    "MetricsRegistry": "repro.obs.wallclock",
    "WallClockTracer": "repro.obs.wallclock",
    "SlidingWindows": "repro.obs.wallclock",
    "SLOMonitor": "repro.obs.wallclock",
    "SLOConfig": "repro.obs.wallclock",
    "FlightRecorder": "repro.obs.wallclock",
    "NULL_TRACE": "repro.obs.wallclock",
    "RequestTrace": "repro.obs.wallclock",
}

__all__ = ["attach_if_active", "capture"] + sorted(_LAZY)


def __getattr__(name):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)
