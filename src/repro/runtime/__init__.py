"""The CHARM runtime: the paper's primary contribution.

A cooperative, coroutine-based task runtime executing on the simulated
chiplet machine (:mod:`repro.hw`).  The package provides:

- generator-based lightweight tasks with suspend/resume at defined yield
  points (:mod:`repro.runtime.task`, :mod:`repro.runtime.ops`);
- per-core local task queues with hierarchical, chiplet-first work
  stealing (:mod:`repro.runtime.queues`);
- decentralized per-worker scheduling — each worker profiles its own
  remote-fill rate and adapts its ``spread_rate``
  (:mod:`repro.runtime.policy`, Algorithms 1 and 2 of the paper);
- the adaptive controller mapping approaches to concrete policies
  (:mod:`repro.runtime.controller`);
- the NUMA-aware memory manager (:mod:`repro.runtime.memory_manager`)
  and synchronization primitives (:mod:`repro.runtime.sync`); profiling
  and tracing live in :mod:`repro.obs` (:mod:`repro.obs.profiler`,
  :mod:`repro.obs.trace`);
- the assembled runtime and paper-style API
  (:mod:`repro.runtime.runtime`, :mod:`repro.runtime.api`).
"""

from repro.runtime.ops import Access, AccessBatch, AccessRun, Compute, SpawnOp, WaitBarrier, WaitFuture, YieldPoint
from repro.runtime.task import Task, TaskState
from repro.runtime.sync import Barrier, Future
from repro.runtime.policy import (
    CharmPolicyConfig,
    CharmStrategy,
    SchedulingStrategy,
    StaticSpreadStrategy,
    update_location,
)
from repro.runtime.controller import AdaptiveController, Approach
from repro.runtime.runtime import Runtime, RunReport
from repro.runtime.api import Charm

__all__ = [
    "Access",
    "AccessBatch",
    "AccessRun",
    "Compute",
    "SpawnOp",
    "WaitBarrier",
    "WaitFuture",
    "YieldPoint",
    "Task",
    "TaskState",
    "Barrier",
    "Future",
    "CharmPolicyConfig",
    "CharmStrategy",
    "SchedulingStrategy",
    "StaticSpreadStrategy",
    "update_location",
    "AdaptiveController",
    "Approach",
    "Runtime",
    "RunReport",
    "Charm",
]
