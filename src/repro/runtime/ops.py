"""Operations yielded by task coroutines.

CHARM tasks are Python generators.  Instead of performing work directly,
a task *yields* operation descriptors; the executing worker interprets
each one against the simulated machine and charges virtual time:

- :class:`Compute` — pure CPU work;
- :class:`Access` / :class:`AccessBatch` — memory accesses, serviced by the
  machine's cache/memory hierarchy;
- :class:`YieldPoint` — a developer-defined suspension point (the paper's
  coroutine yield): the task is re-queued, letting the worker interleave
  other tasks and the profiler/policy hook run;
- :class:`SpawnOp` — create a child task;
- :class:`WaitBarrier` / :class:`WaitFuture` — blocking synchronisation;
  the task parks without blocking its worker, which is exactly the
  advantage of coroutines over ``std::async`` shown in Fig. 12.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.hw.memory import Region

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.sync import Barrier, Future
    from repro.runtime.task import Task


@dataclass(frozen=True)
class Compute:
    """Charge ``ns`` of pure compute time to the running worker."""

    ns: float

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise ValueError("compute time must be non-negative")


@dataclass(frozen=True)
class Access:
    """One block access against a region."""

    region: Region
    block: int
    write: bool = False
    nbytes: Optional[int] = None


@dataclass(frozen=True)
class AccessBatch:
    """A batch of block accesses against one region.

    Batching many accesses into one yield keeps the simulation fast; the
    machine still serialises each block on its channel/link individually.
    ``compute_ns_per_block`` charges interleaved CPU work per block, as in
    a scan loop.
    """

    region: Region
    blocks: Sequence[int]
    write: bool = False
    nbytes: Optional[int] = None
    compute_ns_per_block: float = 0.0
    #: True for dependent chains (pointer chasing, atomic RMW sequences):
    #: each access pays its full latency with no MLP overlap.
    dependent: bool = False


@dataclass(frozen=True)
class AccessRun:
    """A run-compressed batch: blocks ``start + i*stride`` for ``i < count``.

    The streaming shape (sequential scans, strided column walks) that
    used to materialize million-entry block lists.  A run is
    duplicate-free by construction, so the machine routes it straight to
    the sorted-batch route (``Machine._service_segment``) without a
    distinctness or bounds check per block.  Semantics are identical to ``AccessBatch(region, list(range(...)))``.
    """

    region: Region
    start: int
    count: int
    stride: int = 1
    write: bool = False
    nbytes: Optional[int] = None
    compute_ns_per_block: float = 0.0
    #: True for dependent chains: each access pays full latency, no MLP.
    dependent: bool = False


@dataclass(frozen=True)
class YieldPoint:
    """Cooperative suspension point; the profiler hook runs here."""


@dataclass(frozen=True)
class SpawnOp:
    """Spawn a child task running ``fn(*args)``.

    ``pin_worker`` forces placement on a specific worker (used by
    ``all_do``/``call``); otherwise the active strategy places the task.
    The spawned :class:`~repro.runtime.task.Task` is delivered back into
    the generator as the value of the ``yield``.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    pin_worker: Optional[int] = None
    name: str = ""


@dataclass(frozen=True)
class WaitBarrier:
    """Park the task until all barrier participants arrive."""

    barrier: "Barrier"


@dataclass(frozen=True)
class WaitFuture:
    """Park the task until the future resolves; its value is sent back."""

    future: "Future"


@dataclass(frozen=True)
class CriticalSection:
    """Execute ``ns`` of work under a mutex: waits for the lock, then holds it.

    Models the serialisation points real workloads have (streamcluster's
    center-opening lock, an OLTP engine's commit/log latch).  The wait
    time grows with contention, which is what makes such workloads
    insensitive to cache placement (paper section 5.7).
    """

    lock: "SimLock"
    ns: float


class SimLock:
    """A mutex in virtual time: a single-server queue over critical sections."""

    __slots__ = ("name", "free_at", "acquisitions", "contended_ns")

    def __init__(self, name: str = "lock"):
        self.name = name
        self.free_at = 0.0
        self.acquisitions = 0
        self.contended_ns = 0.0

    def acquire(self, now: float, hold_ns: float) -> float:
        """Serve one critical section arriving at ``now``; return total delay."""
        start = self.free_at if self.free_at > now else now
        self.free_at = start + hold_ns
        self.acquisitions += 1
        self.contended_ns += start - now
        return self.free_at - now
