"""Virtual-time event loop.

Actors (runtime workers) carry their own clocks.  The loop repeatedly pops
the actor with the smallest clock from a heap and asks it to execute one
step via :meth:`Actor.step`, which returns the actor's next state:

- ``RESCHEDULE`` — clock advanced, put it back on the heap;
- ``PARKED`` — the actor is waiting on an external event (barrier, future);
  whoever releases it must call :meth:`EventLoop.wake`;
- ``FINISHED`` — the actor is done and leaves the loop.

Ties are broken by actor id so that execution order is fully deterministic.
"""

import heapq
from enum import Enum
from typing import List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class StepOutcome(Enum):
    RESCHEDULE = "reschedule"
    PARKED = "parked"
    FINISHED = "finished"


class Actor:
    """Base class for schedulable entities.  Subclasses implement ``step``."""

    __slots__ = ("actor_id", "clock", "parked", "finished")

    def __init__(self, actor_id: int):
        self.actor_id = actor_id
        self.clock = 0.0
        self.parked = False
        self.finished = False

    def step(self, loop: "EventLoop") -> StepOutcome:
        raise NotImplementedError


class EventLoop:
    """Deterministic minimum-clock-first scheduler over actors."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Actor]] = []
        self._actors: List[Actor] = []
        self._live = 0
        self.steps = 0
        self.max_steps: Optional[int] = None
        self.now = 0.0
        # Heap-mechanics counters (observability only; no scheduling effect).
        # A "cohort" is one drain of all heap entries sharing the exact head
        # clock; cohort_actors sums drain sizes so callers can derive the
        # mean.
        self.heap_pushes = 0
        self.heap_pops = 0
        self.cohorts = 0
        self.cohort_actors = 0

    def add(self, actor: Actor) -> None:
        """Register a new actor, schedulable at its current clock."""
        self._live += 1
        self._actors.append(actor)
        self._push(actor)

    def wake(self, actor: Actor, at_time: Optional[float] = None) -> None:
        """Unpark ``actor``, optionally advancing its clock to ``at_time``."""
        if actor.finished:
            raise SimulationError(f"cannot wake finished actor {actor.actor_id}")
        if not actor.parked:
            return
        actor.parked = False
        if at_time is not None and at_time > actor.clock:
            actor.clock = at_time
        self._push(actor)

    def run(self) -> float:
        """Run until every actor finishes; return final virtual time.

        The loop drains actors in *cohorts*: all heap entries sharing the
        exact head clock pop in one sweep and step in ``(clock, actor_id)``
        order — precisely the order the heap would have produced one pop at
        a time, so channel/link arrival order (and therefore every virtual
        time) is unchanged.  What changes is heap traffic: within a cohort,
        re-steps at the same clock cycle through a small local heap, and
        actors rescheduled to later clocks accumulate in a pending list
        bulk-pushed when the cohort drains — O(k + heapify) instead of
        2k heap operations against the full heap when fan-out is wide.
        Mid-drain wakes can insert earlier work into the main heap (an
        actor woken at or before the cohort clock, possibly with a smaller
        id); the drain re-checks the main heap head before every local pop
        so global ``(clock, actor_id)`` order is honored regardless.
        """
        # Bind the heap, the heapq functions, and the outcome sentinels
        # locally so each iteration avoids repeated attribute/global
        # lookups.  ``self.now`` and ``self.steps`` are still flushed every
        # iteration because actor steps may read them.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        heapify = heapq.heapify
        reschedule = StepOutcome.RESCHEDULE
        parked_outcome = StepOutcome.PARKED
        finished_outcome = StepOutcome.FINISHED
        max_steps = self.max_steps
        while heap:
            c = heap[0][0]
            entry = heappop(heap)
            self.heap_pops += 1
            if not heap or heap[0][0] != c:
                # Singleton cohort — the common case; step inline with the
                # exact pre-cohort semantics and one push on reschedule.
                self.cohorts += 1
                self.cohort_actors += 1
                self.steps += 1
                if max_steps is not None and self.steps > max_steps:
                    raise SimulationError(
                        f"exceeded max_steps={max_steps}; likely a livelock "
                        f"(live={self._live}, now={self.now:.0f} ns)"
                    )
                clock, _, actor = entry
                if actor.parked or actor.finished:
                    continue
                if clock < self.now - 1e-6:
                    raise SimulationError("virtual time went backwards")
                if clock > self.now:
                    self.now = clock
                outcome = actor.step(self)
                if outcome is reschedule:
                    heappush(heap, (actor.clock, actor.actor_id, actor))
                    self.heap_pushes += 1
                elif outcome is parked_outcome:
                    actor.parked = True
                elif outcome is finished_outcome:
                    actor.finished = True
                    self._live -= 1
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"bad step outcome {outcome!r}")
                continue
            # Wide cohort: pop every entry at exactly clock ``c``.  Heap
            # pops produce them already sorted by (clock, actor_id), and a
            # sorted list is a valid heap for the local re-step traffic.
            cohort = [entry]
            while heap and heap[0][0] == c:
                cohort.append(heappop(heap))
                self.heap_pops += 1
            self.cohorts += 1
            self.cohort_actors += len(cohort)
            pending: List[Tuple[float, int, Actor]] = []
            while cohort:
                if heap and heap[0] < cohort[0]:
                    # A mid-drain wake scheduled earlier work (clock <= c
                    # with a smaller id, or clock < c): honor global order.
                    entry = heappop(heap)
                    self.heap_pops += 1
                else:
                    entry = heappop(cohort)
                self.steps += 1
                if max_steps is not None and self.steps > max_steps:
                    raise SimulationError(
                        f"exceeded max_steps={max_steps}; likely a livelock "
                        f"(live={self._live}, now={self.now:.0f} ns)"
                    )
                clock, _, actor = entry
                if actor.parked or actor.finished:
                    continue
                if clock < self.now - 1e-6:
                    raise SimulationError("virtual time went backwards")
                if clock > self.now:
                    self.now = clock
                outcome = actor.step(self)
                if outcome is reschedule:
                    nc = actor.clock
                    if nc <= c:
                        # Same-clock re-step (or a defensive earlier one):
                        # must run before higher-id cohort members, exactly
                        # as a heap push-then-pop would have ordered it.
                        heappush(cohort, (nc, actor.actor_id, actor))
                    else:
                        pending.append((nc, actor.actor_id, actor))
                elif outcome is parked_outcome:
                    actor.parked = True
                elif outcome is finished_outcome:
                    actor.finished = True
                    self._live -= 1
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"bad step outcome {outcome!r}")
            if pending:
                k = len(pending)
                self.heap_pushes += k
                if k > 8 and k * 8 > len(heap):
                    # heapify over the merged list beats k pushes once the
                    # pending batch is a meaningful fraction of the heap.
                    heap.extend(pending)
                    heapify(heap)
                else:
                    for entry in pending:
                        heappush(heap, entry)
        if self._live:
            parked = [a.actor_id for a in self._actors if a.parked and not a.finished]
            ids = ", ".join(map(str, parked[:16]))
            if len(parked) > 16:
                ids += f", ... ({len(parked) - 16} more)"
            raise SimulationError(
                f"deadlock: {self._live} actor(s) parked with empty ready heap "
                f"at {self.now:.0f} ns (parked actor ids: [{ids}])"
            )
        return self.now

    def _push(self, actor: Actor) -> None:
        self.heap_pushes += 1
        heapq.heappush(self._heap, (actor.clock, actor.actor_id, actor))
