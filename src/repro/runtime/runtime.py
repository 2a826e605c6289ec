"""The assembled runtime: workers + strategy + machine + bookkeeping.

:class:`Runtime` wires a scheduling strategy (CHARM or a baseline) to the
simulated machine, creates one worker per requested core, and drives the
virtual-time event loop to completion.  It owns the global pieces of the
paper's architecture (Fig. 6): the global scheduler's core ledger and
migration path, spawn/completion bookkeeping, barrier release, and the
run-level profiling record.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hw.counters import CounterSnapshot, FillSource
from repro.hw.machine import Machine
from repro.hw.memory import MemPolicy, Region
from repro.obs.context import attach_if_active
from repro.runtime.policy import SchedulingStrategy
from repro.runtime.queues import StealableCount
from repro.runtime.sync import Barrier, Future
from repro.runtime.task import Task, TaskState
from repro.runtime.worker import Worker
from repro.sim.engine import EventLoop, SimulationError
from repro.sim.rng import stream_rng


@dataclass
class RunReport:
    """Everything measured during one runtime execution."""

    strategy: str
    n_workers: int
    wall_ns: float
    tasks_completed: int
    tasks_created: int
    migrations: int
    steals: int
    counters: CounterSnapshot
    per_worker_busy_ns: List[float] = field(default_factory=list)
    spread_history: List[Tuple[float, int, int]] = field(default_factory=list)
    #: raw (virtual time, +1/-1) task start/stop deltas; see cumulative_concurrency()
    concurrency_timeline: List[Tuple[float, int]] = field(default_factory=list)
    total_accesses: int = 0
    #: machine-wide per-source fill totals (``FillSource.value`` keyed)
    fill_totals: Dict[str, int] = field(default_factory=dict)
    #: per-source fill-latency histogram (count / summed ns / average ns)
    fill_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.wall_ns * 1e-9

    def throughput(self, work_items: float) -> float:
        """Work items per virtual second."""
        if self.wall_ns <= 0:
            return 0.0
        return work_items / self.wall_seconds

    def cumulative_concurrency(self) -> List[Tuple[float, int]]:
        """Time-sorted (time, running-task count) curve from the raw deltas.

        Workers record start/stop deltas at their own clocks, so the raw
        timeline is not globally time-ordered; this sorts and accumulates.
        """
        events = sorted(self.concurrency_timeline)
        out = []
        count = 0
        for t, delta in events:
            count += delta
            out.append((t, count))
        return out

    def avg_concurrency(self) -> float:
        """Time-weighted average number of concurrently running tasks."""
        tl = self.cumulative_concurrency()
        if len(tl) < 2:
            return 0.0
        area = 0.0
        for (t0, c0), (t1, _) in zip(tl, tl[1:]):
            area += c0 * (t1 - t0)
        span = tl[-1][0] - tl[0][0]
        return area / span if span > 0 else 0.0


class Runtime:
    """Task runtime over a simulated chiplet machine.

    Parameters
    ----------
    machine:
        The hardware substrate.
    n_workers:
        Worker count; each worker gets a dedicated physical core
        (paper section 4.6 — hyperthread siblings are never co-scheduled).
    strategy:
        The scheduling personality (CHARM or a baseline).
    seed:
        Root seed for all stochastic decisions (steal victim order, etc.).
    step_slice_ns:
        Maximum virtual time a worker runs between event-loop turns.
    collect_timeline:
        Record the concurrency timeline (needed for Fig. 12).
    """

    def __init__(
        self,
        machine: Machine,
        n_workers: int,
        strategy: SchedulingStrategy,
        seed: int = 7,
        step_slice_ns: float = 5_000.0,
        collect_timeline: bool = False,
        max_steps: Optional[int] = None,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if n_workers > machine.topo.total_cores:
            raise ValueError(
                f"{n_workers} workers exceed {machine.topo.total_cores} physical cores"
            )
        self.machine = machine
        self.strategy = strategy
        self.seed = seed
        self.step_slice_ns = step_slice_ns
        self.spawn_overhead_ns = 70.0
        self.collect_timeline = collect_timeline

        self.loop = EventLoop()
        self.loop.max_steps = max_steps
        #: queued unpinned tasks across every worker's queue
        self.stealable = StealableCount()
        self.workers: List[Worker] = []
        self.core_ledger: Dict[int, int] = {}  # core -> worker id
        for wid in range(n_workers):
            core = strategy.initial_core(wid, n_workers, machine)
            if core in self.core_ledger:
                # Alg. 2's (chiplet, slot) mapping is collision-free only
                # when spread_rate divides cores_per_chiplet; in the
                # remaining corner the global scheduler arbitrates by
                # assigning the nearest free core (same chiplet, then same
                # socket, then anywhere), mirroring the migration path.
                core = self._nearest_free_core(core)
            w = Worker(wid, core, self, stream_rng(seed, "worker", wid))
            w.policy_time = 0.0
            w.spread_rate = strategy.initial_spread(wid, n_workers, machine)
            self.core_ledger[core] = wid
            self.workers.append(w)

        self.outstanding = 0
        self.tasks_created = 0
        self.tasks_completed = 0
        self.total_steals = 0
        self.total_migrations = 0
        self._idle: List[Worker] = []
        self._rr = 0
        self._completion: Dict[int, Future] = {}
        self._running_tasks = 0
        self._timeline: List[Tuple[float, int]] = []
        self.spread_history: List[Tuple[float, int, int]] = []
        self._started = False
        #: attached Telemetry (repro.obs) or None; every instrumentation
        #: point guards on this so the detached cost is one None check.
        self.obs = None
        attach_if_active(self)

    def _nearest_free_core(self, wanted: int) -> int:
        """Closest unassigned core: same chiplet, same socket, then any."""
        topo = self.machine.topo
        candidates = (
            topo.cores_of_chiplet(topo.chiplet_of_core(wanted))
            + topo.cores_of_socket(topo.socket_of_core(wanted))
            + list(range(topo.total_cores))
        )
        for core in candidates:
            if core not in self.core_ledger:
                return core
        raise SimulationError("no free cores left for initial placement")

    # -- Allocation -------------------------------------------------------------

    def alloc(
        self,
        size_bytes: int,
        node: Optional[int] = None,
        policy: MemPolicy = MemPolicy.BIND,
        name: str = "",
        worker: Optional[Worker] = None,
        block_bytes: Optional[int] = None,
    ) -> Region:
        """Allocate a region; default node follows the strategy's NUMA rule."""
        if node is None:
            ref = worker or self.workers[0]
            node = self.strategy.alloc_node(ref, self.machine)
        return self.machine.alloc_region(
            size_bytes, node=node, policy=policy, name=name, block_bytes=block_bytes
        )

    def alloc_shared(
        self,
        size_bytes: int,
        read_only: bool = False,
        name: str = "",
        block_bytes: Optional[int] = None,
    ) -> Region:
        """Allocate workload-shared data under the strategy's NUMA policy.

        CHARM binds shared data to the socket its workers occupy; the
        NUMA-aware baselines interleave it; SHOAL replicates read-only
        arrays per node.
        """
        policy = self.strategy.shared_policy(read_only=read_only, runtime=self)
        node = self.strategy.alloc_node(self.workers[0], self.machine)
        return self.machine.alloc_region(
            size_bytes, node=node, policy=policy, name=name, block_bytes=block_bytes
        )

    # -- Spawning ----------------------------------------------------------------

    def spawn(
        self,
        fn: Callable,
        *args: Any,
        pin_worker: Optional[int] = None,
        name: str = "",
        spawner: Optional[Worker] = None,
    ) -> Task:
        """Create a task and enqueue it on its target worker."""
        task = Task(fn, args, name=name, pinned=pin_worker is not None)
        if pin_worker is not None:
            target = pin_worker
            if not 0 <= target < len(self.workers):
                raise ValueError(f"pin_worker {target} out of range")
        else:
            target = self.strategy.place_task(spawner, self)
        now = spawner.clock if spawner is not None else 0.0
        task.ready_at = now
        task.spawned_at = now
        task.state = TaskState.READY
        self.outstanding += 1
        self.tasks_created += 1
        self.workers[target].queue.push(task)
        # Wake the target if it idles; otherwise give one parked worker a
        # steal opportunity (cheap directed wakeup instead of a herd).
        if not self._wake_worker(target, now):
            self._wake_one_idle(now)
        return task

    def completion_future(self, task: Task) -> Future:
        """Future resolved with the task's return value at completion."""
        fut = self._completion.get(task.task_id)
        if fut is None:
            if task.state is TaskState.DONE:
                fut = Future(name=f"done-{task.task_id}")
                fut.resolve(task.result, task.finished_at)
            else:
                fut = Future(name=f"completion-{task.task_id}")
                self._completion[task.task_id] = fut
        return fut

    def rr_next_worker(self) -> int:
        self._rr = (self._rr + 1) % len(self.workers)
        return self._rr

    def worker_cores(self) -> List[int]:
        return [w.core for w in self.workers]

    # -- Execution ------------------------------------------------------------------

    def run(self) -> RunReport:
        """Drive the event loop until all tasks complete; return the report."""
        if self._started:
            raise SimulationError("Runtime.run() may only be called once")
        self._started = True
        if self.outstanding == 0:
            raise SimulationError("no tasks spawned before run()")
        for w in self.workers:
            self.loop.add(w)
        wall_ns = self.loop.run()
        if self.outstanding == 0 and self.stealable.n:
            # Idle sweeps skip the victim walk while the count reads zero,
            # so a drifted count would silently drop real steals.
            raise SimulationError(
                f"stealable-task count is {self.stealable.n} after every task completed"
            )
        report = self._report(wall_ns)
        # Break the Runtime <-> Worker cycle: a finished run (its machine,
        # workers and caches) is then freed by reference counting, not
        # left for the cyclic collector.
        for w in self.workers:
            w.runtime = None
        return report

    def _report(self, wall_ns: float) -> RunReport:
        used_cores = [w.core for w in self.workers]
        return RunReport(
            strategy=self.strategy.name,
            n_workers=len(self.workers),
            wall_ns=wall_ns,
            tasks_completed=self.tasks_completed,
            tasks_created=self.tasks_created,
            migrations=self.total_migrations,
            steals=self.total_steals,
            counters=self._aggregate_worker_counters(),
            per_worker_busy_ns=[w.busy_ns for w in self.workers],
            spread_history=list(self.spread_history),
            concurrency_timeline=list(self._timeline),
            total_accesses=self.machine.total_accesses,
            fill_totals={
                src.value: n
                for src, n in zip(FillSource, self.machine.counters.totals())
            },
            fill_latency=self.machine.fill_latency_histogram(),
        )

    def _aggregate_worker_counters(self) -> CounterSnapshot:
        from repro.hw.counters import (
            IDX_DRAM_LOCAL,
            IDX_DRAM_REMOTE,
            IDX_LOCAL_CHIPLET,
            IDX_REMOTE_CHIPLET,
            IDX_REMOTE_NUMA_CHIPLET,
        )

        snap = CounterSnapshot()
        for w in self.workers:
            v = w.fills.v
            snap.local_chiplet += v[IDX_LOCAL_CHIPLET]
            snap.remote_chiplet += v[IDX_REMOTE_CHIPLET]
            snap.remote_numa_chiplet += v[IDX_REMOTE_NUMA_CHIPLET]
            snap.dram += v[IDX_DRAM_LOCAL] + v[IDX_DRAM_REMOTE]
        return snap

    # -- Worker callbacks ---------------------------------------------------------------

    def park_idle(self, worker: Worker) -> None:
        self._idle.append(worker)

    def _wake_idle(self, now: float) -> None:
        while self._idle:
            w = self._idle.pop()
            self.loop.wake(w, now)

    def _wake_worker(self, worker_id: int, now: float) -> bool:
        """Wake a specific idle worker; returns False if it is not parked idle."""
        for i, w in enumerate(self._idle):
            if w.worker_id == worker_id:
                del self._idle[i]
                self.loop.wake(w, now)
                return True
        return False

    def _wake_one_idle(self, now: float) -> None:
        if self._idle:
            self.loop.wake(self._idle.pop(), now)

    def on_dispatch(self, worker: Worker, task: Task) -> None:
        self._record_concurrency(worker.clock, +1)

    def task_done(self, task: Task, worker: Worker) -> None:
        self.outstanding -= 1
        self.tasks_completed += 1
        self._record_concurrency(worker.clock, -1)
        fut = self._completion.pop(task.task_id, None)
        if fut is not None:
            for t in fut.resolve(task.result, worker.clock):
                self._requeue(t)
        if self.outstanding == 0:
            self._wake_idle(worker.clock)

    def task_failed(self, task: Task, worker: Worker) -> None:
        self.outstanding -= 1
        self._record_concurrency(worker.clock, -1)

    def on_worker_blocked(self, worker: Worker) -> None:
        self._record_concurrency(worker.clock, -1)

    def on_task_paused(self, worker: Worker) -> None:
        """A task yielded or parked without finishing."""
        self._record_concurrency(worker.clock, -1)

    def unblock_worker(self, worker: Worker, value: Any, now: float) -> None:
        """Resume a worker whose OS thread blocked on a future."""
        worker.blocked_current = False
        if worker.current is not None:
            worker.current.send_value = value
        self._record_concurrency(now, +1)
        self.loop.wake(worker, now)

    # -- Barriers -------------------------------------------------------------------------

    def release_barrier(
        self,
        barrier: Barrier,
        released: List[Tuple[Task, int, float]],
        releasing_worker: Optional[Worker] = None,
    ) -> Optional[float]:
        """Release all parties; returns the resume time for the caller if the
        releasing worker itself is among the released blocking workers."""
        last = max(t for _, _, t in released)
        cores = [self.workers[wid].core for _, wid, _ in released]
        release_time = last + self.machine.sync_span_ns(cores) + 50.0 * len(released) ** 0.5
        barrier.release_times.append(release_time)
        self_resume: Optional[float] = None
        if self.strategy.blocking_sync:
            for task, wid, _ in released:
                w = self.workers[wid]
                w.blocked_current = False
                task.send_value = None
                task.state = TaskState.RUNNING
                self._record_concurrency(release_time, +1)
                if releasing_worker is not None and wid == releasing_worker.worker_id:
                    self_resume = release_time
                else:
                    self.loop.wake(w, release_time)
            return self_resume
        for task, wid, _ in released:
            task.state = TaskState.READY
            task.ready_at = release_time
            task.send_value = None
            self.workers[wid].queue.push(task)
        self._wake_idle(release_time)
        return None

    def _requeue(self, task: Task) -> None:
        """Put a future-released task back on its owner's queue."""
        wid = task.owner_worker if task.owner_worker is not None else self.rr_next_worker()
        task.state = TaskState.READY
        self.workers[wid].queue.push(task)
        self._wake_idle(task.ready_at)

    # -- Migration (global scheduler + core ledger) ------------------------------------------

    def request_migration(self, worker: Worker, target_core: int) -> bool:
        """Grant a worker's affinity-change request if the core is free.

        The paper's Alg. 2 guarantees collision-freedom when all workers
        share one ``spread_rate``; during transients workers may disagree,
        so the global scheduler arbitrates via the core ledger and a loser
        simply retries next timer cycle.
        """
        if target_core == worker.core:
            return True
        holder = self.core_ledger.get(target_core)
        if holder is not None and holder != worker.worker_id:
            return False
        del self.core_ledger[worker.core]
        self.core_ledger[target_core] = worker.worker_id
        worker.core = target_core
        # Steal tiers follow worker cores: drop every worker's cached plan.
        for w in self.workers:
            w._steal_plan = None
        # Worker placement changed: memoized barrier spans are stale-keyed.
        self.machine.invalidate_sync_cache()
        # Alg. 2 lines 13-14: bind the worker's memory policy to the new node.
        worker.mem_node = self.machine.topo.numa_of_core(target_core)
        worker.clock += self.strategy.migration_cost_ns
        worker.busy_ns += self.strategy.migration_cost_ns
        worker.migrations += 1
        self.total_migrations += 1
        if self.collect_timeline:
            self.spread_history.append((worker.clock, worker.worker_id, worker.spread_rate))
        return True

    # -- Profiling ------------------------------------------------------------------------------

    def _record_concurrency(self, now: float, delta: int) -> None:
        self._running_tasks += delta
        if self.collect_timeline:
            self._timeline.append((now, delta))
