"""Worker threads: one per dedicated physical core.

A worker is the simulation actor that executes tasks.  It owns a local
task queue, steals hierarchically when idle, interprets the ops yielded by
task generators against the machine, and runs the decentralised policy
hook (Alg. 1) at yield points and task completions — exactly the
decentralised design of paper section 4.1: each worker monitors its own
fill counters and autonomously requests affinity changes.

Cooperative vs blocking synchronisation: with CHARM-style strategies a
blocked task parks while the worker picks up other tasks; with
``blocking_sync`` strategies (the ``std::async`` baseline) the *worker
itself* blocks, idling its core — reproducing the thread-blocking
behaviour the paper measures in Fig. 12.
"""

from time import perf_counter
from typing import List, Optional, TYPE_CHECKING

from repro.hw.counters import FillCounters
from repro.runtime import program as program_mod
from repro.runtime.program import (
    K_BATCH,
    K_COMPUTE,
    K_CRITICAL,
    K_RUN,
    K_YIELD,
    OpProgram,
)
from repro.runtime.ops import (
    Access,
    AccessBatch,
    AccessRun,
    Compute,
    CriticalSection,
    SpawnOp,
    WaitBarrier,
    WaitFuture,
    YieldPoint,
)
from repro.runtime.queues import LocalQueue, StealPlan, skip_shuffles, steal_tiers
from repro.runtime.task import Task, TaskState
from repro.sim.engine import Actor, EventLoop, StepOutcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime


class Worker(Actor):
    """One worker pinned to (and migratable between) physical cores."""

    __slots__ = (
        "worker_id", "core", "runtime", "rng", "queue", "current",
        "blocked_current", "spread_rate", "policy_time", "fills",
        "_fill_mark", "_dram_mark", "mem_node", "busy_ns", "tasks_done",
        "steal_attempts", "steals_ok", "migrations", "switches", "_steal_plan",
    )

    def __init__(self, worker_id: int, core: int, runtime: "Runtime", rng):
        super().__init__(worker_id)
        self.worker_id = worker_id
        self.core = core
        self.runtime = runtime
        self.rng = rng
        self.queue = LocalQueue(runtime.stealable)
        self._steal_plan: Optional[StealPlan] = None
        self.current: Optional[Task] = None
        self.blocked_current = False  # blocking_sync: current task waits while worker parks

        # Decentralised policy state (Alg. 1).
        self.spread_rate = 1
        self.policy_time = 0.0
        self.fills = FillCounters()
        self._fill_mark = 0
        self._dram_mark = 0
        self.mem_node = runtime.machine.topo.numa_of_core(core)

        # Statistics.
        self.busy_ns = 0.0
        self.tasks_done = 0
        self.steal_attempts = 0
        self.steals_ok = 0
        self.migrations = 0
        self.switches = 0

    # -- Policy counter plumbing (Alg. 1 lines 5, 18) -------------------------

    def remote_fills_since_mark(self) -> int:
        return self.fills.remote_fills() - self._fill_mark

    def dram_fills_since_mark(self) -> int:
        return self.fills.dram_fills() - self._dram_mark

    def mark_fill_counters(self) -> None:
        self._fill_mark = self.fills.remote_fills()
        self._dram_mark = self.fills.dram_fills()

    # -- Actor interface -------------------------------------------------------

    def step(self, loop: EventLoop) -> StepOutcome:
        rt = self.runtime
        if self.current is None:
            task = self.queue.pop_local() or self._try_steal()
            if task is None:
                if rt.outstanding == 0:
                    return StepOutcome.FINISHED
                rt.park_idle(self)
                return StepOutcome.PARKED
            self._dispatch(task)
        prof = rt.machine.profiler
        if prof is None:
            return self._run_slice(loop)
        # Self-profiled run: attribute the slice's wall clock to the
        # "orchestration" bucket net of whatever the kernel paths (and the
        # program interpreter) charged themselves during the slice.
        t0 = perf_counter()
        k0 = prof.total_wall_s()
        out = self._run_slice(loop)
        prof.add("orchestration", 0,
                 (perf_counter() - t0) - (prof.total_wall_s() - k0))
        return out

    # -- Task acquisition --------------------------------------------------------

    def steal_plan(self) -> StealPlan:
        """This worker's victim tiers, built on first use and cached until
        :meth:`Runtime.request_migration` moves any worker to another core."""
        plan = self._steal_plan
        if plan is None:
            rt = self.runtime
            topo = rt.machine.topo
            plan = self._steal_plan = StealPlan(steal_tiers(
                self.worker_id, rt.worker_cores(), topo.chiplet_of_core_table,
                topo.numa_of_core_table, rt.strategy.hierarchical_stealing,
            ))
        return plan

    def _try_steal(self) -> Optional[Task]:
        rt = self.runtime
        strategy = rt.strategy
        if not rt.stealable.n:
            # No queue holds an unpinned task, so every probe of the sweep
            # would miss.  Its virtual cost is paid exactly as the walk
            # would pay it: the tier shuffles' random draws, then one probe
            # charge per victim added in sequence (n adds of p need not
            # equal one add of n*p).
            plan = self.steal_plan()
            skip_shuffles(plan, self.rng)
            probe = strategy.steal_probe_ns
            if probe:
                clock, busy = self.clock, self.busy_ns
                for _ in range(plan.victims):
                    clock += probe
                    busy += probe
                self.clock, self.busy_ns = clock, busy
            self.steal_attempts += plan.victims
            return None
        # Some victim holds an unpinned task (the own queue is empty, or
        # pop_local would have served it), so this sweep succeeds.
        for victim_id in strategy.steal_order(self, rt):
            self.steal_attempts += 1
            victim = rt.workers[victim_id]
            self._charge(strategy.steal_probe_ns)
            task = victim.queue.steal()
            if task is not None:
                # Moving the task pays half a round trip to the victim's core.
                self._charge(rt.machine.cas_ns(self.core, victim.core) / 2.0)
                self.steals_ok += 1
                rt.total_steals += 1
                obs = rt.obs
                if obs is not None:  # rare path: one event per successful steal
                    obs.bus.emit("worker.steal", {
                        "t": self.clock, "thief": self.worker_id,
                        "victim": victim_id, "task": task.task_id,
                    })
                return task
        return None

    def _dispatch(self, task: Task) -> None:
        strategy = self.runtime.strategy
        if task.ready_at > self.clock:
            self.clock = task.ready_at
        if not task.started:
            task.ensure_started()
        self._charge(strategy.switch_cost_ns)
        task.owner_worker = self.worker_id
        task.state = TaskState.RUNNING
        task.switches += 1
        self.switches += 1
        self.current = task
        self.runtime.on_dispatch(self, task)

    # -- Op interpretation ---------------------------------------------------------

    def _run_slice(self, loop: EventLoop) -> StepOutcome:
        """Run the current task until it yields control or the slice expires.

        Bounding the slice keeps globally shared queueing models (memory
        channels, fabric links) close to true time order while avoiding a
        heap operation per memory access.
        """
        rt = self.runtime
        deadline = self.clock + rt.step_slice_ns
        task = self.current
        if task.program is not None:
            # Resume an in-flight compiled program (slice expired mid-walk).
            outcome = self._run_program(task, deadline)
            if outcome is not None:
                return outcome
            if self.clock >= deadline:
                return StepOutcome.RESCHEDULE
        gen = task.gen
        send = gen.send
        # Bind op classes locally: the dispatch below runs once per yielded
        # op, and module-global lookups are measurable at that frequency.
        compute_op, access_op, batch_op = Compute, Access, AccessBatch
        critical_op, yield_op, spawn_op = CriticalSection, YieldPoint, SpawnOp
        barrier_op, future_op, run_op = WaitBarrier, WaitFuture, AccessRun
        program_cls = OpProgram
        while True:
            try:
                op = send(task.send_value)
                task.send_value = None
            except StopIteration as stop:
                self._finish_task(task, stop.value)
                return StepOutcome.RESCHEDULE
            except Exception as err:  # task crashed: record and propagate
                task.fail(err, self.clock)
                self.current = None
                rt.task_failed(task, self)
                raise

            kind = type(op)
            if kind is program_cls:
                if program_mod.FORCE_GENERATOR:
                    # Equivalence-twin mode: splice the program's rows into
                    # the generator so each row pays the full per-op
                    # send()/dispatch path below.
                    task.gen = gen = program_mod.splice(op, gen)
                    send = gen.send
                    continue
                task.program = op
                task.program_pc = 0
                outcome = self._run_program(task, deadline)
                if outcome is not None:
                    return outcome
                if self.clock >= deadline:
                    return StepOutcome.RESCHEDULE
                continue
            if kind is batch_op:
                self._do_batch(op, task)
            elif kind is run_op:
                self._do_run(op, task)
            elif kind is compute_op:
                self._charge(op.ns)
            elif kind is access_op:
                self._do_access(op.region, op.block, op.write, op.nbytes, task)
            elif kind is critical_op:
                self._charge(op.lock.acquire(self.clock, op.ns))
            elif kind is yield_op:
                task.state = TaskState.READY
                self.queue.push(task)
                rt.on_task_paused(self)  # before clearing current: hooks see the task
                self.current = None
                rt.strategy.on_tick(self, rt)
                return StepOutcome.RESCHEDULE
            elif kind is spawn_op:
                # Creation cost is paid by the *spawner*: ~nothing for
                # coroutines, a full pthread_create for std::async-style
                # runtimes — which serialises task creation on the caller,
                # the flat-scaling bottleneck of Fig. 11's native schemes.
                self._charge(rt.spawn_overhead_ns + rt.strategy.task_create_cost_ns)
                child = rt.spawn(
                    op.fn, *op.args, pin_worker=op.pin_worker, name=op.name, spawner=self
                )
                task.send_value = child
            elif kind is barrier_op:
                return self._wait_barrier(op, task, loop)
            elif kind is future_op:
                if op.future.done:
                    task.send_value = op.future.value
                else:
                    if rt.strategy.blocking_sync and len(self.queue) == 0:
                        # No other runnable thread on this CPU: the OS
                        # thread blocks and the core idles (std::async).
                        self.blocked_current = True
                        op.future.on_resolve(
                            lambda fut, now: rt.unblock_worker(self, fut.value, now)
                        )
                        rt.on_worker_blocked(self)
                        return StepOutcome.PARKED
                    # Runnable threads exist: the OS preempts to them (at
                    # kernel switch cost, charged on next dispatch); a
                    # coroutine runtime just parks the task.
                    op.future.add_waiter(task)
                    rt.on_task_paused(self)
                    self.current = None
                    return StepOutcome.RESCHEDULE
            else:
                raise TypeError(f"task {task.name!r} yielded unknown op {op!r}")

            if self.clock >= deadline:
                return StepOutcome.RESCHEDULE

    def _run_program(self, task: Task, deadline: float) -> Optional[StepOutcome]:
        """Walk the current compiled program's columns until it ends, a
        yield row hands control back, or the slice expires.

        Returns a :class:`StepOutcome` when the walk released the slice
        (yield row, or deadline with rows remaining) and ``None`` when the
        program completed — the caller then resumes the task's generator.
        Row semantics are exactly the per-op dispatch of
        :meth:`_run_slice` minus the generator ``send()`` round trips;
        errors raised by the machine propagate raw, as they do from the
        per-op dispatch.  Program state lives on the task, so a slice
        split mid-program survives steals and migrations.
        """
        prog = task.program
        rt = self.runtime
        machine = rt.machine
        prof = machine.profiler
        pc0 = task.program_pc
        if prof is not None:
            t0 = perf_counter()
            k0 = prof.total_wall_s()
        kinds, a, b, c, d = prog.kinds, prog.a, prog.b, prog.c, prog.d
        wr, dep, ns_col, objs = prog.wr, prog.dep, prog.ns, prog.objs
        n = prog.n
        i = task.program_pc
        core = self.core
        fills = self.fills
        tfills = task.fills
        issue = self.BATCH_ISSUE_NS
        mlp = self.MLP
        outcome: Optional[StepOutcome] = None
        while i < n:
            k = kinds[i]
            if k == K_RUN:
                res = machine.access_run(
                    core, objs[i], a[i], b[i], now=self.clock, stride=c[i],
                    nbytes=d[i] or None, write=wr[i],
                    per_issue_ns=issue + ns_col[i],
                    mlp=1.0 if dep[i] else mlp,
                )
                ns = res.ns
                if ns:
                    self.clock += ns
                    self.busy_ns += ns
                fills.record_counts(res.fill_counts)
                tfills.record_counts(res.fill_counts)
            elif k == K_BATCH:
                region, blocks = objs[i]
                res = machine.access_batch(
                    core, region, blocks, now=self.clock,
                    nbytes=d[i] or None, write=wr[i],
                    per_issue_ns=issue + ns_col[i],
                    mlp=1.0 if dep[i] else mlp,
                )
                ns = res.ns
                if ns:
                    self.clock += ns
                    self.busy_ns += ns
                fills.record_counts(res.fill_counts)
                tfills.record_counts(res.fill_counts)
            elif k == K_COMPUTE:
                ns = ns_col[i]
                if ns:
                    self.clock += ns
                    self.busy_ns += ns
            elif k == K_YIELD:
                task.program_pc = i + 1
                task.state = TaskState.READY
                self.queue.push(task)
                rt.on_task_paused(self)  # before clearing current: hooks see the task
                self.current = None
                rt.strategy.on_tick(self, rt)
                outcome = StepOutcome.RESCHEDULE
                i += 1
                break
            elif k == K_CRITICAL:
                ns = objs[i].acquire(self.clock, ns_col[i])
                if ns:
                    self.clock += ns
                    self.busy_ns += ns
            else:  # K_ACCESS
                res = machine.access(
                    core, objs[i], a[i], now=self.clock,
                    nbytes=d[i] or None, write=wr[i],
                )
                ns = res.ns
                if ns:
                    self.clock += ns
                    self.busy_ns += ns
                fills.record(res.source)
                tfills.record(res.source)
            i += 1
            if self.clock >= deadline and i < n:
                task.program_pc = i
                outcome = StepOutcome.RESCHEDULE
                break
        if i >= n:
            task.program = None
            task.program_pc = 0
        if prof is not None:
            prof.add("program", i - pc0,
                     (perf_counter() - t0) - (prof.total_wall_s() - k0))
        return outcome

    def _wait_barrier(self, op: WaitBarrier, task: Task, loop: EventLoop) -> StepOutcome:
        rt = self.runtime
        if rt.strategy.blocking_sync and len(self.queue) == 0:
            # std::async-style: the OS thread blocks, idling this core.
            self.blocked_current = True
            released = op.barrier.arrive(task, self.worker_id, self.clock)
            rt.on_worker_blocked(self)
            if released is not None:
                resume = rt.release_barrier(op.barrier, released, releasing_worker=self)
                if resume is not None:
                    if resume > self.clock:
                        self.clock = resume
                    return StepOutcome.RESCHEDULE
            return StepOutcome.PARKED
        task.state = TaskState.BLOCKED
        rt.on_task_paused(self)
        self.current = None
        released = op.barrier.arrive(task, self.worker_id, self.clock)
        if released is not None:
            rt.release_barrier(op.barrier, released)
        return StepOutcome.RESCHEDULE

    def _do_access(self, region, block, write, nbytes, task: Task) -> None:
        res = self.runtime.machine.access(
            self.core, region, block, now=self.clock, nbytes=nbytes, write=write
        )
        self._charge(res.ns)
        self.fills.record(res.source)
        task.fills.record(res.source)

    #: per-request issue overhead within a pipelined batch (address
    #: generation + load/store queue slot), ns
    BATCH_ISSUE_NS = 4.0
    #: memory-level parallelism: outstanding misses a core can sustain
    MLP = 10.0

    def _do_batch(self, op: AccessBatch, task: Task) -> None:
        """Pipelined (memory-level-parallel) batch access.

        Requests in a batch are independent streaming accesses: the core
        overlaps up to :attr:`MLP` outstanding misses, so each request
        advances time by ``max(issue interval, latency / MLP)`` rather
        than its full latency.  Queueing on channels/links still
        serialises the requests themselves (bandwidth saturation under
        contention), and the MLP cap keeps *fill latency* relevant: a
        batch of cross-socket fills runs ~2x slower than intra-socket
        ones, exactly the penalty chiplet-oblivious placement pays.
        Dependent (pointer-chasing) accesses should use single
        :class:`Access` ops, which serialise fully.

        The whole batch is serviced by one
        :meth:`~repro.hw.machine.Machine.access_batch` call — the
        simulator's batched fast path — which applies the same MLP rule
        with bit-identical virtual-time results.
        """
        res = self.runtime.machine.access_batch(
            self.core,
            op.region,
            op.blocks,
            now=self.clock,
            nbytes=op.nbytes,
            write=op.write,
            per_issue_ns=self.BATCH_ISSUE_NS + op.compute_ns_per_block,
            mlp=1.0 if op.dependent else self.MLP,
        )
        self._charge(res.ns)
        self.fills.record_counts(res.fill_counts)
        task.fills.record_counts(res.fill_counts)

    def _do_run(self, op: AccessRun, task: Task) -> None:
        """Pipelined access to a run-compressed batch.

        Same MLP rule as :meth:`_do_batch`, but the block list never
        exists as a Python sequence — the machine services the arithmetic
        run directly (:meth:`~repro.hw.machine.Machine.access_run`), with
        bit-identical virtual-time results.
        """
        res = self.runtime.machine.access_run(
            self.core,
            op.region,
            op.start,
            op.count,
            now=self.clock,
            stride=op.stride,
            nbytes=op.nbytes,
            write=op.write,
            per_issue_ns=self.BATCH_ISSUE_NS + op.compute_ns_per_block,
            mlp=1.0 if op.dependent else self.MLP,
        )
        self._charge(res.ns)
        self.fills.record_counts(res.fill_counts)
        task.fills.record_counts(res.fill_counts)

    def _finish_task(self, task: Task, value) -> None:
        rt = self.runtime
        task.finish(value, self.clock)
        self.tasks_done += 1
        self.current = None
        rt.task_done(task, self)
        rt.strategy.on_tick(self, rt)

    def _charge(self, ns: float) -> None:
        if ns:
            self.clock += ns
            self.busy_ns += ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Worker {self.worker_id} core={self.core} t={self.clock:.0f}ns>"
