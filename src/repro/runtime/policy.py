"""Chiplet-aware scheduling policy: Algorithms 1 and 2 of the paper.

``chiplet_scheduling`` (Alg. 1) runs decentralised, per worker: at most
once per ``SCHEDULER_TIMER`` the worker compares its remote cache-fill
rate against ``RMT_CHIP_ACCESS_RATE`` and widens (``spread_rate + 1``) or
narrows (``spread_rate - 1``) its chiplet footprint.

``update_location`` (Alg. 2) deterministically maps a worker's unique id
and its ``spread_rate`` to a (chiplet, slot) pair and hence a physical
core, after a bounds check that rejects configurations without enough
dedicated cores.  The arithmetic is a line-for-line translation of the
paper's pseudocode.

The module also defines :class:`SchedulingStrategy`, the interface through
which CHARM and every baseline plug into the shared runtime, plus the
CHARM strategy itself and static LocalCache/DistributedCache-style
strategies.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.hw.machine import Machine
from repro.runtime.queues import shuffle_tiers

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime
    from repro.runtime.worker import Worker


@dataclass
class CharmPolicyConfig:
    """Tunables of Alg. 1 (paper section 4.6, re-calibrated to this machine).

    The paper uses a 500 ms timer and a threshold of 300 fill events per
    interval, calibrated by a sensitivity sweep on their hardware.
    Simulated workloads run for virtual milliseconds, so the default timer
    is scaled down correspondingly, and the threshold is re-calibrated by
    the same kind of sweep (reproduced in ``benchmarks/test_sens_threshold``)
    against the scaled machine's fill rates.

    ``compact_hysteresis`` implements the paper's "only when significant
    inefficiency is detected" guard: a worker narrows its footprint only
    when the remote-fill rate drops well below the spread threshold,
    preventing spread/compact oscillation at the boundary.
    """

    scheduler_timer_ns: float = 50_000.0
    rmt_chip_access_rate: float = 24.0
    min_spread: int = 1
    compact_hysteresis: float = 0.5

    def __post_init__(self) -> None:
        if self.scheduler_timer_ns <= 0:
            raise ValueError("scheduler timer must be positive")
        if self.rmt_chip_access_rate < 0:
            raise ValueError("threshold must be non-negative")
        if not 0.0 <= self.compact_hysteresis <= 1.0:
            raise ValueError("compact_hysteresis must be in [0, 1]")


def update_location(
    worker_id: int,
    spread_rate: int,
    n_workers: int,
    cores_per_chiplet: int,
    chiplets: int,
) -> Optional[int]:
    """Alg. 2: map ``worker_id`` to a core given ``spread_rate``.

    Returns the target core id *within one socket's core namespace*
    (``0 .. chiplets * cores_per_chiplet - 1``) or ``None`` when the
    bounds check fails (the migration is skipped and retried next cycle,
    as in the paper).

    Collision-freedom note: the paper claims unique worker ids yield
    unique cores.  The property tests show this holds exactly when
    ``spread_rate`` divides ``cores_per_chiplet`` and either all workers
    fit before the wrap (``n <= chiplets * cpc/spread``) or each chiplet
    takes one slot per wrap band (``spread >= cpc``) — satisfied by the
    paper's 8-chiplet x 8-core testbed configurations.  In the remaining
    corners the runtime's core ledger arbitrates, denying the losing
    migration (retried next timer cycle).
    """
    # Line 2: bounds check.
    if not 0 < spread_rate <= chiplets:
        return None
    if n_workers > spread_rate * cores_per_chiplet:
        return None
    per = cores_per_chiplet // spread_rate
    if per == 0:
        # Degenerate case the paper's formula cannot express: spread_rate
        # above CORES_PER_CHIPLET (possible on parts with more chiplets
        # than cores per chiplet, e.g. a 12-CCD Genoa socket of 8-core
        # CCDs).  Round-robin one worker per chiplet per band, the
        # formula's evident intent.
        chiplet = worker_id % chiplets
        slot = worker_id // chiplets
        if slot >= cores_per_chiplet:
            return None
        return chiplet * cores_per_chiplet + slot
    # Lines 5-6: provisional chiplet and slot.
    chiplet = worker_id // per
    slot = worker_id % per
    # Lines 7-10: wrap around when the provisional chiplet overflows.
    if chiplet >= chiplets:
        chiplet = chiplet % chiplets
        slot = slot + worker_id // cores_per_chiplet
    if slot >= cores_per_chiplet:  # defensive: cannot dedicate a real core
        return None
    # Line 11: final core id.
    return chiplet * cores_per_chiplet + slot


def min_valid_spread(n_workers: int, cores_per_chiplet: int, chiplets: int) -> int:
    """Smallest ``spread_rate`` passing Alg. 2's bounds check."""
    s = max(1, math.ceil(n_workers / cores_per_chiplet))
    if s > chiplets:
        raise ValueError(
            f"{n_workers} workers cannot get dedicated cores on "
            f"{chiplets} chiplets x {cores_per_chiplet} cores"
        )
    return s


class SchedulingStrategy:
    """Pluggable scheduler personality.

    The shared runtime (:class:`repro.runtime.runtime.Runtime`) delegates
    every placement decision to its strategy: initial worker pinning,
    task placement, steal-victim order, NUMA allocation node, context
    switch costs, and the periodic adaptation hook.  CHARM and all paper
    baselines are implementations of this interface over the *same*
    machine and task model, so measured differences come only from policy.
    """

    name = "base"
    #: user-space coroutine switch (CHARM-style runtimes)
    switch_cost_ns = 60.0
    #: per-task startup cost (OS-thread runtimes pay thread creation here)
    task_create_cost_ns = 0.0
    #: cost of probing one steal victim
    steal_probe_ns = 90.0
    #: cost of re-pinning a worker to another core
    migration_cost_ns = 2_500.0
    #: chiplet-first steal order (True) vs flat random (False)
    hierarchical_stealing = True
    #: True for OS-thread runtimes where synchronisation blocks the worker
    #: (std::async baseline); False for coroutine runtimes where only the
    #: task parks and the worker keeps executing other tasks.
    blocking_sync = False

    def initial_core(self, worker_id: int, n_workers: int, machine: Machine) -> int:
        raise NotImplementedError

    def alloc_node(self, worker: "Worker", machine: Machine) -> int:
        """NUMA node for new allocations by ``worker`` (default: local)."""
        return machine.topo.numa_of_core(worker.core)

    def shared_policy(self, read_only: bool = False, runtime: "Runtime" = None):
        """Placement policy for large shared workload data.

        NUMA-aware baselines interleave shared data across nodes (their
        defining optimisation); CHARM binds it to the socket its workers
        occupy (socket-aware policy, section 4.6).  SHOAL overrides this
        to replicate read-only arrays.
        """
        from repro.hw.memory import MemPolicy

        return MemPolicy.INTERLEAVE

    def place_task(self, spawner: Optional["Worker"], runtime: "Runtime") -> int:
        """Worker id that receives a newly spawned (unpinned) task.

        Round-robin across workers: initial distribution is uniform and
        locality comes from *where the workers sit* (the strategy's core
        placement); work stealing corrects imbalance afterwards.
        """
        return runtime.rr_next_worker()

    def steal_order(self, worker: "Worker", runtime: "Runtime") -> List[int]:
        """Victim worker ids for one steal sweep: the worker's cached tiers
        (:meth:`Worker.steal_plan`), each shuffled for load spreading."""
        return shuffle_tiers(worker.steal_plan().tiers, worker.rng)

    def on_tick(self, worker: "Worker", runtime: "Runtime") -> None:
        """Periodic adaptation hook, called at yield points and task ends."""

    def initial_spread(self, worker_id: int, n_workers: int, machine: Machine) -> int:
        """The ``spread_rate`` matching :meth:`initial_core`'s placement."""
        return 1

    def describe(self) -> str:
        return self.name


class CharmStrategy(SchedulingStrategy):
    """CHARM: decentralised adaptive chiplet-aware scheduling (Alg. 1 + 2)."""

    name = "charm"

    def __init__(self, config: Optional[CharmPolicyConfig] = None):
        self.config = config or CharmPolicyConfig()

    def initial_core(self, worker_id: int, n_workers: int, machine: Machine) -> int:
        """Socket-aware compact start: fill socket 0's chiplets first.

        Workers start with the smallest valid ``spread_rate`` (maximum
        locality); Alg. 1 widens the footprint only when the observed
        remote-fill rate shows that the working set does not fit.
        """
        topo = machine.topo
        cps = topo.cores_per_socket
        socket = worker_id // cps
        local_id = worker_id % cps
        local_workers = min(n_workers - socket * cps, cps)
        spread = min_valid_spread(local_workers, topo.cores_per_chiplet, topo.chiplets_per_socket)
        core = update_location(
            local_id, spread, local_workers, topo.cores_per_chiplet, topo.chiplets_per_socket
        )
        if core is None:  # pragma: no cover - min_valid_spread guarantees validity
            raise RuntimeError("initial placement failed bounds check")
        return socket * cps + core

    def initial_spread(self, worker_id: int, n_workers: int, machine: Machine) -> int:
        topo = machine.topo
        cps = topo.cores_per_socket
        socket = worker_id // cps
        local_workers = min(n_workers - socket * cps, cps)
        return min_valid_spread(local_workers, topo.cores_per_chiplet, topo.chiplets_per_socket)

    def shared_policy(self, read_only: bool = False, runtime: "Runtime" = None):
        """Socket-aware allocation (section 4.6).

        While the workers fit in one socket, shared data is bound there
        (all fills stay in-socket); once execution spans sockets the
        memory manager interleaves so both sockets' channels serve the
        load.
        """
        from repro.hw.memory import MemPolicy

        if runtime is not None:
            topo = runtime.machine.topo
            sockets = {topo.socket_of_core(w.core) for w in runtime.workers}
            if len(sockets) > 1:
                return MemPolicy.INTERLEAVE
        return MemPolicy.BIND

    def on_tick(self, worker: "Worker", runtime: "Runtime") -> None:
        """Alg. 1 (ChipletScheduling), executed per worker."""
        cfg = self.config
        now = worker.clock
        elapsed = now - worker.policy_time
        if elapsed < cfg.scheduler_timer_ns:
            return
        counter = worker.remote_fills_since_mark()            # cache fill events
        rate = counter * cfg.scheduler_timer_ns / elapsed
        topo = runtime.machine.topo
        chiplets = topo.chiplets_per_socket
        spread_before = worker.spread_rate
        core_before = worker.core
        if rate >= cfg.rmt_chip_access_rate:
            if worker.spread_rate < chiplets:
                worker.spread_rate += 1
        elif rate < cfg.rmt_chip_access_rate * cfg.compact_hysteresis:
            if worker.spread_rate > cfg.min_spread:
                worker.spread_rate -= 1
        self._update_location(worker, runtime)                # spread or compact
        worker.policy_time = now
        worker.mark_fill_counters()                           # resetEventCounter()
        obs = runtime.obs
        if obs is not None:
            # Observation only: records the operands Alg. 1 just compared.
            obs.on_policy_decision(
                now=now, worker=worker, elapsed_ns=elapsed, counter=counter,
                rate=rate, threshold=cfg.rmt_chip_access_rate,
                spread_before=spread_before, core_before=core_before,
            )

    def _update_location(self, worker: "Worker", runtime: "Runtime") -> None:
        """Alg. 2, within the worker's socket, via the runtime's core ledger."""
        topo = runtime.machine.topo
        cps = topo.cores_per_socket
        socket = worker.worker_id // cps
        local_id = worker.worker_id % cps
        local_workers = min(len(runtime.workers) - socket * cps, cps)
        core = update_location(
            local_id,
            worker.spread_rate,
            local_workers,
            topo.cores_per_chiplet,
            topo.chiplets_per_socket,
        )
        if core is None:
            return  # bounds check failed: skip, retry next timer cycle
        target = socket * cps + core
        runtime.request_migration(worker, target)


class StaticSpreadStrategy(SchedulingStrategy):
    """Fixed ``spread_rate`` placement with no adaptation.

    ``spread=1`` is the paper's **LocalCache** policy (pack workers onto
    as few chiplets as possible); ``spread=chiplets_per_socket`` is
    **DistributedCache** (one worker per chiplet round-robin).  Also used
    by the spread-rate ablation.
    """

    def __init__(self, spread: int, name: Optional[str] = None):
        if spread < 1:
            raise ValueError("spread must be >= 1")
        self.spread = spread
        self.name = name or f"static-spread-{spread}"

    def initial_core(self, worker_id: int, n_workers: int, machine: Machine) -> int:
        topo = machine.topo
        cps = topo.cores_per_socket
        socket = worker_id // cps
        local_id = worker_id % cps
        local_workers = min(n_workers - socket * cps, cps)
        spread = max(
            self.spread,
            min_valid_spread(local_workers, topo.cores_per_chiplet, topo.chiplets_per_socket),
        )
        spread = min(spread, topo.chiplets_per_socket)
        core = update_location(
            local_id, spread, local_workers, topo.cores_per_chiplet, topo.chiplets_per_socket
        )
        if core is None:
            raise RuntimeError(
                f"static spread {self.spread} invalid for {n_workers} workers"
            )
        return socket * cps + core

    def shared_policy(self, read_only: bool = False, runtime: "Runtime" = None):
        """Static policies pin shared data to the occupied socket."""
        from repro.hw.memory import MemPolicy

        return MemPolicy.BIND


def local_cache_strategy() -> StaticSpreadStrategy:
    """Paper's LocalCache static policy (sections 2.3, 5.7)."""
    return StaticSpreadStrategy(1, name="local-cache")


def distributed_cache_strategy(machine: Machine) -> StaticSpreadStrategy:
    """Paper's DistributedCache static policy (sections 2.3, 5.7)."""
    return StaticSpreadStrategy(machine.topo.chiplets_per_socket, name="distributed-cache")
