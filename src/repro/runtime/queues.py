"""Per-worker task queues and hierarchical work stealing.

Each worker owns a local double-ended queue modelled after the lock-free
queues of section 4.4: the owner pushes at the tail and pops from the
head (FIFO, so pinned chains run in program order), thieves steal the
newest unpinned task from the tail.  Steal-victim order is a strategy
decision; CHARM steals chiplet-first, then same socket, then anywhere —
preserving cache locality (section 4.4).

Every queue of one runtime shares a :class:`StealableCount` of its queued
*unpinned* tasks.  An idle worker whose sweep cannot succeed (the count is
zero) skips the victim walk but still draws exactly the random numbers
the per-tier shuffles would have drawn (:func:`skip_shuffles`), so the
virtual-time output does not depend on the shortcut.
"""

from collections import deque
from typing import List, Optional, Sequence

from repro.runtime.task import Task


class StealableCount:
    """Runtime-wide number of queued unpinned tasks, shared by its queues."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class LocalQueue:
    """One worker's task deque."""

    __slots__ = ("_dq", "_stealable")

    def __init__(self, stealable: Optional[StealableCount] = None) -> None:
        self._dq: "deque[Task]" = deque()
        self._stealable = stealable if stealable is not None else StealableCount()

    def __len__(self) -> int:
        return len(self._dq)

    def push(self, task: Task) -> None:
        self._dq.append(task)
        if not task.pinned:
            self._stealable.n += 1

    def pop_local(self) -> Optional[Task]:
        """Owner-side pop: oldest first (program order for pinned chains)."""
        if self._dq:
            task = self._dq.popleft()
            if not task.pinned:
                self._stealable.n -= 1
            return task
        return None

    def steal(self) -> Optional[Task]:
        """Thief-side pop from the tail; pinned tasks are not stealable."""
        dq = self._dq
        if not dq:
            return None
        if not dq[-1].pinned:
            self._stealable.n -= 1
            return dq.pop()
        # Pinned task at the tail: scan for the last stealable task.
        for i in range(len(dq) - 1, -1, -1):
            if not dq[i].pinned:
                task = dq[i]
                del dq[i]
                self._stealable.n -= 1
                return task
        return None


class StealPlan:
    """One worker's victim tiers plus the random draws shuffling them costs.

    Shuffle position ``i``, in the order :meth:`random.Random.shuffle`
    visits them, draws ``getrandbits(bits[i])`` until the value falls below
    ``bounds[i]``.  The draws are two flat int lists rather than pairs: a
    tuple per position is a garbage-collector-tracked object, and that many
    of them made collections run often enough to keep dead machines of
    earlier runs alive longer, raising a sweep worker's peak memory.
    """

    __slots__ = ("tiers", "bounds", "bits", "victims")

    def __init__(self, tiers: List[List[int]]) -> None:
        self.tiers = tiers
        self.bounds = [n for tier in tiers for n in range(len(tier), 1, -1)]
        self.bits = [n.bit_length() for n in self.bounds]
        self.victims = sum(len(tier) for tier in tiers)


def steal_tiers(
    my_worker: int,
    worker_cores: Sequence[int],
    chiplet_of: Sequence[int],
    socket_of: Sequence[int],
    hierarchical: bool,
) -> List[List[int]]:
    """Steal-victim tiers of ``my_worker``, each in worker-id order.

    Chiplet-first (CHARM, section 4.4): same chiplet, then same socket,
    then remote socket.  Topology-oblivious strategies get one flat tier
    of every other worker.  ``chiplet_of``/``socket_of`` are the
    topology's per-core lookup tables.
    """
    if not hierarchical:
        return [[w for w in range(len(worker_cores)) if w != my_worker]]
    my_core = worker_cores[my_worker]
    my_chiplet = chiplet_of[my_core]
    my_socket = socket_of[my_core]
    tiers: List[List[int]] = [[], [], []]
    for wid, core in enumerate(worker_cores):
        if wid == my_worker:
            continue
        if chiplet_of[core] == my_chiplet:
            tiers[0].append(wid)
        elif socket_of[core] == my_socket:
            tiers[1].append(wid)
        else:
            tiers[2].append(wid)
    return tiers


def shuffle_tiers(tiers: List[List[int]], rng) -> List[int]:
    """Concatenation of the tiers, each shuffled as ``rng.shuffle`` would.

    The draw loop inlines :meth:`random.Random.shuffle` and its
    ``_randbelow``: same permutation, same generator state afterwards.
    """
    getrandbits = rng.getrandbits
    order: List[int] = []
    for tier in tiers:
        x = tier[:]
        for i in range(len(x) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        order += x
    return order


def skip_shuffles(plan: StealPlan, rng) -> None:
    """Advance ``rng`` exactly as shuffling the plan's tiers would."""
    getrandbits = rng.getrandbits
    for n, k in zip(plan.bounds, plan.bits):
        while getrandbits(k) >= n:
            pass
