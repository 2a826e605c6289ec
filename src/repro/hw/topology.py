"""Physical topology of a chiplet-based CPU.

The model follows Fig. 2 of the CHARM paper: a machine has one or more
sockets, each socket is one NUMA node (NPS1 configuration, as used in the
paper's testbed) and contains several chiplets (CCDs); each chiplet holds a
fixed number of physical cores that share a local L3 slice.

Cores, chiplets and NUMA nodes are identified by dense global integer ids:

- core ids run ``0 .. total_cores - 1``, chiplet-major then socket-major,
  i.e. core ``c`` lives on chiplet ``c // cores_per_chiplet``;
- chiplet ids run ``0 .. total_chiplets - 1`` socket-major;
- NUMA node ids equal socket ids.

This matches the ``unique_worker_ID -> (chiplet, slot)`` arithmetic of
Alg. 2 in the paper, which assumes exactly this dense layout.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import List, Tuple


class Distance(Enum):
    """Topological distance classes between two cores.

    The classes mirror the three latency groups visible in the paper's
    Fig. 3 CDF (same chiplet / same NUMA node but different chiplet /
    different NUMA node), plus the trivial same-core class.
    """

    SAME_CORE = 0
    SAME_CHIPLET = 1
    SAME_SOCKET = 2  # different chiplet, same NUMA node
    CROSS_SOCKET = 3  # different NUMA node


@dataclass(frozen=True)
class Topology:
    """Immutable description of the machine's core/chiplet/socket layout.

    Parameters
    ----------
    sockets:
        Number of CPU sockets.  Each socket is one NUMA node.
    chiplets_per_socket:
        Number of chiplets (CCDs) per socket.
    cores_per_chiplet:
        Number of physical cores per chiplet.
    smt:
        Hardware threads per physical core.  CHARM schedules at physical
        core granularity (one task per physical core, see paper section 4.6),
        so the runtime never places two workers on sibling hyperthreads;
        the parameter exists so that baselines such as SAM can reason about
        hyperthread sharing.
    """

    sockets: int = 2
    chiplets_per_socket: int = 8
    cores_per_chiplet: int = 8
    smt: int = 1
    name: str = "generic"

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.chiplets_per_socket < 1 or self.cores_per_chiplet < 1:
            raise ValueError("topology dimensions must be positive")
        if self.smt < 1:
            raise ValueError("smt must be >= 1")

    # -- Size properties ---------------------------------------------------

    @property
    def total_chiplets(self) -> int:
        return self.sockets * self.chiplets_per_socket

    @property
    def cores_per_socket(self) -> int:
        return self.chiplets_per_socket * self.cores_per_chiplet

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def numa_nodes(self) -> int:
        """NUMA node count (NPS1: one node per socket)."""
        return self.sockets

    # -- Precomputed lookup tables -----------------------------------------
    #
    # The id-mapping arithmetic below is exercised once per simulated memory
    # access, which makes it one of the hottest paths in the repository.
    # These flat tables are computed once per topology (cached_property
    # writes into the frozen dataclass's __dict__) and are what the fast
    # paths in latency/cache/machine index directly.

    @cached_property
    def chiplet_of_core_table(self) -> Tuple[int, ...]:
        """``core id -> chiplet id`` as a flat tuple."""
        cpc = self.cores_per_chiplet
        return tuple(c // cpc for c in range(self.total_cores))

    @cached_property
    def numa_of_core_table(self) -> Tuple[int, ...]:
        """``core id -> NUMA node (== socket) id`` as a flat tuple."""
        cps = self.cores_per_socket
        return tuple(c // cps for c in range(self.total_cores))

    @cached_property
    def socket_of_chiplet_table(self) -> Tuple[int, ...]:
        """``chiplet id -> socket id`` as a flat tuple."""
        cps = self.chiplets_per_socket
        return tuple(ch // cps for ch in range(self.total_chiplets))

    @cached_property
    def chiplet_distance_matrix(self) -> Tuple[Distance, ...]:
        """Flat ``total_chiplets x total_chiplets`` distance-class matrix.

        Entry ``a * total_chiplets + b`` is ``chiplet_distance(a, b)``.
        """
        n = self.total_chiplets
        sock = self.socket_of_chiplet_table
        out: List[Distance] = []
        for a in range(n):
            for b in range(n):
                if a == b:
                    out.append(Distance.SAME_CHIPLET)
                elif sock[a] == sock[b]:
                    out.append(Distance.SAME_SOCKET)
                else:
                    out.append(Distance.CROSS_SOCKET)
        return tuple(out)

    # -- Id mapping --------------------------------------------------------

    def chiplet_of_core(self, core: int) -> int:
        self._check_core(core)
        return self.chiplet_of_core_table[core]

    def socket_of_core(self, core: int) -> int:
        self._check_core(core)
        return self.numa_of_core_table[core]

    def numa_of_core(self, core: int) -> int:
        return self.socket_of_core(core)

    def socket_of_chiplet(self, chiplet: int) -> int:
        self._check_chiplet(chiplet)
        return self.socket_of_chiplet_table[chiplet]

    def cores_of_chiplet(self, chiplet: int) -> List[int]:
        self._check_chiplet(chiplet)
        base = chiplet * self.cores_per_chiplet
        return list(range(base, base + self.cores_per_chiplet))

    def chiplets_of_socket(self, socket: int) -> List[int]:
        self._check_socket(socket)
        base = socket * self.chiplets_per_socket
        return list(range(base, base + self.chiplets_per_socket))

    def cores_of_socket(self, socket: int) -> List[int]:
        self._check_socket(socket)
        base = socket * self.cores_per_socket
        return list(range(base, base + self.cores_per_socket))

    def core_id(self, chiplet: int, slot: int) -> int:
        """Global core id of ``slot`` within ``chiplet`` (Alg. 2 line 11)."""
        self._check_chiplet(chiplet)
        if not 0 <= slot < self.cores_per_chiplet:
            raise ValueError(f"slot {slot} out of range on {self}")
        return chiplet * self.cores_per_chiplet + slot

    # -- Distances ---------------------------------------------------------

    def distance(self, core_a: int, core_b: int) -> Distance:
        """Topological distance class between two cores."""
        self._check_core(core_a)
        self._check_core(core_b)
        if core_a == core_b:
            return Distance.SAME_CORE
        chips = self.chiplet_of_core_table
        ch_a, ch_b = chips[core_a], chips[core_b]
        if ch_a == ch_b:
            return Distance.SAME_CHIPLET
        return self.chiplet_distance_matrix[ch_a * self.total_chiplets + ch_b]

    def chiplet_distance(self, chiplet_a: int, chiplet_b: int) -> Distance:
        self._check_chiplet(chiplet_a)
        self._check_chiplet(chiplet_b)
        return self.chiplet_distance_matrix[chiplet_a * self.total_chiplets + chiplet_b]

    def core_pairs(self) -> List[Tuple[int, int]]:
        """All unordered core pairs, used for latency CDF measurement."""
        n = self.total_cores
        return [(a, b) for a in range(n) for b in range(a + 1, n)]

    # -- Validation helpers --------------------------------------------------

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.total_cores:
            raise ValueError(f"core {core} out of range on {self.name} (0..{self.total_cores - 1})")

    def _check_chiplet(self, chiplet: int) -> None:
        if not 0 <= chiplet < self.total_chiplets:
            raise ValueError(f"chiplet {chiplet} out of range on {self.name}")

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.sockets:
            raise ValueError(f"socket {socket} out of range on {self.name}")


def milan_topology() -> Topology:
    """Dual-socket AMD EPYC Milan 7713: 2 sockets x 8 CCDs x 8 cores."""
    return Topology(sockets=2, chiplets_per_socket=8, cores_per_chiplet=8, smt=2, name="epyc-milan-7713")


def sapphire_rapids_topology() -> Topology:
    """Dual-socket Intel Xeon Platinum 8488C: 2 sockets x 4 tiles x 12 cores.

    Sapphire Rapids is built from four compute tiles per package.  Its L3
    behaves closer to a unified cache than AMD's partitioned slices; the
    latency/cache models for this preset (see ``repro.hw.machine``)
    therefore use a much smaller inter-tile penalty.
    """
    return Topology(sockets=2, chiplets_per_socket=4, cores_per_chiplet=12, smt=2, name="xeon-8488c")
