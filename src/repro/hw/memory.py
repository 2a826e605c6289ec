"""DRAM, memory channels, fabric links, and memory regions.

Models the two bandwidth bottlenecks that drive the paper's results:

1. **Per-socket memory channels** (section 2.2, Fig. 4): each socket has a
   small fixed number of DDR channels.  Every DRAM fill is serialised on
   the channel that owns the block (address-interleaved), so concurrent
   DRAM traffic from many cores queues up and throughput saturates — the
   mechanism behind baseline saturation at 48-56 cores in Fig. 7.

2. **Per-chiplet fabric links** (GMI on AMD): all traffic between a chiplet
   and the IO die (DRAM fills *and* remote-L3 fills) is serialised on that
   chiplet's link.  Packing many cores onto one chiplet caps their
   aggregate memory bandwidth at one link — the mechanism behind the
   DistributedCache win for huge working sets in Fig. 5.

Both are modelled as deterministic single-server (per channel / per link)
queues in virtual time: a request arriving at ``now`` waits until the
server is free, then occupies it for ``bytes / bandwidth``.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np


class MemPolicy(Enum):
    """NUMA memory placement policy for a region (mbind-style)."""

    BIND = "bind"            # all blocks on one home node
    INTERLEAVE = "interleave"  # blocks round-robin across nodes
    REPLICATED = "replicated"  # read-only copy on every node (SHOAL-style)


@dataclass
class Region:
    """A contiguous allocation charged against the simulated memory system.

    Blocks within a region are identified by a dense index; the globally
    unique block key packs ``(region_id, block_index)`` into one integer so
    cache and directory structures can use plain ints.
    """

    region_id: int
    size_bytes: int
    block_bytes: int
    policy: MemPolicy
    home_node: int
    numa_nodes: int
    name: str = ""

    _KEY_SHIFT = 40  # supports regions up to 2**40 blocks

    @property
    def n_blocks(self) -> int:
        return max(1, -(-self.size_bytes // self.block_bytes))

    def block_of_offset(self, offset: int) -> int:
        if not 0 <= offset < max(self.size_bytes, 1):
            raise ValueError(
                f"offset {offset} outside region '{self.name}' of {self.size_bytes} bytes"
            )
        return offset // self.block_bytes

    def block_key(self, block_index: int) -> int:
        if not 0 <= block_index < self.n_blocks:
            raise ValueError(
                f"block {block_index} outside region '{self.name}' ({self.n_blocks} blocks)"
            )
        return (self.region_id << self._KEY_SHIFT) | block_index

    def node_of_block(self, block_index: int, requester_node: Optional[int] = None) -> int:
        """NUMA node that services a DRAM fill for this block."""
        if self.policy is MemPolicy.INTERLEAVE:
            return block_index % self.numa_nodes
        if self.policy is MemPolicy.REPLICATED and requester_node is not None:
            return requester_node
        return self.home_node


class RegionTable:
    """Allocator and registry of live regions, stored structure-of-arrays.

    Region metadata lives in four parallel int64 columns (size, block
    size, policy code, home node) indexed by a compact row number; an
    insertion-ordered ``region_id -> row`` map and a free-row stack give
    O(1) alloc/free with rows recycled in place.  :class:`Region`
    dataclass handles are minted on demand (``alloc``/``get``/
    ``live_regions``) — the public API is unchanged, but bulk consumers
    can scan the columns without touching per-region Python objects.
    """

    _COL_SIZE, _COL_BLOCK, _COL_POLICY, _COL_HOME = range(4)
    _POLICY_BY_CODE = (MemPolicy.BIND, MemPolicy.INTERLEAVE,
                       MemPolicy.REPLICATED)
    _CODE_BY_POLICY = {p: c for c, p in enumerate(_POLICY_BY_CODE)}

    def __init__(self, numa_nodes: int, default_block_bytes: int):
        self.numa_nodes = numa_nodes
        self.default_block_bytes = default_block_bytes
        self._next_id = 1
        self._row_of: Dict[int, int] = {}  # insertion order == alloc order
        self._cols = np.zeros((4, 8), dtype=np.int64)
        self._free_rows: List[int] = list(range(7, -1, -1))
        self._names: Dict[int, str] = {}
        self.allocated_bytes_per_node = [0] * numa_nodes

    def _take_row(self) -> int:
        if not self._free_rows:
            old = self._cols
            cap = old.shape[1]
            self._cols = np.zeros((4, 2 * cap), dtype=np.int64)
            self._cols[:, :cap] = old
            self._free_rows = list(range(2 * cap - 1, cap - 1, -1))
        return self._free_rows.pop()

    def _mint(self, region_id: int, row: int) -> Region:
        c = self._cols
        return Region(
            region_id=region_id,
            size_bytes=int(c[self._COL_SIZE, row]),
            block_bytes=int(c[self._COL_BLOCK, row]),
            policy=self._POLICY_BY_CODE[int(c[self._COL_POLICY, row])],
            home_node=int(c[self._COL_HOME, row]),
            numa_nodes=self.numa_nodes,
            name=self._names[region_id],
        )

    def alloc(
        self,
        size_bytes: int,
        node: int = 0,
        policy: MemPolicy = MemPolicy.BIND,
        name: str = "",
        block_bytes: Optional[int] = None,
    ) -> Region:
        if size_bytes < 0:
            raise ValueError("region size must be non-negative")
        if not 0 <= node < self.numa_nodes:
            raise ValueError(f"NUMA node {node} out of range")
        region_id = self._next_id
        self._next_id += 1
        row = self._take_row()
        col = self._cols
        col[self._COL_SIZE, row] = size_bytes
        col[self._COL_BLOCK, row] = block_bytes or self.default_block_bytes
        col[self._COL_POLICY, row] = self._CODE_BY_POLICY[policy]
        col[self._COL_HOME, row] = node
        self._row_of[region_id] = row
        self._names[region_id] = name or f"region{region_id}"
        if policy is MemPolicy.REPLICATED:
            for n in range(self.numa_nodes):
                self.allocated_bytes_per_node[n] += size_bytes
        elif policy is MemPolicy.INTERLEAVE:
            share = size_bytes // self.numa_nodes
            for n in range(self.numa_nodes):
                self.allocated_bytes_per_node[n] += share
        else:
            self.allocated_bytes_per_node[node] += size_bytes
        return self._mint(region_id, row)

    def free(self, region: Region) -> None:
        """Release a region, returning its bytes to the per-node accounting.

        Freeing is idempotent: only the first call for a live region
        decrements ``allocated_bytes_per_node`` (mirroring the increments
        made by :meth:`alloc` for each placement policy).
        """
        row = self._row_of.pop(region.region_id, None)
        if row is None:
            return
        self._cols[:, row] = 0
        self._free_rows.append(row)
        self._names.pop(region.region_id, None)
        if region.policy is MemPolicy.REPLICATED:
            for n in range(self.numa_nodes):
                self.allocated_bytes_per_node[n] -= region.size_bytes
        elif region.policy is MemPolicy.INTERLEAVE:
            share = region.size_bytes // self.numa_nodes
            for n in range(self.numa_nodes):
                self.allocated_bytes_per_node[n] -= share
        else:
            self.allocated_bytes_per_node[region.home_node] -= region.size_bytes

    def get(self, region_id: int) -> Region:
        return self._mint(region_id, self._row_of[region_id])

    def live_regions(self) -> List[Region]:
        return [self._mint(rid, row) for rid, row in self._row_of.items()]


class _Server:
    """Deterministic single-server queue in virtual time.

    The recurrence is max-plus: ``free = max(free, now) + service``.  The
    vectorized kernels in :mod:`repro.hw.vector` reproduce this recurrence
    bit-exactly for a whole batch of arrivals (see ``serve_constant``),
    and ``Machine._scalar_span`` inlines it per access on the server
    handles; any change to the arithmetic here must be mirrored in both.
    """

    __slots__ = ("free_at", "busy_ns", "wait_ns", "requests")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_ns = 0.0
        self.wait_ns = 0.0
        self.requests = 0

    def service(self, now: float, service_ns: float) -> "Tuple[float, float]":
        """Serve a request arriving at ``now``.

        Returns ``(total_delay, queue_wait)``: total is wait + service,
        wait is the backpressure component (time spent queued behind
        earlier requests).  Callers that model memory-level parallelism
        overlap the *service* part but let queue waits extend the batch.
        """
        start = self.free_at if self.free_at > now else now
        self.free_at = start + service_ns
        self.busy_ns += service_ns
        self.wait_ns += start - now
        self.requests += 1
        return self.free_at - now, start - now

    def stats(self) -> Dict[str, float]:
        return {
            "busy_ns": self.busy_ns,
            "wait_ns": self.wait_ns,
            "requests": self.requests,
        }


class ChannelBank:
    """Per-socket DDR memory channels with address interleaving."""

    def __init__(self, sockets: int, channels_per_socket: int, bytes_per_ns_per_channel: float):
        if channels_per_socket < 1:
            raise ValueError("need at least one memory channel per socket")
        self.channels_per_socket = channels_per_socket
        self.bytes_per_ns = bytes_per_ns_per_channel
        self._servers = [[_Server() for _ in range(channels_per_socket)] for _ in range(sockets)]

    def service(self, socket: int, block_key: int, nbytes: int, now: float) -> "Tuple[float, float]":
        """Serialise a DRAM transfer on the owning channel.

        Returns ``(total_delay, queue_wait)``.
        """
        chan = self._servers[socket][block_key % self.channels_per_socket]
        return chan.service(now, nbytes / self.bytes_per_ns)

    def busy_ns(self, socket: int) -> float:
        return sum(s.busy_ns for s in self._servers[socket])

    def peak_bandwidth(self) -> float:
        """Bytes/ns a single socket can sustain."""
        return self.channels_per_socket * self.bytes_per_ns

    def server(self, socket: int, channel: int) -> _Server:
        """Direct server handle (used by the vectorized batch kernels)."""
        return self._servers[socket][channel]

    def stats(self) -> List[Dict[str, float]]:
        """Per-socket utilization, aggregated over the socket's channels."""
        out = []
        for socket, servers in enumerate(self._servers):
            out.append({
                "socket": socket,
                "busy_ns": sum(s.busy_ns for s in servers),
                "wait_ns": sum(s.wait_ns for s in servers),
                "requests": sum(s.requests for s in servers),
            })
        return out


class CrossSocketLinks:
    """Inter-socket (xGMI-style) links, one per unordered socket pair.

    All cross-socket traffic — peer-L3 fills from the other socket and
    remote-node DRAM fills — serialises here.  Saturation of this link is
    what makes chiplet-oblivious schedulers collapse beyond ~48-56 cores
    when they scatter sharers across sockets (paper Fig. 7).
    """

    def __init__(self, sockets: int, bytes_per_ns_per_link: float):
        self.sockets = sockets
        self.bytes_per_ns = bytes_per_ns_per_link
        self._servers: Dict[Tuple[int, int], _Server] = {}
        for a in range(sockets):
            for b in range(a + 1, sockets):
                self._servers[(a, b)] = _Server()
        # ``rows[a][b]``: the server between sockets a and b, None when
        # a == b — one list index per lookup for the access paths.
        self.rows: List[List[Optional[_Server]]] = [
            [self._servers[(min(a, b), max(a, b))] if a != b else None
             for b in range(sockets)]
            for a in range(sockets)
        ]

    def service(self, socket_a: int, socket_b: int, nbytes: int, now: float) -> "Tuple[float, float]":
        """Returns ``(total_delay, queue_wait)``; zero for same-socket."""
        if socket_a == socket_b:
            return 0.0, 0.0
        return self.rows[socket_a][socket_b].service(now, nbytes / self.bytes_per_ns)

    def busy_ns(self, socket_a: int, socket_b: int) -> float:
        return self.rows[socket_a][socket_b].busy_ns

    def server(self, socket_a: int, socket_b: int) -> Optional[_Server]:
        """Direct server handle, or ``None`` for a same-socket pair."""
        return self.rows[socket_a][socket_b]

    def stats(self) -> List[Dict[str, float]]:
        out = []
        for (a, b), s in self._servers.items():
            row = {"sockets": [a, b]}
            row.update(s.stats())
            out.append(row)
        return out


class LinkBank:
    """Per-chiplet fabric links (chiplet <-> IO die)."""

    def __init__(self, chiplets: int, bytes_per_ns_per_link: float):
        self.bytes_per_ns = bytes_per_ns_per_link
        self._servers = [_Server() for _ in range(chiplets)]

    def service(self, chiplet: int, nbytes: int, now: float) -> "Tuple[float, float]":
        """Returns ``(total_delay, queue_wait)``."""
        return self._servers[chiplet].service(now, nbytes / self.bytes_per_ns)

    def busy_ns(self, chiplet: int) -> float:
        return self._servers[chiplet].busy_ns

    def requests(self, chiplet: int) -> int:
        return self._servers[chiplet].requests

    def server(self, chiplet: int) -> _Server:
        """Direct server handle (used by the vectorized batch kernels)."""
        return self._servers[chiplet]

    def stats(self) -> List[Dict[str, float]]:
        out = []
        for chiplet, s in enumerate(self._servers):
            row = {"chiplet": chiplet}
            row.update(s.stats())
            out.append(row)
        return out
