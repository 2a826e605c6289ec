"""The simulated chiplet machine.

:class:`Machine` ties together topology, latency model, partitioned L3
caches, fabric links, memory channels and fill counters, and services
individual memory accesses in virtual time.  It is the substrate on which
the CHARM runtime and every baseline scheduler execute.

The service path of one access mirrors the hardware:

1. look up the requesting core's local L3 slice — hit costs ``l3_hit``;
2. otherwise consult the directory for a peer chiplet holding the block —
   a remote-L3 fill pays the inter-chiplet (or inter-socket) latency plus
   serialisation on both chiplets' fabric links;
3. otherwise fill from DRAM on the block's home NUMA node — paying the
   DRAM latency (local or remote node), queueing on the owning memory
   channel, and serialisation on the requester's fabric link.

Writes additionally invalidate all other cached copies of the block.
Every fill increments the requesting core's PMU-like counter, classified
by source — the signal consumed by CHARM's Alg. 1.
"""

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw import vector
from repro.hw.cache import CacheSystem
from repro.hw.counters import (
    IDX_DRAM_LOCAL,
    IDX_DRAM_REMOTE,
    IDX_LOCAL_CHIPLET,
    IDX_REMOTE_CHIPLET,
    IDX_REMOTE_NUMA_CHIPLET,
    N_SOURCES,
    SOURCE_INDEX,
    CounterBoard,
    FillSource,
)
from repro.hw.latency import LatencyModel, MILAN_LATENCY, SPR_LATENCY
from repro.hw.memory import (
    ChannelBank,
    CrossSocketLinks,
    LinkBank,
    MemPolicy,
    Region,
    RegionTable,
)
from repro.hw.topology import (
    Topology,
    milan_topology,
    sapphire_rapids_topology,
)

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Minimum batch length — and minimum contiguous vector-eligible span —
#: for the numpy kernels to engage; shorter shapes use the scalar loop.
#: The array kernels carry a fixed per-segment setup cost (a handful of
#: numpy allocations per touched server), so short segments are cheaper
#: to interpret scalarly.
VECTOR_MIN = 32

#: Segment-classification labels (``Machine._classify_runs``).
_HIT = -1
_MISS = -2
_SCALAR = -3


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one serviced memory access.

    ``ns`` is the total delay including queueing backpressure on channels
    and links; ``latency_ns`` excludes queue waits (fixed latencies plus
    transfer service times, accumulated in server-visit order).  Batched
    accesses overlap ``latency_ns`` across memory-level parallelism while
    queue waits extend the batch's completion — see ``Worker._do_batch``.
    """

    ns: float
    source: FillSource
    invalidations: int = 0
    latency_ns: float = 0.0


class BatchResult:
    """Aggregate outcome of one serviced :meth:`Machine.access_batch`.

    ``ns`` is the total virtual time the issuing core is occupied by the
    batch (the amount the worker charges to its clock); ``finish`` is the
    absolute completion time of the slowest individual access.
    ``fill_counts`` is a per-source count vector indexed by
    ``repro.hw.counters.SOURCE_INDEX`` — callers bulk-record it instead of
    constructing one :class:`AccessResult` per block.
    """

    __slots__ = ("ns", "finish", "fill_counts", "invalidations", "accesses")

    def __init__(self, ns: float, finish: float, fill_counts: List[int],
                 invalidations: int, accesses: int):
        self.ns = ns
        self.finish = finish
        self.fill_counts = fill_counts
        self.invalidations = invalidations
        self.accesses = accesses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchResult(ns={self.ns:.1f}, finish={self.finish:.1f}, "
                f"accesses={self.accesses}, fills={self.fill_counts})")


class Machine:
    """A chiplet-based CPU plus its memory system, simulated in virtual time.

    Parameters
    ----------
    topo:
        Physical layout (sockets / chiplets / cores).
    latency:
        Fixed latency table (see :class:`~repro.hw.latency.LatencyModel`).
    l3_bytes_per_chiplet:
        Capacity of each chiplet's L3 slice.
    block_bytes:
        Modelling granularity: consecutive cache lines are grouped into
        blocks of this size.  Accesses are charged per block; intra-block
        reuse is assumed to hit in L1/L2 and is folded into compute cost.
    mem_channels_per_socket / channel_bytes_per_ns:
        DDR channel count and per-channel bandwidth.
    link_bytes_per_ns:
        Per-chiplet fabric (GMI-style) link bandwidth.
    """

    def __init__(
        self,
        topo: Topology,
        latency: LatencyModel,
        l3_bytes_per_chiplet: int,
        block_bytes: int = 4 * KIB,
        mem_channels_per_socket: int = 8,
        channel_bytes_per_ns: float = 25.6,
        link_bytes_per_ns: float = 47.0,
        xlink_bytes_per_ns: float = 47.0,
    ):
        if block_bytes < 64:
            raise ValueError("block_bytes must be at least one cache line (64 B)")
        if l3_bytes_per_chiplet < block_bytes:
            raise ValueError("L3 slice must hold at least one block")
        self.topo = topo
        self.latency = latency
        self.block_bytes = block_bytes
        self.l3_bytes_per_chiplet = l3_bytes_per_chiplet
        self.caches = CacheSystem(topo, l3_bytes_per_chiplet)
        self.channels = ChannelBank(topo.sockets, mem_channels_per_socket, channel_bytes_per_ns)
        self.links = LinkBank(topo.total_chiplets, link_bytes_per_ns)
        self.xlinks = CrossSocketLinks(topo.sockets, xlink_bytes_per_ns)
        self.counters = CounterBoard(topo.total_cores)
        self.regions = RegionTable(topo.numa_nodes, block_bytes)
        self.total_accesses = 0
        # Machine-wide pure fill latency (no queue waits) accumulated per
        # source, dense SOURCE_INDEX order — the per-source histogram in
        # bandwidth_stats().  Part of the vector kernels' bit-identity
        # contract: scalar and vector paths accumulate the same chains.
        self._fill_lat = [0.0] * N_SOURCES
        # Flat topology tables, bound once: the access paths index these
        # instead of re-deriving ids arithmetically per access.
        self._chiplet_of_core = topo.chiplet_of_core_table
        self._numa_of_core = topo.numa_of_core_table
        self._socket_of_chiplet = topo.socket_of_chiplet_table
        # Barrier-span memo, keyed on the participant core tuple;
        # invalidated by the runtime on migration (see sync_span_ns).
        self._span_cache: Dict[Tuple[int, ...], float] = {}
        # Observability (repro.obs): ``obs`` is the telemetry event bus
        # (or None), ``profiler`` the wall-clock kernel-path self-profiler
        # (or None).  Both default off; every guard is one attribute load
        # plus a None check at batch/segment granularity, never per block.
        self.obs = None
        self.profiler = None

    # -- Allocation ----------------------------------------------------------

    def alloc_region(
        self,
        size_bytes: int,
        node: int = 0,
        policy: MemPolicy = MemPolicy.BIND,
        name: str = "",
        block_bytes: Optional[int] = None,
    ) -> Region:
        """Allocate a memory region (the mmap/mbind stand-in).

        ``block_bytes`` sets this region's modelling granularity: use small
        blocks (e.g. 512 B) for sparse/pointer-heavy data so cache capacity
        is charged for what is actually touched, and large blocks for dense
        streamed arrays.
        """
        return self.regions.alloc(
            size_bytes, node=node, policy=policy, name=name, block_bytes=block_bytes
        )

    def free_region(self, region: Region) -> None:
        """Free a region and flush its resident blocks from every L3 slice.

        Walks the directory entries belonging to the region — O(resident
        blocks) — instead of iterating every possible block key: freeing a
        1 GiB region of 512 B blocks is 2M keys, of which only the few
        actually cached need flushing.
        """
        shift = Region._KEY_SHIFT
        rid = region.region_id
        resident = [k for k in self.caches._dir if k >> shift == rid]
        drop = self.caches.drop_everywhere
        for key in resident:
            drop(key)
        self.regions.free(region)

    # -- Access servicing ------------------------------------------------------

    def access(
        self,
        core: int,
        region: Region,
        block_index: int,
        now: float,
        nbytes: Optional[int] = None,
        write: bool = False,
    ) -> AccessResult:
        """Service one block access by ``core`` at virtual time ``now``."""
        prof = self.profiler
        if prof is not None:
            t0 = perf_counter()
            res = self._access_impl(core, region, block_index, now, nbytes, write)
            prof.add("access", 1, perf_counter() - t0)
            return res
        return self._access_impl(core, region, block_index, now, nbytes, write)

    def _access_impl(
        self,
        core: int,
        region: Region,
        block_index: int,
        now: float,
        nbytes: Optional[int] = None,
        write: bool = False,
    ) -> AccessResult:
        self.total_accesses += 1
        nbytes = nbytes or region.block_bytes
        key = region.block_key(block_index)
        chiplet = self._chiplet_of_core[core]

        if self.caches.lookup_local(chiplet, key):
            inval = self.caches.invalidate_others(chiplet, key) if write else 0
            ns = self.latency.l3_hit + inval * self.latency.invalidate
            self.counters.record(core, FillSource.LOCAL_CHIPLET)
            self._fill_lat[IDX_LOCAL_CHIPLET] += ns
            return AccessResult(ns, FillSource.LOCAL_CHIPLET, inval, ns)

        holder = self.caches.find_holder(chiplet, key)
        if holder is not None:
            return self._fill_from_peer(
                core, chiplet, holder, key, nbytes, region.block_bytes, now, write
            )
        return self._fill_from_dram(core, chiplet, region, block_index, key, nbytes, now, write)

    def _fill_from_peer(
        self,
        core: int,
        chiplet: int,
        holder: int,
        key: int,
        nbytes: int,
        resident_bytes: int,
        now: float,
        write: bool,
    ) -> AccessResult:
        socket_of = self._socket_of_chiplet
        same_socket = socket_of[chiplet] == socket_of[holder]
        base = self.latency.fill_same_socket if same_socket else self.latency.fill_cross_socket
        s_link = nbytes / self.links.bytes_per_ns
        lat = (base + s_link) + s_link
        if not same_socket:
            lat = lat + nbytes / self.xlinks.bytes_per_ns
        ns = base
        d, _ = self.links.service(holder, nbytes, now)
        ns += d
        d, _ = self.links.service(chiplet, nbytes, now)
        ns += d
        d, _ = self.xlinks.service(socket_of[chiplet], socket_of[holder], nbytes, now)
        ns += d
        self.caches.fill(chiplet, key, resident_bytes)
        inval = 0
        if write:
            inval = self.caches.invalidate_others(chiplet, key)
            ns += inval * self.latency.invalidate
            lat = lat + inval * self.latency.invalidate
        source = FillSource.REMOTE_CHIPLET if same_socket else FillSource.REMOTE_NUMA_CHIPLET
        self.counters.record(core, source)
        self._fill_lat[IDX_REMOTE_CHIPLET if same_socket else IDX_REMOTE_NUMA_CHIPLET] += lat
        return AccessResult(ns, source, inval, lat)

    def _fill_from_dram(
        self,
        core: int,
        chiplet: int,
        region: Region,
        block_index: int,
        key: int,
        nbytes: int,
        now: float,
        write: bool,
    ) -> AccessResult:
        my_node = self._numa_of_core[core]
        home = region.node_of_block(block_index, requester_node=my_node)
        local = home == my_node
        base = self.latency.dram_local if local else self.latency.dram_remote
        lat = (base + nbytes / self.channels.bytes_per_ns) + nbytes / self.links.bytes_per_ns
        if not local:
            lat = lat + nbytes / self.xlinks.bytes_per_ns
        ns = base
        d, _ = self.channels.service(home, key, nbytes, now)
        ns += d
        d, _ = self.links.service(chiplet, nbytes, now)
        ns += d
        if not local:
            d, _ = self.xlinks.service(my_node, home, nbytes, now)
            ns += d
        self.caches.fill(chiplet, key, region.block_bytes)
        source = FillSource.DRAM_LOCAL if local else FillSource.DRAM_REMOTE
        self.counters.record(core, source)
        self._fill_lat[IDX_DRAM_LOCAL if local else IDX_DRAM_REMOTE] += lat
        return AccessResult(ns, source, 0, lat)

    # -- Batched access servicing (fast path) ----------------------------------

    def access_batch(
        self,
        core: int,
        region: Region,
        blocks: Sequence[int],
        now: float,
        nbytes: Optional[int] = None,
        write: bool = False,
        per_issue_ns: float = 0.0,
        mlp: float = 1.0,
    ) -> BatchResult:
        """Service a whole batch of block accesses by ``core`` in one call.

        Semantically equivalent to issuing each block through
        :meth:`access` in order with the memory-level-parallelism rule of
        ``Worker._do_batch`` — each access is serviced at the batch's
        rolling issue time ``t``, pure latency overlaps across ``mlp``
        outstanding misses while queue waits push out the completion max.
        Batches over BIND/INTERLEAVE regions take the numpy kernels of
        :mod:`repro.hw.vector`: unsorted, duplicate-laden and write
        batches that fit the requester's slice are serviced whole by the
        gather kernel; sorted batches it does not take route their long
        miss and local-hit runs through the segment kernels; peer fills,
        an unsorted batch it declines (one that overflows the slice, or
        a slice of mixed block sizes), and every other shape take the
        scalar loop.
        Both paths are bit-identical to the per-access servicing
        (``blocks`` may be a Python sequence or an int ndarray).
        """
        arr = None
        seq = None
        if isinstance(blocks, np.ndarray):
            arr = blocks if blocks.dtype == np.int64 else blocks.astype(np.int64)
            n = int(arr.shape[0])
        else:
            seq = blocks
            n = len(seq)
        return self._service_blocks(
            core, region, seq, arr, n, now, nbytes, write, per_issue_ns, mlp,
            validated=False,
        )

    def access_run(
        self,
        core: int,
        region: Region,
        start: int,
        count: int,
        now: float,
        stride: int = 1,
        nbytes: Optional[int] = None,
        write: bool = False,
        per_issue_ns: float = 0.0,
        mlp: float = 1.0,
    ) -> BatchResult:
        """Service a run-compressed batch: blocks ``start + i*stride``.

        The run never materializes a per-block Python list: bounds are
        validated in O(1), the block vector is a numpy ``arange``, and the
        run is guaranteed duplicate-free by construction — the shape the
        streaming workloads (sequential scans, strided column walks) emit
        through :class:`repro.runtime.ops.AccessRun`.  Results are
        bit-identical to ``access_batch(core, region, list(...))``.
        """
        if count < 0:
            raise ValueError("run count must be non-negative")
        if stride < 1:
            raise ValueError("run stride must be >= 1")
        if count:
            n_blocks = region.n_blocks
            last = start + (count - 1) * stride
            if not 0 <= start < n_blocks or last >= n_blocks:
                bad = start if not 0 <= start < n_blocks else last
                raise ValueError(
                    f"block {bad} outside region '{region.name}' ({n_blocks} blocks)"
                )
        arr = start + stride * np.arange(count, dtype=np.int64)
        return self._service_blocks(
            core, region, None, arr, count, now, nbytes, write, per_issue_ns, mlp,
            validated=True,
        )

    def _service_blocks(
        self,
        core: int,
        region: Region,
        seq: Optional[Sequence[int]],
        arr: Optional[np.ndarray],
        n: int,
        now: float,
        nbytes: Optional[int],
        write: bool,
        per_issue_ns: float,
        mlp: float,
        validated: bool,
    ) -> BatchResult:
        """Shared batch/run servicing: gather, classify, vectorize, fall back.

        Short batches and REPLICATED regions take the scalar loop.  Write
        and unsorted batches go to the gather kernel, which services them
        whole or declines untouched.  A sorted batch — an ``access_run``,
        a sorted read, or a sorted write the gather kernel declined — is
        classified whole into runs of equal service class (hit / miss /
        scalar) by :meth:`_service_segment`, which services the long hit
        and miss runs with the numpy kernels of :mod:`repro.hw.vector`
        and the rest as scalar spans.  An unsorted batch the gather
        kernel declines takes the scalar loop whole: every batch whose
        fills would evict its own blocks fails the kernel's certificate
        and goes there.
        """
        self.total_accesses += n
        if n == 0:
            return BatchResult(0.0, now, [0] * N_SOURCES, 0, 0)
        req_bytes = nbytes or region.block_bytes
        counts = [0] * N_SOURCES
        # Mutable span state: [t, finish, inval_total, hits, misses].
        state = [now, now, 0, 0, 0]

        vec = n >= VECTOR_MIN and region.policy is not MemPolicy.REPLICATED
        if vec and arr is None:
            try:
                arr = np.asarray(seq, dtype=np.int64)
            except (TypeError, ValueError):
                vec = False
        sorted_inc = True
        if vec and not validated:
            # Sorted batches (np.unique output, scans) prove distinctness
            # in O(n) and expose their bounds at the endpoints; anything
            # else pays min/max reductions (and routes to the gather
            # kernel below, which tolerates duplicates directly).
            sorted_inc = bool(np.all(arr[1:] > arr[:-1]))
            if sorted_inc:
                lo = int(arr[0])
                hi = int(arr[-1])
            else:
                lo = int(arr.min())
                hi = int(arr.max())
            if lo < 0 or hi >= region.n_blocks:
                raise ValueError(
                    f"block {lo if lo < 0 else hi} outside region "
                    f"'{region.name}' ({region.n_blocks} blocks)"
                )

        chiplet = self._chiplet_of_core[core]
        if not vec:
            if seq is None:
                seq = arr.tolist()
            self._scalar_span(core, region, seq, 0, n, req_bytes, write,
                              per_issue_ns, mlp, counts, state)
        else:
            my_node = self._numa_of_core[core]
            s_chan = req_bytes / self.channels.bytes_per_ns
            s_link = req_bytes / self.links.bytes_per_ns
            s_xlink = req_bytes / self.xlinks.bytes_per_ns
            lat = self.latency
            # Pure-latency constants in server-visit order — the same
            # expressions _scalar_span builds, shared by every kernel.
            lats = (
                (lat.dram_local + s_chan) + s_link,
                ((lat.dram_remote + s_chan) + s_link) + s_xlink,
                (lat.fill_same_socket + s_link) + s_link,
                ((lat.fill_cross_socket + s_link) + s_link) + s_xlink,
            )
            keys = arr + np.int64(region.region_id << Region._KEY_SHIFT)
            serviced = False
            if not validated and (write or not sorted_inc):
                # Irregular shapes — unsorted spans, duplicates, write
                # batches with sharers — go to the gather kernel, which
                # services the whole batch or declines untouched.
                prof = self.profiler
                pt0 = perf_counter() if prof is not None else 0.0
                g = vector.gather_segment(
                    self, region, chiplet, my_node, arr, keys, now,
                    req_bytes, write, per_issue_ns, mlp, lats, counts, state,
                )
                if g is not None:
                    serviced = True
                    if prof is not None:
                        prof.add("vec_dup_replay" if g else "vec_gather",
                                 n, perf_counter() - pt0)
            if not serviced:
                if seq is None:
                    seq = arr.tolist()
                if sorted_inc:
                    self._service_segment(
                        core, region, chiplet, my_node, seq, arr, keys,
                        req_bytes, write, per_issue_ns, mlp, lats, counts,
                        state,
                    )
                else:
                    self._scalar_span(core, region, seq, 0, n, req_bytes,
                                      write, per_issue_ns, mlp, counts, state)

        cache = self.caches.caches[chiplet]
        cache.hits += state[3]
        cache.misses += state[4]
        self.counters.record_batch(core, counts)
        t, finish = state[0], state[1]
        end = t if t > finish else finish
        obs = self.obs
        if obs is not None:
            # One event per serviced batch (never per block): pulses the
            # telemetry sampler and tallies kernel activity.
            obs.emit("hw.batch", {
                "t": end, "core": core, "n": n,
                "hits": state[3], "misses": state[4],
            })
        return BatchResult(end - now, finish, counts, state[2], n)

    def _service_segment(
        self,
        core: int,
        region: Region,
        chiplet: int,
        my_node: int,
        seq: Sequence[int],
        arr: np.ndarray,
        keys: np.ndarray,
        req_bytes: int,
        write: bool,
        per_issue_ns: float,
        mlp: float,
        lats: Tuple[float, float, float, float],
        counts: List[int],
        state: list,
    ) -> None:
        """Classify and service a whole sorted (duplicate-free) batch.

        Splits the batch into maximal runs of equal service class and
        routes each long hit or miss run to its kernel — miss runs to
        :func:`repro.hw.vector.dram_fill_segment`, hit runs to
        :func:`~repro.hw.vector.local_hit_segment`.  A long scalar run
        (peer fills, invalidating writes) is serviced as a scalar span
        when it is reached; short runs of any class, and hit runs the
        guard demotes, merge into the pending scalar span ahead of the
        next serviced run.

        Classifying the whole batch up front is sound because it is
        duplicate-free: servicing one block cannot change a *different*
        block's miss label (fills only add the requester as a holder of
        its own blocks).  The single hazard is a fill *evicting* a later
        hit run's block from the requester's own slice — guarded below by
        re-checking the slice's eviction counter at dispatch time and
        demoting the run to scalar if it moved (see MODELING.md for the
        case this guard misses).
        """
        caches = self.caches
        d = caches._dir
        cache = caches.caches[chiplet]
        keys_list = keys.tolist()
        n = len(keys_list)
        # Fast paths for the two homogeneous steady states: a streaming
        # batch resident nowhere (one C-level disjointness check) and a
        # hot read batch fully resident in the requester's slice (one
        # C-level superset check).
        if not d or d.keys().isdisjoint(keys_list):
            runs: Sequence[Tuple[int, int, int]] = ((_MISS, 0, n),)
        elif not write and cache._lru.keys() >= set(keys_list):
            runs = ((_HIT, 0, n),)
        else:
            runs = self._classify_runs(chiplet, keys_list, write)
        ev0 = cache.evictions
        prof = self.profiler
        # ``pos`` tracks the pending (not yet serviced) scalar prefix.
        pos = 0
        for lab, r0, r1 in runs:
            n_run = r1 - r0
            if n_run < VECTOR_MIN:
                continue
            if lab == _SCALAR:
                # A long scalar run (peer fills, invalidating writes) is
                # serviced now, with the pending prefix, so that its
                # evictions reach the next hit run's guard.
                self._scalar_span(core, region, seq, pos, r1, req_bytes,
                                  write, per_issue_ns, mlp, counts, state)
                pos = r1
                continue
            if lab == _HIT and cache.evictions != ev0:
                continue
            if pos < r0:
                self._scalar_span(core, region, seq, pos, r0, req_bytes,
                                  write, per_issue_ns, mlp, counts, state)
            whole = r0 == 0 and r1 == n
            kl = keys_list if whole else keys_list[r0:r1]
            pt0 = perf_counter() if prof is not None else 0.0
            if lab == _MISS:
                vector.dram_fill_segment(
                    self, region, chiplet, my_node,
                    arr if whole else arr[r0:r1],
                    keys if whole else keys[r0:r1],
                    kl, req_bytes, per_issue_ns, mlp, lats, counts, state,
                )
                path = "vec_miss"
            else:
                t_end, fin = vector.local_hit_segment(
                    self, chiplet, kl, state[0], per_issue_ns, mlp,
                )
                # touch_run counted the hits on the slice directly; the
                # span state must not double-count them in the finale.
                counts[IDX_LOCAL_CHIPLET] += n_run
                state[0] = t_end
                if fin > state[1]:
                    state[1] = fin
                path = "vec_hit"
            if prof is not None:
                prof.add(path, n_run, perf_counter() - pt0)
            pos = r1
        if pos < n:
            self._scalar_span(core, region, seq, pos, n, req_bytes, write,
                              per_issue_ns, mlp, counts, state)

    def _classify_runs(
        self, chiplet: int, keys_list: List[int], write: bool,
    ) -> List[Tuple[int, int, int]]:
        """Classify a duplicate-free batch into maximal same-class runs.

        Returns ``(label, start, end)`` tuples in batch order — ``_HIT``
        (resident in the requester's slice; for writes only when the
        requester is the sole holder, so invalidation is a no-op),
        ``_MISS`` (resident nowhere), or ``_SCALAR`` (everything else:
        peer fills, whose holder the scalar span picks by
        ``CacheSystem.find_holder``'s rule, and writes that invalidate
        sharers).  One directory lookup per key.
        """
        caches = self.caches
        dir_get = caches._dir.get
        bit = 1 << chiplet
        runs: List[Tuple[int, int, int]] = []
        cur = _SCALAR - 1  # sentinel unequal to every real label
        r0 = 0
        for i, k in enumerate(keys_list):
            m = dir_get(k)
            if m is None:
                lab = _MISS
            else:
                lab = _HIT if m & bit and (not write or m == bit) else _SCALAR
            if lab != cur:
                if i:
                    runs.append((cur, r0, i))
                cur = lab
                r0 = i
        runs.append((cur, r0, len(keys_list)))
        return runs

    def _scalar_span(
        self,
        core: int,
        region: Region,
        blocks: Sequence[int],
        i0: int,
        i1: int,
        req_bytes: int,
        write: bool,
        per_issue_ns: float,
        mlp: float,
        counts: List[int],
        state: list,
    ) -> None:
        """Scalar servicing of ``blocks[i0:i1]`` with hoisted invariants.

        The per-block loop of the original fast path: handles every access
        shape (hits, peer fills, invalidations, REPLICATED homes).  Reads
        and writes the shared span ``state`` so vector segments and scalar
        spans interleave on one virtual-time line.

        The loop makes no Python call in the common case.  It inlines the
        max-plus recurrence of ``_Server.service`` on server handles
        resolved once per span (same float operations, same order),
        ``CacheSystem.fill`` with ``ChipletCache.insert`` and the victims'
        directory bit clears, keeping the requester slice's ``used_bytes``,
        ``evictions`` and ``_uniform_nb`` in locals (written back on exit,
        raise included).  ``invalidate_others`` is called only when a peer
        holds the block; otherwise it would return 0, and adding
        ``0 * invalidate`` is a bitwise no-op.
        """
        prof = self.profiler
        span_t0 = perf_counter() if prof is not None else 0.0
        n_blocks = region.n_blocks
        resident_bytes = region.block_bytes
        key_base = region.region_id << Region._KEY_SHIFT

        chiplet = self._chiplet_of_core[core]
        my_node = self._numa_of_core[core]
        socket_of = self._socket_of_chiplet
        my_socket = socket_of[chiplet]

        lat = self.latency
        l3_hit_ns = lat.l3_hit
        invalidate_ns = lat.invalidate
        fill_same_ns = lat.fill_same_socket
        fill_cross_ns = lat.fill_cross_socket
        dram_local_ns = lat.dram_local
        dram_remote_ns = lat.dram_remote
        # Pure-latency constants (base + service times, in server-visit
        # order) — the same expressions the vector kernel broadcasts.
        s_chan = req_bytes / self.channels.bytes_per_ns
        s_link = req_bytes / self.links.bytes_per_ns
        s_xlink = req_bytes / self.xlinks.bytes_per_ns
        lat_dram_local = (dram_local_ns + s_chan) + s_link
        lat_dram_remote = ((dram_remote_ns + s_chan) + s_link) + s_xlink
        lat_peer_same = (fill_same_ns + s_link) + s_link
        lat_peer_cross = ((fill_cross_ns + s_link) + s_link) + s_xlink

        caches = self.caches
        cache = caches.caches[chiplet]
        lru = cache._lru
        lru_pop = lru.pop
        cap = cache.capacity_bytes
        ins_nb = resident_bytes if resident_bytes < cap else cap
        used = cache.used_bytes
        evictions = cache.evictions
        uniform = cache._uniform_nb
        fill_lat = self._fill_lat
        d = caches._dir
        dir_get = d.get
        my_bit = 1 << chiplet
        not_bit = ~my_bit
        smask = caches._socket_mask[my_socket]
        invalidate_others = caches.invalidate_others
        # Server handles: fabric links by chiplet, the requester's own
        # link, channels by (node, channel), and the cross-socket link to
        # each other socket (None for the requester's own).
        links = self.links._servers
        my_link = links[chiplet]
        chans = self.channels._servers
        cps = self.channels.channels_per_socket
        x_from_socket = self.xlinks.rows[my_socket]
        x_from_node = self.xlinks.rows[my_node]
        # DRAM home: Region.node_of_block, resolved per span; INTERLEAVE
        # homes vary per block (``fixed_home`` None).
        policy = region.policy
        n_nodes = region.numa_nodes
        fixed_home = (None if policy is MemPolicy.INTERLEAVE
                      else my_node if policy is MemPolicy.REPLICATED
                      else region.home_node)

        t, finish, inval_total, hits, misses = state
        span = blocks if i0 == 0 and i1 == len(blocks) else blocks[i0:i1]
        try:
            for block in span:
                if not 0 <= block < n_blocks:
                    raise ValueError(
                        f"block {block} outside region '{region.name}' ({n_blocks} blocks)"
                    )
                key = key_base | block

                size = lru_pop(key, None)
                if size is not None:
                    # Local L3 hit; re-inserting refreshes recency.
                    lru[key] = size
                    hits += 1
                    ns = l3_hit_ns
                    if write and dir_get(key, 0) & not_bit:
                        inval = invalidate_others(chiplet, key)
                        inval_total += inval
                        ns = l3_hit_ns + inval * invalidate_ns
                    counts[IDX_LOCAL_CHIPLET] += 1
                    fill_lat[IDX_LOCAL_CHIPLET] += ns
                    completion = t + ns
                    if completion > finish:
                        finish = completion
                    step = ns / mlp  # hits have no queue wait: latency == ns
                    t += step if step > per_issue_ns else per_issue_ns
                    continue
                misses += 1

                # Directory lookup: minimum-id holder per distance class, the
                # same deterministic rule as CacheSystem.find_holder — lowest
                # set bit of the same-socket subset, else of the whole mask.
                m = dir_get(key, 0)
                others = m & not_bit
                if others:
                    # Fill from a peer chiplet's L3: holder link, own link,
                    # then the cross-socket link if the holder is remote.
                    same = others & smask
                    cand = same if same else others
                    holder = (cand & -cand).bit_length() - 1
                    holder_socket = socket_of[holder]
                    if holder_socket == my_socket:
                        ns = fill_same_ns
                        latency = lat_peer_same
                        src = IDX_REMOTE_CHIPLET
                    else:
                        ns = fill_cross_ns
                        latency = lat_peer_cross
                        src = IDX_REMOTE_NUMA_CHIPLET
                    sv = links[holder]
                    s_first = s_link
                    xsv = x_from_socket[holder_socket]
                else:
                    # Fill from DRAM on the block's home node: channel, own
                    # link, then the cross-socket link if the home is remote.
                    home = fixed_home if fixed_home is not None else block % n_nodes
                    if home == my_node:
                        ns = dram_local_ns
                        latency = lat_dram_local
                        src = IDX_DRAM_LOCAL
                    else:
                        ns = dram_remote_ns
                        latency = lat_dram_remote
                        src = IDX_DRAM_REMOTE
                    sv = chans[home][key % cps]
                    s_first = s_chan
                    xsv = x_from_node[home]

                # _Server.service, inlined: free = max(free, t) + s.
                free = sv.free_at
                start = free if free > t else t
                free = start + s_first
                sv.free_at = free
                sv.busy_ns += s_first
                sv.wait_ns += start - t
                sv.requests += 1
                ns += free - t
                free = my_link.free_at
                start = free if free > t else t
                free = start + s_link
                my_link.free_at = free
                my_link.busy_ns += s_link
                my_link.wait_ns += start - t
                my_link.requests += 1
                ns += free - t
                if xsv is not None:
                    free = xsv.free_at
                    start = free if free > t else t
                    free = start + s_xlink
                    xsv.free_at = free
                    xsv.busy_ns += s_xlink
                    xsv.wait_ns += start - t
                    xsv.requests += 1
                    ns += free - t

                # CacheSystem.fill, inlined (the block missed, so it is not
                # resident): evict from the LRU front until it fits, clear
                # each victim's directory bit, insert, set ours.
                if ins_nb <= 0:
                    raise ValueError(f"cannot insert block with nbytes={resident_bytes}; "
                                     "must be positive")
                while used + ins_nb > cap and lru:
                    for victim in lru:
                        break
                    used -= lru_pop(victim)
                    evictions += 1
                    vm = dir_get(victim)
                    if vm is not None:
                        vm &= not_bit
                        if vm:
                            d[victim] = vm
                        else:
                            del d[victim]
                if not lru:
                    uniform = ins_nb
                elif uniform != ins_nb:
                    uniform = None
                lru[key] = ins_nb
                used += ins_nb
                d[key] = m | my_bit

                if write and others:
                    inval = invalidate_others(chiplet, key)
                    inval_total += inval
                    ns += inval * invalidate_ns
                    latency = latency + inval * invalidate_ns
                counts[src] += 1
                fill_lat[src] += latency

                completion = t + ns
                if completion > finish:
                    finish = completion
                step = latency / mlp  # overlap pure latency, not queue waits
                t += step if step > per_issue_ns else per_issue_ns
        finally:
            cache.used_bytes = used
            cache.evictions = evictions
            cache._uniform_nb = uniform

        state[0] = t
        state[1] = finish
        state[2] = inval_total
        state[3] = hits
        state[4] = misses
        if prof is not None:
            prof.add("scalar", i1 - i0, perf_counter() - span_t0)

    # -- Synchronisation latency ---------------------------------------------

    def cas_ns(self, core_a: int, core_b: int) -> float:
        """Latency of a CAS ping-pong between two cores (Fig. 3 probe)."""
        return self.latency.core_to_core_ns(self.topo, core_a, core_b)

    def sync_span_ns(self, cores) -> float:
        """Cost of one barrier round over ``cores``: the worst pairwise hop.

        A tree barrier's critical path is dominated by the slowest
        core-to-core link among participants, which this returns (plus a
        fixed arbitration cost per participant handled by the caller).

        Barriers are re-entered many times by the same frozen participant
        set, so the all-pairs max is memoized per core tuple.  The runtime
        invalidates the memo on migration (:meth:`invalidate_sync_cache`),
        which also bounds its size over long runs with churning placements.
        """
        key = tuple(cores)
        if len(key) < 2:
            return 0.0
        cached = self._span_cache.get(key)
        if cached is None:
            ref = key[0]
            cas = self.cas_ns
            cached = max(cas(ref, c) for c in key[1:])
            self._span_cache[key] = cached
        return cached

    def invalidate_sync_cache(self) -> None:
        """Drop memoized barrier spans (call when worker placement changes)."""
        self._span_cache.clear()

    # -- Introspection ---------------------------------------------------------

    def fill_latency_histogram(self) -> Dict:
        """Per-source fill histogram: count, summed pure latency, average.

        Shared by :meth:`bandwidth_stats` and ``RunReport.fill_latency``
        so every run — not just perf scenarios — carries the breakdown.
        """
        fills = self.counters.totals()
        flat = self._fill_lat
        return {
            src.value: {
                "fills": fills[i],
                "latency_ns": flat[i],
                "avg_ns": flat[i] / fills[i] if fills[i] else 0.0,
            }
            for src, i in SOURCE_INDEX.items()
        }

    def state_fingerprint(self) -> Dict[str, Any]:
        """Every piece of mutable machine state, as comparable values.

        The equivalence contract of the access paths: two machines that
        serviced the same accesses through different paths (vector
        kernels vs the forced-scalar twin, compiled programs vs the
        generator twin) must have equal fingerprints.  Covers each
        slice's LRU order with resident sizes, the sharing directory,
        per-slice hit/miss/eviction counters and ``used_bytes``, the
        ``free_at``/``busy_ns``/``wait_ns``/``requests`` of every memory
        channel, fabric link and cross-socket link (per server — not the
        per-socket aggregates of :meth:`bandwidth_stats`), the per-core
        fill counters, the per-source fill-latency chains and
        ``total_accesses``.
        """
        caches = self.caches

        def servers(rows):
            return [(s.free_at, s.busy_ns, s.wait_ns, s.requests) for s in rows]

        xl = self.xlinks._servers
        return {
            "lru": [list(c._lru.items()) for c in caches.caches],
            "directory": {k: frozenset(v) for k, v in caches.directory.items()},
            "slices": [(c.hits, c.misses, c.evictions, c.used_bytes)
                       for c in caches.caches],
            "channels": [servers(s) for s in self.channels._servers],
            "links": servers(self.links._servers),
            "xlinks": servers(xl[pair] for pair in sorted(xl)),
            "counters": [list(c.v) for c in self.counters.per_core],
            "fill_latency": list(self._fill_lat),
            "total_accesses": self.total_accesses,
        }

    def bandwidth_stats(self) -> Dict:
        """Utilization of every modelled bandwidth resource.

        Per-server ``busy_ns`` / ``wait_ns`` / ``requests`` rows for the
        memory channels (aggregated per socket), the per-chiplet fabric
        links, and the cross-socket links, plus machine-wide totals.
        ``fill_latency`` adds a per-source histogram — fill count, summed
        pure latency (no queue waits), and the average — so scenarios can
        assert *where* accesses were served against Fig. 3's local /
        remote-chiplet / remote-NUMA / DRAM hierarchy, so saturation
        experiments (fig04/fig07) can be debugged from data instead of
        rerun with print statements.
        """
        channels = self.channels.stats()
        links = self.links.stats()
        xlinks = self.xlinks.stats()
        fill_latency = self.fill_latency_histogram()

        def _tot(rows):
            return {
                "busy_ns": sum(r["busy_ns"] for r in rows),
                "wait_ns": sum(r["wait_ns"] for r in rows),
                "requests": sum(r["requests"] for r in rows),
            }

        return {
            "channels": {
                "per_socket": channels,
                "peak_bytes_per_ns_per_socket": self.channels.peak_bandwidth(),
                "total": _tot(channels),
            },
            "links": {"per_chiplet": links, "total": _tot(links)},
            "xlinks": {"per_pair": xlinks, "total": _tot(xlinks)},
            "fill_latency": {"per_source": fill_latency},
        }

    def describe(self) -> str:
        t = self.topo
        return (
            f"{t.name}: {t.sockets} socket(s) x {t.chiplets_per_socket} chiplet(s) "
            f"x {t.cores_per_chiplet} core(s), "
            f"L3 {self.l3_bytes_per_chiplet // MIB} MiB/chiplet, "
            f"block {self.block_bytes} B, "
            f"{self.channels.channels_per_socket} mem channels/socket"
        )


def milan(scale: int = 1, block_bytes: int = 4 * KIB) -> Machine:
    """Dual-socket AMD EPYC Milan 7713 (paper testbed 1).

    ``scale`` divides the L3 capacity so experiments can shrink their
    datasets by the same factor and still straddle the same cache-capacity
    boundaries while simulating far fewer accesses.  Latencies and
    bandwidths are unscaled.
    """
    return Machine(
        topo=milan_topology(),
        latency=MILAN_LATENCY,
        l3_bytes_per_chiplet=max(32 * MIB // scale, block_bytes),
        block_bytes=block_bytes,
        mem_channels_per_socket=8,
        channel_bytes_per_ns=25.6,   # DDR4-3200
        link_bytes_per_ns=47.0,      # GMI2 read bandwidth
    )


def sapphire_rapids(scale: int = 1, block_bytes: int = 4 * KIB) -> Machine:
    """Dual-socket Intel Xeon Platinum 8488C (paper testbed 2).

    The 105 MB socket L3 is spread over four compute tiles; the mesh makes
    inter-tile fills far cheaper than on AMD, which is why CHARM's margin
    narrows on this machine (paper section 5.3).
    """
    return Machine(
        topo=sapphire_rapids_topology(),
        latency=SPR_LATENCY,
        l3_bytes_per_chiplet=max(int(105 * MIB / 4) // scale, block_bytes),
        block_bytes=block_bytes,
        mem_channels_per_socket=8,
        channel_bytes_per_ns=38.4,   # DDR5-4800
        link_bytes_per_ns=120.0,     # on-die mesh, much wider than GMI
    )


def genoa(scale: int = 1, block_bytes: int = 4 * KIB) -> Machine:
    """Dual-socket AMD EPYC Genoa 9654-style machine (96 cores/socket).

    The paper's Fig. 4 trend point: more chiplets (12 CCDs/socket) and
    DDR5 with 12 channels, same 8-core CCD granularity.  Not part of the
    paper's testbed — provided for what-if studies of the insights on a
    next-generation part.
    """
    topo = Topology(sockets=2, chiplets_per_socket=12, cores_per_chiplet=8,
                    smt=2, name="epyc-genoa-9654")
    return Machine(
        topo=topo,
        latency=MILAN_LATENCY,
        l3_bytes_per_chiplet=max(32 * MIB // scale, block_bytes),
        block_bytes=block_bytes,
        mem_channels_per_socket=12,
        channel_bytes_per_ns=38.4,   # DDR5-4800
        link_bytes_per_ns=52.0,      # GMI3
        xlink_bytes_per_ns=50.0,
    )


def custom_machine(
    sockets: int,
    chiplets_per_socket: int,
    cores_per_chiplet: int,
    l3_bytes_per_chiplet: int,
    latency: Optional[LatencyModel] = None,
    name: str = "custom",
    **kwargs,
) -> Machine:
    """Build an arbitrary chiplet machine for design-space exploration."""
    topo = Topology(sockets=sockets, chiplets_per_socket=chiplets_per_socket,
                    cores_per_chiplet=cores_per_chiplet, name=name)
    return Machine(topo=topo, latency=latency or MILAN_LATENCY,
                   l3_bytes_per_chiplet=l3_bytes_per_chiplet, **kwargs)


@dataclass(frozen=True)
class MachineGeometry:
    """One point in the chiplet design space, as first-class data.

    Where :func:`milan`/:func:`sapphire_rapids` are *fixed* presets,
    a geometry parameterizes the five axes the DSE sweep
    (:mod:`repro.bench.dse`) explores: chiplet count, cores per chiplet,
    L3 slice size, memory channel count, and an inter-chiplet link
    latency scale.  ``build`` turns it into a runnable :class:`Machine`;
    ``validate`` rejects nonsensical points before any simulation time
    is spent on them.

    ``l3_mib_per_chiplet`` is the *full-size* slice; like the named
    presets, ``build(scale=N)`` divides it so experiments can shrink
    datasets by the same factor and straddle the same capacity
    boundaries with far fewer simulated accesses.

    ``link_latency_scale`` multiplies every latency that crosses the
    inter-chiplet fabric (near/far intra-socket core-to-core, and peer
    L3 fills both intra- and cross-socket); 1.0 is Milan's Infinity
    Fabric, <1 models a tighter mesh (Sapphire-Rapids-like), >1 a
    cheaper/longer-reach interconnect.
    """

    chiplets_per_socket: int
    cores_per_chiplet: int
    l3_mib_per_chiplet: int
    mem_channels_per_socket: int
    link_latency_scale: float = 1.0
    sockets: int = 2
    name: str = ""

    # sanity bounds: generous enough for any plausible 2026-era part,
    # tight enough to catch transposed/typo'd axis values
    _MAX_CHIPLETS_PER_SOCKET = 16
    _MAX_CORES_PER_CHIPLET = 64
    _MAX_CHANNELS_PER_SOCKET = 24
    _MAX_LINK_SCALE = 16.0

    def validate(self) -> None:
        """Raise ``ValueError`` naming every out-of-range axis."""
        problems = []
        if self.sockets < 1:
            problems.append(f"sockets must be >= 1, got {self.sockets}")
        if not 1 <= self.chiplets_per_socket <= self._MAX_CHIPLETS_PER_SOCKET:
            problems.append(
                f"chiplets_per_socket must be in "
                f"[1, {self._MAX_CHIPLETS_PER_SOCKET}], "
                f"got {self.chiplets_per_socket}")
        if not 1 <= self.cores_per_chiplet <= self._MAX_CORES_PER_CHIPLET:
            problems.append(
                f"cores_per_chiplet must be in "
                f"[1, {self._MAX_CORES_PER_CHIPLET}], "
                f"got {self.cores_per_chiplet}")
        if self.l3_mib_per_chiplet <= 0:
            problems.append(
                f"l3_mib_per_chiplet must be > 0, got {self.l3_mib_per_chiplet}")
        if not 1 <= self.mem_channels_per_socket <= self._MAX_CHANNELS_PER_SOCKET:
            problems.append(
                f"mem_channels_per_socket must be in "
                f"[1, {self._MAX_CHANNELS_PER_SOCKET}], "
                f"got {self.mem_channels_per_socket}")
        if not 0.0 < self.link_latency_scale <= self._MAX_LINK_SCALE:
            problems.append(
                f"link_latency_scale must be in (0, {self._MAX_LINK_SCALE}], "
                f"got {self.link_latency_scale}")
        if self.sockets * self.chiplets_per_socket > 63:
            # The cache directory and the vector kernels hold one int64
            # holder bit per chiplet.
            problems.append(
                f"sockets * chiplets_per_socket must be <= 63, got "
                f"{self.sockets * self.chiplets_per_socket}")
        if problems:
            raise ValueError(f"invalid MachineGeometry: {'; '.join(problems)}")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.chiplets_per_socket * self.cores_per_chiplet

    @property
    def total_l3_mib(self) -> int:
        return self.sockets * self.chiplets_per_socket * self.l3_mib_per_chiplet

    @property
    def total_channels(self) -> int:
        return self.sockets * self.mem_channels_per_socket

    @property
    def config_id(self) -> str:
        """Compact stable identity, used as the DSE row/cell key."""
        return (f"{self.chiplets_per_socket}x{self.cores_per_chiplet}"
                f"-l3_{self.l3_mib_per_chiplet}m"
                f"-ch{self.mem_channels_per_socket}"
                f"-lk{self.link_latency_scale:g}")

    def scaled_latency(self, base: LatencyModel = MILAN_LATENCY) -> LatencyModel:
        s = self.link_latency_scale
        if s == 1.0:
            return base
        return replace(
            base,
            c2c_same_socket_near=base.c2c_same_socket_near * s,
            c2c_same_socket_far=base.c2c_same_socket_far * s,
            fill_same_socket=base.fill_same_socket * s,
            fill_cross_socket=base.fill_cross_socket * s,
        )

    def build(self, scale: int = 1, block_bytes: int = 4 * KIB) -> Machine:
        """Materialize the geometry as a runnable :class:`Machine`.

        Bandwidths are held at the Milan baseline across the whole design
        space so the sweep isolates the *geometry* axes; latency scaling
        follows ``link_latency_scale``.
        """
        self.validate()
        topo = Topology(
            sockets=self.sockets,
            chiplets_per_socket=self.chiplets_per_socket,
            cores_per_chiplet=self.cores_per_chiplet,
            name=self.name or f"dse-{self.config_id}",
        )
        return Machine(
            topo=topo,
            latency=self.scaled_latency(),
            l3_bytes_per_chiplet=max(
                self.l3_mib_per_chiplet * MIB // scale, block_bytes),
            block_bytes=block_bytes,
            mem_channels_per_socket=self.mem_channels_per_socket,
            channel_bytes_per_ns=25.6,
            link_bytes_per_ns=47.0,
        )


#: The EPYC Milan testbed expressed as a geometry: 8 CCDs × 8 cores,
#: 32 MiB L3/CCD, 8 DDR4 channels/socket, Infinity-Fabric latency.
GEOMETRY_EPYC_MILAN = MachineGeometry(
    chiplets_per_socket=8, cores_per_chiplet=8, l3_mib_per_chiplet=32,
    mem_channels_per_socket=8, link_latency_scale=1.0,
    name="epyc-milan-anchor")

#: The Xeon Sapphire Rapids testbed as a geometry: 4 tiles × 12 cores,
#: ~26 MiB L3/tile, 8 DDR5 channels/socket; the 0.5 link scale stands in
#: for the mesh's much cheaper inter-tile hops (SPR_LATENCY's
#: fill_same_socket is ~half of Milan's).
GEOMETRY_XEON_SPR = MachineGeometry(
    chiplets_per_socket=4, cores_per_chiplet=12, l3_mib_per_chiplet=26,
    mem_channels_per_socket=8, link_latency_scale=0.5,
    name="xeon-spr-anchor")

#: real-hardware anchor points always included in a DSE lattice sample
GEOMETRY_ANCHORS = (GEOMETRY_EPYC_MILAN, GEOMETRY_XEON_SPR)


def small_test_machine(
    sockets: int = 2,
    chiplets_per_socket: int = 2,
    cores_per_chiplet: int = 2,
    l3_blocks_per_chiplet: int = 8,
    block_bytes: int = 64,
) -> Machine:
    """A tiny machine for unit tests: every structure is observable."""
    topo = Topology(
        sockets=sockets,
        chiplets_per_socket=chiplets_per_socket,
        cores_per_chiplet=cores_per_chiplet,
        name="test-machine",
    )
    return Machine(
        topo=topo,
        latency=MILAN_LATENCY,
        l3_bytes_per_chiplet=l3_blocks_per_chiplet * block_bytes,
        block_bytes=block_bytes,
        mem_channels_per_socket=2,
        channel_bytes_per_ns=25.6,
        link_bytes_per_ns=47.0,
    )
