"""Task-parallel graph algorithms over the simulated runtime.

The algorithms follow the paper's task/RPC model (section 4.6: "We have
kept RING's original API and task/RPC model", which RING inherits from
Grappa's delegation style): vertices are range-partitioned over workers,
and **only the owning worker writes its partition's state**.  Each
level-synchronous round runs one pinned task per active owner, which
drains the owner's message inbox, updates its vertex state
(owner-exclusive writes, no coherence races), expands the newly
activated vertices' adjacency (read-only) and routes discovered visits
to destination owners by writing their inbox buffers.

What gets charged to the simulated machine:

- adjacency (CSR) scans — streaming reads of the read-only ``adj`` region
  (small 512 B blocks: sparse per-vertex lists);
- vertex-state updates — the owner's accesses to its own ``vtx`` range
  (4 KiB blocks, heavy cross-round reuse);
- message-buffer writes by expanders and reads by owners — traffic whose
  cost depends on *where* the two workers sit: same-chiplet/same-socket
  under CHARM's packing vs cross-socket under round-robin NUMA placement
  (the Tab. 1 remote-NUMA fills);
- per-edge compute.

Every algorithm computes its real result (numpy, deterministic) and is
checked against :mod:`repro.workloads.graph.reference` in the tests.
"""

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.runtime.ops import SpawnOp, WaitFuture
from repro.runtime.program import OpProgram
from repro.runtime.runtime import Runtime
from repro.workloads import sorted_unique
from repro.workloads.graph.generator import Graph

UNREACHED = -1
INF = np.iinfo(np.int64).max

#: per-edge ALU work (index arithmetic, compare-and-update), ns
EDGE_COMPUTE_NS = 0.5
#: streaming scan bandwidth for adjacency blocks, bytes/ns
SCAN_BW_BYTES_PER_NS = 25.0
#: per-vertex-block bookkeeping cost, ns
VTX_TOUCH_NS = 6.0
#: bytes fetched per random vertex-state access (one cache line)
VTX_ACCESS_BYTES = 64
#: bytes per CSR index entry
IDX_BYTES = 4
#: bytes of state per vertex in the vtx region
VTX_BYTES = 16
#: bytes per routed message (batched visit: vertex id + payload)
MSG_BYTES = 8


def _ranges_to_blocks(starts: np.ndarray, ends: np.ndarray, block_bytes: int) -> np.ndarray:
    """Unique block indices covered by byte ranges [starts, ends)."""
    live = ends > starts
    if not live.any():
        return np.empty(0, dtype=np.int64)
    starts = starts[live]
    ends = ends[live]
    first = starts // block_bytes
    last = (ends - 1) // block_bytes
    span = (last - first + 1).astype(np.int64)
    total = int(span.sum())
    base = np.repeat(first, span)
    offset = np.arange(total) - np.repeat(np.cumsum(span) - span, span)
    return sorted_unique(base + offset)


def gather_neighbors(g: Graph, vertices: np.ndarray):
    """Vectorised CSR gather: (edge indices, neighbour ids, per-vertex counts)."""
    starts = g.indptr[vertices]
    counts = g.indptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.int32), counts
    idx = np.repeat(starts, counts) + (
        np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    )
    return idx, g.indices[idx], counts


class GraphWorkspace:
    """Regions, partitioning and block-layout arithmetic for one run."""

    #: CSR adjacency is sparse per vertex: small blocks so cache capacity
    #: is charged for what a chunk actually touches.
    ADJ_BLOCK_BYTES = 512
    #: vertex state is revisited densely: page-sized blocks.
    VTX_BLOCK_BYTES = 4096
    #: message buffers: batched visits, 512 B per buffer block.
    MSG_BLOCK_BYTES = 512

    def __init__(self, runtime: Runtime, graph: Graph):
        self.runtime = runtime
        self.graph = graph
        self.n_parts = len(runtime.workers)
        self.adj = runtime.alloc_shared(
            max(graph.adjacency_bytes, self.ADJ_BLOCK_BYTES),
            read_only=True,
            name="graph-adj",
            block_bytes=self.ADJ_BLOCK_BYTES,
        )
        self.vtx = runtime.alloc_shared(
            max(graph.n * VTX_BYTES, self.VTX_BLOCK_BYTES),
            read_only=False,
            name="graph-vtx",
            block_bytes=self.VTX_BLOCK_BYTES,
        )
        # Per-owner inbox: enough buffer blocks for a full-partition round.
        self.inbox_stride = max(
            2, -(-(graph.n * MSG_BYTES) // (self.n_parts * self.MSG_BLOCK_BYTES)) + 1
        )
        self.msg = runtime.alloc_shared(
            self.n_parts * self.inbox_stride * self.MSG_BLOCK_BYTES,
            read_only=False,
            name="graph-msg",
            block_bytes=self.MSG_BLOCK_BYTES,
        )
        self.scan_ns_per_block = self.ADJ_BLOCK_BYTES / SCAN_BW_BYTES_PER_NS

    # -- Partitioning (contiguous vertex ranges, one per worker) ------------

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        return (vertices.astype(np.int64) * self.n_parts) // self.graph.n

    def part_range(self, part: int) -> Tuple[int, int]:
        n, p = self.graph.n, self.n_parts
        return (n * part) // p, (n * (part + 1)) // p

    def group_by_owner(self, vertices: np.ndarray, payload: Optional[np.ndarray] = None):
        """Split (vertices[, payload]) into per-owner sub-arrays."""
        verts: List[Optional[np.ndarray]] = [None] * self.n_parts
        loads: List[Optional[np.ndarray]] = [None] * self.n_parts
        if vertices.size == 0:
            return verts, loads
        owners = self.owner_of(vertices)
        order = np.argsort(owners, kind="stable")
        vertices = vertices[order]
        owners = owners[order]
        if payload is not None:
            payload = payload[order]
        bounds = np.searchsorted(owners, np.arange(self.n_parts + 1))
        for p in range(self.n_parts):
            lo, hi = bounds[p], bounds[p + 1]
            if hi > lo:
                verts[p] = vertices[lo:hi]
                if payload is not None:
                    loads[p] = payload[lo:hi]
        return verts, loads

    # -- Block arithmetic ------------------------------------------------------

    def adj_blocks_for(self, vertices: np.ndarray) -> np.ndarray:
        """Sorted-unique adjacency blocks for a vertex frontier (ndarray).

        The sorted int64 array feeds ``Machine.access_batch`` directly:
        no per-block Python list, and the machine's sortedness probe
        proves distinctness for free.
        """
        starts = (self.graph.indptr[vertices] * IDX_BYTES).astype(np.int64)
        ends = (self.graph.indptr[vertices + 1] * IDX_BYTES).astype(np.int64)
        return _ranges_to_blocks(starts, ends, self.ADJ_BLOCK_BYTES)

    def adj_run(self, v0: int, v1: int) -> Tuple[int, int]:
        """Adjacency scan of the vertex range ``[v0, v1)`` as ``(start, count)``.

        CSR adjacency for a contiguous vertex range is one contiguous byte
        range, so the scan run-compresses exactly — the shape
        :class:`~repro.runtime.ops.AccessRun` carries without ever
        materializing block indices.
        """
        start = int(self.graph.indptr[v0]) * IDX_BYTES
        end = int(self.graph.indptr[v1]) * IDX_BYTES
        if end <= start:
            return 0, 0
        bb = self.ADJ_BLOCK_BYTES
        b0 = start // bb
        return b0, (end - 1) // bb + 1 - b0

    def adj_blocks_range(self, v0: int, v1: int) -> List[int]:
        b0, count = self.adj_run(v0, v1)
        return list(range(b0, b0 + count))

    def vtx_blocks_for(self, vertices: np.ndarray) -> np.ndarray:
        """Sorted-unique vertex-state blocks touched by ``vertices``.

        Dedupe via an O(n) block bitmap instead of ``np.unique`` — the
        hash/sort inside unique was the top host-time cost of the
        PageRank rounds — and hand the sorted ndarray straight to the
        machine (callers need not pre-unique their vertex arrays).
        """
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        blocks = vertices.astype(np.int64) * VTX_BYTES // self.VTX_BLOCK_BYTES
        mask = np.zeros(int(blocks.max()) + 1, dtype=bool)
        mask[blocks] = True
        return np.flatnonzero(mask)

    def vtx_run(self, v0: int, v1: int) -> Tuple[int, int]:
        """Vertex-state blocks of the owned range ``[v0, v1)`` as ``(start, count)``."""
        if v1 <= v0:
            return 0, 0
        b0 = (v0 * VTX_BYTES) // self.VTX_BLOCK_BYTES
        return b0, ((v1 - 1) * VTX_BYTES) // self.VTX_BLOCK_BYTES - b0 + 1

    def inbox_run(self, owner: int, n_messages: int) -> Tuple[int, int]:
        """Buffer-block run of ``owner``'s inbox as ``(start, count)``."""
        if n_messages <= 0:
            return 0, 0
        n_blocks = min(self.inbox_stride, -(-(n_messages * MSG_BYTES) // self.MSG_BLOCK_BYTES))
        return owner * self.inbox_stride, n_blocks

    def inbox_blocks(self, owner: int, n_messages: int) -> List[int]:
        """Buffer blocks of ``owner``'s inbox holding ``n_messages`` visits."""
        base, n_blocks = self.inbox_run(owner, n_messages)
        return list(range(base, base + n_blocks))

    def outbox_block_array(self, dest_counts: np.ndarray) -> np.ndarray:
        """All inbox blocks a sender must write, as one sorted int64 array.

        Concatenating the per-destination runs in destination order keeps
        the array strictly increasing (inboxes are disjoint strided
        windows), so it must stay a *single* access op — splitting it into
        per-destination ops would change the batch's virtual-time
        accounting — and the machine again gets distinctness for free.
        """
        runs = [
            np.arange(base, base + count, dtype=np.int64)
            for base, count in (
                self.inbox_run(int(dest), int(dest_counts[dest]))
                for dest in np.flatnonzero(dest_counts)
            )
        ]
        if not runs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(runs)

    def outbox_blocks(self, dest_counts: np.ndarray) -> List[int]:
        """All inbox blocks a sender must write, given per-dest counts."""
        return self.outbox_block_array(dest_counts).tolist()

    def edge_chunks(self, vertices: np.ndarray, target_chunks: int) -> List[np.ndarray]:
        """Split vertices into chunks of roughly equal *edge* counts.

        This is the hub-splitting step: a partition owning high-degree
        R-MAT hubs would otherwise serialise the whole round.
        """
        if vertices.size == 0:
            return []
        degs = (self.graph.indptr[vertices + 1] - self.graph.indptr[vertices]).astype(np.int64)
        total = int(degs.sum())
        budget = max(1024, total // max(1, target_chunks))
        cuts = np.searchsorted(np.cumsum(degs), np.arange(budget, total, budget))
        return [c for c in np.split(vertices, cuts) if c.size]


@dataclass
class GraphState:
    """Mutable algorithm state shared by coordinator and chunk tasks."""

    dist: np.ndarray = None
    label: np.ndarray = None
    rank: np.ndarray = None
    edges_traversed: int = 0
    rounds: int = 0


def _wait_tasks(runtime: Runtime, tasks) -> Generator:
    """Wait for spawned tasks; returns their results in order."""
    results = []
    for t in tasks:
        fut = runtime.completion_future(t)
        if fut.done:
            results.append(fut.value)
        else:
            results.append((yield WaitFuture(fut)))
    return results


# -- Generic two-phase round machinery ---------------------------------------------


def _owner_round_task(ws: GraphWorkspace, state: GraphState, part: int,
                      cand_v: np.ndarray, cand_p: Optional[np.ndarray],
                      kind: str, arg: int):
    """Pinned owner task: drain inbox, update owned state, expand, route.

    One task per active owner per round — the owner-exclusive state update
    means no coherence races on vertex state; the expansion's adjacency
    reads are read-only and the routed visits are inbox-buffer writes
    whose cost depends on sender/receiver placement.
    """
    g = ws.graph
    # The whole round is one compiled program: the owner-exclusive state
    # update means the host-side numpy work commutes across owner tasks
    # (disjoint vertex ranges; coordinator barriers between rounds), so it
    # all runs at build time and the worker walks the rows in one go.
    program = OpProgram()
    inbox_base, inbox_count = ws.inbox_run(part, cand_v.size)
    program.run(ws.msg, inbox_base, inbox_count)
    uniq = sorted_unique(cand_v)
    # Deduped state write-back: each owned vertex's state is updated once
    # per round regardless of how many messages named it — the per-message
    # examination cost is the inbox drain above, not extra memory writes.
    # (Charging one write per message would add duplicate traffic that is
    # placement-insensitive and dilutes the placement signal.)
    program.batch(
        ws.vtx, ws.vtx_blocks_for(uniq), write=True,
        nbytes=VTX_ACCESS_BYTES, compute_ns_per_block=VTX_TOUCH_NS,
    )
    program.compute(cand_v.size * 1.2)
    if kind == "bfs":
        new = uniq[state.dist[uniq] == UNREACHED]
        state.dist[new] = arg  # arg = level
    elif kind == "sssp":
        before = state.dist[cand_v]
        np.minimum.at(state.dist, cand_v, cand_p)
        new = sorted_unique(cand_v[state.dist[cand_v] < before])
    elif kind == "cc":
        before = state.label[cand_v]
        np.minimum.at(state.label, cand_v, cand_p)
        new = sorted_unique(cand_v[state.label[cand_v] < before])
    elif kind == "cc-seed":
        new = uniq
    else:  # pragma: no cover - defensive
        raise ValueError(kind)
    if new.size == 0:
        program.yield_()
        yield program
        return None
    # Expand: scan adjacency of newly activated vertices, route visits.
    program.batch(ws.adj, ws.adj_blocks_for(new),
                  compute_ns_per_block=ws.scan_ns_per_block)
    idx, nbrs, counts = gather_neighbors(g, new)
    edges = int(counts.sum())
    state.edges_traversed += edges
    program.compute(edges * EDGE_COMPUTE_NS * (1.3 if kind == "sssp" else 1.0))
    if nbrs.size == 0:
        program.yield_()
        yield program
        return None
    nbrs64 = nbrs.astype(np.int64)
    if kind == "bfs":
        payload = None
    elif kind == "sssp":
        payload = np.repeat(state.dist[new], counts) + g.weights[idx]
    else:  # cc / cc-seed
        payload = np.repeat(state.label[new], counts)
    dest_counts = np.bincount(ws.owner_of(nbrs64), minlength=ws.n_parts)
    program.batch(ws.msg, ws.outbox_block_array(dest_counts), write=True)
    program.yield_()
    yield program
    return nbrs64, payload


def _frontier_loop(runtime: Runtime, ws: GraphWorkspace, state: GraphState,
                   seed_v: np.ndarray, seed_p: Optional[np.ndarray], kind: str,
                   seed_kind: Optional[str] = None):
    """Shared coordinator: per-owner rounds until the frontier drains."""
    inbox_v, inbox_p = ws.group_by_owner(seed_v, seed_p)
    level = 0
    first = True
    while any(v is not None for v in inbox_v):
        level += 1
        state.rounds += 1
        round_kind = seed_kind if (first and seed_kind) else kind
        first = False
        tasks = []
        for part in range(ws.n_parts):
            if inbox_v[part] is None:
                continue
            t = yield SpawnOp(
                _owner_round_task,
                (ws, state, part, inbox_v[part], inbox_p[part], round_kind, level),
                pin_worker=part, name=f"{kind}-p{part}",
            )
            tasks.append(t)
        produced = yield from _wait_tasks(runtime, tasks)
        out_v, out_p = [], []
        for item in produced:
            if item is not None:
                out_v.append(item[0])
                if item[1] is not None:
                    out_p.append(item[1])
        if out_v:
            all_v = np.concatenate(out_v)
            all_p = np.concatenate(out_p) if out_p else None
            inbox_v, inbox_p = ws.group_by_owner(all_v, all_p)
        else:
            inbox_v = [None] * ws.n_parts
            inbox_p = [None] * ws.n_parts


# -- BFS ---------------------------------------------------------------------------


def bfs_coordinator(runtime: Runtime, ws: GraphWorkspace, state: GraphState,
                    root: int, chunk_size: int = 0):
    """Level-synchronous owner-compute BFS from ``root``."""
    seed = np.array([root], dtype=np.int64)
    yield from _frontier_loop(runtime, ws, state, seed, None, "bfs")
    # The root entered via the seeding message, so every reached vertex is
    # one level high; shift down and pin the root at 0.
    state.dist[state.dist > 0] -= 1
    state.dist[root] = 0
    return state.dist


# -- SSSP --------------------------------------------------------------------------


def sssp_coordinator(runtime: Runtime, ws: GraphWorkspace, state: GraphState,
                     root: int, chunk_size: int = 0):
    """Owner-compute relaxation; converges to exact shortest paths."""
    state.dist[:] = INF
    seed_v = np.array([root], dtype=np.int64)
    seed_p = np.zeros(1, dtype=np.int64)
    yield from _frontier_loop(runtime, ws, state, seed_v, seed_p, "sssp")
    state.dist[state.dist == INF] = UNREACHED
    return state.dist


# -- Connected components ------------------------------------------------------------


def cc_coordinator(runtime: Runtime, ws: GraphWorkspace, state: GraphState,
                   chunk_size: int = 0):
    """Min-label propagation until fixpoint; labels equal component minima."""
    n = ws.graph.n
    state.label[:] = np.arange(n, dtype=np.int64)
    seed_v = np.arange(n, dtype=np.int64)
    seed_p = np.arange(n, dtype=np.int64)
    yield from _frontier_loop(runtime, ws, state, seed_v, seed_p, "cc", seed_kind="cc-seed")
    return state.label


# -- PageRank (owner-compute pull iteration) ------------------------------------------------


def _pr_owner_task(ws: GraphWorkspace, state: GraphState, part: int,
                   contrib: np.ndarray, new_rank: np.ndarray):
    """Compute this owner's vertex range from in-neighbour contributions."""
    g = ws.graph
    v0, v1 = ws.part_range(part)
    if v1 <= v0:
        return 0
    # One compiled program per owner per iteration: contributions are
    # coordinator-built read-only input and the rank writes are disjoint
    # owner slices, so the host-side reduction commutes across owners.
    program = OpProgram()
    adj_base, adj_count = ws.adj_run(v0, v1)
    program.run(ws.adj, adj_base, adj_count,
                compute_ns_per_block=ws.scan_ns_per_block)
    lo, hi = int(g.indptr[v0]), int(g.indptr[v1])
    srcs = g.indices[lo:hi].astype(np.int64)
    state.edges_traversed += hi - lo
    program.compute(float(hi - lo) * EDGE_COMPUTE_NS * 1.4)
    # Random reads of remote owners' rank blocks (invalidated every round
    # by their owners' writes — the cross-chiplet refetch traffic).
    # vtx_blocks_for dedupes via its block bitmap, so srcs goes in raw.
    program.batch(
        ws.vtx, ws.vtx_blocks_for(srcs),
        nbytes=VTX_ACCESS_BYTES, compute_ns_per_block=VTX_TOUCH_NS,
    )
    counts = np.diff(g.indptr[v0 : v1 + 1])
    row = np.repeat(np.arange(v1 - v0), counts)
    new_rank[v0:v1] = np.bincount(row, weights=contrib[srcs], minlength=v1 - v0)
    # Write back my rank range (owner-exclusive; invalidates readers).
    vtx_base, vtx_count = ws.vtx_run(v0, v1)
    program.run(ws.vtx, vtx_base, vtx_count,
                write=True, nbytes=VTX_ACCESS_BYTES)
    program.yield_()
    yield program
    return v1 - v0


def pagerank_coordinator(runtime: Runtime, ws: GraphWorkspace, state: GraphState,
                         chunk_size: int = 0, iterations: int = 10, damping: float = 0.85):
    """Power iteration matching :func:`pagerank_reference` bit-for-bit."""
    g = ws.graph
    n = g.n
    out_deg = np.diff(g.indptr).astype(np.float64)
    dangling = out_deg == 0
    state.rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        state.rounds += 1
        contrib = np.where(dangling, 0.0, state.rank / np.maximum(out_deg, 1.0))
        new_rank = np.zeros(n)
        tasks = []
        for part in range(ws.n_parts):
            v0, v1 = ws.part_range(part)
            if v1 <= v0:
                continue
            t = yield SpawnOp(_pr_owner_task, (ws, state, part, contrib, new_rank),
                              pin_worker=part, name=f"pr-p{part}")
            tasks.append(t)
        yield from _wait_tasks(runtime, tasks)
        dangling_mass = state.rank[dangling].sum() / n
        state.rank = (1.0 - damping) / n + damping * (new_rank + dangling_mass)
    return state.rank
