"""Kronecker (R-MAT) graph generation, Graph500-style.

The paper's graph benchmarks use "a Kronecker graph model with 2^24
vertices and 16 x 2^24 edges" — the Graph500 generator.  This module
implements the same recursive-matrix edge generator (default Graph500
parameters A=0.57, B=0.19, C=0.19) with numpy, then builds undirected CSR
adjacency (and the in-edge CSR needed by PageRank's pull step, which for
a symmetrised graph equals the out-CSR).

Graphs are value objects: generation is deterministic in the seed, and
edge weights (for SSSP) are uniform integers in [1, 255] as in Graph500's
SSSP extension.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.sim.rng import stream_np_rng
from repro.workloads import sorted_unique


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph in CSR form.

    ``indptr``/``indices`` give each vertex's sorted neighbour list;
    ``weights`` aligns with ``indices``.  Degree-0 vertices are allowed
    (Kronecker graphs have many).
    """

    n: int
    indptr: np.ndarray   # int64, len n+1
    indices: np.ndarray  # int32, len m
    weights: np.ndarray  # int32, len m

    @property
    def m(self) -> int:
        """Directed edge count (2x the undirected edge count)."""
        return int(self.indices.shape[0])

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    @property
    def adjacency_bytes(self) -> int:
        """Footprint of the CSR arrays (4 B per index/weight + indptr)."""
        return 4 * self.m * 2 + 8 * (self.n + 1)

    def max_degree_vertex(self) -> int:
        degs = np.diff(self.indptr)
        return int(np.argmax(degs))


def _rmat_edges(scale: int, edgefactor: int, seed: int,
                a: float = 0.57, b: float = 0.19, c: float = 0.19) -> np.ndarray:
    """Generate R-MAT directed edges, shape (m, 2)."""
    n = 1 << scale
    m = edgefactor * n
    rng = stream_np_rng(seed, "rmat", scale, edgefactor)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    ab = a + b
    c_norm = c / (1.0 - ab)
    a_norm = a / ab
    for bit in range(scale):
        r1 = rng.random(m)
        r2 = rng.random(m)
        src_bit = r1 > ab
        dst_bit = (r2 > (c_norm * src_bit + a_norm * ~src_bit))
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    # Graph500 permutes vertex labels to break generator locality.
    perm = rng.permutation(n)
    return np.stack([perm[src], perm[dst]], axis=1)


def from_edge_list(n: int, edges: np.ndarray, seed: int = 1) -> Graph:
    """Build an undirected CSR graph from a directed edge array (m, 2).

    Symmetrises, removes self loops and parallel duplicates, sorts
    neighbour lists, and assigns deterministic weights in [1, 255]
    (a hash of the unordered endpoint pair; ``seed`` does not affect them).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        indptr = np.zeros(n + 1, dtype=np.int64)
        return Graph(n, indptr, np.empty(0, np.int32), np.empty(0, np.int32))
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError("edge endpoint out of range")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Dedupe parallel edges via the packed key; the sorted keys come out
    # grouped by source with each neighbour list sorted.
    key = sorted_unique(src * n + dst)
    src = key // n
    dst = (key % n).astype(np.int32)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Deterministic symmetric weights: hash of the unordered endpoint pair.
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    weights = ((lo * 2654435761 + hi * 40503) % 255 + 1).astype(np.int32)
    return Graph(n, indptr, dst.astype(np.int32), weights)


def kronecker(scale: int, edgefactor: int = 16, seed: int = 1) -> Graph:
    """Graph500 Kronecker graph: 2**scale vertices, ~edgefactor*2**scale edges."""
    if scale < 1 or scale > 26:
        raise ValueError("scale out of supported range (1..26)")
    if edgefactor < 1:
        raise ValueError("edgefactor must be positive")
    n = 1 << scale
    edges = _rmat_edges(scale, edgefactor, seed)
    return from_edge_list(n, edges, seed=seed)


def ring_of_cliques(n_cliques: int, clique_size: int) -> Graph:
    """Deterministic structured test graph: cliques joined in a ring."""
    edges: List[Tuple[int, int]] = []
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % n_cliques) * clique_size
        edges.append((base, nxt))
    n = n_cliques * clique_size
    return from_edge_list(n, np.array(edges, dtype=np.int64))
