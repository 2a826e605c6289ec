"""Workloads from the paper's evaluation (section 5.1).

Every workload is expressed as CHARM tasks (generators yielding runtime
ops) so it can run unmodified under CHARM and under every baseline
strategy:

- :mod:`repro.workloads.vector_write` — the Fig. 5 microbenchmark
  (segmented multi-threaded vector write);
- :mod:`repro.workloads.gups` — RandomAccess (GUPS);
- :mod:`repro.workloads.graph` — Kronecker generator + BFS / PageRank /
  Connected Components / SSSP / Graph500;
- :mod:`repro.workloads.sgd` — DimmWitted-style SGD for logistic
  regression (loss + gradient kernels, four scheduling strategies);
- :mod:`repro.workloads.olap` — mini column-store with the TPC-H-shaped
  22-query suite;
- :mod:`repro.workloads.oltp` — ERMIA-style MVCC engine with YCSB and
  TPC-C drivers;
- :mod:`repro.workloads.streamcluster` — PARSEC streamcluster k-median.
"""

import numpy as np


def sorted_unique(a) -> np.ndarray:
    """Sorted distinct values of ``a`` (flattened): ``np.unique`` by one sort.

    A plain ``np.unique`` runs through a hash table and then sorts its
    result, which on integer keys costs several times one ``np.sort``.
    Sorting once and keeping the first element of each run of equal
    values gives the same values in the same dtype.
    """
    s = np.sort(a, axis=None)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]
