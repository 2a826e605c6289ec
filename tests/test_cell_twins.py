"""Whole-cell bit-identity: vector kernels on vs the forced-scalar twin.

The kernel suites pin each access path on synthetic batches; this one
pins them on real experiment cells.  A cell's result digest with the
vector kernels enabled must equal its digest with every batch forced
through the scalar loop (:func:`tests.twins.forced_scalar`).  One quick
cell per workload family must match.

Four fig07/fig08 BFS cells diverge today, pinned as strict xfails: a
sorted batch's short miss prefix, serviced as a pending scalar span,
evicts the hit run classified after it, and the segment route still
charges that run as local hits (see MODELING.md, "Hit-path and
peer-fill kernels", and ``test_hit_run_evicted_by_pending_scalar_span``).
"""

import hashlib
import json

import pytest

from repro.bench import experiments  # noqa: F401  (registers the cells)
from repro.bench.cells import REGISTRY, execute_cell
from tests.twins import forced_scalar

BFS = "c8/algo=bfs,edgefactor=16,graph_scale=14,graph_seed=2,pagerank_iterations=3/s7"

MATCHING = {
    "graph": f"fig07_amd_scalability/milan/ring/{BFS}",
    "gups": "fig07_amd_scalability/milan/charm/c8/"
            "algo=gups,table_bytes=16777216,updates_per_worker=1024/s7",
    "streamcluster": "tab2_streamcluster_accesses/milan/shoal/c8/"
                     "batch_points=16384,n_centers=12,n_points=32768/s7",
    "sgd": "fig11_sgd/milan/charm/c64/"
           "ds_seed=11,epochs=1,kernel=loss,n_features=1024,n_samples=4096/s7",
    "olap": "fig13_tpch/milan/charm/c8/query=q6,sf=4.0,tpch_seed=42/s7",
    "oltp": "fig14_oltp/milan/distributed/c8/n_records=20000,"
            "table_bytes=8388608,txns_per_worker=60,workload=ycsb/s7",
}

STALE_HIT = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "stale hit run: the eviction guard in _service_segment runs before the "
    "pending scalar span whose fills evict the run's blocks"))

DIVERGENT = {
    "fig07-charm-bfs": f"fig07_amd_scalability/milan/charm/{BFS}",
    "fig08-ring-bfs": f"fig08_intel_scalability/sapphire_rapids/ring/{BFS}",
    "fig08-asymsched-bfs":
        f"fig08_intel_scalability/sapphire_rapids/asymsched/{BFS}",
    "fig08-sam-bfs": f"fig08_intel_scalability/sapphire_rapids/sam/{BFS}",
}


def _cell(cell_id):
    experiment = cell_id.split("/", 1)[0]
    for cell in REGISTRY[experiment].cells(True):
        if cell.cell_id == cell_id:
            return cell
    raise LookupError(f"no quick cell {cell_id!r}")


def _digest(result):
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(
    "cell_id",
    [*MATCHING.values(),
     *(pytest.param(c, marks=STALE_HIT) for c in DIVERGENT.values())],
    ids=[*MATCHING, *DIVERGENT],
)
def test_cell_matches_forced_scalar(cell_id):
    cell = _cell(cell_id)
    vec = _digest(execute_cell(cell))
    with forced_scalar():
        ref = _digest(execute_cell(cell))
    assert vec == ref, f"{cell_id}: vector digest differs from forced scalar"
