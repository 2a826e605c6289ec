"""Exact kernel-path pins: which access path services each block.

Every shape below drives a full :class:`~repro.runtime.runtime.Runtime`
(``milan(scale=32)``, 16 workers, ``CharmStrategy``, seed 7; PageRank on
``milan(scale=8)``, whose two packed chiplets hold the whole graph)
through one distinct access shape of ``Machine.access_batch`` /
``access_run``, with a :class:`~repro.obs.selfprof.KernelProfiler`
attached.  The test pins the exact ``calls`` and ``accesses`` of every
machine access path (not the runtime's ``program`` and
``orchestration`` buckets), the machine's ``total_accesses``, the
virtual ``sim_wall_ns`` and the fill counts.  The counts are
host-independent, so unlike a wall-clock floor they never flake: a
local-hit run that silently falls back moves blocks to the ``scalar``
path, and a routing change moves ``scalar`` calls; either fails here by
name.

Each shape then runs again without the profiler and must reproduce the
virtual results bit for bit (determinism, and proof that the profiler
only reads ``perf_counter``).

A pinned count changes only with the routing or the kernels.  Such a
change re-records the pin (``measure(SHAPES[name])`` returns the new
values) in the same commit and says why in CHANGES.md.
"""

import numpy as np
import pytest

from repro.hw.machine import milan
from repro.obs.selfprof import PATHS, KernelProfiler
from repro.runtime.policy import CharmStrategy
from repro.runtime.runtime import Runtime
from repro.sim.rng import derive_seed
from repro.workloads.graph.generator import kronecker
from repro.workloads.graph.tasks import GraphState, GraphWorkspace, pagerank_coordinator
from tests.twins import batched_task, run_task

SEED = 7
N_WORKERS = 16
BATCH = 256
UPDATES = 4096  # per worker, for the gups and stream shapes


def _runtime(scale=32):
    machine = milan(scale=scale)
    return Runtime(machine, N_WORKERS, CharmStrategy(), seed=SEED)


def _spawn_batches(rt, region, per_worker, write, nbytes):
    for wid, batches in enumerate(per_worker):
        rt.spawn(batched_task, region, batches, write, nbytes,
                 pin_worker=wid, name=f"kp-{wid}")


def _gups_region(rt):
    m = rt.machine
    return rt.alloc_shared(4 * m.l3_bytes_per_chiplet * m.topo.total_chiplets,
                           name="kp-gups")


def _gups_batches(region, wid, sort):
    rng = np.random.default_rng(derive_seed(SEED, "perf-gups", wid))
    idx = rng.integers(0, region.n_blocks, size=UPDATES, dtype=np.int64)
    chunks = [idx[s:s + BATCH] for s in range(0, UPDATES, BATCH)]
    return [np.unique(c) for c in chunks] if sort else chunks


def shape_gups(sort=False):
    """Random 64 B writes to a table 4x the aggregate L3, as raw int64
    batches (unsorted, occasional repeats: the real gups emission)."""
    rt = _runtime()
    region = _gups_region(rt)
    per_worker = [_gups_batches(region, wid, sort) for wid in range(N_WORKERS)]
    _spawn_batches(rt, region, per_worker, True, 64)
    return rt


def shape_gups_sorted():
    """The same update streams as sorted-unique batches."""
    return shape_gups(sort=True)


def shape_gups_dup():
    """Each batch drawn with replacement from a half-batch pool."""
    rt = _runtime()
    region = _gups_region(rt)
    pool_size = BATCH // 2
    per_worker = []
    for wid in range(N_WORKERS):
        rng = np.random.default_rng(derive_seed(SEED, "perf-gups-dup", wid))
        batches = []
        for _ in range(0, UPDATES, BATCH):
            pool = rng.integers(0, region.n_blocks, size=pool_size, dtype=np.int64)
            batches.append(pool[rng.integers(0, pool_size, size=BATCH)])
        per_worker.append(batches)
    _spawn_batches(rt, region, per_worker, True, 64)
    return rt


def shape_stream(batch=BATCH, n_batches=UPDATES // BATCH):
    """Disjoint sequential read streams as list batches."""
    rt = _runtime()
    per = batch * n_batches
    region = rt.alloc_shared(N_WORKERS * per * rt.machine.block_bytes,
                             name="kp-stream")
    per_worker = [[list(range(wid * per + s, wid * per + s + batch))
                   for s in range(0, per, batch)] for wid in range(N_WORKERS)]
    _spawn_batches(rt, region, per_worker, False, None)
    return rt


def shape_stream_run():
    """The same streams as run-compressed ``AccessRun`` ops."""
    rt = _runtime()
    region = rt.alloc_shared(N_WORKERS * UPDATES * rt.machine.block_bytes,
                             name="kp-stream")
    for wid in range(N_WORKERS):
        runs = [(wid * UPDATES + s, BATCH) for s in range(0, UPDATES, BATCH)]
        rt.spawn(run_task, region, runs, False, None,
                 pin_worker=wid, name=f"kp-{wid}")
    return rt


def _half_slice_region(rt):
    return rt.alloc_shared(rt.machine.l3_bytes_per_chiplet // 2,
                           read_only=True, name="kp-shared")


def shape_shared_read(rounds=4):
    """Every worker re-reads one L3-resident region in list batches."""
    rt = _runtime()
    region = _half_slice_region(rt)
    seq = list(range(region.n_blocks))
    batches = [seq[s:s + BATCH] for s in range(0, len(seq), BATCH)]
    _spawn_batches(rt, region, [batches * rounds] * N_WORKERS, False, None)
    return rt


def shape_shared_read_hot(rounds=8):
    """Whole-region runs re-read while the region stays resident."""
    rt = _runtime()
    region = _half_slice_region(rt)
    runs = [(0, region.n_blocks)] * rounds
    for wid in range(N_WORKERS):
        rt.spawn(run_task, region, runs, False, None,
                 pin_worker=wid, name=f"kp-{wid}")
    return rt


def shape_pagerank_micro(iterations=2):
    """PageRank via the real graph tasks on a cache-resident graph."""
    rt = _runtime(scale=8)
    ws = GraphWorkspace(rt, kronecker(14, edgefactor=16, seed=SEED))
    rt.spawn(pagerank_coordinator, rt, ws, GraphState(), 0, iterations,
             name="pagerank")
    return rt


#: shape -> ({path: (calls, accesses)} for every nonzero path,
#: total_accesses, sim_wall_ns, fills as
#: (local_chiplet, remote_chiplet, remote_numa_chiplet, main_memory)).
PINS = {
    "gups": ({"scalar": (256, 65_536)},
             65_536, 84517.41276788736, (949, 4_137, 0, 60_450)),
    "gups_sorted": ({"scalar": (640, 65_077)},
                    65_077, 85346.9861596301, (662, 3_895, 0, 60_520)),
    "gups_dup": ({"scalar": (256, 65_536)},
                 65_536, 54767.61382963355, (37_659, 1_283, 0, 26_594)),
    "stream": ({"scalar": (256, 65_536)},
               65_536, 1328295.1276595725, (0, 0, 0, 65_536)),
    "stream_run": ({"scalar": (256, 65_536)},
                   65_536, 1328295.1276595725, (0, 0, 0, 65_536)),
    "shared_read": ({"scalar": (5, 640), "vec_hit": (59, 7_552)},
                    8_192, 75279.28085106355, (7_552, 512, 0, 128)),
    "shared_read_hot": ({"scalar": (5, 640), "vec_hit": (123, 15_744)},
                        16_384, 77607.28085106355, (15_744, 512, 0, 128)),
    "pagerank_micro": ({"scalar": (82, 4_719), "vec_hit": (33, 4_151)},
                       8_870, 75059.83221908308, (4_995, 479, 0, 3_396)),
}

SHAPES = {
    "gups": shape_gups,
    "gups_sorted": shape_gups_sorted,
    "gups_dup": shape_gups_dup,
    "stream": shape_stream,
    "stream_run": shape_stream_run,
    "shared_read": shape_shared_read,
    "shared_read_hot": shape_shared_read_hot,
    "pagerank_micro": shape_pagerank_micro,
}


def _virtual(rt, report):
    fills = tuple(report.counters.as_row().values())
    return report.wall_ns, rt.machine.total_accesses, fills


def measure(build):
    """Run ``build()`` with a profiler attached; return paths and results."""
    rt = build()
    prof = KernelProfiler()
    rt.machine.profiler = prof
    report = rt.run()
    paths = {p: (prof.calls[p], prof.accesses[p]) for p in PATHS
             if p not in ("program", "orchestration") and prof.calls[p]}
    return paths, _virtual(rt, report)


@pytest.mark.parametrize("name", SHAPES)
def test_kernel_paths_pinned(name):
    paths, (wall_ns, accesses, fills) = measure(SHAPES[name])
    pin_paths, pin_accesses, pin_wall_ns, pin_fills = PINS[name]
    assert paths == pin_paths
    assert accesses == pin_accesses
    assert sum(n for _, n in paths.values()) == accesses
    assert wall_ns == pin_wall_ns
    assert fills == pin_fills

    bare = SHAPES[name]()
    assert _virtual(bare, bare.run()) == (wall_ns, accesses, fills)
