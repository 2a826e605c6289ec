"""Bit-identity of the gather/scatter kernel vs the scalar path.

PR 3/4 proved the sorted-unique miss, hit, and peer-fill kernels
bit-identical; this suite covers the gather kernel that services
*unsorted, duplicate-laden* batches directly: the inverse-permutation
scatter of per-class delays, the duplicate-replay clock math (repeats
resolve against the first touch's fill), the composite-key bank
grouping, the single ``serve_groups`` call across channel/peer/xlink
server classes, and the bulk LRU/directory writeback underneath.

The contract is the one every kernel in :mod:`repro.hw.vector` obeys:
virtual times, LRU contents *and order*, the sharing directory,
hit/miss/eviction statistics, per-core fill counters, and bandwidth
server state must match a forced-scalar twin exactly — bit for bit —
and every run must leave the directory structurally consistent
(:meth:`CacheSystem.check_directory_consistent`).

Scenario shapes pin the gather-specific classes: raw gups-style streams
(unsorted, occasional repeats), duplicate-heavy batches drawn from a
tiny block pool, reverse-sorted batches, and mixed read/write sequences
interleaved across cores so directory state carries between batches.

The *overflow* regime — batches whose fills evict their own blocks, the
shape every DSE GUPS batch takes on 8–64-block slices — fails the
certificate, so the gather kernel declines it untouched and the batch
takes the scalar loop.  The tiny-slice machines (the 8-block test machine
and a DSE geometry built at scale 128) put every random batch there;
dedicated cases pin re-misses after self-eviction (to the peer holder on
reads, to DRAM after a write's first-touch invalidation).  Because the
forced-scalar twin *is* that loop, those cases also compare against
:func:`tests.twins.replay_per_access`, which services every block through
:meth:`Machine.access` and shares no code with it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.dse import DSE_MACHINE_SCALE
from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from repro.hw.counters import SOURCE_INDEX, FillSource
from repro.hw.memory import MemPolicy
from repro.obs.selfprof import KernelProfiler
from tests.twins import (
    assert_same_state,
    dse_tiny128,
    replay_per_access,
    scalar_batch,
)

MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
    "dse_tiny128": dse_tiny128,
}
TINY = {k: MACHINES[k] for k in ("small_test_machine", "dse_tiny128")}


def _pair(mk, policy=MemPolicy.INTERLEAVE, blocks=96):
    m_vec, m_ref = mk(), mk()
    size = blocks * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=policy, name="geq")
    r_ref = m_ref.alloc_region(size, node=0, policy=policy, name="geq")
    return m_vec, r_vec, m_ref, r_ref


def _drive(m_vec, r_vec, m_ref, r_ref, batches):
    """Run (core, blocks, write) batches through both twins, clock-chained."""
    now = 0.0
    for core, blocks, write in batches:
        res_v = m_vec.access_batch(core, r_vec, np.asarray(blocks, dtype=np.int64),
                                   now=now, write=write)
        res_s = scalar_batch(m_ref, core, r_ref, blocks, now, write=write)
        assert res_v.ns == res_s.ns, "virtual time diverged"
        assert res_v.finish == res_s.finish
        assert res_v.fill_counts == res_s.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


# --- hypothesis: arbitrary unsorted duplicate-laden read/write sequences ---

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_gather_matches_scalar_on_irregular_batches(mk, data):
    policy = data.draw(st.sampled_from([MemPolicy.BIND, MemPolicy.INTERLEAVE]))
    m_vec, r_vec, m_ref, r_ref = _pair(mk, policy)
    n_blocks = r_vec.n_blocks
    total_cores = m_vec.topo.total_cores
    # A tiny pool forces heavy duplication; the full range forces misses.
    hi = data.draw(st.sampled_from([7, n_blocks - 1]))
    batches = []
    for _ in range(data.draw(st.integers(1, 4))):
        core = data.draw(st.integers(0, total_cores - 1))
        blocks = data.draw(st.lists(st.integers(0, hi),
                                    min_size=32, max_size=96))
        write = data.draw(st.booleans())
        batches.append((core, blocks, write))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)


# --- deterministic shapes that pin specific gather classes ---

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_matches_scalar_on_raw_gups_stream(mk):
    """The exact emission shape of the gups workload: raw update order."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=256)
    rng = np.random.default_rng(7)
    batches = []
    for i in range(4):
        idx = rng.integers(0, r_vec.n_blocks, size=256, dtype=np.int64)
        batches.append((i % m_vec.topo.total_cores, idx, True))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_matches_scalar_on_duplicate_heavy_writes(mk):
    """~50% repeats per batch: the duplicate-replay clock path."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=256)
    rng = np.random.default_rng(11)
    batches = []
    for i in range(4):
        pool = rng.integers(0, r_vec.n_blocks, size=64, dtype=np.int64)
        idx = pool[rng.integers(0, pool.size, size=128)]
        batches.append((i % m_vec.topo.total_cores, idx, bool(i % 2)))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_matches_scalar_on_reverse_sorted_batch(mk):
    """Strictly descending blocks: maximal unsortedness, zero repeats."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=96)
    blocks = np.arange(r_vec.n_blocks - 1, -1, -1, dtype=np.int64)
    _drive(m_vec, r_vec, m_ref, r_ref,
           [(0, blocks, False), (0, blocks, True)])


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_peer_fills_after_cross_core_warm(mk):
    """Unsorted re-reads from another chiplet: gathered peer fills."""
    m_vec = mk()
    if m_vec.topo.total_chiplets < 2:
        pytest.skip("machine has a single chiplet")
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=64)
    warm = list(range(r_vec.n_blocks))
    other = next(c for c, ch in enumerate(m_vec._chiplet_of_core)
                 if ch != m_vec._chiplet_of_core[0])
    rng = np.random.default_rng(3)
    reread = rng.permutation(np.arange(r_vec.n_blocks, dtype=np.int64))
    _drive(m_vec, r_vec, m_ref, r_ref,
           [(0, warm, False), (other, reread, False)])


# --- overflow regime: fills evict the batch's own blocks -------------------

def _slice_blocks(m):
    return m.caches.caches[0].capacity_bytes // m.block_bytes


def _cores_on_distinct_chiplets(m, k):
    cores, seen = [], set()
    for core, ch in enumerate(m._chiplet_of_core):
        if ch not in seen:
            seen.add(ch)
            cores.append(core)
    return cores[:k]


def _overflow_drive(mk, policy, warm, batches, blocks):
    """Warm three twins, then drive ``batches`` through each: the batch
    path (profiled), the forced-scalar twin and the per-access reference
    (:func:`replay_per_access`).  All three agree bit for bit, and every
    access of the overflowing batches takes the scalar loop."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, policy, blocks=blocks)
    m_acc = mk()
    r_acc = m_acc.alloc_region(blocks * m_acc.block_bytes, node=0,
                               policy=policy, name="geq")
    now = 0.0
    for core, blks in warm:
        scalar_batch(m_vec, core, r_vec, blks, now)
        replay_per_access(m_acc, core, r_acc, blks, now, None, False, 0.0, 1.0)
        now += scalar_batch(m_ref, core, r_ref, blks, now).ns
    prof = KernelProfiler()
    m_vec.profiler = prof
    results = []
    for core, blks, write in batches:
        res_v = m_vec.access_batch(core, r_vec,
                                   np.asarray(blks, dtype=np.int64),
                                   now=now, write=write, mlp=4.0)
        res_s = scalar_batch(m_ref, core, r_ref, blks, now, write=write,
                             mlp=4.0)
        got = (res_v.ns, res_v.finish, res_v.fill_counts, res_v.invalidations)
        assert got == (res_s.ns, res_s.finish, res_s.fill_counts,
                       res_s.invalidations)
        end, finish, counts, inval = replay_per_access(
            m_acc, core, r_acc, np.asarray(blks).tolist(), now, None, write,
            0.0, 4.0)
        assert got == (end - now, finish, counts, inval)
        now += res_v.ns
        results.append(res_v)
    assert_same_state(m_vec, m_ref)
    assert_same_state(m_vec, m_acc)
    assert prof.accesses["scalar"] == sum(len(b) for _, b, _ in batches)
    return m_vec, r_vec, results


@pytest.mark.parametrize("policy", [MemPolicy.BIND, MemPolicy.INTERLEAVE])
@pytest.mark.parametrize("mk", TINY.values(), ids=TINY.keys())
def test_overflow_read_remisses_to_peer_after_self_eviction(mk, policy):
    """A read batch evicts its own early blocks and re-reads them: each
    re-miss fills from the peer that still holds the block."""
    m = mk()
    c = _slice_blocks(m)
    holder, reader = _cores_on_distinct_chiplets(m, 2)
    rng = np.random.default_rng(5)
    first = rng.permutation(c)
    stream = rng.permutation(np.arange(c, 5 * c))
    batch = np.concatenate([first, stream, first[::-1]])
    _, _, (res,) = _overflow_drive(mk, policy, [(holder, list(range(c)))],
                                   [(reader, batch, False)], blocks=6 * c)
    # First touches and re-reads of ``first`` both fill from the holder.
    fills = res.fill_counts
    assert (fills[SOURCE_INDEX[FillSource.REMOTE_CHIPLET]]
            + fills[SOURCE_INDEX[FillSource.REMOTE_NUMA_CHIPLET]]) == 2 * c


@pytest.mark.parametrize("policy", [MemPolicy.BIND, MemPolicy.INTERLEAVE])
@pytest.mark.parametrize("mk", TINY.values(), ids=TINY.keys())
def test_overflow_write_invalidates_then_remisses_to_dram(mk, policy):
    """Write first touches invalidate both sharers; after self-eviction the
    same blocks re-miss with no sharer left, i.e. to DRAM."""
    m = mk()
    c = _slice_blocks(m)
    a, b, writer = _cores_on_distinct_chiplets(m, 3)
    shared = list(range(c // 2))
    rng = np.random.default_rng(9)
    batch = np.concatenate([rng.permutation(shared),
                            rng.permutation(np.arange(c, 5 * c)),
                            rng.permutation(shared)])
    m_vec, r_vec, (res,) = _overflow_drive(
        mk, policy, [(a, shared), (b, shared)], [(writer, batch, True)],
        blocks=6 * c)
    k = len(shared)
    assert res.invalidations == 2 * k
    fills = res.fill_counts
    assert (fills[SOURCE_INDEX[FillSource.REMOTE_CHIPLET]]
            + fills[SOURCE_INDEX[FillSource.REMOTE_NUMA_CHIPLET]]) == k
    assert (fills[SOURCE_INDEX[FillSource.DRAM_LOCAL]]
            + fills[SOURCE_INDEX[FillSource.DRAM_REMOTE]]) == 4 * c + k
    directory = m_vec.caches.directory
    mine = {m_vec._chiplet_of_core[writer]}
    assert all(directory[r_vec.block_key(blk)] == mine for blk in shared)


@pytest.mark.parametrize("policy", [MemPolicy.BIND, MemPolicy.INTERLEAVE])
@pytest.mark.parametrize("mk", TINY.values(), ids=TINY.keys())
def test_overflow_duplicate_heavy_batches_across_cores(mk, policy):
    """Repeat-heavy read/write batches from every chiplet in turn, each
    overflowing its slice, with directory state carried between them."""
    m = mk()
    c = _slice_blocks(m)
    cores = _cores_on_distinct_chiplets(m, 4)
    rng = np.random.default_rng(13)
    pool = rng.permutation(6 * c)[: 3 * c]
    batches = [(cores[i % len(cores)],
                pool[rng.integers(0, pool.size, size=max(8 * c, 64))],
                bool(i % 2))
               for i in range(8)]
    _overflow_drive(mk, policy, [], batches, blocks=6 * c)


def test_dse_gups_cell_overflow_batches_take_the_scalar_loop():
    """A DSE GUPS cell: its update batches overflow the 64-block slice,
    fail the certificate and take the scalar loop; every update is
    serviced by exactly one of the gather kernel and the scalar loop."""
    from repro.bench.dse import _geometry_of, dse_cells
    from repro.bench.experiments import _strategy_for
    from repro.workloads.gups import run_gups

    cell = next(c for c in dse_cells(6) if c.params["workload"] == "gups")
    p = cell.params
    m = _geometry_of(cell).build(scale=DSE_MACHINE_SCALE)
    prof = KernelProfiler()
    m.profiler = prof
    run_gups(m, _strategy_for(cell.strategy, m), cell.cores,
             p["table_bytes"], updates_per_worker=p["updates_per_worker"],
             seed=cell.seed)
    assert prof.accesses["scalar"] > 0
    assert (prof.accesses["vec_gather"] + prof.accesses["vec_dup_replay"]
            + prof.accesses["scalar"]
            == cell.cores * p["updates_per_worker"])


# --- memory-footprint smoke: mask directory vs a {block: set} directory ---

def test_cache_state_within_set_directory_layout_at_perf_sizes():
    """The plain-dict cache state must stay within a set directory's footprint.

    Fills a ``milan(scale=32)`` machine's slices well past capacity with
    gups-style random writes (the perf-suite shape), then compares the
    resident bytes of the ``{block: nbytes}`` slices and the
    ``{block: holder mask}`` directory against the modelled
    ``{block: set}`` directory layout for the same contents.
    """
    m = milan(scale=32)
    agg_l3 = m.l3_bytes_per_chiplet * m.topo.total_chiplets
    region = m.alloc_region(4 * agg_l3, node=0,
                            policy=MemPolicy.INTERLEAVE, name="smoke")
    rng = np.random.default_rng(7)
    now = 0.0
    for core in range(0, m.topo.total_cores, 4):
        idx = rng.integers(0, region.n_blocks, size=2048, dtype=np.int64)
        now += m.access_batch(core, region, idx, now=now, write=True).ns
    caches = m.caches
    assert caches.check_directory_consistent()
    state, set_layout = caches.state_nbytes(), caches.dict_layout_nbytes()
    assert state <= set_layout, (
        f"cache state ({state:,} B) exceeds the modelled set-directory "
        f"layout ({set_layout:,} B)")
