"""Bit-identity of the hit path and of peer fills vs the scalar path.

This suite covers the hit class and the peer fills around it: the bulk
LRU touch (``CacheSystem.touch_run``), the segment classifier's hit /
miss / scalar labelling (a block only peers hold is scalar, so
peer-heavy batches pin the scalar span inside the segment route),
repeated resident ``access_run`` re-reads, and the per-source
fill-latency histogram.
The contract is unchanged: virtual times, LRU contents *and order*, the
sharing directory, hit/miss/eviction statistics, per-core fill
counters, and bandwidth server state must match a forced-scalar twin
exactly — bit for bit.

Scenario shapes are chosen to pin each class: hit-heavy (warm re-reads),
peer-heavy (another chiplet is the holder), and mixed batches with
duplicates (unsorted and duplicate-laden, so the scalar loop takes
them whole).  One known divergence of the segment route — a hit run
evicted by a short pending scalar span flushed ahead of it — is pinned
as strict xfails, in its ``access_batch`` and its ``access_run`` shape.  A long
scalar run (here: peer fills) is serviced when the route reaches it, so
its evictions do reach the guard; that shape is pinned as matching.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.hw.machine as machine_mod
from repro.hw.cache import CacheSystem
from repro.hw.counters import SOURCE_INDEX, FillSource
from repro.hw.memory import MemPolicy
from repro.hw.topology import Topology
from repro.obs.selfprof import KernelProfiler

from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from tests.twins import assert_same_state, replay_per_access, scalar_batch

MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
}


def _warm(machine, region, core, blocks, now=0.0):
    """Install ``blocks`` into ``core``'s slice via the scalar path."""
    return scalar_batch(machine, core, region, blocks, now).ns


def _core_on_other_chiplet(machine, core):
    """A core whose chiplet differs from ``core``'s (same or other socket)."""
    mine = machine._chiplet_of_core[core]
    for c, ch in enumerate(machine._chiplet_of_core):
        if ch != mine:
            return c
    pytest.skip("machine has a single chiplet")


# -- Hit-heavy: warm re-reads stay on the local-hit kernel -------------------

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hit_heavy_bit_identical(mk, data):
    m_vec, m_ref = mk(), mk()
    size = 120 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    n_blocks = r_vec.n_blocks
    core = data.draw(st.integers(0, m_vec.topo.total_cores - 1))

    warm = list(range(n_blocks))
    _warm(m_vec, r_vec, core, warm)
    _warm(m_ref, r_ref, core, warm)

    now = 1000.0
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, n_blocks - 1))
        count = data.draw(st.integers(1, n_blocks - start))
        mlp = data.draw(st.sampled_from([1.0, 10.0]))
        as_run = data.draw(st.booleans())
        if as_run:
            res_v = m_vec.access_run(core, r_vec, start, count, now=now,
                                     mlp=mlp)
        else:
            res_v = m_vec.access_batch(core, r_vec,
                                       list(range(start, start + count)),
                                       now=now, mlp=mlp)
        res_r = scalar_batch(m_ref, core, r_ref,
                             range(start, start + count), now, mlp=mlp)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_resident_reruns_take_hit_kernel_and_match_scalar(mk):
    """Repeated resident runs are serviced by the hit kernel, bit-equal
    to the scalar twin."""
    m_vec, m_ref = mk(), mk()
    prof = m_vec.profiler = KernelProfiler()
    # Half of one slice, so the whole region stays resident after pass 1
    # (on the small test machine that is below VECTOR_MIN — the hit
    # kernel then never fires and the scalar twin covers both sides).
    size = max(m_vec.caches.caches[0].capacity_bytes // 2, m_vec.block_bytes)
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    n = r_vec.n_blocks
    now = 0.0
    for _ in range(5):  # pass 1 fills; passes 2+ take the hit kernel
        res_v = m_vec.access_run(0, r_vec, 0, n, now=now, mlp=4.0)
        res_r = scalar_batch(m_ref, 0, r_ref, range(n), now, mlp=4.0)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)
    hist = m_vec.bandwidth_stats()["fill_latency"]["per_source"]
    local = hist[FillSource.LOCAL_CHIPLET.value]
    assert local["fills"] == 4 * n
    assert local["latency_ns"] > 0.0
    assert local["avg_ns"] == pytest.approx(m_vec.latency.l3_hit)
    if n >= machine_mod.VECTOR_MIN:
        assert prof.accesses["vec_hit"] == 4 * n


# -- Peer-heavy: another chiplet holds every block ---------------------------

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_peer_heavy_bit_identical(mk, data):
    m_vec, m_ref = mk(), mk()
    size = 120 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="pr")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="pr")
    n_blocks = r_vec.n_blocks
    holder_core = data.draw(st.integers(0, m_vec.topo.total_cores - 1))
    reader_core = _core_on_other_chiplet(m_vec, holder_core)

    warm = list(range(n_blocks))
    _warm(m_vec, r_vec, holder_core, warm)
    _warm(m_ref, r_ref, holder_core, warm)

    now = 1000.0
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, n_blocks - 1))
        count = data.draw(st.integers(1, n_blocks - start))
        mlp = data.draw(st.sampled_from([1.0, 10.0]))
        res_v = m_vec.access_batch(core=reader_core, region=r_vec,
                                   blocks=list(range(start, start + count)),
                                   now=now, mlp=mlp)
        res_r = scalar_batch(m_ref, reader_core, r_ref,
                             range(start, start + count), now, mlp=mlp)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


# -- Mixed batches with duplicates ------------------------------------------

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mixed_duplicate_batches_bit_identical(mk, data):
    """Hit/peer/miss interleavings with repeats stay exact."""
    m_vec, m_ref = mk(), mk()
    size = 150 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="mx")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="mx")
    n_blocks = r_vec.n_blocks
    core_a = data.draw(st.integers(0, m_vec.topo.total_cores - 1))
    core_b = _core_on_other_chiplet(m_vec, core_a)

    # Plant residency: core_a holds the low third, core_b the middle
    # third, the top third stays cold — so one batch can mix all classes.
    third = n_blocks // 3
    _warm(m_vec, r_vec, core_a, list(range(third)))
    _warm(m_ref, r_ref, core_a, list(range(third)))
    _warm(m_vec, r_vec, core_b, list(range(third, 2 * third)))
    _warm(m_ref, r_ref, core_b, list(range(third, 2 * third)))

    now = 1000.0
    for _ in range(data.draw(st.integers(1, 3))):
        base = data.draw(st.lists(st.integers(0, n_blocks - 1),
                                  min_size=1, max_size=80))
        dup_from = data.draw(st.integers(0, len(base) - 1))
        blocks = base + base[dup_from:]
        write = data.draw(st.booleans())
        res_v = m_vec.access_batch(core_a, r_vec, blocks, now=now,
                                   write=write, mlp=4.0)
        res_r = scalar_batch(m_ref, core_a, r_ref, blocks, now,
                             write=write, mlp=4.0)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        assert res_v.invalidations == res_r.invalidations
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


def test_all_duplicates_batch_bit_identical(tiny):
    """A pathological all-repeats batch (unsorted, so it takes the scalar
    loop whole) matches the forced-scalar twin and the per-access
    reference bit for bit."""
    ref = machine_mod.small_test_machine()
    acc = machine_mod.small_test_machine()
    r_vec = tiny.alloc_region(64 * tiny.block_bytes, node=0, name="dup")
    r_ref = ref.alloc_region(64 * ref.block_bytes, node=0, name="dup")
    r_acc = acc.alloc_region(64 * acc.block_bytes, node=0, name="dup")
    blocks = [5] * (4 * machine_mod.VECTOR_MIN)
    res_v = tiny.access_batch(0, r_vec, blocks, now=0.0)
    res_r = scalar_batch(ref, 0, r_ref, blocks, 0.0)
    assert res_v.ns == res_r.ns and res_v.finish == res_r.finish
    assert res_v.fill_counts == res_r.fill_counts
    end, finish, counts, _ = replay_per_access(acc, 0, r_acc, blocks, 0.0,
                                               None, False, 0.0, 1.0)
    assert (res_v.ns, res_v.finish, res_v.fill_counts) == (end, finish, counts)
    assert_same_state(tiny, ref)
    assert_same_state(tiny, acc)


# -- Stale hit run: the eviction guard fires too early ----------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "_service_segment checks cache.evictions != ev0 for a hit run before it "
    "flushes the pending _scalar_span; that span's fills evict the hit "
    "run's blocks, and local_hit_segment then charges the evicted blocks "
    "as hits because touch_run falls back to a touch loop that only "
    "counts misses"))
def test_hit_run_evicted_by_pending_scalar_span():
    """A short miss prefix evicts the long hit run classified after it.

    Core 0's slice (256 blocks on ``milan(scale=32)``) is full, with 32
    BIND blocks at its LRU front.  One sorted read batch touches 20
    never-touched blocks, then those 32: the scalar loop's 20 fills evict
    the front, so every block misses (0 hits, 52 fills).  The segment
    route classifies the 32 as a hit run before servicing the prefix and
    reports 32 local hits and 20 fills.
    """
    m_vec, m_ref = milan(scale=32), milan(scale=32)
    slots = m_vec.caches.caches[0].capacity_bytes // m_vec.block_bytes
    assert slots == 256
    fresh, front = 20, 32
    size = (fresh + slots) * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="st")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="st")
    hot = list(range(fresh, fresh + front))
    filler = list(range(fresh + front, fresh + slots))
    for m, r in ((m_vec, r_vec), (m_ref, r_ref)):
        _warm(m, r, 0, hot)
        _warm(m, r, 0, filler, now=1e6)
    batch = list(range(fresh)) + hot
    res_v = m_vec.access_batch(0, r_vec, batch, now=2e6)
    res_r = scalar_batch(m_ref, 0, r_ref, batch, 2e6)
    assert res_r.fill_counts[SOURCE_INDEX[FillSource.LOCAL_CHIPLET]] == 0
    assert res_v.fill_counts == res_r.fill_counts
    assert res_v.ns == res_r.ns and res_v.finish == res_r.finish
    assert_same_state(m_vec, m_ref)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the same stale hit through access_run: the miss of block 0 is a "
    "1-block scalar span still pending when the hit-run eviction guard "
    "runs, so the run 1..32 it evicts is charged as local hits"))
def test_access_run_hit_run_evicted_by_pending_scalar_span():
    """The ``access_run`` shape of the stale hit, from a plain re-read.

    Core 0's slice holds 210 blocks on ``sapphire_rapids(scale=32)``.
    Reading blocks 0..210 leaves 1..210 resident with block 1 at the LRU
    front.  Re-reading 0..32 as a run misses block 0, whose fill evicts
    block 1, and so on down the run: the scalar loop reports 33 fills.
    The segment route reports 32 local hits and 1 fill.
    """
    m_vec, m_ref = sapphire_rapids(scale=32), sapphire_rapids(scale=32)
    slots = m_vec.caches.caches[0].capacity_bytes // m_vec.block_bytes
    assert slots == 210
    size = 2 * (slots + 1) * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="st")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="st")
    for m, r in ((m_vec, r_vec), (m_ref, r_ref)):
        _warm(m, r, 0, range(slots + 1))
    res_v = m_vec.access_run(0, r_vec, 0, 33, now=1e6)
    res_r = scalar_batch(m_ref, 0, r_ref, range(33), 1e6)
    assert res_r.fill_counts[SOURCE_INDEX[FillSource.LOCAL_CHIPLET]] == 0
    assert res_v.fill_counts == res_r.fill_counts
    assert res_v.ns == res_r.ns and res_v.finish == res_r.finish
    assert_same_state(m_vec, m_ref)


def test_long_peer_run_evicts_before_hit_run_guard():
    """A long peer run is serviced before the next hit run's guard reads.

    Core 0's slice (256 blocks on ``milan(scale=32)``) is full, with 32
    blocks at its LRU front; another chiplet holds 40 lower blocks.  One
    sorted read batch touches those 40, then the 32: the 40 peer fills
    evict the front, so the scalar loop reports 40 peer fills, 32 DRAM
    fills and no hits.  The 40-block scalar run is serviced when it is
    reached, so the eviction guard sees its evictions and demotes the
    hit run.
    """
    m_vec, m_ref = milan(scale=32), milan(scale=32)
    slots = m_vec.caches.caches[0].capacity_bytes // m_vec.block_bytes
    assert slots == 256
    peer, front = 40, 32
    size = (peer + slots) * m_vec.block_bytes
    other = _core_on_other_chiplet(m_vec, 0)
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="pp")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="pp")
    for m, r in ((m_vec, r_vec), (m_ref, r_ref)):
        _warm(m, r, other, range(peer))
        _warm(m, r, 0, range(peer, peer + front), now=1e6)
        _warm(m, r, 0, range(peer + front, peer + slots), now=2e6)
    batch = list(range(peer + front))
    res_v = m_vec.access_batch(0, r_vec, batch, now=3e6)
    res_r = scalar_batch(m_ref, 0, r_ref, batch, 3e6)
    assert res_r.fill_counts[SOURCE_INDEX[FillSource.LOCAL_CHIPLET]] == 0
    assert res_v.fill_counts == res_r.fill_counts
    assert res_v.ns == res_r.ns and res_v.finish == res_r.finish
    assert_same_state(m_vec, m_ref)


# -- touch_run vs scalar touch loop ------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    resident=st.lists(st.integers(0, 30), unique=True, max_size=16),
    touches=st.lists(st.integers(0, 30), min_size=1, max_size=40),
)
def test_touch_run_matches_scalar_touch_loop(resident, touches):
    """Recency order and counters match a per-block touch loop exactly.

    Covers arbitrary interleavings with duplicates, the steady-state
    no-op fast path (when ``touches`` equals the recency tail), and the
    non-resident fallback (which must count misses like the loop).
    """
    topo = Topology(sockets=1, chiplets_per_socket=1, cores_per_chiplet=1,
                    name="t")
    a = CacheSystem(topo, 64 * 64)
    b = CacheSystem(topo, 64 * 64)
    for blk in resident:
        a.fill(0, blk, 64)
        b.fill(0, blk, 64)

    for blk in touches:
        a.caches[0].touch(blk)
    b.touch_run(0, touches)

    ca, cb = a.caches[0], b.caches[0]
    assert list(ca._lru.items()) == list(cb._lru.items())
    assert (ca.hits, ca.misses) == (cb.hits, cb.misses)


def test_touch_run_noop_tail_is_exact():
    """The tail-compare fast path changes nothing but the hit counter."""
    topo = Topology(1, 1, 1, name="t")
    cs = CacheSystem(topo, 64 * 64)
    blocks = list(range(8))
    for blk in blocks:
        cs.fill(0, blk, 64)
    before = list(cs.caches[0]._lru.items())
    cs.touch_run(0, blocks)  # recency tail == blocks: order no-op
    assert list(cs.caches[0]._lru.items()) == before
    assert cs.caches[0].hits == len(blocks)


# -- Fill-latency histogram ---------------------------------------------------

def test_fill_latency_histogram_tracks_sources(tiny):
    """Per-source fills and latency sums line up with the fill counters."""
    # Exactly one slice's worth of blocks, so pass 2 is all local hits.
    r = tiny.alloc_region(tiny.caches.caches[0].capacity_bytes, node=0,
                          name="h")
    n = r.n_blocks
    tiny.access_batch(0, r, list(range(n)), now=0.0)       # DRAM fills
    tiny.access_batch(0, r, list(range(n)), now=1e6)       # local hits
    other = _core_on_other_chiplet(tiny, 0)
    tiny.access_batch(other, r, list(range(n)), now=2e6)   # peer fills
    hist = tiny.bandwidth_stats()["fill_latency"]["per_source"]
    fills = tiny.counters.totals()
    for src, idx in SOURCE_INDEX.items():
        h = hist[src.value]
        assert h["fills"] == fills[idx], src
        if fills[idx]:
            assert h["latency_ns"] > 0.0
            assert h["avg_ns"] == pytest.approx(h["latency_ns"] / fills[idx])
        else:
            assert h["latency_ns"] == 0.0
    assert hist[FillSource.LOCAL_CHIPLET.value]["fills"] >= n


def test_fill_latency_histogram_bit_identical(tiny):
    """The histogram is part of ``bandwidth_stats`` — covered by the
    state comparison, asserted here directly for clarity."""
    ref = machine_mod.small_test_machine()
    r_vec = tiny.alloc_region(64 * tiny.block_bytes, node=0, name="h")
    r_ref = ref.alloc_region(64 * ref.block_bytes, node=0, name="h")
    n = r_vec.n_blocks
    now = 0.0
    for _ in range(3):
        res_v = tiny.access_batch(0, r_vec, list(range(n)), now=now)
        scalar_batch(ref, 0, r_ref, list(range(n)), now)
        now += res_v.ns
    assert tiny.bandwidth_stats()["fill_latency"] == \
        ref.bandwidth_stats()["fill_latency"]
