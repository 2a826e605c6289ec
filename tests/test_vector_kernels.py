"""Bit-identity of the vectorized access kernels vs the scalar path.

``Machine.access_batch``/``access_run`` route vectorizable segments
through :mod:`repro.hw.vector`; everything else falls back to the scalar
loop.  The contract is that both paths are **bit-identical**: virtual
times, fill counters, per-slice LRU contents *and order*, the sharing
directory, hit/miss/eviction statistics, and the bandwidth-server state
(free_at/busy_ns/wait_ns/requests) must match exactly.

The property tests here force the scalar path on a twin machine (by
raising ``VECTOR_MIN`` beyond any batch size) and compare full machine
state after pathological batch sequences: duplicates, capacity-overflow
runs, mixed hit/miss, cross-socket holders, writes with sharers, and
strided runs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from repro.hw.memory import MemPolicy, _Server
from repro.hw.vector import serve_constant, serve_groups
from tests.twins import assert_same_state, scalar_batch

MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
}


# -- Full-machine equivalence: vector path vs forced-scalar twin -------------

@st.composite
def batch_spec(draw, n_blocks):
    """One batch: pathological shapes with explicit generators."""
    shape = draw(st.sampled_from(
        ["run", "strided", "random", "duplicates", "overflow", "reversed"]
    ))
    if shape == "run":
        start = draw(st.integers(0, n_blocks - 1))
        count = draw(st.integers(0, n_blocks - start))
        blocks = list(range(start, start + count))
    elif shape == "strided":
        stride = draw(st.integers(2, 5))
        start = draw(st.integers(0, n_blocks - 1))
        blocks = list(range(start, n_blocks, stride))[: draw(st.integers(1, 60))]
    elif shape == "random":
        blocks = draw(st.lists(st.integers(0, n_blocks - 1), max_size=40))
    elif shape == "duplicates":
        base = draw(st.lists(st.integers(0, n_blocks - 1), min_size=1, max_size=20))
        blocks = base + base[: draw(st.integers(1, len(base)))]
    elif shape == "overflow":
        # Longer than any tiny slice: forces bulk evictions mid-run.
        blocks = list(range(min(n_blocks, draw(st.integers(20, 120)))))
    else:  # reversed: distinct but unsorted
        count = draw(st.integers(2, 40))
        blocks = list(range(min(count, n_blocks)))[::-1]
    write = draw(st.booleans())
    mlp = draw(st.sampled_from([1.0, 10.0]))
    per_issue = draw(st.sampled_from([0.0, 4.0]))
    nbytes = draw(st.sampled_from([None, 64]))
    return blocks, write, mlp, per_issue, nbytes


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_vector_path_bit_identical_to_scalar(mk, data):
    m_vec = mk()
    m_ref = mk()
    policy = data.draw(st.sampled_from(
        [MemPolicy.BIND, MemPolicy.INTERLEAVE, MemPolicy.REPLICATED]
    ))
    size = 200 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=policy, name="eq")
    r_ref = m_ref.alloc_region(size, node=0, policy=policy, name="eq")
    n_blocks = r_vec.n_blocks
    total_cores = m_vec.topo.total_cores

    now = 0.0
    for _ in range(data.draw(st.integers(1, 4))):
        # Varying the issuing core across iterations plants cross-socket
        # holders and mixed hit/miss residency for later batches.
        core = data.draw(st.integers(0, total_cores - 1))
        blocks, write, mlp, per_issue, nbytes = data.draw(batch_spec(n_blocks))
        as_array = data.draw(st.booleans())
        issued = np.asarray(blocks, dtype=np.int64) if as_array else blocks

        res_v = m_vec.access_batch(
            core, r_vec, issued, now=now, nbytes=nbytes, write=write,
            per_issue_ns=per_issue, mlp=mlp,
        )
        res_r = scalar_batch(
            m_ref, core, r_ref, blocks, now, nbytes=nbytes, write=write,
            per_issue_ns=per_issue, mlp=mlp,
        )
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        assert res_v.invalidations == res_r.invalidations
        now += res_v.ns

    assert_same_state(m_vec, m_ref)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_access_run_bit_identical_to_batch(mk, data):
    m_run = mk()
    m_ref = mk()
    policy = data.draw(st.sampled_from([MemPolicy.BIND, MemPolicy.INTERLEAVE]))
    size = 300 * m_run.block_bytes
    r_run = m_run.alloc_region(size, node=0, policy=policy, name="eq")
    r_ref = m_ref.alloc_region(size, node=0, policy=policy, name="eq")
    n_blocks = r_run.n_blocks

    now = 0.0
    for _ in range(data.draw(st.integers(1, 3))):
        core = data.draw(st.integers(0, m_run.topo.total_cores - 1))
        stride = data.draw(st.integers(1, 4))
        start = data.draw(st.integers(0, n_blocks - 1))
        count = data.draw(st.integers(0, (n_blocks - 1 - start) // stride + 1))
        write = data.draw(st.booleans())
        mlp = data.draw(st.sampled_from([1.0, 10.0]))

        res_v = m_run.access_run(
            core, r_run, start, count, now=now, stride=stride, write=write,
            per_issue_ns=4.0, mlp=mlp,
        )
        res_r = scalar_batch(
            m_ref, core, r_ref, range(start, start + count * stride, stride),
            now, write=write, per_issue_ns=4.0, mlp=mlp,
        )
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns

    assert_same_state(m_run, m_ref)


def test_access_run_validates_bounds(tiny):
    r = tiny.alloc_region(64 * tiny.block_bytes, node=0)
    with pytest.raises(ValueError, match="outside region"):
        tiny.access_run(0, r, r.n_blocks - 2, 5, now=0.0)
    with pytest.raises(ValueError, match="outside region"):
        tiny.access_run(0, r, -1, 2, now=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        tiny.access_run(0, r, 0, -1, now=0.0)
    with pytest.raises(ValueError, match="stride"):
        tiny.access_run(0, r, 0, 4, now=0.0, stride=0)


def test_access_run_empty_is_noop(tiny):
    r = tiny.alloc_region(1024, node=0)
    res = tiny.access_run(0, r, 0, 0, now=50.0)
    assert res.ns == 0.0 and res.finish == 50.0
    assert tiny.total_accesses == 0


# -- serve_constant vs sequential _Server.service ----------------------------

@settings(max_examples=60, deadline=None)
# One arrival on an idle server.
@example(gaps=[1.0], s=5.0, free0=0.0, t0=10.0)
# Arrivals spaced >= s apart on an idle server.
@example(gaps=[10.0] * 6, s=5.0, free0=0.0, t0=10.0)
# Twelve arrivals in four short busy periods, idle and busy carry-in.
@example(gaps=[1.0, 1.0, 20.0] * 4, s=5.0, free0=0.0, t0=0.0)
@example(gaps=[1.0, 1.0, 20.0] * 4, s=5.0, free0=12.0, t0=0.0)
@given(
    gaps=st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=40),
    s=st.floats(0.1, 30.0, allow_nan=False),
    free0=st.floats(0.0, 100.0, allow_nan=False),
    t0=st.floats(0.0, 100.0, allow_nan=False),
)
def test_serve_constant_replays_scalar_server(gaps, s, free0, t0):
    t = np.cumsum(np.concatenate(([t0], gaps)))[:-1] if len(gaps) > 1 else \
        np.array([t0])
    ref = _Server()
    vec = _Server()
    ref.free_at = vec.free_at = free0
    exp_d = np.empty(t.size)
    exp_w = np.empty(t.size)
    for i, ti in enumerate(t):
        exp_d[i], exp_w[i] = ref.service(float(ti), s)
    got_d, got_w = serve_constant(vec, t, s)
    assert np.array_equal(got_d, exp_d)
    assert np.array_equal(got_w, exp_w)
    assert vec.free_at == ref.free_at
    assert vec.busy_ns == ref.busy_ns
    assert vec.wait_ns == ref.wait_ns
    assert vec.requests == ref.requests


@st.composite
def server_groups(draw):
    """1-6 distinct servers, each with its own service time, carry-in
    state and arrival group: a singleton, arrivals spaced at least the
    service time apart, or (when ``dense`` is drawn) a dense group."""
    dense = draw(st.booleans())
    kinds = ["singleton", "spaced"] + (["dense"] if dense else [])
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.floats(0.1, 30.0))
        kind = draw(st.sampled_from(kinds))
        n = 1 if kind == "singleton" else draw(st.integers(2, 12))
        t = [draw(st.floats(0.0, 100.0))]
        for _ in range(n - 1):
            lo, hi = (0.0, s / 2) if kind == "dense" else (s, s + 20.0)
            t.append(t[-1] + draw(st.floats(lo, hi)))
        if draw(st.booleans()):
            free0 = t[0] + draw(st.floats(0.0, 100.0))  # busy carry-in
        else:
            free0 = draw(st.floats(0.0, t[0]))           # idle carry-in
        seeds = (free0, draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 1e4)),
                 draw(st.integers(0, 50)))
        groups.append((s, t, seeds))
    return groups


def _seeded_server(seeds):
    srv = _Server()
    srv.free_at, srv.busy_ns, srv.wait_ns, srv.requests = seeds
    return srv


@settings(max_examples=80, deadline=None)
@given(groups=server_groups())
def test_serve_groups_replays_scalar_servers(groups):
    """serve_groups == one sequential ``_Server.service`` chain per group:
    every delay and every server's free_at/busy_ns/wait_ns/requests."""
    refs = [_seeded_server(seeds) for _, _, seeds in groups]
    vecs = [_seeded_server(seeds) for _, _, seeds in groups]
    exp_d = [ref.service(ti, s)[0]
             for ref, (s, t, _) in zip(refs, groups) for ti in t]
    t_all = np.array([ti for _, t, _ in groups for ti in t])
    bounds = np.cumsum([0] + [len(t) for _, t, _ in groups])
    s_row = np.array([s for s, _, _ in groups])
    got_d = serve_groups(vecs, t_all, bounds, s_row)
    assert np.array_equal(got_d, np.array(exp_d))
    for ref, vec in zip(refs, vecs):
        assert (vec.free_at, vec.busy_ns, vec.wait_ns, vec.requests) == \
            (ref.free_at, ref.busy_ns, ref.wait_ns, ref.requests)


def test_serve_constant_empty():
    srv = _Server()
    d, w = serve_constant(srv, np.empty(0), 5.0)
    assert d.size == 0 and w.size == 0
    assert srv.requests == 0 and srv.free_at == 0.0


# -- fill_run vs sequential fill ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    capacity_blocks=st.integers(1, 12),
    pre=st.integers(0, 12),
    k=st.integers(1, 30),
    nbytes=st.integers(1, 200),
    peer_held=st.integers(0, 12),
    uniform=st.booleans(),
)
# A full uniform slice turned over exactly (every resident entry is a
# victim, so the slice is cleared in one go), with no victim shared and
# with one victim shared (its entry keeps the peer's bit).
@example(capacity_blocks=4, pre=4, k=4, nbytes=64, peer_held=0, uniform=True)
@example(capacity_blocks=4, pre=4, k=4, nbytes=64, peer_held=1, uniform=True)
def test_fill_run_equivalent_to_sequential_fill(capacity_blocks, pre, k,
                                                nbytes, peer_held, uniform):
    from repro.hw.cache import CacheSystem
    from repro.hw.topology import Topology

    topo = Topology(sockets=1, chiplets_per_socket=2, cores_per_chiplet=1,
                    name="t")
    cap = capacity_blocks * 64
    a = CacheSystem(topo, cap)
    b = CacheSystem(topo, cap)
    # Pre-populate with residents sized like the run (``uniform``) or
    # mixed-size, so eviction prefixes cross entry boundaries at odd byte
    # counts.  The first ``peer_held`` of them chiplet 1 holds too, so
    # their eviction keeps a directory entry alive.
    for cs in (a, b):
        for i in range(pre):
            cs.fill(0, 1000 + i, nbytes if uniform else 64 if i % 2 else 32)
            if i < peer_held:
                cs.fill(1, 1000 + i, 64)
    blocks = list(range(k))
    evictions_before = b.caches[0].evictions  # prefill may itself evict
    for blk in blocks:
        a.fill(0, blk, nbytes)
    evicted = b.fill_run(0, blocks, nbytes)
    ca, cb = a.caches[0], b.caches[0]
    assert list(ca._lru.items()) == list(cb._lru.items())
    assert ca.used_bytes == cb.used_bytes
    assert ca.evictions == cb.evictions
    assert evicted == cb.evictions - evictions_before
    assert {k2: frozenset(v) for k2, v in a.directory.items()} == \
        {k2: frozenset(v) for k2, v in b.directory.items()}
    assert b.check_directory_consistent()


def test_fill_run_rejects_nonpositive_bytes():
    from repro.hw.cache import CacheSystem
    from repro.hw.topology import Topology

    cs = CacheSystem(Topology(1, 1, 1, name="t"), 1024)
    with pytest.raises(ValueError, match="positive"):
        cs.fill_run(0, [0, 1], 0)
