"""Regions, NUMA policies, and queueing servers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.memory import (
    ChannelBank,
    CrossSocketLinks,
    LinkBank,
    MemPolicy,
    RegionTable,
)


def _table():
    return RegionTable(numa_nodes=2, default_block_bytes=4096)


def test_region_block_math():
    r = _table().alloc(10_000, node=0)
    assert r.n_blocks == 3
    assert r.block_of_offset(0) == 0
    assert r.block_of_offset(4096) == 1
    assert r.block_of_offset(9999) == 2
    with pytest.raises(ValueError):
        r.block_of_offset(10_000)


def test_block_keys_unique_across_regions():
    t = _table()
    a = t.alloc(1 << 20)
    b = t.alloc(1 << 20)
    keys_a = {a.block_key(i) for i in range(a.n_blocks)}
    keys_b = {b.block_key(i) for i in range(b.n_blocks)}
    assert not keys_a & keys_b


@given(st.integers(1, 1 << 30), st.integers(64, 1 << 16))
@settings(max_examples=50, deadline=None)
def test_region_covers_all_bytes(size, block):
    t = RegionTable(2, block)
    r = t.alloc(size)
    assert r.n_blocks * r.block_bytes >= size
    assert (r.n_blocks - 1) * r.block_bytes < size
    assert r.block_of_offset(size - 1) == r.n_blocks - 1


def test_policies_node_of_block():
    t = _table()
    bind = t.alloc(1 << 20, node=1, policy=MemPolicy.BIND)
    inter = t.alloc(1 << 20, policy=MemPolicy.INTERLEAVE)
    repl = t.alloc(1 << 20, policy=MemPolicy.REPLICATED)
    assert all(bind.node_of_block(i) == 1 for i in range(4))
    assert [inter.node_of_block(i) for i in range(4)] == [0, 1, 0, 1]
    assert repl.node_of_block(3, requester_node=1) == 1
    assert repl.node_of_block(3, requester_node=0) == 0


def test_alloc_accounting():
    t = _table()
    t.alloc(1000, node=1, policy=MemPolicy.BIND)
    assert t.allocated_bytes_per_node[1] == 1000
    t.alloc(1000, policy=MemPolicy.REPLICATED)
    assert t.allocated_bytes_per_node == [1000, 2000]


def test_invalid_alloc():
    t = _table()
    with pytest.raises(ValueError):
        t.alloc(-1)
    with pytest.raises(ValueError):
        t.alloc(10, node=5)


def test_channel_queueing():
    bank = ChannelBank(sockets=1, channels_per_socket=1, bytes_per_ns_per_channel=1.0)
    d1, w1 = bank.service(0, block_key=0, nbytes=100, now=0.0)
    assert (d1, w1) == (100.0, 0.0)
    d2, w2 = bank.service(0, block_key=0, nbytes=100, now=0.0)
    assert (d2, w2) == (200.0, 100.0)  # queued behind the first
    d3, w3 = bank.service(0, block_key=0, nbytes=100, now=500.0)
    assert (d3, w3) == (100.0, 0.0)  # idle again


def test_channel_interleave_parallelism():
    bank = ChannelBank(1, channels_per_socket=2, bytes_per_ns_per_channel=1.0)
    d1, _ = bank.service(0, block_key=0, nbytes=100, now=0.0)
    d2, _ = bank.service(0, block_key=1, nbytes=100, now=0.0)
    assert d1 == d2 == 100.0  # different channels, no queueing


def test_link_bank_busy_accounting():
    links = LinkBank(chiplets=2, bytes_per_ns_per_link=2.0)
    links.service(0, 100, now=0.0)
    assert links.busy_ns(0) == 50.0
    assert links.busy_ns(1) == 0.0
    assert links.requests(0) == 1


def test_cross_socket_links():
    x = CrossSocketLinks(sockets=2, bytes_per_ns_per_link=1.0)
    assert x.service(0, 0, 100, now=0.0) == (0.0, 0.0)  # same socket free
    d, w = x.service(0, 1, 100, now=0.0)
    assert (d, w) == (100.0, 0.0)
    d, w = x.service(1, 0, 100, now=0.0)  # same unordered pair queues
    assert (d, w) == (200.0, 100.0)


def test_free_returns_bytes_to_node_accounting():
    """Regression: free must undo alloc's per-node accounting (was a leak)."""
    t = _table()
    r_bind = t.alloc(10_000, node=1, policy=MemPolicy.BIND)
    r_il = t.alloc(8_000, policy=MemPolicy.INTERLEAVE)
    r_rep = t.alloc(6_000, policy=MemPolicy.REPLICATED)
    assert t.allocated_bytes_per_node == [4_000 + 6_000, 10_000 + 4_000 + 6_000]
    t.free(r_bind)
    assert t.allocated_bytes_per_node == [4_000 + 6_000, 4_000 + 6_000]
    t.free(r_il)
    assert t.allocated_bytes_per_node == [6_000, 6_000]
    t.free(r_rep)
    assert t.allocated_bytes_per_node == [0, 0]


def test_free_is_idempotent():
    t = _table()
    r = t.alloc(10_000, node=0)
    t.free(r)
    t.free(r)  # double-free must not decrement twice
    assert t.allocated_bytes_per_node == [0, 0]


def test_node_of_block_replicated_without_requester_falls_back_to_home():
    t = _table()
    r = t.alloc(10_000, node=1, policy=MemPolicy.REPLICATED)
    assert r.node_of_block(0, requester_node=0) == 0
    assert r.node_of_block(0, requester_node=None) == 1  # home node fallback
    assert r.node_of_block(0) == 1


@settings(max_examples=50, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.floats(0.0, 1000.0, allow_nan=False),
                  st.floats(0.0, 100.0, allow_nan=False)),
        min_size=1, max_size=50,
    )
)
def test_server_queue_recurrence_properties(arrivals):
    """The recurrence the scalar span inlines: ``free = max(free, t) + s``.

    free_at is monotone non-decreasing, busy_ns is the exact (ordered) sum
    of service times, waits are non-negative, and total delay = wait + s.
    """
    from repro.hw.memory import _Server

    srv = _Server()
    busy_ref = 0.0
    prev_free = srv.free_at
    for now, s in arrivals:
        d, w = srv.service(now, s)
        busy_ref += s
        assert srv.free_at >= prev_free        # monotone
        assert w >= 0.0
        assert d == pytest.approx(w + s)       # delay decomposition
        assert srv.free_at == pytest.approx(now + d)  # finish consistency
        prev_free = srv.free_at
    assert srv.busy_ns == busy_ref             # ordered float sum, bit-equal
    assert srv.requests == len(arrivals)
    stats = srv.stats()
    assert stats["busy_ns"] == busy_ref
    assert stats["requests"] == len(arrivals)
