"""L3 slice LRU and cross-chiplet directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cache import CacheSystem, ChipletCache
from repro.hw.topology import Topology


def test_lru_eviction_order():
    c = ChipletCache(0, capacity_bytes=3 * 64)
    for b in (1, 2, 3):
        assert c.insert(b, 64) == []
    assert c.insert(4, 64) == [1]  # 1 is least recently used
    assert 1 not in c and 2 in c


def test_touch_refreshes_lru():
    c = ChipletCache(0, capacity_bytes=2 * 64)
    c.insert(1, 64)
    c.insert(2, 64)
    assert c.touch(1)
    assert c.insert(3, 64) == [2]  # 2 became LRU after touching 1
    assert 1 in c


def test_byte_budget_multi_eviction():
    c = ChipletCache(0, capacity_bytes=1024)
    for b in range(4):
        c.insert(b, 256)
    assert len(c) == 4
    evicted = c.insert(99, 1024)
    assert sorted(evicted) == [0, 1, 2, 3]
    assert c.used_bytes == 1024


def test_oversized_block_clamped():
    c = ChipletCache(0, capacity_bytes=512)
    c.insert(1, 4096)  # clamped to capacity
    assert 1 in c
    assert c.used_bytes <= 512


def test_drop_is_not_eviction():
    c = ChipletCache(0, capacity_bytes=512)
    c.insert(1, 64)
    assert c.drop(1)
    assert not c.drop(1)
    assert c.evictions == 0
    assert c.used_bytes == 0


def test_hit_miss_counters():
    c = ChipletCache(0, capacity_bytes=512)
    assert not c.touch(1)
    c.insert(1, 64)
    assert c.touch(1)
    assert (c.hits, c.misses) == (1, 1)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ChipletCache(0, capacity_bytes=32)


_SIZES = (32, 64, 200)


@st.composite
def _ops(draw):
    return draw(st.lists(st.tuples(st.sampled_from(["insert", "touch", "drop"]),
                                   st.integers(0, 20), st.sampled_from(_SIZES)),
                         max_size=80))


@given(_ops())
@settings(max_examples=60, deadline=None)
def test_lru_matches_model(ops):
    """The cache agrees with a plain ``{block: nbytes}`` byte-budgeted LRU.

    Pins the byte-weighted eviction rule that ``fill_run`` and the vector
    kernels reproduce in bulk: an insert evicts from the LRU front until
    its bytes fit, and an int ``_uniform_nb`` means every resident entry
    is exactly that many bytes.
    """
    cap = 4 * 64
    c = ChipletCache(0, capacity_bytes=cap)
    model = {}
    evictions = 0
    for op, block, nbytes in ops:
        if op == "insert":
            if block in model:
                model[block] = model.pop(block)  # refresh; size unchanged
            else:
                while sum(model.values()) + nbytes > cap and model:
                    model.pop(next(iter(model)))
                    evictions += 1
                model[block] = nbytes
            c.insert(block, nbytes)
        elif op == "touch":
            hit = c.touch(block)
            assert hit == (block in model)
            if hit:
                model[block] = model.pop(block)
        else:
            c.drop(block)
            model.pop(block, None)
        assert list(c._lru.items()) == list(model.items())
        assert c.used_bytes == sum(model.values())
        assert c.evictions == evictions
        if c._uniform_nb is not None:
            assert all(v == c._uniform_nb for v in model.values())


def _system():
    return CacheSystem(Topology(2, 2, 2, name="t"), capacity_bytes_per_chiplet=4 * 64)


def test_directory_tracks_fills_and_invalidations():
    cs = _system()
    cs.fill(0, 100, 64)
    cs.fill(1, 100, 64)
    assert cs.directory[100] == {0, 1}
    assert cs.invalidate_others(0, 100) == 1
    assert cs.directory[100] == {0}
    assert cs.check_directory_consistent()


def test_find_holder_prefers_same_socket():
    cs = _system()
    cs.fill(3, 7, 64)  # socket 1
    cs.fill(1, 7, 64)  # socket 0
    assert cs.find_holder(0, 7) == 1  # chiplet 0 is socket 0
    assert cs.find_holder(2, 7) == 3  # chiplet 2 is socket 1


def test_find_holder_cross_socket_fallback():
    cs = _system()
    cs.fill(3, 7, 64)
    assert cs.find_holder(0, 7) == 3


def test_eviction_updates_directory():
    cs = _system()
    for b in range(5):  # capacity 4 blocks -> evicts block 0
        cs.fill(0, b, 64)
    assert 0 not in cs.directory
    assert cs.check_directory_consistent()


def test_drop_everywhere():
    cs = _system()
    cs.fill(0, 9, 64)
    cs.fill(2, 9, 64)
    assert cs.drop_everywhere(9) == 2
    assert 9 not in cs.directory
    assert cs.check_directory_consistent()
