"""Bit-identity of the batch access paths vs the forced-scalar twin.

``Machine.access_batch``/``access_run`` route the long local-hit runs of
sorted batches through the local-hit kernel and every other block
through the scalar loop.  The contract is that both paths are
**bit-identical**: virtual times, fill counters, per-slice LRU contents
*and order*, the sharing directory, hit/miss/eviction statistics, and the
bandwidth-server state (free_at/busy_ns/wait_ns/requests) must match
exactly.

The property tests here force the scalar path on a twin machine (by
raising ``VECTOR_MIN`` beyond any batch size) and compare full machine
state after pathological batch sequences: duplicates, capacity-overflow
runs, mixed hit/miss, cross-socket holders, writes with sharers, and
strided runs.  ``access_run`` is also pinned against the equivalent
list batch, and its bounds checks and empty runs are covered.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from repro.hw.memory import MemPolicy
from tests.twins import assert_same_state, scalar_batch

MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
}


# -- Full-machine equivalence: batch path vs forced-scalar twin --------------

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
