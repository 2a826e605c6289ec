"""Fast-path equivalence: ``Machine.access_batch`` vs per-access servicing.

The batched fast path must be a pure optimisation: for any sequence of
batches it has to produce bit-identical virtual times, fill-counter
totals, invalidation counts, cache/directory state, and hit/miss
statistics as the equivalent sequence of :meth:`Machine.access` calls run
through the original MLP overlap rule (the pre-batching
``Worker._do_batch`` loop, :func:`tests.twins.replay_per_access`).

``Machine.access`` shares no code with the batch paths' inlined scalar
loop, so this suite is the independent reference for that loop too.  The
``dse_tiny128`` geometry (8-block slices, two sockets) makes batches
evict their own fills and peers' shared blocks, and fill across sockets;
a second region with double-size blocks, homed on the last NUMA node,
mixes entry sizes in one slice (multi-victim evictions, the
``_uniform_nb`` transitions) and adds remote-DRAM fills.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.counters import N_SOURCES
from repro.hw.machine import milan, sapphire_rapids, small_test_machine
from repro.hw.memory import MemPolicy
from tests.twins import assert_same_state, dse_tiny128, replay_per_access

MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
    "dse_tiny128": dse_tiny128,
}


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_access_batch_equivalent_to_access_sequence(mk, data):
    m_batch = mk()
    m_seq = mk()
    policy = data.draw(st.sampled_from([MemPolicy.BIND, MemPolicy.INTERLEAVE]))
    policy2 = data.draw(st.sampled_from([MemPolicy.BIND, MemPolicy.INTERLEAVE]))
    size = 50 * m_batch.block_bytes
    big = 2 * m_batch.block_bytes
    last_node = m_batch.topo.numa_nodes - 1
    regions = []
    for m in (m_batch, m_seq):
        regions.append((
            m.alloc_region(size, node=0, policy=policy, name="eq"),
            m.alloc_region(size, node=last_node, policy=policy2,
                           name="eq-big", block_bytes=big),
        ))
    total_cores = m_batch.topo.total_cores

    now = 0.0
    for _ in range(data.draw(st.integers(1, 6))):
        which = data.draw(st.integers(0, 1))
        r_batch, r_seq = regions[0][which], regions[1][which]
        core = data.draw(st.integers(0, total_cores - 1))
        blocks = data.draw(
            st.lists(st.integers(0, r_batch.n_blocks - 1), min_size=0,
                     max_size=40)
        )
        write = data.draw(st.booleans())
        nbytes = data.draw(st.sampled_from([None, 64]))
        mlp = data.draw(st.sampled_from([1.0, 10.0]))
        per_issue = data.draw(st.sampled_from([0.0, 4.0]))

        res = m_batch.access_batch(
            core, r_batch, blocks, now=now, nbytes=nbytes, write=write,
            per_issue_ns=per_issue, mlp=mlp,
        )
        end, finish, counts, inval = replay_per_access(
            m_seq, core, r_seq, blocks, now, nbytes, write, per_issue, mlp
        )

        assert res.ns == end - now          # bit-identical virtual time
        assert res.finish == finish
        assert res.fill_counts == counts
        assert res.invalidations == inval
        assert res.accesses == len(blocks)
        now = end

    # Machine state must be identical afterwards: the full fingerprint
    # (LRU contents and order, directory, slice stats, every server's
    # queue state, counters, fill-latency chains).
    assert_same_state(m_batch, m_seq)


@pytest.mark.parametrize("mk", [small_test_machine, dse_tiny128],
                         ids=["small_test_machine", "dse_tiny128"])
def test_access_batch_matches_access_on_shared_victims_and_mixed_sizes(mk):
    """A fixed sequence on 8-block slices, each step a case the hypothesis
    draws reach only by chance: same- and cross-socket peer fills, an
    overflowing batch whose victims peers still hold, double-size blocks
    from a remote home joining a slice of single-size ones (multi-victim
    evictions), and invalidating writes with repeats."""
    m_batch, m_seq = mk(), mk()
    big = 2 * m_batch.block_bytes
    last_node = m_batch.topo.numa_nodes - 1
    regions = [(m.alloc_region(64 * m.block_bytes, node=0, name="eq"),
                m.alloc_region(64 * big, node=last_node, name="eq-big",
                               block_bytes=big))
               for m in (m_batch, m_seq)]
    # One core per chiplet: chiplets 0 and 1 on socket 0, 2 and 3 on 1.
    a, b, c, d = (m_batch._chiplet_of_core.index(ch) for ch in range(4))
    rng = np.random.default_rng(17)
    warm = list(range(8))
    steps = [
        (a, 0, warm, False),
        (b, 0, warm, False),                       # same-socket peer fills
        (c, 0, warm[::-1], False),                 # cross-socket peer fills
        (a, 0, rng.permutation(np.arange(8, 48)), False),  # shared victims
        (a, 1, rng.integers(0, 24, size=48), True),  # mixed sizes, remote
        (d, 0, rng.permutation(warm * 5), True),   # invalidations, repeats
        (a, 0, list(range(40)), False),            # sorted, after churn
    ]
    now = 0.0
    for core, which, blocks, write in steps:
        blocks = np.asarray(blocks, dtype=np.int64).tolist()
        res = m_batch.access_batch(core, regions[0][which], blocks, now=now,
                                   write=write, mlp=4.0)
        end, finish, counts, inval = replay_per_access(
            m_seq, core, regions[1][which], blocks, now, None, write, 0.0,
            4.0)
        assert (res.ns, res.finish, res.fill_counts, res.invalidations) == (
            end - now, finish, counts, inval)
        now = end
    assert_same_state(m_batch, m_seq)


def test_access_batch_rejects_out_of_range_block(tiny):
    r = tiny.alloc_region(1024, node=0)
    with pytest.raises(ValueError, match="outside region"):
        tiny.access_batch(0, r, [0, r.n_blocks], now=0.0)


def test_access_batch_empty_is_noop(tiny):
    r = tiny.alloc_region(1024, node=0)
    res = tiny.access_batch(0, r, [], now=100.0)
    assert res.ns == 0.0
    assert res.finish == 100.0
    assert res.fill_counts == [0] * N_SOURCES
    assert tiny.total_accesses == 0
