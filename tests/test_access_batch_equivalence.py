"""Fast-path equivalence: ``Machine.access_batch`` vs per-access servicing.

The batched fast path must be a pure optimisation: for any sequence of
batches it has to produce bit-identical virtual times, fill-counter
totals, cache/directory state, and hit/miss statistics as the equivalent
sequence of :meth:`Machine.access` calls run through the original MLP
overlap rule (the pre-batching ``Worker._do_batch`` loop, reproduced here
as :func:`replay_per_access`).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.counters import N_SOURCES, SOURCE_INDEX
from repro.hw.machine import Machine, milan, sapphire_rapids, small_test_machine
from repro.hw.memory import MemPolicy
from tests.twins import assert_same_state


def replay_per_access(machine: Machine, core, region, blocks, now, nbytes,
                      write, per_issue, mlp):
    """The original per-access batch loop (pre-fast-path Worker._do_batch)."""
    t = now
    finish = now
    counts = [0] * N_SOURCES
    for block in blocks:
        res = machine.access(core, region, block, now=t, nbytes=nbytes, write=write)
        completion = t + res.ns
        if completion > finish:
            finish = completion
        step = res.latency_ns / mlp
        t += step if step > per_issue else per_issue
        counts[SOURCE_INDEX[res.source]] += 1
    end = t if t > finish else finish
    return end, finish, counts


MACHINES = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
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
    size = 50 * m_batch.block_bytes
    r_batch = m_batch.alloc_region(size, node=0, policy=policy, name="eq")
    r_seq = m_seq.alloc_region(size, node=0, policy=policy, name="eq")
    n_blocks = r_batch.n_blocks
    total_cores = m_batch.topo.total_cores

    now = 0.0
    for _ in range(data.draw(st.integers(1, 4))):
        core = data.draw(st.integers(0, total_cores - 1))
        blocks = data.draw(
            st.lists(st.integers(0, n_blocks - 1), min_size=0, max_size=40)
        )
        write = data.draw(st.booleans())
        nbytes = data.draw(st.sampled_from([None, 64]))
        mlp = data.draw(st.sampled_from([1.0, 10.0]))
        per_issue = data.draw(st.sampled_from([0.0, 4.0]))

        res = m_batch.access_batch(
            core, r_batch, blocks, now=now, nbytes=nbytes, write=write,
            per_issue_ns=per_issue, mlp=mlp,
        )
        end, finish, counts = replay_per_access(
            m_seq, core, r_seq, blocks, now, nbytes, write, per_issue, mlp
        )

        assert res.ns == end - now          # bit-identical virtual time
        assert res.finish == finish
        assert res.fill_counts == counts
        assert res.accesses == len(blocks)
        now = end

    # Machine state must be identical afterwards: the full fingerprint
    # (LRU contents and order, directory, slice stats, every server's
    # queue state, counters, fill-latency chains).
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
