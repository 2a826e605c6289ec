"""Reference-twin helpers shared by the access-path equivalence suites.

Every fast path of the machine (vector kernels, compiled op programs) is
pinned against a twin that services the same accesses the slow way; the
two machines must then agree on :meth:`Machine.state_fingerprint` — LRU
order, directory, slice counters, every server's queue state, per-core
counters, fill-latency chains — bit for bit.
"""

from contextlib import contextmanager

import repro.hw.machine as machine_mod
from repro.runtime.program import OpProgram


@contextmanager
def forced_scalar():
    """Disable the vector kernels: every batch takes the scalar loop."""
    saved = machine_mod.VECTOR_MIN
    machine_mod.VECTOR_MIN = 1 << 60
    try:
        yield
    finally:
        machine_mod.VECTOR_MIN = saved


def scalar_batch(machine, core, region, blocks, now, **kw):
    """Service a batch with the vector kernels disabled (reference path)."""
    with forced_scalar():
        return machine.access_batch(core, region, list(blocks), now, **kw)


def assert_same_state(m_fast, m_ref):
    """Fingerprints equal component by component; directory consistent."""
    fast, ref = m_fast.state_fingerprint(), m_ref.state_fingerprint()
    for key in fast:
        assert fast[key] == ref[key], f"machine state mismatch in {key}"
    assert m_fast.caches.check_directory_consistent()


def batched_task(region, batches, write, nbytes):
    """One compiled program: each batch of ``batches`` then a yield."""
    program = OpProgram()
    for blocks in batches:
        program.batch(region, blocks, write=write, nbytes=nbytes)
        program.yield_()
    yield program
    return len(batches)


def run_task(region, runs, write, nbytes):
    """One compiled program: each ``(start, count)`` run then a yield."""
    program = OpProgram()
    for start, count in runs:
        program.run(region, start, count, write=write, nbytes=nbytes)
        program.yield_()
    yield program
    return len(runs)
