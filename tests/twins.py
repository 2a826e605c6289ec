"""Reference-twin helpers shared by the access-path equivalence suites.

Every fast path of the machine (the local-hit kernel, compiled op
programs) is pinned against a twin that services the same accesses the
slow way; the two machines must then agree on :meth:`Machine.state_fingerprint` — LRU
order, directory, slice counters, every server's queue state, per-core
counters, fill-latency chains — bit for bit.
"""

from contextlib import contextmanager

import repro.hw.machine as machine_mod
from repro.bench.dse import DSE_MACHINE_SCALE
from repro.hw.counters import N_SOURCES, SOURCE_INDEX
from repro.hw.machine import MachineGeometry
from repro.runtime.program import OpProgram


def dse_tiny128():
    """A DSE geometry at the sweep's scale: 2 sockets x 2 chiplets, each
    slice 4 MiB / 128 = 8 blocks of 4 KiB, so batches overflow it."""
    return MachineGeometry(
        chiplets_per_socket=2, cores_per_chiplet=2, l3_mib_per_chiplet=4,
        mem_channels_per_socket=4).build(scale=DSE_MACHINE_SCALE)


@contextmanager
def forced_scalar():
    """Disable the local-hit kernel: every batch takes the scalar loop."""
    saved = machine_mod.VECTOR_MIN
    machine_mod.VECTOR_MIN = 1 << 60
    try:
        yield
    finally:
        machine_mod.VECTOR_MIN = saved


def scalar_batch(machine, core, region, blocks, now, **kw):
    """Service a batch with the local-hit kernel disabled (reference path)."""
    with forced_scalar():
        return machine.access_batch(core, region, list(blocks), now, **kw)


def replay_per_access(machine, core, region, blocks, now, nbytes, write,
                      per_issue, mlp):
    """The original per-access batch loop (pre-fast-path Worker._do_batch).

    Services every block through :meth:`Machine.access` — no batch path
    at all — with the MLP overlap rule, and returns ``(end, finish,
    counts, invalidations)`` in the shape of a ``BatchResult``.
    """
    t = now
    finish = now
    counts = [0] * N_SOURCES
    inval = 0
    for block in blocks:
        res = machine.access(core, region, block, now=t, nbytes=nbytes, write=write)
        completion = t + res.ns
        if completion > finish:
            finish = completion
        step = res.latency_ns / mlp
        t += step if step > per_issue else per_issue
        counts[SOURCE_INDEX[res.source]] += 1
        inval += res.invalidations
    end = t if t > finish else finish
    return end, finish, counts, inval


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
