"""Vectorized access kernels: batch servicing in O(channels + links) array ops.

Miss-heavy batches — the DRAM-bound streams behind the paper's Fig. 5/7
bandwidth-saturation results — used to crawl through a per-block Python
loop.  This module services an entire *vectorizable segment* of a batch
with numpy array operations instead:

- arrival times are one exact cumulative sum (issue steps depend only on
  pure latency, never on queue backpressure, so they are known up front);
- each memory channel / fabric link / cross-socket link replays its
  max-plus queue recurrence ``free = max(free, t_i) + s`` over the batch's
  arrivals grouped by server (:func:`serve_constant`);
- LRU insert/evict and directory updates are bulk operations
  (:meth:`repro.hw.cache.CacheSystem.fill_run`).

Everything here is **bit-identical** to the scalar path.  Floating-point
addition is not associative, so the kernels never substitute closed-form
products for the scalar path's sequential accumulation: every float chain
the scalar loop builds one ``+=`` at a time is rebuilt here with a seeded
``np.cumsum`` (numpy accumulates left-to-right in IEEE double, exactly
like the interpreter), and every comparison runs on those exact values.
The equivalence contract is enforced by the property suites in
``tests/test_vector_kernels.py``, ``tests/test_access_batch_equivalence.py``
and ``tests/test_gather_equivalence.py``.

Irregular batches — unsorted, duplicate-laden, write batches with sharers
— are serviced whole by the gather kernel (:func:`gather_segment`): one
argsort groups the repeats, a directory lookup per unique block
classifies them, and every access gets a service class from one of two
classifiers — a unique-level certificate when the batch fits the
requester's slice, an exact per-access LRU replay when its fills evict
its own blocks — before one shared service tail
(:func:`_service_accesses`) times the whole batch.  It declines, untouched,
only for non-uniformly sized slices and for sorted-distinct batches that
overflow the slice (those stream faster through the segment kernels).

Sorted batches (duplicate-free by construction) are classified whole,
per *run* of equal service class, by ``Machine._service_segment`` (see
MODELING.md for the full table); an unsorted batch the gather kernel
declines takes the scalar loop:

- **miss** runs — blocks resident in no L3 slice — go to
  :func:`dram_fill_segment` (pure DRAM fills; writes service like reads
  because there are no sharers to invalidate), which times every run
  but a BIND arithmetic one through the same shared tail;
- **hit** runs — blocks resident in the requester's own slice — go to
  :func:`local_hit_segment` (one bulk LRU touch, no servers);
- everything else (peer fills, REPLICATED regions, writes that
  invalidate sharers, short runs) falls back to the scalar loop.

The hot shape — a BIND-region arithmetic run (sequential or strided
scan) — instead takes a *joint* channel path (:func:`_bind_arith_segment`):
when no channel queues anywhere in the run (or every channel is
backlogged throughout), every channel's chain collapses into a handful
of whole-run array ops plus O(channels) scalar accounting.
"""

from bisect import bisect_left, insort
from collections import deque
from itertools import islice, repeat
from math import gcd
from typing import List, Optional, Tuple

import numpy as np

from repro.hw.counters import (
    IDX_DRAM_LOCAL,
    IDX_DRAM_REMOTE,
    IDX_LOCAL_CHIPLET,
    IDX_REMOTE_CHIPLET,
    IDX_REMOTE_NUMA_CHIPLET,
)
from repro.hw.memory import MemPolicy

# Fill-source counter index per service-class code (0 resident hit,
# 1/2 local/remote DRAM, 3/4 same/cross-socket peer).
_LUT_SRC = np.array(
    (IDX_LOCAL_CHIPLET, IDX_DRAM_LOCAL, IDX_DRAM_REMOTE,
     IDX_REMOTE_CHIPLET, IDX_REMOTE_NUMA_CHIPLET),
    dtype=np.int8,
)

# Above this many repeats, replaying a constant ``+= s`` chain with a
# seeded cumsum beats the interpreter loop; below it, the numpy call
# overhead dominates.
_CHAIN_LOOP_MAX = 48

# The breadth-first period replay chains *all* busy periods at once with
# one vector add per queue position, so its cost is ~6 numpy ops per
# *longest* period instead of per period.  Past this depth a single
# dense period is cheaper through the per-period cumsum.
_SERVE_VEC_MAX_DEPTH = 32


def _chain(x0: float, m: int, s: float) -> float:
    """Endpoint of ``m`` sequential ``x0 += s`` updates, bit-exactly.

    Floating-point addition is not associative, so ``x0 + m * s`` would
    diverge from the scalar loop; a seeded ``np.cumsum`` accumulates
    left-to-right in IEEE double exactly like the interpreter.
    """
    if m <= _CHAIN_LOOP_MAX:
        for _ in range(m):
            x0 += s
        return x0
    acc = np.empty(m + 1)
    acc[0] = x0
    acc[1:] = s
    return float(acc.cumsum()[-1])


def _accumulate_busy(server, m: int, s: float) -> None:
    """Replay ``m`` sequential ``busy_ns += s`` updates, bit-exactly."""
    server.busy_ns = _chain(server.busy_ns, m, s)


def _per_row(mat, first: int, m: int, rem: int) -> list:
    """Per-channel chain endpoints from a seeded cumsum matrix.

    Row ``r`` of ``mat`` holds channel ``r``'s chain; channels ``r < rem``
    absorbed ``m`` arrivals (endpoint at column ``m``), the rest ``m - 1``.
    Two slices + ``tolist`` replace ``first`` scalar ``float(mat[r, k])``
    extractions.
    """
    out = mat[:rem, m].tolist()
    if rem < first:
        out += mat[rem:first, m - 1].tolist()
    return out


_ARANGE = np.arange(4096)
_EMPTY = np.empty(0, dtype=np.int64)


def _arange(k: int) -> np.ndarray:
    """Memoized ``np.arange(k)`` (read-only use only)."""
    global _ARANGE
    if k > _ARANGE.shape[0]:
        _ARANGE = np.arange(2 * k)
    return _ARANGE[:k]


def serve_groups(servers: list, t: np.ndarray, bounds: np.ndarray,
                 s_row: np.ndarray) -> np.ndarray:
    """Serve several independent servers' arrival groups in one matrix pass.

    ``t[bounds[g]:bounds[g+1]]`` holds group ``g``'s nondecreasing arrival
    times for ``servers[g]`` with constant service time ``s_row[g]`` —
    different rows may carry different service times, so DRAM channels,
    peer fabric links and cross-socket links all batch into *one* call.
    Equivalent to one :func:`serve_constant` call per group —
    bit-identically, including all server-state updates — but the cost
    is one set of numpy ops over a ``groups x longest-group`` matrix
    instead of ~a dozen ops *per group*.  The servers must be pairwise
    distinct (each row's state evolves independently).

    The matrix path requires a row to be head-drain shaped (arrivals
    spaced at least ``s_row[g]`` apart, so any queue backlog carried in
    from earlier batches only shrinks): the row chain is then a seeded
    row cumsum up to the drain point and plain ``t + s`` after it.
    Internally dense rows are served by :func:`serve_constant`
    individually; the returned delay vector always covers every group.
    """
    ng = len(servers)
    length = np.diff(bounds)
    max_l = int(length.max())
    col = _arange(max_l)
    valid = col < length[:, None]
    tm = np.full((ng, max_l), np.inf)
    tm[valid] = t
    sg = s_row[:, None]
    if max_l > 1:
        # +inf padding makes every pad gap trivially ok.
        ok = (tm[:, 1:] >= tm[:, :-1] + sg).all(axis=1)
        all_ok = bool(ok.all())
    else:
        all_ok = True
    d_out = None
    if not all_ok:
        # Dense rows replay through the sequential server; the matrix
        # path below then runs on the surviving head-drain rows only.
        d_out = np.empty(t.shape[0])
        for g in np.flatnonzero(~ok).tolist():
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            d_out[lo:hi], _ = serve_constant(servers[g], t[lo:hi],
                                             float(s_row[g]))
        if not bool(ok.any()):
            return d_out
        keep = np.repeat(ok, length)
        servers = [sv for g, sv in enumerate(servers) if ok[g]]
        tm = tm[ok]
        valid = valid[ok]
        length = length[ok]
        sg = sg[ok]
        ng = len(servers)
        max_l = int(length.max())
        if max_l < tm.shape[1]:
            tm = tm[:, :max_l]
            valid = valid[:, :max_l]
            col = col[:max_l]
    rows = _arange(ng)
    heads = tm[:, 0]
    attrs = np.fromiter((x for sv in servers
                         for x in (sv.free_at, sv.busy_ns, sv.wait_ns)),
                        dtype=np.float64, count=3 * ng).reshape(ng, 3)
    if bool((attrs[:, 0] <= heads).all()):
        # Every row starts idle and stays idle (arrivals spaced >= s):
        # each arrival departs at ``t + s`` with zero wait, so the wait
        # chain adds +0.0 per arrival — a bitwise no-op on the
        # non-negative accumulator — and only the busy chain needs a
        # sequential replay.
        fm = tm + sg
        am = np.empty((ng, max_l + 1))
        am[:, 0] = attrs[:, 1]
        am[:, 1:] = sg
        np.cumsum(am, axis=1, out=am)
        busy_end = am[rows, length].tolist()
        free_end = fm[rows, length - 1].tolist()
        len_l = length.tolist()
        for g, sv in enumerate(servers):
            sv.free_at = free_end[g]
            sv.busy_ns = busy_end[g]
            sv.requests += len_l[g]
        if d_out is None:
            return fm[valid] - t
        d_out[keep] = fm[valid] - t[keep]
        return d_out
    start0 = np.maximum(attrs[:, 0], heads)
    # Candidate finishes assuming each row stays queued: the exact
    # sequential ``+= s`` chain, seeded per row, replayed left-to-right
    # by one row-wise cumsum — stacked with the busy_ns accumulator
    # chains, which replay the same ``+= s`` adds and whose seeds are
    # already known here (the wait chains below are not: they need
    # ``cm`` first).  ``cm``'s extra pad column sits past every row's
    # last arrival and is never read.
    big = np.empty((2 * ng, max_l + 1))
    big[:ng, 0] = attrs[:, 1]
    big[:ng, 1:] = sg
    big[ng:, 0] = start0 + sg[:, 0]
    big[ng:, 1:] = sg
    np.cumsum(big, axis=1, out=big)
    busy_end = big[rows, length].tolist()
    cm = big[ng:, :max_l]
    # First arrival that finds its server idle; +inf padding guarantees
    # a hit at the first pad cell, so rows without one drain at length.
    # (All-singleton groups have no drain candidates: the head IS the
    # row, and ``start0`` already folded its idle-vs-queued choice in.)
    if max_l > 1:
        drained = cm[:, : max_l - 1] <= tm[:, 1:]
        # A short row always drains at its first +inf pad cell, so only
        # a full-width all-False row needs the ``length`` fallback —
        # distinguishable from a first-column drain without a full
        # ``any`` scan.
        j = np.argmax(drained, axis=1) + 1
        j = np.where((j > 1) | drained[:, 0], j, length)
    else:
        j = length
    queued = col < j[:, None]
    fm = np.where(queued, cm, tm + sg)
    # Per-server wait_ns accumulator chains, seeded row cumsums with
    # endpoints at each row's true length; the wait values land directly
    # in the chain matrix (pad cells are +0.0 and sit past each
    # endpoint).
    am = np.empty((ng, max_l + 1))
    am[:, 0] = attrs[:, 2]
    am[:, 1] = start0 - heads
    if max_l > 1:
        am[:, 2:] = np.where(queued[:, 1:], cm[:, : max_l - 1] - tm[:, 1:],
                             0.0)
    np.cumsum(am, axis=1, out=am)
    wait_end = am[rows, length].tolist()
    free_end = fm[rows, length - 1].tolist()
    len_l = length.tolist()
    for g, sv in enumerate(servers):
        sv.free_at = free_end[g]
        sv.busy_ns = busy_end[g]
        sv.wait_ns = wait_end[g]
        sv.requests += len_l[g]
    if d_out is None:
        return fm[valid] - t
    d_out[keep] = fm[valid] - t[keep]
    return d_out


def serve_constant(server, t: np.ndarray, s: float) -> Tuple[np.ndarray, np.ndarray]:
    """Serve ``m`` arrivals at nondecreasing times ``t`` with constant service ``s``.

    Bit-exact replay of ``m`` sequential ``_Server.service(t[i], s)`` calls,
    including the server's ``free_at`` / ``busy_ns`` / ``wait_ns`` /
    ``requests`` updates.  Returns ``(total_delay, queue_wait)`` arrays.

    Within one busy period the scalar recurrence degenerates to repeated
    addition of ``s`` — reproduced exactly by a seeded ``np.cumsum`` — so
    the only sequential work left is locating busy-period boundaries:
    one numpy comparison per period (and a single vectorized check when
    the server never queues at all).
    """
    m = t.shape[0]
    if m == 0:
        return np.empty(0), np.empty(0)
    free = server.free_at
    # Fast path: no queueing anywhere in the batch (idle server at every
    # arrival).  ``t[i] >= t[i-1] + s`` uses the exact finish values the
    # scalar loop would compare against.
    n_gaps = 0
    if m > 1:
        gaps = t[1:] >= t[:-1] + s
        if bool(gaps.all()):
            if free <= t[0]:
                f = t + s
                server.free_at = float(f[-1])
                server.requests += m
                _accumulate_busy(server, m, s)
                # Every wait is ``t[i] - t[i] == +0.0`` and the scalar
                # chain ``wait_ns += 0.0`` leaves a non-negative
                # accumulator bit-unchanged.
                return f - t, np.zeros(m)
            # Head-drain: the server starts busy (carryover from an
            # earlier batch) but arrivals are spaced >= s apart, so the
            # backlog only shrinks — once one arrival finds the server
            # idle, every later one does too.  The busy head is one
            # seeded cumsum (the exact ``+= s`` chain); everything after
            # the drain point is a plain idle ``t + s``.
            c = np.empty(m)
            c[0] = free + s
            c[1:] = s
            c = np.cumsum(c)
            drained = c[:-1] <= t[1:]
            # argmax == 0 is ambiguous (drain at 1 vs never): one scalar
            # probe resolves it without a second full scan.
            j0 = int(np.argmax(drained))
            j = j0 + 1 if (j0 or bool(drained[0])) else m
            f = np.empty(m)
            f[:j] = c[:j]
            w = np.empty(m)
            w[0] = free - t[0]
            w[1:j] = c[: j - 1] - t[1:j]
            if j < m:
                f[j:] = t[j:] + s
                w[j:] = 0.0
            server.free_at = float(f[-1])
            server.requests += m
            # One stacked cumsum replays both accumulator chains (the
            # busy ``+= s`` chain and the wait chain) row-by-row — the
            # same left-to-right float adds as two separate chains.
            acc = np.empty((2, m + 1))
            acc[0, 0] = server.busy_ns
            acc[0, 1:] = s
            acc[1, 0] = server.wait_ns
            acc[1, 1:] = w
            np.cumsum(acc, axis=1, out=acc)
            server.busy_ns = float(acc[0, -1])
            server.wait_ns = float(acc[1, -1])
            return f - t, w
        # Idle gaps under the no-queue assumption estimate busy-period
        # starts (queue carryover only merges periods, never adds any).
        n_gaps = int(np.count_nonzero(gaps))
    elif free <= t[0]:
        f = t + s
        server.free_at = float(f[-1])
        server.requests += 1
        _accumulate_busy(server, 1, s)
        return f - t, np.zeros(1)
    if n_gaps and m >= 10:
        # Breadth-first period replay: chain every provisional busy
        # period simultaneously, one ``+= s`` vector add per queue depth
        # — the same left-to-right float accumulation as the scalar loop,
        # applied to all period heads at once.  Provisional starts (idle
        # gaps) are a superset of true starts, so the result is valid iff
        # every provisional start really found the server idle; that is
        # checked before any state is touched, falling back to the exact
        # sequential paths below when queue backlog carried across a gap.
        ps = np.empty(n_gaps + 1, dtype=np.int64)
        ps[0] = 0
        ps[1:] = np.flatnonzero(gaps) + 1
        ends = np.empty(n_gaps + 1, dtype=np.int64)
        ends[:-1] = ps[1:]
        ends[-1] = m
        if int((ends - ps).max()) <= _SERVE_VEC_MAX_DEPTH:
            bases = t[ps]
            if free > t[0]:
                bases[0] = free
            curq = bases + s
            f = np.empty(m)
            w = np.zeros(m)
            f[ps] = curq
            if free > t[0]:
                w[0] = free - t[0]
            pos = ps + 1
            en = ends
            while True:
                alive = pos < en
                if not bool(alive.all()):
                    pos = pos[alive]
                    if not pos.size:
                        break
                    en = en[alive]
                    curq = curq[alive]
                prev = curq           # = free before this arrival (queued)
                curq = curq + s
                f[pos] = curq
                w[pos] = prev - t[pos]
                pos = pos + 1
            if bool((f[ps[1:] - 1] <= t[ps[1:]]).all()):
                server.free_at = float(f[-1])
                server.requests += m
                _accumulate_busy(server, m, s)
                acc = np.empty(m + 1)
                acc[0] = server.wait_ns
                acc[1:] = w
                server.wait_ns = float(np.cumsum(acc)[-1])
                return f - t, w
    f = np.empty(m)
    start = np.empty(m)
    i = 0
    while i < m:
        s0 = free if free > t[i] else t[i]
        seg = np.empty(m - i + 1)
        seg[0] = s0
        seg[1:] = s
        fc = np.cumsum(seg)[1:]  # candidate finishes for i .. m-1
        if i + 1 < m:
            # The busy period ends at the first arrival that finds the
            # server idle (strictly later than the previous finish;
            # equality keeps the same values either way).
            idle = t[i + 1:] > fc[:-1]
            j = i + 1 + int(np.argmax(idle)) if idle.any() else m
        else:
            j = m
        f[i:j] = fc[: j - i]
        start[i] = s0
        if j - i > 1:
            start[i + 1 : j] = fc[: j - i - 1]
        free = float(f[j - 1])
        i = j
    server.free_at = float(f[-1])
    server.requests += m
    _accumulate_busy(server, m, s)
    # wait_ns accumulates one += w per request; a seeded cumsum replays
    # that chain in order, bit-exactly.
    wait = start - t
    acc = np.empty(m + 1)
    acc[0] = server.wait_ns
    acc[1:] = wait
    server.wait_ns = float(np.cumsum(acc)[-1])
    return f - t, wait


def dram_fill_segment(
    machine,
    region,
    chiplet: int,
    my_node: int,
    blocks: np.ndarray,
    keys: np.ndarray,
    keys_list: List[int],
    req_bytes: int,
    per_issue_ns: float,
    mlp: float,
    lats: Tuple[float, float, float, float],
    counts: List[int],
    state: list,
) -> None:
    """Service a vectorizable run of pure DRAM fills.

    Preconditions (established by the caller): ``blocks`` are distinct,
    in range, resident in no slice, and the region is BIND or INTERLEAVE.
    Mutates channel/link/xlink servers, the requester's LRU slice, the
    directory, the slice's eviction counter, the shared span ``state``
    and the per-source ``counts`` — all bit-identically to the scalar
    loop.

    A BIND arithmetic run (sequential or strided scan) takes the joint
    channel path of :func:`_bind_arith_segment`.  Every other run —
    non-arithmetic BIND, and INTERLEAVE — is timed as class codes 1/2
    (local/remote DRAM) by the gather kernel's service tail,
    :func:`_service_accesses`, followed by one bulk ``fill_run``.
    """
    if region.policy is MemPolicy.BIND:
        n = blocks.shape[0]
        lat = machine.latency
        channels = machine.channels
        home = region.home_node
        local = home == my_node
        lat_fill = lats[0] if local else lats[1]
        # One scalar step for the whole run: the issue clock is a seeded
        # cumsum of a constant.
        step = lat_fill / mlp
        if per_issue_ns > 0.0 and step < per_issue_ns:
            step = per_issue_ns
        tf = np.empty(n + 1)
        tf[0] = state[0]
        tf[1:] = step
        tf = np.cumsum(tf)
        finish = _bind_arith_segment(
            machine, blocks, keys_list, tf[:-1],
            lat.dram_local if local else lat.dram_remote, home, local,
            my_node, channels.channels_per_socket,
            req_bytes / channels.bytes_per_ns,
            req_bytes / machine.links.bytes_per_ns,
            req_bytes / machine.xlinks.bytes_per_ns,
            machine.links.server(chiplet),
        )
        if finish is not None:
            machine.caches.fill_run(chiplet, keys_list, region.block_bytes)
            src = IDX_DRAM_LOCAL if local else IDX_DRAM_REMOTE
            fl = machine._fill_lat
            fl[src] = _chain(fl[src], n, lat_fill)
            counts[src] += n
            state[0] = float(tf[-1])
            if finish > state[1]:
                state[1] = finish
            state[4] += n
            return
    homes, code = _dram_homes(region, my_node, blocks)
    _service_accesses(machine, chiplet, my_node, keys, code, None,
                      _arange(blocks.shape[0]), homes, _EMPTY, _EMPTY,
                      state[0], req_bytes, per_issue_ns, mlp, lats, counts,
                      state)
    machine.caches.fill_run(chiplet, keys_list, region.block_bytes)


def _bind_arith_segment(
    machine, blocks, keys_list, t, base, home, local,
    my_node, cps, s_chan, s_link, s_xlink, link,
):
    """Joint channel servicing for a BIND arithmetic run.

    When the segment's blocks form an arithmetic progression with stride
    ``q``, its arrivals hit the home socket's channels cyclically with
    period ``p = cps / gcd(|q|, cps)``: arrival ``i`` is the ``i // p``-th
    visit to channel ``(c0 + (i % p) * q) % cps``.  That structure
    replaces grouping arrivals by channel (argsort + fancy indexing) with
    strided views, and lets the two steady-state regimes be serviced for
    *all* channels jointly:

    - **idle** (no channel ever queues): every delay is its pure service
      expression ``(t + s) - t``, one whole-segment comparison proves
      idleness for every channel at once, and ``wait_ns`` accumulators
      are bit-unchanged (each wait is ``+0.0``);
    - **backlogged** (every channel busy at every arrival — the saturated
      stream the paper's bandwidth plots are built on): each channel's
      finish times are a pure ``free += s`` chain independent of the
      arrivals, so one 2-D seeded ``np.cumsum`` (row per channel, axis=1
      accumulates left-to-right like the interpreter) replays every
      chain, and one interleave/compare validates the regime.

    Anything in between falls back to per-channel
    :func:`serve_constant` over strided views.  The requester link (and
    cross-socket link when remote) always goes through
    :func:`serve_constant` — they are single servers, not banks.

    Returns the segment's ``finish`` time, or ``None`` when the blocks
    are not an arithmetic progression (the caller then times the run
    through :func:`_service_accesses`).
    """
    n = blocks.shape[0]
    if n < 2:
        return None
    q = int(blocks[1]) - int(blocks[0])
    if q == 0 or not bool((blocks[2:] - blocks[1:-1] == q).all()):
        return None
    p = cps // gcd(abs(q), cps)
    first = p if p < n else n  # number of distinct channels visited
    channels = machine.channels
    c0 = keys_list[0] % cps
    servers = [channels.server(home, (c0 + r * q) % cps) for r in range(first)]

    # Arrivals per channel: the first ``rem`` residues see ``m`` arrivals,
    # the rest ``m - 1`` (m_r == (n - 1 - r) // p + 1).
    m = (n + p - 1) // p
    rem = n - (m - 1) * p

    d_chan = None
    idle = True
    for r in range(first):
        if servers[r].free_at > t[r]:
            idle = False
            break
    if idle and n > p:
        idle = bool((t[p:] >= t[:-p] + s_chan).all())
    if idle:
        # Delays replay the scalar loop's ``(now + s) - now`` per access;
        # waits are identically +0.0, leaving wait_ns bit-unchanged.
        d_chan = (t + s_chan) - t
        # One seeded 2-D cumsum replays every channel's busy_ns chain.
        busy = np.empty((first, m + 1))
        busy[:, 0] = [srv.busy_ns for srv in servers]
        busy[:, 1:] = s_chan
        busy = np.cumsum(busy, axis=1)
        new_busy = _per_row(busy, first, m, rem)
        last = t.take([r + (((m if r < rem else m - 1)) - 1) * p
                       for r in range(first)]).tolist()
        for r in range(first):
            srv = servers[r]
            srv.requests += m if r < rem else m - 1
            srv.busy_ns = new_busy[r]
            srv.free_at = last[r] + s_chan
    else:
        # Candidate backlogged regime: chain every channel's finishes.
        # free_at and busy_ns advance by the same constant, so one 2-D
        # seeded cumsum replays both chains for every channel.
        mat = np.empty((2 * first, m + 1))
        mat[:first, 0] = [srv.free_at for srv in servers]
        mat[first:, 0] = [srv.busy_ns for srv in servers]
        mat[:, 1:] = s_chan
        mat = np.cumsum(mat, axis=1)
        chain = mat[:first]
        # chain[r, k] = channel r's free time before its k-th arrival;
        # interleave rows back into arrival order (i -> row i % p).
        free_before = chain[:, :-1].T.ravel()[:n]
        if bool((free_before >= t).all()):
            d_chan = chain[:, 1:].T.ravel()[:n] - t
            waits = free_before - t
            acc = np.empty((first, m + 1))
            acc[:, 0] = [srv.wait_ns for srv in servers]
            padded = np.zeros(first * m)
            padded[:n] = waits
            acc[:, 1:] = padded.reshape(m, first).T
            acc = np.cumsum(acc, axis=1)
            new_free = _per_row(chain, first, m, rem)
            new_busy = _per_row(mat[first:], first, m, rem)
            new_wait = _per_row(acc, first, m, rem)
            for r in range(first):
                srv = servers[r]
                srv.requests += m if r < rem else m - 1
                srv.free_at = new_free[r]
                srv.busy_ns = new_busy[r]
                srv.wait_ns = new_wait[r]
    if d_chan is None:
        # Mixed regime (e.g. the segment where a stream first saturates):
        # per-channel recurrence over strided views, no argsort needed.
        d_chan = np.empty(n)
        for r in range(first):
            sl = slice(r, None, p)
            d, _ = serve_constant(servers[r], t[sl], s_chan)
            d_chan[sl] = d

    d_link, _ = serve_constant(link, t, s_link)
    ns = (base + d_chan) + d_link
    if not local:
        xsrv = machine.xlinks.server(my_node, home)
        d_x, _ = serve_constant(xsrv, t, s_xlink)
        ns = ns + d_x
    return float((t + ns).max())


def _dram_homes(region, my_node: int,
                ublocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Home node and class code (1 local / 2 remote DRAM) per block."""
    if region.policy is MemPolicy.BIND:
        homes = np.full(ublocks.shape[0], region.home_node, dtype=np.int64)
    else:  # INTERLEAVE
        homes = ublocks % region.numa_nodes
    return homes, np.where(homes == my_node, 1, 2)


def _peer_holders(machine, chiplet: int,
                  others: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Serving peer and class code (3 same / 4 cross socket) per mask.

    The scalar path's min-id holder per distance class: the lowest set
    bit of the same-socket subset, else of the whole mask.  ``log2`` of
    an exact power of two is exact in float64.
    """
    socket_of = machine.topo.socket_of_chiplet_arr
    my_socket = int(socket_of[chiplet])
    same = others & np.int64(machine.caches._socket_mask[my_socket])
    cand = np.where(same != 0, same, others)
    low = cand & -cand
    holders = np.log2(low.astype(np.float64)).astype(np.int64)
    return holders, np.where(socket_of[holders] == my_socket, 3, 4)


def _certify_evictions(slot_map, len0: int, maxlen: int, nu: int,
                       res_u: np.ndarray, first_pos: np.ndarray,
                       ukeys: np.ndarray):
    """Unique-level eviction interleaving of a batch that fits the slice.

    Fills evict from the LRU front; a block classified as a hit whose
    first touch comes *after* its eviction is re-missed by the scalar
    loop.  Replays the exact interleaving of touches and evictions at the
    unique level (touches in first-occurrence order; each overflowing
    fill pops the oldest surviving untouched original) and returns
    ``(victims, reclass)``: the evicted keys in scalar eviction order and
    the indices of resident uniques that must be *reclassified* as the
    fill the scalar loop performs (they appear both as victims and as
    fills).  Returns ``None`` when the batch's fills would evict the
    batch's own blocks — the regime :func:`_replay_batch` services.
    """
    if nu > maxlen:
        return None  # the batch alone outgrows the slice
    n_res0 = int(np.count_nonzero(res_u))
    if len0 + (nu - n_res0) <= maxlen:
        return [], []
    if n_res0 == 0:
        # No resident batch block can be disturbed: victims are exactly
        # the E oldest entries.
        E = len0 + nu - maxlen
        if E > len0:
            return None
        return list(islice(slot_map, E)), []
    # Only resident uniques interact with the eviction frontier: every
    # other unique just advances it by one (once ``room`` runs out).
    # Walk the residents alone — in first-touch order, tracking how many
    # fills (including reclassified re-misses) precede each touch —
    # instead of simulating all ``nu`` touches.  A resident whose depth
    # the frontier has already passed was evicted before its first touch:
    # the scalar loop re-misses it, so reclassify it as a fill.  Touch
    # order = ascending first_pos (unique values, so the unstable default
    # sort is deterministic); a resident's fills-before count is its
    # touch rank minus how many residents were touched before it.
    # ``n_res0`` is batch-bounded and small, so per-resident C-level
    # ``list.index`` scans beat building sorted numpy key arrays (every
    # resident key is in the slice by the directory invariant).
    kl = list(slot_map)
    ord1 = np.argsort(first_pos)
    rpos = res_u[ord1].nonzero()[0]
    r_idx_o = ord1[rpos]
    d_seq = [kl.index(k) for k in ukeys[r_idx_o].tolist()]
    fb_seq = (rpos - np.arange(n_res0)).tolist()
    room = maxlen - len0
    tsorted: List[int] = []  # depths of successfully touched, sorted
    reclass: List[int] = []
    extra = 0  # reclassified re-misses so far (each is a fill)
    for i in range(n_res0):
        e = fb_seq[i] + extra - room
        if e > 0:
            # Frontier position after ``e`` evictions: the e-th untouched
            # depth (touched entries are skipped).
            p = e
            while True:
                c = bisect_left(tsorted, p)
                if p == e + c:
                    break
                p = e + c
            if p > len0:
                return None
            if d_seq[i] < p:
                reclass.append(int(r_idx_o[i]))
                extra += 1
                continue
        insort(tsorted, d_seq[i])
    E = len0 + (nu - n_res0 + extra) - maxlen
    if E > len0 - len(tsorted):
        return None
    # Victims: the first E *untouched* insertion-order keys.  The scan
    # cutoff is the same fixpoint as the frontier (how deep E untouched
    # entries reach past the touched ones); deleting the few touched
    # positions back-to-front leaves exactly the E victims in order.
    c = E
    while True:
        k2 = E + bisect_left(tsorted, c)
        if k2 == c:
            break
        c = k2
    victims = kl[:c]
    for d in reversed(tsorted):
        if d < c:
            del victims[d]
    return victims, reclass


def gather_segment(
    machine,
    region,
    chiplet: int,
    my_node: int,
    arr: np.ndarray,
    keys: np.ndarray,
    t0: float,
    req_bytes: int,
    write: bool,
    per_issue_ns: float,
    mlp: float,
    lats: Tuple[float, float, float, float],
    counts: List[int],
    state: list,
) -> Optional[bool]:
    """Service a whole unsorted, duplicate-laden batch in array ops.

    The irregular-access kernel: where the segment kernels above need a
    long run of one service class, this one takes the batch exactly as
    the workload issued it — random order, repeats and all.  One stable
    **argsort** groups the repeats, each *unique* block is looked up once
    in the directory's bitmask column, and then one of two classifiers
    assigns every access its service class (0 resident hit, 1/2 local /
    remote DRAM fill, 3/4 same / cross-socket peer fill):

    - **unique-level certificate** (batches that fit the slice): an
      eviction-interleaving simulation at the unique level
      (:func:`_certify_evictions`) proves which uniques are hits when
      first touched; the first touch services as classified and every
      repeat is a local L3 hit (after a write's first touch the
      requester is the block's sole holder, so repeat writes invalidate
      nothing).  The LRU effect of repeats is a recency refresh, so the
      slice's final tail is the unique blocks in *last*-occurrence order.
    - **per-access replay** (batches whose fills would evict their own
      blocks): :func:`_replay_batch` walks the batch once in order over
      the requester's LRU dict, exactly like the cache half of the
      scalar loop.

    Both feed :func:`_service_accesses`, which builds arrival times in
    batch order (one seeded cumsum over the per-access issue steps —
    steps depend only on pure latency, never on queue waits, so every
    arrival is known before any server is consulted) and serves every
    bank's arrivals merged across classes in batch order; the directory
    and peer invalidations are written back in bulk
    (:func:`_writeback_directory`).

    Declines — returning ``None`` with **no state mutated**, so the
    caller falls back to the segment route (sorted batches) or the scalar
    loop (unsorted ones) — when the region is not
    BIND/INTERLEAVE-shaped (non-uniformly sized resident entries, blocks
    larger than the slice), and for *sorted-distinct* batches that
    overflow the slice: those stream through ``dram_fill_segment``
    several times faster than the replay.  Otherwise returns ``True``
    when the batch carried duplicates, ``False`` for a duplicate-free one.
    """
    caches = machine.caches
    cache = caches.caches[chiplet]
    nb = region.block_bytes
    cap = cache.capacity_bytes
    if nb > cap:
        return None
    slot_map = cache._slot
    len0 = len(slot_map)
    if len0 and cache._uniform_nb != nb:
        return None
    if cache.used_bytes != len0 * nb:
        return None
    n = arr.shape[0]

    # -- argsort -> unique blocks ---------------------------------------------
    perm = np.argsort(arr, kind="stable")
    sorted_arr = arr[perm]
    newgrp = np.empty(n, dtype=bool)
    newgrp[0] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=newgrp[1:])
    starts = np.flatnonzero(newgrp)
    nu = starts.shape[0]
    has_dups = nu < n
    # Stable sort keeps equal blocks in batch order, so a group's first
    # and last members are its first/last occurrence positions.
    first_pos = perm[starts]
    ublocks = sorted_arr[starts]
    ukeys = keys[first_pos]
    ukeys_list = ukeys.tolist()

    # -- classify uniques from the directory bitmask column -----------------
    dir_slot = caches._dir_slot
    dslots = np.fromiter(map(dir_slot.get, ukeys_list, repeat(-1)),
                         dtype=np.int64, count=nu)
    present = dslots >= 0
    masks = np.zeros(nu, dtype=np.int64)
    masks[present] = caches._dir_mask[dslots[present]]
    nbit = np.int64(1 << chiplet)
    res_u = (masks & nbit) != 0  # resident in requester's slice (invariant)
    others = masks & ~nbit

    maxlen = cap // nb
    cert = _certify_evictions(slot_map, len0, maxlen, nu, res_u, first_pos,
                              ukeys)
    if cert is None:
        if not has_dups and bool((arr[1:] > arr[:-1]).all()):
            return None  # sorted-distinct overflow: dram_fill_segment
        uid = np.empty(n, dtype=np.int64)
        uid[perm] = np.cumsum(newgrp) - 1
        _replay_batch(machine, region, chiplet, my_node, maxlen, nb, keys,
                      uid, first_pos, ublocks, ukeys, ukeys_list, dslots,
                      others, t0, req_bytes, write, per_issue_ns, mlp, lats,
                      counts, state)
        return has_dups
    victims, reclass = cert
    if reclass:
        # The scalar loop re-misses these: directory-wise their residency
        # bit falls with the victims and the refill restores it, so the
        # pre-batch ``others`` masks still classify the replacement fill
        # (DRAM vs peer).
        res_u[reclass] = False

    # -- per-access classes: first touches as classified, repeats hit -------
    peer_u = ~res_u & (others != 0)
    mi = np.flatnonzero(~res_u & ~peer_u)
    pi = np.flatnonzero(peer_u)
    code_u = np.zeros(nu, dtype=np.int8)
    homes, code_u[mi] = _dram_homes(region, my_node, ublocks[mi])
    holders, code_u[pi] = _peer_holders(machine, chiplet, others[pi])
    code = np.zeros(n, dtype=np.int8)
    code[first_pos] = code_u
    inv = None
    if write:
        # Fills without a peer holder have ``others == 0``, so the
        # unmasked popcount already charges them zero.
        inv = np.zeros(n, dtype=np.int64)
        inv[first_pos] = np.bitwise_count(others)
    _service_accesses(machine, chiplet, my_node, keys, code, inv,
                      first_pos[mi], homes, first_pos[pi], holders, t0,
                      req_bytes, per_issue_ns, mlp, lats, counts, state)

    # -- LRU writeback: untouched originals keep their order; the batch's
    # unique blocks re-enter at the tail in last-occurrence order (hits
    # carry their slot along, fills take the victims' slots, sized nb
    # already because the slice was uniformly nb-sized on entry, and only
    # overflow into the free stack).
    nv = len(victims)
    vict_slots = np.fromiter(map(slot_map.pop, victims), dtype=np.int64,
                             count=nv)
    cache.evictions += nv
    n_res = int(np.count_nonzero(res_u))
    nfills = nu - n_res
    cache_slot_u = np.empty(nu, dtype=np.int64)
    if n_res:
        cache_slot_u[res_u] = np.fromiter(
            map(slot_map.pop, ukeys[res_u].tolist()), dtype=np.int64,
            count=n_res)
    if nfills <= nv:
        cache_slot_u[~res_u] = vict_slots[:nfills]
        cache._free.extend(vict_slots[nfills:].tolist())
    else:
        extra = cache._take_slots(nfills - nv)
        cache._sizes[extra] = nb
        cache_slot_u[~res_u] = np.concatenate(
            (vict_slots, np.asarray(extra, dtype=np.int64)))
    cache.used_bytes += (nfills - nv) * nb
    cache._uniform_nb = nb
    ends = np.empty(nu, dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = n
    tail = np.argsort(perm[ends - 1])  # last occurrences, unique values
    slot_map.update(zip(ukeys[tail].tolist(), cache_slot_u[tail].tolist()))

    # Victims outside the batch; the reclassified uniques among the
    # victims end resident again and are written back as batch blocks.
    if reclass:
        again = set(ukeys[reclass].tolist())
        victims = [v for v in victims if v not in again]
    _writeback_directory(caches, chiplet, ukeys, dslots, others, None,
                         victims, write)
    return has_dups


def _replay_batch(machine, region, chiplet: int, my_node: int, maxlen: int,
                  nb: int, keys: np.ndarray, uid: np.ndarray,
                  first_pos: np.ndarray, ublocks: np.ndarray,
                  ukeys: np.ndarray, ukeys_list: List[int],
                  dslots: np.ndarray, others: np.ndarray, t0: float,
                  req_bytes: int, write: bool, per_issue_ns: float,
                  mlp: float, lats: Tuple[float, float, float, float],
                  counts: List[int], state: list) -> None:
    """Per-access classifier for batches that overflow the requester's slice.

    One pass in batch order over the requester's LRU dict, mirroring the
    cache half of ``Machine._scalar_span``: a hit refreshes recency, a
    miss evicts the LRU front when the slice is full and inserts at the
    tail.  Only the hit/miss outcome depends on the pass; the fill source
    of a miss follows from pre-batch state alone, because within a batch
    the requester's fills and evictions only ever change *its own*
    directory bit and peers' slices change only through this batch's
    write invalidations:

    - a read miss fills from the min-id peer holder of the pre-batch
      bitmask, or from the block's DRAM home when no peer holds it;
    - a write invalidates every sharer on the block's first touch (hit or
      fill), so that touch is classified like a read and every later
      re-miss of the block — after a self-eviction — goes to DRAM.

    Issue steps depend only on pure latency, so the per-access class
    codes feed the shared service tail unchanged; mutation is exact by
    construction (the pass *is* the scalar LRU walk), and the directory
    follows in bulk from the final residency of each unique block.
    """
    caches = machine.caches
    cache = caches.caches[chiplet]
    lru = cache._slot
    pop = lru.pop
    n = keys.shape[0]
    len0 = len(lru)
    originals = list(lru)
    room = maxlen - len0
    fresh = cache._take_slots(min(room, n)) if room > 0 else []
    if fresh:
        cache._sizes[fresh] = nb
    hits: List[int] = []
    hit_append = hits.append
    accesses = enumerate(keys.tolist())
    if fresh:
        # Room left: misses take fresh slots until the slice fills up.
        for i, k in accesses:
            s = pop(k, None)
            if s is None:
                lru[k] = fresh.pop()
                if not fresh:
                    break
            else:
                lru[k] = s
                hit_append(i)
    # Full slice: every miss evicts the LRU front and reuses its slot
    # row, which already reads ``nb`` (uniformly sized slice).
    for i, k in accesses:
        s = pop(k, None)
        if s is None:
            for v in lru:
                break
            s = pop(v)
        else:
            hit_append(i)
        lru[k] = s
    if fresh:
        cache._free.extend(fresh)  # room the batch did not need
    n_miss = n - len(hits)
    cache.evictions += n_miss - (len(lru) - len0)
    cache.used_bytes = len(lru) * nb
    cache._uniform_nb = nb

    missed = np.ones(n, dtype=bool)
    missed[hits] = False
    miss_pos = np.flatnonzero(missed)
    mu = uid[miss_pos]
    mo = others[mu]
    if write:
        mo = np.where(first_pos[mu] == miss_pos, mo, 0)
    peer = mo != 0
    code = np.zeros(n, dtype=np.int8)
    peer_pos = miss_pos[peer]
    holders, code[peer_pos] = _peer_holders(machine, chiplet, mo[peer])
    dram = ~peer
    dram_pos = miss_pos[dram]
    homes, code[dram_pos] = _dram_homes(region, my_node, ublocks[mu[dram]])
    inv = None
    if write:
        inv = np.zeros(n, dtype=np.int64)
        inv[first_pos] = np.bitwise_count(others)
    _service_accesses(machine, chiplet, my_node, keys, code, inv, dram_pos,
                      homes, peer_pos, holders, t0, req_bytes, per_issue_ns,
                      mlp, lats, counts, state)

    resident = np.fromiter(map(lru.__contains__, ukeys_list), dtype=bool,
                           count=len(ukeys_list))
    # Originals outside the batch can only have left by eviction.
    victims = [k for k in originals if k not in lru]
    if victims:
        batch = set(ukeys_list)
        victims = [k for k in victims if k not in batch]
    _writeback_directory(caches, chiplet, ukeys, dslots, others, resident,
                         victims, write)


def _service_accesses(machine, chiplet: int, my_node: int, keys: np.ndarray,
                      code: np.ndarray, inv: Optional[np.ndarray],
                      miss_pos: np.ndarray, homes: np.ndarray,
                      peer_pos: np.ndarray, holders: np.ndarray, t0: float,
                      req_bytes: int, per_issue_ns: float, mlp: float,
                      lats: Tuple[float, float, float, float],
                      counts: List[int], state: list) -> None:
    """Time a classified batch: clocks, servers, fill chains, counters.

    ``code`` holds one service class per access in batch order (0
    resident hit, 1/2 local/remote DRAM fill, 3/4 same/cross-socket peer
    fill); ``inv`` the per-access invalidation counts of a write batch
    (``None`` for reads); ``miss_pos``/``homes`` and
    ``peer_pos``/``holders`` the positions and serving node / chiplet of
    the DRAM and peer fills.  Updates the shared span ``state``, the
    per-source ``counts``, every touched server and the machine's
    fill-latency chains — bit-identically to the scalar loop.  Touches no
    cache or directory state.
    """
    n = code.shape[0]
    lat = machine.latency
    l3 = lat.l3_hit
    # Three LUT gathers turn class codes into pure latency, base service
    # and fill source.
    lat_a = np.array((l3, *lats))[code]
    base_a = np.array((l3, lat.dram_local, lat.dram_remote,
                       lat.fill_same_socket, lat.fill_cross_socket))[code]
    hit = code == 0
    iv = None
    if inv is not None:
        # Hits charge their invalidations in ``base`` too (it is their
        # service, not queueing); peer fills keep ``base`` at the pure
        # fill path and add the term after the link delays, like the
        # scalar loop.  DRAM fills have no sharers: their ``+ 0.0`` is a
        # bitwise no-op on the (positive) pure latencies.
        iv = inv * lat.invalidate
        lat_a += iv
        np.copyto(base_a, lat_a, where=hit)
        iv[hit] = 0.0  # what remains is added after the link delays
    src_a = _LUT_SRC[code]

    steps = lat_a / mlp  # overlap pure latency, not queue waits
    np.maximum(steps, per_issue_ns, out=steps)
    tf = np.empty(n + 1)
    tf[0] = t0
    tf[1:] = steps
    tf = np.cumsum(tf)
    t = tf[:-1]
    t_end = float(tf[-1])

    # -- servers: arrivals merged per bank in batch order -------------------
    s_chan = req_bytes / machine.channels.bytes_per_ns
    s_link = req_bytes / machine.links.bytes_per_ns
    s_xlink = req_bytes / machine.xlinks.bytes_per_ns
    dz = np.zeros((3, n))  # rows: bank (channel/holder link), requester
    d_srv, d_req, d_x = dz  # fabric link, cross-socket link delays

    svc_pos = np.flatnonzero(~hit)
    nfills = int(svc_pos.shape[0])

    # One serve_groups call covers every server class — DRAM channels,
    # peer fabric links, and cross-socket links — as rows of a single
    # matrix with per-row service times.  Every server gets a global id
    # (channels, then fabric links, then socket pairs); ONE argsort on a
    # (server id, position) composite key groups arrivals by server
    # while keeping batch order inside each group.  Keys are unique —
    # the same position may wait on a channel AND a cross-socket link,
    # but never twice on one server — so the unstable default sort is
    # deterministic.  All these servers are pairwise distinct (the
    # requester's link is served separately below and can never collide
    # with a holder-link row because ``others`` masks out the
    # requester's own directory bit); distinct rows evolve
    # independently, so row order is free.
    n_sockets = machine.xlinks.sockets
    cps = machine.channels.channels_per_socket
    sid_C = len(machine.channels._servers) * cps
    sid_CL = sid_C + machine.topo.total_chiplets
    g_pos: List[np.ndarray] = []
    g_sid: List[np.ndarray] = []
    if miss_pos.size:
        g_pos.append(miss_pos)
        g_sid.append(homes * cps + keys[miss_pos] % cps)
        remote = homes != my_node
        if remote.any():
            rh = homes[remote]
            lo = np.minimum(rh, my_node)
            hi = np.maximum(rh, my_node)
            g_pos.append(miss_pos[remote])
            g_sid.append(sid_CL + lo * n_sockets + hi)
    if peer_pos.size:
        g_pos.append(peer_pos)
        g_sid.append(sid_C + holders)
        socket_of = machine.topo.socket_of_chiplet_arr
        my_socket = int(socket_of[chiplet])
        psock = socket_of[holders]
        cross = psock != my_socket
        if cross.any():
            cs = psock[cross]
            lo = np.minimum(cs, my_socket)
            hi = np.maximum(cs, my_socket)
            g_pos.append(peer_pos[cross])
            g_sid.append(sid_CL + lo * n_sockets + hi)
    if nfills:
        # The requester's own link sees every non-hit access once.  It is
        # pairwise-distinct from every matrix row (``others`` masks out
        # the requester's bit), but folding it in as a row would inflate
        # the matrix width to the whole non-hit count — it is served
        # separately through the single-server fast paths instead.
        d, _ = serve_constant(machine.links.server(chiplet), t[svc_pos],
                              s_link)
        d_req[svc_pos] = d
    if g_pos:
        pos_cat = g_pos[0] if len(g_pos) == 1 else np.concatenate(g_pos)
        sid_cat = g_sid[0] if len(g_sid) == 1 else np.concatenate(g_sid)
        order = np.argsort(sid_cat * np.int64(n) + pos_cat)
        pos_s = pos_cat[order]
        sid_s = sid_cat[order]
        cuts = (np.flatnonzero(sid_s[1:] != sid_s[:-1]) + 1).tolist()
        bounds = [0, *cuts, int(pos_s.shape[0])]
        hs = [int(sid_s[b]) for b in bounds[:-1]]
        chan_sv = machine.channels.server
        link_sv = machine.links.server
        x_sv = machine.xlinks.server
        g_servers = [
            chan_sv(sid // cps, sid % cps) if sid < sid_C
            else link_sv(sid - sid_C) if sid < sid_CL
            else x_sv((sid - sid_CL) // n_sockets,
                      (sid - sid_CL) % n_sockets)
            for sid in hs
        ]
        g_s = np.asarray([s_chan if sid < sid_C
                          else s_link if sid < sid_CL else s_xlink
                          for sid in hs])
        d_all = serve_groups(g_servers, t[pos_s], np.asarray(bounds), g_s)
        isx = sid_s >= sid_CL
        nonx = ~isx
        d_srv[pos_s[nonx]] = d_all[nonx]
        d_x[pos_s[isx]] = d_all[isx]

    # Compose per-access totals in the scalar loop's addition order; every
    # class's unused delay terms are +0.0, which leaves positive IEEE
    # doubles bit-unchanged.  Peer writes add their invalidation term
    # after the cross-link delay, exactly like the scalar loop.
    ns_a = base_a + d_srv
    ns_a += d_req
    ns_a += d_x
    if iv is not None and peer_pos.size:
        ns_a += iv
    ns_a += t
    fin = float(ns_a.max())
    state[0] = t_end
    if fin > state[1]:
        state[1] = fin
    state[3] += n - nfills
    state[4] += nfills
    if inv is not None:
        state[2] += int(inv.sum())

    # Per-source fill-latency chains, in batch order: one seeded matrix
    # row per source present holds that source's latencies at their
    # batch positions and +0.0 elsewhere — a bitwise no-op on the
    # non-negative accumulator — so one in-place row-wise cumsum replays
    # every chain exactly as the scalar loop accumulates it.
    fl = machine._fill_lat
    per_src = np.bincount(src_a, minlength=len(fl)).tolist()
    used = [s_idx for s_idx, k in enumerate(per_src) if k]
    chains = np.zeros((len(used), n + 1))
    for r, s_idx in enumerate(used):
        chains[r, 0] = fl[s_idx]
        np.copyto(chains[r, 1:], lat_a, where=src_a == s_idx)
        counts[s_idx] += per_src[s_idx]
    np.cumsum(chains, axis=1, out=chains)
    for s_idx, end in zip(used, chains[:, n].tolist()):
        fl[s_idx] = end


def _writeback_directory(caches, chiplet: int, ukeys: np.ndarray,
                         dslots: np.ndarray, others: np.ndarray,
                         resident: Optional[np.ndarray],
                         victims: List[int], write: bool) -> None:
    """Bulk directory update for one serviced batch.

    ``ukeys``/``dslots``/``others`` describe the batch's unique blocks
    (pre-batch directory rows, ``-1`` when absent, and peer-holder
    masks); ``resident`` says which of them end the batch in the
    requester's slice (``None``: all of them); ``victims`` lists the
    evicted keys *outside* the batch.  The final state follows from
    those alone, whatever order the scalar loop set and cleared bits in:

    - a write drops every peer copy of each written block (one bulk
      :meth:`ChipletCache.drop_run` per peer slice), leaving the
      requester the sole holder if it still holds the block;
    - a read keeps the peer bits and sets the requester's bit iff the
      block ended resident;
    - an outside victim loses the requester's bit.

    Entries whose mask empties release their rows, which are recycled
    for the batch's new entries (one mask prefetch, no per-key scalar
    reads or writes of the mask column).
    """
    dir_slot = caches._dir_slot
    mask_col = caches._dir_mask
    nbit = np.int64(1 << chiplet)
    res_bit = nbit if resident is None else np.where(resident, nbit, 0)
    if write:
        dropped = np.flatnonzero(others)
        if dropped.size:
            # (peer, key) pairs grouped peer-major: one drop_run per peer.
            n_ch = len(caches.caches)
            held = ((others[dropped, None] >> _arange(n_ch)) & 1).T != 0
            peer_keys = ukeys[dropped][np.nonzero(held)[1]].tolist()
            b = 0
            for c, k in enumerate(held.sum(axis=1).tolist()):
                if k:
                    caches.caches[c].drop_run(peer_keys[b:b + k])
                    b += k
        new = np.broadcast_to(res_bit, others.shape)
    else:
        new = others | res_bit
    freed: List[np.ndarray] = []
    gone_keys: List[int] = []
    if victims:
        vslots = np.fromiter(map(dir_slot.__getitem__, victims),
                             dtype=np.int64, count=len(victims))
        vmask = mask_col[vslots] & ~nbit
        gone = vmask == 0
        if gone.all():
            # Steady state: no peer shares any victim.
            freed.append(vslots)
            gone_keys = victims
        else:
            keep = ~gone
            mask_col[vslots[keep]] = vmask[keep]
            freed.append(vslots[gone])
            gone_keys = [victims[j] for j in np.flatnonzero(gone).tolist()]
    present = dslots >= 0
    live = new != 0
    upd = present & live
    mask_col[dslots[upd]] = new[upd]
    drop_u = present & ~live
    if drop_u.any():
        freed.append(dslots[drop_u])
        gone_keys = gone_keys + ukeys[drop_u].tolist()
    if gone_keys:
        deque(map(dir_slot.__delitem__, gone_keys), maxlen=0)
    rows = freed[0] if len(freed) == 1 else (
        np.concatenate(freed) if freed else np.empty(0, dtype=np.int64))
    add = ~present & live  # never-present blocks have no peer bits
    n_add = int(np.count_nonzero(add))
    if n_add:
        r = rows.shape[0]
        if r >= n_add:
            new_rows = rows[:n_add]
            rows = rows[n_add:]
        else:
            new_rows = np.concatenate(
                (rows, np.asarray(caches._dir_take_slots(n_add - r),
                                  dtype=np.int64)))
            rows = rows[:0]
            mask_col = caches._dir_mask  # the take may grow the column
        mask_col[new_rows] = nbit
        dir_slot.update(zip(ukeys[add].tolist(), new_rows.tolist()))
    if rows.shape[0]:
        mask_col[rows] = 0
        caches._dir_free.extend(rows.tolist())


def local_hit_segment(
    machine,
    chiplet: int,
    keys_list: List[int],
    t0: float,
    per_issue_ns: float,
    mlp: float,
) -> Tuple[float, float]:
    """Service a run of local L3 hits: one bulk LRU touch + a clock replay.

    Preconditions (established by the caller's classification): every key
    is resident in ``chiplet``'s slice, and for write batches this chiplet
    is each block's *only* holder — so the scalar path's
    ``invalidate_others`` is a no-op and reads and writes service
    identically at the bare ``l3_hit`` latency.

    Hits touch no servers and carry no queue waits, so the whole run
    collapses to scalar arithmetic: the issue clock advances by one
    constant step (replayed bit-exactly with :func:`_chain`), the slowest
    completion is the last arrival plus the hit latency, and the LRU
    recency/hit-counter effects are one :meth:`CacheSystem.touch_run`.

    Returns ``(t_end, finish)``.
    """
    n = len(keys_list)
    ns = machine.latency.l3_hit
    step = ns / mlp  # hits have no queue wait: latency == ns
    if per_issue_ns > step:
        step = per_issue_ns
    t_last = _chain(t0, n - 1, step)
    machine.caches.touch_run(chiplet, keys_list)
    fl = machine._fill_lat
    fl[IDX_LOCAL_CHIPLET] = _chain(fl[IDX_LOCAL_CHIPLET], n, ns)
    return t_last + step, t_last + ns
