"""Partitioned L3 cache model.

Each chiplet owns a private L3 slice, modelled as a byte-budgeted LRU over
*blocks*.  A block is a region-specific modelling granule (a group of
consecutive cache lines — e.g. 512 B for sparse CSR adjacency data, 4 KiB
for dense arrays); capacity accounting is in bytes so regions with
different granularities coexist honestly in one slice.

A global directory records which chiplets currently hold a copy of each
block so that fills can be served from a peer chiplet's L3 (at
inter-chiplet latency) instead of DRAM, and so that writes can invalidate
remote sharers — the two effects that give chiplet-aware placement its
performance edge in the paper.

Layout.  Both structures are plain dicts:

* ``ChipletCache._lru``: ``{block: resident bytes}``, insertion-ordered
  with the least recent first (the dict's C-level order *is* the LRU
  order).
* ``CacheSystem._dir``: ``{block: holder mask}``, where bit *c* set means
  chiplet *c* holds the block.

The bitmask keeps the min-id-holder rule a lowest-set-bit extraction, and
a holder set costs one int instead of a ``set`` object; the vector
kernels in :mod:`repro.hw.vector` read a batch's masks with one C-level
``dict.get`` map.  ``directory`` remains available as a ``{block: set}``
snapshot property.
"""

import sys
from collections import deque
from itertools import islice, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.hw.topology import Topology


class ChipletCache:
    """One chiplet's L3 slice: a byte-budgeted LRU of block keys.

    State is ``_lru``, a ``{block: resident bytes}`` dict in LRU order
    (least recent first).
    """

    __slots__ = ("chiplet", "capacity_bytes", "used_bytes", "_lru", "hits",
                 "misses", "evictions", "_uniform_nb")

    def __init__(self, chiplet: int, capacity_bytes: int):
        if capacity_bytes < 64:
            raise ValueError("cache capacity must hold at least one line")
        self.chiplet = chiplet
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._lru: Dict[int, int] = {}
        # Resident-entry size summary: 0 = empty slice, an int = every
        # entry is that many bytes, None = mixed sizes.  Lets fill_run
        # and the gather kernel compute eviction prefixes with integer
        # arithmetic instead of a cumulative sum over the whole slice.
        self._uniform_nb: Optional[int] = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, block: int) -> bool:
        return block in self._lru

    def touch(self, block: int) -> bool:
        """Look up ``block``; on hit, refresh its LRU position."""
        lru = self._lru
        nb = lru.pop(block, None)
        if nb is not None:
            lru[block] = nb
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, block: int, nbytes: int) -> List[int]:
        """Insert ``block`` (``nbytes`` resident); return evicted block keys."""
        if nbytes <= 0:
            raise ValueError(f"cannot insert block with nbytes={nbytes}; must be positive")
        lru = self._lru
        nb = lru.pop(block, None)
        if nb is not None:
            lru[block] = nb  # refresh recency
            return []
        evicted: List[int] = []
        nbytes = min(nbytes, self.capacity_bytes)
        while self.used_bytes + nbytes > self.capacity_bytes and lru:
            victim = next(iter(lru))
            self.used_bytes -= lru.pop(victim)
            self.evictions += 1
            evicted.append(victim)
        if not lru:
            self._uniform_nb = nbytes
        elif self._uniform_nb != nbytes:
            self._uniform_nb = None
        lru[block] = nbytes
        self.used_bytes += nbytes
        return evicted

    def drop(self, block: int) -> bool:
        """Remove ``block`` without counting it as an eviction (invalidate)."""
        nb = self._lru.pop(block, None)
        if nb is None:
            return False
        self.used_bytes -= nb
        if not self._lru:
            self._uniform_nb = 0
        return True

    def drop_run(self, blocks: Sequence[int]) -> None:
        """Bulk :meth:`drop` of distinct blocks that are all resident."""
        self.used_bytes -= sum(map(self._lru.pop, blocks))
        if not self._lru:
            self._uniform_nb = 0

    def blocks(self) -> Iterable[int]:
        return self._lru.keys()


class CacheSystem:
    """All chiplet L3 slices plus the cross-chiplet sharing directory.

    The directory is the model-level stand-in for the hardware coherence
    directory on the IO die.  It is stored as ``{block: holder mask}``:
    bit *c* set means chiplet *c* caches the block, and a block no slice
    holds has no entry.  ``directory`` exposes the classic
    ``{block: set}`` view as a snapshot for tests and tooling; mutation
    goes through the methods below (e.g. :meth:`remove_holder`).
    """

    def __init__(self, topo: Topology, capacity_bytes_per_chiplet: int):
        if topo.total_chiplets > 63:
            raise ValueError("bitmask directory supports at most 63 chiplets")
        self.topo = topo
        self.caches: List[ChipletCache] = [
            ChipletCache(ch, capacity_bytes_per_chiplet) for ch in range(topo.total_chiplets)
        ]
        self._dir: Dict[int, int] = {}
        self._socket_of = topo.socket_of_chiplet_table
        # Per-socket chiplet bitmasks: the same-socket-preferred holder
        # rule is two AND operations against these.
        n_sockets = max(self._socket_of) + 1
        self._socket_mask: List[int] = [0] * n_sockets
        for ch in range(topo.total_chiplets):
            self._socket_mask[self._socket_of[ch]] |= 1 << ch
        # Telemetry event bus (repro.obs) or None.  The bulk entry points
        # below emit one event per *run* (the vector kernels' granularity),
        # guarded by a single None check — nothing fires per block.
        self.obs = None

    @property
    def directory(self) -> Dict[int, Set[int]]:
        """Snapshot of the directory as ``{block: {chiplet ids}}``.

        Built fresh on each access from the holder masks; mutating the
        returned dict does not change the directory.  Use
        :meth:`remove_holder` / :meth:`fill` / :meth:`drop_everywhere`
        to mutate.
        """
        out: Dict[int, Set[int]] = {}
        for block, m in self._dir.items():
            holders = set()
            while m:
                low = m & -m
                holders.add(low.bit_length() - 1)
                m ^= low
            out[block] = holders
        return out

    def _dir_clear_bit(self, block: int, bit: int) -> None:
        d = self._dir
        m = d.get(block)
        if m is None:
            return
        m &= ~bit
        if m:
            d[block] = m
        else:
            del d[block]

    def _dir_clear_bit_run(self, blocks: Sequence[int], bit: int) -> None:
        """Bulk :meth:`_dir_clear_bit` of distinct blocks that all hold
        ``bit``.  In the steady state no peer shares one, so every entry
        simply goes; a shared one re-enters with the peers' bits."""
        d = self._dir
        masks = list(map(d.pop, blocks))
        if masks.count(bit) != len(masks):
            d.update((b, m & ~bit) for b, m in zip(blocks, masks) if m != bit)

    def remove_holder(self, block: int, chiplet: int) -> None:
        """Drop ``chiplet``'s copy of ``block`` from its slice and the
        directory (not counted as an eviction)."""
        self.caches[chiplet].drop(block)
        self._dir_clear_bit(block, 1 << chiplet)

    def lookup_local(self, chiplet: int, block: int) -> bool:
        """Local-slice lookup with LRU refresh."""
        return self.caches[chiplet].touch(block)

    def find_holder(self, chiplet: int, block: int) -> Optional[int]:
        """Find a peer chiplet holding ``block``, preferring the same socket.

        Within each distance class the *minimum-id* holder wins, so the
        chosen fill source is a pure function of the directory contents —
        with the bitmask encoding that is simply the lowest set bit of
        the same-socket candidates (falling back to all remote ones).

        Returns ``None`` when no L3 slice holds the block (DRAM fill needed).
        """
        m = self._dir.get(block, 0) & ~(1 << chiplet)
        if not m:
            return None
        same = m & self._socket_mask[self._socket_of[chiplet]]
        cand = same if same else m
        return ((cand & -cand).bit_length()) - 1

    def fill(self, chiplet: int, block: int, nbytes: int) -> List[int]:
        """Install ``block`` into ``chiplet``'s slice; return evicted keys."""
        evicted = self.caches[chiplet].insert(block, nbytes)
        bit = 1 << chiplet
        for victim in evicted:
            self._dir_clear_bit(victim, bit)
        d = self._dir
        d[block] = d.get(block, 0) | bit
        return evicted

    def touch_run(self, chiplet: int, blocks: Sequence[int]) -> None:
        """Bulk LRU touch: refresh the recency of ``blocks`` in batch order.

        Exact equivalent of calling ``caches[chiplet].touch(b)`` once per
        block in order — including the hit counter — under the local-hit
        kernel's precondition that every block is resident.  A touched
        block moves to the back of the LRU ordered by its *last*
        occurrence, so the scalar pop/reinsert loop collapses into one
        bulk delete plus one bulk re-insert (resident sizes ride along
        unchanged).  If any block turns out non-resident the whole run
        falls back to the scalar touch loop (counting its misses exactly),
        so callers may probe with it.
        """
        obs = self.obs
        if obs is not None:
            obs.emit("cache.touch_run", {"chiplet": chiplet, "n": len(blocks)})
        cache = self.caches[chiplet]
        lru = cache._lru
        n = len(blocks)
        # Steady-state fast path: when the slice's most-recent entries are
        # exactly ``blocks`` in run order (the cache-resident re-read loop,
        # where every pass replays the same run), re-touching them is an
        # order no-op — each block already sits where its touch would move
        # it.  One C-level list compare proves it, and only the hit counter
        # needs updating.  A key sequence equal to distinct dict keys is
        # itself distinct, so duplicates can never take this path.
        if len(lru) >= n and list(lru)[len(lru) - n:] == blocks:
            cache.hits += n
            return
        try:
            sizes = [lru[b] for b in blocks]
        except KeyError:
            touch = cache.touch
            for b in blocks:
                touch(b)
            return
        # Last-occurrence wins: the dict dedupe over the reversed run keeps
        # each block's final occurrence, and reversing the items again
        # restores ascending last-occurrence order for the re-insert.
        uniq = dict(zip(reversed(blocks), reversed(sizes)))
        deque(map(lru.__delitem__, uniq), maxlen=0)
        lru.update(reversed(uniq.items()))
        cache.hits += len(blocks)

    def fill_run(self, chiplet: int, blocks: Sequence[int], nbytes: int) -> int:
        """Bulk-install ``blocks`` into ``chiplet``'s slice; return evictions.

        Exact equivalent of calling :meth:`fill` once per block *in order*,
        under the preconditions the DRAM-fill kernel guarantees: the
        blocks are distinct, uniformly ``nbytes`` large, and resident in
        **no** slice (so no LRU refreshes, and inserts create fresh
        singleton directory entries).

        Because every insert is the same size and evictions pop from the
        LRU front, the victim set is a *prefix* of the current LRU order —
        possibly followed by a prefix of ``blocks`` itself when the run
        overflows the slice capacity.  When the slice's resident entries
        are uniformly sized (the streaming steady state, tracked by
        ``_uniform_nb``) the prefix is pure integer arithmetic; mixed
        slices pay one cumulative sum over the resident sizes in LRU
        order.  The survivors then enter both dicts in one bulk update
        each.
        """
        obs = self.obs
        if obs is not None:
            obs.emit("cache.fill_run", {"chiplet": chiplet, "n": len(blocks)})
        cache = self.caches[chiplet]
        cap = cache.capacity_bytes
        if nbytes <= 0:
            raise ValueError(f"cannot insert block with nbytes={nbytes}; must be positive")
        nb = min(nbytes, cap)
        k = len(blocks)
        lru = cache._lru
        d = self._dir
        len0 = len(lru)
        used0 = cache.used_bytes
        bit = 1 << chiplet
        overflow = used0 + k * nb - cap
        n_evicted = 0
        first_kept = 0  # blocks[:first_kept] are self-evicted by later inserts
        if overflow > 0:
            uni = cache._uniform_nb
            if uni is not None and len0 * (uni or 0) == used0:
                # Every resident entry is `uni` bytes (used0 == len0*uni
                # re-checks the bookkeeping): prefix math is integer-only.
                if len0 and overflow <= used0:
                    n_evicted = -(-overflow // uni)
                    evicted_bytes = n_evicted * uni
                else:
                    n_evicted = len0
                    evicted_bytes = used0
                    first_kept = -(-(overflow - evicted_bytes) // nb)
            else:
                cum = np.cumsum(np.fromiter(lru.values(), dtype=np.int64,
                                            count=len0))
                if len0 and overflow <= int(cum[-1]):
                    # A prefix of the existing entries covers the overflow.
                    n_evicted = int(np.searchsorted(cum, overflow, side="left")) + 1
                    evicted_bytes = int(cum[n_evicted - 1])
                else:
                    # Everything resident goes, plus a prefix of this run.
                    n_evicted = len0
                    evicted_bytes = int(cum[-1]) if len0 else 0
                    first_kept = -(-(overflow - evicted_bytes) // nb)
            if n_evicted == len0:
                # Whole-slice turnover: one C-level clear instead of a
                # per-victim delete loop.
                victims = list(lru)
                lru.clear()
            else:
                victims = list(islice(lru, n_evicted))
                deque(map(lru.__delitem__, victims), maxlen=0)
            self._dir_clear_bit_run(victims, bit)
            cache.used_bytes = used0 - evicted_bytes
        cache.evictions += n_evicted + first_kept
        if n_evicted == len0 or cache._uniform_nb == 0:
            cache._uniform_nb = nb
        elif cache._uniform_nb != nb:
            cache._uniform_nb = None
        n_ins = k - first_kept
        if n_ins:
            cache.used_bytes += n_ins * nb
            survivors = blocks[first_kept:] if first_kept else blocks
            # Pairs, not a dict.fromkeys temporary: a run can be as long
            # as the slice, and a transient dict that size raises peak RSS.
            lru.update(zip(survivors, repeat(nb)))
            # Precondition (blocks resident in no slice) + the directory
            # invariant (membership == residency in some slice) guarantee
            # none of the inserted blocks has a directory entry yet.
            d.update(zip(survivors, repeat(bit)))
        return n_evicted + first_kept

    def invalidate_others(self, chiplet: int, block: int) -> int:
        """Drop every copy of ``block`` except ``chiplet``'s; return count."""
        d = self._dir
        m = d.get(block, 0)
        bit = 1 << chiplet
        others = m & ~bit
        if not others:
            return 0
        count = others.bit_count()
        caches = self.caches
        while others:
            low = others & -others
            caches[low.bit_length() - 1].drop(block)
            others ^= low
        if m & bit:
            d[block] = bit
        else:
            del d[block]
        return count

    def drop_everywhere(self, block: int) -> int:
        """Flush a block from all slices (used by region free)."""
        m = self._dir.pop(block, 0)
        count = m.bit_count()
        caches = self.caches
        while m:
            low = m & -m
            caches[low.bit_length() - 1].drop(block)
            m ^= low
        return count

    def resident_bytes(self, chiplet: int) -> int:
        return self.caches[chiplet].used_bytes

    def stats(self) -> Dict:
        """Hit/miss/eviction statistics per slice plus machine-wide totals.

        Consumed by the telemetry summary and handy for debugging
        capacity effects in experiments.
        """
        per_chiplet = []
        hits = misses = evictions = resident = blocks = 0
        for c in self.caches:
            per_chiplet.append({
                "chiplet": c.chiplet,
                "hits": c.hits,
                "misses": c.misses,
                "evictions": c.evictions,
                "resident_bytes": c.used_bytes,
                "blocks": len(c),
            })
            hits += c.hits
            misses += c.misses
            evictions += c.evictions
            resident += c.used_bytes
            blocks += len(c)
        lookups = hits + misses
        return {
            "per_chiplet": per_chiplet,
            "total": {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "resident_bytes": resident,
                "blocks": blocks,
                "hit_rate": hits / lookups if lookups else 0.0,
            },
        }

    def state_nbytes(self) -> int:
        """Resident footprint of the cache state, in bytes.

        Counts the directory dict, every slice's LRU dict, and each holder
        mask above 256 (outside CPython's small-int cache, so a separate
        int object) — everything the cache/directory state owns.
        Compared by the memory smoke test against
        :meth:`dict_layout_nbytes`.
        """
        d = self._dir
        total = sys.getsizeof(d)
        total += sum(sys.getsizeof(m) for m in d.values() if m > 256)
        for c in self.caches:
            total += sys.getsizeof(c._lru)
        return total

    def dict_layout_nbytes(self) -> int:
        """Modelled footprint of a ``{block: set(holders)}`` directory plus
        one ``{block: nbytes}`` dict per slice, for the same contents *and
        churn history*.  The mask directory sees the identical
        insert/delete sequence a set directory would (same keys, same
        order), so its measured size doubles as that dict's size; the
        per-entry holder sets — the objects the bitmask replaces — are
        materialized and measured with ``sys.getsizeof``.  Keys and
        resident sizes are shared either way and counted by neither."""
        total = sys.getsizeof(self._dir)
        total += sum(sys.getsizeof(h) for h in self.directory.values())
        for c in self.caches:
            total += sys.getsizeof(c._lru)
        return total

    def check_directory_consistent(self) -> bool:
        """Invariant: directory and per-slice contents agree exactly."""
        caches = self.caches
        d = self._dir
        for block, m in d.items():
            if not m:
                return False
            while m:
                low = m & -m
                if block not in caches[low.bit_length() - 1]:
                    return False
                m ^= low
        for cache in caches:
            bit = 1 << cache.chiplet
            for block in cache.blocks():
                if not d.get(block, 0) & bit:
                    return False
        return True
