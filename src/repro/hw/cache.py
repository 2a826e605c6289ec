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
a holder set costs one int instead of a ``set`` object.  ``directory``
remains available as a ``{block: set}`` snapshot property.
"""

import sys
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.hw.topology import Topology


class ChipletCache:
    """One chiplet's L3 slice: a byte-budgeted LRU of block keys.

    State is ``_lru``, a ``{block: resident bytes}`` dict in LRU order
    (least recent first).
    """

    __slots__ = ("chiplet", "capacity_bytes", "used_bytes", "_lru", "hits",
                 "misses", "evictions")

    def __init__(self, chiplet: int, capacity_bytes: int):
        if capacity_bytes < 64:
            raise ValueError("cache capacity must hold at least one line")
        self.chiplet = chiplet
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._lru: Dict[int, int] = {}
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
        lru[block] = nbytes
        self.used_bytes += nbytes
        return evicted

    def drop(self, block: int) -> bool:
        """Remove ``block`` without counting it as an eviction (invalidate)."""
        nb = self._lru.pop(block, None)
        if nb is None:
            return False
        self.used_bytes -= nb
        return True

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
        # Telemetry event bus (repro.obs) or None.  The bulk touch below
        # emits one event per *run* (the local-hit kernel's granularity),
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
