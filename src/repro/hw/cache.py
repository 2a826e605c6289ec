"""Partitioned L3 cache model, stored structure-of-arrays.

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

Layout.  Both structures are split into an *index map* (a plain dict,
whose C-level insertion order doubles as the LRU order for slices) and
numpy ``int64`` columns addressed by slot number:

* ``ChipletCache._slot``: ``block -> slot`` (least recent first), with
  resident sizes in the ``_sizes`` column and a free-slot stack.
* ``CacheSystem._dir_slot``: ``block -> slot`` into the ``_dir_mask``
  column, where bit *c* set means chiplet *c* holds the block.

The columns are what make the gather kernel in :mod:`repro.hw.vector`
possible: classification of an arbitrary unsorted batch is one C-level
``dict.get`` map plus fancy indexing into ``_dir_mask`` — no per-block
set objects to walk.  The min-id-holder rule becomes a lowest-set-bit
extraction, and a holder set costs 8 bytes instead of a ``set`` object.
The public API is unchanged; ``directory`` and ``_lru`` remain available
as read-only snapshot properties.
"""

import sys
from collections import deque
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.hw.topology import Topology


class ChipletCache:
    """One chiplet's L3 slice: a byte-budgeted LRU of block keys.

    State is a slot map (``_slot``, insertion-ordered: least recent
    first) plus an ``int64`` size column (``_sizes``) indexed by slot.
    Slot numbers are recycled through ``_free`` and carry no meaning
    beyond addressing a row; LRU order lives entirely in the dict.
    """

    __slots__ = ("chiplet", "capacity_bytes", "used_bytes", "_slot", "_sizes",
                 "_free", "hits", "misses", "evictions", "_uniform_nb")

    _GROW = 256

    def __init__(self, chiplet: int, capacity_bytes: int):
        if capacity_bytes < 64:
            raise ValueError("cache capacity must hold at least one line")
        self.chiplet = chiplet
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._slot: Dict[int, int] = {}
        self._sizes = np.zeros(self._GROW, dtype=np.int64)
        self._free: List[int] = list(range(self._GROW - 1, -1, -1))
        # Resident-entry size summary: 0 = empty slice, an int = every
        # entry is that many bytes, None = mixed sizes.  Lets fill_run
        # and the gather kernel compute eviction prefixes with integer
        # arithmetic instead of a cumulative sum over the whole slice.
        self._uniform_nb: Optional[int] = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, block: int) -> bool:
        return block in self._slot

    @property
    def _lru(self) -> Dict[int, int]:
        """Snapshot ``{block: resident bytes}`` in LRU order (compat view)."""
        sizes = self._sizes
        return {b: int(sizes[s]) for b, s in self._slot.items()}

    def _grow(self) -> None:
        n = self._sizes.size
        self._sizes = np.concatenate([self._sizes, np.zeros(n, dtype=np.int64)])
        self._free.extend(range(2 * n - 1, n - 1, -1))

    def _take_slots(self, k: int) -> List[int]:
        """Pop ``k`` free slot numbers (grows the column as needed)."""
        free = self._free
        while len(free) < k:
            self._grow()
            free = self._free
        taken = free[len(free) - k:]
        del free[len(free) - k:]
        return taken

    def touch(self, block: int) -> bool:
        """Look up ``block``; on hit, refresh its LRU position."""
        s = self._slot.pop(block, None)
        if s is not None:
            self._slot[block] = s
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, block: int, nbytes: int) -> List[int]:
        """Insert ``block`` (``nbytes`` resident); return evicted block keys."""
        if nbytes <= 0:
            raise ValueError(f"cannot insert block with nbytes={nbytes}; must be positive")
        slot_map = self._slot
        s = slot_map.pop(block, None)
        if s is not None:
            slot_map[block] = s  # refresh recency
            return []
        evicted: List[int] = []
        nbytes = min(nbytes, self.capacity_bytes)
        sizes = self._sizes
        free = self._free
        while self.used_bytes + nbytes > self.capacity_bytes and slot_map:
            victim = next(iter(slot_map))
            vs = slot_map.pop(victim)
            self.used_bytes -= int(sizes[vs])
            free.append(vs)
            self.evictions += 1
            evicted.append(victim)
        if not slot_map:
            self._uniform_nb = nbytes
        elif self._uniform_nb != nbytes:
            self._uniform_nb = None
        s = self._take_slots(1)[0]
        self._sizes[s] = nbytes
        slot_map[block] = s
        self.used_bytes += nbytes
        return evicted

    def drop(self, block: int) -> bool:
        """Remove ``block`` without counting it as an eviction (invalidate)."""
        s = self._slot.pop(block, None)
        if s is None:
            return False
        self.used_bytes -= int(self._sizes[s])
        self._free.append(s)
        if not self._slot:
            self._uniform_nb = 0
        return True

    def drop_run(self, blocks: Sequence[int]) -> None:
        """Bulk :meth:`drop` of distinct blocks that are all resident."""
        slots = list(map(self._slot.pop, blocks))
        uni = self._uniform_nb
        self.used_bytes -= (len(slots) * uni if uni
                            else int(self._sizes[slots].sum()))
        self._free.extend(slots)
        if not self._slot:
            self._uniform_nb = 0

    def blocks(self) -> Iterable[int]:
        return self._slot.keys()

    def clear(self) -> None:
        self._slot.clear()
        self._free = list(range(self._sizes.size - 1, -1, -1))
        self.used_bytes = 0
        self._uniform_nb = 0


class CacheSystem:
    """All chiplet L3 slices plus the cross-chiplet sharing directory.

    The directory is the model-level stand-in for the hardware coherence
    directory on the IO die.  It is stored as ``block -> slot`` into an
    ``int64`` bitmask column: bit *c* set means chiplet *c* caches the
    block.  ``directory`` exposes the classic ``{block: set}`` view as a
    snapshot for tests and tooling; mutation goes through the methods
    below (e.g. :meth:`remove_holder`).
    """

    _DIR_GROW = 1024

    def __init__(self, topo: Topology, capacity_bytes_per_chiplet: int):
        if topo.total_chiplets > 63:
            raise ValueError("bitmask directory supports at most 63 chiplets")
        self.topo = topo
        self.caches: List[ChipletCache] = [
            ChipletCache(ch, capacity_bytes_per_chiplet) for ch in range(topo.total_chiplets)
        ]
        self._dir_slot: Dict[int, int] = {}
        self._dir_mask = np.zeros(self._DIR_GROW, dtype=np.int64)
        self._dir_free: List[int] = list(range(self._DIR_GROW - 1, -1, -1))
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
    def capacity_bytes_per_chiplet(self) -> int:
        return self.caches[0].capacity_bytes

    @property
    def directory(self) -> Dict[int, Set[int]]:
        """Snapshot of the directory as ``{block: {chiplet ids}}``.

        Built fresh on each access from the bitmask column; mutating the
        returned dict does not change the directory.  Use
        :meth:`remove_holder` / :meth:`fill` / :meth:`drop_everywhere`
        to mutate.
        """
        mask = self._dir_mask
        out: Dict[int, Set[int]] = {}
        for block, s in self._dir_slot.items():
            m = int(mask[s])
            holders = set()
            while m:
                low = m & -m
                holders.add(low.bit_length() - 1)
                m ^= low
            out[block] = holders
        return out

    def holders_mask(self, block: int) -> int:
        """Holder bitmask for ``block`` (0 when uncached)."""
        s = self._dir_slot.get(block)
        return 0 if s is None else int(self._dir_mask[s])

    def _dir_grow(self) -> None:
        n = self._dir_mask.size
        self._dir_mask = np.concatenate([self._dir_mask, np.zeros(n, dtype=np.int64)])
        self._dir_free.extend(range(2 * n - 1, n - 1, -1))

    def _dir_take_slots(self, k: int) -> List[int]:
        free = self._dir_free
        while len(free) < k:
            self._dir_grow()
            free = self._dir_free
        taken = free[len(free) - k:]
        del free[len(free) - k:]
        return taken

    def _dir_set_bit(self, block: int, bit: int) -> None:
        s = self._dir_slot.get(block)
        if s is None:
            s = self._dir_take_slots(1)[0]
            self._dir_mask[s] = bit
            self._dir_slot[block] = s
        else:
            self._dir_mask[s] |= bit

    def _dir_clear_bit(self, block: int, bit: int) -> None:
        s = self._dir_slot.get(block)
        if s is None:
            return
        m = int(self._dir_mask[s]) & ~bit
        self._dir_mask[s] = m
        if not m:
            del self._dir_slot[block]
            self._dir_free.append(s)

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
        s = self._dir_slot.get(block)
        if s is None:
            return None
        m = int(self._dir_mask[s]) & ~(1 << chiplet)
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
        self._dir_set_bit(block, bit)
        return evicted

    def touch_run(self, chiplet: int, blocks: Sequence[int]) -> None:
        """Bulk LRU touch: refresh the recency of ``blocks`` in batch order.

        Exact equivalent of calling ``caches[chiplet].touch(b)`` once per
        block in order — including the hit counter — under the local-hit
        kernel's precondition that every block is resident.  A touched
        block moves to the back of the LRU ordered by its *last*
        occurrence, so the scalar pop/reinsert loop collapses into one
        bulk delete plus one bulk re-insert (slot numbers ride along
        unchanged — recency lives in the dict, not the column).  If any
        block turns out non-resident the whole run falls back to the
        scalar touch loop (counting its misses exactly), so callers may
        probe with it.
        """
        obs = self.obs
        if obs is not None:
            obs.emit("cache.touch_run", {"chiplet": chiplet, "n": len(blocks)})
        cache = self.caches[chiplet]
        lru = cache._slot
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
            slots = [lru[b] for b in blocks]
        except KeyError:
            touch = cache.touch
            for b in blocks:
                touch(b)
            return
        # Last-occurrence wins: the dict dedupe over the reversed run keeps
        # each block's final occurrence, and reversing the items again
        # restores ascending last-occurrence order for the re-insert.
        uniq = dict(zip(reversed(blocks), reversed(slots)))
        deque(map(lru.__delitem__, uniq), maxlen=0)
        lru.update(reversed(uniq.items()))
        cache.hits += len(blocks)

    def _evict_prefix_dir(self, chiplet: int, victims: List[int]) -> None:
        """Clear ``chiplet``'s bit on every victim's directory entry,
        freeing entries that empty.  Vectorized for the steady state where
        no peer holds any victim (every mask is exactly this chiplet's
        bit): one fancy-indexed compare, one bulk delete."""
        dir_slot = self._dir_slot
        mask_col = self._dir_mask
        bit = 1 << chiplet
        vslots = np.fromiter(map(dir_slot.__getitem__, victims), dtype=np.int64,
                             count=len(victims))
        vmasks = mask_col[vslots]
        if not np.bitwise_and(vmasks, ~bit).any():
            mask_col[vslots] = 0
            deque(map(dir_slot.__delitem__, victims), maxlen=0)
            self._dir_free.extend(vslots.tolist())
        else:
            dir_free = self._dir_free
            for v, s, m in zip(victims, vslots.tolist(), vmasks.tolist()):
                m &= ~bit
                mask_col[s] = m
                if not m:
                    del dir_slot[v]
                    dir_free.append(s)

    def fill_run(self, chiplet: int, blocks: Sequence[int], nbytes: int,
                 shared: bool = False) -> int:
        """Bulk-install ``blocks`` into ``chiplet``'s slice; return evictions.

        Exact equivalent of calling :meth:`fill` once per block *in order*,
        under the preconditions the vectorized batch kernels guarantee:
        the blocks are distinct, uniformly ``nbytes`` large, and absent
        from ``chiplet``'s slice (so no LRU refreshes).  With
        ``shared=False`` (the DRAM-fill kernel) the blocks are resident in
        **no** slice, so inserts create fresh singleton directory entries.
        With ``shared=True`` (the peer-fill kernel) each block is already
        held by at least one other chiplet: inserts *join* the existing
        holder set (OR this chiplet's bit in) instead.

        Because every insert is the same size and evictions pop from the
        LRU front, the victim set is a *prefix* of the current LRU order —
        possibly followed by a prefix of ``blocks`` itself when the run
        overflows the slice capacity.  When the slice's resident entries
        are uniformly sized (the streaming steady state, tracked by
        ``_uniform_nb``) the prefix is pure integer arithmetic; mixed
        slices pay one integer cumulative sum over the size column.
        """
        obs = self.obs
        if obs is not None:
            obs.emit("cache.fill_run", {
                "chiplet": chiplet, "n": len(blocks), "shared": shared,
            })
        cache = self.caches[chiplet]
        cap = cache.capacity_bytes
        if nbytes <= 0:
            raise ValueError(f"cannot insert block with nbytes={nbytes}; must be positive")
        nb = min(nbytes, cap)
        k = len(blocks)
        lru = cache._slot
        len0 = len(lru)
        used0 = cache.used_bytes
        # Streaming steady-state fast path: a uniformly-sized full slice
        # whose contents turn over exactly (k inserts evict the len0
        # residents, none of the run self-evicts — guaranteed by
        # cap - nb < k*nb <= cap with k == len0).  Slot rows are reused
        # verbatim: the size column already reads ``nb`` everywhere, and
        # when no victim is shared every directory row already holds this
        # chiplet's singleton mask, so the whole fill is four C-level
        # dict passes plus one vectorized sharing check — no slot
        # free/take round-trip, no column writes.
        if (not shared and k == len0 and nb == cache._uniform_nb
                and len0 * nb == used0 and cap - nb < k * nb <= cap):
            victims = list(lru)
            vals = list(lru.values())
            lru.clear()
            dir_slot = self._dir_slot
            popped = list(map(dir_slot.pop, victims))
            bit = 1 << chiplet
            if np.bitwise_and(self._dir_mask[popped], ~bit).any():
                # Rare: a victim is shared with a peer.  Restore both
                # maps (same keys in the same order → identical state)
                # and take the general path below.
                lru.update(zip(victims, vals))
                dir_slot.update(zip(victims, popped))
            else:
                cache.evictions += len0
                cache.used_bytes = k * nb
                lru.update(zip(blocks, vals))
                dir_slot.update(zip(blocks, popped))
                return len0
        overflow = used0 + k * nb - cap
        n_evicted = 0
        first_kept = 0  # blocks[:first_kept] are self-evicted by later inserts
        recycled = None  # victims' directory rows reusable for the fills
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
                slots = np.fromiter(lru.values(), dtype=np.int64, count=len0)
                cum = np.cumsum(cache._sizes[slots])
                if slots.size and overflow <= int(cum[-1]):
                    # A prefix of the existing entries covers the overflow.
                    n_evicted = int(np.searchsorted(cum, overflow, side="left")) + 1
                    evicted_bytes = int(cum[n_evicted - 1])
                else:
                    # Everything resident goes, plus a prefix of this run.
                    n_evicted = slots.size
                    evicted_bytes = int(cum[-1]) if slots.size else 0
                    first_kept = -(-(overflow - evicted_bytes) // nb)
            if n_evicted == len0:
                # Whole-slice turnover: one C-level clear instead of a
                # per-victim delete loop.
                victims = list(lru)
                cache._free.extend(lru.values())
                lru.clear()
            else:
                victims = list(islice(lru, n_evicted))
                cache._free.extend(map(lru.pop, victims))
            if shared:
                self._evict_prefix_dir(chiplet, victims)
            else:
                # Steady-state recycling: when no peer holds any victim,
                # every victim row is exactly this chiplet's singleton
                # mask — the same row the fills below would mint.  Keep
                # the rows (masks unchanged), swap the dict keys.
                dir_slot = self._dir_slot
                vslots = np.fromiter(map(dir_slot.__getitem__, victims),
                                     dtype=np.int64, count=len(victims))
                bit_ = 1 << chiplet
                if not np.bitwise_and(self._dir_mask[vslots], ~bit_).any():
                    deque(map(dir_slot.__delitem__, victims), maxlen=0)
                    recycled = vslots
                else:
                    dir_free = self._dir_free
                    mask_col = self._dir_mask
                    for v, s, m in zip(victims, vslots.tolist(),
                                       self._dir_mask[vslots].tolist()):
                        m &= ~bit_
                        mask_col[s] = m
                        if not m:
                            del dir_slot[v]
                            dir_free.append(s)
            cache.used_bytes = used0 - evicted_bytes
        cache.evictions += n_evicted + first_kept
        if n_evicted == len0 or cache._uniform_nb == 0:
            cache._uniform_nb = nb
        elif cache._uniform_nb != nb:
            cache._uniform_nb = None
        n_ins = k - first_kept
        cache.used_bytes += n_ins * nb
        survivors = blocks[first_kept:] if first_kept else blocks
        if n_ins:
            new_slots = cache._take_slots(n_ins)
            cache._sizes[new_slots] = nb
            lru.update(zip(survivors, new_slots))
        bit = 1 << chiplet
        if shared:
            # Peer-fill mode: every inserted block is held by the serving
            # peer, so the requester *joins* the existing holder mask.  A
            # self-evicted prefix (blocks[:first_kept]) is a net directory
            # no-op — scalar fill adds this chiplet then eviction removes
            # it while the peer's copy keeps the entry alive — so only the
            # survivors are touched, matching the scalar end state.
            if n_ins:
                dir_slot = self._dir_slot
                ss = np.fromiter(map(dir_slot.__getitem__, survivors),
                                 dtype=np.int64, count=n_ins)
                self._dir_mask[ss] |= bit
            return n_evicted + first_kept
        # Precondition (blocks resident in no slice) + the directory
        # invariant (membership == residency in some slice) guarantee none
        # of the inserted blocks has a directory entry yet: mint fresh
        # singleton-mask rows in one bulk update (recycled victim rows
        # already hold this chiplet's singleton mask).
        if n_ins:
            if recycled is not None:
                r = recycled.size
                if r >= n_ins:
                    if r > n_ins:
                        tail = recycled[n_ins:]
                        self._dir_mask[tail] = 0
                        self._dir_free.extend(tail.tolist())
                    self._dir_slot.update(
                        zip(survivors, recycled[:n_ins].tolist()))
                else:
                    extra = self._dir_take_slots(n_ins - r)
                    self._dir_mask[extra] = bit
                    self._dir_slot.update(
                        zip(survivors, recycled.tolist() + extra))
            else:
                dslots = self._dir_take_slots(n_ins)
                self._dir_mask[dslots] = bit
                self._dir_slot.update(zip(survivors, dslots))
        elif recycled is not None:
            self._dir_mask[recycled] = 0
            self._dir_free.extend(recycled.tolist())
        return n_evicted + first_kept

    def invalidate_others(self, chiplet: int, block: int) -> int:
        """Drop every copy of ``block`` except ``chiplet``'s; return count."""
        s = self._dir_slot.get(block)
        if s is None:
            return 0
        bit = 1 << chiplet
        m = int(self._dir_mask[s])
        others = m & ~bit
        count = others.bit_count()
        caches = self.caches
        while others:
            low = others & -others
            caches[low.bit_length() - 1].drop(block)
            others ^= low
        if m & bit:
            self._dir_mask[s] = bit
        else:
            self._dir_mask[s] = 0
            del self._dir_slot[block]
            self._dir_free.append(s)
        return count

    def drop_everywhere(self, block: int) -> int:
        """Flush a block from all slices (used by region free)."""
        s = self._dir_slot.pop(block, None)
        if s is None:
            return 0
        m = int(self._dir_mask[s])
        self._dir_mask[s] = 0
        self._dir_free.append(s)
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

        Consumed by the sim-throughput perf report (``repro.bench.perf``)
        and handy for debugging capacity effects in experiments.
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
        """Resident footprint of the SoA cache state, in bytes.

        Counts the index-map dicts, the numpy columns, and the free-slot
        stacks — everything the cache/directory state owns.  Compared by
        the memory smoke test against :meth:`dict_layout_nbytes`.
        """
        total = (sys.getsizeof(self._dir_slot) + self._dir_mask.nbytes
                 + sys.getsizeof(self._dir_free))
        for c in self.caches:
            total += (sys.getsizeof(c._slot) + c._sizes.nbytes
                      + sys.getsizeof(c._free))
        return total

    def dict_layout_nbytes(self) -> int:
        """Modelled footprint of the pre-SoA dict-of-objects layout for the
        same contents *and churn history*: a ``{block: set(holders)}``
        directory plus one ``{block: nbytes}`` dict per slice.  The SoA
        index dicts see the identical insert/delete sequence the old
        containers did (same keys, same order), so their measured size
        doubles as the old containers' size; the per-entry holder sets —
        the objects the bitmask column replaces — are materialized and
        measured with ``sys.getsizeof``.  Keys and small-int values are
        shared either way and counted by neither."""
        total = sys.getsizeof(self._dir_slot)
        total += sum(sys.getsizeof(h) for h in self.directory.values())
        for c in self.caches:
            total += sys.getsizeof(c._slot)
        return total

    def check_directory_consistent(self) -> bool:
        """Invariant: directory and per-slice contents agree exactly."""
        caches = self.caches
        for block, s in self._dir_slot.items():
            m = int(self._dir_mask[s])
            if not m:
                return False
            while m:
                low = m & -m
                if block not in caches[low.bit_length() - 1]:
                    return False
                m ^= low
        dir_slot = self._dir_slot
        mask_col = self._dir_mask
        for cache in caches:
            bit = 1 << cache.chiplet
            for block in cache.blocks():
                s = dir_slot.get(block)
                if s is None or not (int(mask_col[s]) & bit):
                    return False
        return True
