"""The three-tier cell answerer: hot cache → result store → warm pool.

One :class:`CellAnswerer` owns everything below the HTTP layer:

- **tier 1, hot cache** — an in-process LRU of deserialized results
  keyed by the content-addressed cell key.  Repeats of a recently
  answered cell never touch SQLite, let alone a worker process.
- **tier 2, result store** — the shared persistent
  :class:`~repro.bench.store.ResultStore` (the same file batch sweeps
  write), probed on a small thread pool so SQLite I/O never stalls the
  event loop.  A server restart, or a sweep that already ran this
  configuration, answers from here.
- **tier 3, simulation** — a persistent warm
  :class:`~concurrent.futures.ProcessPoolExecutor` running the exact
  ``run_cell`` machinery of the sweep engine.  Dispatch is
  work-conserving, with no timer on the path: the dispatcher hands a
  queued cell to the pool the moment it arrives, together with anything
  else already queued, ordered longest-job-first by the sweep's cost
  model and packed into chunks (amortizing executor IPC exactly like
  ``repro.bench.sweep``).  Chunks wait in the executor's FIFO behind
  busy workers, and each free worker takes the next one.

A :class:`~repro.serve.coalesce.SingleFlight` table sits in front of
tiers 2–3: the first request for a key becomes the flight leader and
every concurrent duplicate — same cell from another request — awaits
the leader's future instead of re-probing or re-simulating.

Every tier returns the identical JSON-native result the serial path
computes (store round-trips preserve every bit; the pool runs the same
``run_cell``), which is what makes service answers bit-identical to
``python -m repro run`` — pinned by ``tests/test_serve.py``.
"""

import asyncio
import multiprocessing
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.bench.cells import ExperimentCell
from repro.bench.cost import CostModel
from repro.bench import sweep
from repro.obs.wallclock import NULL_TRACE
from repro.serve.coalesce import SingleFlight
from repro.serve.stats import ServerStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.observe import ServeObservability

__all__ = ["CellAnswerer", "HOT_CACHE_SIZE"]

#: default hot-cache capacity (entries, not bytes — results are small)
HOT_CACHE_SIZE = 4096

#: hard cap on cells drained into one dispatch round
MAX_BATCH_CELLS = 1024

#: recalibrate the cost model from the store every this many batches
_COST_REFRESH_EVERY = 64


def _warm_worker() -> str:
    """Pool warm-up: import the experiment registry in each worker so
    the first real chunk pays no import latency (and spawn-start
    platforms learn the ``dse`` experiment before they need it)."""
    from repro.bench import dse, experiments  # noqa: F401

    return "warm"


class CellAnswerer:
    """Answer experiment cells through hot cache, store, and warm pool."""

    def __init__(self, jobs: int = 0, use_store: bool = True,
                 hot_cache_size: int = HOT_CACHE_SIZE,
                 stats: Optional[ServerStats] = None,
                 obs: Optional["ServeObservability"] = None):
        self.jobs = sweep.resolve_jobs(jobs)
        self.use_store = use_store
        self.stats = stats or ServerStats()
        self._obs = obs
        self._hot: "OrderedDict[str, Any]" = OrderedDict()
        self._hot_capacity = hot_cache_size
        self._flight = SingleFlight()
        # queue entries: (cell, key, trace, parent span, batch_window span)
        self._queue: "asyncio.Queue[Tuple[ExperimentCell, str, Any, int, int]]" \
            = asyncio.Queue()
        self._store = None
        self._io: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._chunk_tasks: "set[asyncio.Task]" = set()
        self._cost = CostModel()
        self._batches_since_calibration = 0
        self._recalibration: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Open the store, spin up (and warm) the pool, start dispatching."""
        self._loop = asyncio.get_running_loop()
        self._io = ThreadPoolExecutor(max_workers=2, thread_name_prefix="store-io")
        # the first cache_key() hashes every source file; pay that once,
        # off the event loop, before traffic arrives
        await self._loop.run_in_executor(self._io, sweep.code_version)
        if self.use_store:
            self._store = sweep.get_store()
            self._cost = await self._loop.run_in_executor(
                self._io, CostModel.from_store, self._store)
            if self._obs is not None and self._obs.enabled:
                store_stats = await self._loop.run_in_executor(
                    self._io, self._store.stats)
                mode = store_stats.get("journal_mode", "wal")
                if mode != "wal":
                    self._obs.flight.record("store_journal_fallback",
                                            journal_mode=mode)
        self._pool = self._new_pool()
        warmups = [self._loop.run_in_executor(self._pool, _warm_worker)
                   for _ in range(self.jobs)]
        await asyncio.gather(*warmups)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def _new_pool(self) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)

    async def stop(self) -> None:
        """Fail pending flights, flush queued persists, release executors."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        tasks = list(self._chunk_tasks)
        if self._recalibration is not None:
            tasks.append(self._recalibration)
            self._recalibration = None
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        while not self._queue.empty():
            _, key, trace, _, window_sid = self._queue.get_nowait()
            trace.end(window_sid)
            self._flight.resolve(key, error=RuntimeError("server shutting down"))
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._io is not None:
            # wait=True: results already handed to clients have their
            # store writes queued here; flush them before the process
            # can exit so a restarted server answers from the store tier
            self._io.shutdown(wait=True)
            self._io = None

    # -- the answer path --------------------------------------------------------

    def _hot_get(self, key: str) -> Tuple[bool, Any]:
        try:
            result = self._hot[key]
        except KeyError:
            return False, None
        self._hot.move_to_end(key)
        return True, result

    def _hot_put(self, key: str, result: Any) -> None:
        self._hot[key] = result
        self._hot.move_to_end(key)
        while len(self._hot) > self._hot_capacity:
            self._hot.popitem(last=False)

    async def answer(self, cell: ExperimentCell, trace: Any = NULL_TRACE,
                     parent: int = 0) -> Tuple[Any, str]:
        """Answer one cell: ``(result, tier)``.

        ``tier`` is ``"hot"`` / ``"store"`` / ``"computed"`` for flight
        leaders and ``"coalesced"`` for duplicates that attached to an
        existing flight.  The stats object is updated here, so every
        cell of every request is accounted exactly once.  A sampled
        request passes its ``trace`` + parent span id through; the
        default :data:`NULL_TRACE` makes every span call a no-op.
        """
        sid = trace.begin("hot_probe", parent, cell=cell.cell_id)
        key = sweep.cache_key(cell)
        hit, result = self._hot_get(key)
        trace.end(sid)
        if hit:
            self.stats.cell_answered("hot")
            return result, "hot"

        waiting = self._flight.wait_for(key)
        if waiting is not None:
            sid = trace.begin("coalesce_wait", parent, cell=cell.cell_id)
            result = await waiting
            trace.end(sid)
            self.stats.cell_answered("coalesced")
            return result, "coalesced"

        leader_future = self._flight.leader(key)
        try:
            if self._store is not None:
                sid = trace.begin("store_probe", parent, cell=cell.cell_id)
                hit, result = await self._loop.run_in_executor(
                    self._io, self._store.get, key)
                trace.end(sid)
                if hit:
                    self._hot_put(key, result)
                    self._flight.resolve(key, result)
                    self.stats.cell_answered("store")
                    return result, "store"
            window_sid = trace.begin("batch_window", parent, cell=cell.cell_id)
            self._queue.put_nowait((cell, key, trace, parent, window_sid))
        except BaseException as exc:
            self._flight.resolve(key, error=exc)
            raise
        result = await leader_future
        self.stats.cell_answered("computed")
        return result, "computed"

    # -- tier 3: work-conserving dispatcher ------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain queued cells into LJF-ordered packed chunks, forever.

        A cell leaves as soon as the loop wakes for it, with whatever
        else is queued by then: the executor, not a timer, holds chunks
        back while every worker is busy."""
        while True:
            batch = [await self._queue.get()]
            while len(batch) < MAX_BATCH_CELLS and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            for _, _, trace, _, window_sid in batch:
                trace.end(window_sid)
            if self._obs is not None:
                self._obs.on_batch(len(batch))
            self._submit_batch(batch)
            self._maybe_recalibrate()

    def _submit_batch(
            self, batch: List[Tuple[ExperimentCell, str, Any, int, int]]) -> None:
        """LJF-order one batch, pack it into chunks, fan out to the pool."""
        entry_of = {cell.cell_id: (key, trace, parent)
                    for cell, key, trace, parent, _ in batch}
        ordered = sweep._order_cells([cell for cell, *_ in batch],
                                     self._cost, "ljf")
        for chunk in sweep._pack_chunks(ordered, self._cost, self.jobs):
            entries = [(cell,) + entry_of[cell.cell_id] for cell in chunk]
            task = asyncio.create_task(self._run_chunk(entries))
            self._chunk_tasks.add(task)
            task.add_done_callback(self._chunk_tasks.discard)

    def _maybe_recalibrate(self) -> None:
        """Every so many batches, refresh the cost model from the store
        in the background (one refresh at a time): the SQLite scan never
        stalls the dispatch of queued cells."""
        self._batches_since_calibration += 1
        if (self._store is None
                or self._batches_since_calibration < _COST_REFRESH_EVERY
                or (self._recalibration is not None
                    and not self._recalibration.done())):
            return
        self._batches_since_calibration = 0
        self._recalibration = asyncio.create_task(self._recalibrate())

    async def _recalibrate(self) -> None:
        try:
            self._cost = await self._loop.run_in_executor(
                self._io, CostModel.from_store, self._store)
        except Exception as exc:  # keep dispatching on the previous model
            if self._obs is not None and self._obs.enabled:
                self._obs.flight.record("cost_refresh_error", error=repr(exc))

    async def _run_chunk(
            self, entries: List[Tuple[ExperimentCell, str, Any, int]]) -> None:
        """Run one packed chunk on the pool; resolve and persist results."""
        cells = [cell for cell, *_ in entries]
        pool = self._pool
        t0 = time.perf_counter()
        try:
            outs = await self._loop.run_in_executor(
                pool, sweep._execute_chunk, cells, False)
        except asyncio.CancelledError:
            for _, key, _, _ in entries:
                self._flight.resolve(
                    key, error=RuntimeError("server shutting down"))
            raise
        except BaseException as exc:
            for _, key, _, _ in entries:
                self._flight.resolve(key, error=exc)
            if isinstance(exc, BrokenExecutor):
                self._replace_broken_pool(pool, exc)
            return
        t1 = time.perf_counter()
        for (cell, key, trace, parent), (result, wall_s) in zip(entries, outs):
            trace.add("pool_execute", t0, t1, parent, cell=cell.cell_id,
                      chunk_cells=len(cells), cell_wall_s=round(wall_s, 6))
            # persist first, fire-and-forget on the io pool: by the time
            # any waiter can observe the answer the store write is already
            # queued, and stop() flushes the io pool before releasing it —
            # a client that got an answer can rely on a restarted server
            # finding it in the store
            if self._store is not None and self._io is not None:
                try:
                    self._io.submit(self._persist, cell, result, wall_s,
                                    trace, parent)
                except RuntimeError:  # raced with shutdown
                    pass
            # hot-insert before resolving so a request arriving between
            # the two never misses both the flight and the cache
            self._hot_put(key, result)
            self._flight.resolve(key, result)

    def _replace_broken_pool(self, broken: Optional[ProcessPoolExecutor],
                             exc: BaseException) -> None:
        """A worker died mid-chunk: swap in a fresh pool so the next
        batch computes instead of failing forever.  Guarded against
        concurrent chunks racing the same restart."""
        if broken is None or broken is not self._pool:
            return  # another chunk already swapped the pool
        if self._obs is not None and self._obs.enabled:
            self._obs.flight.record("pool_restart", error=repr(exc),
                                    jobs=self.jobs)
        self._pool = self._new_pool()
        broken.shutdown(wait=False, cancel_futures=True)

    def _persist(self, cell: ExperimentCell, result: Any, wall_s: float,
                 trace: Any = NULL_TRACE, parent: int = 0) -> None:
        """Thread-side: write one computed result through the store."""
        t0 = time.perf_counter()
        try:
            self._store.put(
                sweep.cache_key(cell), cell_id=cell.cell_id,
                experiment=cell.experiment, code_version=sweep.code_version(),
                result=result, wall_s=wall_s, work_units=cell.work_hint())
        except Exception as exc:
            if self._obs is not None and self._obs.enabled:
                self._obs.flight.record("store_put_error", cell=cell.cell_id,
                                        error=repr(exc))
            raise
        trace.add("store_put", t0, time.perf_counter(), parent,
                  cell=cell.cell_id)

    # -- introspection ----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "hot_cache_entries": len(self._hot),
            "hot_cache_capacity": self._hot_capacity,
            "inflight_keys": len(self._flight),
            "queued_cells": self._queue.qsize(),
            "chunks_in_flight": len(self._chunk_tasks),
            "store": self.use_store,
        }
