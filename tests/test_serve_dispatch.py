"""The advisor's tier-3 dispatcher: no timer, batching, faults, shutdown.

Most tests drive :class:`~repro.serve.pool.CellAnswerer` directly with a
thread-backed stand-in for the process pool: ``sweep._execute_chunk`` is
replaced by a recorder that runs on threads, and a cell carrying
``block=<name>`` waits on the event of that name, which the test sets.
That makes "which chunk started when" observable and deterministic.
The worker-kill test uses the real process pool with a cell that
SIGKILLs its own worker.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

import repro.serve.pool as pool_mod
from repro.bench import sweep
from repro.bench.cells import REGISTRY, ExperimentCell, register
from repro.bench.cost import CostModel
from repro.serve.observe import ServeObservability
from repro.serve.pool import CellAnswerer
from repro.serve.stats import ServerStats

from tests.test_wallclock_obs import parse_exposition

#: upper bound on any single wait in these tests; a hang fails, not stalls
TIMEOUT_S = 30.0


def _cell(updates, **extra):
    """A stand-in cell whose work hint grows with ``updates``."""
    return ExperimentCell.make("stand_in", cores=1,
                               updates_per_worker=updates, **extra)


class StandIn:
    """Thread-side replacement for ``sweep._execute_chunk``."""

    def __init__(self):
        self.lock = threading.Lock()
        self.gates = {}
        self.chunks = []  # cell ids per chunk, in start order
        self.running = 0
        self.max_running = 0

    def gate(self, name=True):
        with self.lock:
            return self.gates.setdefault(name, threading.Event())

    def execute(self, chunk, telemetry):
        with self.lock:
            self.chunks.append([cell.cell_id for cell in chunk])
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        try:
            out = []
            for cell in chunk:
                name = cell.params.get("block")
                if name:
                    assert self.gate(name).wait(TIMEOUT_S), "gate never opened"
                out.append(({"cell": cell.cell_id}, 0.0))
            return out
        finally:
            with self.lock:
                self.running -= 1


@pytest.fixture
def stand_in(monkeypatch):
    fake = StandIn()
    monkeypatch.setattr(sweep, "_execute_chunk", fake.execute)
    monkeypatch.setattr(CellAnswerer, "_new_pool",
                        lambda self: ThreadPoolExecutor(self.jobs))
    yield fake
    for gate in list(fake.gates.values()):
        gate.set()  # never leave a pool thread blocked past the test


async def _started(jobs, use_store=False):
    stats = ServerStats()
    obs = ServeObservability(stats)
    answerer = CellAnswerer(jobs=jobs, use_store=use_store, stats=stats,
                            obs=obs)
    obs.bind(answerer)
    await answerer.start()
    return answerer, obs


async def _until(predicate):
    """Yield to the loop until ``predicate()`` holds (bounded)."""
    deadline = time.monotonic() + TIMEOUT_S
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def _spawn(answerer, cells):
    return [asyncio.ensure_future(answerer.answer(cell)) for cell in cells]


def test_idle_pool_starts_a_cell_without_a_timer(stand_in, monkeypatch):
    def no_timer(*args, **kwargs):
        raise AssertionError("a timer on the dispatch path")

    async def body():
        answerer, obs = await _started(jobs=1)
        try:
            trace = obs.tracer.sample(force=True)
            with monkeypatch.context() as patch:
                patch.setattr(pool_mod.asyncio, "sleep", no_timer)
                result, tier = await asyncio.wait_for(
                    answerer.answer(_cell(64), trace=trace), TIMEOUT_S)
            assert not answerer._dispatcher.done()
        finally:
            await answerer.stop()
        return result, tier, trace

    result, tier, trace = asyncio.run(body())
    assert tier == "computed"
    assert result == {"cell": _cell(64).cell_id}
    waits = [span for span in trace.spans if span[2] == "batch_window"]
    assert len(waits) == 1 and waits[0][4] is not None, trace.spans
    assert stand_in.chunks == [[_cell(64).cell_id]]


def _in_flight(answerer):
    return answerer.describe()["chunks_in_flight"]


def test_running_chunks_never_exceed_jobs(stand_in):
    async def body():
        answerer, _ = await _started(jobs=2)
        try:
            blocked = _spawn(answerer, [_cell(1, block=True),
                                        _cell(2, block=True)])
            await _until(lambda: stand_in.running == 2)
            # both workers busy: later cells are handed over, not started
            queued = _spawn(answerer, [_cell(n) for n in range(10, 16)])
            await _until(lambda: _in_flight(answerer) > 2)
            assert len(stand_in.chunks) == 2
            stand_in.gate().set()
            # staggered arrivals while the backlog drains
            late = []
            for n in range(20, 32):
                late += _spawn(answerer, [_cell(n)])
                await asyncio.sleep(0.001)
            answers = await asyncio.wait_for(
                asyncio.gather(*blocked, *queued, *late), TIMEOUT_S)
            await _until(lambda: _in_flight(answerer) == 0)
        finally:
            await answerer.stop()
        return answers

    answers = asyncio.run(body())
    assert all(tier == "computed" for _, tier in answers)
    assert stand_in.max_running == 2
    started = sorted(cid for chunk in stand_in.chunks for cid in chunk)
    assert len(started) == len(set(started)) == 2 + 6 + 12


def test_a_backlog_spreads_over_every_worker(stand_in):
    async def body():
        answerer, _ = await _started(jobs=2)
        try:
            busy = _spawn(answerer, [_cell(1, block="a"),
                                     _cell(2, block="b")])
            await _until(lambda: stand_in.running == 2)
            queued = _spawn(answerer, [_cell(n, block="c")
                                       for n in range(10, 16)])
            await _until(lambda: _in_flight(answerer) > 2)
            stand_in.gate("a").set()
            # the worker that frees first takes part of the backlog ...
            await _until(lambda: len(stand_in.chunks) == 3)
            stand_in.gate("b").set()
            # ... and the second one finds queued work too, not nothing
            await _until(lambda: len(stand_in.chunks) == 4)
            assert stand_in.running == 2
            stand_in.gate("c").set()
            answers = await asyncio.wait_for(
                asyncio.gather(*busy, *queued), TIMEOUT_S)
        finally:
            await answerer.stop()
        return answers

    answers = asyncio.run(body())
    assert all(tier == "computed" for _, tier in answers)
    assert sum(len(chunk) for chunk in stand_in.chunks) == 2 + 6


def test_cells_queued_together_leave_as_one_ljf_batch(stand_in):
    sizes = (8, 64, 16)

    async def body():
        answerer, obs = await _started(jobs=1)
        try:
            first = _spawn(answerer, [_cell(1, block=True)])
            await _until(lambda: stand_in.running == 1)
            queued = _spawn(answerer, [_cell(n) for n in sizes])
            await _until(lambda: _in_flight(answerer) > 1)
            stand_in.gate().set()
            await asyncio.wait_for(asyncio.gather(*first, *queued), TIMEOUT_S)
        finally:
            await answerer.stop()
        return parse_exposition(obs.metrics_text())

    samples = asyncio.run(body())
    started = [cid for chunk in stand_in.chunks for cid in chunk]
    assert started == [_cell(1, block=True).cell_id] + [
        _cell(n).cell_id for n in sorted(sizes, reverse=True)]
    assert samples[("repro_serve_batch_cells_count", "")] == 2
    assert samples[("repro_serve_batch_cells_sum", "")] == 1 + len(sizes)


def test_stop_fails_running_and_waiting_cells(stand_in):
    async def body():
        answerer, _ = await _started(jobs=1)
        running = _spawn(answerer, [_cell(1, block=True)])
        await _until(lambda: stand_in.running == 1)
        waiting = _spawn(answerer, [_cell(2), _cell(3)])
        await _until(lambda: _in_flight(answerer) > 1)
        await asyncio.wait_for(answerer.stop(), TIMEOUT_S)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*running, *waiting, return_exceptions=True),
            TIMEOUT_S)
        return outcomes, answerer.describe()

    outcomes, described = asyncio.run(body())
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert isinstance(outcome, RuntimeError), outcome
        assert "server shutting down" in str(outcome)
    assert described["chunks_in_flight"] == 0
    assert described["queued_cells"] == 0
    assert described["inflight_keys"] == 0


class _Abort(BaseException):
    """Not an ``Exception``: it escapes ``_run_chunk``'s handler, as a
    ``KeyboardInterrupt`` raised in a worker would."""


def test_a_chunk_that_raises_past_run_chunk_fails_its_flights(
        stand_in, monkeypatch):
    def abort(chunk, telemetry):
        raise _Abort()

    monkeypatch.setattr(sweep, "_execute_chunk", abort)

    async def body():
        answerer, _ = await _started(jobs=1)
        try:
            # a leader and a coalesced duplicate of the same cell
            outcomes = await asyncio.wait_for(
                asyncio.gather(*_spawn(answerer, [_cell(5), _cell(5)]),
                               return_exceptions=True), TIMEOUT_S)
            await _until(lambda: _in_flight(answerer) == 0)
        finally:
            await answerer.stop()
        return outcomes

    outcomes = asyncio.run(body())
    assert len(outcomes) == 2
    assert all(isinstance(o, _Abort) for o in outcomes), outcomes


def test_cost_model_refresh_runs_off_the_dispatch_path(
        stand_in, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    refreshed = CostModel(rates={"stand_in": 1.0}, default_rate=1.0)
    release = threading.Event()
    calls = []

    def slow_refresh(store):
        calls.append(store)
        assert release.wait(TIMEOUT_S), "refresh never released"
        return refreshed

    async def body():
        answerer, _ = await _started(jobs=1, use_store=True)
        try:
            monkeypatch.setattr(pool_mod, "_COST_REFRESH_EVERY", 1)
            monkeypatch.setattr(CostModel, "from_store",
                                staticmethod(slow_refresh))
            # the first batch starts a refresh that stays blocked; later
            # batches still dispatch, and start no second refresh
            for n in range(1, 5):
                await asyncio.wait_for(answerer.answer(_cell(n)), TIMEOUT_S)
            assert len(calls) == 1
            assert answerer._cost is not refreshed
            release.set()
            await _until(lambda: answerer._cost is refreshed)
        finally:
            release.set()
            await answerer.stop()

    asyncio.run(body())
    assert len(stand_in.chunks) == 4


# -- a pool worker killed mid-chunk ---------------------------------------------

FAULT_EXPERIMENT = "serve_fault_injection"


def _kill_or_echo(cell):
    if cell.params.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"echo": cell.params.get("n", 0)}


@pytest.fixture
def fault_experiment():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("pool workers inherit the test experiment only via fork")
    # registered before the pool forks, so every worker can run it
    register(FAULT_EXPERIMENT, cells=lambda quick, **kw: [],
             run_cell=_kill_or_echo, merge=lambda quick, results, **kw: ([], ""))
    yield
    REGISTRY.pop(FAULT_EXPERIMENT, None)


def test_worker_killed_mid_chunk_fails_its_flight_and_restarts_pool(
        fault_experiment):
    killer = ExperimentCell.make(FAULT_EXPERIMENT, kill=True)

    async def body():
        answerer, obs = await _started(jobs=1)
        try:
            broken_pool = answerer._pool
            # a leader and a coalesced duplicate of the same doomed cell
            doomed = _spawn(answerer, [killer, killer])
            outcomes = await asyncio.wait_for(
                asyncio.gather(*doomed, return_exceptions=True), TIMEOUT_S)
            assert answerer._pool is not broken_pool
            result, tier = await asyncio.wait_for(
                answerer.answer(ExperimentCell.make(FAULT_EXPERIMENT, n=3)),
                TIMEOUT_S)
            await _until(lambda: _in_flight(answerer) == 0)
            events = obs.flight.dump()["events"]
        finally:
            await answerer.stop()
        return outcomes, result, tier, events

    outcomes, result, tier, events = asyncio.run(body())
    assert len(outcomes) == 2
    assert all(isinstance(o, BrokenExecutor) for o in outcomes), outcomes
    assert [e["kind"] for e in events].count("pool_restart") == 1, events
    assert (result, tier) == ({"echo": 3}, "computed")
