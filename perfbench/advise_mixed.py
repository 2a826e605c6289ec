"""advise_mixed: an open-loop, seeded ``/advise`` stream against a server.

The server is a ``python -m repro serve`` subprocess with its default
``--jobs`` and a fresh result store, so the generator and the server do
not share an interpreter lock.  The benchmark process never imports the
program: it only generates queries, sends them and checks the answers.

Queries come from a fixed pool of 1500 distinct DSE-style what-if
queries (small geometries, gups or pagerank, one policy or all three).
The benchmark seed picks the order of fresh pool queries and which
requests repeat an earlier query (4 in every 10; recent ones are
likelier, so some coalesce with an in-flight cell and the rest hit the
hot tier).  Every answer is checked against the recorded
``execute_cell`` digest of its cell, so every seed is fully checked.

The load runs in three constant-rate steps (low, nominal, high).  Requests
are sent at their due time over at most ``nproc`` keep-alive
connections; a request due while every connection is busy waits for
one, and is still timed from its due time.  ``p50_ms``/``p95_ms`` cover
the nominal step (about 640 requests at 25 s, so p95 has 32 samples
beyond it and p99 only 6; p99 is printed per step, not reported).  A
request is "computed" when any of its cells has
tier ``computed``, otherwise "cached" (hot, store or coalesced).
"""

import asyncio
import gc
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    OUT, ROOT, SRC, BenchError, Outcome, digest, load_golden, median,
    peak_rss_mb, pool_key, quantile, work_dir,
)

POOL_SEED = 20261016
POOL_SIZE = 1500
#: each block of BLOCK requests holds exactly DUPS_PER_BLOCK repeats, so
#: the cached share does not drift between seeds; it is kept below 50%
#: so the median falls inside the computed latencies, not in the gap
#: between the cached and the computed ones
BLOCK = 10
DUPS_PER_BLOCK = 4
#: mean distance back (in fresh queries) of the query a repeat repeats
DUP_MEAN_BACK = 8.0
NOMINAL = "nominal"
#: low enough that two connections rarely queue even when the host runs
#: 40% slower than usual; near 2 connections' capacity, latency swings
#: with host speed
NOMINAL_RPS = 30.0
#: (name, requests per second, share of --seconds)
STEPS = (("low", 15.0, 0.075), (NOMINAL, NOMINAL_RPS, 0.85),
         ("high", 45.0, 0.075))
STEP_GAP_S = 0.5
#: one untimed query per workload first, so the pool worker has built
#: the pagerank graph and run both code paths before timing starts
WARMUP_WORKLOADS = ("pagerank", "gups", "pagerank", "gups")
#: p99 latency limit of a step; the server's own slow threshold
SLO_MS = 500.0
SETUP_REPEATS = 3
#: forced-traced requests per traced phase: fewer than the server keeps
TRACED_REQUESTS = 48
START_TIMEOUT_S = 90.0
STAGES = ("parse", "normalize", "hot_probe", "coalesce_wait", "store_probe",
          "batch_window", "pool_execute", "store_put")


# -- the query stream ----------------------------------------------------------


def query_pool() -> List[Dict[str, Any]]:
    """The fixed pool of distinct queries (independent of the seed)."""
    rng = random.Random(POOL_SEED)
    seen = set()
    pool: List[Dict[str, Any]] = []
    while len(pool) < POOL_SIZE:
        workload = rng.choice(("gups", "gups", "pagerank"))
        query: Dict[str, Any] = {
            "workload": workload,
            "geometry": {"cps": rng.choice((2, 4)), "cpc": rng.choice((4, 8)),
                         "l3_mib": rng.choice((4, 8, 16)),
                         "channels": rng.choice((2, 4, 8)),
                         "link_scale": rng.choice((0.5, 1.0, 2.0))},
            "cores": rng.choice((8, 16)),
            "seed": rng.choice((1, 2, 3)),
        }
        if workload == "gups":
            query["params"] = {"table_bytes": 1 << 20,
                               "updates_per_worker": rng.choice((32, 64))}
        else:
            query["params"] = {"graph_scale": 10,
                               "pagerank_iterations": rng.choice((1, 2))}
        if rng.random() >= 0.15:
            query["policy"] = rng.choice(("charm", "ring", "static-2"))
        key = json.dumps(query, sort_keys=True)
        if key not in seen:
            seen.add(key)
            pool.append(query)
    return pool


class Stream:
    """Seeded draws of fresh and repeated queries from the pool."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._pool = query_pool()
        self._order = list(range(len(self._pool)))
        self.rng.shuffle(self._order)
        self._sent: List[bytes] = []
        self._kinds: List[bool] = []

    def fresh(self, workload: Optional[str] = None) -> bytes:
        """The next unsent pool query (of ``workload``, when given)."""
        at = next((i for i in range(len(self._order) - 1, -1, -1)
                   if workload in (None, self._pool[self._order[i]]["workload"])),
                  None)
        if at is None:
            raise BenchError("advise_mixed ran out of fresh pool queries")
        body = json.dumps(self._pool[self._order.pop(at)]).encode()
        self._sent.append(body)
        return body

    def next(self) -> bytes:
        if not self._kinds:
            self._kinds = [True] * DUPS_PER_BLOCK + [False] * (
                BLOCK - DUPS_PER_BLOCK)
            self.rng.shuffle(self._kinds)
        if self._kinds.pop() and self._sent:
            back = min(int(self.rng.expovariate(1 / DUP_MEAN_BACK)),
                       len(self._sent) - 1)
            return self._sent[-1 - back]
        return self.fresh()

    def schedule(self, steps, seconds: float,
                 ) -> List[Tuple[float, str, bytes]]:
        """``(due offset s, step name, body)`` for every request."""
        out = []
        t = 0.0
        for name, rate, share in steps:
            end = t + share * seconds
            while True:
                t += 1.0 / rate
                if t >= end:
                    break
                out.append((t, name, self.next()))
            t = end + STEP_GAP_S
        return out


# -- the server ----------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self, store: str, obs: bool, log_name: str) -> None:
        self.store = store
        self.obs = obs
        self.log_path = OUT / log_name
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start and wait for ``/healthz`` 200; returns the seconds taken."""
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--store", self.store]
        if not self.obs:
            cmd.append("--no-obs")
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_SWEEP_CACHE=self.store)
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=log)
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while True:
            match = pattern.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None:
                raise BenchError(f"server exited: {self.log_path.read_text()[-2000:]}")
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise BenchError("server did not start in time")
            time.sleep(0.005)
        while self.get("/healthz")[0] != 200:
            time.sleep(0.005)
        return time.perf_counter() - t0

    def get(self, path: str) -> Tuple[int, str]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


# -- the open-loop load generator ----------------------------------------------


class Request:
    __slots__ = ("due", "step", "body", "trace", "sent", "done", "status",
                 "doc")

    def __init__(self, due: float, step: str, body: bytes, trace: bool) -> None:
        self.due = due
        self.step = step
        self.body = body
        self.trace = trace
        self.sent = self.done = 0.0
        self.status = 0
        self.doc: Any = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def computed(self) -> bool:
        tiers = (self.doc or {}).get("tiers", {})
        return any(t == "computed" for t in tiers.values())


async def _exchange(conn, req: Request) -> None:
    reader, writer = conn
    head = ("POST /advise HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(req.body)}\r\n"
            + ("X-Repro-Trace: 1\r\n" if req.trace else "") + "\r\n")
    writer.write(head.encode() + req.body)
    await writer.drain()
    status_line = await reader.readline()
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length)
    req.status = int(status_line.split()[1])
    req.doc = json.loads(payload)


async def _drive(port: int, requests: List[Request], nconn: int) -> None:
    """Send each request at its due time over ``nconn`` connections."""
    loop = asyncio.get_running_loop()
    idle: asyncio.Queue = asyncio.Queue()
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(nconn)]
    for conn in conns:
        idle.put_nowait(conn)

    async def one(conn, req: Request) -> None:
        try:
            await _exchange(conn, req)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
            req.status = -1
            req.doc = {"error": repr(exc)}
        finally:
            req.done = loop.time()
            idle.put_nowait(conn)

    origin = loop.time() + 0.05
    tasks = []
    for req in requests:
        req.due += origin
        delay = req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await idle.get()
        req.sent = loop.time()
        tasks.append(asyncio.create_task(one(conn, req)))
    await asyncio.gather(*tasks)
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 2


def _send(server: Server, requests: List[Request]) -> None:
    # the generator's own collector pauses would show up as lateness
    gc.disable()
    try:
        asyncio.run(_drive(server.port, requests, _nproc()))
    finally:
        gc.enable()


def _verify(requests: List[Request], golden: Dict[str, str], out: Outcome) -> None:
    for req in requests:
        out.attempted += 1
        if req.status != 200:
            out.fail(f"status {req.status}: {req.doc}")
            continue
        doc = req.doc
        for strategy, result in doc["results"].items():
            cell_id = doc["cells"][strategy]
            if digest(result) != golden.get(pool_key(cell_id)):
                out.fail(f"{cell_id}: answer differs from execute_cell")
                break


def _stats(server: Server) -> Dict[str, Any]:
    status, text = server.get("/stats")
    if status != 200:
        raise BenchError(f"/stats answered {status}")
    return json.loads(text)["cells"]


def _step_table(requests: List[Request], steps, seconds: float,
                out: Outcome) -> Dict[str, Dict[str, float]]:
    table = {}
    for name, rate, share in steps:
        reqs = [r for r in requests if r.step == name]
        ok = [r for r in reqs if r.status == 200]
        if not ok:
            raise BenchError(f"no successful requests in step {name}")
        lat = [r.latency for r in reqs]
        start = min(r.due for r in reqs)
        span = share * seconds
        lat_or_inf = [r.latency if r.status == 200 else float("inf")
                      for r in reqs]
        p95 = quantile(lat_or_inf, 0.95) * 1e3
        p99 = quantile(lat_or_inf, 0.99) * 1e3
        drain = max(r.done for r in reqs) - start
        table[name] = {
            "rate": len(reqs) / span, "n": len(reqs), "p50_ms": median(lat) * 1e3,
            "p95_ms": p95, "p99_ms": p99, "drain_s": drain,
            "meets_slo": p99 <= SLO_MS and drain <= span + SLO_MS / 1e3,
        }
        out.notes.append(
            f"step {name}: {len(reqs)} requests at {table[name]['rate']:.1f}/s "
            f"(nominal {rate:g}/s), p50 {table[name]['p50_ms']:.2f} ms, "
            f"p95 {p95:.2f} ms, p99 {p99:.2f} ms, drain {drain:.2f} s of {span:.2f} s, "
            f"{'meets' if table[name]['meets_slo'] else 'misses'} the "
            f"{SLO_MS:g} ms p99 limit")
    return table


def _phase(server: Server, stream: Stream, steps, seconds: float,
           golden: Dict[str, str], out: Outcome, traced: int = 0,
           ) -> Tuple[List[Request], Dict[str, Dict[str, float]]]:
    """Warm-up, then the stepped open-loop stream; verified and tabled.

    ``traced`` > 0 forces tracing on up to that many evenly spaced
    requests, never more than every second one.
    """
    warm = [Request(0.0, "warmup", stream.fresh(workload), False)
            for workload in WARMUP_WORKLOADS]
    for req in warm:
        _send(server, [req])
    _verify(warm, golden, out)
    schedule = stream.schedule(steps, seconds)
    every = max(2, -(-len(schedule) // traced)) if traced else 0
    requests = [Request(due, step, body, every > 0 and i % every == 0)
                for i, (due, step, body) in enumerate(schedule)]
    _send(server, requests)
    _verify(requests, golden, out)
    return requests, _step_table(requests, steps, seconds, out)


def _split(requests: List[Request]) -> Tuple[List[float], List[float]]:
    ok = [r for r in requests if r.status == 200]
    return ([r.latency for r in ok if not r.computed],
            [r.latency for r in ok if r.computed])


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("advise_mixed")
    golden = load_golden()["advise_pool"]
    stream = Stream(seed)
    store = str(work_dir("advise_store"))
    servers: List[Server] = []
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            servers.append(Server(store, obs=trace, log_name=f"serve{i}.log"))
            setups.append(servers[-1].start())
        server = servers[-1]
        out.check("every /advise answer equals the recorded execute_cell "
                  "digest of its cell")
        if trace:
            _traced(server, stream, seconds, golden, out)
        else:
            before = _stats(server)
            requests, table = _phase(server, stream, STEPS, seconds, golden, out)
            after = _stats(server)
            nominal = [r for r in requests if r.step == NOMINAL]
            lat = [r.latency for r in nominal]
            cached, computed = _split(nominal)
            out.metric("setup_s", median(setups))
            out.metric("wall_s", table[NOMINAL]["drain_s"])
            out.metric("p50_ms", median(lat) * 1e3)
            out.metric("p95_ms", table[NOMINAL]["p95_ms"])
            _tier_metrics(out, before, after, requests, table, cached, computed)
            out.notes.append(f"{len(nominal)} nominal-step requests "
                             f"({len(cached)} cached, {len(computed)} computed)")
    finally:
        for server in servers:
            server.stop()
    if not trace:
        out.metric("peak_rss_mb", peak_rss_mb())
    return out


def _tier_metrics(out: Outcome, before, after, requests: List[Request],
                  table, cached: List[float], computed: List[float]) -> None:
    for key in ("hot_hits", "store_hits", "coalesced", "computed"):
        out.metric(f"serve.{key}", after[key] - before[key])
    cells = after["total"] - before["total"]
    hits = sum(after[k] - before[k] for k in ("hot_hits", "store_hits", "coalesced"))
    out.metric("serve.cache_hit_ratio", hits / cells if cells else 0.0)
    out.metric("serve.cached_p50_ms", median(cached) * 1e3)
    out.metric("serve.computed_p50_ms", median(computed) * 1e3)
    passing = [row["rate"] for row in table.values() if row["meets_slo"]]
    out.metric("serve.max_rps_under_slo", max(passing) if passing else 0.0)
    late = [r.sent - r.due for r in requests]
    out.metric("serve.gen_late_ms", quantile(late, 0.99) * 1e3)
    out.metric("serve.error_rate",
               out.failed / out.attempted if out.attempted else 0.0)


def _traced(server: Server, stream: Stream, seconds: float,
            golden: Dict[str, str], out: Outcome) -> None:
    """Untraced stepped stream, then a nominal-rate phase with some
    requests forced traced; stage self times from /debug/trace.  The
    overhead compares the cached requests that were forced traced with
    the untraced cached requests of that phase."""
    before = _stats(server)
    requests, table = _phase(server, stream, STEPS, 0.6 * seconds, golden, out)
    after = _stats(server)
    cached, computed = _split([r for r in requests if r.step == NOMINAL])
    _tier_metrics(out, before, after, requests, table, cached, computed)
    status, text = server.get("/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    sums = dict(re.findall(r"^repro_serve_batch_cells_(sum|count) (\S+)$", text,
                           re.M))
    count = float(sums.get("count", 0))
    out.metric("serve.batch_cells.mean",
               float(sums.get("sum", 0)) / count if count else 0.0)

    traced_reqs, _ = _phase(server, stream, (("traced", NOMINAL_RPS, 1.0),),
                            0.4 * seconds,
                            golden, out, traced=TRACED_REQUESTS)
    status, text = server.get("/debug/trace")
    if status != 200:
        raise BenchError(f"/debug/trace answered {status}")
    stage_s, n_traces = _stage_self(json.loads(text)["traceEvents"])
    for stage in STAGES:
        out.metric(f"serve.{stage}.s", stage_s.get(stage, 0.0))
    forced = [r.latency for r in traced_reqs
              if r.trace and r.status == 200 and not r.computed]
    plain = [r.latency for r in traced_reqs
             if not r.trace and r.status == 200 and not r.computed]
    out.metric("trace.overhead", median(forced) / median(plain))
    path = OUT / "trace_advise_mixed.json"
    path.write_text(text)
    out.notes.append(f"{len(forced)} cached forced-traced requests, {n_traces} traces "
                     f"read back from /debug/trace into {path}")


def _stage_self(events: List[Dict[str, Any]]) -> Tuple[Dict[str, float], int]:
    """Self seconds per span name over every request trace."""
    spans = [e for e in events if e.get("ph") == "X"]
    cover: Dict[Tuple[str, int], float] = {}
    for e in spans:
        args = e["args"]
        key = (args["trace_id"], args["parent_id"])
        cover[key] = cover.get(key, 0.0) + e["dur"]
    out: Dict[str, float] = {}
    for e in spans:
        args = e["args"]
        own = e["dur"] - cover.get((args["trace_id"], args["span_id"]), 0.0)
        out[e["name"]] = out.get(e["name"], 0.0) + own / 1e6
    return out, len({e["args"]["trace_id"] for e in spans})
