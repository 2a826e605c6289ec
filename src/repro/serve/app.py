"""The placement-advisor HTTP server: ``python -m repro serve``.

A deliberately small asyncio HTTP/1.1 server (stdlib only — the
container carries no web framework) speaking JSON over three routes:

- ``POST /advise``  — one what-if query (:mod:`repro.serve.query`
  schema); the response carries the canonical echo of the query, one
  result per requested policy, the tier each answer came from, and the
  request's service latency;
- ``GET /healthz``  — liveness + pool shape + SLO ``degraded`` flag
  (the CI smoke and deploy probes poll this);
- ``GET /stats``    — the :class:`~repro.serve.stats.ServerStats`
  snapshot: per-tier hit ratios, coalesce count, in-flight depth,
  reservoir and sliding-window p50/p99, burn rates;
- ``GET /metrics``      — Prometheus text exposition
  (:mod:`repro.serve.observe`);
- ``GET /debug/flight`` — the flight-recorder ring (slow requests,
  errors, store fallbacks, pool restarts), oldest first;
- ``GET /debug/trace``  — sampled request traces as Chrome-trace JSON
  (send ``X-Repro-Trace: 1`` on ``/advise`` to force a sample; merge
  with a simulation trace via ``repro trace --serve``).

Connections are keep-alive; request bodies are capped; malformed
queries answer 400 with the offending field named.  SIGINT/SIGTERM
drain into a clean shutdown (pool and store released, flight recorder
dumped to stderr, exit 0).

Usage::

    python -m repro serve --port 8077 --jobs 2
    curl -s localhost:8077/healthz
    curl -s -X POST localhost:8077/advise -d '{"workload": "gups"}'
    curl -s localhost:8077/metrics
"""

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.wallclock import NULL_TRACE
from repro.serve.observe import SLOW_REQUEST_S, ServeObservability
from repro.serve.pool import HOT_CACHE_SIZE, CellAnswerer
from repro.serve.query import QueryError, normalize_query
from repro.serve.stats import ServerStats

__all__ = ["AdvisorServer", "ServerThread", "main"]

#: largest accepted request body; a what-if query is a few hundred bytes
MAX_BODY_BYTES = 1 << 20

_JSON_HEADERS = "Content-Type: application/json\r\n"
_TEXT_HEADERS = "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"


class AdvisorServer:
    """One advisor service instance bound to ``host:port``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, jobs: int = 0,
                 use_store: bool = True, hot_cache_size: int = HOT_CACHE_SIZE,
                 observability: bool = True, trace_sample: float = 0.0,
                 slow_threshold_s: float = SLOW_REQUEST_S):
        self.host = host
        self.port = port
        self.stats = ServerStats()
        self.obs = ServeObservability(
            self.stats, enabled=observability, trace_sample=trace_sample,
            slow_threshold_s=slow_threshold_s)
        self.answerer = CellAnswerer(
            jobs=jobs, use_store=use_store, hot_cache_size=hot_cache_size,
            stats=self.stats, obs=self.obs)
        self.obs.bind(self.answerer)
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        await self.answerer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.answerer.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- HTTP plumbing ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive, headers = request
                status, doc, trace = await self._route(method, path, body,
                                                       headers)
                # the respond span covers serialization + socket write, so
                # a sampled trace accounts the full request wall time
                sid = trace.begin("respond", status=status)
                if isinstance(doc, str):
                    payload = doc.encode()
                    content_type = _TEXT_HEADERS
                else:
                    payload = json.dumps(doc).encode()
                    content_type = _JSON_HEADERS
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"{content_type}"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    f"\r\n"
                ).encode()
                writer.write(head + payload)
                await writer.drain()
                trace.end(sid)
                self.obs.tracer.finish(trace)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
            self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, bytes, bool, Dict[str, str]]]:
        """Parse one request; None on clean EOF between requests."""
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise ConnectionError(f"malformed request line {request_line!r}")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length > MAX_BODY_BYTES:
            raise ConnectionError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return method.upper(), target.split("?", 1)[0], body, keep_alive, headers

    # -- routes -----------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes,
                     headers: Dict[str, str],
                     ) -> Tuple[int, Any, Any]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, NULL_TRACE
            doc = {"status": "ok", **self.answerer.describe()}
            if self.obs.enabled:
                slo = self.obs.healthz_extra()
                doc["slo"] = slo
                if slo["degraded"]:
                    doc["status"] = "degraded"
            return 200, doc, NULL_TRACE
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}, NULL_TRACE
            doc = self.stats.snapshot()
            if self.obs.enabled:
                doc.update(self.obs.stats_extra())
            return 200, doc, NULL_TRACE
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}, NULL_TRACE
            if not self.obs.enabled:
                return 404, {"error": "observability disabled (--no-obs)"}, \
                    NULL_TRACE
            # store.stats() does SQLite round-trips — expose off-loop
            text = await asyncio.get_running_loop().run_in_executor(
                self.answerer._io, self.obs.metrics_text)
            return 200, text, NULL_TRACE
        if path == "/debug/flight":
            if method != "GET":
                return 405, {"error": "use GET"}, NULL_TRACE
            if not self.obs.enabled:
                return 404, {"error": "observability disabled (--no-obs)"}, \
                    NULL_TRACE
            return 200, self.obs.flight.dump(), NULL_TRACE
        if path == "/debug/trace":
            if method != "GET":
                return 405, {"error": "use GET"}, NULL_TRACE
            if not self.obs.enabled:
                return 404, {"error": "observability disabled (--no-obs)"}, \
                    NULL_TRACE
            return 200, self.obs.tracer.chrome_trace_doc(), NULL_TRACE
        if path == "/advise":
            if method != "POST":
                return 405, {"error": "use POST with a JSON body"}, NULL_TRACE
            force = headers.get("x-repro-trace", "") not in ("", "0")
            return await self._advise(body, force_trace=force)
        return 404, {"error": f"no route {path!r}; have /advise, /healthz, "
                              f"/stats, /metrics, /debug/flight, "
                              f"/debug/trace"}, NULL_TRACE

    async def _advise(self, body: bytes,
                      force_trace: bool = False) -> Tuple[int, Any, Any]:
        self.stats.request_started()
        trace = self.obs.sample_trace(force=force_trace)
        t0 = time.perf_counter()
        status = 500
        detail = ""
        try:
            sid = trace.begin("parse", bytes=len(body))
            try:
                doc = json.loads(body) if body else {}
            except json.JSONDecodeError as exc:
                status, detail = 400, f"request body is not JSON: {exc}"
                return 400, {"error": detail}, trace
            finally:
                trace.end(sid)
            sid = trace.begin("normalize")
            try:
                query = normalize_query(doc)
            except QueryError as exc:
                status, detail = 400, str(exc)
                return 400, {"error": detail}, trace
            finally:
                trace.end(sid)

            cells = query.cells()
            csid = trace.begin("answer_cells", cells=len(cells))
            answers = await asyncio.gather(
                *(self.answerer.answer(cell, trace=trace, parent=csid)
                  for cell in cells))
            trace.end(csid)
            status = 200
            trace.annotate(0, tiers=[tier for _, tier in answers])
            return 200, {
                "query": query.canonical(),
                "results": {cell.strategy: result
                            for cell, (result, _) in zip(cells, answers)},
                "cells": {cell.strategy: cell.cell_id for cell in cells},
                "tiers": {cell.strategy: tier
                          for cell, (_, tier) in zip(cells, answers)},
                "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
                **({"trace_id": trace.trace_id} if trace.enabled else {}),
            }, trace
        finally:
            dt = time.perf_counter() - t0
            self.stats.request_finished(dt, error=status != 200)
            self.obs.on_request(dt, error=status != 200, status=status,
                                detail=detail)


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}


class ServerThread:
    """Self-hosted advisor for tests and the load generator's bench mode.

    Runs a full :class:`AdvisorServer` (real sockets, real pool) on a
    private event loop in a daemon thread; ``start`` blocks until the
    port is bound, ``stop`` shuts the server down cleanly and joins.
    """

    def __init__(self, **server_kwargs: Any):
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self.host = server_kwargs.get("host", "127.0.0.1")
        self.port = 0

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def start(self, timeout: float = 60.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()),
            name="advisor-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("advisor server did not come up in time")
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError(
                f"advisor server failed to start: {self._startup_error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = AdvisorServer(**self._kwargs)
        try:
            await server.start()
        except BaseException as exc:  # surface init failures to start()
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()


# -- CLI ------------------------------------------------------------------------


async def _amain(args: argparse.Namespace) -> int:
    server = AdvisorServer(
        host=args.host, port=args.port, jobs=args.jobs,
        use_store=not args.no_store, hot_cache_size=args.hot_cache,
        observability=not args.no_obs, trace_sample=args.trace_sample,
        slow_threshold_s=args.slow_ms / 1e3)
    await server.start()
    print(f"[serve] advisor listening on {server.url} "
          f"(jobs={server.answerer.jobs}, "
          f"store={'on' if not args.no_store else 'off'}, "
          f"obs={'off' if args.no_obs else 'on'}, "
          f"trace-sample={args.trace_sample})",
          file=sys.stderr, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-posix loops
            pass
    await stop.wait()
    print("[serve] shutting down", file=sys.stderr, flush=True)
    await server.stop()
    if server.obs.enabled and len(server.obs.flight):
        # last words for postmortems: the flight recorder, one JSON line
        dump = server.obs.flight.dump()
        print(f"[serve] flight recorder ({len(dump['events'])} events, "
              f"{dump['dropped']} dropped): {json.dumps(dump['events'])}",
              file=sys.stderr, flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve", description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077,
                        help="TCP port (0 = pick a free one, printed on "
                             "stderr at startup)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="simulation worker processes "
                             "(0 = auto from CPU affinity)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (default: the sweep "
                             "engine's, results/.sweep-cache)")
    parser.add_argument("--no-store", action="store_true",
                        help="serve from hot cache + simulation only")
    parser.add_argument("--hot-cache", type=int, default=HOT_CACHE_SIZE,
                        metavar="N", help="hot-cache capacity in entries")
    parser.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="P",
                        help="probability a request is span-traced "
                             "(0.0 = off; X-Repro-Trace: 1 still forces one)")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable wall-clock observability entirely "
                             "(/metrics, /debug/*, SLO windows)")
    parser.add_argument("--slow-ms", type=float, default=SLOW_REQUEST_S * 1e3,
                        metavar="MS",
                        help="flight-recorder slow-request threshold")
    args = parser.parse_args(argv)
    if args.store is not None:
        os.environ["REPRO_SWEEP_CACHE"] = args.store
    return asyncio.run(_amain(args))


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
