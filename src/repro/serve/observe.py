"""Wall-clock observability for one advisor server.

:class:`ServeObservability` composes the :mod:`repro.obs.wallclock`
primitives into the serve stack's four surfaces:

- the **tracer** samples ``/advise`` requests (off by default; the
  ``X-Repro-Trace: 1`` header forces one) and keeps a ring of finished
  traces served by ``GET /debug/trace``;
- the **metrics registry** backs ``GET /metrics`` — every gauge and
  counter the server already keeps exactly (per-tier cells, in-flight
  depth, queue depth, store stats, process RSS/CPU) is callback-backed
  and read only at scrape time, so the request hot path pays for
  nothing but the latency histograms;
- the **SLO monitor** feeds windowed p50/p99/error-rate and
  multi-window burn rates into ``/healthz`` (``degraded``) and
  ``/stats``;
- the **flight recorder** collects slow requests, error responses,
  store journal fallbacks, pool restarts, and failed cost-model
  refreshes for ``GET /debug/flight`` and the shutdown dump.

With ``enabled=False`` (``repro serve --no-obs``) every hook is a
single attribute check and the observability routes answer 404 — the
reference point for the <2% disabled-overhead gate in
``repro.bench.perf --gate``.
"""

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.obs.wallclock import (
    FlightRecorder,
    MetricsRegistry,
    NULL_TRACE,
    SLOConfig,
    SLOMonitor,
    WallClockTracer,
    process_stats,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.pool import CellAnswerer
    from repro.serve.stats import ServerStats

__all__ = ["ServeObservability", "SLOW_REQUEST_S"]

#: default slow-request threshold for the flight recorder (seconds)
SLOW_REQUEST_S = 1.0

#: batch-occupancy histogram boundaries (cells per dispatch round)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class ServeObservability:
    """Tracer + metrics + SLO + flight recorder for one server."""

    def __init__(self, stats: "ServerStats",
                 enabled: bool = True,
                 trace_sample: float = 0.0,
                 slow_threshold_s: float = SLOW_REQUEST_S,
                 slo: Optional[SLOConfig] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.enabled = enabled
        self.stats = stats
        self.slow_threshold_s = slow_threshold_s
        self.tracer = WallClockTracer(sample_rate=trace_sample if enabled else 0.0)
        self.slo = SLOMonitor(slo or SLOConfig(), clock=clock)
        self.flight = FlightRecorder()
        self.registry = MetricsRegistry()
        self._answerer: Optional["CellAnswerer"] = None
        self._build_registry()

    # -- registry ---------------------------------------------------------------

    def _build_registry(self) -> None:
        reg, stats = self.registry, self.stats
        reg.counter("repro_serve_requests_total",
                    "Requests accepted by the advise endpoint",
                    fn=lambda: float(stats.requests))
        reg.counter("repro_serve_request_errors_total",
                    "Requests answered with a non-2xx status",
                    fn=lambda: float(stats.errors))
        reg.gauge("repro_serve_in_flight",
                  "Requests currently being serviced",
                  fn=lambda: float(stats.in_flight))
        reg.gauge("repro_serve_max_in_flight",
                  "High-water mark of concurrent requests",
                  fn=lambda: float(stats.max_in_flight))
        reg.counter("repro_serve_cells_total",
                    "Cells answered, by answer tier", label="tier",
                    fn=lambda: {"hot": float(stats.hot_hits),
                                "store": float(stats.store_hits),
                                "coalesced": float(stats.coalesced),
                                "computed": float(stats.computed)})
        self.request_seconds = reg.histogram(
            "repro_serve_request_seconds",
            "Advise request service latency")
        self.batch_cells = reg.histogram(
            "repro_serve_batch_cells",
            "Cells drained per dispatch round",
            buckets=_BATCH_BUCKETS)
        reg.gauge("repro_serve_pool_queue_depth",
                  "Cells waiting for the dispatcher to hand them to the pool",
                  fn=self._queue_depth)
        reg.gauge("repro_serve_hot_cache_entries",
                  "Entries resident in the in-process hot LRU",
                  fn=self._hot_entries)
        reg.gauge("repro_serve_inflight_keys",
                  "Distinct cell keys with an open single-flight future",
                  fn=self._inflight_keys)
        reg.counter("repro_serve_traces_sampled_total",
                    "Requests that carried a sampled trace",
                    fn=lambda: float(self.tracer.sampled_total))
        reg.counter("repro_serve_flight_events_total",
                    "Events recorded by the flight recorder",
                    fn=lambda: float(self.flight.recorded_total))
        reg.gauge("repro_serve_slo_degraded",
                  "1 when a multi-window burn-rate alert is firing",
                  fn=lambda: 1.0 if self.slo.evaluate()["degraded"] else 0.0)
        reg.gauge("repro_serve_slo_burn_rate",
                  "Error-budget burn rate per sliding window", label="window",
                  fn=lambda: {label: rate for label, rate in
                              self.slo.evaluate()["burn_rates"].items()})
        reg.gauge("repro_store_entries",
                  "Entries in the shared result store",
                  fn=lambda: self._store_stat("entries"))
        reg.gauge("repro_store_bytes",
                  "Payload bytes in the shared result store",
                  fn=lambda: self._store_stat("bytes"))
        reg.counter("repro_store_hits_total",
                    "Lifetime read hits recorded by the result store",
                    fn=lambda: self._store_stat("hits_total"))
        reg.gauge("repro_process_resident_bytes",
                  "Resident set size of the server process",
                  fn=lambda: process_stats()["rss_bytes"])
        reg.counter("repro_process_cpu_seconds_total",
                    "User + system CPU seconds of the server process",
                    fn=lambda: process_stats()["cpu_seconds"])

    def bind(self, answerer: "CellAnswerer") -> None:
        """Attach the answerer whose live state the gauges read."""
        self._answerer = answerer

    def _queue_depth(self) -> float:
        a = self._answerer
        return float(a._queue.qsize()) if a is not None else 0.0

    def _hot_entries(self) -> float:
        a = self._answerer
        return float(len(a._hot)) if a is not None else 0.0

    def _inflight_keys(self) -> float:
        a = self._answerer
        return float(len(a._flight)) if a is not None else 0.0

    def _store_stat(self, key: str) -> float:
        a = self._answerer
        if a is None or a._store is None:
            return 0.0
        try:
            return float(self._store_stats_cached().get(key, 0))
        except Exception:
            return 0.0

    def _store_stats_cached(self) -> Dict[str, Any]:
        """One ``store.stats()`` SQLite round-trip per exposition page:
        the three store metrics scrape within the same second share it."""
        a = self._answerer
        now = time.monotonic()
        cached = getattr(self, "_store_stats_memo", None)
        if cached is not None and now - cached[0] < 1.0:
            return cached[1]
        stats = a._store.stats()
        self._store_stats_memo = (now, stats)
        return stats

    # -- hot-path hooks ---------------------------------------------------------

    def sample_trace(self, force: bool = False):
        """A request trace (or the shared null trace when unsampled)."""
        if not self.enabled:
            return NULL_TRACE
        return self.tracer.sample(force=force)

    def on_request(self, seconds: float, error: bool = False,
                   status: int = 200, detail: str = "") -> None:
        """Account one finished request.  The disabled path is a single
        attribute check; the enabled-but-idle path is one histogram
        bucket lookup shared with the SLO windows."""
        if not self.enabled:
            return
        idx = self.request_seconds.observe(seconds)
        self.slo.record(seconds, error=error, bucket_idx=idx)
        if error:
            self.flight.record("request_error", status=status,
                               latency_ms=round(seconds * 1e3, 3),
                               detail=detail)
        elif seconds >= self.slow_threshold_s:
            self.flight.record("slow_request", status=status,
                               latency_ms=round(seconds * 1e3, 3),
                               detail=detail)

    def on_batch(self, n_cells: int) -> None:
        if self.enabled:
            self.batch_cells.observe(float(n_cells))

    # -- scrape-side ------------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition page (runs store SQLite queries —
        call off the event loop)."""
        return self.registry.expose()

    def stats_extra(self) -> Dict[str, Any]:
        """Windowed latency + SLO sections merged into ``/stats``."""
        windows = self.slo.windows
        windowed = {}
        for w in self.slo.config.windows_s:
            stats = windows.window(w)
            windowed[_label(w)] = {
                "count": int(stats["count"]),
                "p50": round(stats["p50_ms"], 3),
                "p99": round(stats["p99_ms"], 3),
                "error_rate": round(stats["error_rate"], 4),
            }
        return {"latency_windowed_ms": windowed, "slo": self.slo.evaluate()}

    def healthz_extra(self) -> Dict[str, Any]:
        slo = self.slo.evaluate()
        return {"degraded": slo["degraded"], "alerts": slo["alerts"]}


def _label(seconds: float) -> str:
    if seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{int(seconds)}s"
