"""Service counters and latency quantiles behind ``/stats``.

Single-threaded by design: every mutation happens on the server's event
loop, so plain ints are exact (no atomics, no locks).  Latency keeps a
bounded reservoir — the most recent ``RESERVOIR_SIZE`` request
latencies — so ``/stats`` reflects current behaviour, not the lifetime
average, and memory stays O(1) under millions of requests.
"""

import time
from typing import Any, Dict, List

__all__ = ["LatencyReservoir", "ServerStats", "RESERVOIR_SIZE"]

#: ring-buffer size of the latency reservoir (recent-window quantiles)
RESERVOIR_SIZE = 4096


class LatencyReservoir:
    """Last-N latencies in a ring buffer with exact window quantiles."""

    def __init__(self, size: int = RESERVOIR_SIZE) -> None:
        self._ring: List[float] = [0.0] * size
        self._size = size
        self.count = 0

    def record(self, seconds: float) -> None:
        self._ring[self.count % self._size] = seconds
        self.count += 1

    def quantile(self, q: float) -> float:
        """Exact quantile of the current window (0.0 when empty)."""
        n = min(self.count, self._size)
        if n == 0:
            return 0.0
        window = sorted(self._ring[:n])
        idx = min(n - 1, max(0, round(q * (n - 1))))
        return window[idx]


class ServerStats:
    """Request/cell/tier accounting for one server instance."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.requests = 0
        self.errors = 0
        self.cells_total = 0
        self.hot_hits = 0
        self.store_hits = 0
        self.computed = 0
        self.coalesced = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.latency = LatencyReservoir()

    # -- event-loop-side mutators ---------------------------------------------

    def request_started(self) -> None:
        self.requests += 1
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight

    def request_finished(self, seconds: float, error: bool = False) -> None:
        self.in_flight -= 1
        self.latency.record(seconds)
        if error:
            self.errors += 1

    def cell_answered(self, tier: str) -> None:
        """``tier`` is one of hot/store/computed/coalesced."""
        self.cells_total += 1
        if tier == "hot":
            self.hot_hits += 1
        elif tier == "store":
            self.store_hits += 1
        elif tier == "coalesced":
            self.coalesced += 1
        else:
            self.computed += 1

    # -- snapshot ---------------------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        """Cells answered without a fresh simulation of their own —
        hot + store + coalesced over all cells (the CI serve smoke
        asserts it on a duplicate-heavy warm burst)."""
        if self.cells_total == 0:
            return 0.0
        return (self.hot_hits + self.store_hits + self.coalesced) / self.cells_total

    def snapshot(self) -> Dict[str, Any]:
        uptime = time.perf_counter() - self._t0
        cells = self.cells_total
        ratio = (lambda n: round(n / cells, 4) if cells else 0.0)
        return {
            "uptime_s": round(uptime, 3),
            "requests": self.requests,
            "errors": self.errors,
            "req_per_sec": round(self.requests / uptime, 2) if uptime > 0 else 0.0,
            "in_flight": self.in_flight,
            "max_in_flight": self.max_in_flight,
            "cells": {
                "total": cells,
                "hot_hits": self.hot_hits,
                "store_hits": self.store_hits,
                "coalesced": self.coalesced,
                "computed": self.computed,
                "hot_hit_ratio": ratio(self.hot_hits),
                "store_hit_ratio": ratio(self.store_hits),
                "coalesce_ratio": ratio(self.coalesced),
                "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            },
            # the reservoir covers the last RESERVOIR_SIZE requests, however
            # old — a cold burst parks its p99 until enough traffic scrolls
            # it out.  The paired "latency_windowed_ms" section (/stats,
            # merged in by ServeObservability) covers fixed time windows
            # instead; both are labeled so dashboards can say which is which.
            "latency_ms": {
                "window": f"last_{self.latency._size}_requests",
                "count": self.latency.count,
                "p50": round(self.latency.quantile(0.50) * 1e3, 3),
                "p90": round(self.latency.quantile(0.90) * 1e3, 3),
                "p99": round(self.latency.quantile(0.99) * 1e3, 3),
            },
        }
