"""Wall-clock observability primitives for the serving stack.

:mod:`repro.obs` (PR 5) observes *virtual* time under a bit-identity
contract; this module is its wall-clock twin for the code that runs in
real time — the advisor service and the sweep engine.
Everything here is stdlib-only (the container carries no prometheus
client, no tracing SDK) and obeys the same contract translated to wall
time: **off means off** — with sampling disabled and nothing scraping,
the per-request cost is a few comparisons and integer adds, and
sampling-off requests share one ``NULL_TRACE`` (pinned by
``tests/test_wallclock_obs.py``).

Four subsystems, composed by :mod:`repro.serve.observe`:

- **request-scoped span tracing** — :class:`WallClockTracer` samples
  requests (off by default; forceable per request); a sampled request
  carries a :class:`RequestTrace` through the whole answer path, and
  finished traces export as Chrome-trace JSON (``ph:"X"`` spans) that
  merges with the simulator's virtual-time traces in one Perfetto
  timeline;
- **metrics** — :class:`MetricsRegistry` with :class:`Counter` /
  :class:`Gauge` / :class:`Histogram`, rendered in the Prometheus text
  exposition format (``GET /metrics``).  Gauges and counters can be
  callback-backed so live server state (queue depths, store stats) is
  read only at scrape time;
- **SLO monitoring** — :class:`SlidingWindows` keeps per-slot latency
  histograms over 1m/5m/1h windows; :class:`SLOMonitor` computes
  windowed p50/p99, error rate, and multi-window burn rates against an
  error budget, surfacing ``degraded`` into ``/healthz``;
- **flight recorder** — :class:`FlightRecorder`, a bounded ring of
  structured events (slow requests, errors, store journal fallbacks,
  pool restarts) dumped via ``GET /debug/flight`` and on shutdown.
"""

import bisect
import itertools
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "LATENCY_BUCKETS_S",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACE",
    "RequestTrace",
    "SLOConfig",
    "SLOMonitor",
    "SlidingWindows",
    "WallClockTracer",
    "bucket_quantile",
    "process_stats",
    "serve_chrome_events",
]

#: fixed latency histogram boundaries in seconds (Prometheus-style
#: upper bounds; the implicit final bucket is +Inf).  Spans the advisor's
#: regimes: sub-ms hot hits through multi-second cold simulation bursts.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


# -- metrics registry (Prometheus text exposition) -----------------------------


def _format_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Metric:
    """Base: a named family with HELP/TYPE and one or more samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        """``(name_suffix, labels, value)`` rows."""
        raise NotImplementedError

    def expose(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for suffix, labels, value in self.samples():
            lines.append(
                f"{self.name}{suffix}{_format_labels(labels)} {_format_value(value)}")
        return lines


class Counter(Metric):
    """Monotone counter, optionally labelled, optionally callback-backed.

    ``fn`` (when given) is called at scrape time and must return either a
    number (unlabelled) or a ``{label_value: number}`` dict over
    ``label`` — that is how the registry exposes counts the server
    already keeps exactly (e.g. :class:`~repro.serve.stats.ServerStats`
    per-tier cells) without double bookkeeping on the hot path.
    """

    kind = "counter"

    def __init__(self, name: str, help_text: str, label: Optional[str] = None,
                 fn: Optional[Callable[[], Union[float, Dict[str, float]]]] = None):
        super().__init__(name, help_text)
        self.label = label
        self.fn = fn
        self._values: Dict[str, float] = {}

    def inc(self, amount: float = 1.0, label_value: str = "") -> None:
        self._values[label_value] = self._values.get(label_value, 0.0) + amount

    def value(self, label_value: str = "") -> float:
        return self._values.get(label_value, 0.0)

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        source: Union[float, Dict[str, float]]
        source = self.fn() if self.fn is not None else self._values
        if isinstance(source, dict):
            if self.label is None and source == {"": source.get("", 0.0)}:
                return [("", {}, source.get("", 0.0))]
            return [("", {self.label or "label": k}, float(v))
                    for k, v in sorted(source.items())]
        return [("", {}, float(source))]


class Gauge(Metric):
    """Instantaneous value; callback-backed gauges read at scrape time."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, label: Optional[str] = None,
                 fn: Optional[Callable[[], Union[float, Dict[str, float]]]] = None):
        super().__init__(name, help_text)
        self.label = label
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        source = self.fn() if self.fn is not None else self._value
        if isinstance(source, dict):
            return [("", {self.label or "label": k}, float(v))
                    for k, v in sorted(source.items())]
        return [("", {}, float(source))]


class Histogram(Metric):
    """Cumulative fixed-bucket histogram (Prometheus semantics).

    ``observe`` costs one bisect over the boundaries plus three adds —
    cheap enough for the request hot path.  Bucket counts are exposed
    cumulatively with ``le`` labels, closed by ``le="+Inf"`` equal to
    ``_count``, alongside ``_sum``.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS_S):
        super().__init__(name, help_text)
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +Inf last
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> int:
        """Record ``value``; returns the bucket index (reusable by callers
        that feed the same observation into a sliding window)."""
        idx = bisect.bisect_left(self.bounds, value)
        self.counts[idx] += 1
        self.total += 1
        self.sum += value
        return idx

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        out: List[Tuple[str, Dict[str, str], float]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append(("_bucket", {"le": _format_value(bound)}, float(running)))
        out.append(("_bucket", {"le": "+Inf"}, float(self.total)))
        out.append(("_sum", {}, self.sum))
        out.append(("_count", {}, float(self.total)))
        return out


class MetricsRegistry:
    """An ordered set of metric families rendered as one exposition page."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, Metric]" = {}

    def register(self, metric: Metric) -> Metric:
        if metric.name in self._metrics:
            raise ValueError(f"duplicate metric {metric.name!r}")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str, **kw) -> Counter:
        return self.register(Counter(name, help_text, **kw))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, **kw) -> Gauge:
        return self.register(Gauge(name, help_text, **kw))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str, **kw) -> Histogram:
        return self.register(Histogram(name, help_text, **kw))  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def expose(self) -> str:
        """The full Prometheus text exposition page (trailing newline)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"


# -- sliding-window latency histograms ------------------------------------------


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int],
                    q: float) -> float:
    """Quantile from cumulative-able bucket counts, Prometheus-style.

    ``counts`` are per-bucket (not cumulative) with the +Inf bucket last;
    within the located bucket the value is linearly interpolated between
    its bounds.  The +Inf bucket clamps to the largest finite bound.
    Returns 0.0 for an empty histogram.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    running = 0.0
    for i, count in enumerate(counts):
        running += count
        if running >= rank and count > 0:
            if i >= len(bounds):  # +Inf bucket
                return float(bounds[-1])
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            frac = (rank - (running - count)) / count
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
    return float(bounds[-1])


@dataclass
class _Slot:
    """One time slot of the sliding ring: a latency histogram + counts."""

    epoch: int = -1
    count: int = 0
    errors: int = 0
    bad: int = 0  # errors + over-latency-SLO requests (burn-rate numerator)
    sum: float = 0.0
    buckets: List[int] = field(default_factory=list)

    def reset(self, epoch: int, n_buckets: int) -> None:
        self.epoch = epoch
        self.count = self.errors = self.bad = 0
        self.sum = 0.0
        self.buckets = [0] * n_buckets


class SlidingWindows:
    """Latency/error accounting over sliding windows, O(1) per record.

    Time is cut into ``slot_s``-second slots kept in a ring sized for the
    longest window; recording touches exactly one slot (a stale slot is
    reset in place when its epoch comes around again — no timers, no
    background thread).  Window queries merge the live slots on demand,
    so the per-request cost is one bisect plus a handful of adds no
    matter how many windows are configured.

    ``clock`` is injectable so tests can drive hours of traffic in
    microseconds.
    """

    def __init__(self, windows_s: Sequence[float] = (60.0, 300.0, 3600.0),
                 slot_s: float = 5.0,
                 buckets: Sequence[float] = LATENCY_BUCKETS_S,
                 clock: Callable[[], float] = time.monotonic):
        if slot_s <= 0:
            raise ValueError(f"slot_s must be positive, got {slot_s}")
        self.windows_s = tuple(sorted(windows_s))
        if not self.windows_s:
            raise ValueError("need at least one window")
        self.slot_s = slot_s
        self.bounds = tuple(buckets)
        self.clock = clock
        n_slots = int(math.ceil(self.windows_s[-1] / slot_s)) + 1
        self._slots = [_Slot() for _ in range(n_slots)]
        self._n_buckets = len(self.bounds) + 1
        self.recorded_total = 0

    def record(self, seconds: float, error: bool = False,
               bad: Optional[bool] = None,
               bucket_idx: Optional[int] = None) -> None:
        """Record one request.  ``bad`` defaults to ``error``;
        ``bucket_idx`` (from a paired :meth:`Histogram.observe`) skips
        the second bisect when the caller already located the bucket."""
        epoch = int(self.clock() // self.slot_s)
        slot = self._slots[epoch % len(self._slots)]
        if slot.epoch != epoch:
            slot.reset(epoch, self._n_buckets)
        if bucket_idx is None:
            bucket_idx = bisect.bisect_left(self.bounds, seconds)
        slot.buckets[bucket_idx] += 1
        slot.count += 1
        slot.sum += seconds
        if error:
            slot.errors += 1
        if bad if bad is not None else error:
            slot.bad += 1
        self.recorded_total += 1

    def _merge(self, window_s: float) -> _Slot:
        now = self.clock()
        min_epoch = int((now - window_s) // self.slot_s) + 1
        max_epoch = int(now // self.slot_s)
        merged = _Slot()
        merged.reset(0, self._n_buckets)
        for slot in self._slots:
            if min_epoch <= slot.epoch <= max_epoch and slot.count:
                merged.count += slot.count
                merged.errors += slot.errors
                merged.bad += slot.bad
                merged.sum += slot.sum
                for i, c in enumerate(slot.buckets):
                    merged.buckets[i] += c
        return merged

    def window(self, window_s: float) -> Dict[str, float]:
        """Aggregate one window: count/error_rate/bad_rate/mean/p50/p99."""
        m = self._merge(window_s)
        out = {
            "window_s": float(window_s),
            "count": float(m.count),
            "errors": float(m.errors),
            "error_rate": m.errors / m.count if m.count else 0.0,
            "bad_rate": m.bad / m.count if m.count else 0.0,
            "mean_ms": 1e3 * m.sum / m.count if m.count else 0.0,
            "p50_ms": 1e3 * bucket_quantile(self.bounds, m.buckets, 0.50),
            "p99_ms": 1e3 * bucket_quantile(self.bounds, m.buckets, 0.99),
        }
        return out

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every configured window, keyed by a human label (60 → "1m")."""
        return {_window_label(w): self.window(w) for w in self.windows_s}


def _window_label(seconds: float) -> str:
    if seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{int(seconds)}s"


# -- SLO monitor with multi-window burn-rate alerting ---------------------------


@dataclass(frozen=True)
class SLOConfig:
    """What "healthy" means for the advisor service.

    A request is **bad** when it errors or exceeds ``latency_slo_s``;
    the SLO allows a ``budget`` fraction of bad requests.  The burn rate
    over a window is ``bad_rate / budget`` — 1.0 means exactly eating
    the budget, 10x means eating it ten times as fast.  An alert rule
    ``(short_s, long_s, factor)`` fires only when *both* windows burn
    above ``factor`` — the standard multi-window guard: the long window
    keeps one latency spike from paging, the short window ends the alert
    promptly once the regression stops.
    """

    latency_slo_s: float = 0.5
    budget: float = 0.05
    windows_s: Tuple[float, ...] = (60.0, 300.0, 3600.0)
    slot_s: float = 5.0
    #: (short window, long window, burn-rate factor) alert rules
    burn_rules: Tuple[Tuple[float, float, float], ...] = (
        (60.0, 300.0, 10.0),
        (300.0, 3600.0, 4.0),
    )
    #: ignore burn rates until a window holds at least this many requests
    min_requests: int = 10


class SLOMonitor:
    """Sliding-window SLO accounting + burn-rate alerting for one server."""

    def __init__(self, config: SLOConfig = SLOConfig(),
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        windows = set(config.windows_s)
        for short, long_, _ in config.burn_rules:
            windows.update((short, long_))
        self.windows = SlidingWindows(
            windows_s=sorted(windows), slot_s=config.slot_s, clock=clock)

    def record(self, seconds: float, error: bool = False,
               bucket_idx: Optional[int] = None) -> None:
        bad = error or seconds > self.config.latency_slo_s
        self.windows.record(seconds, error=error, bad=bad,
                            bucket_idx=bucket_idx)

    def burn_rate(self, window_s: float) -> float:
        w = self.windows.window(window_s)
        if w["count"] < self.config.min_requests:
            return 0.0
        return w["bad_rate"] / self.config.budget if self.config.budget > 0 else 0.0

    def evaluate(self) -> Dict[str, Any]:
        """The SLO snapshot: windowed stats, burn rates, firing alerts."""
        cfg = self.config
        alerts = []
        for short, long_, factor in cfg.burn_rules:
            short_burn = self.burn_rate(short)
            long_burn = self.burn_rate(long_)
            if short_burn >= factor and long_burn >= factor:
                alerts.append({
                    "rule": f"{_window_label(short)}+{_window_label(long_)}"
                            f">={factor}x",
                    "short_burn": round(short_burn, 2),
                    "long_burn": round(long_burn, 2),
                })
        return {
            "latency_slo_ms": cfg.latency_slo_s * 1e3,
            "budget": cfg.budget,
            "degraded": bool(alerts),
            "alerts": alerts,
            "burn_rates": {
                _window_label(w): round(self.burn_rate(w), 3)
                for w in cfg.windows_s},
            "windows": {
                label: {k: (round(v, 3) if isinstance(v, float) else v)
                        for k, v in stats.items()}
                for label, stats in (
                    (_window_label(w), self.windows.window(w))
                    for w in cfg.windows_s)},
        }

    @property
    def degraded(self) -> bool:
        return self.evaluate()["degraded"]


# -- flight recorder -------------------------------------------------------------


class FlightRecorder:
    """A bounded ring of structured events for postmortems.

    Everything notable but rare lands here — requests over the slow
    threshold, error responses, store journal-mode fallbacks, pool
    restarts — so "what happened just before that error" is answerable
    from ``GET /debug/flight`` or the shutdown dump without grepping
    logs.  Oldest events are evicted first; ``dropped`` counts how many
    fell off the ring so a dump is honest about truncation.

    Thread-safe: the io/persist threads record store events while the
    event loop records request events.
    """

    def __init__(self, capacity: int = 512,
                 clock: Callable[[], float] = time.time):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._clock = clock
        self._lock = threading.Lock()
        self.recorded_total = 0

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        event = {"seq": next(self._seq), "t": round(self._clock(), 6),
                 "kind": kind, **fields}
        with self._lock:
            self._ring.append(event)
            self.recorded_total += 1
        return event

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self) -> Dict[str, Any]:
        """Oldest → newest events plus honest truncation accounting."""
        with self._lock:
            events = list(self._ring)
        return {
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "dropped": self.recorded_total - len(events),
            "events": events,
        }


# -- process stats ---------------------------------------------------------------


def process_stats() -> Dict[str, float]:
    """Resident set size and cumulative CPU seconds of this process.

    Reads ``/proc/self/statm`` where available (Linux), falling back to
    ``resource.getrusage`` peak RSS; CPU comes from ``os.times()``.
    """
    rss = 0.0
    try:
        with open("/proc/self/statm") as fh:
            rss = float(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        try:
            import resource

            rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0
        except Exception:
            rss = 0.0
    t = os.times()
    return {"rss_bytes": rss, "cpu_seconds": t.user + t.system}


# -- request-scoped span tracing -------------------------------------------------


class RequestTrace:
    """All spans of one sampled request, rooted at span id 0.

    Spans are ``[span_id, parent_id, name, t0, t1, args]`` rows against
    a shared ``perf_counter`` origin (the tracer's), so traces from one
    server render on one timeline.  ``begin``/``end`` bracket work on
    the event loop; ``add`` records an externally timed span (io-thread
    store writes, pool chunk walls) — list appends are atomic under the
    GIL, so thread-side adds need no lock.
    """

    __slots__ = ("trace_id", "origin", "wall0", "spans", "_next_id", "finished")

    enabled = True

    def __init__(self, trace_id: str, origin: float):
        self.trace_id = trace_id
        self.origin = origin
        self.wall0 = time.time()
        now = time.perf_counter()
        #: span rows: [span_id, parent_id, name, t0, t1, args]
        self.spans: List[List[Any]] = [[0, -1, "request", now, None, {}]]
        self._next_id = 1
        self.finished = False

    def begin(self, name: str, parent: int = 0, **args: Any) -> int:
        sid = self._next_id
        self._next_id += 1
        self.spans.append([sid, parent, name, time.perf_counter(), None, args])
        return sid

    def end(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()

    def add(self, name: str, t0: float, t1: float, parent: int = 0,
            **args: Any) -> int:
        """Record an externally timed span (perf_counter endpoints)."""
        sid = self._next_id
        self._next_id += 1
        self.spans.append([sid, parent, name, t0, t1, args])
        return sid

    def annotate(self, span_id: int, **args: Any) -> None:
        self.spans[span_id][5].update(args)

    def finish(self) -> None:
        root = self.spans[0]
        if root[4] is None:
            root[4] = time.perf_counter()
        self.finished = True

    @property
    def duration_s(self) -> float:
        root = self.spans[0]
        return (root[4] - root[3]) if root[4] is not None else 0.0


class _NullTrace:
    """The not-sampled request: every tracing call is a cheap no-op."""

    __slots__ = ()

    enabled = False

    def begin(self, name: str, parent: int = 0, **args: Any) -> int:
        return 0

    def end(self, span_id: int) -> None:
        pass

    def add(self, name: str, t0: float, t1: float, parent: int = 0,
            **args: Any) -> int:
        return 0

    def annotate(self, span_id: int, **args: Any) -> None:
        pass

    def finish(self) -> None:
        pass


#: the shared no-op trace handed to every unsampled request
NULL_TRACE = _NullTrace()


class WallClockTracer:
    """Samples requests and keeps a bounded ring of finished traces.

    ``sample_rate`` is the probability a request is traced (0.0 —
    **off** — by default); a request can also be force-sampled (the
    ``X-Repro-Trace: 1`` header path the load generator uses).  The
    disabled fast path is one float compare.  Sampling uses a cheap
    deterministic LCG, not ``random`` — no global-RNG contention, and a
    seeded tracer yields a reproducible sample set.
    """

    def __init__(self, sample_rate: float = 0.0, capacity: int = 64,
                 seed: int = 1):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.origin = time.perf_counter()
        self._ring: "deque[RequestTrace]" = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._lcg = (seed * 2 + 1) & 0xFFFFFFFF
        self.sampled_total = 0

    def _coin(self) -> float:
        self._lcg = (self._lcg * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._lcg / 4294967296.0

    def sample(self, force: bool = False) -> Union[RequestTrace, _NullTrace]:
        """A live :class:`RequestTrace`, or :data:`NULL_TRACE` when not
        sampled.  Callers never branch on sampling — they call the same
        methods on whatever comes back."""
        if not force and (self.sample_rate <= 0.0
                          or self._coin() >= self.sample_rate):
            return NULL_TRACE
        self.sampled_total += 1
        return RequestTrace(f"req-{next(self._seq)}", self.origin)

    def finish(self, trace: Union[RequestTrace, _NullTrace]) -> None:
        if isinstance(trace, RequestTrace):
            trace.finish()
            self._ring.append(trace)

    def traces(self) -> List[RequestTrace]:
        return list(self._ring)

    def chrome_trace_doc(self) -> Dict[str, Any]:
        """The sampled-request ring as one Chrome-trace JSON document."""
        return {"traceEvents": serve_chrome_events(self.traces()),
                "displayTimeUnit": "ns"}


#: pid block used for serve-side request lanes in merged Chrome traces —
#: far above the per-runtime blocks of :func:`repro.obs.export.chrome_trace_events`
SERVE_TRACE_PID = 1000


def serve_chrome_events(traces: Sequence[RequestTrace],
                        pid_base: int = SERVE_TRACE_PID) -> List[Dict[str, Any]]:
    """Chrome-trace events for sampled requests: one lane per request.

    Timestamps are wall microseconds relative to the earliest sampled
    request's origin, so concurrent requests line up on one timeline.
    The schema matches the simulator exporter's (``ph:"X"`` with
    name/ts/dur/pid/tid/args), so the existing trace schema tests load
    these events unchanged.
    """
    if not traces:
        return []
    t_origin = min(t.spans[0][3] for t in traces)
    out: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid_base,
         "args": {"name": "advisor requests (wall clock)"}},
    ]
    for tid, trace in enumerate(traces):
        out.append({"name": "thread_name", "ph": "M", "pid": pid_base,
                    "tid": tid, "args": {"name": trace.trace_id}})
        for sid, parent, name, t0, t1, args in trace.spans:
            if t1 is None:
                continue  # span never closed (request died mid-flight)
            ev_args = {"trace_id": trace.trace_id, "span_id": sid,
                       "parent_id": parent}
            if args:
                ev_args.update(args)
            out.append({
                "name": name, "ph": "X", "cat": "serve",
                "ts": max((t0 - t_origin) * 1e6, 0.0),
                "dur": max((t1 - t0) * 1e6, 0.001),
                "pid": pid_base, "tid": tid, "args": ev_args,
            })
    return out
