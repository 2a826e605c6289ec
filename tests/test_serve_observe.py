"""End-to-end tests of the serve stack's wall-clock observability.

A real :class:`~repro.serve.app.ServerThread` (sockets, pool, store
off for speed) answers requests while the tests assert the tentpole's
acceptance criteria: ``/metrics`` parses as Prometheus exposition with
nonzero tier counters, a forced-sample ``/advise`` yields a Chrome
trace whose spans form a well-formed tree covering ≥95% of the request
wall time, ``/debug/flight`` captures induced errors and slow
requests, and ``/stats`` labels both latency views.
"""

import asyncio

import pytest

from repro.obs.export import merge_serve_events
from repro.serve.app import ServerThread
from repro.serve.client import AdvisorClient

from tests.test_wallclock_obs import parse_exposition

QUERY = {
    "workload": "gups",
    "policy": "charm",
    "geometry": {"cps": 2, "cpc": 4, "l3_mib": 4, "channels": 4},
    "params": {"table_bytes": 1 << 20, "updates_per_worker": 64},
}


@pytest.fixture(scope="module")
def server():
    with ServerThread(jobs=1, use_store=False) as srv:
        yield srv


def _run(server, coro_fn):
    async def body():
        client = AdvisorClient(server.host, server.port)
        try:
            return await coro_fn(client)
        finally:
            await client.close()

    return asyncio.run(body())


def test_metrics_exposition_parses_with_nonzero_tiers(server):
    async def go(client):
        for _ in range(3):  # first computes, repeats hit the hot tier
            status, doc = await client.post("/advise", QUERY)
            assert status == 200, doc
        status, text = await client.get("/metrics")
        assert status == 200
        return text

    text = _run(server, go)
    assert isinstance(text, str), "exposition must be text/plain, not JSON"
    samples = parse_exposition(text)
    assert samples[("repro_serve_requests_total", "")] >= 3
    tiers = {label: value for (name, label), value in samples.items()
             if name == "repro_serve_cells_total"}
    assert sum(tiers.values()) >= 3, tiers
    assert tiers['{tier="hot"}'] >= 1, "repeat queries must hit the hot tier"
    # request histogram present, cumulative, closed by +Inf == _count
    count = samples[("repro_serve_request_seconds_count", "")]
    assert count >= 3
    inf_bucket = samples[("repro_serve_request_seconds_bucket", '{le="+Inf"}')]
    assert inf_bucket == count
    assert samples[("repro_process_resident_bytes", "")] > 1 << 20


def test_forced_trace_spans_cover_request(server):
    async def go(client):
        fresh = dict(QUERY, params={"table_bytes": 1 << 20,
                                    "updates_per_worker": 96})
        status, doc = await client.post("/advise", fresh,
                                        headers={"X-Repro-Trace": "1"})
        assert status == 200, doc
        assert "trace_id" in doc
        status, trace_doc = await client.get("/debug/trace")
        assert status == 200
        return doc["trace_id"], trace_doc

    trace_id, trace_doc = _run(server, go)
    events = [e for e in trace_doc["traceEvents"]
              if e["ph"] == "X" and e["args"].get("trace_id") == trace_id]
    assert events, "forced sample must appear in /debug/trace"

    # span tree well-formedness: every parent exists, root covers children
    by_sid = {e["args"]["span_id"]: e for e in events}
    root = by_sid[0]
    assert root["name"] == "request"
    r0, r1 = root["ts"], root["ts"] + root["dur"]
    for e in events:
        if e["args"]["span_id"] == 0:
            continue
        assert e["args"]["parent_id"] in by_sid, e
        assert e["ts"] >= r0 - 1e-6

    # a computed-tier request must walk the full taxonomy
    names = {e["name"] for e in events}
    assert {"request", "parse", "normalize", "answer_cells", "hot_probe",
            "batch_window", "pool_execute", "respond"} <= names, names

    # children cover >= 95% of the request root's wall time
    children = sorted((max(e["ts"], r0), min(e["ts"] + e["dur"], r1))
                      for e in events
                      if e["args"]["span_id"] != 0
                      and e["args"]["parent_id"] in (0, 1, 2, 3, 4))
    covered, cursor = 0.0, r0
    for a, b in children:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    assert covered >= 0.95 * root["dur"], \
        f"spans cover {100 * covered / root['dur']:.1f}% of the request"


def test_trace_events_load_by_sim_schema(server):
    """The serve exporter's events satisfy the same invariants the
    existing sim trace-schema tests assert, and merge into a sim event
    list in a disjoint pid block."""
    async def go(client):
        await client.post("/advise", QUERY, headers={"X-Repro-Trace": "1"})
        _, doc = await client.get("/debug/trace")
        return doc

    doc = _run(server, go)
    events = doc["traceEvents"]
    assert events
    for e in events:
        assert e.get("name") and e.get("ph")
        assert e["ph"] in ("X", "i", "C", "s", "f", "M")
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0

    sim_events = [{"name": "task", "ph": "X", "ts": 0.0, "dur": 5.0,
                   "pid": 0, "tid": 0, "args": {}}]
    merged = list(sim_events)
    added = merge_serve_events(merged, doc)
    assert added == len(events)
    serve_pids = {e["pid"] for e in merged[1:]}
    assert 0 not in serve_pids, "serve lanes must not collide with sim pids"


def test_flight_recorder_captures_induced_400(server):
    async def go(client):
        status, doc = await client.post("/advise", {"workload": "no-such"})
        assert status == 400
        _, flight = await client.get("/debug/flight")
        return flight

    flight = _run(server, go)
    errors = [e for e in flight["events"] if e["kind"] == "request_error"]
    assert errors, flight
    assert errors[-1]["status"] == 400
    assert "no-such" in errors[-1]["detail"]


def test_flight_recorder_slow_threshold():
    with ServerThread(jobs=1, use_store=False, slow_threshold_s=0.0) as srv:
        async def go(client):
            status, _ = await client.post("/advise", QUERY)
            assert status == 200
            _, flight = await client.get("/debug/flight")
            return flight

        flight = _run(srv, go)
    slow = [e for e in flight["events"] if e["kind"] == "slow_request"]
    assert slow, "threshold 0 makes every request slow"
    assert slow[-1]["latency_ms"] >= 0


def test_stats_has_labeled_reservoir_and_windowed_views(server):
    async def go(client):
        await client.post("/advise", QUERY)
        _, stats = await client.get("/stats")
        _, health = await client.get("/healthz")
        return stats, health

    stats, health = _run(server, go)
    assert stats["latency_ms"]["window"] == "last_4096_requests"
    assert {"p50", "p99", "count"} <= set(stats["latency_ms"])
    windowed = stats["latency_windowed_ms"]
    assert set(windowed) == {"1m", "5m", "1h"}
    assert windowed["1m"]["count"] >= 1
    assert windowed["1m"]["p50"] >= 0.0
    slo = stats["slo"]
    assert slo["degraded"] is False
    assert set(slo["burn_rates"]) == {"1m", "5m", "1h"}
    assert health["status"] == "ok"
    assert health["slo"]["degraded"] is False


def test_no_obs_server_disables_surfaces():
    with ServerThread(jobs=1, use_store=False, observability=False) as srv:
        async def go(client):
            status, doc = await client.post(
                "/advise", QUERY, headers={"X-Repro-Trace": "1"})
            assert status == 200
            assert "trace_id" not in doc
            results = {}
            for path in ("/metrics", "/debug/flight", "/debug/trace"):
                results[path], _ = await client.get(path)
            _, stats = await client.get("/stats")
            _, health = await client.get("/healthz")
            return results, stats, health

        results, stats, health = _run(srv, go)
    assert all(status == 404 for status in results.values()), results
    assert "slo" not in stats
    assert "slo" not in health
    assert health["status"] == "ok"


def test_loadgen_trace_sample_and_slo_report():
    from repro.bench.loadgen import run_load

    with ServerThread(jobs=1, use_store=False) as srv:
        async def go():
            return await run_load(srv.url, requests=12, concurrency=4,
                                  dup_ratio=0.5, trace_sample=0.5,
                                  slo_ms=60_000.0)

        report = asyncio.run(go())
    assert report["errors"] == 0
    assert report["traced_requests"] >= 1
    assert report["slo"]["slo_ms"] == 60_000.0
    assert report["slo"]["violations"] == 0
    assert report["slo"]["server"] is not None
    assert report["healthz_ok"]
