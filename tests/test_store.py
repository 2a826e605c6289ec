"""SQLite result store: round-trip, LRU bound, gc, recovery,
and multi-process contention (the advisor service shares one store
between server workers and batch sweeps)."""

import multiprocessing
import threading
import time

from repro.bench.store import ResultStore


def _put(store, key, result, version="v1", **kw):
    store.put(key, cell_id=f"cell-{key}", experiment=kw.pop("experiment", "e"),
              code_version=version, result=result, **kw)


def test_round_trip_and_hit_counter(tmp_path):
    store = ResultStore.open(tmp_path)
    _put(store, "k1", {"metric": 0.1 + 0.2, "xs": [1, 2.5]})
    hit, result = store.get("k1")
    assert hit
    assert result == {"metric": 0.30000000000000004, "xs": [1, 2.5]}
    assert not store.get("missing")[0]
    store.get("k1")
    assert store.stats()["hits_total"] == 2


def test_put_is_replace(tmp_path):
    store = ResultStore.open(tmp_path)
    _put(store, "k1", {"v": 1})
    _put(store, "k1", {"v": 2})
    assert store.count() == 1
    assert store.get("k1")[1] == {"v": 2}


def test_lru_eviction_keeps_recently_used(tmp_path):
    # ~60-byte payloads, bound that fits only a handful
    store = ResultStore.open(tmp_path, max_bytes=300)
    for i in range(10):
        _put(store, f"k{i}", {"pad": "x" * 40, "i": i})
    store.get("k0")  # refresh k0's LRU clock
    time.sleep(0.01)
    evicted = store.evict_lru()
    assert evicted > 0
    assert store.count() < 10
    assert store.get("k0")[0]  # recently used survives
    total = store.conn.execute(
        "SELECT SUM(nbytes) FROM results").fetchone()[0]
    assert total <= 300


def test_gc_removes_stale_code_versions(tmp_path):
    store = ResultStore.open(tmp_path)
    _put(store, "old", {"v": 1}, version="v1")
    _put(store, "new", {"v": 2}, version="v2")
    out = store.gc(current_version="v2")
    assert out["stale_removed"] == 1
    assert out["remaining"] == 1
    assert store.get("new")[0] and not store.get("old")[0]


def test_gc_older_than_filter(tmp_path):
    store = ResultStore.open(tmp_path)
    _put(store, "stale-recent", {"v": 1}, version="v1")
    _put(store, "live-old", {"v": 2}, version="v2")
    # age only "live-old" beyond the cutoff
    store.conn.execute(
        "UPDATE results SET last_used = last_used - 3600 WHERE key = 'live-old'")
    store.conn.commit()
    out = store.gc(current_version="v2", older_than_s=1800)
    # recent stale entry survives the age filter; old live entry trimmed
    assert out["stale_removed"] == 0 and out["aged_removed"] == 1
    assert store.get("stale-recent")[0] and not store.get("live-old")[0]


def test_stats_shape(tmp_path):
    store = ResultStore.open(tmp_path)
    _put(store, "a", {"v": 1}, experiment="fig04")
    _put(store, "b", {"v": 2}, experiment="dse", version="v9")
    stats = store.stats(current_version="v1")
    assert stats["entries"] == 2
    assert stats["stale_entries"] == 1
    assert stats["by_experiment"] == {"dse": 1, "fig04": 1}
    assert stats["bytes"] > 0 and stats["file_bytes"] > 0


def test_calibration_samples(tmp_path):
    store = ResultStore.open(tmp_path)
    _put(store, "a", {"v": 1}, wall_s=0.5, work_units=100.0)
    _put(store, "b", {"v": 2}, wall_s=None, work_units=None)  # excluded
    samples = store.calibration_samples()
    assert samples == [("e", 100.0, 0.5)]


def test_corrupt_db_recreated_on_open(tmp_path):
    (tmp_path / "store.sqlite").write_text("garbage, not a database")
    store = ResultStore.open(tmp_path)
    assert store.count() == 0
    _put(store, "k", {"v": 1})
    assert store.get("k")[0]


def _contend(path, worker, n_keys, barrier):
    """One writer/reader process: put private + shared keys, read back."""
    store = ResultStore.open(path)
    barrier.wait(timeout=60)  # maximize overlap
    for i in range(n_keys):
        store.put(f"w{worker}-k{i}", cell_id=f"c{worker}-{i}",
                  experiment="contend", code_version="v1",
                  result={"worker": worker, "i": i, "pad": "x" * 64})
        # every process hammers the same shared keys too
        store.put(f"shared-k{i % 5}", cell_id=f"s{i % 5}",
                  experiment="contend", code_version="v1",
                  result={"shared": i % 5})
    for i in range(n_keys):
        hit, result = store.get(f"w{worker}-k{i}")
        if not hit or result["worker"] != worker or result["i"] != i:
            raise SystemExit(3)  # lost or corrupt read
    raise SystemExit(0)


def test_concurrent_processes_no_lost_puts_or_corrupt_reads(tmp_path):
    # WAL + busy-timeout: 4 processes write and read one store file at
    # once; every put must land and every read must parse
    n_procs, n_keys = 4, 20
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    barrier = ctx.Barrier(n_procs)
    procs = [ctx.Process(target=_contend,
                         args=(tmp_path, w, n_keys, barrier))
             for w in range(n_procs)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert [p.exitcode for p in procs] == [0] * n_procs
    store = ResultStore.open(tmp_path)
    assert store.count() == n_procs * n_keys + 5
    for w in range(n_procs):
        for i in range(n_keys):
            hit, result = store.get(f"w{w}-k{i}")
            assert hit and result == {"worker": w, "i": i, "pad": "x" * 64}
    for s in range(5):
        hit, result = store.get(f"shared-k{s}")
        assert hit and result == {"shared": s}


def test_concurrent_threads_share_one_store(tmp_path):
    # the server's store-io executor uses the store from several threads;
    # the internal lock must serialize transactions without losing puts
    store = ResultStore.open(tmp_path)
    errors = []

    def hammer(worker):
        try:
            for i in range(30):
                store.put(f"t{worker}-k{i}", cell_id=f"c{worker}-{i}",
                          experiment="threads", code_version="v1",
                          result={"w": worker, "i": i})
                hit, result = store.get(f"t{worker}-k{i}")
                assert hit and result == {"w": worker, "i": i}
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert store.count() == 4 * 30


def test_wal_journal_mode_reported(tmp_path):
    store = ResultStore.open(tmp_path)
    # WAL everywhere a real filesystem backs the store; stats surfaces
    # whatever mode the open negotiated so ops can see a fallback
    assert store.stats()["journal_mode"] == store.journal_mode
    assert store.journal_mode in ("wal", "delete", "truncate", "memory")

