"""Sweep engine: cells, content-addressed cache, resume, sharding."""

import json

import pytest

from repro.bench import sweep
from repro.bench.cells import REGISTRY, ExperimentCell
from repro.bench.experiments import fig04_channels  # noqa: F401 - registers


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    d = tmp_path / "sweep-cache"
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(d))
    return d


def _cell(**kw):
    base = dict(experiment="fig04_channels", machine_preset="milan",
                strategy="charm", cores=8, seed=7)
    base.update(kw)
    return ExperimentCell.make(**base)


def test_cell_id_is_stable_and_param_order_free():
    a = ExperimentCell.make("e", machine_preset="milan", strategy="charm",
                            cores=8, seed=7, algo="bfs", scale=14)
    b = ExperimentCell.make("e", machine_preset="milan", strategy="charm",
                            cores=8, seed=7, scale=14, algo="bfs")
    assert a == b
    assert a.cell_id == b.cell_id == "e/milan/charm/c8/algo=bfs,scale=14/s7"


def test_cell_id_distinguishes_every_field():
    base = _cell()
    assert base.cell_id != _cell(cores=16).cell_id
    assert base.cell_id != _cell(strategy="ring").cell_id
    assert base.cell_id != _cell(seed=8).cell_id
    assert base.cell_id != _cell(machine_preset="genoa").cell_id


def test_cache_key_depends_on_config_and_code_version(monkeypatch):
    k1 = sweep.cache_key(_cell())
    assert k1 == sweep.cache_key(_cell())        # deterministic
    assert k1 != sweep.cache_key(_cell(cores=16))
    monkeypatch.setattr(sweep, "_CODE_VERSION", "different")
    assert sweep.cache_key(_cell()) != k1        # code change invalidates


def test_cache_round_trip_preserves_result_exactly(cache):
    cell = _cell()
    result = {"metric": 0.1 + 0.2, "counters": {"dram": 12345}, "xs": [1, 2.5]}
    sweep.store_cached(cell, result)
    hit, loaded = sweep.load_cached(cell)
    assert hit and loaded == result
    assert isinstance(loaded["metric"], float) and loaded["metric"] == 0.30000000000000004


def test_corrupt_store_file_is_a_miss_and_recovers(cache):
    cell = _cell()
    sweep.store_cached(cell, {"v": 1})
    # trash the SQLite file behind the store's back, drop the open handle
    sweep.get_store().close()
    sweep._STORE = None
    (cache / "store.sqlite").write_text("this is not a database")
    hit, _ = sweep.load_cached(cell)
    assert not hit
    # the store recreated itself: writes work again
    sweep.store_cached(cell, {"v": 2})
    hit, loaded = sweep.load_cached(cell)
    assert hit and loaded == {"v": 2}


def test_run_cells_executes_caches_and_resumes(cache):
    cells = REGISTRY["fig04_channels"].cells(True)
    results, stats = sweep.run_cells(cells, jobs=1)
    assert stats.executed == len(cells) and stats.cache_hits == 0
    # a second (resumed) sweep takes everything from cache
    results2, stats2 = sweep.run_cells(cells, jobs=1)
    assert stats2.executed == 0 and stats2.cache_hits == len(cells)
    assert results2 == results


def test_run_cells_partial_resume(cache):
    cells = REGISTRY["fig05_local_vs_distributed"].cells(True)
    half = cells[: len(cells) // 2]
    _, s1 = sweep.run_cells(half, jobs=1)
    assert s1.executed == len(half)
    # interrupted sweep: the rest executes, the first half is reused
    _, s2 = sweep.run_cells(cells, jobs=1)
    assert s2.cache_hits == len(half)
    assert s2.executed == len(cells) - len(half)


def test_run_cells_dedupes_by_cell_id(cache):
    cells = REGISTRY["fig04_channels"].cells(True)
    _, stats = sweep.run_cells(cells * 3, jobs=1, use_cache=False)
    assert stats.total == len(cells) == stats.executed


def test_no_cache_mode_writes_nothing(cache):
    cells = REGISTRY["fig04_channels"].cells(True)
    sweep.run_cells(cells, jobs=1, use_cache=False)
    assert not cache.exists()


def test_resolve_jobs():
    assert sweep.resolve_jobs(3) == 3
    assert sweep.resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        sweep.resolve_jobs(-1)


def test_resolve_jobs_uses_cpu_affinity(monkeypatch):
    # cgroup-pinned host: 16 installed CPUs but only 4 runnable — the
    # auto pool must size from affinity, not cpu_count
    monkeypatch.setattr(sweep.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 16)
    assert sweep.resolve_jobs(0) == 3


def test_resolve_jobs_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 5)
    assert sweep.resolve_jobs(0) == 4


def test_resolve_jobs_falls_back_when_affinity_raises(monkeypatch):
    # some platforms ship the symbol but the syscall fails (e.g. emulated
    # or restricted kernels raise OSError) — same cpu_count fallback
    def _raises(pid):
        raise OSError("sched_getaffinity not supported")

    monkeypatch.setattr(sweep.os, "sched_getaffinity", _raises, raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 5)
    assert sweep.resolve_jobs(0) == 4


def test_resolve_jobs_survives_unknown_cpu_count(monkeypatch):
    # cpu_count() may return None; auto mode must still yield >= 1
    monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert sweep.resolve_jobs(0) >= 1


def test_ljf_orders_by_estimated_cost():
    from repro.bench.cost import CostModel

    small = _cell(cores=2)
    big = _cell(cores=64)
    model = CostModel()  # uncalibrated: falls back to the work hint
    ordered = sweep._order_cells([small, big], model, "ljf")
    assert ordered == [big, small]
    # fifo keeps caller order
    assert sweep._order_cells([small, big], model, "fifo") == [small, big]
    with pytest.raises(ValueError):
        sweep._order_cells([small], model, "sjf")


def test_chunk_packing_covers_all_cells_once():
    from repro.bench.cost import CostModel

    cells = [_cell(cores=c) for c in range(1, 41)]
    model = CostModel()
    ordered = sweep._order_cells(cells, model, "ljf")
    chunks = sweep._pack_chunks(ordered, model, jobs=4)
    flat = [c.cell_id for chunk in chunks for c in chunk]
    assert sorted(flat) == sorted(c.cell_id for c in cells)
    assert len(chunks) > 1
    assert all(len(chunk) <= sweep.MAX_CHUNK_CELLS for chunk in chunks)


def test_parallel_chunked_matches_serial(cache):
    cells = REGISTRY["fig04_channels"].cells(True) + \
        REGISTRY["fig03_latency_cdf"].cells(True)
    serial, s_stats = sweep.run_cells(cells, jobs=1, use_cache=False)
    parallel, p_stats = sweep.run_cells(cells, jobs=2, use_cache=False)
    assert parallel == serial
    assert p_stats.chunks >= 1
    fifo, _ = sweep.run_cells(cells, jobs=2, use_cache=False,
                              order="fifo", chunked=False)
    assert fifo == serial


def test_stats_throughput_properties():
    stats = sweep.SweepStats(total=10, executed=8, cache_hits=2, jobs=2,
                             wall_s=4.0, busy_s=6.0)
    assert stats.cells_per_sec == 2.0
    assert stats.efficiency == 0.75
    assert stats.cache_hit_ratio == 0.2
    d = stats.as_dict()
    assert d["cells_per_sec"] == 2.0 and d["pool_efficiency"] == 0.75


def test_run_many_pools_cells_across_experiments(cache):
    out, stats = sweep.run_many(["fig04_channels", "fig03_latency_cdf"], jobs=1)
    assert [name for name, _, _ in out] == ["fig04_channels", "fig03_latency_cdf"]
    assert stats.total == stats.executed == 2
    assert stats.experiments == ["fig04_channels", "fig03_latency_cdf"]


def test_cache_stats_reports_entries(cache, capsys):
    sweep.run_cells(REGISTRY["fig04_channels"].cells(True), jobs=1)
    info = sweep.cache_stats()
    assert info["entries"] == 1 and info["stale_entries"] == 0
    assert info["by_experiment"] == {"fig04_channels": 1}
    assert sweep.main(["--cache-stats"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 1


def test_fmt_eta_compact_labels():
    assert sweep._fmt_eta(2.34) == "2.3s"
    assert sweep._fmt_eta(90.0) == "1.5m"
    assert sweep._fmt_eta(5400.0) == "1.5h"


def test_progress_lines_carry_cost_model_eta(cache):
    cells = REGISTRY["fig05_local_vs_distributed"].cells(True)
    assert len(cells) >= 2
    lines = []
    sweep.run_cells(cells, jobs=1, progress=lines.append)
    assert len(lines) == len(cells)
    # every line but the last projects remaining work from the cost
    # model; the final one has nothing left to predict
    for line in lines[:-1]:
        assert ", eta ~" in line, line
    assert "eta ~" not in lines[-1]
    # cached resume never shows an ETA: nothing executes
    lines2 = []
    sweep.run_cells(cells, jobs=1, progress=lines2.append)
    assert not any("eta ~" in line for line in lines2)


class _HintOnlyModel:
    """An uncalibrated cost model whose bare work hints put almost all the
    estimated work in one cell — which longest-job-first then runs first."""

    calibrated = False

    @classmethod
    def from_store(cls, store):
        return cls()

    def estimate(self, cell):
        return 1000.0 if cell.cores == 5 else 1.0


def _one_second_cells(monkeypatch):
    """Inline executor stub on a fake clock: every cell takes 1 s."""
    clock = [0.0]

    def execute(cell):
        clock[0] += 1.0
        return {"metric": float(cell.cores)}

    monkeypatch.setattr(sweep, "execute_cell", execute)
    monkeypatch.setattr(sweep, "time",
                        type("FakeTime", (), {
                            "perf_counter": staticmethod(lambda: clock[0])}))


def test_uncalibrated_eta_uses_observed_cell_rate(cache, monkeypatch):
    _one_second_cells(monkeypatch)
    monkeypatch.setattr(sweep, "CostModel", _HintOnlyModel)
    cells = [_cell(cores=c) for c in (1, 2, 3, 4, 5)]
    lines = []
    sweep.run_cells(cells, jobs=1, use_cache=False, progress=lines.append)
    # The 1000-unit cell ran first; a hint-share ETA would claim 0.0s left
    # with four one-second cells to go.
    assert "c5" in lines[0]
    assert [line.rsplit(", eta ~", 1)[-1] for line in lines[:-1]] == [
        "4.0s", "3.0s", "2.0s", "1.0s"]
    assert "eta ~" not in lines[-1]


def test_no_cache_still_calibrates_from_existing_store(cache, monkeypatch):
    _one_second_cells(monkeypatch)
    calls = []
    real = sweep.CostModel.from_store.__func__

    def spy(cls, store):
        calls.append(store)
        return real(cls, store)

    monkeypatch.setattr(sweep.CostModel, "from_store", classmethod(spy))
    sweep.run_cells([_cell(cores=1)], jobs=1, use_cache=False)
    assert not calls and not cache.exists()  # no store: nothing to read
    sweep.run_cells([_cell(cores=2)], jobs=1)  # records a wall sample
    calls.clear()
    lines = []
    sweep.run_cells([_cell(cores=c) for c in (3, 4, 5)], jobs=1,
                    use_cache=False, progress=lines.append)
    assert len(calls) == 1
    # the calibrated model's estimated seconds drive the ETA
    assert all(", eta ~" in line for line in lines[:-1])
