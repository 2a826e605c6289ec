"""Design-space exploration: Pareto reduction, cost model, config lattice."""

import pytest

from repro.bench import dse
from repro.bench.cells import ExperimentCell
from repro.bench.cost import CostModel
from repro.hw.machine import (
    GEOMETRY_ANCHORS,
    GEOMETRY_EPYC_MILAN,
    MachineGeometry,
)


# -- Pareto reduction ----------------------------------------------------------


def _pt(tput, l3, ch, tag=""):
    return {"metric": tput, "total_l3_mib": l3, "total_channels": ch,
            "tag": tag}


OBJ = (("metric", "max"), ("total_l3_mib", "min"), ("total_channels", "min"))


def test_pareto_known_dominated_and_non_dominated():
    best_cheap = _pt(100, 64, 8)        # frontier
    best_fast = _pt(200, 256, 16)       # frontier: fastest
    dominated = _pt(90, 128, 16)        # worse than best_fast AND best_cheap? no:
    #   vs best_cheap: tput 90<100, l3 128>64, ch 16>8 → dominated by best_cheap
    strictly_worse = _pt(100, 64, 12)   # same tput, same l3, more channels
    front = dse.pareto_frontier(
        [best_cheap, best_fast, dominated, strictly_worse], OBJ)
    assert front == [best_cheap, best_fast]


def test_pareto_exact_ties_are_all_kept():
    a = _pt(100, 64, 8, "a")
    b = _pt(100, 64, 8, "b")  # identical on every objective
    front = dse.pareto_frontier([a, b], OBJ)
    assert front == [a, b]


def test_pareto_degenerate_single_axis():
    rows = [_pt(10, 0, 0), _pt(30, 0, 0), _pt(20, 0, 0)]
    front = dse.pareto_frontier(rows, (("metric", "max"),))
    assert front == [rows[1]]
    # min sense on the same axis picks the other extreme
    front_min = dse.pareto_frontier(rows, (("metric", "min"),))
    assert front_min == [rows[0]]


def test_pareto_empty_and_singleton():
    assert dse.pareto_frontier([], OBJ) == []
    only = _pt(1, 1, 1)
    assert dse.pareto_frontier([only], OBJ) == [only]


def test_pareto_rejects_bad_sense():
    with pytest.raises(ValueError):
        dse.pareto_frontier([_pt(1, 1, 1)], (("metric", "best"),))


def test_pareto_preserves_input_order():
    rows = [_pt(100, 256, 8, "late-fast"), _pt(50, 64, 8, "early-cheap")]
    assert dse.pareto_frontier(rows, OBJ) == rows


# -- cost model ----------------------------------------------------------------


def _gups_cell(updates, cores=8):
    return ExperimentCell.make("dse", strategy="charm", cores=cores,
                               workload="gups", updates_per_worker=updates,
                               table_bytes=4 << 20)


def test_cost_model_monotone_in_work():
    model = CostModel.from_samples(
        [("dse", 100.0, 0.05), ("dse", 200.0, 0.11), ("dse", 400.0, 0.2)])
    cells = [_gups_cell(u) for u in (128, 256, 512, 1024)]
    estimates = [model.estimate(c) for c in cells]
    assert estimates == sorted(estimates)
    assert all(e > 0 for e in estimates)
    # more workers on the same workload is also more simulated work
    assert model.estimate(_gups_cell(256, cores=32)) > \
        model.estimate(_gups_cell(256, cores=8))


def test_cost_model_empty_calibration_falls_back_to_hint():
    model = CostModel.from_samples([])
    assert not model.calibrated
    cell = _gups_cell(512)
    assert model.estimate(cell) == cell.work_hint()
    # still monotone
    assert model.estimate(_gups_cell(1024)) > model.estimate(_gups_cell(512))


def test_cost_model_unseen_experiment_uses_global_rate():
    model = CostModel.from_samples(
        [("fig04", 100.0, 0.5), ("fig05", 100.0, 1.5)])
    # unseen experiment → median of per-experiment rates = 0.01
    cell = _gups_cell(512)
    assert model.estimate(cell) == pytest.approx(cell.work_hint() * 0.01)


def test_cost_model_ignores_broken_samples():
    model = CostModel.from_samples(
        [("e", 0.0, 1.0), ("e", None, 1.0), ("e", 100.0, None),
         ("e", 100.0, 1.0)])
    assert model.rates == {"e": 0.01}


def test_work_hint_scales_with_size_params():
    small = ExperimentCell.make("x", cores=8, graph_scale=10, edgefactor=8)
    big = ExperimentCell.make("x", cores=8, graph_scale=14, edgefactor=8)
    assert big.work_hint() == pytest.approx(small.work_hint() * 16)
    # non-numeric and flag params don't contribute
    tagged = ExperimentCell.make("x", cores=8, graph_scale=10, edgefactor=8,
                                 workload="pagerank", flag=True)
    assert tagged.work_hint() == small.work_hint()


# -- geometry ------------------------------------------------------------------


def test_geometry_validation_rejects_bad_axes():
    bad = MachineGeometry(chiplets_per_socket=0, cores_per_chiplet=8,
                          l3_mib_per_chiplet=32, mem_channels_per_socket=8)
    with pytest.raises(ValueError, match="chiplets_per_socket"):
        bad.validate()
    bad_link = MachineGeometry(chiplets_per_socket=8, cores_per_chiplet=8,
                               l3_mib_per_chiplet=32,
                               mem_channels_per_socket=8,
                               link_latency_scale=-1.0)
    with pytest.raises(ValueError, match="link_latency_scale"):
        bad_link.validate()
    # a multi-problem geometry names every failing axis
    with pytest.raises(ValueError, match="cores_per_chiplet"):
        MachineGeometry(chiplets_per_socket=8, cores_per_chiplet=0,
                        l3_mib_per_chiplet=-1,
                        mem_channels_per_socket=8).validate()


def test_geometry_validation_rejects_more_chiplets_than_directory_bits():
    # Every axis is in range, but 4 x 16 = 64 chiplets do not fit the
    # 63 holder bits of the cache directory, so build() would fail.
    too_many = MachineGeometry(chiplets_per_socket=16, cores_per_chiplet=1,
                               l3_mib_per_chiplet=32,
                               mem_channels_per_socket=8, sockets=4)
    with pytest.raises(ValueError, match=r"sockets \* chiplets_per_socket"):
        too_many.validate()
    MachineGeometry(chiplets_per_socket=16, cores_per_chiplet=1,
                    l3_mib_per_chiplet=32, mem_channels_per_socket=8,
                    sockets=3).validate()


def test_geometry_builds_matching_machine():
    geo = MachineGeometry(chiplets_per_socket=4, cores_per_chiplet=8,
                          l3_mib_per_chiplet=16, mem_channels_per_socket=4,
                          link_latency_scale=2.0)
    m = geo.build(scale=16)
    assert m.topo.sockets == 2
    assert m.topo.chiplets_per_socket == 4
    assert m.topo.cores_per_chiplet == 8
    assert m.l3_bytes_per_chiplet == 16 * (1 << 20) // 16
    assert m.channels.channels_per_socket == 4
    # link scale multiplies fabric latencies, leaves intra-chiplet alone
    from repro.hw.latency import MILAN_LATENCY
    assert m.latency.fill_same_socket == MILAN_LATENCY.fill_same_socket * 2
    assert m.latency.l3_hit == MILAN_LATENCY.l3_hit


def test_geometry_anchors_are_valid():
    for geo in GEOMETRY_ANCHORS:
        geo.validate()
    assert GEOMETRY_EPYC_MILAN.total_cores == 128


# -- config generation ---------------------------------------------------------


def test_generate_configs_is_deterministic_and_budgeted():
    a = dse.generate_configs(240)
    b = dse.generate_configs(240)
    assert a == b
    assert len(a) == 240 // 6
    # anchors lead the sample
    assert a[0] == GEOMETRY_ANCHORS[0] and a[1] == GEOMETRY_ANCHORS[1]
    # all distinct
    assert len(set(a)) == len(a)


def test_generate_configs_full_budget_covers_lattice():
    lattice = dse.full_lattice()
    budget = (len(lattice) + len(GEOMETRY_ANCHORS)) * 6
    configs = dse.generate_configs(budget)
    assert len(configs) == len(lattice) + len(GEOMETRY_ANCHORS)


def test_generate_configs_rejects_sub_config_budget():
    with pytest.raises(ValueError):
        dse.generate_configs(5)


def test_dse_cells_shape_and_determinism():
    cells = dse.dse_cells(24)
    assert len(cells) == 24
    assert cells == dse.dse_cells(24)
    assert {c.strategy for c in cells} == set(dse.POLICIES)
    assert {c.params["workload"] for c in cells} == set(dse.WORKLOADS)
    # cell ids are unique — no silent dedup shrinking the sweep
    assert len({c.cell_id for c in cells}) == 24


def test_dse_end_to_end_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
    report, stats = dse.run_dse(budget=6, jobs=1, out_dir=tmp_path / "out")
    assert stats.total == 6 and stats.executed == 6
    assert (tmp_path / "out" / "cells.csv").exists()
    assert (tmp_path / "out" / "summary.txt").exists()
    for workload in dse.WORKLOADS:
        assert (tmp_path / "out" / f"frontier_{workload}.csv").exists()
        assert report["frontiers"][workload]  # single config → on frontier
    assert report["summary"][0]["charm"] > 0
    # resume: everything from the store, bit-identical outputs
    cells_csv = (tmp_path / "out" / "cells.csv").read_bytes()
    report2, stats2 = dse.run_dse(budget=6, jobs=1, out_dir=tmp_path / "out2")
    assert stats2.cache_hits == 6 and stats2.executed == 0
    assert (tmp_path / "out2" / "cells.csv").read_bytes() == cells_csv
