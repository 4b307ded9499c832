import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import make_graph, single_layer_pst, stacked_repair_instance
from pdrplan import report
from pdrplan.chip import builtin_xc7vx485t
from pdrplan.explore import SAConfig, anneal, trace_csv
from pdrplan.pst import CostWeights, PST, evaluate
from pdrplan.ilp import build_model
from pdrplan.report import (PipelineConfig, compute_rrt, postoptimize,
                            prepare_instance, run_pipeline, summarize)
from pdrplan.shapes import Shape, ShapeGenConfig
from pdrplan.solio import load_solution, write_solution
from pdrplan.taskgraph import generate, load_graph, preset_spec

POSTOPT = Path(__file__).resolve().parents[1] / "planbench" / "postopt"


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def full_chip_solution(chip, conf=10.0, exec_time=40.0):
    cap = chip.capacity()
    g = make_graph(1, exec_time=exec_time, conf=conf,
                   demand=cap.as_tuple())
    pst = single_layer_pst(["m1"])
    shapes = {"m1": Shape(chip.width, chip.height)}
    return g, evaluate(pst, shapes, g, chip, CostWeights().resolve(g, chip))


class TestRRT:
    def test_fully_busy_whole_chip_is_unity(self, chip):
        g, sol = full_chip_solution(chip)
        rrt = compute_rrt(sol, chip)
        assert rrt.as_tuple() == pytest.approx((1.0, 1.0, 1.0))

    def test_half_busy_half_chip(self, chip):
        # Region with 73 columns (half the chip's CLB does not split evenly
        # across heterogeneous columns, so compare against exact counts).
        g = make_graph(2, exec_time=10.0, conf=0.0, demand=(10, 0, 0))
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        shapes = {"m1": Shape(73, 350), "m2": Shape(73, 350)}
        sol = evaluate(pst, shapes, g, chip, CostWeights().resolve(g, chip))
        rrt = compute_rrt(sol, chip)
        from pdrplan.chip import Rect
        res = chip.resources_in_window(Rect(1, 1, 73, 350))
        cap = chip.capacity()
        # busy 20 of makespan 20 (two back-to-back layers, zero conf)
        assert rrt.clb == pytest.approx(res.clb / cap.clb)
        assert rrt.bram == pytest.approx(res.bram / cap.bram)
        assert rrt.dsp == pytest.approx(res.dsp / cap.dsp)

    def test_components_within_unit_interval(self, chip):
        rng = random.Random(1)
        from helpers import layered_pst
        for seed in range(6):
            g = make_graph(rng.randint(2, 8), exec_time=5.0, conf=1.0)
            pst = layered_pst(rng, g)
            shapes = {m: Shape(rng.randint(2, 20), 5 * rng.randint(1, 10))
                      for m in g.module_ids}
            sol = evaluate(pst, shapes, g, chip,
                           CostWeights().resolve(g, chip))
            if not sol.feasible:
                continue
            rrt = compute_rrt(sol, chip)
            for v in rrt.as_tuple():
                assert 0.0 <= v <= 1.0 + 1e-9

    def test_zero_makespan_rejected(self, chip):
        g, sol = full_chip_solution(chip)
        bad = type(sol.timeline)(sol.timeline.config_start,
                                 sol.timeline.config_end,
                                 sol.timeline.exec_start,
                                 sol.timeline.exec_end, 0.0)
        with pytest.raises(ValueError):
            compute_rrt(replace(sol, timeline=bad), chip)


def tiny_pipeline_cfg(runs=3, seed=5, out_dir=None):
    return PipelineConfig(
        runs=runs,
        seed=seed,
        sa=SAConfig(cooling_rate=0.5, iterations_per_temperature=6),
        out_dir=out_dir,
    )


class TestPipeline:
    def test_small_instance_all_feasible(self, chip, tmp_path):
        g = generate(preset_spec("t10-1", seed=2))
        report = run_pipeline(g, chip, tiny_pipeline_cfg(out_dir=tmp_path))
        assert report.success_before == 1.0
        assert report.success_after == 1.0
        assert report.sch_best <= report.sch_avg + 1e-9
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        assert (tmp_path / "seed5.solution").exists()
        assert (tmp_path / "seed5.trace.csv").exists()

    def test_after_success_never_below_before(self, chip):
        for seed in (1, 9):
            g = generate(preset_spec("t10-2", seed=seed))
            report = run_pipeline(g, chip, tiny_pipeline_cfg(runs=2, seed=seed))
            assert report.success_after >= report.success_before

    def test_csv_deterministic_and_consistent(self, chip, tmp_path):
        g = generate(preset_spec("t10-1", seed=4))
        cfg = tiny_pipeline_cfg(runs=2, seed=1, out_dir=tmp_path / "a")
        report_a = run_pipeline(g, chip, cfg)
        cfg_b = tiny_pipeline_cfg(runs=2, seed=1, out_dir=tmp_path / "b")
        report_b = run_pipeline(g, chip, cfg_b)
        csv_a = (tmp_path / "a" / "runs.csv").read_text()
        csv_b = (tmp_path / "b" / "runs.csv").read_text()
        assert csv_a == csv_b
        # independent recomputation of the aggregate block from the rows
        rows = [line.split(",") for line in csv_a.strip().splitlines()[1:]]
        feas = [r for r in rows if r[2] == "1"]
        makespans = [float(r[4]) for r in feas]
        assert report_a.sch_best == pytest.approx(min(makespans))
        assert report_a.sch_avg == pytest.approx(sum(makespans) / len(makespans))
        comms = [float(r[5]) for r in feas]
        assert report_a.comm_avg == pytest.approx(sum(comms) / len(comms))
        assert report_a.success_after == len(feas) / len(rows)

    def test_summarize_empty_feasible_set(self):
        from pdrplan.report import RunRecord
        rec = RunRecord(seed=0, feasible_before=False, feasible_after=False,
                        repaired=False, makespan=1.0, comm_cost=0.0,
                        total_cost=9.9, x_max=200, y_max=400, rrt=None,
                        runtime=0.1)
        rep = summarize([rec])
        assert rep.success_after == 0.0
        assert rep.sch_best is None
        assert "no feasible floorplan" in rep.summary()


def test_run_k_is_the_chain_of_seed_plus_k(chip, tmp_path):
    """Run k of a pipeline of seed s writes the solution and trace that
    anneal writes with seed s + k."""
    g = generate(preset_spec("t10-1", seed=0))
    sa = SAConfig(seed=1, iterations_per_temperature=2,
                  initial_temperature=1.0, min_temperature=0.3)
    run_pipeline(g, chip, PipelineConfig(runs=2, seed=0, sa=sa,
                                         out_dir=str(tmp_path)))
    g, lists = prepare_instance(g, chip, ShapeGenConfig(), 0.001)
    sol, trace = anneal(g, lists, chip, sa)
    assert (tmp_path / "seed1.solution").read_text() == write_solution(sol)
    assert (tmp_path / "seed1.trace.csv").read_text() == trace_csv(trace)


def test_pipeline_repairs_an_overflowing_plan(chip, tmp_path, monkeypatch):
    """A run whose annealed plan overflows the chip goes through post-opt:
    its record, runs.csv row and solution file show the repair, and the
    summary's success rate rises from 0 % to 100 %."""
    g, pst, _, shapes = stacked_repair_instance(0)

    def overflowing(g, lists, chip, cfg):
        return evaluate(pst, shapes, g, chip, cfg.weights.resolve(g, chip)), []

    monkeypatch.setattr(report, "anneal", overflowing)
    rep = run_pipeline(g, chip, PipelineConfig(runs=2, seed=3,
                                               out_dir=str(tmp_path)))
    w = CostWeights().resolve(g, chip)
    for seed, r in zip((3, 4), rep.records):
        assert (r.seed, r.feasible_before, r.feasible_after, r.repaired) == (
            seed, False, True, True)
        assert r.y_max <= chip.height and r.rrt is not None
        fixed = load_solution(tmp_path / f"seed{seed}.solution", g, chip, w)
        assert fixed.feasible and fixed.pst == pst
    rows = (tmp_path / "runs.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [
        ["3", "0", "1", "1"], ["4", "0", "1", "1"]]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[1:3] == ["success rate before post-opt: 0%",
                            "success rate after post-opt:  100%"]


def test_postoptimize_keeps_a_fitting_timeout_incumbent(chip):
    """With no time to search, the seed incumbent still repairs the plan."""
    name = "t10-2-s0"
    g, lists = prepare_instance(load_graph(POSTOPT / f"{name}.graph"), chip,
                                ShapeGenConfig(), 0.001)
    w = CostWeights().resolve(g, chip)
    sol = load_solution(POSTOPT / f"{name}.solution", g, chip, w)
    assert not sol.feasible
    fixed, res = postoptimize(sol, build_model(sol.pst, lists, chip), lists,
                              g, chip, w, time_limit=0)
    assert (res.status, res.objective) == ("timeout", 101.0)
    assert fixed.feasible and fixed.pst == sol.pst
    assert fixed.shapes == {m: lists[m].shapes[j]
                            for m, j in res.selection.items()}
    assert (chip.width - fixed.costs.x_max
            + chip.height - fixed.costs.y_max) == 101


@pytest.mark.parametrize("make", [
    lambda v: SAConfig(time_limit=v),
    lambda v: PipelineConfig(postopt_time_limit=v),
], ids=["SAConfig", "PipelineConfig"])
def test_time_limits_reject_negative_and_nan(make):
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="time_limit"):
            make(bad)
    for ok in (0, float("inf"), None):
        make(ok)


@pytest.mark.parametrize("make, field", [
    (lambda v: SAConfig(iterations_per_temperature=v),
     "iterations_per_temperature"),
    (lambda v: PipelineConfig(runs=v), "runs"),
    (lambda v: ShapeGenConfig(n=v), "n"),
    (lambda v: replace(preset_spec("t10-1"), module_count=v), "module_count"),
], ids=["SAConfig", "PipelineConfig", "ShapeGenConfig", "BenchSpec"])
def test_counts_reject_non_integers(make, field):
    """A fractional, NaN or infinite count would pass a >= 1 test and fail
    later in range; it is refused where the config is built."""
    for bad in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            make(bad)
    make(1)


@pytest.mark.parametrize("cfg_rate", [-1.0, float("nan"), float("inf")])
def test_prepare_instance_rejects_bad_cfg_rate(cfg_rate, chip):
    g = load_graph(POSTOPT / "t10-2-s0.graph")
    with pytest.raises(ValueError, match="cfg_rate"):
        prepare_instance(g, chip, ShapeGenConfig(), cfg_rate)
