"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test enforces its own runtime budget where one applies.
"""

import random
import time

import pytest

from helpers import (brute_force_best_objective, layered_pst, random_pst,
                     rects_overlap, stacked_repair_instance)
from pdrplan.chip import Rect, ResourceVector, builtin_xc7vx485t
from pdrplan.explore import SAConfig, anneal, initial_solution
from pdrplan.ilp import build_model, solve
from pdrplan.pst import CostWeights, PST, evaluate, pack, schedule, validate
from pdrplan.report import (PipelineConfig, compute_rrt, postoptimize,
                            run_pipeline)
from pdrplan.shapes import (Shape, ShapeList, generate, generate_all,
                            min_height_for_width)
from pdrplan.taskgraph import (BenchSpec, TaskGraph, TaskModule,
                               assign_conf_times, preset_spec)
from pdrplan.taskgraph import generate as gen_graph

CHIP = builtin_xc7vx485t()

# Demand ranges of the three benchmark implementation flavors.
DEMAND_FLAVORS = (
    ((2000, 3000), (0, 80), (0, 80)),
    ((2500, 3500), (20, 100), (20, 100)),
    ((3000, 4000), (40, 120), (40, 120)),
)


def random_modules(count, seed):
    rng = random.Random(seed)
    mods = []
    for i in range(count):
        clb_r, bram_r, dsp_r = DEMAND_FLAVORS[i % len(DEMAND_FLAVORS)]
        mods.append(TaskModule(
            f"m{i + 1}",
            ResourceVector(rng.randint(*clb_r), rng.randint(*bram_r),
                           rng.randint(*dsp_r)),
            exec_time=rng.uniform(40, 55),
            conf_time=rng.uniform(1, 5),
        ))
    return mods


@pytest.fixture(scope="module")
def module_shape_lists():
    mods = random_modules(200, seed=1234)
    return [(m, generate(m, CHIP)) for m in mods]


def test_criterion_1_shape_feasibility_exhaustive(module_shape_lists):
    started = time.monotonic()
    checked = 0
    for mod, sl in module_shape_lists:
        for s in sl.shapes:
            for x in range(1, CHIP.width - s.w + 2):
                got = CHIP.resources_in_window(Rect(x, 1, s.w, s.h))
                assert got.covers(mod.demand), (
                    f"{mod.id} shape {s} violates demand at x={x}")
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0
    print(f"\n[criterion 1] PASS: {checked} window checks over 200 modules, "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_2_shape_minimality_and_dominance(module_shape_lists):
    for mod, sl in module_shape_lists:
        areas = [s.area for s in sl.shapes]
        assert areas == sorted(areas), f"{mod.id}: list not sorted by area"
        assert len(sl.shapes) <= 10
        heights = [s.h for s in sl.shapes]
        assert len(set(heights)) == len(heights), f"{mod.id}: duplicate height"
        for s in sl.shapes:
            if s.h > CHIP.quantum:
                shrunk = CHIP.min_window_over_x(s.w, s.h - CHIP.quantum)
                assert not shrunk.covers(mod.demand), (
                    f"{mod.id} shape {s} not height-minimal")
    print("[criterion 2] PASS: minimality, dominance, ordering, length <= 10 "
          "on 200 modules")


def baseline_three_kind_width():
    for w in range(1, CHIP.width + 1):
        mc, mb, md = CHIP.min_column_counts(w)
        if mc >= 1 and mb >= 1 and md >= 1:
            return w
    raise AssertionError("no width covers all three kinds")


def test_criterion_3_area_vs_fixed_width_baseline():
    wb = baseline_three_kind_width()
    reductions = []
    for batch in range(4):
        mods = random_modules(50, seed=99 + batch)
        ours = 0
        base = 0
        for mod in mods:
            sl = generate(mod, CHIP)
            ours += sl.shapes[0].area
            h = min_height_for_width(mod, CHIP, wb)
            assert h is not None, "baseline width cannot satisfy the demand"
            base += wb * h
        assert ours <= base, f"batch {batch}: {ours} > baseline {base}"
        reductions.append(1 - ours / base)
    mean = sum(reductions) / len(reductions)
    assert mean > 0.0
    print(f"[criterion 3] PASS: baseline width {wb}; mean area reduction "
          f"{mean:.1%} over 4 batches of 50")


def test_criterion_4_packing_legality():
    started = time.monotonic()
    rng = random.Random(2024)
    for trial in range(500):
        n = rng.randint(5, 30)
        ids = [f"m{i}" for i in range(1, n + 1)]
        g = TaskGraph([TaskModule(m, ResourceVector(1, 0, 0), 1.0, 0.1)
                       for m in ids], [])
        pst = random_pst(rng, ids, max_regions=4, max_layers=3)
        assert validate(pst, g) == []
        shapes = {m: Shape(rng.randint(1, 25), 5 * rng.randint(1, 12))
                  for m in ids}
        p = pack(pst, shapes)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if pst.partition[a] == pst.partition[b]:
                    assert not rects_overlap(p.coords[a], p.coords[b]), (
                        f"trial {trial}: {a} and {b} overlap in a layer")
        regions = sorted(p.region_boxes)
        for i, ra in enumerate(regions):
            for rb in regions[i + 1:]:
                assert not rects_overlap(p.region_boxes[ra],
                                         p.region_boxes[rb]), (
                    f"trial {trial}: regions {ra} and {rb} overlap")
        for m in ids:
            box = p.region_boxes[pst.partition[m][0]]
            r = p.coords[m]
            assert (box.x <= r.x and box.y <= r.y and r.x_hi <= box.x_hi
                    and r.y_hi <= box.y_hi), f"trial {trial}: {m} outside box"
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    print(f"[criterion 4] PASS: 500 random PSTs packed with 0 overlaps, "
          f"{elapsed:.1f}s")


def test_criterion_5_schedule_lower_bounds():
    rng = random.Random(77)
    rrt_checked = 0
    for trial in range(200):
        n = rng.randint(2, 20)
        spec = BenchSpec(module_count=n, exec_range=(5, 60),
                         edge_weight_range=(1, 9), clb_range=(1, 50),
                         bram_range=(0, 4), dsp_range=(0, 4),
                         edge_density=rng.uniform(0.3, 1.8),
                         seed=trial)
        g = gen_graph(spec)
        g = assign_conf_times(g, {m.id: 100 for m in g.modules}, 0.01)
        pst = layered_pst(rng, g, max_regions=3)
        assert validate(pst, g) == []
        s = schedule(pst, g)
        total_conf = sum(m.conf_time for m in g.modules)
        assert s.makespan >= g.critical_path_time() - 1e-9, f"trial {trial}"
        assert s.makespan >= total_conf - 1e-9, f"trial {trial}"
        shapes = {m: Shape(rng.randint(1, 20), 5 * rng.randint(1, 10))
                  for m in g.module_ids}
        sol = evaluate(pst, shapes, g, CHIP, CostWeights().resolve(g, CHIP))
        if sol.feasible:
            rrt = compute_rrt(sol, CHIP)
            for v in rrt.as_tuple():
                assert -1e-9 <= v <= 1 + 1e-9, f"trial {trial}: RRT {rrt}"
            rrt_checked += 1
    print(f"[criterion 5] PASS: 200 instances, 0 bound violations "
          f"(RRT bounded on {rrt_checked} feasible placements)")


def t10_instance(seed):
    spec = preset_spec(f"t10-{1 + seed % 3}", seed=seed)
    g = gen_graph(spec)
    lists = generate_all(g, CHIP)
    g = assign_conf_times(g, {m: sl.shapes[0].area for m, sl in lists.items()},
                          0.001)
    return g, lists


def test_criterion_6_sa_sanity():
    started = time.monotonic()
    weights = CostWeights()
    for seed in range(20):
        g, lists = t10_instance(seed)
        cfg = SAConfig(seed=seed, weights=weights)
        sol, trace = anneal(g, lists, CHIP, cfg)
        w = weights.resolve(g, CHIP)
        init_pst = initial_solution(g, lists, CHIP)
        init_cost = evaluate(init_pst,
                             {m: lists[m].shapes[0] for m in g.module_ids},
                             g, CHIP, w).costs
        assert sol.costs.total <= init_cost.total + 1e-9, f"seed {seed}"
        best = [row.best_cost for row in trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:])), (
            f"seed {seed}: best-so-far not monotone")
        if sol.feasible:
            for v in compute_rrt(sol, CHIP).as_tuple():
                assert -1e-9 <= v <= 1 + 1e-9
    g, lists = t10_instance(3)
    again_a, trace_a = anneal(g, lists, CHIP, SAConfig(seed=3))
    again_b, trace_b = anneal(g, lists, CHIP, SAConfig(seed=3))
    assert again_a.pst == again_b.pst
    assert again_a.shapes == again_b.shapes
    assert again_a.costs == again_b.costs
    assert trace_a == trace_b
    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    print(f"[criterion 6] PASS: 20 seeded runs improve on the initial "
          f"solution, monotone traces, deterministic replay, {elapsed:.1f}s")


def test_criterion_7_ilp_exactness():
    started = time.monotonic()
    rng = random.Random(4321)
    solved = 0
    infeasible = 0
    for trial in range(200):
        if trial < 5:
            n, max_shapes = 8, 4  # a few worst-case instances
        else:
            n = rng.randint(2, 8)
            max_shapes = rng.randint(2, 4)
        ids = [f"m{i}" for i in range(1, n + 1)]
        pst = random_pst(rng, ids, max_regions=3, max_layers=3)
        lists = {}
        for m in ids:
            shapes = {Shape(rng.randint(4, 60), 5 * rng.randint(2, 40))
                      for _ in range(max_shapes)}
            lists[m] = ShapeList(m, tuple(sorted(shapes,
                                                 key=lambda s: (s.area, s.w))))
        res = solve(build_model(pst, lists, CHIP))
        want = brute_force_best_objective(pst, lists, CHIP)
        if want is None:
            assert res.status == "infeasible", f"trial {trial}"
            infeasible += 1
        else:
            assert res.status == "optimal", f"trial {trial}"
            assert res.objective == want, (
                f"trial {trial}: solver {res.objective} != oracle {want}")
            solved += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0
    print(f"[criterion 7] PASS: {solved} optima match the exhaustive oracle "
          f"({infeasible} provably infeasible), {elapsed:.1f}s")


def test_criterion_8_postopt_repair():
    repaired = 0
    weights = CostWeights()
    before = after = 0
    for seed in range(50):
        g, pst, lists, shapes = stacked_repair_instance(seed)
        w = weights.resolve(g, CHIP)
        sol = evaluate(pst, shapes, g, CHIP, w)
        assert not sol.feasible, f"seed {seed}: stack unexpectedly fits"
        assert brute_force_best_objective(pst, lists, CHIP) is not None, (
            f"seed {seed}: no feasible assignment exists at all")
        started = time.monotonic()
        model = build_model(pst, lists, CHIP)
        fixed, res = postoptimize(sol, model, lists, g, CHIP, w,
                                  time_limit=60.0)
        assert time.monotonic() - started <= 60.0
        before += sol.feasible
        after += fixed.feasible
        if fixed.feasible:
            repaired += 1
            assert fixed.pst == pst  # repair never edits the structure
    assert repaired >= 49, f"only {repaired}/50 repaired"
    assert after >= before
    print(f"[criterion 8] PASS: {repaired}/50 boundary violations repaired, "
          f"success {before}/50 -> {after}/50")


def test_criterion_9_rrt_unity_on_fully_busy_chip():
    cap = CHIP.capacity()
    g = TaskGraph([TaskModule("m1", cap, 40.0, 10.0)], [])
    pst = PST(ps=["m1"], qs=["m1"], rs=[(0, 0)], partition={"m1": (0, 0)})
    sol = evaluate(pst, {"m1": Shape(CHIP.width, CHIP.height)}, g, CHIP,
                   CostWeights().resolve(g, CHIP))
    assert sol.feasible
    rrt = compute_rrt(sol, CHIP)
    assert rrt.as_tuple() == pytest.approx((1.0, 1.0, 1.0))
    print("[criterion 9] PASS: fully busy whole-chip region has reuse "
          "(1, 1, 1); interval bounds asserted across criteria 5 and 6")


def test_criterion_10_t100_scale_run():
    started = time.monotonic()
    g = gen_graph(preset_spec("t100-1", seed=0))
    cfg = PipelineConfig(runs=1, seed=0, postopt_time_limit=120.0)
    report = run_pipeline(g, CHIP, cfg)
    elapsed = time.monotonic() - started
    assert elapsed <= 900.0, f"t100 pipeline took {elapsed:.0f}s"
    rec = report.records[0]
    print(f"[criterion 10] PASS: t100 exploration + post-opt in "
          f"{elapsed:.0f}s (feasible={rec.feasible_after}, "
          f"makespan={rec.makespan:.1f} ms)")
