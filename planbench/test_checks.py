"""The checkers pass real planner output and fail on corrupted copies.

    python3 -m pytest -q planbench
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import (Plan, check_geometry, check_highs, check_order,  # noqa: E402
                    check_plan, check_postopt, initial_total_cost,
                    parse_plan, plan_rrt, slack)
from inputs import (Graph, Module, covers_everywhere, make_graph,  # noqa: E402
                    min_area_rect, parse_graph_text, write_graph)
from run import POSTOPT_INPUTS, _cli, import_planner  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return import_planner()


@pytest.fixture(scope="module")
def explored(mods, tmp_path_factory):
    """A short annealing run on a t10 graph: (graph, plan, record)."""
    work = tmp_path_factory.mktemp("explored")
    graph = make_graph("t10-2", 0)
    g = mods["pdrplan"].load_graph(write_graph(graph, work / "g.graph"))
    cfg = mods["report"].PipelineConfig(
        runs=1, out_dir=str(work), sa=mods["explore"].SAConfig(
            iterations_per_temperature=4, initial_temperature=0.5,
            min_temperature=0.1))
    rec = mods["report"].run_pipeline(g, mods["pdrplan"].builtin_xc7vx485t(),
                                      cfg).records[0]
    plan = parse_plan((work / "seed0.solution").read_text())
    return graph, plan, rec


def plan_checks(graph, plan, rec, **changes):
    args = dict(makespan=rec.makespan, comm=rec.comm_cost,
                total=rec.total_cost, initial_total=initial_total_cost(graph),
                rrt=rec.rrt.as_tuple())
    args.update(changes)
    return check_plan(plan, graph, **args)


def test_explored_plan_passes(explored):
    graph, plan, rec = explored
    assert rec.feasible_after
    assert plan_checks(graph, plan, rec) == []
    assert plan_rrt(plan, graph) == pytest.approx(rec.rrt.as_tuple(), rel=1e-9)


TWO = Graph((Module("a", (10, 0, 0), 1.0, 0.1),
                    Module("b", (10, 0, 0), 1.0, 0.1)), ())


def test_overlapping_rectangles_fail():
    plan = Plan(["a", "b"], ["a", "b"], [(0, 0)], {"a": (0, 0), "b": (0, 0)},
                {"a": (1, 1, 4, 10), "b": (5, 1, 4, 10)}, {})
    assert check_geometry(plan, TWO) == []
    plan.rect["b"] = (4, 1, 4, 10)
    assert "a and b overlap in layer (0, 0)" in check_geometry(plan, TWO)


def test_overlapping_regions_fail():
    plan = Plan(["a", "b"], ["b", "a"], [(0, 0), (1, 0)],
                {"a": (0, 0), "b": (1, 0)},
                {"a": (1, 11, 4, 10), "b": (1, 1, 4, 10)}, {})
    assert check_geometry(plan, TWO) == []
    plan.rect["a"] = (3, 6, 4, 10)
    assert "region boxes 0 and 1 overlap" in check_geometry(plan, TWO)


def test_module_off_its_packed_position_fails(explored):
    graph, plan, rec = explored
    # The module that reaches highest: one quantum up leaves the region box
    # that the packing gives its region.
    m = max(plan.ps, key=lambda k: plan.rect[k][1] + plan.rect[k][3])
    x, y, w, h = plan.rect[m]
    moved = replace(plan, rect={**plan.rect, m: (x, y + 5, w, h)})
    assert any("outside its region box" in p
               for p in check_geometry(moved, graph))


def test_shape_short_of_demand_fails(explored):
    graph, plan, rec = explored
    m = plan.ps[0]
    x, y, _, _ = plan.rect[m]
    short = replace(plan, rect={**plan.rect, m: (x, y, 1, 5)})
    assert any("< demand" in p for p in check_geometry(short, graph))


def test_dependency_order_fails(explored):
    graph, plan, rec = explored
    s, d, _ = next(e for e in graph.edges
                   if plan.layer[e[0]] != plan.layer[e[1]])
    rs = list(plan.rs)
    i, j = rs.index(plan.layer[s]), rs.index(plan.layer[d])
    rs[i], rs[j] = rs[j], rs[i]
    assert any("against rs order" in p
               for p in check_order(replace(plan, rs=rs), graph))


def test_shifted_makespan_fails(explored):
    graph, plan, rec = explored
    assert any("makespan" in p for p in plan_checks(
        graph, plan, rec, makespan=rec.makespan + 0.5))


def test_makespan_lower_bounds(explored):
    graph, plan, rec = explored
    fast = replace(graph, modules=tuple(replace(m, conf_time=1e4)
                                        for m in graph.modules))
    problems = plan_checks(fast, plan, rec)
    assert any("below the total configuration time" in p for p in problems)


def test_wrong_communication_cost_fails(explored):
    graph, plan, rec = explored
    assert any("communication" in p for p in plan_checks(
        graph, plan, rec, comm=rec.comm_cost * 1.001))


def test_total_cost_checks(explored):
    graph, plan, rec = explored
    assert any("total cost" in p and "recomputed" in p for p in plan_checks(
        graph, plan, rec, total=rec.total_cost + 1e-3))
    assert any("above the initial" in p for p in plan_checks(
        graph, plan, rec, initial_total=rec.total_cost - 1e-3))


def test_reuse_outside_unit_interval_fails(explored):
    graph, plan, rec = explored
    assert any("resource reuse" in p for p in plan_checks(
        graph, plan, rec, rrt=(0.2, 1.5, 0.1)))


def test_min_area_rect_matches_planner(mods):
    chip = mods["pdrplan"].builtin_xc7vx485t()
    pdr = mods["pdrplan"]
    for m in make_graph("t30-3", 1).modules:
        tm = pdr.TaskModule(m.id, pdr.ResourceVector(*m.demand), 1.0)
        shapes = mods["shapes"].generate(tm, chip).shapes
        assert (shapes[0].w, shapes[0].h) == min_area_rect(m.demand)
        assert all(covers_everywhere(m.demand, s.w, s.h) for s in shapes)


# ----------------------------------------------------------------------
# post-optimisation

@pytest.fixture(scope="module")
def repaired(mods, tmp_path_factory):
    """`pdrplan postopt` on the smallest kept instance."""
    name = min((p.stem for p in POSTOPT_INPUTS.glob("*.solution")),
               key=lambda n: (int(n[1:n.index("-")]), n))
    work = tmp_path_factory.mktemp("postopt")
    gpath = POSTOPT_INPUTS / f"{name}.graph"
    spath = POSTOPT_INPUTS / f"{name}.solution"
    code, stdout = _cli(mods, ["postopt", "--graph", str(gpath), "--solution",
                               str(spath), "--export-lp", str(work / "m.lp"),
                               "--out", str(work / "out.solution")])
    objective = checks.printed_objective(stdout)
    return (parse_graph_text(gpath.read_text()), parse_plan(spath.read_text()),
            parse_plan((work / "out.solution").read_text()), code, objective,
            (work / "m.lp").read_text())


def test_repair_passes(repaired):
    graph, before, after, code, objective, lp = repaired
    _, x_max, y_max = checks.pack(before.ps, before.qs, before.layer,
                                  before.shapes())
    assert x_max > checks.CHIP_W or y_max > checks.CHIP_H
    assert check_postopt(before, after, graph, code, objective) == []
    assert check_highs(lp, objective) == []


def test_repair_exit_code_and_structure(repaired):
    graph, before, after, code, objective, lp = repaired
    assert "exit code 1" in check_postopt(before, after, graph, 1, objective)
    swapped = replace(after, qs=after.qs[::-1])
    assert "ps, qs, rs or the partition changed" in check_postopt(
        before, swapped, graph, code, objective)


def test_repair_shape_short_somewhere_fails(repaired):
    graph, before, after, code, objective, lp = repaired
    m = after.ps[0]
    x, y, w, h = after.rect[m]
    short = replace(after, rect={**after.rect, m: (x, y, w, h - 5)})
    demand = graph.by_id()[m].demand
    assert not covers_everywhere(demand, w, h - 5)
    assert any("misses its demand" in p
               for p in check_postopt(before, short, graph, code, objective))


def test_suboptimal_selection_fails(mods, repaired):
    graph, before, after, code, objective, lp = repaired
    chip = mods["pdrplan"].builtin_xc7vx485t()
    # Swap one module to another of its candidate shapes so that the plan
    # still fits but leaves less slack than the optimum.
    for m in graph.by_id().values():
        tm = mods["pdrplan"].TaskModule(
            m.id, mods["pdrplan"].ResourceVector(*m.demand), 1.0)
        for s in mods["shapes"].generate(tm, chip).shapes:
            x, y, _, _ = after.rect[m.id]
            worse = replace(after, rect={**after.rect, m.id: (x, y, s.w, s.h)})
            if 0 <= slack(worse) < objective:
                break
        else:
            continue
        break
    else:
        pytest.skip("every single swap keeps the optimum or overflows")
    assert check_highs(lp, float(slack(worse))) != []
    assert any("own packing slack" in p for p in check_postopt(
        before, worse, graph, code, objective))


def test_lp_parse_round_trip():
    lp = ("\\ model\nMaximize\n obj: - Xmax + 10\nSubject To\n"
          " c1: Xmax - 3 ms_1 - 5 ms_2 >= 0\n c2: ms_1 + ms_2 = 1\n"
          "Bounds\nBinary\n ms_1 ms_2\nEnd\n")
    model = checks.parse_lp(lp)
    assert model.objective == {"Xmax": -1.0} and model.constant == 10.0
    assert checks.highs_optimum(model) == pytest.approx(7.0)
