import random
from dataclasses import replace

import pytest

from helpers import (layered_pst, make_graph, random_pst, rects_overlap,
                     single_layer_pst, uniform_shapes)
from pdrplan.chip import Rect, builtin_xc7vx485t
from pdrplan.pst import (BOUNDARY_PENALTY, CostWeights, PST, comm_cost,
                         evaluate, hetero_cost, pack, schedule, validate)
from pdrplan.shapes import Shape
from pdrplan.taskgraph import Edge, TaskGraph, TaskModule


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


class TestValidate:
    def test_single_layer_ok(self):
        g = make_graph(3)
        pst = single_layer_pst(g.module_ids)
        assert validate(pst, g) == []

    def test_permutation_mismatch(self):
        g = make_graph(2)
        pst = PST(ps=["m1"], qs=["m1", "m2"], rs=[(0, 0)],
                  partition={"m1": (0, 0), "m2": (0, 0)})
        assert any("permutation mismatch" in v for v in validate(pst, g))

    def test_dependency_order_violation(self):
        g = make_graph(2, edges=[("m1", "m2", 1.0)])
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 1), (0, 0)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        assert any("dependency order" in v for v in validate(pst, g))

    def test_same_layer_dependency_ok(self):
        g = make_graph(2, edges=[("m1", "m2", 1.0)])
        pst = single_layer_pst(g.module_ids)
        assert validate(pst, g) == []

    def test_rs_must_cover_nonempty_layers(self):
        g = make_graph(2)
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        assert any("missing from rs" in v for v in validate(pst, g))

    def test_missing_modules(self):
        """A PST must place every module of its graph: one that lacks a
        module is reported, as one with an unknown module is."""
        g = make_graph(3, edges=[("m1", "m2", 1.0)])
        pst = single_layer_pst(["m1", "m2"])
        assert validate(pst, g) == ["missing modules: m3"]
        pst = single_layer_pst(["m2"])
        assert validate(pst, g) == ["missing modules: m1, m3"]

    def test_non_contiguous_region_block(self):
        g = make_graph(3)
        pst = PST(ps=["m1", "m3", "m2"], qs=["m1", "m2", "m3"],
                  rs=[(0, 0), (1, 0)],
                  partition={"m1": (0, 0), "m2": (0, 0), "m3": (1, 0)})
        assert any("not contiguous" in v for v in validate(pst, g))

    def test_random_valid_psts_pass(self):
        rng = random.Random(0)
        for _ in range(30):
            g = make_graph(rng.randint(1, 12))
            pst = random_pst(rng, g.module_ids)
            assert validate(pst, g) == []


class TestPack:
    def test_single_module_at_origin(self):
        g = make_graph(1)
        pst = single_layer_pst(["m1"])
        p = pack(pst, {"m1": Shape(8, 5)})
        assert p.coords["m1"] == Rect(1, 1, 8, 5)
        assert (p.x_max, p.y_max) == (8, 5)

    def test_two_modules_same_layer_row(self):
        pst = single_layer_pst(["m1", "m2"])
        p = pack(pst, {"m1": Shape(5, 5), "m2": Shape(7, 5)})
        assert p.coords["m2"].x == 6
        assert p.coords["m1"].y == p.coords["m2"].y == 1

    def test_two_modules_stacked(self):
        # m1 after m2 in ps, before in qs -> m1 below m2
        pst = PST(ps=["m2", "m1"], qs=["m1", "m2"], rs=[(0, 0)],
                  partition={"m1": (0, 0), "m2": (0, 0)})
        p = pack(pst, {"m1": Shape(5, 10), "m2": Shape(7, 5)})
        assert p.coords["m1"] == Rect(1, 1, 5, 10)
        assert p.coords["m2"] == Rect(1, 11, 7, 5)

    def test_same_region_other_layers_share_origin(self):
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        p = pack(pst, {"m1": Shape(5, 10), "m2": Shape(7, 5)})
        assert p.coords["m1"].x == p.coords["m2"].x == 1
        assert p.coords["m1"].y == p.coords["m2"].y == 1
        assert p.region_boxes[0] == Rect(1, 1, 7, 10)

    def test_pairwise_constraints_hold(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 20)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            shapes = {m: Shape(rng.randint(1, 12), 5 * rng.randint(1, 8))
                      for m in g.module_ids}
            p = pack(pst, shapes)
            ppos = {m: i for i, m in enumerate(pst.ps)}
            qpos = {m: i for i, m in enumerate(pst.qs)}
            for a in g.module_ids:
                for b in g.module_ids:
                    if a == b:
                        continue
                    ra, rb = pst.partition[a][0], pst.partition[b][0]
                    if ra == rb and pst.partition[a] != pst.partition[b]:
                        continue
                    if ppos[a] < ppos[b] and qpos[a] < qpos[b]:
                        assert p.coords[b].x >= p.coords[a].x + shapes[a].w
                    elif ppos[a] > ppos[b] and qpos[a] < qpos[b]:
                        assert p.coords[b].y >= p.coords[a].y + shapes[a].h

    def test_no_overlap_within_layer_and_between_regions(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 20)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            shapes = {m: Shape(rng.randint(1, 12), 5 * rng.randint(1, 8))
                      for m in g.module_ids}
            p = pack(pst, shapes)
            ids = list(g.module_ids)
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    if pst.partition[a] == pst.partition[b]:
                        assert not rects_overlap(p.coords[a], p.coords[b])
            regions = list(p.region_boxes)
            for i, ra in enumerate(regions):
                for rb in regions[i + 1:]:
                    assert not rects_overlap(p.region_boxes[ra],
                                             p.region_boxes[rb])
            for m in ids:
                box = p.region_boxes[pst.partition[m][0]]
                r = p.coords[m]
                assert (box.x <= r.x and box.y <= r.y
                        and r.x_hi <= box.x_hi and r.y_hi <= box.y_hi)

    def test_region_box_is_its_largest_layer(self):
        """Each region box is exactly as wide and as tall as the bounding
        box of its largest layer, and every layer starts at its corner."""
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 20)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            shapes = {m: Shape(rng.randint(1, 12), 5 * rng.randint(1, 8))
                      for m in g.module_ids}
            p = pack(pst, shapes)
            widths, heights = {}, {}
            for key, members in pst.layer_members.items():
                rects = [p.coords[m] for m in members]
                box = p.region_boxes[key[0]]
                assert min(r.x for r in rects) == box.x
                assert min(r.y for r in rects) == box.y
                widths.setdefault(key[0], []).append(
                    max(r.x_hi for r in rects) - box.x + 1)
                heights.setdefault(key[0], []).append(
                    max(r.y_hi for r in rects) - box.y + 1)
            assert set(p.region_boxes) == set(widths)
            for region, box in p.region_boxes.items():
                assert box.w == max(widths[region])
                assert box.h == max(heights[region])

    def test_is_feasible_boundary(self, chip):
        w = CostWeights()
        sol = evaluate(single_layer_pst(["m1"]), {"m1": Shape(146, 350)},
                       make_graph(1), chip, w)
        assert sol.feasible and sol.costs.feasible
        sol = evaluate(single_layer_pst(["m1", "m2"]),
                       {"m1": Shape(146, 5), "m2": Shape(1, 5)},
                       make_graph(2), chip, w)
        assert sol.placement.x_max == 147
        assert not sol.feasible and not sol.costs.feasible


class TestSchedule:
    def test_single_module(self):
        g = make_graph(1, exec_time=40.0, conf=2.0)
        pst = single_layer_pst(["m1"])
        s = schedule(pst, g)
        assert s.makespan == 42.0
        assert s.config_end[(0, 0)] == 2.0
        assert s.exec_start["m1"] == 2.0

    def test_two_regions_serialized_port(self):
        g = make_graph(2, exec_time=10.0, conf=1.0)
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (1, 0)],
                  partition={"m1": (0, 0), "m2": (1, 0)})
        s = schedule(pst, g)
        assert s.config_end[(0, 0)] == 1.0
        assert s.config_end[(1, 0)] == 2.0
        assert s.makespan == 12.0

    def test_chain_across_layers_of_one_region(self):
        g = make_graph(2, edges=[("m1", "m2", 1.0)], exec_time=10.0, conf=1.0)
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        s = schedule(pst, g)
        # Region busy until m1 finishes at 11; reconfigure 11..12; run 12..22.
        assert s.config_start[(0, 1)] == 11.0
        assert s.makespan == 22.0

    def test_intra_layer_dependency(self):
        g = make_graph(2, edges=[("m1", "m2", 1.0)], exec_time=10.0, conf=1.0)
        pst = single_layer_pst(["m1", "m2"])
        s = schedule(pst, g)
        assert s.exec_start["m2"] == s.exec_end["m1"]
        assert s.makespan == 22.0

    def test_makespan_lower_bounds(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 15)
            edges = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rng.random() < 0.2:
                        edges.append((f"m{i}", f"m{j}", 1.0))
            g = make_graph(n, edges=edges, exec_time=5.0, conf=1.5)
            pst = layered_pst(rng, g)
            s = schedule(pst, g)
            total_conf = sum(m.conf_time for m in g.modules)
            assert s.makespan >= g.critical_path_time() - 1e-9
            assert s.makespan >= total_conf - 1e-9

    def test_monotone_in_exec_and_conf(self):
        rng = random.Random(11)
        g = make_graph(6, edges=[("m1", "m3", 1), ("m2", "m3", 1),
                                 ("m3", "m5", 1)], exec_time=5.0, conf=1.0)
        pst = layered_pst(rng, g)
        base = schedule(pst, g).makespan
        for mid in g.module_ids:
            bumped_mods = [
                TaskModule(m.id, m.demand, m.exec_time + (3.0 if m.id == mid else 0),
                           m.conf_time) for m in g.modules]
            g2 = TaskGraph(bumped_mods, g.edges)
            assert schedule(pst, g2).makespan >= base - 1e-9
            bumped_conf = [
                TaskModule(m.id, m.demand, m.exec_time,
                           m.conf_time + (3.0 if m.id == mid else 0))
                for m in g.modules]
            g3 = TaskGraph(bumped_conf, g.edges)
            assert schedule(pst, g3).makespan >= base - 1e-9


class TestCommCost:
    def test_identical_rects_zero(self):
        g = make_graph(2, edges=[("m1", "m2", 10.0)])
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        p = pack(pst, uniform_shapes(g.module_ids))
        assert comm_cost(p, g) == 0.0

    def test_center_distance_arithmetic(self, chip):
        # centers (3,3) and (7,6): weight 10 x (4 + 3) = 70
        g = make_graph(2, edges=[("m1", "m2", 10.0)])
        from pdrplan.pst import Placement
        p = Placement(coords={"m1": Rect(1, 1, 5, 5), "m2": Rect(5, 4, 5, 5)},
                      region_boxes={}, x_max=9, y_max=8)
        assert comm_cost(p, g) == pytest.approx(70.0)

    def test_matches_recomputation(self):
        rng = random.Random(5)
        g = make_graph(5, edges=[("m1", "m2", 2.5), ("m2", "m4", 1.0),
                                 ("m3", "m5", 4.0)])
        pst = random_pst(rng, g.module_ids)
        shapes = {m: Shape(rng.randint(1, 9), 5 * rng.randint(1, 5))
                  for m in g.module_ids}
        p = pack(pst, shapes)
        expect = 0.0
        for e in g.edges:
            a, b = p.coords[e.src], p.coords[e.dst]
            expect += e.weight * (abs((a.x + a.x_hi) - (b.x + b.x_hi)) / 2
                                  + abs((a.y + a.y_hi) - (b.y + b.y_hi)) / 2)
        assert comm_cost(p, g) == pytest.approx(expect)

    def test_scales_linearly_with_weights(self):
        rng = random.Random(6)
        g = make_graph(4, edges=[("m1", "m2", 3.0), ("m2", "m3", 5.0)])
        g2 = TaskGraph(g.modules, [Edge(e.src, e.dst, 2.5 * e.weight)
                                   for e in g.edges])
        pst = random_pst(rng, g.module_ids)
        p = pack(pst, uniform_shapes(g.module_ids, 6, 10))
        assert comm_cost(p, g2) == pytest.approx(2.5 * comm_cost(p, g))


class TestHeteroCost:
    def test_whole_chip_region(self, chip):
        from pdrplan.pst import Placement
        p = Placement(coords={}, region_boxes={0: Rect(1, 1, 146, 350)},
                      x_max=146, y_max=350)
        assert hetero_cost(p, chip) == pytest.approx(3.0)

    def test_half_capacity_regions(self):
        # Uniform toy: halving the region halves every resource -> cost 6.
        from pdrplan.chip import ChipModel
        from pdrplan.pst import Placement
        toy = ChipModel(width=8, height=20, bram_cols=frozenset({2, 6}),
                        dsp_cols=frozenset({4, 8}),
                        macro_rows_per_col=8, quantum=5)
        p = Placement(coords={}, region_boxes={0: Rect(1, 1, 8, 10)},
                      x_max=8, y_max=10)
        assert hetero_cost(p, toy) == pytest.approx(6.0)

    def test_zero_use_sentinel(self, chip):
        from pdrplan.pst import Placement
        # Columns 1-4 are pure CLB: no BRAM, no DSP in the region.
        p = Placement(coords={}, region_boxes={0: Rect(1, 1, 4, 350)},
                      x_max=4, y_max=350)
        got = hetero_cost(p, chip)
        expect = 38850 / 1400 + 1000.0 + 1000.0
        assert got == pytest.approx(expect)


class TestTotalCost:
    def test_all_weights_zero(self, chip):
        g = make_graph(3)
        pst = single_layer_pst(g.module_ids)
        w = CostWeights(alpha=0, beta=0, gamma_comm=0, lambda_=0)
        got = evaluate(pst, uniform_shapes(g.module_ids), g, chip, w).costs
        assert got.total == 0.0

    def test_area_term_only(self, chip):
        g = make_graph(1)
        pst = single_layer_pst(["m1"])
        w = CostWeights(alpha=1, beta=0, gamma_comm=0, lambda_=0)
        got = evaluate(pst, {"m1": Shape(8, 5)}, g, chip, w).costs
        assert got.total == pytest.approx(40 / 51100)

    def test_schedule_term_consistency(self, chip):
        g = make_graph(4, exec_time=7.0, conf=0.5)
        pst = single_layer_pst(g.module_ids)
        w = CostWeights(alpha=0, beta=1, gamma_comm=0, lambda_=0).resolve(g, chip)
        got = evaluate(pst, uniform_shapes(g.module_ids), g, chip, w).costs
        s = schedule(pst, g)
        assert got.total == pytest.approx(s.makespan / w.schedule_norm)

    def test_partially_set_normalizers_resolved(self, chip):
        g = make_graph(3, edges=[("m1", "m2", 4.0)], conf=1.0)
        pst = single_layer_pst(g.module_ids)
        shapes = uniform_shapes(g.module_ids)
        by_hand = replace(CostWeights().resolve(g, chip), area_norm=100.0)
        got = evaluate(pst, shapes, g, chip, CostWeights(area_norm=100.0))
        assert got.costs == evaluate(pst, shapes, g, chip, by_hand).costs
        assert by_hand.resolve(g, chip) is by_hand

    def test_boundary_overflow_penalized(self, chip):
        g = make_graph(2)
        pst = single_layer_pst(g.module_ids)
        w = CostWeights(alpha=1, beta=0, gamma_comm=0, lambda_=0)
        inside = evaluate(pst, {"m1": Shape(73, 5), "m2": Shape(73, 5)},
                          g, chip, w).costs
        outside = evaluate(pst, {"m1": Shape(74, 5), "m2": Shape(73, 5)},
                           g, chip, w).costs
        assert inside.feasible and not outside.feasible
        assert outside.total > inside.total + BOUNDARY_PENALTY / chip.width / 2


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma_comm", "lambda_",
                                   "area_norm", "schedule_norm", "comm_norm"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_cost_weights_reject_negative_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        CostWeights(**{field: value})
