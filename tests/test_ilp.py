import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (brute_force_best_key, brute_force_best_objective,
                     make_graph, random_pst, selection_key, single_layer_pst)
from pdrplan.chip import ChipModel, builtin_xc7vx485t
from pdrplan.ilp import apply, build_model, export_lp, solve
from pdrplan.pst import CostWeights, PST, pack
from pdrplan.report import prepare_instance
from pdrplan.shapes import Shape, ShapeGenConfig, ShapeList
from pdrplan.solio import load_solution
from pdrplan.taskgraph import load_graph

POSTOPT = Path(__file__).resolve().parents[1] / "planbench" / "postopt"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def load_instance(stem, chip):
    """(graph, shape lists, solution) of a graph and solution file pair."""
    g, lists = prepare_instance(load_graph(stem.with_suffix(".graph")),
                                chip, ShapeGenConfig(), 0.001)
    sol = load_solution(stem.with_suffix(".solution"), g, chip,
                        CostWeights().resolve(g, chip))
    return g, lists, sol


def instance_model(name, chip):
    """The reselection program of a benchmark post-opt instance, or of a
    crowded instance in tests/data when the name starts with crowded-."""
    stem = (DATA if name.startswith("crowded-") else POSTOPT) / name
    _, lists, sol = load_instance(stem, chip)
    return build_model(sol.pst, lists, chip)


# tests/data/crowded-<preset>-s<graph seed>.{graph,solution}: the graph of
# generate(preset_spec(preset, seed=graph_seed)) and the plan that anneal
# made of it with SAConfig(seed=0, iterations_per_temperature=2,
# initial_temperature=5.0, min_temperature=0.05), after prepare_instance
# with ShapeGenConfig() and configuration rate 0.001.  Runs that short
# leave one or two crowded regions.  They are files so that these tests
# do not move with the annealer.  CROWDED are the four whose programs a
# module-level branch and bound does not close in 20 s.
CROWDED = ("crowded-t30-1-s1", "crowded-t30-2-s3", "crowded-t50-1-s0",
           "crowded-t50-1-s1")


def toy_chip(width=40, height=60):
    return ChipModel(width=width, height=height,
                     bram_cols=frozenset(x for x in (3, 17) if x <= width),
                     dsp_cols=frozenset(x for x in (9, 25) if x <= width),
                     macro_rows_per_col=height // 5 * 2, quantum=5)


def random_lists(rng, ids, max_shapes=4, wmax=20, hmax=40):
    lists = {}
    for m in ids:
        shapes = set()
        for _ in range(rng.randint(1, max_shapes)):
            shapes.add(Shape(rng.randint(1, wmax), 5 * rng.randint(1, hmax // 5)))
        ordered = sorted(shapes, key=lambda s: (s.area, s.w))
        lists[m] = ShapeList(m, tuple(ordered))
    return lists


def long_layer_instance():
    """(graph, PST, shape lists): one layer of 30 modules in a random
    sequence pair, each with up to six random shapes of 2-12 by 5-20.
    Both seeds fit the built-in chip, and the layer's sweep does not end
    within 20 s, so a short solve stops at its deadline."""
    rng = random.Random(0)
    g = make_graph(30)
    ids = list(g.module_ids)
    ps, qs = ids[:], ids[:]
    rng.shuffle(ps)
    rng.shuffle(qs)
    pst = PST(ps=ps, qs=qs, rs=[(0, 0)], partition={m: (0, 0) for m in ids})
    lists = {}
    for m in ids:
        shapes = {Shape(rng.randint(2, 12), 5 * rng.randint(1, 4))
                  for _ in range(6)}
        lists[m] = ShapeList(m, tuple(sorted(shapes,
                                             key=lambda s: (s.area, s.w))))
    return g, pst, lists


def constraint_names(model):
    """Row names of the Subject To section of the exported LP."""
    body = export_lp(model).split("Subject To\n", 1)[1].split("Bounds\n", 1)[0]
    return [line.split(":", 1)[0].strip() for line in body.splitlines()]


class TestBuildModel:
    def test_single_module_constraint_census(self, chip):
        pst = single_layer_pst(["m1"])
        lists = {"m1": ShapeList("m1", (Shape(8, 5), Shape(5, 10)))}
        model = build_model(pst, lists, chip)
        names = constraint_names(model)
        assert names.count("onehot_1") == 1
        assert sum(n.startswith(("wdef", "hdef")) for n in names) == 2
        assert sum(n.startswith(("xext", "yext")) for n in names) == 2
        assert sum(n.startswith("bound") for n in names) == 2
        assert not any(n.startswith(("hpos", "vpos")) for n in names)

    def test_same_region_other_layer_unconstrained(self, chip):
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        lists = {m: ShapeList(m, (Shape(4, 5),)) for m in ("m1", "m2")}
        model = build_model(pst, lists, chip)
        assert model.h_pairs == () and model.v_pairs == ()

    def test_same_layer_pair_constrained(self, chip):
        pst = single_layer_pst(["m1", "m2"])
        lists = {m: ShapeList(m, (Shape(4, 5),)) for m in ("m1", "m2")}
        model = build_model(pst, lists, chip)
        assert model.h_pairs == (("m1", "m2"),)
        assert "hpos_1_2" in constraint_names(model)

    @pytest.mark.parametrize("second, third, message", [
        ((0, 1), (0, 0), "layer (0, 0) not contiguous in ps"),
        ((1, 0), (0, 1), "region 0 not contiguous in ps"),
    ], ids=["layer", "region"])
    def test_non_contiguous_block_rejected(self, second, third, message,
                                           chip):
        """The solver works on layer and region blocks, so a PST whose
        ps splits one (m2 between m1 and m3) is refused, naming it."""
        part = {"m1": (0, 0), "m2": second, "m3": third}
        pst = PST(ps=["m1", "m2", "m3"], qs=["m1", "m3", "m2"],
                  rs=sorted(set(part.values())), partition=part)
        lists = {m: ShapeList(m, (Shape(4, 5),)) for m in part}
        with pytest.raises(ValueError, match=re.escape(message)):
            build_model(pst, lists, chip)

    def test_empty_shape_list_rejected(self, chip):
        pst = single_layer_pst(["m1"])
        with pytest.raises((ValueError, KeyError)):
            build_model(pst, {}, chip)

    @pytest.mark.parametrize("bad", [Shape(0, 5), Shape(4, 0), Shape(-1, 5)],
                             ids=["0x5", "4x0", "-1x5"])
    def test_shape_below_one_rejected(self, bad, chip):
        """The search's reduced relations are exact only for sizes >= 1."""
        pst = single_layer_pst(["m1", "m2"])
        lists = {"m1": ShapeList("m1", (Shape(4, 5),)),
                 "m2": ShapeList("m2", (Shape(4, 5), bad))}
        with pytest.raises(ValueError, match="module m2"):
            build_model(pst, lists, chip)


class TestSolve:
    def test_single_module_picks_max_slack(self, chip):
        pst = single_layer_pst(["m1"])
        lists = {"m1": ShapeList("m1", (Shape(8, 5), Shape(5, 10)))}
        res = solve(build_model(pst, lists, chip))
        assert res.status == "optimal"
        # (146-8)+(350-5) = 483 beats (146-5)+(350-10) = 481
        assert res.objective == 483.0
        assert res.selection == {"m1": 0}

    def test_ties_go_to_the_first_selection(self):
        """5x10 and 10x5 tie on objective and area, so the search keeps
        the first shape, as the exhaustive sweep does."""
        pst = single_layer_pst(["m1"])
        lists = {"m1": ShapeList("m1", (Shape(5, 10), Shape(10, 5)))}
        res = solve(build_model(pst, lists, toy_chip()))
        assert (res.status, res.objective, res.selection) == (
            "optimal", 85.0, {"m1": 0})

    def test_infeasible_when_everything_overflows(self):
        toy = toy_chip(width=10, height=20)
        pst = single_layer_pst(["m1", "m2"])
        lists = {m: ShapeList(m, (Shape(8, 5), Shape(9, 5)))
                 for m in ("m1", "m2")}
        res = solve(build_model(pst, lists, toy))
        assert res.status == "infeasible"
        assert res.selection is None

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_tails_prune_the_root_of_a_chain(self, axis):
        """Three modules in a row (or a column) on a side 40 long: m1's
        long shape (25) plus the least path after it (10 + 10) overruns
        the side, so the layer's sweep never visits that shape.  That
        leaves 7 nodes: the sweep's root and one node per module, one
        merge node, and the region search's root and leaf.  A tail that
        missed the last module would visit the long shape too.
        """
        long, short, unit = (25, 5), (15, 10), (10, 5)
        if axis == "x":
            toy = toy_chip(width=40, height=60)
            pst = single_layer_pst(["m1", "m2", "m3"])
        else:
            toy = toy_chip(width=60, height=40)
            pst = PST(ps=["m3", "m2", "m1"], qs=["m1", "m2", "m3"],
                      rs=[(0, 0)], partition={m: (0, 0)
                                              for m in ("m1", "m2", "m3")})
            long, short, unit = long[::-1], short[::-1], unit[::-1]
        lists = {"m1": ShapeList("m1", (Shape(*long), Shape(*short))),
                 "m2": ShapeList("m2", (Shape(*unit),)),
                 "m3": ShapeList("m3", (Shape(*unit),))}
        res = solve(build_model(pst, lists, toy))
        assert (res.status, res.objective, res.nodes) == ("optimal", 55.0, 7)
        assert res.selection == {"m1": 1, "m2": 0, "m3": 0}

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(21)
        toy = toy_chip()
        for _ in range(60):
            n = rng.randint(1, 6)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            lists = random_lists(rng, g.module_ids)
            model = build_model(pst, lists, toy)
            res = solve(model)
            want = brute_force_best_objective(pst, lists, toy)
            if want is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == want

    def test_selection_attains_best_key(self):
        """Among optimal selections the least total area wins."""
        rng = random.Random(23)
        toy = toy_chip()
        for _ in range(80):
            n = rng.randint(1, 6)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            lists = random_lists(rng, g.module_ids)
            res = solve(build_model(pst, lists, toy))
            want = brute_force_best_key(pst, lists, toy)
            if want is None:
                assert res.status == "infeasible"
                continue
            got = selection_key(pst, {m: lists[m].shapes[j]
                                      for m, j in res.selection.items()}, toy)
            assert got == want

    def test_deadline_honoured_on_crowded_instance(self, chip):
        _, pst, lists = long_layer_instance()
        model = build_model(pst, lists, chip)
        started = time.monotonic()
        res = solve(model, 1.0)
        assert time.monotonic() - started <= 1.5
        assert res.status == "timeout"
        assert res.selection is not None and res.objective is not None

    @pytest.mark.parametrize("name", CROWDED + ("long-layer",))
    def test_crowded_timeout_incumbent_fits(self, name, chip):
        """The selection of a search cut at 1 s re-packs inside the chip:
        the optimum on the crowded plans, the timeout incumbent on the
        long layer."""
        if name == "long-layer":
            g, pst, lists = long_layer_instance()
        else:
            g, lists, sol = load_instance(DATA / name, chip)
            pst = sol.pst
        res = solve(build_model(pst, lists, chip), 1.0)
        assert res.selection is not None
        w = CostWeights().resolve(g, chip)
        assert apply(pst, res.selection, lists, g, chip, w).feasible

    def test_timeout_reports_incumbent(self, chip):
        rng = random.Random(5)
        g = make_graph(40)
        pst = random_pst(rng, g.module_ids, max_regions=4, max_layers=3)
        lists = random_lists(rng, g.module_ids, max_shapes=6)
        res = solve(build_model(pst, lists, chip), time_limit=0.0)
        assert res.status == "timeout"

    def test_objective_monotone_in_extra_shape(self):
        rng = random.Random(31)
        toy = toy_chip()
        for _ in range(20):
            n = rng.randint(1, 5)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            lists = random_lists(rng, g.module_ids)
            base = solve(build_model(pst, lists, toy))
            mid = rng.choice(list(g.module_ids))
            grown = dict(lists)
            extra = Shape(rng.randint(1, 10), 5 * rng.randint(1, 6))
            grown[mid] = ShapeList(mid, tuple(list(lists[mid].shapes) + [extra]))
            more = solve(build_model(pst, grown, toy))
            if base.status == "optimal" and more.status == "optimal":
                assert more.objective >= base.objective
            elif base.status == "optimal":
                assert more.status == "optimal"


class TestPinnedSearch:
    """The solver on the benchmark's overflowing solutions and on five
    crowded annealing results.

    Node counts follow from the sweep orders and the bounds, so a change
    to either shows here even when the optimum stays the same.  The
    selection is pinned as the modules that do not take their first
    (minimum-area) shape.
    """

    PINNED = {
        "t10-1-s1": (87.0, 1187,
                     {"m3": 4, "m5": 7, "m6": 1, "m7": 4, "m10": 7}),
        "t10-2-s0": (101.0, 130, {}),
        "t10-3-s0": (30.0, 40, {}),
        "t30-1-s0": (85.0, 450, {}),
        "t30-2-s0": (30.0, 337, {"m7": 1, "m21": 2, "m28": 1}),
        "t30-3-s0": (100.0, 475, {}),
        "t50-1-s0": (100.0, 350, {}),
        "t50-3-s5": (0.0, 200, {"m34": 1, "m36": 2}),
        "crowded-t30-1-s0": (171.0, 657, {"m26": 1}),
        "crowded-t30-1-s1": (176.0, 2989, {"m6": 1, "m19": 1, "m20": 1}),
        "crowded-t30-2-s3": (130.0, 1663, {"m15": 2, "m16": 1, "m17": 1,
                                           "m29": 5, "m30": 7}),
        "crowded-t50-1-s0": (200.0, 4812, {"m49": 1}),
        "crowded-t50-1-s1": (148.0, 4172, {"m12": 1, "m14": 1, "m33": 1,
                                           "m50": 1}),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_status_objective_and_nodes(self, name, chip):
        model = instance_model(name, chip)
        res = solve(model, 60)
        objective, nodes, moved = self.PINNED[name]
        assert (res.status, res.objective, res.nodes) == (
            "optimal", objective, nodes)
        assert res.selection == {m: moved.get(m, 0) for m in model.modules}


class TestApply:
    def test_idempotent_on_feasible_selection(self, chip):
        g = make_graph(2, conf=1.0)
        pst = single_layer_pst(["m1", "m2"])
        lists = {m: ShapeList(m, (Shape(8, 5), Shape(5, 10)))
                 for m in ("m1", "m2")}
        w = CostWeights().resolve(g, chip)
        sel = {"m1": 0, "m2": 0}
        sol = apply(pst, sel, lists, g, chip, w)
        shapes = {m: lists[m].shapes[0] for m in ("m1", "m2")}
        assert sol.placement.coords == pack(pst, shapes).coords
        assert sol.pst == pst

    def test_repairs_boundary_violation(self):
        # Two modules stacked: tall min-area shapes overflow height 60;
        # the wide alternates fit.
        toy = toy_chip(width=40, height=60)
        g = make_graph(2, conf=1.0)
        pst = PST(ps=["m2", "m1"], qs=["m1", "m2"], rs=[(0, 0)],
                  partition={"m1": (0, 0), "m2": (0, 0)})
        lists = {m: ShapeList(m, (Shape(7, 40), Shape(12, 25)))
                 for m in ("m1", "m2")}
        w = CostWeights().resolve(g, toy)
        start = pack(pst, {m: lists[m].shapes[0] for m in lists})
        assert start.y_max == 80 > toy.height
        res = solve(build_model(pst, lists, toy))
        assert res.status == "optimal"
        sol = apply(pst, res.selection, lists, g, toy, w)
        assert sol.feasible
        assert sol.pst == pst  # structure untouched, only shapes changed

    def test_detects_unrepairable_claim(self, chip):
        g = make_graph(1, conf=1.0)
        pst = single_layer_pst(["m1"])
        lists = {"m1": ShapeList("m1", (Shape(147, 5),))}
        w = CostWeights().resolve(g, chip)
        with pytest.raises(RuntimeError):
            apply(pst, {"m1": 0}, lists, g, chip, w)


# ----------------------------------------------------------------------
# LP export + external (scipy/HiGHS) cross-check

def parse_lp(text):
    """Minimal reader for the exported LP dialect."""
    lines = [l.rstrip() for l in text.splitlines()
             if l.strip() and not l.lstrip().startswith("\\")]
    mode = None
    objective = {}
    obj_const = 0.0
    constraints = []
    binaries = []

    def parse_terms(expr):
        toks = expr.replace("+", " + ").replace("-", " - ").split()
        terms = {}
        const = 0.0
        sign = 1.0
        num = None
        for tok in toks:
            if tok == "+":
                sign, num = 1.0, None
            elif tok == "-":
                sign, num = -1.0, None
            else:
                try:
                    val = float(tok)
                    if num is None:
                        num = val
                    else:  # two numbers in a row cannot happen here
                        raise AssertionError(expr)
                except ValueError:
                    coeff = sign * (num if num is not None else 1.0)
                    terms[tok] = terms.get(tok, 0.0) + coeff
                    sign, num = 1.0, None
        if num is not None:
            const += sign * num
        return terms, const

    for line in lines:
        word = line.strip()
        if word in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
            mode = word
            continue
        if mode == "Maximize":
            body = line.split(":", 1)[1]
            objective, obj_const = parse_terms(body)
        elif mode == "Subject To":
            body = line.split(":", 1)[1].strip()
            for op in ("<=", ">=", "="):
                if f" {op} " in body:
                    expr, rhs = body.rsplit(f" {op} ", 1)
                    terms, c = parse_terms(expr)
                    constraints.append((terms, op, float(rhs) - c))
                    break
        elif mode == "Binary":
            binaries.extend(line.split())
    return objective, obj_const, constraints, binaries


def solve_lp_with_scipy(text):
    from scipy.optimize import LinearConstraint as SciCon
    from scipy.optimize import milp

    objective, obj_const, constraints, binaries = parse_lp(text)
    variables = sorted({v for terms, _, _ in constraints for v in terms}
                       | set(objective) | set(binaries))
    vidx = {v: i for i, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for v, coeff in objective.items():
        c[vidx[v]] = -coeff  # milp minimizes
    rows, lbs, ubs = [], [], []
    for terms, op, rhs in constraints:
        row = np.zeros(len(variables))
        for v, coeff in terms.items():
            row[vidx[v]] = coeff
        rows.append(row)
        lbs.append(rhs if op in (">=", "=") else -np.inf)
        ubs.append(rhs if op in ("<=", "=") else np.inf)
    integrality = np.array([1 if v in set(binaries) else 0 for v in variables])
    upper = np.array([1.0 if v in set(binaries) else np.inf for v in variables])
    from scipy.optimize import Bounds
    res = milp(c=c, constraints=SciCon(np.array(rows), np.array(lbs), np.array(ubs)),
               integrality=integrality,
               bounds=Bounds(np.zeros(len(variables)), upper))
    if not res.success:
        return None
    return -res.fun + obj_const


PINNED_LP = """\
\\ shape reselection model
Maximize
 obj: - Xmax - Ymax + 80
Subject To
 onehot_1: ms_1_1 + ms_1_2 = 1
 wdef_1: w_1 - ms_1_1 - 2 ms_1_2 = 0
 hdef_1: h_1 - 10 ms_1_1 - 5 ms_1_2 = 0
 onehot_2: ms_2_1 = 1
 wdef_2: w_2 - 4 ms_2_1 = 0
 hdef_2: h_2 - 5 ms_2_1 = 0
 onehot_3: ms_3_1 = 1
 wdef_3: w_3 - 3 ms_3_1 = 0
 hdef_3: h_3 - 10 ms_3_1 = 0
 hpos_1_2: x_2 - x_1 - w_1 >= 0
 hpos_1_3: x_3 - x_1 - w_1 >= 0
 vpos_3_2: y_2 - y_3 - h_3 >= 0
 xext_1: Xmax - x_1 - w_1 >= 0
 yext_1: Ymax - y_1 - h_1 >= 0
 xext_2: Xmax - x_2 - w_2 >= 0
 yext_2: Ymax - y_2 - h_2 >= 0
 xext_3: Xmax - x_3 - w_3 >= 0
 yext_3: Ymax - y_3 - h_3 >= 0
 bound_x: Xmax <= 20
 bound_y: Ymax <= 60
Bounds
Binary
 ms_1_1 ms_1_2 ms_2_1 ms_3_1
End
"""


class TestExportLP:
    def test_pinned_text(self):
        # m1 left of m2 and m3, m3 below m2; m1's width-1 shape prints as a
        # bare "- ms_1_1" and the objective carries the 20 + 60 constant.
        key = (0, 0)
        pst = PST(ps=["m1", "m2", "m3"], qs=["m1", "m3", "m2"], rs=[key],
                  partition={m: key for m in ("m1", "m2", "m3")})
        lists = {"m1": ShapeList("m1", (Shape(1, 10), Shape(2, 5))),
                 "m2": ShapeList("m2", (Shape(4, 5),)),
                 "m3": ShapeList("m3", (Shape(3, 10),))}
        toy = ChipModel(width=20, height=60, bram_cols=frozenset({4}),
                        dsp_cols=frozenset({8}),
                        macro_rows_per_col=24, quantum=5)
        assert export_lp(build_model(pst, lists, toy)) == PINNED_LP

    def test_single_module_binary_section(self, chip):
        pst = single_layer_pst(["m1"])
        lists = {"m1": ShapeList("m1", (Shape(8, 5), Shape(5, 10)))}
        text = export_lp(build_model(pst, lists, chip))
        assert "Binary" in text
        binary_line = text.split("Binary\n")[1].splitlines()[0]
        assert binary_line.split() == ["ms_1_1", "ms_1_2"]
        assert text.endswith("End\n")

    def test_byte_stable(self, chip):
        rng = random.Random(2)
        g = make_graph(5)
        pst = random_pst(rng, g.module_ids)
        lists = random_lists(rng, g.module_ids)
        model = build_model(pst, lists, chip)
        assert export_lp(model) == export_lp(model)

    def test_degenerate_model_is_valid_text(self, chip):
        pst = PST(ps=[], qs=[], rs=[], partition={})
        model = build_model(pst, {}, chip)
        text = export_lp(model)
        assert text.startswith("\\")
        assert "Maximize" in text and "End" in text

    def test_round_trip_against_scipy(self):
        pytest.importorskip("scipy")
        rng = random.Random(77)
        toy = toy_chip()
        agree = 0
        for _ in range(20):
            n = rng.randint(1, 5)
            g = make_graph(n)
            pst = random_pst(rng, g.module_ids)
            lists = random_lists(rng, g.module_ids)
            model = build_model(pst, lists, toy)
            ours = solve(model)
            external = solve_lp_with_scipy(export_lp(model))
            if ours.status == "infeasible":
                assert external is None
            else:
                assert external == pytest.approx(ours.objective, abs=1e-6)
                agree += 1
        assert agree >= 5  # most random instances are feasible

    @pytest.mark.parametrize("name", sorted(TestPinnedSearch.PINNED))
    def test_optimum_equals_highs(self, name, chip):
        """The bundled solver proves the HiGHS optimum within 20 s on the
        benchmark's post-opt instances and on the crowded annealing
        results, four of which a module-level branch and bound left at
        timeout after 20 s."""
        pytest.importorskip("scipy")
        model = instance_model(name, chip)
        res = solve(model, 20)
        assert res.status == "optimal"
        assert solve_lp_with_scipy(export_lp(model)) == pytest.approx(
            res.objective, abs=1e-6)


@pytest.mark.parametrize("time_limit, status", [
    (0, "timeout"), (float("inf"), "optimal"), (None, "optimal"),
    (-1, None), (float("nan"), None),
])
def test_solve_time_limit(time_limit, status, chip):
    """0 stops at the first deadline check and inf sets no limit; a
    negative or NaN limit is rejected."""
    model = instance_model("t10-2-s0", chip)
    if status is None:
        with pytest.raises(ValueError, match="time_limit"):
            solve(model, time_limit)
    else:
        assert solve(model, time_limit).status == status
