import math
import random
import time
from dataclasses import replace
from functools import reduce
from operator import add

import pytest

from helpers import (eager_insertions, exact_rough_evaluate, make_graph,
                     plan_state, single_layer_pst)
from pdrplan import explore
from pdrplan.chip import ResourceVector, builtin_xc7vx485t
from pdrplan.delta import PlanState
from pdrplan.explore import (MAX_CANDIDATES, PROBE_MOVES, ROUGH_KEEP_K,
                             RoughEvaluator, SAConfig, accept_move,
                             accurate_evaluate, anneal, apply_candidate,
                             enumerate_insertions, initial_solution)
from pdrplan.pst import (PST, CostWeights, comm_between, evaluate, pack,
                         schedule, validate)
from pdrplan.report import prepare_instance
from pdrplan.shapes import Shape, ShapeGenConfig, ShapeList, generate_all
from pdrplan.taskgraph import (TaskGraph, TaskModule, assign_conf_times,
                               generate, preset_spec)


@pytest.fixture(scope="module")
def chip():
    return builtin_xc7vx485t()


def lists_for(g, chip, n=6):
    return generate_all(g, chip, ShapeGenConfig(n=n))


def walk_moves(chip, name, seed, moves):
    """The moves of a random walk on a preset instance, each as (g, lists,
    pst without the moved module, shapes, moved module, its sampled
    candidates), sampled the way the annealer samples them.  The walk
    applies a random candidate after each move, a fresh region now and
    then, so states get several regions."""
    g, lists = prepare_instance(generate(preset_spec(name, seed=0)),
                                chip, ShapeGenConfig(), 0.001)
    rng = random.Random(seed)
    pst = initial_solution(g, lists, chip)
    shapes = {m: lists[m].min_area_shape() for m in g.module_ids}
    ids = list(g.module_ids)
    for _ in range(moves):
        m = rng.choice(ids)
        without = pst.without(m)
        points = enumerate_insertions(without, m, g)
        n = len(points)
        cands = ([points[i] for i in rng.sample(range(n), MAX_CANDIDATES)]
                 if n > MAX_CANDIDATES else list(points))
        yield g, lists, without, shapes, m, cands
        fresh = [c for c in cands if c.new_region]
        cand = rng.choice(fresh if fresh and rng.random() < 0.3 else cands)
        pst = apply_candidate(without, m, cand)
        shapes = {**shapes, m: rng.choice(lists[m].shapes)}


def t10_instance(seed, chip):
    spec = preset_spec("t10-1", seed=seed)
    g = generate(spec)
    lists = lists_for(g, chip)
    g = assign_conf_times(g, {m: sl.shapes[0].area for m, sl in lists.items()},
                          0.001)
    return g, lists


class TestInitialSolution:
    def test_single_module(self, chip):
        g = make_graph(1)
        lists = {"m1": ShapeList("m1", (Shape(8, 5),))}
        pst = initial_solution(g, lists, chip)
        assert len(pst.rs) == 1
        assert set(pst.partition.values()) == {(0, 0)}
        assert validate(pst, g) == []

    def test_chain_respects_dependencies(self, chip):
        g = make_graph(3, edges=[("m1", "m2", 1.0), ("m2", "m3", 1.0)])
        lists = {m: ShapeList(m, (Shape(10, 10),)) for m in g.module_ids}
        pst = initial_solution(g, lists, chip)
        assert validate(pst, g) == []

    def test_rows_respect_chip_width(self, chip):
        g = make_graph(10)
        lists = {m: ShapeList(m, (Shape(60, 10),)) for m in g.module_ids}
        pst = initial_solution(g, lists, chip)
        p = pack(pst, {m: Shape(60, 10) for m in g.module_ids})
        assert p.x_max <= chip.width

    def test_t10_scale_valid_and_bounded(self, chip):
        g, lists = t10_instance(1, chip)
        pst = initial_solution(g, lists, chip)
        assert validate(pst, g) == []
        s = schedule(pst, g)
        assert s.makespan >= g.critical_path_time() - 1e-9


class TestEnumerateInsertions:
    def test_singleton_reinsertion_recovers_original(self, chip):
        g = make_graph(1)
        lists = {"m1": ShapeList("m1", (Shape(8, 5),))}
        pst = initial_solution(g, lists, chip)
        cands = enumerate_insertions(pst.without("m1"), "m1", g)
        assert len(cands) >= 1
        recovered = [apply_candidate(pst.without("m1"), "m1", c) for c in cands]
        assert any(p.partition == {"m1": (0, 0)} and p.rs == ((0, 0),)
                   for p in recovered)

    def test_structural_variety(self, chip):
        # one region with two layers: existing slots + new layer + new region
        g = make_graph(3)
        from pdrplan.pst import PST
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        cands = enumerate_insertions(pst, "m3", g)
        kinds = {(c.new_layer, c.new_region) for c in cands}
        assert kinds == {(False, False), (True, False), (True, True)}
        assert len(cands) >= 4

    def test_every_candidate_validates(self, chip):
        rng = random.Random(2)
        g, lists = t10_instance(2, chip)
        pst = initial_solution(g, lists, chip)
        for m in list(g.module_ids)[:4]:
            without = pst.without(m)
            for cand in enumerate_insertions(without, m, g):
                applied = apply_candidate(without, m, cand)
                assert validate(applied, g) == []

    def test_dependency_filter_blocks_early_layers(self, chip):
        g = make_graph(3, edges=[("m1", "m3", 1.0), ("m3", "m2", 1.0)])
        from pdrplan.pst import PST
        pst = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                  partition={"m1": (0, 0), "m2": (0, 1)})
        cands = enumerate_insertions(pst, "m3", g)
        for cand in cands:
            applied = apply_candidate(pst, "m3", cand)
            assert validate(applied, g) == []
        # m3 must go strictly between m1's and m2's layers or alongside them
        assert cands, "dependency window must not be empty"


    def test_lazy_points_equal_eager_oracle(self, chip):
        """The sequence has the oracle's length and points, field by field,
        whether read by index or by iteration."""
        g = make_graph(3, edges=[("m1", "m3", 1.0), ("m3", "m2", 1.0)])
        two_layers = PST(ps=["m1", "m2"], qs=["m1", "m2"], rs=[(0, 0), (0, 1)],
                         partition={"m1": (0, 0), "m2": (0, 1)})
        moves = [(g, two_layers, "m3"), (g, PST((), (), (), {}), "m3")]
        for name, seed in (("t10-1", 4), ("t30-1", 5)):
            moves += [(g, without, m) for g, _, without, _, m, _
                      in walk_moves(chip, name, seed, 15)]
        rng = random.Random(6)
        for g, without, m in moves:
            lazy = enumerate_insertions(without, m, g)
            eager = eager_insertions(without, m, g)
            n = len(eager)
            assert len(lazy) == n > 0
            k = rng.randrange(n)
            assert lazy[k] == lazy[k - n] == eager[k]
            assert list(lazy) == eager
            for bad in (n, -n - 1):
                with pytest.raises(IndexError):
                    lazy[bad]

    @pytest.mark.parametrize("n", [MAX_CANDIDATES + 1, 1045, 1046, 5000])
    def test_index_sampling_equals_list_sampling(self, n):
        """random.sample draws from a pool list up to 1045 items at k = 96
        and from a set of drawn indices above; either way, sampling the
        indices picks what sampling the list picks and leaves the RNG in
        the same state."""
        items = [object() for _ in range(n)]
        by_list, by_index = random.Random(n), random.Random(n)
        want = by_list.sample(items, MAX_CANDIDATES)
        got = [items[i] for i in by_index.sample(range(n), MAX_CANDIDATES)]
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        assert by_index.getstate() == by_list.getstate()


class TestBest:
    @pytest.mark.parametrize("name, seed", [("t10-1", 1), ("t30-1", 2),
                                            ("t50-1", 3)])
    def test_best_equals_stable_sort_of_every_score(self, chip, name, seed):
        """best(k) returns the first k candidates of a stable sort by
        evaluate's score, with their shapes.  It calls evaluate at most
        once per (target, rs_pos) class, and on some moves for fewer
        classes than there are."""
        pruned = 0
        for g, lists, without, shapes, m, cands in walk_moves(chip, name,
                                                             seed, 20):
            base = plan_state(without, shapes, g, chip,
                              CostWeights().resolve(g, chip))
            oracle = RoughEvaluator(base, m, lists[m])
            scored = [oracle.evaluate(c) for c in cands]
            order = sorted(range(len(cands)), key=lambda i: scored[i][1])
            classes = {(oracle._target(c), c.rs_pos) for c in cands}
            for k in (1, ROUGH_KEEP_K, len(cands)):
                ev = RoughEvaluator(base, m, lists[m])
                calls = []
                ev.evaluate = lambda c, f=ev.evaluate: calls.append(
                    (ev._target(c), c.rs_pos)) or f(c)
                top = ev.best(cands, k)
                assert len(top) == min(k, len(cands))
                assert all(c is cands[i] for c, i in zip(top, order))
                assert [c.shape for c in top] == [
                    scored[i][0] for i in order[:k]]
                assert len(set(calls)) == len(calls) <= len(classes)
                pruned += len(calls) < len(classes)
        assert pruned


class TestRoughEvaluate:
    def test_single_shape_returned(self, chip):
        g = make_graph(2, conf=1.0)
        lists = {m: ShapeList(m, (Shape(6, 10),)) for m in g.module_ids}
        pst = initial_solution(g, lists, chip)
        without = pst.without("m2")
        cands = enumerate_insertions(without, "m2", g)
        ev = RoughEvaluator(plan_state(without, {"m1": Shape(6, 10)}, g, chip,
                                       CostWeights().resolve(g, chip)), "m2",
                            lists["m2"])
        shape, score = ev.evaluate(cands[0])
        assert shape == Shape(6, 10)
        assert math.isfinite(score)

    def test_exact_mode_matches_full_pack(self, chip):
        rng = random.Random(4)
        g, lists = t10_instance(4, chip)
        w = CostWeights(gamma_comm=0, lambda_=0).resolve(g, chip)
        pst = initial_solution(g, lists, chip)
        shapes = {m: lists[m].shapes[0] for m in g.module_ids}
        for m in list(g.module_ids)[:3]:
            without = pst.without(m)
            ev = RoughEvaluator(plan_state(without, shapes, g, chip, w), m,
                                lists[m])
            for cand in list(enumerate_insertions(without, m, g))[:10]:
                shape, score = exact_rough_evaluate(ev, cand)
                applied = apply_candidate(without, m, cand)
                trial = dict(shapes)
                trial[m] = shape
                p = pack(applied, trial)
                s = schedule(applied, g)
                expect = (w.alpha * (p.x_max * p.y_max) / w.area_norm
                          + w.beta * s.makespan / w.schedule_norm)
                assert score == pytest.approx(expect)

    def test_wider_shape_chosen_when_it_shrinks_design(self, chip):
        # A full-width module occupies nearly the whole height.  Stacking
        # m2 on top forces the flat shape: the tall variant would push
        # y_max far beyond the chip and blow up the bounding box.
        from pdrplan.pst import PST
        g = make_graph(2, conf=1.0)
        pst = PST(ps=["m1"], qs=["m1"], rs=[(0, 0)],
                  partition={"m1": (0, 0)})
        shapes = {"m1": Shape(140, 345)}
        w = CostWeights(beta=0, gamma_comm=0, lambda_=0).resolve(g, chip)
        m2_list = ShapeList("m2", (Shape(5, 100), Shape(100, 5)))
        ev = RoughEvaluator(plan_state(pst, shapes, g, chip, w), "m2", m2_list)
        above = [c for c in enumerate_insertions(pst, "m2", g)
                 if not c.new_layer and c.ps_pos == 0 and c.qs_pos == 1][0]
        for score in (ev.evaluate, lambda c: exact_rough_evaluate(ev, c)):
            shape, _ = score(above)
            assert shape == Shape(100, 5)


class TestAccurateEvaluate:
    def test_single_candidate_exact_cost(self, chip):
        g, lists = t10_instance(5, chip)
        w = CostWeights().resolve(g, chip)
        pst = initial_solution(g, lists, chip)
        shapes = {m: lists[m].shapes[0] for m in g.module_ids}
        m = list(g.module_ids)[0]
        without = pst.without(m)
        cand = enumerate_insertions(without, m, g)[0]
        cand.shape = lists[m].shapes[0]
        new_pst, new_shapes, cost, picked, _ = accurate_evaluate(
            plan_state(without, shapes, g, chip, w), m, [cand])
        assert picked is cand
        recomputed = evaluate(new_pst, new_shapes, g, chip, w).costs
        assert cost == recomputed

    def test_argmin_over_candidates(self, chip):
        g, lists = t10_instance(6, chip)
        w = CostWeights().resolve(g, chip)
        pst = initial_solution(g, lists, chip)
        shapes = {m: lists[m].shapes[0] for m in g.module_ids}
        m = list(g.module_ids)[0]
        without = pst.without(m)
        cands = list(enumerate_insertions(without, m, g))[:6]
        for c in cands:
            c.shape = lists[m].shapes[0]
        best_cost = accurate_evaluate(plan_state(without, shapes, g, chip, w),
                                      m, cands)[2]
        costs = []
        for c in cands:
            applied = apply_candidate(without, m, c)
            trial = dict(shapes)
            trial[m] = c.shape
            costs.append(evaluate(applied, trial, g, chip, w).costs)
        assert best_cost == min(costs, key=lambda c: c.total)


STATE_FIELDS = ("sizes", "members", "order", "conf_sum", "exec_max",
                "layer_end", "config_end", "width", "height", "off_x", "off_y",
                "x_max", "y_max", "cx", "cy", "exec_end", "terms")


def assert_same_state(kept, pst, shapes, g, chip, w):
    """The kept state equals the one built from scratch for pst, field by
    field: sizes, boxes, centres, edge terms (None for an edge of a module
    outside pst), sums, ends and timeline."""
    scratch = plan_state(pst, shapes, g, chip, w)
    assert kept.pst == pst and kept.shapes == shapes
    for name in STATE_FIELDS:
        assert getattr(kept, name) == getattr(scratch, name), name


class TestPlanState:
    """The delta cost of every insertion point equals a full evaluate, and
    the chain's kept state equals one built from scratch after every
    move's base and every applied winner, while each state serves several
    moves and each base several probes."""

    @staticmethod
    def walk(chip, name, seed, states, seen):
        """Each state serves two or three moves before one of them applies
        a winner, as the chain's kept moves do.  Each move's base costs a
        few single points first, as probes do, once with another shape,
        then every point, and the earlier moves of the state probe again
        once the later bases are drawn."""
        g, lists = prepare_instance(generate(preset_spec(name, seed=0)),
                                    chip, ShapeGenConfig(), 0.001)
        w = CostWeights().resolve(g, chip)
        rng = random.Random(seed)
        pst = initial_solution(g, lists, chip)
        shapes = {m: lists[m].min_area_shape() for m in g.module_ids}
        state = plan_state(pst, shapes, g, chip, w)
        ids = list(g.module_ids)

        def probe(move):
            m, without, base, cands, expect = move[:5]
            i = rng.randrange(len(cands))
            assert base.costs(m, cands[i]).cost == expect[i]
            other = replace(cands[i], shape=rng.choice(lists[m].shapes))
            assert base.costs(m, other).cost == evaluate(
                apply_candidate(without, m, other),
                {**shapes, m: other.shape}, g, chip, w).costs

        for _ in range(states):
            moves = []
            for _ in range(rng.choice((2, 3))):
                m = rng.choice(ids)
                without = pst.without(m)
                if len(without.region_layers) < len(pst.region_layers):
                    seen.add("region emptied")
                if len(without.rs) < len(pst.rs):
                    seen.add("layer emptied")
                base = state.without(m)
                assert_same_state(base, without, shapes, g, chip, w)
                cands = list(enumerate_insertions(without, m, g))
                expect = []
                for cand in cands:
                    cand.shape = rng.choice(lists[m].shapes)
                    expect.append(evaluate(apply_candidate(without, m, cand),
                                           {**shapes, m: cand.shape}, g,
                                           chip, w).costs)
                    if cand.new_region:
                        seen.add(("corner", cand.ps_pos == 0,
                                  cand.qs_pos == 0))
                    seen.add(("fresh layer" if cand.new_layer else "layer",
                              expect[-1].feasible))
                move = (m, without, base, cands, expect)
                probe(move)
                trials = [base.costs(m, cand) for cand in cands]
                assert [trial.cost for trial in trials] == expect
                for earlier in moves:
                    probe(earlier)
                moves.append((*move, trials))
            m, without, _, cands, _, trials = rng.choice(moves)
            # Fresh regions now and then, so that moves empty regions too.
            picks = range(len(cands))
            fresh = [i for i in picks if cands[i].new_region]
            if fresh and rng.random() < 0.3:
                picks = fresh
            k = rng.choice(picks)
            pst = apply_candidate(without, m, cands[k])
            shapes = {**shapes, m: cands[k].shape}
            state = trials[k].state(pst, shapes)
            assert_same_state(state, pst, shapes, g, chip, w)

    def test_delta_equals_evaluate_on_random_walks(self, chip):
        seen = set()
        self.walk(chip, "t10-1", 1, 10, seen)
        self.walk(chip, "t10-2", 2, 10, seen)
        self.walk(chip, "t30-1", 3, 10, seen)
        assert seen >= {"region emptied", "layer emptied",
                        ("corner", True, True), ("corner", True, False),
                        ("corner", False, True), ("corner", False, False),
                        ("layer", True), ("layer", False),
                        ("fresh layer", True), ("fresh layer", False)}


def test_float_sums_run_left_to_right(chip):
    """Configuration times and edge weights are summed left to right.
    sum() of floats compensates from Python 3.12 on; a loop gives every
    interpreter the same normalizers, scores and seeded outputs."""
    def left_to_right(n):
        total = 0.0
        for _ in range(n):
            total += 0.1
        return total

    assert left_to_right(11) != math.fsum([0.1] * 11)
    edges = [(f"m{i}", f"m{i + 1}", 0.1) for i in range(1, 11)]
    g = make_graph(11, edges=edges, exec_time=0.001, conf=0.1)
    w = CostWeights().resolve(g, chip)
    assert w.schedule_norm == g.critical_path_time() + left_to_right(11)
    assert g.total_edge_weight() == left_to_right(10)
    pst = single_layer_pst([f"m{i}" for i in range(1, 12)])
    shapes = {m: Shape(2, 5) for m in pst.ps}
    state = plan_state(pst, shapes, g, chip, w)
    base = state.without("m11")
    ev = RoughEvaluator(base, "m11", ShapeList("m11", (Shape(2, 5),)))
    assert ev.conf_sum[(0, 0)] == left_to_right(10)
    # Each edge spans one 2-wide slot of the row: ten terms of 0.1 * 2.
    assert state.terms == [0.1 * 2] * 10
    comm = comm_between(g, state.cx, state.cy)
    assert reduce(add, state.terms, 0.0) == comm != math.fsum(state.terms)
    back = [c for c in enumerate_insertions(base.pst, "m11", g)
            if not c.new_layer and c.ps_pos == c.qs_pos == 10][0]
    back.shape = Shape(2, 5)
    assert base.costs("m11", back).cost.comm_raw == comm


def test_replays_shared_only_by_equal_configuration_sums(chip):
    """Points of one layer and rs slot share a schedule replay only when
    their configuration sums, taken in ps order, are the same float: 0.1,
    0.2 and 0.01 sum to 0.31 or to 0.31000000000000005 depending on where
    m3 goes.  Every point still costs what evaluate gives."""
    g = TaskGraph([TaskModule(m, ResourceVector(10, 0, 0), 0.001, conf)
                   for m, conf in (("m1", 0.1), ("m2", 0.2), ("m3", 0.01))],
                  [])
    w = CostWeights().resolve(g, chip)
    pst = single_layer_pst(["m1", "m2"])
    shapes = {m: Shape(2, 5) for m in ("m1", "m2", "m3")}
    base = plan_state(pst, shapes, g, chip, w)
    makespans = set()
    for cand in enumerate_insertions(pst, "m3", g):
        if cand.new_layer:
            continue
        cand.shape = Shape(2, 5)
        expect = evaluate(apply_candidate(pst, "m3", cand), shapes, g, chip,
                          w).costs
        assert base.costs("m3", cand).cost == expect
        makespans.add(expect.makespan)
    assert len(makespans) == 2


class TestAcceptance:
    def test_downhill_always_accepted(self):
        rng = random.Random(0)
        assert accept_move(-1.0, 0.5, rng)
        assert accept_move(0.0, 0.5, rng)

    def test_zero_temperature_rejects_uphill(self):
        rng = random.Random(0)
        assert not accept_move(1e-9, 0.0, rng)
        assert not accept_move(5.0, 1e-12, rng)

    def test_uphill_rate_tracks_boltzmann(self):
        rng = random.Random(1)
        delta, temp = 0.5, 1.0
        hits = sum(accept_move(delta, temp, rng) for _ in range(20000))
        assert hits / 20000 == pytest.approx(math.exp(-0.5), abs=0.02)


class TestSAConfig:
    @pytest.mark.parametrize("name, value", [
        ("min_temperature", 0.0), ("min_temperature", -1.0),
        ("min_temperature", math.inf), ("min_temperature", math.nan),
        ("initial_temperature", 0.0), ("initial_temperature", -1.0),
        ("initial_temperature", math.inf), ("initial_temperature", math.nan)])
    def test_temperature_must_be_finite_and_positive(self, name, value):
        """A zero or negative floor is never reached (5e-324 * 0.9 rounds
        back to 5e-324) and an infinite start never cools, so both anneal
        forever; a NaN start or floor and an infinite floor run no move."""
        with pytest.raises(ValueError, match=name):
            SAConfig(**{name: value})


class TestAnneal:
    def test_single_module_optimum(self, chip):
        g = make_graph(1, conf=1.0)
        lists = {"m1": ShapeList("m1", (Shape(8, 5), Shape(5, 10)))}
        cfg = SAConfig(seed=3, iterations_per_temperature=4,
                       initial_temperature=1.0, min_temperature=0.5)
        sol, _ = anneal(g, lists, chip, cfg)
        assert sol.shapes["m1"] == Shape(8, 5)
        assert sol.placement.coords["m1"].x == 1
        assert sol.placement.coords["m1"].y == 1
        assert sol.feasible

    def test_best_trace_non_increasing_and_final_no_worse(self, chip):
        g, lists = t10_instance(7, chip)
        cfg = SAConfig(seed=7, cooling_rate=0.8, min_temperature=None)
        sol, trace = anneal(g, lists, chip, cfg)
        best = [row.best_cost for row in trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))
        w = CostWeights().resolve(g, chip)
        init = evaluate(initial_solution(g, lists, chip),
                        {m: lists[m].shapes[0] for m in g.module_ids},
                        g, chip, w).costs
        assert sol.costs.total <= init.total + 1e-9

    def test_deterministic_per_seed(self, chip):
        g, lists = t10_instance(8, chip)
        cfg = SAConfig(seed=11, cooling_rate=0.7)
        a, trace_a = anneal(g, lists, chip, cfg)
        b, trace_b = anneal(g, lists, chip, cfg)
        assert a.costs == b.costs
        assert a.pst == b.pst
        assert a.shapes == b.shapes
        assert trace_a == trace_b

    def test_validated_moves_on_small_instance(self, chip, monkeypatch):
        """Every point a move costs exactly, probe moves' points and every
        winner included, applies to a valid PST."""
        g, lists = t10_instance(9, chip)
        points = []
        costs = PlanState.costs

        def validating(base, m, cand):
            applied = apply_candidate(base.pst, m, cand)
            assert validate(applied, g) == []
            points.append(applied)
            return costs(base, m, cand)

        monkeypatch.setattr(PlanState, "costs", validating)
        cfg = SAConfig(seed=2, cooling_rate=0.5, iterations_per_temperature=8)
        sol, _ = anneal(g, lists, chip, cfg)
        assert len(points) > PROBE_MOVES
        assert validate(sol.pst, g) == []

    def test_time_limit_covers_probe_moves(self, chip):
        g, lists = prepare_instance(generate(preset_spec("t100-1", seed=0)),
                                    chip, ShapeGenConfig(), 0.001)
        started = time.monotonic()
        anneal(g, lists, chip, SAConfig(seed=0, time_limit=0.2))
        assert time.monotonic() - started < 1.5

    def test_subnormal_temperature_ends_the_schedule(self, chip):
        """5e-324 * 0.9 rounds back to 5e-324 and the floor resolves to
        0.0, so the schedule ends once cooling no longer lowers t."""
        g, lists = t10_instance(8, chip)
        cfg = SAConfig(seed=0, initial_temperature=5e-324,
                       iterations_per_temperature=1, time_limit=2)
        _, trace = anneal(g, lists, chip, cfg)
        assert [row.temperature for row in trace] == [5e-324]

    def test_overflowing_lowest_cost_state_is_not_returned(self, chip):
        """The chain's lowest-cost state on this instance overflows the
        chip and post-opt cannot repair it (see anneal), so anneal returns
        a feasible state that costs more."""
        g, lists = prepare_instance(generate(preset_spec("t10-2", seed=100)),
                                    chip, ShapeGenConfig(), 0.001)
        sol, trace = anneal(g, lists, chip, SAConfig(seed=0))
        assert sol.feasible
        assert min(row.best_cost for row in trace) < sol.costs.total

    def test_lowest_cost_state_returned_when_none_is_feasible(self, chip):
        """Module a's one shape is 400 rows tall on a 350-row chip, so no
        state fits, and anneal returns the lowest-cost one, infeasible."""
        g = TaskGraph([TaskModule("a", ResourceVector(10, 0, 0), 10.0, 1.0),
                       TaskModule("b", ResourceVector(10, 0, 0), 10.0, 1.0)],
                      [])
        lists = {"a": ShapeList("a", (Shape(5, 400),)),
                 "b": ShapeList("b", (Shape(5, 10),))}
        sol, trace = anneal(g, lists, chip, SAConfig(seed=0))
        assert not sol.feasible
        assert sol.costs.total == trace[-1].best_cost

    def test_unresolved_conf_rejected(self, chip):
        spec = preset_spec("t10-1", seed=1)
        g = generate(spec)  # conf unresolved
        lists = lists_for(g, chip)
        with pytest.raises(ValueError, match="conf"):
            anneal(g, lists, chip, SAConfig())


class TestKeptMoves:
    """A move that samples nothing depends only on the plan and the moved
    module, so the chain computes it once per plan and keeps it until an
    accepted winner changes the plan."""

    @pytest.mark.parametrize("cfg", [
        SAConfig(seed=3),
        SAConfig(seed=3, iterations_per_temperature=4,
                 initial_temperature=1.0, min_temperature=0.5),
    ], ids=["probed", "fixed"])
    def test_one_module_anneal_computes_its_move_once(self, chip, cfg,
                                                      monkeypatch):
        """A one-module plan has one insertion point, which puts the module
        back: the plan never changes, so every draw after the first, the
        probes' included, reuses the first move."""
        calls = []

        def counting(pst, m, g):
            calls.append(m)
            return enumerate_insertions(pst, m, g)

        monkeypatch.setattr(explore, "enumerate_insertions", counting)
        g = make_graph(1, conf=1.0)
        lists = {"m1": ShapeList("m1", (Shape(8, 5), Shape(5, 10)))}
        sol, trace = anneal(g, lists, chip, cfg)
        assert len(trace) > 1 and sol.shapes["m1"] == Shape(8, 5)
        assert calls == ["m1"]

    def test_sampled_moves_are_not_kept(self, chip, monkeypatch):
        """After every move of a t100 anneal, probes included, the chain
        keeps only modules with at most MAX_CANDIDATES insertion points."""
        g, lists = prepare_instance(generate(preset_spec("t100-1", seed=0)),
                                    chip, ShapeGenConfig(), 0.001)
        draw = explore._Chain._random_move
        sampled = []
        kept = []

        def checked(chain):
            move = draw(chain)
            state = chain.state
            for m in chain.moves:
                points = enumerate_insertions(state.without(m).pst, m, g)
                assert len(points) <= MAX_CANDIDATES
                kept.append(m)
            points = enumerate_insertions(move.base.pst, move.m, g)
            sampled.append(len(points) > MAX_CANDIDATES)
            return move

        monkeypatch.setattr(explore._Chain, "_random_move", checked)
        anneal(g, lists, chip, SAConfig(seed=0, iterations_per_temperature=1))
        assert len(sampled) > PROBE_MOVES and sum(sampled) > len(sampled) / 2
        assert kept

    def test_kept_moves_equal_recomputed_ones(self, chip):
        """At every reuse the kept top list and winner equal a fresh
        computation from the current state, and the kept moves are dropped
        whenever an accepted winner changes the plan."""
        g, lists = t10_instance(5, chip)
        w = CostWeights().resolve(g, chip)
        chain = explore._Chain(g, lists, chip, SAConfig(seed=1), w, None)
        draw = chain._random_move
        hits = []

        def checked():
            kept = dict(chain.moves)
            move = draw()
            if kept.get(move.m) is move:
                m = move.m
                base = chain.state.without(m)
                top = RoughEvaluator(base, m, lists[m]).best(
                    list(enumerate_insertions(base.pst, m, g)), ROUGH_KEEP_K)
                assert move.top == top
                assert move.winner()[2] == accurate_evaluate(base, m, top)[2]
                hits.append(m)
            return move

        chain._random_move = checked
        chain.initial_temperature()
        probed = len(hits)
        changes = repeats = 0
        for _ in range(300):
            state, cost = chain.state, chain.cost
            chain.step(0.05)  # accepts about two moves in three here
            if chain.state is not state:
                assert (chain.state.pst != state.pst
                        or chain.state.shapes != state.shapes)
                assert chain.moves == {}
                changes += 1
            elif chain.cost is not cost:
                assert chain.cost.total == cost.total
                repeats += 1
        assert probed > 50 and len(hits) - probed > 20
        assert changes > 50 and repeats > 50
