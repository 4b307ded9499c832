"""Property tests: the text formats round-trip, schedules respect their
lower bounds, the optimised packing, schedule, rough scoring and its
extents and chip window counts agree with the plain reference versions
in helpers.py, shape reselection agrees with the exhaustive sweep, and
the rough extents of a fresh layer or region equal those of a full
pack."""

import functools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (TOY_CHIP, brute_force_first_best, layered_pst,
                     make_graph, module_level_pack, per_candidate_rough,
                     plan_state, random_pst, reference_approx_extents,
                     reference_schedule, scan_min_column_counts,
                     selection_key)
from pdrplan.chip import ChipModel, ResourceVector, builtin_xc7vx485t, load_chip
from pdrplan.explore import (RoughEvaluator, apply_candidate,
                             enumerate_insertions, initial_solution)
from pdrplan.ilp import build_model, solve
from pdrplan.pst import CostWeights, evaluate, pack, schedule
from pdrplan.report import prepare_instance
from pdrplan.shapes import Shape, ShapeGenConfig, ShapeList
from pdrplan.solio import parse_solution, write_solution
from pdrplan.taskgraph import (Edge, TaskGraph, TaskModule, generate,
                               parse_graph, preset_spec)

CHIP = builtin_xc7vx485t()
FAST = settings(max_examples=100, deadline=None)

times = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
counts = st.integers(min_value=0, max_value=5000)


@st.composite
def graphs(draw):
    ids = draw(st.lists(st.text("abmxyz019_.", min_size=1, max_size=6),
                        min_size=1, max_size=8, unique=True))
    modules = [TaskModule(mid, ResourceVector(draw(counts), draw(counts),
                                              draw(counts)),
                          draw(times), draw(st.none() | st.just(0.0) | times))
               for mid in ids]
    # Edges only run forward in id-list order, so the graph stays acyclic.
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [Edge(a, b, draw(st.just(0.0) | times)) for a, b in chosen]
    return TaskGraph(modules, edges)


@FAST
@given(graphs())
def test_graph_serialize_parse_round_trip(g):
    assert parse_graph(g.serialize()) == g


@FAST
@given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
def test_solution_write_parse_round_trip(n, seed):
    rng = random.Random(seed)
    g = make_graph(n, conf=1.0)
    pst = random_pst(rng, g.module_ids)
    shapes = {m: Shape(rng.randint(1, 60), 5 * rng.randint(1, 40))
              for m in g.module_ids}
    w = CostWeights().resolve(g, CHIP)
    text = write_solution(evaluate(pst, shapes, g, CHIP, w))
    parsed_pst, parsed_shapes, _ = parse_solution(text)
    assert parsed_pst == pst
    assert parsed_shapes == shapes
    again = evaluate(parsed_pst, parsed_shapes, g, CHIP, w)
    assert write_solution(again) == text


@FAST
@given(graphs(), st.integers(0, 2**32 - 1))
def test_schedule_lower_bounds(g, seed):
    """makespan >= critical path and >= total configuration time."""
    modules = [TaskModule(m.id, m.demand, m.exec_time, m.conf_time or 0.0)
               for m in g.modules]
    g = TaskGraph(modules, g.edges)
    pst = layered_pst(random.Random(seed), g)
    makespan = schedule(pst, g).makespan
    for bound in (g.critical_path_time(), sum(m.conf_time for m in modules)):
        assert makespan >= bound * (1 - 1e-12)


@FAST
@given(graphs(), st.integers(0, 2**32 - 1))
def test_schedule_equals_per_layer_kahn(g, seed):
    """Timing each layer in the graph's topological order gives the
    ScheduleResult of a Kahn sweep inside each layer."""
    rng = random.Random(seed)
    modules = [TaskModule(m.id, m.demand, m.exec_time, m.conf_time or 0.0)
               for m in g.modules]
    rng.shuffle(modules)  # declaration order need not be topological
    g = TaskGraph(modules, g.edges)
    pst = layered_pst(rng, g, avg_layer_size=4)
    part = pst.partition
    assume(any(part[e.src] == part[e.dst] for e in g.edges))
    assert schedule(pst, g) == reference_schedule(pst, g)


@FAST
@given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_layered_pack_equals_module_level_pack(n, regions, layers, seed):
    rng = random.Random(seed)
    ids = [f"m{i}" for i in range(n)]
    pst = random_pst(rng, ids, max_regions=regions, max_layers=layers)
    shapes = {m: Shape(rng.randint(1, 60), 5 * rng.randint(1, 20))
              for m in ids}
    got = pack(pst, shapes)
    want = module_level_pack(pst, shapes)
    assert got == want
    assert list(got.coords) == list(want.coords)
    assert list(got.region_boxes) == list(want.region_boxes)
    for key, members in pst.layer_members.items():
        rects = [want.coords[m] for m in members]
        assert got.layer_sizes[key] == (
            max(r.x_hi for r in rects) - min(r.x for r in rects) + 1,
            max(r.y_hi for r in rects) - min(r.y for r in rects) + 1)


@FAST
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from(["chip", "toy",
                                                              "ties"]),
       st.integers(0, 2**32 - 1))
def test_solve_equals_first_best(n, max_shapes, kind, seed):
    """solve returns the status, objective and key of the exhaustive sweep
    over itertools.product, and the selection that sweep meets first
    among those of the best key.  The "ties" shapes come from a few sizes
    of equal areas (2x20, 4x10, 8x5), so that many selections tie."""
    rng = random.Random(seed)
    chip = CHIP if kind == "chip" else TOY_CHIP
    ids = [f"m{i}" for i in range(n)]
    pst = random_pst(rng, ids)
    lists = {}
    for m in ids:
        if kind == "ties":
            shapes = {Shape(rng.choice((2, 4, 8)), 5 * rng.choice((1, 2, 4)))
                      for _ in range(rng.randint(1, max_shapes))}
        else:
            shapes = {Shape(rng.randint(1, chip.width // 2),
                            5 * rng.randint(1, chip.height // 10))
                      for _ in range(rng.randint(1, max_shapes))}
        lists[m] = ShapeList(m, tuple(sorted(shapes,
                                             key=lambda s: (s.area, s.w))))
    got = solve(build_model(pst, lists, chip))
    key, first = brute_force_first_best(pst, lists, chip)
    if key is None:
        assert (got.status, got.selection, got.objective) == (
            "infeasible", None, None)
        return
    assert (got.status, got.objective, got.selection) == (
        "optimal", float(key[0]), first)
    assert selection_key(pst, {m: lists[m].shapes[j]
                               for m, j in got.selection.items()}, chip) == key


@functools.lru_cache(maxsize=None)
def preset_instance(name):
    g = generate(preset_spec(name, seed=0))
    return prepare_instance(g, CHIP, ShapeGenConfig(), 0.001)


def random_move(name, seed):
    """A random move's deleted module on a preset instance, after a random
    walk to a (usually) multi-region state: (g, lists, without, shapes,
    module, RoughEvaluator of the move)."""
    g, lists = preset_instance(name)
    rng = random.Random(seed)
    pst = initial_solution(g, lists, CHIP)
    shapes = {m: lists[m].min_area_shape() for m in g.module_ids}
    ids = list(g.module_ids)
    for _ in range(rng.randint(0, 20)):
        m = rng.choice(ids)
        without = pst.without(m)
        cand = rng.choice(enumerate_insertions(without, m, g))
        pst = apply_candidate(without, m, cand)
        shapes[m] = rng.choice(lists[m].shapes)
    m = rng.choice(ids)
    without = pst.without(m)
    w = CostWeights().resolve(g, CHIP)
    ev = RoughEvaluator(plan_state(without, shapes, g, CHIP, w), m, lists[m])
    return g, lists, without, shapes, m, ev


MOVES = settings(max_examples=30, deadline=None)
PRESETS = st.sampled_from(["t10-1", "t10-2", "t30-1", "t30-3"])


@MOVES
@given(PRESETS, st.integers(0, 2**32 - 1))
def test_class_scores_equal_per_candidate_scores(name, seed):
    """Every candidate of a random move gets the per-candidate (shape, score)."""
    g, lists, without, _, m, ev = random_move(name, seed)
    for cand in enumerate_insertions(without, m, g):
        assert ev.evaluate(cand) == per_candidate_rough(ev, cand)


@MOVES
@given(PRESETS, st.integers(0, 2**32 - 1))
def test_rough_extents_equal_other_layer_scan(name, seed):
    """Every candidate and shape of a random move gets the extents of the
    scan over the target region's other layers."""
    g, lists, without, _, m, ev = random_move(name, seed)
    for cand in enumerate_insertions(without, m, g):
        for shape in lists[m].shapes:
            assert ev._extents_of(ev._target(cand), [shape]) == [
                reference_approx_extents(ev, cand, shape)]


@MOVES
@given(PRESETS, st.integers(0, 2**32 - 1))
def test_fresh_target_extents_equal_pack(name, seed):
    """A fresh layer or region gets the extents pack gives the applied PST."""
    g, lists, without, shapes, m, ev = random_move(name, seed)
    for cand in enumerate_insertions(without, m, g):
        if not cand.new_layer:
            continue
        applied = apply_candidate(without, m, cand)
        for shape in lists[m].shapes:
            p = pack(applied, {**shapes, m: shape})
            assert ev._extents_of(ev._target(cand), [shape]) == [
                (p.x_max, p.y_max)]


@FAST
@given(st.integers(1, 40), st.data())
def test_min_column_counts_equal_offset_scan(width, data):
    cols = data.draw(st.lists(st.integers(1, width), unique=True))
    split = data.draw(st.integers(0, len(cols)))
    chip = ChipModel(width=width, height=20, bram_cols=frozenset(cols[:split]),
                     dsp_cols=frozenset(cols[split:]),
                     macro_rows_per_col=4, quantum=5)
    for w in range(1, width + 1):
        assert chip.min_column_counts(w) == scan_min_column_counts(chip, w)


def test_min_column_counts_on_builtin_and_loaded_chips(tmp_path):
    path = tmp_path / "chip.txt"
    path.write_text("width 30\nheight 60\nquantum 5\nmacro_rows 24\n"
                    "bram_cols 1,4,12,13,30\ndsp_cols 8,16,17,25\n")
    for chip in (CHIP, load_chip(path)):
        for w in range(1, chip.width + 1):
            assert chip.min_column_counts(w) == scan_min_column_counts(chip, w)
