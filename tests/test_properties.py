"""Property tests: the graph and solution text formats round-trip."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_graph, random_pst
from pdrplan.chip import ResourceVector, builtin_xc7vx485t
from pdrplan.pst import CostWeights, evaluate
from pdrplan.shapes import Shape
from pdrplan.solio import parse_solution, write_solution
from pdrplan.taskgraph import Edge, TaskGraph, TaskModule, parse_graph

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
