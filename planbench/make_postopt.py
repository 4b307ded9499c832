"""Remake the post-optimisation inputs in planbench/postopt/.

    python3 planbench/make_postopt.py

Run from the repository root.  For each t10 to t50 family it tries graph
seeds 0, 1, ... (graphs from inputs.make_graph), anneals each with a short
pinned schedule, and keeps the first plan that has at least two regions and
three time layers.  Its shapes are then replaced by each module's tallest
candidate (or, if that still fits, its widest), so the recorded solution
overflows the chip while the annealed shapes prove a repair exists.  An
instance is kept only if the bundled branch and bound reaches "optimal"
within SOLVE_CAP seconds (the postopt time limit is 60 s), HiGHS finds the
same optimum on the exported LP, and `pdrplan postopt` passes every check
the benchmark makes.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from checks import check_highs
from inputs import make_graph, write_graph
from run import POSTOPT_INPUTS, _fresh_dir, import_planner, postopt

FAMILIES = ("t10-1", "t10-2", "t10-3", "t30-1", "t30-2", "t30-3",
            "t50-1", "t50-2", "t50-3")
MAX_SEEDS = 8
SOLVE_CAP = 2.0


def candidate(mods, family: str, seed: int, work: Path):
    """(graph, solution text) of one overflowing instance, or a reason."""
    pdr = mods["pdrplan"]
    chip = pdr.builtin_xc7vx485t()
    graph = make_graph(family, seed)
    g = pdr.load_graph(write_graph(graph, work / "g.graph"))
    g, lists = pdr.prepare_instance(g, chip, pdr.ShapeGenConfig(), 0.001)
    weights = pdr.CostWeights().resolve(g, chip)
    sol, _ = pdr.anneal(g, lists, chip, pdr.SAConfig(
        seed=seed, iterations_per_temperature=10))
    regions = len(sol.placement.region_boxes)
    if not sol.feasible or regions < 2 or len(sol.pst.rs) < 3:
        return f"{regions} regions, {len(sol.pst.rs)} layers"
    for pick in (lambda s: (s.h, s.w), lambda s: (s.w, s.h)):
        shapes = {m: max(lists[m].shapes, key=pick) for m in g.module_ids}
        bad = pdr.evaluate(sol.pst, shapes, g, chip, weights)
        if not bad.feasible:
            break
    else:
        return "no overflowing shape choice"
    res = pdr.solve(pdr.build_model(sol.pst, lists, chip), SOLVE_CAP)
    if res.status != "optimal":
        return f"branch and bound {res.status} in {res.wall_time:.2f}s"
    return graph, pdr.write_solution(bad), res


def vet(mods, graph, sol_text: str, work: Path) -> list:
    """Every benchmark check on `pdrplan postopt` for this instance."""
    inputs = work / "inputs"
    _fresh_dir(inputs)
    write_graph(graph, inputs / "v.graph")
    (inputs / "v.solution").write_text(sol_text, encoding="utf-8")
    [op] = postopt(mods, work, inputs)
    op.prepare()
    outcome = op.check(op.call())
    if outcome.highs is None:
        return outcome.problems
    return outcome.problems + check_highs(*outcome.highs)


def main() -> int:
    mods = import_planner()
    POSTOPT_INPUTS.mkdir(exist_ok=True)
    for old in POSTOPT_INPUTS.glob("*"):
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for family in FAMILIES:
            for seed in range(MAX_SEEDS):
                started = time.perf_counter()
                got = candidate(mods, family, seed, work)
                took = time.perf_counter() - started
                if isinstance(got, str):
                    print(f"{family} seed {seed}: skip ({got}), {took:.1f}s")
                    continue
                graph, sol_text, res = got
                problems = vet(mods, graph, sol_text, work)
                if problems:
                    print(f"{family} seed {seed}: skip ({problems[0]})")
                    continue
                name = f"{family}-s{seed}"
                write_graph(graph, POSTOPT_INPUTS / f"{name}.graph")
                (POSTOPT_INPUTS / f"{name}.solution").write_text(
                    sol_text, encoding="utf-8")
                print(f"{family} seed {seed}: kept, objective {res.objective}, "
                      f"{res.nodes} nodes in {res.wall_time:.3f}s")
                break
            else:
                print(f"{family}: no instance kept", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
