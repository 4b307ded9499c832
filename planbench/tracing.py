"""Per-layer call counts and self times, recorded from outside the planner.

A traced round replaces each layer's public functions with wrappers under
the names their callers look up (``pdrplan.explore.pack`` as well as
``pdrplan.pst.pack``, ``RoughEvaluator.evaluate``, ``cli.solve`` ...).  A
wrapper adds its call's duration to the layer's inclusive time and, minus
the time spent in wrapped children, to its self time.  Everything stays in
memory until the round ends; uninstall puts the original functions back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    items: int = 0  # layer-specific work count, see WRAPS
    rank_sum: int = 0  # explore.accurate: sum of 1-based winner ranks
    ranked: int = 0  # explore.accurate: calls with more than one candidate


def _len(stats, args, result):
    stats.items += len(result)


def _shape_count(stats, args, result):
    stats.items += sum(len(sl.shapes) for sl in result.values())


def _nodes(stats, args, result):
    stats.items += result.nodes


def _bytes(stats, args, result):
    stats.items += len(result.encode())


def _winner_rank(stats, args, result):
    cands = args[2]
    if len(cands) > 1:
        stats.ranked += 1
        stats.rank_sum += 1 + next(i for i, c in enumerate(cands)
                                   if c is result[3])


# (module, attribute, layer, counter).  Attributes are looked up on the
# module (or class) that calls them, so every alias of a function is listed.
WRAPS = (
    ("cli", "load_graph", "taskgraph.load", None),
    ("cli", "run_pipeline", "report.pipeline", None),
    ("report", "run_pipeline", "report.pipeline", None),
    ("report", "compute_rrt", "report.rrt", None),
    ("cli", "compute_rrt", "report.rrt", None),
    ("report", "generate_all", "shapes.generate", _shape_count),
    ("cli", "anneal", "explore.anneal", None),
    ("report", "anneal", "explore.anneal", None),
    ("explore", "enumerate_insertions", "explore.enumerate", _len),
    ("explore.RoughEvaluator", "__init__", "explore.rough_setup", None),
    ("explore.RoughEvaluator", "evaluate", "explore.rough", None),
    ("explore", "accurate_evaluate", "explore.accurate", _winner_rank),
    ("explore", "pack", "pst.pack", None),
    ("pst", "pack", "pst.pack", None),
    ("explore", "schedule", "pst.schedule", None),
    ("pst", "schedule", "pst.schedule", None),
    ("pst", "cost_from_parts", "pst.cost", None),
    ("cli", "load_solution", "solio.load", None),
    ("cli", "write_solution", "solio.write", _bytes),
    ("report", "write_solution", "solio.write", _bytes),
    ("cli", "build_model", "ilp.build", None),
    ("report", "build_model", "ilp.build", None),
    ("cli", "export_lp", "ilp.export_lp", _bytes),
    ("cli", "solve", "ilp.solve", _nodes),
    ("report", "solve", "ilp.solve", _nodes),
    ("cli", "ilp_apply", "ilp.apply", None),
    ("report", "ilp_apply", "ilp.apply", None),
)


class Tracer:
    """Wraps the planner's layer boundaries and aggregates their spans."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name ('cli', 'pst', ...) -> module
        self.stats: dict = {}
        self._open: list = []  # child time of each active span
        self._saved: list = []

    def _target(self, path: str):
        mod, _, cls = path.partition(".")
        obj = self.modules[mod]
        return getattr(obj, cls) if cls else obj

    def _wrap(self, fn, stats: LayerStats, count):
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stats.calls += 1
                stats.total_s += took
                stats.self_s += took - open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
            if count is not None:
                count(stats, args, result)
            return result

        return wrapper

    def install(self):
        """Start a fresh set of statistics and wrap every layer boundary."""
        self.stats = {}
        for path, attr, layer, count in WRAPS:
            target = self._target(path)
            original = getattr(target, attr)
            stats = self.stats.setdefault(layer, LayerStats())
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, stats, count))

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def span(self, layer: str, fn, *args):
        """Run fn as a root span (the benchmark's own call) under layer."""
        stats = self.stats.setdefault(layer, LayerStats())
        return self._wrap(fn, stats, None)(*args)


def layer_metrics(stats: dict) -> dict:
    """The per-layer metrics of one traced round."""
    def get(layer):
        return stats.get(layer, LayerStats())

    moves = get("explore.enumerate").calls
    accurate = get("explore.accurate")
    pack = get("pst.pack")
    solve = get("ilp.solve")
    return {
        "explore.rough_s": get("explore.rough").self_s
        + get("explore.rough_setup").self_s,
        "explore.rough_calls": get("explore.rough").calls,
        "explore.moves": moves,
        "explore.ms_per_move": (1e3 * get("explore.anneal").total_s / moves
                                if moves else 0.0),
        "explore.accurate_s": accurate.self_s,
        "explore.anneal_s": get("explore.anneal").self_s,
        "explore.enumerate_s": get("explore.enumerate").self_s,
        "explore.candidates": get("explore.enumerate").items,
        "explore.candidates_scored": get("explore.rough").calls,
        "explore.winner_rank": (accurate.rank_sum / accurate.ranked
                                if accurate.ranked else 0.0),
        "pst.pack_s": pack.self_s,
        "pst.pack_calls": pack.calls,
        "pst.pack_us": 1e6 * pack.self_s / pack.calls if pack.calls else 0.0,
        "pst.schedule_s": get("pst.schedule").self_s,
        "pst.schedule_calls": get("pst.schedule").calls,
        "pst.cost_s": get("pst.cost").self_s,
        "shapes.generate_s": get("shapes.generate").self_s,
        "shapes.candidates": get("shapes.generate").items,
        "ilp.solve_s": solve.self_s,
        "ilp.bb_nodes": solve.items,
        "ilp.nodes_per_s": solve.items / solve.self_s if solve.self_s else 0.0,
        "ilp.build_s": get("ilp.build").self_s,
        "ilp.export_lp_s": get("ilp.export_lp").self_s,
        "ilp.lp_bytes": get("ilp.export_lp").items,
        "ilp.apply_s": get("ilp.apply").self_s,
        "solio.load_s": get("solio.load").self_s,
        "solio.write_s": get("solio.write").self_s,
        "solio.bytes_written": get("solio.write").items,
        "report.pipeline_s": get("report.pipeline").self_s,
        "report.rrt_s": get("report.rrt").self_s,
        "taskgraph.load_s": get("taskgraph.load").self_s,
    }
