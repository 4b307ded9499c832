"""Shape reselection as an exact 0/1 program, solved over shape curves.

The partition, configuration order, and sequence-pair relations of a
solution stay fixed; only the per-module shape choice varies.  One-hot
selection rows pick a shape per module, module widths/heights become
linear expressions of the selectors, sequence-pair relations turn into
pairwise coordinate constraints, and the occupied extents are maximized
away from the chip boundary: maximize (Width - Xmax) + (Height - Ymax).
export_lp spells the program out row by row in CPLEX LP text form for
use with external solvers.

The bundled solver does not branch on the selection rows.  Layer and
region blocks are contiguous in ps and qs, so, as pst.pack states, the
module-level longest path equals the block longest path: each layer
packs alone, a region is as wide and as tall as its largest layer, and
the extents are block_offsets over the region boxes.  The objective and
its tie key, the least total shape area, therefore depend on a
selection only through each layer's (width, height, area), and they
never get worse when one of those shrinks.  So the program splits as
shape curves split a slicing floorplan (Otten, DAC 1982; Stockmeyer,
Information and Control 1983):

1. each layer's Pareto points of (width, height, total shape area) over
   its modules' shapes, from a depth-first sweep;
2. each region's points of (box width, box height, least area), merged
   from its layers' points;
3. a depth-first search over the region points that bounds each node
   with block_offsets, the unset regions at their least sizes.

A point is dropped only when one met earlier is no larger in all three
terms, or one met later is no larger in the box and strictly smaller in
area.  A selection using the dropped point can swap in the other one and
keep or improve its key, and a swap to an earlier point makes the
selection lexicographically smaller.  Every sweep visits shapes, layer
points and region points in index order, which nests into the
lexicographic order of the selection in ps order.  So the search returns
the lexicographically first selection of the best key, the one an
exhaustive sweep over itertools.product keeps when it accepts only
strict improvements.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate

from .chip import ChipModel
from .pst import (CostWeights, PST, Solution, block_offsets, block_violations,
                  evaluate)
from .taskgraph import TaskGraph


@dataclass(frozen=True)
class ILPModel:
    """Shape-reselection program for a fixed PST.

    The first six fields determine every row of the program, and
    export_lp derives the LP rows from them.  The bundled solver reads the
    same program through its blocks: layers and region_spans restate the
    pairs for a PST whose layer and region blocks are contiguous.
    """

    modules: tuple  # module ids in ps order; solve relies on it
    shape_dims: dict  # module id -> tuple of (w, h)
    h_pairs: tuple  # (a, b): x_b >= x_a + w_a
    v_pairs: tuple  # (a, b): y_b >= y_a + h_a
    width: int
    height: int
    # per layer block in ps order: (region, first, ranks); the layer holds
    # modules[first:first + len(ranks)], and ranks gives their qs indices
    layers: tuple
    region_spans: tuple  # (ps spans, qs spans) of the region blocks


@dataclass(frozen=True)
class SolveResult:
    status: str  # 'optimal', 'infeasible' or 'timeout'
    selection: dict | None  # module id -> index into its shape list
    objective: float | None
    nodes: int  # layer-sweep, region-merge and region-search nodes visited
    wall_time: float


def sequence_pair_relations(pst: PST):
    """Filtered pairwise relations: (horizontal, vertical) ordered pairs.

    (a, b) is horizontal when a precedes b in both sequences, vertical
    when a follows b in ps but precedes it in qs; pairs of the same
    region in different layers are unconstrained.
    """
    qpos = {m: i for i, m in enumerate(pst.qs)}
    part = pst.partition
    h_pairs = []
    v_pairs = []
    n = len(pst.ps)
    for jx in range(n):
        b = pst.ps[jx]
        for ix in range(jx):
            a = pst.ps[ix]
            if part[a][0] == part[b][0] and part[a] != part[b]:
                continue
            if qpos[a] < qpos[b]:
                h_pairs.append((a, b))
            else:
                v_pairs.append((b, a))
    return h_pairs, v_pairs


def _blocks(pst: PST):
    """(layers, region_spans) of ILPModel; ValueError names the first
    region or layer block that is not contiguous in ps or qs."""
    problems = block_violations(pst)
    if problems:
        raise ValueError(problems[0])
    qpos = {m: i for i, m in enumerate(pst.qs)}
    layers = tuple((k[0], first, tuple(qpos[m] for m in pst.ps[first:last + 1]))
                   for k, (first, last) in pst.layer_spans[0].items())
    return layers, pst.region_spans


def build_model(pst: PST, shape_lists: dict, chip: ChipModel) -> ILPModel:
    """Assemble the reselection program for a fixed PST.

    Every shape must be at least 1 by 1, and the PST's layer and region
    blocks contiguous in ps and qs (see validate): the solver works on the
    blocks.
    """
    modules = tuple(pst.ps)
    dims = {}
    for m in modules:
        sl = shape_lists.get(m)
        if sl is None or not sl.shapes:
            raise ValueError(f"module {m} has no candidate shapes")
        for s in sl.shapes:
            if s.w < 1 or s.h < 1:
                raise ValueError(
                    f"module {m}: shape {s.w}x{s.h} is not at least 1x1")
        dims[m] = tuple((s.w, s.h) for s in sl.shapes)
    h_pairs, v_pairs = sequence_pair_relations(pst)
    return ILPModel(modules, dims, tuple(h_pairs), tuple(v_pairs),
                    chip.width, chip.height, *_blocks(pst))


# ----------------------------------------------------------------------
# bundled exact solver

def _covered(points, w, h, a):
    """Whether a point met earlier is no larger than (w, h, a)."""
    return any(pw <= w and ph <= h and pa <= a for pw, ph, pa, _ in points)


def _add(points, point):
    """Append point, dropping the earlier points it beats: no larger box,
    strictly smaller area."""
    w, h, a, _ = point
    points[:] = [p for p in points if not (w <= p[0] and h <= p[1] and a < p[2])]
    points.append(point)


def _layer_paths(ranks, widths, heights):
    """A layer's longest paths, its modules in ps order with the given
    widths and heights and ranks their order in qs: the path right of
    (xtail) and below (ybelow) each module, and the width (sx) and height
    (sy) of the modules from the t-th on, 0 past the last.  Of two modules,
    the one later in ps is right of the other when it is later in qs too,
    and below it otherwise."""
    k = len(ranks)
    xtail, ybelow = [0] * k, [0] * k
    sx, sy = [0] * (k + 1), [0] * (k + 1)
    for t in reversed(range(k)):
        for u in range(t + 1, k):
            if ranks[u] > ranks[t]:
                xtail[t] = max(xtail[t], widths[u] + xtail[u])
            else:
                ybelow[t] = max(ybelow[t], heights[u] + ybelow[u])
        sx[t] = max(sx[t + 1], widths[t] + xtail[t])
        sy[t] = max(sy[t + 1], heights[t] + ybelow[t])
    return xtail, ybelow, sx, sy


def _through(spans, widths, heights, r):
    """(x, y, cx, cy): the extents of the region blocks at the given sizes,
    and the rest of the longest path through region r in each axis, so
    that r at any width w >= widths[r] gives X = max(x, cx + w), and the
    same holds in y.  widths and heights come back unchanged."""
    _, _, x, y = block_offsets(*spans, widths, heights)
    w, h = widths[r], heights[r]
    widths[r], heights[r] = x + 1, y + 1  # the longest paths run through r
    _, _, through_x, through_y = block_offsets(*spans, widths, heights)
    widths[r], heights[r] = w, h
    return x, y, through_x - x - 1, through_y - y - 1


class _Frontiers:
    """One solve: the seeds, the layer and region points and the search
    over region points; see solve.  A point is (width, height, area,
    shape indices of its modules in ps order)."""

    def __init__(self, model: ILPModel, time_limit):
        self.model, self.spans = model, model.region_spans
        self.width, self.height = model.width, model.height
        self.dims = [model.shape_dims[m] for m in model.modules]
        self.deadline = (None if time_limit is None
                         else time.monotonic() + time_limit)
        self.nodes, self.timed_out, self.best = 0, False, None
        # per layer, _layer_paths at least sizes and the least area from
        # the t-th module on (sa); per region its least [w, h, area]
        self.tables = []
        self.least = {r: [0, 0, 0] for r in self.spans[0]}
        for r, first, ranks in model.layers:
            dims = self.dims[first:first + len(ranks)]
            paths = _layer_paths(ranks, [min(w for w, _ in d) for d in dims],
                                 [min(h for _, h in d) for d in dims])
            sa = list(accumulate(reversed([min(w * h for w, h in d)
                                           for d in dims]), initial=0))[::-1]
            self.tables.append((*paths, sa))
            least = self.least[r]
            least[:] = (max(least[0], paths[2][0]), max(least[1], paths[3][0]),
                        least[2] + sa[0])
        self.total_area = sum(s[2] for s in self.least.values())
        widths, heights = ({r: s[i] for r, s in self.least.items()}
                           for i in (0, 1))
        # extents at least sizes, and _through's rest of each region's path
        self.cx, self.cy = {}, {}
        for r in self.least:
            self.x_lb, self.y_lb, self.cx[r], self.cy[r] = _through(
                self.spans, widths, heights, r)

    def _tick(self) -> bool:
        """Count a node; False, and timed out, once the deadline passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
            return False
        self.nodes += 1
        return True

    def _fits(self, r, w, h, a) -> bool:
        """Whether region r at least w by h, with area at least a, can
        still reach the floor key, every other region at its least size."""
        least = self.least[r]
        x = max(self.x_lb, self.cx[r] + max(w, least[0]))
        y = max(self.y_lb, self.cy[r] + max(h, least[1]))
        return (x <= self.width and y <= self.height
                and (x + y, a + self.total_area - least[2]) <= self.budget)

    def _seed(self, choice):
        """The key of a full selection, or None when it leaves the chip."""
        widths = dict.fromkeys(self.least, 0)
        heights = dict(widths)
        for r, first, ranks in self.model.layers:
            *_, sx, sy = _layer_paths(ranks, *zip(*(
                self.dims[i][choice[i]] for i in range(first, first + len(ranks)))))
            widths[r], heights[r] = max(widths[r], sx[0]), max(heights[r], sy[0])
        _, _, x, y = block_offsets(*self.spans, widths, heights)
        if x <= self.width and y <= self.height:
            return (self.width + self.height - x - y,
                    -sum(d[j][0] * d[j][1] for d, j in zip(self.dims, choice)))
        return None

    def _layer_points(self, index):
        """The index-th layer's points, in the order the sweep meets them.

        Modules are placed in ps order: the next one sits right of the
        placed ones of lower qs rank and below those of higher rank, so
        its x and its top path (height plus the longest path above it) are
        final at once, and the placed modules' paths plus the least paths
        after them bound the layer's size."""
        r, first, ranks = self.model.layers[index]
        xtail, ybelow, sx, sy, sa = self.tables[index]
        rest = self.least[r][2] - sa[0]
        points, choice = [], [0] * len(ranks)
        ends, tops = [0] * len(ranks), [0] * len(ranks)  # right end, top path

        def visit(t, run_x, run_y, area):
            if not self._tick():
                return
            if t == len(ranks):
                _add(points, (run_x, run_y, area, tuple(choice)))
                return
            q = ranks[t]
            x = max([ends[u] for u in range(t) if ranks[u] < q], default=0)
            y = max([tops[u] for u in range(t) if ranks[u] > q], default=0)
            for j, (sw, sh) in enumerate(self.dims[first + t]):
                # the child's bounds; at a leaf they are its exact size
                cw = max(run_x, x + sw + xtail[t])
                ch = max(run_y, y + sh + ybelow[t])
                ca = area + sw * sh
                w, h, a = max(cw, sx[t + 1]), max(ch, sy[t + 1]), ca + sa[t + 1]
                if self._fits(r, w, h, a + rest) and not _covered(points, w, h, a):
                    choice[t], ends[t], tops[t] = j, x + sw, y + sh
                    visit(t + 1, cw, ch, ca)
                    if self.timed_out:
                        return

        visit(0, 0, 0, 0)
        return points

    def _region_points(self, r):
        """Region r's points: its layers' points merged one layer at a
        time, in ps order of the layers.  Each merge pairs every merged
        point with every point of the layer, in the order of their
        selections, and filters the pairs like a sweep's leaves."""
        merged, rest = [(0, 0, 0, ())], self.least[r][2]
        for i, (layer_region, _, _) in enumerate(self.model.layers):
            if layer_region != r or not merged:
                continue
            points, out = self._layer_points(i), []
            rest -= self.tables[i][4][0]  # the layer's least area (sa[0])
            for mw, mh, ma, pick in merged:
                if self.timed_out or not self._tick():
                    return []
                for pw, ph, pa, more in points:
                    w, h, a = max(mw, pw), max(mh, ph), ma + pa
                    if self._fits(r, w, h, a + rest) and not _covered(
                            out, w, h, a):
                        _add(out, (w, h, a, pick + more))
            merged = out
        return merged

    def _search(self, points):
        """Depth-first search over the region points, regions in ps order;
        keeps the first selection of the best key that reaches the floor.

        A node, with its bound key, fixes the regions before the d-th, and
        the rest wait at their least sizes; _through gives each point's
        extents in O(1), so a child is visited only when its bound passes.
        A full selection's bound is its key.
        """
        order = list(points)
        widths, heights = ({r: s[i] for r, s in self.least.items()}
                           for i in (0, 1))
        total, picks = self.width + self.height, []

        def visit(d, key):
            if not self._tick():
                return
            if d == len(order):
                self.best = key, sum(picks, ())
                return
            r = order[d]
            x, y, cx, cy = _through(self.spans, widths, heights, r)
            for w, h, a, pick in points[r]:
                xc, yc = max(x, cx + w), max(y, cy + h)
                child = total - xc - yc, key[1] + self.least[r][2] - a
                if xc <= self.width and yc <= self.height and (
                        child >= self.floor if self.best is None
                        else child > self.best[0]):
                    widths[r], heights[r] = w, h
                    picks.append(pick)
                    visit(d + 1, child)
                    picks.pop()
                    if self.timed_out:
                        break
            widths[r], heights[r] = self.least[r][0], self.least[r][1]

        _, _, x, y = block_offsets(*self.spans, widths, heights)
        visit(0, (total - x - y, -sum(self.least[r][2] for r in order)))

    def run(self) -> SolveResult:
        """Seed the floor, build the points, search, and report; see solve."""
        start = time.monotonic()
        seeds = [tuple(min(range(len(d)), key=lambda j: (cost(*d[j]), j))
                       for d in self.dims)
                 for cost in (lambda w, h: w * h,
                              lambda w, h: w / self.width + h / self.height)]
        incumbent = max(((key, c) for c in seeds if (key := self._seed(c))),
                        key=lambda seed: seed[0], default=None)
        self.floor = incumbent[0] if incumbent else (-math.inf, 0)
        self.budget = (self.width + self.height - self.floor[0], -self.floor[1])
        points = {}
        for r in self.least:
            points[r] = self._region_points(r)
            if not points[r]:
                break
            # the search's least sizes; the other regions' sweeps read
            # only their own entries
            self.least[r] = [min(p[i] for p in points[r]) for i in range(3)]
        else:
            self._search(points)
        if self.timed_out:
            status, self.best = "timeout", self.best or incumbent
        else:
            status = "optimal" if self.best else "infeasible"
        key, choice = self.best or (None, None)
        return SolveResult(status, key and dict(zip(self.model.modules, choice)),
                           key and float(key[0]), self.nodes,
                           time.monotonic() - start)


def solve(model: ILPModel, time_limit: float | None = None) -> SolveResult:
    """Exact optimum of the reselection program, or timeout incumbent.

    Scores two greedy selections first (all minimum-area shapes; per-module
    least normalized half-perimeter); the better one's key is the floor
    that every sweep prunes against, and the incumbent a timeout returns
    when the search has not reached the floor yet.  Then it builds each
    layer's and each region's points and searches the region points, as
    the module docstring sets out.  Each step bounds its nodes with the
    same block longest path: the chip caps, and the budget X + Y <=
    W + H - floor objective, with every region not yet fixed at its least
    size.  The result is the best (objective, -total area) and, among
    selections that reach it, the lexicographically first in model order;
    every incumbent fits the chip.  Deterministic for a fixed model.
    time_limit is in seconds; None or inf sets no limit.  The deadline is
    checked at every node, after the seeds.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError("time_limit must be >= 0")
    return _Frontiers(model, time_limit).run()


# ----------------------------------------------------------------------
# LP export

def _expr(coeffs) -> str:
    parts = []
    for var, c in coeffs:
        if c < 0:
            parts.append(f"- {str(-c) + ' ' if c != -1 else ''}{var}")
        else:
            parts.append(f"+ {str(c) + ' ' if c != 1 else ''}{var}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: ILPModel) -> str:
    """CPLEX LP text of the model; byte-stable for a fixed input.

    The i-th module in model order gets selectors ms_i_j (one per shape),
    its dimensions w_i and h_i, and its corner x_i and y_i; Xmax and Ymax
    are the occupied extents.
    """
    index = {m: i + 1 for i, m in enumerate(model.modules)}
    lines = ["\\ shape reselection model", "Maximize",
             f" obj: - Xmax - Ymax + {model.width + model.height}",
             "Subject To"]

    def row(name, coeffs, sense, rhs):
        lines.append(f" {name}: {_expr(coeffs)} {sense} {rhs}")

    binaries = []
    for m in model.modules:
        i = index[m]
        sel = [f"ms_{i}_{j + 1}" for j in range(len(model.shape_dims[m]))]
        binaries += sel
        dims = model.shape_dims[m]
        row(f"onehot_{i}", [(v, 1) for v in sel], "=", 1)
        row(f"wdef_{i}", [(f"w_{i}", 1)]
            + [(v, -w) for v, (w, _) in zip(sel, dims)], "=", 0)
        row(f"hdef_{i}", [(f"h_{i}", 1)]
            + [(v, -h) for v, (_, h) in zip(sel, dims)], "=", 0)
    for kind, pairs, pos, size in (("hpos", model.h_pairs, "x", "w"),
                                   ("vpos", model.v_pairs, "y", "h")):
        for a, b in pairs:
            ia, ib = index[a], index[b]
            row(f"{kind}_{ia}_{ib}", [(f"{pos}_{ib}", 1), (f"{pos}_{ia}", -1),
                                      (f"{size}_{ia}", -1)], ">=", 0)
    for i in index.values():
        row(f"xext_{i}", [("Xmax", 1), (f"x_{i}", -1), (f"w_{i}", -1)],
            ">=", 0)
        row(f"yext_{i}", [("Ymax", 1), (f"y_{i}", -1), (f"h_{i}", -1)],
            ">=", 0)
    row("bound_x", [("Xmax", 1)], "<=", model.width)
    row("bound_y", [("Ymax", 1)], "<=", model.height)
    lines += ["Bounds", "Binary", " " + " ".join(binaries), "End"]
    return "\n".join(lines) + "\n"


def apply(pst: PST, selection: dict, shape_lists: dict,
          g: TaskGraph, chip: ChipModel, weights: CostWeights) -> Solution:
    """Re-pack, re-schedule, and re-cost under the selected shapes.

    selection maps each module id to an index into its shape list.
    The PST is untouched; only shapes change.  Every selection solve()
    returns must re-pack inside the boundary (the pairwise constraints
    dominate the longest-path recurrence), so a violation here is a solver
    bug.
    """
    shapes = {m: shape_lists[m].shapes[j] for m, j in selection.items()}
    sol = evaluate(pst, shapes, g, chip, weights)
    if not sol.feasible:
        raise RuntimeError(
            "internal solver error: selection re-packs outside the chip "
            f"({sol.placement.x_max}x{sol.placement.y_max})")
    return sol
