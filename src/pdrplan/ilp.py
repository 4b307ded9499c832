"""Shape reselection as an exact 0/1 program, solved by branch and bound.

The partition, configuration order, and sequence-pair relations of a
solution stay fixed; only the per-module shape choice varies.  One-hot
selection rows pick a shape per module, module widths/heights become
linear expressions of the selectors, sequence-pair relations turn into
pairwise coordinate constraints, and the occupied extents are maximized
away from the chip boundary: maximize (Width - Xmax) + (Height - Ymax).

The model is kept in structured form only: shape dimensions per module
plus the sequence-pair relations (Murata et al., IEEE TCAD 1996).  The
bundled solver branches on the selection rows and bounds extents via
longest paths over per-module minimum remaining widths/heights, which
never overestimate any completion.  At each node it also drops, for the
bound only, every shape whose longest path (head + size + tail) breaks
the extent budget that beating the incumbent leaves, repeating until no
shape goes; a node is pruned when a module loses all its shapes or the
bound over the survivors cannot beat the incumbent's (objective, -area).
export_lp spells the same model out row by row in CPLEX LP text form for
use with external solvers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .chip import ChipModel
from .pst import CostWeights, PST, Solution, evaluate
from .taskgraph import TaskGraph


@dataclass(frozen=True)
class ILPModel:
    """Shape-reselection program for a fixed PST.

    These fields determine every row of the program: the bundled solver
    reads them directly and export_lp derives the LP rows from them.
    """

    modules: tuple  # module ids in ps order; solve relies on it
    shape_dims: dict  # module id -> tuple of (w, h)
    h_pairs: tuple  # (a, b): x_b >= x_a + w_a
    v_pairs: tuple  # (a, b): y_b >= y_a + h_a
    width: int
    height: int


@dataclass(frozen=True)
class SolveResult:
    status: str  # 'optimal', 'infeasible' or 'timeout'
    selection: dict | None  # module id -> index into its shape list
    objective: float | None
    nodes: int
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


def build_model(pst: PST, shape_lists: dict, chip: ChipModel) -> ILPModel:
    """Assemble the reselection program for a fixed PST."""
    modules = tuple(pst.ps)
    dims = {}
    for m in modules:
        sl = shape_lists.get(m)
        if sl is None or not sl.shapes:
            raise ValueError(f"module {m} has no candidate shapes")
        dims[m] = tuple((s.w, s.h) for s in sl.shapes)
    h_pairs, v_pairs = sequence_pair_relations(pst)
    return ILPModel(
        modules=modules,
        shape_dims=dims,
        h_pairs=tuple(h_pairs),
        v_pairs=tuple(v_pairs),
        width=chip.width,
        height=chip.height,
    )


# ----------------------------------------------------------------------
# bundled exact solver

class _Search:
    def __init__(self, model: ILPModel, time_limit):
        self.model = model
        self.modules = model.modules
        self.n = len(self.modules)
        self.idx = {m: i for i, m in enumerate(self.modules)}
        self.dims = [model.shape_dims[m] for m in self.modules]
        self.h_preds = [[] for _ in range(self.n)]
        self.v_preds = [[] for _ in range(self.n)]
        self.h_succs = [[] for _ in range(self.n)]
        self.v_succs = [[] for _ in range(self.n)]
        for pairs, preds, succs in ((model.h_pairs, self.h_preds, self.h_succs),
                                    (model.v_pairs, self.v_preds, self.v_succs)):
            for a, b in pairs:
                preds[self.idx[b]].append(self.idx[a])
                succs[self.idx[a]].append(self.idx[b])
        # Longest paths are evaluated in dependency order.  Model order is
        # ps order: in a horizontal pair (a, b), a comes first in ps; in a
        # vertical one the lower module a comes later (Murata et al.).  So
        # model order suits the horizontal relations, its reverse the
        # vertical ones.
        self.h_order = list(range(self.n))
        self.v_order = self.h_order[::-1]
        self.deadline = (time.monotonic() + time_limit
                         if time_limit is not None else None)
        self.nodes = 0
        self.best_key = None  # (objective, -total area), maximized
        self.best_choice = None
        self.timed_out = False

    def _extent(self, order, preds, size):
        """Longest-path extent plus a module on the critical path."""
        pos = [0] * self.n
        for i in order:
            best = 0
            for p in preds[i]:
                v = pos[p] + size[p]
                if v > best:
                    best = v
            pos[i] = best
        ext = 0
        arg = -1
        for i in range(self.n):
            v = pos[i] + size[i]
            if v > ext:
                ext = v
                arg = i
        return ext, arg, pos

    def _critical_modules(self, arg, preds, pos, size):
        path = []
        cur = arg
        while True:
            path.append(cur)
            if pos[cur] == 0:
                return path
            for p in preds[cur]:
                if pos[p] + size[p] == pos[cur]:
                    cur = p
                    break

    def _bound(self, allowed):
        wmin = [min(self.dims[i][j][0] for j in allowed[i]) for i in range(self.n)]
        hmin = [min(self.dims[i][j][1] for j in allowed[i]) for i in range(self.n)]
        xext, xarg, xpos = self._extent(self.h_order, self.h_preds, wmin)
        yext, yarg, ypos = self._extent(self.v_order, self.v_preds, hmin)
        return xext, yext, (xarg, xpos, wmin), (yarg, ypos, hmin)

    def _tails(self, order, succs, size):
        """Longest path from each module's far edge to the extent."""
        tail = [0] * self.n
        for i in reversed(order):
            best = 0
            for s in succs[i]:
                v = size[s] + tail[s]
                if v > best:
                    best = v
            tail[i] = best
        return tail

    def _area_lb(self, allowed):
        return sum(min(w * h for w, h in (self.dims[i][j] for j in allowed[i]))
                   for i in range(self.n))

    def _can_improve(self, allowed, xext, yext, xinfo, yinfo):
        """Whether some completion of allowed may beat the incumbent.

        A completion beating an incumbent of objective obj has
        X + Y <= S = W + H - obj, so X <= min(W, S - Y_lb) and
        Y <= min(H, S - X_lb); with no incumbent only the chip caps
        apply.  A shape of module i survives if the longest path through
        it (head + size + tail under per-module minima) fits both caps.
        Filtering repeats with the surviving shapes' minima until nothing
        more goes; then (ub, -area lb) over the survivors must beat the
        incumbent's key.  The survivors feed only this bound: branching
        still runs over allowed, so leaves are met in the same order.
        """
        width, height = self.model.width, self.model.height
        dims = self.dims
        best = self.best_key
        budget = None if best is None else width + height - best[0]
        _, xpos, wmin = xinfo
        _, ypos, hmin = yinfo
        shapes = allowed
        while True:
            if xext > width or yext > height:
                return False
            xcap, ycap = width, height
            if budget is not None:
                if xext + yext > budget:
                    return False
                xcap = min(width, budget - yext)
                ycap = min(height, budget - xext)
            xtail = self._tails(self.h_order, self.h_succs, wmin)
            ytail = self._tails(self.v_order, self.v_succs, hmin)
            kept_all = []
            changed = False
            for i in range(self.n):
                wcap = xcap - xpos[i] - xtail[i]
                hcap = ycap - ypos[i] - ytail[i]
                d = dims[i]
                kept = [j for j in shapes[i]
                        if d[j][0] <= wcap and d[j][1] <= hcap]
                if not kept:
                    return False
                if len(kept) < len(shapes[i]):
                    changed = True
                kept_all.append(kept)
            shapes = kept_all
            if not changed:
                break
            wmin = [min(dims[i][j][0] for j in shapes[i]) for i in range(self.n)]
            hmin = [min(dims[i][j][1] for j in shapes[i]) for i in range(self.n)]
            xext, _, xpos = self._extent(self.h_order, self.h_preds, wmin)
            yext, _, ypos = self._extent(self.v_order, self.v_preds, hmin)
        if best is None:
            return True
        ub = (width - xext) + (height - yext)
        return (ub, -self._area_lb(shapes)) > best

    def try_assignment(self, choice):
        """Evaluate a full assignment; update the incumbent if feasible."""
        w = [self.dims[i][choice[i]][0] for i in range(self.n)]
        h = [self.dims[i][choice[i]][1] for i in range(self.n)]
        xext, _, _ = self._extent(self.h_order, self.h_preds, w)
        yext, _, _ = self._extent(self.v_order, self.v_preds, h)
        if xext > self.model.width or yext > self.model.height:
            return
        obj = (self.model.width - xext) + (self.model.height - yext)
        area = sum(wi * hi for wi, hi in zip(w, h))
        key = (obj, -area)
        if self.best_key is None or key > self.best_key:
            self.best_key = key
            self.best_choice = list(choice)

    def run(self) -> SolveResult:
        """Seed the incumbent, search, and report; see solve."""
        start = time.monotonic()
        dims = self.dims
        width, height = self.model.width, self.model.height
        if self.n:
            min_area = [min(range(len(dims[i])),
                            key=lambda j: (dims[i][j][0] * dims[i][j][1], j))
                        for i in range(self.n)]
            self.try_assignment(min_area)
            balanced = [min(range(len(dims[i])),
                            key=lambda j: (dims[i][j][0] / width
                                           + dims[i][j][1] / height, j))
                        for i in range(self.n)]
            self.try_assignment(balanced)
        self.dfs([list(range(len(dims[i]))) for i in range(self.n)])
        wall = time.monotonic() - start
        if self.timed_out:
            status = "timeout"
        elif self.best_key is None:
            status = "infeasible"
        else:
            status = "optimal"
        selection = None
        objective = None
        if self.best_choice is not None:
            selection = {m: self.best_choice[i]
                         for i, m in enumerate(self.modules)}
            objective = float(self.best_key[0])
        return SolveResult(status=status, selection=selection,
                           objective=objective, nodes=self.nodes,
                           wall_time=wall)

    def dfs(self, allowed):
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
            return
        self.nodes += 1
        xext, yext, xinfo, yinfo = self._bound(allowed)
        if not self._can_improve(allowed, xext, yext, xinfo, yinfo):
            return
        if all(len(a) == 1 for a in allowed):
            self.try_assignment([a[0] for a in allowed])
            return
        branch = self._pick_branch(allowed, xext, yext, xinfo, yinfo)
        x_binding = xext / self.model.width >= yext / self.model.height
        dim = 0 if x_binding else 1
        shape_order = sorted(allowed[branch],
                             key=lambda j: (self.dims[branch][j][dim],
                                            self.dims[branch][j][1 - dim]))
        for j in shape_order:
            saved = allowed[branch]
            allowed[branch] = [j]
            self.dfs(allowed)
            allowed[branch] = saved
            if self.timed_out:
                return

    def _pick_branch(self, allowed, xext, yext, xinfo, yinfo):
        """Prefer undecided modules on the binding critical path."""
        x_binding = xext / self.model.width >= yext / self.model.height
        infos = (xinfo, yinfo) if x_binding else (yinfo, xinfo)
        preds = ((self.h_preds, self.v_preds) if x_binding
                 else (self.v_preds, self.h_preds))
        for (arg, pos, size), pred in zip(infos, preds):
            if arg < 0:
                continue
            for i in self._critical_modules(arg, pred, pos, size):
                if len(allowed[i]) > 1:
                    return i
        for i in range(self.n):
            if len(allowed[i]) > 1:
                return i
        raise AssertionError("no branchable module at an interior node")


def solve(model: ILPModel, time_limit: float | None = None) -> SolveResult:
    """Exact optimum of the reselection program, or timeout incumbent.

    Seeds the incumbent with two greedy assignments (all minimum-area
    shapes; per-module least normalized half-perimeter), then runs
    depth-first branch and bound.  A node is pruned unless some
    completion can still beat the incumbent's (objective, -total area):
    each module's shapes are filtered against the extent budget the
    incumbent leaves, and the bound is taken over the survivors.  Ties in
    that key go to the first assignment met.  Deterministic for a fixed
    model.
    """
    return _Search(model, time_limit).run()


# ----------------------------------------------------------------------
# LP export

def _fmt(v) -> str:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    return str(v)


def _expr(coeffs) -> str:
    parts = []
    for var, c in coeffs:
        if c < 0:
            parts.append(f"- {_fmt(-c) + ' ' if c != -1 else ''}{var}")
        else:
            parts.append(f"+ {_fmt(c) + ' ' if c != 1 else ''}{var}")
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
             f" obj: - Xmax - Ymax + {_fmt(model.width + model.height)}",
             "Subject To"]

    def row(name, coeffs, sense, rhs):
        lines.append(f" {name}: {_expr(coeffs)} {sense} {_fmt(rhs)}")

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
    The PST is untouched; only shapes change.  A solve() optimum must
    re-pack inside the boundary (the pairwise constraints dominate the
    longest-path recurrence), so a violation here is a solver bug.
    """
    shapes = {m: shape_lists[m].shapes[j] for m, j in selection.items()}
    sol = evaluate(pst, shapes, g, chip, weights)
    if not sol.feasible:
        raise RuntimeError(
            "internal solver error: optimal selection re-packs outside the chip "
            f"({sol.placement.x_max}x{sol.placement.y_max})")
    return sol
