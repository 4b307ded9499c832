"""Shape reselection as an exact 0/1 program, solved by branch and bound.

The partition, configuration order, and sequence-pair relations of a
solution stay fixed; only the per-module shape choice varies.  One-hot
selection rows pick a shape per module, module widths/heights become
linear expressions of the selectors, sequence-pair relations turn into
pairwise coordinate constraints, and the occupied extents are maximized
away from the chip boundary: maximize (Width - Xmax) + (Height - Ymax).

The model is kept in structured form only: shape dimensions per module
plus the sequence-pair relations (Murata et al., IEEE TCAD 1996).  The
bundled solver branches on the selection rows.  One longest-path routine
serves it: over predecessor lists in dependency order it gives each
module's head, over successor lists in the reverse order its tail.  The
lists hold the transitive reduction of the relations (Aho, Garey and
Ullman, SIAM J. Comput. 1972): every shape is at least 1 by 1, so an edge
that two others imply has slack of at least the middle module's size and
sets no head, tail or critical path.  With every module at its least
remaining width and height, the heads give extents no completion
undercuts; a node hands these minima to its children, which change only
the branched module's entry.  Shapes whose longest path (head + size
+ tail) breaks the extent budget that beating the incumbent leaves are
dropped for the bound only, until none goes.  The one bound, (objective
upper bound, -least total area) over the survivors, prunes a node unless
it beats the incumbent's key; on a full assignment it is the assignment's
own key, so seeds and leaves are judged by the same call.  export_lp
spells the same model out row by row in CPLEX LP text form for use with
external solvers.
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
    """Assemble the reselection program for a fixed PST.

    Every shape must be at least 1 by 1: the solver's longest paths rely
    on it (see _Search.__init__).
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
        self.modules = model.modules
        self.width, self.height = model.width, model.height
        self.n = len(self.modules)
        idx = {m: i for i, m in enumerate(self.modules)}
        self.dims = [model.shape_dims[m] for m in self.modules]
        self.h_preds, self.h_succs = self._reduced(model.h_pairs, idx)
        self.v_preds, self.v_succs = self._reduced(model.v_pairs, idx)
        # The lists drop each edge p -> i that edges p -> q -> i imply.
        # build_model keeps every size >= 1, so head[i] >= head[p] +
        # size[p] + size[q] over the kept edges: a dropped edge never sets
        # a head or a tail, and is never the first tight predecessor that
        # _critical_modules and _pick_branch follow.  The kept edges stay
        # in pairs order, so nodes, branching and results are those of the
        # full relations.  The per-module minima are inherited the same
        # exact way, least areas too: a child narrows only the branched
        # module to one shape, and _can_improve's filter recomputes only
        # the modules it took shapes from, so each entry is the least size
        # over that module's remaining shapes.
        # Longest paths are evaluated in dependency order.  Model order is
        # ps order: in a horizontal pair (a, b), a comes first in ps; in a
        # vertical one the lower module a comes later (Murata et al.).  So
        # model order suits the horizontal relations, its reverse the
        # vertical ones; tails walk the successors the opposite way.
        self.h_order = list(range(self.n))
        self.v_order = self.h_order[::-1]
        self.deadline = (time.monotonic() + time_limit
                         if time_limit is not None else None)
        self.nodes = 0
        self.best_key = None  # (objective, -total area), maximized
        self.best_choice = None
        self.timed_out = False

    def _reduced(self, pairs, idx):
        """(predecessor lists, successor lists) of the relation pairs,
        without the edges p -> i that two edges p -> q -> i imply; each
        list keeps the order of pairs."""
        edges = [(idx[a], idx[b]) for a, b in pairs]
        succ_bits = [0] * self.n
        pred_bits = [0] * self.n
        for a, b in edges:
            succ_bits[a] |= 1 << b
            pred_bits[b] |= 1 << a
        preds = [[] for _ in range(self.n)]
        succs = [[] for _ in range(self.n)]
        for a, b in edges:
            if not succ_bits[a] & pred_bits[b]:
                preds[b].append(a)
                succs[a].append(b)
        return preds, succs

    def _minima(self, shapes):
        """(least width, least height, least area) of each module over its
        shapes."""
        wmin = [min(d[j][0] for j in s) for d, s in zip(self.dims, shapes)]
        hmin = [min(d[j][1] for j in s) for d, s in zip(self.dims, shapes)]
        amin = [min(d[j][0] * d[j][1] for j in s)
                for d, s in zip(self.dims, shapes)]
        return wmin, hmin, amin

    def _longest(self, order, preds, size):
        """Longest path into each module over the given relation lists.

        Predecessor lists in dependency order give each module's head
        (its lowest coordinate); successor lists in the reverse order give
        its tail (the longest path from its far edge to the extent).
        """
        pos = [0] * self.n
        for i in order:
            best = 0
            for p in preds[i]:
                v = pos[p] + size[p]
                if v > best:
                    best = v
            pos[i] = best
        return pos

    def _paths(self, wmin, hmin):
        """(extent, critical end, heads, sizes) per axis, x then y, with
        every module at its least width (wmin) and height (hmin); the
        critical end is the module ending the extent, -1 at extent 0."""
        axes = []
        for order, preds, size in ((self.h_order, self.h_preds, wmin),
                                   (self.v_order, self.v_preds, hmin)):
            head = self._longest(order, preds, size)
            ext, arg = 0, -1
            for i in range(self.n):
                v = head[i] + size[i]
                if v > ext:
                    ext, arg = v, i
            axes.append((ext, arg, head, size))
        return axes

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

    def _can_improve(self, allowed, paths, amin):
        """The (objective, -area) bound of allowed's completions when it
        beats the incumbent's key, else None; paths is _paths of allowed's
        minima, and amin its least shape areas.

        A completion beating an incumbent of objective obj has
        X + Y <= S = W + H - obj, so X <= min(W, S - Y_lb) and
        Y <= min(H, S - X_lb); with no incumbent S = W + H, which leaves
        the chip caps.  A shape of module i survives if the longest path
        through it (head + size + tail under per-module minima) fits both
        caps.  Filtering repeats with the surviving shapes' minima until
        nothing more goes; the bound is (W - X_lb) + (H - Y_lb) and minus
        the least total area over the survivors.  A full assignment loses
        no shape, so its bound is its own key.  The survivors feed only
        this bound: branching still runs over allowed, so leaves are met
        in the same order.
        """
        width, height = self.width, self.height
        dims = self.dims
        best = self.best_key
        budget = width + height - (0 if best is None else best[0])
        shapes = allowed
        while True:
            (xext, _, xhead, wmin), (yext, _, yhead, hmin) = paths
            if xext > width or yext > height:
                return None
            if xext + yext > budget:
                return None
            xcap = min(width, budget - yext)
            ycap = min(height, budget - xext)
            xtail = self._longest(self.v_order, self.h_succs, wmin)
            ytail = self._longest(self.h_order, self.v_succs, hmin)
            kept_all = []
            dropped = []
            for i in range(self.n):
                wcap = xcap - xhead[i] - xtail[i]
                hcap = ycap - yhead[i] - ytail[i]
                d = dims[i]
                kept = [j for j in shapes[i]
                        if d[j][0] <= wcap and d[j][1] <= hcap]
                if not kept:
                    return None
                if len(kept) < len(shapes[i]):
                    dropped.append(i)
                kept_all.append(kept)
            if not dropped:
                break
            shapes = kept_all
            wmin, hmin, amin = wmin[:], hmin[:], amin[:]
            for i in dropped:
                wmin[i] = min(dims[i][j][0] for j in shapes[i])
                hmin[i] = min(dims[i][j][1] for j in shapes[i])
                amin[i] = min(dims[i][j][0] * dims[i][j][1] for j in shapes[i])
            paths = self._paths(wmin, hmin)
        key = ((width - xext) + (height - yext), -sum(amin))
        return key if best is None or key > best else None

    def run(self) -> SolveResult:
        """Seed the incumbent, search, and report; see solve."""
        start = time.monotonic()
        dims = self.dims
        width, height = self.width, self.height
        min_area = [min(range(len(dims[i])),
                        key=lambda j: (dims[i][j][0] * dims[i][j][1], j))
                    for i in range(self.n)]
        balanced = [min(range(len(dims[i])),
                        key=lambda j: (dims[i][j][0] / width
                                       + dims[i][j][1] / height, j))
                    for i in range(self.n)]
        for choice in (min_area, balanced):
            leaf = [[j] for j in choice]
            wmin, hmin, amin = self._minima(leaf)
            key = self._can_improve(leaf, self._paths(wmin, hmin), amin)
            if key is not None:
                self.best_key, self.best_choice = key, choice
        root = [list(range(len(dims[i]))) for i in range(self.n)]
        self.dfs(root, *self._minima(root))
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

    def dfs(self, allowed, wmin, hmin, amin):
        """Search below the node allowed, whose per-module least widths,
        heights and areas are wmin, hmin and amin; a child copies them and
        sets the branched module's entries from its one shape."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
            return
        self.nodes += 1
        paths = self._paths(wmin, hmin)
        key = self._can_improve(allowed, paths, amin)
        if key is None:
            return
        if all(len(a) == 1 for a in allowed):
            self.best_key, self.best_choice = key, [a[0] for a in allowed]
            return
        branch, dim = self._pick_branch(allowed, paths)
        shape_order = sorted(allowed[branch],
                             key=lambda j: (self.dims[branch][j][dim],
                                            self.dims[branch][j][1 - dim]))
        for j in shape_order:
            saved = allowed[branch]
            allowed[branch] = [j]
            child_w, child_h, child_a = wmin[:], hmin[:], amin[:]
            w, h = child_w[branch], child_h[branch] = self.dims[branch][j]
            child_a[branch] = w * h
            self.dfs(allowed, child_w, child_h, child_a)
            allowed[branch] = saved
            if self.timed_out:
                return

    def _pick_branch(self, allowed, paths):
        """(module, binding dimension): prefer undecided modules on the
        critical path of the binding axis, then of the other one."""
        dim = 0 if paths[0][0] / self.width >= paths[1][0] / self.height else 1
        preds = (self.h_preds, self.v_preds)
        for k in (dim, 1 - dim):
            _, arg, head, size = paths[k]
            if arg < 0:
                continue
            for i in self._critical_modules(arg, preds[k], head, size):
                if len(allowed[i]) > 1:
                    return i, dim
        for i in range(self.n):
            if len(allowed[i]) > 1:
                return i, dim
        raise AssertionError("no branchable module at an interior node")


def solve(model: ILPModel, time_limit: float | None = None) -> SolveResult:
    """Exact optimum of the reselection program, or timeout incumbent.

    Offers two greedy assignments (all minimum-area shapes; per-module
    least normalized half-perimeter), then runs depth-first branch and
    bound.  Seeds, leaves and inner nodes all pass one bound on
    (objective, -total area): each module's shapes are filtered against
    the extent budget the incumbent leaves, and the bound is taken over
    the survivors; on a full assignment it is exact.  Only what beats the
    incumbent's key is kept, so every incumbent fits the chip and ties go
    to the first assignment met.  Deterministic for a fixed model.
    time_limit is in seconds; None or inf sets no limit.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError("time_limit must be >= 0")
    return _Search(model, time_limit).run()


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
