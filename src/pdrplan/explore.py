"""Simulated-annealing search over partition, schedule, and floorplan.

Each move deletes one module and reinserts it somewhere else: into an
existing layer, into a fresh layer of an existing region, or into a fresh
region.  The chain keeps its current plan packed and scheduled
(delta.PlanState).  A move derives its base, the plan without the module,
from that state: it repacks only the module's layer and replays the
schedule only from that layer's configuration slot.  A sample of the
insertion points, built only when sampled, is first ranked by a cheap
rough score read from the base (area and schedule estimates; the moved
module's shape is reselected from its candidate list at the same time).
The best few are then costed exactly from the base (PlanState.costs), and
the winner goes through the usual Metropolis acceptance test; an accepted
winner's costing becomes the chain's next state.  A move whose points are
all scored (no more than MAX_CANDIDATES of them, so none is sampled) draws
no random number: its top list and winner depend only on the plan and the
module.  The chain keeps such moves per module and reuses them until an
accepted winner changes the plan.  Sampled moves are not kept, as each
depends on its sample.

The rough score of a point depends only on its class: its target (the
grown or fresh layer, or a fresh region on its side of the design) and
its configuration slot.  Each class is scored once, and only if its lower
bound can still reach the best few.  A fresh layer is scored as an empty
layer, and a region as its largest layer.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

from .chip import ChipModel
from .errors import InfeasibleModuleError
from .delta import PlanState
from .pst import (CostWeights, PST, block_offsets, cost_from_parts, evaluate,
                  pack, schedule)
from .shapes import Shape, ShapeList
from .taskgraph import TaskGraph

# exp(-median/T0) = 0.8 fixes the probe-derived starting temperature.
_PROBE_ACCEPT = -math.log(0.8)
# Probe moves that set the starting temperature.
PROBE_MOVES = 100
# Insertion points sampled per move before rough scoring.
MAX_CANDIDATES = 96
# Rough-ranked insertion points re-costed exactly per move.
ROUGH_KEEP_K = 5


@dataclass(frozen=True)
class SAConfig:
    """Annealing schedule and move-evaluation parameters.

    None values are resolved per instance: the initial temperature from
    PROBE_MOVES probe moves (the median nonzero |cost change| of a probe,
    uphill or downhill, accepted with probability 0.8),
    iterations_per_temperature as max(16, 2 x modules),
    min_temperature as 1e-3 x initial.  time_limit bounds the probe moves
    as well as the annealing proper.  Each move samples at most
    MAX_CANDIDATES insertion points and re-costs the ROUGH_KEEP_K with the
    best rough scores exactly; RoughEvaluator.best scores each class of
    points once and skips the classes a bound rules out.  A probe move
    costs one point of its top list, drawn at random.  A move that sampled
    nothing is computed once per plan and module and kept until the plan
    changes; the random stream is drawn as if it were recomputed, so
    results do not depend on the reuse.  anneal runs one chain, seeded
    with seed; PipelineConfig.runs repeats it with seeds seed, seed + 1,
    ...
    """

    initial_temperature: float | None = None
    cooling_rate: float = 0.9
    iterations_per_temperature: int | None = None
    min_temperature: float | None = None
    seed: int = 0
    weights: CostWeights = field(default_factory=CostWeights)
    time_limit: float | None = None

    def __post_init__(self):
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        iters = self.iterations_per_temperature
        if iters is not None and not (isinstance(iters, int) and iters >= 1):
            raise ValueError("iterations_per_temperature must be an int >= 1")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be >= 0")
        for name in ("initial_temperature", "min_temperature"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass
class Candidate:
    """One insertion point for the deleted module."""

    layer: tuple  # (region, layer id)
    ps_pos: int
    qs_pos: int
    rs_pos: int
    new_layer: bool
    new_region: bool
    shape: Shape | None = None


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    temperature: float
    current_cost: float
    best_cost: float


def trace_csv(trace) -> str:
    """Trace rows as CSV text with a header line; byte-stable."""
    rows = ["iteration,temperature,current_cost,best_cost"]
    rows += [f"{t.iteration},{t.temperature!r},{t.current_cost!r},"
             f"{t.best_cost!r}" for t in trace]
    return "\n".join(rows) + "\n"


def initial_solution(g: TaskGraph, shape_lists: dict, chip: ChipModel) -> PST:
    """Greedy row construction: one region, layers filled in topo order.

    Modules join the current layer as a left-to-right row until the row
    would outgrow the chip width, then a new layer opens; rs keeps layer
    creation order, so dependencies always point forward.
    """
    order = g.topological_order()
    if not order:
        raise InfeasibleModuleError("cannot build a solution for an empty graph")
    layers = [[]]
    row_width = 0
    for m in order:
        w = shape_lists[m].min_area_shape().w
        if w > chip.width:
            raise InfeasibleModuleError(f"module {m} wider than the chip")
        if layers[-1] and row_width + w > chip.width:
            layers.append([])
            row_width = 0
        layers[-1].append(m)
        row_width += w
    partition = {}
    rs = []
    for idx, members in enumerate(layers):
        key = (0, idx)
        rs.append(key)
        for m in members:
            partition[m] = key
    seq = [m for members in layers for m in members]
    return PST(ps=seq, qs=seq, rs=rs, partition=partition)


class Insertions(Sequence):
    """The insertion points of one move, each built when read.

    A block (layer, new_layer, new_region, i, j, t, nj, nt, size) holds
    the points of one target in order: its point k has ps_pos i + k //
    (nj * nt), qs_pos j + k // nt % nj and rs_pos t + k % nt.  Every read
    builds a new point.  random.sample and choice only call len and index,
    and draw from it as from the list of every point.
    """

    def __init__(self, blocks):
        self._blocks = [b for b in blocks if b[-1]]
        self._ends = list(accumulate(b[-1] for b in self._blocks))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    @staticmethod
    def _build(block, k):
        key, new_layer, new_region, i, j, t, nj, nt, _ = block
        return Candidate(key, i + k // (nj * nt), j + k // nt % nj, t + k % nt,
                         new_layer, new_region)

    def __getitem__(self, k):
        n = len(self)
        if not -n <= k < n:
            raise IndexError("insertion point index out of range")
        k %= n
        b = bisect_right(self._ends, k)
        return self._build(self._blocks[b], k - self._ends[b - 1] if b else k)

    def __iter__(self):
        for block in self._blocks:
            for k in range(block[-1]):
                yield self._build(block, k)


def enumerate_insertions(pst: PST, m: str, g: TaskGraph) -> Insertions:
    """Every structurally valid reinsertion point for module m.

    Existing layers are offered at every (ps, qs) slot pair inside the
    layer block; each region offers a fresh layer appended to its block at
    every configuration-order position; a fresh region is offered at the
    four sequence corners.  Positions violating dependency order in g are
    dropped.  The points come in that order, built as they are read.
    """
    if m in pst.partition:
        raise ValueError(f"module {m} must be deleted before reinsertion")
    layer_ps, layer_qs = pst.layer_spans
    region_ps, region_qs = pst.region_spans
    rs_index = {key: i for i, key in enumerate(pst.rs)}

    max_pred, min_succ = -1, len(pst.rs)
    for p in g.predecessors[m]:
        if p in pst.partition:
            max_pred = max(max_pred, rs_index[pst.partition[p]])
    for s in g.successors[m]:
        if s in pst.partition:
            min_succ = min(min_succ, rs_index[pst.partition[s]])

    blocks = []
    for t, key in enumerate(pst.rs):
        if max_pred <= t <= min_succ:
            (a, b), (c, d) = layer_ps[key], layer_qs[key]
            blocks.append((key, False, False, a, c, t, d - c + 2, 1,
                           (b - a + 2) * (d - c + 2)))
    # New layers go at the end of the region's block; dependency-wise the
    # fresh layer may take any rs slot after every predecessor's layer.
    rs_lo, nt = max_pred + 1, max(0, min_succ - max_pred)
    for region in sorted(region_ps):
        key = (region, 1 + max(k[1] for k in pst.region_layers[region]))
        blocks.append((key, True, False, region_ps[region][1] + 1,
                       region_qs[region][1] + 1, rs_lo, 1, nt, nt))
    new_region = 1 + max(pst.region_layers, default=-1)
    corners = sorted({(i, j) for i in (0, len(pst.ps)) for j in (0, len(pst.qs))})
    for i, j in corners:
        blocks.append(((new_region, 0), True, True, i, j, rs_lo, 1, nt, nt))
    return Insertions(blocks)


def apply_candidate(pst: PST, m: str, cand: Candidate) -> PST:
    """PST with module m inserted according to the candidate descriptor."""
    ps = list(pst.ps)
    ps.insert(cand.ps_pos, m)
    qs = list(pst.qs)
    qs.insert(cand.qs_pos, m)
    partition = dict(pst.partition)
    partition[m] = cand.layer
    rs = list(pst.rs)
    if cand.new_layer:
        rs.insert(cand.rs_pos, cand.layer)
    return PST(ps=ps, qs=qs, rs=rs, partition=partition)


class RoughEvaluator:
    """Rough scores for the insertion candidates of one deleted module.

    The area estimate treats each region as a rigid block: the candidate
    only resizes its target region r, so in r's size s each design extent
    is max(A, B + s).  A is the longest region-level path that avoids r,
    and B the longest path into r plus the longest path out of it.  The
    region relations are transitive, so every path through r has a
    shortcut around it and A >= B.  Two calls of the shared region
    longest path (pst.block_offsets) therefore give A and B exactly: with
    s = 0 the extent is A, and with s = A it is A + B.  The schedule
    estimate runs the configuration recurrence at layer granularity,
    ignoring cross-layer execution dependencies.

    A fresh layer is an empty layer: 0 by 0, with no configuration or
    execution time.  A packed region is as large as its largest layer, and
    a grown layer covers the layer it grew from, so the resized region is
    max(region size, grown layer size); no other layer's size is needed.

    The sizes, boxes, configuration sums and largest execution times come
    from the move's base (delta.PlanState of the PST without the moved
    module), from which accurate_evaluate costs the survivors exactly.

    A candidate's estimates depend only on its class (target, rs_pos).
    The target is the grown or fresh layer, or (None, side) for a fresh
    region, where side is True on the design's row and False on its
    column.  The shape choice and area term depend on the target alone and
    are kept per target.  The schedule term starts the candidate's step
    from the base recurrence's state before rs_pos, kept per step, and
    replays the steps after it.  best scores each class once and only the
    classes a bound cannot rule out; evaluate scores one candidate and
    keeps nothing.
    """

    def __init__(self, base: PlanState, moved: str, shape_list: ShapeList):
        self.pst = pst = base.pst
        self.shapes = base.shapes
        self.g = g = base.g
        self.w = base.w
        self.moved, self.shape_list = moved, shape_list
        self.x_base, self.y_base = base.x_max, base.y_max
        self.layer_sizes = base.sizes
        self.region_w, self.region_h = base.width, base.height
        self.conf_sum, self.exec_max = base.conf_sum, base.exec_max

        # The base recurrence in rs order.  Step i is (region, conf, exec,
        # end of the region's previous step or 0.0); _ends[i] is its layer
        # end, _ports[i] and _spans[i] the port and makespan before it (the
        # last entries: after every step), and _region_steps lists each
        # region's step indices.
        self._steps, self._ends, self._ports, self._spans = [], [], [], []
        self._region_steps: dict = {}
        port = makespan = 0.0
        for i, key in enumerate(pst.rs):
            conf, emax = self.conf_sum[key], self.exec_max[key]
            mine = self._region_steps.setdefault(key[0], [])
            start = self._ends[mine[-1]] if mine else 0.0
            mine.append(i)
            self._steps.append((key[0], conf, emax, start))
            self._ports.append(port)
            self._spans.append(makespan)
            if port > start:
                start = port
            port = start + conf
            end = port + emax
            self._ends.append(end)
            if end > makespan:
                makespan = end
        self._ports.append(port)
        self._spans.append(makespan)
        self.moved_conf = g.conf_times[moved] or 0.0
        self.moved_exec = g.exec_times[moved]

        self._extent_cache: dict = {}  # region -> (A_x, B_x, A_y, B_y)
        self._fits: dict = {}  # target -> (shape, weighted area term)

    def _extents(self, r, size_x, size_y):
        """Design extents with region r resized to size_x by size_y."""
        width = dict(self.region_w)
        height = dict(self.region_h)
        width[r], height[r] = size_x, size_y
        return block_offsets(*self.pst.region_spans, width, height)[2:]

    def _region_coeffs(self, r):
        coeffs = self._extent_cache.get(r)
        if coeffs is None:
            ax, ay = self._extents(r, 0, 0)
            x, y = self._extents(r, ax, ay)
            coeffs = self._extent_cache[r] = (ax, x - ax, ay, y - ay)
        return coeffs

    def _own_step(self, key, t):
        """(port, layer end) after the candidate's step: layer key grown or
        inserted at rs slot t, from the base state before t."""
        mine = self._region_steps.get(key[0], ())
        j = bisect_left(mine, t)
        start = self._ends[mine[j - 1]] if j else 0.0
        port = self._ports[t]
        if port > start:
            start = port
        port = start + (self.conf_sum.get(key, 0.0) + self.moved_conf)
        return port, port + max(self.exec_max.get(key, 0.0), self.moved_exec)

    def _sched_estimate(self, cand: Candidate) -> float:
        """Makespan estimate with the candidate's layer grown or inserted:
        its step at rs slot t replaces the layer's own, or precedes it.

        The later steps are replayed; a region none of them has reached
        yet still ends where the base left it before t."""
        key, t = cand.layer, cand.rs_pos
        port, end = self._own_step(key, t)
        makespan = self._spans[t]
        if end > makespan:
            makespan = end
        ends = {key[0]: end}
        for region, conf, emax, prev in self._steps[t + (key in self.conf_sum):]:
            start = ends.get(region, prev)
            if port > start:
                start = port
            port = start + conf
            end = ends[region] = port + emax
            if end > makespan:
                makespan = end
        return makespan

    def _target(self, cand: Candidate):
        """The layer the candidate grows or adds, or (None, side)."""
        if cand.new_region:
            return None, cand.ps_pos == cand.qs_pos or not self.pst.ps
        return cand.layer

    def _extents_of(self, target, shapes) -> list:
        """Estimated design extents (x, y) at the target with each shape.

        A fresh region extends the design's row (left and right corners)
        or its column.  A layer grows side by side or stacked, whichever
        is smaller (side by side on a tie), and resizes its region.  The
        target's sizes and region coefficients are read once.
        """
        xb, yb = self.x_base, self.y_base
        region = target[0]
        if region is None:
            if target[1]:
                return [(xb + s.w, yb if yb > s.h else s.h) for s in shapes]
            return [(xb if xb > s.w else s.w, yb + s.h) for s in shapes]
        lw, lh = self.layer_sizes.get(target, (0, 0))
        rw, rh = self.region_w[region], self.region_h[region]
        ax, bx, ay, by = self._region_coeffs(region)
        out = []
        for s in shapes:
            w, h = lw + s.w, lh if lh > s.h else s.h
            sw, sh = lw if lw > s.w else s.w, lh + s.h
            if sw * sh < w * h:
                w, h = sw, sh
            x = bx + (rw if rw > w else w)
            y = by + (rh if rh > h else h)
            out.append((ax if ax > x else x, ay if ay > y else y))
        return out

    def _fit(self, target):
        """The shape minimizing the estimated design area at the target
        (ties: smaller shape area, then the first) and its weighted,
        normalized area term, computed on first use."""
        fit = self._fits.get(target)
        if fit is None:
            shapes = self.shape_list.shapes
            best = None
            for shape, (x, y) in zip(shapes, self._extents_of(target, shapes)):
                area = x * y
                if (best is None or area < best_area
                        or (area == best_area and shape.area < best.area)):
                    best, best_area = shape, area
            fit = self._fits[target] = (
                best, self.w.alpha * best_area / self.w.area_norm)
        return fit

    def evaluate(self, cand: Candidate):
        """(shape, score) of the candidate: the shape minimizes the
        estimated whole-design area (ties: smaller shape area), and the
        score adds the schedule estimate with the cost weights, both
        normalized."""
        shape, area = self._fit(self._target(cand))
        return shape, area + (self.w.beta * self._sched_estimate(cand)
                              / self.w.schedule_norm)

    def best(self, cands, k: int) -> list:
        """The k candidates with the least scores, in (score, position)
        order: the first k of a stable sort by evaluate's score.  Each of
        them gets its shape.

        The members of a class share their score.  A class's score is at
        least its area term plus the schedule term of max(base makespan,
        end of its own step): a grown or inserted step can only delay every
        later layer end, as conf_time >= 0, exec_time > 0, beta >= 0 and
        IEEE addition, max and division are monotone.  Classes are scored,
        evaluate on their first member, in (bound, first position) order
        until a bound passes the k-th best (score, position) so far; no
        class left can then enter the top k (the threshold rule of Fagin,
        Lotem and Naor, PODS 2001).  Of a scored class, only the first k
        members can.
        """
        w, base = self.w, self._spans[-1]
        classes: dict = {}  # (target, rs_pos) -> member positions
        for i, cand in enumerate(cands):
            classes.setdefault((self._target(cand), cand.rs_pos), []).append(i)
        ranked = []  # (bound, first position, member positions)
        for (target, t), members in classes.items():
            end = self._own_step(cands[members[0]].layer, t)[1]
            ranked.append((self._fit(target)[1] + w.beta * (
                end if end > base else base) / w.schedule_norm, members[0],
                members))
        ranked.sort()
        top = []  # (score, position), ascending
        for bound, first, members in ranked:
            if len(top) == k and (bound, first) > top[-1]:
                break
            shape, score = self.evaluate(cands[first])
            for i in members[:k]:
                cands[i].shape = shape
                insort(top, (score, i))
            del top[k:]
        return [cands[i] for _, i in top]


def accurate_evaluate(base: PlanState, m: str, cands: list):
    """Exact cost of each candidate from the move's base; the argmin.

    base is the move's PlanState without module m; see PlanState.costs.
    Each cost equals evaluate's on the applied candidate.  Only the
    winner, the first of the cheapest, is applied.  Returns (pst, shapes,
    cost, candidate, trial) of the winner; trial.state(pst, shapes) is its
    PlanState.
    """
    if not cands:
        raise ValueError("accurate_evaluate needs at least one candidate")
    best = None
    for cand in cands:
        trial = base.costs(m, cand)
        if best is None or trial.cost.total < best.cost.total:
            best = trial
    cand = best.cand
    new_shapes = dict(base.shapes)
    new_shapes[m] = cand.shape
    return (apply_candidate(base.pst, m, cand), new_shapes, best.cost, cand,
            best)


def accept_move(delta: float, temperature: float, rng: random.Random) -> bool:
    """Metropolis rule: always downhill, uphill with probability e^(-d/T)."""
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    exponent = delta / temperature
    if exponent > 700:  # exp underflows anyway
        return False
    return rng.random() < math.exp(-exponent)


class _Move:
    """One move from the chain's current plan: module m, its base (the
    plan without m) and its rough top list.  The exact winner is computed
    on first request and then kept."""

    __slots__ = ("m", "base", "top", "_winner")

    def __init__(self, m, base, top):
        self.m, self.base, self.top = m, base, top
        self._winner = None

    def winner(self):
        """accurate_evaluate's result over the whole top list."""
        if self._winner is None:
            self._winner = accurate_evaluate(self.base, self.m, self.top)
        return self._winner


class _Chain:
    """One annealing run with its own RNG and state.

    moves keeps, per module, its move from the current plan when the move
    drew no random number (at most MAX_CANDIDATES points, all scored): its
    top list and winner depend only on the plan and the module, so a later
    draw of that module reuses them.  A sampled move depends on its sample
    and is not kept, which also keeps the bases of large plans, where most
    moves sample, out of memory.  moves is cleared whenever an accepted
    winner changes the plan.  A probe move costs the top entry it draws on
    every draw, as a kept move keeps only its top list and winner.
    """

    def __init__(self, g, shape_lists, chip, cfg, weights, deadline):
        self.g = g
        self.lists = shape_lists
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.deadline = deadline
        self.ids = list(g.module_ids)
        pst = initial_solution(g, shape_lists, chip)
        shapes = {m: shape_lists[m].min_area_shape() for m in self.ids}
        placement, timeline = pack(pst, shapes), schedule(pst, g)
        self.state = PlanState(pst, shapes, g, chip, weights, placement,
                               timeline)
        self.cost = cost_from_parts(placement, timeline, g, chip, weights)
        self.best = (pst, shapes, self.cost)
        self.best_feasible = self.best if self.cost.feasible else None
        self.moves: dict = {}  # module -> its unsampled _Move from state

    def _past_deadline(self):
        return self.deadline is not None and time.monotonic() > self.deadline

    def _track(self, pst, shapes, cost):
        if cost.total < self.best[2].total:
            self.best = (pst, shapes, cost)
        if cost.feasible and (self.best_feasible is None
                              or cost.total < self.best_feasible[2].total):
            self.best_feasible = (pst, shapes, cost)

    def _random_move(self) -> _Move:
        """Delete a random module and pick rough-ranked reinsertions from
        the move's base, the state without the module; a kept move of that
        module is returned as it is."""
        m = self.rng.choice(self.ids)
        move = self.moves.get(m)
        if move is not None:
            return move
        base = self.state.without(m)
        points = enumerate_insertions(base.pst, m, self.g)
        n = len(points)
        cands = ([points[i] for i in self.rng.sample(range(n), MAX_CANDIDATES)]
                 if n > MAX_CANDIDATES else list(points))
        move = _Move(m, base, RoughEvaluator(base, m, self.lists[m]).best(
            cands, ROUGH_KEEP_K))
        if n <= MAX_CANDIDATES:
            self.moves[m] = move
        return move

    def initial_temperature(self):
        """cfg's, or the median nonzero |cost change| of the probe moves
        over _PROBE_ACCEPT (1.0 when no probe changed the cost)."""
        if self.cfg.initial_temperature is not None:
            return self.cfg.initial_temperature
        deltas = []
        for _ in range(PROBE_MOVES):
            if self._past_deadline():
                break
            move = self._random_move()
            cost = move.base.costs(move.m, self.rng.choice(move.top)).cost
            d = abs(cost.total - self.cost.total)
            if d > 1e-12:
                deltas.append(d)
        if not deltas:
            return 1.0
        deltas.sort()
        return deltas[len(deltas) // 2] / _PROBE_ACCEPT

    def step(self, t):
        """One annealing move at temperature t.  An accepted winner that
        changes the plan becomes the next state; one that puts the module
        back keeps the state and its kept moves."""
        new_pst, new_shapes, cost, _, trial = self._random_move().winner()
        self._track(new_pst, new_shapes, cost)
        if accept_move(cost.total - self.cost.total, t, self.rng):
            state = self.state
            if new_pst != state.pst or new_shapes != state.shapes:
                self.state = trial.state(new_pst, new_shapes)
                self.moves.clear()
            self.cost = cost

    def run(self):
        """Anneal to the minimum temperature or the deadline; the trace rows."""
        trace = []
        t = self.initial_temperature()
        t_min = (self.cfg.min_temperature if self.cfg.min_temperature is not None
                 else 1e-3 * t)
        iters = (self.cfg.iterations_per_temperature
                 if self.cfg.iterations_per_temperature is not None
                 else max(16, 2 * len(self.ids)))
        iteration = 0
        while t > t_min:
            for _ in range(iters):
                if self._past_deadline():
                    return trace
                self.step(t)
                iteration += 1
                trace.append(TraceRow(iteration, t, self.cost.total,
                                      self.best[2].total))
            if t * self.cfg.cooling_rate >= t:  # rounds back: a subnormal t
                break
            t *= self.cfg.cooling_rate
        return trace


def anneal(g: TaskGraph, shape_lists: dict, chip: ChipModel,
           cfg: SAConfig = SAConfig()):
    """Run one annealing chain and return (Solution, trace rows).

    Deterministic for fixed inputs and seed.  The returned solution is the
    best boundary-feasible one found; if the chain never saw a feasible
    floorplan, the lowest-cost (least violating) solution is returned with
    feasible=False, ready for post-optimization.  The chain starts from
    initial_solution, which fits the chip whenever every module's
    smallest shape does, as generate_all's shapes do, so then the result
    is feasible (CHANGES.md FOUND on run_pipeline, ROADMAP item 5).

    The lowest-cost state is not handed on when it overflows: rough
    scoring ignores the boundary penalty (ROADMAP item 1), so that state
    can be one no shape reselection repairs.  On generate(preset_spec(
    "t10-2", seed=100)) with SAConfig(seed=0), it costs 6.898 and measures
    188 x 155, 42 columns wider than the chip; solve proves it infeasible
    in one node, and anneal returns the feasible start at 12.834 instead.
    """
    if g.has_unresolved_conf():
        raise ValueError("anneal needs resolved configuration times; "
                         "apply assign_conf_times first")
    weights = cfg.weights.resolve(g, chip)
    deadline = (time.monotonic() + cfg.time_limit
                if cfg.time_limit is not None else None)
    chain = _Chain(g, shape_lists, chip, cfg, weights, deadline)
    trace = chain.run()
    pst, shapes, _ = chain.best_feasible or chain.best
    return evaluate(pst, shapes, g, chip, weights), trace
