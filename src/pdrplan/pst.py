"""Partitioned sequence triple: representation, packing, schedule, costs.

A solution candidate is a triple (ps, qs, rs) plus a partition of the
modules into reconfigurable regions and time layers:

* ps/qs form a nested sequence pair.  Module blocks of one layer are
  contiguous in both sequences, and layer blocks of one region are
  contiguous too, so any two regions relate uniformly (all left-of, all
  below, ...).
* rs is the global configuration order of the time layers (one
  configuration port, fully serialized).
* Two modules constrain each other spatially iff they are in different
  regions or share a time layer; layers of one region time-share its
  rectangle and impose no mutual constraint.

Packing evaluates the filtered sequence-pair relations by longest paths,
as in plain sequence-pair floorplanning, but one layer at a time: since
regions relate uniformly and layers of one region not at all, a module's
longest path is its region's offset plus its position inside its own
layer.  One sequence-pair longest path over blocks, block_offsets,
gives both: the region offsets over the region blocks, and a layer's
packing (pack_layer) over its modules as one-slot blocks.  The annealing
chain's kept state in delta shares it with the rough scoring in explore,
and shares the layer orders (layer_orders), the schedule recurrence
run_layers and the cost formula costs_of with pack, schedule and
evaluate: a move repacks only the layer it changes and replays the
schedule from that layer's rs slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .chip import ChipModel, Rect
from .taskgraph import TaskGraph


@dataclass(frozen=True)
class PST:
    """Partitioned sequence triple; plain immutable data."""

    ps: tuple
    qs: tuple
    rs: tuple
    partition: dict  # module id -> (region, layer)

    def __post_init__(self):
        object.__setattr__(self, "ps", tuple(self.ps))
        object.__setattr__(self, "qs", tuple(self.qs))
        object.__setattr__(self, "rs", tuple(self.rs))
        object.__setattr__(self, "partition", dict(self.partition))

    @cached_property
    def layer_members(self) -> dict:
        """Layer key -> module ids in ps order."""
        members: dict = {}
        for m in self.ps:
            members.setdefault(self.partition[m], []).append(m)
        return members

    @cached_property
    def region_layers(self) -> dict:
        """Region id -> its layer keys in rs order."""
        out: dict = {}
        for key in self.rs:
            out.setdefault(key[0], []).append(key)
        return out

    @cached_property
    def layer_spans(self) -> tuple:
        """(ps spans, qs spans) of the layer blocks, see block_spans."""
        part = self.partition
        return (block_spans(part[m] for m in self.ps),
                block_spans(part[m] for m in self.qs))

    @cached_property
    def region_spans(self) -> tuple:
        """(ps spans, qs spans) of the region blocks, see block_spans."""
        part = self.partition
        return (block_spans(part[m][0] for m in self.ps),
                block_spans(part[m][0] for m in self.qs))

    def without(self, m: str) -> "PST":
        """Copy with module m deleted; an emptied layer leaves rs."""
        part = dict(self.partition)
        key = part.pop(m)
        ps, qs, rs = self.ps, self.qs, self.rs
        if key not in part.values():
            t = rs.index(key)
            rs = rs[:t] + rs[t + 1:]
        i, j = ps.index(m), qs.index(m)
        return PST(ps=ps[:i] + ps[i + 1:], qs=qs[:j] + qs[j + 1:], rs=rs,
                   partition=part)


def validate(pst: PST, g: TaskGraph) -> list:
    """All representation violations (empty list means the PST is valid)."""
    violations = []
    ps_set, qs_set, part_set = set(pst.ps), set(pst.qs), set(pst.partition)
    if len(ps_set) != len(pst.ps) or len(qs_set) != len(pst.qs):
        violations.append("permutation mismatch: duplicate module in ps or qs")
    if ps_set != qs_set or ps_set != part_set:
        violations.append("permutation mismatch: ps, qs, partition cover "
                          "different module sets")
        return violations
    known = set(g.module_ids)
    unknown = sorted(ps_set - known)
    if unknown:
        violations.append(f"unknown modules: {', '.join(unknown)}")
        return violations
    missing = [m for m in g.module_ids if m not in ps_set]
    if missing:
        violations.append(f"missing modules: {', '.join(missing)}")
        return violations

    nonempty = set(pst.partition.values())
    rs_set = set(pst.rs)
    if len(rs_set) != len(pst.rs):
        violations.append("rs lists a layer twice")
    if rs_set - nonempty:
        extra = sorted(rs_set - nonempty)
        violations.append(f"rs references empty layers: {extra}")
    if nonempty - rs_set:
        missing = sorted(nonempty - rs_set)
        violations.append(f"layers missing from rs: {missing}")

    violations += block_violations(pst)

    if rs_set == nonempty and len(rs_set) == len(pst.rs):
        rs_index = {key: i for i, key in enumerate(pst.rs)}
        for e in g.edges:
            if e.src in pst.partition and e.dst in pst.partition:
                if rs_index[pst.partition[e.src]] > rs_index[pst.partition[e.dst]]:
                    violations.append(
                        f"dependency order: {e.src} -> {e.dst} but layer "
                        f"{pst.partition[e.src]} is configured after "
                        f"{pst.partition[e.dst]}")
    return violations


def block_violations(pst: PST) -> list:
    """The region and layer blocks that are not contiguous in ps or qs,
    as violation messages; the partition must cover ps and qs."""
    violations = []
    for name, seq in (("ps", pst.ps), ("qs", pst.qs)):
        spans: dict = {}
        for i, m in enumerate(seq):
            region, key = pst.partition[m][0], pst.partition[m]
            for group in (("region", region), ("layer", key)):
                if group not in spans:
                    spans[group] = [i, i, 1]
                else:
                    rec = spans[group]
                    rec[1] = i
                    rec[2] += 1
        for (kind, ident), (first, last, count) in spans.items():
            if last - first + 1 != count:
                violations.append(f"{kind} {ident} not contiguous in {name}")
    return violations


# ----------------------------------------------------------------------
# packing

@dataclass(frozen=True)
class Placement:
    """Module and region rectangles plus the occupied extents; pack also
    keeps each layer's packed (width, height)."""

    coords: dict  # module id -> Rect
    region_boxes: dict  # region id -> Rect
    x_max: int
    y_max: int
    layer_sizes: dict = field(default_factory=dict, compare=False, repr=False)


def block_spans(keys) -> dict:
    """Block key -> [first, last] index in a sequence of block keys, in
    order of first appearance."""
    spans: dict = {}
    for i, k in enumerate(keys):
        if k in spans:
            spans[k][1] = i
        else:
            spans[k] = [i, i]
    return spans


def block_offsets(ps_span: dict, qs_span: dict, width: dict,
                  height: dict) -> tuple:
    """The sequence-pair longest path over blocks (Murata et al., IEEE
    TCAD 1996): each block's x and y offset, and the extents.

    ps_span and qs_span are the blocks' [first, last] indices in ps and
    qs (PST.region_spans for regions; a module is a one-slot block); width
    and height give each block's size.  Block a is left of b when a's
    block precedes b's in both sequences, and below b when it follows b's
    in ps but precedes it in qs.  Blocks are visited in ps order for x and
    in qs order for y, which puts every predecessor first.  Returns
    (off_x, off_y, x_extent, y_extent): the offsets are dicts in those two
    orders, and an extent is the largest offset plus size (0 with no
    blocks).
    """
    off_x: dict = {}
    ends = []  # (last qs index, right end) of the blocks placed so far
    x_ext = 0
    for r in ps_span:
        first_q, last_q = qs_span[r]
        x = 0
        for q, end in ends:
            if q < first_q and end > x:
                x = end
        off_x[r] = x
        x += width[r]
        ends.append((last_q, x))
        if x > x_ext:
            x_ext = x
    off_y: dict = {}
    ends = []  # (first ps index, top end) of the blocks placed so far
    y_ext = 0
    for r in qs_span:
        first_p, last_p = ps_span[r]
        y = 0
        for p, end in ends:
            if p > last_p and end > y:
                y = end
        off_y[r] = y
        y += height[r]
        ends.append((first_p, y))
        if y > y_ext:
            y_ext = y
    return off_x, off_y, x_ext, y_ext


def pack_layer(by_p, by_q, shapes: dict) -> tuple:
    """Plain sequence-pair packing of one layer, whose modules by_p and
    by_q list in ps and in qs order: block_offsets over one-slot blocks.

    Returns (local_x, local_y, width, height): each module's position
    inside the layer and the layer's size.
    """
    return block_offsets({m: (i, i) for i, m in enumerate(by_p)},
                         {m: (i, i) for i, m in enumerate(by_q)},
                         {m: shapes[m].w for m in by_p},
                         {m: shapes[m].h for m in by_p})


def pack(pst: PST, shapes: dict) -> Placement:
    """Longest-path evaluation of the filtered sequence pair, by layer.

    Every module of a region is related to every module of another region
    in the same way, because region blocks are contiguous in ps and qs,
    while layers of one region constrain nothing across each other.  The
    longest path into a module is therefore its region's offset plus its
    position from plain sequence-pair packing of its own layer alone
    (pack_layer).  The offsets come from the same longest path over the
    region blocks, block_offsets, with each region as wide and tall as
    its largest layer.  This is the module-level longest path over the
    filtered relation graph, evaluated in pieces.

    The PST must be structurally valid (see validate): the decomposition
    rests on contiguous region and layer blocks.  Packing always
    succeeds, also beyond the chip.  y coordinates stay quantum-aligned
    because every height is a quantum multiple.
    """
    ps, qs = pst.ps, pst.qs
    ps_spans, qs_spans = pst.layer_spans
    layers = []  # (region, modules in ps order, local_x, local_y)
    region_w: dict = {}
    region_h: dict = {}
    layer_sizes: dict = {}
    for key, (a, b) in ps_spans.items():
        c, d = qs_spans[key]
        mods = ps[a:b + 1]
        local_x, local_y, lw, lh = pack_layer(mods, qs[c:d + 1], shapes)
        layer_sizes[key] = lw, lh
        region = key[0]
        layers.append((region, mods, local_x, local_y))
        if lw > region_w.get(region, 0):
            region_w[region] = lw
        if lh > region_h.get(region, 0):
            region_h[region] = lh

    off_x, off_y, x_max, y_max = block_offsets(*pst.region_spans, region_w,
                                               region_h)

    coords = {}
    for r, mods, local_x, local_y in layers:
        for m in mods:
            shape = shapes[m]
            coords[m] = Rect(off_x[r] + local_x[m] + 1,
                             off_y[r] + local_y[m] + 1, shape.w, shape.h)
    region_boxes = {r: Rect(off_x[r] + 1, off_y[r] + 1, region_w[r], region_h[r])
                    for r in off_x}
    return Placement(coords=coords, region_boxes=region_boxes,
                     x_max=x_max, y_max=y_max, layer_sizes=layer_sizes)


# ----------------------------------------------------------------------
# schedule

@dataclass(frozen=True)
class ScheduleResult:
    config_start: dict  # layer key -> ms
    config_end: dict
    exec_start: dict  # module id -> ms
    exec_end: dict
    makespan: float


def schedule(pst: PST, g: TaskGraph) -> ScheduleResult:
    """Timeline of the serialized configuration port and module execution.

    Layers are configured in rs order; a layer's configuration waits for
    the port to free up and for the previous layer of the same region to
    finish executing.  A module starts once its layer is configured and
    all its predecessors have finished.  A layer's modules are timed in
    the graph's topological order, so predecessors in the same layer
    come first.  The recurrence itself is run_layers.
    """
    rs_set = set(pst.rs)
    part = pst.partition
    for key in part.values():
        if key not in rs_set:
            raise ValueError(f"schedule: layer {key} missing from rs")
    members, in_order = pst.layer_members, layer_orders(pst, g)
    config_start: dict = {}
    config_end: dict = {}
    exec_start: dict = {}
    exec_end: dict = {}
    layers = ((key, members[key], in_order[key]) for key in pst.rs)
    makespan = run_layers(layers, g, part, 0.0, {}, exec_end, 0.0,
                          (config_start, config_end, exec_start, {}))
    return ScheduleResult(config_start, config_end, exec_start, exec_end, makespan)


def layer_orders(pst: PST, g: TaskGraph) -> dict:
    """Layer key -> its modules in the graph's topological order."""
    part = pst.partition
    orders: dict = {}
    for m in g.topological_order():
        if m in part:
            orders.setdefault(part[m], []).append(m)
    return orders


def run_layers(layers, g: TaskGraph, placed, port: float, region_end: dict,
               exec_end: dict, makespan: float, out) -> float:
    """The schedule recurrence over layers in configuration order.

    layers yields (key, modules in ps order, modules in topological
    order).  port is the time the port frees up, region_end maps a region
    to the end of its last layer so far, exec_end a module to its finish
    time, and placed holds the modules of the solution; a predecessor
    outside it is ignored.  A layer's configuration time is its modules'
    sum in ps order.  region_end and exec_end are updated in place, and
    out holds four dicts: each layer's configuration start, configuration
    end, each module's start and each layer's end (its latest finish).
    Returns the latest finish, makespan included.
    """
    config_start, config_end, exec_start, layer_ends = out
    preds, conf_of, exec_of = g.predecessors, g.conf_times, g.exec_times
    for key, mods, in_order in layers:
        conf_sum = 0.0
        for m in mods:
            conf = conf_of[m]
            if conf is None:
                raise ValueError(f"schedule: module {m} has unresolved conf time")
            conf_sum += conf
        region = key[0]
        start = port
        prev_end = region_end.get(region)
        if prev_end is not None and prev_end > start:
            start = prev_end
        config_start[key] = start
        port = config_end[key] = start + conf_sum
        layer_end = port
        for m in in_order:
            start_t = port
            for p in preds[m]:
                if p in placed and exec_end[p] > start_t:
                    start_t = exec_end[p]
            exec_start[m] = start_t
            end = exec_end[m] = start_t + exec_of[m]
            if end > layer_end:
                layer_end = end
        region_end[region] = layer_ends[key] = layer_end
        if layer_end > makespan:
            makespan = layer_end
    return makespan


# ----------------------------------------------------------------------
# costs

# Normalizer of the heterogeneous-utilisation term (its value when one
# region covers the whole chip).
HETERO_NORM = 3.0
# Area-term penalty per unit of overflow, the overflow being the fraction
# of the chip width plus the fraction of its height that the design exceeds.
BOUNDARY_PENALTY = 10.0
# Hetero contribution of a resource kind that no region uses.
HETERO_SENTINEL = 1000.0


@dataclass(frozen=True)
class CostWeights:
    """Weights and normalizers of the combined cost.

    Normalizers left as None are derived from the instance by resolve():
    area by the chip area, schedule by critical path + total configuration
    time, communication by total edge weight times the chip half-perimeter.
    The hetero term is always divided by HETERO_NORM.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma_comm: float = 1.0
    lambda_: float = 1.0
    area_norm: float | None = None
    schedule_norm: float | None = None
    comm_norm: float | None = None

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma_comm", "lambda_"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("area_norm", "schedule_norm", "comm_norm"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0")

    def resolve(self, g: TaskGraph, chip: ChipModel) -> "CostWeights":
        """Fill instance-derived normalizers; idempotent.

        Normalizers already set are kept; with all three set this is self.
        """
        if None not in (self.area_norm, self.schedule_norm, self.comm_norm):
            return self
        area = self.area_norm or float(chip.area)
        sched = self.schedule_norm
        if sched is None:
            # Left to right: sum() of floats rounds differently from
            # Python 3.12 on, and this normalizer reaches every cost.
            total_conf = 0.0
            for m in g.modules:
                total_conf += m.conf_time or 0.0
            sched = g.critical_path_time() + total_conf
            if sched <= 0:
                sched = 1.0
        comm = self.comm_norm
        if comm is None:
            comm = g.total_edge_weight() * (chip.width + chip.height)
            if comm <= 0:
                comm = 1.0
        return replace(self, area_norm=area, schedule_norm=sched, comm_norm=comm)


def comm_cost(p: Placement, g: TaskGraph) -> float:
    """Sum over edges of weight x Manhattan distance between rect centers."""
    cx = {m: r.x + (r.w - 1) / 2 for m, r in p.coords.items()}
    cy = {m: r.y + (r.h - 1) / 2 for m, r in p.coords.items()}
    return comm_between(g, cx, cy)


def comm_between(g: TaskGraph, cx: dict, cy: dict) -> float:
    """The communication cost from each module's centre (cx, cy), summed
    over the edges in their order."""
    total = 0.0
    for e in g.edges:
        a, b = e.src, e.dst
        total += e.weight * (abs(cx[a] - cx[b]) + abs(cy[a] - cy[b]))
    return total


def hetero_cost(p: Placement, chip: ChipModel) -> float:
    """Chip resources divided by region-used resources, summed per kind."""
    return hetero_of([(b.x, b.y, b.w, b.h) for b in p.region_boxes.values()],
                     chip)


def hetero_of(boxes, chip: ChipModel) -> float:
    """hetero_cost of the region boxes (x, y, w, h).

    Regions hanging off the chip are clipped to it before counting; a kind
    no region uses contributes HETERO_SENTINEL instead of a division by
    zero.
    """
    total = 0.0
    for have_k, use_k in zip(chip.capacity().as_tuple(), _tiles(boxes, chip)):
        total += have_k / use_k if use_k > 0 else HETERO_SENTINEL
    return total


def _tiles(boxes, chip: ChipModel) -> tuple:
    """(CLB, BRAM, DSP) tiles inside the boxes, each clipped to the chip."""
    clb = bram = dsp = 0
    for x, y, w, h in boxes:
        x2, y2 = min(x + w - 1, chip.width), min(y + h - 1, chip.height)
        if x2 < x or y2 < y:
            continue
        rows = y2 - y + 1
        n_clb, n_bram, n_dsp = chip.column_counts(x, x2 - x + 1)
        macro = chip.macro_tiles(rows)
        clb += n_clb * rows
        bram += n_bram * macro
        dsp += n_dsp * macro
    return clb, bram, dsp


@dataclass(frozen=True)
class CostBreakdown:
    total: float
    area: float
    schedule: float
    comm: float
    hetero: float
    makespan: float
    comm_raw: float
    x_max: int
    y_max: int
    feasible: bool


def cost_from_parts(p: Placement, s: ScheduleResult, g: TaskGraph,
                    chip: ChipModel, w: CostWeights) -> CostBreakdown:
    """Cost terms for an already packed and scheduled solution."""
    return costs_of(p.x_max, p.y_max, s.makespan, comm_cost(p, g),
                    hetero_cost(p, chip), chip, w)


def costs_of(x_max: int, y_max: int, makespan: float, raw_comm: float,
             raw_hetero: float, chip: ChipModel,
             w: CostWeights) -> CostBreakdown:
    """The cost formula, from the design extents, the makespan and the
    raw communication and hetero terms."""
    overflow = (max(0, x_max - chip.width) / chip.width
                + max(0, y_max - chip.height) / chip.height)
    cost_area = (x_max * y_max) / w.area_norm + BOUNDARY_PENALTY * overflow
    cost_schedule = makespan / w.schedule_norm
    cost_comm = raw_comm / w.comm_norm
    cost_hetero = raw_hetero / HETERO_NORM
    total = (w.alpha * cost_area + w.beta * cost_schedule
             + w.gamma_comm * cost_comm + w.lambda_ * cost_hetero)
    return CostBreakdown(
        total=total,
        area=cost_area,
        schedule=cost_schedule,
        comm=cost_comm,
        hetero=cost_hetero,
        makespan=makespan,
        comm_raw=raw_comm,
        x_max=x_max,
        y_max=y_max,
        feasible=x_max <= chip.width and y_max <= chip.height,
    )


@dataclass(frozen=True)
class Solution:
    """A fully evaluated solution: representation, geometry, timeline, cost."""

    pst: PST
    shapes: dict  # module id -> Shape
    placement: Placement
    timeline: ScheduleResult
    costs: CostBreakdown
    feasible: bool


def evaluate(pst: PST, shapes: dict, g: TaskGraph, chip: ChipModel,
             weights: CostWeights) -> Solution:
    """Pack, schedule, and cost a PST under a shape assignment.

    The one evaluation entry point: every full cost in the planner comes
    from here.  Normalizers missing from the weights are resolved against
    the instance.  The area term carries the boundary-overflow penalty, so
    infeasible floorplans cost strictly more than feasible ones of the
    same size.
    """
    w = weights.resolve(g, chip)
    p = pack(pst, shapes)
    s = schedule(pst, g)
    costs = cost_from_parts(p, s, g, chip, w)
    return Solution(pst=pst, shapes=dict(shapes), placement=p, timeline=s,
                    costs=costs, feasible=costs.feasible)
