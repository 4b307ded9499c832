"""Output checkers, computed by the benchmark's own code.

Every check returns a list of problems; an empty list means the output
passed.  Nothing here calls the planner: plans are re-read from the
solution text, re-packed by a longest-path sequence-pair packing written
here, re-scheduled from the rules in the planner's schedule docstring and
re-costed.  The post-optimisation objective is also confirmed by HiGHS
(scipy.optimize.milp) on the exported LP file.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from inputs import (BRAM_COLS, CHIP_H, CHIP_W, DSP_COLS, MACRO_ROWS, QUANTUM,
                    Graph, covers_everywhere, min_area_rect, window_resources)

REL_TOL = 1e-9
BOUNDARY_PENALTY = 10.0
HETERO_NORM = 3.0
HETERO_SENTINEL = 1000.0
CAPACITY = ((CHIP_W - len(BRAM_COLS) - len(DSP_COLS)) * CHIP_H,
            len(BRAM_COLS) * MACRO_ROWS, len(DSP_COLS) * MACRO_ROWS)


@dataclass
class Plan:
    """A solution file as written by the planner."""

    ps: list
    qs: list
    rs: list  # layer keys (region, layer)
    layer: dict  # module -> (region, layer)
    rect: dict  # module -> (x, y, w, h)
    metrics: dict

    def shapes(self) -> dict:
        return {m: r[2:] for m, r in self.rect.items()}


def parse_plan(text: str) -> Plan:
    ps = qs = rs = None
    layer, rect, metrics = {}, {}, {}
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "ps":
            ps = tok[1:]
        elif tok[0] == "qs":
            qs = tok[1:]
        elif tok[0] == "rs":
            rs = [tuple(int(v) for v in t.split(".")) for t in tok[1:]]
        elif tok[0] == "place":
            kv = {k: int(v) for k, v in (t.split("=") for t in tok[2:])}
            layer[tok[1]] = (kv["region"], kv["layer"])
            rect[tok[1]] = (kv["x"], kv["y"], kv["w"], kv["h"])
        elif tok[0] == "metrics":
            metrics = {k: float(v) for k, v in (t.split("=") for t in tok[1:])}
        else:
            raise ValueError(f"unexpected solution line {line!r}")
    if ps is None or qs is None or rs is None:
        raise ValueError("solution lacks a ps, qs or rs line")
    return Plan(ps, qs, rs, layer, rect, metrics)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


# ----------------------------------------------------------------------
# packing, schedule and cost, recomputed

def pack(ps, qs, layer, shapes):
    """Longest-path packing of the filtered sequence pair.

    a is left of b when a precedes b in both sequences, below b when a
    follows b in ps but precedes it in qs; modules of one region in
    different time layers share its area and do not constrain each other.
    Returns ({module: (x, y)} 1-indexed, x_max, y_max).
    """
    ppos = {m: i for i, m in enumerate(ps)}
    qpos = {m: i for i, m in enumerate(qs)}

    def related(a, b):
        return layer[a][0] != layer[b][0] or layer[a] == layer[b]

    x = {}
    for b in ps:  # left-of predecessors come earlier in ps
        x[b] = max((x[a] + shapes[a][0] for a in ps[:ppos[b]]
                    if qpos[a] < qpos[b] and related(a, b)), default=0)
    y = {}
    for b in qs:  # below predecessors come earlier in qs
        y[b] = max((y[a] + shapes[a][1] for a in qs[:qpos[b]]
                    if ppos[a] > ppos[b] and related(a, b)), default=0)
    coords = {m: (x[m] + 1, y[m] + 1) for m in ps}
    x_max = max((x[m] + shapes[m][0] for m in ps), default=0)
    y_max = max((y[m] + shapes[m][1] for m in ps), default=0)
    return coords, x_max, y_max


def region_boxes(layer, rect):
    """Region -> bounding box (x1, y1, x2, y2) of its modules."""
    boxes = {}
    for m, (x, y, w, h) in rect.items():
        r = layer[m][0]
        x2, y2 = x + w - 1, y + h - 1
        if r in boxes:
            a = boxes[r]
            boxes[r] = (min(a[0], x), min(a[1], y), max(a[2], x2), max(a[3], y2))
        else:
            boxes[r] = (x, y, x2, y2)
    return boxes


def predecessors(graph: Graph) -> dict:
    preds = {m.id: [] for m in graph.modules}
    for s, d, _ in graph.edges:
        preds[d].append(s)
    return preds


def timeline(rs, layer, graph: Graph):
    """(exec_start, exec_end, makespan) under the planner's schedule rules.

    Layers are configured in rs order on one port; a layer's configuration
    waits for the port and for the previous layer of its region to finish
    executing, and lasts the sum of its members' configuration times.  A
    module starts once its layer is configured and all its predecessors
    have finished.
    """
    mods = graph.by_id()
    preds = predecessors(graph)
    members = {}
    for m in mods:
        members.setdefault(layer[m], []).append(m)
    port = 0.0
    last_end = {}  # region -> execution end of its latest layer
    start, end = {}, {}
    for key in rs:
        conf_start = max(port, last_end.get(key[0], 0.0))
        conf_end = conf_start + sum(mods[m].conf_time for m in members[key])
        port = conf_end
        todo = list(members[key])
        while todo:
            ready = [m for m in todo if all(p in end for p in preds[m])]
            if not ready:
                raise ValueError(f"layer {key}: predecessor never scheduled")
            for m in ready:
                start[m] = max([conf_end] + [end[p] for p in preds[m]])
                end[m] = start[m] + mods[m].exec_time
                todo.remove(m)
        last_end[key[0]] = max(end[m] for m in members[key])
    return start, end, max(end.values(), default=0.0)


def critical_path(graph: Graph) -> float:
    preds = predecessors(graph)
    mods = graph.by_id()
    finish = {}
    while len(finish) < len(mods):
        for m in mods:
            if m not in finish and all(p in finish for p in preds[m]):
                finish[m] = (max((finish[p] for p in preds[m]), default=0.0)
                             + mods[m].exec_time)
    return max(finish.values(), default=0.0)


def comm_raw(rect, graph: Graph) -> float:
    """Sum over edges of weight x Manhattan distance of rectangle centres."""
    total = 0.0
    for s, d, wgt in graph.edges:
        a, b = rect[s], rect[d]
        ax, ay = a[0] + (a[2] - 1) / 2, a[1] + (a[3] - 1) / 2
        bx, by = b[0] + (b[2] - 1) / 2, b[1] + (b[3] - 1) / 2
        total += wgt * (abs(ax - bx) + abs(ay - by))
    return total


def comm_norm(graph: Graph) -> float:
    return sum(w for _, _, w in graph.edges) * (CHIP_W + CHIP_H) or 1.0


def total_cost(rect, layer, makespan, graph: Graph) -> float:
    """The planner's objective with unit weights: area with boundary
    penalty, makespan, communication and heterogeneous utilisation, each
    normalised as the planner's CostWeights.resolve documents."""
    x_max = max(x + w - 1 for x, _, w, _ in rect.values())
    y_max = max(y + h - 1 for _, y, _, h in rect.values())
    overflow = (max(0, x_max - CHIP_W) / CHIP_W
                + max(0, y_max - CHIP_H) / CHIP_H)
    area = x_max * y_max / (CHIP_W * CHIP_H) + BOUNDARY_PENALTY * overflow
    sched_norm = (critical_path(graph)
                  + sum(m.conf_time for m in graph.modules)) or 1.0
    used = [0, 0, 0]
    for x1, y1, x2, y2 in region_boxes(layer, rect).values():
        x2, y2 = min(x2, CHIP_W), min(y2, CHIP_H)
        if x2 >= x1 and y2 >= y1:
            res = window_resources(x1, x2 - x1 + 1, y2 - y1 + 1)
            used = [u + r for u, r in zip(used, res)]
    hetero = sum(c / u if u > 0 else HETERO_SENTINEL
                 for c, u in zip(CAPACITY, used))
    return (area + makespan / sched_norm + comm_raw(rect, graph) / comm_norm(graph)
            + hetero / HETERO_NORM)


def topological_order(graph: Graph) -> list:
    """Kahn order, stable with respect to module declaration order."""
    succ = {m.id: [] for m in graph.modules}
    indeg = {m.id: 0 for m in graph.modules}
    for s, d, _ in graph.edges:
        succ[s].append(d)
        indeg[d] += 1
    ready = [m.id for m in graph.modules if indeg[m.id] == 0]
    order = []
    while ready:
        m = ready.pop(0)
        order.append(m)
        for d in succ[m]:
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    return order


@functools.cache
def initial_total_cost(graph: Graph) -> float:
    """Cost of the explorer's documented starting point: one region whose
    layers are left-to-right rows of minimum-area rectangles, filled in
    topological order until the next one would pass the chip width."""
    rows = [[]]
    width = 0
    shape = {m.id: min_area_rect(m.demand) for m in graph.modules}
    for m in topological_order(graph):
        if rows[-1] and width + shape[m][0] > CHIP_W:
            rows.append([])
            width = 0
        rows[-1].append(m)
        width += shape[m][0]
    rect, layer = {}, {}
    for i, row in enumerate(rows):
        x = 1
        for m in row:
            rect[m] = (x, 1) + shape[m]
            layer[m] = (0, i)
            x += shape[m][0]
    rs = [(0, i) for i in range(len(rows))]
    _, _, makespan = timeline(rs, layer, graph)
    return total_cost(rect, layer, makespan, graph)


# ----------------------------------------------------------------------
# plan checks

def _overlap(a, b) -> bool:
    return (a[0] < b[0] + b[2] and b[0] < a[0] + a[2]
            and a[1] < b[1] + b[3] and b[1] < a[1] + a[3])


def check_geometry(plan: Plan, graph: Graph) -> list:
    """Chip bounds, alignment, overlaps, region boxes, demand at placed x."""
    problems = []
    mods = graph.by_id()
    if sorted(plan.ps) != sorted(mods) or sorted(plan.qs) != sorted(mods):
        return ["ps/qs are not permutations of the graph's modules"]
    for m, (x, y, w, h) in plan.rect.items():
        if x < 1 or y < 1 or x + w - 1 > CHIP_W or y + h - 1 > CHIP_H:
            problems.append(f"{m} leaves the chip: {(x, y, w, h)}")
            continue
        if (y - 1) % QUANTUM or h % QUANTUM:
            problems.append(f"{m} is not aligned to {QUANTUM} rows")
            continue
        have = window_resources(x, w, h)
        if any(hv < need for hv, need in zip(have, mods[m].demand)):
            problems.append(f"{m} at x={x} holds {have} < demand "
                            f"{mods[m].demand}")
    ids = list(plan.rect)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if plan.layer[a] == plan.layer[b] and _overlap(plan.rect[a],
                                                           plan.rect[b]):
                problems.append(f"{a} and {b} overlap in layer {plan.layer[a]}")
    boxes = region_boxes(plan.layer, plan.rect)
    regions = sorted(boxes)
    for i, r in enumerate(regions):
        for s in regions[i + 1:]:
            a, b = boxes[r], boxes[s]
            if _overlap((a[0], a[1], a[2] - a[0] + 1, a[3] - a[1] + 1),
                        (b[0], b[1], b[2] - b[0] + 1, b[3] - b[1] + 1)):
                problems.append(f"region boxes {r} and {s} overlap")
    coords, _, _ = pack(plan.ps, plan.qs, plan.layer, plan.shapes())
    packed = {m: coords[m] + plan.rect[m][2:] for m in plan.ps}
    own_boxes = region_boxes(plan.layer, packed)
    for m, (x, y, w, h) in plan.rect.items():
        x1, y1, x2, y2 = own_boxes[plan.layer[m][0]]
        if not (x1 <= x and y1 <= y and x + w - 1 <= x2 and y + h - 1 <= y2):
            problems.append(f"{m} lies outside its region box {own_boxes[plan.layer[m][0]]}")
    return problems


def check_order(plan: Plan, graph: Graph) -> list:
    """rs lists each used layer once and respects every dependency."""
    if sorted(set(plan.layer.values())) != sorted(plan.rs) or \
            len(set(plan.rs)) != len(plan.rs):
        return ["rs does not list each used layer exactly once"]
    pos = {key: i for i, key in enumerate(plan.rs)}
    return [f"dependency {s}->{d} runs against rs order"
            for s, d, _ in graph.edges
            if pos[plan.layer[s]] > pos[plan.layer[d]]]


def check_plan(plan: Plan, graph: Graph, makespan: float, comm: float,
               total: float, initial_total: float | None = None,
               rrt=()) -> list:
    """Every plan check against the reported makespan, raw communication
    cost and total cost (and, for explored plans, the starting cost)."""
    problems = check_geometry(plan, graph) + check_order(plan, graph)
    if problems:
        return problems
    _, _, own_makespan = timeline(plan.rs, plan.layer, graph)
    if not close(own_makespan, makespan):
        problems.append(f"makespan {makespan} != recomputed {own_makespan}")
    if makespan < critical_path(graph) - REL_TOL:
        problems.append(f"makespan {makespan} below the critical path")
    if makespan < sum(m.conf_time for m in graph.modules) - REL_TOL:
        problems.append(f"makespan {makespan} below the total configuration time")
    own_comm = comm_raw(plan.rect, graph)
    if not close(own_comm, comm):
        problems.append(f"communication cost {comm} != recomputed {own_comm}")
    own_total = total_cost(plan.rect, plan.layer, own_makespan, graph)
    if not close(own_total, total):
        problems.append(f"total cost {total} != recomputed {own_total}")
    if initial_total is not None and total > initial_total + REL_TOL:
        problems.append(f"total cost {total} above the initial {initial_total}")
    for v in rrt:
        if not 0.0 <= v <= 1.0:
            problems.append(f"resource reuse {v} outside [0, 1]")
    return problems


def plan_rrt(plan: Plan, graph: Graph) -> tuple:
    """Resource reuse per kind: region resources weighted by the region's
    busy time (configuration plus each layer's first-start-to-last-end
    execution span), over chip capacity times the makespan."""
    mods = graph.by_id()
    start, end, makespan = timeline(plan.rs, plan.layer, graph)
    members = {}
    for m in mods:
        members.setdefault(plan.layer[m], []).append(m)
    busy = {}
    for key, ms in members.items():
        busy[key[0]] = (busy.get(key[0], 0.0)
                        + sum(mods[m].conf_time for m in ms)
                        + max(end[m] for m in ms) - min(start[m] for m in ms))
    weighted = [0.0, 0.0, 0.0]
    for r, (x1, y1, x2, y2) in region_boxes(plan.layer, plan.rect).items():
        res = window_resources(x1, x2 - x1 + 1, y2 - y1 + 1)
        weighted = [a + b * busy[r] for a, b in zip(weighted, res)]
    return tuple(w / (makespan * c) for w, c in zip(weighted, CAPACITY))


# ----------------------------------------------------------------------
# post-optimisation checks

def printed_objective(stdout: str) -> float | None:
    """The objective `pdrplan postopt` prints when it solves to optimality."""
    for line in stdout.splitlines():
        if line.startswith("optimal objective="):
            return float(line.split("=", 1)[1])
    return None


def slack(plan: Plan) -> int:
    """(W - x_max) + (H - y_max) of the plan's shapes under own packing."""
    _, x_max, y_max = pack(plan.ps, plan.qs, plan.layer, plan.shapes())
    return (CHIP_W - x_max) + (CHIP_H - y_max)


def check_postopt(before: Plan, after: Plan, graph: Graph, exit_code: int,
                  objective: float | None) -> list:
    """Repair checks: structure kept, shapes cover demand everywhere, the
    printed objective equals own packing's slack, and the repaired plan
    passes the plan checks.  check_highs confirms the objective."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if (after.ps, after.qs, after.rs, after.layer) != \
            (before.ps, before.qs, before.rs, before.layer):
        problems.append("ps, qs, rs or the partition changed")
    mods = graph.by_id()
    for m, (w, h) in after.shapes().items():
        if not covers_everywhere(mods[m].demand, w, h):
            problems.append(f"{m}: {w}x{h} misses its demand at some offset")
    if objective is None:
        return problems + ["no optimal objective printed"]
    own = slack(after)
    if own != objective:
        problems.append(f"printed objective {objective} != own packing slack {own}")
    comm = after.metrics.get("comm", math.nan) * comm_norm(graph)
    return problems + check_plan(after, graph, after.metrics.get("makespan", -1.0),
                                 comm, after.metrics.get("total", -1.0))


# ----------------------------------------------------------------------
# LP files and HiGHS

_TERM = re.compile(r"([+-])?\s*(\d+(?:\.\d+)?)?\s*([A-Za-z_][\w.]*)?")


def _linear(expr: str):
    """'a - 3 b + 5' -> ({'a': 1, 'b': -3}, 5.0)."""
    coeffs, const = {}, 0.0
    for sign, num, var in _TERM.findall(expr):
        if not num and not var:
            continue
        value = float(num) if num else 1.0
        if sign == "-":
            value = -value
        if var:
            coeffs[var] = coeffs.get(var, 0.0) + value
        else:
            const += value
    return coeffs, const


@dataclass
class LPModel:
    sense: str  # 'max' or 'min'
    objective: dict
    constant: float
    rows: list  # (coeffs, sense, rhs)
    binaries: set


def parse_lp(text: str) -> LPModel:
    """CPLEX LP text as the planner exports it: one objective, one row per
    line, empty Bounds (so every variable is >= 0) and a Binary list."""
    section = None
    sense = None
    objective, constant, rows, binaries = {}, 0.0, [], set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "minimize"):
            sense, section = low[:3], "obj"
            continue
        if low in ("subject to", "bounds", "binary", "end"):
            section = low
            continue
        if section == "obj":
            objective, constant = _linear(line.split(":", 1)[1])
        elif section == "subject to":
            body = line.split(":", 1)[1]
            m = re.match(r"(.*?)(<=|>=|=)\s*(-?\d+(?:\.\d+)?)\s*$", body)
            if not m:
                raise ValueError(f"unreadable LP row {line!r}")
            coeffs, const = _linear(m.group(1))
            rows.append((coeffs, m.group(2), float(m.group(3)) - const))
        elif section == "binary":
            binaries.update(line.split())
        elif section == "bounds":
            raise ValueError(f"unexpected LP bound {line!r}")
    if sense is None:
        raise ValueError("LP has no objective")
    return LPModel(sense, objective, constant, rows, binaries)


def check_highs(lp_text: str, objective: float | None) -> list:
    """The printed objective is the optimum HiGHS finds on the LP file."""
    best = highs_optimum(parse_lp(lp_text))
    if objective is None or best is None or not close(best, objective):
        return [f"printed objective {objective} != HiGHS optimum {best}"]
    return []


def highs_optimum(model: LPModel) -> float | None:
    """Optimal objective from HiGHS, or None when it finds no optimum."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    names = sorted({v for c, _, _ in model.rows for v in c}
                   | set(model.objective) | model.binaries)
    index = {v: i for i, v in enumerate(names)}
    sign = -1.0 if model.sense == "max" else 1.0
    c = np.zeros(len(names))
    for v, a in model.objective.items():
        c[index[v]] = sign * a
    a = lil_matrix((len(model.rows), len(names)))
    lo = np.full(len(model.rows), -np.inf)
    hi = np.full(len(model.rows), np.inf)
    for i, (coeffs, sense, rhs) in enumerate(model.rows):
        for v, k in coeffs.items():
            a[i, index[v]] = k
        if sense in ("<=", "="):
            hi[i] = rhs
        if sense in (">=", "="):
            lo[i] = rhs
    integral = np.array([1 if v in model.binaries else 0 for v in names])
    upper = np.array([1.0 if v in model.binaries else np.inf for v in names])
    res = milp(c, constraints=LinearConstraint(a.tocsr(), lo, hi),
               integrality=integral, bounds=Bounds(np.zeros(len(names)), upper))
    if res.status != 0:
        return None
    return sign * res.fun + model.constant
