"""Shared builders and reference oracles for PST-level tests: small graphs,
random valid PSTs, the exhaustive shape-reselection oracles, and plain
reference versions of packing, scheduling, insertion points, rough scoring
and its extents, chip window counts and shape generation that the
optimised code in src/ must agree with."""

import itertools
import random

from pdrplan.chip import ChipModel, Rect, ResourceVector
from pdrplan.delta import PlanState
from pdrplan.errors import InfeasibleModuleError
from pdrplan.explore import Candidate, apply_candidate
from pdrplan.pst import (PST, Placement, ScheduleResult, block_offsets, pack,
                         schedule)
from pdrplan.shapes import (Shape, ShapeList, aspect_ratio, initial_width,
                            min_height_for_width)
from pdrplan.taskgraph import Edge, TaskGraph, TaskModule

TOY_CHIP = ChipModel(width=40, height=60, bram_cols=frozenset({3, 17}),
                     dsp_cols=frozenset({9, 25}), macro_rows_per_col=24,
                     quantum=5)


def make_graph(n, edges=(), exec_time=10.0, conf=1.0, demand=(10, 0, 0)):
    mods = [TaskModule(f"m{i}", ResourceVector(*demand), exec_time, conf)
            for i in range(1, n + 1)]
    return TaskGraph(mods, [Edge(s, d, w) for s, d, w in edges])


def single_layer_pst(ids, region=0, layer=0):
    """All modules in one layer, ps == qs (a left-to-right row)."""
    ids = list(ids)
    key = (region, layer)
    return PST(ps=ids, qs=ids, rs=[key], partition={m: key for m in ids})


def plan_state(pst, shapes, g, chip, w):
    """The PlanState of pst built from scratch, from pack and schedule."""
    return PlanState(pst, shapes, g, chip, w, pack(pst, shapes),
                     schedule(pst, g))


def random_pst(rng: random.Random, ids, max_regions=3, max_layers=3):
    """Uniformly sloppy but structurally valid PST over the given modules.

    Modules are dealt into regions and layers at random; region blocks and
    layer blocks are shuffled independently in ps and qs, and module order
    inside a layer is shuffled independently too.  rs is a random
    interleaving, so use graphs without edges unless dependency order is
    arranged separately.
    """
    ids = list(ids)
    rng.shuffle(ids)
    n_regions = rng.randint(1, min(max_regions, len(ids)))
    partition = {}
    layers_of_region = {}
    for m in ids:
        r = rng.randrange(n_regions)
        l = rng.randrange(1, max_layers + 1)
        partition[m] = (r, l)
        layers_of_region.setdefault(r, set()).add((r, l))

    def sequence():
        seq = []
        regions = sorted(layers_of_region)
        rng.shuffle(regions)
        for r in regions:
            layer_keys = sorted(layers_of_region[r])
            rng.shuffle(layer_keys)
            for key in layer_keys:
                members = [m for m in ids if partition[m] == key]
                rng.shuffle(members)
                seq.extend(members)
        return seq

    rs = sorted({key for key in partition.values()})
    rng.shuffle(rs)
    return PST(ps=sequence(), qs=sequence(), rs=rs, partition=partition)


def layered_pst(rng: random.Random, g: TaskGraph, max_regions=3,
                avg_layer_size=3):
    """Random PST whose rs order respects the graph's dependencies.

    Slices a random topological order into consecutive layers and deals
    the layers over regions; rs keeps slice order, so every predecessor
    sits in the same or an earlier-configured layer.
    """
    order = list(g.topological_order())
    # randomize among independent prefixes: shuffle then stable topo-fix
    indeg = {m.id: 0 for m in g.modules}
    for e in g.edges:
        indeg[e.dst] += 1
    ready = [m.id for m in g.modules if indeg[m.id] == 0]
    order = []
    while ready:
        rng.shuffle(ready)
        mid = ready.pop()
        order.append(mid)
        for nxt in g.successors[mid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)

    slices = []
    i = 0
    while i < len(order):
        size = rng.randint(1, max(1, 2 * avg_layer_size - 1))
        slices.append(order[i:i + size])
        i += size
    n_regions = rng.randint(1, max_regions)
    next_layer = {r: 0 for r in range(n_regions)}
    partition = {}
    rs = []
    for members in slices:
        r = rng.randrange(n_regions)
        key = (r, next_layer[r])
        next_layer[r] += 1
        rs.append(key)
        for m in members:
            partition[m] = key

    layers_by_region = {}
    for key in rs:
        layers_by_region.setdefault(key[0], []).append(key)

    def sequence():
        seq = []
        regions = list(layers_by_region)
        rng.shuffle(regions)
        for r in regions:
            keys = list(layers_by_region[r])
            rng.shuffle(keys)
            for key in keys:
                members = [m for m in partition if partition[m] == key]
                members.sort()
                rng.shuffle(members)
                seq.extend(members)
        return seq

    return PST(ps=sequence(), qs=sequence(), rs=rs, partition=partition)


def uniform_shapes(ids, w=5, h=5):
    return {m: Shape(w, h) for m in ids}


def rects_overlap(a, b):
    return not (a.x_hi < b.x or b.x_hi < a.x or a.y_hi < b.y or b.y_hi < a.y)


def selection_key(pst, shapes, chip):
    """(objective, -total area) of a shape assignment under pack(), or
    None when it leaves the chip."""
    p = pack(pst, shapes)
    if p.x_max > chip.width or p.y_max > chip.height:
        return None
    return ((chip.width - p.x_max) + (chip.height - p.y_max),
            -sum(s.area for s in shapes.values()))


def brute_force_best_key(pst, lists, chip):
    """Exhaustive assignment sweep, each evaluated through pack(): the
    lexicographically largest (objective, -total area), or None."""
    ids = list(pst.ps)
    best = None
    for combo in itertools.product(*(range(len(lists[m].shapes))
                                     for m in ids)):
        shapes = {m: lists[m].shapes[j] for m, j in zip(ids, combo)}
        key = selection_key(pst, shapes, chip)
        if key is not None and (best is None or key > best):
            best = key
    return best


def brute_force_first_best(pst, lists, chip):
    """The sweep of brute_force_best_key, also keeping the selection
    (module id -> shape index) that first reaches the best key: (key,
    selection), or (None, None)."""
    ids = list(pst.ps)
    best = first = None
    for combo in itertools.product(*(range(len(lists[m].shapes))
                                     for m in ids)):
        key = selection_key(pst, {m: lists[m].shapes[j]
                                  for m, j in zip(ids, combo)}, chip)
        if key is not None and (best is None or key > best):
            best, first = key, dict(zip(ids, combo))
    return best, first


def brute_force_best_objective(pst, lists, chip):
    """The objective of brute_force_best_key, or None."""
    key = brute_force_best_key(pst, lists, chip)
    return None if key is None else key[0]


def stacked_repair_instance(seed):
    """A vertical stack whose recorded shapes overflow the chip height,
    while wider/flatter alternates verifiably fit."""
    rng = random.Random(seed)
    k = rng.randint(3, 6)
    ids = [f"m{i}" for i in range(1, k + 1)]
    g = TaskGraph([TaskModule(m, ResourceVector(1, 0, 0), 10.0, 1.0)
                   for m in ids], [])
    # ps reversed vs qs: every pair is a vertical relation (a stack)
    key = (0, 0)
    pst = PST(ps=list(reversed(ids)), qs=ids, rs=[key],
              partition={m: key for m in ids})
    tall_h = 5 * rng.randint((350 // k) // 5 + 1, (500 // k) // 5 + 1)
    lists = {}
    for m in ids:
        tall = Shape(rng.randint(4, 10), tall_h)
        flat = Shape(rng.randint(20, 30), 5 * ((350 // k) // 5))
        ordered = sorted({tall, flat}, key=lambda s: (s.area, s.w))
        lists[m] = ShapeList(m, tuple(ordered))
    # the recorded exploration state: everybody tall
    shapes = {m: next(s for s in lists[m].shapes if s.h == tall_h)
              for m in ids}
    return g, pst, lists, shapes


def exact_rough_evaluate(ev, cand):
    """(shape, score) of a candidate with every shape packed and scheduled.

    The rough evaluator's shape choice and score, computed exactly: each
    shape of the evaluator's list is applied, the PST packed and scheduled
    for real.
    """
    best = None
    new_pst = apply_candidate(ev.pst, ev.moved, cand)
    s = schedule(new_pst, ev.g)
    for shape in ev.shape_list.shapes:
        shapes = dict(ev.shapes)
        shapes[ev.moved] = shape
        p = pack(new_pst, shapes)
        key = (p.x_max * p.y_max, shape.area)
        if best is None or key < best[0]:
            best = (key, shape, p.x_max * p.y_max)
    _, shape, area = best
    score = (ev.w.alpha * area / ev.w.area_norm
             + ev.w.beta * s.makespan / ev.w.schedule_norm)
    return shape, score


def per_candidate_rough(ev, cand):
    """(shape, score) of one candidate, computed without any class sharing.

    Scores every shape through the evaluator's extent estimate and runs
    the layer-granularity schedule recurrence over a fresh copy of rs
    with the candidate inserted.
    """
    g, pst = ev.g, ev.pst
    conf = {k: sum(g.module(x).conf_time or 0.0 for x in mods)
            for k, mods in pst.layer_members.items()}
    emax = {k: max(g.module(x).exec_time for x in mods)
            for k, mods in pst.layer_members.items()}
    rs = list(pst.rs)
    moved = g.module(ev.moved)
    if cand.new_layer:
        rs.insert(cand.rs_pos, cand.layer)
        conf[cand.layer] = moved.conf_time or 0.0
        emax[cand.layer] = moved.exec_time
    else:
        conf[cand.layer] = conf[cand.layer] + (moved.conf_time or 0.0)
        emax[cand.layer] = max(emax[cand.layer], moved.exec_time)
    port = 0.0
    region_end = {}
    makespan = 0.0
    for key in rs:
        start = max(port, region_end.get(key[0], 0.0))
        end = start + conf[key]
        port = end
        layer_end = end + emax[key]
        region_end[key[0]] = layer_end
        if layer_end > makespan:
            makespan = layer_end
    best = None
    for shape in ev.shape_list.shapes:
        (x, y), = ev._extents_of(ev._target(cand), [shape])
        key = (x * y, shape.area)
        if best is None or key < best[0]:
            best = (key, shape, x * y)
    _, shape, area = best
    score = (ev.w.alpha * area / ev.w.area_norm
             + ev.w.beta * makespan / ev.w.schedule_norm)
    return shape, score


def reference_approx_extents(ev, cand, shape):
    """Rough design extents of a candidate, its region sized by a scan.

    The resized region is as wide and as tall as the larger of the grown
    target layer (its best of side by side and stacked; a fresh layer is
    the shape itself) and every other layer of the region, each layer
    measured on pack's placement of the evaluator's PST.  The design
    extents come from one region longest path with that size.  A fresh
    region keeps the corner rule: it extends the design's row or its
    column.
    """
    if cand.new_region:
        if cand.ps_pos == cand.qs_pos or not ev.pst.ps:
            return ev.x_base + shape.w, max(ev.y_base, shape.h)
        return max(ev.x_base, shape.w), ev.y_base + shape.h
    p = pack(ev.pst, ev.shapes)
    width, height = {}, {}
    for r, box in p.region_boxes.items():
        width[r], height[r] = box.w, box.h
    region = cand.layer[0]
    rw = rh = 0
    for key in ev.pst.region_layers[region]:
        rects = [p.coords[m] for m in ev.pst.layer_members[key]]
        lw = max(r.x_hi for r in rects) - min(r.x for r in rects) + 1
        lh = max(r.y_hi for r in rects) - min(r.y for r in rects) + 1
        if key == cand.layer:
            side = (lw + shape.w, max(lh, shape.h))
            stack = (max(lw, shape.w), lh + shape.h)
            lw, lh = min(side, stack, key=lambda t: t[0] * t[1])
        rw, rh = max(rw, lw), max(rh, lh)
    if cand.new_layer:
        rw, rh = max(rw, shape.w), max(rh, shape.h)
    width[region], height[region] = rw, rh
    off_x, off_y, _, _ = block_offsets(*ev.pst.region_spans, width, height)
    return (max(off_x[r] + width[r] for r in off_x),
            max(off_y[r] + height[r] for r in off_y))


def scan_min_column_counts(chip, w):
    """Componentwise minimum of column_counts over every x offset."""
    counts = [chip.column_counts(x, w) for x in range(1, chip.width - w + 2)]
    return tuple(min(c[k] for c in counts) for k in range(3))


def module_level_pack(pst, shapes):
    """Reference pack: one longest path over all module pairs.

    Two modules are related iff they sit in different regions or share a
    layer; x and y come from the filtered sequence pair in O(n^2).
    pdrplan.pst.pack must return an equal Placement, dict order included.
    """
    ps, qs = pst.ps, pst.qs
    n = len(ps)
    part = pst.partition
    qpos = {m: i for i, m in enumerate(qs)}
    q = [qpos[m] for m in ps]
    reg = [part[m][0] for m in ps]
    lay = [part[m] for m in ps]
    w = [shapes[m].w for m in ps]
    h = [shapes[m].h for m in ps]

    x0 = [0] * n
    for j in range(n):
        qj, rj, lj = q[j], reg[j], lay[j]
        best = 0
        for i in range(j):
            if q[i] < qj and (reg[i] != rj or lay[i] == lj):
                v = x0[i] + w[i]
                if v > best:
                    best = v
        x0[j] = best

    ppos = {m: i for i, m in enumerate(ps)}
    p_of_q = [ppos[m] for m in qs]
    y0 = [0] * n
    for jq in range(n):
        jp = p_of_q[jq]
        rj, lj = reg[jp], lay[jp]
        best = 0
        for iq in range(jq):
            ip = p_of_q[iq]
            if ip > jp and (reg[ip] != rj or lay[ip] == lj):
                v = y0[ip] + h[ip]
                if v > best:
                    best = v
        y0[jp] = best

    coords = {}
    boxes: dict = {}
    x_max = y_max = 0
    for idx, m in enumerate(ps):
        r = Rect(x0[idx] + 1, y0[idx] + 1, w[idx], h[idx])
        coords[m] = r
        x_max = max(x_max, r.x_hi)
        y_max = max(y_max, r.y_hi)
        region = reg[idx]
        if region in boxes:
            bx1, by1, bx2, by2 = boxes[region]
            boxes[region] = (min(bx1, r.x), min(by1, r.y),
                             max(bx2, r.x_hi), max(by2, r.y_hi))
        else:
            boxes[region] = (r.x, r.y, r.x_hi, r.y_hi)
    region_boxes = {
        region: Rect(bx1, by1, bx2 - bx1 + 1, by2 - by1 + 1)
        for region, (bx1, by1, bx2, by2) in boxes.items()
    }
    return Placement(coords=coords, region_boxes=region_boxes,
                     x_max=x_max, y_max=y_max)


def reference_schedule(pst, g):
    """Reference schedule: a Kahn sweep inside each layer, in ps order.

    Times each layer's modules as their intra-layer predecessors finish,
    independently of the graph's stored topological order.
    pdrplan.pst.schedule must return an equal ScheduleResult.
    """
    members = pst.layer_members
    preds = g.predecessors
    config_start, config_end, exec_start, exec_end = {}, {}, {}, {}
    layer_exec_end, region_prev = {}, {}
    port_free = 0.0
    present = set(pst.partition)
    for key in pst.rs:
        mods = members[key]
        conf_sum = 0.0
        for m in mods:
            conf_sum += g.module(m).conf_time
        start = port_free
        prev = region_prev.get(key[0])
        if prev is not None:
            start = max(start, layer_exec_end[prev])
        config_start[key] = start
        config_end[key] = start + conf_sum
        port_free = config_end[key]
        region_prev[key[0]] = key

        mods_set = set(mods)
        remaining = {m: sum(1 for p in preds[m] if p in mods_set) for m in mods}
        ready = [m for m in mods if remaining[m] == 0]
        done = 0
        while ready:
            m = ready.pop(0)
            done += 1
            start_t = config_end[key]
            for p in preds[m]:
                if p in present:
                    start_t = max(start_t, exec_end[p])
            exec_start[m] = start_t
            exec_end[m] = start_t + g.module(m).exec_time
            for succ in g.successors[m]:
                if succ in remaining and remaining[succ] > 0:
                    remaining[succ] -= 1
                    if remaining[succ] == 0:
                        ready.append(succ)
        assert done == len(mods), f"unresolved intra-layer dependency in {key}"
        layer_exec_end[key] = max(exec_end[m] for m in mods)
    makespan = max(exec_end.values(), default=0.0)
    return ScheduleResult(config_start, config_end, exec_start, exec_end,
                          makespan)


def eager_insertions(pst, m, g):
    """Every insertion point of pdrplan.explore.enumerate_insertions as a
    list built at once, in the same order: existing layers at every slot
    pair, each region's fresh layer at every rs slot, then a fresh region
    at each corner and rs slot."""
    layer_ps, layer_qs = pst.layer_spans
    region_ps, region_qs = pst.region_spans
    rs_index = {key: i for i, key in enumerate(pst.rs)}
    max_pred = max((rs_index[pst.partition[p]] for p in g.predecessors[m]
                    if p in pst.partition), default=-1)
    min_succ = min((rs_index[pst.partition[s]] for s in g.successors[m]
                    if s in pst.partition), default=len(pst.rs))
    cands = []
    for key in pst.rs:
        t = rs_index[key]
        if not max_pred <= t <= min_succ:
            continue
        a, b = layer_ps[key]
        c, d = layer_qs[key]
        for i in range(a, b + 2):
            for j in range(c, d + 2):
                cands.append(Candidate(layer=key, ps_pos=i, qs_pos=j,
                                       rs_pos=t, new_layer=False,
                                       new_region=False))
    rs_lo, rs_hi = max_pred + 1, min_succ
    for region in sorted(region_ps):
        key = (region, 1 + max(k[1] for k in pst.region_layers[region]))
        i = region_ps[region][1] + 1
        j = region_qs[region][1] + 1
        for p in range(rs_lo, rs_hi + 1):
            cands.append(Candidate(layer=key, ps_pos=i, qs_pos=j, rs_pos=p,
                                   new_layer=True, new_region=False))
    new_region = 1 + max(pst.region_layers, default=-1)
    corners = sorted({(i, j) for i in (0, len(pst.ps))
                      for j in (0, len(pst.qs))})
    for i, j in corners:
        for p in range(rs_lo, rs_hi + 1):
            cands.append(Candidate(layer=(new_region, 0), ps_pos=i, qs_pos=j,
                                   rs_pos=p, new_layer=True, new_region=True))
    return cands


def sweep_shapes(module, chip, cfg):
    """The ShapeList of pdrplan.shapes.generate by the plain width sweep:
    one min_height_for_width call, one Shape and one aspect_ratio per
    width."""
    kept = []
    seen_heights = set()
    best_any = None
    for w in range(initial_width(module, chip), chip.width + 1):
        h = min_height_for_width(module, chip, w)
        if h is None:
            continue
        shape = Shape(w, h)
        if best_any is None or (shape.area, shape.w) < (best_any.area,
                                                        best_any.w):
            best_any = shape
        if h in seen_heights:
            continue
        if aspect_ratio(shape, chip) <= cfg.gamma_ar:
            kept.append(shape)
            seen_heights.add(h)
    if best_any is None:
        raise InfeasibleModuleError(f"module {module.id}: no rectangle")
    if best_any not in kept:
        kept = [s for s in kept if s.h != best_any.h]
        kept.append(best_any)
    kept.sort(key=lambda s: (s.area, s.w))
    return ShapeList(module.id, tuple(kept[:cfg.n]))
