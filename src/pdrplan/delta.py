"""The annealing chain's kept plan state, and exact move costs from it.

A PlanState keeps what packing, scheduling and costing a plan gave, in
the pieces a move changes: each layer's packed size, its members in ps,
qs and topological order, its configuration sum, its largest execution time
and its end; each region's box; each module's centre and finish time and
each layer's configuration end; one communication term per edge.  Its
constructor builds it from scratch from pst.pack and pst.schedule.

An annealing move deletes a module m and offers a few insertion points
for it.  The deletion changes one layer, and so does each point:

* Base.  PlanState.without(m) is the state of the PST without m.  It
  repacks m's layer alone (pst.pack_layer; an emptied layer or region
  goes), places the regions again (pst.region_offsets) and shifts the
  centres of the regions whose offset changed.  It recomputes the terms
  of the edges that touch a moved centre (m's own edges get None) and
  replays the schedule (pst.run_layers) from m's rs slot: every successor
  of m sits at or after it, so the layers before it keep their times.
  explore.RoughEvaluator and MoveBase read this base.
* Candidate.  MoveBase.costs repacks the point's layer with m in its
  slots; a fresh layer or region holds m alone.  Every other module keeps
  its base position inside its region.  The grown layer covers the one
  it grew from, so its region becomes max(base size, layer size).  The
  regions are placed again, a fresh region as a one-slot block at its
  corner, and the centres of regions whose offset changed shift.
  Communication is a copy of the base terms with the edges of moved
  centres recomputed, summed left to right in edge order; hetero comes
  from the new region boxes, and the schedule replays from the point's
  rs slot.  pst.costs_of combines the terms.
* Accepted.  Trial.state builds the next PlanState from what costs
  computed for the winner.

Every value equals the from-scratch one, float for float: centres are
half integers, so shifting one is exact, each term is pst.comm_between's
expression, and the left-to-right sum of the terms is its total.  So a
candidate's cost equals pst.evaluate's on the applied PST.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import add

from .pst import costs_of, hetero_of, pack_layer, region_offsets, run_layers


def _layer_sums(g, mods) -> tuple:
    """(configuration sum in ps order, largest execution time) of a layer."""
    conf_of, exec_of = g.conf_times, g.exec_times
    conf = 0.0  # left to right, as run_layers sums
    for x in mods:
        conf += conf_of[x]
    return conf, max(exec_of[x] for x in mods)


class PlanState:
    """A PST packed and scheduled, kept in the pieces a move changes.

    Built from scratch from the PST's placement (pst.pack) and timeline
    (pst.schedule).  The PST may lack modules of the graph, as a move's
    base lacks the moved one; an edge with an end outside it has the term
    None.  A state is never changed once built: without and Trial.state
    give new ones.
    """

    def __init__(self, pst, shapes, g, chip, w, placement, timeline):
        self.pst, self.shapes, self.g = pst, shapes, g
        self.chip, self.w = chip, w
        topo = g.topological_order()
        self._topo = {x: i for i, x in enumerate(topo)}
        self._edges = [(e.src, e.dst, e.weight) for e in g.edges]
        self._incident = {x: [] for x in topo}  # module -> its edge indices
        for i, (a, b, _) in enumerate(self._edges):
            self._incident[a].append(i)
            self._incident[b].append(i)

        part = pst.partition
        self.sizes = dict(placement.layer_sizes)
        self.members = {k: tuple(v) for k, v in pst.layer_members.items()}
        by_q: dict = {}
        for x in pst.qs:
            by_q.setdefault(part[x], []).append(x)
        self.members_q = {k: tuple(v) for k, v in by_q.items()}
        order: dict = {}
        for x in topo:
            if x in part:
                order.setdefault(part[x], []).append(x)
        self.order = {k: tuple(v) for k, v in order.items()}
        self.exec_end = dict(timeline.exec_end)
        self.config_end = dict(timeline.config_end)
        self.makespan = timeline.makespan
        self.conf_sum, self.exec_max, self.layer_end = {}, {}, {}
        for key, mods in self.members.items():
            self.conf_sum[key], self.exec_max[key] = _layer_sums(g, mods)
            self.layer_end[key] = max(self.exec_end[x] for x in mods)

        boxes = placement.region_boxes
        self.width = {r: b.w for r, b in boxes.items()}
        self.height = {r: b.h for r, b in boxes.items()}
        self.off_x = {r: b.x - 1 for r, b in boxes.items()}
        self.off_y = {r: b.y - 1 for r, b in boxes.items()}
        self.x_max, self.y_max = placement.x_max, placement.y_max
        cx = self.cx = {x: r.x + (r.w - 1) / 2
                        for x, r in placement.coords.items()}
        cy = self.cy = {x: r.y + (r.h - 1) / 2
                        for x, r in placement.coords.items()}
        self.terms = [wt * (abs(cx[a] - cx[b]) + abs(cy[a] - cy[b]))
                      if a in cx and b in cx else None
                      for a, b, wt in self._edges]

    def _derive(self) -> "PlanState":
        """A copy sharing every field; the caller replaces what changes."""
        new = object.__new__(PlanState)
        new.__dict__.update(self.__dict__)
        return new

    def before(self, t: int) -> tuple:
        """(port, region ends, latest finish) of the schedule before rs
        slot t."""
        rs, ends = self.pst.rs, self.layer_end
        region_end: dict = {}
        latest = 0.0
        for k in rs[:t]:
            end = region_end[k[0]] = ends[k]
            if end > latest:
                latest = end
        return (self.config_end[rs[t - 1]] if t else 0.0), region_end, latest

    def centres(self, ps, region_ps, off_x, off_y, r, layer, local_x, local_y,
                shapes) -> tuple:
        """New centres with the regions at off_x, off_y: every region whose
        offset changed shifts (ps and region_ps hold the regions' modules;
        a region missing from off_x is gone), and layer, repacked in
        region r, is placed from local_x and local_y.  Returns (cx, cy,
        the modules whose centre was set)."""
        cx, cy = dict(self.cx), dict(self.cy)
        moved = []
        old_y = self.off_y
        for q, x0 in self.off_x.items():
            x1 = off_x.get(q)
            if x1 is None:
                continue
            dx, dy = x1 - x0, off_y[q] - old_y[q]
            if dx or dy:
                first, last = region_ps[q]
                block = ps[first:last + 1]
                for x in block:
                    cx[x] += dx
                    cy[x] += dy
                moved += block
        if layer:
            x0, y0 = off_x[r] + 1, off_y[r] + 1
            for x in layer:
                shape = shapes[x]
                cx[x] = x0 + local_x[x] + (shape.w - 1) / 2
                cy[x] = y0 + local_y[x] + (shape.h - 1) / 2
            moved += layer
        return cx, cy, moved

    def terms_with(self, cx, cy, moved) -> list:
        """A copy of the terms with every edge of a moved module
        recomputed from cx and cy."""
        terms = list(self.terms)
        edges, incident = self._edges, self._incident
        for x in moved:
            for i in incident[x]:
                a, b, wt = edges[i]
                terms[i] = wt * (abs(cx[a] - cx[b]) + abs(cy[a] - cy[b]))
        return terms

    def without(self, m: str) -> "PlanState":
        """The base of a move that deletes module m: this state without m."""
        pst, g, shapes = self.pst, self.g, self.shapes
        key = pst.partition[m]
        r, t = key[0], pst.rs.index(key)
        new = pst.without(m)
        base = self._derive()
        base.pst = new
        sizes, order = dict(self.sizes), dict(self.order)
        members, members_q = dict(self.members), dict(self.members_q)
        conf_sum, exec_max = dict(self.conf_sum), dict(self.exec_max)
        config_end, layer_end = dict(self.config_end), dict(self.layer_end)
        layer = tuple(x for x in members[key] if x != m)
        local_x: dict = {}
        local_y: dict = {}
        if layer:
            by_q = members_q[key] = tuple(x for x in members_q[key] if x != m)
            sizes[key] = pack_layer(layer, by_q, shapes, local_x, local_y)
            members[key] = layer
            order[key] = tuple(x for x in order[key] if x != m)
            conf_sum[key], exec_max[key] = _layer_sums(g, layer)
        else:
            for d in (sizes, members, members_q, order, conf_sum, exec_max,
                      config_end, layer_end):
                del d[key]
        width, height = dict(self.width), dict(self.height)
        region_keys = new.region_layers.get(r)
        if region_keys:
            width[r] = max(sizes[k][0] for k in region_keys)
            height[r] = max(sizes[k][1] for k in region_keys)
        else:
            del width[r], height[r]
        off_x, off_y = region_offsets(*new.region_spans, width, height)

        cx, cy, moved = self.centres(new.ps, new.region_spans[0], off_x, off_y,
                                     r, layer, local_x, local_y, shapes)
        terms = self.terms_with(cx, cy, moved)
        for i in self._incident[m]:
            terms[i] = None
        del cx[m], cy[m]

        port, region_end, latest = self.before(t)
        exec_end = dict(self.exec_end)
        del exec_end[m]
        layers = ((k, members[k], order[k]) for k in new.rs[t:])
        base.makespan = run_layers(layers, g, new.partition, port, region_end,
                                   exec_end, latest,
                                   ({}, config_end, {}, layer_end))
        base.sizes, base.order = sizes, order
        base.members, base.members_q = members, members_q
        base.conf_sum, base.exec_max = conf_sum, exec_max
        base.config_end, base.layer_end = config_end, layer_end
        base.exec_end = exec_end
        base.width, base.height = width, height
        base.off_x, base.off_y = off_x, off_y
        base.x_max = max((off_x[q] + width[q] for q in off_x), default=0)
        base.y_max = max((off_y[q] + height[q] for q in off_x), default=0)
        base.cx, base.cy, base.terms = cx, cy, terms
        return base


class Trial:
    """One candidate costed from a move's base: its CostBreakdown (cost)
    and the pieces of the state it leads to, which state assembles."""

    __slots__ = ("base", "cand", "cost", "_parts")

    def __init__(self, base, cand, cost, parts):
        self.base, self.cand, self.cost, self._parts = base, cand, cost, parts

    def state(self, pst, shapes) -> PlanState:
        """The PlanState of the applied candidate, pst with shapes."""
        base, key = self.base, self.cand.layer
        st = base._derive()
        (layer, by_q, order, size, st.width, st.height, st.off_x, st.off_y,
         st.x_max, st.y_max, st.cx, st.cy, st.terms, st.exec_end, st.makespan,
         config_end, layer_end) = self._parts
        st.pst, st.shapes = pst, shapes
        st.sizes = {**base.sizes, key: size}
        st.members = {**base.members, key: layer}
        st.members_q = {**base.members_q, key: by_q}
        st.order = {**base.order, key: order}
        conf, emax = _layer_sums(base.g, layer)
        st.conf_sum = {**base.conf_sum, key: conf}
        st.exec_max = {**base.exec_max, key: emax}
        st.config_end = {**base.config_end, **config_end}
        st.layer_end = {**base.layer_end, **layer_end}
        return st


class MoveBase:
    """The exact costing of one move's candidates from its base, the
    PlanState of the PST without the moved module.  costs(cand) gives a
    candidate's Trial; cand.shape is the moved module's shape."""

    def __init__(self, base: PlanState, moved: str):
        self.base, self.moved = base, moved
        self.placed = {*base.pst.partition, moved}
        self._states: dict = {}  # rs slot -> schedule state before it
        self._replays: dict = {}  # (layer, rs slot, conf sum) -> _replay

    def _replay(self, cand, layer) -> tuple:
        """The schedule with the candidate's layer (layer in ps order) at
        its slot: the base state before the slot, then the replay.

        Returns (the layer in topological order, makespan, finish times,
        the replayed layers' configuration ends and ends).  Points of one
        layer and slot differ only in the order of the configuration sum,
        so a replay serves every point whose sum is the same float.
        """
        base, key, t = self.base, cand.layer, cand.rs_pos
        conf_of = base.g.conf_times
        conf = 0.0  # left to right, as run_layers sums
        for x in layer:
            conf += conf_of[x]
        done = self._replays.get((key, t, conf))
        if done is not None:
            return done
        state = self._states.get(t)
        if state is None:
            state = self._states[t] = base.before(t)
        port, region_end, latest = state
        m, topo = self.moved, base._topo
        order = list(base.order.get(key, ()))
        order.insert(bisect_left(order, topo[m], key=topo.__getitem__), m)
        layers = [(key, layer, order)]
        layers += [(k, base.members[k], base.order[k])
                   for k in base.pst.rs[t + (not cand.new_layer):]]
        exec_end = dict(base.exec_end)
        config_end: dict = {}
        layer_end: dict = {}
        makespan = run_layers(layers, base.g, self.placed, port,
                              dict(region_end), exec_end, latest,
                              ({}, config_end, {}, layer_end))
        done = self._replays[key, t, conf] = (tuple(order), makespan, exec_end,
                                              config_end, layer_end)
        return done

    def costs(self, cand) -> Trial:
        """The candidate applied to the base, costed: its Trial."""
        base, m, key = self.base, self.moved, cand.layer
        pst = base.pst
        r = key[0]
        if cand.new_layer:
            layer = by_q = (m,)
            shapes = {m: cand.shape}
        else:
            (a, b), (c, d) = pst.layer_spans[0][key], pst.layer_spans[1][key]
            i, j = cand.ps_pos, cand.qs_pos
            layer = (*pst.ps[a:i], m, *pst.ps[i:b + 1])
            by_q = (*pst.qs[c:j], m, *pst.qs[j:d + 1])
            shapes = {x: base.shapes[x] for x in layer if x != m}
            shapes[m] = cand.shape
        local_x: dict = {}
        local_y: dict = {}
        size = pack_layer(layer, by_q, shapes, local_x, local_y)
        width, height = dict(base.width), dict(base.height)
        width[r] = max(width.get(r, 0), size[0])
        height[r] = max(height.get(r, 0), size[1])
        ps_span, qs_span = pst.region_spans
        if cand.new_region:
            end = len(pst.ps)
            ps_span = ({r: (-1, -1), **ps_span} if cand.ps_pos == 0
                       else {**ps_span, r: (end, end)})
            qs_span = ({r: (-1, -1), **qs_span} if cand.qs_pos == 0
                       else {**qs_span, r: (end, end)})
        off_x, off_y = region_offsets(ps_span, qs_span, width, height)
        cx, cy, moved = base.centres(pst.ps, pst.region_spans[0], off_x, off_y,
                                     r, layer, local_x, local_y, shapes)
        terms = base.terms_with(cx, cy, moved)

        order, makespan, exec_end, config_end, layer_end = self._replay(
            cand, layer)

        x_max = max(off_x[q] + width[q] for q in off_x)
        y_max = max(off_y[q] + height[q] for q in off_x)
        boxes = [(off_x[q] + 1, off_y[q] + 1, width[q], height[q])
                 for q in off_x]
        cost = costs_of(x_max, y_max, makespan, reduce(add, terms, 0.0),
                        hetero_of(boxes, base.chip), base.chip, base.w)
        return Trial(base, cand, cost, (
            layer, by_q, order, size, width, height, off_x, off_y, x_max,
            y_max, cx, cy, terms, exec_end, makespan, config_end, layer_end))
