"""The annealing chain's kept plan state, and exact move costs from it.

A PlanState keeps what packing, scheduling and costing a plan gave, in
the pieces a move changes: each layer's packed size, its members in ps
and topological order, its configuration sum, its largest execution time
and its end; each region's box; each module's centre and finish time and
each layer's configuration end; one communication term per edge.  Its
constructor builds it from scratch from pst.pack and pst.schedule.

An annealing move deletes a module m and offers a few insertion points
for it.  The deletion changes one layer, and so does each point, so all
three of the states a move meets come from one edit of one layer:

* Base.  PlanState.without(m) is the state of the PST without m.  m's
  layer loses m; an emptied layer or region goes.
* Point.  base.costs(m, cand) costs an insertion point from the base:
  the point's layer gains m in its slots, and a fresh layer or region
  holds m alone.  The grown layer covers the one it grew from, so its
  region becomes max(base size, layer size).  A fresh region is a
  one-slot block at its corner of the region sequences.  pst.costs_of
  combines the terms; the point's Trial keeps the edit.
* Accepted.  Trial.state builds the next PlanState from the winner's
  edit.

The edit repacks the changed layer alone (pst.pack_layer), and every
other module keeps its position inside its region.  _place places the
regions again (pst.block_offsets), shifts the centres of the regions
whose offset changed, places the repacked layer and recomputes the terms
of the edges that touch a moved centre.  _replay runs the schedule
(pst.run_layers) from the layer's rs slot: every successor of the edited
layer's modules sits at or after it, so the layers before it keep their
times, and it reads the schedule before the slot from the kept layer
and configuration ends.  _edited assembles the next state from the two.

Every value equals the from-scratch one, float for float: centres are
half integers, so shifting one is exact, each term is pst.comm_between's
expression, and the left-to-right sum of the terms is its total.  So a
point's cost equals pst.evaluate's on the applied PST.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import add

from .pst import (block_offsets, costs_of, hetero_of, layer_orders, pack_layer,
                  run_layers)


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

        self.sizes = dict(placement.layer_sizes)
        self.members = {k: tuple(v) for k, v in pst.layer_members.items()}
        self.order = {k: tuple(v) for k, v in layer_orders(pst, g).items()}
        self.exec_end = dict(timeline.exec_end)
        self.config_end = dict(timeline.config_end)
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

    def _place(self, ps, spans, width, height, r, layer, packed, shapes):
        """The regions placed again with sizes width and height.

        spans are the region blocks' (ps spans, qs spans); a region they
        lack is gone.  Every kept region whose offset changed shifts its
        modules, listed in ps, and layer, repacked in region r, is placed
        from packed, its pack_layer result, with its modules' shapes.
        Every edge of a moved module is recosted.  Returns (width, height,
        off_x, off_y, x_max, y_max, cx, cy, terms).
        """
        off_x, off_y, x_max, y_max = block_offsets(*spans, width, height)
        cx, cy = dict(self.cx), dict(self.cy)
        moved = []
        old_y, region_ps = self.off_y, spans[0]
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
            local_x, local_y = packed[:2]
            x0, y0 = off_x[r] + 1, off_y[r] + 1
            for x in layer:
                shape = shapes[x]
                cx[x] = x0 + local_x[x] + (shape.w - 1) / 2
                cy[x] = y0 + local_y[x] + (shape.h - 1) / 2
            moved += layer
        terms = list(self.terms)
        edges, incident = self._edges, self._incident
        for x in moved:
            for i in incident[x]:
                a, b, wt = edges[i]
                terms[i] = wt * (abs(cx[a] - cx[b]) + abs(cy[a] - cy[b]))
        return width, height, off_x, off_y, x_max, y_max, cx, cy, terms

    def _replay(self, t: int, layers, placed) -> tuple:
        """The schedule before rs slot t, then layers run from it (see
        run_layers; placed holds the modules of the edited plan).

        Returns (makespan, finish times, the replayed layers'
        configuration ends and ends).
        """
        rs, ends = self.pst.rs, self.layer_end
        region_end: dict = {}
        latest = 0.0
        for k in rs[:t]:
            end = region_end[k[0]] = ends[k]
            if end > latest:
                latest = end
        port = self.config_end[rs[t - 1]] if t else 0.0
        exec_end = dict(self.exec_end)
        config_end: dict = {}
        layer_end: dict = {}
        makespan = run_layers(layers, self.g, placed, port, region_end,
                              exec_end, latest,
                              ({}, config_end, {}, layer_end))
        return makespan, exec_end, config_end, layer_end

    def _edited(self, pst, shapes, key, layer, order, size, placed,
                replayed) -> "PlanState":
        """The state of pst with shapes: this one with layer key holding
        layer (ps order; empty when the layer is gone) in order
        (topological), packed to size, and the regions and schedule as
        _place and _replay give them."""
        st = object.__new__(PlanState)
        st.__dict__.update(self.__dict__)
        st.pst, st.shapes = pst, shapes
        (st.width, st.height, st.off_x, st.off_y, st.x_max, st.y_max, st.cx,
         st.cy, st.terms) = placed
        _, st.exec_end, config_end, layer_end = replayed
        st.config_end = {**self.config_end, **config_end}
        st.layer_end = {**self.layer_end, **layer_end}
        st.sizes, st.members = dict(self.sizes), dict(self.members)
        st.order, st.conf_sum = dict(self.order), dict(self.conf_sum)
        st.exec_max = dict(self.exec_max)
        if layer:
            st.sizes[key], st.members[key], st.order[key] = size, layer, order
            st.conf_sum[key], st.exec_max[key] = _layer_sums(self.g, layer)
        else:
            for d in (st.sizes, st.members, st.order, st.conf_sum,
                      st.exec_max, st.config_end, st.layer_end):
                del d[key]
        return st

    def without(self, m: str) -> "PlanState":
        """The base of a move that deletes module m: this state without m."""
        key = self.pst.partition[m]
        r, t = key[0], self.pst.rs.index(key)
        new = self.pst.without(m)
        layer = tuple(x for x in self.members[key] if x != m)
        order = tuple(x for x in self.order[key] if x != m)
        width, height = dict(self.width), dict(self.height)
        packed = size = None
        if layer:
            c, d = new.layer_spans[1][key]
            packed = pack_layer(layer, new.qs[c:d + 1], self.shapes)
            size = packed[2:]
        region_keys = new.region_layers.get(r)
        if region_keys:
            sizes = [size if k == key else self.sizes[k] for k in region_keys]
            width[r] = max(s[0] for s in sizes)
            height[r] = max(s[1] for s in sizes)
        else:
            del width[r], height[r]
        placed = self._place(new.ps, new.region_spans, width, height, r,
                             layer, packed, self.shapes)
        cx, cy, terms = placed[6:]
        for i in self._incident[m]:
            terms[i] = None
        del cx[m], cy[m]

        layers = [(k, self.members[k], self.order[k])
                  for k in self.pst.rs[t + 1:]]
        if layer:
            layers.insert(0, (key, layer, order))
        replayed = self._replay(t, layers, new.partition)
        del replayed[1][m]  # m's finish time
        return self._edited(new, self.shapes, key, layer, order, size, placed,
                            replayed)

    def costs(self, m: str, cand) -> "Trial":
        """Insertion point cand of module m, which this base lacks,
        applied and costed: its Trial.  cand.shape is m's shape."""
        pst, key, t = self.pst, cand.layer, cand.rs_pos
        r = key[0]
        if cand.new_layer:
            layer = by_q = (m,)
            shapes = {m: cand.shape}
        else:
            (a, b), (c, d) = pst.layer_spans[0][key], pst.layer_spans[1][key]
            i, j = cand.ps_pos, cand.qs_pos
            layer = (*pst.ps[a:i], m, *pst.ps[i:b + 1])
            by_q = (*pst.qs[c:j], m, *pst.qs[j:d + 1])
            shapes = {x: self.shapes[x] for x in layer if x != m}
            shapes[m] = cand.shape
        packed = pack_layer(layer, by_q, shapes)
        size = packed[2:]
        width, height = dict(self.width), dict(self.height)
        width[r] = max(width.get(r, 0), size[0])
        height[r] = max(height.get(r, 0), size[1])
        ps_span, qs_span = pst.region_spans
        if cand.new_region:
            end = len(pst.ps)
            ps_span = ({r: (-1, -1), **ps_span} if cand.ps_pos == 0
                       else {**ps_span, r: (end, end)})
            qs_span = ({r: (-1, -1), **qs_span} if cand.qs_pos == 0
                       else {**qs_span, r: (end, end)})
        placed = self._place(pst.ps, (ps_span, qs_span), width, height, r,
                             layer, packed, shapes)

        old, topo = self.order.get(key, ()), self._topo
        at = bisect_left(old, topo[m], key=topo.__getitem__)
        order = (*old[:at], m, *old[at:])
        layers = [(key, layer, order)]
        layers += [(k, self.members[k], self.order[k])
                   for k in pst.rs[t + (not cand.new_layer):]]
        replayed = self._replay(t, layers, {*pst.partition, m})

        _, _, off_x, off_y, x_max, y_max, _, _, terms = placed
        boxes = [(off_x[q] + 1, off_y[q] + 1, width[q], height[q])
                 for q in off_x]
        cost = costs_of(x_max, y_max, replayed[0], reduce(add, terms, 0.0),
                        hetero_of(boxes, self.chip), self.chip, self.w)
        return Trial(self, cand, cost, (layer, order, size, placed, replayed))


class Trial:
    """One insertion point costed from a move's base: its CostBreakdown
    (cost) and the base's edit that applies it, which state assembles."""

    __slots__ = ("base", "cand", "cost", "_edit")

    def __init__(self, base, cand, cost, edit):
        self.base, self.cand, self.cost, self._edit = base, cand, cost, edit

    def state(self, pst, shapes) -> PlanState:
        """The PlanState of the applied point, pst with shapes."""
        return self.base._edited(pst, shapes, self.cand.layer, *self._edit)
