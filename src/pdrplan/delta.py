"""Exact cost of reinserting one module, from a base packing and schedule.

An annealing move deletes a module m and offers a few insertion points
for it.  Each point changes one layer, so the move packs and schedules
the PST without m once (the base) and costs every point from that base:

* Pack.  pst.pack_layer repacks the point's layer with m in its slots; a
  fresh layer or region holds m alone.  Every other module keeps its base
  position inside its region.  The grown layer covers the one it grew
  from, so its region becomes max(base size, layer size).
  pst.region_offsets places the regions, a fresh region as a one-slot
  block at its corner.
* Schedule.  Every successor of m sits at or after the point's rs slot,
  so the layers before it keep their base times and pst.run_layers
  replays the rest from the base state there.
* Cost.  Communication comes from the new module centres, hetero from
  the new region boxes, and pst.costs_of combines the terms.

The result equals pst.evaluate's on the applied PST, float for float.
"""

from __future__ import annotations

from .pst import (comm_between, costs_of, hetero_of, pack_layer,
                  region_offsets, run_layers)


class MoveBase:
    """The base of one move: the PST without the moved module, with its
    placement and schedule.  costs(cand) gives a candidate's
    CostBreakdown; cand.shape is the moved module's shape."""

    def __init__(self, pst, moved, shapes, g, chip, w, placement, timeline):
        self.pst, self.moved, self.shapes = pst, moved, shapes
        self.g, self.chip, self.w = g, chip, w
        self.coords = placement.coords
        boxes = placement.region_boxes
        self.off = {r: (b.x - 1, b.y - 1) for r, b in boxes.items()}
        self.width = {r: b.w for r, b in boxes.items()}
        self.height = {r: b.h for r, b in boxes.items()}
        self.cx = {x: r.x + (r.w - 1) / 2 for x, r in self.coords.items()}
        self.cy = {x: r.y + (r.h - 1) / 2 for x, r in self.coords.items()}
        self.config_end, self.exec_end = timeline.config_end, timeline.exec_end
        part = pst.partition
        self.placed = {*part, moved}
        self.order: dict = {}  # layer -> its modules in topological order
        self.slot: dict = {}  # layer -> index of the moved module in it
        for x in g.topological_order():
            if x == moved:
                self.slot = {k: len(v) for k, v in self.order.items()}
            elif x in part:
                self.order.setdefault(part[x], []).append(x)
        self._states: dict = {}  # rs slot -> schedule state before it

    def _makespan(self, cand, by_p) -> float:
        """Makespan with the candidate's layer (by_p in ps order) at its
        slot: the base state before the slot, then the replay."""
        key, t = cand.layer, cand.rs_pos
        pst = self.pst
        state = self._states.get(t)
        if state is None:
            region_end: dict = {}
            latest = 0.0
            for k in pst.rs[:t]:
                end = region_end[k[0]] = max(self.exec_end[x]
                                             for x in pst.layer_members[k])
                if end > latest:
                    latest = end
            port = self.config_end[pst.rs[t - 1]] if t else 0.0
            state = self._states[t] = (port, region_end, latest)
        port, region_end, latest = state
        order = list(self.order.get(key, ()))
        order.insert(self.slot.get(key, 0), self.moved)
        layers = [(key, by_p, order)]
        layers += [(k, pst.layer_members[k], self.order[k])
                   for k in pst.rs[t + (not cand.new_layer):]]
        return run_layers(layers, self.g, self.placed, port, dict(region_end),
                          dict(self.exec_end), latest, ({}, {}, {}))

    def costs(self, cand):
        """The CostBreakdown of the base with the candidate applied."""
        pst, m, key = self.pst, self.moved, cand.layer
        r = key[0]
        if cand.new_layer:
            by_p = by_q = (m,)
            sizes = {m: cand.shape}
        else:
            (a, b), (c, d) = pst.layer_spans[0][key], pst.layer_spans[1][key]
            i, j = cand.ps_pos, cand.qs_pos
            by_p = (*pst.ps[a:i], m, *pst.ps[i:b + 1])
            by_q = (*pst.qs[c:j], m, *pst.qs[j:d + 1])
            sizes = {x: self.shapes[x] for x in by_p if x != m}
            sizes[m] = cand.shape
        local_x: dict = {}
        local_y: dict = {}
        lw, lh = pack_layer(by_p, by_q, sizes, local_x, local_y)
        width, height = dict(self.width), dict(self.height)
        width[r] = max(width.get(r, 0), lw)
        height[r] = max(height.get(r, 0), lh)
        ps_span, qs_span = pst.region_spans
        if cand.new_region:
            end = len(pst.ps)
            ps_span = ({r: (-1, -1), **ps_span} if cand.ps_pos == 0
                       else {**ps_span, r: (end, end)})
            qs_span = ({r: (-1, -1), **qs_span} if cand.qs_pos == 0
                       else {**qs_span, r: (end, end)})
        off_x, off_y = region_offsets(ps_span, qs_span, width, height)

        cx, cy = dict(self.cx), dict(self.cy)
        for q, (x0, y0) in self.off.items():
            dx, dy = off_x[q] - x0, off_y[q] - y0
            if dx or dy:
                first, last = pst.region_spans[0][q]
                for x in pst.ps[first:last + 1]:
                    rect = self.coords[x]
                    cx[x] = rect.x + dx + (rect.w - 1) / 2
                    cy[x] = rect.y + dy + (rect.h - 1) / 2
        x0, y0 = off_x[r] + 1, off_y[r] + 1
        for x in by_p:
            shape = sizes[x]
            cx[x] = x0 + local_x[x] + (shape.w - 1) / 2
            cy[x] = y0 + local_y[x] + (shape.h - 1) / 2
        boxes = [(off_x[q] + 1, off_y[q] + 1, width[q], height[q])
                 for q in off_x]
        return costs_of(max(off_x[q] + width[q] for q in off_x),
                        max(off_y[q] + height[q] for q in off_x),
                        self._makespan(cand, by_p),
                        comm_between(self.g, cx, cy),
                        hetero_of(boxes, self.chip), self.chip, self.w)
