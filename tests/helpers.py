"""Shared builders for PST-level tests: small graphs, random valid PSTs and
the exhaustive shape-reselection oracle."""

import itertools
import random

from pdrplan.chip import ResourceVector
from pdrplan.pst import PST, pack
from pdrplan.shapes import Shape
from pdrplan.taskgraph import Edge, TaskGraph, TaskModule


def make_graph(n, edges=(), exec_time=10.0, conf=1.0, demand=(10, 0, 0)):
    mods = [TaskModule(f"m{i}", ResourceVector(*demand), exec_time, conf)
            for i in range(1, n + 1)]
    return TaskGraph(mods, [Edge(s, d, w) for s, d, w in edges])


def single_layer_pst(ids, region=0, layer=0):
    """All modules in one layer, ps == qs (a left-to-right row)."""
    ids = list(ids)
    key = (region, layer)
    return PST(ps=ids, qs=ids, rs=[key], partition={m: key for m in ids})


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


def brute_force_best_objective(pst, lists, chip):
    """Exhaustive assignment sweep, each evaluated through pack()."""
    ids = list(pst.ps)
    best = None
    for combo in itertools.product(*(range(len(lists[m].shapes))
                                     for m in ids)):
        shapes = {m: lists[m].shapes[j] for m, j in zip(ids, combo)}
        p = pack(pst, shapes, chip)
        if p.x_max > chip.width or p.y_max > chip.height:
            continue
        obj = (chip.width - p.x_max) + (chip.height - p.y_max)
        if best is None or obj > best:
            best = obj
    return best
