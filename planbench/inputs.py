"""Benchmark inputs made by the benchmark's own code.

Graphs are drawn from the preset ranges of the paper's benchmark families
with this module's own generator, and their configuration times are
resolved here (0.001 ms per tile of the smallest rectangle that covers the
module's demand at every column offset).  A change to the planner's own
generator or shape code therefore cannot change the inputs unnoticed.

The chip description below is the benchmark's own copy of the XC7VX485T
column layout; the checkers use it too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# XC7VX485T: 146 columns (111 CLB, 15 BRAM, 20 DSP), 350 CLB rows, 140
# BRAM/DSP tiles per column, rectangle heights and rows aligned to 5.
CHIP_W = 146
CHIP_H = 350
MACRO_ROWS = 140
QUANTUM = 5
BRAM_COLS = frozenset((5, 11, 23, 29, 37, 48, 66, 77, 88, 99, 110, 118, 124,
                       136, 142))
DSP_COLS = frozenset((14, 20, 26, 34, 40, 45, 51, 63, 69, 74, 80, 85, 91, 96,
                      102, 107, 113, 121, 127, 133))
CFG_RATE = 0.001

# Preset ranges: modules, edges, exec ms, edge weight, CLB, BRAM, DSP.
FAMILIES = {
    "t10-1": (10, 8, (40, 55), (20, 30), (2000, 3000), (0, 80), (0, 80)),
    "t10-2": (10, 10, (40, 55), (20, 30), (2500, 3500), (20, 100), (20, 100)),
    "t10-3": (10, 12, (40, 55), (20, 30), (3000, 4000), (40, 120), (40, 120)),
    "t30-1": (30, 71, (40, 60), (20, 30), (2000, 3000), (0, 80), (0, 80)),
    "t30-2": (30, 51, (30, 350), (60, 610), (2500, 3500), (20, 100), (20, 100)),
    "t30-3": (30, 72, (40, 60), (20, 30), (3000, 4000), (40, 120), (40, 120)),
    "t50-1": (50, 78, (40, 60), (20, 30), (2000, 3000), (0, 80), (0, 80)),
    "t50-2": (50, 33, (40, 60), (20, 30), (2500, 3500), (20, 100), (20, 100)),
    "t50-3": (50, 51, (20, 180), (50, 350), (3000, 4000), (40, 120), (40, 120)),
    "t100-1": (100, 110, (20, 180), (50, 350), (2000, 3000), (0, 80), (0, 80)),
    "t200-1": (200, 403, (10, 390), (30, 770), (2000, 3000), (0, 80), (0, 80)),
}


def macro_tiles(h: int) -> int:
    """BRAM/DSP tiles per column in a quantum-aligned span of h rows."""
    return h * MACRO_ROWS // CHIP_H


_BRAM_PREFIX = [0]
_DSP_PREFIX = [0]
for _c in range(1, CHIP_W + 1):
    _BRAM_PREFIX.append(_BRAM_PREFIX[-1] + (_c in BRAM_COLS))
    _DSP_PREFIX.append(_DSP_PREFIX[-1] + (_c in DSP_COLS))


def column_counts(x: int, w: int):
    """(CLB, BRAM, DSP) column counts of columns x .. x+w-1 (1-indexed)."""
    nb = _BRAM_PREFIX[x + w - 1] - _BRAM_PREFIX[x - 1]
    nd = _DSP_PREFIX[x + w - 1] - _DSP_PREFIX[x - 1]
    return w - nb - nd, nb, nd


def window_resources(x: int, w: int, h: int):
    """(CLB, BRAM, DSP) tiles of a w x h window whose left column is x."""
    c, b, d = column_counts(x, w)
    return c * h, b * macro_tiles(h), d * macro_tiles(h)


def _min_counts(w: int):
    counts = [column_counts(x, w) for x in range(1, CHIP_W - w + 2)]
    return tuple(min(c[k] for c in counts) for k in range(3))


# Width -> the fewest columns of each kind over all offsets of that width.
MIN_COUNTS = {w: _min_counts(w) for w in range(1, CHIP_W + 1)}


def covers_everywhere(demand, w: int, h: int) -> bool:
    """True iff a w x h window holds the demand at every column offset."""
    if not (1 <= w <= CHIP_W and 1 <= h <= CHIP_H):
        return False
    mc, mb, md = MIN_COUNTS[w]
    mt = macro_tiles(h)
    return mc * h >= demand[0] and mb * mt >= demand[1] and md * mt >= demand[2]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def min_area_rect(demand):
    """Smallest (area, then width) w x h that covers demand at every offset."""
    clb, bram, dsp = demand
    best = None
    for w in range(1, CHIP_W + 1):
        mc, mb, md = MIN_COUNTS[w]
        h = QUANTUM
        if clb:
            if mc == 0:
                continue
            h = max(h, _ceil_div(clb, mc))
        ok = True
        for need, cols in ((bram, mb), (dsp, md)):
            if need:
                if cols == 0:
                    ok = False
                    break
                h = max(h, _ceil_div(_ceil_div(need, cols) * CHIP_H, MACRO_ROWS))
        if not ok:
            continue
        h = _ceil_div(h, QUANTUM) * QUANTUM
        if h > CHIP_H:
            continue
        if best is None or (w * h, w) < (best[0] * best[1], best[0]):
            best = (w, h)
    if best is None:
        raise ValueError(f"demand {demand} fits nowhere on the chip")
    return best


@dataclass(frozen=True)
class Module:
    id: str
    demand: tuple  # (clb, bram, dsp)
    exec_time: float
    conf_time: float


@dataclass(frozen=True)
class Graph:
    """A task graph as the benchmark knows it: its own copy of the input."""

    modules: tuple
    edges: tuple  # (src, dst, weight)

    def text(self) -> str:
        """The graph in the planner's graph-file format."""
        lines = [f"module {m.id} clb={m.demand[0]} bram={m.demand[1]} "
                 f"dsp={m.demand[2]} exec={m.exec_time!r} conf={m.conf_time!r}"
                 for m in self.modules]
        lines += [f"edge {s} {d} weight={w!r}" for s, d, w in self.edges]
        return "\n".join(lines) + "\n"

    def by_id(self) -> dict:
        return {m.id: m for m in self.modules}


def make_graph(family: str, seed: int) -> Graph:
    """Random DAG of one preset family; the same (family, seed), same graph.

    Module attributes are uniform over the family's ranges; edges join
    random pairs from lower to higher rank in a random order, so the graph
    is acyclic, with no pair joined twice.
    """
    n, n_edges, exec_r, weight_r, clb_r, bram_r, dsp_r = FAMILIES[family]
    rng = random.Random(f"{family}/{seed}")
    modules = []
    for i in range(1, n + 1):
        demand = (rng.randint(*clb_r), rng.randint(*bram_r),
                  rng.randint(*dsp_r))
        w, h = min_area_rect(demand)
        modules.append(Module(f"m{i}", demand,
                              round(rng.uniform(*exec_r), 3),
                              CFG_RATE * w * h))
    rank = [m.id for m in modules]
    rng.shuffle(rank)
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.sample(pairs, min(n_edges, len(pairs)))
    edges = tuple((s, d, round(rng.uniform(*weight_r), 3)) for s, d in chosen)
    return Graph(tuple(modules), edges)


def parse_graph_text(text: str) -> Graph:
    """Read back a graph file written by Graph.text (for committed inputs)."""
    modules, edges = [], []
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        kv = dict(t.split("=", 1) for t in tok[2:] if "=" in t)
        if tok[0] == "module":
            modules.append(Module(tok[1], (int(kv["clb"]), int(kv["bram"]),
                                           int(kv["dsp"])),
                                  float(kv["exec"]), float(kv["conf"])))
        elif tok[0] == "edge":
            edges.append((tok[1], tok[2], float(kv["weight"])))
        else:
            raise ValueError(f"unexpected graph line {line!r}")
    return Graph(tuple(modules), tuple(edges))


def write_graph(graph: Graph, path: Path) -> Path:
    path.write_text(graph.text(), encoding="utf-8")
    return path
