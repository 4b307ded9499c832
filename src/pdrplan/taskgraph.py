"""Task modules, weighted dependency DAGs, and random benchmark generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .chip import ResourceVector
from .errors import GraphCycleError, InputFileError


@dataclass(frozen=True)
class TaskModule:
    """One hardware task: resource demand plus execution/configuration time.

    conf_time may be None for generated graphs; it is then derived later
    from the module's smallest candidate shape (see assign_conf_times).
    """

    id: str
    demand: ResourceVector
    exec_time: float
    conf_time: float | None = None

    def __post_init__(self):
        if not 0 < self.exec_time < math.inf:
            raise ValueError(f"module {self.id}: exec time must be positive "
                             "and finite")
        if self.conf_time is not None and not 0 <= self.conf_time < math.inf:
            raise ValueError(f"module {self.id}: conf time must be finite "
                             "and >= 0")


@dataclass(frozen=True)
class Edge:
    """Directed data dependency src -> dst with a communication volume."""

    src: str
    dst: str
    weight: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"self edge on {self.src}")
        if not 0 <= self.weight < math.inf:
            raise ValueError(f"edge {self.src}->{self.dst}: weight must be "
                             "finite and >= 0")


class TaskGraph:
    """Immutable DAG of task modules with weighted dependency edges.

    Parallel edges between the same pair are merged by summing weights,
    which leaves every cost computed from the graph unchanged.  The
    topological order is computed once, here; a cycle raises
    GraphCycleError naming one.
    """

    def __init__(self, modules, edges):
        mods = tuple(modules)
        ids = [m.id for m in mods]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate module id {dup!r}")
        by_id = {m.id: m for m in mods}
        merged: dict = {}
        for e in edges:
            if e.src not in by_id:
                raise ValueError(f"edge references unknown module {e.src!r}")
            if e.dst not in by_id:
                raise ValueError(f"edge references unknown module {e.dst!r}")
            key = (e.src, e.dst)
            if key in merged:
                merged[key] = Edge(e.src, e.dst, merged[key].weight + e.weight)
            else:
                merged[key] = e
        self.modules = mods
        self.edges = tuple(merged.values())
        self._by_id = by_id
        # Kahn's pass, ties broken by declaration order (Kahn, CACM 1962).
        indeg = {mid: 0 for mid in ids}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = [mid for mid in ids if indeg[mid] == 0]
        order = []
        while ready:
            mid = ready.pop(0)
            order.append(mid)
            for nxt in self.successors[mid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) < len(ids):
            raise GraphCycleError(self._cycle_among(set(ids) - set(order)))
        self._order = tuple(order)

    def _cycle_among(self, left):
        """A cycle through the modules Kahn's pass left over.

        Each of them keeps a predecessor among them, so walking
        predecessors from any one must repeat a module; the walk from
        that module's first visit on, reversed, is a cycle.
        """
        walk = [next(mid for mid in self.module_ids if mid in left)]
        while walk[-1] not in walk[:-1]:
            walk.append(next(p for p in self.predecessors[walk[-1]] if p in left))
        return walk[walk.index(walk[-1]):][::-1]

    # ------------------------------------------------------------------

    def module(self, mid: str) -> TaskModule:
        return self._by_id[mid]

    @property
    def module_ids(self) -> tuple:
        return tuple(m.id for m in self.modules)

    @cached_property
    def predecessors(self) -> dict:
        pred = {m.id: [] for m in self.modules}
        for e in self.edges:
            pred[e.dst].append(e.src)
        return pred

    @cached_property
    def successors(self) -> dict:
        succ = {m.id: [] for m in self.modules}
        for e in self.edges:
            succ[e.src].append(e.dst)
        return succ

    @cached_property
    def exec_times(self) -> dict:
        """Module id -> execution time."""
        return {m.id: m.exec_time for m in self.modules}

    @cached_property
    def conf_times(self) -> dict:
        """Module id -> configuration time, None while unresolved."""
        return {m.id: m.conf_time for m in self.modules}

    def topological_order(self) -> tuple:
        """Kahn topological order, stable w.r.t. module declaration order."""
        return self._order

    def critical_path_time(self) -> float:
        """Longest directed path, nodes weighted by execution time."""
        finish: dict = {}
        for mid in self.topological_order():
            start = max((finish[p] for p in self.predecessors[mid]), default=0.0)
            finish[mid] = start + self.module(mid).exec_time
        return max(finish.values(), default=0.0)

    def total_edge_weight(self) -> float:
        total = 0.0  # left to right, as on every Python version
        for e in self.edges:
            total += e.weight
        return total

    def has_unresolved_conf(self) -> bool:
        return any(m.conf_time is None for m in self.modules)

    def serialize(self) -> str:
        lines = []
        for m in self.modules:
            line = (f"module {m.id} clb={m.demand.clb} bram={m.demand.bram} "
                    f"dsp={m.demand.dsp} exec={m.exec_time!r}")
            if m.conf_time is not None:
                line += f" conf={m.conf_time!r}"
            lines.append(line)
        for e in self.edges:
            lines.append(f"edge {e.src} {e.dst} weight={e.weight!r}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, TaskGraph) and self.modules == other.modules
                and self.edges == other.edges)

    def __repr__(self):
        return f"TaskGraph({len(self.modules)} modules, {len(self.edges)} edges)"


def assign_conf_times(g: TaskGraph, min_shape_areas, cfg_rate: float) -> TaskGraph:
    """Fill unresolved configuration times as cfg_rate x smallest-shape area.

    Modules with an explicit conf_time keep it; min_shape_areas maps module
    id to the area (in tiles) of its minimum-area candidate shape.
    """
    modules = []
    for m in g.modules:
        if m.conf_time is None:
            modules.append(replace(m, conf_time=cfg_rate * min_shape_areas[m.id]))
        else:
            modules.append(m)
    return TaskGraph(modules, g.edges)


# ----------------------------------------------------------------------
# file format

_MODULE_KEYS = {"clb": int, "bram": int, "dsp": int, "exec": float,
                "conf": float}


def parse_kv(tokens, types: dict, source: str, lineno: int) -> dict:
    """The key=value tokens of one input line, each value converted by
    types[key]; a malformed token, an unknown or repeated key or a bad value
    is an InputFileError naming source:lineno."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise InputFileError(f"{source}:{lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in types:
            raise InputFileError(f"{source}:{lineno}: unknown attribute {key!r}")
        if key in out:
            raise InputFileError(f"{source}:{lineno}: duplicate attribute {key!r}")
        try:
            out[key] = types[key](val)
        except ValueError:
            raise InputFileError(f"{source}:{lineno}: bad value {val!r} for {key}") from None
    return out


def parse_graph(text: str, source: str = "<graph>") -> TaskGraph:
    """Parse the module/edge graph file format.

    Lines: ``module <id> clb=<n> bram=<n> dsp=<n> exec=<ms> [conf=<ms>]``
    and ``edge <src> <dst> weight=<n>``; '#' starts a comment.
    """
    modules = []
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "module":
            if len(tokens) < 2:
                raise InputFileError(f"{source}:{lineno}: module line needs an id")
            mid = tokens[1]
            if mid in seen:
                raise InputFileError(f"{source}:{lineno}: duplicate module {mid!r}")
            seen.add(mid)
            kv = parse_kv(tokens[2:], _MODULE_KEYS, source, lineno)
            missing = [k for k in ("clb", "bram", "dsp", "exec") if k not in kv]
            if missing:
                raise InputFileError(
                    f"{source}:{lineno}: module {mid}: missing {', '.join(missing)}")
            try:
                modules.append(TaskModule(
                    id=mid,
                    demand=ResourceVector(kv["clb"], kv["bram"], kv["dsp"]),
                    exec_time=kv["exec"],
                    conf_time=kv.get("conf"),
                ))
            except ValueError as exc:
                raise InputFileError(f"{source}:{lineno}: {exc}") from None
        elif kind == "edge":
            if len(tokens) < 3:
                raise InputFileError(f"{source}:{lineno}: edge line needs src and dst")
            src, dst = tokens[1], tokens[2]
            kv = parse_kv(tokens[3:], {"weight": float}, source, lineno)
            if "weight" not in kv:
                raise InputFileError(f"{source}:{lineno}: edge {src}->{dst}: missing weight")
            try:
                edges.append(Edge(src, dst, kv["weight"]))
            except ValueError as exc:
                raise InputFileError(f"{source}:{lineno}: {exc}") from None
        else:
            raise InputFileError(f"{source}:{lineno}: unknown directive {kind!r}")
    try:
        return TaskGraph(modules, edges)
    except GraphCycleError:
        raise
    except ValueError as exc:
        raise InputFileError(f"{source}: {exc}") from None


def load_graph(path) -> TaskGraph:
    p = Path(path)
    return parse_graph(p.read_text(encoding="utf-8"), source=str(p))


# ----------------------------------------------------------------------
# random benchmarks

@dataclass(frozen=True)
class BenchSpec:
    """Parameters of one random benchmark family."""

    module_count: int
    exec_range: tuple
    edge_weight_range: tuple
    clb_range: tuple
    bram_range: tuple
    dsp_range: tuple
    edge_density: float
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.module_count, int) and self.module_count >= 1):
            raise ValueError("module_count must be an int >= 1")
        if not 0 <= self.edge_density < math.inf:
            raise ValueError("edge_density must be finite and >= 0")
        for name in ("clb_range", "bram_range", "dsp_range"):
            if not all(isinstance(v, int) for v in getattr(self, name)):
                raise ValueError(f"{name} must have int bounds")
        for name in ("exec_range", "edge_weight_range", "clb_range",
                     "bram_range", "dsp_range"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi < inf")
        if self.exec_range[1] <= 0:
            raise ValueError("exec_range must allow positive execution times")


def generate(spec: BenchSpec) -> TaskGraph:
    """Random DAG with attributes drawn uniformly from the spec ranges.

    Deterministic for a fixed seed.  Edges run from lower to higher rank
    in a random module order, so the result is acyclic by construction;
    the edge count is round(edge_density * module_count), clamped to the
    number of available pairs.  Configuration times are left unresolved.
    """
    rng = random.Random(spec.seed)
    n = spec.module_count
    ids = [f"m{i}" for i in range(1, n + 1)]

    def draw_exec():
        lo, hi = spec.exec_range
        lo = max(lo, 0.001)  # exec must be positive even for a 0 lower bound
        return round(rng.uniform(lo, max(lo, hi)), 3)

    modules = [
        TaskModule(
            id=mid,
            demand=ResourceVector(
                rng.randint(*spec.clb_range),
                rng.randint(*spec.bram_range),
                rng.randint(*spec.dsp_range),
            ),
            exec_time=draw_exec(),
        )
        for mid in ids
    ]
    rank = ids[:]
    rng.shuffle(rank)
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    target = min(len(pairs), round(spec.edge_density * n))
    chosen = rng.sample(pairs, target) if target else []
    lo, hi = spec.edge_weight_range
    edges = [Edge(src, dst, round(rng.uniform(lo, hi), 3)) for src, dst in chosen]
    return TaskGraph(modules, edges)


# Benchmark families used throughout testing: (modules, edges, exec range,
# edge weight range, clb range, bram range, dsp range).
BENCH_PRESETS = {
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
    "t100-2": (100, 134, (20, 180), (50, 350), (2500, 3500), (20, 100), (20, 100)),
    "t100-3": (100, 147, (20, 180), (50, 350), (3000, 4000), (40, 120), (40, 120)),
    "t200-1": (200, 403, (10, 390), (30, 770), (2000, 3000), (0, 80), (0, 80)),
    "t200-2": (200, 312, (10, 390), (30, 770), (2500, 3500), (20, 100), (20, 100)),
    "t200-3": (200, 327, (40, 60), (20, 30), (3000, 4000), (40, 120), (40, 120)),
}


def preset_spec(name: str, seed: int = 0) -> BenchSpec:
    """BenchSpec for a named preset family, e.g. 't10-1'."""
    if name not in BENCH_PRESETS:
        raise InputFileError(f"unknown benchmark preset {name!r}; "
                             f"choose from {', '.join(sorted(BENCH_PRESETS))}")
    n, n_edges, vwr, ewr, clb, bram, dsp = BENCH_PRESETS[name]
    return BenchSpec(
        module_count=n,
        exec_range=vwr,
        edge_weight_range=ewr,
        clb_range=clb,
        bram_range=bram,
        dsp_range=dsp,
        edge_density=n_edges / n,
        seed=seed,
    )
