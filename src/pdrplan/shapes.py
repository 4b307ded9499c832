"""Candidate rectangle generation for task modules.

A candidate shape must satisfy the module's resource demand at *every*
horizontal position on the chip, so it can be dropped anywhere during
floorplanning.  Widths are enumerated from a resource-derived lower bound
up to the chip width; for each width the minimal feasible height is kept,
same-height shapes with larger width are pruned, overly elongated shapes
are filtered out, and the n smallest-area shapes survive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chip import ChipModel
from .errors import InfeasibleModuleError
from .taskgraph import TaskGraph, TaskModule


@dataclass(frozen=True)
class Shape:
    """Candidate rectangle: w columns by h rows (h quantum-aligned)."""

    w: int
    h: int

    @property
    def area(self) -> int:
        return self.w * self.h


@dataclass(frozen=True)
class ShapeList:
    """Candidate shapes of one module, sorted by area (ties: smaller width)."""

    module_id: str
    shapes: tuple

    def __post_init__(self):
        if not self.shapes:
            raise ValueError(f"module {self.module_id}: empty shape list")

    def min_area_shape(self) -> Shape:
        return self.shapes[0]


@dataclass(frozen=True)
class ShapeGenConfig:
    n: int = 10
    gamma_ar: float = 1.5

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be an int >= 1")
        if not self.gamma_ar >= 1.0:
            raise ValueError("gamma_ar must be >= 1")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def initial_width(module: TaskModule, chip: ChipModel) -> int:
    """Lower bound on the width: full-height columns of the right kind.

    The bound assumes every column in the window serves the demanded
    resource, so no narrower window can ever suffice.
    """
    if not chip.capacity().covers(module.demand):
        raise InfeasibleModuleError(
            f"module {module.id}: demand {module.demand.as_tuple()} exceeds "
            f"chip capacity {chip.capacity().as_tuple()}")
    d = module.demand
    clb_col = chip.height
    macro_col = chip.macro_tiles(chip.height)
    w = 1
    if d.clb:
        w = max(w, _ceil_div(d.clb, clb_col))
    if d.bram:
        w = max(w, _ceil_div(d.bram, macro_col))
    if d.dsp:
        w = max(w, _ceil_div(d.dsp, macro_col))
    return w


def min_height_for_width(module: TaskModule, chip: ChipModel, w: int):
    """Smallest quantum-aligned height feasible at every x, or None.

    Uses the worst-case column mix over all x offsets: window counts are
    linear in the (aligned) height, so the per-kind thresholds combine by
    max and a single round-up to the quantum grid.
    """
    if not 1 <= w <= chip.width:
        raise ValueError(f"width {w} outside [1, {chip.width}]")
    return _height_rule(module.demand, chip)(chip.min_column_counts(w))


def _height_rule(d, chip: ChipModel):
    """min_height_for_width of demand d as a function of a width's
    worst-case column counts (CLB, BRAM, DSP); ceilings are -(-a // b)."""
    q, height, macro_rows = chip.quantum, chip.height, chip.macro_rows_per_col
    clb = d.clb
    # A macro column provides macro_rows/height tiles per row.
    macro = [(kind, need) for kind, need in ((1, d.bram), (2, d.dsp)) if need]

    def min_height(counts):
        h = q
        if clb:
            if counts[0] == 0:
                return None
            rows = -(-clb // counts[0])
            if rows > h:
                h = rows
        for kind, need in macro:
            cols = counts[kind]
            if cols == 0:
                return None
            rows = -(-(-(-need // cols) * height) // macro_rows)
            if rows > h:
                h = rows
        h = -(-h // q) * q
        return h if h <= height else None

    return min_height


def aspect_ratio(shape: Shape, chip: ChipModel) -> float:
    """Elongation in chip-normalized units (full chip -> ratio 1).

    Rows and columns are not physically square; heights are rescaled by
    width/height so the ratio reflects physical proportions.
    """
    return _ratio(shape.w, shape.h, chip)


def _ratio(w: int, h: int, chip: ChipModel) -> float:
    hn = h * chip.width / chip.height
    return w / hn if w > hn else hn / w


def generate(module: TaskModule, chip: ChipModel,
             cfg: ShapeGenConfig = ShapeGenConfig()) -> ShapeList:
    """Candidate list for one module.

    Sweeps widths ascending, keeps each width's minimal feasible height,
    admits a shape only if its aspect ratio is within cfg.gamma_ar, drops
    same-height shapes with larger width (the earlier, narrower shape
    wins), sorts by area, and truncates to cfg.n entries.  The true
    minimum-area shape is always retained, even when its ratio is out of
    bounds: exploration anchors on it, and it keeps the list's best area
    no worse than any fixed-width strategy.
    """
    min_height = _height_rule(module.demand, chip)
    kept = []
    seen_heights = set()
    best = None  # (w, h) of the minimum-area feasible shape, ratio ignored
    best_area = 0
    for w in range(initial_width(module, chip), chip.width + 1):
        h = min_height(chip.min_column_counts(w))
        if h is None:
            continue
        # Widths ascend, so an equal area never replaces the narrower shape.
        if best is None or w * h < best_area:
            best, best_area = (w, h), w * h
        if h not in seen_heights and _ratio(w, h, chip) <= cfg.gamma_ar:
            kept.append(Shape(w, h))
            seen_heights.add(h)
    if best is None:
        raise InfeasibleModuleError(
            f"module {module.id}: no rectangle satisfies demand "
            f"{module.demand.as_tuple()} at every position")
    best_any = Shape(*best)
    if best_any not in kept:
        kept = [s for s in kept if s.h != best_any.h]
        kept.append(best_any)
    kept.sort(key=lambda s: (s.area, s.w))
    return ShapeList(module.id, tuple(kept[:cfg.n]))


def generate_all(g: TaskGraph, chip: ChipModel,
                 cfg: ShapeGenConfig = ShapeGenConfig()) -> dict:
    """Shape lists for every module of the graph, keyed by module id."""
    return {m.id: generate(m, chip, cfg) for m in g.modules}


def min_area_map(shape_lists: dict) -> dict:
    """Module id -> area of its smallest candidate shape."""
    return {mid: sl.shapes[0].area for mid, sl in shape_lists.items()}
