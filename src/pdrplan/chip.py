"""Column-structured FPGA fabric model and window resource queries.

The device is a grid of resource columns.  CLB columns carry one tile per
row; BRAM and DSP columns carry fewer, taller tiles (``macro_rows_per_col``
over a full column of ``height`` rows).  Every rectangle height
and vertical coordinate is a multiple of ``quantum`` rows, which keeps
macro-tile counts exact integers and independent of the rectangle's
vertical position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from pathlib import Path

from .errors import InputFileError


@dataclass(frozen=True)
class ResourceVector:
    """Tile counts per resource kind (CLB, BRAM, DSP)."""

    clb: int = 0
    bram: int = 0
    dsp: int = 0

    def __post_init__(self):
        if self.clb < 0 or self.bram < 0 or self.dsp < 0:
            raise ValueError(f"negative resource count: {self}")

    def covers(self, other: "ResourceVector") -> bool:
        """True if every component is >= the corresponding one of `other`."""
        return (self.clb >= other.clb and self.bram >= other.bram
                and self.dsp >= other.dsp)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.clb, self.bram, self.dsp)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in 1-indexed (column, row) coordinates.

    (x, y) is the bottom-left tile; the rectangle spans columns
    [x, x+w-1] and rows [y, y+h-1].
    """

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 1 or self.y < 1 or self.w < 1 or self.h < 1:
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def x_hi(self) -> int:
        return self.x + self.w - 1

    @property
    def y_hi(self) -> int:
        return self.y + self.h - 1

    @property
    def area(self) -> int:
        return self.w * self.h


@dataclass(frozen=True)
class ChipModel:
    """Heterogeneous column layout of one device.

    Immutable after construction; every query below is read-only.
    """

    width: int
    height: int
    bram_cols: frozenset
    dsp_cols: frozenset
    macro_rows_per_col: int
    quantum: int
    _bram_prefix: tuple = field(init=False, repr=False, compare=False)
    _dsp_prefix: tuple = field(init=False, repr=False, compare=False)
    _min_counts: tuple = field(init=False, repr=False, compare=False)
    _capacity: ResourceVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bram_cols", frozenset(self.bram_cols))
        object.__setattr__(self, "dsp_cols", frozenset(self.dsp_cols))
        self._validate()
        bram = [0] * (self.width + 1)
        dsp = [0] * (self.width + 1)
        for x in range(1, self.width + 1):
            bram[x] = bram[x - 1] + (x in self.bram_cols)
            dsp[x] = dsp[x - 1] + (x in self.dsp_cols)
        object.__setattr__(self, "_bram_prefix", tuple(bram))
        object.__setattr__(self, "_dsp_prefix", tuple(dsp))
        # Worst-case column mix of every window width, counted once: shape
        # generation asks for each width of every module.
        macro = [b + d for b, d in zip(bram, dsp)]
        mins = [None]
        for w in range(1, self.width + 1):
            mins.append((w - max(map(sub, macro[w:], macro)),
                         min(map(sub, bram[w:], bram)),
                         min(map(sub, dsp[w:], dsp))))
        object.__setattr__(self, "_min_counts", tuple(mins))
        # The whole chip's tiles: every hetero cost divides by them.
        object.__setattr__(self, "_capacity", self.resources_in_window(
            Rect(1, 1, self.width, self.height)))

    def _validate(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("chip must have positive width and height")
        if self.quantum < 1 or self.height % self.quantum != 0:
            raise ValueError("quantum must be positive and divide the chip height")
        if not (1 <= self.macro_rows_per_col <= self.height):
            raise ValueError("macro_rows_per_col must be in [1, height]")
        # Macro-tile pitch (height / macro_rows_per_col CLB rows per macro
        # tile) must divide quantum so aligned windows hold whole tiles.
        if (self.quantum * self.macro_rows_per_col) % self.height != 0:
            raise ValueError("macro-tile pitch does not divide the quantum")
        for name, cols in (("bram_cols", self.bram_cols), ("dsp_cols", self.dsp_cols)):
            for x in cols:
                if not 1 <= x <= self.width:
                    raise ValueError(f"{name} entry {x} outside [1, {self.width}]")
        if self.bram_cols & self.dsp_cols:
            raise ValueError("a column cannot be both BRAM and DSP")

    # ------------------------------------------------------------------
    # queries

    def macro_tiles(self, h: int) -> int:
        """Macro tiles (BRAM/DSP) in an h-row quantum-aligned span."""
        if h % self.quantum != 0:
            raise ValueError(f"height {h} not a multiple of quantum {self.quantum}")
        return h * self.macro_rows_per_col // self.height

    def column_counts(self, x: int, w: int) -> tuple[int, int, int]:
        """(CLB, BRAM, DSP) column counts in the span [x, x+w-1]."""
        if x < 1 or w < 1 or x + w - 1 > self.width:
            raise ValueError(f"column span x={x} w={w} outside chip width {self.width}")
        nb = self._bram_prefix[x + w - 1] - self._bram_prefix[x - 1]
        nd = self._dsp_prefix[x + w - 1] - self._dsp_prefix[x - 1]
        return (w - nb - nd, nb, nd)

    def _check_window(self, rect: Rect):
        if (rect.y - 1) % self.quantum != 0 or rect.h % self.quantum != 0:
            raise ValueError(f"rectangle {rect} not aligned to quantum {self.quantum}")
        if rect.x_hi > self.width or rect.y_hi > self.height:
            raise ValueError(f"rectangle {rect} outside the {self.width}x{self.height} chip")

    def resources_in_window(self, rect: Rect) -> ResourceVector:
        """Tiles of each kind inside a quantum-aligned on-chip rectangle."""
        self._check_window(rect)
        nclb, nb, nd = self.column_counts(rect.x, rect.w)
        mt = self.macro_tiles(rect.h)
        return ResourceVector(nclb * rect.h, nb * mt, nd * mt)

    def min_column_counts(self, w: int) -> tuple[int, int, int]:
        """Componentwise minimum of column_counts over every x position."""
        if not 1 <= w <= self.width:
            raise ValueError(f"window width {w} outside [1, {self.width}]")
        return self._min_counts[w]

    def min_window_over_x(self, w: int, h: int) -> ResourceVector:
        """Componentwise minimum of resources_in_window over all x offsets.

        Counts do not depend on the (aligned) y position, so the minimum
        over x at any fixed y is the minimum over all placements.
        """
        if h < self.quantum or h > self.height or h % self.quantum != 0:
            raise ValueError(f"window height {h} invalid for quantum {self.quantum}, "
                             f"chip height {self.height}")
        mc, mb, md = self.min_column_counts(w)
        mt = self.macro_tiles(h)
        return ResourceVector(mc * h, mb * mt, md * mt)

    def capacity(self) -> ResourceVector:
        """Total tiles of each kind on the chip."""
        return self._capacity

    @property
    def area(self) -> int:
        return self.width * self.height


# Column positions of the BRAM and DSP resources on the XC7VX485T
# (Virtex-7, VC707 kit): 146 columns total, 111 CLB + 15 BRAM + 20 DSP.
XC7VX485T_BRAM_COLS = (5, 11, 23, 29, 37, 48, 66, 77, 88, 99, 110, 118, 124, 136, 142)
XC7VX485T_DSP_COLS = (14, 20, 26, 34, 40, 45, 51, 63, 69, 74, 80, 85, 91, 96,
                      102, 107, 113, 121, 127, 133)


def builtin_xc7vx485t() -> ChipModel:
    """The Xilinx XC7VX485T device used as the default target."""
    return ChipModel(
        width=146,
        height=350,
        bram_cols=frozenset(XC7VX485T_BRAM_COLS),
        dsp_cols=frozenset(XC7VX485T_DSP_COLS),
        macro_rows_per_col=140,
        quantum=5,
    )


_CHIP_KEYS = ("width", "height", "quantum", "macro_rows", "bram_cols", "dsp_cols")


def parse_chip(text: str, source: str = "<chip>") -> ChipModel:
    """Parse a line-oriented chip description.

    Recognized keys: width, height, quantum, macro_rows, bram_cols,
    dsp_cols.  Unknown keys are errors.  bram_cols/dsp_cols take a
    comma-separated column list.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise InputFileError(f"{source}:{lineno}: expected '<key> <value>'")
        key, value = parts[0], parts[1].strip()
        if key not in _CHIP_KEYS:
            raise InputFileError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise InputFileError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if key in ("bram_cols", "dsp_cols"):
                values[key] = frozenset(int(tok) for tok in value.split(",") if tok.strip())
            else:
                values[key] = int(value)
        except ValueError:
            raise InputFileError(f"{source}:{lineno}: bad value for {key}: {value!r}") from None
    missing = [k for k in ("width", "height", "quantum", "macro_rows") if k not in values]
    if missing:
        raise InputFileError(f"{source}: missing keys: {', '.join(missing)}")
    try:
        return ChipModel(
            width=values["width"],
            height=values["height"],
            bram_cols=values.get("bram_cols", frozenset()),
            dsp_cols=values.get("dsp_cols", frozenset()),
            macro_rows_per_col=values["macro_rows"],
            quantum=values["quantum"],
        )
    except ValueError as exc:
        raise InputFileError(f"{source}: {exc}") from None


def load_chip(path) -> ChipModel:
    p = Path(path)
    return parse_chip(p.read_text(encoding="utf-8"), source=str(p))
