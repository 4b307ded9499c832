"""Deterministic SVG drawings of a placed solution.

One drawing per time layer (in configuration order) plus a region
overview.  The chip outline is drawn with BRAM/DSP columns shaded so the
heterogeneous stripes are visible behind the floorplan.
"""

from __future__ import annotations

from .chip import ChipModel, Rect
from .pst import Solution

_SCALE_X = 6.0
_SCALE_Y = 1.6
_MARGIN = 22.0

_BRAM_FILL = "#f2c14e"
_DSP_FILL = "#7fb3d5"
_REGION_COLORS = ("#c0392b", "#27ae60", "#8e44ad", "#d35400", "#16a085",
                  "#2c3e50", "#af7ac5", "#229954")


def _escape(text: str) -> str:
    """text with the XML markup characters &, < and > escaped.

    xml.sax.saxutils.escape does the same, but importing it loads
    urllib.request, which adds about 4 MB to every CLI run's peak memory.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


class _Drawing:
    def __init__(self, chip: ChipModel, title: str):
        self.chip = chip
        w = chip.width * _SCALE_X + 2 * _MARGIN
        h = chip.height * _SCALE_Y + 2 * _MARGIN + 14
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
            f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
            f'<text x="{_fmt(_MARGIN)}" y="14" font-family="monospace" '
            f'font-size="12">{title}</text>',
        ]
        for x in range(1, chip.width + 1):
            if x in chip.bram_cols:
                fill = _BRAM_FILL
            elif x in chip.dsp_cols:
                fill = _DSP_FILL
            else:
                continue
            self.rect(Rect(x, 1, 1, chip.height), fill=fill, opacity=0.45)
        self.rect(Rect(1, 1, chip.width, chip.height), stroke="black",
                  stroke_width=1.2)

    def _px(self, rect: Rect):
        x = _MARGIN + (rect.x - 1) * _SCALE_X
        y = _MARGIN + 14 + (self.chip.height - rect.y_hi) * _SCALE_Y
        return x, y, rect.w * _SCALE_X, rect.h * _SCALE_Y

    def rect(self, r: Rect, fill: str = "none", stroke: str = "none",
             stroke_width: float = 1.0, opacity: float = 1.0,
             dashed: bool = False):
        x, y, w, h = self._px(r)
        extra = ' stroke-dasharray="6 3"' if dashed else ""
        if opacity != 1.0:
            extra += f' fill-opacity="{_fmt(opacity)}"'
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(stroke_width)}"{extra}/>')

    def label(self, r: Rect, text: str, color: str = "black"):
        x, y, w, h = self._px(r)
        self.parts.append(
            f'<text x="{_fmt(x + 2)}" y="{_fmt(y + min(h - 1, 11))}" '
            f'font-family="monospace" font-size="10" fill="{color}">'
            f'{_escape(text)}</text>')

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _region_color(region: int) -> str:
    return _REGION_COLORS[region % len(_REGION_COLORS)]


def render_svg(sol: Solution, chip: ChipModel):
    """[(file name, svg text), ...]: one per layer in rs order + overview."""
    out = []
    for idx, key in enumerate(sol.pst.rs, start=1):
        region, layer = key
        d = _Drawing(chip, f"layer {idx}/{len(sol.pst.rs)}: "
                           f"region {region}, tl {layer}")
        for r, box in sorted(sol.placement.region_boxes.items()):
            d.rect(box, stroke=_region_color(r), stroke_width=1.4, dashed=True)
        for m in sol.pst.ps:
            if sol.pst.partition[m] != key:
                continue
            r = sol.placement.coords[m]
            d.rect(r, fill=_region_color(region), opacity=0.5, stroke="black",
                   stroke_width=0.6)
            d.label(r, f"{m} {r.w}x{r.h}")
        out.append((f"layer{idx:02d}_r{region}_tl{layer}.svg", d.finish()))
    d = _Drawing(chip, "regions")
    for r, box in sorted(sol.placement.region_boxes.items()):
        d.rect(box, fill=_region_color(r), opacity=0.25,
               stroke=_region_color(r), stroke_width=1.4)
        layers = len(sol.pst.region_layers.get(r, ()))
        d.label(box, f"region {r} ({layers} layers)", color=_region_color(r))
    out.append(("overview.svg", d.finish()))
    return out
