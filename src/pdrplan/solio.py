"""Solution file format: explorer output, post-optimizer input.

Line-oriented UTF-8 text.  ps/qs/rs lines carry the sequence triple
(layer keys as region.layer), one place line per module carries its
partition slot, coordinates, and shape, and a metrics line summarizes the
evaluated costs.  Geometry and metrics are recomputed on load; the
authoritative content is the triple, the partition, and the shapes.
"""

from __future__ import annotations

from pathlib import Path

from .chip import ChipModel
from .errors import InputFileError
from .pst import CostWeights, PST, Solution, evaluate, validate
from .shapes import Shape
from .taskgraph import TaskGraph, parse_kv

_PLACE_KEYS = dict.fromkeys(("region", "layer", "x", "y", "w", "h"), int)
_METRIC_KEYS = dict.fromkeys(("makespan", "total", "area", "schedule", "comm",
                              "hetero", "x_max", "y_max", "feasible"), float)


def _fmt_layer(key) -> str:
    return f"{key[0]}.{key[1]}"


def _parse_layer(tok: str, source: str, lineno: int):
    try:
        r, l = tok.split(".")
        return (int(r), int(l))
    except ValueError:
        raise InputFileError(
            f"{source}:{lineno}: bad layer key {tok!r} (expected region.layer)"
        ) from None


def write_solution(sol: Solution) -> str:
    """Serialize a solution; byte-stable for equal solutions."""
    lines = [
        "ps " + " ".join(sol.pst.ps),
        "qs " + " ".join(sol.pst.qs),
        "rs " + " ".join(_fmt_layer(k) for k in sol.pst.rs),
    ]
    for m in sol.pst.ps:
        r = sol.placement.coords[m]
        region, layer = sol.pst.partition[m]
        lines.append(f"place {m} region={region} layer={layer} "
                     f"x={r.x} y={r.y} w={r.w} h={r.h}")
    c = sol.costs
    lines.append(
        f"metrics makespan={c.makespan!r} total={c.total!r} area={c.area!r} "
        f"schedule={c.schedule!r} comm={c.comm!r} hetero={c.hetero!r} "
        f"x_max={c.x_max} y_max={c.y_max} feasible={int(c.feasible)}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, source: str = "<solution>"):
    """(PST, shapes, metrics) from solution text; geometry is not trusted."""
    ps = qs = rs = None
    seen = set()
    partition = {}
    shapes = {}
    metrics = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in ("ps", "qs", "rs", "metrics") and kind in seen:
            raise InputFileError(f"{source}:{lineno}: second {kind} line")
        seen.add(kind)
        if kind == "ps":
            ps = tuple(tokens[1:])
        elif kind == "qs":
            qs = tuple(tokens[1:])
        elif kind == "rs":
            rs = tuple(_parse_layer(t, source, lineno) for t in tokens[1:])
        elif kind == "place":
            if len(tokens) < 2:
                raise InputFileError(f"{source}:{lineno}: place needs a module id")
            mid = tokens[1]
            if mid in partition:
                raise InputFileError(
                    f"{source}:{lineno}: second place line for module {mid}")
            kv = parse_kv(tokens[2:], _PLACE_KEYS, source, lineno)
            missing = [k for k in ("region", "layer", "w", "h") if k not in kv]
            if missing:
                raise InputFileError(
                    f"{source}:{lineno}: place {mid}: missing {', '.join(missing)}")
            partition[mid] = (kv["region"], kv["layer"])
            shapes[mid] = Shape(kv["w"], kv["h"])
        elif kind == "metrics":
            metrics = parse_kv(tokens[1:], _METRIC_KEYS, source, lineno)
        else:
            raise InputFileError(f"{source}:{lineno}: unknown directive {kind!r}")
    if ps is None or qs is None or rs is None:
        raise InputFileError(f"{source}: solution needs ps, qs, and rs lines")
    if set(ps) != set(partition):
        raise InputFileError(f"{source}: place lines do not match the ps line")
    pst = PST(ps=ps, qs=qs, rs=rs, partition=partition)
    return pst, shapes, metrics


def load_solution(path, g: TaskGraph, chip: ChipModel,
                  weights: CostWeights) -> Solution:
    """Read a solution file and re-evaluate it against graph and chip.

    Shapes obey the rules explored ones do: a quantum-aligned height, a
    fit on the chip, and the module's demand met at every x position.
    """
    p = Path(path)
    pst, shapes, _ = parse_solution(p.read_text(encoding="utf-8"), source=str(p))
    problems = validate(pst, g)
    if problems:
        raise InputFileError(f"{p}: invalid solution: {problems[0]}")
    for m in pst.ps:
        w, h = shapes[m].w, shapes[m].h
        if h % chip.quantum:
            problem = f"height not a multiple of the quantum {chip.quantum}"
        elif not (1 <= w <= chip.width and 1 <= h <= chip.height):
            problem = f"does not fit the {chip.width}x{chip.height} chip"
        elif not chip.min_window_over_x(w, h).covers(g.module(m).demand):
            problem = "does not cover the module's demand at every x"
        else:
            continue
        raise InputFileError(f"{p}: module {m}: shape {w}x{h} {problem}")
    return evaluate(pst, shapes, g, chip, weights)
