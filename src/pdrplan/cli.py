"""Command-line interface.

Verbs: gen-bench, shapes, explore, postopt, run, render, metrics.
Exit codes: 0 success, 1 infeasible final result, 2 bad input: a missing
or malformed file, or a flag value its config rejects.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .chip import builtin_xc7vx485t, load_chip
from .errors import InfeasibleModuleError, InputFileError
from .explore import SAConfig, anneal, trace_csv
# solve and ilp_apply are unused here but stay importable as cli.solve and
# cli.ilp_apply, names that planbench/tracing.py wraps.
from .ilp import build_model, export_lp, solve
from .ilp import apply as ilp_apply
from .pst import CostWeights
from .render import render_svg
from .report import (PipelineConfig, compute_rrt, postoptimize,
                     prepare_instance, run_pipeline)
from .shapes import ShapeGenConfig, generate_all
from .solio import load_solution, write_solution
from .taskgraph import generate, load_graph, preset_spec

BUILTIN_PREFIX = "builtin:"


def resolve_chip(spec: str):
    if spec == BUILTIN_PREFIX + "xc7vx485t":
        return builtin_xc7vx485t()
    if spec.startswith(BUILTIN_PREFIX):
        raise InputFileError(f"unknown builtin chip {spec!r}")
    return load_chip(spec)


def _parse_range(text: str):
    try:
        lo, hi = text.split(",")
        return (float(lo), float(hi))
    except ValueError:
        raise InputFileError(f"expected a LO,HI range, got {text!r}") from None


def _int_range(text: str):
    lo, hi = _parse_range(text)
    if not (lo.is_integer() and hi.is_integer()):
        raise InputFileError(f"expected an integer LO,HI range, got {text!r}")
    return int(lo), int(hi)


# Flags that several verbs take.  A flag's dest is the name of the config
# field it fills, so _config builds a config from whatever flags a verb
# declares.
FLAGS = {
    "--chip": dict(default=BUILTIN_PREFIX + "xc7vx485t",
                   help="chip file or builtin:xc7vx485t"),
    "--seed": dict(type=int, default=0),
    "--out-dir": dict(default=None),
    "--graph": dict(required=True),
    "--solution": dict(required=True),
    "--n": dict(type=int, default=10, help="max candidate shapes per module"),
    "--gamma-ar": dict(type=float, default=1.5,
                       help="aspect-ratio bound for candidate shapes"),
    "--cfg-rate": dict(type=float, default=0.001,
                       help="configuration ms per tile when conf is not given"),
    "--alpha": dict(type=float, default=1.0, help="area weight"),
    "--beta": dict(type=float, default=1.0, help="schedule weight"),
    "--gamma-comm": dict(type=float, default=1.0,
                         help="communication weight"),
    "--lambda": dict(dest="lambda_", type=float, default=1.0,
                     help="heterogeneous-utilization weight"),
}
SHAPE_FLAGS = ("--n", "--gamma-ar")
WEIGHT_FLAGS = ("--alpha", "--beta", "--gamma-comm", "--lambda")


def _config(base, args):
    """base with each field that a flag of the same name sets; a field the
    verb takes no flag for, or whose flag is left at None, keeps its value."""
    flags = vars(args)
    return replace(base, **{f.name: flags[f.name] for f in fields(base)
                            if flags.get(f.name) is not None})


def _load_instance(args):
    """(chip, graph, shape lists, weights, solution) named by the flags.

    The graph comes back with its configuration times resolved.  Weights
    and solution are None unless the verb reads a --solution file.
    """
    chip = resolve_chip(args.chip)
    cfg_rate = getattr(args, "cfg_rate", PipelineConfig.cfg_rate)  # render
    g, lists = prepare_instance(load_graph(args.graph), chip,
                                _config(ShapeGenConfig(), args), cfg_rate)
    weights = sol = None
    if getattr(args, "solution", None) is not None:
        weights = _config(CostWeights(), args).resolve(g, chip)
        sol = load_solution(args.solution, g, chip, weights)
    return chip, g, lists, weights, sol


def _verb(sub, name, func, summary, *flags):
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(flag, **FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    """Each verb takes only the flags that can change its result."""
    parser = argparse.ArgumentParser(
        prog="pdrplan",
        description="Partition, schedule, and floorplan task modules on a "
                    "partially reconfigurable FPGA.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verb(sub, "gen-bench", cmd_gen_bench,
              "generate a random benchmark graph",
              "--chip", "--seed", "--cfg-rate")
    p.add_argument("--preset", default="t10-1",
                   help="benchmark family, t10-1 .. t200-3; --modules, "
                        "--density and the range flags override its values")
    p.add_argument("--modules", dest="module_count", type=int, metavar="N")
    p.add_argument("--exec", dest="exec_range", type=_parse_range,
                   metavar="LO,HI")
    p.add_argument("--weight", dest="edge_weight_range", type=_parse_range,
                   metavar="LO,HI")
    p.add_argument("--clb", dest="clb_range", type=_int_range, metavar="LO,HI")
    p.add_argument("--bram", dest="bram_range", type=_int_range,
                   metavar="LO,HI")
    p.add_argument("--dsp", dest="dsp_range", type=_int_range, metavar="LO,HI")
    p.add_argument("--density", dest="edge_density", type=float, metavar="D",
                   help="edges per module")
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")

    _verb(sub, "shapes", cmd_shapes, "print candidate shape lists",
          "--chip", "--graph", *SHAPE_FLAGS)

    p = _verb(sub, "explore", cmd_explore, "simulated-annealing exploration",
              "--chip", "--seed", "--out-dir", "--graph", *SHAPE_FLAGS,
              "--cfg-rate", *WEIGHT_FLAGS)
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock budget in seconds")

    p = _verb(sub, "postopt", cmd_postopt,
              "repair a solution by shape reselection",
              "--chip", "--graph", "--solution", *SHAPE_FLAGS, "--cfg-rate",
              *WEIGHT_FLAGS)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--export-lp", default=None,
                   help="also write the model in CPLEX LP format")
    p.add_argument("--out", default=None,
                   help="write the repaired solution here")

    p = _verb(sub, "run", cmd_run, "full pipeline over several seeds",
              "--chip", "--seed", "--out-dir", "--graph", *SHAPE_FLAGS,
              "--cfg-rate", *WEIGHT_FLAGS)
    p.add_argument("--runs", type=int, default=10,
                   help="annealing runs; run k uses seed SEED+k")
    p.add_argument("--time-limit", type=float, default=None,
                   help="exploration budget per run, seconds")
    p.add_argument("--postopt-time-limit", type=float, default=60.0)

    _verb(sub, "render", cmd_render, "draw a solution as SVG files",
          "--chip", "--out-dir", "--graph", "--solution")

    _verb(sub, "metrics", cmd_metrics, "print metrics of a solution file",
          "--chip", "--graph", "--solution", "--cfg-rate", *WEIGHT_FLAGS)

    return parser


def cmd_gen_bench(args) -> int:
    chip = resolve_chip(args.chip)
    spec = _config(preset_spec(args.preset), args)
    # Resolve configuration times so the written benchmark stands alone.
    # They come from each module's minimum-area shape, which every shape
    # list keeps first whatever its n and gamma_ar.
    g, _ = prepare_instance(generate(spec), chip, ShapeGenConfig(),
                            args.cfg_rate)
    text = g.serialize()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: {len(g.modules)} modules, "
              f"{len(g.edges)} edges")
    return 0


def cmd_shapes(args) -> int:
    chip = resolve_chip(args.chip)
    g = load_graph(args.graph)
    lists = generate_all(g, chip, _config(ShapeGenConfig(), args))
    for m in g.modules:
        shapes = " ".join(f"({s.w},{s.h})" for s in lists[m.id].shapes)
        print(f"module {m.id}: {shapes}")
    return 0


def _sa_config(args) -> SAConfig:
    return _config(SAConfig(weights=_config(CostWeights(), args)), args)


def cmd_explore(args) -> int:
    chip, g, lists, _, _ = _load_instance(args)
    sol, trace = anneal(g, lists, chip, _sa_config(args))
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    sol_path = out_dir / "solution.txt"
    sol_path.write_text(write_solution(sol), encoding="utf-8")
    trace_path = out_dir / "trace.csv"
    trace_path.write_text(trace_csv(trace), encoding="utf-8")
    print(f"best total cost {sol.costs.total:.6f} "
          f"(makespan {sol.costs.makespan:.3f} ms, "
          f"extents {sol.costs.x_max}x{sol.costs.y_max}, "
          f"{'feasible' if sol.feasible else 'INFEASIBLE'})")
    print(f"wrote {sol_path} and {trace_path}")
    return 0 if sol.feasible else 1


def cmd_postopt(args) -> int:
    chip, g, lists, weights, sol = _load_instance(args)
    model = build_model(sol.pst, lists, chip)
    sol, res = postoptimize(sol, model, lists, g, chip, weights,
                            args.time_limit)
    if args.export_lp:
        Path(args.export_lp).write_text(export_lp(model), encoding="utf-8")
    if res.objective is not None:
        print(f"{res.status} objective={res.objective}")
    else:
        print(res.status)
    print(f"nodes={res.nodes}")
    if args.out:
        Path(args.out).write_text(write_solution(sol), encoding="utf-8")
    return 0 if sol.feasible else 1


def cmd_run(args) -> int:
    chip = resolve_chip(args.chip)
    g = load_graph(args.graph)
    cfg = _config(PipelineConfig(shape_cfg=_config(ShapeGenConfig(), args),
                                 sa=_sa_config(args)), args)
    report = run_pipeline(g, chip, cfg)
    sys.stdout.write(report.summary())
    return 0 if report.success_after > 0 else 1


def cmd_render(args) -> int:
    chip, _, _, _, sol = _load_instance(args)
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, svg in render_svg(sol, chip):
        (out_dir / name).write_text(svg, encoding="utf-8")
        print(f"wrote {out_dir / name}")
    return 0


def cmd_metrics(args) -> int:
    chip, _, _, _, sol = _load_instance(args)
    c = sol.costs
    print(f"makespan: {c.makespan:.3f} ms")
    print(f"total cost: {c.total:.6f}")
    print(f"  area: {c.area:.6f}  schedule: {c.schedule:.6f}  "
          f"comm: {c.comm:.6f}  hetero: {c.hetero:.6f}")
    print(f"extents: {c.x_max} x {c.y_max} "
          f"({'feasible' if c.feasible else 'INFEASIBLE'})")
    if sol.feasible and c.makespan > 0:
        rrt = compute_rrt(sol, chip)
        print(f"resource reuse [clb, bram, dsp]: "
              f"[{rrt.clb:.1%}, {rrt.bram:.1%}, {rrt.dsp:.1%}]")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InfeasibleModuleError) as exc:
        # ValueError covers InputFileError and every config check.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
