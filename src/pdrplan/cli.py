"""Command-line interface.

Verbs: gen-bench, shapes, explore, postopt, run, render, metrics.
Exit codes: 0 success, 1 infeasible final result, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
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
from .shapes import ShapeGenConfig
from .solio import load_solution, write_solution
from .taskgraph import (BenchSpec, generate, load_graph, preset_spec)

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
    return (int(lo), int(hi))


def _add_common(p, out_dir=False):
    p.add_argument("--chip", default=BUILTIN_PREFIX + "xc7vx485t",
                   help="chip file or builtin:xc7vx485t")
    p.add_argument("--seed", type=int, default=0)
    if out_dir:
        p.add_argument("--out-dir", default=None)


def _add_shape_opts(p):
    p.add_argument("--n", type=int, default=10,
                   help="max candidate shapes per module")
    p.add_argument("--gamma-ar", type=float, default=1.5,
                   help="aspect-ratio bound for candidate shapes")
    p.add_argument("--cfg-rate", type=float, default=0.001,
                   help="configuration ms per tile when conf is not given")


def _add_weight_opts(p):
    p.add_argument("--alpha", type=float, default=1.0, help="area weight")
    p.add_argument("--beta", type=float, default=1.0, help="schedule weight")
    p.add_argument("--gamma-comm", type=float, default=1.0,
                   help="communication weight")
    p.add_argument("--lambda", dest="lambda_", type=float, default=1.0,
                   help="heterogeneous-utilization weight")


def _shape_cfg(args) -> ShapeGenConfig:
    return ShapeGenConfig(n=args.n, gamma_ar=args.gamma_ar)


def _weights(args) -> CostWeights:
    return CostWeights(alpha=args.alpha, beta=args.beta,
                       gamma_comm=args.gamma_comm, lambda_=args.lambda_)


def _load_instance(args):
    """(chip, graph, shape lists, weights, solution) named by the flags.

    The graph comes back with its configuration times resolved.  Weights
    and solution are None unless the verb reads a --solution file.
    """
    chip = resolve_chip(args.chip)
    g, lists = prepare_instance(load_graph(args.graph), chip,
                                _shape_cfg(args), args.cfg_rate)
    weights = sol = None
    if getattr(args, "solution", None) is not None:
        weights = _weights(args).resolve(g, chip)
        sol = load_solution(args.solution, g, chip, weights)
    return chip, g, lists, weights, sol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdrplan",
        description="Partition, schedule, and floorplan task modules on a "
                    "partially reconfigurable FPGA.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", help="generate a random benchmark graph")
    _add_common(p)
    _add_shape_opts(p)
    p.add_argument("--preset", default=None,
                   help="benchmark family, e.g. t10-1 .. t200-3")
    p.add_argument("--modules", type=int, default=10)
    p.add_argument("--exec", dest="exec_range", type=_parse_range,
                   default=(40.0, 55.0), metavar="LO,HI")
    p.add_argument("--weight", dest="weight_range", type=_parse_range,
                   default=(20.0, 30.0), metavar="LO,HI")
    p.add_argument("--clb", type=_int_range, default=(2000, 3000),
                   metavar="LO,HI")
    p.add_argument("--bram", type=_int_range, default=(0, 80), metavar="LO,HI")
    p.add_argument("--dsp", type=_int_range, default=(0, 80), metavar="LO,HI")
    p.add_argument("--density", type=float, default=0.8,
                   help="edges per module")
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("shapes", help="print candidate shape lists")
    _add_common(p)
    _add_shape_opts(p)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("explore", help="simulated-annealing exploration")
    _add_common(p, out_dir=True)
    _add_shape_opts(p)
    _add_weight_opts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("postopt", help="repair a solution by shape reselection")
    _add_common(p)
    _add_shape_opts(p)
    _add_weight_opts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--export-lp", default=None,
                   help="also write the model in CPLEX LP format")
    p.add_argument("--out", default=None,
                   help="write the repaired solution here")
    p.set_defaults(func=cmd_postopt)

    p = sub.add_parser("run", help="full pipeline over several seeds")
    _add_common(p, out_dir=True)
    _add_shape_opts(p)
    _add_weight_opts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=None,
                   help="exploration budget per run, seconds")
    p.add_argument("--postopt-time-limit", type=float, default=60.0)
    p.add_argument("--render", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("render", help="draw a solution as SVG files")
    _add_common(p, out_dir=True)
    _add_shape_opts(p)
    _add_weight_opts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("metrics", help="print metrics of a solution file")
    _add_common(p)
    _add_shape_opts(p)
    _add_weight_opts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def _bench_spec(args) -> BenchSpec:
    if args.preset:
        return preset_spec(args.preset, seed=args.seed, cfg_rate=args.cfg_rate)
    return BenchSpec(
        module_count=args.modules,
        exec_range=args.exec_range,
        edge_weight_range=args.weight_range,
        clb_range=args.clb,
        bram_range=args.bram,
        dsp_range=args.dsp,
        edge_density=args.density,
        seed=args.seed,
        cfg_rate=args.cfg_rate,
    )


def cmd_gen_bench(args) -> int:
    chip = resolve_chip(args.chip)
    spec = _bench_spec(args)
    g = generate(spec)
    # Resolve configuration times so the written benchmark stands alone.
    g, _ = prepare_instance(g, chip, _shape_cfg(args), spec.cfg_rate)
    text = g.serialize()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: {len(g.modules)} modules, "
              f"{len(g.edges)} edges")
    return 0


def cmd_shapes(args) -> int:
    _, g, lists, _, _ = _load_instance(args)
    for m in g.modules:
        shapes = " ".join(f"({s.w},{s.h})" for s in lists[m.id].shapes)
        print(f"module {m.id}: {shapes}")
    return 0


def _sa_config(args) -> SAConfig:
    return SAConfig(seed=args.seed, weights=_weights(args),
                    restarts=args.restarts, time_limit=args.time_limit)


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
    if args.export_lp:
        Path(args.export_lp).write_text(export_lp(model), encoding="utf-8")
    sol, res = postoptimize(sol, model, lists, g, chip, weights,
                            args.time_limit)
    if res.status == "optimal":
        print(f"optimal objective={res.objective}")
    else:
        print(res.status)
    print(f"nodes={res.nodes}")
    if args.out:
        Path(args.out).write_text(write_solution(sol), encoding="utf-8")
    return 0 if sol.feasible else 1


def cmd_run(args) -> int:
    chip = resolve_chip(args.chip)
    g = load_graph(args.graph)
    cfg = PipelineConfig(
        runs=args.runs,
        seed=args.seed,
        cfg_rate=args.cfg_rate,
        shape_cfg=_shape_cfg(args),
        sa=_sa_config(args),
        postopt_time_limit=args.postopt_time_limit,
        out_dir=args.out_dir,
        render=args.render,
    )
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
    except (InputFileError, InfeasibleModuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
