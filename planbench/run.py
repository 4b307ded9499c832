"""Benchmark of the pdrplan planner: three workloads, end to end and per layer.

    python3 planbench/run.py --workload run-t10 --seed 0 --seconds 30 --trace 0

Run from the repository root.  The planner is imported from ``src/`` next
to this directory and reached only through ``pdrplan.cli.main`` and
``pdrplan.report.run_pipeline``.  A run sets up (import, chip, inputs) a few
times, then repeats whole rounds of the workload's operations until the next
round would end after ``--seconds``.  Every output is checked outside the
timed section (see checks.py).  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1`` (traced rounds alternate with untraced ones, which give the
tracing overhead).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import (check_highs, check_plan, check_postopt, close, comm_norm,
                    initial_total_cost, parse_plan, plan_rrt, printed_objective)
from inputs import make_graph, parse_graph_text, write_graph
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
RESULTS = HERE / "results"
POSTOPT_INPUTS = HERE / "postopt"

SETUP_REPS = 5
# Instances are a fixed suite: the planner's results swing between
# instances and annealing seeds far more than any bound could absorb (see
# README.md), so the workload seed orders the operations of a round and
# the instances stay the same.
GRAPH_SEED = 0
PLANNER_MODULES = ("cli", "report", "explore", "pst", "ilp", "solio", "shapes")


class SetupError(Exception):
    pass


def import_planner() -> dict:
    """Fresh import of pdrplan from this checkout's src/."""
    init = SRC / "pdrplan" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"planner sources not found at {init}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "pdrplan" or n.startswith("pdrplan.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"pdrplan.{m}") for m in PLANNER_MODULES}
    mods["pdrplan"] = sys.modules["pdrplan"]
    if Path(mods["pdrplan"].__file__).resolve() != init.resolve():
        raise SetupError(f"pdrplan imported from {mods['pdrplan'].__file__}")
    return mods


@dataclass
class Outcome:
    """What one operation produced, as far as the metrics need it."""

    problems: list
    quality: tuple = ()  # (makespan ms, raw communication cost, total cost)
    rrt: tuple = ()
    digest: str = ""  # of the outputs, for the repeat check across rounds
    highs: tuple | None = None  # (lp text, printed objective) for HiGHS


@dataclass
class Op:
    name: str
    call: object  # timed; returns whatever check needs
    check: object  # output -> Outcome
    prepare: object = None  # untimed, before the call


def _digest(*texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def _cli(mods, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods["cli"].main(argv)
    return code, out.getvalue()


def _fresh_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# ----------------------------------------------------------------------
# workloads

def _plan_outcome(plan_path: Path, graph, quality, rrt) -> Outcome:
    text = plan_path.read_text(encoding="utf-8")
    plan = parse_plan(text)
    problems = check_plan(plan, graph, *quality,
                          initial_total=initial_total_cost(graph), rrt=rrt)
    own = plan_rrt(plan, graph)
    if not all(close(a, b) for a, b in zip(own, rrt)) or len(rrt) != 3:
        problems.append(f"resource reuse {rrt} != recomputed {own}")
    return Outcome(problems, quality, rrt, _digest(text))


def run_t10(mods, work: Path) -> list:
    """`pdrplan run` through cli.main on one graph of each t10 family,
    with the default annealing schedule and one annealing run."""
    ops = []
    for family in ("t10-1", "t10-2", "t10-3"):
        graph = make_graph(family, GRAPH_SEED)
        path = write_graph(graph, work / f"{family}.graph")
        out = work / f"{family}.out"

        def call(path=path, out=out):
            return _cli(mods, ["run", "--graph", str(path), "--out-dir",
                               str(out), "--runs", "1", "--seed", "0"])

        def check(result, graph=graph, out=out):
            code, _ = result
            if code != 0:
                return Outcome([f"exit code {code}"])
            rows = (out / "runs.csv").read_text(encoding="utf-8").splitlines()
            rec = dict(zip(rows[0].split(","), rows[1].split(",")))
            if rec["feasible_after"] != "1":
                return Outcome(["final plan does not fit the chip"])
            quality = tuple(float(rec[k]) for k in
                            ("makespan", "comm_cost", "total_cost"))
            rrt = tuple(float(rec[k]) for k in ("rrt_clb", "rrt_bram", "rrt_dsp"))
            return _plan_outcome(out / "seed0.solution", graph, quality, rrt)

        ops.append(Op(family, call, check, lambda out=out: _fresh_dir(out)))
    return ops


def plan_large(mods, work: Path) -> list:
    """report.run_pipeline on t100-1 and t200-1 graphs, one annealing run
    with one move per temperature step, so the move count is fixed."""
    pdr = mods["pdrplan"]
    chip = pdr.builtin_xc7vx485t()
    ops = []
    for family in ("t100-1", "t200-1"):
        graph = make_graph(family, GRAPH_SEED)
        g = pdr.load_graph(write_graph(graph, work / f"{family}.graph"))
        out = work / f"{family}.out"
        cfg = mods["report"].PipelineConfig(
            runs=1, seed=0, out_dir=str(out),
            sa=mods["explore"].SAConfig(iterations_per_temperature=1))

        def call(g=g, cfg=cfg):
            return mods["report"].run_pipeline(g, chip, cfg)

        def check(report, graph=graph, out=out):
            rec = report.records[0]
            if not rec.feasible_after or rec.rrt is None:
                return Outcome(["final plan does not fit the chip"])
            return _plan_outcome(out / "seed0.solution", graph,
                                 (rec.makespan, rec.comm_cost, rec.total_cost),
                                 rec.rrt.as_tuple())

        ops.append(Op(family, call, check, lambda out=out: _fresh_dir(out)))
    return ops


def postopt(mods, work: Path, inputs: Path = POSTOPT_INPUTS) -> list:
    """`pdrplan postopt --export-lp --out` through cli.main on solution
    files whose recorded shapes overflow the chip (made by make_postopt.py)."""
    ops = []
    names = sorted(p.stem for p in inputs.glob("*.solution"))
    if not names:
        raise SetupError(f"no post-optimisation inputs in {inputs}")
    for name in names:
        graph_path = inputs / f"{name}.graph"
        sol_path = inputs / f"{name}.solution"
        graph = parse_graph_text(graph_path.read_text(encoding="utf-8"))
        before = parse_plan(sol_path.read_text(encoding="utf-8"))
        lp, out = work / f"{name}.lp", work / f"{name}.solution"

        def call(graph_path=graph_path, sol_path=sol_path, lp=lp, out=out):
            return _cli(mods, ["postopt", "--graph", str(graph_path),
                               "--solution", str(sol_path), "--export-lp",
                               str(lp), "--out", str(out)])

        def check(result, graph=graph, before=before, lp=lp, out=out):
            code, stdout = result
            if not out.is_file() or not lp.is_file():
                return Outcome([f"exit code {code}, no solution or LP written"])
            objective = printed_objective(stdout)
            text = out.read_text(encoding="utf-8")
            after = parse_plan(text)
            lp_text = lp.read_text(encoding="utf-8")
            problems = check_postopt(before, after, graph, code, objective)
            m = after.metrics
            quality = (m.get("makespan", 0.0),
                       m.get("comm", 0.0) * comm_norm(graph), m.get("total", 0.0))
            return Outcome(problems, quality, plan_rrt(after, graph),
                           _digest(stdout, text, lp_text), (lp_text, objective))

        def prepare(lp=lp, out=out):
            lp.unlink(missing_ok=True)
            out.unlink(missing_ok=True)

        ops.append(Op(name, call, check, prepare))
    return ops


WORKLOADS = {"run-t10": run_t10, "plan-large": plan_large, "postopt": postopt}


# ----------------------------------------------------------------------
# measurement

@dataclass
class Tally:
    attempted: dict = field(default_factory=dict)  # op name -> count
    failed: dict = field(default_factory=dict)  # op name -> failed count
    problems: dict = field(default_factory=dict)  # op name -> first problems
    first: dict = field(default_factory=dict)  # op name -> first Outcome

    def record(self, op: Op, outcome: Outcome):
        self.attempted[op.name] = self.attempted.get(op.name, 0) + 1
        first = self.first.setdefault(op.name, outcome)
        problems = list(outcome.problems)
        if outcome.digest != first.digest:
            problems.append("outputs differ from the first round")
        if problems:
            self.fail(op.name, problems, self.failed.get(op.name, 0) + 1)

    def fail(self, name: str, problems: list, count: int):
        self.failed[name] = count
        self.problems.setdefault(name, problems)


def run_round(ops, tally: Tally, tracer: Tracer | None) -> float:
    """Run each operation once; returns the summed time of the calls."""
    busy = 0.0
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        start = time.perf_counter()
        try:
            result = (tracer.span("op", op.call) if tracer is not None
                      else op.call())
        except Exception:
            busy += time.perf_counter() - start
            tally.record(op, Outcome(["raised:\n" + traceback.format_exc()]))
            continue
        busy += time.perf_counter() - start
        try:
            outcome = op.check(result)
        except Exception:
            outcome = Outcome(["checker raised:\n" + traceback.format_exc()])
        tally.record(op, outcome)
    return busy


def set_up(workload: str, seed: int, work: Path):
    """SETUP_REPS fresh set-ups; returns (median seconds, modules, ops)."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        mods = import_planner()
        _fresh_dir(work)
        ops = WORKLOADS[workload](mods, work)
        random.Random(seed).shuffle(ops)
        times.append(time.perf_counter() - start)
    return statistics.median(times), mods, ops


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    setup_s, mods, ops = set_up(workload, seed, work)
    tracer = Tracer(mods) if trace else None
    tally = Tally()
    plain, traced = [], []  # call time per round; (time, stats) when traced
    started = time.perf_counter()
    last = 0.0
    while True:
        round_start = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                busy = run_round(ops, tally, tracer)
            finally:
                tracer.uninstall()
            traced.append((busy, tracer.stats))
        else:
            plain.append(run_round(ops, tally, None))
        last = time.perf_counter() - round_start
        now = time.perf_counter() - started
        if plain and (traced or not trace) and now + last > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op in ops:  # HiGHS once per instance: every round's outputs match
        first = tally.first.get(op.name)
        if first is not None and first.highs is not None:
            problems = check_highs(*first.highs)
            if problems:
                tally.fail(op.name, problems, tally.attempted[op.name])
    firsts = [tally.first[op.name] for op in ops if op.name in tally.first]
    quality = [o.quality for o in firsts if o.quality]
    rrts = [o.rrt for o in firsts if o.rrt]

    def mean(rows, i):
        return sum(r[i] for r in rows) / len(rows) if rows else 0.0

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
            "makespan": mean(quality, 0),
            "comm_cost": mean(quality, 1),
            "total_cost": mean(quality, 2),
        }
        return tally, metrics, None
    rounds = [layer_metrics(stats) for _, stats in traced]
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    roots = [stats["op"] for _, stats in traced]
    metrics["trace.self_share"] = statistics.median(
        1 - r.self_s / r.total_s for r in roots)
    metrics["trace.overhead"] = (
        statistics.median(t for t, _ in traced) / statistics.median(plain) - 1)
    for i, kind in enumerate(("clb", "bram", "dsp")):
        metrics[f"report.rrt_{kind}"] = mean(rrts, i)
    detail = {"workload": workload, "seed": seed,
              "untraced_round_s": plain,
              "traced_rounds": [{"busy_s": t, "layers": {
                  k: vars(v) for k, v in stats.items()}} for t, stats in traced],
              "metrics": metrics}
    return tally, metrics, detail


def units(trace: bool) -> dict:
    """Metric name -> unit, for the metrics BENCHMARK.json lists."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        unit = units(bool(args.trace))
        tally, metrics, detail = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, problems in tally.problems.items():
        print(f"FAILED {name}: " + "; ".join(problems), file=sys.stderr)
    if detail is not None:
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"{args.workload}-seed{args.seed}-trace.json").write_text(
            json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    failed = sum(tally.failed.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(tally.attempted.values()),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in unit.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
