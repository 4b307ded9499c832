"""Pipeline orchestration, reuse metrics, and batch reporting."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .chip import ChipModel
from .explore import SAConfig, anneal, trace_csv
from .ilp import apply as ilp_apply
from .ilp import build_model, solve
from .pst import Solution
from .shapes import ShapeGenConfig, generate_all, min_area_map
from .solio import write_solution
from .taskgraph import TaskGraph, assign_conf_times


@dataclass(frozen=True)
class RRT:
    """Per-kind resource reuse: region resources weighted by busy time,
    normalized by chip capacity times the schedule length."""

    clb: float
    bram: float
    dsp: float

    def as_tuple(self):
        return (self.clb, self.bram, self.dsp)


def compute_rrt(sol: Solution, chip: ChipModel) -> RRT:
    """Reuse rate of each resource kind over the schedule.

    A region is busy for its configuration intervals plus each layer's
    execution span (first start to last end); region resources come from
    the packed region boxes.
    """
    makespan = sol.timeline.makespan
    if makespan <= 0:
        raise ValueError("resource reuse is undefined for a zero-length schedule")
    busy = {}
    for key, members in sol.pst.layer_members.items():
        conf = sol.timeline.config_end[key] - sol.timeline.config_start[key]
        span = (max(sol.timeline.exec_end[m] for m in members)
                - min(sol.timeline.exec_start[m] for m in members))
        busy[key[0]] = busy.get(key[0], 0.0) + conf + span
    weighted = [0.0, 0.0, 0.0]
    for region, box in sol.placement.region_boxes.items():
        res = chip.resources_in_window(box).as_tuple()
        for i in range(3):
            weighted[i] += res[i] * busy.get(region, 0.0)
    cap = chip.capacity().as_tuple()
    vals = [w / (makespan * c) if c else 0.0 for w, c in zip(weighted, cap)]
    return RRT(*vals)


@dataclass(frozen=True)
class PipelineConfig:
    runs: int = 10
    seed: int = 0
    cfg_rate: float = 0.001
    shape_cfg: ShapeGenConfig = field(default_factory=ShapeGenConfig)
    sa: SAConfig = field(default_factory=SAConfig)
    postopt_time_limit: float | None = 60.0
    out_dir: str | None = None

    def __post_init__(self):
        if not (isinstance(self.runs, int) and self.runs >= 1):
            raise ValueError("runs must be an int >= 1")
        if (self.postopt_time_limit is not None
                and not self.postopt_time_limit >= 0):
            raise ValueError("postopt_time_limit must be >= 0")


@dataclass(frozen=True)
class RunRecord:
    seed: int
    feasible_before: bool
    feasible_after: bool
    repaired: bool
    makespan: float
    comm_cost: float
    total_cost: float
    x_max: int
    y_max: int
    rrt: RRT | None
    runtime: float


@dataclass(frozen=True)
class RunReport:
    records: tuple
    success_before: float
    success_after: float
    sch_best: float | None
    sch_avg: float | None
    comm_avg: float | None
    rrt_avg: RRT | None

    def to_csv(self) -> str:
        """Per-seed rows; deterministic for fixed seeds and config."""
        lines = ["seed,feasible_before,feasible_after,repaired,makespan,"
                 "comm_cost,total_cost,x_max,y_max,rrt_clb,rrt_bram,rrt_dsp"]
        for r in self.records:
            rrt = ([repr(v) for v in r.rrt.as_tuple()] if r.rrt is not None
                   else ["", "", ""])
            lines.append(
                f"{r.seed},{int(r.feasible_before)},{int(r.feasible_after)},"
                f"{int(r.repaired)},{r.makespan!r},{r.comm_cost!r},"
                f"{r.total_cost!r},{r.x_max},{r.y_max},"
                f"{rrt[0]},{rrt[1]},{rrt[2]}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [
            f"runs: {len(self.records)}",
            f"success rate before post-opt: {self.success_before:.0%}",
            f"success rate after post-opt:  {self.success_after:.0%}",
        ]
        if self.sch_best is not None:
            lines.append(f"best schedule time (feasible runs): {self.sch_best:.3f} ms")
            lines.append(f"avg schedule time (feasible runs):  {self.sch_avg:.3f} ms")
            lines.append(f"avg communication cost:             {self.comm_avg:.3f}")
            lines.append(f"avg resource reuse [clb, bram, dsp]: "
                         f"[{self.rrt_avg.clb:.1%}, {self.rrt_avg.bram:.1%}, "
                         f"{self.rrt_avg.dsp:.1%}]")
        else:
            lines.append("no feasible floorplan found")
        lines.append("runtime per seed (s): "
                     + " ".join(f"{r.runtime:.2f}" for r in self.records))
        return "\n".join(lines) + "\n"


def prepare_instance(g: TaskGraph, chip: ChipModel, shape_cfg: ShapeGenConfig,
                     cfg_rate: float):
    """Shape lists plus the graph with configuration times resolved."""
    if not 0 <= cfg_rate < math.inf:
        raise ValueError("cfg_rate must be finite and >= 0")
    lists = generate_all(g, chip, shape_cfg)
    if g.has_unresolved_conf():
        g = assign_conf_times(g, min_area_map(lists), cfg_rate)
    return g, lists


def postoptimize(sol: Solution, model, lists: dict, g: TaskGraph,
                 chip: ChipModel, weights, time_limit: float | None = 60.0):
    """Repair a boundary-violating solution by shape reselection.

    model is build_model(sol.pst, lists, chip).  Returns (solution,
    result): the solution re-packed under the selection whenever solve
    returns one, the input otherwise.  solve searches layer and region
    shape curves exactly, so within time_limit the selection has the
    largest slack.  Every incumbent it holds fits the chip, so a timeout's
    incumbent (at worst the better of its two greedy seeds) repairs the
    solution too, if not always with the largest slack.
    """
    res = solve(model, time_limit)
    if res.selection is not None:
        return ilp_apply(sol.pst, res.selection, lists, g, chip, weights), res
    return sol, res


def run_pipeline(g: TaskGraph, chip: ChipModel,
                 cfg: PipelineConfig = PipelineConfig()) -> RunReport:
    """Shapes, seeded exploration runs, post-opt on failures, aggregation.

    Every seed is recorded even if it stays infeasible; aggregates cover
    only runs whose final floorplan fits the chip.  Post-opt repairs only
    what anneal returns, its best feasible state when it has one, so today
    the repair branch does not run (ROADMAP item 5).  Repairing the
    chain's lowest-cost state instead would turn runs into failures until
    the rough stage weighs the boundary penalty (ROADMAP item 1): see
    anneal for an instance whose lowest-cost state post-opt cannot fit.
    """
    g, lists = prepare_instance(g, chip, cfg.shape_cfg, cfg.cfg_rate)
    weights = cfg.sa.weights.resolve(g, chip)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for k in range(cfg.runs):
        seed = cfg.seed + k
        started = time.monotonic()
        sol, trace = anneal(g, lists, chip, replace(cfg.sa, seed=seed))
        feasible_before = sol.feasible
        repaired = False
        if not sol.feasible:
            model = build_model(sol.pst, lists, chip)
            sol, _ = postoptimize(sol, model, lists, g, chip, weights,
                                  cfg.postopt_time_limit)
            repaired = sol.feasible
        runtime = time.monotonic() - started
        rrt = compute_rrt(sol, chip) if sol.feasible else None
        records.append(RunRecord(
            seed=seed,
            feasible_before=feasible_before,
            feasible_after=sol.feasible,
            repaired=repaired,
            makespan=sol.costs.makespan,
            comm_cost=sol.costs.comm_raw,
            total_cost=sol.costs.total,
            x_max=sol.costs.x_max,
            y_max=sol.costs.y_max,
            rrt=rrt,
            runtime=runtime,
        ))
        if out_dir is not None:
            (out_dir / f"seed{seed}.solution").write_text(
                write_solution(sol), encoding="utf-8")
            (out_dir / f"seed{seed}.trace.csv").write_text(
                trace_csv(trace), encoding="utf-8")
    report = summarize(records)
    if out_dir is not None:
        (out_dir / "runs.csv").write_text(report.to_csv(), encoding="utf-8")
        (out_dir / "summary.txt").write_text(report.summary(), encoding="utf-8")
    return report


def _mean(values) -> float:
    """Left-to-right mean: sum() of floats rounds differently from Python
    3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def summarize(records) -> RunReport:
    records = tuple(records)
    n = len(records)
    feasible = [r for r in records if r.feasible_after]
    sch_best = sch_avg = comm_avg = rrt_avg = None
    if feasible:
        sch_best = min(r.makespan for r in feasible)
        sch_avg = _mean([r.makespan for r in feasible])
        comm_avg = _mean([r.comm_cost for r in feasible])
        rrt_avg = RRT(*(_mean([r.rrt.as_tuple()[i] for r in feasible])
                        for i in range(3)))
    return RunReport(
        records=records,
        success_before=sum(r.feasible_before for r in records) / n,
        success_after=sum(r.feasible_after for r in records) / n,
        sch_best=sch_best,
        sch_avg=sch_avg,
        comm_avg=comm_avg,
        rrt_avg=rrt_avg,
    )
