"""Partition, schedule, and floorplan planner for partially reconfigurable FPGAs."""

from .chip import (ChipModel, Rect, ResourceVector, builtin_xc7vx485t,
                   load_chip, parse_chip)
from .errors import GraphCycleError, InfeasibleModuleError, InputFileError
from .taskgraph import (BenchSpec, Edge, TaskGraph, TaskModule,
                        assign_conf_times, generate, load_graph, parse_graph,
                        preset_spec)
from .shapes import (Shape, ShapeGenConfig, ShapeList, generate_all,
                     initial_width, min_height_for_width)
from .pst import (CostBreakdown, CostWeights, Placement, PST, ScheduleResult,
                  Solution, comm_cost, evaluate, hetero_cost, pack, schedule,
                  validate)
from .explore import (Candidate, SAConfig, anneal, enumerate_insertions,
                      initial_solution)
from .ilp import ILPModel, SolveResult, build_model, export_lp, solve
from .report import (PipelineConfig, RRT, RunReport, compute_rrt,
                     prepare_instance, run_pipeline)
from .render import render_svg
from .solio import load_solution, parse_solution, write_solution

__version__ = "0.1.0"
