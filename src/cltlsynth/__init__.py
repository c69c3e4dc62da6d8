"""Multirobot trajectory synthesis from counting temporal logic.

Counting temporal logic layers plain LTL tasks (the inner logic, one robot
at a time) under temporal counting propositions ``[phi, m]`` that require
at least m robots to satisfy the task.  This package parses such formulas,
compiles them together with robot transition systems into integer linear
feasibility programs, solves them with HiGHS in process or with any
external LP-file solver, extracts prefix-suffix trajectories, and verifies
the result against an independent semantics oracle, including robustness
to bounded asynchrony between robots.
"""

__version__ = "0.1.0"

from .formula import (InnerFormula, OuterFormula, Tcp, expand_sugar,
                      formula_length, is_cltl, normalize, parse_formula,
                      parse_inner_formula, to_pnf, to_text)
from .system import (AggregateSystem, ContinuousSystem, MultiRobotInstance,
                     TransitionSystem, aggregate_view, build_grid_system,
                     load_model, validate)
from .ilp import IlpModel, LinExpr, Solution
from .lp_format import parse_lp, write_lp
from .solver import SolveConfig, solve_bnb, solve_external
from .trajectory import ContinuousTrajectory, LassoTrajectory
from .oracle import (CollectiveExecution, Lasso, Verdict, brute_force_synth,
                     check_robust, eval_inner, eval_outer)
from .encoder_sync import (EncodedProblem, Layout, build_sync_problem,
                           encode_collision, encode_dynamics, encode_loop,
                           extract_trajectories)
from .encoder_cltl import build_cltl_problem, decompose_flows, encode_aggregate
from .encoder_robust import build_robust_problem, extend_states
from .encoder_continuous import (build_cont_problem, extract_continuous,
                                 membership_trace)

__all__ = [
    # formula
    "InnerFormula", "OuterFormula", "Tcp", "expand_sugar", "formula_length",
    "is_cltl", "normalize", "parse_formula", "parse_inner_formula", "to_pnf",
    "to_text",
    # system
    "AggregateSystem", "ContinuousSystem", "MultiRobotInstance",
    "TransitionSystem", "aggregate_view", "build_grid_system", "load_model",
    "validate",
    # ilp, lp_format, solver, trajectory
    "IlpModel", "LinExpr", "Solution", "parse_lp", "write_lp", "SolveConfig",
    "solve_bnb", "solve_external", "ContinuousTrajectory", "LassoTrajectory",
    # oracle
    "CollectiveExecution", "Lasso", "Verdict", "brute_force_synth",
    "check_robust", "eval_inner", "eval_outer",
    # encoders
    "EncodedProblem", "Layout", "build_sync_problem", "encode_collision",
    "encode_dynamics", "encode_loop", "extract_trajectories",
    "build_cltl_problem", "decompose_flows", "encode_aggregate",
    "build_robust_problem", "extend_states", "build_cont_problem",
    "extract_continuous", "membership_trace",
]
