"""Multirobot trajectory synthesis from counting temporal logic.

Counting temporal logic layers plain LTL tasks (the inner logic, one robot
at a time) under temporal counting propositions ``[phi, m]`` that require
at least m robots to satisfy the task.  This package parses such formulas,
compiles them together with robot transition systems into integer linear
feasibility programs, solves them with HiGHS in process or with any
external LP-file solver, extracts prefix-suffix trajectories, and verifies
the result against an independent semantics oracle, including robustness
to bounded asynchrony between robots.

The public names below are imported from their modules on first use
(PEP 562), so a process that needs one module does not import the rest:
the LP-file solver ``python -m cltlsynth.lp_cli`` loads ``highs`` and
itself, with no NumPy and not even ``lp_format``.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "formula": ("InnerFormula", "OuterFormula", "Tcp", "expand_sugar", "is_cltl",
                "normalize", "parse_formula", "parse_inner_formula", "to_pnf", "to_text"),
    "system": ("ContinuousSystem", "MultiRobotInstance", "TransitionSystem",
               "build_grid_system", "load_model", "shared_system"),
    "ilp": ("IlpModel", "LinExpr", "Solution"),
    "lp_format": ("write_lp",),
    "solver": ("SolveConfig", "solve_bnb", "solve_external"),
    "trajectory": ("ContinuousTrajectory", "LassoTrajectory"),
    "oracle": ("CollectiveExecution", "Lasso", "Verdict", "brute_force_synth",
               "check_robust", "eval_inner", "eval_outer"),
    "encoder_sync": ("EncodedProblem", "Layout", "build_sync_problem", "encode_collision",
                     "encode_loop", "extract_trajectories"),
    "encoder_cltl": ("build_cltl_problem", "decompose_flows"),
    "encoder_robust": ("build_robust_problem",),
    "encoder_continuous": ("build_cont_problem", "extract_continuous", "membership_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
