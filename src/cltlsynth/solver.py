"""Feasibility solving.

``solve_bnb`` hands the whole program to HiGHS (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018)
in one in-process ``scipy.optimize.milp`` call.  Node and time budgets
become HiGHS limits, and single-threaded runs are reproducible.

``solve_external`` shells out to any solver that accepts an LP file and
writes ``name value`` solution lines.  Both paths round the returned point
and revalidate it against every constraint before it is accepted.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .ilp import IlpModel, Solution
from .lp_format import read_solution_file, write_lp

FEAS_TOL = 1e-6

# How HiGHS words a reached limit in the result message; scipy passes a
# reached node limit on only as HiGHS model status 16, "Solution limit".
_LIMIT_REASONS = (("Time limit", "time budget"), ("Solution limit", "node budget"))


class SolverError(RuntimeError):
    pass


class NumericalError(SolverError):
    """The MILP solver failed, or returned a point that violates the model;
    never silently ignored."""


@dataclass
class SolveConfig:
    time_budget: Optional[float] = None   # seconds
    node_budget: Optional[int] = None


def solve_bnb(model: IlpModel, config: Optional[SolveConfig] = None) -> Solution:
    """Decide feasibility with HiGHS branch-and-cut; the objective is ignored.

    ``node_budget`` and ``time_budget`` become HiGHS's ``node_limit`` and
    ``time_limit``.  A limit reached before HiGHS finds a point or proves
    infeasibility gives ``unknown`` with ``stats["reason"]`` naming the
    budget.  A returned point has its integer variables rounded and must
    pass ``check_point`` at ``FEAS_TOL``; otherwise ``NumericalError`` is
    raised.  ``stats["nodes"]`` is HiGHS's node count.
    """
    config = config or SolveConfig()
    start = time.monotonic()
    if model.n_vars == 0:  # HiGHS rejects a model without variables
        status = "infeasible" if model.check_point({}, tol=FEAS_TOL) else "feasible"
        return Solution(status, stats={"nodes": 0})
    options = {}
    if config.node_budget is not None:
        options["node_limit"] = config.node_budget
    if config.time_budget is not None:
        options["time_limit"] = config.time_budget
    arrays = model.to_arrays()
    res = milp(np.zeros(model.n_vars), integrality=arrays.integrality,
               bounds=Bounds(arrays.lb, arrays.ub),
               constraints=LinearConstraint(arrays.matrix, arrays.row_lo, arrays.row_hi),
               options=options)
    stats = {"nodes": res.mip_node_count or 0, "time": time.monotonic() - start}
    if res.status == 2:
        return Solution("infeasible", stats=stats)
    if res.x is None:
        for marker, reason in _LIMIT_REASONS:
            if marker in res.message:
                return Solution("unknown", stats={**stats, "reason": reason})
        raise NumericalError(f"HiGHS failed: {res.message}")
    values = {v: int(round(x)) if var.is_integral else x
              for v, (var, x) in enumerate(zip(model.vars, res.x.tolist()))}
    problems = model.check_point(values, tol=FEAS_TOL)
    if problems:
        raise NumericalError("HiGHS point violates the model: " + problems[0])
    return Solution("feasible", values, stats=stats)


# ---------------------------------------------------------------------------
# External solver adapter
# ---------------------------------------------------------------------------

def solve_external(model: IlpModel, solver_cmd: str,
                   workdir: Optional[Union[str, Path]] = None) -> Solution:
    """Export the model, run ``solver_cmd`` and parse the returned point.

    ``solver_cmd`` is a template with an ``{lp}`` placeholder and an
    optional ``{sol}`` placeholder; without ``{sol}``, the solver's stdout
    is taken as the solution file content.
    """
    if "{lp}" not in solver_cmd:
        raise SolverError("solver command must contain an {lp} placeholder")
    ctx = tempfile.TemporaryDirectory() if workdir is None else None
    base = Path(ctx.name) if ctx else Path(workdir)
    base.mkdir(parents=True, exist_ok=True)
    try:
        lp_path = base / "model.lp"
        sol_path = base / "model.sol"
        name_to_var = write_lp(model, lp_path)
        cmd = solver_cmd.replace("{lp}", str(lp_path)).replace("{sol}", str(sol_path))
        proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True)
        if proc.returncode != 0:
            raise SolverError(
                f"external solver exited with {proc.returncode}: {proc.stderr.strip()[:500]}")
        if "{sol}" not in solver_cmd:
            sol_path.write_text(proc.stdout)
        status, named = read_solution_file(sol_path)
        if status == "infeasible":
            return Solution("infeasible", stats={"solver": "external"})
        if status == "unknown":
            return Solution("unknown", stats={"solver": "external"})
        values: dict[int, float] = {}
        for name, value in named.items():
            if name not in name_to_var:
                raise SolverError(f"solution mentions unknown variable {name!r}")
            values[name_to_var[name]] = value
        for v, var in enumerate(model.vars):
            x = values.get(v, 0.0)
            values[v] = int(round(x)) if var.is_integral else float(x)
        problems = model.check_point(values, tol=FEAS_TOL)
        if problems:
            raise SolverError(
                "external solution violates the model (solver-format mismatch): "
                + problems[0])
        return Solution("feasible", values, stats={"solver": "external"})
    finally:
        if ctx:
            ctx.cleanup()
