"""Feasibility solving.

``solve_bnb`` hands the whole program to HiGHS (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018)
in one in-process ``scipy.optimize.milp`` call.  A node budget becomes
HiGHS's node limit, and single-threaded runs are reproducible.  That call
is ``solve_arrays``, which the LP-file solver ``lp_cli`` runs as well.

HiGHS presolve is off.  On the 0/1 programs of the synchronous, robust
and continuous encodings it costs more than it saves: on the 8x8
emergency desk at h = 16 it takes about 0.3 s to cut 13,517 rows to
8,037, and the point then comes at the root from the feasibility-jump
heuristic (Luteberget & Sartor, Math. Prog. Comp. 2023), which finds one
in the unreduced model too.  On a shared 2-vCPU machine with scipy
1.17.1, the desk's HiGHS calls at h = 8, 12 and 16 took 0.40, 0.56 and
0.74 s with presolve and 0.09, 0.16 and 0.17 s without.  Models small
enough for presolve to settle outright (h near 1) lose a few
milliseconds.  The aggregate encoding's count and flow integers are
where presolve could pay (Achterberg et al., "Presolve reductions in
MIP", INFORMS J. Comput. 2020), but not here: on an 8x8 aggregate
instance at h = 12, with N = 10, 30 and 60 robots in three start
placements, the solve without presolve was faster in six of the nine
cases and took 28 s in all against 63 s with it.  So every model is
solved the same way.

``solve_external`` shells out to any solver that accepts an LP file and
writes ``name value`` solution lines.  Both paths round the returned point
and revalidate it against every constraint before it is accepted.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .ilp import IlpModel, ModelArrays, Solution
from .lp_format import read_solution_file, write_lp

FEAS_TOL = 1e-6


class SolverError(RuntimeError):
    pass


class NumericalError(SolverError):
    """The MILP solver failed, or returned a point that violates the model;
    never silently ignored."""


@dataclass
class SolveConfig:
    node_budget: Optional[int] = None


def solve_arrays(arrays: ModelArrays, options: Optional[dict] = None) -> Solution:
    """Decide whether ``arrays`` has a feasible point, in the package's one
    HiGHS call, which ``solve_bnb`` and ``lp_cli`` share.

    HiGHS runs without presolve (module docstring); ``options`` go to
    HiGHS as they are, and an explicit ``presolve`` entry overrides that.
    Status 2 is ``infeasible``; a node limit reached before HiGHS finds a
    point or proves infeasibility gives ``unknown`` with
    ``stats["reason"]`` "node budget"; any other failure raises
    ``NumericalError``.  A returned point keys each column index to its
    value, integer columns rounded; it is not checked here.
    ``stats["nodes"]`` is HiGHS's node count and ``stats["presolve"]``
    the presolve setting it ran with.
    """
    # a fresh dict: milp pops entries from the one it gets
    options = {"presolve": False, **(options or {})}
    presolve = options["presolve"]
    if arrays.lb.size == 0:  # HiGHS rejects a model without variables
        met = np.all(arrays.row_lo <= FEAS_TOL) and np.all(arrays.row_hi >= -FEAS_TOL)
        return Solution("feasible" if met else "infeasible",
                        stats={"nodes": 0, "presolve": presolve})
    res = milp(np.zeros(arrays.lb.size), integrality=arrays.integrality,
               bounds=Bounds(arrays.lb, arrays.ub),
               constraints=LinearConstraint(arrays.matrix, arrays.row_lo, arrays.row_hi),
               options=options)
    stats = {"nodes": res.mip_node_count or 0, "presolve": presolve}
    if res.status == 2:
        return Solution("infeasible", stats=stats)
    if res.x is None:
        # scipy passes a reached node limit on only as HiGHS model status
        # 16, "Solution limit", in the result message
        if "Solution limit" in res.message:
            return Solution("unknown", stats={**stats, "reason": "node budget"})
        raise NumericalError(f"HiGHS failed: {res.message}")
    values = {v: int(round(x)) if integral else x
              for v, (integral, x) in enumerate(zip(arrays.integrality.tolist(),
                                                    res.x.tolist()))}
    return Solution("feasible", values, stats=stats)


def solve_bnb(model: IlpModel, config: Optional[SolveConfig] = None) -> Solution:
    """Decide feasibility with HiGHS branch-and-cut through ``solve_arrays``.

    ``node_budget`` becomes HiGHS's ``node_limit``.  A returned point must
    pass ``check_point`` at ``FEAS_TOL``, against the arrays the solve was
    given; otherwise ``NumericalError`` is raised.
    """
    config = config or SolveConfig()
    options = {}
    if config.node_budget is not None:
        options["node_limit"] = config.node_budget
    arrays = model.to_arrays()
    sol = solve_arrays(arrays, options)
    if sol.feasible:
        problems = model.check_point(sol.values, tol=FEAS_TOL, arrays=arrays)
        if problems:
            raise NumericalError("HiGHS point violates the model: " + problems[0])
    return sol


# ---------------------------------------------------------------------------
# External solver adapter
# ---------------------------------------------------------------------------

def solve_external(model: IlpModel, solver_cmd: str) -> Solution:
    """Export the model, run ``solver_cmd`` and parse the returned point.

    ``solver_cmd`` is a template with an ``{lp}`` placeholder and an
    optional ``{sol}`` placeholder; without ``{sol}``, the solver's stdout
    is taken as the solution file content.
    """
    if "{lp}" not in solver_cmd:
        raise SolverError("solver command must contain an {lp} placeholder")
    with tempfile.TemporaryDirectory() as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
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
