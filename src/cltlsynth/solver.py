"""Feasibility solving.

``solve_bnb`` hands the whole program to HiGHS (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018)
in one in-process call.  A node budget becomes HiGHS's node limit, and
single-threaded runs are reproducible.  That call is ``solve_arrays``,
which the LP-file solver ``lp_cli`` runs as well.

The call goes to the HiGHS binding that SciPy ships,
``scipy.optimize._highspy._core``, rather than ``scipy.optimize.milp``.
A feasibility check needs only the model in and the primal point out;
``milp`` also validates its input, converts the matrix to CSC, builds a
HiGHS option object per option and a variable-type object per column,
and copies out duals, slacks and per-column bound multipliers in a Python
loop.  On a 2-vCPU machine pinned to one CPU, with scipy 1.17.1, that
came to about 1.9 ms a call: the 144 programs of the benchmark's ladder
took 1.20 s through ``milp`` and 0.92 s through the binding (median of
seven alternating rounds).  The binding is a private module of SciPy, so
the SciPy floor in ``pyproject.toml`` is a release known to ship it.

The binding is loaded from its file (``_load_highs_binding``), not
imported.  An import of ``scipy.optimize._highspy._core`` first runs
``scipy/optimize/__init__.py``, which pulls in ``scipy.linalg``,
``scipy.sparse`` and most of ``scipy.optimize``; the binding itself is
one extension module that needs only NumPy.  The module is registered
in ``sys.modules`` under its own name, so a later ``import
scipy.optimize`` reuses it and it is never initialised twice.  (The
attribute ``_core`` of the package ``scipy.optimize._highspy`` is then
not bound; ``from scipy.optimize._highspy._core import ...`` works in
either order.)  Together with the NumPy ``CsrMatrix`` of ``ilp``, this
keeps SciPy's packages out of the process: on the same machine, a fresh
interpreter importing ``cltlsynth.lp_cli`` took a median 0.14 s instead
of 0.58 s, and one importing ``cltlsynth.cli`` 0.25 s instead of 0.83 s
(seven alternating runs each).

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

import importlib.machinery
import importlib.util
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .ilp import IlpModel, ModelArrays, Solution
from .lp_format import read_solution_file, write_lp

FEAS_TOL = 1e-6


def _load_highs_binding():
    """SciPy's HiGHS binding, loaded from its file without importing
    ``scipy`` or ``scipy.optimize`` and registered under its own name, or
    the one SciPy has already loaded (module docstring)."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    found = [] if scipy is None else [
        path for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if (path := Path(scipy.submodule_search_locations[0], "optimize", "_highspy",
                         f"_core{suffix}")).is_file()]
    if not found:
        raise ImportError(f"SciPy's HiGHS binding {name} was not found; "
                          "cltlsynth needs scipy>=1.17.1")
    loader = importlib.machinery.ExtensionFileLoader(name, str(found[0]))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, found[0], loader=loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module


_core = _load_highs_binding()
_Highs = _core._Highs
HighsModelStatus, HighsStatus = _core.HighsModelStatus, _core.HighsStatus
MatrixFormat, ObjSense = _core.MatrixFormat, _core.ObjSense
kSolutionStatusFeasible = _core.kSolutionStatusFeasible


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

    The CSR matrix goes to HiGHS row-wise as it is, with a zero objective,
    and only the primal point is read back (module docstring).  HiGHS
    runs silently and without presolve; ``options`` are further HiGHS
    options by name, set as they are, and an explicit ``presolve`` entry
    overrides the default.  HiGHS model status "Infeasible" is
    ``infeasible``; a point, even one found before a limit stopped the
    search, is ``feasible``; the node limit (``mip_max_nodes``) reached
    with no point gives ``unknown`` with ``stats["reason"]`` "node
    budget"; a model HiGHS rejects and any other outcome raise
    ``NumericalError``.  A returned point keys each column index to its
    value, integer columns rounded; it is not checked here.
    ``stats["nodes"]`` is HiGHS's branch-and-bound node count, 0 for a
    model without integer columns, and ``stats["presolve"]`` whether
    presolve was on.
    """
    options = {"output_flag": False, "presolve": "off", **(options or {})}
    presolve = options["presolve"] != "off"
    n_col, n_row = arrays.lb.size, arrays.row_lo.size
    if n_col == 0:  # HiGHS rejects a model without variables
        met = np.all(arrays.row_lo <= FEAS_TOL) and np.all(arrays.row_hi >= -FEAS_TOL)
        return Solution("feasible" if met else "infeasible",
                        stats={"nodes": 0, "presolve": presolve})
    highs = _Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == HighsStatus.kError:
            raise ValueError(f"HiGHS rejects option {name} = {value!r}")
    matrix = arrays.matrix
    if highs.passModel(n_col, n_row, matrix.nnz, MatrixFormat.kRowwise,
                       ObjSense.kMinimize, 0.0,
                       np.zeros(n_col), arrays.lb, arrays.ub, arrays.row_lo, arrays.row_hi,
                       matrix.indptr, matrix.indices, matrix.data,
                       arrays.integrality) == HighsStatus.kError:
        raise NumericalError("HiGHS rejected the model: a coefficient or bound "
                             "is not a number or too large")
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    stats = {"nodes": max(info.mip_node_count, 0), "presolve": presolve}
    if status == HighsModelStatus.kInfeasible:
        return Solution("infeasible", stats=stats)
    if info.primal_solution_status == kSolutionStatusFeasible:
        values = {v: int(round(x)) if integral else x
                  for v, (integral, x) in enumerate(zip(arrays.integrality.tolist(),
                                                        highs.getSolution().col_value))}
        return Solution("feasible", values, stats=stats)
    if status == HighsModelStatus.kSolutionLimit:
        return Solution("unknown", stats={**stats, "reason": "node budget"})
    raise NumericalError(f"HiGHS failed: {highs.modelStatusToString(status)}")


def solve_bnb(model: IlpModel, config: Optional[SolveConfig] = None) -> Solution:
    """Decide feasibility with HiGHS branch-and-cut through ``solve_arrays``.

    ``node_budget`` becomes HiGHS's ``mip_max_nodes``.  A returned point must
    pass ``check_point`` at ``FEAS_TOL``, against the arrays the solve was
    given; otherwise ``NumericalError`` is raised.
    """
    config = config or SolveConfig()
    options = {}
    if config.node_budget is not None:
        options["mip_max_nodes"] = config.node_budget
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
    is taken as the solution file content.  A command that cannot be
    split or started, or that exits nonzero, raises ``SolverError``.
    """
    if "{lp}" not in solver_cmd:
        raise SolverError("solver command must contain an {lp} placeholder")
    with tempfile.TemporaryDirectory() as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
        name_to_var = write_lp(model, lp_path)
        cmd = solver_cmd.replace("{lp}", str(lp_path)).replace("{sol}", str(sol_path))
        try:
            proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True)
        except (OSError, ValueError) as exc:  # not found, not executable, bad quoting
            raise SolverError(f"external solver could not be started: {exc}") from None
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
