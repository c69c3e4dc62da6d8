"""SciPy's HiGHS binding, and the package's one reading of a HiGHS run.

Every solve in the package goes to HiGHS (Huangfu & Hall, "Parallelizing
the dual revised simplex method", Math. Prog. Comp. 2018) through the
binding SciPy ships, ``scipy.optimize._highspy._core``.  ``solver`` hands
it a model as arrays (``passModel``), and the LP-file solver ``lp_cli``
hands it an LP file (``readModel``); both then call ``run_highs``, so a
HiGHS outcome means the same status on either path.

The binding is loaded from its file (``_load_highs_binding``), not
imported.  An import of ``scipy.optimize._highspy._core`` first runs
``scipy/optimize/__init__.py``, which pulls in NumPy, ``scipy.linalg``,
``scipy.sparse`` and most of ``scipy.optimize``; the binding itself is
one extension module that loads without NumPy.  The module is registered
in ``sys.modules`` under its own name, so a later ``import
scipy.optimize`` reuses it and it is never initialised twice.  (The
attribute ``_core`` of the package ``scipy.optimize._highspy`` is then
not bound; ``from scipy.optimize._highspy._core import ...`` works in
either order.)  This module imports only the standard library and the
binding, so a process that reads its model from an LP file loads no
NumPy at all.  The binding is a private module of SciPy, so the SciPy
floor in ``pyproject.toml`` is a release known to ship it.

Both paths run with ``OPTIONS``: silent, without presolve and without
symmetry detection, each measured both ways in the ``solver`` docstring.
Symmetry detection changed no status on 312 programs and took a fifth to
a quarter of each HiGHS call on the 8x8 emergency desk: 0.061, 0.128 and
0.154 s with it against 0.045, 0.094 and 0.124 s without at h = 8, 12
and 16.

HiGHS writes a debug line to stdout, ``output_flag`` or not, in its MIP
search on the subset sum of ``tests/test_solver.py``; it would interleave
with the CLI's lines.  So ``run_highs`` flushes ``sys.stdout`` and points
fd 1 at ``os.devnull`` while HiGHS runs: a flush and a few system calls.

HiGHS meets rows to ``FEAS_TOL`` / 10 on a model with integer columns,
since every point is rechecked at ``FEAS_TOL``.  At HiGHS's default,
``FEAS_TOL``, 30 of the 216 programs h = 1..12, tau = 0..2 of the
benchmark's six integrators failed: points missed the recheck by float
rounding (``6.200001 <= 6.199999999999999``), or HiGHS gave "Solve
error" and wrote to stdout.  Now all 216 solve.  On one CPU of a shared
2-vCPU machine (ten alternating rounds) the 144 ladder programs took a
median 0.726 s before and 0.714 s after, the 3 desk programs 0.210 and
0.205 s, with the same statuses.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

FEAS_TOL = 1e-6

# HiGHS runs silently, without presolve and without symmetry detection,
# and meets integer models' rows to FEAS_TOL / 10 (module docstring)
OPTIONS = {"output_flag": False, "presolve": "off", "mip_detect_symmetry": False,
           "mip_feasibility_tolerance": FEAS_TOL / 10}


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
HighsVarType = _core.HighsVarType
MatrixFormat, ObjSense = _core.MatrixFormat, _core.ObjSense
kSolutionStatusFeasible = _core.kSolutionStatusFeasible


class SolverError(RuntimeError):
    pass


class NumericalError(SolverError):
    """The MILP solver failed, or returned a point that violates the model;
    never silently ignored."""


def new_highs(options: Optional[dict] = None):
    """A HiGHS instance with ``OPTIONS`` set, then ``options``: further
    HiGHS options by name, set as they are, so that an explicit
    ``presolve`` entry overrides the default.  An option HiGHS rejects
    raises ``ValueError``."""
    highs = _Highs()
    for name, value in {**OPTIONS, **(options or {})}.items():
        if highs.setOptionValue(name, value) == HighsStatus.kError:
            raise ValueError(f"HiGHS rejects option {name} = {value!r}")
    return highs


def run_highs(highs, integral: Sequence[bool]) -> tuple[str, Optional[list], dict]:
    """Run a HiGHS instance that holds a model and read its outcome as
    ``(status, point, stats)``.

    Model status "Infeasible" is ``infeasible``.  A point, even one found
    before a limit stopped the search, is ``feasible``, and ``point``
    lists the values of the first ``len(integral)`` columns, with the
    columns ``integral`` marks rounded to ints; it is not checked here.  A model without columns ("Empty")
    is ``feasible`` with an empty point when every row admits 0 at
    ``FEAS_TOL``, and ``infeasible`` otherwise.  The node limit
    (``mip_max_nodes``) reached with no point gives ``unknown`` with
    ``stats["reason"]`` "node budget".  Any other outcome raises
    ``NumericalError``.  ``stats["nodes"]`` is HiGHS's branch-and-bound
    node count, 0 for a model without integer columns, and
    ``stats["presolve"]`` whether presolve was on.  HiGHS runs with fd 1
    pointed at ``os.devnull`` (module docstring).
    """
    sys.stdout.flush()
    saved, devnull = os.dup(1), os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        highs.run()
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)
    status = highs.getModelStatus()
    info = highs.getInfo()
    stats = {"nodes": max(info.mip_node_count, 0),
             "presolve": highs.getOptionValue("presolve")[1] != "off"}
    if status == HighsModelStatus.kModelEmpty:
        lp = highs.getLp()
        met = (all(lo <= FEAS_TOL for lo in lp.row_lower_)
               and all(hi >= -FEAS_TOL for hi in lp.row_upper_))
        return ("feasible", [], stats) if met else ("infeasible", None, stats)
    if status == HighsModelStatus.kInfeasible:
        return "infeasible", None, stats
    if info.primal_solution_status == kSolutionStatusFeasible:
        return "feasible", [int(round(x)) if k else x for k, x in
                            zip(integral, highs.getSolution().col_value)], stats
    if status == HighsModelStatus.kSolutionLimit:
        return "unknown", None, {**stats, "reason": "node budget"}
    raise NumericalError(f"HiGHS failed: {highs.modelStatusToString(status)}")
