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
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from typing import Optional, Sequence

FEAS_TOL = 1e-6

# HiGHS runs silently and without presolve (``solver`` docstring)
OPTIONS = {"output_flag": False, "presolve": "off"}


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
    lists its column values, with the columns ``integral`` marks rounded
    to ints; it is not checked here.  A model without columns ("Empty")
    is ``feasible`` with an empty point when every row admits 0 at
    ``FEAS_TOL``, and ``infeasible`` otherwise.  The node limit
    (``mip_max_nodes``) reached with no point gives ``unknown`` with
    ``stats["reason"]`` "node budget".  Any other outcome raises
    ``NumericalError``.  ``stats["nodes"]`` is HiGHS's branch-and-bound
    node count, 0 for a model without integer columns, and
    ``stats["presolve"]`` whether presolve was on.
    """
    highs.run()
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
