"""Feasibility solving.

``solve_bnb`` hands the whole program to HiGHS in one in-process call.
A node budget becomes HiGHS's node limit, and single-threaded runs are
reproducible.  That call is ``solve_arrays``: the model's arrays go to
HiGHS's ``passModel``, and ``highs.run_highs`` reads the outcome, as it
does for the LP-file solver ``lp_cli``.

The call goes to the HiGHS binding that SciPy ships, which ``highs``
loads, rather than ``scipy.optimize.milp``.  A feasibility check needs
only the model in and the primal point out; ``milp`` also validates its
input, converts the matrix to CSC, builds a HiGHS option object per
option and a variable-type object per column, and copies out duals,
slacks and per-column bound multipliers in a Python loop.  On a 2-vCPU
machine pinned to one CPU, with scipy 1.17.1, that came to about 1.9 ms
a call: the 144 programs of the benchmark's ladder took 1.20 s through
``milp`` and 0.92 s through the binding (median of seven alternating
rounds).  Together with the NumPy ``CsrMatrix`` of ``ilp``, loading the
binding from its file keeps SciPy's packages out of the process: on the
same machine, a fresh interpreter importing ``cltlsynth.cli`` took a
median 0.25 s instead of 0.83 s with ``scipy.optimize`` and
``scipy.sparse`` (seven alternating runs).

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

HiGHS symmetry detection is off as well: the point comes from the
feasibility-jump heuristic at the root, before any orbit is used, so on
these programs the detection costs and does not pay.  Solving every
program h = 1..h_w of the benchmark's ladder and desk instances (300
programs, 59 infeasible) and 12 aggregate programs (an 8x8 grid split by
a wall with gaps, ``G !([D,1]) & G F [A,k] & G F [C,k]`` with k = N/3,
N = 10, 30 and 60 in two start placements, h = 4 and 12) both ways on
one CPU, every status was the same.  The desk's HiGHS calls at h = 8,
12 and 16 took 0.061, 0.128 and 0.154 s with the detection and 0.045,
0.094 and 0.124 s without, the 264 ladder programs 1.39 and 1.34 s in
all, and the aggregate ones 22.2 and 22.6 s, none more than 1.16 times
slower without it (the faster of two runs each way).

About 90% of each solve goes to that heuristic, and its time swings per
instance on any change to the program.  These probes (HiGHS 1.12.0
through SciPy 1.17.1, shared 2-vCPU machine) found nothing to gain, so
they need not be repeated:

- A start point helps only when it is feasible.  The desk at h = 16
  takes about 90-117 ms from scratch and 9-13 ms when handed a feasible
  point through ``setSolution``; infeasible start points did not help.
  The log shows the feasibility jump restarting after it has the point:
  15,195 restarts on the desk at h = 16, 3,467 on
  ``FAB-3x3-r2-mutual_exclusion-1`` at h = 4.
- ``mip_max_improving_sols`` = 1, ``objective_target`` = 0,
  ``mip_heuristic_effort`` 0 or 1, and ``threads`` = 1 changed nothing or
  made solves slower.
- Any nonzero objective was slower: the desk at h = 16 went from 74 ms
  to 230-1,258 ms.
- The LP relaxation was not integral on any of the benchmark's 147
  programs (every h_lo..h_w of both workloads), so no LP solve can stand
  in for the integer one.
- Neither ``time_limit`` nor a user interrupt from the
  ``kCallbackMipInterrupt`` or ``kCallbackMipImprovingSolution``
  callbacks stops the feasibility jump once it has started: the unfolded
  desk at h = 16 ran 82-95 ms under a 0.02 s limit, as long as without
  one.
- A feasible start given through ``setSolution`` is where the time
  goes: the 140 feasible programs of the benchmark's ladder took 0.73 s
  from scratch and 0.06 s with their own point as the start (0.93 and
  0.13 s in a busier spell).  Only a start that is already feasible
  helps (first probe above).

The programs HiGHS gets are folded (``encoder_sync``): with presolve
off, its setup reports 2 domain-fixed columns on the desk at h = 16, the
kept constants, where the unfolded program had 1,432.  In process the
folded desk programs at h = 8, 12 and 16 took 27-48, 88-148 and 143-196
ms against 41-63, 88-144 and 132-192 ms unfolded (median of 7, three
alternating runs on one CPU of a shared 2-vCPU machine in a noisy
spell): no clear difference.  The LP-file route gains (about 11% of the
benchmark's ``emergency-lp`` time, CHANGES.md), since HiGHS's reader
pays for every nonzero and the desk has 29% fewer.

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

from .highs import (FEAS_TOL, HighsStatus, MatrixFormat, NumericalError, ObjSense,
                    SolverError, new_highs, run_highs)
from .ilp import IlpModel, ModelArrays, Solution
from .lp_format import read_solution_file, write_lp


@dataclass
class SolveConfig:
    node_budget: Optional[int] = None


def solve_arrays(arrays: ModelArrays, options: Optional[dict] = None) -> Solution:
    """Decide whether ``arrays`` has a feasible point, in the package's one
    in-process HiGHS call.

    The CSR matrix goes to HiGHS row-wise as it is, with a zero objective,
    and only the primal point is read back.  ``options`` go to
    ``highs.new_highs``, and the outcome is read by ``highs.run_highs``,
    whose docstring gives the statuses and ``stats``; a model HiGHS
    rejects raises ``NumericalError``.  A returned point keys each column
    index to its value; it is not checked here.
    """
    highs = new_highs(options)
    n_col, n_row = arrays.lb.size, arrays.row_lo.size
    matrix = arrays.matrix
    if highs.passModel(n_col, n_row, matrix.nnz, MatrixFormat.kRowwise,
                       ObjSense.kMinimize, 0.0,
                       np.zeros(n_col), arrays.lb, arrays.ub, arrays.row_lo, arrays.row_hi,
                       matrix.indptr, matrix.indices, matrix.data,
                       arrays.integrality) == HighsStatus.kError:
        raise NumericalError("HiGHS rejected the model: a coefficient or bound "
                             "is not a number or too large")
    status, point, stats = run_highs(highs, arrays.integrality.tolist())
    return Solution(status, dict(enumerate(point or ())), stats=stats)


def solve_bnb(model: IlpModel, config: Optional[SolveConfig] = None) -> Solution:
    """Decide feasibility with HiGHS branch-and-cut through ``solve_arrays``.

    ``node_budget`` becomes HiGHS's ``mip_max_nodes``.  A returned point must
    pass ``check_point`` at ``FEAS_TOL``, against the arrays the solve was
    given (``to_arrays`` keeps them); otherwise ``NumericalError`` is raised.
    """
    config = config or SolveConfig()
    options = {}
    if config.node_budget is not None:
        options["mip_max_nodes"] = config.node_budget
    sol = solve_arrays(model.to_arrays(), options)
    if sol.feasible:
        problems = model.check_point(sol.values, tol=FEAS_TOL)
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
    is taken as the solution file content.  A command without ``{lp}``,
    or one that cannot be split or started, or that exits nonzero, raises
    ``SolverError`` (``cltlsynth synth`` rejects the first two as usage
    errors before it reads the model).  The bundled target is
    ``python -m cltlsynth.lp_cli {lp} {sol}``: a child that loads only
    ``highs`` of the package, writes the solution file itself and exits
    without interpreter teardown (its docstring gives its time).

    The listed values go into a NumPy point, 0 for every unlisted column,
    whose integral columns are rounded in NumPy; it must pass
    ``check_point`` at ``FEAS_TOL``, or ``SolverError`` is raised.  The
    solution's values list the point's nonzero columns, integral ones as
    ints.
    """
    if "{lp}" not in solver_cmd:
        raise SolverError("solver command must contain an {lp} placeholder")
    with tempfile.TemporaryDirectory() as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
        name_to_var = write_lp(model, lp_path)
        cmd = solver_cmd.replace("{lp}", str(lp_path)).replace("{sol}", str(sol_path))
        try:
            proc = subprocess.run(shlex.split(cmd), capture_output=True)
        except (OSError, ValueError) as exc:  # not found, not executable, bad quoting
            raise SolverError(f"external solver could not be started: {exc}") from None
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            raise SolverError(f"external solver exited with {proc.returncode}: {stderr[:500]}")
        if "{sol}" not in solver_cmd:
            sol_path.write_bytes(proc.stdout)
        status, named = read_solution_file(sol_path)
        if status != "feasible":
            return Solution(status, stats={"solver": "external"})
        try:
            listed = [name_to_var[name] for name in named]
        except KeyError as exc:
            raise SolverError(f"solution mentions unknown variable {exc.args[0]!r}") from None
        integral = model.to_arrays().integrality == 1
        point = np.zeros(integral.size)
        point[listed] = list(named.values())
        point[integral] = np.round(point[integral])
        problems = model.check_point(point, tol=FEAS_TOL)
        if problems:
            raise SolverError(
                "external solution violates the model (solver-format mismatch): "
                + problems[0])
        nonzero = np.flatnonzero(point)
        values = dict(zip(nonzero.tolist(), point[nonzero].tolist()))
        whole = nonzero[integral[nonzero]]
        values.update(zip(whole.tolist(), map(int, point[whole].tolist())))
        return Solution("feasible", values, stats={"solver": "external"})
