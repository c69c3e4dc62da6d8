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
instance on any change to the program.  Most of that time comes after
the point is found.  With ``log_dev_level`` 3, the ladder's
``GF-3x3-r2-off-0`` at h = 3 reaches its point at the heuristic's 14th
local minimum and runs on to the 3,923rd before "Feasibility Jump:
quitting".  No option or callback stops it sooner (probes below), but
the shape of the model does: ``solve_arrays`` appends idle columns,
continuous, fixed at 0 and in no row, so that a model without integer
columns stays an LP (integer ones gave the same logs).  With 168 of them
(three per column) the heuristic takes the same path to the same point
and quits at the 2,086th local minimum.  So a program of n columns gets
k = max(0, min(3n, 3,072 - n)) idle columns: three per column while the
total stays within ``IDLE_LIMIT``, fewer up to it, and none from it up.
HiGHS's time per program, with k idle columns by the rule and with 3n,
on one CPU of a shared 2-vCPU machine (HiGHS 1.12.0 through SciPy
1.17.1; the range of two to five alternating runs each way; aggregate-n
is the 8x8 instance of ROADMAP's standing notes at h = 12, on the
aggregate and the per-robot engine):

=========================  =======  =====  ===========  ===========  ===========
program                    n        k      no idle      k idle       3n idle
=========================  =======  =====  ===========  ===========  ===========
144 ladder programs        28-356   3n     0.55-0.71 s  0.27-0.32 s  (as k)
desk h = 4                 405      1,215  10-14 ms     4-5 ms       (as k)
desk h = 8                 1,449    1,623  19-28 ms     14-15 ms     15-19 ms
desk h = 12                2,655    417    57-84 ms     72-74 ms     35-37 ms
desk h = 16                3,847    0      74-86 ms     (no idle)    31-37 ms
aggregate-n N = 10         3,072    0      1.39-1.43 s  (no idle)    1.65-1.74 s
aggregate-n N = 60         3,905    0      2.84-2.88 s  (no idle)    1.66-1.77 s
aggregate-n N = 300        3,906    0      3.97-4.43 s  (no idle)    3.85-4.03 s
per-robot N = 10           4,152    0      26-28 ms     (no idle)    26-29 ms
per-robot N = 60           26,959   0      198-205 ms   (no idle)    294-296 ms
per-robot N = 300          132,840  0      1.48-1.64 s  (no idle)    1.70-1.81 s
=========================  =======  =====  ===========  ===========  ===========

Large per-robot programs lose: at N = 60, 4,096 to 16,384 idle columns
took 213-309 ms.  The aggregate engine's first point comes from cuts and
a sub-MIP rather than the heuristic, and idle columns move it, so its
time swings either way: with 4,096 idle columns N = 10 took 2.82-3.16 s
and N = 60 3.53-3.66 s.  On smaller programs (aggregate-n at h = 4, 6, 8
and 10 on the aggregate engine for N = 3, 10, 30 and 60, 240 to 3,187
columns, and on the per-robot one for N = 3 and 10, 133 to 2,934) the
rule moved 8 of 24 points, and the 24 took 12.9-14.2 s in all against
14.4-17.4 s, but single aggregate programs went both ways: N = 3 at
h = 8 from 0.69 to 1.21 s, N = 60 at h = 6 from 2.6 to 1.4 s.  The limit of 3,072 columns is the smallest of the aggregate-n
programs at h = 12, so none of them gets an idle column.  On the 144
ladder programs and the desk at h = 1..16 every status, and every point
on the program's columns, was the same with and without idle columns.

These probes (HiGHS 1.12.0 through SciPy 1.17.1, shared 2-vCPU machine)
found no option that shortens the heuristic, so they need not be
repeated:

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


# A program of n columns goes to HiGHS with min(3n, IDLE_LIMIT - n) idle
# columns, none from IDLE_LIMIT columns up (module docstring)
IDLE_LIMIT = 3072


def idle_columns(n_col: int) -> int:
    """How many idle columns ``solve_arrays`` adds to a program of
    ``n_col`` columns."""
    return max(0, min(3 * n_col, IDLE_LIMIT - n_col))


def solve_arrays(arrays: ModelArrays, options: Optional[dict] = None) -> Solution:
    """Decide whether ``arrays`` has a feasible point, in the package's one
    in-process HiGHS call.

    The CSR matrix goes to HiGHS row-wise as it is, with a zero objective,
    followed by ``idle_columns`` continuous columns fixed at 0 that appear
    in no row, and only the program's columns of the primal point are read
    back.  ``options`` go to ``highs.new_highs``, and the outcome is read
    by ``highs.run_highs``, whose docstring gives the statuses and
    ``stats``; a model HiGHS rejects raises ``NumericalError``.  A
    returned point keys each column index to its value; it is not checked
    here.
    """
    highs = new_highs(options)
    idle = idle_columns(arrays.lb.size)
    lb, ub, integrality = (np.concatenate([a, np.zeros(idle, a.dtype)])
                           for a in (arrays.lb, arrays.ub, arrays.integrality))
    matrix = arrays.matrix
    if highs.passModel(lb.size, arrays.row_lo.size, matrix.nnz, MatrixFormat.kRowwise,
                       ObjSense.kMinimize, 0.0,
                       np.zeros(lb.size), lb, ub, arrays.row_lo, arrays.row_hi,
                       matrix.indptr, matrix.indices, matrix.data,
                       integrality) == HighsStatus.kError:
        raise NumericalError("HiGHS rejected the model: a coefficient or bound "
                             "is not a number or too large")
    # run_highs zips the point with this list of the program's columns, so
    # no idle column's value is read back
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

def solver_words(solver_cmd: str) -> list[str]:
    """The words of the template ``solver_cmd`` (``shlex.split``), split
    before any path goes in, so a path with a space or a quote stays one
    word; ValueError without ``{lp}`` or with quoting it cannot split."""
    if "{lp}" not in solver_cmd:
        raise ValueError("must contain an {lp} placeholder")
    try:
        return shlex.split(solver_cmd)
    except ValueError as exc:  # such as an unbalanced quote
        raise ValueError(f"cannot be split into words: {exc}") from None


def solve_external(model: IlpModel, solver_cmd: str) -> Solution:
    """Export the model, run ``solver_cmd`` and parse the returned point.

    ``solver_cmd`` is a template with an ``{lp}`` placeholder and an
    optional ``{sol}`` placeholder; without ``{sol}``, the solver's stdout
    is taken as the solution file content; the paths go into the words of
    ``solver_words``.  A command without ``{lp}``, or one that cannot be
    split or started, or that exits nonzero, raises ``SolverError``
    (``cltlsynth synth`` rejects the first two as usage errors before it
    reads the model, by ``solver_words`` too).  The bundled target is
    ``python -m cltlsynth.lp_cli {lp} {sol}``: a child that loads only
    ``highs`` of the package, writes the solution file itself and exits
    without interpreter teardown (its docstring gives its time).

    The listed values go into a NumPy point, 0 for every unlisted column,
    whose integral columns are rounded in NumPy; it must pass
    ``check_point`` at ``FEAS_TOL``, or ``SolverError`` is raised.  The
    solution's values list the point's nonzero columns, integral ones as
    ints.
    """
    try:
        words = solver_words(solver_cmd)
    except ValueError as exc:
        raise SolverError(f"external solver could not be started: its command {exc}") from None
    with tempfile.TemporaryDirectory() as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
        name_to_var = write_lp(model, lp_path)
        cmd = [w.replace("{lp}", str(lp_path)).replace("{sol}", str(sol_path)) for w in words]
        try:
            proc = subprocess.run(cmd, capture_output=True)
        except (OSError, ValueError) as exc:  # not found, not executable, a NUL byte
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
