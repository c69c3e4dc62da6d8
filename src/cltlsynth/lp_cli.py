"""Solve an LP-format file and write a ``name value`` solution file.

Usage::

    python -m cltlsynth.lp_cli model.lp out.sol

HiGHS reads the file itself (``readModel``), so the file must be named
``*.lp`` and be CPLEX LP text that HiGHS's reader accepts, as
``write_lp`` writes it.  The outcome is read by ``highs.run_highs``, as
for the in-process solve, with the same options (silent, no presolve),
and the solution file names each column as the LP file does.  From
``write_lp`` output HiGHS reads the arrays the model's ``to_arrays``
gives, with the columns in order of first appearance in the file;
``solve_external`` maps them back by name.

Importing this module loads only ``highs``, with SciPy's HiGHS binding,
and ``lp_format``: no NumPy, no ``ilp``, since the package ``__init__``
imports its public names on first use.  On a 2-vCPU machine pinned to
one CPU, the whole child on the 8x8 emergency desk took 0.14, 0.25 and
0.29 s at h = 8, 12 and 16 (0.27, 0.34 and 0.39 s when it parsed the
file in Python and built NumPy arrays for HiGHS; median of ten
alternating runs, start-up included).

Exit code 0 on success (including a proven-infeasible instance, reported
in the solution file's status line); 1 with one ``error:`` line on I/O,
format or solver errors; 2 on a usage error.  This makes the module
directly usable as a ``--solver-cmd`` target:
``python -m cltlsynth.lp_cli {lp} {sol}``.
"""

from __future__ import annotations

import sys

from .highs import HighsStatus, HighsVarType, SolverError, new_highs, run_highs
from .lp_format import write_solution_file


def solve_lp_file(lp_path: str, sol_path: str) -> str:
    if not lp_path.endswith(".lp"):  # HiGHS picks its reader by the extension
        raise SolverError(f"{lp_path}: an LP file must be named *.lp")
    highs = new_highs()
    if highs.readModel(lp_path) == HighsStatus.kError:
        raise SolverError(f"HiGHS could not read {lp_path} as an LP file")
    lp = highs.getLp()  # its integrality_ is empty when no column is integer
    integral = [kind == HighsVarType.kInteger for kind in lp.integrality_]
    status, point, _ = run_highs(highs, integral or [False] * lp.num_col_)
    write_solution_file(sol_path, status, dict(zip(lp.col_names_, point or ())))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m cltlsynth.lp_cli model.lp out.sol", file=sys.stderr)
        return 2
    try:
        status = solve_lp_file(argv[0], argv[1])
    except Exception as exc:  # surface read, I/O and solver problems to the caller
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())
