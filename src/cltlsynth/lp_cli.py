"""Solve an LP-format file and write a ``name value`` solution file.

Usage::

    python -m cltlsynth.lp_cli model.lp out.sol

The file is read with ``lp_format.read_lp``, so it must be in the form
``write_lp`` writes, and solved through ``solver.solve_arrays``, the same
HiGHS call ``solve_bnb`` makes.  ``read_lp`` gives the arrays the model's
``to_arrays`` gives, and the child, like the in-process solve, runs
HiGHS without presolve, through SciPy's HiGHS binding rather than
``scipy.optimize.milp`` (``solver`` docstring).  Importing this module
loads only ``lp_format``, ``ilp`` and ``solver``, since the package
``__init__`` imports its public names on first use: on a 2-vCPU machine
pinned to one CPU, the child's import took a median 0.52 s instead of
0.63 s, and the whole child on the 8x8 emergency desk at h = 16 took
0.73 s instead of 0.85 s, with the faster HiGHS call.  Exit code 0 on
success (including a proven-infeasible instance, reported in the
solution file's status line); 1 with one ``error:`` line on I/O, format
or solver errors; 2 on a usage error.  This makes the module directly
usable as a ``--solver-cmd`` target: ``python -m cltlsynth.lp_cli {lp} {sol}``.
"""

from __future__ import annotations

import sys

from .lp_format import read_lp, write_solution_file
from .solver import solve_arrays


def solve_lp_file(lp_path: str, sol_path: str) -> str:
    names, arrays = read_lp(lp_path)
    sol = solve_arrays(arrays)
    write_solution_file(sol_path, sol.status,
                        {names[v]: x for v, x in sol.values.items()})
    return sol.status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m cltlsynth.lp_cli model.lp out.sol", file=sys.stderr)
        return 2
    try:
        status = solve_lp_file(argv[0], argv[1])
    except Exception as exc:  # surface parse/IO problems to the caller
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())
