"""Solve an LP-format file and write a ``name value`` solution file.

Usage::

    python -m cltlsynth.lp_cli model.lp out.sol

Exit code 0 on success (including a proven-infeasible instance, reported
in the solution file's status line); nonzero on I/O or format errors.
This makes the module directly usable as a ``--solver-cmd`` target:
``python -m cltlsynth.lp_cli {lp} {sol}``.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .lp_format import parse_lp, sanitize_names, write_solution_file


def solve_lp_file(lp_path: str, sol_path: str) -> str:
    model = parse_lp(lp_path)
    n = model.n_vars
    names = sanitize_names(model)
    arrays = model.to_arrays()

    c = np.zeros(n)
    if model.objective is not None:
        for v, coef in model.objective.coeffs.items():
            c[v] = coef

    res = milp(c=c, integrality=arrays.integrality, bounds=Bounds(arrays.lb, arrays.ub),
               constraints=LinearConstraint(arrays.matrix, arrays.row_lo, arrays.row_hi))
    if res.status == 2:
        write_solution_file(sol_path, "infeasible")
        return "infeasible"
    if res.x is None:
        write_solution_file(sol_path, "unknown")
        return "unknown"
    values = {}
    for v in range(n):
        x = res.x[v]
        values[names[v]] = int(round(x)) if arrays.integrality[v] else float(x)
    write_solution_file(sol_path, "feasible", values)
    return "feasible"


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
