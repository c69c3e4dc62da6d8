"""Solve an LP-format file and write a ``name value`` solution file.

Usage::

    python -m cltlsynth.lp_cli model.lp out.sol

HiGHS reads the file itself (``readModel``), so the file must be named
``*.lp`` and be CPLEX LP text that HiGHS's reader accepts, as
``write_lp`` writes it.  The outcome is read by ``highs.run_highs``, as
for the in-process solve, with the same options (silent, no presolve),
and the solution file lists each nonzero column under its name in the LP
file; an unlisted one is 0.  From ``write_lp`` output HiGHS reads the
arrays the model's ``to_arrays`` gives, with the columns in order of first
appearance in the file; ``solve_external`` maps them back by name.

Importing this module loads only ``highs``, with SciPy's HiGHS binding:
no NumPy, no ``ilp`` and not ``lp_format`` either, since the package
``__init__`` imports its public names on first use and the solution
lines are written here (``_number`` writes numbers as ``write_lp`` does).
Run as ``__main__``, the child ends with ``os._exit`` once ``main`` has
returned: the solution file is closed by then and stdout and stderr are
flushed, so nothing is lost, and the interpreter's teardown of its
modules and the HiGHS instance, which solves nothing, is skipped.
The hard exit also drops libc's stdio buffers, so any output HiGHS wrote
while fd 1 pointed at ``os.devnull`` (``run_highs``) cannot reach stdout
at exit.  ``main`` and ``solve_lp_file`` return as usual in process.

A child's time is the interpreter's start (about 47 ms, outside the
package), loading the binding (8-9 ms), HiGHS reading the file and
solving.  On the 8x8 emergency desk at h = 8, 12 and 16 the read took
15, 29 and 43 ms and the solve 23, 67 and 90 ms, and the whole child 88,
147 and 185 ms, against 105, 171 and 199 ms when it imported
``lp_format`` and tore the interpreter down (one CPU of a shared 2-vCPU
machine, median of 12 interleaved rounds; the solution files are the
same).

The child solves the file's model as it is, without the idle columns
that ``solver.solve_arrays`` appends (the ``solver`` docstring gives
their gain).  Adding them after ``readModel`` takes the binding's array
calls (``addVars``, ``changeColsIntegrality``), and the first of them
imports NumPy: an ``addVars`` of 10 columns took 121-126 ms in three
children on the desk at h = 8.  That is more than idle columns save on
any desk program (in process at most about 50 ms, at h = 16).

HiGHS reads text without any section, an empty file included, as a model
with no columns and no rows.  Such a model is solved only when the file
has an objective header (``Minimize``, ``Maximize``, ``min``, ``max``,
``minimum`` or ``maximum`` in any case), as ``write_lp`` output of an
empty model does; any other such text is an error.

Exit code 0 on success (including a proven-infeasible instance, reported
in the solution file's status line); 1 with one ``error:`` line on I/O,
format or solver errors, or on text that holds no model; 2 on a usage
error.  This makes the module directly usable as a ``--solver-cmd``
target: ``python -m cltlsynth.lp_cli {lp} {sol}``.
"""

from __future__ import annotations

import os
import re
import sys

from .highs import HighsStatus, HighsVarType, SolverError, new_highs, run_highs


# An objective header, which every LP file has, even one of an empty model,
# in any of the CPLEX LP spellings ``lp_format._KEYWORDS`` lists
_HEADER = re.compile(r"^\s*(min(imize|imum)?|max(imize|imum)?)\b",
                     re.IGNORECASE | re.MULTILINE)


def solve_lp_file(lp_path: str, sol_path: str) -> str:
    if not lp_path.endswith(".lp"):  # HiGHS picks its reader by the extension
        raise SolverError(f"{lp_path}: an LP file must be named *.lp")
    highs = new_highs()
    unreadable = SolverError(f"HiGHS could not read {lp_path} as an LP file")
    if highs.readModel(lp_path) == HighsStatus.kError:
        raise unreadable
    lp = highs.getLp()  # its integrality_ is empty when no column is integer
    if lp.num_col_ == lp.num_row_ == 0:  # an empty model, or no model (docstring)
        with open(lp_path, errors="replace") as fh:
            if not _HEADER.search(fh.read()):
                raise unreadable
    integral = [kind == HighsVarType.kInteger for kind in lp.integrality_]
    status, point, _ = run_highs(highs, integral or [False] * lp.num_col_)
    with open(sol_path, "w") as fh:  # as ``lp_format`` describes: the nonzero values
        fh.write(f"status {status}\n")
        fh.writelines(f"{c} {_number(x)}\n" for c, x in zip(lp.col_names_, point or ()) if x)
    return status


def _number(x) -> str:
    """A value as ``write_lp`` writes numbers: an integral one as an
    integer, any other with 17 significant digits."""
    if isinstance(x, int) or (x.is_integer() and abs(x) < 1e15):
        return str(int(x))
    return format(x, ".17g")


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
    code = main()  # the solution file is closed once main returns
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)  # no interpreter teardown (module docstring)
