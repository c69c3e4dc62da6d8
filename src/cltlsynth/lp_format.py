"""CPLEX LP text, written deterministically, and solution files.

:func:`write_lp` emits this line grammar::

    \\ <model name>
    Minimize
     obj:
    Subject To
     c0: + 1 x - 2.5 load <= 3
     c1: + 1 n + 1 load = 2
    Bounds
     -1.5 <= load <= 2.5
     0 <= n <= 4
    Binaries
     x
    Generals
     n
    End

Section headers start in the first column and every other line with a
space.  The objective line is always empty: every program here is a
feasibility problem.  Row K is labelled ``cK`` and lists one or more
``sign coefficient name`` terms (sign ``+`` or ``-``, coefficient finite
and nonzero, each variable once), then ``<=``, ``=`` or ``>=`` and a
finite right-hand side.  ``Bounds``, ``Binaries`` and ``Generals`` are
each present only when not empty, in this order, one entry per line.
Every variable is either listed under ``Binaries`` or has one finite
``lo <= name <= hi`` line, and an integer one is also listed under
``Generals``.  Names match ``[A-Za-z][A-Za-z0-9_]*`` and are never an LP
keyword (``sanitize_names``), so any CPLEX-LP reader, HiGHS's among them,
reads the file as written; ``lp_cli`` hands it to HiGHS's.

Solution files exchanged with external solvers are plain text: an optional
``status feasible|infeasible|unknown`` line followed by ``name value``
lines; variables not mentioned default to 0.  A file that does not
parse, or names any other status, raises ``SolverError``: it comes from a
solver.

``write_lp`` writes from the model's ``to_arrays()``, the matrix the
solver and ``check_point`` share: each column's ``+ 1 name`` and ``- 1
name`` terms are built once, every other coefficient, right-hand side and
bound is formatted once per distinct value, and the rows are joined and
written ``ROW_CHUNK`` at a time.  A row's sense is read off its bounds
and each number off the float the arrays hold, so the text is a per-row
writer's for every finite float and every integer below 2**53 in
magnitude.  On the 8x8 emergency desk at h = 8, 12 and 16 (shared
2-vCPU machine, one CPU, median of five alternating rounds of eleven
passes, two runs) one pass over the three programs took 184 and 191 ms
through the per-row writer this one replaced and 67 and 72 ms from the
arrays, which take about 42 ms to build and which ``check_point`` then
reuses; the files are byte-identical.

This module imports NumPy and ``ilp`` only inside ``write_lp``, never at
import, so the LP-file solver ``lp_cli`` writes its solution file with
neither loaded.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO, Union

from .highs import SolverError

if TYPE_CHECKING:
    from .ilp import IlpModel

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NOT_NAME_CHAR = re.compile(r"[^A-Za-z0-9_]")

# CPLEX LP keywords that a name can spell; HiGHS's reader rejects each, in
# any case.  It also takes a name that starts with "inf" or "nan", such as
# "infinity", for a number, as C's strtod does.
_KEYWORDS = frozenset(
    "bin binaries binary bound bounds end free gen general generals integer integers "
    "max maximize maximum min minimize minimum semi semis sos st".split())

ROW_CHUNK = 4096  # rows formatted and written at a time


def sanitize_names(model: IlpModel) -> list[str]:
    """LP-safe variable names: [A-Za-z0-9_] only, unique, not digit-leading
    and not read as an LP keyword or a number (``_KEYWORDS``).  A name
    that already matches ``[A-Za-z][A-Za-z0-9_]*``, as every encoder's
    does, goes straight to the keyword check."""
    used: dict[str, int] = {}
    out = []
    for base in model.names:
        if not _NAME.fullmatch(base):
            base = _NOT_NAME_CHAR.sub("_", base)
            if not base or base[0].isdigit() or base[0] == "_":
                base = "v" + base
        if base.lower() in _KEYWORDS or base[:3].lower() in ("inf", "nan"):
            base = "v" + base
        name = base
        if name in used:
            used[base] += 1
            name = f"{base}_{used[base]}"
            while name in used:
                used[base] += 1
                name = f"{base}_{used[base]}"
        used[name] = 0
        out.append(name)
    return out


def _num(x) -> str:
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer() and abs(x) < 1e15):
        return str(int(x))
    return format(x, ".17g")


def write_lp(model: IlpModel, target: Union[str, Path, TextIO]) -> dict[str, int]:
    """Write the model; returns the LP-name -> VarId mapping.  A row with no
    terms raises ``ValueError`` before anything is written."""
    import numpy as np  # not at import: lp_cli loads no NumPy

    from .ilp import BINARY, INTEGER, SENSES  # the caller's model has loaded ilp

    names = sanitize_names(model)
    arrays = model.to_arrays()
    matrix = arrays.matrix
    if (matrix.indptr[1:] == matrix.indptr[:-1]).any():
        raise ValueError("LP format cannot express a constraint with no terms")
    # a row's sense from its bounds: "<=" has no lower, ">=" no upper one
    no_lo, no_hi = np.isneginf(arrays.row_lo), np.isposinf(arrays.row_hi)
    senses = np.where(no_lo, 0, np.where(no_hi, 2, 1)).tolist()
    rhs = np.where(no_lo, arrays.row_hi, arrays.row_lo).tolist()
    lb, ub = arrays.lb.tolist(), arrays.ub.tolist()
    other = np.flatnonzero(np.abs(matrix.data) != 1)
    coefs = matrix.data[other].tolist()
    text = {x: _num(x) for x in {*rhs, *lb, *ub, *map(abs, coefs)}}  # each number once
    # each term "+ 1 name" or "- 1 name" is one shared string per column;
    # any other coefficient gets its sign and text before the name
    unit = [f"+ 1 {name}" for name in names] + [f"- 1 {name}" for name in names]
    keys = matrix.indices + np.where(matrix.data == -1, len(names), 0)
    terms = list(map(unit.__getitem__, keys.tolist()))
    for k, c, v in zip(other.tolist(), coefs, matrix.indices[other].tolist()):
        terms[k] = f"{'+' if c >= 0 else '-'} {text[abs(c)]} {names[v]}"
    ptr = matrix.indptr.tolist()
    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        fh.write(f"\\ {model.name}\n")
        fh.write("Minimize\n obj:\nSubject To\n")
        for start in range(0, len(rhs), ROW_CHUNK):
            fh.write("".join([
                f" c{r}: {' '.join(terms[ptr[r]:ptr[r + 1]])} "
                f"{SENSES[senses[r]]} {text[rhs[r]]}\n"
                for r in range(start, min(start + ROW_CHUNK, len(rhs)))]))
        kinds = model.kinds()
        bounded = [f" {text[lb[v]]} <= {names[v]} <= {text[ub[v]]}\n"
                   for v, kind in enumerate(kinds) if kind != BINARY]
        if bounded:
            fh.write("Bounds\n" + "".join(bounded))
        binaries = [f" {names[v]}\n" for v, kind in enumerate(kinds) if kind == BINARY]
        if binaries:
            fh.write("Binaries\n" + "".join(binaries))
        generals = [f" {names[v]}\n" for v, kind in enumerate(kinds) if kind == INTEGER]
        if generals:
            fh.write("Generals\n" + "".join(generals))
        fh.write("End\n")
    finally:
        if own:
            fh.close()
    return {name: v for v, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

def write_solution_file(path: Union[str, Path], status: str,
                        values: Optional[dict[str, float]] = None) -> None:
    with open(path, "w") as fh:
        fh.write(f"status {status}\n")
        for name, value in (values or {}).items():
            fh.write(f"{name} {_num(value)}\n")


def read_solution_file(path: Union[str, Path]) -> tuple[str, dict[str, float]]:
    """Returns (status, name->value).  Lines are ``name value``; an optional
    leading ``status ...`` line overrides the default feasible status."""
    status = "feasible"
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolverError(f"solution line {lineno}: expected 'name value', got {raw!r}")
        if parts[0].lower() == "status":
            status = parts[1].lower()
            if status not in ("feasible", "infeasible", "unknown"):
                raise SolverError(f"solution line {lineno}: unknown status {parts[1]!r}")
            continue
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            raise SolverError(f"solution line {lineno}: bad value {parts[1]!r}") from None
    return status, values
