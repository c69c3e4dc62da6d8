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
parse raises ``SolverError``: it comes from a solver.

This module imports no NumPy and, at import, nothing of ``ilp``, so the
LP-file solver ``lp_cli`` can write its solution file without them.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO, Union

from .highs import SolverError

if TYPE_CHECKING:
    from .ilp import IlpModel, LinExpr

_NAME_OK = re.compile(r"[A-Za-z0-9_]")

# CPLEX LP keywords that a name can spell; HiGHS's reader rejects each, in
# any case.  It also takes a name that starts with "inf" or "nan", such as
# "infinity", for a number, as C's strtod does.
_KEYWORDS = frozenset(
    "bin binaries binary bound bounds end free gen general generals integer integers "
    "max maximize maximum min minimize minimum semi semis sos st".split())


def sanitize_names(model: IlpModel) -> list[str]:
    """LP-safe variable names: [A-Za-z0-9_] only, unique, not digit-leading
    and not read as an LP keyword or a number (``_KEYWORDS``)."""
    used: dict[str, int] = {}
    out = []
    for var in model.vars:
        base = "".join(ch if _NAME_OK.match(ch) else "_" for ch in var.name)
        if (not base or base[0].isdigit() or base[0] == "_" or base.lower() in _KEYWORDS
                or base[:3].lower() in ("inf", "nan")):
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


def _terms(expr: LinExpr, names: list[str]) -> str:
    if not expr.coeffs:
        raise ValueError("LP format cannot express a constraint with no terms")
    parts = []
    for v, c in expr.coeffs.items():  # insertion order: deterministic
        sign = "+" if c >= 0 else "-"
        parts.append(f"{sign} {_num(abs(c))} {names[v]}")
    return " ".join(parts)


def write_lp(model: IlpModel, target: Union[str, Path, TextIO]) -> dict[str, int]:
    """Write the model; returns the LP-name -> VarId mapping."""
    from .ilp import BINARY, INTEGER  # the caller's model has loaded ilp already

    names = sanitize_names(model)
    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        fh.write(f"\\ {model.name}\n")
        fh.write("Minimize\n obj:\nSubject To\n")
        for idx, con in enumerate(model.constraints):
            fh.write(f" c{idx}: {_terms(con.expr, names)} {con.sense} {_num(con.rhs)}\n")
        bounded = [(v, var) for v, var in enumerate(model.vars) if var.kind != BINARY]
        if bounded:
            fh.write("Bounds\n")
            for v, var in bounded:
                fh.write(f" {_num(var.lo)} <= {names[v]} <= {_num(var.hi)}\n")
        binaries = [names[v] for v, var in enumerate(model.vars) if var.kind == BINARY]
        if binaries:
            fh.write("Binaries\n")
            for name in binaries:
                fh.write(f" {name}\n")
        generals = [names[v] for v, var in enumerate(model.vars) if var.kind == INTEGER]
        if generals:
            fh.write("Generals\n")
            for name in generals:
                fh.write(f" {name}\n")
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
            continue
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            raise SolverError(f"solution line {lineno}: bad value {parts[1]!r}") from None
    return status, values
