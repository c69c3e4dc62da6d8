"""CPLEX LP text: a deterministic writer and a reader for exactly what it
writes.

:func:`write_lp` emits this line grammar, and :func:`read_lp` accepts it
and nothing else::

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
``Generals``.  Names match ``[A-Za-z][A-Za-z0-9_]*``.

The reader is this strict because its one producer is the writer:
``solve_external`` writes the file and ``lp_cli`` reads it back.  Any
other text is a fault to report, with its line number, not a dialect to
guess at.

Solution files exchanged with external solvers are plain text: an optional
``status feasible|infeasible|unknown`` line followed by ``name value``
lines; variables not mentioned default to 0.
"""

from __future__ import annotations

import math
import operator
import re
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from .ilp import BINARY, INTEGER, SENSES, CsrMatrix, IlpModel, LinExpr, ModelArrays

_NAME_OK = re.compile(r"[A-Za-z0-9_]")


def sanitize_names(model: IlpModel) -> list[str]:
    """LP-safe variable names: [A-Za-z0-9_] only, unique, not digit-leading."""
    used: dict[str, int] = {}
    out = []
    for var in model.vars:
        base = "".join(ch if _NAME_OK.match(ch) else "_" for ch in var.name)
        if not base or base[0].isdigit() or base[0] == "_":
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
# Reader
# ---------------------------------------------------------------------------

_SECTIONS = ("Bounds", "Binaries", "Generals")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class LpParseError(ValueError):
    pass


def read_lp(source: Union[str, Path, TextIO]) -> tuple[list[str], ModelArrays]:
    """Read LP text in the grammar :func:`write_lp` writes (module docstring).

    Returns the variable names, in order of first appearance, and the
    arrays ``IlpModel.to_arrays`` gives for the written model with its
    columns in that order.  Any other line raises :class:`LpParseError`
    naming the line.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = text.splitlines()

    def fail(i: int, what: str) -> LpParseError:
        found = repr(lines[i]) if i < len(lines) else "end of text"
        return LpParseError(f"line {i + 1}: {what}, found {found}")

    def number(i: int, token: str) -> float:
        try:
            x = float(token)
        except ValueError:
            raise fail(i, f"bad number {token!r}") from None
        if not math.isfinite(x):
            raise fail(i, f"bad number {token!r}")
        return x

    if not lines or not lines[0].startswith("\\"):
        raise fail(0, "expected a '\\' comment line")
    for i, want in ((1, "Minimize"), (2, " obj:"), (3, "Subject To")):
        if i >= len(lines) or lines[i] != want:
            raise fail(i, f"expected {want!r}")

    names: list[str] = []
    ids: dict[str, int] = {}
    lb: list[float] = []
    ub: list[float] = []
    bounded: list[bool] = []
    binary: list[bool] = []
    general: list[bool] = []

    def column(i: int, name: str) -> int:
        if name not in ids:
            if not _NAME_RE.fullmatch(name):
                raise fail(i, f"bad variable name {name!r}")
            ids[name] = len(names)
            names.append(name)
            for flags in (bounded, binary, general):
                flags.append(False)
            lb.append(0.0)
            ub.append(1.0)
        return ids[name]

    # -- Subject To: " cK: sign coef name ... sense rhs", K = 0, 1, ...
    indptr, indices, data = [0], [], []
    row_lo: list[float] = []
    row_hi: list[float] = []
    first_row = i = 4
    while i < len(lines) and lines[i].startswith(" "):
        parts = lines[i].split()
        if not parts or parts[0] != f"c{len(row_lo)}:":
            raise fail(i, f"expected the row label c{len(row_lo)}:")
        if len(parts) < 3 or parts[-2] not in SENSES:
            raise fail(i, "expected the row to end in a sense and a right-hand side")
        if len(parts) < 6 or len(parts) % 3:
            raise fail(i, "expected 'sign coefficient name' terms")
        signs, coefs, cols = parts[1:-2:3], parts[2:-2:3], parts[3:-2:3]
        if signs.count("+") + signs.count("-") != len(signs):
            raise fail(i, "expected 'sign coefficient name' terms")
        try:
            data.extend(map(float, map(operator.add, signs, coefs)))
        except ValueError:
            raise fail(i, "bad coefficient") from None
        try:
            indices.extend(map(ids.__getitem__, cols))
        except KeyError:  # a name seen for the first time
            del indices[indptr[-1]:]
            indices.extend(column(i, name) for name in cols)
        if len(set(cols)) != len(cols):
            raise fail(i, "a variable appears twice in the row")
        indptr.append(len(indices))
        rhs = number(i, parts[-1])
        row_lo.append(-math.inf if parts[-2] == "<=" else rhs)
        row_hi.append(math.inf if parts[-2] == ">=" else rhs)
        i += 1
    coeffs = np.array(data, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(coeffs) & (coeffs != 0)))
    if bad.size:
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        raise fail(first_row + row, "bad coefficient")

    # -- Bounds, Binaries, Generals: each optional, in this order; then End
    section = -1
    while i < len(lines) and lines[i] != "End":
        line = lines[i]
        if not line.startswith(" "):
            if line not in _SECTIONS:
                raise fail(i, "unknown section")
            if _SECTIONS.index(line) <= section:
                raise fail(i, "section out of order")
            section = _SECTIONS.index(line)
        elif section == 0:
            parts = line.split()
            if len(parts) != 5 or parts[1] != "<=" or parts[3] != "<=":
                raise fail(i, "expected a bound 'lo <= name <= hi'")
            v = column(i, parts[2])
            lo, hi = number(i, parts[0]), number(i, parts[4])
            if bounded[v] or lo > hi:
                raise fail(i, "bounds repeated or empty")
            bounded[v], lb[v], ub[v] = True, lo, hi
        else:  # Binaries or Generals: the first header came before this line
            parts = line.split()
            if len(parts) != 1:
                raise fail(i, "expected one name per line")
            v = column(i, parts[0])
            if binary[v] or general[v]:
                raise fail(i, f"{parts[0]} listed twice")
            (binary if section == 1 else general)[v] = True
        i += 1
    if i >= len(lines):
        raise fail(i, "expected 'End'")
    if i != len(lines) - 1:
        raise fail(i + 1, "text after 'End'")
    for v, name in enumerate(names):
        if binary[v] == bounded[v]:
            raise fail(i, f"variable {name} needs finite bounds or a Binaries entry, "
                          "and not both")

    matrix = CsrMatrix(np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32),
                       coeffs, (len(row_lo), len(names)))
    return names, ModelArrays(
        matrix, np.array(row_lo), np.array(row_hi), np.array(lb), np.array(ub),
        np.array([int(b or g) for b, g in zip(binary, general)]))


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
            raise LpParseError(f"solution line {lineno}: expected 'name value', got {raw!r}")
        if parts[0].lower() == "status":
            status = parts[1].lower()
            continue
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            raise LpParseError(f"solution line {lineno}: bad value {parts[1]!r}") from None
    return status, values
