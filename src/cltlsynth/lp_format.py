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

Solution files are plain text: an optional ``status feasible|infeasible|
unknown`` line, then ``name value`` lines, each name once and an unlisted
one 0 (``lp_cli`` lists the nonzero values).  Any other text, status or a
repeated name raises ``SolverError``: the file comes from a solver.

``write_lp`` streams ``to_arrays()``, the matrix the solver and
``check_point`` share, ``ROW_CHUNK`` rows, then columns, at a time.  A
chunk is one join of shared pieces: the column names, and each sign and
coefficient, sense, right-hand side or bound formatted once per distinct
value (``np.unique``); only row labels are built per row, nothing per
term.  Numbers are read off the floats the arrays hold, so the text is a
per-row writer's for every finite float and every integer below 2**53 in
magnitude.  A second write of the 8x8 emergency desk at h = 16 allocates
0.64 MB under ``tracemalloc`` (4.57 MB when built for the whole model at
once); on aggregate-n (ROADMAP) it adds 14 and 47 MB to peak RSS at N =
300 and 1000 (130 and 449 MB before).  A pass over the desk at h = 8, 12
and 16 took 41-42 ms against 61-65 ms (one CPU of a shared 2-vCPU
machine, least of 15 interleaved passes, four runs).  NumPy and ``ilp``
are imported in ``write_lp`` only, so ``lp_cli`` loads neither.
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

ROW_CHUNK = 1024  # rows, or columns, formatted and written at a time


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

    from .ilp import BINARY, INTEGER, KINDS  # the caller's model has loaded ilp

    arrays = model.to_arrays()
    ptr, cols, coefs = arrays.matrix[:3]
    if (ptr[1:] == ptr[:-1]).any():
        raise ValueError("LP format cannot express a constraint with no terms")
    names = sanitize_names(model)
    n, name_of = len(names), np.array(names, dtype=object)

    def texts(values, piece):  # piece(x) once per distinct value, looked up for each
        distinct, at = np.unique(values, return_inverse=True)
        return np.array([piece(x) for x in distinct.tolist()], dtype=object)[at]

    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        fh.write(f"\\ {model.name}\nMinimize\n obj:\nSubject To\n")
        for r0 in range(0, arrays.row_lo.size, ROW_CHUNK):
            r1 = min(r0 + ROW_CHUNK, arrays.row_lo.size)
            bounds, j = ptr[r0:r1 + 1] - ptr[r0], np.arange(r1 - r0)
            col, coef = cols[ptr[r0]:ptr[r1]], coefs[ptr[r0]:ptr[r1]]
            # a row's pieces: " cR:", " sign coefficient " and name per term, " sense", " rhs\n"
            pieces = np.empty(2 * col.size + 3 * j.size, dtype=object)
            pieces[2 * bounds[:-1] + 3 * j] = [f" c{r}:" for r in range(r0, r1)]
            term = 2 * np.arange(col.size) + 3 * np.repeat(j, np.diff(bounds)) + 1
            pieces[term] = texts(coef, lambda c: f" {'+' if c >= 0 else '-'} {_num(abs(c))} ")
            pieces[term + 1] = name_of[col]
            # a row's sense from its bounds: "<=" has no lower, ">=" no upper one
            row_lo, row_hi = arrays.row_lo[r0:r1], arrays.row_hi[r0:r1]
            sense = np.where(np.isneginf(row_lo), 0, np.where(np.isposinf(row_hi), 2, 1))
            tail = 2 * bounds[1:] + 3 * j + 1
            pieces[tail] = np.array([" <=", " =", " >="], dtype=object)[sense]  # ilp.SENSES
            pieces[tail + 1] = texts(np.where(sense == 0, row_hi, row_lo),
                                     lambda x: f" {_num(x)}\n")
            fh.write("".join(pieces.tolist()))
        kinds = model.kind_codes()
        binary, integer = kinds == KINDS.index(BINARY), kinds == KINDS.index(INTEGER)
        for section, listed in (("Bounds", ~binary), ("Binaries", binary), ("Generals", integer)):
            if listed.any():
                fh.write(f"{section}\n")
            for c0 in range(0, n, ROW_CHUNK):
                chunk = np.flatnonzero(listed[c0:c0 + ROW_CHUNK]) + c0
                lines = np.empty((chunk.size, 3), dtype=object)  # " lo <= ", name, " <= hi\n"
                lines[:, 1] = name_of[chunk]
                if section == "Bounds":
                    lines[:, 0] = texts(arrays.lb[chunk], lambda x: f" {_num(x)} <= ")
                    lines[:, 2] = texts(arrays.ub[chunk], lambda x: f" <= {_num(x)}\n")
                else:
                    lines[:, 0], lines[:, 2] = " ", "\n"
                fh.write("".join(lines.ravel().tolist()))
        fh.write("End\n")
    finally:
        if own:
            fh.close()
    return dict(zip(names, range(n)))


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

def write_solution_file(path: Union[str, Path], status: str,
                        values: Optional[dict[str, float]] = None) -> None:
    with open(path, "w") as fh:
        fh.write(f"status {status}\n")
        fh.writelines(f"{name} {_num(value)}\n" for name, value in (values or {}).items())


def read_solution_file(path: Union[str, Path]) -> tuple[str, dict[str, float]]:
    """Returns (status, name->value).  Lines are ``name value``; an optional
    leading ``status ...`` line overrides the default feasible status.  A
    file that is not UTF-8 raises ``SolverError``, as a malformed line does."""
    status = "feasible"
    values: dict[str, float] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SolverError(f"solution file {path} is not UTF-8: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        if parts[0] in values:
            raise SolverError(f"solution line {lineno}: {parts[0]!r} is listed twice")
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            raise SolverError(f"solution line {lineno}: bad value {parts[1]!r}") from None
    return status, values
