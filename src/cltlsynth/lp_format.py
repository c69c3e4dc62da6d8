"""CPLEX LP text format: deterministic writer and a reader for the subset
the writer emits (enough to round-trip models and to feed external solvers).

Solution files exchanged with external solvers are plain text: an optional
``status feasible|infeasible|unknown`` line followed by ``name value``
lines; variables not mentioned default to 0.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional, TextIO, Union

from .ilp import BINARY, CONTINUOUS, INTEGER, IlpModel, LinExpr

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
        fh.write("Minimize\n obj:")
        if model.objective is not None and model.objective.coeffs:
            fh.write(" " + _terms(model.objective, names))
        fh.write("\n")
        fh.write("Subject To\n")
        for idx, con in enumerate(model.constraints):
            sense = "=" if con.sense == "=" else con.sense
            fh.write(f" c{idx}: {_terms(con.expr, names)} {sense} {_num(con.rhs)}\n")
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

_SECTION_RE = re.compile(
    r"^(minimize|maximize|subject to|st|s\.t\.|bounds|binaries|binary|generals|general|end)$",
    re.IGNORECASE,
)


class LpParseError(ValueError):
    pass


def _tokenize_lp(text: str) -> list[str]:
    # Strip comments (backslash to end of line), then split into tokens;
    # section keywords may contain a space ("Subject To").
    lines = []
    for line in text.splitlines():
        if "\\" in line:
            line = line[: line.index("\\")]
        lines.append(line)
    return "\n".join(lines).split()


def parse_lp(source: Union[str, Path, TextIO]) -> IlpModel:
    """Parse the LP subset produced by :func:`write_lp`."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    tokens = _tokenize_lp(text)
    pos = 0
    n = len(tokens)

    def peek() -> Optional[str]:
        return tokens[pos] if pos < n else None

    def section_at(i: int) -> Optional[str]:
        if i >= n:
            return None
        t = tokens[i].lower()
        if t in ("subject", "s.t.:"):
            return "subject to"
        if t in ("minimize", "maximize", "bounds", "end",
                 "binaries", "binary", "generals", "general", "st", "s.t."):
            return t
        return None

    model = IlpModel("parsed")
    # name -> (kind, lo, hi); defaults resolved at the end
    kinds: dict[str, str] = {}
    bounds: dict[str, tuple[float, float]] = {}
    order: list[str] = []
    constraints: list[tuple[str, list[tuple[float, str]], str, float]] = []
    objective: list[tuple[float, str]] = []

    def note_var(name: str):
        if name not in kinds:
            kinds[name] = CONTINUOUS
            order.append(name)

    def parse_number(tok: str) -> float:
        try:
            return float(tok)
        except ValueError:
            raise LpParseError(f"expected a number, found {tok!r}") from None

    def parse_linear(stop_on_sense: bool) -> tuple[list[tuple[float, str]], Optional[str]]:
        nonlocal pos
        terms: list[tuple[float, str]] = []
        sign = 1.0
        coeff: Optional[float] = None
        while pos < n:
            tok = tokens[pos]
            if section_at(pos):
                return terms, None
            if tok in ("<=", ">=", "=", "<", ">"):
                if stop_on_sense:
                    return terms, tok
                raise LpParseError(f"unexpected sense {tok}")
            if tok == "+":
                sign, coeff = 1.0, None
                pos += 1
                continue
            if tok == "-":
                sign, coeff = -sign, None
                pos += 1
                continue
            if re.fullmatch(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", tok):
                coeff = sign * float(tok)
                sign = 1.0
                pos += 1
                continue
            if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*:?", tok):
                if tok.endswith(":"):
                    # next constraint label: caller handles
                    return terms, None
                c = coeff if coeff is not None else sign
                terms.append((c, tok))
                note_var(tok)
                sign, coeff = 1.0, None
                pos += 1
                continue
            raise LpParseError(f"unexpected token {tok!r}")
        return terms, None

    # -- objective
    sec = section_at(pos)
    if sec not in ("minimize", "maximize"):
        raise LpParseError("LP file must start with Minimize/Maximize")
    pos += 1
    if peek() and peek().lower() == "to":  # guard against odd splits
        pos += 1
    if peek() and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*:", peek()):
        pos += 1
    objective, _ = parse_linear(stop_on_sense=False)

    # -- subject to
    sec = section_at(pos)
    if sec == "subject to":
        pos += 2
    elif sec in ("st", "s.t."):
        pos += 1
    else:
        raise LpParseError("missing 'Subject To' section")

    while pos < n and not section_at(pos):
        label = None
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*:", tokens[pos]):
            label = tokens[pos][:-1]
            pos += 1
        terms, sense = parse_linear(stop_on_sense=True)
        if sense is None:
            raise LpParseError(f"constraint {label or ''} missing a relational operator")
        pos += 1
        if pos >= n:
            raise LpParseError("constraint missing right-hand side")
        rhs = parse_number(tokens[pos])
        pos += 1
        if sense == "<":
            sense = "<="
        elif sense == ">":
            sense = ">="
        constraints.append((label or f"c{len(constraints)}", terms, sense, rhs))

    # -- trailing sections
    while pos < n:
        sec = section_at(pos)
        if sec is None:
            raise LpParseError(f"unexpected token {tokens[pos]!r}")
        if sec == "end":
            break
        if sec == "subject to":
            raise LpParseError("duplicate Subject To section")
        pos += 1 + (1 if sec == "subject to" else 0)
        if sec == "bounds":
            while pos < n and not section_at(pos):
                # form: lo <= name <= hi
                lo = parse_number(tokens[pos])
                if tokens[pos + 1] != "<=":
                    raise LpParseError("bounds must be of the form lo <= name <= hi")
                name = tokens[pos + 2]
                if tokens[pos + 3] != "<=":
                    raise LpParseError("bounds must be of the form lo <= name <= hi")
                hi = parse_number(tokens[pos + 4])
                note_var(name)
                bounds[name] = (lo, hi)
                pos += 5
        elif sec in ("binaries", "binary"):
            while pos < n and not section_at(pos):
                note_var(tokens[pos])
                kinds[tokens[pos]] = BINARY
                pos += 1
        elif sec in ("generals", "general"):
            while pos < n and not section_at(pos):
                note_var(tokens[pos])
                kinds[tokens[pos]] = INTEGER
                pos += 1

    ids: dict[str, int] = {}
    for name in order:
        kind = kinds[name]
        if kind == BINARY:
            ids[name] = model.add_binary(name)
        else:
            lo, hi = bounds.get(name, (0.0, math.inf))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise LpParseError(f"variable {name} needs finite bounds")
            if kind == INTEGER:
                ids[name] = model.add_integer(name, int(lo), int(hi))
            else:
                ids[name] = model.add_continuous(name, lo, hi)
    if objective:
        model.set_objective(LinExpr({ids[nm]: c for c, nm in objective}))
    for label, terms, sense, rhs in constraints:
        expr = LinExpr()
        for c, nm in terms:
            expr.add_term(ids[nm], c)
        model.add_constraint(expr, sense, rhs, tag="parsed")
    return model


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
