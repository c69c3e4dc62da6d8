"""The per-row LP writer ``lp_format.write_lp`` replaced, used only by the
tests as a reference: it walks each constraint's coefficient map and
formats every term and number on its own, and it sanitizes each name one
character at a time.  ``write_lp``, which writes from the model's arrays,
must give the same bytes.
"""

from __future__ import annotations

import io
import re

from cltlsynth.ilp import BINARY, INTEGER, KINDS

_NAME_OK = re.compile(r"[A-Za-z0-9_]")
_KEYWORDS = frozenset(
    "bin binaries binary bound bounds end free gen general generals integer integers "
    "max maximize maximum min minimize minimum semi semis sos st".split())


def sanitize_names(model) -> list[str]:
    used: dict[str, int] = {}
    out = []
    for name in model.names:
        base = "".join(ch if _NAME_OK.match(ch) else "_" for ch in name)
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


def _terms(expr, names: list[str]) -> str:
    if not expr.coeffs:
        raise ValueError("LP format cannot express a constraint with no terms")
    parts = []
    for v, c in expr.coeffs.items():
        sign = "+" if c >= 0 else "-"
        parts.append(f"{sign} {_num(abs(c))} {names[v]}")
    return " ".join(parts)


def write_lp_rows(model) -> tuple[str, dict[str, int]]:
    """The LP text and the LP-name -> VarId mapping, row by row."""
    names = sanitize_names(model)
    fh = io.StringIO()
    fh.write(f"\\ {model.name}\n")
    fh.write("Minimize\n obj:\nSubject To\n")
    for idx, con in enumerate(model.constraints):
        fh.write(f" c{idx}: {_terms(con.expr, names)} {con.sense} {_num(con.rhs)}\n")
    kinds, arrays = [KINDS[k] for k in model.kind_codes()], model.to_arrays()
    bounded = [v for v, kind in enumerate(kinds) if kind != BINARY]
    if bounded:
        fh.write("Bounds\n")
        for v in bounded:
            fh.write(f" {_num(arrays.lb[v].item())} <= {names[v]} <= "
                     f"{_num(arrays.ub[v].item())}\n")
    binaries = [names[v] for v, kind in enumerate(kinds) if kind == BINARY]
    if binaries:
        fh.write("Binaries\n")
        for name in binaries:
            fh.write(f" {name}\n")
    generals = [names[v] for v, kind in enumerate(kinds) if kind == INTEGER]
    if generals:
        fh.write("Generals\n")
        for name in generals:
            fh.write(f" {name}\n")
    fh.write("End\n")
    return fh.getvalue(), {name: v for v, name in enumerate(names)}
