"""A strict check of the LP grammar ``lp_format.write_lp`` documents, used
only by the tests.

HiGHS's reader, which the LP-file child ``lp_cli`` uses, accepts far more
than that grammar: a zero coefficient, a row without a sense, a bound in
any form, a variable listed twice.  Reading ``write_lp`` output back
through HiGHS therefore does not show that the writer keeps to its
grammar, which is what lets any CPLEX-LP reader take the file.
``read_lp`` accepts the grammar and nothing else, naming the first line
that breaks it.
"""

from __future__ import annotations

import math
import re

SENSES = ("<=", "=", ">=")
SECTIONS = ("Bounds", "Binaries", "Generals")
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class LpGrammarError(ValueError):
    pass


def read_lp(text: str) -> list[str]:
    """The variable names of LP text in ``write_lp``'s grammar, in order
    of first appearance.  Any other text raises :class:`LpGrammarError`
    ("line K: ...")."""
    lines = text.splitlines()

    def fail(i: int, what: str) -> LpGrammarError:
        found = repr(lines[i]) if i < len(lines) else "end of text"
        return LpGrammarError(f"line {i + 1}: {what}, found {found}")

    def number(i: int, token: str, nonzero: bool = False) -> float:
        try:
            x = float(token)
        except ValueError:
            raise fail(i, f"bad number {token!r}") from None
        if not math.isfinite(x) or (nonzero and x == 0):
            raise fail(i, f"bad number {token!r}")
        return x

    if not lines or not lines[0].startswith("\\"):
        raise fail(0, "expected a '\\' comment line")
    for i, want in ((1, "Minimize"), (2, " obj:"), (3, "Subject To")):
        if i >= len(lines) or lines[i] != want:
            raise fail(i, f"expected {want!r}")

    # name -> the sections that list it; "Bounds" for a bound line
    listed: dict[str, set[str]] = {}

    def column(i: int, name: str) -> set[str]:
        if name not in listed:
            if not NAME.fullmatch(name):
                raise fail(i, f"bad variable name {name!r}")
            listed[name] = set()
        return listed[name]

    # -- Subject To: " cK: sign coef name ... sense rhs", K = 0, 1, ...
    i, row = 4, 0
    while i < len(lines) and lines[i].startswith(" "):
        parts = lines[i].split()
        if not parts or parts[0] != f"c{row}:":
            raise fail(i, f"expected the row label c{row}:")
        if len(parts) < 3 or parts[-2] not in SENSES:
            raise fail(i, "expected the row to end in a sense and a right-hand side")
        terms = parts[1:-2]
        if not terms or len(terms) % 3 or any(s not in ("+", "-") for s in terms[::3]):
            raise fail(i, "expected 'sign coefficient name' terms")
        for coef in terms[1::3]:
            number(i, coef, nonzero=True)
        names = terms[2::3]
        for name in names:
            column(i, name)
        if len(set(names)) != len(names):
            raise fail(i, "a variable appears twice in the row")
        number(i, parts[-1])
        i, row = i + 1, row + 1

    # -- Bounds, Binaries, Generals: each optional, in this order; then End
    section = -1
    while i < len(lines) and lines[i] != "End":
        line, parts = lines[i], lines[i].split()
        if not line.startswith(" "):
            if line not in SECTIONS:
                raise fail(i, "unknown section")
            if SECTIONS.index(line) <= section:
                raise fail(i, "section out of order")
            section = SECTIONS.index(line)
        elif section == 0:
            if len(parts) != 5 or parts[1] != "<=" or parts[3] != "<=":
                raise fail(i, "expected a bound 'lo <= name <= hi'")
            sections = column(i, parts[2])
            if "Bounds" in sections or number(i, parts[0]) > number(i, parts[4]):
                raise fail(i, "bounds repeated or empty")
            sections.add("Bounds")
        else:  # Binaries or Generals: the first header came before this line
            if len(parts) != 1:
                raise fail(i, "expected one name per line")
            sections = column(i, parts[0])
            if sections & {"Binaries", "Generals"}:
                raise fail(i, f"{parts[0]} listed twice")
            sections.add(SECTIONS[section])
        i += 1
    if i >= len(lines):
        raise fail(i, "expected 'End'")
    if i != len(lines) - 1:
        raise fail(i + 1, "text after 'End'")
    for name, sections in listed.items():
        if ("Binaries" in sections) == ("Bounds" in sections):
            raise fail(i, f"variable {name} needs finite bounds or a Binaries entry, "
                          "and not both")
    return list(listed)
