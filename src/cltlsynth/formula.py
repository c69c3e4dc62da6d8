"""Counting temporal logic formulas.

Two layers of syntax: an *inner* layer of plain LTL over atomic
propositions (tasks a single robot can satisfy), and an *outer* layer
whose leaves are temporal counting propositions ``[phi, m]`` that hold
when at least ``m`` robots satisfy the inner formula ``phi``.  A tcp may
optionally restrict counting to a robot group, written ``[phi, @name, m]``
or ``[phi, @{0,2}, m]``.

Both layers have the same operators, so each operator class combines a
layer base (``InnerFormula`` or ``OuterFormula``) with one of three frozen
shapes: ``_Unary`` (field ``child``), ``_NAry`` (``children``, at least
two) and ``_Binary`` (``lhs``, ``rhs``).  ``ITrue``, ``IAtom``, ``OTrue``
and ``Tcp`` are the leaves.  Two tables drive every traversal:

- ``_OPS`` maps each operator token, ``true`` included, to its
  (inner, outer) class pair; the parser builds from it and the printer
  reads it backwards.
- ``_DUAL`` maps each operator class to the class negation turns it into:
  and/or, eventually/always, until/release, and next to itself.

So ``children``/``rebuild``, ``subformulas``, ``to_text``, the negation
normal form under ``inner_nnf`` and ``to_pnf``, ``expand_sugar``,
``resolve_groups`` and the parser are each written once for both layers.

Concrete syntax (UTF-8 text)::

    outer  :=  outer ('U' | 'R') outer          -- loosest, right assoc
            |  outer '|' outer
            |  outer '&' outer
            |  ('!' | 'X' | 'F' | 'G') outer    -- tightest
            |  '(' outer ')' | '[' tcp ']' | 'true' | 'false'
    tcp    :=  inner ',' count  |  inner ',' '@' group ',' count
    inner  :=  same operators over atoms instead of tcps

Atoms are identifiers ``[A-Za-z_][A-Za-z0-9_]*``; the single letters
``X U R F G`` and the words ``true``/``false`` are reserved.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union


# ---------------------------------------------------------------------------
# AST node types
# ---------------------------------------------------------------------------

class _Formula:
    """Common base of both layers."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


class InnerFormula(_Formula):
    """Base class for inner-logic (single robot) formulas."""

    __slots__ = ()


class OuterFormula(_Formula):
    """Base class for outer-logic (collective) formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class _Unary:
    child: _Formula


@dataclass(frozen=True)
class _NAry:
    children: tuple[_Formula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError(f"{_SYMBOL[type(self)]!r} needs at least two operands")


@dataclass(frozen=True)
class _Binary:
    lhs: _Formula
    rhs: _Formula


@dataclass(frozen=True)
class ITrue(InnerFormula):
    pass


@dataclass(frozen=True)
class IAtom(InnerFormula):
    name: str


class INot(_Unary, InnerFormula):
    """``!phi``"""


class IAnd(_NAry, InnerFormula):
    """``phi & psi & ...``"""


class IOr(_NAry, InnerFormula):
    """``phi | psi | ...``"""


class INext(_Unary, InnerFormula):
    """``X phi``"""


class IUntil(_Binary, InnerFormula):
    """``phi U psi``"""


class IRelease(_Binary, InnerFormula):
    """``phi R psi``"""


class IEventually(_Unary, InnerFormula):
    """``F phi``"""


class IAlways(_Unary, InnerFormula):
    """``G phi``"""


@dataclass(frozen=True)
class OTrue(OuterFormula):
    pass


GroupSpec = Union[str, frozenset]


@dataclass(frozen=True)
class Tcp(OuterFormula):
    """Temporal counting proposition: at least ``m`` robots satisfy ``inner``.

    ``group`` restricts counting to a robot subset; it is either a group
    name (resolved against a model instance via :func:`resolve_groups`)
    or a frozenset of 0-based robot indices.
    """

    inner: InnerFormula
    m: int
    group: Optional[GroupSpec] = None

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("robot count threshold must be nonnegative")
        if isinstance(self.group, frozenset) and not self.group:
            raise ValueError("robot group must be nonempty")


class ONot(_Unary, OuterFormula):
    """``!mu``"""


class OAnd(_NAry, OuterFormula):
    """``mu & nu & ...``"""


class OOr(_NAry, OuterFormula):
    """``mu | nu | ...``"""


class ONext(_Unary, OuterFormula):
    """``X mu``"""


class OUntil(_Binary, OuterFormula):
    """``mu U nu``"""


class ORelease(_Binary, OuterFormula):
    """``mu R nu``"""


class OEventually(_Unary, OuterFormula):
    """``F mu``"""


class OAlways(_Unary, OuterFormula):
    """``G mu``"""


# Operator token -> (inner class, outer class), for the parser and printer.
_OPS = {"true": (ITrue, OTrue), "!": (INot, ONot), "X": (INext, ONext),
        "F": (IEventually, OEventually), "G": (IAlways, OAlways),
        "&": (IAnd, OAnd), "|": (IOr, OOr), "U": (IUntil, OUntil),
        "R": (IRelease, ORelease)}
_SYMBOL = {kind: token for token, pair in _OPS.items() for kind in pair}

# Operator class -> the class a negation pushed through it turns it into.
_DUAL = {kind: _OPS[dual][layer]
         for token, dual in (("X", "X"), ("F", "G"), ("G", "F"), ("&", "|"),
                             ("|", "&"), ("U", "R"), ("R", "U"))
         for layer, kind in enumerate(_OPS[token])}

# Inner literal standing for logical false; kept as a negated constant so
# the variant set stays minimal.
INNER_FALSE = INot(ITrue())
_FALSE = (INNER_FALSE, ONot(OTrue()))  # what both layers print as "false"


def outer_false(n_robots: int) -> Tcp:
    """An unsatisfiable tcp: more robots than exist must satisfy true."""
    return Tcp(ITrue(), n_robots + 1)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def children(node: _Formula) -> tuple[_Formula, ...]:
    """Direct subformulas on the same layer; a tcp is an outer leaf."""
    if isinstance(node, _Unary):
        return (node.child,)
    if isinstance(node, _NAry):
        return node.children
    if isinstance(node, _Binary):
        return (node.lhs, node.rhs)
    if isinstance(node, (ITrue, IAtom, OTrue, Tcp)):
        return ()
    raise TypeError(f"not a formula: {node!r}")


def rebuild(kind: type, kids: Iterable[_Formula]) -> _Formula:
    """The ``kind`` operator over ``kids``; the inverse of ``children``."""
    if issubclass(kind, _NAry):
        return kind(tuple(kids))
    return kind(*kids)


def subformulas(node: _Formula) -> Iterator[_Formula]:
    """``node`` and its subformulas on the same layer, in pre-order."""
    yield node
    for c in children(node):
        yield from subformulas(c)


def iter_tcps(mu: OuterFormula) -> Iterator[Tcp]:
    for node in subformulas(mu):
        if isinstance(node, Tcp):
            yield node


def atoms_of(mu: OuterFormula) -> set[str]:
    """Names of all atomic propositions appearing inside any tcp."""
    return {node.name for tcp in iter_tcps(mu) for node in subformulas(tcp.inner)
            if isinstance(node, IAtom)}


def group_names_of(mu: OuterFormula) -> set[str]:
    return {t.group for t in iter_tcps(mu) if isinstance(t.group, str)}


def is_cltl(mu: OuterFormula) -> bool:
    """``mu`` is in cLTL: once ``inner_nnf`` has pushed negations inward,
    every tcp counts a literal, an atom or ``true`` or the negation of one.
    ``normalize`` keeps such tcps literal."""
    inners = (inner_nnf(t.inner) for t in iter_tcps(mu))
    return all(isinstance(phi.child if isinstance(phi, INot) else phi, (IAtom, ITrue))
               for phi in inners)


def resolve_groups(mu: OuterFormula, groups: Mapping[str, frozenset]) -> OuterFormula:
    """Replace named robot groups with explicit index sets."""

    def rewrite(node: OuterFormula) -> OuterFormula:
        if isinstance(node, Tcp) and isinstance(node.group, str):
            if node.group not in groups:
                raise KeyError(f"unknown robot group: {node.group!r}")
            return Tcp(node.inner, node.m, frozenset(groups[node.group]))
        kids = children(node)
        return rebuild(type(node), map(rewrite, kids)) if kids else node

    return rewrite(mu)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

# Binding strength by operator token; leaves bind tightest.
_LEVEL = {"U": 1, "R": 1, "|": 2, "&": 3, "!": 4, "X": 4, "F": 4, "G": 4}
_LEVEL_PRIMARY = 5


def _level(node: _Formula) -> int:
    return _LEVEL.get(_SYMBOL.get(type(node)), _LEVEL_PRIMARY)


def _group_to_text(group: GroupSpec) -> str:
    if isinstance(group, str):
        return "@" + group
    return "@{" + ",".join(str(i) for i in sorted(group)) + "}"


def to_text(node: _Formula) -> str:
    """Render a formula of either layer in the concrete grammar (parse
    round-trips)."""
    if node in _FALSE:
        return "false"
    if isinstance(node, IAtom):
        return node.name
    if isinstance(node, Tcp):
        group = "" if node.group is None else _group_to_text(node.group) + ", "
        return f"[{to_text(node.inner)}, {group}{node.m}]"
    kids = children(node)
    symbol = _SYMBOL[type(node)]
    if not kids:
        return symbol
    # A unary operand needs parentheses only below the unary level; the
    # operands of & and | and both sides of U and R also at their own.
    unary = isinstance(node, _Unary)
    minimum = _level(node) + (0 if unary else 1)
    parts = [f"({to_text(c)})" if _level(c) < minimum else to_text(c) for c in kids]
    if unary:
        return symbol + ("" if symbol == "!" else " ") + parts[0]
    return f" {symbol} ".join(parts)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]{},@!&|-])
    """,
    re.VERBOSE,
)

_RESERVED = {"true": "TRUE", "false": "FALSE",
             "X": "OP", "U": "OP", "R": "OP", "F": "OP", "G": "OP"}
_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
          "{": "LBRACE", "}": "RBRACE", ",": "COMMA", "@": "AT",
          "!": "OP", "&": "OP", "|": "OP", "-": "MINUS"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "int":
            tokens.append(_Token("INT", lexeme, line, col))
        elif m.lastgroup == "ident":
            tokens.append(_Token(_RESERVED.get(lexeme, "IDENT"), lexeme, line, col))
        elif m.lastgroup == "punct":
            tokens.append(_Token(_PUNCT[lexeme], lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            self.fail(f"expected {kind}, found {tok.text!r}" if tok.text else f"expected {kind}")
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col)

    def at(self, *tokens: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in tokens

    # Shared operator levels; the ``inner`` flag selects the layer's class
    # for each operator and which leaves are legal at the primary level.

    def build(self, token: str, inner: bool, *args):
        return _OPS[token][0 if inner else 1](*args)

    def expr(self, inner: bool):
        lhs = self.chain("|", inner)
        if self.at("U", "R"):
            token = self.take().text
            return self.build(token, inner, lhs, self.expr(inner))  # right associative
        return lhs

    def chain(self, token: str, inner: bool):
        """A flat ``token`` chain: ``|`` joins ``&`` chains, ``&`` joins unaries."""

        def operand():
            return self.chain("&", inner) if token == "|" else self.unary(inner)

        operands = [operand()]
        while self.at(token):
            self.take()
            operands.append(operand())
        if len(operands) == 1:
            return operands[0]
        return self.build(token, inner, tuple(operands))

    def unary(self, inner: bool):
        if self.at("!", "X", "F", "G"):
            token = self.take().text
            return self.build(token, inner, self.unary(inner))
        return self.primary(inner)

    def primary(self, inner: bool):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take()
            node = self.expr(inner)
            self.take("RPAREN")
            return node
        if tok.kind == "TRUE":
            self.take()
            return self.build("true", inner)
        if tok.kind == "FALSE":
            self.take()
            return self.build("!", inner, self.build("true", inner))
        if inner:
            if tok.kind == "IDENT":
                self.take()
                return IAtom(tok.text)
            self.fail(f"expected an atom, found {tok.text!r}" if tok.text else "expected an atom")
        if tok.kind == "LBRACK":
            return self.tcp()
        if tok.kind == "IDENT":
            self.fail(f"bare atom {tok.text!r} outside a counting proposition; write [{tok.text}, m]")
        self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input")

    def tcp(self) -> Tcp:
        self.take("LBRACK")
        phi = self.expr(inner=True)
        self.take("COMMA")
        group: Optional[GroupSpec] = None
        if self.peek().kind == "AT":
            self.take()
            tok = self.peek()
            if tok.kind == "IDENT":
                self.take()
                group = tok.text
            elif tok.kind == "LBRACE":
                self.take()
                indices = [int(self.take("INT").text)]
                while self.peek().kind == "COMMA":
                    self.take()
                    indices.append(int(self.take("INT").text))
                self.take("RBRACE")
                group = frozenset(indices)
            else:
                self.fail("expected a group name or {index,...} after '@'")
            self.take("COMMA")
        if self.peek().kind == "MINUS":
            self.fail("negative robot count")
        count = int(self.take("INT").text)
        self.take("RBRACK")
        return Tcp(phi, count, group)


def _parse(text: str, inner: bool):
    parser = _Parser(text)
    node = parser.expr(inner)
    if parser.peek().kind != "EOF":
        parser.fail(f"trailing input {parser.peek().text!r}")
    return node


def parse_formula(text: str) -> OuterFormula:
    """Parse an outer-layer formula from concrete syntax."""
    return _parse(text, inner=False)


def parse_inner_formula(text: str) -> InnerFormula:
    """Parse a single-robot (inner) formula from concrete syntax."""
    return _parse(text, inner=True)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def _nnf(node: _Formula, negate: bool,
         leaf: Callable[[_Formula, bool], _Formula]) -> _Formula:
    """Push negations through ``_DUAL`` down to the leaves of either layer,
    where ``leaf(node, negate)`` supplies the result."""
    if isinstance(node, (INot, ONot)):
        return _nnf(node.child, not negate, leaf)
    kids = children(node)
    if not kids:
        return leaf(node, negate)
    kind = _DUAL[type(node)] if negate else type(node)
    return rebuild(kind, [_nnf(c, negate, leaf) for c in kids])


def inner_nnf(phi: InnerFormula, negate: bool = False) -> InnerFormula:
    """Negation normal form; negations end up only on atoms (or on ``true``,
    the representation of the constant false)."""
    return _nnf(phi, negate, lambda node, neg: INot(node) if neg else node)


def _dualize_tcp(tcp: Tcp, n_robots: int) -> OuterFormula:
    """Negate a tcp by counting the robots that violate the inner formula:
    fewer than m robots satisfy phi iff at least N+1-m satisfy not-phi."""
    if isinstance(tcp.group, str):
        raise ValueError(
            f"cannot negate tcp with unresolved group {tcp.group!r}; resolve groups first")
    scope = n_robots if tcp.group is None else len(tcp.group)
    new_m = scope + 1 - tcp.m
    if new_m < 0:
        warnings.warn(
            f"negated counting threshold {tcp.m} exceeds group size {scope}; "
            "clamped to the trivially true proposition")
        return OTrue()
    if new_m > scope + 1:
        warnings.warn(
            f"negated counting threshold below zero; clamped to the trivially "
            "false proposition")
        return outer_false(n_robots)
    return Tcp(inner_nnf(tcp.inner, negate=True), new_m, tcp.group)


def to_pnf(mu: OuterFormula, n_robots: int) -> OuterFormula:
    """Positive normal form: no outer negation remains (negated tcps are
    dualized) and inner negations sit only on atoms."""
    if n_robots < 1:
        raise ValueError("n_robots must be at least 1")

    def leaf(node: OuterFormula, negate: bool) -> OuterFormula:
        if isinstance(node, OTrue):
            return outer_false(n_robots) if negate else node
        if negate:
            return _dualize_tcp(node, n_robots)
        return Tcp(inner_nnf(node.inner), node.m, node.group)

    return _nnf(mu, False, leaf)


def expand_sugar(mu: OuterFormula, n_robots: int, robust: bool = False) -> OuterFormula:
    """Rewrite eventually/always into until/release at both layers:
    ``F x == true U x`` and ``G x == false R x``.

    With ``robust=True`` an outer eventually applied to a tcp uses the
    asynchrony-friendly form ``F [phi,m] == [!phi, N-m+1] U [phi,m]``,
    which also pins down *when* the counting threshold may be crossed.
    """
    sugar = {IEventually: (IUntil, ITrue()), IAlways: (IRelease, INNER_FALSE),
             OEventually: (OUntil, OTrue()),
             OAlways: (ORelease, outer_false(n_robots))}

    def walk(node: _Formula) -> _Formula:
        if isinstance(node, Tcp):
            return Tcp(walk(node.inner), node.m, node.group)
        kids = [walk(c) for c in children(node)]
        if type(node) not in sugar:
            return rebuild(type(node), kids) if kids else node
        kind, lhs = sugar[type(node)]
        child = kids[0]
        if robust and isinstance(node, OEventually) and isinstance(child, Tcp):
            scope = n_robots if not isinstance(child.group, frozenset) else len(child.group)
            guard_m = max(0, scope - child.m + 1)
            lhs = Tcp(inner_nnf(child.inner, negate=True), guard_m, child.group)
        return kind(lhs, child)

    return walk(mu)


def normalize(mu: OuterFormula, n_robots: int, robust: bool = False,
              groups: Optional[Mapping[str, frozenset]] = None) -> OuterFormula:
    """Full encoding pipeline: resolve groups, expand sugar, push negations."""
    resolved = resolve_groups(mu, groups or {})
    return to_pnf(expand_sugar(resolved, n_robots, robust=robust), n_robots)
