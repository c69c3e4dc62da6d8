"""Counting temporal logic formulas.

Two layers of syntax: an *inner* layer of plain LTL over atomic
propositions (tasks a single robot can satisfy), and an *outer* layer
whose leaves are temporal counting propositions ``[phi, m]`` that hold
when at least ``m`` robots satisfy the inner formula ``phi``.  A tcp may
optionally restrict counting to a robot group, written ``[phi, @name, m]``
or ``[phi, @{0,2}, m]``.

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
from typing import Iterator, Mapping, Optional, Union


# ---------------------------------------------------------------------------
# AST node types
# ---------------------------------------------------------------------------

class InnerFormula:
    """Base class for inner-logic (single robot) formulas."""

    __slots__ = ()

    def __str__(self) -> str:
        return inner_to_text(self)


@dataclass(frozen=True)
class ITrue(InnerFormula):
    pass


@dataclass(frozen=True)
class IAtom(InnerFormula):
    name: str


@dataclass(frozen=True)
class INot(InnerFormula):
    child: InnerFormula


@dataclass(frozen=True)
class IAnd(InnerFormula):
    children: tuple[InnerFormula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two operands")


@dataclass(frozen=True)
class IOr(InnerFormula):
    children: tuple[InnerFormula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two operands")


@dataclass(frozen=True)
class INext(InnerFormula):
    child: InnerFormula


@dataclass(frozen=True)
class IUntil(InnerFormula):
    lhs: InnerFormula
    rhs: InnerFormula


@dataclass(frozen=True)
class IRelease(InnerFormula):
    lhs: InnerFormula
    rhs: InnerFormula


@dataclass(frozen=True)
class IEventually(InnerFormula):
    child: InnerFormula


@dataclass(frozen=True)
class IAlways(InnerFormula):
    child: InnerFormula


class OuterFormula:
    """Base class for outer-logic (collective) formulas."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


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


# Domain-type alias: the tcp leaf *is* the temporal counting proposition.
TempCountProp = Tcp


@dataclass(frozen=True)
class ONot(OuterFormula):
    child: OuterFormula


@dataclass(frozen=True)
class OAnd(OuterFormula):
    children: tuple[OuterFormula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("conjunction needs at least two operands")


@dataclass(frozen=True)
class OOr(OuterFormula):
    children: tuple[OuterFormula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("disjunction needs at least two operands")


@dataclass(frozen=True)
class ONext(OuterFormula):
    child: OuterFormula


@dataclass(frozen=True)
class OUntil(OuterFormula):
    lhs: OuterFormula
    rhs: OuterFormula


@dataclass(frozen=True)
class ORelease(OuterFormula):
    lhs: OuterFormula
    rhs: OuterFormula


@dataclass(frozen=True)
class OEventually(OuterFormula):
    child: OuterFormula


@dataclass(frozen=True)
class OAlways(OuterFormula):
    child: OuterFormula


# Inner literal standing for logical false; kept as a negated constant so
# the variant set stays minimal.
INNER_FALSE = INot(ITrue())


def outer_false(n_robots: int) -> Tcp:
    """An unsatisfiable tcp: more robots than exist must satisfy true."""
    return Tcp(ITrue(), n_robots + 1)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def inner_children(phi: InnerFormula) -> tuple[InnerFormula, ...]:
    if isinstance(phi, (ITrue, IAtom)):
        return ()
    if isinstance(phi, (INot, INext, IEventually, IAlways)):
        return (phi.child,)
    if isinstance(phi, (IAnd, IOr)):
        return phi.children
    if isinstance(phi, (IUntil, IRelease)):
        return (phi.lhs, phi.rhs)
    raise TypeError(f"not an inner formula: {phi!r}")


def outer_children(mu: OuterFormula) -> tuple[OuterFormula, ...]:
    if isinstance(mu, (OTrue, Tcp)):
        return ()
    if isinstance(mu, (ONot, ONext, OEventually, OAlways)):
        return (mu.child,)
    if isinstance(mu, (OAnd, OOr)):
        return mu.children
    if isinstance(mu, (OUntil, ORelease)):
        return (mu.lhs, mu.rhs)
    raise TypeError(f"not an outer formula: {mu!r}")


def iter_inner(phi: InnerFormula) -> Iterator[InnerFormula]:
    yield phi
    for c in inner_children(phi):
        yield from iter_inner(c)


def iter_outer(mu: OuterFormula) -> Iterator[OuterFormula]:
    yield mu
    for c in outer_children(mu):
        yield from iter_outer(c)


def iter_tcps(mu: OuterFormula) -> Iterator[Tcp]:
    for node in iter_outer(mu):
        if isinstance(node, Tcp):
            yield node


def atoms_of(mu: OuterFormula) -> set[str]:
    """Names of all atomic propositions appearing inside any tcp."""
    names: set[str] = set()
    for tcp in iter_tcps(mu):
        for node in iter_inner(tcp.inner):
            if isinstance(node, IAtom):
                names.add(node.name)
    return names


def group_names_of(mu: OuterFormula) -> set[str]:
    return {t.group for t in iter_tcps(mu) if isinstance(t.group, str)}


def formula_length(mu: OuterFormula) -> int:
    """Number of AST nodes, counting each tcp leaf plus its inner subtree."""
    total = 0
    for node in iter_outer(mu):
        total += 1
        if isinstance(node, Tcp):
            total += sum(1 for _ in iter_inner(node.inner))
    return total


def resolve_groups(mu: OuterFormula, groups: Mapping[str, frozenset]) -> OuterFormula:
    """Replace named robot groups with explicit index sets."""

    def rewrite(node: OuterFormula) -> OuterFormula:
        if isinstance(node, Tcp):
            if isinstance(node.group, str):
                if node.group not in groups:
                    raise KeyError(f"unknown robot group: {node.group!r}")
                return Tcp(node.inner, node.m, frozenset(groups[node.group]))
            return node
        if isinstance(node, OTrue):
            return node
        kids = tuple(rewrite(c) for c in outer_children(node))
        return _rebuild_outer(node, kids)

    return rewrite(mu)


def _rebuild_outer(node: OuterFormula, kids: tuple[OuterFormula, ...]) -> OuterFormula:
    if isinstance(node, ONot):
        return ONot(kids[0])
    if isinstance(node, ONext):
        return ONext(kids[0])
    if isinstance(node, OEventually):
        return OEventually(kids[0])
    if isinstance(node, OAlways):
        return OAlways(kids[0])
    if isinstance(node, OAnd):
        return OAnd(kids)
    if isinstance(node, OOr):
        return OOr(kids)
    if isinstance(node, OUntil):
        return OUntil(kids[0], kids[1])
    if isinstance(node, ORelease):
        return ORelease(kids[0], kids[1])
    raise TypeError(f"cannot rebuild {node!r}")


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_LEVEL_UNTIL = 1   # loosest
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4
_LEVEL_PRIMARY = 5


def _inner_level(phi: InnerFormula) -> int:
    if isinstance(phi, (ITrue, IAtom)):
        return _LEVEL_PRIMARY
    if isinstance(phi, (INot, INext, IEventually, IAlways)):
        return _LEVEL_UNARY
    if isinstance(phi, IAnd):
        return _LEVEL_AND
    if isinstance(phi, IOr):
        return _LEVEL_OR
    return _LEVEL_UNTIL


def _outer_level(mu: OuterFormula) -> int:
    if isinstance(mu, (OTrue, Tcp)):
        return _LEVEL_PRIMARY
    if isinstance(mu, (ONot, ONext, OEventually, OAlways)):
        return _LEVEL_UNARY
    if isinstance(mu, OAnd):
        return _LEVEL_AND
    if isinstance(mu, OOr):
        return _LEVEL_OR
    return _LEVEL_UNTIL


def inner_to_text(phi: InnerFormula) -> str:
    def wrap(child: InnerFormula, minimum: int) -> str:
        text = inner_to_text(child)
        return f"({text})" if _inner_level(child) < minimum else text

    if isinstance(phi, ITrue):
        return "true"
    if phi == INNER_FALSE:
        return "false"
    if isinstance(phi, IAtom):
        return phi.name
    if isinstance(phi, INot):
        return "!" + wrap(phi.child, _LEVEL_UNARY)
    if isinstance(phi, INext):
        return "X " + wrap(phi.child, _LEVEL_UNARY)
    if isinstance(phi, IEventually):
        return "F " + wrap(phi.child, _LEVEL_UNARY)
    if isinstance(phi, IAlways):
        return "G " + wrap(phi.child, _LEVEL_UNARY)
    if isinstance(phi, IAnd):
        return " & ".join(wrap(c, _LEVEL_UNARY) for c in phi.children)
    if isinstance(phi, IOr):
        return " | ".join(wrap(c, _LEVEL_AND) for c in phi.children)
    if isinstance(phi, IUntil):
        return f"{wrap(phi.lhs, _LEVEL_OR)} U {wrap(phi.rhs, _LEVEL_UNTIL + 1)}"
    if isinstance(phi, IRelease):
        return f"{wrap(phi.lhs, _LEVEL_OR)} R {wrap(phi.rhs, _LEVEL_UNTIL + 1)}"
    raise TypeError(f"not an inner formula: {phi!r}")


def _group_to_text(group: GroupSpec) -> str:
    if isinstance(group, str):
        return "@" + group
    return "@{" + ",".join(str(i) for i in sorted(group)) + "}"


def to_text(mu: OuterFormula) -> str:
    """Render a formula in the concrete grammar (parse round-trips)."""

    def wrap(child: OuterFormula, minimum: int) -> str:
        text = to_text(child)
        return f"({text})" if _outer_level(child) < minimum else text

    if isinstance(mu, OTrue):
        return "true"
    if mu == ONot(OTrue()):
        return "false"
    if isinstance(mu, Tcp):
        inner = inner_to_text(mu.inner)
        if mu.group is None:
            return f"[{inner}, {mu.m}]"
        return f"[{inner}, {_group_to_text(mu.group)}, {mu.m}]"
    if isinstance(mu, ONot):
        return "!" + wrap(mu.child, _LEVEL_UNARY)
    if isinstance(mu, ONext):
        return "X " + wrap(mu.child, _LEVEL_UNARY)
    if isinstance(mu, OEventually):
        return "F " + wrap(mu.child, _LEVEL_UNARY)
    if isinstance(mu, OAlways):
        return "G " + wrap(mu.child, _LEVEL_UNARY)
    if isinstance(mu, OAnd):
        return " & ".join(wrap(c, _LEVEL_UNARY) for c in mu.children)
    if isinstance(mu, OOr):
        return " | ".join(wrap(c, _LEVEL_AND) for c in mu.children)
    if isinstance(mu, OUntil):
        return f"{wrap(mu.lhs, _LEVEL_OR)} U {wrap(mu.rhs, _LEVEL_UNTIL + 1)}"
    if isinstance(mu, ORelease):
        return f"{wrap(mu.lhs, _LEVEL_OR)} R {wrap(mu.rhs, _LEVEL_UNTIL + 1)}"
    raise TypeError(f"not an outer formula: {mu!r}")


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
             "X": "NEXT", "U": "UNTIL", "R": "RELEASE",
             "F": "FINALLY", "G": "GLOBALLY"}
_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
          "{": "LBRACE", "}": "RBRACE", ",": "COMMA", "@": "AT",
          "!": "NOT", "&": "AND", "|": "OR", "-": "MINUS"}


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

    # Shared operator levels; the ``inner`` flag selects which leaves are
    # legal at the primary level.

    def expr(self, inner: bool):
        lhs = self.or_expr(inner)
        tok = self.peek()
        if tok.kind in ("UNTIL", "RELEASE"):
            self.take()
            rhs = self.expr(inner)  # right associative
            if tok.kind == "UNTIL":
                return IUntil(lhs, rhs) if inner else OUntil(lhs, rhs)
            return IRelease(lhs, rhs) if inner else ORelease(lhs, rhs)
        return lhs

    def or_expr(self, inner: bool):
        operands = [self.and_expr(inner)]
        while self.peek().kind == "OR":
            self.take()
            operands.append(self.and_expr(inner))
        if len(operands) == 1:
            return operands[0]
        return IOr(tuple(operands)) if inner else OOr(tuple(operands))

    def and_expr(self, inner: bool):
        operands = [self.unary(inner)]
        while self.peek().kind == "AND":
            self.take()
            operands.append(self.unary(inner))
        if len(operands) == 1:
            return operands[0]
        return IAnd(tuple(operands)) if inner else OAnd(tuple(operands))

    def unary(self, inner: bool):
        tok = self.peek()
        if tok.kind == "NOT":
            self.take()
            child = self.unary(inner)
            return INot(child) if inner else ONot(child)
        if tok.kind == "NEXT":
            self.take()
            child = self.unary(inner)
            return INext(child) if inner else ONext(child)
        if tok.kind == "FINALLY":
            self.take()
            child = self.unary(inner)
            return IEventually(child) if inner else OEventually(child)
        if tok.kind == "GLOBALLY":
            self.take()
            child = self.unary(inner)
            return IAlways(child) if inner else OAlways(child)
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
            return ITrue() if inner else OTrue()
        if tok.kind == "FALSE":
            self.take()
            return INNER_FALSE if inner else ONot(OTrue())
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


def parse_formula(text: str) -> OuterFormula:
    """Parse an outer-layer formula from concrete syntax."""
    parser = _Parser(text)
    node = parser.expr(inner=False)
    if parser.peek().kind != "EOF":
        parser.fail(f"trailing input {parser.peek().text!r}")
    return node


def parse_inner_formula(text: str) -> InnerFormula:
    """Parse a single-robot (inner) formula from concrete syntax."""
    parser = _Parser(text)
    node = parser.expr(inner=True)
    if parser.peek().kind != "EOF":
        parser.fail(f"trailing input {parser.peek().text!r}")
    return node


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def inner_nnf(phi: InnerFormula, negate: bool = False) -> InnerFormula:
    """Negation normal form; negations end up only on atoms (or on ``true``,
    the representation of the constant false)."""
    if isinstance(phi, ITrue):
        return INNER_FALSE if negate else phi
    if isinstance(phi, IAtom):
        return INot(phi) if negate else phi
    if isinstance(phi, INot):
        return inner_nnf(phi.child, not negate)
    if isinstance(phi, IAnd):
        kids = tuple(inner_nnf(c, negate) for c in phi.children)
        return IOr(kids) if negate else IAnd(kids)
    if isinstance(phi, IOr):
        kids = tuple(inner_nnf(c, negate) for c in phi.children)
        return IAnd(kids) if negate else IOr(kids)
    if isinstance(phi, INext):
        return INext(inner_nnf(phi.child, negate))
    if isinstance(phi, IEventually):
        if negate:
            return IAlways(inner_nnf(phi.child, True))
        return IEventually(inner_nnf(phi.child, False))
    if isinstance(phi, IAlways):
        if negate:
            return IEventually(inner_nnf(phi.child, True))
        return IAlways(inner_nnf(phi.child, False))
    if isinstance(phi, IUntil):
        if negate:
            return IRelease(inner_nnf(phi.lhs, True), inner_nnf(phi.rhs, True))
        return IUntil(inner_nnf(phi.lhs, False), inner_nnf(phi.rhs, False))
    if isinstance(phi, IRelease):
        if negate:
            return IUntil(inner_nnf(phi.lhs, True), inner_nnf(phi.rhs, True))
        return IRelease(inner_nnf(phi.lhs, False), inner_nnf(phi.rhs, False))
    raise TypeError(f"not an inner formula: {phi!r}")


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

    def walk(node: OuterFormula, negate: bool) -> OuterFormula:
        if isinstance(node, OTrue):
            return outer_false(n_robots) if negate else node
        if isinstance(node, Tcp):
            if negate:
                return _dualize_tcp(node, n_robots)
            return Tcp(inner_nnf(node.inner), node.m, node.group)
        if isinstance(node, ONot):
            return walk(node.child, not negate)
        if isinstance(node, OAnd):
            kids = tuple(walk(c, negate) for c in node.children)
            return OOr(kids) if negate else OAnd(kids)
        if isinstance(node, OOr):
            kids = tuple(walk(c, negate) for c in node.children)
            return OAnd(kids) if negate else OOr(kids)
        if isinstance(node, ONext):
            return ONext(walk(node.child, negate))
        if isinstance(node, OEventually):
            if negate:
                return OAlways(walk(node.child, True))
            return OEventually(walk(node.child, False))
        if isinstance(node, OAlways):
            if negate:
                return OEventually(walk(node.child, True))
            return OAlways(walk(node.child, False))
        if isinstance(node, OUntil):
            if negate:
                return ORelease(walk(node.lhs, True), walk(node.rhs, True))
            return OUntil(walk(node.lhs, False), walk(node.rhs, False))
        if isinstance(node, ORelease):
            if negate:
                return OUntil(walk(node.lhs, True), walk(node.rhs, True))
            return ORelease(walk(node.lhs, False), walk(node.rhs, False))
        raise TypeError(f"not an outer formula: {node!r}")

    return walk(mu, False)


def expand_sugar(mu: OuterFormula, n_robots: int, robust: bool = False) -> OuterFormula:
    """Rewrite eventually/always into until/release at both layers.

    With ``robust=True`` an outer eventually applied to a tcp uses the
    asynchrony-friendly form ``F [phi,m] == [!phi, N-m+1] U [phi,m]``,
    which also pins down *when* the counting threshold may be crossed.
    """

    def walk_inner(phi: InnerFormula) -> InnerFormula:
        if isinstance(phi, (ITrue, IAtom)):
            return phi
        if isinstance(phi, INot):
            return INot(walk_inner(phi.child))
        if isinstance(phi, IAnd):
            return IAnd(tuple(walk_inner(c) for c in phi.children))
        if isinstance(phi, IOr):
            return IOr(tuple(walk_inner(c) for c in phi.children))
        if isinstance(phi, INext):
            return INext(walk_inner(phi.child))
        if isinstance(phi, IEventually):
            return IUntil(ITrue(), walk_inner(phi.child))
        if isinstance(phi, IAlways):
            return IRelease(INNER_FALSE, walk_inner(phi.child))
        if isinstance(phi, IUntil):
            return IUntil(walk_inner(phi.lhs), walk_inner(phi.rhs))
        if isinstance(phi, IRelease):
            return IRelease(walk_inner(phi.lhs), walk_inner(phi.rhs))
        raise TypeError(f"not an inner formula: {phi!r}")

    def walk(node: OuterFormula) -> OuterFormula:
        if isinstance(node, OTrue):
            return node
        if isinstance(node, Tcp):
            return Tcp(walk_inner(node.inner), node.m, node.group)
        if isinstance(node, OEventually):
            child = walk(node.child)
            if robust and isinstance(child, Tcp):
                scope = n_robots if not isinstance(child.group, frozenset) else len(child.group)
                guard_m = max(0, scope - child.m + 1)
                guard = Tcp(inner_nnf(child.inner, negate=True), guard_m, child.group)
                return OUntil(guard, child)
            return OUntil(OTrue(), child)
        if isinstance(node, OAlways):
            return ORelease(outer_false(n_robots), walk(node.child))
        kids = tuple(walk(c) for c in outer_children(node))
        return _rebuild_outer(node, kids)

    return walk(mu)


def normalize(mu: OuterFormula, n_robots: int, robust: bool = False,
              groups: Optional[Mapping[str, frozenset]] = None) -> OuterFormula:
    """Full encoding pipeline: resolve groups, expand sugar, push negations."""
    resolved = resolve_groups(mu, groups or {})
    return to_pnf(expand_sugar(resolved, n_robots, robust=robust), n_robots)


# ---------------------------------------------------------------------------
# Fragment classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FragmentReport:
    """Structural facts about a formula that gate encoder choices.

    is_cltl: every tcp wraps a bare atom, so satisfaction is a function of
        simultaneous robot counts and the aggregate-flow encoder applies.
    inner_next_free: no next operator occurs inside any tcp.
    is_pnf: no outer negation; inner negation only on atoms/constants.
    in_completeness_fragment: the outer structure matches the restricted
        grammar (true | tcp | and | tcp-or-tcp | tcp-until-tcp | next) for
        which the robust encodings are complete.
    mutually_exclusive_required: a tcp disjunction or tcp until occurs, so
        the completeness guarantee additionally needs pairwise mutually
        exclusive atomic propositions.
    """

    is_cltl: bool
    inner_next_free: bool
    is_pnf: bool
    in_completeness_fragment: bool
    mutually_exclusive_required: bool


def _is_inner_literal(phi: InnerFormula) -> bool:
    return isinstance(phi, (ITrue, IAtom)) or (
        isinstance(phi, INot) and isinstance(phi.child, (IAtom, ITrue)))


def _inner_is_nnf(phi: InnerFormula) -> bool:
    if isinstance(phi, INot):
        return isinstance(phi.child, (IAtom, ITrue))
    return all(_inner_is_nnf(c) for c in inner_children(phi))


def check_fragment(mu: OuterFormula) -> FragmentReport:
    tcps = list(iter_tcps(mu))
    is_cltl = all(isinstance(t.inner, IAtom) for t in tcps)
    inner_next_free = not any(
        isinstance(node, INext) for t in tcps for node in iter_inner(t.inner))
    is_pnf = (not any(isinstance(n, ONot) for n in iter_outer(mu))
              and all(_inner_is_nnf(t.inner) for t in tcps))

    def in_fragment(node: OuterFormula) -> bool:
        if isinstance(node, (OTrue, Tcp)):
            return True
        if isinstance(node, OAnd):
            return all(in_fragment(c) for c in node.children)
        if isinstance(node, OOr):
            return all(isinstance(c, Tcp) for c in node.children)
        if isinstance(node, OUntil):
            return isinstance(node.lhs, Tcp) and isinstance(node.rhs, Tcp)
        if isinstance(node, ONext):
            return in_fragment(node.child)
        return False

    needs_exclusive = any(
        (isinstance(n, OOr) and all(isinstance(c, Tcp) for c in n.children))
        or (isinstance(n, OUntil) and isinstance(n.lhs, Tcp) and isinstance(n.rhs, Tcp))
        for n in iter_outer(mu))

    return FragmentReport(
        is_cltl=is_cltl,
        inner_next_free=inner_next_free,
        is_pnf=is_pnf,
        in_completeness_fragment=in_fragment(mu),
        mutually_exclusive_required=needs_exclusive,
    )
