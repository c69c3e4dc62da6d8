"""Solver-neutral integer linear program builder.

A model owns variables (binary / bounded integer / bounded continuous),
linear constraints grouped by an encoder tag, Boolean gadgets over binary
variables, and big-M threshold indicators.  Construction is single-writer;
a finished model is read-only and can be exported or solved concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

VarId = int

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

Number = Union[int, float]


@dataclass
class Var:
    name: str
    kind: str
    lo: Number
    hi: Number

    @property
    def is_integral(self) -> bool:
        return self.kind in (BINARY, INTEGER)


class LinExpr:
    """Sparse linear expression: coefficient map over variables plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Mapping[VarId, Number]] = None, const: Number = 0):
        self.coeffs: dict[VarId, Number] = {}
        if coeffs:
            for v, c in coeffs.items():
                if c != 0:
                    self.coeffs[v] = c
        self.const = const

    @staticmethod
    def of(x: Union["LinExpr", VarId, Number]) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, bool):
            raise TypeError("booleans are ambiguous here")
        if isinstance(x, int):
            # Bare ints are variable ids; use LinExpr(const=...) for constants.
            return LinExpr({x: 1})
        if isinstance(x, float):
            return LinExpr(const=x)
        raise TypeError(f"cannot coerce {x!r} to a linear expression")

    @staticmethod
    def sum_of(vars_: Iterable[VarId]) -> "LinExpr":
        e = LinExpr()
        for v in vars_:
            e.add_term(v, 1)
        return e

    def add_term(self, v: VarId, c: Number) -> "LinExpr":
        new = self.coeffs.get(v, 0) + c
        if new == 0:
            self.coeffs.pop(v, None)
        else:
            self.coeffs[v] = new
        return self

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.const)

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, LinExpr):
            for v, c in other.coeffs.items():
                out.add_term(v, c)
            out.const += other.const
        else:
            out.const += other
        return out

    __radd__ = __add__

    def __sub__(self, other):
        # Numeric operands are constants; wrap variable ids with LinExpr.of first.
        if isinstance(other, LinExpr):
            return self + (other * -1)
        return self + (-other)

    def __mul__(self, scalar: Number):
        out = LinExpr(const=self.const * scalar)
        if scalar != 0:
            for v, c in self.coeffs.items():
                out.coeffs[v] = c * scalar
        return out

    __rmul__ = __mul__

    def __repr__(self):
        terms = " ".join(f"{c:+g}·x{v}" for v, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms} {self.const:+g})"


@dataclass
class Constraint:
    expr: LinExpr
    sense: str  # "<=", "=", ">="
    rhs: Number
    tag: str


@dataclass
class Solution:
    """Variable assignment with a solve status.

    ``values`` holds exact integers for binary/integer variables whenever
    the status is feasible.
    """

    status: str  # "feasible" | "infeasible" | "unknown"
    values: dict[VarId, Number] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def __getitem__(self, v: VarId) -> Number:
        return self.values.get(v, 0)


class CsrMatrix(NamedTuple):
    """A sparse matrix in compressed sparse row form, as HiGHS takes it:
    row r holds ``data[indptr[r]:indptr[r + 1]]`` in the columns
    ``indices[indptr[r]:indptr[r + 1]]``.  The index arrays are int32,
    HiGHS's index type."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Row activities ``matrix @ x``; a row without entries gives 0 and
        a NaN in x gives NaN in every row that uses its column."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])


class ModelArrays(NamedTuple):
    """Matrix form of a model: ``row_lo <= matrix @ x <= row_hi`` and
    ``lb <= x <= ub``, with ``integrality[v] = 1`` for binary and integer
    variables.  The matrix is a NumPy ``CsrMatrix``, not a SciPy one, so
    building and checking a model imports no ``scipy.sparse``."""

    matrix: CsrMatrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray


SENSES = ("<=", "=", ">=")


class IlpModel:
    """Mutable ILP/MILP under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[Var] = []
        self.constraints: list[Constraint] = []
        self.var_tag_counts: dict[str, int] = {}
        self.con_tag_counts: dict[str, int] = {}
        self._const_cache: dict[int, VarId] = {}
        self._arrays: Optional[ModelArrays] = None  # to_arrays(), until the next add

    # -- variables ----------------------------------------------------------

    def add_var(self, kind: str, name: str, lo: Number = 0, hi: Number = 1,
                tag: str = "untagged") -> VarId:
        if kind == BINARY:
            lo, hi = 0, 1
        elif kind in (INTEGER, CONTINUOUS):
            if lo > hi:
                raise ValueError(f"variable {name!r}: lo {lo} > hi {hi}")
            if not (_finite(lo) and _finite(hi)):
                raise ValueError(f"variable {name!r}: bounds must be finite")
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        vid = len(self.vars)
        self.vars.append(Var(name, kind, lo, hi))
        self._arrays = None
        self.var_tag_counts[tag] = self.var_tag_counts.get(tag, 0) + 1
        return vid

    def add_binary(self, name: str, tag: str = "untagged") -> VarId:
        return self.add_var(BINARY, name, tag=tag)

    def add_integer(self, name: str, lo: int, hi: int, tag: str = "untagged") -> VarId:
        return self.add_var(INTEGER, name, lo, hi, tag=tag)

    def add_continuous(self, name: str, lo: float, hi: float,
                       tag: str = "untagged") -> VarId:
        return self.add_var(CONTINUOUS, name, lo, hi, tag=tag)

    def constant(self, value: int, tag: str = "const") -> VarId:
        """A binary variable pinned to 0 or 1, shared across callers."""
        if value not in (0, 1):
            raise ValueError("constants are binary")
        if value not in self._const_cache:
            v = self.add_binary(f"const_{value}", tag=tag)
            self.add_constraint(LinExpr({v: 1}), "=", value, tag=tag)
            self._const_cache[value] = v
        return self._const_cache[value]

    # -- constraints ---------------------------------------------------------

    def add_constraint(self, expr: Union[LinExpr, VarId], sense: str, rhs: Number,
                       tag: str = "untagged") -> None:
        expr = LinExpr.of(expr)
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        for v in expr.coeffs:
            if not (0 <= v < len(self.vars)):
                raise ValueError(f"constraint references unregistered variable {v}")
        # Fold the expression constant into the right-hand side.
        rhs = rhs - expr.const
        self.constraints.append(Constraint(LinExpr(expr.coeffs), sense, rhs, tag))
        self._arrays = None
        self.con_tag_counts[tag] = self.con_tag_counts.get(tag, 0) + 1

    # -- Boolean gadgets ------------------------------------------------------

    def bool_gadget(self, op: str, inputs: Sequence[VarId], name: Optional[str] = None,
                    tag: str = "gadget") -> VarId:
        """Fresh binary constrained to equal op(inputs) in every feasible point.

        AND:  z <= z_i for all i,  z >= 1 - I + sum z_i
        OR:   z >= z_i for all i,  z <= sum z_i
        NOT:  z = 1 - x (single input)
        """
        if not inputs:
            raise ValueError("bool_gadget needs at least one input")
        for v in inputs:
            if not (0 <= v < len(self.vars)):
                raise ValueError(f"gadget input references unregistered variable {v}")
            if self.vars[v].kind != BINARY:
                raise ValueError(f"gadget inputs must be binary, got {self.vars[v].kind}")
        if op == "NOT":
            if len(inputs) != 1:
                raise ValueError("NOT takes exactly one input")
            z = self.add_binary(name or f"not_{inputs[0]}", tag=tag)
            self.add_constraint(LinExpr({z: 1, inputs[0]: 1}), "=", 1, tag=tag)
            return z
        if op == "AND":
            z = self.add_binary(name or f"and_{len(self.vars)}", tag=tag)
            for v in inputs:
                self.add_constraint(LinExpr({z: 1, v: -1}), "<=", 0, tag=tag)
            e = LinExpr({z: 1})
            for v in inputs:
                e.add_term(v, -1)
            self.add_constraint(e, ">=", 1 - len(inputs), tag=tag)
            return z
        if op == "OR":
            z = self.add_binary(name or f"or_{len(self.vars)}", tag=tag)
            for v in inputs:
                self.add_constraint(LinExpr({z: 1, v: -1}), ">=", 0, tag=tag)
            e = LinExpr({z: 1})
            for v in inputs:
                e.add_term(v, -1)
            self.add_constraint(e, "<=", 0, tag=tag)
            return z
        raise ValueError(f"unknown gadget {op!r}")

    def bool_and(self, inputs: Sequence[VarId], name=None, tag="gadget") -> VarId:
        return self.bool_gadget("AND", inputs, name, tag)

    def bool_or(self, inputs: Sequence[VarId], name=None, tag="gadget") -> VarId:
        return self.bool_gadget("OR", inputs, name, tag)

    def bool_not(self, x: VarId, name=None, tag="gadget") -> VarId:
        return self.bool_gadget("NOT", [x], name, tag)

    # -- threshold indicator ----------------------------------------------------

    def expr_bounds(self, expr: LinExpr) -> tuple[Number, Number]:
        lo = hi = expr.const
        for v, c in expr.coeffs.items():
            var = self.vars[v]
            if c >= 0:
                lo += c * var.lo
                hi += c * var.hi
            else:
                lo += c * var.hi
                hi += c * var.lo
        return lo, hi

    def indicator_geq(self, expr: LinExpr, m: Number, big_m: Number,
                      name: Optional[str] = None, tag: str = "indicator",
                      known_bounds: Optional[tuple[Number, Number]] = None) -> VarId:
        """Fresh binary y with y = 1 iff expr >= m, for integer-valued expr.

        Encoded as  expr - M*y <= m - 1  and  expr - M*y >= m - M; the
        strict side uses integrality (expr < m becomes expr <= m - 1).
        ``known_bounds`` lets callers supply a tighter reachable range than
        the one variable bounds imply (e.g. a conserved total is invisible
        per-variable); M is rejected if it cannot cover the range.
        """
        expr = LinExpr.of(expr)
        lo, hi = self.expr_bounds(expr)
        if known_bounds is not None:
            lo, hi = max(lo, known_bounds[0]), min(hi, known_bounds[1])
        if big_m < max(hi - m + 1, m - lo):
            raise ValueError(
                f"big-M {big_m} too small for expression range [{lo}, {hi}] "
                f"against threshold {m}")
        y = self.add_binary(name or f"geq_{len(self.vars)}", tag=tag)
        upper = expr.copy().add_term(y, -big_m)
        self.add_constraint(upper, "<=", m - 1, tag=tag)
        lower = expr.copy().add_term(y, -big_m)
        self.add_constraint(lower, ">=", m - big_m, tag=tag)
        return y

    # -- inspection ---------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def metadata(self) -> dict:
        return {
            "variables": dict(sorted(self.var_tag_counts.items())),
            "constraints": dict(sorted(self.con_tag_counts.items())),
            "total_variables": self.n_vars,
            "total_constraints": self.n_constraints,
        }

    def to_arrays(self) -> ModelArrays:
        """The constraint matrix (CSR, one row per constraint in order) with
        row bounds, variable bounds and integrality, as HiGHS takes them.

        Built once and kept until the next ``add_var`` or
        ``add_constraint``, so the writer, the solver and ``check_point``
        share one matrix; its arrays are read-only."""
        if self._arrays is None:
            self._arrays = self._build_arrays()
        return self._arrays

    def _build_arrays(self) -> ModelArrays:
        indptr, indices, data = [0], [], []
        row_lo = np.full(self.n_constraints, -np.inf)
        row_hi = np.full(self.n_constraints, np.inf)
        for r, con in enumerate(self.constraints):
            indices.extend(con.expr.coeffs)
            data.extend(con.expr.coeffs.values())
            indptr.append(len(indices))
            if con.sense != "<=":
                row_lo[r] = con.rhs
            if con.sense != ">=":
                row_hi[r] = con.rhs
        matrix = CsrMatrix(np.array(indptr, dtype=np.int32),
                           np.array(indices, dtype=np.int32),
                           np.array(data, dtype=float), (self.n_constraints, self.n_vars))
        arrays = ModelArrays(
            matrix, row_lo, row_hi,
            np.array([float(var.lo) for var in self.vars]),
            np.array([float(var.hi) for var in self.vars]),
            np.array([int(var.is_integral) for var in self.vars]))
        for array in (*matrix[:3], *arrays[1:]):
            array.flags.writeable = False
        return arrays

    def check_point(self, values: Mapping[VarId, Number], tol: float = 1e-6) -> list[str]:
        """Constraint violations at a point; empty list means it satisfies all."""
        arrays = self.to_arrays()
        x = np.array([values.get(v, 0) for v in range(self.n_vars)], dtype=float)
        # Negated comparisons, so a NaN anywhere counts as a violation.
        bad_int = (arrays.integrality == 1) & ~(np.abs(x - np.round(x)) <= tol)
        bad_bound = ~((x >= arrays.lb - tol) & (x <= arrays.ub + tol))
        lhs = arrays.matrix.dot(x)
        bad_row = ~((lhs >= arrays.row_lo - tol) & (lhs <= arrays.row_hi + tol))
        problems = []
        for v in np.flatnonzero(bad_int | bad_bound).tolist():
            var, value = self.vars[v], values.get(v, 0)
            if bad_int[v]:
                problems.append(f"variable {var.name} = {value} is not integral")
            if bad_bound[v]:
                problems.append(f"variable {var.name} = {value} outside [{var.lo}, {var.hi}]")
        for idx in np.flatnonzero(bad_row).tolist():
            con = self.constraints[idx]
            value = sum(c * values.get(v, 0) for v, c in con.expr.coeffs.items())
            problems.append(
                f"constraint {idx} [{con.tag}] violated: {value} {con.sense} {con.rhs}")
        return problems


def _finite(x: Number) -> bool:
    return x == x and x not in (float("inf"), float("-inf"))
