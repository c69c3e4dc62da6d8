"""Solver-neutral integer linear program builder.

A model owns variables (binary / bounded integer / bounded continuous),
linear constraints grouped by an encoder tag, Boolean gadgets over binary
variables, and big-M threshold indicators.  Construction is single-writer;
a finished model is read-only and can be exported or solved concurrently.

Rows are stored in flat buffers, not as one object per row: ``add_row``
appends a row's columns and coefficients to the CSR index and value
buffers, its bounds to the row-bound buffers and its tag id to the tag
buffer, and ``to_arrays`` copies the buffers into NumPy arrays.  A
three-term row takes about 60 bytes there, against about 390 as a
``LinExpr`` plus a row object; the 8x8 emergency desk's program at h = 16
(13,517 rows) retains 2.1 MB instead of 6.8 MB.  ``add_constraint`` is
the ``LinExpr`` front end of the same path, and ``constraints`` is a
read-only view of the buffers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
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
_INF = float("inf")


class _Row:
    """One stored row, read like the ``LinExpr`` constraint it was added
    as.  A row is its own left-hand side and its own term map, so
    ``row.expr.coeffs`` is the row: its length is the number of terms, and
    ``items`` and ``values`` read the columns and coefficients in the order
    the row listed them.  ``sense`` and ``rhs`` are read off the row bounds
    as ``write_lp`` reads them, the rhs a float with the expression's
    constant folded in."""

    __slots__ = ("_model", "index", "_start", "_stop")

    def __init__(self, model: "IlpModel", index: int, start: int, stop: int):
        self._model, self.index, self._start, self._stop = model, index, start, stop

    @property
    def expr(self) -> "_Row":
        return self

    @property
    def coeffs(self) -> "_Row":
        return self

    def __len__(self) -> int:
        return self._stop - self._start

    def values(self) -> list[float]:
        return self._model._values[self._start:self._stop].tolist()

    def items(self):
        return zip(self._model._indices[self._start:self._stop].tolist(), self.values())

    @property
    def sense(self) -> str:
        return self._model._sense(self.index)

    @property
    def rhs(self) -> float:
        return self._model._rhs(self.index)

    @property
    def tag(self) -> str:
        return self._model._tag(self.index)


class _RowView:
    """Read-only sequence of a model's rows (``IlpModel.constraints``):
    length, indexing and iteration, one ``_Row`` per access."""

    __slots__ = ("_model",)

    def __init__(self, model: "IlpModel"):
        self._model = model

    def __len__(self) -> int:
        return self._model.n_constraints

    def __getitem__(self, index: int) -> _Row:
        n, ptr = len(self), self._model._indptr
        if not -n <= index < n:
            raise IndexError("row index out of range")
        index %= n
        return _Row(self._model, index, ptr[index], ptr[index + 1])

    def __iter__(self):
        ptr = self._model._indptr.tolist()
        return map(_Row, repeat(self._model), range(len(self)), ptr, ptr[1:])


class IlpModel:
    """Mutable ILP/MILP under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[Var] = []
        self.var_tag_counts: dict[str, int] = {}
        # rows: CSR buffers, bounds, and an id per row into _tag_ids
        self._indptr = array("i", [0])
        self._indices = array("i")
        self._values = array("d")
        self._row_lo = array("d")
        self._row_hi = array("d")
        self._row_tag = array("i")
        self._tag_ids: dict[str, int] = {}
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
            self.add_row((v,), (1,), "=", value, tag)
            self._const_cache[value] = v
        return self._const_cache[value]

    # -- constraints ---------------------------------------------------------

    def add_row(self, cols: Sequence[VarId], coefs: Sequence[Number], sense: str,
                rhs: Number, tag: str = "untagged") -> None:
        """Append the row ``sum coefs[k] * x[cols[k]]  sense  rhs``, the one
        way rows enter the model.  The caller lists each column once, with
        a nonzero coefficient, in the order the matrix should hold them."""
        if sense == "<=":
            lo, hi = -_INF, rhs
        elif sense == ">=":
            lo, hi = rhs, _INF
        elif sense == "=":
            lo = hi = rhs
        else:
            raise ValueError(f"unknown sense {sense!r}")
        if len(cols) != len(coefs):
            raise ValueError(f"row has {len(cols)} columns but {len(coefs)} coefficients")
        if cols and (min(cols) < 0 or max(cols) >= len(self.vars)):
            bad = next(v for v in cols if not 0 <= v < len(self.vars))
            raise ValueError(f"constraint references unregistered variable {bad}")
        tag_id = self._tag_ids.get(tag)
        if tag_id is None:
            tag_id = self._tag_ids[tag] = len(self._tag_ids)
        self._indices.extend(cols)
        self._values.extend(coefs)
        self._indptr.append(len(self._indices))
        self._row_lo.append(lo)
        self._row_hi.append(hi)
        self._row_tag.append(tag_id)
        self._arrays = None

    def add_constraint(self, expr: Union[LinExpr, VarId], sense: str, rhs: Number,
                       tag: str = "untagged") -> None:
        """``add_row`` for a ``LinExpr``, whose constant is folded into the
        right-hand side."""
        expr = LinExpr.of(expr)
        self.add_row(list(expr.coeffs), list(expr.coeffs.values()), sense,
                     rhs - expr.const, tag)

    @property
    def constraints(self) -> _RowView:
        """The rows, read-only: ``len``, indexing and iteration; each row
        has ``expr.coeffs``, ``sense``, ``rhs`` and ``tag``."""
        return _RowView(self)

    def _sense(self, r: int) -> str:
        # as write_lp reads it: "<=" has no lower bound, ">=" no upper one
        if self._row_lo[r] == -_INF:
            return "<="
        return ">=" if self._row_hi[r] == _INF else "="

    def _rhs(self, r: int) -> float:
        return self._row_hi[r] if self._row_lo[r] == -_INF else self._row_lo[r]

    def _tag(self, r: int) -> str:
        return list(self._tag_ids)[self._row_tag[r]]

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
            self.add_row((z, inputs[0]), (1, 1), "=", 1, tag)
            return z
        if op not in ("AND", "OR"):
            raise ValueError(f"unknown gadget {op!r}")
        z = self.add_binary(name or f"{op.lower()}_{len(self.vars)}", tag=tag)
        each, total = ("<=", ">=") if op == "AND" else (">=", "<=")
        for v in inputs:
            self.add_row((z, v), (1, -1), each, 0, tag)
        # z against the sum of the inputs, a repeated input merged into one term
        terms = {z: 1}
        for v in inputs:
            terms[v] = terms.get(v, 0) - 1
        self.add_row(list(terms), list(terms.values()), total,
                     1 - len(inputs) if op == "AND" else 0, tag)
        return z

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
        cols, coefs = [*expr.coeffs, y], [*expr.coeffs.values(), -big_m]
        self.add_row(cols, coefs, "<=", m - 1 - expr.const, tag)
        self.add_row(cols, coefs, ">=", m - big_m - expr.const, tag)
        return y

    # -- inspection ---------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def n_constraints(self) -> int:
        return len(self._row_lo)

    def metadata(self) -> dict:
        counts = np.bincount(np.array(self._row_tag, dtype=np.intp),
                             minlength=len(self._tag_ids)).tolist()
        return {
            "variables": dict(sorted(self.var_tag_counts.items())),
            "constraints": dict(sorted(zip(self._tag_ids, counts))),
            "total_variables": self.n_vars,
            "total_constraints": self.n_constraints,
        }

    def to_arrays(self) -> ModelArrays:
        """The constraint matrix (CSR, one row per constraint in order) with
        row bounds, variable bounds and integrality, as HiGHS takes them:
        copies of the row buffers.

        Built once and kept until the next ``add_var`` or ``add_row``, so
        the writer, the solver and ``check_point`` share one matrix; its
        arrays are read-only."""
        if self._arrays is None:
            matrix = CsrMatrix(np.array(self._indptr, dtype=np.int32),
                               np.array(self._indices, dtype=np.int32),
                               np.array(self._values, dtype=float),
                               (self.n_constraints, self.n_vars))
            arrays = ModelArrays(
                matrix, np.array(self._row_lo, dtype=float),
                np.array(self._row_hi, dtype=float),
                np.array([float(var.lo) for var in self.vars]),
                np.array([float(var.hi) for var in self.vars]),
                np.array([int(var.is_integral) for var in self.vars]))
            for a in (*matrix[:3], *arrays[1:]):
                a.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def check_point(self, values: Mapping[VarId, Number], tol: float = 1e-6) -> list[str]:
        """Constraint violations at a point; empty list means it satisfies
        all.  A violated row is named by its index and tag."""
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
            problems.append(f"constraint {idx} [{self._tag(idx)}] violated: "
                            f"{lhs[idx].item()} {self._sense(idx)} {self._rhs(idx)}")
        return problems


def _finite(x: Number) -> bool:
    return x == x and x not in (float("inf"), float("-inf"))
