"""Solver-neutral integer linear program builder.

A model owns variables (binary / bounded integer / bounded continuous),
linear constraints grouped by an encoder tag, Boolean gadgets over binary
variables, and big-M indicators.  Construction is single-writer; a
finished model is read-only and can be exported or solved concurrently.

Rows and columns are stored in flat buffers, not as one object each,
and each set of buffers has one writer.  Rows go to the CSR buffers
(column indices, values, row pointers, row bounds and a tag id per row)
only through ``_append_rows``: ``add_row`` hands it one row, and
``add_rows`` a whole CSR block given as Python sequences, checked once
per block.  Columns go to ``names`` and the column buffers (bounds, kind
code and tag id) only through ``_append_columns``: ``add_var`` hands it
one column and ``add_binaries`` a run of binaries.  Rows and columns
live in separate buffers, so a caller can reserve column ids before
writing the rows that use them.  Every Boolean gadget goes through
``bool_gadgets``, which stores G same-kind gadgets, one or many, as one
block of columns and one of rows, and every big-M indicator (a count
over robot binaries or occupancies, a polytope face) through
``RowBlock.indicator``.  Rows and columns share one tag table, and
``metadata`` counts both from their tag ids.

Folding.  ``constant`` makes the shared constant of a value, a column
pinned to it.  ``fold_row`` moves constants into a row's bounds and drops
a row that holds at every point of its columns' bounds, and ``RowBlock``
gathers rows with their constants so folded for one ``add_rows`` call.
``add_row``, ``add_rows`` and the block builders store what they are
given: which gadgets and indicators a program needs, and the one row that
forces a decided one, is settled before they are called
(``circuit.Circuit``).

``to_arrays`` copies the buffers into NumPy arrays, and every reader of
the program goes through it, ``names`` or the model's methods.  A
three-term row takes about 60 bytes, against about 390 as a ``LinExpr``
plus a row object, and a column about 80 bytes less than as a
dataclass.  The 8x8 emergency desk's folded program at h = 16 (8,601
rows, 3,847 columns) retains 1.11 MB under ``tracemalloc``, its layout
included; unfolded (13,517 rows, 5,615 columns) it retained 1.58 MB,
1.69 MB when it was built row by row, 2.14 MB with a dataclass per
column, and 6.8 MB with an object per row as well.  ``constraints`` is
a read-only view of the row buffers.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, count, islice, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

VarId = int

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"
KINDS = (CONTINUOUS, BINARY, INTEGER)  # a column's kind code is its index: 0 is continuous

Number = Union[int, float]


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
        # Numeric operands are constants, never variable ids.
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
    the status is feasible; a column it does not list is 0.
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
_INDEX_MAX = np.iinfo(np.intc).max  # array("i") holds C ints, HiGHS's index type


def _gadget_bounds(op: str, width: int) -> tuple[list[float], list[float]]:
    """Lower and upper row bounds of one AND or OR gadget over ``width``
    inputs: ``width`` rows z - x then the row z - sum of the inputs."""
    if op == "AND":
        return [-_INF] * width + [1.0 - width], [0.0] * width + [_INF]
    return [0.0] * width + [-_INF], [_INF] * width + [0.0]


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
        ptr = self._model._indptr  # read as the walk goes, not copied
        return map(_Row, repeat(self._model), range(len(self)), ptr, islice(ptr, 1, None))


class IlpModel:
    """Mutable ILP/MILP under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.names: list[str] = []  # one per column, read-only outside the model
        # columns: bounds, a code into KINDS, and an id per column into _tag_ids
        self._lb = array("d")
        self._ub = array("d")
        self._kind = array("b")
        self._col_tag = array("i")
        # rows: CSR buffers, bounds, and an id per row into _tag_ids
        self._indptr = array("i", [0])
        self._indices = array("i")
        self._values = array("d")
        self._row_lo = array("d")
        self._row_hi = array("d")
        self._row_tag = array("i")
        self._tag_ids: dict[str, int] = {}
        self._const_cache: dict[int, VarId] = {}
        self._const_value: dict[VarId, int] = {}  # the inverse of _const_cache
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
        return self._append_columns([name], kind, lo, hi, tag)

    def add_binary(self, name: str, tag: str = "untagged") -> VarId:
        return self.add_var(BINARY, name, tag=tag)

    def add_integer(self, name: str, lo: int, hi: int, tag: str = "untagged") -> VarId:
        return self.add_var(INTEGER, name, lo, hi, tag=tag)

    def add_continuous(self, name: str, lo: float, hi: float,
                       tag: str = "untagged") -> VarId:
        return self.add_var(CONTINUOUS, name, lo, hi, tag=tag)

    def add_binaries(self, names: Sequence[str], tag: str = "untagged") -> VarId:
        """One binary per name, in order, as ``add_binary`` adds them one at
        a time; returns the first one's id, and the others follow it."""
        return self._append_columns(names, BINARY, 0, 1, tag)

    def _append_columns(self, names: Sequence[str], kind: str, lo: Number, hi: Number,
                        tag: str) -> VarId:
        """Store one column per name, each of ``kind`` with bounds [lo, hi],
        as ``add_var`` and ``add_binaries`` take them; returns the first
        one's id."""
        first, k = len(self.names), len(names)
        self.names.extend(names)
        self._lb.extend(array("d", [lo]) * k)
        self._ub.extend(array("d", [hi]) * k)
        self._kind.extend(array("b", [KINDS.index(kind)]) * k)
        self._col_tag.extend(array("i", [self._tag_ids.setdefault(tag, len(self._tag_ids))]) * k)
        self._arrays = None
        return first

    def constant(self, value: Number, tag: str = "const") -> VarId:
        """A column pinned to ``value``, shared across callers: a binary
        with the row ``= value`` for 0 and 1, an integer column with both
        bounds at ``value`` for any other integer, and a continuous one for
        any other finite number."""
        if value not in self._const_cache:
            if not _finite(value):
                raise ValueError("constants are finite")
            if value in (0, 1):
                v = self.add_binary(f"const_{int(value)}", tag=tag)
                self.add_row((v,), (1,), "=", value, tag)
            elif float(value).is_integer() and value > 0:
                v = self.add_integer(f"const_{int(value)}", value, value, tag=tag)
            else:
                v = self.add_continuous(f"constx_{len(self._const_cache)}", value, value,
                                        tag=tag)
            self._const_cache[value] = v
            self._const_value[v] = value
        return self._const_cache[value]

    @property
    def constant_ids(self):
        """The shared constants' column ids, a read-only set view."""
        return self._const_value.keys()

    def constant_value(self, v: VarId) -> Optional[int]:
        """The value of column ``v`` if it is a shared constant, else None."""
        return self._const_value.get(v)

    def fold_row(self, cols: Sequence[VarId], coefs: Sequence[Number], lo: Number,
                 hi: Number) -> Optional[tuple[list, list, Number, Number]]:
        """The row ``lo <= sum coefs[k] * x[cols[k]] <= hi`` with its shared
        constants moved into the bounds, or None when it holds at every
        point of the remaining columns' bounds (a column not yet added
        counts as a binary).  A row of constants alone
        that no point meets comes back as ``const = value + 1`` over its
        first constant, so the model keeps it, infeasible."""
        const, lb, ub, n = self._const_value, self._lb, self._ub, len(self._lb)
        kept_c, kept_v, shift, low, high = [], [], 0, 0.0, 0.0
        for c, v in zip(cols, coefs):
            k = const.get(c)
            if k is not None:
                shift += v * k
                continue
            kept_c.append(c)
            kept_v.append(v)
            # a column id past the registered ones is a binary its block adds next
            lo_c, hi_c = (lb[c], ub[c]) if c < n else (0.0, 1.0)
            if v > 0:
                low += v * lo_c
                high += v * hi_c
            else:
                low += v * hi_c
                high += v * lo_c
        lo, hi = lo - shift, hi - shift
        if lo - 1e-9 <= low and high <= hi + 1e-9:
            return None
        if not kept_c:
            c = cols[0] if cols else self.constant(0)
            return [c], [1.0], const[c] + 1.0, const[c] + 1.0
        return kept_c, kept_v, lo, hi

    # -- constraints ---------------------------------------------------------

    def add_row(self, cols: Sequence[VarId], coefs: Sequence[Number], sense: str,
                rhs: Number, tag: str = "untagged") -> None:
        """Append the row ``sum coefs[k] * x[cols[k]]  sense  rhs``, a block
        of one row.  The caller lists each column once, with a nonzero
        coefficient, in the order the matrix should hold them."""
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
        self._check_columns(cols)
        self._append_rows([len(cols)], cols, coefs, [lo], [hi], tag)

    def add_rows(self, indptr: Sequence[int], indices: Sequence[VarId],
                 values: Sequence[Number], row_lo: Union[Number, Sequence[Number]],
                 row_hi: Union[Number, Sequence[Number]], tag: str = "untagged") -> None:
        """Append a CSR block of rows to the buffers ``add_row`` fills: row r
        holds ``values[indptr[r]:indptr[r + 1]]`` in the columns
        ``indices[indptr[r]:indptr[r + 1]]`` and reads
        ``row_lo[r] <= row <= row_hi[r]`` (a bound given as one number
        holds for every row; -inf and inf leave a side open).  ``indptr``
        starts at 0.  The block is checked once, as a whole: the lengths
        agree and every column is registered; nothing is stored if a check
        fails."""
        indptr = list(indptr)
        lengths = list(map(operator.sub, indptr[1:], indptr[:-1]))
        if indptr[:1] != [0] or min(lengths, default=0) < 0:
            raise ValueError("indptr must start at 0 and never decrease")
        try:
            columns = array("i", indices)
        except TypeError:
            raise ValueError("column indices must be integers") from None
        values = array("d", values)
        n_rows = len(lengths)
        if not len(columns) == len(values) == indptr[-1]:
            raise ValueError(f"block has {indptr[-1]} entries by indptr but {len(columns)} "
                             f"columns and {len(values)} coefficients")
        self._check_columns(indices)  # min and max run faster over a list than over columns
        bounds = []
        for side, bound in (("lower", row_lo), ("upper", row_hi)):
            if isinstance(bound, (int, float)):
                bound = array("d", [bound]) * n_rows
            elif len(bound) != n_rows:
                raise ValueError(f"block has {n_rows} rows but {len(bound)} {side} bounds")
            bounds.append(bound)
        self._append_rows(lengths, columns, values, *bounds, tag)

    def _check_columns(self, cols: Sequence[VarId]) -> None:
        """Raise unless every id in ``cols`` is a registered column."""
        n = len(self.names)
        if len(cols) and (min(cols) < 0 or max(cols) >= n):
            bad = next(v for v in cols if not 0 <= v < n)
            raise ValueError(f"constraint references unregistered variable {bad}")

    def _append_rows(self, lengths: list[int], indices: Sequence[VarId],
                     values: Sequence[Number], row_lo: Sequence[Number],
                     row_hi: Sequence[Number], tag: str) -> None:
        """Store checked rows, row r with ``lengths[r]`` entries, as
        ``add_rows`` takes them: the one writer of the row buffers."""
        base = len(self._indices)
        if base + len(indices) > _INDEX_MAX:
            raise OverflowError("the matrix would hold more entries than a C int counts")
        self._indptr.fromlist(list(accumulate(lengths, initial=base))[1:])
        for buffer, data in ((self._indices, indices), (self._values, values),
                             (self._row_lo, row_lo), (self._row_hi, row_hi)):
            # fromlist converts a list faster than extend does
            (buffer.fromlist if isinstance(data, list) else buffer.extend)(data)
        self._row_tag.extend(array("i", [self._tag_ids.setdefault(tag, len(self._tag_ids))])
                             * len(lengths))
        self._arrays = None

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

    def kind_codes(self) -> np.ndarray:
        """Each column's kind (``BINARY``, ``INTEGER`` or ``CONTINUOUS``) as
        its index into ``KINDS``, an int8 array in column order."""
        return np.array(self._kind, dtype=np.int8)

    # -- Boolean gadgets ------------------------------------------------------

    def bool_gadgets(self, op: Union[str, Sequence[str]], inputs: Sequence[Sequence[VarId]],
                     names: Optional[Sequence[Optional[str]]] = None,
                     tag: str = "gadget") -> list[VarId]:
        """One fresh binary per gadget, constrained to equal op(inputs[g]) in
        every feasible point:

        AND:  z <= x for each input x,  z >= 1 - I + sum of the I inputs
        OR:   z >= x for each input x,  z <= sum of the inputs
        NOT:  z = 1 - x (single input)

        Every gadget takes the same number I >= 1 of inputs, and a
        repeated input is one term of the sum row.  ``op`` is every
        gadget's operator, or one "AND" or "OR" per gadget.  Gadget g's
        binary gets id ``n_vars + g``, and an input may be an earlier
        gadget of the same call, so a caller can chain gadgets through
        those ids.  A name that is None becomes ``and_<id>``, ``or_<id>``
        or ``not_<input>``.  Once every gadget is checked, the columns and
        then the rows, gadget by gadget, are stored as one block, however
        many gadgets there are."""
        first, n_gates = len(self.names), len(inputs)
        ops = [op] * n_gates if isinstance(op, str) else op
        names = [None] * n_gates if names is None else names
        if not len(ops) == len(names) == n_gates:
            raise ValueError("gadgets need one operator and one name each")
        if not n_gates:
            return []
        width = len(inputs[0])
        if width == 0 or any(len(xs) != width for xs in inputs):
            raise ValueError("a gadget needs at least one input, and every gadget "
                             "of a call as many as the others")
        if op == "NOT" and width != 1:
            raise ValueError("NOT takes exactly one input")
        if op != "NOT" and not set(ops) <= {"AND", "OR"}:
            raise ValueError(f"unknown gadget {next(o for o in ops if o not in ('AND', 'OR'))!r}")
        flat = [v for xs in inputs for v in xs]
        if flat and (min(flat) < 0 or max(flat) >= first):  # chained, or not a column
            for z, xs in zip(count(first), inputs):
                for v in xs:
                    if not 0 <= v < z:
                        raise ValueError(f"gadget input references unregistered variable {v}")
        kind, binary = self._kind, KINDS.index(BINARY)
        other = [v for v in flat if v < first and kind[v] != binary]
        if other:
            raise ValueError(f"gadget inputs must be binary, got {KINDS[kind[other[0]]]}")
        gates, columns = range(first, first + n_gates), list(zip(*inputs))
        if op == "NOT":
            labels = [name or f"not_{x}" for name, x in zip(names, columns[0])]
            lengths, values = [2] * n_gates, [1.0] * (2 * n_gates)
            row_lo = row_hi = [1.0] * n_gates
            indices = [0] * (2 * n_gates)
            indices[0::2], indices[1::2] = gates, columns[0]
        else:
            labels = [name or f"{o.lower()}_{z}" for name, o, z in zip(names, ops, gates)]
            # per gadget: (z, x_1), .., (z, x_I), then (z, x_1, .., x_I)
            stride = 3 * width + 1
            indices = [0] * (stride * n_gates)
            indices[2 * width::stride] = gates
            for p, column in enumerate(columns):
                indices[2 * p::stride] = gates
                indices[2 * p + 1::stride] = column
                indices[2 * width + 1 + p::stride] = column
            lengths = ([2] * width + [width + 1]) * n_gates
            values = ([1.0, -1.0] * width + [1.0] + [-1.0] * width) * n_gates
            # a repeated input keeps a pair row each time but is one term of the sum row
            for g in reversed([g for g, xs in enumerate(inputs) if len(set(xs)) < width]):
                terms = {first + g: 1.0}
                for x in inputs[g]:
                    terms[x] = terms.get(x, 0.0) - 1.0
                at = stride * g + 2 * width
                indices[at:at + width + 1] = terms
                values[at:at + width + 1] = terms.values()
                lengths[(width + 1) * g + width] = len(terms)
            if isinstance(op, str):
                row_lo, row_hi = (side * n_gates for side in _gadget_bounds(op, width))
            else:
                bounds = {o: _gadget_bounds(o, width) for o in ("AND", "OR")}
                row_lo, row_hi = ([b for o in ops for b in bounds[o][side]] for side in (0, 1))
        self.add_binaries(labels, tag)
        self._append_rows(lengths, indices, values, row_lo, row_hi, tag)
        return list(gates)

    # -- inspection ---------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_constraints(self) -> int:
        return len(self._row_lo)

    def metadata(self) -> dict:
        def by_tag(tag_ids: array) -> dict[str, int]:
            counts = np.bincount(np.array(tag_ids, dtype=np.intp), minlength=len(self._tag_ids))
            return {tag: n for tag, n in sorted(zip(self._tag_ids, counts.tolist())) if n}

        return {
            "variables": by_tag(self._col_tag),
            "constraints": by_tag(self._row_tag),
            "total_variables": self.n_vars,
            "total_constraints": self.n_constraints,
        }

    def to_arrays(self) -> ModelArrays:
        """The constraint matrix (CSR, one row per constraint in order) with
        row bounds, variable bounds and integrality, as HiGHS takes them:
        copies of the buffers.

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
                np.array(self._lb, dtype=float), np.array(self._ub, dtype=float),
                (np.array(self._kind) != 0).astype(np.int64))
            for a in (*matrix[:3], *arrays[1:]):
                a.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def check_point(self, values: Union[Mapping[VarId, Number], np.ndarray],
                    tol: float = 1e-6) -> list[str]:
        """Constraint violations at a point; empty list means it satisfies
        all.  The point maps columns to values, a column it does not list
        being 0, or is a NumPy array of every column's value.  A violated
        row is named by its index and tag."""
        arrays = self.to_arrays()
        dense = isinstance(values, np.ndarray)
        x = values if dense else np.array([values.get(v, 0) for v in range(self.n_vars)],
                                          dtype=float)
        # Negated comparisons, so a NaN anywhere counts as a violation, and
        # the NaN that an infinite value gives (inf - inf) warns of nothing.
        with np.errstate(invalid="ignore"):
            bad_int = (arrays.integrality == 1) & ~(np.abs(x - np.round(x)) <= tol)
            bad_bound = ~((x >= arrays.lb - tol) & (x <= arrays.ub + tol))
            lhs = arrays.matrix.dot(x)
            bad_row = ~((lhs >= arrays.row_lo - tol) & (lhs <= arrays.row_hi + tol))
        problems = []
        for v in np.flatnonzero(bad_int | bad_bound).tolist():
            name, value = self.names[v], x[v].item() if dense else values.get(v, 0)
            if bad_int[v]:
                problems.append(f"variable {name} = {value} is not integral")
            if bad_bound[v]:
                problems.append(
                    f"variable {name} = {value} outside [{self._lb[v]}, {self._ub[v]}]")
        for idx in np.flatnonzero(bad_row).tolist():
            problems.append(f"constraint {idx} [{self._tag(idx)}] violated: "
                            f"{lhs[idx].item()} {self._sense(idx)} {self._rhs(idx)}")
        return problems


class RowBlock:
    """Binaries (``binary``) and rows gathered in Python lists for one
    ``IlpModel.add_binaries`` and one ``IlpModel.add_rows`` call
    (``store``).  The dynamics rows and loop ties of ``encoder_sync``, the
    most numerous, append to the lists without ``add`` where no shared
    constant is among their columns."""

    def __init__(self, model: IlpModel):
        self.model = model
        self.names: list[str] = []  # the block's binaries, ids from model.n_vars on
        self.lengths: list[int] = []
        self.indices: list[VarId] = []
        self.values: list[float] = []
        self.row_lo: list[float] = []
        self.row_hi: list[float] = []

    def binary(self, name: str) -> VarId:
        """The id of the block's next binary, which ``store`` adds."""
        self.names.append(name)
        return self.model.n_vars + len(self.names) - 1

    def add(self, cols: list[VarId], coefs: list[float], lo: float, hi: float) -> None:
        """The row, its shared constants folded as ``IlpModel.fold_row``
        folds them; a row over binaries alone is stored as given, since the
        emitters add none that always holds."""
        if not self.model.constant_ids.isdisjoint(cols):
            row = self.model.fold_row(cols, coefs, lo, hi)
            if row is None:
                return
            cols, coefs, lo, hi = row
        self.lengths.append(len(cols))
        self.indices += cols
        self.values += coefs
        self.row_lo.append(lo)
        self.row_hi.append(hi)

    def indicator(self, cols: list[VarId], coefs: list[Number], const: Number,
                  one: tuple[Number, Number], zero: tuple[Number, Number], big_m: Number,
                  name: str) -> VarId:
        """A fresh binary y of the block (``binary``) that puts
        e = coefs . x[cols] + const in ``one`` when 1 and in ``zero`` when
        0, each interval open on one side: a count [m, inf) / (-inf, m - 1],
        a face (-inf, h_i - margin] / [h_i + margin, inf).  Two rows, "<="
        first, y with +M where ``one`` bounds e above, else with -M:

            e + M y <= one_hi + M  and  e + M y >= zero_lo
            e - M y <= zero_hi     and  e - M y >= one_lo - M

        M must cover e's reach past the other side's bound.  The shared
        constants among ``cols`` move into the constant."""
        y = self.binary(name)
        if not self.model.constant_ids.isdisjoint(cols):
            value = self.model.constant_value
            const += sum(a * value(c) for c, a in zip(cols, coefs) if value(c) is not None)
            coefs = [a for c, a in zip(cols, coefs) if value(c) is None]
            cols = [c for c in cols if value(c) is None]
        if one[1] < _INF:  # one bounds e above
            sign, hi, lo = big_m, one[1] + big_m, zero[0]
        else:
            sign, hi, lo = -big_m, zero[1], one[0] - big_m
        row = [*cols, y]
        self.lengths += (len(row), len(row))
        self.indices += row * 2
        self.values += [*coefs, sign] * 2
        self.row_lo += (-_INF, lo - const)
        self.row_hi += (hi - const, _INF)
        return y

    def store(self, tag: str) -> None:
        """Add the block's binaries, then its rows; the block starts
        afresh."""
        model = self.model
        if self.names:
            model.add_binaries(self.names, tag)
        if self.lengths:
            model.add_rows([0, *accumulate(self.lengths)], self.indices,
                           self.values, self.row_lo, self.row_hi, tag)
        for gathered in (self.names, self.lengths, self.indices, self.values, self.row_lo,
                         self.row_hi):
            gathered.clear()


def _finite(x: Number) -> bool:
    return x == x and x not in (float("inf"), float("-inf"))
