"""Activity-based bound propagation over a model's arrays, to its fixpoint:
the reference the folded programs are checked against.

Each round computes every row's least and greatest activity over the
current column bounds and, from each side of each row, the bound it puts
on each of its columns, as in the propagation round of a MIP presolve
(Achterberg et al., "Presolve reductions in mixed integer programming",
INFORMS J. Comput. 2020).  Integer and binary bounds round inward.  A
continuous bound counts as changed only when it moves by more than
``MIN_STEP`` of its column's width, so the rounds end.  This is slow,
whole-model NumPy work, written for tests only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TOL = 1e-7
MIN_STEP = 1e-3
MAX_ROUNDS = 500


class Propagated(NamedTuple):
    lb: np.ndarray
    ub: np.ndarray
    infeasible: bool
    row_min: np.ndarray  # least activity of each row over the final bounds
    row_max: np.ndarray


def _activities(arrays, rows, lb, ub):
    data, cols = arrays.matrix.data, arrays.matrix.indices
    low = np.where(data > 0, data * lb[cols], data * ub[cols])
    high = np.where(data > 0, data * ub[cols], data * lb[cols])
    n = arrays.row_lo.size
    return (low, high, np.bincount(rows, low, minlength=n), np.bincount(rows, high, minlength=n))


def propagate(arrays) -> Propagated:
    """The bounds propagation settles at, starting from the model's own."""
    matrix = arrays.matrix
    rows = np.repeat(np.arange(arrays.row_lo.size), np.diff(matrix.indptr))
    cols, data = matrix.indices, matrix.data
    integral = arrays.integrality == 1
    width = np.maximum(arrays.ub - arrays.lb, 1.0)
    lb, ub = arrays.lb.astype(float).copy(), arrays.ub.astype(float).copy()
    for _ in range(MAX_ROUNDS):
        low, high, row_min, row_max = _activities(arrays, rows, lb, ub)
        new_lb, new_ub = lb.copy(), ub.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            # data * x <= row_hi - (row_min - low), and >= row_lo - (row_max - high)
            upper = (arrays.row_hi[rows] - (row_min[rows] - low)) / data
            lower = (arrays.row_lo[rows] - (row_max[rows] - high)) / data
        pos = data > 0
        for bound, side in ((upper, pos), (lower, ~pos)):  # caps from above
            keep = side & np.isfinite(bound)
            np.minimum.at(new_ub, cols[keep], bound[keep])
        for bound, side in ((lower, pos), (upper, ~pos)):  # caps from below
            keep = side & np.isfinite(bound)
            np.maximum.at(new_lb, cols[keep], bound[keep])
        new_lb[integral] = np.ceil(new_lb[integral] - TOL)
        new_ub[integral] = np.floor(new_ub[integral] + TOL)
        if (new_lb > new_ub + TOL).any():
            return Propagated(new_lb, new_ub, True, row_min, row_max)
        step = np.maximum(new_lb - lb, ub - new_ub)
        moved = np.where(integral, step > TOL, step > MIN_STEP * width)
        lb, ub = np.maximum(lb, new_lb), np.minimum(ub, new_ub)
        if not moved.any():
            break
    low, high, row_min, row_max = _activities(arrays, rows, lb, ub)
    infeasible = bool(((row_max < arrays.row_lo - TOL) | (row_min > arrays.row_hi + TOL)).any())
    return Propagated(lb, ub, infeasible, row_min, row_max)


def fold_leftovers(model) -> tuple[list[str], list[int]]:
    """What propagation over ``model`` would still fold: the names of the
    columns it fixes that are not the model's shared constants, and the
    rows that then hold at every point of the bounds, other than rows over
    the constants alone.  Both are empty for a program at the fixpoint.
    When propagation proves the program infeasible, the columns are
    ``["<infeasible>"]`` and the rows empty."""
    arrays = model.to_arrays()
    result = propagate(arrays)
    if result.infeasible:
        return ["<infeasible>"], []
    constants = set(model.constant_ids)
    fixed = np.flatnonzero(result.ub - result.lb <= TOL * np.maximum(1.0, np.abs(result.ub)))
    columns = [model.names[c] for c in fixed.tolist() if c not in constants]
    holds = (result.row_min >= arrays.row_lo - TOL) & (result.row_max <= arrays.row_hi + TOL)
    ptr, cols = arrays.matrix.indptr, arrays.matrix.indices
    rows = [r for r in np.flatnonzero(holds).tolist()
            if not set(cols[ptr[r]:ptr[r + 1]].tolist()) <= constants]
    return columns, rows
