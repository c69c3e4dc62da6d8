"""The logic layer of a program as Boolean signals, settled before any of
them becomes a column.

The paper pins a formula true at step 0 of one integer program, and much
of that program is then decided before any search: the root pin, the
constants and the start states force a value on many (subformula,
robot, step) entries in every feasible point.  Those entries are the
bound-propagation fixpoint of the program's rows (Achterberg et al.,
"Presolve reductions in mixed integer programming", INFORMS J. Comput.
2020).  A ``Circuit`` finds them before the rows exist:

- The logic encoders build signals instead of columns: AND, OR and NOT
  gadgets, counting thresholds (``GEQ``), the robust tail's reads of a
  row at the chosen loop start (``SELECT``) and leaves, whose values the
  engine supplies (atoms, polytope faces, occupancy thresholds, loop
  selectors).  Signal 0 is the constant 0 and signal 1 the constant 1,
  and ``gates`` folds the inputs decided when a gadget is made.
- ``assign`` sets a value, and ``propagate`` carries every value to its
  consequences through the gadget algebra, both ways, as propagation over
  the gadgets' rows would: an AND at 1 pins its inputs to 1, an OR with a
  1 input is 1, a count whose threshold only the undecided members can
  still reach pins them to 1, one loop selector at 1 pins the others to
  0, and so on.  A contradiction sets ``conflict``; the program is then
  infeasible.
- ``lower`` turns the undecided signals into columns and rows, block by
  block in creation order, through ``IlpModel.bool_gadgets`` and
  ``IlpModel.indicators_geq``, over the undecided inputs alone.  A
  decided signal becomes the model's shared constant; where its inputs
  do not already force its value, the one residual row that does is
  stored (an OR pinned to 1 over undecided inputs keeps their sum >= 1).
  This module is the one place the fold rules live: the builders store
  what they are given.

The engine's own layer may decide leaves and read leaf values in turn;
``encoder_sync.LogicEncoder`` runs that exchange to its fixpoint.  The
discrete engines narrow bit-mask state sets (``encoder_sync.StateSets``).
The aggregate and continuous engines share one layer, ``IntervalLeaves``:
their numeric variables are ``Intervals`` until then, bounds propagated
over their rows, and each leaf tests a linear expression of them against
one interval per value.  ``Intervals`` is also the one store of their
program rows: a row added with a tag is written to the model once, in
order (``Intervals.store``), and a row added without one only propagates.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .ilp import LinExpr, RowBlock

LEAF, AND, OR, NOT, GEQ, SELECT, ONE_OF = range(7)
ZERO, ONE = 0, 1  # the constant signals
_OPS = {"AND": AND, "OR": OR, "NOT": NOT}

Signal = int


class Circuit:
    """Signals, their values (None while undecided) and the lowering
    blocks that will make them columns."""

    def __init__(self, model):
        self.model = model
        self.op: list[int] = [LEAF, LEAF]
        self.args: list[tuple] = [(), ()]
        self.val: list[Optional[int]] = [0, 1]
        self.users: list[list[Signal]] = [[], []]  # the constraints that read a signal
        self.threshold: dict[Signal, int] = {}  # GEQ signals
        self.blocks: list[tuple[Callable, range]] = []
        self.col: list[Optional[int]] = [None, None]  # column ids, once lowered
        self.conflict = False
        # the constants' users are checked once; any other signal when one of
        # its inputs or its own value is decided
        self._queue: list[Signal] = [ZERO, ONE]

    def _new(self, op: int, args: Sequence[tuple], lower: Optional[Callable]) -> range:
        first = len(self.op)
        ids = range(first, first + len(args))
        self.op += [op] * len(args)
        self.args += args
        self.val += [None] * len(args)
        self.col += [None] * len(args)
        self.users += [[] for _ in args]
        users = self.users
        for s, xs in zip(ids, args):
            for x in xs:
                users[x].append(s)
        if lower is not None:
            self.blocks.append((lower, ids))
        return ids

    # -- building ---------------------------------------------------------

    def leaves(self, count: int, lower: Optional[Callable] = None) -> list[Signal]:
        """``count`` leaves, undecided until the engine assigns them;
        ``lower(ids)`` sets their columns."""
        return list(self._new(LEAF, [()] * count, lower))

    def gates(self, op, inputs: Sequence[Sequence[Signal]],
              names: Optional[Sequence[Optional[str]]], tag: str) -> list[Signal]:
        """One AND, OR or NOT gadget per input list, returning the signal
        of each; an input ``~k`` reads gadget k of the same call.  Inputs
        already decided fold: a gadget they decide is the constant signal,
        inputs at the identity drop, a repeated input counts once, and a
        gadget left with one input is that input, so only a gadget over two
        or more undecided inputs (or a NOT of one) is a new signal."""
        if not inputs:
            return []
        ops = [_OPS[op]] * len(inputs) if isinstance(op, str) else [_OPS[o] for o in op]
        names = [None] * len(inputs) if names is None else names
        val, first = self.val, len(self.op)
        if all(val[x] is None for xs in inputs for x in xs if x >= 0) and \
                all(len(set(xs)) == len(xs) > 1 for xs in inputs) or ops[0] == NOT and \
                all(xs[0] >= 0 and val[xs[0]] is None for xs in inputs):
            # nothing folds: every gadget is a new signal, ~k is signal first + k
            ids = self._new(AND, [tuple(x if x >= 0 else first + ~x for x in xs)
                                  for xs in inputs], None)
            self.op[first:] = ops
            names = list(names)
            self.blocks.append((lambda signals: self._lower_gates(signals, names, tag), ids))
            return list(ids)
        out: list[Signal] = []
        kept_ops, kept_args, kept_names = [], [], []
        for o, xs, name in zip(ops, inputs, names):
            xs = [x if x >= 0 else out[~x] for x in xs]
            if o == NOT:
                if xs[0] < first and val[xs[0]] is not None:
                    out.append(1 - val[xs[0]])  # the constant signals are ZERO = 0 and ONE = 1
                    continue
                terms = (xs[0],)
            else:
                absorb, open_, decided = (0 if o == AND else 1), {}, None
                for x in xs:
                    v = val[x] if x < first else None  # a new gadget of this call is undecided
                    if v is None:
                        open_[x] = None
                    elif v == absorb:
                        decided = absorb
                        break
                if decided is None and len(open_) < 2:
                    decided = next(iter(open_)) if open_ else 1 - absorb
                if decided is not None:
                    out.append(decided)
                    continue
                terms = tuple(open_)
            out.append(first + len(kept_args))
            kept_ops.append(o)
            kept_args.append(terms)
            kept_names.append(name)
        if kept_args:
            ids = self._new(AND, kept_args, None)
            self.op[first:] = kept_ops
            self.blocks.append(
                (lambda signals: self._lower_gates(signals, kept_names, tag), ids))
        return out

    def at_least(self, counts: Sequence[Sequence[Signal]], m: int, size: int,
                 names: Sequence[str], tag: str) -> list[Signal]:
        """One threshold per count: 1 iff at least ``m`` of the count's
        signals are 1, each count over at most ``size`` signals."""
        ids = self._new(GEQ, [tuple(c) for c in counts], None)
        for s in ids:
            self.threshold[s] = m
        self.blocks.append((lambda signals: self._lower_geq(signals, m, size, names, tag), ids))
        return list(ids)

    def select(self, loop: Sequence[Signal], rows: Sequence[Sequence[Signal]],
               lower: Callable) -> list[Signal]:
        """Per entry k, a signal equal to ``rows[k][l]`` for the loop start
        l whose selector ``loop[l]`` is 1."""
        return list(self._new(SELECT, [(*loop, *row) for row in rows], lower))

    def one_of(self, signals: Sequence[Signal]) -> None:
        """Exactly one of ``signals`` is 1 (the loop selectors)."""
        self._queue += self._new(ONE_OF, [tuple(signals)], None)

    # -- propagation --------------------------------------------------------

    def assign(self, s: Signal, value: int) -> None:
        current = self.val[s]
        if current is None:
            self.val[s] = value
            self._queue.append(s)
        elif current != value:
            self.conflict = True

    def propagate(self) -> None:
        """Carry every queued value to its consequences until nothing
        changes or a contradiction is found."""
        queue, users, check = self._queue, self.users, self._check
        while queue and not self.conflict:
            s = queue.pop()
            check(s)
            for g in users[s]:
                check(g)
        queue.clear()

    def _check(self, g: Signal) -> None:
        op = self.op[g]
        if op == LEAF:
            return
        val, assign, args = self.val, self.assign, self.args[g]
        out = val[g]
        if op == NOT:
            x = args[0]
            if out is not None:
                assign(x, 1 - out)
            elif val[x] is not None:
                assign(g, 1 - val[x])
            return
        if op == AND or op == OR:
            absorb = 0 if op == AND else 1
            values = [val[x] for x in args]
            if out is None:
                if absorb in values:
                    assign(g, absorb)
                elif None not in values:
                    assign(g, 1 - absorb)
            elif out != absorb:  # AND at 1, OR at 0: every input agrees
                for x in args:
                    assign(x, out)
            elif absorb not in values:  # AND at 0, OR at 1: one input must absorb
                open_ = [x for x, v in zip(args, values) if v is None]
                if len(open_) == 1:
                    assign(open_[0], absorb)
                elif not open_:
                    self.conflict = True
            return
        if op == GEQ:
            m = self.threshold[g]
            values = [val[x] for x in args]
            ones, open_ = values.count(1), values.count(None)
            if out is None:
                if ones >= m:
                    assign(g, 1)
                elif ones + open_ < m:
                    assign(g, 0)
            elif (ones + open_ < m) if out else (ones >= m):
                self.conflict = True
            elif open_ and ((ones + open_ == m) if out else (ones == m - 1)):
                # held with no member to spare, or refuted with no room left
                for x, v in zip(args, values):
                    if v is None:
                        assign(x, out)
            return
        if op == ONE_OF:
            values = [val[x] for x in args]
            if 1 in values:
                for x in args:
                    if val[x] is None:
                        assign(x, 0)
                if values.count(1) > 1:
                    self.conflict = True
            else:
                open_ = [x for x, v in zip(args, values) if v is None]
                if len(open_) == 1:
                    assign(open_[0], 1)
                elif not open_:
                    self.conflict = True
            return
        # SELECT: args are the h loop selectors, then the h row entries
        h = len(args) // 2
        loop, row = args[:h], args[h:]
        possible = [l for l in range(h) if val[loop[l]] != 0]
        chosen = [l for l in possible if val[loop[l]] == 1]
        if out is None:
            seen = {val[row[l]] for l in possible}
            if len(seen) == 1 and None not in seen:
                assign(g, seen.pop())
            elif chosen and val[row[chosen[0]]] is not None:
                assign(g, val[row[chosen[0]]])
        else:
            for l in possible:
                if val[row[l]] is not None and val[row[l]] != out:
                    assign(loop[l], 0)
            if chosen:
                assign(row[chosen[0]], out)

    # -- lowering -----------------------------------------------------------

    def lower(self) -> None:
        """Columns and rows for every block, in creation order; afterwards
        ``column(s)`` is signal s's column id."""
        for lower, ids in self.blocks:
            lower(ids)

    def column(self, s: Signal) -> int:
        """Signal s's column id: its constant once decided."""
        value = self.val[s]
        if value is not None:
            return self.model.constant(value)
        return self.col[s]

    def _implied(self, s: Signal) -> bool:
        """Whether the decided values of s's inputs force its own."""
        val, op, args = self.val, self.op[s], self.args[s]
        out = val[s]
        if op == NOT:
            return val[args[0]] is not None
        if op == GEQ:
            values = [val[x] for x in args]
            ones = values.count(1)
            return ones >= self.threshold[s] if out else \
                ones + values.count(None) < self.threshold[s]
        absorb = 0 if op == AND else 1
        values = [val[x] for x in args]
        return absorb in values if out == absorb else None not in values

    def _lower_gates(self, signals: range, names: list, tag: str) -> None:
        """The block's gadgets.  An undecided gadget reads its undecided
        inputs only (a decided input is at the identity, or the gadget
        would be decided): over one distinct column it is that column, and
        otherwise a fresh gadget through ``IlpModel.bool_gadgets``, one
        call per run of fresh gadgets of one width (NOTs apart).  A decided
        gadget its inputs do not force keeps the one row that does: an AND
        at 0 whose undecided inputs sum to at most their number less one,
        an OR at 1 whose undecided inputs sum to at least 1."""
        model, val, col, args, opcode = self.model, self.val, self.col, self.args, self.op
        first, base = signals.start, model.n_vars
        fresh: list[Signal] = []
        inputs: dict[Signal, list[int]] = {}
        residual = RowBlock(model)
        for s in signals:
            if val[s] is None:
                cols = list(dict.fromkeys([col[x] for x in args[s] if val[x] is None]))
                if len(cols) == 1 and opcode[s] != NOT:
                    col[s] = cols[0]
                    continue
                col[s] = base + len(fresh)  # the ids the calls below give
                fresh.append(s)
                inputs[s] = cols
            elif not self._implied(s):
                cols = list(dict.fromkeys([col[x] for x in args[s] if val[x] is None]))
                residual.add(cols, [1.0] * len(cols), -math.inf if opcode[s] == AND else 1.0,
                             len(cols) - 1.0 if opcode[s] == AND else math.inf)
        k = 0
        while k < len(fresh):
            width, negate = len(inputs[fresh[k]]), opcode[fresh[k]] == NOT
            end = k + 1
            while end < len(fresh) and len(inputs[fresh[end]]) == width and \
                    (opcode[fresh[end]] == NOT) == negate:
                end += 1
            run = fresh[k:end]
            model.bool_gadgets("NOT" if negate else ["AND" if opcode[s] == AND else "OR"
                                                      for s in run],
                               [inputs[s] for s in run], [names[s - first] for s in run], tag)
            k = end
        residual.store(tag, [])

    def _lower_geq(self, signals: range, m: int, size: int, names: Sequence[str],
                   tag: str) -> None:
        """The block's thresholds: an undecided one an indicator over its
        undecided members, the ones already 1 in its constant term, through
        ``IlpModel.indicators_geq``; a decided one its members do not force
        keeps the one row that does (its undecided members sum to at least
        m less the ones, or to at most m - 1 less them)."""
        val, col, first = self.val, self.col, signals.start
        exprs, kept, residual = [], [], RowBlock(self.model)
        for s in signals:
            members = self.args[s]
            values = [val[x] for x in members]
            ones = values.count(1)
            cols = [col[x] for x, v in zip(members, values) if v is None]
            if val[s] is None:
                exprs.append(LinExpr.sum_of(cols) + ones)
                kept.append(s)
            elif not self._implied(s):
                residual.add(cols, [1.0] * len(cols), m - ones if val[s] else -math.inf,
                             math.inf if val[s] else m - 1 - ones)
        out = self.model.indicators_geq(exprs, m, size + 1, [names[s - first] for s in kept],
                                        tag=tag, known_bounds=(0, size))
        for s, c in zip(kept, out):
            col[s] = c
        residual.store(tag, [])


class Intervals:
    """Bounds on an engine's numeric variables (the aggregate engine's
    occupancies and flows, the continuous engine's inputs) before they are
    columns, and linear rows over them, propagated to their fixpoint: each
    row's least and greatest activity bound each of its variables, integer
    bounds round inward, and a variable whose bounds meet is decided.  A
    continuous bound counts as moved when it moves by more than ``STEP`` of
    its width, so propagation ends."""

    TOL = 1e-9
    STEP = 1e-6

    def __init__(self):
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.integral: list[bool] = []
        # per row: its variables, coefficients, bounds and program tag (None
        # for a row that only propagates)
        self.rows: list[tuple[list[int], list[float], float, float, Optional[str]]] = []
        self.uses: list[list[int]] = []  # the rows each variable is in
        self._width: list[float] = []
        self._dirty: set[int] = set()
        self._empty = False
        self._stored = 0  # the rows ``store`` has passed

    def var(self, lo: float, hi: float, integral: bool) -> int:
        self.lo.append(lo)
        self.hi.append(hi)
        self.integral.append(integral)
        self.uses.append([])
        self._width.append(max(hi - lo, 1.0))
        return len(self.lo) - 1

    def add(self, cols: Sequence[int], coefs: Sequence[float], lo: float, hi: float,
            tag: Optional[str] = None) -> None:
        """The row ``lo <= coefs . x[cols] <= hi``, each variable once; the
        program keeps it (``store``) if it has a ``tag``."""
        r = len(self.rows)
        self.rows.append((list(cols), list(coefs), lo, hi, tag))
        for c in cols:
            self.uses[c].append(r)
        self._dirty.add(r)

    def store(self, model, columns: dict[int, int]) -> None:
        """Write the tagged rows not written yet, in order, through
        ``IlpModel.add_folded`` over ``columns`` (each variable's column or
        the shared constant of its value), up to the first row with a
        variable that has no column yet."""
        for r in range(self._stored, len(self.rows)):
            cols, coefs, lo, hi, tag = self.rows[r]
            if tag is not None:
                try:
                    expr = _column_expr(columns, cols, coefs)
                except KeyError:  # a variable that is not a column yet
                    return
                model.add_folded(expr, lo, hi, tag)
            self._stored = r + 1

    def bound(self, v: int, lo: float, hi: float) -> None:
        """Narrow variable v to [lo, hi]; an empty range makes the next
        ``propagate`` fail."""
        if lo > self.lo[v] or hi < self.hi[v]:
            self.lo[v], self.hi[v] = max(self.lo[v], lo), min(self.hi[v], hi)
            self._dirty.update(self.uses[v])
            if self.lo[v] > self.hi[v] + self.TOL:
                self._empty = True

    def range(self, cols: Sequence[int], coefs: Sequence[float]) -> tuple[float, float]:
        low = high = 0.0
        for c, a in zip(cols, coefs):
            if a > 0:
                low, high = low + a * self.lo[c], high + a * self.hi[c]
            else:
                low, high = low + a * self.hi[c], high + a * self.lo[c]
        return low, high

    def fixed(self, v: int) -> bool:
        return self.hi[v] - self.lo[v] <= self.TOL * max(1.0, abs(self.hi[v]))

    def propagate(self) -> bool:
        """Narrow the bounds to the fixpoint of the rows; False when a row
        can no longer hold."""
        lo, hi, integral, width, tol = self.lo, self.hi, self.integral, self._width, self.TOL
        dirty = self._dirty
        if self._empty:
            return False
        while dirty:
            cols, coefs, row_lo, row_hi, _ = self.rows[dirty.pop()]
            low, high = self.range(cols, coefs)
            if low > row_hi + 1e-7 or high < row_lo - 1e-7:
                return False
            for c, a in zip(cols, coefs):
                # a x_c between row_lo - (high - a's high part) and row_hi - (low - its low part)
                own_low, own_high = (a * lo[c], a * hi[c]) if a > 0 else (a * hi[c], a * lo[c])
                top = (row_hi - (low - own_low)) / a if row_hi < math.inf else math.copysign(
                    math.inf, a)
                bottom = (row_lo - (high - own_high)) / a if row_lo > -math.inf else \
                    -math.copysign(math.inf, a)
                new_lo, new_hi = (bottom, top) if a > 0 else (top, bottom)
                if integral[c]:
                    if new_lo > -math.inf:
                        new_lo = math.ceil(new_lo - 1e-7)
                    if new_hi < math.inf:
                        new_hi = math.floor(new_hi + 1e-7)
                step = 0.5 if integral[c] else self.STEP * width[c]  # integers move by units
                if new_lo > lo[c] + step or new_hi < hi[c] - step:
                    lo[c], hi[c] = max(lo[c], new_lo), min(hi[c], new_hi)
                    if lo[c] > hi[c] + tol:
                        return False
                    dirty.update(self.uses[c])
        return True


def _column_expr(columns, cols: Sequence[int], coefs: Sequence[float],
                 const: float = 0) -> LinExpr:
    """``const + coefs . x[cols]`` over the variables' ``columns``."""
    expr = LinExpr(const=const)
    for c, a in zip(cols, coefs):
        expr.add_term(columns[c], a)
    return expr


class IntervalLeaves:
    """Circuit leaves over an engine's ``Intervals`` variables: the layer
    the aggregate and continuous engines share.

    A leaf says: signal s puts e = coefs . x + const in ``one`` when 1 and
    in ``zero`` when 0 (a counting threshold [m, inf) / (-inf, m - 1], a
    polytope face (-inf, h_i - margin] / [h_i + margin, inf)).  The loop
    selectors are 0/1 variables with their tagged one-of row.  ``refine``
    adds the untagged row of each newly decided leaf, fixes the decided
    selectors, propagates, and decides the leaves whose range misses a
    side and the selectors the bounds fix.  A subclass adds its variables
    and tagged rows; ``make_column`` and ``store`` write them to the
    model, and ``side`` the row a decided leaf forces at lowering."""

    def __init__(self, layout):
        self.layout = layout
        self.intervals = Intervals()
        self.loop: list[int] = []
        self.column: dict[int, int] = {}
        self._leaves: dict[Signal, tuple[LinExpr, tuple, tuple]] = {}
        self._sent: set[Signal] = set()

    def loop_selectors(self) -> None:
        """The loop selectors, exactly one of them 1."""
        self.loop = [self.intervals.var(0, 1, True) for _ in range(self.layout.h)]
        self.intervals.add(self.loop, [1] * len(self.loop), 1, 1, "loop")

    def add(self, expr: LinExpr, lo: float, hi: float, tag: Optional[str] = None) -> None:
        """The row ``lo <= expr <= hi`` over the variables."""
        self.intervals.add(list(expr.coeffs), list(expr.coeffs.values()),
                           lo - expr.const, hi - expr.const, tag)

    def leaf(self, s: Signal, expr: LinExpr, one: tuple, zero: tuple) -> None:
        """Tie circuit leaf s to ``expr``: in ``one`` when s is 1, in
        ``zero`` when it is 0."""
        self._leaves[s] = (expr, one, zero)
        self._decide(s)

    def _decide(self, s: Signal) -> bool:
        """Decide leaf s where its range misses ``zero`` (1) or ``one``
        (0; both is a conflict); True if s is newly decided."""
        circuit = self.layout.circuit
        if circuit.val[s] is not None:
            return False
        expr, one, zero = self._leaves[s]
        low, high = self.intervals.range(list(expr.coeffs), list(expr.coeffs.values()))
        low, high = low + expr.const, high + expr.const
        if high < zero[0] or low > zero[1]:
            circuit.assign(s, 1)
        if high < one[0] or low > one[1]:
            circuit.assign(s, 0)
        return circuit.val[s] is not None

    def refine(self) -> bool:
        """True if a signal was assigned; False also when no point is left,
        which marks the circuit in conflict."""
        lay, iv = self.layout, self.intervals
        circuit, val = lay.circuit, lay.circuit.val
        for s, (expr, one, zero) in self._leaves.items():
            if val[s] is not None and s not in self._sent:
                self._sent.add(s)
                self.add(expr, *(one if val[s] else zero))
        for z, s in zip(self.loop, lay.loop_signals):
            if val[s] is not None:
                iv.bound(z, val[s], val[s])
        if not iv.propagate():
            circuit.conflict = True
            return False
        assigned = False
        for s in self._leaves:
            assigned |= self._decide(s)
        for z, s in zip(self.loop, lay.loop_signals):
            if val[s] is None and iv.fixed(z):
                circuit.assign(s, int(iv.lo[z]))
                assigned = True
        return assigned

    def make_column(self, v: int, name: str, tag: str) -> int:
        """Variable v's column within its narrowed bounds, or the shared
        constant of its value once they meet."""
        iv, model = self.intervals, self.layout.model
        lo, hi = iv.lo[v], iv.hi[v]
        if iv.fixed(v):
            self.column[v] = model.constant(int(round(lo)) if iv.integral[v] else lo)
        elif iv.integral[v]:
            self.column[v] = model.add_integer(name, int(lo), int(hi), tag=tag)
        else:
            self.column[v] = model.add_continuous(name, lo, hi, tag=tag)
        return self.column[v]

    def columns(self, expr: LinExpr) -> LinExpr:
        """``expr`` over the variables' columns."""
        return _column_expr(self.column, list(expr.coeffs), list(expr.coeffs.values()),
                            expr.const)

    def store(self) -> None:
        """Write the tagged rows whose variables are columns by now."""
        lay = self.layout
        self.column.update(zip(self.loop, lay.loop_vars))
        self.intervals.store(lay.model, self.column)

    def side(self, s: Signal, tag: str) -> None:
        """At lowering, the row decided leaf s forces over the columns."""
        expr, one, zero = self._leaves[s]
        lo, hi = one if self.layout.circuit.val[s] else zero
        self.layout.model.add_folded(self.columns(expr), lo, hi, tag)
