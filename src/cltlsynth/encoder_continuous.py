"""Mixed-integer encoding for affine continuous-state robots.

States are never decision variables: each w[n][t] is the affine image of
the inputs by forward substitution, so only inputs, loop selectors and the
logic binaries remain.  Atomic propositions are convex polytopes; a
binary per polytope face plus a conjunction gadget tests membership with
a margin (``MARGIN``) on both sides of each face; a state no input moves
is known, and its faces are decided exactly.  These atoms are the
only leaves that differ from the discrete engines: the logic rows come
from the shared ``LogicEncoder``, or ``RobustLogicEncoder`` for tau >= 1.

A face whose range over the input bounds lies on one side is decided
before the logic settles (at t = 0 every face is), and a row whose range
over the bounds always holds (a box row the inputs cannot leave, a loop
tie whose start is decided 0) is not stored.
"""

from __future__ import annotations

import numpy as np

from .circuit import Intervals, Signal
from .formula import OuterFormula
from .highs import FEAS_TOL
from .ilp import IlpModel, LinExpr, Solution
from .system import ContinuousSystem
from .encoder_sync import (EncodedProblem, EncodingError, ExtractionError,
                           Layout, LogicEncoder, add_loop_selectors, chosen_loop,
                           prepare_formula)
from .encoder_robust import RobustLogicEncoder
from .trajectory import ContinuousTrajectory

# A state the program chooses meets a face when H_i w <= h_i - MARGIN and
# misses it when H_i w >= h_i + MARGIN; the band between belongs to
# neither.  The margin is ten times the tolerance a returned point is
# rechecked at, so every point the program admits is inside or outside
# each face by more than that tolerance, and ``membership_trace``, which
# cuts at h_i itself, agrees.  A state no input moves (every start state
# is one) is known exactly: it meets a face when H_i w <= h_i + CUT, as
# ``membership_trace`` reads it, on the face or not.
MARGIN = 10 * FEAS_TOL
CUT = 1e-9


class ContinuousPlan:
    """The continuous engine's program before its inputs are columns.

    Each input, and each state of the robust tail h+1 .. h+tau, is an
    ``Intervals`` variable within its declared bounds; the other states
    are affine expressions over them (forward substitution).  The rows
    over them are the box rows keeping every state inside its bounds and
    the big-M ties of ``encode_cont_loop`` over binaries for the loop
    selectors.  Each polytope face a state meets or misses is a circuit
    leaf (``row``), true iff H_i w <= h_i - ``margin`` and false iff
    H_i w >= h_i + ``margin``, or, for a state no input moves, decided at
    once by H_i w <= h_i + ``CUT``; an atom is the conjunction of its
    faces.

    ``refine`` adds the row each decided face forces, narrows the bounds
    to the fixpoint of all rows, and decides the faces and loop selectors
    the bounds settle; ``emit`` makes each input a column with its
    narrowed bounds, or the shared constant of its value, and stores the
    box rows the bounds do not already meet."""

    def __init__(self, layout: Layout, margin: float = MARGIN):
        sys, h, tau = layout.instance, layout.h, layout.tau
        self.layout, self.margin = layout, margin
        iv = self.intervals = Intervals()
        lo_w, hi_w = sys.state_bounds
        lo_u, hi_u = sys.input_bounds
        self.inputs: dict[tuple[int, int], list[int]] = {}
        self.states: dict[tuple[int, int], list[LinExpr]] = {}
        self.boxes: list[tuple[LinExpr, float, float]] = []
        for n in range(sys.n_robots):
            f, g, c = sys.dynamics[n]
            state = [LinExpr(const=float(x)) for x in sys.init[n]]
            self.states[(n, 0)] = state
            for t in range(h):
                u_row = [iv.var(float(lo_u[k]), float(hi_u[k]), False) for k in range(sys.d_u)]
                self.inputs[(n, t)] = u_row
                nxt = []
                for i in range(sys.d_w):
                    expr = LinExpr(const=float(c[i]))
                    for j in range(sys.d_w):
                        if f[i, j]:
                            expr = expr + state[j] * float(f[i, j])
                    for k in range(sys.d_u):
                        if g[i, k]:
                            expr.add_term(u_row[k], float(g[i, k]))
                    nxt.append(expr)
                self.states[(n, t + 1)] = state = nxt
                for i, expr in enumerate(nxt):
                    if not expr.coeffs:
                        # Constant trajectory dimension: check the box once.
                        if not (lo_w[i] - 1e-9 <= expr.const <= hi_w[i] + 1e-9):
                            raise EncodingError(
                                f"robot {n} dimension {i} leaves its bounds at step {t + 1}")
                        continue
                    self.boxes.append((expr, float(lo_w[i]), float(hi_w[i])))
                    self._add(expr, float(lo_w[i]), float(hi_w[i]))
            for t in range(h + 1, h + tau + 1):
                # post-loop states for robust windows: variables tied to the loop
                self.states[(n, t)] = [LinExpr({iv.var(float(lo_w[i]), float(hi_w[i]), False): 1})
                                       for i in range(sys.d_w)]
        self.loop = [iv.var(0, 1, True) for _ in range(h)]
        iv.add(self.loop, [1] * h, 1, 1)
        for n in range(sys.n_robots):
            for t in range(h, h + tau + 1):
                for l, z in enumerate(self.loop):
                    for diff, m in _ties(layout, self.states, n, t, l):
                        self._add(diff + LinExpr({z: m}), -np.inf, m)
                        self._add(diff - LinExpr({z: m}), -m, np.inf)
        self.faces: list[tuple[Signal, LinExpr, float]] = []
        self._sent: set[Signal] = set()
        self.column: dict[int, int] = {}

    def _add(self, expr: LinExpr, lo: float, hi: float) -> None:
        self.intervals.add(list(expr.coeffs), list(expr.coeffs.values()),
                           lo - expr.const, hi - expr.const)

    def _range(self, expr: LinExpr) -> tuple[float, float]:
        low, high = self.intervals.range(list(expr.coeffs), list(expr.coeffs.values()))
        return low + expr.const, high + expr.const

    def row(self, name: str, n: int, size: int) -> list[Signal]:
        """Robot n's membership in polytope ``name`` at t = 0 .. size-1:
        per step, one leaf per face and their conjunction."""
        lay = self.layout
        circuit = lay.circuit
        hmat, hvec = lay.instance.atoms[name]
        k = hmat.shape[0]
        exprs = []
        for t in range(size):
            state = self.states[(n, t)]
            for i in range(k):
                expr = LinExpr()
                for j, coef in enumerate(hmat[i]):
                    if coef:
                        expr = expr + state[j] * float(coef)
                exprs.append(expr)
        faces = circuit.leaves(size * k, lambda ids: self._lower(name, n, ids, exprs))
        for s, expr, offset in zip(faces, exprs, np.tile(hvec, size).tolist()):
            self.faces.append((s, expr, offset))
            self._decide(s, expr, offset)
        return circuit.gates("AND", [faces[t * k:(t + 1) * k] for t in range(size)],
                             [f"z_{name}_{n}_{t}" for t in range(size)], "polytope")

    def _decide(self, s: Signal, expr: LinExpr, offset: float) -> bool:
        """Decide face s where the state's range leaves it one side: 1 when
        it cannot reach offset + margin, 0 when it cannot reach offset -
        margin (both: a conflict).  A constant state is decided exactly,
        at offset + ``CUT``."""
        circuit = self.layout.circuit
        if circuit.val[s] is not None:
            return False
        if not expr.coeffs:
            circuit.assign(s, int(expr.const <= offset + CUT))
            return True
        low, high = self._range(expr)
        if high < offset + self.margin:
            circuit.assign(s, 1)
        if low > offset - self.margin:
            circuit.assign(s, 0)
        return circuit.val[s] is not None

    def refine(self) -> bool:
        """Add the rows of the decided faces and loop selectors, narrow the
        bounds, and decide what they settle; True if that assigned a
        signal (False also when no point is left, which marks the circuit
        in conflict)."""
        lay, iv = self.layout, self.intervals
        circuit = lay.circuit
        val = circuit.val
        for s, expr, offset in self.faces:
            if val[s] is not None and s not in self._sent and expr.coeffs:
                self._sent.add(s)
                if val[s]:
                    self._add(expr, -np.inf, offset - self.margin)
                else:
                    self._add(expr, offset + self.margin, np.inf)
        for z, v in zip(self.loop, (val[s] for s in lay.loop_signals)):
            if v is not None:
                iv.bound(z, v, v)
        if not iv.propagate():
            circuit.conflict = True
            return False
        assigned = False
        for s, expr, offset in self.faces:
            assigned |= self._decide(s, expr, offset)
        for z, s in zip(self.loop, lay.loop_signals):
            if val[s] is None and iv.fixed(z):
                circuit.assign(s, int(iv.lo[z]))
                assigned = True
        return assigned

    def columns(self, expr: LinExpr) -> LinExpr:
        """``expr`` over the variables' columns, once ``emit`` made them."""
        out = LinExpr(const=expr.const)
        for v, c in expr.coeffs.items():
            out.add_term(self.column[v], c)
        return out

    def emit(self) -> None:
        """The input columns (the tail states' too), the state expressions
        over them, and the box rows."""
        lay, iv = self.layout, self.intervals
        model = lay.model

        def column(v: int, name: str, tag: str) -> int:
            if iv.fixed(v):
                return model.constant(iv.lo[v])
            return model.add_continuous(name, iv.lo[v], iv.hi[v], tag=tag)

        for (n, t), row in self.inputs.items():
            lay.input_vars[(n, t)] = [column(v, f"u_{n}_{t}_{k}", "continuous")
                                      for k, v in enumerate(row)]
            self.column.update(zip(row, lay.input_vars[(n, t)]))
        for (n, t), state in self.states.items():
            if t > lay.h:
                for i, expr in enumerate(state):
                    v, = expr.coeffs
                    self.column[v] = column(v, f"w_{n}_{t}_{i}", "robust")
        for expr, lo, hi in self.boxes:
            model.add_folded(self.columns(expr), lo, hi, "continuous")
        for key, state in self.states.items():
            lay.state_exprs[key] = [self.columns(expr) for expr in state]

    def _lower(self, name: str, n: int, ids: range, exprs: list[LinExpr]) -> None:
        """An undecided face is a binary e with its two big-M rows; a
        decided one keeps the one row that forces its side, where the
        bounds do not already (a constant state needs none)."""
        lay = self.layout
        model, circuit, sys = lay.model, lay.circuit, lay.instance
        hmat, hvec = sys.atoms[name]
        lo_w, hi_w = sys.state_bounds
        k = hmat.shape[0]
        for s, expr, face in zip(ids, exprs, range(len(ids))):
            t, i = divmod(face, k)
            offset, decided, margin = float(hvec[i]), circuit.val[s], self.margin
            if not expr.coeffs:
                continue  # decided exactly
            expr = self.columns(expr)
            if decided == 1:
                model.add_folded(expr, -np.inf, offset - margin, "polytope")
            elif decided == 0:
                model.add_folded(expr, offset + margin, np.inf, "polytope")
            else:
                e = model.add_binary(f"e_{name}_{n}_{t}_{i}", tag="polytope")
                circuit.col[s] = e
                m = _face_big_m(hmat[i], offset, lo_w, hi_w)
                model.add_constraint(expr + LinExpr({e: m}), "<=", offset - margin + m,
                                     tag="polytope")
                model.add_constraint(expr + LinExpr({e: m}), ">=", offset + margin,
                                     tag="polytope")


def _ties(layout: Layout, states: dict, n: int, t: int, l: int):
    """The per-dimension differences w[n][t] - w[n][wrap(l, t)] and their
    radii m, the box diameter (the largest spread the box permits)."""
    lo_w, hi_w = layout.instance.state_bounds
    src = states[(n, layout.wrap_index(l, t))]
    for i, dst in enumerate(states[(n, t)]):
        m = float(hi_w[i] - lo_w[i]) if hi_w[i] > lo_w[i] else 1.0
        yield dst - src[i], m


def encode_cont_loop(layout: Layout) -> None:
    """Loop selectors and the big-M ties that close the loop at h and pin
    the robust tail h+1 .. h+tau: |w[n][t] - src| <= m (1 - z_l) per
    dimension, two rows each, for src = w[n][wrap(l, t)] and m the box
    diameter (``_ties``).  At t = h the source is w[n][l].  A loop start
    decided 0 leaves rows the box already meets, which are not stored."""
    model, h = layout.model, layout.h
    add_loop_selectors(layout)
    for t in range(h, h + layout.tau + 1):
        for n in range(layout.n_robots):
            for l, z in enumerate(layout.loop_vars):
                for diff, m in _ties(layout, layout.state_exprs, n, t, l):
                    tag = "loop" if t == h else "robust"
                    model.add_folded(diff + LinExpr({z: m}), -np.inf, m, tag)
                    model.add_folded(diff - LinExpr({z: m}), -m, np.inf, tag)


def _face_big_m(hrow: np.ndarray, offset: float, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest |H_i w - h_i| over the state box, plus slack."""
    reach = abs(offset)
    for j, coef in enumerate(hrow):
        reach += abs(coef) * max(abs(lo[j]), abs(hi[j]))
    return reach + 1.0


def build_cont_problem(sys: ContinuousSystem, mu: OuterFormula, h: int,
                       tau: int = 0) -> EncodedProblem:
    """Feasibility program over inputs; solutions drive every robot so the
    induced polytope-membership trace satisfies the formula."""
    norm = prepare_formula(mu, sys, tau)
    model = IlpModel("continuous")
    layout = Layout(model, sys, h, tau)
    plan = ContinuousPlan(layout)
    logic = (RobustLogicEncoder if tau else LogicEncoder)(layout, plan)
    logic.pin_root(norm)
    plan.emit()
    encode_cont_loop(layout)
    logic.lower()
    return EncodedProblem(model, layout, sys, h, tau, "continuous")


def extract_continuous(problem: EncodedProblem, sol: Solution) -> list[ContinuousTrajectory]:
    """Inputs and replayed states per robot, plus the chosen loop point."""
    if not sol.feasible:
        raise ExtractionError("solution is not feasible")
    layout = problem.layout
    sys: ContinuousSystem = problem.instance
    l = chosen_loop(layout, sol)
    out = []
    for n in range(sys.n_robots):
        inputs = tuple(
            tuple(float(sol[v]) for v in layout.input_vars[(n, t)])
            for t in range(problem.h))
        f, g, c = sys.dynamics[n]
        w = np.asarray(sys.init[n], dtype=float)
        states = [tuple(float(x) for x in w)]
        for t in range(problem.h):
            w = f @ w + g @ np.asarray(inputs[t], dtype=float) + c
            states.append(tuple(float(x) for x in w))
        out.append(ContinuousTrajectory(inputs, tuple(states), l))
    return out


def membership_trace(sys: ContinuousSystem,
                     traj: ContinuousTrajectory) -> list[frozenset]:
    """Atom sets per step from direct polytope evaluation: ``H w <= h``
    up to a rounding tolerance ``CUT``; feeds the oracle for verification.
    The cut lies in the middle of the band of width 2 * ``MARGIN`` that
    the encoding leaves to neither side of a face for the states it
    chooses, and is the encoding's own cut for a constant state, so it
    reads every point the program admits as the program does."""
    out = []
    for w in traj.states:
        vec = np.asarray(w, dtype=float)
        labels = set()
        for name, (hmat, hvec) in sys.atoms.items():
            if np.all(hmat @ vec <= hvec + CUT):
                labels.add(name)
        out.append(frozenset(labels))
    return out
