"""Mixed-integer encoding for affine continuous-state robots.

States are never decision variables: each w[n][t] is the affine image of
the inputs by forward substitution, so only inputs, loop selectors and the
logic binaries remain.  Atomic propositions are convex polytopes; a
binary per polytope face plus a conjunction gadget tests membership with
a margin (``MARGIN``) on both sides of each face; a state no input moves
is known, and its faces are decided exactly.  These atoms are the
only leaves that differ from the discrete engines: the logic rows come
from the shared ``LogicEncoder``, or ``RobustLogicEncoder`` for tau >= 1.
A face is a ``circuit.IntervalLeaves`` leaf, as an aggregate count is:
one the input bounds keep on one side is decided before the logic
settles (at t = 0 every face is), and a row the bounds always meet is not
stored.
"""

from __future__ import annotations

import numpy as np

from .circuit import IntervalLeaves, Signal
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


class ContinuousPlan(IntervalLeaves):
    """The continuous engine's program before its inputs are columns.

    Each input, and each state of the robust tail h+1 .. h+tau, is an
    ``Intervals`` variable; the other states are affine expressions over
    them (forward substitution).  Their rows, each written once: the box
    rows of every state a choice moves ("continuous"), the one-of row, and
    the big-M ties that close the loop at h and pin the robust tail
    ("loop", "robust"): |w[n][t] - w[n][wrap(l, t)]| <= m (1 - z_l) per
    dimension, m the box diameter.  Each polytope face is a leaf
    (``IntervalLeaves``, built by ``row``): 1 puts H_i w at most
    h_i - ``margin``, 0 at least h_i + ``margin``, with M from
    ``_face_big_m``; a state no input moves decides its faces at once, by
    H_i w <= h_i + ``CUT``.  An atom is the conjunction of its faces."""

    def __init__(self, layout: Layout, margin: float = MARGIN):
        super().__init__(layout)
        sys, h, tau = layout.instance, layout.h, layout.tau
        iv, self.margin = self.intervals, margin
        lo_w, hi_w = sys.state_bounds
        lo_u, hi_u = sys.input_bounds
        self.inputs: dict[tuple[int, int], list[int]] = {}
        self.states: dict[tuple[int, int], list[LinExpr]] = {}
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
                    self.add(expr, float(lo_w[i]), float(hi_w[i]), "continuous")
            for t in range(h + 1, h + tau + 1):
                # post-loop states for robust windows: variables tied to the loop
                self.states[(n, t)] = [LinExpr({iv.var(float(lo_w[i]), float(hi_w[i]), False): 1})
                                       for i in range(sys.d_w)]
        self.loop_selectors()
        radii = [float(hi - lo) if hi > lo else 1.0 for lo, hi in zip(lo_w, hi_w)]
        for t in range(h, h + tau + 1):
            tag = "loop" if t == h else "robust"
            for n in range(sys.n_robots):
                for l, z in enumerate(self.loop):
                    src = self.states[(n, layout.wrap_index(l, t))]
                    for dst, was, m in zip(self.states[(n, t)], src, radii):
                        diff = dst - was
                        self.add(diff + LinExpr({z: m}), -np.inf, m, tag)
                        self.add(diff - LinExpr({z: m}), -m, np.inf, tag)

    def row(self, name: str, n: int, size: int) -> list[Signal]:
        """Robot n's membership in polytope ``name`` at t = 0 .. size-1:
        per step, one leaf per face and their conjunction."""
        lay = self.layout
        circuit, sys = lay.circuit, lay.instance
        hmat, hvec = sys.atoms[name]
        k = hmat.shape[0]
        big_m = [_face_big_m(hmat[i], float(hvec[i]), *sys.state_bounds) for i in range(k)]
        faces = circuit.leaves(size * k, lambda ids: self.lower(ids, "polytope"))
        for face, (s, offset) in enumerate(zip(faces, np.tile(hvec, size).tolist())):
            t, i = divmod(face, k)
            expr = LinExpr()
            for j, coef in enumerate(hmat[i]):
                if coef:
                    expr = expr + self.states[(n, t)][j] * float(coef)
            if expr.coeffs:
                self.leaf(s, expr, (-np.inf, offset - self.margin),
                          (offset + self.margin, np.inf), big_m[i], f"e_{name}_{n}_{t}_{i}")
            else:
                circuit.assign(s, int(expr.const <= offset + CUT))
        return circuit.gates("AND", [faces[t * k:(t + 1) * k] for t in range(size)],
                             [f"z_{name}_{n}_{t}" for t in range(size)], "polytope")

    def emit(self) -> None:
        """The input columns (the tail states' too), the state expressions
        over them, the loop selectors, and the rows."""
        lay, column = self.layout, self.make_column
        for (n, t), row in self.inputs.items():
            lay.input_vars[(n, t)] = [column(v, f"u_{n}_{t}_{k}", "continuous")
                                      for k, v in enumerate(row)]
        for (n, t), state in self.states.items():
            for i, expr in enumerate(state if t > lay.h else ()):  # the tail's variables
                v, = expr.coeffs
                column(v, f"w_{n}_{t}_{i}", "robust")
        self.store()
        for key, state in self.states.items():
            lay.state_exprs[key] = [self.columns(expr) for expr in state]
        add_loop_selectors(lay)
        self.store()

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
