"""Mixed-integer encoding for affine continuous-state robots.

States are never decision variables: each w[n][t] is the affine image of
the inputs by forward substitution, so only inputs, loop selectors and the
logic binaries remain.  Atomic propositions are convex polytopes; a
binary per polytope face plus a conjunction gadget tests membership up to
a strictness margin epsilon (1e-6).  These atoms are the only leaves that
differ from the discrete engines: the logic rows come from the shared
``LogicEncoder``, or ``RobustLogicEncoder`` for tau >= 1.
"""

from __future__ import annotations

import numpy as np

from .formula import OuterFormula
from .ilp import IlpModel, LinExpr, Solution, VarId
from .system import ContinuousSystem
from .encoder_sync import (EncodedProblem, EncodingError, ExtractionError,
                           Layout, LogicEncoder, add_loop_selectors, chosen_loop,
                           prepare_formula)
from .encoder_robust import RobustLogicEncoder
from .trajectory import ContinuousTrajectory


def encode_cont_dynamics_loop(model: IlpModel, sys: ContinuousSystem, h: int,
                              tau: int = 0) -> Layout:
    """Input variables plus symbolic states, box constraints keeping every
    state inside the declared bounds, and one big-M tie, with the radius
    taken from the box diameter (the largest spread the box permits), that
    closes the loop at h and pins the robust tail h+1 .. h+tau."""
    layout = Layout(model, sys, h, tau)
    lo_w, hi_w = sys.state_bounds
    lo_u, hi_u = sys.input_bounds
    d_w, d_u = sys.d_w, sys.d_u
    radius = hi_w - lo_w

    for n in range(sys.n_robots):
        f, g, c = sys.dynamics[n]
        state = [LinExpr(const=float(x)) for x in sys.init[n]]
        layout.state_exprs[(n, 0)] = state
        for t in range(h):
            u_row = [model.add_continuous(f"u_{n}_{t}_{k}", float(lo_u[k]),
                                          float(hi_u[k]), tag="continuous")
                     for k in range(d_u)]
            layout.input_vars[(n, t)] = u_row
            nxt = []
            for i in range(d_w):
                expr = LinExpr(const=float(c[i]))
                for j in range(d_w):
                    if f[i, j]:
                        expr = expr + state[j] * float(f[i, j])
                for k in range(d_u):
                    if g[i, k]:
                        expr.add_term(u_row[k], float(g[i, k]))
                nxt.append(expr)
            layout.state_exprs[(n, t + 1)] = nxt
            state = nxt
            for i in range(d_w):
                if not nxt[i].coeffs:
                    # Constant trajectory dimension: check the box once.
                    if not (lo_w[i] - 1e-9 <= nxt[i].const <= hi_w[i] + 1e-9):
                        raise EncodingError(
                            f"robot {n} dimension {i} leaves its bounds at step {t + 1}")
                    continue
                model.add_constraint(nxt[i], "<=", float(hi_w[i]), tag="continuous")
                model.add_constraint(nxt[i], ">=", float(lo_w[i]), tag="continuous")

    def tie(n: int, t: int, tag: str) -> None:
        """Pin w[n][t], t >= h, to w[n][wrap(l, t)] for the chosen loop
        start l: |w[n][t] - src| <= m (1 - z_l) per dimension, two rows
        each.  At t = h the source is w[n][l] and the rows close the loop."""
        dst = layout.state_exprs[(n, t)]
        for l, z in enumerate(layout.loop_vars):
            src = layout.state_exprs[(n, layout.wrap_index(l, t))]
            for i in range(d_w):
                m = float(radius[i]) if radius[i] > 0 else 1.0
                diff = dst[i] - src[i]
                model.add_constraint(diff + LinExpr({z: m}), "<=", m, tag=tag)
                model.add_constraint(diff - LinExpr({z: m}), ">=", -m, tag=tag)

    add_loop_selectors(layout)
    for n in range(sys.n_robots):
        tie(n, h, "loop")
    # Post-loop states for robust windows are genuine variables pinned to
    # their wrapped loop positions.
    for n in range(sys.n_robots):
        for k in range(1, tau + 1):
            layout.state_exprs[(n, h + k)] = [
                LinExpr({model.add_continuous(f"w_{n}_{h + k}_{i}", float(lo_w[i]),
                                              float(hi_w[i]), tag="robust"): 1})
                for i in range(d_w)]
            tie(n, h + k, "robust")
    return layout


def _face_big_m(hrow: np.ndarray, offset: float, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest |H_i w - h_i| over the state box, plus slack."""
    reach = abs(offset)
    for j, coef in enumerate(hrow):
        reach += abs(coef) * max(abs(lo[j]), abs(hi[j]))
    return reach + 1.0


def polytope_atom_backend(layout: Layout, epsilon: float = 1e-6):
    """Membership test for polytope atoms: one binary per face, true iff the
    face inequality holds (with margin epsilon on the violating side), and a
    conjunction binary equal to full membership."""
    model, sys = layout.model, layout.instance
    lo_w, hi_w = sys.state_bounds

    def member(name: str, n: int, t: int) -> VarId:
        hmat, hvec = sys.atoms[name]
        state = layout.state_exprs[(n, t)]
        first = model.add_binaries([f"e_{name}_{n}_{t}_{i}" for i in range(hmat.shape[0])],
                                   tag="polytope")
        faces = list(range(first, first + hmat.shape[0]))
        for i, e in enumerate(faces):
            expr = LinExpr()
            for j, coef in enumerate(hmat[i]):
                if coef:
                    expr = expr + state[j] * float(coef)
            m = _face_big_m(hmat[i], float(hvec[i]), lo_w, hi_w)
            model.add_constraint(expr + LinExpr({e: m}), "<=", float(hvec[i]) + m,
                                 tag="polytope")
            model.add_constraint(expr + LinExpr({e: m}), ">=", float(hvec[i]) + epsilon,
                                 tag="polytope")
        return model.bool_gadgets("AND", [faces], [f"z_{name}_{n}_{t}"], "polytope")[0]

    def backend(name: str, n: int, size: int) -> list[VarId]:
        return [member(name, n, t) for t in range(size)]

    return backend


def build_cont_problem(sys: ContinuousSystem, mu: OuterFormula, h: int,
                       tau: int = 0) -> EncodedProblem:
    """Feasibility program over inputs; solutions drive every robot so the
    induced polytope-membership trace satisfies the formula."""
    norm = prepare_formula(mu, sys, tau)
    model = IlpModel("continuous")
    layout = encode_cont_dynamics_loop(model, sys, h, tau)
    encoder = RobustLogicEncoder if tau else LogicEncoder
    encoder(layout, polytope_atom_backend(layout)).pin_root(norm)
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
    up to a 1e-9 rounding tolerance, not the encoding's strictness
    margin; feeds the oracle for verification."""
    out = []
    for w in traj.states:
        vec = np.asarray(w, dtype=float)
        labels = set()
        for name, (hmat, hvec) in sys.atoms.items():
            if np.all(hmat @ vec <= hvec + 1e-9):
                labels.add(name)
        out.append(frozenset(labels))
    return out
