"""Aggregate-flow encoding for identical fleets.

When every counting proposition counts a literal (cLTL, ``is_cltl``) and
every robot runs on one shared transition system, robot identities are
irrelevant: the encoding keeps one integer per state (how many robots are
there) and one integer per transition (how many robots take it), read off
the ``MultiRobotInstance`` itself.  Model size is then independent of the
number of robots; ``cltl_obstacle`` holds every precondition.  Solutions
are turned back into per-robot lassos by decomposing the flow.
"""

from __future__ import annotations

import numpy as np

from .formula import INot, ITrue, InnerFormula, OuterFormula, Tcp, is_cltl, iter_tcps
from .ilp import IlpModel, LinExpr, Solution, VarId
from .system import ModelError, MultiRobotInstance, shared_system
from .encoder_sync import (EncodedProblem, EncodingError, ExtractionError,
                           Layout, LogicEncoder, add_loop_selectors, chosen_loop,
                           prepare_formula)
from .trajectory import LassoTrajectory


def encode_aggregate(model: IlpModel, inst: MultiRobotInstance, h: int) -> Layout:
    """Robot-count dynamics on the fleet's ``shared_system``: per-state
    occupancies w, pinned at t = 0 to the fleet's start counts, and
    per-transition flows u with outflow sum equal to occupancy and next
    occupancy equal to inflow sum; the loop constraint radius scales with
    the fleet size since occupancies range over [0, N].

    The loop is closed from one side, ``cur - final + N z_t <= N``: with
    z_l = 1 it gives w[h] >= w[l] componentwise, and flow conservation
    makes both count vectors sum to N, so they are equal."""
    ts = shared_system(inst)
    n = inst.n_robots
    layout = Layout(model, inst, h)
    edges = sorted(ts.transitions)
    for t in range(h + 1):
        layout.agg_state[t] = [
            model.add_integer(f"wagg_{i}_t{t}", 0, n, tag="aggregate")
            for i in range(ts.n_states)]
    for t in range(h):
        for (i, j) in edges:
            layout.agg_flow[(i, j, t)] = model.add_integer(
                f"u_{i}_{j}_t{t}", 0, n, tag="aggregate")
    for i, count in enumerate(np.bincount(inst.initial_states, minlength=ts.n_states)):
        model.add_constraint(LinExpr({layout.agg_state[0][i]: 1}), "=", int(count),
                             tag="aggregate")
    for t in range(h):
        for i in range(ts.n_states):
            expr = LinExpr({layout.agg_state[t][i]: -1})
            for j in ts.successors(i):
                expr.add_term(layout.agg_flow[(i, j, t)], 1)
            model.add_constraint(expr, "=", 0, tag="aggregate")
        for j in range(ts.n_states):
            expr = LinExpr({layout.agg_state[t + 1][j]: -1})
            for i in ts.predecessors(j):
                expr.add_term(layout.agg_flow[(i, j, t)], 1)
            model.add_constraint(expr, "=", 0, tag="aggregate")
    add_loop_selectors(layout)
    for t in range(h):
        z = layout.loop_vars[t]
        for i in range(ts.n_states):
            final = layout.agg_state[h][i]
            cur = layout.agg_state[t][i]
            model.add_constraint(
                LinExpr({final: -1, cur: 1, z: n}), "<=", n, tag="loop")
    return layout


def encode_aggregate_collision(layout: Layout) -> None:
    """Occupancy-capacity form of the fleet's collision rules: at most one
    robot per state, and (for the swap variant) never one robot each way
    across the same edge in one step."""
    model, mode = layout.model, layout.instance.collision_mode
    if mode == "off":
        return
    ts = layout.instance.systems[0]
    for t in sorted(layout.agg_state):
        for i in range(ts.n_states):
            model.add_constraint(LinExpr({layout.agg_state[t][i]: 1}), "<=", 1,
                                 tag="collision")
    if mode == "mutual_exclusion_plus_swap":
        for (i, j) in sorted(ts.transitions):
            if i < j and (j, i) in ts.transitions:
                for t in range(layout.h):
                    model.add_constraint(
                        LinExpr({layout.agg_flow[(i, j, t)]: 1,
                                 layout.agg_flow[(j, i, t)]: 1}),
                        "<=", 1, tag="collision")


def _literal_vector(ts, inner: InnerFormula) -> np.ndarray:
    """0/1 per state: whether a robot there satisfies the literal
    ``inner``, which ``prepare_formula`` has put in negation normal form."""
    if isinstance(inner, INot):
        return 1 - _literal_vector(ts, inner.child)
    if isinstance(inner, ITrue):
        return np.ones(ts.n_states, dtype=np.int8)
    return ts.label_vector(inner.name)


class CltlOuterEncoder(LogicEncoder):
    """Outer logic over aggregate occupancies; counting propositions
    become threshold tests on a labeled occupancy sum."""

    def _tcp_row(self, tcp: Tcp) -> list[VarId]:
        lay = self.layout
        vec = _literal_vector(lay.instance.systems[0], tcp.inner)
        # occupancies are conserved, so the labeled sum never exceeds N
        return [self._at_least((lay.agg_state[t][i] for i, bit in enumerate(vec) if bit),
                               tcp.m, lay.n_robots, tcp, t)
                for t in range(lay.h)]


def cltl_obstacle(inst: MultiRobotInstance, mu: OuterFormula, tau: int = 0) -> str:
    """Why the aggregate engine does not apply to ``mu`` on ``inst`` at
    asynchrony bound ``tau``; empty when it does: at tau = 0, for cLTL
    without robot groups, on a fleet with one ``shared_system``."""
    if tau:
        return ("the aggregate engine cannot track identities, which robust "
                "synthesis requires; use --engine cltlplus")
    if not is_cltl(mu):
        offender = next(t for t in iter_tcps(mu) if not is_cltl(t))
        return (f"formula is outside cLTL, where every tcp counts a literal; "
                f"offending inner formula: {offender.inner}")
    if any(t.group is not None for t in iter_tcps(mu)):
        return "aggregate encoding cannot restrict counting to robot groups"
    try:
        shared_system(inst)
    except ModelError as exc:
        return str(exc)
    return ""


def build_cltl_problem(inst: MultiRobotInstance, mu: OuterFormula, h: int,
                       tau: int = 0) -> EncodedProblem:
    """Aggregate feasibility program over the fleet's occupancies, with the
    instance's collision mode; ``EncodingError`` with ``cltl_obstacle``'s
    reason where the engine does not apply."""
    if reason := cltl_obstacle(inst, mu, tau):
        raise EncodingError(reason)
    norm = prepare_formula(mu, inst)
    model = IlpModel("cltl")
    layout = encode_aggregate(model, inst, h)
    encode_aggregate_collision(layout)
    CltlOuterEncoder(layout).pin_root(norm)
    return EncodedProblem(model, layout, inst, h, 0, "cltl")


# ---------------------------------------------------------------------------
# Flow decomposition
# ---------------------------------------------------------------------------

def decompose_flows(problem: EncodedProblem, sol: Solution) -> list[LassoTrajectory]:
    """Individual lassos matching the aggregate solution, robot n starting
    at the instance's initial state n.

    Robots at a state are assigned to outgoing transitions lowest index
    first.  When the loop permutes
    robots among states, trajectories are closed by concatenating the loop
    segments along each permutation cycle, which multiplies the period but
    reproduces the occupancies of every step exactly.
    """
    if not sol.feasible:
        raise ExtractionError("solution is not feasible")
    layout = problem.layout
    inst: MultiRobotInstance = problem.instance
    shared = inst.systems[0]
    n_states = shared.n_states
    h = problem.h
    w = {t: [int(round(sol[v])) for v in layout.agg_state[t]]
         for t in sorted(layout.agg_state)}
    flow = {key: int(round(sol[v])) for key, v in layout.agg_flow.items()}
    l = chosen_loop(layout, sol)
    n_robots = layout.n_robots

    positions = list(inst.initial_states)
    if np.bincount(positions, minlength=n_states).tolist() != w[0]:
        raise ExtractionError("initial occupancies do not match the solution")

    history = [list(positions)]
    for t in range(h):
        nxt = list(positions)
        for i in range(n_states):
            here = [r for r in range(n_robots) if positions[r] == i]
            cursor = 0
            for j in shared.successors(i):
                take = flow.get((i, j, t), 0)
                for r in here[cursor:cursor + take]:
                    nxt[r] = j
                cursor += take
            if cursor != len(here):
                raise ExtractionError(
                    f"flow conservation broken at state {i}, step {t}")
        positions = nxt
        history.append(list(positions))

    # Match robots at the loop entry with robots at the horizon, per state;
    # identity matches first so closed robots stay closed.
    continuation = {}
    for s in range(n_states):
        at_l = [r for r in range(n_robots) if history[l][r] == s]
        at_h = [r for r in range(n_robots) if history[h][r] == s]
        if len(at_l) != len(at_h):
            raise ExtractionError("loop occupancies do not match")
        fixed = sorted(set(at_l) & set(at_h))
        rest_l = [r for r in at_l if r not in fixed]
        rest_h = [r for r in at_h if r not in fixed]
        for r in fixed:
            continuation[r] = r
        for r_h, r_l in zip(rest_h, rest_l):
            continuation[r_h] = r_l

    period = h - l
    out = []
    for r in range(n_robots):
        states = [history[t][r] for t in range(l)]
        cur = r
        while True:
            states.extend(history[t][cur] for t in range(l, h))
            cur = continuation[cur]
            if cur == r:
                break
        states.append(history[l][r])
        out.append(LassoTrajectory(tuple(states), l))
    return out

