"""Aggregate-flow encoding for identical fleets.

When every robot has the same dynamics and all counting propositions wrap
bare atoms, robot identities are irrelevant: the encoding keeps one
integer per state (how many robots are there) and one integer per
transition (how many robots take it).  Model size is then independent of
the number of robots.  Solutions are turned back into per-robot lassos by
decomposing the flow.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .formula import (IAtom, INot, ITrue, OuterFormula, Tcp, is_cltl, iter_tcps,
                      normalize)
from .ilp import IlpModel, LinExpr, Solution
from .system import AggregateSystem, MultiRobotInstance, aggregate_view
from .encoder_sync import (EncodedProblem, EncodingError, ExtractionError,
                           Layout, OuterEncoder, add_loop_selectors, chosen_loop)
from .trajectory import LassoTrajectory


def encode_aggregate(model: IlpModel, agg: AggregateSystem, h: int) -> Layout:
    """Robot-count dynamics: per-state occupancies w and per-transition
    flows u with outflow sum equal to occupancy and next occupancy equal to
    inflow sum; the loop constraint radius scales with the fleet size since
    occupancies range over [0, N].

    The loop is closed from one side, ``cur - final + N z_t <= N``: with
    z_l = 1 it gives w[h] >= w[l] componentwise, and flow conservation
    makes both count vectors sum to N, so they are equal."""
    if h < 1:
        raise EncodingError("horizon must be at least 1")
    ts = agg.shared
    n = agg.n_robots
    layout = Layout(model, n, h, tau=0)
    layout.instance = agg
    edges = sorted(ts.transitions)
    for t in range(h + 1):
        layout.agg_state[t] = [
            model.add_integer(f"wagg_{i}_t{t}", 0, n, tag="aggregate")
            for i in range(ts.n_states)]
    for t in range(h):
        for (i, j) in edges:
            layout.agg_flow[(i, j, t)] = model.add_integer(
                f"u_{i}_{j}_t{t}", 0, n, tag="aggregate")
    for i, count in enumerate(agg.w0):
        model.add_constraint(LinExpr({layout.agg_state[0][i]: 1}), "=", count,
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
    add_loop_selectors(model, layout)
    for t in range(h):
        z = layout.loop_vars[t]
        for i in range(ts.n_states):
            final = layout.agg_state[h][i]
            cur = layout.agg_state[t][i]
            model.add_constraint(
                LinExpr({final: -1, cur: 1, z: n}), "<=", n, tag="loop")
    return layout


def encode_aggregate_collision(model: IlpModel, layout: Layout,
                               agg: AggregateSystem, mode: str) -> None:
    """Occupancy-capacity form of the collision rules: at most one robot per
    state, and (for the swap variant) never one robot each way across the
    same edge in one step."""
    if mode == "off":
        return
    ts = agg.shared
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


class CltlOuterEncoder(OuterEncoder):
    """Outer encoding over aggregate occupancies; counting propositions
    become threshold tests on a labeled occupancy sum."""

    TAG = "outer"

    def __init__(self, model: IlpModel, layout: Layout, agg: AggregateSystem):
        super().__init__(model, layout, inner=None, n_robots=agg.n_robots)
        self.agg = agg

    def _literal_vector(self, tcp: Tcp):
        ts = self.agg.shared
        inner = tcp.inner
        if isinstance(inner, IAtom):
            return ts.label_vector(inner.name)
        if isinstance(inner, INot) and isinstance(inner.child, IAtom):
            return 1 - ts.label_vector(inner.child.name)
        if isinstance(inner, ITrue):
            return [1] * ts.n_states
        if isinstance(inner, INot) and isinstance(inner.child, ITrue):
            return [0] * ts.n_states
        raise EncodingError(
            f"aggregate encoding needs atomic inner tasks; offending inner "
            f"formula: {inner}")

    def _tcp_row(self, tcp: Tcp) -> None:
        if tcp.group is not None:
            raise EncodingError(
                "aggregate encoding cannot restrict counting to robot groups; "
                "identities are not tracked")
        lay = self.layout
        vec = self._literal_vector(tcp)
        for t in range(lay.h):
            # occupancies are conserved, so the labeled sum never exceeds N
            count = (lay.agg_state[t][i] for i, bit in enumerate(vec) if bit)
            self._set(tcp, t, self._at_least(count, tcp.m, self.agg.n_robots, tcp, t))


def build_cltl_problem(source: Union[AggregateSystem, MultiRobotInstance],
                       mu: OuterFormula, h: int,
                       collision: Optional[str] = None) -> EncodedProblem:
    """Aggregate feasibility program; model size does not depend on the
    number of robots."""
    if isinstance(source, MultiRobotInstance):
        agg = aggregate_view(source)
        instance = source
        if collision is None:
            collision = source.collision_mode
    else:
        agg = source
        instance = source
    collision = collision or "off"
    if not is_cltl(mu):
        offender = next(t for t in iter_tcps(mu) if not isinstance(t.inner, IAtom))
        raise EncodingError(
            f"formula is outside the atomic-inner fragment; offending inner "
            f"formula: {offender.inner}")
    if any(t.group is not None for t in iter_tcps(mu)):
        raise EncodingError(
            "aggregate encoding cannot restrict counting to robot groups")
    missing = {t.inner.name for t in iter_tcps(mu)} - set(agg.shared.ap)
    if missing:
        raise EncodingError(f"formula uses unknown propositions: {sorted(missing)}")
    norm = normalize(mu, agg.n_robots, robust=False)
    model = IlpModel("cltl")
    layout = encode_aggregate(model, agg, h)
    encode_aggregate_collision(model, layout, agg, collision)
    outer = CltlOuterEncoder(model, layout, agg)
    root = outer.var(norm, 0)
    model.add_constraint(LinExpr({root: 1}), "=", 1, tag="root")
    return EncodedProblem(model, layout, instance, norm, mu, h, 0, "cltl")


# ---------------------------------------------------------------------------
# Flow decomposition
# ---------------------------------------------------------------------------

def decompose_flows(problem: EncodedProblem, sol: Solution,
                    rng: Optional[random.Random] = None) -> list[LassoTrajectory]:
    """Individual lassos matching the aggregate solution.

    Robots at a state are assigned to outgoing transitions lowest index
    first (or shuffled when ``rng`` is given).  When the loop permutes
    robots among states, trajectories are closed by concatenating the loop
    segments along each permutation cycle, which multiplies the period but
    reproduces the occupancies of every step exactly.
    """
    if not sol.feasible:
        raise ExtractionError("solution is not feasible")
    layout = problem.layout
    agg = problem.instance if isinstance(problem.instance, AggregateSystem) else None
    inst = problem.instance if isinstance(problem.instance, MultiRobotInstance) else None
    shared = (agg.shared if agg else inst.systems[0])
    n_states = shared.n_states
    h = problem.h
    w = {t: [int(round(sol[v])) for v in layout.agg_state[t]]
         for t in sorted(layout.agg_state)}
    flow = {key: int(round(sol[v])) for key, v in layout.agg_flow.items()}
    l = chosen_loop(layout, sol)
    n_robots = layout.n_robots

    if inst is not None:
        positions = list(inst.initial_states)
    else:
        positions = []
        for i in range(n_states):
            positions.extend([i] * w[0][i])
    counts = [0] * n_states
    for p in positions:
        counts[p] += 1
    if counts != w[0]:
        raise ExtractionError("initial occupancies do not match the solution")

    history = [list(positions)]
    for t in range(h):
        nxt = list(positions)
        for i in range(n_states):
            here = [r for r in range(n_robots) if positions[r] == i]
            if rng is not None:
                rng.shuffle(here)
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


def reaggregate(trajectories: list[LassoTrajectory], n_states: int,
                upto: int) -> list[list[int]]:
    """Occupancy counts per step from individual lassos, for cross-checks."""
    out = []
    for t in range(upto + 1):
        counts = [0] * n_states
        for traj in trajectories:
            counts[traj.state_at(t)] += 1
        out.append(counts)
    return out
