"""Aggregate-flow encoding for identical fleets.

When every counting proposition counts a literal (cLTL, ``is_cltl``) and
every robot runs on one shared transition system, robot identities are
irrelevant: the encoding keeps one integer per state (how many robots are
there) and one integer per transition (how many robots take it), read off
the ``MultiRobotInstance`` itself.  Model size is then bounded
independently of the number of robots: the start counts only decide
entries (``AggregateCounts``), more or fewer with the states they occupy,
and fleets spread alike over the same start states differ only in the
constants that hold the counts.  ``cltl_obstacle`` holds
every precondition.  Solutions are turned back into per-robot lassos by
decomposing the flow.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .circuit import ONE, ZERO, IntervalLeaves, Signal
from .formula import INot, ITrue, InnerFormula, OuterFormula, Tcp, is_cltl, iter_tcps
from .ilp import IlpModel, LinExpr, Solution
from .system import ModelError, MultiRobotInstance, shared_system
from .encoder_sync import (EncodedProblem, EncodingError, ExtractionError,
                           Layout, LogicEncoder, add_loop_selectors, chosen_loop,
                           prepare_formula)
from .trajectory import LassoTrajectory


class AggregateCounts(IntervalLeaves):
    """The aggregate engine's occupancies and flows as ``Intervals``
    variables: per-state occupancies w, fixed at t = 0 to the fleet's start
    counts, and per-transition flows u, both in [0, N] (occupancies in
    [0, 1] under a collision mode).  Their rows, each written once:
    outflow sum equal to occupancy and next occupancy equal to inflow sum
    ("aggregate"); the one-of row and ``cur - final + N z_l <= N`` per
    start l and state ("loop": with z_l = 1, w[h] >= w[l] componentwise,
    and both sum to N, so they are equal); under
    ``mutual_exclusion_plus_swap``, never one robot each way across an
    edge in one step ("collision").  The outer logic's counting thresholds
    are leaves over occupancy sums (``IntervalLeaves``)."""

    def __init__(self, layout: Layout):
        super().__init__(layout)
        iv, inst, h = self.intervals, layout.instance, layout.h
        ts, n = shared_system(inst), inst.n_robots
        cap = 1 if inst.collision_mode != "off" else n
        occ = self.occupancy = [[iv.var(0, cap, True) for _ in range(ts.n_states)]
                                for _ in range(h + 1)]
        flow = self.flow = {(i, j, t): iv.var(0, n, True)
                            for t in range(h) for (i, j) in sorted(ts.transitions)}
        starts = np.bincount(inst.initial_states, minlength=ts.n_states).tolist()
        for v, count in zip(occ[0], starts):
            iv.bound(v, count, count)
        for t in range(h):
            for i in range(ts.n_states):
                iv.add([occ[t][i]] + [flow[(i, j, t)] for j in ts.successors(i)],
                       [-1] + [1] * len(ts.successors(i)), 0, 0, "aggregate")
            for j in range(ts.n_states):
                iv.add([occ[t + 1][j]] + [flow[(i, j, t)] for i in ts.predecessors(j)],
                       [-1] + [1] * len(ts.predecessors(j)), 0, 0, "aggregate")
        self.loop_selectors()
        for l, z in enumerate(self.loop):
            for cur, final in zip(occ[l], occ[h]):
                iv.add([final, cur, z], [-1, 1, n], -inf, n, "loop")
        if inst.collision_mode == "mutual_exclusion_plus_swap":
            for (i, j) in sorted(ts.transitions):
                if i < j and (j, i) in ts.transitions:
                    for t in range(h):
                        iv.add([flow[(i, j, t)], flow[(j, i, t)]], [1, 1], -inf, 1,
                               "collision")

    def emit(self) -> None:
        """The occupancy and flow columns, the selectors, and the rows."""
        lay, column = self.layout, self.make_column
        for t, row in enumerate(self.occupancy):
            lay.agg_state[t] = [column(v, f"wagg_{i}_t{t}", "aggregate")
                                for i, v in enumerate(row)]
        for (i, j, t), v in self.flow.items():
            lay.agg_flow[(i, j, t)] = column(v, f"u_{i}_{j}_t{t}", "aggregate")
        self.store()
        add_loop_selectors(lay)
        self.store()


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
    become threshold tests on a labeled occupancy sum, decided where the
    occupancies' bounds settle it (``AggregateCounts``)."""

    def _tcp_row(self, tcp: Tcp) -> list[Signal]:
        lay, model, circuit = self.layout, self.model, self.circuit
        size, steps = lay.n_robots, range(lay.h)
        if tcp.m <= 0:
            return [ONE for _ in steps]
        if tcp.m > size:
            return [ZERO for _ in steps]
        vec = _literal_vector(lay.instance.systems[0], tcp.inner)
        labeled = [i for i, bit in enumerate(vec) if bit]
        counts = self.leaves
        fid = lay.fid(tcp)

        def lower(ids: range) -> None:
            """An indicator per undecided step; a decided one keeps the row
            its value forces (``IntervalLeaves.side``)."""
            val = circuit.val
            open_ = [t for t in steps if val[ids[t]] is None]
            # occupancies are conserved, so the labeled sum never exceeds N
            made = model.indicators_geq(
                [model.folded(LinExpr.sum_of([lay.agg_state[t][i] for i in labeled]))
                 for t in open_],
                tcp.m, size + 1, [f"y{fid}_t{t}" for t in open_], tag=self.TAG,
                known_bounds=(0, size))
            for t, y in zip(open_, made):
                circuit.col[ids[t]] = y
            for t in steps:
                if val[ids[t]] is not None:
                    counts.side(ids[t], self.TAG)

        row = circuit.leaves(lay.h, lower)
        for s, t in zip(row, steps):
            counts.leaf(s, LinExpr.sum_of([counts.occupancy[t][i] for i in labeled]),
                        (tcp.m, inf), (-inf, tcp.m - 1))
        return row


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
    layout = Layout(model, inst, h)
    counts = AggregateCounts(layout)
    logic = CltlOuterEncoder(layout, counts)
    logic.pin_root(norm)
    counts.emit()
    logic.lower()
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

