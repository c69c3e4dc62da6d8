"""Synchronous ILP encoding: robot dynamics as one-hot state vectors,
lasso loop selection, recursive inner/outer logic constraints, optional
inter-robot collision constraints, and trajectory extraction.

Conventions: state vectors w[n][t] have one entry per state for t = 0..h
(plus h+1..h+tau in robust mode), but only the states robot n can occupy
after exactly t steps are variables; every other entry is the model's
shared constant 0, and no row mentions it.  Logic variables z/y exist for
t = 0..h-1, with w[h] reserved for closing the loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .formula import (IAlways, IAnd, IAtom, IEventually, INNER_FALSE, INext,
                      INot, IOr, IRelease, ITrue, IUntil, InnerFormula,
                      OAlways, OAnd, OEventually, ONext, ONot, OOr, ORelease,
                      OTrue, OUntil, OuterFormula, Tcp, atoms_of,
                      group_names_of, normalize, outer_false)
from .ilp import IlpModel, LinExpr, Solution, VarId
from .system import (AggregateSystem, ContinuousSystem, MultiRobotInstance,
                     validate)
from .trajectory import LassoTrajectory

AtomBackend = Callable[[str, int, int], VarId]


class EncodingError(ValueError):
    pass


class ExtractionError(RuntimeError):
    """A supposedly feasible assignment is not a clean one-hot trajectory."""


class Layout:
    """Bookkeeping that maps (robot, time, subformula) to variable ids."""

    def __init__(self, model: IlpModel, n_robots: int, h: int, tau: int = 0):
        if h < 1:
            raise EncodingError("horizon must be at least 1")
        if tau < 0:
            raise EncodingError("asynchrony bound must be nonnegative")
        self.model = model
        self.n_robots = n_robots
        self.h = h
        self.tau = tau
        self.state_vars: dict[tuple[int, int], list[VarId]] = {}
        # ascending indices of the entries of state_vars that are variables
        self.live: dict[tuple[int, int], list[int]] = {}
        self.loop_vars: list[VarId] = []
        self.inner: dict[tuple[InnerFormula, int, int], VarId] = {}
        self.inner_aux: dict[tuple[InnerFormula, int, int], VarId] = {}
        self.robust: dict[tuple[InnerFormula, int, int], VarId] = {}
        self.outer: dict[tuple[OuterFormula, int], VarId] = {}
        self.outer_aux: dict[tuple[OuterFormula, int], VarId] = {}
        self.outer_extra: dict[tuple, VarId] = {}
        # aggregate-encoding slots
        self.agg_state: dict[int, list[VarId]] = {}
        self.agg_flow: dict[tuple[int, int, int], VarId] = {}
        # continuous-encoding slots
        self.input_vars: dict[tuple[int, int], list[VarId]] = {}
        self.state_exprs: dict[tuple[int, int], list[LinExpr]] = {}
        self.instance = None
        self.inner_encoder: Optional["InnerEncoder"] = None
        self.outer_encoder: Optional["OuterEncoder"] = None
        self._formula_ids: dict = {}

    @property
    def horizon_ext(self) -> int:
        """Inner variables exist for t = 0 .. horizon_ext - 1."""
        return self.h + self.tau

    def fid(self, node) -> int:
        if node not in self._formula_ids:
            self._formula_ids[node] = len(self._formula_ids)
        return self._formula_ids[node]

    def wrap_index(self, loop_start: int, t: int) -> int:
        """Position of time t >= h on the lasso that loops at loop_start."""
        period = self.h - loop_start
        return loop_start + (t - loop_start) % period

    def tie_to_loop(self, var: VarId, n: Optional[int], t: int,
                    lookup: Callable[[int], VarId], tag: str) -> None:
        """Force ``var`` to equal its loop-equivalent value: for the chosen
        loop start l, var = lookup(wrap(l, t))."""
        for l, z in enumerate(self.loop_vars):
            target = lookup(self.wrap_index(l, t))
            self.model.add_constraint(
                LinExpr({var: 1, target: -1, z: 1}), "<=", 1, tag=tag)
            self.model.add_constraint(
                LinExpr({var: -1, target: 1, z: 1}), "<=", 1, tag=tag)


@dataclass
class EncodedProblem:
    """A built model plus everything needed to interpret its solutions."""

    model: IlpModel
    layout: Layout
    instance: Union[MultiRobotInstance, AggregateSystem, ContinuousSystem]
    formula: OuterFormula          # normalized form actually encoded
    original_formula: OuterFormula
    h: int
    tau: int
    engine: str


# ---------------------------------------------------------------------------
# Dynamics, loop, collision
# ---------------------------------------------------------------------------

def add_state_vector(model: IlpModel, layout: Layout, n: int, t: int,
                     n_states: int, live: list[int], tag: str) -> None:
    """w[n][t]: a binary for each state in ``live`` (ascending), the shared
    constant 0 everywhere else, and the one-hot row over the live entries.
    With nothing live the row reads ``const_0 = 1``, which no point meets."""
    zero = model.constant(0) if len(live) < n_states else None
    row = [zero] * n_states
    for i in live:
        row[i] = model.add_binary(f"w_{n}_{t}_{i}", tag=tag)
    layout.state_vars[(n, t)] = row
    layout.live[(n, t)] = live
    one_hot = LinExpr.sum_of(row[i] for i in live) if live else LinExpr({zero: 1})
    model.add_constraint(one_hot, "=", 1, tag=tag)


def successor_set(succ: list[list[int]], live: list[int]) -> list[int]:
    """Ascending states one step from some state in ``live``."""
    return sorted({j for i in live for j in succ[i]})


def encode_dynamics(model: IlpModel, inst: MultiRobotInstance, h: int,
                    tau: int = 0) -> Layout:
    """One-hot state vectors under the adjacency relation.

    w[n][0] is pinned to the initial state and w[n][t+1] <= A_n w[n][t]
    componentwise, so w[n][t] can only be 1 on R_t, the states reachable
    in exactly t steps: R_0 = {init}, R_{t+1} = succ(R_t).  Every other
    entry is 0 in every feasible point, so it is the constant 0 and only
    the live entries get variables and rows: the one-hot row sums R_t (for
    t = 0 it is the pin itself) and the dynamics row of j in R_{t+1} sums
    its predecessors in R_t.  An empty R_t (a dead end) leaves the
    infeasible row ``const_0 = 1``.
    """
    layout = Layout(model, inst.n_robots, h, tau)
    layout.instance = inst
    for n, ts in enumerate(inst.systems):
        succ = [ts.successors(i) for i in range(ts.n_states)]
        preds = [ts.predecessors(j) for j in range(ts.n_states)]
        live = [inst.initial_states[n]]
        add_state_vector(model, layout, n, 0, ts.n_states, live, "dynamics")
        for t in range(h):
            cur = layout.state_vars[(n, t)]
            cur_live = set(live)
            live = successor_set(succ, live)
            add_state_vector(model, layout, n, t + 1, ts.n_states, live, "dynamics")
            nxt = layout.state_vars[(n, t + 1)]
            for j in live:
                expr = LinExpr({nxt[j]: 1})
                for i in preds[j]:
                    if i in cur_live:
                        expr.add_term(cur[i], -1)
                model.add_constraint(expr, "<=", 0, tag="dynamics")
    return layout


def encode_loop(model: IlpModel, layout: Layout, h: int) -> list[VarId]:
    """Select a unique loop start l with w[n][h] = w[n][l] for every robot.

    One side suffices: ``w[n][t][i] + z_t - w[n][h][i] <= 1`` for each live
    entry of w[n][t] gives w[n][h] >= w[n][l] once z_l = 1, and two one-hot
    vectors with w[h] >= w[l] are equal.  Where w[n][h][i] is the constant
    0 the row reads ``w[n][t][i] + z_t <= 1``."""
    layout.loop_vars = [model.add_binary(f"zloop_{t}", tag="loop")
                        for t in range(h)]
    model.add_constraint(LinExpr.sum_of(layout.loop_vars), "=", 1, tag="loop")
    for (n, t), row in list(layout.state_vars.items()):
        if t >= h:
            continue
        final = layout.state_vars[(n, h)]
        final_live = set(layout.live[(n, h)])
        z = layout.loop_vars[t]
        for i in layout.live[(n, t)]:
            expr = LinExpr({row[i]: 1, z: 1})
            if i in final_live:
                expr.add_term(final[i], -1)
            model.add_constraint(expr, "<=", 1, tag="loop")
    return layout.loop_vars


def encode_collision(model: IlpModel, layout: Layout, inst: MultiRobotInstance,
                     h: int, tau: int = 0) -> None:
    """Inter-robot exclusion over a shared state space.

    With tau = 0, at most one robot per state per step.  With tau > 0 the
    exclusion is widened to every pair of steps at most tau apart, since
    asynchrony can bring those positions together at the same wall-clock
    instant.  The swap variant additionally forbids two robots exchanging
    states across one step.  A row that mentions a constant-0 state entry
    holds in every point, so only rows over live entries are emitted.
    """
    if inst.collision_mode == "off":
        return
    if not inst.shared_state_space():
        raise EncodingError("collision constraints require a shared state space")
    n_states = inst.systems[0].n_states
    times = sorted(t for (n, t) in layout.state_vars if n == 0)
    live = {key: set(states) for key, states in layout.live.items()}
    w = layout.state_vars
    if tau == 0:
        for t in times:
            for i in range(n_states):
                here = [w[(n, t)][i] for n in range(inst.n_robots) if i in live[(n, t)]]
                if len(here) > 1:
                    model.add_constraint(LinExpr.sum_of(here), "<=", 1, tag="collision")
    else:
        for a, b in itertools.combinations(range(inst.n_robots), 2):
            for t in times:
                for dt in range(tau + 1):
                    if (a, t + dt) not in w:
                        continue
                    for i in range(n_states):
                        if i in live[(a, t)] and i in live[(b, t + dt)]:
                            model.add_constraint(
                                LinExpr({w[(a, t)][i]: 1, w[(b, t + dt)][i]: 1}),
                                "<=", 1, tag="collision")
                        if dt and i in live[(b, t)] and i in live[(a, t + dt)]:
                            model.add_constraint(
                                LinExpr({w[(b, t)][i]: 1, w[(a, t + dt)][i]: 1}),
                                "<=", 1, tag="collision")
    if inst.collision_mode == "mutual_exclusion_plus_swap":
        ts0 = inst.systems[0]
        swappable = [(i, j) for (i, j) in sorted(ts0.transitions)
                     if i != j and (j, i) in ts0.transitions]
        for a, b in itertools.combinations(range(inst.n_robots), 2):
            for t in times:
                if (a, t + 1) not in w:
                    continue
                for (i, j) in swappable:
                    if (i in live[(a, t)] and j in live[(b, t)]
                            and j in live[(a, t + 1)] and i in live[(b, t + 1)]):
                        model.add_constraint(
                            LinExpr({w[(a, t)][i]: 1, w[(b, t)][j]: 1,
                                     w[(a, t + 1)][j]: 1, w[(b, t + 1)][i]: 1}),
                            "<=", 3, tag="collision")


# ---------------------------------------------------------------------------
# Inner logic
# ---------------------------------------------------------------------------

def discrete_atom_backend(layout: Layout, inst: MultiRobotInstance) -> AtomBackend:
    """Couples an atom variable to the labeled states the robot may occupy:
    z equals the label indicator applied to the one-hot state vector.  The
    sum skips constant-0 entries; with no live labeled state it pins z to
    0."""

    def backend(name: str, n: int, t: int) -> VarId:
        ts = inst.systems[n]
        vec = ts.label_vector(name)
        z = layout.model.add_binary(f"z{layout.fid(IAtom(name))}_n{n}_t{t}", tag="inner")
        expr = LinExpr({z: 1})
        for i in layout.live[(n, t)]:
            if vec[i]:
                expr.add_term(layout.state_vars[(n, t)][i], -1)
        # label_count >= z and label_count <= z (strict < z+1 tightened by
        # integrality), i.e. z tracks membership exactly
        layout.model.add_constraint(expr, "<=", 0, tag="inner")
        layout.model.add_constraint(expr, ">=", 0, tag="inner")
        return z

    return backend


class InnerEncoder:
    """Creates z[phi][n][t] rows with z = 1 iff robot n satisfies phi at
    position t of its lasso, for t = 0 .. h+tau-1.

    Temporal operators recurse backward in time with an auxiliary pass so
    satisfaction cannot be deferred forever around the loop; positions past
    the horizon (robust mode) are pinned to their loop-equivalent values.
    """

    def __init__(self, model: IlpModel, layout: Layout, atom_backend: AtomBackend,
                 allow_inner_next: bool = True):
        self.model = model
        self.layout = layout
        self.atom_backend = atom_backend
        self.allow_inner_next = allow_inner_next
        self._done: set[tuple[InnerFormula, int]] = set()

    def var(self, phi: InnerFormula, n: int, t: int) -> VarId:
        self.ensure_row(phi, n)
        return self.layout.inner[(phi, n, t)]

    def row(self, phi: InnerFormula, n: int) -> list[VarId]:
        self.ensure_row(phi, n)
        return [self.layout.inner[(phi, n, t)] for t in range(self.layout.horizon_ext)]

    # -- helpers ---------------------------------------------------------

    def _set(self, phi, n, t, var: VarId):
        self.layout.inner[(phi, n, t)] = var

    def _alias_row(self, phi, n, source: InnerFormula):
        self.ensure_row(source, n)
        for t in range(self.layout.horizon_ext):
            self._set(phi, n, t, self.layout.inner[(source, n, t)])

    def _tie_extended(self, phi, n):
        """Positions h .. h+tau-1 of a temporal row equal their wrapped
        loop positions once the loop start is chosen."""
        lay = self.layout
        for t in range(lay.h, lay.horizon_ext):
            v = self.model.add_binary(f"z{lay.fid(phi)}_n{n}_t{t}", tag="inner")
            lay.tie_to_loop(v, n, t, lambda w, phi=phi, n=n: lay.inner[(phi, n, w)],
                            tag="inner")
            self._set(phi, n, t, v)

    # -- row construction -------------------------------------------------

    def ensure_row(self, phi: InnerFormula, n: int) -> None:
        if (phi, n) in self._done:
            return
        self._done.add((phi, n))
        lay = self.layout
        model = self.model
        h, h_ext = lay.h, lay.horizon_ext

        if isinstance(phi, ITrue):
            one = model.constant(1)
            for t in range(h_ext):
                self._set(phi, n, t, one)
        elif phi == INNER_FALSE:
            zero = model.constant(0)
            for t in range(h_ext):
                self._set(phi, n, t, zero)
        elif isinstance(phi, IAtom):
            for t in range(h_ext):
                self._set(phi, n, t, self.atom_backend(phi.name, n, t))
        elif isinstance(phi, INot):
            if not isinstance(phi.child, (IAtom, ITrue)):
                raise EncodingError(
                    "inner negation must sit on atoms; normalize the formula first")
            self.ensure_row(phi.child, n)
            for t in range(h_ext):
                v = model.bool_not(lay.inner[(phi.child, n, t)],
                                   name=f"z{lay.fid(phi)}_n{n}_t{t}", tag="inner")
                self._set(phi, n, t, v)
        elif isinstance(phi, (IAnd, IOr)):
            for c in phi.children:
                self.ensure_row(c, n)
            op = "AND" if isinstance(phi, IAnd) else "OR"
            for t in range(h_ext):
                v = model.bool_gadget(
                    op, [lay.inner[(c, n, t)] for c in phi.children],
                    name=f"z{lay.fid(phi)}_n{n}_t{t}", tag="inner")
                self._set(phi, n, t, v)
        elif isinstance(phi, INext):
            if not self.allow_inner_next:
                raise EncodingError(
                    "inner next is not allowed here: a single delayed robot can "
                    "violate it under asynchrony")
            if lay.tau:
                raise EncodingError("inner next is unsupported in robust encodings")
            self.ensure_row(phi.child, n)
            for t in range(h - 1):
                self._set(phi, n, t, lay.inner[(phi.child, n, t + 1)])
            wrap = self._loop_or(phi.child, n, aux=False)
            self._set(phi, n, h - 1, wrap)
        elif isinstance(phi, IEventually):
            self._alias_row(phi, n, IUntil(ITrue(), phi.child))
        elif isinstance(phi, IAlways):
            self._alias_row(phi, n, IRelease(INNER_FALSE, phi.child))
        elif isinstance(phi, IUntil):
            self._until_release_row(phi, n, release=False)
        elif isinstance(phi, IRelease):
            self._until_release_row(phi, n, release=True)
        else:
            raise TypeError(f"not an inner formula: {phi!r}")

    def _loop_or(self, phi: InnerFormula, n: int, aux: bool) -> VarId:
        """OR over loop candidates of (loop chosen at l) AND (row value at l)."""
        lay = self.layout
        store = lay.inner_aux if aux else lay.inner
        terms = [self.model.bool_and([lay.loop_vars[l], store[(phi, n, l)]], tag="inner")
                 for l in range(lay.h)]
        return self.model.bool_or(terms, tag="inner")

    def _until_release_row(self, phi, n, release: bool):
        lay = self.layout
        model = self.model
        h = lay.h
        lhs, rhs = phi.lhs, phi.rhs
        self.ensure_row(lhs, n)
        self.ensure_row(rhs, n)
        fid = lay.fid(phi)

        # Auxiliary pass: satisfaction restricted to the window [t, h-1],
        # evaluated at the loop start to decide the wrap-around value.
        lay.inner_aux[(phi, n, h - 1)] = lay.inner[(rhs, n, h - 1)]
        for t in range(h - 2, -1, -1):
            if release:
                inner_or = model.bool_or(
                    [lay.inner[(lhs, n, t)], lay.inner_aux[(phi, n, t + 1)]], tag="inner")
                v = model.bool_and([lay.inner[(rhs, n, t)], inner_or],
                                   name=f"zt{fid}_n{n}_t{t}", tag="inner")
            else:
                inner_and = model.bool_and(
                    [lay.inner[(lhs, n, t)], lay.inner_aux[(phi, n, t + 1)]], tag="inner")
                v = model.bool_or([lay.inner[(rhs, n, t)], inner_and],
                                  name=f"zt{fid}_n{n}_t{t}", tag="inner")
            lay.inner_aux[(phi, n, t)] = v

        wrap = self._loop_or(phi, n, aux=True)
        if release:
            cont = model.bool_or([lay.inner[(lhs, n, h - 1)], wrap], tag="inner")
            v = model.bool_and([lay.inner[(rhs, n, h - 1)], cont],
                               name=f"z{fid}_n{n}_t{h - 1}", tag="inner")
        else:
            cont = model.bool_and([lay.inner[(lhs, n, h - 1)], wrap], tag="inner")
            v = model.bool_or([lay.inner[(rhs, n, h - 1)], cont],
                              name=f"z{fid}_n{n}_t{h - 1}", tag="inner")
        self._set(phi, n, h - 1, v)
        for t in range(h - 2, -1, -1):
            if release:
                cont = model.bool_or(
                    [lay.inner[(lhs, n, t)], lay.inner[(phi, n, t + 1)]], tag="inner")
                v = model.bool_and([lay.inner[(rhs, n, t)], cont],
                                   name=f"z{fid}_n{n}_t{t}", tag="inner")
            else:
                cont = model.bool_and(
                    [lay.inner[(lhs, n, t)], lay.inner[(phi, n, t + 1)]], tag="inner")
                v = model.bool_or([lay.inner[(rhs, n, t)], cont],
                                  name=f"z{fid}_n{n}_t{t}", tag="inner")
            self._set(phi, n, t, v)
        if lay.tau:
            self._tie_extended(phi, n)


def encode_inner(model: IlpModel, layout: Layout, phi: InnerFormula, n: int,
                 inst: Optional[MultiRobotInstance] = None) -> list[VarId]:
    """Row of z variables for phi and robot n over 0 .. h+tau-1."""
    inst = inst if inst is not None else getattr(layout, "instance")
    enc = getattr(layout, "inner_encoder", None)
    if enc is None:
        enc = InnerEncoder(model, layout, discrete_atom_backend(layout, inst))
        layout.inner_encoder = enc
    return enc.row(phi, n)


# ---------------------------------------------------------------------------
# Outer logic
# ---------------------------------------------------------------------------

class OuterEncoder:
    """Creates y[mu][t] rows for t = 0..h-1 with y = 1 iff the collection
    satisfies mu at step t under the synchronous execution."""

    TAG = "outer"

    def __init__(self, model: IlpModel, layout: Layout, inner: Optional[InnerEncoder],
                 n_robots: int):
        self.model = model
        self.layout = layout
        self.inner = inner
        self.n_robots = n_robots
        self._done: set[OuterFormula] = set()

    def var(self, mu: OuterFormula, t: int) -> VarId:
        self.ensure_row(mu)
        return self.layout.outer[(mu, t)]

    def row(self, mu: OuterFormula) -> list[VarId]:
        self.ensure_row(mu)
        return [self.layout.outer[(mu, t)] for t in range(self.layout.h)]

    def _set(self, mu, t, var: VarId):
        self.layout.outer[(mu, t)] = var

    def _alias_row(self, mu, source: OuterFormula):
        self.ensure_row(source)
        for t in range(self.layout.h):
            self._set(mu, t, self.layout.outer[(source, t)])

    def ensure_row(self, mu: OuterFormula) -> None:
        if mu in self._done:
            return
        self._done.add(mu)
        lay = self.layout
        model = self.model
        h = lay.h
        if isinstance(mu, OTrue):
            one = model.constant(1)
            for t in range(h):
                self._set(mu, t, one)
        elif isinstance(mu, ONot):
            raise EncodingError(
                "outer negation must be eliminated first; normalize to "
                "positive normal form")
        elif isinstance(mu, Tcp):
            self._tcp_row(mu)
        elif isinstance(mu, OAnd):
            for c in mu.children:
                self.ensure_row(c)
            for t in range(h):
                v = model.bool_and([lay.outer[(c, t)] for c in mu.children],
                                   name=f"y{lay.fid(mu)}_t{t}", tag=self.TAG)
                self._set(mu, t, v)
        elif isinstance(mu, OOr):
            self._or_row(mu)
        elif isinstance(mu, ONext):
            self.ensure_row(mu.child)
            for t in range(h - 1):
                self._set(mu, t, lay.outer[(mu.child, t + 1)])
            terms = [model.bool_and([lay.loop_vars[l], lay.outer[(mu.child, l)]],
                                    tag=self.TAG) for l in range(h)]
            self._set(mu, h - 1, model.bool_or(terms, name=f"y{lay.fid(mu)}_t{h - 1}",
                                               tag=self.TAG))
        elif isinstance(mu, OEventually):
            self._alias_row(mu, OUntil(OTrue(), mu.child))
        elif isinstance(mu, OAlways):
            self._alias_row(mu, ORelease(outer_false(self.n_robots), mu.child))
        elif isinstance(mu, OUntil):
            self._until_row(mu)
        elif isinstance(mu, ORelease):
            self._release_row(mu)
        else:
            raise TypeError(f"not an outer formula: {mu!r}")

    # -- counting propositions ------------------------------------------

    def _tcp_scope(self, tcp: Tcp) -> list[int]:
        if tcp.group is None:
            return list(range(self.n_robots))
        if isinstance(tcp.group, str):
            raise EncodingError(f"unresolved robot group {tcp.group!r}")
        scope = sorted(tcp.group)
        if any(not (0 <= r < self.n_robots) for r in scope):
            raise EncodingError(f"group member out of range in {tcp}")
        return scope

    def _tcp_row(self, tcp: Tcp) -> None:
        lay = self.layout
        scope = self._tcp_scope(tcp)
        big_m = len(scope) + 1
        for n in scope:
            self.inner.ensure_row(tcp.inner, n)
        for t in range(lay.h):
            expr = LinExpr.sum_of(lay.inner[(tcp.inner, n, t)] for n in scope)
            y = self.model.indicator_geq(expr, tcp.m, big_m,
                                         name=f"y{lay.fid(tcp)}_t{t}", tag=self.TAG)
            self._set(tcp, t, y)

    # -- composite operators ----------------------------------------------

    def _or_row(self, mu: OOr) -> None:
        lay = self.layout
        for c in mu.children:
            self.ensure_row(c)
        for t in range(lay.h):
            v = self.model.bool_or([lay.outer[(c, t)] for c in mu.children],
                                   name=f"y{lay.fid(mu)}_t{t}", tag=self.TAG)
            self._set(mu, t, v)

    def _until_guard(self, mu: OUntil) -> OuterFormula:
        """Formula that must keep holding while waiting for the right side;
        plain until uses the left side itself.  The robust encoder widens it
        to ``lhs | rhs`` for tau >= 1: under counter drift the handover step
        can show some robots still on the left task and others already on
        the right one, so only the disjunction holds robustly there.  In the
        recurrence of ``_until_row`` the guard matters only at steps where
        the right side does not hold, so the wider guard accepts the mixed
        handover without otherwise changing the until."""
        return mu.lhs

    def _until_row(self, mu: OUntil) -> None:
        """Rows for ``mu = lhs U rhs`` from the standard recurrence

            y[t] = rhs[t] | (guard[t] & y[t+1])

        where ``guard`` comes from ``_until_guard``.  The right side alone
        settles the until; the guard is only needed while waiting.  At h-1,
        y[t+1] is the value at the loop start, read from an auxiliary pass
        that evaluates the same recurrence on the window [t, h-1] (with
        yt[h-1] = rhs[h-1]), so a lasso never satisfies the until by
        postponing the right side forever."""
        lay = self.layout
        model = self.model
        h = lay.h
        guard = self._until_guard(mu)
        self.ensure_row(guard)
        self.ensure_row(mu.rhs)
        fid = lay.fid(mu)

        lay.outer_aux[(mu, h - 1)] = lay.outer[(mu.rhs, h - 1)]
        for t in range(h - 2, -1, -1):
            wait = model.bool_and([lay.outer[(guard, t)], lay.outer_aux[(mu, t + 1)]],
                                  tag=self.TAG)
            lay.outer_aux[(mu, t)] = model.bool_or(
                [lay.outer[(mu.rhs, t)], wait], name=f"yt{fid}_t{t}", tag=self.TAG)

        wrap_terms = [model.bool_and([lay.loop_vars[l], lay.outer_aux[(mu, l)]],
                                     tag=self.TAG) for l in range(h)]
        wrap = model.bool_or(wrap_terms, tag=self.TAG)
        wait = model.bool_and([lay.outer[(guard, h - 1)], wrap], tag=self.TAG)
        self._set(mu, h - 1, model.bool_or([lay.outer[(mu.rhs, h - 1)], wait],
                                           name=f"y{fid}_t{h - 1}", tag=self.TAG))
        for t in range(h - 2, -1, -1):
            wait = model.bool_and([lay.outer[(guard, t)], lay.outer[(mu, t + 1)]],
                                  tag=self.TAG)
            self._set(mu, t, model.bool_or([lay.outer[(mu.rhs, t)], wait],
                                           name=f"y{fid}_t{t}", tag=self.TAG))

    def _release_row(self, mu: ORelease) -> None:
        lay = self.layout
        model = self.model
        h = lay.h
        self.ensure_row(mu.lhs)
        self.ensure_row(mu.rhs)
        fid = lay.fid(mu)

        lay.outer_aux[(mu, h - 1)] = lay.outer[(mu.rhs, h - 1)]
        for t in range(h - 2, -1, -1):
            release = model.bool_or([lay.outer[(mu.lhs, t)], lay.outer_aux[(mu, t + 1)]],
                                    tag=self.TAG)
            lay.outer_aux[(mu, t)] = model.bool_and(
                [lay.outer[(mu.rhs, t)], release], name=f"yt{fid}_t{t}", tag=self.TAG)

        wrap_terms = [model.bool_and([lay.loop_vars[l], lay.outer_aux[(mu, l)]],
                                     tag=self.TAG) for l in range(h)]
        wrap = model.bool_or(wrap_terms, tag=self.TAG)
        release = model.bool_or([lay.outer[(mu.lhs, h - 1)], wrap], tag=self.TAG)
        self._set(mu, h - 1, model.bool_and([lay.outer[(mu.rhs, h - 1)], release],
                                            name=f"y{fid}_t{h - 1}", tag=self.TAG))
        for t in range(h - 2, -1, -1):
            release = model.bool_or([lay.outer[(mu.lhs, t)], lay.outer[(mu, t + 1)]],
                                    tag=self.TAG)
            self._set(mu, t, model.bool_and([lay.outer[(mu.rhs, t)], release],
                                            name=f"y{fid}_t{t}", tag=self.TAG))


def encode_outer_sync(model: IlpModel, layout: Layout, mu: OuterFormula,
                      h: Optional[int] = None) -> list[VarId]:
    """Row of y variables for a formula already in positive normal form."""
    enc = getattr(layout, "outer_encoder", None)
    if enc is None:
        inner = getattr(layout, "inner_encoder", None)
        if inner is None:
            inner = InnerEncoder(model, layout,
                                 discrete_atom_backend(layout, layout.instance))
            layout.inner_encoder = inner
        enc = OuterEncoder(model, layout, inner, layout.n_robots)
        layout.outer_encoder = enc
    return enc.row(mu)


# ---------------------------------------------------------------------------
# Problem assembly and extraction
# ---------------------------------------------------------------------------

def _check_instance(inst: MultiRobotInstance, mu: OuterFormula) -> None:
    problems = validate(inst)
    if problems:
        raise EncodingError("; ".join(problems))
    known = set(inst.ap)
    missing = atoms_of(mu) - known
    if missing:
        raise EncodingError(f"formula uses unknown propositions: {sorted(missing)}")
    unknown_groups = group_names_of(mu) - set(inst.groups)
    if unknown_groups:
        raise EncodingError(f"formula uses unknown groups: {sorted(unknown_groups)}")


def build_sync_problem(inst: MultiRobotInstance, mu: OuterFormula, h: int,
                       collision: Optional[str] = None) -> EncodedProblem:
    """Full synchronous feasibility program: dynamics + loop + logic
    constraints + optional collision constraints, with the root formula
    pinned true at step 0."""
    if collision is not None:
        inst = MultiRobotInstance(inst.systems, inst.initial_states, inst.groups,
                                  collision, inst.grid_shape)
    _check_instance(inst, mu)
    norm = normalize(mu, inst.n_robots, robust=False, groups=inst.groups)
    model = IlpModel("sync")
    layout = encode_dynamics(model, inst, h)
    encode_loop(model, layout, h)
    encode_collision(model, layout, inst, h, tau=0)
    inner = InnerEncoder(model, layout, discrete_atom_backend(layout, inst))
    layout.inner_encoder = inner
    outer = OuterEncoder(model, layout, inner, inst.n_robots)
    layout.outer_encoder = outer
    root = outer.var(norm, 0)
    model.add_constraint(LinExpr({root: 1}), "=", 1, tag="root")
    return EncodedProblem(model, layout, inst, norm, mu, h, 0, "cltlplus")


def extract_trajectories(layout: Layout, sol: Solution) -> list[LassoTrajectory]:
    """Read one-hot state assignments back into per-robot lassos."""
    if not sol.feasible:
        raise ExtractionError("solution is not feasible")
    loop_hits = [t for t, z in enumerate(layout.loop_vars) if round(sol[z]) == 1]
    if len(loop_hits) != 1:
        raise ExtractionError(f"expected exactly one loop start, found {loop_hits}")
    l = loop_hits[0]
    out = []
    for n in range(layout.n_robots):
        states = []
        for t in range(layout.h + 1):
            row = layout.state_vars[(n, t)]
            ones = [i for i, v in enumerate(row) if round(sol[v]) == 1]
            if len(ones) != 1:
                raise ExtractionError(
                    f"robot {n} step {t}: state assignment is not one-hot ({ones})")
            states.append(ones[0])
        out.append(LassoTrajectory(tuple(states), l))
    return out
