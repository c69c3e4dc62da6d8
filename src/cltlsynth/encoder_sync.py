"""Synchronous ILP encoding: robot dynamics as one-hot state vectors,
lasso loop selection, recursive inner/outer logic constraints, optional
inter-robot collision constraints, and trajectory extraction.

Conventions: state vectors w[n][t] have one entry per state for t = 0..h
(plus h+1..h+tau in robust mode), but only the states robot n can occupy
after exactly t steps are variables; every other entry is the model's
shared constant 0, and no row mentions it.  Logic variables z/y exist for
t = 0..h-1, with w[h] reserved for closing the loop.

Every encoder (synchronous, robust, aggregate, continuous) builds its
logic on one core defined here:

- ``loop_value`` reads a row at the chosen loop start, OR over l of
  (z_l AND row[l]); it closes next and every until/release at h-1.
- ``until_release_row`` is the one until/release recurrence,
  y[t] = rhs[t] | (lhs[t] & y[t+1]) and its dual, with the auxiliary
  window pass that keeps a loop from justifying itself.
- ``OuterEncoder._at_least`` is the one counting threshold: constant 1 for
  m <= 0, constant 0 for m above the number of robots counted, and an
  indicator row pair in between.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .formula import (IAnd, IAtom, INNER_FALSE, INext, INot, IOr, IRelease,
                      ITrue, IUntil, InnerFormula, OAnd, ONext, ONot, OOr,
                      ORelease, OTrue, OUntil, OuterFormula, Tcp, atoms_of,
                      group_names_of, normalize)
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
        self.robust: dict[tuple[InnerFormula, int, int], VarId] = {}
        self.outer: dict[tuple[OuterFormula, int], VarId] = {}
        self.outer_extra: dict[tuple, VarId] = {}
        # aggregate-encoding slots
        self.agg_state: dict[int, list[VarId]] = {}
        self.agg_flow: dict[tuple[int, int, int], VarId] = {}
        # continuous-encoding slots
        self.input_vars: dict[tuple[int, int], list[VarId]] = {}
        self.state_exprs: dict[tuple[int, int], list[LinExpr]] = {}
        self.instance = None
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


def add_loop_selectors(model: IlpModel, layout: Layout) -> None:
    """Loop-start selectors z_0 .. z_{h-1}, exactly one of them 1."""
    layout.loop_vars = [model.add_binary(f"zloop_{t}", tag="loop")
                        for t in range(layout.h)]
    model.add_constraint(LinExpr.sum_of(layout.loop_vars), "=", 1, tag="loop")


def chosen_loop(layout: Layout, sol: Solution) -> int:
    """The loop start whose selector is 1 in ``sol``."""
    hits = [t for t, z in enumerate(layout.loop_vars) if round(sol[z]) == 1]
    if len(hits) != 1:
        raise ExtractionError(f"expected exactly one loop start, found {hits}")
    return hits[0]


def encode_loop(model: IlpModel, layout: Layout, h: int) -> list[VarId]:
    """Select a unique loop start l with w[n][h] = w[n][l] for every robot.

    One side suffices: ``w[n][t][i] + z_t - w[n][h][i] <= 1`` for each live
    entry of w[n][t] gives w[n][h] >= w[n][l] once z_l = 1, and two one-hot
    vectors with w[h] >= w[l] are equal.  Where w[n][h][i] is the constant
    0 the row reads ``w[n][t][i] + z_t <= 1``."""
    add_loop_selectors(model, layout)
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
# Lasso recurrences shared by the inner and outer logic
# ---------------------------------------------------------------------------

def loop_value(model: IlpModel, loop_vars: list[VarId], row: list[VarId],
               name: Optional[str] = None, *, tag: str) -> VarId:
    """The value of ``row`` at the chosen loop start: OR over l of
    (z_l AND row[l]).  Exactly one loop selector z_l is 1, so the OR has
    one live term, and position h of the lasso reads row[l]."""
    terms = [model.bool_and([z, row[l]], tag=tag) for l, z in enumerate(loop_vars)]
    return model.bool_or(terms, name=name, tag=tag)


def until_release_row(model: IlpModel, loop_vars: list[VarId], lhs: list[VarId],
                      rhs: list[VarId], release: bool, name: str,
                      tag: str) -> list[VarId]:
    """Row y[0..h-1] of ``lhs U rhs`` (or ``lhs R rhs``) on the lasso, with
    h = len(loop_vars), from the recurrence

        until:    y[t] = rhs[t] | (lhs[t] & y[t+1])
        release:  y[t] = rhs[t] & (lhs[t] | y[t+1])

    y[h] is y at the loop start, but reading the main row there would let
    a loop justify itself: an until could postpone its right side forever.
    So an auxiliary pass yt evaluates the same recurrence on the window
    [t, h-1] only, with yt[h-1] = rhs[h-1], and y[h-1] reads
    ``loop_value`` of yt.  This is the linear bounded-lasso encoding of
    Biere et al., "Linear Encodings of Bounded LTL Model Checking", LMCS
    2006.  ``name`` is a template with ``{aux}`` ("t" in the auxiliary pass,
    empty in the main one) and ``{t}`` fields."""
    h = len(loop_vars)
    wait, settle = ((model.bool_or, model.bool_and) if release
                    else (model.bool_and, model.bool_or))

    def step(t: int, nxt: VarId, aux: str) -> VarId:
        return settle([rhs[t], wait([lhs[t], nxt], tag=tag)],
                      name=name.format(aux=aux, t=t), tag=tag)

    window = [rhs[h - 1]] * h
    for t in range(h - 2, -1, -1):
        window[t] = step(t, window[t + 1], "t")
    row = [step(h - 1, loop_value(model, loop_vars, window, tag=tag), "")] * h
    for t in range(h - 2, -1, -1):
        row[t] = step(t, row[t + 1], "")
    return row


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

    def __init__(self, model: IlpModel, layout: Layout, atom_backend: AtomBackend):
        self.model = model
        self.layout = layout
        self.atom_backend = atom_backend
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
            if lay.tau:
                raise EncodingError(
                    "inner next is not robust to asynchrony: a single delayed "
                    "robot can violate it")
            child = self.row(phi.child, n)
            for t in range(h - 1):
                self._set(phi, n, t, child[t + 1])
            self._set(phi, n, h - 1, loop_value(model, lay.loop_vars, child,
                                                tag="inner"))
        elif isinstance(phi, (IUntil, IRelease)):
            self._until_release_row(phi, n, release=isinstance(phi, IRelease))
        else:
            raise TypeError(f"not an inner formula: {phi!r}")

    def _until_release_row(self, phi, n, release: bool):
        lay = self.layout
        lhs, rhs = self.row(phi.lhs, n), self.row(phi.rhs, n)
        row = until_release_row(self.model, lay.loop_vars, lhs, rhs, release,
                                f"z{{aux}}{lay.fid(phi)}_n{n}_t{{t}}", "inner")
        for t, v in enumerate(row):
            self._set(phi, n, t, v)
        if lay.tau:
            self._tie_extended(phi, n)


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
            child = self.row(mu.child)
            for t in range(h - 1):
                self._set(mu, t, child[t + 1])
            self._set(mu, h - 1, loop_value(model, lay.loop_vars, child,
                                            f"y{lay.fid(mu)}_t{h - 1}", tag=self.TAG))
        elif isinstance(mu, (OUntil, ORelease)):
            self._until_release_row(mu, release=isinstance(mu, ORelease))
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

    def _at_least(self, count: Iterable[VarId], m: int, size: int,
                  node: OuterFormula, t: int, prefix: str = "y") -> VarId:
        """Binary equal to [sum of ``count`` >= m], for a count of at most
        ``size`` robots.  A threshold m <= 0 always holds and one above
        ``size`` never does: both are constants, and the lazy ``count`` is
        never consumed, so nothing that only it would read gets built.
        Otherwise the count is summed before the indicator's name
        ``{prefix}{fid(node)}_t{t}`` is made, so formula ids follow
        creation order."""
        if m <= 0:
            return self.model.constant(1)
        if m > size:
            return self.model.constant(0)
        expr = LinExpr.sum_of(count)
        return self.model.indicator_geq(
            expr, m, size + 1, name=f"{prefix}{self.layout.fid(node)}_t{t}",
            tag=self.TAG, known_bounds=(0, size))

    def _tcp_row(self, tcp: Tcp) -> None:
        scope = self._tcp_scope(tcp)
        for t in range(self.layout.h):
            count = (self.inner.var(tcp.inner, n, t) for n in scope)
            self._set(tcp, t, self._at_least(count, tcp.m, len(scope), tcp, t))

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
        """Formula that must keep holding while waiting for the right side
        of an until (the ``lhs`` of ``until_release_row``); plain until uses
        the left side itself.  The robust encoder widens it to ``lhs | rhs``
        for tau >= 1: under counter drift the handover step can show some
        robots still on the left task and others already on the right one,
        so only the disjunction holds robustly there.  In the recurrence the
        guard matters only at steps where the right side does not hold, so
        the wider guard accepts the mixed handover without otherwise
        changing the until."""
        return mu.lhs

    def _until_release_row(self, mu: Union[OUntil, ORelease], release: bool) -> None:
        lay = self.layout
        lhs = self.row(mu.lhs if release else self._until_guard(mu))
        rhs = self.row(mu.rhs)
        row = until_release_row(self.model, lay.loop_vars, lhs, rhs, release,
                                f"y{{aux}}{lay.fid(mu)}_t{{t}}", self.TAG)
        for t, v in enumerate(row):
            self._set(mu, t, v)


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
    outer = OuterEncoder(model, layout, inner, inst.n_robots)
    root = outer.var(norm, 0)
    model.add_constraint(LinExpr({root: 1}), "=", 1, tag="root")
    return EncodedProblem(model, layout, inst, norm, mu, h, 0, "cltlplus")


def extract_trajectories(layout: Layout, sol: Solution) -> list[LassoTrajectory]:
    """Read one-hot state assignments back into per-robot lassos."""
    if not sol.feasible:
        raise ExtractionError("solution is not feasible")
    l = chosen_loop(layout, sol)
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
