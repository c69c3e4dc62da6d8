"""Synchronous ILP encoding: robot dynamics as one-hot state vectors,
lasso loop selection, recursive logic constraints for both formula layers,
optional inter-robot collision constraints, and trajectory extraction.

Conventions: state vectors w[n][t] have one entry per state for t = 0..h
(plus h+1..h+tau in robust mode), but only the states robot n can occupy
after exactly t steps are variables; every other entry is the model's
shared constant 0, and no row mentions it.  Logic variables z/y exist for
t = 0..h-1, with w[h] reserved for closing the loop.

Every encoder (synchronous, robust, aggregate, continuous) builds its
program on one core defined here:

- ``prepare_formula`` is the one formula front end of every builder, and
  ``Layout`` holds each program's fleet, h and tau for the row helpers.
- ``LogicEncoder`` builds the rows of inner and outer subformulas with one
  recursion; the robust and aggregate engines subclass it only where the
  paper's semantics differ.
- ``tie_state`` pins a state vector past the horizon to its wrapped loop
  position; at t = h it closes the loop.
- ``loop_value`` reads a row at the chosen loop start, OR over l of
  (z_l AND row[l]); it closes next and every until/release at h-1.
- ``until_release_row`` is the one until/release recurrence,
  y[t] = rhs[t] | (lhs[t] & y[t+1]) and its dual, with the auxiliary
  window pass that keeps a loop from justifying itself.
- ``LogicEncoder._at_least`` is the one counting threshold: constant 1 for
  m <= 0, constant 0 for m above the number of robots counted, and an
  indicator row pair in between.

Rows go to the model through ``IlpModel.add_row`` in a fixed order, and a
gadget keeps a constant input (the shared ``const_0`` or ``const_1``)
rather than folding it away.  HiGHS's time swings per instance on any
change to the program (``solver``): folding constant gadget inputs cut
the benchmark's ``emergency-lp`` synth.total by 12% but raised
``ladder-bnb`` synth.max by 20%.  ``tests/test_program_identity.py`` pins
the programs byte for byte.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .formula import (IAnd, IAtom, INNER_FALSE, INext, INot, IOr, IRelease,
                      ITrue, IUntil, InnerFormula, OAnd, ONext, ONot, OOr,
                      ORelease, OTrue, OUntil, OuterFormula, Tcp, atoms_of,
                      group_names_of, iter_tcps, normalize, subformulas)
from .ilp import IlpModel, LinExpr, Solution, VarId
from .system import ContinuousSystem, MultiRobotInstance
from .trajectory import LassoTrajectory

AtomBackend = Callable[[str, int, int], VarId]
Formula = Union[InnerFormula, OuterFormula]
Fleet = Union[MultiRobotInstance, ContinuousSystem]


class EncodingError(ValueError):
    pass


class ExtractionError(RuntimeError):
    """A supposedly feasible assignment is not a clean one-hot trajectory."""


class Layout:
    """Bookkeeping that maps (robot, time, subformula) to variable ids; the
    one source of the program's model, fleet, h and tau for every helper."""

    def __init__(self, model: IlpModel, instance: Fleet, h: int, tau: int = 0):
        if h < 1:
            raise EncodingError("horizon must be at least 1")
        if tau < 0:
            raise EncodingError("asynchrony bound must be nonnegative")
        self.model = model
        self.instance = instance
        self.n_robots = instance.n_robots
        self.h = h
        self.tau = tau
        self.state_vars: dict[tuple[int, int], list[VarId]] = {}
        # ascending indices of the entries of state_vars that are variables
        self.live: dict[tuple[int, int], list[int]] = {}
        self.loop_vars: list[VarId] = []
        # logic rows by (subformula, robot), robot None for outer formulas
        self.rows: dict[tuple[Formula, Optional[int]], list[VarId]] = {}
        self.robust: dict[tuple[InnerFormula, int, int], VarId] = {}
        self.outer_extra: dict[tuple, VarId] = {}
        # aggregate-encoding slots
        self.agg_state: dict[int, list[VarId]] = {}
        self.agg_flow: dict[tuple[int, int, int], VarId] = {}
        # continuous-encoding slots
        self.input_vars: dict[tuple[int, int], list[VarId]] = {}
        self.state_exprs: dict[tuple[int, int], list[LinExpr]] = {}
        self._formula_ids: dict = {}

    def fid(self, node) -> int:
        if node not in self._formula_ids:
            self._formula_ids[node] = len(self._formula_ids)
        return self._formula_ids[node]

    def wrap_index(self, loop_start: int, t: int) -> int:
        """Position of time t >= h on the lasso that loops at loop_start."""
        period = self.h - loop_start
        return loop_start + (t - loop_start) % period


@dataclass
class EncodedProblem:
    """A built model plus everything needed to interpret its solutions."""

    model: IlpModel
    layout: Layout
    instance: Fleet
    h: int
    tau: int
    engine: str


# ---------------------------------------------------------------------------
# Dynamics, loop, collision
# ---------------------------------------------------------------------------

def add_state_vector(layout: Layout, n: int, t: int, live: list[int], tag: str) -> None:
    """w[n][t] over robot n's states: a binary for each state in ``live``
    (ascending), the shared constant 0 everywhere else, and the one-hot row
    over the live entries.  With nothing live the row reads
    ``const_0 = 1``, which no point meets."""
    model, n_states = layout.model, layout.instance.systems[n].n_states
    zero = model.constant(0) if len(live) < n_states else None
    row = [zero] * n_states
    for i in live:
        row[i] = model.add_binary(f"w_{n}_{t}_{i}", tag=tag)
    layout.state_vars[(n, t)] = row
    layout.live[(n, t)] = live
    one_hot = [row[i] for i in live] if live else [zero]
    model.add_row(one_hot, [1] * len(one_hot), "=", 1, tag)


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
    layout = Layout(model, inst, h, tau)
    for n, ts in enumerate(inst.systems):
        succ = [ts.successors(i) for i in range(ts.n_states)]
        preds = [ts.predecessors(j) for j in range(ts.n_states)]
        live = [inst.initial_states[n]]
        add_state_vector(layout, n, 0, live, "dynamics")
        for t in range(h):
            cur = layout.state_vars[(n, t)]
            cur_live = set(live)
            live = successor_set(succ, live)
            add_state_vector(layout, n, t + 1, live, "dynamics")
            nxt = layout.state_vars[(n, t + 1)]
            for j in live:
                cols = [nxt[j]] + [cur[i] for i in preds[j] if i in cur_live]
                model.add_row(cols, [1] + [-1] * (len(cols) - 1), "<=", 0, "dynamics")
    return layout


def add_loop_selectors(layout: Layout) -> None:
    """Loop-start selectors z_0 .. z_{h-1}, exactly one of them 1."""
    layout.loop_vars = [layout.model.add_binary(f"zloop_{t}", tag="loop")
                        for t in range(layout.h)]
    layout.model.add_row(layout.loop_vars, [1] * layout.h, "=", 1, "loop")


def chosen_loop(layout: Layout, sol: Solution) -> int:
    """The loop start whose selector is 1 in ``sol``."""
    hits = [t for t, z in enumerate(layout.loop_vars) if round(sol[z]) == 1]
    if len(hits) != 1:
        raise ExtractionError(f"expected exactly one loop start, found {hits}")
    return hits[0]


def tie_state(layout: Layout, n: int, t: int, tag: str) -> None:
    """Pin w[n][t], t >= h, to w[n][wrap(l, t)] for the chosen loop start l.

    One side suffices: ``src[i] + z_l - w[n][t][i] <= 1`` for each live
    entry i of the wrapped source gives w[n][t] >= src once z_l = 1, and
    two one-hot vectors with w[t] >= src are equal.  Where w[n][t][i] is
    the constant 0 the row reads ``src[i] + z_l <= 1``.  At t = h the
    source is w[n][l] itself, since wrap(l, h) = l."""
    model = layout.model
    dst = layout.state_vars[(n, t)]
    dst_live = set(layout.live[(n, t)])
    for l, z in enumerate(layout.loop_vars):
        src_t = layout.wrap_index(l, t)
        src = layout.state_vars[(n, src_t)]
        for i in layout.live[(n, src_t)]:
            if i in dst_live:
                model.add_row((src[i], z, dst[i]), (1, 1, -1), "<=", 1, tag)
            else:
                model.add_row((src[i], z), (1, 1), "<=", 1, tag)


def encode_loop(layout: Layout) -> None:
    """Select a unique loop start l with w[n][h] = w[n][l] for every robot."""
    add_loop_selectors(layout)
    for n in range(layout.n_robots):
        tie_state(layout, n, layout.h, "loop")


def encode_collision(layout: Layout) -> None:
    """Inter-robot exclusion over the fleet's shared state space.

    At every step, at most one robot per state: one clique row per state.
    With tau > 0 the exclusion is widened to every pair of steps dt =
    1..tau apart, since asynchrony can bring those positions together at
    the same wall-clock instant: two directed pair rows per robot pair and
    state, one for each robot ahead.  The swap variant additionally
    forbids two robots exchanging states across one step.  A row that
    mentions a constant-0 state entry holds in every point, so only rows
    over live entries are emitted.
    """
    model, inst, tau = layout.model, layout.instance, layout.tau
    if inst.collision_mode == "off":
        return
    n_states = inst.systems[0].n_states
    times = sorted(t for (n, t) in layout.state_vars if n == 0)
    live = {key: set(states) for key, states in layout.live.items()}
    w = layout.state_vars
    for t in times:
        for i in range(n_states):
            here = [w[(n, t)][i] for n in range(inst.n_robots) if i in live[(n, t)]]
            if len(here) > 1:
                model.add_row(here, [1] * len(here), "<=", 1, "collision")
        for a, b in itertools.combinations(range(inst.n_robots), 2):
            for dt in range(1, tau + 1):
                if (a, t + dt) not in w:
                    continue
                for i in range(n_states):
                    for early, late in ((a, b), (b, a)):
                        if i in live[(early, t)] and i in live[(late, t + dt)]:
                            model.add_row((w[(early, t)][i], w[(late, t + dt)][i]),
                                          (1, 1), "<=", 1, "collision")
    if inst.collision_mode == "mutual_exclusion_plus_swap":
        for a, b in itertools.combinations(range(inst.n_robots), 2):
            # a moves i -> j while b moves j -> i, each by its own transitions
            swappable = [(i, j) for (i, j) in sorted(inst.systems[a].transitions)
                         if i != j and (j, i) in inst.systems[b].transitions]
            for t in times:
                if (a, t + 1) not in w:
                    continue
                for (i, j) in swappable:
                    if (i in live[(a, t)] and j in live[(b, t)]
                            and j in live[(a, t + 1)] and i in live[(b, t + 1)]):
                        model.add_row((w[(a, t)][i], w[(b, t)][j],
                                       w[(a, t + 1)][j], w[(b, t + 1)][i]),
                                      (1, 1, 1, 1), "<=", 3, "collision")


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
# Logic rows
# ---------------------------------------------------------------------------

def discrete_atom_backend(layout: Layout) -> AtomBackend:
    """Couples an atom variable to the labeled states the robot may occupy:
    z equals the label indicator applied to the one-hot state vector.  The
    sum skips constant-0 entries; with no live labeled state it pins z to
    0."""

    def backend(name: str, n: int, t: int) -> VarId:
        ts = layout.instance.systems[n]
        vec = ts.label_vector(name)
        z = layout.model.add_binary(f"z{layout.fid(IAtom(name))}_n{n}_t{t}", tag="inner")
        state = layout.state_vars[(n, t)]
        cols = [z] + [state[i] for i in layout.live[(n, t)] if vec[i]]
        coefs = [1] + [-1] * (len(cols) - 1)
        # label_count >= z and label_count <= z (strict < z+1 tightened by
        # integrality), i.e. z tracks membership exactly
        layout.model.add_row(cols, coefs, "<=", 0, "inner")
        layout.model.add_row(cols, coefs, ">=", 0, "inner")
        return z

    return backend


class LogicEncoder:
    """Rows of truth values for the subformulas of both formula layers,
    built by one recursion, as ``oracle._label`` evaluates them.

    ``row(phi, n)`` for an inner formula and robot n holds z[t] = 1 iff
    robot n satisfies phi at position t of its lasso, t = 0 .. h+tau-1;
    ``row(mu)`` for an outer formula holds y[t] = 1 iff the collection
    satisfies mu at step t under the synchronous execution, t = 0 .. h-1.
    The layers share every operator.  They differ only in their leaves
    (atoms through ``atom_backend``, counting propositions through
    ``_tcp_row``), in inner next, which no asynchrony tolerates, and in the
    robust tail: positions h .. h+tau-1 of an inner until or release row
    equal their wrapped loop positions.  Negation must sit on atoms."""

    TAG = "outer"

    def __init__(self, layout: Layout, atom_backend: Optional[AtomBackend] = None):
        self.layout = layout
        self.model = layout.model
        self.atom_backend = atom_backend

    def row(self, node: Formula, n: Optional[int] = None) -> list[VarId]:
        """The row of ``node``: inner for robot ``n``, outer for n None."""
        key = (node, n)
        if key not in self.layout.rows:
            self.layout.rows[key] = self._build(node, n)
        return self.layout.rows[key]

    def pin_root(self, mu: OuterFormula) -> None:
        """Require ``mu`` at step 0."""
        self.model.add_row((self.row(mu)[0],), (1,), "=", 1, "root")

    def _tag(self, n: Optional[int]) -> str:
        return "inner" if n is not None else self.TAG

    def _name(self, node: Formula, n: Optional[int], t: Union[int, str],
              aux: str = "") -> str:
        """``z{aux}{fid}_n{n}_t{t}`` for an inner row, ``y{aux}{fid}_t{t}``
        for an outer one; t and aux may be ``until_release_row``'s template
        fields."""
        fid = self.layout.fid(node)
        return f"z{aux}{fid}_n{n}_t{t}" if n is not None else f"y{aux}{fid}_t{t}"

    def _build(self, node: Formula, n: Optional[int]) -> list[VarId]:
        lay, model = self.layout, self.model
        h = lay.h
        size = h + lay.tau if n is not None else h
        tag = self._tag(n)
        if isinstance(node, (ITrue, OTrue)):
            return [model.constant(1)] * size
        if node == INNER_FALSE:
            return [model.constant(0)] * size
        if isinstance(node, IAtom):
            return [self.atom_backend(node.name, n, t) for t in range(size)]
        if isinstance(node, Tcp):
            return self._tcp_row(node)
        if isinstance(node, (INot, ONot)):
            if not isinstance(node.child, IAtom):
                raise EncodingError("negation must sit on atoms; normalize the "
                                    "formula to positive normal form first")
            child = self.row(node.child, n)
            return [model.bool_not(child[t], name=self._name(node, n, t), tag=tag)
                    for t in range(size)]
        if isinstance(node, (IAnd, OAnd)):
            return self._gate_row(model.bool_and, node, n)
        if isinstance(node, (IOr, OOr)):
            return self._or_row(node, n)
        if isinstance(node, (INext, ONext)):
            if n is not None and lay.tau:
                raise EncodingError(
                    "inner next is not robust to asynchrony: a single delayed "
                    "robot can violate it")
            child = self.row(node.child, n)
            return child[1:h] + [loop_value(model, lay.loop_vars, child,
                                            self._name(node, n, h - 1), tag=tag)]
        if isinstance(node, (IUntil, OUntil, IRelease, ORelease)):
            release = isinstance(node, (IRelease, ORelease))
            lhs = self.row(node.lhs if release else self._until_guard(node), n)
            rhs = self.row(node.rhs, n)
            row = until_release_row(model, lay.loop_vars, lhs, rhs, release,
                                    self._name(node, n, "{t}", "{aux}"), tag)
            if n is not None:
                row += [self._tie_to_loop(node, n, t, row) for t in range(h, size)]
            return row
        raise TypeError(f"not a formula: {node!r}")

    def _tie_to_loop(self, phi: InnerFormula, n: int, t: int,
                     row: list[VarId]) -> VarId:
        """A fresh z for position t >= h of an inner row, equal to the row
        at wrap(l, t) for the chosen loop start l."""
        lay, model = self.layout, self.model
        var = model.add_binary(self._name(phi, n, t), tag="inner")
        for l, z in enumerate(lay.loop_vars):
            target = row[lay.wrap_index(l, t)]
            model.add_row((var, target, z), (1, -1, 1), "<=", 1, "inner")
            model.add_row((var, target, z), (-1, 1, 1), "<=", 1, "inner")
        return var

    def _gate_row(self, gate: Callable, node: Formula, n: Optional[int]) -> list[VarId]:
        kids = [self.row(c, n) for c in node.children]
        return [gate([k[t] for k in kids], name=self._name(node, n, t), tag=self._tag(n))
                for t in range(len(kids[0]))]

    def _or_row(self, node: Union[IOr, OOr], n: Optional[int]) -> list[VarId]:
        return self._gate_row(self.model.bool_or, node, n)

    def _until_guard(self, node: Union[IUntil, OUntil]) -> Formula:
        """Formula that must keep holding while waiting for the right side
        of an until (the ``lhs`` of ``until_release_row``); plain until uses
        the left side itself.  The robust encoder widens an outer one to
        ``lhs | rhs`` for tau >= 1: under counter drift the handover step
        can show some robots still on the left task and others already on
        the right one, so only the disjunction holds robustly there.  In the
        recurrence the guard matters only at steps where the right side does
        not hold, so the wider guard accepts the mixed handover without
        otherwise changing the until."""
        return node.lhs

    # -- counting propositions ------------------------------------------

    def _tcp_scope(self, tcp: Tcp) -> list[int]:
        """Robots the tcp counts; ``check_formula`` has checked the group."""
        return list(range(self.layout.n_robots)) if tcp.group is None else sorted(tcp.group)

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

    def _tcp_row(self, tcp: Tcp) -> list[VarId]:
        scope = self._tcp_scope(tcp)
        return [self._at_least((self.row(tcp.inner, n)[t] for n in scope),
                               tcp.m, len(scope), tcp, t)
                for t in range(self.layout.h)]


# ---------------------------------------------------------------------------
# Problem assembly and extraction
# ---------------------------------------------------------------------------

def check_formula(mu: OuterFormula, model: Fleet) -> None:
    """Reject a formula that names a proposition, a robot group or a robot
    index the model does not have.  ``simulate`` checks the formula here,
    and every engine through ``prepare_formula``."""
    missing = atoms_of(mu) - set(model.ap)
    if missing:
        raise EncodingError(f"formula uses unknown propositions: {sorted(missing)}")
    unknown_groups = group_names_of(mu) - set(model.groups)
    if unknown_groups:
        raise EncodingError(f"formula uses unknown groups: {sorted(unknown_groups)}")
    robots = set(range(model.n_robots))
    for tcp in iter_tcps(mu):
        if isinstance(tcp.group, frozenset) and not tcp.group <= robots:
            raise EncodingError(f"group member out of range in {tcp}")


def prepare_formula(mu: OuterFormula, model: Fleet, tau: int = 0) -> OuterFormula:
    """The one formula front end of every engine: ``check_formula``, then
    ``normalize`` with the model's groups (the robust form at tau >= 1).
    At tau >= 1 it warns that an outer negation was pushed to the leaves,
    and that an outer next only shifts anchor times by one step."""
    check_formula(mu, model)
    if tau and any(isinstance(node, ONot) for node in subformulas(mu)):
        warnings.warn("formula normalized to positive normal form for the robust encoding")
    norm = normalize(mu, model.n_robots, robust=tau > 0, groups=model.groups)
    if tau and any(isinstance(node, ONext) for node in subformulas(norm)):
        warnings.warn("outer next under asynchrony is encoded as a plain one-step shift of "
                      "anchor times; interleavings inside the shifted window are not "
                      "constrained beyond that")
    return norm


def build_sync_problem(inst: MultiRobotInstance, mu: OuterFormula,
                       h: int) -> EncodedProblem:
    """Full synchronous feasibility program: dynamics + loop + logic
    constraints + the instance's collision constraints, with the root
    formula pinned true at step 0."""
    norm = prepare_formula(mu, inst)
    model = IlpModel("sync")
    layout = encode_dynamics(model, inst, h)
    encode_loop(layout)
    encode_collision(layout)
    LogicEncoder(layout, discrete_atom_backend(layout)).pin_root(norm)
    return EncodedProblem(model, layout, inst, h, 0, "cltlplus")


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
