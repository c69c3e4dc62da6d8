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
- ``tie_rows`` pins a state vector past the horizon to its wrapped loop
  position; at t = h it closes the loop.
- ``loop_value`` reads a row at the chosen loop start, OR over l of
  (z_l AND row[l]); it closes next and every until/release at h-1.
- ``until_release_row`` is the one until/release recurrence,
  y[t] = rhs[t] | (lhs[t] & y[t+1]) and its dual, with the auxiliary
  window pass that keeps a loop from justifying itself.
- ``LogicEncoder._at_least`` is the one counting threshold: constant 1 for
  m <= 0, constant 0 for m above the number of robots counted, and an
  indicator row pair in between.

Rows and columns go to the model as blocks (``IlpModel.add_binaries``
and ``IlpModel.add_rows``) gathered in Python lists, in the order a
row-by-row build would add them.  ``Layout.reach`` holds each robot's
reachable sets and ``Layout.state_ids`` its state vectors' column ids,
step by step.  Each robot's state vectors with their dynamics rows (or
their loop ties past h) are one block, and so are its loop ties at h,
each of its atom rows and the fleet's collision rows.
The logic rows come one formula row at a time: the gates, negations and
until/release steps of a row as one ``IlpModel.bool_gadgets`` call, a
loop read as a block of h ANDs and a block of one OR, the counting
thresholds as one ``IlpModel.indicators_geq`` call, and the robust tails
as one block.  Every gadget and indicator, the robust windows and the
polytope atoms' conjunctions among them, goes through those two calls,
a lone one as a block of one.
Column ids are reserved from ``IlpModel.n_vars`` where a block's rows
must name columns the same block adds, as in the until/release chain.

A gadget keeps a constant input (the shared ``const_0`` or ``const_1``)
rather than folding it away.  HiGHS's time swings per instance on any
change to the program (``solver``): folding constant gadget inputs cut
the benchmark's ``emergency-lp`` synth.total by 12% but raised
``ladder-bnb`` synth.max by 20%.  ``tests/test_program_identity.py`` pins
the programs byte for byte.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Optional, Union

from .formula import (IAnd, IAtom, INNER_FALSE, INext, INot, IOr, IRelease,
                      ITrue, IUntil, InnerFormula, OAnd, ONext, ONot, OOr,
                      ORelease, OTrue, OUntil, OuterFormula, Tcp, atoms_of,
                      group_names_of, iter_tcps, normalize, subformulas)
from .ilp import IlpModel, LinExpr, Solution, VarId
from .system import ContinuousSystem, MultiRobotInstance, TransitionSystem
from .trajectory import LassoTrajectory

AtomBackend = Callable[[str, int, int], list[VarId]]  # (atom, robot, size) -> row
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
        # per robot and step t = 0 .. h + tau, R_t as one flag per state (the
        # entries of w[n][t] that are variables), and per step added so far
        # w[n][t]'s column ids, the shared constant 0 off R_t
        self.reach: dict[int, list[list[bool]]] = {}
        self.state_ids: dict[int, list[array]] = {}
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

def reachable_sets(ts: TransitionSystem, init: int, steps: int) -> list[list[bool]]:
    """R_0 .. R_steps, each as one flag per state: R_0 = {init}, and
    R_{t+1} holds the successors of R_t, so it is empty from a dead end
    on."""
    succ = [ts.successors(i) for i in range(ts.n_states)]
    reach, live = [], {init}
    for _ in range(steps + 1):
        reach.append([i in live for i in range(ts.n_states)])
        live = {j for i in live for j in succ[i]}
    return reach


class _Rows:
    """Rows gathered in Python lists for one ``IlpModel.add_rows`` call;
    the dynamics rows and loop ties, the most numerous, append to the
    lists without ``add``."""

    def __init__(self):
        self.lengths: list[int] = []
        self.indices: list[VarId] = []
        self.values: list[float] = []
        self.row_lo: list[float] = []
        self.row_hi: list[float] = []

    def add(self, cols: list[VarId], coefs: list[float], lo: float, hi: float) -> None:
        self.lengths.append(len(cols))
        self.indices += cols
        self.values += coefs
        self.row_lo.append(lo)
        self.row_hi.append(hi)

    def store(self, model: IlpModel, tag: str, names: list[str]) -> None:
        """Add the columns ``names``, then the rows; both lists start
        afresh."""
        if names:
            model.add_binaries(names, tag)
        model.add_rows([0, *itertools.accumulate(self.lengths)], self.indices, self.values,
                       self.row_lo, self.row_hi, tag)
        for gathered in (names, self.lengths, self.indices, self.values, self.row_lo,
                         self.row_hi):
            gathered.clear()


def add_state_vectors(layout: Layout, steps: range, tag: str) -> None:
    """w[n][t] for each robot n and step t of ``steps``: a binary for each
    state of R_t (``layout.reach[n][t]``), the shared constant 0
    everywhere else, and the one-hot row over the live entries.  With
    nothing live the row reads ``const_0 = 1``, which no point meets.
    Each one-hot row is followed, for 1 <= t <= h, by the step's dynamics
    rows: for each j in R_t,
    w[n][t][j] - (sum of w[n][t-1][i] over the predecessors i of j in
    R_{t-1}, ascending) <= 0; and for t > h by its ties to the loop
    (``tie_rows``).

    Each robot's columns are one block and its rows another.  The shared
    constant 0 enters the model where the first vector that needs it
    begins, so a robot's blocks are cut there."""
    model, h = layout.model, layout.h
    rows, names = _Rows(), []
    for n, ts in enumerate(layout.instance.systems):
        ids, reach = layout.state_ids[n], layout.reach[n]
        pred = [ts.predecessors(j) for j in range(ts.n_states)]
        # a dynamics row's coefficients by its number of sources
        signed = [[1.0] + [-1.0] * k for k in range(1 + max(map(len, pred), default=0))]
        column, zero = model.n_vars, -1
        for t in steps:
            live = [i for i, here in enumerate(reach[t]) if here]
            if zero < 0 and len(live) < ts.n_states:
                rows.store(model, tag, names)
                zero = model.constant(0)
                column = model.n_vars
            vector = [zero] * ts.n_states
            for i in live:
                vector[i] = column
                column += 1
            prefix = f"w_{n}_{t}_"
            names += [prefix + str(i) for i in live]
            one_hot = [vector[i] for i in live] or [zero]
            rows.add(one_hot, [1.0] * len(one_hot), 1.0, 1.0)
            if 0 < t <= h:
                before, was = ids[t - 1], reach[t - 1]
                for j in live:
                    sources = [before[i] for i in pred[j] if was[i]]
                    rows.lengths.append(1 + len(sources))
                    rows.indices.append(vector[j])
                    rows.indices += sources
                    rows.values += signed[len(sources)]
                rows.row_lo += [-inf] * len(live)
                rows.row_hi += [0.0] * len(live)
            ids.append(array("i", vector))
            if t > h:
                tie_rows(layout, ids, reach, t, rows)
        rows.store(model, tag, names)


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
    infeasible row ``const_0 = 1``.  R_t is computed up to h + tau, once
    per transition system and start state (``reachable_sets``), and the
    vectors are added by ``add_state_vectors``.
    """
    layout = Layout(model, inst, h, tau)
    known: dict[tuple[int, int], list[list[bool]]] = {}
    for n, (ts, init) in enumerate(zip(inst.systems, inst.initial_states)):
        key = (id(ts), init)
        if key not in known:
            known[key] = reachable_sets(ts, init, h + tau)
        layout.reach[n] = known[key]
        layout.state_ids[n] = []
    add_state_vectors(layout, range(h + 1), "dynamics")
    return layout


def add_loop_selectors(layout: Layout) -> None:
    """Loop-start selectors z_0 .. z_{h-1}, exactly one of them 1."""
    first = layout.model.add_binaries([f"zloop_{t}" for t in range(layout.h)], tag="loop")
    layout.loop_vars = list(range(first, first + layout.h))
    layout.model.add_row(layout.loop_vars, [1] * layout.h, "=", 1, "loop")


def chosen_loop(layout: Layout, sol: Solution) -> int:
    """The loop start whose selector is 1 in ``sol``."""
    hits = [t for t, z in enumerate(layout.loop_vars) if round(sol[z]) == 1]
    if len(hits) != 1:
        raise ExtractionError(f"expected exactly one loop start, found {hits}")
    return hits[0]


def tie_rows(layout: Layout, ids: list[array], reach: list[list[bool]], t: int,
             rows: _Rows) -> None:
    """Pin w[n][t], t >= h, to w[n][wrap(l, t)] for the chosen loop start
    l: rows into ``rows``, from robot n's state-vector ids and reachable
    sets (``Layout.state_ids[n]`` and ``Layout.reach[n]``).

    One side suffices: ``src[i] + z_l - w[n][t][i] <= 1`` for each live
    entry i of the wrapped source gives w[n][t] >= src once z_l = 1, and
    two one-hot vectors with w[t] >= src are equal.  Where w[n][t][i] is
    the constant 0 the row reads ``src[i] + z_l <= 1``.  At t = h the
    source is w[n][l] itself, since wrap(l, h) = l.  Rows go by loop
    start l and live source state i."""
    dst, dst_live = ids[t], reach[t]
    lengths, indices, values = rows.lengths, rows.indices, rows.values
    before = len(lengths)
    for l, z in enumerate(layout.loop_vars):
        src_t = layout.wrap_index(l, t)
        src = ids[src_t]
        for i, here in enumerate(reach[src_t]):
            if here and dst_live[i]:
                lengths.append(3)
                indices += (src[i], z, dst[i])
                values += (1.0, 1.0, -1.0)
            elif here:
                lengths.append(2)
                indices += (src[i], z)
                values += (1.0, 1.0)
    rows.row_lo += [-inf] * (len(lengths) - before)
    rows.row_hi += [1.0] * (len(lengths) - before)


def encode_loop(layout: Layout) -> None:
    """Select a unique loop start l with w[n][h] = w[n][l] for every robot:
    ``tie_rows`` at t = h, one block per robot."""
    add_loop_selectors(layout)
    rows = _Rows()
    for n in range(layout.n_robots):
        tie_rows(layout, layout.state_ids[n], layout.reach[n], layout.h, rows)
        rows.store(layout.model, "loop", [])


def encode_collision(layout: Layout) -> None:
    """Inter-robot exclusion over the fleet's shared state space.

    At every step, at most one robot per state: one clique row per state.
    With tau > 0 the exclusion is widened to every pair of steps dt =
    1..tau apart, since asynchrony can bring those positions together at
    the same wall-clock instant: two directed pair rows per robot pair and
    state, one for each robot ahead.  The swap variant additionally
    forbids two robots exchanging states across one step.  A row that
    mentions a constant-0 state entry holds in every point, so only rows
    over live entries are emitted.  The rows are one block of Python
    lists.
    """
    inst, tau = layout.instance, layout.tau
    if inst.collision_mode == "off":
        return
    steps = len(layout.state_ids[0])  # the vectors added so far
    robots = range(inst.n_robots)
    w = [layout.state_ids[n] for n in robots]
    live = [layout.reach[n] for n in robots]
    pairs = list(itertools.combinations(robots, 2))
    rows = _Rows()
    for t in range(steps):
        for i in range(inst.systems[0].n_states):
            here = [w[n][t][i] for n in robots if live[n][t][i]]
            if len(here) > 1:
                rows.add(here, [1.0] * len(here), -inf, 1.0)
        for a, b in pairs:
            for dt in range(1, min(tau, steps - 1 - t) + 1):
                for i in range(inst.systems[0].n_states):
                    for early, late in ((a, b), (b, a)):
                        if live[early][t][i] and live[late][t + dt][i]:
                            rows.add([w[early][t][i], w[late][t + dt][i]], [1.0, 1.0],
                                     -inf, 1.0)
    if inst.collision_mode == "mutual_exclusion_plus_swap":
        for a, b in pairs:
            # a moves i -> j while b moves j -> i, each by its own transitions
            arcs = [(i, j) for (i, j) in sorted(inst.systems[a].transitions)
                    if i != j and (j, i) in inst.systems[b].transitions]
            for t in range(steps - 1):
                for (i, j) in arcs:
                    if live[a][t][i] and live[b][t][j] and live[a][t + 1][j] and live[b][t + 1][i]:
                        rows.add([w[a][t][i], w[b][t][j], w[a][t + 1][j], w[b][t + 1][i]],
                                 [1.0] * 4, -inf, 3.0)
    rows.store(layout.model, "collision", [])


# ---------------------------------------------------------------------------
# Lasso recurrences shared by the inner and outer logic
# ---------------------------------------------------------------------------

def loop_value(model: IlpModel, loop_vars: list[VarId], row: list[VarId],
               name: Optional[str] = None, *, tag: str) -> VarId:
    """The value of ``row`` at the chosen loop start: OR over l of
    (z_l AND row[l]).  Exactly one loop selector z_l is 1, so the OR has
    one live term, and position h of the lasso reads row[l].  The h ANDs
    are one block and the OR a block of one."""
    terms = model.bool_gadgets("AND", list(zip(loop_vars, row)), tag=tag)
    return model.bool_gadgets("OR", [terms], [name], tag)[0]


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
    empty in the main one) and ``{t}`` fields.

    Each pass is one block of gadget pairs, t = h-1 (h-2 in the auxiliary
    pass) down to 0: the wait gadget of step t, then its settle gadget,
    whose id the next step's wait gadget reads."""
    h = len(loop_vars)
    wait, settle = ("OR", "AND") if release else ("AND", "OR")

    def chain(last: int, nxt: VarId, aux: str) -> list[VarId]:
        """y[0..last], y[t] from the step gadgets and y[last + 1] = nxt."""
        first = model.n_vars  # wait of step t is first + 2k, settle first + 2k + 1
        inputs, names = [], []
        for k, t in enumerate(range(last, -1, -1)):
            inputs += ([lhs[t], nxt], [rhs[t], first + 2 * k])
            names += (None, name.format(aux=aux, t=t))
            nxt = first + 2 * k + 1
        return model.bool_gadgets([wait, settle] * (last + 1), inputs, names, tag)[1::2][::-1]

    window = chain(h - 2, rhs[h - 1], "t") + [rhs[h - 1]]
    return chain(h - 1, loop_value(model, loop_vars, window, tag=tag), "")


# ---------------------------------------------------------------------------
# Logic rows
# ---------------------------------------------------------------------------

def discrete_atom_backend(layout: Layout) -> AtomBackend:
    """Couples an atom's row of robot n to the labeled states the robot may
    occupy: z[t] equals the label indicator applied to the one-hot state
    vector w[n][t], t = 0 .. size-1.  The sum skips constant-0 entries;
    with no live labeled state it pins z to 0.  The row's columns are one
    block and its rows another: per t, ``z - label count <= 0`` then
    ``>= 0``."""

    def backend(name: str, n: int, size: int) -> list[VarId]:
        model = layout.model
        first = model.n_vars
        fid = layout.fid(IAtom(name))
        labeled = [i for i, labels in enumerate(layout.instance.systems[n].labels)
                   if name in labels]
        rows = _Rows()
        for z, ids, live in zip(range(first, first + size), layout.state_ids[n],
                                layout.reach[n]):
            cols = [z] + [ids[i] for i in labeled if live[i]]
            coefs = [1.0] + [-1.0] * (len(cols) - 1)
            # label_count >= z and label_count <= z (strict < z+1 tightened by
            # integrality), i.e. z tracks membership exactly
            rows.add(cols, coefs, -inf, 0.0)
            rows.add(cols, coefs, 0.0, inf)
        rows.store(model, "inner", [f"z{fid}_n{n}_t{t}" for t in range(size)])
        return list(range(first, first + size))

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
            return self.atom_backend(node.name, n, size)
        if isinstance(node, Tcp):
            return self._tcp_row(node)
        if isinstance(node, (INot, ONot)):
            if not isinstance(node.child, IAtom):
                raise EncodingError("negation must sit on atoms; normalize the "
                                    "formula to positive normal form first")
            child = self.row(node.child, n)
            return model.bool_gadgets("NOT", [[v] for v in child],
                                      [self._name(node, n, t) for t in range(size)], tag)
        if isinstance(node, (IAnd, OAnd)):
            return self._gate_row("AND", node, n)
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
            if n is not None and size > h:
                row += self._tie_to_loop(node, n, row)
            return row
        raise TypeError(f"not a formula: {node!r}")

    def _tie_to_loop(self, phi: InnerFormula, n: int, row: list[VarId]) -> list[VarId]:
        """Fresh z for the positions t = h .. h+tau-1 of an inner row, each
        equal to the row at wrap(l, t) for the chosen loop start l: per t
        and l, ``z - row[wrap] + z_l <= 1`` and ``-z + row[wrap] + z_l <= 1``.
        The columns are one block and the rows another."""
        lay, model = self.layout, self.model
        steps = range(lay.h, lay.h + lay.tau)
        first = model.add_binaries([self._name(phi, n, t) for t in steps], "inner")
        indices = []
        for z, t in zip(itertools.count(first), steps):
            for l, loop in enumerate(lay.loop_vars):
                target = row[lay.wrap_index(l, t)]
                indices += (z, target, loop, z, target, loop)
        pairs = len(indices) // 6
        model.add_rows(list(range(0, 6 * pairs + 1, 3)), indices,
                       [1.0, -1.0, 1.0, -1.0, 1.0, 1.0] * pairs, -inf, 1.0, tag="inner")
        return list(range(first, first + len(steps)))

    def _gate_row(self, op: str, node: Formula, n: Optional[int]) -> list[VarId]:
        """One ``op`` gadget per position over the children's rows, as one
        block."""
        kids = [self.row(c, n) for c in node.children]
        return self.model.bool_gadgets(op, list(zip(*kids)),
                                       [self._name(node, n, t) for t in range(len(kids[0]))],
                                       self._tag(n))

    def _or_row(self, node: Union[IOr, OOr], n: Optional[int]) -> list[VarId]:
        return self._gate_row("OR", node, n)

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

    def _at_least(self, counts: Iterable[Iterable[VarId]], m: int, size: int,
                  node: OuterFormula, steps: Iterable[int], prefix: str = "y") -> list[VarId]:
        """Binaries equal to [sum of counts[k] >= m] for the k-th step of
        ``steps``, each count over at most ``size`` robots.  A threshold
        m <= 0 always holds and one above ``size`` never does: both are
        constants, and the lazy ``counts`` are never consumed, so nothing
        that only they would read gets built.  Otherwise every count is
        summed before the indicators' names ``{prefix}{fid(node)}_t{t}``
        are made, so formula ids follow creation order, and the
        indicators are one block (``IlpModel.indicators_geq``)."""
        if m <= 0:
            return [self.model.constant(1) for _ in steps]
        if m > size:
            return [self.model.constant(0) for _ in steps]
        exprs = [LinExpr.sum_of(count) for count in counts]
        fid = self.layout.fid(node)
        return self.model.indicators_geq(exprs, m, size + 1,
                                         [f"{prefix}{fid}_t{t}" for t in steps],
                                         tag=self.TAG, known_bounds=(0, size))

    def _tcp_row(self, tcp: Tcp) -> list[VarId]:
        scope = self._tcp_scope(tcp)
        steps = range(self.layout.h)
        return self._at_least(((self.row(tcp.inner, n)[t] for n in scope) for t in steps),
                              tcp.m, len(scope), tcp, steps)


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
        for t, row in enumerate(layout.state_ids[n][:layout.h + 1]):
            ones = [i for i, v in enumerate(row) if round(sol[v]) == 1]
            if len(ones) != 1:
                raise ExtractionError(
                    f"robot {n} step {t}: state assignment is not one-hot ({ones})")
            states.append(ones[0])
        out.append(LassoTrajectory(tuple(states), l))
    return out
