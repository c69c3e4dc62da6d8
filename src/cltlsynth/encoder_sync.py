"""Synchronous ILP encoding: robot dynamics as one-hot state vectors,
lasso loop selection, recursive logic constraints for both formula layers,
optional inter-robot collision constraints, and trajectory extraction.

Conventions: state vectors w[n][t] have one entry per state for t = 0..h
(plus h+1..h+tau in robust mode), but only the states robot n can occupy
at t in a feasible point are variables, and only where two or more are
left; the one state left is the model's shared constant 1 and every other
entry the shared constant 0, and no row mentions either.  Logic variables
z/y exist for t = 0..h-1, with w[h] reserved for closing the loop.

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

Folding.  The root formula is pinned true at step 0, and with the
constants and the start states that decides much of the program before
any search: on the 8x8 emergency desk at h = 16, bound propagation over
the unfolded rows fixes 1,432 of 5,615 columns.  So every engine folds
that fixpoint while it builds, and stores no column propagation would
fix and no row that then always holds (``tests/test_fold.py`` checks
both against a NumPy propagation):

- The logic is a ``circuit.Circuit`` first.  ``LogicEncoder.pin_root``
  pins the root and settles what the gadget algebra forces both ways (an
  AND at 1 pins its inputs, a G chain carries 1 to every step, a count
  held true at m = group size pins each member's row, ...), together with
  the engine's leaves until nothing changes: ``DiscreteAtoms`` narrows
  each robot's states (``StateSets``) to the atoms the logic decides and
  decides the atoms the states settle; the aggregate and continuous
  engines do the same through ``circuit.IntervalLeaves``.  A decided
  entry is a shared constant, an undecided one keeps its two-sided
  gadget, and a step with one state left is the constant 1.
- ``Circuit.lower`` gives the block builders (``IlpModel.bool_gadgets``,
  ``IlpModel.indicators_geq``) the undecided signals over their undecided
  inputs, and stores the one row that forces a decided signal where its
  inputs do not; ``IlpModel.fold_row`` moves constants into the row
  bounds and drops rows that always hold.

The desk at h = 16 then has 3,847 columns and 8,601 rows.  Rows and
columns go to the model as blocks (``IlpModel.add_binaries``,
``IlpModel.add_rows``) gathered in Python lists, in the order a
row-by-row build would add them: the fleet's state vectors with their
dynamics rows (or their loop ties past h), its loop selectors' one-of row
with the loop ties at h, each atom row, the collision rows, and the logic
one circuit block at a time.  ``Layout.reach`` holds each robot's
possible states and ``Layout.state_ids`` its state vectors' column ids.
``tests/test_program_identity.py`` pins the programs byte for byte.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from dataclasses import dataclass
from math import inf
from typing import Iterable, Optional, Union

from .formula import (IAnd, IAtom, INNER_FALSE, INext, INot, IOr, IRelease,
                      ITrue, IUntil, InnerFormula, OAnd, ONext, ONot, OOr,
                      ORelease, OTrue, OUntil, OuterFormula, Tcp, atoms_of,
                      group_names_of, iter_tcps, normalize, subformulas)
from .circuit import ONE, ZERO, Circuit, Signal
from .ilp import IlpModel, LinExpr, RowBlock, Solution, VarId
from .system import ContinuousSystem, MultiRobotInstance
from .trajectory import LassoTrajectory

Formula = Union[InnerFormula, OuterFormula]
Fleet = Union[MultiRobotInstance, ContinuousSystem]


class EncodingError(ValueError):
    pass


class ExtractionError(RuntimeError):
    """A supposedly feasible assignment is not a clean one-hot trajectory."""


class Layout:
    """Bookkeeping that maps (robot, time, subformula) to variable ids; the
    one source of the program's model, fleet, h and tau for every helper.

    ``circuit`` holds the program's logic signals until they are lowered,
    and ``loop_signals`` its loop selectors among them."""

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
        # per robot and step t = 0 .. h + tau, the states the robot can occupy
        # as one flag per state (``StateSets``), and per step added so far
        # w[n][t]'s column ids: a column per state when two or more are
        # possible, else the shared constant 1 at the one state; the
        # shared constant 0 everywhere else
        self.reach: dict[int, list[list[bool]]] = {}
        self.state_ids: dict[int, list[array]] = {}
        self.circuit = Circuit(model)
        self.loop_signals = self.circuit.leaves(h)
        self.circuit.one_of(self.loop_signals)
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

class StateSets:
    """The states each robot of a discrete fleet can occupy at each step
    t = 0 .. h + tau of a feasible point, as bit masks, and the loop starts
    still possible.

    They start as the reachable sets R_t, R_0 = {init} and R_{t+1} =
    succ(R_t), and narrow, by ``restrict`` from the atoms the logic
    decides and by ``settle``, to the fixpoint of what the program's rows
    force:

    - dynamics, both ways: w[t] lies among the successors of w[t-1] and the
      predecessors of w[t+1], up to h + tau (past h the lasso repeats its
      loop, whose steps follow the transitions too);
    - the loop: a loop start l is possible only while w[wrap(l, t)] and
      w[t] can agree for every t = h .. h + tau and every robot, w[t] lies
      in the union of w[wrap(l, t)] over the possible l, and with one
      possible l the two are equal;
    - collisions: a robot held at one state keeps every other robot out of
      that state at that step (and tau steps around it), and out of the
      swap the mode forbids.

    A robot with no possible state at some step, or no possible loop
    start, makes the program infeasible (``settle`` returns False)."""

    def __init__(self, layout: Layout):
        inst, h, tau = layout.instance, layout.h, layout.tau
        self.layout = layout
        known: dict[tuple[int, int], list[int]] = {}
        self.masks: list[list[int]] = []
        for ts, init in zip(inst.systems, inst.initial_states):
            if (id(ts), init) not in known:
                # R_0 = {init} and R_{t+1} = succ(R_t), empty from a dead end on
                steps = [1 << init]
                for _ in range(h + tau):
                    steps.append(ts.step_mask(steps[-1]))
                known[(id(ts), init)] = steps
            self.masks.append(list(known[(id(ts), init)]))
        self.loop = set(range(h))
        # per loop start l, the positions wrap(l, t) of t = h .. h + tau
        self._wraps = [[layout.wrap_index(l, t) for t in range(h, h + tau + 1)]
                       for l in range(h)]
        self._settled = False

    def restrict(self, n: int, t: int, keep: int) -> None:
        if self.masks[n][t] & ~keep:
            self.masks[n][t] &= keep
            self._settled = False

    def keep_loops(self, starts: set[int]) -> None:
        """Keep only the loop starts of ``starts``."""
        if not self.loop <= starts:
            self.loop &= starts
            self._settled = False

    def settle(self) -> bool:
        """Narrow the masks and the loop starts to their fixpoint; False if
        the program is infeasible."""
        if self._settled:
            return bool(self.loop)
        self._settled = True
        lay, masks = self.layout, self.masks
        h, last = lay.h, lay.h + lay.tau
        inst = lay.instance
        changed = True
        while changed:
            changed = False
            for steps, ts in zip(masks, inst.systems):
                step = ts.step_mask
                for t in range(1, last + 1):
                    new = steps[t] & step(steps[t - 1])
                    if new != steps[t]:
                        steps[t], changed = new, True
                for t in range(last - 1, -1, -1):
                    new = steps[t] & step(steps[t + 1], True)
                    if new != steps[t]:
                        steps[t], changed = new, True
                if not all(steps):
                    return False
            for l in sorted(self.loop):
                if any(steps[wrap] & steps[t] == 0 for steps in masks
                       for t, wrap in enumerate(self._wraps[l], h)):
                    self.loop.discard(l)
                    changed = True
            if not self.loop:
                return False
            wraps = [self._wraps[l] for l in self.loop]
            for steps in masks:
                for k, t in enumerate(range(h, last + 1)):
                    union = 0
                    for sources in wraps:
                        union |= steps[sources[k]]
                    if len(wraps) == 1:
                        source = wraps[0][k]
                        if steps[source] & ~steps[t]:
                            steps[source] &= steps[t]
                            changed = True
                    if steps[t] & ~union:
                        steps[t] &= union
                        changed = True
            if inst.collision_mode != "off" and self._collide():
                changed = True
        return all(all(steps) for steps in masks)

    def _collide(self) -> bool:
        """Keep every robot out of the states that another robot is held
        at, at that step and within tau steps of it, and out of a swap with
        a held robot; True if a mask changed."""
        lay, masks, inst = self.layout, self.masks, self.layout.instance
        last, changed = len(masks[0]) - 1, False
        robots = range(len(masks))
        for t in range(last + 1):
            for a in robots:
                held = masks[a][t]
                if held & (held - 1):
                    continue
                for b in robots:
                    if b == a:
                        continue
                    for u in range(max(0, t - lay.tau), min(last, t + lay.tau) + 1):
                        if masks[b][u] & held:
                            masks[b][u] &= ~held
                            changed = True
        if inst.collision_mode == "mutual_exclusion_plus_swap":
            for a in robots:
                for b in robots:
                    if a == b:
                        continue
                    for t in range(last):
                        i, j = masks[a][t], masks[a][t + 1]
                        if i & (i - 1) or j & (j - 1) or i == j:
                            continue
                        arc = (i.bit_length() - 1, j.bit_length() - 1)
                        if arc not in inst.systems[a].transitions or \
                                arc[::-1] not in inst.systems[b].transitions:
                            continue
                        if masks[b][t] == j and masks[b][t + 1] & i:
                            masks[b][t + 1] &= ~i
                            changed = True
                        if masks[b][t + 1] == i and masks[b][t] & j:
                            masks[b][t] &= ~j
                            changed = True
        return changed

    def commit(self) -> None:
        """Write the masks to ``Layout.reach``, one flag per state."""
        for n, (steps, ts) in enumerate(zip(self.masks, self.layout.instance.systems)):
            self.layout.reach[n] = [[bool(m >> i & 1) for i in range(ts.n_states)]
                                    for m in steps]
            self.layout.state_ids[n] = []


def add_state_vectors(layout: Layout, steps: range, tag: str) -> None:
    """w[n][t] for each robot n and step t of ``steps``, over the states
    the robot can occupy (``layout.reach[n][t]``): a binary per state and
    the one-hot row over them when there are two or more, the shared
    constant 1 at the one state otherwise, and the shared constant 0
    everywhere else.  With no state left the row reads ``const_0 = 1``,
    which no point meets.  Each one-hot row is followed, for 1 <= t <= h,
    by the step's dynamics rows: for each column j,
    w[n][t][j] - (sum of w[n][t-1][i] over the possible predecessors i of
    j, ascending) <= 0, left out where w[n][t-1] is the constant 1 (the
    row always holds); and for t > h by its ties to the loop
    (``tie_rows``).  The fleet's columns are one block and its rows
    another.  Over t = 0 .. h these are the dynamics: w[n][t] can only be
    1 on R_t (``StateSets``), as w[n][t+1] <= A_n w[n][t] componentwise."""
    if not steps:
        return
    model, h = layout.model, layout.h
    zero, one = model.constant(0), model.constant(1)
    rows, names = RowBlock(model), []
    column = model.n_vars
    for n, ts in enumerate(layout.instance.systems):
        ids, reach = layout.state_ids[n], layout.reach[n]
        pred = [ts.predecessors(j) for j in range(ts.n_states)]
        # a dynamics row's coefficients by its number of sources
        signed = [[1.0] + [-1.0] * k for k in range(1 + max(map(len, pred), default=0))]
        for t in steps:
            live = [i for i, here in enumerate(reach[t]) if here]
            vector = [zero] * ts.n_states
            if len(live) == 1:
                vector[live[0]] = one
            elif live:
                for i in live:
                    vector[i] = column
                    column += 1
                prefix = f"w_{n}_{t}_"
                names += [prefix + str(i) for i in live]
                rows.lengths.append(len(live))
                rows.indices += [vector[i] for i in live]
                rows.values += [1.0] * len(live)
                rows.row_lo.append(1.0)
                rows.row_hi.append(1.0)
            else:
                rows.lengths.append(1)
                rows.indices.append(zero)
                rows.values.append(1.0)
                rows.row_lo.append(1.0)
                rows.row_hi.append(1.0)
            if 0 < t <= h and len(live) > 1:
                before, was = ids[t - 1], reach[t - 1]
                if sum(was) > 1:
                    for j in live:
                        sources = [before[i] for i in pred[j] if was[i]]
                        rows.lengths.append(1 + len(sources))
                        rows.indices.append(vector[j])
                        rows.indices += sources
                        rows.values += signed[len(sources)]
                        rows.row_lo.append(-inf)
                        rows.row_hi.append(0.0)
            ids.append(array("i", vector))
            if t > h:
                tie_rows(layout, ids, reach, t, rows)
    rows.store(tag, names)


def add_loop_selectors(layout: Layout) -> None:
    """Columns for the loop-start selectors z_0 .. z_{h-1}: a binary for
    each start the logic leaves undecided, the shared constant for each
    decided one.  Their one-of row is the engine's (``encode_loop``, or
    ``circuit.IntervalLeaves`` for the numeric engines)."""
    model, circuit = layout.model, layout.circuit
    open_ = [l for l, z in enumerate(layout.loop_signals) if circuit.val[z] is None]
    if open_:
        first = model.add_binaries([f"zloop_{l}" for l in open_], tag="loop")
        for k, l in enumerate(open_):
            circuit.col[layout.loop_signals[l]] = first + k
    layout.loop_vars = [circuit.column(z) for z in layout.loop_signals]


def chosen_loop(layout: Layout, sol: Solution) -> int:
    """The loop start whose selector is 1 in ``sol``."""
    hits = [t for t, z in enumerate(layout.loop_vars) if round(sol[z]) == 1]
    if len(hits) != 1:
        raise ExtractionError(f"expected exactly one loop start, found {hits}")
    return hits[0]


def tie_rows(layout: Layout, ids: list[array], reach: list[list[bool]], t: int,
             rows: RowBlock) -> None:
    """Pin w[n][t], t >= h, to w[n][wrap(l, t)] for the chosen loop start
    l: rows into ``rows``, from robot n's state-vector ids and reachable
    sets (``Layout.state_ids[n]`` and ``Layout.reach[n]``).

    One side suffices: ``src[i] + z_l - w[n][t][i] <= 1`` for each live
    entry i of the wrapped source gives w[n][t] >= src once z_l = 1, and
    two one-hot vectors with w[t] >= src are equal.  Where w[n][t][i] is
    the constant 0 the row reads ``src[i] + z_l <= 1``.  At t = h the
    source is w[n][l] itself, since wrap(l, h) = l.  Rows go by loop
    start l and live source state i; a loop start decided 0 has none, and
    the shared constants fold into the bounds."""
    dst, dst_live = ids[t], reach[t]
    model = layout.model
    one = model.constant(1)
    lengths, indices, values = rows.lengths, rows.indices, rows.values
    for l, z in enumerate(layout.loop_vars):
        decided = model.constant_value(z)
        if decided == 0:
            continue
        src_t = layout.wrap_index(l, t)
        src = ids[src_t]
        plain = decided is None and one not in src and one not in dst
        before = len(lengths)
        for i, here in enumerate(reach[src_t]):
            if not here:
                continue
            if not plain:
                rows.add([src[i], z, dst[i]] if dst_live[i] else [src[i], z],
                         [1.0, 1.0, -1.0] if dst_live[i] else [1.0, 1.0], -inf, 1.0)
            elif dst_live[i]:
                lengths.append(3)
                indices += (src[i], z, dst[i])
                values += (1.0, 1.0, -1.0)
            else:
                lengths.append(2)
                indices += (src[i], z)
                values += (1.0, 1.0)
        if plain:
            rows.row_lo += [-inf] * (len(lengths) - before)
            rows.row_hi += [1.0] * (len(lengths) - before)


def encode_loop(layout: Layout) -> None:
    """Select a unique loop start l with w[n][h] = w[n][l] for every robot:
    the loop selectors' one-of row and ``tie_rows`` at t = h, one block for
    the fleet."""
    add_loop_selectors(layout)
    rows = RowBlock(layout.model)
    rows.add(layout.loop_vars, [1.0] * layout.h, 1.0, 1.0)  # exactly one loop start
    for n in range(layout.n_robots):
        tie_rows(layout, layout.state_ids[n], layout.reach[n], layout.h, rows)
    rows.store("loop", [])


def encode_collision(layout: Layout) -> None:
    """Inter-robot exclusion over the fleet's shared state space.

    At every step, at most one robot per state: one clique row per state.
    With tau > 0 the exclusion is widened to every pair of steps dt =
    1..tau apart, since asynchrony can bring those positions together at
    the same wall-clock instant: two directed pair rows per robot pair and
    state, one for each robot ahead.  The swap variant additionally
    forbids two robots exchanging states across one step.  A row that
    mentions a constant-0 state entry holds in every point, so only rows
    over live entries are emitted, with the shared constant 1 of a robot
    held at one state folded into the bounds.  The rows are one block of
    Python lists.
    """
    inst, tau = layout.instance, layout.tau
    if inst.collision_mode == "off":
        return
    steps = len(layout.state_ids[0])  # the vectors added so far
    robots = range(inst.n_robots)
    w = [layout.state_ids[n] for n in robots]
    live = [layout.reach[n] for n in robots]
    pairs = list(itertools.combinations(robots, 2))
    rows = RowBlock(layout.model)
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
    rows.store("collision", [])


# ---------------------------------------------------------------------------
# Lasso recurrences shared by the inner and outer logic
# ---------------------------------------------------------------------------

def loop_value(circuit: Circuit, loop: list[Signal], row: list[Signal],
               name: Optional[str] = None, *, tag: str) -> Signal:
    """The value of ``row`` at the chosen loop start: OR over l of
    (z_l AND row[l]).  Exactly one loop selector z_l is 1, so the OR has
    one live term, and position h of the lasso reads row[l].  The h ANDs
    and the OR are one block."""
    h = len(loop)
    return circuit.gates(["AND"] * h + ["OR"], [*zip(loop, row), [~k for k in range(h)]],
                         [None] * h + [name], tag)[h]


def until_release_row(circuit: Circuit, loop: list[Signal], lhs: list[Signal],
                      rhs: list[Signal], release: bool, name: str,
                      tag: str) -> list[Signal]:
    """Row y[0..h-1] of ``lhs U rhs`` (or ``lhs R rhs``) on the lasso, with
    h = len(loop), from the recurrence

        until:    y[t] = rhs[t] | (lhs[t] & y[t+1])
        release:  y[t] = rhs[t] & (lhs[t] | y[t+1])

    y[h] is y at the loop start, but reading the main row there would let
    a loop justify itself: an until could postpone its right side forever.
    So an auxiliary pass yt evaluates the same recurrence on the window
    [t, h-1] only, with yt[h-1] = rhs[h-1], and y[h-1] reads the
    ``loop_value`` of yt.  This is the linear bounded-lasso encoding of
    Biere et al., "Linear Encodings of Bounded LTL Model Checking", LMCS
    2006.  ``name`` is a template with ``{aux}`` ("t" in the auxiliary pass,
    empty in the main one) and ``{t}`` fields.  With a left side false (G)
    the root pin carries 1 down the whole chain; ``Circuit.propagate``
    finds that, and every other forced entry, gadget by gadget.

    The whole row is one block: the auxiliary pass, t = h-2 down to 0, a
    wait gadget then a settle gadget per step, whose signal the next
    step's wait gadget reads; the loop read; then the main pass, t = h-1
    down to 0."""
    h = len(loop)
    wait, settle = ("OR", "AND") if release else ("AND", "OR")
    ops, inputs, names = [], [], []  # the block; gadget k's signal is ~k until it is made

    def chain(last: int, nxt: Signal, aux: str) -> list[Signal]:
        """y[0..last], y[t] from the step gadgets and y[last + 1] = nxt."""
        row = []
        for t in range(last, -1, -1):
            k = len(ops)
            ops.extend((wait, settle))
            inputs.extend(([lhs[t], nxt], [rhs[t], ~k]))
            names.extend((None, name.format(aux=aux, t=t)))
            nxt = ~(k + 1)
            row.append(nxt)
        return row[::-1]

    window = chain(h - 2, rhs[h - 1], "t") + [rhs[h - 1]]
    first = len(ops)  # the loop read: h ANDs, then their OR
    ops.extend(["AND"] * h + ["OR"])
    inputs.extend([*map(list, zip(loop, window)), [~k for k in range(first, first + h)]])
    names.extend([None] * (h + 1))
    main = chain(h - 1, ~(first + h), "")
    out = circuit.gates(ops, inputs, names, tag)
    return [out[~y] for y in main]


# ---------------------------------------------------------------------------
# Logic rows
# ---------------------------------------------------------------------------

class DiscreteAtoms:
    """Atoms of a discrete fleet: robot n satisfies atom a at step t iff
    its state there is labeled a.  Each atom row is a block of circuit
    leaves, decided where every state the robot can occupy at t
    (``StateSets``) agrees on the label; a decided atom narrows those
    states in turn (``refine``).  An undecided entry becomes a column z
    equal to the label indicator applied to the one-hot state vector
    w[n][t]: per t, ``z - label count <= 0`` then ``>= 0``, the row's
    columns one block and its rows another."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self.states = StateSets(layout)
        self.rows: dict[tuple[str, int], list[Signal]] = {}
        self._labeled: dict[tuple[str, int], int] = {}

    def row(self, name: str, n: int, size: int) -> list[Signal]:
        self._labeled[(name, n)] = self.layout.instance.systems[n].label_mask(name)
        signals = self.layout.circuit.leaves(
            size, lambda ids: self._lower(name, n, ids))
        self.rows[(name, n)] = signals
        self._decide(name, n)
        return signals

    def _decide(self, name: str, n: int) -> bool:
        """Assign the undecided entries of an atom row that the states
        decide; True if any was."""
        circuit, masks = self.layout.circuit, self.states.masks[n]
        labeled, assigned = self._labeled[(name, n)], False
        for t, s in enumerate(self.rows[(name, n)]):
            if circuit.val[s] is None:
                here = masks[t]
                if not here & ~labeled:
                    circuit.assign(s, 1)
                    assigned = True
                elif not here & labeled:
                    circuit.assign(s, 0)
                    assigned = True
        return assigned

    def refine(self) -> bool:
        """Narrow the states to the decided atoms and loop starts, settle
        them, and decide what they decide in turn; True if that assigned
        a signal (False also when the states leave no feasible point,
        which marks the circuit in conflict)."""
        lay, circuit, states = self.layout, self.layout.circuit, self.states
        val = circuit.val
        for (name, n), signals in self.rows.items():
            labeled = self._labeled[(name, n)]
            for t, s in enumerate(signals):
                if val[s] is not None:
                    states.restrict(n, t, labeled if val[s] else ~labeled)
        chosen = {l for l, z in enumerate(lay.loop_signals) if val[z] == 1}
        states.keep_loops(chosen or {l for l, z in enumerate(lay.loop_signals) if val[z] != 0})
        if not states.settle():
            circuit.conflict = True
            return False
        assigned = False
        for l, z in enumerate(lay.loop_signals):
            if val[z] is None and (l not in states.loop or states.loop == {l}):
                circuit.assign(z, int(l in states.loop))
                assigned = True
        for name, n in self.rows:
            assigned |= self._decide(name, n)
        return assigned

    def _lower(self, name: str, n: int, ids: range) -> None:
        lay = self.layout
        model, circuit = lay.model, lay.circuit
        labeled = [i for i, labels in enumerate(lay.instance.systems[n].labels)
                   if name in labels]
        open_ = [t for t, s in enumerate(ids) if circuit.val[s] is None]
        first = model.n_vars
        rows = RowBlock(model)
        for z, t in zip(itertools.count(first), open_):
            ids_t, live = lay.state_ids[n][t], lay.reach[n][t]
            cols = [z] + [ids_t[i] for i in labeled if live[i]]
            coefs = [1.0] + [-1.0] * (len(cols) - 1)
            # label_count >= z and label_count <= z (strict < z+1 tightened by
            # integrality), i.e. z tracks membership exactly
            for lo, hi in ((-inf, 0.0), (0.0, inf)):
                rows.lengths.append(len(cols))
                rows.indices += cols
                rows.values += coefs
                rows.row_lo.append(lo)
                rows.row_hi.append(hi)
            circuit.col[ids[t]] = z
        fid = lay.fid(IAtom(name))
        rows.store("inner", [f"z{fid}_n{n}_t{t}" for t in open_])


class LogicEncoder:
    """Rows of truth values for the subformulas of both formula layers,
    built by one recursion, as ``oracle._label`` evaluates them.

    ``row(phi, n)`` for an inner formula and robot n holds z[t] = 1 iff
    robot n satisfies phi at position t of its lasso, t = 0 .. h+tau-1;
    ``row(mu)`` for an outer formula holds y[t] = 1 iff the collection
    satisfies mu at step t under the synchronous execution, t = 0 .. h-1.
    The layers share every operator.  They differ only in their leaves
    (atoms through ``leaves``, counting propositions through ``_tcp_row``),
    in inner next, which no asynchrony tolerates, and in the robust tail:
    positions h .. h+tau-1 of an inner until or release row equal their
    wrapped loop positions.  Negation must sit on atoms.

    The rows are circuit signals (``Layout.circuit``) while the program
    is built.  ``pin_root`` pins the root at step 0 and settles every
    value that the pin, the constants and the engine's leaves force
    (``Circuit.propagate``, and the leaves' ``refine``, which narrows
    the engine's states or bounds and decides the leaves they settle)
    before any state vector exists; ``lower`` then makes
    the undecided signals columns, and fills ``Layout.rows``,
    ``Layout.robust`` and ``Layout.outer_extra`` with column ids, a
    decided entry's being the shared constant."""

    TAG = "outer"

    def __init__(self, layout: Layout, leaves=None):
        self.layout = layout
        self.model = layout.model
        self.circuit = layout.circuit
        # the engine's leaves: row(atom, robot, size) for atoms, and refine()
        self.leaves = leaves
        self.signals: dict[tuple[Formula, Optional[int]], list[Signal]] = {}
        self.robust: dict[tuple[InnerFormula, int, int], Signal] = {}
        self.outer_extra: dict[tuple, Signal] = {}

    def row(self, node: Formula, n: Optional[int] = None) -> list[Signal]:
        """The row of ``node``: inner for robot ``n``, outer for n None."""
        key = (node, n)
        if key not in self.signals:
            self.signals[key] = self._build(node, n)
        return self.signals[key]

    def pin_root(self, mu: OuterFormula) -> None:
        """Require ``mu`` at step 0, and settle what that forces."""
        circuit = self.circuit
        circuit.assign(self.row(mu)[0], 1)
        refine = getattr(self.leaves, "refine", None)
        while True:
            circuit.propagate()
            if circuit.conflict or refine is None or not refine():
                break

    def lower(self) -> None:
        """Columns and rows for every undecided signal; a program whose
        values conflict gets the row ``const_0 = 1`` instead, which no
        point meets."""
        lay, circuit = self.layout, self.circuit
        if circuit.conflict:
            self.model.add_row([self.model.constant(0)], [1], "=", 1, "root")
            lay.circuit = None
            return
        circuit.lower()
        column = circuit.column
        lay.rows = {key: [column(s) for s in row] for key, row in self.signals.items()}
        lay.robust = {key: column(s) for key, s in self.robust.items()}
        lay.outer_extra = {key: column(s) for key, s in self.outer_extra.items()}
        lay.circuit = None  # every signal is a column now

    def _tag(self, n: Optional[int]) -> str:
        return "inner" if n is not None else self.TAG

    def _name(self, node: Formula, n: Optional[int], t: Union[int, str],
              aux: str = "") -> str:
        """``z{aux}{fid}_n{n}_t{t}`` for an inner row, ``y{aux}{fid}_t{t}``
        for an outer one; t and aux may be ``until_release_row``'s template
        fields."""
        fid = self.layout.fid(node)
        return f"z{aux}{fid}_n{n}_t{t}" if n is not None else f"y{aux}{fid}_t{t}"

    def _build(self, node: Formula, n: Optional[int]) -> list[Signal]:
        lay, circuit = self.layout, self.circuit
        h = lay.h
        size = h + lay.tau if n is not None else h
        tag = self._tag(n)
        if isinstance(node, (ITrue, OTrue)):
            return [ONE] * size
        if node == INNER_FALSE:
            return [ZERO] * size
        if isinstance(node, IAtom):
            return self.leaves.row(node.name, n, size)
        if isinstance(node, Tcp):
            return self._tcp_row(node)
        if isinstance(node, (INot, ONot)):
            if not isinstance(node.child, IAtom):
                raise EncodingError("negation must sit on atoms; normalize the "
                                    "formula to positive normal form first")
            child = self.row(node.child, n)
            return circuit.gates("NOT", [[v] for v in child],
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
            return child[1:h] + [loop_value(circuit, lay.loop_signals, child,
                                            self._name(node, n, h - 1), tag=tag)]
        if isinstance(node, (IUntil, OUntil, IRelease, ORelease)):
            release = isinstance(node, (IRelease, ORelease))
            lhs = self.row(node.lhs if release else self._until_guard(node), n)
            rhs = self.row(node.rhs, n)
            row = until_release_row(circuit, lay.loop_signals, lhs, rhs, release,
                                    self._name(node, n, "{t}", "{aux}"), tag)
            if n is not None and size > h:
                row += self._tie_to_loop(node, n, row)
            return row
        raise TypeError(f"not a formula: {node!r}")

    def _tie_to_loop(self, phi: InnerFormula, n: int, row: list[Signal]) -> list[Signal]:
        """Signals for the positions t = h .. h+tau-1 of an inner row, each
        equal to the row at wrap(l, t) for the chosen loop start l: per
        position z and loop start l, ``z - row[wrap] + z_l <= 1`` and
        ``-z + row[wrap] + z_l <= 1``, the shared constants folded.  An
        undecided position is a fresh column; a decided one is its
        constant and keeps the rows that still constrain the row.  The
        columns are one block and the rows another."""
        lay = self.layout
        steps = range(lay.h, lay.h + lay.tau)
        sources = [[row[lay.wrap_index(l, t)] for l in range(lay.h)] for t in steps]

        def lower(ids: range) -> None:
            model, circuit = lay.model, lay.circuit
            # every column that exists or is a constant first, so that the
            # ids counted from n_vars are the new columns'
            loops = [circuit.column(z) for z in lay.loop_signals]
            targets = [[circuit.column(x) for x in row] for row in sources]
            own = [None if circuit.val[s] is None else circuit.column(s) for s in ids]
            open_ = [k for k, z in enumerate(own) if z is None]
            for z, k in zip(itertools.count(model.n_vars), open_):
                circuit.col[ids[k]] = own[k] = z
            rows = RowBlock(model)
            for z, row in zip(own, targets):
                for loop, target in zip(loops, row):
                    rows.add([z, target, loop], [1.0, -1.0, 1.0], -inf, 1.0)
                    rows.add([z, target, loop], [-1.0, 1.0, 1.0], -inf, 1.0)
            rows.store("inner", [self._name(phi, n, lay.h + k) for k in open_])

        return self.circuit.select(lay.loop_signals, sources, lower)

    def _gate_row(self, op: str, node: Formula, n: Optional[int]) -> list[Signal]:
        """One ``op`` gadget per position over the children's rows, as one
        block."""
        kids = [self.row(c, n) for c in node.children]
        return self.circuit.gates(op, list(zip(*kids)),
                                  [self._name(node, n, t) for t in range(len(kids[0]))],
                                  self._tag(n))

    def _or_row(self, node: Union[IOr, OOr], n: Optional[int]) -> list[Signal]:
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

    def _at_least(self, counts: Iterable[Iterable[Signal]], m: int, size: int,
                  node: OuterFormula, steps: Iterable[int], prefix: str = "y") -> list[Signal]:
        """Signals equal to [sum of counts[k] >= m] for the k-th step of
        ``steps``, each count over at most ``size`` robots.  A threshold
        m <= 0 always holds and one above ``size`` never does: both are
        constants, and the lazy ``counts`` are never consumed, so nothing
        that only they would read gets built.  Otherwise every count is
        built before the indicators' names ``{prefix}{fid(node)}_t{t}``
        are made, so formula ids follow creation order, and the
        indicators are one block (``IlpModel.indicators_geq``)."""
        if m <= 0:
            return [ONE for _ in steps]
        if m > size:
            return [ZERO for _ in steps]
        counts = [list(count) for count in counts]
        fid = self.layout.fid(node)
        return self.circuit.at_least(counts, m, size, [f"{prefix}{fid}_t{t}" for t in steps],
                                     self.TAG)

    def _tcp_row(self, tcp: Tcp) -> list[Signal]:
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


def build_discrete_problem(inst: MultiRobotInstance, norm: OuterFormula, h: int, tau: int,
                           encoder: type, name: str) -> EncodedProblem:
    """The per-robot program of a normalized formula: the logic pinned at
    step 0 and settled with the robots' state sets (``LogicEncoder``,
    ``DiscreteAtoms``), then the state vectors with their dynamics, the
    loop, the tau steps past it, the collision rows, and the logic rows
    the settling left undecided."""
    model = IlpModel(name)
    layout = Layout(model, inst, h, tau)
    atoms = DiscreteAtoms(layout)
    logic = encoder(layout, atoms)
    logic.pin_root(norm)
    atoms.states.commit()
    add_state_vectors(layout, range(h + 1), "dynamics")
    encode_loop(layout)
    # the lasso's state at h+k is k steps past w[h] = w[l]: vectors tied to the loop
    add_state_vectors(layout, range(h + 1, h + tau + 1), "robust")
    encode_collision(layout)
    logic.lower()
    return EncodedProblem(model, layout, inst, h, tau, "cltlplus")


def build_sync_problem(inst: MultiRobotInstance, mu: OuterFormula,
                       h: int) -> EncodedProblem:
    """Full synchronous feasibility program: dynamics + loop + logic
    constraints + the instance's collision constraints, with the root
    formula pinned true at step 0."""
    return build_discrete_problem(inst, prepare_formula(mu, inst), h, 0, LogicEncoder, "sync")


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
