"""Ground-truth semantics, independent of every encoder.

Evaluates inner formulas over single lasso traces and outer formulas over
collective executions, checks robust satisfaction against the executions
whose asynchrony is bounded by tau, checks collisions over the infinite
executions, and synthesizes solutions by exhaustive search at tiny scale
for cross-checking the optimization pipeline.

Both logic layers are decided by one kernel, ``_label``: on a window of
times 0..W-1 where the step after W-1 goes back to a time ``lock``, it
labels every subformula bottom-up, as in model checking a path (Markey
and Schnoebelen, CONCUR 2003), for a batch of words at once.

- An inner formula on a lasso with horizon h is labeled on W = h with
  ``lock`` the loop start; ``eval_inner`` reads that row, and each
  ``CollectionOracle`` tabulates it once per tcp.
- After an execution's increment matrix ends at time T every counter
  advances each step, so from its lock, T + max(0, max_n(loop_start_n -
  k_n(T))), every robot is inside its loop and the collective state is
  periodic in global time with the joint period jp (the lcm of the lasso
  periods).  ``CollectionOracle.values`` therefore labels an outer formula
  for a batch of executions on W = L + jp, with L the batch's largest
  lock: a time u >= W has the value of L + (u - L) mod jp.

``check_robust`` checks the synchronous execution alone at tau = 0, and
for tau >= 1 feeds the tau-bounded executions to ``values`` ``CHUNK`` at
a time, or fewer when W x CHUNK x robots would pass ``WINDOW_CAP``.

The joint period of lassos with coprime periods grows as their product,
so the window can be far too long to label.  ``values`` refuses a window
of more than ``WINDOW_CAP`` entries (W x executions x robots) before it
allocates anything, and reports a window under the cap that still does
not fit in memory the same way; ``collision_violations`` refuses pair
windows of more than ``WINDOW_CAP`` steps in all.  Both raise
``VerificationBudgetError``, which the CLI reports as a budget problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .formula import (IAlways, IAnd, IEventually, INext, INot, IOr,
                      IRelease, ITrue, IUntil, InnerFormula, OAlways, OAnd,
                      OEventually, ONext, ONot, OOr, ORelease, OTrue, OUntil,
                      OuterFormula, Tcp, subformulas)
from .system import MultiRobotInstance, TransitionSystem
from .trajectory import LassoTrajectory


# Largest window the checks work through: W x executions x robots entries
# in ``CollectionOracle.values``, and the sum over robot pairs of the pair's
# window x (tau + 1) steps of the Python loop in ``collision_violations``.  ``values`` peaks at 13.0
# bytes per entry (tracemalloc, 8.4 M to 30 M entries, 4 to 300 robots),
# about 6.5 GiB at the cap.  The cap admits the largest window known to
# have been checked, 1.4 M steps x 300 robots = 421 M entries (59 s), and
# refuses the 1000-robot one that failed asking for 602 GiB.  A collision
# step took 2.5 to 3.1 us over windows of 3 M and 6 M steps on a shared
# 2-vCPU machine, so a window at the cap takes 22 to 28 minutes.
WINDOW_CAP = 1 << 29


class VerificationBudgetError(ValueError):
    """A check's window is longer than ``WINDOW_CAP`` allows, or does not
    fit in memory."""


# ---------------------------------------------------------------------------
# The labeling kernel
# ---------------------------------------------------------------------------

def _label(phi: Union[InnerFormula, OuterFormula],
           leaf: Callable[[Union[InnerFormula, OuterFormula]], np.ndarray],
           lock: int) -> np.ndarray:
    """(W, B) truth of ``phi`` at times 0..W-1 of B words whose time W is
    time ``lock`` again; ``leaf`` gives the (W, B) truth of each leaf
    (``ITrue``/``IAtom`` or ``OTrue``/``Tcp``)."""
    value: dict[int, np.ndarray] = {}  # by node identity: hashing a tree is slow
    # Reversed pre-order visits every node after all of its subformulas.
    for node in reversed(list(subformulas(phi))):
        if id(node) in value:
            continue
        if isinstance(node, (INot, ONot)):
            out = ~value[id(node.child)]
        elif isinstance(node, (IAnd, OAnd, IOr, OOr)):
            op = np.logical_and if isinstance(node, (IAnd, OAnd)) else np.logical_or
            out = op.reduce([value[id(c)] for c in node.children])
        elif isinstance(node, (INext, ONext)):
            child = value[id(node.child)]
            out = np.concatenate([child[1:], child[lock:lock + 1]])
        elif isinstance(node, (IEventually, OEventually)):
            out = _until(None, value[id(node.child)], lock)
        elif isinstance(node, (IAlways, OAlways)):
            out = ~_until(None, ~value[id(node.child)], lock)
        elif isinstance(node, (IUntil, OUntil)):
            out = _until(value[id(node.lhs)], value[id(node.rhs)], lock)
        elif isinstance(node, (IRelease, ORelease)):
            out = ~_until(~value[id(node.lhs)], ~value[id(node.rhs)], lock)
        else:  # a leaf; subformulas rejects every other node type
            out = leaf(node)
        value[id(node)] = out
    return value[id(phi)]


def _until(lhs: Optional[np.ndarray], rhs: np.ndarray, lock: int) -> np.ndarray:
    """Least solution of y[u] = rhs[u] or (lhs[u] and y[u+1]) on 0..W-1 with
    y[W] = y[lock] (``lhs`` None is true): a pass around the cycle [lock, W)
    from y[W] = False, a second from its y[lock], then one down to 0."""
    lhs = np.ones_like(rhs) if lhs is None else lhs
    out = np.empty_like(rhs)
    nxt = np.zeros(rhs.shape[1], dtype=bool)
    cycle = range(len(rhs) - 1, lock - 1, -1)
    for u in itertools.chain(cycle, cycle, range(lock - 1, -1, -1)):
        nxt = out[u] = rhs[u] | (lhs[u] & nxt)
    return out


# ---------------------------------------------------------------------------
# Labeled lasso traces
# ---------------------------------------------------------------------------

class Lasso:
    """A labeled lasso word; evaluation positions wrap through the loop."""

    def __init__(self, labels: Sequence[frozenset], loop_start: int):
        h = len(labels) - 1
        if h < 1 or not (0 <= loop_start <= h - 1):
            raise ValueError("need labels for positions 0..h with loop_start < h")
        self.labels = tuple(frozenset(s) for s in labels)
        self.loop_start = loop_start

    @classmethod
    def from_trajectory(cls, traj: LassoTrajectory, ts: TransitionSystem) -> "Lasso":
        return cls([ts.labels[s] for s in traj.states], traj.loop_start)

    @property
    def horizon(self) -> int:
        return len(self.labels) - 1

    @property
    def period(self) -> int:
        return self.horizon - self.loop_start

    def position(self, k: int) -> int:
        # Position h is identified with the loop start, so canonical
        # positions always lie in [0, h-1].
        if k < self.horizon:
            return k
        return self.loop_start + (k - self.loop_start) % self.period


def _inner_row(lasso: Lasso, phi: InnerFormula) -> np.ndarray:
    """(h,) truth of ``phi`` at the lasso's positions 0..h-1."""
    h = lasso.horizon

    def leaf(node: InnerFormula) -> np.ndarray:
        if isinstance(node, ITrue):
            return np.ones((h, 1), dtype=bool)
        return np.array([[node.name in labels] for labels in lasso.labels[:h]])

    return _label(phi, leaf, lasso.loop_start)[:, 0]


def eval_inner(lasso: Lasso, t: int, phi: InnerFormula) -> bool:
    """Exact LTL satisfaction of ``phi`` at position ``t`` of the lasso's
    infinite expansion."""
    return bool(_inner_row(lasso, phi)[lasso.position(t)])


# ---------------------------------------------------------------------------
# Collective executions
# ---------------------------------------------------------------------------

class CollectiveExecution:
    """Local counters for every robot, represented by an explicit increment
    matrix up to some horizon; after it, every counter advances each step
    (which keeps counters divergent and the spread constant)."""

    def __init__(self, increments: Union[np.ndarray, Sequence[Sequence[int]]]):
        inc = np.asarray(increments, dtype=np.int64)
        if inc.ndim != 2:
            raise ValueError("increments must be a (steps, robots) matrix")
        if inc.size and (inc.min() < 0 or inc.max() > 1):
            raise ValueError("increments are 0/1")
        self.increments = inc
        # cumulative[t][n] = k_n(t); row 0 is all zeros
        self.cumulative = np.vstack([np.zeros((1, inc.shape[1]), dtype=np.int64),
                                     np.cumsum(inc, axis=0)])

    @classmethod
    def synchronous(cls, n_robots: int) -> "CollectiveExecution":
        """The globally synchronous execution: k_n(t) = t."""
        return cls(np.zeros((0, n_robots), dtype=np.int64))

    @property
    def n_robots(self) -> int:
        return self.increments.shape[1]

    @property
    def horizon(self) -> int:
        return self.increments.shape[0]

    def counters(self, t: int) -> tuple[int, ...]:
        if t <= self.horizon:
            return tuple(int(x) for x in self.cumulative[t])
        tail = t - self.horizon
        return tuple(int(x) + tail for x in self.cumulative[self.horizon])

    def anchor(self, t: int) -> int:
        """Anchor time: the smallest local counter value at global time t."""
        return min(self.counters(t))


# ---------------------------------------------------------------------------
# Outer evaluation
# ---------------------------------------------------------------------------

class CollectionOracle:
    """Evaluator for a fixed collection of lassos: ``values`` labels a
    formula bottom-up for a batch of executions, ``evaluate`` for one."""

    def __init__(self, lassos: Sequence[Lasso]):
        self.lassos = list(lassos)
        self.joint_period = math.lcm(*(l.period for l in self.lassos))
        self._loop_start = np.array([l.loop_start for l in self.lassos], dtype=np.int32)
        self._horizon = np.array([l.horizon for l in self.lassos], dtype=np.int32)
        self._tables: dict[Tcp, np.ndarray] = {}

    def _tcp_table(self, tcp: Tcp) -> np.ndarray:
        """(robots, largest horizon) truth of the inner formula at each
        robot's positions 0..h-1; False for robots outside the group.
        Built once per tcp."""
        if tcp not in self._tables:
            if isinstance(tcp.group, str):
                raise ValueError(f"unresolved robot group {tcp.group!r}")
            scope = range(len(self.lassos)) if tcp.group is None else sorted(tcp.group)
            table = np.zeros((len(self.lassos), max(self._horizon, default=1)), dtype=bool)
            for n in scope:
                table[n, :self.lassos[n].horizon] = _inner_row(self.lassos[n], tcp.inner)
            self._tables[tcp] = table
        return self._tables[tcp]

    def tcp_count(self, tcp: Tcp, counters: Sequence[int]) -> int:
        """Robots in the tcp's group whose inner formula holds at their
        local times ``counters``."""
        table = self._tcp_table(tcp)
        return sum(int(table[n, lasso.position(k)])
                   for n, (lasso, k) in enumerate(zip(self.lassos, counters)))

    def values(self, increments: np.ndarray, mu: OuterFormula) -> np.ndarray:
        """(E, W) truth of ``mu`` at global times 0..W-1 for the executions
        whose increment matrices are the rows of the (E, T, n) 0/1 array
        ``increments``.  W = L + jp for the batch's largest lock L and the
        joint period jp; a time u >= W has the value of L + (u - L) mod jp.
        Raises ``VerificationBudgetError`` when W x E x n passes
        ``WINDOW_CAP`` or the window does not fit in memory."""
        inc = np.asarray(increments)
        if inc.ndim != 3:
            raise ValueError("increments must be an (executions, steps, robots) array")
        if inc.shape[2] != len(self.lassos):
            raise ValueError("execution robot count differs from the collection")
        batch, steps, _ = inc.shape
        final = inc.sum(axis=1, dtype=np.int32)
        lock = steps + max(0, int((self._loop_start - final).max(initial=0)))
        width = lock + self.joint_period
        window = (f"the oracle window of {width} steps for {batch} executions of "
                  f"{len(self.lassos)} robots")
        if width * batch * len(self.lassos) > WINDOW_CAP:
            raise VerificationBudgetError(f"{window} exceeds {WINDOW_CAP} entries")
        try:
            # Time-major layout: each global time is one contiguous row.
            counters = np.zeros((width, batch, len(self.lassos)), dtype=np.int32)
            np.cumsum(inc.transpose(1, 0, 2), axis=0, dtype=np.int32,
                      out=counters[1:steps + 1])
            counters[steps + 1:] = (final
                                    + np.arange(1, width - steps, dtype=np.int32)[:, None, None])
            loop = self._loop_start
            positions = np.where(counters < self._horizon, counters,
                                 loop + (counters - loop) % (self._horizon - loop))
            robots = np.arange(len(self.lassos))

            def leaf(node: OuterFormula) -> np.ndarray:
                if isinstance(node, OTrue):
                    return np.ones((width, batch), dtype=bool)
                return self._tcp_table(node)[robots, positions].sum(axis=2) >= node.m

            return _label(mu, leaf, lock).T
        except MemoryError:
            raise VerificationBudgetError(f"{window} does not fit in memory") from None

    def evaluate(self, execution: CollectiveExecution, mu: OuterFormula, t: int = 0) -> bool:
        row = self.values(execution.increments[None], mu)[0]
        if t >= len(row):
            lock = len(row) - self.joint_period
            t = lock + (t - lock) % self.joint_period
        return bool(row[t])


def eval_outer(lassos: Sequence[Lasso], execution: CollectiveExecution,
               t: int, mu: OuterFormula) -> bool:
    """Exact satisfaction of ``mu`` by the executed collection at time ``t``."""
    return CollectionOracle(lassos).evaluate(execution, mu, t)


# ---------------------------------------------------------------------------
# Robust falsification search
# ---------------------------------------------------------------------------

CHUNK = 512  # most executions per kernel call
_EXPAND_BLOCK = 1 << 13  # (prefix, step) candidates built at once


@dataclass
class Verdict:
    """Outcome of a falsification search.

    ``verified`` (tau = 0) means the synchronous execution satisfies the
    formula.  ``verified_bounded`` means no counterexample exists *within
    the searched window*; it is not a proof over all executions unless the
    search was exhaustive and the window arguments cover the formula's
    horizon.
    """

    status: str  # "verified" | "verified_bounded" | "falsified"
    counterexample: Optional[tuple[CollectiveExecution, int]] = None
    stats: dict = field(default_factory=dict)

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"


def _step_bits(n: int) -> np.ndarray:
    """All 2^n increment vectors in ascending ``itertools.product`` order."""
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8).reshape(-1, n)


def _bounded_sequences(n: int, tau: int, max_T: int, cap: int) -> Optional[np.ndarray]:
    """Every increment sequence of length max_T whose counter spread stays
    within tau, as an (S, max_T, n) int8 array in lexicographic order, or
    None when there are more than ``cap``.  Each level (step) lists every
    prefix's valid steps in ascending order, a block of prefixes at a
    time.  A level never shrinks, as the all-ones step is always valid, so
    the first level over the cap ends the enumeration.  No step table is
    built for max_T = 0 (one empty sequence) or when the first level, all
    2^n steps at tau >= 1, is over the cap."""
    seqs = np.zeros((1, 0, n), dtype=np.int8)
    if not max_T:
        return seqs
    if tau and 2 ** n > cap:
        return None
    steps = _step_bits(n)
    block = max(1, _EXPAND_BLOCK >> n)
    for depth in range(1, max_T + 1):
        grown = [np.zeros((0, depth, n), dtype=np.int8)]
        size = 0
        for i in range(0, len(seqs), block):
            prefixes = seqs[i:i + block]
            cand = prefixes.sum(axis=1, dtype=np.int32)[:, None, :] + steps
            prefix, step = np.nonzero(cand.max(axis=2) - cand.min(axis=2) <= tau)
            size += len(prefix)
            if size > cap:
                return None
            grown.append(np.concatenate([prefixes[prefix], steps[step][:, None, :]], axis=1))
        seqs = np.concatenate(grown)
    return seqs


def _sampled_sequences(n: int, tau: int, max_T: int, count: int,
                       seed: int, chunk_size: int) -> Iterator[np.ndarray]:
    """``count`` random tau-bounded sequences (tau >= 1), ``chunk_size``
    at a time or fewer; they are drawn ``CHUNK`` at a time, so the chunk
    size changes no sequence.  Each step is drawn uniformly among the
    valid steps in O(n), without listing them.  With the counters'
    offsets above their minimum, Z the robots at offset 0 and T those at
    tau, every step is valid when T is empty; otherwise a step is valid
    exactly when every robot in Z advances or no robot in T does.  Those
    are 2^(n-|Z|) + 2^(n-|T|) - 2^(n-|Z|-|T|) steps, so a draw picks the
    first branch with weight 2^|T| against 2^|Z| - 1, then flips a coin
    per robot, and in the second branch flips Z's coins again while they
    all come up advance."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        block = _sample_block(rng, n, tau, max_T, min(CHUNK, count - start))
        for i in range(0, len(block), chunk_size):
            yield block[i:i + chunk_size]


def _sample_block(rng: np.random.Generator, n: int, tau: int, max_T: int,
                  rows: int) -> np.ndarray:
    """``rows`` sequences of ``_sampled_sequences``, drawn step by step."""
    seqs = np.empty((rows, max_T, n), dtype=np.int8)
    offsets = np.zeros((rows, n), dtype=np.int32)
    for s in range(max_T):
        zero, top = offsets == 0, offsets == tau
        z, t = zero.sum(axis=1), top.sum(axis=1)
        with np.errstate(over="ignore"):  # 2^(|Z|-|T|) past a float: weight 0
            first = rng.random(rows) < 1 / (1 + np.exp2(z - t) - np.exp2(-t))
        bound = t > 0  # otherwise every step is valid
        all_of_z, none_of_t = bound & first, bound & ~first
        step = rng.random((rows, n)) < 0.5
        step |= zero & all_of_z[:, None]
        step &= ~(top & none_of_t[:, None])
        redo = none_of_t & (step | ~zero).all(axis=1)  # every robot in Z advanced
        while redo.any():
            step[redo] = np.where(zero[redo], rng.random((int(redo.sum()), n)) < 0.5,
                                  step[redo])
            redo = none_of_t & (step | ~zero).all(axis=1)
        seqs[:, s] = step
        offsets += step
        offsets -= offsets.min(axis=1, keepdims=True)
    return seqs


def check_robust(lassos: Sequence[Lasso], mu: OuterFormula, tau: int,
                 max_T: Optional[int] = None, enumeration_cap: int = 100000,
                 seed: int = 0) -> Verdict:
    """Search for a tau-bounded execution and a time with anchor 0 violating
    ``mu``.

    The executions are the increment sequences of length ``max_T``
    (default: the longest lasso horizon + tau + 1) whose counter spread
    stays within tau.  At tau = 0 that is the synchronous execution alone,
    the one the tau = 0 program encodes (max_T is 0, mode ``synchronous``
    and the verdict exact, ``verified`` or ``falsified``): a global stutter
    step would refute every outer next.  If at most ``enumeration_cap`` of
    them exist, all are checked in lexicographic order and the
    counterexample is the least violating increment matrix with its first
    violating anchored time; otherwise ``enumeration_cap`` are drawn from
    ``default_rng(seed)``.
    ``CollectionOracle.values`` checks them CHUNK at a time, or as many as
    keep W x chunk x robots within ``WINDOW_CAP``, at every time t <= max_T
    with anchor 0, and sampling stops after the first chunk with a
    violation; the chunk size changes no result.  ``stats["evaluations"]``
    counts the (execution, anchored time) pairs checked up to the
    counterexample, in search order.
    Raises ValueError when max_T is negative or enumeration_cap below 1.
    """
    n = len(lassos)
    if max_T is None:
        max_T = max(l.horizon for l in lassos) + tau + 1
    if max_T < 0:
        raise ValueError(f"max_T must not be negative, got {max_T}")
    if enumeration_cap < 1:
        raise ValueError(f"enumeration_cap must be at least 1, got {enumeration_cap}")
    if tau == 0:
        max_T = 0
    oracle = CollectionOracle(lassos)
    # a chunk's window is at most max_T + the largest loop start + jp steps
    # (``values``); one execution whose window passes the cap is refused there
    width = max_T + max(l.loop_start for l in lassos) + oracle.joint_period
    size = max(1, min(CHUNK, WINDOW_CAP // (width * n)))
    sequences = _bounded_sequences(n, tau, max_T, enumeration_cap)
    exhaustive = sequences is not None
    if exhaustive:
        chunks = (sequences[i:i + size] for i in range(0, len(sequences), size))
    else:
        chunks = _sampled_sequences(n, tau, max_T, enumeration_cap, seed, size)
    evaluated = 0
    found = None
    for inc in chunks:
        anchored = np.ones((len(inc), max_T + 1), dtype=bool)
        anchored[:, 1:] = np.cumsum(inc, axis=1, dtype=np.int32).min(axis=2) == 0
        violated = anchored & ~oracle.values(inc, mu)[:, :max_T + 1]
        if violated.any():
            r, t = map(int, np.argwhere(violated)[0])  # first row, its first time
            evaluated += int(anchored[:r].sum() + anchored[r, :t + 1].sum())
            found = (CollectiveExecution(inc[r]), t)
            break
        evaluated += int(anchored.sum())

    mode = "exhaustive" if tau else "synchronous"
    stats = {"mode": mode if exhaustive else "sampled",
             "sequences": len(sequences) if exhaustive else enumeration_cap,
             "evaluations": evaluated, "max_T": max_T}
    if found:
        return Verdict("falsified", found, stats)
    return Verdict("verified_bounded" if tau else "verified", None, stats)


# ---------------------------------------------------------------------------
# Collisions
# ---------------------------------------------------------------------------

def collision_violations(trajs: list[LassoTrajectory], mode: str, tau: int = 0) -> list[str]:
    """Independent collision checker over the infinite executions.

    A pair's positions, and so its meetings and swaps, repeat with the
    pair's own period past both horizons, so each pair (a, b) is walked
    over max(h_a, h_b) + lcm(p_a, p_b) + tau + 1 steps, and a repeated
    meeting is reported once per pair period.  Raises
    ``VerificationBudgetError`` when the pair windows times tau + 1 pass
    ``WINDOW_CAP`` in all."""
    if mode == "off" or len(trajs) < 2:
        return []
    windows = {(a, b): (max(trajs[a].horizon, trajs[b].horizon)
                        + math.lcm(trajs[a].period, trajs[b].period) + tau + 1)
               for a, b in itertools.combinations(range(len(trajs)), 2)}
    if sum(windows.values()) * (tau + 1) > WINDOW_CAP:
        raise VerificationBudgetError(
            f"the collision windows of {sum(windows.values())} steps for "
            f"{len(windows)} robot pairs exceed {WINDOW_CAP} steps")
    out = []
    for (a, b), window in windows.items():
        for t in range(window):
            for dt in range(tau + 1):
                if trajs[a].state_at(t) == trajs[b].state_at(t + dt):
                    out.append(f"robots {a} and {b} meet at step {t}(+{dt})")
                if dt and trajs[b].state_at(t) == trajs[a].state_at(t + dt):
                    out.append(f"robots {b} and {a} meet at step {t}(+{dt})")
            if mode == "mutual_exclusion_plus_swap":
                if (trajs[a].state_at(t) == trajs[b].state_at(t + 1)
                        and trajs[b].state_at(t) == trajs[a].state_at(t + 1)
                        and trajs[a].state_at(t) != trajs[a].state_at(t + 1)):
                    out.append(f"robots {a} and {b} swap at step {t}")
    return out


# ---------------------------------------------------------------------------
# Exhaustive synthesis at tiny scale
# ---------------------------------------------------------------------------

def _enumerate_paths(ts: TransitionSystem, init: int, h: int) -> list[tuple[int, ...]]:
    paths: list[tuple[int, ...]] = []

    def dfs(path: list[int]):
        if len(path) == h + 1:
            paths.append(tuple(path))
            return
        for succ in ts.successors(path[-1]):
            path.append(succ)
            dfs(path)
            path.pop()

    dfs([init])
    return paths


def brute_force_synth(inst: MultiRobotInstance, mu: OuterFormula, h: int,
                      tau: int = 0, space_cap: int = 10_000_000,
                      max_T: Optional[int] = None,
                      enumeration_cap: int = 100000) -> Optional[list[LassoTrajectory]]:
    """First (lexicographic) joint lasso with a common loop point that
    ``collision_violations`` and ``check_robust`` accept at ``tau``; None
    if the whole space is exhausted without a hit."""
    n = inst.n_robots
    largest = max(ts.n_states for ts in inst.systems)
    if largest ** (n * (h + 1)) > space_cap:
        raise ValueError(
            f"joint search space {largest}^{n * (h + 1)} exceeds the cap {space_cap}")
    per_robot = [_enumerate_paths(ts, s0, h)
                 for ts, s0 in zip(inst.systems, inst.initial_states)]
    if any(not paths for paths in per_robot):
        return None
    for joint in itertools.product(*per_robot):
        for l in range(h):
            if not all(path[h] == path[l] for path in joint):
                continue
            trajectories = [LassoTrajectory(path, l) for path in joint]
            if collision_violations(trajectories, inst.collision_mode, tau):
                continue
            lassos = [Lasso.from_trajectory(traj, ts)
                      for traj, ts in zip(trajectories, inst.systems)]
            verdict = check_robust(lassos, mu, tau, max_T=max_T,
                                   enumeration_cap=enumeration_cap)
            if verdict.stats["mode"] == "sampled":
                raise ValueError("enumeration cap too small for exhaustive search")
            if not verdict.falsified:
                return trajectories
    return None
