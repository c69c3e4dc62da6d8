"""Ground-truth semantics, independent of every encoder.

Evaluates inner formulas over single lasso traces and outer formulas over
collective executions, checks robust satisfaction against the executions
whose asynchrony is bounded by tau, and synthesizes solutions by
exhaustive search at tiny scale for cross-checking the optimization
pipeline.

After an execution's increment matrix ends at time T every counter
advances each step, so from its lock, T + max(0, max_n(loop_start_n -
k_n(T))), every robot is inside its loop and the collective state is
periodic in global time with the joint period jp (the lcm of the lasso
periods).  A batch of executions is therefore decided exactly on the
window 0..W-1, W = L + jp, with L the batch's largest lock: a time u >= W
has the value of L + (u - L) mod jp.  ``CollectionOracle.values`` labels
every subformula bottom-up over that window for the whole batch at once,
as in model checking a path (Markey and Schnoebelen, CONCUR 2003).
``check_robust`` feeds it the tau-bounded executions ``CHUNK`` at a time,
so its working set is bounded by the cap and the chunk size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .formula import (IAlways, IAnd, IAtom, IEventually, INext, INot, IOr,
                      IRelease, ITrue, IUntil, InnerFormula, OAlways, OAnd,
                      OEventually, ONext, ONot, OOr, OTrue, OUntil,
                      OuterFormula, Tcp, subformulas)
from .system import MultiRobotInstance, TransitionSystem
from .trajectory import LassoTrajectory


# ---------------------------------------------------------------------------
# Labeled lasso traces
# ---------------------------------------------------------------------------

class Lasso:
    """A labeled lasso word; evaluation positions wrap through the loop."""

    def __init__(self, labels: Sequence[frozenset], loop_start: int,
                 states: Optional[Sequence[int]] = None):
        h = len(labels) - 1
        if h < 1 or not (0 <= loop_start <= h - 1):
            raise ValueError("need labels for positions 0..h with loop_start < h")
        self.labels = tuple(frozenset(s) for s in labels)
        self.loop_start = loop_start
        self.states = tuple(states) if states is not None else None
        self._memo: dict = {}

    @classmethod
    def from_trajectory(cls, traj: LassoTrajectory, ts: TransitionSystem) -> "Lasso":
        return cls([ts.labels[s] for s in traj.states], traj.loop_start, traj.states)

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


def eval_inner(lasso: Lasso, t: int, phi: InnerFormula) -> bool:
    """Exact LTL satisfaction of ``phi`` at position ``t`` of the lasso's
    infinite expansion.  Until/release are decided by scanning one full
    period past the later of ``t`` and the loop, which covers every
    distinct suffix."""
    t = lasso.position(t)
    key = (phi, t)
    memo = lasso._memo
    if key in memo:
        return memo[key]
    if isinstance(phi, ITrue):
        value = True
    elif isinstance(phi, IAtom):
        value = phi.name in lasso.labels[t]
    elif isinstance(phi, INot):
        value = not eval_inner(lasso, t, phi.child)
    elif isinstance(phi, IAnd):
        value = all(eval_inner(lasso, t, c) for c in phi.children)
    elif isinstance(phi, IOr):
        value = any(eval_inner(lasso, t, c) for c in phi.children)
    elif isinstance(phi, INext):
        value = eval_inner(lasso, t + 1, phi.child)
    elif isinstance(phi, IEventually):
        end = max(t, lasso.loop_start) + lasso.period
        value = any(eval_inner(lasso, j, phi.child) for j in range(t, end + 1))
    elif isinstance(phi, IAlways):
        end = max(t, lasso.loop_start) + lasso.period
        value = all(eval_inner(lasso, j, phi.child) for j in range(t, end + 1))
    elif isinstance(phi, IUntil):
        end = max(t, lasso.loop_start) + lasso.period
        value = False
        for j in range(t, end + 1):
            if eval_inner(lasso, j, phi.rhs):
                value = True
                break
            if not eval_inner(lasso, j, phi.lhs):
                break
    elif isinstance(phi, IRelease):
        end = max(t, lasso.loop_start) + lasso.period
        value = True
        for j in range(t, end + 1):
            if not eval_inner(lasso, j, phi.rhs):
                value = False
                break
            if eval_inner(lasso, j, phi.lhs):
                break
    else:
        raise TypeError(f"not an inner formula: {phi!r}")
    memo[key] = value
    return value


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

    def max_spread(self) -> int:
        if self.n_robots <= 1:
            return 0
        spreads = self.cumulative.max(axis=1) - self.cumulative.min(axis=1)
        return int(spreads.max())


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

    def _scope(self, tcp: Tcp) -> Sequence[int]:
        if isinstance(tcp.group, str):
            raise ValueError(f"unresolved robot group {tcp.group!r}")
        return range(len(self.lassos)) if tcp.group is None else sorted(tcp.group)

    def tcp_count(self, tcp: Tcp, counters: Sequence[int]) -> int:
        return sum(1 for n in self._scope(tcp)
                   if eval_inner(self.lassos[n], counters[n], tcp.inner))

    def _tcp_table(self, tcp: Tcp) -> np.ndarray:
        """(robots, largest horizon) truth of the inner formula at each
        robot's positions 0..h-1; False for robots outside the group."""
        table = np.zeros((len(self.lassos), max(self._horizon, default=1)), dtype=bool)
        for n in self._scope(tcp):
            lasso = self.lassos[n]
            table[n, :lasso.horizon] = [eval_inner(lasso, k, tcp.inner)
                                        for k in range(lasso.horizon)]
        return table

    def values(self, increments: np.ndarray, mu: OuterFormula) -> np.ndarray:
        """(E, W) truth of ``mu`` at global times 0..W-1 for the executions
        whose increment matrices are the rows of the (E, T, n) 0/1 array
        ``increments``.  W = L + jp for the batch's largest lock L and the
        joint period jp; a time u >= W has the value of L + (u - L) mod jp."""
        inc = np.asarray(increments)
        if inc.ndim != 3:
            raise ValueError("increments must be an (executions, steps, robots) array")
        if inc.shape[2] != len(self.lassos):
            raise ValueError("execution robot count differs from the collection")
        batch, steps, _ = inc.shape
        final = inc.sum(axis=1, dtype=np.int32)
        lock = steps + max(0, int((self._loop_start - final).max(initial=0)))
        width = lock + self.joint_period
        # Time-major layout: each global time is one contiguous row.
        counters = np.zeros((width, batch, len(self.lassos)), dtype=np.int32)
        np.cumsum(inc.transpose(1, 0, 2), axis=0, dtype=np.int32, out=counters[1:steps + 1])
        counters[steps + 1:] = final + np.arange(1, width - steps, dtype=np.int32)[:, None, None]
        loop = self._loop_start
        positions = np.where(counters < self._horizon, counters,
                             loop + (counters - loop) % (self._horizon - loop))
        robots = np.arange(len(self.lassos))
        value: dict[int, np.ndarray] = {}  # by node identity: hashing a tree is slow
        # Reversed pre-order visits every node after all of its subformulas.
        for node in reversed(list(subformulas(mu))):
            if id(node) in value:
                continue
            if isinstance(node, OTrue):
                out = np.ones((width, batch), dtype=bool)
            elif isinstance(node, Tcp):
                out = self._tcp_table(node)[robots, positions].sum(axis=2) >= node.m
            elif isinstance(node, ONot):
                out = ~value[id(node.child)]
            elif isinstance(node, (OAnd, OOr)):
                op = np.logical_and if isinstance(node, OAnd) else np.logical_or
                out = op.reduce([value[id(c)] for c in node.children])
            elif isinstance(node, ONext):
                child = value[id(node.child)]
                out = np.concatenate([child[1:], child[lock:lock + 1]])
            elif isinstance(node, OEventually):
                out = _until(None, value[id(node.child)], lock)
            elif isinstance(node, OAlways):
                out = ~_until(None, ~value[id(node.child)], lock)
            elif isinstance(node, OUntil):
                out = _until(value[id(node.lhs)], value[id(node.rhs)], lock)
            else:  # ORelease; subformulas rejects every other node type
                out = ~_until(~value[id(node.lhs)], ~value[id(node.rhs)], lock)
            value[id(node)] = out
        return value[id(mu)].T

    def evaluate(self, execution: CollectiveExecution, mu: OuterFormula, t: int = 0) -> bool:
        row = self.values(execution.increments[None], mu)[0]
        if t >= len(row):
            lock = len(row) - self.joint_period
            t = lock + (t - lock) % self.joint_period
        return bool(row[t])


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


def eval_outer(lassos: Sequence[Lasso], execution: CollectiveExecution,
               t: int, mu: OuterFormula) -> bool:
    """Exact satisfaction of ``mu`` by the executed collection at time ``t``."""
    return CollectionOracle(lassos).evaluate(execution, mu, t)


# ---------------------------------------------------------------------------
# Robust falsification search
# ---------------------------------------------------------------------------

CHUNK = 512  # executions per kernel call; bounds its W x CHUNK x n arrays
_EXPAND_BLOCK = 1 << 13  # (prefix, step) candidates built at once


@dataclass
class Verdict:
    """Outcome of a bounded falsification search.

    ``verified_bounded`` means no counterexample exists *within the searched
    window*; it is not a proof over all executions unless the search was
    exhaustive and the window arguments cover the formula's horizon.
    """

    status: str  # "verified_bounded" | "falsified"
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
    the first level over the cap ends the enumeration."""
    steps = _step_bits(n)
    seqs = np.zeros((1, 0, n), dtype=np.int8)
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
                       seed: int) -> Iterator[np.ndarray]:
    """``count`` random tau-bounded sequences, CHUNK at a time.  Every step
    is one ``rng.integers`` draw among the valid steps in ascending order,
    which depend only on the counters' offsets above their minimum."""
    rng = np.random.default_rng(seed)
    steps = _step_bits(n)
    moves: dict[tuple[int, ...], tuple[np.ndarray, list]] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per offset vector
    for start in range(0, count, CHUNK):
        chunk = np.zeros((min(CHUNK, count - start), max_T, n), dtype=np.int8)
        for row in chunk:
            offsets = (0,) * n
            for s in range(max_T):
                if offsets not in moves:
                    cand = np.array(offsets, dtype=np.int32) + steps
                    ok = cand.max(axis=1) - cand.min(axis=1) <= tau
                    reached = (cand[ok] - cand[ok].min(axis=1, keepdims=True)).tolist()
                    moves[offsets] = steps[ok], [shared.setdefault(a, a)
                                                 for a in map(tuple, reached)]
                valid, after = moves[offsets]
                pick = rng.integers(len(valid))
                row[s] = valid[pick]
                offsets = after[pick]
        yield chunk


def check_robust(lassos: Sequence[Lasso], mu: OuterFormula, tau: int,
                 max_T: Optional[int] = None, enumeration_cap: int = 100000,
                 seed: int = 0) -> Verdict:
    """Search for a tau-bounded execution and a time with anchor 0 violating
    ``mu``.

    The executions are the increment sequences of length ``max_T``
    (default: the longest lasso horizon + tau + 1) whose counter spread
    stays within tau.  If at most ``enumeration_cap`` of them exist, all
    are checked in lexicographic order and the counterexample is the least
    violating increment matrix with its first violating anchored time;
    otherwise ``enumeration_cap`` are drawn from ``default_rng(seed)``.
    ``CollectionOracle.values`` checks them CHUNK at a time at every time
    t <= max_T with anchor 0, and sampling stops after the first chunk with
    a violation.  ``stats["evaluations"]`` counts the (execution, anchored
    time) pairs checked up to the counterexample, in search order.
    Raises ValueError when max_T is negative or enumeration_cap below 1.
    """
    n = len(lassos)
    if max_T is None:
        max_T = max(l.horizon for l in lassos) + tau + 1
    if max_T < 0:
        raise ValueError(f"max_T must not be negative, got {max_T}")
    if enumeration_cap < 1:
        raise ValueError(f"enumeration_cap must be at least 1, got {enumeration_cap}")
    oracle = CollectionOracle(lassos)
    sequences = _bounded_sequences(n, tau, max_T, enumeration_cap)
    exhaustive = sequences is not None
    if exhaustive:
        chunks = (sequences[i:i + CHUNK] for i in range(0, len(sequences), CHUNK))
    else:
        chunks = _sampled_sequences(n, tau, max_T, enumeration_cap, seed)
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

    stats = {"mode": "exhaustive" if exhaustive else "sampled",
             "sequences": len(sequences) if exhaustive else enumeration_cap,
             "evaluations": evaluated, "max_T": max_T}
    if found:
        return Verdict("falsified", found, stats)
    return Verdict("verified_bounded", None, stats)


def tcp_windowed_violation(lassos: Sequence[Lasso], tcp: Tcp, tau: int,
                           t: int) -> Optional[tuple[int, ...]]:
    """Anchored window check for a single counting proposition: a local-time
    combination k_n in [t, t+tau] with min = t where fewer than m robots
    satisfy the inner formula, or None."""
    n = len(lassos)
    oracle = CollectionOracle(lassos)
    for combo in itertools.product(range(t, t + tau + 1), repeat=n):
        if min(combo) != t:
            continue
        if oracle.tcp_count(tcp, combo) < tcp.m:
            return combo
    return None


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
    """First (lexicographic) joint lasso with a common loop point whose
    collection satisfies ``mu`` (robustly, when tau > 0); None if the whole
    space is exhausted without a hit."""
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
            lassos = [Lasso.from_trajectory(traj, ts)
                      for traj, ts in zip(trajectories, inst.systems)]
            if tau == 0:
                ok = eval_outer(lassos, CollectiveExecution.synchronous(n), 0, mu)
            else:
                verdict = check_robust(lassos, mu, tau, max_T=max_T,
                                       enumeration_cap=enumeration_cap)
                if verdict.stats["mode"] != "exhaustive":
                    raise ValueError("enumeration cap too small for exhaustive search")
                ok = not verdict.falsified
            if ok:
                return trajectories
    return None
