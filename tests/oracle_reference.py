"""Reference evaluators and robust-satisfaction checker, used only by the
tests.  None of them calls the labeling kernel in ``cltlsynth.oracle``
that they are compared against; ``evaluate`` and ``check_robust`` are the
oracle's earlier algorithm.

* ``fixpoint_eval`` decides an inner formula at every position of a
  lasso by value iteration over the successor map of its positions;
* ``evaluate`` decides an outer formula by a memoised top-down recursion
  over (subformula, global time), one fresh memo per call, scanning each
  temporal operator one joint period past the later of its start and the
  execution's lock;
* ``check_robust`` checks the synchronous execution alone at tau = 0;
  for tau >= 1 it counts the tau-bounded increment sequences first,
  then walks them depth first in lexicographic order, or, when they
  number more than the cap, takes the package's seeded sample
  (``oracle._sampled_sequences``) and checks that each of its steps keeps
  the spread within tau, and evaluates every execution at every anchored
  time one by one;
* ``tcp_windowed_violation`` checks one tcp over the anchored local-time
  combinations of a window.

It is slow (seconds where the kernel takes milliseconds), so tests call it
on small collections only.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from cltlsynth.formula import (IAlways, IAnd, IAtom, IEventually, INext, INot,
                               IOr, IRelease, ITrue, IUntil, OAlways, OAnd,
                               OEventually, ONext, ONot, OOr, ORelease, OTrue,
                               OUntil, OuterFormula, Tcp)
from cltlsynth import oracle
from cltlsynth.oracle import CollectiveExecution, Lasso, Verdict


@functools.lru_cache(maxsize=None)  # a Lasso hashes by identity
def fixpoint_eval(lasso: Lasso, phi) -> list:
    """Reference evaluator: satisfaction per quotient position, by fixpoint
    iteration over succ(t) = t+1 (wrapping into the loop)."""
    h = lasso.horizon
    positions = list(range(h))
    succ = [t + 1 if t + 1 < h else lasso.loop_start for t in positions]

    def values(node) -> list:
        if isinstance(node, ITrue):
            return [True] * h
        if isinstance(node, IAtom):
            return [node.name in lasso.labels[t] for t in positions]
        if isinstance(node, INot):
            return [not v for v in values(node.child)]
        if isinstance(node, IAnd):
            rows = [values(c) for c in node.children]
            return [all(r[t] for r in rows) for t in positions]
        if isinstance(node, IOr):
            rows = [values(c) for c in node.children]
            return [any(r[t] for r in rows) for t in positions]
        if isinstance(node, INext):
            child = values(node.child)
            return [child[succ[t]] for t in positions]
        if isinstance(node, (IUntil, IEventually)):
            lhs = values(node.lhs) if isinstance(node, IUntil) else [True] * h
            rhs = values(node.rhs if isinstance(node, IUntil) else node.child)
            val = [False] * h
            for _ in range(h + 1):
                val = [rhs[t] or (lhs[t] and val[succ[t]]) for t in positions]
            return val
        if isinstance(node, (IRelease, IAlways)):
            lhs = values(node.lhs) if isinstance(node, IRelease) else [False] * h
            rhs = values(node.rhs if isinstance(node, IRelease) else node.child)
            val = [True] * h
            for _ in range(h + 1):
                val = [rhs[t] and (lhs[t] or val[succ[t]]) for t in positions]
            return val
        raise TypeError(node)

    return values(phi)


def tcp_count(lassos: Sequence[Lasso], tcp: Tcp, counters: Sequence[int]) -> int:
    if isinstance(tcp.group, str):
        raise ValueError(f"unresolved robot group {tcp.group!r}")
    scope = range(len(lassos)) if tcp.group is None else sorted(tcp.group)
    return sum(1 for n in scope
               if fixpoint_eval(lassos[n], tcp.inner)[lassos[n].position(counters[n])])


def evaluate(lassos: Sequence[Lasso], execution: CollectiveExecution,
             mu: OuterFormula, t: int = 0) -> bool:
    if execution.n_robots != len(lassos):
        raise ValueError("execution robot count differs from the collection")
    periods = [l.period for l in lassos]
    joint_period = math.lcm(*periods) if periods else 1
    t_rep = execution.horizon
    lock = t_rep + max(
        [0] + [l.loop_start - k for l, k in zip(lassos, execution.counters(t_rep))])
    memo: dict = {}

    def canon(u: int) -> int:
        if u <= lock:
            return u
        return lock + (u - lock) % joint_period

    def ev(node: OuterFormula, u: int) -> bool:
        u = canon(u)
        key = (node, u)
        if key in memo:
            return memo[key]
        if isinstance(node, OTrue):
            value = True
        elif isinstance(node, Tcp):
            value = tcp_count(lassos, node, execution.counters(u)) >= node.m
        elif isinstance(node, ONot):
            value = not ev(node.child, u)
        elif isinstance(node, OAnd):
            value = all(ev(c, u) for c in node.children)
        elif isinstance(node, OOr):
            value = any(ev(c, u) for c in node.children)
        elif isinstance(node, ONext):
            value = ev(node.child, u + 1)
        elif isinstance(node, OEventually):
            end = max(u, lock) + joint_period
            value = any(ev(node.child, j) for j in range(u, end + 1))
        elif isinstance(node, OAlways):
            end = max(u, lock) + joint_period
            value = all(ev(node.child, j) for j in range(u, end + 1))
        elif isinstance(node, OUntil):
            end = max(u, lock) + joint_period
            value = False
            for j in range(u, end + 1):
                if ev(node.rhs, j):
                    value = True
                    break
                if not ev(node.lhs, j):
                    break
        elif isinstance(node, ORelease):
            end = max(u, lock) + joint_period
            value = True
            for j in range(u, end + 1):
                if not ev(node.rhs, j):
                    value = False
                    break
                if ev(node.lhs, j):
                    break
        else:
            raise TypeError(f"not an outer formula: {node!r}")
        memo[key] = value
        return value

    return ev(mu, t)


def _valid_steps(counters: tuple[int, ...], tau: int) -> Iterable[tuple[int, ...]]:
    n = len(counters)
    for bits in itertools.product((0, 1), repeat=n):
        new = tuple(c + b for c, b in zip(counters, bits))
        if max(new) - min(new) <= tau:
            yield bits


def _count_sequences(n: int, tau: int, max_t: int, cap: int) -> int:
    total = 0
    stack = [((0,) * n, 0)]
    while stack:
        counters, depth = stack.pop()
        if depth == max_t:
            total += 1
            if total > cap:
                return total
            continue
        for bits in _valid_steps(counters, tau):
            stack.append((tuple(c + b for c, b in zip(counters, bits)), depth + 1))
    return total


def _sampled(n: int, tau: int, max_T: int, count: int, seed: int):
    """The package's sampled sequences for ``seed``, one list of step
    tuples each (which steps it draws is tested on its own)."""
    for chunk in oracle._sampled_sequences(n, tau, max_T, count, seed, oracle.CHUNK):
        for seq in chunk.tolist():
            yield [tuple(bits) for bits in seq]


def check_robust(lassos: Sequence[Lasso], mu: OuterFormula, tau: int,
                 max_T: Optional[int] = None, enumeration_cap: int = 100000,
                 seed: int = 0) -> Verdict:
    n = len(lassos)
    if tau == 0:  # the synchronous execution, checked at t = 0 only
        execution = CollectiveExecution(np.zeros((0, n), dtype=np.int64))
        stats = {"mode": "synchronous", "sequences": 1, "evaluations": 1, "max_T": 0}
        if evaluate(lassos, execution, mu, 0):
            return Verdict("verified", None, stats)
        return Verdict("falsified", (execution, 0), stats)
    if max_T is None:
        max_T = max(l.horizon for l in lassos) + tau + 1
    total = _count_sequences(n, tau, max_T, enumeration_cap)
    exhaustive = total <= enumeration_cap
    evaluated = 0

    def violation(increments: list[tuple[int, ...]]) -> Optional[tuple[CollectiveExecution, int]]:
        nonlocal evaluated
        # reshape keeps the zero-step execution (max_T = 0) a (0, n) matrix
        execution = CollectiveExecution(
            np.array(increments, dtype=np.int64).reshape(len(increments), n))
        for t in range(max_T + 1):
            if execution.anchor(t) == 0:
                evaluated += 1
                if not evaluate(lassos, execution, mu, t):
                    return execution, t
        return None

    if exhaustive:
        def dfs(counters: tuple[int, ...], prefix: list[tuple[int, ...]]):
            if len(prefix) == max_T:
                return violation(prefix)
            for bits in _valid_steps(counters, tau):
                found = dfs(tuple(c + b for c, b in zip(counters, bits)), prefix + [bits])
                if found:
                    return found
            return None

        found = dfs((0,) * n, [])
    else:
        found = None
        for increments in _sampled(n, tau, max_T, enumeration_cap, seed):
            counters = (0,) * n
            for bits in increments:
                assert bits in set(_valid_steps(counters, tau))
                counters = tuple(c + b for c, b in zip(counters, bits))
            found = violation(increments)
            if found:
                break

    stats = {"mode": "exhaustive" if exhaustive else "sampled",
             "sequences": total if exhaustive else enumeration_cap,
             "evaluations": evaluated, "max_T": max_T}
    if found:
        return Verdict("falsified", found, stats)
    return Verdict("verified_bounded", None, stats)


def tcp_windowed_violation(lassos: Sequence[Lasso], tcp: Tcp, tau: int,
                           t: int) -> Optional[tuple[int, ...]]:
    """Anchored window check for a single counting proposition: a local-time
    combination k_n in [t, t+tau] with min = t where fewer than m robots
    satisfy the inner formula, or None."""
    for combo in itertools.product(range(t, t + tau + 1), repeat=len(lassos)):
        if min(combo) == t and tcp_count(lassos, tcp, combo) < tcp.m:
            return combo
    return None
