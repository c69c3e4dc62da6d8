"""Shared generators for randomized cross-checks, and the check of every
logic row of a solved program against the oracle.

Everything is seeded; tests state their seeds so failures replay exactly.
"""

from __future__ import annotations

import random

from scipy import sparse

from cltlsynth.formula import (IAtom, IAnd, IEventually, IAlways, INext, INot,
                               IOr, ITrue, IUntil, IRelease, InnerFormula,
                               OAlways, OAnd, OEventually, ONext, ONot, OOr,
                               ORelease, OTrue, OUntil, OuterFormula, Tcp,
                               parse_formula)
from cltlsynth.encoder_sync import extract_trajectories
from cltlsynth.oracle import CollectiveExecution, Lasso, eval_inner, eval_outer
from cltlsynth.system import MultiRobotInstance, TransitionSystem, build_grid_system


def random_inner(rng: random.Random, depth: int, atoms: list[str],
                 allow_next: bool = True) -> InnerFormula:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.75:
            return IAtom(rng.choice(atoms))
        if roll < 0.85:
            return INot(IAtom(rng.choice(atoms)))
        return ITrue()
    ops = ["not", "and", "or", "until", "release", "eventually", "always"]
    if allow_next:
        ops.append("next")
    op = rng.choice(ops)
    if op == "not":
        return INot(random_inner(rng, depth - 1, atoms, allow_next))
    if op == "and":
        return IAnd((random_inner(rng, depth - 1, atoms, allow_next),
                     random_inner(rng, depth - 1, atoms, allow_next)))
    if op == "or":
        return IOr((random_inner(rng, depth - 1, atoms, allow_next),
                    random_inner(rng, depth - 1, atoms, allow_next)))
    if op == "next":
        return INext(random_inner(rng, depth - 1, atoms, allow_next))
    if op == "until":
        return IUntil(random_inner(rng, depth - 1, atoms, allow_next),
                      random_inner(rng, depth - 1, atoms, allow_next))
    if op == "release":
        return IRelease(random_inner(rng, depth - 1, atoms, allow_next),
                        random_inner(rng, depth - 1, atoms, allow_next))
    if op == "eventually":
        return IEventually(random_inner(rng, depth - 1, atoms, allow_next))
    return IAlways(random_inner(rng, depth - 1, atoms, allow_next))


def random_outer(rng: random.Random, depth: int, atoms: list[str], n_robots: int,
                 inner_depth: int = 1, allow_not: bool = True,
                 allow_next: bool = True, inner_next: bool = True,
                 bare_atoms: bool = False) -> OuterFormula:
    if depth <= 0 or rng.random() < 0.3:
        if not bare_atoms and rng.random() < 0.05:
            return OTrue()
        m = rng.randint(0, n_robots)
        if bare_atoms:
            return Tcp(IAtom(rng.choice(atoms)), m)
        return Tcp(random_inner(rng, rng.randint(0, inner_depth), atoms,
                                allow_next=inner_next), m)
    ops = ["and", "or", "until", "release", "eventually", "always"]
    if allow_not:
        ops.append("not")
    if allow_next:
        ops.append("next")
    op = rng.choice(ops)
    args = dict(atoms=atoms, n_robots=n_robots, inner_depth=inner_depth,
                allow_not=allow_not, allow_next=allow_next, inner_next=inner_next,
                bare_atoms=bare_atoms)
    if op == "not":
        return ONot(random_outer(rng, depth - 1, **args))
    if op == "and":
        return OAnd((random_outer(rng, depth - 1, **args),
                     random_outer(rng, depth - 1, **args)))
    if op == "or":
        return OOr((random_outer(rng, depth - 1, **args),
                    random_outer(rng, depth - 1, **args)))
    if op == "next":
        return ONext(random_outer(rng, depth - 1, **args))
    if op == "until":
        return OUntil(random_outer(rng, depth - 1, **args),
                      random_outer(rng, depth - 1, **args))
    if op == "release":
        return ORelease(random_outer(rng, depth - 1, **args),
                        random_outer(rng, depth - 1, **args))
    if op == "eventually":
        return OEventually(random_outer(rng, depth - 1, **args))
    return OAlways(random_outer(rng, depth - 1, **args))


def random_lasso(rng: random.Random, atoms: list[str], horizon: int) -> Lasso:
    labels = [frozenset(a for a in atoms if rng.random() < 0.4)
              for _ in range(horizon)]
    loop = rng.randrange(horizon)
    labels.append(labels[loop])
    return Lasso(labels, loop)


def random_transition_system(rng: random.Random, n_states: int,
                             atoms: list[str], edge_prob: float = 0.35,
                             self_loops: bool = False) -> TransitionSystem:
    transitions = set()
    for i in range(n_states):
        for j in range(n_states):
            if rng.random() < edge_prob:
                transitions.add((i, j))
        if self_loops:
            transitions.add((i, i))
        if not any(t[0] == i for t in transitions):
            transitions.add((i, rng.randrange(n_states)))
    labels = tuple(frozenset(a for a in atoms if rng.random() < 0.4)
                   for _ in range(n_states))
    return TransitionSystem(tuple(f"s{i}" for i in range(n_states)),
                            frozenset(transitions), tuple(atoms), labels)


def random_instance(rng: random.Random, n_robots: int, n_states: int,
                    atoms: list[str], identical: bool = False,
                    edge_prob: float = 0.35,
                    self_loops: bool = False) -> MultiRobotInstance:
    if identical:
        shared = random_transition_system(rng, n_states, atoms, edge_prob, self_loops)
        systems = tuple(shared for _ in range(n_robots))
    else:
        systems = tuple(
            random_transition_system(rng, n_states, atoms, edge_prob, self_loops)
            for _ in range(n_robots))
    inits = tuple(rng.randrange(n_states) for _ in range(n_robots))
    return MultiRobotInstance(systems, inits)


def reaggregate(trajectories, n_states: int, upto: int) -> list[list[int]]:
    """Occupancy counts per step from individual lassos, for cross-checks
    against the aggregate encoding's counts."""
    out = []
    for t in range(upto + 1):
        counts = [0] * n_states
        for traj in trajectories:
            counts[traj.state_at(t)] += 1
        out.append(counts)
    return out


def emergency_instance():
    """The 8x8 emergency desk: four robots, mutual exclusion, eight clause
    types."""
    def cells(xs, ys):
        return [[x, y] for x in xs for y in ys]

    regions = {
        "A": cells([0, 1], [2, 3, 4, 5]),
        "C": cells([6, 7], [2, 3, 4, 5]),
        "D": [[4, y] for y in (0, 1, 2, 5, 6, 7)],
        "B": [[4, 3], [4, 4]],
        "B1": [[3, 3], [3, 4]],
        "B2": [[5, 3], [5, 4]],
        "Fc": [[3, 3], [3, 4], [5, 3], [5, 4]],
    }
    ts = build_grid_system(8, 8, regions)

    def idx(x, y):
        return y * 8 + x

    inst = MultiRobotInstance(
        (ts,) * 4, (idx(2, 3), idx(2, 4), idx(6, 3), idx(6, 4)),
        {}, "mutual_exclusion")
    mu = parse_formula(
        "G !([D,1]) & G !([B,3]) & [G F Fc, 4] & G F [A,2] & G F [C,2] "
        "& G F !([A,1]) & G F !([C,1]) & (!([B,1]) U ([B1,1] & [B2,1]))")
    return inst, mu


def scipy_csr(matrix) -> sparse.csr_matrix:
    """The package's NumPy ``CsrMatrix`` as a SciPy matrix over the same
    arrays: the reference its tests compare against."""
    return sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                             shape=matrix.shape)


def discrete_lassos(problem, sol) -> list[Lasso]:
    """The labeled lassos of a per-robot discrete solution."""
    trajs = extract_trajectories(problem.layout, sol)
    return [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, problem.instance.systems)]


def oracle_check_all_logic_vars(layout, sol, lassos, outer: bool = True) -> int:
    """Assert that every entry of every logic row in ``layout.rows`` has
    its exact truth value in ``sol``: an inner row by ``eval_inner`` on its
    robot's lasso, an outer row (robot None) by ``eval_outer`` under the
    synchronous execution.  ``outer=False`` skips the outer rows, whose
    robust form certifies anchor times instead.  Returns the number of
    entries checked."""
    sync = CollectiveExecution.synchronous(len(lassos))
    checked = 0
    for (node, n), row in layout.rows.items():
        if n is None and not outer:
            continue
        for t, var in enumerate(row):
            expected = (eval_outer(lassos, sync, t, node) if n is None
                        else eval_inner(lassos[n], t, node))
            assert round(sol[var]) == int(expected), \
                f"{node} robot {n} t={t}: ilp={sol[var]} oracle={expected}"
            checked += 1
    return checked
