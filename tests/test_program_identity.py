"""The programs the engines build, pinned byte for byte.

Each digest is the SHA-256 of a program's ``to_arrays()`` arrays, its
``metadata()`` and its ``write_lp`` text.  Most of a HiGHS solve goes to
a heuristic whose time swings with any change to the program, so a
change to how programs are stored must leave every digest as it is.  A
change that means to alter a program records the new digest and says
why.

Every digest was recorded again when the engines began to fold what the
pinned root forces (``circuit``): entries the root pin, the constants
and the start states decide are the shared constants, the state sets
and occupancies narrow to what the rows allow, the logic circuit folds
decided inputs and stores no row that always holds, and the polytope
faces of the states the inputs move gained a margin on both sides.
Every program changed; the folded desk at h = 16 has 3,847 columns and
8,601 rows where it had 5,615 and 13,517.  The earlier digests had been
recorded while every row was still stored as its own ``LinExpr``.
"""

import dataclasses
import hashlib
import io
import json
import random

import numpy as np
import pytest

from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_continuous import build_cont_problem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.formula import parse_formula
from cltlsynth.lp_format import write_lp
from cltlsynth.system import (ContinuousSystem, MultiRobotInstance, TransitionSystem,
                              build_grid_system)

from conftest import emergency_instance, random_instance, random_outer


def program_digest(model) -> str:
    digest = hashlib.sha256()
    arrays = model.to_arrays()
    for array in (*arrays.matrix[:3], *arrays[1:]):
        digest.update(array.tobytes())
    digest.update(json.dumps(model.metadata(), sort_keys=True).encode())
    text = io.StringIO()
    write_lp(model, text)
    digest.update(text.getvalue().encode())
    return digest.hexdigest()


def double_integrators() -> ContinuousSystem:
    """Two planar double integrators (position, velocity) with a box goal
    A and a band B, so rows carry coefficients other than 1."""
    f = np.array([[1.0, 0.5], [0.0, 1.0]])
    g = np.array([[0.125], [0.5]])
    box = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
           np.array([3.5, -2.5, 0.25, 0.25]))
    band = (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0 / 3, 1.0 / 3]))
    return ContinuousSystem(
        dynamics=((f, g, np.zeros(2)), (f, g, np.array([0.0, 0.0]))),
        init=(np.array([0.0, 0.0]), np.array([1.0, 0.0])),
        atoms={"A": box, "B": band},
        state_bounds=(np.array([-4.0, -1.5]), np.array([4.0, 1.5])),
        input_bounds=(np.array([-1.0]), np.array([1.0])))


def desk(h):
    inst, mu = emergency_instance()
    return build_sync_problem(inst, mu, h)


def desk_robust(h):
    inst, _ = emergency_instance()
    return build_robust_problem(inst, parse_formula("G F [A,2] & G F [C,2] & G [!D,4]"),
                                h, 1)


def desk_aggregate(h):
    """The aggregate engine's program: integer occupancy and flow columns."""
    inst, _ = emergency_instance()
    return build_cltl_problem(inst, parse_formula("G F [A,2] & G F [C,2] & G [!D,4]"), h)


def desk_swap(h):
    """The desk under ``mutual_exclusion_plus_swap``: the swap rows."""
    inst, mu = emergency_instance()
    return build_sync_problem(
        dataclasses.replace(inst, collision_mode="mutual_exclusion_plus_swap"), mu, h)


def desk_tau2(h):
    """tau = 2: the collision pair rows two steps apart, two state vectors
    past h + 1, the pooled disjunction and the robust until guard."""
    inst, _ = emergency_instance()
    return build_robust_problem(
        inst, parse_formula("G F ([A,2] | [C,2]) & ([!D,4] U [Fc,1]) & [F A, 1] & G [!D,4]"),
        h, 2)


def mixed_fleet():
    """Three robots on three different systems: a single state with a self
    loop (its state vectors are full, so the shared constant 0 first
    appears with the next robot), a chain a -> b -> c that ends in a dead
    end (from step 3 its one-hot row reads ``const_0 = 1``), and a 3x3
    grid."""
    ap = ("A", "B")
    still = TransitionSystem(("s",), frozenset({(0, 0)}), ap, (frozenset({"A"}),))
    chain = TransitionSystem(("a", "b", "c"), frozenset({(0, 1), (1, 2)}), ap,
                             (frozenset(), frozenset({"B"}), frozenset({"A", "B"})))
    grid = build_grid_system(3, 3, {"A": [[0, 0], [2, 2]], "B": [[1, 1]]})
    return MultiRobotInstance((still, chain, grid), (0, 0, 4))


def mixed(h):
    return build_sync_problem(
        mixed_fleet(), parse_formula("G F [A,1] & [X B, 1] & F !([B,2]) & [!A U B, 2]"), h)


def integrators(h):
    return build_cont_problem(double_integrators(),
                              parse_formula("G F [A, 1] & F [B, 2] & G !([A, 2])"), h)


PROGRAMS = {  # name: (builder, h, SHA-256 of the program)
    "desk-h8": (desk, 8,
                "89aa4165d8baf4f610c9c45f8796b10ea678477d9ceb519d5d2f02d99d89ee31"),
    "desk-h12": (desk, 12,
                 "cc9ff5b91e2b1d53e9ad8cc6518986934a6a2bf454c5468d3e8d2af296966cc1"),
    "desk-h16": (desk, 16,
                 "f50fd4ef39fdf78e92348050af59e69ac90ecaea5fd3bcea20c941f093499ec1"),
    "desk-tau1-h6": (desk_robust, 6,
                     "d6f684dfad1fe76ac4e0994ea28afe2d25f1ba3aeb45b2704478d00e4e69c60e"),
    "desk-aggregate-h8": (
        desk_aggregate, 8, "20e0427206d54e28488c218bbc61cfaa08db9857922b76dfb8e8c75d2e6dd5ff"),
    "desk-swap-h8": (desk_swap, 8,
                     "be78cd81d7f483f6238fe7e1e0bdc64ad03f69906da85c2a9fec7d8a802af1c1"),
    "desk-tau2-h5": (desk_tau2, 5,
                     "dffdb4215634e9ba41def365dd96bc28ecd1d837fd2eaf372e8e2c8e51b65ffc"),
    "mixed-dead-end-h5": (
        mixed, 5, "01f3a5fb0ed5cf43b1dca67ae52c77ede0b1a662eb130cc6793f6a19dd54a02e"),
    "double-integrators-h5": (
        integrators, 5, "cd920a7a342354b55d26ff726127538fdb764efe5e6203b148d6288670e85779"),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_program_is_identical_to_the_recorded_one(name):
    build, h, want = PROGRAMS[name]
    assert program_digest(build(h).model) == want


def test_random_fleets_build_the_recorded_programs():
    """60 seeded random fleets (dead ends, mixed systems, every collision
    mode, tau 0 to 2): the SHA-256 over their digests."""
    rng = random.Random(97)
    modes = ["off", "mutual_exclusion", "mutual_exclusion_plus_swap"]
    digests = []
    for _ in range(60):
        n = rng.randint(1, 3)
        inst = random_instance(rng, n, rng.randint(1, 5), ["a", "b"],
                               identical=rng.random() < 0.6, self_loops=rng.random() < 0.5)
        if rng.random() < 0.3:  # a dead end: one state loses its moves
            k = rng.randrange(n)
            ts, dead = inst.systems[k], rng.randrange(inst.systems[k].n_states)
            ts = dataclasses.replace(ts, transitions=frozenset(
                e for e in ts.transitions if e[0] != dead))
            inst = dataclasses.replace(inst, systems=inst.systems[:k] + (ts,)
                                       + inst.systems[k + 1:])
        if all(ts.states == inst.systems[0].states for ts in inst.systems):
            inst = dataclasses.replace(inst, collision_mode=rng.choice(modes))
        mu = random_outer(rng, 2, ["a", "b"], n, inner_depth=2, allow_not=False,
                          allow_next=False, inner_next=False)
        h, tau = rng.randint(1, 4), rng.randint(0, 2)
        digests.append(program_digest(build_robust_problem(inst, mu, h, tau).model))
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == (
        "221c897cad67cd12e51148237c78ea4ba9dfc48bac5687df8ced208adc92c254")
