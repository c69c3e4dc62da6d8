"""Every engine folds what the pinned root forces while it builds the
program: bound propagation over the built rows (``propagation_reference``)
fixes no column but the shared constants, no row holds at every point
of the bounds it leaves, and every binary is in some row.  Folded programs keep the engines' verdicts:
brute-force agreement on conjunctions of G, GF, F G and negated counting
clauses, with every logic row checked against the oracle."""

import dataclasses
import random

import numpy as np
import pytest

from cltlsynth.encoder_cltl import build_cltl_problem, decompose_flows
from cltlsynth.encoder_continuous import build_cont_problem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.formula import (IAlways, IAtom, IEventually, INot, OAlways, OAnd,
                               OEventually, ONot, Tcp, parse_formula)
from cltlsynth.ilp import BINARY, KINDS
from cltlsynth.oracle import Lasso, brute_force_synth, check_robust
from cltlsynth.solver import solve_bnb
from cltlsynth.system import ContinuousSystem, MultiRobotInstance, build_grid_system

from conftest import (discrete_lassos, emergency_instance, oracle_check_all_logic_vars,
                      random_instance, random_outer)
from propagation_reference import fold_leftovers


def assert_at_fixpoint(problem, what):
    model = problem.model
    columns, rows = fold_leftovers(model)
    if columns == ["<infeasible>"]:
        assert solve_bnb(model).status == "infeasible", what
        return
    assert not columns, f"{what}: propagation fixes {columns[:5]}"
    assert not rows, f"{what}: rows {rows[:5]} always hold"
    # and every binary but the constants is in some row: no column is made
    # that the program does not use
    used = set(model.to_arrays().matrix.indices.tolist()) | set(model.constant_ids)
    orphans = [model.names[c] for c in np.flatnonzero(model.kind_codes() == KINDS.index(BINARY)).tolist()
               if c not in used]
    assert not orphans, f"{what}: binaries {orphans[:5]} are in no row"


@pytest.mark.parametrize("h", [8, 12])
def test_the_desk_program_is_at_the_fixpoint(h):
    inst, mu = emergency_instance()
    problem = build_sync_problem(inst, mu, h)
    assert_at_fixpoint(problem, f"desk h={h}")


def test_the_desk_program_at_h16_is_within_its_target():
    """The 8x8 desk at h = 16 had 5,615 columns and 13,517 rows, 1,432 of
    the columns fixed by propagation from the root pin."""
    inst, mu = emergency_instance()
    model = build_sync_problem(inst, mu, 16).model
    assert model.n_vars <= 4200 and model.n_constraints <= 9300


def random_fleet(rng, identical=False):
    n = rng.randint(1, 3)
    inst = random_instance(rng, n, rng.randint(1, 5), ["a", "b"], identical=identical,
                           self_loops=rng.random() < 0.5)
    if all(ts.states == inst.systems[0].states for ts in inst.systems):
        inst = dataclasses.replace(inst, collision_mode=rng.choice(
            ["off", "mutual_exclusion", "mutual_exclusion_plus_swap"]))
    return inst


@pytest.mark.filterwarnings("ignore:formula normalized to positive normal form")
def test_per_robot_programs_are_at_the_fixpoint():
    rng = random.Random(211)
    for trial in range(120):
        inst = random_fleet(rng)
        tau = rng.choice([0, 0, 1, 2])
        mu = random_outer(rng, rng.randint(1, 3), ["a", "b"], inst.n_robots,
                          inner_depth=2, allow_next=tau == 0, inner_next=tau == 0)
        h = rng.randint(1, 5)
        problem = build_robust_problem(inst, mu, h, tau)
        assert_at_fixpoint(problem, f"trial {trial}: {mu} h={h} tau={tau}")


def test_aggregate_programs_are_at_the_fixpoint():
    rng = random.Random(223)
    for trial in range(80):
        inst = random_fleet(rng, identical=True)
        mu = random_outer(rng, rng.randint(1, 3), ["a", "b"], inst.n_robots,
                          bare_atoms=True)
        h = rng.randint(1, 5)
        problem = build_cltl_problem(inst, mu, h)
        assert_at_fixpoint(problem, f"trial {trial}: {mu} h={h}")


def integrators(n_robots):
    f, g = np.array([[1.0]]), np.array([[1.0]])
    atoms = {"A": (np.array([[1.0], [-1.0]]), np.array([1.1, -0.9])),
             "C": (np.array([[1.0], [-1.0]]), np.array([-1.9, 2.1]))}
    return ContinuousSystem(
        dynamics=tuple((f, g, np.zeros(1)) for _ in range(n_robots)),
        init=tuple(np.array([0.5 * k]) for k in range(n_robots)), atoms=atoms,
        state_bounds=(np.array([-3.0]), np.array([3.0])),
        input_bounds=(np.array([-1.0]), np.array([1.0])))


@pytest.mark.filterwarnings("ignore:formula normalized to positive normal form")
def test_continuous_programs_are_at_the_fixpoint():
    rng = random.Random(227)
    for trial in range(40):
        n = rng.randint(1, 2)
        tau = rng.choice([0, 0, 1])
        mu = random_outer(rng, rng.randint(1, 2), ["A", "C"], n, inner_depth=1,
                          allow_next=tau == 0, inner_next=False)
        h = rng.randint(1, 4)
        problem = build_cont_problem(integrators(n), mu, h, tau)
        assert_at_fixpoint(problem, f"trial {trial}: {mu} h={h} tau={tau}")


def pinned_root(rng, n_robots, atoms, literals=False):
    """A conjunction of G, G F, F G and negated counting clauses over
    literals and, unless ``literals``, G or F of an atom: the specs whose
    root pin decides most of the program."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        atom = IAtom(rng.choice(atoms))
        inner = rng.choice([atom, atom, INot(atom)] +
                           ([] if literals else [IAlways(atom), IEventually(atom)]))
        tcp = Tcp(inner, rng.randint(1, n_robots))
        shape = rng.choice(["G", "GF", "FG", "Gnot", "not"])
        clauses.append({"G": OAlways(tcp), "GF": OAlways(OEventually(tcp)),
                        "FG": OEventually(OAlways(tcp)), "Gnot": OAlways(ONot(tcp)),
                        "not": ONot(tcp)}[shape])
    return clauses[0] if len(clauses) == 1 else OAnd(tuple(clauses))


def small_fleet(rng, identical=False):
    """At most two robots on at most three states, for brute force."""
    inst = random_instance(rng, rng.randint(1, 2), rng.randint(2, 3), ["a", "b"],
                           identical=identical, self_loops=rng.random() < 0.5)
    if all(ts.states == inst.systems[0].states for ts in inst.systems):
        inst = dataclasses.replace(inst, collision_mode=rng.choice(
            ["off", "mutual_exclusion", "mutual_exclusion_plus_swap"]))
    return inst


@pytest.mark.parametrize("engine", ["per-robot", "aggregate"])
def test_pinned_roots_agree_with_brute_force(engine):
    rng = random.Random(229 if engine == "per-robot" else 233)
    verdicts = []
    for trial in range(40):
        inst = small_fleet(rng, identical=engine == "aggregate")
        mu = pinned_root(rng, inst.n_robots, ["a", "b"], literals=engine == "aggregate")
        h = rng.randint(1, 4)
        brute = brute_force_synth(inst, mu, h) is not None
        build = build_sync_problem if engine == "per-robot" else build_cltl_problem
        problem = build(inst, mu, h)
        sol = solve_bnb(problem.model)
        assert sol.feasible == brute, f"trial {trial}: {mu} h={h}"
        if sol.feasible:
            lassos = discrete_lassos(problem, sol) if engine == "per-robot" else [
                Lasso.from_trajectory(t, inst.systems[0]) for t in decompose_flows(problem, sol)]
            assert oracle_check_all_logic_vars(problem.layout, sol, lassos) > 0
        verdicts.append(brute)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.filterwarnings("ignore:formula normalized to positive normal form")
def test_pinned_roots_stay_sound_under_asynchrony():
    rng = random.Random(239)
    feasible = 0
    for trial in range(30):
        inst = small_fleet(rng)
        mu = pinned_root(rng, inst.n_robots, ["a", "b"])
        h = rng.randint(2, 4)
        problem = build_robust_problem(inst, mu, h, 1)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        feasible += 1
        lassos = discrete_lassos(problem, sol)
        assert oracle_check_all_logic_vars(problem.layout, sol, lassos, outer=False) >= 0
        verdict = check_robust(lassos, mu, tau=1, max_T=h + 3, enumeration_cap=20000)
        assert not verdict.falsified, f"trial {trial}: {mu} h={h}"
    assert feasible >= 5


def test_equal_formulas_hash_equal():
    text = "G F [A, 2] & !([B, @{0, 1}, 1] U [C, 1]) & F G [!A & X B, 1]"
    one, two = parse_formula(text), parse_formula(text)
    assert one == two and one is not two
    assert hash(one) == hash(two) and {one: 1}[two] == 1
    assert hash(one.children[0]) == hash(two.children[0])
    assert parse_formula("G F [A, 3]") != parse_formula("G F [A, 2]")


def test_robots_sharing_a_start_state_collide_in_every_engine():
    """Two robots held at one state under mutual exclusion: the aggregate
    engine's start count exceeds the occupancy cap of 1, and the per-robot
    engine's state sets empty."""
    ts = build_grid_system(3, 3, {"A": [[0, 0]]})
    inst = MultiRobotInstance((ts, ts), (0, 0), {}, "mutual_exclusion")
    for build in (build_sync_problem, build_cltl_problem):
        problem = build(inst, parse_formula("G F [A, 1]"), 3)
        assert solve_bnb(problem.model).status == "infeasible"
