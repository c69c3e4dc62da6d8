"""Affine continuous-state encoder: forward-substituted dynamics, loop
closure, polytope membership gadgets, robust windows over them."""

import random

import numpy as np
import pytest

from cltlsynth.formula import (IAtom, IEventually, IUntil, OAnd, OEventually, ONext, ONot,
                               Tcp)
from cltlsynth.ilp import BINARY, KINDS, IlpModel, LinExpr
from cltlsynth.oracle import CollectiveExecution, Lasso, eval_outer
from cltlsynth.solver import solve_bnb
from cltlsynth.system import ContinuousSystem, ModelError
from cltlsynth.encoder_continuous import (ContinuousPlan, build_cont_problem,
                                          extract_continuous, membership_trace)
from cltlsynth.encoder_sync import EncodingError, Layout

from conftest import oracle_check_all_logic_vars, random_outer


def integrators(n_robots=1, init=0.0, box=10.0, u_max=1.0):
    """1-D integrator robots: w(t+1) = w(t) + u(t)."""
    f = np.array([[1.0]])
    g = np.array([[1.0]])
    c = np.zeros(1)
    inits = [np.array([init + 0.0 * k]) for k in range(n_robots)]
    atoms = {
        "A": (np.array([[1.0], [-1.0]]), np.array([1.1, -0.9])),
        "C": (np.array([[1.0], [-1.0]]), np.array([0.1, 0.1])),
    }
    return ContinuousSystem(
        dynamics=tuple((f, g, c) for _ in range(n_robots)),
        init=tuple(inits),
        atoms=atoms,
        state_bounds=(np.array([-box]), np.array([box])),
        input_bounds=(np.array([-u_max]), np.array([u_max])),
    )


def test_zero_input_constant_state_loops_immediately():
    sys_ = integrators()
    model = IlpModel()
    layout = Layout(model, sys_, h=3)
    ContinuousPlan(layout).emit()
    for t in range(3):
        for v in layout.input_vars[(0, t)]:
            model.add_constraint(LinExpr({v: 1}), "=", 0, tag="fix")
    sol = solve_bnb(model)
    assert sol.feasible
    for t in range(4):
        value = layout.state_exprs[(0, t)][0]
        total = value.const + sum(c * sol[v] for v, c in value.coeffs.items())
        assert abs(total) < 1e-9


def test_reach_target_in_two_steps():
    sys_ = integrators()
    problem = build_cont_problem(sys_, OEventually(Tcp(IAtom("A"), 1)), h=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_continuous(problem, sol)
    assert any(0.9 - 1e-9 <= w[0] <= 1.1 + 1e-9 for w in trajs[0].states)


def test_unbounded_box_rejected():
    sys_ = integrators()
    with pytest.raises(ModelError, match="finite"):
        ContinuousSystem(sys_.dynamics, sys_.init, sys_.atoms,
                         (np.array([-np.inf]), np.array([np.inf])),
                         sys_.input_bounds)


def test_formula_checked_against_the_atoms_and_groups():
    sys_ = integrators()
    with pytest.raises(EncodingError, match=r"unknown propositions: \['Z'\]"):
        build_cont_problem(sys_, Tcp(IAtom("Z"), 1), h=2)
    # a continuous model has no robot groups
    with pytest.raises(EncodingError, match=r"unknown groups: \['g'\]"):
        build_cont_problem(sys_, Tcp(IAtom("A"), 1, "g"), h=2)


# ---------------------------------------------------------------------------
# Polytope membership gadget
# ---------------------------------------------------------------------------

def membership_model(point, margin=1e-5):
    """Drive a 2-D state from the origin to `point` in one step and encode
    its membership in the unit box; returns the model and the column of
    the membership value at that step.  The state is the program's
    choice, so the margin applies."""
    sys_ = ContinuousSystem(
        dynamics=((np.eye(2), np.eye(2), np.zeros(2)),),
        init=(np.zeros(2),),
        atoms={"B": (np.vstack([np.eye(2), -np.eye(2)]),
                     np.array([1.0, 1.0, 0.0, 0.0]))},
        state_bounds=(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
        input_bounds=(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
    )
    model = IlpModel()
    layout = Layout(model, sys_, 2)
    plan = ContinuousPlan(layout, margin)
    z = plan.row("B", 0, 2)[1]
    layout.circuit.propagate()
    plan.refine()
    plan.emit()
    layout.circuit.lower()
    for v, x in zip(layout.input_vars[(0, 0)], point):
        model.add_constraint(LinExpr({v: 1}), "=", x, tag="fix")
    return model, layout.circuit.column(z)


def test_point_inside_forces_membership():
    model, z = membership_model([0.5, 0.5])
    sol = solve_bnb(model)
    assert sol.feasible and sol[z] == 1
    model, z = membership_model([0.5, 0.5])
    model.add_constraint(LinExpr({z: 1}), "=", 0, tag="force")
    assert solve_bnb(model).status == "infeasible"


def test_point_outside_forces_nonmembership():
    model, z = membership_model([1.5, 0.5])
    sol = solve_bnb(model)
    assert sol.feasible and sol[z] == 0
    model, z = membership_model([1.5, 0.5])
    model.add_constraint(LinExpr({z: 1}), "=", 1, tag="force")
    assert solve_bnb(model).status == "infeasible"


def test_boundary_shell_is_excluded():
    # the band (face - margin, face + margin) admits no face assignment at
    # all, the face itself included; just past it on either side the state
    # is inside or outside
    for x in (1.0, 1.0 - 5e-4, 1.0 + 5e-4):
        model, _ = membership_model([x, 0.5], margin=1e-3)
        assert solve_bnb(model).status == "infeasible"
    for x, inside in ((1.0 - 2e-3, 1), (1.0 + 2e-3, 0)):
        model, z = membership_model([x, 0.5], margin=1e-3)
        sol = solve_bnb(model)
        assert sol.feasible and sol[z] == inside


def unit_interval(init):
    """One 1-D integrator starting at ``init``, atom B = [0, 1]."""
    f, g = np.array([[1.0]]), np.array([[1.0]])
    return ContinuousSystem(
        dynamics=((f, g, np.zeros(1)),), init=(np.array([init]),),
        atoms={"B": (np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))},
        state_bounds=(np.array([-5.0]), np.array([5.0])),
        input_bounds=(np.array([-1.0]), np.array([1.0])))


def test_a_start_state_on_a_face_is_inside():
    # a state no input moves is known exactly: on a face it is inside, as
    # membership_trace reads it, and 1e-6 past the face it is outside
    for x, inside in ((0.0, True), (1.0, True), (-1e-6, False), (1.0 + 1e-6, False)):
        sys_ = unit_interval(x)
        problem = build_cont_problem(sys_, Tcp(IAtom("B"), 1), h=2)
        sol = solve_bnb(problem.model)
        assert sol.feasible == inside, x
        if inside:
            traj, = extract_continuous(problem, sol)
            assert "B" in membership_trace(sys_, traj)[0]
        # the start is in B at step 1 only if it is now, one step of at most 1 away
        problem = build_cont_problem(sys_, ONot(Tcp(IAtom("B"), 1)), h=2)
        assert solve_bnb(problem.model).feasible != inside, x


def test_tail_of_a_row_decided_at_its_start_is_new_binaries():
    # F B holds at step 0 for a robot that starts in B, so its row starts
    # with the constant 1; the robust tail (t = h .. h + tau - 1) reads
    # the row at the loop start, and its entry is a binary of its own, in
    # rows, although the constant is first made for the tail's rows
    sys_ = unit_interval(0.5)
    problem = build_cont_problem(sys_, Tcp(IEventually(IAtom("B")), 1), h=3, tau=1)
    model, layout = problem.model, problem.layout
    row, = [row for (node, n), row in layout.rows.items() if isinstance(node, IUntil)]
    assert model.constant_value(row[0]) == 1
    used = set(model.to_arrays().matrix.indices.tolist())
    tail, = row[3:]
    assert model.constant_value(tail) is None
    assert model.names[tail].endswith("_n0_t3") and tail in used
    binaries = np.flatnonzero(model.kind_codes() == KINDS.index(BINARY)).tolist()
    assert set(binaries) <= used | set(model.constant_ids)
    sol = solve_bnb(model)
    assert sol.feasible


def test_membership_gadget_matches_direct_evaluation():
    rng = random.Random(113)
    hmat = np.vstack([np.eye(2), -np.eye(2)])
    hvec = np.array([1.0, 1.0, 0.0, 0.0])
    agree = 0
    for _ in range(1000):
        point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        margins = np.abs(hmat @ np.array(point) - hvec)
        if margins.min() <= 1e-5:  # stay clear of the excluded shell
            continue
        expected = bool(np.all(hmat @ np.array(point) <= hvec))
        model, z = membership_model(point)
        sol = solve_bnb(model)
        assert sol.feasible
        assert bool(sol[z]) == expected, f"{point}"
        agree += 1
    assert agree > 900


# ---------------------------------------------------------------------------
# Whole problems
# ---------------------------------------------------------------------------

def test_two_integrators_meet_in_target():
    sys_ = integrators(n_robots=2)
    mu = OEventually(Tcp(IAtom("A"), 2))
    problem = build_cont_problem(sys_, mu, h=5)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_continuous(problem, sol)
    inside = [
        {t for t, w in enumerate(traj.states) if 0.9 - 1e-9 <= w[0] <= 1.1 + 1e-9}
        for traj in trajs]
    assert inside[0] & inside[1], "no simultaneous visit"
    lassos = [Lasso(membership_trace(sys_, traj), traj.loop_start)
              for traj in trajs]
    assert eval_outer(lassos, CollectiveExecution.synchronous(2), 0, mu)


def test_threshold_above_fleet_size_infeasible():
    sys_ = integrators(n_robots=2)
    problem = build_cont_problem(sys_, OEventually(Tcp(IAtom("A"), 3)), h=4)
    assert solve_bnb(problem.model).status == "infeasible"


def test_replay_matches_encoded_states():
    sys_ = integrators(n_robots=2)
    problem = build_cont_problem(sys_, OEventually(Tcp(IAtom("A"), 2)), h=4)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_continuous(problem, sol)
    for n, traj in enumerate(trajs):
        replayed = traj.replay(sys_.dynamics[n])
        for t in range(problem.h + 1):
            expr = problem.layout.state_exprs[(n, t)][0]
            encoded = expr.const + sum(c * sol[v] for v, c in expr.coeffs.items())
            assert abs(replayed[t][0] - encoded) <= 1e-6
            assert abs(traj.states[t][0] - encoded) <= 1e-6


def test_instantaneous_visits_fail_under_asynchrony():
    # visiting both regions within h = 2 leaves no time to dwell anywhere
    # for two consecutive steps, which the one-step drift demands
    sys_ = integrators(n_robots=2)
    mu = OAnd((OEventually(Tcp(IAtom("A"), 2)), OEventually(Tcp(IAtom("C"), 2))))
    sync = build_cont_problem(sys_, mu, h=2, tau=0)
    assert solve_bnb(sync.model).feasible
    robust = build_cont_problem(sys_, mu, h=2, tau=1)
    assert solve_bnb(robust.model).status == "infeasible"
    # with room to dwell the robust variant becomes feasible again
    relaxed = build_cont_problem(sys_, mu, h=4, tau=1)
    sol = solve_bnb(relaxed.model)
    assert sol.feasible
    trajs = extract_continuous(relaxed, sol)
    lassos = [Lasso(membership_trace(sys_, traj), traj.loop_start)
              for traj in trajs]
    from cltlsynth.oracle import check_robust
    assert not check_robust(lassos, mu, tau=1, max_T=6).falsified


def test_outer_next_warns_under_asynchrony():
    # the discrete robust engine's warning: both go through prepare_formula
    with pytest.warns(UserWarning, match="outer next"):
        build_cont_problem(integrators(n_robots=2), ONext(Tcp(IAtom("A"), 1)), 3, tau=1)


def seeded_cases(count: int = 20, seed: int = 137) -> list:
    """(robots, formula, horizon) triples drawn from one seeded stream."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 2)
        cases.append((n, random_outer(rng, rng.randint(1, 2), ["A", "C"], n,
                                      inner_depth=2), rng.randint(2, 4)))
    return cases


@pytest.mark.parametrize("n, mu, h", [pytest.param(*case, id=str(k))
                                      for k, case in enumerate(seeded_cases())])
def test_every_logic_row_matches_oracle_on_membership_traces(n, mu, h):
    # Each inner row entry must equal the robot's truth value on its
    # polytope-membership lasso, and each outer one the synchronous truth
    # value of the collection.
    sys_ = integrators(n_robots=n)
    problem = build_cont_problem(sys_, mu, h)
    sol = solve_bnb(problem.model)
    if sol.feasible:
        lassos = [Lasso(membership_trace(sys_, t), t.loop_start)
                  for t in extract_continuous(problem, sol)]
        assert oracle_check_all_logic_vars(problem.layout, sol, lassos) > 0
