"""Aggregate-flow encoder and flow decomposition."""

import random

import pytest

from cltlsynth.formula import (IAtom, IEventually, INot, ITrue, OAlways, OEventually,
                               ONot, OTrue, Tcp, children, iter_tcps, rebuild)
from cltlsynth.ilp import IlpModel
from cltlsynth.oracle import CollectiveExecution, Lasso, brute_force_synth, eval_outer
from cltlsynth.solver import solve_bnb
from cltlsynth.system import MultiRobotInstance, TransitionSystem
from cltlsynth.encoder_cltl import (AggregateCounts, CltlOuterEncoder, EncodingError,
                                    build_cltl_problem, decompose_flows)
from cltlsynth.encoder_sync import Layout, build_sync_problem

from conftest import (oracle_check_all_logic_vars, random_instance, random_outer,
                      reaggregate)


def ts_of(states, transitions, labels, ap=("a", "b")):
    label_map = tuple(frozenset(labels.get(i, ())) for i in range(len(states)))
    return TransitionSystem(tuple(states), frozenset(transitions), tuple(ap),
                            label_map)


def fleet(ts, w0):
    """Identical robots on ``ts``, w0[i] of them starting at state i."""
    starts = tuple(i for i, count in enumerate(w0) for _ in range(count))
    return MultiRobotInstance((ts,) * len(starts), starts)


def test_single_state_flock_is_stationary():
    ts = ts_of(["v1"], {(0, 0)}, {0: ("a",)})
    problem = build_cltl_problem(fleet(ts, (5,)), OTrue(), h=3)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    for t in range(4):
        assert sol[problem.layout.agg_state[t][0]] == 5


def test_swap_graph_supports_period_two_counts():
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0)}, {})
    problem = build_cltl_problem(fleet(ts, (3, 2)), OTrue(), h=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    w = {t: [sol[v] for v in problem.layout.agg_state[t]] for t in range(3)}
    assert w[0] == [3, 2] and w[1] == [2, 3] and w[2] == [3, 2]


def test_conservation_in_every_feasible_solution():
    rng = random.Random(79)
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 5), rng.randint(2, 4),
                               ["a", "b"], identical=True)
        problem = build_cltl_problem(inst, OTrue(), h=3)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        for t in range(4):
            total = sum(sol[v] for v in problem.layout.agg_state[t])
            assert total == inst.n_robots


def test_counting_threshold_on_fixed_occupancies():
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1), (0, 1), (1, 0)}, {0: ("a",)})
    w0 = (3, 2)
    for m, expected in ((3, True), (4, False)):
        model = IlpModel()
        layout = Layout(model, fleet(ts, w0), h=1)
        counts = AggregateCounts(layout)
        logic = CltlOuterEncoder(layout, counts)
        tcp = Tcp(IAtom("a"), m)
        logic.row(tcp)  # the threshold's row, unpinned, decided by the counts
        counts.emit()
        # freeze occupancies at their initial values
        for i in (0, 1):
            model.add_row([layout.agg_state[1][i]], [1], "=", w0[i], "fix")
        logic.lower()
        y = layout.rows[(tcp, None)][0]
        sol = solve_bnb(model)
        assert sol.feasible
        assert bool(sol[y]) == expected


def test_zero_threshold_always_true():
    ts = ts_of(["v1"], {(0, 0)}, {})
    problem = build_cltl_problem(fleet(ts, (2,)), Tcp(IAtom("a"), 0), h=2)
    assert solve_bnb(problem.model).feasible


def test_rejects_temporal_inner_formula():
    ts = ts_of(["v1"], {(0, 0)}, {0: ("a",)})
    with pytest.raises(EncodingError, match="offending inner formula: F a"):
        build_cltl_problem(fleet(ts, (1,)), Tcp(IEventually(IAtom("a")), 1), h=2)


def test_rejects_group_restrictions():
    ts = ts_of(["v1"], {(0, 0)}, {0: ("a",)})
    with pytest.raises(EncodingError, match="group"):
        build_cltl_problem(fleet(ts, (2,)), Tcp(IAtom("a"), 1, frozenset({0})), h=2)


def test_negated_atoms_survive_normalization():
    # outer negation dualizes to a negated-atom literal, which the
    # aggregate counting handles through the complement label vector
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1), (0, 1), (1, 0)}, {0: ("a",)})
    problem = build_cltl_problem(fleet(ts, (0, 2)), OAlways(ONot(Tcp(IAtom("a"), 1))), h=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    for t in range(3):
        assert sol[problem.layout.agg_state[t][0]] == 0


def test_model_size_independent_of_fleet_size():
    ts = ts_of(["v1", "v2", "v3"], {(0, 1), (1, 2), (2, 0), (0, 0)}, {0: ("a",)})
    mu = OAlways(OEventually(Tcp(IAtom("a"), 3)))
    small = build_cltl_problem(fleet(ts, (10, 0, 0)), mu, h=5)
    large = build_cltl_problem(fleet(ts, (500, 0, 0)), mu, h=5)
    assert small.model.n_vars == large.model.n_vars
    assert small.model.n_constraints == large.model.n_constraints


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decompose_ok(problem, sol):
    trajs = decompose_flows(problem, sol)
    shared = problem.instance.systems[0]
    for traj in trajs:
        assert traj.validate_against(shared) == []
    w = {t: [round(sol[v]) for v in problem.layout.agg_state[t]]
         for t in sorted(problem.layout.agg_state)}
    upto = max(t.horizon for t in trajs)
    counts = reaggregate(trajs, shared.n_states, upto)
    loop = trajs[0].loop_start
    period = problem.h - loop
    for t in range(upto + 1):
        base = t if t <= problem.h else loop + (t - loop) % period
        assert counts[t] == w[base], f"occupancies diverge at t={t}"
    return trajs


def test_lowest_index_first_assignment():
    ts = ts_of(["v1", "v2"], {(0, 0), (0, 1), (1, 1), (1, 0)}, {})
    inst = fleet(ts, (2, 0))
    model = IlpModel()
    layout = Layout(model, inst, h=1)
    AggregateCounts(layout).emit()
    # force the split: one robot stays, one moves
    model.add_row([layout.agg_flow[(0, 0, 0)]], [1], "=", 1, "fix")
    model.add_row([layout.agg_flow[(0, 1, 0)]], [1], "=", 1, "fix")
    model.add_row([layout.loop_vars[0]], [1], "=", 0, "fix")
    sol = solve_bnb(model)
    assert not sol.feasible  # h=1 cannot close the loop after a split
    model2 = IlpModel()
    layout2 = Layout(model2, inst, h=2)
    AggregateCounts(layout2).emit()
    model2.add_row([layout2.agg_flow[(0, 0, 0)]], [1], "=", 1, "fix")
    model2.add_row([layout2.agg_flow[(0, 1, 0)]], [1], "=", 1, "fix")
    sol2 = solve_bnb(model2)
    assert sol2.feasible
    from cltlsynth.encoder_sync import EncodedProblem
    problem = EncodedProblem(model2, layout2, inst, 2, 0, "cltl")
    trajs = decompose_flows(problem, sol2)
    assert trajs[0].states[1] == 0  # robot 0 takes the lowest destination
    assert trajs[1].states[1] == 1


def test_swap_decomposition_reaggregates_exactly():
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0)}, {})
    problem = build_cltl_problem(fleet(ts, (1, 1)), OTrue(), h=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = decompose_ok(problem, sol)
    assert len(trajs) == 2


def test_single_robot_decomposition_is_unit_flow():
    ts = ts_of(["v1", "v2", "v3"], {(0, 1), (1, 2), (2, 0)}, {0: ("a",)})
    problem = build_cltl_problem(fleet(ts, (1, 0, 0)), Tcp(IAtom("a"), 1), h=3)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = decompose_ok(problem, sol)
    assert trajs[0].states == (0, 1, 2, 0)


def test_permuting_loop_closes_by_cycle_concatenation():
    # Force a 2-cycle at the aggregate level: one robot each way, loop
    # start 0, so identities swap every period and lassos must concatenate.
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0)}, {})
    inst = MultiRobotInstance((ts, ts), (0, 1))
    problem = build_cltl_problem(inst, OTrue(), h=1)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = decompose_ok(problem, sol)
    # each robot's lasso walks through both states and closes on itself
    for traj in trajs:
        assert traj.states[-1] == traj.states[traj.loop_start]
        assert traj.period == 2


def test_decomposition_respects_real_initial_states():
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0), (0, 0), (1, 1)}, {0: ("a",)})
    inst = MultiRobotInstance((ts, ts, ts), (1, 0, 1))
    problem = build_cltl_problem(inst, OTrue(), h=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = decompose_flows(problem, sol)
    assert [t.states[0] for t in trajs] == [1, 0, 1]


def test_decomposition_is_reproducible_and_valid():
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0), (0, 0), (1, 1)}, {})
    inst = MultiRobotInstance(tuple([ts] * 4), (0, 0, 1, 1))
    problem = build_cltl_problem(inst, OTrue(), h=3)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    t1 = decompose_flows(problem, sol)
    t2 = decompose_flows(problem, sol)
    assert t1 == t2
    shared = inst.systems[0]
    for traj in t1:
        assert traj.validate_against(shared) == []


# ---------------------------------------------------------------------------
# Agreement with the per-robot encoder
# ---------------------------------------------------------------------------

def test_fragment_agreement_with_sync_encoder():
    # Horizon-by-horizon agreement needs every state to offer a stay-put
    # move and a next-free formula: otherwise occupancy counts can close a
    # loop that permutes robot identities, which the aggregate encoding
    # accepts at a strictly smaller horizon than per-robot closure allows.
    rng = random.Random(83)
    atoms = ["a", "b"]
    agree = 0
    for trial in range(20):
        inst = random_instance(rng, rng.randint(2, 3), rng.randint(2, 4),
                               atoms, identical=True, self_loops=True)
        mu = random_outer(rng, rng.randint(1, 3), atoms, inst.n_robots,
                          bare_atoms=True, allow_next=False)
        h = rng.randint(2, 4)
        agg_feasible = solve_bnb(build_cltl_problem(inst, mu, h).model).feasible
        sync_feasible = solve_bnb(build_sync_problem(inst, mu, h).model).feasible
        assert agg_feasible == sync_feasible, f"trial {trial}: {mu}"
        agree += 1
    assert agree == 20


def with_literals(rng, mu):
    """``mu`` with the atom a of each tcp replaced at random by a, !a, !!a
    or true: every literal the aggregate engine counts."""
    if isinstance(mu, Tcp):
        atom = mu.inner
        return Tcp(rng.choice([atom, INot(atom), INot(INot(atom)), ITrue()]), mu.m)
    kids = children(mu)
    return rebuild(type(mu), [with_literals(rng, k) for k in kids]) if kids else mu


def test_literal_tcps_agree_with_brute_force_and_the_per_robot_engine():
    # the fragment where the aggregate model is horizon-exact (see
    # test_fragment_agreement_with_sync_encoder)
    rng = random.Random(139)
    atoms = ["a", "b"]
    verdicts, literals = [], set()
    for trial in range(24):
        inst = random_instance(rng, 2, rng.randint(2, 3), atoms,
                               identical=True, self_loops=True)
        mu = with_literals(rng, random_outer(rng, rng.randint(1, 2), atoms, 2,
                                             bare_atoms=True, allow_next=False))
        literals |= {str(t.inner).replace("b", "a") for t in iter_tcps(mu)}
        h = rng.randint(2, 3)
        brute = brute_force_synth(inst, mu, h) is not None
        agg = solve_bnb(build_cltl_problem(inst, mu, h).model).feasible
        sync = solve_bnb(build_sync_problem(inst, mu, h).model).feasible
        assert agg == sync == brute, f"trial {trial}: {agg} {sync} {brute} {mu}"
        verdicts.append(brute)
    assert literals == {"a", "!a", "!!a", "true"}
    assert any(verdicts) and not all(verdicts)


def test_decomposed_trajectories_satisfy_formula():
    rng = random.Random(89)
    atoms = ["a", "b"]
    hits = 0
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 4), rng.randint(2, 4),
                               atoms, identical=True)
        mu = random_outer(rng, rng.randint(1, 2), atoms, inst.n_robots,
                          bare_atoms=True)
        h = rng.randint(2, 4)
        problem = build_cltl_problem(inst, mu, h)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        hits += 1
        trajs = decompose_ok(problem, sol)
        lassos = [Lasso.from_trajectory(t, inst.systems[0]) for t in trajs]
        assert eval_outer(lassos, CollectiveExecution.synchronous(len(lassos)),
                          0, mu)
    assert hits >= 8


def test_every_outer_row_matches_oracle_on_decomposed_lassos():
    # The decomposition reproduces the occupancy of every step, so each
    # outer row entry equals its synchronous truth value on the lassos.
    # The aggregate program has no inner rows.
    rng = random.Random(131)
    atoms = ["a", "b"]
    hits = 0
    for _ in range(30):
        inst = random_instance(rng, rng.randint(2, 4), rng.randint(2, 4),
                               atoms, identical=True)
        mu = random_outer(rng, rng.randint(1, 3), atoms, inst.n_robots,
                          bare_atoms=True)
        problem = build_cltl_problem(inst, mu, rng.randint(2, 4))
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        assert all(n is None for _, n in problem.layout.rows)
        lassos = [Lasso.from_trajectory(t, inst.systems[0])
                  for t in decompose_flows(problem, sol)]
        hits += oracle_check_all_logic_vars(problem.layout, sol, lassos) > 0
    assert hits >= 10
