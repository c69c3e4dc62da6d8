"""Synchronous encoder: dynamics, loop, logic rows, collision, extraction.

The strongest checks here compare *every* created logic variable in a
feasible assignment against the independent oracle on the extracted
trajectories: the encodings are meant to pin each variable to the exact
satisfaction value, so any disagreement is an encoder bug.
"""

import random
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cltlsynth.formula import (IAtom, IEventually, IUntil, OAnd, OEventually,
                               ONot, ORelease, OTrue, OUntil, Tcp, parse_formula)
from cltlsynth.lp_format import write_lp
from cltlsynth.oracle import (CollectiveExecution, Lasso, brute_force_synth,
                              check_robust, eval_inner, eval_outer)
from cltlsynth.solver import solve_bnb, solve_external
from cltlsynth.system import MultiRobotInstance, TransitionSystem
from cltlsynth.encoder_sync import (EncodingError, ExtractionError,
                                    build_sync_problem, extract_trajectories)
from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_robust import build_robust_problem

from conftest import (discrete_lassos, oracle_check_all_logic_vars,
                      random_instance, random_outer)

LP_CLI = f"{sys.executable} -m cltlsynth.lp_cli {{lp}} {{sol}}"


def ts_of(states, transitions, labels, ap=("a", "b")):
    label_map = tuple(frozenset(labels.get(i, ())) for i in range(len(states)))
    return TransitionSystem(tuple(states), frozenset(transitions), tuple(ap),
                            label_map)


def single(ts, init=0, n_robots=1, collision="off"):
    return MultiRobotInstance(tuple([ts] * n_robots),
                              tuple([init] * n_robots), {}, collision)


def solve_and_extract(problem):
    sol = solve_bnb(problem.model)
    assert sol.feasible, "expected a feasible model"
    return sol, extract_trajectories(problem.layout, sol)


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

def test_self_loop_only_forces_constant_state():
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1)}, {0: ("a",)})
    problem = build_sync_problem(single(ts), Tcp(IAtom("a"), 1), h=2)
    sol, trajs = solve_and_extract(problem)
    assert trajs[0].states == (0, 0, 0)


def test_chain_without_self_loops_forces_advance():
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 1)}, {1: ("a",)})
    problem = build_sync_problem(single(ts), OTrue(), h=1)
    # no self-loop at v1: the only lasso is v1 -> v2 with the loop at v2...
    # but h=1 needs w(1) = w(0), impossible from v1, so v1 must move and the
    # model is infeasible at h=1 without a self-loop anywhere reachable
    ts2 = ts_of(["v1", "v2"], {(0, 1)}, {1: ("a",)})
    problem2 = build_sync_problem(single(ts2), OTrue(), h=1)
    assert solve_bnb(problem2.model).status == "infeasible"
    # with the self-loop at v2 and h=2 the robot must advance then stay
    problem3 = build_sync_problem(single(ts), OTrue(), h=2)
    sol, trajs = solve_and_extract(problem3)
    assert trajs[0].states[1] == 1 or trajs[0].states == (0, 0, 0)


def test_unreachable_loop_is_infeasible():
    # pure 3-chain, no cycles at all: no lasso exists for any h
    ts = ts_of(["v1", "v2", "v3"], {(0, 1), (1, 2)}, {})
    problem = build_sync_problem(single(ts), OTrue(), h=2)
    assert solve_bnb(problem.model).status == "infeasible"


# ---------------------------------------------------------------------------
# Reachability pruning
# ---------------------------------------------------------------------------

DEAD_END = ts_of(["v1", "v2", "v3"], {(0, 1), (1, 2)}, {})


def test_dead_end_chain_is_infeasible_through_both_solvers(tmp_path):
    # no state is reachable after 3 steps, so w[3] and w[4] have no live
    # entry; the model must stay infeasible and still export
    problem = build_sync_problem(single(DEAD_END), OTrue(), h=4)
    assert not any(any(step) for step in problem.layout.reach[0][3:5])
    assert solve_bnb(problem.model).status == "infeasible"
    lp = tmp_path / "dead.lp"
    write_lp(problem.model, lp)
    assert "const_0 = 1" in lp.read_text()
    assert solve_external(problem.model, LP_CLI).status == "infeasible"


def exact_step_reachable(ts, init, steps):
    """States reachable in exactly t steps, t = 0..steps, from powers of
    the adjacency matrix: a[j, i] = 1 iff state i can move to state j."""
    a = np.zeros((ts.n_states, ts.n_states), dtype=np.int64)
    for (i, j) in ts.transitions:
        a[j, i] = 1
    vec = np.zeros(ts.n_states, dtype=np.int64)
    vec[init] = 1
    out = []
    for _ in range(steps + 1):
        out.append(set(np.flatnonzero(vec).tolist()))
        vec = np.minimum(a @ vec, 1)
    return out


def test_state_variables_are_exactly_the_reachable_states():
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randint(1, 3)
        inst = random_instance(rng, n, rng.randint(2, 6), ["a"],
                               edge_prob=rng.choice([0.15, 0.35]))
        h = rng.randint(1, 6)
        problem = build_sync_problem(inst, OTrue(), h)
        lay = problem.layout
        zero = problem.model.constant(0)
        total = 0
        for r, (ts, init) in enumerate(zip(inst.systems, inst.initial_states)):
            reach = exact_step_reachable(ts, init, h)
            for t in range(h + 1):
                row = lay.state_ids[r][t].tolist()
                assert len(row) == ts.n_states
                assert {i for i, v in enumerate(row) if v != zero} == reach[t]
                assert [i for i, here in enumerate(lay.reach[r][t]) if here] == sorted(reach[t])
            total += sum(len(s) for s in reach)
        assert problem.model.metadata()["variables"]["dynamics"] == total


# Two systems without self-loops whose reachable sets cycle: a bipartite
# 4-cycle alternates between {s0, s2} and {s1, s3}; a three-layer ring
# moves {s0, s1} -> {s2, s3} -> {s4, s5} -> {s0, s1}.
BIPARTITE = ts_of([f"s{i}" for i in range(4)],
                  {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)},
                  {0: ("a",), 1: ("b",), 2: ("a", "b")})
LAYERED = ts_of([f"s{i}" for i in range(6)],
                {(i, j) for i in range(6) for j in range(6)
                 if j // 2 == (i // 2 + 1) % 3},
                {0: ("a",), 3: ("a", "b"), 4: ("b",)})


@pytest.mark.parametrize("ts, horizons", [(BIPARTITE, (2, 3, 4)), (LAYERED, (3,))],
                         ids=["two-cycle", "three-cycle"])
def test_alternating_reachable_sets_agree_with_brute_force(ts, horizons):
    rng = random.Random(127)
    verdicts = []
    for trial in range(12):
        inst = MultiRobotInstance((ts, ts), (0, rng.randrange(ts.n_states)))
        h = rng.choice(horizons)
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], 2, bare_atoms=True)
        brute = brute_force_synth(inst, mu, h) is not None
        sync = build_sync_problem(inst, mu, h)
        sol = solve_bnb(sync.model)
        cltl = solve_bnb(build_cltl_problem(inst, mu, h).model).feasible
        assert sol.feasible == cltl == brute, \
            f"trial {trial}: sync={sol.feasible} cltl={cltl} brute={brute} mu={mu}"
        if sol.feasible:
            oracle_check_all_logic_vars(sync.layout, sol, discrete_lassos(sync, sol))
        verdicts.append(brute)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("ts, h", [(BIPARTITE, 4), (LAYERED, 3)],
                         ids=["two-cycle", "three-cycle"])
def test_alternating_reachable_sets_give_robust_lassos(ts, h):
    rng = random.Random(131)
    feasible = 0
    for trial in range(10):
        inst = MultiRobotInstance((ts, ts), (0, rng.randrange(ts.n_states)))
        mu = random_outer(rng, 2, ["a", "b"], 2, allow_not=False,
                          allow_next=False, inner_next=False)
        problem = build_robust_problem(inst, mu, h, tau=1)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        feasible += 1
        trajs = extract_trajectories(problem.layout, sol)
        for traj in trajs:
            assert traj.validate_against(ts) == []
        lassos = [Lasso.from_trajectory(t, ts) for t in trajs]
        verdict = check_robust(lassos, mu, tau=1, max_T=h + 2,
                               enumeration_cap=100000)
        assert verdict.stats["mode"] == "exhaustive"
        assert not verdict.falsified, f"trial {trial}: {mu} falsified on {trajs}"
    assert feasible >= 3


# ---------------------------------------------------------------------------
# Loop selection
# ---------------------------------------------------------------------------

def test_loop_closes_at_unique_point():
    rng = random.Random(67)
    for _ in range(10):
        inst = random_instance(rng, 2, 3, ["a", "b"])
        problem = build_sync_problem(inst, OTrue(), h=3)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        trajs = extract_trajectories(problem.layout, sol)
        loops = [round(sol[z]) for z in problem.layout.loop_vars]
        assert sum(loops) == 1
        l = loops.index(1)
        for traj in trajs:
            assert traj.loop_start == l
            assert traj.states[-1] == traj.states[l]


def test_h1_only_fixed_points():
    ts = ts_of(["v1", "v2"], {(0, 0), (0, 1), (1, 0)}, {})
    problem = build_sync_problem(single(ts), OTrue(), h=1)
    sol, trajs = solve_and_extract(problem)
    assert trajs[0].states == (0, 0)  # v2 has no self-loop


def test_two_cycle_supports_period_two_lasso():
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0)}, {0: ("a",)})
    problem = build_sync_problem(single(ts), Tcp(IAtom("a"), 1), h=2)
    sol, trajs = solve_and_extract(problem)
    assert trajs[0].states == (0, 1, 0) and trajs[0].loop_start == 0


# ---------------------------------------------------------------------------
# Inner rows
# ---------------------------------------------------------------------------

def test_parked_robot_satisfies_atom_everywhere():
    ts = ts_of(["v1"], {(0, 0)}, {0: ("a",)})
    problem = build_sync_problem(single(ts), Tcp(IAtom("a"), 1), h=3)
    sol, _ = solve_and_extract(problem)
    atom_vars = problem.layout.rows[(IAtom("a"), 0)]
    assert atom_vars and all(round(sol[v]) == 1 for v in atom_vars)


def test_eventually_via_loop_only():
    # 'a' holds only on the second state, reachable and loopable
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 1)}, {1: ("a",)})
    problem = build_sync_problem(single(ts), Tcp(IEventually(IAtom("a")), 1), h=2)
    sol, trajs = solve_and_extract(problem)
    lasso = Lasso.from_trajectory(trajs[0], ts)
    assert eval_inner(lasso, 0, IEventually(IAtom("a")))
    oracle_check_all_logic_vars(problem.layout, sol, discrete_lassos(problem, sol))


def test_until_row_matches_oracle_on_forced_trace():
    # a a b (loop at b): a U b true at 0; with b removed it must fail
    ts = ts_of(["x", "y", "z"], {(0, 1), (1, 2), (2, 2)},
               {0: ("a",), 1: ("a",), 2: ("b",)})
    phi = IUntil(IAtom("a"), IAtom("b"))
    problem = build_sync_problem(single(ts), Tcp(phi, 1), h=3)
    sol, _ = solve_and_extract(problem)
    oracle_check_all_logic_vars(problem.layout, sol, discrete_lassos(problem, sol))
    ts_no_b = ts_of(["x", "y", "z"], {(0, 1), (1, 2), (2, 2)},
                    {0: ("a",), 1: ("a",)})
    problem2 = build_sync_problem(single(ts_no_b), Tcp(phi, 1), h=3)
    assert solve_bnb(problem2.model).status == "infeasible"


# ---------------------------------------------------------------------------
# Outer rows
# ---------------------------------------------------------------------------

def test_zero_threshold_always_satisfied():
    ts = ts_of(["v1"], {(0, 0)}, {})
    problem = build_sync_problem(single(ts), Tcp(IAtom("a"), 0), h=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible


def test_threshold_above_fleet_size_unsatisfiable():
    ts = ts_of(["v1"], {(0, 0)}, {0: ("a",)})
    problem = build_sync_problem(single(ts, n_robots=2), Tcp(IAtom("a"), 3), h=2)
    assert solve_bnb(problem.model).status == "infeasible"


def test_group_restriction_distinguishes_robots():
    # robot 0 parked on an 'a' state, robot 1 parked on a blank state
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1)}, {0: ("a",)})
    inst = MultiRobotInstance((ts, ts), (0, 1))
    ok = build_sync_problem(inst, Tcp(IAtom("a"), 1, frozenset({0})), h=2)
    assert solve_bnb(ok.model).feasible
    bad = build_sync_problem(inst, Tcp(IAtom("a"), 1, frozenset({1})), h=2)
    assert solve_bnb(bad.model).status == "infeasible"


def test_until_settled_by_rhs_alone():
    # robot 0 parked on 'b', robot 1 parked off it: [b, 1] holds at step 0
    # and [b, 2] never does, so [b, 2] U [b, 1] holds without its left side
    ts = ts_of(["on", "off"], {(0, 0), (1, 1)}, {0: ("b",)})
    inst = MultiRobotInstance((ts, ts), (0, 1))
    mu = OUntil(Tcp(IAtom("b"), 2), Tcp(IAtom("b"), 1))
    assert brute_force_synth(inst, mu, 2) is not None
    sync = build_sync_problem(inst, mu, h=2)
    sol = solve_bnb(sync.model)
    assert sol.feasible
    oracle_check_all_logic_vars(sync.layout, sol, discrete_lassos(sync, sol))
    assert solve_bnb(build_cltl_problem(inst, mu, 2).model).feasible
    assert solve_bnb(build_robust_problem(inst, mu, 2, tau=0).model).feasible


def test_named_group_resolved_through_instance():
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1)}, {0: ("a",)})
    inst = MultiRobotInstance((ts, ts), (0, 1), {"cam": frozenset({0})})
    problem = build_sync_problem(inst, parse_formula("[a, @cam, 1]"), h=2)
    assert solve_bnb(problem.model).feasible


def test_unknown_group_rejected():
    ts = ts_of(["v1"], {(0, 0)}, {})
    with pytest.raises(EncodingError, match="unknown groups"):
        build_sync_problem(single(ts), parse_formula("[a, @ghost, 1]"), h=1)


def test_group_index_out_of_range_rejected():
    ts = ts_of(["v1"], {(0, 0)}, {})
    with pytest.raises(EncodingError, match="group member out of range"):
        build_sync_problem(single(ts, n_robots=2), parse_formula("[a, @{2}, 1]"), h=1)


def test_unknown_atom_rejected():
    ts = ts_of(["v1"], {(0, 0)}, {})
    with pytest.raises(EncodingError, match="unknown propositions"):
        build_sync_problem(single(ts), Tcp(IAtom("zz"), 1), h=1)


# ---------------------------------------------------------------------------
# Collision constraints
# ---------------------------------------------------------------------------

def test_mutual_exclusion_blocks_shared_cell():
    # satisfying the count needs both robots on the single labeled state
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1), (0, 1), (1, 0)}, {0: ("a",)})
    inst = MultiRobotInstance((ts, ts), (0, 1), {}, "off")
    mu = OEventually(Tcp(IAtom("a"), 2))
    relaxed = build_sync_problem(inst, mu, h=2)
    assert solve_bnb(relaxed.model).feasible
    problem = build_sync_problem(replace(inst, collision_mode="mutual_exclusion"), mu, h=2)
    assert solve_bnb(problem.model).status == "infeasible"


def test_swap_mode_blocks_exchange():
    # two states joined both ways; robots start opposed and must trade places
    ts = ts_of(["v1", "v2"], {(0, 1), (1, 0)}, {0: ("a",), 1: ("b",)})
    inst = MultiRobotInstance((ts, ts), (0, 1))
    swap_target = OAnd((Tcp(IAtom("b"), 1, frozenset({0})),
                        Tcp(IAtom("a"), 1, frozenset({1}))))
    mu = OEventually(swap_target)
    under_excl = build_sync_problem(replace(inst, collision_mode="mutual_exclusion"),
                                    mu, h=2)
    assert solve_bnb(under_excl.model).feasible
    under_swap = build_sync_problem(
        replace(inst, collision_mode="mutual_exclusion_plus_swap"), mu, h=2)
    assert solve_bnb(under_swap.model).status == "infeasible"


def test_swap_rows_follow_each_robots_own_transitions():
    # robot 0 can only go v1 -> v2 and robot 1 only v2 -> v1, so their one
    # joint lasso swaps at step 0; robot 0's system alone has no edge back
    forward = ts_of(["v1", "v2"], {(0, 1), (1, 1)}, {})
    backward = ts_of(["v1", "v2"], {(1, 0), (0, 0)}, {})
    inst = MultiRobotInstance((forward, backward), (0, 1), {},
                              "mutual_exclusion_plus_swap")
    assert brute_force_synth(inst, OTrue(), 2) is None
    assert solve_bnb(build_sync_problem(inst, OTrue(), h=2).model).status == "infeasible"


@pytest.mark.parametrize("mode", ["mutual_exclusion", "mutual_exclusion_plus_swap"])
def test_collision_programs_agree_with_brute_force(mode):
    # brute force runs the collision checker: the synchronous program is
    # exact on fleets over one state set, whose transition relations may
    # differ from robot to robot, and the robust tau = 1 program is sound
    rng = random.Random(137)
    outcomes = Counter()
    for trial in range(60):
        n = rng.randint(2, 3)
        inst = replace(random_instance(rng, n, rng.randint(2, 3), ["a", "b"],
                                       identical=rng.random() < 0.5,
                                       self_loops=rng.random() < 0.5),
                       collision_mode=mode)
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], n, inner_next=False)
        h = rng.randint(1, 3)
        brute = brute_force_synth(inst, mu, h) is not None
        sync = solve_bnb(build_sync_problem(inst, mu, h).model).feasible
        assert sync == brute, f"trial {trial}: sync={sync} brute={brute} {mu} h={h}"
        outcomes["sync", sync] += 1
        if n == 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                robust = solve_bnb(build_robust_problem(inst, mu, h, tau=1).model).feasible
            if robust:
                assert brute_force_synth(inst, mu, h, tau=1) is not None, \
                    f"trial {trial}: robust lasso rejected, {mu} h={h}"
            outcomes["robust", robust] += 1
    assert min(outcomes.values()) >= 3, outcomes


# ---------------------------------------------------------------------------
# Whole problems
# ---------------------------------------------------------------------------

def test_trivial_instance_feasible_and_verified():
    ts = ts_of(["v1"], {(0, 0)}, {0: ("a",)})
    problem = build_sync_problem(single(ts), Tcp(IAtom("a"), 1), h=1)
    sol, trajs = solve_and_extract(problem)
    lassos = [Lasso.from_trajectory(trajs[0], ts)]
    assert eval_outer(lassos, CollectiveExecution.synchronous(1), 0,
                      Tcp(IAtom("a"), 1))


def test_dynamics_variable_count_scales_linearly_with_fleet():
    ts = ts_of(["v1", "v2", "v3"], {(0, 1), (1, 2), (2, 0), (0, 0)}, {0: ("a",)})
    h = 4
    two = build_sync_problem(single(ts, n_robots=2), Tcp(IAtom("a"), 1), h)
    four = build_sync_problem(single(ts, n_robots=4), Tcp(IAtom("a"), 1), h)
    v2 = two.model.metadata()["variables"]["dynamics"]
    v4 = four.model.metadata()["variables"]["dynamics"]
    assert v4 == 2 * v2
    # only reachable states get variables: from v1 the sets after t steps
    # are {v1}, {v1, v2}, {v1, v2, v3}, then all three, so 1+2+3+3+3 = 12
    # per robot
    assert v2 == 2 * (1 + 2 + 3 + 3 + 3)


def test_outer_negation_handled_by_normalization():
    ts = ts_of(["v1", "v2"], {(0, 0), (1, 1), (0, 1)}, {0: ("a",)})
    mu = OEventually(ONot(Tcp(IAtom("a"), 1)))
    problem = build_sync_problem(single(ts), mu, h=2)
    sol, trajs = solve_and_extract(problem)
    # the robot must leave the labeled state; the oracle agrees
    lassos = [Lasso.from_trajectory(trajs[0], ts)]
    assert eval_outer(lassos, CollectiveExecution.synchronous(1), 0, mu)
    assert 1 in trajs[0].states


def test_extraction_requires_feasible_solution():
    ts = ts_of(["v1"], {(0, 0)}, {})
    problem = build_sync_problem(single(ts), OTrue(), h=1)
    from cltlsynth.ilp import Solution
    with pytest.raises(ExtractionError):
        extract_trajectories(problem.layout, Solution("infeasible"))


# ---------------------------------------------------------------------------
# Randomized soundness and completeness
# ---------------------------------------------------------------------------

def test_every_logic_variable_matches_oracle_on_random_instances():
    rng = random.Random(71)
    atoms = ["a", "b"]
    feasible_count = 0
    for trial in range(40):
        n = rng.randint(1, 3)
        inst = random_instance(rng, n, rng.randint(2, 4), atoms)
        mu = random_outer(rng, rng.randint(1, 3), atoms, n)
        h = rng.randint(2, 4)
        problem = build_sync_problem(inst, mu, h)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        feasible_count += 1
        oracle_check_all_logic_vars(problem.layout, sol, discrete_lassos(problem, sol))
        trajs = extract_trajectories(problem.layout, sol)
        for traj, ts in zip(trajs, inst.systems):
            assert traj.validate_against(ts) == []
        lassos = [Lasso.from_trajectory(t, ts)
                  for t, ts in zip(trajs, inst.systems)]
        assert eval_outer(lassos, CollectiveExecution.synchronous(n), 0, mu)
    assert feasible_count >= 10


def test_feasibility_agrees_with_brute_force_at_tiny_scale():
    rng = random.Random(73)
    atoms = ["a"]
    checked = 0
    for trial in range(12):
        inst = random_instance(rng, 2, rng.randint(2, 3), atoms)
        mu = random_outer(rng, rng.randint(1, 2), atoms, 2, inner_depth=1)
        h = rng.randint(2, 3)
        problem = build_sync_problem(inst, mu, h)
        ilp_feasible = solve_bnb(problem.model).feasible
        brute = brute_force_synth(inst, mu, h)
        assert ilp_feasible == (brute is not None), f"trial {trial}"
        checked += 1
    assert checked == 12


def random_until_release(rng, atoms, n_robots, **kw):
    """An outer until or release at the top, over random operands."""
    op = rng.choice([OUntil, ORelease])
    return op(random_outer(rng, rng.randint(0, 1), atoms, n_robots, **kw),
              random_outer(rng, rng.randint(0, 1), atoms, n_robots, **kw))


def test_top_level_until_release_agrees_with_brute_force():
    # no inner next: the robust builder rejects it even at tau = 0
    rng = random.Random(79)
    atoms = ["a", "b"]
    verdicts = []
    for trial in range(16):
        inst = random_instance(rng, 2, rng.randint(2, 3), atoms)
        mu = random_until_release(rng, atoms, 2, inner_depth=1, inner_next=False)
        h = rng.randint(2, 3)
        brute = brute_force_synth(inst, mu, h) is not None
        sync = solve_bnb(build_sync_problem(inst, mu, h).model).feasible
        robust = solve_bnb(build_robust_problem(inst, mu, h, tau=0).model).feasible
        assert sync == robust == brute, \
            f"trial {trial}: sync={sync} robust={robust} brute={brute} mu={mu}"
        verdicts.append(brute)
    assert any(verdicts) and not all(verdicts)


def test_top_level_until_release_agrees_with_brute_force_aggregate():
    # identical dynamics with a stay-put move everywhere and next-free
    # formulas: the fragment where the aggregate model is horizon-exact
    # (see test_fragment_agreement_with_sync_encoder)
    rng = random.Random(97)
    atoms = ["a", "b"]
    verdicts = []
    for trial in range(16):
        inst = random_instance(rng, 2, rng.randint(2, 3), atoms,
                               identical=True, self_loops=True)
        mu = random_until_release(rng, atoms, 2, bare_atoms=True,
                                  allow_next=False)
        h = rng.randint(2, 3)
        brute = brute_force_synth(inst, mu, h) is not None
        cltl = solve_bnb(build_cltl_problem(inst, mu, h).model).feasible
        assert cltl == brute, f"trial {trial}: cltl={cltl} brute={brute} mu={mu}"
        verdicts.append(brute)
    assert any(verdicts) and not all(verdicts)
