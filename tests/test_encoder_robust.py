"""Asynchrony-robust encoder.

Fixed instances use forced chains (each robot's transition system admits
exactly one trajectory) so variable values are fully determined and can be
compared against hand-derived expectations and the falsification oracle.
"""

import random
import warnings
from collections import Counter

import pytest

from cltlsynth.formula import (IAtom, INext, ONext, OOr, OTrue, OUntil,
                               ORelease, ONot, Tcp, parse_formula)
from cltlsynth.oracle import Lasso, brute_force_synth, check_robust
from cltlsynth.solver import solve_bnb
from cltlsynth.system import MultiRobotInstance, TransitionSystem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import (EncodingError, build_sync_problem,
                                    extract_trajectories)

from conftest import (discrete_lassos, oracle_check_all_logic_vars,
                      random_instance, random_outer)


def forced_chain(labels_per_step, ap=("p1", "p2")):
    """A system whose only trajectory shows the given label sets step by
    step, then repeats the final one forever."""
    n = len(labels_per_step)
    states = tuple(f"s{i}" for i in range(n))
    transitions = {(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)}
    label_map = tuple(frozenset(ls) for ls in labels_per_step)
    ts = TransitionSystem(states, frozenset(transitions), tuple(ap), label_map)
    return ts


def instance_of(*chains):
    systems = tuple(forced_chain(c) for c in chains)
    return MultiRobotInstance(systems, tuple([0] * len(systems)))


def constraint_signature(model):
    rows = []
    for con in model.constraints:
        items = tuple(sorted(con.expr.coeffs.items()))
        rows.append((items, con.sense, con.rhs))
    return sorted(rows)


# ---------------------------------------------------------------------------
# Post-loop state extension
# ---------------------------------------------------------------------------

def wrap_states_after_loop(loop_start, h, tau, trail):
    problem = build_robust_problem(trail, OTrue(), h, tau)
    model = problem.model
    # pin the loop choice to make the wrap deterministic
    for l, z in enumerate(problem.layout.loop_vars):
        model.add_row([z], [1], "=", int(l == loop_start), "fix")
    sol = solve_bnb(model)
    assert sol.feasible
    out = []
    for k in range(1, tau + 1):
        row = problem.layout.state_ids[0][h + k].tolist()
        ones = [i for i, v in enumerate(row) if round(sol[v]) == 1]
        assert len(ones) == 1
        out.append(ones[0])
    return out, sol, problem


def test_extension_wraps_short_loop():
    # two-state swap cycle: loop of length 1 is impossible, length 2 at l=0;
    # the states after the horizon repeat the loop with its period
    ts = TransitionSystem(("x", "y"), frozenset({(0, 1), (1, 0)}),
                         ("p1", "p2"), (frozenset({"p1"}), frozenset({"p1"})))
    inst = MultiRobotInstance((ts,), (0,))
    problem = build_robust_problem(inst, Tcp(IAtom("p1"), 1), h=2, tau=2)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_trajectories(problem.layout, sol)
    traj = trajs[0]
    assert traj.loop_start == 0 and traj.states == (0, 1, 0)
    for k in (1, 2):
        row = problem.layout.state_ids[0][2 + k].tolist()
        ones = [i for i, v in enumerate(row) if round(sol[v]) == 1]
        assert ones == [traj.state_at(2 + k)]


def test_extension_period_one_loop():
    # forced chain a -> b -> b: loop at l = 1 (= h-1 for h = 2)
    inst = instance_of([{"p1"}, {"p1"}])
    _, sol, problem = wrap_states_after_loop(1, 2, 2, inst)
    for k in (1, 2):
        row = problem.layout.state_ids[0][2 + k].tolist()
        ones = [i for i, v in enumerate(row) if round(sol[v]) == 1]
        assert ones == [1]


def test_tau_zero_adds_no_extension():
    inst = instance_of([{"p1"}, {"p1"}])
    problem = build_robust_problem(inst, Tcp(IAtom("p1"), 1), h=2, tau=0)
    meta = problem.model.metadata()
    assert "robust" not in meta["variables"] and "robust" not in meta["constraints"]
    assert not [name for name in problem.model.names if name.startswith("w_0_3_")]
    sync = build_sync_problem(inst, Tcp(IAtom("p1"), 1), 2).model
    assert (problem.model.n_vars, problem.model.n_constraints) == (sync.n_vars,
                                                                   sync.n_constraints)


# ---------------------------------------------------------------------------
# Windowed satisfaction variables
# ---------------------------------------------------------------------------

def test_windowed_and_pattern():
    # z pattern over the closed trace: 1 1 0 1 (then 1 forever); windows of
    # two must read 1 0 0 1
    inst = instance_of([{"p1"}, {"p1"}, set(), {"p1"}])
    relaxed = build_robust_problem(inst, Tcp(IAtom("p1"), 1), h=4, tau=1)
    sol = solve_bnb(relaxed.model)
    assert sol.feasible
    lay = relaxed.layout
    r_vals = [round(sol[lay.robust[(IAtom("p1"), 0, t)]]) for t in range(4)]
    assert r_vals == [1, 0, 0, 1]


def test_windowed_and_monotone_below_window():
    rng = random.Random(97)
    for _ in range(8):
        inst = random_instance(rng, 2, 3, ["p1", "p2"], self_loops=True)
        mu = random_outer(rng, 2, ["p1", "p2"], 2, allow_not=False,
                          allow_next=False, inner_next=False)
        problem = build_robust_problem(inst, mu, h=3, tau=1)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        lay = problem.layout
        for (phi, n, t), r in lay.robust.items():
            for k in range(2):
                z = lay.rows[(phi, n)][t + k]
                assert round(sol[r]) <= round(sol[z])


def test_extended_inner_rows_match_oracle():
    rng = random.Random(101)
    hits = 0
    for _ in range(15):
        inst = random_instance(rng, 2, 3, ["p1", "p2"], self_loops=True)
        mu = random_outer(rng, 2, ["p1", "p2"], 2, allow_not=False,
                          allow_next=False, inner_next=False)
        problem = build_robust_problem(inst, mu, h=3, tau=2)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        hits += 1
        oracle_check_all_logic_vars(problem.layout, sol, discrete_lassos(problem, sol),
                                    outer=False)
    assert hits >= 4


# ---------------------------------------------------------------------------
# Robust counting propositions
# ---------------------------------------------------------------------------

def test_robust_count_two_of_two_constant():
    inst = instance_of([{"p1"}, {"p1"}], [{"p1"}, {"p1"}])
    problem = build_robust_problem(inst, Tcp(IAtom("p1"), 2), h=2, tau=1)
    sol = solve_bnb(problem.model)
    assert sol.feasible


def test_staggered_singletons_fail_threshold_one():
    # robot 0 satisfies only at step 0, robot 1 only at step 1: under a
    # one-step drift no single anchored instant is guaranteed
    inst = instance_of([{"p1"}, set(), set()], [set(), {"p1"}, set()])
    problem = build_robust_problem(inst, Tcp(IAtom("p1"), 1), h=3, tau=1)
    assert solve_bnb(problem.model).status == "infeasible"
    # the oracle agrees: some 1-bounded execution misses the proposition
    lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(
        [tr for tr in _forced_trajectories(inst, 3)], inst.systems)]
    assert check_robust(lassos, Tcp(IAtom("p1"), 1), tau=1, max_T=4).falsified


def test_momentary_unanimity_satisfies_threshold_one():
    # both robots satisfy at step 0 and never again: the anchoring robot is
    # caught at its local time 0, so the count is met in every execution
    inst = instance_of([{"p1"}, set(), set()], [{"p1"}, set(), set()])
    problem = build_robust_problem(inst, Tcp(IAtom("p1"), 1), h=3, tau=1)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    bar = problem.layout.outer_extra[(Tcp(IAtom("p1"), 1), 0, "bar")]
    tilde = problem.layout.outer_extra[(Tcp(IAtom("p1"), 1), 0, "tilde")]
    assert round(sol[bar]) == 1 and round(sol[tilde]) == 0
    trajs = extract_trajectories(problem.layout, sol)
    lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, inst.systems)]
    assert not check_robust(lassos, Tcp(IAtom("p1"), 1), tau=1, max_T=4).falsified


def _forced_trajectories(inst, h):
    from cltlsynth.trajectory import LassoTrajectory
    out = []
    for ts in inst.systems:
        states = [0]
        for _ in range(h):
            states.append(min(ts.successors(states[-1])))
        out.append(LassoTrajectory(tuple(states), h - 1
                                   if states[h] == states[h - 1] else 0))
    return out


def test_group_tcp_uses_general_form_only():
    # for a strict robot subset the unanimity shortcut would be unsound:
    # the anchoring robot can be outside the group
    inst = instance_of([{"p1"}, set(), set()], [set(), set(), set()])
    tcp = Tcp(IAtom("p1"), 1, frozenset({0}))
    problem = build_robust_problem(inst, tcp, h=3, tau=1)
    assert (tcp, 0, "bar") not in problem.layout.outer_extra
    # robot 0 holds p1 only at step 0; drifting it to step 1 while the
    # other robot anchors is a violation, so the encoding must reject
    assert solve_bnb(problem.model).status == "infeasible"


# ---------------------------------------------------------------------------
# Pooled disjunction
# ---------------------------------------------------------------------------

def three_trace_instance():
    return instance_of([{"p1"}, {"p1"}, {"p1"}],
                       [{"p1"}, {"p2"}, {"p2"}],
                       [{"p2"}, {"p2"}, {"p2"}])


def test_pooled_disjunction_accepts_the_handover():
    inst = three_trace_instance()
    mu = OOr((Tcp(IAtom("p1"), 2), Tcp(IAtom("p2"), 2)))
    pooled = build_robust_problem(inst, mu, h=3, tau=1)
    sol = solve_bnb(pooled.model)
    assert sol.feasible
    trajs = extract_trajectories(pooled.layout, sol)
    lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, inst.systems)]
    assert not check_robust(lassos, mu, tau=1, max_T=4).falsified
    # the pool row, not a disjunct, carries feasibility at t = 0
    lay = pooled.layout
    assert round(sol[lay.outer_extra[(mu, 0, "pool")]]) == 1
    assert [round(sol[lay.rows[(c, None)][0]]) for c in mu.children] == [0, 0]


def test_each_disjunct_alone_is_not_robust():
    inst = three_trace_instance()
    for atom in ("p1", "p2"):
        problem = build_robust_problem(inst, Tcp(IAtom(atom), 2), h=3, tau=1)
        assert solve_bnb(problem.model).status == "infeasible"


# ---------------------------------------------------------------------------
# Until / release
# ---------------------------------------------------------------------------

def test_until_immediately_released_by_rhs():
    inst = instance_of([{"p2"}, {"p2"}], [{"p2"}, {"p2"}])
    mu = OUntil(Tcp(IAtom("p1"), 2), Tcp(IAtom("p2"), 2))
    problem = build_robust_problem(inst, mu, h=2, tau=1)
    assert solve_bnb(problem.model).feasible


def test_release_with_globally_robust_rhs():
    inst = instance_of([{"p2"}, {"p2"}], [{"p2"}, {"p2"}])
    mu = ORelease(Tcp(IAtom("p1"), 2), Tcp(IAtom("p2"), 2))
    problem = build_robust_problem(inst, mu, h=2, tau=1)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_trajectories(problem.layout, sol)
    lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, inst.systems)]
    assert not check_robust(lassos, mu, tau=1, max_T=4).falsified


def test_until_waiting_phase_respects_pooling():
    # while waiting, the disjunction of both sides must hold robustly; the
    # three-trace handover satisfies it even though neither side does alone
    inst = three_trace_instance()
    mu = OUntil(Tcp(IAtom("p1"), 2), Tcp(IAtom("p2"), 2))
    problem = build_robust_problem(inst, mu, h=3, tau=1)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_trajectories(problem.layout, sol)
    lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, inst.systems)]
    assert not check_robust(lassos, mu, tau=1, max_T=5).falsified


# ---------------------------------------------------------------------------
# Whole problems
# ---------------------------------------------------------------------------

def test_tau_zero_is_structurally_the_synchronous_model():
    rng = random.Random(103)
    for _ in range(6):
        inst = random_instance(rng, 2, 3, ["p1", "p2"])
        mu = random_outer(rng, 2, ["p1", "p2"], 2, inner_next=False)
        sync = build_sync_problem(inst, mu, h=3)
        robust = build_robust_problem(inst, mu, h=3, tau=0)
        assert constraint_signature(sync.model) == constraint_signature(robust.model)
        assert sync.model.n_vars == robust.model.n_vars


def test_inner_next_rejected():
    inst = instance_of([{"p1"}, {"p1"}])
    with pytest.raises(EncodingError, match="inner next"):
        build_robust_problem(inst, Tcp(INext(IAtom("p1")), 1), h=2, tau=1)


def test_tau_zero_accepts_inner_next_like_the_synchronous_model():
    # inner next is only unsafe under asynchrony, so tau = 0 must delegate
    # to the synchronous builder before that check, and tau >= 1 must not
    rng = random.Random(113)
    outcomes = set()
    for text in ("[X p1, 1]", "[X p2, 2]", "G F [X p1, 1]", "[p1, 1] U [X X p2, 2]"):
        mu = parse_formula(text)
        for _ in range(4):
            inst = random_instance(rng, 2, 3, ["p1", "p2"])
            h = rng.randint(2, 3)
            sync = build_sync_problem(inst, mu, h)
            robust = build_robust_problem(inst, mu, h, tau=0)
            assert robust.model.n_vars == sync.model.n_vars
            assert robust.model.n_constraints == sync.model.n_constraints
            feasible = solve_bnb(robust.model).feasible
            assert feasible == (brute_force_synth(inst, mu, h) is not None), f"{text} h={h}"
            outcomes.add(feasible)
            with pytest.raises(EncodingError, match="inner next"):
                build_robust_problem(inst, mu, h, tau=rng.randint(1, 2))
    assert outcomes == {True, False}


def test_non_pnf_input_warns_and_normalizes():
    inst = instance_of([{"p1"}, set(), set()], [{"p1"}, set(), set()])
    with pytest.warns(UserWarning, match="positive normal form"):
        problem = build_robust_problem(inst, ONot(Tcp(IAtom("p1"), 3)),
                                       h=3, tau=1)
    assert solve_bnb(problem.model).feasible


def test_outer_next_warns_under_asynchrony():
    inst = instance_of([{"p1"}, {"p1"}, {"p1"}])
    with pytest.warns(UserWarning, match="outer next"):
        build_robust_problem(inst, ONext(Tcp(IAtom("p1"), 1)), h=3, tau=1)


def test_robust_solutions_survive_exhaustive_falsification():
    rng = random.Random(107)
    feasible = 0
    for _ in range(25):
        inst = random_instance(rng, 2, 3, ["p1", "p2"], self_loops=True)
        mu = random_outer(rng, 2, ["p1", "p2"], 2, allow_not=False,
                          allow_next=False, inner_next=False)
        h = rng.randint(2, 4)
        problem = build_robust_problem(inst, mu, h, tau=1)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        feasible += 1
        trajs = extract_trajectories(problem.layout, sol)
        lassos = [Lasso.from_trajectory(t, ts)
                  for t, ts in zip(trajs, inst.systems)]
        verdict = check_robust(lassos, mu, tau=1, max_T=h + 2,
                               enumeration_cap=100000)
        assert verdict.stats["mode"] == "exhaustive"
        assert not verdict.falsified, f"{mu} falsified on {trajs}"
    assert feasible >= 8


def test_robust_encoding_is_sound_against_brute_force():
    # The robust encoding is a sufficient condition: wherever the program is
    # feasible, exhaustive search must find a robustly satisfying lasso.
    # Negation and disjunction pooling reach thresholds above the fleet
    # size here, which fold to constants.
    rng = random.Random(11)
    outcomes = Counter()
    for _ in range(60):
        inst = random_instance(rng, 2, rng.randint(2, 3), ["p1", "p2"])
        mu = random_outer(rng, 2, ["p1", "p2"], 2, inner_next=False)
        h = rng.randint(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            feasible = solve_bnb(build_robust_problem(inst, mu, h, tau=1).model).feasible
        brute = brute_force_synth(inst, mu, h, tau=1, max_T=h + 2) is not None
        assert brute or not feasible, f"{mu} at h={h}"
        outcomes[feasible, brute] += 1
    assert outcomes[True, True] >= 10 and outcomes[False, False] >= 10, outcomes


def test_robust_completeness_on_restricted_fragment():
    # mutually exclusive labels, formulas from the restricted grammar:
    # whenever exhaustive search finds a robustly satisfying joint lasso,
    # the encoding must be feasible at the same horizon
    rng = random.Random(109)
    checked = found = 0
    for _ in range(12):
        n_states = rng.randint(2, 3)
        labels = [frozenset({rng.choice(["p1", "p2"])}) for _ in range(n_states)]
        transitions = {(i, i) for i in range(n_states)}
        for i in range(n_states):
            transitions.add((i, rng.randrange(n_states)))
        ts = TransitionSystem(tuple(f"s{i}" for i in range(n_states)),
                              frozenset(transitions), ("p1", "p2"),
                              tuple(labels))
        inst = MultiRobotInstance((ts, ts), (0, rng.randrange(n_states)))
        tcp1 = Tcp(IAtom("p1"), rng.randint(1, 2))
        tcp2 = Tcp(IAtom("p2"), rng.randint(1, 2))
        mu = rng.choice([tcp1, OOr((tcp1, tcp2)), OUntil(tcp1, tcp2),
                         OTrue()])
        h = rng.randint(2, 3)
        brute = brute_force_synth(inst, mu, h, tau=1, max_T=h + 2)
        checked += 1
        if brute is None:
            continue
        found += 1
        problem = build_robust_problem(inst, mu, h, tau=1)
        assert solve_bnb(problem.model).feasible, f"{mu} at h={h}"
    assert checked == 12 and found >= 3
