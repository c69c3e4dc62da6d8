"""Feasibility is monotone in the horizon at tau = 0, for every engine.

A lasso at h with loop start l unrolls to a lasso at h + 1 with loop start
l + 1 that produces the same word: the step to h + 1 repeats the step out
of l, so the state at h + 1 is the one at l + 1.  For the per-robot engine
that is w[h+1] = w[l+1], for the aggregate one flow[h] = flow[l], and for
the continuous one u[h] = u[l].  ``cli.run_synth`` relies on this: one
solve of the tau = 0 program at the last horizon of a sweep settles every
horizon of it.

Each test pins the unrolled point of a solution at h in the program at
h + 1 and requires that program to stay feasible, and checks the
feasibility of each horizon against brute force where brute force exists.
"""

import random
from dataclasses import replace

import numpy as np

from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_continuous import build_cont_problem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import chosen_loop, extract_trajectories
from cltlsynth.formula import parse_formula
from cltlsynth.ilp import LinExpr
from cltlsynth.oracle import (Lasso, brute_force_synth, check_robust,
                              collision_violations)
from cltlsynth.solver import solve_bnb
from cltlsynth.system import ContinuousSystem
from cltlsynth.trajectory import LassoTrajectory

from conftest import random_instance, random_outer

MODES = ("off", "mutual_exclusion", "mutual_exclusion_plus_swap")


def pin(model, values):
    """Add ``var = value`` rows for every (var, value) pair."""
    for var, value in values:
        model.add_constraint(LinExpr({var: 1}), "=", value, tag="pin")


def unrolled(traj: LassoTrajectory) -> LassoTrajectory:
    l = traj.loop_start
    return LassoTrajectory(traj.states + (traj.states[l + 1],), l + 1)


def is_monotone(feasible: list) -> bool:
    return feasible == sorted(feasible)


def test_per_robot_lassos_unroll_and_agree_with_brute_force():
    rng = random.Random(149)
    sweeps = []
    for trial in range(40):
        n = rng.randint(1, 2)
        inst = replace(random_instance(rng, n, rng.randint(2, 3), ["a", "b"],
                                       identical=rng.random() < 0.5,
                                       self_loops=rng.random() < 0.5),
                       collision_mode=rng.choice(MODES))
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], n)
        feasible = []
        for h in range(1, 5):
            brute = brute_force_synth(inst, mu, h)
            problem = build_robust_problem(inst, mu, h, 0)
            sol = solve_bnb(problem.model)
            assert sol.feasible == (brute is not None), f"trial {trial} h={h}: {mu}"
            feasible.append(sol.feasible)
            if brute is None:
                continue
            # brute force's lasso, unrolled, passes brute force's checks at h + 1
            longer = [unrolled(t) for t in brute]
            lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(longer, inst.systems)]
            assert not collision_violations(longer, inst.collision_mode)
            assert check_robust(lassos, mu, 0).status == "verified"
            # and the solver's lasso, unrolled, is a point of the h + 1 program
            trajs = extract_trajectories(problem.layout, sol)
            longer_problem = build_robust_problem(inst, mu, h + 1, 0)
            lay = longer_problem.layout
            pin(longer_problem.model,
                [(lay.state_ids[r][t][s], 1)
                 for r, traj in enumerate(trajs)
                 for t, s in enumerate(unrolled(traj).states)]
                + [(lay.loop_vars[trajs[0].loop_start + 1], 1)])
            assert solve_bnb(longer_problem.model).feasible, f"trial {trial} h={h}"
        assert is_monotone(feasible), f"trial {trial}: {feasible} {mu}"
        sweeps.append(tuple(feasible))
    assert len(set(sweeps)) >= 3  # some sweeps turn feasible part way


def test_aggregate_points_unroll_and_cover_brute_force():
    # The aggregate program may close a loop that permutes robots, so it
    # can be feasible below brute force's first horizon, never above it.
    rng = random.Random(151)
    sweeps = []
    for trial in range(30):
        n = rng.randint(1, 3)
        inst = replace(random_instance(rng, n, rng.randint(2, 3), ["a", "b"],
                                       identical=True),
                       collision_mode=rng.choice(MODES))
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], n, bare_atoms=True)
        feasible = []
        for h in range(1, 4):
            problem = build_cltl_problem(inst, mu, h)
            sol = solve_bnb(problem.model)
            feasible.append(sol.feasible)
            if brute_force_synth(inst, mu, h) is not None:
                assert sol.feasible, f"trial {trial} h={h}: {mu}"
            if not sol.feasible:
                continue
            lay, l = problem.layout, chosen_loop(problem.layout, sol)
            longer = build_cltl_problem(inst, mu, h + 1)
            big = longer.layout
            pin(longer.model,
                [(big.agg_state[t][i], round(sol[v]))
                 for t in range(h + 1) for i, v in enumerate(lay.agg_state[t])]
                + [(big.agg_flow[(i, j, t)], round(sol[v]))
                   for (i, j, t), v in lay.agg_flow.items()]
                + [(big.agg_flow[(i, j, h)], round(sol[v]))
                   for (i, j, t), v in lay.agg_flow.items() if t == l]
                + [(big.loop_vars[l + 1], 1)])
            assert solve_bnb(longer.model).feasible, f"trial {trial} h={h}"
        assert is_monotone(feasible), f"trial {trial}: {feasible} {mu}"
        sweeps.append(tuple(feasible))
    assert len(set(sweeps)) >= 3


def integrators(rng: random.Random, n: int) -> ContinuousSystem:
    """1-D integrators w(t+1) = w(t) + u(t), |u| <= 1, on [-3, 3], with two
    unit intervals A and C."""
    def interval(center):
        return np.array([[1.0], [-1.0]]), np.array([center + 0.5, 0.5 - center])

    one = np.array([[1.0]])
    return ContinuousSystem(
        dynamics=tuple((one, one, np.zeros(1)) for _ in range(n)),
        init=tuple(np.array([float(rng.randint(-3, 3))]) for _ in range(n)),
        atoms={"A": interval(float(rng.randint(-3, 3))),
               "C": interval(float(rng.randint(-3, 3)))},
        state_bounds=(np.array([-3.0]), np.array([3.0])),
        input_bounds=(np.array([-1.0]), np.array([1.0])))


def test_continuous_points_unroll():
    # no brute force exists for real-valued inputs; the sweeps still have
    # to be monotone, and every solution's unrolling a point at h + 1
    rng = random.Random(157)
    formulas = ["G F [A, 1] & G F [C, 1]", "F [A, 2]", "G F [A, 1] & F G [C, 1]",
                "[A, 1] U [C, 1]", "G F [A & C, 1]"]
    sweeps = []
    for trial in range(12):
        n = rng.randint(1, 2)
        system = integrators(rng, n)
        mu = parse_formula(rng.choice(formulas))
        feasible = []
        for h in range(1, 6):
            problem = build_cont_problem(system, mu, h)
            sol = solve_bnb(problem.model)
            feasible.append(sol.feasible)
            if not sol.feasible:
                continue
            lay, l = problem.layout, chosen_loop(problem.layout, sol)
            longer = build_cont_problem(system, mu, h + 1)
            big = longer.layout
            pin(longer.model,
                [(big.input_vars[(r, t)][0], sol[lay.input_vars[(r, t if t < h else l)][0]])
                 for r in range(n) for t in range(h + 1)]
                + [(big.loop_vars[l + 1], 1)])
            assert solve_bnb(longer.model).feasible, f"trial {trial} h={h}"
        assert is_monotone(feasible), f"trial {trial}: {feasible} {mu}"
        sweeps.append(tuple(feasible))
    assert len(set(sweeps)) >= 2
