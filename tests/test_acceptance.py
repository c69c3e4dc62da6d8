"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success; tolerances and scales are
pinned here, not configurable.  Criteria marked as timed assert their
wall-clock budget.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np

from cltlsynth.formula import IAtom, OOr, Tcp, parse_formula
from cltlsynth.oracle import (CollectiveExecution, Lasso, brute_force_synth,
                              check_robust, collision_violations, eval_outer)
from cltlsynth.solver import solve_bnb, solve_external
from cltlsynth.system import MultiRobotInstance, TransitionSystem
from cltlsynth.encoder_cltl import build_cltl_problem, decompose_flows
from cltlsynth.encoder_continuous import (build_cont_problem, extract_continuous)
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem, extract_trajectories

from conftest import emergency_instance, random_instance, random_outer, reaggregate

LP_CLI = f"{sys.executable} -m cltlsynth.lp_cli {{lp}} {{sol}}"


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def lassos_of(trajs, inst):
    return [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, inst.systems)]


# ---------------------------------------------------------------------------
# 1. Encoder soundness sweep
# ---------------------------------------------------------------------------

def test_acceptance_01_encoder_soundness_sweep():
    rng = random.Random(2024)
    atoms = ["a", "b", "c"]
    start = time.monotonic()
    feasible = 0
    for trial in range(200):
        n = rng.randint(1, 3)
        inst = random_instance(rng, n, rng.randint(2, 6), atoms)
        mu = random_outer(rng, rng.randint(1, 3), atoms, n, inner_depth=2)
        h = rng.randint(2, 6)
        problem = build_sync_problem(inst, mu, h)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        feasible += 1
        trajs = extract_trajectories(problem.layout, sol)
        for traj, ts in zip(trajs, inst.systems):
            assert traj.validate_against(ts) == [], f"trial {trial}"
        sync = CollectiveExecution.synchronous(n)
        assert eval_outer(lassos_of(trajs, inst), sync, 0, mu), \
            f"trial {trial}: extracted trajectories violate {mu}"
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"sweep took {elapsed:.0f}s"
    assert feasible >= 50, "generator produced too few feasible instances"
    report(1, f"200 instances, {feasible} feasible, 100% oracle agreement, "
              f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Tiny-scale completeness
# ---------------------------------------------------------------------------

def test_acceptance_02_tiny_scale_completeness():
    rng = random.Random(2025)
    atoms = ["a", "b"]
    satisfiable = 0
    for trial in range(30):
        inst = random_instance(rng, 2, rng.randint(2, 3), atoms)
        mu = random_outer(rng, rng.randint(1, 2), atoms, 2, inner_depth=1)
        h = rng.randint(2, 4)
        ilp_feasible = solve_bnb(build_sync_problem(inst, mu, h).model).feasible
        brute = brute_force_synth(inst, mu, h)
        assert ilp_feasible == (brute is not None), \
            f"trial {trial}: ilp={ilp_feasible} brute={brute is not None} mu={mu}"
        satisfiable += ilp_feasible
    report(2, f"30 instances, exhaustive search and ILP agree 100% "
              f"({satisfiable} satisfiable)")


# ---------------------------------------------------------------------------
# 3. Robust soundness
# ---------------------------------------------------------------------------

def test_acceptance_03_robust_soundness():
    rng = random.Random(2026)
    atoms = ["a", "b"]
    verified = 0
    attempts = 0
    while verified < 50 and attempts < 400:
        attempts += 1
        inst = random_instance(rng, 2, rng.randint(2, 3), atoms, self_loops=True)
        mu = random_outer(rng, rng.randint(1, 2), atoms, 2, allow_not=False,
                          allow_next=False, inner_next=False)
        h = rng.randint(2, 4)
        problem = build_robust_problem(inst, mu, h, tau=1)
        sol = solve_bnb(problem.model)
        if not sol.feasible:
            continue
        trajs = extract_trajectories(problem.layout, sol)
        verdict = check_robust(lassos_of(trajs, inst), mu, tau=1, max_T=h + 2,
                               enumeration_cap=200000)
        assert verdict.stats["mode"] == "exhaustive"
        assert not verdict.falsified, f"attempt {attempts}: {mu} falsified"
        verified += 1
    assert verified == 50, f"only {verified} feasible robust solutions found"
    report(3, "50 feasible robust solutions, exhaustive falsification up to "
              "max_T=h+2 found zero violations")


# ---------------------------------------------------------------------------
# 4. Disjunction handover reproduction
# ---------------------------------------------------------------------------

def forced_chain(labels_per_step):
    n = len(labels_per_step)
    return TransitionSystem(
        tuple(f"s{i}" for i in range(n)),
        frozenset({(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)}),
        ("p1", "p2"),
        tuple(frozenset(ls) for ls in labels_per_step),
    )


def test_acceptance_04_disjunction_handover():
    systems = (forced_chain([{"p1"}, {"p1"}, {"p1"}]),
               forced_chain([{"p1"}, {"p2"}, {"p2"}]),
               forced_chain([{"p2"}, {"p2"}, {"p2"}]))
    inst = MultiRobotInstance(systems, (0, 0, 0))
    mu1 = Tcp(IAtom("p1"), 2)
    mu2 = Tcp(IAtom("p2"), 2)
    both = OOr((mu1, mu2))
    lassos = [Lasso([*ts.labels, ts.labels[-1]], 2) for ts in systems]

    assert not check_robust(lassos, both, tau=1, max_T=5).falsified
    assert check_robust(lassos, mu1, tau=1, max_T=5).falsified
    assert check_robust(lassos, mu2, tau=1, max_T=5).falsified

    pooled = build_robust_problem(inst, both, h=3, tau=1)
    sol = solve_bnb(pooled.model)
    assert sol.feasible
    lay = pooled.layout
    assert round(sol[lay.outer_extra[(both, 0, "pool")]]) == 1
    assert [round(sol[lay.rows[(mu, None)][0]]) for mu in (mu1, mu2)] == [0, 0]
    report(4, "handover verified for the disjunction, falsified for each "
              "disjunct; pooled encoding feasible, with the pool row and "
              "neither disjunct true at t = 0")


# ---------------------------------------------------------------------------
# 5. tau = 0 collapse
# ---------------------------------------------------------------------------

def constraint_signature(model):
    rows = []
    for con in model.constraints:
        rows.append((tuple(sorted(con.expr.coeffs.items())), con.sense, con.rhs))
    return sorted(rows)


def test_acceptance_05_tau_zero_collapse():
    rng = random.Random(2027)
    atoms = ["a", "b"]
    checked_solutions = 0
    for trial in range(50):
        n = rng.randint(1, 3)
        inst = random_instance(rng, n, rng.randint(2, 4), atoms)
        mu = random_outer(rng, rng.randint(1, 3), atoms, n, inner_next=False)
        h = rng.randint(2, 4)
        sync = build_sync_problem(inst, mu, h)
        robust = build_robust_problem(inst, mu, h, tau=0)
        assert sync.model.n_vars == robust.model.n_vars, f"trial {trial}"
        assert constraint_signature(sync.model) == constraint_signature(robust.model), \
            f"trial {trial}: constraint sets differ"
        s1 = solve_bnb(sync.model)
        s2 = solve_bnb(robust.model)
        assert s1.feasible == s2.feasible, f"trial {trial}"
        if s1.feasible and checked_solutions < 10:
            trajs = extract_trajectories(robust.layout, s2)
            assert eval_outer(lassos_of(trajs, inst),
                              CollectiveExecution.synchronous(n), 0, mu)
            checked_solutions += 1
    report(5, f"50 instances, identical constraint sets and agreeing "
              f"feasibility; {checked_solutions} solutions oracle-checked")


# ---------------------------------------------------------------------------
# 6. Aggregate encoding is fleet-size independent
# ---------------------------------------------------------------------------

def scale_free_system(rng):
    n_states = 20
    transitions = set()
    for i in range(n_states):
        for j in range(n_states):
            if rng.random() < 0.25:
                transitions.add((i, j))
        transitions.add((i, i))
    half = n_states // 2
    tenth = n_states // 10
    labels = []
    goal_cells = rng.sample(range(n_states), 3 * tenth)
    for i in range(n_states):
        cell = {"s1" if i < half else "s2"}
        for g in range(3):
            if i in goal_cells[g * tenth:(g + 1) * tenth]:
                cell.add(f"g{g + 1}")
        labels.append(frozenset(cell))
    return TransitionSystem(tuple(f"v{i}" for i in range(n_states)),
                            frozenset(transitions),
                            ("s1", "s2", "g1", "g2", "g3"), tuple(labels))


def spec_for(n):
    text = (f"F G [s2, {n // 2}] & G F [g1, {n // 3}] & G F [g2, {n // 3}] "
            f"& G F [g3, {n // 3}]")
    return parse_formula(text)


def test_acceptance_06_aggregate_scale_independence():
    rng = random.Random(2028)
    ts = scale_free_system(rng)
    initial_pool = [i for i, labs in enumerate(ts.labels) if "s1" in labs]
    h = 15

    def build(inits):
        inst = MultiRobotInstance((ts,) * len(inits), tuple(inits))
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            problem = build_cltl_problem(inst, spec_for(len(inits)), h)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return problem, best

    # Random starts.  The start counts decide different entries of the two
    # programs, but neither grows with the fleet: each is no larger than
    # the unfolded program, which has the same 2,729 columns and 2,999 rows
    # at every fleet size, with at most (h+1) S occupancies and h |E| flows.
    small, t_small = build([rng.choice(initial_pool) for _ in range(10)])
    large, t_large = build([rng.choice(initial_pool) for _ in range(500)])
    for problem in (small, large):
        model = problem.model
        assert model.n_vars <= 2729 and model.n_constraints <= 2999
        assert model.metadata()["variables"]["aggregate"] <= \
            (h + 1) * ts.n_states + h * len(ts.transitions)
    # encoding time must not blow up with the fleet; generous floor guards
    # against timer noise on sub-millisecond builds
    assert t_large <= 2 * max(t_small, 0.05), \
        f"encode times: N=10 {t_small:.3f}s vs N=500 {t_large:.3f}s"

    # Both fleets spread alike over the start states: the start counts
    # decide the same entries, and the programs differ only in the
    # constants that hold the counts.
    def size(model):
        meta = model.metadata()
        return (model.n_vars - meta["variables"].get("const", 0),
                model.n_constraints - meta["constraints"].get("const", 0))

    alike = [build([initial_pool[k % len(initial_pool)] for k in range(n)])[0]
             for n in (10, 500)]
    assert size(alike[0].model) == size(alike[1].model)
    report(6, f"model size bounded at N=10 and N=500 "
              f"({small.model.n_vars} and {large.model.n_vars} vars, "
              f"{small.model.n_constraints} and {large.model.n_constraints} constraints, "
              f"unfolded 2,729 and 2,999); encode {t_small:.3f}s vs {t_large:.3f}s")


# ---------------------------------------------------------------------------
# 7. Emergency-response analog at desk scale
# ---------------------------------------------------------------------------

def test_acceptance_07_emergency_desk_scale():
    inst, mu = emergency_instance()
    start = time.monotonic()
    problem = build_sync_problem(inst, mu, h=16)
    sol = solve_external(problem.model, LP_CLI)
    elapsed = time.monotonic() - start
    assert sol.feasible
    assert elapsed < 600, f"took {elapsed:.0f}s"
    trajs = extract_trajectories(problem.layout, sol)
    for traj, ts in zip(trajs, inst.systems):
        assert traj.validate_against(ts) == []
    sync = CollectiveExecution.synchronous(4)
    assert eval_outer(lassos_of(trajs, inst), sync, 0, mu)
    assert collision_violations(trajs, "mutual_exclusion") == []
    report(7, f"8x8 grid, 4 robots, all eight clause types feasible at h=16 "
              f"via the external solver in {elapsed:.0f}s; oracle and "
              f"collision checks clean")


# ---------------------------------------------------------------------------
# 8. Fragment agreement and exact re-aggregation
# ---------------------------------------------------------------------------

def test_acceptance_08_fragment_agreement():
    rng = random.Random(2029)
    atoms = ["a", "b"]
    decomposed = 0
    for trial in range(30):
        inst = random_instance(rng, rng.randint(2, 3), rng.randint(2, 4),
                               atoms, identical=True, self_loops=True)
        mu = random_outer(rng, rng.randint(1, 3), atoms, inst.n_robots,
                          bare_atoms=True, allow_next=False)
        h = rng.randint(2, 4)
        agg_problem = build_cltl_problem(inst, mu, h)
        agg_sol = solve_bnb(agg_problem.model)
        sync_sol = solve_bnb(build_sync_problem(inst, mu, h).model)
        assert agg_sol.feasible == sync_sol.feasible, f"trial {trial}: {mu}"
        if not agg_sol.feasible:
            continue
        trajs = decompose_flows(agg_problem, agg_sol)
        w = {t: [round(agg_sol[v]) for v in agg_problem.layout.agg_state[t]]
             for t in range(h + 1)}
        upto = max(t.horizon for t in trajs)
        counts = reaggregate(trajs, inst.systems[0].n_states, upto)
        loop = trajs[0].loop_start
        for t in range(upto + 1):
            base = t if t <= h else loop + (t - loop) % (h - loop)
            assert counts[t] == w[base], f"trial {trial}: occupancy drift at {t}"
        decomposed += 1
    assert decomposed >= 10
    report(8, f"30 identical-dynamics instances agree on feasibility; "
              f"{decomposed} decompositions re-aggregate exactly")


# ---------------------------------------------------------------------------
# 9. Continuous extension
# ---------------------------------------------------------------------------

def test_acceptance_09_continuous_extension():
    from cltlsynth.system import ContinuousSystem
    f, g, c = np.array([[1.0]]), np.array([[1.0]]), np.zeros(1)
    sys_ = ContinuousSystem(
        dynamics=((f, g, c), (f, g, c)),
        init=(np.zeros(1), np.zeros(1)),
        atoms={"A": (np.array([[1.0], [-1.0]]), np.array([1.1, -0.9]))},
        state_bounds=(np.array([-10.0]), np.array([10.0])),
        input_bounds=(np.array([-1.0]), np.array([1.0])),
    )
    mu = parse_formula("F [A, 2]")
    problem = build_cont_problem(sys_, mu, h=5)
    sol = solve_bnb(problem.model)
    assert sol.feasible
    trajs = extract_continuous(problem, sol)
    # locate the certified step through the counting indicator variables
    layout = problem.layout
    hits = [t for (node, n), row in layout.rows.items() if isinstance(node, Tcp)
            for t, var in enumerate(row) if round(sol[var]) == 1]
    assert hits, "no certified step"
    t_star = hits[0]
    for traj in trajs:
        replayed = traj.replay(sys_.dynamics[0])
        w = replayed[t_star][0]
        assert w <= 1.1 + 1e-6 and w >= 0.9 - 1e-6, f"w({t_star}) = {w}"
    report(9, f"two integrators certified inside the target at step {t_star}; "
              f"replayed states satisfy the polytope within 1e-6")


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_10_cli_determinism(tmp_path):
    model_payload = {
        "ap": [],
        "grid": {"width": 3, "height": 3,
                 "regions": {"A": [[0, 0]], "B": [[2, 2]]}},
        "robots": [{"init": [0, 0]}, {"init": [2, 2]}],
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_payload))
    # h = 9 is the least feasible horizon: both robots must meet at A and
    # at B, which are 4 moves apart, so the later meeting comes at step 8
    # at the earliest and a lasso needs h >= 9 (h = 8 is infeasible).
    outputs = {}
    for tag in ("first", "second"):
        out = tmp_path / f"traj_{tag}.json"
        stats = tmp_path / f"stats_{tag}.json"
        lp = tmp_path / f"model_{tag}.lp"
        proc = subprocess.run(
            [sys.executable, "-m", "cltlsynth.cli", "synth",
             "--model", str(model), "--formula", "F [A, 2] & F [B, 2]",
             "--horizon", "9", "--seed", "11",
             "--engine", "cltlplus",
             "--output", str(out), "--stats", str(stats), "--export-lp", str(lp)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs[tag] = (out.read_bytes(), stats.read_bytes(), lp.read_bytes())
    assert outputs["first"] == outputs["second"]
    report(10, "two identical CLI invocations produced byte-identical "
               "trajectory, stats and LP files")
