"""In-process HiGHS solving and the external-solver adapter.

The reference oracle for small models is exhaustive enumeration over all
integer assignments.
"""

import itertools
import json
import random
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from cltlsynth import lp_cli, solver
from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_continuous import build_cont_problem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.formula import parse_formula
from cltlsynth.ilp import IlpModel, LinExpr
from cltlsynth.lp_format import write_lp
from cltlsynth.solver import (NumericalError, SolveConfig, SolverError,
                              solve_arrays, solve_bnb, solve_external)
from cltlsynth.system import ContinuousSystem, load_model

from conftest import random_instance, random_outer

LP_CLI = f"{sys.executable} -m cltlsynth.lp_cli {{lp}} {{sol}}"


def enumerate_feasible(model):
    """Brute-force satisfiability over all integer assignments (binaries and
    small integer ranges only)."""
    domains = []
    for var in model.vars:
        domains.append(range(int(var.lo), int(var.hi) + 1))
    for point in itertools.product(*domains):
        values = dict(enumerate(point))
        if not model.check_point(values, tol=1e-9):
            return values
    return None


def random_binary_model(rng, n_vars, n_cons):
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(n_vars)]
    for _ in range(n_cons):
        picks = rng.sample(xs, rng.randint(1, min(4, n_vars)))
        expr = LinExpr({v: rng.choice([-2, -1, 1, 1, 2]) for v in picks})
        sense = rng.choice(["<=", ">=", "="])
        rhs = rng.randint(-2, 3)
        m.add_constraint(expr, sense, rhs, tag="rnd")
    return m


def test_contradictory_binaries_infeasible():
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), ">=", 1)
    m.add_constraint(LinExpr({x: 1, y: 1}), "<=", 0)
    assert solve_bnb(m).status == "infeasible"


def test_status_agrees_with_enumeration_on_random_models():
    rng = random.Random(23)
    hits = 0
    for trial in range(120):
        m = random_binary_model(rng, rng.randint(2, 9), rng.randint(1, 7))
        expected = enumerate_feasible(m)
        sol = solve_bnb(m)
        assert sol.feasible == (expected is not None), f"trial {trial}"
        if sol.feasible:
            hits += 1
            assert m.check_point(sol.values, tol=1e-9) == []
    assert hits > 20  # the generator must exercise both outcomes


def test_model_without_variables():
    m = IlpModel()
    assert solve_bnb(m).status == "feasible"
    m.add_constraint(LinExpr(const=0), ">=", 1)
    assert solve_bnb(m).status == "infeasible"


def test_mixed_integer_model():
    m = IlpModel()
    n = m.add_integer("n", 0, 10)
    c = m.add_continuous("c", 0.0, 5.0)
    m.add_constraint(LinExpr({n: 1, c: 1}), ">=", 7.5)
    m.add_constraint(LinExpr({n: 1}), "<=", 4)
    sol = solve_bnb(m)
    assert sol.feasible
    assert sol[n] == int(sol[n])
    assert sol[n] + sol[c] >= 7.5 - 1e-6


def test_feasible_solutions_satisfy_all_constraints_exactly():
    rng = random.Random(29)
    for _ in range(40):
        m = random_binary_model(rng, 8, 6)
        sol = solve_bnb(m)
        if sol.feasible:
            assert m.check_point(sol.values, tol=1e-9) == []
            assert all(v == int(v) for v in sol.values.values())


def test_single_thread_runs_are_reproducible():
    rng = random.Random(31)
    m = random_binary_model(rng, 10, 6)
    cfg = SolveConfig()
    s1 = solve_bnb(m, cfg)
    s2 = solve_bnb(m, cfg)
    assert s1.status == s2.status
    assert s1.values == s2.values


def test_node_budget_reports_unknown():
    # A model whose relaxation is fractional and needs some branching.
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(30)]
    for i in range(0, 28):
        m.add_constraint(LinExpr({xs[i]: 2, xs[i + 1]: 2, xs[(i + 2) % 30]: 2}),
                         "=", 3, tag="odd")
    sol = solve_bnb(m, SolveConfig(node_budget=1))
    assert sol.status in ("unknown", "infeasible")
    if sol.status == "unknown":
        assert sol.stats["reason"] == "node budget"


def subset_sum_model(n=60):
    """A subset-sum equality that HiGHS cannot settle at its root node."""
    rng = random.Random(1)
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [2 * rng.randint(1000, 100000) for _ in xs]
    m.add_constraint(LinExpr(dict(zip(xs, weights))), "=", sum(weights) // 4 * 2 + 2,
                     tag="subset_sum")
    return m


def test_node_budget_on_a_real_search():
    sol = solve_bnb(subset_sum_model(), SolveConfig(node_budget=1))
    assert sol.status == "unknown"
    assert sol.stats["reason"] == "node budget"


def fake_milp(monkeypatch, **result):
    seen = {}

    def milp(c, **kwargs):
        seen.update(kwargs["options"])
        return OptimizeResult({"mip_node_count": None, "message": "", **result})

    monkeypatch.setattr(solver, "milp", milp)
    return seen


# Messages as HiGHS words them when a limit is reached before any point.
@pytest.mark.parametrize("config, status, message, reason, option", [
    (SolveConfig(node_budget=7), 4,
     "The HiGHS status code was not recognized. (HiGHS Status 16: "
     "model_status is Solution limit reached; primal_status is None)",
     "node budget", ("node_limit", 7)),
])
def test_reached_limit_without_a_point_is_unknown(monkeypatch, config, status,
                                                  message, reason, option):
    m = IlpModel()
    m.add_binary("x")
    seen = fake_milp(monkeypatch, status=status, x=None, message=message)
    sol = solve_bnb(m, config)
    assert sol.status == "unknown" and sol.stats["reason"] == reason
    assert seen == dict([option, ("presolve", False)])


@pytest.mark.parametrize("general", [False, True])
def test_every_model_is_solved_without_presolve(monkeypatch, general):
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1, m.constant(1): 1}), "<=", 2)
    if general:
        m.add_integer("n", 0, 5)
    seen = fake_milp(monkeypatch, status=2, x=None)
    assert solve_bnb(m).stats["presolve"] is False
    assert seen == {"presolve": False}


def test_an_explicit_presolve_option_wins(monkeypatch):
    m = IlpModel()
    m.add_binary("x")
    seen = fake_milp(monkeypatch, status=2, x=None)
    assert solve_arrays(m.to_arrays(), {"presolve": True}).stats["presolve"] is True
    assert seen == {"presolve": True}


def integrator_fleet(n_robots):
    """1-D integrators w(t+1) = w(t) + u(t), |u| <= 1, starting at 0, with
    targets A = [0.9, 1.1] and C = [-0.1, 0.1]."""
    one = (np.array([[1.0]]), np.array([[1.0]]), np.zeros(1))
    return ContinuousSystem(
        dynamics=(one,) * n_robots, init=(np.zeros(1),) * n_robots,
        atoms={"A": (np.array([[1.0], [-1.0]]), np.array([1.1, -0.9])),
               "C": (np.array([[1.0], [-1.0]]), np.array([0.1, 0.1]))},
        state_bounds=(np.array([-10.0]), np.array([10.0])),
        input_bounds=(np.array([-1.0]), np.array([1.0])))


def differential_models():
    """The synchronous instances of the tiny-scale completeness criterion,
    the robust ones of the brute-force soundness test, integrator fleets,
    and the aggregate instances of the fragment-agreement test, whose
    count and flow columns are general integers."""
    rng = random.Random(2025)  # test_acceptance_02_tiny_scale_completeness
    for _ in range(30):
        inst = random_instance(rng, 2, rng.randint(2, 3), ["a", "b"])
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], 2, inner_depth=1)
        yield build_sync_problem(inst, mu, rng.randint(2, 4)).model
    rng = random.Random(11)  # test_robust_encoding_is_sound_against_brute_force
    for _ in range(60):
        inst = random_instance(rng, 2, rng.randint(2, 3), ["p1", "p2"])
        mu = random_outer(rng, 2, ["p1", "p2"], 2, inner_next=False)
        h = rng.randint(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield build_robust_problem(inst, mu, h, tau=1).model
    for n, text, h, tau in [(1, "F [A, 1]", 2, 0), (2, "F [A, 2]", 5, 0),
                            (2, "F [A, 3]", 4, 0), (2, "F [A, 2] & F [C, 2]", 2, 0),
                            (2, "F [A, 2] & F [C, 2]", 2, 1), (2, "G F [A, 1]", 4, 1)]:
        yield build_cont_problem(integrator_fleet(n), parse_formula(text), h, tau=tau).model
    rng = random.Random(83)  # test_fragment_agreement_with_sync_encoder
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 3), rng.randint(2, 4),
                               ["a", "b"], identical=True, self_loops=True)
        mu = random_outer(rng, rng.randint(1, 3), ["a", "b"], inst.n_robots,
                          bare_atoms=True, allow_next=False)
        yield build_cltl_problem(inst, mu, rng.randint(2, 4)).model


def test_presolve_off_keeps_every_status():
    statuses = []
    for i, model in enumerate(differential_models()):
        arrays = model.to_arrays()
        ours = solve_arrays(arrays)
        assert ours.stats["presolve"] is False, f"model {i}"
        assert ours.status == solve_arrays(arrays, {"presolve": True}).status, f"model {i}"
        statuses.append(ours.status)
    assert statuses.count("feasible") >= 20 and statuses.count("infeasible") >= 20


def test_point_violating_a_row_is_never_returned(monkeypatch):
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), "<=", 1, tag="atmost1")
    fake_milp(monkeypatch, status=0, x=np.array([1.0, 1.0]))
    with pytest.raises(SolverError, match="atmost1"):
        solve_bnb(m)


def test_unexplained_failure_raises(monkeypatch, tmp_path):
    m = IlpModel()
    m.add_binary("x")
    fake_milp(monkeypatch, status=4, x=None, message="HiGHS Status 4: Solve error")
    with pytest.raises(NumericalError, match="Solve error"):
        solve_bnb(m)
    # the LP-file solver makes the same call and must not report a budget
    write_lp(m, tmp_path / "m.lp")
    with pytest.raises(NumericalError, match="Solve error"):
        lp_cli.solve_lp_file(str(tmp_path / "m.lp"), str(tmp_path / "m.sol"))


def test_meeting_at_both_corners_needs_horizon_nine(tmp_path):
    # Two robots on a 3x3 grid must meet at A = (0, 0) and at B = (2, 2),
    # four moves apart: h = 8 is infeasible, h = 9 feasible.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "ap": [], "grid": {"width": 3, "height": 3,
                           "regions": {"A": [[0, 0]], "B": [[2, 2]]}},
        "robots": [{"init": [0, 0]}, {"init": [2, 2]}]}))
    inst = load_model(path)
    mu = parse_formula("F [A, 2] & F [B, 2]")
    for h, expected in ((8, "infeasible"), (9, "feasible")):
        model = build_sync_problem(inst, mu, h).model
        assert solve_bnb(model).status == expected
        assert solve_external(model, LP_CLI).status == expected


# ---------------------------------------------------------------------------
# External adapter
# ---------------------------------------------------------------------------

def test_external_lp_cli_feasible():
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), ">=", 1)
    sol = solve_external(m, LP_CLI)
    assert sol.feasible
    assert sol[x] + sol[y] >= 1


def test_external_lp_cli_infeasible():
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1}), ">=", 2)
    sol = solve_external(m, LP_CLI)
    assert sol.status == "infeasible"


def test_external_model_without_variables():
    sol = solve_external(IlpModel(), LP_CLI)
    assert sol.status == "feasible" and sol.values == {}


def test_external_agrees_with_bundled_on_random_models():
    rng = random.Random(37)
    for trial in range(10):
        m = random_binary_model(rng, 8, 6)
        ours = solve_bnb(m)
        theirs = solve_external(m, LP_CLI)
        assert ours.feasible == theirs.feasible


def test_external_rejects_constraint_violations():
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1}), "=", 1)
    lie = (f"{sys.executable} -c "
           "\"import sys; open(sys.argv[2], 'w').write('x 0\\n')\" {lp} {sol}")
    with pytest.raises(SolverError, match="mismatch"):
        solve_external(m, lie)


def test_external_rejects_corrupt_solution():
    m = IlpModel()
    m.add_binary("x")
    junk = (f"{sys.executable} -c "
            "\"import sys; open(sys.argv[2], 'w').write('a b c\\n')\" {lp} {sol}")
    with pytest.raises(Exception, match="name value"):
        solve_external(m, junk)


def test_external_nonzero_exit():
    m = IlpModel()
    m.add_binary("x")
    with pytest.raises(SolverError, match="exited"):
        solve_external(m, f"{sys.executable} -c \"raise SystemExit(3)\" {{lp}}")
