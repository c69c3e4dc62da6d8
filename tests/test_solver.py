"""In-process HiGHS solving and the external-solver adapter.

The reference oracle for small models is exhaustive enumeration over all
integer assignments.
"""

import itertools
import json
import random
import sys

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from cltlsynth import solver
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.formula import parse_formula
from cltlsynth.ilp import IlpModel, LinExpr
from cltlsynth.lp_format import write_solution_file
from cltlsynth.solver import (NumericalError, SolveConfig, SolverError,
                              solve_bnb, solve_external)
from cltlsynth.system import load_model

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
    (SolveConfig(time_budget=0.5), 1,
     "Time limit reached. (HiGHS Status 13: model_status is Time limit "
     "reached; primal_status is None)",
     "time budget", ("time_limit", 0.5)),
])
def test_reached_limit_without_a_point_is_unknown(monkeypatch, config, status,
                                                  message, reason, option):
    m = IlpModel()
    m.add_binary("x")
    seen = fake_milp(monkeypatch, status=status, x=None, message=message)
    sol = solve_bnb(m, config)
    assert sol.status == "unknown" and sol.stats["reason"] == reason
    assert seen == dict([option])


def test_point_violating_a_row_is_never_returned(monkeypatch):
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), "<=", 1, tag="atmost1")
    fake_milp(monkeypatch, status=0, x=np.array([1.0, 1.0]))
    with pytest.raises(SolverError, match="atmost1"):
        solve_bnb(m)


def test_unexplained_failure_raises(monkeypatch):
    m = IlpModel()
    m.add_binary("x")
    fake_milp(monkeypatch, status=4, x=None, message="HiGHS Status 4: Solve error")
    with pytest.raises(NumericalError, match="Solve error"):
        solve_bnb(m)


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
        assert solve_external(model, LP_CLI, workdir=tmp_path / str(h)).status == expected


# ---------------------------------------------------------------------------
# External adapter
# ---------------------------------------------------------------------------

def test_external_lp_cli_feasible(tmp_path):
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), ">=", 1)
    sol = solve_external(m, LP_CLI, workdir=tmp_path)
    assert sol.feasible
    assert sol[x] + sol[y] >= 1


def test_external_lp_cli_infeasible(tmp_path):
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1}), ">=", 2)
    sol = solve_external(m, LP_CLI, workdir=tmp_path)
    assert sol.status == "infeasible"


def test_external_agrees_with_bundled_on_random_models(tmp_path):
    rng = random.Random(37)
    for trial in range(10):
        m = random_binary_model(rng, 8, 6)
        ours = solve_bnb(m)
        theirs = solve_external(m, LP_CLI, workdir=tmp_path / str(trial))
        assert ours.feasible == theirs.feasible


def test_external_rejects_constraint_violations(tmp_path):
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1}), "=", 1)
    lie = (f"{sys.executable} -c "
           "\"import sys; open(sys.argv[2], 'w').write('x 0\\n')\" {lp} {sol}")
    with pytest.raises(SolverError, match="mismatch"):
        solve_external(m, lie, workdir=tmp_path)


def test_external_rejects_corrupt_solution(tmp_path):
    m = IlpModel()
    m.add_binary("x")
    junk = (f"{sys.executable} -c "
            "\"import sys; open(sys.argv[2], 'w').write('a b c\\n')\" {lp} {sol}")
    with pytest.raises(Exception, match="name value"):
        solve_external(m, junk, workdir=tmp_path)


def test_external_nonzero_exit(tmp_path):
    m = IlpModel()
    m.add_binary("x")
    with pytest.raises(SolverError, match="exited"):
        solve_external(m, f"{sys.executable} -c \"raise SystemExit(3)\" {{lp}}",
                       workdir=tmp_path)
