"""In-process HiGHS solving and the external-solver adapter.

The reference oracle for small models is exhaustive enumeration over all
integer assignments.
"""

import itertools
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from cltlsynth import highs, lp_cli
from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_continuous import build_cont_problem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.formula import parse_formula
from cltlsynth.ilp import IlpModel, LinExpr
from cltlsynth.lp_format import read_solution_file, write_lp
from cltlsynth.solver import (FEAS_TOL, NumericalError, SolveConfig, SolverError,
                              idle_columns, solve_arrays, solve_bnb, solve_external)
from cltlsynth.system import ContinuousSystem, load_model

from conftest import random_instance, random_outer, scipy_csr
from lp_grammar import read_lp
from test_fold import integrators, random_fleet

LP_CLI = f"{sys.executable} -m cltlsynth.lp_cli {{lp}} {{sol}}"


def enumerate_feasible(model):
    """Brute-force satisfiability over all integer assignments (binaries and
    small integer ranges only)."""
    arrays = model.to_arrays()
    domains = [range(int(lo), int(hi) + 1) for lo, hi in zip(arrays.lb, arrays.ub)]
    for point in itertools.product(*domains):
        values = dict(enumerate(point))
        if not model.check_point(values, tol=1e-9):
            return values
    return None


def random_binary_model(rng, n_vars, n_cons, names=None):
    """Binaries ``x0``, ``x1``, ..., or named from ``names`` in turn."""
    m = IlpModel()
    xs = [m.add_binary(f"x{i}" if names is None else names[i % len(names)])
          for i in range(n_vars)]
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


def market_split_model():
    """A market split instance (Cornuejols & Dawande, "A class of hard
    small 0-1 programs", INFORMS J. Comput. 1999): three equalities over
    20 binaries, each with weights in [0, 99] and half their sum as its
    right-hand side.  HiGHS cannot settle it at its root node; it is
    infeasible, after about 2,000 nodes."""
    rng = random.Random(1)
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(20)]
    for _ in range(3):
        weights = [rng.randint(0, 99) for _ in xs]
        m.add_constraint(LinExpr(dict(zip(xs, weights))), "=", sum(weights) // 2,
                         tag="market_split")
    return m


def test_node_budget_on_a_real_search():
    sol = solve_bnb(market_split_model(), SolveConfig(node_budget=1))
    assert sol.status == "unknown"
    assert sol.stats["reason"] == "node budget"
    assert solve_bnb(market_split_model()).status == "infeasible"


def test_highs_writes_nothing_to_stdout(capfd):
    # HiGHS prints a line to fd 1 during this search, output_flag or not;
    # run_highs points fd 1 at os.devnull around the run
    rng = random.Random(2)
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(60)]
    weights = [2 * rng.randint(1000, 100000) for _ in xs]
    m.add_constraint(LinExpr(dict(zip(xs, weights))), "=", sum(weights) // 4 * 2 + 2,
                     tag="subset_sum")
    assert solve_bnb(m).feasible
    assert capfd.readouterr().out == ""


def fake_highs(monkeypatch, status, point=None):
    """Make HiGHS report model status ``status``, with the primal point
    ``point`` if one is given; return the options HiGHS receives."""
    seen = {}
    describe = highs._Highs().modelStatusToString

    class FakeHighs:
        def setOptionValue(self, name, value):
            seen[name] = value
            return highs.HighsStatus.kOk

        def getOptionValue(self, name):
            return highs.HighsStatus.kOk, seen[name]

        def passModel(self, *model):
            return highs.HighsStatus.kOk

        def readModel(self, path):
            return highs.HighsStatus.kOk

        def getLp(self):
            return SimpleNamespace(num_col_=0, num_row_=0, col_names_=[], integrality_=[])

        def run(self):
            return highs.HighsStatus.kOk

        def getModelStatus(self):
            return status

        def getInfo(self):
            found = highs.kSolutionStatusFeasible if point is not None else None
            return SimpleNamespace(mip_node_count=-1, primal_solution_status=found)

        def getSolution(self):
            return SimpleNamespace(col_value=point)

        modelStatusToString = staticmethod(describe)

    monkeypatch.setattr(highs, "_Highs", FakeHighs)
    return seen


def test_reached_limit_without_a_point_is_unknown(monkeypatch):
    m = IlpModel()
    m.add_binary("x")
    seen = fake_highs(monkeypatch, highs.HighsModelStatus.kSolutionLimit)
    sol = solve_bnb(m, SolveConfig(node_budget=7))
    assert sol.status == "unknown" and sol.stats["reason"] == "node budget"
    assert seen == {"output_flag": False, "presolve": "off", "mip_detect_symmetry": False,
                    "mip_feasibility_tolerance": FEAS_TOL / 10, "mip_max_nodes": 7}


def test_reached_limit_after_a_point_returns_it(monkeypatch):
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1}), ">=", 1)
    fake_highs(monkeypatch, highs.HighsModelStatus.kSolutionLimit, point=[1.0])
    sol = solve_bnb(m, SolveConfig(node_budget=7))
    assert sol.status == "feasible" and sol.values == {x: 1}
    assert "reason" not in sol.stats


@pytest.mark.parametrize("general", [False, True])
def test_every_model_is_solved_without_presolve(monkeypatch, general):
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1, m.constant(1): 1}), "<=", 2)
    if general:
        m.add_integer("n", 0, 5)
    seen = fake_highs(monkeypatch, highs.HighsModelStatus.kInfeasible)
    assert solve_bnb(m).stats["presolve"] is False
    assert seen == {"output_flag": False, "presolve": "off", "mip_detect_symmetry": False,
                    "mip_feasibility_tolerance": FEAS_TOL / 10}


def test_an_explicit_presolve_option_wins(monkeypatch):
    m = IlpModel()
    m.add_binary("x")
    seen = fake_highs(monkeypatch, highs.HighsModelStatus.kInfeasible)
    assert solve_arrays(m.to_arrays(), {"presolve": "on"}).stats["presolve"] is True
    assert seen == {"output_flag": False, "presolve": "on", "mip_detect_symmetry": False,
                    "mip_feasibility_tolerance": FEAS_TOL / 10}


def test_model_without_integer_columns_counts_no_nodes():
    m = IlpModel()
    x, y = m.add_continuous("x", 0.0, 1.0), m.add_continuous("y", 0.0, 1.0)
    m.add_constraint(LinExpr({x: 1, y: 1}), ">=", 1.5)
    sol = solve_bnb(m)
    assert sol.feasible and sol.stats["nodes"] == 0


def test_a_model_highs_rejects_is_not_infeasible():
    # HiGHS refuses a coefficient of 1e300 at load; the row has a point
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1e300, y: 1}), ">=", 1)
    with pytest.raises(NumericalError, match="rejected"):
        solve_bnb(m)


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
        assert ours.status == solve_arrays(arrays, {"presolve": "on"}).status, f"model {i}"
        statuses.append(ours.status)
    assert statuses.count("feasible") >= 20 and statuses.count("infeasible") >= 20


def test_symmetry_detection_off_keeps_every_status():
    statuses = []
    for i, model in enumerate(differential_models()):
        arrays = model.to_arrays()
        ours = solve_arrays(arrays)
        assert ours.status == solve_arrays(arrays, {"mip_detect_symmetry": True}).status, \
            f"model {i}"
        statuses.append(ours.status)
    assert statuses.count("feasible") >= 20 and statuses.count("infeasible") >= 20


def milp_status(arrays):
    """The status ``scipy.optimize.milp`` gives: a reference for the
    direct HiGHS call, not a solver path of the package."""
    res = milp(np.zeros(arrays.lb.size), integrality=arrays.integrality,
               bounds=Bounds(arrays.lb, arrays.ub),
               constraints=LinearConstraint(scipy_csr(arrays.matrix), arrays.row_lo,
                                            arrays.row_hi),
               options={"presolve": False})
    return {0: "feasible", 2: "infeasible"}[res.status]


def test_direct_call_agrees_with_milp():
    rng = random.Random(41)
    models = [*differential_models(),
              *(random_binary_model(rng, rng.randint(2, 9), rng.randint(1, 7))
                for _ in range(60))]
    statuses = []
    for i, model in enumerate(models):
        arrays = model.to_arrays()
        statuses.append(solve_arrays(arrays).status)
        assert statuses[-1] == milp_status(arrays), f"model {i}"
    assert statuses.count("feasible") >= 20 and statuses.count("infeasible") >= 20


def bare_status(arrays):
    """The status HiGHS gives on ``arrays`` as they are, without the idle
    columns of ``solve_arrays``."""
    solver, matrix = highs.new_highs(), arrays.matrix
    solver.passModel(arrays.lb.size, arrays.row_lo.size, matrix.nnz,
                     highs.MatrixFormat.kRowwise, highs.ObjSense.kMinimize, 0.0,
                     np.zeros(arrays.lb.size), arrays.lb, arrays.ub, arrays.row_lo,
                     arrays.row_hi, matrix.indptr, matrix.indices, matrix.data,
                     arrays.integrality)
    return highs.run_highs(solver, arrays.integrality.tolist())[0]


def fold_models():
    """Programs of the per-robot, aggregate and continuous generators of
    ``test_fold``, and random binary programs."""
    rng = random.Random(307)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            inst = random_fleet(rng)
            tau = rng.choice([0, 0, 1, 2])
            mu = random_outer(rng, rng.randint(1, 3), ["a", "b"], inst.n_robots,
                              inner_depth=2, allow_next=tau == 0, inner_next=tau == 0)
            yield build_robust_problem(inst, mu, rng.randint(1, 5), tau).model
        for _ in range(40):
            inst = random_fleet(rng, identical=True)
            mu = random_outer(rng, rng.randint(1, 3), ["a", "b"], inst.n_robots,
                              bare_atoms=True)
            yield build_cltl_problem(inst, mu, rng.randint(1, 5)).model
        for _ in range(20):
            n, tau = rng.randint(1, 2), rng.choice([0, 0, 1])
            mu = random_outer(rng, rng.randint(1, 2), ["A", "C"], n, inner_depth=1,
                              allow_next=tau == 0, inner_next=False)
            yield build_cont_problem(integrators(n), mu, rng.randint(1, 4), tau).model
    for _ in range(60):
        yield random_binary_model(rng, rng.randint(2, 9), rng.randint(1, 7))


def test_idle_columns_change_no_status_and_never_reach_the_point():
    statuses, padded = [], 0
    for i, model in enumerate(fold_models()):
        arrays = model.to_arrays()
        sol = solve_arrays(arrays)
        assert sol.status == bare_status(arrays), f"model {i}"
        padded += idle_columns(arrays.lb.size) > 0
        if sol.feasible:
            assert len(sol.values) == arrays.lb.size, f"model {i}"
            assert model.check_point(sol.values, tol=FEAS_TOL) == [], f"model {i}"
        else:
            assert sol.values == {}, f"model {i}"
        statuses.append(sol.status)
    assert padded == len(statuses)
    assert statuses.count("feasible") >= 20 and statuses.count("infeasible") >= 20


def test_idle_columns_follow_the_column_count():
    assert [idle_columns(n) for n in (0, 1, 100, 768, 1000, 3000, 3072, 30000)] == [
        0, 3, 300, 2304, 2072, 72, 0, 0]


def test_lp_file_solve_agrees_with_the_array_solve(tmp_path):
    # lp_cli in process: HiGHS reads the file write_lp writes
    rng = random.Random(59)
    models = [*differential_models(),
              *(random_binary_model(rng, rng.randint(2, 9), rng.randint(1, 7))
                for _ in range(60))]
    lp, sol = str(tmp_path / "m.lp"), str(tmp_path / "m.sol")
    statuses = []
    for i, model in enumerate(models):
        name_to_var = write_lp(model, lp)
        statuses.append(lp_cli.solve_lp_file(lp, sol))
        assert statuses[-1] == solve_arrays(model.to_arrays()).status, f"model {i}"
        status, named = read_solution_file(sol)
        assert status == statuses[-1]
        # only nonzero values are listed, each under a column of the file
        assert set(named) <= set(read_lp(Path(lp).read_text())), f"model {i}"
        assert all(x != 0 for x in named.values()), f"model {i}"
        if status == "feasible":
            values = {v: named.get(name, 0) for name, v in name_to_var.items()}
            assert model.check_point(values, tol=FEAS_TOL) == [], f"model {i}"
        else:
            assert named == {}, f"model {i}"
    assert statuses.count("feasible") >= 20 and statuses.count("infeasible") >= 20


def test_lp_keyword_names_keep_the_status_through_the_lp_file_child():
    keywords = ["free", "inf", "Infinity", "end", "bin", "binary", "st", "gen", "bounds",
                "sos", "semi", "minimize", "max", "nan"]
    rng = random.Random(61)
    statuses = []
    for trial in range(8):
        m = random_binary_model(rng, rng.randint(4, 9), rng.randint(2, 6),
                                names=rng.sample(keywords, 5))
        statuses.append(solve_bnb(m).status)
        assert solve_external(m, LP_CLI).status == statuses[-1], f"trial {trial}"
    assert {"feasible", "infeasible"} <= set(statuses)


def test_point_violating_a_row_is_never_returned(monkeypatch):
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), "<=", 1, tag="atmost1")
    fake_highs(monkeypatch, highs.HighsModelStatus.kOptimal, point=[1.0, 1.0])
    with pytest.raises(SolverError, match="atmost1"):
        solve_bnb(m)


def test_unexplained_failure_raises(monkeypatch, tmp_path):
    m = IlpModel()
    m.add_binary("x")
    fake_highs(monkeypatch, highs.HighsModelStatus.kSolveError)
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


def test_external_paths_with_a_space_and_a_quote_stay_one_word(tmp_path, monkeypatch):
    # the template is split before the temporary paths go into its words
    spaced = tmp_path / "tmp dir 'q"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add_constraint(LinExpr({x: 1, y: 1}), "=", 1)
    sol = solve_external(m, LP_CLI)
    assert sol.feasible and sol[x] + sol[y] == 1


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
    with pytest.raises(SolverError, match="name value"):
        solve_external(m, junk)


def test_external_solver_output_that_is_not_utf8():
    m = IlpModel()
    x = m.add_binary("x")
    m.add_constraint(LinExpr({x: 1}), "=", 1)

    def fake(script, sol=" {sol}"):
        return f"{sys.executable} -c \"import sys; {script}\" {{lp}}{sol}"

    binary = fake("open(sys.argv[2], 'wb').write(b'status feasible\\n\\xff 1\\n')")
    with pytest.raises(SolverError, match=r"solution file \S*model\.sol is not UTF-8"):
        solve_external(m, binary)
    on_stdout = fake("sys.stdout.buffer.write(b'\\xff 1\\n')", sol="")  # stdout is the solution
    with pytest.raises(SolverError, match="is not UTF-8"):
        solve_external(m, on_stdout)
    with pytest.raises(SolverError, match="exited with 3: bad \ufffd byte"):
        solve_external(m, fake("sys.stderr.buffer.write(b'bad \\xff byte'); sys.exit(3)"))
    # a solver that ran and answered is heard, whatever its stderr holds
    noisy = fake("sys.stderr.buffer.write(b'\\xff'); open(sys.argv[2], 'w').write('x 1\\n')")
    sol = solve_external(m, noisy)
    assert sol.feasible and sol[x] == 1


def test_external_point_is_rounded_and_lists_its_nonzero_columns():
    m = IlpModel()
    x, y, z = m.add_binary("x"), m.add_continuous("y", 0, 1), m.add_integer("z", 0, 3)
    m.add_constraint(LinExpr({x: 1, y: 1}), ">=", 1.5)

    def fake(text):
        return (f"{sys.executable} -c \"import sys; "
                f"open(sys.argv[2], 'w').write('{text}')\" {{lp}} {{sol}}")

    sol = solve_external(m, fake("x 0.9999999\\ny 0.5\\n"))
    assert sol.feasible and sol.values == {x: 1, y: 0.5} and sol[z] == 0
    assert type(sol.values[x]) is int and type(sol.values[y]) is float
    with pytest.raises(SolverError, match="unknown variable 'w'"):
        solve_external(m, fake("x 1\\nw 1\\n"))
    with pytest.raises(SolverError, match="mismatch"):  # no rounding makes NaN integral
        solve_external(m, fake("x nan\\ny 1\\n"))


@pytest.mark.parametrize("status", ["error", "infeasable"])
@pytest.mark.parametrize("pinned", [False, True], ids=["zeros-feasible", "x-is-1"])
def test_external_rejects_an_unknown_status(status, pinned):
    m = IlpModel()
    x = m.add_binary("x")
    if pinned:
        m.add_constraint(LinExpr({x: 1}), "=", 1)
    fake = (f"{sys.executable} -c \"import sys; "
            f"open(sys.argv[2], 'w').write('status {status}\\n')\" {{lp}} {{sol}}")
    with pytest.raises(SolverError, match=f"line 1: unknown status '{status}'"):
        solve_external(m, fake)


def test_external_nonzero_exit():
    m = IlpModel()
    m.add_binary("x")
    with pytest.raises(SolverError, match="exited"):
        solve_external(m, f"{sys.executable} -c \"raise SystemExit(3)\" {{lp}}")


@pytest.mark.parametrize("command", [
    "no-such-solver-for-cltlsynth {lp} {sol}",  # FileNotFoundError
    "{lp} {sol}",                                # PermissionError: the LP file is not executable
    "solver '{lp} {sol}",                        # ValueError: an unbalanced quote
], ids=["missing", "not-executable", "bad-quoting"])
def test_external_solver_that_cannot_start(command):
    m = IlpModel()
    m.add_binary("x")
    with pytest.raises(SolverError, match="could not be started"):
        solve_external(m, command)

