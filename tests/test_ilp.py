"""Model builder, Boolean/threshold gadgets, LP export/import.

Gadget correctness is checked exhaustively: for every complete fixing of
the inputs, the solver must force the output to the truth-table
value.
"""

import itertools
import random

import pytest

from cltlsynth.ilp import BINARY, CONTINUOUS, INTEGER, IlpModel, LinExpr
from cltlsynth.lp_format import (parse_lp, read_solution_file, sanitize_names,
                                 write_lp, write_solution_file)
from cltlsynth.solver import solve_bnb


def fix(model, var, value):
    model.add_constraint(LinExpr({var: 1}), "=", value, tag="fix")


def test_add_var_kinds_and_errors():
    m = IlpModel()
    b = m.add_binary("b")
    assert m.vars[b].lo == 0 and m.vars[b].hi == 1
    i = m.add_integer("i", 0, 5)
    assert m.vars[i].kind == INTEGER
    with pytest.raises(ValueError, match="lo"):
        m.add_continuous("c", 2.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        m.add_integer("j", 0, float("inf"))


def test_add_constraint_rejects_unknown_variable():
    m = IlpModel()
    with pytest.raises(ValueError, match="unregistered"):
        m.add_constraint(LinExpr({4: 1}), "<=", 1)


def test_trivially_false_constraint_reported_infeasible():
    m = IlpModel()
    m.add_binary("x")
    m.add_constraint(LinExpr(const=0), ">=", 1, tag="bad")
    assert solve_bnb(m).status == "infeasible"


def test_to_arrays_matches_the_constraints():
    m = IlpModel()
    b, i, c = m.add_binary("b"), m.add_integer("i", -2, 5), m.add_continuous("c", 0.5, 1.5)
    m.add_constraint(LinExpr({b: 1, c: -2}), "<=", 3)
    m.add_constraint(LinExpr({i: 4}), ">=", -1)
    m.add_constraint(LinExpr({c: 1, i: 1, b: 1}), "=", 2)
    arrays = m.to_arrays()
    assert arrays.matrix.toarray().tolist() == [[1, 0, -2], [0, 4, 0], [1, 1, 1]]
    assert arrays.row_lo.tolist() == [float("-inf"), -1, 2]
    assert arrays.row_hi.tolist() == [3, float("inf"), 2]
    assert arrays.lb.tolist() == [0, -2, 0.5] and arrays.ub.tolist() == [1, 5, 1.5]
    assert arrays.integrality.tolist() == [1, 1, 0]


def check_point_row_by_row(model, values, tol):
    """Reference: every bound and row checked one at a time in Python."""
    problems = []
    for v, var in enumerate(model.vars):
        x = values.get(v, 0)
        if var.is_integral and abs(x - round(x)) > tol:
            problems.append(f"variable {var.name} = {x} is not integral")
        if x < var.lo - tol or x > var.hi + tol:
            problems.append(f"variable {var.name} = {x} outside [{var.lo}, {var.hi}]")
    for idx, con in enumerate(model.constraints):
        lhs = sum(c * values.get(v, 0) for v, c in con.expr.coeffs.items())
        ok = (lhs <= con.rhs + tol if con.sense == "<=" else
              lhs >= con.rhs - tol if con.sense == ">=" else
              abs(lhs - con.rhs) <= tol)
        if not ok:
            problems.append(
                f"constraint {idx} [{con.tag}] violated: {lhs} {con.sense} {con.rhs}")
    return problems


def test_check_point_matches_a_row_by_row_reference():
    rng = random.Random(43)
    violated = 0
    for _ in range(200):
        m = IlpModel()
        for k in range(rng.randint(1, 6)):
            kind = rng.choice([BINARY, INTEGER, CONTINUOUS])
            m.add_var(kind, f"v{k}", -1 if kind == CONTINUOUS else 0, 3, tag="rnd")
        for _ in range(rng.randint(0, 5)):
            picks = rng.sample(range(m.n_vars), rng.randint(1, m.n_vars))
            m.add_constraint(LinExpr({v: rng.choice([-2, -1, 1, 3]) for v in picks}),
                             rng.choice(["<=", "=", ">="]), rng.randint(-3, 4), tag="rnd")
        # Points on a half-integer grid, so every sum is exact in floating point;
        # a missing value counts as zero.
        values = {v: rng.choice([0, 1, 1, 2]) if rng.random() < 0.8 else
                  rng.choice([-1, 0.5, 4]) for v in range(m.n_vars) if rng.random() < 0.9}
        expected = check_point_row_by_row(m, values, tol=1e-6)
        assert m.check_point(values, tol=1e-6) == expected
        violated += bool(expected)
    assert 20 < violated < 180


@pytest.mark.parametrize("op", ["AND", "OR"])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_gadgets_match_truth_tables(op, arity):
    for bits in itertools.product((0, 1), repeat=arity):
        m = IlpModel()
        inputs = [m.add_binary(f"x{i}") for i in range(arity)]
        z = m.bool_gadget(op, inputs)
        for v, bit in zip(inputs, bits):
            fix(m, v, bit)
        expected = all(bits) if op == "AND" else any(bits)
        sol = solve_bnb(m)
        assert sol.feasible
        assert sol[z] == int(expected), f"{op}{bits}"
        # the opposite output value must be infeasible
        m.add_constraint(LinExpr({z: 1}), "=", 1 - int(expected), tag="force")
        assert solve_bnb(m).status == "infeasible"


def test_not_gadget():
    for bit in (0, 1):
        m = IlpModel()
        x = m.add_binary("x")
        z = m.bool_not(x)
        fix(m, x, bit)
        sol = solve_bnb(m)
        assert sol.feasible and sol[z] == 1 - bit


def test_gadget_rejects_empty_inputs():
    m = IlpModel()
    with pytest.raises(ValueError, match="at least one"):
        m.bool_gadget("AND", [])


def test_indicator_threshold_exhaustive():
    # expected values enumerated independently over all input fixings
    for bits in itertools.product((0, 1), repeat=3):
        m = IlpModel()
        xs = [m.add_binary(f"x{i}") for i in range(3)]
        y = m.indicator_geq(LinExpr.sum_of(xs), 2, 4)
        for v, bit in zip(xs, bits):
            fix(m, v, bit)
        sol = solve_bnb(m)
        assert sol.feasible
        assert sol[y] == int(sum(bits) >= 2)


def test_indicator_zero_threshold_always_true():
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(2)]
    y = m.indicator_geq(LinExpr.sum_of(xs), 0, 3)
    m.add_constraint(LinExpr({y: 1}), "=", 0, tag="force")
    assert solve_bnb(m).status == "infeasible"


def test_indicator_unreachable_threshold_always_false():
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(2)]
    y = m.indicator_geq(LinExpr.sum_of(xs), 3, 3)
    m.add_constraint(LinExpr({y: 1}), "=", 1, tag="force")
    assert solve_bnb(m).status == "infeasible"


def test_indicator_rejects_small_big_m():
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(5)]
    with pytest.raises(ValueError, match="big-M"):
        m.indicator_geq(LinExpr.sum_of(xs), 1, 2)


def test_metadata_counts_are_exact():
    m = IlpModel()
    a = m.add_binary("a", tag="dynamics")
    b = m.add_binary("b", tag="dynamics")
    m.add_integer("c", 0, 3, tag="flow")
    m.add_constraint(LinExpr({a: 1, b: 1}), "<=", 1, tag="collision")
    m.add_constraint(LinExpr({a: 1}), "=", 1, tag="collision")
    meta = m.metadata()
    assert meta["variables"]["dynamics"] == 2
    assert meta["variables"]["flow"] == 1
    assert meta["constraints"]["collision"] == 2
    assert meta["total_variables"] == m.n_vars == 3
    assert meta["total_constraints"] == m.n_constraints == 2


# ---------------------------------------------------------------------------
# LP format
# ---------------------------------------------------------------------------

def small_model():
    m = IlpModel("demo")
    x = m.add_binary("x")
    y = m.add_binary("y[1]")  # needs sanitization
    n = m.add_integer("n", 0, 4)
    c = m.add_continuous("load", -1.5, 2.5)
    m.add_constraint(LinExpr({x: 1, y: 1}), "<=", 1, tag="t")
    m.add_constraint(LinExpr({n: 1, c: -2}), ">=", -3, tag="t")
    m.add_constraint(LinExpr({x: 1, n: 1}), "=", 2, tag="t")
    return m


def test_export_is_deterministic(tmp_path):
    m = small_model()
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    write_lp(m, p1)
    write_lp(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_sanitizes_and_disambiguates(tmp_path):
    m = IlpModel()
    m.add_binary("y[1]")
    m.add_binary("y_1_")
    m.add_binary("0start")
    names = sanitize_names(m)
    assert names[0] == "y_1_"
    assert names[1] != names[0]
    assert not names[2][0].isdigit()
    assert len(set(names)) == 3


def test_lp_round_trip_preserves_model(tmp_path):
    m = small_model()
    path = tmp_path / "m.lp"
    write_lp(m, path)
    back = parse_lp(path)
    assert back.n_vars == m.n_vars
    assert back.n_constraints == m.n_constraints
    kinds = sorted(v.kind for v in back.vars)
    assert kinds == sorted(v.kind for v in m.vars)
    for c1, c2 in zip(m.constraints, back.constraints):
        assert c1.sense == c2.sense and c1.rhs == pytest.approx(c2.rhs)
        assert sorted(c1.expr.coeffs.values()) == sorted(c2.expr.coeffs.values())


def test_empty_feasibility_model_export(tmp_path):
    m = IlpModel()
    m.add_binary("x")
    path = tmp_path / "empty.lp"
    write_lp(m, path)
    text = path.read_text()
    assert text.startswith("\\ model\nMinimize\n obj:\nSubject To\n")
    assert text.rstrip().endswith("End")
    back = parse_lp(path)
    assert back.n_vars == 1 and back.n_constraints == 0


def test_solution_file_round_trip(tmp_path):
    path = tmp_path / "s.sol"
    write_solution_file(path, "feasible", {"x": 1, "load": 2.25})
    status, values = read_solution_file(path)
    assert status == "feasible"
    assert values == {"x": 1.0, "load": 2.25}
    write_solution_file(path, "infeasible")
    assert read_solution_file(path)[0] == "infeasible"


def test_solution_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.sol"
    path.write_text("x 1 2\n")
    with pytest.raises(Exception, match="name value"):
        read_solution_file(path)
