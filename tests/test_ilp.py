"""Model builder, Boolean/threshold gadgets, LP export: its grammar
(``lp_grammar``) and what HiGHS reads of it.

Gadget correctness is checked exhaustively: for every complete fixing of
the inputs, the solver must force the output to the truth-table
value.
"""

import gc
import io
import itertools
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from cltlsynth import lp_cli
from cltlsynth.highs import HighsStatus, MatrixFormat, SolverError, new_highs
from cltlsynth.ilp import BINARY, CONTINUOUS, INTEGER, SENSES, IlpModel, LinExpr, ModelArrays
from cltlsynth.lp_format import (read_solution_file, sanitize_names, write_lp,
                                 write_solution_file)
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.solver import solve_bnb

from conftest import emergency_instance, scipy_csr
from lp_grammar import LpGrammarError, read_lp
from lp_reference import write_lp_rows


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
    assert scipy_csr(arrays.matrix).toarray().tolist() == [[1, 0, -2], [0, 4, 0], [1, 1, 1]]
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


def reference_matrix(model):
    """The constraint matrix SciPy builds from the rows' (row, column,
    coefficient) triples, independently of ``to_arrays``."""
    triples = [(r, v, c) for r, con in enumerate(model.constraints)
               for v, c in con.expr.coeffs.items()]
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(model.n_constraints, model.n_vars))


def random_matrix_model(rng, n_rows):
    """Up to five variables; a row may have no terms at all."""
    m = IlpModel()
    for k in range(rng.randint(0, 5)):
        m.add_var(rng.choice([BINARY, INTEGER, CONTINUOUS]), f"v{k}", -1, 3, tag="rnd")
    for _ in range(n_rows):
        picks = rng.sample(range(m.n_vars), rng.randint(0, m.n_vars))
        m.add_constraint(LinExpr({v: rng.choice([-2, -1, 0.5, 3, 1 / 7]) for v in picks}),
                         rng.choice(SENSES), rng.choice([-1, 0, 1 / 3, 2]), tag="rnd")
    return m


def test_numpy_csr_agrees_with_scipy(tmp_path):
    rng = random.Random(53)
    empty_rows = nan_points = round_trips = 0
    for trial in range(150):
        m = random_matrix_model(rng, 0 if trial % 10 == 0 else rng.randint(1, 8))
        want = reference_matrix(m)
        arrays = m.to_arrays()
        got = scipy_csr(arrays.matrix)
        assert arrays.matrix.indptr.dtype == arrays.matrix.indices.dtype == np.int32
        assert arrays.matrix.shape == want.shape and arrays.matrix.nnz == want.nnz
        assert (got != want).nnz == 0
        empty_rows += int(np.sum(np.diff(arrays.matrix.indptr) == 0))

        # row activity, and the rows check_point flags with it
        x = np.array([rng.choice([-1.5, 0, 1, 2, 1 / 3]) for _ in range(m.n_vars)],
                     dtype=float)
        if m.n_vars and trial % 3 == 0:
            x[rng.randrange(m.n_vars)] = np.nan
            nan_points += 1
        np.testing.assert_allclose(arrays.matrix.dot(x), want @ x, rtol=1e-12, atol=1e-12)
        lhs, tol = want @ x, 1e-6
        flagged = np.flatnonzero(~((lhs >= arrays.row_lo - tol)
                                   & (lhs <= arrays.row_hi + tol)))
        problems = m.check_point(dict(enumerate(x.tolist())), tol=tol)
        assert [int(p.split()[1]) for p in problems if p.startswith("constraint")] == \
            flagged.tolist()

        # the LP text cannot hold a row without terms
        if all(con.expr.coeffs for con in m.constraints):
            back = highs_reads(m, tmp_path / f"m{trial}.lp")
            assert back.matrix.shape == want.shape and (back.matrix != want).nnz == 0
            round_trips += 1
    assert empty_rows > 20 and nan_points > 20 and round_trips > 20


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


# Names that pass as they are, need sanitizing, or are renamed as keywords
WRITER_NAMES = ["x", "y[1]", "0z", "_w", "a b", "\u00e9t\u00e9", "", "free", "Inf", "nan_1",
                "st", "x_1", "Max", "inf-1", "nan y"]


def random_writer_model(rng):
    """Binary, integer and continuous columns with integer and fractional
    bounds, rows of all three senses with integer and fractional
    coefficients and right-hand sides; repeated names get suffixes."""
    m = IlpModel(rng.choice(["model", "desk h=8"]))
    for k in range(rng.randint(1, 9)):
        kind = rng.choice([BINARY, INTEGER, CONTINUOUS])
        if kind == INTEGER:
            lo, hi = rng.choice([-3, 0, 2]), rng.choice([0, 1, 4])
        else:
            lo, hi = rng.choice([-1.5, 0.0, 1 / 3, -2]), rng.choice([0, 1, 2.5, 1e-3])
        name = rng.choice(WRITER_NAMES) + rng.choice(["", str(k % 3)])
        m.add_var(kind, name, lo, lo + hi, tag="rnd")
    for _ in range(rng.randint(0, 9)):
        picks = rng.sample(range(m.n_vars), rng.randint(1, m.n_vars))
        m.add_constraint(LinExpr({v: rng.choice([-2, -1, 1, 1.0, -1.0, 3, 0.5, -1.25,
                                                 1 / 7, 1e-3, 2.0, -5])
                                  for v in picks}),
                         rng.choice(SENSES), rng.choice([-3, 0, 2.5, 1 / 3, 7.0, -0.0]),
                         tag="rnd")
    return m


def assert_writes_as_the_reference(model):
    text, mapping = write_lp_rows(model)
    out = io.StringIO()
    assert write_lp(model, out) == mapping
    assert out.getvalue() == text


def test_write_lp_matches_the_per_row_reference():
    rng = random.Random(61)
    assert_writes_as_the_reference(IlpModel())
    renamed = fractional = 0
    for _ in range(150):
        m = random_writer_model(rng)
        assert_writes_as_the_reference(m)
        renamed += sum(name != var.name for name, var in zip(sanitize_names(m), m.vars))
        fractional += any(not float(c).is_integer() for con in m.constraints
                           for c in con.expr.coeffs.values())
    assert renamed > 300 and fractional > 50


def test_write_lp_matches_the_per_row_reference_on_the_desk():
    inst, mu = emergency_instance()
    model = build_sync_problem(inst, mu, 8).model
    assert_writes_as_the_reference(model)
    # a second write, from the arrays the first one built, is the same
    assert_writes_as_the_reference(model)


def test_write_lp_rejects_a_row_without_terms(tmp_path):
    m = small_model()
    m.add_constraint(LinExpr(const=1), "<=", 2, tag="empty")
    with pytest.raises(ValueError, match="no terms"):
        write_lp(m, tmp_path / "m.lp")
    assert not (tmp_path / "m.lp").exists()  # nothing is written


def test_to_arrays_is_rebuilt_after_every_addition():
    m = IlpModel()
    x = m.add_binary("x")
    steps = [lambda: m.add_binary("y"),
             lambda: m.add_constraint(LinExpr({x: 1}), ">=", 1),
             lambda: m.add_integer("n", 0, 3),
             lambda: m.bool_and([x, 1]),
             lambda: m.bool_not(x),
             lambda: m.constant(1),
             lambda: m.indicator_geq(LinExpr({x: 1}), 1, 2)]
    for step in steps:
        first = m.to_arrays()
        assert m.to_arrays() is first  # kept while nothing is added
        with pytest.raises(ValueError, match="read-only"):
            first.row_lo[:] = 0
        step()
        fresh = m.to_arrays()
        assert fresh is not first
        assert fresh.matrix.shape == (m.n_constraints, m.n_vars)
        assert fresh.lb.size == m.n_vars and fresh.row_lo.size == m.n_constraints
    want = scipy_csr(m.to_arrays().matrix)
    assert (want != reference_matrix(m)).nnz == 0


def test_add_row_checks_and_the_row_view():
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_integer("y", 0, 4)
    with pytest.raises(ValueError, match="sense"):
        m.add_row((x,), (1,), "<", 1)
    with pytest.raises(ValueError, match="coefficients"):
        m.add_row((x, y), (1,), "<=", 1)
    with pytest.raises(ValueError, match="unregistered variable 7"):
        m.add_row((x, 7), (1, 1), "<=", 1)
    with pytest.raises(ValueError, match="unregistered variable -1"):
        m.add_row((-1,), (1,), "<=", 1)
    assert m.n_constraints == 0 and m.to_arrays().matrix.nnz == 0  # nothing was stored
    m.add_row((y, x), (2, -1), "<=", 3, tag="a")
    m.add_constraint(LinExpr({x: 1}, const=2), ">=", 1, tag="b")
    m.add_row((), (), "=", 0, tag="a")
    rows = m.constraints
    assert len(rows) == 3
    assert [(dict(r.expr.coeffs.items()), r.sense, r.rhs, r.tag) for r in rows] == [
        ({y: 2, x: -1}, "<=", 3, "a"), ({x: 1}, ">=", -1, "b"), ({}, "=", 0, "a")]
    assert [len(r.expr.coeffs) for r in rows] == [2, 1, 0]
    assert list(rows[0].expr.coeffs.items()) == [(y, 2), (x, -1)]
    assert rows[-1].index == 2 and rows[-3].index == 0
    with pytest.raises(IndexError):
        rows[3]
    assert m.metadata()["constraints"] == {"a": 2, "b": 1}
    assert m.check_point({x: 1, y: 3}) == ["constraint 0 [a] violated: 5.0 <= 3.0"]


def test_gadget_merges_a_repeated_input():
    m = IlpModel()
    x = m.add_binary("x")
    z = m.bool_and([x, x])
    assert [(dict(r.expr.coeffs.items()), r.sense, r.rhs) for r in m.constraints] == [
        ({z: 1, x: -1}, "<=", 0), ({z: 1, x: -1}, "<=", 0), ({z: 1, x: -2}, ">=", -1)]


def test_the_desk_program_holds_no_object_per_row():
    """Rows live in flat buffers: the h = 16 desk program (13,517 rows)
    retains under 3 MB; with a ``LinExpr`` and a dataclass per row it
    retained about 6.8 MB."""
    inst, mu = emergency_instance()
    build_sync_problem(inst, mu, 8)  # caches of the fleet and the formula
    gc.collect()
    tracemalloc.start()
    try:
        problem = build_sync_problem(inst, mu, 16)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.model.n_constraints == 13517
    assert retained <= 3e6, f"{retained / 1e6:.2f} MB"


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


def highs_reads(model, path):
    """``write_lp(model)`` as HiGHS's reader sees it: the matrix (SciPy),
    row bounds, column bounds and integrality (0 or 1) it reads, with its
    columns put back in the model's variable order by name.  The file must
    also keep to ``write_lp``'s grammar, which HiGHS does not check."""
    write_lp(model, path)
    names = sanitize_names(model)
    assert sorted(read_lp(path.read_text())) == sorted(names)
    highs = new_highs()
    assert highs.readModel(str(path)) == HighsStatus.kOk
    lp = highs.getLp()
    assert sorted(lp.col_names_) == sorted(names)
    order = [lp.col_names_.index(name) for name in names]
    a = lp.a_matrix_
    assert a.format_ == MatrixFormat.kColwise
    matrix = sparse.csc_matrix((a.value_, a.index_, a.start_),
                               shape=(lp.num_row_, lp.num_col_))[:, order]
    integrality = [int(kind) for kind in lp.integrality_] or [0] * lp.num_col_
    return ModelArrays(matrix, np.array(lp.row_lower_), np.array(lp.row_upper_),
                       np.array(lp.col_lower_)[order], np.array(lp.col_upper_)[order],
                       np.array(integrality)[order])


def assert_reads_back(model, path):
    """HiGHS reads ``write_lp(model)`` as ``model.to_arrays()`` exactly."""
    got, want = highs_reads(model, path), model.to_arrays()
    want_matrix = scipy_csr(want.matrix)
    assert got.matrix.shape == want_matrix.shape
    assert got.matrix.nnz == want_matrix.nnz and (got.matrix != want_matrix).nnz == 0
    for field in ("row_lo", "row_hi", "lb", "ub", "integrality"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def random_lp_model(rng):
    m = IlpModel()
    for k in range(rng.randint(1, 8)):
        kind = rng.choice([BINARY, INTEGER, CONTINUOUS])
        lo = rng.choice([-3, 0, 2]) if kind == INTEGER else rng.choice([-1.5, 0.0, 1 / 3])
        m.add_var(kind, rng.choice(["x", "y[1]", "0z", "_w"]) + str(k % 3),
                  lo, lo + rng.choice([0, 1, 4]), tag="rnd")
    for _ in range(rng.randint(0, 8)):
        picks = rng.sample(range(m.n_vars), rng.randint(1, m.n_vars))
        m.add_constraint(LinExpr({v: rng.choice([-2, -1, 1, 3, 0.5, -1.25, 1 / 7])
                                  for v in picks}),
                         rng.choice(["<=", "=", ">="]), rng.choice([-3, 0, 2.5, 1 / 3]),
                         tag="rnd")
    return m


def test_lp_round_trip_preserves_model(tmp_path):
    assert_reads_back(small_model(), tmp_path / "small.lp")
    assert_reads_back(IlpModel(), tmp_path / "empty.lp")
    rng = random.Random(47)
    for k in range(50):
        assert_reads_back(random_lp_model(rng), tmp_path / f"m{k}.lp")


def test_empty_feasibility_model_export(tmp_path):
    m = IlpModel()
    m.add_binary("x")
    path = tmp_path / "empty.lp"
    write_lp(m, path)
    text = path.read_text()
    assert text == "\\ model\nMinimize\n obj:\nSubject To\nBinaries\n x\nEnd\n"
    arrays = highs_reads(m, path)
    assert arrays.matrix.shape == (0, 1)
    assert arrays.integrality.tolist() == [1] and arrays.ub.tolist() == [1]


# Names an LP reader takes for a keyword or a number, in any case
LP_KEYWORD_NAMES = ["free", "inf", "Infinity", "END", "bin", "binary", "binaries", "st",
                    "gen", "general", "integer", "bounds", "bound", "sos", "semi",
                    "semis", "minimize", "Min", "maximum", "max", "nan", "info", "NaN_1"]


def test_lp_keywords_are_renamed_and_read_back(tmp_path):
    m = IlpModel()
    for k, name in enumerate(LP_KEYWORD_NAMES + ["x", "sos1", "stx", "e1", "in"]):
        m.add_var([BINARY, INTEGER, CONTINUOUS][k % 3], name, 0, 2, tag="rnd")
    for v in range(0, m.n_vars - 2, 2):
        m.add_constraint(LinExpr({v: 1, v + 1: -2, v + 2: 0.5}), SENSES[v % 3], 1, tag="rnd")
    assert sanitize_names(m) == ["v" + name for name in LP_KEYWORD_NAMES] + [
        "x", "sos1", "stx", "e1", "in"]
    assert_reads_back(m, tmp_path / "keywords.lp")


def test_lp_cli_reports_a_malformed_file_in_one_line(tmp_path):
    lp = tmp_path / "bad.lp"
    lp.write_text("\\ m\nMinimize\n obj:\nSubject To\n c0: + 1 x <= 1 2\n"
                  "Binaries\n x\nEnd\n")
    proc = subprocess.run([sys.executable, "-m", "cltlsynth.lp_cli", str(lp),
                           str(tmp_path / "out.sol")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: HiGHS could not read {lp} as an LP file\n"
    assert proc.stdout == ""  # no HiGHS log text


def test_lp_cli_reads_only_files_named_lp(tmp_path, capfd):
    # HiGHS picks its reader by the extension: an MPS reader for .mps
    path = tmp_path / "model.mps"
    write_lp(small_model(), path)
    assert lp_cli.main([str(path), str(tmp_path / "out.sol")]) == 1
    assert capfd.readouterr() == ("", f"error: {path}: an LP file must be named *.lp\n")


@pytest.mark.parametrize("text", ["garbage\n", "", "\n\n", "x + y <= 1\n"])
def test_lp_cli_rejects_text_that_holds_no_model(tmp_path, capfd, text):
    # HiGHS reads each as an empty model, with no columns and no rows
    lp = tmp_path / "g.lp"
    lp.write_text(text)
    assert lp_cli.main([str(lp), str(tmp_path / "g.sol")]) == 1
    assert capfd.readouterr() == ("", f"error: HiGHS could not read {lp} as an LP file\n")


@pytest.mark.parametrize("header", ["Minimize", "MAXIMIZE", "maximize", "min", "MAX",
                                    "Minimum", "maximum"])
def test_lp_cli_solves_an_empty_model(tmp_path, capfd, header):
    lp, sol = tmp_path / "e.lp", tmp_path / "e.sol"
    write_lp(IlpModel(), lp)
    lp.write_text(lp.read_text().replace("Minimize", header))
    assert lp_cli.main([str(lp), str(sol)]) == 0
    assert capfd.readouterr() == ("feasible\n", "")
    assert read_solution_file(sol) == ("feasible", {})


GOOD_LP = ["\\ m", "Minimize", " obj:", "Subject To", " c0: + 1 x - 2 n <= 3",
           "Bounds", " 0 <= n <= 4", "Binaries", " x", "Generals", " n", "End"]


def replaced(line, text):
    lines = list(GOOD_LP)
    lines[line - 1] = text
    return lines


def test_read_lp_reads_hand_written_text(tmp_path):
    path = tmp_path / "good.lp"
    path.write_text("\n".join(GOOD_LP) + "\n")
    assert read_lp(path.read_text()) == ["x", "n"]
    # and HiGHS's reader, which the LP-file child uses, reads the same model
    highs = new_highs()
    assert highs.readModel(str(path)) == HighsStatus.kOk
    lp = highs.getLp()
    a = lp.a_matrix_
    matrix = sparse.csc_matrix((a.value_, a.index_, a.start_), shape=(lp.num_row_, lp.num_col_))
    assert lp.col_names_ == ["x", "n"] and matrix.toarray().tolist() == [[1, -2]]
    assert [int(kind) for kind in lp.integrality_] == [1, 1] and lp.col_upper_ == [1, 4]


@pytest.mark.parametrize("lines, line", [
    (replaced(2, "Maximize"), 2),
    (replaced(3, " obj: + 1 x"), 3),                    # an objective
    (replaced(5, " c0: + 1 x - 2 n 3"), 5),             # no sense
    (replaced(5, " c0: + 1 x - 2 n <="), 5),            # no right-hand side
    (replaced(5, " c0: + 1 x - 2 n <= three"), 5),      # bad number
    (replaced(5, " c0: + 1e400 x - 2 n <= 3"), 5),      # not finite
    (replaced(5, " c0: + 0 x - 2 n <= 3"), 5),          # a zero coefficient
    (replaced(5, " c0: + x - 2 n <= 3"), 5),            # not sign-coefficient-name triples
    (replaced(5, " c0: 1 x - 2 n <= 3"), 5),
    (replaced(5, " c0: * 1 x - 2 n <= 3"), 5),
    (replaced(5, " c0: + 1 x + 1 x <= 3"), 5),          # a variable twice
    (replaced(5, " c0: + 1 2x - 2 n <= 3"), 5),         # bad name
    (replaced(5, " c1: + 1 x - 2 n <= 3"), 5),          # wrong row label
    (replaced(6, "Objective"), 6),                      # unknown section
    (replaced(10, "Bounds"), 10),                       # section out of order
    (replaced(7, " 0 <= n"), 7),                        # bound not 'lo <= name <= hi'
    (replaced(7, " n >= 0"), 7),
    (replaced(7, " 0 <= n <= inf"), 7),                 # no finite bound
    (replaced(9, " x y"), 9),                           # two names on one line
    (replaced(12, "end"), 12),
    (GOOD_LP[:-1], 12),                                 # no End
    (GOOD_LP + ["Bounds"], 13),                         # text after End
    (GOOD_LP[:6] + GOOD_LP[7:], 11),                    # integer n without bounds
    (GOOD_LP[:6] + [" 0 <= x <= 1"] + GOOD_LP[6:], 13),  # binary x with bounds
])
def test_read_lp_rejects_text_write_lp_never_writes(lines, line):
    with pytest.raises(LpGrammarError, match=f"^line {line}: "):
        read_lp("\n".join(lines) + "\n")


@pytest.mark.parametrize("lines", [
    GOOD_LP, replaced(2, "Maximize"), replaced(3, " obj: + 1 x"),
    replaced(5, " c0: + 1 x - 2 n 3"), replaced(5, " c0: + 1 x - 2 n <= three"),
    replaced(5, " c0: + 1e400 x - 2 n <= 3"), replaced(5, " c0: + 0 x - 2 n <= 3"),
    replaced(5, " c0: * 1 x - 2 n <= 3"), replaced(5, " c0: + 1 x + 1 x <= 3"),
    replaced(5, " c0: + 1 x - 2 n >= 9"), replaced(6, "Objective"),
    replaced(7, " 0 <= n <= inf"), replaced(9, " x y"), replaced(12, "end"),
    GOOD_LP[:-1], GOOD_LP[:6] + GOOD_LP[7:], ["garbage"],
])
def test_lp_cli_answers_any_text_in_one_line(tmp_path, capfd, lines):
    """On text ``write_lp`` never writes, the LP-file child either solves
    what HiGHS's reader makes of it or rejects it, in one line each way,
    with no HiGHS log text and no traceback."""
    lp, sol = tmp_path / "v.lp", tmp_path / "v.sol"
    lp.write_text("\n".join(lines) + "\n")
    code = lp_cli.main([str(lp), str(sol)])
    out, err = capfd.readouterr()
    if code == 0:
        assert err == "" and out in ("feasible\n", "infeasible\n")
        assert read_solution_file(sol)[0] == out.strip()
    else:
        assert code == 1 and out == ""
        assert err == f"error: HiGHS could not read {lp} as an LP file\n"


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
    with pytest.raises(SolverError, match="name value"):
        read_solution_file(path)
