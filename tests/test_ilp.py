"""Model builder, Boolean/threshold gadgets, LP export: its grammar
(``lp_grammar``) and what HiGHS reads of it.

Gadget correctness is checked exhaustively: for every complete fixing of
the inputs, the solver must force the output to the truth-table
value.
"""

import gc
import io
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from cltlsynth import lp_cli, lp_format
from cltlsynth.highs import FEAS_TOL, HighsStatus, MatrixFormat, SolverError, new_highs
from cltlsynth.ilp import (BINARY, CONTINUOUS, INTEGER, KINDS, SENSES, IlpModel, ModelArrays,
                           RowBlock)
from cltlsynth.lp_format import read_solution_file, sanitize_names, write_lp
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.solver import solve_bnb

from conftest import emergency_instance, scipy_csr
from lp_grammar import LpGrammarError, read_lp
from lp_reference import write_lp_rows


def fix(model, var, value):
    model.add_row([var], [1], "=", value, "fix")


def test_add_var_kinds_and_errors():
    m = IlpModel()
    b = m.add_binary("b")
    assert m.to_arrays().lb[b] == 0 and m.to_arrays().ub[b] == 1
    i = m.add_integer("i", 0, 5)
    assert KINDS[m.kind_codes()[i]] == INTEGER
    with pytest.raises(ValueError, match="lo"):
        m.add_continuous("c", 2.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        m.add_integer("j", 0, float("inf"))


def test_add_row_rejects_unknown_variable():
    m = IlpModel()
    with pytest.raises(ValueError, match="unregistered"):
        m.add_row([4], [1], "<=", 1)


def test_trivially_false_constraint_reported_infeasible():
    m = IlpModel()
    m.add_binary("x")
    m.add_row([], [], ">=", 1, "bad")
    assert solve_bnb(m).status == "infeasible"


def test_to_arrays_matches_the_constraints():
    m = IlpModel()
    b, i, c = m.add_binary("b"), m.add_integer("i", -2, 5), m.add_continuous("c", 0.5, 1.5)
    m.add_row([b, c], [1, -2], "<=", 3)
    m.add_row([i], [4], ">=", -1)
    m.add_row([c, i, b], [1, 1, 1], "=", 2)
    arrays = m.to_arrays()
    assert scipy_csr(arrays.matrix).toarray().tolist() == [[1, 0, -2], [0, 4, 0], [1, 1, 1]]
    assert arrays.row_lo.tolist() == [float("-inf"), -1, 2]
    assert arrays.row_hi.tolist() == [3, float("inf"), 2]
    assert arrays.lb.tolist() == [0, -2, 0.5] and arrays.ub.tolist() == [1, 5, 1.5]
    assert arrays.integrality.tolist() == [1, 1, 0]


def check_point_row_by_row(model, values, tol):
    """Reference: every bound and row checked one at a time in Python."""
    problems = []
    arrays = model.to_arrays()
    for v, (name, kind, lo, hi) in enumerate(zip(
            model.names, [KINDS[k] for k in model.kind_codes()], arrays.lb.tolist(),
            arrays.ub.tolist())):
        x = values.get(v, 0)
        if kind != CONTINUOUS and abs(x - round(x)) > tol:
            problems.append(f"variable {name} = {x} is not integral")
        if x < lo - tol or x > hi + tol:
            problems.append(f"variable {name} = {x} outside [{lo}, {hi}]")
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
            m.add_row(picks, [rng.choice([-2, -1, 1, 3]) for _ in picks],
                      rng.choice(["<=", "=", ">="]), rng.randint(-3, 4), "rnd")
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
        m.add_row(picks, [rng.choice([-2, -1, 0.5, 3, 1 / 7]) for _ in picks],
                  rng.choice(SENSES), rng.choice([-1, 0, 1 / 3, 2]), "rnd")
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
        z, = m.bool_gadgets(op, [inputs])
        for v, bit in zip(inputs, bits):
            fix(m, v, bit)
        expected = all(bits) if op == "AND" else any(bits)
        sol = solve_bnb(m)
        assert sol.feasible
        assert sol[z] == int(expected), f"{op}{bits}"
        # the opposite output value must be infeasible
        m.add_row([z], [1], "=", 1 - int(expected), "force")
        assert solve_bnb(m).status == "infeasible"


def test_not_gadget():
    for bit in (0, 1):
        m = IlpModel()
        x = m.add_binary("x")
        z, = m.bool_gadgets("NOT", [[x]])
        fix(m, x, bit)
        sol = solve_bnb(m)
        assert sol.feasible and sol[z] == 1 - bit


def test_gadget_rejects_empty_inputs():
    m = IlpModel()
    with pytest.raises(ValueError, match="at least one"):
        m.bool_gadgets("AND", [[]])


def indicator(model, cols, coefs, const, one, zero, big_m, tag="indicator"):
    """One ``RowBlock.indicator``, stored; its binary's id."""
    rows = RowBlock(model)
    y = rows.indicator(cols, coefs, const, one, zero, big_m, "y")
    rows.store(tag)
    return y


def counting_indicator(model, cols, const, m, size):
    """y = [sum of the binaries ``cols`` + const >= m], as ``circuit``
    writes a threshold over at most ``size`` robots."""
    return indicator(model, cols, [1] * len(cols), const, (m, math.inf), (-math.inf, m - 1),
                     size + 1)


def test_counting_indicator_exhaustive():
    # every fixing of the members and of y: feasible exactly when y is the count's truth
    for bits, y_bit in itertools.product(itertools.product((0, 1), repeat=3), (0, 1)):
        m = IlpModel()
        xs = [m.add_binary(f"x{i}") for i in range(3)]
        y = counting_indicator(m, xs, 1, 3, 4)  # one member is already 1
        for v, bit in zip(xs, bits):
            fix(m, v, bit)
        fix(m, y, y_bit)
        assert solve_bnb(m).feasible == (y_bit == int(sum(bits) + 1 >= 3)), (bits, y_bit)


def test_face_indicator_exhaustive():
    """A polytope face x + 2 n + c <= 3 with margin 0.25, c a shared
    constant, at the continuous engine's M (|h_i| plus each coefficient
    times its column's largest magnitude, plus 1): y = 1 puts the
    expression at most 2.75 and y = 0 at least 3.25; between the two,
    neither holds."""
    for x_val, n_val, y_bit in itertools.product(
            (-2, -1, 0, 0.25, 0.5, 0.75, 1, 2), range(4), (0, 1)):
        m = IlpModel()
        x, n, c = m.add_continuous("x", -2, 2), m.add_integer("n", 0, 3), m.constant(0.5)
        y = indicator(m, [x, n, c], [1, 2, 1], 0, (-math.inf, 2.75), (3.25, math.inf),
                      3 + 2 + 2 * 3 + 0.5 + 1, "polytope")
        fix(m, x, x_val)
        fix(m, n, n_val)
        fix(m, y, y_bit)
        e = x_val + 2 * n_val + 0.5
        assert solve_bnb(m).feasible == (e <= 2.75 if y_bit else e >= 3.25), (e, y_bit)
        assert c not in [col for row in m.constraints for col, _ in row.expr.coeffs.items()
                         if row.tag == "polytope"]  # the constant moved into the bounds


def test_indicator_zero_threshold_always_true():
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(2)]
    y = counting_indicator(m, xs, 0, 0, 2)
    m.add_row([y], [1], "=", 0, "force")
    assert solve_bnb(m).status == "infeasible"


def test_indicator_unreachable_threshold_always_false():
    m = IlpModel()
    xs = [m.add_binary(f"x{i}") for i in range(2)]
    y = counting_indicator(m, xs, 0, 3, 2)
    m.add_row([y], [1], "=", 1, "force")
    assert solve_bnb(m).status == "infeasible"


def test_check_point_flags_an_infinite_value_without_a_warning():
    m = IlpModel()
    x = m.add_binary("x")
    m.add_row((x,), (1,), "<=", 1)
    for point in ({x: float("inf")}, np.array([np.inf])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problems = m.check_point(point)
        assert problems == ["variable x = inf is not integral",
                            "variable x = inf outside [0.0, 1.0]",
                            "constraint 0 [untagged] violated: inf <= 1.0"]


def test_metadata_counts_are_exact():
    m = IlpModel()
    a = m.add_binary("a", tag="dynamics")
    b = m.add_binary("b", tag="dynamics")
    m.add_integer("c", 0, 3, tag="flow")
    m.add_row([a, b], [1, 1], "<=", 1, "collision")
    m.add_row([a], [1], "=", 1, "collision")
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
    m.add_row([x, y], [1, 1], "<=", 1, "t")
    m.add_row([n, c], [1, -2], ">=", -3, "t")
    m.add_row([x, n], [1, 1], "=", 2, "t")
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
        m.add_row(picks, [rng.choice([-2, -1, 1, 1.0, -1.0, 3, 0.5, -1.25, 1 / 7, 1e-3,
                                      2.0, -5]) for _ in picks],
                  rng.choice(SENSES), rng.choice([-3, 0, 2.5, 1 / 3, 7.0, -0.0]), "rnd")
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
        renamed += sum(name != old for name, old in zip(sanitize_names(m), m.names))
        fractional += any(not float(c).is_integer() for con in m.constraints
                           for c in con.expr.coeffs.values())
    assert renamed > 300 and fractional > 50


def test_write_lp_matches_the_per_row_reference_on_the_desk():
    inst, mu = emergency_instance()
    model = build_sync_problem(inst, mu, 8).model
    assert_writes_as_the_reference(model)
    # a second write, from the arrays the first one built, is the same
    assert_writes_as_the_reference(model)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_write_lp_matches_the_reference_across_chunk_edges(monkeypatch, chunk):
    """Rows and columns written a few at a time, so chunk edges fall next
    to and between non-unit and negative coefficients."""
    monkeypatch.setattr(lp_format, "ROW_CHUNK", chunk)
    rng = random.Random(61)  # the models of the test above
    for _ in range(150):
        assert_writes_as_the_reference(random_writer_model(rng))
    inst, mu = emergency_instance()
    assert_writes_as_the_reference(build_sync_problem(inst, mu, 8).model)


def test_write_lp_streams_the_desk_program(tmp_path):
    """The writer holds one chunk of rows or columns at a time: a second
    write of the h = 16 desk program, whose arrays the first one built,
    allocates about 0.64 MB, the returned name map included.  Built for
    the whole model at once, its terms, numbers and lines took 4.57 MB."""
    inst, mu = emergency_instance()
    model = build_sync_problem(inst, mu, 16).model
    write_lp(model, tmp_path / "first.lp")
    gc.collect()
    tracemalloc.start()
    try:
        write_lp(model, tmp_path / "second.lp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0e6, f"{peak / 1e6:.2f} MB"
    assert (tmp_path / "second.lp").read_bytes() == (tmp_path / "first.lp").read_bytes()


def test_write_lp_rejects_a_row_without_terms(tmp_path):
    m = small_model()
    m.add_row([], [], "<=", 1, "empty")
    with pytest.raises(ValueError, match="no terms"):
        write_lp(m, tmp_path / "m.lp")
    assert not (tmp_path / "m.lp").exists()  # nothing is written


def test_to_arrays_is_rebuilt_after_every_addition():
    m = IlpModel()
    x = m.add_binary("x")
    steps = [lambda: m.add_binary("y"),
             lambda: m.add_row([x], [1], ">=", 1),
             lambda: m.add_integer("n", 0, 3),
             lambda: m.bool_gadgets("AND", [[x, 1]]),
             lambda: m.bool_gadgets("NOT", [[x]]),
             lambda: m.constant(1),
             lambda: counting_indicator(m, [x], 0, 1, 1),
             lambda: m.add_binaries(["p", "q"], tag="block"),
             lambda: m.add_rows([0, 2, 3], [x, 1, x], [1.0, -1.0, 2.0], -np.inf, [1.0, 4.0]),
             lambda: m.add_rows([0], [], [], 0.0, 0.0),
             lambda: m.bool_gadgets(["AND", "OR"], [[x, 1], [1, x]]),
             lambda: counting_indicator(m, [x, 1], 0, 1, 2)]
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
    m.add_row([x], [1], ">=", -1, "b")
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


def test_iterating_the_rows_gives_the_rows_indexing_gives():
    rng = random.Random(67)
    inst, mu = emergency_instance()
    models = [IlpModel(), build_sync_problem(inst, mu, 8).model,
              *(random_writer_model(rng) for _ in range(40))]

    def read(row):
        return row.index, list(row.expr.coeffs.items()), row.sense, row.rhs, row.tag

    for m in models:
        rows = m.constraints
        assert [read(row) for row in rows] == [read(rows[r]) for r in range(len(rows))]


def test_gadget_merges_a_repeated_input():
    m = IlpModel()
    x = m.add_binary("x")
    z, = m.bool_gadgets("AND", [[x, x]])
    assert [(dict(r.expr.coeffs.items()), r.sense, r.rhs) for r in m.constraints] == [
        ({z: 1, x: -1}, "<=", 0), ({z: 1, x: -1}, "<=", 0), ({z: 1, x: -2}, ">=", -1)]


def test_the_desk_program_holds_no_object_per_row():
    """Rows and columns live in flat buffers, and the program is built from
    row blocks: the folded h = 16 desk program (8,601 rows, 3,847 columns)
    retains about 1.11 MB.  Before folding (13,517 rows, 5,615 columns) it
    retained 1.58 MB, 1.69 MB built row by row, 2.14 MB with a dataclass
    per column, and with a ``LinExpr`` and a dataclass per row as well
    about 6.8 MB.  It keeps no NumPy array, so no block's temporaries, and
    no logic circuit once the signals are columns."""
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
    assert (problem.model.n_constraints, problem.model.n_vars) == (8601, 3847)
    assert retained <= 1.2e6, f"{retained / 1e6:.2f} MB"
    layout = problem.layout
    kept = {id(a) for a in arrays_held(problem.model)}
    kept |= {id(a) for key, value in vars(layout).items() if key not in ("model", "instance")
             for a in arrays_held(value)}
    assert not kept


def arrays_held(obj) -> list:
    """The NumPy arrays an object's attributes, dicts, lists and tuples
    hold, the object's model and fleet aside."""
    found, todo, seen = [], [obj], set()
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo += item.values()
        elif isinstance(item, (list, tuple, set)):
            todo += item
        elif hasattr(item, "__dict__"):
            todo += vars(item).values()
    return found


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------

def model_snapshot(model):
    """Everything a reader gets of a model: the arrays with their dtypes,
    the metadata, the names, the row view and, when every row has terms,
    the LP text."""
    arrays = model.to_arrays()
    rows = [(list(r.expr.coeffs.items()), r.sense, r.rhs, r.tag, r.index)
            for r in model.constraints]
    text = None
    if all(len(r.expr.coeffs) for r in model.constraints):
        out = io.StringIO()
        write_lp(model, out)
        text = out.getvalue()
    return ([(a.dtype.str, a.tobytes()) for a in (*arrays.matrix[:3], *arrays[1:])],
            arrays.matrix.shape, model.metadata(), model.names, model.kind_codes().tolist(), rows,
            text)


def random_rows(rng, n_vars, n_rows):
    """Rows as (columns, coefficients, lower, upper) with every sense, an
    empty row now and then, and fractional numbers."""
    rows = []
    for _ in range(n_rows):
        cols = rng.sample(range(n_vars), rng.randint(0, n_vars)) if n_vars else []
        coefs = [rng.choice([-2, -1, 1, 0.5, 3, 1 / 7]) for _ in cols]
        rhs = rng.choice([-1, 0, 1 / 3, 2])
        lo, hi = rng.choice([(-np.inf, rhs), (rhs, np.inf), (rhs, rhs)])
        rows.append((cols, coefs, lo, hi))
    return rows


def test_a_block_is_the_rows_and_columns_added_one_by_one():
    rng = random.Random(71)
    for trial in range(200):
        n_bin, n_int = rng.randint(0, 6), rng.randint(0, 2)
        tags = [rng.choice(["a", "b", "c"]) for _ in range(3)]
        rows = random_rows(rng, n_bin + n_int, rng.randint(0, 7))
        one, block = IlpModel(), IlpModel()
        for k in range(n_bin):
            one.add_binary(f"x{k}", tag=tags[0])
        if n_bin or trial % 2:
            assert block.add_binaries([f"x{k}" for k in range(n_bin)], tag=tags[0]) == 0
        for model in (one, block):
            for k in range(n_int):
                model.add_integer(f"n{k}", -1, 3, tag=tags[1])
        for cols, coefs, lo, hi in rows:
            sense = "=" if lo == hi else "<=" if lo == -np.inf else ">="
            one.add_row(cols, coefs, sense, hi if sense == "<=" else lo, tags[2])
        indptr = [0, *itertools.accumulate(len(cols) for cols, *_ in rows)]
        indices = [v for cols, *_ in rows for v in cols]
        values = [c for _, coefs, *_ in rows for c in coefs]
        row_lo, row_hi = [r[2] for r in rows], [r[3] for r in rows]
        if trial % 3 == 0:  # one block
            block.add_rows(indptr, indices, values, row_lo, row_hi, tags[2])
        else:  # two blocks, as tuples
            cut = rng.randint(0, len(rows))
            for part in (slice(0, cut), slice(cut, len(rows))):
                ptr = tuple(end - indptr[part.start] for end in indptr[part.start:part.stop + 1])
                ents = slice(indptr[part.start], indptr[part.stop])
                block.add_rows(ptr, tuple(indices[ents]), tuple(values[ents]),
                               tuple(row_lo[part]), tuple(row_hi[part]), tags[2])
        assert model_snapshot(block) == model_snapshot(one)


def test_add_rows_checks_the_block():
    m = IlpModel()
    x, y = m.add_binary("x"), m.add_integer("y", 0, 4)
    bad = [
        (([0, 2], [x, 2], [1, 1], 0, 1), "unregistered variable 2"),
        (([0, 2], [x, -1], [1, 1], 0, 1), "unregistered variable -1"),
        (([0, 2], [x, y], [1], 0, 1), "2 columns and 1 coefficients"),
        (([0, 3], [x, y], [1, 1], 0, 1), "3 entries"),
        (([1, 2], [x, y], [1, 1], 0, 1), "start at 0"),
        (([0, 2, 1], [x, y], [1, 1], 0, 1), "never decrease"),
        (([0, 1, 2], [x, y], [1, 1], [0, 0, 0], 1), "2 rows but 3 lower bounds"),
        (([0, 1, 2], [x, y], [1, 1], 0, [1]), "2 rows but 1 upper bounds"),
        (([0, 2], [x, 5], [1, 1], 0, 1), "unregistered variable 5"),
        (([0, 1], [0.5], [1], 0, 1), "integers"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            m.add_rows(*args)
    assert m.n_constraints == 0 and m.to_arrays().matrix.nnz == 0  # nothing was stored
    m.add_rows([0, 2, 2], [y, x], [2.0, -1.0], [-np.inf, 0.0], 3.0, tag="a")
    assert [(list(r.expr.coeffs.items()), r.sense, r.rhs, r.tag) for r in m.constraints] == [
        ([(y, 2.0), (x, -1.0)], "<=", 3.0, "a"), ([], "=", 0.0, "a")]
    assert m.check_point({x: 0, y: 2}) == ["constraint 0 [a] violated: 4.0 <= 3.0"]


def gadget_row_by_row(m, op, inputs, name, tag):
    """One gadget as ``add_binary`` and ``add_row`` calls: the rows
    ``bool_gadgets`` documents, a repeated input one term of the sum row."""
    if op == "NOT":
        z = m.add_binary(name or f"not_{inputs[0]}", tag=tag)
        m.add_row((z, inputs[0]), (1, 1), "=", 1, tag)
        return z
    z = m.add_binary(name or f"{op.lower()}_{m.n_vars}", tag=tag)
    each, total = ("<=", ">=") if op == "AND" else (">=", "<=")
    for v in inputs:
        m.add_row((z, v), (1, -1), each, 0, tag)
    terms = {z: 1}
    for v in inputs:
        terms[v] = terms.get(v, 0) - 1
    m.add_row(list(terms), list(terms.values()), total, 1 - len(inputs) if op == "AND" else 0,
              tag)
    return z


def indicator_row_by_row(m, cols, coefs, const, one, zero, big_m, name, tag):
    """One indicator as ``add_binary`` and ``add_row`` calls: the rows
    ``RowBlock.indicator`` documents, the shared constants among ``cols``
    moved into ``const``."""
    terms = {}
    for c, a in zip(cols, coefs):
        if m.constant_value(c) is None:
            terms[c] = a
        else:
            const += a * m.constant_value(c)
    y = m.add_binary(name, tag=tag)
    if one[1] < math.inf:
        sign, hi, lo = big_m, one[1] + big_m, zero[0]
    else:
        sign, hi, lo = -big_m, zero[1], one[0] - big_m
    cols, coefs = [*terms, y], [*terms.values(), sign]
    m.add_row(cols, coefs, "<=", hi - const, tag)
    m.add_row(cols, coefs, ">=", lo - const, tag)
    return y


def test_gadget_blocks_are_the_gadgets_added_one_at_a_time():
    rng = random.Random(79)
    repeats = chains = 0
    for trial in range(300):
        one, block = IlpModel(), IlpModel()
        for model in (one, block):
            for k in range(5):
                model.add_binary(f"x{k}")
            model.add_integer("n", 0, 3)
        n_gates, first = rng.randint(1, 6), block.n_vars
        if trial % 4 == 0:
            op, width = "NOT", 1
        else:
            op = rng.choice(["AND", "OR", "mixed"])
            width = rng.randint(1, 4)
        ops = [rng.choice(["AND", "OR"]) for _ in range(n_gates)] if op == "mixed" else \
            [op] * n_gates
        inputs = [[rng.randrange(5) for _ in range(width)] for _ in range(n_gates)]
        for g in range(1, n_gates):
            if rng.random() < 0.3:  # an earlier gadget of the same call
                inputs[g][rng.randrange(width)] = first + rng.randrange(g)
                chains += 1
        repeats += any(len(set(xs)) < width for xs in inputs)
        names = [rng.choice([None, f"g{g}"]) for g in range(n_gates)]
        tag = rng.choice(["gadget", "outer"])
        want = [gadget_row_by_row(one, o, xs, nm, tag) for o, xs, nm in zip(ops, inputs, names)]
        assert block.bool_gadgets(ops if op == "mixed" else op, inputs, names, tag) == want
        assert model_snapshot(block) == model_snapshot(one)
    assert repeats > 30 and chains > 50
    faces = 0
    for trial in range(100):
        one, block = IlpModel(), IlpModel()
        for model in (one, block):
            for k in range(4):
                model.add_binary(f"x{k}")
            model.add_integer("n", 0, 2)
            model.constant(1)
            model.constant(2.5)
        rows, want = RowBlock(block), []
        for g in range(rng.randint(1, 5)):
            cols = rng.sample(range(block.n_vars), rng.randint(0, 4))
            coefs = [rng.choice([1, -2, 0.5]) for _ in cols]
            const, name = rng.choice([0, 1, 0.25]), f"y{g}"
            if rng.random() < 0.5:  # a count, then a face
                threshold = rng.randint(1, 3)
                sides = (threshold, math.inf), (-math.inf, threshold - 1)
            else:
                offset = rng.choice([-1.0, 1 / 3, 2.0])
                sides = (-math.inf, offset - 0.1), (offset + 0.1, math.inf)
                faces += 1
            want.append(indicator_row_by_row(one, cols, coefs, const, *sides, 9, name, "outer"))
            assert rows.indicator(cols, coefs, const, *sides, 9, name) == want[-1]
        rows.store("outer")
        assert model_snapshot(block) == model_snapshot(one)
    assert faces > 100


def test_gadget_blocks_check_every_gadget_first():
    m = IlpModel()
    x, y, n = m.add_binary("x"), m.add_binary("y"), m.add_integer("n", 0, 3)
    bad = [
        (("AND", [[x, y], [x, 9]]), "unregistered variable 9"),
        (("AND", [[x, y], [x, 4]]), "unregistered variable 4"),  # not yet made
        (("OR", [[x, y], [x, n]]), "binary, got integer"),
        (("NOT", [[x, y]]), "exactly one input"),
        (("XOR", [[x, y]]), "unknown gadget 'XOR'"),
        ((["AND", "NOT"], [[x], [y]]), "unknown gadget 'NOT'"),
        (("AND", [[x, y], [x]]), "as many as the others"),
        (("AND", [[]]), "at least one input"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            m.bool_gadgets(*args)
    RowBlock(m).store("indicator")
    assert m.bool_gadgets("NOT", []) == []
    assert (m.n_vars, m.n_constraints) == (3, 0)  # nothing was stored


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


def test_names_checked_at_once_are_the_names_repaired_one_by_one():
    """A model whose names are all LP-safe and unique keeps them as they
    are, checked at once; with one name that needs repair, every name
    goes through the repair.  Both give the same names for the names that
    pass: the extra bad name, appended last, only selects the repair."""
    rng = random.Random(83)
    pool = ["x", "x", "st", "ST", "Bin", "bounds", "boundsx", "inf", "info", "NaNx", "nan_1",
            "e\u212a", "K", "\u212a", "y[1]", "0a", "_a", "a b", ""]
    for _ in range(2000):
        names = [rng.choice(pool) if rng.random() < 0.5 else
                 "".join(rng.choice("abxIiNnFf_1") for _ in range(rng.randint(1, 5)))
                 for _ in range(rng.randint(0, 5))]
        names = [n for n in names if n != "v0bad"]
        fast, slow = IlpModel(), IlpModel()
        for n in names:
            fast.add_binary(n)
            slow.add_binary(n)
        slow.add_binary("0bad")
        assert sanitize_names(fast) == sanitize_names(slow)[:-1], names


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
        m.add_row(picks, [rng.choice([-2, -1, 1, 3, 0.5, -1.25, 1 / 7]) for _ in picks],
                  rng.choice(["<=", "=", ">="]), rng.choice([-3, 0, 2.5, 1 / 3]), "rnd")
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
        m.add_row([v, v + 1, v + 2], [1, -2, 0.5], SENSES[v % 3], 1, "rnd")
    assert sanitize_names(m) == ["v" + name for name in LP_KEYWORD_NAMES] + [
        "x", "sos1", "stx", "e1", "in"]
    assert_reads_back(m, tmp_path / "keywords.lp")


def run_lp_cli(*args) -> subprocess.CompletedProcess:
    """The LP-file child as ``solve_external`` runs it, stdout and stderr
    piped and block-buffered, so a line lost at its hard exit shows as
    missing output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "cltlsynth.lp_cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_lp_cli_reports_a_malformed_file_in_one_line(tmp_path):
    lp = tmp_path / "bad.lp"
    lp.write_text("\\ m\nMinimize\n obj:\nSubject To\n c0: + 1 x <= 1 2\n"
                  "Binaries\n x\nEnd\n")
    proc = run_lp_cli(lp, tmp_path / "out.sol")
    assert proc.returncode == 1
    assert proc.stderr == f"error: HiGHS could not read {lp} as an LP file\n"
    assert proc.stdout == ""  # no HiGHS log text


def wide_model() -> IlpModel:
    """3,000 binaries fixed at 1: a solution file of about 23 KB."""
    m = IlpModel()
    for k in range(3000):
        fix(m, m.add_binary(f"x{k}"), 1)
    return m


@pytest.mark.parametrize("build", [
    lambda: build_sync_problem(*emergency_instance(), 16).model,  # 469 lines, 5.3 KB
    wide_model,
], ids=["desk-h16", "wide"])
def test_lp_cli_child_writes_what_the_in_process_solve_writes(tmp_path, build):
    """The child exits without interpreter teardown, so every line of its
    solution file and its status line on stdout must be out before it
    does; the wide program's file spans several write buffers."""
    lp, child, here = tmp_path / "m.lp", tmp_path / "child.sol", tmp_path / "here.sol"
    model = build()
    name_to_var = write_lp(model, lp)
    proc = run_lp_cli(lp, child)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "feasible\n", "")
    assert lp_cli.solve_lp_file(str(lp), str(here)) == "feasible"
    assert child.read_text() == here.read_text()
    named = read_solution_file(child)[1]
    assert len(named) > 400  # a file cut short would miss values the rows need
    assert model.check_point({name_to_var[name]: x for name, x in named.items()},
                             tol=FEAS_TOL) == []


def test_lp_cli_child_reports_an_infeasible_model(tmp_path):
    m = IlpModel()
    fix(m, m.add_binary("x"), 2)
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    write_lp(m, lp)
    proc = run_lp_cli(lp, sol)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "infeasible\n", "")
    assert sol.read_text() == "status infeasible\n"


def test_lp_cli_child_reports_an_unwritable_solution_path_in_one_line(tmp_path):
    lp, sol = tmp_path / "m.lp", tmp_path / "missing" / "m.sol"
    write_lp(small_model(), lp)
    proc = run_lp_cli(lp, sol)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(sol) in proc.stderr


@pytest.mark.parametrize("args", [[], ["m.lp"], ["m.lp", "m.sol", "extra"]],
                         ids=["none", "one", "three"])
def test_lp_cli_child_rejects_a_wrong_argument_count(args):
    proc = run_lp_cli(*args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: python -m cltlsynth.lp_cli model.lp out.sol\n"


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
    """The LP-file child lists each nonzero value, an integral one as an
    integer and any other to 17 digits, as ``write_lp`` writes numbers,
    and ``read_solution_file`` reads back the floats that text gives."""
    m = IlpModel()
    x, zero = m.add_binary("x"), m.add_binary("zero")
    fixed = {x: 1, zero: 0, m.add_var(INTEGER, "n", -3, -3): -3,
             m.add_var(CONTINUOUS, "load", 2.25, 2.25): 2.25,
             m.add_var(CONTINUOUS, "third", 1 / 3, 1 / 3): 1 / 3,
             m.add_var(CONTINUOUS, "big", 1e15, 1e15): 1e15}
    m.add_row(list(fixed), [1] * len(fixed), ">=", -10, "all")
    fix(m, x, 1)
    fix(m, zero, 0)
    lp, sol = tmp_path / "s.lp", tmp_path / "s.sol"
    write_lp(m, lp)
    assert lp_cli.solve_lp_file(str(lp), str(sol)) == "feasible"
    numbers = {m.names[v]: lp_format._num(x) for v, x in fixed.items() if x}
    assert sol.read_text() == "status feasible\n" + "".join(
        f"{name} {text}\n" for name, text in numbers.items())
    assert numbers["third"] == "0.33333333333333331" and numbers["big"] == "1000000000000000"
    assert read_solution_file(sol) == (
        "feasible", {name: float(text) for name, text in numbers.items()})
    fix(m, zero, 1)
    write_lp(m, lp)
    assert lp_cli.solve_lp_file(str(lp), str(sol)) == "infeasible"
    assert read_solution_file(sol) == ("infeasible", {})


@pytest.mark.parametrize("value", [1, -3, 0.5, 3.0, -2.0, 1 / 3, -1e-300, 1e15 - 1, 1e15,
                                   2.0 ** 60, float("inf")])
def test_the_child_writes_numbers_as_write_lp_does(value):
    assert lp_cli._number(value) == lp_format._num(value)


def test_solution_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.sol"
    path.write_text("x 1 2\n")
    with pytest.raises(SolverError, match="name value"):
        read_solution_file(path)


def test_solution_file_rejects_a_name_listed_twice(tmp_path):
    path = tmp_path / "twice.sol"
    path.write_text("status feasible\nx 1\ny 2\nx 0\n")
    with pytest.raises(SolverError, match="^solution line 4: 'x' is listed twice$"):
        read_solution_file(path)
