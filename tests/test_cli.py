"""Command-line interface, end to end on small models."""

import argparse
import json
import random
import sys
import time

import pytest

from cltlsynth import cli
from cltlsynth.cli import main
from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_sync import EncodingError, build_sync_problem
from cltlsynth.formula import IAtom, OAnd, Tcp, parse_formula, to_text
from cltlsynth.ilp import Solution
from cltlsynth.oracle import brute_force_synth
from cltlsynth.system import load_model

from conftest import random_instance, random_outer

LP_CLI = f"{sys.executable} -m cltlsynth.lp_cli {{lp}} {{sol}}"


@pytest.fixture
def grid_model(tmp_path):
    payload = {
        "ap": [],
        "grid": {"width": 3, "height": 3,
                 "regions": {"A": [[0, 0]], "B": [[2, 2]], "D": [[1, 1]]}},
        "robots": [{"init": [0, 0]}, {"init": [2, 2]}],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def identical_model(tmp_path):
    payload = {
        "ap": ["a", "b"],
        "robots": [
            {"states": ["s0", "s1"], "transitions": [[0, 0], [0, 1], [1, 1], [1, 0]],
             "labels": {"s0": ["a"], "s1": ["b"]}, "init": 0},
            {"states": ["s0", "s1"], "transitions": [[0, 0], [0, 1], [1, 1], [1, 0]],
             "labels": {"s0": ["a"], "s1": ["b"]}, "init": 0},
        ],
    }
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def continuous_model(tmp_path):
    payload = {
        "continuous": {
            "robots": [
                {"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [0.0]},
                {"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [0.0]},
            ],
            "atoms": {"A": {"H": [[1.0], [-1.0]], "h": [1.1, -0.9]}},
            "state_bounds": [[-10.0, 10.0]],
            "input_bounds": [[-1.0, 1.0]],
        }
    }
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(payload))
    return path


def run(args):
    return main([str(a) for a in args])


def test_synth_writes_artifacts_and_verifies(grid_model, tmp_path):
    out = tmp_path / "traj.json"
    stats = tmp_path / "stats.json"
    lp = tmp_path / "model.lp"
    code = run(["synth", "--model", grid_model, "--formula", "F [A, 2]",
                "--horizon", "6", "--engine", "cltlplus", "--output", out,
                "--stats", stats, "--export-lp", lp])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["type"] == "discrete" and len(data["robots"]) == 2
    meta = json.loads(stats.read_text())
    assert meta["status"] == "feasible"
    # the final solve's counters
    assert set(meta["solver"]) == {"nodes", "presolve"}
    assert meta["solver"]["presolve"] is False
    # only reachable cells get variables: a corner robot on the 3x3 grid
    # reaches the cells within t moves, 1, 3, 6, 8, 9, 9, 9 for t = 0..6,
    # its start cell is the constant 1, and the two robots start in
    # opposite corners
    assert meta["variables"]["dynamics"] == 2 * (3 + 6 + 8 + 9 + 9 + 9)
    assert lp.exists()


def test_synth_infeasible_exit_code(grid_model):
    code = run(["synth", "--model", grid_model, "--formula", "[A, 3]",
                "--horizon", "3"])
    assert code == 1


def test_synth_horizon_sweep(grid_model, capsys):
    # reaching the far corner needs four moves from [0,0], plus one step of
    # dwell so the lasso can close
    code = run(["synth", "--model", grid_model, "--formula", "F [B, 2]",
                "--horizon", "1", "--horizon-max", "8"])
    assert code == 0
    assert "feasible at h=5" in capsys.readouterr().out


def test_engine_auto_picks_aggregate(identical_model, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code = run(["synth", "--model", identical_model, "--formula", "G F [b, 2]",
                "--horizon", "4", "--stats", stats])
    assert code == 0
    meta = json.loads(stats.read_text())
    assert meta["engine"] == "cltl"


def test_engine_auto_falls_back_for_temporal_inner(identical_model, tmp_path):
    stats = tmp_path / "stats.json"
    code = run(["synth", "--model", identical_model, "--formula", "[F b, 2]",
                "--horizon", "4", "--stats", stats])
    assert code == 0
    assert json.loads(stats.read_text())["engine"] == "cltlplus"


def test_robust_synth_roundtrip(identical_model, tmp_path):
    out = tmp_path / "traj.json"
    code = run(["synth", "--model", identical_model, "--formula", "G [a | b, 2]",
                "--horizon", "3", "--tau", "1", "--output", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["tau"] == 1


def test_robust_synth_with_a_zero_step_verify_budget(identical_model, capsys):
    code = run(["synth", "--model", identical_model, "--formula", "G [a | b, 2]",
                "--horizon", "3", "--tau", "1", "--verify-max-t", "0"])
    assert code == 0
    assert "oracle: verified_bounded (exhaustive, 1 executions)" in capsys.readouterr().out


@pytest.mark.parametrize("formula", ["F [!a, 1]", "G [true, 2]", "F [!!a, 2]",
                                     "G F [!a, 2] & G F [a, 2]"])
def test_literal_tcps_verify_on_both_discrete_engines(identical_model, capsys, formula):
    lines = []
    for engine in ("cltl", "cltlplus"):
        code = run(["synth", "--model", identical_model, "--formula", formula,
                    "--horizon", "1", "--horizon-max", "4", "--engine", engine])
        out = capsys.readouterr().out
        assert code == 0 and "oracle: verified" in out, out
        lines.append(out.splitlines()[0].replace(engine, "ENGINE"))
    assert lines[0] == lines[1]


@pytest.mark.filterwarnings("ignore")
def test_auto_picks_the_aggregate_engine_exactly_where_it_builds():
    rng = random.Random(17)
    picks = {"cltl": 0, "cltlplus": 0}
    for trial in range(150):
        n = rng.randint(1, 3)
        inst = random_instance(rng, n, rng.randint(2, 3), ["a", "b"],
                               identical=rng.random() < 0.7)
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], n,
                          bare_atoms=rng.random() < 0.5)
        if rng.random() < 0.2:
            mu = OAnd((mu, Tcp(IAtom("a"), 1, frozenset({0}))))
        tau = rng.choice([0, 0, 1])
        engine = cli._pick_engine(argparse.Namespace(engine="auto", tau=tau), inst, mu)
        try:
            build_cltl_problem(inst, mu, 2, tau)
            builds = True
        except EncodingError:
            builds = False
        assert (engine == "cltl") == builds, f"trial {trial}: tau={tau} {to_text(mu)}"
        picks[engine] += 1
    assert min(picks.values()) >= 30, picks


def test_cltl_engine_with_tau_is_usage_error(identical_model):
    code = run(["synth", "--model", identical_model, "--formula", "G F [b, 2]",
                "--horizon", "4", "--tau", "1", "--engine", "cltl"])
    assert code == 3


def test_external_solver_path(grid_model, tmp_path):
    out = tmp_path / "traj.json"
    stats = tmp_path / "stats.json"
    code = run(["synth", "--model", grid_model, "--formula", "F [A, 2]",
                "--horizon", "6", "--solver", "external",
                "--solver-cmd", LP_CLI, "--output", out, "--stats", stats])
    assert code == 0
    assert out.exists()
    assert json.loads(stats.read_text())["solver"] == {"solver": "external"}


@pytest.mark.parametrize("solver_cmd", ["no-such-solver-for-cltlsynth {lp} {sol}",
                                        "{lp} {sol}"],  # the LP file is not executable
                         ids=["missing", "not-executable"])
def test_external_solver_that_cannot_start_is_an_io_error(grid_model, capsys, solver_cmd):
    code = run(["synth", "--model", grid_model, "--formula", "F [A, 2]", "--horizon", "6",
                "--solver", "external", "--solver-cmd", solver_cmd])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error: external solver could not be started")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("solver_cmd, message", [
    ("cat", "--solver-cmd must contain an {lp} placeholder"),
    ("python3 'unclosed {lp}", "--solver-cmd cannot be split into words: No closing quotation"),
], ids=["no-placeholder", "bad-quoting"])
def test_a_solver_command_that_cannot_run_is_a_usage_error(tmp_path, capsys, solver_cmd,
                                                           message):
    # rejected before the model is read: there is no model file
    code = run(["synth", "--model", tmp_path / "nope.json", "--formula", "F [A, 2]",
                "--horizon", "6", "--solver", "external", "--solver-cmd", solver_cmd])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_external_solution_is_an_io_error(grid_model, capsys):
    junk = (f"{sys.executable} -c "
            "\"import sys; open(sys.argv[2], 'w').write('x 1 2\\n')\" {lp} {sol}")
    code = run(["synth", "--model", grid_model, "--formula", "F [A, 2]", "--horizon", "6",
                "--solver", "external", "--solver-cmd", junk])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "error: solution line 1: expected 'name value', got 'x 1 2'\n"


@pytest.mark.parametrize("script, sol", [
    ("open(sys.argv[2], 'wb').write(b'status feasible\\n\\xff 1\\n')", " {sol}"),
    ("sys.stdout.buffer.write(b'\\xff 1\\n')", ""),  # stdout is the solution
    ("sys.stderr.buffer.write(b'\\xff'); sys.exit(3)", " {sol}"),
], ids=["solution-file", "stdout", "stderr"])
def test_external_output_that_is_not_utf8_is_an_io_error(grid_model, capsys, script, sol):
    solver_cmd = f"{sys.executable} -c \"import sys; {script}\" {{lp}}{sol}"
    code = run(["synth", "--model", grid_model, "--formula", "F [A, 2]", "--horizon", "6",
                "--solver", "external", "--solver-cmd", solver_cmd])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_continuous_end_to_end(continuous_model, tmp_path):
    out = tmp_path / "traj.json"
    code = run(["synth", "--model", continuous_model, "--formula", "F [A, 2]",
                "--horizon", "4", "--output", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["type"] == "continuous"
    assert len(data["robots"][0]["inputs"]) == 4


def test_missing_model_is_io_error(tmp_path):
    code = run(["synth", "--model", tmp_path / "nope.json",
                "--formula", "true", "--horizon", "2"])
    assert code == 4


@pytest.mark.parametrize("payload, message", [
    ({"ap": ["a"], "robots": [{"states": ["s0", "s1"],
                               "transitions": [[0, 0.5], [1, 1], [0, 1]],
                               "labels": {"s1": ["a"]}, "init": 0}]},
     "robot 0: dangling transition (0, 0.5)"),
    ({"ap": ["a"], "grid": {"width": 2, "height": 1}, "robots": [{"init": [0, 0, 1]}]},
     "robot 0: initial cell must be an index or an [x, y] pair"),
    # once loaded as states false, true, true and reported "verified"
    ({"ap": ["a"], "robots": [{"states": ["s0", "s1"],
                               "transitions": [[0, True], [1, 1], [0, 0]],
                               "labels": {"s1": ["a"]}, "init": False}]},
     "robot 0: initial state must be a name or an index"),
    # once solved as a program HiGHS rejects, and reported "infeasible"
    ({"continuous": {"robots": [{"F": [[float("nan")]], "G": [[1.0]], "c": [0.0],
                                 "init": [0.0]}],
                     "atoms": {"a": {"H": [[1.0], [-1.0]], "h": [1.1, -0.9]}},
                     "state_bounds": [[-10.0, 10.0]], "input_bounds": [[-1.0, 1.0]]}},
     "robot 0: F must be finite"),
], ids=["non-integer-endpoint", "grid-init-length", "bool-init", "nan-F"])
def test_bad_model_is_a_one_line_io_error(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = run(["synth", "--model", path, "--formula", "F [a,1]", "--horizon", "2"])
    assert code == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_formula_is_usage_error(grid_model):
    code = run(["synth", "--model", grid_model, "--formula", "[A,",
                "--horizon", "2"])
    assert code == 3


@pytest.fixture
def mixed_model(tmp_path):
    """Two robots whose transition relations differ."""
    payload = {
        "ap": ["a", "b"],
        "robots": [
            {"states": ["s0", "s1"], "transitions": [[0, 0], [0, 1], [1, 1]],
             "labels": {"s0": ["a"], "s1": ["b"]}, "init": 0},
            {"states": ["s0", "s1"], "transitions": [[0, 0], [1, 0], [1, 1]],
             "labels": {"s0": ["a"], "s1": ["b"]}, "init": 0},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("model, extra, formula", [
    ("grid_model", ["--horizon", "5", "--horizon-max", "3"], "F [A, 2]"),
    ("grid_model", ["--horizon", "0"], "F [A, 2]"),
    ("grid_model", ["--horizon", "3"], "F [Z, 1]"),  # no proposition Z
    ("grid_model", ["--horizon", "3", "--tau", "-1"], "F [A, 2]"),
    ("mixed_model", ["--horizon", "3", "--engine", "cltl"], "G F [b, 1]"),
    ("grid_model", ["--horizon", "3", "--tau", "1", "--verify-max-t", "-1"], "F [A, 2]"),
    ("grid_model", ["--horizon", "3", "--tau", "1", "--verify-cap", "0"], "F [A, 2]"),
    ("grid_model", ["--horizon", "3", "--tau", "1", "--verify-cap", "-5"], "F [A, 2]"),
    ("grid_model", ["--horizon", "3", "--solver-cmd", "false {lp}"], "F [A, 2]"),
    ("continuous_model", ["--horizon", "3", "--collision", "excl"], "F [A, 2]"),
])
def test_bad_synth_input_is_a_one_line_usage_error(request, capsys, model, extra, formula):
    code = run(["synth", "--model", request.getfixturevalue(model), "--formula", formula,
                *extra])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "feasible" not in captured.out and "verified" not in captured.out


@pytest.mark.parametrize("formula, code, line", [
    ("[A, 3]", 4, "unknown: solver budget exhausted at h=1"),  # h = 2, 3 infeasible
    ("F [B, 2]", 0, "feasible at h=5"),
])
def test_sweep_with_an_unknown_horizon(grid_model, capsys, monkeypatch,
                                       formula, code, line):
    real = cli.solve_bnb
    calls = []

    def first_call_exhausts_its_budget(model, config=None):
        calls.append(model)
        if len(calls) == 1:
            return Solution("unknown", stats={"reason": "node budget"})
        return real(model, config)

    monkeypatch.setattr(cli, "solve_bnb", first_call_exhausts_its_budget)
    assert run(["synth", "--model", grid_model, "--formula", formula,
                "--horizon", "1", "--horizon-max", "3" if code else "8"]) == code
    assert line in capsys.readouterr().out


def test_export_lp_writes_the_last_program_of_the_sweep_once(grid_model, tmp_path,
                                                             monkeypatch):
    # [A, 3] asks for three robots on A with two in the fleet: all five
    # horizons are infeasible, and the file holds the h = 5 program
    real = cli.write_lp
    written = []

    def counting_write_lp(model, target):
        written.append(model)
        return real(model, target)

    monkeypatch.setattr(cli, "write_lp", counting_write_lp)
    lp = tmp_path / "model.lp"
    assert run(["synth", "--model", grid_model, "--formula", "[A, 3]",
                "--horizon", "1", "--horizon-max", "5", "--engine", "cltlplus",
                "--export-lp", lp]) == 1
    assert len(written) == 1
    expected = tmp_path / "expected.lp"
    real(build_sync_problem(load_model(grid_model), parse_formula("[A, 3]"), 5).model,
         expected)
    assert lp.read_text() == expected.read_text()


def test_an_infeasible_robust_sweep_with_a_synchronous_lasso_is_unknown(tmp_path, capsys):
    # The robust program is infeasible at every horizon, yet tau = 0 finds
    # a lasso at h = 2 that also survives one step of drift: robot 0 parks
    # on {p1, p2} and robot 1 alternates between {p1} and {}, so some
    # robot is off p1 at every step of every 1-bounded execution.  The one
    # proof solve is the tau = 0 program at the sweep's last horizon, 8.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"ap": ["p1", "p2"], "robots": [
        {"states": ["s0", "s1"], "transitions": [[0, 0], [1, 1]],
         "labels": {"s1": ["p1", "p2"]}, "init": 1},
        {"states": ["s0", "s1"], "transitions": [[0, 1], [1, 0]],
         "labels": {"s0": ["p1"]}, "init": 0}]}))
    sweep = ["synth", "--model", model, "--formula", "F [!p1, 1]",
             "--horizon", "1", "--horizon-max", "8"]
    assert run([*sweep, "--tau", "1"]) == 4
    out = capsys.readouterr().out
    assert out.startswith("unknown: ") and "tau=0 program is not infeasible at h=8" in out
    bundle = tmp_path / "traj.json"
    assert run([*sweep, "--tau", "0", "--output", bundle]) == 0
    assert "feasible at h=2" in capsys.readouterr().out
    assert run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "F [!p1, 1]", "--tau", "1"]) == 0
    assert "verified_bounded" in capsys.readouterr().out


@pytest.fixture
def two_cell_model(tmp_path):
    """Two robots on a 1x2 grid; only cell [0, 0], robot 0's start, is b."""
    payload = {"ap": ["b"], "grid": {"width": 2, "height": 1, "regions": {"b": [[0, 0]]}},
               "robots": [{"init": [0, 0]}, {"init": [1, 0]}]}
    path = tmp_path / "two_cell.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.filterwarnings("ignore:formula normalized to positive normal form")
@pytest.mark.parametrize("formula, extra", [
    # thresholds above the fleet size: [b,4] directly, and through negation
    # (!([b,0]) is [!b,3]) and the robust disjunction pool (threshold 4)
    ("[b,4]", ["--engine", "cltlplus"]),
    ("[b,4]", ["--engine", "cltl"]),
    ("[b,4]", ["--tau", "1"]),
    ("!([b,0]) | !([b,1])", ["--tau", "1"]),
])
def test_threshold_above_the_fleet_size_is_infeasible(two_cell_model, capsys,
                                                      formula, extra):
    code = run(["synth", "--model", two_cell_model, "--formula", formula,
                "--horizon", "2", *extra])
    assert code == 1
    assert "infeasible for h in [2, 2]" in capsys.readouterr().out


def test_continuous_model_rejects_a_named_group(continuous_model, capsys):
    # a continuous model defines no robot groups
    code = run(["synth", "--model", continuous_model, "--formula", "F [A,@g,1]",
                "--horizon", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: formula uses unknown groups: ['g']\n"
    assert "Traceback" not in captured.err


@pytest.fixture
def meeting_cell_model(tmp_path):
    """Two robots on a 2x1 grid; only cell [1, 0], robot 1's start, is A."""
    payload = {"ap": [], "grid": {"width": 2, "height": 1, "regions": {"A": [[1, 0]]}},
               "robots": [{"init": [0, 0]}, {"init": [1, 0]}]}
    path = tmp_path / "meeting_cell.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("engine", ["cltlplus", "cltl"])
@pytest.mark.parametrize("collision, code", [(None, 0), ("excl", 1), ("swap", 1)])
def test_collision_override_applies_to_every_discrete_engine(meeting_cell_model, capsys,
                                                             engine, collision, code):
    # [A, 2] needs both robots on the one A cell at once, which any
    # collision mode forbids
    extra = ["--collision", collision] if collision else []
    assert run(["synth", "--model", meeting_cell_model, "--formula", "F [A,2]",
                "--horizon", "2", "--horizon-max", "3", "--engine", engine,
                *extra]) == code
    out = capsys.readouterr().out
    assert ("infeasible for h in [2, 3]" in out) == (code == 1)


def test_collision_override_needs_a_shared_state_space(tmp_path, capsys):
    robot = {"transitions": [[0, 0]], "labels": {}, "init": 0}
    path = tmp_path / "two_spaces.json"
    path.write_text(json.dumps({"ap": ["a"], "robots": [{"states": ["s0"], **robot},
                                                        {"states": ["t0"], **robot}]}))
    code = run(["synth", "--model", path, "--formula", "F [a,1]", "--horizon", "2",
                "--collision", "excl"])
    assert code == 3
    assert capsys.readouterr().err == ("error: collision constraints require a "
                                       "shared state space\n")


def test_determinism_byte_identical_artifacts(grid_model, tmp_path):
    files = {}
    for tag in ("one", "two"):
        out = tmp_path / f"traj_{tag}.json"
        stats = tmp_path / f"stats_{tag}.json"
        lp = tmp_path / f"model_{tag}.lp"
        code = run(["synth", "--model", grid_model, "--formula", "F [A, 2]",
                    "--horizon", "5", "--seed", "7",
                    "--output", out, "--stats", stats, "--export-lp", lp])
        assert code == 0
        files[tag] = (out.read_bytes(), stats.read_bytes(), lp.read_bytes())
    assert files["one"] == files["two"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.fixture
def handover_bundle(tmp_path):
    """Three forced chains showing the disjunction handover."""
    payload = {
        "ap": ["p1", "p2"],
        "robots": [
            {"states": ["s0", "s1", "s2"], "transitions": [[0, 1], [1, 2], [2, 2]],
             "labels": {"s0": ["p1"], "s1": ["p1"], "s2": ["p1"]}, "init": 0},
            {"states": ["s0", "s1", "s2"], "transitions": [[0, 1], [1, 2], [2, 2]],
             "labels": {"s0": ["p1"], "s1": ["p2"], "s2": ["p2"]}, "init": 0},
            {"states": ["s0", "s1", "s2"], "transitions": [[0, 1], [1, 2], [2, 2]],
             "labels": {"s0": ["p2"], "s1": ["p2"], "s2": ["p2"]}, "init": 0},
        ],
    }
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(payload))
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({
        "type": "discrete", "h": 3, "tau": 1,
        "robots": [{"states": [0, 1, 2, 2], "loop_start": 2}] * 3,
    }))
    return model, traj


@pytest.mark.parametrize("formula, message", [
    ("", "unexpected end of input"),
    (".", "unexpected character '.'"),  # names the working directory
])
@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_a_formula_that_names_no_file_is_parsed_as_text(handover_bundle, capsys,
                                                        command, formula, message):
    model, traj = handover_bundle
    extra = (["--trajectories", traj, "--tau", "1"] if command == "simulate"
             else ["--horizon", "1"])
    assert run([command, "--model", model, "--formula", formula, *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_simulate_verified(handover_bundle, capsys):
    model, traj = handover_bundle
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2] | [p2, 2]", "--tau", "1", "--max-t", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified_bounded" in out


def test_simulate_falsified_prints_counterexample(handover_bundle, capsys):
    model, traj = handover_bundle
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2]", "--tau", "1", "--max-t", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "falsified" in out and "counterexample" in out


def test_simulate_synchronous_check(handover_bundle, capsys):
    model, traj = handover_bundle
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2]", "--tau", "0", "--max-t", "4"])
    assert code == 0  # synchronously the first two robots show p1 at t=0


def test_simulate_prints_the_per_anchor_table(handover_bundle, capsys):
    model, traj = handover_bundle
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2] | [p2, 2]", "--tau", "0", "--max-t", "5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict: verified (mode=synchronous, sequences=1, max_T=0)",
        "t  formula tcp0 tcp1",
        "0  sat     2/2 1/2",
        "1  sat     1/2 2/2",
        "2  sat     1/2 2/2",
    ]


def test_simulate_zero_step_budget(handover_bundle, capsys):
    model, traj = handover_bundle
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2]", "--tau", "1", "--max-t", "0"])
    assert code == 0
    assert "(mode=exhaustive, sequences=1, max_T=0)" in capsys.readouterr().out


def test_simulate_emit_frames(handover_bundle, tmp_path):
    model, traj = handover_bundle
    frames = tmp_path / "frames"
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2] | [p2, 2]", "--tau", "1",
                "--max-t", "4", "--emit-frames", frames])
    assert code == 0
    files = sorted(frames.iterdir())
    assert files and files[0].name == "frame_000.csv"
    first = files[0].read_text().splitlines()
    assert first[0].startswith("s0,3")


@pytest.mark.parametrize("command, flag", [
    ("synth", "--export-lp"), ("synth", "--stats"), ("synth", "--output"),
    ("simulate", "--emit-frames"),
])
def test_unwritable_output_is_a_one_line_io_error(grid_model, handover_bundle, tmp_path,
                                                  capsys, command, flag):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file, so no directory can be made below it
    if command == "synth":
        args = ["synth", "--model", grid_model, "--formula", "G F [A,1]", "--horizon", "6"]
    else:
        model, traj = handover_bundle
        args = ["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2] | [p2, 2]", "--tau", "1", "--max-t", "4"]
    code = run([*args, flag, blocker / "dir" / "out"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "feasible at" not in captured.out


def test_simulate_reports_a_window_past_the_cap_as_a_budget_error(tmp_path, capsys):
    # five cycles of distinct prime lengths: a joint period of 1.4e10 steps
    primes = (101, 103, 107, 109, 113)
    model, traj = tmp_path / "cycles.json", tmp_path / "cycles_traj.json"
    model.write_text(json.dumps({"ap": ["a"], "robots": [
        {"states": [f"s{i}" for i in range(p)],
         "transitions": [[i, (i + 1) % p] for i in range(p)],
         "labels": {"s0": ["a"]}, "init": 0} for p in primes]}))
    traj.write_text(json.dumps({"type": "discrete", "robots": [
        {"states": list(range(p)) + [0], "loop_start": 0} for p in primes]}))
    for tau in ("0", "1"):
        start = time.perf_counter()
        code = run(["simulate", "--model", model, "--trajectories", traj,
                    "--formula", "G F [a, 1]", "--tau", tau, "--max-t", "5"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error: the oracle window of ")
        assert captured.err.count("\n") == 1


ALTERNATING = {"states": ["s0", "s1"], "transitions": [[0, 1], [1, 0]],
               "labels": {"s1": ["A"]}, "init": 0}


def test_synth_and_simulate_agree_on_outer_next_at_tau_zero(tmp_path, capsys):
    # tau = 0 is the synchronous execution for both commands: a global
    # stutter step, where no counter moves, is none of its executions
    model, bundle = tmp_path / "alternating.json", tmp_path / "traj.json"
    model.write_text(json.dumps({"ap": ["A"], "robots": [ALTERNATING]}))
    assert run(["synth", "--model", model, "--formula", "X [A, 1]",
                "--horizon", "2", "--output", bundle]) == 0
    assert "oracle: verified (synchronous, 1 executions)" in capsys.readouterr().out
    assert run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "X [A, 1]", "--tau", "0"]) == 0
    assert capsys.readouterr().out.startswith(
        "verdict: verified (mode=synchronous, sequences=1, max_T=0)\n")


@pytest.mark.parametrize("tau", ["0", "1"])
def test_simulate_reports_collisions(tmp_path, capsys, tau):
    # two robots trade s0 and s1 at every step, which the swap mode forbids
    model, bundle = tmp_path / "swap.json", tmp_path / "traj.json"
    model.write_text(json.dumps({"ap": ["A"], "collision": "mutual_exclusion_plus_swap",
                                 "robots": [ALTERNATING, {**ALTERNATING, "init": 1}]}))
    bundle.write_text(json.dumps({"type": "discrete", "robots": [
        {"states": [0, 1, 0], "loop_start": 0}, {"states": [1, 0, 1], "loop_start": 0}]}))
    assert run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "G F [A, 1]", "--tau", tau]) == 1
    out = capsys.readouterr().out
    assert "falsified" not in out
    first = ("robots 0 and 1 swap at step 0" if tau == "0"
             else "robots 0 and 1 meet at step 0(+1)")  # one step of drift
    assert "collision check: " in out and f" violations, e.g. {first}\n" in out


def test_integrator_solve_is_not_a_numerical_error(tmp_path, capsys):
    # HiGHS used to miss its own polytope margin here by float rounding
    # and then fail outright ("Solve error", exit 4)
    interval = {"H": [[1.0], [-1.0]], "h": [0.1, 0.1]}
    model = tmp_path / "integrator.json"
    model.write_text(json.dumps({"continuous": {
        "robots": [{"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [1.0]}],
        "atoms": {"A": interval, "C": interval},
        "state_bounds": [[-3.0, 3.0]], "input_bounds": [[-1.0, 1.0]]}}))
    assert run(["synth", "--model", model, "--formula", "G F [A, 1] & G F [C, 1]",
                "--horizon", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "feasible at h=7 (engine=continuous, tau=0)",
        "oracle: verified (synchronous, 1 executions)"]


def test_simulate_invalid_budget(handover_bundle):
    model, traj = handover_bundle
    code = run(["simulate", "--model", model, "--trajectories", traj,
                "--formula", "[p1, 2]", "--tau", "-1"])
    assert code == 3


def _bundle(tmp_path, robots, kind="discrete"):
    path = tmp_path / "bad_traj.json"
    path.write_text(json.dumps({"type": kind, "h": 3, "tau": 1, "robots": robots}))
    return path


CHAIN_LASSO = {"states": [0, 1, 2, 2], "loop_start": 2}


# A bad flag is reported before the bundle and the formula are read, so the
# flag cases pair it with a formula that does not parse.
@pytest.mark.parametrize("robots, kind, formula, flags, message", [
    ([CHAIN_LASSO] * 3, "discrete", "[p1,", (), "expected"),
    ([{"states": [2, 0, 2, 2], "loop_start": 2}] * 3, "discrete", "[p1, 2]", (),
     "invalid transition at step 0: s2 -> s0"),
    ([{"states": [1, 2, 2, 2], "loop_start": 2}] * 3, "discrete", "[p1, 2]", (),
     "robot 0 starts at s1, not at its initial state s0"),
    ([CHAIN_LASSO] * 3, "discrete", "[p1, @ghost, 1]", (), "unknown robot group"),
    ([CHAIN_LASSO] * 3, "discrete", "[zz, 1]", (), "unknown propositions: ['zz']"),
    ([CHAIN_LASSO] * 3, "discrete", "[p1, @{5}, 1]", (), "group member out of range"),
    ([CHAIN_LASSO] * 2, "discrete", "[p1, 2]", (), "has 2 robots and the model 3"),
    ([{"inputs": [[0.0]], "states": [[0.0], [0.0]], "loop_start": 0}] * 3,
     "continuous", "[p1, 2]", (), "the model is discrete"),
    ([CHAIN_LASSO] * 3, "discrete", "[p1,", ("--tau", "-1"), "--tau must not be negative"),
    ([CHAIN_LASSO] * 3, "discrete", "[p1,", ("--enum-cap", "0"),
     "--enum-cap must be at least 1"),
    ([CHAIN_LASSO] * 3, "discrete", "[p1,", ("--max-t", "-2"),
     "--max-t must not be negative"),
], ids=["formula-syntax", "not-a-path", "wrong-start", "unknown-group", "unknown-atom",
        "group-index", "robot-count", "wrong-kind", "tau", "enum-cap", "max-t"])
def test_bad_simulate_input_is_a_one_line_usage_error(handover_bundle, tmp_path, capsys,
                                                      robots, kind, formula, flags, message):
    model, _ = handover_bundle
    code = run(["simulate", "--model", model,
                "--trajectories", _bundle(tmp_path, robots, kind),
                "--formula", formula, "--tau", "1", "--max-t", "3", *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "verdict" not in captured.out


STILL = {"states": ["s"], "transitions": [[0, 0]], "labels": {"s": ["A"]}, "init": 0}
CHAIN = {"states": ["a", "b", "c"], "transitions": [[0, 1], [1, 2], [2, 2]],
         "labels": {"c": ["A"]}, "init": 0}


@pytest.mark.parametrize("robots", [[STILL, CHAIN], [CHAIN, STILL]],
                         ids=["one-state-first", "three-states-first"])
def test_emit_frames_needs_a_shared_state_space(tmp_path, capsys, robots):
    # one state against three once ended in an IndexError traceback with
    # exit 1 after the verdict table; the other order counted robot 1's
    # states under robot 0's names
    model, bundle, frames = tmp_path / "fleet.json", tmp_path / "traj.json", tmp_path / "f"
    model.write_text(json.dumps({"ap": ["A"], "robots": robots}))
    lassos = {"s": {"states": [0, 0], "loop_start": 0},
              "a": {"states": [0, 1, 2, 2], "loop_start": 2}}
    bundle.write_text(json.dumps({"type": "discrete", "robots": [
        lassos[robot["states"][0]] for robot in robots]}))
    code = run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "F [A, 1]", "--emit-frames", frames])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: --emit-frames needs a shared state space, and robot 1's "
                            "states differ from robot 0's\n")
    assert not frames.exists()


def integrator_bundle(tmp_path, robots):
    """Two 1-D integrators w' = w + u / 2 from 0, both bounds [-1, 1], and
    a bundle of ``robots`` (inputs, states, loop start); robot 0 runs the
    valid lasso 0, 0.5, 0."""
    interval = {"H": [[1.0], [-1.0]], "h": [0.5, 0.5]}
    model, bundle = tmp_path / "integrators.json", tmp_path / "traj.json"
    model.write_text(json.dumps({"continuous": {
        "robots": [{"F": [[1.0]], "G": [[0.5]], "c": [0.0], "init": [0.0]}] * 2,
        "atoms": {"A": interval}, "state_bounds": [[-1.0, 1.0]],
        "input_bounds": [[-1.0, 1.0]]}}))
    valid = ([[1.0], [-1.0]], [[0.0], [0.5], [0.0]], 0)
    bundle.write_text(json.dumps({"type": "continuous", "robots": [
        {"inputs": u, "states": w, "loop_start": l} for u, w, l in [valid, *robots]]}))
    return model, bundle


@pytest.mark.parametrize("robot, message", [
    (([[0.0], [0.0]], [[0.0, 0.0]] * 3, 0),
     "states must have dimension 1 and inputs dimension 1"),
    (([[0.0]], [[0.0]] * 3, 0), "3 states for 1 inputs, where a run has one more"),
    (([[0.0], [0.0]], [[0.0]] * 3, 5), "loop start 5 is outside [0, 1]"),
    (([[0.0], [0.0]], [[0.5]] * 3, 0), "does not start at its initial state"),
    (([[5.0], [-5.0]], [[0.0]] * 3, 0), "states are not the ones its inputs drive it through"),
    (([[1.0]] * 3, [[0.0], [0.5], [1.0], [1.5]], 2), "a state is outside the state bounds"),
    (([[2.0], [-2.0]], [[0.0], [1.0], [0.0]], 0), "an input is outside the input bounds"),
    (([[1.0], [0.0]], [[0.0], [0.5], [0.5]], 0),
     "the lasso does not close: state 2 is not state 0"),
], ids=["dimension", "input-count", "loop-start", "start", "replay", "state-bounds",
        "input-bounds", "closure"])
def test_simulate_checks_a_continuous_bundle_against_the_model(tmp_path, capsys, robot,
                                                               message):
    # the dimension and loop-start cases ended in tracebacks with exit 1,
    # and the out-of-bounds inputs and the missing input were verified
    model, bundle = integrator_bundle(tmp_path, [robot])
    code = run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "G F [A, 1]"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: robot 1: {message}\n"


def test_simulate_reads_a_continuous_bundle_of_numbers_only(tmp_path, capsys):
    # an input that is no number was never read, and the bundle verified
    model, bundle = integrator_bundle(tmp_path, [([["x"], [0.0]], [[0.0]] * 3, 0)])
    assert run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "G F [A, 1]"]) == 4
    assert capsys.readouterr().err == "error: could not convert string to float: 'x'\n"


def test_simulate_accepts_a_continuous_lasso_within_the_tolerance(tmp_path, capsys):
    # the loop closes and the bounds hold within the recheck tolerance
    model, bundle = integrator_bundle(tmp_path, [([[1.0], [-1.0 + 1e-6]],
                                                  [[0.0], [0.5], [5e-7]], 0)])
    assert run(["simulate", "--model", model, "--trajectories", bundle,
                "--formula", "G F [A, 1]"]) == 0
    assert capsys.readouterr().out.startswith("verdict: verified")


# ---------------------------------------------------------------------------
# Exit-code contract under random input
# ---------------------------------------------------------------------------

def explicit_payload(inst):
    return {"ap": list(inst.systems[0].ap),
            "robots": [{"states": list(ts.states),
                        "transitions": [list(e) for e in sorted(ts.transitions)],
                        "labels": {s: sorted(l) for s, l in zip(ts.states, ts.labels)},
                        "init": init}
                       for ts, init in zip(inst.systems, inst.initial_states)]}


def sweep_has_lasso(inst, mu, h_lo, h_hi, tau):
    return any(brute_force_synth(inst, mu, h, tau=tau) is not None
               for h in range(h_lo, h_hi + 1))


@pytest.mark.filterwarnings("ignore")
def test_random_synth_runs_keep_the_exit_code_contract(tmp_path, capsys):
    # Exit 1 under cltlplus at tau = 0 claims the whole sweep is infeasible,
    # which exhaustive search must confirm; exit 0 at tau = 1 claims a
    # robust lasso, which exhaustive search must find too.
    rng = random.Random(11)
    path = tmp_path / "model.json"
    codes = {}
    for trial in range(200):
        n = rng.randint(1, 2)
        inst = random_instance(rng, n, rng.randint(2, 3), ["a", "b"],
                               identical=rng.random() < 0.5)
        # thresholds up to n + 1, one above the fleet size
        mu = random_outer(rng, rng.randint(1, 2), ["a", "b"], n + 1,
                          bare_atoms=rng.random() < 0.4)
        engine = rng.choice(["auto", "cltlplus", "cltl"])
        tau = rng.randint(0, 1)
        h_lo = rng.randint(1, 2)
        h_hi = h_lo + rng.randint(0, 1)
        path.write_text(json.dumps(explicit_payload(inst)))
        code = run(["synth", "--model", path, "--formula", to_text(mu),
                    "--horizon", h_lo, "--horizon-max", h_hi,
                    "--engine", engine, "--tau", tau])
        err = capsys.readouterr().err
        case = f"trial {trial}: {engine} tau={tau} h={h_lo}..{h_hi} {to_text(mu)}"
        assert "Traceback" not in err, case
        assert code in (0, 1, 3, 4), case
        if engine == "cltlplus" and tau == 0:
            assert (code == 1) == (not sweep_has_lasso(inst, mu, h_lo, h_hi, 0)), case
        if code == 0 and tau == 1:
            assert sweep_has_lasso(inst, mu, h_lo, h_hi, 1), case
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0, 0) >= 20 and codes.get(1, 0) >= 20, codes


def out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("step, target", [
    ("build", "BUILDERS"), ("solve", "solve_bnb"), ("extract", "extract_trajectories"),
    ("verify", "check_robust"),
])
def test_running_out_of_memory_names_the_step(grid_model, capsys, monkeypatch, step, target):
    if target == "BUILDERS":
        monkeypatch.setitem(cli.BUILDERS, "cltlplus", out_of_memory)
    else:
        monkeypatch.setattr(cli, target, out_of_memory)
    rc = main(["synth", "--model", str(grid_model), "--formula", "F [A, 1]",
               "--horizon", "3", "--engine", "cltlplus"])
    assert rc == 4
    assert capsys.readouterr().err == f"error: out of memory in the {step} step\n"


@pytest.mark.parametrize("command, target", [
    ("synth", "load_model"), ("synth", "parse_formula"), ("simulate", "load_model"),
    ("simulate", "_load_trajectories"), ("simulate", "parse_formula"),
])
def test_running_out_of_memory_while_loading_reaches_the_backstop(
        grid_model, tmp_path, capsys, monkeypatch, command, target):
    # the loaders' own handlers caught it and printed an empty "error: "
    # with exit 4 or, for the formula, the usage code 3
    lassos = tmp_path / "lassos.json"
    lassos.write_text(json.dumps({"type": "discrete", "robots": [
        {"states": [0, 0], "loop_start": 0}, {"states": [8, 8], "loop_start": 0}]}))
    monkeypatch.setattr(cli, target, out_of_memory)
    more = ["--horizon", "3"] if command == "synth" else ["--trajectories", str(lassos)]
    rc = main([command, "--model", str(grid_model), "--formula", "F [A, 1]", *more])
    assert rc == 4
    assert capsys.readouterr().err == "error: out of memory in the load step\n"


def test_simulate_running_out_of_memory_names_the_step(grid_model, tmp_path, capsys,
                                                       monkeypatch):
    lassos = tmp_path / "lassos.json"
    lassos.write_text(json.dumps({"type": "discrete", "robots": [
        {"states": [0, 0], "loop_start": 0}, {"states": [8, 8], "loop_start": 0}]}))
    monkeypatch.setattr(cli, "check_robust", out_of_memory)
    rc = main(["simulate", "--model", str(grid_model), "--trajectories", str(lassos),
               "--formula", "F [A, 1]"])
    assert rc == 4
    assert capsys.readouterr().err == "error: out of memory in the verify step\n"
