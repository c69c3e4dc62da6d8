"""``cltlsynth synth`` and ``simulate`` as child processes under an
address-space cap and a timeout.

Every child runs with ``RLIMIT_AS`` at 2 GiB (set in ``preexec_fn``, so
only the child is capped) and must end within its timeout with an exit
code of the CLI's contract (0 to 4) and no Python traceback on stderr:
a crash that the in-process tests would see only as an exception, or a
fleet whose check runs out of memory, fails here.
"""

import json
import os
import random
import resource
import shlex
import subprocess
import sys

import pytest

from cltlsynth.formula import parse_formula
from cltlsynth.oracle import Lasso, brute_force_synth, check_robust
from cltlsynth.system import load_model
from cltlsynth.trajectory import LassoTrajectory

CAP = 2 << 30  # bytes of address space per child
TIMEOUT = 120  # seconds per child


def _cap() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def _contract(proc: subprocess.CompletedProcess) -> subprocess.CompletedProcess:
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode in {0, 1, 2, 3, 4}, proc.stderr
    return proc


def cltlsynth(*args, env=None) -> subprocess.CompletedProcess:
    """Run the CLI with ``args`` in a capped child; check the contract."""
    return _contract(subprocess.run([sys.executable, "-m", "cltlsynth.cli", *map(str, args)],
                                    capture_output=True, text=True, preexec_fn=_cap,
                                    timeout=TIMEOUT, env=env))


def cltlsynth_runs(runs: list[list]) -> list[subprocess.CompletedProcess]:
    """``cltlsynth`` for each argument list, two capped children at a time."""
    done = []
    for k in range(0, len(runs), 2):
        batch = [subprocess.Popen([sys.executable, "-m", "cltlsynth.cli", *map(str, args)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  preexec_fn=_cap) for args in runs[k:k + 2]]
        for proc in batch:
            out, err = proc.communicate(timeout=TIMEOUT)
            done.append(_contract(subprocess.CompletedProcess(proc.args, proc.returncode,
                                                              out, err)))
    return done


def aggregate_n(n: int) -> dict:
    """The 8x8 grid with a wall D at x = 4 (gaps at y = 3, 4), A at
    x in {0, 1} and C at x in {6, 7} for y in [2, 5]; robot i starts at
    (i mod 4, (i div 4) mod 8)."""
    regions = {"A": [[x, y] for x in (0, 1) for y in range(2, 6)],
               "C": [[x, y] for x in (6, 7) for y in range(2, 6)],
               "D": [[4, y] for y in (0, 1, 2, 5, 6, 7)]}
    return {"ap": [], "grid": {"width": 8, "height": 8, "regions": regions},
            "robots": [{"init": [i % 4, (i // 4) % 8]} for i in range(n)]}


def test_a_fleet_of_30_is_synthesized_and_verified(tmp_path):
    # the synchronous check of 30 robots once built all 2^30 increment
    # vectors and ended in a MemoryError traceback with exit 1
    model, out = tmp_path / "fleet.json", tmp_path / "lassos.json"
    model.write_text(json.dumps(aggregate_n(30)))
    formula = "G !([D,1]) & G F [A,10] & G F [C,10]"
    proc = cltlsynth("synth", "--model", model, "--formula", formula, "--horizon", 12,
                     "--engine", "cltlplus", "--output", out)
    assert proc.returncode == 0
    assert "oracle: verified (synchronous" in proc.stdout
    proc = cltlsynth("simulate", "--model", model, "--trajectories", out,
                     "--formula", formula)
    assert proc.returncode == 0


def test_a_fleet_of_24_is_checked_at_tau_1(tmp_path):
    # the sampled check at tau >= 1 once drew from a table of all 2^24
    # increment vectors per offset vector: a MemoryError traceback, exit 1
    robot = {"states": ["s0", "s1"], "transitions": [[0, 1], [1, 0]],
             "labels": {"s1": ["a"]}, "init": 0}
    model, lassos = tmp_path / "fleet.json", tmp_path / "lassos.json"
    model.write_text(json.dumps({"ap": ["a"], "robots": [robot] * 24}))
    lassos.write_text(json.dumps({"type": "discrete", "robots": [
        {"states": [0, 1, 0], "loop_start": 0}] * 24}))
    proc = cltlsynth("simulate", "--model", model, "--trajectories", lassos,
                     "--formula", "G F [a, 1]", "--tau", 1)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict: verified_bounded (mode=sampled, sequences=20000")


ROBOT = {"states": ["s0", "s1"], "transitions": [[0, 1], [1, 1]],
         "labels": {"s1": ["A"]}, "init": 0}


@pytest.mark.parametrize("field, value", [
    ("labels", [["A"], []]), ("labels", {"s1": "A"}), ("transitions", 5), ("states", "s0"),
], ids=["labels-list", "label-string", "transitions-number", "states-string"])
@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_a_mistyped_model_field_is_named(tmp_path, command, field, value):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps({"ap": ["A"], "robots": [{**ROBOT, field: value}]}))
    lassos = tmp_path / "lassos.json"
    lassos.write_text(json.dumps([{"states": [0, 1, 1], "loop_start": 1}]))
    more = ["--horizon", 2] if command == "synth" else ["--trajectories", lassos]
    proc = cltlsynth(command, "--model", model, "--formula", "F [A, 1]", *more)
    assert proc.returncode == 4
    assert proc.stderr.startswith(f"error: robot 0: '{field}' must ")


def test_an_external_solve_in_a_temporary_directory_with_a_space(tmp_path):
    spaced = tmp_path / "tmp dir 'q"
    spaced.mkdir()
    model = tmp_path / "one.json"
    model.write_text(json.dumps({"ap": ["A"], "robots": [ROBOT]}))
    env = {**os.environ, "TMPDIR": str(spaced)}
    proc = cltlsynth("synth", "--model", model, "--formula", "F [A, 1]", "--horizon", 2,
                     "--solver", "external", "--solver-cmd",
                     f"{shlex.quote(sys.executable)} -m cltlsynth.lp_cli {{lp}} {{sol}}",
                     env=env)
    assert proc.returncode == 0, proc.stderr
    assert "oracle: verified" in proc.stdout


GRID = 3  # the seeded fleets' grid is GRID x GRID
MOVES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))  # stay put or a 4-neighbour


def planted_fleet(n: int) -> tuple[dict, list[list[list[int]]], str]:
    """A seeded fleet of n robots on the grid, one planted lasso per
    robot and a formula the lassos satisfy at h = 3 for tau 0 and 1: each
    robot walks two seeded steps, then stays (loop start 2), so
    ``G F [A, n]`` holds with A the cells they stay at, and ``G !([B, 1])``
    with B the cells no robot visits.  Robot 0 of a one-robot fleet starts
    at the corner (0, 0)."""
    rng = random.Random(f"capped:{n}")
    starts = [[0, 0]] if n == 1 else [[rng.randrange(GRID), rng.randrange(GRID)]
                                      for _ in range(n)]
    paths = []
    for cell in starts:
        path = [cell]
        for _ in range(2):
            x, y = path[-1]
            path.append(rng.choice([[x + dx, y + dy] for dx, dy in MOVES
                                    if 0 <= x + dx < GRID and 0 <= y + dy < GRID]))
        paths.append(path + [path[-1]])
    regions = {"A": sorted({tuple(p[-1]) for p in paths}),
               "B": sorted({(x, y) for x in range(GRID) for y in range(GRID)}
                           - {tuple(c) for p in paths for c in p}),
               "C": [(GRID - 1, GRID - 1)]}
    formula = f"G F [A, {n}]" + (" & G !([B, 1])" if regions["B"] else "")
    model = {"ap": ["A", "B", "C"],
             "grid": {"width": GRID, "height": GRID,
                      "regions": {k: [list(c) for c in v] for k, v in regions.items() if v}},
             "robots": [{"init": c} for c in starts]}
    return model, paths, formula


@pytest.mark.filterwarnings("ignore")
def test_seeded_fleets_keep_the_exit_code_contract(tmp_path):
    """Fleets of 1, 8 and 30 robots with ``--engine auto`` and
    ``cltlplus`` at tau 0 and 1, ``--stats`` on, swept over h = 1 .. 3:
    the planted lassos pass the oracle, so ``synth`` exits 0 with a
    verified oracle line.  The one-robot fleet also asks to reach the far
    corner C, four moves away, which no sweep horizon allows: exit 1, and
    brute force finds no lasso either."""
    runs, cases = [], []
    for n in (1, 8, 30):
        model, paths, formula = planted_fleet(n)
        path = tmp_path / f"fleet{n}.json"
        path.write_text(json.dumps(model))
        inst = load_model(path)
        lassos = [Lasso.from_trajectory(LassoTrajectory(
            tuple(y * GRID + x for x, y in p), 2), inst.systems[0]) for p in paths]
        asks = [(formula, True)] + [("F [C, 1]", False)] * (n == 1)
        for (text, planted), tau in [(a, t) for a in asks for t in (0, 1)]:
            mu = parse_formula(text)
            if planted:  # a sample of the executions at tau 1 keeps this quick
                assert not check_robust(lassos, mu, tau, enumeration_cap=1000).falsified
            else:
                assert all(brute_force_synth(inst, mu, h, tau) is None for h in (1, 2, 3))
            for engine in ("auto", "cltlplus"):
                stats = tmp_path / f"stats{len(runs)}.json"
                runs.append(["synth", "--model", path, "--formula", text, "--horizon", 1,
                             "--horizon-max", 3, "--engine", engine, "--tau", tau,
                             "--stats", stats])
                cases.append((n, text, engine, tau, planted, stats))
    for proc, (n, text, engine, tau, planted, stats) in zip(cltlsynth_runs(runs), cases):
        case = f"{n} robots, {text}, --engine {engine}, tau {tau}: {proc.stdout}{proc.stderr}"
        assert proc.returncode == (0 if planted else 1), case
        assert ("oracle: verified" in proc.stdout) == planted, case
        assert json.loads(stats.read_text())["tau"] == tau, case
