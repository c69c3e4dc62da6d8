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
import resource
import shlex
import subprocess
import sys

import pytest

CAP = 2 << 30  # bytes of address space per child
TIMEOUT = 120  # seconds per child


def _cap() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def cltlsynth(*args, env=None) -> subprocess.CompletedProcess:
    """Run the CLI with ``args`` in a capped child; check the contract."""
    proc = subprocess.run([sys.executable, "-m", "cltlsynth.cli", *map(str, args)],
                          capture_output=True, text=True, preexec_fn=_cap,
                          timeout=TIMEOUT, env=env)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode in {0, 1, 2, 3, 4}, proc.stderr
    return proc


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
