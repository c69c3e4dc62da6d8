"""Checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import pipeline  # noqa: E402
from cltlsynth import cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def child_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))


def write_model(tmp_path, inst, k=0):
    path = tmp_path / f"model_{k}.json"
    path.write_text(json.dumps(inst.model))
    return path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_are_the_same_every_time(name):
    first = [dataclasses.asdict(i) for i in WORKLOADS[name].make()]
    assert first == [dataclasses.asdict(i) for i in WORKLOADS[name].make()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_planted_witness_passes_the_oracle(name, tmp_path):
    for k, inst in enumerate(WORKLOADS[name].make()):
        pipeline.check_witness(inst, write_model(tmp_path, inst, k))


def test_a_wrong_witness_is_rejected(tmp_path):
    inst = WORKLOADS["ladder-bnb"].make()[0]
    path = write_model(tmp_path, inst)
    inst.formula = "G !([A, 1])"  # the witness visits A by construction
    with pytest.raises(ValueError, match="oracle rejects"):
        pipeline.check_witness(inst, path)


def cli_synth(inst, path, workload, capsys):
    argv = ["synth", "--model", str(path), "--formula", inst.formula,
            "--horizon", str(inst.h_lo), "--horizon-max", str(inst.h_w),
            "--engine", inst.engine, "--tau", str(inst.tau)]
    if workload.solver == "external":
        argv += ["--solver", "external", "--solver-cmd", pipeline.LP_CLI]
    code = cli.main(argv)
    out = capsys.readouterr().out
    found = re.search(r"feasible at h=(\d+)", out)
    return code, int(found.group(1)) if found else None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_matches_the_cli(name, tmp_path, capsys):
    """On an easy operation the benchmark's pipeline and ``cltlsynth synth``
    end with the same exit code at the same horizon."""
    workload = WORKLOADS[name]
    inst = workload.make()[0]
    path = write_model(tmp_path, inst)
    record = pipeline.run_operation(inst, path, workload, Tracer(), 0)
    assert record["outcome"] == "verified", record
    assert cli_synth(inst, path, workload, capsys) == (0, record["attempts"][-1]["h"])


@pytest.mark.parametrize("name, seconds", [("ladder-bnb", 0.05), ("emergency-lp", 1.0)])
def test_deadline_stops_the_operation_and_its_child(name, seconds, tmp_path):
    """The emergency deadline falls while the LP-file solver child runs."""
    workload = dataclasses.replace(WORKLOADS[name], deadline_s=seconds)
    inst = workload.make()[-1]
    record = pipeline.run_operation(inst, write_model(tmp_path, inst), workload,
                                    Tracer(), 0)
    assert record["outcome"] == "deadline"
    assert record["latency_s"] < 5
    with pytest.raises(ChildProcessError):  # no solver child left behind
        os.waitpid(-1, os.WNOHANG)


def test_solver_budget_counts_as_unknown(tmp_path):
    base = WORKLOADS["ladder-bnb"]
    workload = dataclasses.replace(base, node_budget=1, deadline_s=30.0)
    insts = [i for i in base.make() if i.model.get("collision") == "mutual_exclusion"]
    records = [pipeline.run_operation(i, write_model(tmp_path, i, k), workload,
                                      Tracer(), k) for k, i in enumerate(insts[:4])]
    assert "solver_unknown" in {r["outcome"] for r in records}
    for r in records:
        assert r["outcome"] in ("verified", "solver_unknown")


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.enabled = True
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, outer_self), (inner, inner_self) = tracer.self_times(7)
    assert outer.name == "outer" and inner.parent == 0
    assert inner_self == pytest.approx(inner.end - inner.start)
    assert outer_self == pytest.approx(outer.end - outer.start - inner_self)
    tracer.enabled = False
    with tracer.span("ignored"):
        pass
    assert len(tracer.spans) == 2
