"""One synthesis operation, the way ``cltlsynth synth`` runs it.

The steps follow ``cli.run_synth``: load the model, parse the formula,
then for each horizon of the sweep build the program and solve it until a
horizon is feasible; extract the lassos, check them with the oracle and
the collision checker.  Unlike the CLI, the bundled solver gets a node
budget and the whole operation a deadline, both taken from the workload.

Each operation returns a run record: one ``attempts`` entry per horizon
(build and solve time, status, solver counters, model size by tag), the
extract and verify times, the verdict mode and execution count, the
collision count, the latency and the outcome.
"""

from __future__ import annotations

import contextlib
import math
import shlex
import signal
import sys
import time
from pathlib import Path

from cltlsynth import solver
from cltlsynth.cli import collision_violations
from cltlsynth.encoder_continuous import (build_cont_problem, extract_continuous,
                                          membership_trace)
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem, extract_trajectories
from cltlsynth.formula import parse_formula, resolve_groups
from cltlsynth.oracle import CollectiveExecution, Lasso, check_robust, eval_outer
from cltlsynth.solver import SolveConfig, solve_bnb, solve_external
from cltlsynth.system import load_model
from cltlsynth.trajectory import ContinuousTrajectory, LassoTrajectory

from tracing import Tracer
from workloads import Instance, Workload

VERIFY_CAP = 20000  # the CLI's --verify-cap default
LP_CLI = f"{shlex.quote(sys.executable)} -m cltlsynth.lp_cli {{lp}} {{sol}}"


class OperationDeadline(BaseException):
    """Raised from SIGALRM when an operation overruns its deadline.  It is
    not an ``Exception`` so no handler inside the package can swallow it;
    ``subprocess.run`` kills and reaps its child when it passes through."""


@contextlib.contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise OperationDeadline()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def traced_lp_writes(tracer: Tracer):
    """Time ``write_lp`` inside ``solve_external`` as the lp_format layer by
    wrapping the name the solver module calls; restored on exit."""
    real = solver.write_lp

    def write_lp(model, target):
        with tracer.span("lp_format") as span:
            names = real(model, target)
        span.attrs["bytes"] = Path(target).stat().st_size
        return names

    solver.write_lp = write_lp
    try:
        yield
    finally:
        solver.write_lp = real


def _model_size(model) -> dict:
    meta = model.metadata()
    return {"rows": meta["total_constraints"], "vars": meta["total_variables"],
            "nnz": sum(len(c.expr.coeffs) for c in model.constraints),
            "rows_by_tag": meta["constraints"], "vars_by_tag": meta["variables"]}


def run_operation(inst: Instance, model_path: Path, workload: Workload,
                  tracer: Tracer, op: int) -> dict:
    """Run one synthesis request and classify how it ended."""
    record = {"op": op, "instance": inst.name, "engine": inst.engine, "tau": inst.tau,
              "witness_h": inst.h_w, "attempts": [], "traced": tracer.enabled}
    tracer.op = op
    start = time.perf_counter()
    try:
        with deadline(workload.deadline_s), tracer.span("synth"):
            record["outcome"] = _synth(inst, model_path, workload, tracer, record)
    except OperationDeadline:
        record["outcome"] = "deadline"
    except Exception as exc:  # any package error ends this operation only
        record["outcome"] = "exception"
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["latency_s"] = time.perf_counter() - start
    return record


def _synth(inst: Instance, model_path: Path, workload: Workload, tracer: Tracer,
           record: dict) -> str:
    with tracer.span("system"):
        model_obj = load_model(model_path)
    with tracer.span("formula"):
        mu = parse_formula(inst.formula)

    def build(h: int):
        if inst.engine == "continuous":
            return build_cont_problem(model_obj, mu, h, tau=inst.tau)
        if inst.tau > 0:
            return build_robust_problem(model_obj, mu, h, inst.tau)
        return build_sync_problem(model_obj, mu, h)

    def solve(model):
        if workload.solver == "external":
            return solve_external(model, LP_CLI)
        return solve_bnb(model, SolveConfig(node_budget=workload.node_budget))

    sol = problem = None
    for h in range(inst.h_lo, inst.h_w + 1):
        t0 = time.perf_counter()
        with tracer.span("encode"):
            problem = build(h)
        t1 = time.perf_counter()
        with tracer.span("solver") as span:
            sol = solve(problem.model)
        t2 = time.perf_counter()
        if span is not None:
            span.attrs["status"] = sol.status
        record["attempts"].append({
            "h": h, "build_s": t1 - t0, "solve_s": t2 - t1, "status": sol.status,
            "nodes": sol.stats.get("nodes", 0), "lp_calls": sol.stats.get("lp_calls", 0),
            **_model_size(problem.model)})
        if sol.feasible:
            break
    if sol.status == "unknown":
        return "solver_unknown"
    if not sol.feasible:
        record["wrong"] = "infeasible_at_witness"
        return "wrong_verdict"

    t0 = time.perf_counter()
    with tracer.span("extract"):
        if problem.engine == "continuous":
            trajs = extract_continuous(problem, sol)
            lassos = [Lasso(membership_trace(model_obj, t), t.loop_start) for t in trajs]
        else:
            trajs = extract_trajectories(problem.layout, sol)
            lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, model_obj.systems)]
    periods = [l.period for l in lassos]
    record["extract"] = {"s": time.perf_counter() - t0, "max_period": max(periods),
                         "joint_period": math.lcm(*periods)}

    t0 = time.perf_counter()
    with tracer.span("oracle"):
        resolved = resolve_groups(mu, getattr(model_obj, "groups", {}))
        if inst.tau == 0:
            ok = eval_outer(lassos, CollectiveExecution.synchronous(len(lassos)), 0,
                            resolved)
            verdict = {"mode": "synchronous", "executions": 1, "evaluations": 1}
        else:
            result = check_robust(lassos, resolved, inst.tau, enumeration_cap=VERIFY_CAP)
            ok = not result.falsified
            verdict = {"mode": result.stats["mode"],
                       "executions": result.stats["sequences"],
                       "evaluations": result.stats["evaluations"]}
    record["verify"] = {"s": time.perf_counter() - t0, "ok": ok, **verdict}

    collide = []
    if problem.engine != "continuous":
        with tracer.span("collision"):
            collide = collision_violations(trajs, model_obj.collision_mode, inst.tau)
    record["collisions"] = len(collide)
    if ok and not collide:
        return "verified"
    record["wrong"] = "unsound"
    return "wrong_verdict"


# ---------------------------------------------------------------------------
# Witness checks
# ---------------------------------------------------------------------------

def check_witness(inst: Instance, model_path: Path) -> None:
    """Raise unless the instance's witness is a valid lasso of its model
    that the oracle and the collision checker accept at ``h_w``."""
    model_obj = load_model(model_path)
    mu = resolve_groups(parse_formula(inst.formula),
                        getattr(model_obj, "groups", {}))
    if inst.engine == "continuous":
        trajs = [ContinuousTrajectory(tuple(map(tuple, w["inputs"])),
                                      tuple(map(tuple, w["states"])), w["loop_start"])
                 for w in inst.witness]
        for traj, dyn in zip(trajs, model_obj.dynamics):
            if abs(traj.replay(dyn) - [list(s) for s in traj.states]).max() > 1e-9:
                raise ValueError(f"{inst.name}: witness does not follow the dynamics")
        lassos = [Lasso(membership_trace(model_obj, t), t.loop_start) for t in trajs]
    else:
        trajs = [LassoTrajectory(tuple(w["states"]), w["loop_start"])
                 for w in inst.witness]
        for traj, ts in zip(trajs, model_obj.systems):
            problems = traj.validate_against(ts)
            if problems:
                raise ValueError(f"{inst.name}: witness is not a path: {problems[0]}")
        if collision_violations(trajs, model_obj.collision_mode, inst.tau):
            raise ValueError(f"{inst.name}: witness robots collide")
        lassos = [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, model_obj.systems)]
    if any(l.horizon != inst.h_w for l in lassos):
        raise ValueError(f"{inst.name}: witness horizon differs from h_w")
    if inst.tau == 0:
        ok = eval_outer(lassos, CollectiveExecution.synchronous(len(lassos)), 0, mu)
    else:
        ok = not check_robust(lassos, mu, inst.tau, enumeration_cap=VERIFY_CAP).falsified
    if not ok:
        raise ValueError(f"{inst.name}: the oracle rejects the witness")
