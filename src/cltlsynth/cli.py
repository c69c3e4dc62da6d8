"""Command-line entry point.

``cltlsynth synth``     build + solve + extract + verify, writing artifacts
``cltlsynth simulate``  replay a trajectory bundle against a formula under
                        bounded asynchrony and report a verdict

``--engine auto`` picks ``continuous`` on a continuous model, else ``cltl``
exactly where ``encoder_cltl.cltl_obstacle`` finds no reason against the
aggregate engine, and ``cltlplus`` everywhere else.

Both verify with ``oracle.check_robust`` at ``--tau`` and, on a discrete
model, the collision checker.  tau = 0 is the synchronous execution alone,
so the search flags (``--verify-max-t``, ``--verify-cap``, ``--max-t``,
``--enum-cap``, ``--seed``) change nothing there.

Exit codes for synth: 0 feasible and verified, 1 every horizon of the
sweep proven infeasible, 2 feasible but rejected by the oracle or the
collision checker (encoder bug sentinel), 3 usage errors (among them
``--solver-cmd`` without ``--solver external``, without an ``{lp}``
placeholder or with quoting ``shlex.split`` cannot parse, ``--collision``
on a continuous model, and an engine that does not apply), 4 I/O or budget
problems (a sweep with no feasible horizon and at least one unknown one,
or a verification window past ``oracle.WINDOW_CAP``) and unsettled robust
sweeps.  The robust encoding is conservative, so at tau >= 1 an
infeasible sweep proves nothing by itself.  A tau = 0 lasso at h unrolls
to one at h + 1 with the same word, so one proof solve of the engine's
tau = 0 program at the sweep's last horizon settles it: exit 1 when that
program is infeasible, 4 with an ``unknown:`` line otherwise.  simulate
exits 0 verified without collisions, 1 falsified or colliding, 3 and 4 as
synth.  As a backstop, a ``MemoryError`` from either command exits 4 with
one ``error:`` line that names the step it hit (``args.step``: load,
build, solve, extract or verify) in place of a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .formula import iter_tcps, parse_formula, resolve_groups
from .ilp import Solution
from .lp_format import write_lp
from .oracle import (CollectiveExecution, CollectionOracle, Lasso,
                     VerificationBudgetError, check_robust, collision_violations)
from .solver import SolverError, solve_bnb, solve_external, solver_words
from .system import (COLLISION_ALIASES, ContinuousSystem, ModelError,
                     MultiRobotInstance, load_model)
from .encoder_cltl import build_cltl_problem, cltl_obstacle, decompose_flows
from .encoder_continuous import (build_cont_problem, extract_continuous,
                                 membership_trace)
from .encoder_robust import build_robust_problem
from .encoder_sync import EncodingError, check_formula, extract_trajectories
from .trajectory import ContinuousTrajectory, LassoTrajectory

# engine -> builder; every builder takes (model, formula, h, tau)
BUILDERS = {"cltlplus": build_robust_problem, "cltl": build_cltl_problem,
            "continuous": build_cont_problem}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with exit 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cltlsynth",
                     description="Multirobot trajectory synthesis from counting "
                                 "temporal logic")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize trajectories")
    synth.add_argument("--model", required=True, help="model JSON file")
    synth.add_argument("--formula", required=True,
                       help="formula file, or the formula text itself")
    synth.add_argument("--horizon", type=int, required=True)
    synth.add_argument("--horizon-max", type=int, default=None,
                       help="sweep horizons up to this bound until feasible")
    synth.add_argument("--tau", type=int, default=0,
                       help="asynchrony bound (0 = synchronous)")
    synth.add_argument("--engine", choices=("auto", "cltlplus", "cltl", "continuous"),
                       default="auto")
    synth.add_argument("--solver", choices=("bundled", "external"), default="bundled",
                       help="bundled: HiGHS in process; external: --solver-cmd")
    synth.add_argument("--solver-cmd", default=None,
                       help="external solver template with {lp} and {sol}")
    synth.add_argument("--export-lp", default=None, metavar="PATH")
    synth.add_argument("--seed", type=int, default=0,
                       help="seed for the sampled robustness check")
    synth.add_argument("--collision", choices=tuple(COLLISION_ALIASES), default=None,
                       help="override the model's collision mode")
    synth.add_argument("--output", default=None, metavar="PATH",
                       help="trajectory JSON output")
    synth.add_argument("--stats", default=None, metavar="PATH",
                       help="encoding and solver statistics JSON output")
    synth.add_argument("--verify-max-t", type=int, default=None)
    synth.add_argument("--verify-cap", type=int, default=20000)

    sim = sub.add_parser("simulate", help="verify a trajectory bundle")
    sim.add_argument("--model", required=True)
    sim.add_argument("--trajectories", required=True)
    sim.add_argument("--formula", required=True)
    sim.add_argument("--tau", type=int, default=0,
                     help="asynchrony bound (0 = synchronous)")
    sim.add_argument("--max-t", type=int, default=None)
    sim.add_argument("--enum-cap", type=int, default=20000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--emit-frames", default=None, metavar="DIR")
    return parser


def _read_formula(arg: str):
    """The formula in the file ``arg`` names, or ``arg`` itself when it
    names no file (a directory, such as ``''`` or ``.``, is formula text)."""
    path = Path(arg)
    if path.is_file():
        return parse_formula(path.read_text())
    return parse_formula(arg)


def _pick_engine(args, model_obj, mu) -> str:
    if isinstance(model_obj, ContinuousSystem):
        if args.engine not in ("auto", "continuous"):
            print(f"error: continuous models need --engine continuous, not "
                  f"{args.engine}", file=sys.stderr)
            raise SystemExit(3)
        return "continuous"
    if args.engine == "continuous":
        print("error: --engine continuous needs a continuous model", file=sys.stderr)
        raise SystemExit(3)
    if args.engine != "auto":
        return args.engine
    return "cltlplus" if cltl_obstacle(model_obj, mu, args.tau) else "cltl"


def _lassos(model_obj, trajs) -> list[Lasso]:
    """The labeled lassos of a trajectory bundle of the model."""
    if isinstance(model_obj, ContinuousSystem):
        return [Lasso(membership_trace(model_obj, t), t.loop_start) for t in trajs]
    return [Lasso.from_trajectory(t, ts) for t, ts in zip(trajs, model_obj.systems)]


def _collisions(model_obj, trajs, tau: int) -> list[str]:
    """The collision checker's findings; a continuous model has none."""
    if isinstance(model_obj, MultiRobotInstance):
        return collision_violations(trajs, model_obj.collision_mode, tau)
    return []


def _write_json(path: str, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _trajectory_payload(problem, trajs) -> dict:
    if problem.engine == "continuous":
        robots = [{"inputs": [list(u) for u in t.inputs],
                   "states": [list(w) for w in t.states],
                   "loop_start": t.loop_start} for t in trajs]
    else:
        robots = [{"states": list(t.states), "loop_start": t.loop_start}
                  for t in trajs]
    return {"type": problem.engine if problem.engine == "continuous" else "discrete",
            "h": problem.h, "tau": problem.tau, "robots": robots}


def _bad_synth_args(args) -> str:
    """Why the synth arguments cannot describe a sweep; empty if they can."""
    if args.horizon < 1:
        return "--horizon must be at least 1"
    if args.horizon_max is not None and args.horizon_max < args.horizon:
        return "--horizon-max must not be below --horizon"
    if args.tau < 0:
        return "--tau must not be negative"
    if args.verify_max_t is not None and args.verify_max_t < 0:
        return "--verify-max-t must not be negative"
    if args.verify_cap < 1:
        return "--verify-cap must be at least 1"
    if args.solver == "external" and not args.solver_cmd:
        return "--solver external needs --solver-cmd"
    if args.solver_cmd is not None and args.solver != "external":
        return "--solver-cmd needs --solver external"
    if args.solver_cmd is not None:
        try:
            solver_words(args.solver_cmd)
        except ValueError as exc:
            return f"--solver-cmd {exc}"
    return ""


def run_synth(args) -> int:
    bad = _bad_synth_args(args)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 3
    try:
        model_obj = load_model(args.model)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        mu = _read_formula(args.formula)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    engine = _pick_engine(args, model_obj, mu)
    if args.collision:
        if isinstance(model_obj, ContinuousSystem):
            print("error: --collision needs a discrete model", file=sys.stderr)
            return 3
        try:
            model_obj = dataclasses.replace(
                model_obj, collision_mode=COLLISION_ALIASES[args.collision])
        except ModelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    build = BUILDERS[engine]

    def solve(model) -> Solution:
        if args.solver == "external":
            return solve_external(model, args.solver_cmd)
        return solve_bnb(model)

    h_max = args.horizon_max if args.horizon_max is not None else args.horizon
    horizons = range(args.horizon, h_max + 1)
    problem = None
    unknown = []  # horizons whose solve exhausted a budget
    unsettled = False  # the tau = 0 program at h_max is not infeasible
    try:
        for h in horizons:
            args.step = "build"
            problem = build(model_obj, mu, h, args.tau)
            args.step = "solve"
            sol = solve(problem.model)
            if sol.feasible:
                break
            if sol.status == "unknown":
                unknown.append(h)
        if not sol.feasible and not unknown and args.tau > 0:
            # a tau = 0 lasso at h unrolls to one at h + 1, so one solve at
            # h_max settles every horizon of the sweep
            args.step = "build"
            proof = build(model_obj, mu, h_max, 0).model
            args.step = "solve"
            unsettled = solve(proof).status != "infeasible"
    except (EncodingError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        # the last program of the sweep: the deciding one, the last
        # infeasible one, or the one whose solve raised
        if args.export_lp and problem is not None:
            write_lp(problem.model, args.export_lp)

    if args.stats:
        meta = problem.model.metadata()
        meta.update({"engine": problem.engine, "h": problem.h, "tau": problem.tau,
                     "status": sol.status, "solver": sol.stats})
        _write_json(args.stats, meta)

    if unknown and not sol.feasible:
        print(f"unknown: solver budget exhausted at h={', '.join(map(str, unknown))}")
        return 4
    if unsettled:
        print(f"unknown: no tau={args.tau} lasso found for h in [{args.horizon}, "
              f"{h_max}], but the tau=0 program is not infeasible at "
              f"h={h_max} (the robust encoding is conservative)")
        return 4
    if not sol.feasible:
        print(f"infeasible for h in [{args.horizon}, {h_max}]")
        return 1

    args.step = "extract"
    if problem.engine == "continuous":
        trajs = extract_continuous(problem, sol)
    elif problem.engine == "cltl":
        trajs = decompose_flows(problem, sol)
    else:
        trajs = extract_trajectories(problem.layout, sol)
    lassos = _lassos(model_obj, trajs)

    resolved = resolve_groups(mu, model_obj.groups)
    args.step = "verify"
    try:
        verdict = check_robust(lassos, resolved, args.tau, max_T=args.verify_max_t,
                               enumeration_cap=args.verify_cap, seed=args.seed)
        collide = _collisions(model_obj, trajs, args.tau)
    except VerificationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    ok = not verdict.falsified

    if args.output:
        _write_json(args.output, _trajectory_payload(problem, trajs))

    print(f"feasible at h={problem.h} (engine={problem.engine}, tau={problem.tau})")
    if ok:
        print(f"oracle: {verdict.status} ({verdict.stats['mode']}, "
              f"{verdict.stats['sequences']} executions)")
    else:
        print(f"oracle: falsified at T={verdict.counterexample[1]}")
    if collide:
        print(f"collision check: {len(collide)} violations, e.g. {collide[0]}")
    if not ok or collide:
        return 2
    return 0


def _load_trajectories(path: str):
    data = json.loads(Path(path).read_text())
    if data.get("type") == "continuous":
        return [ContinuousTrajectory(
            tuple(tuple(u) for u in r["inputs"]),
            tuple(tuple(w) for w in r["states"]),
            r["loop_start"]) for r in data["robots"]]
    return [LassoTrajectory(tuple(r["states"]), r["loop_start"])
            for r in data["robots"]]


def _bundle_mismatch(model_obj, trajs) -> str:
    """Why the trajectory bundle is no run of the model; empty if it is."""
    continuous = isinstance(model_obj, ContinuousSystem)
    if any(isinstance(t, ContinuousTrajectory) != continuous for t in trajs):
        kind = "continuous" if continuous else "discrete"
        return f"the model is {kind} and the trajectory bundle is not"
    if len(trajs) != model_obj.n_robots:
        return (f"the trajectory bundle has {len(trajs)} robots and the model "
                f"{model_obj.n_robots}")
    if continuous:
        return ""
    for n, (traj, ts, init) in enumerate(zip(trajs, model_obj.systems,
                                             model_obj.initial_states)):
        problems = traj.validate_against(ts)
        if problems:
            return f"robot {n}: {problems[0]}"
        if traj.states[0] != init:
            return (f"robot {n} starts at {ts.states[traj.states[0]]}, not at its "
                    f"initial state {ts.states[init]}")
    return ""


def _bad_simulate_args(args) -> str:
    """Why the simulate budget flags are invalid; empty if they are not."""
    if args.tau < 0:
        return "--tau must not be negative"
    if args.max_t is not None and args.max_t < 0:
        return "--max-t must not be negative"
    if args.enum_cap < 1:
        return "--enum-cap must be at least 1"
    return ""


def run_simulate(args) -> int:
    bad = _bad_simulate_args(args)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 3
    try:
        model_obj = load_model(args.model)
        trajs = _load_trajectories(args.trajectories)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        mu = _read_formula(args.formula)
        resolved = resolve_groups(mu, model_obj.groups)
        check_formula(resolved, model_obj)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    bad = _bundle_mismatch(model_obj, trajs)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 3
    lassos = _lassos(model_obj, trajs)

    # The per-anchor satisfaction table is taken under the synchronous
    # execution; its window reaches past the shortest horizon, so sat[t]
    # needs no wrap.
    oracle = CollectionOracle(lassos)
    args.step = "verify"
    try:
        verdict = check_robust(lassos, resolved, args.tau, max_T=args.max_t,
                               enumeration_cap=args.enum_cap, seed=args.seed)
        collide = _collisions(model_obj, trajs, args.tau)
        sat = oracle.values(
            CollectiveExecution.synchronous(len(lassos)).increments[None], resolved)[0]
    except VerificationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(f"verdict: {verdict.status} "
          f"(mode={verdict.stats['mode']}, sequences={verdict.stats['sequences']}, "
          f"max_T={verdict.stats['max_T']})")
    if verdict.falsified:
        execution, t_bad = verdict.counterexample
        print(f"counterexample at T={t_bad}; local counter increments:")
        for row in execution.increments.tolist():
            print(f"  {row}")
    if collide:
        print(f"collision check: {len(collide)} violations, e.g. {collide[0]}")

    h = min(l.horizon for l in lassos)
    tcps = list(iter_tcps(resolved))
    header = "t  formula " + " ".join(f"tcp{i}" for i in range(len(tcps)))
    print(header)
    for t in range(h):
        cells = [f"{t:<2d} {'sat' if sat[t] else '---':7s}"]
        for tcp in tcps:
            count = oracle.tcp_count(tcp, [t] * len(lassos))
            cells.append(f"{count}/{tcp.m}")
        print(" ".join(cells))

    if args.emit_frames and isinstance(model_obj, MultiRobotInstance):
        _emit_frames(args.emit_frames, model_obj, trajs)

    return 1 if verdict.falsified or collide else 0


def _emit_frames(directory: str, inst: MultiRobotInstance,
                 trajs: list[LassoTrajectory]) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    horizon = max(t.horizon for t in trajs)
    shape = inst.grid_shape
    n_states = inst.systems[0].n_states
    for t in range(horizon + 1):
        counts = [0] * n_states
        for traj in trajs:
            counts[traj.state_at(t)] += 1
        lines = []
        if shape:
            width, height = shape
            for y in range(height):
                lines.append(",".join(str(counts[y * width + x]) for x in range(width)))
        else:
            for i, c in enumerate(counts):
                lines.append(f"{inst.systems[0].states[i]},{c}")
        (out / f"frame_{t:03d}.csv").write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.step = "load"
    try:
        if args.command == "synth":
            return run_synth(args)
        return run_simulate(args)
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:  # a backstop (module docstring)
        print(f"error: out of memory in the {args.step} step", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
