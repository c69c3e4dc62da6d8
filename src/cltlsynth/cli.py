"""Command-line entry point.

``cltlsynth synth``     build + solve + extract + verify, writing artifacts
``cltlsynth simulate``  replay a trajectory bundle against a formula under
                        bounded asynchrony and report a verdict

Exit codes for synth: 0 feasible and oracle-verified, 1 every horizon of
the sweep proven infeasible, 2 feasible but rejected by the oracle (encoder
bug sentinel), 3 usage errors, 4 I/O or budget problems (a sweep with no
feasible horizon and at least one unknown one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .formula import atoms_of, is_cltl, iter_tcps, parse_formula, resolve_groups
from .ilp import Solution
from .lp_format import write_lp
from .oracle import (CollectiveExecution, CollectionOracle, Lasso, check_robust,
                     eval_outer)
from .solver import SolverError, solve_bnb, solve_external
from .system import (ContinuousSystem, ModelError, MultiRobotInstance,
                     aggregate_view, load_model)
from .encoder_cltl import build_cltl_problem, decompose_flows
from .encoder_continuous import (build_cont_problem, extract_continuous,
                                 membership_trace)
from .encoder_robust import build_robust_problem
from .encoder_sync import EncodingError, build_sync_problem, extract_trajectories
from .trajectory import ContinuousTrajectory, LassoTrajectory

COLLISION_ALIASES = {"off": "off", "excl": "mutual_exclusion",
                     "swap": "mutual_exclusion_plus_swap"}


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
                       help="external solver template with {lp} and {sol}; "
                            "falls back to the CTL_SOLVER_CMD environment variable")
    synth.add_argument("--export-lp", default=None, metavar="PATH")
    synth.add_argument("--seed", type=int, default=0,
                       help="seed for the sampled robustness check")
    synth.add_argument("--collision", choices=tuple(COLLISION_ALIASES), default=None,
                       help="override the model's collision mode")
    synth.add_argument("--output", default=None, metavar="PATH",
                       help="trajectory JSON output")
    synth.add_argument("--stats", default=None, metavar="PATH",
                       help="encoding statistics JSON output")
    synth.add_argument("--verify-max-t", type=int, default=None)
    synth.add_argument("--verify-cap", type=int, default=20000)

    sim = sub.add_parser("simulate", help="verify a trajectory bundle")
    sim.add_argument("--model", required=True)
    sim.add_argument("--trajectories", required=True)
    sim.add_argument("--formula", required=True)
    sim.add_argument("--tau", type=int, default=0)
    sim.add_argument("--max-t", type=int, default=None)
    sim.add_argument("--enum-cap", type=int, default=20000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--emit-frames", default=None, metavar="DIR")
    return parser


def _read_formula(arg: str):
    path = Path(arg)
    if path.exists():
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
    if args.tau == 0 and is_cltl(mu):
        try:
            aggregate_view(model_obj)
        except Exception:
            return "cltlplus"
        if any(t.group is not None for t in iter_tcps(mu)):
            return "cltlplus"
        return "cltl"
    return "cltlplus"


def _lassos_from_discrete(inst: MultiRobotInstance, trajs) -> list[Lasso]:
    return [Lasso.from_trajectory(traj, ts)
            for traj, ts in zip(trajs, inst.systems)]


def _lassos_from_continuous(sys_: ContinuousSystem, trajs) -> list[Lasso]:
    return [Lasso(membership_trace(sys_, traj), traj.loop_start)
            for traj in trajs]


def collision_violations(trajs: list[LassoTrajectory], mode: str, tau: int = 0) -> list[str]:
    """Independent collision checker over the infinite executions."""
    if mode == "off" or len(trajs) < 2:
        return []
    import math
    horizon = max(t.horizon for t in trajs)
    window = horizon + math.lcm(*[t.period for t in trajs]) + tau + 1
    out = []
    for a in range(len(trajs)):
        for b in range(a + 1, len(trajs)):
            for t in range(window):
                for dt in range(tau + 1):
                    if trajs[a].state_at(t) == trajs[b].state_at(t + dt):
                        out.append(f"robots {a} and {b} meet at step {t}(+{dt})")
                    if dt and trajs[b].state_at(t) == trajs[a].state_at(t + dt):
                        out.append(f"robots {b} and {a} meet at step {t}(+{dt})")
                if mode == "mutual_exclusion_plus_swap":
                    if (trajs[a].state_at(t) == trajs[b].state_at(t + 1)
                            and trajs[b].state_at(t) == trajs[a].state_at(t + 1)
                            and trajs[a].state_at(t) != trajs[a].state_at(t + 1)):
                        out.append(f"robots {a} and {b} swap at step {t}")
    return out


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
    collision = COLLISION_ALIASES[args.collision] if args.collision else None
    if engine == "cltl" and args.tau > 0:
        print("error: the aggregate engine cannot track identities, which "
              "robust synthesis requires; use --engine cltlplus", file=sys.stderr)
        return 3

    def build(h: int):
        if engine == "continuous":
            return build_cont_problem(model_obj, mu, h, tau=args.tau)
        if engine == "cltl":
            return build_cltl_problem(model_obj, mu, h, collision=collision)
        if args.tau > 0:
            return build_robust_problem(model_obj, mu, h, args.tau, collision=collision)
        return build_sync_problem(model_obj, mu, h, collision=collision)

    solver_cmd = args.solver_cmd or os.environ.get("CTL_SOLVER_CMD")
    if args.solver == "external" and not solver_cmd:
        print("error: --solver external needs --solver-cmd or CTL_SOLVER_CMD",
              file=sys.stderr)
        return 3

    def solve(model) -> Solution:
        if args.solver == "external":
            return solve_external(model, solver_cmd)
        return solve_bnb(model)

    h_max = args.horizon_max if args.horizon_max is not None else args.horizon
    unknown = []  # horizons whose solve exhausted a budget
    try:
        for h in range(args.horizon, h_max + 1):
            problem = build(h)
            if args.export_lp:
                write_lp(problem.model, args.export_lp)
            sol = solve(problem.model)
            if sol.feasible:
                break
            if sol.status == "unknown":
                unknown.append(h)
    except (EncodingError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    if args.stats:
        meta = problem.model.metadata()
        meta.update({"engine": problem.engine, "h": problem.h, "tau": problem.tau,
                     "status": sol.status})
        _write_json(args.stats, meta)

    if unknown and not sol.feasible:
        print(f"unknown: solver budget exhausted at h={', '.join(map(str, unknown))}")
        return 4
    if not sol.feasible:
        print(f"infeasible for h in [{args.horizon}, {h_max}]")
        return 1

    if problem.engine == "continuous":
        trajs = extract_continuous(problem, sol)
        lassos = _lassos_from_continuous(model_obj, trajs)
    elif problem.engine == "cltl":
        trajs = decompose_flows(problem, sol)
        lassos = _lassos_from_discrete(model_obj, trajs)
    else:
        trajs = extract_trajectories(problem.layout, sol)
        lassos = _lassos_from_discrete(model_obj, trajs)

    groups = model_obj.groups if isinstance(model_obj, MultiRobotInstance) else {}
    resolved = resolve_groups(mu, groups)
    if args.tau == 0:
        n = len(lassos)
        ok = eval_outer(lassos, CollectiveExecution.synchronous(n), 0, resolved)
        verdict_line = "verified (synchronous execution)" if ok else "violated"
    else:
        verdict = check_robust(lassos, resolved, args.tau,
                               max_T=args.verify_max_t,
                               enumeration_cap=args.verify_cap, seed=args.seed)
        ok = not verdict.falsified
        verdict_line = (f"verified_bounded ({verdict.stats['mode']}, "
                        f"{verdict.stats['sequences']} executions)" if ok
                        else f"falsified at T={verdict.counterexample[1]}")

    collide = []
    if problem.engine != "continuous" and isinstance(model_obj, MultiRobotInstance):
        mode = collision or model_obj.collision_mode
        collide = collision_violations(trajs, mode, args.tau)

    if args.output:
        _write_json(args.output, _trajectory_payload(problem, trajs))

    print(f"feasible at h={problem.h} (engine={problem.engine}, tau={problem.tau})")
    print(f"oracle: {verdict_line}")
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


def run_simulate(args) -> int:
    try:
        model_obj = load_model(args.model)
        trajs = _load_trajectories(args.trajectories)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    groups = model_obj.groups if isinstance(model_obj, MultiRobotInstance) else {}
    try:
        mu = _read_formula(args.formula)
        resolved = resolve_groups(mu, groups)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    missing = atoms_of(mu) - set(model_obj.ap)
    if missing:
        print(f"error: formula uses unknown propositions: {sorted(missing)}",
              file=sys.stderr)
        return 3
    if args.tau < 0 or args.enum_cap < 1 or (args.max_t is not None and args.max_t < 0):
        print("error: invalid budget flags", file=sys.stderr)
        return 3
    bad = _bundle_mismatch(model_obj, trajs)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 3
    if isinstance(model_obj, ContinuousSystem):
        lassos = _lassos_from_continuous(model_obj, trajs)
    else:
        lassos = _lassos_from_discrete(model_obj, trajs)

    verdict = check_robust(lassos, resolved, args.tau, max_T=args.max_t,
                           enumeration_cap=args.enum_cap, seed=args.seed)
    print(f"verdict: {verdict.status} "
          f"(mode={verdict.stats['mode']}, sequences={verdict.stats['sequences']}, "
          f"max_T={verdict.stats['max_T']})")
    if verdict.falsified:
        execution, t_bad = verdict.counterexample
        print(f"counterexample at T={t_bad}; local counter increments:")
        for row in execution.increments.tolist():
            print(f"  {row}")

    # Per-anchor satisfaction table under the synchronous execution; its
    # window reaches past the shortest horizon, so sat[t] needs no wrap.
    oracle = CollectionOracle(lassos)
    sat = oracle.values(CollectiveExecution.synchronous(len(lassos)).increments[None],
                        resolved)[0]
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

    return 1 if verdict.falsified else 0


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
    if args.command == "synth":
        return run_synth(args)
    return run_simulate(args)


if __name__ == "__main__":
    sys.exit(main())
