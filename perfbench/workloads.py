"""Seeded synthesis instances with planted witnesses, one set per workload.

Every generated instance starts from seeded per-robot lassos (the witness)
and derives its regions and formula from them, so a solution is known to
exist at the witness horizon without running any solver.  The fixed
emergency desk instance carries stored witnesses instead.  Witnesses are
checked by ``pipeline.check_witness`` before any operation runs.

The instances of a workload are fixed: they come from fixed per-instance
seeds, so every run asks for the same synthesis work, and the workload
seed only orders the operations of each pass (``run.py``).  Presenting an
instance under a seeded symmetry of the grid or order of the robots would
give the same synthesis problem, but the bundled solver's search on it
can differ tenfold between such presentations, more than a run of a few
passes averages out.

An instance is what a user would hand to ``cltlsynth synth``: a model JSON
payload, a formula text, an engine, an asynchrony bound and a horizon
sweep ``h_lo .. h_w`` where ``h_w`` is the witness horizon.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Instance:
    name: str
    model: dict
    formula: str
    engine: str                      # "cltlplus" | "continuous"
    h_lo: int
    h_w: int                         # witness horizon, last horizon swept
    tau: int = 0
    witness: list = field(default_factory=list)  # per robot {"states"|"inputs", "loop_start"}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in ``BENCHMARK.json``."""

    name: str
    solver: str                      # "bundled" | "external"
    node_budget: Optional[int]       # SolveConfig(node_budget=...) for the bundled solver
    deadline_s: float                # per-operation wall-clock limit
    make: Callable[[], list]         # the instances, in a fixed order


# ---------------------------------------------------------------------------
# Graphs and lassos
# ---------------------------------------------------------------------------

def grid_successors(width: int, height: int) -> list[list[int]]:
    """Stay put or move to a 4-neighbour, as ``system.build_grid_system``."""
    succ = []
    for y in range(height):
        for x in range(width):
            out = [y * width + x]
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    out.append(ny * width + nx)
            succ.append(sorted(out))
    return succ


def _distances_to(succ: list[list[int]], target: int) -> list[int]:
    pred = [[] for _ in succ]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    dist = [len(succ) + 1] * len(succ)
    dist[target] = 0
    queue = deque([target])
    while queue:
        j = queue.popleft()
        for i in pred[j]:
            if dist[i] > dist[j] + 1:
                dist[i] = dist[j] + 1
                queue.append(i)
    return dist


def random_lasso(rng: random.Random, succ: list[list[int]], init: int, h: int,
                 loop_start: int) -> list[int]:
    """States s_0..s_h with s_h = s_loop_start along graph edges; every
    state needs a self loop so any closed walk can be padded."""
    states = [init]
    for _ in range(loop_start):
        states.append(rng.choice(succ[states[-1]]))
    anchor = states[-1]
    dist = _distances_to(succ, anchor)
    for step in range(h - loop_start):
        left = h - loop_start - step - 1
        options = [j for j in succ[states[-1]] if dist[j] <= left]
        states.append(rng.choice(options))
    assert states[-1] == anchor
    return states


def _meets(paths: list[list[int]]) -> bool:
    """True if two robots share a cell at some step of the joint lasso."""
    h = len(paths[0]) - 1
    for t in range(h):
        cells = [p[t] for p in paths]
        if len(set(cells)) < len(cells):
            return True
    return False


def joint_lasso(rng: random.Random, succ: list[list[int]], n_robots: int, h: int,
                exclusive: bool) -> tuple[list[list[int]], int]:
    """Per-robot lassos with a common loop start; with ``exclusive`` no two
    robots ever share a cell (rejection sampling, seeded)."""
    for _ in range(1000):
        loop_start = rng.randrange(h)
        inits = rng.sample(range(len(succ)), n_robots)
        paths = [random_lasso(rng, succ, s0, h, loop_start) for s0 in inits]
        if not exclusive or not _meets(paths):
            return paths, loop_start
    raise RuntimeError("no collision-free joint lasso found")


# ---------------------------------------------------------------------------
# Clause templates derived from a witness
# ---------------------------------------------------------------------------

def _loop_cells(path: list[int], loop_start: int) -> set[int]:
    return set(path[loop_start:-1])


def plant_formula(rng: random.Random, template: str, paths: list[list[int]],
                  loop_start: int, n_cells: int, robust: bool) -> tuple[str, dict]:
    """Formula text and regions (name -> cell indices) that the joint lasso
    satisfies.  With ``robust`` the regions cover whole loops so that the
    clause also survives bounded asynchrony."""
    n = len(paths)
    h = len(paths[0]) - 1
    loop_times = list(range(loop_start, h))

    def at(robots, t):
        return sorted({paths[r][t] for r in robots})

    def loops_of(robots):
        return sorted(set().union(*(_loop_cells(paths[r], loop_start) for r in robots)))

    if template == "GF":
        m = rng.randint(1, n)
        robots = rng.sample(range(n), m)
        region = loops_of(robots) if robust else at(robots, rng.choice(loop_times))
        return f"G F [A, {m}]", {"A": region}
    if template == "FG":
        m = rng.randint(1, n)
        return f"F G [A, {m}]", {"A": loops_of(rng.sample(range(n), m))}
    if template == "Gnot":
        def peak(cell):
            return max(sum(p[t] == cell for p in paths) for t in range(h + 1))
        cell = rng.choice([c for c in range(n_cells) if peak(c) < n])
        return f"G !([K, {peak(cell) + 1}])", {"K": [cell]}
    if template == "U":
        m = rng.randint(1, n)
        k = rng.randint(1, h - 1)
        lhs_robots = rng.sample(range(n), rng.randint(1, n))
        if robust:
            lhs = sorted({paths[r][t] for r in lhs_robots for t in range(h + 1)})
            rhs = loops_of(rng.sample(range(n), m))
        else:
            lhs = sorted({paths[r][t] for r in lhs_robots for t in range(k)})
            rhs = at(rng.sample(range(n), m), k)
        return f"[A, {len(lhs_robots)}] U [B, {m}]", {"A": lhs, "B": rhs}
    if template == "inner":
        m = rng.randint(1, n)
        robots = rng.sample(range(n), m)
        region = sorted({rng.choice(sorted(_loop_cells(paths[r], loop_start)))
                         for r in robots})
        return f"[G F A, {m}]", {"A": region}
    if template == "FAB":
        k = min(2, n)
        if robust:
            a = loops_of(rng.sample(range(n), k))
            b = loops_of(rng.sample(range(n), k))
        else:
            t1, t2 = rng.sample(range(h + 1), 2)
            a = at(rng.sample(range(n), k), t1)
            b = at(rng.sample(range(n), k), t2)
        return f"F [A, {k}] & F [B, {k}]", {"A": a, "B": b}
    raise ValueError(f"unknown template {template!r}")


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------

def grid_instance(rng: random.Random, name: str, template: str, width: int,
                  n_robots: int, collision: str, h_w: int, sweep: int,
                  tau: int = 0) -> Instance:
    succ = grid_successors(width, width)
    paths, loop_start = joint_lasso(rng, succ, n_robots, h_w,
                                    exclusive=collision != "off")
    formula, regions = plant_formula(rng, template, paths, loop_start,
                                     width * width, robust=tau > 0)
    model = {"ap": [], "grid": {"width": width, "height": width, "regions": regions},
             "robots": [{"init": p[0]} for p in paths], "collision": collision}
    witness = [{"states": p, "loop_start": loop_start} for p in paths]
    return Instance(name, model, formula, "cltlplus", h_w - sweep + 1, h_w, tau,
                    witness)


def _interval(center: float, half: float = 0.1) -> dict:
    return {"H": [[1.0], [-1.0]], "h": [center + half, -(center - half)]}


def integrator_instance(rng: random.Random, name: str, n_robots: int, h_w: int,
                        sweep: int, reach: int = 3) -> Instance:
    """1-D integrators w(t+1) = w(t) + u(t), |u| <= 1, on [-reach, reach];
    the witness moves one unit per step at most and visits two points
    infinitely often."""
    cells = 2 * reach + 1
    succ = [sorted({max(i - 1, 0), i, min(i + 1, cells - 1)}) for i in range(cells)]
    paths, loop_start = joint_lasso(rng, succ, n_robots, h_w, exclusive=False)
    pos = [[float(s - reach) for s in p] for p in paths]
    a = rng.choice(pos[0][loop_start:-1])
    c = rng.choice(pos[-1][loop_start:-1])
    model = {"continuous": {
        "robots": [{"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [p[0]]} for p in pos],
        "atoms": {"A": _interval(a), "C": _interval(c)},
        "state_bounds": [[-float(reach), float(reach)]],
        "input_bounds": [[-1.0, 1.0]]}}
    witness = [{"inputs": [[p[t + 1] - p[t]] for t in range(h_w)],
                "states": [[x] for x in p], "loop_start": loop_start} for p in pos]
    return Instance(name, model, "G F [A, 1] & G F [C, 1]", "continuous",
                    h_w - sweep + 1, h_w, witness=witness)


# (template, grid width, robots, collision mode, witness horizon)
LADDER = (
    ("GF", 3, 2, "off", 5), ("FG", 3, 2, "mutual_exclusion", 5),
    ("Gnot", 3, 3, "off", 5), ("U", 3, 2, "off", 5),
    ("inner", 3, 2, "off", 5), ("FAB", 3, 2, "mutual_exclusion", 5),
    ("GF", 4, 3, "mutual_exclusion", 6), ("FG", 4, 3, "off", 6),
    ("Gnot", 4, 2, "mutual_exclusion", 6), ("U", 4, 3, "off", 6),
    ("inner", 4, 3, "mutual_exclusion", 6), ("FAB", 4, 2, "off", 6),
)


LADDER_COPIES = 3

# (template, grid width, robots, tau, witness horizon)
ROBUST = (
    ("GF", 3, 2, 1, 4), ("FG", 3, 2, 2, 3), ("U", 3, 2, 1, 4),
    ("inner", 4, 2, 1, 4), ("FAB", 4, 2, 2, 3), ("Gnot", 4, 3, 1, 3),
)
ROBUST_COPIES = 2


def ladder_instances() -> list[Instance]:
    """Synchronous grid instances, 1-D integrators and robust grid
    instances, all small enough for the bundled solver."""
    base = []
    for rep in range(LADDER_COPIES):
        for k, (template, width, n, collision, h_w) in enumerate(LADDER):
            rng = random.Random(f"ladder-bnb:{rep}:{k}")
            base.append(grid_instance(
                rng, f"{template}-{width}x{width}-r{n}-{collision}-{rep}",
                template, width, n, collision, h_w, sweep=3))
        for n in (1, 2):
            rng = random.Random(f"ladder-bnb:{rep}:integrator{n}")
            base.append(integrator_instance(rng, f"integrator-r{n}-{rep}", n, h_w=4,
                                            sweep=2))
    for rep in range(ROBUST_COPIES):
        for k, (template, width, n, tau, h_w) in enumerate(ROBUST):
            rng = random.Random(f"robust-tau:{rep}:{k}")
            base.append(grid_instance(
                rng, f"{template}-{width}x{width}-r{n}-tau{tau}-{rep}",
                template, width, n, "off", h_w, sweep=2, tau=tau))
    return base


EMERGENCY_FORMULA = (
    "G !([D,1]) & G !([B,3]) & [G F Fc, 4] & G F [A,2] & G F [C,2] "
    "& G F !([A,1]) & G F !([C,1]) & (!([B,1]) U ([B1,1] & [B2,1]))")
EMERGENCY_RUNGS = (8, 12, 16)


def emergency_instances() -> list[Instance]:
    """The fixed 8x8 desk, four robots, mutual exclusion, eight clause
    types; one operation per rung of the horizon ladder."""
    def cells(xs, ys):
        return [[x, y] for x in xs for y in ys]

    regions = {
        "A": cells([0, 1], [2, 3, 4, 5]), "C": cells([6, 7], [2, 3, 4, 5]),
        "D": [[4, y] for y in (0, 1, 2, 5, 6, 7)], "B": [[4, 3], [4, 4]],
        "B1": [[3, 3], [3, 4]], "B2": [[5, 3], [5, 4]],
        "Fc": [[3, 3], [3, 4], [5, 3], [5, 4]],
    }
    model = {"ap": [], "grid": {"width": 8, "height": 8, "regions": regions},
             "robots": [{"init": c} for c in ([2, 3], [2, 4], [6, 3], [6, 4])],
             "collision": "mutual_exclusion"}
    stored = json.loads((DATA / "emergency_witness.json").read_text())
    return [Instance(f"emergency-h{h}", model, EMERGENCY_FORMULA, "cltlplus", h, h,
                     witness=stored[str(h)])
            for h in EMERGENCY_RUNGS]


# The ladder's node budget lets every instance finish its search (the
# largest takes 599 nodes on one horizon), so an operation's outcome is the
# same in every run; the deadlines are a guard that a run on a slow machine
# still ends.
WORKLOADS = {w.name: w for w in (
    Workload("ladder-bnb", solver="bundled", node_budget=1000, deadline_s=60.0,
             make=ladder_instances),
    Workload("emergency-lp", solver="external", node_budget=None, deadline_s=20.0,
             make=emergency_instances),
)}
