"""Robot models: labeled transition systems, multirobot instances (with
``shared_system``, the one system of an identical fleet), and affine
continuous-state systems.

Model files are JSON.  Top-level keys:

``ap``          list of proposition names (extended by grid region names)
``robots``      list of robot entries; for explicit graphs each entry is
                ``{"states": [...], "transitions": [[i,j],...],
                "labels": {"state_name": ["a",...]}, "init": idx_or_name}``;
                with a ``grid`` stanza each entry only needs ``init``
                (``[x, y]`` or cell index)
``grid``        ``{"width": W, "height": H, "regions": {name: [cells]}}``
                generates one shared workspace graph: stay-put plus
                4-neighbor moves, no moves off-grid
``groups``      optional ``{name: [robot indices]}``
``collision``   optional ``"off" | "mutual_exclusion" |
                "mutual_exclusion_plus_swap"``, or the short names
                ``"excl"`` and ``"swap"``
``continuous``  alternative robot description with affine dynamics
                ``w(t+1) = F w(t) + G u(t) + c`` per robot, polytope
                atoms ``{"H": [[...]], "h": [...]}``, and
                ``state_bounds`` / ``input_bounds`` boxes; every number
                must be finite

All indices are 0-based.

Every model class checks its invariants when it is built and raises
``ModelError`` if one fails, so a model object, once built, is valid:
``load_model`` only parses the file, and no encoder checks the model
again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

# short name -> collision mode; the modes are the values
COLLISION_ALIASES = {"off": "off", "excl": "mutual_exclusion",
                     "swap": "mutual_exclusion_plus_swap"}


class ModelError(ValueError):
    """Raised for malformed or inconsistent model files."""


def _is_index(x) -> bool:
    """An integer index; JSON ``true``/``false`` are ``bool``, an ``int``
    subclass, and are no index."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class TransitionSystem:
    states: tuple[str, ...]
    transitions: frozenset[tuple[int, int]]
    ap: tuple[str, ...]
    labels: tuple[frozenset[str], ...]

    def __post_init__(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise ModelError("duplicate state names")
        for (i, j) in self.transitions:
            if not all(_is_index(k) and 0 <= k < n for k in (i, j)):
                raise ModelError(f"dangling transition ({i}, {j})")
        if len(self.labels) != n:
            raise ModelError("labels must be defined for every state")
        known = set(self.ap)
        for idx, labs in enumerate(self.labels):
            bad = labs - known
            if bad:
                raise ModelError(
                    f"unknown label {sorted(bad)[0]!r} on state {self.states[idx]!r}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def successors(self, i: int) -> list[int]:
        return list(self._neighbours[0][i])

    def predecessors(self, j: int) -> list[int]:
        return list(self._neighbours[1][j])

    @cached_property
    def _neighbours(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every state's sorted successors and predecessors, from one pass
        over the transitions on first use."""
        succ: list[list[int]] = [[] for _ in self.states]
        pred: list[list[int]] = [[] for _ in self.states]
        for (i, j) in sorted(self.transitions):
            succ[i].append(j)
            pred[j].append(i)
        return tuple(map(tuple, succ)), tuple(map(tuple, pred))

    def step_mask(self, mask: int, backward: bool = False) -> int:
        """The states one transition from the states of the bit mask
        ``mask`` (to them, with ``backward``), as a bit mask; each mask's
        image is computed once per system."""
        table, memo = self._masks[backward]
        out = memo.get(mask)
        if out is None:
            out, rest = 0, mask
            while rest:
                low = rest & -rest
                out |= table[low.bit_length() - 1]
                rest ^= low
            memo[mask] = out
        return out

    def label_mask(self, a: str) -> int:
        """The states ``a`` labels, as a bit mask."""
        return sum(1 << i for i, labs in enumerate(self.labels) if a in labs)

    @cached_property
    def _masks(self) -> tuple[tuple[tuple[int, ...], dict], tuple[tuple[int, ...], dict]]:
        """Each state's successors and predecessors as bit masks, and the
        images ``step_mask`` has computed, forward and backward."""
        return tuple((tuple(sum(1 << j for j in near) for near in side), {})
                     for side in self._neighbours)

    def label_vector(self, a: str) -> np.ndarray:
        """Binary indicator over states: entry i is 1 iff ``a`` labels state i."""
        if a not in self.ap:
            raise ModelError(f"unknown proposition {a!r}")
        return np.array([1 if a in labs else 0 for labs in self.labels], dtype=np.int8)


@dataclass(frozen=True)
class MultiRobotInstance:
    systems: tuple[TransitionSystem, ...]
    initial_states: tuple[int, ...]
    groups: Mapping[str, frozenset] = field(default_factory=dict)
    collision_mode: str = "off"
    grid_shape: Optional[tuple[int, int]] = None  # (width, height) if generated

    def __post_init__(self):
        if not self.systems:
            raise ModelError("instance has no robots")
        out = []
        first = self.systems[0]
        for n, ts in enumerate(self.systems):
            if ts.ap != first.ap:
                out.append(f"robot {n}: atomic propositions differ from robot 0")
        if len(self.initial_states) != len(self.systems):
            out.append("one initial state required per robot")
        else:
            for n, s0 in enumerate(self.initial_states):
                if not (0 <= s0 < self.systems[n].n_states):
                    out.append(f"robot {n}: initial state {s0} out of range")
        for name, members in self.groups.items():
            for r in members:
                if not (0 <= r < len(self.systems)):
                    out.append(f"group {name!r}: robot index {r} out of range")
            if not members:
                out.append(f"group {name!r} is empty")
        if self.collision_mode not in COLLISION_ALIASES.values():
            out.append(f"unknown collision mode {self.collision_mode!r}")
        elif (self.collision_mode != "off"
              and any(ts.states != first.states for ts in self.systems)):
            out.append("collision constraints require a shared state space")
        if out:
            raise ModelError("; ".join(out))

    @property
    def n_robots(self) -> int:
        return len(self.systems)

    @property
    def ap(self) -> tuple[str, ...]:
        return self.systems[0].ap


@dataclass(frozen=True)
class ContinuousSystem:
    """Affine discrete-time robots with polytope-shaped propositions.  The
    state and input dimensions are the lengths of the bounds."""

    dynamics: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # (F, G, c)
    init: tuple[np.ndarray, ...]
    atoms: Mapping[str, tuple[np.ndarray, np.ndarray]]  # name -> (H, h)
    state_bounds: tuple[np.ndarray, np.ndarray]  # (lo, hi), length d_w
    input_bounds: tuple[np.ndarray, np.ndarray]  # (lo, hi), length d_u

    def __post_init__(self):
        if not self.dynamics:
            raise ModelError("continuous model has no robots")
        out = []
        d_w, d_u = self.d_w, self.d_u
        for n, (f, g, c) in enumerate(self.dynamics):
            if f.shape != (d_w, d_w):
                out.append(f"robot {n}: F must be {d_w}x{d_w}")
            if g.shape != (d_w, d_u):
                out.append(f"robot {n}: G must be {d_w}x{d_u}")
            if c.shape != (d_w,):
                out.append(f"robot {n}: c must have length {d_w}")
            if self.init[n].shape != (d_w,):
                out.append(f"robot {n}: init must have length {d_w}")
            out += [f"robot {n}: {key} must be finite"
                    for key, a in (("F", f), ("G", g), ("c", c), ("init", self.init[n]))
                    if not np.all(np.isfinite(a))]
        for name, (hm, hv) in self.atoms.items():
            if hm.ndim != 2 or hm.shape[1] != d_w:
                out.append(f"atom {name!r}: H must have {d_w} columns")
            elif hv.shape != (hm.shape[0],):
                out.append(f"atom {name!r}: h length must match H rows")
            out += [f"atom {name!r}: {key} must be finite"
                    for key, a in (("H", hm), ("h", hv)) if not np.all(np.isfinite(a))]
        for tag, (lo, hi) in (("state", self.state_bounds), ("input", self.input_bounds)):
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                out.append(f"{tag} bounds must be finite")
            elif np.any(lo > hi):
                out.append(f"{tag} bounds must satisfy lo <= hi")
        if out:
            raise ModelError("; ".join(out))

    @property
    def n_robots(self) -> int:
        return len(self.dynamics)

    @property
    def d_w(self) -> int:
        return len(self.state_bounds[0])

    @property
    def d_u(self) -> int:
        return len(self.input_bounds[0])

    @property
    def ap(self) -> tuple[str, ...]:
        return tuple(self.atoms.keys())

    @property
    def groups(self) -> Mapping[str, frozenset]:
        return {}  # continuous models name no robot groups


# ---------------------------------------------------------------------------
# Shared system
# ---------------------------------------------------------------------------

def shared_system(inst: MultiRobotInstance) -> TransitionSystem:
    """The one transition system every robot of the fleet runs on, robot
    0's; raises ``ModelError`` naming the first robot whose states,
    transitions or labels differ from it."""
    first = inst.systems[0]
    for n, ts in enumerate(inst.systems[1:], start=1):
        if ts.states != first.states:
            raise ModelError(f"robot {n}: state set differs from robot 0")
        if ts.transitions != first.transitions:
            raise ModelError(f"robot {n}: transition relation differs from robot 0")
        if ts.labels != first.labels:
            raise ModelError(f"robot {n}: labeling differs from robot 0")
    return first


# ---------------------------------------------------------------------------
# Grid generation
# ---------------------------------------------------------------------------

def build_grid_system(width: int, height: int,
                      regions: Mapping[str, list],
                      extra_ap: tuple[str, ...] = ()) -> TransitionSystem:
    """Workspace grid: cell (x, y) gets index y*width + x, may stay put or
    move to a 4-neighbor, and carries every region name covering it."""
    if width < 1 or height < 1:
        raise ModelError("grid dimensions must be positive")

    def cell_index(cell) -> int:
        if _is_index(cell):
            idx = cell
        elif (isinstance(cell, (list, tuple)) and len(cell) == 2
              and all(_is_index(v) for v in cell)):
            x, y = cell
            if not (0 <= x < width and 0 <= y < height):
                raise ModelError(f"grid cell {cell} outside {width}x{height} workspace")
            idx = y * width + x
        else:
            raise ModelError(f"grid cell must be an index or [x, y] pair: {cell!r}")
        if not (0 <= idx < width * height):
            raise ModelError(f"grid cell index {idx} out of range")
        return idx

    states = tuple(f"c{x}_{y}" for y in range(height) for x in range(width))
    transitions = set()
    for y in range(height):
        for x in range(width):
            i = y * width + x
            transitions.add((i, i))
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    transitions.add((i, ny * width + nx))

    ap = list(dict.fromkeys(list(regions.keys()) + list(extra_ap)))
    label_sets = [set() for _ in states]
    for name, cells in regions.items():
        for cell in cells:
            label_sets[cell_index(cell)].add(name)
    return TransitionSystem(
        states=states,
        transitions=frozenset(transitions),
        ap=tuple(ap),
        labels=tuple(frozenset(s) for s in label_sets),
    )


# ---------------------------------------------------------------------------
# Model file loading
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str):
    if not cond:
        raise ModelError(message)


def _load_explicit_robot(entry: dict, ap: tuple[str, ...], idx: int) -> tuple[TransitionSystem, int]:
    _require(isinstance(entry, dict), f"robot {idx}: entry must be an object")
    for key in ("states", "transitions", "labels", "init"):
        _require(key in entry, f"robot {idx}: missing key {key!r}")
    states, labels = entry["states"], entry["labels"]
    _require(isinstance(states, list) and all(isinstance(s, str) for s in states),
             f"robot {idx}: 'states' must be a list of state names")
    _require(isinstance(entry["transitions"], list),
             f"robot {idx}: 'transitions' must be a list of [src, dst] pairs")
    _require(isinstance(labels, dict) and all(
        isinstance(labs, list) and all(isinstance(a, str) for a in labs)
        for labs in labels.values()),
        f"robot {idx}: 'labels' must map states to lists of proposition names")
    states = tuple(states)
    name_to_idx = {s: i for i, s in enumerate(states)}
    transitions = set()
    for pair in entry["transitions"]:
        _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
                 f"robot {idx}: 'transitions' must be a list of [src, dst] pairs")
        src, dst = pair
        if isinstance(src, str):
            _require(src in name_to_idx, f"robot {idx}: transition from unknown state {src!r}")
            src = name_to_idx[src]
        if isinstance(dst, str):
            _require(dst in name_to_idx, f"robot {idx}: transition to unknown state {dst!r}")
            dst = name_to_idx[dst]
        transitions.add((src, dst))
    label_sets = [set() for _ in states]
    for state_key, labs in labels.items():
        if state_key in name_to_idx:
            s = name_to_idx[state_key]
        elif state_key.isdigit() and int(state_key) < len(states):
            s = int(state_key)
        else:
            raise ModelError(f"robot {idx}: label on missing state {state_key!r}")
        label_sets[s].update(labs)
    init = entry["init"]
    if isinstance(init, str):
        _require(init in name_to_idx, f"robot {idx}: unknown initial state {init!r}")
        init = name_to_idx[init]
    _require(_is_index(init), f"robot {idx}: initial state must be a name or an index")
    try:
        ts = TransitionSystem(states, frozenset(transitions), ap,
                              tuple(frozenset(s) for s in label_sets))
    except ModelError as exc:
        raise ModelError(f"robot {idx}: {exc}") from None
    return ts, init


def _load_continuous(data: dict) -> ContinuousSystem:
    stanza = data["continuous"]
    for key in ("robots", "atoms", "state_bounds", "input_bounds"):
        _require(key in stanza, f"continuous stanza missing key {key!r}")
    dynamics = []
    init = []
    for idx, entry in enumerate(stanza["robots"]):
        for key in ("F", "G", "c", "init"):
            _require(key in entry, f"continuous robot {idx}: missing key {key!r}")
        dynamics.append((np.asarray(entry["F"], dtype=float),
                         np.asarray(entry["G"], dtype=float),
                         np.asarray(entry["c"], dtype=float)))
        init.append(np.asarray(entry["init"], dtype=float))
    atoms = {}
    for name, poly in stanza["atoms"].items():
        _require("H" in poly and "h" in poly, f"atom {name!r}: polytope needs H and h")
        atoms[name] = (np.asarray(poly["H"], dtype=float),
                       np.asarray(poly["h"], dtype=float))
    sb = np.asarray(stanza["state_bounds"], dtype=float)
    ib = np.asarray(stanza["input_bounds"], dtype=float)
    _require(sb.ndim == 2 and sb.shape[1] == 2, "state_bounds must be [[lo, hi], ...]")
    _require(ib.ndim == 2 and ib.shape[1] == 2, "input_bounds must be [[lo, hi], ...]")
    return ContinuousSystem(
        dynamics=tuple(dynamics),
        init=tuple(init),
        atoms=atoms,
        state_bounds=(sb[:, 0].copy(), sb[:, 1].copy()),
        input_bounds=(ib[:, 0].copy(), ib[:, 1].copy()),
    )


def load_model(path: Union[str, Path]) -> Union[MultiRobotInstance, ContinuousSystem]:
    """Load a model file; see the module docstring for the schema."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON: {exc}") from exc
    _require(isinstance(data, dict), "model file must contain a JSON object")

    if "continuous" in data:
        return _load_continuous(data)

    _require("robots" in data, "model file missing 'robots'")
    raw_ap = tuple(data.get("ap", ()))

    grid = data.get("grid")
    systems: list[TransitionSystem] = []
    inits: list[int] = []
    grid_shape = None
    if grid is not None:
        for key in ("width", "height"):
            _require(key in grid, f"grid stanza missing key {key!r}")
        width, height = grid["width"], grid["height"]
        regions = grid.get("regions", {})
        shared = build_grid_system(width, height, regions, extra_ap=raw_ap)
        grid_shape = (width, height)
        for idx, entry in enumerate(data["robots"]):
            _require(isinstance(entry, dict) and "init" in entry,
                     f"robot {idx}: grid robots need an 'init' cell")
            init = entry["init"]
            if (isinstance(init, (list, tuple)) and len(init) == 2
                    and all(_is_index(v) for v in init)):
                x, y = init
                _require(0 <= x < width and 0 <= y < height,
                         f"robot {idx}: initial cell {init} outside the workspace")
                init = y * width + x
            _require(_is_index(init),
                     f"robot {idx}: initial cell must be an index or an [x, y] pair")
            systems.append(shared)
            inits.append(init)
    else:
        for idx, entry in enumerate(data["robots"]):
            ts, init = _load_explicit_robot(entry, raw_ap, idx)
            systems.append(ts)
            inits.append(init)

    groups = {}
    for name, members in data.get("groups", {}).items():
        _require(isinstance(members, list) and all(_is_index(r) for r in members),
                 f"group {name!r} must be a list of robot indices")
        groups[name] = frozenset(members)

    collision = data.get("collision", "off")
    return MultiRobotInstance(
        systems=tuple(systems),
        initial_states=tuple(inits),
        groups=groups,
        collision_mode=COLLISION_ALIASES.get(collision, collision),
        grid_shape=grid_shape,
    )
