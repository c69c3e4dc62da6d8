"""Model loading, construction-time checks, grid generation, and the
aggregate engine's view of a fleet: its shared system and start counts."""

import json
import random
from dataclasses import replace

import pytest

from cltlsynth.encoder_cltl import AggregateCounts
from cltlsynth.encoder_sync import Layout
from cltlsynth.ilp import IlpModel
from cltlsynth.solver import solve_bnb
from cltlsynth.system import (ContinuousSystem, ModelError, MultiRobotInstance,
                              TransitionSystem, build_grid_system, load_model,
                              shared_system)

from conftest import random_transition_system


def chain_ts(labels_on=("s1",)):
    return TransitionSystem(
        states=("s0", "s1", "s2"),
        transitions=frozenset({(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)}),
        ap=("a",),
        labels=tuple(frozenset({"a"}) if name in labels_on else frozenset()
                     for name in ("s0", "s1", "s2")),
    )


def test_load_explicit_model(tmp_path):
    payload = {
        "ap": ["a"],
        "robots": [{
            "states": ["s0", "s1", "s2"],
            "transitions": [[0, 1], [1, 2], [0, 0], [1, 1], [2, 2]],
            "labels": {"s1": ["a"]},
            "init": 0,
        }],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    inst = load_model(path)
    assert isinstance(inst, MultiRobotInstance)
    ts = inst.systems[0]
    assert ts.n_states == 3
    assert len(ts.transitions) == 5
    assert ts.labels[1] == frozenset({"a"})
    assert inst.initial_states == (0,)


def test_load_grid_model(tmp_path):
    payload = {
        "ap": [],
        "grid": {"width": 10, "height": 10,
                 "regions": {"A": [[0, 0], [1, 0]], "D": [[5, 5]]}},
        "robots": [{"init": [0, 0]}, {"init": [9, 9]}],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(payload))
    inst = load_model(path)
    ts = inst.systems[0]
    assert ts.n_states == 100
    # interior cells: 4 moves + stay; corners: 2 + stay; edges: 3 + stay
    out_degrees = [len(ts.successors(i)) for i in range(100)]
    assert min(out_degrees) == 3 and max(out_degrees) == 5
    corner = 0
    assert sorted(ts.successors(corner)) == [0, 1, 10]
    assert "A" in ts.labels[0] and "D" in ts.labels[55]
    assert inst.grid_shape == (10, 10)


def test_neighbour_lists_match_a_scan_of_the_transitions():
    rng = random.Random(17)
    for _ in range(100):
        ts = random_transition_system(rng, rng.randint(1, 9), ["a"],
                                      self_loops=rng.random() < 0.5)
        for k in range(ts.n_states):
            assert ts.successors(k) == sorted(j for (i, j) in ts.transitions if i == k)
            assert ts.predecessors(k) == sorted(i for (i, j) in ts.transitions if j == k)
    # each call returns a list of its own
    ts = chain_ts()
    ts.successors(0).append(2)
    ts.predecessors(2).clear()
    assert ts.successors(0) == [0, 1] and ts.predecessors(2) == [1, 2]


def test_grid_degree_bounds_various_sizes():
    for w, h in ((2, 2), (3, 4), (8, 8)):
        ts = build_grid_system(w, h, {})
        degs = [len(ts.successors(i)) for i in range(w * h)]
        assert min(degs) >= 3 and max(degs) <= 5


def test_load_rejects_label_on_missing_state(tmp_path):
    payload = {
        "ap": ["a"],
        "robots": [{"states": ["s0"], "transitions": [[0, 0]],
                    "labels": {"nope": ["a"]}, "init": 0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="missing state"):
        load_model(path)


@pytest.mark.parametrize("field, value, message", [
    ("labels", [["A"], []], "'labels' must map states to lists of proposition names"),
    ("labels", {"s1": "A"}, "'labels' must map states to lists of proposition names"),
    ("transitions", 5, "'transitions' must be a list of [src, dst] pairs"),
    ("transitions", [[0, 1, 1]], "'transitions' must be a list of [src, dst] pairs"),
    ("states", "s0", "'states' must be a list of state names"),
    ("states", ["s0", 1], "'states' must be a list of state names"),
], ids=["labels-list", "label-string", "transitions-number", "transition-triple",
        "states-string", "state-number"])
def test_load_names_the_mistyped_field(tmp_path, field, value, message):
    # these once ended in "'list' object has no attribute 'items'", in "'int'
    # object is not iterable", or, for a string, in its characters
    robot = {"states": ["s0", "s1"], "transitions": [[0, 1], [1, 1]],
             "labels": {"s1": ["A"]}, "init": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ap": ["A"], "robots": [robot, {**robot, field: value}]}))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == f"robot 1: {message}"


def test_load_rejects_dangling_transition(tmp_path):
    payload = {
        "ap": [],
        "robots": [{"states": ["s0"], "transitions": [[0, 3]],
                    "labels": {}, "init": 0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="dangling"):
        load_model(path)


def test_load_rejects_a_non_integer_transition_endpoint(tmp_path):
    payload = {
        "ap": ["a"],
        "robots": [{"states": ["s0", "s1"], "transitions": [[0, 0.5], [1, 1], [0, 1]],
                    "labels": {"s1": ["a"]}, "init": 0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=r"^robot 0: dangling transition \(0, 0\.5\)$"):
        load_model(path)


@pytest.mark.parametrize("init", [[0, 0, 1], [0], [0.5, 0], "c0_0"])
def test_grid_init_must_be_a_cell(tmp_path, init):
    payload = {"ap": [], "grid": {"width": 2, "height": 1}, "robots": [{"init": init}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=r"^robot 0: initial cell must be an index "
                                         r"or an \[x, y\] pair$"):
        load_model(path)


def explicit_robot(**entry):
    return {"ap": ["a"], "robots": [{"states": ["s0", "s1"],
                                     "transitions": [[0, 1], [1, 1], [0, 0]],
                                     "labels": {"s1": ["a"]}, "init": 0, **entry}]}


def grid(robots, **stanza):
    return {"ap": [], "grid": {"width": 2, "height": 1, **stanza}, "robots": robots}


# JSON true and false load as Python bools, which are ints; none of them
# may stand for a state, cell or robot index.
@pytest.mark.parametrize("payload, message", [
    (explicit_robot(transitions=[[0, True], [1, 1], [0, 0]]),
     "robot 0: dangling transition (0, True)"),
    (grid([{"init": 0}], regions={"A": [True]}),
     "grid cell must be an index or [x, y] pair: True"),
    (grid([{"init": 0}], regions={"A": [[0, False]]}),
     "grid cell must be an index or [x, y] pair: [0, False]"),
    (explicit_robot(init=False), "robot 0: initial state must be a name or an index"),
    (grid([{"init": [True, 0]}]),
     "robot 0: initial cell must be an index or an [x, y] pair"),
    (grid([{"init": True}]), "robot 0: initial cell must be an index or an [x, y] pair"),
    ({**grid([{"init": 0}, {"init": 1}]), "groups": {"g": [0, True]}},
     "group 'g' must be a list of robot indices"),
], ids=["transition-endpoint", "region-cell", "region-pair", "explicit-init",
        "grid-init-pair", "grid-init", "group-member"])
def test_load_rejects_a_bool_index(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == message


def test_load_rejects_unknown_label(tmp_path):
    payload = {
        "ap": [],
        "robots": [{"states": ["s0"], "transitions": [[0, 0]],
                    "labels": {"s0": ["mystery"]}, "init": 0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="unknown label"):
        load_model(path)


def test_validate_flags_ap_mismatch():
    ts1 = chain_ts()
    ts2 = TransitionSystem(("s0",), frozenset({(0, 0)}), ("b",), (frozenset(),))
    with pytest.raises(ModelError, match="^robot 1: atomic propositions differ from robot 0$"):
        MultiRobotInstance((ts1, ts2), (0, 0))


def test_validate_flags_bad_initial_state():
    with pytest.raises(ModelError, match="^robot 0: initial state 7 out of range$"):
        MultiRobotInstance((chain_ts(),), (7,))


def test_validate_clean_grid():
    ts = build_grid_system(4, 4, {"A": [[0, 0]]})
    inst = MultiRobotInstance((ts, ts), (0, 5))
    assert inst.n_robots == 2 and inst.ap == ("A",)


def test_label_vector_examples():
    ts = chain_ts(labels_on=("s1",))
    assert list(ts.label_vector("a")) == [0, 1, 0]
    all_on = chain_ts(labels_on=("s0", "s1", "s2"))
    assert list(all_on.label_vector("a")) == [1, 1, 1]
    none_on = chain_ts(labels_on=())
    assert list(none_on.label_vector("a")) == [0, 0, 0]
    with pytest.raises(ModelError, match="unknown proposition"):
        ts.label_vector("zz")


def test_label_vector_matches_membership():
    ts = build_grid_system(3, 3, {"A": [[0, 0], [2, 2]]})
    vec = ts.label_vector("A")
    for s in range(ts.n_states):
        assert (vec[s] == 1) == ("A" in ts.labels[s])


def start_counts(inst: MultiRobotInstance) -> tuple[int, ...]:
    """The occupancies the aggregate program pins at t = 0."""
    model = IlpModel()
    layout = Layout(model, inst, h=1)
    AggregateCounts(layout).emit()
    sol = solve_bnb(model)
    assert sol.feasible
    return tuple(round(sol[v]) for v in layout.agg_state[0])


def test_aggregate_view_counts_robots():
    ts = chain_ts()
    assert start_counts(MultiRobotInstance((ts, ts), (0, 0))) == (2, 0, 0)
    assert start_counts(MultiRobotInstance((ts, ts, ts), (0, 0, 1))) == (2, 1, 0)


def test_aggregate_view_total_is_exact():
    ts = build_grid_system(3, 2, {})
    inst = MultiRobotInstance(tuple([ts] * 5), (0, 1, 1, 4, 5))
    assert start_counts(inst) == (1, 2, 0, 0, 1, 1)


def test_aggregate_view_rejects_different_labels():
    ts1 = chain_ts(labels_on=("s1",))
    ts2 = chain_ts(labels_on=("s2",))
    inst = MultiRobotInstance((ts1, ts2), (0, 0))
    with pytest.raises(ModelError, match="labeling differs"):
        shared_system(inst)


def test_load_continuous_model(tmp_path):
    payload = {
        "continuous": {
            "robots": [
                {"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [0.0]},
                {"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [0.5]},
            ],
            "atoms": {"A": {"H": [[1.0], [-1.0]], "h": [1.1, -0.9]}},
            "state_bounds": [[-10.0, 10.0]],
            "input_bounds": [[-1.0, 1.0]],
        }
    }
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(payload))
    sys_ = load_model(path)
    assert isinstance(sys_, ContinuousSystem)
    assert sys_.n_robots == 2 and sys_.d_w == 1 and sys_.d_u == 1


def test_continuous_rejects_infinite_bounds(tmp_path):
    payload = {
        "continuous": {
            "robots": [{"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [0.0]}],
            "atoms": {},
            "state_bounds": [[-1e400, 10.0]],
            "input_bounds": [[-1.0, 1.0]],
        }
    }
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="finite"):
        load_model(path)


NAN, INF = float("nan"), float("inf")  # JSON NaN and Infinity


def one_integrator(**robot):
    return {"continuous": {
        "robots": [{"F": [[1.0]], "G": [[1.0]], "c": [0.0], "init": [0.0], **robot}],
        "atoms": {"A": {"H": [[1.0], [-1.0]], "h": [1.1, -0.9]}},
        "state_bounds": [[-10.0, 10.0]],
        "input_bounds": [[-1.0, 1.0]],
    }}


@pytest.mark.parametrize("payload, message", [
    ({"continuous": {**one_integrator()["continuous"], "robots": []}},
     "continuous model has no robots"),
    (one_integrator(F=1.0), "robot 0: F must be 1x1"),
    (one_integrator(G=1.0), "robot 0: G must be 1x1"),
    (one_integrator(c=0.0, init=[0.0, 1.0]),
     "robot 0: c must have length 1; robot 0: init must have length 1"),
    ({"continuous": {**one_integrator()["continuous"],
                     "atoms": {"A": {"H": [1.0], "h": [1.0]}}}},
     "atom 'A': H must have 1 columns"),
    ({"continuous": {**one_integrator()["continuous"], "input_bounds": [[1.0, -1.0]]}},
     "input bounds must satisfy lo <= hi"),
    (one_integrator(F=[[NAN]], init=[INF]),
     "robot 0: F must be finite; robot 0: init must be finite"),
    (one_integrator(G=[[-INF]], c=[NAN]),
     "robot 0: G must be finite; robot 0: c must be finite"),
    ({"continuous": {**one_integrator()["continuous"],
                     "atoms": {"A": {"H": [[NAN], [-1.0]], "h": [INF, -0.9]}}}},
     "atom 'A': H must be finite; atom 'A': h must be finite"),
], ids=["no-robots", "scalar-F", "scalar-G", "short-c-long-init", "flat-H", "empty-box",
        "nan-F-inf-init", "inf-G-nan-c", "nan-H-inf-h"])
def test_continuous_model_names_its_fault(tmp_path, payload, message):
    # no robots and a scalar F or G once ended in "tuple index out of range"
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == message


def test_instance_checks_run_at_construction():
    ts = chain_ts()
    other = TransitionSystem(("t0",), frozenset({(0, 0)}), ("a",), (frozenset(),))
    inst = MultiRobotInstance((ts, other), (0, 0))
    with pytest.raises(ModelError, match="^collision constraints require a shared state space$"):
        replace(inst, collision_mode="mutual_exclusion")
    with pytest.raises(ModelError, match="^unknown collision mode 'excl'$"):
        MultiRobotInstance((ts,), (0,), collision_mode="excl")
    with pytest.raises(ModelError, match="^group 'cam' is empty$"):
        MultiRobotInstance((ts,), (0,), {"cam": frozenset()})
    with pytest.raises(ModelError, match="^instance has no robots$"):
        MultiRobotInstance((), ())
    shared = MultiRobotInstance((ts, ts), (0, 1))
    assert replace(shared, collision_mode="mutual_exclusion").collision_mode == "mutual_exclusion"


def test_load_maps_collision_short_names(tmp_path):
    payload = {"ap": [], "grid": {"width": 2, "height": 1},
               "robots": [{"init": 0}, {"init": 1}], "collision": "swap"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert load_model(path).collision_mode == "mutual_exclusion_plus_swap"
    payload["collision"] = "sideways"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="^unknown collision mode 'sideways'$"):
        load_model(path)


def test_groups_loaded_and_checked(tmp_path):
    payload = {
        "ap": [],
        "grid": {"width": 2, "height": 2, "regions": {}},
        "robots": [{"init": 0}, {"init": 1}, {"init": 2}],
        "groups": {"cam": [0, 2]},
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    inst = load_model(path)
    assert inst.groups["cam"] == frozenset({0, 2})
    payload["groups"] = {"cam": [7]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="out of range"):
        load_model(path)
