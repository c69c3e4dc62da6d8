"""Ground-truth evaluator cross-checks.

The reference implementation here is value iteration on the lasso quotient
graph (least fixpoint for until, greatest for release), a deliberately
different algorithm from the oracle's scan-based evaluation.  The batched
outer kernel and the robust search are compared with the earlier top-down
oracle kept in ``oracle_reference.py``.
"""

import random
import tracemalloc

import numpy as np
import pytest

from cltlsynth.formula import (IAtom, IAlways, IAnd, IEventually, INext, INot,
                               IOr, IRelease, ITrue, IUntil, OAlways, OAnd,
                               OEventually, ONext, ONot, OOr, ORelease, OTrue,
                               OUntil, Tcp, iter_tcps, parse_formula,
                               parse_inner_formula)
from cltlsynth.oracle import (CHUNK, CollectiveExecution, CollectionOracle,
                              Lasso, Verdict, brute_force_synth,
                              check_robust, eval_inner, eval_outer,
                              tcp_windowed_violation)
from cltlsynth.system import MultiRobotInstance, TransitionSystem

import oracle_reference
from conftest import random_inner, random_lasso, random_outer


def fixpoint_eval(lasso: Lasso, phi) -> list:
    """Reference evaluator: satisfaction per quotient position, by fixpoint
    iteration over succ(t) = t+1 (wrapping into the loop)."""
    h = lasso.horizon
    positions = list(range(h))
    succ = [t + 1 if t + 1 < h else lasso.loop_start for t in positions]

    def values(node) -> list:
        if isinstance(node, ITrue):
            return [True] * h
        if isinstance(node, IAtom):
            return [node.name in lasso.labels[t] for t in positions]
        if isinstance(node, INot):
            return [not v for v in values(node.child)]
        if isinstance(node, IAnd):
            rows = [values(c) for c in node.children]
            return [all(r[t] for r in rows) for t in positions]
        if isinstance(node, IOr):
            rows = [values(c) for c in node.children]
            return [any(r[t] for r in rows) for t in positions]
        if isinstance(node, INext):
            child = values(node.child)
            return [child[succ[t]] for t in positions]
        if isinstance(node, (IUntil, IEventually)):
            lhs = values(node.lhs) if isinstance(node, IUntil) else [True] * h
            rhs = values(node.rhs if isinstance(node, IUntil) else node.child)
            val = [False] * h
            for _ in range(h + 1):
                val = [rhs[t] or (lhs[t] and val[succ[t]]) for t in positions]
            return val
        if isinstance(node, (IRelease, IAlways)):
            lhs = values(node.lhs) if isinstance(node, IRelease) else [False] * h
            rhs = values(node.rhs if isinstance(node, IRelease) else node.child)
            val = [True] * h
            for _ in range(h + 1):
                val = [rhs[t] and (lhs[t] or val[succ[t]]) for t in positions]
            return val
        raise TypeError(node)

    return values(phi)


# ---------------------------------------------------------------------------
# Inner evaluation
# ---------------------------------------------------------------------------

def lasso_from_text(*label_sets, loop):
    labels = [frozenset(s) for s in label_sets]
    labels.append(labels[loop])
    return Lasso(labels, loop)


def test_always_on_constant_trace():
    lasso = lasso_from_text({"a"}, {"a"}, {"a"}, loop=0)
    assert eval_inner(lasso, 0, parse_inner_formula("G a"))


def test_eventually_through_loop():
    lasso = lasso_from_text(set(), set(), {"a"}, loop=2)
    assert eval_inner(lasso, 0, parse_inner_formula("F a"))
    assert eval_inner(lasso, 0, parse_inner_formula("G F a"))


def test_next_wraps_into_loop():
    # position h-1's successor is the loop start
    lasso = lasso_from_text({"b"}, {"a"}, set(), loop=1)
    # positions: b a _ then loop a _ a _ ...
    assert eval_inner(lasso, 2, parse_inner_formula("X a"))
    assert not eval_inner(lasso, 1, parse_inner_formula("X a"))


def test_until_examples():
    lasso = lasso_from_text({"a"}, {"a"}, {"b"}, loop=2)
    assert eval_inner(lasso, 0, parse_inner_formula("a U b"))
    without_b = lasso_from_text({"a"}, {"a"}, set(), loop=2)
    assert not eval_inner(without_b, 0, parse_inner_formula("a U b"))


def test_inner_matches_fixpoint_reference():
    rng = random.Random(41)
    atoms = ["a", "b"]
    for trial in range(400):
        lasso = random_lasso(rng, atoms, rng.randint(1, 7))
        phi = random_inner(rng, rng.randint(1, 4), atoms)
        reference = fixpoint_eval(lasso, phi)
        for t in range(lasso.horizon):
            assert eval_inner(lasso, t, phi) == reference[t], \
                f"trial {trial}, t={t}, phi={phi}"


# ---------------------------------------------------------------------------
# Collective executions and anchors
# ---------------------------------------------------------------------------

def test_anchor_of_partially_advanced_execution():
    execution = CollectiveExecution([[1, 1, 1], [0, 1, 0]])
    assert execution.counters(2) == (1, 2, 1)
    assert execution.anchor(2) == 1
    assert execution.counters(1) == (1, 1, 1)
    assert execution.anchor(1) == 1


def test_anchor_of_synchronous_execution_is_identity():
    k_star = CollectiveExecution.synchronous(3)
    for t in range(6):
        assert k_star.anchor(t) == t
        assert k_star.counters(t) == (t, t, t)


def test_max_spread():
    execution = CollectiveExecution([[1, 0], [1, 0], [0, 1]])
    assert execution.max_spread() == 2
    assert CollectiveExecution.synchronous(4).max_spread() == 0


def test_execution_rejects_bad_increments():
    with pytest.raises(ValueError):
        CollectiveExecution([[2, 0]])


# ---------------------------------------------------------------------------
# Outer evaluation
# ---------------------------------------------------------------------------

def test_simultaneity_separates_the_two_counting_styles():
    # both robots visit 'a' infinitely often but never together
    r1 = lasso_from_text({"a"}, set(), loop=0)
    r2 = lasso_from_text(set(), {"a"}, loop=0)
    sync = CollectiveExecution.synchronous(2)
    relaxed = Tcp(IAlways(IEventually(IAtom("a"))), 2)
    simultaneous = OAlways(OEventually(Tcp(IAtom("a"), 2)))
    assert eval_outer([r1, r2], sync, 0, relaxed)
    assert not eval_outer([r1, r2], sync, 0, simultaneous)


def test_outer_true_everywhere():
    rng = random.Random(43)
    lassos = [random_lasso(rng, ["a"], 3) for _ in range(2)]
    execution = CollectiveExecution([[1, 0], [0, 1]])
    for t in range(4):
        assert eval_outer(lassos, execution, t, OTrue())


def test_group_restricted_counting():
    r1 = lasso_from_text({"a"}, {"a"}, loop=0)
    r2 = lasso_from_text(set(), set(), loop=0)
    sync = CollectiveExecution.synchronous(2)
    assert eval_outer([r1, r2], sync, 0, Tcp(IAtom("a"), 1, frozenset({0})))
    assert not eval_outer([r1, r2], sync, 0, Tcp(IAtom("a"), 1, frozenset({1})))


def test_outer_matches_tcp_projection_under_sync():
    """Project each tcp to a pseudo-atom sequence, then reuse the (already
    cross-checked) inner evaluator on the projected lasso."""
    rng = random.Random(47)
    atoms = ["a", "b"]
    for trial in range(150):
        n = rng.randint(1, 3)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 5)) for _ in range(n)]
        mu = random_outer(rng, rng.randint(1, 3), atoms, n)
        tcps = list(dict.fromkeys(iter_tcps(mu)))
        names = {tcp: f"t{i}" for i, tcp in enumerate(tcps)}
        oracle = CollectionOracle(lassos)
        sync = CollectiveExecution.synchronous(n)
        # tcp truth under K* is eventually periodic: after every robot is in
        # its loop, positions repeat with the joint period
        import math
        entry = max(l.loop_start for l in lassos)
        period = math.lcm(*[l.period for l in lassos])
        labels = []
        for t in range(entry + period + 1):
            labels.append(frozenset(
                names[tcp] for tcp in tcps
                if oracle.tcp_count(tcp, [t] * n) >= tcp.m))
        projected = Lasso(labels, entry)

        def project(node):
            if isinstance(node, OTrue):
                return ITrue()
            if isinstance(node, Tcp):
                return IAtom(names[node])
            if isinstance(node, ONot):
                return INot(project(node.child))
            if isinstance(node, OAnd):
                return IAnd(tuple(project(c) for c in node.children))
            if isinstance(node, OOr):
                return IOr(tuple(project(c) for c in node.children))
            if isinstance(node, ONext):
                return INext(project(node.child))
            if isinstance(node, OEventually):
                return IEventually(project(node.child))
            if isinstance(node, OAlways):
                return IAlways(project(node.child))
            if isinstance(node, OUntil):
                return IUntil(project(node.lhs), project(node.rhs))
            if isinstance(node, ORelease):
                return IRelease(project(node.lhs), project(node.rhs))
            raise TypeError(node)

        phi = project(mu)
        for t in range(3):
            assert (eval_outer(lassos, sync, t, mu)
                    == eval_inner(projected, t, phi)), f"trial {trial} t={t}"


def test_stutter_invariance_for_next_free_formulas():
    rng = random.Random(53)
    atoms = ["a", "b"]
    for trial in range(60):
        n = rng.randint(1, 3)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 4)) for _ in range(n)]
        mu = random_outer(rng, 2, atoms, n, allow_next=False, inner_next=False)
        base = eval_outer(lassos, CollectiveExecution.synchronous(n), 0, mu)
        # insert up to two synchronized stutters per step
        for pattern_seed in range(3):
            prng = random.Random(pattern_seed)
            rows = []
            for _ in range(5):
                for _ in range(prng.randint(0, 2)):
                    rows.append([0] * n)
                rows.append([1] * n)
            stuttered = CollectiveExecution(np.array(rows))
            assert eval_outer(lassos, stuttered, 0, mu) == base, f"trial {trial}"


# ---------------------------------------------------------------------------
# Robust falsification search
# ---------------------------------------------------------------------------

def three_trace_collection():
    r1 = lasso_from_text({"p1"}, {"p1"}, loop=0)
    r2 = lasso_from_text({"p1"}, {"p2"}, {"p2"}, loop=1)
    r3 = lasso_from_text({"p2"}, {"p2"}, loop=0)
    return [r1, r2, r3]


def test_disjunction_is_robust_but_neither_disjunct_is():
    lassos = three_trace_collection()
    mu1 = Tcp(IAtom("p1"), 2)
    mu2 = Tcp(IAtom("p2"), 2)
    both = OOr((mu1, mu2))
    assert not check_robust(lassos, both, tau=1, max_T=4).falsified
    v1 = check_robust(lassos, mu1, tau=1, max_T=4)
    assert v1.falsified
    execution, t_bad = v1.counterexample
    assert not eval_outer(lassos, execution, t_bad, mu1)
    assert execution.max_spread() <= 1
    assert check_robust(lassos, mu2, tau=1, max_T=4).falsified


def test_check_robust_tau0_matches_synchronous_evaluation():
    rng = random.Random(59)
    atoms = ["a", "b"]
    for _ in range(40):
        n = rng.randint(1, 3)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 4)) for _ in range(n)]
        mu = random_outer(rng, 2, atoms, n, allow_not=False,
                          allow_next=False, inner_next=False)
        verdict = check_robust(lassos, mu, tau=0, max_T=4, enumeration_cap=2000)
        sync_value = eval_outer(lassos, CollectiveExecution.synchronous(n), 0, mu)
        assert (not verdict.falsified) == sync_value


def test_windowed_check_matches_execution_enumeration_for_tcp():
    rng = random.Random(61)
    atoms = ["a"]
    for trial in range(60):
        n = rng.randint(1, 3)
        tau = rng.randint(0, 1)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 4)) for _ in range(n)]
        tcp = Tcp(random_inner(rng, 1, atoms, allow_next=False), rng.randint(0, n))
        full = check_robust(lassos, tcp, tau, max_T=4, enumeration_cap=100000)
        assert full.stats["mode"] == "exhaustive"
        windowed = tcp_windowed_violation(lassos, tcp, tau, t=0)
        assert full.falsified == (windowed is not None), f"trial {trial}"


def test_check_robust_counterexample_is_lexicographically_least():
    lassos = three_trace_collection()
    mu = Tcp(IAtom("p1"), 2)
    verdict = check_robust(lassos, mu, tau=1, max_T=3)
    execution, t_bad = verdict.counterexample
    # Stutter-only prefixes keep the count at 2; the first violating pattern
    # in increment order advances exactly robot 1 in the last step.
    assert execution.increments.tolist() == [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    assert t_bad == 3


def test_check_robust_sampling_mode_on_large_windows():
    lassos = three_trace_collection()
    mu = Tcp(IAtom("p1"), 2)
    verdict = check_robust(lassos, mu, tau=1, max_T=12, enumeration_cap=50, seed=3)
    assert verdict.stats["mode"] == "sampled"
    assert verdict.falsified  # violations are dense enough to sample


def assert_same_verdict(got: Verdict, want: Verdict):
    assert (got.status, got.stats) == (want.status, want.stats)
    if want.falsified:
        assert got.counterexample[1] == want.counterexample[1]
        assert (got.counterexample[0].increments.tolist()
                == want.counterexample[0].increments.tolist())


def test_eval_outer_matches_reference_on_asynchronous_executions():
    rng = random.Random(67)
    atoms = ["a", "b"]
    for trial in range(150):
        n = rng.randint(1, 3)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 5)) for _ in range(n)]
        mu = random_outer(rng, rng.randint(1, 3), atoms, n)
        steps = rng.randint(0, 6)
        execution = CollectiveExecution(np.array(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(steps)],
            dtype=np.int64).reshape(steps, n))
        # times past every window wrap through the joint period
        for t in (0, 1, 2, 5, 13, 61):
            assert (eval_outer(lassos, execution, t, mu)
                    == oracle_reference.evaluate(lassos, execution, mu, t)), \
                f"trial {trial}, t={t}"


def test_check_robust_matches_reference():
    rng = random.Random(71)
    atoms = ["a", "b"]
    modes = set()
    for trial in range(120):
        n = rng.randint(1, 3)
        tau = rng.randint(0, 2)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 4)) for _ in range(n)]
        mu = random_outer(rng, rng.randint(1, 3), atoms, n)
        kwargs = dict(max_T=rng.randint(0, 4), enumeration_cap=rng.choice([1, 30, 600]),
                      seed=rng.randint(0, 9))
        got = check_robust(lassos, mu, tau, **kwargs)
        assert_same_verdict(got, oracle_reference.check_robust(lassos, mu, tau, **kwargs))
        modes.add((got.status, got.stats["mode"]))
    assert len(modes) == 4  # both verdicts, exhaustive and sampled


def test_first_violation_in_a_later_chunk():
    # Robot 0 shows 'a' from local step 3 on; the others never do.  With
    # tau = 3 every one of the 16^3 increment sequences of length 3 is
    # valid, and only robot 0 advancing at every step while another robot
    # stays at 0 violates "no robot at a" at an anchored time.  The least
    # such sequence, (1,0,0,0) three times, is number 2048.
    lassos = [lasso_from_text(set(), set(), set(), {"a"}, loop=3)] + [
        lasso_from_text(set(), loop=0) for _ in range(3)]
    mu = ONot(Tcp(IAtom("a"), 1))
    got = check_robust(lassos, mu, tau=3, max_T=3, enumeration_cap=5000)
    assert got.stats["sequences"] == 16 ** 3 > 4 * CHUNK
    assert got.counterexample[0].increments.tolist() == [[1, 0, 0, 0]] * 3
    assert_same_verdict(got, oracle_reference.check_robust(
        lassos, mu, tau=3, max_T=3, enumeration_cap=5000))


def test_zero_step_budget_checks_the_initial_state():
    lassos = three_trace_collection()
    for mu, falsified in ((Tcp(IAtom("p1"), 2), False), (Tcp(IAtom("p1"), 3), True)):
        verdict = check_robust(lassos, mu, tau=1, max_T=0)
        assert verdict.stats == {"mode": "exhaustive", "sequences": 1,
                                 "evaluations": 1, "max_T": 0}
        assert verdict.falsified == falsified
        assert_same_verdict(verdict, oracle_reference.check_robust(lassos, mu, tau=1, max_T=0))
    execution, t_bad = verdict.counterexample
    assert execution.increments.shape == (0, 3) and t_bad == 0


@pytest.mark.parametrize("kwargs", [dict(max_T=-1), dict(enumeration_cap=0),
                                    dict(enumeration_cap=-5)])
def test_check_robust_rejects_bad_budgets(kwargs):
    with pytest.raises(ValueError):
        check_robust(three_trace_collection(), Tcp(IAtom("p1"), 2), tau=1, **kwargs)


def test_sampling_many_robots_stays_small():
    # 8 robots at tau = 1 have 833664 sequences of length 3; neither the
    # enumeration that finds this out nor the sampling may hold them all.
    rng = random.Random(3)
    lassos = [random_lasso(rng, ["a"], 3) for _ in range(8)]
    mu = parse_formula("G [a, 0]")
    tracemalloc.start()
    try:
        verdict = check_robust(lassos, mu, tau=1, max_T=3, enumeration_cap=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.stats == {"mode": "sampled", "sequences": 2000,
                             "evaluations": 5150, "max_T": 3}
    assert peak < 4 << 20


# ---------------------------------------------------------------------------
# Exhaustive synthesis
# ---------------------------------------------------------------------------

def chain_instance():
    ts = TransitionSystem(
        states=("s0", "s1"),
        transitions=frozenset({(0, 1), (1, 1)}),
        ap=("a",),
        labels=(frozenset(), frozenset({"a"})),
    )
    return MultiRobotInstance((ts,), (0,))


def test_brute_force_finds_advancing_lasso():
    inst = chain_instance()
    result = brute_force_synth(inst, OEventually(Tcp(IAtom("a"), 1)), h=2)
    assert result is not None
    traj = result[0]
    assert traj.states[0] == 0 and 1 in traj.states
    assert traj.states[traj.loop_start] == traj.states[-1]


def test_brute_force_unsatisfiable_count():
    inst = chain_instance()
    assert brute_force_synth(inst, Tcp(IAtom("a"), 2), h=3) is None


def test_brute_force_space_guard():
    ts = TransitionSystem(tuple(f"s{i}" for i in range(6)),
                          frozenset((i, j) for i in range(6) for j in range(6)),
                          ("a",), tuple(frozenset() for _ in range(6)))
    inst = MultiRobotInstance((ts, ts, ts), (0, 0, 0))
    with pytest.raises(ValueError, match="exceeds the cap"):
        brute_force_synth(inst, OTrue(), h=6)
