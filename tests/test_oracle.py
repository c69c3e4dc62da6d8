"""Ground-truth evaluator cross-checks.

The oracle decides both logic layers with one bottom-up labeling kernel.
Its references in ``oracle_reference.py`` share no code with it: inner
formulas are compared with value iteration on the lasso quotient graph
(``fixpoint_eval``: least fixpoint for until, greatest for release), and
the outer kernel and the robust search with the earlier top-down oracle,
which counts tcps with ``fixpoint_eval``.
"""

import collections
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from cltlsynth.formula import (IAtom, IAlways, IAnd, IEventually, INext, INot,
                               IOr, IRelease, ITrue, IUntil, OAlways, OAnd,
                               OEventually, ONext, ONot, OOr, ORelease, OTrue,
                               OUntil, Tcp, iter_tcps, parse_formula,
                               parse_inner_formula)
from cltlsynth import oracle
from cltlsynth.oracle import (CHUNK, CollectiveExecution, CollectionOracle,
                              Lasso, Verdict, VerificationBudgetError, brute_force_synth,
                              check_robust, collision_violations, eval_inner, eval_outer)
from cltlsynth.system import MultiRobotInstance, TransitionSystem
from cltlsynth.trajectory import LassoTrajectory

import oracle_reference
from conftest import random_inner, random_lasso, random_outer


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
        reference = oracle_reference.fixpoint_eval(lasso, phi)
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
    assert (execution.cumulative.max(axis=1) - execution.cumulative.min(axis=1)).max() <= 1
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
        assert full.stats["mode"] == ("exhaustive" if tau else "synchronous")
        windowed = oracle_reference.tcp_windowed_violation(lassos, tcp, tau, t=0)
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
    # both verdicts of each mode: synchronous at tau = 0, exhaustive and
    # sampled above
    assert len(modes) == 6


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


@pytest.mark.parametrize("enumeration_cap", [5000, 700])  # exhaustive, sampled
def test_a_chunk_past_the_window_cap_is_checked_in_smaller_chunks(monkeypatch,
                                                                   enumeration_cap):
    # The collection above: each window is at most max_T 3 + loop start 3 +
    # joint period 1 = 7 steps for 4 robots, so a cap of 7 x 4 x 100
    # entries lets 100 executions through a call, not CHUNK.
    lassos = [lasso_from_text(set(), set(), set(), {"a"}, loop=3)] + [
        lasso_from_text(set(), loop=0) for _ in range(3)]
    mu = ONot(Tcp(IAtom("a"), 1))
    whole = check_robust(lassos, mu, tau=3, max_T=3, enumeration_cap=enumeration_cap)
    sizes = []
    values = CollectionOracle.values
    monkeypatch.setattr(CollectionOracle, "values",
                        lambda self, inc, mu: sizes.append(len(inc)) or values(self, inc, mu))
    monkeypatch.setattr(oracle, "WINDOW_CAP", 7 * 4 * 100)
    cut = check_robust(lassos, mu, tau=3, max_T=3, enumeration_cap=enumeration_cap)
    assert max(sizes) == 100 < CHUNK
    assert_same_verdict(cut, whole)
    assert cut.stats == whole.stats


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
                             "evaluations": 5149, "max_T": 3}
    assert peak < 4 << 20


def test_the_synchronous_check_of_a_large_fleet_builds_no_step_table():
    # at tau = 0 the one execution is the synchronous one; a table of all
    # 2^1000 increment vectors would never fit
    lassos = [lasso_from_text({"a"} if k % 2 else set(), {"a"}, loop=1) for k in range(1000)]
    for mu, status in ((parse_formula("G F [a, 1000]"), "verified"),
                       (parse_formula("[a, 501]"), "falsified")):
        start = time.perf_counter()
        verdict = check_robust(lassos, mu, tau=0)
        assert time.perf_counter() - start < 1.0
        assert verdict.status == status
        assert verdict.stats == {"mode": "synchronous", "sequences": 1, "evaluations": 1,
                                 "max_T": 0}
    tracemalloc.start()
    try:
        check_robust(lassos, mu, tau=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


# ---------------------------------------------------------------------------
# Window guard
# ---------------------------------------------------------------------------

PRIMES = (101, 103, 107, 109, 113)  # joint period 1.4e10


def prime_period_lassos():
    """One lasso per prime, looping from position 0, with ``a`` at it."""
    return [Lasso([frozenset({"a"})] + [frozenset()] * (p - 1) + [frozenset({"a"})], 0)
            for p in PRIMES]


def test_a_window_past_the_cap_is_refused_before_it_is_allocated():
    mu = parse_formula("G F [a, 1]")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(VerificationBudgetError, match="exceeds"):
            eval_outer(prime_period_lassos(), CollectiveExecution.synchronous(5), 0, mu)
        with pytest.raises(VerificationBudgetError, match="exceeds"):
            check_robust(prime_period_lassos(), mu, tau=1, max_T=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 1 << 20


def test_a_window_that_does_not_fit_in_memory_is_a_budget_error(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(oracle, "_label", out_of_memory)
    with pytest.raises(VerificationBudgetError, match="does not fit in memory"):
        eval_outer(three_trace_collection(), CollectiveExecution.synchronous(3), 0,
                   parse_formula("G F [p1, 1]"))


def test_the_window_cap_is_inclusive(monkeypatch):
    lassos = [lasso_from_text({"a"}, {"b"}, loop=0), lasso_from_text({"a"}, set(), {"b"}, loop=1)]
    # W = L + jp = 1 + lcm(2, 2) = 3 time steps for two robots: the second
    # robot is in its loop from time 1
    mu = parse_formula("G F [a, 1]")
    monkeypatch.setattr(oracle, "WINDOW_CAP", 6)
    assert eval_outer(lassos, CollectiveExecution.synchronous(2), 0, mu)
    monkeypatch.setattr(oracle, "WINDOW_CAP", 5)
    with pytest.raises(VerificationBudgetError):
        eval_outer(lassos, CollectiveExecution.synchronous(2), 0, mu)


def cycle(period: int, offset: int = 0) -> LassoTrajectory:
    """A robot going round states offset .. offset + period - 1 from the
    start, looping at once."""
    return LassoTrajectory(tuple(range(offset, offset + period)) + (offset,), 0)


def test_a_collision_window_past_the_cap_is_refused(monkeypatch):
    # the pair's own window, 23,209 + 537,822,157 + 1 steps, passes 2^29
    trajs = [cycle(23173), cycle(23209)]
    start = time.perf_counter()
    with pytest.raises(VerificationBudgetError, match="collision window"):
        collision_violations(trajs, "mutual_exclusion")
    assert time.perf_counter() - start < 1.0
    # two robots of periods 2 and 3: window 3 + 6 + 0 + 1 = 10 steps, one pair
    pair = [LassoTrajectory((0, 1, 0), 0), LassoTrajectory((2, 3, 4, 2), 0)]
    monkeypatch.setattr(oracle, "WINDOW_CAP", 10)
    assert collision_violations(pair, "mutual_exclusion") == []
    monkeypatch.setattr(oracle, "WINDOW_CAP", 9)
    with pytest.raises(VerificationBudgetError):
        collision_violations(pair, "mutual_exclusion")


def test_collisions_are_checked_over_each_pair_window():
    # disjoint cycles of 97, 101 and 103 states: a joint period of about a
    # million steps, but pair periods of about ten thousand
    trajs = [cycle(97), cycle(101, 100), cycle(103, 300)]
    start = time.perf_counter()
    assert collision_violations(trajs, "mutual_exclusion_plus_swap", tau=1) == []
    assert time.perf_counter() - start < 1.0


def test_a_repeated_meeting_is_reported_once_per_pair_period():
    # periods 2 and 3 share state 0 at every multiple of 6; the pair window
    # is 3 + 6 + 0 + 1 = 10 steps, so the meetings at 0 and 6 are reported,
    # and a third robot far away does not lengthen it
    trajs = [LassoTrajectory((0, 1, 0), 0), LassoTrajectory((0, 2, 3, 0), 0),
             cycle(5, 10)]
    assert collision_violations(trajs, "mutual_exclusion") == [
        "robots 0 and 1 meet at step 0(+0)", "robots 0 and 1 meet at step 6(+0)"]


@pytest.mark.parametrize("n, tau", [(3, 1), (4, 1), (3, 2)])
def test_sampled_steps_are_uniform_among_the_valid_ones(n, tau):
    # from every offset vector the sample meets, each step it draws keeps
    # the spread within tau, and every valid step comes up about equally often
    drawn = np.concatenate(list(oracle._sampled_sequences(n, tau, 4, 40000, 5, 300)))
    assert drawn.shape == (40000, 4, n)
    counters = np.zeros((len(drawn), n), dtype=np.int64)
    seen = {}
    for s in range(4):
        offsets = counters - counters.min(axis=1, keepdims=True)
        for before, step in zip(map(tuple, offsets.tolist()), map(tuple, drawn[:, s].tolist())):
            seen.setdefault(before, []).append(step)
        counters += drawn[:, s]
    for before, steps in seen.items():
        valid = [bits for bits in itertools.product((0, 1), repeat=n)
                 if max(np.add(before, bits)) - min(np.add(before, bits)) <= tau]
        counts = collections.Counter(steps)
        assert set(counts) <= set(valid), before
        if len(steps) >= 50 * len(valid):
            expected = len(steps) / len(valid)
            assert all(abs(counts[bits] - expected) <= 5 * expected ** 0.5
                       for bits in valid), before


def test_the_sample_does_not_depend_on_the_chunk_size():
    whole = np.concatenate(list(oracle._sampled_sequences(5, 1, 6, 1300, 9, CHUNK)))
    for size in (1, 7, 100):
        chunks = list(oracle._sampled_sequences(5, 1, 6, 1300, 9, size))
        assert max(map(len, chunks)) == size
        assert np.array_equal(np.concatenate(chunks), whole)


def test_sampling_a_large_fleet_builds_no_step_table():
    # 24 robots at tau = 1 once drew from a table of all 2^24 steps per
    # offset vector: a MemoryError under a 2 GiB cap after 2.9 s
    lassos = [lasso_from_text(set(), {"a"}, loop=0) for _ in range(24)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = check_robust(lassos, parse_formula("G F [a, 1]"), tau=1,
                               enumeration_cap=20000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == "verified_bounded" and verdict.stats["mode"] == "sampled"
    assert elapsed < 5.0
    assert peak < 4 << 20
