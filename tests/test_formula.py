"""Parser, printer, normal forms and fragment classification."""

import random

import pytest

from cltlsynth.formula import (FormulaSyntaxError, IAtom, IAnd, IEventually,
                               IAlways, INNER_FALSE, INot, ITrue, IUntil,
                               OAlways, OAnd, OEventually, ONot, OOr, ORelease,
                               OTrue, OUntil, Tcp,
                               expand_sugar, formula_length, is_cltl,
                               outer_false, parse_formula, parse_inner_formula,
                               resolve_groups, subformulas, to_pnf, to_text)
from cltlsynth.oracle import CollectiveExecution, eval_outer

from conftest import random_lasso, random_outer


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_counting_proposition_with_eventually():
    assert parse_formula("[F a, 5]") == Tcp(IEventually(IAtom("a")), 5)


def test_parse_true_literal():
    assert parse_formula("true") == OTrue()


def test_parse_emergency_style_conjunction():
    f = parse_formula("G !([D,1]) & (!([B,1]) U ([B1,1] & [B2,1]))")
    expected = OAnd((
        OAlways(ONot(Tcp(IAtom("D"), 1))),
        OUntil(ONot(Tcp(IAtom("B"), 1)),
               OAnd((Tcp(IAtom("B1"), 1), Tcp(IAtom("B2"), 1)))),
    ))
    assert f == expected


def test_parse_group_forms():
    assert parse_formula("[a, @cam, 2]") == Tcp(IAtom("a"), 2, "cam")
    assert parse_formula("[a, @{0,2}, 1]") == Tcp(IAtom("a"), 1, frozenset({0, 2}))


def test_parse_precedence_until_loosest():
    f = parse_formula("[a,1] U [b,1] | [c,1]")
    assert isinstance(f, OUntil)
    assert isinstance(f.rhs, OOr)


def test_parse_and_tighter_than_or():
    f = parse_formula("[a,1] | [b,1] & [c,1]")
    assert isinstance(f, OOr)
    assert isinstance(f.children[1], OAnd)


def test_parse_inner_operators_inside_brackets():
    f = parse_formula("[a U b & c, 2]")
    assert f == Tcp(IUntil(IAtom("a"), IAnd((IAtom("b"), IAtom("c")))), 2)


def test_parse_n_ary_collection_is_flat():
    f = parse_formula("[a,1] & [b,1] & [c,1]")
    assert isinstance(f, OAnd) and len(f.children) == 3


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("[a, 1")
    assert err.value.line == 1 and err.value.col > 1
    with pytest.raises(FormulaSyntaxError, match="negative robot count"):
        parse_formula("[a, -1]")
    with pytest.raises(FormulaSyntaxError, match="unexpected character"):
        parse_formula("[a, 1] $ [b, 1]")
    with pytest.raises(FormulaSyntaxError, match="group"):
        parse_formula("[a, @, 1]")
    with pytest.raises(FormulaSyntaxError, match="bare atom"):
        parse_formula("a U [b, 1]")


def test_false_literal_both_layers():
    assert parse_formula("false") == ONot(OTrue())
    assert parse_inner_formula("false") == INNER_FALSE


def test_parse_print_parse_fixed_point_random():
    rng = random.Random(7)
    for _ in range(300):
        f1 = parse_formula(to_text(random_outer(rng, 3, ["a", "b", "c"], 3)))
        f2 = parse_formula(to_text(f1))
        assert f1 == f2


def test_group_print_round_trip():
    f = Tcp(IAtom("a"), 2, frozenset({1, 3}))
    assert parse_formula(to_text(f)) == f


# ---------------------------------------------------------------------------
# Positive normal form
# ---------------------------------------------------------------------------

def test_pnf_dualizes_negated_tcp():
    phi = IAtom("a")
    assert to_pnf(ONot(Tcp(phi, 3)), 10) == Tcp(INot(phi), 8)


def test_pnf_double_negation():
    f = Tcp(IAtom("a"), 2)
    assert to_pnf(ONot(ONot(f)), 5) == f


def test_pnf_de_morgan_with_dualization():
    f = ONot(OAnd((Tcp(IAtom("a"), 1), Tcp(IAtom("b"), 2))))
    assert to_pnf(f, 2) == OOr((Tcp(INot(IAtom("a")), 2), Tcp(INot(IAtom("b")), 1)))


def test_pnf_group_uses_group_size():
    f = ONot(Tcp(IAtom("a"), 1, frozenset({0, 1})))
    assert to_pnf(f, 5) == Tcp(INot(IAtom("a")), 2, frozenset({0, 1}))


def test_pnf_clamps_and_warns():
    with pytest.warns(UserWarning, match="clamped"):
        out = to_pnf(ONot(Tcp(IAtom("a"), 7)), 3)
    assert out == OTrue()


def test_pnf_of_outer_false_is_unsatisfiable_tcp():
    assert to_pnf(ONot(OTrue()), 4) == outer_false(4)


def test_pnf_preserves_semantics_randomly():
    rng = random.Random(11)
    atoms = ["a", "b"]
    for trial in range(200):
        n = rng.randint(1, 3)
        f = random_outer(rng, rng.randint(1, 4), atoms, n)
        g = to_pnf(f, n)
        lassos = [random_lasso(rng, atoms, rng.randint(1, 6)) for _ in range(n)]
        sync = CollectiveExecution.synchronous(n)
        for t in range(3):
            assert eval_outer(lassos, sync, t, f) == eval_outer(lassos, sync, t, g), \
                f"trial {trial} at t={t}: {to_text(f)} vs {to_text(g)}"


def test_pnf_always_reaches_positive_form():
    rng = random.Random(13)
    for _ in range(200):
        g = to_pnf(random_outer(rng, 4, ["a", "b"], 3), 3)
        assert not any(isinstance(node, ONot) for node in subformulas(g))
        for tcp in (node for node in subformulas(g) if isinstance(node, Tcp)):
            assert all(isinstance(node.child, (IAtom, ITrue))
                       for node in subformulas(tcp.inner) if isinstance(node, INot))


# ---------------------------------------------------------------------------
# Sugar expansion
# ---------------------------------------------------------------------------

def test_expand_sugar_robust_eventually():
    f = OEventually(Tcp(IAtom("p"), 4))
    out = expand_sugar(f, 10, robust=True)
    assert out == OUntil(Tcp(INot(IAtom("p")), 7), Tcp(IAtom("p"), 4))


def test_expand_sugar_plain_eventually():
    f = OEventually(Tcp(IAtom("p"), 4))
    assert expand_sugar(f, 10, robust=False) == OUntil(OTrue(), Tcp(IAtom("p"), 4))


def test_expand_sugar_always_to_release_without_negation():
    f = OAlways(Tcp(IAtom("p"), 1))
    out = expand_sugar(f, 3, robust=False)
    assert out == ORelease(outer_false(3), Tcp(IAtom("p"), 1))
    assert not any(isinstance(n, ONot) for n in subformulas(out))


def test_expand_sugar_preserves_semantics():
    rng = random.Random(17)
    atoms = ["a", "b"]
    for robust in (False, True):
        for _ in range(120):
            n = rng.randint(1, 3)
            f = random_outer(rng, 3, atoms, n)
            g = expand_sugar(f, n, robust=robust)
            lassos = [random_lasso(rng, atoms, rng.randint(1, 5)) for _ in range(n)]
            sync = CollectiveExecution.synchronous(n)
            assert eval_outer(lassos, sync, 0, f) == eval_outer(lassos, sync, 0, g)


# ---------------------------------------------------------------------------
# Fragments and length
# ---------------------------------------------------------------------------

def test_fragment_atomic_inner_is_cltl():
    assert is_cltl(OAlways(OEventually(Tcp(IAtom("a"), 2))))
    # a tcp counts a literal: an atom or true, or the negation of one
    assert is_cltl(Tcp(INot(IAtom("a")), 2))
    assert is_cltl(Tcp(INot(INot(IAtom("a"))), 2))
    assert is_cltl(Tcp(ITrue(), 2))
    assert not is_cltl(Tcp(INot(IAnd((IAtom("a"), IAtom("b")))), 2))


def test_fragment_temporal_inner_is_not_cltl():
    assert not is_cltl(Tcp(IAlways(IEventually(IAtom("a"))), 2))


def test_formula_length_counts_nodes():
    assert formula_length(OTrue()) == 1
    assert formula_length(Tcp(IAtom("a"), 1)) == 2
    assert formula_length(OAlways(OEventually(Tcp(IAtom("a"), 2)))) == 4


def test_resolve_groups():
    f = OAnd((Tcp(IAtom("a"), 1, "cam"), Tcp(IAtom("b"), 1)))
    out = resolve_groups(f, {"cam": frozenset({0, 2})})
    assert out.children[0].group == frozenset({0, 2})
    with pytest.raises(KeyError):
        resolve_groups(f, {})


def test_pnf_requires_resolved_groups():
    with pytest.raises(ValueError, match="resolve groups"):
        to_pnf(ONot(Tcp(IAtom("a"), 1, "cam")), 3)
