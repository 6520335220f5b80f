import random
from fractions import Fraction as F
from itertools import product

import pytest

from ratiobound import (
    ChrobakNf,
    InputError,
    Nfa,
    Query,
    UnaryLasso,
    WeightedAutomaton,
    eventually_included,
    lc_check,
    nfa_complement_within,
    nfa_contained,
    nfa_product,
    to_chrobak,
    to_restricted_chrobak,
)
from ratiobound.nfaops import chrobak_to_nfa, lasso_difference_finite
from ratiobound.samples import unbounded_ratio

from helpers import random_unary_nfa


def test_lc_holds_on_equal_languages():
    wa = unbounded_ratio()
    assert lc_check(Query(wa, "s", "s'")).holds
    assert lc_check(Query(wa, "s'", "s")).holds


def test_lc_empty_language_cases():
    wa = WeightedAutomaton.from_transitions(
        ["e", "p", "t"], ["a"], [("p", "a", F(1), "t")], ["t"]
    )
    assert lc_check(Query(wa, "e", "p")).holds
    res = lc_check(Query(wa, "p", "e"))
    assert not res.holds and res.counterexample == "a"


def test_lc_shortest_counterexample():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a", "b"],
        [
            ("p", "a", F(1, 2), "p"),
            ("p", "b", F(1, 2), "t"),
            ("q", "a", F(1, 2), "q"),
            ("q", "b", F(1, 4), "q"),
        ],
        ["t"],
    )
    res = lc_check(Query(wa, "p", "q"))
    assert res.counterexample == "b"


def test_lc_epsilon_counterexample():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q"], ["a"], [("q", "a", F(1), "p")], ["p"]
    )
    res = lc_check(Query(wa, "p", "q"))
    assert not res.holds and res.counterexample == ""


def unary_nfa_cyclic(pred, period=2):
    states = tuple(f"c{i}" for i in range(period))
    trans = frozenset(
        (states[i], "a", states[(i + 1) % period]) for i in range(period)
    )
    finals = frozenset(states[i] for i in range(period) if pred(i))
    return Nfa(states, ("a",), trans, states[0], finals)


def unary_nfa_tail(k):
    states = tuple(f"t{i}" for i in range(k + 1))
    trans = frozenset(
        [(states[i], "a", states[i + 1]) for i in range(k)]
        + [(states[k], "a", states[k])]
    )
    return Nfa(states, ("a",), trans, states[0], frozenset([states[k]]))


def test_eventually_included_examples_exact():
    evens = unary_nfa_cyclic(lambda n: n % 2 == 0)
    atleast3 = unary_nfa_tail(3)
    # evens \ {n >= 3} = {0, 2}: finite, so eventual inclusion holds
    res = eventually_included(evens, atleast3)
    assert res.included
    # reversed: {n >= 3} \ evens = odd n >= 3: infinite
    res2 = eventually_included(atleast3, evens)
    assert not res2.included
    assert res2.smallest_witness is not None and res2.smallest_witness % 2 == 1
    assert res2.witness_length % 2 == 1


def test_eventually_included_reflexive():
    rng = random.Random(2)
    for _ in range(10):
        n = random_unary_nfa(rng, nstates=5)
        assert eventually_included(n, n).included


def test_eventually_included_matches_lasso_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n1 = random_unary_nfa(rng, nstates=rng.randint(2, 6))
        n2 = random_unary_nfa(rng, nstates=rng.randint(2, 6))
        got = eventually_included(n1, n2).included
        want = lasso_difference_finite(UnaryLasso.from_nfa(n1), UnaryLasso.from_nfa(n2))
        assert got == want


def test_eventually_included_transitive_on_oracle_triples():
    rng = random.Random(29)
    found = 0
    for _ in range(300):
        a = random_unary_nfa(rng, nstates=4)
        b = random_unary_nfa(rng, nstates=4)
        c = random_unary_nfa(rng, nstates=4)
        if eventually_included(a, b).included and eventually_included(b, c).included:
            found += 1
            assert eventually_included(a, c).included
    assert found > 5


def test_eventually_included_rejects_non_unary():
    two = Nfa(("x",), ("a", "b"), frozenset(), "x", frozenset())
    one = unary_nfa_tail(1)
    with pytest.raises(InputError):
        eventually_included(two, one)


def test_chrobak_single_cycle_shape():
    cyc = Nfa(
        ("c0", "c1", "c2"),
        ("a",),
        frozenset({("c0", "a", "c1"), ("c1", "a", "c2"), ("c2", "a", "c0")}),
        "c0",
        frozenset({"c1"}),
    )
    c = to_chrobak(cyc)
    assert len(c.stem) == 1
    assert len(c.cycles) == 1 and c.cycles[0][0] == 3


def test_chrobak_language_preserved():
    rng = random.Random(31)
    for _ in range(25):
        n = random_unary_nfa(rng, nstates=rng.randint(2, 6))
        c = to_chrobak(n)
        r = to_restricted_chrobak(c)
        horizon = 2 * (len(n.states) + c.size()) ** 2
        for k in range(horizon + 1):
            want = n.accepts("a" * k)
            assert c.accepts(k) == want
            assert r.accepts(k) == want


def test_restricted_chrobak_splits_offsets():
    c = ChrobakNf((False,), ((4, frozenset({1, 3})),))
    r = to_restricted_chrobak(c)
    assert len(r.cycles) == 2
    assert all(len(offs) == 1 for _, offs in r.cycles)
    for k in range(20):
        assert c.accepts(k) == r.accepts(k)


def test_chrobak_to_nfa_round_trip():
    c = ChrobakNf((True, False), ((2, frozenset({0})), (3, frozenset({2}))))
    n = chrobak_to_nfa(c)
    for k in range(30):
        assert n.accepts("a" * k) == c.accepts(k)


def test_nfa_product_intersection_self():
    n = unary_nfa_cyclic(lambda i: i == 0, period=3)
    p = nfa_product(n, n, "intersect")
    for k in range(12):
        assert p.accepts("a" * k) == n.accepts("a" * k)


def test_nfa_product_difference_self_empty():
    n = unary_nfa_tail(2)
    d = nfa_product(n, n, "difference")
    assert not any(d.accepts("a" * k) for k in range(12))


def test_nfa_product_general_difference():
    rng = random.Random(17)
    for _ in range(15):
        n1 = random_unary_nfa(rng, nstates=4)
        n2 = random_unary_nfa(rng, nstates=4)
        d = nfa_product(n1, n2, "difference")
        for k in range(25):
            w = "a" * k
            assert d.accepts(w) == (n1.accepts(w) and not n2.accepts(w))


def test_complement_within_exhaustive():
    letters = ("a", "b", "c")
    # language: a^i b^j c^k with i odd, any j, k >= 2
    states = ("s0", "s1", "b0", "c0", "c1", "c2")
    trans = frozenset(
        {
            ("s0", "a", "s1"),
            ("s1", "a", "s0"),
            ("s1", "b", "b0"),
            ("b0", "b", "b0"),
            ("b0", "c", "c1"),
            ("c1", "c", "c2"),
            ("c2", "c", "c2"),
        }
    )
    n = Nfa(states, letters, trans, "s0", frozenset({"c2"}))
    comp = nfa_complement_within(n, letters)
    for i, j, k in product(range(1, 5), repeat=3):
        w = "a" * i + "b" * j + "c" * k
        assert comp.accepts(w) == (not n.accepts(w))
    # words outside the bound are never accepted
    assert not comp.accepts("ba")
    assert not comp.accepts("")


def test_nfa_contained_prefix():
    n1 = unary_nfa_tail(4)
    n2 = unary_nfa_tail(2)
    assert nfa_contained(n1, n2).holds
    res = nfa_contained(n2, n1)
    assert not res.holds and len(res.counterexample) == 2


def test_determinize_cap():
    from ratiobound import ResourceError
    from ratiobound.nfaops import determinize

    rng = random.Random(23)
    for _ in range(10):
        n = random_unary_nfa(rng, nstates=5)
        subsets, trans, start = determinize(n)
        assert start == 0 and len(trans) == len(subsets) * len(n.alphabet)
        assert determinize(n, cap=len(subsets)) == (subsets, trans, start)
        if len(subsets) > 1:
            with pytest.raises(ResourceError):
                determinize(n, cap=len(subsets) - 1)
