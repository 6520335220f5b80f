import random
from fractions import Fraction as F

import pytest

from ratiobound import (
    InputError,
    Nfa,
    Query,
    ResourceError,
    WeightedAutomaton,
    eventually_included,
    lc_check,
    nfa_contained,
)
from ratiobound.automata import explore, nfa_of
from ratiobound.samples import unbounded_ratio

from helpers import random_nfa, random_unary_nfa, random_wa
from oracles import UnaryLasso, lasso_difference_finite, ref_nfa_contained


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


def test_nfa_contained_prefix():
    n1 = unary_nfa_tail(4)
    n2 = unary_nfa_tail(2)
    assert nfa_contained(n1, n2).holds
    res = nfa_contained(n2, n1)
    assert not res.holds and len(res.counterexample) == 2


def test_determinize_cap():
    """The subset construction of a unary NFA through `explore` keeps
    exactly `cap` states and raises ResourceError one below."""
    rng = random.Random(23)
    for _ in range(10):
        n = random_unary_nfa(rng, nstates=5)
        seeds = [frozenset([n.start])]

        def succ(sub):
            return [("a", n.step(sub, "a"))]

        subsets, edges = explore(seeds, succ)
        assert subsets[0] == seeds[0] and len(edges) == len(subsets)
        assert explore(seeds, succ, cap=len(subsets)) == (subsets, edges)
        if len(subsets) > 1:
            with pytest.raises(ResourceError):
                explore(seeds, succ, cap=len(subsets) - 1)


def test_containment_matches_the_reference_search():
    """Verdict and shortest counterexample equal those of the word-per-pair
    frontier search: on every ordered pair of distinct states of 2,000
    unary draws, and on 1,000 multi-letter NFA pairs, half of them over
    different alphabets."""
    rng = random.Random(3)
    pairs = []
    for _ in range(2000):
        wa = random_wa(rng)
        nfas = [nfa_of(wa, q) for q in wa.states]
        pairs += [(n1, n2) for n1 in nfas for n2 in nfas if n1 is not n2]
    rng = random.Random(4)
    for i in range(1000):
        other = ("b", "a") if i % 2 else ("a", "b", "c")
        pairs.append((random_nfa(rng, 4), random_nfa(rng, 4, other)))
    verdicts = set()
    for n1, n2 in pairs:
        got = nfa_contained(n1, n2)
        assert got == ref_nfa_contained(n1, n2), (n1, n2)
        verdicts.add((len(n1.alphabet), got.holds, bool(got.counterexample)))
    assert verdicts == {(k, h, c) for k in (1, 2) for h, c in ((True, False), (False, False), (False, True))}
