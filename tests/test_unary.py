import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ratiobound import (
    INF,
    InputError,
    Query,
    WeightedAutomaton,
    decide_unary,
    decide_unary_eventual,
    lc_check,
    nfa_of,
    ratio_profile,
)
from ratiobound.samples import different_rates, unbounded_ratio

from helpers import random_wa
from oracles import checked_verdict, ref_decide_unary_eventual, weight


def test_unbounded_ratio_verdicts():
    wa = unbounded_ratio()
    assert decide_unary(Query(wa, "s", "s'")).verdict == "not-big-o"
    assert decide_unary(Query(wa, "s'", "s")).verdict == "is-big-o"


def test_different_rates_verdicts_and_parity():
    wa = different_rates()
    v = decide_unary(Query(wa, "s", "s'"))
    assert v.verdict == "not-big-o"
    assert v.witness["smallestLength"] % 2 == 1
    assert v.witness["progressionPeriod"] % 2 == 0
    assert decide_unary(Query(wa, "s'", "s")).verdict == "is-big-o"


def test_self_query_is_big_o():
    wa = unbounded_ratio()
    assert decide_unary(Query(wa, "s", "s")).verdict == "is-big-o"


def test_reflexivity_random():
    rng = random.Random(71)
    for _ in range(15):
        wa = random_wa(rng, nstates=rng.randint(2, 5), alphabet=("a",), density=0.4)
        assert decide_unary(Query(wa, "q0", "q0")).verdict == "is-big-o"


def test_rejects_non_unary():
    wa = random_wa(random.Random(1), nstates=2, alphabet=("a", "b"))
    with pytest.raises(InputError):
        decide_unary(Query(wa, "q0", "q1"))


def test_lc_failure_reported():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a"],
        [("p", "a", F(1), "t"), ("q", "a", F(1, 2), "q")],
        ["t"],
    )
    v = decide_unary(Query(wa, "p", "q"))
    assert v.verdict == "not-big-o"
    assert v.witness["type"] == "lc" and v.witness["lcCounterexample"] == "a"


def test_notbigo_ratio_grows_along_progression():
    for wa, s, sp in [
        (unbounded_ratio(), "s", "s'"),
        (different_rates(), "s", "s'"),
    ]:
        v = decide_unary(Query(wa, s, sp))
        assert v.verdict == "not-big-o"
        n0, p = v.witness["smallestLength"], max(v.witness["progressionPeriod"], 1)
        pts = []
        n = n0
        while n <= 400 and len(pts) < 6:
            ws, wp = weight(wa, s, "a" * n), weight(wa, sp, "a" * n)
            if wp > 0:
                pts.append(ws / wp)
            elif ws > 0:
                pts.append(INF)
            n += p
        finite = [r for r in pts if r is not INF]
        assert len(finite) >= 3
        assert any(
            finite[i] < finite[i + 1] < finite[i + 2]
            for i in range(len(finite) - 2)
        )


def test_monotone_under_off_cycle_scaling():
    """Scaling a non-cycle transition never flips the verdict: radii and
    counts come from cycles only."""
    wa = different_rates()
    scaled = []
    for (q, a, w, q2) in wa.transitions():
        if q == "s" and q2 == "u1":
            scaled.append((q, a, w * 7, q2))
        else:
            scaled.append((q, a, w, q2))
    wa2 = WeightedAutomaton.from_transitions(wa.states, wa.alphabet, scaled, wa.finals)
    for src, dst in [("s", "s'"), ("s'", "s")]:
        assert (
            decide_unary(Query(wa, src, dst)).verdict
            == decide_unary(Query(wa2, src, dst)).verdict
        )


def test_eventual_finite_difference_example():
    """L_s = {a}, L_s' = {a^n : n >= 2} with matching tail decay: the plain
    question fails containment, the eventual one holds."""
    trans = [
        ("s", "a", F(1, 2), "t"),
        ("s'", "a", F(1, 2), "m"),
        ("m", "a", F(1, 2), "m"),
        ("m", "a", F(1, 2), "t"),
    ]
    wa = WeightedAutomaton.from_transitions(["s", "s'", "m", "t"], ["a"], trans, ["t"])
    assert decide_unary(Query(wa, "s", "s'")).verdict == "not-big-o"
    assert decide_unary_eventual(Query(wa, "s", "s'")).verdict == "is-big-o"


def test_eventual_unbounded_ratio_still_fails():
    wa = unbounded_ratio()
    assert decide_unary_eventual(Query(wa, "s", "s'")).verdict == "not-big-o"


def test_eventual_agrees_when_lc_holds():
    rng = random.Random(83)
    checked = 0
    for _ in range(60):
        wa = random_wa(rng, nstates=rng.randint(2, 5), alphabet=("a",), density=0.45)
        q = Query(wa, "q0", "q1")
        if q.s == q.s_prime or not lc_check(q).holds:
            continue
        plain = decide_unary(q).verdict == "is-big-o"
        eventual = decide_unary_eventual(q).verdict == "is-big-o"
        checked += 1
        if plain:
            assert eventual
    assert checked >= 10


def test_eventual_epsilon_only_difference():
    """A final first state must not poison the eventual comparison."""
    trans = [
        ("s", "a", F(1, 2), "s"),
        ("s'", "a", F(1, 2), "s'"),
        ("s", "a", F(1, 2), "t"),
        ("s'", "a", F(1, 2), "t"),
    ]
    wa = WeightedAutomaton.from_transitions(
        ["s", "s'", "t"], ["a"], trans, ["t", "s"]
    )
    # plain containment fails at the empty word only
    v = decide_unary(Query(wa, "s", "s'"))
    assert v.verdict == "not-big-o" and v.witness["lcCounterexample"] == ""
    assert decide_unary_eventual(Query(wa, "s", "s'")).verdict == "is-big-o"


def _eventual_draws(seeds, per_seed):
    """Unary `random_wa` queries q0 -> q1 of 2-6 states, one density per
    seed."""
    for seed, density in zip(seeds, (0.3, 0.5, 0.7)):
        rng = random.Random(seed)
        for _ in range(per_seed):
            wa = random_wa(rng, nstates=rng.randint(2, 6), density=density)
            yield Query(wa, "q0", "q1")


def test_eventual_rule_matches_the_completion_route():
    """A finite difference plus the plain growth check gives the verdicts
    and witness kinds of shifting both starts and completing s'.  Every
    difference witness is a length of the query's own automaton that s
    accepts and s' rejects, and so is each term of its progression."""
    kinds = Counter()
    for q in _eventual_draws((61, 67, 71), 400):
        got = checked_verdict(decide_unary_eventual(q))
        ref = checked_verdict(ref_decide_unary_eventual(q))
        kind = got.witness and got.witness["type"]
        assert (got.verdict, kind) == (ref.verdict, ref.witness and ref.witness["type"])
        kinds[kind] += 1
        if kind == "difference":
            n1, n2 = nfa_of(q.automaton, q.s), nfa_of(q.automaton, q.s_prime)
            w = got.witness
            assert ref.witness["length"] == w["length"] + 1
            lengths = [w["length"]] + [
                w["smallestLength"] + t * w["progressionPeriod"] for t in range(4)
            ]
            for n in lengths:
                assert n1.accepts("a" * n) and not n2.accepts("a" * n)
    assert kinds[None] >= 1000 and kinds["difference"] >= 100 and kinds["degree"] >= 25
