import random
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
    ratio_profile,
)
from ratiobound.samples import different_rates, unbounded_ratio

from helpers import random_wa, weight


def test_unbounded_ratio_verdicts():
    wa = unbounded_ratio()
    assert not decide_unary(Query(wa, "s", "s'")).is_big_o
    assert decide_unary(Query(wa, "s'", "s")).is_big_o


def test_different_rates_verdicts_and_parity():
    wa = different_rates()
    v = decide_unary(Query(wa, "s", "s'"))
    assert not v.is_big_o
    assert v.smallest_witness % 2 == 1
    assert v.progression_period % 2 == 0
    assert decide_unary(Query(wa, "s'", "s")).is_big_o


def test_self_query_is_big_o():
    wa = unbounded_ratio()
    assert decide_unary(Query(wa, "s", "s")).is_big_o


def test_reflexivity_random():
    rng = random.Random(71)
    for _ in range(15):
        wa = random_wa(rng, nstates=rng.randint(2, 5), alphabet=("a",), density=0.4)
        assert decide_unary(Query(wa, "q0", "q0")).is_big_o


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
    assert not v.is_big_o and v.witness_kind == "lc" and v.lc_counterexample == "a"


def test_notbigo_ratio_grows_along_progression():
    for wa, s, sp in [
        (unbounded_ratio(), "s", "s'"),
        (different_rates(), "s", "s'"),
    ]:
        v = decide_unary(Query(wa, s, sp))
        assert not v.is_big_o
        n0, p = v.smallest_witness, max(v.progression_period, 1)
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
            decide_unary(Query(wa, src, dst)).is_big_o
            == decide_unary(Query(wa2, src, dst)).is_big_o
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
    assert not decide_unary(Query(wa, "s", "s'")).is_big_o
    assert decide_unary_eventual(Query(wa, "s", "s'")).is_big_o


def test_eventual_unbounded_ratio_still_fails():
    wa = unbounded_ratio()
    assert not decide_unary_eventual(Query(wa, "s", "s'")).is_big_o


def test_eventual_agrees_when_lc_holds():
    rng = random.Random(83)
    checked = 0
    for _ in range(60):
        wa = random_wa(rng, nstates=rng.randint(2, 5), alphabet=("a",), density=0.45)
        q = Query(wa, "q0", "q1")
        if q.s == q.s_prime or not lc_check(q).holds:
            continue
        plain = decide_unary(q).is_big_o
        eventual = decide_unary_eventual(q).is_big_o
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
    assert not v.is_big_o and v.lc_counterexample == ""
    assert decide_unary_eventual(Query(wa, "s", "s'")).is_big_o
