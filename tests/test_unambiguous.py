import random
from fractions import Fraction as F

import pytest

from ratiobound import (
    INF,
    InputError,
    Query,
    WeightedAutomaton,
    decide_bounded,
    decide_unambiguous,
    decide_unary,
    is_unambiguous_from,
    ratio_profile,
)
from ratiobound.samples import unbounded_ratio

from helpers import (
    count_accepting_paths,
    planted_unambiguous,
    random_block_wa,
    random_wa,
    weight,
    words_upto,
)


def test_deterministic_is_unambiguous():
    wa = unbounded_ratio()
    assert is_unambiguous_from(wa, "s").unambiguous
    assert is_unambiguous_from(wa, "s'").unambiguous


def test_two_parallel_accepting_edges():
    wa = WeightedAutomaton.from_transitions(
        ["s", "t1", "t2"],
        ["a"],
        [("s", "a", F(1, 2), "t1"), ("s", "a", F(1, 2), "t2")],
        ["t1", "t2"],
    )
    res = is_unambiguous_from(wa, "s")
    assert not res.unambiguous and res.witness_word == "a"


def test_ambiguity_matches_path_counting():
    rng = random.Random(97)
    for _ in range(12):
        wa = random_wa(rng, nstates=4, alphabet=("a", "b"), density=0.3)
        res = is_unambiguous_from(wa, "q0")
        brute = all(
            count_accepting_paths(wa, "q0", w) <= 1 for w in words_upto(("a", "b"), 8)
        )
        assert res.unambiguous == brute, (wa.transitions(), res)


def test_figure_cycle_ratio():
    wa = unbounded_ratio()
    v = decide_unambiguous(Query(wa, "s", "s'"))
    assert not v.is_big_o
    assert v.cycle_ratio == F(3, 2)
    assert decide_unambiguous(Query(wa, "s'", "s")).is_big_o


def test_identical_copies_bounded():
    trans = [
        ("p", "a", F(1, 2), "p"),
        ("p", "b", F(1, 3), "t"),
        ("q", "a", F(1, 2), "q"),
        ("q", "b", F(1, 3), "t"),
    ]
    wa = WeightedAutomaton.from_transitions(["p", "q", "t"], ["a", "b"], trans, ["t"])
    assert decide_unambiguous(Query(wa, "p", "q")).is_big_o


def test_ambiguous_precondition_rejected():
    wa = WeightedAutomaton.from_transitions(
        ["s", "t1", "t2"],
        ["a"],
        [("s", "a", F(1, 2), "t1"), ("s", "a", F(1, 2), "t2")],
        ["t1", "t2"],
    )
    with pytest.raises(InputError):
        decide_unambiguous(Query(wa, "s", "s"))


def test_planted_instances():
    rng = random.Random(101)
    for _ in range(25):
        expansive = rng.random() < 0.5
        wa, s, sp = planted_unambiguous(rng, expansive)
        v = decide_unambiguous(Query(wa, s, sp))
        assert v.is_big_o == (not expansive)
        if expansive:
            assert v.cycle_ratio is not None and v.cycle_ratio > 1


def test_verdict_invariant_under_global_scaling():
    rng = random.Random(103)
    for _ in range(8):
        expansive = rng.random() < 0.5
        wa, s, sp = planted_unambiguous(rng, expansive)
        scaled = WeightedAutomaton.from_transitions(
            wa.states,
            wa.alphabet,
            [(q, a, w * F(7, 3), q2) for (q, a, w, q2) in wa.transitions()],
            wa.finals,
        )
        assert (
            decide_unambiguous(Query(wa, s, sp)).is_big_o
            == decide_unambiguous(Query(scaled, s, sp)).is_big_o
        )


def test_witness_cycle_pumps_ratio():
    """Iterating the witness cycle i times multiplies the weight ratio by the
    cycle ratio to the i-th power, up to the embedding constant."""
    rng = random.Random(107)
    found = 0
    for _ in range(20):
        wa, s, sp = planted_unambiguous(rng, True)
        v = decide_unambiguous(Query(wa, s, sp))
        assert not v.is_big_o
        cyc_len = len(v.cycle)
        # locate a base word length with positive weights, then pump
        base = None
        for n in range(1, 30):
            if weight(wa, sp, "a" * n) > 0 and weight(wa, s, "a" * n) > 0:
                base = n
                break
        if base is None:
            continue
        found += 1
        r0 = weight(wa, s, "a" * base) / weight(wa, sp, "a" * base)
        for i in range(1, 7):
            n = base + i * cyc_len
            ws, wp = weight(wa, s, "a" * n), weight(wa, sp, "a" * n)
            assert wp > 0
            assert ws / wp == r0 * v.cycle_ratio**i
    assert found >= 10


def test_agreement_with_unary_decider():
    rng = random.Random(109)
    for _ in range(20):
        wa, s, sp = planted_unambiguous(rng, rng.random() < 0.5)
        assert (
            decide_unambiguous(Query(wa, s, sp)).is_big_o
            == decide_unary(Query(wa, s, sp)).is_big_o
        )


def test_agreement_with_bounded_decider():
    """decide_bounded matches decide_unambiguous on planted pairs and on
    block automata unambiguous from both states, exact ties included."""
    cases = []
    rng = random.Random(11)
    for i in range(40):
        wa, s, sp = planted_unambiguous(rng, i % 2 == 0)
        cases.append((f"planted {i}", Query(wa, s, sp), None))
    rng = random.Random(11)
    for i in range(200):
        wa = random_block_wa(rng, per=2)
        if is_unambiguous_from(wa, "L0_0") and is_unambiguous_from(wa, "L0_1"):
            cases.append((f"block draw {i}", Query(wa, "L0_0", "L0_1"), ("a", "b")))
    disagree, unknown = [], []
    for label, q, letters in cases:
        want = "is-big-o" if decide_unambiguous(q).is_big_o else "not-big-o"
        got = decide_bounded(q, letters=letters).verdict
        if got == "unknown":
            unknown.append(label)
        elif got != want:
            disagree.append((label, want, got))
    summary = f"{len(cases)} cases, {len(unknown)} unknown: {unknown}"
    assert not disagree, (disagree, summary)
    assert not unknown and len(cases) >= 80, summary


BLOCK_DRAW_34 = [
    ("L0_0", "a", F(1, 6), "L0_0"),
    ("L0_1", "a", F(1), "L0_1"),
    ("L0_0", "b", F(1, 3), "L1_0"),
    ("L0_1", "b", F(1, 3), "L1_0"),
    ("L0_1", "b", F(1, 2), "L1_1"),
    ("L1_0", "b", F(1, 2), "L1_0"),
    ("L1_0", "b", F(1, 5), "L1_1"),
    ("L1_0", "b", F(1, 6), "fin"),
    ("L1_1", "b", F(1, 2), "L1_1"),
]
BLOCK_DRAW_192 = [
    ("L0_0", "a", F(1, 2), "L0_0"),
    ("L0_1", "a", F(1), "L0_1"),
    ("L0_0", "b", F(1), "L1_1"),
    ("L0_1", "b", F(3, 2), "L1_1"),
    ("L1_0", "b", F(3, 2), "L1_0"),
    ("L1_0", "b", F(3, 2), "fin"),
    ("L1_1", "b", F(1, 4), "L1_0"),
    ("L1_1", "b", F(1, 3), "fin"),
]


@pytest.mark.parametrize(
    "trans", [BLOCK_DRAW_34, BLOCK_DRAW_192], ids=["block_draw_34", "block_draw_192"]
)
def test_exact_tie_block_draw_is_big_o(trans):
    """Block draws 34 and 192 of the agreement test (seed 11) carry a row
    with coefficient signs [+, 0] and logs (0, 0): bounded below exactly, so
    the bounded decider answers is-big-o, as the unambiguous decider does."""
    wa = WeightedAutomaton.from_transitions(
        ["L0_0", "L0_1", "L1_0", "L1_1", "fin"], ["a", "b"], trans, ["fin"]
    )
    q = Query(wa, "L0_0", "L0_1")
    assert decide_unambiguous(q).is_big_o
    assert decide_bounded(q, letters=("a", "b")).verdict == "is-big-o"
