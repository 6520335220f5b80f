import random
import time
from collections import Counter
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
    lc_check,
    ratio_profile,
)
from ratiobound.automata import trim
from ratiobound.samples import unbounded_ratio

from helpers import planted_unambiguous, random_block_wa, random_wa
from oracles import (
    checked_verdict,
    count_accepting_paths,
    ref_is_unambiguous_from,
    ref_unambiguous_cycle_ratio,
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
    assert v.verdict == "not-big-o"
    assert F(v.witness["cycleRatio"]) == F(3, 2)
    assert decide_unambiguous(Query(wa, "s'", "s")).verdict == "is-big-o"


def test_identical_copies_bounded():
    trans = [
        ("p", "a", F(1, 2), "p"),
        ("p", "b", F(1, 3), "t"),
        ("q", "a", F(1, 2), "q"),
        ("q", "b", F(1, 3), "t"),
    ]
    wa = WeightedAutomaton.from_transitions(["p", "q", "t"], ["a", "b"], trans, ["t"])
    assert decide_unambiguous(Query(wa, "p", "q")).verdict == "is-big-o"


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
        assert v.verdict == ("not-big-o" if expansive else "is-big-o")
        if expansive:
            assert v.witness["cycleRatio"] is not None and F(v.witness["cycleRatio"]) > 1


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
            decide_unambiguous(Query(wa, s, sp)).verdict
            == decide_unambiguous(Query(scaled, s, sp)).verdict
        )


def test_witness_cycle_pumps_ratio():
    """Iterating the witness cycle i times multiplies the weight ratio by the
    cycle ratio to the i-th power, up to the embedding constant."""
    rng = random.Random(107)
    found = 0
    for _ in range(20):
        wa, s, sp = planted_unambiguous(rng, True)
        v = decide_unambiguous(Query(wa, s, sp))
        assert v.verdict == "not-big-o"
        cyc_len = len(v.witness["cycle"])
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
            assert ws / wp == r0 * F(v.witness["cycleRatio"]) ** i
    assert found >= 10


def test_agreement_with_unary_decider():
    rng = random.Random(109)
    for _ in range(20):
        wa, s, sp = planted_unambiguous(rng, rng.random() < 0.5)
        assert (
            checked_verdict(decide_unambiguous(Query(wa, s, sp))).verdict
            == checked_verdict(decide_unary(Query(wa, s, sp))).verdict
        )


def test_agreement_with_bounded_decider():
    """decide_bounded matches decide_unambiguous on planted pairs and on
    block automata unambiguous from both states, exact ties included."""
    cases = []
    rng = random.Random(11)
    for i in range(40):
        wa, s, sp = planted_unambiguous(rng, i % 2 == 0)
        cases.append((f"planted {i}", Query(wa, s, sp)))
    rng = random.Random(11)
    for i in range(200):
        wa = random_block_wa(rng, per=2)
        if is_unambiguous_from(wa, "L0_0") and is_unambiguous_from(wa, "L0_1"):
            cases.append((f"block draw {i}", Query(wa, "L0_0", "L0_1")))
    disagree, unknown = [], []
    for label, q in cases:
        want = checked_verdict(decide_unambiguous(q)).verdict
        got = checked_verdict(decide_bounded(q), bounded=True).verdict
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
    assert decide_unambiguous(q).verdict == "is-big-o"
    assert decide_bounded(q).verdict == "is-big-o"


def test_ambiguity_matches_the_reference_search():
    """Verdict and shortest ambiguous word equal those of the word-per-state
    frontier search, on every state of 2,000 unary draws and 500 two-letter
    draws."""
    rng = random.Random(3)
    draws = [random_wa(rng) for _ in range(2000)]
    draws += [random_wa(rng, nstates=4, alphabet=("a", "b"), density=0.3) for _ in range(500)]
    verdicts = set()
    for wa in draws:
        for q in wa.states:
            got = is_unambiguous_from(wa, q)
            assert got == ref_is_unambiguous_from(wa, q), (wa.transitions(), q)
            verdicts.add((len(wa.alphabet), got.unambiguous))
    assert verdicts == {(1, False), (1, True), (2, False), (2, True)}


def _unambiguous_differential_queries():
    """400 planted pairs, half of them expansive, and two-letter random
    pairs unambiguous from both states; all pass containment."""
    rng = random.Random(31)
    for i in range(400):
        wa, s, sp = planted_unambiguous(rng, i % 2 == 0)
        yield Query(wa, s, sp)
    rng = random.Random(37)
    for _ in range(1500):
        wa = random_wa(rng, nstates=rng.randint(2, 4), alphabet=("a", "b"), density=0.3)
        q = Query(wa, "q0", "q1")
        if is_unambiguous_from(wa, "q0") and is_unambiguous_from(wa, "q1") and lc_check(q):
            yield q


def test_first_predecessor_cycle_keeps_the_full_run_s_verdicts_and_ratios():
    """Stopping at the first round whose predecessor graph has a cycle gives
    the verdict, and on these draws the cycle ratio, of running all |live|
    rounds and walking back from the last improved pair."""
    kinds = Counter()
    for q in _unambiguous_differential_queries():
        v = decide_unambiguous(q)
        ratio = ref_unambiguous_cycle_ratio(q.automaton, q.s, q.s_prime)
        assert v.verdict == ("is-big-o" if ratio is None else "not-big-o")
        assert (None if v.witness is None else F(v.witness["cycleRatio"])) == ratio
        kinds[v.verdict] += 1
    assert kinds["is-big-o"] >= 200 and kinds["not-big-o"] >= 200


def _counter_skeleton(rng, n, k):
    """`c0.0` reads a random complete two-letter skeleton of n states crossed
    with a mod-k counter, `b0` the bare skeleton, each edge weighted j/64
    independently; every third state exits to `t` on `a` at 1/2.  Both
    states are unambiguous and accept the same words."""
    step = {(i, x): rng.randrange(n) for i in range(n) for x in "ab"}
    trans = []
    for (i, x), j in step.items():
        trans.append((f"b{i}", x, F(rng.randint(1, 64), 64), f"b{j}"))
        for c in range(k):
            trans.append((f"c{i}.{c}", x, F(rng.randint(1, 64), 64), f"c{j}.{(c + 1) % k}"))
    for i in range(0, n, 3):
        trans.append((f"b{i}", "a", F(1, 2), "t"))
        for c in range(k):
            trans.append((f"c{i}.{c}", "a", F(1, 2), "t"))
    states = [f"b{i}" for i in range(n)] + [f"c{i}.{c}" for i in range(n) for c in range(k)]
    return WeightedAutomaton.from_transitions(states + ["t"], ("a", "b"), trans, ["t"])


def test_expansive_cycle_among_hundreds_of_live_pairs_is_found_fast():
    """355 live pairs: all |live| rounds of exact relaxation take
    seconds, the first predecessor cycle a few milliseconds.  The cycle is
    a closed walk of pairs whose ratio is the product of its edges' weight
    ratios."""
    wa = _counter_skeleton(random.Random(70006), 70, 6)
    q = Query(wa, "c0.0", "b0")
    edges = [(i, a, j) for a, (_, rows) in wa.sparse_rows.items() for i, row in enumerate(rows)
             for j, _ in row]
    # each live state of the counter copy pairs with one skeleton state
    assert 300 <= len(trim([wa.index("c0.0")], [wa.index("t")], edges)) <= 500
    t0 = time.perf_counter()
    v = decide_unambiguous(q)
    elapsed = time.perf_counter() - t0
    assert v.verdict == "not-big-o" and v.witness["type"] == "cycle"
    assert elapsed < 0.5, elapsed
    w = {(p, a, r): x for p, a, x, r in wa.transitions()}
    ratio = F(1)
    cycle = v.witness["cycle"]
    for ((p, p2), a, (r, r2)), (nxt, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert nxt == (r, r2)
        ratio *= w[p, a, r] / w[p2, a, r2]
    assert ratio == F(v.witness["cycleRatio"]) > 1
