import hashlib
import json
import os
import random
import signal
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product

import pytest

from ratiobound import (
    InputError,
    LinearSet,
    Query,
    ResourceError,
    WeightedAutomaton,
    bounded_to_letter_bounded,
    decide_bounded,
    decide_unambiguous,
    decide_unary,
    detect_letter_bounded,
    emit_formula,
    letter_bounded_to_plus,
    parikh_linear_sets,
    plus_analysis,
    weight_blocks,
)
from ratiobound.algebraic import AlgebraicNumber, compare
from ratiobound.automata import Nfa, explore, trim
from ratiobound.bounded import (
    DELTA,
    ZERO,
    PlusQuery,
    decide_plus,
    detector_nfa,
    realized_candidates,
)
from ratiobound.jsonio import parse_automaton
from ratiobound.nfaops import _in_letter_bound, _star_nfa, check_bounding_words, nfa_contained
from ratiobound.realexp import FAILS, HOLDS, UNKNOWN, semi_decide
from ratiobound.samples import relative_orderings, unbounded_ratio
from ratiobound.spectral import rank_radii, scc_decompose

import helpers
import oracles
from helpers import not_big_o_on_b, random_block_wa, random_wa, two_symbol_chain
from oracles import (
    GrowthTuple,
    brute_block_degree,
    checked_verdict,
    ref_plus_subquery,
    weight,
    words_upto,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


# ---------------------------------------------------------------------------
# boundedness detection


def test_detect_unary():
    assert detect_letter_bounded(unbounded_ratio(), "s") == ("a",)


def test_detect_two_blocks():
    assert detect_letter_bounded(relative_orderings(F(62, 100)), "s'") == ("a", "b")


def test_plus_pattern_cap_covers_detected_letter_bounds(monkeypatch):
    """The cap on 2^m - 1 plus-patterns is checked inside the split, so a
    detected letter bound meets it as supplied words do."""
    from ratiobound import bounded

    q = Query(relative_orderings(F(62, 100)), "s", "s'")
    assert decide_bounded(q).subqueries == 3
    monkeypatch.setattr(bounded, "PLUS_PATTERN_CAP", 2)
    with pytest.raises(ResourceError):
        decide_bounded(q)


def test_detect_alternation_fails():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a", "b"],
        [("p", "a", F(1, 2), "q"), ("q", "b", F(1, 2), "p"), ("p", "a", F(1, 2), "t")],
        ["t"],
    )
    assert detect_letter_bounded(wa, "p") is None


def test_detect_aba_shape():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "r", "t"],
        ["a", "b"],
        [
            ("p", "a", F(1, 2), "p"),
            ("p", "b", F(1, 4), "q"),
            ("q", "b", F(1, 2), "q"),
            ("q", "a", F(1, 4), "r"),
            ("r", "a", F(1, 2), "r"),
            ("r", "a", F(1, 4), "t"),
        ],
        ["t"],
    )
    assert detect_letter_bounded(wa, "p") == ("a", "b", "a")


def test_detect_letter_bounded_pinned_draws():
    """Detection on 20,000 random automata (1-3 letters, 1-7 states, edge
    density 0.1, 0.2 or 0.35, weights 1/2, finals with probability 0.4,
    a random query state) returns the recorded results: a digest over the
    `repr` of each, one per line, so that a rewrite of the detector keeps
    every letter sequence, its order and every None."""
    rng = random.Random(17)
    digest = hashlib.sha256()
    shapes = Counter()
    for _ in range(20000):
        k, n, density = rng.randint(1, 3), rng.randint(1, 7), rng.choice((0.1, 0.2, 0.35))
        letters = "abc"[:k]
        states = [f"q{i}" for i in range(n)]
        trans = [
            (q, a, F(1, 2), q2)
            for q in states
            for a in letters
            for q2 in states
            if rng.random() < density
        ]
        finals = [q for q in states if rng.random() < 0.4] or [states[-1]]
        wa = WeightedAutomaton.from_transitions(states, letters, trans, finals)
        got = detect_letter_bounded(wa, rng.choice(states))
        shapes[got if not got else "letters"] += 1
        digest.update(repr(got).encode() + b"\n")
    assert shapes == {(): 8220, None: 6730, "letters": 5050}
    assert digest.hexdigest() == (
        "b4e1d5baf59afc305dfaabb8e6e16b7f6355ae126858c533f6990ca698c9e9d8"
    )


def test_letter_bound_search_matches_containment():
    """`_in_letter_bound` answers what the antichain containment of the NFA
    in letters[0]* ... letters[-1]* answers: random NFAs over 1-3 letters
    with states that reach no final, sequences of length 0-4 that may
    repeat a letter apart, and the empty sequence from an accepting start."""
    rng = random.Random(1303)
    seen = {"empty, start final": 0, "letter repeated apart": 0, "dead state": 0}
    answers = []
    for _ in range(600):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        states = tuple(f"q{i}" for i in range(rng.randint(1, 5)))
        trans = frozenset(
            (p, a, q) for p in states for a in alphabet for q in states if rng.random() < 0.2
        )
        finals = frozenset(q for q in states if rng.random() < 0.4)
        n = Nfa(states, alphabet, trans, states[0], finals)
        seq = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        steps = {}
        for p, a, q in sorted(trans):
            steps.setdefault(p, []).append((a, q))
        got = _in_letter_bound(n.start, steps, finals, seq)
        want = bool(nfa_contained(n, _star_nfa([(a,) for a in seq], alphabet)))
        assert got == want, (sorted(trans), sorted(finals), seq)
        answers.append(got)
        seen["empty, start final"] += not seq and n.start in finals
        seen["letter repeated apart"] += any(
            seq[i] == seq[j] != seq[i + 1] for i in range(len(seq)) for j in range(i + 2, len(seq))
        )
        seen["dead state"] += len(trim([n.start], finals, trans)) < len(states)
    assert all(count >= 20 for count in seen.values()), seen
    assert 100 <= answers.count(True) <= 500


# ---------------------------------------------------------------------------
# word-bound reduction


def repeat_word(w, n):
    return w * n


def test_bounded_to_letter_single_word():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a", "b"],
        [
            ("p", "a", F(1, 2), "q"),
            ("q", "b", F(1, 3), "p"),
            ("q", "b", F(1, 4), "t"),
        ],
        ["t"],
    )
    lb = bounded_to_letter_bounded(wa, ["ab"])
    assert lb.alphabet == ("a1",)
    for n in range(7):
        want = weight(wa, "p", repeat_word("ab", n))
        got = weight_blocks(lb, "p", [("a1", n)])
        assert got == want


def test_bounded_to_letter_distinct_letters_degenerates():
    wa = relative_orderings(F(62, 100))
    lb = bounded_to_letter_bounded(wa, ["a", "b"])
    for n1, n2 in product(range(5), repeat=2):
        want = weight(wa, "s", "a" * n1 + "b" * n2)
        got = weight_blocks(lb, "s", [("a1", n1), ("a2", n2)])
        assert got == want


def test_bounded_to_letter_overlapping_decompositions():
    """Words like (ab)^4 decompose many ways against abab/a/b/ab blocks;
    every valid decomposition vector must reproduce the same weight."""
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a", "b"],
        [
            ("p", "a", F(1, 2), "q"),
            ("q", "b", F(1, 2), "p"),
            ("q", "b", F(1, 4), "t"),
        ],
        ["t"],
    )
    words = ["abab", "a", "b", "ab"]
    lb = bounded_to_letter_bounded(wa, words)
    target = weight(wa, "p", "abababab")
    assert target > 0
    vectors = []
    for n1 in range(3):
        for n2 in range(2):
            for n3 in range(2):
                for n4 in range(5):
                    if (
                        repeat_word("abab", n1)
                        + "a" * n2
                        + "b" * n3
                        + repeat_word("ab", n4)
                        == "abababab"
                    ):
                        vectors.append((n1, n2, n3, n4))
    assert len(vectors) >= 3
    for vec in vectors:
        got = weight_blocks(lb, "p", list(zip(lb.alphabet, vec)))
        assert got == target, vec


def test_bounded_to_letter_input_errors():
    wa = unbounded_ratio()
    with pytest.raises(InputError):
        bounded_to_letter_bounded(wa, check_bounding_words(wa, []))
    with pytest.raises(InputError):
        bounded_to_letter_bounded(wa, check_bounding_words(wa, ["ab"]))  # b not in alphabet


def test_bounding_words_split_into_symbols():
    """Words are spelled in the alphabet's symbols, which may be longer than
    one character: the word `x1x2` is the pair (x1, x2) and substitutes the
    product of their matrices; the witness keeps the words as given."""
    wa = two_symbol_chain()
    assert check_bounding_words(wa, ["x1x2", "x2"]) == [("x1", "x2"), ("x2",)]
    lb = bounded_to_letter_bounded(wa, check_bounding_words(wa, ["x1x2", "x1", "x2"]))
    for n in product(range(3), repeat=3):
        word = ["x1", "x2"] * n[0] + ["x1"] * n[1] + ["x2"] * n[2]
        got = weight_blocks(lb, "s", list(zip(lb.alphabet, n)))
        assert got == weight(wa, "s", word)
    for bad in (["x3"], ["x1x"], [""]):
        with pytest.raises(InputError, match="bounding word"):
            check_bounding_words(wa, bad)
    ambiguous = WeightedAutomaton.from_transitions(["p"], ["x", "xx"], [], ["p"])
    assert check_bounding_words(ambiguous, ["x"]) == [("x",)]
    with pytest.raises(InputError, match="'xx' splits"):
        check_bounding_words(ambiguous, ["xx"])
    assert decide_bounded(Query(wa, "s", "s'"), words=["x1", "x2"]).verdict == "is-big-o"
    verdict = decide_bounded(Query(wa, "s'", "s"), words=["x1", "x2"])
    assert verdict.verdict == "not-big-o"
    assert verdict.witness["bounding_words"] == ["x1", "x2"]
    with pytest.raises(InputError, match="miss"):
        decide_bounded(Query(wa, "s", "s'"), words=["x1x2"])


# ---------------------------------------------------------------------------
# letter-bound to plus-bound


def test_letter_to_plus_subquery_count():
    wa = relative_orderings(F(62, 100))
    subs = letter_bounded_to_plus(wa, "s", "s'", ("a", "b"))
    assert len(subs) == 3  # a+, b+, a+b+


def _assert_blocks_keep_weight(wa, s, sp, letters):
    """Every sub-question weighs each block word, blocks of length 1..4, as
    the original weighs the word it stands for, from both starts."""
    subs = letter_bounded_to_plus(wa, s, sp, letters)
    assert subs
    for pq in subs:
        for lengths in product(range(1, 5), repeat=len(pq.letters)):
            word = "".join(a * n for a, n in zip(pq.source_letters, lengths))
            blocks = list(zip(pq.letters, lengths))
            assert weight_blocks(pq.automaton, pq.s, blocks) == weight(wa, s, word)
            assert weight_blocks(pq.automaton, pq.s_prime, blocks) == weight(wa, sp, word)
    return subs


def test_letter_to_plus_weight_preservation():
    for p in (F(61, 100), F(62, 100)):
        _assert_blocks_keep_weight(relative_orderings(p), "s", "s'", ("a", "b"))


def test_letter_to_plus_splits_a_repeated_letter():
    # p -a-> p is read in blocks 1 and 3 of a+b+a+; its product copies sit
    # in different blocks and take the two blocks' fresh letters
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a", "b"],
        [
            ("p", "a", F(1, 2), "p"),
            ("p", "b", F(1, 2), "q"),
            ("q", "b", F(1, 4), "q"),
            ("q", "a", F(1, 4), "p"),
            ("p", "a", F(1, 4), "t"),
        ],
        ["t"],
    )
    subs = _assert_blocks_keep_weight(wa, "p", "q", ("a", "b", "a"))
    (aba,) = [pq for pq in subs if pq.source_letters == ("a", "b", "a")]
    trans = aba.automaton.transitions()
    assert ("p@1", "b1", F(1, 2), "p@1") in trans
    assert ("p@3", "b3", F(1, 2), "p@3") in trans


def _plus_cases():
    """Queries with their letter bounds: the data files (detected letters),
    300 two-letter and 200 three-letter `random_block_wa` draws from both
    start orders, and the benchmark's seed-1 `bounded` queries."""
    from test_bench_hooks import _load

    cases = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            wa = parse_automaton(fh.read())
        cases.append((wa, "s", "s'", detect_letter_bounded(wa, "s'")))
    for seed, count, letters in ((11, 300, ("a", "b")), (12, 200, ("a", "b", "c"))):
        rng = random.Random(seed)
        for _ in range(count):
            wa = random_block_wa(rng, letters, per=2)
            cases.append((wa, "L0_0", "L0_1", letters))
            cases.append((wa, "L0_1", "L0_0", letters))
    for q in _load("workloads").build("bounded", 1, helpers):
        argv = dict(zip(q.argv[1::2], q.argv[2::2]))
        wa = parse_automaton(q.document)
        cases.append((wa, argv["--from"], argv["--to"], detect_letter_bounded(wa, argv["--to"])))
    return cases


def test_sub_questions_are_slices_of_the_one_search():
    """Every sub-question, sliced from the one (state, collapsed prefix)
    search, is the product that its own per-pattern search builds."""

    def fields(pq):
        a = pq.automaton
        return a.states, a.sparse_rows, a.finals, pq.levels, pq.letters, pq.source_letters

    seen = Counter()
    for wa, s, sp, letters in _plus_cases():
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            ref = ref_plus_subquery(wa, s, sp, pq.source_letters)
            assert fields(pq) == fields(ref), (wa, s, sp, pq.source_letters)
            seen["read" if pq.automaton.finals else "unread"] += 1
    assert seen["read"] > 0 and seen["unread"] > 0, seen


def test_letter_bounded_to_plus_searches_once(monkeypatch):
    """One product search per query serves all of its plus-patterns."""
    from ratiobound import bounded

    cases = _plus_cases()
    calls = []
    search = bounded.explore

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(bounded, "explore", counted)
    for wa, s, sp, letters in cases:
        letter_bounded_to_plus(wa, s, sp, letters)
    assert len(calls) == len(cases)


def _padded(wa, pq):
    """`pq` with every dropped product state `q@d` put back as an isolated
    state, in (q, d) order; the dropped `q@k` of final `q` stay final."""
    k = len(pq.letters)
    names = [f"{q}@{d}" for q in wa.states for d in range(k + 1)]
    pos = {q: i for i, q in enumerate(names)}
    kept = pq.automaton
    remap = [pos[q] for q in kept.states]
    assert remap == sorted(remap), "kept states are not in (q, d) order"
    sparse = {}
    for b in pq.letters:
        d, rows = kept.sparse_rows[b]
        padded_rows = [()] * len(names)
        for i, row in enumerate(rows):
            padded_rows[remap[i]] = tuple((remap[j], x) for j, x in row)
        sparse[b] = d, tuple(padded_rows)
    finals = kept.finals | {f"{q}@{k}" for q in wa.finals}
    padded = WeightedAutomaton(tuple(names), pq.letters, sparse, frozenset(finals))
    levels = tuple((qi, d) for qi in range(wa.n) for d in range(k + 1))
    return PlusQuery(
        padded, pq.s, pq.s_prime, pq.letters, pq.source_letters, levels, pq.growth
    )


def _plus_outcome(pq):
    return [
        (c.x_sig, c.y_sigs, c.lin, c.formula.to_smt2(), c.decision.verdict)
        for c in decide_plus(pq)
    ]


def test_plus_subquery_padding_invariance():
    """Each sub-question keeps only its live states and the two starts, and
    putting the dropped states back changes no candidate or verdict."""
    cases = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            wa = parse_automaton(fh.read())
        cases.append((wa, "s", "s'", detect_letter_bounded(wa, "s'")))
    rng = random.Random(701)
    for _ in range(30):
        cases.append((random_block_wa(rng, per=2), "L0_0", "L0_1", ("a", "b")))
    dropped = 0
    for wa, s, sp, letters in cases:
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            kept = pq.automaton
            edges = [
                (i, b, j)
                for b in pq.letters
                for i, row in enumerate(kept.sparse_rows[b][1])
                for j, _ in row
            ]
            starts = {kept.index(pq.s), kept.index(pq.s_prime)}
            live = trim(starts, [kept.index(f) for f in kept.finals], edges)
            assert set(range(kept.n)) - starts <= live
            padded = _padded(wa, pq)
            dropped += padded.automaton.n - kept.n
            assert _plus_outcome(padded) == _plus_outcome(pq)
    assert dropped > 0


def test_unread_patterns_skip_the_analysis(monkeypatch):
    """A pattern that no word accepted from either start collapses to gets
    the two starts alone, with no step and no final; and wherever `s@0`
    has no step, `decide_plus` answers with no candidate and no analysis,
    as the analysis would.  A pattern counts as read when some block word
    with blocks of length 1 to the state count has positive weight from a
    start: a shortest accepted word of the pattern visits each product
    state at most once."""
    from ratiobound import bounded

    calls = []
    analyse = bounded.plus_analysis

    def counted(pq, *args):
        calls.append(pq)
        return analyse(pq, *args)

    monkeypatch.setattr(bounded, "plus_analysis", counted)
    rng = random.Random(19)
    seen = Counter()
    for _ in range(40):
        letters = rng.choice([("a", "b"), ("a", "b", "c")])
        wa = random_block_wa(rng, letters, per=2)
        s, sp = rng.choice(wa.states), rng.choice(wa.states)
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            kept = pq.automaton
            read = any(
                weight_blocks(wa, q, list(zip(pq.source_letters, lengths))) > 0
                for q in (s, sp)
                for lengths in product(range(1, wa.n + 1), repeat=len(pq.letters))
            )
            if not read:
                assert set(kept.states) == {pq.s, pq.s_prime}
                assert not kept.transitions() and not kept.finals
            else:
                assert kept.finals
            before = len(calls)
            decided = decide_plus(pq)
            if kept.sparse_rows[pq.letters[0]][1][kept.index(pq.s)]:
                assert len(calls) == before + 1
                seen["analysed"] += 1
            else:
                assert decided == () and len(calls) == before
                # the analysis it skips realizes no candidate
                assert not realized_candidates(analyse(pq))
                seen["skipped, read" if read else "skipped, unread"] += 1
    assert min(seen.values()) >= 10, seen


def test_pattern_search_ends_outside_the_bound():
    """States that read words outside the bound, off the live part, stop the
    search over (state, collapsed prefix) pairs at the first prefix that is
    no pattern: `z` reads (ab)* from `s` but reaches no final."""
    wa = WeightedAutomaton.from_transitions(
        ["s", "t", "z"],
        ["a", "b"],
        [
            ("s", "a", F(1, 2), "s"),
            ("s", "b", F(1, 2), "t"),
            ("s", "a", F(1, 2), "z"),
            ("z", "b", F(1, 2), "z"),
            ("z", "a", F(1, 2), "z"),
        ],
        ["t"],
    )
    assert detect_letter_bounded(wa, "s") == ("a", "b")

    def on_alarm(signum, frame):
        raise TimeoutError("the pattern search did not end")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(5)
    try:
        subs = letter_bounded_to_plus(wa, "s", "s", ("a", "b"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [pq.source_letters for pq in subs] == [("a",), ("a", "b"), ("b",)]
    assert [bool(pq.automaton.finals) for pq in subs] == [False, True, True]
    assert decide_bounded(Query(wa, "s", "s")).verdict == "is-big-o"


def _product_analysis(pq):
    """Radius table, delta and zero indices, and per block each state's
    component and radius index, from decomposing the sub-question's own
    block rows."""
    wa = pq.automaton
    dags = [scc_decompose(wa.sparse_rows[b]) for b in pq.letters]
    radii = [info.radius for dag in dags for info in dag.sccs]
    zero = AlgebraicNumber.from_rational(F(0))
    positives = [r for r in radii if r.sign() > 0]
    if positives:
        delta = min(positives, key=cmp_to_key(compare)).scaled(F(1, 2))
    else:
        delta = AlgebraicNumber.from_rational(F(1, 2))
    table, ranks = rank_radii(radii + [zero, delta])
    blocks, at = [], 0
    for dag in dags:
        rank = ranks[at : at + len(dag.sccs)]
        at += len(dag.sccs)
        blocks.append((dag.scc_of, tuple(rank[c] for c in dag.scc_of)))
    return table, ranks[-1], ranks[-2], blocks


def _same_component(scc_of):
    return sorted(
        sorted(i for i, c in enumerate(scc_of) if c == comp) for comp in set(scc_of)
    )


def test_shared_letter_analysis_matches_the_product():
    """`plus_analysis` reads each block's components and radii off its
    source letter's, decomposed once per query; on every sub-question (and
    its copy with the dropped states put back) that gives the table, delta
    and zero indices, radius indices and components that decomposing the
    sub-question's own rows gives.  No monitor signature holds ZERO, so
    `emit_formula` needs no zero-radius filter."""
    from test_bench_hooks import _load

    cases = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            wa = parse_automaton(fh.read())
        cases.append((wa, "s", "s'", detect_letter_bounded(wa, "s'")))
    for q in _load("workloads").build("bounded", 1, helpers):
        argv = dict(zip(q.argv[1::2], q.argv[2::2]))
        wa = parse_automaton(q.document)
        s, sp = argv["--from"], argv["--to"]
        cases.append((wa, s, sp, detect_letter_bounded(wa, sp)))
    rng = random.Random(1307)
    for i in range(30):
        letters = ("a", "b", "c")[: 2 + i % 2]
        cases.append((random_block_wa(rng, letters, per=2), "L0_0", "L0_1", letters))
    irrational = 0
    slots = Counter()
    for wa, s, sp, letters in cases:
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            for sub in (pq, _padded(wa, pq)):
                analysis = plus_analysis(sub)
                radii, delta_idx, zero_idx, blocks = _product_analysis(sub)
                assert analysis.table == radii
                assert (DELTA, ZERO) == (delta_idx, zero_idx)
                for info, (scc_of, rad_of_state) in zip(analysis.blocks, blocks):
                    assert info.rad_of_state == rad_of_state
                    assert _same_component(info.scc_of) == _same_component(scc_of)
                for det in (analysis.det_s, analysis.det_p):
                    for sig in set().union(*det.sigsets):
                        slots["signatures"] += 1
                        slots["zero"] += any(ri == ZERO for ri, _ in sig)
                        slots["delta"] += any(ri == DELTA for ri, _ in sig)
            irrational += any(not r.is_rational for r in radii)
    assert irrational > 0
    assert slots["zero"] == 0 and 0 < slots["delta"] < slots["signatures"], slots


# ---------------------------------------------------------------------------
# detectors and Parikh decomposition


def analysis_ab(p=F(62, 100)):
    wa = relative_orderings(p)
    subs = letter_bounded_to_plus(wa, "s", "s'", ("a", "b"))
    pq = [s for s in subs if s.source_letters == ("a", "b")][0]
    return pq, plus_analysis(pq)


def test_detector_relative_orderings_realized():
    pq, analysis = analysis_ab()
    realized = realized_candidates(analysis)
    assert realized, "expected realized candidates"
    # locate the candidate whose X matches ((3/5,0),(2/5,0)) exactly
    match = None
    for (x_sig, y_sigs) in sorted(realized):
        radii = [analysis.table[ri] for (ri, k) in x_sig]
        if all(k == 0 for (_, k) in x_sig) and [
            r.lo for r in radii if r.is_rational
        ] == [F(3, 5), F(2, 5)]:
            match = (x_sig, y_sigs)
    assert match is not None
    x_sig, y_sigs = match
    assert y_sigs, "realized degree set should be nonempty"
    det = detector_nfa(analysis, realized[match])
    # the detector accepts the a a b b region
    assert det.accepts([pq.letters[0]] * 2 + [pq.letters[1]] * 2)
    assert det.accepts([pq.letters[0]] * 3 + [pq.letters[1]] * 4)


def test_detector_membership_matches_brute_force():
    rng = random.Random(311)
    for _ in range(6):
        wa = random_block_wa(rng, per=2)
        s, sp = "L0_0", "L0_1"
        subs = letter_bounded_to_plus(wa, s, sp, ("a", "b"))
        pq = [x for x in subs if x.source_letters == ("a", "b")][0]
        analysis = plus_analysis(pq)
        realized = realized_candidates(analysis)
        for (x_sig, y_sigs), finals in realized.items():
            det = detector_nfa(analysis, finals)
            for n1 in range(1, 5):
                for n2 in range(1, 5):
                    word = [pq.letters[0]] * n1 + [pq.letters[1]] * n2
                    got = det.accepts(word)
                    ds = brute_block_degree(pq.automaton, pq.s, pq.letters, (n1, n2))
                    dp = brute_block_degree(
                        pq.automaton, pq.s_prime, pq.letters, (n1, n2)
                    )
                    want = x_sig in ds and tuple(sorted(y_sigs)) == tuple(sorted(dp))
                    assert got == want, (x_sig, y_sigs, n1, n2, ds, dp)


def test_parikh_spec_examples():
    from ratiobound import Nfa

    single = Nfa(
        ("S", "A"), ("a",), frozenset({("S", "a", "A"), ("A", "a", "A")}), "S", frozenset({"A"})
    )
    assert parikh_linear_sets(single, ("a",)) == [LinearSet((1,), (1,))]
    two = Nfa(
        ("S", "A0", "A1", "B0", "B1", "B2"),
        ("a", "b"),
        frozenset(
            {
                ("S", "a", "A1"),
                ("A1", "a", "A0"),
                ("A0", "a", "A1"),
                ("A1", "b", "B0"),
                ("B0", "b", "B1"),
                ("B1", "b", "B2"),
                ("B2", "b", "B0"),
            }
        ),
        "S",
        frozenset({"B1"}),
    )
    assert parikh_linear_sets(two, ("a", "b")) == [LinearSet((1, 2), (2, 3))]


def _subset_dfa(n: Nfa) -> Nfa:
    """The subset construction of `n`, its states numbered in discovery
    order; the empty subset is left out."""
    subsets, edges = explore(
        [frozenset([n.start])],
        lambda sub: ((a, t) for a in n.alphabet if (t := n.step(sub, a))),
    )
    finals = frozenset(i for i, sub in enumerate(subsets) if sub & n.finals)
    return Nfa(tuple(range(len(subsets))), n.alphabet, frozenset(edges), 0, finals)


def test_parikh_union_matches_enumeration():
    rng = random.Random(331)
    for _ in range(5):
        wa = random_block_wa(rng, per=2)
        subs = letter_bounded_to_plus(wa, "L0_0", "L0_0", ("a", "b"))
        pq = [s for s in subs if s.source_letters == ("a", "b")][0]
        from ratiobound import nfa_of

        n = nfa_of(pq.automaton, pq.s)
        sets = parikh_linear_sets(_subset_dfa(n), pq.letters)
        members = set()
        for ls in sets:
            for lam in product(range(9), repeat=len(ls.base)):
                vec = ls.member(lam)
                if all(v <= 8 for v in vec):
                    members.add(vec)
        for n1 in range(1, 9):
            for n2 in range(1, 9):
                word = [pq.letters[0]] * n1 + [pq.letters[1]] * n2
                assert ((n1, n2) in members) == n.accepts(word)


def test_parikh_rejects_a_nondeterministic_automaton():
    trans = frozenset({("S", "a", "A"), ("S", "a", "B")})
    n = Nfa(("S", "A", "B"), ("a",), trans, "S", frozenset({"A"}))
    with pytest.raises(InputError, match="deterministic"):
        parikh_linear_sets(n, ("a",))
    assert parikh_linear_sets(_subset_dfa(n), ("a",)) == [LinearSet((1,), (0,))]


def test_parikh_sets_of_random_detectors_match_membership():
    """On the detectors of seeded letter-bounded queries, in both directions
    and for every plus-subquery, the block vectors with all counts 1..6 that
    some linear set holds are exactly those the detector accepts."""
    rng = random.Random(331)
    checks = 0
    for _ in range(40):
        wa = random_block_wa(rng, per=2)
        for s, sp in (("L0_0", "L0_1"), ("L0_1", "L0_0")):
            for pq in letter_bounded_to_plus(wa, s, sp, ("a", "b")):
                m = len(pq.letters)
                analysis = plus_analysis(pq)
                for finals in realized_candidates(analysis).values():
                    det = detector_nfa(analysis, finals)
                    members = {
                        vec
                        for ls in parikh_linear_sets(det, pq.letters)
                        for lam in product(range(7), repeat=m)
                        if max(vec := ls.member(lam)) <= 6
                    }
                    for vec in product(range(1, 7), repeat=m):
                        word = [b for b, k in zip(pq.letters, vec) for _ in range(k)]
                        assert (vec in members) == det.accepts(word), (pq.source_letters, vec)
                        checks += 1
    assert checks == 2448


def test_parikh_round_trip_with_detector():
    pq, analysis = analysis_ab()
    for finals in realized_candidates(analysis).values():
        det = detector_nfa(analysis, finals)
        sets = parikh_linear_sets(det, pq.letters)
        for ls in sets:
            for lam in product(range(4), repeat=len(ls.base)):
                vec = ls.member(lam)
                word = []
                for letter, cnt in zip(pq.letters, vec):
                    word.extend([letter] * cnt)
                assert det.accepts(word), (ls, vec)


# ---------------------------------------------------------------------------
# formulas


def test_emit_formula_identity_rows_are_zero():
    pq, analysis = analysis_ab()
    realized = realized_candidates(analysis)
    (x_sig, y_sigs) = sorted(realized)[0]
    lin = LinearSet((1, 1), (1, 1))
    f = emit_formula(analysis, x_sig, (x_sig,), lin)
    assert all(
        co.exactly_zero() for row in f.system.rows for co in row.coeffs
    )
    assert semi_decide(f).verdict == FAILS


def test_emit_formula_relative_ordering_constants():
    pq, analysis = analysis_ab(F(61, 100))
    realized = realized_candidates(analysis)
    # the interesting candidate has X from s and |Y| = 2
    target = None
    for (x_sig, y_sigs) in sorted(realized):
        if len(y_sigs) == 2:
            target = (x_sig, y_sigs)
    assert target is not None
    x_sig, y_sigs = target
    f = emit_formula(analysis, x_sig, y_sigs, LinearSet((1, 1), (1, 1)))
    coeffs = [co for row in f.system.rows for co in row.coeffs]
    assert all(co.num.is_rational and co.den.is_rational for co in coeffs)
    nums = sorted(str(co.num.lo) for co in coeffs)
    dens = sorted(str(co.den.lo) for co in coeffs)
    assert nums == ["39/100", "41/100", "59/100", "61/100"]
    assert set(dens) == {"3/5", "2/5"}
    n_states = pq.automaton.n
    for row in f.system.rows:
        for p in row.logs:
            assert -n_states <= p <= n_states


def test_decide_bounded_relative_orderings():
    assert (
        decide_bounded(Query(relative_orderings(F(62, 100)), "s", "s'")).verdict
        == "is-big-o"
    )
    res = decide_bounded(Query(relative_orderings(F(61, 100)), "s", "s'"))
    assert res.verdict == "not-big-o"
    assert len(res.witness["increasing_run"]) >= 3


def test_decide_bounded_agrees_with_unary():
    rng = random.Random(349)
    agreements = 0
    for _ in range(30):
        wa = random_wa(rng, nstates=rng.randint(2, 4), alphabet=("a",), density=0.5)
        q = Query(wa, "q0", "q1")
        want = checked_verdict(decide_unary(q)).verdict
        got = checked_verdict(decide_bounded(q), bounded=True)
        assert got.verdict in ("is-big-o", "not-big-o")
        assert got.verdict == want
        agreements += 1
    assert agreements == 30


def test_decide_bounded_agrees_with_unary_seeded():
    """Every certified decide_bounded verdict on seeded random unary
    automata matches decide_unary, on queries with containment holding and
    failing alike."""
    rng = random.Random(7)
    counts = {}
    for _ in range(400):
        wa = random_wa(
            rng, nstates=rng.randint(2, 5), alphabet=("a",), density=rng.uniform(0.3, 0.8)
        )
        s, sp = rng.sample(wa.states, 2)
        q = Query(wa, s, sp)
        unary = checked_verdict(decide_unary(q))
        got = checked_verdict(decide_bounded(q), bounded=True).verdict
        if got != "unknown":
            assert got == unary.verdict, wa.transitions()
        key = (got, unary.witness and unary.witness["type"])
        counts[key] = counts.get(key, 0) + 1
    assert counts.get(("unknown", None), 0) <= 4, counts
    assert counts.get(("is-big-o", None), 0) >= 100, counts
    assert counts.get(("not-big-o", "degree"), 0) >= 10, counts
    assert counts.get(("not-big-o", "lc"), 0) >= 100, counts


def test_bounded_pipeline_never_builds_dense_matrices():
    """The automaton keeps no dense matrix view, so the pipeline reads only
    sparse rows; the dense references live in the tests' helpers."""
    assert not any(hasattr(WeightedAutomaton, n) for n in ("trans", "matrix"))
    for p, verdict in ((F(61, 100), "not-big-o"), (F(62, 100), "is-big-o")):
        assert decide_bounded(Query(relative_orderings(p), "s", "s'")).verdict == verdict


def test_decide_bounded_lc_failure():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a"],
        [("p", "a", F(1), "t"), ("q", "a", F(1, 2), "q")],
        ["t"],
    )
    res = decide_bounded(Query(wa, "p", "q"))
    assert res.verdict == "not-big-o"
    assert res.witness == {"type": "lc", "lcCounterexample": "a"}


def test_decide_bounded_with_words():
    # both sides accept exactly (ab)^n a, with loop rates 3/4 versus 1/2
    trans = [
        ("p", "a", F(3, 4), "q"),
        ("q", "b", F(1), "p"),
        ("p", "a", F(1, 4), "t"),
        ("r", "a", F(1, 2), "r2"),
        ("r2", "b", F(1), "r"),
        ("r", "a", F(1, 2), "t"),
    ]
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "r", "r2", "t"], ["a", "b"], trans, ["t"]
    )
    for n in range(5):
        assert weight(wa, "p", "ab" * n + "a") == F(3, 4) ** n * F(1, 4)
        assert weight(wa, "r", "ab" * n + "a") == F(1, 2) ** n * F(1, 2)
    res = decide_bounded(Query(wa, "p", "r"), words=["ab", "a"])
    assert res.verdict == "not-big-o"
    res2 = decide_bounded(Query(wa, "r", "p"), words=["ab", "a"])
    assert res2.verdict == "is-big-o"


def test_decide_bounded_rejects_bounds_that_miss_the_language():
    """Supplied words must bound L(s): on a^n alone the query is
    big-O, but b^n a is accepted too and its ratio grows as (3/2)^n."""
    q = Query(not_big_o_on_b(), "s", "s'")
    assert F(decide_unambiguous(q).witness["cycleRatio"]) == F(3, 2)
    for words in (["a"], ["a", "b"]):
        with pytest.raises(InputError, match="miss"):
            decide_bounded(q, words)


_WORD_SETS = (("ab", "a"), ("a", "b"), ("ab", "ba"), ("a", "ab"))
_CHAIN_RATES = (F(1, 5), F(2, 5), F(1, 2), F(3, 5), F(4, 5))


def _word_chain(rng, words):
    """Both starts accept exactly w1^+ ... wm^+.  `s` is one branch and `s'`
    one or two; a branch enters block i on w_i, loops on w_i and moves on
    on w_{i+1}, each first letter carrying a rate drawn from five."""
    states, trans, finals = [], [], []

    def read(src, word, w, dst):
        prev = src
        for k, ch in enumerate(word):
            nxt = dst if k == len(word) - 1 else f"{src}>{dst}.{k}"
            if nxt != dst:
                states.append(nxt)
            trans.append((prev, ch, w if k == 0 else F(1), nxt))
            prev = nxt

    for start, nbranch in (("s", 1), ("s'", rng.randint(1, 2))):
        states.append(start)
        for b in range(nbranch):
            entries = [f"{start}{b}_{i}" for i in range(len(words))]
            states.extend(entries)
            read(start, words[0], F(1, nbranch), entries[0])
            for i, e in enumerate(entries):
                read(e, words[i], rng.choice(_CHAIN_RATES), e)
                if i + 1 < len(words):
                    read(e, words[i + 1], rng.choice(_CHAIN_RATES), entries[i + 1])
            finals.append(entries[-1])
    alphabet = sorted({ch for w in words for ch in w})
    return WeightedAutomaton.from_transitions(states, alphabet, trans, finals)


# verdicts of the former transducer reduction on 60 draws of `_word_chain`
# (random.Random(11), word sets in turn): N not-big-o, B is-big-o
_TRANSDUCER_VERDICTS = "NBBNBNNNBNBNNBBBBNNNNNNBNBBBBBBNBBNNNNNNNBBBBNBNNNNNBNBBNNBB"


def test_decide_bounded_with_words_differential():
    """Word substitution keeps the transducer's verdicts, and each not-big-o
    witness, read back as w_i^n_i, has exactly the reported ratios on the
    original automaton."""
    rng = random.Random(11)
    verdicts = ""
    for k, old in enumerate(_TRANSDUCER_VERDICTS):
        words = _WORD_SETS[k % len(_WORD_SETS)]
        wa = _word_chain(rng, words)
        lb = bounded_to_letter_bounded(wa, words)
        assert lb.states == wa.states
        assert lb.finals == wa.finals
        res = decide_bounded(Query(wa, "s", "s'"), words=words)
        assert "lcCounterexample" not in (res.witness or {})
        verdicts += {"is-big-o": "B", "not-big-o": "N"}[res.verdict]
        assert verdicts[-1] == old, (k, words, wa.transitions())
        if res.verdict == "not-big-o":
            w = res.witness
            assert w["bounding_words"] == list(words)
            word_of = dict(zip(lb.alphabet, words))
            for vec, ratio in zip(w["vectors"], w["ratios"], strict=True):
                word = "".join(word_of[b] * n for b, n in zip(w["block_letters"], vec))
                assert weight(wa, "s", word) / weight(wa, "s'", word) == F(ratio)
    assert verdicts.count("B") == 28 and verdicts.count("N") == 32


# ---------------------------------------------------------------------------
# finitely ambiguous: growth tuples decided as block chains


def _decide_tuple(d):
    return decide_bounded(Query(oracles.block_chain(d), "s", "s'"))


def _check_tuple_witness(d, res):
    """A not-big-o reads the chain's letters in order, and ships ratios that
    the tuple's own sums give exactly at the reported vectors, with a
    strictly increasing run among them."""
    w = res.witness
    assert w["block_letters"] == [f"a{i + 1}" for i in range(d.dim)]
    ratios = [oracles.tuple_ratio(d, v) for v in w["vectors"]]
    assert [F(r) for r in w["ratios"]] == ratios
    run = [F(r) for r in w["increasing_run"]]
    assert len(run) == 3 and run[0] < run[1] < run[2]
    assert set(run) <= set(ratios)


def test_finitely_ambiguous_identical_sides():
    d = GrowthTuple((F(1), F(2)), ((F(2), F(3)), (F(1, 2), F(1))), (F(1), F(2)), ((F(2), F(3)), (F(1, 2), F(1))))
    assert _decide_tuple(d).verdict == "is-big-o"


def test_finitely_ambiguous_single_growing():
    """2^n over 1 diverges along the one coordinate, the ray (1)."""
    d = GrowthTuple((F(1),), ((F(2),),), (F(1),), ((F(1),),))
    res = _decide_tuple(d)
    assert res.verdict == "not-big-o"
    _check_tuple_witness(d, res)
    assert res.witness["ray"] == ["1"]


def test_finitely_ambiguous_tuples_without_letters_to_read():
    """An empty first sum and dimension 0 leave no letter to read from `s`:
    both are is-big-o, the second on an empty alphabet.  The dimension comes
    from either side's rows."""
    empty_num = GrowthTuple((), (), (F(1),), ((F(2), F(3)),))
    assert empty_num.dim == 2
    assert oracles.block_chain(empty_num).alphabet == ("a1", "a2")
    flat = GrowthTuple((F(1),), ((),), (F(2),), ((),))
    chain = oracles.block_chain(flat)
    assert flat.dim == 0 and chain.alphabet == () and chain.finals == frozenset()
    for d in (empty_num, flat):
        assert _decide_tuple(d).verdict == "is-big-o"


def test_finitely_ambiguous_grid_confirmation():
    """Divergence verdicts replay on the natural-number grid."""
    tuples = [
        GrowthTuple((F(1),), ((F(3, 2), F(2)),), (F(1),), ((F(1), F(2)),)),
        GrowthTuple((F(2),), ((F(1, 2), F(3)),), (F(3),), ((F(1, 2), F(2)),)),
    ]
    for d in tuples:
        res = _decide_tuple(d)
        assert res.verdict == "not-big-o"
        _check_tuple_witness(d, res)
        grid = range(0, 61, 10)
        assert any(oracles.tuple_ratio(d, (n1, n2)) > 1000 for n1 in grid for n2 in grid)


def test_block_chain_weighs_the_tuple_ratio():
    """On a1^n1 ... ad^nd (every n_i >= 1) the chain's two weights are the
    tuple's two sums, so their ratio is the tuple's ratio at n."""
    rng = random.Random(3)
    for d in _draw_wide_delta_tuples()[:40]:
        wa = oracles.block_chain(d)
        for _ in range(3):
            n = [rng.randint(1, 6) for _ in range(d.dim)]
            blocks = list(zip(wa.alphabet, n))
            ratio = weight_blocks(wa, "s", blocks) / weight_blocks(wa, "s'", blocks)
            assert ratio == oracles.tuple_ratio(d, n), (d, n)


def _draw_delta_tuples(count=400, seed=2026):
    """Dimension 1-3, 1-3 rows a side, weights and bases from seven
    rationals; in 30% of draws the first denominator row copies a
    numerator row."""
    rng = random.Random(seed)
    vals = (F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3))
    out = []
    for _ in range(count):
        dim = rng.randint(1, 3)
        nq, ns = rng.randint(1, 3), rng.randint(1, 3)
        q_rows = tuple(tuple(rng.choice(vals) for _ in range(dim)) for _ in range(nq))
        s_rows = [tuple(rng.choice(vals) for _ in range(dim)) for _ in range(ns)]
        if rng.random() < 0.3:
            s_rows[0] = rng.choice(q_rows)
        p = tuple(rng.choice(vals) for _ in range(nq))
        r = tuple(rng.choice(vals) for _ in range(ns))
        out.append(GrowthTuple(p, q_rows, r, tuple(s_rows)))
    return out


def _draw_wide_delta_tuples(count=300, seed=7):
    """Dimension 1-4, 1-4 rows a side; in 40% of draws one denominator row
    copies a numerator row, and in 20% one row ties another coordinate-wise
    on all but one coordinate."""
    rng = random.Random(seed)
    vals = (F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3))
    out = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        nq, ns = rng.randint(1, 4), rng.randint(1, 4)
        q_rows = tuple(tuple(rng.choice(vals) for _ in range(dim)) for _ in range(nq))
        s_rows = [tuple(rng.choice(vals) for _ in range(dim)) for _ in range(ns)]
        if rng.random() < 0.4:
            s_rows[rng.randrange(ns)] = rng.choice(q_rows)
        if rng.random() < 0.2:
            row = list(rng.choice(q_rows))
            row[rng.randrange(dim)] = rng.choice(vals)
            s_rows[rng.randrange(ns)] = tuple(row)
        p = tuple(rng.choice(vals) for _ in range(nq))
        r = tuple(rng.choice(vals) for _ in range(ns))
        out.append(GrowthTuple(p, q_rows, r, tuple(s_rows)))
    return out


# verdicts of the former single-precision slope search on the draws above:
# N not-big-o, B is-big-o, U unknown
_SLOPE_SEARCH_VERDICTS = (
    "BNNNNNNBNBUNBNNNBBUBUNNBNNNBNNBNNBNNBBNNNNNNNBNBNNNBUNNNNNBBNBNNNNNNNUUBBB"
    "NBNBBBBNBNUBNNBNNBBNNNNBBNNBNUNUBNBBNBNBBBBBBNNNNNNNUNBNNBNBBNNBNBNNNBNNBB"
    "NNBBNNBBBBBNBBBBBNBBNBNUNBNBBNBBNUNBBBNNBNNNNBNNNBNNNNNNNNUNNBNBBBUBBNNBBB"
    "NNNBBNNNNBNNUUBNNNNBBUUBNNNBNBBNNNNBBNBBNUNNNBNNNNBNBNNNNNBBNBNNNNNNNNNBNN"
    "BUBNNBNBUBBBNBBBNNNNNNNNNBBUNNNBNNNBNBNUNBNBNNBNNNBNNNNNBBNUNNBUNBNNNNBNBN"
    "NUBBNUBBNBNNNUNBNNNNBNUBNNBBNN"
)


def test_finitely_ambiguous_differential_against_slope_search():
    """The block chains keep every verdict the former slope search
    certified and settle all of its unknowns; every not-big-o ships an
    exactly evaluated increasing run."""
    code = {"not-big-o": "N", "is-big-o": "B", "unknown": "U"}
    verdicts = []
    for d, old in zip(_draw_delta_tuples(), _SLOPE_SEARCH_VERDICTS):
        res = _decide_tuple(d)
        new = code[res.verdict]
        assert new == old or old == "U", (d, old, new)
        if new == "N":
            _check_tuple_witness(d, res)
        verdicts.append(new)
    assert len(verdicts) == 400
    counts = {c: verdicts.count(c) for c in "NBU"}
    assert counts == {"N": 226, "B": 174, "U": 0}
    assert _SLOPE_SEARCH_VERDICTS.count("U") == 29


# verdicts of the former one-sentence-per-numerator-row check on
# `_draw_wide_delta_tuples()`: N not-big-o, B is-big-o
_ROW_SENTENCE_VERDICTS = (
    "NBNBNNNNNNNBNBBBBNNNNNBBNNNBBBBNNBNNBNBNNBNNBNNNBNBBNBNNNNNBNBNNBNBNNBNBBN"
    "BBNNBNNBNBBNBNNNBNNNNNBBNBNNBNBNNNBNBBNNBBBNBBNBNNNNNNNBBBNNNNNBBBNBBNNBBN"
    "NBNBNBBNNNBNBBBNNNNBNNNNBNNBBNBNBBNBNBBNNNBNBBBNBBBBNNNNNBNNBBBBNBBNBNBBBB"
    "NNNNNNNBBBNBNBNNNNBNBBNNNBBBBNBNNNBNNBNNNBNBBBNNNNBNBNBNBBBNNNNBNNNNNNNNNB"
    "NNNN"
)


def test_finitely_ambiguous_differential_on_wide_draws():
    """Dimension up to 4 with exact ties: the block chains give the verdicts
    the former per-row sentences gave, and every not-big-o ships an exactly
    evaluated increasing run."""
    code = {"not-big-o": "N", "is-big-o": "B", "unknown": "U"}
    verdicts = ""
    for d in _draw_wide_delta_tuples():
        res = _decide_tuple(d)
        if res.verdict == "not-big-o":
            _check_tuple_witness(d, res)
        verdicts += code[res.verdict]
    assert verdicts == _ROW_SENTENCE_VERDICTS
    assert (verdicts.count("N"), verdicts.count("B")) == (174, 126)


def test_realized_degree_sets_are_antichains():
    """Signatures hold (radius index, count) pairs; the radius table is
    sorted ascending, so comparing indices orders the radii."""
    pq, analysis = analysis_ab()
    pairs = sorted(realized_candidates(analysis))
    assert pairs
    for x_sig, y_sigs in pairs:
        assert all(len(y) == len(x_sig) for y in y_sigs)
        # antichain: no signature dominates another
        for v in y_sigs:
            for w in y_sigs:
                le = all(a <= b for a, b in zip(v, w))
                assert not (le and v != w)


def test_witness_without_increasing_run_is_unknown(monkeypatch, tmp_path, capsys):
    """not-big-o needs an exactly increasing ratio run.  With every block
    weight flat at 1 there is none, so the certified candidate is reported
    unknown and its formula is still exported."""
    import ratiobound.bounded
    from ratiobound.cli import main
    from ratiobound.jsonio import serialize

    monkeypatch.setattr(ratiobound.bounded, "weight_blocks", lambda *args: F(1))
    wa = relative_orderings(F(61, 100))
    res = decide_bounded(Query(wa, "s", "s'"))
    assert res.verdict == "unknown" and res.witness is None
    assert any(semi_decide(f).verdict == HOLDS for f in res.unknown_formulas)
    doc = tmp_path / "p61.json"
    doc.write_text(serialize(wa), encoding="utf-8")
    smt = tmp_path / "smt"
    argv = ["check", "--file", str(doc), "--from", "s", "--to", "s'", "--mode", "bounded"]
    # the report bytes, each `smtFiles` entry cut to its file name
    pinned = {}
    for human in (False, True):
        assert main(argv + ["--emit-smt", str(smt)] + ["--human"] * human) == 2
        out = capsys.readouterr().out
        if not human:
            report = json.loads(out)
            assert len(report["smtFiles"]) == len(os.listdir(smt)) == len(res.unknown_formulas)
        cut = out.replace(str(smt) + os.sep, "")
        pinned[human] = hashlib.sha256(cut.encode()).hexdigest()
    assert pinned == {
        False: "aa0cae309b51e4da0ca0fa371f2812c3cdc47628462a2bc05cfef83fcc636e8f",
        True: "fd4a29c6e2b94e3e99e264a8abefb8ffe34188dc1ff61d1ff9e0962c1b5104db",
    }


def test_plus_analysis_caps_the_product_of_the_monitors(monkeypatch):
    """Draw 188 of these has an (a, b) sub-question whose monitors have 4
    and 6 states and whose product has 7: the cap holds the product too."""
    from ratiobound import bounded

    rng = random.Random(5)
    for _ in range(189):
        wa = random_block_wa(rng, per=2)
    subs = letter_bounded_to_plus(wa, "L0_0", "L0_1", ("a", "b"))
    (pq,) = [s for s in subs if s.source_letters == ("a", "b")]
    monkeypatch.setattr(bounded, "MONITOR_CAP", 7)
    analysis = plus_analysis(pq)
    sizes = len(analysis.det_s.states), len(analysis.det_p.states), len(analysis.product_states)
    assert sizes == (4, 6, 7)
    monkeypatch.setattr(bounded, "MONITOR_CAP", 6)
    with pytest.raises(ResourceError):
        plus_analysis(pq)


def test_plus_analysis_monitor_cap(monkeypatch):
    from ratiobound import bounded

    wa = relative_orderings(F(62, 100))
    sizes = []
    for pq in letter_bounded_to_plus(wa, "s", "s'", ("a", "b")):
        analysis = plus_analysis(pq)
        size = max(len(analysis.det_s.states), len(analysis.det_p.states))
        sizes.append(size)
        with monkeypatch.context() as patch:
            patch.setattr(bounded, "MONITOR_CAP", size)
            exact = plus_analysis(pq)
            assert exact.det_s.states == analysis.det_s.states
            assert exact.product_states == analysis.product_states
            if size > 1:
                patch.setattr(bounded, "MONITOR_CAP", size - 1)
                with pytest.raises(ResourceError):
                    plus_analysis(pq)
    assert max(sizes) > 1, sizes



def _candidate_cases(seeds=(1,)):
    """Letter-bounded queries over the data files, seeded random block
    automata read in both directions, and the bench `bounded` passes of
    `seeds`."""
    from test_bench_hooks import _load

    cases = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            wa = parse_automaton(fh.read())
        letters = detect_letter_bounded(wa, "s'")
        if letters:
            cases.append((wa, "s", "s'", letters))
    rng = random.Random(2111)
    for _ in range(40):
        wa = random_block_wa(rng, per=2)
        cases += [(wa, "L0_0", "L0_1", ("a", "b")), (wa, "L0_1", "L0_0", ("a", "b"))]
    for seed in seeds:
        for q in _load("workloads").build("bounded", seed, helpers):
            argv = dict(zip(q.argv[1::2], q.argv[2::2]))
            wa = parse_automaton(q.document)
            letters = detect_letter_bounded(wa, argv["--to"])
            cases.append((wa, argv["--from"], argv["--to"], letters))
    return cases


def test_signature_decisions_are_the_semi_decisions_of_their_sentences():
    """A candidate with no unbounded coordinate, or whose X some Y bounds at
    every unbounded coordinate, is decided without its sentence; its
    decision (verdict, ray and detail) is what `semi_decide` gives the
    sentence `formula` then emits.  Every other candidate's decision is its
    sentence's semi-decision too."""
    by_signature = by_sentence = 0
    for wa, s, sp, letters in _candidate_cases():
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            for c in decide_plus(pq):
                if c._formula is None:
                    by_signature += 1
                    assert c.decision.verdict == FAILS and c.decision.ray is None
                else:
                    by_sentence += 1
                assert c.decision == semi_decide(c.formula)
    assert by_signature > by_sentence > 0


def _merged(verdicts):
    """A sub-question's outcome: any `holds`, else any `unknown`, else `fails`."""
    verdicts = set(verdicts)
    return HOLDS if HOLDS in verdicts else UNKNOWN if UNKNOWN in verdicts else FAILS


def test_one_sentence_per_linear_set_decides_as_every_subset_did():
    """Each linear set's one sentence ranges over all its unbounded
    coordinates P.  Against the reference that semi-decides the sentence
    restricted to every subset U of P, each sub-question's merged outcome
    is the same, and a `fails` on P is a `fails` on every U."""
    subsets = outcomes = 0
    for wa, s, sp, letters in _candidate_cases(seeds=range(1, 11)):
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            decided = decide_plus(pq)
            every_u = []
            for c in decided:
                ref = oracles.ref_every_u(c)
                assert ref[c.lin.unbounded].verdict == c.decision.verdict
                if c.decision.verdict == FAILS:
                    assert all(d.verdict == FAILS for d in ref.values()), c.lin
                every_u += [d.verdict for d in ref.values()]
            assert _merged(c.decision.verdict for c in decided) == _merged(every_u)
            subsets += len(every_u) - len(decided)
            outcomes += bool(decided)
    assert subsets > 0 and outcomes > 0


def test_seed_1_bounded_pass_enumerates_every_candidate(monkeypatch):
    """The seed-1 `bounded` pass enumerates 64 candidates, one per linear
    set; 50 of them are decided by their signatures and build no
    sentence."""
    import ratiobound.bounded
    from test_bench_hooks import _load

    decided, linear_sets = [], []
    original, decompose = ratiobound.bounded.decide_plus, ratiobound.bounded.parikh_linear_sets

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        decided.extend(out)
        return out

    def listed(*args):
        out = decompose(*args)
        linear_sets.extend(out)
        return out

    monkeypatch.setattr(ratiobound.bounded, "decide_plus", counted)
    monkeypatch.setattr(ratiobound.bounded, "parikh_linear_sets", listed)
    for q in _load("workloads").build("bounded", 1, helpers):
        argv = dict(zip(q.argv[1::2], q.argv[2::2]))
        decide_bounded(Query(parse_automaton(q.document), argv["--from"], argv["--to"]))
    assert len(decided) == 64
    assert [c.lin for c in decided] == linear_sets
    assert sum(c._formula is None for c in decided) == 50


def test_a_column_that_vanishes_exactly_is_decided(tmp_path, capsys):
    """Both branches tie `s` on block 3, so that coordinate's coefficient is
    exactly 0 in every row with log exponent 0; the growth program decides
    the system without it, where along it no row grows at any precision."""
    from ratiobound.cli import main
    from ratiobound.jsonio import serialize
    from test_bench_hooks import _load

    chain = _load("workloads").Chain(
        (F(61, 100), F(61, 100), F(63, 100)),
        ((F(69, 100), F(59, 100), F(63, 100)), (F(53, 100), F(69, 100), F(63, 100))),
    )
    assert chain.label() == "is-big-o"
    path = tmp_path / "tie.json"
    path.write_text(serialize(chain.automaton()), encoding="utf-8")
    argv = ["check", "--file", str(path), "--from", "s", "--to", "s'", "--mode", "bounded"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "is-big-o"


def test_tie_forced_chains_match_their_labels():
    """Seeded chains with two branches, every other one with a tie forced on
    one block of both branches, are decided as `gordan_label` labels them.
    In draw 133 the forced tie makes one sentence column vanish exactly."""
    from test_bench_hooks import _load

    workloads = _load("workloads")
    rng = random.Random(29)
    wrong = []
    for t in range(300):
        m = rng.randint(2, 4)
        chain = workloads._random_chain(rng, m, 2)
        if t % 2:
            i = rng.randrange(m)
            branches = tuple(
                tuple(chain.rates_s[i] if j == i else q for j, q in enumerate(qs))
                for qs in chain.branches
            )
            chain = workloads.Chain(chain.rates_s, branches)
        label = chain.label()
        verdict = decide_bounded(Query(chain.automaton(), "s", "s'")).verdict
        if label is not None and verdict != label:
            wrong.append((t, label, verdict))
    assert not wrong, wrong
