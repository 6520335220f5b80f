import json
import os
import random
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product

import pytest

from ratiobound import (
    DeltaTuple,
    InputError,
    LinearSet,
    Query,
    ResourceError,
    WeightedAutomaton,
    bounded_to_letter_bounded,
    decide_bounded,
    decide_finitely_ambiguous,
    decide_unambiguous,
    decide_unary,
    detect_letter_bounded,
    emit_formula,
    finitely_ambiguous_formula,
    letter_bounded_to_plus,
    parikh_linear_sets,
    plus_analysis,
    weight_blocks,
)
from ratiobound.algebraic import AlgebraicNumber, compare
from ratiobound.automata import Nfa, trim
from ratiobound.bounded import (
    PlusQuery,
    _in_letter_bound,
    _star_nfa,
    check_bounding_words,
    _ratio_at,
    decide_plus,
    detector_nfa,
    realized_candidates,
)
from ratiobound.jsonio import parse_automaton
from ratiobound.nfaops import nfa_contained
from ratiobound.realexp import FAILS, HOLDS, semi_decide
from ratiobound.samples import relative_orderings, unbounded_ratio
from ratiobound.spectral import RadiusTable, scc_decompose

import helpers
from helpers import (
    brute_block_degree,
    not_big_o_on_b,
    random_block_wa,
    random_wa,
    two_symbol_chain,
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
    lb = bounded_to_letter_bounded(wa, "p", "q", ["ab"])
    for n in range(7):
        want = weight(wa, "p", repeat_word("ab", n))
        got = weight_blocks(lb.automaton, lb.s, [(lb.letters[0], n)])
        assert got == want


def test_bounded_to_letter_distinct_letters_degenerates():
    wa = relative_orderings(F(62, 100))
    lb = bounded_to_letter_bounded(wa, "s", "s'", ["a", "b"])
    for n1, n2 in product(range(5), repeat=2):
        want = weight(wa, "s", "a" * n1 + "b" * n2)
        got = weight_blocks(
            lb.automaton, lb.s, [(lb.letters[0], n1), (lb.letters[1], n2)]
        )
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
    lb = bounded_to_letter_bounded(wa, "p", "q", words)
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
        got = weight_blocks(lb.automaton, lb.s, list(zip(lb.letters, vec)))
        assert got == target, vec


def test_bounded_to_letter_input_errors():
    wa = unbounded_ratio()
    with pytest.raises(InputError):
        bounded_to_letter_bounded(wa, "s", "s'", [])
    with pytest.raises(InputError):
        bounded_to_letter_bounded(wa, "s", "s'", ["ab"])  # b not in alphabet


def test_bounding_words_split_into_symbols():
    """Words are spelled in the alphabet's symbols, which may be longer than
    one character: the word `x1x2` is the pair (x1, x2) and substitutes the
    product of their matrices; the witness keeps the words as given."""
    wa = two_symbol_chain()
    assert check_bounding_words(wa, ["x1x2", "x2"]) == [("x1", "x2"), ("x2",)]
    lb = bounded_to_letter_bounded(wa, "s", "s'", ["x1x2", "x1", "x2"])
    for n in product(range(3), repeat=3):
        word = ["x1", "x2"] * n[0] + ["x1"] * n[1] + ["x2"] * n[2]
        got = weight_blocks(lb.automaton, "s", list(zip(lb.letters, n)))
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
    pv = decide_plus(pq)
    return pv.verdict, [
        (c.x_sig, c.y_sigs, c.lin, c.u_set, c.formula.to_smt2(), c.decision.verdict)
        for c in pv.candidates
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
    table = RadiusTable.build(radii + [zero, delta])
    blocks = [
        (dag.scc_of, tuple(table.index_of(dag.sccs[c].radius) for c in dag.scc_of))
        for dag in dags
    ]
    return table.radii, table.index_of(delta), table.index_of(zero), blocks


def _same_component(scc_of):
    return sorted(
        sorted(i for i, c in enumerate(scc_of) if c == comp) for comp in set(scc_of)
    )


def test_shared_letter_analysis_matches_the_product():
    """`plus_analysis` reads each block's components and radii off its
    source letter's, decomposed once per query; on every sub-question (and
    its copy with the dropped states put back) that gives the table, delta
    and zero indices, radius indices and components that decomposing the
    sub-question's own rows gives."""
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
    for wa, s, sp, letters in cases:
        for pq in letter_bounded_to_plus(wa, s, sp, letters):
            for sub in (pq, _padded(wa, pq)):
                analysis = plus_analysis(sub)
                radii, delta_idx, zero_idx, blocks = _product_analysis(sub)
                assert analysis.table.radii == radii
                assert (analysis.delta_idx, analysis.zero_idx) == (delta_idx, zero_idx)
                for info, (scc_of, rad_of_state) in zip(analysis.blocks, blocks):
                    assert info.rad_of_state == rad_of_state
                    assert _same_component(info.scc_of) == _same_component(scc_of)
            irrational += any(not r.is_rational for r in radii)
    assert irrational > 0


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
        radii = [analysis.table.radii[ri] for (ri, k) in x_sig]
        if all(k == 0 for (_, k) in x_sig) and [
            r.lo for r in radii if r.is_rational
        ] == [F(3, 5), F(2, 5)]:
            match = (x_sig, y_sigs)
    assert match is not None
    x_sig, y_sigs = match
    assert y_sigs, "realized degree set should be nonempty"
    det = detector_nfa(analysis, x_sig, y_sigs)
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
        for (x_sig, y_sigs) in realized:
            det = detector_nfa(analysis, x_sig, y_sigs)
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


def test_parikh_union_matches_enumeration():
    rng = random.Random(331)
    for _ in range(5):
        wa = random_block_wa(rng, per=2)
        subs = letter_bounded_to_plus(wa, "L0_0", "L0_0", ("a", "b"))
        pq = [s for s in subs if s.source_letters == ("a", "b")][0]
        from ratiobound import nfa_of

        n = nfa_of(pq.automaton, pq.s)
        sets = parikh_linear_sets(n, pq.letters)
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


def test_parikh_round_trip_with_detector():
    pq, analysis = analysis_ab()
    for (x_sig, y_sigs) in realized_candidates(analysis):
        det = detector_nfa(analysis, x_sig, y_sigs)
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
    f = emit_formula(analysis, x_sig, (x_sig,), lin, (0, 1))
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
    f = emit_formula(analysis, x_sig, y_sigs, LinearSet((1, 1), (1, 1)), (0, 1))
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
        want = decide_unary(q).is_big_o
        got = decide_bounded(q)
        assert got.verdict in ("is-big-o", "not-big-o")
        assert (got.verdict == "is-big-o") == want
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
        unary = decide_unary(q)
        got = decide_bounded(q, letters=("a",)).verdict
        if got != "unknown":
            assert got == ("is-big-o" if unary.is_big_o else "not-big-o"), wa.transitions()
        key = (got, unary.witness_kind)
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
    assert res.verdict == "not-big-o" and res.lc_counterexample == "a"


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
    """Supplied words or letters must bound L(s): on a^n alone the query is
    big-O, but b^n a is accepted too and its ratio grows as (3/2)^n."""
    q = Query(not_big_o_on_b(), "s", "s'")
    assert decide_unambiguous(q).cycle_ratio == F(3, 2)
    for bound in ({"letters": ("a",)}, {"words": ["a"]}, {"words": ["a", "b"]}):
        with pytest.raises(InputError, match="miss"):
            decide_bounded(q, **bound)


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
        lb = bounded_to_letter_bounded(wa, "s", "s'", words)
        assert lb.automaton.states == wa.states
        assert lb.automaton.finals == wa.finals
        assert (lb.s, lb.s_prime) == ("s", "s'")
        res = decide_bounded(Query(wa, "s", "s'"), words=words)
        assert res.lc_counterexample is None
        verdicts += {"is-big-o": "B", "not-big-o": "N"}[res.verdict]
        assert verdicts[-1] == old, (k, words, wa.transitions())
        if res.verdict == "not-big-o":
            w = res.witness
            assert w["bounding_words"] == list(words)
            word_of = dict(zip(lb.letters, words))
            for vec, ratio in zip(w["vectors"], w["ratios"], strict=True):
                word = "".join(word_of[b] * n for b, n in zip(w["block_letters"], vec))
                assert weight(wa, "s", word) / weight(wa, "s'", word) == F(ratio)
    assert verdicts.count("B") == 28 and verdicts.count("N") == 32


def test_deciders_reject_out_of_range_start_bits():
    """The precision range is checked on entry, also where no sentence is
    ever decided: no tuples, or a containment failure."""
    with pytest.raises(InputError):
        decide_finitely_ambiguous([], start_bits=8)
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a"],
        [("p", "a", F(1), "t"), ("q", "a", F(1, 2), "q")],
        ["t"],
    )
    assert decide_bounded(Query(wa, "p", "q")).lc_counterexample == "a"
    for bits in (8, 4096):
        with pytest.raises(InputError):
            decide_bounded(Query(wa, "p", "q"), start_bits=bits)


# ---------------------------------------------------------------------------
# finitely ambiguous


def test_finitely_ambiguous_identical_sides():
    d = DeltaTuple((F(1), F(2)), ((F(2), F(3)), (F(1, 2), F(1))), (F(1), F(2)), ((F(2), F(3)), (F(1, 2), F(1))))
    assert decide_finitely_ambiguous([d]).verdict == "is-big-o"


def test_finitely_ambiguous_single_growing():
    d = DeltaTuple((F(1),), ((F(2),),), (F(1),), ((F(1),),))
    res = decide_finitely_ambiguous([d])
    assert res.verdict == "not-big-o"
    assert res.witnesses


def test_finitely_ambiguous_rejects_nonpositive():
    with pytest.raises(InputError):
        DeltaTuple((F(0),), ((F(2),),), (F(1),), ((F(1),),))


def test_finitely_ambiguous_rejects_empty_second_sum():
    """An identically zero second weight is a containment failure, decided
    before growth tuples, not a tuple to compare."""
    with pytest.raises(InputError):
        DeltaTuple((F(1),), ((F(2),),), (), ())


def test_finitely_ambiguous_grid_confirmation():
    """Divergence verdicts replay on the natural-number grid."""
    tuples = [
        DeltaTuple((F(1),), ((F(3, 2), F(2)),), (F(1),), ((F(1), F(2)),)),
        DeltaTuple((F(2),), ((F(1, 2), F(3)),), (F(3),), ((F(1, 2), F(2)),)),
    ]
    for d in tuples:
        res = decide_finitely_ambiguous([d])
        assert res.verdict == "not-big-o"
        from ratiobound.bounded import _ratio_at

        best = F(0)
        grown = False
        for n1 in range(0, 61, 10):
            for n2 in range(0, 61, 10):
                r = _ratio_at(d, (n1, n2))
                if r > 1000:
                    grown = True
        assert grown


def test_finitely_ambiguous_formula_export():
    d = DeltaTuple((F(1),), ((F(2),),), (F(1),), ((F(1),),))
    (f,) = finitely_ambiguous_formula([d])
    smt = f.to_smt2()
    assert "(check-sat)" in smt and "expf" in smt


def test_finitely_ambiguous_exports_the_sentence_it_decides():
    d = DeltaTuple((F(1),), ((F(2),),), (F(1),), ((F(1),),))
    (f,) = finitely_ambiguous_formula([d])
    assert f.provenance == {"tuple": 0, "numerator_row": 0}
    (row,) = f.system.rows
    assert f.system.lower == 2 and f.system.nvars == 1 and row.logs == (0,)
    (co,) = row.coeffs
    assert co.scale == 1
    # ln(s/q): the denominator base over the numerator base
    assert (co.num.lo, co.den.lo) == (1, 2)
    # rho is the numerator base 2, sig the denominator base 1
    assert "(assert (<= 2.0 rho_1))" in f.to_smt2()
    assert semi_decide(f).verdict == HOLDS
    res = decide_finitely_ambiguous([d])
    assert res.verdict == "not-big-o"
    assert res.direction == semi_decide(f).ray
    with pytest.raises(InputError):
        decide_finitely_ambiguous([d], start_bits=8)


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
        out.append(DeltaTuple(p, q_rows, r, tuple(s_rows)))
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
    """One `semi_decide` per numerator row keeps every verdict the former
    slope search certified, settles all of its unknowns, and answers
    is-big-o exactly when every sentence fails."""
    code = {"not-big-o": "N", "is-big-o": "B", "unknown": "U"}
    verdicts = []
    for d, old in zip(_draw_delta_tuples(), _SLOPE_SEARCH_VERDICTS):
        res = decide_finitely_ambiguous([d])
        new = code[res.verdict]
        assert new == old or old == "U", (d, old, new)
        formulas = finitely_ambiguous_formula([d])
        assert [f.provenance["numerator_row"] for f in formulas] == list(
            range(len(d.q_rows))
        )
        all_fail = all(semi_decide(f).verdict == FAILS for f in formulas)
        assert all_fail == (new == "B"), d
        if new == "N":
            ratios = [_ratio_at(d, x) for x, _ in res.witnesses]
            assert [str(r) for r in ratios] == [r for _, r in res.witnesses]
            assert [r > t for r, t in zip(ratios, (10, 100, 1000))] == [True] * 3
        verdicts.append(new)
    assert len(verdicts) == 400
    counts = {c: verdicts.count(c) for c in "NBU"}
    assert counts == {"N": 226, "B": 174, "U": 0}
    assert _SLOPE_SEARCH_VERDICTS.count("U") == 29


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
    assert main(argv + ["--emit-smt", str(smt)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert len(report["smtFiles"]) == len(os.listdir(smt)) == len(res.unknown_formulas)


def test_plus_analysis_monitor_cap():
    wa = relative_orderings(F(62, 100))
    sizes = []
    for pq in letter_bounded_to_plus(wa, "s", "s'", ("a", "b")):
        analysis = plus_analysis(pq)
        size = max(len(analysis.det_s.states), len(analysis.det_p.states))
        sizes.append(size)
        exact = plus_analysis(pq, cap=size)
        assert exact.det_s.states == analysis.det_s.states
        assert exact.product_states == analysis.product_states
        if size > 1:
            with pytest.raises(ResourceError):
                plus_analysis(pq, cap=size - 1)
    assert max(sizes) > 1, sizes

