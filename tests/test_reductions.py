import random
from fractions import Fraction as F

import pytest

from ratiobound import (
    InputError,
    ProbAutomaton,
    Query,
    WeightedAutomaton,
    bigo_to_value1,
    complete_for_eventual,
    decide_unary,
    decide_unary_eventual,
    from_big_theta,
    gen_hardness,
    gen_undecidable,
    lc_check,
    to_big_theta,
    validate_lmc,
    validate_pa,
    value1_to_bigo,
)
from ratiobound.nfaops import ChrobakNf
from ratiobound.samples import unbounded_ratio

from helpers import (
    planted_unambiguous,
    random_pa,
    random_restricted_chrobak,
    random_wa,
    weight,
    words_upto,
)


# ---------------------------------------------------------------------------
# two-direction reduction


def test_to_big_theta_ratio_identity():
    wa = unbounded_ratio()
    out = to_big_theta(Query(wa, "s", "s'"))
    for w in words_upto(("a",), 6):
        lhs_n = weight(out.automaton, out.s, "a" + w)
        lhs_d = weight(out.automaton, out.s_prime, "a" + w)
        ns = weight(wa, "s", w)
        nd = weight(wa, "s'", w)
        assert lhs_n == F(1, 2) * ns + F(1, 2) * nd
        assert lhs_d == nd
        if lhs_n > 0:
            # the reverse direction is always bounded by 2
            assert lhs_d / lhs_n <= 2


def test_to_big_theta_self_query_both_directions():
    wa = unbounded_ratio()
    out = to_big_theta(Query(wa, "s", "s"))
    assert decide_unary(Query(out.automaton, out.s, out.s_prime)).is_big_o
    assert decide_unary(Query(out.automaton, out.s_prime, out.s)).is_big_o


def test_to_big_theta_preserves_verdict():
    rng = random.Random(211)
    for _ in range(12):
        expansive = rng.random() < 0.5
        wa, s, sp = planted_unambiguous(rng, expansive)
        out = to_big_theta(Query(wa, s, sp))
        fwd = decide_unary(Query(out.automaton, out.s, out.s_prime)).is_big_o
        rev = decide_unary(Query(out.automaton, out.s_prime, out.s)).is_big_o
        big_theta = fwd and rev
        assert big_theta == (not expansive)
        assert rev  # that direction is free by construction


def test_from_big_theta_doubling_identity():
    rng = random.Random(223)
    wa, s, sp = planted_unambiguous(rng, False)
    out = from_big_theta(Query(wa, s, sp))
    for w in words_upto(("a",), 4):
        doubled = "".join(ch * 2 for ch in w)
        assert weight(out.automaton, s, doubled) == weight(wa, s, w)
    # odd-length words have weight zero in the image
    for n in (1, 3, 5, 7):
        assert weight(out.automaton, s, "a" * n) == 0


def test_from_big_theta_round_trip_verdicts():
    rng = random.Random(227)
    for _ in range(8):
        expansive = rng.random() < 0.5
        wa, s, sp = planted_unambiguous(rng, expansive)
        fwd = decide_unary(Query(wa, s, sp)).is_big_o
        rev = decide_unary(Query(wa, sp, s)).is_big_o
        big_theta = fwd and rev
        out = from_big_theta(Query(wa, s, sp))
        got = decide_unary(Query(out.automaton, out.s, out.s_prime)).is_big_o
        assert got == big_theta


# ---------------------------------------------------------------------------
# eventual completion


def test_complete_for_eventual_delta_weights():
    wa = unbounded_ratio()
    out = complete_for_eventual(wa, "s", "s'")
    d = out.delta
    for w in words_upto(("a",), 5):
        if not w:
            continue
        assert weight(out.automaton, out.s_prime, w) == weight(wa, "s'", w) + d ** len(w)


def test_complete_for_eventual_default_delta_below_weights():
    wa = unbounded_ratio()
    out = complete_for_eventual(wa, "s", "s'")
    weights = [w for (_, _, w, _) in wa.transitions()]
    assert 0 < out.delta < min(weights)
    # positive original weights stay above the added mass
    for w in words_upto(("a",), 5):
        base = weight(wa, "s'", w)
        if w and base > 0:
            assert base > out.delta ** len(w)


def test_complete_for_eventual_rejects_bad_delta():
    wa = unbounded_ratio()
    with pytest.raises(InputError):
        complete_for_eventual(wa, "s", "s'", delta=F(3, 4))
    with pytest.raises(InputError):
        complete_for_eventual(wa, "s", "s'", delta=F(2))


def test_eventual_equivalence_property():
    """Eventually bounded iff the difference is finite and the completed
    automaton is bounded, checked against the direct decider."""
    rng = random.Random(229)
    from ratiobound import eventually_included, nfa_of

    checked = 0
    for _ in range(40):
        wa = random_wa(rng, nstates=rng.randint(2, 4), alphabet=("a",), density=0.5)
        q = Query(wa, "q0", "q1")
        lhs = decide_unary_eventual(q).is_big_o
        diff_finite = eventually_included(
            nfa_of(wa, "q0"), nfa_of(wa, "q1")
        ).included
        if not diff_finite:
            assert not lhs
            continue
        checked += 1
        if wa.index("q1") is not None and "q0" != "q1":
            comp = complete_for_eventual(wa, "q0", "q1")
            rhs = decide_unary(
                Query(comp.automaton, comp.s, comp.s_prime)
            ).is_big_o
            # the completed check may disagree only at the empty word, which
            # the eventual notion ignores
            if lhs != rhs:
                base = weight(wa, "q0", "")
                assert base > 0 and weight(wa, "q1", "") == 0
    assert checked >= 10


# ---------------------------------------------------------------------------
# the two-branch chain generator


def test_gen_undecidable_is_lmc_and_ratio_formula():
    rng = random.Random(233)
    for _ in range(6):
        wa, start = random_pa(rng, nstates=3)
        pa = ProbAutomaton(wa, start)
        inst = gen_undecidable(pa)
        chain = inst.lmc.underlying
        assert validate_lmc(chain)
        # find a witness word with acceptance probability > 1/2, if any
        for w in words_upto(("a", "b"), 3):
            pr = weight(wa, start, w)
            if pr <= F(1, 2):
                continue
            for i in range(1, 6):
                word = (list(w) + ["acc"]) * i + ["rej"]
                num = weight(chain, inst.pa_start, word)
                den = weight(chain, inst.equal_branch, word)
                assert num / den == 2 * (2 * pr) ** i
            break


def test_gen_undecidable_bounded_when_empty():
    """If no short word beats 1/2, sampled branch ratios stay at most 2."""
    rng = random.Random(239)
    tested = 0
    for _ in range(30):
        wa, start = random_pa(rng, nstates=2)
        if any(weight(wa, start, w) > F(1, 2) for w in words_upto(("a", "b"), 4)):
            continue
        pa = ProbAutomaton(wa, start)
        inst = gen_undecidable(pa)
        chain = inst.lmc.underlying
        tested += 1
        for w in words_upto(("a", "b"), 3):
            for i in (1, 2):
                word = (list(w) + ["acc"]) * i + ["rej"]
                num = weight(chain, inst.pa_start, word)
                den = weight(chain, inst.equal_branch, word)
                if num > 0:
                    assert num / den <= 2
        if tested >= 5:
            break
    assert tested >= 3


def test_gen_undecidable_rejects_accepting_start():
    wa = WeightedAutomaton.from_transitions(
        ["p"],
        ["a", "b"],
        [("p", "a", F(1), "p"), ("p", "b", F(1), "p")],
        ["p"],
    )
    with pytest.raises(InputError):
        gen_undecidable(ProbAutomaton(wa, "p"))


# ---------------------------------------------------------------------------
# hardness generator


def test_gen_hardness_universal_single_cycle():
    cnf = ChrobakNf((True,), ((1, frozenset({0})),))
    inst = gen_hardness(cnf)
    assert inst.universal and inst.label_big_o
    assert validate_lmc(inst.lmc.underlying)
    assert decide_unary(Query(inst.lmc.underlying, inst.s, inst.s_prime)).is_big_o


def test_gen_hardness_uncovered_residue():
    # cycles of lengths 2 and 3 accepting at offset 0 leave residues uncovered
    cnf = ChrobakNf((True,), ((2, frozenset({0})), (3, frozenset({0}))))
    inst = gen_hardness(cnf)
    assert not inst.label_big_o
    chain = inst.lmc.underlying
    assert validate_lmc(chain)
    v = decide_unary(Query(chain, inst.s, inst.s_prime))
    assert not v.is_big_o
    # the ratio doubles along the uncovered progression
    uncovered = [n for n in range(2, 40) if not cnf.accepts(n)]
    assert uncovered
    ratios = []
    for n in uncovered[:4]:
        num = weight(chain, inst.s, "a" * n)
        den = weight(chain, inst.s_prime, "a" * n)
        ratios.append(num / den)
    for a, b in zip(ratios, ratios[1:]):
        assert b > a


def test_gen_hardness_rejects_unrestricted():
    with pytest.raises(InputError):
        gen_hardness(ChrobakNf((True, False), ((2, frozenset({0})),)))
    with pytest.raises(InputError):
        gen_hardness(ChrobakNf((True,), ((3, frozenset({0, 1})),)))


def test_gen_hardness_labels_match_decider():
    rng = random.Random(241)
    for _ in range(20):
        cnf = random_restricted_chrobak(rng, max_total=8)
        inst = gen_hardness(cnf)
        got = decide_unary(Query(inst.lmc.underlying, inst.s, inst.s_prime)).is_big_o
        assert got == inst.label_big_o == inst.universal


# ---------------------------------------------------------------------------
# value-1 interreductions


def test_value1_forward_weight_formula():
    rng = random.Random(251)
    wa, start = random_pa(rng, nstates=3)
    red = value1_to_bigo(ProbAutomaton(wa, start))
    chain = red.lmc.underlying
    assert validate_lmc(chain)
    scale = F(1, len(wa.alphabet) + 1)
    for w in words_upto(("a", "b"), 4):
        word = ["$"] + list(w) + ["$"]
        assert weight(chain, red.s, word) == scale ** (len(w) + 1)
        inv = 1 - weight(wa, start, w)
        assert weight(chain, red.s_prime, word) == scale ** (len(w) + 1) * inv


def test_value1_backward_structure_and_invariant():
    wa = unbounded_ratio()
    # make it an LMC-like chain with a sink: use the figure automaton scaled
    trans = [
        ("s", "a", F(1, 2), "s"),
        ("s", "a", F(1, 4), "t"),
        ("s'", "a", F(1, 2), "s'"),
        ("s'", "a", F(1, 4), "t"),
        ("z", "a", F(1), "z"),
        ("s", "a", F(1, 4), "z"),
        ("s'", "a", F(1, 4), "z"),
    ]
    lmc = WeightedAutomaton.from_transitions(["s", "s'", "z", "t"], ["a"], trans, ["t"])
    assert validate_lmc(lmc)
    pa = bigo_to_value1(Query(lmc, "s", "s'"))
    assert validate_pa(pa.underlying, pa.start)
    # boundedness holds with C = 1 here (identical decay), so acceptance
    # probability stays below C/(C+1) on every pumped control word
    C = F(1)
    chain = pa.underlying
    for w in ["a", "aa", "aaa"]:
        word = ["$"] + list(w) + ["$"]
        for i in range(1, 5):
            acc = weight(chain, pa.start, word * i)
            assert acc <= C / (C + 1)


def test_value1_backward_requires_sink():
    trans = [
        ("s", "a", F(1), "t"),
        ("s'", "a", F(1), "t"),
    ]
    lmc = WeightedAutomaton.from_transitions(["s", "s'", "t"], ["a"], trans, ["t"])
    with pytest.raises(InputError):
        bigo_to_value1(Query(lmc, "s", "s'"))


def test_value1_backward_xy_invariant():
    """x_i <= C y_i along ($w$)^i prefixes for a bounded instance."""
    trans = [
        ("s", "a", F(1, 2), "s"),
        ("s", "a", F(1, 4), "t"),
        ("s'", "a", F(1, 2), "s'"),
        ("s'", "a", F(1, 4), "t"),
        ("z", "a", F(1), "z"),
        ("s", "a", F(1, 4), "z"),
        ("s'", "a", F(1, 4), "z"),
    ]
    lmc = WeightedAutomaton.from_transitions(["s", "s'", "z", "t"], ["a"], trans, ["t"])
    pa = bigo_to_value1(Query(lmc, "s", "s'"))
    chain = pa.underlying
    C = F(1)
    for w in ["a", "aa"]:
        word = ["$"] + list(w) + ["$"]
        for i in range(1, 5):
            full = word * i
            x_i = _prob_to(chain, pa.start, full, "ACC")
            y_i = _prob_to(chain, pa.start, full, "REJ")
            assert x_i <= C * y_i


def _prob_to(chain, start, word, target):
    from helpers import dense_matrix, vec_mat

    i = chain.index(start)
    vec = tuple(F(1) if j == i else F(0) for j in range(chain.n))
    for a in word:
        vec = vec_mat(vec, dense_matrix(chain, a))
    return vec[chain.index(target)]
