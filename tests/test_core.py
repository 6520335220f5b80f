import random
from fractions import Fraction as F

import pytest

from ratiobound import (
    INF,
    InputError,
    Query,
    ResourceError,
    WeightedAutomaton,
    nfa_of,
    normalize_single_final,
    ratio_profile,
    validate_lmc,
    validate_pa,
    weight_blocks,
)
from ratiobound.samples import relative_orderings, unbounded_ratio

from helpers import (
    dense_matrix,
    enum_paths_weight,
    final_vector,
    mat_pow,
    random_wa,
    vec_mat,
    weight,
    words_upto,
)


def test_weight_figure_value():
    wa = unbounded_ratio()
    assert weight(wa, "s", "aa") == F(3, 16)
    # closed forms for the whole family
    for n in range(1, 9):
        assert weight(wa, "s", "a" * n) == F(3, 4) ** (n - 1) * F(1, 4)
        assert weight(wa, "s'", "a" * n) == F(1, 2) ** n


def test_weight_empty_word_convention():
    wa = unbounded_ratio()
    assert weight(wa, "s", "") == 0
    assert weight(wa, "t", "") == 1


def test_weight_against_path_enumeration():
    rng = random.Random(7)
    for _ in range(12):
        wa = random_wa(rng, nstates=3, alphabet=("a", "b"))
        for w in ["", "a", "ab", "ba", "abb", "aab"]:
            assert weight(wa, "q0", w) == enum_paths_weight(wa, "q0", w)


def test_weight_blocks_matches_letterwise():
    rng = random.Random(3)
    wa = random_wa(rng, nstates=4, alphabet=("a", "b"))
    assert weight_blocks(wa, "q0", [("a", 3), ("b", 2)]) == weight(wa, "q0", "aaabb")
    assert weight_blocks(wa, "q0", [("a", 0), ("b", 1)]) == weight(wa, "q0", "b")


def test_weight_splitting_identity():
    rng = random.Random(11)
    for _ in range(8):
        wa = random_wa(rng, nstates=4, alphabet=("a", "b"))
        u, v = "ab", "ba"
        lhs = weight(wa, "q0", u + v)
        from helpers import mat_mul, vec_mat

        mu = mat_mul(dense_matrix(wa, "a"), dense_matrix(wa, "b"))
        i = wa.index("q0")
        row = tuple(mu[i])
        rhs = sum(row[j] * weight(wa, wa.states[j], v) for j in range(wa.n))
        assert lhs == rhs


def test_unknown_state_and_symbol_errors():
    wa = unbounded_ratio()
    with pytest.raises(InputError):
        weight(wa, "zz", "a")
    with pytest.raises(InputError):
        weight(wa, "s", "b")
    with pytest.raises(InputError):
        weight_blocks(wa, "s", [("a", -1)])
    with pytest.raises(InputError):
        weight_blocks(wa, "s", [("a", 2), ("b", 1)])
    with pytest.raises(InputError):
        weight_blocks(wa, "zz", [("a", 1)])


def _dense_weight_blocks(wa, s, blocks):
    """Reference: dense row vector times dense matrix powers."""
    i = wa.index(s)
    vec = tuple(F(int(j == i)) for j in range(wa.n))
    for a, count in blocks:
        vec = vec_mat(vec, mat_pow(dense_matrix(wa, a), count))
    return sum((w for w, f in zip(vec, final_vector(wa)) if f), F(0))


def _random_kernel_wa(rng):
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    wa = random_wa(
        rng, nstates=rng.randint(1, 7), alphabet=alphabet, density=rng.random()
    )
    if len(alphabet) > 1 and rng.random() < 0.3:
        # one letter whose matrix is all zero
        zero = (1, tuple(() for _ in wa.states))
        rows = dict(wa.sparse_rows, **{alphabet[-1]: zero})
        wa = WeightedAutomaton(wa.states, wa.alphabet, rows, wa.finals)
    return wa


def test_sparse_kernel_matches_dense_reference():
    rng = random.Random(2024)
    for case in range(300):
        wa = _random_kernel_wa(rng)
        s = rng.choice(wa.states)
        cap = 300 if case % 25 == 0 else 12
        blocks = [
            (rng.choice(wa.alphabet), rng.choice((0, 1, rng.randint(0, cap))))
            for _ in range(rng.randint(0, 4))
        ]
        assert weight_blocks(wa, s, blocks) == _dense_weight_blocks(wa, s, blocks)
        word = "".join(a * count for a, count in blocks if count <= 12)
        assert weight(wa, s, word) == _dense_weight_blocks(
            wa, s, [(a, 1) for a in word]
        )
        assert weight(wa, s, "") == (1 if s in wa.finals else 0)


def _dense_ratio_profile(wa, s, sp, max_len):
    """Reference: dense vectors per word, each extended from its prefix."""
    i, j = wa.index(s), wa.index(sp)
    vecs = {"": tuple(tuple(F(int(x == k)) for x in range(wa.n)) for k in (i, j))}
    fvec = final_vector(wa)
    entries, best, attained = [], F(0), None
    for word in words_upto(wa.alphabet, max_len):
        if word:
            vs, vp = vecs[word[:-1]]
            m = dense_matrix(wa, word[-1])
            vecs[word] = (vec_mat(vs, m), vec_mat(vp, m))
        ws, wp = (sum((w for w, f in zip(v, fvec) if f), F(0)) for v in vecs[word])
        if ws > 0 or wp > 0:
            entries.append((word, ws, wp))
            if wp == 0:
                if best is not INF:
                    best, attained = INF, word
            elif best is not INF and ws / wp > best:
                best, attained = ws / wp, word
    return tuple(entries), best, attained


def test_ratio_profile_matches_dense_reference():
    rng = random.Random(99)
    seen_inf = seen_finite = False
    for _ in range(150):
        wa = _random_kernel_wa(rng)
        s, sp = rng.choice(wa.states), rng.choice(wa.states)
        max_len = {1: 6, 2: 4, 3: 3}[len(wa.alphabet)]
        prof = ratio_profile(Query(wa, s, sp), max_len)
        assert (prof.entries, prof.max_ratio, prof.attained_at) == _dense_ratio_profile(
            wa, s, sp, max_len
        )
        seen_inf |= prof.max_ratio is INF
        seen_finite |= prof.max_ratio is not INF and prof.max_ratio > 0
    assert seen_inf and seen_finite


def test_negative_matrix_entry_rejected():
    with pytest.raises(InputError, match="negative"):
        WeightedAutomaton(("p", "t"), ("a",), {"a": (1, (((1, -1),), ()))}, frozenset({"t"}))


def test_sparse_form_errors():
    def build(rows, states=("p", "t"), alphabet=("a",), finals=("t",)):
        return WeightedAutomaton(states, alphabet, rows, frozenset(finals))

    good = {"a": (2, (((0, 1), (1, 1)), ()))}
    assert dense_matrix(build(good), "a") == ((F(1, 2), F(1, 2)), (F(0), F(0)))
    bad = [
        ("duplicate state", good, dict(states=("p", "p"))),
        ("duplicate symbol", {"a": good["a"]}, dict(alphabet=("a", "a"))),
        ("missing symbol", good, dict(alphabet=("a", "b"))),
        ("extra symbol", dict(good, b=(1, ((), ()))), {}),
        ("one row short", {"a": (1, ((),))}, {}),
        ("zero denominator", {"a": (0, ((), ()))}, {}),
        ("column out of range", {"a": (1, (((2, 1),), ()))}, {}),
        ("negative column", {"a": (1, (((-1, 1),), ()))}, {}),
        ("descending columns", {"a": (1, (((1, 1), (0, 1)), ()))}, {}),
        ("repeated column", {"a": (1, (((1, 1), (1, 1)), ()))}, {}),
        ("negative weight", {"a": (1, (((1, -1),), ()))}, {}),
        ("stored zero", {"a": (1, (((1, 0),), ()))}, {}),
        ("undeclared final", good, dict(finals=("z",))),
    ]
    for label, rows, kwargs in bad:
        with pytest.raises(InputError):
            build(rows, **kwargs)
            pytest.fail(f"accepted: {label}")  # not an InputError, so it propagates


def test_dense_view_matches_transitions():
    rng = random.Random(31)
    for _ in range(60):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        wa = random_wa(rng, nstates=rng.randint(1, 6), alphabet=alphabet, density=rng.random())
        triples = wa.transitions()
        # the matrices as built cell by cell from the triples
        want = {a: [[F(0)] * wa.n for _ in wa.states] for a in alphabet}
        for q, a, w, q2 in triples:
            want[a][wa.index(q)][wa.index(q2)] = w
        zeros = [(q, a, 0, q2) for q in wa.states for a in alphabet for q2 in wa.states
                 if not want[a][wa.index(q)][wa.index(q2)]]
        rebuilt = WeightedAutomaton.from_transitions(
            wa.states, alphabet, triples + rng.sample(zeros, len(zeros) // 2), wa.finals
        )
        for a in alphabet:
            dense = tuple(map(tuple, want[a]))
            assert dense_matrix(wa, a) == dense_matrix(rebuilt, a) == dense
            assert all(type(w) is F for row in dense_matrix(wa, a) for w in row)
        assert rebuilt.sparse_rows == wa.sparse_rows
        assert rebuilt.transitions() == triples


def test_normalize_idempotent_on_shaped_automata():
    wa = unbounded_ratio()
    assert normalize_single_final(wa) is wa


def test_normalize_construction_and_weights():
    wa = WeightedAutomaton.from_transitions(
        ["p", "f1", "f2"],
        ["a"],
        [
            ("p", "a", F(1, 2), "f1"),
            ("p", "a", F(1, 3), "f2"),
            ("f1", "a", F(1, 5), "f2"),
        ],
        ["f1", "f2"],
    )
    out = normalize_single_final(wa)
    assert len(out.finals) == 1
    (t,) = out.finals
    ti = out.index(t)
    # new-final column accumulates the final-bound weights
    assert dense_matrix(out, "a")[out.index("p")][ti] == F(1, 2) + F(1, 3)
    # no outgoing transitions from the new final
    assert all(w == 0 for w in dense_matrix(out, "a")[ti])
    # nonempty words keep their weights from every original state
    for q in wa.states:
        for n in range(1, 7):
            assert weight(out, q, "a" * n) == weight(wa, q, "a" * n)
    # the empty word is preserved from originally non-final states
    assert weight(out, "p", "") == weight(wa, "p", "") == 0


def test_normalize_weight_preservation_random():
    rng = random.Random(23)
    for _ in range(10):
        wa = random_wa(rng, nstates=4, alphabet=("a", "b"), density=0.4)
        out = normalize_single_final(wa)
        for q in wa.states:
            for w in ["a", "b", "ab", "ba", "aab", "abba", "bbb"]:
                assert weight(out, q, w) == weight(wa, q, w)


def test_nfa_of_figure_language():
    wa = unbounded_ratio()
    n = nfa_of(wa, "s")
    assert not n.accepts("")
    for k in range(1, 9):
        assert n.accepts("a" * k)


def test_nfa_of_zero_automaton():
    wa = WeightedAutomaton.from_transitions(["p", "q"], ["a"], [], ["q"])
    n = nfa_of(wa, "p")
    assert not any(n.accepts("a" * k) for k in range(6))


def test_nfa_of_membership_matches_weight():
    rng = random.Random(5)
    for _ in range(6):
        wa = random_wa(rng, nstates=4, alphabet=("a", "b"), density=0.35)
        n = nfa_of(wa, "q0")
        for w in words_upto(("a", "b"), 8):
            assert (weight(wa, "q0", w) > 0) == n.accepts(w)


def test_ratio_profile_figure():
    wa = unbounded_ratio()
    prof = ratio_profile(Query(wa, "s", "s'"), 5)
    assert prof.max_ratio == F(1, 2) * F(3, 2) ** 4 == F(81, 32)
    assert prof.attained_at == "aaaaa"


def test_ratio_profile_self_query():
    wa = unbounded_ratio()
    prof = ratio_profile(Query(wa, "s", "s"), 4)
    assert prof.max_ratio == 1
    empty = WeightedAutomaton.from_transitions(["p", "t"], ["a"], [], ["t"])
    prof2 = ratio_profile(Query(empty, "p", "p"), 4)
    assert prof2.max_ratio == 0


def test_ratio_profile_relative_orderings():
    wa = relative_orderings(F(62, 100))
    prof = ratio_profile(Query(wa, "s", "s'"), 8)
    assert prof.max_ratio == F(1600, 1579)
    assert prof.attained_at == "aab"


def test_ratio_profile_monotone_in_max_len():
    wa = relative_orderings(F(61, 100))
    q = Query(wa, "s", "s'")
    prev = F(0)
    for ml in range(0, 9):
        cur = ratio_profile(q, ml).max_ratio
        assert cur is INF or cur >= prev
        prev = cur


def test_ratio_profile_infinity_flag():
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a"],
        [("p", "a", F(1, 2), "t"), ("q", "a", F(1, 2), "q")],
        ["t"],
    )
    prof = ratio_profile(Query(wa, "p", "q"), 3)
    assert prof.max_ratio is INF


def test_ratio_profile_resource_guard():
    wa = random_wa(random.Random(1), nstates=3, alphabet=("a", "b", "c"))
    with pytest.raises(ResourceError):
        ratio_profile(Query(wa, "q0", "q1"), 20, cap=1000)


def test_validate_lmc_reports():
    zero = WeightedAutomaton.from_transitions(["p", "t"], ["a"], [], ["t"])
    rep = validate_lmc(zero)
    assert not rep and rep.state == "p" and rep.actual == 0
    bad_final = WeightedAutomaton.from_transitions(
        ["p", "t"],
        ["a"],
        [("p", "a", F(1), "t"), ("t", "a", F(1), "p")],
        ["t"],
    )
    rep2 = validate_lmc(bad_final)
    assert not rep2 and rep2.state == "t"
    ok = WeightedAutomaton.from_transitions(
        ["p", "t"], ["a"], [("p", "a", F(1), "t")], ["t"]
    )
    assert validate_lmc(ok)


def test_validate_pa():
    rng = random.Random(9)
    from helpers import random_pa

    wa, start = random_pa(rng)
    assert validate_pa(wa, start)
    broken = WeightedAutomaton.from_transitions(
        ["p"], ["a"], [("p", "a", F(1, 2), "p")], []
    )
    assert not validate_pa(broken, "p")
