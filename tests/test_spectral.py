import random
from fractions import Fraction as F
from math import gcd

import pytest

from ratiobound import (
    InputError,
    Query,
    WeightedAutomaton,
    annotate,
    degree_language,
    normalize_single_final,
    scc_decompose,
    scc_decompose_unary,
)
from ratiobound.algebraic import compare, AlgebraicNumber, spectral_radius_of_matrix
from ratiobound.samples import different_rates, unbounded_ratio
from ratiobound.spectral import (
    RadiusTable,
    copy_start_off_cycles,
    scc_debug_dump,
)

from helpers import (
    brute_unary_degree,
    brute_unary_signatures,
    dense_matrix,
    dense_scc_decompose,
    mat_pow,
    random_wa,
)


def cycle_automaton(p):
    states = [f"c{i}" for i in range(p)]
    trans = [
        (states[i], "a", F(1, 2), states[(i + 1) % p]) for i in range(p)
    ]
    return WeightedAutomaton.from_transitions(states, ["a"], trans, [states[0]])


def test_single_cycle_scc_and_period():
    wa = cycle_automaton(4)
    dag = scc_decompose_unary(wa)
    assert len(dag.sccs) == 1
    assert dag.sccs[0].period == 4


def test_different_rates_has_period_two_scc():
    dag = scc_decompose_unary(different_rates())
    assert any(info.period == 2 for info in dag.sccs)


def test_zero_scc_period_zero():
    wa = WeightedAutomaton.from_transitions(["p", "t"], ["a"], [("p", "a", F(1), "t")], ["t"])
    dag = scc_decompose_unary(wa)
    assert all(info.period == 0 for info in dag.sccs)


def test_period_matches_return_time_gcd():
    rng = random.Random(53)
    for _ in range(15):
        wa = random_wa(rng, nstates=rng.randint(2, 6), alphabet=("a",), density=0.35)
        m = dense_matrix(wa, "a")
        dag = scc_decompose(wa.sparse_rows["a"])
        horizon = 2 * wa.n * wa.n
        powers = []
        acc = m
        for _ in range(horizon):
            powers.append(acc)
            acc = mat_pow(m, len(powers) + 1)
        for si in range(wa.n):
            info = dag.sccs[dag.scc_of[si]]
            g = 0
            for t in range(1, horizon + 1):
                if powers[t - 1][si][si] > 0:
                    g = gcd(g, t)
            assert g == info.period or (g == 0 and info.period == 0)


def test_scc_decompose_matches_dense_reference():
    rng = random.Random(71)
    seen = {"zero row": 0, "self-loop": 0, "zero letter": 0, "cross edge": 0}
    for case in range(150):
        nstates = rng.randint(1, 7)
        density = 0.0 if case % 10 == 0 else rng.random()
        wa = random_wa(rng, nstates=nstates, alphabet=("a",), density=density)
        d, rows = wa.sparse_rows["a"]
        seen["zero row"] += any(not row for row in rows)
        seen["self-loop"] += any(j == i for i, row in enumerate(rows) for j, _ in row)
        seen["zero letter"] += not any(rows)
        got = scc_decompose((d, rows))
        want = dense_scc_decompose(dense_matrix(wa, "a"))
        assert got.scc_of == want.scc_of
        assert got.edges == want.edges
        seen["cross edge"] += bool(got.edges)
        assert len(got.sccs) == len(want.sccs)
        for g, w in zip(got.sccs, want.sccs):
            assert g.members == w.members
            assert g.period == w.period
            assert g.radius == w.radius
            assert compare(g.radius, w.radius) == 0
    assert all(count >= 10 for count in seen.values()), seen


def test_radius_of_dag_components():
    wa = unbounded_ratio()
    dag = scc_decompose_unary(wa)
    by_member = {frozenset(info.members): info for info in dag.sccs}
    radii = {min(info.members): info.radius for info in dag.sccs}
    # states listed in declaration order: s=0, s'=1, t=2
    assert radii[0].compare_rational(F(3, 4)) == 0
    assert radii[1].compare_rational(F(1, 2)) == 0
    assert radii[2].compare_rational(F(0)) == 0


def prepared(wa, s):
    wa = normalize_single_final(wa)
    wa, fresh = copy_start_off_cycles(wa, s)
    return wa, fresh


def test_annotate_single_scc():
    wa, fresh = prepared(cycle_automaton(3), "c0")
    ann = annotate(wa, fresh)
    finals_anns = {(ri, k) for (q, ri, k) in ann.states if q == ann.final}
    assert len(finals_anns) == 1
    ((ri, k),) = finals_anns
    assert k == 0
    assert ann.table.radii[ri].compare_rational(F(1, 2)) == 0


def test_annotate_chained_equal_radius_sccs():
    trans = [
        ("p", "a", F(1, 2), "p"),
        ("p", "a", F(1), "q"),
        ("q", "a", F(1, 2), "q"),
        ("q", "a", F(1), "t"),
    ]
    wa = WeightedAutomaton.from_transitions(["p", "q", "t"], ["a"], trans, ["t"])
    wa, fresh = prepared(wa, "p")
    ann = annotate(wa, fresh)
    anns = {(ri, k) for (q, ri, k) in ann.states if q == ann.final}
    ks = {k for (ri, k) in anns}
    assert 1 in ks  # both 1/2-radius components visited


def test_annotate_admissible_bound_and_determinism():
    rng = random.Random(61)
    for _ in range(10):
        base = random_wa(rng, nstates=4, alphabet=("a",), density=0.4)
        wa, fresh = prepared(base, "q0")
        a1 = annotate(wa, fresh)
        a2 = annotate(wa, fresh)
        assert a1.states == a2.states and a1.transitions == a2.transitions
        assert len(a1.admissible()) <= wa.n * wa.n


def test_degree_language_minimum_threshold_is_support():
    wa0 = unbounded_ratio()
    wa, fresh = prepared(wa0, "s")
    ann = annotate(wa, fresh)
    xs = ann.admissible()
    x = min(xs)
    lang = degree_language(ann, x)
    from ratiobound import nfa_of

    support = nfa_of(wa, fresh)
    for n in range(12):
        assert lang.accepts("a" * n) == support.accepts("a" * n)


def test_degree_language_different_rates_window():
    wa, fresh = prepared(different_rates(), "s")
    ann = annotate(wa, fresh)
    half_idx = ann.table.index_of(AlgebraicNumber.from_rational(F(1, 2)))
    lang = degree_language(ann, (half_idx, 1))
    for n in range(20):
        assert lang.accepts("a" * n) == (n >= 3)


def test_degree_geq_minus_gt_matches_brute_force():
    rng = random.Random(67)
    for _ in range(8):
        base = random_wa(rng, nstates=4, alphabet=("a",), density=0.4)
        wa, fresh = prepared(base, "q0")
        ann = annotate(wa, fresh)
        for x in ann.admissible():
            geq = degree_language(ann, x)
            for n in range(13):
                sigs, _, _ = brute_unary_signatures(wa, fresh, n)
                # ranks from the oracle match table indexing up to order
                want_geq = any(sig >= x for sig in _translate(ann, sigs))
                assert geq.accepts("a" * n) == want_geq


def _translate(ann, sigs):
    """Brute-force ranks are dense over the automaton's distinct radii; the
    table may be shared more widely, so re-rank by the admissible order."""
    # ranks coincide here because the table is built from the same automaton
    return sigs


def test_degree_language_rejects_bad_threshold():
    wa, fresh = prepared(unbounded_ratio(), "s")
    ann = annotate(wa, fresh)
    with pytest.raises(InputError):
        degree_language(ann, (99, 0))


def test_scc_debug_dump_shape():
    dump = scc_debug_dump(unbounded_ratio(), "s")
    assert "sccs" in dump and "admissible" in dump
    assert all("radius" in entry for entry in dump["sccs"])


def test_radius_table_dedupes():
    a = AlgebraicNumber.from_rational(F(1, 2))
    b = AlgebraicNumber.from_rational(F(1, 2))
    c = AlgebraicNumber.from_rational(F(3, 4))
    table = RadiusTable.build([c, a, b])
    assert len(table.radii) == 2
    assert table.index_of(a) == 0


def test_radius_table_matches_a_rational_in_interval_form():
    """[[1,1],[1,1]] has radius 2 as the largest root of x^2 - 2x, in
    interval form; it and the exact rational 2 share one entry."""
    two_ivl = spectral_radius_of_matrix(((F(1), F(1)), (F(1), F(1))))
    two = AlgebraicNumber.from_rational(F(2))
    half = AlgebraicNumber.from_rational(F(1, 2))
    assert not two_ivl.is_rational and two_ivl.compare_rational(F(2)) == 0
    for order in ([two_ivl, two], [two, two_ivl]):
        table = RadiusTable.build(order + [half])
        assert len(table.radii) == 2
        assert table.radii[1] is order[0]
        assert table.index_of(two) == table.index_of(two_ivl) == 1
        assert table.index_of(half) == 0
    with pytest.raises(InputError):
        RadiusTable.build([two_ivl]).index_of(half)
