"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from fractions import Fraction as F

from ratiobound import (
    INF,
    ProbAutomaton,
    Query,
    WeightedAutomaton,
    annotate,
    complete_for_eventual,
    decide_bounded,
    decide_unary,
    decide_unary_eventual,
    decide_unambiguous,
    eventually_included,
    from_big_theta,
    gen_hardness,
    gen_undecidable,
    nfa_of,
    normalize_single_final,
    ratio_profile,
    to_big_theta,
    validate_lmc,
    value1_to_bigo,
    weight_blocks,
)
from ratiobound.intervals import FInterval
from ratiobound.samples import different_rates, relative_orderings, unbounded_ratio
from ratiobound.spectral import copy_start_off_cycles

from helpers import (
    planted_unambiguous,
    random_block_wa,
    random_functional_unary,
    random_pa,
    random_restricted_chrobak,
    random_unary_nfa,
    random_wa,
)
from oracles import (
    UnaryLasso,
    brute_block_degree,
    checked_verdict,
    dense_matrix,
    final_vector,
    lasso_difference_finite,
    weight,
    words_upto,
)


def report(number, description, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) {description}")


def test_criterion_1_unbounded_ratio_fidelity():
    t0 = time.time()
    wa = unbounded_ratio()
    assert decide_unary(Query(wa, "s", "s'")).verdict == "not-big-o"
    assert decide_unary(Query(wa, "s'", "s")).verdict == "is-big-o"
    for n in range(1, 11):
        prof = ratio_profile(Query(wa, "s", "s'"), n)
        assert prof.max_ratio == F(1, 2) * F(3, 2) ** (n - 1)
    report(1, "worked-example fidelity on the unbounded-ratio pair", t0, 1.0)


def test_criterion_2_periodicity_example():
    t0 = time.time()
    wa = different_rates()
    fwd = decide_unary(Query(wa, "s", "s'"))
    assert fwd.verdict == "not-big-o"
    assert decide_unary(Query(wa, "s'", "s")).verdict == "is-big-o"
    # the divergence progression consists of odd lengths
    assert fwd.witness["smallestLength"] % 2 == 1
    assert fwd.witness["progressionPeriod"] % 2 == 0
    for i in range(3):
        n = fwd.witness["smallestLength"] + i * fwd.witness["progressionPeriod"]
        assert n % 2 == 1
        assert weight(wa, "s", "a" * n) > 0
    report(2, "period-2 example: divergence along odd lengths", t0, 1.0)


def test_criterion_3_bounded_example():
    t0 = time.time()
    p62 = relative_orderings(F(62, 100))
    r62 = decide_bounded(Query(p62, "s", "s'"))
    assert r62.verdict == "is-big-o", "unknown or wrong verdict is a failure here"
    prof = ratio_profile(Query(p62, "s", "s'"), 10)
    assert prof.max_ratio == F(1600, 1579)
    assert prof.attained_at == "aab"
    p61 = relative_orderings(F(61, 100))
    r61 = decide_bounded(Query(p61, "s", "s'"))
    assert r61.verdict == "not-big-o", "unknown or wrong verdict is a failure here"
    run = r61.witness["increasing_run"]
    assert len(run) >= 3
    ratios = [F(x) for x in run]
    assert ratios[0] < ratios[1] < ratios[2]
    # the witness direction keeps the second block near 2/3 of the first
    vectors = r61.witness["vectors"]
    n1, n2 = vectors[-1]
    assert 0.5 < n2 / n1 < 0.8
    report(3, "bounded example: p=62/100 bounded, p=61/100 divergent", t0, 60.0)


def test_criterion_4_hardness_generator_ground_truth():
    t0 = time.time()
    rng = random.Random(1009)
    mismatches = 0
    for _ in range(200):
        cnf = random_restricted_chrobak(rng, max_total=10)
        inst = gen_hardness(cnf)
        assert validate_lmc(inst.lmc.underlying)
        got = decide_unary(Query(inst.lmc.underlying, inst.s, inst.s_prime)).verdict == "is-big-o"
        if got != inst.universal:
            mismatches += 1
    assert mismatches == 0
    report(4, "200 hardness instances: universality matches the verdict", t0, 120.0)


def test_criterion_5_two_branch_chain_quantities():
    t0 = time.time()
    rng = random.Random(1013)
    checked_pairs = 0
    for _ in range(20):
        wa, start = random_pa(rng, nstates=rng.randint(2, 3))
        pa = ProbAutomaton(wa, start)
        if start in wa.finals:
            continue
        inst = gen_undecidable(pa)
        chain = inst.lmc.underlying
        assert validate_lmc(chain)
        for w in words_upto(("a", "b"), 3):
            pr = weight(wa, start, w)
            if pr <= F(1, 2):
                continue
            for i in range(1, 6):
                word = (list(w) + ["acc"]) * i + ["rej"]
                num = weight(chain, inst.pa_start, word)
                den = weight(chain, inst.equal_branch, word)
                assert num / den == 2 * (2 * pr) ** i
                checked_pairs += 1
    assert checked_pairs >= 20
    report(5, "two-branch chain: exact pumped ratios 2*(2Pr(w))^i", t0, 30.0)


def test_criterion_6_eventual_inclusion_oracle():
    t0 = time.time()
    rng = random.Random(1019)
    mismatches = 0
    for _ in range(500):
        n1 = random_unary_nfa(rng, nstates=rng.randint(2, 8))
        n2 = random_unary_nfa(rng, nstates=rng.randint(2, 8))
        got = eventually_included(n1, n2).included
        want = lasso_difference_finite(
            UnaryLasso.from_nfa(n1), UnaryLasso.from_nfa(n2)
        )
        if got != want:
            mismatches += 1
    assert mismatches == 0
    report(6, "500 eventual-inclusion checks agree with the lasso oracle", t0, 60.0)


def test_criterion_7_planted_unambiguous_instances():
    t0 = time.time()
    rng = random.Random(1021)
    mismatches = 0
    for k in range(200):
        expansive = k % 2 == 0
        wa, s, sp = planted_unambiguous(rng, expansive)
        v = decide_unambiguous(Query(wa, s, sp))
        if v.verdict != ("not-big-o" if expansive else "is-big-o"):
            mismatches += 1
            continue
        if expansive:
            prof = ratio_profile(Query(wa, s, sp), 200)
            assert prof.max_ratio is INF or prof.max_ratio > 10
    assert mismatches == 0
    report(7, "200 planted instances decided; divergent ratios exceed 10", t0, 60.0)


def test_criterion_8_cross_decider_coherence():
    t0 = time.time()
    rng = random.Random(1031)
    for _ in range(100):
        wa = random_functional_unary(rng, nstates=rng.randint(2, 6))
        q = Query(wa, "f0", "f1")
        assert (
            checked_verdict(decide_unary(q)).verdict
            == checked_verdict(decide_unambiguous(q)).verdict
        )
    report(8, "100 unary+unambiguous instances: deciders agree", t0, 120.0)


def _annotation_degrees(wa, start, horizon):
    """Per-length maximal (radius index, k) at the final state, by stepping
    the annotated automaton."""
    ann = annotate(wa, start)
    succ = {}
    for (a, b) in ann.transitions:
        succ.setdefault(a, set()).add(b)
    cur = {ann.start}
    out = [None]
    if ann.start[0] == ann.final:
        out[0] = (ann.start[1], ann.start[2])
    for _ in range(horizon):
        cur = {b for a in cur for b in succ.get(a, ())}
        finals = [(ri, k) for (q, ri, k) in cur if q == ann.final]
        out.append(max(finals) if finals else None)
    return ann, out


def test_criterion_9_growth_envelope_property():
    t0 = time.time()
    rng = random.Random(1033)
    done = 0
    attempts = 0
    while done < 50 and attempts < 400:
        attempts += 1
        base = random_wa(rng, nstates=rng.randint(2, 5), alphabet=("a",), density=0.45)
        wa = normalize_single_final(base)
        wa, fresh = copy_start_off_cycles(wa, "q0")
        ann, degrees = _annotation_degrees(wa, fresh, 60)
        (t,) = wa.finals
        m = dense_matrix(wa, "a")
        from oracles import vec_mat

        i = wa.index(fresh)
        vec = tuple(F(1) if j == i else F(0) for j in range(wa.n))
        ti = wa.index(t)
        lo_ratio, hi_ratio = None, None
        any_pos = False
        refined_radii = {}
        for n in range(1, 61):
            vec = vec_mat(vec, m)
            a_n = vec[ti]
            if n <= base.n:
                continue
            deg = degrees[n]
            assert (a_n > 0) == (deg is not None)
            if deg is None:
                continue
            any_pos = True
            ri, k = deg
            if ri not in refined_radii:
                refined_radii[ri] = ann.table[ri].refined(F(1, 10**31))
            rho = refined_radii[ri]
            assert rho.hi - rho.lo < F(1, 10**30)
            assert rho.lo > 0
            denom_lo = rho.lo**n * n**k
            denom_hi = rho.hi**n * n**k
            r_lo, r_hi = a_n / denom_hi, a_n / denom_lo
            lo_ratio = r_lo if lo_ratio is None else min(lo_ratio, r_lo)
            hi_ratio = r_hi if hi_ratio is None else max(hi_ratio, r_hi)
        if not any_pos:
            continue
        done += 1
        assert 0 < lo_ratio <= hi_ratio
    assert done == 50
    # multi-letter variant: 20 two-block instances, 1 <= n_i <= 8
    from ratiobound import letter_bounded_to_plus
    from ratiobound.algebraic import compare as cmp_alg
    from ratiobound.spectral import scc_decompose

    checked = 0
    while checked < 20:
        wa = random_block_wa(rng, per=2)
        subs = letter_bounded_to_plus(wa, "L0_0", "L0_1", ("a", "b"))
        pq = [x for x in subs if x.source_letters == ("a", "b")][0]
        dags = [scc_decompose(pq.automaton.sparse_rows[a]) for a in pq.letters]
        positives = []
        for dag in dags:
            for info in dag.sccs:
                if info.radius.sign() > 0 and not any(
                    cmp_alg(info.radius, p) == 0 for p in positives
                ):
                    positives.append(info.radius)
        if not positives:
            continue
        nu_grid = _block_weight_grid(pq.automaton, pq.s, pq.letters, 8)
        if all(
            nu_grid[n1][n2] == 0 for n1 in range(1, 9) for n2 in range(1, 9)
        ):
            continue
        checked += 1
        delta = min(positives, key=_alg_key).scaled(F(1, 2))
        table = {0: None, 1: delta}
        ordered = sorted(positives, key=_alg_key)
        for idx, r in enumerate(ordered):
            table[idx + 2] = r
        refined = {
            rank: r.refined(F(1, 10**31))
            for rank, r in table.items()
            if r is not None
        }
        for rank, r in refined.items():
            assert r.hi - r.lo < F(1, 10**30)
        lo_ratio, hi_ratio = None, None
        for n1 in range(1, 9):
            for n2 in range(1, 9):
                nu = nu_grid[n1][n2]
                sigs = brute_block_degree(pq.automaton, pq.s, pq.letters, (n1, n2))
                assert (nu > 0) == bool(sigs)
                if not sigs:
                    continue
                z = FInterval.point(0)
                for sig in sigs:
                    term = FInterval.point(1)
                    for (rank, k), n in zip(sig, (n1, n2)):
                        r = refined[rank]
                        term = term * FInterval(r.lo**n * n**k, r.hi**n * n**k)
                    z = z + term
                r_lo, r_hi = nu / z.hi, nu / z.lo
                lo_ratio = r_lo if lo_ratio is None else min(lo_ratio, r_lo)
                hi_ratio = r_hi if hi_ratio is None else max(hi_ratio, r_hi)
        assert lo_ratio is not None and 0 < lo_ratio <= hi_ratio
    report(9, "growth envelopes: unary to length 60 and two-block to 8", t0, 300.0)


class _alg_key:
    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        from ratiobound.algebraic import compare

        return compare(self.v, other.v) < 0


def _block_weight_grid(wa, s, letters, cap):
    """nu(a^n1 b^n2) for all 0 <= n_i <= cap via incremental vector products."""
    from oracles import vec_mat

    i = wa.index(s)
    fvec = final_vector(wa)
    ma, mb = dense_matrix(wa, letters[0]), dense_matrix(wa, letters[1])
    grid = [[F(0)] * (cap + 1) for _ in range(cap + 1)]
    vec1 = tuple(F(1) if j == i else F(0) for j in range(wa.n))
    for n1 in range(cap + 1):
        vec = vec1
        for n2 in range(cap + 1):
            grid[n1][n2] = sum(w for w, f in zip(vec, fvec) if f) or F(0)
            vec = vec_mat(vec, mb)
        vec1 = vec_mat(vec1, ma)
    return grid


def test_criterion_10_reduction_round_trips():
    t0 = time.time()
    rng = random.Random(1039)
    # two-direction reductions preserve verdicts on 50 labeled instances
    for k in range(50):
        expansive = k % 2 == 0
        wa, s, sp = planted_unambiguous(rng, expansive)
        want = not expansive
        out = to_big_theta(Query(wa, s, sp))
        fwd = decide_unary(Query(out.automaton, out.s, out.s_prime)).verdict == "is-big-o"
        rev = decide_unary(Query(out.automaton, out.s_prime, out.s)).verdict == "is-big-o"
        assert (fwd and rev) == want
        back = from_big_theta(Query(wa, s, sp))
        theta = want and decide_unary(Query(wa, sp, s)).verdict == "is-big-o"
        got = decide_unary(Query(back.automaton, back.s, back.s_prime)).verdict == "is-big-o"
        assert got == theta
    # eventual completion equivalence on 50 random unary instances
    agreed = 0
    for _ in range(50):
        wa = random_wa(rng, nstates=rng.randint(2, 4), alphabet=("a",), density=0.5)
        q = Query(wa, "q0", "q1")
        lhs = decide_unary_eventual(q).verdict == "is-big-o"
        diff = eventually_included(nfa_of(wa, "q0"), nfa_of(wa, "q1")).included
        if not diff:
            assert not lhs
            agreed += 1
            continue
        comp = complete_for_eventual(wa, "q0", "q1")
        rhs = decide_unary(Query(comp.automaton, comp.s, comp.s_prime)).verdict == "is-big-o"
        if lhs == rhs:
            agreed += 1
        else:
            # the completed check may diverge only at the empty word
            assert weight(wa, "q0", "") > 0 and weight(wa, "q1", "") == 0
            agreed += 1
    assert agreed == 50
    # forward value-1 reduction: exact weight law for short words
    for _ in range(5):
        wa, start = random_pa(rng, nstates=3)
        red = value1_to_bigo(ProbAutomaton(wa, start))
        chain = red.lmc.underlying
        scale = F(1, len(wa.alphabet) + 1)
        for w in words_upto(("a", "b"), 4):
            word = ["$"] + list(w) + ["$"]
            assert weight(chain, red.s, word) == scale ** (len(w) + 1)
    report(10, "reduction round-trips and exact reduction laws", t0, 300.0)
