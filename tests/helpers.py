"""Seeded random instance generators and independent brute-force oracles."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from ratiobound.automata import Matrix, Nfa, WeightedAutomaton, lasso, weight_blocks
from ratiobound.nfaops import ChrobakNf
from ratiobound.spectral import scc_decompose
from ratiobound.algebraic import AlgebraicNumber, compare, ptrim


# ---------------------------------------------------------------------------
# random instances


def random_wa(rng: random.Random, nstates=3, alphabet=("a",), density=0.5, max_num=4):
    states = [f"q{i}" for i in range(nstates)]
    trans = []
    for q in states:
        for a in alphabet:
            for q2 in states:
                if rng.random() < density:
                    w = Fraction(rng.randint(1, max_num), rng.randint(1, 2 * max_num))
                    trans.append((q, a, w, q2))
    finals = [q for q in states if rng.random() < 0.4]
    if not finals:
        finals = [states[-1]]
    return WeightedAutomaton.from_transitions(states, alphabet, trans, finals)


def random_unary_nfa(rng: random.Random, nstates=5, density=0.3):
    from ratiobound.automata import Nfa

    states = tuple(f"n{i}" for i in range(nstates))
    trans = set()
    for q in states:
        for q2 in states:
            if rng.random() < density:
                trans.add((q, "a", q2))
    finals = frozenset(q for q in states if rng.random() < 0.4)
    return Nfa(states, ("a",), frozenset(trans), states[0], finals)


def random_pa(rng: random.Random, nstates=3, alphabet=("a", "b")):
    """Random probabilistic automaton: every row of every M(a) is stochastic."""
    states = [f"p{i}" for i in range(nstates)]
    trans = []
    for q in states:
        for a in alphabet:
            weights = _random_distribution(rng, nstates)
            for q2, w in zip(states, weights):
                if w:
                    trans.append((q, a, w, q2))
    finals = [q for q in states[1:] if rng.random() < 0.5]
    wa = WeightedAutomaton.from_transitions(states, alphabet, trans, finals)
    return wa, states[0]


def _random_distribution(rng: random.Random, n: int):
    cuts = sorted(rng.randint(0, 8) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(8 - prev)
    return [Fraction(p, 8) for p in parts]


def random_restricted_chrobak(rng: random.Random, max_total=10):
    """Restricted Chrobak form, one-state accepting stem, sized for the
    hardness generator; resamples until full universality coincides with
    coverage of every length >= 2."""
    while True:
        budget = rng.randint(1, max_total - 1)
        cycles = []
        while budget > 0:
            length = rng.randint(1, min(4, budget))
            budget -= length
            cycles.append((length, frozenset([rng.randrange(length)])))
        if not cycles:
            continue
        cnf = ChrobakNf((True,), tuple(cycles))
        from math import lcm

        horizon = 1 + lcm(*(l for l, _ in cnf.cycles))
        covered = all(cnf.accepts(n) for n in range(2, 2 + horizon))
        universal = cnf.accepts(1) and covered
        if covered == universal:
            return cnf


def planted_unambiguous(rng: random.Random, expansive: bool):
    """Two unary lasso copies differing by one cycle edge scaled by 17/16
    (ratio grows) or 15/16 (ratio stays bounded); the scaled copy is read
    from sA, the plain copy from sB."""
    stem_len = rng.randint(0, 3)
    cyc_len = rng.randint(1, 4)
    factor = Fraction(17, 16) if expansive else Fraction(15, 16)
    weights = [
        Fraction(rng.randint(1, 4), rng.randint(2, 8)) for _ in range(stem_len + cyc_len)
    ]
    final_off = rng.randrange(cyc_len)
    scaled_edge = rng.randrange(cyc_len)

    def build(tag: str, scale_cycle_edge):
        states = [f"{tag}s{i}" for i in range(stem_len)] + [
            f"{tag}c{i}" for i in range(cyc_len)
        ]
        trans = []
        for i in range(stem_len):
            nxt = states[i + 1]
            trans.append((states[i], "a", weights[i], nxt))
        for j in range(cyc_len):
            w = weights[stem_len + j]
            if scale_cycle_edge is not None and j == scale_cycle_edge:
                w = w * factor
            trans.append(
                (
                    states[stem_len + j],
                    "a",
                    w,
                    states[stem_len + (j + 1) % cyc_len],
                )
            )
        return states, trans, states[stem_len + final_off]

    sa, ta, fa = build("A", scaled_edge)
    sb, tb, fb = build("B", None)
    wa = WeightedAutomaton.from_transitions(
        sa + sb, ("a",), ta + tb, [fa, fb]
    )
    return wa, sa[0], sb[0]


# ---------------------------------------------------------------------------
# dense references: exact matrices of Fractions, read from the sparse rows


def dense_matrix(wa: WeightedAutomaton, a: str) -> Matrix:
    d, rows = wa.sparse_rows[a]
    dense = []
    for row in rows:
        cells = [Fraction(0)] * wa.n
        for j, x in row:
            cells[j] = Fraction(x, d)
        dense.append(tuple(cells))
    return tuple(dense)


def final_vector(wa: WeightedAutomaton) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(q in wa.finals)) for q in wa.states)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_pow(a: Matrix, n: int) -> Matrix:
    result = mat_identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def vec_mat(v: tuple[Fraction, ...], m: Matrix) -> tuple[Fraction, ...]:
    return tuple(
        sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))
    )


def dense_scc_decompose(m: Matrix):
    """Reference SCC/DAG analysis read from a dense matrix: Tarjan over the
    positive cells in column order, radii of the members' sub-matrices, and
    periods by BFS levels over the internal positive cells."""
    from math import gcd

    from ratiobound.algebraic import spectral_radius_of_matrix
    from ratiobound.spectral import SccDag, SccInfo, _tarjan

    n = len(m)
    comps = _tarjan(n, lambda u: [v for v in range(n) if m[u][v] > 0])
    scc_of = [0] * n
    infos = []
    for ci, comp in enumerate(comps):
        for v in comp:
            scc_of[v] = ci
        internal = [(u, v) for u in comp for v in comp if m[u][v] > 0]
        period = 0
        if internal:
            level = {comp[0]: 0}
            frontier = [comp[0]]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in comp:
                        if m[u][v] > 0 and v not in level:
                            level[v] = level[u] + 1
                            nxt.append(v)
                frontier = nxt
            for u, v in internal:
                period = gcd(period, level[u] + 1 - level[v])
        sub = tuple(tuple(m[u][v] for v in comp) for u in comp)
        infos.append(SccInfo(frozenset(comp), spectral_radius_of_matrix(sub), period))
    edges = frozenset(
        (scc_of[u], scc_of[v])
        for u in range(n)
        for v in range(n)
        if m[u][v] > 0 and scc_of[u] != scc_of[v]
    )
    return SccDag(tuple(infos), tuple(scc_of), edges)


# ---------------------------------------------------------------------------
# oracles


def pmul(p, q):
    """Product of polynomials given as coefficient tuples, lowest first."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def poly_divmod(p, q):
    """Long division over Q: Fraction coefficient tuples (quot, rem), both
    trimmed, with p = quot * q + rem and deg rem < deg q."""
    rem = [Fraction(c) for c in ptrim(p)]
    quot = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        coef = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quot[shift] = coef
        for i, c in enumerate(q):
            rem[i + shift] -= coef * c
        while rem and rem[-1] == 0:
            rem.pop()
    return ptrim(quot), tuple(rem)


@dataclass(frozen=True)
class UnaryLasso:
    """Determinized unary language: acceptance bits on a stem and a loop."""

    prefix_accepting: tuple
    loop_accepting: tuple

    def accepts(self, n: int) -> bool:
        if n < len(self.prefix_accepting):
            return self.prefix_accepting[n]
        off = (n - len(self.prefix_accepting)) % len(self.loop_accepting)
        return self.loop_accepting[off]

    @classmethod
    def from_nfa(cls, n: Nfa) -> "UnaryLasso":
        (a,) = n.alphabet
        subsets, loop_start = lasso(frozenset([n.start]), lambda sub: n.step(sub, a))
        acc = tuple(bool(sub & n.finals) for sub in subsets)
        return cls(acc[:loop_start], acc[loop_start:])


def lasso_difference_finite(l1: UnaryLasso, l2: UnaryLasso) -> bool:
    """Is {n : l1 accepts, l2 rejects} finite?  Period-alignment oracle."""
    pre = max(len(l1.prefix_accepting), len(l2.prefix_accepting))
    period = lcm(len(l1.loop_accepting), len(l2.loop_accepting))
    return not any(
        l1.accepts(n) and not l2.accepts(n) for n in range(pre, pre + period)
    )


def weight(wa: WeightedAutomaton, s: str, word) -> Fraction:
    """Total weight of accepting paths for `word` from `s`: each letter is a
    block of length one.  The empty word weighs 1 if s is final, else 0."""
    return weight_blocks(wa, s, ((a, 1) for a in word))


def enum_paths_weight(wa: WeightedAutomaton, s: str, word) -> Fraction:
    """Brute-force path enumeration: sum over accepting state sequences of
    the product of transition weights."""
    total = Fraction(0)
    n = wa.n
    letters = list(word)

    def rec(qi, pos, acc):
        nonlocal total
        if pos == len(letters):
            if wa.states[qi] in wa.finals:
                total += acc
            return
        m = dense_matrix(wa, letters[pos])
        for vj in range(n):
            w = m[qi][vj]
            if w > 0:
                rec(vj, pos + 1, acc * w)

    rec(wa.index(s), 0, Fraction(1))
    return total


def count_accepting_paths(wa: WeightedAutomaton, s: str, word) -> int:
    count = 0
    letters = list(word)

    def rec(qi, pos):
        nonlocal count
        if pos == len(letters):
            if wa.states[qi] in wa.finals:
                count += 1
            return
        m = dense_matrix(wa, letters[pos])
        for vj in range(wa.n):
            if m[qi][vj] > 0:
                rec(vj, pos + 1)

    rec(wa.index(s), 0)
    return count


def brute_unary_signatures(wa: WeightedAutomaton, s: str, n: int):
    """All (radius rank, scc-count-1) run signatures of length-n accepting
    paths, computed by path DP directly over the SCC structure (independent
    of the annotated-automaton construction)."""
    m = dense_matrix(wa, wa.alphabet[0])
    dag = scc_decompose(wa.sparse_rows[wa.alphabet[0]])
    radii = [info.radius for info in dag.sccs]
    order = _radius_ranks(radii)
    start = wa.index(s)
    init_sig = (order[dag.scc_of[start]], 0)
    states = {(start, init_sig)}
    for _ in range(n):
        nxt = set()
        for (qi, (r, k)) in states:
            for vj in range(wa.n):
                if m[qi][vj] <= 0:
                    continue
                r2 = order[dag.scc_of[vj]]
                if dag.scc_of[qi] == dag.scc_of[vj]:
                    sig = (r, k)
                elif r2 == r:
                    sig = (r, k + 1)
                elif r2 < r:
                    sig = (r, k)
                else:
                    sig = (r2, 0)
                nxt.add((vj, sig))
        states = nxt
    finals = {wa.index(f) for f in wa.finals}
    return {sig for (qi, sig) in states if qi in finals}, radii, order


def _radius_ranks(radii):
    """Rank radii by exact comparison; equal radii share a rank."""
    reps = []
    ranks = []
    for r in radii:
        found = None
        for i, rep in enumerate(reps):
            if compare(r, rep) == 0:
                found = i
                break
        if found is None:
            reps.append(r)
            found = len(reps) - 1
        ranks.append(found)
    idx = sorted(range(len(reps)), key=lambda i: _CmpKey(reps[i]))
    remap = {old: new for new, old in enumerate(idx)}
    return [remap[r] for r in ranks]


class _CmpKey:
    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return compare(self.v, other.v) < 0


def brute_unary_degree(wa: WeightedAutomaton, s: str, n: int):
    """Maximal signature (lexicographic) of length-n accepting runs, or None."""
    sigs, radii, order = brute_unary_signatures(wa, s, n)
    if not sigs:
        return None
    return max(sigs)


def power_iteration_radius(m, iters=2000) -> float:
    n = len(m)
    mf = [[float(x) for x in row] for row in m]
    v = [1.0] * n
    lam = 0.0
    for _ in range(iters):
        w = [sum(mf[i][j] * v[j] for j in range(n)) for i in range(n)]
        norm = max(abs(x) for x in w)
        if norm == 0:
            return 0.0
        lam = norm
        v = [x / norm for x in w]
    return lam


def words_upto(alphabet, max_len):
    for length in range(max_len + 1):
        for combo in product(alphabet, repeat=length):
            yield "".join(combo)


def brute_block_degree(wa, s, letters, nvec):
    """Maximal per-block growth signatures of accepting paths for the block
    word letters[0]^n0 ... letters[m-1]^n(m-1), by explicit path enumeration.

    Components are (rank, k) with ranks aligned to the shared radius table:
    0 for radius zero, 1 for the infinitesimal placeholder (paths through
    loop-free singletons only), 2.. for positive radii ascending.
    """
    from ratiobound.algebraic import spectral_radius_of_matrix

    m = len(letters)
    dags = [scc_decompose(wa.sparse_rows[a]) for a in letters]
    all_radii = [info.radius for dag in dags for info in dag.sccs]
    positives = []
    for r in all_radii:
        if r.sign() > 0 and not any(compare(r, p) == 0 for p in positives):
            positives.append(r)
    positives.sort(key=_CmpKey)

    def rank_of(radius):
        if radius.sign() == 0:
            return 0
        for i, p in enumerate(positives):
            if compare(radius, p) == 0:
                return i + 2
        raise AssertionError("radius missing from rank table")

    word = []
    for li, cnt in enumerate(nvec):
        word.extend([li] * cnt)
    finals = {wa.index(f) for f in wa.finals}

    def block_sig(visited_sccs, li):
        ranks = [rank_of(dags[li].sccs[c].radius) for c in visited_sccs]
        top = max(ranks)
        if top == 0:
            return (1, 0)  # the infinitesimal placeholder
        return (top, ranks.count(top) - 1)

    memo = {}

    def suffixes(qi, pos, visited):
        """Signature suffixes (current block onward) of accepting runs."""
        key = (qi, pos, frozenset(visited))
        if key in memo:
            return memo[key]
        out = set()
        if pos == len(word):
            if qi in finals:
                out.add((block_sig(visited, word[-1]),))
        else:
            li = word[pos]
            matrix = dense_matrix(wa, letters[li])
            new_block = word[pos - 1] != li
            for vj in range(wa.n):
                if matrix[qi][vj] <= 0:
                    continue
                if new_block:
                    head = block_sig(visited, word[pos - 1])
                    vis2 = {dags[li].scc_of[qi], dags[li].scc_of[vj]}
                    for tail in suffixes(vj, pos + 1, vis2):
                        out.add((head,) + tail)
                else:
                    vis2 = visited | {dags[li].scc_of[vj]}
                    for tail in suffixes(vj, pos + 1, vis2):
                        out.add(tail)
        memo[key] = out
        return out

    sigs = set()
    if word and all(n > 0 for n in nvec):
        li0 = word[0]
        qi0 = wa.index(s)
        matrix = dense_matrix(wa, letters[li0])
        for vj in range(wa.n):
            if matrix[qi0][vj] > 0:
                start_vis = {dags[li0].scc_of[qi0], dags[li0].scc_of[vj]}
                sigs |= suffixes(vj, 1, start_vis)
    maximal = []
    for v in sorted(sigs):
        if not any(_pointwise_lt(v, w) for w in sigs if w != v):
            maximal.append(v)
    return tuple(maximal)


def _pointwise_lt(v, w):
    return all(a <= b for a, b in zip(v, w)) and v != w


def random_block_wa(rng: random.Random, letters=("a", "b"), per=2, density=0.6):
    """Random automaton that is letter-bounded over `letters` by shape:
    block-i states loop on letters[i] only and feed forward into block i+1
    on letters[i+1]; a final sink hangs off the last block."""
    m = len(letters)
    layers = [[f"L{i}_{j}" for j in range(per)] for i in range(m)]
    states = [q for layer in layers for q in layer] + ["fin"]
    trans = []
    for i, layer in enumerate(layers):
        for q in layer:
            for q2 in layer:
                if rng.random() < density:
                    trans.append(
                        (q, letters[i], Fraction(rng.randint(1, 3), rng.randint(2, 6)), q2)
                    )
        if i + 1 < m:
            for q in layer:
                for q2 in layers[i + 1]:
                    if rng.random() < density:
                        trans.append(
                            (
                                q,
                                letters[i + 1],
                                Fraction(rng.randint(1, 3), rng.randint(2, 6)),
                                q2,
                            )
                        )
    for q in layers[-1]:
        if rng.random() < 0.8:
            trans.append((q, letters[-1], Fraction(rng.randint(1, 3), rng.randint(2, 6)), "fin"))
    return WeightedAutomaton.from_transitions(states, letters, trans, ["fin"])


def not_big_o_on_b() -> WeightedAutomaton:
    """From `s` and `s'` every nonempty word over {a, b} is accepted; the
    query (s, s') is not big-O, by cycle ratio 3/2 on b, but is big-O on
    the words a^n alone."""
    trans = [
        ("s", "a", Fraction(1, 2), "s"),
        ("s", "a", Fraction(1, 4), "t"),
        ("s", "b", Fraction(3, 4), "s"),
        ("s", "b", Fraction(1, 4), "t"),
        ("s'", "a", Fraction(1, 2), "s'"),
        ("s'", "a", Fraction(1, 2), "t"),
        ("s'", "b", Fraction(1, 2), "s'"),
        ("s'", "b", Fraction(1, 2), "t"),
    ]
    return WeightedAutomaton.from_transitions(["s", "s'", "t"], ["a", "b"], trans, ["t"])


def two_symbol_chain() -> WeightedAutomaton:
    """Alphabet of the two-character symbols `x1` and `x2`: `s` and `s'`
    each loop on `x1` and leave on `x2`, `s` at rate 1/3 and `s'` at 1/2,
    so `s` is big-O of `s'` and not the reverse."""
    trans = [
        ("s", "x1", Fraction(1, 3), "s"),
        ("s", "x2", Fraction(1, 2), "t"),
        ("s'", "x1", Fraction(1, 2), "s'"),
        ("s'", "x2", Fraction(1, 2), "t"),
    ]
    return WeightedAutomaton.from_transitions(["s", "s'", "t"], ["x1", "x2"], trans, ["t"])


def random_functional_unary(rng: random.Random, nstates=5):
    """Deterministic unary automaton (one successor per state): unambiguous
    from every state by construction."""
    states = [f"f{i}" for i in range(nstates)]
    trans = []
    for i, q in enumerate(states):
        j = rng.randrange(nstates)
        w = Fraction(rng.randint(1, 4), rng.randint(2, 8))
        trans.append((q, "a", w, states[j]))
    finals = [q for q in states if rng.random() < 0.5]
    if not finals:
        finals = [states[-1]]
    return WeightedAutomaton.from_transitions(states, ("a",), trans, finals)
