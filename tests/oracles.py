"""Independent references for the package: dense matrices, brute-force
oracles, and the searches and linear programs the package's faster
versions are checked against."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from ratiobound.algebraic import (
    AlgebraicNumber,
    compare,
    largest_real_root,
    pdeg,
    pprimitive,
    ptrim,
)
from ratiobound.automata import (
    InputError,
    Nfa,
    Query,
    Verdict,
    WeightedAutomaton,
    explore,
    fresh_state,
    nfa_of,
    normalize_single_final,
    trim,
    weight_blocks,
)
from ratiobound.bounded import PlusQuery
from ratiobound.intervals import FInterval, ivl_sum
from ratiobound.jsonio import format_weight
from ratiobound.nfaops import LcResult, eventually_included
from ratiobound.realexp import DivergenceRow, DivergenceSystem, RealExpFormula, semi_decide
from ratiobound.reductions import complete_for_eventual
from ratiobound.spectral import SccDag, SccInfo, scc_decompose, strong_components
from ratiobound.unambiguous import AmbiguityResult
from ratiobound.unary import decide_unary


# ---------------------------------------------------------------------------
# dense references: exact matrices of Fractions, read from the sparse rows

Matrix = tuple[tuple[Fraction, ...], ...]


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


def dense_char_poly(m: Matrix) -> tuple:
    """Monic-up-to-sign integer polynomial whose largest real root is the
    spectral radius of the non-negative rational matrix `m`.

    Denominators are cleared first (roots scale by the lcm and are divided
    back out by substitution), then Faddeev-LeVerrier runs fraction-free.
    """
    n = len(m)
    if n == 0:
        raise InputError("empty matrix")
    den = 1
    for row in m:
        for w in row:
            den = lcm(den, Fraction(w).denominator)
    b = [[int(Fraction(w) * den) for w in row] for row in m]

    # Faddeev-LeVerrier on the integer matrix: coefficients of det(xI - B);
    # prev holds B * M_k, all intermediate divisions are exact over Z
    cs = []
    prev = [row[:] for row in b]
    cs.append(-sum(prev[i][i] for i in range(n)))
    for k in range(2, n + 1):
        tmp = [[prev[i][j] + (cs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        prev = [
            [sum(b[i][x] * tmp[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(prev[i][i] for i in range(n))
        assert tr % k == 0
        cs.append(-tr // k)
    # det(xI - B) = x^n + cs[0] x^(n-1) + ... + cs[n-1]
    poly_b = tuple(list(reversed(cs)) + [1])
    # radius of m = radius of b / den: root of p_b(den * x)
    deg = pdeg(poly_b)
    poly_m = tuple(poly_b[i] * den**i for i in range(deg + 1))
    return pprimitive(poly_m)


def spectral_radius_of_matrix(m: Matrix) -> AlgebraicNumber:
    """Spectral radius of a square non-negative rational matrix, exactly."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise InputError("matrix is not square")
        for w in row:
            if w < 0:
                raise InputError("matrix has a negative entry")
    if n == 1:
        return AlgebraicNumber.from_rational(m[0][0])
    if all(w == 0 for row in m for w in row):
        return AlgebraicNumber.from_rational(Fraction(0))
    return largest_real_root(dense_char_poly(m))


def dense_scc_decompose(m: Matrix):
    """Reference SCC/DAG analysis read from a dense matrix: Tarjan over the
    positive cells in column order, radii of the members' sub-matrices, and
    periods by BFS levels over the internal positive cells.  Returns the
    `SccDag`, each component's member indices, and the component pairs that
    a positive cross cell joins."""
    n = len(m)
    comps, _ = strong_components([[v for v in range(n) if m[u][v] > 0] for u in range(n)])
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
        infos.append(SccInfo(spectral_radius_of_matrix(sub), period))
    edges = frozenset(
        (scc_of[u], scc_of[v])
        for u in range(n)
        for v in range(n)
        if m[u][v] > 0 and scc_of[u] != scc_of[v]
    )
    return SccDag(tuple(infos), tuple(scc_of)), tuple(map(frozenset, comps)), edges


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


def lasso(start, step):
    """Iterate `step` from `start` until a state repeats.  Returns the
    distinct states in order and the index that step(seq[-1]) returns to."""
    index: dict = {}
    seq = []
    while start not in index:
        index[start] = len(seq)
        seq.append(start)
        start = step(start)
    return seq, index[start]


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


def serialize_reference(wa: WeightedAutomaton, extra: dict | None = None) -> str:
    """`jsonio.serialize` by its first formula: every weight through
    `transitions()` as a Fraction, then formatted as num/den."""
    doc = {
        "states": list(wa.states),
        "alphabet": list(wa.alphabet),
        "finals": sorted(wa.finals),
        "transitions": [
            {"from": src, "symbol": sym, "to": dst, "weight": format_weight(w)}
            for (src, sym, w, dst) in sorted(wa.transitions(), key=lambda t: (t[0], t[1], t[3]))
        ],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def weight(wa: WeightedAutomaton, s: str, word) -> Fraction:
    """Total weight of accepting paths for `word` from `s`: each letter is a
    block of length one.  The empty word weighs 1 if s is final, else 0."""
    return weight_blocks(wa, s, ((a, 1) for a in word))


@dataclass(frozen=True)
class GrowthTuple:
    """One attainable pair of exponential sums of a finitely ambiguous
    comparison: weights p, r and per-coordinate bases q^i, s^i, all > 0.
    The second sum has at least one term; the first may have none."""

    p: tuple
    q_rows: tuple
    r: tuple
    s_rows: tuple

    @property
    def dim(self) -> int:
        return len(self.s_rows[0])


def block_chain(d: GrowthTuple) -> WeightedAutomaton:
    """The tuple as a block chain over letters a1..a{dim}: `s` branches
    with weight p_j into a path that reads a1^n1 ... ad^nd with weight
    q_j[i] on every a_i, and `s'` likewise with r_l and s_l.  So on that
    word (every n_i >= 1) nu_s / nu_s' is exactly the tuple's ratio at n.
    A chain of dimension 0 accepts no word: its ratio is constant."""
    letters = [f"a{i + 1}" for i in range(d.dim)]
    states, trans, finals = ["s", "s'"], [], []
    for start, tag, weights, rows in (("s", "n", d.p, d.q_rows), ("s'", "d", d.r, d.s_rows)):
        for j, (w, row) in enumerate(zip(weights, rows)):
            prev, into = start, Fraction(w)
            for a, x in zip(letters, row):
                q = f"{tag}{j}.{a}"
                states.append(q)
                trans += [(prev, a, into * Fraction(x), q), (q, a, x, q)]
                prev, into = q, 1
            if letters:
                finals.append(prev)
    return WeightedAutomaton.from_transitions(states, letters, trans, finals)


def tuple_ratio(d: GrowthTuple, v) -> Fraction:
    """A growth tuple's ratio sum_j p_j prod_i q_j[i]^v_i over
    sum_l r_l prod_i s_l[i]^v_i, from the tuple's entries alone."""

    def total(weights, rows):
        out = Fraction(0)
        for w, row in zip(weights, rows):
            term = Fraction(w)
            for base, e in zip(row, v, strict=True):
                term *= Fraction(base) ** e
            out += term
        return out

    return total(d.p, d.q_rows) / total(d.r, d.s_rows)


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


def negative_direction_unpruned(rows, nvars: int):
    """A rational d >= 0 with row . d <= -1 for every row, or None, by plain
    Fourier-Motzkin: every pair of bounds is combined, none is pruned, so
    the stages grow doubly exponentially."""
    # constraints: sum c_i d_i >= rhs
    cons = []
    for i in range(nvars):
        e = [Fraction(0)] * nvars
        e[i] = Fraction(1)
        cons.append((e, Fraction(0)))
    for row in rows:
        cons.append(([Fraction(-c) for c in row], Fraction(1)))
    stages = []
    current = cons
    for k in range(nvars - 1, -1, -1):
        stages.append(current)
        lowers = [(c, r) for (c, r) in current if c[k] > 0]
        uppers = [(c, r) for (c, r) in current if c[k] < 0]
        new = [(c, r) for (c, r) in current if c[k] == 0]
        for (cl, rl) in lowers:
            for (cu, ru) in uppers:
                coef = [cl[i] * (-cu[k]) + cu[i] * cl[k] for i in range(nvars)]
                coef[k] = Fraction(0)
                new.append((coef, rl * (-cu[k]) + ru * cl[k]))
        current = new
    if any(rhs > 0 for (_, rhs) in current):
        return None
    d = [None] * nvars
    for k, stage in zip(range(nvars), reversed(stages)):
        lo, hi = None, None
        for (c, rhs) in stage:
            if c[k] == 0:
                continue
            bound = (rhs - sum(c[i] * d[i] for i in range(k))) / c[k]
            if c[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            d[k] = Fraction(0)
        elif lo is None:
            d[k] = min(Fraction(0), hi)
        elif hi is None:
            d[k] = lo
        else:
            if lo > hi:
                return None
            d[k] = (lo + hi) / 2
    return d


def fm_solve_fractions(cons, nvars: int):
    """A rational d with c . d >= rhs for every (c, rhs) in `cons` (entries
    Fractions), or None: Fourier-Motzkin over Fractions, pruned by
    Chernikov's rule, with the elimination order and back-substitution of
    `realexp.fm_solve`."""
    current = [(c, rhs, 1 << i) for i, (c, rhs) in enumerate(cons)]
    stages = []
    for j, k in enumerate(range(nvars - 1, -1, -1), start=1):
        stages.append(current)
        lowers = [con for con in current if con[0][k] > 0]
        uppers = [con for con in current if con[0][k] < 0]
        new = [con for con in current if con[0][k] == 0]
        for (cl, rl, hl) in lowers:
            for (cu, ru, hu) in uppers:
                used = hl | hu
                if used.bit_count() > j + 1:
                    continue
                coef = [cl[i] * (-cu[k]) + cu[i] * cl[k] for i in range(nvars)]
                coef[k] = Fraction(0)
                new.append((coef, rl * (-cu[k]) + ru * cl[k], used))
        current = new
    if any(rhs > 0 for (_, rhs, _) in current):
        return None
    d = [None] * nvars
    for k, stage in zip(range(nvars), reversed(stages)):
        lo, hi = None, None
        for (c, rhs, _) in stage:
            if c[k] == 0:
                continue
            bound = (rhs - sum(c[i] * d[i] for i in range(k))) / c[k]
            if c[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            d[k] = Fraction(0)
        elif lo is None:
            d[k] = min(Fraction(0), hi)
        elif hi is None:
            d[k] = lo
        else:
            if lo > hi:
                return None
            d[k] = (lo + hi) / 2
    return d


def covering_fails(nvars: int, enc, max_depth=10) -> bool:
    """Certified covering of every escape direction: on each face of the
    sup-norm unit boundary, some row's linear form, with its coefficients'
    enclosures `enc[j][i]`, stays above 0 over every box of a bisection at
    most `max_depth` deep."""

    def box_certified(fixed, box) -> bool:
        # direction d has d_fixed = 1 and d_i in box[i] for the others
        for row in enc:
            parts = [row[fixed]] + [
                row[i] * FInterval(*box[i]) for i in range(nvars) if i != fixed
            ]
            if ivl_sum(parts).lo > 0:
                return True
        return False

    def split(fixed, box, depth) -> bool:
        if box_certified(fixed, box):
            return True
        if depth >= max_depth:
            return False
        w, i = max(
            ((box[i][1] - box[i][0], i) for i in range(nvars) if i != fixed),
            default=(0, None),
        )
        if w == 0:
            return False
        mid = (box[i][0] + box[i][1]) / 2
        left, right = dict(box), dict(box)
        left[i] = (box[i][0], mid)
        right[i] = (mid, box[i][1])
        return split(fixed, left, depth + 1) and split(fixed, right, depth + 1)

    for fixed in range(nvars):
        box = {i: (Fraction(0), Fraction(1)) for i in range(nvars) if i != fixed}
        box[fixed] = (Fraction(1), Fraction(1))
        if not split(fixed, box, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# reference searches: word-per-state frontier loops, kept apart from the
# package's `explore`-based searches that they check


def ref_is_unambiguous_from(wa: WeightedAutomaton, s: str) -> AmbiguityResult:
    """Breadth-first search of (run, run, diverged) triples that carries a
    word per triple and returns at the first pair of final, diverged runs."""
    si = wa.index(s)
    letters = [(a, wa.sparse_rows[a][1]) for a in wa.alphabet]
    final = [q in wa.finals for q in wa.states]
    start = (si, si, False)
    seen = {start}
    frontier = [(start, "")]
    while frontier:
        nxt = []
        for (pi, ri, div), word in frontier:
            for a, rows in letters:
                for p2, _ in rows[pi]:
                    for r2, _ in rows[ri]:
                        d2 = div or (p2 != r2)
                        state = (p2, r2, d2)
                        w2 = word + a
                        if d2 and final[p2] and final[r2]:
                            return AmbiguityResult(False, w2)
                        if state not in seen:
                            seen.add(state)
                            nxt.append((state, w2))
        frontier = nxt
    return AmbiguityResult(True)


def ref_nfa_contained(n1: Nfa, n2: Nfa) -> LcResult:
    """Breadth-first antichain subset search that carries a word per pair
    and returns at the first pair accepted by n1 and rejected by n2."""
    start = (n1.start, frozenset([n2.start]))
    if n1.start in n1.finals and not (start[1] & n2.finals):
        return LcResult(False, "")
    alphabet = tuple(dict.fromkeys(n1.alphabet + n2.alphabet))
    seen: dict = {}

    def subsumed(state, subset):
        return any(prev <= subset for prev in seen.get(state, ()))

    def remember(state, subset):
        kept = [prev for prev in seen.get(state, ()) if not (subset < prev)]
        kept.append(subset)
        seen[state] = kept

    remember(*start)
    frontier = [(start, "")]
    while frontier:
        nxt = []
        for (state, subset), word in frontier:
            for a in alphabet:
                succs = n1.step(frozenset([state]), a)
                tgt = n2.step(subset, a)
                for q2 in sorted(succs):
                    w2 = word + a
                    if q2 in n1.finals and not (tgt & n2.finals):
                        return LcResult(False, w2)
                    if not subsumed(q2, tgt):
                        remember(q2, tgt)
                        nxt.append(((q2, tgt), w2))
        frontier = nxt
    return LcResult(True)


# ---------------------------------------------------------------------------
# reference sub-question: one product search per plus-pattern


def ref_plus_subquery(wa: WeightedAutomaton, s: str, s_prime: str, pat) -> PlusQuery:
    """The plus-letter-bounded sub-question for `pat` by its own search: the
    product of `wa` with the plus-bound DFA for `pat`, explored from (s, 0)
    and (s', 0) over pairs (q, d), d the number of blocks entered, trimmed
    to its live pairs and the two starts, a step into block d relabelled
    `b{d}`.  Its `growth` is left empty."""
    k = len(pat)

    def succ(node):
        qi, d = node
        for d2 in (d, d + 1):
            if 1 <= d2 <= k:
                for qj, x in wa.sparse_rows[pat[d2 - 1]][1][qi]:
                    yield (d2, x), (qj, d2)

    starts = sorted({(wa.index(s), 0), (wa.index(s_prime), 0)})
    nodes, edges = explore(starts, succ)
    finals_idx = {wa.index(f) for f in wa.finals}
    finals = [i for i, (qi, d) in enumerate(nodes) if d == k and qi in finals_idx]
    live = trim(range(len(starts)), finals, edges)
    keep = sorted({nodes[i] for i in live}.union(starts))
    index = {node: i for i, node in enumerate(keep)}
    rows = [[[] for _ in keep] for _ in pat]
    for i, (d2, x), j in edges:
        if i in live and j in live:
            rows[d2 - 1][index[nodes[i]]].append((index[nodes[j]], x))
    fresh = tuple(f"b{i+1}" for i in range(k))
    sparse = {
        b: (wa.sparse_rows[a][0], tuple(map(tuple, block)))
        for b, a, block in zip(fresh, pat, rows)
    }
    out = WeightedAutomaton(
        tuple(f"{wa.states[qi]}@{d}" for qi, d in keep),
        fresh,
        sparse,
        frozenset(f"{wa.states[nodes[i][0]]}@{k}" for i in finals),
    )
    return PlusQuery(out, f"{s}@0", f"{s_prime}@0", fresh, tuple(pat), tuple(keep), ())


# ---------------------------------------------------------------------------
# the one verdict record every decider returns


def checked_verdict(v: Verdict, bounded: bool = False) -> Verdict:
    """`v`, after checking the record: a witness exactly for not-big-o, one
    that `json` writes as it stands (no Fraction or AlgebraicNumber inside),
    and a subquery count exactly when the bounded decider ran."""
    assert v.verdict in ("is-big-o", "not-big-o", "unknown"), v
    assert (v.witness is not None) == (v.verdict == "not-big-o"), v
    json.dumps(v.witness)
    assert (v.subqueries is not None) == bounded, v
    return v


# ---------------------------------------------------------------------------
# eventually-big-O by completion: shift both starts one letter, require a
# finite difference, then decide the completed query plainly


def ref_decide_unary_eventual(q: Query) -> Verdict:
    """Fresh starts step once with weight 1 into s and s', so the empty word
    drops out; a finite difference L(s) \\ L(s') then leaves the plain
    decider on the completion, where every nonempty word from s' gets an
    extra weight delta^|w|.  Witness lengths are the shifted automaton's,
    one letter longer than the query's own words."""
    if q.s == q.s_prime:
        return Verdict("is-big-o")
    wa = q.automaton
    a = wa.alphabet[0]
    taken = set(wa.states)
    f1, f2 = fresh_state(taken, f"{q.s}>"), fresh_state(taken, f"{q.s_prime}>")
    d, rows = wa.sparse_rows[a]
    rows += (((wa.index(q.s), d),), ((wa.index(q.s_prime), d),))
    shifted = WeightedAutomaton(wa.states + (f1, f2), wa.alphabet, {a: (d, rows)}, wa.finals)
    diff = eventually_included(nfa_of(shifted, f1), nfa_of(shifted, f2))
    if not diff:
        return Verdict(
            "not-big-o",
            {
                "type": "difference",
                "lcCounterexample": None,
                "threshold": None,
                "length": diff.witness_length,
                "smallestLength": diff.smallest_witness,
                "progressionPeriod": diff.period,
            },
        )
    completed = complete_for_eventual(shifted, f1, f2)
    return decide_unary(Query(completed.automaton, completed.s, completed.s_prime))


# ---------------------------------------------------------------------------
# the unambiguous decider's Bellman-Ford run for all |live| rounds


def ref_unambiguous_cycle_ratio(wa: WeightedAutomaton, s: str, s_prime: str):
    """None when no cycle of ratio product > 1 lies between the start pair
    and the final pair; otherwise the ratio of the predecessor cycle met by
    walking back |live| predecessors from the pair last improved in round
    |live|.  Assumes both states unambiguous and containment holding."""
    wa = normalize_single_final(wa)
    (t,) = wa.finals
    ti = wa.index(t)
    letters = [wa.sparse_rows[a][1] for a in wa.alphabet]

    def succ(pair):
        i, i2 = pair
        for li, rows in enumerate(letters):
            for j, x in rows[i]:
                for j2, x2 in rows[i2]:
                    yield (li, Fraction(x, x2)), (j, j2)

    pairs, edges = explore([(wa.index(s), wa.index(s_prime))], succ)
    live = trim([0], [k for k, p in enumerate(pairs) if p == (ti, ti)], edges)
    if 0 not in live:
        return None
    # relaxed in (letter, first transition, second transition) order
    live_edges = [
        (u, r, v)
        for _, u, r, v in sorted(
            ((li, pairs[u][0], pairs[v][0], pairs[u][1], pairs[v][1]), u, r, v)
            for u, (li, r), v in edges
            if u in live and v in live
        )
    ]
    dist = [Fraction(0)] * len(pairs)
    dist[0] = Fraction(1)
    pred = {}
    for _ in range(len(live)):
        changed = None
        for u, r, v in live_edges:
            if dist[u] and dist[u] * r > dist[v]:
                dist[v], pred[v], changed = dist[u] * r, (u, r), v
        if changed is None:
            return None
    node = changed
    for _ in range(len(live)):
        node = pred[node][0]
    ratio, v = pred[node][1], pred[node][0]
    while v != node:
        ratio *= pred[v][1]
        v = pred[v][0]
    return ratio


# ---------------------------------------------------------------------------
# the bounded decider's candidates, one sentence per subset of coordinates


def ref_every_u(candidate) -> dict:
    """The semi-decision of the candidate's sentence restricted to each
    subset U of its linear set's unbounded coordinates P, keyed by U: each
    row's `coeffs` and `logs` sliced to U, the bound kept.  This is the
    sentence the bounded decider emitted for U when it enumerated every
    subset of P instead of deciding P alone."""
    formula = candidate.formula
    system = formula.system
    p = tuple(i for i, r in enumerate(candidate.lin.periods) if r > 0)
    assert system.nvars == len(p) and formula.provenance["U"] == [i + 1 for i in p]
    out = {}
    for mask in range(2 ** len(p)):
        keep = [k for k in range(len(p)) if mask >> k & 1]
        rows = tuple(
            DivergenceRow(tuple(r.coeffs[k] for k in keep), tuple(r.logs[k] for k in keep))
            for r in system.rows
        )
        sliced = DivergenceSystem(rows, system.lower, len(keep))
        out[tuple(p[k] for k in keep)] = semi_decide(RealExpFormula(sliced, formula.provenance))
    return out
