"""Decider for queries whose languages are bounded: reductions down to the
plus-letter-bounded core, per-block growth-signature detectors, Parikh
decompositions into linear sets, and emission/semi-decision of divergence
sentences over the reals with logarithms.

Also hosts the finitely-ambiguous check, which turns externally supplied
growth tuples into divergence sentences of the same kind, one per tuple and
numerator row, and decides them with the same `realexp.semi_decide`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional

from .algebraic import AlgebraicNumber
from .automata import (
    InputError,
    Nfa,
    Query,
    ResourceError,
    WeightedAutomaton,
    _step,
    explore,
    lasso,
    nfa_of,
    trim,
    weight_blocks,
)
from .nfaops import lc_check, nfa_contained
from .realexp import (
    FAILS,
    HOLDS,
    UNKNOWN,
    DivergenceRow,
    DivergenceSystem,
    LogCoeff,
    RealExpFormula,
    SemiDecision,
    checked_start_bits,
    lcm_den,
    semi_decide,
)
from .spectral import RadiusTable, scc_decompose

MONITOR_CAP = 20000
LINEAR_SET_CAP = 10000


# ---------------------------------------------------------------------------
# public value types


@dataclass(frozen=True)
class LinearSet:
    """{ base + diag(periods) * lam : lam in N^m }, periods unit multiples."""

    base: tuple
    periods: tuple

    def member(self, lam) -> tuple:
        return tuple(b + r * l for b, r, l in zip(self.base, self.periods, lam))


@dataclass(frozen=True)
class DeltaTuple:
    """One attainable pair of exponential sums for a finitely ambiguous
    comparison: weights p, r and per-coordinate bases q^i, s^i, all > 0."""

    p: tuple
    q_rows: tuple
    r: tuple
    s_rows: tuple

    def __post_init__(self):
        if len(self.p) != len(self.q_rows) or len(self.r) != len(self.s_rows):
            raise InputError("tuple weights and rows must align")
        if not self.r:
            # an identically zero second weight: a containment failure,
            # decided before any growth tuple
            raise InputError("the second sum needs at least one term")
        dims = {len(q) for q in self.q_rows} | {len(s) for s in self.s_rows}
        if len(dims) > 1:
            raise InputError("inconsistent tuple dimensions")
        for v in (*self.p, *self.r):
            if Fraction(v) <= 0:
                raise InputError("tuple entries must be strictly positive")
        for row in (*self.q_rows, *self.s_rows):
            for v in row:
                if Fraction(v) <= 0:
                    raise InputError("tuple entries must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.q_rows[0]) if self.q_rows else 0


# ---------------------------------------------------------------------------
# boundedness detection and reductions


def detect_letter_bounded(wa: WeightedAutomaton, s: str):
    """A letter sequence whose starred blocks cover L_s, or None.

    Structure: in the trimmed support NFA every cycle must be single-letter;
    the sequence interleaves SCC loop letters with cross-edge letters in
    topological order, then the containment is verified directly, by
    `_in_letter_bound` over successor lists built once.
    """
    n = nfa_of(wa, s)
    live = trim({n.start}, n.finals, n.transitions)
    if not live or not (live & n.finals):
        return ()
    trans = sorted((p, a, q2) for (p, a, q2) in n.transitions if p in live and q2 in live)
    order = sorted(live)
    idx = {q: i for i, q in enumerate(order)}
    steps: dict = {q: [] for q in order}
    for p, a, q2 in trans:
        steps[p].append((a, q2))
    succ = [[idx[q2] for _, q2 in steps[q]] for q in order]
    finals = live & n.finals

    from .spectral import _tarjan

    comps = _tarjan(len(order), succ.__getitem__)
    scc_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            scc_of[order[v]] = ci
    loop_letter = {}
    for ci, comp in enumerate(comps):
        letters = {
            a
            for (p, a, q2) in trans
            if scc_of[p] == ci and scc_of[q2] == ci
        }
        if len(letters) > 1:
            return None
        loop_letter[ci] = letters.pop() if letters else None
    incoming: dict = {ci: set() for ci in range(len(comps))}
    dag_edges = set()
    for (p, a, q2) in trans:
        if scc_of[p] != scc_of[q2]:
            incoming[scc_of[q2]].add(a)
            dag_edges.add((scc_of[p], scc_of[q2]))
    # topological order, greedily continuing the current letter so parallel
    # same-letter branches share blocks
    indeg = {ci: 0 for ci in range(len(comps))}
    for (u, v) in dag_edges:
        indeg[v] += 1
    ready = [ci for ci in range(len(comps)) if indeg[ci] == 0]
    topo = []
    last = None
    while ready:
        ready.sort(key=lambda ci: (loop_letter[ci] != last, str(loop_letter[ci]), ci))
        ci = ready.pop(0)
        topo.append(ci)
        if loop_letter[ci] is not None:
            last = loop_letter[ci]
        for (u, v) in sorted(dag_edges):
            if u == ci:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
    seq: list = []
    for ci in topo:
        seq.extend(sorted(incoming[ci]))
        if loop_letter[ci] is not None:
            seq.append(loop_letter[ci])
    collapsed = _collapse(seq)
    if not _in_letter_bound(n.start, steps, finals, collapsed):
        return None
    # greedy minimization: drop blocks while containment still verifies.
    # Dropping a block only shrinks the starred language, so a block that
    # was needed stays needed and the scan goes on from the same index.
    i = 0
    while i < len(collapsed):
        merged = _collapse(collapsed[:i] + collapsed[i + 1 :])
        if merged and _in_letter_bound(n.start, steps, finals, merged):
            collapsed = merged
        else:
            i += 1
    return collapsed


def _collapse(seq) -> tuple:
    """`seq` with each run of a repeated letter collapsed to one letter."""
    return tuple(a for a, _ in groupby(seq))


def _in_letter_bound(start, steps, finals, letters) -> bool:
    """Whether every word accepted from `start` lies in
    letters[0]* ... letters[-1]*; `steps` maps a state to its
    (letter, target) pairs.

    A word lies in the bound exactly when the greedy scan, which reads each
    letter in the first block at or after the current one that spells it,
    never runs past the last block.  So one search over (state, block)
    pairs decides it, block None standing for a scan that ran past."""
    m = len(letters)
    ahead: dict = {None: {}, m: {}}  # block -> letter -> next block
    for p in range(m - 1, -1, -1):
        ahead[p] = {**ahead[p + 1], letters[p]: p}
    seen = {(start, 0)}
    todo = [(start, 0)]
    while todo:
        q, p = todo.pop()
        if p is None and q in finals:
            return False
        for a, q2 in steps.get(q, ()):
            node = (q2, ahead[p].get(a))
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return True


def _star_nfa(words, alphabet) -> Nfa:
    """NFA for w1* w2* ... wm*, each word a nonempty sequence of symbols
    (blocks may repeat words).  State `p{j}` follows a whole copy of w_j
    (`p0`: nothing read yet), so p0 .. p{j} may start w_j; the inner
    symbols of each word pass through states of their own."""
    bounds = [f"p{i}" for i in range(len(words) + 1)]
    inner = []
    trans = set()
    for j, w in enumerate(words):
        path = [f"w{j}.{t}" for t in range(1, len(w))] + [bounds[j + 1]]
        inner += path[:-1]
        trans.update((p, w[0], path[0]) for p in bounds[: j + 2])
        trans.update(zip(path, w[1:], path[1:]))
    return Nfa(
        tuple(bounds + inner),
        tuple(alphabet),
        frozenset(trans),
        bounds[0],
        frozenset(bounds),
    )


def _check_bound(wa: WeightedAutomaton, s: str, words) -> None:
    """InputError unless every word accepted from `s` lies in w1*...wm*: a
    bound that misses words would decide the query on part of its language."""
    inside = nfa_contained(nfa_of(wa, s), _star_nfa(words, wa.alphabet))
    if not inside:
        raise InputError(
            f"the bounding words miss {inside.counterexample!r}, accepted from {s!r}"
        )


@dataclass(frozen=True)
class LetterBoundedQuery:
    automaton: WeightedAutomaton
    s: str
    s_prime: str
    letters: tuple  # output block letters, one per bounding word


def check_bounding_words(wa: WeightedAutomaton, words) -> list:
    """Each bounding word as the tuple of `wa`'s alphabet symbols that spells
    it.  InputError unless there is at least one word, and each word is
    nonempty and splits into symbols in exactly one way (symbols may be
    longer than one character)."""
    words = [str(w) for w in words]
    if not words:
        raise InputError("empty bounding word list")
    out = []
    for w in words:
        if not w:
            raise InputError("bounding words must be nonempty")
        # splits[i]: at most two ways to spell w[i:]
        splits = [[] for _ in w] + [[()]]
        for i in range(len(w) - 1, -1, -1):
            for a in wa.alphabet:
                if a and w.startswith(a, i):
                    splits[i] += [(a, *rest) for rest in splits[i + len(a)]]
            del splits[i][2:]
        if not splits[0]:
            raise InputError(f"bounding word {w!r} is not spelled by the alphabet")
        if len(splits[0]) > 1:
            raise InputError(
                f"bounding word {w!r} splits into the alphabet's symbols in more than one way"
            )
        out.append(splits[0][0])
    return out


def bounded_to_letter_bounded(
    wa: WeightedAutomaton, s: str, s_prime: str, words
) -> LetterBoundedQuery:
    """Substitute a fresh block letter a_i for each bounding word w_i: a_i's
    matrix is M(w_i), the product of w_i's letter matrices, over the same
    states and finals, so a1^n1...am^nm weighs exactly what w1^n1...wm^nm
    weighs from every state."""
    words = check_bounding_words(wa, words)
    out_letters = tuple(f"a{i+1}" for i in range(len(words)))
    sparse = {}
    for a, w in zip(out_letters, words):
        den = 1
        rows = [{qi: 1} for qi in range(wa.n)]
        for sym in w:
            d, letter_rows = wa.sparse_rows[sym]
            den *= d
            rows = [_step(vec, letter_rows) for vec in rows]
        sparse[a] = den, tuple(tuple(sorted(vec.items())) for vec in rows)
    out = WeightedAutomaton(wa.states, out_letters, sparse, wa.finals)
    return LetterBoundedQuery(out, s, s_prime, out_letters)


@dataclass(frozen=True)
class LetterGrowth:
    """One source letter's components, shared by every sub-question of a
    query: each state's component, and per component its spectral radius
    and that radius's rank among the query's distinct positive radii (None
    for radius 0)."""

    scc_of: tuple  # source state index -> component index
    radii: tuple  # of AlgebraicNumber
    ranks: tuple


@dataclass(frozen=True)
class PlusQuery:
    """One plus-letter-bounded sub-question with distinct block letters.

    The automaton holds only the live product states `q@d` (on a path from
    a start to a final) and the two starts `s@0` and `s'@0`, in (q, d)
    order; state `q@d` has entered `d` blocks."""

    automaton: WeightedAutomaton
    s: str
    s_prime: str
    letters: tuple  # fresh block letters b1..bk
    source_letters: tuple  # the original letter of each block
    levels: tuple  # per state: (source state index, blocks entered)
    growth: tuple  # per block: the LetterGrowth of its source letter


def letter_bounded_to_plus(
    wa: WeightedAutomaton, s: str, s_prime: str, letters
) -> list:
    """Split a starred letter bound into plus-bounded sub-questions, one per
    distinct collapsed subsequence; the query answer is the conjunction.
    Each sub-question's automaton keeps only its live `q@d` states and the
    two starts.  Each distinct letter's components and radii are computed
    once here and shared by every sub-question that reads the letter."""
    letters = tuple(letters)
    patterns = {}
    for mask in range(1, 2 ** len(letters)):
        sub = [letters[i] for i in range(len(letters)) if mask >> i & 1]
        patterns.setdefault(_collapse(sub), None)
    dags = {a: scc_decompose(wa.sparse_rows[a]) for a in dict.fromkeys(letters)}
    # a component's radius is positive exactly when it has a cycle (period > 0)
    order = RadiusTable.build(
        [info.radius for dag in dags.values() for info in dag.sccs if info.period]
    )
    growth = {
        a: LetterGrowth(
            dag.scc_of,
            tuple(info.radius for info in dag.sccs),
            tuple(order.index_of(info.radius) if info.period else None for info in dag.sccs),
        )
        for a, dag in dags.items()
    }
    return [_plus_subquery(wa, s, s_prime, pat, growth) for pat in sorted(patterns)]


def _plus_subquery(wa, s, s_prime, pat, growth) -> PlusQuery:
    """Product with the plus-bound DFA for `pat`, explored from the starts and
    trimmed to its live pairs (q, d), d the number of blocks entered.

    Adjacent letters of `pat` differ, so a pair fixes its block: a step into
    block d2 reads `pat[d2 - 1]` and is relabelled with the fresh `b{d2}`."""
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
    # explore lists each source's steps into one block by ascending target
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
    return PlusQuery(
        out, f"{s}@0", f"{s_prime}@0", fresh, pat, tuple(keep), tuple(growth[a] for a in pat)
    )


# ---------------------------------------------------------------------------
# per-block growth analysis


@dataclass(frozen=True)
class BlockInfo:
    scc_of: tuple  # state index -> scc id (within this block's matrix)
    rad_of_state: tuple  # state index -> radius index in the shared table


@dataclass(frozen=True)
class PlusAnalysis:
    """Shared data for one plus-letter-bounded question: the radius table
    with the infinitesimal placeholder, per-block SCC structure, the two
    determinized signature monitors and their synchronized product."""

    query: PlusQuery
    table: RadiusTable
    delta_idx: int
    zero_idx: Optional[int]
    blocks: tuple
    det_s: "MonitorDfa"
    det_p: "MonitorDfa"
    product_states: tuple  # of (i, j) pairs
    product_trans: dict  # (state index, letter index) -> state index
    dsets: tuple  # per product state: (D_s tuple, D_p tuple) of signatures


@dataclass(frozen=True)
class MonitorDfa:
    states: tuple  # of frozensets of monitor triples
    trans: dict  # (state index, letter index) -> state index
    sigsets: tuple  # per state: frozenset of complete signatures


def _maximal(signatures):
    sigs = sorted(signatures)
    out = []
    for v in sigs:
        if not any(_vec_lt(v, w) for w in sigs if w != v):
            out.append(v)
    return tuple(out)


def _vec_le(v, w):
    return all(a <= b for a, b in zip(v, w))


def _vec_lt(v, w):
    return _vec_le(v, w) and v != w


def plus_analysis(pq: PlusQuery, cap: int = MONITOR_CAP) -> PlusAnalysis:
    """Radius table, block structure, monitors and their product.

    Block d's components are read off its source letter's: a state `q@d`
    with a step inside level d lies in q's letter component, whose members
    are live together at level d because each reaches all the others inside
    block d, so the component, its radius and its period carry over.  Every
    other state is a component of its own with radius 0.  The table is
    (0, delta, the positive radii met, ascending), delta half the smallest
    of them (1/2 when there are none); each radius keeps the form it is
    first met in, in block order."""
    wa = pq.automaton
    m = len(pq.letters)
    comps = []  # per block, per state: its letter component, or None
    first: dict = {}  # rank -> the first radius met with that rank
    for d, (b, g) in enumerate(zip(pq.letters, pq.growth), 1):
        rows = wa.sparse_rows[b][1]  # a level-d state steps on b only within level d
        comp = [
            g.scc_of[qi] if level == d and rows[i] else None
            for i, (qi, level) in enumerate(pq.levels)
        ]
        for c in comp:
            if c is not None and g.ranks[c] is not None:
                first.setdefault(g.ranks[c], g.radii[c])
        comps.append(comp)
    ranks = sorted(first)
    if ranks:
        delta = first[ranks[0]].scaled(Fraction(1, 2))
    else:
        delta = AlgebraicNumber.from_rational(Fraction(1, 2))
    zero = AlgebraicNumber.from_rational(Fraction(0))
    table = RadiusTable((zero, delta, *(first[r] for r in ranks)))
    zero_idx, delta_idx = 0, 1
    at = {r: i for i, r in enumerate(ranks, 2)}
    at[None] = zero_idx
    blocks = tuple(
        BlockInfo(
            tuple(~i if c is None else c for i, c in enumerate(comp)),
            tuple(zero_idx if c is None else at[g.ranks[c]] for c in comp),
        )
        for comp, g in zip(comps, pq.growth)
    )
    ctx = _MonitorContext(wa, pq.letters, blocks, delta_idx, zero_idx)
    det_s = _determinize_monitor(ctx, pq.s, cap)
    det_p = _determinize_monitor(ctx, pq.s_prime, cap)
    # synchronized product over the block letters
    def psucc(pair):
        for li in range(m):
            ti = det_s.trans.get((pair[0], li))
            tj = det_p.trans.get((pair[1], li))
            if ti is not None and tj is not None:
                yield li, (ti, tj)

    pstates, pedges = explore([(0, 0)], psucc)
    ptrans = {(i, li): j for i, li, j in pedges}
    dsets = []
    for (i, j) in pstates:
        dsets.append(
            (
                _maximal(det_s.sigsets[i]),
                _maximal(det_p.sigsets[j]),
            )
        )
    return PlusAnalysis(
        pq,
        table,
        delta_idx,
        zero_idx,
        blocks,
        det_s,
        det_p,
        tuple(pstates),
        ptrans,
        tuple(dsets),
    )


@dataclass(frozen=True)
class _MonitorContext:
    wa: WeightedAutomaton
    letters: tuple
    blocks: tuple
    delta_idx: int
    zero_idx: int

    def entry(self, j: int, qi: int):
        ri = self.blocks[j].rad_of_state[qi]
        if ri == self.zero_idx:
            return (self.delta_idx, 0)
        return (ri, 0)

    def update(self, j: int, ann, qi: int, vj: int):
        b = self.blocks[j]
        r2 = b.rad_of_state[vj]
        if ann == (self.delta_idx, 0):
            if r2 == self.zero_idx:
                return ann
            return (r2, 0)
        if b.scc_of[qi] == b.scc_of[vj]:
            return ann
        if r2 == ann[0]:
            return (ann[0], ann[1] + 1)
        if r2 < ann[0]:
            return ann
        return (r2, 0)


def _determinize_monitor(ctx: _MonitorContext, start: str, cap: int) -> MonitorDfa:
    wa = ctx.wa
    m = len(ctx.letters)
    succs = [
        [[vj for vj, _ in row] for row in wa.sparse_rows[a][1]] for a in ctx.letters
    ]

    def step(mset, li):
        out = set()
        for (qi, hist, ann) in mset:
            if ann is None:
                if li == 0:
                    for vj in succs[0][qi]:
                        out.add((vj, (), ctx.update(0, ctx.entry(0, qi), qi, vj)))
                continue
            j = len(hist)
            if li == j:
                for vj in succs[li][qi]:
                    out.add((vj, hist, ctx.update(li, ann, qi, vj)))
            elif li == j + 1 and li < m:
                for vj in succs[li][qi]:
                    out.add(
                        (
                            vj,
                            hist + (ann,),
                            ctx.update(li, ctx.entry(li, qi), qi, vj),
                        )
                    )
        return frozenset(out)

    states, edges = explore(
        [frozenset([(wa.index(start), (), None)])],
        lambda mset: ((li, tgt) for li in range(m) if (tgt := step(mset, li))),
        cap,
    )
    trans = {(i, li): j for i, li, j in edges}
    finals_idx = {wa.index(f) for f in wa.finals}
    sigsets = []
    for mset in states:
        sigs = frozenset(
            hist + (ann,)
            for (qi, hist, ann) in mset
            if qi in finals_idx and ann is not None and len(hist) == m - 1
        )
        sigsets.append(sigs)
    return MonitorDfa(tuple(states), trans, tuple(sigsets))


# ---------------------------------------------------------------------------
# detectors, Parikh decomposition


def realized_candidates(analysis: PlusAnalysis):
    """Realized (X, D-set) pairs: X ranges over maximal signatures of the
    first state wherever the product can accept with that exact pair."""
    out = {}
    for pi, (d1, d2) in enumerate(analysis.dsets):
        if not d1:
            continue
        for x in d1:
            out.setdefault((x, d2), set()).add(pi)
    return out


def detector_nfa(analysis: PlusAnalysis, x_sig, y_sigs) -> Nfa:
    """Product-monitor NFA accepting exactly the block words whose first
    state realizes signature X maximally and whose second state's maximal
    signature set is exactly Y."""
    y_key = tuple(sorted(y_sigs))
    finals = frozenset(
        f"d{pi}"
        for pi, (d1, d2) in enumerate(analysis.dsets)
        if x_sig in d1 and tuple(sorted(d2)) == y_key
    )
    letters = analysis.query.letters
    trans = frozenset(
        (f"d{i}", letters[li], f"d{j}")
        for (i, li), j in analysis.product_trans.items()
    )
    return Nfa(
        tuple(f"d{i}" for i in range(len(analysis.product_states))),
        letters,
        trans,
        "d0",
        finals,
    )


def parikh_linear_sets(n: Nfa, letters) -> list:
    """Parikh image of a language inside a1+...am+ (distinct letters) as a
    finite union of linear sets with per-coordinate unit-multiple periods.

    Per block, the subset walk from the entry set is a stem-plus-loop; each
    designated crossing state (or acceptance, for the last block) pins the
    block count to a stem position or a loop progression, and blocks are
    independent once the crossing state is fixed.
    """
    letters = tuple(letters)
    m = len(letters)
    if len(set(letters)) != m:
        raise InputError("block letters must be distinct")
    results: list = []

    def positions(subsets, loop_start, pred, min_steps: int):
        """Arithmetic progressions of step counts k >= min_steps with
        pred(subsets[k]); loop hits recur with the loop period."""
        period = len(subsets) - loop_start
        progs = []
        for k in range(len(subsets)):
            if k < min_steps or not pred(subsets[k]):
                continue
            if k < loop_start:
                progs.append((k, 0))
            else:
                progs.append((k, period))
        return progs

    def crossers(subset, li):
        return sorted(
            q for q in subset if any(
                (q, letters[li + 1], q2) in n.transitions for q2 in n.states
            )
        )

    def go(li: int, entry: frozenset, base, periods):
        if len(results) > LINEAR_SET_CAP:
            raise ResourceError("linear-set decomposition exceeded the cap")
        subsets, loop_start = lasso(entry, lambda sub: n.step(sub, letters[li]))
        min_steps = 1 if li == 0 else 0
        offset = 0 if li == 0 else 1
        if li == m - 1:
            for (k, r) in positions(
                subsets, loop_start, lambda sub: bool(sub & n.finals), min_steps
            ):
                results.append(
                    LinearSet(base + (offset + k,), periods + (r,))
                )
            return
        cands = set()
        for sub in subsets:
            cands.update(crossers(sub, li))
        for u in sorted(cands):
            for (k, r) in positions(
                subsets, loop_start, lambda sub: u in sub, min_steps
            ):
                entry2 = n.step(frozenset([u]), letters[li + 1])
                if entry2:
                    go(li + 1, entry2, base + (offset + k,), periods + (r,))

    start = frozenset([n.start])
    go(0, start, (), ())
    # deterministic order, duplicates removed
    uniq = sorted(set((ls.base, ls.periods) for ls in results))
    return [LinearSet(b, p) for (b, p) in uniq]


# ---------------------------------------------------------------------------
# formula emission and the decision procedure


def emit_formula(
    analysis: PlusAnalysis, x_sig, y_sigs, lin: LinearSet, u_set
) -> RealExpFormula:
    """The divergence sentence for one candidate: over the unbounded
    coordinates U of the linear set, every compared signature's growth
    against X must sink below every bound.

    Rows with a zero radius anywhere are filtered out (they contribute no
    weight); realized signatures always carry positive radii, so the filter
    is a formality here.
    """
    table = analysis.table.radii
    for (ri, k) in x_sig:
        if ri == analysis.zero_idx:
            raise InputError("X has a zero-radius block: no witnessing path exists")
    u_list = sorted(u_set)
    for i in u_list:
        if lin.periods[i] <= 0:
            raise InputError("U must pick coordinates with positive periods")
    rows = []
    for y in sorted(y_sigs):
        if any(ri == analysis.zero_idx for (ri, k) in y):
            continue  # outside h_Y: contributes no weight
        coeffs = []
        logs = []
        for i in u_list:
            sigma = table[y[i][0]]
            rho = table[x_sig[i][0]]
            coeffs.append(LogCoeff(sigma, rho, Fraction(lin.periods[i])))
            logs.append(y[i][1] - x_sig[i][1])
        rows.append(DivergenceRow(tuple(coeffs), tuple(logs)))
    lower = Fraction(max(lin.base)) if lin.base else Fraction(0)
    lower = max(lower, Fraction(1))
    system = DivergenceSystem(tuple(rows), lower, len(u_list))
    provenance = {
        "X": _sig_text(analysis, x_sig),
        "Y": "{" + ", ".join(_sig_text(analysis, y) for y in sorted(y_sigs)) + "}",
        "linear_set": f"base={list(lin.base)} periods={list(lin.periods)}",
        "U": [i + 1 for i in u_list],
    }
    return RealExpFormula(system, provenance)


def _sig_text(analysis: PlusAnalysis, sig) -> str:
    parts = []
    for (ri, k) in sig:
        r = analysis.table.radii[ri]
        if ri == analysis.delta_idx:
            parts.append(f"(delta,{k})")
        elif r.is_rational:
            parts.append(f"({r.lo},{k})")
        else:
            parts.append(f"(alg{list(r.poly)},{k})")
    return "(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class Candidate:
    x_sig: tuple
    y_sigs: tuple
    lin: LinearSet
    u_set: tuple
    formula: RealExpFormula
    decision: SemiDecision


@dataclass(frozen=True)
class PlusVerdict:
    verdict: str  # is-big-o | not-big-o | unknown
    holding: Optional[Candidate] = None
    unknowns: tuple = ()
    candidates: tuple = ()  # every decided Candidate, in decision order


def decide_plus(pq: PlusQuery, start_bits: Optional[int] = None) -> PlusVerdict:
    """Semi-decide all realized candidates of one plus-bounded sub-question.

    Candidate order is deterministic; any certified divergence wins, then
    any unknown, and boundedness needs every candidate refuted.
    """
    analysis = plus_analysis(pq)
    letters = analysis.query.letters
    formulas = []
    for (x_sig, y_sigs) in sorted(realized_candidates(analysis)):
        det = detector_nfa(analysis, x_sig, y_sigs)
        for lin in parikh_linear_sets(det, letters):
            pos = [i for i in range(len(letters)) if lin.periods[i] > 0]
            for mask in range(2 ** len(pos)):
                u_set = tuple(pos[i] for i in range(len(pos)) if mask >> i & 1)
                formula = emit_formula(analysis, x_sig, y_sigs, lin, u_set)
                formulas.append((x_sig, y_sigs, lin, u_set, formula))
    decided = tuple(
        Candidate(x_sig, y_sigs, lin, u_set, f, semi_decide(f, start_bits=start_bits))
        for (x_sig, y_sigs, lin, u_set, f) in formulas
    )
    unknowns = tuple(c for c in decided if c.decision.verdict == UNKNOWN)
    for cand in decided:
        if cand.decision.verdict == HOLDS:
            return PlusVerdict("not-big-o", cand, unknowns, decided)
    if unknowns:
        return PlusVerdict("unknown", None, unknowns, decided)
    return PlusVerdict("is-big-o", None, (), decided)


@dataclass(frozen=True)
class BoundedResult:
    verdict: str  # is-big-o | not-big-o | unknown
    mode: str
    lc_counterexample: Optional[str] = None
    witness: Optional[dict] = None
    unknown_formulas: tuple = ()
    subqueries: int = 0


def decide_bounded(
    q: Query,
    words=None,
    letters=None,
    start_bits: Optional[int] = None,
) -> BoundedResult:
    """Decide a query with bounded languages.

    Bounding words (for general bounds) are caller-supplied; letter bounds
    are auto-detected from the second state when neither is given.  Supplied
    words or letters must bound the language from the first state
    (InputError otherwise).  The
    containment check runs first on the original automaton; each starred
    subsequence of the letter bound becomes an independent plus-bounded
    sub-question and the verdicts merge with divergence dominating, then
    unknown, then boundedness.
    """
    start_bits = checked_start_bits(start_bits)
    lc = lc_check(q)
    if not lc:
        return BoundedResult(
            "not-big-o", "bounded", lc_counterexample=lc.counterexample
        )
    wa, s, sp = q.automaton, q.s, q.s_prime
    base_words = None
    if words is not None:
        base_words = [str(w) for w in words]
        _check_bound(wa, s, check_bounding_words(wa, base_words))
        lb = bounded_to_letter_bounded(wa, s, sp, base_words)
        wa, letters = lb.automaton, lb.letters
    elif letters is not None:
        _check_bound(wa, s, [(a,) for a in letters])
    else:
        letters = detect_letter_bounded(wa, sp)
        if letters is None:
            raise InputError(
                "languages are not letter-bounded; supply bounding words"
            )
    letters = tuple(letters)
    if not letters:
        # only the empty word can be accepted; containment already holds
        return BoundedResult("is-big-o", "bounded", subqueries=0)
    subqueries = letter_bounded_to_plus(wa, s, sp, letters)
    unknowns: list = []
    holding = None
    holding_pq = None
    for pq in subqueries:
        pv = decide_plus(pq, start_bits=start_bits)
        if pv.verdict == "not-big-o":
            holding = pv.holding
            holding_pq = pq
            break
        unknowns.extend(pv.unknowns)
    if holding is not None:
        witness = _divergence_witness(holding_pq, holding, base_words)
        if witness is not None:
            return BoundedResult(
                "not-big-o", "bounded", witness=witness, subqueries=len(subqueries)
            )
        # no exactly increasing ratio run: the divergence stays uncertified
        unknowns.append(holding)
    if unknowns:
        return BoundedResult(
            "unknown",
            "bounded",
            unknown_formulas=tuple(c.formula for c in unknowns),
            subqueries=len(subqueries),
        )
    return BoundedResult("is-big-o", "bounded", subqueries=len(subqueries))


def _divergence_witness(pq: PlusQuery, cand: Candidate, base_words) -> Optional[dict]:
    """Integer-grid witness: block vectors along the certified ray with
    exactly evaluated, strictly increasing weight ratios, or None when the
    exact ratios show no strictly increasing run."""
    ray = cand.decision.ray or ()
    lin = cand.lin
    m = len(lin.base)
    u_list = list(cand.u_set)
    dmax = max(ray) if ray else Fraction(1)
    scaled = [Fraction(r) / dmax if dmax else Fraction(0) for r in ray]
    den = lcm_den(scaled)
    dint = [int(r * den) for r in scaled]
    ratios = []
    vectors = []
    t = max(1, int(cand.formula.system.lower))
    attempts = 0
    while len(_increasing_run(ratios)) < 3 and attempts < 40:
        lam = [0] * m
        for pos, i in enumerate(u_list):
            lam[i] = 1 + t * dint[pos]
        vec = lin.member(lam)
        blocks = list(zip(pq.letters, vec))
        ws = weight_blocks(pq.automaton, pq.s, blocks)
        wp = weight_blocks(pq.automaton, pq.s_prime, blocks)
        if wp > 0:
            ratios.append(ws / wp)
            vectors.append(vec)
        t *= 2
        attempts += 1
    run = _increasing_run(ratios)
    if not run:
        return None
    witness = {
        "provenance": cand.formula.provenance,
        "ray": [str(r) for r in ray],
        "block_letters": list(pq.source_letters),
        "vectors": [list(v) for v in vectors],
        "ratios": [str(r) for r in ratios],
        "increasing_run": [str(ratios[i]) for i in run],
    }
    if base_words is not None:
        witness["bounding_words"] = list(base_words)
    return witness


def _increasing_run(ratios):
    """Indices of the last run of >= 3 strictly increasing entries, if any."""
    if len(ratios) < 3:
        return []
    for start in range(len(ratios) - 3, -1, -1):
        i, j, k = start, start + 1, start + 2
        if ratios[i] < ratios[j] < ratios[k]:
            return [i, j, k]
    return []


# ---------------------------------------------------------------------------
# finitely ambiguous comparison from supplied growth tuples


@dataclass(frozen=True)
class ExpSumDecision:
    verdict: str
    tuple_index: Optional[int] = None
    direction: Optional[tuple] = None
    witnesses: tuple = ()
    detail: Optional[str] = None


def finitely_ambiguous_formula(deltas) -> list:
    """One divergence sentence per DeltaTuple and numerator row.

    The ratio sum_j p_j q_j^x / sum_l r_l s_l^x is unbounded on x >= 0
    exactly when, for some row j, every form <ln(s_l/q_j), x> goes below
    every bound at once.  The sentence for (tuple, j) has one row per
    denominator row l, coefficients ln(s_l[i]/q_j[i]) and no log terms; a
    shift of x moves a linear form by a constant only, so it ranges over
    [2, inf) like every sentence of the bounded decider.  The comparison
    is negative exactly when some sentence holds.
    """
    rat = AlgebraicNumber.from_rational
    formulas = []
    for idx, d in enumerate(deltas):
        for j, qrow in enumerate(d.q_rows):
            rows = tuple(
                DivergenceRow(
                    tuple(LogCoeff(rat(s), rat(q), Fraction(1)) for s, q in zip(srow, qrow)),
                    (0,) * d.dim,
                )
                for srow in d.s_rows
            )
            system = DivergenceSystem(rows, Fraction(2), d.dim)
            formulas.append(RealExpFormula(system, {"tuple": idx, "numerator_row": j}))
    return formulas


def decide_finitely_ambiguous(
    deltas, start_bits: Optional[int] = None
) -> ExpSumDecision:
    """Three-valued check over all supplied tuples: `semi_decide` on each
    sentence of `finitely_ambiguous_formula`.  A holding sentence becomes
    `not-big-o` only once the exact ratio at integer points along its
    certified ray passes 10, 100 and 1000; otherwise it is `unknown`.
    `is-big-o` needs every sentence to fail."""
    start_bits = checked_start_bits(start_bits)
    deltas = [d if isinstance(d, DeltaTuple) else DeltaTuple(*d) for d in deltas]
    first_unknown = None
    for f in finitely_ambiguous_formula(deltas):
        idx = f.provenance["tuple"]
        res = semi_decide(f, start_bits=start_bits)
        detail = res.detail
        if res.verdict == HOLDS:
            witnesses = _ratio_witnesses(deltas[idx], res.ray)
            if witnesses is not None:
                return ExpSumDecision("not-big-o", idx, res.ray, witnesses)
            detail = "exact ratios along the ray did not pass 10, 100 and 1000"
        if res.verdict != FAILS and first_unknown is None:
            row = f.provenance["numerator_row"]
            first_unknown = ExpSumDecision(
                "unknown", idx, detail=f"numerator row {row}: {detail}"
            )
    return first_unknown or ExpSumDecision("is-big-o", detail="all tuples refuted")


def _ratio_at(d: DeltaTuple, x) -> Fraction:
    num = sum(
        Fraction(p) * _powprod(qrow, x) for p, qrow in zip(d.p, d.q_rows)
    )
    den = sum(
        Fraction(r) * _powprod(srow, x) for r, srow in zip(d.r, d.s_rows)
    )
    return num / den


def _powprod(row, x) -> Fraction:
    out = Fraction(1)
    for base, e in zip(row, x):
        out *= Fraction(base) ** e
    return out


def _ratio_witnesses(d: DeltaTuple, ray) -> Optional[tuple]:
    """The integer points t * ray (t = 1, 2, 4, ...) where the exact ratio
    first passes 10, 100 and 1000, with the ratios, or None."""
    den = lcm_den(ray)
    dint = [int(r * den) for r in ray]
    thresholds = [Fraction(10), Fraction(100), Fraction(1000)]
    witnesses = []
    t = 1
    while thresholds and t * max(dint) <= 10**7:
        x = tuple(t * di for di in dint)
        ratio = _ratio_at(d, x)
        while thresholds and ratio > thresholds[0]:
            witnesses.append((x, str(ratio)))
            thresholds.pop(0)
        t *= 2
    return None if thresholds else tuple(witnesses)
