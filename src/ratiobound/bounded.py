"""Decider for queries whose languages are bounded: reductions down to the
plus-letter-bounded core, per-block growth-signature detectors, Parikh
decompositions into linear sets, and emission/semi-decision of divergence
sentences over the reals with logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .algebraic import AlgebraicNumber
from .automata import (
    InputError,
    Nfa,
    Query,
    ResourceError,
    Verdict,
    WeightedAutomaton,
    _step,
    explore,
    trim,
    weight_blocks,
)
from .nfaops import (
    _check_bound,
    _collapse,
    check_bounding_words,
    detect_letter_bounded,
    lc_check,
)
from .realexp import (
    FAILS,
    HOLDS,
    UNKNOWN,
    DivergenceRow,
    DivergenceSystem,
    LogCoeff,
    RealExpFormula,
    SemiDecision,
    semi_decide,
)
from .spectral import rank_radii, scc_decompose, step_signature

MONITOR_CAP = 20000
LINEAR_SET_CAP = 10000
# plus-patterns of a letter bound, 2^m - 1 for m letters
PLUS_PATTERN_CAP = 1023
# fixed slots of every plus-subquery's radius table
ZERO, DELTA = 0, 1


# ---------------------------------------------------------------------------
# public value types


@dataclass(frozen=True)
class LinearSet:
    """{ base + diag(periods) * lam : lam in N^m }, periods unit multiples."""

    base: tuple
    periods: tuple

    @property
    def unbounded(self) -> tuple:
        """U, the coordinates with a positive period: the ones a divergence
        sentence over this set ranges over."""
        return tuple(i for i, r in enumerate(self.periods) if r > 0)

    def member(self, lam) -> tuple:
        return tuple(b + r * l for b, r, l in zip(self.base, self.periods, lam))


# ---------------------------------------------------------------------------
# reductions


def bounded_to_letter_bounded(wa: WeightedAutomaton, words) -> WeightedAutomaton:
    """Substitute a fresh block letter a_i for each bounding word w_i, given
    as the tuple of symbols that `check_bounding_words` splits it into: a_i's
    matrix is M(w_i), the product of w_i's letter matrices, over the same
    states and finals, so a1^n1...am^nm weighs exactly what w1^n1...wm^nm
    weighs from every state.  The result's alphabet is a1..am."""
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
    return WeightedAutomaton(wa.states, out_letters, sparse, wa.finals)


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

    A word lies in p1+...pk+ (adjacent letters distinct) exactly when it
    collapses to (p1, ..., pk), so one search over (state, collapsed prefix)
    pairs from the two starts holds every pattern's product: the pairs whose
    prefix begins the pattern, since a prefix only grows along a path.  Each
    sub-question is a slice of that search (`_plus_subquery`).  Each
    distinct letter's components and radii are computed once here and shared
    by every sub-question that reads the letter.  More than
    PLUS_PATTERN_CAP patterns raise ResourceError."""
    letters = tuple(letters)
    if 2 ** len(letters) - 1 > PLUS_PATTERN_CAP:
        raise ResourceError(
            f"{len(letters)} bound letters give {2 ** len(letters) - 1} plus-patterns, "
            f"over cap={PLUS_PATTERN_CAP}"
        )
    patterns = {}
    for mask in range(1, 2 ** len(letters)):
        sub = [letters[i] for i in range(len(letters)) if mask >> i & 1]
        patterns.setdefault(_collapse(sub), None)
    steps = [(a, wa.sparse_rows[a][1]) for a in dict.fromkeys(letters)]

    def succ(node):
        qi, pre = node
        for a, rows in steps:
            nxt = pre if pre and pre[-1] == a else pre + (a,)
            # `patterns` is closed under nonempty prefixes, so the search
            # ends even where a state steps outside the bound
            if nxt in patterns:
                for qj, x in rows[qi]:
                    yield x, (qj, nxt)

    nodes, edges = explore([(wa.index(s), ()), (wa.index(s_prime), ())], succ)
    into, ends = {}, {}  # prefix -> the edges into its pairs; its final pairs
    for e in edges:
        into.setdefault(nodes[e[2]][1], []).append(e)
    finals = {wa.index(f) for f in wa.finals}
    for i, (qi, pre) in enumerate(nodes):
        if pre and qi in finals:
            ends.setdefault(pre, []).append(i)
    dags = {a: scc_decompose(wa.sparse_rows[a]) for a in dict.fromkeys(letters)}
    # a component's radius is positive exactly when it has a cycle (period > 0)
    positive = [
        (a, c) for a, dag in dags.items() for c, info in enumerate(dag.sccs) if info.period
    ]
    _, ranks = rank_radii([dags[a].sccs[c].radius for a, c in positive])
    rank_of = dict(zip(positive, ranks))
    growth = {
        a: LetterGrowth(
            dag.scc_of,
            tuple(info.radius for info in dag.sccs),
            tuple(rank_of.get((a, c)) for c in range(len(dag.sccs))),
        )
        for a, dag in dags.items()
    }
    return [
        _plus_subquery(wa, s, s_prime, pat, growth, (nodes, into, ends))
        for pat in sorted(patterns)
    ]


def _plus_subquery(wa, s, s_prime, pat, growth, search) -> PlusQuery:
    """The product with the plus-bound DFA for `pat`, sliced from the
    `search` over (state, collapsed prefix) pairs: its numbered pairs, the
    edges into each prefix's pairs and each prefix's final pairs.  The
    slice is the edges into pairs whose prefix begins `pat`, trimmed to the
    pairs on a path from a start to a final pair of `pat` and renamed
    `q@d`, d = len(prefix) the number of blocks entered.  With no final
    pair nothing is sliced: the sub-question is the two starts alone.

    Adjacent letters of `pat` differ, so a pair fixes its block: a step into
    block d reads `pat[d - 1]` and is relabelled with the fresh `b{d}`."""
    k = len(pat)
    nodes, into, ends = search
    finals = ends.get(pat, ())
    starts = sorted({(wa.index(s), 0), (wa.index(s_prime), 0)})
    edges, live = [], set()
    if finals:
        edges = [e for d in range(1, k + 1) for e in into[pat[:d]]]
        live = trim(range(len(starts)), finals, edges)
    level = {i: (nodes[i][0], len(nodes[i][1])) for i in live}
    keep = sorted(set(level.values()).union(starts))
    index = {node: i for i, node in enumerate(keep)}
    # the search lists each source's steps into one block by ascending target
    rows = [[[] for _ in keep] for _ in pat]
    for i, x, j in edges:
        if i in live and j in live:
            rows[level[j][1] - 1][index[level[i]]].append((index[level[j]], x))
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
    (radius 0 in slot ZERO, the infinitesimal placeholder in slot DELTA),
    per-block SCC structure, the two determinized signature monitors and
    their synchronized product.  The coefficients and signature texts of
    its candidates' sentences are built once each, on first use."""

    query: PlusQuery
    table: tuple  # of AlgebraicNumber, strictly ascending
    blocks: tuple
    det_s: "MonitorDfa"
    det_p: "MonitorDfa"
    product_states: tuple  # of (i, j) pairs
    product_trans: dict  # (state index, letter index) -> state index
    dsets: tuple  # per product state: (D_s tuple, D_p tuple) of signatures
    _coeffs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _sig_texts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def coeff(self, yi: int, xi: int, period: int) -> LogCoeff:
        """period * log(table[yi] / table[xi]), one object per key."""
        key = (yi, xi, period)
        co = self._coeffs.get(key)
        if co is None:
            co = LogCoeff(self.table[yi], self.table[xi], Fraction(period))
            self._coeffs[key] = co
        return co

    def sig_text(self, sig) -> str:
        """A signature as provenance text, rendered once per signature."""
        text = self._sig_texts.get(sig)
        if text is None:
            parts = []
            for (ri, k) in sig:
                r = self.table[ri]
                if ri == DELTA:
                    parts.append(f"(delta,{k})")
                elif r.is_rational:
                    parts.append(f"({r.lo},{k})")
                else:
                    parts.append(f"(alg{list(r.poly)},{k})")
            text = self._sig_texts[sig] = "(" + " ".join(parts) + ")"
        return text


@dataclass(frozen=True)
class MonitorDfa:
    states: tuple  # of frozensets of monitor triples
    trans: dict  # (state index, letter index) -> state index
    sigsets: tuple  # per state: frozenset of complete signatures


def _maximal(signatures):
    """The signatures that no other one bounds coordinate-wise, sorted."""
    sigs = sorted(signatures)
    return tuple(
        v
        for v in sigs
        if not any(w != v and all(a <= b for a, b in zip(v, w)) for w in sigs)
    )


def plus_analysis(pq: PlusQuery) -> PlusAnalysis:
    """Radius table, block structure, monitors and their product.

    Block d's components are read off its source letter's: a state `q@d`
    with a step inside level d lies in q's letter component, whose members
    are live together at level d because each reaches all the others inside
    block d, so the component, its radius and its period carry over.  Every
    other state is a component of its own with radius 0.  The table is
    (0, delta, the positive radii met, ascending), delta half the smallest
    of them (1/2 when there are none); each radius keeps the form it is
    first met in, in block order.  MONITOR_CAP bounds each monitor and
    their product (ResourceError past it)."""
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
    table = (zero, delta, *(first[r] for r in ranks))
    at = {r: i for i, r in enumerate(ranks, 2)}
    at[None] = ZERO
    blocks = tuple(
        BlockInfo(
            tuple(~i if c is None else c for i, c in enumerate(comp)),
            tuple(ZERO if c is None else at[g.ranks[c]] for c in comp),
        )
        for comp, g in zip(comps, pq.growth)
    )
    det_s = _determinize_monitor(pq, blocks, pq.s)
    det_p = _determinize_monitor(pq, blocks, pq.s_prime)
    # synchronized product over the block letters
    def psucc(pair):
        for li in range(m):
            ti = det_s.trans.get((pair[0], li))
            tj = det_p.trans.get((pair[1], li))
            if ti is not None and tj is not None:
                yield li, (ti, tj)

    pstates, pedges = explore([(0, 0)], psucc, MONITOR_CAP)
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
        blocks,
        det_s,
        det_p,
        tuple(pstates),
        ptrans,
        tuple(dsets),
    )


def _entry(b: BlockInfo, qi: int):
    """The annotation on entering a block at state qi: its radius, or DELTA
    where it is 0.  Steps keep it off ZERO: ZERO < DELTA, and a zero-radius
    state is alone in its component."""
    ri = b.rad_of_state[qi]
    return (DELTA if ri == ZERO else ri, 0)


def _determinize_monitor(pq: PlusQuery, blocks, start: str) -> MonitorDfa:
    """Subset construction over (state, finished block signatures, current
    signature) triples.  The start is seeded as entering block 1: it sits at
    level 0, so it steps on block 1 only and is never final."""
    wa = pq.automaton
    m = len(pq.letters)
    succs = [
        [[vj for vj, _ in row] for row in wa.sparse_rows[a][1]] for a in pq.letters
    ]

    def step(mset, li):
        out = set()
        for (qi, hist, ann) in mset:
            if li == len(hist) + 1:
                hist, ann = hist + (ann,), _entry(blocks[li], qi)
            elif li != len(hist):
                continue
            b = blocks[li]
            for vj in succs[li][qi]:
                same = b.scc_of[qi] == b.scc_of[vj]
                out.add((vj, hist, step_signature(ann, same, b.rad_of_state[vj])))
        return frozenset(out)

    si = wa.index(start)
    states, edges = explore(
        [frozenset([(si, (), _entry(blocks[0], si))])],
        lambda mset: ((li, tgt) for li in range(m) if (tgt := step(mset, li))),
        MONITOR_CAP,
    )
    trans = {(i, li): j for i, li, j in edges}
    finals_idx = {wa.index(f) for f in wa.finals}
    sigsets = []
    for mset in states:
        sigs = frozenset(
            hist + (ann,)
            for (qi, hist, ann) in mset
            if qi in finals_idx and len(hist) == m - 1
        )
        sigsets.append(sigs)
    return MonitorDfa(tuple(states), trans, tuple(sigsets))


# ---------------------------------------------------------------------------
# detectors, Parikh decomposition


def realized_candidates(analysis: PlusAnalysis) -> dict:
    """Realized (X, D-set) pairs, each with the product states that accept
    it: X ranges over maximal signatures of the first state wherever the
    product can accept with that exact pair."""
    out = {}
    for pi, (d1, d2) in enumerate(analysis.dsets):
        for x in d1:
            out.setdefault((x, d2), set()).add(pi)
    return out


def detector_nfa(analysis: PlusAnalysis, finals) -> Nfa:
    """The product of the two monitors, a DFA over the block letters whose
    states are the product's indices, accepting at `finals` (one entry of
    `realized_candidates`): the block words whose first state realizes X
    maximally and whose second state's maximal signature set is exactly
    Y."""
    letters = analysis.query.letters
    trans = frozenset((i, letters[li], j) for (i, li), j in analysis.product_trans.items())
    return Nfa(tuple(range(len(analysis.product_states))), letters, trans, 0, frozenset(finals))


def parikh_linear_sets(n: Nfa, letters) -> list:
    """Parikh image of a deterministic automaton's language inside
    a1+...am+ (distinct letters) as a finite union of linear sets with
    per-coordinate unit-multiple periods.

    Per block, the walk from the entry state is a stem-plus-loop; each
    position that steps on the next block's letter (or accepts, in the last
    block) pins the block count to a stem position or a loop progression,
    and the rest of the word depends only on the state it steps into.
    """
    letters = tuple(letters)
    m = len(letters)
    if len(set(letters)) != m:
        raise InputError("block letters must be distinct")
    delta: dict = {}
    for q, a, q2 in n.transitions:
        if delta.setdefault((q, a), q2) != q2:
            raise InputError("the Parikh walk needs a deterministic automaton")
    results: set = set()

    def go(li: int, entry, base, periods):
        if len(results) > LINEAR_SET_CAP:
            raise ResourceError("linear-set decomposition exceeded the cap")
        # one successor per state, a missing step leading to None, which
        # steps to itself: the last edge closes the loop
        walk, edges = explore([entry], lambda q: [(None, delta.get((q, letters[li])))])
        loop_start = edges[-1][2]
        period = len(walk) - loop_start
        # block 1 counts the letters read from the start; a later block is
        # entered by reading one of its letters
        first = 1 if li == 0 else 0
        for k in range(first, len(walk)):
            count = base + (k + 1 - first,)
            per = periods + (0 if k < loop_start else period,)
            if li == m - 1:
                if walk[k] in n.finals:
                    results.add((count, per))
            elif (q2 := delta.get((walk[k], letters[li + 1]))) is not None:
                go(li + 1, q2, count, per)

    go(0, n.start, (), ())
    return [LinearSet(b, p) for (b, p) in sorted(results)]


# ---------------------------------------------------------------------------
# formula emission and the decision procedure


def emit_formula(analysis: PlusAnalysis, x_sig, y_sigs, lin: LinearSet) -> RealExpFormula:
    """The divergence sentence for one candidate: over the unbounded
    coordinates U of the linear set, every compared signature's growth
    against X must sink below every bound.  No signature holds ZERO: a
    monitor enters a zero-radius block at DELTA.  The sentence covers every
    sub-cone of U: its semi-decision searches every support inside U.
    """
    u_list = lin.unbounded
    y_sigs = sorted(y_sigs)
    rows = [
        DivergenceRow(
            tuple(analysis.coeff(y[i][0], x_sig[i][0], lin.periods[i]) for i in u_list),
            tuple(y[i][1] - x_sig[i][1] for i in u_list),
        )
        for y in y_sigs
    ]
    lower = Fraction(max(lin.base)) if lin.base else Fraction(0)
    lower = max(lower, Fraction(1))
    system = DivergenceSystem(tuple(rows), lower, len(u_list))
    provenance = {
        "X": analysis.sig_text(x_sig),
        "Y": "{" + ", ".join(analysis.sig_text(y) for y in y_sigs) + "}",
        "linear_set": f"base={list(lin.base)} periods={list(lin.periods)}",
        "U": [i + 1 for i in u_list],
    }
    return RealExpFormula(system, provenance)


@dataclass(frozen=True)
class Candidate:
    """One realized candidate with its semi-decision.  Its divergence
    sentence is emitted by `emit_formula` when `formula` is first read, so a
    candidate decided by its signatures alone builds none unless asked."""

    x_sig: tuple
    y_sigs: tuple
    lin: LinearSet
    decision: SemiDecision
    analysis: PlusAnalysis = field(repr=False, compare=False)
    _formula: Optional[RealExpFormula] = field(default=None, repr=False, compare=False)

    @property
    def formula(self) -> RealExpFormula:
        if self._formula is None:
            f = emit_formula(self.analysis, self.x_sig, self.y_sigs, self.lin)
            object.__setattr__(self, "_formula", f)
        return self._formula


def _signature_decision(x_sig, y_sigs, lin: LinearSet) -> Optional[SemiDecision]:
    """The `fails` that `semi_decide` would read off the candidate's
    sentence by exact signs, or None when that takes the sentence.

    Row j (the j-th Y in sorted order) has, at each i in U, coefficient
    period_i * log(table[y_i] / table[x_i]) and log exponent k(y_i) - k(x_i).
    Every period in U is positive and the radius table strictly ascending,
    so the coefficient's sign is that of the slot difference, and the row
    is bounded below exactly when y[i] >= x[i] as tuples at every i in U."""
    u_list = lin.unbounded
    if not u_list:
        return SemiDecision(FAILS, detail="no unbounded coordinates")
    for j, y in enumerate(sorted(y_sigs)):
        if all(y[i] >= x_sig[i] for i in u_list):
            return SemiDecision(FAILS, detail=f"row {j} is bounded below by exact signs")
    return None


def decide_plus(pq: PlusQuery) -> tuple:
    """Every realized candidate of one plus-bounded sub-question, one per
    (X, Y, linear set), decided in a deterministic order.  A `holds`
    candidate is a divergence, an `unknown` one leaves the sub-question
    open, and boundedness needs every candidate to fail.  A candidate with
    no unbounded coordinate, or whose X some Y bounds at every unbounded
    coordinate, is decided from its signatures (`_signature_decision`);
    every other one has its sentence emitted and semi-decided.

    When `s@0` has no step, no word of the pattern is read from `s`: there
    is no signature X and no candidate, so the analysis is skipped.  This
    covers every sub-question whose pattern no start reads."""
    wa = pq.automaton
    if not wa.sparse_rows[pq.letters[0]][1][wa.index(pq.s)]:
        return ()
    analysis = plus_analysis(pq)
    letters = pq.letters
    decided = []
    for (x_sig, y_sigs), finals in sorted(realized_candidates(analysis).items()):
        det = detector_nfa(analysis, finals)
        for lin in parikh_linear_sets(det, letters):
            decision = _signature_decision(x_sig, y_sigs, lin)
            f = None
            if decision is None:
                f = emit_formula(analysis, x_sig, y_sigs, lin)
                decision = semi_decide(f)
            decided.append(Candidate(x_sig, y_sigs, lin, decision, analysis, f))
    return tuple(decided)


def decide_bounded(q: Query, words=None) -> Verdict:
    """Decide a query with bounded languages.

    Bounding words (for general bounds) are caller-supplied and split into
    symbols once, first; without them a letter bound is detected from the
    second state, and bounds the first once containment holds.  Supplied
    words must bound the language from the first state (InputError
    otherwise).  The containment check runs first on the original
    automaton; each starred subsequence of the letter bound becomes an
    independent plus-bounded sub-question and the verdicts merge with
    divergence dominating, then unknown, then boundedness.
    """
    wa, s, sp = q.automaton, q.s, q.s_prime
    if words is not None:
        words = check_bounding_words(wa, words)
    lc = lc_check(q)
    if not lc:
        witness = {"type": "lc", "lcCounterexample": lc.counterexample}
        return Verdict("not-big-o", witness, subqueries=0)
    if words is not None:
        _check_bound(wa, s, words)
        wa = bounded_to_letter_bounded(wa, words)
        letters = wa.alphabet
    else:
        letters = detect_letter_bounded(wa, sp)
        if letters is None:
            raise InputError(
                "languages are not letter-bounded; supply bounding words"
            )
    letters = tuple(letters)
    if not letters:
        # only the empty word can be accepted; containment already holds
        return Verdict("is-big-o", subqueries=0)
    subqueries = letter_bounded_to_plus(wa, s, sp, letters)
    unknowns: list = []
    for pq in subqueries:
        decided = decide_plus(pq)
        holding = next((c for c in decided if c.decision.verdict == HOLDS), None)
        if holding is not None:
            witness = _divergence_witness(pq, holding, words)
            if witness is not None:
                return Verdict("not-big-o", witness, subqueries=len(subqueries))
            # no exactly increasing ratio run: the divergence stays uncertified
            unknowns.append(holding)
            break
        unknowns += [c for c in decided if c.decision.verdict == UNKNOWN]
    if unknowns:
        return Verdict(
            "unknown",
            subqueries=len(subqueries),
            unknown_formulas=tuple(c.formula for c in unknowns),
        )
    return Verdict("is-big-o", subqueries=len(subqueries))


def _divergence_witness(pq: PlusQuery, cand: Candidate, words) -> Optional[dict]:
    """Integer-grid witness: block vectors along the certified ray with
    exactly evaluated, strictly increasing weight ratios, or None when the
    exact ratios show no strictly increasing run.  `words` are the split
    bounding words, if any."""
    ray = cand.decision.ray or ()
    lin = cand.lin
    m = len(lin.base)
    u_list = lin.unbounded
    dmax = max(ray) if ray else Fraction(1)
    scaled = [Fraction(r) / dmax if dmax else Fraction(0) for r in ray]
    den = lcm(*(r.denominator for r in scaled))
    dint = [int(r * den) for r in scaled]
    ratios = []
    vectors = []
    t = max(1, int(cand.formula.system.lower))
    # a run of three strictly increasing ratios can first appear only at
    # the end, so the walk stops there
    for _ in range(40):
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
            if len(ratios) >= 3 and ratios[-3] < ratios[-2] < ratios[-1]:
                break
        t *= 2
    else:
        return None
    witness = {
        "provenance": cand.formula.provenance,
        "ray": [str(r) for r in ray],
        "block_letters": list(pq.source_letters),
        "vectors": [list(v) for v in vectors],
        "ratios": [str(r) for r in ratios],
        "increasing_run": [str(r) for r in ratios[-3:]],
    }
    if words is not None:
        witness["bounding_words"] = ["".join(w) for w in words]
    return witness
