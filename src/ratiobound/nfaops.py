"""Boolean-automata algorithms: language containment, letter-bound
detection, bounding-word checks and eventual inclusion of unary languages."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

from .automata import (
    InputError,
    Nfa,
    Query,
    WeightedAutomaton,
    explore,
    nfa_of,
    path_to,
    strong_components,
    trim,
)


@dataclass(frozen=True)
class LcResult:
    holds: bool
    counterexample: Optional[str] = None

    def __bool__(self):
        return self.holds


def nfa_contained(n1: Nfa, n2: Nfa) -> LcResult:
    """L(n1) <= L(n2), with a shortest counterexample word on failure.

    On-the-fly subset construction with antichain pruning: a pair (q, S) is
    subsumed by a visited (q, S') with S' <= S, because smaller right-hand
    subsets reach a violation at least as easily.  An escaping pair is never
    subsumed, since the pair subsuming it would have escaped first, so the
    search stops on it.
    """
    def escapes(pair):  # accepted by n1 and rejected by n2
        return pair[0] in n1.finals and not (pair[1] & n2.finals)

    start = (n1.start, frozenset([n2.start]))
    if escapes(start):
        return LcResult(False, "")
    alphabet = tuple(dict.fromkeys(n1.alphabet + n2.alphabet))
    seen: dict = {n1.start: [start[1]]}  # state -> antichain of subsets

    def succ(pair):
        state, subset = pair
        for a in alphabet:
            succs = n1.step(frozenset([state]), a)
            tgt = n2.step(subset, a)
            for q2 in sorted(succs):
                prev = seen.get(q2, ())
                if not any(p <= tgt for p in prev):
                    seen[q2] = [p for p in prev if not tgt < p] + [tgt]
                    yield a, (q2, tgt)

    pairs, edges = explore([start], succ, stop=escapes)
    if escapes(pairs[-1]):
        return LcResult(False, "".join(path_to(edges, len(pairs) - 1)))
    return LcResult(True)


def lc_check(q: Query) -> LcResult:
    """Language containment L_s <= L_s' over positive-weight supports; this
    is necessary for every boundedness verdict and is checked first by all
    deciders.  BFS returns a shortest counterexample word."""
    wa = q.automaton
    return nfa_contained(nfa_of(wa, q.s), nfa_of(wa, q.s_prime))


def detect_letter_bounded(wa: WeightedAutomaton, s: str):
    """A letter sequence whose starred blocks cover L_s, or None.

    Structure: in the trimmed support NFA every cycle must be single-letter.
    Each live transition is classified once, as its component's loop letter
    or as a letter entering another component along a DAG edge.  The
    sequence interleaves entering and loop letters in topological order of
    the SCC DAG, then the containment is verified directly, by
    `_in_letter_bound` over successor lists built once.
    """
    n = nfa_of(wa, s)
    live = trim({n.start}, n.finals, n.transitions)
    if not live or not (live & n.finals):
        return ()
    order = sorted(live)
    idx = {q: i for i, q in enumerate(order)}
    steps: dict = {q: [] for q in order}
    for p, a, q2 in sorted(n.transitions):
        if p in live and q2 in live:
            steps[p].append((a, q2))
    comps, scc_of = strong_components([[idx[q2] for _, q2 in steps[q]] for q in order])
    loop: list = [None] * len(comps)  # the letter of a component's cycles
    incoming: list = [set() for _ in comps]  # letters entering a component
    after: list = [set() for _ in comps]  # DAG successors
    for p, pairs in steps.items():
        cp = scc_of[idx[p]]
        for a, q2 in pairs:
            cq = scc_of[idx[q2]]
            if cp != cq:
                incoming[cq].add(a)
                after[cp].add(cq)
            elif loop[cp] in (None, a):
                loop[cp] = a
            else:
                return None
    indeg = [0] * len(comps)
    for succs in after:
        for c in succs:
            indeg[c] += 1
    ready = [c for c in range(len(comps)) if not indeg[c]]
    seq: list = []
    last = None
    while ready:
        # continue the current letter so parallel same-letter branches share
        # blocks
        c = min(ready, key=lambda c: (loop[c] != last, str(loop[c]), c))
        ready.remove(c)
        seq += sorted(incoming[c])
        if loop[c] is not None:
            seq.append(loop[c])
            last = loop[c]
        for c2 in after[c]:
            indeg[c2] -= 1
            if not indeg[c2]:
                ready.append(c2)
    collapsed = _collapse(seq)
    finals = live & n.finals
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
                if w.startswith(a, i):
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


@dataclass(frozen=True)
class EventualInclusion:
    included: bool
    witness_length: Optional[int] = None  # within [m, 2m] of the pair machine
    smallest_witness: Optional[int] = None
    period: Optional[int] = None

    def __bool__(self):
        return self.included


def eventually_included(n1: Nfa, n2: Nfa) -> EventualInclusion:
    """Is L(n1) \\ L(n2) finite, for unary NFAs?

    Deterministic pair-subset walk into a loop.  On an infinite difference,
    the reported witness length n lies within [m, 2m] for the reachable
    product difference machine of size m, and is re-checked by running both
    NFAs on it.
    """
    if not n1.is_unary() or not n2.is_unary():
        raise InputError("eventual inclusion is defined for unary NFAs")
    a1, a2 = n1.alphabet[0], n2.alphabet[0]
    # one successor per pair: the last edge closes the loop
    pairs, edges = explore(
        [(frozenset([n1.start]), frozenset([n2.start]))],
        lambda pair: [(None, (n1.step(pair[0], a1), n2.step(pair[1], a2)))],
    )
    loop_start = edges[-1][2]
    period = len(pairs) - loop_start
    diff = [
        bool(s1 & n1.finals) and not (s2 & n2.finals) for s1, s2 in pairs
    ]
    loop_diffs = [i for i in range(loop_start, len(pairs)) if diff[i]]
    if not loop_diffs:
        return EventualInclusion(True)
    smallest = loop_diffs[0]
    m = len(pairs)
    witness = m + ((smallest - m) % period)
    assert m <= witness <= 2 * m
    assert n1.accepts([a1] * witness) and not n2.accepts([a2] * witness)
    return EventualInclusion(False, witness, smallest, period)


@dataclass(frozen=True)
class ChrobakNf:
    """Unary NFA in stem-plus-disjoint-cycles shape.

    stem[i] is the accepting flag for the word of length i (stem covers
    lengths 0..len(stem)-1); each cycle is (length, accepting offsets) and
    covers lengths n >= len(stem) at offset (n - len(stem)) mod length.
    """

    stem: tuple
    cycles: tuple  # of (int, frozenset)

    def __post_init__(self):
        if len(self.stem) < 1:
            raise InputError("Chrobak stem must be non-empty")
        for length, offsets in self.cycles:
            if length < 1:
                raise InputError("Chrobak cycle length must be >= 1")
            if any(o < 0 or o >= length for o in offsets):
                raise InputError("accepting offset outside cycle")

    def accepts(self, n: int) -> bool:
        if n < len(self.stem):
            return self.stem[n]
        return any(
            (n - len(self.stem)) % length in offsets
            for length, offsets in self.cycles
        )
