"""Boolean-automata algorithms: language containment and eventual inclusion
of unary languages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import InputError, Nfa, Query, lasso, nfa_of


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
    subsets reach a violation at least as easily.
    """
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


def lc_check(q: Query) -> LcResult:
    """Language containment L_s <= L_s' over positive-weight supports; this
    is necessary for every boundedness verdict and is checked first by all
    deciders.  BFS returns a shortest counterexample word."""
    wa = q.automaton
    return nfa_contained(nfa_of(wa, q.s), nfa_of(wa, q.s_prime))


@dataclass(frozen=True)
class EventualInclusion:
    included: bool
    witness_length: Optional[int] = None  # within [m, 2m] of the pair machine
    smallest_witness: Optional[int] = None
    period: Optional[int] = None

    def __bool__(self):
        return self.included


def _bool_mat(n: Nfa):
    idx = {q: i for i, q in enumerate(n.states)}
    a = n.alphabet[0]
    m = [[False] * len(n.states) for _ in n.states]
    for (q, s, q2) in n.transitions:
        if s == a:
            m[idx[q]][idx[q2]] = True
    return idx, m


def _bool_mul(a, b):
    bt = list(zip(*b))
    return [
        [any(x and y for x, y in zip(row, col)) for col in bt] for row in a
    ]


def _accepts_length(n: Nfa, length: int) -> bool:
    """Membership of a^length via repeated squaring of the boolean matrix."""
    idx, m = _bool_mat(n)
    acc = [q in n.finals for q in n.states]
    if length == 0:
        return n.start in n.finals
    result = None
    base = m
    k = length
    while k:
        if k & 1:
            result = base if result is None else _bool_mul(result, base)
        k >>= 1
        if k:
            base = _bool_mul(base, base)
    i = idx[n.start]
    return any(result[i][j] and acc[j] for j in range(len(n.states)))


def eventually_included(n1: Nfa, n2: Nfa) -> EventualInclusion:
    """Is L(n1) \\ L(n2) finite, for unary NFAs?

    Deterministic pair-subset lasso.  On an infinite difference, the reported
    witness length n lies within [m, 2m] for the reachable product difference
    machine of size m, and is verified by boolean matrix exponentiation.
    """
    if not n1.is_unary() or not n2.is_unary():
        raise InputError("eventual inclusion is defined for unary NFAs")
    a1, a2 = n1.alphabet[0], n2.alphabet[0]
    pairs, loop_start = lasso(
        (frozenset([n1.start]), frozenset([n2.start])),
        lambda pair: (n1.step(pair[0], a1), n2.step(pair[1], a2)),
    )
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
    assert _accepts_length(n1, witness) and not _accepts_length(n2, witness)
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
