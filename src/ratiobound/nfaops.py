"""Boolean-automata algorithms: language containment, eventual inclusion of
unary languages, Chrobak normal form, products and bounded complements."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .automata import InputError, Nfa, Query, explore, lasso, nfa_of


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
class UnaryLasso:
    """Canonical determinized unary language: acceptance bits on a stem and loop."""

    prefix_accepting: tuple
    loop_accepting: tuple

    def __post_init__(self):
        if len(self.loop_accepting) < 1:
            raise InputError("lasso loop must be non-empty")

    def accepts(self, n: int) -> bool:
        if n < len(self.prefix_accepting):
            return self.prefix_accepting[n]
        off = (n - len(self.prefix_accepting)) % len(self.loop_accepting)
        return self.loop_accepting[off]

    @classmethod
    def from_nfa(cls, n: Nfa) -> "UnaryLasso":
        if not n.is_unary():
            raise InputError("lasso determinization needs a unary NFA")
        a = n.alphabet[0]
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
    n = len(a)
    bt = list(zip(*b))
    return [
        [any(x and y for x, y in zip(row, col)) for col in bt] for row in a
    ]


def _accepts_length(n: Nfa, length: int) -> bool:
    """Membership of a^length via repeated squaring of the boolean matrix."""
    idx, m = _bool_mat(n)
    start = [q == n.start for q in n.states]
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

    def size(self) -> int:
        return len(self.stem) + sum(length for length, _ in self.cycles)


def to_chrobak(n: Nfa) -> ChrobakNf:
    """Language-preserving Chrobak normal form of a unary NFA.

    Built from the subset-construction lasso, which is itself a stem feeding
    a single cycle; blow-up is bounded by the number of distinct reachable
    subsets.
    """
    lasso = UnaryLasso.from_nfa(n)
    ell, p = len(lasso.prefix_accepting), len(lasso.loop_accepting)
    k = max(ell, 1)
    stem = tuple(lasso.accepts(i) for i in range(k))
    offsets = frozenset(o for o in range(p) if lasso.accepts(k + o))
    return ChrobakNf(stem, ((p, offsets),))


def to_restricted_chrobak(c: ChrobakNf) -> ChrobakNf:
    """Copy each cycle once per accepting offset so every cycle has at most one."""
    cycles = []
    for length, offsets in c.cycles:
        if len(offsets) <= 1:
            cycles.append((length, frozenset(offsets)))
        else:
            for o in sorted(offsets):
                cycles.append((length, frozenset([o])))
    return ChrobakNf(c.stem, tuple(cycles))


def chrobak_to_nfa(c: ChrobakNf, letter: str = "a") -> Nfa:
    """Expand a Chrobak normal form back into an explicit unary NFA."""
    k = len(c.stem)
    states = [f"s{i}" for i in range(k)]
    trans = set()
    finals = set(states[i] for i in range(k) if c.stem[i])
    for i in range(k - 1):
        trans.add((states[i], letter, states[i + 1]))
    for ci, (length, offsets) in enumerate(c.cycles):
        cyc = [f"c{ci}_{j}" for j in range(length)]
        states.extend(cyc)
        trans.add((states[k - 1], letter, cyc[0]))
        for j in range(length):
            trans.add((cyc[j], letter, cyc[(j + 1) % length]))
        finals.update(cyc[o] for o in offsets)
    return Nfa(tuple(states), (letter,), frozenset(trans), states[0], frozenset(finals))


def determinize(n: Nfa, cap: int = 200000):
    """Subset construction; returns (subset list, trans dict, start index).

    The dead subset (empty set) is included so the result is a complete DFA.
    """
    subsets, edges = explore(
        [frozenset([n.start])],
        lambda sub: ((a, n.step(sub, a)) for a in n.alphabet),
        cap,
    )
    return subsets, {(i, a): j for i, a, j in edges}, 0


def _named_product(start, succ, final, alphabet, sep: str) -> Nfa:
    """Reachable pair automaton from `start`, pair (x, y) named "x{sep}y"."""
    pairs, edges = explore([start], succ)
    name = [f"{x}{sep}{y}" for x, y in pairs]
    return Nfa(
        tuple(sorted(name)),
        tuple(alphabet),
        frozenset((name[i], a, name[j]) for i, a, j in edges),
        name[0],
        frozenset(name[i] for i, pair in enumerate(pairs) if final(*pair)),
    )


def nfa_product(n1: Nfa, n2: Nfa, mode: str) -> Nfa:
    """Intersection or difference of NFA languages over a shared alphabet."""
    if set(n1.alphabet) != set(n2.alphabet):
        raise InputError("product requires a shared alphabet")

    def moves(nfa, p, a):
        return sorted(nfa.step(frozenset([p]), a))

    if mode == "intersect":
        return _named_product(
            (n1.start, n2.start),
            lambda pq: (
                (a, (p2, q2))
                for a in n1.alphabet
                for p2 in moves(n1, pq[0], a)
                for q2 in moves(n2, pq[1], a)
            ),
            lambda p, q: p in n1.finals and q in n2.finals,
            n1.alphabet,
            "|",
        )
    if mode == "difference":
        subsets, dtrans, d0 = determinize(n2)
        return _named_product(
            (n1.start, d0),
            lambda pd: (
                (a, (p2, dtrans[(pd[1], a)]))
                for a in n1.alphabet
                for p2 in moves(n1, pd[0], a)
            ),
            lambda p, d: p in n1.finals and not (subsets[d] & n2.finals),
            n1.alphabet,
            "#",
        )
    raise InputError(f"unknown product mode {mode!r}")


def plus_letter_dfa(letters: tuple[str, ...], alphabet=None) -> Nfa:
    """DFA (as an NFA) for a1+ a2+ ... am+ with the given block letters."""
    if not letters:
        raise InputError("empty letter sequence")
    alphabet = tuple(alphabet) if alphabet is not None else tuple(dict.fromkeys(letters))
    m = len(letters)
    states = tuple(f"b{i}" for i in range(m + 1))
    trans = set()
    for i in range(m):
        trans.add((states[i], letters[i], states[i + 1]))
        trans.add((states[i + 1], letters[i], states[i + 1]))
    # staying edges are subsumed above; advancing from block i to i+1 happens
    # on the first letter of block i+1, which the loop already added
    return Nfa(states, alphabet, frozenset(trans), states[0], frozenset([states[m]]))


def nfa_complement_within(n: Nfa, letters: tuple[str, ...]) -> Nfa:
    """Complement of L(n) relative to a1+ ... am+ (caller asserts L(n) inside)."""
    bound = plus_letter_dfa(letters, alphabet=n.alphabet)
    bsets, btrans, b0 = determinize(bound)
    subsets, dtrans, d0 = determinize(n)
    return _named_product(
        (b0, d0),
        lambda pd: (
            (a, (btrans[(pd[0], a)], dtrans[(pd[1], a)]))
            for a in bound.alphabet
            if bsets[btrans[(pd[0], a)]]
        ),
        lambda p, d: bool(bsets[p] & bound.finals) and not (subsets[d] & n.finals),
        bound.alphabet,
        "#",
    )
