"""Polynomial-time decider for automata that are unambiguous from the two
query states: a ratio-weighted product plus expansive-cycle detection."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import InputError, Query, explore, normalize_single_final, trim
from .nfaops import lc_check


@dataclass(frozen=True)
class AmbiguityResult:
    unambiguous: bool
    witness_word: Optional[str] = None

    def __bool__(self):
        return self.unambiguous


def is_unambiguous_from(wa, s) -> AmbiguityResult:
    """Does every word have at most one accepting path from s?

    Pair construction over simultaneous runs with a divergence bit; a word
    with two accepting runs is found as a reachable (final, final, diverged)
    triple.  BFS yields a shortest ambiguous word.
    """
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


@dataclass(frozen=True)
class UnambiguousVerdict:
    is_big_o: bool
    witness_kind: Optional[str] = None  # "lc" or "cycle"
    lc_counterexample: Optional[str] = None
    cycle: Optional[tuple] = None  # ((pair, symbol, pair), ...) edge list
    cycle_ratio: Optional[Fraction] = None


def decide_unambiguous(q: Query, ambiguity=None) -> UnambiguousVerdict:
    """Boundedness for queries unambiguous from both states.

    Build the restricted pair product whose edge weights are the exact
    ratios of the two copies' weights; the answer is negative exactly when a
    cycle with ratio product > 1 lies on a path from the start pair to the
    final pair.  Multiplicative Bellman-Ford relaxation keeps all arithmetic
    rational: products replace sums and > replaces <.

    `ambiguity` is the pair of `is_unambiguous_from` results for s and s'
    when the caller has them already.
    """
    wa = q.automaton
    for state, amb in zip((q.s, q.s_prime), ambiguity or (None, None)):
        if amb is None:
            amb = is_unambiguous_from(wa, state)
        if not amb:
            raise InputError(
                f"automaton is ambiguous from {state!r} (word {amb.witness_word!r}); "
                "use the unary or bounded decider"
            )
    lc = lc_check(q)
    if not lc:
        return UnambiguousVerdict(False, "lc", lc_counterexample=lc.counterexample)
    wa = normalize_single_final(wa)
    (t,) = wa.finals
    ti = wa.index(t)

    # pairs of transitions on one letter, explored from the start pair; the
    # ratio of weights x/d over x2/d is x/x2
    letters = [wa.sparse_rows[a][1] for a in wa.alphabet]

    def succ(pair):
        i, i2 = pair
        for li, rows in enumerate(letters):
            for j, x in rows[i]:
                for j2, x2 in rows[i2]:
                    yield (li, x, x2), (j, j2)

    pairs, pair_edges = explore([(wa.index(q.s), wa.index(q.s_prime))], succ)
    live = trim([0], [k for k, p in enumerate(pairs) if p == (ti, ti)], pair_edges)
    if 0 not in live:
        # containment holds and no common accepted word: bounded trivially
        return UnambiguousVerdict(True)

    # live edges in (letter, transition, transition) order
    live_edges = [
        (u, li, v, Fraction(x, x2))
        for _, u, li, v, x, x2 in sorted(
            ((li, pairs[u][0], pairs[v][0], pairs[u][1], pairs[v][1]), u, li, v, x, x2)
            for u, (li, x, x2), v in pair_edges
            if u in live and v in live
        )
    ]
    nodes = len(live)
    dist = [Fraction(0)] * len(pairs)
    dist[0] = Fraction(1)
    pred: dict = {}
    for _ in range(nodes):
        changed = None
        for (u, li, v, r) in live_edges:
            du = dist[u]
            if du:
                cand = du * r
                if cand > dist[v]:
                    dist[v] = cand
                    pred[v] = (u, li, r)
                    changed = v
        if changed is None:
            return UnambiguousVerdict(True)
    # still improving in round |live|: walking |live| predecessors back from
    # the last improved pair lands on a predecessor cycle, and every such
    # cycle has ratio product > 1
    edge_list, ratio = _walk_back_cycle(pred, changed, nodes)
    assert ratio > 1
    st = wa.states
    names = [(st[i], st[i2]) for i, i2 in pairs]
    cycle = tuple((names[u], wa.alphabet[li], names[v]) for u, li, v in edge_list)
    return UnambiguousVerdict(False, "cycle", cycle=cycle, cycle_ratio=ratio)


def _walk_back_cycle(pred: dict, node, nodes: int):
    """Walk predecessors far enough to land on a predecessor-graph cycle."""
    for _ in range(nodes):
        node = pred[node][0]
    seen = []
    while node not in seen:
        seen.append(node)
        node = pred[node][0]
    # consecutive entries satisfy cycle_nodes[i+1] = pred(cycle_nodes[i])
    cycle_nodes = seen[seen.index(node):] + [node]
    edge_list = []
    ratio = Fraction(1)
    for v in cycle_nodes[:-1]:
        u, li, r = pred[v]
        edge_list.append((u, li, v))
        ratio *= r
    edge_list.reverse()
    return edge_list, ratio
