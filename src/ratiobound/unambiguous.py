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

    def __bool__(self):
        return self.is_big_o


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
    st = wa.states
    live_edges = [
        ((st[i], st[i2]), wa.alphabet[li], (st[j], st[j2]), Fraction(x, x2))
        for (li, i, j, i2, j2), x, x2 in sorted(
            ((li, pairs[u][0], pairs[v][0], pairs[u][1], pairs[v][1]), x, x2)
            for u, (li, x, x2), v in pair_edges
            if u in live and v in live
        )
    ]
    start = (q.s, q.s_prime)
    live = {(st[pairs[k][0]], st[pairs[k][1]]) for k in live}
    dist = {start: Fraction(1)}
    pred: dict = {}
    nodes = len(live)
    improved_node = None
    for _ in range(nodes):
        changed = False
        for (u, a, v, r) in live_edges:
            du = dist.get(u)
            if du is None:
                continue
            cand = du * r
            if cand > dist.get(v, Fraction(0)):
                dist[v] = cand
                pred[v] = (u, a, r)
                changed = True
                improved_node = v
        if not changed:
            return UnambiguousVerdict(True)
    # still improving after |V|-1 rounds: an expansive cycle is reachable
    witness = _walk_back_cycle(pred, improved_node, nodes)
    if witness is None or witness[1] <= 1:
        witness = _dp_find_cycle(live_edges, live)
    edge_list, ratio = witness
    assert ratio > 1
    return UnambiguousVerdict(
        False, "cycle", cycle=tuple(edge_list), cycle_ratio=ratio
    )


def _walk_back_cycle(pred: dict, node, nodes: int):
    """Walk predecessors far enough to land on a predecessor-graph cycle."""
    cur = node
    for _ in range(nodes):
        if cur not in pred:
            return None
        cur = pred[cur][0]
    seen = []
    walk = cur
    while walk not in seen:
        seen.append(walk)
        if walk not in pred:
            return None
        walk = pred[walk][0]
    cycle_nodes = seen[seen.index(walk):] + [walk]
    # consecutive entries satisfy cycle_nodes[i+1] = pred(cycle_nodes[i])
    edge_list = []
    ratio = Fraction(1)
    for i in range(len(cycle_nodes) - 1):
        v = cycle_nodes[i]
        u, a, r = pred[v]
        edge_list.append((u, a, v))
        ratio *= r
    edge_list.reverse()
    return edge_list, ratio


def _dp_find_cycle(live_edges, live):
    """Exact fallback: some node on an expansive cycle has a walk of length
    k <= |live| back to itself with product > 1; recover it by best-walk DP."""
    by_src: dict = {}
    for (u, a, v, r) in live_edges:
        by_src.setdefault(u, []).append((v, a, r))
    for v0 in sorted(live, key=repr):
        found = _dp_cycle_from(by_src, v0, len(live))
        if found is not None:
            return found
    raise AssertionError("expansive cycle reported but not found")


def _dp_cycle_from(by_src, v0, cap):
    levels = [{v0: (Fraction(1), None)}]
    for _ in range(cap):
        cur = levels[-1]
        nxt: dict = {}
        for u, (prod, _) in cur.items():
            for (v, a, r) in by_src.get(u, ()):
                cand = prod * r
                if v not in nxt or cand > nxt[v][0]:
                    nxt[v] = (cand, (u, a))
        levels.append(nxt)
        if v0 in nxt and nxt[v0][0] > 1:
            edge_list = []
            node = v0
            for level in range(len(levels) - 1, 0, -1):
                _, parent = levels[level][node]
                u, a = parent
                edge_list.append((u, a, node))
                node = u
            edge_list.reverse()
            return edge_list, levels[-1][v0][0]
    return None
