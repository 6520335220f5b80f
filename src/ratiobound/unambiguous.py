"""Polynomial-time decider for automata that are unambiguous from the two
query states: a ratio-weighted product plus expansive-cycle detection."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import InputError, Query, Verdict, explore, normalize_single_final, path_to, trim
from .jsonio import format_weight
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
    triple.  The breadth-first search stops there, and the path to it is a
    shortest ambiguous word.
    """
    letters = [(a, wa.sparse_rows[a][1]) for a in wa.alphabet]
    final = [q in wa.finals for q in wa.states]

    def succ(node):
        pi, ri, div = node
        for a, rows in letters:
            for p2, _ in rows[pi]:
                for r2, _ in rows[ri]:
                    yield a, (p2, r2, div or p2 != r2)

    def two_runs(node):
        return node[2] and final[node[0]] and final[node[1]]

    si = wa.index(s)
    triples, edges = explore([(si, si, False)], succ, stop=two_runs)
    if two_runs(triples[-1]):
        return AmbiguityResult(False, "".join(path_to(edges, len(triples) - 1)))
    return AmbiguityResult(True)


def decide_unambiguous(q: Query, ambiguity=None) -> Verdict:
    """Boundedness for queries unambiguous from both states.

    Build the restricted pair product whose edge weights are the exact
    ratios of the two copies' weights; the answer is negative exactly when a
    cycle with ratio product > 1 lies on a path from the start pair to the
    final pair.  Multiplicative Bellman-Ford relaxation keeps all arithmetic
    rational: products replace sums and > replaces <.  It stops at the first
    round whose predecessor graph has a cycle.

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
        return _not_big_o("lc", lc=lc.counterexample)
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
        return Verdict("is-big-o")

    # live edges in (letter, transition, transition) order
    live_edges = [
        (u, li, v, Fraction(x, x2))
        for _, u, li, v, x, x2 in sorted(
            ((li, pairs[u][0], pairs[v][0], pairs[u][1], pairs[v][1]), u, li, v, x, x2)
            for u, (li, x, x2), v in pair_edges
            if u in live and v in live
        )
    ]
    dist = [Fraction(0)] * len(pairs)
    dist[0] = Fraction(1)
    pred: dict = {}
    for _ in range(len(live)):
        changed = False
        for (u, li, v, r) in live_edges:
            du = dist[u]
            if du:
                cand = du * r
                if cand > dist[v]:
                    dist[v] = cand
                    pred[v] = (u, li, r)
                    changed = True
        if not changed:
            return Verdict("is-big-o")
        if found := _pred_cycle(pred):
            break
    # a predecessor cycle appears by round |live| at the latest, and in a
    # label-correcting method every such cycle has ratio product > 1
    edge_list, ratio = found
    assert ratio > 1
    st = wa.states
    names = [(st[i], st[i2]) for i, i2 in pairs]
    cycle = [[names[u], wa.alphabet[li], names[v]] for u, li, v in edge_list]
    return _not_big_o("cycle", cycle=cycle, ratio=ratio)


def _not_big_o(kind, lc=None, cycle=None, ratio=None) -> Verdict:
    """The unambiguous witness: a containment counterexample word `lc`, or
    an expansive pair-graph cycle, as (pair, symbol, pair) edges, and its
    ratio product."""
    return Verdict(
        "not-big-o",
        {
            "type": kind,
            "lcCounterexample": lc,
            "cycle": cycle,
            "cycleRatio": None if ratio is None else format_weight(ratio),
        },
    )


def _pred_cycle(pred: dict):
    """The first predecessor-graph cycle met from the pairs in index order,
    as its edges from its smallest pair on and its ratio product; None when
    the predecessor graph has no cycle.  Each pair is walked once."""
    walk: dict = {}
    for root in sorted(pred):
        v = root
        while v in pred and v not in walk:
            walk[v] = root
            v = pred[v][0]
        if walk.get(v) == root:
            # v is on the cycle; list it backwards from its smallest pair
            back = [v]
            while (u := pred[back[-1]][0]) != v:
                back.append(u)
            k = back.index(min(back))
            back = back[k:] + back[:k]
            edges = [(pred[x][0], pred[x][1], x) for x in reversed(back)]
            ratio = Fraction(1)
            for x in back:
                ratio *= pred[x][2]
            return edges, ratio
    return None
