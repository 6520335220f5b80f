"""Deciders for single-letter automata: weight-ratio boundedness holds iff
language containment holds and, threshold by threshold, the growth-signature
languages are eventually included.  Ignoring finitely many words replaces
containment by a finite language difference."""

from __future__ import annotations

from .automata import InputError, Query, Verdict, nfa_of, normalize_single_final
from .nfaops import eventually_included, lc_check
from .spectral import (
    annotate,
    copy_start_off_cycles,
    degree_language,
    radius_json,
    rank_radii,
    scc_decompose,
)


def _not_big_o(kind, lc=None, threshold=None, diff=None) -> Verdict:
    """The unary witness: a containment counterexample word `lc`, or the
    arithmetic progression of lengths that the infinite difference `diff`
    pins, with the growth threshold it violates."""
    witness = {
        "type": kind,
        "lcCounterexample": lc,
        "threshold": threshold,
        "length": None,
        "smallestLength": None,
        "progressionPeriod": None,
    }
    if diff is not None:
        witness["length"] = diff.witness_length
        witness["smallestLength"] = diff.smallest_witness
        witness["progressionPeriod"] = diff.period
    return Verdict("not-big-o", witness)


def decide_unary(q: Query) -> Verdict:
    """Full decision procedure for unary queries: the containment check,
    then the growth check."""
    if not q.automaton.is_unary():
        raise InputError("decide_unary requires a unary automaton")
    lc = lc_check(q)
    if not lc:
        return _not_big_o("lc", lc=lc.counterexample)
    return _growth(q)


def decide_unary_eventual(q: Query) -> Verdict:
    """Eventually-big-O: ignore finitely many words.

    The query holds eventually exactly when L(s) \\ L(s') is finite and the
    growth check holds: an infinite difference is infinitely many words of
    ratio infinity, and every other violation is an infinite family of
    growing ratio, which finitely many words cannot hide.
    """
    if not q.automaton.is_unary():
        raise InputError("decide_unary_eventual requires a unary automaton")
    wa = q.automaton
    diff = eventually_included(nfa_of(wa, q.s), nfa_of(wa, q.s_prime))
    if not diff:
        return _not_big_o("difference", diff=diff)
    return _growth(q)


def _growth(q: Query) -> Verdict:
    """Iterate deterministically over every admissible (radius, count)
    threshold and test eventual inclusion of the corresponding length
    languages; any infinite difference refutes boundedness and pins a
    diverging arithmetic progression of lengths."""
    if q.s == q.s_prime:
        return Verdict("is-big-o")
    # normalized automaton with cycle-free start copies, shared annotations
    wa = normalize_single_final(q.automaton)
    wa, s_hat = copy_start_off_cycles(wa, q.s)
    wa, sp_hat = copy_start_off_cycles(wa, q.s_prime)
    dag = scc_decompose(wa.sparse_rows[wa.alphabet[0]])
    ranked = rank_radii([info.radius for info in dag.sccs])
    ann_s = annotate(wa, s_hat, dag, ranked)
    ann_p = annotate(wa, sp_hat, dag, ranked)
    thresholds = sorted(set(ann_s.admissible()) | set(ann_p.admissible()))
    for x in thresholds:
        ei = eventually_included(degree_language(ann_s, x), degree_language(ann_p, x))
        if not ei:
            ri, k = x
            radius = radius_json(ann_s.table[ri])
            threshold = {**{f"radius_{key}": v for key, v in radius.items()}, "k": k}
            return _not_big_o("degree", threshold=threshold, diff=ei)
    return Verdict("is-big-o")
