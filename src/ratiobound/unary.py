"""Deciders for single-letter automata: weight-ratio boundedness holds iff
language containment holds and, threshold by threshold, the growth-signature
languages are eventually included."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import (
    InputError,
    Query,
    WeightedAutomaton,
    fresh_state,
    normalize_single_final,
)
from .nfaops import EventualInclusion, eventually_included, lc_check
from .spectral import (
    RadiusTable,
    annotate,
    copy_start_off_cycles,
    degree_language,
    scc_decompose,
)


@dataclass(frozen=True)
class UnaryVerdict:
    is_big_o: bool
    witness_kind: Optional[str] = None  # "lc" or "degree"
    lc_counterexample: Optional[str] = None
    threshold: Optional[dict] = None  # radius/k payload for a degree violation
    witness_length: Optional[int] = None
    smallest_witness: Optional[int] = None
    progression_period: Optional[int] = None


def _prepare(q: Query):
    """Normalized automaton with cycle-free start copies and shared annotations."""
    wa = normalize_single_final(q.automaton)
    wa, s_hat = copy_start_off_cycles(wa, q.s)
    wa, sp_hat = copy_start_off_cycles(wa, q.s_prime)
    dag = scc_decompose(wa.sparse_rows[wa.alphabet[0]])
    table = RadiusTable.build([info.radius for info in dag.sccs])
    ann_s = annotate(wa, s_hat, dag, table)
    ann_p = annotate(wa, sp_hat, dag, table)
    return wa, ann_s, ann_p


def decide_unary(q: Query) -> UnaryVerdict:
    """Full decision procedure for unary queries.

    After the containment check, iterate deterministically over every
    admissible (radius, count) threshold and test eventual inclusion of the
    corresponding length languages; any infinite difference refutes
    boundedness and pins a diverging arithmetic progression of lengths.
    """
    if not q.automaton.is_unary():
        raise InputError("decide_unary requires a unary automaton")
    lc = lc_check(q)
    if not lc:
        return UnaryVerdict(False, "lc", lc_counterexample=lc.counterexample)
    if q.s == q.s_prime:
        return UnaryVerdict(True)
    wa, ann_s, ann_p = _prepare(q)
    thresholds = sorted(set(ann_s.admissible()) | set(ann_p.admissible()))
    for x in thresholds:
        left = degree_language(ann_s, x)
        right = degree_language(ann_p, x)
        ei: EventualInclusion = eventually_included(left, right)
        if not ei:
            ri, k = x
            radius = ann_s.table.radii[ri]
            refined = radius.refined(Fraction(1, 10**12))
            return UnaryVerdict(
                False,
                "degree",
                threshold={
                    "radius_poly": list(radius.poly),
                    "radius_interval": [str(refined.lo), str(refined.hi)],
                    "radius_approx": radius.to_float(),
                    "k": k,
                },
                witness_length=ei.witness_length,
                smallest_witness=ei.smallest_witness,
                progression_period=ei.period,
            )
    return UnaryVerdict(True)


def decide_unary_eventual(q: Query) -> UnaryVerdict:
    """Eventually-big-O: ignore finitely many words.

    Equivalent to: the language difference is finite and the query holds on
    the completion that adds a tiny weight to every nonempty word from the
    second state.  A fresh one-step prefix state keeps the empty word out of
    the containment check, which the completion cannot repair.
    """
    from .nfaops import eventually_included as ev_incl
    from .automata import nfa_of
    from .reductions import complete_for_eventual

    if not q.automaton.is_unary():
        raise InputError("decide_unary_eventual requires a unary automaton")
    if q.s == q.s_prime:
        return UnaryVerdict(True)
    wa, s_hat = _shifted(q.automaton, q.s, q.s_prime)
    shifted = Query(wa, s_hat[0], s_hat[1])
    n1 = nfa_of(shifted.automaton, shifted.s)
    n2 = nfa_of(shifted.automaton, shifted.s_prime)
    diff = ev_incl(n1, n2)
    if not diff:
        return UnaryVerdict(
            False,
            "difference",
            witness_length=diff.witness_length,
            smallest_witness=diff.smallest_witness,
            progression_period=diff.period,
        )
    completed = complete_for_eventual(
        shifted.automaton, shifted.s, shifted.s_prime
    )
    return decide_unary(Query(completed.automaton, completed.s, completed.s_prime))


def _shifted(wa: WeightedAutomaton, s: str, s_prime: str):
    """Add fresh starts with a single weight-1 step into s and s_prime, so
    every word weight shifts one letter and the empty word drops out."""
    a = wa.alphabet[0]
    taken = set(wa.states)
    f1 = fresh_state(taken, f"{s}>")
    f2 = fresh_state(taken, f"{s_prime}>")
    states = wa.states + (f1, f2)
    d, rows = wa.sparse_rows[a]
    rows += (((wa.index(s), d),), ((wa.index(s_prime), d),))
    return WeightedAutomaton(states, wa.alphabet, {a: (d, rows)}, wa.finals), (f1, f2)
