"""SCC/DAG analysis of one letter's sparse rows, exact algebraic spectral radii,
and the annotated automaton that tracks (radius, count) signatures of runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Optional

from .algebraic import AlgebraicNumber, compare, spectral_radius
from .automata import (
    InputError,
    Nfa,
    WeightedAutomaton,
    explore,
    fresh_state,
    normalize_single_final,
    strong_components,
)


@dataclass(frozen=True)
class SccInfo:
    radius: AlgebraicNumber
    period: int  # 0 iff the SCC's matrix is all-zero


@dataclass(frozen=True)
class SccDag:
    sccs: tuple  # of SccInfo, in reverse topological discovery order
    scc_of: tuple  # state index -> scc index


def _scc_period(members: list[int], succ) -> int:
    """Period via BFS levels: gcd of level(u)+1-level(v) over internal edges,
    0 when there is none.  An edge that numbers v sets level(v) and adds 0."""
    inside = set(members)
    if not any(v in inside for u in members for v in succ[u]):
        return 0
    _, edges = explore([members[0]], lambda u: ((None, v) for v in succ[u] if v in inside))
    level = [0]
    g = 0
    for i, _, j in edges:
        if j == len(level):
            level.append(level[i] + 1)
        else:
            g = gcd(g, level[i] + 1 - level[j])
    return g


def scc_decompose(letter) -> SccDag:
    """SCCs of the support digraph of one letter's sparse rows `(d, rows)`
    (as in `WeightedAutomaton.sparse_rows`), with exact spectral radius and
    period per component.  A component with no internal edge has radius 0;
    any other gets the radius of its renumbered sub-rows."""
    d, rows = letter
    succ = [[j for j, _ in row] for row in rows]
    comps, scc_of = strong_components(succ)
    infos = []
    radius0 = AlgebraicNumber.from_rational(Fraction(0))
    for comp in comps:
        period = _scc_period(comp, succ)
        if not period:
            infos.append(SccInfo(radius0, 0))
            continue
        pos = {v: k for k, v in enumerate(comp)}
        sub = tuple(tuple((pos[j], x) for j, x in rows[u] if j in pos) for u in comp)
        infos.append(SccInfo(spectral_radius((d, sub)), period))
    return SccDag(tuple(infos), tuple(scc_of))


def rank_radii(radii) -> tuple[tuple, tuple]:
    """The distinct radii of `radii`, ascending, and each given radius's index
    among them.  Each entry keeps the form it is first met in.

    Rational radii are matched by value; exact `compare` runs only where a
    radius is in interval form, which may still be rational (2 is the
    largest root of x^2 - 2x)."""
    kept: list = []
    by_value: dict = {}  # rational value -> index in kept
    at = []  # per given radius: its index in kept
    for r in radii:
        i = by_value.get(r.lo) if r.is_rational else None
        if i is None:
            equal = (
                j
                for j, e in enumerate(kept)
                if not (e.is_rational and r.is_rational) and compare(e, r) == 0
            )
            i = next(equal, len(kept))
            if i == len(kept):
                kept.append(r)
            if r.is_rational:
                by_value[r.lo] = i
        at.append(i)
    order = sorted(range(len(kept)), key=cmp_to_key(lambda i, j: compare(kept[i], kept[j])))
    rank = {i: pos for pos, i in enumerate(order)}
    return tuple(kept[i] for i in order), tuple(rank[i] for i in at)


def step_signature(sig: tuple, same_component: bool, r2: int) -> tuple:
    """The growth signature (radius index, count) after a step into a state
    whose component has radius index `r2`: a step inside one component, or
    into a smaller radius, keeps it; an equal radius in a new component
    counts one more; a larger radius starts over at count 0."""
    ri, k = sig
    if same_component or r2 < ri:
        return sig
    if r2 == ri:
        return (ri, k + 1)
    return (r2, 0)


@dataclass(frozen=True)
class AnnotatedAutomaton:
    """Reachable (state, radius index, count) triples of a unary automaton,
    lifted per the four growth-tracking transition rules.

    The admissible set is the collection of annotations reachable at the
    final state; its size is at most |Q|^2.
    """

    wa: WeightedAutomaton
    start: tuple  # (state, radius index, k)
    states: tuple  # of (state, radius index, k)
    transitions: frozenset  # of (triple, triple)
    table: tuple  # of AlgebraicNumber, strictly ascending
    final: str

    def admissible(self) -> list[tuple[int, int]]:
        out = sorted(
            {(ri, k) for (q, ri, k) in self.states if q == self.final}
        )
        return out


def annotate(
    wa: WeightedAutomaton,
    s: str,
    dag: Optional[SccDag] = None,
    ranked: Optional[tuple] = None,
) -> AnnotatedAutomaton:
    """Annotated automaton from s over a unary weighted automaton.

    Requires the normalized single-final shape and s off every cycle (make a
    copy of s first if needed).  States are (q, rho, k) where rho is the
    largest SCC radius seen by the run so far and k+1 the number of distinct
    SCCs with that radius.  `ranked` is `rank_radii` of the DAG's radii, in
    component order, when the caller has it.
    """
    if not wa.is_unary():
        raise InputError("annotation requires a unary automaton")
    if dag is None:
        dag = scc_decompose(wa.sparse_rows[wa.alphabet[0]])
    if ranked is None:
        ranked = rank_radii([info.radius for info in dag.sccs])
    table, rank = ranked
    finals = sorted(wa.finals)
    if len(finals) != 1:
        raise InputError("annotate requires the single-final normalized shape")
    t = finals[0]
    rows = wa.sparse_rows[wa.alphabet[0]][1]

    def succ(node):
        q, ri, k = node
        qi = wa.index(q)
        for vj, _ in rows[qi]:
            same = dag.scc_of[qi] == dag.scc_of[vj]
            yield None, (wa.states[vj], *step_signature((ri, k), same, rank[dag.scc_of[vj]]))

    start = (s, rank[dag.scc_of[wa.index(s)]], 0)
    states, edges = explore([start], succ)
    ann = AnnotatedAutomaton(
        wa,
        start,
        tuple(sorted(states)),
        frozenset((states[i], states[j]) for i, _, j in edges),
        table,
        t,
    )
    assert len(ann.admissible()) <= wa.n * wa.n
    return ann


def degree_language(ann: AnnotatedAutomaton, x: tuple[int, int]) -> Nfa:
    """Unary NFA accepting lengths where some run signature is >= x.

    x is an (radius index, k) pair over the annotation's radius table and
    must be admissible.
    """
    ri, k = x
    if not (0 <= ri < len(ann.table)) or not (0 <= k <= ann.wa.n):
        raise InputError(f"threshold {x} is not admissible for this automaton")
    letter = ann.wa.alphabet[0]
    finals = frozenset(st for st in ann.states if st[0] == ann.final and (st[1], st[2]) >= x)
    return Nfa(
        ann.states,
        (letter,),
        frozenset((a, letter, b) for (a, b) in ann.transitions),
        ann.start,
        finals,
    )


def copy_start_off_cycles(wa: WeightedAutomaton, s: str) -> tuple[WeightedAutomaton, str]:
    """Fresh copy of s carrying its outgoing transitions, so the start state
    lies on no cycle.  Weights of nonempty words from the copy equal those
    from s; the copy is never final (the empty word stays with the
    containment check), preserving the single-final shape."""
    fresh = fresh_state(set(wa.states), f"{s}^")
    states = wa.states + (fresh,)
    si = wa.index(s)
    sparse = {a: (d, rows + (rows[si],)) for a, (d, rows) in wa.sparse_rows.items()}
    return WeightedAutomaton(states, wa.alphabet, sparse, wa.finals), fresh


def scc_debug_dump(wa: WeightedAutomaton, s: Optional[str] = None) -> dict:
    """JSON-ready dump of the SCC DAG of a unary automaton and, from s, the
    admissible-pair table."""
    if not wa.is_unary():
        raise InputError("unary SCC analysis requires a single-letter alphabet")
    letter = wa.sparse_rows[wa.alphabet[0]]
    dag = scc_decompose(letter)
    of = dag.scc_of
    edges = {(of[i], of[j]) for i, row in enumerate(letter[1]) for j, _ in row if of[i] != of[j]}
    out = {
        "sccs": [
            {
                "members": sorted(q for q, k in zip(wa.states, of) if k == c),
                "radius": radius_json(info.radius),
                "period": info.period,
            }
            for c, info in enumerate(dag.sccs)
        ],
        "edges": sorted(map(list, edges)),
    }
    if s is not None:
        nwa = normalize_single_final(wa)
        nwa, fresh = copy_start_off_cycles(nwa, s)
        ann = annotate(nwa, fresh)
        out["admissible"] = [
            {"radius": radius_json(ann.table[ri]), "k": k}
            for (ri, k) in ann.admissible()
        ]
    return out


def radius_json(r: AlgebraicNumber) -> dict:
    """JSON-ready radius: its polynomial, an enclosing interval of width at
    most 1e-12, and a float."""
    refined = r.refined(Fraction(1, 10**12))
    return {
        "poly": list(r.poly),
        "interval": [str(refined.lo), str(refined.hi)],
        "approx": r.to_float(),
    }
