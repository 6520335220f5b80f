"""SCC/DAG analysis of one letter's sparse rows, exact algebraic spectral radii,
and the annotated automaton that tracks (radius, count) signatures of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Optional

from .algebraic import AlgebraicNumber, compare, spectral_radius_of_matrix
from .automata import (
    InputError,
    Nfa,
    WeightedAutomaton,
    explore,
    fresh_state,
)


@dataclass(frozen=True)
class SccInfo:
    members: frozenset  # state indices
    radius: AlgebraicNumber
    period: int  # 0 iff the SCC's matrix is all-zero


@dataclass(frozen=True)
class SccDag:
    sccs: tuple  # of SccInfo, in reverse topological discovery order
    scc_of: tuple  # state index -> scc index
    edges: frozenset  # of (scc index, scc index), positive cross transitions


def _tarjan(n: int, succ) -> list[list[int]]:
    """Iterative Tarjan; returns SCCs as lists of vertex indices."""
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _scc_period(members: list[int], succ) -> int:
    """Period via BFS levels: gcd of level(u)+1-level(v) over internal edges."""
    inside = set(members)
    adj = {u: [v for v in succ[u] if v in inside] for u in members}
    if not any(adj.values()):
        return 0
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in adj[u]:
            g = gcd(g, level[u] + 1 - level[v])
    return g


def scc_decompose(letter) -> SccDag:
    """SCCs of the support digraph of one letter's sparse rows `(d, rows)`
    (as in `WeightedAutomaton.sparse_rows`), with exact spectral radius and
    period per component."""
    d, rows = letter
    n = len(rows)
    succ = [[j for j, _ in row] for row in rows]
    comps = _tarjan(n, succ.__getitem__)
    scc_of = [0] * n
    infos = []
    zero = Fraction(0)
    for ci, comp in enumerate(comps):
        pos = {v: k for k, v in enumerate(comp)}
        sub = []
        for u in comp:
            scc_of[u] = ci
            cells = [zero] * len(comp)
            for j, x in rows[u]:
                if j in pos:
                    cells[pos[j]] = Fraction(x, d)
            sub.append(tuple(cells))
        infos.append(
            SccInfo(
                frozenset(comp),
                spectral_radius_of_matrix(tuple(sub)),
                _scc_period(comp, succ),
            )
        )
    edges = frozenset(
        (scc_of[u], scc_of[v])
        for u in range(n)
        for v in succ[u]
        if scc_of[u] != scc_of[v]
    )
    return SccDag(tuple(infos), tuple(scc_of), edges)


def scc_decompose_unary(wa: WeightedAutomaton) -> SccDag:
    if not wa.is_unary():
        raise InputError("unary SCC analysis requires a single-letter alphabet")
    return scc_decompose(wa.sparse_rows[wa.alphabet[0]])


@dataclass(frozen=True)
class RadiusTable:
    """Deduplicated spectral radii, sorted ascending; annotations hold indices.

    Rational radii are found by their value; exact `compare` runs only where
    a radius is in interval form, which may still be rational (2 is the
    largest root of x^2 - 2x)."""

    radii: tuple  # of AlgebraicNumber, strictly ascending
    by_value: dict = field(init=False, repr=False, compare=False)  # rational -> index

    def __post_init__(self):
        by_value = {r.lo: i for i, r in enumerate(self.radii) if r.is_rational}
        object.__setattr__(self, "by_value", by_value)

    def index_of(self, radius: AlgebraicNumber) -> int:
        i = _position(radius, self.radii, self.by_value)
        if i is None:
            raise InputError("radius not in table")
        return i

    @classmethod
    def build(cls, radii) -> "RadiusTable":
        kept: list = []
        by_value: dict = {}
        for r in radii:
            if _position(r, kept, by_value) is None:
                if r.is_rational:
                    by_value[r.lo] = len(kept)
                kept.append(r)
        kept.sort(key=cmp_to_key(compare))
        return cls(tuple(kept))


def _position(radius: AlgebraicNumber, radii, by_value) -> Optional[int]:
    """Index of an entry of `radii` equal to `radius`, or None; `by_value`
    holds every rational entry's index."""
    if radius.is_rational and radius.lo in by_value:
        return by_value[radius.lo]
    for i, r in enumerate(radii):
        if not (r.is_rational and radius.is_rational) and compare(r, radius) == 0:
            return i
    return None


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
    table: RadiusTable
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
    table: Optional[RadiusTable] = None,
) -> AnnotatedAutomaton:
    """Annotated automaton from s over a unary weighted automaton.

    Requires the normalized single-final shape and s off every cycle (make a
    copy of s first if needed).  States are (q, rho, k) where rho is the
    largest SCC radius seen by the run so far and k+1 the number of distinct
    SCCs with that radius.
    """
    if not wa.is_unary():
        raise InputError("annotation requires a unary automaton")
    if dag is None:
        dag = scc_decompose(wa.sparse_rows[wa.alphabet[0]])
    if table is None:
        table = RadiusTable.build([info.radius for info in dag.sccs])
    finals = sorted(wa.finals)
    if len(finals) != 1:
        raise InputError("annotate requires the single-final normalized shape")
    t = finals[0]
    rank = [table.index_of(info.radius) for info in dag.sccs]
    rows = wa.sparse_rows[wa.alphabet[0]][1]

    def succ(node):
        q, ri, k = node
        qi = wa.index(q)
        for vj, _ in rows[qi]:
            r2 = rank[dag.scc_of[vj]]
            if dag.scc_of[qi] == dag.scc_of[vj] or r2 < ri:
                yield None, (wa.states[vj], ri, k)
            elif r2 == ri:
                yield None, (wa.states[vj], ri, k + 1)
            else:
                yield None, (wa.states[vj], r2, 0)

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
    if not (0 <= ri < len(ann.table.radii)) or not (0 <= k <= ann.wa.n):
        raise InputError(f"threshold {x} is not admissible for this automaton")
    letter = ann.wa.alphabet[0]
    name = {st: f"{st[0]}~{st[1]}~{st[2]}" for st in ann.states}
    finals = frozenset(
        name[st] for st in ann.states if st[0] == ann.final and (st[1], st[2]) >= x
    )
    return Nfa(
        tuple(name[st] for st in ann.states),
        (letter,),
        frozenset((name[a], letter, name[b]) for (a, b) in ann.transitions),
        name[ann.start],
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
    """JSON-ready dump of the SCC DAG and, from s, the admissible-pair table."""
    dag = scc_decompose_unary(wa)
    out = {
        "sccs": [
            {
                "members": sorted(wa.states[i] for i in info.members),
                "radius": _radius_json(info.radius),
                "period": info.period,
            }
            for info in dag.sccs
        ],
        "edges": sorted([a, b] for (a, b) in dag.edges),
    }
    if s is not None:
        from .automata import normalize_single_final

        nwa = normalize_single_final(wa)
        nwa, fresh = copy_start_off_cycles(nwa, s)
        ann = annotate(nwa, fresh)
        out["admissible"] = [
            {"radius": _radius_json(ann.table.radii[ri]), "k": k}
            for (ri, k) in ann.admissible()
        ]
    return out


def _radius_json(r: AlgebraicNumber) -> dict:
    refined = r.refined(Fraction(1, 10**12))
    return {
        "poly": list(r.poly),
        "interval": [str(refined.lo), str(refined.hi)],
        "approx": r.to_float(),
    }
