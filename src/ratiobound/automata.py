"""Core data model: weighted automata, LMC/PA validation, weights, ratio oracle.

All weights are exact rationals, stored as integers over a per-symbol
denominator and read out as canonical fractions.Fraction.  Values are
immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional


class InputError(ValueError):
    """Bad states, symbols, or parameters supplied by the caller."""


class FormatError(ValueError):
    """Malformed external document (JSON schema violations and the like)."""


class ResourceError(RuntimeError):
    """An enumeration cap was exceeded."""


class Infinity:
    """Distinguished flag for an unbounded ratio; never a Fraction."""

    _instance: Optional["Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()

@dataclass(frozen=True, eq=False)
class WeightedAutomaton:
    """Weighted automaton over (Q>=0, +, x), stored sparse: per symbol, the
    nonzero weights x/d of its transition matrix as integer rows over one
    positive denominator d.

    State ids are strings externally and dense indices internally; the index
    map is part of the value and stable across operations.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    # symbol -> (d, rows): row i lists (j, x) for each weight x/d > 0 of the
    # symbol's matrix, in ascending column order
    sparse_rows: dict
    finals: frozenset

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise InputError("duplicate state ids")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("duplicate alphabet symbols")
        if "" in self.alphabet:
            raise InputError("an alphabet symbol must be nonempty")
        idx = {q: i for i, q in enumerate(self.states)}
        object.__setattr__(self, "_idx", idx)
        n = len(self.states)
        if set(self.sparse_rows) != set(self.alphabet):
            raise InputError("transition matrices must cover the alphabet exactly")
        for a, (d, rows) in self.sparse_rows.items():
            if len(rows) != n:
                raise InputError(f"matrix for {a!r} is not {n}x{n}")
            if d < 1:
                raise InputError(f"denominator for {a!r} is not positive")
            for row in rows:
                last = -1
                for j, x in row:
                    if not last < j < n:
                        raise InputError(
                            f"matrix for {a!r}: columns must ascend within 0..{n - 1}"
                        )
                    if x <= 0:
                        raise InputError(
                            "negative transition weight" if x else "stored zero weight"
                        )
                    last = j
        bad = self.finals - set(self.states)
        if bad:
            raise InputError(f"final states not declared: {sorted(bad)}")

    @classmethod
    def from_transitions(
        cls,
        states: Iterable[str],
        alphabet: Iterable[str],
        transitions: Iterable[tuple[str, str, Fraction, str]],
        finals: Iterable[str],
    ) -> "WeightedAutomaton":
        """Build from (source, symbol, weight, target) tuples.

        Unspecified transitions have weight 0; duplicate triples are rejected.
        """
        states = tuple(states)
        alphabet = tuple(alphabet)
        idx = {q: i for i, q in enumerate(states)}
        entries: dict = {a: {} for a in alphabet}
        seen = set()
        for q, a, w, q2 in transitions:
            if q not in idx or q2 not in idx:
                raise InputError(f"transition references unknown state: {q!r}->{q2!r}")
            if a not in entries:
                raise InputError(f"transition references unknown symbol {a!r}")
            if (q, a, q2) in seen:
                raise InputError(f"duplicate transition triple ({q!r},{a!r},{q2!r})")
            seen.add((q, a, q2))
            w = Fraction(w)
            if w < 0:
                raise InputError("negative transition weight")
            if w:
                entries[a][idx[q], idx[q2]] = w
        sparse = {}
        for a, cells in entries.items():
            d = lcm(*(w.denominator for w in cells.values()))
            rows: list = [[] for _ in states]
            for (i, j), w in sorted(cells.items()):
                rows[i].append((j, w.numerator * (d // w.denominator)))
            sparse[a] = d, tuple(map(tuple, rows))
        return cls(states, alphabet, sparse, frozenset(finals))

    def index(self, q: str) -> int:
        try:
            return self._idx[q]
        except KeyError:
            raise InputError(f"unknown state {q!r}") from None

    @property
    def n(self) -> int:
        return len(self.states)

    def transitions(self) -> list[tuple[str, str, Fraction, str]]:
        st = self.states
        out = []
        for a in self.alphabet:
            d, rows = self.sparse_rows[a]
            for i, row in enumerate(rows):
                for j, x in row:
                    out.append((st[i], a, Fraction(x, d), st[j]))
        return out

    def is_unary(self) -> bool:
        return len(self.alphabet) == 1


@dataclass(frozen=True)
class Nfa:
    """Boolean automaton extracted from positive-weight transitions.  Its
    states may be any hashable values."""

    states: tuple
    alphabet: tuple[str, ...]
    transitions: frozenset  # of (q, a, q2)
    start: object
    finals: frozenset

    def __post_init__(self):
        qs, al = set(self.states), set(self.alphabet)
        adj: dict = {a: {} for a in self.alphabet}
        for q, a, q2 in self.transitions:
            if q not in qs or q2 not in qs or a not in al:
                raise InputError("NFA transition references undeclared state/symbol")
            adj[a].setdefault(q, []).append(q2)
        if self.start not in qs:
            raise InputError("NFA start state undeclared")
        if not self.finals <= qs:
            raise InputError("NFA final states undeclared")
        object.__setattr__(self, "_adj", adj)

    def step(self, subset: frozenset, a: str) -> frozenset:
        adj = self._adj.get(a)
        if adj is None:
            return frozenset()
        return frozenset(q2 for q in subset for q2 in adj.get(q, ()))

    def accepts(self, word: str | Iterable[str]) -> bool:
        cur = frozenset([self.start])
        for a in word:
            cur = self.step(cur, a)
            if not cur:
                return False
        return bool(cur & self.finals)

    def is_unary(self) -> bool:
        return len(self.alphabet) == 1


@dataclass(frozen=True)
class Query:
    """A big-O question: is s big-O of s_prime in the given automaton?"""

    automaton: WeightedAutomaton
    s: str
    s_prime: str

    def __post_init__(self):
        self.automaton.index(self.s)
        self.automaton.index(self.s_prime)


@dataclass(frozen=True)
class Verdict:
    """Every decider's answer to a Query.  `witness` is the report's JSON
    witness, set exactly for not-big-o; `subqueries` counts the bounded
    decider's plus-subqueries and is None for the others; `unknown_formulas`
    are the sentences left unresolved when the verdict is unknown."""

    verdict: str  # is-big-o | not-big-o | unknown
    witness: Optional[dict] = None
    subqueries: Optional[int] = None
    unknown_formulas: tuple = ()


@dataclass(frozen=True)
class RatioProfile:
    entries: tuple  # of (word, Fraction, Fraction), sorted by (len, word)
    max_ratio: object  # Fraction or INF
    attained_at: Optional[str]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: Optional[str] = None
    state: Optional[str] = None

    def __bool__(self):
        return self.ok


def _step(vec: dict, rows) -> dict:
    """Integer row vector {state: x} times integer sparse rows."""
    out: dict = {}
    for i, x in vec.items():
        for j, y in rows[i]:
            out[j] = out.get(j, 0) + x * y
    return out


def _final_sum(wa: WeightedAutomaton, vec: dict) -> int:
    return sum(vec.get(wa._idx[f], 0) for f in wa.finals)


def weight_blocks(
    wa: WeightedAutomaton, s: str, blocks: Iterable[tuple[str, int]]
) -> Fraction:
    """Weight of a1^n1 a2^n2 ... from s: an integer vector steps through the
    letters' sparse rows, and the product of their denominators divides last."""
    vec = {wa.index(s): 1}
    den = 1
    for a, count in blocks:
        if count < 0:
            raise InputError("negative block length")
        try:
            d, rows = wa.sparse_rows[a]
        except KeyError:
            raise InputError(f"unknown symbol {a!r}") from None
        for _ in range(count):
            vec = _step(vec, rows)
        den *= d**count
    return Fraction(_final_sum(wa, vec), den)


def fresh_state(taken: set, base: str) -> str:
    """`base`, or `base` with the smallest numeric suffix not in `taken`;
    the name returned is added to `taken`."""
    name, k = base, 0
    while name in taken:
        name = f"{base}{k}"
        k += 1
    taken.add(name)
    return name


def explore(seeds, succ, cap: Optional[int] = None, stop=None):
    """Breadth-first numbering of everything reachable from `seeds`.

    `succ(u)` yields (label, v) pairs.  Returns the states in discovery
    order and the edges as (i, label, j) index triples in the order they
    were followed.  Raises ResourceError when a new state would make the
    count exceed `cap`.  The search ends at the first newly numbered state
    that `stop` accepts, which is then `states[-1]` and the target of
    `edges[-1]`; seeds are never checked by `stop`.
    """
    states = list(dict.fromkeys(seeds))
    index = {u: i for i, u in enumerate(states)}
    edges = []
    for i, u in enumerate(states):  # the list grows behind the cursor: FIFO
        for label, v in succ(u):
            j = index.get(v)
            if j is None:
                if cap is not None and len(states) >= cap:
                    raise ResourceError(f"state space exceeded cap={cap} states")
                j = index[v] = len(states)
                states.append(v)
                if stop is not None and stop(v):
                    edges.append((i, label, j))
                    return states, edges
            edges.append((i, label, j))
    return states, edges


def path_to(edges, j) -> list:
    """The labels on the path by which a single-seed `explore` first reached
    state `j`: a shortest path, and [] for the seed."""
    # state index -> (source, label) of its first edge in: the earliest wins
    first = {k: (i, label) for i, label, k in reversed(edges)}
    labels = []
    while j:
        j, label = first[j]
        labels.append(label)
    return labels[::-1]


def trim(seeds, finals, edges) -> set:
    """States on some path from `seeds` to `finals` along (u, label, v)
    edges: the reach of the seeds intersected with the co-reach of the
    finals."""
    fwd: dict = {}
    bwd: dict = {}
    for u, a, v in edges:
        fwd.setdefault(u, []).append((a, v))
        bwd.setdefault(v, []).append((a, u))
    reach = set(explore(seeds, lambda u: fwd.get(u, ()))[0])
    co, _ = explore(
        (f for f in finals if f in reach),
        lambda v: ((a, u) for a, u in bwd.get(v, ()) if u in reach),
    )
    return set(co)


def strong_components(succ) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of the digraph whose vertex v has the
    successors `succ[v]`, by iterative Tarjan in linear time: the components
    as lists of vertices, in reverse topological order, and each vertex's
    component index."""
    n = len(succ)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    scc_of = [0] * n
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(succ[root]))]
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
                    work.append((w, iter(succ[w])))
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
                    scc_of[w] = len(sccs)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs, scc_of


def single_final_shape(wa: WeightedAutomaton) -> Optional[str]:
    """The unique final state if it exists and has no outgoing transitions."""
    if len(wa.finals) != 1:
        return None
    (t,) = wa.finals
    i = wa.index(t)
    if any(rows[i] for _, rows in wa.sparse_rows.values()):
        return None
    return t


def normalize_single_final(wa: WeightedAutomaton) -> WeightedAutomaton:
    """Rebuild with a unique final state that has no outgoing transitions.

    Weights of all nonempty words are preserved exactly from every original
    state.  The empty word keeps its weight only from originally non-final
    states: a fresh final cannot make nu(epsilon) = 1 for the old finals, so
    deciders account for the empty word through the language-containment
    check instead.  Idempotent on automata already in shape.
    """
    if single_final_shape(wa) is not None:
        return wa
    t = fresh_state(set(wa.states), "t")
    fin = {wa.index(f) for f in wa.finals}
    n = wa.n
    sparse = {}
    for a, (d, rows) in wa.sparse_rows.items():
        out = []
        for row in rows:
            extra = sum(x for j, x in row if j in fin)
            out.append(row + ((n, extra),) if extra else row)
        out.append(())
        sparse[a] = d, tuple(out)
    return WeightedAutomaton(wa.states + (t,), wa.alphabet, sparse, frozenset([t]))


def nfa_of(wa: WeightedAutomaton, s: str) -> Nfa:
    """NFA with transitions wherever the automaton's weight is positive."""
    wa.index(s)
    st = wa.states
    trans = frozenset(
        (st[i], a, st[j])
        for a, (_, rows) in wa.sparse_rows.items()
        for i, row in enumerate(rows)
        for j, _ in row
    )
    return Nfa(wa.states, wa.alphabet, trans, s, frozenset(wa.finals))


# words `ratio_profile` enumerates before it gives up
PROFILE_CAP = 10**6


def ratio_profile(q: Query, max_len: int) -> RatioProfile:
    """Enumerate all words up to max_len and report the extreme weight ratio.

    Conventions: 0/0 = 0 and x/0 = infinity for x > 0.  Raises ResourceError
    if the enumeration would exceed `PROFILE_CAP` words; the count stops
    there.
    """
    if max_len < 0:
        raise InputError("max_len must be non-negative")
    wa = q.automaton
    k = len(wa.alphabet)
    total = level = 1
    for _ in range(max_len if k else 0):
        level *= k
        total += level
        if total > PROFILE_CAP:
            raise ResourceError(
                f"enumerating more than {PROFILE_CAP} words; lower max_len"
            )
    steps = [(a, *wa.sparse_rows[a]) for a in wa.alphabet]
    entries = []
    best: object = Fraction(0)
    attained = None
    # each word's s and s' vectors share its denominator, the product of its
    # letters' denominators; words with both vectors zero are not extended
    level = [("", {wa.index(q.s): 1}, {wa.index(q.s_prime): 1}, 1)]
    for length in range(max_len + 1):
        for word, vs, vp, den in level:
            ns, np_ = _final_sum(wa, vs), _final_sum(wa, vp)
            if ns or np_:
                entries.append((word, Fraction(ns, den), Fraction(np_, den)))
                if not np_:
                    if best is not INF:
                        best, attained = INF, word
                else:
                    r = Fraction(ns, np_)
                    if best is not INF and r > best:
                        best, attained = r, word
        if length == max_len:
            break
        level = [
            (word + a, _step(vs, rows), _step(vp, rows), den * d)
            for word, vs, vp, den in level
            if vs or vp
            for a, d, rows in steps
        ]
    return RatioProfile(tuple(entries), best, attained)


def validate_lmc(wa: WeightedAutomaton) -> ValidationReport:
    """Check LMC shape: non-final rows sum to 1 across symbols, finals to 0."""
    one, zero = Fraction(1), Fraction(0)
    for i, q in enumerate(wa.states):
        total = sum(
            (Fraction(sum(x for _, x in rows[i]), d) for d, rows in wa.sparse_rows.values()),
            zero,
        )
        if q in wa.finals:
            if total != zero:
                return ValidationReport(False, "final state has outgoing weight", q)
        elif total != one:
            return ValidationReport(False, "non-final row weights do not sum to 1", q)
    return ValidationReport(True)


def validate_pa(wa: WeightedAutomaton, start: str) -> ValidationReport:
    """Check probabilistic-automaton shape: every M(a) row sums to 1."""
    if start not in wa.states:
        return ValidationReport(False, f"start state {start!r} undeclared", start)
    for a in wa.alphabet:
        d, rows = wa.sparse_rows[a]
        for i, q in enumerate(wa.states):
            if sum(x for _, x in rows[i]) != d:
                return ValidationReport(False, f"row not stochastic for symbol {a!r}", q)
    return ValidationReport(True)


@dataclass(frozen=True)
class Lmc:
    """A weighted automaton that passes the LMC refinement check."""

    underlying: WeightedAutomaton

    def __post_init__(self):
        report = validate_lmc(self.underlying)
        if not report:
            raise InputError(f"not an LMC: {report.reason} at {report.state!r}")


@dataclass(frozen=True)
class ProbAutomaton:
    """A weighted automaton stochastic per symbol, with a start state."""

    underlying: WeightedAutomaton
    start: str

    def __post_init__(self):
        report = validate_pa(self.underlying, self.start)
        if not report:
            raise InputError(f"not a probabilistic automaton: {report.reason}")
