"""Core data model: weighted automata, LMC/PA validation, weights, ratio oracle.

All weights are exact rationals (fractions.Fraction, always canonical).
Values are immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional


class InputError(ValueError):
    """Bad states, symbols, or parameters supplied by the caller."""


class FormatError(ValueError):
    """Malformed external document (JSON schema violations and the like)."""


class ResourceError(RuntimeError):
    """A configurable enumeration cap was exceeded."""


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

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_pow(a: Matrix, n: int) -> Matrix:
    result = mat_identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def vec_mat(v: tuple[Fraction, ...], m: Matrix) -> tuple[Fraction, ...]:
    return tuple(
        sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))
    )


@dataclass(frozen=True, eq=False)
class WeightedAutomaton:
    """Weighted automaton over (Q>=0, +, x) with per-symbol transition matrices.

    State ids are strings externally and dense indices internally; the index
    map is part of the value and stable across operations.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    trans: dict  # symbol -> Matrix
    finals: frozenset

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise InputError("duplicate state ids")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("duplicate alphabet symbols")
        idx = {q: i for i, q in enumerate(self.states)}
        object.__setattr__(self, "_idx", idx)
        n = len(self.states)
        if set(self.trans) != set(self.alphabet):
            raise InputError("transition matrices must cover the alphabet exactly")
        for a, m in self.trans.items():
            if len(m) != n or any(len(row) != n for row in m):
                raise InputError(f"matrix for {a!r} is not {n}x{n}")
            for row in m:
                for w in row:
                    if w and w < 0:
                        raise InputError("negative transition weight")
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
        n = len(states)
        rows = {a: [[Fraction(0)] * n for _ in range(n)] for a in alphabet}
        seen = set()
        for q, a, w, q2 in transitions:
            if q not in idx or q2 not in idx:
                raise InputError(f"transition references unknown state: {q!r}->{q2!r}")
            if a not in rows:
                raise InputError(f"transition references unknown symbol {a!r}")
            if (q, a, q2) in seen:
                raise InputError(f"duplicate transition triple ({q!r},{a!r},{q2!r})")
            seen.add((q, a, q2))
            w = Fraction(w)
            if w < 0:
                raise InputError("negative transition weight")
            rows[a][idx[q]][idx[q2]] = w
        trans = {a: tuple(tuple(r) for r in rows[a]) for a in alphabet}
        return cls(states, alphabet, trans, frozenset(finals))

    def index(self, q: str) -> int:
        try:
            return self._idx[q]
        except KeyError:
            raise InputError(f"unknown state {q!r}") from None

    def matrix(self, a: str) -> Matrix:
        try:
            return self.trans[a]
        except KeyError:
            raise InputError(f"unknown symbol {a!r}") from None

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def sparse_rows(self) -> dict:
        """symbol -> (d, rows): row i lists (j, x) for each nonzero weight
        x/d of the symbol's matrix, where d is the lcm of its denominators."""
        out = {}
        for a, m in self.trans.items():
            d = lcm(*(w.denominator for row in m for w in row))
            out[a] = d, tuple(
                tuple((j, int(w * d)) for j, w in enumerate(r) if w) for r in m
            )
        return out

    def transitions(self) -> list[tuple[str, str, Fraction, str]]:
        out = []
        for a in self.alphabet:
            m = self.trans[a]
            for i, q in enumerate(self.states):
                for j, q2 in enumerate(self.states):
                    if m[i][j] != 0:
                        out.append((q, a, m[i][j], q2))
        return out

    def final_vector(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(1) if q in self.finals else Fraction(0) for q in self.states
        )

    def is_unary(self) -> bool:
        return len(self.alphabet) == 1


@dataclass(frozen=True)
class Nfa:
    """Boolean automaton extracted from positive-weight transitions."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: frozenset  # of (q, a, q2)
    start: str
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
class RatioProfile:
    entries: tuple  # of (word, Fraction, Fraction), sorted by (len, word)
    max_ratio: object  # Fraction or INF
    attained_at: Optional[str]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: Optional[str] = None
    state: Optional[str] = None
    expected: Optional[Fraction] = None
    actual: Optional[Fraction] = None

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


def weight(wa: WeightedAutomaton, s: str, word: Iterable[str]) -> Fraction:
    """Total weight of accepting paths for `word` from `s`.

    The weight of the empty word is 1 if s is final, else 0.
    """
    return weight_blocks(wa, s, ((a, 1) for a in word))


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
        wa.matrix(a)  # InputError for an unknown symbol
        d, rows = wa.sparse_rows[a]
        for _ in range(count):
            vec = _step(vec, rows)
        den *= d**count
    return Fraction(_final_sum(wa, vec), den)


def fresh_state(taken: set, base: str) -> str:
    """`base`, or `base` with the smallest numeric suffix not in `taken`."""
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def closure(seed, succ) -> set:
    """Everything reachable from `seed` along `succ` (breadth first)."""
    out = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ(u):
                if v not in out:
                    out.add(v)
                    nxt.append(v)
        frontier = nxt
    return out


def single_final_shape(wa: WeightedAutomaton) -> Optional[str]:
    """The unique final state if it exists and has no outgoing transitions."""
    if len(wa.finals) != 1:
        return None
    (t,) = wa.finals
    i = wa.index(t)
    for a in wa.alphabet:
        if any(w != 0 for w in wa.trans[a][i]):
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
    states = wa.states + (t,)
    fin = [wa.index(f) for f in wa.finals]
    n = wa.n
    trans = {}
    for a in wa.alphabet:
        m = wa.trans[a]
        rows = []
        for i in range(n):
            extra = sum((m[i][j] for j in fin), Fraction(0))
            rows.append(tuple(m[i]) + (extra,))
        rows.append(tuple(Fraction(0) for _ in range(n + 1)))
        trans[a] = tuple(rows)
    return WeightedAutomaton(states, wa.alphabet, trans, frozenset([t]))


def nfa_of(wa: WeightedAutomaton, s: str) -> Nfa:
    """NFA with transitions wherever the automaton's weight is positive."""
    wa.index(s)
    trans = frozenset(
        (q, a, q2)
        for a in wa.alphabet
        for i, q in enumerate(wa.states)
        for j, q2 in enumerate(wa.states)
        if wa.trans[a][i][j] > 0
    )
    return Nfa(wa.states, wa.alphabet, trans, s, frozenset(wa.finals))


def ratio_profile(q: Query, max_len: int, cap: int = 10**6) -> RatioProfile:
    """Enumerate all words up to max_len and report the extreme weight ratio.

    Conventions: 0/0 = 0 and x/0 = infinity for x > 0.  Raises ResourceError
    if the enumeration would exceed `cap` words.
    """
    if max_len < 0:
        raise InputError("max_len must be non-negative")
    wa = q.automaton
    k = len(wa.alphabet)
    total = (max_len + 1) if k <= 1 else (k ** (max_len + 1) - 1) // (k - 1)
    if k >= 1 and total > cap:
        raise ResourceError(
            f"enumerating {total} words exceeds cap={cap}; lower max_len or raise cap"
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
            (w for a in wa.alphabet for w in wa.trans[a][i]), zero
        )
        if q in wa.finals:
            if total != zero:
                return ValidationReport(
                    False, "final state has outgoing weight", q, zero, total
                )
        elif total != one:
            return ValidationReport(
                False, "non-final row weights do not sum to 1", q, one, total
            )
    return ValidationReport(True)


def validate_pa(wa: WeightedAutomaton, start: str) -> ValidationReport:
    """Check probabilistic-automaton shape: every M(a) row sums to 1."""
    if start not in wa.states:
        return ValidationReport(False, f"start state {start!r} undeclared", start)
    one = Fraction(1)
    for a in wa.alphabet:
        for i, q in enumerate(wa.states):
            total = sum(wa.trans[a][i], Fraction(0))
            if total != one:
                return ValidationReport(
                    False, f"row not stochastic for symbol {a!r}", q, one, total
                )
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
