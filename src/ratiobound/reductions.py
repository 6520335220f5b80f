"""Answer-preserving reductions and hardness-style instance generators,
used both as verified transformations and as labeled test-instance sources."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .automata import (
    InputError,
    Lmc,
    ProbAutomaton,
    Query,
    ResourceError,
    WeightedAutomaton,
    explore,
    fresh_state,
    normalize_single_final,
    trim,
    validate_lmc,
)
from .nfaops import ChrobakNf

# lengths `gen_hardness` scans for coverage before it gives up
HARDNESS_HORIZON_CAP = 100_000


def _designated(wa: WeightedAutomaton) -> str:
    """The alphabet's first letter, which the gadgets read; any letter would
    do."""
    if not wa.alphabet:
        raise InputError("the alphabet is empty: no symbol to designate")
    return wa.alphabet[0]


def to_big_theta(q: Query) -> Query:
    """Two-direction question from a one-direction one: new states q0, q0'
    split weight 1/2 over s and s' (resp. route all of it to s'), so q0 is
    big-Theta of q0' exactly when s is big-O of s'."""
    wa = q.automaton
    a = _designated(wa)
    taken = set(wa.states)
    q0 = fresh_state(taken, "q")
    q1 = fresh_state(taken, "q'")
    trans = wa.transitions()
    if q.s == q.s_prime:
        trans.append((q0, a, Fraction(1), q.s))
    else:
        trans.append((q0, a, Fraction(1, 2), q.s))
        trans.append((q0, a, Fraction(1, 2), q.s_prime))
    trans.append((q1, a, Fraction(1), q.s_prime))
    return Query(
        WeightedAutomaton.from_transitions(
            wa.states + (q0, q1), wa.alphabet, trans, wa.finals
        ),
        q0,
        q1,
    )


def from_big_theta(q: Query) -> Query:
    """One-direction question from a two-direction one.

    Every transition is split in two by a fresh midpoint state, doubling
    each letter of accepted words; the added gadget reaches s after `a` and
    s' after `aa` from q0 (and symmetrically from q0'), so the two original
    directions land on words of different parity.
    """
    wa = q.automaton
    a = _designated(wa)
    taken = set(wa.states)
    states = list(wa.states)
    trans = []
    for i, (src, sym, w, dst) in enumerate(wa.transitions()):
        mid = fresh_state(taken, f"[{src}.{sym}.{dst}]")
        states.append(mid)
        trans.append((src, sym, w, mid))
        trans.append((mid, sym, Fraction(1), dst))
    q0 = fresh_state(taken, "q")
    q1 = fresh_state(taken, "q'")
    b1 = fresh_state(taken, "dot1")
    b2 = fresh_state(taken, "dot2")
    states.extend([q0, q1, b1, b2])
    half = Fraction(1, 2)
    trans.append((q0, a, half, q.s))
    trans.append((q0, a, half, b1))
    trans.append((b1, a, Fraction(1), q.s_prime))
    trans.append((q1, a, half, q.s_prime))
    trans.append((q1, a, half, b2))
    trans.append((b2, a, Fraction(1), q.s))
    return Query(
        WeightedAutomaton.from_transitions(
            tuple(states), wa.alphabet, trans, wa.finals
        ),
        q0,
        q1,
    )


@dataclass(frozen=True)
class CompletedQuery:
    automaton: WeightedAutomaton
    s: str
    s_prime: str
    delta: Fraction


def complete_for_eventual(wa: WeightedAutomaton, s: str, s_prime: str) -> CompletedQuery:
    """Add a low-weight escape branch so every nonempty word gets weight
    delta^|w| extra from s'.

    delta is half the least positive weight (and at most 1/2), so
    0 < delta < 1 and delta lies below every positive weight.  s' is copied
    fresh if it has incoming transitions, and the automaton is normalized to
    a single final state first.
    """
    if s == s_prime:
        raise InputError("completion needs distinct query states")
    Query(wa, s, s_prime)  # both must name states before normalising adds one
    wa = normalize_single_final(wa)
    weights = [w for (_, _, w, _) in wa.transitions() if w > 0]
    delta = min(weights + [Fraction(1)]) / 2
    (t,) = wa.finals
    pi = wa.index(s_prime)
    has_incoming = any(
        j == pi for _, rows in wa.sparse_rows.values() for row in rows for j, _ in row
    )
    taken = set(wa.states)
    trans = wa.transitions()
    states = list(wa.states)
    if has_incoming or s_prime in wa.finals:
        # a fresh non-final copy: nonempty-word weights agree with s', and
        # only those matter to the eventual comparison
        new_sp = fresh_state(taken, f"{s_prime}~")
        states.append(new_sp)
        for a in wa.alphabet:
            d, rows = wa.sparse_rows[a]
            for j, x in rows[pi]:
                trans.append((new_sp, a, Fraction(x, d), wa.states[j]))
        s_prime = new_sp

    dot = fresh_state(taken, "dot")
    states.append(dot)
    for x in wa.alphabet:
        trans.append((s_prime, x, delta, t))
        trans.append((s_prime, x, delta, dot))
        trans.append((dot, x, delta, dot))
        trans.append((dot, x, delta, t))
    merged: dict = {}
    for (src, a, w, dst) in trans:
        merged[(src, a, dst)] = merged.get((src, a, dst), Fraction(0)) + w
    out = WeightedAutomaton.from_transitions(
        tuple(states),
        wa.alphabet,
        [(src, a, w, dst) for (src, a, dst), w in merged.items()],
        wa.finals,
    )
    return CompletedQuery(out, s, s_prime, delta)


@dataclass(frozen=True)
class UndecidableInstance:
    lmc: Lmc
    s: str
    s_prime: str
    s_double_prime: str
    pa_start: str
    equal_branch: str
    final: str


ACC, REJ, TICK = "acc", "rej", "tick"


def gen_undecidable(pa: ProbAutomaton) -> UndecidableInstance:
    """Two-branch chain from a probabilistic automaton over two letters: one
    branch simulates the automaton at scale 1/4, the other weighs every
    letter 1/4, so a round `w acc` multiplies the branch ratio by 2 Pr(w)
    and a word of acceptance probability above 1/2 pumps it without bound.
    Two letters already make the question undecidable; other alphabets are
    an InputError."""
    wa = pa.underlying
    if pa.start in wa.finals:
        raise InputError("start state must be non-accepting")
    if len(wa.alphabet) != 2:
        raise InputError(f"the construction needs 2 letters, not {len(wa.alphabet)}")
    for reserved in (ACC, REJ, TICK):
        if reserved in wa.alphabet:
            raise InputError(f"alphabet already contains reserved symbol {reserved!r}")
    quarter = Fraction(1, 4)
    taken = set(wa.states)
    names = {nm: fresh_state(taken, nm) for nm in ("s", "s'", "s''", "s0", "t")}
    states = wa.states + tuple(names.values())
    alphabet = wa.alphabet + (ACC, REJ, TICK)
    trans = []
    for (src, a, w, dst) in wa.transitions():
        trans.append((src, a, quarter * w, dst))
    half = Fraction(1, 2)
    for qstate in wa.states:
        if qstate in wa.finals:
            trans.append((qstate, ACC, half, pa.start))
        else:
            trans.append((qstate, REJ, half, names["t"]))
    s0 = names["s0"]
    for a in wa.alphabet:
        trans.append((s0, a, quarter, s0))
    trans.append((s0, ACC, quarter, s0))
    trans.append((s0, REJ, quarter, names["t"]))
    trans.append((names["s"], TICK, half, s0))
    trans.append((names["s"], TICK, half, pa.start))
    trans.append((names["s'"], TICK, Fraction(1), s0))
    trans.append((names["s''"], TICK, Fraction(99, 100), s0))
    trans.append((names["s''"], TICK, Fraction(1, 100), pa.start))
    out = WeightedAutomaton.from_transitions(
        states, alphabet, trans, frozenset([names["t"]])
    )
    return UndecidableInstance(
        Lmc(out),
        names["s"],
        names["s'"],
        names["s''"],
        pa.start,
        s0,
        names["t"],
    )


@dataclass(frozen=True)
class HardnessInstance:
    lmc: Lmc
    s: str
    s_prime: str
    universal: bool  # does the source NFA accept every length >= 0
    label_big_o: bool  # coverage of every length >= 2, which the chain tests


def gen_hardness(cnf: ChrobakNf) -> HardnessInstance:
    """Unary chain from a restricted Chrobak-form NFA with a one-state stem.

    The first branch fixes the reference decay rate; the second mixes a
    strictly smaller rate with cycle branches that track the NFA's accepted
    lengths at the reference rate.  The ratio stays bounded exactly when
    the cycles cover every length >= 2.  Coverage is scanned up to the
    cycles' lcm; when that is past HARDNESS_HORIZON_CAP lengths and every
    length up to the cap is covered, ResourceError is raised.
    """
    if len(cnf.stem) != 1:
        raise InputError("hardness construction needs a one-state stem")
    for length, offsets in cnf.cycles:
        if len(offsets) != 1:
            raise InputError(
                "hardness construction needs the restricted form: one accepting state per cycle"
            )
    m = len(cnf.cycles)
    if m == 0:
        raise InputError("hardness construction needs at least one cycle")
    # coverage of every length >= 2 repeats with the cycles' lcm
    horizon = 1 + lcm(*(length for length, _ in cnf.cycles))
    covered = all(cnf.accepts(n) for n in range(2, 2 + min(horizon, HARDNESS_HORIZON_CAP)))
    if covered and horizon > HARDNESS_HORIZON_CAP:
        raise ResourceError(
            f"coverage horizon {horizon} exceeds cap={HARDNESS_HORIZON_CAP} lengths"
        )
    states = ["s", "u", "v", "t", "s'"]
    half = Fraction(1, 2)
    trans = [
        ("s", "a", Fraction(1), "u"),
        ("u", "a", half, "u"),
        ("u", "a", half, "t"),
        ("s'", "a", Fraction(1, m + 1), "v"),
        ("v", "a", Fraction(1, 4), "v"),
        ("v", "a", Fraction(3, 4), "t"),
    ]
    for ci, (length, offsets) in enumerate(cnf.cycles):
        (accept_at,) = offsets
        cyc = [f"c{ci}_{j}" for j in range(length)]
        states.extend(cyc)
        trans.append(("s'", "a", Fraction(1, m + 1), cyc[0]))
        heavy = half**length
        for j in range(length):
            src = cyc[(length + j - 1) % length]
            if j == accept_at:
                trans.append((src, "a", heavy, cyc[j]))
                trans.append((src, "a", 1 - heavy, "t"))
            else:
                trans.append((src, "a", Fraction(1), cyc[j]))
    out = WeightedAutomaton.from_transitions(
        tuple(states), ("a",), trans, frozenset(["t"])
    )
    universal = bool(cnf.stem[0]) and cnf.accepts(1) and covered
    return HardnessInstance(Lmc(out), "s", "s'", universal, covered)


@dataclass(frozen=True)
class Value1Reduction:
    lmc: Lmc
    s: str
    s_prime: str
    # value-1 holds for the source automaton iff s is NOT big-O of s'


DOLLAR = "$"


def value1_to_bigo(pa: ProbAutomaton) -> Value1Reduction:
    """Chain whose weight ratio from s against s' is unbounded exactly when
    the probabilistic automaton has value 1.

    The chain simulates the acceptance-inverted automaton with all letters
    scaled by 1/(|alphabet|+1); a collision with the reserved end marker is
    rejected rather than renamed, keeping outputs reproducible.
    """
    wa = pa.underlying
    if DOLLAR in wa.alphabet:
        raise InputError(f"alphabet already contains the reserved symbol {DOLLAR!r}")
    inv_finals = frozenset(wa.states) - wa.finals
    scale = Fraction(1, len(wa.alphabet) + 1)
    taken = set(wa.states)
    s, sp, s0, rej, acc = (
        fresh_state(taken, nm) for nm in ("s", "s'", "s0", "rej2", "acc2")
    )
    states = wa.states + (s, sp, s0, rej, acc)
    alphabet = wa.alphabet + (DOLLAR,)
    trans = []
    for (src, a, w, dst) in wa.transitions():
        trans.append((src, a, scale * w, dst))
    for qstate in wa.states:
        target = acc if qstate in inv_finals else rej
        trans.append((qstate, DOLLAR, scale, target))
    trans.append((sp, DOLLAR, Fraction(1), pa.start))
    trans.append((s, DOLLAR, Fraction(1), s0))
    trans.append((s0, DOLLAR, scale, acc))
    for a in wa.alphabet:
        trans.append((s0, a, scale, s0))
    # rej circulates forever so the result still validates as a chain
    for a in alphabet:
        trans.append((rej, a, scale, rej))
    out = WeightedAutomaton.from_transitions(
        states, alphabet, trans, frozenset([acc])
    )
    return Value1Reduction(Lmc(out), s, sp)


def bigo_to_value1(q: Query) -> ProbAutomaton:
    """Probabilistic automaton with value 1 exactly when s is not big-O of s'.

    Two copies of the chain run under a shared control marker; unmatched
    probability drains to a recoverable sink, and acceptance decisions are
    read off at the markers.  Requires a chain with a sink so the mass of
    long words vanishes.
    """
    wa = q.automaton
    report = validate_lmc(wa)
    if not report:
        raise InputError(f"value-1 reduction expects an LMC: {report.reason}")
    if DOLLAR in wa.alphabet:
        raise InputError(f"alphabet already contains the reserved symbol {DOLLAR!r}")
    if not _has_sink(wa, q.s, q.s_prime):
        raise InputError(
            "value-1 reduction needs a sink: some reachable state that cannot reach a final state"
        )
    cs = {qs: f"{qs}@s" for qs in wa.states}
    cp = {qs: f"{qs}@s'" for qs in wa.states}
    q0, acc, rej, sink1, sink2 = "q0", "ACC", "REJ", "sink1", "sink2"
    states = (
        tuple(cs.values())
        + tuple(cp.values())
        + (q0, acc, rej, sink1, sink2)
    )
    alphabet = wa.alphabet + (DOLLAR,)
    trans = []
    for copy in (cs, cp):
        for (src, a, w, dst) in wa.transitions():
            trans.append((copy[src], a, w, copy[dst]))
        for qs in wa.states:
            i = wa.index(qs)
            for a in wa.alphabet:
                d, rows = wa.sparse_rows[a]
                slack = 1 - Fraction(sum(x for _, x in rows[i]), d)
                if slack > 0:
                    trans.append((copy[qs], a, slack, sink1))
    for qs in wa.states:
        if qs in wa.finals:
            trans.append((cs[qs], DOLLAR, Fraction(1), acc))
            trans.append((cp[qs], DOLLAR, Fraction(1), rej))
        else:
            trans.append((cs[qs], DOLLAR, Fraction(1), q0))
            trans.append((cp[qs], DOLLAR, Fraction(1), q0))
    trans.append((q0, DOLLAR, Fraction(1, 2), cs[q.s]))
    trans.append((q0, DOLLAR, Fraction(1, 2), cp[q.s_prime]))
    for a in wa.alphabet:
        trans.append((q0, a, Fraction(1), sink2))
    for a in alphabet:
        trans.append((acc, a, Fraction(1), acc))
        trans.append((rej, a, Fraction(1), rej))
        trans.append((sink2, a, Fraction(1), sink2))
    trans.append((sink1, DOLLAR, Fraction(1), q0))
    for a in wa.alphabet:
        trans.append((sink1, a, Fraction(1), sink1))
    out = WeightedAutomaton.from_transitions(states, alphabet, trans, frozenset([acc]))
    return ProbAutomaton(out, q0)


def _has_sink(wa: WeightedAutomaton, s: str, s_prime: str) -> bool:
    """Some state reachable from the query states cannot reach a final state."""
    rows = [r for _, r in wa.sparse_rows.values()]
    reach, edges = explore(
        {wa.index(s), wa.index(s_prime)},
        lambda i: ((None, j) for r in rows for j, _ in r[i]),
    )
    finals = [k for k, i in enumerate(reach) if wa.states[i] in wa.finals]
    return len(trim(range(len(reach)), finals, edges)) < len(reach)
