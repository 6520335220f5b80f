"""Seeded, labelled workloads for the ratiobound benchmark.

Every workload is a fixed list of queries (one *pass*).  The seed changes
the rates and shapes drawn inside each slot of the list, never the number
or kind of slots, so runs with different seeds time the same mix of work.

Labels come from closed forms computed here, independently of the
library's deciders:

* A *block chain* reads ``l0^n0 ... l(m-1)^n(m-1)``.  Each side (``s``, and
  each of the ``k`` branches of ``s'``) is one path: block ``i`` loops on
  letter ``li`` with rate ``r_i`` and leaves on ``li`` with ``1 - r_i``.
  So ``nu(w) = c * prod r_i^n_i`` up to constants, and the ratio is
  unbounded iff some ``d >= 0`` has ``<d, ln(p / q_b)> > 0`` for every
  branch ``b`` (Gordan's alternative).  Exact ties ``p_i = q_bi`` are
  decided exactly; a case whose sign cannot be settled numerically is left
  unlabelled.
* ``gen_hardness`` instances are labelled by their ``universal`` field and
  ``planted_unambiguous`` pairs by construction.
* ``oracle`` queries are checked against the ratio profile recomputed by
  walking the closed form (chains) or the single path (planted pairs).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from decimal import Context
from fractions import Fraction
from typing import Callable, Optional

IS_BIG_O, NOT_BIG_O = "is-big-o", "not-big-o"

# Chain rates are k/100 with k odd and not a multiple of 5, so every rate
# has the same denominator and instances of one shape cost about the same.
RATE_GRID = tuple(Fraction(k, 100) for k in range(51, 70) if k % 2 and k % 5)
LETTERS = "abcdefgh"

# The order of slots in each pass.  A pass is short (seconds), so that a
# run times many passes and its per-pass figures can be medians.  The slot
# counts put the median query of a pass inside one group of similar cost,
# and the slow slots are spread between the fast ones.  A "-tie" slot
# draws a chain with at least one exact tie p_i = q_bi (the source of the
# decider's `unknown` verdicts); the other chain slots draw chains without.
#
# `bounded`: relative_orderings(61/100) and two m=2 divergent chains carry
# the exact witness (most of the pass's time); the twelve m=3 holding
# chains, m=4 and relative_orderings(62/100) carry the plus-subqueries,
# spectral and semi-decision work and hold the median.
BOUNDED_SLOTS = (
    "p61", "m3", "m3", "k1", "m3", "m3-tie", "m3", "m4", "m3",
    "p62", "m3", "k1", "m3", "m3", "m3-tie", "m3", "m3",
)
# `unary-oracle`: 120 millisecond unary `check` queries hold the median;
# the `oracle` queries (ratio_profile) take most of the pass's time.
UNARY_ORACLE_SLOTS = (
    ("hardness", "planted", "random") * 10
    + ("o-chain",)
    + ("hardness", "planted", "random") * 10
    + ("o-planted",)
    + ("hardness", "planted", "random") * 10
    + ("o-p62",)
    + ("hardness", "planted", "random") * 10
    + ("o-planted",)
)
ORACLE_CHAIN_MAX_LEN = 9
ORACLE_PLANTED_MAX_LEN = 200
# An `oracle` query on a planted pair costs about its number of states
# (1 to 7 per copy, 0.02 to 0.5 s at --max-len 200), so the slot draws
# pairs of one size, and the seed does not change the pass's cost.
ORACLE_PLANTED_STATES = 4

# Slots whose first query runs once, untimed, before the timed passes, so
# that first-call costs (lazy imports, caches) are not timed.
WARMUP = {
    "bounded": ("p62", "m3"),
    "unary-oracle": ("hardness", "planted", "random", "o-planted"),
}

# Per-query time cap (seconds): over twice the slowest query measured on a
# slow host, and short enough that a run capped at the guard in run.py
# still ends within three minutes.
CAPS = {"bounded": 30, "unary-oracle": 10}

WORKLOAD_PARAMS = {
    "bounded": {
        "slots": BOUNDED_SLOTS,
        "p61": "relative_orderings(61/100), label not-big-o",
        "p62": "relative_orderings(62/100), label is-big-o",
        "k1": "m=2 block chain with 1 compared branch, no exact tie, label not-big-o",
        "m3/m4": "m-block chain with 2 compared branches, no exact tie, label is-big-o",
        "-tie": "the same with at least one exact tie p_i = q_bi",
        "rates": "k/100, k in RATE_GRID",
        "mode": "check --mode bounded",
    },
    "unary-oracle": {
        "slots": "(hardness, planted, random) x 40, with o-chain, o-p62 and two o-planted between",
        "hardness": "gen_hardness(random_restricted_chrobak(max_total=10)), label = universal; check",
        "planted": "planted_unambiguous, alternating expansive/contractive; check",
        "random": "random_wa(nstates=3..6, unary, density=0.4) q0 vs q1, unlabelled; check",
        "o-chain": f"oracle on an m=2 block chain, 2 branches, --max-len {ORACLE_CHAIN_MAX_LEN}",
        "o-p62": f"oracle on relative_orderings(62/100), --max-len {ORACLE_CHAIN_MAX_LEN}",
        "o-planted": f"oracle on a planted_unambiguous pair with {ORACLE_PLANTED_STATES} states "
        f"per copy, --max-len {ORACLE_PLANTED_MAX_LEN}",
    },
}


@dataclass
class Query:
    """One CLI call.  `argv` lacks the `--file` path, which the runner adds."""

    name: str
    command: str  # "check" | "oracle"
    argv: list
    document: str
    label: Optional[str] = None  # expected check verdict; None = unlabelled
    expect: Optional[Callable[[], dict]] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# block chains and their closed-form labels


@dataclass(frozen=True)
class Chain:
    """Rates of a block chain: `s` side and one rate list per branch of s'."""

    rates_s: tuple
    branches: tuple
    entry_s: Fraction = Fraction(1)

    @property
    def m(self) -> int:
        return len(self.rates_s)

    def automaton(self):
        from ratiobound.automata import WeightedAutomaton

        letters = LETTERS[: self.m]
        states, trans = ["s"], []

        def side(tag, src, entry, rates):
            blocks = [f"{tag}{i}" for i in range(self.m)]
            states.extend(blocks)
            trans.append((src, letters[0], entry, blocks[0]))
            for i, r in enumerate(rates):
                nxt = blocks[i + 1] if i + 1 < self.m else "t"
                trans.append((blocks[i], letters[i], r, blocks[i]))
                trans.append((blocks[i], letters[i], 1 - r, nxt))

        side("x", "s", self.entry_s, self.rates_s)
        states.append("s'")
        share = Fraction(1, len(self.branches))
        for b, rates in enumerate(self.branches):
            side(f"y{b}_", "s'", share, rates)
        states.append("t")
        return WeightedAutomaton.from_transitions(states, letters, trans, ["t"])

    def weights(self, counts) -> tuple:
        """(nu_s, nu_s') of l0^n0 ... l(m-1)^n(m-1), from the closed form."""
        if counts[0] < 2 or any(n < 1 for n in counts[1:]):
            return Fraction(0), Fraction(0)

        def path(entry, rates):
            w = entry
            for i, (r, n) in enumerate(zip(rates, counts)):
                w *= r ** (n - (2 if i == 0 else 1)) * (1 - r)
            return w

        share = Fraction(1, len(self.branches))
        return path(self.entry_s, self.rates_s), sum(path(share, q) for q in self.branches)

    def label(self) -> Optional[str]:
        return gordan_label(self.rates_s, self.branches)


def relative_orderings_chain(p: Fraction) -> Chain:
    """The rates of `ratiobound.samples.relative_orderings(p)`."""
    F = Fraction
    return Chain((F(3, 5), F(2, 5)), ((F(59, 100), F(41, 100)), (p, F(39, 100))))


_CTX = Context(prec=80)
_TIE = Fraction(1, 10**40)


def _ln(q: Fraction) -> Fraction:
    x = _CTX.divide(q.numerator, q.denominator)
    return Fraction(_CTX.ln(x))


def gordan_label(rates_s, branches) -> Optional[str]:
    """not-big-o iff some d >= 0 has <d, ln(p/q_b)> > 0 for every branch b.

    With at most two branches, a feasible d exists iff one exists with at
    most two nonzero coordinates (a basic optimum of max t s.t.
    <d, L_b> >= t, sum d = 1, d >= 0 has at most three nonzero basic
    variables, one of which is t), so single coordinates and pairs are
    tried.  Signs of single entries are exact;
    comparisons between ratios of logarithms use 80-digit logarithms and
    leave the instance unlabelled when they fall within 1e-40.
    """
    if len(branches) > 2:
        raise ValueError("gordan_label handles at most two branches")
    m = len(rates_s)
    sign = [[(p > q) - (p < q) for p, q in zip(rates_s, qs)] for qs in branches]
    if any(all(sb[i] > 0 for sb in sign) for i in range(m)):
        return NOT_BIG_O
    logs = [[_ln(p / q) if p != q else Fraction(0) for p, q in zip(rates_s, qs)] for qs in branches]
    unsettled = False
    for i in range(m):
        for j in range(i + 1, m):
            # t = d_j / d_i > 0 must satisfy L_bi + t * L_bj > 0 for every b
            lo, hi, ok = Fraction(0), None, True
            for b, lb in enumerate(logs):
                si, sj = sign[b][i], sign[b][j]
                if sj > 0:
                    if si < 0:
                        lo = max(lo, -lb[i] / lb[j])
                elif sj < 0:
                    if si <= 0:
                        ok = False
                        break
                    bound = lb[i] / -lb[j]
                    hi = bound if hi is None else min(hi, bound)
                elif si <= 0:
                    ok = False
                    break
            if not ok:
                continue
            if hi is None:
                return NOT_BIG_O
            if abs(hi - lo) <= _TIE * (1 + abs(hi) + abs(lo)):
                unsettled = True
            elif lo < hi:
                return NOT_BIG_O
    return None if unsettled else IS_BIG_O


def _random_chain(rng: random.Random, m: int, k: int) -> Chain:
    return Chain(
        tuple(rng.choice(RATE_GRID) for _ in range(m)),
        tuple(tuple(rng.choice(RATE_GRID) for _ in range(m)) for _ in range(k)),
    )


def _draw_chain(rng: random.Random, m: int, k: int, want: str, tie: bool) -> Chain:
    """A random chain with label `want`, with or without an exact tie."""
    while True:
        chain = _random_chain(rng, m, k)
        has_tie = any(p == q for qs in chain.branches for p, q in zip(chain.rates_s, qs))
        if has_tie == tie and chain.label() == want:
            return chain


# ---------------------------------------------------------------------------
# expected oracle profiles, recomputed outside the library


def _profile(pairs) -> dict:
    """Summarise (word, nu_s, nu_s') in enumeration order like `oracle`."""
    best, attained, words, ratio_of = Fraction(0), None, 0, {}
    for word, ws, wp in pairs:
        if ws == 0 and wp == 0:
            continue
        words += 1
        if wp == 0:
            raise ValueError("workload instances keep nu_s' > 0 on the support")
        r = ws / wp
        ratio_of[word] = r
        if r > best:
            best, attained = r, word
    return {"maxRatio": best, "attainedAt": attained, "words": words, "ratio_of": ratio_of}


def chain_profile(chain: Chain, max_len: int) -> dict:
    letters = LETTERS[: chain.m]

    def counts_upto(total, parts):
        if parts == 1:
            for n in range(total + 1):
                yield (n,)
            return
        for n in range(total + 1):
            for rest in counts_upto(total - n, parts - 1):
                yield (n,) + rest

    pairs = []
    for counts in counts_upto(max_len, chain.m):
        word = "".join(a * n for a, n in zip(letters, counts))
        pairs.append((word, *chain.weights(counts)))
    # the oracle enumerates by length, then in alphabet order
    pairs.sort(key=lambda t: (len(t[0]), t[0]))
    return _profile(pairs)


def path_profile(wa, s: str, s_prime: str, max_len: int) -> dict:
    """Profile of a unary automaton with at most one successor per state,
    by following the single path from each start state."""
    succ = {}
    for (src, _sym, w, dst) in wa.transitions():
        if src in succ:
            raise ValueError("path_profile needs at most one successor per state")
        succ[src] = (w, dst)

    def walk(q):
        w, out = Fraction(1), []
        for _ in range(max_len + 1):
            out.append(w if q in wa.finals else Fraction(0))
            if q not in succ:
                w, q = Fraction(0), None
                out.extend([Fraction(0)] * (max_len + 1 - len(out)))
                break
            step, q = succ[q]
            w *= step
        return out

    a = wa.alphabet[0]
    return _profile(
        (a * n, ws, wp) for n, (ws, wp) in enumerate(zip(walk(s), walk(s_prime)))
    )


# ---------------------------------------------------------------------------
# workloads


def _check(name, doc, s, sp, label, bounded):
    argv = ["check", "--from", s, "--to", sp] + (["--mode", "bounded"] if bounded else [])
    return Query(name, "check", argv, doc, label)


def _oracle(name, doc, s, sp, max_len, expect):
    argv = ["oracle", "--from", s, "--to", sp, "--max-len", str(max_len)]
    return Query(name, "oracle", argv, doc, None, expect)


def _lazy(fn, *args):
    """The expected profile, computed once on first use (not in set-up)."""
    return functools.cache(functools.partial(fn, *args))


def bounded(rng: random.Random, helpers) -> list:
    from ratiobound.jsonio import serialize
    from ratiobound.samples import relative_orderings

    out = []
    for idx, slot in enumerate(BOUNDED_SLOTS):
        if slot in ("p61", "p62"):
            p = Fraction(int(slot[1:]), 100)
            chain = relative_orderings_chain(p)
            doc = serialize(relative_orderings(p))
        elif slot == "k1":
            chain = _draw_chain(rng, 2, 1, NOT_BIG_O, tie=False)
            doc = serialize(chain.automaton())
        else:
            chain = _draw_chain(rng, int(slot[1]), 2, IS_BIG_O, tie=slot.endswith("-tie"))
            doc = serialize(chain.automaton())
        out.append(_check(f"{idx:03d}-{slot}", doc, "s", "s'", chain.label(), True))
    return out


def unary_oracle(rng: random.Random, helpers) -> list:
    from ratiobound.jsonio import serialize
    from ratiobound.reductions import gen_hardness
    from ratiobound.samples import relative_orderings

    out = []
    for idx, slot in enumerate(UNARY_ORACLE_SLOTS):
        name = f"{idx:03d}-{slot}"
        if slot == "hardness":
            inst = gen_hardness(helpers.random_restricted_chrobak(rng, max_total=10))
            label = IS_BIG_O if inst.universal else NOT_BIG_O
            out.append(_check(name, serialize(inst.lmc.underlying), inst.s, inst.s_prime, label, False))
        elif slot == "planted":
            expansive = idx % 2 == 1
            wa, s, sp = helpers.planted_unambiguous(rng, expansive)
            label = NOT_BIG_O if expansive else IS_BIG_O
            out.append(_check(name, serialize(wa), s, sp, label, False))
        elif slot == "random":
            wa = helpers.random_wa(rng, nstates=rng.randint(3, 6), alphabet=("a",), density=0.4)
            out.append(_check(name, serialize(wa), "q0", "q1", None, False))
        elif slot == "o-planted":
            wa, s, sp = helpers.planted_unambiguous(rng, idx % 2 == 0)
            while len(wa.states) != 2 * ORACLE_PLANTED_STATES:
                wa, s, sp = helpers.planted_unambiguous(rng, idx % 2 == 0)
            expect = _lazy(path_profile, wa, s, sp, ORACLE_PLANTED_MAX_LEN)
            out.append(_oracle(name, serialize(wa), s, sp, ORACLE_PLANTED_MAX_LEN, expect))
        else:
            if slot == "o-p62":
                chain = relative_orderings_chain(Fraction(62, 100))
                doc = serialize(relative_orderings(Fraction(62, 100)))
            else:
                chain = _random_chain(rng, 2, 2)
                doc = serialize(chain.automaton())
            expect = _lazy(chain_profile, chain, ORACLE_CHAIN_MAX_LEN)
            out.append(_oracle(name, doc, "s", "s'", ORACLE_CHAIN_MAX_LEN, expect))
    return out


WORKLOADS = {
    "bounded": bounded,
    "unary-oracle": unary_oracle,
}


def build(name: str, seed: int, helpers) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), helpers)
