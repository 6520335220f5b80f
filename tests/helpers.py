"""Seeded random instance generators and fixture automata: what the tests
and the benchmark's workloads draw from.  The references and brute-force
oracles that check the package live in `oracles.py`."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from ratiobound.automata import Nfa, WeightedAutomaton
from ratiobound.nfaops import ChrobakNf

# ---------------------------------------------------------------------------
# random instances


def random_wa(rng: random.Random, nstates=3, alphabet=("a",), density=0.5, max_num=4):
    states = [f"q{i}" for i in range(nstates)]
    trans = []
    for q in states:
        for a in alphabet:
            for q2 in states:
                if rng.random() < density:
                    w = Fraction(rng.randint(1, max_num), rng.randint(1, 2 * max_num))
                    trans.append((q, a, w, q2))
    finals = [q for q in states if rng.random() < 0.4]
    if not finals:
        finals = [states[-1]]
    return WeightedAutomaton.from_transitions(states, alphabet, trans, finals)


def random_unary_nfa(rng: random.Random, nstates=5, density=0.3):
    return random_nfa(rng, nstates, ("a",), density)


def random_nfa(rng: random.Random, nstates=5, alphabet=("a", "b"), density=0.3):
    states = tuple(f"n{i}" for i in range(nstates))
    trans = set()
    for q in states:
        for a in alphabet:
            for q2 in states:
                if rng.random() < density:
                    trans.add((q, a, q2))
    finals = frozenset(q for q in states if rng.random() < 0.4)
    return Nfa(states, tuple(alphabet), frozenset(trans), states[0], finals)


def random_pa(rng: random.Random, nstates=3, alphabet=("a", "b")):
    """Random probabilistic automaton: every row of every M(a) is stochastic."""
    states = [f"p{i}" for i in range(nstates)]
    trans = []
    for q in states:
        for a in alphabet:
            weights = _random_distribution(rng, nstates)
            for q2, w in zip(states, weights):
                if w:
                    trans.append((q, a, w, q2))
    finals = [q for q in states[1:] if rng.random() < 0.5]
    wa = WeightedAutomaton.from_transitions(states, alphabet, trans, finals)
    return wa, states[0]


def _random_distribution(rng: random.Random, n: int):
    cuts = sorted(rng.randint(0, 8) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(8 - prev)
    return [Fraction(p, 8) for p in parts]


def random_restricted_chrobak(rng: random.Random, max_total=10):
    """Restricted Chrobak form, one-state accepting stem, sized for the
    hardness generator; resamples until full universality coincides with
    coverage of every length >= 2."""
    while True:
        budget = rng.randint(1, max_total - 1)
        cycles = []
        while budget > 0:
            length = rng.randint(1, min(4, budget))
            budget -= length
            cycles.append((length, frozenset([rng.randrange(length)])))
        if not cycles:
            continue
        cnf = ChrobakNf((True,), tuple(cycles))
        horizon = 1 + lcm(*(l for l, _ in cnf.cycles))
        covered = all(cnf.accepts(n) for n in range(2, 2 + horizon))
        universal = cnf.accepts(1) and covered
        if covered == universal:
            return cnf


def planted_unambiguous(rng: random.Random, expansive: bool):
    """Two unary lasso copies differing by one cycle edge scaled by 17/16
    (ratio grows) or 15/16 (ratio stays bounded); the scaled copy is read
    from sA, the plain copy from sB."""
    stem_len = rng.randint(0, 3)
    cyc_len = rng.randint(1, 4)
    factor = Fraction(17, 16) if expansive else Fraction(15, 16)
    weights = [
        Fraction(rng.randint(1, 4), rng.randint(2, 8)) for _ in range(stem_len + cyc_len)
    ]
    final_off = rng.randrange(cyc_len)
    scaled_edge = rng.randrange(cyc_len)

    def build(tag: str, scale_cycle_edge):
        states = [f"{tag}s{i}" for i in range(stem_len)] + [
            f"{tag}c{i}" for i in range(cyc_len)
        ]
        trans = []
        for i in range(stem_len):
            nxt = states[i + 1]
            trans.append((states[i], "a", weights[i], nxt))
        for j in range(cyc_len):
            w = weights[stem_len + j]
            if scale_cycle_edge is not None and j == scale_cycle_edge:
                w = w * factor
            trans.append(
                (
                    states[stem_len + j],
                    "a",
                    w,
                    states[stem_len + (j + 1) % cyc_len],
                )
            )
        return states, trans, states[stem_len + final_off]

    sa, ta, fa = build("A", scaled_edge)
    sb, tb, fb = build("B", None)
    wa = WeightedAutomaton.from_transitions(
        sa + sb, ("a",), ta + tb, [fa, fb]
    )
    return wa, sa[0], sb[0]


def random_block_wa(rng: random.Random, letters=("a", "b"), per=2, density=0.6):
    """Random automaton that is letter-bounded over `letters` by shape:
    block-i states loop on letters[i] only and feed forward into block i+1
    on letters[i+1]; a final sink hangs off the last block."""
    m = len(letters)
    layers = [[f"L{i}_{j}" for j in range(per)] for i in range(m)]
    states = [q for layer in layers for q in layer] + ["fin"]
    trans = []
    for i, layer in enumerate(layers):
        for q in layer:
            for q2 in layer:
                if rng.random() < density:
                    trans.append(
                        (q, letters[i], Fraction(rng.randint(1, 3), rng.randint(2, 6)), q2)
                    )
        if i + 1 < m:
            for q in layer:
                for q2 in layers[i + 1]:
                    if rng.random() < density:
                        trans.append(
                            (
                                q,
                                letters[i + 1],
                                Fraction(rng.randint(1, 3), rng.randint(2, 6)),
                                q2,
                            )
                        )
    for q in layers[-1]:
        if rng.random() < 0.8:
            trans.append((q, letters[-1], Fraction(rng.randint(1, 3), rng.randint(2, 6)), "fin"))
    return WeightedAutomaton.from_transitions(states, letters, trans, ["fin"])


def not_big_o_on_b() -> WeightedAutomaton:
    """From `s` and `s'` every nonempty word over {a, b} is accepted; the
    query (s, s') is not big-O, by cycle ratio 3/2 on b, but is big-O on
    the words a^n alone."""
    trans = [
        ("s", "a", Fraction(1, 2), "s"),
        ("s", "a", Fraction(1, 4), "t"),
        ("s", "b", Fraction(3, 4), "s"),
        ("s", "b", Fraction(1, 4), "t"),
        ("s'", "a", Fraction(1, 2), "s'"),
        ("s'", "a", Fraction(1, 2), "t"),
        ("s'", "b", Fraction(1, 2), "s'"),
        ("s'", "b", Fraction(1, 2), "t"),
    ]
    return WeightedAutomaton.from_transitions(["s", "s'", "t"], ["a", "b"], trans, ["t"])


def two_symbol_chain() -> WeightedAutomaton:
    """Alphabet of the two-character symbols `x1` and `x2`: `s` and `s'`
    each loop on `x1` and leave on `x2`, `s` at rate 1/3 and `s'` at 1/2,
    so `s` is big-O of `s'` and not the reverse."""
    trans = [
        ("s", "x1", Fraction(1, 3), "s"),
        ("s", "x2", Fraction(1, 2), "t"),
        ("s'", "x1", Fraction(1, 2), "s'"),
        ("s'", "x2", Fraction(1, 2), "t"),
    ]
    return WeightedAutomaton.from_transitions(["s", "s'", "t"], ["x1", "x2"], trans, ["t"])


def random_functional_unary(rng: random.Random, nstates=5):
    """Deterministic unary automaton (one successor per state): unambiguous
    from every state by construction."""
    states = [f"f{i}" for i in range(nstates)]
    trans = []
    for i, q in enumerate(states):
        j = rng.randrange(nstates)
        w = Fraction(rng.randint(1, 4), rng.randint(2, 8))
        trans.append((q, "a", w, states[j]))
    finals = [q for q in states if rng.random() < 0.5]
    if not finals:
        finals = [states[-1]]
    return WeightedAutomaton.from_transitions(states, ("a",), trans, finals)
