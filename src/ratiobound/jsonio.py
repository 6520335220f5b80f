"""External JSON document format for automata.

Schema: {"states": [...], "alphabet": [...], "finals": [...],
"transitions": [{"from": q, "symbol": a, "to": q2, "weight": "num/den"}]}.
Weights are decimal-free "num/den" strings; unspecified transitions have
weight 0.  Unknown top-level keys (queries, labels) are ignored on parse.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .automata import FormatError, InputError, WeightedAutomaton


def parse_weight(text: str, warnings=None) -> Fraction:
    raw = str(text).strip()
    if "." in raw:
        raise FormatError(f"weight {raw!r} must be a decimal-free num/den string")
    if "/" in raw:
        num_s, _, den_s = raw.partition("/")
        try:
            num, den = int(num_s), int(den_s)
        except ValueError:
            raise FormatError(f"weight {raw!r} is not an integer ratio") from None
        if den <= 0:
            raise FormatError(f"weight {raw!r} must have a positive denominator")
    else:
        try:
            num, den = int(raw), 1
        except ValueError:
            raise FormatError(f"weight {raw!r} is not an integer ratio") from None
    if num < 0:
        raise FormatError(f"weight {raw!r} is negative; weights must be >= 0")
    value = Fraction(num, den)
    canonical = f"{value.numerator}/{value.denominator}"
    if warnings is not None and raw != canonical:
        warnings.append(f"weight {raw!r} canonicalized to {canonical!r}")
    return value


def format_weight(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_automaton(document, warnings=None) -> WeightedAutomaton:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FormatError(f"malformed JSON: {exc}") from None
    if not isinstance(document, dict):
        raise FormatError("automaton document must be a JSON object")
    for key in ("states", "alphabet", "finals", "transitions"):
        if key not in document:
            raise FormatError(f"missing required key {key!r}")
    for key in ("states", "alphabet", "finals"):
        value = document[key]
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise FormatError(f"{key!r} must be a list of strings")
    if not isinstance(document["transitions"], list):
        raise FormatError("'transitions' must be a list")
    transitions = []
    for entry in document["transitions"]:
        try:
            src, sym, dst = str(entry["from"]), str(entry["symbol"]), str(entry["to"])
            w = entry["weight"]
        except (KeyError, TypeError):
            raise FormatError(
                "each transition needs from/symbol/to/weight fields"
            ) from None
        transitions.append((src, sym, parse_weight(w, warnings), dst))
    try:
        return WeightedAutomaton.from_transitions(
            document["states"], document["alphabet"], transitions, document["finals"]
        )
    except InputError as exc:
        raise FormatError(str(exc)) from None


def serialize(wa: WeightedAutomaton, extra: dict | None = None) -> str:
    """Canonical document text: sorted keys, stable transition order."""
    doc = {
        "states": list(wa.states),
        "alphabet": list(wa.alphabet),
        "finals": sorted(wa.finals),
        "transitions": [
            {
                "from": src,
                "symbol": sym,
                "to": dst,
                "weight": format_weight(w),
            }
            for (src, sym, w, dst) in sorted(
                wa.transitions(), key=lambda t: (t[0], t[1], t[3])
            )
        ],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
