"""External JSON document format for automata.

Schema: {"states": [...], "alphabet": [...], "finals": [...],
"transitions": [{"from": q, "symbol": a, "to": q2, "weight": "num/den"}]}.
Weights are "num/den" strings of ASCII digits, or a bare numerator (a JSON
integer is read as its digits); unspecified transitions have weight 0.
Unknown top-level keys (queries, labels) are ignored on parse.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .automata import FormatError, InputError, WeightedAutomaton


def json_typed(value, kind):
    """`value` if its JSON type is exactly `kind` (a boolean is no integer)."""
    if type(value) is not kind:
        raise TypeError(f"{value!r} is not a JSON {kind.__name__}")
    return value


# JSON types that hold no weight, by the Python type `json` reads them as
JSON_TYPE_NAMES = {
    bool: "boolean",
    float: "decimal number",
    list: "array",
    dict: "object",
    type(None): "null",
}


def parse_weight(text, warnings=None) -> Fraction:
    """A "num/den" string, or a JSON integer, as a nonnegative rational.
    Both parts are ASCII digits; the numerator may start with `-`, so that
    a negative weight gets its own message."""
    if type(text) not in (str, int):
        kind = JSON_TYPE_NAMES.get(type(text), type(text).__name__)
        raise FormatError(f"weight {text!r} is a JSON {kind}, not a num/den string")
    raw = str(text)
    if "." in raw:
        raise FormatError(f"weight {raw!r} must be a decimal-free num/den string")
    num_s, slash, den_s = raw.partition("/")
    unsigned = num_s.removeprefix("-")
    if not (raw.isascii() and unsigned.isdigit() and (den_s.isdigit() or not slash)):
        raise FormatError(f"weight {raw!r} is not a num/den ratio of ASCII digits")
    try:
        num, den = int(num_s), int(den_s or 1)
    except ValueError:  # past the interpreter's digit limit
        raise FormatError(f"weight {raw[:40]!r}... has too many digits") from None
    if den == 0:
        raise FormatError(f"weight {raw!r} must have a positive denominator")
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
            src, sym, dst = (json_typed(entry[k], str) for k in ("from", "symbol", "to"))
            w = entry["weight"]
        except (KeyError, TypeError) as exc:
            raise FormatError(
                "each entry of 'transitions' needs string from/symbol/to fields "
                f"and a weight: {type(exc).__name__} {exc}"
            ) from None
        transitions.append((src, sym, parse_weight(w, warnings), dst))
    try:
        return WeightedAutomaton.from_transitions(
            document["states"], document["alphabet"], transitions, document["finals"]
        )
    except InputError as exc:
        raise FormatError(str(exc)) from None


def serialize(wa: WeightedAutomaton, extra: dict | None = None) -> str:
    """Canonical document text: sorted keys, stable transition order.  Each
    weight x/d is written in lowest terms straight from the sparse rows."""
    transitions = []
    for a in wa.alphabet:
        d, rows = wa.sparse_rows[a]
        for src, row in zip(wa.states, rows):
            for j, x in row:
                g = gcd(x, d)
                transitions.append(
                    {"from": src, "symbol": a, "to": wa.states[j], "weight": f"{x // g}/{d // g}"}
                )
    transitions.sort(key=lambda t: (t["from"], t["symbol"], t["to"]))
    doc = {
        "states": list(wa.states),
        "alphabet": list(wa.alphabet),
        "finals": sorted(wa.finals),
        "transitions": transitions,
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
