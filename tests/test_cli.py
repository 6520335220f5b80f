import argparse
import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from ratiobound.cli import COMMANDS, build_parser, main
from ratiobound.jsonio import parse_automaton, parse_weight, serialize
from ratiobound.automata import FormatError, InputError, WeightedAutomaton
from ratiobound.samples import different_rates, relative_orderings, unbounded_ratio

from helpers import not_big_o_on_b, random_block_wa, random_wa, two_symbol_chain
from oracles import serialize_reference

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def data_file(name):
    return os.path.join(DATA, name)


def test_bundled_files_round_trip_byte_stable():
    for name in sorted(os.listdir(DATA)):
        if not name.endswith(".json"):
            continue
        path = data_file(name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        wa = parse_automaton(text)
        assert serialize(wa) == text


def test_bundled_files_match_builders():
    cases = {
        "unbounded_ratio.json": unbounded_ratio(),
        "different_rates.json": different_rates(),
        "relative_orderings_p61.json": relative_orderings(F(61, 100)),
        "relative_orderings_p62.json": relative_orderings(F(62, 100)),
    }
    for name, wa in cases.items():
        with open(data_file(name), "r", encoding="utf-8") as fh:
            assert fh.read() == serialize(wa)


def test_serialize_matches_the_fraction_formula():
    """Weights written straight from the sparse rows give the text that the
    Fraction round trip gave, byte for byte."""
    rng = random.Random(29)
    for _ in range(200):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        wa = random_wa(rng, rng.randint(1, 5), alphabet, density=rng.random(), max_num=12)
        extra = {"query": {"s": wa.states[0], "sPrime": wa.states[-1]}}
        assert serialize(wa, extra) == serialize_reference(wa, extra)


def test_weight_canonicalization_warns():
    warnings = []
    assert parse_weight("3/6", warnings) == F(1, 2)
    assert warnings and "1/2" in warnings[0]
    warnings = []
    assert parse_weight("2", warnings) == 2
    assert warnings == ["weight '2' canonicalized to '2/1'"]


def test_negative_weight_rejected():
    with pytest.raises(FormatError) as err:
        parse_weight("-1/2")
    assert "negative" in str(err.value)


def test_decimal_weight_rejected(tmp_path, capsys):
    """Decimals, non-integer parts and zero denominators are format errors,
    and `check` exits 65 on them.  So is every part that `int` reads but
    that is not ASCII digits: underscores, signs, spaces and other scripts'
    digits."""
    path = tmp_path / "w.json"
    weird = ("1_0/3", "+1/2", "1/ 2", "1/+2", "\uff11/\uff12", "\u0663/4", " 1/2", "1/2\n")
    for text in ("0.5", "1/x", "2/0", "x", *weird):
        with pytest.raises(FormatError):
            parse_weight(text)
        doc = {
            "states": ["p", "t"],
            "alphabet": ["a"],
            "finals": ["t"],
            "transitions": [{"from": "p", "symbol": "a", "to": "t", "weight": text}],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "--file", str(path), "--from", "p", "--to", "p"]) == 65
        assert repr(text) in capsys.readouterr().err
    # past the interpreter's limit on the digits `int` converts
    with pytest.raises(FormatError, match="too many digits"):
        parse_weight("1" * 5000)


def test_duplicate_transition_rejected():
    doc = {
        "states": ["p", "t"],
        "alphabet": ["a"],
        "finals": ["t"],
        "transitions": [
            {"from": "p", "symbol": "a", "to": "t", "weight": "1/2"},
            {"from": "p", "symbol": "a", "to": "t", "weight": "1/3"},
        ],
    }
    with pytest.raises(FormatError) as err:
        parse_automaton(json.dumps(doc))
    assert "duplicate" in str(err.value)


def test_dangling_state_rejected():
    doc = {
        "states": ["p"],
        "alphabet": ["a"],
        "finals": ["p"],
        "transitions": [
            {"from": "p", "symbol": "a", "to": "zz", "weight": "1/2"}
        ],
    }
    with pytest.raises(FormatError):
        parse_automaton(json.dumps(doc))


def _doc_file(tmp_path, **changes):
    doc = {
        "states": ["p", "t"],
        "alphabet": ["a"],
        "finals": ["t"],
        "transitions": [{"from": "p", "symbol": "a", "to": "t", "weight": "1/2"}],
    }
    doc.update(changes)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_duplicate_state_ids_are_a_format_error(tmp_path, capsys):
    path = _doc_file(tmp_path, states=["p", "t", "p"])
    with pytest.raises(FormatError):
        parse_automaton(path.read_text(encoding="utf-8"))
    assert main(["check", "--file", str(path), "--from", "p", "--to", "p"]) == 65
    assert "duplicate state ids" in capsys.readouterr().err


def test_duplicate_alphabet_symbols_are_a_format_error(tmp_path, capsys):
    path = _doc_file(tmp_path, alphabet=["a", "a"])
    with pytest.raises(FormatError):
        parse_automaton(path.read_text(encoding="utf-8"))
    assert main(["check", "--file", str(path), "--from", "p", "--to", "p"]) == 65
    assert "duplicate alphabet symbols" in capsys.readouterr().err


def _one_transition(**fields):
    return [{"from": "p", "symbol": "a", "to": "t", "weight": "1/2", **fields}]


@pytest.mark.parametrize(
    "change, key",
    [
        ({"states": 5}, "states"),
        ({"transitions": 5}, "transitions"),
        ({"finals": "t"}, "finals"),
        ({"alphabet": ["a", 1]}, "alphabet"),
        ({"states": ["p", "t", "1"], "transitions": _one_transition(to=1)}, "transitions"),
        ({"states": ["p", "t", "True"], "transitions": _one_transition(to=True)}, "transitions"),
        ({"alphabet": ["a", "2"], "transitions": _one_transition(symbol=2)}, "transitions"),
        ({"states": ["p", "t", "1"], "transitions": _one_transition(**{"from": 1})}, "transitions"),
    ],
    ids=[
        "states-int",
        "transitions-int",
        "finals-string",
        "alphabet-int-entry",
        "to-int",
        "to-bool",
        "symbol-int",
        "from-int",
    ],
)
def test_misshapen_documents_are_a_format_error(tmp_path, capsys, change, key):
    """A string of finals is not read letter by letter, a number where a
    list belongs, and a transition field that is not a JSON string (even
    where its text names a state or symbol) exit 65 with the key's name,
    not a traceback."""
    path = _doc_file(tmp_path, **change)
    with pytest.raises(FormatError):
        parse_automaton(path.read_text(encoding="utf-8"))
    assert main(["check", "--file", str(path), "--from", "p", "--to", "p"]) == 65
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "weight, kind",
    [(["1/2"], "array"), (True, "boolean"), ({"num": 1}, "object"), (0.5, "decimal number")],
    ids=["list", "boolean", "object", "float"],
)
def test_a_weight_of_another_json_type_is_a_format_error(tmp_path, capsys, weight, kind):
    """A weight is a JSON string or a JSON integer, and a boolean is no
    integer: any other type exits 65, named."""
    path = _doc_file(tmp_path, transitions=_one_transition(weight=weight))
    with pytest.raises(FormatError):
        parse_automaton(path.read_text(encoding="utf-8"))
    assert main(["check", "--file", str(path), "--from", "p", "--to", "t"]) == 65
    assert f"weight {weight!r} is a JSON {kind}," in capsys.readouterr().err


def test_an_integer_weight_loads_with_a_warning(tmp_path, capsys):
    path = _doc_file(tmp_path, transitions=_one_transition(weight=1))
    assert main(["check", "--file", str(path), "--from", "p", "--to", "t"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] == ["weight '1' canonicalized to '1/1'"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "automaton document must be a JSON object"),
        ('{"states": ["p"], "alphabet": [], "transitions": []}', "missing required key 'finals'"),
    ],
    ids=["not-an-object", "missing-key"],
)
def test_a_document_that_is_no_automaton_object_is_a_format_error(
    tmp_path, capsys, text, message
):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", "--file", str(path), "--from", "p", "--to", "p"]) == 65
    assert message in capsys.readouterr().err


def test_an_empty_alphabet_symbol_is_rejected(tmp_path, capsys):
    """The empty symbol would spell counterexamples that read as the empty
    word: the constructor rejects it, and a document with it exits 65."""
    with pytest.raises(InputError):
        WeightedAutomaton.from_transitions(["s", "t"], [""], [("s", "", 1, "t")], ["t"])
    path = _doc_file(
        tmp_path,
        states=["s", "t"],
        alphabet=[""],
        transitions=[{"from": "s", "symbol": "", "to": "t", "weight": "1"}],
    )
    assert main(["check", "--file", str(path), "--from", "s", "--to", "t"]) == 65
    assert "alphabet symbol must be nonempty" in capsys.readouterr().err


def test_check_exit_codes(capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "unary"]) == 1
    capsys.readouterr()
    assert main(["check", "--file", f, "--from", "s'", "--to", "s", "--mode", "unary"]) == 0
    capsys.readouterr()
    assert main(["check", "--file", f, "--from", "s", "--to", "s"]) == 0
    capsys.readouterr()


def test_check_auto_reports_decider(capsys):
    """Auto mode names the decider it picked, and reports what that decider
    reports when it is named."""
    cases = (("unbounded_ratio.json", "unambiguous"), ("different_rates.json", "unary"))
    for name, decider in cases:
        base = ["check", "--file", data_file(name), "--from", "s", "--to", "s'"]
        assert main(base) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["decider"] == decider
        assert report["verdict"] == "not-big-o"
        assert main(base + ["--mode", decider]) == 1
        assert json.loads(capsys.readouterr().out) == report


# `check` variants of the data-pair sweep
CHECK_SWEEP_VARIANTS = ([], ["--mode", "bounded"], ["--eventually"], ["--human"])
CHECK_SWEEP_DIGEST = "077b8cf3abcd8524b3b0e7405bc2f75cec7f40354b44b323f5bc5c38afe20ada"


def test_check_reports_on_every_data_pair_are_pinned(capsys):
    """`check` over every ordered state pair of every bundled file, in auto
    mode, `--mode bounded`, `--eventually` and `--human`: one digest over
    each run's arguments (the file by its name), exit code, stdout and
    stderr, so a refactor of the deciders or of the report path that moves
    a single byte fails here."""
    digest = hashlib.sha256()
    runs = 0
    for name in sorted(os.listdir(DATA)):
        if not name.endswith(".json"):
            continue
        with open(data_file(name), "r", encoding="utf-8") as fh:
            states = parse_automaton(fh.read()).states
        for src in states:
            for dst in states:
                for extra in CHECK_SWEEP_VARIANTS:
                    args = ["--from", src, "--to", dst, *extra]
                    code = main(["check", "--file", data_file(name), *args])
                    out, err = capsys.readouterr()
                    digest.update(json.dumps([name, args, code, out, err]).encode())
                    runs += 1
    assert (runs, digest.hexdigest()) == (1468, CHECK_SWEEP_DIGEST)


def _no_decider_file(tmp_path):
    """Ambiguous from p (two runs accept `a`), two letters, and p's
    language (ab)*a is not letter-bounded."""
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t", "u"],
        ["a", "b"],
        [
            ("p", "a", F(1, 2), "q"),
            ("q", "b", F(1), "p"),
            ("p", "a", F(1, 4), "t"),
            ("p", "a", F(1, 4), "u"),
        ],
        ["t", "u"],
    )
    path = tmp_path / "none.json"
    path.write_text(serialize(wa), encoding="utf-8")
    return str(path)


def _empty_alphabet_file(tmp_path):
    """One final state and no letter: no symbol to designate."""
    wa = WeightedAutomaton.from_transitions(["p"], [], [], ["p"])
    path = tmp_path / "empty.json"
    path.write_text(serialize(wa), encoding="utf-8")
    return str(path)


def _half_file(tmp_path):
    """p reads `a` to the final t with weight 1/2: no LMC."""
    return str(_doc_file(tmp_path))


def _stochastic(alphabet):
    """p and the final t go to t on every letter with weight 1: a
    probabilistic automaton from the non-accepting p."""
    trans = [(q, a, 1, "t") for q in ("p", "t") for a in alphabet]
    return serialize(WeightedAutomaton.from_transitions(["p", "t"], alphabet, trans, ["t"]))


def _dollar_file(tmp_path):
    path = tmp_path / "pa.json"
    path.write_text(_stochastic(["a", "$"]), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "make_file, command, message",
    [
        (_no_decider_file, ["check"], "no decider applies"),
        (
            _no_decider_file,
            ["check", "--mode", "bounded"],
            "not letter-bounded; supply bounding words",
        ),
        (_no_decider_file, ["oracle", "--max-len", "-1"], "non-negative"),
        (lambda tmp_path: str(tmp_path / "absent.json"), ["check"], "absent.json"),
        (_empty_alphabet_file, ["reduce", "big-theta"], "alphabet is empty"),
        (_empty_alphabet_file, ["reduce", "from-big-theta"], "alphabet is empty"),
        (_half_file, ["reduce", "eventual"], "completion needs distinct query states"),
        (_dollar_file, ["reduce", "value1"], "reserved symbol '$'"),
        (_half_file, ["reduce", "from-value1"], "value-1 reduction expects an LMC"),
    ],
    ids=[
        "no-decider",
        "bounded-not-letter-bounded",
        "oracle-negative-length",
        "missing-file",
        "big-theta-empty-alphabet",
        "from-big-theta-empty-alphabet",
        "eventual-same-states",
        "value1-reserved-symbol",
        "from-value1-not-lmc",
    ],
)
def test_check_auto_input_errors_exit_64(tmp_path, capsys, make_file, command, message):
    path = make_file(tmp_path)
    assert main(command + ["--file", path, "--from", "p", "--to", "p"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("input error") and message in err


@pytest.mark.parametrize(
    "document, command, message",
    [
        ('{"stem": [true], "cycles": [[0, []]]}', ["hardness"], "length must be >= 1"),
        ('{"stem": [true], "cycles": [[2, [2]]]}', ["hardness"], "offset outside cycle"),
        ('{"stem": [], "cycles": [[2, [0]]]}', ["hardness"], "stem must be non-empty"),
        ('{"stem": [true], "cycles": []}', ["hardness"], "at least one cycle"),
        (_stochastic(["a", "acc"]), ["undecidable", "--start", "p"], "reserved symbol 'acc'"),
    ],
    ids=["zero-length-cycle", "offset-outside-cycle", "empty-stem", "no-cycle", "reserved-symbol"],
)
def test_generate_input_errors_exit_64(tmp_path, capsys, document, command, message):
    """Well-formed documents that the generators cannot take."""
    path = tmp_path / "in.json"
    path.write_text(document, encoding="utf-8")
    assert main(["generate", *command, "--file", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("input error") and message in err


def test_generate_undecidable_without_start_names_the_option(tmp_path, capsys):
    """`--start` is optional to argparse, because `generate hardness` takes
    none, but `generate undecidable` needs it."""
    path = tmp_path / "pa.json"
    path.write_text(_stochastic(["a"]), encoding="utf-8")
    assert main(["generate", "undecidable", "--file", str(path)]) == 64
    assert "--start is required for generate undecidable" in capsys.readouterr().err


def test_check_auto_picks_the_bound_the_bounded_decider_detects(capsys, monkeypatch):
    """Auto mode picks the bounded decider by detecting a letter bound from
    `--to`, and the decider detects that same bound itself; `--mode
    bounded` detects it once, in the decider."""
    import ratiobound.bounded
    import ratiobound.cli

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append((args[1], fn(*args)))
            return calls[-1][1]

        return wrapper

    for mod in (ratiobound.cli, ratiobound.bounded):
        monkeypatch.setattr(mod, "detect_letter_bounded", counted(mod.detect_letter_bounded))
    f = data_file("relative_orderings_p62.json")
    argv = ["check", "--file", f, "--from", "s", "--to", "s'"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["decider"] == "bounded" and out["verdict"] == "is-big-o"
    assert calls == [("s'", ("a", "b"))] * 2
    calls.clear()
    assert main(argv + ["--mode", "bounded"]) == 0
    assert json.loads(capsys.readouterr().out) == out
    assert calls == [("s'", ("a", "b"))]


def test_check_auto_checks_ambiguity_once(capsys, monkeypatch):
    import ratiobound.cli
    import ratiobound.unambiguous

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args[1:])
            return fn(*args)

        return wrapper

    for mod in (ratiobound.cli, ratiobound.unambiguous):
        monkeypatch.setattr(mod, "is_unambiguous_from", counted(mod.is_unambiguous_from))
    f = data_file("unbounded_ratio.json")
    assert main(["check", "--file", f, "--from", "s", "--to", "s'"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["decider"] == "unambiguous" and out["verdict"] == "not-big-o"
    assert calls == [("s",), ("s'",)]
    # with the decider named, it checks both states itself
    calls.clear()
    assert main(["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "unambiguous"]) == 1
    capsys.readouterr()
    assert calls == [("s",), ("s'",)]


def test_check_bounded_mode(capsys):
    f = data_file("relative_orderings_p62.json")
    assert main(["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "bounded"]) == 0
    capsys.readouterr()


def test_check_unknown_state_is_input_error(capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["check", "--file", f, "--from", "zz", "--to", "s"]) == 64
    capsys.readouterr()


def test_malformed_json_is_format_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["check", "--file", str(p), "--from", "a", "--to", "b"]) == 65
    capsys.readouterr()


def test_os_errors_are_input_errors(tmp_path, capsys):
    """A path the command cannot read or write exits 64, not with a
    traceback and the not-big-o code 1."""
    assert main(["check", "--file", str(tmp_path), "--from", "s", "--to", "s'"]) == 64
    assert "input error" in capsys.readouterr().err
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    f = data_file("relative_orderings_p62.json")
    argv = ["export-formula", "--file", f, "--from", "s", "--to", "s'", "--out", str(taken)]
    assert main(argv) == 64
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        "{not json",
        json.dumps({"stem": [True]}),
        json.dumps({"stem": [True], "cycles": [["x", [0]]]}),
        json.dumps({"stem": [True], "cycles": [[2.5, [0]]]}),
        json.dumps({"stem": [True], "cycles": [[True, [0]]]}),
        json.dumps({"stem": [True], "cycles": [[2, [0.0]]]}),
        json.dumps({"stem": [True], "cycles": [[2, [False]]]}),
        json.dumps({"stem": ["no"], "cycles": [[2, [0]]]}),
        json.dumps({"stem": [1], "cycles": [[2, [0]]]}),
    ],
    ids=[
        "not-json",
        "no-cycles",
        "non-integer-length",
        "fractional-length",
        "boolean-length",
        "float-offset",
        "boolean-offset",
        "string-flag",
        "integer-flag",
    ],
)
def test_generate_hardness_malformed_spec_is_format_error(tmp_path, capsys, spec):
    path = tmp_path / "cnf.json"
    path.write_text(spec, encoding="utf-8")
    assert main(["generate", "hardness", "--file", str(path)]) == 65
    assert "format error" in capsys.readouterr().err


def test_oracle_report(capsys):
    f = data_file("relative_orderings_p62.json")
    assert main(["oracle", "--file", f, "--from", "s", "--to", "s'", "--max-len", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maxRatio"] == "1600/1579"
    assert report["attainedAt"] == "aab"
    argv = ["oracle", "--file", f, "--from", "s", "--to", "s'", "--max-len", "8", "--entries"]
    assert main(argv) == 0
    entries = json.loads(capsys.readouterr().out).pop("entries")
    assert len(entries) == report["words"]
    ((_, ws, wp),) = [e for e in entries if e[0] == "aab"]
    assert F(ws) / F(wp) == F(1600, 1579)


def test_oracle_word_cap_exits_66_with_a_short_message(capsys):
    """Two letters at `--max-len 14400` make a count past Python's
    4,300-digit string limit; the count stops at the cap instead."""
    argv = ["oracle", "--file", data_file("relative_orderings_p62.json"), "--from", "s", "--to", "s'"]
    for max_len in ("14000", "14400"):
        assert main(argv + ["--max-len", max_len]) == 66
        err = capsys.readouterr().err
        assert err.startswith("resource error: enumerating more than 1000000 words")
        assert len(err) < 200


def test_classify_report(capsys):
    f = data_file("relative_orderings_p62.json")
    assert main(["classify", "--file", f, "--from", "s'", "--human"]) == 0
    out = capsys.readouterr().out
    assert "letterBounded" in out
    assert main(["classify", "--file", f, "--from", "s", "--to", "s'"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unambiguousFromS"] is True
    assert report["unambiguousFromSPrime"] is False


def test_reduce_and_generate_round_trip(tmp_path, capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["reduce", "big-theta", "--file", f, "--from", "s", "--to", "s'"]) == 0
    doc = json.loads(capsys.readouterr().out)
    wa = parse_automaton(json.dumps(doc))
    assert doc["query"]["s"] in wa.states

    chrobak = tmp_path / "cnf.json"
    chrobak.write_text(
        json.dumps({"stem": [True], "cycles": [[2, [0]], [3, [1]]]}),
        encoding="utf-8",
    )
    assert main(["generate", "hardness", "--file", str(chrobak)]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["groundTruth"] in ("is-big-o", "not-big-o")
    wa2 = parse_automaton(json.dumps(doc2))
    from ratiobound import Query, decide_unary, validate_lmc

    assert validate_lmc(wa2)
    got = decide_unary(Query(wa2, doc2["query"]["s"], doc2["query"]["sPrime"]))
    assert got.verdict == doc2["groundTruth"]


def test_export_formula(tmp_path, capsys, monkeypatch):
    import ratiobound.bounded
    import ratiobound.realexp
    from ratiobound import detect_letter_bounded, letter_bounded_to_plus
    from ratiobound.bounded import _signature_decision, decide_plus

    calls = []
    original = ratiobound.realexp.semi_decide

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(ratiobound.bounded, "semi_decide", counted)
    monkeypatch.setattr(ratiobound.realexp, "semi_decide", counted)
    f = data_file("relative_orderings_p61.json")
    out = tmp_path / "smt"
    assert (
        main(
            [
                "export-formula",
                "--file",
                f,
                "--from",
                "s",
                "--to",
                "s'",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["formulas"] > 0
    # each formula that its signatures leave open is semi-decided exactly
    # once; the others are decided without `semi_decide`
    assert 0 < len(calls) < report["formulas"]
    assert len({id(f) for f in calls}) == len(calls)
    files = sorted(os.listdir(out))
    assert files
    text = (out / files[0]).read_text(encoding="utf-8")
    assert "(check-sat)" in text and "ln" in text
    monkeypatch.undo()
    with open(f, encoding="utf-8") as fh:
        wa = parse_automaton(fh.read())
    cands = [
        cand
        for pq in letter_bounded_to_plus(wa, "s", "s'", detect_letter_bounded(wa, "s'"))
        for cand in decide_plus(pq)
    ]
    assert [entry["verdict"] for entry in report["index"]] == [
        cand.decision.verdict for cand in cands
    ]
    open_ = [c for c in cands if _signature_decision(c.x_sig, c.y_sigs, c.lin) is None]
    assert [f.provenance for f in calls] == [c.formula.provenance for c in open_]


# sha256 of the `export-formula` index (as printed) and of each `.smt2`
# file, in file order, for `--out smt{p}` run from an empty directory
EXPORT_FORMULA_DIGESTS = {
    "relative_orderings_p61.json": (
        "fb1943cafdc1f8bf52a20976395a01a124a94d843edc47b57d53d648dbdb3675",
        [
            "e788e8d15acb06564e1597a4b1671959bc93ad223c25190ad58661399491f76c",
            "b16aef5f4b9a06fc0bf3474732ff40c4957fed15a0bf878e492dd7a1ce6b8455",
        ],
    ),
    "relative_orderings_p62.json": (
        "889e0e6a6af2972d3f23c6beb90cf9644665334b47d83f3ae50265017b00f3da",
        [
            "eff8aeb77e5d4c323f21b326bc0f0ae480f3732657c3427ec6d68dc3371e9528",
            "8cc6ca88a8b8798c4a715108bc1aa1c8ec49c02f8b29c38462114adcc1e49519",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(EXPORT_FORMULA_DIGESTS))
def test_export_formula_output_is_pinned(tmp_path, capsys, monkeypatch, name):
    """The index and every sentence file of both bundled relative-orderings
    queries keep their recorded bytes, so a faster emission or decision
    path that changes a formula, its order or its verdict fails here."""
    out = "smt" + name[-7:-5]
    monkeypatch.chdir(tmp_path)
    argv = ["export-formula", "--file", data_file(name), "--from", "s", "--to", "s'"]
    assert main(argv + ["--out", out]) == 0
    index, files = EXPORT_FORMULA_DIGESTS[name]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == index
    got = [
        hashlib.sha256((tmp_path / out / f).read_bytes()).hexdigest()
        for f in sorted(os.listdir(tmp_path / out))
    ]
    assert got == files


def test_export_formula_rejects_a_query_that_is_not_letter_bounded(tmp_path, capsys):
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "t"],
        ["a", "b"],
        [("p", "a", F(1, 2), "q"), ("q", "b", F(1, 2), "p"), ("p", "a", F(1, 2), "t")],
        ["t"],
    )
    doc = tmp_path / "alt.json"
    doc.write_text(serialize(wa), encoding="utf-8")
    argv = ["export-formula", "--file", str(doc), "--from", "p", "--to", "p"]
    assert main(argv + ["--out", str(tmp_path / "smt")]) == 64
    err = capsys.readouterr().err
    assert "export-formula takes letter-bounded queries only" in err
    assert "bounding words" not in err


def test_check_eventually_flag(capsys):
    import json as _json
    from ratiobound.jsonio import serialize as _ser
    from ratiobound import WeightedAutomaton as _WA

    trans = [
        ("s", "a", F(1, 2), "t"),
        ("s2", "a", F(1, 2), "m"),
        ("m", "a", F(1, 2), "m"),
        ("m", "a", F(1, 2), "t"),
    ]
    wa = _WA.from_transitions(["s", "s2", "m", "t"], ["a"], trans, ["t"])
    import tempfile, os as _os

    with tempfile.TemporaryDirectory() as d:
        path = _os.path.join(d, "wa.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_ser(wa))
        assert main(["check", "--file", path, "--from", "s", "--to", "s2", "--mode", "unary"]) == 1
        capsys.readouterr()
        assert main(
            ["check", "--file", path, "--from", "s", "--to", "s2", "--mode", "unary", "--eventually"]
        ) == 0
        assert main(["check", "--file", path, "--from", "s", "--to", "s", "--eventually"]) == 0
        capsys.readouterr()


def _ambiguous_at_a_only():
    """Unary and unambiguous from both `s` and `s'`: only `s` accepts `a`,
    and on every longer word the two weights are equal."""
    trans = [
        ("s", "a", F(1), "t"),
        ("s", "a", F(1), "p"),
        ("p", "a", F(1, 2), "p"),
        ("p", "a", F(1, 2), "t"),
        ("s'", "a", F(1), "q"),
        ("q", "a", F(1, 2), "q"),
        ("q", "a", F(1, 2), "t"),
    ]
    return WeightedAutomaton.from_transitions(["s", "p", "s'", "q", "t"], ["a"], trans, ["t"])


def test_check_eventually_picks_the_unary_decider(tmp_path, capsys):
    """Auto mode would pick the unambiguous decider, which answers every
    word; `--eventually` is answered by the unary decider only."""
    path = tmp_path / "wa.json"
    path.write_text(serialize(_ambiguous_at_a_only()), encoding="utf-8")
    argv = ["check", "--file", str(path), "--from", "s", "--to", "s'"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["decider"] == "unambiguous"
    assert main(argv + ["--eventually"]) == 0
    assert json.loads(capsys.readouterr().out)["decider"] == "unary"
    for mode in ("unambiguous", "bounded"):
        assert main(argv + ["--mode", mode, "--eventually"]) == 64
        assert "--eventually" in capsys.readouterr().err


def test_check_eventually_reports_the_query_s_own_lengths(tmp_path, capsys):
    """`s` accepts every length and `p` only 0, 1 and 2, so the difference
    is {3, 4, ...}; the witness names lengths of this automaton."""
    half = F(1, 2)
    trans = [("s", "a", half, "s"), ("p", "a", half, "p1"), ("p1", "a", half, "p2"),
             ("p2", "a", half, "p3")]
    wa = WeightedAutomaton.from_transitions(
        ["s", "p", "p1", "p2", "p3"], ["a"], trans, ["s", "p", "p1", "p2"]
    )
    path = tmp_path / "wa.json"
    path.write_text(serialize(wa), encoding="utf-8")
    argv = ["check", "--file", str(path), "--from", "s", "--to", "p", "--eventually"]
    assert main(argv) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["type"] == "difference"
    assert (witness["length"], witness["smallestLength"], witness["progressionPeriod"]) == (5, 4, 1)


def test_check_eventually_on_a_non_unary_automaton_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "wa.json"
    path.write_text(serialize(not_big_o_on_b()), encoding="utf-8")
    for mode in ("auto", "unary"):
        argv = ["check", "--file", str(path), "--from", "s", "--to", "s'", "--mode", mode]
        assert main(argv + ["--eventually"]) == 64
        assert "--eventually" in capsys.readouterr().err


def test_files_that_are_not_utf8_are_a_format_error(tmp_path, capsys):
    path = tmp_path / "wa.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", "--file", str(path), "--from", "s", "--to", "t"]) == 65
    assert "not UTF-8" in capsys.readouterr().err
    assert main(["generate", "undecidable", "--file", str(path), "--start", "s"]) == 65
    assert "not UTF-8" in capsys.readouterr().err


def test_generate_undecidable_cli(tmp_path, capsys):
    import random as _random
    from helpers import random_pa
    from ratiobound.jsonio import serialize as _ser

    wa, start = random_pa(_random.Random(5), nstates=2)
    path = tmp_path / "pa.json"
    path.write_text(_ser(wa), encoding="utf-8")
    assert main(["generate", "undecidable", "--file", str(path), "--start", start]) == 0
    doc = json.loads(capsys.readouterr().out)
    from ratiobound import validate_lmc

    out = parse_automaton(json.dumps(doc))
    assert validate_lmc(out)
    assert doc["query"]["s"] in out.states


def test_reduce_eventual_and_value1_cli(tmp_path, capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["reduce", "eventual", "--file", f, "--from", "s", "--to", "s'"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "delta" in doc
    parse_automaton(json.dumps(doc))

    import random as _random
    from helpers import random_pa
    from ratiobound.jsonio import serialize as _ser

    wa, start = random_pa(_random.Random(7), nstates=2)
    path = tmp_path / "pa.json"
    path.write_text(_ser(wa), encoding="utf-8")
    assert main(["reduce", "value1", "--file", str(path), "--from", start, "--to", start]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert "note" in doc2
    parse_automaton(json.dumps(doc2))


@pytest.mark.parametrize("kind", ["from-big-theta", "from-value1"])
def test_reduce_from_cli(tmp_path, capsys, kind):
    """Both reductions out of big-O write a document that parses and names
    states of its own automaton; the value-1 one is a probabilistic
    automaton from its start."""
    from ratiobound import validate_pa

    chain = WeightedAutomaton.from_transitions(
        ["s", "s'", "z", "t"],
        ["a"],
        [
            ("s", "a", F(1, 2), "s"),
            ("s", "a", F(1, 4), "t"),
            ("s", "a", F(1, 4), "z"),
            ("s'", "a", F(1, 2), "s'"),
            ("s'", "a", F(1, 4), "t"),
            ("s'", "a", F(1, 4), "z"),
            ("z", "a", F(1), "z"),
        ],
        ["t"],
    )
    path = tmp_path / "chain.json"
    path.write_text(serialize(chain), encoding="utf-8")
    assert main(["reduce", kind, "--file", str(path), "--from", "s", "--to", "s'"]) == 0
    doc = json.loads(capsys.readouterr().out)
    wa = parse_automaton(json.dumps(doc))
    if kind == "from-value1":
        assert validate_pa(wa, doc["start"])
    else:
        assert {doc["query"]["s"], doc["query"]["sPrime"]} <= set(wa.states)


def test_reduce_value1_names_are_fresh_and_distinct(tmp_path, capsys):
    """A start state named `s` sends the new `s` to `s0`, so the reserved
    name `s0` must move on as well."""
    pa = WeightedAutomaton.from_transitions(
        ("s", "t"), ("a",), [("s", "a", 1, "t"), ("t", "a", 1, "t")], ["t"]
    )
    path = tmp_path / "pa.json"
    path.write_text(serialize(pa), encoding="utf-8")
    assert main(["reduce", "value1", "--file", str(path), "--from", "s", "--to", "s"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(set(doc["states"])) == len(doc["states"]) == 7
    assert doc["query"] == {"s": "s0", "sPrime": "s'"}
    parse_automaton(json.dumps(doc))


def test_classify_spectral_dump(capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["classify", "--file", f, "--from", "s", "--spectral"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "spectral" in report and "admissible" in report["spectral"]


def test_classify_spectral_on_a_non_unary_automaton_exits_64(capsys):
    """The spectral dump is of unary automata only; asking for it on two
    letters is an input error, not a report without it."""
    f = data_file("relative_orderings_p62.json")
    assert main(["classify", "--file", f, "--from", "s", "--spectral"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "single-letter alphabet" in captured.err


def test_reduce_eventual_checks_both_query_states(tmp_path, capsys):
    """An unknown `--from` is not passed through to the document, and an
    unknown `--to` is not the final state that normalisation adds."""
    wa = WeightedAutomaton.from_transitions(
        ["p", "q", "f"], ["a"], [("p", "a", F(1, 2), "f"), ("q", "a", F(1, 2), "f")], ["f", "q"]
    )
    path = tmp_path / "no_t.json"
    path.write_text(serialize(wa), encoding="utf-8")
    for src, dst in (("nosuch", "q"), ("p", "t")):
        argv = ["reduce", "eventual", "--file", str(path), "--from", src, "--to", dst]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown state" in captured.err


def test_check_monitor_cap_exits_66(capsys, monkeypatch):
    import ratiobound.bounded

    monkeypatch.setattr(ratiobound.bounded, "MONITOR_CAP", 1)
    f = data_file("relative_orderings_p62.json")
    args = ["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "bounded"]
    assert main(args) == 66
    assert "resource error" in capsys.readouterr().err


def test_check_linear_set_cap_exits_66(tmp_path, capsys, monkeypatch):
    """Draw 0 of these decomposes into linear sets; with no linear set
    allowed the decomposition raises, and `check` exits 66."""
    import random

    import ratiobound.bounded
    from ratiobound import Query, ResourceError, decide_bounded

    wa = random_block_wa(random.Random(11), per=2)
    q = Query(wa, "L0_0", "L0_1")
    decide_bounded(q)
    monkeypatch.setattr(ratiobound.bounded, "LINEAR_SET_CAP", 0)
    with pytest.raises(ResourceError):
        decide_bounded(q)
    path = tmp_path / "block.json"
    path.write_text(serialize(wa), encoding="utf-8")
    args = ["check", "--file", str(path), "--from", "L0_0", "--to", "L0_1", "--mode", "bounded"]
    assert main(args) == 66
    assert "linear-set decomposition exceeded the cap" in capsys.readouterr().err


def test_generate_hardness_coverage_cap_exits_66(tmp_path, capsys):
    """Cycles of lengths 1, 7919 and 7907 cover every length, and their
    lcm of 62,615,533 lengths is too many to scan: exit 66, not a hang."""
    path = tmp_path / "cnf.json"
    path.write_text(
        json.dumps({"stem": [True], "cycles": [[1, [0]], [7919, [0]], [7907, [0]]]}),
        encoding="utf-8",
    )
    assert main(["generate", "hardness", "--file", str(path)]) == 66
    assert "coverage horizon" in capsys.readouterr().err


def test_check_plus_pattern_cap_exits_66(capsys):
    """22 bounding words would split into 2^22 - 1 plus-patterns: exit 66
    before any is built."""
    f = data_file("relative_orderings_p62.json")
    args = ["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "bounded"]
    assert main(args + ["--words"] + ["a", "b"] * 11) == 66
    assert "plus-patterns" in capsys.readouterr().err


def test_bad_arguments_exit_2(capsys):
    f = data_file("unbounded_ratio.json")
    for bad in (["check", "--file", f, "--from", "s"], ["nope"], ["check", "--mode", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "unary"]) == 1
    assert main(["check", "--file", f, "--from", "s'", "--to", "s", "--mode", "unary"]) == 0


@pytest.mark.parametrize("mode", ["auto", "unary", "unambiguous", "bounded"])
def test_check_rejects_bad_words_in_every_mode(capsys, mode):
    """Bounding words are checked before any decider runs, so a word the
    chosen decider would not read still exits 64."""
    f = data_file("unbounded_ratio.json")
    base = ["check", "--file", f, "--from", "s", "--to", "s'", "--mode", mode]
    for words in (["b"], ["a", "ab"], [""], []):
        assert main(base + ["--words", *words]) == 64, words
        assert "input error" in capsys.readouterr().err
    assert main(base + ["--words", "a"]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize(
    "mode, name, words",
    [
        ("bounded", "relative_orderings_p62.json", ["a", "b"]),
        ("unambiguous", "unbounded_ratio.json", ["a"]),
    ],
)
def test_check_splits_bounding_words_once(monkeypatch, capsys, mode, name, words):
    """The bounded decider splits `--words` itself and passes the split words
    down; for the other deciders the front end checks them.  Either way
    they are split once per query.  Both import the splitter from `nfaops`,
    so one counting splitter patched into both counts every call."""
    import ratiobound.bounded

    calls = []

    def counting(*args):
        calls.append(args)
        return split(*args)

    split = ratiobound.nfaops.check_bounding_words
    monkeypatch.setattr(ratiobound.bounded, "check_bounding_words", counting)
    monkeypatch.setattr(ratiobound.cli, "check_bounding_words", counting)
    argv = ["check", "--file", data_file(name), "--from", "s", "--to", "s'", "--mode", mode]
    assert main(argv + ["--words", *words]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == 1


def test_check_rejects_words_that_miss_the_language(tmp_path, capsys):
    """`--words a` does not bound L(s), which holds b^n a as well, so the
    bounded decider refuses it instead of answering for a^n alone."""
    f = tmp_path / "miss.json"
    f.write_text(serialize(not_big_o_on_b()), encoding="utf-8")
    base = ["check", "--file", str(f), "--from", "s", "--to", "s'"]
    assert main(base + ["--mode", "bounded", "--words", "a"]) == 64
    assert "bounding words miss 'b'" in capsys.readouterr().err
    assert main(base) == 1
    assert json.loads(capsys.readouterr().out)["witness"]["cycleRatio"] == "3/2"



def test_check_words_with_multi_character_symbols(tmp_path, capsys):
    """`--words` names multi-character symbols: `x1 x2` is read as the two
    symbols, as the detected letter bound is, and a word that spells no
    symbol sequence, or more than one, exits 64 and names the word."""
    f = tmp_path / "symbols.json"
    f.write_text(serialize(two_symbol_chain()), encoding="utf-8")
    base = ["check", "--file", str(f), "--mode", "bounded"]
    forward = base + ["--from", "s", "--to", "s'"]
    assert main(forward) == 0
    detected = json.loads(capsys.readouterr().out)
    assert main(forward + ["--words", "x1", "x2"]) == 0
    assert json.loads(capsys.readouterr().out) == detected
    assert main(base + ["--from", "s'", "--to", "s", "--words", "x1", "x2"]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["bounding_words"] == ["x1", "x2"]
    assert main(forward + ["--words", "x1", "x3"]) == 64
    assert "'x3'" in capsys.readouterr().err
    ambiguous = WeightedAutomaton.from_transitions(
        ["s", "t"], ["x", "xx"], [("s", "x", 1, "t")], ["t"]
    )
    f.write_text(serialize(ambiguous), encoding="utf-8")
    words = ["--from", "s", "--to", "s", "--words", "xxx"]
    assert main(["check", "--file", str(f), "--mode", "bounded", *words]) == 64
    assert "'xxx' splits" in capsys.readouterr().err


# each command's option strings and choice groups, in the order its `-h`
# lists them
COMMAND_HELP = {
    "check": (
        ["-h", "--file", "--from", "--to", "--human", "--mode", "--eventually", "--words",
         "--emit-smt", "--help"],
        ["{auto,unary,unambiguous,bounded}"],
    ),
    "classify": (["-h", "--file", "--from", "--to", "--spectral", "--human", "--help"], []),
    "oracle": (
        ["-h", "--file", "--from", "--to", "--human", "--max-len", "--entries", "--help"],
        [],
    ),
    "reduce": (
        ["-h", "--file", "--from", "--to", "--help"],
        ["{big-theta,from-big-theta,eventual,value1,from-value1}"],
    ),
    "generate": (
        ["-h", "--file", "--start", "--help"],
        ["{undecidable,hardness}"],
    ),
    "export-formula": (["-h", "--file", "--from", "--to", "--human", "--out", "--help"], []),
}


@pytest.mark.parametrize("command", sorted(COMMAND_HELP))
def test_command_help_lists_its_options(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    options = list(dict.fromkeys(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", out)))
    assert (options, list(dict.fromkeys(re.findall(r"\{[^}]*\}", out)))) == COMMAND_HELP[command]


TOP_USAGE = (
    "usage: ratiobound [-h]\n"
    "                  {check,classify,oracle,reduce,generate,export-formula} ...\n"
)
TOP_HELP = TOP_USAGE + """
Deciders for weight-ratio boundedness between automaton states

positional arguments:
  {check,classify,oracle,reduce,generate,export-formula}
    check               decide whether s is big-O of s'
    classify            report instance class membership
    oracle              brute-force ratio profile
    reduce              apply an answer-preserving reduction
    generate            produce a labeled instance
    export-formula      write all bounded-decider formulas as SMT-LIB

options:
  -h, --help            show this help message and exit
"""
CHOICES = "'check', 'classify', 'oracle', 'reduce', 'generate', 'export-formula'"
CHECK = ["check", "--file", data_file("unbounded_ratio.json"), "--from", "s", "--to", "s'"]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 2, "", "the following arguments are required: command"),
        (["nope"], 2, "", f"argument command: invalid choice: 'nope' (choose from {CHOICES})"),
        (["-h"], 0, TOP_HELP, None),
        (["--he"], 0, TOP_HELP, None),
        (["--", *CHECK], 2, "", f"argument command: invalid choice: '--' (choose from {CHOICES})"),
        (["--foo", *CHECK], 2, "", "unrecognized arguments: --foo"),
    ],
)
def test_top_level_usage_and_errors(capsys, monkeypatch, argv, code, out, err):
    """The top level lists every command with its help line, and its errors
    name every command, whichever command's arguments the parser built; an
    option before the command still leaves that command's arguments to
    parse."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ("" if err is None else TOP_USAGE + f"ratiobound: error: {err}\n")


def test_parser_builds_the_called_commands_arguments_only():
    parser = build_parser(["oracle", "--file", "x"])
    args, rest = parser.parse_known_args(["check", "--file", "x"])
    assert not hasattr(args, "fn") and rest == ["--file", "x"]
    args = parser.parse_args(["oracle", "--file", "x", "--from", "s", "--to", "t", "--max-len", "2"])
    assert (args.fn.__name__, args.max_len, args.entries) == ("cmd_oracle", 2, False)
    args = build_parser(["reduce"]).parse_args(
        ["reduce", "eventual", "--file", "x", "--from", "s", "--to", "t"]
    )
    assert (args.fn.__name__, args.kind, args.dst) == ("cmd_reduce", "eventual", "t")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_is_read_by_its_handler(command):
    """Each value a command's parser sets is read as `args.<dest>` by the
    command's handler: an option that nothing reads changes no output."""
    _, add_arguments, handler = COMMANDS[command]
    parser = argparse.ArgumentParser()
    add_arguments(parser)
    source = inspect.getsource(handler)
    unread = [a.dest for a in parser._actions if a.dest != "help" and f"args.{a.dest}" not in source]
    assert unread == []


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_keeps_the_exit_code_and_an_empty_stderr(unbuffered):
    """A reader that stops reading (`| head -1`) is no input error: the
    command exits with its verdict's code and writes nothing to stderr,
    whether stdout is flushed at each write or only at exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["check", "--file", data_file("relative_orderings_p61.json"), "--from", "s", "--to", "s'"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ratiobound.cli", *argv, "--mode", "bounded"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr.decode()) == (1, "")
