import json
import os
from fractions import Fraction as F

import pytest

from ratiobound.cli import main
from ratiobound.jsonio import parse_automaton, parse_weight, serialize
from ratiobound.automata import FormatError
from ratiobound.samples import different_rates, relative_orderings, unbounded_ratio

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


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


def test_weight_canonicalization_warns():
    warnings = []
    assert parse_weight("3/6", warnings) == F(1, 2)
    assert warnings and "1/2" in warnings[0]


def test_negative_weight_rejected():
    with pytest.raises(FormatError) as err:
        parse_weight("-1/2")
    assert "negative" in str(err.value)


def test_decimal_weight_rejected():
    with pytest.raises(FormatError):
        parse_weight("0.5")


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


def test_check_exit_codes(capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "unary"]) == 1
    capsys.readouterr()
    assert main(["check", "--file", f, "--from", "s'", "--to", "s", "--mode", "unary"]) == 0
    capsys.readouterr()
    assert main(["check", "--file", f, "--from", "s", "--to", "s"]) == 0
    capsys.readouterr()


def test_check_auto_reports_decider(capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["check", "--file", f, "--from", "s", "--to", "s'"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["decider"] == "unambiguous"
    assert report["verdict"] == "not-big-o"


def test_check_auto_detects_letter_bound_once(capsys, monkeypatch):
    import ratiobound.bounded
    import ratiobound.cli

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        return wrapper

    for mod in (ratiobound.cli, ratiobound.bounded):
        monkeypatch.setattr(mod, "detect_letter_bounded", counted(mod.detect_letter_bounded))
    f = data_file("relative_orderings_p62.json")
    assert main(["check", "--file", f, "--from", "s", "--to", "s'"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["decider"] == "bounded" and out["verdict"] == "is-big-o"
    assert len(calls) == 1


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


def test_oracle_report(capsys):
    f = data_file("relative_orderings_p62.json")
    assert main(["oracle", "--file", f, "--from", "s", "--to", "s'", "--max-len", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maxRatio"] == "1600/1579"
    assert report["attainedAt"] == "aab"


def test_classify_report(capsys):
    f = data_file("relative_orderings_p62.json")
    assert main(["classify", "--file", f, "--from", "s'", "--human"]) == 0
    out = capsys.readouterr().out
    assert "letterBounded" in out


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
    assert ("is-big-o" if got.is_big_o else "not-big-o") == doc2["groundTruth"]


def test_export_formula(tmp_path, capsys, monkeypatch):
    import ratiobound.bounded
    import ratiobound.realexp
    from ratiobound import detect_letter_bounded, letter_bounded_to_plus
    from ratiobound.bounded import decide_plus

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
    # each formula is semi-decided exactly once
    assert len(calls) == report["formulas"]
    files = sorted(os.listdir(out))
    assert files
    text = (out / files[0]).read_text(encoding="utf-8")
    assert "(check-sat)" in text and "ln" in text
    monkeypatch.undo()
    with open(f, encoding="utf-8") as fh:
        wa = parse_automaton(fh.read())
    expected = [
        cand.decision.verdict
        for pq in letter_bounded_to_plus(wa, "s", "s'", detect_letter_bounded(wa, "s'"))
        for cand in decide_plus(pq).candidates
    ]
    assert [entry["verdict"] for entry in report["index"]] == expected


def test_check_precision_outside_range_is_input_error(capsys):
    f = data_file("relative_orderings_p62.json")
    argv = ["check", "--file", f, "--from", "s", "--to", "s'", "--mode", "bounded"]
    assert main(argv + ["--precision-bits", "0"]) == 64
    assert main(argv + ["--precision-bits", "4096"]) == 64
    assert "16 to 2048" in capsys.readouterr().err


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
        capsys.readouterr()


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


def test_classify_spectral_dump(capsys):
    f = data_file("unbounded_ratio.json")
    assert main(["classify", "--file", f, "--from", "s", "--spectral"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "spectral" in report and "admissible" in report["spectral"]
