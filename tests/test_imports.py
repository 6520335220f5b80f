"""What importing the package and running each command loads, and the
package's public names."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ratiobound

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src")
DATA = os.path.join(TESTS, "..", "data")

# the Schanuel-conditional bounded decider and the reductions
DECIDER = {"bounded", "realexp", "intervals"}
HEAVY = DECIDER | {"reductions"}

# Runs `sys.argv[1]` with stdout silenced, then prints the `ratiobound`
# submodules loaded, and the exit code when the statement set `code`.
PROBE = """
import contextlib, io, json, sys
code = None
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
loaded = sorted(m[len("ratiobound."):] for m in sys.modules if m.startswith("ratiobound."))
print(json.dumps([code, loaded]))
"""


def _loaded(statement, argv=()):
    """The exit code and the set of submodules loaded by one fresh process
    that runs `statement`; `argv` reaches it as `sys.argv[2:]`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, statement, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    code, loaded = json.loads(out.stdout)
    return code, set(loaded)


def _command(*argv):
    return _loaded("from ratiobound.cli import main; code = main(sys.argv[2:])", argv)


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import ratiobound") == (None, set())


def test_importing_the_command_line_loads_only_what_every_command_may_need():
    assert _loaded("import ratiobound.cli")[1] == {
        "cli",
        "automata",
        "jsonio",
        "nfaops",
        "unary",
        "unambiguous",
        "spectral",
        "algebraic",
    }


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--file", "different_rates.json", "--from", "s", "--to", "s'"], 1),
        (["check", "--file", "unbounded_ratio.json", "--from", "s", "--to", "s'"], 1),
        (["oracle", "--file", "unbounded_ratio.json", "--from", "s", "--to", "s'", "--max-len", "6"], 0),
        (["classify", "--file", "relative_orderings_p62.json", "--from", "s"], 0),
    ],
    ids=["unary-check", "unambiguous-check", "oracle", "classify"],
)
def test_unary_unambiguous_and_oracle_calls_never_load_the_decider(argv, code):
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    got, loaded = _command(*argv)
    assert got == code
    assert loaded & HEAVY == set()


@pytest.mark.parametrize("mode", ["auto", "unambiguous"])
def test_checking_bounding_words_loads_no_decider(mode):
    """`--words` for the unary or unambiguous decider is split by `nfaops`,
    so the bounded decider stays unloaded."""
    f = os.path.join(DATA, "different_rates.json" if mode == "auto" else "unbounded_ratio.json")
    argv = ["check", "--file", f, "--from", "s", "--to", "s'", "--mode", mode, "--words", "a"]
    code, loaded = _command(*argv)
    assert code == 1
    assert loaded & DECIDER == set()


def test_bounded_check_loads_the_decider_but_no_reduction():
    f = os.path.join(DATA, "relative_orderings_p62.json")
    code, loaded = _command("check", "--file", f, "--from", "s", "--to", "s'", "--mode", "bounded")
    assert code == 0
    assert DECIDER <= loaded and "reductions" not in loaded


def test_generate_loads_the_reductions_but_not_the_decider(tmp_path):
    spec = tmp_path / "cnf.json"
    spec.write_text(json.dumps({"stem": [True], "cycles": [[2, [0]], [3, [1]]]}), encoding="utf-8")
    code, loaded = _command("generate", "hardness", "--file", str(spec))
    assert code == 0
    assert "reductions" in loaded and loaded & DECIDER == set()


# The public names and the submodule attribute each one is, by module.
PUBLIC = {
    "automata": (
        "INF FormatError InputError Lmc Nfa ProbAutomaton Query RatioProfile "
        "ResourceError Verdict WeightedAutomaton nfa_of normalize_single_final ratio_profile "
        "validate_lmc validate_pa weight_blocks"
    ),
    "bounded": (
        "LinearSet bounded_to_letter_bounded decide_bounded emit_formula "
        "letter_bounded_to_plus parikh_linear_sets plus_analysis"
    ),
    "nfaops": "ChrobakNf detect_letter_bounded eventually_included lc_check nfa_contained",
    "realexp": "RealExpFormula semi_decide",
    "reductions": (
        "bigo_to_value1 complete_for_eventual from_big_theta gen_hardness "
        "gen_undecidable to_big_theta value1_to_bigo"
    ),
    "spectral": "AlgebraicNumber AnnotatedAutomaton SccInfo annotate degree_language scc_decompose",
    "unambiguous": "decide_unambiguous is_unambiguous_from",
    "unary": "decide_unary decide_unary_eventual",
}
RENAMED = {"compare_radius": ("algebraic", "compare")}


def test_public_names_are_their_submodule_attributes():
    expected = {n: (m, n) for m, names in PUBLIC.items() for n in names.split()} | RENAMED
    assert len(expected) == 49
    assert sorted(ratiobound.__all__) == sorted(expected)
    for name, (module, attribute) in expected.items():
        mod = importlib.import_module(f"ratiobound.{module}")
        assert getattr(ratiobound, name) is getattr(mod, attribute), name
    assert set(expected) <= set(dir(ratiobound))
    with pytest.raises(AttributeError, match="no_such_name"):
        ratiobound.no_such_name
    from ratiobound import bounded

    assert bounded is sys.modules["ratiobound.bounded"]
