"""The benchmark's files as the tests see them: every layer hook of the
tracer names a module attribute that exists, so a renamed or inlined layer
fails here instead of dropping out of a traced run; and the deciders answer
every labelled `bounded` query as its closed-form label says, so a faster
layer that changes a verdict fails here too."""

import importlib
import importlib.util
import os
import sys

import helpers
from ratiobound import Query, decide_bounded
from ratiobound.jsonio import parse_automaton

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_every_bench_hook_resolves():
    hooks = _load("spans").HOOKS
    assert hooks
    missing = [
        (module, attr)
        for _, module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing


def test_bounded_workload_verdicts_match_labels():
    queries = _load("workloads").build("bounded", 1, helpers)
    assert queries and all(q.label is not None for q in queries)
    wrong = []
    for q in queries:
        argv = dict(zip(q.argv[1::2], q.argv[2::2]))
        query = Query(parse_automaton(q.document), argv["--from"], argv["--to"])
        verdict = decide_bounded(query).verdict
        if verdict != q.label:
            wrong.append((q.name, verdict, q.label))
    assert not wrong, wrong


def test_letter_bound_detection_tests_each_block_once(monkeypatch):
    """The greedy block dropping of `detect_letter_bounded` goes on from the
    dropped index: past the first check of the whole sequence, a block that
    stays is refuted once, never retested after a later drop.  Each check
    is one `_in_letter_bound` search."""
    from ratiobound import bounded

    (q,) = [q for q in _load("workloads").build("bounded", 1, helpers) if "m4" in q.name]
    argv = dict(zip(q.argv[1::2], q.argv[2::2]))
    results = []

    def counting(*args):
        out = check(*args)
        results.append(out)
        return out

    check = bounded._in_letter_bound
    monkeypatch.setattr(bounded, "_in_letter_bound", counting)
    letters = bounded.detect_letter_bounded(parse_automaton(q.document), argv["--to"])
    assert letters == ("a", "b", "c", "d")
    assert results.count(False) == len(letters)
    assert len(results) == 11


def test_spectral_radii_of_the_bounded_pass(monkeypatch):
    """On the seed-1 `bounded` queries every component is 1x1, so its
    radius is its entry and no characteristic polynomial is built; the
    radius tables find rational radii by value, so exact `compare` runs
    only to sort them; and each query decomposes each of its distinct
    letters once, however many sub-questions read it."""
    from ratiobound import algebraic, bounded, spectral

    calls = {"char_poly": 0, "compare": 0, "scc_decompose": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(algebraic, "char_poly")
    counted(spectral, "compare")
    counted(bounded, "scc_decompose")
    for q in _load("workloads").build("bounded", 1, helpers):
        argv = dict(zip(q.argv[1::2], q.argv[2::2]))
        decide_bounded(Query(parse_automaton(q.document), argv["--from"], argv["--to"]))
    assert calls["char_poly"] == 0
    assert 0 < calls["compare"] <= 400
    assert calls["scc_decompose"] == 48
