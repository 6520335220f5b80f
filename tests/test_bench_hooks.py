"""The benchmark's files as the tests see them: every layer hook of the
tracer names a module attribute that exists, so a renamed or inlined layer
fails here instead of dropping out of a traced run; and the deciders answer
every labelled `bounded` query as its closed-form label says, so a faster
layer that changes a verdict fails here too; and the seed-1 reports of both
workloads keep their pinned digests."""

import hashlib
import importlib
import importlib.util
import os
import signal
import sys

import pytest

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


def test_every_layer_is_entered_by_the_seed_1_passes(tmp_path):
    """The traced seed-1 passes of both workloads, run through `cli.main`
    as the bench runs them, enter every layer the bench reports: a refactor
    that bypasses a hooked function fails here instead of reading 0."""
    from ratiobound import cli

    run, spans, workloads = _load("run"), _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    tracer.resolve()
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for workload in ("bounded", "unary-oracle"):
            for i, q in enumerate(workloads.build(workload, 1, helpers)):
                path = tmp_path / f"{workload}-{i:03d}.json"
                path.write_text(q.document, encoding="utf-8")
                q.argv = q.argv[:1] + ["--file", str(path)] + q.argv[1:]
                tracer.install()
                try:
                    with tracer.span("cli.check" if q.command == "check" else "cli.oracle"):
                        problem = run.call(cli, q, workloads.CAPS[workload])[3]
                finally:
                    tracer.remove()
                assert problem is None, (q.name, problem)
    finally:
        signal.signal(signal.SIGALRM, previous)
    entered = {layer for layer, *_ in tracer.spans}
    assert set(spans.LAYERS) - entered == set()


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


@pytest.mark.parametrize("seed, name", [(32, "006-m3"), (47, "010-m3")])
def test_near_tie_bounded_queries_are_decided(seed, name):
    """Two labelled holding chains whose sentences only just fail: the
    linear program certifies them at the start precision, where a box
    covering of fixed depth left them `unknown` at every precision."""
    (q,) = [q for q in _load("workloads").build("bounded", seed, helpers) if q.name == name]
    argv = dict(zip(q.argv[1::2], q.argv[2::2]))
    query = Query(parse_automaton(q.document), argv["--from"], argv["--to"])
    assert q.label == "is-big-o"
    assert decide_bounded(query).verdict == q.label


def test_letter_bound_detection_tests_each_block_once(monkeypatch):
    """The greedy block dropping of `detect_letter_bounded` goes on from the
    dropped index: past the first check of the whole sequence, a block that
    stays is refuted once, never retested after a later drop.  Each check
    is one `_in_letter_bound` search."""
    from ratiobound import nfaops

    (q,) = [q for q in _load("workloads").build("bounded", 1, helpers) if "m4" in q.name]
    argv = dict(zip(q.argv[1::2], q.argv[2::2]))
    results = []

    def counting(*args):
        out = check(*args)
        results.append(out)
        return out

    check = nfaops._in_letter_bound
    monkeypatch.setattr(nfaops, "_in_letter_bound", counting)
    letters = nfaops.detect_letter_bounded(parse_automaton(q.document), argv["--to"])
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


def test_bounded_pass_analyses_only_the_sub_questions_read_from_s(monkeypatch):
    """Of the 111 sub-questions of the seed-1 `bounded` pass, the 94 whose
    pattern no start reads, and any other whose `s@0` has no step, are
    answered without monitors: `plus_analysis` runs 17 times."""
    from ratiobound import bounded

    calls = []
    analyse = bounded.plus_analysis

    def counted(*args):
        calls.append(args)
        return analyse(*args)

    monkeypatch.setattr(bounded, "plus_analysis", counted)
    for q in _load("workloads").build("bounded", 1, helpers):
        argv = dict(zip(q.argv[1::2], q.argv[2::2]))
        decide_bounded(Query(parse_automaton(q.document), argv["--from"], argv["--to"]))
    assert len(calls) == 17


def test_traced_counts_of_the_bounded_pass():
    """The tracer's counters read result fields of the hooked layers (the
    monitors' `states`, `product_states`, a semi-decision's `verdict`), so
    a renamed field fails here, not as failed queries in a traced run."""
    spans = _load("spans")
    tracer = spans.Tracer()
    tracer.resolve()
    queries = _load("workloads").build("bounded", 1, helpers)
    tracer.install()
    try:
        for q in queries:
            argv = dict(zip(q.argv[1::2], q.argv[2::2]))
            decide_bounded(Query(parse_automaton(q.document), argv["--from"], argv["--to"]))
    finally:
        tracer.remove()
    assert {name: tracer.counts[name] for name in spans.COUNTS} == {
        "bounded.subqueries": 111,
        "bounded.monitor_states": 290,
        "bounded.product_states": 145,
        "bounded.linear_sets": 64,
        "bounded.candidates": 14,
        "realexp.holds": 3,
        "realexp.fails": 11,
        "realexp.unknown": 0,
        "automata.profile_words": 0,
    }
    assert tracer.counts["spectral.scc_decompose.calls"] == 48


def test_unary_queries_rank_each_radius_once(monkeypatch, tmp_path, capsys):
    """On the seed-1 `unary-oracle` check queries through the CLI, each
    query ranks its radii in one pass and both annotations reuse the ranks,
    so exact `compare` runs at most 320 times; a second search of the table
    per radius and annotation would double that."""
    from ratiobound import spectral
    from ratiobound.cli import main

    calls = []

    def counted(*args):
        calls.append(args)
        return compare(*args)

    compare = spectral.compare
    monkeypatch.setattr(spectral, "compare", counted)
    queries = [q for q in _load("workloads").build("unary-oracle", 1, helpers) if q.command == "check"]
    assert len(queries) == 120
    for i, q in enumerate(queries):
        path = tmp_path / f"{i:03d}.json"
        path.write_text(q.document, encoding="utf-8")
        assert main(q.argv[:1] + ["--file", str(path)] + q.argv[1:]) in (0, 1)
    capsys.readouterr()
    assert 0 < len(calls) <= 320


# run digests of the seed-1 passes, as `bench/run.py` prints them
SEED_1_DIGESTS = {
    "bounded": "1dba46c3cde8fab88aeadb75542cd8dc6b8d2a1369b60e2a6b822d923223d553",
    "unary-oracle": "8a070d0aa228a05c16b63af367864a67bb1cad961e6b7379a03e81227b7e6129",
}


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_seed_1_report_digests(tmp_path, workload):
    """Every seed-1 query of both workloads, run and checked as the bench
    runs and checks it, gives the same reports: the run digest over them
    is pinned, so a change to any report, verdict or witness fails here."""
    from ratiobound import cli

    run, workloads = _load("run"), _load("workloads")
    digests = []
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for i, q in enumerate(workloads.build(workload, 1, helpers)):
            path = tmp_path / f"{i:03d}.json"
            path.write_text(q.document, encoding="utf-8")
            q.argv = q.argv[:1] + ["--file", str(path)] + q.argv[1:]
            _, code, text, problem = run.call(cli, q, workloads.CAPS[workload])
            report, reason = run.verify(q, code, text, problem)
            assert reason is None, (q.name, reason)
            digests.append(run.digest(report, reason))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == SEED_1_DIGESTS[workload]
