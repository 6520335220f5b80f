"""Span tracing from outside the library.

Each layer's public function is rebound, at the module attribute its
caller looks up, to a wrapper that records a span (layer, start, end,
parent) and optional exact counts taken from the call's result.  A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict


def _count_subqueries(result, counts):
    counts["bounded.subqueries"] += len(result)


def _count_analysis(result, counts):
    counts["bounded.monitor_states"] += len(result.det_s.states) + len(result.det_p.states)
    counts["bounded.product_states"] += len(result.product_states)


def _count_linear_sets(result, counts):
    counts["bounded.linear_sets"] += len(result)


def _count_candidates(result, counts):
    counts["bounded.candidates"] += 1


def _count_semi_decision(result, counts):
    counts[f"realexp.{result.verdict}"] += 1


def _count_profile(result, counts):
    counts["automata.profile_words"] += len(result.entries)


# (layer, module, attribute, counter).  A function reached through several
# module attributes is hooked at each of them; every call passes exactly one.
HOOKS = (
    ("jsonio.parse", "ratiobound.cli", "parse_automaton", None),
    ("classify", "ratiobound.cli", "is_unambiguous_from", None),
    ("classify", "ratiobound.cli", "detect_letter_bounded", None),
    ("classify", "ratiobound.unambiguous", "is_unambiguous_from", None),
    ("classify", "ratiobound.bounded", "detect_letter_bounded", None),
    ("nfaops.lc_check", "ratiobound.bounded", "lc_check", None),
    ("nfaops.lc_check", "ratiobound.unary", "lc_check", None),
    ("nfaops.lc_check", "ratiobound.unambiguous", "lc_check", None),
    ("nfaops.eventually_included", "ratiobound.unary", "eventually_included", None),
    ("spectral.scc_decompose", "ratiobound.unary", "scc_decompose", None),
    ("spectral.scc_decompose", "ratiobound.bounded", "scc_decompose", None),
    ("spectral.scc_decompose", "ratiobound.spectral", "scc_decompose", None),
    ("spectral.annotate", "ratiobound.unary", "annotate", None),
    ("spectral.degree_language", "ratiobound.unary", "degree_language", None),
    ("unary.decide", "ratiobound.cli", "decide_unary", None),
    ("unary.decide", "ratiobound.cli", "decide_unary_eventual", None),
    ("unambiguous.decide", "ratiobound.cli", "decide_unambiguous", None),
    ("bounded.reduce", "ratiobound.bounded", "letter_bounded_to_plus", _count_subqueries),
    ("bounded.reduce", "ratiobound.bounded", "bounded_to_letter_bounded", None),
    ("bounded.plus_analysis", "ratiobound.bounded", "plus_analysis", _count_analysis),
    ("bounded.detectors", "ratiobound.bounded", "realized_candidates", None),
    ("bounded.detectors", "ratiobound.bounded", "detector_nfa", None),
    ("bounded.parikh", "ratiobound.bounded", "parikh_linear_sets", _count_linear_sets),
    ("bounded.emit_formula", "ratiobound.bounded", "emit_formula", _count_candidates),
    ("realexp.semi_decide", "ratiobound.bounded", "semi_decide", _count_semi_decision),
    ("automata.weight_blocks", "ratiobound.bounded", "weight_blocks", None),
    ("automata.ratio_profile", "ratiobound.cli", "ratio_profile", _count_profile),
)

# Root spans opened by the runner around each `cli.main` call; their self
# time is argument parsing, file reading, report building and emission.
ROOTS = ("cli.check", "cli.oracle")
LAYERS = tuple(dict.fromkeys(h[0] for h in HOOKS)) + ROOTS
CALL_COUNTED = (
    "jsonio.parse",
    "classify",
    "nfaops.lc_check",
    "nfaops.eventually_included",
    "spectral.scc_decompose",
    "realexp.semi_decide",
    "automata.weight_blocks",
)
COUNTS = (
    "bounded.subqueries",
    "bounded.monitor_states",
    "bounded.product_states",
    "bounded.linear_sets",
    "bounded.candidates",
    "realexp.holds",
    "realexp.fails",
    "realexp.unknown",
    "automata.profile_words",
)


class Tracer:
    """In-memory span recorder.  `resolve` builds the wrappers once; `install`
    and `remove` rebind the module attributes around each traced query."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._hooks = []  # (module, attribute, original, wrapper)

    @contextlib.contextmanager
    def span(self, layer):
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, layer) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts[f"{layer}.calls"] += 1
            if counter is not None:
                counter(result, tracer.counts)
            return result

        return traced

    def resolve(self):
        """Look up every hook once; report the ones this version lacks."""
        missing = []
        for layer, module_name, attr, counter in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._hooks.append((module, attr, fn, self.wrap(layer, fn, counter)))
        if missing:
            print("trace: hooks not found: " + ", ".join(missing), file=sys.stderr)

    def install(self):
        for module, attr, _fn, traced in self._hooks:
            setattr(module, attr, traced)

    def remove(self):
        for module, attr, fn, _traced in self._hooks:
            setattr(module, attr, fn)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self, first=0) -> dict:
        """Seconds per layer, excluding time spent in child spans, over the
        spans from `first` on (whole root spans with their children)."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (layer, start, end, parent) in enumerate(spans, first):
            out[layer] += (end - start) - child[idx]
        return out

