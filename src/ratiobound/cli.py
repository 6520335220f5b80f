"""Command-line front end.

Exit codes: 0 = bounded (is big-O), 1 = not bounded, 2 = unknown,
64 = input error, 65 = document format error, 66 = resource cap exceeded.
Reports are JSON on stdout; --human switches to a short text rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .automata import (
    INF,
    FormatError,
    InputError,
    ProbAutomaton,
    Query,
    ResourceError,
    ratio_profile,
    validate_lmc,
)
from .bounded import (
    decide_bounded,
    decide_plus,
    detect_letter_bounded,
    letter_bounded_to_plus,
)
from .jsonio import format_weight, parse_automaton, serialize
from .nfaops import ChrobakNf, lc_check
from .reductions import (
    bigo_to_value1,
    complete_for_eventual,
    from_big_theta,
    gen_hardness,
    gen_undecidable,
    to_big_theta,
    value1_to_bigo,
)
from .unambiguous import decide_unambiguous, is_unambiguous_from
from .unary import decide_unary, decide_unary_eventual

EXIT_IS_BIG_O = 0
EXIT_NOT_BIG_O = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 64
EXIT_FORMAT = 65
EXIT_RESOURCE = 66


def _load(path: str, warnings):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_automaton(fh.read(), warnings)


def _emit(report: dict, human: bool):
    if human:
        for key, val in report.items():
            print(f"{key}: {val}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _verdict_exit(verdict: str) -> int:
    return {
        "is-big-o": EXIT_IS_BIG_O,
        "not-big-o": EXIT_NOT_BIG_O,
        "unknown": EXIT_UNKNOWN,
    }[verdict]


def cmd_check(args) -> int:
    warnings: list = []
    wa = _load(args.file, warnings)
    q = Query(wa, args.src, args.dst)
    mode = args.mode
    report = {"s": args.src, "sPrime": args.dst, "warnings": warnings}
    letters = None
    if mode == "auto":
        if is_unambiguous_from(wa, args.src) and is_unambiguous_from(wa, args.dst):
            mode = "unambiguous"
        elif wa.is_unary():
            mode = "unary"
        elif args.words or (letters := detect_letter_bounded(wa, args.dst)) is not None:
            mode = "bounded"
        else:
            raise InputError(
                "no decider applies: not unambiguous, not unary, not letter-bounded "
                "(supply --words for a general bound)"
            )
    report["decider"] = mode
    if mode == "unary":
        fn = decide_unary_eventual if args.eventually else decide_unary
        v = fn(q)
        report["verdict"] = "is-big-o" if v.is_big_o else "not-big-o"
        if not v.is_big_o:
            report["witness"] = {
                "type": v.witness_kind,
                "lcCounterexample": v.lc_counterexample,
                "threshold": v.threshold,
                "length": v.witness_length,
                "smallestLength": v.smallest_witness,
                "progressionPeriod": v.progression_period,
            }
    elif mode == "unambiguous":
        v = decide_unambiguous(q)
        report["verdict"] = "is-big-o" if v.is_big_o else "not-big-o"
        if not v.is_big_o:
            report["witness"] = {
                "type": v.witness_kind,
                "lcCounterexample": v.lc_counterexample,
                "cycle": [list(e) for e in v.cycle] if v.cycle else None,
                "cycleRatio": format_weight(v.cycle_ratio) if v.cycle_ratio else None,
            }
    elif mode == "bounded":
        v = decide_bounded(q, args.words, letters, start_bits=args.precision_bits)
        report["verdict"] = v.verdict
        report["subqueries"] = v.subqueries
        if v.verdict == "not-big-o":
            report["witness"] = (
                v.witness
                if v.witness is not None
                else {"type": "lc", "lcCounterexample": v.lc_counterexample}
            )
        if v.verdict == "unknown" and args.emit_smt:
            os.makedirs(args.emit_smt, exist_ok=True)
            paths = []
            for i, formula in enumerate(v.unknown_formulas):
                path = os.path.join(args.emit_smt, f"unresolved_{i:03d}.smt2")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(formula.to_smt2())
                paths.append(path)
            report["smtFiles"] = paths
    else:
        raise InputError(f"unknown mode {mode!r}")
    _emit(report, args.human)
    return _verdict_exit(report["verdict"])


def cmd_classify(args) -> int:
    warnings: list = []
    wa = _load(args.file, warnings)
    report = {
        "unary": wa.is_unary(),
        "states": len(wa.states),
        "alphabet": list(wa.alphabet),
        "lmc": bool(validate_lmc(wa)),
        "warnings": warnings,
    }
    if args.src:
        report["unambiguousFromS"] = bool(is_unambiguous_from(wa, args.src))
        lb = detect_letter_bounded(wa, args.src)
        report["letterBounded"] = list(lb) if lb is not None else None
    if args.dst:
        report["unambiguousFromSPrime"] = bool(is_unambiguous_from(wa, args.dst))
    if args.spectral and wa.is_unary():
        from .spectral import scc_debug_dump

        report["spectral"] = scc_debug_dump(wa, args.src)
    _emit(report, args.human)
    return 0


def cmd_oracle(args) -> int:
    warnings: list = []
    wa = _load(args.file, warnings)
    q = Query(wa, args.src, args.dst)
    profile = ratio_profile(q, args.max_len, cap=args.cap)
    report = {
        "maxRatio": "inf" if profile.max_ratio is INF else format_weight(profile.max_ratio),
        "attainedAt": profile.attained_at,
        "words": len(profile.entries),
        "warnings": warnings,
    }
    if args.entries:
        report["entries"] = [
            [w, format_weight(a), format_weight(b)] for (w, a, b) in profile.entries
        ]
    _emit(report, args.human)
    return 0


def cmd_reduce(args) -> int:
    warnings: list = []
    wa = _load(args.file, warnings)
    kind = args.kind
    if kind == "big-theta":
        out = to_big_theta(Query(wa, args.src, args.dst), letter=args.letter)
        doc = serialize(out.automaton, {"query": {"s": out.s, "sPrime": out.s_prime}})
    elif kind == "from-big-theta":
        out = from_big_theta(Query(wa, args.src, args.dst), letter=args.letter)
        doc = serialize(out.automaton, {"query": {"s": out.s, "sPrime": out.s_prime}})
    elif kind == "eventual":
        delta = Fraction(args.delta) if args.delta else None
        out = complete_for_eventual(wa, args.src, args.dst, delta=delta)
        doc = serialize(
            out.automaton,
            {
                "query": {"s": out.s, "sPrime": out.s_prime},
                "delta": format_weight(out.delta),
            },
        )
    elif kind == "value1":
        pa = ProbAutomaton(wa, args.src)
        out = value1_to_bigo(pa)
        doc = serialize(
            out.lmc.underlying,
            {
                "query": {"s": out.s, "sPrime": out.s_prime},
                "note": "value-1 holds iff s is NOT big-O of sPrime",
            },
        )
    elif kind == "from-value1":
        out = bigo_to_value1(Query(wa, args.src, args.dst))
        doc = serialize(
            out.underlying,
            {
                "start": out.start,
                "note": "value-1 holds iff s was NOT big-O of sPrime",
            },
        )
    else:
        raise InputError(f"unknown reduction {kind!r}")
    sys.stdout.write(doc)
    return 0


def cmd_generate(args) -> int:
    if args.kind == "undecidable":
        warnings: list = []
        wa = _load(args.file, warnings)
        pa = ProbAutomaton(wa, args.start)
        inst = gen_undecidable(pa, generalize=args.generalize)
        doc = serialize(
            inst.lmc.underlying,
            {
                "query": {"s": inst.s, "sPrime": inst.s_prime},
                "marked": {
                    "sDoublePrime": inst.s_double_prime,
                    "paStart": inst.pa_start,
                    "equalBranch": inst.equal_branch,
                    "final": inst.final,
                },
            },
        )
    elif args.kind == "hardness":
        with open(args.file, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        cnf = ChrobakNf(
            tuple(bool(b) for b in spec["stem"]),
            tuple((int(l), frozenset(int(o) for o in offs)) for l, offs in spec["cycles"]),
        )
        inst = gen_hardness(cnf)
        doc = serialize(
            inst.lmc.underlying,
            {
                "query": {"s": inst.s, "sPrime": inst.s_prime},
                "groundTruth": "is-big-o" if inst.label_big_o else "not-big-o",
                "universal": inst.universal,
            },
        )
    else:
        raise InputError(f"unknown generator {args.kind!r}")
    sys.stdout.write(doc)
    return 0


def cmd_export_formula(args) -> int:
    warnings: list = []
    wa = _load(args.file, warnings)
    q = Query(wa, args.src, args.dst)
    letters = detect_letter_bounded(wa, args.dst)
    if letters is None:
        raise InputError("languages are not letter-bounded; supply bounding words")
    os.makedirs(args.out, exist_ok=True)
    index = []
    lc = lc_check(q)
    for pq in letter_bounded_to_plus(wa, args.src, args.dst, letters):
        for cand in decide_plus(pq).candidates:
            verdict = cand.decision.verdict
            path = os.path.join(args.out, f"candidate_{len(index):04d}.smt2")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"; semi-decision: {verdict}\n")
                fh.write(cand.formula.to_smt2())
            index.append({"path": path, "verdict": verdict})
    _emit({"formulas": len(index), "lcHolds": bool(lc), "index": index}, args.human)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratiobound",
        description="Deciders for weight-ratio boundedness between automaton states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, query=True):
        p.add_argument("--file", required=True, help="automaton JSON document")
        if query:
            p.add_argument("--from", dest="src", required=True, help="first state")
            p.add_argument("--to", dest="dst", required=True, help="second state")
        p.add_argument("--human", action="store_true", help="text output")

    p = sub.add_parser("check", help="decide whether s is big-O of s'")
    common(p)
    p.add_argument("--mode", choices=["auto", "unary", "unambiguous", "bounded"], default="auto")
    p.add_argument("--eventually", action="store_true", help="ignore finitely many words (unary)")
    p.add_argument("--words", nargs="*", default=None, help="bounding words w1..wm")
    p.add_argument("--emit-smt", default=None, help="directory for unresolved formulas")
    p.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help="interval precision start, 16 to 2048 (env BIGO_WA_PRECISION_BITS)",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", help="report instance class membership")
    p.add_argument("--file", required=True)
    p.add_argument("--from", dest="src", default=None)
    p.add_argument("--to", dest="dst", default=None)
    p.add_argument("--spectral", action="store_true", help="dump SCC/radius table")
    p.add_argument("--human", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("oracle", help="brute-force ratio profile")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--entries", action="store_true", help="include per-word weights")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("reduce", help="apply an answer-preserving reduction")
    p.add_argument("kind", choices=["big-theta", "from-big-theta", "eventual", "value1", "from-value1"])
    common(p)
    p.add_argument("--letter", default=None, help="designated symbol")
    p.add_argument("--delta", default=None, help="completion weight (rational)")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("generate", help="produce a labeled instance")
    p.add_argument("kind", choices=["undecidable", "hardness"])
    p.add_argument("--file", required=True, help="PA document or Chrobak JSON")
    p.add_argument("--start", default=None, help="PA start state (undecidable)")
    p.add_argument("--generalize", action="store_true")
    p.add_argument("--human", action="store_true")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("export-formula", help="write all bounded-decider formulas as SMT-LIB")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_export_formula)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
