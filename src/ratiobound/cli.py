"""Command-line front end.

Exit codes: 0 = bounded (is big-O), 1 = not bounded, 2 = unknown,
64 = input error, 65 = document format error, 66 = resource cap exceeded.
Reports are JSON on stdout; --human switches to a short text rendering.

The bounded decider and the reductions are imported by the handlers that
call them, so a unary, unambiguous, `oracle` or `classify` call never
loads them, with or without `--words`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
from .jsonio import format_weight, json_typed, parse_automaton, serialize
from .nfaops import ChrobakNf, check_bounding_words, detect_letter_bounded, lc_check
from .spectral import scc_debug_dump
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8: {exc}") from None
    return parse_automaton(text, warnings)


def _write(text: str):
    """Write `text` to stdout now.  A reader that closed the pipe wants no
    more output, which is no error: the rest goes to the null device and
    the command keeps its exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: dict, human: bool):
    if human:
        _write("".join(f"{key}: {val}\n" for key, val in report.items()))
    else:
        _write(json.dumps(report, indent=2, sort_keys=True) + "\n")


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
    ambiguity = None
    if args.eventually:
        # only the unary decider ignores finitely many words
        if mode not in ("auto", "unary") or not wa.is_unary():
            raise InputError("--eventually needs the unary decider and a unary automaton")
        mode = "unary"
    if mode == "auto":
        amb = is_unambiguous_from(wa, args.src)
        if amb and (amb_p := is_unambiguous_from(wa, args.dst)):
            mode, ambiguity = "unambiguous", (amb, amb_p)
        elif wa.is_unary():
            mode = "unary"
        elif args.words or detect_letter_bounded(wa, args.dst) is not None:
            mode = "bounded"
        else:
            raise InputError(
                "no decider applies: not unambiguous, not unary, not letter-bounded "
                "(supply --words for a general bound)"
            )
    report["decider"] = mode
    if args.words is not None and mode in ("unary", "unambiguous"):
        # the bounded decider splits its words itself; the others read none,
        # but a bad word is still an input error
        check_bounding_words(wa, args.words)
    if mode == "unary":
        v = (decide_unary_eventual if args.eventually else decide_unary)(q)
    elif mode == "unambiguous":
        v = decide_unambiguous(q, ambiguity)
    else:
        from .bounded import decide_bounded

        v = decide_bounded(q, args.words)
    report["verdict"] = v.verdict
    if v.subqueries is not None:
        report["subqueries"] = v.subqueries
    if v.witness is not None:
        report["witness"] = v.witness
    if v.verdict == "unknown" and args.emit_smt:
        os.makedirs(args.emit_smt, exist_ok=True)
        paths = []
        for i, formula in enumerate(v.unknown_formulas):
            path = os.path.join(args.emit_smt, f"unresolved_{i:03d}.smt2")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formula.to_smt2())
            paths.append(path)
        report["smtFiles"] = paths
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
    if args.spectral:
        report["spectral"] = scc_debug_dump(wa, args.src)
    _emit(report, args.human)
    return 0


def cmd_oracle(args) -> int:
    warnings: list = []
    wa = _load(args.file, warnings)
    q = Query(wa, args.src, args.dst)
    profile = ratio_profile(q, args.max_len)
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
    from .reductions import (
        bigo_to_value1,
        complete_for_eventual,
        from_big_theta,
        to_big_theta,
        value1_to_bigo,
    )

    warnings: list = []
    wa = _load(args.file, warnings)
    kind = args.kind
    if kind == "big-theta":
        out = to_big_theta(Query(wa, args.src, args.dst))
        doc = serialize(out.automaton, {"query": {"s": out.s, "sPrime": out.s_prime}})
    elif kind == "from-big-theta":
        out = from_big_theta(Query(wa, args.src, args.dst))
        doc = serialize(out.automaton, {"query": {"s": out.s, "sPrime": out.s_prime}})
    elif kind == "eventual":
        out = complete_for_eventual(wa, args.src, args.dst)
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
    else:
        out = bigo_to_value1(Query(wa, args.src, args.dst))
        doc = serialize(
            out.underlying,
            {
                "start": out.start,
                "note": "value-1 holds iff s was NOT big-O of sPrime",
            },
        )
    _write(doc)
    return 0


def cmd_generate(args) -> int:
    from .reductions import gen_hardness, gen_undecidable

    if args.kind == "undecidable":
        if args.start is None:
            raise InputError("--start is required for generate undecidable")
        warnings: list = []
        wa = _load(args.file, warnings)
        pa = ProbAutomaton(wa, args.start)
        inst = gen_undecidable(pa)
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
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
                stem = tuple(json_typed(b, bool) for b in spec["stem"])
                cycles = tuple(
                    (json_typed(l, int), frozenset(json_typed(o, int) for o in offs))
                    for l, offs in spec["cycles"]
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(
                    'a Chrobak spec is {"stem": [flags], "cycles": [[length, [offsets]]]}: '
                    f"{type(exc).__name__} {exc}"
                ) from None
        inst = gen_hardness(ChrobakNf(stem, cycles))
        doc = serialize(
            inst.lmc.underlying,
            {
                "query": {"s": inst.s, "sPrime": inst.s_prime},
                "groundTruth": "is-big-o" if inst.label_big_o else "not-big-o",
                "universal": inst.universal,
            },
        )
    _write(doc)
    return 0


def cmd_export_formula(args) -> int:
    from .bounded import decide_plus, letter_bounded_to_plus

    warnings: list = []
    wa = _load(args.file, warnings)
    q = Query(wa, args.src, args.dst)
    letters = detect_letter_bounded(wa, args.dst)
    if letters is None:
        raise InputError(
            "languages are not letter-bounded; export-formula takes letter-bounded "
            "queries only"
        )
    os.makedirs(args.out, exist_ok=True)
    index = []
    lc = lc_check(q)
    for pq in letter_bounded_to_plus(wa, args.src, args.dst, letters):
        for cand in decide_plus(pq):
            verdict = cand.decision.verdict
            path = os.path.join(args.out, f"candidate_{len(index):04d}.smt2")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"; semi-decision: {verdict}\n")
                fh.write(cand.formula.to_smt2())
            index.append({"path": path, "verdict": verdict})
    _emit({"formulas": len(index), "lcHolds": bool(lc), "index": index}, args.human)
    return 0


def _query(p):
    p.add_argument("--file", required=True, help="automaton JSON document")
    p.add_argument("--from", dest="src", required=True, help="first state")
    p.add_argument("--to", dest="dst", required=True, help="second state")


def _common(p):
    _query(p)
    p.add_argument("--human", action="store_true", help="text output")


def _check_arguments(p):
    _common(p)
    p.add_argument("--mode", choices=["auto", "unary", "unambiguous", "bounded"], default="auto")
    p.add_argument("--eventually", action="store_true", help="ignore finitely many words (unary)")
    p.add_argument("--words", nargs="*", default=None, help="bounding words w1..wm")
    p.add_argument("--emit-smt", default=None, help="directory for unresolved formulas")


def _classify_arguments(p):
    p.add_argument("--file", required=True)
    p.add_argument("--from", dest="src", default=None)
    p.add_argument("--to", dest="dst", default=None)
    p.add_argument("--spectral", action="store_true", help="dump SCC/radius table")
    p.add_argument("--human", action="store_true")


def _oracle_arguments(p):
    _common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--entries", action="store_true", help="include per-word weights")


def _reduce_arguments(p):
    p.add_argument("kind", choices=["big-theta", "from-big-theta", "eventual", "value1", "from-value1"])
    _query(p)


def _generate_arguments(p):
    p.add_argument("kind", choices=["undecidable", "hardness"])
    p.add_argument("--file", required=True, help="PA document or Chrobak JSON")
    p.add_argument("--start", default=None, help="PA start state (undecidable)")


def _export_formula_arguments(p):
    _common(p)
    p.add_argument("--out", required=True, help="output directory")


# name -> (help line, argument builder, handler), in usage order
COMMANDS = {
    "check": ("decide whether s is big-O of s'", _check_arguments, cmd_check),
    "classify": ("report instance class membership", _classify_arguments, cmd_classify),
    "oracle": ("brute-force ratio profile", _oracle_arguments, cmd_oracle),
    "reduce": ("apply an answer-preserving reduction", _reduce_arguments, cmd_reduce),
    "generate": ("produce a labeled instance", _generate_arguments, cmd_generate),
    "export-formula": (
        "write all bounded-decider formulas as SMT-LIB",
        _export_formula_arguments,
        cmd_export_formula,
    ),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for one command line.  Every command gets its sub-parser,
    whose name and help line make the top-level usage, help and
    invalid-choice error; only the command `argv` calls gets its arguments.
    That is the first word of `argv` that names a command: the top level
    takes no option with a value, so argparse dispatches to that word when
    it dispatches at all."""
    parser = argparse.ArgumentParser(
        prog="ratiobound",
        description="Deciders for weight-ratio boundedness between automaton states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    called = next((a for a in argv if a in COMMANDS), None)
    for name, (text, add_arguments, fn) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == called:
            add_arguments(p)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
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
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
