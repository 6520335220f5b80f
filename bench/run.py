"""Closed-loop benchmark of the ratiobound CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One client in one process sends `ratiobound.cli.main([...])`
queries one after another over a seeded, labelled workload (see
`workloads.py` and README.md).  The workload's query list is one *pass*;
the run times whole passes, as many as fit in about `--seconds`.  Every
report is checked after its query returns, outside the query's timing.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs each query
untraced and traced and prints the per-layer metrics.  The last line of
stdout is the JSON result; a full record goes to
`.bench_out/BENCH_<workload>_seed<N>_trace<T>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
HELPERS_NAME = "ratiobound_bench_test_helpers"
SETUP_REPEATS = 5
# No query starts after this many seconds of measuring, so that a run ends
# within three minutes even when a query runs to its time cap.
GUARD_S = 120
EXIT_OF = {"is-big-o": 0, "not-big-o": 1, "unknown": 2}


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


# ---------------------------------------------------------------------------
# set-up


def _purge_modules():
    for name in list(sys.modules):
        if name == "ratiobound" or name.startswith("ratiobound.") or name == HELPERS_NAME:
            del sys.modules[name]


def setup(workload: str, seed: int, workdir: Path):
    """Import ratiobound, build the workload's documents and write them."""
    import workloads

    _purge_modules()
    start = time.perf_counter()
    cli = importlib.import_module("ratiobound.cli")
    spec = importlib.util.spec_from_file_location(HELPERS_NAME, ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    sys.modules[HELPERS_NAME] = helpers
    spec.loader.exec_module(helpers)
    queries = workloads.build(workload, seed, helpers)
    for i, q in enumerate(queries):
        path = workdir / f"{i:03d}.json"
        path.write_text(q.document, encoding="utf-8")
        q.argv = q.argv[:1] + ["--file", str(path)] + q.argv[1:]
    return time.perf_counter() - start, cli, queries


# ---------------------------------------------------------------------------
# one query and its check


def call(cli, q, cap: int):
    """Run one query; return (seconds, exit code, stdout, problem)."""
    out = io.StringIO()
    code, problem = None, None
    signal.alarm(cap)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(q.argv)
    except QueryTimeout:
        problem = f"over the {cap} s time cap"
    except SystemExit as exc:  # argparse rejected the arguments
        problem = f"exited with {exc.code}"
    except Exception as exc:  # a crash is a failed query; the run goes on
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.alarm(0)
    return elapsed, code, out.getvalue(), problem


def _witness_problem(witness) -> str | None:
    if not isinstance(witness, dict):
        return "not-big-o without a witness"
    if witness.get("type") == "lc":
        return None if witness.get("lcCounterexample") is not None else "lc witness without a word"
    run = witness.get("increasing_run") or []
    try:
        values = [Fraction(v) for v in run]
    except (TypeError, ValueError):
        return "increasing_run is not a list of fractions"
    if len(values) != 3 or not values[0] < values[1] < values[2]:
        return f"increasing_run {run} is not three strictly increasing ratios"
    return None


def verify(q, code, text, problem):
    """Return (report or None, failure reason or None)."""
    if problem is not None:
        return None, problem
    if code is None or code >= 64:
        return None, f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return None, "report is not JSON"
    if q.command == "check":
        verdict = report.get("verdict")
        if EXIT_OF.get(verdict) != code:
            return report, f"verdict {verdict!r} with exit code {code}"
        if q.label is not None and verdict != "unknown" and verdict != q.label:
            return report, f"verdict {verdict} contradicts label {q.label}"
        if verdict == "not-big-o" and report.get("decider") == "bounded":
            reason = _witness_problem(report.get("witness"))
            if reason:
                return report, reason
        return report, None
    want = q.expect()
    best = want["maxRatio"]
    if report.get("maxRatio") != f"{best.numerator}/{best.denominator}":
        return report, f"maxRatio {report.get('maxRatio')} != {best}"
    if report.get("words") != want["words"]:
        return report, f"words {report.get('words')} != {want['words']}"
    at = report.get("attainedAt")
    if (at is None) != (want["attainedAt"] is None) or (
        at is not None and want["ratio_of"].get(at) != best
    ):
        return report, f"attainedAt {at!r} does not attain {best}"
    return report, None


def digest(report, problem) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) if report else f"error:{problem}"
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs passes over the query list and keeps every outcome."""

    def __init__(self, cli, queries, cap, tracer=None):
        self.cli, self.queries, self.cap, self.tracer = cli, queries, cap, tracer
        self.latencies = []  # untraced seconds per timed query
        self.attempted = 0
        self.failures = []  # (query name or "*", reason)
        self.unknown = 0
        self.checks = 0
        self.digests = []  # per pass: report digests in query order
        self.times = []  # per pass: seconds in query order
        self.pass_wall = []  # untraced runs: wall seconds per pass
        self.layer_passes = []  # traced runs: per pass, layer metrics
        self.by_kind = []  # traced runs: per pass, {slot kind: {layer: self s}}
        self.probes = []  # seconds of each host-speed probe, between passes
        self.start = None
        self.cut = False  # the time guard stopped the run inside a pass

    def _one(self, q, traced):
        if traced:
            root = "cli.check" if q.command == "check" else "cli.oracle"
            self.tracer.install()
            try:
                with self.tracer.span(root):
                    elapsed, code, text, problem = call(self.cli, q, self.cap)
            finally:
                self.tracer.remove()
        else:
            elapsed, code, text, problem = call(self.cli, q, self.cap)
        report, reason = verify(q, code, text, problem)
        self.attempted += 1
        if reason is not None:
            self.failures.append((q.name, reason))
        if q.command == "check":
            self.checks += 1
            self.unknown += bool(report and report.get("verdict") == "unknown")
        return elapsed, digest(report, reason)

    def warm_up(self, kinds):
        """Run the first query of each slot kind once, untimed."""
        for kind in kinds:
            q = next(q for q in self.queries if q.name.split("-", 1)[1] == kind)
            self._one(q, False)

    def run_pass(self):
        digests, times = [], []
        plain = traced = 0.0
        by_kind = defaultdict(Counter)
        if self.tracer is not None:
            self.tracer.reset()
        wall = time.perf_counter()
        for i, q in enumerate(self.queries):
            if time.perf_counter() - self.start > GUARD_S:
                self.cut = True
                break
            if self.tracer is None:
                elapsed, d = self._one(q, False)
                self.latencies.append(elapsed)
            else:
                # alternate which side runs first, so warm caches favour neither
                got = {side: None for side in ((False, True) if i % 2 == 0 else (True, False))}
                first = len(self.tracer.spans)
                for side in got:
                    got[side] = self._one(q, side)
                by_kind[q.name.split("-", 1)[1]].update(self.tracer.self_times(first))
                plain += got[False][0]
                if got[False][1] != got[True][1]:
                    self.failures.append((q.name, "traced and untraced reports differ"))
                elapsed, d = got[True]
                traced += elapsed
            digests.append(d)
            times.append(elapsed)
        self.pass_wall.append(time.perf_counter() - wall)
        if self.cut and self.digests:
            return  # keep only whole passes for counts and digests
        if self.tracer is not None:
            stats = {f"{k}.self_s": v for k, v in self.tracer.self_times().items()}
            stats.update(self.tracer.counts)
            stats["trace.pass_s"] = traced
            stats["trace.overhead_s"] = traced - plain
            self.layer_passes.append(stats)
            self.by_kind.append({k: dict(v) for k, v in by_kind.items()})
        self.digests.append(digests)
        self.times.append(times)

    def run(self, seconds):
        """Time whole passes, about `seconds` in all; stop at the guard."""
        self.start = time.perf_counter()
        while not self.cut:
            self.probes.append(host_probe())
            self.run_pass()
            elapsed = time.perf_counter() - self.start
            # stop unless one more pass of average length ends nearer `seconds`
            if elapsed + elapsed / len(self.pass_wall) / 2 >= seconds:
                break
        for d in self.digests[1:]:
            if d != self.digests[0][: len(d)]:
                self.failures.append(("*", "reports differ between passes"))
                break


# ---------------------------------------------------------------------------
# environment and output


def host_probe() -> float:
    """Seconds for a fixed piece of exact arithmetic and dict work, the best
    of three: a record of the host's speed at the time, not a metric."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        m = [[Fraction(i + j + 1, 97 + i * j) for j in range(5)] for i in range(5)]
        v = [Fraction(1)] + [Fraction(0)] * 4
        for _ in range(120):
            v = [sum(v[i] * m[i][j] for i in range(5)).limit_denominator(10**12) for j in range(5)]
        d = {}
        for i in range(60000):
            d[(i * 7919) % 1009, i % 13] = i
        best = min(best, time.perf_counter() - start)
    return best


def steal_ticks():
    """Cumulative CPU steal ticks of the host (/proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("cpu "):
                    return int(line.split()[8])
    except (OSError, IndexError, ValueError):
        return None
    return None


def environment():
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }


def percentile_with_tail(values, q):
    """The q-th percentile if at least ten samples lie beyond it, else None."""
    n = len(values)
    if n - math.ceil(q * n) < 10:
        return None
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def end_to_end(loop, setup_times):
    lat = loop.latencies
    wall = sum(loop.pass_wall)
    return {
        "latency_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "queries_per_s": {"value": len(lat) / wall, "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def per_layer(loop):
    import spans

    passes = loop.layer_passes
    names = [f"{layer}.self_s" for layer in spans.LAYERS]
    names += [f"{layer}.calls" for layer in spans.CALL_COUNTED] + list(spans.COUNTS)
    names += ["trace.pass_s", "trace.overhead_s"]
    metrics = {}
    for name in names:
        values = [p.get(name, 0) for p in passes]
        timed = name.endswith("_s")
        if not timed and len(set(values)) > 1:
            loop.failures.append(("*", f"count {name} differs between passes: {values}"))
        metrics[name] = {
            "value": statistics.median(values) if timed else values[0],
            "unit": "s" if timed else "count",
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ratiobound" / "cli.py", ROOT / "tests" / "helpers.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a ratiobound checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    steal_before = steal_ticks()
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            elapsed, cli, queries = setup(args.workload, args.seed, workdir)
            setup_times.append(elapsed)
        for q in queries:
            if q.expect is not None:
                q.expect()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.resolve()
        # Collect the set-up's garbage and exempt what is left from later
        # collections, so queries pay for their own objects only, as they
        # would in a fresh CLI process.
        gc.collect()
        gc.freeze()
        signal.signal(signal.SIGALRM, _on_alarm)
        loop = Loop(cli, queries, workloads.CAPS[args.workload], tracer)
        loop.warm_up(workloads.WARMUP[args.workload])
        loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    steal_after = steal_ticks()

    metrics = per_layer(loop) if args.trace else end_to_end(loop, setup_times)
    failed = len([f for f in loop.failures if f[0] != "*"])
    correct = not loop.failures
    run_digest = hashlib.sha256("\n".join(loop.digests[0]).encode()).hexdigest()
    summary = {
        "queries": len(loop.latencies) if not args.trace else loop.attempted,
        "passes": len(loop.digests),
        "cut_at_time_guard": loop.cut,
        "failed_share": failed / loop.attempted,
        "unknown_share": loop.unknown / loop.checks if loop.checks else None,
        "latency_p90_ms": None,
        "report_digest": run_digest,
        # traced runs: per slot kind, each layer's self seconds in the first pass
        "self_s_by_kind": loop.by_kind[0] if loop.by_kind else None,
        "host_probe_s": statistics.median(loop.probes),
    }
    if not args.trace:
        p90 = percentile_with_tail(loop.latencies, 0.9)
        summary["latency_p90_ms"] = p90 * 1000 if p90 is not None else None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.WORKLOAD_PARAMS[args.workload],
        "environment": env,
        "steal_ticks": {"before": steal_before, "after": steal_after},
        "summary": summary,
        "metrics": metrics,
        "failures": loop.failures,
        "queries": [
            {
                "name": q.name,
                "argv": q.argv[:1] + q.argv[3:],
                "label": q.label,
                "digest": d,
                "seconds": [times[i] for times in loop.times if i < len(times)],
            }
            for i, (q, d) in enumerate(zip(queries, loop.digests[0]))
        ],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}")
    steal = (steal_after - steal_before) if None not in (steal_before, steal_after) else None
    print(f"queries {summary['queries']}  passes {summary['passes']}  steal_ticks {steal}")
    if loop.cut:
        print(f"  time guard: stopped after {GUARD_S} s inside a pass")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        p90 = summary["latency_p90_ms"]
        p90_text = f"{p90:.6g} ms" if p90 is not None else "not reported (< 100 queries)"
        print(f"  {'latency_p90_ms':40s} {p90_text}  over {len(loop.latencies)} queries")
    for kind, layers in (summary["self_s_by_kind"] or {}).items():
        total = sum(layers.values())
        top = max(layers, key=layers.get)
        print(f"  slot {kind:10s} traced {total:9.4f} s, {layers[top] / total:6.1%} in {top}")
    print(f"  failed_share {summary['failed_share']:.6g}  unknown_share {summary['unknown_share']}")
    for name, reason in loop.failures:
        print(f"  FAILED {name}: {reason}")
    print(f"  report digest {run_digest}  record {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
