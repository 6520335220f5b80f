"""Summarise benchmark records and compare two sets of them.

    python3 bench/compare.py DIR_OR_FILE... [--baseline DIR_OR_FILE...]

Reads `BENCH_*.json` records written by `run.py`.  For each workload it
prints every metric's median, quartiles and quartile spread (q3 - q1) /
median over the records, and checks that records of the same workload,
seed and trace mode agree exactly on their report digests and counts.

With `--baseline`, it also prints each end-to-end metric's median change
against the baseline records, flags a change worse than the metric's
bound in BENCHMARK.json, and lists queries whose report (verdict or
witness) differs between the two sets for the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
        for f in files:
            records.append(json.loads(f.read_text(encoding="utf-8")))
    return records


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(records):
    """{(workload, trace): {metric: [values]}} and a list of mismatches."""
    values = defaultdict(lambda: defaultdict(list))
    seen = {}
    mismatches = []
    for r in records:
        key = (r["workload"], r["trace"])
        for name, m in r["metrics"].items():
            values[key][name].append(m["value"])
        ident = (r["workload"], r["seed"], r["trace"])
        exact = {
            "digests": [q["digest"] for q in r["queries"]],
            "counts": {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"},
        }
        if ident in seen and seen[ident] != exact:
            mismatches.append(f"{ident}: digests or counts differ between runs")
        seen.setdefault(ident, exact)
    return values, mismatches


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--baseline", nargs="+", default=None)
    args = parser.parse_args(argv)

    current = load(args.paths)
    values, mismatches = summarise(current)
    for (workload, trace), metrics in sorted(values.items()):
        print(f"{workload}  trace {trace}  runs {len(next(iter(metrics.values())))}")
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    status = 1 if mismatches else 0

    if args.baseline:
        base = load(args.baseline)
        base_values, _ = summarise(base)
        spec = bounds()
        for (workload, trace), metrics in sorted(values.items()):
            if trace or (workload, trace) not in base_values:
                continue
            print(f"{workload}: change of the median against the baseline")
            for name, vals in metrics.items():
                if name not in base_values[(workload, trace)]:
                    continue
                old = statistics.median(base_values[(workload, trace)][name])
                new = statistics.median(vals)
                change = (new - old) / old if old else float("nan")
                m = spec.get(name)
                worse = m and (change if m["better"] == "lower" else -change) > m["bound"]
                flag = "  WORSE THAN BOUND" if worse else ""
                print(f"  {name:40s} {old:<14.6g} -> {new:<14.6g} {change:+.4f}{flag}")
                status |= bool(worse)
        by_seed = {(r["workload"], r["seed"]): r for r in base}
        for r in current:
            old = by_seed.get((r["workload"], r["seed"]))
            if old is None:
                continue
            old_digest = {q["name"]: q["digest"] for q in old["queries"]}
            for q in r["queries"]:
                if q["name"] in old_digest and old_digest[q["name"]] != q["digest"]:
                    print(f"REPORT CHANGED {r['workload']} seed {r['seed']} {q['name']}")
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
