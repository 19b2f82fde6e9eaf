#!/usr/bin/env python3
"""Compare two bench_simperf JSON reports and fail on throughput regression.

Usage:
    tools/perf_smoke.py --baseline BENCH_simperf.json \
                        --candidate /tmp/candidate.json [--threshold 0.10]

For every benchmark present in both reports, compares items_per_second
(falling back to inverse real_time when a benchmark reports no items)
and exits non-zero if the candidate is more than --threshold below the
baseline. Benchmarks present on only one side are reported but never
fatal, so adding or retiring a benchmark does not break CI.

Microbenchmark noise on shared CI runners is real; the default 10%
threshold is meant to catch structural regressions (an allocation on
the hot path, a lost fast path), not scheduler jitter.

Benchmarks differ in how noisy they are: a single-threaded pool churn
loop is far steadier than a thread-fan-out bench on a shared runner.
--threshold-for NAME=FRAC (repeatable) overrides the global threshold
for one benchmark, so the gate can be tight where the signal is clean
and forgiving where the runner is the bottleneck.

With --normalize NAME, every throughput is divided by benchmark
NAME's throughput in the same report before comparing. This makes a
baseline recorded on one machine usable on a differently-clocked CI
runner: what is compared is each model's cost relative to raw event
kernel throughput, not absolute wall time. The reference benchmark
itself is then excluded from the verdict (its ratio is 1 by
construction).
"""

import argparse
import json
import sys


def load_throughputs(path):
    """Map benchmark name -> throughput proxy (higher is better).

    Reports produced with --benchmark_repetitions carry aggregate
    rows; the median aggregate is preferred over individual runs
    (it is what keeps the gate stable on noisy runners). Reports
    without repetitions fall back to the single run as before.
    """
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    out = {}
    medians = {}
    for bench in report.get("benchmarks", []):
        name = bench["name"]
        if "items_per_second" in bench:
            value = float(bench["items_per_second"])
        elif bench.get("real_time"):
            value = 1.0 / float(bench["real_time"])
        else:
            continue
        if bench.get("run_type") == "aggregate":
            if name.endswith("_median"):
                medians[name[:-len("_median")]] = value
            continue
        out[name] = value
    out.update(medians)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--candidate", required=True)
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional drop (default 0.10)")
    ap.add_argument("--threshold-for", metavar="NAME=FRAC",
                    action="append", default=[],
                    help="per-benchmark threshold override "
                         "(repeatable), e.g. BM_RequestPool=0.08")
    ap.add_argument("--normalize", metavar="NAME", default=None,
                    help="divide throughputs by benchmark NAME's "
                         "(cross-machine comparison)")
    args = ap.parse_args()

    per_bench = {}
    for spec in args.threshold_for:
        name, sep, frac = spec.partition("=")
        try:
            if not sep:
                raise ValueError
            per_bench[name] = float(frac)
        except ValueError:
            print(f"error: bad --threshold-for '{spec}' "
                  "(want NAME=FRAC)", file=sys.stderr)
            return 2

    base = load_throughputs(args.baseline)
    cand = load_throughputs(args.candidate)

    if args.normalize:
        for side, name in ((base, args.baseline), (cand, args.candidate)):
            ref = side.get(args.normalize)
            if not ref:
                print(f"error: --normalize benchmark '{args.normalize}' "
                      f"missing from {name}", file=sys.stderr)
                return 2
            for k in side:
                side[k] /= ref
            del side[args.normalize]

    rows = []
    failures = []
    for name in sorted(set(base) | set(cand)):
        b = base.get(name)
        c = cand.get(name)
        if b is None:
            rows.append((name, "-", f"{c:.3g}", "new"))
            continue
        if c is None:
            rows.append((name, f"{b:.3g}", "-", "removed"))
            continue
        ratio = c / b if b else float("inf")
        threshold = per_bench.get(name, args.threshold)
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSED"
            failures.append((name, ratio, threshold))
        if name in per_bench:
            verdict += f" (thr {threshold:.0%})"
        rows.append((name, f"{b:.3g}", f"{c:.3g}", f"{ratio:.2f}x {verdict}"))

    widths = [max(len(r[i]) for r in rows + [("benchmark", "baseline",
                                             "candidate", "ratio")])
              for i in range(4)]
    header = ("benchmark", "baseline", "candidate", "ratio")
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))

    if failures:
        print()
        for name, ratio, threshold in failures:
            print(f"FAIL: {name} at {ratio:.2f}x of baseline "
                  f"(threshold {1.0 - threshold:.2f}x)", file=sys.stderr)
        return 1
    print(f"\nperf-smoke OK ({len(rows)} benchmarks, "
          f"threshold {args.threshold:.0%}"
          + (f", {len(per_bench)} per-benchmark override(s)"
             if per_bench else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
