#!/usr/bin/env python3
"""The benchmark's own tests, on tiny workloads.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (as a benchmark run would) and
checks that:
  - the same seed gives identical counts and digests;
  - a different seed changes the digests;
  - every metric printed is named in BENCHMARK.json, and every name
    there is printed, for every workload and both --trace modes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    """Run one tiny benchmark; return (stdout lines, result object)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s exited %d" % (cmd, out.returncode))
    lines = out.stdout.splitlines()
    return lines, json.loads(lines[-1])


def deterministic(lines):
    """Digest lines and the counted (non-host-time) metric lines."""
    host = {m["name"] for m in SPEC["end_to_end"]}
    host.add("common.host_ns_per_event")
    keep = [l for l in lines if l.startswith("digest ")]
    for l in lines:
        parts = l.split()
        if parts[0] == "metric" and parts[1] not in host:
            keep.append(l)
    return keep


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_same_counts_and_digests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = run(w, 7, 0)
                b, _ = run(w, 7, 0)
                self.assertTrue(any(l.startswith("digest round")
                                    for l in a))
                self.assertEqual(deterministic(a), deterministic(b))

    def test_other_seed_other_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = run(w, 7, 0)
                b, _ = run(w, 8, 0)
                round_a = [l for l in a if l.startswith("digest round")]
                round_b = [l for l in b if l.startswith("digest round")]
                self.assertNotEqual(round_a, round_b)

    def test_printed_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = [(m["name"], m["unit"]) for m in SPEC[key]]
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    _, res = run(w, 7, trace)
                    self.assertEqual(
                        sorted(res), ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = [(n, m["unit"]) for n, m in
                           res["metrics"].items()]
                    self.assertEqual(sorted(got), sorted(want))


if __name__ == "__main__":
    unittest.main()
