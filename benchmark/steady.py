#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports each metric's
spread against its bound in BENCHMARK.json.

Usage (from the repository root):

    python3 benchmark/steady.py --workload preexec --runs 10 [--seed0 1]

Each run uses another seed (seed0, seed0+1, ...), the run length
run_seconds from BENCHMARK.json and no tracing, since the bounds apply
to untraced runs of that length. For every metric the
report gives the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread
(q3 - q1) / median, and, for end-to-end metrics, the bound and whether
the spread stays within a third of it. It also checks that the share of
failed operations is the same in every run. The exit code is 1 when a
run fails, the failed share differs between runs, or any spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    shares = set()
    for k in range(args.runs):
        seed = args.seed0 + k
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        t0 = time.monotonic()
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        wall = time.monotonic() - t0
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"run seed={seed}: exit {p.returncode}", flush=True)
            return 1
        res = json.loads(lines[-1])
        shares.add(Fraction(res["failed"], res["attempted"]))
        calib = [float(l.split()[-1]) for l in p.stderr.splitlines()
                 if l.startswith("[bench] host.calib_ms")]
        if calib:
            values.setdefault("host.calib_ms (stderr)", []).append(calib[0])
        print(f"run seed={seed} ({wall:.1f} s): " + json.dumps(res), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bad = False
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s; failed share(s): "
          + ", ".join(str(s) for s in sorted(shares)))
    if len(shares) != 1:
        bad = True
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    for name, vs in values.items():
        vs = [v for v in vs if v is not None]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            if spread > bound:
                bad = True
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{'' if bound is None else bound:>7} {note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
