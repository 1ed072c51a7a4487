#!/usr/bin/env python3
"""Runs two sets of benchmark runs and reports whether they agree.

    python3 perfbench/compare.py [--runs 10] [--workload NAME ...]
                                 [--second-seed-base N]

For every workload, each set makes `--runs` untraced runs of
perfbench/run.py of BENCHMARK.json's run_seconds, one per seed: seeds 1, 2,
... for the first set and N, N + 1, ... for the second (default 1, the same
seeds again). For each end-to-end metric of BENCHMARK.json it prints each
set's median and quartile spread (the distance between the first and third
quartile, as a share of the median), the spread of both sets together, and
checks, against the metric's bound:
  * spread: each set's spread is within the bound;
  * drift:  the two medians differ by at most the bound, as a share of the
            first set's median, in either direction;
  * failed: the share of failed operations is the same in both sets.
Exits 0 when every check holds, 1 otherwise. Run it from the repository
root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def drift(first, second):
    """How far `second` lies from `first`, as a share of `first`."""
    return abs(second - first) / first if first else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--second-seed-base", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bases = (1, args.second_seed_base)

    ok = True
    for workload in workloads:
        sets = []
        for base in bases:
            runs = []
            for i in range(args.runs):
                runs.append(run_once(workload, base + i, spec["run_seconds"]))
                print(f"  {workload} seed {base + i}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'median 1':>11} {'median 2':>11} "
              f"{'spread 1':>9} {'spread 2':>9} {'both':>6} {'drift':>7} "
              f"{'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v1 = [r["metrics"][name]["value"] for r in sets[0]]
            v2 = [r["metrics"][name]["value"] for r in sets[1]]
            s1, s2, both = spread(v1), spread(v2), spread(v1 + v2)
            d = drift(statistics.median(v1), statistics.median(v2))
            good = d <= bound and max(s1, s2) <= bound
            ok &= good
            print(f"  {name:<18} {statistics.median(v1):>11.4f} "
                  f"{statistics.median(v2):>11.4f} {s1:>9.3f} {s2:>9.3f} "
                  f"{both:>6.3f} {d:>7.3f} {bound:>6.2f}  "
                  f"{'agree' if good else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        same = shares[0] == shares[1]
        ok &= same and correct
        print(f"  failed share {shares[0]:.6f} / {shares[1]:.6f}"
              f" ({'same' if same else 'DIFFERENT'}); answers "
              f"{'correct' if correct else 'WRONG'}")
    print("\nall agree" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
