"""Steadiness check: run the workloads in alternating sets and compare.

    python3 perfbench/steady.py --runs 5 --sets 2 --seconds 10

Each set runs every workload ``--runs`` times with seeds 1..runs,
interleaving workloads (run i of every workload before run i+1), and
times a fixed pure-Python loop before each run so that a slow host
shows.  Per workload and end-to-end metric it prints each set's median
and quartiles, the quartile spread as a share of the median, and the
drift of the second set's median from the first's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import ROOT, reference_loop  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    sets = []
    for s in range(args.sets):
        results = {w: [] for w in args.workloads}
        for seed in range(1, args.runs + 1):
            for w in args.workloads:
                ref = reference_loop()
                res = one_run(w, seed, args.seconds)
                results[w].append(res)
                values = " ".join(f"{k}={v['value']:.4g}"
                                  for k, v in sorted(res["metrics"].items()))
                print(f"set {s + 1} {w} seed {seed}: ref loop {ref:.4f} s, "
                      f"correct={res['correct']} failed={res['failed']}/"
                      f"{res['attempted']} {values}", flush=True)
        sets.append(results)
    for w in args.workloads:
        print(f"\n== {w}")
        names = sorted(sets[0][w][0]["metrics"])
        for name in names:
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results[w]]
                q1, q2, q3, rel = spread(values)
                medians.append(q2)
                print(f"  {name:20s} set {s + 1}: median {q2:12.4f} "
                      f"q1 {q1:12.4f} q3 {q3:12.4f} spread {rel:7.2%}")
            for s in range(1, len(medians)):
                print(f"  {name:20s} drift set {s + 1} vs 1: "
                      f"{medians[s] / medians[0] - 1:+7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
