"""Benchmark entry point: one workload per call, one JSON line at the end.

    python3 perfbench/run.py --workload paper-join --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import import_program  # noqa: E402

WORKLOADS = ("paper-join", "serve-engine")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()

    from perfbench import oracle, workloads
    from perfbench.common import cores_awake

    oracle.selftest(args.seed)
    with cores_awake():
        if args.trace:
            from perfbench import layers

            run = layers.run_traced(args.workload, args.seed)
        else:
            run = workloads.run_untraced(args.workload, args.seed,
                                         args.seconds)
    for note in run.notes:
        print(note)
    for name, m in sorted(run.metrics.items()):
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
