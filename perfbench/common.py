"""Shared pieces of the benchmark: inputs, timing, statistics, memory.

The program under test is imported from the checkout's ``src`` tree, so
the benchmark always measures the code it sits beside.  Every input is
made here from fixed constants and the run's ``--seed``.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that the
    program is there; exit non-zero (without a result line) if not."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


#: Fraction of the paper's object counts (131,443 + 127,312 at 1.0).
SCALE = 0.1
#: The maps are generated from this fixed seed, not from ``--seed``:
#: at this scale the join's candidate count moves by a factor of six
#: between map seeds, which would swamp any change to the code.  The
#: run seed picks the request streams and the sampled checks instead.
MAP_SEED = 42
#: Repetitions of the whole set-up; ``setup_s`` is their median.  Each
#: starts after a full garbage collection, so that no collection owed
#: to the previous repetition's garbage lands in it.
SETUP_REPEATS = 7


def now() -> float:
    return time.perf_counter()


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = max(1, min(len(data), int(-(-q * len(data) // 100))))
    return float(data[rank - 1])


def tail_ok(count: int, q: float) -> bool:
    """At least ten samples lie beyond percentile *q*."""
    return count * (100.0 - q) / 100.0 >= 10


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: One spinner per allowed core, at the idle scheduling policy: it runs
#: only when nothing else on its core is runnable, so it takes no time
#: from the program, but the core never halts.  It ends by itself if
#: the benchmark dies without stopping it.
_SPIN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = int(sys.argv[2])\n"
    "sys.stdout.write('up\\n'); sys.stdout.flush()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


@contextlib.contextmanager
def cores_awake():
    """Keep every allowed core busy with an idle-policy spinner.

    A request to a worker on another core that has halted waits for the
    host to wake that core; on a virtual machine how long that takes
    depends on the host's load.  Without the spinners, whole runs of
    serve-engine ran the closed loop at two thirds of the usual rate
    and the kNN median 1.5-2x slower."""
    spinners = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            p = subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu), str(os.getpid())],
                stdout=subprocess.PIPE, text=True)
            spinners.append(p)
            p.stdout.readline()
        yield
    finally:
        for p in spinners:
            p.kill()
        for p in spinners:
            p.wait()
            p.stdout.close()


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: a host-speed yardstick
    recorded beside each run so that a slow host shows."""
    t0 = now()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return now() - t0


def generate_maps(include_geometry: bool):
    """The program's map generator on the fixed inputs: ``(map1, map2)``."""
    from repro.datagen import paper_maps

    return paper_maps(scale=SCALE, seed=MAP_SEED,
                      include_geometry=include_geometry)


@dataclass
class Maps:
    """The two paper maps plus their MBRs as numpy arrays for the oracles."""

    map1: object
    map2: object
    arrays: dict  # name -> (oids, xl, yl, xu, yu)
    geometry: dict  # name -> {oid: points} (only when asked for)


def oracle_maps(map1, map2, include_geometry: bool) -> Maps:
    """The benchmark's own view of generated maps; never timed."""
    import numpy as np

    arrays = {}
    geometry = {}
    for name, data in (("streets", map1), ("features", map2)):
        objs = data.objects
        arrays[name] = (
            np.fromiter((o.oid for o in objs), np.int64, len(objs)),
            np.fromiter((o.mbr.xl for o in objs), np.float64, len(objs)),
            np.fromiter((o.mbr.yl for o in objs), np.float64, len(objs)),
            np.fromiter((o.mbr.xu for o in objs), np.float64, len(objs)),
            np.fromiter((o.mbr.yu for o in objs), np.float64, len(objs)),
        )
        if include_geometry:
            geometry[name] = {o.oid: o.points for o in objs}
    return Maps(map1, map2, arrays, geometry)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
