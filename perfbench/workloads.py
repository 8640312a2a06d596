"""The workloads: the paper's batch join and the serving engine.

``Serve`` also drives a ``ShardRouter``; only the traced run's router
session uses that mode (see layers.py).

Every workload reports the same end-to-end metrics (see README.md for
what each one times on each workload): ``setup_s``, ``peak_rss_mb``,
``primary_p50_ms``, ``secondary_p50_ms``, ``join_p50_ms`` and
``throughput_ops``.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import shutil
from dataclasses import dataclass, field

from . import oracle, traffic
from .common import (
    ROOT,
    SCALE,
    SETUP_REPEATS,
    generate_maps,
    median,
    metric,
    now,
    oracle_maps,
    peak_rss_mb,
    percentile,
    tail_ok,
)

SIDE = math.sqrt(SCALE)
#: The paper's headline configuration: gd with reassignment on all
#: directory levels, 24 processors, 24 disks, 100 buffer pages each.
SIM_PROCESSORS = 24
JOIN_PROCESSES = 2
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: Open-loop rate (req/s): a sixth of what the engine serves closed-loop
#: for this mix on a 2-core host.  Queueing amplifies host noise: at
#: 400 req/s the kNN median spread by 30 % between runs, at 200 req/s by
#: 13 %.  Fixed, so runs compare.
OPEN_RATE = 200.0
CLOSED_CLIENTS = 8
#: Shares of ``--seconds`` for the open- and closed-loop phases.
OPEN_SHARE = 0.55
#: The closed loop runs in this many slices; ``throughput_ops`` is the
#: median slice, so a host stall of a few seconds does not set it.
CLOSED_SLICES = 5


@dataclass
class Run:
    """What one run hands back to ``run.py``."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# paper-join
# ---------------------------------------------------------------------------
class PaperJoin:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        """Map generation, flat builds and ``prepare_trees``, timed
        ``SETUP_REPEATS`` times; the oracle's arrays, geometry and
        candidate set are made afterwards, untimed."""
        from repro.join.parallel import prepare_trees
        from repro.rtree.flat import build_flat_tree

        times = []
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            t0 = now()
            map1, map2 = generate_maps(include_geometry=True)
            f1, f2 = build_flat_tree(map1), build_flat_tree(map2)
            store = prepare_trees(f1, f2)
            times.append(now() - t0)
            state = (map1, map2, f1, f2, store)
        map1, map2, self.f1, self.f2, self.store = state
        self.setup_s = median(times)
        self.maps = oracle_maps(map1, map2, include_geometry=True)
        a = self.maps.arrays
        self.candidates = oracle.mbr_join(a["streets"], a["features"])
        self.rounds_checked = 0
        os.makedirs(WORK_DIR, exist_ok=True)
        self.journal = os.path.join(WORK_DIR, f"journal-{os.getpid()}.jsonl")

    def sim_config(self, trace=None):
        from repro import GD, ParallelJoinConfig, ReassignLevel, ReassignmentPolicy

        return ParallelJoinConfig(
            processors=SIM_PROCESSORS,
            disks=SIM_PROCESSORS,
            total_buffer_pages=max(4, round(100 * SIM_PROCESSORS * SCALE)),
            variant=GD,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
            trace=trace,
        )

    def one_round(self, fns=None):
        """Simulated join, real join, journalled join; wall times."""
        from repro import parallel_spatial_join
        from repro.join.flat import flat_multiprocessing_join
        from repro.recovery.coordinator import run_recoverable_join

        fns = fns or {}
        sim = fns.get("sim", parallel_spatial_join)
        real = fns.get("real", flat_multiprocessing_join)
        journalled = fns.get("journalled", run_recoverable_join)
        g = self.maps.geometry
        t0 = now()
        sim_result = sim(self.f1, self.f2, self.sim_config(), page_store=self.store)
        t1 = now()
        answers = real(self.f1, self.f2, JOIN_PROCESSES,
                       geometry_r=g["streets"], geometry_s=g["features"])
        t2 = now()
        if os.path.exists(self.journal):
            os.remove(self.journal)
        report = journalled(self.f1, self.f2, journal_path=self.journal,
                            processes=JOIN_PROCESSES)
        t3 = now()
        return (t1 - t0, t2 - t1, t3 - t2), (sim_result, answers, report)

    def measure(self, seconds: float, run: Run) -> None:
        """Whole rounds until ``seconds`` of timed work; each round's
        three results are checked between rounds, outside the timing."""
        rounds = []  # (sim, real, journalled) wall times per round
        while not rounds or sum(map(sum, rounds)) < seconds:
            times, results = self.one_round()
            rounds.append(times)
            self.check(*results, run)
        run.attempted = 3 * len(rounds)
        m = run.metrics
        m["primary_p50_ms"] = metric(median(r[0] for r in rounds) * 1e3, "ms")
        m["secondary_p50_ms"] = metric(median(r[2] for r in rounds) * 1e3, "ms")
        m["join_p50_ms"] = metric(median(r[1] for r in rounds) * 1e3, "ms")
        m["throughput_ops"] = metric(run.attempted / sum(map(sum, rounds)), "1/s")
        sim_result, answers, _ = results
        run.notes += [
            f"rounds {len(rounds)}, each checked; simulated response "
            f"{sim_result.response_time:.4f} sim_s; disk accesses "
            f"{sim_result.disk_accesses}; candidates {sim_result.candidates}; "
            f"answers {len(answers)}",
        ]

    def check(self, sim_result, answers, report, run: Run) -> None:
        """Check one round's three results; each one that fails counts
        as a failed operation and makes the run incorrect."""
        g = self.maps.geometry
        # A new refinement sample every round.
        sample_seed = self.seed * 100_003 + self.rounds_checked
        self.rounds_checked += 1
        checks = (
            lambda: oracle.check_simulation(
                sim_result.pair_set(), self.candidates, sim_result.response_time,
                sim_result.times.total_run_time, SIM_PROCESSORS),
            lambda: oracle.check_refined(answers, self.candidates, g["streets"],
                                         g["features"], sample_seed),
            lambda: oracle.check_exactly_once(report.pairs, self.candidates),
        )
        for fn in checks:
            try:
                fn()
            except oracle.CheckFailed as exc:
                run.failed += 1
                run.correct = False
                run.notes.append(f"CHECK FAILED: {exc}")

    def close(self) -> None:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


# ---------------------------------------------------------------------------
# serving: the engine, and the traced run's router session
# ---------------------------------------------------------------------------
PROBE_TREE = "probe"


def probe_items():
    """A small fixed tree that trips the ``children_of`` fault: two
    16-box clusters on one row (two leaves under one root) plus a box in
    the opposite corner, so the combined box of all trees is the map
    region itself and the shard grid does not move."""
    from repro.geometry.rect import Rect

    d = 0.0005 * SIDE
    items = []
    for k in range(16):
        items.append((k, Rect(k * 2 * d, 0.0, k * 2 * d + d, d)))
        x = 0.3 * SIDE + k * 2 * d
        items.append((100 + k, Rect(x, 0.0, x + d, d)))
    items.append((999, Rect(SIDE - d, SIDE - d, SIDE, SIDE)))
    return items


def probe_arrays() -> dict:
    """The probe tree as oracle arrays, so a probe that stops failing is
    checked like any other window."""
    import numpy as np

    items = probe_items()
    return {PROBE_TREE: (
        np.array([oid for oid, _ in items], dtype=np.int64),
        *(np.array([getattr(r, c) for _, r in items])
          for c in ("xl", "yl", "xu", "yu")),
    )}


def probe_item():
    """A window between the two clusters: inside the tree's root box,
    outside both leaves.  The same request every round, on every seed."""
    from repro.geometry.rect import Rect
    from repro.service import WindowRequest

    d = 0.0005 * SIDE
    rect = (0.15 * SIDE, 0.0, 0.15 * SIDE + d, d)
    return traffic.Item("window", WindowRequest(PROBE_TREE, Rect(*rect)),
                        (PROBE_TREE, rect), probe=True)


class Serve:
    """One server under the seeded three-class mix: an ``Engine`` for
    serve-engine, or a ``ShardRouter`` (``sharded``) for the traced
    run's router session."""

    def __init__(self, seed: int, sharded: bool):
        self.seed = seed
        self.sharded = sharded

    def build_server(self, map1, map2):
        if self.sharded:
            from repro.shard import ShardRouter

            return ShardRouter(self.datasets(map1, map2), self.shard_config())
        from repro.rtree.flat import FlatRTree, build_flat_tree
        from repro.service import Engine, EngineConfig

        # The batcher groups windows by tree, so the probe window is a
        # batch of its own and trips the fault every time.
        trees = {"streets": build_flat_tree(map1),
                 "features": build_flat_tree(map2),
                 PROBE_TREE: FlatRTree.build(probe_items())}
        return Engine(trees, EngineConfig(workers=1, batching=True,
                                          seed=self.seed))

    @staticmethod
    def datasets(map1, map2) -> dict:
        return {"streets": map1.items(), "features": map2.items(),
                PROBE_TREE: probe_items()}

    @staticmethod
    def shard_config():
        from repro.shard import ShardConfig

        return ShardConfig(shards=2, mode="grid", backend="flat", workers=1,
                           cache_capacity=0, replicas=1)

    def maker(self, maps, seed):
        if not self.sharded:
            return traffic.RequestMaker(maps, SIDE, seed)
        return traffic.RequestMaker(maps, SIDE, seed, hotspot=True,
                                    accept_window=self.accept_window)

    def accept_window(self, name, rect) -> bool:
        """Keep a window only if it hits an object on every shard it is
        routed to.  A window routed to a shard where it misses every leaf
        trips the ``children_of`` fault, and which windows do that
        depends on the seed; the fault is counted by the fixed probe."""
        from repro.geometry.rect import Rect

        sharded = self.sharded_data
        wxl, wyl, wxu, wyu = rect
        for shard in sharded.routed_shards(name, Rect(*rect)):
            t = sharded.trees[shard][name]
            n = t.size
            if not (((t.xmin[:n] <= wxu) & (wxl <= t.xmax[:n])
                     & (t.ymin[:n] <= wyu) & (wyl <= t.ymax[:n])).any()):
                return False
        return True

    def extra(self):
        return (probe_item(),)

    def checker(self) -> traffic.Checker:
        return traffic.Checker(self.maps, probe_arrays())

    def pin(self, server) -> None:
        """Front end on the first allowed core, workers on the others.

        Unpinned, four runs in ten ran the closed loop at a third of its
        usual rate for the whole run, most likely because the scheduler
        kept the front end and the workers it wakes on one core after
        the open loop's light load."""
        self.cpus = sorted(os.sched_getaffinity(0))
        if len(self.cpus) < 2:
            return
        os.sched_setaffinity(0, self.cpus[:1])
        pools = server.pools if self.sharded else [[server.pool]]
        for replicas in pools:
            for pool in replicas:
                for pid in pool.worker_pids():
                    os.sched_setaffinity(pid, self.cpus[1:])

    async def stop(self) -> None:
        await self.server.stop()
        os.sched_setaffinity(0, self.cpus)

    async def setup_once(self, warm: list):
        """Map generation, server build and start, and the warm-up
        requests *warm*; returns the total time and the warm-up's share.
        Only the program's calls are timed."""
        gc.collect()
        t0 = now()
        map1, map2 = generate_maps(include_geometry=False)
        server = self.build_server(map1, map2)
        await server.start()
        self.pin(server)
        self.server = server
        t1 = now()
        for item in warm:
            await server.submit(item.request)
        t2 = now()
        return (map1, map2), t2 - t0, t2 - t1

    def oracle_side(self) -> list:
        """The oracle's arrays (from one untimed map generation) and the
        warm-up round made from them."""
        self.maps = oracle_maps(*generate_maps(include_geometry=False),
                                include_geometry=False)
        if self.sharded:
            # The router's partition, built as the router builds it, for
            # the acceptance test of its windows.
            from repro.shard import build_sharded

            cfg = self.shard_config()
            self.sharded_data = build_sharded(
                self.datasets(self.maps.map1, self.maps.map2), cfg.shards,
                mode=cfg.mode, backend=cfg.backend,
                cells_per_side=cfg.cells_per_side)
        return self.maker(self.maps, self.seed + 10_000).round()

    async def setup(self):
        warm = self.oracle_side()
        times = []
        for i in range(SETUP_REPEATS):
            if i:
                await self.stop()
            _, total, _ = await self.setup_once(warm)
            times.append(total)
        self.setup_s = median(times)
        self.requests = self.maker(self.maps, self.seed)

    def open_rounds(self, seconds: float) -> int:
        per_round = len(self.requests.round(self.extra()))
        return max(1, round(seconds * OPEN_RATE / per_round))

    async def measure(self, seconds: float, run: Run, checker) -> None:
        n_open = self.open_rounds(seconds * OPEN_SHARE)
        rounds = [self.requests.round(self.extra()) for _ in range(n_open)]
        opened = await traffic.open_loop(self.server, rounds, OPEN_RATE)
        checker.check(opened.outcomes)
        lat = {"window": [], "knn": [], "join": []}
        for o in opened.outcomes:
            if o.response.ok:
                lat[o.item.cls].append(o.latency_ms)
        # Replies are checked and dropped slice by slice, so memory does
        # not grow with the number of requests served.
        rates, served, closed_s = [], 0, 0.0
        for _ in range(CLOSED_SLICES):
            closed = await traffic.closed_loop(
                self.server, lambda: self.requests.round(self.extra()),
                CLOSED_CLIENTS, seconds * (1 - OPEN_SHARE) / CLOSED_SLICES)
            checker.check(closed.outcomes)
            ok = sum(1 for o in closed.outcomes if o.response.ok)
            rates.append(ok / closed.elapsed_s)
            served += len(closed.outcomes)
            closed_s += closed.elapsed_s
        m = run.metrics
        m["primary_p50_ms"] = metric(median(lat["window"]), "ms")
        m["secondary_p50_ms"] = metric(median(lat["knn"]), "ms")
        m["join_p50_ms"] = metric(median(lat["join"]), "ms")
        m["throughput_ops"] = metric(median(rates), "1/s")
        tail = (f"window p99 {percentile(lat['window'], 99):.3f} ms"
                if tail_ok(len(lat["window"]), 99) else "window p99 n/a")
        run.notes.append(
            f"open loop: {len(opened.outcomes)} requests in "
            f"{opened.elapsed_s:.2f} s (window n={len(lat['window'])}, "
            f"knn n={len(lat['knn'])}, join n={len(lat['join'])}); {tail}")
        run.notes.append(timetable_note(opened.late_ms))
        run.notes.append(
            f"closed loop: {served} requests in {closed_s:.2f} s, slice "
            f"rates " + ", ".join(f"{r:.0f}" for r in rates) + " req/s")


def timetable_note(late_ms) -> str:
    """Whether the open loop kept its timetable: a generator more than
    two inter-arrival gaps late at p99 fell behind by more than one
    request, did not offer the load it names, and its run's latencies
    do not compare with other runs'."""
    late = percentile(late_ms, 99)
    limit = 2e3 / OPEN_RATE
    verdict = "kept" if late <= limit else "MISSED (run not comparable)"
    return (f"driver late p99 {late:.3f} ms; timetable {verdict}, "
            f"limit two gaps = {limit:.1f} ms")


async def run_serve(workload: Serve, seconds: float, run: Run) -> None:
    await workload.setup()
    try:
        checker = workload.checker()
        await workload.measure(seconds, run, checker)
    finally:
        await workload.stop()
    run.attempted = checker.attempted
    run.failed = checker.failed
    run.correct = checker.correct
    run.notes += checker.report()
    run.metrics["setup_s"] = metric(workload.setup_s, "s")


def run_paper_join(workload: PaperJoin, seconds: float, run: Run) -> None:
    workload.setup()
    try:
        workload.measure(seconds, run)
    finally:
        workload.close()
    run.metrics["setup_s"] = metric(workload.setup_s, "s")


def run_untraced(name: str, seed: int, seconds: float) -> Run:
    run = Run()
    if name == "paper-join":
        run_paper_join(PaperJoin(seed), seconds, run)
    else:
        asyncio.run(run_serve(Serve(seed, False), seconds, run))
    run.metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    return run
