"""The traced run: per-layer numbers, each taken from outside the layer.

A traced run of any workload does three things:

1. sets the workload up as the untraced run does;
2. runs a short untraced and a short traced slice of the workload, and
   reports the difference of their primary medians as the tracing
   overhead;
3. runs the layer suite: the public functions of every layer, called
   directly on the same maps, plus one short traced session each on an
   ``Engine`` and a ``ShardRouter`` whose ``submit``, ``WorkerPool.run``
   and ``ResultCache.get/put`` are wrapped with spans.

Every traced run reports every per-layer metric, so the suite is the
same on every workload; which end-to-end metric each one should move,
and on which workload, is in README.md.
"""

from __future__ import annotations

import asyncio
import functools
import os
import pickle
import shutil
import statistics

from . import traffic
from .common import generate_maps, median, metric, now, oracle_maps, percentile
from .spans import Recorder
from .workloads import (
    JOIN_PROCESSES,
    OPEN_RATE,
    SIM_PROCESSORS,
    WORK_DIR,
    PaperJoin,
    Run,
    Serve,
    timetable_note,
)

#: Rounds of the mix per traced slice and per suite session.
SLICE_ROUNDS = 6


def timed(fn, *args, **kwargs):
    t0 = now()
    out = fn(*args, **kwargs)
    return now() - t0, out


def wrap_server(rec: Recorder, server) -> None:
    rec.wrap(server, "submit", "submit", new_request=True, keep_args=True)
    rec.wrap(server.cache, "get", "cache.get")
    rec.wrap(server.cache, "put", "cache.put")
    pools = server.pools if hasattr(server, "pools") else [[server.pool]]
    for replicas in pools:
        for pool in replicas:
            rec.wrap(pool, "run", "pool.run", keep_args=True)


async def serve_slice(workload: Serve, rec: Recorder | None, checker):
    rounds = [workload.requests.round(workload.extra())
              for _ in range(SLICE_ROUNDS)]
    if rec is not None:
        wrap_server(rec, workload.server)
    try:
        result = await traffic.open_loop(workload.server, rounds, OPEN_RATE)
    finally:
        if rec is not None:
            rec.unwrap_all()
    checker.check(result.outcomes)
    windows = [o.latency_ms for o in result.outcomes
               if o.item.cls == "window" and o.response.ok]
    return median(windows), result


# -- step 2: tracing overhead on the workload itself -------------------------
async def overhead_serve(workload: Serve, run: Run, rec: Recorder) -> float:
    """Also reports how late the workload's own open loop ran (untraced
    slice) as ``driver.late_p99_ms``."""
    await workload.setup()
    checker = workload.checker()
    try:
        plain, result = await serve_slice(workload, None, checker)
        traced, _ = await serve_slice(workload, rec, checker)
    finally:
        await workload.stop()
    run.metrics["driver.late_p99_ms"] = metric(
        percentile(result.late_ms, 99), "ms")
    run.notes.append(timetable_note(result.late_ms))
    run.attempted, run.failed = checker.attempted, checker.failed
    run.correct = run.correct and checker.correct
    run.notes += checker.report()
    return (traced / plain - 1.0) * 100.0


def overhead_paper(workload: PaperJoin, run: Run, rec: Recorder) -> float:
    from repro import parallel_spatial_join
    from repro.join.flat import flat_multiprocessing_join
    from repro.recovery.coordinator import run_recoverable_join

    workload.setup()
    try:
        (plain, _, _), results = workload.one_round()
        workload.check(*results, run)
        fns = {
            key: functools.partial(rec.call, fn.__name__, fn)
            for key, fn in (("sim", parallel_spatial_join),
                            ("real", flat_multiprocessing_join),
                            ("journalled", run_recoverable_join))
        }
        (traced, _, _), results = workload.one_round(fns)
        workload.check(*results, run)
    finally:
        workload.close()
    run.attempted = 6
    return (traced / plain - 1.0) * 100.0


# -- step 3: the layer suite ---------------------------------------------------
def suite_direct(m: dict, seed: int, notes: list) -> tuple:
    """Direct calls into datagen, rtree, shard, sim, buffer, join,
    recovery and trace, on the fixed maps."""
    from repro import (
        ExactRefinement,
        TraceConfig,
        create_tasks,
        parallel_spatial_join,
        prepare_trees,
        run_checkers,
        sequential_join,
    )
    from repro.join.flat import create_flat_tasks, flat_join, flat_multiprocessing_join
    from repro.recovery.coordinator import run_recoverable_join
    from repro.rtree.flat import build_flat_tree
    from repro.shard import build_sharded, sharded_join, sharded_window
    from repro.trace.checkers import default_checkers

    t, (map1, map2) = timed(generate_maps, True)
    m["datagen.maps_s"] = metric(t, "s")
    maps = oracle_maps(map1, map2, True)
    t, (f1, f2) = timed(lambda: (build_flat_tree(maps.map1),
                                 build_flat_tree(maps.map2)))
    m["rtree.build_s"] = metric(t, "s")

    t, sharded = timed(build_sharded, {"streets": maps.map1.items(),
                                       "features": maps.map2.items()},
                       2, mode="grid", backend="flat")
    m["shard.build_s"] = metric(t, "s")
    maker = traffic.RequestMaker(maps, maps.map1.region.side, seed)
    windows = [maker.window().request for _ in range(200)]
    times = [timed(sharded_window, sharded, w.tree, w.window)[0] for w in windows]
    m["shard.window_us"] = metric(median(times) * 1e6, "us")
    joins = [maker.join().request for _ in range(5)]
    times = [timed(sharded_join, sharded, "streets", "features", j.window)[0]
             for j in joins]
    m["shard.join_ms"] = metric(median(times) * 1e3, "ms")

    prepare_trees(f1, f2)
    t, tasks = timed(create_tasks, f1, f2, min_tasks=SIM_PROCESSORS)
    m["sim.tasks_s"] = metric(t, "s")
    pj = PaperJoin(seed)
    res = parallel_spatial_join(f1, f2, pj.sim_config())
    counts = res.metrics.counts
    m["sim.tasks"] = metric(res.tasks_created, "count")
    m["sim.reassignments"] = metric(res.reassignments, "count")
    m["sim.intersection_tests"] = metric(counts["intersection_tests"], "count")
    m["sim.busy_total_s"] = metric(res.times.total_run_time, "sim_s")
    m["sim.response_s"] = metric(res.response_time, "sim_s")
    m["sim.disk_accesses"] = metric(res.disk_accesses, "count")
    hits = res.metrics.buffer_hits
    m["buffer.hit_ratio"] = metric(hits / (hits + res.disk_accesses), "ratio")
    m["buffer.remote_hits"] = metric(res.metrics.remote_hits, "count")

    t, _ = timed(create_flat_tasks, f1, f2, min_tasks=4 * JOIN_PROCESSES)
    m["join.tasks_s"] = metric(t, "s")
    t, serial = timed(flat_join, f1, f2)
    m["join.filter_serial_s"] = metric(t, "s")
    t, _ = timed(flat_multiprocessing_join, f1, f2, JOIN_PROCESSES)
    m["join.filter_parallel_s"] = metric(t, "s")
    g = maps.geometry
    refine = ExactRefinement(g["streets"], g["features"])
    t, _ = timed(refine.filter_answers, serial.pairs)
    m["join.refine_s"] = metric(t, "s")
    m["join.candidates"] = metric(len(serial.pairs), "count")
    times = [timed(sequential_join, f1, f2)[0] for _ in range(3)]
    m["join.request_kernel_ms"] = metric(median(times) * 1e3, "ms")

    os.makedirs(WORK_DIR, exist_ok=True)
    journal = os.path.join(WORK_DIR, f"suite-{os.getpid()}.jsonl")
    report = run_recoverable_join(f1, f2, journal_path=journal,
                                  processes=JOIN_PROCESSES)
    m["recovery.journal_bytes"] = metric(os.path.getsize(journal), "bytes")
    m["recovery.chunks"] = metric(report.stats.get("chunks", 0), "count")
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    traced = parallel_spatial_join(
        f1, f2, pj.sim_config(TraceConfig(keep_events=True, checkers=False)))
    events = traced.trace.events
    t, verdicts = timed(run_checkers, events, default_checkers())
    m["trace.events"] = metric(len(events), "count")
    m["trace.checker_us_per_event"] = metric(t / len(events) * 1e6, "us")
    bad = [v for v in verdicts if not v.ok]
    if bad:
        notes.append(f"CHECK FAILED: trace checkers rejected the run: {bad}")
    return {"streets": f1, "features": f2}


def self_time_note(label: str, rec: Recorder) -> str:
    return f"{label} span self time (ms): " + ", ".join(
        f"{k} {v * 1e3:.1f}" for k, v in sorted(rec.self_times().items()))


async def suite_session(seed: int, sharded: bool, m: dict, notes: list,
                        trees: dict) -> bool:
    """One short traced session on a fresh Engine or ShardRouter."""
    from repro.geometry.rect import Rect
    from repro.query.batch import multi_window_query
    from repro.rtree.query import nearest_neighbors

    workload = Serve(seed + 20_000, sharded)
    t0 = now()
    warm = workload.oracle_side()
    _, _, warmup_s = await workload.setup_once(warm)
    server = workload.server
    workload.requests = workload.maker(workload.maps, seed + 30_000)
    rec = Recorder()
    checker = workload.checker()
    try:
        _, result = await serve_slice(workload, rec, checker)
        snapshot = server.snapshot()
        cache = server.cache.stats()
    finally:
        await workload.stop()
    notes.append(self_time_note(
        f"{'router' if sharded else 'engine'} session ({now() - t0:.2f} s):",
        rec))
    notes += checker.report()
    if sharded:
        shards = snapshot["shards"].values()
        subs = [s["subrequests"] for s in shards]
        requests = len(rec.named("submit"))
        m["shard.fanout_mean"] = metric(sum(subs) / requests, "count")
        m["shard.hot_share"] = metric(max(subs) / sum(subs), "ratio")
        m["shard.knn_pruned"] = metric(sum(s["knn_skips"] for s in shards), "count")
        return checker.correct

    # Window batches that returned (the fault probe's batch raises).
    runs = [s for s in rec.named("pool.run")
            if s.args[0] == "windows" and s.result is not None]
    m["service.pool_rtt_us"] = metric(median(s.duration for s in runs) * 1e6, "us")
    m["service.batch_size_mean"] = metric(
        statistics.fmean(len(s.args[2]) for s in runs), "count")
    m["service.reply_bytes"] = metric(statistics.fmean(
        len(pickle.dumps(v)) for s in runs for v in s.result), "bytes")
    batches = [[Rect(*r) for r in s.args[2]] for s in runs]
    times = [timed(multi_window_query, trees[s.args[1]], b)[0]
             for s, b in zip(runs, batches)]
    m["query.multi_window_us"] = metric(median(times) * 1e6, "us")
    # Batch wait: from a window's submit to the start of its batch's call.
    from repro.service.model import canonical_rect

    submitted = {}
    for s in rec.named("submit"):
        req = s.args[0]
        if req.cls.value == "window":
            submitted.setdefault(canonical_rect(req.window), []).append(s.start)
    waits = []
    for s in runs:
        for r in s.args[2]:
            starts = [t for t in submitted.get(tuple(r), []) if t <= s.start]
            if starts:
                waits.append(s.start - max(starts))
    m["service.batch_wait_ms"] = metric(median(waits) * 1e3, "ms")
    knn = [s for s in rec.named("submit") if s.args[0].cls.value == "knn"]
    m["service.submit_self_us"] = metric(
        median(s.self_time() for s in knn if s.children) * 1e6, "us")
    times = [timed(nearest_neighbors, trees[s.args[0].tree], s.args[0].x,
                   s.args[0].y, k=s.args[0].k)[0] for s in knn]
    m["query.knn_us"] = metric(median(times) * 1e6, "us")
    m["service.cache_hit_ratio"] = metric(cache["hit_rate"], "ratio")
    m["service.warmup_ms"] = metric(warmup_s * 1e3, "ms")
    # paper-join has no open loop of its own: there the engine
    # session's lateness stands in.
    m.setdefault("driver.late_p99_ms",
                 metric(percentile(result.late_ms, 99), "ms"))
    return checker.correct


def run_traced(name: str, seed: int) -> Run:
    """The traced run; its length is fixed by ``SLICE_ROUNDS`` and the
    suite, not by ``--seconds``."""
    run = Run()
    rec = Recorder()
    m = run.metrics
    if name == "paper-join":
        overhead = overhead_paper(PaperJoin(seed), run, rec)
    else:
        overhead = asyncio.run(overhead_serve(Serve(seed, False), run, rec))
    m["trace.overhead_pct"] = metric(overhead, "%")
    run.notes.append(self_time_note("workload slice:", rec))
    trees = suite_direct(m, seed, run.notes)
    ok_engine = asyncio.run(suite_session(seed, False, m, run.notes, trees))
    ok_router = asyncio.run(suite_session(seed, True, m, run.notes, trees))
    run.correct = (run.correct and ok_engine and ok_router
                   and not any(n.startswith("CHECK FAILED") for n in run.notes))
    return run
