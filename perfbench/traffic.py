"""The benchmark's own request generator, arrival loops and reply checks.

Requests come in rounds: every round holds the same number of requests
of each class, shuffled, so any run attempts whole rounds and a fault
that hits one fixed request per round is exactly the same share of
every run.  The open loop sends on an absolute timetable and times each
request from when it was due; the closed loop keeps a fixed number of
clients waiting on replies.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import oracle

#: The request mix is ``repro.service.loadgen.RequestFactory``'s default
#: traffic, copied here so the benchmark does not depend on the program's
#: own generator: 10 % kNN with k drawn from 1..20, 25 % of windows from
#: a hot set of 32, window sides of 2-10 % of the map side anchored
#: uniformly over the region, joins over windows drawn the same way.
#: Only the join share departs from it (loadgen's CI arm uses 25 %): a
#: windowed join holds the one worker for a whole-map filter, and at
#: 25 % joins take most of the worker's time (see README.md).
ROUND_WINDOWS = 89
ROUND_KNN = 10
ROUND_JOINS = 1
KNN_K = (1, 20)
HOT_SHARE = 0.25
HOT_SET = 32
WINDOW_SIDE = (0.02, 0.10)
#: loadgen's hotspot skew: anchors drawn from a Gaussian around this
#: point with this deviation, both as shares of the map side.
HOTSPOT_CENTRE = (0.31, 0.63)
HOTSPOT_SIGMA = 0.06


@dataclass
class Item:
    cls: str  # "window" | "knn" | "join"
    request: object
    expect: tuple  # oracle arguments, see Checker.expected
    probe: bool = False


#: The engine rounds window coordinates to 9 decimals before it queries
#: (``canonical_rect``), which changes the answer of a window with an
#: object's MBR edge that close to its own.  A window (or join window)
#: whose brute-force answer moves when its edges move by this much is
#: drawn again.
EDGE_GRAIN = 1e-8


class RequestMaker:
    """Seeded requests over the maps, uniform or with hotspot skew.

    Two kinds of window are drawn again, because each trips a fault of
    the program on a subset of windows that depends on the seed, so it
    could not be a fixed share of every run:

    * a window with an object's MBR edge within ``EDGE_GRAIN`` of its
      own edges (the engine's rounding; windows clamped to the map's
      border meet the objects lying on it);
    * a window whose answer is empty (``accept_window`` decides; by
      default, the brute-force answer must not be empty): on the flat
      backend it can trip the ``children_of`` fault, which a fixed probe
      counts instead (see workloads.py).
    """

    def __init__(self, maps, side: float, seed: int, *, hotspot: bool = False,
                 accept_window: Optional[Callable] = None):
        from repro.geometry.rect import Rect
        from repro.service import JoinRequest, KNNRequest, WindowRequest

        self._Rect = Rect
        self._Window, self._KNN, self._Join = WindowRequest, KNNRequest, JoinRequest
        self.rng = random.Random(seed)
        self.side = side
        self.hotspot = hotspot
        self.arrays = maps.arrays
        self.accept_window = accept_window or self._not_empty
        self.hot = [self._fresh_window() for _ in range(HOT_SET)]

    def _hits(self, name, rect, grow: float = 0.0) -> int:
        oids, xl, yl, xu, yu = self.arrays[name]
        wxl, wyl, wxu, wyu = rect
        return int(((xl <= wxu + grow) & (wxl - grow <= xu)
                    & (yl <= wyu + grow) & (wyl - grow <= yu)).sum())

    def _not_empty(self, name, rect) -> bool:
        return self._hits(name, rect) > 0

    def _edge_clear(self, name, rect) -> bool:
        return (self._hits(name, rect, EDGE_GRAIN)
                == self._hits(name, rect, -EDGE_GRAIN))

    def _point(self):
        if self.hotspot:
            cx, cy = (c * self.side for c in HOTSPOT_CENTRE)
            sigma = HOTSPOT_SIGMA * self.side
            return (min(max(self.rng.gauss(cx, sigma), 0.0), self.side),
                    min(max(self.rng.gauss(cy, sigma), 0.0), self.side))
        return self.rng.uniform(0.0, self.side), self.rng.uniform(0.0, self.side)

    def _rect(self):
        extent = self.rng.uniform(*WINDOW_SIDE) * self.side
        x, y = self._point()
        x = min(x, self.side - extent)
        y = min(y, self.side - extent)
        return (x, y, x + extent, y + extent)

    def _fresh_window(self) -> Item:
        while True:
            name = self.rng.choice(("streets", "features"))
            rect = self._rect()
            if self._edge_clear(name, rect) and self.accept_window(name, rect):
                break
        return Item("window", self._Window(name, self._Rect(*rect)), (name, rect))

    def window(self) -> Item:
        if self.rng.random() < HOT_SHARE:
            return self.rng.choice(self.hot)
        return self._fresh_window()

    def knn(self) -> Item:
        x, y = self._point()
        name = self.rng.choice(("streets", "features"))
        k = self.rng.randint(*KNN_K)
        return Item("knn", self._KNN(name, x, y, k), (name, x, y, k))

    def join(self) -> Item:
        while True:
            rect = self._rect()
            if all(self._edge_clear(n, rect) for n in ("streets", "features")):
                break
        return Item(
            "join", self._Join("streets", "features", self._Rect(*rect)), (rect,)
        )

    def round(self, extra: tuple = ()) -> list[Item]:
        items = [self.window() for _ in range(ROUND_WINDOWS)]
        items += [self.knn() for _ in range(ROUND_KNN)]
        items += [self.join() for _ in range(ROUND_JOINS)]
        items += list(extra)
        self.rng.shuffle(items)
        return items


@dataclass
class Outcome:
    item: Item
    response: object
    latency_ms: float


@dataclass
class PhaseResult:
    outcomes: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    elapsed_s: float = 0.0


async def open_loop(server, rounds: list, rate: float) -> PhaseResult:
    """Send every request at its due time ``start + i / rate``; latency
    counts from the due time, so a stall also charges the requests that
    queued behind it."""
    loop = asyncio.get_running_loop()
    items = [item for r in rounds for item in r]
    result = PhaseResult()
    start = loop.time() + 0.01

    async def one(item, due):
        response = await server.submit(item.request)
        result.outcomes.append(Outcome(item, response, (loop.time() - due) * 1e3))

    tasks = []
    for i, item in enumerate(items):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_ms.append(max(0.0, loop.time() - due) * 1e3)
        tasks.append(asyncio.ensure_future(one(item, due)))
    await asyncio.gather(*tasks)
    result.elapsed_s = loop.time() - start
    return result


async def closed_loop(server, next_round: Callable, clients: int,
                      seconds: float) -> PhaseResult:
    """``clients`` callers each wait for a reply before sending again.
    A new round starts only while time remains, so whole rounds run."""
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    start = loop.time()
    deadline = start + seconds
    queue: list = []

    async def client():
        while True:
            if not queue:
                if loop.time() >= deadline:
                    return
                queue.extend(reversed(next_round()))
            item = queue.pop()
            t0 = loop.time()
            response = await server.submit(item.request)
            result.outcomes.append(Outcome(item, response, (loop.time() - t0) * 1e3))

    await asyncio.gather(*(client() for _ in range(clients)))
    result.elapsed_s = loop.time() - start
    return result


def is_known_fault(item: Item, response) -> bool:
    """The flat backend's ``children_of`` fault: a window batch that
    misses every node of an inner level raises a numpy broadcast error."""
    return (
        item.probe
        and response.status.value == "error"
        and "could not be broadcast" in (response.detail or "")
    )


class Checker:
    """Checks replies against the oracles and counts failures by class
    and reason."""

    def __init__(self, maps, extra_arrays=None):
        self.arrays = {**maps.arrays, **(extra_arrays or {})}
        self.failures: Counter = Counter()
        self.wrong: list = []
        self.attempted = 0

    def expected(self, item: Item):
        if item.cls == "window":
            name, rect = item.expect
            return oracle.window_answer(self.arrays[name], rect)
        if item.cls == "knn":
            name, x, y, k = item.expect
            return oracle.knn_answer(self.arrays[name], x, y, k)
        (rect,) = item.expect
        return oracle.windowed_join_answer(
            self.arrays["streets"], self.arrays["features"], rect
        )

    def check(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            if not o.response.ok:
                reason = (
                    "children_of fault"
                    if is_known_fault(o.item, o.response)
                    else f"{o.response.status.value}: {o.response.detail[:80]}"
                )
                self.failures[(o.item.cls, reason)] += 1
                continue
            if o.response.value != self.expected(o.item):
                self.wrong.append((o.item.cls, o.item.expect))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        unexplained = [r for (_, r) in self.failures if r != "children_of fault"]
        return not self.wrong and not unexplained

    def report(self) -> list[str]:
        lines = [
            f"failed {n}: class={cls} reason={reason}"
            for (cls, reason), n in sorted(self.failures.items())
        ]
        lines += [f"WRONG reply: class={c} input={e}" for c, e in self.wrong[:10]]
        return lines
