"""Answers computed apart from the program, and the checks that use them.

Nothing here calls the program's indexes, joins or geometry: windows,
kNN and windowed joins are brute force over the maps' MBR arrays, the
full-map candidate set is a sort-and-sweep join, refinement is checked
with an orientation-based segment test, and the simulator and the
journalled join are checked by properties.  :func:`selftest` plants a
wrong answer into every check and fails if any check accepts it.
"""

from __future__ import annotations

import random

import numpy as np


class CheckFailed(AssertionError):
    pass


# -- brute-force answers ------------------------------------------------------
def window_answer(arr, rect) -> tuple:
    oids, xl, yl, xu, yu = arr
    wxl, wyl, wxu, wyu = rect
    hit = (xl <= wxu) & (wxl <= xu) & (yl <= wyu) & (wyl <= yu)
    return tuple(sorted(oids[hit].tolist()))


def knn_answer(arr, x: float, y: float, k: int) -> tuple:
    """The k nearest by (distance, oid); distance is the clamped-delta
    Euclidean distance to the MBR."""
    oids, xl, yl, xu, yu = arr
    dx = np.maximum(np.maximum(xl - x, x - xu), 0.0)
    dy = np.maximum(np.maximum(yl - y, y - yu), 0.0)
    dist = np.sqrt(dx * dx + dy * dy)
    order = np.lexsort((oids, dist))[:k]
    return tuple((float(dist[i]), int(oids[i])) for i in order)


def windowed_join_answer(arr_r, arr_s, rect) -> tuple:
    """Intersecting (r, s) MBR pairs whose both sides meet *rect*."""
    r = _subset(arr_r, rect)
    s = _subset(arr_s, rect)
    if len(r[0]) == 0 or len(s[0]) == 0:
        return ()
    hit = (
        (r[1][:, None] <= s[3][None, :])
        & (s[1][None, :] <= r[3][:, None])
        & (r[2][:, None] <= s[4][None, :])
        & (s[2][None, :] <= r[4][:, None])
    )
    ri, si = np.nonzero(hit)
    return tuple(sorted(zip(r[0][ri].tolist(), s[0][si].tolist())))


def _subset(arr, rect):
    oids, xl, yl, xu, yu = arr
    wxl, wyl, wxu, wyu = rect
    keep = (xl <= wxu) & (wxl <= xu) & (yl <= wyu) & (wyl <= yu)
    return oids[keep], xl[keep], yl[keep], xu[keep], yu[keep]


def mbr_join(arr_r, arr_s) -> set:
    """Every intersecting MBR pair, by sort-and-sweep on x."""
    oids_r, rxl, ryl, rxu, ryu = arr_r
    oids_s, sxl, syl, sxu, syu = arr_s
    order = np.argsort(sxl, kind="stable")
    s_oid, s_xl, s_yl, s_xu, s_yu = (
        oids_s[order], sxl[order], syl[order], sxu[order], syu[order]
    )
    widest = float((sxu - sxl).max())
    lo = np.searchsorted(s_xl, rxl - widest, side="left")
    hi = np.searchsorted(s_xl, rxu, side="right")
    pairs = set()
    for i in range(len(oids_r)):
        a, b = lo[i], hi[i]
        if a == b:
            continue
        hit = (
            (rxl[i] <= s_xu[a:b])
            & (s_yl[a:b] <= ryu[i])
            & (ryl[i] <= s_yu[a:b])
        )
        oid = int(oids_r[i])
        for s in s_oid[a:b][hit].tolist():
            pairs.add((oid, s))
    return pairs


# -- exact geometry -----------------------------------------------------------
def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, cx, cy) -> bool:
    return min(ax, bx) <= cx <= max(ax, bx) and min(ay, by) <= cy <= max(ay, by)


def segments_meet(p1, p2, q1, q2) -> bool:
    d1 = _orient(*q1, *q2, *p1)
    d2 = _orient(*q1, *q2, *p2)
    d3 = _orient(*p1, *p2, *q1)
    d4 = _orient(*p1, *p2, *q2)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return (
        (d1 == 0 and _on_segment(*q1, *q2, *p1))
        or (d2 == 0 and _on_segment(*q1, *q2, *p2))
        or (d3 == 0 and _on_segment(*p1, *p2, *q1))
        or (d4 == 0 and _on_segment(*p1, *p2, *q2))
    )


def polylines_meet(a, b) -> bool:
    for i in range(len(a) - 1):
        for j in range(len(b) - 1):
            if segments_meet(a[i], a[i + 1], b[j], b[j + 1]):
                return True
    return False


# -- checks -------------------------------------------------------------------
def check_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: program answer differs from the oracle")


def check_candidates(got_pairs, want: set) -> None:
    got = set(got_pairs)
    if len(got) != len(got_pairs) or got != want:
        raise CheckFailed(
            f"join candidates: {len(got_pairs)} pairs "
            f"({len(got)} distinct) vs {len(want)} from the sweep join"
        )


def check_refined(answers, candidates: set, geom_r, geom_s, seed: int,
                  sample: int = 400) -> None:
    """Answers are candidates, and on a seeded sample of candidates the
    segment test agrees with membership in the answer set."""
    answer_set = set(answers)
    if len(answer_set) != len(answers) or not answer_set <= candidates:
        raise CheckFailed("refined answers are not distinct candidates")
    rng = random.Random(seed)
    for r, s in rng.sample(sorted(candidates), min(sample, len(candidates))):
        if polylines_meet(geom_r[r], geom_s[s]) != ((r, s) in answer_set):
            raise CheckFailed(f"refinement disagrees on pair {(r, s)}")


def check_simulation(pair_set: set, candidates: set, response_s: float,
                     busy_total_s: float, processors: int) -> None:
    if pair_set != candidates:
        raise CheckFailed("simulated join pair set != real join candidates")
    if response_s * processors < busy_total_s * (1 - 1e-9):
        raise CheckFailed(
            f"simulated response {response_s} s is below busy total "
            f"{busy_total_s} s / {processors}"
        )


def check_exactly_once(pairs, want: set) -> None:
    if len(pairs) != len(set(pairs)):
        raise CheckFailed("journalled join returned a pair twice")
    if set(pairs) != want:
        raise CheckFailed("journalled join pairs != sweep-join candidates")


def selftest(seed: int = 0) -> None:
    """Plant one wrong answer into each check; every check must reject it."""
    rng = np.random.default_rng(seed)
    n = 60
    xl = rng.random(n)
    yl = rng.random(n)
    arr = (np.arange(n, dtype=np.int64), xl, yl, xl + 0.1, yl + 0.1)
    arr2 = (np.arange(n, dtype=np.int64) + 1000, yl, xl, yl + 0.1, xl + 0.1)
    win = (0.2, 0.2, 0.6, 0.6)
    planted = []

    def rejects(label, fn) -> None:
        try:
            fn()
        except CheckFailed:
            return
        planted.append(label)

    good_w = window_answer(arr, win)
    check_equal("window", good_w, window_answer(arr, win))
    rejects("window", lambda: check_equal("window", good_w[1:], good_w))
    good_k = knn_answer(arr, 0.5, 0.5, 5)
    rejects("knn", lambda: check_equal("knn", good_k[:4] + good_k[5:6], good_k))
    # tie order: same distances, swapped oids must be rejected too
    swapped = tuple((d, o) for (d, _), (_, o) in zip(good_k, reversed(good_k)))
    rejects("knn tie order", lambda: check_equal("knn", swapped, good_k))
    good_j = windowed_join_answer(arr, arr2, win)
    rejects("windowed join", lambda: check_equal("join", good_j + ((0, 0),), good_j))
    want = mbr_join(arr, arr2)
    if want != set(windowed_join_answer(arr, arr2, (-9, -9, 9, 9))):
        raise CheckFailed("sweep join disagrees with the brute-force join")
    good = sorted(want)
    check_candidates(good, want)
    rejects("missing candidate", lambda: check_candidates(good[:-1], want))
    rejects("duplicate candidate", lambda: check_candidates(good + good[:1], want))
    square = [(0.0, 0.0), (1.0, 1.0)]
    cross = [(0.0, 1.0), (1.0, 0.0)]
    apart = [(2.0, 2.0), (3.0, 2.0)]
    geom_r = {1: square, 2: square}
    geom_s = {7: cross, 8: apart}
    cands = {(1, 7), (2, 8)}
    check_refined([(1, 7)], cands, geom_r, geom_s, seed)
    rejects("false hit kept", lambda: check_refined(
        [(1, 7), (2, 8)], cands, geom_r, geom_s, seed))
    rejects("answer dropped", lambda: check_refined(
        [], cands, geom_r, geom_s, seed))
    check_simulation(set(good), want, 1.0, 24.0, 24)
    rejects("sim pair set", lambda: check_simulation(
        set(good[1:]), want, 1.0, 24.0, 24))
    rejects("sim response", lambda: check_simulation(
        set(good), want, 0.9, 24.0, 24))
    check_exactly_once(good, want)
    rejects("journal duplicate", lambda: check_exactly_once(good + good[:1], want))
    rejects("journal missing", lambda: check_exactly_once(good[1:], want))
    if planted:
        raise CheckFailed(f"checks accepted planted wrong answers: {planted}")
