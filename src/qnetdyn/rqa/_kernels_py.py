"""Numpy kernels for squared pair distances and banded recurrence counts.

Every recurrence output sums squared coordinate differences through
``squared_sums`` and compares them with ``squared_bounds``, so the
kernel counts, the full-diagonal query and the plot pixels agree
exactly at the closed threshold: coordinates are accumulated in
ascending index order, no fused multiply-add is allowed, and a squared
sum lies within a bound exactly when its square root lies within the
radius.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Leading rows that screen every diagonal before any is scanned in full.
# On table3's mean-field trajectory (20,000 points at radius 0.1) eight
# rows leave about 1,200 of 19,999 diagonals, nearly all of them full.
HEAD_ROWS = 8

# Pairs per tile of sorted rows.  Table2's pass took the same time from 16,384
# to 131,072; at 262,144, whose scratch is 4 MB, it took 7% longer.
TILE_PAIRS = 65_536


def squared_bounds(radii):
    """For each radius r, the largest double B with sqrt(B) <= r.

    IEEE sqrt is correctly rounded and monotone, so for every x >= 0,
    ``x <= B`` holds exactly when ``sqrt(x) <= r``: comparing squared
    sums against B keeps the closed threshold without a sqrt per pair.
    The search starts at r * r, which lies within a few ulps of B.
    """
    bounds = []
    for r in map(float, radii):
        x = r * r
        if math.sqrt(x) <= r:
            # past the largest double the step gives inf, whose sqrt exceeds r
            while math.sqrt(up := math.nextafter(x, math.inf)) <= r:
                x = up
        else:
            while math.sqrt(x) > r:
                x = math.nextafter(x, 0.0)
        bounds.append(x)
    return np.array(bounds, dtype=np.float64)


def squared_sums(lead, lag, acc=None, diff=None):
    """Squared Euclidean distances between points given as coordinate rows.

    ``lead[k]`` and ``lag[k]`` hold coordinate k and broadcast against
    each other.  Squared differences are summed in ascending coordinate
    order.  The arithmetic runs in place, in ``acc`` and ``diff`` when
    given: with a fresh temporary for every product and sum, table2's
    12-radius pass over 20,000 points took 2.8 s instead of 2.2 s (glibc
    2.36), because the allocator hands arrays of that size back to the
    system and faults them in again on every offset.
    """
    acc = np.subtract(lead[0], lag[0], out=acc)
    np.multiply(acc, acc, out=acc)
    for a, b in zip(lead[1:], lag[1:]):
        diff = np.subtract(a, b, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(acc, diff, out=acc)
    return acc


def radius_bucket_counts(points, radii):
    """Histogram pair distances per diagonal offset into radius buckets.

    points: (T, dim) float64, radii: (R,) float64 strictly ascending.
    Returns (R, T-1) int64 where entry [k, j] counts pairs (t, t+j+1)
    whose smallest covering radius is radii[k] (closed threshold).
    Pairs farther than radii[-1] are dropped before they are bucketed.
    Cumulative sums over the radius axis therefore give per-radius
    recurrence counts.  Only a band is measured: sorted once on the
    first coordinate, point s meets the later points whose first term
    of ``squared_sums`` alone is within radii[-1], as no rounded sum of
    squares is below one of its terms.  Each numpy pass measures a tile
    of consecutive sorted rows holding at most TILE_PAIRS pairs (or one
    longer row), each cut to the tile's widest band: pairs past a row's
    band, and +inf points past the last one, exceed every bound.  The
    tiles are counted in turn, in the calling thread.
    """
    n_time, dim = points.shape
    bounds = squared_bounds(radii)
    buckets = np.zeros((bounds.shape[0], n_time), dtype=np.int64)  # column d: offset d
    order = np.argsort(points[:, 0])
    first = points[order, 0]
    # bisect for the last row of each band, a run because rounding is monotone
    lo, hi = np.arange(n_time), np.full(n_time, n_time)
    for _ in range(n_time.bit_length()):
        mid = (lo + hi) // 2
        near = squared_sums([first[mid]], [first]) <= bounds[-1]
        lo, hi = np.where(near, mid, lo), np.where(near, hi, mid)
    width = lo - np.arange(n_time)
    del first, lo, hi, mid, near
    tiles, s = [], 0
    while s < n_time - 1:
        # no tile is narrower than its first row, which caps its row count
        widest = np.maximum.accumulate(width[s : s + max(1, TILE_PAIRS // max(1, width[s]))])
        g = max(1, int(np.count_nonzero(widest * np.arange(1, widest.size + 1) <= TILE_PAIRS)))
        tiles.append((s, g, int(widest[g - 1])))
        s += g
    w_max = max(w for _, _, w in tiles)
    rows = np.full((dim, n_time + w_max), np.inf)  # one contiguous row per sorted coordinate
    rows[:, :n_time] = points[order].T
    times = np.pad(order.astype(np.int32), (0, w_max))
    del order, width
    later = [sliding_window_view(row, w_max) for row in rows]  # [k][i, c]: sorted point i + c + 1
    later_times = sliding_window_view(times, w_max)
    # two rows of the largest tile's size, reused by every tile
    scratch = np.empty((2, max(g * w for _, g, w in tiles)))
    for s, g, w in tiles:  # sorted rows s .. s+g-1, each with its next w
        acc, diff = scratch[:, : g * w]
        lead = [v[s + 1 : s + 1 + g, :w] for v in later]
        squared_sums(lead, rows[:, s : s + g, None], acc.reshape(g, w), diff.reshape(g, w))
        pos = np.flatnonzero(acc <= bounds[-1])
        hits = np.take(acc, pos, out=diff[: pos.size], mode="clip")
        # side="left": first bound >= acc, so ties land inside (closed ball)
        idx = np.searchsorted(bounds, hits, side="left")
        idx *= buckets.shape[1]
        # the sums are spent: the scratch takes each pair's time offset, its column
        gaps = acc.view(np.int32)[: g * w].reshape(g, w)
        np.subtract(later_times[s + 1 : s + 1 + g, :w], times[s : s + g, None], out=gaps)
        offsets = np.take(gaps, pos, out=diff.view(np.int32)[: pos.size], mode="clip")
        idx += np.abs(offsets, out=offsets)
        np.add.at(buckets.reshape(-1), idx, 1)
    return buckets[:, 1:]


def full_diagonals(points, radius):
    """Ascending offsets d whose pairs (t, t + d) all lie within radius.

    points: (T, dim) float64.  The first HEAD_ROWS rows screen every
    diagonal in one contiguous pass each; only the survivors are then
    compared along their whole length.  A diagonal is full when no
    squared sum exceeds radius's squared bound (closed threshold),
    exactly as in ``radius_bucket_counts``.
    """
    n_time = points.shape[0]
    bound = squared_bounds([radius])[0]
    rows = np.ascontiguousarray(points.T)
    alive = np.ones(n_time - 1, dtype=bool)
    for t in range(min(HEAD_ROWS, n_time - 1)):
        alive[: n_time - 1 - t] &= squared_sums(rows[:, t + 1 :], rows[:, t]) <= bound
    full = [
        off
        for off in np.flatnonzero(alive) + 1
        if np.all(squared_sums(rows[:, off:], rows[:, : n_time - off]) <= bound)
    ]
    return np.array(full, dtype=np.int64)
