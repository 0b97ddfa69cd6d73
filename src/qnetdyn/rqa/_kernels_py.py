"""Numpy kernels for squared pair distances and tiled diagonal recurrence counts.

Every recurrence output sums squared coordinate differences through
``squared_sums`` and compares them with ``squared_bounds``, so the
kernel counts, the full-diagonal query and the plot pixels agree
exactly at the closed threshold: coordinates are accumulated in
ascending index order, no fused multiply-add is allowed, and a squared
sum lies within a bound exactly when its square root lies within the
radius.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Leading rows that screen every diagonal before any is scanned in full.
# On table3's mean-field trajectory (20,000 points at radius 0.1) eight
# rows leave about 1,200 of 19,999 diagonals, nearly all of them full.
HEAD_ROWS = 8

# Pairs per tile of diagonals; a 2,000-point sweep row takes 33 tiles, not
# 1,999 offsets.  At 32,768 two threads gained nothing on table2's pass,
# because the per-call overhead holds the interpreter lock.
TILE_PAIRS = 65_536


# Threads one recurrence pass may use; None means one per usable CPU.
_thread_budget = None


def set_thread_budget(threads):
    """Cap the threads of every later recurrence pass in this process.

    Each worker of a sweep's pool sets its share of the CPUs here, so the
    workers' kernels together run one thread per CPU.
    """
    global _thread_budget
    _thread_budget = threads


def usable_cpus():
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


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


def _count_tiles(later, rows, bounds, buckets, tiles, scratch):
    """Bucket the pairs of each ``(off, g, length)`` tile into ``buckets``.

    A tile writes only its own columns, so tiles may run on any thread
    in any order.  ``scratch``, two rows of at least the largest tile's
    size, is this call's own.
    """
    n_radii = bounds.shape[0]
    for off, g, length in tiles:
        acc, diff = scratch[:, : g * length].reshape(2, g, length)
        squared_sums([w[off : off + g, :length] for w in later], rows[:, :length], acc, diff)
        acc = acc.ravel()
        pos = np.flatnonzero(acc <= bounds[-1])
        # side="left": first bound >= acc, so ties land inside (closed ball)
        idx = np.searchsorted(bounds, acc[pos], side="left")
        idx += pos // length * n_radii  # the pair's diagonal within the tile
        tile = np.bincount(idx, minlength=g * n_radii).reshape(g, n_radii)
        buckets[:, off - 1 : off - 1 + g] = tile.T


def radius_bucket_counts(points, radii):
    """Histogram pair distances per diagonal offset into radius buckets.

    points: (T, dim) float64, radii: (R,) float64 strictly ascending.
    Returns (R, T-1) int64 where entry [k, j] counts pairs (t, t+j+1)
    whose smallest covering radius is radii[k] (closed threshold).
    Pairs farther than radii[-1] are dropped before they are bucketed.
    Cumulative sums over the radius axis therefore give per-radius
    recurrence counts.  Each numpy pass measures a tile of about
    TILE_PAIRS pairs: consecutive diagonals cut to the first one's
    length, whose missing pairs end in +inf points that no finite
    radius covers.  The tiles are dealt out round-robin to one thread
    per usable CPU, or to as many as ``set_thread_budget`` allows; numpy
    releases the interpreter lock inside each pass, and the counts do
    not depend on the thread count.
    """
    n_time, dim = points.shape
    bounds = squared_bounds(radii)
    buckets = np.zeros((bounds.shape[0], n_time - 1), dtype=np.int64)
    rows = np.full((dim, 2 * n_time - 1), np.inf)  # one contiguous row per coordinate
    rows[:, :n_time] = points.T
    later = [sliding_window_view(row, n_time) for row in rows]  # [k][d, t]: point d + t
    tiles = []
    off = 1
    while off < n_time:
        length = n_time - off
        g = min(max(1, TILE_PAIRS // length), length)
        tiles.append((off, g, length))
        off += g
    n_threads = min(_thread_budget or usable_cpus(), len(tiles))
    size = max(g * length for _, g, length in tiles)
    # the calling thread allocates every thread's scratch: under glibc, what
    # a worker thread allocates stays resident in its malloc arena after it
    # exits (recurrence-mf's peak RSS grew about 6 MB that way, 3.8 MB this way)
    shares = [(tiles[i::n_threads], np.empty((2, size))) for i in range(n_threads)]
    if n_threads == 1:
        _count_tiles(later, rows, bounds, buckets, *shares[0])
    else:
        # leaving the block joins every thread, so none outlives the call
        with ThreadPoolExecutor(n_threads) as pool:
            list(pool.map(lambda share: _count_tiles(later, rows, bounds, buckets, *share), shares))
    return buckets


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
