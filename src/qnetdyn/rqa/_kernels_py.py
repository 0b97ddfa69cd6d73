"""Numpy kernels for squared pair distances and recurrence counts.

Every recurrence output sums squared coordinate differences through
``squared_sums`` and compares them with ``squared_bounds``, so the
kernel counts, the full-diagonal query and the plot pixels agree
exactly at the closed threshold: coordinates are accumulated in
ascending index order, no fused multiply-add is allowed, and a squared
sum lies within a bound exactly when its square root lies within the
radius.  ``radius_bucket_counts`` is the fallback where no compiled walk
loads, and the oracle that the walk is checked against: it measures
every pair, offset by offset, and shares none of the walk's pruning.
"""

import math

import numpy as np

# Leading rows that screen every diagonal before any is scanned in full.
# On table3's mean-field trajectory (20,000 points at radius 0.1) eight
# rows leave about 1,200 of 19,999 diagonals, nearly all of them full.
HEAD_ROWS = 8


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


def squared_sums(lead, lag):
    """Squared Euclidean distances between points given as coordinate rows.

    ``lead[k]`` and ``lag[k]`` hold coordinate k and broadcast against
    each other.  Squared differences are summed in ascending coordinate
    order, each product and sum rounded on its own.
    """
    acc = lead[0] - lag[0]
    acc *= acc
    for a, b in zip(lead[1:], lag[1:]):
        diff = a - b
        diff *= diff
        acc += diff
    return acc


def radius_bucket_counts(points, radii):
    """Histogram pair distances per diagonal offset into radius buckets.

    points: (T, dim) float64, radii: (R,) float64 strictly ascending.
    Returns (R, T-1) int64 where entry [k, j] counts pairs (t, t+j+1)
    whose smallest covering radius is radii[k] (closed threshold).
    Pairs farther than radii[-1] are dropped before they are bucketed.
    Cumulative sums over the radius axis therefore give per-radius
    recurrence counts.  Every pair is measured once, offset by offset,
    with no prefilter, so this count checks the compiled walk's pruning.
    """
    n_time = points.shape[0]
    bounds = squared_bounds(radii)
    rows = np.ascontiguousarray(points.T)
    buckets = np.empty((bounds.shape[0], n_time - 1), dtype=np.int64)
    for d in range(1, n_time):
        sums = squared_sums(rows[:, d:], rows[:, : n_time - d])
        # side="left": first bound >= the sum, so ties land inside (closed ball)
        idx = np.searchsorted(bounds, sums[sums <= bounds[-1]], side="left")
        buckets[:, d - 1] = np.bincount(idx, minlength=bounds.shape[0])
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
