"""Numpy kernels for pair distances and tiled diagonal recurrence counts.

Every recurrence output computes its distances through ``distances``, so
the kernel counts, the full-diagonal query and the plot pixels agree
exactly at the closed threshold: coordinates are accumulated in
ascending index order and no fused multiply-add is allowed.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Leading rows that screen every diagonal before any is scanned in full.
# On table3's mean-field trajectory (20,000 points at radius 0.1) eight
# rows leave about 1,200 of 19,999 diagonals, nearly all of them full.
HEAD_ROWS = 8

# Pairs per tile of diagonals; a 2,000-point sweep row takes 64 tiles, not 1,999 offsets.
TILE_PAIRS = 32_768


def distances(a, b):
    """Euclidean distances between broadcast ``(..., dim)`` point arrays.

    Squared coordinate differences are summed in ascending coordinate
    order.  The arithmetic runs in place: with a fresh temporary for
    every product and sum, table2's 12-radius pass over 20,000 points
    took 2.8 s instead of 2.2 s (glibc 2.36), because the allocator
    hands arrays of that size back to the system and faults them in
    again on every offset.
    """
    acc = a[..., 0] - b[..., 0]
    acc *= acc
    for k in range(1, a.shape[-1]):
        diff = a[..., k] - b[..., k]
        diff *= diff
        acc += diff
    return np.sqrt(acc, out=acc)


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
    radius covers.
    """
    n_time = points.shape[0]
    n_radii = radii.shape[0]
    buckets = np.zeros((n_radii, n_time - 1), dtype=np.int64)
    padded = np.concatenate([points, np.full_like(points, np.inf)])
    later = sliding_window_view(padded, n_time, axis=0).transpose(0, 2, 1)  # [d, t]: point d + t
    off = 1
    while off < n_time:
        length = n_time - off
        g = min(max(1, TILE_PAIRS // length), length)
        dist = distances(later[off : off + g, :length], points[:length]).ravel()
        pos = np.flatnonzero(dist <= radii[-1])
        # side="left": first radius >= dist, so ties land inside (closed ball)
        idx = np.searchsorted(radii, dist[pos], side="left")
        idx += pos // length * n_radii  # the pair's diagonal within the tile
        tile = np.bincount(idx, minlength=g * n_radii).reshape(g, n_radii)
        buckets[:, off - 1 : off - 1 + g] = tile.T
        off += g
    return buckets


def full_diagonals(points, radius):
    """Ascending offsets d whose pairs (t, t + d) all lie within radius.

    points: (T, dim) float64.  The first HEAD_ROWS rows screen every
    diagonal in one contiguous pass each; only the survivors are then
    compared along their whole length.  A diagonal is full when no
    distance exceeds radius (closed threshold), exactly as in
    ``radius_bucket_counts``.
    """
    n_time = points.shape[0]
    alive = np.ones(n_time - 1, dtype=bool)
    for t in range(min(HEAD_ROWS, n_time - 1)):
        alive[: n_time - 1 - t] &= distances(points[t + 1 :], points[t]) <= radius
    full = [
        off
        for off in np.flatnonzero(alive) + 1
        if np.all(distances(points[off:], points[: n_time - off]) <= radius)
    ]
    return np.array(full, dtype=np.int64)
