"""Recurrence structure of trajectories embedded in R^n.

A pair of trajectory points is recurrent when their Euclidean distance is
at most the configured radius.  The threshold is closed so that exactly
periodic orbits produce fully recurrent diagonals instead of losing ties
to rounding.  Profiles are computed per diagonal offset in a single
streaming pass; the T x T recurrence matrix is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels_py import distances, full_diagonals, radius_bucket_counts

# Name of the kernel that computes the recurrence counts, for run records.
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "check_radii",
    "DiagonalProfile",
    "RecurrenceStats",
    "LineDistanceHistogram",
    "diagonal_profile",
    "diagonal_profiles",
    "full_recurrence_offsets",
    "recurrence_stats",
    "full_recurrence_line_gaps",
    "pearson_correlation",
    "render_recurrence_plot",
]


def check_radii(radii):
    """Validate recurrence thresholds; the metric is fixed Euclidean.

    Returns the radii as a nonempty, strictly ascending float64 array of
    finite values >= 0, and raises ValueError for anything else.
    """
    rad = np.asarray(radii, dtype=np.float64)
    if rad.ndim != 1 or rad.size == 0:
        raise ValueError(f"need a nonempty list of radii, got {radii!r}")
    bad = rad[~(np.isfinite(rad) & (rad >= 0.0))]
    if bad.size:
        raise ValueError(f"radius must be finite and >= 0, got {float(bad[0])!r}")
    if np.any(np.diff(rad) <= 0.0):
        raise ValueError("radii must be strictly ascending")
    return rad


@dataclass(frozen=True)
class DiagonalProfile:
    """Recurrence counts for every sub-main diagonal of one trajectory.

    counts[j] is the number of recurrent pairs (t, t + j + 1); offset
    d = j + 1 runs over 1..length-1 and offset d has length - d pairs.
    """

    length: int
    radius: float
    counts: np.ndarray

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("profile needs a trajectory of length >= 2")
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.length - 1,):
            raise ValueError(
                f"counts shape {counts.shape} does not match length {self.length}"
            )
        totals = self.length - np.arange(1, self.length)
        if np.any(counts < 0) or np.any(counts > totals):
            raise ValueError("diagonal counts out of range")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def offsets(self):
        return np.arange(1, self.length)

    def pair_totals(self):
        return self.length - self.offsets()

    def full_offsets(self):
        """Offsets whose diagonal is 100% recurrent."""
        return self.offsets()[self.counts == self.pair_totals()]


@dataclass(frozen=True)
class RecurrenceStats:
    """The three diagonal summary statistics.

    strength and the conditional probability are None when no diagonal
    has any recurrence (they would be 0/0).
    """

    recurrence_probability: float
    mean_recurrence_strength: float | None
    conditional_full_recurrence_probability: float | None

    def __post_init__(self):
        vals = (
            self.recurrence_probability,
            self.mean_recurrence_strength,
            self.conditional_full_recurrence_probability,
        )
        for v in vals:
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"statistic {v} outside [0, 1]")
        if self.recurrence_probability == 0.0:
            if vals[1] is not None or vals[2] is not None:
                raise ValueError("no recurrent diagonal: dependent stats must be absent")


@dataclass(frozen=True)
class LineDistanceHistogram:
    """Histogram of gaps between consecutive full-recurrence offsets.

    line_count is the number of full-recurrence diagonals found; with
    fewer than two lines there are no gaps and frequencies is empty.
    """

    line_count: int
    frequencies: dict

    def __post_init__(self):
        if self.line_count < 0:
            raise ValueError("negative line count")
        freq = dict(sorted((int(g), int(c)) for g, c in self.frequencies.items()))
        for gap, count in freq.items():
            if gap < 1 or count < 1:
                raise ValueError(f"bad histogram entry {gap}: {count}")
        if self.line_count < 2 and freq:
            raise ValueError("gap histogram requires at least two lines")
        if self.line_count >= 2 and sum(freq.values()) != self.line_count - 1:
            raise ValueError("gap frequencies must cover every consecutive pair")
        object.__setattr__(self, "frequencies", freq)

    def percentages(self):
        total = sum(self.frequencies.values())
        return {g: 100.0 * c / total for g, c in self.frequencies.items()}


def _as_points(traj):
    """Coerce a (T,) or (T, dim) array to a C-contiguous (T, dim) float64."""
    pts = np.asarray(traj, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(f"trajectory must be (T,) or (T, dim), got shape {pts.shape}")
    if pts.shape[0] < 2:
        raise ValueError("recurrence analysis needs at least two samples")
    if not np.all(np.isfinite(pts)):
        raise ValueError("trajectory contains non-finite values")
    return np.ascontiguousarray(pts)


def diagonal_profiles(traj, radii):
    """Profiles for several radii from one pass over all pair distances.

    radii must be strictly ascending; each pair's distance is bucketed by
    its smallest covering radius, so per-radius counts are cumulative
    sums over the radius axis.
    """
    pts = _as_points(traj)
    rad = check_radii(radii)
    buckets = radius_bucket_counts(pts, rad)
    counts = np.cumsum(buckets, axis=0)
    return [
        DiagonalProfile(pts.shape[0], float(rad[k]), counts[k])
        for k in range(rad.size)
    ]


def diagonal_profile(traj, radius):
    """Recurrence counts per diagonal offset at one radius."""
    return diagonal_profiles(traj, [radius])[0]


def full_recurrence_offsets(traj, radius):
    """Ascending offsets whose diagonal is 100% recurrent at one radius.

    Equals ``diagonal_profile(traj, radius).full_offsets()`` without counting
    every pair: a diagonal with a non-recurrent pair among its first few
    is dropped there, and only the rest are compared along their whole
    length.
    """
    return full_diagonals(_as_points(traj), check_radii([radius])[0])


def recurrence_stats(profile):
    """Summarize a diagonal profile into the three recurrence statistics."""
    counts = profile.counts
    totals = profile.pair_totals()
    recurrent = counts > 0
    n_recurrent = int(np.count_nonzero(recurrent))
    probability = n_recurrent / (profile.length - 1)
    if n_recurrent == 0:
        return RecurrenceStats(probability, None, None)
    # per-diagonal recurrence fraction, averaged over recurrent diagonals:
    # this normalization makes an all-full profile score exactly 1
    strength = float(np.mean(counts[recurrent] / totals[recurrent]))
    n_full = int(np.count_nonzero(counts == totals))
    return RecurrenceStats(probability, strength, n_full / n_recurrent)


def full_recurrence_line_gaps(full_offsets):
    """Histogram the spacings of ascending 100% recurrence offsets."""
    full = np.asarray(full_offsets)
    if full.size < 2:
        return LineDistanceHistogram(int(full.size), {})
    gaps, freq = np.unique(np.diff(full), return_counts=True)
    return LineDistanceHistogram(
        int(full.size), {int(g): int(c) for g, c in zip(gaps, freq)}
    )


def pearson_correlation(x, y):
    """Sample Pearson coefficient, or None when either series is constant."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("correlation needs at least two samples")
    # constant series have zero variance even when mean roundoff leaves
    # residuals of order ulp, so test constancy directly
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx == 0.0 or vy == 0.0:
        return None
    return float(np.dot(xc, yc) / math.sqrt(vx * vy))


def render_recurrence_plot(traj, radius, start, stop, chunk=512):
    """Rasterize a square viewport of the recurrence matrix.

    Pixel value 0 (black) marks a recurrent pair, 255 white; row t' is
    rendered top-down.  Work proceeds in row chunks so memory stays
    O(chunk * viewport) instead of the full square.
    """
    radius = check_radii([radius])[0]
    pts = _as_points(traj)
    n_time = pts.shape[0]
    if not 0 <= start < stop <= n_time:
        raise ValueError(f"viewport [{start}, {stop}) outside trajectory of {n_time}")
    window = pts[start:stop]
    width = stop - start
    image = np.empty((width, width), dtype=np.uint8)
    for row0 in range(0, width, chunk):
        rows = window[row0 : row0 + chunk]
        black = distances(rows[:, None], window[None]) <= radius
        image[row0 : row0 + rows.shape[0]] = np.where(black, 0, 255)
    return image
