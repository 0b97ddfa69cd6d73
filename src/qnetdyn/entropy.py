"""Reduced-state entropy along network trajectories.

Each neuron's reduced density follows from a partial trace of the pure
network state; its von Neumann entropy (base 2, so bits) measures how
entangled that neuron is with the rest of the network.  Collected per
iteration this gives one entropy series per neuron, summarized by
min/max/mean statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CONSTRUCTION_TOL,
    DRIFT_TOL,
    DimensionError,
    check_hermitian,
    hermitian_eigenvalues,
    partial_trace_keep_site,
)

# Eigenvalues this far below 0 (or above 1) are rounding noise and clip
# to the boundary; anything beyond is treated as a real invariant
# violation and raises.
CLIP_TOL = 1e-10


@dataclass(frozen=True)
class EntropyTrajectory:
    """Per-neuron entropy series, one row per sample, in bits."""

    series: np.ndarray
    levels: int = 2

    def __post_init__(self):
        arr = np.asarray(self.series, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"expected a (samples, neurons) array, got shape {arr.shape}")
        object.__setattr__(self, "series", arr)

    @property
    def n(self) -> int:
        return self.series.shape[1]

    @property
    def samples(self) -> int:
        return self.series.shape[0]

    def component(self, k: int) -> np.ndarray:
        return self.series[:, k]

    def validate_range(self, tol: float = 1e-9) -> "EntropyTrajectory":
        top = math.log2(self.levels)
        lo = float(self.series.min(initial=0.0))
        hi = float(self.series.max(initial=0.0))
        if lo < -tol or hi > top + tol:
            raise ValueError(
                f"entropy values outside [0, log2({self.levels})]: range [{lo!r}, {hi!r}]"
            )
        return self


@dataclass(frozen=True)
class EntropyStats:
    """Per-neuron minimum, maximum, and mean over a sampled window."""

    minimum: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        for name in ("minimum", "maximum", "mean"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.minimum.shape == self.maximum.shape == self.mean.shape):
            raise DimensionError("statistics arrays must share one shape")
        if np.any(self.minimum > self.mean) or np.any(self.mean > self.maximum):
            raise ValueError("per-neuron statistics must satisfy min <= mean <= max")


def clip_spectrum(evals: np.ndarray, tol: float = CLIP_TOL) -> np.ndarray:
    """Clamp rounding noise at the [0, 1] boundaries of a density spectrum.

    Values in [-tol, 0) become 0, values in (1, 1+tol] become 1; values
    further out raise.
    """
    evals = np.asarray(evals, dtype=np.float64)
    if evals.size and (evals.min() < -tol or evals.max() > 1.0 + tol):
        raise ValueError(
            f"density eigenvalues outside [-{tol}, 1+{tol}]: "
            f"[{evals.min()!r}, {evals.max()!r}]"
        )
    return np.clip(evals, 0.0, 1.0)


def von_neumann_entropy(rho: np.ndarray, *, trace_tol: float = DRIFT_TOL):
    """Entropy -sum(lambda log2 lambda) of a density matrix, in bits.

    Validates hermiticity and unit trace, diagonalizes, clips boundary
    rounding noise, and applies the 0 * log2(0) = 0 convention.  One
    ``(d, d)`` matrix gives a float; a stack with leading batch axes
    gives an array of entropies, and any failing member raises.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if not check_hermitian(rho, CONSTRUCTION_TOL):
        raise ValueError("density matrix is not hermitian within 1e-12")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > trace_tol
    if np.any(off):
        bad = float(np.extract(off, tr)[0])
        raise ValueError(f"density matrix trace {bad!r} differs from 1 beyond {trace_tol}")
    lam = clip_spectrum(hermitian_eigenvalues(rho))
    # clipped zeros take log2(1) = 0, so they add exactly 0 to the sum
    h = -np.sum(lam * np.log2(np.where(lam > 0.0, lam, 1.0)), axis=-1)
    return float(h) if rho.ndim == 2 else h


def site_entropies(v: np.ndarray, n: int, l: int = 2) -> np.ndarray:
    """Entropy of each neuron's reduced state: shape ``(n,)`` for one pure
    state, ``(count, n)`` for a ``(count, l**n)`` block of states."""
    v = np.asarray(v)
    batch = v.ndim == 2
    return np.stack(
        [
            von_neumann_entropy(partial_trace_keep_site(v, k, n, l, batch=batch))
            for k in range(n)
        ],
        axis=-1,
    )


def entropy_observer(n: int, l: int = 2):
    """Trajectory observer: maps a ``(count, l**n)`` block of states to
    its ``(count, n)`` per-neuron entropy rows."""

    def observe(block: np.ndarray) -> np.ndarray:
        return site_entropies(block, n, l)

    return observe


def entropy_stats(traj: EntropyTrajectory) -> EntropyStats:
    """Exact min/max and arithmetic mean per neuron over the window."""
    if traj.samples == 0:
        raise ValueError("cannot summarize an empty entropy series")
    s = traj.series
    return EntropyStats(minimum=s.min(axis=0), maximum=s.max(axis=0), mean=s.mean(axis=0))
