"""Reduced-state entropy along network trajectories.

Each neuron's reduced density follows from a partial trace of the pure
network state; its von Neumann entropy (base 2, so bits) measures how
entangled that neuron is with the rest of the network.  Collected per
iteration this gives one entropy series per neuron, summarized by
min/max/mean statistics.  A network of two neurons takes no
partial trace: both reduced states share the Schmidt spectrum of the
pure state, which has a closed form (Wootters, PRL 80 (1998) 2245).
"""

from __future__ import annotations

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

# Entropies this far outside [0, 1] bits fail check_entropy_range.
RANGE_TOL = 1e-9


def check_entropy_range(series) -> np.ndarray:
    """Validate and return an entropy series of two-level neurons as
    float64: every value must lie in [0, 1] bits within ``RANGE_TOL``."""
    arr = np.asarray(series, dtype=np.float64)
    lo = float(arr.min(initial=0.0))
    hi = float(arr.max(initial=0.0))
    if not (-RANGE_TOL <= lo and hi <= 1.0 + RANGE_TOL):  # NaN fails too
        raise ValueError(f"entropy values outside [0, 1] bits: range [{lo!r}, {hi!r}]")
    return arr


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
        ordered = (self.minimum <= self.mean) & (self.mean <= self.maximum)  # NaN fails too
        if not np.all(ordered):
            raise ValueError("per-neuron statistics must satisfy min <= mean <= max")


def clip_spectrum(evals: np.ndarray) -> np.ndarray:
    """Clamp rounding noise at the [0, 1] boundaries of a density spectrum.

    Values in [-CLIP_TOL, 0) become 0, values in (1, 1+CLIP_TOL] become 1;
    values further out, or NaN, raise.
    """
    evals = np.asarray(evals, dtype=np.float64)
    if evals.size and not (-CLIP_TOL <= evals.min() and evals.max() <= 1.0 + CLIP_TOL):
        raise ValueError(
            f"density eigenvalues outside [-{CLIP_TOL}, 1+{CLIP_TOL}]: "
            f"[{evals.min()!r}, {evals.max()!r}]"
        )
    return np.clip(evals, 0.0, 1.0)


def _check_unit_trace(trace) -> None:
    """Raise on the first density trace off 1 by more than ``DRIFT_TOL``,
    or NaN."""
    ok = np.abs(trace - 1.0) <= DRIFT_TOL  # NaN fails too
    if not np.all(ok):
        bad = float(np.extract(~ok, trace)[0])
        raise ValueError(f"density matrix trace {bad!r} differs from 1 beyond {DRIFT_TOL}")


def _spectrum_bits(evals):
    """-sum(lambda log2 lambda) over the last axis of density spectra, after
    ``clip_spectrum``, with 0 * log2(0) = 0."""
    lam = clip_spectrum(evals)
    # clipped zeros take log2(1) = 0, so they add exactly 0 to the sum
    return -np.sum(lam * np.log2(np.where(lam > 0.0, lam, 1.0)), axis=-1)


def von_neumann_entropy(rho: np.ndarray):
    """Entropy -sum(lambda log2 lambda) of a density matrix, in bits.

    Validates hermiticity and unit trace (within ``DRIFT_TOL``),
    diagonalizes, clips boundary rounding noise, and applies the
    0 * log2(0) = 0 convention.  One ``(d, d)`` matrix gives a float; a
    stack with leading batch axes gives an array of entropies, and any
    failing member raises.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if not check_hermitian(rho, CONSTRUCTION_TOL):
        raise ValueError("density matrix is not hermitian within 1e-12")
    _check_unit_trace(np.trace(rho, axis1=-2, axis2=-1).real)
    h = _spectrum_bits(hermitian_eigenvalues(rho))
    return float(h) if rho.ndim == 2 else h


def schmidt_entropy(v: np.ndarray):
    """Entropy, in bits, of either neuron of a pure two-neuron state.

    ``v`` is one state of 4 amplitudes (a float results) or a ``(count,
    4)`` block.  With n = sum |v_k|^2 and D = |v00 v11 - v01 v10|^2 both
    reduced spectra are lam- = 2D / (n + sqrt(n^2 - 4D)) and lam+ =
    (n + sqrt(n^2 - 4D)) / 2, a form that does not cancel when lam- is
    small.  n^2 - 4D clamps at 0, where rounding near a maximally
    entangled state takes it below.  n, the trace of either reduced
    density, must be 1 within ``DRIFT_TOL``.  The spectrum is clipped
    and summed like ``von_neumann_entropy``'s.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[-1] != 4:
        raise DimensionError(f"state shape {v.shape} is not (4,) or (count, 4)")
    sq = v.real * v.real + v.imag * v.imag
    n = ((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3]
    _check_unit_trace(n)
    det = v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2]
    d = det.real * det.real + det.imag * det.imag
    s = n + np.sqrt(np.maximum(n * n - 4.0 * d, 0.0))
    h = _spectrum_bits(np.stack([2.0 * d / s, 0.5 * s], axis=-1))
    return float(h) if v.ndim == 1 else h


def site_entropies(v: np.ndarray, n: int) -> np.ndarray:
    """Entropy of each neuron's reduced state: shape ``(n,)`` for one pure
    state, ``(count, n)`` for a ``(count, 2**n)`` block of states.

    Two neurons take ``schmidt_entropy``, so both columns are bit-equal;
    other counts diagonalize each partial trace."""
    v = np.asarray(v)
    if n == 2:
        h = np.asarray(schmidt_entropy(v))
        return np.stack([h, h], axis=-1)
    return np.stack(
        [von_neumann_entropy(partial_trace_keep_site(v, k, n)) for k in range(n)], axis=-1
    )


def entropy_observer(n: int):
    """Trajectory observer: maps a ``(count, 2**n)`` block of states to
    its ``(count, n)`` per-neuron entropy rows."""

    def observe(block: np.ndarray) -> np.ndarray:
        return site_entropies(block, n)

    return observe


def entropy_stats(series: np.ndarray) -> EntropyStats:
    """Exact min/max and arithmetic mean per neuron over a ``(samples,
    neurons)`` window.

    Each statistic is one column's own reduction.  On a constant column
    the rounded mean can overshoot the column's value by an ulp, so it
    is clamped to that column's ``[min, max]``.
    """
    series = np.asarray(series)
    if series.ndim != 2:
        raise DimensionError(f"expected a (samples, neurons) array, got shape {series.shape}")
    if len(series) == 0:
        raise ValueError("cannot summarize an empty entropy series")
    cols = [series[:, k] for k in range(series.shape[1])]
    lo = np.array([c.min() for c in cols])
    hi = np.array([c.max() for c in cols])
    mean = np.clip([c.mean() for c in cols], lo, hi)
    return EntropyStats(minimum=lo, maximum=hi, mean=mean)
