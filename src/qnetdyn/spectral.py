"""Power spectra of real-valued series and power-law slope fits.

The estimator is a raw periodogram of the mean-removed series: no
windowing and no segment averaging, so discrete quasiperiodic spikes
stay sharp instead of being smeared across neighboring bins.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Shortest series power_spectrum accepts.
MIN_SPECTRUM_SAMPLES = 16

__all__ = [
    "Periodogram",
    "power_spectrum",
    "loglog_slope",
    "prominent_peaks",
    "write_spectrum_csv",
]


@dataclass(frozen=True)
class Periodogram:
    """One-sided spectrum on the normalized frequency grid (0, 0.5]."""

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if freqs.ndim != 1 or freqs.shape != power.shape:
            raise ValueError(
                f"frequency and power shapes differ: {freqs.shape} vs {power.shape}"
            )
        if freqs.size == 0:
            raise ValueError("empty periodogram")
        if np.any(freqs <= 0.0) or np.any(freqs > 0.5):
            raise ValueError("frequencies must lie in (0, 0.5]")
        if np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be strictly ascending")
        if np.any(~np.isfinite(power)) or np.any(power < 0.0):
            raise ValueError("power must be finite and nonnegative")
        freqs.flags.writeable = False
        power.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "power", power)

    @property
    def bins(self) -> int:
        return self.frequencies.size


def power_spectrum(series) -> Periodogram:
    """Periodogram of a real series with the mean bin removed.

    power(j/T) = |X_j|^2 / T for j = 1..floor(T/2), where X is the DFT
    of the mean-removed series.  Zero frequency is excluded because the
    mean is subtracted first.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    if x.size < MIN_SPECTRUM_SAMPLES:
        raise ValueError(
            f"series too short for a spectrum: {x.size} < {MIN_SPECTRUM_SAMPLES}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    n_time = x.size
    spec = np.fft.rfft(x - x.mean())
    top = n_time // 2
    freqs = np.arange(1, top + 1, dtype=np.float64) / n_time
    power = np.abs(spec[1 : top + 1]) ** 2 / n_time
    return Periodogram(freqs, power)


def loglog_slope(p: Periodogram, band) -> float:
    """Least-squares slope of log10 power vs log10 frequency over a band.

    Band endpoints are inclusive; zero-power bins are excluded from the
    fit.  Requires at least 10 positive-power bins in the band.
    """
    lo, hi = float(band[0]), float(band[1])
    if not lo < hi:
        raise ValueError(f"degenerate band [{lo}, {hi}]")
    keep = (p.frequencies >= lo) & (p.frequencies <= hi) & (p.power > 0.0)
    if int(keep.sum()) < 10:
        raise ValueError(
            f"band [{lo}, {hi}] has {int(keep.sum())} usable bins, need >= 10"
        )
    log_f = np.log10(p.frequencies[keep])
    log_p = np.log10(p.power[keep])
    slope, _ = np.polyfit(log_f, log_p, 1)
    return float(slope)


def prominent_peaks(p: Periodogram, factor: float = 10.0) -> np.ndarray:
    """Indices of interior local maxima exceeding factor times the median power."""
    if factor <= 0.0:
        raise ValueError("factor must be positive")
    power = p.power
    if power.size < 3:
        return np.empty(0, dtype=np.intp)
    threshold = factor * float(np.median(power))
    inner = power[1:-1]
    hits = (inner > power[:-2]) & (inner > power[2:]) & (inner > threshold)
    return np.flatnonzero(hits) + 1


def write_spectrum_csv(path, periodograms) -> None:
    """Write per-neuron spectra sharing one frequency grid as CSV columns."""
    periodograms = list(periodograms)
    if not periodograms:
        raise ValueError("need at least one periodogram")
    base = periodograms[0].frequencies
    for p in periodograms[1:]:
        if not np.array_equal(p.frequencies, base):
            raise ValueError("periodograms use different frequency grids")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["frequency"] + [f"power_neuron{k}" for k in range(len(periodograms))]
        )
        for i in range(base.size):
            row = [repr(float(base[i]))]
            row += [repr(float(p.power[i])) for p in periodograms]
            writer.writerow(row)
