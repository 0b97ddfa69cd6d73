"""Periodogram and slope-fit tests.

Oracles: Parseval's identity against the direct variance sum, a
flat-spectrum check from seeded white noise, and exact slope recovery
on a constructed power-law periodogram.
"""

import numpy as np
import pytest

from qnetdyn.spectral import (
    Periodogram,
    loglog_slope,
    power_spectrum,
    prominent_peaks,
)


def test_sinusoid_concentrates_power():
    t = np.arange(1000)
    x = np.sin(2 * np.pi * 0.1 * t)
    p = power_spectrum(x)
    # normalized frequency 0.1 sits exactly on bin j=100
    j = np.argmax(p.power)
    assert abs(p.frequencies[j] - 0.1) < 1e-12
    assert p.power[j] > 0.99 * p.power.sum()


def test_constant_series_zero_power():
    p = power_spectrum(np.full(64, 3.7))
    assert np.all(p.power < 1e-24)


def test_short_series_rejected():
    with pytest.raises(ValueError):
        power_spectrum(np.ones(15))
    with pytest.raises(ValueError):
        power_spectrum(np.r_[np.ones(20), np.nan])


def test_frequency_grid():
    p = power_spectrum(np.random.default_rng(0).random(101))
    assert p.frequencies.size == 50
    assert abs(p.frequencies[0] - 1 / 101) < 1e-15
    assert p.frequencies[-1] <= 0.5
    p2 = power_spectrum(np.random.default_rng(0).random(100))
    assert p2.frequencies.size == 50
    assert p2.frequencies[-1] == 0.5


def test_parseval():
    rng = np.random.default_rng(42)
    for n in (64, 101, 256, 999):
        x = rng.random(n) * 3.0 - 1.0
        p = power_spectrum(x)
        # one-sided sum: double every bin except Nyquist when n is even
        weights = np.full(p.frequencies.size, 2.0)
        if n % 2 == 0:
            weights[-1] = 1.0
        total = float(np.sum(weights * p.power))
        direct = float(np.sum((x - x.mean()) ** 2))
        assert abs(total - direct) < 1e-6 * direct


def test_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.random(200)
    a = power_spectrum(x)
    b = power_spectrum(x + 17.25)
    assert np.allclose(a.power, b.power, rtol=0.0, atol=1e-10)


def test_slope_exact_power_law():
    freqs = np.linspace(0.01, 0.5, 200)
    p = Periodogram(freqs, freqs ** -2.0)
    assert abs(loglog_slope(p, (0.01, 0.5)) + 2.0) < 1e-10


def test_slope_white_noise_flat():
    rng = np.random.default_rng(314)
    slopes = []
    for _ in range(50):
        x = rng.standard_normal(2048)
        slopes.append(loglog_slope(power_spectrum(x), (0.01, 0.5)))
    assert abs(float(np.mean(slopes))) < 0.2


def test_slope_band_handling():
    freqs = np.linspace(0.01, 0.5, 100)
    power = freqs ** -1.0
    power[::7] = 0.0  # zero bins must be excluded, not crash the log
    p = Periodogram(freqs, power)
    assert abs(loglog_slope(p, (0.01, 0.5)) + 1.0) < 0.05
    with pytest.raises(ValueError):
        loglog_slope(p, (0.4, 0.4))
    with pytest.raises(ValueError):
        loglog_slope(p, (0.49, 0.5))  # too few bins


def test_prominent_peaks():
    t = np.arange(4000)  # 0.05 and 0.31 sit exactly on bins 200 and 1240
    x = np.sin(2 * np.pi * 0.05 * t) + 0.5 * np.sin(2 * np.pi * 0.31 * t)
    p = power_spectrum(x)
    peaks = prominent_peaks(p)
    got = set(np.round(p.frequencies[peaks], 4))
    assert 0.05 in got
    assert 0.31 in got


def test_periodogram_validation():
    with pytest.raises(ValueError):
        Periodogram(np.array([0.1, 0.2]), np.array([1.0]))
    with pytest.raises(ValueError):
        Periodogram(np.array([0.0, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Periodogram(np.array([0.1, 0.6]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Periodogram(np.array([0.2, 0.1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Periodogram(np.array([0.1, 0.2]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        Periodogram(np.array([]), np.array([]))
