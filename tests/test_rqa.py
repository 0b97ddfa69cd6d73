"""Recurrence quantification tests.

The load-bearing oracle is a brute-force T x T distance matrix built with
the same coordinate accumulation order as the streaming kernel, so the
streaming profile must match it exactly, not just within tolerance.
"""

import math

import numpy as np
import pytest

from qnetdyn.rqa import (
    DiagonalProfile,
    LineDistanceHistogram,
    RecurrenceStats,
    check_radii,
    diagonal_profile,
    diagonal_profiles,
    full_recurrence_line_gaps,
    full_recurrence_offsets,
    pearson_correlation,
    recurrence_stats,
    render_recurrence_plot,
)
from qnetdyn.rqa._kernels_py import HEAD_ROWS, radius_bucket_counts


def brute_counts(pts, radius):
    """Per-offset recurrence counts via the explicit distance matrix."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    diff = pts[:, None, 0] - pts[None, :, 0]
    acc = diff * diff
    for k in range(1, pts.shape[1]):
        diff = pts[:, None, k] - pts[None, :, k]
        acc = acc + diff * diff
    rec = np.sqrt(acc) <= radius
    return np.array([int(rec.diagonal(-d).sum()) for d in range(1, n)], dtype=np.int64)


def test_config_validation():
    rad = check_radii([0.0, 0.1])
    assert rad.dtype == np.float64 and list(rad) == [0.0, 0.1]
    for radii in ([-0.1], [float("nan")], [float("inf")], [], [0.2, 0.1], [0.1, 0.1]):
        with pytest.raises(ValueError):
            check_radii(radii)


def test_profile_constant_series():
    prof = diagonal_profile(np.zeros(3), 0.0)
    assert prof.length == 3
    assert list(prof.counts) == [2, 1]
    assert list(prof.full_offsets()) == [1, 2]


def test_profile_alternating_series():
    prof = diagonal_profile(np.array([0.0, 1.0, 0.0, 1.0]), 0.0)
    assert list(prof.counts) == [0, 2, 0]


def test_profile_scalar_threshold_example():
    # distances: |0-0.05| = 0.05 <= 0.1, |0.05-0.2| = 0.15, |0-0.2| = 0.2
    prof = diagonal_profile(np.array([0.0, 0.05, 0.2]), 0.1)
    assert list(prof.counts) == [1, 0]


def test_profile_rejects_degenerate_input():
    with pytest.raises(ValueError):
        diagonal_profile(np.array([1.0]), 0.1)
    with pytest.raises(ValueError):
        diagonal_profile(np.array([1.0, np.nan]), 0.1)
    with pytest.raises(ValueError):
        diagonal_profiles(np.zeros((4, 2)), [])
    with pytest.raises(ValueError):
        diagonal_profiles(np.zeros((4, 2)), [0.2, 0.1])


def test_profile_validation_bounds():
    with pytest.raises(ValueError):
        DiagonalProfile(4, 0.1, np.array([4, 1, 0]))  # offset 1 has only 3 pairs
    with pytest.raises(ValueError):
        DiagonalProfile(4, 0.1, np.array([1, 1]))  # wrong shape


def test_streaming_equals_brute_force():
    # criterion: exact equality on random trajectories, including tie-prone
    # lattice points where distances collide with the radius
    rng = np.random.default_rng(7041)
    for case in range(50):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 4))
        if case % 3 == 0:
            pts = rng.integers(0, 4, size=(n, dim)) * 0.1
            radius = float(rng.integers(0, 5)) * 0.1
        else:
            pts = rng.random((n, dim))
            radius = float(rng.random() * 0.8)
        prof = diagonal_profile(pts, radius)
        assert np.array_equal(prof.counts, brute_counts(pts, radius))


def test_streaming_zero_radius_brute_force():
    rng = np.random.default_rng(88)
    pts = rng.integers(0, 2, size=(60, 2)).astype(float)
    prof = diagonal_profile(pts, 0.0)
    assert np.array_equal(prof.counts, brute_counts(pts, 0.0))
    assert prof.counts.sum() > 0  # binary points collide


def test_bucket_prefilter_keeps_ties_on_largest_radius():
    # lattice points put many pair distances exactly on the largest
    # radius, where the prefilter drops pairs before bucketing them
    rng = np.random.default_rng(61)
    for dim, top in ((1, 1.0), (2, math.sqrt(2.0)), (3, math.sqrt(3.0)), (2, 2.0)):
        pts = rng.integers(0, 3, size=(120, dim)).astype(float)
        radii = np.array([0.0, 0.5 * top, top])
        cumulative = np.cumsum(radius_bucket_counts(pts, radii), axis=0)
        for k, radius in enumerate(radii):
            assert np.array_equal(cumulative[k], brute_counts(pts, radius))
        on_top = brute_counts(pts, top) - brute_counts(pts, np.nextafter(top, 0.0))
        assert on_top.sum() > 100


def test_full_offsets_query_matches_full_count():
    # the early-stop query must find exactly the full diagonals of a
    # complete count
    rng = np.random.default_rng(57)
    cases = []
    for dim in (1, 2, 3):
        # integer-lattice walks: ties on the closed threshold
        walk = np.cumsum(rng.integers(-1, 2, size=(150, dim)), axis=0).astype(float)
        # a lattice cycle of period 6 that drifts by one lattice step per
        # period, so offset 6 is full only because its ties count
        cycle = rng.integers(-1, 2, size=(6, dim)).astype(float)
        drift = np.ones(dim)
        steps = np.arange(150)
        drifting = cycle[steps % 6] + (steps // 6)[:, None] * drift
        for radius in (0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0)):
            cases += [(walk, radius), (drifting, radius)]
        assert 6 in full_recurrence_offsets(drifting, math.sqrt(dim))
        assert 6 not in full_recurrence_offsets(drifting, np.nextafter(math.sqrt(dim), 0.0))
    # periodic and constant series: every multiple of the period survives
    # the head rows, and for the constant one every diagonal (worst case)
    cases += [(np.tile(rng.random((7, 2)), (20, 1)), 0.0), (np.zeros((60, 2)), 0.0)]
    # random points, with radii at which the short late diagonals are full
    for _ in range(20):
        pts = rng.random((int(rng.integers(2, 120)), int(rng.integers(1, 4))))
        cases.append((pts, float(rng.random() * 1.5)))
    # trajectories no longer than the head rows
    for n in range(2, HEAD_ROWS + 3):
        cases.append((rng.integers(0, 2, size=(n, 2)).astype(float), 1.0))
    for pts, radius in cases:
        got = full_recurrence_offsets(pts, radius)
        assert got.dtype == np.int64
        assert np.array_equal(got, diagonal_profile(pts, radius).full_offsets())
    assert full_recurrence_offsets(np.zeros((60, 2)), 0.0).tolist() == list(range(1, 60))


def test_multi_radius_matches_single_radius():
    rng = np.random.default_rng(19)
    pts = rng.random((120, 2))
    radii = [0.0, 0.05, 0.2, 0.5, 1.5]
    profs = diagonal_profiles(pts, radii)
    for prof, radius in zip(profs, radii):
        single = diagonal_profile(pts, radius)
        assert prof.radius == radius
        assert np.array_equal(prof.counts, single.counts)


def test_counts_monotone_in_radius():
    rng = np.random.default_rng(23)
    pts = rng.random((80, 3))
    profs = diagonal_profiles(pts, [0.01, 0.1, 0.3, 0.7, 2.0])
    for lo, hi in zip(profs, profs[1:]):
        assert np.all(hi.counts >= lo.counts)
    # top radius exceeds the diameter of [0,1)^3, so everything is recurrent
    assert np.array_equal(profs[-1].counts, profs[-1].pair_totals())


def test_period_detection():
    q = 7
    base = np.arange(q, dtype=float)
    pts = np.tile(base, 15)[:100]
    prof = diagonal_profile(pts, 0.0)
    expected = [d for d in range(1, 100) if d % q == 0]
    assert list(prof.full_offsets()) == expected
    hist = full_recurrence_line_gaps(prof.full_offsets())
    assert hist.frequencies == {q: len(expected) - 1}
    assert hist.percentages() == {q: 100.0}


def test_stats_constant_trajectory():
    prof = diagonal_profile(np.zeros((10, 2)), 0.0)
    stats = recurrence_stats(prof)
    assert stats == RecurrenceStats(1.0, 1.0, 1.0)


def test_stats_no_recurrence():
    prof = diagonal_profile(np.arange(6.0), 0.0)
    stats = recurrence_stats(prof)
    assert stats.recurrence_probability == 0.0
    assert stats.mean_recurrence_strength is None
    assert stats.conditional_full_recurrence_probability is None


def test_stats_hand_profile():
    # T=4: offsets 1,2,3 have 3,2,1 pairs; counts 3,1,0
    prof = DiagonalProfile(4, 0.2, np.array([3, 1, 0]))
    stats = recurrence_stats(prof)
    assert abs(stats.recurrence_probability - 2.0 / 3.0) < 1e-15
    assert abs(stats.mean_recurrence_strength - 0.75) < 1e-15  # (1 + 1/2) / 2
    assert abs(stats.conditional_full_recurrence_probability - 0.5) < 1e-15


def test_strength_is_one_when_all_recurrent_diagonals_full():
    pts = np.tile(np.array([0.0, 3.0, 7.0]), 8)
    stats = recurrence_stats(diagonal_profile(pts, 0.0))
    assert stats.mean_recurrence_strength == 1.0
    assert stats.conditional_full_recurrence_probability == 1.0


def test_stats_validation():
    with pytest.raises(ValueError):
        RecurrenceStats(1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        RecurrenceStats(0.0, 0.5, None)  # dependent stat without recurrence


def test_line_gap_histogram():
    pts = np.tile(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), 4)
    prof = diagonal_profile(pts, 0.0)
    hist = full_recurrence_line_gaps(prof.full_offsets())
    assert list(prof.full_offsets()) == [5, 10, 15]
    assert hist.line_count == 3
    assert hist.frequencies == {5: 2}
    assert abs(sum(hist.percentages().values()) - 100.0) < 0.01


def test_line_gap_histogram_too_few_lines():
    hist = full_recurrence_line_gaps(diagonal_profile(np.arange(8.0), 0.0).full_offsets())
    assert hist.frequencies == {}
    assert hist.line_count == 0
    with pytest.raises(ValueError):
        LineDistanceHistogram(1, {3: 1})
    with pytest.raises(ValueError):
        LineDistanceHistogram(4, {3: 1})  # 3 lines need exactly 2 gaps
    with pytest.raises(ValueError):
        LineDistanceHistogram(3, {0: 2})


def test_pearson_examples():
    rng = np.random.default_rng(11)
    x = rng.random(100)
    assert abs(pearson_correlation(x, x) - 1.0) < 1e-14
    assert abs(pearson_correlation(x, -x) + 1.0) < 1e-14
    assert pearson_correlation(x, np.full(100, 0.7)) is None
    y = rng.random(100)
    assert abs(pearson_correlation(x, y) - np.corrcoef(x, y)[0, 1]) < 1e-12
    with pytest.raises(ValueError):
        pearson_correlation(x, y[:50])
    with pytest.raises(ValueError):
        pearson_correlation([1.0], [2.0])


def test_render_constant_all_black():
    img = render_recurrence_plot(np.zeros((20, 2)), 0.5, 0, 20)
    assert img.shape == (20, 20)
    assert img.dtype == np.uint8
    assert np.all(img == 0)


def test_render_zero_radius_diagonal_only():
    pts = np.arange(12.0)
    img = render_recurrence_plot(pts, 0.0, 0, 12)
    assert np.all(np.diag(img) == 0)
    off = img[~np.eye(12, dtype=bool)]
    assert np.all(off == 255)


def test_render_symmetry_and_chunking():
    rng = np.random.default_rng(99)
    pts = rng.random((150, 2))
    img = render_recurrence_plot(pts, 0.25, 10, 140)
    assert img.shape == (130, 130)
    assert np.array_equal(img, img.T)
    chunked = render_recurrence_plot(pts, 0.25, 10, 140, chunk=7)
    assert np.array_equal(img, chunked)
    with pytest.raises(ValueError):
        render_recurrence_plot(pts, 0.25, 10, 10)
    with pytest.raises(ValueError):
        render_recurrence_plot(pts, 0.25, 0, 151)


def test_plot_matches_profile_at_closed_threshold():
    # a walk on an integer lattice puts many pair distances exactly on
    # the radii 1, sqrt(2) and sqrt(3), so any difference between the
    # plot's and the kernel's distance arithmetic would show in the ties
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3):
        pts = np.cumsum(rng.integers(-1, 2, size=(300, dim)), axis=0).astype(float)
        for radius in (0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0):
            counts = diagonal_profile(pts, radius).counts
            img = render_recurrence_plot(pts, radius, 0, len(pts), chunk=64)
            black = [int(np.count_nonzero(np.diag(img, d) == 0)) for d in range(1, len(pts))]
            assert black == counts.tolist()
        on_radius = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)) == 1.0
        assert np.count_nonzero(on_radius) > 100


def test_profile_offset_metadata():
    prof = diagonal_profile(np.arange(5.0), 1.0)
    assert list(prof.offsets()) == [1, 2, 3, 4]
    assert list(prof.pair_totals()) == [4, 3, 2, 1]
    assert list(prof.offsets()[prof.counts > 0]) == [1]


def test_quasiperiodic_two_gap_structure():
    # golden-ratio rotation on a circle: gaps between full-recurrence lines
    # at a tolerant radius take at most three distinct values
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    t = np.arange(400)
    pts = np.stack([np.cos(2 * np.pi * phi * t), np.sin(2 * np.pi * phi * t)], axis=1)
    hist = full_recurrence_line_gaps(diagonal_profile(pts, 0.05).full_offsets())
    assert hist.frequencies != {}
    assert 1 <= len(hist.frequencies) <= 3
