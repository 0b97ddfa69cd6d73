"""End-to-end acceptance checks over the full pipeline.

Every check prints one verdict line (replayed in the terminal summary)
and then asserts it.  Trajectory recording follows the package
convention throughout: the first kept sample is the state one update
past the dropped transient, so a 10,000-step transient records from
application 10,001 onward.
"""

import hashlib
import time

import numpy as np
import pytest

from _acceptance_log import check
from qnetdyn.config import load_preset
from qnetdyn.entropy import entropy_observer, von_neumann_entropy
from qnetdyn.experiment import run_experiment
from qnetdyn.fields import (
    activity_mean_field,
    heisenberg_evolve,
    neural_activity_operator,
    quantum_average,
)
from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory
from qnetdyn.rqa import (
    diagonal_profile,
    diagonal_profiles,
    full_recurrence_line_gaps,
    full_recurrence_offsets,
    pearson_correlation,
    recurrence_stats,
)
from qnetdyn.spectral import loglog_slope, power_spectrum, prominent_peaks

R_APERIODIC = 0.550129597
R_NEAR_CYCLE = 0.999
PLUS_PLUS = np.full(4, 0.5, dtype=complex)

# per-neuron (min, max, mean) targets for the three entropy regimes
ENTROPY_TARGETS = {
    "near-identity": (8.028e-09, 0.9999998, 0.6347909),
    "aperiodic": (2.30e-08, 0.8191482, 0.4976293),
    "near-cycle": (9.52e-09, 0.8427277, 0.2608883),
}

# (radius, recurrence probability, mean strength, conditional full-line
# probability); None marks statistics that are undefined at that radius
RECURRENCE_SWEEP_TARGETS = [
    (0.0, 0.0, None, None),
    (0.001, 0.006750, 0.116914, 0.081481),
    (0.01, 0.069303, 0.126819, 0.086580),
    (0.02, 0.140057, 0.129167, 0.085684),
    (0.03, 0.211161, 0.132081, 0.085721),
    (0.04, 0.284464, 0.134353, 0.084725),
    (0.05, 0.360418, 0.136247, 0.083657),
    (0.06, 0.439772, 0.137854, 0.082661),
    (0.07, 0.525426, 0.138656, 0.080415),
    (0.08, 0.621031, 0.138282, 0.077939),
    (0.09, 0.737737, 0.135577, 0.073946),
    (0.1, 0.941097, 0.123607, 0.064502),
]
# SHA-256 of the 12 cumulative count arrays behind those targets, as
# little-endian int64 in radius order.  No pair lies within a relative
# 1e-9 of any radius, so rounding differences between machines cannot
# move a count.
RECURRENCE_SWEEP_COUNTS_SHA256 = "b134beec8813c39d2bace75117b843c974e0f7268e0a2822cc65d04d923c7776"


def _run(r, state, samples, observers, transient=10001):
    map_ = build_qrnn_map(QRNNParams(r))
    recorded = run_trajectory(map_, state, transient, samples, observers)
    return [np.asarray(series) for series in recorded]


def _mf_observer(v):
    return activity_mean_field(v, 2)


@pytest.fixture(scope="module")
def entropy_r0005():
    (ent,) = _run(0.0005, PLUS_PLUS, 30000, [entropy_observer(2)])
    return ent


@pytest.fixture(scope="module")
def run_aperiodic():
    mf, ent = _run(R_APERIODIC, PLUS_PLUS, 30000, [_mf_observer, entropy_observer(2)])
    return mf, ent


@pytest.fixture(scope="module")
def run_near_cycle():
    mf, ent = _run(R_NEAR_CYCLE, PLUS_PLUS, 30000, [_mf_observer, entropy_observer(2)])
    return mf, ent


def _random_state(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_fixed_point_regime():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    map_ = build_qrnn_map(QRNNParams(0.0))
    state_dev = activity_dev = 0.0
    for _ in range(20):
        v0 = _random_state(rng)
        a0 = activity_mean_field(v0, 2)
        # applications 1..1000
        states, acts = run_trajectory(map_, v0, 1, 1000, [np.copy, _mf_observer])
        state_dev = max(state_dev, float(np.abs(states - v0).max()))
        activity_dev = max(activity_dev, float(np.abs(acts - a0).max()))
    elapsed = time.perf_counter() - t0
    ok = state_dev < 1e-10 and activity_dev < 1e-10 and elapsed < 1.0
    check(
        1,
        "zero-rotation fixed point",
        ok,
        f"state dev {state_dev:.2e}, activity dev {activity_dev:.2e} "
        f"(tol 1e-10), {elapsed:.2f} s (limit 1 s)",
    )


def test_three_cycle_regime():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    map_ = build_qrnn_map(QRNNParams(1.0))
    state_dev = activity_dev = 0.0
    for _ in range(20):
        v = _random_state(rng)
        # applications 0..1003
        states, acts = run_trajectory(map_, v, 0, 1004, [np.copy, _mf_observer])
        diffs = np.linalg.norm(states[3:1004] - states[0:1001], axis=1)
        state_dev = max(state_dev, float(diffs.max()))
        activity_dev = max(
            activity_dev, float(np.abs(acts[3:1004] - acts[0:1001]).max())
        )
    elapsed = time.perf_counter() - t0
    ok = state_dev < 1e-9 and activity_dev < 1e-10 and elapsed < 1.0
    check(
        2,
        "full-rotation three-cycle",
        ok,
        f"state dev {state_dev:.2e} (tol 1e-9), activity dev {activity_dev:.2e} "
        f"(tol 1e-10), {elapsed:.2f} s (limit 1 s)",
    )


def test_uniform_start_correlation():
    t0 = time.perf_counter()
    (mf,) = _run(0.0005, PLUS_PLUS, 20000, [_mf_observer])
    corr = pearson_correlation(mf[:, 0], mf[:, 1])
    elapsed = time.perf_counter() - t0
    target, tol = 0.99999977, 1e-6
    dev = abs(corr - target)
    ok = dev <= tol and elapsed < 5.0
    check(
        3,
        "uniform-start activity correlation",
        ok,
        f"got {corr!r}, target {target} +/- {tol} (dev {dev:.2e}), "
        f"{elapsed:.2f} s (limit 5 s)",
    )


@pytest.mark.parametrize(
    "digits, target",
    [("01", -0.87907088), ("10", -0.87906459), ("11", 0.99999955)],
)
def test_basis_start_correlation(digits, target):
    v0 = np.zeros(4, dtype=complex)
    v0[int(digits, 2)] = 1.0
    (mf,) = _run(0.0005, v0, 20000, [_mf_observer])
    corr = pearson_correlation(mf[:, 0], mf[:, 1])
    dev = abs(corr - target)
    ok = dev <= 1e-5
    check(
        4,
        f"basis-start {digits} activity correlation",
        ok,
        f"got {corr!r}, target {target} +/- 1e-05 (dev {dev:.2e})",
    )


def _check_entropy_stats(num, label, ent, targets, max_tol):
    tmin, tmax, tmean = targets
    devs = []
    for k in range(2):
        devs.append(
            (
                abs(float(ent[:, k].min()) - tmin),
                abs(float(ent[:, k].max()) - tmax),
                abs(float(ent[:, k].mean()) - tmean),
            )
        )
    dmin = max(d[0] for d in devs)
    dmax = max(d[1] for d in devs)
    dmean = max(d[2] for d in devs)
    ok = dmin <= 5e-8 and dmax <= max_tol and dmean <= 1e-6
    check(
        num,
        label,
        ok,
        f"dev min {dmin:.2e} (tol 5e-8), max {dmax:.2e} (tol {max_tol:g}), "
        f"mean {dmean:.2e} (tol 1e-6)",
    )


def test_entropy_statistics_near_identity(entropy_r0005):
    _check_entropy_stats(
        5,
        "near-identity entropy statistics",
        entropy_r0005,
        ENTROPY_TARGETS["near-identity"],
        max_tol=5e-8,
    )


def test_recurrence_statistics_sweep(run_aperiodic):
    mf = run_aperiodic[0][:20000]
    radii = [row[0] for row in RECURRENCE_SWEEP_TARGETS]
    t0 = time.perf_counter()
    profiles = diagonal_profiles(mf, radii)
    stats = [recurrence_stats(p) for p in profiles]
    elapsed = time.perf_counter() - t0
    worst = 0.0
    zero_ok = stats[0].recurrence_probability == 0.0
    for s, (_, p_t, m_t, c_t) in zip(stats, RECURRENCE_SWEEP_TARGETS):
        if m_t is None:
            worst = max(worst, abs(s.recurrence_probability - p_t))
            continue
        worst = max(
            worst,
            abs(s.recurrence_probability - p_t),
            abs(s.mean_recurrence_strength - m_t),
            abs(s.conditional_full_recurrence_probability - c_t),
        )
    digest = hashlib.sha256(b"".join(p.counts.astype("<i8").tobytes() for p in profiles))
    pinned = digest.hexdigest() == RECURRENCE_SWEEP_COUNTS_SHA256
    ok = worst <= 1e-3 and zero_ok and pinned and elapsed < 120.0
    check(
        6,
        "recurrence statistics sweep",
        ok,
        f"12 radii worst dev {worst:.2e} (tol 1e-3), zero-radius prob exact "
        f"{zero_ok}, counts match pinned sha256 {pinned}, {elapsed:.1f} s (limit 120 s)",
    )


def test_line_gap_histogram_mean_field(run_aperiodic):
    mf = run_aperiodic[0][:20000]
    hist = full_recurrence_line_gaps(full_recurrence_offsets(mf, 0.1))
    expected = {5: 352, 21: 836, 26: 25}
    ok = hist.frequencies == expected
    check(
        7,
        "mean-field line-gap histogram",
        ok,
        f"got {hist.frequencies}, expected {expected}",
    )


def test_line_gap_histogram_entropy(run_aperiodic):
    ent = run_aperiodic[1][:20000]
    hist = full_recurrence_line_gaps(full_recurrence_offsets(ent, 0.1))
    expected = {47: 248, 68: 88, 115: 20}
    ok = hist.frequencies == expected
    check(
        8,
        "entropy line-gap histogram",
        ok,
        f"got {hist.frequencies}, expected {expected}",
    )


def test_line_gap_query_matches_full_count(run_aperiodic):
    # the early-stop query behind line_gaps.csv against a complete count,
    # on the trajectories of acceptance 07 and 08
    for series in run_aperiodic:
        pts = series[:20000]
        want = diagonal_profile(pts, 0.1).full_offsets()
        assert np.array_equal(full_recurrence_offsets(pts, 0.1), want)


def test_entropy_statistics_aperiodic(run_aperiodic):
    _check_entropy_stats(
        9,
        "aperiodic entropy statistics",
        run_aperiodic[1],
        ENTROPY_TARGETS["aperiodic"],
        max_tol=1e-6,
    )


def test_entropy_statistics_near_cycle(run_near_cycle):
    _check_entropy_stats(
        9,
        "near-cycle entropy statistics",
        run_near_cycle[1],
        ENTROPY_TARGETS["near-cycle"],
        max_tol=1e-6,
    )


@pytest.mark.parametrize(
    "fixture, label, target, tol",
    [
        ("run_aperiodic", "aperiodic", 1.856e-05, 1e-5),
        ("run_near_cycle", "near-cycle", -0.49961075, 1e-4),
    ],
)
def test_shorter_window_correlation(fixture, label, target, tol, request):
    mf = request.getfixturevalue(fixture)[0][:10000]
    corr = pearson_correlation(mf[:, 0], mf[:, 1])
    dev = abs(corr - target)
    ok = dev <= tol
    check(
        10,
        f"{label} activity correlation",
        ok,
        f"got {corr!r}, target {target} +/- {tol} (dev {dev:.2e})",
    )


def test_picture_equivalence():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        r = float(rng.random())
        v0 = _random_state(rng)
        k = int(rng.integers(0, 2))
        t = int(rng.integers(0, 51))
        map_ = build_qrnn_map(QRNNParams(r))
        obs = neural_activity_operator(k, 2)
        heis = quantum_average(heisenberg_evolve(obs, map_, t), v0)
        schr = quantum_average(obs, run_trajectory(map_, v0, t, 1, [np.copy])[0][0])
        worst = max(worst, abs(heis - schr))
    ok = worst < 1e-9
    check(
        11,
        "picture equivalence",
        ok,
        f"100 cases, worst deviation {worst:.2e} (tol 1e-9)",
    )


def test_streaming_matches_brute_force():
    rng = np.random.default_rng(14)
    all_equal = True
    for _ in range(50):
        n = int(rng.integers(8, 201))
        dim = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, dim))
        delta = float(rng.random() * 1.5)
        profile = diagonal_profile(pts, delta)
        # brute force: full distance matrix with the same ascending-axis
        # accumulation order, then per-diagonal sums
        acc = (pts[:, None, 0] - pts[None, :, 0]) ** 2
        for k in range(1, dim):
            d = pts[:, None, k] - pts[None, :, k]
            acc = acc + d * d
        rec = np.sqrt(acc) <= delta
        brute = np.array([np.diagonal(rec, off).sum() for off in range(1, n)])
        all_equal = all_equal and np.array_equal(profile.counts, brute)
    check(
        12,
        "streaming recurrence vs brute force",
        all_equal,
        "50 random trajectories, counts identical"
        if all_equal
        else "50 random trajectories, counts DIFFER",
    )


def test_entropy_closed_form():
    rng = np.random.default_rng(15)
    worst_mixed = 0.0
    for _ in range(1000):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        mid = (rho[0, 0].real + rho[1, 1].real) / 2
        gap = np.hypot((rho[0, 0].real - rho[1, 1].real) / 2, abs(rho[0, 1]))
        closed = 0.0
        for lam in (mid + gap, mid - gap):
            if lam > 0.0:
                closed -= lam * np.log2(lam)
        worst_mixed = max(worst_mixed, abs(von_neumann_entropy(rho) - closed))
    worst_pure = 0.0
    for _ in range(100):
        v = _random_state(rng, 2)
        worst_pure = max(worst_pure, von_neumann_entropy(np.outer(v, v.conj())))
    ok = worst_mixed <= 1e-10 and worst_pure < 1e-12
    check(
        13,
        "entropy closed form",
        ok,
        f"1000 densities dev {worst_mixed:.2e} (tol 1e-10), "
        f"pure entropy {worst_pure:.2e} (tol 1e-12)",
    )


def test_spectral_shape(run_near_cycle):
    rng = np.random.default_rng(16)
    n = 4097
    m = (n - 1) // 2
    freqs = np.arange(1, m + 1) / n
    spec = np.zeros(m + 1, dtype=complex)
    spec[1:] = (1.0 / freqs) * np.exp(2j * np.pi * rng.random(m))
    series = np.fft.irfft(spec, n=n)
    slope = loglog_slope(power_spectrum(series), (freqs[0], freqs[-1]))
    synthetic_ok = abs(slope + 2.0) <= 0.05

    p = power_spectrum(run_near_cycle[1][:10000, 0])
    low_slope = loglog_slope(p, (0.001, 0.05))
    peaks = prominent_peaks(p)
    high_peak = bool(peaks.size) and bool(np.any(p.frequencies[peaks] > 0.25))
    ok = synthetic_ok and low_slope < -0.5 and high_peak
    check(
        14,
        "spectral shape",
        ok,
        f"synthetic slope {slope:.4f} (target -2 +/- 0.05), near-cycle "
        f"low-band slope {low_slope:.3f} (< -0.5), high-frequency peak "
        f">10x median: {high_peak}",
    )


def test_preset_rerun_byte_identical(tmp_path):
    cfg = load_preset("figure1")
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    same_sums = first.checksums == second.checksums
    same_bytes = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in first.checksums
    )
    ok = same_sums and same_bytes
    check(
        15,
        "preset rerun determinism",
        ok,
        f"checksums equal: {same_sums}, file bytes equal: {same_bytes} "
        f"({len(first.checksums)} files)",
    )
