"""Recurrence quantification tests.

The load-bearing oracle is a brute-force T x T distance matrix built with
the same coordinate accumulation order as the streaming kernel, so the
streaming profile must match it exactly, not just within tolerance.  The
numpy kernel and the compiled one face the same oracles.
"""

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qnetdyn.config import initial_state_vector
from qnetdyn.fields import activity_mean_field
from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory
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
from qnetdyn.rqa import _kernels_c, _kernels_py, core
from qnetdyn.rqa._kernels_py import HEAD_ROWS, radius_bucket_counts
from test_acceptance import (
    PLUS_PLUS,
    R_APERIODIC,
    RECURRENCE_SWEEP_COUNTS_SHA256,
    RECURRENCE_SWEEP_TARGETS,
)

# the numpy kernel, and the compiled one where it was built
KERNELS = [_kernels_py.radius_bucket_counts] + [
    count for count in [_kernels_c.radius_bucket_counts] if count is not None
]
KERNEL_IDS = ["python", "c"][: len(KERNELS)]


def profiles_by(kernel, pts, radii):
    """``diagonal_profiles(pts, radii)``, counted by ``kernel``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "radius_bucket_counts", kernel)
        return diagonal_profiles(pts, radii)


@pytest.fixture(scope="module")
def table2_trajectory():
    """Table 2's mean-field trajectory: 20,000 samples at the aperiodic r."""
    qrnn = build_qrnn_map(QRNNParams(R_APERIODIC))
    (pts,) = run_trajectory(qrnn, PLUS_PLUS, 10001, 20000, [activity_mean_field])
    return pts


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
        DiagonalProfile(0.1, np.array([4, 1, 0]))  # offset 1 has only 3 pairs
    for counts in (np.array([[1, 1]]), np.array([], dtype=np.int64)):  # 2-D, or empty
        with pytest.raises(ValueError):
            DiagonalProfile(0.1, counts)


def test_compiled_kernel_is_loaded_where_a_compiler_exists():
    # so the compiled kernel faces every oracle below wherever it can
    assert core.KERNEL_BACKEND == ("python" if _kernels_c.radius_bucket_counts is None else "c")
    if shutil.which("cc"):
        assert core.KERNEL_BACKEND != "python"


# A fresh interpreter importing qnetdyn prints its backend, the processes
# the import started, the build modules it imported and a digest of counts.
IMPORT_PROBE = """
import hashlib, sys
spawns = []
starts = {"subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn", "os.exec", "os.system"}
sys.addaudithook(lambda event, args: event in starts and spawns.append(event))
import qnetdyn
print(qnetdyn.KERNEL_BACKEND)
print(spawns)
print(sorted({"setuptools", "distutils", "sysconfig"} & set(sys.modules)))
import numpy as np
from qnetdyn.rqa import diagonal_profiles
profiles = diagonal_profiles(np.random.default_rng(3).random((400, 2)), [0.0, 0.05, 0.2])
print(hashlib.sha256(b"".join(p.counts.tobytes() for p in profiles)).hexdigest())
"""


def run_import_probe(src, path=os.environ.get("PATH", "")):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src), "PATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def warm_import():
    """The probe's lines for this tree, whose library the tests' own import cached."""
    built = _kernels_c.radius_bucket_counts is not None
    before = _kernels_c.LIBRARY.stat().st_mtime_ns if built else None
    lines = run_import_probe(Path(core.__file__).parents[2])
    return lines, before


def test_warm_import_starts_no_process_and_rebuilds_nothing(warm_import):
    # the cost of importing qnetdyn: with the library cached, nothing is
    # compiled, no process starts and no build machinery is imported
    (backend, spawns, builders, _), before = warm_import
    assert (backend, builders) == (core.KERNEL_BACKEND, "[]")
    if before is not None:  # else no library loaded in this tree
        assert spawns == "[]"
        assert _kernels_c.LIBRARY.stat().st_mtime_ns == before


@pytest.mark.parametrize(
    "compiler",
    ["cc", None, "#!/bin/sh\necho refused >&2\nexit 1\n"],
    ids=["cc", "none", "fails"],
)
def test_cold_import_builds_once_or_falls_back(tmp_path, warm_import, compiler):
    # a copy of the package with no library cached: a working compiler
    # builds it and deletes the library of an older source, and a missing
    # or failing one leaves the numpy kernel; either way the counts agree
    # and no temporary file is left behind.  A failing compiler's refusal
    # is cached under the library's name, so it too runs only once
    src = tmp_path / "src"
    package = Path(core.__file__).parents[1]
    shutil.copytree(package, src / "qnetdyn", ignore=shutil.ignore_patterns("__pycache__"))
    cache = src / "qnetdyn" / "rqa" / "__pycache__"
    path = str(tmp_path)  # a directory with no cc, or the failing one
    if compiler == "cc":
        if shutil.which("cc") is None:
            pytest.skip("no C compiler here")
        path = os.environ["PATH"]
        cache.mkdir()
        (cache / f"_native.{'0' * 64}.so").write_bytes(b"")
    elif compiler is not None:
        (tmp_path / "cc").write_text(compiler)
        (tmp_path / "cc").chmod(0o755)
    backend, spawns, builders, counts = run_import_probe(src, path)
    # one compiler run, or one attempt at it; with no cc, no process at all
    assert (backend, spawns, builders) == (
        "c" if compiler == "cc" else "python",
        "[]" if compiler is None else "['subprocess.Popen']",
        "[]",
    )
    assert counts == warm_import[0][3]
    built = [entry.name for entry in cache.glob("_native.*")]
    assert built == ([] if compiler is None else [_kernels_c.LIBRARY.name])
    if compiler is not None:  # built or refused once: the next import only loads
        assert run_import_probe(src, path)[:3] == [backend, "[]", "[]"]
    if compiler not in ("cc", None):
        assert (cache / _kernels_c.LIBRARY.name).read_bytes() == b"refused\n"


def test_streaming_equals_brute_force(kernels=KERNELS):
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
        for kernel in kernels:
            (prof,) = profiles_by(kernel, pts, [radius])
            assert np.array_equal(prof.counts, brute_counts(pts, radius))


def test_streaming_zero_radius_brute_force():
    rng = np.random.default_rng(88)
    pts = rng.integers(0, 2, size=(60, 2)).astype(float)
    for kernel in KERNELS:
        (prof,) = profiles_by(kernel, pts, [0.0])
        assert np.array_equal(prof.counts, brute_counts(pts, 0.0))
        assert prof.counts.sum() > 0  # binary points collide


def test_bucket_prefilter_keeps_ties_on_largest_radius(kernels=KERNELS):
    # lattice points put many pair distances exactly on the largest
    # radius.  Their squared sums are whole numbers: equal to the squared
    # bound of sqrt(3), one ulp below those of 1, sqrt(2) and 2.  No first
    # term alone reaches a bound, so these ties check the full-sum test and
    # the bucketing, not the first-term prefilter (the band edges do that)
    rng = np.random.default_rng(61)
    for dim, top in ((1, 1.0), (2, math.sqrt(2.0)), (3, math.sqrt(3.0)), (2, 2.0)):
        pts = rng.integers(0, 3, size=(120, dim)).astype(float)
        radii = np.array([0.0, 0.5 * top, top])
        for kernel in kernels:
            cumulative = np.cumsum(kernel(pts, radii), axis=0)
            for k, radius in enumerate(radii):
                assert np.array_equal(cumulative[k], brute_counts(pts, radius))
        on_top = brute_counts(pts, top) - brute_counts(pts, np.nextafter(top, 0.0))
        assert on_top.sum() > 100


def test_band_edges_match_brute_force(kernels=KERNELS):
    # the compiled walk skips a pair whose first-coordinate term alone
    # exceeds the largest bound; every case on or near that edge must
    # count exactly as the full distance matrix does
    rng = np.random.default_rng(2077)
    cases = []
    for top in (0.1, 0.125):
        # first-coordinate gaps of exactly top and one ulp either side,
        # among points whose other coordinate is 0 or random, shuffled in time
        gaps = [top, math.nextafter(top, 0.0), math.nextafter(top, math.inf)]
        edge = [(x, 0.0) for g in gaps for x in (g, -g)] + [(0.0, 0.0)] * 2
        cloud = rng.random((60, 2)) * 0.3
        cases.append((rng.permutation(np.concatenate([edge, cloud])), [0.0, 0.5 * top, top]))
    # repeated points at radius 0: only equal first coordinates pass the first term
    cases.append((rng.integers(0, 3, size=(80, 2)).astype(float), [0.0]))
    # squared differences that underflow to 0 are within any radius
    tiny = np.array([[0.0, 0.0], [1e-180, 0.0], [0.0, 1e-180], [1.0, 0.0]])
    cases.append((tiny, [1e-200]))
    # a radius that covers every pair, and a constant first coordinate:
    # in both every pair passes the first term
    every = rng.random((70, 2))
    cases.append((every, [0.3, 2.0]))
    flat = np.column_stack([np.full(70, 0.7), rng.random(70)])
    cases.append((flat, [0.05, 0.2]))
    # the shortest trajectory: one pair, tied with the radius 1, sqrt(2)
    # or sqrt(3) of its dimension
    pairs = {dim: np.stack([np.zeros(dim), np.ones(dim)]) for dim in (1, 2, 3)}
    cases += [(pair, [0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0)]) for pair in pairs.values()]
    # a pair within its radius only when d1 * d1 is rounded before it is
    # added to d0 * d0: a fused multiply-add would drop it
    while True:
        d0, d1 = rng.random(2)
        fused = float(Fraction(d0 * d0) + Fraction(d1) ** 2)  # one rounding
        unfused = np.array([[0.0, 0.0], [d0, d1]])
        radius = math.sqrt(d0 * d0 + d1 * d1)
        if fused > _kernels_py.squared_bounds([radius])[0]:
            break
    cases.append((unfused, [radius]))
    for pts, radii in cases:
        for kernel in kernels:
            cumulative = np.cumsum(kernel(pts, np.array(radii)), axis=0)
            for k, radius in enumerate(radii):
                assert np.array_equal(cumulative[k], brute_counts(pts, radius))
    assert brute_counts(tiny, 1e-200).sum() == 3
    assert np.array_equal(brute_counts(every, 2.0), np.arange(69, 0, -1))
    assert brute_counts(unfused, radius).tolist() == [1]
    for dim, pair in pairs.items():
        assert brute_counts(pair, math.sqrt(dim)).tolist() == [1]
        assert brute_counts(pair, np.nextafter(math.sqrt(dim), 0.0)).tolist() == [0]


def test_default_tiles_match_brute_force():
    # the one brute-force case above 200 points, which the compiled walk
    # deals out to its threads; 2 and 3 points hold one and three pairs
    rng = np.random.default_rng(4)
    for n in (2, 3, 600):
        lattice = rng.integers(0, 3, size=(n, 2)) * 0.5
        for pts, radii in ((rng.random((n, 2)), [0.05, 0.3]), (lattice, [0.5, 1.0])):
            for kernel in KERNELS:
                cumulative = np.cumsum(kernel(pts, np.array(radii)), axis=0)
                for k, radius in enumerate(radii):
                    assert np.array_equal(cumulative[k], brute_counts(pts, radius))


def test_tile_padding_is_never_within_a_radius():
    # the largest finite radius covers every pair of finite points: each
    # is bucketed once, and no point past the end of the trajectory is read
    pts = np.random.default_rng(5).random((50, 2))
    for kernel in KERNELS:
        buckets = kernel(pts, np.array([0.5, np.finfo(np.float64).max]))
        assert np.array_equal(buckets.sum(axis=0), np.arange(49, 0, -1))


@pytest.mark.parametrize(
    "radius",
    [0.0, 5e-324, 2.2e-308, 1e-300, 1e-160, 1e-155, 1e-3, 0.1]
    + [math.sqrt(2.0), math.sqrt(3.0), 1e154, 1e200, np.finfo(np.float64).max],
)
def test_squared_bound_decides_as_sqrt(radius):
    # every output compares squared sums with the bound, so x <= bound
    # must hold exactly when sqrt(x) <= radius: on the 50 doubles either
    # side of the bound and on doubles drawn from the whole range >= 0
    bound = _kernels_py.squared_bounds([radius])[0]
    near = [float(bound)]
    for direction in (math.inf, 0.0):
        x = float(bound)
        for _ in range(50):
            x = math.nextafter(x, direction)
            near.append(x)
    top = np.array(np.inf).view(np.int64)  # the bit pattern of +inf
    drawn = np.random.default_rng(13).integers(0, top, size=100_000, endpoint=True)
    xs = np.concatenate([near, drawn.view(np.float64)])
    assert np.array_equal(xs <= bound, np.sqrt(xs) <= radius)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_counts_do_not_depend_on_thread_count(monkeypatch, cpus):
    # the compiled kernel deals out the diagonal offsets to one thread per
    # CPU; the lattice and tie cases of the two tests above must not move
    if _kernels_c.radius_bucket_counts is None:
        pytest.skip("no compiled kernel here")
    monkeypatch.setattr(_kernels_c, "usable_cpus", lambda: cpus)
    on_main = set()

    def spy(*args, work=_kernels_c._walk):
        on_main.add(threading.current_thread() is threading.main_thread())
        work(*args)

    monkeypatch.setattr(_kernels_c, "_walk", spy)
    # switching threads every few bytecodes interleaves the walks' starts finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        test_streaming_equals_brute_force([_kernels_c.radius_bucket_counts])
        test_bucket_prefilter_keeps_ties_on_largest_radius([_kernels_c.radius_bucket_counts])
    finally:
        sys.setswitchinterval(interval)
    assert (False in on_main) == (cpus > 1)


# one-token mutants of the compiled walk: the (n+1)th occurrence of a
# comparison made strict, so a pair exactly on a bound is dropped
WALK_MUTANTS = {
    "strict-prefilter": ("if (!(acc <= top))", 0),
    "strict-full-sum": ("if (!(acc <= top))", 1),
    "strict-scan": ("while (!(acc <= bounds[k]))", 0),
}


def _padded(walk):
    """``walk`` over one more bound, +inf, and one spare histogram row: a
    scan that runs past the last bound then stays inside its arrays."""

    def padded(x, n, dim, bounds, r, first, step, out):
        given = np.ctypeslib.as_array(ctypes.cast(bounds, ctypes.POINTER(ctypes.c_double)), (r,))
        spare_bounds = np.append(given, np.inf)
        spare_out = np.zeros((r + 1, n), dtype=np.int64)
        walk(x, n, dim, spare_bounds.ctypes.data, r, first, step, spare_out.ctypes.data)
        own = np.ctypeslib.as_array(ctypes.cast(out, ctypes.POINTER(ctypes.c_int64)), (r, n))
        own[:, first::step] = spare_out[:r, first::step]  # this call's offsets only

    return padded


@pytest.mark.parametrize("mutant", sorted(WALK_MUTANTS))
def test_oracles_catch_a_broken_compiled_walk(tmp_path, monkeypatch, mutant):
    # the brute-force oracles must fail a walk that loses the closed threshold
    if shutil.which("cc") is None:
        pytest.skip("no C compiler here")
    token, nth = WALK_MUTANTS[mutant]
    parts = _kernels_c.SOURCE.read_text().split(token)
    assert len(parts) > nth + 1
    source = tmp_path / "mutant.c"
    source.write_text(
        token.join(parts[: nth + 1]) + token.replace("<=", "<") + token.join(parts[nth + 1 :])
    )
    library = tmp_path / "mutant.so"
    cmd = ["cc", *_kernels_c.CFLAGS, "-o", str(library), str(source)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    walk = ctypes.CDLL(str(library)).radius_bucket_counts
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    walk.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, ptr]
    walk.restype = None
    kernel = [_kernels_c._radius_bucket_counts]
    monkeypatch.setattr(_kernels_c, "_walk", _padded(_kernels_c._walk))
    test_band_edges_match_brute_force(kernel)  # the padding alone moves no count
    monkeypatch.setattr(_kernels_c, "_walk", _padded(walk))
    for oracle in (test_band_edges_match_brute_force, test_streaming_equals_brute_force):
        with pytest.raises(AssertionError):
            oracle(kernel)


def test_numpy_kernel_runs_in_the_calling_thread(monkeypatch):
    # the thread budget is the compiled kernel's alone: however many CPUs,
    # the numpy kernel measures every offset in the thread that called it
    monkeypatch.setattr(_kernels_c, "usable_cpus", lambda: 3)
    on_main = set()

    def spy(*args, work=_kernels_py.squared_sums):
        on_main.add(threading.current_thread() is threading.main_thread())
        return work(*args)

    monkeypatch.setattr(_kernels_py, "squared_sums", spy)
    pts = np.random.default_rng(9).random((200, 2))
    radius_bucket_counts(pts, np.array([0.1, 0.3]))
    assert on_main == {True}


def test_numpy_kernel_measures_every_pair_once(monkeypatch):
    # the oracle shares none of the compiled walk's pruning: a direct
    # numpy count forms one squared sum per pair, T(T - 1)/2 in all
    sizes = []

    def spy(*args, work=_kernels_py.squared_sums):
        sums = work(*args)
        sizes.append(sums.size)
        return sums

    monkeypatch.setattr(_kernels_py, "squared_sums", spy)
    pts = np.random.default_rng(11).random((300, 2))
    radius_bucket_counts(pts, np.array([0.05, 0.1]))
    assert sum(sizes) == 300 * 299 // 2


def test_kernel_leaves_no_thread_running(monkeypatch):
    # run_sweep's fork pool must never fork while kernel threads are live,
    # after a count and after a count that fails
    monkeypatch.setattr(_kernels_c, "usable_cpus", lambda: 3)
    pts = np.random.default_rng(9).random((600, 2))
    before = threading.active_count()
    for kernel in KERNELS:
        kernel(pts, np.array([0.1, 0.3]))
        assert threading.active_count() == before
    # every pair is within the radii in its first coordinate, and its
    # second coordinate's squared difference overflows
    overflowing = pts * [0.1, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            radius_bucket_counts(overflowing, np.array([0.1, 0.3]))
    assert threading.active_count() == before
    if _kernels_c.radius_bucket_counts is not None:

        def failing(*args, work=_kernels_c._walk):
            # the compiled kernel's second thread, whose first offset is 2, fails
            if args[-3] == 2:
                raise RuntimeError("walk failed")
            work(*args)

        monkeypatch.setattr(_kernels_c, "_walk", failing)
        with pytest.raises(RuntimeError, match="walk failed"):
            _kernels_c.radius_bucket_counts(pts, np.array([0.1, 0.3]))
        assert threading.active_count() == before


def test_table2_counts_are_pinned(table2_trajectory):
    radii = [row[0] for row in RECURRENCE_SWEEP_TARGETS]
    for kernel in KERNELS:
        profiles = profiles_by(kernel, table2_trajectory, radii)
        digest = hashlib.sha256(b"".join(p.counts.astype("<i8").tobytes() for p in profiles))
        assert digest.hexdigest() == RECURRENCE_SWEEP_COUNTS_SHA256


@pytest.mark.parametrize("r, start, period", [(0.0, "plus-plus", 1), (1.0, "basis:01", 3)])
def test_degenerate_sweep_rows(r, start, period):
    # the ends of a sweep over r: at r = 0 the map fixes every state, so
    # every pair recurs; at r = 1 the mean field cycles with period 3
    qrnn = build_qrnn_map(QRNNParams(r))
    (pts,) = run_trajectory(qrnn, initial_state_vector(start), 100, 300, [activity_mean_field])
    for kernel in KERNELS:
        profiles = profiles_by(kernel, pts, [0.0, 0.01, 0.1])
        for prof in profiles:
            assert np.array_equal(prof.counts, brute_counts(pts, prof.radius))
        for prof in profiles[1:]:  # the sweep's radii
            assert prof.full_offsets().tolist() == list(range(period, 300, period))
            assert np.count_nonzero(prof.counts) == 299 // period


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_kernel_peak_memory_is_bounded(kernel, table2_trajectory):
    # table2's pass over a mean-field trajectory: the traced peak stays
    # within a small multiple of the output (about 1.5 times for the numpy
    # kernel, 1.0 for the compiled one), which a histogram per thread
    # would break
    pts = table2_trajectory
    radii = np.array([0.0, 0.001, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1])
    tracemalloc.start()
    try:
        buckets = kernel(pts, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buckets.shape == (12, 19999)
    assert peak <= 4 * buckets.nbytes


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
    prof = DiagonalProfile(0.2, np.array([3, 1, 0]))
    assert prof.length == 4
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            pearson_correlation([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            pearson_correlation([1.0, 2.0, 3.0], [1.0, bad, 3.0])


def test_render_constant_all_black():
    img = render_recurrence_plot(np.zeros((20, 2)), 0.5)
    assert img.shape == (20, 20)
    assert img.dtype == np.uint8
    assert np.all(img == 0)


def test_render_zero_radius_diagonal_only():
    pts = np.arange(12.0)
    img = render_recurrence_plot(pts, 0.0)
    assert np.all(np.diag(img) == 0)
    off = img[~np.eye(12, dtype=bool)]
    assert np.all(off == 255)


def test_render_symmetry_and_chunking(monkeypatch):
    rng = np.random.default_rng(99)
    pts = rng.random((150, 2))
    img = render_recurrence_plot(pts[10:140], 0.25)
    assert img.shape == (130, 130)
    assert np.array_equal(img, img.T)
    # a window's plot is the window of the whole plot
    assert np.array_equal(img, render_recurrence_plot(pts, 0.25)[10:140, 10:140])
    monkeypatch.setattr(core, "PLOT_CHUNK_ROWS", 7)
    chunked = render_recurrence_plot(pts[10:140], 0.25)
    assert np.array_equal(img, chunked)
    for window in (pts[10:10], pts[10:11]):  # fewer than two samples
        with pytest.raises(ValueError):
            render_recurrence_plot(window, 0.25)


def test_plot_matches_profile_at_closed_threshold(monkeypatch):
    monkeypatch.setattr(core, "PLOT_CHUNK_ROWS", 64)
    # a walk on an integer lattice puts many pair distances exactly on
    # the radii 1, sqrt(2) and sqrt(3), so any difference between the
    # plot's and the kernel's distance arithmetic would show in the ties
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3):
        pts = np.cumsum(rng.integers(-1, 2, size=(300, dim)), axis=0).astype(float)
        for radius in (0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0):
            counts = diagonal_profile(pts, radius).counts
            img = render_recurrence_plot(pts, radius)
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
