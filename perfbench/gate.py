"""Correctness gate: every output of every benchmark run is checked.

Each check is one attempted operation; a check that does not hold is a
failed one.  Three kinds of check run:

* ``manifest.verify()`` and the list of declared outputs;
* for seed 0 at full size, comparison with values recorded from the
  seed commit (``reference_seed0.json``): mean-field series, recurrence
  statistics, line-gap histograms and the PGM byte for byte, entropy
  values within 1e-12 absolute.  Whether each file's bytes are identical
  is recorded too, but only as information;
* oracles that hold for any seed: the trajectory is recomputed by plain
  matrix-vector products, entropies on a seeded subsample of rows are
  recomputed with ``np.linalg.eigvalsh``, recurrence counts on a seeded
  subsample of diagonals are recomputed directly in the kernel's
  coordinate order, and the statistics, line gaps, plot pixels, spectrum
  and correlation are recomputed from those.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from qnetdyn.network import QRNNParams, build_qrnn_map
from qnetdyn.rqa import KERNEL_BACKEND

ENTROPY_TOL = 1e-12
ENTROPY_ORACLE_ROWS = 1000
DIAGONAL_ORACLE_OFFSETS = 64
PLOT_ORACLE_ROWS = 32
SWEEP_ORACLE_ROWS = 3
REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")

RUN_OUTPUTS = {
    "entropy-stats": {"series.csv", "entropy_stats.csv"},
    "recurrence-mf": {
        "series.csv",
        "summary.csv",
        "recurrence_stats.csv",
        "line_gaps.csv",
        "spectrum.csv",
        "recurrence_plot.pgm",
    },
}
# outputs whose bytes must equal the seed commit's; the others carry
# entropy or spectrum values that may move in the last digit
EXACT_FILES = {"recurrence_stats.csv", "line_gaps.csv", "recurrence_plot.pgm"}


class Gate:
    """Named pass/fail checks plus informational flags."""

    def __init__(self):
        self.checks: list[tuple[str, bool, str]] = []
        self.info: dict[str, object] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, got, want, tol: float) -> bool:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return self.check(name, False, f"shape {got.shape} != {want.shape}")
        dev = float(np.max(np.abs(got - want), initial=0.0))
        return self.check(name, dev <= tol, f"max deviation {dev:.3g} (tol {tol:g})")

    def exact(self, name: str, got, want) -> bool:
        same = np.array_equal(np.asarray(got), np.asarray(want))
        return self.check(name, same, "" if same else "values differ")

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.checks if not ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, size, depth, pixels = raw.split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    if magic != b"P5" or depth != b"255" or len(pixels) != width * height:
        raise ValueError("not an 8-bit binary PGM")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


# -- independent recomputations ---------------------------------------


def subsample(rng, n, k) -> np.ndarray:
    """Sorted seeded choice of min(k, n) distinct indices below n."""
    return np.sort(rng.choice(n, min(k, n), replace=False))


def oracle_states(cfg) -> np.ndarray:
    """Recorded states by plain products: the first is the state after
    ``transient + 1`` applications of the map."""
    f = build_qrnn_map(QRNNParams(cfg.r)).matrix
    v = np.array(cfg.initial_state, dtype=np.complex128)
    for _ in range(cfg.transient + 1):
        v = f @ v
    states = np.empty((cfg.samples, v.size), dtype=np.complex128)
    for i in range(cfg.samples):
        states[i] = v
        v = f @ v
    return states


def oracle_activity(states) -> np.ndarray:
    """Firing probabilities of the two neurons; neuron 0 is the high digit."""
    p = states.real**2 + states.imag**2
    return np.stack([p[:, 2] + p[:, 3], p[:, 1] + p[:, 3]], axis=1)


def oracle_entropies(states) -> np.ndarray:
    """Per-neuron entropies in bits from ``np.linalg.eigvalsh``."""
    m = states.reshape(-1, 2, 2)
    rho0 = m @ m.conj().transpose(0, 2, 1)
    rho1 = m.transpose(0, 2, 1) @ m.conj()
    out = []
    for rho in (rho0, rho1):
        lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
        safe = np.where(lam > 0.0, lam, 1.0)
        out.append(-np.sum(np.where(lam > 0.0, lam * np.log2(safe), 0.0), axis=1))
    return np.stack(out, axis=1)


def oracle_distances(points, offset) -> np.ndarray:
    """Distances of the pairs (t, t + offset), summed in coordinate order."""
    lead = points[offset:]
    lag = points[: points.shape[0] - offset]
    diff = lead[:, 0] - lag[:, 0]
    acc = diff * diff
    for k in range(1, points.shape[1]):
        diff = lead[:, k] - lag[:, k]
        acc = acc + diff * diff
    return np.sqrt(acc)


def oracle_pearson(x, y):
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx == 0.0 or vy == 0.0:
        return None
    return float(np.dot(xc, yc) / np.sqrt(vx * vy))


def _recurrence_row(counts, length):
    totals = length - np.arange(1, length)
    recurrent = counts > 0
    n_rec = int(np.count_nonzero(recurrent))
    probability = n_rec / (length - 1)
    if n_rec == 0:
        return [probability, None, None]
    strength = float(np.mean(counts[recurrent] / totals[recurrent]))
    return [probability, strength, int(np.count_nonzero(counts == totals)) / n_rec]


def _field(text):
    return None if text == "-" else float(text)


# -- run workloads -------------------------------------------------------


def check_run(gate, inputs, cfg, manifest, profiles, rng, reference=None, backends=False):
    """Gate one ``run_experiment`` result.

    ``profiles`` maps radius -> per-diagonal counts that the pipeline's
    recurrence passes returned on this run (empty for entropy-stats).
    ``backends`` also runs the numpy kernel against the active one.
    """
    workload = inputs.workload
    directory = Path(manifest.directory)
    try:
        manifest.verify()
        gate.check("manifest.verify", True)
    except (OSError, ValueError) as exc:
        gate.check("manifest.verify", False, str(exc))
    expected = RUN_OUTPUTS[workload]
    gate.check(
        "manifest.outputs",
        set(manifest.checksums) == expected,
        f"declared {sorted(manifest.checksums)}",
    )
    header, rows = read_csv(directory / "series.csv")
    table = np.array([[float(v) for v in row[1:]] for row in rows])
    times = np.array([int(row[0]) for row in rows])
    gate.exact("series.t", times, np.arange(cfg.samples) + cfg.transient + 1)
    states = oracle_states(cfg)

    if reference is not None:
        for name in sorted(expected):
            same = sha256(directory / name) == reference["sha256"][name]
            gate.info[f"bytes_identical.{name}"] = same
            if name in EXACT_FILES or (name == "series.csv" and workload == "recurrence-mf"):
                gate.check(f"reference.{name}", same, "" if same else "bytes differ")

    if workload == "entropy-stats":
        ent = table
        gate.check("series.columns", header == ["t", "entropy_0", "entropy_1"], str(header))
        picks = subsample(rng, cfg.samples, ENTROPY_ORACLE_ROWS)
        want = oracle_entropies(states[picks])
        gate.close("oracle.entropy_eigvalsh", ent[picks], want, ENTROPY_TOL)
        _, stat_rows = read_csv(directory / "entropy_stats.csv")
        stats = np.array([[float(v) for v in row[1:]] for row in stat_rows])
        minmax = np.stack([ent.min(0), ent.max(0)], axis=1)
        gate.exact("oracle.entropy_stats_minmax", stats[:, :2], minmax)
        gate.close("oracle.entropy_stats_mean", stats[:, 2], ent.mean(0), ENTROPY_TOL)
        if reference is not None:
            strided = ent[:: reference["series_stride"]]
            want = reference["series_values"]
            gate.close("reference.entropy_series", strided, want, ENTROPY_TOL)
            gate.close("reference.entropy_stats", stats, reference["entropy_stats"], ENTROPY_TOL)
        return

    mf = table
    gate.check("series.columns", header == ["t", "activity_0", "activity_1"], str(header))
    gate.exact("oracle.mean_field", mf, oracle_activity(states))
    _check_recurrence(gate, cfg, mf, profiles, directory, rng)
    if backends:
        check_backends(gate, cfg, mf, profiles)
    _, summary = read_csv(directory / "summary.csv")
    want = oracle_pearson(mf[:, 0], mf[:, 1])
    got = _field(summary[0][1])
    if want is None or got is None:
        gate.check("oracle.correlation", want is None and got is None, f"{got} vs {want}")
    else:
        gate.close("oracle.correlation", got, want, ENTROPY_TOL)
    if reference is not None:
        gate.close("reference.correlation", got, reference["correlation"], ENTROPY_TOL)
    _, spec_rows = read_csv(directory / "spectrum.csv")
    spec = np.array([[float(v) for v in row] for row in spec_rows])
    n_time = mf.shape[0]
    top = n_time // 2
    gate.exact("oracle.spectrum_freq", spec[:, 0], np.arange(1, top + 1) / n_time)
    for k in range(2):
        x = mf[:, k]
        power = np.abs(np.fft.rfft(x - x.mean())[1 : top + 1]) ** 2 / n_time
        scale = max(1.0, float(power.max()))
        gate.close(f"oracle.spectrum_{k}", spec[:, 1 + k], power, ENTROPY_TOL * scale)


def _check_recurrence(gate, cfg, mf, profiles, directory, rng):
    n_time = mf.shape[0]
    needed = list(cfg.recurrence_radii) + [cfg.line_gap_radius]
    missing = [r for r in needed if r not in profiles]
    if not gate.check("rqa.captured", not missing, f"no recurrence pass returned radii {missing}"):
        return
    offsets = 1 + subsample(rng, n_time - 1, DIAGONAL_ORACLE_OFFSETS)
    got = np.array([[profiles[r][d - 1] for d in offsets] for r in needed])
    want = np.empty_like(got)
    for j, d in enumerate(offsets):
        dist = oracle_distances(mf, d)
        for i, radius in enumerate(needed):
            want[i, j] = np.count_nonzero(dist <= radius)
    gate.exact("oracle.diagonal_counts", got, want)

    _, stat_rows = read_csv(directory / "recurrence_stats.csv")
    written = [[_field(v) for v in row] for row in stat_rows]
    recomputed = [
        [float(r)] + _recurrence_row(np.asarray(profiles[r]), n_time)
        for r in cfg.recurrence_radii
    ]
    gate.check("oracle.recurrence_stats", written == recomputed, "stats differ from counts")

    counts = np.asarray(profiles[cfg.line_gap_radius])
    offsets_all = np.arange(1, n_time)
    full = offsets_all[counts == n_time - offsets_all]
    gaps, freq = np.unique(np.diff(full), return_counts=True)
    _, gap_rows = read_csv(directory / "line_gaps.csv")
    total = int(freq.sum())
    want_rows = [
        [str(g), str(c), repr(100.0 * c / total)] for g, c in zip(gaps.tolist(), freq.tolist())
    ]
    gate.check("oracle.line_gaps", gap_rows == want_rows, "histogram differs from counts")

    image = read_pgm(directory / "recurrence_plot.pgm")
    window = mf[: cfg.plot_window]
    picks = subsample(rng, cfg.plot_window, PLOT_ORACLE_ROWS)
    diff = window[picks, None, 0] - window[None, :, 0]
    acc = diff * diff
    diff = window[picks, None, 1] - window[None, :, 1]
    acc = acc + diff * diff
    pixels = np.where(np.sqrt(acc) <= cfg.plot_radius, 0, 255).astype(np.uint8)
    gate.check("oracle.plot_shape", image.shape == (cfg.plot_window,) * 2, str(image.shape))
    if image.shape == (cfg.plot_window,) * 2:
        gate.exact("oracle.plot_pixels", image[picks], pixels)


def check_backends(gate, cfg, mf, profiles):
    """The numpy kernel must agree bit for bit with the active backend."""
    if KERNEL_BACKEND == "python":
        gate.info["rqa.backends_identical"] = "n/a"
        return
    from qnetdyn.rqa import _kernels_py

    radii = np.array(cfg.recurrence_radii, dtype=np.float64)
    counts = np.cumsum(_kernels_py.radius_bucket_counts(np.ascontiguousarray(mf), radii), axis=0)
    same = all(np.array_equal(counts[k], profiles[r]) for k, r in enumerate(cfg.recurrence_radii))
    gate.info["rqa.backends_identical"] = same
    gate.check("rqa.backends_identical", same, "numpy and compiled kernels differ")


# -- sweep workload ---------------------------------------------------------


def check_sweep(gate, inputs, cfg, path, rng, reference=None):
    header, rows = read_csv(path)
    want_header = ["r", "correlation"]
    for k in range(2):
        want_header += [f"entropy_min_{k}", f"entropy_max_{k}", f"entropy_mean_{k}"]
    want_header += [f"recurrence_probability_{radius:g}" for radius in inputs.radii]
    want_header += ["error"]
    gate.check("sweep.header", header == want_header, str(header))
    gate.check("sweep.rows", len(rows) == len(inputs.r_values), f"{len(rows)} rows")
    for i, row in enumerate(rows):
        gate.check(f"sweep.row{i}.error", row[-1] == "", row[-1])
    gate.check(
        "sweep.r",
        [row[0] for row in rows] == [repr(float(r)) for r in inputs.r_values],
        "r column differs from the grid",
    )
    if reference is not None:
        gate.info["bytes_identical.sweep.csv"] = sha256(path) == reference["sha256"]["sweep.csv"]
        ref_rows = reference["rows"]
        ok = len(ref_rows) == len(rows)
        for got, want in zip(rows, ref_rows):
            ok = ok and got[0] == want[0] and got[-3:] == want[-3:]
        gate.check("reference.sweep_exact_columns", ok, "r, recurrence or error columns differ")
        got = [[_field(v) for v in row[1:8]] for row in rows]
        want = [[_field(v) for v in row[1:8]] for row in ref_rows]
        _close_nullable(gate, "reference.sweep_float_columns", got, want)
    for i in subsample(rng, len(rows), SWEEP_ORACLE_ROWS):
        point = cfg.with_r(inputs.r_values[i])
        states = oracle_states(point)
        mf = oracle_activity(states)
        ent = oracle_entropies(states)
        want = [oracle_pearson(mf[:, 0], mf[:, 1])]
        for k in range(2):
            want += [ent[:, k].min(), ent[:, k].max(), ent[:, k].mean()]
        got = [_field(v) for v in rows[i][1:8]]
        _close_nullable(gate, f"oracle.sweep_row{i}", [got], [want])
        probs = []
        for radius in inputs.radii:
            hits = sum(
                1 for d in range(1, point.samples) if np.any(oracle_distances(mf, d) <= radius)
            )
            probs.append(hits / (point.samples - 1))
        got_probs = [float(v) for v in rows[i][8 : 8 + len(inputs.radii)]]
        detail = f"{got_probs} vs {probs}"
        gate.check(f"oracle.sweep_row{i}.recurrence", got_probs == probs, detail)


def _close_nullable(gate, name, got, want):
    """Compare rows that may hold '-' (None) with ENTROPY_TOL."""
    ok = len(got) == len(want)
    dev = 0.0
    for g_row, w_row in zip(got, want):
        for g, w in zip(g_row, w_row):
            if g is None or w is None:
                ok = ok and g is None and w is None
            else:
                dev = max(dev, abs(g - w))
    gate.check(name, ok and dev <= ENTROPY_TOL, f"max deviation {dev:.3g}")
