"""Configuration-driven runner: model to trajectory to analyses to files.

This module alone owns the output formats: the analysis modules return
values and the writers below turn them into bytes.  A run, and a sweep
of runs, has two phases.  Every analysis runs first, and the output
directory is created only when all of them have succeeded, so a failed
run leaves no directory behind.  If a write then fails, the files it
began are removed, and so is every directory level it created.
All numeric output uses repr() formatting (shortest round-trip
decimals) and LF line endings, so identical configs produce
byte-identical data files on the same machine.  Each file is written
in one call and hashed from its bytes; the manifest is written last and
lists every output with its SHA-256.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .entropy import check_entropy_range, entropy_observer, entropy_stats
from .fields import activity_mean_field, check_activity_bounds
from .network import QRNNParams, build_qrnn_map, run_trajectory
from .rqa import _kernels_c
from .rqa import (
    diagonal_profile,  # noqa: F401  unused; perfbench/layers.py wraps this attribute
    diagonal_profiles,
    full_recurrence_line_gaps,
    full_recurrence_offsets,
    pearson_correlation,
    recurrence_stats,
    render_recurrence_plot,
)
from .spectral import power_spectrum

__all__ = ["RunManifest", "run_experiment", "run_sweep"]

N_NEURONS = 2


@dataclass(frozen=True)
class RunManifest:
    """Run provenance: config echo, version, duration, output checksums."""

    version: str
    duration_seconds: float
    config_items: tuple
    checksums: dict
    directory: Path

    def write(self, path) -> None:
        lines = [f"version = {self.version}"]
        lines.append(f"duration_seconds = {self.duration_seconds!r}")
        for key, value in self.config_items:
            lines.append(f"config.{key} = {value}")
        for name in sorted(self.checksums):
            lines.append(f"file.{name} = {self.checksums[name]}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def verify(self) -> None:
        """Re-hash every declared output; raise on any mismatch."""
        for name, digest in self.checksums.items():
            target = self.directory / name
            if not target.exists():
                raise FileNotFoundError(f"declared output missing: {name}")
            if _sha256(target) != digest:
                raise ValueError(f"checksum mismatch for {name}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _fmt(x) -> str:
    """The number format: shortest round-trip repr, '-' for an absent value."""
    return "-" if x is None else repr(float(x))


def _fmt_column(column) -> list:
    """repr of every value of an int or float array, in one repr call."""
    text = repr(np.asarray(column).tolist())[1:-1]
    return text.split(", ") if text else []  # "".split(", ") is [""]


def _write_bytes(path, data: bytes) -> str:
    """Write ``data`` in one call; return the SHA-256 of those bytes."""
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_csv(path, header, rows) -> str:
    """Write a header and rows of formatted fields; return the SHA-256."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _write_bytes(path, buf.getvalue().encode())


def _write_columns(path, header, columns) -> str:
    """Write a header and equal-length int or float columns; return the
    SHA-256.  Each column is formatted in one call, and the bytes are
    those of ``_write_csv``: no header name or number needs quoting."""
    rows = zip(*map(_fmt_column, columns))
    lines = [",".join(header), *map(",".join, rows)]
    return _write_bytes(path, ("\n".join(lines) + "\n").encode())


def write_recurrence_stats_csv(path, rows) -> str:
    """Write (radius, RecurrenceStats) rows; absent statistics print as '-'."""
    header = [
        "radius",
        "recurrence_probability",
        "mean_recurrence_strength",
        "conditional_full_recurrence_probability",
    ]
    body = (
        [_fmt(radius)] + [_fmt(getattr(stats, name)) for name in header[1:]]
        for radius, stats in rows
    )
    return _write_csv(path, header, body)


def write_line_gap_csv(path, histogram) -> str:
    """Write a gap histogram with distance, frequency and percentage columns."""
    percentages = histogram.percentages()
    rows = (
        [str(gap), str(count), _fmt(percentages[gap])]
        for gap, count in histogram.frequencies.items()
    )
    return _write_csv(path, ["distance", "frequency", "percent"], rows)


def write_spectrum_csv(path, periodograms) -> str:
    """Write per-neuron spectra sharing one frequency grid as CSV columns."""
    periodograms = list(periodograms)
    if not periodograms:
        raise ValueError("need at least one periodogram")
    base = periodograms[0].frequencies
    for p in periodograms[1:]:
        if not np.array_equal(p.frequencies, base):
            raise ValueError("periodograms use different frequency grids")
    header = ["frequency"] + [f"power_neuron{k}" for k in range(len(periodograms))]
    return _write_columns(path, header, [base] + [p.power for p in periodograms])


def write_pgm(path, image) -> str:
    """Write an 8-bit grayscale image as a binary portable graymap."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("image must be a 2-D uint8 array")
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return _write_bytes(path, header + image.tobytes())


def sample_times(cfg: ExperimentConfig) -> range:
    """Map applications behind each recorded sample, in sample order.

    The configured transient counts dropped iterations, and each sample
    is the state after its own update step, so sample i has undergone
    ``transient + 1 + i`` applications.
    """
    return range(cfg.transient + 1, cfg.transient + 1 + cfg.samples)


def _observer(name: str):
    if name == "mean-field":
        return functools.partial(activity_mean_field, n=N_NEURONS)
    if name == "entropy":
        return entropy_observer(N_NEURONS)
    return np.copy  # raw-state


_CHECKS = {"mean-field": check_activity_bounds, "entropy": check_entropy_range}


def _collect(cfg: ExperimentConfig):
    """Run the trajectory once, recording every requested observer.

    Each mean-field and entropy series is range-checked here, once,
    whether or not an analysis reads it.
    """
    map_ = build_qrnn_map(QRNNParams(cfg.r))
    times = sample_times(cfg)
    observers = [_observer(name) for name in cfg.observers]
    recorded = run_trajectory(map_, cfg.initial_state, times.start, len(times), observers)
    return {
        name: _CHECKS[name](series) if name in _CHECKS else series
        for name, series in zip(cfg.observers, recorded)
    }


def _analyses(cfg: ExperimentConfig):
    """Run the trajectory and every requested analysis.

    Returns one ``(file name, writer, *writer arguments)`` tuple per
    output; the writers only format and write.
    """
    data = _collect(cfg)
    times = sample_times(cfg)
    header = ["t"]
    columns = [times]
    for observer, label in (("mean-field", "activity"), ("entropy", "entropy")):
        if observer in data:
            header += [f"{label}_{k}" for k in range(N_NEURONS)]
            columns += [data[observer][:, k] for k in range(N_NEURONS)]
    outputs = [("series.csv", _write_columns, header, columns)]

    if "raw-state" in data:
        states = data["raw-state"]
        header = ["t"]
        columns = [times]
        for k in range(states.shape[1]):
            header += [f"re_{k}", f"im_{k}"]
            columns += [states[:, k].real, states[:, k].imag]
        outputs.append(("state.csv", _write_columns, header, columns))

    if cfg.correlation:
        mf = data["mean-field"]
        corr = pearson_correlation(mf[:, 0], mf[:, 1])
        outputs.append(
            ("summary.csv", _write_csv, ["key", "value"], [["correlation", _fmt(corr)]])
        )

    if cfg.stats:
        stats = entropy_stats(data["entropy"])
        neurons = zip(*map(_fmt_column, (stats.minimum, stats.maximum, stats.mean)))
        rows = [[str(k), *fields] for k, fields in enumerate(neurons)]
        outputs.append(("entropy_stats.csv", _write_csv, ["neuron", "min", "max", "mean"], rows))

    if cfg.recurrence_radii:
        profiles = diagonal_profiles(data[cfg.recurrence_source], cfg.recurrence_radii)
        stats_rows = [
            (radius, recurrence_stats(profile))
            for radius, profile in zip(cfg.recurrence_radii, profiles)
        ]
        outputs.append(("recurrence_stats.csv", write_recurrence_stats_csv, stats_rows))

    if cfg.line_gap_radius is not None:
        offsets = full_recurrence_offsets(data[cfg.line_gap_source], cfg.line_gap_radius)
        gaps = full_recurrence_line_gaps(offsets)
        outputs.append(("line_gaps.csv", write_line_gap_csv, gaps))

    if cfg.spectrum:
        pts = data[cfg.spectrum_source]
        spectra = [power_spectrum(pts[:, k]) for k in range(N_NEURONS)]
        outputs.append(("spectrum.csv", write_spectrum_csv, spectra))

    if cfg.recurrence_plot:
        image = render_recurrence_plot(data[cfg.plot_source], cfg.plot_radius, 0, cfg.plot_window)
        outputs.append(("recurrence_plot.pgm", write_pgm, image))
    return outputs


@contextlib.contextmanager
def _output_directory(directory: Path):
    """Create ``directory`` and yield the list of paths begun in it.

    If creating it or the body raises, every begun path is removed, and
    so is every directory level created here.
    """
    created, begun = [], []
    try:
        # outermost first, one level at a time: a failure knows what it made
        for level in (*reversed(directory.parents), directory):
            if not level.is_dir():
                level.mkdir()
                created.append(level)
        yield begun
    except BaseException:
        for path in begun:
            path.unlink(missing_ok=True)
        for level in reversed(created):
            level.rmdir()
        raise


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute one configured run; write its outputs once every analysis succeeded."""
    t0 = time.perf_counter()
    outputs = _analyses(cfg)
    directory = Path(out_dir if out_dir is not None else (cfg.out_directory or "out"))
    checksums = {}
    with _output_directory(directory) as begun:
        for name, writer, *args in outputs:
            path = directory / name
            begun.append(path)
            try:
                checksums[name] = writer(path, *args)
            except Exception as exc:
                raise RuntimeError(f"stage {name!r} failed: {exc}") from exc
        manifest = RunManifest(
            version=__version__,
            duration_seconds=time.perf_counter() - t0,
            config_items=tuple(cfg.echo_items()),
            checksums=checksums,
            directory=directory,
        )
        path = directory / "manifest.txt"
        begun.append(path)
        manifest.write(path)
    manifest.verify()
    return manifest


def _sweep_row(args):
    """One sweep point: the fields its run writes to summary.csv,
    entropy_stats.csv and recurrence_stats.csv, and an error string."""
    cfg, r = args
    try:
        # each output's last writer argument holds its rows
        rows = {name: last for name, *_, last in _analyses(cfg.with_r(r))}
        fields = [_fmt(r), rows["summary.csv"][0][1]]
        fields += [field for neuron in rows["entropy_stats.csv"] for field in neuron[1:]]
        fields += [_fmt(stats.recurrence_probability) for _, stats in rows["recurrence_stats.csv"]]
        return fields, ""
    except Exception as exc:  # record the failure, keep sweeping
        return [_fmt(r)], f"{type(exc).__name__}: {exc}"


def run_sweep(base: ExperimentConfig, r_values, out_dir, workers=1, radii=None) -> Path:
    """Run one row per r value and write a summary CSV.

    Each row reads the base config's initial state, transient, sample
    count and recurrence source.  Its recurrence probability columns
    come from ``radii``, else from the base's ``recurrence_radii``, else
    from the one radius 0.1.  Rows appear in r_values order regardless
    of completion order; a failing row records its error and does not
    stop the sweep.  A base config or radii that no row could run on
    raise before any row runs.
    """
    if radii is None:
        radii = base.recurrence_radii or (0.1,)
    row_cfg = ExperimentConfig(
        r=base.r,
        initial_label=base.initial_label,
        transient=base.transient,
        samples=base.samples,
        observers=("mean-field", "entropy"),
        correlation=True,
        stats=True,
        recurrence_radii=tuple(radii),
        recurrence_source=base.recurrence_source,
    )
    if not row_cfg.recurrence_radii:
        raise ValueError("a sweep needs at least one radius")
    labels = [f"recurrence_probability_{radius:g}" for radius in radii]
    if len(set(labels)) != len(labels):
        raise ValueError(f"radii {radii} give duplicate sweep.csv column labels")
    jobs = [(row_cfg, float(r)) for r in r_values]
    # a fork pool starts all max_workers processes up front
    workers = min(workers, len(jobs))
    if workers > 1:
        # the workers' recurrence kernels share the CPUs: one thread per CPU in all
        threads = max(1, _kernels_c.usable_cpus() // workers)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_kernels_c.set_thread_budget,
            initargs=(threads,),
        ) as pool:
            results = list(pool.map(_sweep_row, jobs))
    else:
        results = [_sweep_row(job) for job in jobs]
    header = ["r", "correlation"]
    for k in range(N_NEURONS):
        header += [f"entropy_min_{k}", f"entropy_max_{k}", f"entropy_mean_{k}"]
    header += labels + ["error"]
    # a failed row holds only r; '-' fills it up to the error column
    rows = [fields + ["-"] * (len(header) - len(fields) - 1) + [error] for fields, error in results]
    path = Path(out_dir) / "sweep.csv"
    with _output_directory(path.parent) as begun:
        begun.append(path)
        _write_csv(path, header, rows)
    return path
