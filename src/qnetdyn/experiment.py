"""Configuration-driven runner: model to trajectory to analyses to files.

One experiment is a single deterministic pipeline.  All numeric output
uses repr() formatting (shortest round-trip decimals) and LF line
endings, so identical configs produce byte-identical data files.  The
manifest is written last and lists every output with its SHA-256.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .entropy import EntropyTrajectory, entropy_observer
from .fields import MeanFieldTrajectory, activity_mean_field
from .network import QRNNParams, build_qrnn_map, run_trajectory
from .rqa import (
    diagonal_profile,
    diagonal_profiles,
    full_recurrence_line_gaps,
    pearson_correlation,
    recurrence_stats,
    render_recurrence_plot,
    write_line_gap_csv,
    write_pgm,
    write_recurrence_stats_csv,
)
from .spectral import power_spectrum, write_spectrum_csv

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


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


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


def _collect(cfg: ExperimentConfig):
    """Run the trajectory once, recording every requested observer."""
    map_ = build_qrnn_map(QRNNParams(cfg.r))
    times = sample_times(cfg)
    observers = [_observer(name) for name in cfg.observers]
    recorded = run_trajectory(map_, cfg.initial_state, times.start, len(times), observers)
    return dict(zip(cfg.observers, recorded))


def _source_points(cfg, data, source):
    if source == "mean-field":
        return MeanFieldTrajectory(data["mean-field"]).validate_activity_bounds().points
    return EntropyTrajectory(data["entropy"]).validate_range().series


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute one configured run and write all requested outputs."""
    t0 = time.perf_counter()
    directory = Path(out_dir if out_dir is not None else (cfg.out_directory or "out"))
    directory.mkdir(parents=True, exist_ok=True)
    data = _collect(cfg)
    times = sample_times(cfg)
    written = []

    def emit(name, writer, *args):
        try:
            writer(directory / name, *args)
        except Exception as exc:
            raise RuntimeError(f"stage {name!r} failed: {exc}") from exc
        written.append(name)

    header = ["t"]
    columns = [times]
    if "mean-field" in data:
        header += [f"activity_{k}" for k in range(N_NEURONS)]
        columns += [data["mean-field"][:, k] for k in range(N_NEURONS)]
    if "entropy" in data:
        header += [f"entropy_{k}" for k in range(N_NEURONS)]
        columns += [data["entropy"][:, k] for k in range(N_NEURONS)]
    rows = (
        [str(int(cols[0]))] + [_fmt(c) for c in cols[1:]]
        for cols in zip(*columns)
    )
    emit("series.csv", _write_csv, header, rows)

    if "raw-state" in data:
        states = data["raw-state"]
        header = ["t"]
        for k in range(states.shape[1]):
            header += [f"re_{k}", f"im_{k}"]
        rows = (
            [str(int(t))]
            + [part for a in row for part in (_fmt(a.real), _fmt(a.imag))]
            for t, row in zip(times, states)
        )
        emit("state.csv", _write_csv, header, rows)

    if cfg.correlation:
        mf = data["mean-field"]
        corr = pearson_correlation(mf[:, 0], mf[:, 1])
        value = "-" if corr is None else _fmt(corr)
        emit("summary.csv", _write_csv, ["key", "value"], [["correlation", value]])

    if cfg.stats:
        ent = data["entropy"]
        rows = [
            [str(k), _fmt(ent[:, k].min()), _fmt(ent[:, k].max()), _fmt(ent[:, k].mean())]
            for k in range(N_NEURONS)
        ]
        emit("entropy_stats.csv", _write_csv, ["neuron", "min", "max", "mean"], rows)

    if cfg.recurrence_radii:
        pts = _source_points(cfg, data, cfg.recurrence_source)
        profiles = diagonal_profiles(pts, cfg.recurrence_radii)
        stats_rows = [
            (radius, recurrence_stats(profile))
            for radius, profile in zip(cfg.recurrence_radii, profiles)
        ]
        emit("recurrence_stats.csv", write_recurrence_stats_csv, stats_rows)

    if cfg.line_gap_radius is not None:
        pts = _source_points(cfg, data, cfg.line_gap_source)
        profile = diagonal_profile(pts, cfg.line_gap_radius)
        emit("line_gaps.csv", write_line_gap_csv, full_recurrence_line_gaps(profile))

    if cfg.spectrum:
        pts = _source_points(cfg, data, cfg.spectrum_source)
        spectra = [power_spectrum(pts[:, k]) for k in range(N_NEURONS)]
        emit("spectrum.csv", write_spectrum_csv, spectra)

    if cfg.recurrence_plot:
        pts = _source_points(cfg, data, cfg.plot_source)
        image = render_recurrence_plot(pts, cfg.plot_radius, 0, cfg.plot_window)
        emit("recurrence_plot.pgm", write_pgm, image)

    checksums = {name: _sha256(directory / name) for name in written}
    manifest = RunManifest(
        version=__version__,
        duration_seconds=time.perf_counter() - t0,
        config_items=tuple(cfg.echo_items()),
        checksums=checksums,
        directory=directory,
    )
    manifest.write(directory / "manifest.txt")
    manifest.verify()
    return manifest


def _sweep_row(args):
    """One sweep point; returns a flat list of formatted CSV fields."""
    cfg, r, radii = args
    try:
        point = cfg.with_r(r)
        data = _collect(point)
        mf = data["mean-field"]
        ent = data["entropy"]
        corr = pearson_correlation(mf[:, 0], mf[:, 1])
        fields = ["-" if corr is None else _fmt(corr)]
        for k in range(N_NEURONS):
            fields += [_fmt(ent[:, k].min()), _fmt(ent[:, k].max()), _fmt(ent[:, k].mean())]
        profiles = diagonal_profiles(mf, radii)
        for profile in profiles:
            fields.append(_fmt(recurrence_stats(profile).recurrence_probability))
        return [_fmt(r)] + fields + [""]
    except Exception as exc:  # record the failure, keep sweeping
        blank = ["-"] * (1 + 3 * N_NEURONS + len(radii))
        return [_fmt(r)] + blank + [f"{type(exc).__name__}: {exc}"]


def run_sweep(base: ExperimentConfig, r_values, out_dir, workers=1, radii=(0.1,)) -> Path:
    """Run one row per r value and write a summary CSV.

    Rows appear in r_values order regardless of completion order; a
    failing row records its error and does not stop the sweep.
    """
    radii = tuple(float(v) for v in radii)
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be a nonempty ascending sequence")
    minimal = ExperimentConfig(
        r=base.r,
        initial_label=base.initial_label,
        initial_state=base.initial_state,
        transient=base.transient,
        samples=base.samples,
        observers=("mean-field", "entropy"),
    )
    jobs = [(minimal, float(r), radii) for r in r_values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    header = ["r", "correlation"]
    for k in range(N_NEURONS):
        header += [f"entropy_min_{k}", f"entropy_max_{k}", f"entropy_mean_{k}"]
    header += [f"recurrence_probability_{radius:g}" for radius in radii]
    header += ["error"]
    path = directory / "sweep.csv"
    _write_csv(path, header, rows)
    return path
