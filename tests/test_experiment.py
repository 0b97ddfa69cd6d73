"""Experiment runner and CLI tests on small deterministic runs."""

import csv
import dataclasses
import errno
import hashlib

import numpy as np
import pytest

from _closed_form import spectral_mean_field
from qnetdyn import experiment
from qnetdyn.cli import main
from qnetdyn.config import ConfigError, load_preset, parse_config
from qnetdyn.experiment import (
    run_experiment,
    run_sweep,
    write_line_gap_csv,
    write_pgm,
    write_recurrence_stats_csv,
    write_spectrum_csv,
)
from qnetdyn.linalg import DRIFT_TOL
from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory
from qnetdyn.rqa import LineDistanceHistogram, RecurrenceStats, _kernels_c
from qnetdyn.spectral import power_spectrum

FULL = """
[network]
r = 0.55

[initial]
state = plus-plus

[run]
transient = 3
samples = 60

[analyses]
observers = mean-field, entropy, raw-state
correlation = yes
stats = yes
spectrum = yes
recurrence_radii = 0, 0.05, 0.2
line_gap_radius = 0.2
recurrence_plot = yes
plot_radius = 0.2
plot_window = 32
"""

EXPECTED_FILES = {
    "series.csv",
    "state.csv",
    "summary.csv",
    "entropy_stats.csv",
    "recurrence_stats.csv",
    "line_gaps.csv",
    "spectrum.csv",
    "recurrence_plot.pgm",
}


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_full_run_outputs(tmp_path):
    cfg = parse_config(FULL)
    manifest = run_experiment(cfg, out_dir=tmp_path / "run")
    produced = {p.name for p in (tmp_path / "run").iterdir()}
    assert produced == EXPECTED_FILES | {"manifest.txt"}
    assert set(manifest.checksums) == EXPECTED_FILES
    manifest.verify()  # hashes still match what is on disk

    text = (tmp_path / "run" / "manifest.txt").read_text()
    assert "config.network.r = 0.55" in text
    assert "config.run.samples = 60" in text
    for name in EXPECTED_FILES:
        assert f"file.{name} = {manifest.checksums[name]}" in text


def test_series_time_base_and_values(tmp_path):
    cfg = parse_config(FULL)
    run_experiment(cfg, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "series.csv")
    assert header == ["t", "activity_0", "activity_1", "entropy_0", "entropy_1"]
    assert len(rows) == 60
    # sample i has undergone transient + 1 + i applications
    assert [int(r[0]) for r in rows[:3]] == [4, 5, 6]

    map_ = build_qrnn_map(QRNNParams(0.55))
    v = run_trajectory(map_, parse_config(FULL).initial_state, 4, 1, [np.copy])[0][0]
    from qnetdyn.fields import activity_mean_field

    expected = activity_mean_field(v)
    assert float(rows[0][1]) == pytest.approx(expected[0], abs=1e-15)
    assert float(rows[0][2]) == pytest.approx(expected[1], abs=1e-15)


@pytest.mark.parametrize("name", ["table3", "figure4b", "figure1"])
def test_series_matches_spectral_closed_form(tmp_path, name):
    # sample i is the state after transient + 1 + i applications, here
    # taken from the map's eigendecomposition instead of by iterating
    cfg = load_preset(name)
    run_experiment(cfg, out_dir=tmp_path)
    series = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)
    times = cfg.transient + 1 + np.arange(cfg.samples)
    matrix = build_qrnn_map(QRNNParams(cfg.r)).matrix
    expected = spectral_mean_field(matrix, cfg.initial_state, times)
    assert np.max(np.abs(series[:, 1:3] - expected)) < DRIFT_TOL
    assert np.array_equal(series[:, 0], times)
    # the bound resolves a shift of one step either way
    for shift in (-1, 1):
        shifted = spectral_mean_field(matrix, cfg.initial_state, times + shift)
        assert np.max(np.abs(series[:, 1:3] - shifted)) > 1e-4


def test_entropy_columns_share_one_schmidt_spectrum(tmp_path):
    # both reduced states of a pure two-neuron state have the same
    # spectrum, so the run computes one entropy per state from it and
    # writes it to both columns: they are bit-equal.  The run takes no
    # partial trace, so this cannot catch a wrong partial-trace axis;
    # tests/test_entropy.py checks the closed form against eigvalsh of
    # each neuron's partial trace.
    cfg = load_preset("table5")
    run_experiment(cfg, out_dir=tmp_path)
    series = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)
    assert series.shape == (cfg.samples, 3)
    assert np.array_equal(series[:, 1], series[:, 2])
    assert np.max(series[:, 1]) > 0.5  # the bound is not met by zeros alone


def test_state_csv_reconstructs_unit_vectors(tmp_path):
    cfg = parse_config(FULL)
    run_experiment(cfg, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "state.csv")
    assert header == ["t", "re_0", "im_0", "re_1", "im_1", "re_2", "im_2", "re_3", "im_3"]
    for row in rows:
        amps = np.array([float(row[1 + 2 * k]) + 1j * float(row[2 + 2 * k]) for k in range(4)])
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(FULL)
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    assert first.checksums == second.checksums
    for name in EXPECTED_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # manifests differ only in the wall-clock duration line
    diff = [
        (la, lb)
        for la, lb in zip(
            (tmp_path / "a" / "manifest.txt").read_text().splitlines(),
            (tmp_path / "b" / "manifest.txt").read_text().splitlines(),
        )
        if la != lb
    ]
    assert all(la.startswith("duration_seconds") for la, lb in diff)


def test_constant_series_correlation_dash(tmp_path):
    cfg = parse_config(FULL.replace("r = 0.55", "r = 0")).with_r(0.0)
    run_experiment(cfg, out_dir=tmp_path)
    _, rows = read_csv(tmp_path / "summary.csv")
    assert rows == [["correlation", "-"]]


def test_manifest_verify_detects_tamper(tmp_path):
    cfg = parse_config(FULL)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    target = tmp_path / "summary.csv"
    target.write_text(target.read_text() + "x")
    with pytest.raises(ValueError):
        manifest.verify()
    target.unlink()
    with pytest.raises(FileNotFoundError):
        manifest.verify()


def test_failed_run_creates_no_directory(tmp_path, monkeypatch):
    cfg = parse_config(FULL)
    # a map that holds a nan fails in the trajectory
    def nan_map(params):
        map_ = build_qrnn_map(params)
        matrix = map_.matrix.copy()
        matrix[0, 0] = np.nan
        return dataclasses.replace(map_, matrix=matrix)

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "build_qrnn_map", nan_map)
        with pytest.raises(RuntimeError, match="norm drifted by nan"):
            run_experiment(cfg, out_dir=tmp_path / "nan")
    assert not (tmp_path / "nan").exists()

    # an analysis that fails after the trajectory has been iterated
    def broken_spectrum(series):
        raise RuntimeError("spectrum unavailable")

    monkeypatch.setattr(experiment, "power_spectrum", broken_spectrum)
    with pytest.raises(RuntimeError, match="spectrum unavailable"):
        run_experiment(cfg, out_dir=tmp_path / "late")
    assert not (tmp_path / "late").exists()


@pytest.mark.parametrize(
    "observer, attribute, fake",
    [
        ("entropy", "entropy_observer", lambda: lambda block: np.full((len(block), 2), 1.5)),
        ("mean-field", "activity_mean_field", lambda v: np.full((len(v), 2), -0.5)),
    ],
)
def test_recorded_series_is_range_checked_without_a_reader(
    tmp_path, monkeypatch, observer, attribute, fake
):
    # no analysis reads the series: it would only go to series.csv
    cfg = parse_config(
        "[network]\nr = 0.55\n\n[initial]\nstate = plus-plus\n\n"
        f"[run]\ntransient = 3\nsamples = 40\n\n[analyses]\nobservers = {observer}\n"
    )
    monkeypatch.setattr(experiment, attribute, fake)
    with pytest.raises(ValueError, match="outside"):
        run_experiment(cfg, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()
    # a sweep row records the same failure
    path = run_sweep(cfg, [0.3], tmp_path / "sweep", workers=1)
    (row,) = list(csv.reader(path.read_text().splitlines()))[1:]
    assert row[-1].startswith("ValueError: ") and "outside [0, 1]" in row[-1]


def test_failed_write_leaves_no_partial_outputs(tmp_path, monkeypatch):
    cfg = parse_config(FULL)

    # the plot is written last, after every other data file
    def broken_pgm(path, image):
        raise OSError("disk full")

    monkeypatch.setattr(experiment, "write_pgm", broken_pgm)
    with pytest.raises(RuntimeError, match="recurrence_plot.pgm.*disk full"):
        run_experiment(cfg, out_dir=tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()
    # every directory level the run created goes, not only the innermost
    with pytest.raises(RuntimeError, match="disk full"):
        run_experiment(cfg, out_dir=tmp_path / "a" / "b" / "run")
    assert not (tmp_path / "a").exists()

    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept")
    with pytest.raises(RuntimeError, match="disk full"):
        run_experiment(cfg, out_dir=existing)
    assert [p.name for p in existing.iterdir()] == ["notes.txt"]
    assert (existing / "notes.txt").read_text() == "kept"

    # the manifest is the last file a run writes
    def broken_manifest(self, path):
        raise OSError("disk full")

    monkeypatch.undo()
    monkeypatch.setattr(experiment.RunManifest, "write", broken_manifest)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, out_dir=tmp_path / "no-manifest")
    assert not (tmp_path / "no-manifest").exists()

    # a sweep writes sweep.csv under the same rule
    def partial_csv(path, header, rows):
        path.write_text(",".join(header))
        raise OSError("disk full")

    monkeypatch.undo()
    monkeypatch.setattr(experiment, "_write_csv", partial_csv)
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    with pytest.raises(OSError, match="disk full"):
        run_sweep(base, [0.2, 0.6], tmp_path / "c" / "d" / "sweep")
    assert not (tmp_path / "c").exists()
    with pytest.raises(OSError, match="disk full"):
        run_sweep(base, [0.2, 0.6], existing)
    assert [p.name for p in existing.iterdir()] == ["notes.txt"]
    assert (existing / "notes.txt").read_text() == "kept"


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, monkeypatch):
    # a rerun into an earlier run's directory removes every file it began;
    # the manifest is begun first, so none is left naming removed files
    cfg = load_preset("figure3")
    run_experiment(cfg, out_dir=tmp_path)

    def broken_csv(path, header, rows):
        raise OSError("disk full")

    monkeypatch.setattr(experiment, "_write_csv", broken_csv)
    with pytest.raises(RuntimeError, match="entropy_stats.csv.*disk full"):
        run_experiment(cfg, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_failed_mkdir_removes_the_levels_it_made(tmp_path):
    # the third level's name is too long for the file system, so mkdir
    # fails after the first two levels exist
    out = tmp_path / "q" / "r" / ("y" * 300) / "s"
    cfg = parse_config(FULL)
    with pytest.raises(OSError) as run_error:
        run_experiment(cfg, out_dir=out)
    assert run_error.value.errno == errno.ENAMETOOLONG
    assert list(tmp_path.iterdir()) == []
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    with pytest.raises(OSError) as sweep_error:
        run_sweep(base, [0.2, 0.6], out)
    assert sweep_error.value.errno == errno.ENAMETOOLONG
    assert list(tmp_path.iterdir()) == []


def test_write_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
    path = tmp_path / "plot.pgm"
    digest = write_pgm(path, img)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    raw = path.read_bytes()
    header = b"P5\n13 9\n255\n"
    assert raw.startswith(header)
    body = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(9, 13)
    assert np.array_equal(body, img)
    with pytest.raises(ValueError):
        write_pgm(path, img.astype(np.int16))


def test_stats_csv_layout(tmp_path):
    path = tmp_path / "stats.csv"
    rows = [
        (0.0, RecurrenceStats(0.0, None, None)),
        (0.5, RecurrenceStats(0.25, 0.125, 0.5)),
    ]
    digest = write_recurrence_stats_csv(path, rows)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "radius,recurrence_probability,mean_recurrence_strength,"
        "conditional_full_recurrence_probability"
    )
    assert lines[1] == "0.0,0.0,-,-"
    assert lines[2] == "0.5,0.25,0.125,0.5"


def test_gap_csv_layout(tmp_path):
    path = tmp_path / "gaps.csv"
    digest = write_line_gap_csv(path, LineDistanceHistogram(4, {2: 1, 5: 2}))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    lines = path.read_text().splitlines()
    assert lines[0] == "distance,frequency,percent"
    assert lines[1].startswith("2,1,")
    assert lines[2].startswith("5,2,")
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert abs(total - 100.0) < 1e-9


def test_spectrum_csv_layout(tmp_path):
    rng = np.random.default_rng(9)
    x, y = rng.random(64), rng.random(64)
    pa, pb = power_spectrum(x), power_spectrum(y)
    path = tmp_path / "spec.csv"
    digest = write_spectrum_csv(path, [pa, pb])
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    lines = path.read_text().splitlines()
    assert lines[0] == "frequency,power_neuron0,power_neuron1"
    assert len(lines) == 1 + pa.frequencies.size
    first = lines[1].split(",")
    assert float(first[0]) == pa.frequencies[0]
    assert float(first[1]) == pa.power[0]
    # byte determinism of the writer
    path2 = tmp_path / "spec2.csv"
    write_spectrum_csv(path2, [pa, pb])
    assert path.read_bytes() == path2.read_bytes()
    with pytest.raises(ValueError):
        write_spectrum_csv(path, [])
    with pytest.raises(ValueError):
        write_spectrum_csv(path, [pa, power_spectrum(rng.random(100))])


# doubles whose repr takes each form: special values, a signed zero, the
# smallest subnormal, exponent notation at both ends and a rounded sum
PIN_VALUES = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, -1.5]


def test_column_formatter_matches_repr_value_for_value():
    for column in (np.array(PIN_VALUES), np.array(PIN_VALUES)[::-3], np.arange(-2, 3)):
        assert experiment._fmt_column(column) == [repr(x) for x in column.tolist()]
    for value in PIN_VALUES:
        assert experiment._fmt_column(np.array([value])) == [repr(value)]
    # repr([])[1:-1].split(", ") would give [""], one empty field
    assert experiment._fmt_column(np.array([])) == []


def test_column_writer_writes_the_bytes_of_the_csv_module(tmp_path):
    values = np.array(PIN_VALUES)
    for columns in (
        [np.arange(3, 3 + len(values)), values, values[::-1]],
        [np.arange(0), np.array([]), np.array([])],
    ):
        header = ["t", "a_0", "a_1"]
        fast = experiment._write_columns(tmp_path / "fast.csv", header, columns)
        rows = zip(*[map(repr, c.tolist()) for c in columns])
        slow = experiment._write_csv(tmp_path / "slow.csv", header, rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
        assert fast == slow == hashlib.sha256((tmp_path / "fast.csv").read_bytes()).hexdigest()


def test_sweep_rows_and_error_capture(tmp_path, monkeypatch):
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    path = run_sweep(base, [0.0, 0.3, 1.0], tmp_path, radii=(0.05, 0.2))
    header, rows = read_csv(path)
    assert header[:2] == ["r", "correlation"]
    assert header[-3:] == [
        "recurrence_probability_0.05",
        "recurrence_probability_0.2",
        "error",
    ]
    assert [r[0] for r in rows] == ["0.0", "0.3", "1.0"]
    assert rows[0][1] == "-"  # fixed point: constant series
    assert all(r[-1] == "" for r in rows)

    # each row holds the values that its run writes, string for string
    for row in rows:
        run_cfg = parse_config(
            f"[network]\nr = {row[0]}\n\n[initial]\nstate = plus-plus\n\n"
            "[run]\ntransient = 3\nsamples = 40\n\n[analyses]\n"
            "observers = mean-field, entropy\ncorrelation = yes\nstats = yes\n"
            "recurrence_radii = 0.05, 0.2\n"
        )
        run = tmp_path / f"run-{row[0]}"
        run_experiment(run_cfg, out_dir=run)
        (summary,) = read_csv(run / "summary.csv")[1]
        entropy = read_csv(run / "entropy_stats.csv")[1]
        recurrence = read_csv(run / "recurrence_stats.csv")[1]
        expected = [summary[1]] + [f for neuron in entropy for f in neuron[1:]]
        assert row[1:-1] == expected + [stats[1] for stats in recurrence]

    # a single-sample run cannot produce a correlation: no row runs
    broken = parse_config(
        "[network]\nr = 0.5\n\n[initial]\nstate = plus-plus\n\n"
        "[run]\ntransient = 2\nsamples = 1\n"
    )
    with pytest.raises(ConfigError, match="samples >= 2"):
        run_sweep(broken, [0.2, 0.4], tmp_path / "one", radii=(0.1,))
    assert not (tmp_path / "one").exists()

    # a row that fails records its error and the sweep keeps going
    calls = []
    correlation = experiment.pearson_correlation

    def fails_on_second_row(x, y):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        return correlation(x, y)

    monkeypatch.setattr(experiment, "pearson_correlation", fails_on_second_row)
    path = run_sweep(base, [0.2, 0.4, 0.6], tmp_path / "err", workers=1, radii=(0.1,))
    _, rows = read_csv(path)
    assert [r[0] for r in rows] == ["0.2", "0.4", "0.6"]
    assert rows[1][1:-1] == ["-"] * (len(rows[1]) - 2)
    assert rows[1][-1] == "ValueError: injected"
    assert rows[0][-1] == rows[2][-1] == ""


def test_sweep_rejects_radii_with_equal_column_labels(tmp_path):
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep(base, [0.5], tmp_path / "dup", radii=(0.1, 0.1000001))
    with pytest.raises(ValueError, match="at least one radius"):
        run_sweep(base, [0.5], tmp_path / "dup", radii=())
    assert not (tmp_path / "dup").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    serial = run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "s", workers=1)
    parallel = run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "p", workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_pool_capped_at_row_count(tmp_path, monkeypatch):
    pools = []

    class SerialPool:
        """Records the pool size and the kernel thread budget that its
        initializer sets, runs the initializer once as a worker would, and
        maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            assert initializer is _kernels_c.set_thread_budget
            (budget,) = initargs
            pools.append((max_workers, budget))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(_kernels_c, "_thread_budget", None)
    cpus = [8]
    monkeypatch.setattr(_kernels_c, "usable_cpus", lambda: cpus[0])
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    serial = run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "s", workers=1)
    assert pools == []
    capped = run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "p", workers=5000)
    # 8 CPUs over 3 workers: 2 kernel threads each
    assert pools == [(3, 2)]
    assert _kernels_c._thread_budget == 2
    assert capped.read_bytes() == serial.read_bytes()
    run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "two", workers=2)
    assert pools == [(3, 2), (2, 4)]
    # more workers than CPUs: each still gets one thread
    cpus[0] = 2
    run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "three", workers=3)
    assert pools == [(3, 2), (2, 4), (3, 1)]
    # one row runs without a pool
    run_sweep(base, [0.5], tmp_path / "one", workers=5000)
    assert len(pools) == 3


def test_cli_run_and_presets(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FULL)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "manifest.txt").exists()
    assert "manifest.txt" in capsys.readouterr().out

    assert main(["presets"]) == 0
    listed = capsys.readouterr().out.split()
    assert "figure1" in listed and "table6" in listed

    # exactly one of config path and preset name
    with pytest.raises(SystemExit):
        main(["run", str(cfg_path), "--preset", "figure1", "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["run"])


def test_cli_error_paths(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("[network]\nr = 7\n")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_radius_list_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FULL)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--radius-list", "0.01,0.3"]) == 0
    header, rows = read_csv(out / "recurrence_stats.csv")
    assert [r[0] for r in rows] == ["0.01", "0.3"]

    # override that needs an observer the config does not record
    lean = tmp_path / "lean.cfg"
    lean.write_text(
        "[network]\nr = 0.5\n\n[initial]\nstate = plus-plus\n\n"
        "[run]\ntransient = 2\nsamples = 16\n\n[analyses]\nobservers = entropy\n"
    )
    assert main(["run", str(lean), "--out", str(out), "--radius-list", "0.1"]) == 1
    # a radius the recurrence layer would refuse after iterating
    fresh = tmp_path / "fresh"
    assert main(["run", str(cfg_path), "--out", str(fresh), "--radius-list", "0.1,nan"]) == 1
    # the flag and the config key reject the same lists
    for raw in ("", "a", "0.2,0.1", "0.1,0.1", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="recurrence_radii"):
            parse_config(FULL.replace("0, 0.05, 0.2", raw))
        assert main(["run", str(cfg_path), "--out", str(fresh), f"--radius-list={raw}"]) == 1
    # an override the config's sample count cannot support
    one = tmp_path / "one.cfg"
    one.write_text(
        "[network]\nr = 0.5\n\n[initial]\nstate = plus-plus\n\n"
        "[run]\ntransient = 2\nsamples = 1\n\n[analyses]\nobservers = mean-field\n"
    )
    assert main(["run", str(one), "--out", str(tmp_path / "ok")]) == 0
    assert main(["run", str(one), "--out", str(fresh), "--radius-list", "0.1"]) == 1
    assert not fresh.exists()


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text(FULL.replace("samples = 60", "samples = 32"))
    out = tmp_path / "sw"
    rc = main(
        [
            "sweep", str(cfg_path),
            "--r-from", "0", "--r-to", "1", "--r-steps", "3",
            "--out", str(out), "--radius-list", "0.1,0.2",
        ]
    )
    assert rc == 0
    header, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["0.0", "0.5", "1.0"]
    with pytest.raises(SystemExit):
        main(["sweep", str(cfg_path), "--r-from", "0", "--r-to", "2", "--r-steps", "3"])
    # the shared radius-list parser, then the sweep's column-label check
    sweep = ["sweep", str(cfg_path), "--r-from", "0", "--r-to", "1", "--r-steps", "3"]
    for raw in ("nan", "0.1,0.1000001"):
        assert main(sweep + ["--out", str(tmp_path / "bad"), f"--radius-list={raw}"]) == 1
    assert not (tmp_path / "bad").exists()
    # a config no row can run on fails before any row runs
    cfg_path.write_text(FULL.split("[analyses]")[0].replace("samples = 60", "samples = 1"))
    assert main(sweep + ["--out", str(tmp_path / "one")]) == 1
    assert not (tmp_path / "one").exists()


def test_cli_refuses_an_empty_output_path(tmp_path, monkeypatch, capsys):
    # --out "" names the current directory; like [output] directory = ,
    # it is refused before any state is iterated, and nothing is written
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text(FULL.replace("samples = 60", "samples = 32"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    def iterate(*args):
        raise AssertionError("a state was iterated")

    monkeypatch.setattr(experiment, "run_trajectory", iterate)
    assert main(["run", "--preset", "figure1", "--out", ""]) == 1
    sweep = ["sweep", str(cfg_path), "--r-from", "0", "--r-to", "1", "--r-steps", "2"]
    assert main(sweep + ["--out", ""]) == 1
    assert capsys.readouterr().err.count("an output directory needs a name") == 2
    assert list(cwd.iterdir()) == []


def test_cli_sweep_keeps_the_base_radii_and_source(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text(
        FULL.replace("samples = 60", "samples = 32").replace(
            "recurrence_radii = 0, 0.05, 0.2",
            "recurrence_radii = 0.01, 0.05\nrecurrence_source = entropy",
        )
    )
    out = tmp_path / "sw"
    argv = ["sweep", str(cfg_path), "--r-from", "0.55", "--r-to", "0.55", "--r-steps", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    header, (row,) = read_csv(out / "sweep.csv")
    assert header[-3:] == ["recurrence_probability_0.01", "recurrence_probability_0.05", "error"]
    # the columns hold what a run of the base config writes
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    _, recurrence = read_csv(tmp_path / "run" / "recurrence_stats.csv")
    assert row[-3:-1] == [stats[1] for stats in recurrence]


@pytest.mark.parametrize(
    "r, accepted",
    [
        (-0.0, True),
        (1.0, True),
        (float(np.nextafter(1.0, 2.0)), False),
        (float("nan"), False),
    ],
    ids=repr,
)
def test_cli_sweep_r_edges_agree_with_qrnn_params(tmp_path, r, accepted):
    try:
        QRNNParams(r)
    except ValueError:
        assert not accepted
    else:
        assert accepted
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text(FULL.replace("samples = 60", "samples = 32"))
    out = tmp_path / "sw"
    for ends in ([f"--r-from={r!r}", "--r-to=0.5"], ["--r-from=0.5", f"--r-to={r!r}"]):
        argv = ["sweep", str(cfg_path), *ends, "--r-steps", "1", "--out", str(out)]
        if accepted:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert not out.exists()
