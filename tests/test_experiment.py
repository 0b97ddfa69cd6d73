"""Experiment runner and CLI tests on small deterministic runs."""

import numpy as np
import pytest

from qnetdyn.cli import main
from qnetdyn.config import parse_config
from qnetdyn.experiment import run_experiment, run_sweep
from qnetdyn.network import QRNNParams, build_qrnn_map, iterate

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
    v = iterate(map_, parse_config(FULL).initial_state, 4)
    from qnetdyn.fields import activity_mean_field

    expected = activity_mean_field(v, 2)
    assert float(rows[0][1]) == pytest.approx(expected[0], abs=1e-15)
    assert float(rows[0][2]) == pytest.approx(expected[1], abs=1e-15)


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


def test_sweep_rows_and_error_capture(tmp_path):
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

    # a single-sample run cannot produce a correlation; the row records
    # the failure and the sweep keeps going
    broken = parse_config(
        "[network]\nr = 0.5\n\n[initial]\nstate = plus-plus\n\n"
        "[run]\ntransient = 2\nsamples = 1\n"
    )
    path = run_sweep(broken, [0.2, 0.4], tmp_path / "err", radii=(0.1,))
    _, rows = read_csv(path)
    assert len(rows) == 2
    assert all("ValueError" in r[-1] for r in rows)
    assert all(r[1] == "-" for r in rows)


def test_sweep_parallel_matches_serial(tmp_path):
    base = parse_config(FULL.replace("samples = 60", "samples = 40"))
    serial = run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "s", workers=1)
    parallel = run_sweep(base, [0.1, 0.5, 0.9], tmp_path / "p", workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


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
