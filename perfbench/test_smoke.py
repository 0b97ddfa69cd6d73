"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WHY, make_inputs  # noqa: E402

run.load_package()

from gate import Gate, check_run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from qnetdyn.config import load_preset, parse_config  # noqa: E402
from qnetdyn.experiment import run_experiment  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WHY))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = []
    result = run.run_benchmark(
        workload, seed=3, seconds=0, trace=trace, tiny=True, out=lines.append
    )
    assert result["correct"], lines
    assert result["attempted"] > 0 and result["failed"] == 0
    assert json.loads(lines[-1]) == result
    report = "\n".join(lines[:-1])
    printed = run.END_TO_END + [("failed_frac", "frac")] + (PER_LAYER if trace else [])
    for name, unit in printed:
        pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
        assert re.search(pattern, report, re.MULTILINE), f"{name} [{unit}] not printed"
    chosen = PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(chosen)


def test_one_corrupted_byte_makes_failed_frac_positive(tmp_path):
    inputs = make_inputs("entropy-stats", 0, tiny=True)
    cfg = parse_config(inputs.config_text)
    manifest = run_experiment(cfg, out_dir=tmp_path / "run")
    clean = Gate()
    check_run(clean, inputs, cfg, manifest, {}, np.random.default_rng(0))
    assert clean.attempted > 0 and clean.failed == 0, clean.failures()

    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "run", copy)
    target = copy / "series.csv"
    data = bytearray(target.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # last digit of the last row
    target.write_bytes(bytes(data))
    gate = Gate()
    corrupted = dataclasses.replace(manifest, directory=copy)
    check_run(gate, inputs, cfg, corrupted, {}, np.random.default_rng(0))
    assert gate.failed / gate.attempted > 0
    assert "manifest.verify" in {name for name, ok, _ in gate.checks if not ok}


def test_seed_zero_inputs_are_the_bundled_presets():
    entropy = parse_config(make_inputs("entropy-stats", 0).config_text)
    assert entropy.echo_items() == load_preset("table5").echo_items()
    mf = parse_config(make_inputs("recurrence-mf", 0).config_text)
    assert mf.r == load_preset("table2").r
    assert mf.recurrence_radii == load_preset("table2").recurrence_radii
    assert mf.line_gap_radius == load_preset("table3").line_gap_radius
    figure5 = load_preset("figure5")
    assert (mf.plot_radius, mf.plot_window) == (figure5.plot_radius, figure5.plot_window)
    sweep = make_inputs("sweep-r", 0)
    assert sweep.r_values == tuple(np.linspace(0.0, 1.0, 21))
    other = make_inputs("sweep-r", 5)
    assert other.r_values[0] == 0.0 and other.r_values[-1] == 1.0
    assert other.r_values != sweep.r_values


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-r", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
