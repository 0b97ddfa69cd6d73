"""Config grammar and preset tests."""

import math

import numpy as np
import pytest

from qnetdyn.cli import main
from qnetdyn.config import (
    ConfigError,
    ExperimentConfig,
    initial_state_vector,
    load_preset,
    parse_config,
    parse_radius_list,
    preset_names,
)
from qnetdyn.linalg import as_state
from qnetdyn.network import QRNNParams
from qnetdyn.rqa import check_radii

MINIMAL = """
[network]
r = 0.25

[initial]
state = plus-plus

[run]
transient = 5
samples = 10
"""


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.r == 0.25
    assert cfg.topology == "qrnn"
    assert cfg.transient == 5
    assert cfg.samples == 10
    assert cfg.observers == ()
    assert not cfg.correlation and not cfg.stats and not cfg.spectrum
    assert np.allclose(cfg.initial_state, 0.5)


def test_inline_comments_and_booleans():
    cfg = parse_config(
        MINIMAL
        + """
[analyses]
observers = mean-field, entropy  # record both
correlation = yes
stats = true
"""
    )
    assert cfg.observers == ("mean-field", "entropy")
    assert cfg.correlation and cfg.stats


def test_initial_state_forms():
    assert np.array_equal(initial_state_vector("basis:01"), [0, 1, 0, 0])
    assert np.array_equal(initial_state_vector("basis:10"), [0, 0, 1, 0])
    plus = initial_state_vector("plus-plus")
    assert np.allclose(plus, [0.5, 0.5, 0.5, 0.5])
    v = initial_state_vector("amplitudes: 0.6, 0, 0, 0.8j")
    assert np.allclose(v, [0.6, 0, 0, 0.8j])
    with pytest.raises(ConfigError):
        initial_state_vector("amplitudes: 1, 1, 0, 0")  # not normalized
    for label in ("amplitudes:nan,0,0,0", "amplitudes:1,0,0,nan", "amplitudes:1,0,0,nanj"):
        with pytest.raises(ConfigError):
            initial_state_vector(label)  # a nan norm is not "off by more than 1e-10"
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("plus-plus", label))
    with pytest.raises(ConfigError):
        initial_state_vector("amplitudes: 1, 0, 0")
    with pytest.raises(ConfigError):
        initial_state_vector("basis:012")
    with pytest.raises(ConfigError):
        initial_state_vector("basis:02")
    with pytest.raises(ConfigError):
        initial_state_vector("bell")


def test_r_domain():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("r = 0.25", "r = 1.5"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("r = 0.25", "r = -0.1"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("r = 0.25", "r = spam"))


def test_unknown_keys_are_errors():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[network2]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("r = 0.25", "r = 0.25\nradius = 3"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[analyses]\nobservers = mean-field\nspectrm = yes\n")


def test_missing_required():
    with pytest.raises(ConfigError):
        parse_config("[network]\nr = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("transient = 5\n", ""))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("samples = 10", "samples = 0"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("transient = 5", "transient = -1"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("state = plus-plus", ""))


def test_analyses_need_their_observers():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[analyses]\nobservers = entropy\ncorrelation = yes\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[analyses]\nobservers = mean-field\nstats = yes\n")
    with pytest.raises(ConfigError):
        parse_config(
            MINIMAL + "\n[analyses]\nobservers = mean-field\nspectrum = yes\n"
        )  # spectrum_source defaults to entropy
    with pytest.raises(ConfigError):
        parse_config(
            MINIMAL
            + "\n[analyses]\nobservers = entropy\nline_gap_radius = 0.1\n"
        )  # source defaults to mean-field


def test_plot_validation():
    base = MINIMAL + "\n[analyses]\nobservers = mean-field\nrecurrence_plot = yes\n"
    with pytest.raises(ConfigError):
        parse_config(base)  # no plot_radius
    cfg = parse_config(base + "plot_radius = 0.1\nplot_window = 8\n")
    assert cfg.plot_radius == 0.1 and cfg.plot_window == 8
    with pytest.raises(ConfigError):
        parse_config(base + "plot_radius = 0.1\nplot_window = 50\n")  # > samples


ANALYSES = MINIMAL + "\n[analyses]\nobservers = mean-field, entropy\n"


@pytest.mark.parametrize(
    "samples, analyses",
    [
        (600, "recurrence_plot = yes\nplot_radius = -1\n"),
        (10, "line_gap_radius = nan\n"),
        (10, "recurrence_radii = 0.01, nan\n"),
        (15, "spectrum = yes\n"),
        (1, "correlation = yes\n"),
        (10, "plot_radius = inf\n"),
        (10, "recurrence_radii = 0.01, inf\n"),
        (1, "recurrence_radii = 0.01\n"),
        (1, "line_gap_radius = 0.1\n"),
    ],
    ids=[
        "negative-plot-radius",
        "nan-line-gap-radius",
        "nan-in-recurrence-radii",
        "spectrum-under-16-samples",
        "correlation-on-one-sample",
        "infinite-plot-radius",
        "infinite-recurrence-radius",
        "recurrence-on-one-sample",
        "line-gaps-on-one-sample",
    ],
)
def test_rejects_configs_that_would_fail_after_iterating(samples, analyses):
    text = ANALYSES.replace("samples = 10", f"samples = {samples}") + analyses
    with pytest.raises(ConfigError):
        parse_config(text)


def test_smallest_accepted_analysis_inputs():
    assert parse_config(ANALYSES.replace("samples = 10", "samples = 16") + "spectrum = yes\n")
    two = ANALYSES.replace("samples = 10", "samples = 2")
    assert parse_config(two + "correlation = yes\nrecurrence_radii = 0\nline_gap_radius = 0\n")


def test_radii_must_ascend():
    good = MINIMAL + "\n[analyses]\nobservers = mean-field\nrecurrence_radii = 0, 0.01, 0.1\n"
    assert parse_config(good).recurrence_radii == (0.0, 0.01, 0.1)
    assert parse_radius_list(" 0,0.01, 0.1 ", "label") == (0.0, 0.01, 0.1)
    with pytest.raises(ConfigError):
        parse_config(good.replace("0, 0.01, 0.1", "0.1, 0.01"))
    with pytest.raises(ConfigError):
        parse_config(good.replace("0, 0.01, 0.1", "-0.1, 0.01"))
    # the grammar qnetdyn run --radius-list shares (tests/test_experiment.py)
    for raw in ("", "a", "0.2,0.1", "0.1,0.1", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="^label: "):
            parse_radius_list(raw, "label")
        with pytest.raises(ConfigError, match="recurrence_radii"):
            parse_config(good.replace("0, 0.01, 0.1", raw))


def _accepts(check, *args):
    try:
        check(*args)
    except ValueError:  # ConfigError included
        return False
    return True


# linalg.norm gives 0.9999999999, off 1 by 1.00000008e-10 (np.linalg.norm
# gives 0.9999999999000001, within 1e-10); the second list is the first
# scaled by 1 + 2**-52, with norm 0.9999999999000003
NORM_EDGE_STATE = (
    "amplitudes:-0.0899601024609083+0.0611798600949304j,"
    "0.010829608027385862-0.47190751935864617j,"
    "-0.49806032203275824+0.45299185851788665j,"
    "0.22977647958524816+0.5092025907330756j"
)
NORM_INSIDE_STATE = (
    "amplitudes:-0.08996010246090831+0.06117986009493041j,"
    "0.010829608027385864-0.4719075193586463j,"
    "-0.49806032203275835+0.45299185851788676j,"
    "0.22977647958524822+0.5092025907330757j"
)


@pytest.mark.parametrize(
    "r, accepted",
    [
        (0.0, True),
        (1.0, True),
        (-0.0, True),
        (float(np.nextafter(1.0, 2.0)), False),
        (float(np.nextafter(0.0, -1.0)), False),
        (math.nan, False),
    ],
    ids=repr,
)
def test_r_edges_agree_with_qrnn_params(r, accepted):
    assert _accepts(QRNNParams, r) == accepted
    assert _accepts(parse_config, MINIMAL.replace("r = 0.25", f"r = {r!r}")) == accepted


@pytest.mark.parametrize(
    "radius, accepted",
    [
        (0.0, True),
        (-0.0, True),
        (5e-324, True),
        (float(np.nextafter(0.0, -1.0)), False),
        (math.inf, False),
        (math.nan, False),
    ],
    ids=repr,
)
def test_radius_edges_agree_with_check_radii(radius, accepted):
    assert _accepts(check_radii, [radius]) == accepted
    for key in ("line_gap_radius", "plot_radius", "recurrence_radii"):
        assert _accepts(parse_config, ANALYSES + f"{key} = {radius!r}\n") == accepted, key
    assert _accepts(parse_radius_list, repr(radius), "label") == accepted


@pytest.mark.parametrize(
    "label, accepted",
    [(NORM_EDGE_STATE, False), (NORM_INSIDE_STATE, True)],
    ids=["norm-edge", "norm-inside"],
)
def test_state_edge_agrees_with_as_state(label, accepted):
    amplitudes = [complex(a) for a in label[len("amplitudes:"):].split(",")]
    assert _accepts(as_state, amplitudes) == accepted
    assert _accepts(initial_state_vector, label) == accepted
    assert _accepts(parse_config, MINIMAL.replace("plus-plus", label)) == accepted


def test_sweep_rejects_a_state_that_runs_reject(tmp_path):
    cfg_path = tmp_path / "edge.cfg"
    cfg_path.write_text(MINIMAL.replace("plus-plus", NORM_EDGE_STATE))
    out = tmp_path / "sweep"
    argv = ["sweep", str(cfg_path), "--r-from", "0", "--r-to", "1", "--r-steps", "2"]
    assert main(argv + ["--out", str(out)]) == 1
    assert not (out / "sweep.csv").exists()


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("samples = 10", "samples = 10\nsamples = 20"))


def test_preset_inventory():
    names = preset_names()
    assert names == sorted(names)
    expected = {
        "figure1", "figure2a", "figure2b", "figure2c", "figure3", "figure4a",
        "figure4b", "figure5", "figure6", "figure7",
        "table1", "table2", "table3", "table4", "table5", "table6",
    }
    assert set(names) == expected
    for name in names:
        cfg = load_preset(name)
        assert isinstance(cfg, ExperimentConfig)
    with pytest.raises(ConfigError):
        load_preset("figure99")


def test_preset_parameters():
    cfg = load_preset("figure1")
    assert cfg.r == 0.0005
    assert cfg.initial_label == "plus-plus"
    assert cfg.transient == 10000 and cfg.samples == 20000
    assert cfg.correlation
    cfg = load_preset("figure2a")
    assert np.array_equal(cfg.initial_state, [0, 1, 0, 0])
    cfg = load_preset("table2")
    assert cfg.r == 0.550129597
    assert cfg.recurrence_radii[0] == 0.0 and cfg.recurrence_radii[-1] == 0.1
    assert len(cfg.recurrence_radii) == 12
    cfg = load_preset("table4")
    assert cfg.line_gap_radius == 0.1 and cfg.line_gap_source == "entropy"
    cfg = load_preset("table6")
    assert cfg.r == 0.999 and cfg.samples == 30000 and cfg.stats


def test_echo_items_roundtrip():
    cfg = parse_config(MINIMAL + "\n[analyses]\nobservers = mean-field\ncorrelation = yes\n")
    items = dict(cfg.echo_items())
    assert items["network.r"] == "0.25"
    assert items["initial.state"] == "plus-plus"
    assert items["analyses.correlation"] == "true"
    assert "initial.amplitudes" in items

    every_key = """
[network]
topology = qrnn
r = 0.55

[initial]
state = amplitudes: 0.6, 0, 0, 0.8j

[run]
transient = 3
samples = 60

[analyses]
observers = mean-field, entropy, raw-state
correlation = yes
stats = yes
spectrum = yes
spectrum_source = mean-field
recurrence_radii = 0, 0.05, 0.1
recurrence_source = entropy
line_gap_radius = 0.1
line_gap_source = entropy
recurrence_plot = yes
plot_radius = 0.2
plot_window = 8
plot_source = entropy

[output]
directory = out/every
"""
    assert parse_config(every_key).echo_items() == [
        ("network.topology", "qrnn"),
        ("network.r", "0.55"),
        ("initial.state", "amplitudes: 0.6, 0, 0, 0.8j"),
        ("initial.amplitudes", "(0.6+0j), 0j, 0j, 0.8j"),
        ("run.transient", "3"),
        ("run.samples", "60"),
        ("analyses.observers", "mean-field, entropy, raw-state"),
        ("analyses.correlation", "true"),
        ("analyses.stats", "true"),
        ("analyses.spectrum", "true"),
        ("analyses.spectrum_source", "mean-field"),
        ("analyses.recurrence_radii", "0.0, 0.05, 0.1"),
        ("analyses.recurrence_source", "entropy"),
        ("analyses.line_gap_radius", "0.1"),
        ("analyses.line_gap_source", "entropy"),
        ("analyses.recurrence_plot", "true"),
        ("analyses.plot_radius", "0.2"),
        ("analyses.plot_window", "8"),
        ("analyses.plot_source", "entropy"),
        ("output.directory", "out/every"),
    ]


def test_with_r():
    cfg = parse_config(MINIMAL)
    assert cfg.with_r(0.75).r == 0.75
    assert cfg.r == 0.25
