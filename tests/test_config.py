"""Config grammar and preset tests."""

import numpy as np
import pytest

from qnetdyn.config import (
    ConfigError,
    ExperimentConfig,
    initial_state_vector,
    load_preset,
    parse_config,
    preset_names,
)

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
    with pytest.raises(ConfigError):
        parse_config(good.replace("0, 0.01, 0.1", "0.1, 0.01"))
    with pytest.raises(ConfigError):
        parse_config(good.replace("0, 0.01, 0.1", "-0.1, 0.01"))


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


def test_with_r():
    cfg = parse_config(MINIMAL)
    assert cfg.with_r(0.75).r == 0.75
    assert cfg.r == 0.25
