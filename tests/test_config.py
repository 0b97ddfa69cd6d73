"""Config grammar and preset tests."""

import configparser
import dataclasses
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qnetdyn import config
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
from qnetdyn.experiment import run_experiment
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
    with pytest.raises(ConfigError, match="unknown key 'topology'"):
        parse_config(MINIMAL.replace("[network]", "[network]\ntopology = qrnn"))


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


def _rejected_everywhere(text, **changes):
    """``text`` (None: a config with no text form) is refused, and so is
    the same config built in code, by the constructor, by
    ``dataclasses.replace`` of a valid config and, when only r changes,
    by ``with_r``: each with the same ConfigError message, returned."""
    valid = parse_config(MINIMAL)
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    builds = [
        lambda: ExperimentConfig(**{**fields, **changes}),
        lambda: dataclasses.replace(valid, **changes),
    ]
    if text is not None:
        builds.append(lambda: parse_config(text))
    if list(changes) == ["r"]:
        builds.append(lambda: valid.with_r(changes["r"]))
    messages = []
    for build in builds:
        with pytest.raises(ConfigError) as refused:
            build()
        messages.append(str(refused.value))
    assert messages == [messages[0]] * len(builds)
    return messages[0]


def test_analyses_need_their_observers():
    _rejected_everywhere(
        MINIMAL + "\n[analyses]\nobservers = entropy\ncorrelation = yes\n",
        observers=("entropy",),
        correlation=True,
    )
    _rejected_everywhere(
        MINIMAL + "\n[analyses]\nobservers = mean-field\nstats = yes\n",
        observers=("mean-field",),
        stats=True,
    )
    _rejected_everywhere(
        MINIMAL + "\n[analyses]\nobservers = mean-field\nspectrum = yes\n",
        observers=("mean-field",),
        spectrum=True,
    )  # spectrum_source defaults to entropy
    _rejected_everywhere(
        MINIMAL + "\n[analyses]\nobservers = entropy\nline_gap_radius = 0.1\n",
        observers=("entropy",),
        line_gap_radius=0.1,
    )  # source defaults to mean-field


def test_plot_validation():
    base = MINIMAL + "\n[analyses]\nobservers = mean-field\nrecurrence_plot = yes\n"
    plot_on = dict(observers=("mean-field",), recurrence_plot=True)
    _rejected_everywhere(base, **plot_on)  # no plot_radius
    cfg = parse_config(base + "plot_radius = 0.1\nplot_window = 8\n")
    assert cfg.plot_radius == 0.1 and cfg.plot_window == 8
    _rejected_everywhere(
        base + "plot_radius = 0.1\nplot_window = 50\n",
        **plot_on,
        plot_radius=0.1,
        plot_window=50,
    )  # > samples


ANALYSES = MINIMAL + "\n[analyses]\nobservers = mean-field, entropy\n"


@pytest.mark.parametrize(
    "samples, analyses, changes",
    [
        (
            600,
            "recurrence_plot = yes\nplot_radius = -1\n",
            dict(recurrence_plot=True, plot_radius=-1.0),
        ),
        (10, "line_gap_radius = nan\n", dict(line_gap_radius=math.nan)),
        (10, "recurrence_radii = 0.01, nan\n", dict(recurrence_radii=(0.01, math.nan))),
        (15, "spectrum = yes\n", dict(spectrum=True)),
        (1, "correlation = yes\n", dict(correlation=True)),
        (
            10,
            "recurrence_plot = yes\nplot_window = 2\nplot_radius = inf\n",
            dict(recurrence_plot=True, plot_window=2, plot_radius=math.inf),
        ),
        (10, "recurrence_radii = 0.01, inf\n", dict(recurrence_radii=(0.01, math.inf))),
        (1, "recurrence_radii = 0.01\n", dict(recurrence_radii=(0.01,))),
        (1, "line_gap_radius = 0.1\n", dict(line_gap_radius=0.1)),
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
def test_rejects_configs_that_would_fail_after_iterating(samples, analyses, changes):
    text = ANALYSES.replace("samples = 10", f"samples = {samples}") + analyses
    observers = ("mean-field", "entropy")
    _rejected_everywhere(text, samples=samples, observers=observers, **changes)


@pytest.mark.parametrize(
    "text, changes",
    [
        (MINIMAL.replace("transient = 5", "transient = -1"), dict(transient=-1)),
        (MINIMAL.replace("samples = 10", "samples = 0"), dict(samples=0)),
        (
            ANALYSES + "recurrence_plot = yes\nplot_radius = 0.1\nplot_window = 1\n",
            dict(
                observers=("mean-field", "entropy"),
                recurrence_plot=True,
                plot_radius=0.1,
                plot_window=1,
            ),
        ),
        (MINIMAL + "\n[analyses]\nobservers = bogus\n", dict(observers=("bogus",))),
        (
            MINIMAL + "\n[analyses]\nobservers = entropy, entropy\n",
            dict(observers=("entropy", "entropy")),
        ),
        (MINIMAL.replace("r = 0.25", "r = 1.5"), dict(r=1.5)),
        (MINIMAL.replace("r = 0.25", "r = nan"), dict(r=math.nan)),
        (
            ANALYSES + "recurrence_radii = 0.1, 0.01\n",
            dict(observers=("mean-field", "entropy"), recurrence_radii=(0.1, 0.01)),
        ),
        (MINIMAL.replace("plus-plus", "bell"), dict(initial_label="bell")),
        (MINIMAL + "\n[output]\ndirectory =\n", dict(out_directory="")),
    ],
    ids=[
        "negative-transient",
        "no-samples",
        "one-row-plot-window",
        "unknown-observer",
        "duplicate-observer",
        "r-above-one",
        "nan-r",
        "descending-radii",
        "unknown-state-label",
        "empty-output-directory",
    ],
)
def test_value_rules_hold_in_text_and_code(text, changes):
    _rejected_everywhere(text, **changes)


@pytest.mark.parametrize(
    "changes, key",
    [
        (dict(observers=("mean-field",), correlation="no"), "analyses.correlation"),
        (dict(transient=2.5), "run.transient"),
        (dict(r=True), "network.r"),
        (dict(observers=["mean-field"]), "analyses.observers"),
        (dict(samples="10"), "run.samples"),
        (dict(observers=("mean-field",), recurrence_radii=[0.1]), "analyses.recurrence_radii"),
        (dict(initial_label=None), "initial.state"),
        (
            dict(observers=("mean-field",), recurrence_radii=np.array([0.1, 0.2])),
            "analyses.recurrence_radii",
        ),
        (dict(recurrence_plot="no"), "analyses.recurrence_plot"),
    ],
    ids=[
        "string-boolean",
        "float-count",
        "bool-r",
        "observer-list",
        "string-count",
        "radius-list",
        "no-state-label",
        "radius-array",
        "string-plot-switch",
    ],
)
def test_values_of_the_wrong_type_are_refused_in_code(changes, key):
    assert _rejected_everywhere(None, **changes).startswith(f"field {key}: ")


def test_smallest_accepted_analysis_inputs():
    assert parse_config(ANALYSES.replace("samples = 10", "samples = 16") + "spectrum = yes\n")
    two = ANALYSES.replace("samples = 10", "samples = 2")
    assert parse_config(two + "correlation = yes\nrecurrence_radii = 0\nline_gap_radius = 0\n")


@pytest.mark.parametrize(
    "key, value, switch",
    [
        ("spectrum_source", "mean-field", "spectrum"),
        ("recurrence_source", "entropy", "recurrence_radii"),
        ("line_gap_source", "entropy", "line_gap_radius"),
        ("plot_radius", "0.1", "recurrence_plot"),
        ("plot_window", "4", "recurrence_plot"),
        ("plot_source", "entropy", "recurrence_plot"),
    ],
)
def test_key_of_an_analysis_that_is_off_is_an_error(key, value, switch):
    with pytest.raises(ConfigError, match=f"^field analyses.{key}: {switch} is off"):
        parse_config(ANALYSES + f"{key} = {value}\n")
    if switch == "recurrence_plot":  # an explicit "no" is off too
        with pytest.raises(ConfigError, match=switch):
            parse_config(ANALYSES + f"recurrence_plot = no\n{key} = {value}\n")


def test_radii_must_ascend():
    good = MINIMAL + "\n[analyses]\nobservers = mean-field\nrecurrence_radii = 0, 0.01, 0.1\n"
    assert parse_config(good).recurrence_radii == (0.0, 0.01, 0.1)
    assert parse_radius_list(" 0,0.01, 0.1 ") == (0.0, 0.01, 0.1)
    with pytest.raises(ConfigError):
        parse_config(good.replace("0, 0.01, 0.1", "0.1, 0.01"))
    with pytest.raises(ConfigError):
        parse_config(good.replace("0, 0.01, 0.1", "-0.1, 0.01"))
    # the grammar qnetdyn run --radius-list shares (tests/test_experiment.py)
    for raw in ("", "a", "0.2,0.1", "0.1,0.1", "-1", "nan", "inf"):
        with pytest.raises(ConfigError, match="^--radius-list: "):
            parse_radius_list(raw)
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
    plot_on = "recurrence_plot = yes\nplot_window = 2\nplot_radius"
    for setting in ("line_gap_radius", plot_on, "recurrence_radii"):
        text = ANALYSES + f"{setting} = {radius!r}\n"
        assert _accepts(parse_config, text) == accepted, setting
    assert _accepts(parse_radius_list, repr(radius)) == accepted


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


def test_a_value_must_fit_on_one_line():
    # configparser joins an indented line to the value before it
    split_state = MINIMAL.replace("plus-plus", "amplitudes:0.5,0.5,\n  0.5,0.5")
    with pytest.raises(ConfigError, match=r"^field initial\.state: .*one line"):
        parse_config(split_state)
    split_observers = ANALYSES.replace("mean-field, entropy", "mean-field,\n  entropy")
    with pytest.raises(ConfigError, match=r"^field analyses\.observers: .*one line"):
        parse_config(split_observers)


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


def test_preset_names_only_a_bundled_file(tmp_path):
    (tmp_path / "outside.cfg").write_text(MINIMAL, encoding="utf-8")
    presets = Path(str(resources.files("qnetdyn.presets")))
    name = os.path.relpath(tmp_path / "outside", presets)
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset(name)
    out = tmp_path / "out"
    assert main(["run", "--preset", name, "--out", str(out)]) == 1
    assert not out.exists()


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


def test_readme_grammar_example_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    grammar = readme.split("### Config grammar", 1)[1]
    example = grammar.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.spectrum and cfg.recurrence_plot and cfg.out_directory == "out/my_run"
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(example)
    named = {(section, key) for section in parser.sections() for key in parser[section]}
    assert named == {(section, key) for section, key, *_ in config._KEYS}


def test_with_r():
    cfg = parse_config(MINIMAL)
    assert cfg.with_r(0.75).r == 0.75
    assert cfg.r == 0.25
    # a sweep's r values are numpy floats, which read back from their echo
    assert cfg.with_r(np.float64(0.75)) == cfg.with_r(0.75)


def test_presets_compare_and_hash_equal():
    for name in preset_names():
        cfg, again = load_preset(name), load_preset(name)
        assert cfg == again and hash(cfg) == hash(again), name
        assert cfg.with_r(0.5 if cfg.r != 0.5 else 0.25) != cfg, name


def test_initial_state_follows_its_label(tmp_path):
    cfg = dataclasses.replace(parse_config(MINIMAL), initial_label="basis:01")
    assert np.array_equal(cfg.initial_state, [0, 1, 0, 0])
    manifest = run_experiment(cfg, out_dir=tmp_path / "run")
    lines = (manifest.directory / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert "config.initial.state = basis:01" in lines
    assert "config.initial.amplitudes = 0j, (1+0j), 0j, 0j" in lines
    with pytest.raises(TypeError, match="initial_state"):
        dataclasses.replace(cfg, initial_state=initial_state_vector("plus-plus"))


def test_keys_name_every_field_once():
    # a new field needs its key, reader, check and echo in _KEYS
    keyed = [field for _, _, field, *_ in config._KEYS]
    assert sorted(keyed) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    assert all(callable(read) for _, _, _, read, *_ in config._KEYS)
