"""Experiment configuration: INI-style text with strict validation.

Sections are [network], [initial], [run], [analyses], [output].  Unknown
sections or keys are errors, not warnings, so a typo cannot silently
disable an analysis.  `#` starts a comment.  This module owns the text
grammar only: each value is checked by the library code that uses it at
run time, and every default is ExperimentConfig's.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .linalg import as_state
from .network import QRNNParams
from .rqa import check_radii
from .spectral import MIN_SPECTRUM_SAMPLES

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_radius_list",
    "check_coherence",
    "load_config",
    "load_preset",
    "preset_names",
    "initial_state_vector",
]

_SOURCES = ("mean-field", "entropy")
_OBSERVERS = ("mean-field", "entropy", "raw-state")

_KNOWN_KEYS = {
    "network": {"topology", "r"},
    "initial": {"state"},
    "run": {"transient", "samples"},
    "analyses": {
        "observers",
        "correlation",
        "stats",
        "spectrum",
        "spectrum_source",
        "recurrence_radii",
        "recurrence_source",
        "line_gap_radius",
        "line_gap_source",
        "recurrence_plot",
        "plot_radius",
        "plot_window",
        "plot_source",
    },
    "output": {"directory"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated description of one deterministic run."""

    r: float
    initial_label: str
    initial_state: np.ndarray
    transient: int
    samples: int
    observers: tuple = ()
    topology: str = "qrnn"
    correlation: bool = False
    stats: bool = False
    spectrum: bool = False
    spectrum_source: str = "entropy"
    recurrence_radii: tuple = ()
    recurrence_source: str = "mean-field"
    line_gap_radius: float | None = None
    line_gap_source: str = "mean-field"
    recurrence_plot: bool = False
    plot_radius: float | None = None
    plot_window: int = 500
    plot_source: str = "mean-field"
    out_directory: str | None = None

    def with_r(self, r: float) -> "ExperimentConfig":
        return replace(self, r=float(r))

    def echo_items(self):
        """Canonical (key, value) pairs for manifest embedding."""
        amps = ", ".join(repr(complex(a)) for a in self.initial_state)
        items = [
            ("network.topology", self.topology),
            ("network.r", repr(self.r)),
            ("initial.state", self.initial_label),
            ("initial.amplitudes", amps),
            ("run.transient", str(self.transient)),
            ("run.samples", str(self.samples)),
            ("analyses.observers", ", ".join(self.observers)),
            ("analyses.correlation", str(self.correlation).lower()),
            ("analyses.stats", str(self.stats).lower()),
            ("analyses.spectrum", str(self.spectrum).lower()),
        ]
        if self.spectrum:
            items.append(("analyses.spectrum_source", self.spectrum_source))
        if self.recurrence_radii:
            items.append(
                ("analyses.recurrence_radii", ", ".join(repr(v) for v in self.recurrence_radii))
            )
            items.append(("analyses.recurrence_source", self.recurrence_source))
        if self.line_gap_radius is not None:
            items.append(("analyses.line_gap_radius", repr(self.line_gap_radius)))
            items.append(("analyses.line_gap_source", self.line_gap_source))
        items.append(("analyses.recurrence_plot", str(self.recurrence_plot).lower()))
        if self.recurrence_plot:
            items.append(("analyses.plot_radius", repr(self.plot_radius)))
            items.append(("analyses.plot_window", str(self.plot_window)))
            items.append(("analyses.plot_source", self.plot_source))
        if self.out_directory is not None:
            items.append(("output.directory", self.out_directory))
        return items


class ConfigError(ValueError):
    """Raised for unparseable or invalid configuration text."""


def _check(label, owner, *args):
    """Call the library check ``owner``; its ValueError becomes a ConfigError."""
    try:
        return owner(*args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def initial_state_vector(label: str) -> np.ndarray:
    """Translate an initial-state description into four amplitudes.

    Accepted forms: the named state plus-plus, basis:DD with one firing
    digit per neuron, or amplitudes:a,b,c,d with complex entries that
    linalg.as_state accepts: finite and normalized within its tolerance.
    An explicit amplitude list is never rescaled.
    """
    label = label.strip()
    if label == "plus-plus":
        half = np.full(2, 1.0 / math.sqrt(2.0))
        return np.kron(half, half).astype(complex)
    if label.startswith("basis:"):
        digits = label[len("basis:"):].strip()
        if len(digits) != 2 or any(d not in "01" for d in digits):
            raise ConfigError(f"basis state needs two binary digits, got {digits!r}")
        v = np.zeros(4, dtype=complex)
        v[int(digits, 2)] = 1.0
        return v
    if label.startswith("amplitudes:"):
        parts = label[len("amplitudes:"):].split(",")
        if len(parts) != 4:
            raise ConfigError(f"expected 4 amplitudes, got {len(parts)}")
        try:
            v = [complex(p.strip().replace(" ", "")) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"unparseable amplitude in {label!r}") from exc
        return _check(f"initial state {label!r}", as_state, v)
    raise ConfigError(f"unknown initial state {label!r}")


def _get_required(parser, section, key):
    if not parser.has_option(section, key):
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return parser.get(section, key)


def _get_float(parser, section, key):
    if not parser.has_option(section, key):
        return None
    raw = parser.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key}: not a number: {raw!r}") from exc


def parse_radius_list(raw: str, label: str) -> tuple:
    """Comma-separated radii that rqa.check_radii accepts, as Python
    floats.  ``label`` names the source in error messages."""
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{label}: bad list {raw!r}") from exc
    # Python floats, so the manifest echoes repr(0.1) as 0.1
    return tuple(_check(label, check_radii, values).tolist())


def _get_int(parser, section, key):
    if not parser.has_option(section, key):
        return None
    raw = parser.get(section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key}: not an integer: {raw!r}") from exc


def _get_bool(parser, section, key):
    if not parser.has_option(section, key):
        return None
    try:
        return parser.getboolean(section, key)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key}: not a boolean") from exc


def _get_choice(parser, section, key, choices):
    if not parser.has_option(section, key):
        return None
    raw = parser.get(section, key).strip()
    if raw not in choices:
        raise ConfigError(f"field {section}.{key}: {raw!r} not one of {choices}")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text into an ExperimentConfig."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        interpolation=None,
        strict=True,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for required in ("network", "initial", "run"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    r = _get_float(parser, "network", "r")
    if r is None:
        raise ConfigError("missing required key 'r' in section [network]")
    _check("field network.r", QRNNParams, r)

    label = _get_required(parser, "initial", "state")

    transient = _get_int(parser, "run", "transient")
    samples = _get_int(parser, "run", "samples")
    if transient is None or samples is None:
        raise ConfigError("section [run] requires 'transient' and 'samples'")
    if transient < 0:
        raise ConfigError(f"field run.transient: {transient} must be >= 0")
    if samples < 1:
        raise ConfigError(f"field run.samples: {samples} must be >= 1")

    # only what the text sets; ExperimentConfig supplies every default
    fields = dict(
        topology=_get_choice(parser, "network", "topology", ("qrnn",)),
        r=r,
        initial_label=label,
        initial_state=initial_state_vector(label),
        transient=transient,
        samples=samples,
    )
    if parser.has_section("analyses"):
        raw_obs = _get_required(parser, "analyses", "observers")
        observers = tuple(o.strip() for o in raw_obs.split(",") if o.strip())
        for obs in observers:
            if obs not in _OBSERVERS:
                raise ConfigError(f"unknown observer {obs!r}")
        if len(set(observers)) != len(observers):
            raise ConfigError("duplicate observer")
        fields["observers"] = observers
        for key in ("correlation", "stats", "spectrum", "recurrence_plot"):
            fields[key] = _get_bool(parser, "analyses", key)
        for key in ("spectrum_source", "recurrence_source", "line_gap_source", "plot_source"):
            fields[key] = _get_choice(parser, "analyses", key, _SOURCES)
        if parser.has_option("analyses", "recurrence_radii"):
            fields["recurrence_radii"] = parse_radius_list(
                parser.get("analyses", "recurrence_radii"), "field analyses.recurrence_radii"
            )
        for key in ("line_gap_radius", "plot_radius"):
            radius = fields[key] = _get_float(parser, "analyses", key)
            if radius is not None:
                _check(f"field analyses.{key}", check_radii, [radius])
        fields["plot_window"] = _get_int(parser, "analyses", "plot_window")
    if parser.has_option("output", "directory"):
        fields["out_directory"] = parser.get("output", "directory").strip()

    cfg = ExperimentConfig(**{k: v for k, v in fields.items() if v is not None})
    if cfg.plot_window < 2:
        raise ConfigError("field analyses.plot_window: must be >= 2")
    check_coherence(cfg)
    return cfg


def check_coherence(cfg: ExperimentConfig) -> None:
    """Every enabled analysis must have its source observer recording and
    enough samples to run on."""

    def need(source, what):
        if source not in cfg.observers:
            raise ConfigError(f"{what} needs the {source!r} observer enabled")

    def at_least(count, what):
        if cfg.samples < count:
            raise ConfigError(f"{what} needs samples >= {count}, got {cfg.samples}")

    if cfg.correlation:
        need("mean-field", "correlation")
        at_least(2, "correlation")
    if cfg.stats:
        need("entropy", "entropy statistics")
    if cfg.spectrum:
        need(cfg.spectrum_source, "spectrum")
        at_least(MIN_SPECTRUM_SAMPLES, "spectrum")
    if cfg.recurrence_radii:
        need(cfg.recurrence_source, "recurrence statistics")
        at_least(2, "recurrence statistics")
    if cfg.line_gap_radius is not None:
        need(cfg.line_gap_source, "line-gap histogram")
        at_least(2, "line-gap histogram")
    if cfg.recurrence_plot:
        if cfg.plot_radius is None:
            raise ConfigError("recurrence_plot needs plot_radius")
        need(cfg.plot_source, "recurrence plot")
        if cfg.plot_window > cfg.samples:
            raise ConfigError(
                f"plot_window {cfg.plot_window} exceeds samples {cfg.samples}"
            )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def preset_names():
    """Names of the bundled run descriptions, sorted."""
    root = resources.files("qnetdyn.presets")
    return sorted(
        entry.name[: -len(".cfg")]
        for entry in root.iterdir()
        if entry.name.endswith(".cfg")
    )


def load_preset(name: str) -> ExperimentConfig:
    root = resources.files("qnetdyn.presets")
    candidate = root / f"{name}.cfg"
    try:
        text = candidate.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from exc
    return parse_config(text)
