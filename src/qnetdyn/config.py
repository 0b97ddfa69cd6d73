"""Experiment configuration: INI-style text with strict validation.

Sections are [network], [initial], [run], [analyses], [output].  Unknown
sections or keys are errors, not warnings, so a typo cannot silently
disable an analysis.  `#` starts a comment, and a value must fit on one
line.  `_KEYS` gives each key a reader (text to value) and a check (the
library's own rule), which ExperimentConfig runs however it is built,
with its coherence rules.  Every default is ExperimentConfig's.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from importlib import resources

import numpy as np

from .linalg import as_state, basis_state
from .network import QRNNParams
from .rqa import check_radii
from .spectral import MIN_SPECTRUM_SAMPLES

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_radius_list",
    "load_config",
    "load_preset",
    "preset_names",
    "initial_state_vector",
]

_OBSERVERS = ("mean-field", "entropy", "raw-state")


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one deterministic run.

    Construction (``replace`` and ``with_r`` included) checks the type
    and value of each key in effect by its `_KEYS` row, then coherence:
    every enabled analysis has its source observer recording and enough
    samples to run on.  ``initial_state`` is derived from the label.
    """

    r: float
    initial_label: str
    transient: int
    samples: int
    observers: tuple = ()
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

    def __post_init__(self):
        def need(source, what):
            if source not in self.observers:
                raise ConfigError(f"{what} needs the {source!r} observer enabled")

        def at_least(count, what):
            if self.samples < count:
                raise ConfigError(f"{what} needs samples >= {count}, got {self.samples}")

        for section, key, field, read, check, switch in _KEYS:
            if _is_on(self, switch):
                value = getattr(self, field)
                if switch is not None and value is None:
                    raise ConfigError(f"{switch} needs {key}")
                _check(f"field {section}.{key}", _reads_back, read, value)
                if check is not None:
                    _check(f"field {section}.{key}", check, value)
        if self.correlation:
            need("mean-field", "correlation")
            at_least(2, "correlation")
        if self.stats:
            need("entropy", "entropy statistics")
        if self.spectrum:
            need(self.spectrum_source, "spectrum")
            at_least(MIN_SPECTRUM_SAMPLES, "spectrum")
        if self.recurrence_radii:
            need(self.recurrence_source, "recurrence statistics")
            at_least(2, "recurrence statistics")
        if self.line_gap_radius is not None:
            need(self.line_gap_source, "line-gap histogram")
            at_least(2, "line-gap histogram")
        if self.recurrence_plot:
            need(self.plot_source, "recurrence plot")
            if self.plot_window > self.samples:
                raise ConfigError(
                    f"plot_window {self.plot_window} exceeds samples {self.samples}"
                )

    @property
    def initial_state(self) -> np.ndarray:
        """The amplitudes that ``initial_label`` names, a fresh array."""
        return initial_state_vector(self.initial_label)

    def with_r(self, r: float) -> "ExperimentConfig":
        return replace(self, r=r)

    def echo_items(self):
        """Canonical (key, value) pairs for manifest embedding: every key
        whose switch is on, in _KEYS order."""
        items = []
        for section, key, field, *_, switch in _KEYS:
            if _is_on(self, switch):
                items.append((f"{section}.{key}", _echo(getattr(self, field))))
            if field == "initial_label":
                amps = ", ".join(repr(complex(a)) for a in self.initial_state)
                items.append(("initial.amplitudes", amps))
        return items


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _is_on(cfg: ExperimentConfig, switch: str | None) -> bool:
    """A switch (None: always on) is on when its field is not its default.

    A value of another type than the default's is on, so that its row's
    type check refuses it: an array is never compared with ``!=``."""
    if switch is None:
        return True
    value, default = getattr(cfg, switch), _DEFAULTS[switch]
    return type(value) is not type(default) or value != default


def _echo(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(_echo(v) for v in value)
    return str(value)  # str(float) is its repr


class ConfigError(ValueError):
    """Raised for an unparseable or invalid configuration."""


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
        return basis_state([int(d) for d in digits])
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


def _boolean(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _items(raw):
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _floats(raw):
    return tuple(float(v) for v in _items(raw))


def _reads_back(read, value):
    """Refuse a value of the wrong type, one that ``read`` does not give
    back from its own echo: so a bool is no int, and a manifest's echo
    reads as the config that ran."""
    parsed = read(_echo(value))
    if parsed != value and repr(parsed) != repr(value):  # NaN != NaN, yet reads back
        raise ValueError(f"{value!r} is the wrong type: its echo reads as {parsed!r}")


def _at_least(minimum, value):
    if value < minimum:
        raise ValueError(f"{value} must be >= {minimum}")


def _source(value):
    sources = ("mean-field", "entropy")
    if value not in sources:
        raise ValueError(f"{value!r} not one of {sources}")


def _observers(observers):
    for obs in observers:
        if obs not in _OBSERVERS:
            raise ValueError(f"unknown observer {obs!r}")
    if len(set(observers)) != len(observers):
        raise ValueError("duplicate observer")


def _radius(value):
    check_radii([value])


def _directory(value):
    if not value:
        raise ValueError("an output directory needs a name")


# One row per key, in manifest echo order: (section, key, ExperimentConfig
# field, reader, check, switch).  The reader turns the key's text into a
# value and so sets its type (`_reads_back`); the check, None for no rule,
# raises ValueError for a value the run would refuse.  A key is checked
# and echoed while its switch, the field that turns its analysis on, is on
# (always, with no switch), and setting it while the switch is off is an
# error, as is leaving it None while the switch is on.  A switch's row
# precedes the rows it switches, so a switch of the wrong type is named
# before its keys.  A key is required when its field has no default.
_KEYS = (
    ("network", "r", "r", float, QRNNParams, None),
    ("initial", "state", "initial_label", str, initial_state_vector, None),
    ("run", "transient", "transient", int, partial(_at_least, 0), None),
    ("run", "samples", "samples", int, partial(_at_least, 1), None),
    ("analyses", "observers", "observers", _items, _observers, None),
    ("analyses", "correlation", "correlation", _boolean, None, None),
    ("analyses", "stats", "stats", _boolean, None, None),
    ("analyses", "spectrum", "spectrum", _boolean, None, None),
    ("analyses", "spectrum_source", "spectrum_source", str, _source, "spectrum"),
    ("analyses", "recurrence_radii", "recurrence_radii", _floats, check_radii, "recurrence_radii"),
    ("analyses", "recurrence_source", "recurrence_source", str, _source, "recurrence_radii"),
    ("analyses", "line_gap_radius", "line_gap_radius", float, _radius, "line_gap_radius"),
    ("analyses", "line_gap_source", "line_gap_source", str, _source, "line_gap_radius"),
    ("analyses", "recurrence_plot", "recurrence_plot", _boolean, None, None),
    ("analyses", "plot_radius", "plot_radius", float, _radius, "recurrence_plot"),
    ("analyses", "plot_window", "plot_window", int, partial(_at_least, 2), "recurrence_plot"),
    ("analyses", "plot_source", "plot_source", str, _source, "recurrence_plot"),
    ("output", "directory", "out_directory", str, _directory, "out_directory"),
)


def parse_radius_list(raw: str, label: str) -> tuple:
    """Comma-separated radii that rqa.check_radii accepts, as Python
    floats.  ``label`` names the source in error messages."""
    radii = _check(label, _floats, raw)
    _check(label, check_radii, radii)
    return radii


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
        known = {key for s, key, *_ in _KEYS if s == section}
        if not known:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    # an [analyses] section must say which observers record
    if parser.has_section("analyses") and not parser.has_option("analyses", "observers"):
        raise ConfigError("missing required key 'observers' in section [analyses]")

    # only what the text sets; ExperimentConfig supplies every default
    values = {}
    for section, key, field, read, *_ in _KEYS:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            if "\n" in raw:  # an indented line continues the value before it
                raise ConfigError(f"field {section}.{key}: a value must fit on one line")
            values[field] = _check(f"field {section}.{key}", read, raw)
        elif _DEFAULTS[field] is MISSING:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
    cfg = ExperimentConfig(**values)
    for section, key, field, *_, switch in _KEYS:
        if field in values and not _is_on(cfg, switch):
            raise ConfigError(f"field {section}.{key}: {switch} is off, so it would be ignored")
    return cfg


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
    """The bundled run description ``name``, one of preset_names()."""
    names = preset_names()
    if name not in names:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(names)}")
    path = resources.files("qnetdyn.presets") / f"{name}.cfg"
    return parse_config(path.read_text(encoding="utf-8"))
