"""Run configuration: one YAML document drives every CLI command.

Sections: channel, scenario, experiment, output. All four go through one
builder, ``_build``: the scenario, experiment and output sections are read
straight into the library's dataclasses (``ScenarioParams``,
``ExperimentSpec``, ``OutputConfig``) and the channel section into
``_channel``, which returns ``ChannelParams``. A key left out takes the
default of the dataclass or of ``_channel``, and a value they reject is
reported as ``<section>: <reason>``. Every key is type-checked and unknown
keys and sections are rejected before any work starts. The placement
solver has no section: its settings are constants of ``placement``.
At most one of ``wavelength_m`` / ``frequency_hz`` may be given (the other
is derived with ``ChannelParams.from_frequency``); likewise for
``noise_power_w`` / ``noise_power_dbm`` (``noise_power_from_dbm``).
Command-line overrides (``-O section.key=value``) are applied to the raw
document before validation, so flag > file > default.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .channel import ChannelParams, noise_power_from_dbm
from .errors import ConfigError
from .geometry import Box3, Point3
from .scenario import ExperimentSpec, ScenarioParams

__all__ = ["OutputConfig", "RunConfig", "load_config"]


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    record_timing: bool = False
    write_trace: bool = False


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelParams
    scenario: ScenarioParams
    experiment: ExperimentSpec
    output: OutputConfig


@functools.cache
def _loader():
    """The YAML loader class, built on first use so that a run with no
    config file and no override never imports PyYAML.

    YAML 1.1's float needs a dot and a signed exponent, so PyYAML reads
    2e6 and 5.0e6 as strings; this loader reads them as the floats of
    YAML 1.2. A quoted value stays a string."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return Loader


def _read(kind, value):
    """One YAML value as ``kind``: a bool or a string never passes for a
    number, nor a number for a bool or a string, and an int key takes whole
    numbers only."""
    if kind in (bool, str) and not isinstance(value, kind):
        raise TypeError
    if kind in (int, float) and isinstance(value, (bool, str)):
        raise TypeError
    if kind is int and int(value) != value:
        raise TypeError
    return kind(value)


def _tuple(kind, length=None):
    def parse(value):
        seq = tuple(_read(kind, v) for v in value)
        if length is not None and len(seq) != length:
            raise ValueError
        return seq

    return parse


def _boxes(value):
    corners = [_tuple(float, 6)(row) for row in value]
    return tuple(Box3(Point3(*c[:3]), Point3(*c[3:])) for c in corners)


def _build(name: str, raw, cls, keys, **fixed):
    """``cls`` from ``fixed`` and the keys present in section ``name``, whose
    mapping is ``raw``.

    ``keys`` maps each YAML key to ``(field, kind)``. The keys present are
    read first, then unknown keys are rejected. A key present overrides
    ``fixed``; a field given by neither takes the class's own default. A
    ``ValueError`` from ``cls`` becomes a ``ConfigError``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    parsed = {}
    for key, (field, kind) in keys.items():
        if key in raw:
            try:
                parsed[field] = _read(kind, raw[key])
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{name}.{key}: cannot read {raw[key]!r}") from None
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    try:
        return cls(**{**fixed, **parsed})
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _same_name(**kinds):
    return {key: (key, kind) for key, kind in kinds.items()}


_SCENARIO_KEYS = {
    "area_m": ("area", _tuple(float, 2)),
    "streets_per_axis": ("streets_per_axis", _tuple(int, 2)),
    "building_height_m": ("building_height", float),
    "absorption_db_per_m": ("absorption_db_per_m", float),
    "flight_band_m": ("flight_band", _tuple(float, 2)),
    "slf_dims": ("slf_dims", _tuple(int, 3)),
    "slf_top_m": ("slf_top", float),
    "flight_dims": ("flight_dims", _tuple(int, 3)),
    "no_fly_boxes": ("no_fly", _boxes),
    "num_users": ("num_users", int),
    "gt_height_m": ("gt_height", float),
}
_EXPERIMENT_KEYS = _same_name(
    sweep=str, values=_tuple(float), repetitions=int, seed=int, solvers=_tuple(str)
)
# ExperimentSpec leaves these four to its caller; the run defaults are here.
_EXPERIMENT_DEFAULTS = dict(sweep="min_rate", values=(2e6, 5e6), repetitions=3, seed=0)
_OUTPUT_KEYS = _same_name(dir=str, record_timing=bool, write_trace=bool)
_CHANNEL_KEYS = _same_name(
    wavelength_m=float, frequency_hz=float, noise_power_w=float, noise_power_dbm=float,
    bandwidth_hz=float, tx_power_w=float, min_rate_bps=float,
)


def _channel(wavelength_m=None, frequency_hz=None, noise_power_w=None, noise_power_dbm=None,
             bandwidth_hz=20e6, tx_power_w=0.1, min_rate_bps=5e6) -> ChannelParams:
    """The channel section as ``ChannelParams``: at most one key of each
    pair is given, and the other is derived from it (2.4 GHz and -96 dBm
    when neither is)."""
    if wavelength_m is not None and frequency_hz is not None:
        raise ValueError("give exactly one of wavelength_m / frequency_hz")
    if noise_power_w is not None and noise_power_dbm is not None:
        raise ValueError("give exactly one of noise_power_w / noise_power_dbm")
    if noise_power_w is None:
        noise_power_w = noise_power_from_dbm(-96.0 if noise_power_dbm is None else noise_power_dbm)
    rest = dict(bandwidth=bandwidth_hz, tx_power=tx_power_w, noise_power=noise_power_w,
                min_rate=min_rate_bps)
    if wavelength_m is None:
        return ChannelParams.from_frequency(2.4e9 if frequency_hz is None else frequency_hz, **rest)
    return ChannelParams(wavelength_m, **rest)


_SECTIONS = ("channel", "scenario", "experiment", "output")


def _apply_overrides(doc: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, text = item.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, key = parts
        if section not in _SECTIONS:
            raise ConfigError(f"override section {section!r} unknown")
        import yaml

        try:
            value = yaml.load(text, Loader=_loader())
        except yaml.YAMLError:
            raise ConfigError(f"cannot parse override value {text!r}") from None
        doc.setdefault(section, {})
        if not isinstance(doc[section], dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        doc[section][key] = value
    return doc


def load_config(path=None, overrides=()) -> RunConfig:
    """Load and fully validate a run configuration.

    ``path`` may be None (all defaults). Overrides are dotted
    ``section.key=value`` strings with YAML-parsed values.
    """
    if path is None:
        doc = {}
    else:
        import yaml

        with open(path) as fh:
            doc = yaml.load(fh, Loader=_loader()) or {}
        if not isinstance(doc, dict):
            raise ConfigError("configuration root must be a mapping")
    doc = _apply_overrides(dict(doc), overrides)
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level sections: {sorted(unknown)}")

    def section(name, cls, keys, **fixed):
        return _build(name, doc.get(name, {}), cls, keys, **fixed)

    channel = section("channel", _channel, _CHANNEL_KEYS)
    scenario = section("scenario", ScenarioParams, _SCENARIO_KEYS)
    experiment = section(
        "experiment", ExperimentSpec, _EXPERIMENT_KEYS,
        **_EXPERIMENT_DEFAULTS, scenario=scenario, channel=channel,
    )
    output = section("output", OutputConfig, _OUTPUT_KEYS)
    return RunConfig(channel, scenario, experiment, output)
