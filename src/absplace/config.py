"""Run configuration: one YAML document drives every CLI command.

Sections: channel, scenario, solver, experiment, output. Every key is
validated (types, ranges, unknown keys) before any work starts. Exactly one
of ``wavelength_m`` / ``frequency_hz`` may be given (the other is derived
with c = 2.998e8 m/s); likewise for ``noise_power_w`` / ``noise_power_dbm``.
Command-line overrides (``-O section.key=value``) are applied to the raw
document before validation, so flag > file > default.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .channel import SPEED_OF_LIGHT, ChannelParams, noise_power_from_dbm
from .errors import ConfigError
from .geometry import Box3, Point3
from .placement import PlacementConfig
from .scenario import SOLVER_NAMES, ExperimentSpec, ScenarioParams

__all__ = ["OutputConfig", "ExperimentSettings", "RunConfig", "load_config", "default_config"]


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    record_timing: bool = False
    write_trace: bool = False


@dataclass(frozen=True)
class ExperimentSettings:
    sweep: str = "min_rate"
    values: tuple[float, ...] = (2e6, 5e6)
    repetitions: int = 3
    seed: int = 0
    solvers: tuple[str, ...] = ("admm",)


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelParams
    scenario: ScenarioParams
    solver: PlacementConfig
    experiment: ExperimentSettings
    output: OutputConfig

    def experiment_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            sweep=self.experiment.sweep,
            values=self.experiment.values,
            repetitions=self.experiment.repetitions,
            seed=self.experiment.seed,
            scenario=self.scenario,
            channel=self.channel,
            solvers=self.experiment.solvers,
            placement=self.solver,
        )


class _Section:
    """Typed key extraction with unknown-key detection for one mapping."""

    def __init__(self, name: str, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        self.name = name
        self.raw = dict(raw)

    def take(self, key, kind, default):
        if key not in self.raw:
            return default
        value = self.raw.pop(key)
        try:
            if kind is bool:
                if not isinstance(value, bool):
                    raise TypeError
                return value
            if kind is int:
                if isinstance(value, bool) or int(value) != value:
                    raise TypeError
                return int(value)
            if kind is float:
                return float(value)
            if kind is str:
                if not isinstance(value, str):
                    raise TypeError
                return value
            return kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.name}.{key}: cannot read {value!r}") from None

    def has(self, key) -> bool:
        return key in self.raw

    def finish(self):
        if self.raw:
            raise ConfigError(f"unknown keys in section {self.name!r}: {sorted(self.raw)}")


def _pair(kind):
    def parse(value):
        seq = tuple(kind(v) for v in value)
        if len(seq) != 2:
            raise ValueError
        return seq

    return parse


def _triple(kind):
    def parse(value):
        seq = tuple(kind(v) for v in value)
        if len(seq) != 3:
            raise ValueError
        return seq

    return parse


def _boxes(value):
    out = []
    for row in value:
        vals = [float(v) for v in row]
        if len(vals) != 6:
            raise ValueError
        out.append(Box3(Point3(*vals[:3]), Point3(*vals[3:])))
    return tuple(out)


def _parse_channel(raw: dict) -> ChannelParams:
    sec = _Section("channel", raw)
    has_wl = sec.has("wavelength_m")
    has_fr = sec.has("frequency_hz")
    if has_wl and has_fr:
        raise ConfigError("give exactly one of channel.wavelength_m / channel.frequency_hz")
    wavelength = sec.take("wavelength_m", float, None)
    frequency = sec.take("frequency_hz", float, None if has_wl else 2.4e9)
    if wavelength is None:
        wavelength = SPEED_OF_LIGHT / frequency

    has_w = sec.has("noise_power_w")
    has_dbm = sec.has("noise_power_dbm")
    if has_w and has_dbm:
        raise ConfigError("give exactly one of channel.noise_power_w / channel.noise_power_dbm")
    noise = sec.take("noise_power_w", float, None)
    noise_dbm = sec.take("noise_power_dbm", float, None if has_w else -96.0)
    if noise is None:
        noise = noise_power_from_dbm(noise_dbm)

    bandwidth = sec.take("bandwidth_hz", float, 20e6)
    tx_power = sec.take("tx_power_w", float, 0.1)
    min_rate = sec.take("min_rate_bps", float, 5e6)
    sec.finish()
    try:
        return ChannelParams(wavelength, bandwidth, tx_power, noise, min_rate)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None


def _parse_scenario(raw: dict) -> ScenarioParams:
    sec = _Section("scenario", raw)
    kwargs = dict(
        area=sec.take("area_m", _pair(float), (500.0, 400.0)),
        streets_per_axis=sec.take("streets_per_axis", _pair(int), (9, 9)),
        building_height=sec.take("building_height_m", float, 40.0),
        absorption_db_per_m=sec.take("absorption_db_per_m", float, 3.0),
        flight_band=sec.take("flight_band_m", _pair(float), (50.0, 150.0)),
        slf_dims=sec.take("slf_dims", _triple(int), (12, 10, 6)),
        slf_top=sec.take("slf_top_m", float, 160.0),
        flight_dims=sec.take("flight_dims", _triple(int), (5, 5, 3)),
        no_fly=sec.take("no_fly_boxes", _boxes, ()),
        num_users=sec.take("num_users", int, 5),
        gt_height=sec.take("gt_height_m", float, 0.0),
    )
    sec.finish()
    try:
        return ScenarioParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def _parse_solver(raw: dict) -> PlacementConfig:
    sec = _Section("solver", raw)
    kwargs = dict(
        rho=sec.take("rho", float, 1.0),
        eps_abs=sec.take("eps_abs", float, 1e-6),
        eps_rel=sec.take("eps_rel", float, 1e-4),
        max_iter=sec.take("max_iter", int, 10000),
        reweight_rounds=sec.take("reweight_rounds", int, 4),
        reweight_eps=sec.take("reweight_eps", float, 1e-3),
        select_threshold=sec.take("select_threshold", float, 1e-3),
    )
    sec.finish()
    try:
        return PlacementConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def _parse_experiment(raw: dict) -> ExperimentSettings:
    sec = _Section("experiment", raw)
    settings = ExperimentSettings(
        sweep=sec.take("sweep", str, "min_rate"),
        values=sec.take("values", lambda v: tuple(float(x) for x in v), (2e6, 5e6)),
        repetitions=sec.take("repetitions", int, 3),
        seed=sec.take("seed", int, 0),
        solvers=sec.take("solvers", lambda v: tuple(str(s) for s in v), ("admm",)),
    )
    sec.finish()
    if settings.sweep not in ("num_users", "building_height", "min_rate"):
        raise ConfigError(f"experiment.sweep: unknown variable {settings.sweep!r}")
    if not settings.values:
        raise ConfigError("experiment.values must be nonempty")
    if settings.repetitions < 1:
        raise ConfigError("experiment.repetitions must be >= 1")
    unknown = set(settings.solvers) - set(SOLVER_NAMES)
    if unknown:
        raise ConfigError(f"experiment.solvers: unknown {sorted(unknown)}")
    return settings


def _parse_output(raw: dict) -> OutputConfig:
    sec = _Section("output", raw)
    out = OutputConfig(
        dir=sec.take("dir", str, "out"),
        record_timing=sec.take("record_timing", bool, False),
        write_trace=sec.take("write_trace", bool, False),
    )
    sec.finish()
    return out


_SECTIONS = ("channel", "scenario", "solver", "experiment", "output")


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
        try:
            value = yaml.safe_load(text)
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
        with open(path) as fh:
            doc = yaml.safe_load(fh) or {}
        if not isinstance(doc, dict):
            raise ConfigError("configuration root must be a mapping")
    doc = _apply_overrides(dict(doc), overrides)
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level sections: {sorted(unknown)}")
    return RunConfig(
        channel=_parse_channel(doc.get("channel", {})),
        scenario=_parse_scenario(doc.get("scenario", {})),
        solver=_parse_solver(doc.get("solver", {})),
        experiment=_parse_experiment(doc.get("experiment", {})),
        output=_parse_output(doc.get("output", {})),
    )


def default_config() -> RunConfig:
    return load_config(None)
