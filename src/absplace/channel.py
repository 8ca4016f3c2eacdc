"""Free-space channel gain with tomographic shadowing, and link capacities.

Gain in dB between a ground terminal and a candidate base-station position:

    gain = 20 log10(wavelength / (4 pi distance)) - shadowing

and the Shannon capacity of the link:

    capacity = bandwidth * log2(1 + tx_power * 10^(gain/10) / noise_power)

with tx_power and noise_power read as total powers over the bandwidth.
Small-scale fading is not modeled.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .geometry import Point3
from .tomography import SlfField, _line_integral_matrix

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelParams",
    "CapacityMatrix",
    "noise_power_from_dbm",
    "gain_db",
    "capacity_bps",
    "build_capacity_matrix",
    "write_capacity_csv",
]

SPEED_OF_LIGHT = 2.998e8  # m/s, used for the frequency <-> wavelength conversion


def noise_power_from_dbm(dbm: float) -> float:
    """Convert a noise power in dBm to watts."""
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants: all strictly positive.

    wavelength [m], bandwidth [Hz], tx_power [W], noise_power [W],
    min_rate [bit/s].
    """

    wavelength: float
    bandwidth: float
    tx_power: float
    noise_power: float
    min_rate: float

    def __post_init__(self):
        for name in ("wavelength", "bandwidth", "tx_power", "noise_power", "min_rate"):
            v = float(getattr(self, name))
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be strictly positive, got {v}")
            object.__setattr__(self, name, v)

    @classmethod
    def from_frequency(cls, frequency_hz: float, **kwargs) -> "ChannelParams":
        return cls(wavelength=SPEED_OF_LIGHT / frequency_hz, **kwargs)

    def with_min_rate(self, min_rate: float) -> "ChannelParams":
        return replace(self, min_rate=min_rate)


def _check_capacities(values: np.ndarray) -> None:
    """Raise ValueError unless ``values`` is 2-D, finite and nonnegative."""
    if values.ndim != 2:
        raise ValueError("capacity matrix must be 2D")
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise ValueError("capacities must be finite and nonnegative")


@dataclass(frozen=True)
class CapacityMatrix:
    """User-by-candidate link capacities in bit/s.

    values[m, g] is the capacity between user m and the flight-grid
    candidate g; ``candidates`` keeps the candidate positions so solver
    output can be mapped back to space.
    """

    values: np.ndarray
    users: tuple[Point3, ...]
    candidates: tuple[Point3, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        _check_capacities(values)
        if values.shape != (len(self.users), len(self.candidates)):
            raise ValueError(
                f"shape {values.shape} inconsistent with {len(self.users)} users "
                f"and {len(self.candidates)} candidates"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "candidates", tuple(self.candidates))

    @property
    def num_users(self) -> int:
        return self.values.shape[0]

    @property
    def num_candidates(self) -> int:
        return self.values.shape[1]


def _free_space_db(params: ChannelParams, distance):
    """Free-space gain in dB at a link distance or an array of them."""
    return 20.0 * np.log10(params.wavelength / (4.0 * math.pi * distance))


def _shannon_bps(params: ChannelParams, gain):
    """Shannon rate in bit/s at a gain in dB or an array of them."""
    snr = params.tx_power * 10.0 ** (gain / 10.0) / params.noise_power
    return params.bandwidth * np.log2(1.0 + snr)


def gain_db(params: ChannelParams, gt: Point3, abs_pos: Point3, shadow_db: float = 0.0) -> float:
    """Channel gain in dB at the given shadowing; singular for coincident points."""
    d = gt.distance_to(abs_pos)
    if d == 0.0:
        raise DomainError("gain undefined for coincident endpoints")
    return float(_free_space_db(params, d)) - shadow_db


def capacity_bps(params: ChannelParams, gain: float) -> float:
    """Shannon rate in bit/s for a link with the given gain in dB."""
    return float(_shannon_bps(params, gain))


def build_capacity_matrix(params: ChannelParams, users, candidates, slf: SlfField) -> CapacityMatrix:
    """Capacity of every user-candidate link, shadowed by the loss field.

    All M x G links go through ``_line_integral_matrix`` in one batch;
    distance, gain and rate are computed as arrays, by the formulas of
    ``gain_db`` and ``capacity_bps``. Every user and candidate must lie
    inside the field's voxel domain, and no user may coincide with a
    candidate; both raise DomainError.
    """
    users = tuple(users)
    candidates = tuple(candidates)
    u = np.array([p.as_tuple() for p in users], dtype=float).reshape(-1, 3)
    c = np.array([p.as_tuple() for p in candidates], dtype=float).reshape(-1, 3)
    distance = np.linalg.norm(c[None] - u[:, None], axis=2)
    if np.any(distance == 0.0):
        raise DomainError("gain undefined for coincident endpoints")
    shadow = _line_integral_matrix(slf, u, c)
    rate = _shannon_bps(params, _free_space_db(params, distance) - shadow)
    return CapacityMatrix(rate, users, candidates)


def write_capacity_csv(cm: CapacityMatrix, path) -> None:
    """One row per user, one column per candidate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"g{g}" for g in range(cm.num_candidates)])
        for row in cm.values:
            writer.writerow([repr(float(v)) for v in row])
