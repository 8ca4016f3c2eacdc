"""Urban scenario generation and the Monte Carlo experiment harness.

The environment is a rectangle with alternating streets and building rows on
both axes (uniform strip widths derived from the street count), buildings of
a common height filled with a constant absorption, a loss field sampled on a
regular voxel grid covering ground through the flight band, and a flight
grid filtered to the allowed region (altitude band, outside buildings and
no-fly boxes). Users are dropped uniformly at random on the streets.

Experiments sweep one variable (user count, building height, or target
rate), run seeded Monte Carlo repetitions, solve each instance with the
configured solvers, and report the mean number of stations per sweep point.
User positions are seeded per repetition only, so the same user draw is
replayed across sweep values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import CapacityMatrix, ChannelParams, build_capacity_matrix
from .errors import EmptyProblemError, GuardError, InfeasibleError
from .geometry import Box3, Point3, RegularGrid3
from .placement import solve_placement
from .reference import exhaustive_min_abs, solve_alpha_lp
from .tomography import SlfField

__all__ = [
    "ScenarioParams",
    "UrbanScenario",
    "ExperimentSpec",
    "RunRecord",
    "SweepSummary",
    "ExperimentResult",
    "build_urban",
    "sample_users",
    "sample_instance",
    "run_experiment",
    "write_runs_csv",
    "write_summary_csv",
    "SOLVER_NAMES",
]

# "admm" runs solve_placement, the PDHG placement, not admm_solve; the name
# stays because configs and runs.csv files use it.
SOLVER_NAMES = ("admm", "alpha_lp", "exhaustive")


def _check_integers(**fields):
    """ValueError unless each field, or each entry of a tuple field, is an
    integer (a numpy one too) and not a bool."""
    for name, value in fields.items():
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in entries):
            raise ValueError(f"{name} must be integers, got {value!r}")


@dataclass(frozen=True)
class ScenarioParams:
    """Everything needed to build one urban environment."""

    area: tuple[float, float] = (500.0, 400.0)
    streets_per_axis: tuple[int, int] = (9, 9)
    building_height: float = 40.0
    absorption_db_per_m: float = 3.0
    flight_band: tuple[float, float] = (50.0, 150.0)
    slf_dims: tuple[int, int, int] = (12, 10, 6)
    slf_top: float = 160.0
    flight_dims: tuple[int, int, int] = (5, 5, 3)
    no_fly: tuple[Box3, ...] = ()
    num_users: int = 5
    gt_height: float = 0.0

    def __post_init__(self):
        _check_integers(streets_per_axis=self.streets_per_axis, slf_dims=self.slf_dims,
                        flight_dims=self.flight_dims, num_users=self.num_users)
        reals = (*self.area, self.building_height, self.absorption_db_per_m,
                 *self.flight_band, self.slf_top, self.gt_height)
        if not all(map(math.isfinite, reals)):
            raise ValueError("lengths, heights and absorption must be finite")
        if self.streets_per_axis[0] < 2 or self.streets_per_axis[1] < 2:
            raise ValueError("need at least 2 streets per axis")
        if self.building_height < 0 or self.absorption_db_per_m < 0:
            raise ValueError("building height and absorption must be nonnegative")
        if not 0 < self.flight_band[0] <= self.flight_band[1]:
            raise ValueError(f"bad flight band {self.flight_band}")
        if self.slf_top < self.flight_band[1]:
            raise ValueError("loss-field grid must cover the flight band")
        if not 0 <= self.gt_height <= self.slf_top:
            raise ValueError("users must sit inside the loss-field domain")
        if self.num_users < 1:
            raise ValueError("need at least one user")
        if not all(a > 0 for a in self.area):
            raise ValueError(f"area sides must be positive, got {self.area}")
        if min(self.slf_dims) < 1 or min(self.flight_dims) < 1:
            raise ValueError(
                f"grid dims must be positive, got slf_dims {self.slf_dims}"
                f" and flight_dims {self.flight_dims}"
            )


@dataclass(frozen=True)
class UrbanScenario:
    """A built environment: geometry, loss field, allowed flight points."""

    params: ScenarioParams
    channel: ChannelParams
    buildings: tuple[Box3, ...]
    slf: SlfField
    flight_grid: RegularGrid3
    flight_points: tuple[Point3, ...]
    flight_indices: tuple[int, ...]  # flat indices into the unfiltered flight grid

    @property
    def num_users(self) -> int:
        return self.params.num_users


def _building_strips(length: float, n_streets: int) -> list[tuple[float, float]]:
    """Building intervals along one axis: 2n-1 equal strips, buildings odd."""
    n = 2 * n_streets - 1
    width = length / n
    return [(k * width, (k + 1) * width) for k in range(1, n, 2)]


def _in_boxes(points: np.ndarray, boxes) -> np.ndarray:
    """Mask of the rows of ``points`` (N x 3) inside any of the closed boxes."""
    inside = np.zeros(len(points), dtype=bool)
    for box in boxes:
        inside |= np.all((points >= box.lo.as_array()) & (points <= box.hi.as_array()), axis=1)
    return inside


def build_urban(params: ScenarioParams, channel: ChannelParams) -> UrbanScenario:
    """Construct the environment: buildings, loss field, filtered flight grid."""
    lx, ly = params.area
    h = params.building_height
    buildings = tuple(
        Box3(Point3(x0, y0, 0.0), Point3(x1, y1, h))
        for x0, x1 in _building_strips(lx, params.streets_per_axis[0])
        for y0, y1 in _building_strips(ly, params.streets_per_axis[1])
    )

    qx, qy, qz = params.slf_dims
    spacing = (lx / qx, ly / qy, params.slf_top / qz)
    slf_grid = RegularGrid3(
        Point3(spacing[0] / 2, spacing[1] / 2, spacing[2] / 2), spacing, (qx, qy, qz)
    )
    inside = _in_boxes(slf_grid.points_array(), buildings)
    slf = SlfField(slf_grid, (params.absorption_db_per_m * inside).reshape(qx, qy, qz))

    gx, gy, gz = params.flight_dims
    z_lo, z_hi = params.flight_band
    fx = lx / gx
    fy = ly / gy
    if gz > 1:
        fz = (z_hi - z_lo) / (gz - 1)
        oz = z_lo
    else:
        fz = 1.0
        oz = 0.5 * (z_lo + z_hi)
    flight_grid = RegularGrid3(Point3(fx / 2, fy / 2, oz), (fx, fy, fz), (gx, gy, gz))
    fpts = flight_grid.points_array()
    allowed = np.flatnonzero(~_in_boxes(fpts, buildings + tuple(params.no_fly)))
    if allowed.size == 0:
        raise EmptyProblemError("no allowed flight-grid points remain after filtering")
    flight_points = tuple(Point3(*fpts[i]) for i in allowed)
    return UrbanScenario(
        params=params,
        channel=channel,
        buildings=buildings,
        slf=slf,
        flight_grid=flight_grid,
        flight_points=flight_points,
        flight_indices=tuple(int(i) for i in allowed),
    )


def on_street(scenario: UrbanScenario, x: float, y: float) -> bool:
    """True iff (x, y) lies inside the area but outside every footprint."""
    lx, ly = scenario.params.area
    if not (0 <= x <= lx and 0 <= y <= ly):
        return False
    return not any(b.contains_xy(x, y) for b in scenario.buildings)


def sample_users(scenario: UrbanScenario, m: int | None = None, rng=0) -> tuple[Point3, ...]:
    """Drop users uniformly at random on the streets (rejection sampling).

    ``rng`` is an integer seed, a SeedSequence, or a Generator; results are
    deterministic given the seed.
    """
    m = scenario.num_users if m is None else int(m)
    if m < 1:
        raise ValueError("need at least one user")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lx, ly = scenario.params.area
    z = scenario.params.gt_height
    users = []
    while len(users) < m:
        x = rng.uniform(0.0, lx)
        y = rng.uniform(0.0, ly)
        if on_street(scenario, x, y):
            users.append(Point3(x, y, z))
    return tuple(users)


def sample_instance(scenario: UrbanScenario, seed: int, rep: int) -> CapacityMatrix:
    """Capacity matrix of repetition ``rep`` of a seeded experiment.

    Its users come from their own stream, SeedSequence(entropy=seed,
    spawn_key=(rep,)), so a repetition draws the same users whatever the
    sweep value or the other repetitions.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    users = sample_users(scenario, scenario.num_users, rng)
    return build_capacity_matrix(scenario.channel, users, scenario.flight_points, scenario.slf)


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep over one variable with seeded Monte Carlo repetitions."""

    sweep: str  # "num_users" | "building_height" | "min_rate"
    values: tuple[float, ...]
    repetitions: int
    seed: int
    scenario: ScenarioParams
    channel: ChannelParams
    solvers: tuple[str, ...] = ("admm",)

    def __post_init__(self):
        if self.sweep not in ("num_users", "building_height", "min_rate"):
            raise ValueError(f"unknown sweep variable {self.sweep!r}")
        if not self.values:
            raise ValueError("sweep values must be nonempty")
        # the summary groups records by float(value), so a repeat would be
        # counted once per copy
        if len({float(v) for v in self.values}) < len(self.values):
            raise ValueError(f"sweep values must be distinct, got {self.values}")
        _check_integers(repetitions=self.repetitions, seed=self.seed)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:  # numpy's SeedSequence takes nonnegative entropy only
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        unknown = set(self.solvers) - set(SOLVER_NAMES)
        if unknown:
            raise ValueError(f"unknown solvers {sorted(unknown)}")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        # each name is run and summarised, so a repeat would count twice
        if len(set(self.solvers)) < len(self.solvers):
            raise ValueError(f"solvers must be distinct, got {self.solvers}")
        if self.sweep == "num_users" and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"num_users sweep values must be whole numbers, got {self.values}")
        for value in self.values:  # each sweep point must pass the scenario/channel checks
            _sweep_applied(self, value)


@dataclass(frozen=True)
class RunRecord:
    sweep_var: str
    sweep_value: float
    repetition: int
    solver: str
    n_abs: int | None  # None when the instance was infeasible or errored
    feasible: bool
    wall_ms: float
    seed: int
    guarded: bool = False  # the solver refused the instance size (GuardError)


@dataclass(frozen=True)
class SweepSummary:
    sweep_value: float
    solver: str
    mean_n: float | None
    stderr: float | None
    n_feasible: int
    n_infeasible: int
    n_guarded: int


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    records: tuple[RunRecord, ...]
    summary: tuple[SweepSummary, ...]


def _sweep_applied(spec: ExperimentSpec, value):
    scen, chan = spec.scenario, spec.channel
    if spec.sweep == "num_users":
        scen = replace(scen, num_users=int(value))
    elif spec.sweep == "building_height":
        scen = replace(scen, building_height=float(value))
    else:
        chan = chan.with_min_rate(float(value))
    return scen, chan


def _solve_one(name: str, cm: CapacityMatrix, r_min: float):
    if name == "admm":
        return solve_placement(cm, r_min).n_abs
    if name == "alpha_lp":
        return len(solve_alpha_lp(cm, r_min)[1])
    return exhaustive_min_abs(cm, r_min)[0]


def _run_repetition(spec: ExperimentSpec, scenario: UrbanScenario, value, rep: int):
    cm = sample_instance(scenario, spec.seed, rep)
    records = []
    for name in spec.solvers:
        start = time.perf_counter()
        n: int | None = None
        guarded = False
        # partial failures keep their row (with an empty count) so the rest
        # of the sweep still runs
        try:
            n = _solve_one(name, cm, scenario.channel.min_rate)
        except InfeasibleError:
            pass
        except GuardError:
            guarded = True
        wall_ms = (time.perf_counter() - start) * 1e3
        records.append(
            RunRecord(
                spec.sweep, float(value), rep, name, n, n is not None, wall_ms, spec.seed, guarded
            )
        )
    return records


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the sweep; per-run records plus mean/stderr aggregation.

    Infeasible runs and runs refused by a solver's size guard are recorded
    with ``feasible`` False and counted apart (``n_infeasible``,
    ``n_guarded``), but excluded from the means.
    Repetitions run serially in a fixed order, and each draws its users
    from its own seed, so the result is reproducible bit-for-bit from
    (spec, seed).
    """
    records: list[RunRecord] = []
    for value in spec.values:
        scen, chan = _sweep_applied(spec, value)
        scenario = build_urban(scen, chan)
        for rep in range(spec.repetitions):
            records.extend(_run_repetition(spec, scenario, value, rep))

    summary = []
    for value in spec.values:
        for name in spec.solvers:
            runs = [r for r in records if r.sweep_value == float(value) and r.solver == name]
            ns = [r.n_abs for r in runs if r.feasible]
            guarded = sum(r.guarded for r in runs)
            bad = len(runs) - len(ns) - guarded
            if ns:
                mean = float(np.mean(ns))
                stderr = float(np.std(ns, ddof=1) / np.sqrt(len(ns))) if len(ns) > 1 else 0.0
            else:
                mean = stderr = None
            summary.append(SweepSummary(float(value), name, mean, stderr, len(ns), bad, guarded))
    return ExperimentResult(spec=spec, records=tuple(records), summary=tuple(summary))


def write_runs_csv(result: ExperimentResult, path, record_timing: bool = False) -> None:
    """Per-run rows; wall_ms stays empty unless timing is recorded so reruns
    of the same config are byte-identical."""
    with open(path, "w", newline="") as fh:
        fh.write("sweep_var,sweep_value,repetition,solver,N,feasible,wall_ms,seed\n")
        for r in result.records:
            n = "" if r.n_abs is None else str(r.n_abs)
            wall = repr(round(r.wall_ms, 3)) if record_timing else ""
            fh.write(
                f"{r.sweep_var},{r.sweep_value!r},{r.repetition},{r.solver},"
                f"{n},{int(r.feasible)},{wall},{r.seed}\n"
            )


def write_summary_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("sweep_value,solver,mean_N,stderr,n_feasible,n_infeasible,n_guarded\n")
        for s in result.summary:
            mean = "" if s.mean_n is None else repr(s.mean_n)
            stderr = "" if s.stderr is None else repr(s.stderr)
            fh.write(
                f"{s.sweep_value!r},{s.solver},{mean},{stderr},"
                f"{s.n_feasible},{s.n_infeasible},{s.n_guarded}\n"
            )
