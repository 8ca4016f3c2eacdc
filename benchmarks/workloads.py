"""The three benchmark workloads.

Each workload builds its inputs from the seed (untimed), then runs rounds.
A round fits the radio map of the workload's city (fit_s), then runs the
workload's operations in FITS - 1 parts with a fit after each part. A
round is always the same operations on the same inputs, so every count a
round yields repeats exactly; run.py repeats rounds until the run's time
is used. check() tests the first round's outputs against independent
computations; run.py requires every later round to reproduce them.

Every call into absplace goes through a module attribute (placement.admm_solve,
not a name imported here), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from absplace import Measurement, Point3, channel, placement, scenario, tomography
from oracles import merge_traversal_integral, random_feasible_instance

import checks
from checks import require
from inputs import (
    CHANNEL,
    FAMILY_SEED,
    FAMILY_SIZE,
    FAMILY_TOLERANCES,
    SURVEY_SEED,
    SWEEP_CITY,
    SWEEP_RATES,
    SWEEP_REPETITIONS,
    SWEEP_SURVEY_LINKS,
    URBAN_CITY,
    URBAN_DRAWS,
    URBAN_RATES,
    URBAN_SURVEY_LINKS,
)

GROUND_HEIGHT = 1.5  # m, the ground end of a survey link
AIR_FLOOR = 10.0  # m, the lowest air end of a survey link
MIN_CROSSINGS = 3  # the fitted field is checked on voxels crossed this often
FIT_TOLERANCE = 1e-3  # dB/m, against an absorption of 3 dB/m inside buildings
LINKS_CHECKED_PER_DRAW = 24


@dataclass
class Round:
    """Timings and outputs of one round: a fit, then the workload's operations.

    place_s and solve_s hold one time per operation, fit_s one per fit.
    """

    fit_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    instances: int = 0  # numerator of instances_per_s
    busy_s: float = 0.0  # denominator of instances_per_s
    place_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    stations: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # compared across rounds
    kept: list = field(default_factory=list)  # inputs the checks need


def _failed(what: str) -> None:
    """Report an operation that raised; the run goes on and counts it."""
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Survey:
    """Noiseless ground-to-air link measurements of a city's loss field.

    Values come from the per-axis crossing enumeration of tests/oracles.py,
    not from the traversal the estimator uses. The survey is drawn from
    SURVEY_SEED, so one city always has the same survey.
    """

    def __init__(self, city, links: int):
        self.city = city
        grid = city.slf.grid
        lx, ly = city.params.area
        rng = np.random.default_rng(SURVEY_SEED)
        ground = np.column_stack(
            [rng.uniform(0, lx, links), rng.uniform(0, ly, links), np.full(links, GROUND_HEIGHT)]
        )
        # The air end samples every height of the loss grid, not only the
        # flight band: if every link crossed the same two whole voxel layers,
        # a constant shift between them would leave every measurement alike.
        air = np.column_stack(
            [
                rng.uniform(0, lx, links),
                rng.uniform(0, ly, links),
                rng.uniform(AIR_FLOOR, city.params.slf_top, links),
            ]
        )
        truth = city.slf.values
        self.crossings = np.zeros(grid.num_points, dtype=np.int64)
        self.measurements = []
        for a, b in zip(ground, air):
            np.add.at(self.crossings, checks.crossed_voxels(grid, a, b), 1)
            value = merge_traversal_integral(truth, grid, a, b)
            self.measurements.append(Measurement(Point3(*a), Point3(*b), value))

    def check(self, fitted) -> None:
        crossed = self.crossings >= MIN_CROSSINGS
        err = np.abs(fitted.values.ravel() - self.city.slf.values.ravel())[crossed]
        require(crossed.any(), "survey crosses no voxel often enough to check the fit")
        require(
            err.max() <= FIT_TOLERANCE,
            f"fitted field off by {err.max():.3g} dB/m on a voxel crossed "
            f">= {MIN_CROSSINGS} times (tolerance {FIT_TOLERANCE})",
        )


class Workload:
    """A round fits the loss field of the workload's city from its survey
    with estimate_slf (timed as fit_s), then runs the operations on the
    fitted field in FITS - 1 parts with a fit after each, so that the fits
    sample the run at as many moments as the operations do."""

    FITS = 2  # fits per round

    def __init__(self, seed: int, city, survey_links: int):
        self.seed = seed
        self.city = city
        self.survey = Survey(city, survey_links)
        self.field = None

    def run_round(self) -> Round:
        r = Round()
        self.fit(r)
        for part in range(self.FITS - 1):
            self.operate(r, part, self.FITS - 1)
            self.fit(r)
        return r

    def fit(self, r: Round) -> None:
        start = perf_counter()
        self.field = tomography.estimate_slf(self.survey.measurements, self.city.slf.grid)
        r.fit_s.append(perf_counter() - start)

    def check(self, rounds: list[Round]) -> None:
        self.survey.check(self.field)
        self.check_outputs(rounds[0])

    def operate(self, r: Round, part: int, parts: int) -> None:
        """Run the part-th of parts equal shares of the round's operations."""
        raise NotImplementedError

    def check_outputs(self, first: Round) -> None:
        raise NotImplementedError


class UrbanPlace(Workload):
    """The paper's pipeline on one city: fit the map, then place on it.

    A round draws URBAN_DRAWS user sets (20 users each, seeded by
    (seed, draw)); for each it builds the capacity matrix on the fitted
    field and calls solve_placement at every rate in URBAN_RATES. One
    operation is one placement; its place_s counts the matrix of its draw.
    """

    FITS = 4  # a run holds one round, so its fits go between the draws

    def __init__(self, seed: int):
        super().__init__(seed, scenario.build_urban(URBAN_CITY, CHANNEL), URBAN_SURVEY_LINKS)

    def operate(self, r: Round, part: int, parts: int) -> None:
        for d in map(int, np.array_split(np.arange(URBAN_DRAWS), parts)[part]):
            rng = np.random.default_rng([self.seed, d])
            users = scenario.sample_users(self.city, URBAN_CITY.num_users, rng)
            r.attempted += len(URBAN_RATES)
            try:
                start = perf_counter()
                cm = channel.build_capacity_matrix(CHANNEL, users, self.city.flight_points, self.field)
                t_matrix = perf_counter() - start
            except Exception:
                _failed(f"capacity matrix of draw {d}")
                r.failed += len(URBAN_RATES)
                continue
            r.busy_s += t_matrix
            r.kept.append((d, cm))
            for rate in URBAN_RATES:
                try:
                    start = perf_counter()
                    result = placement.solve_placement(cm, rate)
                    t_solve = perf_counter() - start
                except Exception:
                    _failed(f"placement of draw {d} at {rate:g} bit/s")
                    r.failed += 1
                    continue
                r.instances += 1
                r.busy_s += t_solve
                r.place_s.append(t_matrix + t_solve)
                r.solve_s.append(t_solve)
                r.stations.append(result.n_abs)
                r.outputs.append((d, rate, result.selected))

    def check_outputs(self, first: Round) -> None:
        grid, values = self.field.grid, self.field.values
        for d, cm in first.kept:
            rng = np.random.default_rng([self.seed, d, 1])
            for _ in range(LINKS_CHECKED_PER_DRAW):
                m = int(rng.integers(cm.num_users))
                g = int(rng.integers(cm.num_candidates))
                a, b = cm.users[m].as_array(), cm.candidates[g].as_array()
                shadow = merge_traversal_integral(values, grid, a, b)
                want = checks.capacity_closed_form(CHANNEL, a, b, shadow)
                got = cm.values[m, g]
                require(
                    abs(got - want) <= 1e-9 * want,
                    f"draw {d}: capacity of user {m} to candidate {g} is {got!r}, "
                    f"independently {want!r}",
                )
        matrices = dict(first.kept)
        for d, rate, selected in first.outputs:
            checks.check_placement(matrices[d].values, rate, selected, f"draw {d} at {rate:g} bit/s")


class AdmmFamily(Workload):
    """The criterion-06 family: random feasible matrices, tight tolerances.

    The family is fixed (generator seed FAMILY_SEED); the run's seed only
    sets the order in which a round solves it. One operation is one
    instance: admm_solve at criterion 06's tolerances (timed as solve_s),
    then solve_placement at its defaults (timed as place_s). The round's
    fits are of the competitor_sweep city; the family does not use them.
    """

    FITS = 4  # as many fits a run as competitor_sweep, in half the rounds

    def __init__(self, seed: int):
        super().__init__(seed, scenario.build_urban(SWEEP_CITY, CHANNEL), SWEEP_SURVEY_LINKS)
        rng = np.random.default_rng(FAMILY_SEED)
        self.family = []
        for trial in range(FAMILY_SIZE):
            values, r_min = random_feasible_instance(rng, m_max=5, g_max=12)
            g = values.shape[1]
            w = np.ones(g) if trial % 2 else rng.uniform(0.1, 2.0, g)
            self.family.append((values, r_min, w))
        self.order = np.random.default_rng(seed).permutation(FAMILY_SIZE)

    def operate(self, r: Round, part: int, parts: int) -> None:
        for i in np.array_split(self.order, parts)[part]:
            values, r_min, w = self.family[i]
            r.attempted += 1
            try:
                start = perf_counter()
                state = placement.admm_solve(values, r_min, w=w, **FAMILY_TOLERANCES)
                t_admm = perf_counter() - start
                start = perf_counter()
                result = placement.solve_placement(values, r_min)
                t_place = perf_counter() - start
            except Exception:
                _failed(f"family instance {i}")
                r.failed += 1
                continue
            r.instances += 1
            r.busy_s += t_admm
            r.solve_s.append(t_admm)
            r.place_s.append(t_place)
            r.stations.append(result.n_abs)
            r.outputs.append((int(i), state.iterations, state.objective, result.selected))
            r.kept.append(state)

    def check_outputs(self, first: Round) -> None:
        for (i, _, _, selected), state in zip(first.outputs, first.kept):
            values, r_min, w = self.family[i]
            checks.check_admm(state, values, r_min, w, f"family instance {i}")
            checks.check_placement(values, r_min, selected, f"family instance {i}")


class CompetitorSweep(Workload):
    """run_experiment over the rate target with admm and exhaustive.

    A round fits the city's map, then makes one run_experiment call:
    SWEEP_REPETITIONS user draws (the spec's seed is the run's seed) at each
    rate in SWEEP_RATES, every instance solved by both solvers. One
    operation is one user draw with its instance at every rate: solve_s is
    both solvers' time on them, place_s the admm solver's, both as
    run_experiment records them (wall_ms). Per draw rather than per
    instance, because the admm time of one instance has two modes (about
    1.3 and 2.2 ms on the reference machine) and a median near their
    boundary jumps from run to run. The capacity matrices run_experiment builds are recorded on
    the way so that the exhaustive counts can be checked against them.
    """

    # alpha_lp is left out: its dense simplex fails its optimality
    # certificate on some user draws (a RuntimeError from reference._certify
    # that run_experiment does not catch; --seed 15, repetition 46 at
    # 180 Mb/s), so whether a run fails would depend on the seed.
    SOLVERS = ("admm", "exhaustive")

    def __init__(self, seed: int):
        super().__init__(seed, scenario.build_urban(SWEEP_CITY, CHANNEL), SWEEP_SURVEY_LINKS)
        self.spec = scenario.ExperimentSpec(
            sweep="min_rate",
            values=SWEEP_RATES,
            repetitions=SWEEP_REPETITIONS,
            seed=seed,
            scenario=SWEEP_CITY,
            channel=CHANNEL,
            solvers=self.SOLVERS,
        )

    def operate(self, r: Round, part: int, parts: int) -> None:
        # FITS is 2: the round's one run_experiment call is its only part.
        n_rates, reps, k = len(SWEEP_RATES), SWEEP_REPETITIONS, len(self.SOLVERS)
        r.attempted = reps
        matrices = []
        build = scenario.build_capacity_matrix

        def recording(*args, **kwargs):
            cm = build(*args, **kwargs)
            matrices.append(cm.values)
            return cm

        scenario.build_capacity_matrix = recording
        try:
            start = perf_counter()
            result = scenario.run_experiment(self.spec)
            r.busy_s = perf_counter() - start
        except Exception:
            _failed("run_experiment")
            r.failed = reps
            return
        finally:
            scenario.build_capacity_matrix = build
        # records run rate by rate, then repetition, then solver
        for rep in range(reps):
            recs = [result.records[k * (v * reps + rep) + j] for v in range(n_rates) for j in range(k)]
            if not all(rec.feasible and rec.n_abs is not None for rec in recs):
                r.failed += 1
                continue
            admm = [rec for rec in recs if rec.solver == "admm"]
            r.instances += n_rates
            r.solve_s.append(sum(rec.wall_ms for rec in recs) / 1e3)
            r.place_s.append(sum(rec.wall_ms for rec in admm) / 1e3)
            r.stations.extend(rec.n_abs for rec in admm)
        r.outputs = [(rec.sweep_value, rec.repetition, rec.solver, rec.n_abs) for rec in result.records]
        r.kept = matrices

    def check_outputs(self, first: Round) -> None:
        n_rates, reps = len(SWEEP_RATES), SWEEP_REPETITIONS
        require(len(first.kept) == n_rates * reps, f"{len(first.kept)} capacity matrices recorded")
        counts = {}
        for value, rep, solver, n in first.outputs:
            counts[value, rep, solver] = n
        for i, values in enumerate(first.kept):
            rate, rep = SWEEP_RATES[i // reps], i % reps
            if any(counts[rate, rep, solver] is None for solver in self.SOLVERS):
                continue  # a failed operation, counted by operate
            where = f"repetition {rep} at {rate:g} bit/s"
            n_star = counts[rate, rep, "exhaustive"]
            require(
                n_star == checks.min_cover_size(values, rate),
                f"{where}: exhaustive count {n_star} differs from the bitmask enumeration",
            )
            require(
                counts[rate, rep, "admm"] >= n_star,
                f"{where}: admm uses {counts[rate, rep, 'admm']} < exhaustive {n_star}",
            )
        for rep in range(reps):
            ns = [counts[rate, rep, "exhaustive"] for rate in SWEEP_RATES]
            if None not in ns:
                require(ns == sorted(ns), f"repetition {rep}: exhaustive counts {ns} fall with the rate")


WORKLOADS = {
    "urban_place": UrbanPlace,
    "admm_family": AdmmFamily,
    "competitor_sweep": CompetitorSweep,
}
