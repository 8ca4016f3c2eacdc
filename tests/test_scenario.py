import numpy as np
import pytest
from scipy import stats

from absplace import (
    Box3,
    ChannelParams,
    EmptyProblemError,
    ExperimentSpec,
    Point3,
    ScenarioParams,
    build_urban,
    noise_power_from_dbm,
    run_experiment,
    sample_users,
    write_runs_csv,
    write_summary_csv,
)
from absplace.scenario import on_street


def channel(min_rate=5e6):
    return ChannelParams.from_frequency(
        2.4e9, bandwidth=20e6, tx_power=0.1, noise_power=noise_power_from_dbm(-96), min_rate=min_rate
    )


def small_params(**kwargs):
    defaults = dict(slf_dims=(10, 8, 4), flight_dims=(4, 3, 2), num_users=2)
    defaults.update(kwargs)
    return ScenarioParams(**defaults)


class TestBuildUrban:
    def test_flat_city_is_free_space(self):
        sc = build_urban(small_params(building_height=0.0), channel())
        assert np.all(sc.slf.values == 0.0)
        assert len(sc.flight_points) == 4 * 3 * 2

    def test_building_voxel_gets_absorption(self):
        # strip-aligned grid: voxel centroids sit at strip centers
        params = small_params(
            streets_per_axis=(9, 9), slf_dims=(17, 17, 4), slf_top=160.0, building_height=80.0
        )
        sc = build_urban(params, channel())
        vals = sc.slf.values
        # odd strips hold buildings; centroid z = 20 < 80 is inside
        assert vals[1, 1, 0] == 3.0
        assert vals[0, 1, 0] == 0.0
        assert vals[1, 0, 0] == 0.0
        # above the roofline nothing absorbs
        assert np.all(vals[:, :, 3] == 0.0)

    def test_building_count_and_layout(self):
        sc = build_urban(small_params(streets_per_axis=(9, 9)), channel())
        assert len(sc.buildings) == 8 * 8
        # buildings never touch the area border (streets on the outside)
        for box in sc.buildings:
            assert box.lo.x > 0 and box.hi.x < 500
            assert box.lo.y > 0 and box.hi.y < 400

    def test_no_fly_filtering_matches_bruteforce(self):
        no_fly = (Box3(Point3(0, 0, 0), Point3(250, 400, 1000)),)
        params = small_params(no_fly=no_fly, flight_dims=(6, 5, 3))
        sc = build_urban(params, channel())
        full = build_urban(small_params(flight_dims=(6, 5, 3)), channel())
        survivors = [
            p
            for p in full.flight_points
            if not any(b.contains(p) for b in no_fly)
        ]
        assert list(sc.flight_points) == survivors
        assert len(sc.flight_points) == pytest.approx(len(full.flight_points) / 2, abs=6)

    def test_tall_buildings_block_airspace(self):
        params = small_params(building_height=200.0, flight_band=(50.0, 150.0), slf_top=260.0)
        sc = build_urban(params, channel())
        for p in sc.flight_points:
            assert not any(b.contains(p) for b in sc.buildings)

    def test_empty_flight_grid_raises(self):
        # a no-fly box over the whole airspace leaves nothing
        no_fly = (Box3(Point3(0, 0, 0), Point3(500, 400, 1000)),)
        with pytest.raises(EmptyProblemError):
            build_urban(small_params(no_fly=no_fly), channel())

    def test_flight_points_inside_slf_domain(self):
        sc = build_urban(small_params(), channel())
        lo, hi = sc.slf.grid.domain_bounds()
        for p in sc.flight_points:
            v = p.as_array()
            assert np.all(v >= lo) and np.all(v <= hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioParams(flight_band=(150.0, 50.0))
        with pytest.raises(ValueError):
            ScenarioParams(slf_top=100.0, flight_band=(50.0, 150.0))
        with pytest.raises(ValueError):
            ScenarioParams(streets_per_axis=(1, 9))
        with pytest.raises(ValueError, match="area"):
            ScenarioParams(area=(-500.0, 400.0))
        for dims in (dict(slf_dims=(0, 10, 6)), dict(flight_dims=(5, 0, 3))):
            with pytest.raises(ValueError, match="dims"):
                ScenarioParams(**dims)


class TestSampleUsers:
    def test_deterministic_given_seed(self):
        sc = build_urban(small_params(), channel())
        assert sample_users(sc, 5, 123) == sample_users(sc, 5, 123)
        assert sample_users(sc, 5, 123) != sample_users(sc, 5, 124)

    def test_all_users_on_streets(self):
        sc = build_urban(small_params(), channel())
        for user in sample_users(sc, 200, 9):
            assert on_street(sc, user.x, user.y)
            assert user.z == sc.params.gt_height

    def test_uniform_over_street_cells(self):
        # strips are equal width, so every street cell has equal area and
        # should catch an equal share of samples
        sc = build_urban(small_params(streets_per_axis=(5, 5)), channel())
        n = 30000
        users = sample_users(sc, n, 77)
        sx = 2 * 5 - 1
        wx, wy = 500.0 / sx, 400.0 / sx
        counts = {}
        for u in users:
            cx, cy = int(u.x // wx), int(u.y // wy)
            key = (min(cx, sx - 1), min(cy, sx - 1))
            counts[key] = counts.get(key, 0) + 1
        street_cells = [
            (i, j) for i in range(sx) for j in range(sx) if not (i % 2 == 1 and j % 2 == 1)
        ]
        observed = np.array([counts.get(c, 0) for c in street_cells])
        expected = np.full(len(street_cells), n / len(street_cells))
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        p_value = stats.chi2.sf(chi2, df=len(street_cells) - 1)
        assert p_value > 1e-4


class TestRunExperiment:
    def spec(self, **kwargs):
        defaults = dict(
            sweep="min_rate",
            values=(2e6, 5e6),
            repetitions=2,
            seed=3,
            scenario=small_params(),
            channel=channel(),
            solvers=("admm", "exhaustive"),
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_single_run_table(self):
        spec = self.spec(values=(5e6,), repetitions=1, solvers=("admm",), scenario=small_params(num_users=1))
        result = run_experiment(spec)
        assert len(result.records) == 1
        assert len(result.summary) == 1
        assert result.summary[0].mean_n == result.records[0].n_abs

    def test_mean_matches_external_recomputation(self):
        spec = self.spec(repetitions=3)
        result = run_experiment(spec)
        for s in result.summary:
            ns = [
                r.n_abs
                for r in result.records
                if r.sweep_value == s.sweep_value and r.solver == s.solver and r.feasible
            ]
            assert s.mean_n == pytest.approx(float(np.mean(ns)))
            assert s.n_feasible == len(ns)

    def test_oracle_monotone_in_min_rate(self):
        # same user draw per repetition across sweep values: per-instance
        # optimal counts can only grow with the rate target
        spec = self.spec(values=(1e6, 4e6, 1.6e7), repetitions=5, solvers=("exhaustive",))
        result = run_experiment(spec)
        per_rep = {}
        for r in result.records:
            assert r.feasible
            per_rep.setdefault(r.repetition, []).append((r.sweep_value, r.n_abs))
        for picks in per_rep.values():
            ns = [n for _, n in sorted(picks)]
            assert ns == sorted(ns)
        means = [s.mean_n for s in result.summary]
        assert means == sorted(means)

    def test_infeasible_runs_counted_not_averaged(self):
        # an absurd rate target makes every instance infeasible
        spec = self.spec(values=(1e14,), repetitions=2, solvers=("admm",))
        result = run_experiment(spec)
        assert all(not r.feasible for r in result.records)
        s = result.summary[0]
        assert s.mean_n is None and s.n_feasible == 0 and s.n_infeasible == 2

    def test_guard_failures_recorded_and_run_continues(self):
        # exhaustive search is guarded above 25 candidates; its rows fail
        # while the other solver's rows still fill in
        spec = self.spec(
            scenario=small_params(flight_dims=(5, 4, 2)),
            values=(5e6,),
            repetitions=1,
            solvers=("admm", "exhaustive"),
        )
        result = run_experiment(spec)
        by_solver = {r.solver: r for r in result.records}
        assert by_solver["admm"].feasible
        assert not by_solver["exhaustive"].feasible
        assert by_solver["exhaustive"].n_abs is None

    def test_guard_failures_counted_apart_from_infeasible(self):
        # the demo-05 city with 40 candidates: exhaustive search refuses
        # every instance, which is a guard violation, not infeasibility
        spec = self.spec(
            scenario=ScenarioParams(
                slf_dims=(17, 17, 4), building_height=60.0, flight_dims=(5, 4, 2), num_users=5
            ),
            values=(2e7,),
            repetitions=2,
            seed=42,
        )
        result = run_experiment(spec)
        assert [(r.solver, r.guarded) for r in result.records] == [
            ("admm", False), ("exhaustive", True), ("admm", False), ("exhaustive", True)
        ]
        admm, exhaustive = result.summary
        assert (admm.n_feasible, admm.n_infeasible, admm.n_guarded) == (2, 0, 0)
        assert (exhaustive.n_feasible, exhaustive.n_infeasible, exhaustive.n_guarded) == (0, 0, 2)
        assert exhaustive.mean_n is None

    def test_sweep_num_users(self):
        spec = self.spec(sweep="num_users", values=(1, 3), repetitions=1, solvers=("admm",))
        result = run_experiment(spec)
        assert len(result.records) == 2
        assert all(r.feasible for r in result.records)

    def test_all_three_solvers_agree_on_easy_instance(self):
        spec = self.spec(
            values=(2e6,), repetitions=2, solvers=("admm", "alpha_lp", "exhaustive")
        )
        result = run_experiment(spec)
        by_rep = {}
        for r in result.records:
            assert r.feasible
            by_rep.setdefault(r.repetition, {})[r.solver] = r.n_abs
        for ns in by_rep.values():
            assert ns["admm"] >= ns["exhaustive"]
            assert ns["alpha_lp"] >= ns["exhaustive"]

    def test_sweep_building_height_free_space_matches_oracle(self):
        spec = self.spec(sweep="building_height", values=(0.0,), repetitions=3)
        result = run_experiment(spec)
        by_rep = {}
        for r in result.records:
            by_rep.setdefault(r.repetition, {})[r.solver] = r.n_abs
        for rep, ns in by_rep.items():
            assert ns["admm"] == ns["exhaustive"]

    def test_csv_outputs(self, tmp_path):
        spec = self.spec(repetitions=1)
        result = run_experiment(spec)
        runs = tmp_path / "runs.csv"
        summary = tmp_path / "summary.csv"
        write_runs_csv(result, runs)
        write_summary_csv(result, summary)
        run_lines = runs.read_text().splitlines()
        assert run_lines[0] == "sweep_var,sweep_value,repetition,solver,N,feasible,wall_ms,seed"
        assert len(run_lines) == 1 + len(result.records)
        # timing suppressed by default so reruns are byte-identical
        assert all(line.split(",")[6] == "" for line in run_lines[1:])
        summary_lines = summary.read_text().splitlines()
        assert summary_lines[0] == "sweep_value,solver,mean_N,stderr,n_feasible,n_infeasible,n_guarded"
        assert len(summary_lines) == 1 + len(result.summary)

    def test_oracle_improves_with_nested_flight_refinement(self):
        # tripling the x dimension of a cell-centered axis keeps the old
        # points, so a finer grid can only match or beat the oracle count
        from absplace import build_capacity_matrix, exhaustive_min_abs

        chan = channel(min_rate=2e7)
        coarse = build_urban(small_params(flight_dims=(2, 2, 1)), chan)
        fine = build_urban(small_params(flight_dims=(6, 2, 1)), chan)
        coarse_xy = {(p.x, p.y, p.z) for p in coarse.flight_points}
        assert coarse_xy <= {(p.x, p.y, p.z) for p in fine.flight_points}
        for seed in range(10):
            users = sample_users(coarse, 3, seed)
            n_coarse = exhaustive_min_abs(
                build_capacity_matrix(chan, users, coarse.flight_points, coarse.slf), chan.min_rate
            )[0]
            n_fine = exhaustive_min_abs(
                build_capacity_matrix(chan, users, fine.flight_points, fine.slf), chan.min_rate
            )[0]
            assert n_fine <= n_coarse

    def test_validation(self):
        with pytest.raises(ValueError):
            self.spec(sweep="bogus")
        with pytest.raises(ValueError):
            self.spec(values=())
        with pytest.raises(ValueError):
            self.spec(solvers=("admm", "magic"))
        with pytest.raises(ValueError, match="whole numbers"):
            self.spec(sweep="num_users", values=(2.0, 2.7))
        # repeated points (equal as floats) would be summarised once per copy
        for sweep, values in (("min_rate", (2e6, 2e6)), ("num_users", (3, 4, 3.0))):
            with pytest.raises(ValueError, match="distinct"):
                self.spec(sweep=sweep, values=values)
        for sweep, value in (("num_users", 0.0), ("building_height", -5.0), ("min_rate", -1.0)):
            with pytest.raises(ValueError):
                self.spec(sweep=sweep, values=(value,))

    def test_repeated_solvers_rejected(self):
        # each copy used to be run, so that one rate and two repetitions
        # wrote four records and two equal summary rows of n_feasible 4
        for solvers in (("admm", "admm"), ("admm", "exhaustive", "admm")):
            with pytest.raises(ValueError, match="solvers must be distinct"):
                self.spec(solvers=solvers)
