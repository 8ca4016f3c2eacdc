import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import absplace
from absplace import (
    ChannelParams,
    GuardError,
    InfeasibleError,
    ScenarioParams,
    admm_solve,
    build_capacity_matrix,
    build_urban,
    exhaustive_min_abs,
    noise_power_from_dbm,
    sample_users,
    solve_alpha_lp,
    solve_epigraph_lp,
    solve_placement,
)
from absplace.placement import covers, greedy_cover_from_scores

from oracles import (
    clipped_alpha_lp_optimum,
    exhaustive_bitmask,
    random_feasible_instance,
    scipy_epigraph_optimum,
)


class TestExhaustive:
    def test_identity_like(self):
        r = 5e6
        values = r * np.eye(3)
        n, subset = exhaustive_min_abs(values, r)
        assert n == 3 and subset == (0, 1, 2)

    def test_single_covering_column(self):
        values = np.array([[1.0, 9.0, 0.5], [0.2, 9.0, 0.1]])
        n, subset = exhaustive_min_abs(values, r_min=8.0)
        assert n == 1 and subset == (1,)

    def test_matches_bitmask_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            values, r_min = random_feasible_instance(rng, m_max=4, g_max=8)
            n, subset = exhaustive_min_abs(values, r_min)
            ref = exhaustive_bitmask(values, r_min)
            assert ref is not None and n == ref[0]
            assert covers(values, subset, r_min)

    def test_guard(self):
        values = np.ones((1, 26))
        with pytest.raises(GuardError):
            exhaustive_min_abs(values, 0.5)

    def test_infeasible(self):
        values = np.array([[0.1, 0.1]])
        with pytest.raises(InfeasibleError) as err:
            exhaustive_min_abs(values, 1.0)
        assert err.value.users == (0,)

    def test_guard_before_coverability(self):
        # a too-wide matrix is refused by size even when no set covers, so
        # a sweep counts it as guarded, not infeasible
        with pytest.raises(GuardError):
            exhaustive_min_abs(np.full((1, 26), 0.01), 1.0)


class TestEpigraphLp:
    def test_single_cell_forced(self):
        r = 5e6
        obj, rates, slack = solve_epigraph_lp(np.array([[2 * r]]), r, np.array([1.0]))
        assert obj == pytest.approx(r, rel=1e-10)
        assert rates[0, 0] == pytest.approx(r, rel=1e-10)
        assert slack[0] == pytest.approx(r, rel=1e-10)

    def test_zero_weights_zero_objective(self):
        rng = np.random.default_rng(42)
        values, r_min = random_feasible_instance(rng, m_max=3, g_max=6)
        obj, rates, _ = solve_epigraph_lp(values, r_min, np.zeros(values.shape[1]))
        assert obj == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(rates.sum(axis=1), r_min, rtol=1e-9)

    def test_constraints_hold(self):
        rng = np.random.default_rng(43)
        values, r_min = random_feasible_instance(rng, m_max=4, g_max=7)
        w = rng.uniform(0.2, 2.0, values.shape[1])
        obj, rates, slack = solve_epigraph_lp(values, r_min, w)
        np.testing.assert_allclose(rates.sum(axis=1), r_min, rtol=1e-9)
        assert np.all(rates >= -1e-6) and np.all(rates <= values + 1e-6 * r_min)
        assert np.all(rates.max(axis=0) <= slack + 1e-6 * r_min)
        assert obj == pytest.approx(float(w @ slack), rel=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            values, r_min = random_feasible_instance(rng, m_max=3, g_max=6)
            w = rng.uniform(0.0, 2.0, values.shape[1])
            obj, _, _ = solve_epigraph_lp(values, r_min, w)
            ref = scipy_epigraph_optimum(values, r_min, w)
            assert obj == pytest.approx(ref, rel=1e-7, abs=1e-7 * max(1.0, r_min))

    def test_column_permutation_invariant_objective(self):
        rng = np.random.default_rng(45)
        values, r_min = random_feasible_instance(rng, m_max=3, g_max=7)
        w = rng.uniform(0.2, 2.0, values.shape[1])
        perm = rng.permutation(values.shape[1])
        a, _, _ = solve_epigraph_lp(values, r_min, w)
        b, _, _ = solve_epigraph_lp(values[:, perm], r_min, w[perm])
        assert a == pytest.approx(b, rel=1e-9)

    def test_infeasible_consistent_with_exhaustive(self):
        values = np.array([[0.3, 0.3]])
        with pytest.raises(InfeasibleError):
            solve_epigraph_lp(values, 1.0, np.ones(2))
        with pytest.raises(InfeasibleError):
            exhaustive_min_abs(values, 1.0)


class TestAlphaLp:
    def test_dominant_column(self):
        values = np.array([[0.2, 5.0, 0.1], [0.1, 5.0, 0.3]])
        alpha, selected = solve_alpha_lp(values, r_min=4.0)
        assert selected == (1,)
        assert alpha[1] > 0.5

    def test_identical_columns_single_choice(self):
        values = np.tile([[2.0], [3.0]], (1, 5))
        alpha, selected = solve_alpha_lp(values, r_min=1.5)
        assert len(selected) == 1

    def test_quality_against_exhaustive(self):
        rng = np.random.default_rng(46)
        hits = 0
        trials = 50
        for _ in range(trials):
            values, r_min = random_feasible_instance(rng, m_max=4, g_max=10)
            _, selected = solve_alpha_lp(values, r_min)
            assert covers(values, selected, r_min)
            n_star, _ = exhaustive_min_abs(values, r_min)
            assert len(selected) >= n_star
            if len(selected) <= n_star + 1:
                hits += 1
        assert hits / trials >= 0.8

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_alpha_lp(np.array([[0.4, 0.4]]), 1.0)

    def test_one_solve_reaches_the_clipped_lp_optimum(self):
        # the relaxation is solved once, so alpha sums to the optimum of
        # min sum(alpha) s.t. min(C / r_min, 1) alpha >= 1, 0 <= alpha <= 1
        rng = np.random.default_rng(1007)
        for _ in range(200):
            values, r_min = random_feasible_instance(rng, m_max=4, g_max=10)
            alpha, _ = solve_alpha_lp(values, r_min)
            assert abs(alpha.sum() - clipped_alpha_lp_optimum(values, r_min)) <= 1e-7


def test_oracle_dominance_across_paths():
    rng = np.random.default_rng(47)
    from absplace import CapacityMatrix, Point3

    for _ in range(20):
        values, r_min = random_feasible_instance(rng, m_max=3, g_max=8)
        n_star, _ = exhaustive_min_abs(values, r_min)
        cm = CapacityMatrix(
            values,
            tuple(Point3(m, 0, 0) for m in range(values.shape[0])),
            tuple(Point3(g, 1, 0) for g in range(values.shape[1])),
        )
        assert solve_placement(cm, r_min).n_abs >= n_star
        assert len(solve_alpha_lp(values, r_min)[1]) >= n_star


def test_admm_objective_equals_lp_on_random_weights():
    rng = np.random.default_rng(48)
    values, r_min = random_feasible_instance(rng, m_max=3, g_max=8)
    w = rng.uniform(0.1, 1.5, values.shape[1])
    state = admm_solve(values, r_min, w=w, eps_rel=1e-6, eps_abs=1e-9)
    obj, _, _ = solve_epigraph_lp(values, r_min, w)
    assert state.objective == pytest.approx(obj, rel=1e-3)


def _demo_city_matrix(seed: int, rep: int, r_min: float):
    """The capacity matrix of repetition ``rep`` of the demo-05 rate sweep
    at user seed ``seed`` and target ``r_min``: 5 users x 24 candidates."""
    chan = ChannelParams.from_frequency(
        2.4e9, bandwidth=20e6, tx_power=0.1, noise_power=noise_power_from_dbm(-96), min_rate=r_min
    )
    params = ScenarioParams(
        slf_dims=(17, 17, 4), building_height=60.0, flight_dims=(4, 3, 2), num_users=5
    )
    scenario = build_urban(params, chan)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    users = sample_users(scenario, 5, rng)
    cm = build_capacity_matrix(scenario.channel, users, scenario.flight_points, scenario.slf)
    assert cm.values.shape == (5, 24)
    return cm


def test_alpha_lp_certified_on_demo_city():
    # repetition 46 of the demo-05 rate sweep at seed 15, 180 Mb/s: a
    # 5 x 24 activation LP that an earlier LP solver could not certify,
    # which stopped the whole sweep
    r_min = 1.8e8
    cm = _demo_city_matrix(15, 46, r_min)
    n_star, _ = exhaustive_min_abs(cm, r_min)
    assert n_star == 2
    _, selected = solve_alpha_lp(cm, r_min)
    assert covers(cm.values, selected, r_min)
    assert len(selected) >= n_star


def test_alpha_lp_clipped_at_target_finds_single_station():
    # repetition 27 of the demo-05 rate sweep at seed 15, 100 Mb/s: one
    # station covers every user, but on unclipped capacities the LP spreads
    # alpha over strong columns at a small share each and greedy rounds
    # that to two stations
    r_min = 1e8
    cm = _demo_city_matrix(15, 27, r_min)
    assert exhaustive_min_abs(cm, r_min)[0] == 1
    _, selected = solve_alpha_lp(cm, r_min)
    assert len(selected) == 1
    assert covers(cm.values, selected, r_min)


# the solver entries that take a target rate, each as solve(values, r_min)
TARGET_SOLVERS = {
    "solve_placement": solve_placement,
    "admm_solve": admm_solve,
    "exhaustive": exhaustive_min_abs,
    "alpha_lp": solve_alpha_lp,
    "epigraph_lp": solve_epigraph_lp,
}
ALL_SOLVERS = pytest.mark.parametrize(
    "solve",
    [partial(solve, r_min=1.0) for solve in TARGET_SOLVERS.values()]
    + [lambda v: greedy_cover_from_scores(v, 1.0, np.ones(v.shape[-1]), [])],
    ids=[*TARGET_SOLVERS, "greedy"],
)


@ALL_SOLVERS
def test_no_users_is_a_value_error(solve):
    with pytest.raises(ValueError, match="no users"):
        solve(np.zeros((0, 3)))


@ALL_SOLVERS
@pytest.mark.parametrize(
    "values",
    [[[np.inf, 0.5]], [[np.nan, 2.0]], [[-0.5, 2.0]]],
    ids=["inf", "nan", "negative"],
)
def test_invalid_capacities_are_a_value_error(solve, values):
    # an infinite entry used to run solve_placement for 40,000 NaN
    # iterations into a "feasible" answer; a negative one breaks the
    # monotone coverage that greedy rounding relies on
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve(np.array(values))


@ALL_SOLVERS
def test_one_dimensional_matrix_is_a_value_error(solve):
    # the entry guard checks the matrix before any solver reads its shape
    with pytest.raises(ValueError, match="capacity matrix must be 2D"):
        solve(np.array([1.0, 2.0]))


@pytest.mark.parametrize("solve", TARGET_SOLVERS.values(), ids=TARGET_SOLVERS.keys())
@pytest.mark.parametrize("r_min", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_target_must_be_finite_and_positive(solve, r_min):
    # at zero solve_placement used to run 40,000 NaN iterations into an
    # empty "feasible" placement; at -1 the solvers disagreed
    with pytest.raises(ValueError, match="target rate must be finite and positive"):
        solve(np.array([[2.0, 0.5], [0.3, 1.5]]), r_min)


def test_import_defers_scipy_optimize():
    # scipy.optimize is loaded by the LP references on first use only, so
    # `import absplace` stays as cheap as the rest of the package
    src = str(Path(absplace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, absplace; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
