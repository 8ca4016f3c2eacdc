"""Acceptance suite: one end-to-end test per advertised guarantee, each at a
pinned tolerance.

Each test prints a PASS/FAIL line via the conftest hook. Oracles are the
independent implementations from tests/oracles.py (dense rectangle-rule
sampling, sorted-crossing merge, breakpoint root finding, scipy LP,
bitmask enumeration); expected values are never taken from the code paths
under test.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from absplace import (
    CapacityMatrix,
    ChannelParams,
    ExperimentSpec,
    Measurement,
    Point3,
    RegularGrid3,
    ScenarioParams,
    Segment3,
    SlfField,
    admm_solve,
    estimate_slf,
    exhaustive_min_abs,
    noise_power_from_dbm,
    run_experiment,
    shadowing_ellipsoid_sum,
    shadowing_line_integral,
    solve_epigraph_lp,
    solve_placement,
    traverse_voxels,
    x_step_column,
    z_step_row,
)
from absplace.cli import main as cli_main

from oracles import (
    dense_sampling_integral,
    merge_traversal_integral,
    random_feasible_instance,
    x_step_root_exact,
    z_step_root_exact,
)


def random_grid_and_field(rng, max_dim=16):
    dims = tuple(int(d) for d in rng.integers(4, max_dim + 1, 3))
    spacing = tuple(float(s) for s in rng.uniform(0.4, 2.5, 3))
    origin = Point3(*rng.uniform(-5, 5, 3))
    grid = RegularGrid3(origin, spacing, dims)
    return SlfField(grid, rng.uniform(0.5, 3.5, dims))


def random_segment(rng, grid, min_len):
    lo, hi = grid.domain_bounds()
    while True:
        a = rng.uniform(lo + 1e-9, hi - 1e-9)
        b = rng.uniform(lo + 1e-9, hi - 1e-9)
        if np.linalg.norm(b - a) >= min_len:
            return Segment3(Point3(*a), Point3(*b))


def as_matrix(values):
    return CapacityMatrix(
        values,
        tuple(Point3(m, 0, 0) for m in range(values.shape[0])),
        tuple(Point3(g, 1, 0) for g in range(values.shape[1])),
    )


def paper_channel(min_rate=5e6):
    return ChannelParams.from_frequency(
        2.4e9,
        bandwidth=20e6,
        tx_power=0.1,
        noise_power=noise_power_from_dbm(-96.0),
        min_rate=min_rate,
    )


def test_criterion_01_integrator_matches_oracles():
    """500 random (field, segment) pairs: dense sampling to 1e-3 relative,
    exact-crossing reimplementation to 1e-9, under 5 s total."""
    rng = np.random.default_rng(1001)
    cases = []
    for _ in range(500):
        field = random_grid_and_field(rng)
        seg = random_segment(rng, field.grid, min_len=1.0)
        cases.append((field, seg))
    # warm the jitted oracle so compilation is not billed to the criterion
    f0, s0 = cases[0]
    dense_sampling_integral(f0.values, f0.grid, s0.a.as_array(), s0.b.as_array(), n=10)

    start = time.perf_counter()
    worst_dense = 0.0
    worst_merge = 0.0
    for field, seg in cases:
        got = shadowing_line_integral(field, seg)
        a, b = seg.a.as_array(), seg.b.as_array()
        dense = dense_sampling_integral(field.values, field.grid, a, b, n=1_000_000)
        merge = merge_traversal_integral(field.values, field.grid, a, b)
        worst_dense = max(worst_dense, abs(got - dense) / abs(dense))
        worst_merge = max(worst_merge, abs(got - merge) / abs(merge))
    elapsed = time.perf_counter() - start

    assert worst_dense < 1e-3, f"dense-sampling mismatch {worst_dense:.2e}"
    assert worst_merge < 1e-9, f"exact-crossing mismatch {worst_merge:.2e}"
    assert elapsed < 5.0, f"integrator criterion took {elapsed:.2f}s"


def test_criterion_02_constant_field_closed_form():
    """Constant field: result equals l0 * sqrt(d) to 1e-12 relative on three
    very different grid spacings."""
    l0 = 3.0
    seg = Segment3(Point3(0.83, 1.21, 0.97), Point3(6.91, 5.48, 7.33))
    expect = l0 * math.sqrt(seg.length)
    spacings = [(1.0, 1.0, 1.0), (0.25, 0.4, 0.3), (3.7, 2.9, 4.4)]
    dims = [(9, 9, 9), (33, 21, 29), (3, 4, 3)]
    for spacing, dim in zip(spacings, dims):
        field = SlfField.constant(RegularGrid3(Point3(0, 0, 0), spacing, dim), l0)
        got = shadowing_line_integral(field, seg)
        assert got == pytest.approx(expect, rel=1e-12)


def test_criterion_03_continuity_vs_conventional_discontinuity():
    """A 1000-step endpoint sweep keeps traversal jumps under the linear
    modulus, while the ellipsoid sum hits an exact zero on a nonzero field."""
    rng = np.random.default_rng(1003)
    grid = RegularGrid3(Point3(0, 0, 0), (1.0, 1.0, 1.0), (8, 8, 8))
    field = SlfField(grid, rng.uniform(0.5, 3.5, grid.dims))
    anchor = Point3(1.23, 1.47, 1.31)
    start = np.array([5.13, 5.52, 5.29])
    step_dir = np.array([0.41, -0.23, 0.37])
    step_dir /= np.linalg.norm(step_dir)
    eta = 0.002  # below min spacing / 100
    values = []
    max_len = 0.0
    for k in range(1001):
        p = start + k * eta * step_dir
        seg = Segment3(anchor, Point3(*p))
        max_len = max(max_len, seg.length)
        values.append(shadowing_line_integral(field, seg))
    jumps = np.abs(np.diff(values))
    lo, hi = grid.domain_bounds()
    modulus = field.values.max() * (math.sqrt(max_len) + float(np.linalg.norm(hi - lo)))
    assert jumps.max() <= modulus * eta

    # constructed geometry: ellipsoid misses every grid point
    coarse = RegularGrid3(Point3(0, 0, 0), (10.0, 10.0, 10.0), (2, 2, 2))
    strong = SlfField.constant(coarse, 5.0)
    seg = Segment3(Point3(4.0, 4.0, 4.0), Point3(6.0, 6.0, 6.0))
    assert shadowing_ellipsoid_sum(strong, seg, width=0.5) == 0.0
    assert shadowing_line_integral(strong, seg) > 0.0


def test_criterion_04_crossing_bound_and_linear_complexity():
    """Interval count <= Qx+Qy+Qz+2 on 1e4 random segments; corner-to-corner
    wall time grows at most ~linearly in the grid side (fit exponent < 1.2)."""
    rng = np.random.default_rng(1004)
    grid = RegularGrid3(Point3(0, 0, 0), (0.9, 1.1, 0.7), (16, 16, 16))
    bound = sum(grid.dims) + 2
    for _ in range(10_000):
        seg = random_segment(rng, grid, min_len=0.05)
        trav = traverse_voxels(grid, seg)
        assert trav.num_intervals <= bound

    sides = [16, 32, 64, 128]
    times = []
    for q in sides:
        g = RegularGrid3(Point3(0, 0, 0), (1.0, 1.0, 1.0), (q, q, q))
        lo, hi = g.domain_bounds()
        seg = Segment3(
            Point3(lo[0] + 0.013, lo[1] + 0.029, lo[2] + 0.017),
            Point3(hi[0] - 0.011, hi[1] - 0.037, hi[2] - 0.023),
        )
        reps = max(1, 12800 // q)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                traverse_voxels(g, seg)
            best = min(best, (time.perf_counter() - t0) / reps)
        times.append(best)
    exponent = np.polyfit(np.log(sides), np.log(times), 1)[0]
    assert exponent < 1.2, f"wall-time growth exponent {exponent:.2f}"


def test_criterion_05_bisection_roots_and_brackets():
    """1e3 X-step and Z-step instances (sizes up to 50): roots inside the
    analytic brackets, residuals <= 1e-9 scale-relative, and agreement with
    the breakpoint-sort oracles to 1e-8."""
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        z = rng.normal(0, 2, m) * 10.0 ** rng.integers(-1, 3)
        u = rng.normal(0, 1, m)
        w = float(rng.uniform(0.001, 5))
        rho = float(rng.uniform(0.1, 4))
        r, s = x_step_column(z, u, w, rho)
        a = z - u
        target = w / rho
        assert a.min() - target / m - 1e-9 <= s <= a.max() - target / m + 1e-9
        resid = abs(float(np.maximum(a - s, 0.0).sum()) - target)
        assert resid <= 1e-9 * max(1.0, target)
        s_exact = x_step_root_exact(a, target)
        assert abs(s - s_exact) <= 1e-8 * max(1.0, abs(s_exact))
        np.testing.assert_allclose(r, np.minimum(a, s))

    for _ in range(1000):
        g = int(rng.integers(1, 51))
        c = rng.uniform(0.01, 3, g) * 10.0 ** rng.integers(-1, 3)
        r_min = float(c.sum() * rng.uniform(0.15, 0.999))
        r_row = rng.normal(0, 1, g) * max(1.0, r_min / g)
        u_row = rng.normal(0, 1, g)
        z = z_step_row(r_row, u_row, c, r_min)
        b = r_row + u_row
        assert abs(float(z.sum()) - r_min) <= 1e-9 * max(1.0, r_min)
        assert np.all(z >= -1e-12) and np.all(z <= c + 1e-9 * max(1.0, c.max()))
        lam_exact = z_step_root_exact(b, c, r_min)
        lam_lo = float((b - c).min())
        big = c > r_min / g
        lam_hi = float(b[big].max() - r_min / g) if big.any() else lam_lo
        scale = max(1.0, abs(lam_lo), abs(lam_hi))
        assert lam_lo - 1e-9 * scale <= lam_exact <= max(lam_hi, lam_lo) + 1e-9 * scale
        z_exact = np.maximum(0.0, np.minimum(c, b - lam_exact))
        np.testing.assert_allclose(z, z_exact, atol=1e-7 * max(1.0, r_min, np.abs(b).max()))


def test_criterion_06_admm_matches_epigraph_lp():
    """100 random feasible instances (M<=5, G<=12): converged objective within
    1e-3 relative of the exact LP; Z row sums hold to 1e-6*r_min at every
    iteration; under 60 s total."""
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    for trial in range(100):
        values, r_min = random_feasible_instance(rng, m_max=5, g_max=12)
        w = np.ones(values.shape[1]) if trial % 2 else rng.uniform(0.1, 2.0, values.shape[1])
        # tight tolerances can enter ADMM's slow boundary crawl on degenerate
        # instances, so give the iteration cap room to spare
        state = admm_solve(values, r_min, w=w, eps_rel=1e-6, eps_abs=1e-9, max_iter=300_000)
        assert state.converged
        assert state.row_sum_max_dev <= 1e-6 * r_min
        lp_obj, _, _ = solve_epigraph_lp(values, r_min, w)
        assert state.objective == pytest.approx(lp_obj, rel=1e-3, abs=1e-9 * r_min)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"ADMM-vs-LP criterion took {elapsed:.1f}s"


def test_criterion_07_placement_within_one_of_exhaustive():
    """200 random feasible instances (M<=4, G<=10): always feasible, never
    below the exhaustive optimum, within +1 of it in >= 90% of trials."""
    rng = np.random.default_rng(1007)
    within_one = 0
    for _ in range(200):
        values, r_min = random_feasible_instance(rng, m_max=4, g_max=10)
        result = solve_placement(as_matrix(values), r_min)
        n_star, _ = exhaustive_min_abs(values, r_min)
        assert result.feasible
        assert np.all(values[:, list(result.selected)].sum(axis=1) >= r_min - 1e-9 * r_min)
        assert result.n_abs >= n_star
        if result.n_abs <= n_star + 1:
            within_one += 1
    assert within_one >= 180, f"only {within_one}/200 within +1 of the optimum"


def test_criterion_08_qualitative_trends():
    """Desk-scale sweeps: mean station count nondecreasing in the rate target
    for both solvers, and at zero building height the ADMM count equals the
    exhaustive optimum on every instance; under 5 minutes."""
    start = time.perf_counter()
    scenario = ScenarioParams(slf_dims=(10, 8, 4), flight_dims=(4, 3, 2), num_users=3)
    spec = ExperimentSpec(
        sweep="min_rate",
        values=(1e6, 4e6, 1.6e7),
        repetitions=20,
        seed=8,
        scenario=scenario,
        channel=paper_channel(),
        solvers=("admm", "exhaustive"),
    )
    result = run_experiment(spec)
    assert all(r.feasible for r in result.records)
    for solver in spec.solvers:
        means = [s.mean_n for s in result.summary if s.solver == solver]
        assert means == sorted(means), f"{solver} mean N not monotone: {means}"
    # per-instance monotonicity is exact for the oracle
    per_rep = {}
    for r in result.records:
        if r.solver == "exhaustive":
            per_rep.setdefault(r.repetition, []).append((r.sweep_value, r.n_abs))
    for picks in per_rep.values():
        ns = [n for _, n in sorted(picks)]
        assert ns == sorted(ns)

    flat = ExperimentSpec(
        sweep="building_height",
        values=(0.0,),
        repetitions=20,
        seed=9,
        scenario=scenario,
        channel=paper_channel(8e6),
        solvers=("admm", "exhaustive"),
    )
    flat_result = run_experiment(flat)
    by_rep = {}
    for r in flat_result.records:
        by_rep.setdefault(r.repetition, {})[r.solver] = r.n_abs
    for rep, ns in by_rep.items():
        assert ns["admm"] == ns["exhaustive"], f"free-space mismatch at repetition {rep}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"trend criterion took {elapsed:.1f}s"


def test_criterion_09_slf_estimation_round_trip():
    """Noiseless synthetic measurements with >= 3 crossings per voxel invert
    to the generating field within 1e-3 relative on those voxels."""
    rng = np.random.default_rng(1009)
    grid = RegularGrid3(Point3(0, 0, 0), (1.0, 1.0, 1.0), (4, 4, 3))
    truth = SlfField(grid, rng.uniform(0.2, 2.8, grid.dims))
    measurements = []
    counts = np.zeros(grid.dims, dtype=int)
    for _ in range(600):
        seg = random_segment(rng, grid, min_len=1.5)
        trav = traverse_voxels(grid, seg)
        for voxel, length in zip(trav.voxels, trav.interval_lengths()):
            if length > 0:
                counts[tuple(voxel)] += 1
        measurements.append(Measurement(seg.a, seg.b, shadowing_line_integral(truth, seg)))
    assert np.all(counts >= 3), "measurement set must cross every voxel >= 3 times"
    estimate = estimate_slf(measurements, grid)
    rel_err = np.abs(estimate.values - truth.values) / truth.values
    assert rel_err.max() < 1e-3, f"worst voxel error {rel_err.max():.2e}"


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI command run twice with the same config and seed produces
    byte-identical outputs."""
    small = [
        "-O", "scenario.slf_dims=[10,8,4]",
        "-O", "scenario.flight_dims=[4,3,2]",
        "-O", "scenario.num_users=2",
    ]
    runner = CliRunner()

    def run(args):
        res = runner.invoke(cli_main, args, catch_exceptions=False)
        return res.exit_code, res.output.encode()

    for args in (
        ["map", *small, "--tx", "12,34,0", "--rx", "310,270,80"],
        ["oracle", *small, "--compare-admm"],
    ):
        code_a, out_a = run(args)
        code_b, out_b = run(args)
        assert code_a == code_b == 0
        assert out_a == out_b

    for command, files in (
        ("place", ["placement.json", "positions.csv", "trace.csv"]),
        ("experiment", ["runs.csv", "summary.csv"]),
    ):
        payloads = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{command}_{tag}"
            args = [command, *small, "-O", "output.write_trace=true",
                    "-O", "experiment.repetitions=2", "-o", str(out_dir)]
            code, _ = run(args)
            assert code == 0
            payloads.append({f: (out_dir / f).read_bytes() for f in files if (out_dir / f).exists()})
        assert payloads[0] and payloads[0] == payloads[1]

    json_payload = json.loads(run(["map", *small, "--tx", "12,34,0", "--rx", "310,270,80"])[1])
    assert set(json_payload) == {"xi_traversal", "xi_ellipsoid", "gain_db", "capacity_mbps"}
