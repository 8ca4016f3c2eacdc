import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absplace import (
    CapacityMatrix,
    ChannelParams,
    InfeasibleError,
    Point3,
    ScenarioParams,
    admm_solve,
    build_capacity_matrix,
    build_urban,
    covers,
    exhaustive_min_abs,
    noise_power_from_dbm,
    reweight,
    sample_users,
    solve_epigraph_lp,
    solve_placement,
    write_trace_csv,
    x_step_column,
    z_step_row,
)

from absplace import placement
from absplace.placement import greedy_cover_from_scores
from oracles import (
    clipped_alpha_lp_duals,
    clipped_alpha_lp_optimum,
    fsum_covers,
    greedy_cover_reference,
    random_feasible_instance,
    scipy_epigraph_optimum,
    x_step_root_exact,
    z_step_root_exact,
    z_step_stable_reference,
)


def as_matrix(values):
    values = np.asarray(values, dtype=float)
    users = tuple(Point3(m, 0, 0) for m in range(values.shape[0]))
    cands = tuple(Point3(g, 1, 0) for g in range(values.shape[1]))
    return CapacityMatrix(values, users, cands)


class TestXStep:
    def test_single_entry_closed_form(self):
        r, s = x_step_column(np.array([1.0]), np.array([0.0]), w_g=1.0, rho=1.0)
        assert s == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(r, [0.0], atol=1e-12)

    def test_zero_weight_is_identity(self):
        z = np.array([0.4, -1.2, 3.3])
        u = np.array([0.1, 0.1, -0.2])
        r, s = x_step_column(z, u, w_g=0.0, rho=2.0)
        np.testing.assert_array_equal(r, z - u)
        assert s == (z - u).max()

    def test_random_against_breakpoint_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            a = rng.normal(0, 3, m)
            w = float(rng.uniform(0.01, 4))
            rho = float(rng.uniform(0.2, 3))
            r, s = x_step_column(a, np.zeros(m), w, rho)
            target = w / rho
            # root stays inside the analytic bracket
            assert a.min() - target / m - 1e-12 <= s <= a.max() - target / m + 1e-12
            resid = abs(np.maximum(a - s, 0.0).sum() - target)
            assert resid <= 1e-9 * max(1.0, target)
            s_exact = x_step_root_exact(a, target)
            assert s == pytest.approx(s_exact, abs=1e-8 * max(1.0, abs(s_exact)))
            np.testing.assert_allclose(r, np.minimum(a, s), atol=1e-12)

    def test_target_function_is_nonincreasing(self):
        rng = np.random.default_rng(22)
        a = rng.normal(0, 1, 6)
        samples = np.linspace(a.min() - 1, a.max() + 1, 50)
        f = [np.maximum(a - s, 0.0).sum() for s in samples]
        assert all(x >= y - 1e-12 for x, y in zip(f, f[1:]))


class TestZStep:
    def test_single_column_forced(self):
        z = z_step_row(np.array([0.3]), np.array([0.0]), np.array([5e6]), r_min=5e6)
        np.testing.assert_allclose(z, [5e6], rtol=1e-12)

    def test_flat_water_level(self):
        g = 6
        c = np.full(g, 1e12)
        z = z_step_row(np.zeros(g), np.zeros(g), c, r_min=3.0)
        np.testing.assert_allclose(z, np.full(g, 0.5), rtol=1e-9)

    def test_infeasible_row(self):
        with pytest.raises(InfeasibleError):
            z_step_row(np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 0.5]), r_min=4.0)

    def test_random_against_breakpoint_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            g = int(rng.integers(1, 10))
            c = rng.uniform(0.05, 3, g)
            r_min = float(c.sum() * rng.uniform(0.2, 0.999))
            b = rng.normal(0, 2, g)
            z = z_step_row(b, np.zeros(g), c, r_min)
            assert z.sum() == pytest.approx(r_min, rel=1e-9)
            assert np.all(z >= -1e-12) and np.all(z <= c + 1e-9)
            lam_exact = z_step_root_exact(b, c, r_min)
            z_exact = np.maximum(0.0, np.minimum(c, b - lam_exact))
            np.testing.assert_allclose(z, z_exact, atol=1e-7 * max(1.0, r_min))

    def test_target_function_is_nonincreasing(self):
        rng = np.random.default_rng(24)
        g = 7
        c = rng.uniform(0.1, 2, g)
        b = rng.normal(0, 1, g)
        samples = np.linspace((b - c).min() - 1, b.max() + 1, 60)
        vals = [np.maximum(0.0, np.minimum(c, b - lam)).sum() for lam in samples]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestExactNumpySteps:
    """Half-steps on degenerate inputs."""

    @staticmethod
    def check_x_columns(A, w, rho):
        from absplace.placement import _XStep

        R, s = _XStep(w, A.shape[0], rho)(A)
        for g in range(A.shape[1]):
            a = A[:, g]
            expect = x_step_root_exact(a, w[g] / rho) if w[g] > 0 else a.max()
            scale = max(1.0, np.abs(a).max())
            assert abs(s[g] - expect) <= 1e-12 * scale
            np.testing.assert_allclose(R[:, g], np.minimum(a, expect), rtol=0, atol=1e-12 * scale)
        return R, s

    @staticmethod
    def check_z_rows(B, C, r_min):
        from absplace.placement import _ZStep

        Z = _ZStep(C, r_min)(B)
        scan = z_step_stable_reference(B, C, r_min)
        for m in range(B.shape[0]):
            lam = z_step_root_exact(B[m], C[m], r_min)
            expect = np.maximum(0.0, np.minimum(C[m], B[m] - lam))
            scale = max(1.0, r_min, np.abs(B[m]).max())
            np.testing.assert_allclose(Z[m], expect, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(Z[m], scan[m], rtol=0, atol=1e-12 * scale)
            assert abs(Z[m].sum() - r_min) <= 1e-12 * scale
        return Z

    def test_x_duplicate_columns(self):
        rng = np.random.default_rng(40)
        col = rng.normal(0, 2, 5)
        A = np.column_stack([col, col, rng.normal(0, 2, 5), col])
        R, s = self.check_x_columns(A, np.array([0.7, 0.7, 1.3, 0.7]), rho=1.1)
        np.testing.assert_array_equal(R[:, 0], R[:, 1])
        np.testing.assert_array_equal(R[:, 0], R[:, 3])
        assert s[0] == s[1] == s[3]

    def test_x_exact_ties(self):
        # roots above, exactly on and below the tied pair at 0.5, under a
        # threefold tie at 1.0; the last column ties every entry
        A = np.tile(np.array([[1.0], [1.0], [1.0], [0.5], [0.5], [-2.0]]), (1, 4))
        A[:, 3] = 2.0
        _, s = self.check_x_columns(A, np.array([0.3, 1.5, 3.0, 1.5]), rho=1.0)
        np.testing.assert_allclose(s, [0.9, 0.5, 0.2, 1.75], rtol=0, atol=1e-15)

    def test_x_zero_weight_columns(self):
        rng = np.random.default_rng(41)
        A = rng.normal(0, 3, (6, 5))
        w = np.array([0.0, 1.2, 0.0, 0.4, 0.0])
        R, s = self.check_x_columns(A, w, rho=0.8)
        for g in (0, 2, 4):
            np.testing.assert_array_equal(R[:, g], A[:, g])
            assert s[g] == A[:, g].max()

    def test_z_duplicate_columns_and_ties(self):
        rng = np.random.default_rng(42)
        b = rng.normal(0, 1, 3)
        c = rng.uniform(0.2, 1.0, 3)
        B = np.vstack([np.concatenate([b, b]), np.full(6, 0.5), np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0])])
        C = np.vstack([np.concatenate([c, c]), np.full(6, 0.4), np.array([1.0, 0.5, 1.0, 0.5, 0.0, 1.0])])
        Z = self.check_z_rows(B, C, r_min=1.2)
        np.testing.assert_array_equal(Z[0, :3], Z[0, 3:])
        np.testing.assert_allclose(Z[1], 0.2, rtol=0, atol=1e-15)

    def test_z_row_capacity_exactly_at_target(self):
        # sum(c) == r_min in floating point: the only feasible point is z = c
        C = np.array([[0.25, 0.5, 0.0, 0.25], [1.5, 0.5, 1.0, 1.0]])
        B = np.array([[3.0, -1.0, 0.2, 0.25], [0.0, 0.0, 0.0, 0.0]])
        assert np.all(C.sum(axis=1) == [1.0, 4.0])
        from absplace.placement import _ZStep

        np.testing.assert_array_equal(_ZStep(C[:1], 1.0)(B[:1]), C[:1])
        np.testing.assert_array_equal(_ZStep(C[1:], 4.0)(B[1:]), C[1:])
        self.check_z_rows(B[:1], C[:1], 1.0)
        self.check_z_rows(B[1:], C[1:], 4.0)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def check_z_start_free(B, C, r_min, rng):
    """The Z-step from every start gives the bits of its cold start: from
    the exact roots, from its own shifts, below the first breakpoint, above
    the last one, from random shifts, and by ``follow`` from its own piece
    and from the piece of an unrelated B. Returns the cold Z."""
    from absplace.placement import _ZStep

    step = _ZStep(C, r_min)
    Z = step(B)
    lam = step.lam
    spread = 1.0 + np.abs(B).max() + C.max()
    starts = [
        np.array([z_step_root_exact(B[m], C[m], r_min) for m in range(B.shape[0])]),
        lam,
        (B - C).min(axis=1) - spread,
        B.max(axis=1) + spread,
    ] + [rng.normal(0.0, 3.0 * spread, B.shape[0]) for _ in range(4)]
    for start in starts:
        other = _ZStep(C, r_min)
        assert_same_bits(other(B, start), Z)
        assert_same_bits(other.lam, lam)
    assert_same_bits(step.follow(B), Z)
    other = _ZStep(C, r_min)
    other(rng.normal(0.0, spread, B.shape))
    assert_same_bits(other.follow(B), Z)
    assert_same_bits(other.lam, lam)
    return Z


class TestZStepTies:
    """Rows full of tied breakpoints: the exact roots to 1e-12 of scale, and
    the same bits from every start."""

    @staticmethod
    def check(B, C, r_min, rng):
        TestExactNumpySteps.check_z_rows(B, C, r_min)
        check_z_start_free(B, C, r_min, rng)

    @staticmethod
    def dyadic_rows(rng, m, g, zeros=False):
        """Capacities and points on a coarse dyadic grid, so that many
        breakpoints tie exactly; r_min on the same grid, within reach."""
        C = rng.choice([0.0, 0.25, 0.5, 1.0] if zeros else [0.25, 0.5, 1.0], (m, g))
        C[:, 0] = 1.0  # every row reaches r_min
        B = rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0], (m, g))
        r_min = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        return B, C, r_min

    def test_duplicate_columns(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            B, C, r_min = self.dyadic_rows(rng, int(rng.integers(1, 6)), int(rng.integers(2, 12)))
            dup = rng.integers(0, C.shape[1], int(rng.integers(1, 3 * C.shape[1])))
            self.check(np.concatenate([B, B[:, dup]], axis=1), np.concatenate([C, C[:, dup]], axis=1), r_min, rng)

    def test_zero_capacity_entries(self):
        # b - 0 == b: an entry opens and closes at the same breakpoint
        rng = np.random.default_rng(51)
        for _ in range(100):
            self.check(*self.dyadic_rows(rng, int(rng.integers(1, 6)), int(rng.integers(2, 40)), zeros=True), rng)

    def test_close_of_one_column_ties_open_of_another(self):
        # b_g - c_g == b_h: column h closes where column g opens
        rng = np.random.default_rng(52)
        for _ in range(100):
            B, C, r_min = self.dyadic_rows(rng, int(rng.integers(1, 6)), int(rng.integers(4, 40)))
            g = C.shape[1]
            src = rng.integers(0, g, g // 2)
            dst = rng.integers(0, g, g // 2)
            B[:, dst] = B[:, src] - C[:, src]
            self.check(B, C, r_min, rng)

    def test_ties_at_the_last_breakpoint(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            B, C, r_min = self.dyadic_rows(rng, int(rng.integers(1, 6)), int(rng.integers(2, 40)))
            top = rng.random(C.shape[1]) < 0.5
            B[:, top] = B.max(axis=1, keepdims=True)
            self.check(B, C, r_min, rng)

    def test_row_short_of_target_only_by_rounding(self):
        from absplace.placement import _ZStep

        C = np.array([TINY_ROW])
        r_min = math.fsum(TINY_ROW)
        assert C.sum() < r_min
        rng = np.random.default_rng(54)
        # lam is -inf, so z = c exactly
        for B in (np.zeros_like(C), C.copy(), np.concatenate([[1.0], C[0, 1:]])[None, :]):
            self.check(B, C, r_min, rng)
            np.testing.assert_array_equal(_ZStep(C, r_min)(B), C)
        for _ in range(20):
            self.check(rng.choice([0.0, 2.0**-53, 0.5, 1.0], C.shape), C, r_min, rng)


class TestZStepStarts:
    """The final piece alone fixes the Z-step's result; the start only
    decides how many passes the search takes."""

    def test_random_rows_from_any_start(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            m, g = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            C = rng.uniform(0.0, 2.0, (m, g)) * 10.0 ** rng.integers(-2, 3)
            r_min = float(C.sum(axis=1).min() * rng.uniform(0.05, 0.999))
            B = rng.normal(0.0, 1.0, (m, g)) * 10.0 ** rng.integers(-2, 3)
            check_z_start_free(B, C, r_min, rng)

    @staticmethod
    def adversarial_rows(rng, g):
        """Rows whose pieces make Newton steps misjudge the root: capacities
        and points spread over many orders of magnitude, breakpoints packed
        within a few ulps of each other, and a few large entries among many
        small ones."""
        kind = int(rng.integers(3))
        if kind == 0:
            c = 2.0 ** rng.integers(-30, 30, g).astype(float)
            b = rng.choice([-1.0, 1.0], g) * 2.0 ** rng.integers(-30, 30, g).astype(float)
        elif kind == 1:
            b = 1.0 + np.spacing(1.0) * rng.integers(-8, 8, g)
            c = np.spacing(1.0) * rng.integers(0, 16, g).astype(float)
            c[0] = 1.0
        else:
            c = np.where(rng.random(g) < 0.1, 1e6, 1e-6) * rng.uniform(0.5, 1.0, g)
            b = rng.normal(0.0, 1.0, g) * np.where(rng.random(g) < 0.5, 1e6, 1.0)
        r_min = float(c.sum() * rng.choice([1e-9, 0.01, 0.5, 0.999]))
        return b[None, :], c[None, :], r_min

    def test_pass_count_bound_on_adversarial_rows(self):
        # each pass that does not settle a row moves its bracket to a
        # breakpoint strictly inside, so no row needs more than 2G + 1
        from absplace.placement import _ZStep

        rng = np.random.default_rng(57)
        most = 0
        for _ in range(300):
            g = int(rng.integers(1, 40))
            B, C, r_min = self.adversarial_rows(rng, g)
            step = _ZStep(C, r_min)
            Z = step(B)
            for start in (None, np.array([-1e300]), np.array([1e300]), rng.normal(0.0, 1e6, 1)):
                got = step(B) if start is None else step(B, start)
                assert step.passes <= 2 * g + 1
                most = max(most, step.passes)
                assert_same_bits(got, Z)
            step.follow(B)
            assert step.passes == 1
        assert most > 2  # the rows do exercise the bracketed steps

    def test_newton_steps_skip_pieces(self):
        # breakpoints -10..-6 and 0..4, root 2.75 on the piece (2, 3]. From
        # -5 the Newton points 1.7 and 2.5 lie inside their brackets; from 10
        # the point 2.5 does. Walking one piece a pass would take 4 and 3.
        from absplace.placement import _ZStep

        C, B = np.full((1, 5), 10.0), np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        step = _ZStep(C, 1.5)
        for start, passes in ((-5.0, 3), (10.0, 2)):
            np.testing.assert_array_equal(step(B, np.array([start])), [[0.0, 0.0, 0.0, 0.25, 1.25]])
            assert step.passes == passes

    @classmethod
    def adversarial_batch(cls, rng, g):
        """Adversarial rows of width g, each scaled to the target 1, with a
        row short of the target and a row that settles in the first pass
        (every entry open at its root), in random order."""
        rows = []
        for _ in range(int(rng.integers(2, 6))):
            b, c, r_min = cls.adversarial_rows(rng, g)
            rows.append((b[0] / r_min, c[0] / r_min))
        rows.append((rng.normal(0.0, 1.0, g), rng.uniform(0.1, 0.9, g) / g))
        rows.append(((1.0 + rng.uniform(-0.01, 0.01, g)) / g, np.full(g, 1e3)))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        return np.array([b for b, _ in rows]), np.array([c for _, c in rows]), 1.0

    def test_batch_rows_equal_single_rows(self):
        # the rows of a batch are searched side by side: each ends with the
        # bits it ends with alone from the same start, and the batch takes
        # as many passes as its slowest row, by follow as well
        from absplace.placement import _ZStep

        rng = np.random.default_rng(58)
        most = 0
        for _ in range(60):
            g = int(rng.integers(2, 40))
            B, C, r_min = self.adversarial_batch(rng, g)
            m = B.shape[0]
            assert (C.sum(axis=1) <= r_min).sum() == 1
            batch = _ZStep(C, r_min)
            singles = [_ZStep(C[i : i + 1], r_min) for i in range(m)]
            moved = B + rng.normal(0.0, 1.0, B.shape) * np.abs(B).max(axis=1, keepdims=True) * 1e-3
            for start in (None, np.full(m, -1e300), np.full(m, 1e300), rng.normal(0.0, 1e6, m), "follow"):
                if start is None:
                    Z, rows = batch(B), [s(B[i : i + 1]) for i, s in enumerate(singles)]
                    assert sorted(s.passes for s in singles)[1] == 1  # the short and the open row
                elif isinstance(start, str):
                    Z, rows = batch.follow(moved), [s.follow(moved[i : i + 1]) for i, s in enumerate(singles)]
                else:
                    Z, rows = batch(B, start), [s(B[i : i + 1], start[i : i + 1]) for i, s in enumerate(singles)]
                for i, s in enumerate(singles):
                    assert_same_bits(Z[i], rows[i][0])
                    assert_same_bits(batch.lam[i], s.lam[0])
                assert batch.passes == max(s.passes for s in singles)
                most = max(most, batch.passes)
        assert most > 2  # the batches do exercise the bracketed steps

    def test_pass_cap_raises_for_one_row_of_a_batch(self):
        from absplace.placement import _ZStep

        rng = np.random.default_rng(59)
        raised = 0
        for _ in range(40):
            B, C, r_min = self.adversarial_batch(rng, int(rng.integers(2, 40)))
            passes = []
            for i in range(B.shape[0]):
                single = _ZStep(C[i : i + 1], r_min)
                single(B[i : i + 1])
                passes.append(single.passes)
            slowest, runner_up = sorted(passes)[-1:-3:-1]
            if slowest == runner_up:
                continue
            step = _ZStep(C, r_min)
            step.max_passes = runner_up  # enough for every row but the slowest
            with pytest.raises(RuntimeError, match="not settled"):
                step(B)
            step.max_passes = slowest
            step(B)
            raised += 1
        assert raised > 10

    def test_pass_cap_raises(self):
        from absplace.placement import _ZStep

        C = np.array([[1.0, 1.0, 1.0, 0.25]])
        B = np.array([[3.0, -2.0, 0.5, 0.1]])
        far = np.array([1e6])
        step = _ZStep(C, 1.0)
        step(B, far)
        assert step.passes > 1
        step.max_passes = step.passes - 1
        with pytest.raises(RuntimeError, match="not settled"):
            step(B, far)


def test_instance_z_step_equals_single_rows():
    # numpy sums a row pairwise when it is contiguous and in sequence when
    # it is strided, and the two differ in the last bits from G = 8 on: the
    # solver's arrays must share z_step_row's C-ordered layout.
    from absplace.placement import _Instance, _ZStep

    for trial in range(30):
        values, r_min, _ = criterion_06_instance(trial)
        inst = _Instance(values, r_min)
        z_step = _ZStep(inst.cn, 1.0)
        zeros = np.zeros(values.shape[1])
        for scale in (0.3, 0.9, 1.7):
            B = scale * inst.cn - 0.01
            Z = z_step(B)
            for m, row in enumerate(Z):
                assert_same_bits(row, z_step_row(B[m], zeros, inst.cn[m], 1.0))


@given(
    st.integers(2, 6),
    st.integers(1, 400),
    st.floats(0.05, 3.0),
    st.floats(0.3, 2.5),
)
@settings(max_examples=40, deadline=None)
def test_x_step_bracket_property(m, seed, w, rho):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 2, m)
    r, s = x_step_column(a, np.zeros(m), w, rho)
    target = w / rho
    assert a.min() - target / m - 1e-12 <= s <= a.max() - target / m + 1e-12
    assert abs(np.maximum(a - s, 0.0).sum() - target) <= 1e-9 * max(1.0, target)
    assert np.all(r <= s + 1e-12)


class TestAdmm:
    def test_one_by_one_feasible_point(self):
        r_min = 5e6
        st = admm_solve(np.array([[2 * r_min]]), r_min, w=np.array([1.0]))
        assert st.converged
        assert st.R[0, 0] == pytest.approx(r_min, rel=1e-4)
        assert st.Z[0, 0] == pytest.approx(r_min, rel=1e-9)

    def test_row_sums_hold_at_every_iteration(self):
        rng = np.random.default_rng(25)
        values, r_min = random_feasible_instance(rng, m_max=4, g_max=9)
        st = admm_solve(values, r_min)
        assert st.row_sum_max_dev <= 1e-6 * r_min

    def test_objective_matches_lp(self):
        rng = np.random.default_rng(26)
        values, r_min = random_feasible_instance(rng, m_max=3, g_max=8)
        w = rng.uniform(0.1, 2.0, values.shape[1])
        st = admm_solve(values, r_min, w=w, eps_rel=1e-6, eps_abs=1e-9)
        lp_obj, _, _ = solve_epigraph_lp(values, r_min, w)
        assert st.converged
        assert st.objective == pytest.approx(lp_obj, rel=1e-3)
        # relaxation-chain sanity: no crossing below the exact optimum
        assert st.objective >= lp_obj - 1e-6 * max(1.0, lp_obj)

    def test_infeasible_rejected_before_iterating(self):
        values = np.array([[1.0, 1.0], [10.0, 10.0]])
        with pytest.raises(InfeasibleError) as err:
            admm_solve(values, r_min=5.0)
        assert 0 in err.value.users

    def test_trace_columns(self):
        values, r_min = random_feasible_instance(np.random.default_rng(27))
        st = admm_solve(values, r_min)
        assert st.trace.shape[1] == 4
        assert st.trace[0, 0] == 1
        assert st.iterations == st.trace.shape[0]

    def test_desk_scale_convergence(self):
        rng = np.random.default_rng(28)
        m, g = 10, 150
        r_min = 5e6
        values = rng.uniform(0, 0.35, (m, g)) * r_min
        values += np.clip(r_min - values.sum(1, keepdims=True), 0, None) / g * 1.5
        st = admm_solve(values, r_min, max_iter=10000)
        assert st.converged
        assert st.iterations < 10000


class TestReweight:
    def test_zero_matrix_uniform(self):
        w = reweight(np.zeros((3, 4)), r_min=5e6)
        np.testing.assert_array_equal(w, 1.0)

    def test_unit_column_norm(self):
        # raw weights 1 / eps for the empty columns and 1 / (1 + eps) for the
        # full one, scaled so the largest is 1
        r = np.zeros((2, 3))
        r[0, 1] = 5e6
        w = reweight(r, r_min=5e6)
        assert w[0] == w[2] == 1.0
        assert w[1] == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-12)

    def test_monotone_in_column_norm(self):
        r = np.array([[1.0, 2.0, 0.5]])
        w = reweight(r, r_min=1.0)
        assert w[1] < w[0] < w[2]


class TestSolvePlacement:
    def test_unique_cover(self):
        r_min = 5e6
        values = np.zeros((1, 4))
        values[0, 2] = 1.5 * r_min
        result = solve_placement(as_matrix(values), r_min)
        assert result.selected == (2,)
        assert result.feasible
        assert result.n_abs == 1
        assert result.positions[0] == Point3(2, 1, 0)

    def test_disjoint_cover_forced(self):
        r_min = 1.0
        values = np.array([[2.0, 0.0], [0.0, 2.0]])
        result = solve_placement(as_matrix(values), r_min)
        assert result.selected == (0, 1)
        assert np.all(result.user_rates >= r_min)

    def test_feasibility_always_recomputed(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            values, r_min = random_feasible_instance(rng)
            result = solve_placement(as_matrix(values), r_min)
            assert result.feasible
            assert covers(values, result.selected, r_min)
            np.testing.assert_allclose(
                result.user_rates, values[:, list(result.selected)].sum(axis=1)
            )

    def test_no_redundant_station(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            values, r_min = random_feasible_instance(rng)
            result = solve_placement(as_matrix(values), r_min)
            for g in result.selected:
                rest = [h for h in result.selected if h != g]
                assert not covers(values, rest, r_min)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        for seed in range(3):
            values, r_min = random_feasible_instance(np.random.default_rng(seed + 100))
            perm = rng.permutation(values.shape[1])
            base = solve_placement(as_matrix(values), r_min)
            permuted = solve_placement(as_matrix(values[:, perm]), r_min)
            mapped = sorted(int(np.flatnonzero(perm == g)[0]) for g in base.selected)
            assert list(permuted.selected) == mapped

    def test_deterministic(self):
        values, r_min = random_feasible_instance(np.random.default_rng(32))
        a = solve_placement(as_matrix(values), r_min)
        b = solve_placement(as_matrix(values), r_min)
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_infeasible_lists_users(self):
        values = np.array([[0.1, 0.2], [5.0, 5.0]])
        with pytest.raises(InfeasibleError) as err:
            solve_placement(as_matrix(values), r_min=1.0)
        assert err.value.users == (0,)

    def test_trace_csv(self, tmp_path):
        values, r_min = random_feasible_instance(np.random.default_rng(34))
        result = solve_placement(as_matrix(values), r_min)
        path = tmp_path / "trace.csv"
        write_trace_csv(result.objective_trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,shortfall,gap,objective"
        assert len(lines) == result.objective_trace.shape[0] + 1


class TestPreparedInstance:
    """solve_placement prepares its instance once and rounds from the empty
    set, calling greedy_cover_from_scores as a module attribute (the
    benchmark's tracer wraps it there). Its selection must equal that of
    the public call, which prepares the matrix afresh, on the scores it was
    given, with greedy started from any score threshold; and it must not
    depend on the column order."""

    TAUS = (0.0, 1e-3, 0.2, 0.9)

    @classmethod
    def check(cls, C, r_min, monkeypatch):
        calls = []

        def recording(*args):
            calls.append(args)
            return greedy_cover_from_scores(*args)

        monkeypatch.setattr(placement, "greedy_cover_from_scores", recording)
        got = solve_placement(C, r_min)
        monkeypatch.setattr(placement, "greedy_cover_from_scores", greedy_cover_from_scores)
        assert len(calls) == 1
        _, rate, scores, selected = calls[0]
        assert rate == r_min and selected == ()
        values = getattr(C, "values", C)
        for tau in cls.TAUS:
            initial = np.flatnonzero(scores > tau)
            assert tuple(greedy_cover_from_scores(values, r_min, scores, initial)) == got.selected, f"tau = {tau}"
        # on permuted columns the same columns win (a duplicate may stand in
        # for its twin), with the same bits
        perm = np.random.default_rng(values.shape[1]).permutation(values.shape[1])
        permuted = solve_placement(values[:, perm], r_min)
        chosen = values[:, perm][:, list(permuted.selected)]
        assert sorted(map(tuple, chosen.T)) == sorted(map(tuple, values[:, list(got.selected)].T))
        assert permuted.lower_bound == got.lower_bound
        np.testing.assert_array_equal(permuted.objective_trace, got.objective_trace)

    @pytest.mark.parametrize(
        "settings",
        [{}, {"_CHECK_EVERY": 1}, {"_MAX_ITER": 7}, {"_OMEGA": 0.3}],
        ids=["default", "check_every_1", "max_iter_7", "omega_0_3"],
    )
    def test_matches_public_composition(self, settings, monkeypatch):
        for name, value in settings.items():
            monkeypatch.setattr(placement, name, value)
        rng = np.random.default_rng(55)
        for _ in range(25):
            values, r_min = random_feasible_instance(rng, m_max=6, g_max=12)
            dup = rng.integers(0, values.shape[1], int(rng.integers(0, values.shape[1] + 1)))
            values = np.concatenate([values, values[:, dup]], axis=1)
            if rng.random() < 0.5:
                values = np.round(values / r_min * 4.0) / 4.0 * r_min  # tied entries and scores
                values[:, 0] += r_min  # keeps every row coverable
            self.check(values, r_min, monkeypatch)
            self.check(as_matrix(values), r_min, monkeypatch)

    @pytest.mark.parametrize("settings", [{}, {"_CHECK_EVERY": 1}], ids=["default", "check_every_1"])
    def test_matches_public_composition_on_city(self, settings, monkeypatch, urban_matrices):
        # 20 users x 288 candidates
        for name, value in settings.items():
            monkeypatch.setattr(placement, name, value)
        for cm in urban_matrices:
            for r_min in (1.1e8, 2.1e8, 3.5e8):
                self.check(cm, r_min, monkeypatch)


class TestCertifiedBound:
    """The PDHG solve of the clipped activation LP and its dual bound,
    against HiGHS on the same LP."""

    def test_lp_optimum_within_tol_on_criterion_06_family(self):
        # At the stop the bound is at most the LP optimum, so sum(alpha) is
        # within _TOL of it from above. From below nothing holds: alpha may
        # fall short by _TOL, and on this family sum(alpha) then lies up to
        # 22 % below the optimum.
        for trial in range(100):
            values, r_min, _ = criterion_06_instance(trial)
            result = solve_placement(values, r_min)
            optimum = clipped_alpha_lp_optimum(values, r_min)
            _, shortfall, gap, objective = result.objective_trace[-1]
            assert result.converged and shortfall <= placement._TOL and gap <= placement._TOL
            assert result.lower_bound <= optimum + 1e-9 * max(1.0, optimum)
            assert objective - optimum <= placement._TOL * max(1.0, objective)
            assert math.ceil(result.lower_bound - 1e-9) <= result.n_abs

    def test_converges_to_lp_optimum_at_tight_tolerance(self, monkeypatch):
        monkeypatch.setattr(placement, "_TOL", 1e-3)
        monkeypatch.setattr(placement, "_MAX_ITER", 100_000)
        for trial in range(100):
            values, r_min, _ = criterion_06_instance(trial)
            result = solve_placement(values, r_min)
            optimum = clipped_alpha_lp_optimum(values, r_min)
            assert result.converged
            assert abs(result.objective_trace[-1, 3] - optimum) <= 0.02 * max(1.0, optimum)
            assert optimum - result.lower_bound <= 0.01 * max(1.0, optimum)

    def test_bound_equals_lp_optimum_at_highs_duals(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            values, r_min = random_feasible_instance(rng, m_max=6, g_max=12)
            c = np.minimum(values / r_min, 1.0)
            optimum, y = clipped_alpha_lp_duals(values, r_min)
            assert placement._scaled_bound(c, y) == pytest.approx(optimum, abs=1e-7)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 12), st.floats(0.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_bound_never_exceeds_lp_optimum(self, seed, m, g, scale):
        rng = np.random.default_rng(seed)
        values, r_min = random_feasible_instance(rng, m_max=m, g_max=g)
        c = np.minimum(values / r_min, 1.0)
        y = rng.uniform(0.0, scale, values.shape[0]) * (rng.random(values.shape[0]) < 0.8)
        optimum = clipped_alpha_lp_optimum(values, r_min)
        assert placement._scaled_bound(c, y) <= optimum + 1e-9 * max(1.0, optimum)
        # the unscaled bound, at s = 1, is never above the scaled one
        unscaled = y.sum() - np.maximum(0.0, y @ c - 1.0).sum()
        assert unscaled <= placement._scaled_bound(c, y) + 1e-9 * (1.0 + y.sum() + (y @ c).sum())

    def test_zero_dual_bounds_nothing(self):
        assert placement._scaled_bound(np.ones((2, 3)), np.zeros(2)) == 0.0

    def test_proven_optimal_matches_exhaustive(self):
        rng = np.random.default_rng(1007)
        proven = 0
        for _ in range(200):
            values, r_min = random_feasible_instance(rng, m_max=4, g_max=10)
            result = solve_placement(values, r_min)
            n_star, _ = exhaustive_min_abs(values, r_min)
            assert math.ceil(result.lower_bound - 1e-9) <= n_star
            if result.proven_optimal:
                proven += 1
                assert result.n_abs == n_star
        assert proven >= 150


@pytest.fixture(scope="module")
def urban_matrices():
    """Capacity matrices of two user draws in the benchmark's urban city."""
    params = ScenarioParams(building_height=60.0, slf_dims=(17, 17, 8), flight_dims=(10, 8, 4))
    chan = ChannelParams.from_frequency(
        2.4e9, bandwidth=20e6, tx_power=0.1, noise_power=noise_power_from_dbm(-96), min_rate=5e6
    )
    city = build_urban(params, chan)
    return [
        build_capacity_matrix(chan, sample_users(city, 20, rng=seed), city.flight_points, city.slf)
        for seed in (300, 301)
    ]


class TestCanonicalOrder:
    """One stable argsort of the last row, widened to ``np.lexsort`` on a tie
    there, gives lexsort's permutation."""

    @staticmethod
    def families(rng):
        g = int(rng.integers(2, 30))
        m = int(rng.integers(1, 5))
        values = rng.uniform(0.0, 1.0, (m, g))
        yield "distinct", values
        yield "duplicate columns", values[:, rng.integers(0, g, g + 3)]
        tied = values.copy()
        tied[-1] = rng.choice([0.25, 0.5], g)  # ties in the last row only
        yield "last-row ties", tied
        flat = values.copy()
        flat[-1] = 0.5
        yield "all-equal last row", flat
        signed = values.copy()
        signed[-1, :2] = (-0.0, 0.0)
        yield "-0.0 beside 0.0", signed
        yield "single row", values[-1:]
        yield "single column", values[:, :1]
        yield "coarse grid", np.round(values * 3.0) / 3.0

    def test_equals_lexsort(self):
        rng = np.random.default_rng(70)
        for _ in range(40):
            for name, values in self.families(rng):
                order, rank = placement._canonical_order(values)
                want = np.lexsort(values)
                np.testing.assert_array_equal(order, want, err_msg=name)
                np.testing.assert_array_equal(rank[want], np.arange(want.size), err_msg=name)

    def test_signed_zero_takes_the_full_sort(self):
        # -0.0 and 0.0 are equal keys: an argsort of the last row alone
        # could order them either way, so the other rows must decide
        values = np.array([[1.0, 0.0, 2.0], [0.0, -0.0, 3.0]])
        np.testing.assert_array_equal(placement._canonical_order(values)[0], [1, 0, 2])
        np.testing.assert_array_equal(np.lexsort(values), [1, 0, 2])


# One row whose float sums lose the ten tiny entries that its exact sum keeps:
# r_min is that exact sum, so only the full set covers.
TINY_ROW = [1.0] + [2.0**-53] * 10


def _near_threshold_instance(rng):
    """Columns mixing O(1) entries with entries of a few ulps, and an r_min
    within three ulps of the exact total of a random column subset."""
    m = int(rng.integers(1, 4))
    g = int(rng.integers(3, 12))
    big = rng.choice([0.0, 0.25, 0.5, 1.0], (m, g))
    tiny = rng.integers(0, 4, (m, g)) * 2.0 ** -int(rng.integers(52, 55))
    values = np.where(rng.random((m, g)) < 0.5, big, tiny)
    values[:, 0] += 1.0  # every row coverable by the full set below
    subset = np.flatnonzero(rng.random(g) < 0.7)
    if not subset.size:
        subset = np.arange(g)
    r_min = min(math.fsum(row) for row in values[:, subset])
    for _ in range(abs(int(rng.integers(-3, 4)))):
        r_min = float(np.nextafter(r_min, rng.choice([-np.inf, np.inf])))
    return values, r_min


class TestCoverageRule:
    """The running-total greedy and ``covers`` against the fsum definition."""

    @staticmethod
    def _initial(rng, g):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return []
        if kind == 1:
            return list(range(g))
        return np.flatnonzero(rng.random(g) < rng.random()).tolist()

    def test_greedy_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            values, r_min = random_feasible_instance(rng, m_max=6, g_max=14)
            g = values.shape[1]
            dup = rng.integers(0, g, int(rng.integers(0, g + 1)))
            values = np.concatenate([values, values[:, dup]], axis=1)
            g = values.shape[1]
            scores = rng.uniform(0.0, 1.0, g)
            if rng.random() < 0.5:
                scores = np.round(scores * 2.0) / 2.0  # many exact ties
            initial = self._initial(rng, g)
            assert greedy_cover_from_scores(values, r_min, scores, initial) == greedy_cover_reference(
                values, r_min, scores, initial
            )

    def test_greedy_matches_reference_near_threshold(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            values, r_min = _near_threshold_instance(rng)
            g = values.shape[1]
            scores = np.round(rng.uniform(0.0, 1.0, g) * 3.0) / 3.0
            initial = self._initial(rng, g)
            if r_min <= 0:
                with pytest.raises(ValueError, match="finite and positive"):
                    greedy_cover_from_scores(values, r_min, scores, initial)
                continue
            assert greedy_cover_from_scores(values, r_min, scores, initial) == greedy_cover_reference(
                values, r_min, scores, initial
            )

    def test_any_threshold_start_gives_the_empty_start(self):
        # With nonnegative capacities coverage is monotone, the columns above
        # a cut are a prefix of greedy's add order and the prune order is its
        # reverse, so starting from them ends where the empty start does.
        rng = np.random.default_rng(39)
        for trial in range(300):
            if trial % 2:
                values, r_min = _near_threshold_instance(rng)
            else:
                values, r_min = random_feasible_instance(rng, m_max=6, g_max=14)
                dup = rng.integers(0, values.shape[1], int(rng.integers(0, values.shape[1] + 1)))
                values = np.concatenate([values, values[:, dup]], axis=1)
            g = values.shape[1]
            scores = np.round(rng.uniform(0.0, 1.0, g) * 3.0) / 3.0  # many exact ties
            if r_min <= 0:
                with pytest.raises(ValueError, match="finite and positive"):
                    greedy_cover_from_scores(values, r_min, scores, ())
                continue
            want = greedy_cover_from_scores(values, r_min, scores, ())
            for tau in (-np.inf, *np.unique(scores)):
                initial = np.flatnonzero(scores > tau)
                assert greedy_cover_from_scores(values, r_min, scores, initial) == want

    def test_covers_matches_fsum_near_threshold(self):
        rng = np.random.default_rng(38)
        for _ in range(400):
            values, r_min = _near_threshold_instance(rng)
            subset = np.flatnonzero(rng.random(values.shape[1]) < 0.7).tolist()
            if r_min <= 0:
                with pytest.raises(ValueError, match="finite and positive"):
                    covers(values, subset, r_min)
                continue
            assert covers(values, subset, r_min) == fsum_covers(values, subset, r_min)

    def test_tiny_entries_decided_exactly(self):
        values = np.array([TINY_ROW])
        r_min = math.fsum(TINY_ROW)
        everything = list(range(values.shape[1]))
        assert values.sum() < r_min  # float totals alone would say short
        assert covers(values, everything, r_min)
        assert not covers(values, everything[:-1], r_min)
        for initial in ([], [0], everything):
            assert greedy_cover_from_scores(values, r_min, np.ones(11), initial) == everything
        assert covers(values, everything, float(np.nextafter(r_min, -np.inf)))
        assert not covers(values, everything, float(np.nextafter(r_min, np.inf)))

    def test_full_set_guard_uses_exact_rule(self):
        # The full set covers by the exact rule, so no guard may call the row
        # infeasible because its float sum falls short.
        values = np.array([TINY_ROW])
        r_min = math.fsum(TINY_ROW)
        result = solve_placement(as_matrix(values), r_min)
        assert result.selected == tuple(range(11))
        assert result.feasible
        admm_solve(values, r_min, max_iter=5)
        z = z_step_row(np.zeros(11), np.zeros(11), TINY_ROW, r_min)
        assert z.sum() == pytest.approx(r_min, rel=1e-15)
        with pytest.raises(InfeasibleError):
            solve_placement(as_matrix(values), float(np.nextafter(r_min, np.inf)))

    def test_empty_set(self):
        values = np.array([[0.0, 2.0]])
        with pytest.raises(ValueError, match="finite and positive"):
            covers(values, [], 0.0)
        assert not covers(values, [], 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            greedy_cover_from_scores(values, 0.0, [1.0, 2.0], [0, 1])
        assert greedy_cover_from_scores(values, 1.0, [1.0, 2.0], []) == [1]

    @pytest.mark.parametrize("r_min", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("subset", [[], [0, 1]])
    def test_non_finite_target_rejected(self, r_min, subset):
        values = np.array([[2.0, 0.5], [0.3, 1.5]])
        with pytest.raises(ValueError, match="finite"):
            covers(values, subset, r_min)
        with pytest.raises(ValueError, match="finite"):
            greedy_cover_from_scores(values, r_min, [1.0, 2.0], subset)

    @pytest.mark.parametrize(
        "selected",
        [[-1], [2], [0, 5], [0.5], [1.0], [True], [np.True_], ["0"]],
        ids=["negative", "at_g", "past_g", "half", "float", "bool", "numpy_bool", "string"],
    )
    def test_greedy_start_must_be_column_indices(self, selected):
        # numpy would read -1 as column G - 1, and int() 0.5 as column 0 and
        # True as column 1
        values = np.array([[2.0, 0.5], [0.3, 1.5]])
        with pytest.raises(ValueError, match="column indices"):
            greedy_cover_from_scores(values, 1.0, [1.0, 2.0], selected)

    @pytest.mark.parametrize(
        "scores",
        [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [np.nan, 2.0], [1.0, np.inf]],
        ids=["short", "long", "two_d", "nan", "inf"],
    )
    def test_greedy_scores_must_be_a_finite_g_vector(self, scores):
        values = np.array([[2.0, 0.5], [0.3, 1.5]])
        with pytest.raises(ValueError, match="finite G-vector"):
            greedy_cover_from_scores(values, 1.0, scores, [])

    def test_covers_takes_column_indices(self):
        values = np.array([[0.6, 0.1, 0.0]])
        assert not covers(values, [0], 1.0)
        assert covers(values, [0, 0], 1.0)  # a column listed twice counts twice
        for subset in ([-3], [3], [0, -1], [0.5], [True]):
            # numpy would read -3 as column 0
            with pytest.raises(ValueError, match="column indices"):
                covers(values, subset, 1.0)


def test_config_validation():
    values, r_min = random_feasible_instance(np.random.default_rng(33))
    with pytest.raises(ValueError, match="max_iter"):
        admm_solve(values, r_min, max_iter=0)
    assert admm_solve(values, r_min, max_iter=np.int64(3)).iterations <= 3
    state = admm_solve(values, r_min)
    for rho in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho"):
            admm_solve(values, r_min, start=dataclasses.replace(state, rho=rho))


@pytest.mark.parametrize("max_iter", [10.0, True, np.float64(5.0), "10"])
def test_max_iter_must_be_an_integer(max_iter):
    # 10.0 raised a TypeError from range, and True ran one iteration
    values, r_min = random_feasible_instance(np.random.default_rng(33))
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        admm_solve(values, r_min, max_iter=max_iter)


@pytest.mark.parametrize("tolerance", ["eps_abs", "eps_rel"])
@pytest.mark.parametrize("value", [math.nan, -1e-9, -math.inf])
def test_tolerances_must_be_nonnegative(tolerance, value):
    # a NaN tolerance ran every iteration up to max_iter
    values, r_min = random_feasible_instance(np.random.default_rng(33))
    with pytest.raises(ValueError, match="eps_abs and eps_rel must be nonnegative"):
        admm_solve(values, r_min, **{tolerance: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_single_steps_reject_non_finite_input(bad):
    # z_step_row([nan, 0], 0, [1, 1], 1) returned [nan, 0.]
    with pytest.raises(ValueError, match="r_row must be finite"):
        z_step_row([bad, 0.0], 0.0, [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="u_row must be finite"):
        z_step_row([0.0, 0.0], [0.0, bad], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="z_col must be finite"):
        x_step_column([bad, 0.0], [0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError, match="u_col must be finite"):
        x_step_column([0.0, 0.0], [bad, 0.0], 1.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        # a 2 x 3 r, u and c came back as one 6-entry row
        (lambda: z_step_row(np.zeros((2, 3)), np.zeros((2, 3)), np.ones((2, 3)), 1.0), "1-D vectors of one length"),
        # a length-1 u was broadcast over the row
        (lambda: z_step_row(np.zeros(3), np.zeros(1), np.ones(3), 1.0), "1-D vectors of one length"),
        (lambda: x_step_column([1.0, 2.0, 3.0], [0.5], 1.0, 1.0), "1-D vectors of one length"),
        # a 1-D R came back as the scalar weight 1.0
        (lambda: reweight(np.array([1.0, 2.0]), 1.0), "R must be an M x G array"),
    ],
    ids=["z_step_2d", "z_step_short_u", "x_step_short_u", "reweight_1d"],
)
def test_single_steps_reject_mismatched_shapes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("field", ["Z", "U"])
@pytest.mark.parametrize("bad", ["one_row", "transposed", "nan", "inf"])
def test_warm_start_must_be_finite_m_by_g(field, bad):
    # a (1, G) Z used to be broadcast over every row, and a NaN one ran
    # every iteration into NaN with only a warning
    values, r_min = np.array([[2.0, 0.5, 0.2], [0.3, 1.5, 0.4]]), 1.0
    state = admm_solve(values, r_min)
    a = getattr(state, field).copy()
    if bad == "one_row":
        a = a[:1]
    elif bad == "transposed":
        a = a.T
    else:
        a[0, 0] = {"nan": math.nan, "inf": math.inf}[bad]
    with pytest.raises(ValueError, match="start.Z and start.U must be finite M x G arrays"):
        admm_solve(values, r_min, start=dataclasses.replace(state, **{field: a}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0], ids=["nan", "inf", "negative", "zero"])
def test_weights_and_steps_must_be_finite(bad):
    # a NaN weight used to run admm_solve all its iterations into a NaN R
    # with only a warning, an infinite one returned a NaN R at once, and
    # x_step_column returned NaN for a NaN weight or step; reweight gave
    # uniform weights for a negative target, NaN weights for a NaN target
    # or R, and a RuntimeWarning for a zero target on a zero R
    values, r_min = random_feasible_instance(np.random.default_rng(33))
    z, u = np.array([0.4, 1.2]), np.zeros(2)
    if bad != 0.0:  # a zero weight is valid: its column has no slack cost
        w = np.ones(values.shape[1])
        w[0] = bad
        with pytest.raises(ValueError, match="w must be a finite nonnegative G-vector"):
            admm_solve(values, r_min, w=w)
        with pytest.raises(ValueError, match="weight must be finite and nonnegative"):
            x_step_column(z, u, w_g=bad, rho=1.0)
    with pytest.raises(ValueError, match="rho must be finite and positive"):
        x_step_column(z, u, w_g=1.0, rho=bad)
    with pytest.raises(ValueError, match="target rate must be finite and positive"):
        reweight(np.zeros_like(values) if bad == 0.0 else values, bad)
    if not math.isfinite(bad):
        R = values.copy()
        R[0, 0] = bad
        with pytest.raises(ValueError, match="R must be finite"):
            reweight(R, r_min)


def test_warm_start_resumes_at_optimum():
    rng = np.random.default_rng(35)
    values, r_min = random_feasible_instance(rng)
    first = admm_solve(values, r_min)
    resumed = admm_solve(values, r_min, start=first)
    assert resumed.converged
    assert resumed.iterations <= max(3, first.iterations // 5)
    np.testing.assert_allclose(resumed.Z, first.Z, rtol=0, atol=1e-6 * r_min)


CRITERION_06_TOLERANCES = dict(eps_rel=1e-6, eps_abs=1e-9)


def criterion_06_instance(trial):
    """Instance ``trial`` of the criterion-06 family, drawn as that criterion draws it."""
    rng = np.random.default_rng(1006)
    for t in range(trial + 1):
        values, r_min = random_feasible_instance(rng, m_max=5, g_max=12)
        w = np.ones(values.shape[1]) if t % 2 else rng.uniform(0.1, 2.0, values.shape[1])
    return values, r_min, w


class TestResidualBalancing:
    def test_slow_family_instance(self):
        # 30,362 iterations at a fixed rho = 1; balancing moves rho to 2048
        values, r_min, w = criterion_06_instance(49)
        st = admm_solve(values, r_min, w=w, max_iter=6000, **CRITERION_06_TOLERANCES)
        assert st.converged
        assert st.iterations <= 6000
        assert st.row_sum_max_dev <= 1e-6 * r_min
        lp = scipy_epigraph_optimum(values, r_min, w)
        assert st.objective == pytest.approx(lp, rel=1e-3, abs=1e-9 * r_min)

    def test_warm_start_at_final_rho(self):
        values, r_min, w = criterion_06_instance(49)
        first = admm_solve(values, r_min, w=w, **CRITERION_06_TOLERANCES)
        assert first.converged
        assert first.rho != placement._RHO
        resumed = admm_solve(values, r_min, w=w, start=first, **CRITERION_06_TOLERANCES)
        assert resumed.converged
        assert resumed.iterations <= 2

    def test_fixed_rho_matches_plain_loop_bitwise(self, monkeypatch):
        # Balancing first acts at iteration 10, so nine iterations are the
        # plain splitting; columns in canonical order and r_min = 1 make the
        # solver's internal reordering and rescaling the identity.
        values, _ = random_feasible_instance(np.random.default_rng(41), m_max=5, g_max=12, scale_choices=(1.0,))
        values = values[:, np.lexsort(values)]
        m, g = values.shape
        w = np.random.default_rng(42).uniform(0.1, 2.0, g)
        rho = 0.7
        monkeypatch.setattr(placement, "_RHO", rho)  # the cold start's step, read at the call
        st = admm_solve(values, 1.0, w=w, max_iter=9, eps_abs=0.0, eps_rel=0.0)
        assert st.iterations == 9 and not st.converged

        Z = np.minimum(values, 1.0 / g)
        U = np.zeros((m, g))
        trace = []
        for k in range(1, 10):
            R = np.column_stack([x_step_column(Z[:, j], U[:, j], w[j], rho)[0] for j in range(g)])
            z_new = np.vstack([z_step_row(R[i], U[i], values[i], 1.0) for i in range(m)])
            U = U + R - z_new
            primal = float(np.linalg.norm(R - z_new))
            dual = rho * float(np.linalg.norm(z_new - Z))
            Z = z_new
            trace.append((k, primal, dual, float(w @ np.abs(R).max(axis=0))))
        for got, want in ((st.R, R), (st.Z, Z), (st.U, U), (st.trace, np.array(trace))):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert st.rho == rho


class TestNonConvergenceWarning:
    def test_one_warning_when_stopped_at_max_iter(self, caplog):
        values, r_min, w = criterion_06_instance(49)
        with caplog.at_level(logging.WARNING, logger="absplace"):
            st = admm_solve(values, r_min, w=w, max_iter=1, **CRITERION_06_TOLERANCES)
        assert not st.converged
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "max_iter = 1" in message and "rho 1" in message

    def test_no_warning_when_converged(self, caplog):
        values, r_min, w = criterion_06_instance(49)
        with caplog.at_level(logging.WARNING, logger="absplace"):
            st = admm_solve(values, r_min, w=w, **CRITERION_06_TOLERANCES)
        assert st.converged
        assert caplog.records == []

    def test_placement_warns_once_when_capped(self, caplog, monkeypatch):
        values, r_min, _ = criterion_06_instance(49)
        monkeypatch.setattr(placement, "_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="absplace"):
            result = solve_placement(values, r_min)
        assert not result.converged
        assert result.iterations == 1
        assert result.objective_trace[:, 0].tolist() == [1]  # the test at the cap
        assert result.feasible
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].getMessage().startswith("solve_placement stopped at max_iter = 1")

    def test_converged_placement_logs_nothing(self, caplog):
        values, r_min, _ = criterion_06_instance(49)
        with caplog.at_level(logging.WARNING, logger="absplace"):
            result = solve_placement(values, r_min)
        assert result.converged
        assert caplog.records == []
