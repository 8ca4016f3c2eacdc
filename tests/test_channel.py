import math

import numpy as np
import pytest

from absplace import (
    CapacityMatrix,
    ChannelParams,
    DomainError,
    Point3,
    RegularGrid3,
    Segment3,
    SlfField,
    build_capacity_matrix,
    capacity_bps,
    gain_db,
    noise_power_from_dbm,
    shadowing_line_integral,
    traverse_voxels,
)

PAPER_PARAMS = dict(
    bandwidth=20e6,
    tx_power=0.1,
    noise_power=noise_power_from_dbm(-96.0),
    min_rate=5e6,
)


def params_24ghz():
    return ChannelParams.from_frequency(2.4e9, **PAPER_PARAMS)


class TestGain:
    def test_unit_log_argument(self):
        p = ChannelParams(wavelength=1.0, **PAPER_PARAMS)
        d = 1.0 / (4 * math.pi)
        assert gain_db(p, Point3(0, 0, 0), Point3(d, 0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_paper_frequency_at_100m(self):
        p = ChannelParams(wavelength=0.12491, **PAPER_PARAMS)
        got = gain_db(p, Point3(0, 0, 0), Point3(100, 0, 0))
        # independent recomputation of the free-space term
        expect = 20 * math.log10(0.12491 / (4 * math.pi * 100.0))
        assert got == pytest.approx(expect, rel=1e-15)
        assert got == pytest.approx(-80.05, abs=5e-3)

    def test_shadow_is_additive(self):
        p = params_24ghz()
        a, b = Point3(0, 0, 0), Point3(35, 12, 60)
        s = 7.25
        assert gain_db(p, a, b, s) == gain_db(p, a, b, 0.0) - s

    def test_coincident_points(self):
        p = params_24ghz()
        with pytest.raises(DomainError):
            gain_db(p, Point3(1, 2, 3), Point3(1, 2, 3))

    def test_wavelength_from_frequency(self):
        p = params_24ghz()
        assert p.wavelength == pytest.approx(2.998e8 / 2.4e9, rel=1e-12)

    @pytest.mark.parametrize("frequency", [0.0, -1.0, math.nan, math.inf, 1e-300, np.float64(1e-300)])
    def test_bad_frequency_names_frequency_hz(self, frequency):
        # 0 used to raise ZeroDivisionError, and the others reached the
        # wavelength check, which blamed the wavelength (a numpy 1e-300 is
        # read as a float, so it does not overflow with a warning)
        with pytest.raises(ValueError, match="^frequency_hz "):
            ChannelParams.from_frequency(frequency, **PAPER_PARAMS)

    def test_valid_conversions_keep_their_bits(self):
        assert ChannelParams.from_frequency(2.4e9, **PAPER_PARAMS).wavelength == 2.998e8 / 2.4e9
        assert noise_power_from_dbm(-96.0) == 10.0 ** -9.6 * 1e-3

    @pytest.mark.parametrize("dbm", [1e5, -1e5, math.nan, math.inf, -math.inf, np.float64(1e5)])
    def test_bad_noise_level_names_noise_power_dbm(self, dbm):
        # 1e5 used to raise OverflowError; the others returned inf, 0 or NaN
        # (a numpy 1e5 is read as a float, so it does not overflow with a warning)
        with pytest.raises(ValueError, match=f"^noise_power_dbm {dbm} "):
            noise_power_from_dbm(dbm)

    def test_monotone_in_distance(self):
        p = params_24ghz()
        gains = [gain_db(p, Point3(0, 0, 0), Point3(d, 0, 0)) for d in (10, 20, 50, 130)]
        assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))


class TestCapacity:
    def test_unit_snr(self):
        p = ChannelParams(wavelength=1.0, bandwidth=20e6, tx_power=0.5, noise_power=0.5, min_rate=1.0)
        assert capacity_bps(p, 0.0) == pytest.approx(20e6, rel=1e-12)

    def test_vanishes_at_low_gain(self):
        p = params_24ghz()
        assert capacity_bps(p, -400.0) == pytest.approx(0.0, abs=1e-3)
        caps = [capacity_bps(p, g) for g in (-120, -100, -80, -60)]
        assert all(c1 < c2 for c1, c2 in zip(caps, caps[1:]))

    def test_paper_parameter_point(self):
        p = params_24ghz()
        got = capacity_bps(p, -80.05)
        # chained independent evaluation with the given constants
        snr = 0.1 * 10 ** (-80.05 / 10) / (10 ** (-96 / 10) * 1e-3)
        expect = 20e6 * math.log2(1 + snr)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(2.39e8, rel=5e-3)


class TestCapacityMatrix:
    def grid_and_field(self, values=None, dims=(6, 6, 6)):
        grid = RegularGrid3(Point3(0, 0, 0), (20.0, 20.0, 20.0), dims)
        if values is None:
            values = np.zeros(dims)
        return SlfField(grid, values)

    def test_zero_slf_matches_composition(self):
        p = params_24ghz()
        slf = self.grid_and_field()
        user = Point3(10, 10, 0)
        cand = Point3(80, 60, 70)
        cm = build_capacity_matrix(p, [user], [cand], slf)
        expect = capacity_bps(p, gain_db(p, user, cand))
        assert cm.values[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_wall_reduces_capacity_by_closed_form(self):
        # 3 dB/m over a 4 m crossing: shadowing = 3 * sqrt(4) = 6 dB
        p = params_24ghz()
        grid = RegularGrid3(Point3(2.0, 0, 0), (4.0, 1000.0, 1000.0), (3, 1, 1))
        values = np.zeros((3, 1, 1))
        values[1, 0, 0] = 3.0  # wall voxel spans x in [4, 8]
        slf = SlfField(grid, values)
        user = Point3(4.0, 0, 0)
        cand = Point3(8.0, 0, 0)
        xi = shadowing_line_integral(slf, Segment3(user, cand))
        assert xi == pytest.approx(6.0, rel=1e-12)
        cm = build_capacity_matrix(p, [user], [cand], slf)
        expect = capacity_bps(p, gain_db(p, user, cand) - 6.0)
        assert cm.values[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_random_instance_matches_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        p = params_24ghz()
        slf = self.grid_and_field(rng.uniform(0, 0.4, (6, 6, 6)))
        users = [Point3(*rng.uniform(5, 115, 3)) for _ in range(3)]
        cands = [Point3(*rng.uniform(5, 115, 3)) for _ in range(5)]
        cm = build_capacity_matrix(p, users, cands, slf)
        for m, u in enumerate(users):
            for g, c in enumerate(cands):
                # the scalar marcher, not the batched kernel under test
                seg = Segment3(u, c)
                xi = math.sqrt(seg.length) * traverse_voxels(slf.grid, seg).integrate(slf.values)
                expect = capacity_bps(p, gain_db(p, u, c, xi))
                assert cm.values[m, g] == pytest.approx(expect, rel=1e-12)

    def test_no_users_gives_empty_rows(self):
        slf = self.grid_and_field()
        cands = [Point3(30, 30, 60), Point3(90, 20, 40)]
        cm = build_capacity_matrix(params_24ghz(), [], cands, slf)
        assert cm.values.shape == (0, 2)
        assert cm.candidates == tuple(cands)

    def test_user_outside_grid_raises(self):
        slf = self.grid_and_field()
        users = [Point3(10, 10, 0), Point3(10, 500, 0)]
        with pytest.raises(DomainError):
            build_capacity_matrix(params_24ghz(), users, [Point3(30, 30, 60)], slf)

    def test_user_on_candidate_raises(self):
        slf = self.grid_and_field()
        cands = [Point3(30, 30, 60), Point3(90, 20, 40)]
        with pytest.raises(DomainError):
            build_capacity_matrix(params_24ghz(), [Point3(10, 10, 0), Point3(90, 20, 40)], cands, slf)

    def test_entries_nonnegative_finite(self):
        rng = np.random.default_rng(8)
        p = params_24ghz()
        slf = self.grid_and_field(rng.uniform(0, 1.0, (6, 6, 6)))
        users = [Point3(*rng.uniform(5, 115, 3)) for _ in range(2)]
        cands = [Point3(*rng.uniform(5, 115, 3)) for _ in range(4)]
        cm = build_capacity_matrix(p, users, cands, slf)
        assert np.all(np.isfinite(cm.values)) and np.all(cm.values >= 0)


def test_capacity_csv_export(tmp_path):
    from absplace import write_capacity_csv

    values = np.array([[1.5, 2.25], [0.5, 4.0]])
    cm = CapacityMatrix(
        values, (Point3(0, 0, 0), Point3(1, 0, 0)), (Point3(0, 1, 0), Point3(1, 1, 0))
    )
    path = tmp_path / "capacity.csv"
    write_capacity_csv(cm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "g0,g1"
    assert [float(v) for v in lines[1].split(",")] == [1.5, 2.25]
    assert [float(v) for v in lines[2].split(",")] == [0.5, 4.0]


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(wavelength=0.0, **PAPER_PARAMS)
    with pytest.raises(ValueError):
        ChannelParams(wavelength=0.1, bandwidth=-1.0, tx_power=0.1, noise_power=1e-12, min_rate=1.0)
