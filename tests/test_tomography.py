import itertools
import math
import re

import numpy as np
import pytest
from scipy import sparse

from absplace import (
    ChannelParams,
    DomainError,
    Measurement,
    Point3,
    RegularGrid3,
    ScenarioParams,
    Segment3,
    SlfField,
    build_urban,
    estimate_slf,
    line_integrals,
    read_measurements_csv,
    read_slf_text,
    sample_users,
    shadowing_ellipsoid_sum,
    shadowing_line_integral,
    traverse_voxels,
    write_measurements_csv,
    write_slf_text,
)

from absplace import tomography

import oracles
from oracles import dense_sampling_integral, merge_crossing_count, merge_traversal_integral


def unit_grid(dims=(8, 8, 8)):
    return RegularGrid3(Point3(0, 0, 0), (1.0, 1.0, 1.0), dims)


def random_field(rng, dims=(8, 8, 8), low=0.5, high=3.5):
    grid = unit_grid(dims)
    return SlfField(grid, rng.uniform(low, high, dims))


def random_inner_segment(rng, grid, min_len=0.5):
    lo, hi = grid.domain_bounds()
    for _ in range(1000):
        a = rng.uniform(lo + 1e-6, hi - 1e-6)
        b = rng.uniform(lo + 1e-6, hi - 1e-6)
        if np.linalg.norm(b - a) >= min_len:
            return Segment3(Point3(*a), Point3(*b))
    raise AssertionError("could not draw a segment")


class TestLineIntegral:
    def test_constant_field_closed_form(self):
        # constant absorption: result is value * sqrt(length) on any grid
        field = SlfField.constant(unit_grid(), 3.0)
        seg = Segment3(Point3(1.1, 1.1, 1.1), Point3(5.1, 1.1, 1.1))
        assert shadowing_line_integral(field, seg) == pytest.approx(6.0, rel=1e-12)

    def test_zero_field(self):
        field = SlfField.zeros(unit_grid())
        seg = Segment3(Point3(0.3, 0.4, 0.2), Point3(6.5, 5.1, 7.0))
        assert shadowing_line_integral(field, seg) == 0.0

    def test_zero_length_convention(self):
        field = random_field(np.random.default_rng(0))
        assert shadowing_line_integral(field, Segment3(Point3(1, 1, 1), Point3(1, 1, 1))) == 0.0

    def test_outside_domain(self):
        field = SlfField.constant(unit_grid(), 1.0)
        with pytest.raises(DomainError):
            shadowing_line_integral(field, Segment3(Point3(-2, 0, 0), Point3(1, 1, 1)))
        with pytest.raises(DomainError):
            shadowing_line_integral(field, Segment3(Point3(-2, 0, 0), Point3(-2, 0, 0)))

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(11)
        field = random_field(rng)
        for _ in range(100):
            seg = random_inner_segment(rng, field.grid)
            got = shadowing_line_integral(field, seg)
            ref = merge_traversal_integral(
                field.values, field.grid, seg.a.as_array(), seg.b.as_array()
            )
            assert got == pytest.approx(ref, rel=1e-9)

    def test_matches_dense_sampling(self):
        rng = np.random.default_rng(12)
        field = random_field(rng)
        for _ in range(5):
            seg = random_inner_segment(rng, field.grid, min_len=2.0)
            got = shadowing_line_integral(field, seg)
            ref = dense_sampling_integral(
                field.values, field.grid, seg.a.as_array(), seg.b.as_array(), n=200_000
            )
            assert got == pytest.approx(ref, rel=3e-3)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        grid = unit_grid((5, 6, 4))
        f1 = SlfField(grid, rng.uniform(0, 2, grid.dims))
        f2 = SlfField(grid, rng.uniform(0, 2, grid.dims))
        alpha, beta = 0.7, -1.3
        mix = SlfField(grid, alpha * f1.values + beta * f2.values)
        for _ in range(20):
            seg = random_inner_segment(rng, grid)
            lhs = shadowing_line_integral(mix, seg)
            rhs = alpha * shadowing_line_integral(f1, seg) + beta * shadowing_line_integral(f2, seg)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        field = random_field(rng)
        for _ in range(20):
            seg = random_inner_segment(rng, field.grid)
            fwd = shadowing_line_integral(field, seg)
            rev = shadowing_line_integral(field, Segment3(seg.b, seg.a))
            assert fwd == pytest.approx(rev, rel=1e-12)

    def test_grid_refinement_consistency(self):
        # exact for constant fields regardless of spacing
        seg = Segment3(Point3(0.7, 0.9, 1.1), Point3(7.3, 6.2, 5.8))
        expect = 2.5 * math.sqrt(seg.length)
        for spacing, dims in [((1.0, 1.0, 1.0), (9, 9, 9)), ((0.5, 0.5, 0.5), (17, 17, 15)), ((2.9, 3.1, 2.3), (4, 4, 4))]:
            field = SlfField.constant(RegularGrid3(Point3(0, 0, 0), spacing, dims), 2.5)
            got = shadowing_line_integral(field, seg)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_endpoint_continuity(self):
        # step-to-step jumps stay within the linear modulus of the invariant
        rng = np.random.default_rng(15)
        field = random_field(rng)
        a = Point3(1.21, 1.37, 1.11)
        start = np.array([5.9, 6.3, 6.1])
        direction = np.array([0.31, -0.43, 0.27])
        eta = 0.004  # < min spacing / 100
        lo, hi = field.grid.domain_bounds()
        diam = float(np.linalg.norm(hi - lo))
        values = []
        for k in range(300):
            p = start + k * eta * direction / np.linalg.norm(direction)
            values.append(shadowing_line_integral(field, Segment3(a, Point3(*p))))
        jumps = np.abs(np.diff(values))
        seg_len = Segment3(a, Point3(*start)).length
        bound = field.values.max() * (math.sqrt(seg_len + 2) + diam) * eta
        assert jumps.max() <= bound


def face_biased_points(rng, grid, n):
    """Points whose coordinates are, each at random, uniform, on a voxel
    face (interior or outer), or on a grid point."""
    d = np.array(grid.dims)
    u = rng.uniform(-0.5, d - 0.5, (n, 3))
    kind = rng.integers(0, 3, (n, 3))
    faces = rng.integers(0, d + 1, (n, 3)) - 0.5  # k + 1/2 for k = -1 .. d - 1
    u = np.where(kind == 1, faces, u)
    u = np.where(kind == 2, np.round(u), u)
    lo, hi = grid.domain_bounds()
    return np.clip(np.array(grid.origin.as_tuple()) + u * np.asarray(grid.spacing), lo, hi)


def edge_case_links(rng, grid, n=1200):
    """Links biased toward the traversal's edge cases, in blocks of 200:
    axis-parallel, lying in a face plane, 1e-9 m long, reversed copies of
    the last block, then general face-biased links (n >= 1000)."""
    a = face_biased_points(rng, grid, n)
    b = face_biased_points(rng, grid, n)
    axis = rng.integers(0, 3, n)
    rows = np.arange(n)
    parallel = rows[:200]
    for j in range(3):  # b moves along one axis only
        keep = parallel[axis[parallel] != j]
        b[keep, j] = a[keep, j]
    plane = rows[200:400]  # both endpoints on one face plane
    k = rng.integers(-1, np.array(grid.dims)[axis[plane]])
    lo, hi = grid.domain_bounds()
    face = np.array(grid.origin.as_tuple())[axis[plane]] + (k + 0.5) * np.asarray(grid.spacing)[axis[plane]]
    a[plane, axis[plane]] = b[plane, axis[plane]] = np.clip(face, lo[axis[plane]], hi[axis[plane]])
    tiny = rows[400:600]
    direction = rng.normal(size=(200, 3))
    b[tiny] = np.clip(a[tiny] + 1e-9 * direction / np.linalg.norm(direction, axis=1)[:, None], lo, hi)
    a[600:800], b[600:800] = b[n - 200 :].copy(), a[n - 200 :].copy()
    return a, b


def outer_boundary_links(rng, grid, per=10):
    """Links from face-biased points to points on each of the grid's 6
    outer faces, 12 edges and 8 corners, ``per`` of each, then the same
    links reversed."""
    lo, hi = grid.domain_bounds()
    ends = []
    for sides in itertools.product(("lo", "hi", None), repeat=3):
        if sides == (None, None, None):
            continue
        b = rng.uniform(lo, hi, (per, 3))
        for j, side in enumerate(sides):
            if side is not None:
                b[:, j] = lo[j] if side == "lo" else hi[j]
        ends.append(b)
    b = np.concatenate(ends)
    a = face_biased_points(rng, grid, len(b))
    return np.concatenate([a, b]), np.concatenate([b, a])


def scalar_integrals(field, a, b):
    """traverse_voxels + TraversalResult.integrate, link by link."""
    out = []
    for p, q in zip(a, b):
        seg = Segment3(Point3(*p), Point3(*q))
        if seg.is_degenerate():
            out.append(0.0)
        else:
            out.append(math.sqrt(seg.length) * traverse_voxels(field.grid, seg).integrate(field.values))
    return np.array(out)


SKEWED = RegularGrid3(Point3(-1.3, 0.4, 2.0), (0.7, 1.3, 0.45), (6, 5, 9))


class TestBatchedKernel:
    """line_integrals and the design matrix against the scalar marcher."""

    def grids(self):
        return [unit_grid(), SKEWED, RegularGrid3(Point3(123.456, -7.1, 0.3), (2.9, 0.1, 1.0), (3, 17, 1))]

    def test_matches_scalar_traversal_on_edge_cases(self):
        rng = np.random.default_rng(60)
        for grid in self.grids():
            field = SlfField(grid, rng.uniform(0.5, 3.5, grid.dims))
            a, b = edge_case_links(rng, grid)  # 1200 links: four full chunks and a partial one
            assert len(a) > 2 * tomography._CHUNK_LINKS and len(a) % tomography._CHUNK_LINKS
            got = line_integrals(field, a, b)
            np.testing.assert_allclose(got, scalar_integrals(field, a, b), rtol=1e-13, atol=0)

    @staticmethod
    def assert_marcher_intervals(grid, a, b):
        """Same voxels and bit-identical parameter lengths as the marcher,
        link by link."""
        ny, nz = grid.dims[1], grid.dims[2]
        keep, lengths, flat = tomography._chunk_intervals(grid, a, b)
        for i, (p, q) in enumerate(zip(a, b)):
            trav = traverse_voxels(grid, Segment3(Point3(*p), Point3(*q)))
            v = trav.voxels
            np.testing.assert_array_equal(flat[i][keep[i]], (v[:, 0] * ny + v[:, 1]) * nz + v[:, 2])
            np.testing.assert_array_equal(lengths[i][keep[i]], trav.interval_lengths())

    def test_intervals_match_marcher_exactly(self):
        rng = np.random.default_rng(61)
        for grid in self.grids():
            self.assert_marcher_intervals(grid, *edge_case_links(rng, grid))

    def test_outer_boundary_intervals_match_marcher_exactly(self):
        # a far end on an outer face can put the grid exit just before
        # t = 1, where the kernel's exit threshold, not t = 1, stops it
        # (on the unit grid every exit rounds to exactly 1)
        rng = np.random.default_rng(66)
        early = 0
        for grid in self.grids():
            a, b = outer_boundary_links(rng, grid)
            exit = tomography._pair_setup(grid, a.T, b.T)[1]  # per axis, per link
            early += np.count_nonzero(exit.min(axis=0) < 1.0)
            self.assert_marcher_intervals(grid, a, b)
        assert early > 100

    def test_city_intervals_match_marcher_exactly(self):
        # ground-to-air links of a city's 17 x 17 x 8 loss grid, users on
        # its lower outer face, to every allowed flight point
        params = ScenarioParams(building_height=60.0, slf_dims=(17, 17, 8), flight_dims=(10, 8, 4))
        chan = ChannelParams(
            wavelength=0.125, bandwidth=20e6, tx_power=0.1, noise_power=1e-12, min_rate=5e6
        )
        city = build_urban(params, chan)
        users = np.array([p.as_tuple() for p in sample_users(city, 4, rng=67)])
        flight = np.array([p.as_tuple() for p in city.flight_points])
        a, b = np.repeat(users, len(flight), axis=0), np.tile(flight, (len(users), 1))
        self.assert_marcher_intervals(city.slf.grid, a, b)

    def test_links_do_not_depend_on_their_batch(self):
        # each link's intervals and shadowing in a mixed batch of five
        # chunks, bit for bit those of the link run alone: its terms are
        # summed left to right, whatever the slot count of its chunk
        rng = np.random.default_rng(68)
        for grid in self.grids():
            a, b = edge_case_links(rng, grid)
            field = SlfField(grid, np.random.default_rng(69).uniform(0.5, 3.5, grid.dims))
            shadow = line_integrals(field, a, b)
            keep, lengths, flat = tomography._chunk_intervals(grid, a, b)
            batch = [
                (k[i], c[i], f[i])
                for k, c, f in tomography._link_chunks(grid, a, b)
                for i in range(len(k))
            ]
            assert len(batch) == len(a)
            for i, (chunk_keep, chunk_coeff, chunk_flat) in enumerate(batch):
                k1, l1, f1 = tomography._chunk_intervals(grid, a[i : i + 1], b[i : i + 1])
                np.testing.assert_array_equal(lengths[i][keep[i]], l1[0][k1[0]])
                np.testing.assert_array_equal(flat[i][keep[i]], f1[0][k1[0]])
                ((k2, c2, f2),) = tomography._link_chunks(grid, a[i : i + 1], b[i : i + 1])
                np.testing.assert_array_equal(chunk_coeff[chunk_keep], c2[k2])
                np.testing.assert_array_equal(chunk_flat[chunk_keep], f2[k2])
                alone = line_integrals(field, a[i : i + 1], b[i : i + 1])
                np.testing.assert_array_equal(shadow[i], alone[0])

    def test_values_do_not_depend_on_the_chunk_length(self, monkeypatch):
        rng = np.random.default_rng(71)
        grid = SKEWED
        field = SlfField(grid, rng.uniform(0.5, 3.5, grid.dims))
        a, b = edge_case_links(rng, grid)
        users, cands = face_biased_points(rng, grid, 7), face_biased_points(rng, grid, 60)
        want = line_integrals(field, a, b)
        want_matrix = tomography._line_integral_matrix(field, users, cands)
        for chunk in (1, 2, 7, tomography._CHUNK_LINKS, 5000):
            monkeypatch.setattr(tomography, "_CHUNK_LINKS", chunk)
            np.testing.assert_array_equal(line_integrals(field, a, b), want)
            np.testing.assert_array_equal(tomography._line_integral_matrix(field, users, cands), want_matrix)

    @staticmethod
    def assert_matrix_is_tiled_batch(field, users, cands):
        users, cands = np.asarray(users, dtype=float), np.asarray(cands, dtype=float)
        got = tomography._line_integral_matrix(field, users, cands)
        assert got.shape == (len(users), len(cands))
        tiled = line_integrals(field, np.repeat(users, len(cands), axis=0), np.tile(cands, (len(users), 1)))
        np.testing.assert_array_equal(got.ravel(), tiled)

    def test_matrix_equals_the_tiled_batch(self):
        # the users x candidates tables, bit for bit the batch of every
        # pair: a city's flight grid, the same grid thinned at random,
        # candidates with no coordinate in common, face-biased points on a
        # skewed grid (grid exits before t = 1), one user and one candidate
        params = ScenarioParams(building_height=60.0, slf_dims=(17, 17, 8), flight_dims=(10, 8, 4))
        chan = ChannelParams(
            wavelength=0.125, bandwidth=20e6, tx_power=0.1, noise_power=1e-12, min_rate=5e6
        )
        city = build_urban(params, chan)
        rng = np.random.default_rng(72)
        users = [p.as_tuple() for p in sample_users(city, 20, rng=73)]
        flight = np.array([p.as_tuple() for p in city.flight_points])
        self.assert_matrix_is_tiled_batch(city.slf, users, flight)
        self.assert_matrix_is_tiled_batch(city.slf, users, flight[rng.random(len(flight)) < 0.3])
        lo, hi = city.slf.grid.domain_bounds()
        self.assert_matrix_is_tiled_batch(city.slf, users, rng.uniform(lo, hi, (40, 3)))
        self.assert_matrix_is_tiled_batch(city.slf, users[:1], flight[:1])
        field = SlfField(SKEWED, rng.uniform(0.5, 3.5, SKEWED.dims))
        self.assert_matrix_is_tiled_batch(field, face_biased_points(rng, SKEWED, 9), face_biased_points(rng, SKEWED, 70))
        self.assert_matrix_is_tiled_batch(field, np.zeros((0, 3)), face_biased_points(rng, SKEWED, 3))

    def test_matrix_domain(self):
        field = random_field(np.random.default_rng(74))
        with pytest.raises(DomainError):
            tomography._line_integral_matrix(field, [[1.0, 1.0, 1.0]], [[3.0, 3.0, 3.0], [2.0, 9.0, 2.0]])
        with pytest.raises(DomainError):
            tomography._line_integral_matrix(field, [[1.0, 1.0, -3.0]], [[3.0, 3.0, 3.0]])

    def test_numpy_sums_axis_zero_left_to_right(self):
        # The kernel sums each link's terms as one column of a C-ordered
        # (slots, links) array, and relies on numpy adding its rows in
        # order, one running sum a column; a single link, which numpy would
        # sum pairwise as a (K, 1) column, goes through accumulate. A numpy
        # that changes either order fails here.
        rng = np.random.default_rng(75)
        for k, n in [(1, 2), (2, 2), (9, 2), (37, 3), (40, 256), (130, 17)]:
            terms = rng.uniform(-1.0, 1.0, (k, n)) * 10.0 ** rng.integers(-12, 12, (k, n))
            loop = terms[0].copy()
            for row in terms[1:]:
                loop = loop + row
            np.testing.assert_array_equal(terms.sum(axis=0), loop)
            for i in range(n):
                coeff = terms[:, i][None]
                got = tomography._slot_order_sums(np.ones(k), [(None, coeff, np.arange(k)[None])])
                np.testing.assert_array_equal(got, loop[i : i + 1])

    def test_crossing_behind_start_clips_to_zero(self):
        # a sits on a voxel corner; one of its faces rounds to a parameter
        # just below 0, which must count as 0 or the next interval grows
        grid = RegularGrid3(Point3(0.8, -5.7, 5.6), (0.9, 2.7, 1.6), (4, 4, 4))
        a = np.array(grid.origin.as_tuple()) + np.array([0.5, 2.5, 0.5]) * np.asarray(grid.spacing)
        b = np.array([0.9777820490298805, -1.8097972059068734, 7.208302720968654])
        trav = traverse_voxels(grid, Segment3(Point3(*a), Point3(*b)))
        keep, lengths, _ = tomography._chunk_intervals(grid, a[None], b[None])
        np.testing.assert_array_equal(lengths[keep], trav.interval_lengths())

    def test_zero_length_grid_exit_stretches_last_interval(self):
        # b sits on the x face between voxels 0 and 1 and on the outer y
        # face; both crossings round to the same t < 1, the x one is taken
        # first, and the y exit then adds no interval, so the marcher
        # stretches voxel 0's interval to t = 1
        grid = RegularGrid3(Point3(-9.3, -9.3, -9.3), (2.6, 2.6, 2.6), (2, 1, 1))
        a, b = np.array([-9.2, -9.2, -9.3]), np.array([-8.0, -8.0, -9.3])
        trav = traverse_voxels(grid, Segment3(Point3(*a), Point3(*b)))
        assert [tuple(v) for v in trav.voxels] == [(0, 0, 0)]
        keep, lengths, flat = tomography._chunk_intervals(grid, a[None], b[None])
        assert flat[keep].tolist() == [0] and lengths[keep].tolist() == [1.0]
        field = SlfField(grid, np.array([2.0, 5.0]).reshape(2, 1, 1))
        assert line_integrals(field, a, b)[0] == 2.0 * math.sqrt(float(np.linalg.norm(b - a)))

    def test_length_from_raw_endpoints(self):
        # The mutant takes sqrt(|b - a|) from origin-shifted endpoints; on
        # 1e-9 m links far from the origin it is off by far more than the
        # kernel's tolerance, so the 1e-9 m case above guards the choice.
        rng = np.random.default_rng(62)
        grid = RegularGrid3(Point3(123.456, -7.1, 0.3), (2.9, 0.1, 1.0), (3, 17, 1))
        field = SlfField(grid, rng.uniform(0.5, 3.5, grid.dims))
        a, b = edge_case_links(rng, grid)
        a, b = a[400:600], b[400:600]
        got = line_integrals(field, a, b)
        ref = scalar_integrals(field, a, b)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        origin = np.array(grid.origin.as_tuple())
        shifted = np.sqrt(np.linalg.norm((b - origin) - (a - origin), axis=1))
        mutant = got / np.sqrt(np.linalg.norm(b - a, axis=1)) * shifted
        assert np.max(np.abs(mutant - ref) / ref) > 1e-9

    def test_design_matrix_matches_link_by_link_csr(self):
        rng = np.random.default_rng(63)
        grid = SKEWED
        a, b = edge_case_links(rng, grid)
        meas = [Measurement(Point3(*p), Point3(*q), 0.0) for p, q in zip(a, b) if np.any(p != q)]
        rows, cols, data = [], [], []
        ny, nz = grid.dims[1], grid.dims[2]
        for k, m in enumerate(meas):
            trav = traverse_voxels(grid, m.segment)
            v = trav.voxels
            rows += [k] * len(v)
            cols += ((v[:, 0] * ny + v[:, 1]) * nz + v[:, 2]).tolist()
            data += (math.sqrt(m.segment.length) * trav.interval_lengths()).tolist()
        ref = sparse.coo_matrix((data, (rows, cols)), shape=(len(meas), grid.num_points)).tocsr()
        got = tomography._design_matrix(meas, grid)
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_allclose(got.data, ref.data, rtol=1e-15, atol=0)

    def test_empty_batch_and_domain(self):
        field = random_field(np.random.default_rng(64))
        assert line_integrals(field, np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)
        with pytest.raises(DomainError):
            line_integrals(field, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [[3.0, 3.0, 3.0], [2.0, 9.0, 2.0]])


class TestDenseSamplingOracle:
    """The run-counting sampler against the plain per-sample rectangle rule."""

    @staticmethod
    def per_sample(values, grid, a, b, n):
        t = (np.arange(n) + 0.5) / n
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        origin = np.array(grid.origin.as_tuple())
        idx = oracles._voxel_index_arrays((pts - origin) / np.asarray(grid.spacing), grid.dims)
        return math.sqrt(float(np.linalg.norm(b - a))) * float(values[idx].sum()) / n

    def test_run_counting_matches_per_sample_sum(self):
        rng = np.random.default_rng(50)
        skewed = RegularGrid3(Point3(-1.3, 0.4, 2.0), (0.7, 1.3, 0.45), (6, 5, 9))
        fields = [random_field(rng), SlfField(skewed, rng.uniform(0.5, 3.5, skewed.dims))]
        segments = [  # endpoints in grid-index units, so k + 1/2 is a voxel face
            ((0.2, 1.0, 1.0), (5.3, 1.0, 1.0)),  # parallel to x
            ((3.3, 2.1, -0.4), (3.3, 2.1, 4.4)),  # parallel to z
            ((-0.5, 3.0, 3.0), (5.5, 3.0, 3.0)),  # along x from the outer face
            ((1.5, 2.5, 0.5), (4.5, 0.5, 3.5)),  # both endpoints on faces
            ((0.5, 0.5, 0.5), (4.5, 3.5, 4.5)),  # both endpoints on voxel corners
        ]
        for field in fields:
            origin = np.array(field.grid.origin.as_tuple())
            spacing = np.asarray(field.grid.spacing)
            pairs = [(origin + np.array(a) * spacing, origin + np.array(b) * spacing) for a, b in segments]
            lo, hi = field.grid.domain_bounds()
            pairs += [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(5)]
            for a, b in pairs:
                for start, end in ((a, b), (b, a)):  # and reversed
                    for n in (700, 5003):  # neither a multiple of the block size
                        got = dense_sampling_integral(field.values, field.grid, start, end, n=n)
                        ref = self.per_sample(field.values, field.grid, start, end, n)
                        assert got == pytest.approx(ref, rel=1e-12)


class TestTraversal:
    def test_axis_aligned_three_voxels(self):
        # voxel k spans [k - 1/2, k + 1/2]: 0.2 -> 2.3 crosses at 0.5 and 1.5
        grid = unit_grid((4, 4, 4))
        trav = traverse_voxels(grid, Segment3(Point3(0.2, 1.0, 1.0), Point3(2.3, 1.0, 1.0)))
        assert trav.num_intervals == 3
        assert [tuple(v) for v in trav.voxels] == [(0, 1, 1), (1, 1, 1), (2, 1, 1)]
        np.testing.assert_allclose(trav.crossings, [0.0, 0.3 / 2.1, 1.3 / 2.1, 1.0])

    def test_inside_single_voxel(self):
        grid = unit_grid((4, 4, 4))
        trav = traverse_voxels(grid, Segment3(Point3(1.1, 1.2, 1.3), Point3(1.4, 0.9, 1.2)))
        assert trav.num_intervals == 1
        assert trav.interval_lengths()[0] == pytest.approx(1.0)

    def test_corner_to_corner_interval_count(self):
        n = 6
        grid = unit_grid((n, n, n))
        lo, hi = grid.domain_bounds()
        seg = Segment3(Point3(*(lo + 1e-9)), Point3(*(hi - 1e-9)))
        trav = traverse_voxels(grid, seg)
        assert trav.num_intervals <= 3 * n
        ref = merge_crossing_count(grid, seg.a.as_array(), seg.b.as_array())
        assert trav.num_intervals == ref

    def test_crossing_count_bound_random(self):
        rng = np.random.default_rng(16)
        grid = RegularGrid3(Point3(-1, 2, 0), (0.7, 1.3, 0.9), (7, 5, 6))
        bound = sum(grid.dims) + 2
        for _ in range(500):
            seg = random_inner_segment(rng, grid, min_len=0.1)
            trav = traverse_voxels(grid, seg)
            assert trav.num_intervals <= bound
            lengths = trav.interval_lengths()
            assert lengths.min() >= 0
            assert lengths.sum() == pytest.approx(1.0, abs=1e-12)
            assert trav.crossings[0] == 0.0 and trav.crossings[-1] == 1.0

    def test_boundary_start(self):
        # a segment starting exactly on the lower domain face traverses cleanly
        grid = unit_grid((4, 4, 4))
        lo, _ = grid.domain_bounds()
        trav = traverse_voxels(grid, Segment3(Point3(1.0, 1.0, lo[2]), Point3(1.0, 1.0, 3.2)))
        assert trav.crossings[0] == 0.0
        assert trav.interval_lengths().sum() == pytest.approx(1.0, abs=1e-12)

    def test_start_exactly_on_interior_boundary(self):
        # x = 1.5 sits on the voxel 1 / voxel 2 face; the integral must use
        # the voxel the open path interior actually lies in, both directions
        grid = unit_grid((4, 4, 4))
        values = np.zeros((4, 4, 4))
        for i in range(4):
            values[i, :, :] = float(i)
        field = SlfField(grid, values)
        down = Segment3(Point3(1.5, 1.0, 1.0), Point3(0.3, 1.0, 1.0))
        got = shadowing_line_integral(field, down)
        assert got == pytest.approx(math.sqrt(1.2) * (1.0 * 1.0 + 0.2 * 0.0) / 1.2, rel=1e-12)
        up = Segment3(Point3(1.5, 1.0, 1.0), Point3(2.3, 1.0, 1.0))
        assert shadowing_line_integral(field, up) == pytest.approx(math.sqrt(0.8) * 2.0, rel=1e-12)


class TestEllipsoidSum:
    def test_empty_ellipsoid_yields_zero(self):
        # nonzero field, but no grid point inside the ellipsoid -> exactly 0
        grid = RegularGrid3(Point3(0, 0, 0), (10.0, 10.0, 10.0), (2, 2, 2))
        field = SlfField.constant(grid, 5.0)
        seg = Segment3(Point3(4.0, 4.0, 4.0), Point3(6.0, 6.0, 6.0))
        assert shadowing_ellipsoid_sum(field, seg, width=0.5) == 0.0
        assert shadowing_line_integral(field, seg) > 0.0

    def test_full_coverage(self):
        grid = unit_grid((3, 3, 3))
        field = SlfField.constant(grid, 1.5)
        seg = Segment3(Point3(0.1, 0.1, 0.1), Point3(1.9, 1.9, 1.9))
        got = shadowing_ellipsoid_sum(field, seg, width=1000.0)
        assert got == pytest.approx(27 * 1.5 / math.sqrt(seg.length), rel=1e-12)

    def test_matches_bruteforce_membership(self):
        rng = np.random.default_rng(17)
        grid = RegularGrid3(Point3(0, 0, 0), (1.0, 1.0, 0.5), (8, 6, 1))
        field = SlfField(grid, rng.uniform(0, 3, grid.dims))
        seg = Segment3(Point3(1.3, 2.2, 0.0), Point3(6.4, 3.1, 0.0))
        width = 2.0
        total = 0.0
        for ix in range(8):
            for iy in range(6):
                p = grid.point((ix, iy, 0))
                if p.distance_to(seg.a) + p.distance_to(seg.b) <= seg.length + width / 2:
                    total += field.values[ix, iy, 0]
        expect = total / math.sqrt(seg.length)
        assert shadowing_ellipsoid_sum(field, seg, width) == pytest.approx(expect, rel=1e-12)

    def test_width_validation(self):
        # a NaN width used to select no grid point and return 0.0
        field = SlfField.constant(unit_grid((2, 2, 2)), 1.0)
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="ellipsoid width must be finite and positive"):
                shadowing_ellipsoid_sum(field, Segment3(Point3(0, 0, 0), Point3(1, 1, 1)), width=width)


class TestEstimation:
    def test_single_voxel_single_measurement(self, monkeypatch):
        # one link inside one voxel: its design entry is a = d / sqrt(d), and
        # the ridge fit is a * y / (a^2 + ridge) there and 0 elsewhere
        grid = unit_grid((2, 2, 2))
        tx, rx = Point3(0.8, 1.0, 1.0), Point3(1.2, 1.0, 1.0)
        d = tx.distance_to(rx)
        meas = [Measurement(tx, rx, 1.7)]
        for ridge in (1e-6, 1e-2):
            monkeypatch.setattr(tomography, "_RIDGE", ridge)
            field = estimate_slf(meas, grid)
            want = math.sqrt(d) * 1.7 / (d + ridge)
            assert field.values[1, 1, 1] == pytest.approx(want, rel=1e-8)
            assert np.count_nonzero(field.values) == 1

    def test_zero_observations(self):
        rng = np.random.default_rng(18)
        grid = unit_grid((3, 3, 3))
        meas = []
        for _ in range(30):
            seg = random_inner_segment(rng, grid)
            meas.append(Measurement(seg.a, seg.b, 0.0))
        field = estimate_slf(meas, grid)
        np.testing.assert_allclose(field.values, 0.0, atol=1e-12)

    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(19)
        grid = RegularGrid3(Point3(0, 0, 0), (1.0, 1.0, 1.0), (4, 4, 3))
        truth = SlfField(grid, rng.uniform(0.2, 2.5, grid.dims))
        meas = []
        counts = np.zeros(grid.dims, dtype=int)
        for _ in range(500):
            seg = random_inner_segment(rng, grid, min_len=1.0)
            trav = traverse_voxels(grid, seg)
            for v, L in zip(trav.voxels, trav.interval_lengths()):
                if L > 0:
                    counts[tuple(v)] += 1
            meas.append(Measurement(seg.a, seg.b, shadowing_line_integral(truth, seg)))
        est = estimate_slf(meas, grid)
        well_seen = counts >= 3
        assert well_seen.sum() >= 10
        err = np.abs(est.values - truth.values)[well_seen] / truth.values[well_seen]
        assert err.max() < 1e-3

    def test_requires_measurements(self):
        with pytest.raises(ValueError):
            estimate_slf([], unit_grid((2, 2, 2)))

    def test_negative_clip_optional(self):
        grid = unit_grid((2, 2, 2))
        meas = [Measurement(Point3(0.8, 1.0, 1.0), Point3(1.2, 1.0, 1.0), -1.0)]
        clipped = estimate_slf(meas, grid)
        assert np.all(clipped.values == 0.0)

    @staticmethod
    def low_links(rng, grid, n):
        """Random links in the two lower z layers; the top layer stays uncrossed."""
        lo, hi = grid.domain_bounds()
        hi = np.array([hi[0], hi[1], 1.4])
        pts = rng.uniform(lo + 1e-6, hi - 1e-6, (n, 2, 3))
        return [Measurement(Point3(*a), Point3(*b), float(rng.normal(1.0, 2.0))) for a, b in pts]

    @pytest.mark.parametrize("ridge", [1e-6, 1e-2])
    def test_ridge_matches_dense_normal_equations(self, ridge, monkeypatch):
        rng = np.random.default_rng(31)
        grid = unit_grid((4, 4, 3))
        meas = self.low_links(rng, grid, 120)
        monkeypatch.setattr(tomography, "_RIDGE", ridge)
        fit = estimate_slf(meas, grid).values.ravel()
        ref = oracles.dense_ridge_fit(grid, meas, ridge)
        assert ref.min() < 0  # the clip to nonnegative values is exercised
        # clipping is 1-Lipschitz, so it cannot widen the distance to ref
        assert np.linalg.norm(fit - np.maximum(ref, 0.0)) <= 1e-9 * np.linalg.norm(ref)
        assert np.isfinite(fit).all()
        assert np.all(fit.reshape(grid.dims)[:, :, 2] == 0.0)

    def test_rank_deficient_leaves_uncrossed_voxels_zero(self):
        # links parallel to x or y along voxel centres of the two lower layers,
        # with random ends: more links than the rank, so the observations are
        # inconsistent, and uneven column norms
        rng = np.random.default_rng(0)
        grid = unit_grid((4, 4, 3))
        meas = []
        for _ in range(24):
            lo, hi = np.sort(rng.uniform(-0.5, 3.5, 2))
            c, z = float(rng.integers(4)), float(rng.integers(2))
            a, b = ([lo, c, z], [hi, c, z]) if rng.integers(2) else ([c, lo, z], [c, hi, z])
            meas.append(Measurement(Point3(*a), Point3(*b), float(rng.normal())))
        fit = estimate_slf(meas, grid).values.ravel()
        assert np.isfinite(fit).all()
        assert np.all(fit.reshape(grid.dims)[:, :, 2] == 0.0)

    def test_solve_equals_plain_sparse_lsmr(self):
        # estimate_slf hands lsmr a linear operator; it must be the same
        # linear map, with the same rounding, as the stacked, column-scaled
        # sparse matrix itself
        from scipy.sparse.linalg import lsmr, norm

        rng = np.random.default_rng(69)
        grid = unit_grid((8, 7, 5))
        n = 800
        ground = rng.uniform(-0.5, [7.5, 6.5, -0.5], (n, 3))
        air = rng.uniform([-0.5, -0.5, 1.0], [7.5, 6.5, 4.5], (n, 3))
        y = line_integrals(random_field(rng, grid.dims, 0.0, 1.0), ground, air) + rng.normal(0.0, 1.0, n)
        meas = [Measurement(Point3(*a), Point3(*b), v) for a, b, v in zip(ground, air, y)]
        ridge = math.sqrt(tomography._RIDGE) * sparse.identity(grid.num_points)
        a = sparse.vstack([tomography._design_matrix(meas, grid), ridge], format="csr")
        scale = 1.0 / norm(a, axis=0)
        want = scale * lsmr(
            a @ sparse.diags(scale),
            np.concatenate([y, np.zeros(grid.num_points)]),
            atol=1e-12,
            btol=1e-12,
            conlim=1e14,
            maxiter=50 * (grid.num_points + n),
        )[0]
        got = estimate_slf(meas, grid).values.ravel()
        assert got.min() == 0.0 and want.min() < 0.0  # the clip is exercised
        np.testing.assert_array_equal(got, np.maximum(want, 0.0))

    def test_iteration_count(self, monkeypatch):
        # the column-scaled solve takes 122 iterations here, the unscaled
        # one 712
        iterations = []
        original = tomography.lsmr

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            iterations.append(result[2])
            return result

        monkeypatch.setattr(tomography, "lsmr", counted)
        rng = np.random.default_rng(12)
        grid = unit_grid((12, 12, 6))
        truth = SlfField(grid, rng.uniform(0.2, 2.5, grid.dims))
        n = 3000
        starts = np.column_stack([rng.uniform(-0.5, 11.5, (n, 2)), np.full(n, -0.5)])
        ends = np.column_stack([rng.uniform(-0.5, 11.5, (n, 2)), rng.uniform(1.0, 5.5, n)])
        y = line_integrals(truth, starts, ends)
        meas = [Measurement(Point3(*a), Point3(*b), v) for a, b, v in zip(starts, ends, y)]
        estimate_slf(meas, grid)
        assert len(iterations) == 1
        assert iterations[0] <= 400


class TestSerialization:
    def test_slf_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        grid = RegularGrid3(Point3(-1.5, 0.0, 2.25), (0.5, 1.25, 2.0), (3, 2, 4))
        field = SlfField(grid, rng.uniform(0, 3, grid.dims))
        path = tmp_path / "field.txt"
        write_slf_text(field, path)
        back = read_slf_text(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, field.values)

    def test_measurements_csv_round_trip(self, tmp_path):
        meas = [
            Measurement(Point3(0, 1, 2), Point3(3, 4, 5), 1.25),
            Measurement(Point3(-1, 0.5, 2.5), Point3(3, 4, 5), -0.75),
        ]
        path = tmp_path / "meas.csv"
        write_measurements_csv(meas, path)
        back = read_measurements_csv(path)
        assert back == meas

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("tx_x,tx_y,tx_z,rx_x,rx_y,rx_z,shadow_db\n0,1,2,3,4,5\n", 2),
            ("tx_x,tx_y,tx_z,rx_x,rx_y,rx_z,shadow_db\n0,1,2,3,4,5,1.5\n\n", 3),
            ("tx_x,tx_y,tx_z,rx_x,rx_y,rx_z,shadow_db\n0,1,2,3,4,5,1.5,9\n", 2),
            ("tx_x,tx_y,tx_z,rx_x,rx_y,rx_z,shadow_db\n0,1,2,3,4,5,1.5\n0,1,2,3,4,5,db\n", 3),
            ("tx_x,tx_y,tx_z,rx_x,rx_y,rx_z,shadow_db\n0,1,2,3,4,5,nan\n", 2),
        ],
        ids=["empty", "six_fields", "blank_line", "eight_fields", "not_a_number", "nan_shadow"],
    )
    def test_measurements_csv_rejects_malformed(self, tmp_path, text, line):
        path = tmp_path / "meas.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
            read_measurements_csv(path)

    def test_slf_text_rejects_truncated(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2 1.0 1.0 1.0 0.0 0.0 0.0\n1.0 2.0\n")
        with pytest.raises(ValueError):
            read_slf_text(path)

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("2 2 x 1.0 1.0 1.0 0.0 0.0 0.0\n", "", "invalid literal"),
            ("1 1 1 1.0 y 1.0 0.0 0.0 0.0\n1.0\n", "", "could not convert"),
            ("2 2 0 1.0 1.0 1.0 0.0 0.0 0.0\n", "", "dims must be positive"),
            ("1 1 1 1.0 -1.0 1.0 0.0 0.0 0.0\n1.0\n", "", "spacing must be strictly positive"),
            ("1 1 1 1.0 1.0 1.0 0.0 inf 0.0\n1.0\n", "", "coordinates must be finite"),
            ("1 1 2 1.0 1.0 1.0 0.0 0.0 0.0\n1.0\nx\n", ", line 3", "could not convert"),
            ("1 1 2 1.0 1.0 1.0 0.0 0.0 0.0\n1.0\nnan\n", ", line 3", "must be finite"),
            ("1 1 2 1.0 1.0 1.0 0.0 0.0 0.0\n-inf\n2.0\n", ", line 2", "must be finite"),
            ("1 1 2 1.0 1.0 1.0 0.0 0.0 0.0\n1.0\n", "", "expected 2 values, found 1"),
            ("1 1 2\n1.0 1.0 1.0\n0.0 0.0 0.0 1.0 1e999\n", ", line 3", "must be finite"),
        ],
        ids=["dims_token", "spacing_token", "zero_dim", "negative_spacing", "inf_origin",
             "value_token", "nan_value", "inf_value", "value_count", "value_on_header_line"],
    )
    def test_slf_text_names_the_file(self, tmp_path, text, where, message):
        path = tmp_path / "field.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + where)}: .*{message}"):
            read_slf_text(path)
