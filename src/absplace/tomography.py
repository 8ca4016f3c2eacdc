"""Shadowing maps on a voxelized spatial loss field.

The shadowing between two points is the line integral of a local attenuation
field (dB per meter) along the connecting segment, normalized by the square
root of the link distance. The field is stored on a regular grid and treated
as piecewise constant over the voxels around the grid points, which turns the
integral into an exact weighted sum over the voxels the segment crosses:

    shadowing = sqrt(|b - a|) * sum_i (t_i - t_{i-1}) * field[voxel_i]

with 0 = t_0 <= ... <= t_T = 1 the crossing parameters. Unlike the
conventional ellipsoid weighted sum (also provided, for comparison), this
approximation is continuous in the endpoints, stays meaningful on coarse
grids, and costs O(Qx + Qy + Qz) per segment instead of O(Q).

``line_integrals`` evaluates many links at once: it computes each link's
face crossings per axis in closed form, merges them with one stable sort
and weights the intervals by the field, for a bounded chunk of links at a
time. The capacity matrix, the estimator's design matrix and
``shadowing_line_integral`` all run on it. ``traverse_voxels`` marches one
segment face by face; it is the scalar reference the batched kernel
reproduces interval for interval.

All quantities are treated as dimensionless; with the field in dB/m the
shadowing carries a dB * m^(1/2) scale, which cancels downstream because
fields are always fit from observations through this same operator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Point3, RegularGrid3, Segment3, containing_voxel

__all__ = [
    "SlfField",
    "Measurement",
    "TraversalResult",
    "traverse_voxels",
    "line_integrals",
    "shadowing_line_integral",
    "shadowing_ellipsoid_sum",
    "estimate_slf",
    "write_slf_text",
    "read_slf_text",
    "write_measurements_csv",
    "read_measurements_csv",
]


@dataclass(frozen=True)
class SlfField:
    """Attenuation values (dB/m) on a regular grid; immutable once built."""

    grid: RegularGrid3
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.dims:
            raise ValueError(f"values shape {values.shape} != grid dims {self.grid.dims}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: RegularGrid3, value: float) -> "SlfField":
        return cls(grid, np.full(grid.dims, float(value)))

    @classmethod
    def zeros(cls, grid: RegularGrid3) -> "SlfField":
        return cls.constant(grid, 0.0)


@dataclass(frozen=True)
class Measurement:
    """One link observation: endpoints plus the observed shadowing in dB.

    ``shadow_db`` is the gain deficit relative to free space, i.e. free-space
    path gain at the link distance minus the measured gain.
    """

    tx: Point3
    rx: Point3
    shadow_db: float

    def __post_init__(self):
        object.__setattr__(self, "shadow_db", float(self.shadow_db))
        if self.tx == self.rx:
            raise ValueError("measurement endpoints must differ")

    @property
    def segment(self) -> Segment3:
        return Segment3(self.tx, self.rx)


@dataclass(frozen=True)
class TraversalResult:
    """Voxel crossings of a segment parameterized on [0, 1].

    crossings: (T+1,) nondecreasing parameters, first 0.0, last 1.0.
    voxels: (T, 3) integer indices; interval i lies inside voxels[i].
    """

    crossings: np.ndarray
    voxels: np.ndarray

    @property
    def num_intervals(self) -> int:
        return len(self.voxels)

    def interval_lengths(self) -> np.ndarray:
        return np.diff(self.crossings)

    def integrate(self, values: np.ndarray) -> float:
        """Path average of a voxel tensor: sum of interval lengths times values."""
        ix, iy, iz = self.voxels[:, 0], self.voxels[:, 1], self.voxels[:, 2]
        return float(self.interval_lengths() @ values[ix, iy, iz])


def traverse_voxels(grid: RegularGrid3, seg: Segment3) -> TraversalResult:
    """March a segment through the grid, recording voxel-boundary crossings.

    Walks from the voxel containing ``seg.a`` toward ``seg.b``, repeatedly
    finding, over the axes the segment actually moves along, the nearest
    boundary crossing ahead of the current parameter. The final interval is
    clamped to end at t = 1. Axes with zero direction component never select
    a crossing (their divisor is replaced by 1 only to avoid division
    faults). Zero-length boundary touches produce no interval.

    Raises DomainError if either endpoint lies outside the grid's closed
    voxel domain. A degenerate zero-length segment yields one interval
    spanning [0, 1] inside the containing voxel.
    """
    start = containing_voxel(grid, seg.a)
    containing_voxel(grid, seg.b)  # domain check for the far endpoint
    if seg.is_degenerate():
        return TraversalResult(np.array([0.0, 1.0]), np.array([start], dtype=int))

    origin = grid.origin.as_tuple()
    x1 = tuple(c - o for c, o in zip(seg.a.as_tuple(), origin))
    x2 = tuple(c - o for c, o in zip(seg.b.as_tuple(), origin))
    delta = tuple(q - p for p, q in zip(x1, x2))
    b_inc = tuple(0 if d == 0.0 else (1 if d > 0.0 else -1) for d in delta)
    den = tuple(d if d != 0.0 else 1.0 for d in delta)

    sp = grid.spacing
    dims = grid.dims
    i_cur = list(start)
    ts = [0.0]
    voxels = []
    t = 0.0
    max_steps = dims[0] + dims[1] + dims[2] + 8
    steps = 0
    while t < 1.0:
        t_next = math.inf
        j_next = -1
        for j in range(3):
            if b_inc[j] == 0:
                continue
            bound = sp[j] * (i_cur[j] + 0.5 * b_inc[j])
            tc = (bound - x1[j]) / den[j]
            if tc < t_next:
                t_next = tc
                j_next = j
        if t_next < t:  # float-noise guard: never march backwards
            t_next = t
        t_end = t_next if t_next < 1.0 else 1.0
        if t_end > t:
            voxels.append(tuple(i_cur))
            ts.append(t_end)
        if t_next >= 1.0:
            break
        t = t_next
        i_cur[j_next] += b_inc[j_next]
        if not 0 <= i_cur[j_next] < dims[j_next]:
            # The far endpoint sits numerically on the outer face; the
            # unvisited parameter range is a rounding-width sliver.
            break
        steps += 1
        if steps > max_steps:
            raise RuntimeError("voxel traversal exceeded its crossing bound")
    if not voxels:
        raise RuntimeError("voxel traversal produced no intervals")
    ts[-1] = 1.0
    return TraversalResult(np.array(ts), np.array(voxels, dtype=int))


_CHUNK_LINKS = 256  # links per pass of the batched kernel; bounds its temporaries


def _check_inside(grid: RegularGrid3, points: np.ndarray) -> None:
    """DomainError unless every row of ``points`` lies in the voxel domain."""
    lo, hi = grid.domain_bounds()
    outside = ~np.all((points >= lo) & (points <= hi), axis=1)
    if outside.any():
        p = tuple(float(c) for c in points[np.argmax(outside)])
        raise DomainError(f"point {p} outside grid domain [{lo}, {hi}]")


def _chunk_intervals(grid: RegularGrid3, a: np.ndarray, b: np.ndarray):
    """Voxel intervals of a chunk of links, one row per link a[i] -> b[i].

    Returns ``(keep, lengths, flat)``, three (n, K) arrays: row i lists link
    i's intervals in traversal order; ``keep`` marks the real ones, with
    parameter length ``lengths`` in the voxel of flat index ``flat``.

    Reproduces ``traverse_voxels`` step for step. The start voxel follows
    ``containing_voxel``. Axis j's crossing k, with i_k = start[j] + k * inc[j]
    the index before it, sits at (sp[j] * (i_k + 0.5 * inc[j]) - x1[j]) /
    den[j], the marcher's own expression; a stable sort over the x, y, z
    crossings of a link repeats the marcher's choice of the lowest axis on
    ties. Marching stops at the first crossing at or past t = 1 or whose
    next index leaves the grid. Negative parameters clip to 0 and
    zero-length intervals are dropped; when the grid exit is such a
    zero-length step, the last interval is stretched to t = 1 as the
    marcher does. With stride the flat-index step of each axis, interval m
    lies in voxel start @ stride plus the steps inc[j] * stride[j] of the
    crossings before it: one exclusive cumulative sum over the merged
    crossings, where the stop for links that move on no axis steps by 0.
    """
    n = len(a)
    origin = np.array(grid.origin.as_tuple())
    sp = np.array(grid.spacing)
    dims = np.array(grid.dims)
    x1 = a - origin
    v = x1 / sp
    start = np.where(v >= 0.0, np.floor(v + 0.5), np.ceil(v - 0.5))
    start = np.clip(start, 0, dims - 1).astype(np.int64)
    delta = (b - origin) - x1
    inc = np.sign(delta).astype(np.int64)
    den = np.where(delta != 0.0, delta, 1.0)
    # Crossings before the index would leave the grid; the next one exits.
    room = np.where(inc > 0, dims - 1 - start, start)
    # Crossing floor(|delta| / sp) + 2 of an axis lies past t = 1 with a
    # margin far above rounding, so no later one is ever reached.
    count = np.minimum(room + 1, np.floor(np.abs(delta) / sp).astype(np.int64) + 3)
    count[inc == 0] = 0

    times, exits, axis = [], [], []
    for j in range(3):
        k = np.arange(count[:, j].max())
        i = start[:, j, None] + k * inc[:, j, None]
        t = (sp[j] * (i + 0.5 * inc[:, j, None]) - x1[:, j, None]) / den[:, j, None]
        t[k >= count[:, j, None]] = np.inf
        times.append(t)
        exits.append(k == room[:, j, None])
        axis.append(np.full(k.size, j))
    times.append(np.full((n, 1), np.inf))  # a stop for links that move on no axis
    exits.append(np.zeros((n, 1), dtype=bool))
    axis.append([3])
    times = np.concatenate(times, axis=1)
    order = np.argsort(times, axis=1, kind="stable")
    raw = np.take_along_axis(times, order, axis=1)
    exit_ = np.take_along_axis(np.concatenate(exits, axis=1), order, axis=1)
    axis = np.concatenate(axis)[order]

    rows = np.arange(n)
    stop = np.argmax((raw >= 1.0) | exit_, axis=1)
    pos = np.arange(raw.shape[1])
    # t[:, m] ends interval m; interval `stop` ends at 1, later ones are empty.
    t = np.where(pos < stop[:, None], np.maximum(raw, 0.0), 1.0)
    lo = np.concatenate([np.zeros((n, 1)), t[:, :-1]], axis=1)
    zero_exit = exit_[rows, stop] & (raw[rows, stop] <= lo[rows, stop])
    keep = t > lo
    keep[rows[zero_exit], stop[zero_exit]] = False
    if zero_exit.any():
        if not keep[zero_exit].any(axis=1).all():
            raise RuntimeError("voxel traversal produced no intervals")
        last = keep.shape[1] - 1 - np.argmax(keep[zero_exit, ::-1], axis=1)
        t[rows[zero_exit], last] = 1.0
    lengths = np.where(keep, t - lo, 0.0)

    stride = np.array([dims[1] * dims[2], dims[2], 1])
    step = np.take_along_axis(np.column_stack([inc * stride, np.zeros(n, dtype=np.int64)]), axis, axis=1)
    flat = (start @ stride)[:, None] + step.cumsum(axis=1) - step
    return keep, lengths, np.where(keep, flat, 0)


def _link_chunks(grid: RegularGrid3, starts, ends):
    """Yield ``(keep, coeff, flat)`` for each run of at most _CHUNK_LINKS
    consecutive links, in order: ``coeff`` is sqrt(|b - a|) times the
    interval length, the link's weight on voxel ``flat``.

    Raises DomainError, before yielding anything, if an endpoint lies
    outside the grid's voxel domain.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    _check_inside(grid, starts)
    _check_inside(grid, ends)
    # From the raw endpoints: origin-shifted ones lose digits on short links.
    root = np.sqrt(np.linalg.norm(ends - starts, axis=1))
    for first in range(0, len(starts), _CHUNK_LINKS):
        part = slice(first, first + _CHUNK_LINKS)
        keep, lengths, flat = _chunk_intervals(grid, starts[part], ends[part])
        yield keep, root[part, None] * lengths, flat


def line_integrals(slf: SlfField, starts, ends) -> np.ndarray:
    """Shadowing of every link starts[i] -> ends[i], as an (L,) array.

    The batched form of ``shadowing_line_integral``: the intervals of
    ``traverse_voxels``, computed per axis in closed form for a chunk of
    links at a time. A zero-length link gives 0. Raises DomainError if any
    endpoint lies outside the field's voxel domain.
    """
    values = slf.values.ravel()
    chunks = _link_chunks(slf.grid, starts, ends)
    return np.concatenate(
        [np.zeros(0)] + [(coeff * values[flat]).sum(axis=1) for _, coeff, flat in chunks]
    )


def shadowing_line_integral(slf: SlfField, seg: Segment3) -> float:
    """Shadowing between the segment endpoints via voxel traversal.

    Exact for the piecewise-constant field: for a constant field l0 and a
    segment of length d the result is l0 * sqrt(d) regardless of grid
    spacing. Continuous in both endpoints. A zero-length segment returns 0
    by convention. Runs ``line_integrals`` on a batch of one.
    """
    if seg.is_degenerate():
        return 0.0
    return float(line_integrals(slf, seg.a.as_tuple(), seg.b.as_tuple())[0])


def shadowing_ellipsoid_sum(slf: SlfField, seg: Segment3, width: float) -> float:
    """Conventional weighted-sum shadowing over an ellipsoid of grid points.

    Sums the field at every grid point whose distances to the two endpoints
    add up to at most the link distance plus ``width / 2`` (an ellipsoid with
    foci at the endpoints; ``width`` is commonly on the order of the
    wavelength), scaled by 1 / sqrt(link distance).

    The result is discontinuous in the endpoints and equals 0 whenever the
    ellipsoid captures no grid point, however strong the field; this is the
    failure mode that motivates the traversal method. Raises ValueError
    unless ``width`` is finite and positive.
    """
    if not (width > 0 and math.isfinite(width)):
        raise ValueError(f"ellipsoid width must be finite and positive, got {width}")
    if seg.is_degenerate():
        raise DomainError("ellipsoid sum needs two distinct endpoints")
    pts = slf.grid.points_array()
    da = np.linalg.norm(pts - seg.a.as_array(), axis=1)
    db = np.linalg.norm(pts - seg.b.as_array(), axis=1)
    d = seg.length
    mask = da + db <= d + 0.5 * width
    return float(slf.values.ravel()[mask].sum() / math.sqrt(d))


def lsmr(*args, **kwargs):
    """``scipy.sparse.linalg.lsmr``, imported on the first call.

    scipy.sparse.linalg costs about 0.3 s to import, and of this module
    only the estimator needs it, so ``import absplace`` does not load it.
    ``estimate_slf`` calls the solver through this module attribute, which
    a caller may replace to observe or count the solves.
    """
    from scipy.sparse.linalg import lsmr as scipy_lsmr

    return scipy_lsmr(*args, **kwargs)


def _design_matrix(measurements, grid: RegularGrid3):
    """Sparse linear operator mapping a flattened field to predicted shadowing,
    as a ``scipy.sparse.csr_matrix``."""
    from scipy import sparse

    starts = np.array([m.tx.as_tuple() for m in measurements], dtype=float)
    ends = np.array([m.rx.as_tuple() for m in measurements], dtype=float)
    counts, cols, data = [], [], []
    for keep, coeff, flat in _link_chunks(grid, starts, ends):
        counts.append(keep.sum(axis=1))
        cols.append(flat[keep])
        data.append(coeff[keep])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    mat = sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(cols), indptr),
        shape=(len(measurements), grid.num_points),
    )
    mat.sort_indices()
    return mat


# The estimator's ridge weight: small next to a crossed voxel's squared
# column norm, so the fit there stays at its least-squares value.
_RIDGE = 1e-6


def estimate_slf(measurements, grid: RegularGrid3) -> SlfField:
    """Fit a loss field to observed shadowing values by ridge least squares.

    Minimizes sum_j (predicted_j - observed_j)^2 + _RIDGE * ||field||^2
    where the prediction is the traversal line integral, linear in the
    field; its sparse design matrix A comes from the batched kernel of
    ``line_integrals``, one row of interval weights per link.

    The rows sqrt(_RIDGE) * I are stacked under A and zeros under the
    observations, which leaves the objective exactly as above. Every column
    of the stacked matrix is then scaled to unit norm (each norm is at least
    sqrt(_RIDGE)) before ``lsmr`` runs, and the result is unscaled. This
    Jacobi preconditioning evens out the column norms of a survey whose
    voxels are crossed very unevenly, and cuts the iteration count about
    tenfold on city-sized surveys. Voxels no link crosses come out 0, and
    negative fitted values are clipped to 0, since physical absorption is
    nonnegative.
    """
    from scipy import sparse
    from scipy.sparse.linalg import norm

    measurements = list(measurements)
    if not measurements:
        raise ValueError("at least one measurement is required")
    a = _design_matrix(measurements, grid)
    a = sparse.vstack([a, math.sqrt(_RIDGE) * sparse.identity(grid.num_points)], format="csr")
    y = np.array([m.shadow_db for m in measurements], dtype=float)
    y = np.concatenate([y, np.zeros(grid.num_points)])
    scale = 1.0 / norm(a, axis=0)
    a = a @ sparse.diags(scale)
    x = scale * lsmr(
        a,
        y,
        atol=1e-12,
        btol=1e-12,
        conlim=1e14,
        maxiter=50 * (grid.num_points + len(measurements)),
    )[0]
    np.maximum(x, 0.0, out=x)
    return SlfField(grid, x.reshape(grid.dims))


def write_slf_text(field: SlfField, path) -> None:
    """Write a field as text: header ``Qx Qy Qz dx dy dz ox oy oz`` then the
    Qx*Qy*Qz values x-major (z index fastest)."""
    g = field.grid
    with open(path, "w") as fh:
        fh.write(
            "%d %d %d %r %r %r %r %r %r\n"
            % (g.dims + g.spacing + g.origin.as_tuple())
        )
        for v in field.values.ravel():
            fh.write(f"{float(v)!r}\n")


def read_slf_text(path) -> SlfField:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 9:
        raise ValueError(f"{path}: truncated field header")
    dims = tuple(int(t) for t in tokens[:3])
    spacing = tuple(float(t) for t in tokens[3:6])
    origin = Point3(*(float(t) for t in tokens[6:9]))
    values = np.array([float(t) for t in tokens[9:]])
    expected = dims[0] * dims[1] * dims[2]
    if values.size != expected:
        raise ValueError(f"{path}: expected {expected} values, found {values.size}")
    grid = RegularGrid3(origin, spacing, dims)
    return SlfField(grid, values.reshape(dims))


_MEASUREMENT_HEADER = ["tx_x", "tx_y", "tx_z", "rx_x", "rx_y", "rx_z", "shadow_db"]


def write_measurements_csv(measurements, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MEASUREMENT_HEADER)
        for m in measurements:
            writer.writerow([repr(v) for v in m.tx.as_tuple() + m.rx.as_tuple() + (m.shadow_db,)])


def read_measurements_csv(path) -> list[Measurement]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _MEASUREMENT_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            vals = [float(v) for v in row]
            out.append(Measurement(Point3(*vals[:3]), Point3(*vals[3:6]), vals[6]))
    return out
