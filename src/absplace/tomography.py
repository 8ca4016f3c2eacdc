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

``line_integrals`` evaluates many links at once. A link's crossings along
axis j depend only on its endpoints' j-th coordinates (the parametric
planes of Siddon 1985), so the batched kernel has two parts. Crossing
tables: for each axis and coordinate pair, the face crossings in closed
form, clipped to [0, 1] and packed into integer keys (the bits of the
parameter over the axis id), with the pair's start index, direction and
exit parameter. One merge, for a bounded chunk of links at a time: each
link gathers its three runs of keys, cuts them at its exit threshold (the
parameter where it leaves the grid or reaches its end), sorts its row by
value and weights the intervals by the field. Each link's terms are summed
left to right in slot order, so its value does not depend on the batch or
chunk it is in. ``line_integrals`` (the estimator's design matrix,
``shadowing_line_integral``) makes every link its own pair;
``_line_integral_matrix`` (the capacity matrix) pairs every start with each
distinct end coordinate, which on a flight grid leaves a few hundred pairs
an axis for thousands of links.
``traverse_voxels`` marches one segment face by face; it is the scalar
reference the batched kernel reproduces interval for interval.

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
    path gain at the link distance minus the measured gain. ValueError
    unless it is finite and the endpoints differ.
    """

    tx: Point3
    rx: Point3
    shadow_db: float

    def __post_init__(self):
        object.__setattr__(self, "shadow_db", float(self.shadow_db))
        if not math.isfinite(self.shadow_db):
            raise ValueError(f"shadow_db must be finite, got {self.shadow_db}")
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


_CHUNK_LINKS = 256  # links per merge of the batched kernel; bounds its temporaries

# A key at or above _AT_END packs t = 1.0, which no link's threshold
# exceeds. _NO_STEP, t = 1.0 over axis id 3, is the key of a crossing that
# takes no step, and the largest key a parameter in [0, 1] can have.
_AT_END = np.float64(1.0).view(np.uint64) << 2
_NO_STEP = _AT_END | 3


def _check_inside(grid: RegularGrid3, points: np.ndarray) -> None:
    """DomainError unless every row of ``points`` lies in the voxel domain."""
    lo, hi = grid.domain_bounds()
    outside = ~np.all((points >= lo) & (points <= hi), axis=1)
    if outside.any():
        p = tuple(float(c) for c in points[np.argmax(outside)])
        raise DomainError(f"point {p} outside grid domain [{lo}, {hi}]")


def _pair_setup(grid: RegularGrid3, p: np.ndarray, q: np.ndarray):
    """Per-pair constants of the coordinate pairs p[j, i] -> q[j, i] along
    axis j, as (3, P) arrays: ``(count, exit, base, step, inc, half, x1,
    den)``. ``count`` is the number of crossings a table holds, ``exit``
    the parameter where the pair's index leaves the grid, ``base`` and
    ``step`` the flat-index offsets of its start index and of one crossing;
    the last four place the crossings. See ``_chunk_intervals``."""
    origin = np.array(grid.origin.as_tuple())[:, None]
    sp = np.array(grid.spacing)[:, None]
    dims = np.array(grid.dims, dtype=float)[:, None]
    x1 = p - origin
    delta = (q - origin) - x1
    # containing_voxel rounds half away from zero; rounding half up agrees
    # with it once clipped, since every negative index clips to 0.
    start = np.clip(np.floor(x1 / sp + 0.5), 0.0, dims - 1)
    inc = np.sign(delta)
    still = inc == 0.0
    den = delta + still
    last = (inc > 0.0) * (dims - 1)  # the last voxel in the direction of travel
    # Crossing |last - start| is the pair's exit, and crossing
    # floor(|delta| / sp) + 2 lies past t = 1 with a margin far above
    # rounding; neither lies before a link's threshold, so no table needs it.
    count = np.minimum(np.abs(last - start), np.floor(np.abs(delta) / sp) + 2)
    count = (count * ~still).astype(np.intp)
    x1[still] = -np.inf  # every crossing of an axis the pair does not move on is +inf
    exit = (sp * (last + 0.5 * inc) - x1) / den
    stride = np.array([dims[1] * dims[2], dims[2], [1.0]])
    base = (start * stride).astype(np.intp)
    step = (inc * stride).astype(np.intp)
    return count, exit, base, step, inc, start + 0.5 * inc, x1, den


def _crossing_table(grid: RegularGrid3, count, inc, half, x1, den):
    """The crossing tables of the three axes, stacked in one (K, P) array
    of keys, and the first row of each. Rows rows[j] .. rows[j + 1] - 1
    hold crossings 0, 1, ... of the pairs along axis j (column i for pair
    i), as many as the largest count among them; the last row holds
    _NO_STEP. Keys at t = 1 are _NO_STEP too."""
    widths = count.max(axis=1, initial=0)
    rows = np.concatenate([[0], np.cumsum(widths)])
    times = np.empty((rows[-1] + 1, count.shape[1]))
    times[-1] = 1.0
    k = np.arange(widths.max(), dtype=float)[:, None]
    for j, sp in enumerate(grid.spacing):
        block = times[rows[j] : rows[j + 1]]
        np.multiply(k[: widths[j]], inc[j], out=block)
        block += half[j]
        block *= sp
        block -= x1[j]
        block /= den[j]
    np.clip(times, 0.0, 1.0, out=times)
    keys = times.view(np.uint64)
    keys <<= 2
    keys |= np.arange(4, dtype=np.uint64).repeat(np.append(widths, 1))[:, None]
    np.putmask(keys, keys >= _AT_END, _NO_STEP)
    return keys, rows


def _merged(grid: RegularGrid3, setup, idx, size: int):
    """Yield ``(keep, lengths, flat)`` of ``_chunk_intervals`` for each run
    of at most ``size`` of the links whose pair on axis j is idx[j] of the
    (3, P) ``setup``: the link's three runs of keys gathered from the axes'
    crossing tables, cut at its exit threshold, one value sort per row,
    then unpacked. With ``idx`` None the links are the pairs, and each
    run's tables are its rows of keys as they stand."""
    count, exit, base, step = setup[:4]
    if idx is not None:
        table, rows = _crossing_table(grid, count, *setup[4:])
        pairs = idx + np.arange(0, 3 * count.shape[1], count.shape[1])[:, None]
        exit, base, step = exit.ravel()[pairs], base.ravel()[pairs], step.ravel()[pairs]
    thr = np.minimum(exit.min(axis=0), 1.0)
    if (thr <= 0.0).any():
        # The link leaves the grid at or behind its start: a sliver along
        # an outer face, in which the marcher finds no interval either.
        raise RuntimeError("voxel traversal produced no intervals")
    limit = thr.view(np.uint64) << 2
    start = base.sum(axis=0)
    steps = np.zeros((len(thr), 4), dtype=np.intp)
    steps[:, :3] = step.T
    rowbits = (np.arange(len(thr), dtype=np.uint64) << 2)[:, None]
    for first in range(0, len(thr), size):
        part = slice(first, first + size)
        n = len(thr[part])
        if idx is None:
            keys, _ = _crossing_table(grid, count[:, part], *(a[:, part] for a in setup[4:]))
        else:
            keys = np.empty((len(table), n), dtype=np.uint64)
            keys[-1] = _NO_STEP  # the slot of the last interval
            for lo, hi, col in zip(rows[:-1], rows[1:], idx[:, part]):
                np.take(table[lo:hi], col, axis=1, out=keys[lo:hi], mode="clip")
        # A crossing at or past thr becomes _NO_STEP, above every crossing
        # before it; the tables did so for thr = 1.
        early = np.flatnonzero(thr[part] < 1.0)
        if len(early):
            cut = keys[:, early]
            np.putmask(cut, cut >= limit[part][early], _NO_STEP)
            keys[:, early] = cut
        keys = keys.T.copy()
        keys.sort(axis=1)
        # Interval m lies in the start voxel moved by the steps of
        # crossings 0 .. m - 1, looked up by axis id in the link's row of
        # `steps`; the last slot of a row takes no step, so one flat take
        # fills every row.
        pick = keys & 3
        pick |= rowbits[part]
        flat = np.empty(keys.shape, dtype=np.intp)
        np.take(steps, pick.ravel()[:-1].view(np.intp), out=flat.ravel()[1:])
        flat[:, 0] = start[part]
        np.cumsum(flat, axis=1, out=flat)
        # t[m] ends interval m: the crossings before thr, then 1.0.
        keys >>= 2
        t = keys.view(np.float64)
        lengths = np.empty_like(t)
        np.subtract(t.ravel()[1:], t.ravel()[:-1], out=lengths.ravel()[1:])
        lengths[:, 0] = t[:, 0]
        yield lengths > 0.0, lengths, flat


def _chunk_intervals(grid: RegularGrid3, a: np.ndarray, b: np.ndarray):
    """Voxel intervals of the links a[i] -> b[i], all in one chunk.

    Returns ``(keep, lengths, flat)``, three (n, K) link-major arrays: row i
    lists link i's intervals in traversal order; ``keep`` marks the real
    ones, with parameter length ``lengths`` in the voxel of flat index
    ``flat``.

    Reproduces ``traverse_voxels`` step for step. The start voxel follows
    ``containing_voxel``. A link's crossings along axis j depend only on
    its endpoints' j-th coordinates (Siddon 1985), so each axis tabulates
    them once per coordinate pair; here every link is its own pair. Axis
    j's crossing k, with i_k = start[j] + k * inc[j] the index before it,
    sits at (sp[j] * (i_k + 0.5 * inc[j]) - x1[j]) / den[j], the marcher's
    own expression; on an axis the link does not move along, x1[j] is -inf
    and every crossing +inf. Crossing |last - start| is the axis's exit,
    where the next index leaves the grid, and the threshold thr = min(1,
    earliest exit) is where marching stops. A table holds crossings 0 ..
    count - 1 of each pair, count = min(|last - start|, floor(|delta| / sp)
    + 2), in as many slots as the largest count of the table; the slots
    beyond a pair's own count hold crossings at or past its exit or past
    t = 1, never before thr.

    Each crossing is packed into one uint64 key, (bits of t) << 2 | axis,
    with t clipped to [0, 1]. A link gathers its three runs and one extra
    last slot into a row, and every key at or past thr becomes t = 1.0
    with axis 3, "no step" (the tables do so for t = 1 already). One value
    sort of the row merges the three runs, and the unpacked t = (key >> 2)
    is exact, for three reasons. Nonnegative doubles order like their bit
    patterns. Every value up to 1.0 has its bits below 2**62, so the shift
    drops none of them (and it clears the sign bit of a -0.0). Crossings of
    two axes at one t sort by axis id, the marcher's choice, but any order
    would do: it only picks the voxel of the zero-length interval between
    them, which is never kept.

    A link's ``stop`` is the number of its crossings before thr: interval m
    < stop ends at crossing m clipped to at least 0, interval ``stop`` ends
    at 1, later ones are empty, and zero-length intervals are dropped. The
    marcher's zero-length grid exit, where a lower-axis crossing ties with
    the exit, needs no rule of its own: the tied crossing is not before
    thr, so the interval before it is the one that ends at 1, as the
    marcher stretches it. With stride the flat-index step of each axis,
    interval m lies in voxel start @ stride plus the steps inc[j] *
    stride[j] of the crossings before it: one cumulative sum along the row
    of the steps looked up by each key's axis id, in which axis 3 steps
    by 0, so that every slot holds a voxel of the grid. A link that leaves
    the grid at or behind its start raises RuntimeError, as the marcher
    finds no interval there.
    """
    setup = _pair_setup(grid, np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    ((keep, lengths, flat),) = _merged(grid, setup, None, max(1, len(a)))
    return keep, lengths, flat


def _chunks(grid: RegularGrid3, blocks, root):
    """Yield ``(keep, coeff, flat)`` for each run of at most _CHUNK_LINKS
    consecutive links, in order, as the (n, K) link-major arrays of
    ``_chunk_intervals`` (row i for the run's link i): ``coeff`` is
    ``root`` (sqrt(|b - a|)) times the interval length, the link's weight on
    voxel ``flat``. Each block ``(setup, idx)`` is the arguments of
    ``_merged``."""
    first = 0
    for setup, idx in blocks:
        for keep, lengths, flat in _merged(grid, setup, idx, _CHUNK_LINKS):
            yield keep, root[first : first + len(keep), None] * lengths, flat
            first += len(keep)


def _link_chunks(grid: RegularGrid3, starts, ends):
    """``_chunks`` of the links starts[i] -> ends[i], each link its own
    coordinate pair on every axis: one block, set up once for the whole
    batch, whose crossings are tabulated chunk by chunk.

    Raises DomainError, before yielding anything, if an endpoint lies
    outside the grid's voxel domain.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    _check_inside(grid, np.concatenate([starts, ends]))
    # From the raw endpoints: origin-shifted ones lose digits on short links.
    root = np.sqrt(np.linalg.norm(ends - starts, axis=1))
    setup = _pair_setup(grid, np.ascontiguousarray(starts.T), np.ascontiguousarray(ends.T))
    return _chunks(grid, [(setup, None)], root)


def _matrix_chunks(grid: RegularGrid3, starts: np.ndarray, ends: np.ndarray):
    """``_chunks`` of the links starts[m] -> ends[g], m-major.

    Along axis j a link's crossings depend on its pair (starts[m, j],
    ends[g, j]) alone, and ends on a flight grid share few coordinates, so
    each start is paired with every distinct end coordinate of each axis.
    A block of starts is set up and tabulated at a time, at most
    max(_CHUNK_LINKS, distinct) pairs an axis. Links that fit in one chunk
    go through ``_link_chunks``, one pair a link: there the link pairs
    tabulate once, as the tables do, and the tables' distinct coordinates
    and gathers are pure cost. From a second chunk on, every chunk of link
    pairs tabulates again. Timed on the benchmark's 24-point sweep grid
    (2-core x86 machine), the tables took 1.01-1.10x the link pairs' time
    at 144-240 links and 0.92-0.94x at 264; with chunks of 128 links the
    crossover moved to between 120 and 144. Raises DomainError, before yielding anything, if
    an endpoint lies outside the grid's voxel domain.
    """
    if len(starts) * len(ends) <= _CHUNK_LINKS:
        return _link_chunks(grid, starts.repeat(len(ends), axis=0), np.tile(ends, (len(starts), 1)))
    _check_inside(grid, np.concatenate([starts, ends]))
    root = np.sqrt(np.linalg.norm(ends[None] - starts[:, None], axis=2)).ravel()
    # rank[j, g] numbers the distinct values of ends[:, j], and
    # distinct[j, r] is value r; all axes in one pass. An axis with fewer
    # than the most distinct values repeats ends[0, j] in the columns left.
    axes = np.arange(3)
    order = np.argsort(ends, axis=0)
    ordered = ends[order, axes]
    new = np.zeros(ends.shape, dtype=np.intp)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    np.cumsum(new, axis=0, out=new)
    rank = np.empty((3, len(ends)), dtype=np.intp)
    rank[axes, order] = new
    width = new[-1].max() + 1
    distinct = np.repeat(ends[:1].T, width, axis=1)
    distinct[axes, new] = ordered
    size = max(1, _CHUNK_LINKS // width)

    def blocks():
        for first in range(0, len(starts), size):
            block = starts[first : first + size].T
            n = block.shape[1]
            # Pair d * n + m: start m of the block with distinct value d.
            setup = _pair_setup(grid, np.tile(block, width), distinct.repeat(n, axis=1))
            yield setup, (rank[:, None, :] * n + np.arange(n)[:, None]).reshape(3, -1)

    return _chunks(grid, blocks(), root)


def _slot_order_sums(values: np.ndarray, chunks) -> np.ndarray:
    """Each link's terms coeff * values[flat], summed left to right in slot
    order, as one (L,) array. numpy reduces axis 0 of a C-ordered (K, n)
    array row by row, one running sum a link; a single link's (K, 1)
    column it would sum pairwise, so that one goes through accumulate."""
    sums = [np.zeros(0)]
    for _, coeff, flat in chunks:
        terms = (coeff * values[flat]).T.copy()
        sums.append(np.add.accumulate(terms)[-1] if terms.shape[1] == 1 else terms.sum(axis=0))
    return np.concatenate(sums)


def line_integrals(slf: SlfField, starts, ends) -> np.ndarray:
    """Shadowing of every link starts[i] -> ends[i], as an (L,) array.

    The batched form of ``shadowing_line_integral``: the intervals of
    ``traverse_voxels``, from crossing tables in which every link is its
    own coordinate pair, for a chunk of links at a time. Each link's terms
    are summed left to right in slot order, so its value equals its
    batch-of-one value bit for bit, in any batch and chunk. A zero-length
    link gives 0. Raises DomainError if any endpoint lies outside the
    field's voxel domain.
    """
    return _slot_order_sums(slf.values.ravel(), _link_chunks(slf.grid, starts, ends))


def _line_integral_matrix(slf: SlfField, starts, ends) -> np.ndarray:
    """Shadowing of every link starts[m] -> ends[g], as an (M, G) array.

    Bit for bit ``line_integrals`` of the M * G links, m-major, but each
    axis tabulates the crossings of every start with each distinct end
    coordinate only once (see ``_matrix_chunks``): the capacity matrix of a
    flight grid. Raises DomainError if any endpoint lies outside the
    field's voxel domain.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    sums = _slot_order_sums(slf.values.ravel(), _matrix_chunks(slf.grid, starts, ends))
    return sums.reshape(len(starts), len(ends))


def shadowing_line_integral(slf: SlfField, seg: Segment3) -> float:
    """Shadowing between the segment endpoints via voxel traversal.

    Exact for the piecewise-constant field: for a constant field l0 and a
    segment of length d the result is l0 * sqrt(d) regardless of grid
    spacing. Continuous in both endpoints. A zero-length segment returns 0
    by convention. Runs ``line_integrals`` on a batch of one, so it raises
    DomainError as that does, for zero-length segments too, and equals the
    same link's value in any batch.
    """
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

    links = np.array(
        [(m.tx.x, m.tx.y, m.tx.z, m.rx.x, m.rx.y, m.rx.z) for m in measurements], dtype=float
    ).reshape(-1, 6)
    starts, ends = links[:, :3], links[:, 3:]
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
    sqrt(_RIDGE)) before ``lsmr`` runs, and the result is unscaled. The
    solver sees a linear operator whose transposed product runs on an
    explicit CSR copy of the transpose, built once, which sums each entry
    in the same order as the implicit transpose and is faster. This
    Jacobi preconditioning evens out the column norms of a survey whose
    voxels are crossed very unevenly, and cuts the iteration count about
    tenfold on city-sized surveys. Voxels no link crosses come out 0, and
    negative fitted values are clipped to 0, since physical absorption is
    nonnegative.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, norm

    measurements = list(measurements)
    if not measurements:
        raise ValueError("at least one measurement is required")
    a = _design_matrix(measurements, grid)
    a = sparse.vstack([a, math.sqrt(_RIDGE) * sparse.identity(grid.num_points)], format="csr")
    y = np.array([m.shadow_db for m in measurements], dtype=float)
    y = np.concatenate([y, np.zeros(grid.num_points)])
    scale = 1.0 / norm(a, axis=0)
    a = a @ sparse.diags(scale)
    at = a.T.tocsr()
    x = scale * lsmr(
        LinearOperator(a.shape, matvec=a.dot, rmatvec=at.dot, dtype=a.dtype),
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


def _bad_value(path, text: str) -> ValueError:
    """The error naming the path and line of the first value token of a
    field file's ``text`` that is not a finite number, as numpy reads it."""
    seen = 0
    for line, row in enumerate(text.split("\n"), 1):
        for token in row.split():
            seen += 1
            if seen <= 9:  # the header
                continue
            try:
                value = np.float64(token)
            except ValueError as exc:
                return ValueError(f"{path}, line {line}: {exc}")
            if not np.isfinite(value):
                return ValueError(f"{path}, line {line}: field values must be finite, got {token}")
    raise AssertionError("every value token is a finite number")


def read_slf_text(path) -> SlfField:
    """The field of a ``write_slf_text`` file. ValueError naming the path
    for a truncated header, a header token that is not a number, invalid
    dims, spacing or origin, and a value count other than the dims give;
    naming the path and the line for a value that is not a finite
    number."""
    with open(path) as fh:
        text = fh.read()
    tokens = text.split()
    if len(tokens) < 9:
        raise ValueError(f"{path}: truncated field header")
    try:
        dims = tuple(int(t) for t in tokens[:3])
        grid = RegularGrid3(Point3(*map(float, tokens[6:9])), tuple(map(float, tokens[3:6])), dims)
    except ValueError as exc:
        raise ValueError(f"{path}: field header: {exc}") from None
    try:
        values = np.array(tokens[9:], dtype=float)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        raise _bad_value(path, text)
    if values.size != grid.num_points:
        raise ValueError(f"{path}: expected {grid.num_points} values, found {values.size}")
    return SlfField(grid, values.reshape(dims))


_MEASUREMENT_HEADER = ["tx_x", "tx_y", "tx_z", "rx_x", "rx_y", "rx_z", "shadow_db"]


def write_measurements_csv(measurements, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MEASUREMENT_HEADER)
        for m in measurements:
            writer.writerow([repr(v) for v in m.tx.as_tuple() + m.rx.as_tuple() + (m.shadow_db,)])


def read_measurements_csv(path) -> list[Measurement]:
    """The measurements of a ``write_measurements_csv`` file: the header, then
    one row of exactly seven numbers a link. ValueError naming the path and
    the line for an empty file, another header, and any row that is not
    seven numbers or not a valid ``Measurement``."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, "nothing (empty file)")
        if header != _MEASUREMENT_HEADER:
            raise ValueError(f"{path}, line 1: expected header {_MEASUREMENT_HEADER}, got {header}")
        for row in reader:
            try:
                if len(row) != len(_MEASUREMENT_HEADER):
                    raise ValueError(f"expected {len(_MEASUREMENT_HEADER)} numeric fields, got {len(row)}")
                vals = [float(v) for v in row]
                out.append(Measurement(Point3(*vals[:3]), Point3(*vals[3:6]), vals[6]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return out
