"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: the dense
sampler brute-forces the line integral by rectangle rule, the merge
traversal enumerates boundary crossings per axis and sorts them (no
marching state), the breakpoint solvers find the piecewise-linear roots
exactly by sorting, and the LP cross-check goes through scipy. The
stable-sort Z-step is the exception: it repeats the library's arithmetic
on the path it replaced (a stable breakpoint sort), so that the fast path
must match it bit for bit.

The dense sampler counts its samples in runs: the voxel index of sample k
is monotone in k along each axis, so a block of consecutive samples whose
two end samples share a voxel is credited in one step, and only blocks
straddling a voxel face are sampled one by one. It locates samples exactly
as the per-sample rule does and never solves for a crossing parameter, so
it stays independent of both traversals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog


def _voxel_index_arrays(local_over_spacing: np.ndarray, dims) -> tuple[np.ndarray, ...]:
    """Vectorized round-half-away-from-zero with outer-face clamping."""
    idx = []
    for axis in range(3):
        v = local_over_spacing[:, axis]
        i = np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(np.int64)
        idx.append(np.clip(i, 0, dims[axis] - 1))
    return tuple(idx)


_RUN_BLOCK = 1024  # samples per block of the run-counting sampler


def dense_sampling_integral(values, grid, a, b, n=1_000_000) -> float:
    """Rectangle-rule average of the piecewise-constant field along a->b.

    Sample k (0 <= k < n) sits at t = (k + 1/2) / n and takes the value of
    the voxel containing it. The n samples are counted in runs rather than
    visited one by one: each per-axis voxel index is a monotone function of
    k (every floating-point step from k to the index is monotone), so a
    block of samples whose first and last sample share a voxel lies wholly
    in that voxel and is credited count * value. Only blocks that straddle
    a voxel face are sampled point by point. The sum covers the same n
    samples as a per-sample loop, and no crossing parameter is ever
    computed.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    d = float(np.linalg.norm(bv - av))
    if d == 0.0:
        return 0.0
    origin = np.array([grid.origin.x, grid.origin.y, grid.origin.z])
    spacing = np.asarray(grid.spacing)

    def voxels(k):
        t = (k + 0.5) / n
        pts = av[None, :] + t[:, None] * (bv - av)[None, :]
        return _voxel_index_arrays((pts - origin) / spacing, grid.dims)

    first = np.arange(0, n, _RUN_BLOCK)
    last = np.minimum(first + _RUN_BLOCK, n) - 1
    head, tail = voxels(first), voxels(last)
    uniform = (head[0] == tail[0]) & (head[1] == tail[1]) & (head[2] == tail[2])
    counts = (last - first + 1)[uniform]
    total = float(counts @ values[head[0][uniform], head[1][uniform], head[2][uniform]])
    mixed = [np.arange(f, l + 1) for f, l in zip(first[~uniform], last[~uniform])]
    if mixed:
        total += float(values[voxels(np.concatenate(mixed))].sum())
    return math.sqrt(d) * total / n


def merge_traversal_integral(values, grid, a, b) -> float:
    """Exact crossing enumeration: per-axis boundary hits, sorted and merged.

    Structurally independent of the marching traversal: crossing parameters
    are generated axis by axis in closed form, the interval midpoints pick
    the voxel.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    d = float(np.linalg.norm(bv - av))
    if d == 0.0:
        return 0.0
    origin = np.array([grid.origin.x, grid.origin.y, grid.origin.z])
    spacing = np.asarray(grid.spacing)
    lo = av - origin
    delta = bv - av
    ts = [np.array([0.0, 1.0])]
    for axis in range(3):
        if delta[axis] == 0.0:
            continue
        # boundaries sit at spacing * (k + 1/2) in grid-local coordinates
        k_a = lo[axis] / spacing[axis] - 0.5
        k_b = (lo[axis] + delta[axis]) / spacing[axis] - 0.5
        k_min = math.ceil(min(k_a, k_b))
        k_max = math.floor(max(k_a, k_b))
        if k_max < k_min:
            continue
        ks = np.arange(k_min, k_max + 1)
        t = (spacing[axis] * (ks + 0.5) - lo[axis]) / delta[axis]
        ts.append(t[(t > 0.0) & (t < 1.0)])
    bounds = np.unique(np.concatenate(ts))
    mids = av[None, :] + (0.5 * (bounds[:-1] + bounds[1:]))[:, None] * delta[None, :]
    ix, iy, iz = _voxel_index_arrays((mids - origin) / spacing, grid.dims)
    lengths = np.diff(bounds)
    return math.sqrt(d) * float(lengths @ values[ix, iy, iz])


def merge_crossing_count(grid, a, b) -> int:
    """Number of positive-length intervals by per-axis enumeration."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    origin = np.array([grid.origin.x, grid.origin.y, grid.origin.z])
    spacing = np.asarray(grid.spacing)
    lo = av - origin
    delta = bv - av
    ts = [np.array([0.0, 1.0])]
    for axis in range(3):
        if delta[axis] == 0.0:
            continue
        k_a = lo[axis] / spacing[axis] - 0.5
        k_b = (lo[axis] + delta[axis]) / spacing[axis] - 0.5
        ks = np.arange(math.ceil(min(k_a, k_b)), math.floor(max(k_a, k_b)) + 1)
        t = (spacing[axis] * (ks + 0.5) - lo[axis]) / delta[axis]
        ts.append(t[(t > 0.0) & (t < 1.0)])
    bounds = np.unique(np.concatenate(ts))
    return int((np.diff(bounds) > 0).sum())


def dense_ridge_fit(grid, measurements, ridge: float) -> np.ndarray:
    """Flattened ridge least-squares field from a dense design matrix.

    Column i of the design matrix is the merge-traversal integral of the
    i-th unit field along every link (the integral is linear in the field).
    The normal equations (A^T A + ridge I) x = A^T y are solved directly.
    """
    n = grid.num_points
    a = np.zeros((len(measurements), n))
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        unit = unit.reshape(grid.dims)
        for j, m in enumerate(measurements):
            a[j, i] = merge_traversal_integral(unit, grid, m.tx.as_tuple(), m.rx.as_tuple())
    y = np.array([m.shadow_db for m in measurements])
    return np.linalg.solve(a.T @ a + ridge * np.eye(n), a.T @ y)


def x_step_root_exact(a: np.ndarray, target: float) -> float:
    """Exact root of F(s) = sum(max(a - s, 0)) = target by breakpoint sort."""
    a = np.sort(np.asarray(a, dtype=float))[::-1]
    if target <= 0.0:
        return float(a[0])
    csum = np.cumsum(a)
    m = a.size
    for k in range(1, m + 1):
        s = (csum[k - 1] - target) / k
        upper_ok = s <= a[k - 1] + 1e-12 * max(1.0, abs(a[k - 1]))
        lower_ok = k == m or s >= a[k] - 1e-12 * max(1.0, abs(a[k]))
        if upper_ok and lower_ok:
            return float(s)
    return float((csum[-1] - target) / m)


def z_step_root_exact(b: np.ndarray, c: np.ndarray, r_min: float) -> float:
    """Exact root of G(lam) = sum(max(0, min(c, b - lam))) = r_min."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)

    def g(lam):
        return float(np.maximum(0.0, np.minimum(c, b - lam)).sum())

    bps = np.unique(np.concatenate([b, b - c]))
    vals = np.array([g(x) for x in bps])
    if vals[0] <= r_min:  # G is flat at sum(c) below the first breakpoint
        return float(bps[0])
    for i in range(len(bps) - 1):
        if vals[i] >= r_min >= vals[i + 1]:
            if vals[i] == vals[i + 1]:
                return float(bps[i])
            frac = (vals[i] - r_min) / (vals[i] - vals[i + 1])
            return float(bps[i] + frac * (bps[i + 1] - bps[i]))
    return float(bps[-1])


def scipy_epigraph_optimum(values: np.ndarray, r_min: float, w=None) -> float:
    """Cross-check optimum of the weighted-slack LP via scipy (HiGHS)."""
    m, g = values.shape
    w = np.ones(g) if w is None else np.asarray(w, dtype=float)
    n_r = m * g
    c = np.concatenate([np.zeros(n_r), w])
    a_eq = np.zeros((m, n_r + g))
    for i in range(m):
        a_eq[i, i * g : (i + 1) * g] = 1.0
    rows, cols, data = [], [], []
    for i in range(m):
        for j in range(g):
            k = i * g + j
            rows += [k, k]
            cols += [k, n_r + j]
            data += [1.0, -1.0]
    a_ub = np.zeros((n_r, n_r + g))
    a_ub[rows, cols] = data
    bounds = [(0.0, values[i, j]) for i in range(m) for j in range(g)] + [(0.0, None)] * g
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(n_r), A_eq=a_eq, b_eq=np.full(m, r_min),
        bounds=bounds, method="highs",
    )
    if not res.success:
        raise RuntimeError(f"scipy reference LP failed: {res.message}")
    return float(res.fun)


def clipped_alpha_lp_duals(values: np.ndarray, r_min: float):
    """(optimum, y) of the clipped activation LP via scipy (HiGHS),
    uncertified: min sum(alpha) s.t. min(C / r_min, 1) alpha >= 1,
    0 <= alpha <= 1, with y >= 0 the multipliers of the M coverage rows."""
    m, g = values.shape
    res = linprog(
        np.ones(g), A_ub=-np.minimum(values / r_min, 1.0), b_ub=-np.ones(m),
        bounds=[(0.0, 1.0)] * g, method="highs",
    )
    if not res.success:
        raise RuntimeError(f"scipy reference LP failed: {res.message}")
    return float(res.fun), -res.ineqlin.marginals


def clipped_alpha_lp_optimum(values: np.ndarray, r_min: float) -> float:
    """Optimum of the clipped activation LP via scipy (HiGHS), uncertified."""
    return clipped_alpha_lp_duals(values, r_min)[0]


def exhaustive_bitmask(values: np.ndarray, r_min: float):
    """Second enumeration order: scan all bitmasks, keep the best by size.

    Ties inside a cardinality resolve to the smallest mask, which matches
    nothing in particular by design; only the optimal size is comparable.
    """
    m, g = values.shape
    best_size = None
    best_mask = None
    for mask in range(1, 1 << g):
        size = bin(mask).count("1")
        if best_size is not None and size >= best_size:
            continue
        total = np.zeros(m)
        for j in range(g):
            if mask >> j & 1:
                total += values[:, j]
        if np.all(total >= r_min):
            best_size = size
            best_mask = mask
    if best_size is None:
        return None
    subset = tuple(j for j in range(g) if best_mask >> j & 1)
    return best_size, subset


def random_feasible_instance(rng, m_max=4, g_max=10, scale_choices=(1.0, 5e6)):
    """A random capacity matrix with every user coverable by the full set."""
    m = int(rng.integers(1, m_max + 1))
    g = int(rng.integers(2, g_max + 1))
    r_min = float(rng.choice(scale_choices))
    values = rng.uniform(0.0, 0.55, (m, g)) * r_min
    deficit = np.clip(r_min - values.sum(axis=1, keepdims=True), 0.0, None)
    values = values + 1.2 * deficit / g
    return values, r_min


def fsum_covers(values: np.ndarray, subset, r_min: float) -> bool:
    """Coverage by the definition: math.fsum of each row's selected entries."""
    return all(math.fsum(row) >= r_min for row in values[:, list(subset)])


def greedy_cover_reference(values: np.ndarray, r_min: float, scores, selected) -> list[int]:
    """Repair then prune with an exact coverage check per trial set.

    The same visit order as ``greedy_cover_from_scores`` (repair by
    decreasing score, prune by increasing score, exact ties by the columns'
    lexicographic rank, then by index), but every trial set is re-summed
    with math.fsum from scratch: no running totals, no rounding band.
    """
    scores = np.asarray(scores, dtype=float)
    rank = np.empty(values.shape[1], dtype=int)
    rank[np.lexsort(values)] = np.arange(values.shape[1])
    selected = sorted(set(int(g) for g in selected))
    if not fsum_covers(values, selected, r_min):
        remaining = [g for g in range(values.shape[1]) if g not in selected]
        remaining.sort(key=lambda g: (-scores[g], rank[g], g))
        for g in remaining:
            selected.append(g)
            if fsum_covers(values, selected, r_min):
                break
    for g in sorted(selected, key=lambda g: (scores[g], -rank[g], -g)):
        trial = [h for h in selected if h != g]
        if fsum_covers(values, trial, r_min):
            selected = trial
    return sorted(selected)


def z_step_stable_reference(B: np.ndarray, C: np.ndarray, r_min: float) -> np.ndarray:
    """All Z-step rows of B by the breakpoint scan with a stable sort.

    G is tabulated at the 2G sorted breakpoints of each row from the
    cumulative slopes, and the root is interpolated inside the first
    segment that ends at or below r_min. It shares no code with the
    library's sort-free search, which must agree with it to rounding.
    """
    m, g = C.shape
    rows = np.arange(m)
    points = np.concatenate([B - C, B], axis=1)
    order = points.argsort(axis=1, kind="stable")
    points = points[rows[:, None], order]
    n_open = np.repeat(np.array([1, -1]), g)[order].cumsum(axis=1)
    gv = np.empty_like(points)
    gv[:, 0] = C.sum(axis=1)
    gv[:, 1:] = gv[:, :1] - (n_open[:, :-1] * (points[:, 1:] - points[:, :-1])).cumsum(axis=1)
    gv[:, -1] = 0.0
    j = (gv <= r_min).argmax(axis=1)
    i = np.maximum(j - 1, 0)
    lam = points[rows, i] + (gv[rows, i] - r_min) / np.maximum(n_open[rows, i], 1)
    return np.maximum(0.0, np.minimum(C, B - lam[:, None]))
