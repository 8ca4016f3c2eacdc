"""Output checks made apart from the code they check.

Nothing here calls the absplace functions under test. Line integrals come
from the per-axis crossing enumeration of tests/oracles.py, gains and rates
from the closed forms, coverage from exact sums, LP optima from scipy's
HiGHS, and minimum covers from a bitmask enumeration.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from oracles import scipy_epigraph_optimum


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def crossed_voxels(grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat indices of the voxels a segment crosses over a positive length.

    Crossing parameters are enumerated axis by axis in closed form (faces
    at spacing * (k + 1/2) in grid-local coordinates), sorted, and each
    interval's midpoint picks its voxel; no marching state is kept.
    """
    origin = np.array(grid.origin.as_tuple())
    spacing = np.asarray(grid.spacing)
    lo = a - origin
    delta = b - a
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
    mids = a + (0.5 * (bounds[:-1] + bounds[1:]))[:, None] * delta
    idx = np.floor((mids - origin) / spacing + 0.5).astype(np.int64)
    idx = np.clip(idx, 0, np.asarray(grid.dims) - 1)
    return np.ravel_multi_index(idx.T, grid.dims)


def capacity_closed_form(params, a: np.ndarray, b: np.ndarray, shadow_db: float) -> float:
    """Free-space gain minus shadowing, then the Shannon rate, in bit/s."""
    d = float(np.linalg.norm(b - a))
    gain = 20.0 * math.log10(params.wavelength / (4.0 * math.pi * d)) - shadow_db
    snr = params.tx_power * 10.0 ** (gain / 10.0) / params.noise_power
    return params.bandwidth * math.log2(1.0 + snr)


def exact_covers(values: np.ndarray, subset, r_min: float) -> bool:
    """Every user's exactly summed rate over the subset reaches r_min."""
    subset = list(subset)
    return all(math.fsum(values[m, subset]) >= r_min for m in range(values.shape[0]))


def activation_lp_bound(values: np.ndarray, r_min: float) -> float:
    """Optimum of min sum(alpha) s.t. C alpha >= r_min, 0 <= alpha <= 1 (HiGHS)."""
    m, g = values.shape
    res = linprog(
        np.ones(g), A_ub=-values / r_min, b_ub=-np.ones(m), bounds=(0.0, 1.0), method="highs"
    )
    require(res.success, f"activation LP failed in HiGHS: {res.message}")
    return float(res.fun)


def check_placement(values: np.ndarray, r_min: float, selected, where: str) -> None:
    """Feasible by exact sums, irredundant, and no smaller than the LP bound."""
    selected = list(selected)
    require(len(set(selected)) == len(selected), f"{where}: repeated station in {selected}")
    require(exact_covers(values, selected, r_min), f"{where}: {selected} leaves a user short")
    for g in selected:
        rest = [h for h in selected if h != g]
        require(
            not exact_covers(values, rest, r_min),
            f"{where}: station {g} of {selected} is redundant",
        )
    bound = activation_lp_bound(values, r_min)
    require(
        len(selected) >= math.ceil(bound - 1e-6),
        f"{where}: {len(selected)} stations, below the activation-LP bound {bound:.6f}",
    )


def check_admm(state, values: np.ndarray, r_min: float, w: np.ndarray, where: str) -> None:
    """Converged, row sums held, objective within 1e-3 of the epigraph LP."""
    require(state.converged, f"{where}: no convergence in {state.iterations} iterations")
    require(
        state.row_sum_max_dev <= 1e-6 * r_min,
        f"{where}: row-sum deviation {state.row_sum_max_dev:.3g} above 1e-6 r_min",
    )
    lp = scipy_epigraph_optimum(values, r_min, w)
    require(
        abs(state.objective - lp) <= 1e-3 * abs(lp) + 1e-9 * r_min,
        f"{where}: objective {state.objective!r} vs epigraph LP {lp!r}",
    )


def _masks_of_size(g: int, k: int):
    """All g-bit masks with k bits set, in increasing order (Gosper's hack)."""
    mask = (1 << k) - 1
    limit = 1 << g
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def min_cover_size(values: np.ndarray, r_min: float) -> int | None:
    """Fewest columns that cover every user, by bitmask enumeration.

    Sizes are tried in increasing order; within a size every mask's row
    sums come from one matrix product, and sums within 1e-9 relative of
    r_min are redone exactly so the verdict matches exact summation.
    """
    m, g = values.shape
    bit = 1 << np.arange(g)
    for k in range(1, g + 1):
        masks = np.fromiter(_masks_of_size(g, k), dtype=np.int64)
        chosen = (masks[:, None] & bit) != 0
        sums = chosen.astype(float) @ values.T
        ok = np.all(sums >= r_min, axis=1)
        near = np.any(np.abs(sums - r_min) <= 1e-9 * r_min, axis=1)
        for i in np.flatnonzero(near):
            ok[i] = exact_covers(values, np.flatnonzero(chosen[i]), r_min)
        if ok.any():
            return k
    return None
