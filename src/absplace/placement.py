"""ADMM solver for minimum-count base-station placement.

The combinatorial problem (fewest candidate points whose capacity columns
jointly give every user the target rate) is relaxed to a convex program over
a rate matrix R: column g carries the rates a station at candidate g would
serve, constrained by 0 <= R <= C entrywise and by fixed row sums equal to
the target rate. The objective sum_g w_g * ||R[:, g]||_inf is a weighted
group-sparsity surrogate that drives whole columns to zero, so few
candidates remain active.

The splitting keeps the column slack structure in one block (X-step: per
column, a quadratic prox under r <= s * 1 plus a linear slack cost) and the
row constraints in the other (Z-step: per row, projection onto the
fixed-sum box). Both per-block solutions reduce to finding the root of a
piecewise-linear nonincreasing scalar function whose root lies inside an
analytic bracket:

  X-step, column g: find s with sum_m max((z - u)_m - s, 0) = w_g / rho,
      bracketed by min/max of (z - u) minus w_g / (M rho); then
      r = min(z - u, s * 1). With w_g = 0 the slack constraint is inactive
      and r = z - u exactly.

  Z-step, row m: find lam with sum_g max(0, min(c_g, (r + u)_g - lam)) =
      r_min, bracketed below by min_g((r + u - c)_g) and above by
      max over {g : c_g > r_min / G} of (r + u)_g - r_min / G; then
      z = max(0, min(c, r + u - lam)). Rows with total capacity below
      r_min are infeasible.

Both roots are computed exactly from the sorted breakpoints in O(n log n)
per column or row: the X-step takes the last active prefix of the
descending column and its cumulative sum, as in simplex projection (Duchi
et al. 2008); the Z-step scans the cumulative slope over the 2G sorted
breakpoints {b - c, b} of the row and interpolates inside the segment where
the function crosses r_min (Condat 2016). That sort need not be stable:
tied breakpoints bound zero-width segments, so the order of ties changes no
bit of the result.

The dual update is U <- U + R - Z. Convergence uses the standard scaled
primal/dual residual rule. rho is the initial step: for the first 1,000
iterations residual balancing adapts it (every 10 iterations it doubles
when the primal residual is over 10 times the dual one and halves in the
reverse case, rescaling U to match), and it is frozen after that. The
returned rho and U are at the final step. Stations are rounded greedily
from the column sup-norms of the final R: added from the empty set by
decreasing sup-norm until the set covers, then dropped in the reverse
order wherever coverage survives, so the returned set is always feasible
and contains no redundant station. Coverage is exact: a user is covered
iff math.fsum of its selected capacities reaches r_min. Greedy keeps the
selected set's float row totals as an M-vector, so each visited column
costs one O(M) add or subtract; a row's verdict comes from its float total
when that lies outside a rigorous rounding band around r_min, and from
math.fsum over the members otherwise (``_Coverage``, shared with
``covers`` and the infeasibility guards).

``solve_placement`` prepares its instance once (``_Instance``): the entry
guard, the canonical column order that every solve and greedy's tie-break
use, the scaled capacities and their Z-step. Its ADMM rounds and the greedy
rounding all share it, so a placement runs one lexicographic sort, not
one per round.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import CapacityMatrix, _check_capacities
from .errors import EmptyProblemError, InfeasibleError
from .geometry import Point3

__all__ = [
    "PlacementConfig",
    "AdmmState",
    "PlacementResult",
    "x_step_column",
    "z_step_row",
    "admm_solve",
    "reweight",
    "solve_placement",
    "covers",
    "greedy_cover_from_scores",
    "write_trace_csv",
]

_log = logging.getLogger("absplace")

# Residual balancing (Boyd et al. 2011, sec. 3.4.1; He, Yang & Wang 2000):
# every _BALANCE_EVERY iterations up to iteration _BALANCE_UNTIL, rho doubles
# when the primal residual exceeds _BALANCE_RATIO times the dual one and
# halves in the reverse case. Frozen afterwards, so the fixed-rho
# convergence guarantee holds for the rest of the run.
_BALANCE_EVERY = 10
_BALANCE_UNTIL = 1000
_BALANCE_RATIO = 10.0


@dataclass(frozen=True)
class PlacementConfig:
    """Solver settings; scale-dependent tolerances are relative to the target rate.

    ``max_iter`` bounds the ADMM iterations of each of the
    ``reweight_rounds`` solves. ``rho`` is the initial ADMM step of the
    first round; residual balancing adapts it over the first 1,000
    iterations of each round, and every later round starts at the step
    the previous one ended at. Stations are chosen greedily from the
    column sup-norms of the final rate matrix R.
    """

    rho: float = 1.0
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iter: int = 10000
    reweight_rounds: int = 4
    reweight_eps: float = 1e-3

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.reweight_rounds < 1:
            raise ValueError("at least one solve round is required")
        if self.reweight_eps <= 0:
            raise ValueError(f"reweight_eps must be positive, got {self.reweight_eps}")


@dataclass(frozen=True)
class AdmmState:
    """Final solver state plus its residual history.

    R, Z, U are M x G in original rate units; trace columns are
    (iteration, primal residual, dual residual, objective).
    row_sum_max_dev is the worst row-sum violation of Z seen at any
    iteration, in rate units. rho is the final step, after residual
    balancing, and the scaled dual U is at that step, so (Z, U, rho)
    warm-starts a further solve.
    """

    R: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    w: np.ndarray
    rho: float
    iterations: int
    converged: bool
    trace: np.ndarray
    row_sum_max_dev: float

    @property
    def objective(self) -> float:
        return float(self.trace[-1, 3])


@dataclass(frozen=True)
class PlacementResult:
    """Selected candidate set with per-user achieved rates.

    ``selected`` holds column indices into the capacity matrix;
    ``user_rates[m]`` is the total capacity user m receives from the
    selected candidates. ``feasible`` is True iff every user meets the
    target rate, recomputed from actual capacities.
    """

    selected: tuple[int, ...]
    positions: tuple[Point3, ...]
    user_rates: np.ndarray
    feasible: bool
    objective_trace: np.ndarray
    iterations: int
    converged: bool

    @property
    def n_abs(self) -> int:
        return len(self.selected)


class _XStep:
    """All X-step columns of A = Z - U at once for weights w; call returns (R, s).

    The per-problem invariants (rank divisors, column indices, zero-weight
    mask) are built once; the slack targets w / rho only when rho changes.
    """

    def __init__(self, w: np.ndarray, m: int, rho: float):
        self.w = w
        self.ranks = np.arange(1, m + 1)[:, None]
        self.cols = np.arange(w.size)
        zero_w = w == 0.0
        self.zero_w = zero_w if zero_w.any() else None
        self.set_rho(rho)

    def set_rho(self, rho: float) -> None:
        self.targets = self.w / rho

    def __call__(self, A):
        # Sorted descending, the k largest entries of a column are the active
        # set for s in [a_(k+1), a_(k)], where F(s) = csum_k - k s. The root
        # uses the last k whose candidate s_k = (csum_k - target) / k still
        # lies below a_(k) (simplex-projection threshold, Duchi et al. 2008).
        m = A.shape[0]
        desc = np.sort(A, axis=0)[::-1]
        cand = (desc.cumsum(axis=0) - self.targets) / self.ranks
        active = desc > cand  # a prefix in exact arithmetic
        active[0] = True  # s_1 = a_(1) - target, which is below a_(1) for any positive target
        k = m - 1 - active[::-1].argmax(axis=0)
        s = cand[k, self.cols]
        R = np.minimum(A, s)
        zero_w = self.zero_w
        if zero_w is not None:
            # Without a slack cost the inequality is inactive: prox is the identity.
            R[:, zero_w] = A[:, zero_w]
            s = np.where(zero_w, A.max(axis=0), s)
        return R, s


class _ZStep:
    """All Z-step rows of B = R + U at once for capacities C and target r_min.

    Assumes every row can reach r_min; a row that reaches it only in exact
    arithmetic (its float sum(C) falls short by rounding) gets lam at or
    below its first breakpoint, hence z = c wherever b - lam keeps every
    digit of c. The per-problem invariants (row indices, row totals of C,
    the +1/-1 sign of each breakpoint) are built once, and
    solve_placement's ``_Instance`` shares one _ZStep among all its rounds.
    """

    def __init__(self, C: np.ndarray, r_min: float):
        m, g = C.shape
        self.C = C
        self.r_min = r_min
        self.rows = np.arange(m)
        self.row_index = self.rows[:, None]
        self.total = C.sum(axis=1)
        self.sign = np.repeat(np.array([1, -1]), g)  # b - c opens an entry, b closes it

    def __call__(self, B):
        # G(lam) is sum(C) left of every breakpoint and 0 right of them;
        # between consecutive sorted breakpoints its slope is minus the number
        # n_open of entries with b - c < lam < b. Scanning the slopes gives G
        # at every breakpoint; the root is interpolated inside the first
        # segment that ends at or below r_min.
        #
        # The sort need not be stable. Tied breakpoints bound zero-width
        # segments, whose terms n_open * 0 add exactly nothing, so gv at
        # every position, and hence j, is the same for any order of the ties.
        # i = j - 1 is then the last of its tie group, where n_open counts the
        # whole group whatever its order; for j == 0, max(n_open, 1) is 1.
        C, r_min, rows = self.C, self.r_min, self.rows
        points = np.concatenate([B - C, B], axis=1)
        order = points.argsort(axis=1)
        points = points[self.row_index, order]
        n_open = self.sign[order].cumsum(axis=1)
        gv = np.empty_like(points)
        gv[:, 0] = self.total
        gv[:, 1:] = gv[:, :1] - (n_open[:, :-1] * (points[:, 1:] - points[:, :-1])).cumsum(axis=1)
        gv[:, -1] = 0.0  # exact: every entry is clipped to zero at the last breakpoint
        j = (gv <= r_min).argmax(axis=1)
        # gv[j-1] > r_min >= gv[j]: lam lies in the segment ending at j, where
        # n_open is positive. j == 0 only when sum(C) <= r_min; lam is then at
        # or below the first breakpoint, where z = c.
        i = np.maximum(j - 1, 0)
        lam = points[rows, i] + (gv[rows, i] - r_min) / np.maximum(n_open[rows, i], 1)
        return np.maximum(0.0, np.minimum(C, B - lam[:, None]))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, as np.linalg.norm computes it, without its wrappers."""
    a = a.ravel()
    return math.sqrt(a @ a)


def x_step_column(z_col, u_col, w_g: float, rho: float):
    """Single-column X-step; returns (rate column, slack).

    The slack solves sum(max(z - u - s, 0)) = w_g / rho; the rate column
    is min(z - u, s). The root is found exactly from the sorted column.
    For w_g = 0 the column is returned unchanged (r = z - u) and the slack
    reported as its maximum entry.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if w_g < 0:
        raise ValueError(f"weight must be nonnegative, got {w_g}")
    z = np.asarray(z_col, dtype=float).reshape(-1, 1)
    u = np.asarray(u_col, dtype=float).reshape(-1, 1)
    R, s = _XStep(np.array([float(w_g)]), z.shape[0], rho)(z - u)
    return R[:, 0], float(s[0])


def z_step_row(r_row, u_row, c_row, r_min: float):
    """Single-row Z-step: project r + u onto {z : sum(z) = r_min, 0 <= z <= c}.

    Independent of the step size. The shift lam of z = clip(r + u - lam, 0, c)
    is found exactly by a slope scan over the sorted breakpoints. Raises
    InfeasibleError when the row's total capacity cannot reach r_min.
    """
    r = np.asarray(r_row, dtype=float).reshape(1, -1)
    u = np.asarray(u_row, dtype=float).reshape(1, -1)
    c = np.asarray(c_row, dtype=float).reshape(1, -1)
    _check_rows_coverable(c, r_min)
    return _ZStep(c, float(r_min))(r + u)[0]


_EPS = float(np.finfo(float).eps)
# Rows whose absolute sum reaches this always take the exact fallback: below
# it, no float total built from their entries can overflow.
_ABS_SUM_LIMIT = float(np.finfo(float).max) / 4


class _Coverage:
    """The one coverage rule: row m of a member set covers iff
    ``math.fsum(values[m, members]) >= r_min``, decided from float totals.

    Callers keep the float row totals of the member columns. A total built
    from the columns of ``values`` (M x G) by at most 2G + 1 additions and
    subtractions lies within (2G + 1) u A_m / (1 - (2G + 1) u) of the exact
    member sum, where u = eps / 2 and A_m = sum_g |values[m, g]| bounds every
    exact partial sum (Higham 2002, ch. 4). The pad (2G + 2) eps A_m is
    about twice that, and eps |r_min| more absorbs the rounding of
    r_min -/+ pad. A total outside [lo, hi] = [r_min - pad, r_min + pad]
    therefore decides its row exactly. Rows inside, rows with a NaN total
    and rows whose A_m nears overflow (their pad is infinite) are decided by
    math.fsum over the members: a float filter with an exact fallback
    (Shewchuk 1997). ``members`` is anything that indexes the columns of
    ``values``: a boolean mask, an index sequence or a slice.
    """

    def __init__(self, values: np.ndarray, r_min: float):
        self.values = values
        self.r_min = r_min
        abs_sum = np.abs(values).sum(axis=1)
        pad = (2 * values.shape[1] + 2) * _EPS * abs_sum + _EPS * abs(r_min)
        pad[~(abs_sum < _ABS_SUM_LIMIT)] = np.inf
        self.lo = r_min - pad
        self.hi = r_min + pad

    def short_rows(self, members, totals: np.ndarray) -> np.ndarray:
        """Indices of the rows whose exact member sum falls below r_min."""
        short = totals < self.lo
        for m in np.flatnonzero(~short & ~(totals > self.hi)):
            short[m] = not math.fsum(self.values[m, members]) >= self.r_min
        return np.flatnonzero(short)

    def covers(self, members, totals: np.ndarray) -> bool:
        """True iff every row covers; ``members`` must not be empty."""
        if (totals > self.hi).all():
            return True
        if (totals < self.lo).any():
            return False
        return self.short_rows(members, totals).size == 0


def _coverage_rule(C, r_min: float) -> _Coverage:
    """The coverage rule of ``C``, a CapacityMatrix or an array; its
    ``values`` are the float array. Raises ValueError, by CapacityMatrix's
    own check and before any shape is read, unless they are 2-D, finite and
    nonnegative (greedy rounding needs coverage to grow with the set), and
    EmptyProblemError (a ValueError) when there are no users, since no
    solver can place stations for nobody."""
    values = np.asarray(getattr(C, "values", C), dtype=float)
    _check_capacities(values)
    if values.shape[0] == 0:
        raise EmptyProblemError("capacity matrix has no users to cover")
    return _Coverage(values, r_min)


def _check_target(r_min: float) -> None:
    if not (r_min > 0 and math.isfinite(r_min)):
        raise ValueError(f"target rate must be finite and positive, got {r_min}")


def _check_rows_coverable(C, r_min: float) -> _Coverage:
    """The entry guard of the solvers; returns the coverage rule of ``C``.

    ``C`` is what ``_coverage_rule`` takes, or a rule it built. Raises
    ValueError unless r_min is finite and positive, then as
    ``_coverage_rule`` does, and InfeasibleError naming the users that even
    every column together leaves short.
    """
    _check_target(r_min)
    rule = C if isinstance(C, _Coverage) else _coverage_rule(C, r_min)
    short = rule.short_rows(slice(None), rule.values.sum(axis=1))
    if short.size:
        raise InfeasibleError(
            "users not coverable even with every candidate active: "
            + ", ".join(str(int(m)) for m in short),
            users=short.tolist(),
        )
    return rule


def _canonical_order(values: np.ndarray):
    """(order, rank): the lexicographic column order, stable on duplicates,
    and its inverse, the canonical rank of every column."""
    order = np.lexsort(values)
    rank = np.empty(order.size, dtype=int)
    rank[order] = np.arange(order.size)
    return order, rank


class _Instance:
    """One placement instance, prepared once for all of its solves.

    Holds what every ``admm_solve`` round and ``greedy_cover_from_scores``
    would otherwise rebuild from the matrix: the entry guard's coverage
    rule, the canonical column order and its inverse (greedy's tie-break
    rank), the capacities in that order scaled to r_min = 1, and their
    Z-step. Building it runs the entry guard.
    """

    def __init__(self, C, r_min: float):
        self.rule = _check_rows_coverable(C, r_min)
        self.values = values = self.rule.values
        self.order, self.rank = _canonical_order(values)
        self.cn = values[:, self.order] / r_min
        self.z_step = _ZStep(self.cn, 1.0)


def admm_solve(
    C,
    r_min: float,
    rho: float = PlacementConfig.rho,
    w=None,
    max_iter: int = PlacementConfig.max_iter,
    eps_abs: float = PlacementConfig.eps_abs,
    eps_rel: float = PlacementConfig.eps_rel,
    z0=None,
    u0=None,
) -> AdmmState:
    """Run the splitting to convergence on one weighted problem instance.

    Rates are internally rescaled so the target rate is 1 (one rho default
    then works across rate scales); eps_abs is interpreted relative to the
    target rate. Stops when both the primal residual ||R - Z||_F and the
    dual residual rho * ||Z_k+1 - Z_k||_F fall below
    eps_abs * sqrt(M G) + eps_rel * max(||R||_F, ||Z||_F), or after
    ``max_iter`` iterations, which must be at least 1; stopping there
    logs one warning on the ``absplace`` logger.

    ``rho`` is the initial step. Every 10 iterations up to iteration 1,000,
    residual balancing doubles it (and halves the scaled U) when the
    primal residual exceeds 10 times the dual one, and does the reverse
    when the dual residual exceeds 10 times the primal one; after that rho
    is fixed, which keeps the fixed-step convergence guarantee. The
    returned ``rho`` and ``U`` are at the final step.

    ``z0`` / ``u0`` warm-start the iteration (original rate units, U scaled
    by the ``rho`` passed in); otherwise Z starts at min(C, r_min / G) and
    U at zero.

    Columns are reordered internally into a canonical (lexicographic)
    order before iterating and mapped back on return, so the result does
    not depend on how the candidates happened to be enumerated (float
    reductions are order-sensitive at machine precision, and greedy's
    visit order could otherwise change on reordered input).
    ``solve_placement`` computes that order, the guard and the scaled
    capacities once per placement and passes its prepared instance in
    place of the matrix.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    inst = C if isinstance(C, _Instance) else _Instance(C, r_min)
    m, g = inst.values.shape
    w = np.ones(g) if w is None else np.asarray(w, dtype=float)
    if w.shape != (g,) or np.any(w < 0):
        raise ValueError("w must be a nonnegative G-vector")

    order, invert = inst.order, inst.rank
    w = w[order]
    cn = inst.cn
    Z = np.minimum(cn, 1.0 / g) if z0 is None else np.asarray(z0, dtype=float)[:, order] / r_min
    U = np.zeros((m, g)) if u0 is None else np.asarray(u0, dtype=float)[:, order] / r_min
    x_step = _XStep(w, m, rho)
    z_step = inst.z_step
    sq_mg = math.sqrt(m * g)
    trace = []
    row_dev = 0.0
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        iterations = k
        R, _ = x_step(Z - U)
        z_new = z_step(R + U)
        U = U + R - z_new
        primal = _norm(R - z_new)
        dual = rho * _norm(z_new - Z)
        Z = z_new
        row_dev = max(row_dev, float(np.abs(Z.sum(axis=1) - 1.0).max()))
        objective = float(w @ np.abs(R).max(axis=0))
        trace.append((k, primal, dual, objective))
        tol = eps_abs * sq_mg + eps_rel * max(_norm(R), _norm(Z))
        if primal <= tol and dual <= tol:
            converged = True
            break
        if k % _BALANCE_EVERY or k > _BALANCE_UNTIL:
            continue
        # Residual balancing; U is scaled by 1 / rho, so it moves inversely.
        if primal > _BALANCE_RATIO * dual:
            factor = 2.0
        elif dual > _BALANCE_RATIO * primal:
            factor = 0.5
        else:
            continue
        rho *= factor
        U = U / factor
        x_step.set_rho(rho)

    if not converged:
        _log.warning(
            "admm_solve stopped at max_iter = %d without converging: "
            "primal %.3g, dual %.3g (rate units), rho %g",
            iterations, primal * r_min, dual * r_min, rho,
        )

    trace_arr = np.array(trace)
    trace_arr[:, 1:] *= r_min  # residuals and objective back to rate units
    return AdmmState(
        R=R[:, invert] * r_min,
        Z=Z[:, invert] * r_min,
        U=U[:, invert] * r_min,
        w=w[invert].copy(),
        rho=rho,
        iterations=iterations,
        converged=converged,
        trace=trace_arr,
        row_sum_max_dev=row_dev * r_min,
    )


def reweight(R: np.ndarray, r_min: float, eps: float = PlacementConfig.reweight_eps) -> np.ndarray:
    """Next sparsity weights: w_g = 1 / (eps + ||R[:, g]||_inf / r_min).

    Column magnitudes are normalized by the target rate so eps is
    scale-free; larger columns get strictly smaller weights.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 1.0 / (eps + np.abs(R).max(axis=0) / r_min)


def covers(values: np.ndarray, subset, r_min: float) -> bool:
    """True iff the selected columns jointly give every user at least r_min.

    The verdict is exact, ``math.fsum`` of each row's selected entries
    against r_min, so it cannot depend on the order the columns are listed
    in. Float row totals decide every row outside a rigorous rounding band
    around r_min; only rows inside it are summed with ``math.fsum``. A
    column listed twice counts twice; the empty set covers iff r_min <= 0.
    """
    subset = list(subset)
    if not subset:
        return bool(r_min <= 0)
    sub = values[:, subset]
    return _Coverage(sub, r_min).covers(slice(None), sub.sum(axis=1))


def greedy_cover_from_scores(values: np.ndarray, r_min: float, scores, selected) -> list[int]:
    """Repair then prune a candidate set against actual capacities.

    Adds unselected columns in decreasing score order until the set covers,
    then tries to drop columns in increasing score order (weakest station
    first), keeping only drops that preserve coverage. Exact score ties are
    ordered by the columns' values (their canonical lexicographic rank), so
    visit order is a function of column content, not position: reordering
    the candidates reorders the output set identically. The column index is
    the final fallback, relevant only for byte-identical duplicate columns.
    Assumes the full column set covers; raises EmptyProblemError on a
    matrix with no users. Coverage grows with the set, the columns above
    any score cut are a prefix of the add order and the prune order is its
    reverse, so starting from them ends where the empty start does.

    The set's float row totals are kept as an M-vector, so each visited
    column costs one O(M) add or subtract and a comparison against the
    rounding band of ``covers``; only rows inside the band are re-summed
    exactly over the members. Every verdict equals that of ``covers``.
    ``solve_placement`` passes its prepared instance in place of the
    matrix, so the rule and the ranks come from the placement's set-up.
    """
    if isinstance(values, _Instance):
        values, rule, rank = values.values, values.rule, values.rank
    else:
        rule = _coverage_rule(values, r_min)
        values = rule.values
        rank = _canonical_order(values)[1]
    scores = np.asarray(scores, dtype=float)
    n = values.shape[1]
    selected = sorted(set(int(g) for g in selected))
    members = np.zeros(n, dtype=bool)
    members[selected] = True
    totals = values[:, selected].sum(axis=1)

    def covered(totals, size):
        # `totals` sums the `size` columns in `members`; the empty set as in `covers`
        return rule.covers(members, totals) if size else bool(r_min <= 0)

    if not covered(totals, len(selected)):
        remaining = np.flatnonzero(~members).tolist()
        remaining.sort(key=lambda g: (-scores[g], rank[g], g))
        for g in remaining:
            selected.append(g)
            members[g] = True
            totals = totals + values[:, g]
            if covered(totals, len(selected)):
                break
    size = len(selected)
    for g in sorted(selected, key=lambda g: (scores[g], -rank[g], -g)):
        members[g] = False
        trial = totals - values[:, g]
        if covered(trial, size - 1):
            totals, size = trial, size - 1
        else:
            members[g] = True
    return np.flatnonzero(members).tolist()


def solve_placement(C: CapacityMatrix, r_min: float, config: PlacementConfig = PlacementConfig()) -> PlacementResult:
    """Reweighted ADMM placement: solve, then round greedily.

    Runs ``reweight_rounds`` solves (uniform weights first, then reweighted),
    each warm-started from the previous round. ``greedy_cover_from_scores``
    then rounds the column sup-norms of the final R from the empty set
    against the actual capacities, so the returned placement is always
    feasible with no redundant station.
    """
    inst = _Instance(C, r_min)  # the guard, canonical order and Z-step, once
    values = inst.values
    g = values.shape[1]
    w = np.ones(g)
    rho = config.rho
    z0 = u0 = None
    traces = []
    iterations = 0  # the trace offset of the next round
    all_converged = True
    state = None
    for _ in range(config.reweight_rounds):
        state = admm_solve(
            inst,
            r_min,
            rho=rho,
            w=w,
            max_iter=config.max_iter,
            eps_abs=config.eps_abs,
            eps_rel=config.eps_rel,
            z0=z0,
            u0=u0,
        )
        tr = state.trace.copy()
        tr[:, 0] += iterations
        traces.append(tr)
        iterations += state.iterations
        all_converged = all_converged and state.converged
        # U is scaled by the final rho, so the next round resumes at that step.
        rho, z0, u0 = state.rho, state.Z, state.U
        w = reweight(state.R, r_min, config.reweight_eps)
        # Rescaling all weights leaves the argmin unchanged but keeps the
        # slack costs commensurate with rho, which conditions the iteration.
        w /= w.max()

    scores = np.abs(state.R).max(axis=0)
    selected = greedy_cover_from_scores(inst, r_min, scores, ())
    rates = values[:, selected].sum(axis=1) if selected else np.zeros(values.shape[0])
    positions = tuple(C.candidates[g] for g in selected) if isinstance(C, CapacityMatrix) else ()
    return PlacementResult(
        selected=tuple(selected),
        positions=positions,
        user_rates=rates,
        feasible=covers(values, selected, r_min),
        objective_trace=np.vstack(traces),
        iterations=iterations,
        converged=all_converged,
    )


def write_trace_csv(trace: np.ndarray, path) -> None:
    """Residual history as CSV: iteration, primal, dual, objective."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "primal", "dual", "objective"])
        for row in np.asarray(trace):
            writer.writerow([repr(int(row[0]))] + [repr(float(v)) for v in row[1:]])
