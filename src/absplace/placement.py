"""Minimum-count base-station placement: a certified LP core, greedy rounding,
and the paper's ADMM relaxation.

The combinatorial problem is to find the fewest candidate points whose
capacity columns jointly give every user the target rate. In units of the
target, let c = min(C / r_min, 1) entrywise. ``solve_placement`` relaxes the
problem to the clipped activation LP

  min sum(alpha)  subject to  c alpha >= 1,  0 <= alpha <= 1,

the paper's relaxation in its strong facility-location form (R <= c alpha;
Cornuejols, Nemhauser & Wolsey 1990). Clipping at the target is
coefficient tightening (Nemhauser & Wolsey 1988): for 0/1 alpha it changes
nothing, but a fractional alpha can no longer cover a user with a small
share of one strong column. The LP has G + M variables, and primal-dual
hybrid gradient (PDHG: Chambolle & Pock 2011, as in PDLP, Applegate et al.
2021) solves it with two M x G products per iteration:

  alpha <- clip(alpha - tau (1 - c'y), 0, 1),
  y <- max(0, y + sigma (1 - c (2 alpha_new - alpha))),

with tau = 0.9 / (omega ||c||_2) and sigma = 0.9 omega / ||c||_2, so that
tau sigma ||c||_2^2 < 1. Every y >= 0 bounds the LP, and so the integer
optimum, from below (Lagrangian duality; Geoffrion 1974):
LB(y) = sum(y) - sum_g max(0, (c'y)_g - 1). The best scaling
max_{s >= 0} LB(s y) is concave and piecewise linear in s with breakpoints
at 1 / (c'y)_g, so one sort finds it (``_scaled_bound``). Every
``_CHECK_EVERY`` iterations, and at the cap, the solve computes the
shortfall 1 - min(c alpha) and the best bound so far, and it stops when
both the shortfall and the relative gap (sum(alpha) - LB) / max(1,
sum(alpha)) are at most ``_TOL``. The cold start is alpha = 0, y = 0, and
the iteration order is fixed, so reruns give the same bits.

Stations are rounded greedily from alpha along one visit order
(decreasing alpha, exact ties by canonical rank): added from the empty set
until the set covers, then dropped walking the order backward wherever
coverage survives, so the returned set is always feasible and contains no
redundant station. Its size is at least the ceiling of the bound, which
proves the placement optimal when the two meet. Coverage is exact: a user
is covered iff math.fsum of its selected capacities reaches r_min. Greedy
keeps the selected set's float row totals as an M-vector, so each visited
column costs one O(M) add or subtract; a row's verdict comes from its float
total when that lies outside a rigorous rounding band around r_min, and
from math.fsum over the members otherwise (``_Coverage``, shared with
``covers`` and the infeasibility guards).

Both solvers prepare their instance once (``_Instance``): the entry guard,
the canonical column order that every solve and greedy's tie-break use (one
stable argsort of the last row, which a tie there widens to the full
lexicographic sort), and the capacities in that order scaled so the target
is 1. That order and scale are the instance's frame, and the result does
not depend on how the candidates happened to be enumerated.

``admm_solve`` is the paper's formulation, which the acceptance suite
checks against the exact epigraph LP: a convex program over a rate matrix
R, column g carrying the rates a station at candidate g would serve, with
0 <= R <= C entrywise and row sums fixed at the target rate. The objective
sum_g w_g * ||R[:, g]||_inf is a weighted group-sparsity surrogate, and
``reweight`` gives the weights of a reweighted round (Candes, Wakin & Boyd
2008). The splitting keeps the column slack structure in one block
(X-step: per column, a quadratic prox under r <= s * 1 plus a linear slack
cost) and the row constraints in the other (Z-step: per row, projection
onto the fixed-sum box). Both per-block solutions reduce to the root of a
piecewise-linear nonincreasing scalar function:

  X-step, column g: find s with sum_m max((z - u)_m - s, 0) = w_g / rho;
      then r = min(z - u, s * 1). With w_g = 0 the slack constraint is
      inactive and r = z - u exactly.

  Z-step, row m: find lam with sum_g max(0, min(c_g, (r + u)_g - lam)) =
      r_min; then z = max(0, min(c, r + u - lam)). Rows with total
      capacity below r_min are infeasible.

Both functions change slope only at known breakpoints. The X-step root is
exact, with no iteration, from the sorted column in O(n log n): it takes
the last active prefix of the descending column and its cumulative sum, as
in simplex projection (Duchi et al. 2008). The Z-step sorts nothing: each
row keeps the class of every entry (full, open or zero at the root) from
the previous iteration, one O(G) pass checks that the piece between
breakpoints {b - c, b} that those classes give for the new B still holds
the root, and when a piece has moved the rows take safeguarded Newton
steps on lam (Cominetti, Mascarenhas & Silva 2014). The piece that holds
the root is unique in floats, and it alone fixes lam, so the result does
not depend on the start (``_ZStep``).

The dual update is U <- U + R - Z. Convergence uses the standard scaled
primal/dual residual rule. rho is the initial step: for the first 1,000
iterations residual balancing adapts it (every 10 iterations it doubles
when the primal residual is over 10 times the dual one and halves in the
reverse case, rescaling U to match), and it is frozen after that. The
returned rho and U are at the final step. The iterations run in the
instance's frame (``_iterate``) and end in an ``AdmmState`` there, which
``admm_solve`` maps back to rate units and input order.

The solver settings are module constants: ``_OMEGA`` to ``_TOL`` for the
placement, ``_RHO`` to ``_EPS_REL`` and ``_REWEIGHT_EPS`` for the ADMM,
and ``_MAX_ITER`` for both. Rates are scaled to the target, so one set
serves every instance. Every entry point checks the target rate, in
``_Coverage`` or in ``reweight``: finite and positive, else ValueError.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import CapacityMatrix, _check_capacities
from .errors import EmptyProblemError, InfeasibleError
from .geometry import Point3

__all__ = [
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


# Placement settings: the PDHG step ratio omega (primal step 0.9 / (omega
# ||c||), dual step 0.9 omega / ||c||), how many iterations apart the stop
# test runs, and the tolerance of both its shortfall and its relative gap.
# omega = 1 placed about 1 % fewer stations on urban instances, at a 90th
# percentile solve time 30-40 % longer.
_OMEGA = 2.0
_CHECK_EVERY = 8
_TOL = 0.1

# ADMM settings: the initial step, the tolerances (relative to the target
# rate) and the eps of reweighting (Candes, Wakin & Boyd 2008). _MAX_ITER
# caps a placement's PDHG iterations and is admm_solve's default cap.
_RHO = 1.0
_EPS_ABS = 1e-6
_EPS_REL = 1e-4
_MAX_ITER = 10_000
_REWEIGHT_EPS = 1e-3


@dataclass(frozen=True)
class AdmmState:
    """Final solver state plus its residual history.

    R, Z, U are M x G and row_sum_max_dev is the worst row-sum violation
    of Z seen at any iteration. As ``admm_solve`` returns them they are in
    rate units and input column order; as ``_iterate`` returns them they
    are in the instance's frame (target 1, canonical order). The trace is
    in rate units either way, its columns (iteration, primal residual,
    dual residual, objective). rho is the final step, after residual
    balancing, and the scaled dual U is at that step, so the state
    warm-starts a further solve as ``admm_solve(..., start=state)``. The
    state does not keep the weights: they are the caller's ``w``.
    """

    R: np.ndarray
    Z: np.ndarray
    U: np.ndarray
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
    target rate, recomputed from actual capacities. ``lower_bound`` is
    the best bound the LP solve certified, in stations: no placement has
    fewer stations than its ceiling. ``objective_trace`` has one row per
    stop test, its columns (iteration, shortfall, gap, objective in
    stations); ``converged`` is False when the solve stopped at its cap.
    """

    selected: tuple[int, ...]
    positions: tuple[Point3, ...]
    user_rates: np.ndarray
    feasible: bool
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    lower_bound: float

    @property
    def n_abs(self) -> int:
        return len(self.selected)

    @property
    def proven_optimal(self) -> bool:
        """True when the bound's ceiling reaches the station count, which no
        placement can then undercut. The 1e-9 absorbs the rounding of
        C / r_min: a set that covers exactly can sum to a few ulps below 1
        in units of the target."""
        return math.ceil(self.lower_bound - 1e-9) >= self.n_abs


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

    Row m's shift lam solves G(lam) = r_min, where the float function
    G(t) = sum(max(0, min(c, b - t))) is the row sum of the z that the step
    returns at t. The breakpoints of a row are the floats b - c and b of its
    entries. The piece of t is (L, H], from the largest breakpoint below t
    (or -inf) to the smallest at or above it (or +inf). On it an entry is
    full when its b - c >= t, zero when b < t and open otherwise, so each
    entry is classified against its own two breakpoints; n counts the open
    entries.

    Every term of G and float addition in a fixed order are monotone, so G
    is nonincreasing over the floats, exactly. Hence exactly one piece of a
    row is final, G(L) > r_min >= G(H): the one that ends at the smallest
    breakpoint where G falls to r_min. Its shift is
    min(L + (G(L) - r_min) / n, H), the root of the piece's linear model
    through (L, G(L)); a flat piece, n = 0, which only rounding can make
    final, uses n = 1. The final piece alone fixes lam, so Z does not
    depend on how the search started. G's row sums run along the last
    axis, and numpy rounds such a sum by the memory layout, so one row
    alone (``z_step_row``) equals its row of the batch bit for bit when B
    and C are C-ordered, as the solver's arrays are.

    The search is a safeguarded Newton method on each row's shift
    (Cominetti, Mascarenhas & Silva 2014; Kiwiel 2008 reviews breakpoint
    searches). A call starts each row at a shift t, by default
    (sum(b) - r_min) / G, the root when every entry is open. A pass
    classifies every entry at t, finds L and H, evaluates G at both, and
    stops the rows whose piece is final. Each other row keeps a bracket
    (lo, hi) of breakpoints with G(lo) > r_min >= G(hi) and moves to its
    Newton point L + (G(L) - r_min) / n when that lies strictly inside the
    bracket, else to the next piece on the root's side: just above H or at
    L, which also leaves flat pieces. Every such pass moves lo up or hi
    down to a breakpoint strictly inside the bracket, so a row is final
    within 2G + 1 passes; more raise RuntimeError. A pass is the same array
    operations whatever M is, with the brackets and shifts as M-vectors
    under row masks, so a row of a C-ordered batch ends with the bits it
    ends with alone, and the batch takes the passes of its slowest row.

    ``follow`` warm-starts from the previous call: its first pass keeps
    each entry's class from the final pass before, so L and H are the
    nearest breakpoints that the new B gives that class, and the shift it
    moves to when a piece is not final is the root of the old piece for
    the new B. Between ADMM iterations the classes rarely change, so most
    calls take this one pass. ``passes`` counts the passes of the last call.

    A row whose float sum(C) does not exceed r_min (it reaches r_min only in
    exact arithmetic, or exactly) takes no step and returns lam = -inf and
    z = c exactly. The per-problem invariants are built once, for all the
    iterations of one ``_iterate`` run.
    """

    def __init__(self, C: np.ndarray, r_min: float):
        g = C.shape[1]
        self.C = C
        self.r_min = r_min
        short = C.sum(axis=1) <= r_min
        self.short = short if short.any() else None
        # n = #(b >= t) - #(b - c >= t) over the breakpoint columns K = [B - C, B]
        self.sign = np.repeat([-1.0, 1.0], g)
        self.max_passes = 2 * g + 1
        self.passes = 0
        self.lam = None  # the final shifts of the last call
        self.above = None  # its final classes: K >= t on each row's final piece

    def __call__(self, B, lam=None):
        """Z for B, each row's search started at lam (default: every entry open)."""
        if lam is None:
            lam = (B.sum(axis=1) - self.r_min) / self.C.shape[1]
        return self._search(B, lam, None)

    def follow(self, B):
        """Z for the next B of the problem, warm-started from the last call."""
        return self._search(B, None, self.above)

    def _search(self, B, t, above):
        """The search from shifts t, or from the classes ``above`` of K."""
        C, r_min, short = self.C, self.r_min, self.short
        K = np.concatenate((B - C, B), axis=1)  # the breakpoints
        lo, hi = -np.inf, np.inf  # the brackets, M-vectors once a row steps
        for passes in range(1, self.max_passes + 1):
            if above is None:
                above = K >= t[:, None]
            L = np.where(above, -np.inf, K).max(axis=1)
            H = np.where(above, K, np.inf).min(axis=1)
            # E = r_min - G at L and at H
            E = r_min - np.maximum(0.0, np.minimum(C, B - np.array((L, H))[:, :, None])).sum(axis=2)
            x = L - E[0] / np.maximum(above @ self.sign, 1.0)
            over = E < 0.0  # G > r_min
            if np.count_nonzero(over[0]) == len(B) and not np.count_nonzero(over[1]):
                break  # every piece is final
            # The other rows move to x if inside their new bracket, else to
            # the next piece; a row that stays puts t at H, keeping its classes.
            up = over[1]  # G(H) > r_min: the root lies above H
            moving = up | ~over[0]  # or G(L) <= r_min: it lies at or below L
            if short is not None:
                moving &= ~short
            if not np.count_nonzero(moving):
                break
            down = moving ^ up  # the moving rows whose root lies at or below L
            lo = np.where(up, H, lo)
            hi = np.where(down, L, hi)
            step = np.where((lo < x) & (x < hi), x, np.where(up, np.nextafter(H, np.inf), L))
            t = np.where(moving, step, H)
            above = None
        else:
            raise RuntimeError(f"Z-step shift not settled after {self.max_passes} passes")
        self.passes = passes
        self.above = above
        self.lam = lam = np.minimum(x, H)
        if short is not None:
            lam[short] = -np.inf
        return np.maximum(0.0, np.minimum(C, B - lam[:, None]))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, as np.linalg.norm computes it, without its wrappers."""
    a = a.ravel()
    return math.sqrt(a @ a)


def _finite_vectors(**vectors) -> list[np.ndarray]:
    """The named inputs as float arrays; ValueError naming the first that
    holds a NaN or an infinity."""
    arrays = []
    for name, v in vectors.items():
        a = np.asarray(v, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
        arrays.append(a)
    return arrays


def x_step_column(z_col, u_col, w_g: float, rho: float):
    """Single-column X-step; returns (rate column, slack).

    The slack solves sum(max(z - u - s, 0)) = w_g / rho; the rate column
    is min(z - u, s). The root is found exactly from the sorted column.
    For w_g = 0 the column is returned unchanged (r = z - u) and the slack
    reported as its maximum entry. Raises ValueError unless rho is finite
    and positive, w_g finite and nonnegative, z and u finite, and z and u
    1-D vectors of one length.
    """
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if not (w_g >= 0 and math.isfinite(w_g)):
        raise ValueError(f"weight must be finite and nonnegative, got {w_g}")
    z, u = _finite_vectors(z_col=z_col, u_col=u_col)
    if not (z.ndim == 1 and z.shape == u.shape):
        raise ValueError("z_col and u_col must be 1-D vectors of one length")
    R, s = _XStep(np.array([float(w_g)]), z.size, rho)((z - u)[:, None])
    return R[:, 0], float(s[0])


def z_step_row(r_row, u_row, c_row, r_min: float):
    """Single-row Z-step: project r + u onto {z : sum(z) = r_min, 0 <= z <= c}.

    Independent of the step size. The shift lam of z = clip(r + u - lam, 0, c)
    is the one of ``_ZStep`` from its default start, so the result equals
    the row of a batched step on C-ordered arrays bit for bit. Raises
    ValueError unless r and u are finite (and c as every solver entry
    checks it), then ValueError unless r, u and c are 1-D vectors of one
    length, then InfeasibleError when the row's total capacity cannot reach
    r_min.
    """
    r, u = _finite_vectors(r_row=r_row, u_row=u_row)
    rule = _Coverage(np.reshape(c_row, (1, -1)), r_min)
    if not (np.ndim(c_row) == 1 and r.shape == u.shape == rule.values.shape[1:]):
        raise ValueError("r_row, u_row and c_row must be 1-D vectors of one length")
    return _ZStep(rule.coverable().values, float(r_min))((r + u)[None])[0]


_EPS = float(np.finfo(float).eps)
# Rows whose absolute sum reaches this always take the exact fallback: below
# it, no float total built from their entries can overflow.
_ABS_SUM_LIMIT = float(np.finfo(float).max) / 4


class _Coverage:
    """The solvers' entry guard and the one coverage rule: row m of a member
    set covers iff ``math.fsum(values[m, members]) >= r_min``, decided from
    float totals. ``values`` is ``C`` (a CapacityMatrix or an array) as a
    float array. Building the rule raises ValueError unless r_min is finite
    and positive, then, by CapacityMatrix's own check and before any shape
    is read, unless the values are 2-D, finite and nonnegative (greedy
    rounding needs coverage to grow with the set), and EmptyProblemError (a
    ValueError) when there are no users, since no solver can place stations
    for nobody. ``coverable`` then raises InfeasibleError naming the users
    that even every column together leaves short.

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

    def __init__(self, C, r_min: float):
        if not (r_min > 0 and math.isfinite(r_min)):
            raise ValueError(f"target rate must be finite and positive, got {r_min}")
        self.values = values = np.asarray(getattr(C, "values", C), dtype=float)
        _check_capacities(values)
        if values.shape[0] == 0:
            raise EmptyProblemError("capacity matrix has no users to cover")
        self.r_min = r_min
        abs_sum = np.abs(values).sum(axis=1)
        pad = (2 * values.shape[1] + 2) * _EPS * abs_sum + _EPS * abs(r_min)
        pad[~(abs_sum < _ABS_SUM_LIMIT)] = np.inf
        self.lo = r_min - pad
        self.hi = r_min + pad

    def coverable(self) -> "_Coverage":
        """The rule itself, once every row covers with all columns as members."""
        short = self.short_rows(slice(None), self.values.sum(axis=1))
        if short.size:
            raise InfeasibleError(
                "users not coverable even with every candidate active: "
                + ", ".join(str(int(m)) for m in short),
                users=short.tolist(),
            )
        return self

    def short_rows(self, members, totals: np.ndarray) -> np.ndarray:
        """Indices of the rows whose exact member sum falls below r_min."""
        short = totals < self.lo
        for m in np.flatnonzero(~short & ~(totals > self.hi)):
            short[m] = not math.fsum(self.values[m, members]) >= self.r_min
        return np.flatnonzero(short)

    def covers(self, members, totals: np.ndarray) -> bool:
        """True iff every row covers."""
        if (totals > self.hi).all():
            return True
        if (totals < self.lo).any():
            return False
        return self.short_rows(members, totals).size == 0


def _canonical_order(values: np.ndarray):
    """(order, rank): the lexicographic column order, stable on duplicates,
    and its inverse, the canonical rank of every column.

    The order is ``np.lexsort(values)``, whose primary key is the last row.
    When that row holds no two equal entries (``==``, so -0.0 ties with
    0.0) the other keys never decide, and one stable argsort of it gives
    the same permutation; only a tie there runs the full lexicographic
    sort. The values are finite, as every entry checks them.
    """
    last = values[-1]
    order = np.argsort(last, kind="stable")
    ranked = last[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.lexsort(values)
    rank = np.empty(order.size, dtype=int)
    rank[order] = np.arange(order.size)
    return order, rank


class _Instance:
    """One placement instance, prepared once for its solve and rounding.

    Holds the instance's frame, in which every solver iteration runs: the
    canonical column order and its inverse (greedy's tie-break rank), and
    the capacities in that order scaled to r_min = 1. Also the entry
    guard's coverage rule and the target r_min. The scaled capacities are
    gathered with ``take``, which returns a C-ordered array where
    ``values[:, order]`` is column-major, so every array of the solve
    shares one layout. Building it runs the entry guard.
    """

    def __init__(self, C, r_min: float):
        self.rule = _Coverage(C, r_min).coverable()
        self.values = values = self.rule.values
        self.r_min = r_min
        self.order, self.rank = _canonical_order(values)
        self.cn = values.take(self.order, axis=1) / r_min

    def cold_start(self):
        """(Z, U) of a cold start, in the frame: Z at min(cn, 1 / G), U at zero."""
        m, g = self.cn.shape
        return np.minimum(self.cn, 1.0 / g), np.zeros((m, g))


def _iterate(
    inst: _Instance, w, Z, U, rho: float, max_iter: int, eps_abs: float, eps_rel: float
) -> AdmmState:
    """The ADMM iterations of ``admm_solve`` in the frame of ``inst``, from
    Z, U and step rho, with the weights w in canonical column order.

    Returns the final ``AdmmState`` in the frame, with its trace in rate
    units and iterations numbered from 1. Takes its inputs as checked.
    Stopping at ``max_iter`` logs the one warning on the ``absplace``
    logger.
    """
    m, g = inst.cn.shape
    x_step = _XStep(w, m, rho)
    z_step = _ZStep(inst.cn, 1.0)
    sq_mg = math.sqrt(m * g)
    trace = []
    row_dev = 0.0
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        iterations = k
        R, _ = x_step(Z - U)
        z_new = z_step(R + U) if z_step.above is None else z_step.follow(R + U)
        U = U + R - z_new
        primal = _norm(R - z_new)
        dual = rho * _norm(z_new - Z)
        Z = z_new
        sums = Z.sum(axis=1)
        row_dev = max(row_dev, float(sums.max()) - 1.0, 1.0 - float(sums.min()))
        sup = np.abs(R).max(axis=0)
        objective = float(w @ sup)
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

    r_min = inst.r_min
    if not converged:
        _log.warning(
            "admm_solve stopped at max_iter = %d without converging: "
            "primal %.3g, dual %.3g (rate units), rho %g",
            iterations, primal * r_min, dual * r_min, rho,
        )

    trace_arr = np.array(trace)
    trace_arr[:, 1:] *= r_min  # residuals and objective back to rate units
    return AdmmState(R, Z, U, rho, iterations, converged, trace_arr, row_dev)


def _weight_vector(w, g: int) -> np.ndarray:
    """The slack weights ``w`` as a float G-vector, all ones when None;
    ValueError unless they are G finite nonnegative numbers."""
    w = np.ones(g) if w is None else np.asarray(w, dtype=float)
    if w.shape != (g,) or not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("w must be a finite nonnegative G-vector")
    return w


def admm_solve(
    C,
    r_min: float,
    w=None,
    max_iter: int = _MAX_ITER,
    eps_abs: float = _EPS_ABS,
    eps_rel: float = _EPS_REL,
    start: AdmmState | None = None,
) -> AdmmState:
    """Run the splitting to convergence on one weighted problem instance.

    Rates are internally rescaled so the target rate is 1 (one rho default
    then works across rate scales); eps_abs is interpreted relative to the
    target rate. Stops when both the primal residual ||R - Z||_F and the
    dual residual rho * ||Z_k+1 - Z_k||_F fall below
    eps_abs * sqrt(M G) + eps_rel * max(||R||_F, ||Z||_F), or after
    ``max_iter`` iterations; stopping there logs one warning on the
    ``absplace`` logger. ValueError unless ``max_iter`` is an integer (not
    a bool) of at least 1 and both tolerances are nonnegative (not NaN).
    Each Z-step starts from the entry classes of the one before
    (``_ZStep.follow``); the first Z-step of a solve starts every row at
    its root with all entries open. The Z-step's result does not depend on
    its start.

    The weights ``w`` (all ones by default) are finite and nonnegative.
    A cold start (``start`` None) begins at step ``_RHO``, read at the
    call, with Z at min(C, r_min / G) and U at zero. ``start``, an earlier
    ``AdmmState`` of the same matrix, resumes from its Z, U and rho
    instead; ValueError unless its Z and U are finite M x G arrays and its
    rho finite and positive. Every 10 iterations up to iteration 1,000,
    residual balancing doubles rho (and halves the scaled U) when the
    primal residual exceeds 10 times the dual one, and does the reverse
    when the dual residual exceeds 10 times the primal one; after that rho
    is fixed, which keeps the fixed-step convergence guarantee. The
    returned ``rho`` and ``U`` are at the final step.

    The iterations run in the instance's frame (``_Instance``): columns in
    a canonical (lexicographic) order and rates scaled so the target is 1.
    The inputs are mapped into it and the result back on return, so the
    result does not depend on how the candidates happened to be enumerated
    (float reductions are order-sensitive at machine precision).
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    if not (eps_abs >= 0 and eps_rel >= 0):
        raise ValueError(f"eps_abs and eps_rel must be nonnegative, got {eps_abs!r} and {eps_rel!r}")
    rho = _RHO if start is None else start.rho
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    inst = _Instance(C, r_min)
    m, g = inst.values.shape
    w = _weight_vector(w, g)

    order, invert = inst.order, inst.rank
    if start is None:
        Z, U = inst.cold_start()
    else:
        Z, U = (np.asarray(a, dtype=float) for a in (start.Z, start.U))
        if not (Z.shape == U.shape == (m, g) and np.isfinite(Z).all() and np.isfinite(U).all()):
            raise ValueError("start.Z and start.U must be finite M x G arrays")
        Z, U = Z.take(order, axis=1) / r_min, U.take(order, axis=1) / r_min
    run = _iterate(inst, w[order], Z, U, rho, max_iter, eps_abs, eps_rel)
    return replace(
        run,
        R=run.R[:, invert] * r_min,
        Z=run.Z[:, invert] * r_min,
        U=run.U[:, invert] * r_min,
        row_sum_max_dev=run.row_sum_max_dev * r_min,
    )


def reweight(R: np.ndarray, r_min: float) -> np.ndarray:
    """Next sparsity weights, proportional to
    1 / (_REWEIGHT_EPS + ||R[:, g]||_inf / r_min) and scaled so the largest is 1.

    Column magnitudes are normalized by the target rate so the constant
    ``_REWEIGHT_EPS`` is scale-free; larger columns get strictly smaller
    weights. The common scale leaves the argmin unchanged but keeps the
    slack costs commensurate with rho, which conditions the iteration.
    Raises ValueError unless r_min is finite and positive and R finite, then
    unless R is 2-D.
    """
    if not (r_min > 0 and math.isfinite(r_min)):
        raise ValueError(f"target rate must be finite and positive, got {r_min}")
    (R,) = _finite_vectors(R=R)
    if R.ndim != 2:
        raise ValueError(f"R must be an M x G array, got shape {R.shape}")
    w = 1.0 / (_REWEIGHT_EPS + np.abs(R).max(axis=0) / r_min)
    return w / w.max()


def _column_indices(name: str, indices, g: int) -> list:
    """``indices`` as a list; ValueError unless each is an integer (not a
    bool) in [0, g)."""
    indices = list(indices)
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < g:
            raise ValueError(f"{name} must hold column indices in [0, {g}), got {i!r}")
    return indices


def covers(values: np.ndarray, subset, r_min: float) -> bool:
    """True iff the selected columns jointly give every user at least r_min.

    The verdict is exact, ``math.fsum`` of each row's selected entries
    against r_min, so it cannot depend on the order the columns are listed
    in. Float row totals decide every row outside a rigorous rounding band
    around r_min; only rows inside it are summed with ``math.fsum``. A
    column listed twice counts twice, and the empty set covers no one.
    Checks its input as every solver entry does: ValueError unless r_min
    is finite and positive and the whole matrix is 2-D, finite and
    nonnegative, and EmptyProblemError when it has no users; then
    ValueError unless every entry of ``subset`` is an integer column index
    in [0, G).
    """
    values = _Coverage(values, r_min).values
    sub = values[:, _column_indices("subset", subset, values.shape[1])]
    return _Coverage(sub, r_min).covers(slice(None), sub.sum(axis=1))


def greedy_cover_from_scores(values: np.ndarray, r_min: float, scores, selected) -> list[int]:
    """Repair then prune a candidate set against actual capacities.

    One visit order serves both passes: decreasing score, exact ties broken
    by the columns' canonical lexicographic rank, so the order is a
    function of column content, not position, and reordering the
    candidates reorders the output set identically. Repair walks it forward
    over the columns outside the set until the set covers; prune walks it
    backward over the members (weakest station first), keeping only drops
    that preserve coverage. Coverage grows with the set, the columns above
    any score cut are a prefix of the order and prune walks it in reverse,
    so starting from them ends where the empty start does.

    Raises as building ``_Coverage`` does, then ValueError unless ``scores`` is
    a finite G-vector and ``selected`` holds integer column indices in
    [0, G). Assumes the full column set covers.

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
        rule = _Coverage(values, r_min)
        values = rule.values
        rank = _canonical_order(values)[1]
    n = values.shape[1]
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (n,) or not np.isfinite(scores).all():
        raise ValueError("scores must be a finite G-vector")
    members = np.zeros(n, dtype=bool)
    members[_column_indices("selected", selected, n)] = True
    order = np.lexsort((rank, -scores))
    totals = values[:, members].sum(axis=1)
    if not rule.covers(members, totals):
        for g in order[~members[order]].tolist():
            members[g] = True
            totals = totals + values[:, g]
            if rule.covers(members, totals):
                break
    for g in order[members[order]][::-1].tolist():
        members[g] = False
        trial = totals - values[:, g]
        if rule.covers(members, trial):
            totals = trial
        else:
            members[g] = True
    return np.flatnonzero(members).tolist()


def _scaled_bound(c: np.ndarray, y: np.ndarray) -> float:
    """max over s >= 0 of LB(s y), LB(y) = sum(y) - sum_g max(0, (c'y)_g - 1),
    rounded down.

    A lower bound on min sum(alpha) subject to c alpha >= 1, 0 <= alpha <= 1
    for every y >= 0. In s it is concave and piecewise linear, zero at
    s = 0, with a breakpoint at 1 / v_g for each v_g = (c'y)_g > 0. At the
    breakpoint of the k-th largest v (k from 0) exactly the k larger ones
    are past theirs, so LB there is (sum(y) - their sum) / v + k, and the
    maximum lies at one of these points or at s = 0. LB is then evaluated
    afresh at the chosen s, which is valid whatever rounding chose it, less
    a pad of 2 (M + G + 4) eps times the magnitudes it sums, which bounds
    the rounding of that evaluation (Higham 2002, ch. 4); so the result
    does not exceed the exact LB of c and y at that s.
    """
    v = y @ c
    desc = np.sort(v)[::-1]
    desc = desc[desc > 0.0]
    if not desc.size:
        return 0.0
    total = float(y.sum())
    k = int(np.argmax((total - (np.cumsum(desc) - desc)) / desc + np.arange(desc.size)))
    sv = v / desc[k]
    bound = total / desc[k] - float(np.maximum(sv - 1.0, 0.0).sum())
    pad = 2 * (c.shape[0] + c.shape[1] + 4) * _EPS * (total / desc[k] + float(sv.sum()))
    return max(0.0, bound - pad)


def solve_placement(C: CapacityMatrix, r_min: float) -> PlacementResult:
    """Certified placement: PDHG on the clipped activation LP, then greedy
    rounding.

    Solves min sum(alpha) subject to c alpha >= 1 and 0 <= alpha <= 1, with
    c = min(C / r_min, 1), by PDHG from alpha = 0, y = 0 at the steps
    0.9 / (``_OMEGA`` ||c||_2) and 0.9 ``_OMEGA`` / ||c||_2. Every
    ``_CHECK_EVERY`` iterations, and at the cap ``_MAX_ITER``, it computes
    the shortfall max(0, 1 - min(c alpha)) and the best scaled dual bound
    so far, and it stops once both the shortfall and the relative gap
    (sum(alpha) - bound) / max(1, sum(alpha)) are at most ``_TOL``; these
    module constants are read at each call. Stopping at the cap logs one
    warning on the ``absplace`` logger. ``greedy_cover_from_scores`` then
    rounds alpha from the empty set against the actual capacities, so the
    returned placement is always feasible with no redundant station.

    Everything runs in the instance's frame (``_Instance``): canonical
    column order and capacities in units of the target. The iteration
    order is fixed, so a rerun, or a run on permuted columns, gives the
    same bits. The result's ``lower_bound`` is the best bound, which no
    placement's size falls below, and ``objective_trace`` holds one row
    (iteration, shortfall, gap, sum(alpha)) per stop test.
    """
    inst = _Instance(C, r_min)  # the guard and canonical order, once
    c = np.minimum(inst.cn, 1.0)
    m, g = c.shape
    # ||c||_2 from the smaller Gram matrix: a quarter of an SVD's time at 20 x 288
    norm = math.sqrt(float(np.linalg.eigvalsh(c @ c.T if m <= g else c.T @ c)[-1]))
    tau = 0.9 / (_OMEGA * norm)
    sigma = 0.9 * _OMEGA / norm
    tc, sc = tau * c, sigma * c  # the two steps of the module docstring, scaled in
    alpha, y = np.zeros(g), np.zeros(m)
    bound = 0.0
    trace = []
    converged = False
    for k in range(1, _MAX_ITER + 1):
        step = np.minimum(np.maximum(alpha - tau + y @ tc, 0.0), 1.0)
        y = np.maximum(y + sigma - sc @ (step + step - alpha), 0.0)
        alpha = step
        if k % _CHECK_EVERY and k < _MAX_ITER:
            continue
        shortfall = max(0.0, 1.0 - float((c @ alpha).min()))
        bound = max(bound, _scaled_bound(c, y))
        objective = float(alpha.sum())
        gap = (objective - bound) / max(1.0, objective)
        trace.append((k, shortfall, gap, objective))
        if shortfall <= _TOL and gap <= _TOL:
            converged = True
            break
    if not converged:
        _log.warning(
            "solve_placement stopped at max_iter = %d without converging: "
            "shortfall %.3g, gap %.3g",
            k, shortfall, gap,
        )

    selected = greedy_cover_from_scores(inst, r_min, alpha[inst.rank], ())
    rates = inst.values[:, selected].sum(axis=1)
    positions = tuple(C.candidates[g] for g in selected) if isinstance(C, CapacityMatrix) else ()
    return PlacementResult(
        selected=tuple(selected),
        positions=positions,
        user_rates=rates,
        feasible=inst.rule.covers(selected, rates),
        objective_trace=np.array(trace),
        iterations=k,
        converged=converged,
        lower_bound=bound,
    )


def write_trace_csv(trace: np.ndarray, path) -> None:
    """A placement's ``objective_trace`` as CSV: iteration, shortfall, gap,
    objective."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "shortfall", "gap", "objective"])
        for row in np.asarray(trace):
            writer.writerow([repr(int(row[0]))] + [repr(float(v)) for v in row[1:]])
