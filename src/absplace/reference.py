"""Ground-truth solvers used to validate the placement path.

Three independent references:

  * exhaustive subset search over candidate columns (exponential, guarded),
  * the exact epigraph linear program equivalent to the relaxed placement
    problem (weighted slack objective over the rate matrix),
  * the column-activation LP relaxation over alpha in [0, 1]^G with
    reweighting.

Both LPs are solved by an in-module dense two-phase simplex with Bland's
rule (deterministic, cycle-free). Every solve is certified: the solution is
recomputed from the final basis, primal feasibility, dual feasibility of the
reduced costs, and the duality gap are all checked before the result is
returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InfeasibleError
from .placement import _Coverage, _uncoverable_rows, greedy_cover_from_scores

__all__ = [
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "exhaustive_min_abs",
    "solve_epigraph_lp",
    "solve_alpha_lp",
]

_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class LpProblem:
    """Canonical container: min c @ x s.t. a_eq x = b_eq, a_ub x <= b_ub,
    lower <= x <= upper (upper may be +inf)."""

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.size
        object.__setattr__(self, "c", c)

        def mat(a, b, name):
            if a is None:
                return None, None
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape != (b.size, n):
                raise ValueError(f"{name} has shape {a.shape}, expected ({b.size}, {n})")
            return a, b

        a_eq, b_eq = mat(self.a_eq, self.b_eq, "a_eq")
        a_ub, b_ub = mat(self.a_ub, self.b_ub, "a_ub")
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float) + np.zeros(n)
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float) + np.zeros(n)
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if not np.all(np.isfinite(lower)):
            raise ValueError("lower bounds must be finite")
        for name, val in (("a_eq", a_eq), ("b_eq", b_eq), ("a_ub", a_ub), ("b_ub", b_ub)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    duality_gap: float
    pivots: int


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def _bland_iterate(tableau, basis, allowed, max_pivots):
    """Run simplex pivots with Bland's rule until optimal; returns pivot count."""
    m = len(basis)
    pivots = 0
    while True:
        cost = tableau[-1, :-1]
        entering = -1
        for j in allowed:
            if cost[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return pivots
        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        leaving = -1
        best = math.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best - _PIVOT_TOL or (
                    abs(ratio - best) <= _PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("LP is unbounded")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("simplex exceeded its pivot budget")


def _simplex_standard(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Two-phase tableau simplex for min c @ x, a x = b, x >= 0 (b >= 0)."""
    m, n = a.shape
    max_pivots = 200 * (m + n) + 2000

    # Phase 1: artificial basis.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, n : n + m] = 1.0
    tableau[-1] -= tableau[:m].sum(axis=0)  # canonicalize for the artificial basis
    basis = list(range(n, n + m))
    pivots = _bland_iterate(tableau, basis, range(n), max_pivots)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    if -tableau[-1, -1] > _FEAS_TOL * scale:
        raise InfeasibleError("linear program infeasible")

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] < n:
            keep_rows.append(i)
            continue
        pivot_col = -1
        for j in range(n):
            if abs(tableau[i, j]) > _PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            _pivot(tableau, i, pivot_col)
            basis[i] = pivot_col
            keep_rows.append(i)
    rows = keep_rows + [m]
    tableau = tableau[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep_rows]
    mm = len(basis)

    # Phase 2: real costs, canonicalized for the current basis.
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(mm):
        tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    pivots += _bland_iterate(tableau, basis, range(n), max_pivots)
    return basis, keep_rows, pivots


def _certify(a, b, c, basis, keep_rows):
    """Recompute the solution from the basis and verify optimality.

    The dual certificate lives on the independent row subset kept by the
    simplex (redundant rows carry zero multipliers); primal feasibility is
    checked against the full system.
    """
    a_kept = a[keep_rows]
    b_kept = b[keep_rows]
    basis_matrix = a_kept[:, basis]
    xb = np.linalg.solve(basis_matrix, b_kept)
    x = np.zeros(a.shape[1])
    x[basis] = xb
    y = np.linalg.solve(basis_matrix.T, c[basis])
    reduced = c - a_kept.T @ y
    objective = float(c @ x)
    gap = abs(objective - float(b_kept @ y))
    b_scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    c_scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    ok = (
        xb.min(initial=0.0) >= -_FEAS_TOL * b_scale
        and float(np.abs(a @ x - b).max(initial=0.0)) <= _FEAS_TOL * b_scale
        and reduced.min(initial=0.0) >= -_FEAS_TOL * c_scale
        and gap <= _FEAS_TOL * max(1.0, abs(objective))
    )
    if not ok:
        raise RuntimeError("LP optimality certificate failed")
    return x, objective, gap


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a bounded-variable LP exactly; raises InfeasibleError if empty.

    The returned solution carries the certified duality gap (always checked
    against 1e-8 relative before returning).
    """
    n = problem.c.size
    lower, upper = problem.lower, problem.upper
    shift_obj = float(problem.c @ lower)

    blocks = []  # rows of the standard-form matrix, built as (coeffs, rhs)
    n_eq = 0 if problem.a_eq is None else problem.b_eq.size
    n_ub = 0 if problem.a_ub is None else problem.b_ub.size
    capped = np.flatnonzero(np.isfinite(upper))
    n_cap = capped.size
    total_cols = n + n_ub + n_cap
    rows = n_eq + n_ub + n_cap
    a = np.zeros((rows, total_cols))
    b = np.zeros(rows)
    if n_eq:
        a[:n_eq, :n] = problem.a_eq
        b[:n_eq] = problem.b_eq - problem.a_eq @ lower
    if n_ub:
        a[n_eq : n_eq + n_ub, :n] = problem.a_ub
        a[n_eq : n_eq + n_ub, n : n + n_ub] = np.eye(n_ub)
        b[n_eq : n_eq + n_ub] = problem.b_ub - problem.a_ub @ lower
    for k, j in enumerate(capped):
        i = n_eq + n_ub + k
        a[i, j] = 1.0
        a[i, n + n_ub + k] = 1.0
        b[i] = upper[j] - lower[j]

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    c_std = np.zeros(total_cols)
    c_std[:n] = problem.c

    basis, keep_rows, pivots = _simplex_standard(a, b, c_std)
    x_std, objective, gap = _certify(a, b, c_std, basis, keep_rows)
    x = lower + x_std[:n]
    return LpSolution(x=x, objective=objective + shift_obj, duality_gap=gap, pivots=pivots)


def exhaustive_min_abs(C, r_min: float, guard: int = 25):
    """Smallest feasible candidate subset by brute force.

    Enumerates subsets in increasing cardinality (lexicographic inside each
    size) and returns the first that covers, as (size, witness tuple),
    by the exact coverage rule of ``covers``. Guarded to G <= ``guard``
    columns.
    """
    values = np.asarray(getattr(C, "values", C), dtype=float)
    m, g = values.shape
    if g > guard:
        raise GuardError(f"exhaustive search guarded to {guard} columns, got {g}")
    rule = _Coverage(values, r_min)
    short = rule.short_rows(slice(None), values.sum(axis=1))
    if short.size:
        raise InfeasibleError(
            "no subset can cover users: " + ", ".join(str(int(u)) for u in short),
            users=short.tolist(),
        )
    for size in range(1, g + 1):
        for subset in itertools.combinations(range(g), size):
            if rule.covers(subset, values[:, subset].sum(axis=1)):
                return size, subset
    raise AssertionError("unreachable: full candidate set covers by the check above")


def solve_epigraph_lp(C, r_min: float, w=None):
    """Exact optimum of the weighted-slack placement LP.

    min w @ s over (R, s) with row sums of R equal to r_min, 0 <= R <= C,
    and R[:, g] <= s_g entrywise. Returns (objective, R, s). This is the
    correctness oracle for the ADMM path: both optimize the same convex
    problem.
    """
    values = np.asarray(getattr(C, "values", C), dtype=float)
    m, g = values.shape
    w = np.ones(g) if w is None else np.asarray(w, dtype=float)
    n_r = m * g  # r variables first (row-major), then the G slacks
    c = np.concatenate([np.zeros(n_r), w])

    a_eq = np.zeros((m, n_r + g))
    for i in range(m):
        a_eq[i, i * g : (i + 1) * g] = 1.0
    b_eq = np.full(m, float(r_min))

    a_ub = np.zeros((n_r, n_r + g))
    for i in range(m):
        for j in range(g):
            k = i * g + j
            a_ub[k, k] = 1.0
            a_ub[k, n_r + j] = -1.0
    b_ub = np.zeros(n_r)

    lower = np.zeros(n_r + g)
    upper = np.concatenate([values.ravel(), np.full(g, np.inf)])
    sol = solve_lp(LpProblem(c, a_eq, b_eq, a_ub, b_ub, lower, upper))
    rates = sol.x[:n_r].reshape(m, g)
    return sol.objective, rates, sol.x[n_r:]


def solve_alpha_lp(C, r_min: float, rounds: int = 4, eps: float = 1e-3, tau: float = 1e-3):
    """Reweighted column-activation LP relaxation.

    Solves min w @ alpha over alpha in [0, 1]^G with C alpha >= r_min,
    iterating w = 1 / (eps + alpha) from uniform weights, then thresholds
    alpha > tau and repairs/prunes greedily against the capacities.
    Returns (alpha, selected tuple).
    """
    values = np.asarray(getattr(C, "values", C), dtype=float)
    m, g = values.shape
    short = _uncoverable_rows(values, r_min)
    if short.size:
        raise InfeasibleError(
            "activation LP infeasible for users: " + ", ".join(str(int(u)) for u in short),
            users=short.tolist(),
        )
    w = np.ones(g)
    alpha = np.zeros(g)
    for _ in range(rounds):
        sol = solve_lp(
            LpProblem(
                c=w,
                a_ub=-values,
                b_ub=np.full(m, -float(r_min)),
                lower=np.zeros(g),
                upper=np.ones(g),
            )
        )
        alpha = sol.x
        w = 1.0 / (eps + alpha)
    initial = np.flatnonzero(alpha > tau)
    selected = greedy_cover_from_scores(values, r_min, alpha, initial)
    return alpha, tuple(selected)
