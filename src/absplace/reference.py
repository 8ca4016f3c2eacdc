"""Ground-truth solvers used to validate the placement path.

Three independent references:

  * exhaustive subset search over candidate columns (exponential, guarded),
  * the exact epigraph linear program equivalent to the relaxed placement
    problem (weighted slack objective over the rate matrix),
  * the column-activation LP relaxation over alpha in [0, 1]^G, clipped
    at the target and solved once.

Both LPs are solved by HiGHS (``scipy.optimize.linprog``, Huangfu & Hall
2018). Every solve is certified before its result is returned: the primal
point is checked against the bounds and constraints, HiGHS' multipliers
against dual feasibility (signs and the stationarity residual), and the
objective against the dual objective (the duality gap), all at 1e-8
relative.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from .errors import GuardError, InfeasibleError
from .placement import _check_rows_coverable, _check_target, _coverage_rule, greedy_cover_from_scores

__all__ = ["exhaustive_min_abs", "solve_epigraph_lp", "solve_alpha_lp"]

_FEAS_TOL = 1e-8


def _certify(c, a_ub, b_ub, a_eq, b_eq, lower, upper, res) -> float:
    """Check HiGHS' point and multipliers for optimality; return c @ x.

    Three checks, each at ``_FEAS_TOL``: primal feasibility relative to
    max(1, |b|, |finite bounds|); dual feasibility relative to max(1, |c|),
    that is the residual of c = A_ub' y_ub + A_eq' y_eq + y_l + y_u and the
    signs y_ub <= 0, y_l >= 0, y_u <= 0 (zero on an infinite bound); and
    the duality gap relative to max(1, |objective|). The signs are what make
    a zero gap a proof: HiGHS has been seen to stop at a suboptimal vertex
    whose multipliers pass the residual and the gap with a wrong sign.
    """
    x, y_ub, y_eq = res.x, res.ineqlin.marginals, res.eqlin.marginals
    y_l, y_u = res.lower.marginals, res.upper.marginals
    finite = np.isfinite(upper)

    def worst(*parts):
        return max(float(np.max(p, initial=0.0)) for p in parts)

    b_scale = max(1.0, worst(np.abs(b_ub), np.abs(b_eq), np.abs(lower), np.abs(upper[finite])))
    primal = worst(lower - x, x - upper, a_ub @ x - b_ub, np.abs(a_eq @ x - b_eq)) / b_scale
    residual = c - a_ub.T @ y_ub - a_eq.T @ y_eq - y_l - y_u
    signs = worst(y_ub, -y_l, y_u, np.abs(y_u[~finite]))
    dual = max(worst(np.abs(residual)), signs) / max(1.0, worst(np.abs(c)))
    objective = float(c @ x)
    dual_objective = float(b_ub @ y_ub + b_eq @ y_eq + lower @ y_l + upper[finite] @ y_u[finite])
    gap = abs(objective - dual_objective) / max(1.0, abs(objective))
    if not (primal <= _FEAS_TOL and dual <= _FEAS_TOL and gap <= _FEAS_TOL):
        raise RuntimeError(
            "LP optimality certificate failed: "
            f"primal {primal:.3g}, dual {dual:.3g}, gap {gap:.3g} (tolerance {_FEAS_TOL:g})"
        )
    return objective


def _solve_highs(c, a_ub, b_ub, bounds, a_eq=None, b_eq=None):
    """min c @ x s.t. a_ub x <= b_ub, a_eq x = b_eq, lower <= x <= upper.

    ``bounds`` is a (lower, upper) pair, each a scalar or an n-vector; lower
    bounds are finite, upper ones may be +inf. Returns (x, objective) after
    ``_certify``. Raises InfeasibleError when HiGHS proves the LP infeasible
    and RuntimeError on any other failure.
    """
    # deferred: scipy.optimize costs about 0.25 s to import, and only the LP
    # references need it
    from scipy.optimize import linprog

    n = len(c)
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), (n,)) for b in bounds)
    if a_eq is None:
        a_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lower, upper]), method="highs",
    )
    if res.status == 2:
        raise InfeasibleError(f"linear program infeasible: {res.message}")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed (status {res.status}): {res.message}")
    return res.x, _certify(c, a_ub, b_ub, a_eq, b_eq, lower, upper, res)


def exhaustive_min_abs(C, r_min: float, guard: int = 25):
    """Smallest feasible candidate subset by brute force.

    Enumerates subsets in increasing cardinality (lexicographic inside each
    size) and returns the first that covers, as (size, witness tuple),
    by the exact coverage rule of ``covers``. Guarded to G <= ``guard``
    columns; a wider matrix raises GuardError before coverability is checked.
    """
    _check_target(r_min)
    rule = _coverage_rule(C, r_min)
    values = rule.values
    g = values.shape[1]
    if g > guard:
        raise GuardError(f"exhaustive search guarded to {guard} columns, got {g}")
    _check_rows_coverable(rule, r_min)
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
    problem. As in ``admm_solve``, rates are solved for in units of r_min.
    """
    values = _check_rows_coverable(C, r_min).values
    m, g = values.shape
    w = np.ones(g) if w is None else np.asarray(w, dtype=float)
    n_r = m * g  # r variables first (row-major), then the G slacks
    c = np.concatenate([np.zeros(n_r), w])
    k = np.arange(n_r)
    # row i: sum_j r[i, j] = 1, the target rate in units of r_min
    a_eq = sparse.csr_array((np.ones(n_r), (k // g, k)), shape=(m, n_r + g))
    # row k = i * g + j: r[i, j] - s[j] <= 0
    a_ub = sparse.csr_array(
        (np.repeat([1.0, -1.0], n_r), (np.tile(k, 2), np.concatenate([k, n_r + k % g]))),
        shape=(n_r, n_r + g),
    )
    upper = np.concatenate([values.ravel() / r_min, np.full(g, np.inf)])
    x, objective = _solve_highs(c, a_ub, np.zeros(n_r), (0.0, upper), a_eq, np.ones(m))
    x = x * r_min
    return objective * r_min, x[:n_r].reshape(m, g), x[n_r:]


def solve_alpha_lp(C, r_min: float):
    """Column-activation LP relaxation, clipped at the target, then rounded.

    Solves min sum(alpha) over alpha in [0, 1]^G with min(C, r_min) alpha >=
    r_min once, and rounds alpha greedily from the empty set. Returns
    (alpha, selected tuple). The clipping is coefficient tightening
    (Nemhauser & Wolsey 1988): for 0/1 alpha it holds iff C alpha >= r_min
    does, but a fractional alpha can no longer cover a user with a small
    share of one strong column. The constraints are divided by r_min: on
    raw rates (capacities of millions of b/s) HiGHS can stop at a
    suboptimal vertex, which the certificate's sign check then rejects.
    """
    values = _check_rows_coverable(C, r_min).values
    m, g = values.shape
    a_ub = -np.minimum(values / r_min, 1.0)
    alpha, _ = _solve_highs(np.ones(g), a_ub, -np.ones(m), (0.0, 1.0))
    return alpha, tuple(greedy_cover_from_scores(values, r_min, alpha, ()))
