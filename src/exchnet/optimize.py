"""Projected-gradient and augmented-Lagrangian solvers over the simplex.

Nothing in the package calls this module any more: the dissociated MLE is a
branch and bound on LPs (``estimation.dissociated_mle``).  It stays while
the benchmark's tracer (``bench/tracer.py``) resolves its names.

Variables are per-class probabilities q (nonnegative, summing to one),
objectives are linear, and the constraints are polynomial (products of
linear moment maps).  Problems are tiny (tens to ~1000 variables) but many,
one per start, so one kernel (``_descend``) runs them all as the rows of one array: the
constraints are compiled once into one matrix (``_System``), every row keeps
its own state and stops on its own, and Armijo backtracking tries a block of
the next halvings t 2^-j of every row at once, taking the first that passes:
the trial points of halving one at a time, as powers of two scale exactly.
Steps are Barzilai-Borwein (spectral projected gradient, Birgin, Martinez and
Raydan 2000); the projection is the sort-based one of Duchi et al. (2008).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# trial steps per row per tick, and the most halvings one iteration tries
_BLOCK = 8
_HALVINGS = 40
# maximize_batch: a row's largest constraint violation at convergence, and
# the projected-gradient residual that ends an inner solve
_CTOL = 1e-11
_GTOL = 1e-12


def _project_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto {q >= 0, sum q = 1}."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    cond = u * np.arange(1, v.shape[1] + 1) > css - 1.0
    last = v.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(len(v)), last] - 1.0) / (last + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum q = 1}."""
    return _project_rows(np.asarray(v, dtype=float)[None])[0]


@dataclass
class ProductConstraint:
    """Equality g(q) = L(q) - prod_i M_i(q) = 0 with linear L and M_i.

    ``target_row`` and each row of ``factor_rows`` are coefficient vectors of
    the linear maps.
    """

    target_row: np.ndarray
    factor_rows: Sequence


@dataclass
class LinearConstraint:
    """Equality a @ q - b = 0."""

    row: np.ndarray
    rhs: float


class _System:
    """Constraints compiled to matrices: value k at q is
    T_k q - b_k - prod_i (F_i[k] q + pad_i[k]), where a constraint with fewer
    factors than there are slots pads the rest with the constant 1 and a
    linear one has the constant 0 in slot 0.  T and the F_i are stacked into
    one matrix: values and gradients at every row take one product each.
    """

    def __init__(self, constraints, dim: int):
        products = [c for c in constraints if isinstance(c, ProductConstraint)]
        slots = max([len(c.factor_rows) for c in products] + [1])
        self.size = k = len(constraints)
        self.depth = 1 + slots
        self.rows = np.zeros((self.depth, k, dim))
        self.offset = np.ones((self.depth, k))
        for i, c in enumerate(constraints):
            if isinstance(c, LinearConstraint):
                self.rows[0, i], self.offset[:2, i] = c.row, (-c.rhs, 0.0)
            else:
                self.rows[0, i], self.offset[0, i] = c.target_row, 0.0
                for s, row in enumerate(c.factor_rows, 1):
                    self.rows[s, i], self.offset[s, i] = row, 0.0
        self.rows = self.rows.reshape(self.depth * k, dim)
        # for each slot, the other slots
        self.others = [np.delete(np.arange(slots), s) for s in range(slots)]

    def values(self, q: np.ndarray) -> tuple:
        """Constraint values (... x constraints) and the factor values
        (... x slots x constraints) at points q (... x dim)."""
        p = (q @ self.rows.T).reshape(q.shape[:-1] + (self.depth, self.size))
        p += self.offset
        m = p[..., 1:, :]
        return p[..., 0, :] - np.multiply.reduce(m, axis=-2), m

    def grad(self, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        """sum_k w_k grad(value_k) at each point, given the factor values."""
        coef = np.empty(w.shape[:-1] + (self.depth, self.size))
        coef[..., 0, :] = w
        for s, others in enumerate(self.others, 1):
            rest = np.multiply.reduce(m[..., others, :], axis=-2)
            coef[..., s, :] = -w * rest
        return coef.reshape(w.shape[:-1] + (len(self.rows),)) @ self.rows


@dataclass
class AugLagResult:
    """One start's outcome: the point, its objective, the largest absolute
    constraint value and every constraint value, the KKT residual of the
    augmented Lagrangian (NaN for a violation fit) and the inner solves run."""

    q: np.ndarray
    objective: float
    max_violation: float
    kkt_residual: float
    outer_iters: int
    violations: np.ndarray


def _residual(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.abs(q - _project_rows(q - g)).max(axis=1)


def _descend(system, c, q0, *, rho, max_outer, iters, ctol, gtol, slack,
             f_stop) -> list:
    """Augmented Lagrangian over the simplex, one problem per row.

    Row r maximizes c[r] @ q subject to the system's equalities: inner solves
    minimize -c q + lam v(q) + rho/2 |v(q)|^2 by projected gradient with a
    BB step and Armijo backtracking (slack ``slack``) for at most ``iters``
    steps, stopping early when the projected-gradient residual is below
    ``gtol`` or the value below ``f_stop``; between them the multipliers are
    updated and the penalty grows tenfold when the violation did not fall
    below a quarter of the previous one.  A row is done after ``max_outer``
    inner solves or once its violation is below ``ctol`` and its KKT
    residual below 1e-9.

    Returns the final q, penalized value, multipliers, penalties and inner
    solve counts of every row.  The state arrays hold the running rows only
    (``live`` maps them to input rows); finished rows are copied out.
    """
    rows, dim = q0.shape
    q = _project_rows(q0.astype(float))
    c = np.array(c, dtype=float)
    lam = np.zeros((rows, system.size))
    rho = np.full(rows, float(rho))
    prev_viol = np.full(rows, np.inf)
    outer = np.ones(rows, dtype=int)
    out = [q.copy(), np.zeros(rows), lam.copy(), rho.copy(), outer.copy()]
    live = np.arange(rows)

    def penalized(x, c, lam, rho):
        v, m = system.values(x)
        f = ((lam + 0.5 * rho[..., None] * v) * v).sum(-1) - (c * x).sum(-1)
        return f, v, m

    def gradient(c, lam, rho, v, m):
        return system.grad(lam + rho[..., None] * v, m) - c

    f, v, m = penalized(q, c, lam, rho)
    g = gradient(c, lam, rho, v, m)
    step = np.ones(rows)
    halved = np.zeros(rows, dtype=int)
    it = np.zeros(rows, dtype=int)
    scale = 0.5 ** np.arange(_HALVINGS + _BLOCK)
    block = np.arange(_BLOCK)
    while live.size:
        j = halved[:, None] + block
        t = step[:, None] * scale[j]
        trial = _project_rows(
            (q[:, None, :] - t[:, :, None] * g[:, None, :]).reshape(-1, dim)
        ).reshape(len(live), _BLOCK, dim)
        ft, vt, mt = penalized(trial, c[:, None], lam[:, None], rho[:, None])
        decrease = (g[:, None, :] * (q[:, None, :] - trial)).sum(-1)
        ok = (j < _HALVINGS) & (ft <= f[:, None] - 1e-4 * decrease + slack)
        hit = np.flatnonzero(ok.any(axis=1))
        first = ok[hit].argmax(axis=1)

        halved += _BLOCK
        halved[hit] = 0
        q_new = trial[hit, first]
        dq = q_new - q[hit]
        q[hit] = q_new
        f[hit] = ft[hit, first]
        g_new = gradient(c[hit], lam[hit], rho[hit], vt[hit, first],
                         mt[hit, first])
        dg = g_new - g[hit]
        g[hit] = g_new
        it[hit] += 1
        denom = (dq * dg).sum(axis=1)
        big = denom > 1e-18
        bb = (dq * dq).sum(axis=1) / np.where(big, denom, 1.0)
        step[hit] = np.where(big, np.minimum(np.maximum(bb, 1e-10), 1e6), 1.0)
        ended = halved >= _HALVINGS
        ended[hit] = ((it[hit] >= iters) | (f[hit] < f_stop)
                      | (_residual(q[hit], g_new) < gtol))
        if not ended.any():
            continue

        # outer step of every row whose inner solve ended
        e = np.flatnonzero(ended)
        v, _ = system.values(q[e])
        viol = np.abs(v).max(axis=1, initial=0.0)
        converged = (viol < ctol) & (_residual(q[e], g[e]) < 1e-9)
        u, v, viol = e[~converged], v[~converged], viol[~converged]
        lam[u] += rho[u, None] * v
        grow = viol > 0.25 * prev_viol[u]
        rho[u[grow]] = np.minimum(rho[u[grow]] * 10.0, 1e12)
        prev_viol[u] = viol
        done = np.zeros(len(live), dtype=bool)
        done[e[converged]] = True
        done[u[outer[u] >= max_outer]] = True
        again = u[outer[u] < max_outer]
        outer[again] += 1
        f[again], v, m = penalized(q[again], c[again], lam[again], rho[again])
        g[again] = gradient(c[again], lam[again], rho[again], v, m)
        step[again], halved[again], it[again] = 1.0, 0, 0
        if done.any():
            for final, x in zip(out, (q, f, lam, rho, outer)):
                final[live[done]] = x[done]
            state = (live, q, g, f, c, lam, rho, prev_viol, outer, step,
                     halved, it)
            (live, q, g, f, c, lam, rho, prev_viol, outer, step, halved,
             it) = (x[~done] for x in state)
    return out


def maximize_batch(c: np.ndarray, constraints, q0: np.ndarray) -> list:
    """Maximize c[r] @ q over the simplex subject to the equality constraints
    from start q0[r], for every row r: inner projected-gradient solves,
    multiplier updates, penalty growth when the violation stalls."""
    q0 = np.asarray(q0, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), q0.shape)
    system = _System(list(constraints), q0.shape[1])
    q, _, lam, rho, outer = _descend(
        system, c, q0, rho=10.0, max_outer=40, iters=3000,
        ctol=_CTOL, gtol=_GTOL, slack=1e-16, f_stop=-np.inf,
    )
    v, m = system.values(q)
    kkt = _residual(q, system.grad(lam + rho[:, None] * v, m) - c)
    viol = np.abs(v).max(axis=1, initial=0.0)
    obj = (c * q).sum(axis=1)
    return [
        AugLagResult(q[r], obj[r], viol[r], kkt[r], int(outer[r]), v[r])
        for r in range(len(q))
    ]


def maximize_on_simplex(
    c_lin: np.ndarray, constraints, q0: np.ndarray
) -> AugLagResult:
    """``maximize_batch`` from the one start q0."""
    return maximize_batch(c_lin, constraints, np.asarray(q0)[None])[0]


def minimize_violation_on_simplex(
    constraints, q0: np.ndarray, *, iters: int = 4000
) -> AugLagResult:
    """Minimize the sum of squared constraint violations over the simplex
    from the start q0; the objective is minus half of it."""
    q0 = np.asarray(q0, dtype=float)[None]
    system = _System(list(constraints), q0.shape[1])
    q, f, *_ = _descend(
        system, np.zeros_like(q0), q0, rho=1.0, max_outer=1, iters=iters,
        ctol=0.0, gtol=0.0, slack=1e-18, f_stop=1e-26,
    )
    v, _ = system.values(q)
    viol = np.abs(v).max(axis=1, initial=0.0)
    return AugLagResult(q[0], -f[0], viol[0], float("nan"), 0, v[0])


def dirichlet_starts(
    rng: np.random.Generator, dim: int, count: int
) -> list:
    return [rng.dirichlet(np.ones(dim)) for _ in range(count)]
