"""Phase-one simplex feasibility solver with exact verdicts for rational data.

Solves: does there exist x >= 0 with A x = b?  Phase one minimizes the sum
of one artificial variable per row with Bland's rule: the first improving
column enters, and among rows tied in the ratio test the one whose basic
variable has the smallest index leaves.  The rule cannot cycle.

Rational data (every coefficient an int or Fraction) get an exact verdict
while paying for rational arithmetic about once per LP, as in the float
simplex plus exact check of QSopt_ex (Applegate, Cook, Dash & Espinoza,
Oper. Res. Lett. 35, 2007):

1. The pivots run in floats.  Ratios within ``FLOAT_EPS`` of the smallest
   count as ties, broken by basic index as the exact rule breaks them, so
   the float pass takes the exact pass's pivots unless rounding flips a
   decision.  Pivot elements must exceed ``PIVOT_EPS``, so that rounding
   noise is not taken for one, and the pass stops if a basis comes back
   (exact Bland never revisits one, so the float pivots would be cycling).
2. The final basis B is checked in rationals.  The rows are scaled to
   integers and B is factored once by fraction-free (Bareiss) elimination.
   The check asks for x_B = B^-1 b >= 0 and, with y = B^-T c_B for the
   phase-one costs c, a reduced cost c_j - y.A_j >= 0 for every column.
   Such a basis is optimal, so its sum of artificials is the exact
   residual: zero means feasible, and x is read off x_B; positive means
   infeasible, and y is a Farkas certificate (y.A_j <= 0 for every column
   j, y.b > 0).
3. If the check fails, exact Bland pivoting in Fractions continues from the
   float basis when that basis is nonsingular and primal feasible, and from
   the artificial basis otherwise.

Float data take the float pass alone, with ``FLOAT_EPS`` as feasibility
tolerance; a repeated basis there raises ``InvariantError``.

``maximize`` adds an objective, in floats only: phase one is the float pass
above, and phase two continues on its tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .graphs import InvariantError

FLOAT_EPS = 1e-9
# smallest pivot element in floats: with FLOAT_EPS alone, float pivots were
# seen to take rounding noise of ~1e-9 as pivots (where the exact ones were
# >= 1e-4), then to cycle or to end on a basis that was not optimal
PIVOT_EPS = 1e-7
# reduced-cost and ratio-tie tolerance of phase two: with FLOAT_EPS, a ratio
# tie let a basic variable go negative by ~1e-9, and the optimum overshot
# the true one by as much (the dissociated fit of K4 - e at t near 4/5)
PHASE_TWO_EPS = 1e-12


@dataclass
class FeasibilityResult:
    feasible: bool
    x: list | None  # a basic feasible solution when feasible
    residual: object  # minimized total constraint violation
    worst_row: int | None  # row with the largest remaining violation
    pivots: int  # float pivots plus exact pivots
    # phase-one optimal dual, one entry per row of A; on an infeasible exact
    # verdict a Farkas certificate: y.A_j <= 0 for every column, y.b > 0
    dual: list


def _float_of_rational(v) -> float:
    """float(v) for an int or Fraction, correctly rounded as float(v) is, at
    about half its cost (Fraction.__float__ calls int() on both parts)."""
    return v.numerator / v.denominator


def _initial_tableau(a_rows: Sequence, b: Sequence, num) -> tuple:
    """Phase-one tableau on the artificial basis, with every coefficient
    converted by ``num`` (``Fraction``, ``float`` or ``_float_of_rational``)
    and every row signed so that b >= 0; returns the tableau, the basis and
    the row signs.

    Columns: n structural, m artificial, then the right-hand side.  Rows:
    the m constraints, then the reduced costs of the phase-one objective
    (its last entry is minus the objective value).
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    zero = num(0)
    signs = [-1 if bi < 0 else 1 for bi in b]
    dtype = object if num is Fraction else float
    tab = np.full((m + 1, n + m + 1), zero, dtype=dtype)
    for i, (row, bi, s) in enumerate(zip(a_rows, b, signs)):
        tab[i, :n] = list(map(num, row))
        if s < 0:
            tab[i, :n] *= -1
        tab[i, n + i] = 1 + zero
        tab[i, n + m] = s * num(bi)
    for i in range(m):
        tab[m] -= tab[i]
    # artificials start basic at unit cost, so their reduced cost is 0
    tab[m, n : n + m] = zero
    return tab, [n + i for i in range(m)], signs


def _pivot(tab: np.ndarray, basis: list, leave: int, enter: int) -> None:
    """Column ``enter`` replaces the basic variable of row ``leave``."""
    pivot_row = tab[leave] / tab[leave, enter]
    factors = tab[:, enter].copy()
    factors[leave] = 0
    rows = np.flatnonzero(factors)
    tab[rows] -= np.outer(factors[rows], pivot_row)
    tab[leave] = pivot_row
    basis[leave] = enter


def _bland(tab: np.ndarray, basis: list, eps, pivot_eps) -> tuple:
    """Bland pivots on ``tab`` (updated in place) until no reduced cost is
    below -eps, or until a basis comes back; a pivot element must exceed
    ``pivot_eps``.  Exact pivots never revisit a basis (the rule
    cannot cycle), so in floats a repeat means rounding has turned a
    decision and the pivots may cycle.  Returns the number of pivots and
    whether they stopped at a repeat."""
    m = len(basis)
    width = tab.shape[1] - 1
    obj = tab[m]
    pivots = 0
    seen = {hash(tuple(sorted(basis)))}
    while True:
        improving = np.flatnonzero(obj[:width] < -eps)
        if not improving.size:
            return pivots, False
        enter = int(improving[0])
        col = tab[:m, enter]
        cand = np.flatnonzero(col > pivot_eps)
        if not cand.size:
            # phase one is bounded below by 0, so the column has entries in
            # (0, pivot_eps] only: stop (the exact check of rational data
            # catches a basis that is not optimal, and ``maximize`` one of
            # phase two)
            return pivots, False
        ratios = tab[cand, width] / col[cand]
        tied = cand[ratios <= ratios.min() + eps]
        leave = min((int(i) for i in tied), key=basis.__getitem__)
        _pivot(tab, basis, leave, enter)
        pivots += 1
        key = hash(tuple(sorted(basis)))
        if key in seen:
            return pivots, True
        seen.add(key)


def _result(
    basis: list, xb: list, y: list, signs: list, n: int, residual, tol, pivots: int
) -> FeasibilityResult:
    """Verdict of an optimal phase-one basis with values xb and dual y, both
    for the rows signed so that b >= 0; ``signs`` turns y back to the
    caller's rows."""
    zero = 0 * residual
    feasible = residual <= tol
    x = None
    worst = None
    if feasible:
        x = [zero] * n
        for j, v in zip(basis, xb):
            if j < n:
                x[j] = v
    else:
        worst_val = zero
        for j, v in zip(basis, xb):
            if j >= n and v > worst_val:
                worst_val = v
                worst = j - n
    dual = [s * v for s, v in zip(signs, y)]
    return FeasibilityResult(feasible, x, residual, worst, pivots, dual)


def _tableau_result(
    tab: np.ndarray, basis: list, signs: list, exact: bool, pivots: int
) -> FeasibilityResult:
    m = len(basis)
    n = tab.shape[1] - 1 - m
    obj = tab[m]
    y = [1 - v for v in obj[n : n + m]]  # reduced cost of artificial i is 1 - y_i
    return _result(
        basis, list(tab[:m, -1]), y, signs, n, -obj[-1],
        Fraction(0) if exact else FLOAT_EPS, pivots,
    )


def _phase_one(a_rows: list, b: list, exact: bool) -> FeasibilityResult:
    """Bland phase one from the artificial basis, all in Fractions (exact)
    or all in floats."""
    num = Fraction if exact else float
    tab, basis, signs = _initial_tableau(a_rows, b, num)
    eps, pivot_eps = (0, 0) if exact else (FLOAT_EPS, PIVOT_EPS)
    pivots, cycled = _bland(tab, basis, eps, pivot_eps)
    if cycled:
        raise InvariantError(f"float pivots revisited a basis after {pivots}")
    return _tableau_result(tab, basis, signs, exact, pivots)


@dataclass
class Optimum:
    """An optimal basic solution of a float LP."""

    x: np.ndarray
    value: float
    # reduced cost of each column, >= 0 up to rounding: the objective falls
    # by reduced[j] per unit of x_j, so the optimal face is where every x_j
    # with a positive reduced cost is 0
    reduced: np.ndarray
    pivots: int  # phase one and phase two


def maximize(a_rows: Sequence, b: Sequence, c: Sequence) -> Optimum | None:
    """Maximize c.x over {x >= 0 : A x = b} in floats; None when infeasible.

    Phase one is the float pass of ``solve_feasibility`` (same tableau, same
    pivots).  Phase two continues on its tableau: each basic artificial
    leaves for the structural column with the largest entry in its row (a
    row with none above ``PIVOT_EPS`` is redundant and is dropped), the
    artificial columns are dropped, and Bland pivots minimize -c.x.  Raises
    ``InvariantError`` when a float pass revisits a basis or phase two ends
    with an improving column (an unbounded LP, or one that rounding stalls).
    """
    tab, basis, _ = _initial_tableau(a_rows, b, float)
    m = len(basis)
    n = tab.shape[1] - 1 - m
    pivots, cycled = _bland(tab, basis, FLOAT_EPS, PIVOT_EPS)
    if cycled:
        raise InvariantError(f"float pivots revisited a basis after {pivots}")
    if -tab[m, -1] > FLOAT_EPS:
        return None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            row = np.abs(tab[i, :n])
            enter = int(np.argmax(row))
            if row[enter] <= PIVOT_EPS:
                continue
            _pivot(tab, basis, i, enter)
            pivots += 1
        keep.append(i)
    tab = tab[keep + [m]][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep]
    obj = tab[-1]
    obj[:] = 0.0
    obj[:n] = np.negative(c, dtype=float)
    for i, j in enumerate(basis):
        obj -= obj[j] * tab[i]
    more, cycled = _bland(tab, basis, PHASE_TWO_EPS, PIVOT_EPS)
    pivots += more
    if cycled or (obj[:n] < -PHASE_TWO_EPS).any():
        raise InvariantError(f"phase two did not end optimal after {pivots}")
    x = np.zeros(n)
    x[basis] = tab[:-1, -1]
    return Optimum(x, float(obj[-1]), obj[:n].copy(), pivots)


@dataclass
class _Scaled:
    """Rational rows of A x = b (every coefficient an int or Fraction), row i
    times sign_i * scale_i: the sign makes b_i >= 0 and the positive scale
    clears every denominator in the row."""

    n: int  # structural columns
    rows: list  # integers
    rhs: list  # integers >= 0
    scales: list
    signs: list

    @classmethod
    def of(cls, a_rows: Sequence, b: Sequence) -> "_Scaled":
        n = len(a_rows[0]) if len(a_rows) else 0
        rows, rhs, scales, signs = [], [], [], []
        for row, bi in zip(a_rows, b):
            scale = lcm(bi.denominator, *(v.denominator for v in row))
            sign = -1 if bi < 0 else 1
            k = sign * scale
            rows.append([v.numerator * (k // v.denominator) for v in row])
            rhs.append(bi.numerator * (k // bi.denominator))
            scales.append(scale)
            signs.append(sign)
        return cls(n, rows, rhs, scales, signs)


def _bareiss(mat: list) -> bool:
    """Fraction-free forward elimination of the leading square block of the
    integer matrix ``mat`` (rows may run longer), in place with row swaps.
    Every entry stays an integer (a minor of the input).  Returns False when
    the block is singular."""
    k = len(mat)
    prev = 1
    for c in range(k):
        p = next((r for r in range(c, k) if mat[r][c]), None)
        if p is None:
            return False
        mat[c], mat[p] = mat[p], mat[c]
        top = mat[c]
        piv = top[c]
        for r in range(c + 1, k):
            row = mat[r]
            f = row[c]
            mat[r] = row[:c] + [
                (piv * a - f * t) // prev for a, t in zip(row[c:], top[c:])
            ]
        prev = piv
    return True


@dataclass
class _Factored:
    """A basis B of the scaled rows, factored as U = E B with U upper
    triangular and E the integer record of the elimination's row work."""

    u: list
    e: list
    eb: list  # E times the scaled right-hand side

    @classmethod
    def of(cls, system: _Scaled, basis: list) -> "_Factored | None":
        """None when the basis matrix is singular."""
        k, n = len(basis), system.n
        mat = []
        for i in range(k):
            a_i, s_i = system.rows[i], system.scales[i]
            # artificial column n + i is s_i e_i in the scaled rows
            row = [a_i[j] if j < n else s_i * (j - n == i) for j in basis]
            unit = [0] * k
            unit[i] = 1
            mat.append(row + [system.rhs[i]] + unit)
        if not _bareiss(mat):
            return None
        return cls(
            [r[:k] for r in mat], [r[k + 1 :] for r in mat], [r[k] for r in mat]
        )

    def solve(self, col: list) -> list:
        """B^-1 c for ``col`` = E c: back substitution in U."""
        k = len(self.u)
        x = [Fraction(0)] * k
        for i in range(k - 1, -1, -1):
            row = self.u[i]
            acc = col[i] - sum(row[j] * x[j] for j in range(i + 1, k))
            x[i] = Fraction(acc) / row[i]
        return x

    def solve_transposed(self, c: list) -> list:
        """w with B^T w = c: forward substitution in U^T, then w = E^T v."""
        k = len(self.u)
        v = [Fraction(0)] * k
        for j in range(k):
            acc = c[j] - sum(self.u[i][j] * v[i] for i in range(j))
            v[j] = Fraction(acc) / self.u[j][j]
        return [
            sum((self.e[i][j] * v[i] for i in range(k) if v[i]), Fraction(0))
            for j in range(k)
        ]

    def tableau(self, system: _Scaled, basis: list) -> np.ndarray:
        """Exact phase-one tableau of this basis: B^-1 [A | I | b] and the
        reduced costs c - c_B B^-1 [A | I | b]."""
        k, n = len(basis), system.n
        scaled = np.zeros((k, n + k + 1), dtype=object)
        for i in range(k):
            scaled[i, :n] = system.rows[i]
            scaled[i, n + i] = system.scales[i]
            scaled[i, n + k] = system.rhs[i]
        inv = np.array([self.solve(list(c)) for c in zip(*self.e)], dtype=object).T
        tab = np.empty((k + 1, n + k + 1), dtype=object)
        tab[:k] = inv @ scaled
        obj = np.array([0] * n + [1] * k + [0], dtype=object)
        for i, j in enumerate(basis):
            if j >= n:
                obj = obj - tab[i]
        tab[k] = [Fraction(v) for v in obj]
        return tab


def _reduced_costs_nonnegative(system: _Scaled, w: list) -> bool:
    """Every phase-one reduced cost c_j - w.(scaled column j) is >= 0."""
    # artificial column i: cost 1, scaled column scale_i e_i
    if any(wi * s > 1 for wi, s in zip(w, system.scales)):
        return False
    # structural column j: cost 0; compare w.A_j <= 0 over a common denominator
    den = lcm(*(v.denominator for v in w))
    acc = [0] * system.n
    for row, wi in zip(system.rows, w):
        if wi:
            k = wi.numerator * (den // wi.denominator)
            acc = [a + k * v for a, v in zip(acc, row)]
    return all(a <= 0 for a in acc)


def _exact_from_basis(
    a_rows: Sequence, b: Sequence, basis: list, pivots: int
) -> FeasibilityResult:
    """Exact verdict on rational A x = b from a candidate basis: proved
    optimal in rationals, or else reached by exact Bland pivoting continued
    from it."""
    zero = Fraction(0)
    system = _Scaled.of(a_rows, b)
    n = system.n
    fac = _Factored.of(system, basis)
    xb = fac.solve(fac.eb) if fac else None
    if xb is not None and all(v >= 0 for v in xb):
        w = fac.solve_transposed([int(j >= n) for j in basis])
        if _reduced_costs_nonnegative(system, w):
            residual = sum((v for v, j in zip(xb, basis) if j >= n), zero)
            y = [wi * s for wi, s in zip(w, system.scales)]
            return _result(basis, xb, y, system.signs, n, residual, zero, pivots)
        # primal feasible but not optimal: continue from this basis
        tab = fac.tableau(system, basis)
    else:
        tab, basis, _ = _initial_tableau(a_rows, b, Fraction)
    pivots += _bland(tab, basis, zero, zero)[0]
    return _tableau_result(tab, basis, system.signs, True, pivots)


def solve_feasibility(a_rows: Sequence, b: Sequence) -> FeasibilityResult:
    """Feasibility of {x >= 0 : A x = b}.

    The verdict is exact when every coefficient is an int or Fraction, and
    float otherwise.  An exact verdict comes from a float pass whose final
    basis is then proved optimal in rational arithmetic (see the module
    docstring); a float verdict comes from the float pass alone.
    """
    exact = all(
        isinstance(v, (int, Fraction)) for row in a_rows for v in row
    ) and all(isinstance(v, (int, Fraction)) for v in b)
    if not exact:
        return _phase_one(a_rows, b, False)
    tab, basis, _ = _initial_tableau(a_rows, b, _float_of_rational)
    pivots, _ = _bland(tab, basis, FLOAT_EPS, PIVOT_EPS)
    return _exact_from_basis(a_rows, b, basis, pivots)
