"""Phase-one simplex feasibility solver with exact verdicts for rational data.

Solves: does there exist x >= 0 with A x = b?  Phase one minimizes the sum
of one artificial variable per row with Bland's rule: the first improving
column enters, and among rows tied in the ratio test the one whose basic
variable has the smallest index leaves.  The rule cannot cycle.

Rational data (every coefficient an int or Fraction) get an exact verdict
while paying for rational arithmetic about once per LP, as in the float
simplex plus exact check of QSopt_ex (Applegate, Cook, Dash & Espinoza,
Oper. Res. Lett. 35, 2007).  One pass scales each row to integers by the
lcm of its own denominators (a ``_Row`` brings it), puts b over its common
denominator D and finds out whether the data are rational at all; steps
2 and 3 read it:

1. The pivots run in floats, on the caller's coefficients rounded as
   float(Fraction) rounds them (a ``_Row`` brings them).  Ratios within
   ``FLOAT_EPS`` of the smallest count as ties, broken by basic index as
   the exact rule breaks them, so the float pass takes the exact pass's
   pivots unless rounding flips a decision.  Pivot elements must exceed
   ``PIVOT_EPS``, so that rounding noise is not taken for one, and the pass
   stops if a basis (a bitmask of its columns, an exact key) comes back:
   exact Bland never revisits one, so the float pivots would be cycling.
   Only then the pass is rerun from the artificial basis by Dantzig's rule
   (most negative reduced cost), and by Bland's after any repeat.
2. The final basis B is checked in rationals.  The check asks for
   x_B = B^-1 b >= 0 and, with y = B^-T c_B for the phase-one costs c, a
   reduced cost c_j - y.A_j >= 0 for every column.  Both solves are
   fraction-free: Bareiss elimination of [B | D b] (of [B^T | c_B] for y;
   only b carries D, so B's minors are the rows' own) ends on +-det B,
   |det B| D x_B is integral by Cramer's rule, and back substitution
   computes it in integers with exact divisions.  The tests compare these
   integers; only the reported x_B, y and residual become Fractions.  Such
   a basis is optimal, so its sum of artificials is the exact residual:
   zero means feasible, and x is read off x_B; positive means infeasible,
   and y is a Farkas certificate (y.A_j <= 0 for every column j, y.b > 0).
3. If the check fails, exact Bland pivoting in Fractions continues from the
   float basis when that basis is nonsingular and primal feasible, and else,
   by the same code, from the artificial basis, which is both.

Float data read the verdict off the float pass, with ``FLOAT_EPS`` as
feasibility tolerance; a basis repeated by the retry too raises
``InvariantError``.

``maximize`` adds an objective, in floats only: phase one is the first
Bland pass above, with no retry, and phase two continues on its tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

import numpy as np

from .graphs import InvariantError, _exact_div
from .mobius import _over_lcm

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


def _initial_tableau(a_rows: Sequence, b: Sequence) -> tuple:
    """Float phase-one tableau on the artificial basis, with every row
    signed so that b >= 0; returns the tableau, the basis and the row signs.
    A ``_Row`` gives its floats; numpy rounds every other int or Fraction
    as float() does; an ndarray of rows is copied in one assignment.

    Columns: n structural, m artificial, then the right-hand side.  Rows:
    the m constraints, then the reduced costs of the phase-one objective
    (its last entry is minus the objective value).
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    signs = [-1 if bi < 0 else 1 for bi in b]
    tab = np.zeros((m + 1, n + m + 1))
    if isinstance(a_rows, np.ndarray):
        tab[:m, :n] = a_rows
    else:
        for i, row in enumerate(a_rows):
            tab[i, :n] = row.floats if isinstance(row, _Row) else row
    for i, (bi, s) in enumerate(zip(b, signs)):
        if s < 0:
            tab[i, :n] *= -1
        tab[i, n + i] = 1
        tab[i, n + m] = s * float(bi)
    for i in range(m):
        tab[m] -= tab[i]
    # artificials start basic at unit cost, so their reduced cost is 0
    tab[m, n : n + m] = 0
    return tab, [n + i for i in range(m)], signs


def _pivot(tab: np.ndarray, basis: list, leave: int, enter: int) -> None:
    """Column ``enter`` replaces the basic variable of row ``leave``."""
    pivot_row = tab[leave] / tab[leave, enter]
    if tab.dtype == object:  # multiply no Fraction by a zero factor
        factors = tab[:, enter].copy()
        factors[leave] = 0
        rows = np.flatnonzero(factors)
        tab[rows] -= np.outer(factors[rows], pivot_row)
    else:  # one temporary; row leave's own update is overwritten below
        tab -= np.multiply.outer(tab[:, enter], pivot_row)
    tab[leave] = pivot_row
    basis[leave] = enter


def _bland(tab: np.ndarray, basis: list, eps, pivot_eps, dantzig=False) -> tuple:
    """Bland pivots on ``tab`` (updated in place) until no reduced cost is
    below -eps, or until a basis comes back; a pivot element must exceed
    ``pivot_eps``.  Exact pivots never revisit a basis (the rule
    cannot cycle), so in floats a repeat means rounding has turned a
    decision and the pivots may cycle.  With ``dantzig`` the most negative
    reduced cost enters instead, and Bland's rule after the first repeat.
    Returns the number of pivots and whether they stopped at a repeat."""
    m = len(basis)
    width = tab.shape[1] - 1
    obj = tab[m]
    pivots = 0
    key = sum(1 << j for j in basis)  # the set of basic columns, exactly
    seen = {key}
    while width:  # a tableau with no columns is optimal as it stands
        if dantzig:
            enter = int(obj[:width].argmin())
            if not obj[enter] < -eps:
                break
        else:
            improving = obj[:width] < -eps
            enter = int(improving.argmax())
            if not improving[enter]:
                break
        # the ratio test in Python: a numpy call costs more than a short column
        col, rhs = tab[:m, enter].tolist(), tab[:m, width].tolist()
        ratios = [(rhs[i] / c, i) for i, c in enumerate(col) if c > pivot_eps]
        if not ratios:
            # entries in (0, pivot_eps] only, phase one being bounded below:
            # stop; the exact check or ``maximize`` catches a basis not optimal
            return pivots, False
        low = min(r for r, _ in ratios) + eps
        leave = min((basis[i], i) for r, i in ratios if r <= low)[1]
        key ^= 1 << basis[leave] | 1 << enter
        _pivot(tab, basis, leave, enter)
        pivots += 1
        if key in seen:
            if not dantzig:
                return pivots, True
            dantzig, seen = False, set()
        seen.add(key)
    return pivots, False


def _result(
    basis: list, xb: list, dual: list, n: int, residual, tol, pivots: int
) -> FeasibilityResult:
    """Verdict of an optimal phase-one basis with values xb, for the rows
    signed so that b >= 0, and the dual in the caller's rows."""
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
    return FeasibilityResult(feasible, x, residual, worst, pivots, dual)


def _tableau_result(
    tab: np.ndarray, basis: list, signs: list, pivots: int
) -> FeasibilityResult:
    """Verdict of an optimal phase-one tableau: exact on Fractions (object
    dtype), within ``FLOAT_EPS`` on floats."""
    m = len(basis)
    n = tab.shape[1] - 1 - m
    obj = tab[m]
    # reduced cost of artificial i is 1 - y_i for the signed rows' dual y
    dual = [s * (1 - v) for s, v in zip(signs, obj[n : n + m])]
    tol = Fraction(0) if tab.dtype == object else FLOAT_EPS
    return _result(basis, list(tab[:m, -1]), dual, n, -obj[-1], tol, pivots)


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

    Phase one is the first float Bland pass of ``solve_feasibility`` (same
    tableau, same pivots), not retried when it repeats a basis.  Phase two
    continues on its tableau: each basic artificial leaves for the
    structural column with the largest entry in its row (a row with none
    above ``PIVOT_EPS`` is redundant and is dropped), the artificial columns
    are dropped, and Bland pivots minimize -c.x.  Raises
    ``InvariantError`` when a float pass revisits a basis or phase two ends
    with an improving column (an unbounded LP, or one that rounding stalls).
    """
    tab, basis, _ = _initial_tableau(a_rows, b)
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


class _Row:
    """A rational row as integers over the lcm of its denominators, with its
    floats (int / int is correctly rounded as float(Fraction) is); indexed,
    it gives Fractions.  ``ClassTable.moment_rows`` builds moment rows in
    this format; ``_Row.of`` scales a row of ints and Fractions."""

    def __init__(self, ints: list, lcm: int, floats):
        self.ints, self.lcm, self.floats = ints, lcm, floats

    @classmethod
    def of(cls, row) -> "_Row":
        ints, den = _over_lcm(row)
        return cls(ints, den, [v / den for v in ints])

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, j: int) -> Fraction:
        return Fraction(self.ints[j], self.lcm)


@dataclass
class _Scaled:
    """Rational rows of A x = b (all ints or Fractions), row i times sign_i
    (making b_i >= 0) and scale_i (the lcm of its denominators, 1 for a row
    of ints), with b over its common denominator ``den``: a solve against
    ``rhs`` gives den x."""

    n: int  # structural columns
    rows: list  # integers
    rhs: list  # integers >= 0: sign_i * scale_i * den * b_i
    scales: list
    signs: list
    den: int

    @classmethod
    def of(cls, a_rows: Sequence, b: Sequence) -> "_Scaled | None":
        """None unless every coefficient is an int or a Fraction; a ``_Row``
        brings its own scaling."""
        rat = (int, Fraction)
        if not all(map(isinstance, b, repeat(rat))):
            return None
        nums, den = _over_lcm(b)
        system = cls(len(a_rows[0]) if len(a_rows) else 0, [], [], [], [], den)
        for row, bi, num in zip(a_rows, b, nums):
            if isinstance(row, _Row):
                ints, scale = row.ints, row.lcm
            elif all(map(isinstance, row, repeat(int))):
                ints, scale = list(row), 1
            elif all(map(isinstance, row, repeat(rat))):
                ints, scale = _over_lcm(row)
            else:
                return None
            sign = -1 if bi < 0 else 1
            system.rows.append(ints if sign > 0 else [-v for v in ints])
            system.rhs.append(sign * scale * num)
            system.scales.append(scale)
            system.signs.append(sign)
        return system


def _bareiss(mat: list) -> bool:
    """Fraction-free forward elimination of the leading square block of the
    integer matrix ``mat`` (rows may run longer), in place with row swaps.
    Every entry stays an integer (a minor of the input).  Returns False when
    the block is singular.  A row with a 0 in the pivot column is left alone,
    to be caught up from ``last[r]``, the pivot it was last brought to, by one
    exact division when it is next eliminated or becomes the pivot row."""
    k = len(mat)
    last, prev = [1] * k, 1
    for c in range(k):
        p = next((r for r in range(c, k) if mat[r][c]), None)
        if p is None:
            return False
        mat[c], mat[p] = mat[p], mat[c]
        last[c], last[p] = last[p], last[c]
        top = mat[c]
        if last[c] != prev:
            top[c:] = [a * prev // last[c] for a in top[c:]]
        piv = top[c]
        for r in range(c + 1, k):
            row = mat[r]
            f = row[c]
            if f:  # (piv * row - f * top) / prev on the row caught up to prev
                d, last[r] = last[r], piv
                row[c:] = [(piv * a - f * t) // d for a, t in zip(row[c:], top[c:])]
        prev = piv
    return True


def _integer_solve(mat: list) -> tuple | None:
    """(d, d X) with B X = C for the integer rows ``mat`` = [B | C], B the
    leading square block, and d = |det B| > 0; None when B is singular.
    ``mat`` is eliminated in place.  Fraction-free: Bareiss elimination ends
    on +-det B, d X is integral by Cramer's rule, and back substitution
    computes it in integers, each division exact."""
    k = len(mat)
    if not _bareiss(mat):
        return None
    d = abs(mat[-1][k - 1]) if k else 1
    dx: list = [None] * k
    for i in range(k - 1, -1, -1):
        row = mat[i]
        acc = [d * y for y in row[k:]]
        for j in range(i + 1, k):
            if row[j]:
                acc = [a - row[j] * x for a, x in zip(acc, dx[j])]
        dx[i] = [_exact_div(a, row[i], "back substitution") for a in acc]
    return d, dx


def _solve(mat: list) -> list | None:
    """``_integer_solve``'s X as rows of Fractions; None when B is singular."""
    sol = _integer_solve(mat)
    return sol and [[Fraction(v, sol[0]) for v in r] for r in sol[1]]


def _reduced_costs_nonnegative(system: _Scaled, ew: list, e: int) -> bool:
    """Every phase-one reduced cost c_j - w.(scaled column j) is >= 0, for
    the dual w = ew / e given by the integers ew and e > 0."""
    # artificial column i: cost 1, scaled column scale_i e_i
    if any(v * s > e for v, s in zip(ew, system.scales)):
        return False
    # structural column j: cost 0, so e w.A_j <= 0
    acc = [0] * system.n
    for row, v in zip(system.rows, ew):
        if v:
            acc = [a + v * x for a, x in zip(acc, row)]
    return all(a <= 0 for a in acc)


def _exact_from_basis(system: _Scaled, basis: list, pivots: int) -> FeasibilityResult:
    """Exact verdict on the rational system from a candidate basis: proved
    optimal in rationals, or else reached by exact Bland pivoting continued
    from it.  A singular basis, or one with a negative basic value, hands
    over to the artificial basis [n, n + k): nonsingular, and primal
    feasible since every row is signed so that b >= 0."""
    zero = Fraction(0)
    n, k = system.n, len(basis)
    # the basis matrix B, where artificial column n + i is scale_i e_i
    rows = [
        [a_i[j] if j < n else s_i * (j - n == i) for j in basis]
        for i, (a_i, s_i) in enumerate(zip(system.rows, system.scales))
    ]
    # d den x_B with d > 0, so x_B >= 0 is read off the integers
    sol = _integer_solve([r + [bi] for r, bi in zip(rows, system.rhs)])
    if sol is None or any(r[0] < 0 for r in sol[1]):
        return _exact_from_basis(system, [n + i for i in range(k)], pivots)
    d, dxb = sol
    # e w with w = B^-T c_B for the phase-one costs and e > 0, by elimination
    # on [B^T | c_B] (w = 0 when no artificial is basic)
    costs = [int(j >= n) for j in basis]
    e, ew = 1, [0] * k
    if any(costs):
        e, dw = _integer_solve([[*col, ci] for col, ci in zip(zip(*rows), costs)])
        ew = [r[0] for r in dw]
    if _reduced_costs_nonnegative(system, ew, e):
        dd = d * system.den
        xb = [Fraction(r[0], dd) for r in dxb]
        residual = Fraction(sum(r[0] for r, j in zip(dxb, basis) if j >= n), dd)
        signed = zip(system.signs, system.scales)
        dual = [Fraction(g * s * v, e) for (g, s), v in zip(signed, ew)]
        return _result(basis, xb, dual, n, residual, zero, pivots)
    # primal feasible but not optimal: continue from the tableau
    # B^-1 [A | S | b] of this basis, with its phase-one costs
    tab = np.empty((k + 1, n + k + 1), dtype=object)
    tab[:k] = _solve([
        r + a_i + [s_i * (t == i) for t in range(k)] + [bi]
        for i, (r, a_i, s_i, bi)
        in enumerate(zip(rows, system.rows, system.scales, system.rhs))
    ])
    tab[:k, -1] /= system.den
    obj = np.array([zero] * n + [Fraction(1)] * k + [zero], dtype=object)
    for i, j in enumerate(basis):
        if j >= n:
            obj = obj - tab[i]
    tab[k] = obj
    pivots += _bland(tab, basis, zero, zero)[0]
    return _tableau_result(tab, basis, system.signs, pivots)


def solve_feasibility(a_rows: Sequence, b: Sequence) -> FeasibilityResult:
    """Feasibility of {x >= 0 : A x = b}.

    The verdict is exact when every coefficient is an int or Fraction, and
    float otherwise.  An exact verdict comes from a float pass whose final
    basis is then proved optimal in rational arithmetic (see the module
    docstring); a float verdict comes from the float pass alone.  ``pivots``
    counts a rerun float pass too.
    """
    tab, basis, signs = _initial_tableau(a_rows, b)
    pivots, cycled = _bland(tab, basis, FLOAT_EPS, PIVOT_EPS)
    if cycled:  # retry from the artificial basis, by Dantzig's rule
        tab, basis, signs = _initial_tableau(a_rows, b)
        more, cycled = _bland(tab, basis, FLOAT_EPS, PIVOT_EPS, True)
        pivots += more
    system = _Scaled.of(a_rows, b)
    if system is not None:
        return _exact_from_basis(system, basis, pivots)
    if cycled:
        raise InvariantError(f"float pivots revisited a basis after {pivots}")
    return _tableau_result(tab, basis, signs, pivots)
