"""Marginalization operators and extendability feasibility checks.

An exchangeable distribution on n nodes extends to m >= n nodes iff some
class distribution on m nodes reproduces all of its class moments.  That is
a linear feasibility problem over the m-node class simplex, decided exactly
when the input moments are rational (a float simplex whose final basis is
proved optimal in rational arithmetic; see ``lp``).

A dissociated extension also satisfies z_U = prod z_C over the components C
of every disconnected class U at m.  For n >= 3 and m <= 7 at most one
component of U has more than n vertices, so the input fixes every other
factor and the constraint is one more linear row of the same LP: dissociated
verdicts are LP verdicts too, exact for rational input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .counting import class_table, edge_class
from .genmodels import er_class_distribution
from .graphs import (
    MAX_NODES,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    disconnected_classes,
    enumerate_classes,
    num_dyads,
)
from .lp import _Row, solve_feasibility
from .mobius import (
    ClassDistribution,
    InvalidParametersError,
    JointTable,
    MobiusVector,
    _close,
    _moments,
)

# float input: the largest gap |z_U - prod z_C| a product constraint may show
PRODUCT_TOL = 1e-7


def marginalize_joint(jt: JointTable, keep) -> JointTable:
    """Distribution of the subnetwork induced by ``keep`` (relabeled 1..n');
    a label outside 1..n or a repeated one raises ``InvalidNetworkError``."""
    keep = sorted(keep)
    if not keep:
        raise ValueError("keep must be non-empty")
    n2 = LabeledNetwork.empty(jt.n).induced(keep).n  # refuses bad labels first
    acc: dict = {}
    for mask in range(len(jt.probs)):
        p = jt.probs[mask]
        if not p:
            continue
        sub = LabeledNetwork.from_mask(jt.n, mask).induced(keep).mask
        acc[sub] = acc.get(sub, 0) + p
    zero = Fraction(0) if jt.is_exact else 0.0
    probs = [acc.get(s, zero) for s in range(1 << num_dyads(n2))]
    return JointTable(n2, tuple(probs))


class CertificateError(RuntimeError):
    """A feasibility certificate failed its independent re-check."""


@dataclass
class ExtendabilityReport:
    feasible: bool
    m: int
    certificate: ClassDistribution | None
    infeasibility_margin: object | None  # total violation when infeasible
    worst_constraint: str | None = None
    method: str = "lp"  # or "er-candidate": the independent-ties shortcut
    # infeasible LP verdicts: the Farkas multipliers, one per moment row (by
    # class key), one for "normalization" and one per product row (by the key
    # of its class at m); exact when the input is exact
    dual: dict | None = None


def _check_sizes(n: int, m: int) -> None:
    if m < n:
        raise InvalidParametersError(
            f"an extension needs m >= n, got m={m} for n={n}"
        )
    if m > MAX_NODES:
        raise SizeCapError(f"extendability supports n <= m <= {MAX_NODES}")


@lru_cache(maxsize=64)
def _sigma_rows(m: int, n: int) -> tuple:
    """The non-empty classes U at n, the classes at m and the LP's rows as
    ``_Row``s: each U's moment row (``ClassTable.moment_rows``), then
    normalization, the empty class's row of ones."""
    table = class_table(m)
    targets = [u for u in enumerate_classes(n, True) if not u.is_empty]
    rows = map(_Row, *table.moment_rows(targets + [table.classes[0]]))
    return tuple(targets), table.classes, tuple(rows)


@lru_cache(maxsize=64)
def _product_terms(m: int, n: int) -> tuple:
    """For every disconnected class U at m on more than n vertices: U, its
    components on at most n vertices, and the ``_Row``s of U and of its one
    component on more than n (None if it has none), built in one pass."""
    terms = []
    for u, comps in disconnected_classes(m):
        if u.n_vertices <= n:
            continue
        big = [c for c in comps if c.n_vertices > n]
        if len(big) > 1:
            raise InvariantError(f"{u.key()} has {len(big)} components on over {n} vertices")
        small = tuple(c for c in comps if c.n_vertices <= n)
        terms.append((u, small, big[0] if big else None))
    need = list({c for u, _, big in terms for c in (u, big) if c})
    rows = dict(zip(need, map(_Row, *class_table(m).moment_rows(need))))
    return tuple((u, small, rows[u], rows.get(big)) for u, small, big in terms)


def _product_row(row_u: _Row, row_big: _Row, c, exact: bool):
    """The row of z_U - c z_B = 0, B the large component: for exact c a
    ``_Row`` in integers over c's denominator, reduced by one gcd (as
    ``_Row.of`` reduces the Fractions a - c b), else the floats a - c b."""
    if not exact:
        return row_u.floats - c * row_big.floats
    den = lcm(row_u.lcm, c.denominator * row_big.lcm)
    fu, fb = den // row_u.lcm, c.numerator * den // (c.denominator * row_big.lcm)
    ints = [a * fu - b * fb for a, b in zip(row_u.ints, row_big.ints)]
    g = gcd(den, *ints)
    ints, den = [v // g for v in ints], den // g
    return _Row(ints, den, [v / den for v in ints])


def _certificate_valid(
    mv: MobiusVector, cert: ClassDistribution, tol: float
) -> bool:
    """Whether the class distribution ``cert`` at m reproduces every class
    moment of mv, z_U = sum_W S[U][W] q_W / |U| over q's support, read from
    the rows of S alone (``mobius._moments``): exactly when both are exact,
    else within ``tol``."""
    targets = enumerate_classes(mv.n, False)
    z = _moments(cert, targets)
    return all(_close(z[u], mv.z[u], tol) for u in targets)


def _product_gap(z, terms) -> tuple:
    """The largest |z[U] - prod z[C]| over the (U, components C of U) in
    ``terms``, and that U; (0, None) when there are none."""
    gaps = [(abs(z[u] - prod(z[c] for c in comps)), u) for u, comps in terms]
    return max(gaps, key=lambda g: g[0], default=(0, None))


def _lp_report(
    mv: MobiusVector, m: int, products: list | None = None, tol: float = 0.0
) -> ExtendabilityReport:
    """The phase-one LP over the m-node class simplex: the moment rows of mv,
    normalization and, for a dissociated check, the product rows given as
    (key, row, rhs).  A feasible certificate must reproduce the moments
    (within 1e-9 for float input) and, for a dissociated check, satisfy
    every product constraint at m (within ``tol`` for float input)."""
    targets, classes_m, rows = _sigma_rows(m, mv.n)
    keys = [u.key() for u in targets] + ["normalization"]
    a_rows = list(rows)
    # a float z of the empty class alone makes the LP a float one too
    b = [mv.z[u] for u in targets] + [Fraction(1) if mv.is_exact else 1.0]
    for key, row, rhs in products or ():
        keys.append(key)
        a_rows.append(row)
        b.append(rhs)
    res = solve_feasibility(a_rows, b)
    if not res.feasible:
        worst = None if res.worst_row is None else keys[res.worst_row]
        return ExtendabilityReport(
            False, m, None, res.residual, worst, dual=dict(zip(keys, res.dual))
        )
    cert = ClassDistribution(m, {w: v for w, v in zip(classes_m, res.x) if v})
    if not _certificate_valid(mv, cert, 1e-9):
        raise CertificateError(
            f"extension certificate at m={m} does not reproduce the moments"
        )
    if products is not None:
        terms = disconnected_classes(m)
        z = _moments(cert, [c for u, comps in terms for c in (u, *comps)])
        if _product_gap(z, terms)[0] > tol:
            raise CertificateError(f"extension certificate at m={m} is not dissociated")
    return ExtendabilityReport(True, m, cert, None)


def extendable_check(mv: MobiusVector, m: int) -> ExtendabilityReport:
    """Can mv arise as the margin of an exchangeable distribution on m nodes?

    Feasibility over the m-node class simplex: q >= 0, sums to one, and all
    class moments up to n match.  When mv is exact the verdict is exact: a
    feasible one carries a rational certificate, an infeasible one exact
    Farkas multipliers in ``dual`` (see ``lp``).  Raises
    ``InvalidParametersError`` for m < n and ``SizeCapError`` for m > 7.
    """
    _check_sizes(mv.n, m)
    return _lp_report(mv, m)


def dissociated_extendable_check(mv: MobiusVector, m: int) -> ExtendabilityReport:
    """Extendability with product constraints imposed on the extension.

    The independent-ties candidate at the observed edge moment is tried
    first (``method`` "er-candidate"); it certifies every extendable input
    with n <= 2.  Otherwise the product constraints among the input's own
    classes are checked directly (exactly for rational input, within
    ``PRODUCT_TOL`` for float input): a failure is an infeasible verdict
    whose margin is |z_U - prod z_C| for the worst class U.  The rest is the
    LP of ``extendable_check`` with one linear row per disconnected class at
    m on more than n vertices, so the verdict is exact for rational input,
    with a re-checked certificate or a Farkas ``dual`` whose product entries
    are keyed by the m-node class.
    """
    n = mv.n
    _check_sizes(n, m)
    # at n = 1 there is no edge moment and any dissociated law fits
    p = mv.z.get(edge_class(), 0)
    if 0 <= p <= 1:
        cand = er_class_distribution(m, p)
        if _certificate_valid(mv, cand, 1e-12):
            return ExtendabilityReport(True, m, cand, None, method="er-candidate")
    tol = 0 if mv.is_exact else PRODUCT_TOL
    margin, worst = _product_gap(mv.z, disconnected_classes(n))
    if margin > tol:
        return ExtendabilityReport(False, m, None, margin, worst.key())
    products = []
    # at n <= 2 the shortcut certifies whenever 0 <= z_edge <= 1, and the
    # moment rows alone are infeasible otherwise
    for u, small, row_u, row_big in _product_terms(m, n) if n > 2 else ():
        c = prod(mv.z[s] for s in small)
        if row_big is not None:  # z_U - c z_B = 0
            row_u, c = _product_row(row_u, row_big, c, mv.is_exact), 0
        products.append((u.key(), row_u, c))
    return _lp_report(mv, m, products, tol)
