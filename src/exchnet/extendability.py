"""Marginalization operators and extendability feasibility checks.

An exchangeable distribution on n nodes extends to m > n nodes iff some
class distribution on m nodes reproduces all of its class moments.  That is
a linear feasibility problem over the m-node class simplex, decided exactly
when the input moments are rational (a float simplex whose final basis is
proved optimal in rational arithmetic; see ``lp``).  The dissociated
variant adds product constraints on the extension and is handled by
restarted constrained optimization (no longer a linear program); its
negative verdicts are best-effort, positive certificates are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .counting import class_table, sub_in_complete
from .estimation import (
    ClassDistribution,
    _dissociated_constraints,
    _moment_matrix,
)
from .graphs import (
    LabeledNetwork,
    SizeCapError,
    enumerate_classes,
    num_dyads,
)
from .lp import solve_feasibility
from .mobius import InvalidParametersError, JointTable, MobiusVector
from .optimize import (
    LinearConstraint,
    dirichlet_starts,
    minimize_violation_batch,
)

MAX_EXTEND_NODES = 7


def marginalize_joint(jt: JointTable, keep) -> JointTable:
    """Distribution of the subnetwork induced by ``keep`` (relabeled 1..n')."""
    keep = sorted(keep)
    if not keep:
        raise ValueError("keep must be non-empty")
    n2 = len(keep)
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


def marginalize_mobius(mv: MobiusVector, n2: int) -> MobiusVector:
    """Moments restrict without change: drop classes needing more vertices."""
    return mv.restrict(n2)


class CertificateError(RuntimeError):
    """A feasibility certificate failed its independent re-check."""


@dataclass
class ExtendabilityReport:
    feasible: bool
    m: int
    certificate: ClassDistribution | None
    infeasibility_margin: object | None  # total violation when infeasible
    worst_constraint: str | None = None
    method: str = "lp"
    # infeasible LP verdicts: the Farkas multipliers, one per moment row (by
    # class key) and one for "normalization"; exact when the input is exact
    dual: dict | None = None

    def summary(self) -> str:
        if self.feasible:
            return f"feasible at m={self.m} ({self.method})"
        return (
            f"infeasible at m={self.m} ({self.method}), "
            f"margin {self.infeasibility_margin}, worst {self.worst_constraint}"
        )


@lru_cache(maxsize=64)
def _sigma_rows(m: int, n: int) -> tuple:
    """For each non-empty class U at n: the row of sigma_U over classes at m,
    scaled so that row . q = z_U for a class distribution q."""
    table = class_table(m)
    targets = [u for u in enumerate_classes(n, True) if not u.is_empty]
    rows = []
    for u in targets:
        denom = sub_in_complete(u, m)
        rows.append(tuple(Fraction(s, denom) for s in table.row(u)))
    return tuple(targets), table.classes, tuple(rows)


def _certificate_valid(
    mv: MobiusVector, cert: ClassDistribution, tol: float
) -> bool:
    targets, classes_m, rows = _sigma_rows(cert.n, mv.n)
    qv = [cert.value(w) for w in classes_m]
    for u, row in zip(targets, rows):
        got = sum(r * q for r, q in zip(row, qv) if q)
        want = mv.z[u]
        if isinstance(got, Fraction) and isinstance(want, (int, Fraction)):
            if got != want:
                return False
        elif abs(float(got) - float(want)) > tol:
            return False
    return True


def extendable_check(mv: MobiusVector, m: int) -> ExtendabilityReport:
    """Can mv arise as the margin of an exchangeable distribution on m nodes?

    Feasibility over the m-node class simplex: q >= 0, sums to one, and all
    class moments up to n match.  When mv is exact the verdict is exact: a
    feasible one carries a rational certificate, an infeasible one exact
    Farkas multipliers in ``dual`` (see ``lp``).
    """
    n = mv.n
    if not (n <= m <= MAX_EXTEND_NODES):
        raise SizeCapError(
            f"extendability supports n <= m <= {MAX_EXTEND_NODES}"
        )
    targets, classes_m, rows = _sigma_rows(m, n)
    exact = mv.is_exact
    a_rows = [list(row) for row in rows]
    b = [mv.z[u] for u in targets]
    a_rows.append([Fraction(1)] * len(classes_m))  # normalization
    b.append(Fraction(1) if exact else 1.0)
    if not exact:
        a_rows = [[float(v) for v in row] for row in a_rows]
        b = [float(v) for v in b]
    res = solve_feasibility(a_rows, b, exact=exact)
    if res.feasible:
        q = {w: v for w, v in zip(classes_m, res.x) if v}
        cert = ClassDistribution(m, q)
        if not _certificate_valid(mv, cert, 1e-9):
            raise CertificateError(
                f"extension certificate at m={m} does not reproduce the moments"
            )
        return ExtendabilityReport(True, m, cert, None)
    keys = [u.key() for u in targets] + ["normalization"]
    worst = None if res.worst_row is None else keys[res.worst_row]
    return ExtendabilityReport(
        False, m, None, res.residual, worst, dual=dict(zip(keys, res.dual))
    )


def dissociated_extendable_check(
    mv: MobiusVector,
    m: int,
    *,
    restarts: int = 8,
    seed: int = 7,
    tol: float = 1e-7,
) -> ExtendabilityReport:
    """Extendability with product constraints imposed on the extension.

    Tries the independent-ties candidate first (it certifies exactly when it
    fits); otherwise minimizes the total squared violation of the moment and
    product constraints over the m-node class simplex from several starts.
    A feasible verdict is backed by a validated certificate; an infeasible
    verdict is the best violation found, not a proof.
    """
    n = mv.n
    if not (n <= m <= MAX_EXTEND_NODES):
        raise SizeCapError(
            f"extendability supports n <= m <= {MAX_EXTEND_NODES}"
        )
    if restarts < 0:
        raise InvalidParametersError("restarts must be >= 0")
    from .counting import edge_class
    from .genmodels import er_class_distribution

    # shortcut: independent ties at the observed edge moment (at n = 1 there
    # is none and any dissociated law fits, the empty graph's included)
    p = mv.z.get(edge_class(), 0)
    if 0 <= p <= 1:
        cand = er_class_distribution(m, p)
        if _certificate_valid(mv, cand, 1e-12):
            return ExtendabilityReport(True, m, cand, None, method="er-candidate")

    classes_m, a_matrix = _moment_matrix(m)
    idx = {w: k for k, w in enumerate(classes_m)}
    targets = enumerate_classes(n, False)
    cons = [LinearConstraint(a_matrix[idx[u]], float(mv.z[u])) for u in targets]
    # product constraints for every disconnected class at m
    cons += _dissociated_constraints(m, classes_m, a_matrix)

    rng = np.random.default_rng(seed)
    dim = len(classes_m)
    starts = [np.full(dim, 1.0 / dim)]
    er_q = np.array([float(er_class_distribution(m, float(p)).value(w)) for w in classes_m]) if 0 <= p <= 1 else None
    if er_q is not None:
        starts.append(er_q)
    starts.extend(dirichlet_starts(rng, dim, restarts))
    runs = minimize_violation_batch(cons, np.array(starts))
    # what trying the starts in order would keep: the first below tol / 10,
    # else the first with the least violation
    close = [r for r in runs if r.max_violation < tol / 10]
    best = close[0] if close else min(runs, key=lambda r: r.max_violation)
    if best.max_violation <= tol:
        q = {w: float(best.q[idx[w]]) for w in classes_m}
        total = sum(q.values())
        q = {w: v / total for w, v in q.items() if v > 0}
        cert = ClassDistribution(m, q)
        if _certificate_valid(mv, cert, max(tol, 1e-7)):
            return ExtendabilityReport(
                True, m, cert, None, method="optimizer"
            )
    worst_i = int(np.argmax(np.abs(best.violations))) if cons else None
    worst = (
        targets[worst_i].key()
        if worst_i is not None and worst_i < len(targets)
        else "product-constraint"
    )
    return ExtendabilityReport(
        False, m, None, best.max_violation, worst, method="optimizer"
    )
