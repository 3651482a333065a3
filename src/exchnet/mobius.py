"""Subset-occurrence parametrization of dyad-array distributions.

A distribution over networks on n nodes is equivalently described by the
joint table P(X = x) over all 2^(n(n-1)/2) configurations, or by the vector
z_B = P(B is a subgraph of X) over dyad subsets B.  The two are related by an
invertible pair of lattice transforms (superset sums and inclusion-exclusion).
Under exchangeability z depends on B only through its isomorphism class, which
collapses the parametrization to one value per unlabeled class.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .counting import class_table, sub_in_complete
from .graphs import (
    InvalidNetworkError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_size,
    enumerate_classes,
    mask_components,
    num_dyads,
    submasks,
)

# Work over the full labeled dyad lattice stops here: 2^15 masks at n = 6,
# 2^21 at n = 7.
MAX_LATTICE_NODES = 6

FLOAT_SUM_TOL = 1e-12
FLOAT_NEG_TOL = 1e-12


class InvalidParametersError(ValueError):
    """A parameter vector implies a negative configuration probability."""

    def __init__(self, message: str, config: int | None = None):
        super().__init__(message)
        self.config = config


def _check_lattice_size(n: int, what: str):
    if n < 0:
        raise InvalidNetworkError(f"{what} needs n >= 0, got {n}")
    if n > MAX_LATTICE_NODES:
        raise SizeCapError(
            f"{what} enumerates the full dyad lattice and supports "
            f"n <= {MAX_LATTICE_NODES}, got {n}"
        )


def _close(got, want, tol: float) -> bool:
    """Equality when both values are rational, else |got - want| <= tol."""
    if isinstance(got, (int, Fraction)) and isinstance(want, (int, Fraction)):
        return got == want
    return abs(float(got) - float(want)) <= tol


def _exact_or_float(values, one, label: str, tol=FLOAT_SUM_TOL, neg_tol=None):
    """The exact-or-float decision of a value container, made once.

    ``values`` is a tuple or a mapping.  When every value is an int or a
    Fraction it comes back unchanged with True; otherwise a copy holding the
    float of each value comes back with False, and a NaN or infinity is
    refused.  ``one(values)`` must be 1 (within ``tol`` for floats), and with
    ``neg_tol`` given no value may be negative (below -neg_tol for floats).
    """
    is_map = isinstance(values, Mapping)
    vals = values.values() if is_map else values
    exact = all(isinstance(v, (int, Fraction)) for v in vals)
    if not exact:
        vals = [float(v) for v in vals]
        bad = next((v for v in vals if not math.isfinite(v)), None)
        if bad is not None:
            raise InvalidParametersError(f"value {bad} is not finite")
        values = dict(zip(values, vals)) if is_map else tuple(vals)
    if neg_tol is not None and any(v < (0 if exact else -neg_tol) for v in vals):
        raise InvalidParametersError("negative probability")
    if not _close(one(values), 1, tol):
        raise ValueError(f"{label} is {one(values)}, not 1")
    return values, exact


@dataclass(frozen=True)
class JointTable:
    """Exact probability table over all labeled networks on n nodes.

    ``probs[mask]`` is P(X = network with that dyad bitmask).  Entries are
    Fractions (exact mode) or floats; mixed entries are stored as floats.
    """

    n: int
    probs: tuple
    mc_std_error: float | None = None
    is_exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_lattice_size(self.n, "JointTable")
        m = num_dyads(self.n)
        if len(self.probs) != 1 << m:
            raise ValueError(
                f"need {1 << m} entries for n={self.n}, got {len(self.probs)}"
            )
        probs, exact = _exact_or_float(
            self.probs, sum, "the total probability", neg_tol=FLOAT_NEG_TOL
        )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "is_exact", exact)


@dataclass(frozen=True)
class LabeledMobius:
    """Subset-occurrence probabilities z_B = P(B subgraph of X), indexed by
    dyad bitmask; z of the empty mask is 1."""

    n: int
    z: tuple
    is_exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_lattice_size(self.n, "LabeledMobius")
        m = num_dyads(self.n)
        if len(self.z) != 1 << m:
            raise ValueError(
                f"need {1 << m} entries for n={self.n}, got {len(self.z)}"
            )
        z, exact = _exact_or_float(
            self.z, operator.itemgetter(0), "z of the empty dyad set"
        )
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "is_exact", exact)


def _superset_transform(values: tuple, m: int, op) -> list:
    """out[S] = in[S] combined by ``op`` with every superset T of S:
    ``operator.add`` sums over the supersets, ``operator.sub`` inverts it."""
    f = list(values)
    for b in range(m):
        bit = 1 << b
        for s in range(1 << m):
            if not s & bit:
                f[s] = op(f[s], f[s | bit])
    return f


def _refuse_negative(p, config: int, message):
    """Return the probability ``p``; raise with ``message()`` when it is
    negative (exactly for rationals, beyond ``FLOAT_NEG_TOL`` for floats)."""
    if (p < 0) if isinstance(p, (Fraction, int)) else (p < -FLOAT_NEG_TOL):
        raise InvalidParametersError(message(), config=config)
    return p


def labeled_mobius_from_joint(jt: JointTable) -> LabeledMobius:
    """z_B = P(B subgraph of X) = sum of P over supersets of B."""
    m = num_dyads(jt.n)
    z = _superset_transform(jt.probs, m, operator.add)
    # the empty-set entry is the total mass; snap float rounding to exactly 1
    if not jt.is_exact and abs(z[0] - 1.0) <= FLOAT_SUM_TOL:
        z[0] = 1.0
    return LabeledMobius(jt.n, tuple(z))


def joint_from_labeled_mobius(lm: LabeledMobius) -> JointTable:
    """Invert by inclusion-exclusion; raise if any configuration goes negative."""
    m = num_dyads(lm.n)
    probs = _superset_transform(lm.z, m, operator.sub)
    neg_tol = 0 if lm.is_exact else FLOAT_NEG_TOL
    for mask, p in enumerate(probs):
        if p < -neg_tol:
            raise InvalidParametersError(
                f"configuration {mask:b} has probability {p}", config=mask
            )
    if not lm.is_exact:
        probs = [max(p, 0.0) for p in probs]
    return JointTable(lm.n, tuple(probs))


@dataclass(frozen=True)
class MobiusVector:
    """Class-indexed subset-occurrence probabilities of an exchangeable
    distribution: one z value per unlabeled class, z of the empty class 1."""

    n: int
    z: Mapping
    is_exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        classes = set(enumerate_classes(self.n, True))
        missing = classes - set(self.z)
        extra = set(self.z) - classes
        if missing or extra:
            raise ValueError(
                f"class set mismatch at n={self.n}: "
                f"missing={sorted(c.key() for c in missing)[:3]} "
                f"extra={sorted(c.key() for c in extra)[:3]}"
            )
        z, exact = _exact_or_float(
            self.z, operator.itemgetter(UnlabeledClass.empty()),
            "z of the empty class",
        )
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "is_exact", exact)

    def in_order(self) -> list:
        return [(u, self.z[u]) for u in enumerate_classes(self.n, True)]

    def to_float(self) -> "MobiusVector":
        return MobiusVector(self.n, {u: float(v) for u, v in self.z.items()})

    def restrict(self, n2: int) -> "MobiusVector":
        if n2 > self.n:
            raise ValueError("can only restrict to fewer nodes")
        keep = {
            u: v for u, v in self.z.items() if u.n_vertices <= n2
        }
        return MobiusVector(n2, keep)


def _by_mask(n: int, values: Mapping, what: str) -> tuple:
    """The value of each dyad mask's class, in mask order (n small)."""
    _check_lattice_size(n, what)
    return tuple(
        values[UnlabeledClass.of(LabeledNetwork.from_mask(n, mask))]
        for mask in range(1 << num_dyads(n))
    )


def labeled_from_exchangeable(mv: MobiusVector) -> LabeledMobius:
    """Expand class-indexed z to the full dyad lattice (n small)."""
    return LabeledMobius(mv.n, _by_mask(mv.n, mv.z, "labeled_from_exchangeable"))


def exchangeable_from_labeled(lm: LabeledMobius) -> MobiusVector:
    z = {}
    m = num_dyads(lm.n)
    for mask in range(1 << m):
        u = UnlabeledClass.of(LabeledNetwork.from_mask(lm.n, mask))
        z.setdefault(u, lm.z[mask])
    return MobiusVector(lm.n, z)


def exch_joint_from_mobius(mv: MobiusVector, x: LabeledNetwork):
    """P(X = x) for the exchangeable distribution with class moments mv.

    Inclusion-exclusion over classes: the sign alternates with the edge-count
    gap and each class is weighted by the number of its labeled members that
    contain x.
    """
    if x.n != mv.n:
        raise ValueError(f"network on {x.n} nodes, moments for n={mv.n}")
    ex = x.edge_count
    total = None  # x's own class contains x, so some term always counts
    table = class_table(mv.n)
    for u, r in zip(table.classes, table.supergraphs(x)):
        if r == 0:
            continue
        term = mv.z[u] * r
        if (u.edge_count - ex) % 2:
            term = -term
        total = term if total is None else total + term
    return _refuse_negative(total, x.mask, lambda: f"P({x}) = {total} < 0")


def mobius_from_class_distribution(cd) -> MobiusVector:
    """Class moments of a distribution given per-class probabilities.

    z_U = E[sigma_U(X)] / sub(U, K_n), that is z = D^-1 S q over the sigma
    table S (see ``counting.ClassTable``); the expectation is a single sigma
    value per class because sigma is isomorphism-invariant.
    """
    n = cd.n
    table = class_table(n)
    acc = [None] * len(table.classes)
    for w, q in cd.q.items():
        if not q:
            continue
        for k, s in enumerate(table.S[:, table.index[w]].tolist()):
            if s:
                acc[k] = q * s if acc[k] is None else acc[k] + q * s
    exact = cd.is_exact
    z = {}
    for u, a in zip(table.classes, acc):
        if u.is_empty:
            z[u] = Fraction(1) if exact else 1.0
            continue
        if a is None:
            a = Fraction(0) if exact else 0.0
        denom = sub_in_complete(u, n)
        z[u] = Fraction(a, denom) if exact else a / denom
    return MobiusVector(n, z)


# --- bidirected factorized evaluation ---------------------------------------


def bidirected_joint(dep, z_conn: Mapping, h_mask: int):
    """P(X_H = 1, rest = 0) under a bidirected dependence structure.

    ``z_conn`` maps each connected dyad-subset mask of ``dep`` to its z value;
    disconnected subsets factor into products over their maximal connected
    parts.  Inclusion-exclusion runs over all supersets of H.
    """
    if dep.kind != "bidirected":
        raise ValueError("factorized evaluation needs a bidirected structure")
    adj = tuple(dep.adjacency)
    total = None
    for extra in submasks(((1 << dep.m) - 1) & ~h_mask):
        prod = math.prod(
            z_conn[comp] for comp in mask_components(adj, h_mask | extra)
        )
        term = -prod if extra.bit_count() % 2 else prod
        total = term if total is None else total + term
    return _refuse_negative(
        total,
        h_mask,
        lambda: f"configuration {h_mask:b} has probability {total}",
    )


def mask_of(indices) -> int:
    m = 0
    for k in indices:
        m |= 1 << k
    return m


# --- validation --------------------------------------------------------------


@dataclass
class MobiusValidation:
    ok: bool
    violations: list = field(default_factory=list)

    def first(self):
        return self.violations[0] if self.violations else None


def validate_mobius(mv: MobiusVector) -> MobiusValidation:
    """Check z feasibility at mv's own node count.

    Verifies the [0,1] range and nonnegativity of every implied
    configuration probability (one representative per class suffices, by
    exchangeability); ``MobiusVector`` already holds z of the empty class at
    1.  Returns a report instead of raising.
    """
    report = MobiusValidation(ok=True)
    tol = 0 if mv.is_exact else 1e-9
    for u, v in mv.in_order():
        if v < -tol or v > 1 + tol:
            report.ok = False
            report.violations.append(("range", f"z[{u.key()}] = {v} outside [0,1]"))
    if not report.ok:
        return report
    _check_lattice_size(mv.n, "validate_mobius")
    total = None
    for u in enumerate_classes(mv.n, True):
        x = u.padded(mv.n)
        try:
            p = exch_joint_from_mobius(mv, x)
        except InvalidParametersError as err:
            report.ok = False
            report.violations.append(("negative_config", str(err)))
            continue
        w = class_size(u, mv.n)
        contrib = p * w
        total = contrib if total is None else total + contrib
    if report.ok and total is not None:
        drift = total - 1
        if drift < -tol or drift > tol:
            report.ok = False
            report.violations.append(
                ("normalization", f"implied probabilities sum to {total}")
            )
    return report
