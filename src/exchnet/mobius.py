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
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .counting import class_table
from .graphs import (
    InvalidNetworkError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    _class_lattice,
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


def _check_lattice_size(n: int, what: str, values=None):
    """Refuse n outside 0..``MAX_LATTICE_NODES``, and ``values`` (when
    given) unless it holds one entry per dyad mask."""
    if n < 0:
        raise InvalidNetworkError(f"{what} needs n >= 0, got {n}")
    if n > MAX_LATTICE_NODES:
        raise SizeCapError(
            f"{what} enumerates the full dyad lattice and supports "
            f"n <= {MAX_LATTICE_NODES}, got {n}"
        )
    if values is not None and len(values) != 1 << num_dyads(n):
        raise ValueError(
            f"need {1 << num_dyads(n)} entries for n={n}, got {len(values)}"
        )


def _close(got, want, tol: float) -> bool:
    """Equality when both values are rational, else |got - want| <= tol."""
    if isinstance(got, (int, Fraction)) and isinstance(want, (int, Fraction)):
        return got == want
    return abs(float(got) - float(want)) <= tol


def _over_lcm(values) -> tuple:
    """Exact values as integers over their least common denominator, and it."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _total(values):
    """The sum of a sequence, all exact or all float; exact ones add as integers."""
    if values and isinstance(values[0], float):
        return sum(values)
    nums, den = _over_lcm(values)
    return Fraction(sum(nums), den)


def _exact_or_float(
    values, one, label: str, tol=FLOAT_SUM_TOL, neg_tol=None, in_float_range=False
):
    """The exact-or-float decision of a value container, made once.

    ``values`` is a tuple or a mapping.  When every value is an int or a
    Fraction it comes back unchanged with True; otherwise a copy holding the
    float of each value comes back with False, and a NaN, an infinity or a
    value beyond float range is refused; with ``in_float_range`` an exact
    value beyond float range is refused too.  ``one(values)`` must be 1
    (within ``tol`` for floats), and with ``neg_tol`` given no value may be
    negative (below -neg_tol for floats).
    """
    is_map = isinstance(values, Mapping)
    vals = values.values() if is_map else values
    exact = all(isinstance(v, (int, Fraction)) for v in vals)
    if not exact or in_float_range:
        try:
            floats = [float(v) for v in vals]
        except OverflowError:
            raise InvalidParametersError("a value is beyond float range") from None
    if not exact:
        vals = floats
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
    ints and Fractions (exact mode) or floats; mixed entries are stored as
    floats.  ``quadrature_gap`` is set on a table built from quadrature
    moments: the largest gap of one to its half-resolution value.
    """

    n: int
    probs: tuple
    quadrature_gap: float | None = None
    is_exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_lattice_size(self.n, "JointTable", self.probs)
        probs, exact = _exact_or_float(
            self.probs, _total, "the total probability", neg_tol=FLOAT_NEG_TOL
        )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "is_exact", exact)

    @cached_property
    def scaled(self) -> tuple:
        """The entries as integers over their common denominator when exact
        (a positive multiple of ``probs``), else ``probs`` itself."""
        return tuple(_over_lcm(self.probs)[0]) if self.is_exact else self.probs


@dataclass(frozen=True)
class LabeledMobius:
    """Subset-occurrence probabilities z_B = P(B subgraph of X), indexed by
    dyad bitmask; z of the empty mask is 1."""

    n: int
    z: tuple
    is_exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_lattice_size(self.n, "LabeledMobius", self.z)
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


def _refuse_negative(p, message):
    """Return the probability ``p``; raise with ``message()`` when it is
    negative (exactly for rationals, beyond ``FLOAT_NEG_TOL`` for floats)."""
    if (p < 0) if isinstance(p, (Fraction, int)) else (p < -FLOAT_NEG_TOL):
        raise InvalidParametersError(message())
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
    for mask, p in enumerate(probs):
        if p < 0:
            _refuse_negative(
                p, lambda: f"configuration {mask:b} has probability {p}"
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
        at = _class_lattice(self.n)[1]  # {class: index}
        extra = [u for u in self.z if u not in at]
        if extra or len(self.z) < len(at):
            missing = [u for u in at if u not in self.z]
            raise ValueError(
                f"class set mismatch at n={self.n}: "
                f"missing={sorted(c.key() for c in missing)[:3]} "
                f"extra={sorted(c.key() for c in extra)[:3]}"
            )
        # only class moments take the range pass: labeled moments reach
        # float code through this class, and a joint or class law is
        # nonnegative with sum 1
        z, exact = _exact_or_float(
            self.z, operator.itemgetter(UnlabeledClass.empty()),
            "z of the empty class", in_float_range=True,
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


@dataclass(frozen=True)
class ClassDistribution:
    """Exchangeable distribution in compressed form: probability per class.

    The implied labeled distribution is uniform within each class, so the
    probability of a particular network x is q[class of x] / |class|.
    """

    n: int
    q: Mapping
    is_exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        extra = set(self.q) - _class_lattice(self.n)[1].keys()  # {class: index}
        if extra:
            raise ValueError(f"unknown classes for n={self.n}: {sorted(c.key() for c in extra)[:3]}")
        q, exact = _exact_or_float(
            self.q, lambda q: _total(list(q.values())),
            "the total class probability", tol=1e-9, neg_tol=FLOAT_NEG_TOL,
        )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "is_exact", exact)

    @classmethod
    def point_mass(cls, u: UnlabeledClass, n: int) -> "ClassDistribution":
        return cls(n, {u: Fraction(1)})

    def value(self, u: UnlabeledClass):
        # an exact value comes out a Fraction: divided by a class size, an
        # int entry would turn into a float
        v = self.q.get(u, 0)
        return Fraction(v) if self.is_exact else float(v)

    def labeled_prob(self, x: LabeledNetwork):
        u = UnlabeledClass.of(x)
        return self.value(u) / class_size(u, self.n)

    def to_joint(self) -> JointTable:
        probs = {
            u: self.value(u) / class_size(u, self.n)
            for u in enumerate_classes(self.n, True)
        }
        return JointTable(self.n, _by_mask(self.n, probs, "joint expansion"))


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
    """Collapse labeled z to one value per class; the masks of a class must
    agree (exactly for rationals, within ``FLOAT_SUM_TOL`` for floats)."""
    first: dict = {}  # class -> (its first mask, that mask's z)
    for mask, v in enumerate(lm.z):
        u = UnlabeledClass.of(LabeledNetwork.from_mask(lm.n, mask))
        mask0, v0 = first.setdefault(u, (mask, v))
        if not _close(v, v0, FLOAT_SUM_TOL):
            raise InvalidParametersError(
                f"z is not exchangeable: class {u.key()} has {v0} at mask "
                f"{mask0:b} and {v} at mask {mask:b}"
            )
    return MobiusVector(lm.n, {u: v for u, (_, v) in first.items()})


def _class_prob(mv: MobiusVector, j: int):
    """P(X = x), sign unchecked, for each x in the class of index j: z_U times
    U's signed supergraph count, summed over the classes U in order."""
    table = class_table(mv.n)
    total = None  # x's own class contains x, so some term always counts
    for u, c in zip(table.classes, table.signed_supergraphs(j)):
        if c:
            term = mv.z[u] * c
            total = term if total is None else total + term
    return total


def exch_joint_from_mobius(mv: MobiusVector, x: LabeledNetwork):
    """P(X = x) for the exchangeable distribution with class moments mv."""
    if x.n != mv.n:
        raise ValueError(f"network on {x.n} nodes, moments for n={mv.n}")
    p = _class_prob(mv, class_table(mv.n).index[UnlabeledClass.of(x)])
    return _refuse_negative(p, lambda: f"P({x}) = {p} < 0")


def _moments(cd: ClassDistribution, classes) -> dict:
    """z_U = sum_W S[U][W] q_W / |U| for the given classes, from their rows
    of S alone.  A float z is a running sum of the terms over the support in
    q's order, the additions of a scalar loop; an exact one sums the
    integers of q over its common denominator."""
    table = class_table(cd.n)
    at = [table.index[u] for u in classes]
    support = [(table.index[w], q) for w, q in cd.q.items() if q]
    cols = table.rows(at)[:, [j for j, _ in support]]
    qs = [q for _, q in support]
    if cd.is_exact:
        nums, den = _over_lcm(qs)
        sums = [Fraction(sum(map(operator.mul, nums, r)), den) for r in cols.tolist()]
    else:
        sums = np.cumsum(cols * np.array(qs), axis=1)[:, -1].tolist()
    return {u: a / d for u, a, d in zip(classes, sums, table.sizes[at].tolist())}


def mobius_from_class_distribution(cd: ClassDistribution) -> MobiusVector:
    """Class moments of a distribution given per-class probabilities.

    z_U = E[sigma_U(X)] / sub(U, K_n), where sub(U, K_n) is the class size
    |U|: z = D^-1 S q over the whole sigma table S (``counting.ClassTable``),
    one sigma value per class since sigma is isomorphism-invariant.
    """
    z = _moments(cd, class_table(cd.n).classes)
    z[UnlabeledClass.empty()] = Fraction(1) if cd.is_exact else 1.0
    return MobiusVector(cd.n, z)


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
        total, lambda: f"configuration {h_mask:b} has probability {total}"
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
    configuration probability (one per class suffices, by exchangeability);
    ``MobiusVector`` already holds z of the empty class at 1.  Returns a
    report instead of raising; float moments are refused above n = 6.
    """
    report = MobiusValidation(ok=True)
    tol = 0 if mv.is_exact else 1e-9
    for u, v in mv.in_order():
        if v < -tol or v > 1 + tol:
            report.ok = False
            report.violations.append(("range", f"z[{u.key()}] = {v} outside [0,1]"))
    if not report.ok:
        return report
    if not mv.is_exact and mv.n > 6:  # P(x) = -1.3e-11 on a valid 7-node MLE
        raise SizeCapError(
            f"float validation supports n <= 6, got {mv.n}: float cancellation "
            "passes the -1e-12 tolerance at n = 7; validate exact moments"
        )
    table = class_table(mv.n)
    total = 0
    for j, (u, size) in enumerate(zip(table.classes, table.sizes.tolist())):
        p = _class_prob(mv, j)
        try:
            _refuse_negative(p, lambda: f"P({u.padded(mv.n)}) = {p} < 0")
        except InvalidParametersError as err:
            report.ok = False
            report.violations.append(("negative_config", str(err)))
            continue
        total += p * size
    if report.ok:
        drift = total - 1
        if drift < -tol or drift > tol:
            report.ok = False
            report.violations.append(
                ("normalization", f"implied probabilities sum to {total}")
            )
    return report
