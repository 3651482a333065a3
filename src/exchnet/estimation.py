"""Maximum-likelihood estimation for exchangeable network models.

Covers the unconstrained exchangeable MLE (subgraph densities), the
dissociated MLE (likelihood maximization over per-class probabilities under
product constraints on disconnected classes), small exponential-family fits
for several statistic families, and degree-distribution diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Mapping

import numpy as np

from .counting import (
    class_table,
    matching_class,
    star_class,
    sub_in_complete,
    triangle_class,
    two_disjoint_edges_class,
)
from .graphs import (
    MAX_NODES,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_size,
    degree_distribution,
    disconnected_classes,
    enumerate_classes,
    num_dyads,
)
from .lp import solve_feasibility
from .mobius import (
    MAX_LATTICE_NODES,
    InvalidParametersError,
    JointTable,
    MobiusVector,
    _close,
    _exact_or_float,
    mobius_from_class_distribution,
)
from .optimize import (
    LinearConstraint,
    ProductConstraint,
    dirichlet_starts,
    maximize_batch,
    project_to_simplex,
)

MAX_FIT_NODES = 6
# at n = 6 (156 classes) the dissociated fit of path6 ran for over two
# minutes and failed
MAX_DISSOCIATED_NODES = 5

# dissociated_mle: largest constraint violation and KKT residual of a usable
# run, likelihood gap of a tie and q distance of a distinct maximizer
FEAS_TOL = 1e-8
KKT_TOL = 1e-6
LIK_TIE_TOL = 1e-7
DISTINCT_TOL = 1e-4
# dissociated_mle: Dirichlet starts beside the point mass and uniform starts,
# and their seed
DISSOCIATED_RESTARTS = 32
DISSOCIATED_SEED = 20240

# summarized_check: largest gap between float probabilities counted equal
SUMMARY_TOL = 1e-10

# ergm_fit: moment gap of a converged iterate and Newton iteration cap
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 200

STATUS_OPTIMAL = "optimal"
STATUS_BOUNDARY = "boundary"
STATUS_NON_UNIQUE = "non_unique"
STATUS_FAILED = "failed"

FAMILIES = (
    "full_exchangeable",
    "frank_strauss",
    "se_star",
    "kneser",
    "sem",
    "edges",
)


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
        classes = set(enumerate_classes(self.n, True))
        extra = set(self.q) - classes
        if extra:
            raise ValueError(f"unknown classes for n={self.n}: {sorted(c.key() for c in extra)[:3]}")
        q, exact = _exact_or_float(
            self.q, lambda q: sum(q.values()), "the total class probability",
            tol=1e-9, neg_tol=1e-12,
        )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "is_exact", exact)

    @classmethod
    def point_mass(cls, u: UnlabeledClass, n: int) -> "ClassDistribution":
        return cls(n, {u: Fraction(1)})

    def value(self, u: UnlabeledClass):
        zero = Fraction(0) if self.is_exact else 0.0
        return self.q.get(u, zero)

    def labeled_prob(self, x: LabeledNetwork):
        u = UnlabeledClass.of(x)
        return self.value(u) / class_size(u, self.n)

    def in_order(self) -> list:
        return [(u, self.value(u)) for u in enumerate_classes(self.n, True)]

    def to_joint(self) -> JointTable:
        if self.n > MAX_LATTICE_NODES:
            raise SizeCapError(
                f"joint expansion supports n <= {MAX_LATTICE_NODES}"
            )
        probs = []
        for mask in range(1 << num_dyads(self.n)):
            probs.append(self.labeled_prob(LabeledNetwork.from_mask(self.n, mask)))
        return JointTable(self.n, tuple(probs))

    def to_float(self) -> "ClassDistribution":
        return ClassDistribution(self.n, {u: float(v) for u, v in self.q.items()})


@dataclass
class FitReport:
    """Outcome of a likelihood fit."""

    family: str
    status: str
    log_likelihood: float
    z: MobiusVector | None = None
    q: ClassDistribution | None = None
    nu: dict | None = None
    constraint_residual: float = 0.0
    iterations: int = 0
    restarts_used: int = 0

    @property
    def likelihood(self) -> float:
        return math.exp(self.log_likelihood)


def exch_mle(x: LabeledNetwork) -> MobiusVector:
    """Exchangeable MLE of the class moments: the observed subgraph densities
    sigma_U(x) / sub(U, K_n)."""
    table = class_table(x.n)
    z = {
        u: Fraction(s, sub_in_complete(u, x.n))
        for u, s in zip(table.classes, table.sigmas(x))
    }
    return MobiusVector(x.n, z)


# --- dissociated MLE ----------------------------------------------------------


def _moment_matrix(n: int) -> tuple:
    """The classes at n and the float moment row of each (see
    ``ClassTable.moment_row``), one row per class."""
    table = class_table(n)
    rows = [table.moment_row(u) for u in table.classes]
    return table.classes, np.array(rows, dtype=float)


def _dissociated_constraints(n: int, classes, a_matrix) -> list:
    idx = {u: k for k, u in enumerate(classes)}
    return [
        ProductConstraint(a_matrix[idx[u]], [a_matrix[idx[c]] for c in comps])
        for u, comps in disconnected_classes(n)
    ]


def dissociated_mle(x: LabeledNetwork) -> FitReport:
    """Maximize P(X = x) over exchangeable dissociated distributions.

    Optimizes per-class probabilities (so nonnegativity and normalization are
    structural) under product constraints for every disconnected class, via an
    augmented Lagrangian with projected-gradient inner steps, started from
    the point mass at x's class, the uniform q and ``DISSOCIATED_RESTARTS``
    Dirichlet draws seeded by ``DISSOCIATED_SEED``.
    A run counts when its constraint violation is at most ``FEAS_TOL`` and
    its KKT residual at most ``KKT_TOL``.

    A flat optimum is common here: after the best likelihood is found, each
    coordinate is re-maximized subject to optimality, which maps out the
    optimal set.  Maximizers tied within ``LIK_TIE_TOL`` whose q vectors
    differ by more than ``DISTINCT_TOL`` trigger a non-unique status; the
    reported representative is the lexicographically largest q in class order
    among the candidates found.
    """
    n = x.n
    if n > MAX_DISSOCIATED_NODES:
        raise SizeCapError(
            f"dissociated MLE supports n <= {MAX_DISSOCIATED_NODES}"
        )
    classes, a_matrix = _moment_matrix(n)
    idx = {u: k for k, u in enumerate(classes)}
    x_cls = UnlabeledClass.of(x)
    x_idx = idx[x_cls]
    cons = _dissociated_constraints(n, classes, a_matrix)
    dim = len(classes)
    c_lin = np.zeros(dim)
    c_lin[x_idx] = 1.0
    obj_tie_tol = LIK_TIE_TOL * class_size(x_cls, n)

    rng = np.random.default_rng(DISSOCIATED_SEED)
    starts = []
    point = np.zeros(dim)
    point[x_idx] = 1.0
    starts.append(point)
    starts.append(np.full(dim, 1.0 / dim))
    starts.extend(dirichlet_starts(rng, dim, DISSOCIATED_RESTARTS))

    runs = maximize_batch(c_lin, cons, np.array(starts))

    usable = [
        r for r in runs
        if r.max_violation <= FEAS_TOL and r.kkt_residual <= KKT_TOL
    ]
    if not usable:
        best = min(runs, key=lambda r: (r.max_violation, -r.objective))
        return FitReport(
            family="dissociated",
            status=STATUS_FAILED,
            log_likelihood=float("-inf"),
            constraint_residual=best.max_violation,
            iterations=best.outer_iters,
            restarts_used=len(starts),
        )

    best_obj = max(r.objective for r in usable)
    near = [r for r in usable if r.objective >= best_obj - obj_tie_tol]
    candidates = [(r.q, r.max_violation, r.outer_iters) for r in near]

    probe_cons = cons + [LinearConstraint(c_lin, best_obj)]
    others = [k for k in range(dim) if k != x_idx]
    # light budget: probes only need to locate distinct maximizers
    probes = maximize_batch(
        np.eye(dim)[others],
        probe_cons,
        np.tile(near[0].q, (len(others), 1)),
        max_outer=14,
        inner_iters=700,
    )
    for pres in probes:
        if (
            pres.max_violation <= FEAS_TOL
            and float(c_lin @ pres.q) >= best_obj - obj_tie_tol
        ):
            candidates.append((pres.q, pres.max_violation, pres.outer_iters))

    distinct: list = []
    for q_arr, _, _ in candidates:
        if all(
            float(np.max(np.abs(q_arr - d))) > DISTINCT_TOL for d in distinct
        ):
            distinct.append(q_arr)
    status = STATUS_NON_UNIQUE if len(distinct) > 1 else STATUS_OPTIMAL
    # canonical representative: lexicographically largest q in class order
    chosen_q, chosen_viol, chosen_iters = max(
        candidates, key=lambda c: tuple(c[0])
    )

    q_arr = project_to_simplex(chosen_q)
    q_arr = q_arr / q_arr.sum()
    q_map = {u: float(q_arr[idx[u]]) for u in classes}
    cd = ClassDistribution(n, q_map)
    z_map = {u: float(a_matrix[idx[u]] @ q_arr) for u in classes}
    z_map[UnlabeledClass.empty()] = 1.0
    mv = MobiusVector(n, z_map)
    lik = q_arr[x_idx] / class_size(x_cls, n)
    return FitReport(
        family="dissociated",
        status=status,
        log_likelihood=float(np.log(lik)) if lik > 0 else float("-inf"),
        z=mv,
        q=cd,
        constraint_residual=chosen_viol,
        iterations=chosen_iters,
        restarts_used=len(starts),
    )


# --- exponential-family statistics and fitting --------------------------------


@dataclass(frozen=True)
class ErgmSpec:
    """A named statistic family at a fixed node count."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def stat_names(self) -> tuple:
        return _family_table(self.family, self.n)[0]

    def stat_classes(self) -> tuple | None:
        """Classes whose sigma counts are the statistics; None for sem."""
        return _family_table(self.family, self.n)[1]


@lru_cache(maxsize=None)
def _family_table(family: str, n: int) -> tuple:
    """The statistic names of a family at n and the classes whose sigma
    counts they are; sem counts degrees, so its classes are None."""
    if family == "sem":
        return tuple(f"deg{j}" for j in range(1, n)), None
    if family == "edges":
        rows = [("star1", star_class(1))]
    elif family in ("frank_strauss", "se_star"):
        rows = [(f"star{k}", star_class(k)) for k in range(1, n)]
        if family == "frank_strauss":
            rows.append(("triangle", triangle_class()))
        else:
            rows.append(("two_disjoint_edges", two_disjoint_edges_class()))
    elif family == "kneser":
        rows = [(f"matching{k}", matching_class(k)) for k in range(1, n // 2 + 1)]
    else:  # full_exchangeable
        rows = [(u.key(), u) for u in enumerate_classes(n, False)]
    return tuple(name for name, _ in rows), tuple(u for _, u in rows)


def ergm_stats(spec: ErgmSpec, x: LabeledNetwork) -> tuple:
    """Exact integer statistic vector for the family."""
    if x.n != spec.n:
        raise ValueError(f"network on {x.n} nodes, family at n={spec.n}")
    if spec.family == "sem":
        dd = degree_distribution(x)
        return tuple(dd.counts[1:])
    return class_table(spec.n).sigmas(x, spec.stat_classes())


def _nu_vector(spec: ErgmSpec, nu) -> np.ndarray:
    names = spec.stat_names()
    if isinstance(nu, Mapping):
        unknown = set(nu) - set(names)
        if unknown:
            raise ValueError(f"unknown statistic names: {sorted(unknown)}")
        arr = np.array([float(nu.get(name, 0.0)) for name in names])
    else:
        arr = np.asarray(list(nu), dtype=float)
        if arr.size != len(names):
            raise ValueError(f"need {len(names)} values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidParametersError("canonical parameters must be finite")
    return arr


def _class_stat_table(spec: ErgmSpec) -> tuple:
    """Classes, the statistics of each class (one row per class) and the
    class sizes.  Statistic classes are rows of the sigma table."""
    table = class_table(spec.n)
    classes = table.classes
    stat_classes = spec.stat_classes()
    if stat_classes is None:
        rows = [ergm_stats(spec, u.padded(spec.n)) for u in classes]
    else:
        cols = [table.row(u) for u in stat_classes]
        rows = [tuple(c[k] for c in cols) for k in range(len(classes))]
    stats = np.array(rows, dtype=float)
    sizes = np.array([class_size(u, spec.n) for u in classes], dtype=float)
    return classes, stats, sizes


def _gibbs_weights(stats, sizes, nu) -> tuple:
    """Unnormalized class weights exp(S nu + log|class| - shift) and the
    shift, the largest exponent."""
    expo = stats @ nu + np.log(sizes)
    shift = float(np.max(expo))
    return np.exp(expo - shift), shift


def _log_partition(stats, sizes, nu):
    w, shift = _gibbs_weights(stats, sizes, nu)
    return shift + math.log(float(np.sum(w)))


def ergm_eval(spec: ErgmSpec, nu, x: LabeledNetwork) -> float:
    """Normalized probability of x under the family with parameters nu."""
    if spec.n > MAX_FIT_NODES:
        raise SizeCapError(f"ergm evaluation supports n <= {MAX_FIT_NODES}")
    vec = _nu_vector(spec, nu)
    _, stats, sizes = _class_stat_table(spec)
    psi = _log_partition(stats, sizes, vec)
    s_x = np.array(ergm_stats(spec, x), dtype=float)
    return math.exp(float(s_x @ vec) - psi)


def _facial_set(spec: ErgmSpec, stats, x_idx: int) -> np.ndarray:
    """The classes W whose statistics s(W) lie on the smallest face of
    conv{s(W)} that holds s(x), as a boolean mask over the classes.

    s(x) is in the relative interior of the hull of points P exactly when
    every point can take a positive weight: the exact LP mu >= 0,
    sum_p mu_p (p - s(x)) = -sum_p (p - s(x)) over the distinct points.
    While that LP is infeasible, its Farkas vector y scores
    y.(p - s(x)) <= 0 on every point and < 0 on some, and the face keeps
    the classes that score 0.  Full exchangeable statistics form a
    unitriangular S, so each class point is a vertex and the face is x's
    class.
    """
    if spec.family == "full_exchangeable":
        return np.arange(len(stats)) == x_idx
    face = np.ones(len(stats), dtype=bool)
    # integer statistics, so the float gaps are exact
    gaps = [tuple(int(v) for v in row) for row in stats - stats[x_idx]]
    while True:
        cols = sorted({g for g, on in zip(gaps, face) if on})
        rows = [list(r) for r in zip(*cols)]
        res = solve_feasibility(rows, [-sum(r) for r in rows])
        if res.feasible:
            return face
        scores = [sum(yi * gi for yi, gi in zip(res.dual, g)) for g in gaps]
        on_face = [sc for sc, on in zip(scores, face) if on]
        if max(on_face) > 0 or min(on_face) == 0:
            raise InvariantError(f"{spec.family} Farkas vector {res.dual}")
        face &= np.array([sc == 0 for sc in scores])


def ergm_fit(spec: ErgmSpec, x: LabeledNetwork) -> FitReport:
    """Maximum-likelihood fit of the family, on the face that holds x.

    A finite MLE exists iff s(x) lies in the relative interior of the convex
    hull of the class statistics, which an exact LP decides
    (``_facial_set``).  Damped Newton on the exact mean-value map then fits
    the family restricted to the facial classes, to a moment gap of
    ``NEWTON_TOL`` within ``NEWTON_MAX_ITER`` iterations.  When the face is
    every class the status is "optimal" and nu is the MLE.  Otherwise the
    status is "boundary": q is the MLE in the completion of the family, zero
    off the face, and nu parametrizes that fit within the face; it is not an
    MLE of the full family, which has none.
    """
    if spec.n > MAX_FIT_NODES:
        raise SizeCapError(f"ergm fitting supports n <= {MAX_FIT_NODES}")
    classes, stats, sizes = _class_stat_table(spec)
    target = np.array(ergm_stats(spec, x), dtype=float)
    x_idx = class_table(spec.n).index[UnlabeledClass.of(x)]
    face = _facial_set(spec, stats, x_idx)
    interior = bool(face.all())
    stats, sizes = stats[face], sizes[face]
    dim = stats.shape[1]
    nu = np.zeros(dim)

    def moments(nu_vec):
        w, _ = _gibbs_weights(stats, sizes, nu_vec)
        w /= w.sum()
        mean = stats.T @ w
        centered = stats - mean
        cov = (centered * w[:, None]).T @ centered
        return w, mean, cov

    status = STATUS_FAILED
    iters = 0
    resid = np.inf
    step_norm = np.inf
    for it in range(NEWTON_MAX_ITER):
        iters = it + 1
        _, mean, cov = moments(nu)
        r = target - mean
        resid = float(np.max(np.abs(r), initial=0.0))
        # an interior fit stops with a matched moment and a collapsed step;
        # a face family can be non-identifiable, and the ridge noise along
        # its flat directions keeps the step from collapsing
        if resid < NEWTON_TOL and (step_norm < 1e-6 or not interior):
            status = STATUS_OPTIMAL if interior else STATUS_BOUNDARY
            break
        try:
            step = np.linalg.solve(
                cov + 1e-14 * np.eye(dim) * max(1.0, float(np.trace(cov))), r
            )
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(cov, r, rcond=None)[0]
        # damped Newton: halve until the moment gap does not grow
        t = 1.0
        for _bt in range(60):
            cand = nu + t * step
            _, mean_c, _ = moments(cand)
            gap = float(np.max(np.abs(target - mean_c), initial=0.0))
            if gap <= resid * (1 + 1e-12):
                break
            t *= 0.5
        nu = nu + t * step
        step_norm = float(np.max(np.abs(t * step), initial=0.0))

    q = np.zeros(len(classes))
    q[face] = moments(nu)[0]
    cd = ClassDistribution(spec.n, {u: float(p) for u, p in zip(classes, q)})
    lik = cd.labeled_prob(x)
    return FitReport(
        family=spec.family,
        status=status,
        log_likelihood=math.log(lik) if lik > 0 else float("-inf"),
        z=mobius_from_class_distribution(cd),
        q=cd,
        nu={name: float(v) for name, v in zip(spec.stat_names(), nu)},
        constraint_residual=resid,
        iterations=iters,
    )


# --- degree-distribution structure --------------------------------------------


def degree_collision_classes(n: int) -> list:
    """Groups (size >= 2) of classes on n nodes sharing a degree distribution.

    Classes are padded with isolated vertices to exactly n nodes, so the
    degree counts include degree-zero entries.  n < 1 is refused with
    ``InvalidParametersError``.
    """
    if n < 1:
        raise InvalidParametersError("degree collision scan needs n >= 1")
    if n > MAX_NODES:
        raise SizeCapError(f"degree collision scan supports n <= {MAX_NODES}")
    groups: dict = {}
    for u in enumerate_classes(n, True):
        dd = degree_distribution(u.padded(n))
        groups.setdefault(dd.counts, []).append(u)
    out = [
        sorted(g, key=UnlabeledClass.sort_key)
        for g in groups.values()
        if len(g) >= 2
    ]
    out.sort(key=lambda g: g[0].sort_key())
    return out


@dataclass
class SummarizedCheckResult:
    holds: bool
    witness: tuple | None = None  # pair of configurations or classes


def summarized_check(obj) -> SummarizedCheckResult:
    """Is the probability of a configuration a function of its degree counts?"""
    if isinstance(obj, JointTable):
        first: dict = {}
        for mask in range(len(obj.probs)):
            x = LabeledNetwork.from_mask(obj.n, mask)
            key = degree_distribution(x).counts
            p = obj.probs[mask]
            if key in first:
                mask0, p0 = first[key]
                if not _close(p0, p, SUMMARY_TOL):
                    return SummarizedCheckResult(False, (mask0, mask))
            else:
                first[key] = (mask, p)
        return SummarizedCheckResult(True)
    if isinstance(obj, ClassDistribution):
        for group in degree_collision_classes(obj.n):
            p0 = obj.labeled_prob(group[0].padded(obj.n))
            for u in group[1:]:
                p = obj.labeled_prob(u.padded(obj.n))
                if not _close(p0, p, SUMMARY_TOL):
                    return SummarizedCheckResult(False, (group[0], u))
        return SummarizedCheckResult(True)
    raise TypeError("expected JointTable or ClassDistribution")


def sigma_is_degree_function(u: UnlabeledClass, n: int) -> tuple:
    """Is sigma_U constant across equal-degree-distribution graphs on n nodes?

    Returns (answer, witness) where the witness is a pair of padded
    representatives with equal degree counts and different counts of u.
    """
    if n > MAX_NODES:
        raise SizeCapError(f"degree-function scan supports n <= {MAX_NODES}")
    table = class_table(n)
    row = table.row(u)
    for group in degree_collision_classes(n):
        vals = [row[table.index[w]] for w in group]
        for k in range(1, len(vals)):
            if vals[k] != vals[0]:
                return False, (group[0].padded(n), group[k].padded(n))
    return True, None


@dataclass(frozen=True)
class SummarizedConstraint:
    """Linear functional of the class moments that summarizedness forces to 0.

    Built from a pair of equal-degree-distribution classes: the difference of
    their configuration probabilities, expanded by inclusion-exclusion.
    """

    pair: tuple
    coefficients: Mapping  # class -> integer coefficient

    def evaluate(self, mv: MobiusVector):
        total = None
        for u, c in self.coefficients.items():
            term = mv.z[u] * c
            total = term if total is None else total + term
        return total if total is not None else 0


def summarized_constraints(n: int) -> list:
    """One linear z constraint per degree-distribution collision pair."""
    if n > MAX_FIT_NODES:
        raise SizeCapError(
            f"constraint construction supports n <= {MAX_FIT_NODES}"
        )
    table = class_table(n)
    out = []
    for group in degree_collision_classes(n):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                u1, u2 = group[a], group[b]
                x1 = u1.padded(n)
                ex = x1.edge_count
                r1 = table.supergraphs(x1)
                r2 = table.supergraphs(u2.padded(n))
                coeffs = {}
                for u, c1, c2 in zip(table.classes, r1, r2):
                    diff = c1 - c2
                    if diff:
                        sign = -1 if (u.edge_count - ex) % 2 else 1
                        coeffs[u] = sign * diff
                out.append(SummarizedConstraint((u1, u2), coeffs))
    return out
