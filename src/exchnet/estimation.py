"""Maximum-likelihood estimation for exchangeable network models.

Covers the unconstrained exchangeable MLE (subgraph densities), the
dissociated MLE (likelihood maximization over per-class probabilities under
product constraints on disconnected classes), small exponential-family fits
for several statistic families, and degree-distribution diagnostics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
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
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_size,
    degree_distribution,
    disconnected_classes,
    enumerate_classes,
)
from .lp import maximize, solve_feasibility
from .mobius import (
    InvalidParametersError,
    JointTable,
    MobiusVector,
    _by_mask,
    _close,
    _exact_or_float,
    mobius_from_class_distribution,
)

MAX_FIT_NODES = 6
# the dissociated fit's branch and bound needs every disconnected class to
# be K2 + C, which holds on at most 5 vertices (3K2 has three components)
MAX_DISSOCIATED_NODES = 5

# dissociated_mle: relative gap at which the branch and bound stops, and
# the narrowest box side it splits
BNB_GAP = 1e-9
BNB_MIN_WIDTH = 1e-12
# dissociated_mle: interval at which golden-section search on v(t) stops;
# largest reduced cost of a column kept on an optimal face; q distance of a
# distinct maximizer
GOLDEN_TOL = 1e-10
FACE_TOL = 1e-9
DISTINCT_TOL = 1e-4

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
        probs = {
            u: self.value(u) / class_size(u, self.n)
            for u in enumerate_classes(self.n, True)
        }
        return JointTable(self.n, _by_mask(self.n, probs, "joint expansion"))


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
    log_likelihood_upper: float | None = None

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


@dataclass(frozen=True)
class _DissociatedRows:
    """The dissociated fit's rows at n <= 5, in floats.

    Row k of ``moments`` dotted with a class distribution q is z of class k.
    Every disconnected class on at most 5 vertices is K2 + C with C
    connected, so its product row is z_U = t w_C, with t = z_edge and
    w_C = z_C.  The branch and bound works on boxes over the sides: t
    first, then w_C for each C other than the edge.
    """

    moments: np.ndarray
    sides: tuple  # class index of each side, the edge first
    products: tuple  # (class index of U, side of C) per disconnected U

    @classmethod
    def of(cls, n: int) -> "_DissociatedRows":
        table = class_table(n)
        moments = np.array(
            [table.moment_row(u) for u in table.classes], dtype=float
        )
        sides = [table.index.get(star_class(1))]
        products = []
        for u, comps in disconnected_classes(n):
            if len(comps) != 2 or comps[0] != star_class(1):
                raise InvariantError(f"{u.key()} is not K2 + C")
            c = table.index[comps[1]]
            if c not in sides:
                sides.append(c)
            products.append((table.index[u], sides.index(c)))
        return cls(moments, tuple(sides), tuple(products))

    def at(self, t: float) -> tuple:
        """Rows and right-hand sides of the fit at z_edge = t, where every
        product row is linear: sum q = 1, z_edge = t, z_U - t z_C = 0."""
        a = self.moments
        rows = [np.ones(len(a)), a[self.sides[0]]]
        rows += [a[u] - t * a[self.sides[k]] for u, k in self.products]
        return np.array(rows), [1.0, t] + [0.0] * len(self.products)

    def relaxation(self, lo, hi) -> tuple:
        """Rows and right-hand sides of the LP relaxation on the box
        [lo, hi] of the sides, over q and one slack per inequality: each
        z_U = t w_C lies in McCormick's envelopes, whose four rows also keep
        t and w_C in the box.  For z_2K2 = t^2 (w = t) they are the end
        tangents and, twice, the secant."""
        a = self.moments
        e = a[self.sides[0]]
        t0, t1 = lo[0], hi[0]
        ineq = []  # (row, +1 for <= or -1 for >=, rhs)
        for u, k in self.products:
            h, g, w0, w1 = a[u], a[self.sides[k]], lo[k], hi[k]
            ineq += [
                (h - w0 * e - t0 * g, -1, -t0 * w0),
                (h - w1 * e - t1 * g, -1, -t1 * w1),
                (h - w1 * e - t0 * g, 1, -t0 * w1),
                (h - w0 * e - t1 * g, 1, -t1 * w0),
            ]
        dim = len(a)
        rows = np.zeros((1 + len(ineq), dim + len(ineq)))
        rows[0, :dim] = 1.0
        for i, (row, sense, _) in enumerate(ineq, 1):
            rows[i, :dim] = row
            rows[i, dim + i - 1] = sense
        return rows, [1.0] + [rhs for _, _, rhs in ineq]

    def envelope_gaps(self, q: np.ndarray) -> list:
        """|z_U - t w_C| at q, one per product."""
        z = self.moments @ q
        t = z[self.sides[0]]
        return [abs(z[u] - t * z[self.sides[k]]) for u, k in self.products]


def _lp_value(rows, rhs, objective) -> float:
    """max objective.x over {x >= 0 : rows x = rhs}; -inf when the LP is
    infeasible or its float pivots fail."""
    try:
        res = maximize(rows, rhs, objective)
    except InvariantError:
        return -np.inf
    return -np.inf if res is None else res.value


def _branch_and_bound(data: _DissociatedRows, x_idx: int) -> tuple:
    """Best-first spatial branch and bound for max_t v(t), where v(t) is the
    largest q_x of a dissociated q with z_edge = t.

    Each node is a box over the sides.  Its upper bound is the value of its
    relaxation LP, capped by its parent's, and the LP at the relaxation's
    edge density t gives v(t), a lower bound.  A node whose LP fails keeps
    its parent's bound and is split on its widest side.  Otherwise the
    split is on the side whose envelope gap times width is largest, at the
    relaxation's point kept in the middle half of the side.  The search
    stops when no open box can beat the best v by more than ``BNB_GAP``
    (relative).  Boxes narrower than ``BNB_MIN_WIDTH`` are not split.

    Returns the best v, its t and the t interval of the box that found it;
    the upper bound, the largest bound of a box closed without a split; and
    the number of node LPs.
    """
    dim = len(data.moments)
    width = len(data.sides)
    best = (-np.inf, 0.0, (0.0, 1.0))
    heap: list = []
    counter = itertools.count()
    nodes = 0
    upper = -np.inf

    def visit(lo, hi, parent_ub):
        nonlocal best, nodes, upper
        nodes += 1
        rows, rhs = data.relaxation(lo, hi)
        obj = np.zeros(rows.shape[1])
        obj[x_idx] = 1.0
        try:
            res = maximize(rows, rhs, obj)
        except InvariantError:
            heappush(heap, (-parent_ub, next(counter), lo, hi, None))
            return
        if res is None:
            return
        q = res.x[:dim]
        t = min(max(float(data.moments[data.sides[0]] @ q), lo[0]), hi[0])
        value = _lp_value(*data.at(t), obj[:dim])
        if value > best[0]:
            best = (value, t, (lo[0], hi[0]))
        ub = min(parent_ub, res.value)
        if ub > best[0] * (1 + BNB_GAP):
            heappush(heap, (-ub, next(counter), lo, hi, q))
        else:
            upper = max(upper, ub)

    visit(np.zeros(width), np.ones(width), np.inf)
    while heap and -heap[0][0] > best[0] * (1 + BNB_GAP):
        neg_ub, _, lo, hi, q = heappop(heap)
        widths = hi - lo
        if widths.max() < BNB_MIN_WIDTH:
            upper = max(upper, -neg_ub)
            continue
        score = np.zeros(width)
        if q is not None:
            for (_, k), gap in zip(data.products, data.envelope_gaps(q)):
                for s in {0, k}:
                    score[s] = max(score[s], gap * widths[s])
        side = int(np.argmax(score if score.max() > 0 else widths))
        cut = lo[side] + 0.5 * widths[side]
        if q is not None:
            at = float(data.moments[data.sides[side]] @ q)
            quarter = 0.25 * widths[side]
            cut = min(max(at, lo[side] + quarter), hi[side] - quarter)
        for a, b in ((lo[side], cut), (cut, hi[side])):
            clo, chi = lo.copy(), hi.copy()
            clo[side], chi[side] = a, b
            visit(clo, chi, -neg_ub)
    upper = max([best[0], upper] + ([-heap[0][0]] if heap else []))
    return best, upper, nodes


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """A local maximizer of f on [a, b] by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _face_optimum(rows: np.ndarray, rhs, free: np.ndarray, objective):
    """Maximize objective.q over {q >= 0 : rows q = rhs, q_j = 0 off the
    columns ``free``}.  Returns the optimal q and the columns that may be
    positive on the optimal face, those whose reduced cost is at most
    ``FACE_TOL``; None when the LP fails."""
    try:
        res = maximize(rows[:, free], rhs, objective[free])
    except InvariantError:
        return None
    if res is None:
        return None
    q = np.zeros(rows.shape[1])
    q[free] = res.x
    return q, free[res.reduced <= FACE_TOL]


def _lex_extreme(rows: np.ndarray, rhs, free: np.ndarray, sign: float):
    """The lexicographic maximum (sign 1) or minimum (sign -1) of q, in
    class order, over {q >= 0 : rows q = rhs, q_j = 0 off ``free``}: one LP
    per class still free, each narrowing the face to its own optimal face.
    None when an LP fails."""
    q = None
    for k in range(rows.shape[1]):
        if k in free:
            step = _face_optimum(rows, rhs, free, sign * np.eye(rows.shape[1])[k])
            if step is None:
                return None
            q, free = step
    return q


def dissociated_mle(x: LabeledNetwork) -> FitReport:
    """Maximize P(X = x) over exchangeable dissociated distributions.

    The variables are the class probabilities q.  With t = z_edge fixed,
    every product row z_U = t z_C is linear, so v(t) = max q_x is an LP.
    ``_branch_and_bound`` brackets max_t v(t) within ``BNB_GAP``, and
    golden-section search on v over the t interval of its best box refines
    t*.  At n <= 3 there is no product row, and the fit is one LP.

    The optimal face at t* is mapped by its lexicographic maximum and
    minimum in class order.  The status is non-unique when they differ by
    more than ``DISTINCT_TOL``.  On all 52 inputs the cap allows (each class
    padded to n = 1..5) v(t* +- 1e-4) is at least 2.2e-8 (relative) below
    v(t*), so this test alone decides: lifting ``MAX_DISSOCIATED_NODES``
    means checking that again.  The lexicographic maximum is the reported
    representative; ``iterations`` counts the node LPs, and
    ``log_likelihood_upper`` is the log of the final upper bound.
    """
    n = x.n
    if n > MAX_DISSOCIATED_NODES:
        raise SizeCapError(
            f"dissociated MLE supports n <= {MAX_DISSOCIATED_NODES}"
        )
    data = _DissociatedRows.of(n)
    table = class_table(n)
    x_cls = UnlabeledClass.of(x)
    x_idx = table.index[x_cls]
    dim = len(table.classes)
    unit = np.eye(dim)[x_idx]
    if data.products:
        (best, t_star, (a, b)), upper, nodes = _branch_and_bound(data, x_idx)

        def v(t):
            return _lp_value(*data.at(t), unit)

        t_gold = _golden_max(v, a, b, GOLDEN_TOL)
        if v(t_gold) >= best:
            t_star = t_gold
        rows, rhs = data.at(t_star)
    else:
        rows, rhs = np.ones((1, dim)), [1.0]
        upper, nodes = 1.0, 1
    start = _face_optimum(rows, rhs, np.arange(dim), unit)
    q_max = q_min = None
    if start is not None:
        q_max = _lex_extreme(rows, rhs, start[1], 1.0)
        q_min = _lex_extreme(rows, rhs, start[1], -1.0)
    if q_max is None or q_min is None:
        return FitReport(
            family="dissociated",
            status=STATUS_FAILED,
            log_likelihood=float("-inf"),
            iterations=nodes,
        )
    distinct = float(np.abs(q_max - q_min).max()) > DISTINCT_TOL
    q = np.maximum(q_max, 0.0)
    q /= q.sum()
    size = class_size(x_cls, n)
    z_map = dict(zip(table.classes, (data.moments @ q).tolist()))
    z_map[UnlabeledClass.empty()] = 1.0
    lik = q[x_idx] / size
    return FitReport(
        family="dissociated",
        status=STATUS_NON_UNIQUE if distinct else STATUS_OPTIMAL,
        log_likelihood=math.log(lik),
        z=MobiusVector(n, z_map),
        q=ClassDistribution(n, dict(zip(table.classes, q.tolist()))),
        constraint_residual=max(
            [abs(q.sum() - 1.0)] + data.envelope_gaps(q)
        ),
        iterations=nodes,
        log_likelihood_upper=math.log(max(upper / size, lik)),
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
        values = [nu.get(name, 0.0) for name in names]
    else:
        values = list(nu)
        if len(values) != len(names):
            raise ValueError(f"need {len(names)} values, got {len(values)}")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an int beyond float range
        arr = np.array([math.inf])
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
    sizes = table.sizes.astype(float)
    return classes, stats, sizes


def _gibbs_weights(stats, sizes, nu) -> tuple:
    """Unnormalized class weights exp(S nu + log|class| - shift) and the
    shift, the largest exponent; an exponent past float range stays inf."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    # an exponent beyond float range makes the partition inf - inf
    if not math.isfinite(psi):
        raise InvalidParametersError(f"log partition is {psi} at these parameters")
    s_x = np.array(ergm_stats(spec, x), dtype=float)
    with np.errstate(over="ignore"):
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
