"""Maximum-likelihood estimation for exchangeable network models.

Covers the unconstrained exchangeable MLE (subgraph densities), the
dissociated MLE (likelihood maximization over per-class probabilities under
product constraints on disconnected classes), small exponential-family fits
for several statistic families, and degree-distribution diagnostics.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from fractions import Fraction
from typing import Mapping

import numpy as np

from .counting import (
    class_table,
    matching_class,
    star_class,
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
    dyads,
    enumerate_classes,
    num_dyads,
)
from .lp import maximize, solve_feasibility
from .mobius import (
    ClassDistribution,
    InvalidParametersError,
    JointTable,
    MobiusVector,
    _close,
    _over_lcm,
    mobius_from_class_distribution,
)

# The fits' convergence sets this cap, not their size: raised to 7, 6,263 of
# the 6,264 (class, family) fits at n = 7 end optimal or boundary within
# 0.4 s, but frank_strauss on 1-7,2-7,3-6,3-7,4-6,4-7,5-6,5-7 ends failed
# after 200 Newton steps.  At n = 6 none of the 936 fits fails.
MAX_FIT_NODES = 6
# the dissociated fit's branch and bound needs every disconnected class to
# be K2 + C, which holds on at most 5 vertices (3K2 has three components)
MAX_DISSOCIATED_NODES = 5

# dissociated_mle: relative gap at which the branch and bound stops, and
# the narrowest box side it splits
BNB_GAP = 1e-9
BNB_MIN_WIDTH = 1e-12
# dissociated_mle: relative gap between the branch and bound's upper bound
# and its best v above which golden-section search refines t.  Of the 45
# inputs that reach the branch and bound (every class padded to n = 4, 5),
# 14 close within one ulp, LP rounding, and the smallest other gap is
# 7.9e-13, so any value between 1e-15 and 5e-13 selects the same inputs.
# On a closed gap the branch and bound's t already attains the bound, and
# refining only moves t along a flat top or chases float error (path4's q
# rose 1.4e-10 above its exact maximum 3/4).
REFINE_GAP = 1e-13
# dissociated_mle: interval at which golden-section search on v(t), run
# only on a gap above REFINE_GAP, stops; largest reduced cost of a column
# kept on an optimal face (and largest q of a class counted empty); mass
# off q's support of a distinct maximizer
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
    sigma_U(x) / sub(U, K_n), where sub(U, K_n) is the class size |U|."""
    table = class_table(x.n)
    z = {
        u: Fraction(s, size)
        for u, s, size in zip(table.classes, table.sigmas(x), table.sizes.tolist())
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
        moments = table.moment_rows(table.classes)[2]
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


def _lex_extreme(rows: np.ndarray, rhs, free: np.ndarray):
    """The lexicographic maximum of q, in class order, over {q >= 0 :
    rows q = rhs, q_j = 0 off ``free``}: one LP per class still free, each
    narrowing the face to its own optimal face.  None when an LP fails."""
    q = None
    for k in range(rows.shape[1]):
        if k in free:
            step = _face_optimum(rows, rhs, free, np.eye(rows.shape[1])[k])
            if step is None:
                return None
            q, free = step
    return q


def dissociated_mle(x: LabeledNetwork) -> FitReport:
    """Maximize P(X = x) over exchangeable dissociated distributions.

    The variables are the class probabilities q.  With t = z_edge fixed,
    every product row z_U = t z_C is linear, so v(t) = max q_x is an LP.
    ``_branch_and_bound`` brackets max_t v(t) within ``BNB_GAP``.  When
    its upper bound exceeds its best v by more than ``REFINE_GAP``
    (relative), golden-section search on v over the t interval of the best
    box refines t*; otherwise the branch and bound's own t already attains
    the proven maximum and is kept.  At n <= 3 there is no product row, and
    the fit is one LP.

    The reported q is the lexicographic maximum over the optimal face at t*
    in class order, a vertex of it: any other point of the face puts mass
    on a free class q leaves empty, and the status is non-unique when one
    LP finds more than ``DISTINCT_TOL`` there.  On all 52 inputs the cap
    allows (each class padded to n = 1..5) v(t* +- 1e-4) is at least 2.2e-8
    (relative) below v(t*), so this test alone decides: lifting
    ``MAX_DISSOCIATED_NODES`` means checking that again.  ``iterations``
    counts the node LPs; ``log_likelihood_upper`` logs the final upper bound.
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
        if upper > best * (1 + REFINE_GAP):

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
    q_max = spread = None
    if start is not None:
        q_max = _lex_extreme(rows, rhs, start[1])
    if q_max is not None:
        face = start[1]
        off = np.zeros(dim)
        off[face[q_max[face] <= FACE_TOL]] = 1.0
        spread = _face_optimum(rows, rhs, face, off)
    if spread is None:
        return FitReport(
            "dissociated", STATUS_FAILED, float("-inf"), iterations=nodes
        )
    distinct = float(off @ spread[0]) > DISTINCT_TOL
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
        log_likelihood_upper=math.log(upper / size),
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


@lru_cache(maxsize=None)
def _stat_table(family: str, n: int) -> np.ndarray:
    """The family's statistics of every class at n, one row per class in
    ``enumerate_classes(n)`` order, read-only.  A sem row is the padded
    class's degree counts 1..n-1, read from the class codes without a sigma
    table.  Any other column is the row of S for its statistic class, zero
    for a class on more than n vertices, read as a transposed view (one row
    at n = 7 costs no transposing copy of S_7).  The bits of the fits' float
    products depend on the layout, so the fits take C-order float copies."""
    if family == "sem":
        classes = enumerate_classes(n, True)
        # dyad d < C(k, 2) of n's colex dyads is bit C(k, 2) - 1 - d of a k-vertex code
        top = np.array([num_dyads(u.n_vertices) - 1 for u in classes])[:, None]
        bit = top - np.arange(num_dyads(n))
        edges = np.array([u.code for u in classes])[:, None] >> np.maximum(bit, 0) & (bit >= 0)
        degrees = edges @ (np.array(dyads(n)).reshape(-1, 2, 1) == np.arange(1, n + 1)).sum(axis=1)
        out = (degrees[:, :, None] == np.arange(1, n)).sum(axis=1)
    else:
        table = class_table(n)
        idx = np.array([table.index.get(u, -1) for u in _family_table(family, n)[1]], dtype=int)
        out = table.rows(idx.clip(0))
        out[idx < 0] = 0
        out = out.T
    out.flags.writeable = False
    return out


def _class_index(spec: ErgmSpec, x: LabeledNetwork) -> int:
    """x's row in the family's statistics table."""
    if x.n != spec.n:
        raise ValueError(f"network on {x.n} nodes, family at n={spec.n}")
    return class_table(spec.n).index[UnlabeledClass.of(x)]


def ergm_stats(spec: ErgmSpec, x: LabeledNetwork) -> tuple:
    """Exact integer statistic vector for the family: x's row of its table."""
    return tuple(_stat_table(spec.family, spec.n)[_class_index(spec, x)].tolist())


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


def _gibbs_weights(stats, sizes, nu) -> tuple:
    """Unnormalized class weights exp(S nu + log|class| - shift) and the
    shift, the largest exponent; an exponent past float range stays inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        expo = stats @ nu + np.log(sizes)
        shift = float(np.max(expo))
        return np.exp(expo - shift), shift


def ergm_eval(spec: ErgmSpec, nu, x: LabeledNetwork) -> float:
    """Normalized probability of x under the family with parameters nu."""
    if spec.n > MAX_FIT_NODES:
        raise SizeCapError(f"ergm evaluation supports n <= {MAX_FIT_NODES}")
    vec = _nu_vector(spec, nu)
    stats = _stat_table(spec.family, spec.n).astype(float, order="C")
    w, shift = _gibbs_weights(stats, class_table(spec.n).sizes.astype(float), vec)
    psi = shift + math.log(float(np.sum(w)))
    # an exponent beyond float range makes the partition inf - inf
    if not math.isfinite(psi):
        raise InvalidParametersError(f"log partition is {psi} at these parameters")
    with np.errstate(over="ignore"):
        return math.exp(float(stats[_class_index(spec, x)] @ vec) - psi)


def _facial_set(spec: ErgmSpec, stats, x_idx: int) -> np.ndarray:
    """The classes W whose statistics s(W) lie on the smallest face of
    conv{s(W)} that holds s(x), as a boolean mask over the classes.

    s(x) is in the relative interior of the hull of points P exactly when
    every point can take a positive weight: the exact LP mu >= 0,
    sum_p mu_p (p - s(x)) = -sum_p (p - s(x)) over the distinct points.
    While that LP is infeasible, its Farkas vector y scores
    y.(p - s(x)) <= 0 on every point and < 0 on some, and the face keeps
    the points that score 0; y over its common denominator scores each
    point in integers, with the same signs.  Full exchangeable statistics
    form a unitriangular S, so each class point is a vertex and the face is
    x's class.
    """
    if spec.family == "full_exchangeable":
        return np.arange(len(stats)) == x_idx
    gaps = list(map(tuple, (stats - stats[x_idx]).tolist()))
    points = sorted(set(gaps))
    point_of = {g: k for k, g in enumerate(points)}
    on = np.ones(len(points), dtype=bool)
    while True:
        cols = [g for g, keep in zip(points, on) if keep]
        rows = [list(r) for r in zip(*cols)]
        res = solve_feasibility(rows, [-sum(r) for r in rows])
        if res.feasible:
            return on[[point_of[g] for g in gaps]]
        y = _over_lcm(res.dual)[0]
        scores = [sum(map(operator.mul, y, g)) for g in cols]
        if max(scores) > 0 or min(scores) == 0:
            raise InvariantError(f"{spec.family} Farkas vector {res.dual}")
        on[on] = [sc == 0 for sc in scores]


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
    table = class_table(spec.n)
    x_idx = _class_index(spec, x)
    stats = _stat_table(spec.family, spec.n)
    face = _facial_set(spec, stats, x_idx)
    interior = bool(face.all())
    target = stats[x_idx].astype(float)
    stats, sizes = stats[face].astype(float, order="C"), table.sizes[face].astype(float)
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

    q = np.zeros(len(table.classes))
    q[face] = moments(nu)[0]
    cd = ClassDistribution(spec.n, {u: float(p) for u, p in zip(table.classes, q)})
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
    """Groups (size >= 2) of classes on n nodes sharing a degree distribution
    when padded with isolated vertices to n nodes: their sem statistics,
    the counts of degrees 1..n-1, which fix the count of degree 0.  n < 1
    is refused with ``InvalidParametersError``."""
    if n < 1:
        raise InvalidParametersError("degree collision scan needs n >= 1")
    # classes are enumerated in sort-key order, so each group is sorted and
    # the groups come out in the order of their first classes
    groups: dict = {}
    for u, row in zip(enumerate_classes(n, True), _stat_table("sem", n).tolist()):
        groups.setdefault(tuple(row), []).append(u)
    return [g for g in groups.values() if len(g) >= 2]


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
    table = class_table(n)
    out = []
    for group in degree_collision_classes(n):
        # equal degrees, so equal edge counts: the rows share one sign
        rows = [table.signed_supergraphs(table.index[u]) for u in group]
        for (u1, r1), (u2, r2) in itertools.combinations(zip(group, rows), 2):
            coeffs = {u: a - b for u, a, b in zip(table.classes, r1, r2) if a != b}
            out.append(SummarizedConstraint((u1, u2), coeffs))
    return out
