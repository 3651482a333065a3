"""Generative network models: independent ties, node propensities, their
mixtures, and symmetric-kernel (graphon-style) models.

Joint tables of finite mixtures are exact atom sums; Gaussian mixing is the
product-logistic kernel's law, read off its quadrature moments.  Sampling is
seeded.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import string
import weakref
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .counting import cycle_class, star_class
from .graphs import (
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_size,
    dyads,
    enumerate_classes,
    num_dyads,
)
from .mobius import (
    MAX_LATTICE_NODES,
    ClassDistribution,
    InvalidParametersError,
    JointTable,
    MobiusVector,
    joint_from_labeled_mobius,
    labeled_from_exchangeable,
)

MAX_EXACT_MIX_NODES = 5
MAX_SAMPLE_NODES = 2000  # one sample at n = 2000: 2.6-4.2 s, 0.17-0.24 GB (Python 3.11)


def _map(f: Callable, x: np.ndarray) -> np.ndarray:
    """The scalar function f on every element of x, as floats."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _sigmoid(t) -> np.ndarray:
    """The logistic function, elementwise, with ``math.exp`` (numpy's exp may
    differ from it in the last bit): a value's bits do not depend on its array."""
    t = np.asarray(t, dtype=float)
    e = _map(math.exp, -np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


# cells evaluated at once: bounds the temporaries (~150 B a logistic cell)
_BLOCK_CELLS = 1 << 15


def _pair_matrix(f: Callable, x: np.ndarray) -> np.ndarray:
    """f(x_i, x_j) for all i, j, f elementwise: the cells i <= j, a block of
    rows at a time, mirrored, so the matrix is exactly symmetric."""
    n = len(x)
    out, k = np.empty((n, n)), np.arange(n)
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    for a in range(0, n, rows):
        i, j = np.nonzero(k[a : a + rows, None] <= k)  # the cells i <= j of these rows
        i += a
        out[i, j] = out[j, i] = f(x[i], x[j])
    return out


# --- independent ties ---------------------------------------------------------


def _dyad_products(n: int, dyad_probs: Callable, one) -> np.ndarray:
    """P(X = x) for every dyad mask x on n <= ``MAX_LATTICE_NODES`` nodes
    when dyad k is a tie with probability ``dyad_probs()[k]``, independently:
    ``one`` (the empty product) times the factors in colex order, so
    rational probabilities stay exact.  n is checked first."""
    if n > MAX_LATTICE_NODES:
        raise SizeCapError(f"joint tables support n <= {MAX_LATTICE_NODES}")
    probs = np.array([one], dtype=object)
    for pk in dyad_probs():
        probs = np.concatenate((probs * (1 - pk), probs * pk))
    return probs


def _tie_sample(n: int, seed: int, f: Callable, draw_nodes: Callable) -> LabeledNetwork:
    """One network from ``random.Random(seed)``: ``draw_nodes(rng)`` draws the
    node values x, then each dyad (i, j), in colex order, is a tie when one
    draw falls below f(x_i, x_j).  n > ``MAX_SAMPLE_NODES`` is refused."""
    if n > MAX_SAMPLE_NODES:
        raise SizeCapError(f"sampling supports n <= {MAX_SAMPLE_NODES}, got {n}")
    rng = random.Random(seed)
    probs = _pair_matrix(f, np.array(draw_nodes(rng), dtype=float))
    # the colex pairs walked in place (``dyads(n)`` would keep them cached)
    # and the ties passed on as drawn, never held as a list
    ties = (
        (i, j)
        for j in range(2, n + 1)
        for i, p in enumerate(probs[j - 1, : j - 1].tolist(), 1)
        if rng.random() < p
    )
    return LabeledNetwork(n, frozenset(ties))


def er_joint(n: int, p) -> JointTable:
    """All dyads independent with tie probability p (exact if p is rational).

    A float p gives the per-dyad product of ``beta_joint``, so the two agree
    bit for bit at a constant tie probability.
    """
    return JointTable(n, tuple(_dyad_products(n, lambda: [p] * num_dyads(n), p**0)))


def er_mobius(n: int, p) -> MobiusVector:
    """Class moments of independent ties: z depends only on the edge count."""
    return MobiusVector(n, {u: p**u.edge_count for u in enumerate_classes(n, True)})


def er_class_distribution(n: int, p) -> ClassDistribution:
    m = num_dyads(n)
    # each power once per edge count; the product stays size * p^e * (1-p)^(m-e),
    # left to right, which keeps the bits of a float table
    ties = [p**e for e in range(m + 1)]
    gaps = [(1 - p) ** (m - e) for e in range(m + 1)]
    return ClassDistribution(n, {
        u: class_size(u, n) * ties[u.edge_count] * gaps[u.edge_count]
        for u in enumerate_classes(n, True)
    })


# --- node-propensity model ----------------------------------------------------


@dataclass(frozen=True)
class BetaSpec:
    """Per-node tie propensities; the tie probability for i~j is the logistic
    of beta_i + beta_j."""

    beta: tuple

    def __post_init__(self):
        if not all(math.isfinite(b) for b in self.beta):
            raise ValueError("propensities must be finite")

    @property
    def n(self) -> int:
        return len(self.beta)

    def dyad_probs(self) -> list:
        """The tie probability of every dyad, in colex order."""
        beta = self.beta
        return _sigmoid([beta[i - 1] + beta[j - 1] for i, j in dyads(self.n)]).tolist()


def beta_joint(spec: BetaSpec) -> JointTable:
    """Exact product over dyads of independent, node-driven tie probabilities."""
    return JointTable(spec.n, tuple(_dyad_products(spec.n, spec.dyad_probs, 1.0)))


# --- marginal mixture over propensities ----------------------------------------


@dataclass(frozen=True)
class MixingSpec:
    """Distribution of the i.i.d. node propensities.

    kinds: ``point_mass(beta)``, ``two_point(beta_a, beta_b, w)`` with w the
    weight of beta_a, and ``gaussian(mu, sigma)``, propensities N(mu, sigma^2).
    Arbitrary mixing distributions are not supported.
    """

    kind: str
    params: tuple

    @classmethod
    def point_mass(cls, beta: float) -> "MixingSpec":
        return cls("point_mass", (float(beta),))

    @classmethod
    def two_point(cls, beta_a: float, beta_b: float, w: float) -> "MixingSpec":
        if not 0 <= w <= 1:
            raise ValueError("mixture weight must be in [0, 1]")
        return cls("two_point", (float(beta_a), float(beta_b), float(w)))

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "MixingSpec":
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        return cls("gaussian", (float(mu), float(sigma)))

    def atoms(self) -> list:
        """(value, weight) support points for the exactly mixable kinds."""
        if self.kind == "point_mass":
            return [(self.params[0], 1.0)]
        if self.kind == "two_point":
            ba, bb, w = self.params
            return [(ba, w), (bb, 1.0 - w)]
        raise ValueError(f"kind {self.kind!r} has no finite atom list")


def marginal_beta_joint(n: int, mix: MixingSpec) -> JointTable:
    """Mixture of node-propensity models over i.i.d. propensities.

    Exact atom sums for point and two-point kinds.  Gaussian mixing is the
    law of the product-logistic kernel (beta = the normal quantile of a
    uniform coordinate): its class moments are ``graphon_z``'s default
    quadrature, expanded to the dyad lattice and inverted, and the table
    carries the largest of their quadrature gaps as ``quadrature_gap``.
    """
    if n > MAX_EXACT_MIX_NODES:
        raise SizeCapError(f"mixing joints support n <= {MAX_EXACT_MIX_NODES}")
    if mix.kind == "gaussian":
        phi = Graphon.product_logistic(*mix.params)
        est = {u: graphon_z(phi, u) for u in enumerate_classes(n, True)}
        z = MobiusVector(n, {u: e.value for u, e in est.items()})
        jt = joint_from_labeled_mobius(labeled_from_exchangeable(z))
        gap = max(e.error for e in est.values())
        return JointTable(n, jt.probs, quadrature_gap=gap)
    if mix.kind in ("point_mass", "two_point"):
        acc = np.zeros(1 << num_dyads(n))
        # node 0's atom varies fastest and weights multiply in node order,
        # the summation order the float table is pinned in
        for combo in itertools.product(mix.atoms(), repeat=n):
            betas, ws = zip(*reversed(combo))
            weight = math.prod(ws)
            if weight != 0.0:
                pv = BetaSpec(betas).dyad_probs
                acc += weight * _dyad_products(n, pv, 1.0).astype(float)
        acc /= acc.sum()
        return JointTable(n, tuple(acc.tolist()))
    raise ValueError(f"unknown mixing kind {mix.kind!r}")


# --- symmetric-kernel models ----------------------------------------------------


SYMMETRY_TOL = 1e-12
# kernel -> {r: midpoint lattice} for r <= 64 (32 KiB a lattice) while the kernel
# lives: parse_graphon_name keeps named kernels, so their lattices are built once
_lattices: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Graphon:
    """A symmetric kernel on the unit square with values in [0, 1].

    Either a named closed form (constant, or the logistic product form driven
    by a Gaussian propensity quantile) or a grid with bilinear interpolation.
    Its value at (u, v) is fn(point(u), point(v)), clamped: ``point`` maps a
    coordinate (the logistic form's quantile), and both act elementwise on
    arrays, so a lattice is one call (a scalar ``fn`` result is a constant).
    """

    fn: Callable
    description: str
    point: Callable = np.asarray

    def __post_init__(self):
        # spot-check symmetry and range on a coarse lattice, in one call
        pts = np.arange(8) / 7
        p = self.point(pts)
        vals = np.full((8, 8), self.fn(p[:, None], p)).tolist()
        for i, j in itertools.product(range(8), repeat=2):
            if abs(vals[i][j] - vals[j][i]) > SYMMETRY_TOL:
                raise ValueError(f"kernel not symmetric at ({pts[i]}, {pts[j]})")
            if not -1e-12 <= vals[i][j] <= 1 + 1e-12:
                raise ValueError(f"kernel value {vals[i][j]} outside [0, 1]")

    def __call__(self, u, v) -> np.ndarray:
        """The kernel at (u, v), elementwise (a constant as a 0-d array)."""
        return self.at(self.point(u), self.point(v))

    def at(self, a, b) -> np.ndarray:
        """``fn`` at mapped points, clamped to [0, 1] as min(1, max(0, x))
        does: NaN and -0.0 read 0.0."""
        x = np.asarray(self.fn(a, b), dtype=float)
        return np.where(x > 0.0, np.where(x < 1.0, x, 1.0), 0.0)

    def midpoint_grid(self, r: int) -> np.ndarray:
        """The kernel at ((i + 1/2) / r, (j + 1/2) / r) for 0 <= i, j < r, a
        read-only r x r array, evaluated at i <= j and mirrored."""
        kept = _lattices.setdefault(self, {}) if r <= 64 else {}
        if r not in kept:
            kept[r] = _pair_matrix(self.at, self.point((np.arange(r) + 0.5) / r))
            kept[r].flags.writeable = False
        return kept[r]

    @classmethod
    def constant(cls, eta: float) -> "Graphon":
        if not 0 <= eta <= 1:
            raise ValueError("constant level must be in [0, 1]")
        return cls(lambda u, v: eta, f"const:{eta}")

    @classmethod
    def product_logistic(cls, mu: float, sigma: float) -> "Graphon":
        """Logistic of the sum of two Gaussian propensities, fed by uniform
        coordinates through the normal quantile; sigma = 0 is the constant
        kernel at the logistic of 2 mu."""
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError("mu and sigma must be finite")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        quantile = NormalDist(mu, sigma).inv_cdf if sigma > 0 else lambda u: mu
        return cls(
            lambda a, b: _sigmoid(a + b),
            f"product:logistic:{mu},{sigma}",
            lambda u: _map(quantile, np.clip(u, 1e-12, 1 - 1e-12)),
        )

    @classmethod
    def from_grid(cls, values: Sequence) -> "Graphon":
        grid = np.asarray(values, dtype=float)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be square")
        # before the symmetry difference, which an infinite cell makes NaN
        if not ((0 <= grid) & (grid <= 1)).all():
            raise ValueError("grid values must lie in [0, 1]")
        if np.max(np.abs(grid - grid.T)) > SYMMETRY_TOL:
            raise ValueError("grid must be symmetric")
        r = grid.shape[0]

        def interp(u, v) -> np.ndarray:
            # one evaluation order for (u, v) and (v, u): exactly symmetric
            x = np.clip(np.minimum(u, v), 0.0, 1.0) * (r - 1)
            y = np.clip(np.maximum(u, v), 0.0, 1.0) * (r - 1)
            x0, y0 = x.astype(np.intp), y.astype(np.intp)
            x1, y1 = np.minimum(x0 + 1, r - 1), np.minimum(y0 + 1, r - 1)
            fx, fy = x - x0, y - y0
            return (
                grid[x0, y0] * (1 - fx) * (1 - fy)
                + grid[x1, y0] * fx * (1 - fy)
                + grid[x0, y1] * (1 - fx) * fy
                + grid[x1, y1] * fx * fy
            )

        return cls(interp, f"grid:{r}")


def parse_graphon_text(text: str) -> Graphon:
    """Parse the grid file format: first line r, then r rows of r floats."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("grid file is empty")
    r = int(lines[0].strip())
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    if len(rows) != r or any(len(row) != r for row in rows):
        raise ValueError(f"grid file must contain {r} rows of {r} values")
    return Graphon.from_grid(rows)


@functools.lru_cache(maxsize=32)
def parse_graphon_name(spec: str) -> Graphon:
    """Named kernels: ``const:eta`` or ``product:logistic:mu,sigma``.

    A named kernel is a function of its spec alone, so each spec is built
    and spot-checked once per process and the same object is returned on
    later calls.
    """
    if spec.startswith("const:"):
        return Graphon.constant(float(spec.split(":", 1)[1]))
    if spec.startswith("product:logistic:"):
        mu, sigma = spec.removeprefix("product:logistic:").split(",")
        return Graphon.product_logistic(float(mu), float(sigma))
    raise ValueError(f"unknown kernel spec {spec!r}")


def graphon_sample(phi: Graphon, n: int, seed: int) -> LabeledNetwork:
    """One network: uniform node coordinates, independent ties through phi."""
    return _tie_sample(
        n, seed, phi.at, lambda r: phi.point([r.random() for _ in range(n)])
    )


def beta_sample(spec: BetaSpec, seed: int) -> LabeledNetwork:
    return _tie_sample(spec.n, seed, lambda a, b: _sigmoid(a + b), lambda rng: spec.beta)


def marginal_beta_sample(n: int, mix: MixingSpec, seed: int) -> LabeledNetwork:
    def draw_nodes(rng):
        if mix.kind == "gaussian":
            mu, sigma = mix.params
            betas = [rng.gauss(mu, sigma) for _ in range(n)]
        else:
            vals, ws = zip(*mix.atoms())
            betas = [rng.choices(vals, weights=ws)[0] for _ in range(n)]
        return BetaSpec(tuple(betas)).beta

    return _tie_sample(n, seed, lambda a, b: _sigmoid(a + b), draw_nodes)


# --- kernel moments ---------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    error: float  # quadrature gap or Monte Carlo standard error
    method: str


MAX_MOMENT_VERTICES = 6
# Monte Carlo draws per moment: K_6 on the logistic kernel takes about 4 us
# a draw (Python 3.11.7, shared 2-CPU machine), about 4 s at the cap
MAX_MC_SAMPLES = 10**6
# quadrature: the most entries of the r x r grid or of one elimination's
# output, that of K5's first elimination at the default r = 64 (128 MiB)
_MAX_QUADRATURE_ENTRIES = 64**4


@functools.lru_cache(maxsize=256)
def _einsum_path(spec: str, shapes: tuple) -> tuple:
    """einsum's own contraction path for operands of these shapes."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(spec, *operands, optimize=True)[0])


def _eliminate(phi_grid: np.ndarray, w: np.ndarray, edges, k: int) -> float:
    """Integrate the product of edge kernels by summing out one vertex at a
    time (min-degree order), contracting only the factors that touch it.
    Each vertex lies on an edge, and a contraction keeps the rest of its
    factors' vertices, so every vertex touches a factor at its turn."""
    tensors = [(tuple(sorted((a, b))), phi_grid) for a, b in edges]
    scalar = 1.0
    remaining = set(range(k))
    while remaining:
        v = min(
            remaining,
            key=lambda t: (sum(1 for vars_, _ in tensors if t in vars_), t),
        )
        touching = [(vars_, arr) for vars_, arr in tensors if v in vars_]
        tensors = [(vars_, arr) for vars_, arr in tensors if v not in vars_]
        remaining.remove(v)
        union = sorted(set().union(*(set(vars_) for vars_, _ in touching)))
        out_size = len(w) ** (len(union) - 1)  # v is summed out
        if out_size > _MAX_QUADRATURE_ENTRIES:
            raise SizeCapError(
                "quadrature intermediate too large; lower the resolution"
            )
        letters = {var: string.ascii_lowercase[i] for i, var in enumerate(union)}
        touching.append(((v,), w))  # the weight vector sums v out
        out_vars = tuple(var for var in union if var != v)
        spec = ",".join("".join(map(letters.get, vars_)) for vars_, _ in touching)
        spec += "->" + "".join(map(letters.get, out_vars))
        path = _einsum_path(spec, tuple(arr.shape for _, arr in touching))
        reduced = np.einsum(spec, *(arr for _, arr in touching), optimize=path)
        if out_vars:
            tensors.append((out_vars, reduced))
        else:
            scalar *= float(reduced)
    return scalar


def _quadrature_value(grid: np.ndarray, u: UnlabeledClass) -> float:
    w = np.full(len(grid), 1.0 / len(grid))
    rep = u.representative()
    edges = [(i - 1, j - 1) for i, j in rep.sorted_edges()]
    c = float(grid[0, 0])
    if np.all(grid == c):
        # constant integrand: the quadrature sum collapses in closed form,
        # keeping constant kernels bit-exact
        return c ** len(edges) * float(np.sum(w)) ** rep.n
    return _eliminate(grid, w, edges, rep.n)


def graphon_z(
    phi: Graphon,
    u: UnlabeledClass,
    *,
    method: str = "quadrature",
    r: int = 64,
    samples: int = 10000,
    seed: int = 0,
) -> MomentEstimate:
    """The class moment of a kernel model: the integral over independent
    uniform coordinates of the product of edge kernels.

    Midpoint quadrature at resolution r (a power of two keeps constant
    kernels exact); the reported error is the gap to the half-resolution
    value, each lattice one evaluation of the kernel.  Monte Carlo with
    ``samples >= 1`` draws, seeded by ``seed``, evaluates the kernel on a
    chunk of draws at a time and reports the standard error of the mean;
    fewer samples are refused with ``InvalidParametersError``, more than
    ``MAX_MC_SAMPLES`` with ``SizeCapError``.
    """
    if u.is_empty:
        return MomentEstimate(1.0, 0.0, method)
    if u.n_vertices > MAX_MOMENT_VERTICES:
        raise SizeCapError(
            f"kernel moments support classes on <= {MAX_MOMENT_VERTICES} vertices"
        )
    if method == "quadrature":
        if r < 2:
            raise ValueError("resolution must be >= 2")
        if r * r > _MAX_QUADRATURE_ENTRIES:
            raise SizeCapError("quadrature grid too large; lower the resolution")
        val = _quadrature_value(phi.midpoint_grid(r), u)
        coarse = _quadrature_value(phi.midpoint_grid(r // 2), u)
        return MomentEstimate(val, abs(val - coarse), f"quadrature:{r}")
    if method == "mc":
        if samples < 1:
            raise InvalidParametersError("samples must be >= 1")
        if samples > MAX_MC_SAMPLES:
            raise SizeCapError(f"kernel moments support samples <= {MAX_MC_SAMPLES}")
        rng = random.Random(seed)
        rep = u.representative()
        edges = [(i - 1, j - 1) for i, j in rep.sorted_edges()]
        total = total_sq = 0.0
        chunk = max(1, _BLOCK_CELLS // (len(edges) * rep.n))  # draws a block
        for start in range(0, samples, chunk):
            c = min(chunk, samples - start)
            us = np.array([rng.random() for _ in range(c * rep.n)]).reshape(c, rep.n)
            pts, prod = phi.point(us), np.ones(c)
            for a, b in edges:  # in edge order, as one draw multiplies
                prod *= phi.at(pts[:, a], pts[:, b])
            # draw by draw: cumsum adds left to right, np.sum pairwise
            total = float(np.cumsum(np.append(total, prod))[-1])
            total_sq = float(np.cumsum(np.append(total_sq, prod * prod))[-1])
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        return MomentEstimate(mean, math.sqrt(var / samples), f"mc:{samples}")
    raise ValueError(f"unknown method {method!r}")


def graphon_mobius(phi: Graphon, n: int) -> MobiusVector:
    """Class moments at n, as floats, by ``graphon_z``'s quadrature at r = 64 on one
    lattice; K_n needs 64^(n-1) entries, so n >= 6 takes a constant kernel."""
    grid = phi.midpoint_grid(64)
    if 64 ** (n - 1) > _MAX_QUADRATURE_ENTRIES and (grid != grid[0, 0]).any():
        raise SizeCapError(f"kernel moments at n={n} need K_{n} past the cap at r = 64")
    z = {u: _quadrature_value(grid, u) for u in enumerate_classes(n, True)}
    return MobiusVector(n, z)


# --- independence characterization diagnostic -----------------------------------

# the largest moment deviation that does not flag dependence
ER_DEVIATION_TOL = 1e-12


@dataclass(frozen=True)
class ErDiagnostic:
    """Moment deviations from an independent-ties model at level eta.

    ``max_deviation`` ranges over all supplied classes with at most four
    edges; the two named residuals isolate the hypothesis moments (the 2-star
    and the 4-cycle).  This is a reporter of finite moment deviations, not a
    proof of independence.
    """

    eta: float
    max_deviation: float
    worst_class: UnlabeledClass | None
    residual_two_star: float
    residual_four_cycle: float

    def flags_dependence(self) -> bool:
        return self.max_deviation > ER_DEVIATION_TOL


def er_characterization_diagnostic(z, eta: float) -> ErDiagnostic:
    """Compare class moments against powers of eta.

    ``z`` may be a MobiusVector or a mapping from classes to values; classes
    with more than four edges are ignored.  A level outside [0, 1], NaN
    included, raises ``InvalidParametersError``.
    """
    if not 0 <= eta <= 1:
        raise InvalidParametersError(f"level {eta} is outside [0, 1]")
    values = z.z if isinstance(z, MobiusVector) else z
    worst = None
    worst_dev = 0.0
    for u, v in values.items():
        if u.is_empty or u.edge_count > 4:
            continue
        dev = abs(float(v) - eta**u.edge_count)
        if dev > worst_dev:
            worst_dev = dev
            worst = u
    s2, c4 = star_class(2), cycle_class(4)
    r2 = abs(float(values[s2]) - eta**2) if s2 in values else float("nan")
    r4 = abs(float(values[c4]) - eta**4) if c4 in values else float("nan")
    return ErDiagnostic(eta, worst_dev, worst, r2, r4)
