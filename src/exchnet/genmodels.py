"""Generative network models: independent ties, node propensities, their
mixtures, and symmetric-kernel (graphon-style) models.

Exact joint tables are produced wherever the mixing structure is finite; the
Gaussian mixing kind and kernel sampling are seeded Monte Carlo.
"""

from __future__ import annotations

import functools
import math
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .counting import cycle_class, star_class
from .estimation import ClassDistribution
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
    InvalidParametersError,
    JointTable,
    MobiusVector,
)

MAX_EXACT_MIX_NODES = 5
MAX_SAMPLE_NODES = 2000  # one sample at n = 2000: 7 s, 0.45 GB (Python 3.11)


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


# --- independent ties ---------------------------------------------------------


def _dyad_products(pv: Sequence) -> list:
    """P(X = x) for every dyad mask x when dyad k is a tie with probability
    pv[k], independently: the factors multiplied in colex order."""
    probs = []
    for mask in range(1 << len(pv)):
        prod = 1.0
        for k, pk in enumerate(pv):
            prod *= pk if mask >> k & 1 else 1.0 - pk
        probs.append(prod)
    return probs


def _tie_sample(n: int, seed: int, draw_nodes: Callable) -> LabeledNetwork:
    """One network from ``random.Random(seed)``: ``draw_nodes(rng)`` draws the
    node values and returns tie_prob(i, j); each dyad, in colex order, is then
    a tie when one draw falls below it.  n > ``MAX_SAMPLE_NODES`` is refused."""
    if n > MAX_SAMPLE_NODES:
        raise SizeCapError(f"sampling supports n <= {MAX_SAMPLE_NODES}, got {n}")
    rng = random.Random(seed)
    tie_prob = draw_nodes(rng)
    # the colex pairs walked in place: ``dyads(n)`` would keep them cached
    edges = [
        (i, j)
        for j in range(2, n + 1)
        for i in range(1, j)
        if rng.random() < tie_prob(i, j)
    ]
    return LabeledNetwork.from_edges(n, edges)


def er_joint(n: int, p) -> JointTable:
    """All dyads independent with tie probability p (exact if p is rational).

    A float p takes the per-dyad product of ``beta_joint``, so the two agree
    bit for bit at a constant tie probability.
    """
    if n > MAX_LATTICE_NODES:
        raise SizeCapError(f"joint tables support n <= {MAX_LATTICE_NODES}")
    m = num_dyads(n)
    if not isinstance(p, (Fraction, int)):
        return JointTable(n, tuple(_dyad_products([p] * m)))
    q = Fraction(1) - p
    by_edges = [p**k * q ** (m - k) for k in range(m + 1)]
    return JointTable(
        n, tuple(by_edges[bin(mask).count("1")] for mask in range(1 << m))
    )


def er_mobius(n: int, p) -> MobiusVector:
    """Class moments of independent ties: z depends only on the edge count."""
    z = {}
    for u in enumerate_classes(n, True):
        if u.is_empty:
            z[u] = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
        else:
            z[u] = p**u.edge_count
    return MobiusVector(n, z)


def er_class_distribution(n: int, p) -> ClassDistribution:
    m = num_dyads(n)
    one = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
    q = {}
    for u in enumerate_classes(n, True):
        e = u.edge_count
        q[u] = class_size(u, n) * p**e * (one - p) ** (m - e)
    return ClassDistribution(n, q)


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

    def tie_prob(self, i: int, j: int) -> float:
        return _sigmoid(self.beta[i - 1] + self.beta[j - 1])


def beta_joint(spec: BetaSpec) -> JointTable:
    """Exact product over dyads of independent, node-driven tie probabilities."""
    n = spec.n
    if n > MAX_LATTICE_NODES:
        raise SizeCapError(f"joint tables support n <= {MAX_LATTICE_NODES}")
    pv = [spec.tie_prob(i, j) for i, j in dyads(n)]
    return JointTable(n, tuple(_dyad_products(pv)))


# --- marginal mixture over propensities ----------------------------------------


@dataclass(frozen=True)
class MixingSpec:
    """Distribution of the i.i.d. node propensities.

    kinds: ``point_mass(beta)``, ``two_point(beta_a, beta_b, w)`` with w the
    weight of beta_a, and ``gaussian(mu, sigma, mc_samples, seed)``.  Only
    kinds with finite logistic moments are supported; arbitrary mixing
    distributions are not.
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
    def gaussian(
        cls, mu: float, sigma: float, mc_samples: int, seed: int
    ) -> "MixingSpec":
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        return cls("gaussian", (float(mu), float(sigma), int(mc_samples), int(seed)))

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

    Exact atom sums for point and two-point kinds; the Gaussian kind uses
    seeded Monte Carlo and reports the largest per-configuration standard
    error on the resulting table.
    """
    if n > MAX_EXACT_MIX_NODES:
        raise SizeCapError(f"mixing joints support n <= {MAX_EXACT_MIX_NODES}")
    if mix.kind in ("point_mass", "two_point"):
        atoms = mix.atoms()
        m = num_dyads(n)
        acc = np.zeros(1 << m)
        for assign in range(len(atoms) ** n):
            t = assign
            betas = []
            weight = 1.0
            for _ in range(n):
                val, w = atoms[t % len(atoms)]
                t //= len(atoms)
                betas.append(val)
                weight *= w
            if weight == 0.0:
                continue
            jt = beta_joint(BetaSpec(tuple(betas)))
            acc += weight * np.asarray(jt.probs)
        acc /= acc.sum()
        return JointTable(n, tuple(float(v) for v in acc))
    if mix.kind == "gaussian":
        mu, sigma, samples, seed = mix.params
        rng = random.Random(seed)
        m = num_dyads(n)
        acc = np.zeros(1 << m)
        sq = np.zeros(1 << m)
        for _ in range(samples):
            betas = tuple(rng.gauss(mu, sigma) for _ in range(n))
            row = np.asarray(beta_joint(BetaSpec(betas)).probs)
            acc += row
            sq += row * row
        mean = acc / samples
        var = np.maximum(sq / samples - mean * mean, 0.0)
        se = float(np.max(np.sqrt(var / samples)))
        mean /= mean.sum()
        return JointTable(n, tuple(float(v) for v in mean), mc_std_error=se)
    raise ValueError(f"unknown mixing kind {mix.kind!r}")


# --- symmetric-kernel models ----------------------------------------------------


SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Graphon:
    """A symmetric kernel on the unit square with values in [0, 1].

    Either a named closed form (constant, or the logistic product form driven
    by a Gaussian propensity quantile) or a grid with bilinear interpolation.
    The kernel's midpoint lattice at each resolution is computed on first use
    and kept for the life of the object (``midpoint_grid``).
    """

    fn: Callable
    description: str
    _grids: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # spot-check symmetry and range on a coarse lattice
        pts = [k / 7 for k in range(8)]
        for u in pts:
            for v in pts:
                a = self.fn(u, v)
                b = self.fn(v, u)
                if abs(a - b) > SYMMETRY_TOL:
                    raise ValueError(f"kernel not symmetric at ({u}, {v})")
                if not -1e-12 <= a <= 1 + 1e-12:
                    raise ValueError(f"kernel value {a} outside [0, 1]")

    def __call__(self, u: float, v: float) -> float:
        return min(1.0, max(0.0, self.fn(u, v)))

    def midpoint_grid(self, r: int) -> np.ndarray:
        """The kernel at ((i + 1/2) / r, (j + 1/2) / r) for 0 <= i, j < r, as
        a read-only r x r array; the kernel is called at i <= j only, and the
        grid is built once per resolution."""
        grid = self._grids.get(r)
        if grid is None:
            pts = (np.arange(r) + 0.5) / r
            grid = np.empty((r, r))
            for i in range(r):
                for j in range(i, r):
                    val = self(float(pts[i]), float(pts[j]))
                    grid[i, j] = val
                    grid[j, i] = val
            grid.flags.writeable = False
            self._grids[r] = grid
        return grid

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
        if not sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        nd = NormalDist(mu, sigma) if sigma > 0 else None

        def beta_of(u: float) -> float:
            if nd is None:
                return mu
            u = min(max(u, 1e-12), 1 - 1e-12)
            return nd.inv_cdf(u)

        return cls(
            lambda u, v: _sigmoid(beta_of(u) + beta_of(v)),
            f"product:logistic:{mu},{sigma}",
        )

    @classmethod
    def from_grid(cls, values: Sequence) -> "Graphon":
        grid = np.asarray(values, dtype=float)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be square")
        if np.max(np.abs(grid - grid.T)) > SYMMETRY_TOL:
            raise ValueError("grid must be symmetric")
        if grid.min() < 0 or grid.max() > 1:
            raise ValueError("grid values must lie in [0, 1]")
        r = grid.shape[0]

        def interp(u: float, v: float) -> float:
            if r == 1:
                return float(grid[0, 0])
            # one evaluation order for (u, v) and (v, u): exactly symmetric
            u, v = min(u, v), max(u, v)
            x = min(max(u, 0.0), 1.0) * (r - 1)
            y = min(max(v, 0.0), 1.0) * (r - 1)
            x0, y0 = int(x), int(y)
            x1, y1 = min(x0 + 1, r - 1), min(y0 + 1, r - 1)
            fx, fy = x - x0, y - y0
            return float(
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
    once per process and the same object (with its midpoint grids) is
    returned on later calls.
    """
    if spec.startswith("const:"):
        return Graphon.constant(float(spec.split(":", 1)[1]))
    if spec.startswith("product:logistic:"):
        args = spec.split(":", 2)[2]
        mu_s, sigma_s = args.split(",")
        return Graphon.product_logistic(float(mu_s), float(sigma_s))
    raise ValueError(f"unknown kernel spec {spec!r}")


def graphon_sample(phi: Graphon, n: int, seed: int) -> LabeledNetwork:
    """One network: uniform node coordinates, independent ties through phi."""

    def draw_nodes(rng):
        u = [rng.random() for _ in range(n)]
        return lambda i, j: phi(u[i - 1], u[j - 1])

    return _tie_sample(n, seed, draw_nodes)


def beta_sample(spec: BetaSpec, seed: int) -> LabeledNetwork:
    return _tie_sample(spec.n, seed, lambda rng: spec.tie_prob)


def marginal_beta_sample(n: int, mix: MixingSpec, seed: int) -> LabeledNetwork:
    def draw_nodes(rng):
        if mix.kind == "gaussian":
            mu, sigma, _, _ = mix.params
            betas = [rng.gauss(mu, sigma) for _ in range(n)]
        else:
            vals, ws = zip(*mix.atoms())
            betas = [rng.choices(vals, weights=ws)[0] for _ in range(n)]
        return BetaSpec(tuple(betas)).tie_prob

    return _tie_sample(n, seed, draw_nodes)


# --- kernel moments ---------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    error: float  # quadrature gap or Monte Carlo standard error
    method: str


MAX_MOMENT_VERTICES = 6
# quadrature: the most entries of the r x r grid or of one elimination's
# output, that of K5's first elimination at the default r = 64 (128 MiB)
_MAX_QUADRATURE_ENTRIES = 64**4


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
        if len(union) > 5 or out_size > _MAX_QUADRATURE_ENTRIES:
            raise SizeCapError(
                "quadrature intermediate too large; lower the resolution"
            )
        letters = {var: string.ascii_lowercase[i] for i, var in enumerate(union)}
        subs = [
            "".join(letters[var] for var in vars_) for vars_, _ in touching
        ]
        subs.append(letters[v])  # the weight vector sums v out
        out_vars = tuple(var for var in union if var != v)
        out = "".join(letters[var] for var in out_vars)
        reduced = np.einsum(
            ",".join(subs) + "->" + out,
            *[arr for _, arr in touching],
            w,
            optimize=True,
        )
        if out_vars:
            tensors.append((out_vars, reduced))
        else:
            scalar *= float(reduced)
    return scalar


def _quadrature_value(phi: Graphon, u: UnlabeledClass, r: int) -> float:
    w = np.full(r, 1.0 / r)
    grid = phi.midpoint_grid(r)
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
    value.  The kernel grids at r and r // 2 are read from ``phi``, which
    builds each once (``Graphon.midpoint_grid``), so repeated calls on one
    kernel object, as in ``graphon_mobius``, evaluate the kernel once per
    grid point.  Monte Carlo with ``samples >= 1`` draws, seeded by
    ``seed``, reports the standard error of the mean; fewer samples are
    refused with ``InvalidParametersError``.
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
            raise SizeCapError(
                "quadrature grid too large; lower the resolution"
            )
        val = _quadrature_value(phi, u, r)
        coarse = _quadrature_value(phi, u, max(r // 2, 1))
        return MomentEstimate(val, abs(val - coarse), f"quadrature:{r}")
    if method == "mc":
        if samples < 1:
            raise InvalidParametersError("samples must be >= 1")
        rng = random.Random(seed)
        rep = u.representative()
        k = rep.n
        edges = [(i - 1, j - 1) for i, j in rep.sorted_edges()]
        total = 0.0
        total_sq = 0.0
        for _ in range(samples):
            us = [rng.random() for _ in range(k)]
            prod = 1.0
            for a, b in edges:
                prod *= phi(us[a], us[b])
            total += prod
            total_sq += prod * prod
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        return MomentEstimate(mean, math.sqrt(var / samples), f"mc:{samples}")
    raise ValueError(f"unknown method {method!r}")


def graphon_mobius(phi: Graphon, n: int) -> MobiusVector:
    """Class moments for every class at n, as floats, by ``graphon_z``'s
    default quadrature."""
    z = {}
    for u in enumerate_classes(n, True):
        z[u] = 1.0 if u.is_empty else graphon_z(phi, u).value
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
    with more than four edges are ignored.
    """
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
    s2 = star_class(2)
    c4 = cycle_class(4)
    r2 = abs(float(values[s2]) - eta**2) if s2 in values else float("nan")
    r4 = abs(float(values[c4]) - eta**4) if c4 in values else float("nan")
    return ErDiagnostic(eta, worst_dev, worst, r2, r4)
