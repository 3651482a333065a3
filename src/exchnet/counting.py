"""Injective homomorphism and subgraph counting, and degree-based shortcuts.

Conventions: the empty graph maps into anything in exactly one way, so
``inj(empty, G) = 1`` and every sigma vector carries a 1 for the empty class.
A pattern larger than its target yields 0.

:func:`class_table` holds the sigma counts between all classes at a node
count, which every class-moment computation reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .graphs import (
    DegreeDistribution,
    InvariantError,
    LabeledNetwork,
    UnlabeledClass,
    aut_count,
    class_aut,
    dyad_index,
    dyads,
    enumerate_classes,
    num_dyads,
)

# Work over the full labeled dyad lattice stops here: 2^15 masks at n = 6,
# 2^21 at n = 7.  Above it the class table counts pair by pair.
MAX_LATTICE_NODES = 6


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InvariantError(f"{what}: {num} is not divisible by {den}")
    return q


def _falling_factorial(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _pattern_order(adj: list, k: int) -> list:
    """Vertex order for backtracking: highest degree first, then neighbors of
    already-placed vertices, so edge constraints bite as early as possible."""
    deg = [bin(a).count("1") for a in adj]
    order: list = []
    placed = 0
    while len(order) < k:
        best_v, best_key = -1, None
        for v in range(k):
            if placed >> v & 1:
                continue
            anchored = bin(adj[v] & placed).count("1")
            key = (anchored, deg[v])
            if best_key is None or key > best_key:
                best_key, best_v = key, v
        order.append(best_v)
        placed |= 1 << best_v
    return order


def _inj_masks(f_adj: list, k: int, g_adj: list, m: int) -> int:
    """Count injective maps {0..k-1} -> {0..m-1} preserving f's edges."""
    if k > m:
        return 0
    if k == 0:
        return 1
    order = _pattern_order(f_adj, k)
    pos_of = {v: p for p, v in enumerate(order)}
    # earlier_nbrs[p] = positions (already assigned) adjacent to order[p]
    earlier_nbrs = []
    for p, v in enumerate(order):
        earlier_nbrs.append(
            [pos_of[u] for u in range(k) if (f_adj[v] >> u) & 1 and pos_of[u] < p]
        )
    image = [0] * k
    count = 0

    def rec(p: int, used: int):
        nonlocal count
        if p == k:
            count += 1
            return
        req = earlier_nbrs[p]
        for w in range(m):
            if used >> w & 1:
                continue
            ok = True
            for q in req:
                if not (g_adj[image[q]] >> w) & 1:
                    ok = False
                    break
            if ok:
                image[p] = w
                rec(p + 1, used | (1 << w))

    rec(0, 0)
    return count


@lru_cache(maxsize=500000)
def _inj_cached(fn: int, fmask: int, gn: int, gmask: int) -> int:
    f = LabeledNetwork.from_mask(fn, fmask)
    g = LabeledNetwork.from_mask(gn, gmask)
    return _inj_masks(f.adjacency_bitsets(), f.n, g.adjacency_bitsets(), g.n)


def inj(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Number of injective homomorphisms from f (on its non-isolated support)
    into g.  Edges must map to edges; non-edges are unconstrained."""
    fs = f.restrict_to_support() if f.edges else LabeledNetwork.empty(0)
    if fs.n > g.n:
        return 0
    return _inj_cached(fs.n, fs.mask, g.n, g.mask)


def sub(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Number of subgraphs of g isomorphic to f: inj(f,g) / aut(f)."""
    fs = f.restrict_to_support() if f.edges else LabeledNetwork.empty(0)
    return _exact_div(inj(fs, g), aut_of_support(fs), "inj by aut")


@lru_cache(maxsize=500000)
def _aut_of_mask(n: int, mask: int) -> int:
    return aut_count(LabeledNetwork.from_mask(n, mask))


def aut_of_support(f: LabeledNetwork) -> int:
    fs = f.restrict_to_support() if f.edges else LabeledNetwork.empty(0)
    if fs.n == 0:
        return 1
    return _aut_of_mask(fs.n, fs.mask)


def t_inj(f: LabeledNetwork, g: LabeledNetwork) -> Fraction:
    """Injective homomorphism density: inj(f,g) over all injective maps."""
    fs = f.restrict_to_support() if f.edges else LabeledNetwork.empty(0)
    denom = _falling_factorial(g.n, fs.n)
    return Fraction(inj(fs, g), denom)


def sigma(u: UnlabeledClass, x: LabeledNetwork) -> int:
    """Number of labeled members of the class that are subgraphs of x."""
    if u.is_empty:
        return 1
    if u.n_vertices > x.n:
        return 0
    return sub(u.representative(), x)


def sigma_vector(x: LabeledNetwork, n: int | None = None) -> dict:
    """sigma over every class at n (default: x's node count), empty included."""
    n = x.n if n is None else n
    classes = enumerate_classes(n, True)
    return dict(zip(classes, class_table(max(n, x.n)).sigmas(x, classes)))


def _swap_tables(n: int, a: int) -> tuple:
    """Lookup tables for the dyad-mask map of swapping nodes a and a + 1:
    the image of a mask is ``lo[mask & 255] | hi[mask >> 8]`` (n <= 6)."""
    swap = {a: a + 1, a + 1: a}
    img = [dyad_index(swap.get(i, i), swap.get(j, j)) for i, j in dyads(n)]

    def table(first: int) -> list:
        bits = img[first : first + 8]
        out = [0] * (1 << len(bits))
        for v in range(1, len(out)):
            low = v & -v
            out[v] = out[v ^ low] | 1 << bits[low.bit_length() - 1]
        return out

    return table(0), table(8)


def _lattice_positions(n: int, classes: tuple) -> list:
    """Position in ``classes`` of the class of every dyad mask on n nodes.

    Each class's padded representative is pushed through the adjacent node
    swaps, which generate all n! relabelings, so its whole orbit is reached.
    """
    gens = [_swap_tables(n, a) for a in range(1, n)]
    pos = [-1] * (1 << num_dyads(n))
    for k, u in enumerate(classes):
        start = u.representative().mask
        pos[start] = k
        stack = [start]
        while stack:
            mask = stack.pop()
            for lo, hi in gens:
                image = lo[mask & 255] | hi[mask >> 8]
                if pos[image] < 0:
                    pos[image] = k
                    stack.append(image)
    if -1 in pos:
        raise InvariantError(f"class orbits do not cover the lattice at n={n}")
    return pos


class ClassTable:
    """sigma counts between the classes at n: S[U][W] = sigma_U(W padded to n).

    Rows and columns follow ``enumerate_classes(n)``, the empty class first
    and K_n last, so S[U][K_n] = sub(U, K_n) and the class moments of a class
    distribution q are z = D^-1 S q with D = diag(S[.][K_n]).  Up to
    ``MAX_LATTICE_NODES`` the whole matrix is built once: every W counts the
    classes of its edge subsets, looked up in a mask-to-class array of the
    dyad lattice.  Above it each request runs one ``sigma`` search per pair.
    """

    def __init__(self, n: int):
        self.n = n
        self.classes = tuple(enumerate_classes(n, True))
        self.index = {u: k for k, u in enumerate(self.classes)}
        self._pos = None
        self._rows = None
        if n <= MAX_LATTICE_NODES:
            self._pos = _lattice_positions(n, self.classes)
            rows = [[0] * len(self.classes) for _ in self.classes]
            for j, w in enumerate(self.classes):
                full = w.representative().mask
                part = full
                while True:
                    rows[self._pos[part]][j] += 1
                    if not part:
                        break
                    part = (part - 1) & full
            self._rows = tuple(tuple(r) for r in rows)

    def row(self, u: UnlabeledClass) -> tuple:
        """S[U][W] for every class W at n; all zero for a class on more than
        n vertices, which no network on n nodes contains."""
        if u.n_vertices > self.n:
            return (0,) * len(self.classes)
        if self._rows is None:
            return tuple(sigma(u, w.padded(self.n)) for w in self.classes)
        return self._rows[self.index[u]]

    def sigmas(self, x: LabeledNetwork, classes=None) -> tuple:
        """sigma_U(x) for each U in ``classes`` (default: every class at n)."""
        if x.n > self.n:
            raise ValueError(f"network on {x.n} nodes, table for n={self.n}")
        if self._rows is None:
            classes = self.classes if classes is None else classes
            return tuple(sigma(u, x) for u in classes)
        j = self._pos[x.mask]
        if classes is None:
            return tuple(r[j] for r in self._rows)
        return tuple(self.row(u)[j] for u in classes)


@lru_cache(maxsize=None)
def class_table(n: int) -> ClassTable:
    """The sigma table at n, built on first use."""
    return ClassTable(n)


@lru_cache(maxsize=500000)
def _r_count_cached(u: UnlabeledClass, n: int, xn: int, xmask: int) -> int:
    x = LabeledNetwork.from_mask(xn, xmask)
    xs = x.restrict_to_support() if x.edges else LabeledNetwork.empty(0)
    k = xs.n
    uv = u.n_vertices
    if uv > n:
        return 0
    padded = u.padded(n)
    num = inj(xs, padded) * math.factorial(n - k)
    den = class_aut(u) * math.factorial(n - uv)
    return _exact_div(num, den, "labeled supergraph count")


def r_count(u: UnlabeledClass, x: LabeledNetwork) -> int:
    """Number of labeled graphs on x's node set in class u that contain x.

    Counted via orbit arithmetic: permutations embedding x into the padded
    representative of u, divided by the padded automorphism count.  Equivalent
    to enumerating the labeled members of the class and testing containment.
    """
    return _r_count_cached(u, x.n, x.n, x.mask)


def sub_in_complete(u: UnlabeledClass, n: int) -> int:
    """sub(u, K_n): copies of the class inside the complete graph, which are
    the n!/(n-k)! injections of its k vertices over its automorphisms."""
    if u.n_vertices > n:
        return 0
    return _exact_div(
        _falling_factorial(n, u.n_vertices), class_aut(u), "copies in K_n"
    )


def star_count_from_degrees(dd: DegreeDistribution, k: int) -> int:
    """k-star count as a degree-distribution functional.

    For k >= 2 every hub of degree j contributes C(j, k); for k = 1 this
    counts edges (half the total degree).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        total = sum(j * c for j, c in enumerate(dd.counts))
        return _exact_div(total, 2, "total degree")
    return sum(math.comb(j, k) * c for j, c in enumerate(dd.counts))


def two_disjoint_edges_from_degrees(dd: DegreeDistribution) -> int:
    """Count of two-disjoint-edge subgraphs: C(|E|, 2) minus the 2-star count."""
    e = star_count_from_degrees(dd, 1)
    return math.comb(e, 2) - star_count_from_degrees(dd, 2)


# Named small classes used throughout.


def edge_class() -> UnlabeledClass:
    return UnlabeledClass.of(LabeledNetwork.from_edges(2, [(1, 2)]))


def star_class(k: int) -> UnlabeledClass:
    """The k-star (hub plus k leaves); the 1-star is a single edge."""
    return UnlabeledClass.of(LabeledNetwork.star(k + 1))


def triangle_class() -> UnlabeledClass:
    return UnlabeledClass.of(LabeledNetwork.complete(3))


def two_disjoint_edges_class() -> UnlabeledClass:
    return UnlabeledClass.of(LabeledNetwork.from_edges(4, [(1, 2), (3, 4)]))


def matching_class(k: int) -> UnlabeledClass:
    """k pairwise disjoint edges."""
    edges = [(2 * t + 1, 2 * t + 2) for t in range(k)]
    return UnlabeledClass.of(LabeledNetwork.from_edges(2 * k, edges))


def path_class(n_vertices: int) -> UnlabeledClass:
    return UnlabeledClass.of(LabeledNetwork.path(n_vertices))


def cycle_class(n_vertices: int) -> UnlabeledClass:
    return UnlabeledClass.of(LabeledNetwork.cycle(n_vertices))


def complete_class(n_vertices: int) -> UnlabeledClass:
    return UnlabeledClass.of(LabeledNetwork.complete(n_vertices))
