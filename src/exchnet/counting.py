"""Injective homomorphism and subgraph counting, and degree-based shortcuts.

Conventions: the empty graph maps into anything in exactly one way, so
``inj(empty, G) = 1`` and every sigma vector carries a 1 for the empty class.
A pattern larger than its target yields 0.

:func:`class_table` holds the sigma counts between all classes at a node
count n <= 7, built by a one-edge recursion without any subgraph search.
Every class-moment computation reads it, and so does :func:`r_count`, the
supergraph count; :func:`inj`, :func:`sub` and :func:`sigma` search one
pattern at a time and serve as its independent check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graphs import (
    MAX_NODES,
    DegreeDistribution,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    _exact_div,
    class_additions,
    class_aut,
    class_size,
    enumerate_classes,
)


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


def inj(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Number of injective homomorphisms from f (on its non-isolated support)
    into g.  Edges must map to edges; non-edges are unconstrained."""
    fs = f.restrict_to_support() if f.edges else LabeledNetwork.empty(0)
    if fs.n > g.n:
        return 0
    return _inj_masks(fs.adjacency_bitsets(), fs.n, g.adjacency_bitsets(), g.n)


def sub(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Number of subgraphs of g isomorphic to f: inj(f,g) / aut(f)."""
    fs = f.restrict_to_support() if f.edges else LabeledNetwork.empty(0)
    return _exact_div(inj(fs, g), class_aut(UnlabeledClass.of(fs)), "inj by aut")


def sigma(u: UnlabeledClass, x: LabeledNetwork) -> int:
    """Number of labeled members of the class that are subgraphs of x."""
    if u.is_empty:
        return 1
    if u.n_vertices > x.n:
        return 0
    return sub(u.representative(), x)


def sigma_vector(x: LabeledNetwork) -> dict:
    """sigma over every class at x's node count, empty included."""
    table = class_table(x.n)
    return dict(zip(table.classes, table.sigmas(x)))


class ClassTable:
    """sigma counts between the classes at n: S[U][W] = sigma_U(W padded to n).

    Rows and columns follow ``enumerate_classes(n)``, the empty class first
    and K_n last, so S[U][K_n] = sub(U, K_n) and the class moments of a class
    distribution q are z = D^-1 S q with D = diag(S[.][K_n]).  S is built
    once, column by column in edge-count order, from the one-edge recursion

        (e(W) - e(U)) S[U][W] = sum_V b(W, V) S[U][V]   for e(U) < e(W),

    which counts the pairs (copy of U in W, edge of W outside it); b(W, V)
    is the number of edges of W whose removal leaves class V.  The diagonal
    is 1 and every other entry with e(U) >= e(W) is 0.  b comes by double
    counting, |V| a(V, W) = |W| b(W, V), from the one-edge additions a(V, W)
    that class enumeration records (``graphs.class_additions``): a(V, W)
    counts the non-edges of V whose addition gives W, and |.| are class
    sizes at n.  The same double counting over the pairs (member of U,
    member of W inside it) gives the supergraph counts
    r(U, x) = |U| S[W][U] / |W| for x in class W.
    """

    def __init__(self, n: int):
        if n > MAX_NODES:
            raise SizeCapError(f"class tables support n <= {MAX_NODES}, got {n}")
        self.n = n
        self.classes = tuple(enumerate_classes(n, True))
        self.index = {u: k for k, u in enumerate(self.classes)}
        self.sizes = np.array(
            [class_size(u, n) for u in self.classes], dtype=np.int64
        )
        sizes = self.sizes.tolist()
        edges = np.array([u.edge_count for u in self.classes])
        # removals[j][k] = b(class j, class k)
        removals: list = [{} for _ in self.classes]
        for k, adds in enumerate(class_additions(n)):
            for j, a in adds.items():
                removals[j][k] = _exact_div(
                    sizes[k] * a, sizes[j], "edge removals"
                )
        # columns in shipped order; the classes with fewer edges come first.
        # Entries are at most sub(U, K_7) <= 7!, sums of them stay in int64.
        below = np.searchsorted(edges, edges)
        s = np.zeros((len(self.classes), len(self.classes)), dtype=np.int32)
        for j, b in enumerate(removals):
            s[j, j] = 1
            lo = below[j]
            acc = s[:lo, list(b)].astype(np.int64) @ np.array(
                list(b.values()), dtype=np.int64
            )
            s[:lo, j], rem = np.divmod(acc, edges[j] - edges[:lo])
            if rem.any():
                raise InvariantError(f"one-edge recursion at n={n}, column {j}")
        self.S = s

    def row(self, u: UnlabeledClass) -> tuple:
        """S[U][W] for every class W at n; all zero for a class on more than
        n vertices, which no network on n nodes contains."""
        if u.n_vertices > self.n:
            return (0,) * len(self.classes)
        return tuple(self.S[self.index[u]].tolist())

    def moment_row(self, u: UnlabeledClass) -> tuple:
        """S[U][W] / sub(U, K_n) as Fractions for every class W at n, so
        that the row dotted with a class distribution q is z_U; U has at
        most n vertices."""
        denom = sub_in_complete(u, self.n)
        row = self.row(u)
        # one Fraction per distinct count: a row has few
        frac = {s: Fraction(s, denom) for s in set(row)}
        return tuple(map(frac.__getitem__, row))

    def sigmas(self, x: LabeledNetwork, classes=None) -> tuple:
        """sigma_U(x) for each U in ``classes`` (default: every class at n)."""
        if x.n > self.n:
            raise ValueError(f"network on {x.n} nodes, table for n={self.n}")
        col = self.S[:, self.index[UnlabeledClass.of(x)]].tolist()
        if classes is None:
            return tuple(col)
        return tuple(
            col[self.index[u]] if u in self.index else 0 for u in classes
        )

    def supergraphs(self, x: LabeledNetwork) -> tuple:
        """r(U, x) for every class U at n: the labeled graphs on x's n nodes
        in class U that contain x."""
        if x.n != self.n:
            raise ValueError(f"network on {x.n} nodes, table for n={self.n}")
        j = self.index[UnlabeledClass.of(x)]
        num = self.S[j].astype(np.int64) * self.sizes
        r, rem = np.divmod(num, self.sizes[j])
        if rem.any():
            raise InvariantError(f"labeled supergraph counts of {x}")
        return tuple(r.tolist())


@lru_cache(maxsize=None)
def class_table(n: int) -> ClassTable:
    """The sigma table at n, built on first use."""
    return ClassTable(n)


def r_count(u: UnlabeledClass, x: LabeledNetwork) -> int:
    """Number of labeled graphs on x's node set in class u that contain x,
    read from the sigma table at x's node count."""
    table = class_table(x.n)
    if u not in table.index:
        return 0
    return table.supergraphs(x)[table.index[u]]


def sub_in_complete(u: UnlabeledClass, n: int) -> int:
    """sub(u, K_n): copies of the class inside the complete graph, which are
    the n!/(n-k)! injections of its k vertices over its automorphisms (the
    falling factorial is 0 for k > n)."""
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
