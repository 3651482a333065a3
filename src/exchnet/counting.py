"""Injective homomorphism and subgraph counting, and degree-based shortcuts.

Conventions: the empty graph maps into anything in exactly one way, so
``inj(empty, G) = 1`` and every sigma vector carries a 1 for the empty class.
A pattern larger than its target yields 0.

:func:`class_table` holds the sigma counts between all classes at a node
count n <= 7, built by a one-edge recursion without any subgraph search, each
row when first read; a column reader builds them all.  Every
class-moment computation reads it, and so do :func:`r_count`, the
supergraph count, and the statistic families of ``estimation`` (degree
counts aside); :func:`inj`, :func:`sub` and :func:`sigma` search one pattern
at a time and serve as its independent check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .graphs import (
    MAX_NODES,
    DegreeDistribution,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    _class_lattice,
    _exact_div,
    class_aut,
    class_sizes,
)


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
    fs = f.restrict_to_support()
    if fs.n > g.n:
        return 0
    return _inj_masks(fs.adjacency_bitsets(), fs.n, g.adjacency_bitsets(), g.n)


def sub(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Number of subgraphs of g isomorphic to f: inj(f,g) / aut(f)."""
    return _exact_div(inj(f, g), class_aut(UnlabeledClass.of(f)), "inj by aut")


def sigma(u: UnlabeledClass, x: LabeledNetwork) -> int:
    """Number of labeled members of the class that are subgraphs of x."""
    return sub(u.representative(), x)


def sigma_vector(x: LabeledNetwork) -> dict:
    """sigma over every class at x's node count, empty included."""
    table = class_table(x.n)
    return dict(zip(table.classes, table.sigmas(x)))


class ClassTable:
    """sigma counts between the classes at n: S[U][W] = sigma_U(W padded to n).

    Rows and columns follow ``enumerate_classes(n)``, the empty class first
    and K_n last.  A copy of U in K_n is a member of U on n nodes, so
    S[U][K_n] = sub(U, K_n) = |U| (``sizes``) and the class moments of a
    class distribution q are z = D^-1 S q with D = diag(sizes).  Each row
    comes from the one-edge recursion

        (e(W) - e(U)) S[U][W] = sum_V b(W, V) S[U][V]   for e(U) < e(W),

    which counts the pairs (copy of U in W, edge of W outside it); b(W, V)
    is the number of edges of W whose removal leaves class V.  The diagonal
    is 1 and every other entry with e(U) >= e(W) is 0.  b comes by double
    counting, |V| a(V, W) = |W| b(W, V), from the one-edge additions a(V, W)
    that class enumeration reads off the atlas (``graphs._class_lattice``,
    three integer arrays): a(V, W) counts the non-edges of V whose addition
    gives W, and |.| are the class sizes at n (``graphs.class_sizes``).  b
    is one numpy division over every addition, and each edge layer's block
    of it one indexed assignment: no Python loop runs per class or per
    addition.  The same double counting over the pairs (member of U, member
    of W inside it) gives the supergraph counts r(U, x) = |U| S[W][U] / |W|
    for x in class W.

    A row's recursion reads that row alone, so rows are built as they are
    read and only the rows built are held: ``rows``, ``row``,
    ``moment_rows`` and the supergraph counts build the rows they read (and
    the first missing ones, when that many are needed to double the rows
    held), while ``S``, and so ``sigmas``, builds the rest.
    """

    def __init__(self, n: int):
        if n > MAX_NODES:
            raise SizeCapError(f"class tables support n <= {MAX_NODES}, got {n}")
        self.n = n
        self.classes, self.index, _, _, (v, w, a) = _class_lattice(n)
        self.sizes = class_sizes(n)
        self._edges = np.array([u.edge_count for u in self.classes])
        self._odd = self._edges % 2 == 1
        b, rem = np.divmod(self.sizes[v] * a, self.sizes[w])  # b(W, V)
        if rem.any():
            raise InvariantError(f"edge removals at n={n}, addition {np.flatnonzero(rem)[0]}")
        self._additions = v, w, b
        # the rows built so far, in class order, and their class indices
        self._rows, self._built = np.zeros((0, len(self.classes)), np.int32), np.arange(0)

    @property
    def S(self) -> np.ndarray:
        """The whole table, the stored array itself once every row is built."""
        self._build(slice(None))
        return self._rows

    def rows(self, at) -> np.ndarray:
        """S[at] for a class index or an array of them, building the rows
        not built yet in one pass."""
        self._build(at)
        whole = len(self._built) == len(self.classes)
        return self._rows[at if whole else np.searchsorted(self._built, at)]

    def _build(self, at) -> None:
        """Build the rows among ``at`` not built yet: the columns of the
        classes with e edges from those with e - 1, one float32 product per e
        over the stored rows from the first new one (a built row among them
        is rebuilt to the same values, so the products read slices).  Exact:
        every partial sum is an integer of at most 21 * 7! < 2^24 (S <= 7!,
        b's columns sum to e), and a quotient by e - e(U) <= 21 that is not
        whole stays so."""
        if len(self._built) == len(self.classes):
            return
        have, want = np.zeros((2, len(self.classes)), dtype=bool)
        have[self._built] = want[at] = True
        want &= ~have
        if not want.any():
            return
        # at least double the rows held, adding the first missing ones, so that
        # rows read one at a time take a few builds, not one each
        want[np.flatnonzero(~(have | want))[: max(0, len(self._built) - want.sum())]] = True
        new, keep = np.flatnonzero(want), np.flatnonzero(want | have)
        s = np.zeros((len(keep), len(self.classes)), dtype=np.int32)
        s[np.searchsorted(keep, self._built)] = self._rows
        self._rows, self._built = s, keep
        s[np.searchsorted(keep, new), new] = 1
        first = np.searchsorted(keep, new[0])
        edges, (v, w, b) = self._edges, self._additions
        layer = np.searchsorted(edges, np.arange(edges[-1] + 2))
        cut = np.searchsorted(v, layer)  # the additions to classes with e edges
        for e in range(1, edges[-1] + 1):
            prev, lo, hi = layer[e - 1], layer[e], layer[e + 1]
            stop = np.searchsorted(keep, lo)  # the stored rows with e(U) < e
            if stop <= first:
                continue
            pick = slice(cut[e - 1], cut[e])
            block = np.zeros((lo - prev, hi - lo), dtype=np.float32)
            block[v[pick] - prev, w[pick] - lo] = b[pick]
            acc = s[first:stop, prev:lo].astype(np.float32) @ block
            acc /= (e - edges[keep[first:stop]])[:, None]
            s[first:stop, lo:hi] = acc
            bad = np.flatnonzero((s[first:stop, lo:hi] != acc).any(axis=0))
            if bad.size:
                self._rows, self._built = s[:0], keep[:0]  # nothing is built
                raise InvariantError(f"one-edge recursion at n={self.n}, column {lo + bad[0]}")

    def row(self, u: UnlabeledClass) -> tuple:
        """S[U][W] for every class W at n; all zero for a class on more than
        n vertices, which no network on n nodes contains."""
        if u.n_vertices > self.n:
            return (0,) * len(self.classes)
        return tuple(self.rows(self.index[u]).tolist())

    def moment_rows(self, classes) -> tuple:
        """Rows S[U] / |U| (row U dotted with a class distribution q is z_U)
        of classes on at most n vertices, in one numpy pass: the int lists
        S[U] / g, the lcms |U| / g with g = gcd(|U|, S[U]), and the floats."""
        at = [self.index[u] for u in classes]
        s = self.rows(at)
        g = np.gcd(np.gcd.reduce(s, axis=1), self.sizes[at])
        ints, lcms = s // g[:, None], self.sizes[at] // g
        # both below 2^53, so the float quotient is float(Fraction)
        return ints.tolist(), lcms.tolist(), ints / lcms[:, None]

    def sigmas(self, x: LabeledNetwork) -> tuple:
        """sigma_U(x) for every class U at n: the column of x's class."""
        if x.n > self.n:
            raise ValueError(f"network on {x.n} nodes, table for n={self.n}")
        return tuple(self.S[:, self.index[UnlabeledClass.of(x)]].tolist())

    def signed_supergraphs(self, j: int) -> tuple:
        """(-1)^(e(U) - e(W)) r(U, x) for every class U at n, x any network in
        W, the class of index j: the inclusion-exclusion coefficients of P(x)."""
        r, rem = np.divmod(self.rows(j).astype(np.int64) * self.sizes, self.sizes[j])
        if rem.any():
            raise InvariantError(f"labeled supergraph counts of {self.classes[j]}")
        r[self._odd != self._odd[j]] *= -1
        return tuple(r.tolist())

    def supergraphs(self, x: LabeledNetwork) -> tuple:
        """r(U, x) for every class U at n: the labeled graphs on x's n nodes
        in class U that contain x."""
        if x.n != self.n:
            raise ValueError(f"network on {x.n} nodes, table for n={self.n}")
        j = self.index[UnlabeledClass.of(x)]
        return tuple(map(abs, self.signed_supergraphs(j)))


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
