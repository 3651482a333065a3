"""Labeled networks, canonical forms, and unlabeled-class enumeration.

A network on nodes ``{1..n}`` is a simple undirected graph.  Its dyads (the
unordered node pairs) are indexed in colex order, so the dyads of ``{1..k}``
always occupy the first ``k(k-1)/2`` indices.  That makes bitmask encodings of
networks stable under restriction to an initial node segment.

Canonical forms and automorphism counts both come from one cached table per
node count n <= 7 that holds every chunk of 4 dyads under all n! vertex
relabelings: a mask's relabelings are the OR of one table row per chunk,
its canonical form is their minimum and its automorphisms are the
relabelings equal to the identity's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

# Canonical forms, class enumeration and class tables stop at n = 7 (1044
# classes): an 8-node relabeling table has 8! columns and S_8 12346^2 entries.
MAX_NODES = 7


class SizeCapError(ValueError):
    """An operation was requested beyond the supported node-count cap."""


class InvalidNetworkError(ValueError):
    """An edge list violates the simple-graph invariants."""


class InvariantError(RuntimeError):
    """An exact counting identity failed (a bug, never a user error).

    Raised in place of ``assert`` so that ``python -O`` keeps the check.
    """


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InvariantError(f"{what}: {num} is not divisible by {den}")
    return q


def dyad_index(i: int, j: int) -> int:
    """Colex index of dyad {i, j}, 1-based nodes, i != j."""
    if i == j:
        raise InvalidNetworkError(f"loop at node {i}")
    if i > j:
        i, j = j, i
    return (j - 1) * (j - 2) // 2 + (i - 1)


@lru_cache(maxsize=None)
def dyads(n: int) -> tuple[tuple[int, int], ...]:
    """All dyads of {1..n} in colex order: (1,2), (1,3), (2,3), (1,4), ..."""
    out = []
    for j in range(2, n + 1):
        for i in range(1, j):
            out.append((i, j))
    return tuple(out)


def num_dyads(n: int) -> int:
    return n * (n - 1) // 2


def dyad_label(d: tuple[int, int]) -> str:
    return f"{d[0]}-{d[1]}"


def parse_dyad_label(s: str) -> tuple[int, int]:
    a, b = s.split("-")
    i, j = int(a), int(b)
    if i > j:
        i, j = j, i
    return (i, j)


@dataclass(frozen=True)
class LabeledNetwork:
    """A simple labeled graph on node set {1..n}.

    ``edges`` holds unordered pairs (i, j) with 1 <= i < j <= n.  The same
    object doubles as an observed network and as a dyad subset viewed as an
    edge-induced subgraph.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise InvalidNetworkError("node count must be nonnegative")
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
                raise InvalidNetworkError(f"edge {e} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "LabeledNetwork":
        norm = set()
        for i, j in edges:
            if i == j:
                raise InvalidNetworkError(f"loop at node {i}")
            norm.add((min(i, j), max(i, j)))
        return cls(n, frozenset(norm))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "LabeledNetwork":
        ds = dyads(n)
        return cls(n, frozenset(ds[k] for k in range(len(ds)) if mask >> k & 1))

    @classmethod
    def empty(cls, n: int) -> "LabeledNetwork":
        return cls(n, frozenset())

    @classmethod
    def complete(cls, n: int) -> "LabeledNetwork":
        return cls(n, frozenset(dyads(n)))

    @classmethod
    def path(cls, n: int) -> "LabeledNetwork":
        return cls.from_edges(n, [(i, i + 1) for i in range(1, n)])

    @classmethod
    def star(cls, n: int) -> "LabeledNetwork":
        """Node 1 joined to every other node."""
        return cls.from_edges(n, [(1, v) for v in range(2, n + 1)])

    @classmethod
    def cycle(cls, n: int) -> "LabeledNetwork":
        es = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return cls.from_edges(n, es)

    @property
    def mask(self) -> int:
        m = 0
        for i, j in self.edges:
            m |= 1 << dyad_index(i, j)
        return m

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for i, j in self.edges:
            d[i - 1] += 1
            d[j - 1] += 1
        return tuple(d)

    def support(self) -> tuple[int, ...]:
        """Non-isolated vertices, ascending."""
        s = set()
        for i, j in self.edges:
            s.add(i)
            s.add(j)
        return tuple(sorted(s))

    def restrict_to_support(self) -> "LabeledNetwork":
        """Relabel the non-isolated vertices to {1..k}, dropping isolated ones."""
        sup = self.support()
        relab = {v: k + 1 for k, v in enumerate(sup)}
        return LabeledNetwork.from_edges(
            len(sup), [(relab[i], relab[j]) for i, j in self.edges]
        )

    def induced(self, keep: Sequence[int]) -> "LabeledNetwork":
        """Subnetwork induced by ``keep``, relabeled to {1..len(keep)}."""
        keep = sorted(keep)
        relab = {v: k + 1 for k, v in enumerate(keep)}
        kept = set(keep)
        es = [
            (relab[i], relab[j]) for i, j in self.edges if i in kept and j in kept
        ]
        return LabeledNetwork.from_edges(len(keep), es)

    def permute(self, perm: dict) -> "LabeledNetwork":
        """Relabel nodes by ``perm`` (a dict {old: new} over 1..n)."""
        return LabeledNetwork.from_edges(
            self.n, [(perm[i], perm[j]) for i, j in self.edges]
        )

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency_bitsets(self) -> list[int]:
        """adj[v] has bit w set iff nodes v+1 and w+1 are adjacent (0-based)."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __str__(self) -> str:
        es = ",".join(f"{i}-{j}" for i, j in self.sorted_edges())
        return f"LabeledNetwork(n={self.n}, [{es}])"


@lru_cache(maxsize=None)
def _relabel_table(n: int) -> np.ndarray:
    """T[c, v, p]: dyads 4c..4c+3 holding the bits of v, relabeled by the
    p-th permutation of the n vertices (permutation 0 the identity).

    Each entry is a uint32 read with dyad 0 as the most significant of the
    n(n-1)/2 bits, so ORing one row per chunk of a mask gives the mask under
    every relabeling, as integers that compare like bit strings, dyad 0 first.
    """
    if n > MAX_NODES:
        raise SizeCapError(f"vertex relabelings support n <= {MAX_NODES}, got {n}")
    nd = num_dyads(n)
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    chunks = max(1, (nd + 3) // 4)
    weights = np.zeros((4 * chunks, len(perms)), dtype=np.uint32)
    for d, (i, j) in enumerate(dyads(n)):
        a, b = perms[:, i - 1], perms[:, j - 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b).astype(np.uint32)
        # the bit of the image dyad, dyad 0 the most significant
        weights[d] = np.uint32(1) << (nd - 1 - (hi * (hi - 1) // 2 + lo))
    table = np.zeros((chunks, 16, len(perms)), dtype=np.uint32)
    for v in range(1, 16):
        low = (v & -v).bit_length() - 1
        table[:, v] = table[:, v & (v - 1)] | weights[low::4]
    return table


def _relabelings(n: int, mask: int) -> np.ndarray:
    """The mask under all n! vertex relabelings, identity first."""
    table = _relabel_table(n)
    out = table[0, mask & 15].copy()
    for c in range(1, len(table)):
        out |= table[c, mask >> 4 * c & 15]
    return out


@lru_cache(maxsize=500000)
def _canon_min(n: int, mask: int) -> int:
    """The least of the mask's n! relabelings, read as an integer with dyad
    0 the most significant bit."""
    return int(_relabelings(n, mask).min())


def canonical_form(g: LabeledNetwork) -> int:
    """Canonical code of g on all of its n vertices (isolated ones included):
    the least of its n! relabeled masks, read as an integer with dyad 0 the
    most significant bit.  Two networks on the same node count share a code
    iff they are isomorphic."""
    return _canon_min(g.n, g.mask)


@dataclass(frozen=True)
class UnlabeledClass:
    """An isomorphism class: the vertex count of its edge-induced
    representative (no isolated vertices) and that representative's
    canonical code.  The empty class is (0, 0).
    """

    n_vertices: int
    code: int

    @classmethod
    def empty(cls) -> "UnlabeledClass":
        return cls(0, 0)

    @classmethod
    def of(cls, g: LabeledNetwork) -> "UnlabeledClass":
        """The class of g, after restriction to its non-isolated vertices."""
        if not g.edges:
            return cls.empty()
        sub = g.restrict_to_support()
        return cls(sub.n, canonical_form(sub))

    @property
    def is_empty(self) -> bool:
        return self.n_vertices == 0

    @property
    def edge_count(self) -> int:
        return self.code.bit_count()

    def representative(self) -> LabeledNetwork:
        """The canonical labeled representative on exactly n_vertices nodes."""
        ds, code, edges = dyads(self.n_vertices), self.code, []
        while code:  # set bits, lowest first: bit i is dyad len(ds) - 1 - i
            low = code & -code
            edges.append(ds[len(ds) - low.bit_length()])
            code ^= low
        return LabeledNetwork(self.n_vertices, frozenset(edges))

    def padded(self, n: int) -> LabeledNetwork:
        """The representative padded with isolated vertices up to n nodes."""
        if self.n_vertices > n:
            raise InvalidNetworkError(
                f"class on {self.n_vertices} vertices does not fit in n={n}"
            )
        return LabeledNetwork(n, self.representative().edges)

    def sort_key(self):
        return (self.edge_count, self.n_vertices, self.code)

    def key(self) -> str:
        """Serialization key: sorted i-j pairs of the representative."""
        if self.is_empty:
            return "EMPTY"
        return ",".join(
            dyad_label(e) for e in self.representative().sorted_edges()
        )

    def __str__(self) -> str:
        return self.key()


def class_from_key(key: str) -> UnlabeledClass:
    if key == "EMPTY":
        return UnlabeledClass.empty()
    edges = [parse_dyad_label(tok) for tok in key.split(",")]
    n = max(max(e) for e in edges)
    return UnlabeledClass.of(LabeledNetwork.from_edges(n, edges))


@lru_cache(maxsize=None)
def _class_lattice(n: int) -> tuple:
    """The classes at n in enumeration order, and for each class V its
    one-edge additions {index of W: a(V, W)}, where a(V, W) counts the
    non-edges of V padded to n nodes whose addition gives a graph in W.

    One breadth-first pass from the empty class, one edge count at a time,
    on (vertex count, least relabeling) keys; each ``UnlabeledClass`` is
    built once, at the end.  A non-edge touching isolated nodes is
    canonicalized once, at the first free labels, and counted for each of
    its placements among the n - k isolated nodes.  A representative has no
    isolated node and every new edge touches the new labels, so each child
    is canonicalized on its full support.  Order: edge count, then vertex
    count, then canonical code.
    """
    if n < 1:
        raise InvalidNetworkError(f"class enumeration needs n >= 1, got {n}")
    if n > MAX_NODES:
        raise SizeCapError(f"class enumeration supports 1 <= n <= {MAX_NODES}")
    adds: dict = {(0, 0): {}}
    frontier = [(0, 0)]
    while frontier:
        new_frontier = []
        for key in frontier:
            k, best = key
            nd = num_dyads(k)
            # the representative's mask, dyad 0 the least significant bit
            base = int(f"{best:0{nd}b}"[::-1], 2)
            # (dyad, child's vertex count, placements): the non-edges of the
            # representative, its edges to node k + 1 (the colex dyads
            # nd..nd + k - 1) and the edge {k + 1, k + 2} (dyad nd + 2k)
            cands = [(d, k, 1) for d in range(nd) if not base >> d & 1]
            if k + 1 <= n:
                cands += [(d, k + 1, n - k) for d in range(nd, nd + k)]
            if k + 2 <= n:
                cands.append((nd + 2 * k, k + 2, math.comb(n - k, 2)))
            out = adds[key]
            for bit, nn, count in cands:
                child = (nn, _canon_min(nn, base | 1 << bit))
                if child not in adds:
                    adds[child] = {}
                    new_frontier.append(child)
                out[child] = out.get(child, 0) + count
        frontier = new_frontier
    keys = sorted(adds, key=lambda c: (c[1].bit_count(), c[0], c[1]))
    index = {c: i for i, c in enumerate(keys)}
    classes = tuple(UnlabeledClass(*key) for key in keys)
    additions = tuple({index[w]: a for w, a in adds[v].items()} for v in keys)
    return classes, additions


def class_additions(n: int) -> tuple:
    """a(V, W) for the classes at n: one dict {index of W: a(V, W)} per class
    V, in ``enumerate_classes(n)`` order, recorded by the enumeration pass."""
    return _class_lattice(n)[1]


def enumerate_classes(n: int, include_empty: bool = True) -> list:
    """Isomorphism classes of graphs without isolated vertices on <= n nodes,
    the empty class first."""
    classes = list(_class_lattice(n)[0])
    if not include_empty:
        classes = classes[1:]
    return classes


def aut_count(g: LabeledNetwork) -> int:
    """Number of permutations of all n vertices preserving edges and non-edges."""
    images = _relabelings(g.n, g.mask)
    return int(np.count_nonzero(images == images[0]))


@lru_cache(maxsize=None)
def class_aut(cls_: UnlabeledClass) -> int:
    """Automorphism count of the class representative on its support."""
    if cls_.is_empty:
        return 1
    return aut_count(cls_.representative())


def class_size(cls_: UnlabeledClass, n: int) -> int:
    """Number of labeled graphs on {1..n} in the class (isolated nodes allowed)."""
    k = cls_.n_vertices
    if k > n:
        return 0
    aut_padded = class_aut(cls_) * math.factorial(n - k)
    size, rem = divmod(math.factorial(n), aut_padded)
    if rem:
        raise InvariantError(
            f"class size of {cls_.key()} at n={n} is not integral"
        )
    return size


@dataclass(frozen=True)
class DegreeDistribution:
    """counts[j] = number of nodes of degree j, for j = 0..n-1."""

    counts: tuple

    def __post_init__(self):
        if sum(j * c for j, c in enumerate(self.counts)) % 2 != 0:
            raise InvalidNetworkError("odd total degree")


def degree_distribution(g: LabeledNetwork) -> DegreeDistribution:
    counts = [0] * g.n
    for d in g.degrees():
        counts[d] += 1
    return DegreeDistribution(tuple(counts))


def submasks(mask: int):
    """Every submask of ``mask`` in increasing order, the empty one first."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def reachable(adj: tuple, allowed: int, start: int) -> int:
    """Vertices reachable from ``start`` through ``allowed``, as a bitmask;
    ``adj[v]`` is the neighbor bitset of vertex v."""
    seen = start & allowed
    frontier = seen
    while frontier:
        grow = 0
        f = frontier
        while f:
            bit = f & -f
            v = bit.bit_length() - 1
            f ^= bit
            grow |= adj[v] & allowed & ~seen
        seen |= grow
        frontier = grow
    return seen


@lru_cache(maxsize=200000)
def mask_components(adj: tuple, mask: int) -> tuple:
    """The connected parts of ``mask`` under adjacency ``adj``, as masks,
    the part of the lowest vertex first."""
    comps = []
    while mask:
        comp = reachable(adj, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return tuple(comps)


def connected_components(g: LabeledNetwork) -> list:
    """Partition of the non-isolated vertices into edge-connected components."""
    adj = g.adjacency_bitsets()
    support = 0
    for nbrs in adj:
        support |= nbrs
    return [
        [v + 1 for v in range(g.n) if comp >> v & 1]
        for comp in mask_components(tuple(adj), support)
    ]


def component_classes(cls_: UnlabeledClass) -> list:
    """Classes of the connected components of a class representative."""
    if cls_.is_empty:
        return []
    rep = cls_.representative()
    out = []
    for comp in connected_components(rep):
        keep = set(comp)
        sub = LabeledNetwork.from_edges(
            rep.n, [e for e in rep.edges if e[0] in keep and e[1] in keep]
        )
        out.append(UnlabeledClass.of(sub))
    return sorted(out, key=UnlabeledClass.sort_key)


@lru_cache(maxsize=None)
def disconnected_classes(n: int) -> tuple:
    """(U, the component classes of U) for every disconnected class U on at
    most n vertices, in enumeration order."""
    out = []
    for u in enumerate_classes(n, False):
        comps = component_classes(u)
        if len(comps) > 1:
            out.append((u, tuple(comps)))
    return tuple(out)


# --- edge-list text format -------------------------------------------------


def parse_edge_list(text: str) -> LabeledNetwork:
    """Parse the edge-list format: first line ``n <count>``, then ``i j`` lines.

    Blank lines and ``#`` comments are ignored.
    """
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise InvalidNetworkError(
                    f"expected header 'n <count>', got {raw!r}"
                )
            n = int(parts[1])
            if n < 1:
                raise InvalidNetworkError("node count must be positive")
            continue
        if len(parts) != 2:
            raise InvalidNetworkError(f"expected 'i j' pair, got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise InvalidNetworkError("missing 'n <count>' header")
    return LabeledNetwork.from_edges(n, edges)


def format_edge_list(g: LabeledNetwork) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"
