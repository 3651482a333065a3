"""Brute-force reference implementations used only by the tests.

Everything here enumerates permutations or labeled graphs directly, with no
pruning and no shared code with the package internals, so it can serve as an
independent check.  There is one exception: ``oracle_class_lattice``, the
breadth-first class enumeration that generates the shipped class atlas,
canonicalizes with the package's relabeling tables, which
``oracle_canonical_bits`` and ``oracle_aut`` check on their own.
``oracle_exact_bland``, the all-Fraction Bland phase one that the LP's float
pass and integer pivots are compared against, builds, pivots and reads its
own Fraction tableau, with no code from ``lp``; the LP tests re-check every
exact answer in Fractions on their own.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import exp, prod
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from exchnet.graphs import (
    MAX_NODES,
    InvalidNetworkError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    _relabel_table,
    _relabelings,
    num_dyads,
)


def oracle_inj(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Injective homomorphism count by full enumeration of vertex injections."""
    fsup = sorted({v for e in f.edges for v in e})
    k = len(fsup)
    if k > g.n:
        return 0
    if k == 0:
        return 1
    count = 0
    for image in permutations(range(1, g.n + 1), k):
        assign = dict(zip(fsup, image))
        if all(g.has_edge(assign[i], assign[j]) for i, j in f.edges):
            count += 1
    return count


def oracle_aut(g: LabeledNetwork) -> int:
    """Automorphism count by full enumeration over all n! permutations."""
    count = 0
    verts = list(range(1, g.n + 1))
    for image in permutations(verts):
        perm = dict(zip(verts, image))
        if all(
            g.has_edge(perm[i], perm[j]) == g.has_edge(i, j)
            for i in verts
            for j in verts
            if i < j
        ):
            count += 1
    return count


def oracle_canonical_bits(g: LabeledNetwork) -> tuple:
    """Least relabeled adjacency bit tuple over all n! vertex relabelings.

    Bits follow the colex dyad order (1,2), (1,3), (2,3), (1,4), ...
    """
    verts = range(g.n)
    adj = [[0] * g.n for _ in verts]
    for i, j in g.edges:
        adj[i - 1][j - 1] = adj[j - 1][i - 1] = 1
    order = sorted(combinations(verts, 2), key=lambda d: (d[1], d[0]))
    return min(
        tuple(adj[p[i]][p[j]] for i, j in order) for p in permutations(verts)
    )


def oracle_edge_additions(n: int) -> tuple:
    """Every labeled graph on n nodes and every non-edge of it: the number of
    labeled graphs in each isomorphism class, and for each pair of classes
    (V, W) the number of pairs (graph in V, non-edge whose addition gives a
    graph in W).  Classes are keyed by ``oracle_canonical_bits``."""
    pairs = list(combinations(range(1, n + 1), 2))
    bits: dict = {}
    for mask in range(1 << len(pairs)):
        edges = frozenset(d for k, d in enumerate(pairs) if mask >> k & 1)
        bits[mask] = oracle_canonical_bits(SimpleNamespace(n=n, edges=edges))
    sizes, additions = Counter(bits.values()), Counter()
    for mask, v in bits.items():
        for k in range(len(pairs)):
            if not mask >> k & 1:
                additions[v, bits[mask | 1 << k]] += 1
    return sizes, additions


def oracle_class_lattice(n: int) -> tuple:
    """The classes at n in enumeration order; for each class V its one-edge
    additions {index of W: a(V, W)}, where a(V, W) counts the non-edges of V
    padded to n nodes whose addition gives a graph in W; and each class's
    automorphism count on its support.

    One breadth-first pass from the empty class, one edge count at a time,
    on (vertex count, least relabeling) keys; each ``UnlabeledClass`` is
    built once, at the end.  A non-edge touching isolated nodes is
    canonicalized once, at the first free labels, and counted for each of
    its placements among the n - k isolated nodes.  A representative has no
    isolated node and every new edge touches the new labels, so each child
    is canonicalized on its full support.  A child's relabelings are the
    parent's ORed with those of its one new dyad, so the children on each
    vertex count take one gather, one OR and one minimum per row; the
    relabelings equal to a new class's minimum are its automorphisms.
    Order: edge count, then vertex count, then canonical code.
    """
    if n < 1:
        raise InvalidNetworkError(f"class enumeration needs n >= 1, got {n}")
    if n > MAX_NODES:
        raise SizeCapError(f"class enumeration supports 1 <= n <= {MAX_NODES}")
    adds, auts = {(0, 0): {}}, {(0, 0): 1}
    frontier = [(0, 0)]
    while frontier:
        new_frontier = []
        for key in frontier:
            k, best = key
            nd = num_dyads(k)
            # the representative's mask, dyad 0 the least significant bit
            base = int(f"{best:0{nd}b}"[::-1], 2)
            # (child's vertex count, new dyads, placements of each): the
            # non-edges of the representative, its edges to node k + 1 (the
            # colex dyads nd..nd + k - 1) and the edge {k + 1, k + 2} (dyad
            # nd + 2k)
            out = adds[key]
            for nn, new, count in (
                (k, [d for d in range(nd) if not base >> d & 1], 1),
                (k + 1, range(nd, nd + k), n - k),
                (k + 2, [nd + 2 * k], math.comb(n - k, 2)),
            ):
                if nn > n or not new:
                    continue
                ds = np.array(new)
                images = _relabel_table(nn)[ds >> 2, 1 << (ds & 3)]
                images |= _relabelings(nn, base)
                for row, least in zip(images, images.min(axis=1).tolist()):
                    child = (nn, least)
                    if child not in adds:
                        adds[child] = {}
                        auts[child] = int(np.count_nonzero(row == least))
                        new_frontier.append(child)
                    out[child] = out.get(child, 0) + count
        frontier = new_frontier
    keys = sorted(adds, key=lambda c: (c[1].bit_count(), c[0], c[1]))
    index = {c: i for i, c in enumerate(keys)}
    classes = tuple(UnlabeledClass(*key) for key in keys)
    additions = tuple({index[w]: a for w, a in adds[v].items()} for v in keys)
    return classes, additions, {c: auts[key] for c, key in zip(classes, keys)}


def oracle_atlas() -> np.ndarray:
    """The class atlas ``src/exchnet/atlas.npy`` rebuilt from
    ``oracle_class_lattice(MAX_NODES)``: a header row (node count, classes,
    pairs), one row (vertex count, code, automorphisms) per class in
    enumeration order, and one row (index of V, index of W, b0) per one-edge
    addition, grouped by V in enumeration order, where a(V, W) = b0 times 1,
    n - k_V or C(n - k_V, 2) as W has 0, 1 or 2 vertices more than V.

    Regenerate the file from the repository root with
    ``PYTHONPATH=src:tests python3 -c 'import numpy, oracles; numpy.save("src/exchnet/atlas.npy", oracles.oracle_atlas())'``.
    """
    n = MAX_NODES
    classes, additions, auts = oracle_class_lattice(n)
    rows = [(n, len(classes), sum(map(len, additions)))]
    rows += [(u.n_vertices, u.code, auts[u]) for u in classes]
    for v, adds in enumerate(additions):
        free = n - classes[v].n_vertices
        for w, a in adds.items():
            new = classes[w].n_vertices - classes[v].n_vertices
            per = (1, free, math.comb(free, 2))[new]
            b0, rem = divmod(a, per)
            assert rem == 0, (v, w, a, per)
            rows.append((v, w, b0))
    return np.array(rows, dtype="<i4")


def oracle_isomorphic(g: LabeledNetwork, h: LabeledNetwork) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    verts = list(range(1, g.n + 1))
    for image in permutations(verts):
        perm = dict(zip(verts, image))
        if all(h.has_edge(perm[i], perm[j]) for i, j in g.edges) and all(
            g.has_edge(i, j) or not h.has_edge(perm[i], perm[j])
            for i in verts
            for j in verts
            if i < j
        ):
            return True
    return False


def oracle_labeled_classes(n: int) -> list:
    """Group all labeled graphs on n nodes by pairwise isomorphism testing."""
    groups: list = []
    for mask in range(1 << num_dyads(n)):
        g = LabeledNetwork.from_mask(n, mask)
        for group in groups:
            if oracle_isomorphic(g, group[0]):
                group.append(g)
                break
        else:
            groups.append([g])
    return groups


def oracle_class_members(u, n: int) -> set:
    """All labeled graphs on {1..n} in the class, as masks, by relabeling."""
    rep = u.padded(n)
    verts = list(range(1, n + 1))
    members = set()
    for image in permutations(verts):
        perm = dict(zip(verts, image))
        members.add(rep.permute(perm).mask)
    return members


def oracle_r_count(u, x: LabeledNetwork) -> int:
    """Supergraph count by enumerating the labeled class members."""
    return sum(
        1
        for mask in oracle_class_members(u, x.n)
        if x.mask & mask == x.mask
    )


def oracle_sub(f: LabeledNetwork, g: LabeledNetwork) -> int:
    """Subgraph copies by enumerating the edge subsets of g itself."""
    fs = f.restrict_to_support() if f.edges else f
    count = 0
    sub = g.mask
    while True:
        h = LabeledNetwork.from_mask(g.n, sub)
        if len(h.edges) == len(f.edges):
            hs = h.restrict_to_support() if h.edges else h
            if oracle_isomorphic(hs, fs):
                count += 1
        if sub == 0:
            break
        sub = (sub - 1) & g.mask
    return count


def oracle_block_moments(classes, weights, probs) -> dict:
    """Class moments of a block model with block weights and tie
    probabilities: the sum over every block assignment of a class
    representative's vertices of the assignment's weight times its edges'
    tie probabilities."""
    z = {}
    for u in classes:
        rep = u.representative()
        total = Fraction(0)
        for blocks in product(range(len(weights)), repeat=rep.n):
            term = prod(weights[b] for b in blocks)
            for i, j in rep.edges:
                term *= probs[blocks[i - 1]][blocks[j - 1]]
            total += term
        z[u] = total
    return z


def oracle_kernel(spec):
    """A kernel as a scalar function of (u, v): ``("const", eta)``,
    ``("logistic", mu, sigma)`` (the logistic of the two propensities'
    sum, each the normal quantile of its coordinate kept within 1e-12 of
    (0, 1)) or ``("grid", rows)`` (bilinear interpolation at
    (min(u, v), max(u, v)))."""
    kind, *params = spec
    if kind == "const":
        return lambda u, v: params[0]
    if kind == "logistic":
        mu, sigma = params

        def beta(u):
            if sigma == 0:
                return mu
            return NormalDist(mu, sigma).inv_cdf(min(max(u, 1e-12), 1 - 1e-12))

        def logistic(t):
            if t >= 0:
                return 1.0 / (1.0 + exp(-t))
            e = exp(t)
            return e / (1.0 + e)

        return lambda u, v: logistic(beta(u) + beta(v))
    rows = params[0]
    r = len(rows)

    def interp(u, v):
        if r == 1:
            return rows[0][0]
        u, v = min(u, v), max(u, v)
        x, y = min(max(u, 0.0), 1.0) * (r - 1), min(max(v, 0.0), 1.0) * (r - 1)
        x0, y0 = int(x), int(y)
        x1, y1 = min(x0 + 1, r - 1), min(y0 + 1, r - 1)
        fx, fy = x - x0, y - y0
        return (
            rows[x0][y0] * (1 - fx) * (1 - fy)
            + rows[x1][y0] * fx * (1 - fy)
            + rows[x0][y1] * (1 - fx) * fy
            + rows[x1][y1] * fx * fy
        )

    return interp


def oracle_midpoint_lattice(f, r: int) -> list:
    """The r x r midpoint lattice of a scalar kernel, one call per cell i <= j
    at ((i + 1/2) / r, (j + 1/2) / r), mirrored, each value clamped by
    min(1, max(0, x))."""
    pts = [(i + 0.5) / r for i in range(r)]
    out = [[0.0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            out[i][j] = out[j][i] = min(1.0, max(0.0, f(pts[i], pts[j])))
    return out


def oracle_components(g: LabeledNetwork) -> list:
    """Components of the non-isolated vertices by plain depth-first search
    over neighbor sets, each sorted, ordered by their least vertex."""
    nbrs: dict = {}
    for i, j in g.edges:
        nbrs.setdefault(i, set()).add(j)
        nbrs.setdefault(j, set()).add(i)
    seen: set = set()
    out = []
    for v in sorted(nbrs):
        if v in seen:
            continue
        seen.add(v)
        stack, comp = [v], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in nbrs[u] - seen:
                seen.add(w)
                stack.append(w)
        out.append(sorted(comp))
    return out


def oracle_first_unfactored_mask(lm):
    """The least dyad mask whose z differs from the product of z over the
    edge sets of its vertex components, or None when every mask factors."""
    for mask in range(1, len(lm.z)):
        g = LabeledNetwork.from_mask(lm.n, mask)
        comps = oracle_components(g)
        if len(comps) < 2:
            continue
        parts = [
            LabeledNetwork.from_edges(
                lm.n, [e for e in g.edges if e[0] in comp]
            ).mask
            for comp in comps
        ]
        if lm.z[mask] != prod(lm.z[part] for part in parts):
            return mask
    return None


def oracle_submasks(mask: int) -> list:
    """Every submask of ``mask``, by filtering all smaller integers."""
    return [s for s in range(mask + 1) if s & ~mask == 0]


def oracle_triples(m: int) -> list:
    """Every disjoint (A, B, S) over m dyads with A, B non-empty, A holding
    the lower least dyad, from each assignment of a dyad to none, A, B or S;
    smallest first."""
    out = []
    for assign in product(range(4), repeat=m):
        a, b, s = (
            sum(1 << k for k, c in enumerate(assign) if c == part)
            for part in (1, 2, 3)
        )
        if a and b and (a & -a) < (b & -b):
            out.append((a, b, s))
    out.sort(
        key=lambda t: (
            bin(t[0]).count("1") + bin(t[1]).count("1") + bin(t[2]).count("1"),
            t[0],
            t[1],
            t[2],
        )
    )
    return out


def oracle_ci(jt, a_mask: int, b_mask: int, s_mask: int) -> bool:
    """Is X_A independent of X_B given X_S under an exact table?  Fraction
    marginals summed over every configuration, then every cell (a, b, s)
    cross-checked: P(a, b, s) P(s) = P(a, s) P(b, s), which holds trivially
    where P(s) = 0."""
    parts = [
        [k for k in range(num_dyads(jt.n)) if mask >> k & 1]
        for mask in (a_mask, b_mask, s_mask)
    ]
    p_abs, p_as, p_bs, p_s = Counter(), Counter(), Counter(), Counter()
    for x, p in enumerate(jt.probs):
        a, b, s = (tuple(x >> k & 1 for k in part) for part in parts)
        p = Fraction(p)
        p_abs[a, b, s] += p
        p_as[a, s] += p
        p_bs[b, s] += p
        p_s[s] += p
    return all(
        p_abs[a, b, s] * p_s[s] == p_as[a, s] * p_bs[b, s]
        for a in product((0, 1), repeat=len(parts[0]))
        for b in product((0, 1), repeat=len(parts[1]))
        for s in product((0, 1), repeat=len(parts[2]))
    )


def oracle_bidirected_joint(dep, z_conn, h_mask: int):
    """P(X_H = 1, rest = 0) by inclusion-exclusion over every dyad mask that
    contains H, summed in increasing mask order.  z of a mask is the product
    of z over its parts in the dependence graph, found by depth-first search
    over its edge pairs, the part of the lowest dyad first."""
    nbrs: dict = {k: set() for k in range(dep.m)}
    for a, b in dep.edge_pairs():
        nbrs[a].add(b)
        nbrs[b].add(a)
    total = None
    for mask in range(1 << dep.m):
        if mask & h_mask != h_mask:
            continue
        seen: set = set()
        parts = []
        for v in range(dep.m):
            if not mask >> v & 1 or v in seen:
                continue
            seen.add(v)
            stack, part = [v], 0
            while stack:
                u = stack.pop()
                part |= 1 << u
                for w in nbrs[u]:
                    if mask >> w & 1 and w not in seen:
                        seen.add(w)
                        stack.append(w)
            parts.append(part)
        term = prod(z_conn[part] for part in parts)
        if bin(mask ^ h_mask).count("1") % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _exact_solve(cols, b):
    """The unique x with sum_j x_j cols[j] = b, by Gaussian elimination in
    Fractions; None when the columns are dependent or b is not in their
    span."""
    m, k = len(b), len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(b[i])]
           for i in range(m)]
    row = 0
    for c in range(k):
        p = next((r for r in range(row, m) if aug[r][c]), None)
        if p is None:
            return None
        aug[row], aug[p] = aug[p], aug[row]
        for r in range(m):
            if r != row and aug[r][c]:
                f = aug[r][c] / aug[row][c]
                aug[r] = [a - f * v for a, v in zip(aug[r], aug[row])]
        row += 1
    if any(aug[r][k] for r in range(row, m)):
        return None
    return [aug[c][k] / aug[c][c] for c in range(k)]


def oracle_solve(b_rows, c):
    """x with B x = c for a square B, by Gauss-Jordan elimination in
    Fractions; None when B is singular."""
    return _exact_solve([list(col) for col in zip(*b_rows)], c)


def _exact_rank(rows) -> int:
    """The rank of a matrix, by Gaussian elimination in Fractions."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * v for a, v in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=64)
def _lp_vertices(cols: tuple, b: tuple) -> tuple:
    """Every solution of {x >= 0 : A x = b} on a basis of A's columns, as
    (support, x) pairs in Fractions: each vertex is one, since its support
    is independent and extends to a basis."""
    found = []
    for support in combinations(range(len(cols)), _exact_rank(cols)):
        x = _exact_solve([cols[j] for j in support], b)
        if x is not None and min(x, default=0) >= 0:
            found.append((support, x))
    return tuple(found)


def oracle_lp_max(a_rows, b, c):
    """max c.x over {x >= 0 : A x = b} in Fractions, by enumerating every
    basis of A's columns that solves A x = b with x >= 0 (each vertex is
    such a basis); None when there is none.  The LP must be bounded."""
    cols = tuple(zip(*a_rows))
    values = [sum((Fraction(c[j]) * v for j, v in zip(support, x)), Fraction(0))
              for support, x in _lp_vertices(cols, tuple(b))]
    return max(values, default=None)


def oracle_exact_bland(a_rows, b):
    """Phase one of {x >= 0 : A x = b} by Bland's rule in Fractions all the
    way, from the artificial basis: every row and b_i times sign(b_i), so
    that b >= 0, one artificial per row, and the phase-one reduced costs
    (minus the sum of the rows, 0 on the artificials).  The first column
    with a negative reduced cost enters; of the rows with a positive entry
    in it, the one with the least ratio leaves, ties going to the smallest
    basic index.  A pivot updates only the rows with a nonzero factor, and
    in them only the pivot row's nonzero columns.  The verdict is read with
    tolerance 0: feasible exactly when the residual is 0."""
    m, n = len(a_rows), len(a_rows[0])
    signs = [-1 if bi < 0 else 1 for bi in b]
    tab = [[s * Fraction(v) for v in row] + [Fraction(int(t == i)) for t in range(m)]
           + [s * Fraction(bi)] for i, (row, bi, s) in enumerate(zip(a_rows, b, signs))]
    obj = [-sum(col) for col in zip(*tab)]
    obj[n : n + m] = [Fraction(0)] * m
    tab.append(obj)
    basis = list(range(n, n + m))
    pivots = 0
    while (enter := next((j for j in range(n + m) if obj[j] < 0), None)) is not None:
        rows = [i for i in range(m) if tab[i][enter] > 0]
        leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        top = tab[leave]
        top[:] = [v / top[enter] for v in top]
        nonzero = [j for j, v in enumerate(top) if v]
        for i, row in enumerate(tab):
            f = row[enter]
            if i != leave and f:
                for j in nonzero:
                    row[j] -= f * top[j]
        basis[leave] = enter
        pivots += 1
    residual = -obj[-1]
    values = [row[-1] for row in tab[:m]]
    x = worst = None
    if residual == 0:
        x = [Fraction(0)] * n
        for j, v in zip(basis, values):
            if j < n:
                x[j] = v
    else:  # the first artificial in row order with the largest value
        most = max(v for j, v in zip(basis, values) if j >= n)
        worst = next(j - n for j, v in zip(basis, values) if j >= n and v == most)
    # reduced cost of artificial i is 1 - y_i for the signed rows' dual y
    dual = [s * (1 - v) for s, v in zip(signs, obj[n : n + m])]
    return SimpleNamespace(feasible=residual == 0, x=x, residual=residual,
                           worst_row=worst, pivots=pivots, dual=dual)


def oracle_facial_set(stats, x_idx: int) -> list:
    """Whether each class's statistics s(W) lie on the smallest face of the
    hull of the class statistics that holds s(x), the class of index x_idx:
    a point is on it iff it takes a positive weight in some convex
    combination of the distinct points that equals s(x)."""
    points = sorted(set(map(tuple, stats)))
    a_rows = [list(r) for r in zip(*points)] + [[1] * len(points)]
    b = list(stats[x_idx]) + [1]
    on = {p for j, p in enumerate(points)
          if oracle_lp_max(a_rows, b, [int(i == j) for i in range(len(points))]) > 0}
    return [tuple(s) in on for s in stats]


def oracle_class_moments(cd, table):
    """z_U = sum_W q_W S[U][W] / |U| by a scalar loop over every nonzero
    entry of every support column, summed in q's order: z of the empty class
    is exactly 1."""
    acc = [None] * len(table.classes)
    for w, q in cd.q.items():
        if not q:
            continue
        for k, s in enumerate(table.S[:, table.index[w]].tolist()):
            if s:
                acc[k] = q * s if acc[k] is None else acc[k] + q * s
    z = {}
    for u, a, denom in zip(table.classes, acc, table.sizes.tolist()):
        if u.is_empty:
            z[u] = Fraction(1) if cd.is_exact else 1.0
            continue
        if a is None:
            a = Fraction(0) if cd.is_exact else 0.0
        z[u] = Fraction(a, denom) if cd.is_exact else a / denom
    return z
