"""Brute-force reference implementations used only by the tests.

Everything here enumerates permutations or labeled graphs directly, with no
pruning and no shared code with the package internals, so it can serve as an
independent check.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

from exchnet.graphs import LabeledNetwork, num_dyads


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


def oracle_lp_max(a_rows, b, c):
    """max c.x over {x >= 0 : A x = b} in Fractions, by enumerating every
    set of independent columns that solves A x = b with x >= 0 (each vertex
    is such a set); None when there is none.  The LP must be bounded."""
    n = len(a_rows[0])
    cols = [[row[j] for row in a_rows] for j in range(n)]
    best = None
    for k in range(len(a_rows) + 1):
        for support in combinations(range(n), k):
            x = _exact_solve([cols[j] for j in support], b)
            if x is None or min(x, default=0) < 0:
                continue
            value = sum((Fraction(c[j]) * v for j, v in zip(support, x)),
                        Fraction(0))
            best = value if best is None else max(best, value)
    return best
