"""Dyad-level dependence structures and exact conditional-independence tests.

Vertices of a dependence graph are the dyads of the node set.  Two standard
structures recur: the incidence graph (dyads adjacent iff they share a node,
the line graph of the complete graph) and its complement, the Kneser graph of
2-subsets (dyads adjacent iff disjoint).  Either can carry undirected or
bidirected edges; the two readings have dual separation rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable

from .graphs import (
    MAX_NODES,
    SizeCapError,
    _node_relabeling,
    dyad_index,
    dyads,
    mask_components,
    num_dyads,
    parse_dyad_label,
    submasks,
)
from .mobius import JointTable, LabeledMobius, _close as _close_abs

UNDIRECTED = "undirected"
BIDIRECTED = "bidirected"

CI_REL_TOL = 1e-10
DISSOC_TOL = 1e-9

MAX_MARKOV_DYADS = 6  # exhaustive triple enumeration cap


@dataclass(frozen=True)
class DependenceGraph:
    """A graph over the dyads of {1..n}.

    ``adjacency[k]`` is the neighbor bitset of dyad k (colex dyad order);
    ``kind`` selects the undirected or bidirected separation rule.
    """

    n: int
    kind: str
    adjacency: tuple

    def __post_init__(self):
        if self.kind not in (UNDIRECTED, BIDIRECTED):
            raise ValueError(f"unknown edge kind {self.kind!r}")
        if len(self.adjacency) != num_dyads(self.n):
            raise ValueError("adjacency size does not match dyad count")
        m = len(self.adjacency)
        for k, bits in enumerate(self.adjacency):
            if bits >> k & 1:
                raise ValueError(f"self-adjacency at dyad {k}")
            if bits >> m:
                raise ValueError(f"dyad {k} is adjacent past the last dyad {m - 1}")
            for j in range(k + 1, m):
                if (bits >> j ^ self.adjacency[j] >> k) & 1:
                    raise ValueError(f"adjacency not symmetric at dyads {k} and {j}")

    @property
    def m(self) -> int:
        return num_dyads(self.n)

    def edge_pairs(self) -> list:
        adj, m = self.adjacency, self.m
        return [(a, b) for a in range(m) for b in range(a + 1, m) if adj[a] >> b & 1]

    def edge_count(self) -> int:
        # each edge sets a bit at both ends: the adjacency is symmetric
        return sum(bits.bit_count() for bits in self.adjacency) // 2

    def degree(self, k: int) -> int:
        return bin(self.adjacency[k]).count("1")

    def complement(self) -> "DependenceGraph":
        full = (1 << self.m) - 1
        adj = tuple(
            (full & ~self.adjacency[k]) & ~(1 << k) for k in range(self.m)
        )
        return DependenceGraph(self.n, self.kind, adj)

    def induced_on_nodes(self, keep: Iterable[int]) -> "DependenceGraph":
        """Restriction to dyads within a node subset, relabeled to {1..n'};
        a label outside 1..n or a repeated one is refused."""
        relab = _node_relabeling(self.n, keep)
        new_index = {
            k: dyad_index(relab[i], relab[j])
            for k, (i, j) in enumerate(dyads(self.n))
            if i in relab and j in relab
        }
        adj = [0] * num_dyads(len(relab))
        for k, nk in new_index.items():
            for k2, nk2 in new_index.items():
                adj[nk] |= (self.adjacency[k] >> k2 & 1) << nk2
        return DependenceGraph(len(relab), self.kind, tuple(adj))


def dependence_graph_from_edges(
    n: int, kind: str, edges: Iterable
) -> DependenceGraph:
    """Build from dyad pairs, each dyad given as an "i-j" label."""
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    if n > MAX_NODES:
        raise SizeCapError(f"dependence graphs support n <= {MAX_NODES}, got {n}")

    def index(d: str) -> int:
        i, j = parse_dyad_label(d)
        if min(i, j) < 1 or max(i, j) > n:
            raise ValueError(f"dyad {d} out of range for n={n}")
        return dyad_index(i, j)

    adj = [0] * num_dyads(n)
    for d1, d2 in edges:
        k1, k2 = index(d1), index(d2)
        if k1 == k2:
            raise ValueError(f"self-adjacency at dyad {d1}")
        adj[k1] |= 1 << k2
        adj[k2] |= 1 << k1
    return DependenceGraph(n, kind, tuple(adj))


def incidence_graph(n: int, kind: str = UNDIRECTED) -> DependenceGraph:
    """Dyads adjacent iff they share a node (line graph of the complete graph)."""
    if n < 3:
        raise ValueError("incidence graph needs n >= 3")
    ds = dyads(n)
    # each row directly: sharing a node is a symmetric relation
    adj = [sum(1 << b for b, d in enumerate(ds) if d != c and set(d) & set(c)) for c in ds]
    return DependenceGraph(n, kind, tuple(adj))


def kneser_graph(n: int, kind: str = UNDIRECTED) -> DependenceGraph:
    """Dyads adjacent iff disjoint; the complement of the incidence graph."""
    if n < 3:
        raise ValueError("kneser graph needs n >= 3")
    return incidence_graph(n, kind).complement()


def empty_dependence_graph(n: int, kind: str = UNDIRECTED) -> DependenceGraph:
    return DependenceGraph(n, kind, tuple([0] * num_dyads(n)))


def complete_dependence_graph(n: int, kind: str = UNDIRECTED) -> DependenceGraph:
    return empty_dependence_graph(n, kind).complement()


# --- cliques of the incidence graph ------------------------------------------


@dataclass(frozen=True)
class IncidenceClique:
    dyad_indices: tuple
    shape: str  # "triangle" | "star" | "other"
    star_size: int | None = None


def incidence_cliques(n: int) -> list:
    """Every clique (maximal or not) of the incidence graph, classified.

    A clique of pairwise-incident dyads is either a set of dyads through one
    common node (a k-star subnetwork) or three dyads on three nodes (a
    triangle).  Anything else is reported as "other".  The walk covers all
    2^(n(n-1)/2) dyad subsets, so n > ``MAX_NODES`` raises ``SizeCapError``.
    """
    if n > MAX_NODES:
        raise SizeCapError(f"incidence cliques support n <= {MAX_NODES}")
    dep = incidence_graph(n, UNDIRECTED)
    ds = dyads(n)
    cliques = []
    for mask in range(1, 1 << dep.m):
        members = tuple(k for k in range(dep.m) if mask >> k & 1)
        # a clique: each member is adjacent to every other one
        if any(mask & ~dep.adjacency[k] & ~(1 << k) for k in members):
            continue
        if set.intersection(*(set(ds[k]) for k in members)):
            cliques.append(IncidenceClique(members, "star", len(members)))
            continue
        nodes = set().union(*(ds[k] for k in members))
        shape = "triangle" if len(members) == 3 and len(nodes) == 3 else "other"
        cliques.append(IncidenceClique(members, shape))
    return cliques


# --- separation --------------------------------------------------------------


def _allowed(dep: DependenceGraph):
    """The dyads a path from A to B may use given S, a function of (A, B, S)."""
    if dep.kind == UNDIRECTED:
        full = (1 << dep.m) - 1
        return lambda a_mask, b_mask, s_mask: full & ~s_mask
    return lambda a_mask, b_mask, s_mask: a_mask | b_mask | s_mask


def _check_dyad_mask(m: int, mask: int) -> None:
    """Refuse a dyad mask with a bit past the last of m dyads."""
    if mask >> m:
        raise ValueError(f"a dyad mask has a bit past the last dyad {m - 1}")


def _apart(parts: tuple, a_mask: int, b_mask: int) -> bool:
    """No connected part of the allowed dyads meets both A and B."""
    return not any(p & a_mask and p & b_mask for p in parts)


def separates(dep: DependenceGraph, a_mask: int, b_mask: int, s_mask: int) -> bool:
    """Separation of A from B given S under dep's edge kind.

    Undirected: every path from A to B meets S.  Bidirected: every path from
    A to B leaves the union of A, B, and S.  A mask with a bit past the
    last dyad raises ``ValueError``.
    """
    _check_dyad_mask(dep.m, a_mask | b_mask | s_mask)
    allowed = _allowed(dep)(a_mask, b_mask, s_mask)
    return _apart(mask_components(dep.adjacency, allowed), a_mask, b_mask)


# --- conditional independence on joint tables --------------------------------


def _marginal_over(pairs, dyad_mask: int) -> dict:
    """Marginal table over a dyad subset from (mask, probability) pairs:
    projected mask -> probability."""
    out: dict = {}
    for mask, p in pairs:
        if not p:
            continue
        key = mask & dyad_mask
        if key in out:
            out[key] = out[key] + p
        else:
            out[key] = p
    return out


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) <= CI_REL_TOL * scale


def ci_test(jt: JointTable, a_mask: int, b_mask: int, s_mask: int) -> bool:
    """Does X_A and X_B factorize given X_S, for every positive S config?

    Cross-multiplied form P(abs) P(s) = P(as) P(bs) avoids division; exact in
    rational mode, relative tolerance in float mode.  Both sides are of
    degree 2 in the entries, so an exact table is tested on ``jt.scaled``,
    its entries as integers over their common denominator.  A mask with a
    bit past the last dyad raises ``ValueError``.
    """
    if not a_mask or not b_mask:
        raise ValueError("A and B must be non-empty")
    if a_mask & b_mask or a_mask & s_mask or b_mask & s_mask:
        raise ValueError("A, B, S must be pairwise disjoint")
    _check_dyad_mask(num_dyads(jt.n), a_mask | b_mask | s_mask)
    exact = jt.is_exact
    joint = _marginal_over(enumerate(jt.scaled), a_mask | b_mask | s_mask)
    p_s = _marginal_over(joint.items(), s_mask)
    p_as = _marginal_over(joint.items(), a_mask | s_mask)
    p_bs = _marginal_over(joint.items(), b_mask | s_mask)
    # every (a, b, s) cell must factorize, including zero cells
    for s_val in submasks(s_mask):
        ps = p_s.get(s_val, 0)
        if not ps:
            continue
        for a_val in submasks(a_mask):
            pas = p_as.get(a_val | s_val, 0)
            for b_val in submasks(b_mask):
                pbs = p_bs.get(b_val | s_val, 0)
                pabs = joint.get(a_val | b_val | s_val, 0)
                if not _close(pabs * ps, pas * pbs, exact):
                    return False
    return True


@lru_cache(maxsize=None)
def _triples(m: int) -> tuple:
    """All (A, B, S) disjoint with A, B non-empty, smallest first, A before B."""
    full = (1 << m) - 1
    # generated in (A, B, S) order, so a stable sort on the size alone
    # orders by (size, A, B, S)
    out = [
        (a, b, s)
        for a in submasks(full)
        for b in submasks(full & ~a)
        # unordered pair {A, B}: keep one orientation
        if a and b and (a & -a) < (b & -b)
        for s in submasks(full & ~a & ~b)
    ]
    out.sort(key=lambda t: (t[0] | t[1] | t[2]).bit_count())
    return tuple(out)


@dataclass
class MarkovCheckResult:
    holds: bool
    counterexample: tuple | None = None  # (a_mask, b_mask, s_mask)


def global_markov_check(jt: JointTable, dep: DependenceGraph) -> MarkovCheckResult:
    """Verify every separation-implied independence statement against jt."""
    m = num_dyads(jt.n)
    if m > MAX_MARKOV_DYADS:
        raise SizeCapError(
            f"global Markov check supports at most {MAX_MARKOV_DYADS} dyads"
        )
    if dep.n != jt.n:
        raise ValueError("joint and dependence graph node counts differ")
    # the parts of every dyad set, once: a connected allowed set separates nothing
    parts = [mask_components(dep.adjacency, mask) for mask in range(1 << m)]
    allowed = _allowed(dep)
    for a, b, s in _triples(m):
        split = parts[allowed(a, b, s)]
        if len(split) > 1 and _apart(split, a, b) and not ci_test(jt, a, b, s):
            return MarkovCheckResult(False, (a, b, s))
    return MarkovCheckResult(True)


def skeleton(jt: JointTable) -> DependenceGraph:
    """Undirected graph with u ~ v unless some conditioning set splits them."""
    m = num_dyads(jt.n)
    if m > MAX_MARKOV_DYADS:
        raise SizeCapError(
            f"skeleton search supports at most {MAX_MARKOV_DYADS} dyads"
        )
    full = (1 << m) - 1
    adj = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            others = full & ~(1 << u) & ~(1 << v)
            if not any(ci_test(jt, 1 << u, 1 << v, s) for s in submasks(others)):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return DependenceGraph(jt.n, UNDIRECTED, tuple(adj))


SKELETON_EMPTY = "empty"
SKELETON_INCIDENCE = "incidence"
SKELETON_KNESER = "kneser"
SKELETON_COMPLETE = "complete"
SKELETON_OTHER = "other"


def classify_skeleton(sk: DependenceGraph) -> str:
    """Match against the four reference structures on the same node count,
    in this order (at n = 3 the Kneser graph is empty, the incidence one
    complete)."""
    refs = [(SKELETON_EMPTY, empty_dependence_graph),
            (SKELETON_COMPLETE, complete_dependence_graph)]
    if sk.n >= 3:
        refs += [(SKELETON_INCIDENCE, incidence_graph), (SKELETON_KNESER, kneser_graph)]
    for name, make in refs:
        if make(sk.n).adjacency == sk.adjacency:
            return name
    return SKELETON_OTHER


@dataclass
class DissociatedCheckResult:
    holds: bool
    violating_mask: int | None = None


def dissociated_check(lm: LabeledMobius) -> DissociatedCheckResult:
    """Does z factor over connected parts for every dyad subset?

    The parts of a dyad subset B are its connected parts in the bidirected
    line graph of K_n (dyads adjacent iff they share a node), which are the
    edge sets of the node-connected components of B: z_B = prod z_C over
    them.  With at most one dyad (n <= 2) no subset splits.
    """
    n = lm.n
    if n < 3:
        return DissociatedCheckResult(True)
    adj = incidence_graph(n, BIDIRECTED).adjacency
    for mask in range(1, 1 << num_dyads(n)):
        comps = mask_components(adj, mask)
        if len(comps) <= 1:
            continue
        factored = prod(lm.z[comp] for comp in comps)
        if not _close_abs(lm.z[mask], factored, DISSOC_TOL):
            return DissociatedCheckResult(False, mask)
    return DissociatedCheckResult(True)
