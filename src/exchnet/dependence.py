"""Dyad-level dependence structures and exact conditional-independence tests.

Vertices of a dependence graph are the dyads of the node set.  Two standard
structures recur: the incidence graph (dyads adjacent iff they share a node,
the line graph of the complete graph) and its complement, the Kneser graph of
2-subsets (dyads adjacent iff disjoint).  Either can carry undirected or
bidirected edges; the two readings have dual separation rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

from .graphs import (
    MAX_NODES,
    SizeCapError,
    dyad_index,
    dyads,
    mask_components,
    num_dyads,
    parse_dyad_label,
    reachable,
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
        for k, bits in enumerate(self.adjacency):
            if bits >> k & 1:
                raise ValueError(f"self-adjacency at dyad {k}")

    @property
    def m(self) -> int:
        return num_dyads(self.n)

    @property
    def vertices(self) -> tuple:
        return dyads(self.n)

    def edge_pairs(self) -> list:
        out = []
        for a in range(self.m):
            for b in range(a + 1, self.m):
                if self.adjacency[a] >> b & 1:
                    out.append((a, b))
        return out

    def edge_count(self) -> int:
        return len(self.edge_pairs())

    def degree(self, k: int) -> int:
        return bin(self.adjacency[k]).count("1")

    def complement(self) -> "DependenceGraph":
        full = (1 << self.m) - 1
        adj = tuple(
            (full & ~self.adjacency[k]) & ~(1 << k) for k in range(self.m)
        )
        return DependenceGraph(self.n, self.kind, adj)

    def induced_on_nodes(self, keep: Iterable[int]) -> "DependenceGraph":
        """Restriction to dyads within a node subset, relabeled to {1..n'}."""
        keep = sorted(keep)
        relab = {v: t + 1 for t, v in enumerate(keep)}
        kept = set(keep)
        old = dyads(self.n)
        new_index = {}
        for k, (i, j) in enumerate(old):
            if i in kept and j in kept:
                new_index[k] = dyad_index(relab[i], relab[j])
        m2 = num_dyads(len(keep))
        adj = [0] * m2
        for k, nk in new_index.items():
            bits = self.adjacency[k]
            for k2, nk2 in new_index.items():
                if bits >> k2 & 1:
                    adj[nk] |= 1 << nk2
        return DependenceGraph(len(keep), self.kind, tuple(adj))


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
    m = len(ds)
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if set(ds[a]) & set(ds[b]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
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
    m = dep.m
    ds = dep.vertices
    cliques = []
    for mask in range(1, 1 << m):
        members = [k for k in range(m) if mask >> k & 1]
        ok = all(
            dep.adjacency[a] >> b & 1
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        )
        if not ok:
            continue
        common = set(ds[members[0]])
        nodes = set()
        for k in members:
            common &= set(ds[k])
            nodes |= set(ds[k])
        if common:
            shape = IncidenceClique(tuple(members), "star", len(members))
        elif len(members) == 3 and len(nodes) == 3:
            shape = IncidenceClique(tuple(members), "triangle")
        else:
            shape = IncidenceClique(tuple(members), "other")
        cliques.append(shape)
    return cliques


# --- separation --------------------------------------------------------------


def separates(dep: DependenceGraph, a_mask: int, b_mask: int, s_mask: int) -> bool:
    """Separation of A from B given S under dep's edge kind.

    Undirected: every path from A to B meets S.  Bidirected: every path from
    A to B leaves the union of A, B, and S.
    """
    adj = tuple(dep.adjacency)
    full = (1 << dep.m) - 1
    if dep.kind == UNDIRECTED:
        allowed = full & ~s_mask
    else:
        allowed = a_mask | b_mask | s_mask
    return not (reachable(adj, allowed, a_mask) & b_mask)


# --- conditional independence on joint tables --------------------------------


def _marginal_over(jt: JointTable, dyad_mask: int) -> dict:
    """Marginal table over a dyad subset: projected mask -> probability."""
    out: dict = {}
    for mask, p in enumerate(jt.probs):
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
    rational mode, relative tolerance in float mode.
    """
    if not a_mask or not b_mask:
        raise ValueError("A and B must be non-empty")
    if a_mask & b_mask or a_mask & s_mask or b_mask & s_mask:
        raise ValueError("A, B, S must be pairwise disjoint")
    exact = jt.is_exact
    abs_mask = a_mask | b_mask | s_mask
    joint = _marginal_over(jt, abs_mask)
    p_s: dict = {}
    p_as: dict = {}
    p_bs: dict = {}
    for key, p in joint.items():
        ks = key & s_mask
        kas = key & (a_mask | s_mask)
        kbs = key & (b_mask | s_mask)
        p_s[ks] = p_s.get(ks, 0) + p
        p_as[kas] = p_as.get(kas, 0) + p
        p_bs[kbs] = p_bs.get(kbs, 0) + p
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


def _triples(m: int):
    """All (A, B, S) disjoint with A, B non-empty, smallest first, A before B."""
    full = (1 << m) - 1
    out = [
        (a, b, s)
        for a in submasks(full)
        for b in submasks(full & ~a)
        # unordered pair {A, B}: keep one orientation
        if a and b and (a & -a) < (b & -b)
        for s in submasks(full & ~a & ~b)
    ]
    out.sort(
        key=lambda t: (
            bin(t[0]).count("1") + bin(t[1]).count("1") + bin(t[2]).count("1"),
            t[0],
            t[1],
            t[2],
        )
    )
    return out


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
    for a, b, s in _triples(m):
        if separates(dep, a, b, s) and not ci_test(jt, a, b, s):
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
    """Match against the four reference structures on the same node count."""
    if all(bits == 0 for bits in sk.adjacency):
        return SKELETON_EMPTY
    full = (1 << sk.m) - 1
    if all(sk.adjacency[k] == full & ~(1 << k) for k in range(sk.m)):
        return SKELETON_COMPLETE
    if sk.n >= 3:
        if sk.adjacency == incidence_graph(sk.n).adjacency:
            return SKELETON_INCIDENCE
        if sk.adjacency == kneser_graph(sk.n).adjacency:
            return SKELETON_KNESER
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
