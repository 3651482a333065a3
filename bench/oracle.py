"""Brute-force graph arithmetic that shares no code with exchnet.

Everything here enumerates vertex permutations directly.  The benchmark uses
it to write its inputs (so the program under test builds its own caches from
cold) and to check outputs against answers computed independently.

Graphs are edge lists over vertices 1..n; masks use this module's own dyad
order, which never leaves the module.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    return tuple(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def _index(n: int) -> dict:
    return {p: k for k, p in enumerate(_pairs(n))}


def mask_of(edges, n: int) -> int:
    idx = _index(n)
    m = 0
    for i, j in edges:
        m |= 1 << idx[(min(i, j), max(i, j))]
    return m


def edges_of(mask: int, n: int) -> list:
    return [p for k, p in enumerate(_pairs(n)) if mask >> k & 1]


@lru_cache(maxsize=None)
def _relabel_tables(n: int) -> tuple:
    """For every permutation of 1..n, the image index of each dyad."""
    pairs, idx = _pairs(n), _index(n)
    tables = []
    for perm in permutations(range(1, n + 1)):
        img = []
        for i, j in pairs:
            a, b = perm[i - 1], perm[j - 1]
            img.append(idx[(min(a, b), max(a, b))])
        tables.append(tuple(img))
    return tuple(tables)


def _relabel(mask: int, img: tuple) -> int:
    out = 0
    k = 0
    while mask:
        if mask & 1:
            out |= 1 << img[k]
        mask >>= 1
        k += 1
    return out


@lru_cache(maxsize=None)
def orbit(mask: int, n: int) -> frozenset:
    """All labeled graphs on 1..n isomorphic to the given one."""
    return frozenset(_relabel(mask, img) for img in _relabel_tables(n))


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple:
    """One edge list per isomorphism class of graphs on n labeled nodes."""
    seen: set = set()
    reps = []
    for mask in range(1 << len(_pairs(n))):
        if mask in seen:
            continue
        seen |= orbit(mask, n)
        reps.append(edges_of(mask, n))
    return tuple(reps)


def parse_key(key: str) -> list:
    """Edges of a class key such as ``"1-2,2-3"``; ``EMPTY`` has none."""
    if key == "EMPTY":
        return []
    return [tuple(int(t) for t in tok.split("-")) for tok in key.split(",")]


def key_of(edges) -> str:
    """A class key for an edge list; exchnet canonicalizes keys it reads."""
    if not edges:
        return "EMPTY"
    return ",".join(f"{i}-{j}" for i, j in sorted(edges))


def support_size(edges) -> int:
    return len({v for e in edges for v in e})


def compact(edges) -> list:
    """Relabel the non-isolated vertices to 1..k in increasing order."""
    verts = sorted({v for e in edges for v in e})
    new = {v: t + 1 for t, v in enumerate(verts)}
    return sorted((new[i], new[j]) for i, j in edges)


def copies(u_edges, w_edges, m: int) -> int:
    """sigma_U(W): subgraphs of W (on m nodes) isomorphic to U."""
    if not u_edges:
        return 1
    if support_size(u_edges) > m:
        return 0
    w = mask_of(w_edges, m)
    return sum(1 for g in orbit(mask_of(u_edges, m), m) if g & w == g)


def copies_in_complete(u_edges, m: int) -> int:
    if not u_edges:
        return 1
    if support_size(u_edges) > m:
        return 0
    return len(orbit(mask_of(u_edges, m), m))


def inj_count(f_edges, g_edges, n: int) -> int:
    """Injective maps of f's non-isolated vertices into 1..n carrying edges
    of f to edges of g."""
    verts = sorted({v for e in f_edges for v in e})
    g = {(min(i, j), max(i, j)) for i, j in g_edges}
    count = 0
    for image in permutations(range(1, n + 1), len(verts)):
        at = dict(zip(verts, image))
        if all((min(at[i], at[j]), max(at[i], at[j])) in g for i, j in f_edges):
            count += 1
    return count


def falling(n: int, k: int) -> int:
    return factorial(n) // factorial(n - k)


def degrees(edges, n: int) -> list:
    deg = [0] * (n + 1)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg[1:]


def triangles(edges) -> int:
    adj: dict = {}
    for i, j in edges:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    return sum(
        1 for i, j in edges for k in adj[i] & adj[j] if k > max(i, j)
    )


def components(edges) -> list:
    """Edge lists of the connected components."""
    comp: dict = {}
    for i, j in edges:
        ci, cj = comp.setdefault(i, {i}), comp.setdefault(j, {j})
        if ci is not cj:
            ci |= cj
            for v in cj:
                comp[v] = ci
    groups: dict = {}
    for i, j in edges:
        groups.setdefault(id(comp[i]), []).append((i, j))
    return list(groups.values())


def extends_by_one(x_edges, n: int) -> bool:
    """Is the point mass on the class of x (n nodes) the margin of an
    exchangeable law on n + 1 nodes?  Exactly when some graph W on n + 1
    nodes has every vertex-deleted subgraph isomorphic to x, since the
    n-node margin of W is W minus a uniformly chosen vertex."""
    target = orbit(mask_of(x_edges, n), n)
    e = len(x_edges)
    if (e * (n + 1)) % (n - 1):
        return False
    e_w = e * (n + 1) // (n - 1)
    pairs = _pairs(n + 1)
    for chosen in combinations(pairs, e_w):
        ok = True
        for v in range(1, n + 2):
            rest = [
                (i - (i > v), j - (j > v)) for i, j in chosen if v not in (i, j)
            ]
            if len(rest) != e or mask_of(rest, n) not in target:
                ok = False
                break
        if ok:
            return True
    return False


def certificate_errors(cert: dict, z: dict, n: int, m: int) -> list:
    """Re-check an extension certificate: q over classes at m reproduces the
    class moments z at n.  Exact when every value is a Fraction."""
    exact = all(isinstance(v, Fraction) for v in cert.values()) and all(
        isinstance(v, Fraction) for v in z.values()
    )
    errors = []
    total = sum(cert.values())
    if any(v < 0 for v in cert.values()):
        errors.append("negative certificate weight")
    if (total != 1) if exact else abs(total - 1) > 1e-7:
        errors.append(f"certificate sums to {total}")
    support = [(parse_key(k), v) for k, v in cert.items() if v]
    for key, want in z.items():
        u = parse_key(key)
        if not u:
            continue
        got = sum(v * copies(u, w, m) for w, v in support)
        denom = copies_in_complete(u, m)
        got = Fraction(got, denom) if exact else got / denom
        if (got != want) if exact else abs(got - want) > 1e-5:
            errors.append(f"z[{key}] = {got}, certificate gives {want}")
    return errors


def er_moments(n: int, p: Fraction) -> dict:
    """Class moments of independent ties: p to the power of the edge count."""
    return {
        key_of(compact(edges)): p ** len(edges) for edges in graph_classes(n)
    }


def er_likelihood(x_edges, n: int) -> float:
    """Likelihood of x under independent ties at the observed density."""
    d = comb(n, 2)
    e = len(x_edges)
    p = e / d
    return p**e * (1 - p) ** (d - e)


def schema_errors(value, schema, path: str = "$") -> list:
    """Structural check for the subset of JSON Schema exchnet ships:
    type, enum, required, properties and items."""
    errors = []
    kinds = {
        "object": lambda v: isinstance(v, dict),
        "array": lambda v: isinstance(v, list),
        "string": lambda v: isinstance(v, str),
        "number": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "boolean": lambda v: isinstance(v, bool),
        "null": lambda v: v is None,
    }
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        if not any(kinds[k](value) for k in types):
            return [f"{path}: expected {t}"]
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum")
    if isinstance(value, dict):
        errors += [
            f"{path}: missing {k}"
            for k in schema.get("required", [])
            if k not in value
        ]
        for k, sub in schema.get("properties", {}).items():
            if k in value:
                errors += schema_errors(value[k], sub, f"{path}.{k}")
    if isinstance(value, list) and "items" in schema:
        for i, v in enumerate(value):
            errors += schema_errors(v, schema["items"], f"{path}[{i}]")
    return errors


def load_schemas(root: Path) -> dict:
    return {
        p.stem: json.loads(p.read_text())
        for p in sorted((root / "src" / "exchnet" / "schemas").glob("*.json"))
    }
