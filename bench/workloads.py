"""Seeded inputs, operation lists and output checks for each workload.

``build(name, seed, seconds, workdir)`` writes the workload's input files
into ``workdir`` and returns its operations.  Each operation is one call of
``exchnet.cli.main(argv)`` with paths relative to ``workdir``.  Its check
runs after the timed loop and returns a list of problems (empty when the
output is right); the expected answers come from ``oracle``, never from
exchnet itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import oracle

# Golden values of the source paper's worked example, the paw graph.
PAW = [(1, 4), (2, 3), (2, 4), (3, 4)]
PAW_MLE = {
    "1-2": Fraction(2, 3), "1-3,2-3": Fraction(5, 12), "1-4,2-3": Fraction(1, 3),
    "1-2,1-3,2-3": Fraction(1, 4), "1-4,2-4,3-4": Fraction(1, 4),
    "1-4,2-3,3-4": Fraction(1, 6), "1-4,2-3,2-4,3-4": Fraction(1, 12),
}
PAW_DISSOCIATED = {
    "1-2": 1 / 2, "1-3,2-3": 5 / 16, "1-4,2-3": 1 / 4, "1-2,1-3,2-3": 3 / 16,
    "1-4,2-4,3-4": 3 / 16, "1-4,2-3,3-4": 1 / 8, "1-4,2-3,2-4,3-4": 1 / 16,
}

# Tie probabilities grouped so that the exact LPs drawn from one band cost
# about the same: the workload seed draws from a band, so a different seed
# changes the inputs but not the amount of work.  Exact pivot counts at the
# defining commit: ER(4,p) at m = 5 32-44, at m = 6 similar, at m = 7 57-67;
# ER(5,p) at m = 6 109-118.  The bands are narrow because extend-exact's
# latency percentiles fall on single requests: the median among the m = 5
# LPs, p95 among the m = 7 and n = 5 LPs.
BAND_M5 = [Fraction(3, 8), Fraction(2, 5), Fraction(3, 7), Fraction(4, 9),
           Fraction(1, 2), Fraction(4, 11), Fraction(5, 12), Fraction(5, 13),
           Fraction(6, 13), Fraction(5, 14), Fraction(7, 16), Fraction(7, 18)]
BAND_M6 = [Fraction(3, 8), Fraction(2, 5), Fraction(3, 7), Fraction(4, 9)]
BAND_M7 = [Fraction(1, 5), Fraction(2, 9), Fraction(3, 14), Fraction(4, 19),
           Fraction(5, 26), Fraction(6, 29)]
BAND_N5_M6 = [Fraction(3, 14), Fraction(2, 9), Fraction(4, 19), Fraction(5, 23),
              Fraction(5, 24)]
# 5-node graphs whose MLE extends to m = 6 in 20-40 pivots (others take up
# to 134); a seeded network is one of them, relabeled.
BAND_X5 = [
    [(1, 4), (2, 3)], [(1, 2), (1, 3), (1, 4)], [(1, 2), (1, 3), (2, 3)],
    [(1, 2), (1, 4), (2, 3)], [(1, 4), (1, 5), (2, 3)],
    [(1, 3), (1, 4), (2, 3), (2, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)], [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
    [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)],
    [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)],
]

FAMILIES = ["edges", "frank_strauss", "kneser", "se_star", "sem",
            "full_exchangeable"]


@dataclass
class Op:
    argv: list
    check: Callable = lambda text: []
    code: int = 0
    out: str | None = None  # the output file, when the op writes with --out
    schema: str | None = None
    before: Callable | None = None  # untimed preparation, given workdir


# --- input files ---------------------------------------------------------------


def edge_text(edges, n: int) -> str:
    return "".join([f"n {n}\n"] + [f"{i} {j}\n" for i, j in sorted(edges)])


def zvector_text(n: int, z: dict) -> str:
    items = [{"class": k, "z": str(v)} for k, v in z.items()]
    return json.dumps({"n": n, "z": items})


def random_graph(rng: random.Random, n: int, lo: int, hi: int) -> list:
    """Edges of a uniform random graph with lo <= edge count <= hi."""
    while True:
        edges = [p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        if lo <= len(edges) <= hi:
            return edges


def relabel(edges, perm) -> list:
    return sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges)


def er_joint_text(n: int, weights) -> str:
    """Joint table of a mixture of independent-ties laws, [(w, p), ...].
    Entries depend only on the edge count, so any dyad order is exact."""
    d = comb(n, 2)
    probs = []
    for mask in range(1 << d):
        k = bin(mask).count("1")
        probs.append(str(sum(w * p**k * (1 - p) ** (d - k) for w, p in weights)))
    return json.dumps({"n": n, "probs": probs})


# --- checks ------------------------------------------------------------------


def mle_moments(x, n: int) -> dict:
    """Exchangeable MLE by brute force: injective-map densities per class."""
    return _mle_moments(tuple(sorted(x)), n)


@lru_cache(maxsize=None)
def _mle_moments(x: tuple, n: int) -> dict:
    out = {}
    for edges in oracle.graph_classes(n):
        u = oracle.compact(edges)
        k = oracle.support_size(u)
        out[oracle.key_of(u)] = Fraction(oracle.inj_count(u, x, n), oracle.falling(n, k))
    return out


def canon(key_or_edges):
    """Isomorphism-class identity of a graph without isolated vertices."""
    edges = oracle.parse_key(key_or_edges) if isinstance(key_or_edges, str) else key_or_edges
    edges = oracle.compact(edges)
    k = oracle.support_size(edges)
    return k, min(oracle.orbit(oracle.mask_of(edges, k), k))


def by_class(mapping: dict) -> dict:
    return {canon(k): v for k, v in mapping.items()}


def check_mle(x, n: int, as_float: bool = False):
    def check(text):
        obj = json.loads(text)
        got = {canon(it["class"]): it["z"] for it in obj["z"]}
        want = by_class(mle_moments(x, n))
        if obj["n"] != n or set(got) != set(want):
            return [f"class set differs: {len(got)} vs {len(want)}"]
        errs = []
        for c, w in want.items():
            g = got[c]
            if as_float:
                if abs(g - float(w)) > 1e-12:
                    errs.append(f"z{c} = {g}, want {w}")
            elif Fraction(g) != w:
                errs.append(f"z{c} = {g}, want {w}")
        if sorted(x) == sorted(PAW) and n == 4:
            paw = by_class(PAW_MLE)
            errs += [f"paw golden {c}" for c, w in paw.items() if Fraction(got[c]) != w]
        return errs
    return check


def _cert(obj) -> dict:
    return {k: (Fraction(v) if isinstance(v, str) else v)
            for k, v in obj["certificate"]["q"].items()}


def check_extend_exact(z_of: Callable, n: int, m: int, expect_of: Callable):
    """Exact verdict; a feasible one must carry a certificate that
    reproduces z in rationals.  ``expect_of()`` gives the known verdict, or
    None; both answers are computed only when the check runs."""
    def check(text):
        obj = json.loads(text)
        z, expect = z_of(), expect_of()
        errs = []
        if expect is not None and obj["feasible"] != expect:
            errs.append(f"feasible={obj['feasible']}, want {expect}")
        if obj["feasible"]:
            errs += oracle.certificate_errors(_cert(obj), z, n, m)
        elif not Fraction(obj["infeasibility_margin"]) > 0:
            errs.append("infeasible without a positive margin")
        return errs
    return check


def check_extend_dissociated(z_of: Callable, n: int, m: int, shortcut: bool):
    def check(text):
        obj = json.loads(text)
        if obj["feasible"]:
            errs = oracle.certificate_errors(_cert(obj), z_of(), n, m)
        else:
            errs = [] if obj["infeasibility_margin"] > 0 else ["margin <= 0"]
        if shortcut and obj["method"] != "er-candidate":
            errs.append(f"method {obj['method']}, want er-candidate")
        return errs
    return check


def class_stats(family: str, edges, n: int) -> list:
    """A family's statistic vector for one graph, computed directly."""
    deg = oracle.degrees(edges, n)
    stars = [len(edges)] + [sum(comb(d, k) for d in deg) for k in range(2, n)]
    if family == "edges":
        return [len(edges)]
    if family == "frank_strauss":
        return stars + [oracle.triangles(edges)]
    if family == "se_star":
        return stars + [comb(len(edges), 2) - stars[1]]
    if family == "kneser":
        return [
            sum(1 for sub in combinations(edges, k)
                if len({v for e in sub for v in e}) == 2 * k)
            for k in range(1, n // 2 + 1)
        ]
    if family == "sem":
        return [deg.count(j) for j in range(1, n)]
    return [oracle.copies(oracle.parse_key(k), edges, n)
            for k in full_exchangeable_names(n)]


def full_exchangeable_names(n: int) -> list:
    return [oracle.key_of(oracle.compact(e)) for e in oracle.graph_classes(n) if e]


def check_fit(family: str, x, n: int):
    """An optimal fit matches the observed statistics in expectation; the
    edges family has the closed form nu = logit(e / D)."""
    def check(text):
        obj = json.loads(text)
        errs = []
        q = obj["q"]
        if abs(sum(q.values()) - 1) > 1e-9:
            errs.append("q does not sum to 1")
        if obj["status"] not in ("optimal", "boundary"):
            return errs + [f"status {obj['status']}"]
        if family == "edges":
            e, d = len(x), comb(n, 2)
            want = math.log(e / (d - e))
            if obj["status"] != "optimal" or abs(obj["nu"]["star1"] - want) > 1e-8:
                errs.append(f"nu {obj['nu']}, want logit {want}")
        if obj["status"] == "optimal" and family != "full_exchangeable":
            target = class_stats(family, x, n)
            mean = [0.0] * len(target)
            for k, v in q.items():
                s = class_stats(family, oracle.parse_key(k), n)
                mean = [a + v * b for a, b in zip(mean, s)]
            if any(abs(a - b) > 1e-6 * max(1, abs(b)) for a, b in zip(mean, target)):
                errs.append(f"fitted mean {mean} != observed {target}")
        if n <= 5:
            errs += z_matches_q(obj, n)
        return errs
    return check


def z_matches_q(obj, n: int) -> list:
    """The reported class moments are the moments of the reported q."""
    support = [(oracle.parse_key(k), v) for k, v in obj["q"].items() if v]
    errs = []
    for key, z in obj["z"].items():
        u = oracle.parse_key(key)
        want = sum(v * oracle.copies(u, w, n) for w, v in support)
        want /= oracle.copies_in_complete(u, n)
        if abs(want - z) > 1e-8:
            errs.append(f"z[{key}] = {z}, q gives {want}")
    return errs


def check_dissociated(name: str, x, n: int):
    def check(text):
        obj = json.loads(text)
        errs = []
        if obj["constraint_residual"] > 1e-8:
            errs.append(f"residual {obj['constraint_residual']}")
        lik = math.exp(obj["loglik"])
        size = len(oracle.orbit(oracle.mask_of(x, n), n))
        if not oracle.er_likelihood(x, n) - 1e-9 <= lik <= 1 / size + 1e-9:
            errs.append(f"likelihood {lik} outside [ER fit, 1/{size}]")
        z = by_class(obj["z"])
        for key, v in obj["z"].items():
            parts = oracle.components(oracle.parse_key(key))
            if len(parts) > 1:
                prod = math.prod(z[canon(p)] for p in parts)
                if abs(prod - v) > 1e-6:
                    errs.append(f"z[{key}] = {v} is not the product {prod}")
        errs += z_matches_q(obj, n)
        if name == "paw":
            want = by_class(PAW_DISSOCIATED)
            errs += [f"paw z{c}" for c, w in want.items() if abs(z[c] - w) > 1e-4]
            if abs(lik - 1 / 16) > 1e-6:
                errs.append(f"paw likelihood {lik}")
        if name == "path4" and (obj["status"] != "non_unique" or abs(lik - 1 / 16) > 1e-6):
            errs.append(f"path4 {obj['status']} {lik}")
        return errs
    return check


def check_stats(x, n: int):
    def check(text):
        obj = json.loads(text)
        errs = []
        deg = oracle.degrees(x, n)
        if obj["degree_distribution"] != [deg.count(j) for j in range(n)]:
            errs.append("degree distribution")
        for key, v in obj["sigma"].items():
            if v != oracle.copies(oracle.parse_key(key), x, n):
                errs.append(f"sigma[{key}] = {v}")
        for fam, got in obj["families"].items():
            if fam == "full_exchangeable":
                want = [oracle.copies(oracle.parse_key(k), x, n) for k in got["names"]]
            else:
                want = class_stats(fam, x, n)
            if got["values"] != want:
                errs.append(f"{fam} {got['values']} != {want}")
        return errs
    return check


def check_eval(family: str, nu: dict, x, n: int):
    """P(x) against a direct sum over every class on n nodes."""
    names = {"edges": ["star1"],
             "frank_strauss": [f"star{k}" for k in range(1, n)] + ["triangle"]}[family]
    vec = [nu.get(name, 0.0) for name in names]

    def energy(edges):
        return sum(a * b for a, b in zip(vec, class_stats(family, edges, n)))

    def check(text):
        total = sum(
            len(oracle.orbit(oracle.mask_of(e, n), n)) * math.exp(energy(e))
            for e in oracle.graph_classes(n)
        )
        want = math.exp(energy(x)) / total
        got = json.loads(text)["probability"]
        return [] if abs(got - want) <= 1e-9 * want else [f"P = {got}, want {want}"]
    return check


def check_markov(holds: bool):
    def check(text):
        obj = json.loads(text)
        if obj["markov"] != holds:
            return [f"markov {obj['markov']}, want {holds}"]
        if holds == (obj["counterexample"] is not None):
            return ["counterexample does not match the verdict"]
        return []
    return check


def check_skeleton(classification: str):
    def check(text):
        got = json.loads(text)["classification"]
        return [] if got == classification else [f"skeleton {got}, want {classification}"]
    return check


def check_sample(n: int, count: int):
    def check(text):
        blocks = text.split("# sample ")[1:]
        if len(blocks) != count:
            return [f"{len(blocks)} samples, want {count}"]
        errs = []
        for b in blocks:
            lines = b.splitlines()[1:]
            if lines[0] != f"n {n}":
                errs.append(f"header {lines[0]!r}")
            pairs = [tuple(int(t) for t in ln.split()) for ln in lines[1:] if ln]
            if any(not 1 <= i < j <= n for i, j in pairs) or len(set(pairs)) != len(pairs):
                errs.append("bad edge")
        return errs
    return check


def check_graphon_const(eta: float, edges: int):
    def check(text):
        got = json.loads(text)["value"]
        return [] if abs(got - eta**edges) <= 1e-12 else [f"value {got}"]
    return check


def check_graphon_range(text):
    obj = json.loads(text)
    ok = 0 <= obj["value"] <= 1 and obj["error"] >= 0
    return [] if ok else [f"value {obj['value']} error {obj['error']}"]


def check_collisions(n: int):
    """Groups of classes sharing a degree distribution, by brute force."""
    def check(text):
        groups: dict = {}
        for e in oracle.graph_classes(n):
            deg = oracle.degrees(e, n)
            groups.setdefault(tuple(deg.count(j) for j in range(n)), set()).add(canon(e))
        want = {k: v for k, v in groups.items() if len(v) > 1}
        got = {tuple(g["degree_counts"]): {canon(c) for c in g["classes"]}
               for g in json.loads(text)["groups"]}
        return [] if got == want else [f"{len(got)} groups, want {len(want)}"]
    return check


def check_empty(text):
    return [] if text == "" else ["refused request wrote output"]


# --- workloads ---------------------------------------------------------------


def extend_exact(rng: random.Random, seconds: int, wd: Path) -> list:
    ops = []

    def pipeline(tag, x, n, m):
        (wd / f"{tag}.edges").write_text(edge_text(x, n))
        ops.append(Op(["mle", f"{tag}.edges", "--out", f"{tag}.z.json"],
                      check_mle(x, n), out=f"{tag}.z.json", schema="zvector"))
        ops.append(Op(["extend", f"{tag}.z.json", "--m", str(m)],
                      check_extend_exact(lambda: mle_moments(x, n), n, m,
                                         lambda: oracle.extends_by_one(x, n)),
                      schema="extendreport"))

    def er(tag, n, p, m):
        z = oracle.er_moments(n, p)
        (wd / f"{tag}.json").write_text(zvector_text(n, z))
        return Op(["extend", f"{tag}.json", "--m", str(m)],
                  check_extend_exact(lambda: z, n, m, lambda: True),
                  schema="extendreport")

    pipeline("paw", PAW, 4, 5)
    for k in range(3):
        pipeline(f"x4_{k}", random_graph(rng, 4, 1, 5), 4, 5)
    m5 = [er(f"er4_m5_{k}", 4, p, 5) for k, p in enumerate(rng.sample(BAND_M5, 9))]
    heavy = [er("er4_m6", 4, rng.choice(BAND_M6), 6)]
    heavy += [er(f"er4_m7_{k}", 4, p, 7) for k, p in enumerate(rng.sample(BAND_M7, 4))]
    heavy += [er(f"er5_m6_{k}", 5, p, 6) for k, p in enumerate(rng.sample(BAND_N5_M6, 2))]
    # The median request is one of the m = 5 extends; they are spread between
    # the heavy LPs, so that a slow patch of the machine does not move them all.
    for k, op in enumerate(heavy):
        ops.append(op)
        ops += m5[k * len(m5) // len(heavy):(k + 1) * len(m5) // len(heavy)]
    for k in range(3):
        pipeline(f"x5_{k}", relabel(rng.choice(BAND_X5), rng.sample(range(1, 6), 5)), 5, 6)
    return ops


def fit_dissociated(rng: random.Random, seconds: int, wd: Path) -> list:
    # C4 (another ~3.5 s) is left out to keep a run within the time budget
    nets = {"paw": PAW, "path4": [(1, 2), (2, 3), (3, 4)], "2k2": [(1, 2), (3, 4)]}
    ops = []
    for name, edges in nets.items():
        perm = rng.sample(range(1, 5), 4)
        x = relabel(edges, perm)
        (wd / f"{name}.edges").write_text(edge_text(x, 4))
        ops.append(Op(["mle-dissociated", f"{name}.edges", "--out", f"{name}.fit.json"],
                      check_dissociated(name, x, 4), out=f"{name}.fit.json",
                      schema="fitreport"))
    holder: dict = {}

    def pull_paw_moments(wd: Path):
        """Untimed: turn the paw fit's moments into an extend input."""
        z = json.loads((wd / "paw.fit.json").read_text())["z"]
        holder["z"] = z
        items = [{"class": k, "z": v} for k, v in z.items()]
        (wd / "paw.dz.json").write_text(json.dumps({"n": 4, "z": items}))

    ops.append(Op(["extend", "paw.dz.json", "--m", "5", "--dissociated"],
                  check_extend_dissociated(lambda: holder["z"], 4, 5, False),
                  schema="extendreport", before=pull_paw_moments))
    return ops


def fit_ergm(rng: random.Random, seconds: int, wd: Path) -> list:
    ops = []
    # At n = 6, five frank_strauss evals of equal cost (~0.15 s) hold the
    # median request, between the n = 5 fits below and the n = 6 fits above.
    for n, lo, hi, families, fs_evals in ((6, 5, 10, FAMILIES[:-1], 5),
                                          (5, 3, 7, FAMILIES, 1)):
        x = random_graph(rng, n, lo, hi)
        net = f"x{n}.edges"
        (wd / net).write_text(edge_text(x, n))
        ops.append(Op(["stats", net], check_stats(x, n)))
        for fam in families:
            ops.append(Op(["fit", fam, net], check_fit(fam, x, n), schema="fitreport"))
        params = [("frank_strauss", {"star1": rng.uniform(-1, 1),
                                     "star2": rng.uniform(-0.3, 0.3),
                                     "triangle": rng.uniform(-0.5, 0.5)})
                  for _ in range(fs_evals)]
        params.append(("edges", {"star1": rng.uniform(-1, 1)}))
        for k, (fam, nu) in enumerate(params):
            nu_file = f"nu_{fam}_{n}_{k}.json"
            (wd / nu_file).write_text(json.dumps({"nu": nu}))
            ops.append(Op(["eval", fam, nu_file, net], check_eval(fam, nu, x, n)))
    return ops


def cli_mix(rng: random.Random, seconds: int, wd: Path) -> list:
    """A shuffled deck of light requests, dealt ROUNDS_PER_SECOND * seconds
    times; each deal draws fresh parameters from the workload seed."""
    nets = [(PAW, 4)] + [(random_graph(rng, 4, 1, 5), 4) for _ in range(3)] + [
        (random_graph(rng, 5, 2, 8), 5) for _ in range(4)]
    for k, (x, n) in enumerate(nets):
        (wd / f"g{k}.edges").write_text(edge_text(x, n))
    (wd / "bad.edges").write_text("n 3\n1 9\n")
    ers = {}
    for p in BAND_M5:
        tag = f"er{p.numerator}_{p.denominator}.json"
        ers[tag] = oracle.er_moments(4, p)
        (wd / tag).write_text(zvector_text(4, ers[tag]))
    mix = [(Fraction(1, 2), Fraction(1, 5)), (Fraction(1, 2), Fraction(3, 5))]
    # Markov checks against an empty dependence graph test every statement
    # at n = 3 (3 dyads); at n = 4 that takes ~0.4 s, too heavy for this mix.
    (wd / "er_joint3.json").write_text(er_joint_text(3, [(1, Fraction(1, 3))]))
    (wd / "er_joint.json").write_text(er_joint_text(4, [(1, Fraction(1, 3))]))
    (wd / "mix_joint.json").write_text(er_joint_text(4, mix))
    for n in (3, 4):
        (wd / f"dep_empty{n}.json").write_text(
            json.dumps({"n": n, "kind": "undirected", "edges": []}))
    dyads = [f"{i}-{j}" for j in range(2, 5) for i in range(1, j)]
    complete = [[a, b] for a, b in combinations(dyads, 2)]
    (wd / "dep_complete.json").write_text(
        json.dumps({"n": 4, "kind": "undirected", "edges": complete}))

    def deck(r: int) -> list:
        k4 = rng.randrange(4)
        k5 = 4 + rng.randrange(4)
        x4, x5 = nets[k4][0], nets[k5][0]
        g4, g5 = f"g{k4}.edges", f"g{k5}.edges"
        er_file = rng.choice(sorted(ers))
        nu_e = {"star1": round(rng.uniform(-1, 1), 6)}
        nu_fs = {"star1": round(rng.uniform(-1, 1), 6),
                 "triangle": round(rng.uniform(-0.5, 0.5), 6)}
        (wd / f"nu_e{r}.json").write_text(json.dumps({"nu": nu_e}))
        (wd / f"nu_fs{r}.json").write_text(json.dumps({"nu": nu_fs}))
        eta = rng.choice([0.2, 0.3, 0.4, 0.5, 0.7])
        cls = rng.choice(["1-2", "1-2,2-3", "1-2,1-3,2-3", "1-2,2-3,3-4", "1-2,3-4"])
        seed = rng.randrange(1 << 30)
        sample = rng.choice([
            (["sample", "er", "--n", "5", "--p", str(eta)], 5),
            (["sample", "beta", "--beta", "0.5,0.0,-0.5,1.0"], 4),
            (["sample", "graphon", "--phi", "product:logistic:0.0,1.0", "--n", "5"], 5),
        ])
        refusal = rng.choice([
            (["extend", er_file, "--m", "9"], 3),
            (["collisions", "--n", "9"], 3),
            (["mle", "bad.edges"], 2),
        ])
        markov = rng.choice([("er_joint.json", "dep_complete.json", True),
                             ("er_joint3.json", "dep_empty3.json", True),
                             ("mix_joint.json", "dep_empty4.json", False)])
        n_coll = rng.choice([5, 6])
        ops = [
            Op(["stats", g4], check_stats(x4, 4)),
            Op(["stats", g5], check_stats(x5, 5)),
            Op(["mle", g4, "--out", f"mle{r}.json"], check_mle(x4, 4),
               out=f"mle{r}.json", schema="zvector"),
            Op(["mle", "--float", g5], check_mle(x5, 5, as_float=True), schema="zvector"),
            Op(["fit", "edges", g4], check_fit("edges", x4, 4), schema="fitreport"),
            Op(["fit", "edges", g5], check_fit("edges", x5, 5), schema="fitreport"),
            Op(["eval", "edges", f"nu_e{r}.json", g5], check_eval("edges", nu_e, x5, 5)),
            Op(["eval", "frank_strauss", f"nu_fs{r}.json", g4],
               check_eval("frank_strauss", nu_fs, x4, 4)),
            Op(["markov", markov[0], markov[1]], check_markov(markov[2])),
            Op(["skeleton", "er_joint.json"], check_skeleton("empty"), schema="depgraph"),
            Op(["extend", er_file, "--m", "5"],
               check_extend_exact(lambda: ers[er_file], 4, 5, lambda: True),
               schema="extendreport"),
            Op(["extend", f"mle{r}.json", "--m", "5"],
               check_extend_exact(lambda: mle_moments(x4, 4), 4, 5,
                                  lambda: oracle.extends_by_one(x4, 4)),
               schema="extendreport"),
            Op(["extend", er_file, "--m", "5", "--dissociated", "--out", f"dx{r}.json"],
               check_extend_dissociated(lambda: ers[er_file], 4, 5, True),
               out=f"dx{r}.json", schema="extendreport"),
            Op(sample[0] + ["--seed", str(seed), "--count", "3"], check_sample(sample[1], 3)),
            Op(["graphon-z", f"const:{eta}", cls],
               check_graphon_const(eta, len(oracle.parse_key(cls)))),
            Op(["graphon-z", "product:logistic:0.0,1.0", cls], check_graphon_range),
            Op(["collisions", "--n", str(n_coll)], check_collisions(n_coll)),
            Op(refusal[0], check_empty, code=refusal[1]),
        ]
        rng.shuffle(ops)
        # the MLE file must exist before the extend that reads it
        ops.sort(key=lambda op: op.argv[:2] == ["extend", f"mle{r}.json"])
        return ops

    rounds = max(12, round(ROUNDS_PER_SECOND * seconds))
    return [op for r in range(rounds) for op in deck(r)]


# Deals of the cli-mix deck per second of --seconds, calibrated so that a
# run takes about --seconds at the defining commit on a 2-CPU machine.
ROUNDS_PER_SECOND = 3.5

WORKLOADS = {
    "extend-exact": extend_exact,
    "fit-dissociated": fit_dissociated,
    "fit-ergm": fit_ergm,
    "cli-mix": cli_mix,
}


def build(name: str, seed: int, seconds: int, workdir: Path) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), seconds, workdir)
