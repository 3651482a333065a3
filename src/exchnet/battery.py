"""Built-in golden example battery.

Each item recomputes a worked example from first principles and checks the
published value exactly or at the stated tolerance.  An item returns its
failure detail, or "" on a pass; its name is written once, as its key in
``BATTERY``.  ``run_battery`` returns one ``BatteryItem`` per entry, in table
order.  ``exchnet paper-examples`` prints one pass/fail line per item and a
passed count, and exits 1 when an item fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import class_table, inj, star_class
from .dependence import (
    BIDIRECTED,
    dependence_graph_from_edges,
    incidence_cliques,
    kneser_graph,
)
from .estimation import (
    ErgmSpec,
    STATUS_NON_UNIQUE,
    degree_collision_classes,
    dissociated_mle,
    ergm_fit,
    ergm_stats,
    exch_mle,
)
from .extendability import extendable_check
from .graphs import LabeledNetwork, UnlabeledClass, dyad_index
from .mobius import (
    ClassDistribution,
    bidirected_joint,
    mask_of,
    mobius_from_class_distribution,
)


@dataclass
class BatteryItem:
    name: str
    ok: bool
    detail: str = ""


def paw_network() -> LabeledNetwork:
    return LabeledNetwork.from_edges(4, [(1, 4), (2, 3), (2, 4), (3, 4)])


GOLDEN_MLE = {
    "1-2": Fraction(2, 3),
    "1-3,2-3": Fraction(5, 12),
    "1-4,2-3": Fraction(1, 3),
    "1-2,1-3,2-3": Fraction(1, 4),
    "1-4,2-4,3-4": Fraction(1, 4),
    "1-4,2-3,3-4": Fraction(1, 6),
    "1-4,2-3,2-4,3-4": Fraction(1, 12),
}

GOLDEN_DISSOCIATED = {
    "1-2": Fraction(1, 2),
    "1-3,2-3": Fraction(5, 16),
    "1-4,2-3": Fraction(1, 4),
    "1-2,1-3,2-3": Fraction(3, 16),
    "1-4,2-4,3-4": Fraction(3, 16),
    "1-4,2-3,3-4": Fraction(1, 8),
    "1-4,2-3,2-4,3-4": Fraction(1, 16),
}


def _golden_mismatch(mv, golden: dict, tol: float | None = None) -> str:
    """The first z of ``mv`` off its golden value (1 for the empty class, 0
    for classes the table leaves out), exactly or within ``tol``; "" if
    none."""
    for u, v in mv.in_order():
        want = golden.get(u.key(), Fraction(1) if u.is_empty else Fraction(0))
        if (v != want) if tol is None else (abs(v - float(want)) > tol):
            return f"z[{u.key()}] = {v}, want {want}"
    return ""


def _item_exch_mle() -> str:
    return _golden_mismatch(exch_mle(paw_network()), GOLDEN_MLE)


def _item_stats() -> str:
    paw = paw_network()
    fs = ergm_stats(ErgmSpec("frank_strauss", 4), paw)
    kn = ergm_stats(ErgmSpec("kneser", 4), paw)
    if fs != (4, 5, 1, 1):
        return f"frank_strauss {fs}"
    return "" if kn == (4, 1) else f"kneser {kn}"


def _item_inj_values() -> str:
    s3 = star_class(3).representative()
    got = (inj(s3, paw_network()), inj(s3, LabeledNetwork.complete(4)))
    return "" if got == (6, 24) else f"got {got}"


def _item_supergraph_coefficients() -> str:
    table = class_table(4)
    got = {
        u.key(): r
        for u, r in zip(table.classes, table.supergraphs(paw_network()))
        if r
    }
    want = {
        "1-4,2-3,2-4,3-4": 1,
        "1-3,1-4,2-3,2-4,3-4": 2,
        "1-2,1-3,1-4,2-3,2-4,3-4": 1,
    }
    return "" if got == want else f"got {got}"


def _item_dissociated_mle() -> str:
    rep = dissociated_mle(paw_network())
    bad = _golden_mismatch(rep.z, GOLDEN_DISSOCIATED, 1e-4)
    if bad:
        return bad
    if abs(rep.likelihood - 1 / 16) > 1e-6:
        return f"likelihood {rep.likelihood}"
    if rep.constraint_residual > 1e-8:
        return f"residual {rep.constraint_residual}"
    return ""


def _item_dissociated_flat_family() -> str:
    rep = dissociated_mle(LabeledNetwork.path(4))
    if rep.status != STATUS_NON_UNIQUE:
        return f"status {rep.status}"
    if abs(rep.likelihood - 1 / 16) > 1e-6:
        return f"likelihood {rep.likelihood}"
    return ""


def _item_mixture_moments() -> str:
    paw_cls = UnlabeledClass.of(paw_network())
    cd = ClassDistribution(
        4, {paw_cls: Fraction(3, 4), UnlabeledClass.empty(): Fraction(1, 4)}
    )
    return _golden_mismatch(mobius_from_class_distribution(cd), GOLDEN_DISSOCIATED)


def _item_bidirected_chain() -> str:
    # three variables in a bidirected chain, realized on the dyads of n=3
    dep = dependence_graph_from_edges(
        3, BIDIRECTED, [("1-2", "1-3"), ("1-3", "2-3")]
    )
    z1, z2, z3 = Fraction(1, 2), Fraction(2, 5), Fraction(3, 7)
    z12, z23 = Fraction(1, 6), Fraction(1, 8)
    z123 = Fraction(1, 11)
    z = {
        mask_of([0]): z1,
        mask_of([1]): z2,
        mask_of([2]): z3,
        mask_of([0, 1]): z12,
        mask_of([1, 2]): z23,
        mask_of([0, 2]): z1 * z3,
        mask_of([0, 1, 2]): z123,
    }
    marg13 = bidirected_joint(dep, z, mask_of([0, 2])) + bidirected_joint(
        dep, z, mask_of([0, 1, 2])
    )
    if marg13 != z1 * z3:
        return f"P(X1=1,X3=1) = {marg13}"
    lone = bidirected_joint(dep, z, mask_of([0]))
    if lone != z1 - z12 - z1 * z3 + z123:
        return f"P(X1=1,X2=0,X3=0) = {lone}"
    return ""


def _item_bidirected_complement() -> str:
    dep = kneser_graph(4, BIDIRECTED)
    paw_mask = mask_of(
        [dyad_index(1, 4), dyad_index(2, 3), dyad_index(2, 4), dyad_index(3, 4)]
    )
    pairs = [frozenset(p) for p in ([0, 5], [1, 4], [2, 3])]
    for ze_num in range(1, 5):
        for zu_num in range(1, 5):
            ze = Fraction(ze_num, 6)
            zu = Fraction(zu_num, 18)
            z = {}
            for k in range(6):
                z[mask_of([k])] = ze
            for pr in pairs:
                z[mask_of(pr)] = zu
            got = bidirected_joint(dep, z, paw_mask)
            want = ze**2 * zu - 2 * ze * zu**2 + zu**3
            if got != want:
                return f"ze={ze} zu={zu}: got {got}, want {want}"
    return ""


def _item_collisions() -> str:
    if degree_collision_classes(4):
        return "groups at n=4"
    groups = degree_collision_classes(5)
    if len(groups) != 3 or any(len(g) != 2 for g in groups):
        return f"{len(groups)} groups at n=5"
    seen = {tuple(sorted(g[0].padded(5).degrees(), reverse=True)) for g in groups}
    want = {(2, 2, 2, 1, 1), (3, 2, 2, 2, 1), (3, 3, 2, 2, 2)}
    return "" if seen == want else f"got {seen}"


def _item_petersen() -> str:
    dep = kneser_graph(5)
    if dep.m != 10 or dep.edge_count() != 15:
        return f"{dep.m} vertices, {dep.edge_count()} edges"
    if any(dep.degree(k) != 3 for k in range(dep.m)):
        return "not 3-regular"
    bad = [c for c in incidence_cliques(5) if c.shape == "other"]
    return f"{len(bad)} unclassified cliques" if bad else ""


def _item_not_extendable() -> str:
    rep = extendable_check(exch_mle(paw_network()), 5)
    return "reported feasible at m=5" if rep.feasible else ""


def _item_edge_logit() -> str:
    fit = ergm_fit(ErgmSpec("edges", 4), paw_network())  # 4 edges out of 6
    if fit.status != "optimal":
        return f"status {fit.status}"
    want = math.log((4 / 6) / (1 - 4 / 6))
    got = fit.nu["star1"]
    return "" if abs(got - want) < 1e-8 else f"got {got}, want {want}"


BATTERY = {
    "exchangeable-mle": _item_exch_mle,
    "family-statistics": _item_stats,
    "injective-counts": _item_inj_values,
    "supergraph-coefficients": _item_supergraph_coefficients,
    "mixture-moments": _item_mixture_moments,
    "dissociated-mle": _item_dissociated_mle,
    "dissociated-flat-family": _item_dissociated_flat_family,
    "bidirected-chain": _item_bidirected_chain,
    "bidirected-complement": _item_bidirected_complement,
    "degree-collisions": _item_collisions,
    "petersen-structure": _item_petersen,
    "mle-not-extendable": _item_not_extendable,
    "edge-parameter-logit": _item_edge_logit,
}


def run_battery() -> list:
    """One ``BatteryItem`` per ``BATTERY`` entry, in table order."""
    return [
        BatteryItem(name, not detail, detail)
        for name, check in BATTERY.items()
        for detail in [check()]
    ]
