"""Acceptance suite: every shipped guarantee, one criterion per test class.

Each test carries an ``acceptance`` marker; the terminal summary prints one
PASS/FAIL line per criterion (see conftest).  Tolerances here are the
contract, not calibration knobs.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from oracles import oracle_inj

from exchnet.cli import main
from exchnet.counting import (
    class_aut,
    cycle_class,
    edge_class,
    inj,
    sigma,
    star_class,
    star_count_from_degrees,
    sub,
    two_disjoint_edges_class,
    two_disjoint_edges_from_degrees,
)
from exchnet.dependence import (
    BIDIRECTED,
    classify_skeleton,
    dissociated_check,
    empty_dependence_graph,
    global_markov_check,
    incidence_cliques,
    incidence_graph,
    kneser_graph,
    skeleton,
)
from exchnet.estimation import (
    ErgmSpec,
    degree_collision_classes,
    ergm_stats,
    exch_mle,
    summarized_check,
)
from exchnet.extendability import extendable_check
from exchnet.genmodels import (
    BetaSpec,
    Graphon,
    MixingSpec,
    beta_joint,
    er_characterization_diagnostic,
    er_joint,
    er_mobius,
    graphon_mobius,
    graphon_z,
    marginal_beta_joint,
)
from exchnet.graphs import (
    LabeledNetwork,
    UnlabeledClass,
    degree_distribution,
    dyad_index,
    enumerate_classes,
    format_edge_list,
    num_dyads,
)
from exchnet.mobius import (
    ClassDistribution,
    JointTable,
    bidirected_joint,
    joint_from_labeled_mobius,
    labeled_from_exchangeable,
    labeled_mobius_from_joint,
    mask_of,
    mobius_from_class_distribution,
    validate_mobius,
)

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


@pytest.mark.acceptance("01 golden exchangeable MLE, exact")
class TestCriterion01GoldenMle:
    def test_cli_mle_reproduces_golden_rationals(self, tmp_path, capsys, paw):
        path = tmp_path / "paw.edges"
        path.write_text(format_edge_list(paw))
        assert main(["mle", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        got = {item["class"]: item["z"] for item in obj["z"]}
        assert got["EMPTY"] == "1"
        for u in enumerate_classes(4, False):
            want = GOLDEN_MLE.get(u.key(), Fraction(0))
            assert Fraction(got[u.key()]) == want


@pytest.mark.acceptance("02 golden family statistics, exact")
class TestCriterion02GoldenStats:
    def test_frank_strauss_exponent_multiset(self, paw):
        assert ergm_stats(ErgmSpec("frank_strauss", 4), paw) == (4, 5, 1, 1)

    def test_kneser_exponents(self, paw):
        assert ergm_stats(ErgmSpec("kneser", 4), paw) == (4, 1)


@pytest.mark.acceptance("03 dissociated MLE values, likelihood, flat family")
class TestCriterion03DissociatedMle:
    def test_paw_estimate(self, paw_dissociated_fit):
        rep = paw_dissociated_fit
        for u, v in rep.z.in_order():
            want = GOLDEN_DISSOCIATED.get(
                u.key(), Fraction(1) if u.is_empty else Fraction(0)
            )
            assert abs(v - float(want)) <= 1e-4, u.key()
        assert abs(rep.likelihood - 1 / 16) <= 1e-6
        assert rep.constraint_residual < 1e-8

    def test_path4_flat_optimum(self, path4_dissociated_fit):
        assert abs(path4_dissociated_fit.likelihood - 1 / 16) <= 1e-6
        assert path4_dissociated_fit.status == "non_unique"

    def test_path4_endpoints_feasible_equal_likelihood(self, path4):
        p4 = UnlabeledClass.of(path4)
        liks = []
        for extreme in (
            UnlabeledClass.of(LabeledNetwork.complete(3)),
            star_class(3),
        ):
            cd = ClassDistribution(
                4, {p4: Fraction(3, 4), extreme: Fraction(1, 4)}
            )
            mv = mobius_from_class_distribution(cd)
            assert dissociated_check(labeled_from_exchangeable(mv)).holds
            assert validate_mobius(mv).ok
            liks.append(float(cd.labeled_prob(path4)))
        assert abs(liks[0] - liks[1]) <= 1e-7


@pytest.mark.acceptance("04 moment transform round trip, exact")
class TestCriterion04RoundTrip:
    def test_hundred_random_rational_joints(self):
        rng = random.Random(2024)
        for n in (3, 4):
            m = num_dyads(n)
            for _ in range(100):
                weights = [rng.randrange(0, 12) for _ in range(1 << m)]
                if sum(weights) == 0:
                    weights[0] = 1
                total = sum(weights)
                jt = JointTable(
                    n, tuple(Fraction(w, total) for w in weights)
                )
                lm = labeled_mobius_from_joint(jt)
                back = joint_from_labeled_mobius(lm)
                assert back.probs == jt.probs
                for mask in range(1 << m):
                    for b in range(m):
                        if not mask >> b & 1:
                            assert lm.z[mask] >= lm.z[mask | 1 << b]


@pytest.mark.acceptance("05 counting oracle equivalence up to 5 nodes, exact")
class TestCriterion05CountingOracle:
    def test_all_class_pairs(self):
        classes = enumerate_classes(5, True)
        pairs = 0
        for uf in classes:
            f = uf.representative() if not uf.is_empty else LabeledNetwork.empty(0)
            for ug in classes:
                g = ug.padded(5)
                got = inj(f, g)
                assert got == oracle_inj(f, g)
                if not uf.is_empty:
                    assert sub(f, g) * class_aut(uf) == got
                pairs += 1
        assert pairs == 34 * 34


@pytest.mark.acceptance("06 degree-formula counts on every graph up to 6 nodes")
class TestCriterion06DegreeFormulas:
    def test_stars_and_matching_formulas(self):
        for n in range(2, 7):
            for w in enumerate_classes(n, True):
                x = w.padded(n)
                dd = degree_distribution(x)
                for k in range(1, min(n, 6)):
                    assert star_count_from_degrees(dd, k) == sigma(
                        star_class(k), x
                    )
                assert two_disjoint_edges_from_degrees(dd) == sigma(
                    two_disjoint_edges_class(), x
                )


@pytest.mark.acceptance("07 degree-distribution collisions at 4 and 5 nodes")
class TestCriterion07Collisions:
    def test_no_collisions_at_four(self):
        assert degree_collision_classes(4) == []

    def test_three_pairs_at_five(self):
        groups = degree_collision_classes(5)
        assert len(groups) == 3 and all(len(g) == 2 for g in groups)
        multisets = {
            tuple(sorted(g[0].padded(5).degrees(), reverse=True))
            for g in groups
        }
        assert multisets == {(2, 2, 2, 1, 1), (3, 2, 2, 2, 1), (3, 3, 2, 2, 2)}


@pytest.mark.acceptance("08 bidirected factorized evaluation, exact")
class TestCriterion08Bidirected:
    def test_matching_structure_grid(self, paw):
        dep = kneser_graph(4, BIDIRECTED)
        pairs = [[0, 5], [1, 4], [2, 3]]
        for a in range(1, 6):
            for b in range(1, 6):
                ze = Fraction(a, 6)
                zu = Fraction(b, 30)
                z = {mask_of([k]): ze for k in range(6)}
                for pr in pairs:
                    z[mask_of(pr)] = zu
                got = bidirected_joint(dep, z, paw.mask)
                want = ze**2 * zu - 2 * ze * zu**2 + zu**3
                assert abs(got - want) <= Fraction(1, 10**12)

    def test_chain_identities(self):
        from exchnet.dependence import dependence_graph_from_edges

        dep = dependence_graph_from_edges(
            3, BIDIRECTED, [("1-2", "1-3"), ("1-3", "2-3")]
        )
        z1, z2, z3 = Fraction(3, 5), Fraction(2, 5), Fraction(1, 3)
        z12, z23, z123 = Fraction(1, 4), Fraction(1, 8), Fraction(1, 10)
        z = {
            mask_of([0]): z1,
            mask_of([1]): z2,
            mask_of([2]): z3,
            mask_of([0, 1]): z12,
            mask_of([1, 2]): z23,
            mask_of([0, 2]): z1 * z3,
            mask_of([0, 1, 2]): z123,
        }
        assert (
            bidirected_joint(dep, z, mask_of([0, 2]))
            + bidirected_joint(dep, z, mask_of([0, 1, 2]))
            == z1 * z3
        )
        assert (
            bidirected_joint(dep, z, mask_of([0]))
            == z1 - z12 - z1 * z3 + z123
        )


@pytest.fixture(scope="module")
def two_point():
    return marginal_beta_joint(4, MixingSpec.two_point(-1.0, 1.5, 0.5))


@pytest.mark.acceptance("09 Markov and skeleton battery at 4 nodes")
class TestCriterion09MarkovBattery:
    def test_er_skeleton_empty(self):
        sk = skeleton(er_joint(4, Fraction(1, 3)))
        assert classify_skeleton(sk) == "empty"

    def test_two_point_markov_verdicts(self, two_point):
        assert global_markov_check(
            two_point, incidence_graph(4, BIDIRECTED)
        ).holds
        assert not global_markov_check(
            two_point, empty_dependence_graph(4)
        ).holds

    def test_two_point_skeleton_is_incidence(self, two_point):
        assert classify_skeleton(skeleton(two_point)) == "incidence"

    def test_suite_skeletons_classify(self, paw, two_point):
        suite = [
            er_joint(4, Fraction(1, 3)),
            er_joint(4, 0.3),
            two_point,
            ClassDistribution.point_mass(UnlabeledClass.of(paw), 4).to_joint(),
            ClassDistribution(
                4,
                {
                    UnlabeledClass.of(paw): Fraction(3, 4),
                    UnlabeledClass.empty(): Fraction(1, 4),
                },
            ).to_joint(),
        ]
        for jt in suite:
            assert classify_skeleton(skeleton(jt)) in {
                "empty",
                "incidence",
                "kneser",
                "complete",
            }


@pytest.mark.acceptance("10 extendability verdicts by exact pivoting")
class TestCriterion10Extendability:
    def test_er_feasible_up_to_seven(self):
        mv = er_mobius(4, Fraction(1, 3))
        for m in (4, 5, 6, 7):
            rep = extendable_check(mv, m)
            assert rep.feasible, f"m={m}"
            assert rep.certificate is not None

    def test_paw_mle_infeasible_at_five(self, paw):
        rep = extendable_check(exch_mle(paw), 5)
        assert not rep.feasible
        assert rep.infeasibility_margin > 0  # exact rational margin


@pytest.mark.acceptance("11 dependence structure counts")
class TestCriterion11Structures:
    def test_petersen(self):
        dep = kneser_graph(5)
        assert dep.m == 10
        assert dep.edge_count() == 15
        assert all(dep.degree(k) == 3 for k in range(10))

    def test_incidence_cliques_all_classify(self):
        cliques = incidence_cliques(5)
        assert cliques
        assert all(c.shape in ("triangle", "star") for c in cliques)


@pytest.mark.acceptance("12 generative model checks")
class TestCriterion12Generative:
    def test_equal_propensity_reduces_to_independent_ties(self):
        b = 0.8
        p = math.exp(2 * b) / (1 + math.exp(2 * b))
        assert beta_joint(BetaSpec((b,) * 4)).probs == er_joint(4, p).probs

    def test_two_point_mixtures_pass_all_checks(self):
        for n in (4, 5):
            jt = marginal_beta_joint(n, MixingSpec.two_point(-1.0, 1.5, 0.5))
            # exchangeable under generator permutations
            swap = {v: v for v in range(1, n + 1)}
            swap[1], swap[2] = 2, 1
            cyc = {v: v % n + 1 for v in range(1, n + 1)}
            for gen in (swap, cyc):
                for mask in range(len(jt.probs)):
                    x = LabeledNetwork.from_mask(n, mask)
                    assert (
                        abs(jt.probs[mask] - jt.probs[x.permute(gen).mask])
                        <= 1e-10
                    )
            assert dissociated_check(labeled_mobius_from_joint(jt)).holds
            assert summarized_check(jt).holds

    def test_constant_kernel_moments_exact(self):
        phi = Graphon.constant(0.3)
        for u in (edge_class(), star_class(2), cycle_class(4)):
            est = graphon_z(phi, u)
            assert est.value == 0.3**u.edge_count

    def test_product_kernel_moments_within_bound(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        est_edge = graphon_z(uv, edge_class())
        assert abs(est_edge.value - 0.25) <= max(est_edge.error, 1e-15)
        est_star = graphon_z(uv, star_class(2))
        assert abs(est_star.value - 1 / 12) <= est_star.error

    def test_diagnostic_flags_and_clears(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        flagged = er_characterization_diagnostic(graphon_mobius(uv, 4), 0.25)
        assert flagged.flags_dependence()
        assert flagged.residual_two_star > 0
        clean = er_characterization_diagnostic(
            graphon_mobius(Graphon.constant(0.25), 4), 0.25
        )
        assert clean.max_deviation == 0
        assert not clean.flags_dependence()


@pytest.mark.acceptance("13 seeded determinism of stochastic commands")
class TestCriterion13Determinism:
    def _run_twice(self, capsys, argv):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        return first, second

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "er", "--n", "4", "--p", "0.5", "--seed", "7", "--count", "2"],
            ["sample", "beta", "--beta", "0.5,-0.2,0.1,0.4", "--seed", "11"],
            [
                "sample",
                "marginal-beta",
                "--n",
                "4",
                "--mixing",
                "two-point:-1.0,1.5,0.5",
                "--seed",
                "13",
                "--count",
                "3",
            ],
            [
                "sample",
                "graphon",
                "--phi",
                "product:logistic:0.0,1.0",
                "--n",
                "5",
                "--seed",
                "17",
            ],
            [
                "graphon-z",
                "const:0.3",
                "1-2,2-3",
                "--method",
                "mc",
                "--samples",
                "500",
                "--seed",
                "19",
            ],
        ],
        ids=["er", "beta", "marginal-beta", "graphon", "graphon-z-mc"],
    )
    def test_byte_identical(self, capsys, argv):
        first, second = self._run_twice(capsys, argv)
        assert first == second
        assert first
