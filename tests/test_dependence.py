from fractions import Fraction

import pytest
from oracles import oracle_first_unfactored_mask, oracle_triples

from exchnet.dependence import (
    BIDIRECTED,
    MAX_MARKOV_DYADS,
    UNDIRECTED,
    DependenceGraph,
    DissociatedCheckResult,
    _triples,
    ci_test,
    classify_skeleton,
    complete_dependence_graph,
    dependence_graph_from_edges,
    dissociated_check,
    empty_dependence_graph,
    global_markov_check,
    incidence_cliques,
    incidence_graph,
    kneser_graph,
    separates,
    skeleton,
)
from exchnet.estimation import ClassDistribution
from exchnet.genmodels import er_joint, marginal_beta_joint, MixingSpec
from exchnet.graphs import (
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_from_key,
)
from exchnet.mobius import JointTable, labeled_mobius_from_joint


@pytest.fixture(scope="module")
def two_point_joint():
    return marginal_beta_joint(4, MixingSpec.two_point(-1.0, 1.5, 0.5))


class TestStructures:
    def test_incidence_counts(self):
        dep = incidence_graph(4)
        assert dep.m == 6
        assert dep.edge_count() == 12

    def test_incidence_triangle_at_3(self):
        dep = incidence_graph(3)
        assert dep.m == 3
        assert dep.edge_count() == 3

    def test_incidence_degrees_at_5(self):
        dep = incidence_graph(5)
        assert dep.m == 10
        assert all(dep.degree(k) == 6 for k in range(10))

    def test_kneser_petersen(self):
        dep = kneser_graph(5)
        assert dep.m == 10
        assert dep.edge_count() == 15
        assert all(dep.degree(k) == 3 for k in range(10))

    def test_kneser_matching_at_4(self):
        dep = kneser_graph(4)
        got = {frozenset(p) for p in dep.edge_pairs()}
        assert got == {frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3})}

    def test_complement_relation(self):
        for n in (3, 4, 5, 6):
            inc = incidence_graph(n)
            kn = kneser_graph(n)
            assert kn.adjacency == inc.complement().adjacency

    def test_node_count_out_of_range_is_refused(self):
        # num_dyads(-1) is 1: a negative n would build a graph over one dyad
        with pytest.raises(ValueError):
            dependence_graph_from_edges(-1, UNDIRECTED, [])
        with pytest.raises(SizeCapError):
            dependence_graph_from_edges(8, UNDIRECTED, [])
        assert dependence_graph_from_edges(7, UNDIRECTED, []).m == 21


class TestIncidenceCliques:
    def test_triangle_and_star_at_4(self):
        cliques = incidence_cliques(4)
        shapes = {c.dyad_indices: c.shape for c in cliques}
        tri = tuple(sorted([0, 1, 2]))  # dyads 1-2, 1-3, 2-3
        assert shapes[tri] == "triangle"
        star = tuple(sorted([0, 1, 3]))  # dyads 1-2, 1-3, 1-4 share node 1
        assert shapes[star] == "star"

    def test_all_classified_at_5(self):
        assert all(c.shape != "other" for c in incidence_cliques(5))

    def test_eight_nodes_are_refused(self):
        with pytest.raises(SizeCapError):
            incidence_cliques(8)


class TestSeparation:
    def test_undirected_uses_deleted_separator(self):
        dep = incidence_graph(4, UNDIRECTED)
        a = 1 << 0
        b = 1 << 5  # dyads 1-2 and 3-4 are non-adjacent
        rest = (1 << 6) - 1 & ~(a | b)
        assert separates(dep, a, b, rest)
        assert not separates(dep, a, b, 0)

    def test_bidirected_uses_outside_vertices(self):
        dep = incidence_graph(4, BIDIRECTED)
        a = 1 << 0
        b = 1 << 5
        assert separates(dep, a, b, 0)  # paths leave {1-2, 3-4}
        rest = (1 << 6) - 1 & ~(a | b)
        assert not separates(dep, a, b, rest)


class TestCiTest:
    def test_er_independence(self):
        jt = er_joint(4, Fraction(1, 3))
        assert ci_test(jt, 1 << 0, 1 << 5, 0)
        assert ci_test(jt, 1 << 0, 1 << 1, (1 << 2) | (1 << 3))

    def test_two_point_marginal_beta(self, two_point_joint):
        def mask(*pairs):
            return LabeledNetwork.from_edges(4, pairs).mask

        assert ci_test(two_point_joint, mask((1, 2)), mask((3, 4)), 0)
        assert not ci_test(two_point_joint, mask((1, 2)), mask((1, 3)), 0)

    def test_point_mass_degenerate(self, paw):
        probs = [Fraction(0)] * 64
        probs[paw.mask] = Fraction(1)
        jt = JointTable(4, tuple(probs))
        assert ci_test(jt, 1 << 0, 1 << 1, 0)
        assert ci_test(jt, 1 << 0, 1 << 1, 1 << 2)

    def test_rejects_overlap(self):
        jt = er_joint(3, Fraction(1, 2))
        with pytest.raises(ValueError):
            ci_test(jt, 1, 1, 0)


class TestGlobalMarkov:
    def test_er_against_empty_graph(self):
        jt = er_joint(4, Fraction(1, 3))
        assert global_markov_check(jt, empty_dependence_graph(4)).holds

    def test_two_point_against_bidirected_incidence(self, two_point_joint):
        assert global_markov_check(
            two_point_joint, incidence_graph(4, BIDIRECTED)
        ).holds

    def test_two_point_fails_empty_graph(self, two_point_joint):
        res = global_markov_check(two_point_joint, empty_dependence_graph(4))
        assert not res.holds
        a, b, s = res.counterexample
        assert {a, b} == {1 << 0, 1 << 1}  # dyads 1-2 and 1-3
        assert s == 0

    def test_any_joint_markov_to_complete_graph(self, two_point_joint):
        for kind in (UNDIRECTED, BIDIRECTED):
            dep = complete_dependence_graph(4, kind)
            assert global_markov_check(two_point_joint, dep).holds

    def test_er_markov_both_kinds_of_empty(self):
        jt = er_joint(4, Fraction(1, 4))
        for kind in (UNDIRECTED, BIDIRECTED):
            assert global_markov_check(jt, empty_dependence_graph(4, kind)).holds


class TestTriples:
    @pytest.mark.parametrize("m", range(MAX_MARKOV_DYADS + 1))
    def test_matches_oracle_in_order(self, m):
        assert _triples(m) == oracle_triples(m)


class TestSkeleton:
    def test_er_skeleton_empty(self):
        sk = skeleton(er_joint(4, Fraction(1, 3)))
        assert classify_skeleton(sk) == "empty"

    def test_point_mass_skeleton_empty(self, paw):
        probs = [Fraction(0)] * 64
        probs[paw.mask] = Fraction(1)
        sk = skeleton(JointTable(4, tuple(probs)))
        assert classify_skeleton(sk) == "empty"

    def test_two_point_skeleton_incidence(self, two_point_joint):
        sk = skeleton(two_point_joint)
        assert classify_skeleton(sk) == "incidence"

    def test_exchangeable_suite_classifies_in_four_types(self, paw, two_point_joint):
        suite = [
            er_joint(4, Fraction(1, 3)),
            two_point_joint,
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
            kind = classify_skeleton(skeleton(jt))
            assert kind in {"empty", "incidence", "kneser", "complete"}


class TestClassifySkeleton:
    def test_reference_structures(self):
        assert classify_skeleton(incidence_graph(4)) == "incidence"
        assert classify_skeleton(kneser_graph(5)) == "kneser"
        assert classify_skeleton(empty_dependence_graph(4)) == "empty"
        assert classify_skeleton(complete_dependence_graph(4)) == "complete"

    def test_near_complete_is_other(self):
        dep = complete_dependence_graph(4)
        adj = list(dep.adjacency)
        adj[0] &= ~(1 << 1)
        adj[1] &= ~(1 << 0)
        assert classify_skeleton(DependenceGraph(4, UNDIRECTED, tuple(adj))) == "other"


class TestDissociatedCheck:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_at_most_one_dyad_always_holds(self, n):
        lm = labeled_mobius_from_joint(er_joint(n, Fraction(1, 3)))
        assert dissociated_check(lm) == DissociatedCheckResult(True)

    def test_er_is_dissociated(self):
        lm = labeled_mobius_from_joint(er_joint(4, Fraction(1, 3)))
        assert dissociated_check(lm).holds

    def test_uniform_on_paw_is_not(self, paw):
        cd = ClassDistribution.point_mass(UnlabeledClass.of(paw), 4)
        lm = labeled_mobius_from_joint(cd.to_joint())
        res = dissociated_check(lm)
        assert not res.holds
        assert res.violating_mask is not None

    def test_disconnected_point_mass_at_five(self):
        # K2 + P3: the first mask that fails the vertex-component product
        # is the one the check reports
        cd = ClassDistribution.point_mass(class_from_key("1-2,3-4,4-5"), 5)
        lm = labeled_mobius_from_joint(cd.to_joint())
        res = dissociated_check(lm)
        assert not res.holds
        assert res.violating_mask == oracle_first_unfactored_mask(lm)

    def test_er_is_dissociated_at_five(self):
        lm = labeled_mobius_from_joint(er_joint(5, Fraction(1, 3)))
        assert oracle_first_unfactored_mask(lm) is None
        assert dissociated_check(lm).holds

    def test_mixture_is_dissociated(self, paw):
        cd = ClassDistribution(
            4,
            {
                UnlabeledClass.of(paw): Fraction(3, 4),
                UnlabeledClass.empty(): Fraction(1, 4),
            },
        )
        lm = labeled_mobius_from_joint(cd.to_joint())
        assert dissociated_check(lm).holds

    def test_matches_bidirected_markov_property(self, paw, two_point_joint):
        dep = incidence_graph(4, BIDIRECTED)
        suite = [
            er_joint(4, Fraction(1, 3)),
            two_point_joint,
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
            markov = global_markov_check(jt, dep).holds
            dissoc = dissociated_check(labeled_mobius_from_joint(jt)).holds
            assert markov == dissoc

    def test_marginalization_preserves_bidirected_markov(self, two_point_joint):
        from exchnet.extendability import marginalize_joint

        dep = incidence_graph(4, BIDIRECTED)
        assert global_markov_check(two_point_joint, dep).holds
        sub = marginalize_joint(two_point_joint, [1, 2, 3])
        sub_dep = dep.induced_on_nodes([1, 2, 3])
        assert global_markov_check(sub, sub_dep).holds
