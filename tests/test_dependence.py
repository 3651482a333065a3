from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import oracle_ci, oracle_first_unfactored_mask, oracle_triples

from exchnet import dependence
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
from exchnet.genmodels import er_joint, marginal_beta_joint, MixingSpec
from exchnet.graphs import (
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_from_key,
    num_dyads,
    reachable,
)
from exchnet.mobius import ClassDistribution, JointTable, labeled_mobius_from_joint


# distinct primes, at least seven of them above 8
_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@st.composite
def _coprime_joint(draw):
    """An exact table at n = 3: seven entries over distinct primes, each at
    most 1/8, and one more that makes the total 1."""
    primes = draw(st.permutations(_PRIMES))
    probs = [Fraction(draw(st.integers(0, p // 8)), p) for p in primes[:7]]
    probs.insert(draw(st.integers(0, 7)), 1 - sum(probs))
    return JointTable(3, tuple(probs))


def _er_two_point_joint():
    """The even mixture of independent ties at 1/5 and 3/5 on 4 nodes: exact,
    and every two dyads are dependent."""
    low = er_joint(4, Fraction(1, 5)).probs
    high = er_joint(4, Fraction(3, 5)).probs
    return JointTable(4, tuple((a + b) / 2 for a, b in zip(low, high)))


def _block_joint():
    """Dyads 1-2 and 1-3 take (0, 0), (1, 0), (0, 1) with probabilities 1/2,
    1/4, 1/4, independently of four independent ties at 1/3: entries over
    81, 162 and 324, and statements that hold and that fail."""
    head = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)]
    third = Fraction(1, 3)
    tail = [third ** t.bit_count() * (1 - third) ** (4 - t.bit_count()) for t in range(16)]
    return JointTable(4, tuple(head[x & 3] * tail[x >> 2] for x in range(64)))


@pytest.fixture(scope="module")
def two_point_joint():
    return marginal_beta_joint(4, MixingSpec.two_point(-1.0, 1.5, 0.5))


class TestStructures:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: DependenceGraph(3, "directed", (0, 0, 0)), "unknown edge kind"),
            (
                lambda: DependenceGraph(3, UNDIRECTED, (0, 0)),
                "adjacency size does not match dyad count",
            ),
            (lambda: DependenceGraph(3, UNDIRECTED, (0, 0b10, 0)), "self-adjacency at dyad 1"),
            # dyad 0 names dyad 1, which does not name dyad 0
            (
                lambda: DependenceGraph(3, UNDIRECTED, (0b010, 0, 0)),
                "adjacency not symmetric at dyads 0 and 1",
            ),
            (
                lambda: DependenceGraph(3, BIDIRECTED, (1 << 9, 0, 0)),
                "dyad 0 is adjacent past the last dyad 2",
            ),
            (lambda: incidence_graph(2), "incidence graph needs n >= 3"),
            (lambda: kneser_graph(2), "kneser graph needs n >= 3"),
            (
                lambda: ci_test(er_joint(3, Fraction(1, 2)), 0, 1, 0),
                "A and B must be non-empty",
            ),
            (
                lambda: global_markov_check(
                    er_joint(3, Fraction(1, 2)), empty_dependence_graph(2)
                ),
                "node counts differ",
            ),
            (
                lambda: incidence_graph(4).induced_on_nodes([1, 9]),
                "nodes \\[1, 9\\] are not distinct nodes of 1..4",
            ),
            # the paw's table: dyads 0..5, so bit 10 names no dyad
            (
                lambda: ci_test(
                    ClassDistribution.point_mass(class_from_key("1-4,2-3,2-4,3-4"), 4)
                    .to_joint(),
                    1 << 10, 2, 0,
                ),
                "a dyad mask has a bit past the last dyad 5",
            ),
            (
                lambda: separates(incidence_graph(4), 1 << 10, 1, 0),
                "a dyad mask has a bit past the last dyad 5",
            ),
        ],
        ids=["kind", "adjacency-size", "self-adjacency", "asymmetric", "past-last-dyad",
             "incidence-n2",
             "kneser-n2", "ci-empty-a", "markov-node-counts", "induced-node-9",
             "ci-mask-past-last-dyad", "separates-mask-past-last-dyad"],
    )
    def test_malformed_request_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

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

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", [UNDIRECTED, BIDIRECTED])
    @pytest.mark.parametrize(
        "make",
        [empty_dependence_graph, incidence_graph, kneser_graph, complete_dependence_graph],
    )
    def test_component_tables_equal_per_triple_reachability(
        self, make, kind, n, monkeypatch
    ):
        """The triples that the Markov check tests, read off one component
        table per allowed set, are the triples that a search from A through
        the allowed dyads finds apart from B, in the same order."""
        dep = make(n, kind)
        full = (1 << dep.m) - 1
        want = [
            (a, b, s)
            for a, b, s in _triples(dep.m)
            if not reachable(
                dep.adjacency, full & ~s if kind == UNDIRECTED else a | b | s, a
            ) & b
        ]
        tested = []
        monkeypatch.setattr(
            dependence, "ci_test", lambda jt, *t: tested.append(t) or True
        )
        assert global_markov_check(er_joint(n, Fraction(1, 3)), dep).holds
        assert tested == want
        assert [t for t in _triples(dep.m) if separates(dep, *t)] == want


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

    @pytest.mark.parametrize(
        "make, outcomes",
        [
            (lambda: er_joint(4, Fraction(1, 3)), {True}),
            (_er_two_point_joint, {False}),
            (_block_joint, {True, False}),
        ],
        ids=["er", "two-point", "block"],
    )
    def test_matches_oracle_on_every_triple(self, make, outcomes):
        jt = make()
        verdicts = {
            t: oracle_ci(jt, *t) for t in oracle_triples(num_dyads(jt.n))
        }
        assert {t: ci_test(jt, *t) for t in verdicts} == verdicts
        assert set(verdicts.values()) == outcomes

    @settings(max_examples=60, deadline=None)
    @given(jt=_coprime_joint())
    def test_matches_oracle_on_coprime_denominators(self, jt):
        for t in oracle_triples(3):
            assert ci_test(jt, *t) == oracle_ci(jt, *t), t

    @pytest.mark.parametrize("p", [0, 1])
    def test_integer_entries(self, p):
        jt = er_joint(4, p)
        assert all(type(v) is int for v in jt.probs)
        assert ci_test(jt, 1 << 0, 1 << 5, 0)
        assert ci_test(jt, 1 << 0, 1 << 1, (1 << 2) | (1 << 3))
        assert classify_skeleton(skeleton(jt)) == "empty"
        assert global_markov_check(jt, empty_dependence_graph(4)).holds


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
        assert list(_triples(m)) == oracle_triples(m)


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
