import math
from fractions import Fraction

import pytest
from oracles import oracle_inj, oracle_r_count, oracle_sub

from exchnet import counting, graphs
from exchnet.counting import (
    complete_class,
    cycle_class,
    edge_class,
    inj,
    matching_class,
    path_class,
    r_count,
    sigma,
    sigma_vector,
    star_class,
    star_count_from_degrees,
    sub,
    triangle_class,
    two_disjoint_edges_class,
    two_disjoint_edges_from_degrees,
)
from exchnet.estimation import exch_mle
from exchnet.graphs import (
    DegreeDistribution,
    InvariantError,
    LabeledNetwork,
    UnlabeledClass,
    class_aut,
    class_size,
    degree_distribution,
    enumerate_classes,
)


class TestInj:
    def test_star3_into_paw_and_complete(self, paw):
        s3 = star_class(3).representative()
        assert inj(s3, paw) == 6
        assert inj(s3, LabeledNetwork.complete(4)) == 24

    def test_complete_target_counts_all_injections(self):
        for u in enumerate_classes(4, False):
            f = u.representative()
            k = f.n
            expected = math.factorial(5) // math.factorial(5 - k)
            assert inj(f, LabeledNetwork.complete(5)) == expected

    def test_self_count_is_aut(self):
        for u in enumerate_classes(5, False):
            rep = u.representative()
            assert inj(rep, rep) == class_aut(u)

    def test_larger_pattern_gives_zero(self):
        assert inj(LabeledNetwork.complete(4), LabeledNetwork.complete(3)) == 0

    def test_empty_pattern_counts_once(self):
        assert inj(LabeledNetwork.empty(2), LabeledNetwork.complete(3)) == 1

    def test_matches_oracle_on_all_class_pairs_up_to_4(self):
        classes = enumerate_classes(4, False)
        for uf in classes:
            for ug in classes:
                f = uf.representative()
                g = ug.representative()
                assert inj(f, g) == oracle_inj(f, g)


class TestSub:
    def test_edges_of_k4(self):
        assert sub(edge_class().representative(), LabeledNetwork.complete(4)) == 6

    def test_two_star_in_paw(self, paw):
        assert sub(star_class(2).representative(), paw) == 5

    def test_paw_in_k4(self, paw):
        assert sub(paw, LabeledNetwork.complete(4)) == 12
        assert oracle_sub(paw, LabeledNetwork.complete(4)) == 12

    def test_sub_times_aut_equals_inj(self):
        classes = enumerate_classes(4, False)
        for uf in classes:
            for ug in classes:
                f, g = uf.representative(), ug.representative()
                assert sub(f, g) * class_aut(uf) == inj(f, g)


class TestTInj:
    """The injective homomorphism density t_inj(F, G), inj(F, G) over all
    injective maps, is the exchangeable MLE's z of F's class at G."""

    def test_edge_density_of_paw(self, paw):
        assert exch_mle(paw).z[edge_class()] == Fraction(2, 3)

    def test_self_density(self):
        tri = triangle_class().representative()
        assert exch_mle(tri).z[triangle_class()] == 1
        p4 = path_class(4).representative()
        assert exch_mle(p4).z[path_class(4)] == Fraction(2, 24)

    def test_complete_target(self):
        assert exch_mle(LabeledNetwork.complete(4)).z[triangle_class()] == 1


class TestSigma:
    def test_paw_vector(self, paw):
        want = {
            "EMPTY": 1,
            "1-2": 4,
            "1-3,2-3": 5,
            "1-4,2-3": 1,
            "1-2,1-3,2-3": 1,
            "1-4,2-4,3-4": 1,
            "1-4,2-3,3-4": 2,
            "1-4,2-3,2-4,3-4": 1,
        }
        vec = sigma_vector(paw)
        for u, v in vec.items():
            assert v == want.get(u.key(), 0)

    def test_edge_sigma_counts_edges(self):
        for mask in range(64):
            x = LabeledNetwork.from_mask(4, mask)
            assert sigma(edge_class(), x) == x.edge_count

    def test_sigma_on_complete_is_sub(self):
        k5 = LabeledNetwork.complete(5)
        for u in enumerate_classes(5, False):
            assert sigma(u, k5) == sub(u.representative(), k5)

    def test_sigma_equals_sub_route(self):
        # both routes on all class pairs at 4 nodes
        for u in enumerate_classes(4, False):
            for w in enumerate_classes(4, True):
                x = w.padded(4)
                assert sigma(u, x) == sub(u.representative(), x)


class TestRCount:
    def test_same_class_gives_one(self, paw):
        assert r_count(UnlabeledClass.of(paw), paw) == 1

    def test_empty_network_counts_class_size(self):
        empty = LabeledNetwork.empty(4)
        for u in enumerate_classes(4, True):
            assert r_count(u, empty) == class_size(u, 4)

    def test_paw_supergraph_pattern(self, paw):
        got = {
            u.key(): r_count(u, paw)
            for u in enumerate_classes(4, True)
            if r_count(u, paw)
        }
        assert got == {
            "1-4,2-3,2-4,3-4": 1,
            "1-3,1-4,2-3,2-4,3-4": 2,
            "1-2,1-3,1-4,2-3,2-4,3-4": 1,
        }

    def test_class_on_more_vertices_than_the_network(self, paw):
        assert r_count(path_class(5), paw) == 0

    def test_matches_member_enumeration_oracle_n4(self):
        classes = enumerate_classes(4, True)
        for u in classes:
            for w in classes:
                x = w.padded(4)
                assert r_count(u, x) == oracle_r_count(u, x)

    def test_matches_member_enumeration_oracle_n5_spot(self):
        classes = enumerate_classes(5, True)
        spots = classes[::5]
        for u in spots:
            for w in spots:
                x = w.padded(5)
                assert r_count(u, x) == oracle_r_count(u, x)


class TestDegreeFormulas:
    def test_paw_two_stars(self, paw):
        assert star_count_from_degrees(degree_distribution(paw), 2) == 5

    def test_handshake(self):
        for mask in range(64):
            x = LabeledNetwork.from_mask(4, mask)
            dd = degree_distribution(x)
            assert star_count_from_degrees(dd, 1) == x.edge_count

    def test_k4_three_stars(self):
        dd = degree_distribution(LabeledNetwork.complete(4))
        assert star_count_from_degrees(dd, 3) == 4

    def test_zero_star_is_refused(self, paw):
        with pytest.raises(ValueError, match="k must be >= 1"):
            star_count_from_degrees(degree_distribution(paw), 0)

    def test_two_disjoint_edges_examples(self, paw, path4):
        assert two_disjoint_edges_from_degrees(degree_distribution(paw)) == 1
        single = LabeledNetwork.from_edges(2, [(1, 2)])
        assert two_disjoint_edges_from_degrees(degree_distribution(single)) == 0
        assert two_disjoint_edges_from_degrees(degree_distribution(path4)) == 1

    def test_formulas_match_sigma_up_to_5_nodes(self):
        for n in (2, 3, 4, 5):
            for w in enumerate_classes(n, True):
                x = w.padded(n)
                dd = degree_distribution(x)
                for k in range(1, n):
                    assert star_count_from_degrees(dd, k) == sigma(
                        star_class(k), x
                    )
                assert two_disjoint_edges_from_degrees(dd) == sigma(
                    two_disjoint_edges_class(), x
                )


class TestDegreeFunctionCounterexamples:
    def test_non_star_classes_fail_on_six_nodes(self):
        # every class on <= 4 vertices that is neither a star nor the
        # two-disjoint-edges pattern admits a same-degree-distribution pair
        # with different counts
        from exchnet.estimation import sigma_is_degree_function

        exceptional = {
            star_class(1),
            star_class(2),
            star_class(3),
            two_disjoint_edges_class(),
        }
        for u in enumerate_classes(4, False):
            is_deg_fn, witness = sigma_is_degree_function(u, 6)
            if u in exceptional:
                assert is_deg_fn, u.key()
            else:
                assert not is_deg_fn, u.key()
                x1, x2 = witness
                assert degree_distribution(x1) == degree_distribution(x2)
                assert sigma(u, x1) != sigma(u, x2)


def sizes_with(u, size):
    """``graphs.class_sizes`` with class u's size replaced by ``size``."""

    def sizes(n):
        out = graphs.class_sizes(n).copy()
        out[graphs.enumerate_classes(n).index(u)] = size
        return out

    return sizes


class TestInvariantErrors:
    """A broken counting identity raises InvariantError, which ``python -O``
    cannot strip the way it strips an assert."""

    def test_inj_not_divisible_by_aut(self, monkeypatch):
        monkeypatch.setattr(counting, "class_aut", lambda u: 7)
        with pytest.raises(InvariantError):
            sub(edge_class().representative(), LabeledNetwork.complete(3))

    def test_supergraph_count_not_integral(self, monkeypatch):
        table = counting.ClassTable(3)
        table.sizes = table.sizes.copy()
        table.sizes[0] = 7  # the empty class has one member on 3 nodes
        monkeypatch.setattr(counting, "class_table", lambda n: table)
        with pytest.raises(InvariantError):
            r_count(triangle_class(), LabeledNetwork.empty(3))

    def test_edge_removal_count_not_integral(self, monkeypatch):
        # with 2 members in the edge class, the 3 edge additions to the
        # empty graph would be 3/2 edge removals from an edge
        monkeypatch.setattr(counting, "class_sizes", sizes_with(edge_class(), 2))
        with pytest.raises(InvariantError, match="edge removals"):
            counting.ClassTable(3)

    def test_one_edge_recursion_not_integral(self, monkeypatch):
        # with 2 members in the 2-star class, each 2-star would have 3 edges
        # whose removal leaves an edge, and 2 S[empty][2-star] = 3; rows are
        # built when first read, so reading S raises
        monkeypatch.setattr(counting, "class_sizes", sizes_with(star_class(2), 2))
        table = counting.ClassTable(3)
        with pytest.raises(InvariantError, match="one-edge recursion"):
            table.S

    def test_one_edge_recursion_not_integral_in_a_partial_read(self, monkeypatch):
        # the empty class's row alone meets the same 3/2, and a second read
        # raises again instead of returning the half-built row
        monkeypatch.setattr(counting, "class_sizes", sizes_with(star_class(2), 2))
        table = counting.ClassTable(3)
        for _ in range(2):
            with pytest.raises(InvariantError, match="one-edge recursion"):
                table.rows([0])

    def test_odd_total_degree(self, monkeypatch):
        monkeypatch.setattr(DegreeDistribution, "__post_init__", lambda self: None)
        with pytest.raises(InvariantError):
            star_count_from_degrees(DegreeDistribution((0, 1)), 1)

    def test_is_a_runtime_error(self):
        import exchnet

        assert issubclass(exchnet.InvariantError, RuntimeError)
