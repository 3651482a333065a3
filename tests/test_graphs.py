import math
import random

import pytest
from oracles import (
    oracle_aut,
    oracle_canonical_bits,
    oracle_components,
    oracle_edge_additions,
    oracle_labeled_classes,
    oracle_submasks,
)

from exchnet import graphs
from exchnet.graphs import (
    InvalidNetworkError,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    aut_count,
    canonical_form,
    class_additions,
    class_size,
    connected_components,
    degree_distribution,
    dyad_index,
    dyads,
    enumerate_classes,
    format_edge_list,
    num_dyads,
    parse_dyad_label,
    parse_edge_list,
)


class TestLabeledNetwork:
    def test_normalizes_edge_order(self):
        g = LabeledNetwork.from_edges(3, [(3, 1), (2, 3)])
        assert g.edges == frozenset({(1, 3), (2, 3)})

    def test_rejects_loops(self):
        with pytest.raises(InvalidNetworkError):
            LabeledNetwork.from_edges(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidNetworkError):
            LabeledNetwork.from_edges(3, [(1, 4)])

    def test_mask_round_trip(self):
        for mask in range(64):
            g = LabeledNetwork.from_mask(4, mask)
            assert g.mask == mask

    def test_dyad_order_is_colex(self):
        assert dyads(4) == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
        assert dyad_index(2, 4) == 4
        # dyads within {1..3} occupy a prefix of the order at n=4
        assert dyads(4)[: len(dyads(3))] == dyads(3)

    def test_dyad_given_high_node_first(self):
        assert dyad_index(4, 2) == dyad_index(2, 4) == 4
        assert parse_dyad_label("4-2") == parse_dyad_label("2-4") == (2, 4)

    def test_induced_subnetwork(self):
        g = LabeledNetwork.from_edges(5, [(1, 2), (2, 5), (3, 4)])
        sub = g.induced([2, 3, 5])
        assert sub.n == 3
        assert sub.edges == frozenset({(1, 3)})  # 2~5 relabeled to 1~3


class TestCanonicalForm:
    def test_relabeled_triangles_match(self):
        t1 = LabeledNetwork.from_edges(4, [(1, 2), (1, 3), (2, 3)])
        t2 = LabeledNetwork.from_edges(4, [(2, 3), (2, 4), (3, 4)])
        c1 = canonical_form(t1.restrict_to_support())
        c2 = canonical_form(t2.restrict_to_support())
        assert c1 == c2

    def test_path_equals_relabeled_star(self):
        # 1-2-3 is the 2-star with hub 2: same labeled graph family
        p = LabeledNetwork.from_edges(3, [(1, 2), (2, 3)])
        s = LabeledNetwork.from_edges(3, [(2, 1), (2, 3)])
        assert canonical_form(p) == canonical_form(s)

    def test_all_labeled_graphs_on_4_nodes_give_11_forms(self):
        forms = {
            canonical_form(LabeledNetwork.from_mask(4, m)) for m in range(64)
        }
        assert len(forms) == 11
        # cross-check with the isomorphism-grouping oracle
        assert len(oracle_labeled_classes(4)) == 11

    def test_invariant_under_random_permutations(self):
        rng = random.Random(7)
        for n in range(2, 8):
            for _ in range(20):
                mask = rng.randrange(1 << len(dyads(n)))
                g = LabeledNetwork.from_mask(n, mask)
                verts = list(range(1, n + 1))
                img = verts[:]
                rng.shuffle(img)
                h = g.permute(dict(zip(verts, img)))
                assert canonical_form(g) == canonical_form(h)

    def test_matches_oracle(self):
        # every class at n <= 6, padded to each node count it fits
        graphs_ = [
            u.padded(n)
            for u in enumerate_classes(6, True)
            for n in range(max(u.n_vertices, 1), 7)
        ]
        rng = random.Random(20261018)
        graphs_ += [
            LabeledNetwork.from_mask(7, rng.randrange(1 << len(dyads(7))))
            for _ in range(200)
        ]
        for g in graphs_:
            bits = oracle_canonical_bits(g)
            # the code reads the bit tuple with dyad 0 the most significant
            assert canonical_form(g) == sum(b << k for k, b in enumerate(bits[::-1]))

    def test_size_cap(self):
        for n in (8, 9):
            with pytest.raises(SizeCapError):
                canonical_form(LabeledNetwork.empty(n))
            with pytest.raises(SizeCapError):
                aut_count(LabeledNetwork.empty(n))


class TestAutCount:
    def test_triangle(self):
        assert aut_count(LabeledNetwork.complete(3)) == 6

    def test_single_edge(self):
        assert aut_count(LabeledNetwork.from_edges(2, [(1, 2)])) == 2

    def test_paw(self, paw):
        assert aut_count(paw) == 2
        assert oracle_aut(paw) == 2

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(11)
        for n, draws in ((2, 10), (3, 10), (4, 10), (5, 10), (7, 3)):
            for _ in range(draws):
                g = LabeledNetwork.from_mask(n, rng.randrange(1 << len(dyads(n))))
                assert aut_count(g) == oracle_aut(g)

    def test_divides_factorial(self):
        rng = random.Random(3)
        for _ in range(20):
            g = LabeledNetwork.from_mask(5, rng.randrange(1 << 10))
            assert math.factorial(5) % aut_count(g) == 0

    def test_equals_stabilizer_of_canonical_representative(self):
        # aut equals the number of permutations fixing the canonical labeling
        rng = random.Random(5)
        for _ in range(10):
            g = LabeledNetwork.from_mask(5, rng.randrange(1 << 10))
            code = canonical_form(g)
            rep = LabeledNetwork.from_edges(
                5, [d for k, d in enumerate(dyads(5)) if code >> (9 - k) & 1]
            )
            assert aut_count(g) == oracle_aut(rep)


class TestEnumerateClasses:
    def test_counts_small(self):
        assert len(enumerate_classes(1, True)) == 1
        assert len(enumerate_classes(2, True)) == 2
        assert len(enumerate_classes(3, True)) == 4
        assert len(enumerate_classes(4, True)) == 11
        assert len(enumerate_classes(5, True)) == 34
        assert len(enumerate_classes(6, True)) == 156

    def test_against_brute_force_at_5(self):
        assert len(oracle_labeled_classes(5)) == len(enumerate_classes(5, True))

    def test_without_empty(self):
        assert len(enumerate_classes(2, False)) == 1

    def test_monotone_in_n(self):
        sizes = [len(enumerate_classes(n, True)) for n in range(1, 8)]
        assert sizes == sorted(sizes)

    def test_order_is_edge_count_then_bits(self):
        classes = enumerate_classes(4, True)
        keys = [c.sort_key() for c in classes]
        assert keys == sorted(keys)
        assert classes[0].is_empty

    def test_deterministic_between_calls(self):
        a = [c.key() for c in enumerate_classes(5, True)]
        b = [c.key() for c in enumerate_classes(5, True)]
        assert a == b

    def test_out_of_range(self):
        for n in (8, 9):
            with pytest.raises(SizeCapError):
                enumerate_classes(n, True)

    @pytest.mark.parametrize("n", [0, -3])
    def test_fewer_than_one_node_is_invalid(self, n):
        with pytest.raises(InvalidNetworkError, match="needs n >= 1"):
            enumerate_classes(n, True)

    def test_class_size_below_its_vertex_count(self):
        path5 = UnlabeledClass.of(LabeledNetwork.path(5))
        assert [class_size(path5, n) for n in (3, 4, 5)] == [0, 0, 60]

    def test_class_sizes_sum_to_labeled_count(self):
        for n in (3, 4, 5):
            total = sum(class_size(u, n) for u in enumerate_classes(n, True))
            assert total == 1 << len(dyads(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_edge_additions_match_brute_force(self, n):
        sizes, additions = oracle_edge_additions(n)
        classes = enumerate_classes(n, True)
        keys = [oracle_canonical_bits(u.padded(n)) for u in classes]
        assert sorted(keys) == sorted(sizes)
        assert [class_size(u, n) for u in classes] == [sizes[k] for k in keys]
        assert sum(class_size(u, n) for u in classes) == 1 << num_dyads(n)
        # each of the |V| graphs in V has a(V, W) non-edges leading to W
        want = {}
        for (v, w), count in additions.items():
            assert count % sizes[v] == 0
            want[v, w] = count // sizes[v]
        got = {
            (keys[i], keys[j]): a
            for i, adds in enumerate(class_additions(n))
            for j, a in adds.items()
        }
        assert got == want


class TestClassSizeCheck:
    def test_non_integral_class_size_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "class_aut", lambda u: 7)
        edge = UnlabeledClass.of(LabeledNetwork.from_edges(2, [(1, 2)]))
        with pytest.raises(InvariantError):
            class_size(edge, 4)


class TestDegreeDistribution:
    def test_paw(self, paw):
        assert degree_distribution(paw).counts == (0, 1, 2, 1)

    def test_empty(self):
        assert degree_distribution(LabeledNetwork.empty(5)).counts == (5, 0, 0, 0, 0)

    def test_complete(self):
        assert degree_distribution(LabeledNetwork.complete(4)).counts == (0, 0, 0, 4)

    def test_isomorphic_graphs_share_distribution(self):
        rng = random.Random(13)
        for _ in range(20):
            g = LabeledNetwork.from_mask(5, rng.randrange(1 << 10))
            img = list(range(1, 6))
            rng.shuffle(img)
            h = g.permute(dict(zip(range(1, 6), img)))
            assert degree_distribution(g) == degree_distribution(h)


class TestConnectedComponents:
    def test_two_disjoint_edges(self):
        g = LabeledNetwork.from_edges(4, [(1, 2), (3, 4)])
        assert connected_components(g) == [[1, 2], [3, 4]]

    def test_paw_is_connected(self, paw):
        assert len(connected_components(paw)) == 1

    def test_mixed_components(self):
        g = LabeledNetwork.from_edges(5, [(1, 2), (3, 4), (4, 5)])
        assert connected_components(g) == [[1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labeled_graph_matches_oracle(self, n):
        for mask in range(1 << num_dyads(n)):
            g = LabeledNetwork.from_mask(n, mask)
            assert connected_components(g) == oracle_components(g)

    def test_seeded_graphs_with_isolated_vertices_match_oracle(self):
        rng = random.Random(11)
        isolated = 0
        for _ in range(300):
            n = rng.randint(5, 7)
            p = rng.choice([0.2, 0.35, 0.5])
            # a few vertices are left isolated on purpose
            lone = set(rng.sample(range(1, n + 1), rng.randint(0, 2)))
            g = LabeledNetwork.from_edges(
                n,
                [
                    (i, j)
                    for i, j in dyads(n)
                    if i not in lone and j not in lone and rng.random() < p
                ],
            )
            isolated += len(g.support()) < n
            assert connected_components(g) == oracle_components(g)
        assert isolated > 100


class TestSubmasks:
    def test_matches_oracle_in_order(self):
        for mask in range(1 << 8):
            assert list(graphs.submasks(mask)) == oracle_submasks(mask)


class TestEdgeListFormat:
    def test_round_trip(self, paw):
        assert parse_edge_list(format_edge_list(paw)) == paw

    def test_comments_and_blanks(self):
        text = "# a comment\n\nn 3\n1 2  # trailing\n\n2 3\n"
        g = parse_edge_list(text)
        assert g == LabeledNetwork.from_edges(3, [(1, 2), (2, 3)])

    def test_missing_header(self):
        with pytest.raises(InvalidNetworkError):
            parse_edge_list("1 2\n")

    def test_bad_pair(self):
        with pytest.raises(InvalidNetworkError):
            parse_edge_list("n 3\n1 2 3\n")


class TestUnlabeledClass:
    def test_empty_class_key(self):
        assert UnlabeledClass.empty().key() == "EMPTY"

    def test_key_round_trip(self):
        from exchnet.graphs import class_from_key

        for u in enumerate_classes(5, True):
            assert class_from_key(u.key()) == u
