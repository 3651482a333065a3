"""The sigma table S[U][W] = sigma_U(W padded to n) against brute force."""

import random

import numpy as np
import pytest
from oracles import oracle_sub

from exchnet.counting import (
    class_table,
    sigma,
    star_class,
    sub_in_complete,
    triangle_class,
    two_disjoint_edges_class,
)
from exchnet.graphs import LabeledNetwork, SizeCapError


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_pair_matches_oracle(n):
    table = class_table(n)
    for u in table.classes:
        row = table.row(u)
        for w, got in zip(table.classes, row):
            if u.is_empty:
                assert got == 1  # the empty graph sits in anything once
            else:
                assert got == oracle_sub(u.representative(), w.padded(n))


def test_sampled_pairs_match_oracle_at_six():
    table = class_table(6)
    rng = random.Random(20261018)
    patterns = [u for u in table.classes if not u.is_empty]
    for _ in range(40):
        u, w = rng.choice(patterns), rng.choice(table.classes)
        want = oracle_sub(u.representative(), w.padded(6))
        assert table.row(u)[table.index[w]] == want


def test_sampled_pairs_match_sigma_at_seven():
    table = class_table(7)
    rng = random.Random(20261019)
    pairs = [
        (rng.choice(table.classes), rng.choice(table.classes))
        for _ in range(200)
    ]
    # and the full rows of every class on at most 4 vertices
    small = [u for u in table.classes if u.n_vertices <= 4]
    pairs += [(u, w) for u in small for w in table.classes]
    for u, w in pairs:
        assert table.S[table.index[u], table.index[w]] == sigma(u, w.padded(7))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_table_is_a_block_of_the_next(n):
    small, big = class_table(n), class_table(n + 1)
    at = [big.index[u] for u in small.classes]
    assert (big.S[np.ix_(at, at)] == small.S).all()


def test_entries_are_python_ints():
    table = class_table(4)
    x = LabeledNetwork.complete(4)
    rows = table.row(table.classes[1]), table.sigmas(x), table.supergraphs(x)
    for values in rows:
        assert all(type(v) is int for v in values)


def test_eight_nodes_is_size_cap():
    with pytest.raises(SizeCapError):
        class_table(8)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_unit_upper_triangular_in_shipped_order(n):
    table = class_table(n)
    for i, u in enumerate(table.classes):
        row = table.row(u)
        assert row[i] == 1
        assert not any(row[:i])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_last_column_is_copies_in_complete_graph(n):
    table = class_table(n)
    assert table.classes[-1].n_vertices == n
    assert table.classes[-1].edge_count == n * (n - 1) // 2
    for u in table.classes:
        assert table.row(u)[-1] == sub_in_complete(u, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_larger_than_n_has_zero_row(n):
    table = class_table(n)
    x = LabeledNetwork.complete(n)
    big = [triangle_class(), two_disjoint_edges_class(), star_class(3)]
    for u in (u for u in big if u.n_vertices > n):
        assert table.row(u) == (0,) * len(table.classes)
        assert table.sigmas(x, [u]) == (sigma(u, x),) == (0,)


def test_labeled_network_lookup_matches_padded_class(paw):
    table = class_table(4)
    for u, s in zip(table.classes, table.sigmas(paw)):
        want = 1 if u.is_empty else oracle_sub(u.representative(), paw)
        assert s == want
    with pytest.raises(ValueError):
        class_table(3).sigmas(paw)


def test_second_call_is_a_cache_hit():
    first = class_table(5)
    hits = class_table.cache_info().hits
    assert class_table(5) is first
    assert class_table.cache_info().hits == hits + 1
