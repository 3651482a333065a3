"""The sigma table S[U][W] = sigma_U(W padded to n) against brute force."""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest
from oracles import oracle_atlas, oracle_aut, oracle_class_lattice, oracle_sub

from exchnet.counting import (
    class_table,
    complete_class,
    sigma,
    star_class,
    triangle_class,
    two_disjoint_edges_class,
)
from exchnet import graphs
from exchnet.graphs import (
    InvalidNetworkError,
    LabeledNetwork,
    SizeCapError,
    _atlas,
    _class_lattice,
    class_aut,
    class_size,
    enumerate_classes,
)


def additions_by_class(n):
    """The one-edge additions of ``_class_lattice(n)`` as one dict
    {index of W: a(V, W)} per class V, in the arrays' order."""
    classes, *_, (v, w, a) = _class_lattice(n)
    out = tuple({} for _ in classes)
    for i, j, x in zip(v.tolist(), w.tolist(), a.tolist()):
        out[i][j] = x
    return out


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
        assert table.row(u)[-1] == class_size(u, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_larger_than_n_has_zero_row(n):
    table = class_table(n)
    big = [triangle_class(), two_disjoint_edges_class(), star_class(3)]
    for u in (u for u in big if u.n_vertices > n):
        assert table.row(u) == (0,) * len(table.classes)


def test_labeled_network_lookup_matches_padded_class(paw):
    table = class_table(4)
    for u, s in zip(table.classes, table.sigmas(paw)):
        want = 1 if u.is_empty else oracle_sub(u.representative(), paw)
        assert s == want
    with pytest.raises(ValueError):
        class_table(3).sigmas(paw)


def test_supergraphs_of_a_network_of_another_size_are_refused():
    with pytest.raises(ValueError, match="network on 3 nodes, table for n=4"):
        class_table(4).supergraphs(LabeledNetwork.path(3))


def test_second_call_is_a_cache_hit():
    first = class_table(5)
    hits = class_table.cache_info().hits
    assert class_table(5) is first
    assert class_table.cache_info().hits == hits + 1


# The seven-node lattice and sigma table, byte for byte: the classes, the
# one-edge additions, the automorphism counts, S_7 and the class sizes.
SEVEN_NODE_DIGESTS = {
    "classes": (
        lambda: repr([(c.n_vertices, c.code) for c in enumerate_classes(7)]),
        "3080556565a2f98547d6b4885920a64bf71afff87e92ede0dd414a27859af293",
    ),
    "additions": (
        lambda: repr([sorted(a.items()) for a in additions_by_class(7)]),
        "a4d0136952135bf686376b9a1168ccb0c64acae1447bdf3dfc060e38e571b7bc",
    ),
    "auts": (
        lambda: repr([class_aut(c) for c in enumerate_classes(7)]),
        "58dbc0f57f74d498c94b8d85234e460aa361adf2cba9f91097c5b3e5b824fc06",
    ),
    "sigma": (
        lambda: class_table(7).S.astype("<i4").tobytes(),
        "6dfedadec3a0adc861851ef249a754f76533ac50dcd31ebeb1b0ecb4c0a03d87",
    ),
    "sizes": (
        lambda: repr(class_table(7).sizes.tolist()),
        "47fdaf0b1b2c45bcf37ed95c73ba087ae4be5b25ed3a7100fbba073bdc97a29e",
    ),
}


@pytest.mark.parametrize("part", sorted(SEVEN_NODE_DIGESTS))
def test_seven_node_lattice_bytes(part):
    value, digest = SEVEN_NODE_DIGESTS[part]
    data = value()
    if isinstance(data, str):
        data = data.encode()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sigma_does_not_depend_on_n(n):
    """sub(U, W) counts the copies of U in W at any node count, so S_n is
    S_7 on the classes on at most n vertices, and |U| at n is S_7[U][K_n];
    a cold table at n reads one lattice, its own."""
    for cache in (class_table, _class_lattice, graphs.class_sizes):
        cache.cache_clear()
    table = class_table(n)
    assert _class_lattice.cache_info().misses == 1
    seven = class_table(7)
    keep = [i for i, u in enumerate(seven.classes) if u.n_vertices <= n]
    assert table.classes == tuple(seven.classes[i] for i in keep)
    assert np.array_equal(table.S, seven.S[np.ix_(keep, keep)])
    assert table.sizes.tolist() == [class_size(u, n) for u in table.classes]
    kn = seven.index[complete_class(n)]
    assert table.sizes.tolist() == seven.S[keep, kn].tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lattice_aut_counts_match_oracle(n):
    classes, _, _, auts, _ = _class_lattice(n)
    assert len(auts) == len(classes)
    for u, aut in zip(classes[1:], auts[1:].tolist()):
        assert aut == oracle_aut(u.representative()), u.key()
    assert auts[0] == 1  # the empty class


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_lattice_read_off_the_atlas_matches_the_enumeration(n):
    classes, index, ks, auts, (v, w, a) = _class_lattice(n)
    want_classes, want_additions, want_auts = oracle_class_lattice(n)
    assert classes == want_classes
    assert index == {u: i for i, u in enumerate(want_classes)}
    assert ks.tolist() == [u.n_vertices for u in want_classes]
    # every addition in the same order, grouped by V, and every automorphism
    # count; the arrays are integer, their lists Python ints
    got = [(i, j, x) for i, j, x in zip(v.tolist(), w.tolist(), a.tolist())]
    assert got == [(i, j, x) for i, adds in enumerate(want_additions) for j, x in adds.items()]
    assert additions_by_class(n) == want_additions
    assert dict(zip(classes, auts.tolist())) == want_auts
    assert all(np.issubdtype(x.dtype, np.integer) for x in (ks, auts, v, w, a))
    ints = [x for c in classes for x in (c.n_vertices, c.code)]
    assert {type(x) for x in ints} == {int}


def test_shipped_atlas_is_the_enumeration_at_seven():
    """The shipped file, against the one the breadth-first enumeration
    builds; ``oracles.oracle_atlas`` gives the command that regenerates it."""
    shipped = np.load(Path(graphs.__file__).with_name("atlas.npy"), allow_pickle=False)
    assert shipped.dtype == np.dtype("<i4")
    assert np.array_equal(shipped, oracle_atlas())


def test_atlas_is_read_once_for_every_node_count():
    _atlas.cache_clear()
    for n in range(1, 8):
        _class_lattice.__wrapped__(n)
    info = _atlas.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 6, 1)


@pytest.mark.parametrize("n, error", [(0, InvalidNetworkError), (8, SizeCapError)])
def test_refused_node_count_reads_no_atlas(n, error):
    before = _atlas.cache_info()
    with pytest.raises(error):
        _class_lattice(n)
    assert _atlas.cache_info() == before
