import random
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchnet.counting import class_table, sigma, two_disjoint_edges_class
from exchnet.dependence import dissociated_check
from exchnet.estimation import exch_mle
from exchnet import extendability
from exchnet.extendability import (
    CertificateError,
    _product_terms,
    dissociated_extendable_check,
    extendable_check,
    marginalize_joint,
)
from exchnet.genmodels import (
    Graphon,
    MixingSpec,
    er_class_distribution,
    er_joint,
    er_mobius,
    graphon_mobius,
    marginal_beta_joint,
)
from exchnet.graphs import (
    InvalidNetworkError,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    class_from_key,
    class_size,
    component_classes,
    enumerate_classes,
    num_dyads,
)
from exchnet.lp import _Row
from exchnet.mobius import (
    ClassDistribution,
    InvalidParametersError,
    JointTable,
    MobiusVector,
    labeled_mobius_from_joint,
    mobius_from_class_distribution,
    validate_mobius,
)
from oracles import oracle_block_moments, oracle_inj


def random_rational_joint(n, rng):
    m = num_dyads(n)
    weights = [rng.randrange(0, 9) for _ in range(1 << m)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return JointTable(n, tuple(Fraction(w, total) for w in weights))


BLOCK_MODELS = {
    "grid2": Graphon.from_grid([[0.8, 0.2], [0.2, 0.5]]),
    "grid3": Graphon.from_grid(
        [[0.9, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.7]]
    ),
    "logistic": Graphon.product_logistic(0, 1),
}


@lru_cache(maxsize=None)
def block_moments(name, n):
    return graphon_mobius(BLOCK_MODELS[name], n)


def exact_block_moments(n, weights, probs):
    return MobiusVector(
        n, oracle_block_moments(enumerate_classes(n, True), weights, probs)
    )


def close(got, want, tol):
    return got == want if tol == 0 else abs(got - want) <= tol


def assert_dissociated_certificate(mv, rep, tol):
    """The certificate reproduces the moments of mv and satisfies z_U =
    prod z_C over the components of every disconnected class at m."""
    z = mobius_from_class_distribution(rep.certificate).z
    for u, v in mv.in_order():
        assert close(z[u], v, tol), u.key()
    for u in enumerate_classes(rep.m, False):
        comps = component_classes(u)
        if len(comps) > 1:
            assert close(z[u], prod(z[c] for c in comps), tol), u.key()


def row_of(u, m):
    table = class_table(m)
    denom = class_size(u, m)
    return [Fraction(int(s), denom) for s in table.S[table.index[u]]]


def assert_farkas(mv, rep, dissociated):
    """Rebuild the LP rows from the dual's keys and check exactly that
    y.A_j <= 0 for every column j and y.b > 0, with y.b the margin.  The
    rows are the moments at n, normalization and, for a dissociated check at
    n >= 3, one per disconnected class at m on more than n vertices."""
    n, m = mv.n, rep.m
    want = {u.key() for u in enumerate_classes(n, False)} | {"normalization"}
    if dissociated and n >= 3:
        want |= {
            u.key()
            for u in enumerate_classes(m, False)
            if u.n_vertices > n and len(component_classes(u)) > 1
        }
    assert set(rep.dual) == want
    width = len(class_table(m).classes)
    rows = []
    for key, y in rep.dual.items():
        assert isinstance(y, Fraction)
        if key == "normalization":
            rows.append((y, [Fraction(1)] * width, Fraction(1)))
            continue
        u = class_from_key(key)
        if u.n_vertices <= n:
            rows.append((y, row_of(u, m), mv.z[u]))
            continue
        comps = component_classes(u)
        c = prod(mv.z[x] for x in comps if x.n_vertices <= n)
        big = [x for x in comps if x.n_vertices > n]
        if big:
            (b,) = big
            a = [p - c * q for p, q in zip(row_of(u, m), row_of(b, m))]
            rows.append((y, a, Fraction(0)))
        else:
            rows.append((y, row_of(u, m), c))
    for j in range(width):
        assert sum(y * a[j] for y, a, _ in rows) <= 0, j
    value = sum(y * b for y, _, b in rows)
    assert value > 0
    assert value == rep.infeasibility_margin


class TestMarginalizeJoint:
    def test_keep_nothing_is_refused(self):
        with pytest.raises(ValueError, match="keep must be non-empty"):
            marginalize_joint(er_joint(3, Fraction(1, 3)), [])

    @pytest.mark.parametrize("keep", [[1, 5], [1, 1], [0, 2]])
    def test_labels_outside_the_table_are_refused(self, keep):
        with pytest.raises(InvalidNetworkError, match="not distinct nodes of 1..3"):
            marginalize_joint(er_joint(3, Fraction(1, 3)), keep)

    def test_keep_all_is_identity(self):
        jt = er_joint(4, Fraction(1, 3))
        assert marginalize_joint(jt, [1, 2, 3, 4]).probs == jt.probs

    def test_independent_ties_stay_independent(self):
        p = Fraction(1, 5)
        got = marginalize_joint(er_joint(5, p), [1, 3, 5])
        want = er_joint(3, p)
        assert got.probs == want.probs

    def test_projective_composition(self):
        rng = random.Random(17)
        jt = random_rational_joint(5, rng)
        via4 = marginalize_joint(marginalize_joint(jt, [1, 2, 3, 4]), [1, 2, 3])
        direct = marginalize_joint(jt, [1, 2, 3])
        assert via4.probs == direct.probs

    def test_commutes_with_moment_transform(self):
        rng = random.Random(23)
        jt = random_rational_joint(4, rng)
        lm_then_restrict = labeled_mobius_from_joint(
            marginalize_joint(jt, [1, 2, 3])
        )
        full = labeled_mobius_from_joint(jt)
        # dyads within {1,2,3} are exactly the first three bits
        for mask in range(8):
            assert lm_then_restrict.z[mask] == full.z[mask]


class TestMarginalizeMobius:
    def test_identity_at_same_n(self):
        mv = er_mobius(4, Fraction(1, 3))
        assert mv.restrict(4) == mv

    def test_er_restricts_to_er(self):
        p = Fraction(2, 7)
        assert er_mobius(5, p).restrict(3) == er_mobius(3, p)

    def test_values_unchanged(self):
        paw = LabeledNetwork.from_edges(4, [(1, 4), (2, 3), (2, 4), (3, 4)])
        mv = exch_mle(paw)
        sub = mv.restrict(3)
        for u, v in sub.in_order():
            assert v == mv.z[u]


class TestExtendableCheck:
    def test_er_feasible_small(self):
        mv = er_mobius(4, Fraction(1, 3))
        for m in (4, 5):
            rep = extendable_check(mv, m)
            assert rep.feasible
            assert rep.certificate is not None

    def test_er_certificate_round_trip(self):
        mv = er_mobius(4, Fraction(1, 3))
        rep = extendable_check(mv, 5)
        back = mobius_from_class_distribution(rep.certificate).restrict(4)
        assert back == mv

    def test_paw_mle_infeasible_at_five(self, paw):
        rep = extendable_check(exch_mle(paw), 5)
        assert not rep.feasible
        assert rep.infeasibility_margin > 0

    def test_paw_mle_farkas_certificate_at_five(self, paw):
        # the dual is checked against injection densities counted by brute
        # force: for every class W on 5 nodes sum_U y_U t(U, W) + y_0 <= 0,
        # while sum_U y_U z_U + y_0 > 0 for the paw's moments z
        mv = exch_mle(paw)
        rep = extendable_check(mv, 5)
        y = rep.dual
        targets = [u for u in enumerate_classes(4, True) if not u.is_empty]
        assert set(y) == {u.key() for u in targets} | {"normalization"}
        assert all(isinstance(v, Fraction) for v in y.values())
        full = LabeledNetwork.complete(5)
        for w in enumerate_classes(5, True):
            wnet = w.padded(5)
            total = y["normalization"] + sum(
                y[u.key()]
                * Fraction(oracle_inj(u.padded(5), wnet), oracle_inj(u.padded(5), full))
                for u in targets
            )
            assert total <= 0, w.key()
        value = y["normalization"] + sum(y[u.key()] * mv.z[u] for u in targets)
        assert value > 0
        assert value == rep.infeasibility_margin

    # sha256 of the paw MLE's sorted (class key, str(y)) duals, recorded when
    # every request scaled each row by the denominator of its right-hand side
    PAW_DUAL_DIGESTS = {
        5: "64e44f076754826a84114faec1ae097c03934ff0c412d29ab9ecee9e09712d4a",
        6: "4cdbb246af5db1ba17c58e18230246db6b6acafa55ef5c19d1a44cf9aed9ca29",
        7: "93bad057751a4c61d255c8112103806afecd9ac590f0973cd1ab8d65c7e5389f",
    }

    @pytest.mark.parametrize("m", sorted(PAW_DUAL_DIGESTS))
    def test_paw_mle_duals_are_pinned(self, paw, m):
        rep = extendable_check(exch_mle(paw), m)
        text = repr(sorted((k, str(v)) for k, v in rep.dual.items()))
        assert sha256(text.encode()).hexdigest() == self.PAW_DUAL_DIGESTS[m]

    def test_feasible_verdict_carries_no_dual(self):
        rep = extendable_check(er_mobius(4, Fraction(1, 3)), 5)
        assert rep.dual is None

    def test_certificate_recheck_is_exact(self):
        mv = er_mobius(4, Fraction(1, 3))
        cert = extendable_check(mv, 6).certificate
        assert extendability._certificate_valid(mv, cert, 0)
        assert extendability._certificate_valid(
            mv, er_class_distribution(6, Fraction(1, 3)), 0
        )
        # 2^-80 of the mass of one class moved to K_6: every moment of an
        # edge-bearing class moves by a sliver that no float check would see
        full = class_table(6).classes[-1]
        w = next(u for u in cert.q if not u.is_empty and u != full)
        q = dict(cert.q)
        q[w] -= Fraction(1, 2**80)
        q[full] = q.get(full, 0) + Fraction(1, 2**80)
        moved = ClassDistribution(6, q)
        assert not extendability._certificate_valid(mv, moved, 0)

    def test_float_certificate_recheck_reads_the_sigma_table(self):
        mv = er_mobius(4, Fraction(1, 3))
        cert = extendable_check(mv, 6).certificate
        image = ClassDistribution(6, {w: float(q) for w, q in cert.q.items()})
        tol = 1e-9
        for target, law in ((mv, image), (mv.to_float(), image), (mv.to_float(), cert)):
            assert extendability._certificate_valid(target, law, tol)
        # 1000 tol of mass moved from a class W to K_6 raises the edge moment
        # by 1000 tol (1 - z_edge(W)) >= 1000 tol / 15
        full = class_table(6).classes[-1]
        w = max((u for u in image.q if u != full), key=image.q.get)
        q = dict(image.q)
        q[w] -= 1000 * tol
        q[full] = q.get(full, 0.0) + 1000 * tol
        moved = ClassDistribution(6, q)
        assert not extendability._certificate_valid(mv.to_float(), moved, tol)
        assert not extendability._certificate_valid(mv, moved, tol)

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(
            extendability, "_certificate_valid", lambda *args: False
        )
        with pytest.raises(CertificateError):
            extendable_check(er_mobius(4, Fraction(1, 3)), 5)

    def test_infeasibility_is_monotone_in_m(self, paw):
        mv = exch_mle(paw)
        assert not extendable_check(mv, 5).feasible
        assert not extendable_check(mv, 6).feasible

    def test_own_n_feasible_iff_valid(self):
        # a valid vector extends to itself
        mv = er_mobius(4, Fraction(1, 2))
        assert extendable_check(mv, 4).feasible
        # certain ties with no triangle is contradictory at n=3
        bad = dict(er_mobius(3, Fraction(1)).z)
        tri = [u for u in bad if u.edge_count == 3][0]
        bad[tri] = Fraction(0)
        bad_mv = MobiusVector(3, bad)
        assert not validate_mobius(bad_mv).ok
        assert not extendable_check(bad_mv, 3).feasible

    def test_m_out_of_range(self):
        mv = er_mobius(4, Fraction(1, 2))
        with pytest.raises(SizeCapError):
            extendable_check(mv, 8)

    def test_m_below_n_is_invalid(self):
        with pytest.raises(InvalidParametersError):
            extendable_check(er_mobius(4, Fraction(1, 2)), 3)

    @pytest.mark.parametrize(
        "check", [extendable_check, dissociated_extendable_check]
    )
    @pytest.mark.parametrize("empty", [1, 1.0])
    def test_moment_beyond_float_range_is_invalid(self, check, empty):
        # the LP's float pass cannot read z_edge = 10**400, exact or mixed
        z = {class_from_key("EMPTY"): empty, class_from_key("1-2"): Fraction(10**400)}
        with pytest.raises(InvalidParametersError, match="beyond float range"):
            check(MobiusVector(2, z), 3)

    def test_float_mode(self):
        mv = er_mobius(4, Fraction(1, 3)).to_float()
        rep = extendable_check(mv, 5)
        assert rep.feasible

    def test_float_empty_class_alone_gives_a_float_verdict(self):
        z = dict(er_mobius(4, Fraction(1, 3)).z)
        z[class_from_key("EMPTY")] = 1.0
        rep = extendable_check(MobiusVector(4, z), 5)
        assert rep.feasible and not rep.certificate.is_exact


class TestDissociatedExtendableCheck:
    def test_er_certifies_through_shortcut(self):
        mv = er_mobius(4, Fraction(1, 3))
        rep = dissociated_extendable_check(mv, 5)
        assert rep.feasible
        assert rep.method == "er-candidate"

    def test_paw_dissociated_fit_report(self, paw_dissociated_fit):
        rep = dissociated_extendable_check(paw_dissociated_fit.z, 5)
        # no published verdict for this case: pin the one the LP reaches
        assert not rep.feasible and rep.certificate is None
        assert rep.m == 5 and rep.method == "lp"
        assert rep.worst_constraint == "1-2,1-3,2-3"
        assert rep.infeasibility_margin == pytest.approx(0.229167, abs=1e-6)

    def test_constant_kernel_moments_extend(self):
        mv = er_mobius(4, 0.25)
        rep = dissociated_extendable_check(mv, 6)
        assert rep.feasible

    def test_m_out_of_range(self):
        mv = er_mobius(4, Fraction(1, 2))
        with pytest.raises(SizeCapError):
            dissociated_extendable_check(mv, 8)
        with pytest.raises(InvalidParametersError):
            dissociated_extendable_check(mv, 3)

    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    @pytest.mark.parametrize("n,m", [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6)])
    def test_block_models_extend(self, name, n, m):
        # a kernel model's quadrature moments are those of a block model,
        # dissociated at every node count
        mv = block_moments(name, n)
        rep = dissociated_extendable_check(mv, m)
        assert rep.feasible and rep.method == "lp"
        assert_dissociated_certificate(mv, rep, 1e-9)

    def test_rational_block_model_extends_exactly(self):
        mv = exact_block_moments(
            4, (Fraction(1, 3), Fraction(2, 3)),
            ((Fraction(1, 2), Fraction(1, 5)), (Fraction(1, 5), Fraction(1, 10))),
        )
        for m in (5, 6):
            rep = dissociated_extendable_check(mv, m)
            assert rep.feasible and rep.method == "lp"
            assert rep.certificate.is_exact
            assert_dissociated_certificate(mv, rep, 0)

    def test_paw_fit_infeasible_through_lp(self, paw_dissociated_fit):
        for m in (5, 6):
            rep = dissociated_extendable_check(paw_dissociated_fit.z, m)
            assert not rep.feasible and rep.method == "lp"
            assert isinstance(rep.infeasibility_margin, float)
            assert rep.infeasibility_margin > 0.1

    def test_input_products_are_checked_directly(self):
        # one edge on four nodes: z(2K2) = 0 but z(edge)^2 = 1/36
        mv = exch_mle(LabeledNetwork.from_edges(4, [(1, 2)]))
        rep = dissociated_extendable_check(mv, 5)
        assert not rep.feasible
        assert rep.infeasibility_margin == Fraction(1, 36)
        assert rep.worst_constraint == two_disjoint_edges_class().key()
        assert rep.dual is None

    def test_farkas_vectors_of_three_node_fits(self):
        # at n = 3 no input class is disconnected, so every verdict that the
        # shortcut does not certify comes from the LP with its product rows
        lp_verdicts = 0
        for u in enumerate_classes(3, True):
            mv = exch_mle(u.padded(3))
            for m in (4, 5, 6):
                rep = dissociated_extendable_check(mv, m)
                if rep.method == "lp":
                    assert not rep.feasible
                    assert_farkas(mv, rep, True)
                    lp_verdicts += 1
        assert lp_verdicts == 6

    def test_one_edge_mle_dual_is_pinned(self):
        # one edge on three nodes at m = 6: the product rows of K2 plus a
        # class on four vertices combine the rows of U and of that component;
        # sha256 of the sorted (class key, str(y)) duals, recorded when those
        # rows were built as Fractions
        mv = exch_mle(LabeledNetwork.from_edges(3, [(1, 2)]))
        rep = dissociated_extendable_check(mv, 6)
        assert not rep.feasible and rep.method == "lp"
        assert rep.infeasibility_margin == Fraction(92, 405)
        text = repr(sorted((k, str(v)) for k, v in rep.dual.items()))
        assert sha256(text.encode()).hexdigest() == (
            "f64924425d285379632805df538ba4c5060e08f54b7f7b8f12846e5e8a3f0b06"
        )

    def test_failed_product_recheck_raises(self, monkeypatch):
        # a product gap on the 4-node certificate only, not on the input
        real = extendability._product_gap
        monkeypatch.setattr(
            extendability,
            "_product_gap",
            lambda mv: (1, None) if mv.n == 4 else real(mv),
        )
        with pytest.raises(CertificateError):
            dissociated_extendable_check(block_moments("grid2", 3), 4)

    def test_two_large_components_raise(self):
        # at n = 2 two disjoint cherries both have more than n vertices
        with pytest.raises(InvariantError):
            _product_terms(6, 2)


def component_orders(u):
    """Vertex counts of the components of a class representative, by
    union-find over its edges."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for i, j in u.representative().edges:
        parent[find(i)] = find(j)
    sizes: dict = {}
    for v in parent:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return sorted(sizes.values())


def fraction_rows(table, classes):
    """S[U][W] / |U| as Fractions, one row per class U, read off S here."""
    return [
        [Fraction(s, int(table.sizes[table.index[u]])) for s in table.S[table.index[u]].tolist()]
        for u in classes
    ]


@pytest.mark.parametrize("m", range(1, 8))
def test_sigma_rows_are_the_exact_moment_rows(m):
    # the LP's rows against S[U][W] / |U| as Fractions (and, for m <= 5,
    # against sigma counted by backtracking over |U| at m): the same
    # integers over the same lcm, and floats as float(Fraction)
    table = class_table(m)
    for n in range(1, m + 1):
        targets, classes, rows = extendability._sigma_rows(m, n)
        assert classes == table.classes
        want = fraction_rows(table, targets)
        if m <= 5:
            assert want == [
                [Fraction(sigma(u, w.padded(m)), class_size(u, m)) for w in classes]
                for u in targets
            ]
        want.append([Fraction(1)] * len(classes))
        assert len(rows) == len(want) == len(targets) + 1
        for row, fracs in zip(rows, want):
            den = lcm(*{q.denominator for q in fracs})
            assert (row.lcm, row.ints) == (den, [q.numerator * (den // q.denominator) for q in fracs])
            assert all(type(v) is int for v in [row.lcm, *row.ints])
            assert [v.hex() for v in row.floats] == [float(q).hex() for q in fracs]


@pytest.mark.parametrize("m,n", [(6, 3), (7, 3), (7, 4)])
def test_product_rows_combine_as_fraction_rows(m, n):
    # every (m, n) with m <= 7 and 3 <= n < m whose product rows have a
    # component B on more than n vertices: z_U - c z_B = 0 combined in
    # integers (exact c) or floats (float c) must be the row that
    # a - c b over the Fractions a = S[U][W] / |U|, b = S[B][W] / |B| gives
    table = class_table(m)
    exact = [Fraction(0), Fraction(1, 9), Fraction(-5, 7), Fraction(2**70 + 1, 3**50)]
    floats = [0.0, 1 / 9, 0.1234567890123, 3.7e-200]
    terms = [(u, a, b) for u, _, a, b in _product_terms(m, n) if b is not None]
    assert terms
    for u, row_u, row_big in terms:
        big = next(c for c in component_classes(u) if c.n_vertices > n)
        fu, fb = fraction_rows(table, [u, big])
        for c in exact:
            got = extendability._product_row(row_u, row_big, c, True)
            want = _Row.of([a - c * b for a, b in zip(fu, fb)])
            assert (got.lcm, got.ints) == (want.lcm, want.ints), (u.key(), c)
            assert all(type(v) is int for v in [got.lcm, *got.ints])
            assert [v.hex() for v in got.floats] == [v.hex() for v in want.floats]
        for c in floats:
            got = extendability._product_row(row_u, row_big, c, False)
            want = [a - c * b for a, b in zip(fu, fb)]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], (u.key(), c)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_at_most_one_component_beyond_n(m):
    # what makes the product constraints linear: for n >= 3, a disconnected
    # class at m on more than n vertices has at most one component on more
    # than n vertices, so the input fixes every other factor
    for u in enumerate_classes(m, False):
        orders = component_orders(u)
        if len(orders) < 2:
            continue
        for n in range(3, min(m, 6) + 1):
            if sum(orders) > n:
                assert sum(k > n for k in orders) <= 1, (u.key(), n)
    for n in range(3, min(m, 6) + 1):
        assert len(_product_terms(m, n)) == sum(
            len(component_orders(u)) > 1 and u.n_vertices > n
            for u in enumerate_classes(m, False)
        )


class TestWeakConsistencyOfDissociatedFamily:
    def test_marginal_of_dissociated_stays_dissociated(self):
        jt = marginal_beta_joint(5, MixingSpec.two_point(-1.0, 1.5, 0.5))
        assert dissociated_check(labeled_mobius_from_joint(jt)).holds
        sub = marginalize_joint(jt, [1, 2, 4, 5])
        assert dissociated_check(labeled_mobius_from_joint(sub)).holds

    def test_er_marginals_dissociated(self):
        jt = er_joint(5, Fraction(1, 3))
        sub = marginalize_joint(jt, [2, 3, 5])
        assert dissociated_check(labeled_mobius_from_joint(sub)).holds


@st.composite
def rational_block_moments(draw):
    """Moments of a one- or two-block model with small rational weights and
    tie probabilities (one block is independent ties)."""
    n = draw(st.integers(3, 4))
    r = draw(st.integers(1, 2))
    w = [draw(st.integers(1, 3)) for _ in range(r)]
    probs = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            probs[i][j] = probs[j][i] = Fraction(draw(st.integers(0, 4)), 4)
    return exact_block_moments(n, tuple(Fraction(x, sum(w)) for x in w), probs)


networks = st.integers(3, 4).flatmap(
    lambda n: st.integers(0, (1 << num_dyads(n)) - 1).map(
        lambda mask: LabeledNetwork.from_mask(n, mask)
    )
)
moment_inputs = st.one_of(
    networks.map(exch_mle),
    st.tuples(st.sampled_from(sorted(BLOCK_MODELS)), st.integers(3, 4)).map(
        lambda t: block_moments(*t)
    ),
    rational_block_moments(),
)


@settings(max_examples=40, deadline=None)
@given(moment_inputs)
def test_extendability_is_monotone_in_m(mv):
    # feasible at m + 1 implies feasible at m, for both checks; along the way
    # every exact infeasible LP verdict has its Farkas vector re-checked and
    # every dissociated certificate its moments and product constraints
    tol = 0 if mv.is_exact else 1e-9
    for check, dissociated in (
        (extendable_check, False),
        (dissociated_extendable_check, True),
    ):
        verdicts = []
        for m in range(mv.n, 7):
            rep = check(mv, m)
            verdicts.append(rep.feasible)
            if rep.feasible and dissociated:
                assert_dissociated_certificate(mv, rep, tol)
            elif rep.dual is not None and mv.is_exact:
                assert_farkas(mv, rep, dissociated)
        assert verdicts == sorted(verdicts, reverse=True), check.__name__
