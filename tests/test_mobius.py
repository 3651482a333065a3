import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_bidirected_joint, oracle_class_moments

from exchnet.counting import class_table, edge_class, triangle_class
from exchnet.dependence import (
    BIDIRECTED,
    complete_dependence_graph,
    empty_dependence_graph,
    incidence_graph,
    kneser_graph,
)
from exchnet.estimation import FAMILIES, ErgmSpec, ergm_fit
from exchnet.genmodels import (
    BetaSpec,
    beta_joint,
    er_class_distribution,
    er_joint,
    er_mobius,
)
from exchnet.graphs import (
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    class_from_key,
    class_size,
    dyad_index,
    enumerate_classes,
    num_dyads,
)
from exchnet.mobius import (
    ClassDistribution,
    InvalidParametersError,
    JointTable,
    LabeledMobius,
    MobiusValidation,
    MobiusVector,
    bidirected_joint,
    exch_joint_from_mobius,
    exchangeable_from_labeled,
    joint_from_labeled_mobius,
    labeled_from_exchangeable,
    labeled_mobius_from_joint,
    mask_of,
    mobius_from_class_distribution,
    validate_mobius,
)


def random_rational_joint(n: int, rng: random.Random) -> JointTable:
    m = num_dyads(n)
    weights = [rng.randrange(0, 20) for _ in range(1 << m)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return JointTable(n, tuple(Fraction(w, total) for w in weights))


class TestLatticeTransforms:
    def test_point_mass_on_complete(self):
        n = 4
        probs = [Fraction(0)] * 64
        probs[63] = Fraction(1)
        lm = labeled_mobius_from_joint(JointTable(n, tuple(probs)))
        assert all(v == 1 for v in lm.z)

    def test_uniform_gives_powers_of_half(self):
        n = 3
        jt = JointTable(n, tuple([Fraction(1, 8)] * 8))
        lm = labeled_mobius_from_joint(jt)
        for mask in range(8):
            assert lm.z[mask] == Fraction(1, 2) ** bin(mask).count("1")

    def test_er_powers(self):
        p = Fraction(2, 7)
        lm = labeled_mobius_from_joint(er_joint(4, p))
        for mask in range(64):
            assert lm.z[mask] == p ** bin(mask).count("1")

    def test_round_trip_random_rational(self):
        rng = random.Random(42)
        for n in (3, 4):
            for _ in range(10):
                jt = random_rational_joint(n, rng)
                back = joint_from_labeled_mobius(labeled_mobius_from_joint(jt))
                assert back.probs == jt.probs

    def test_monotone_under_inclusion(self):
        rng = random.Random(1)
        jt = random_rational_joint(4, rng)
        lm = labeled_mobius_from_joint(jt)
        for mask in range(64):
            for b in range(6):
                if not mask >> b & 1:
                    assert lm.z[mask] >= lm.z[mask | 1 << b]

    def test_negative_configuration_rejected(self):
        # edge moment 1 with triangle moment 0 is contradictory at n=3
        z = [Fraction(1)] * 8
        z[7] = Fraction(0)
        with pytest.raises(InvalidParametersError):
            joint_from_labeled_mobius(LabeledMobius(3, tuple(z)))

    def test_dense_network_four_term_expansion(self, paw):
        # supersets of the paw: itself, two 5-edge extensions, the complete graph
        rng = random.Random(5)
        jt = random_rational_joint(4, rng)
        lm = labeled_mobius_from_joint(jt)
        e12 = 1 << dyad_index(1, 2)
        e13 = 1 << dyad_index(1, 3)
        x = paw.mask
        expansion = (
            lm.z[x] - lm.z[x | e12] - lm.z[x | e13] + lm.z[x | e12 | e13]
        )
        assert jt.probs[x] == expansion


class TestExchangeableMoments:
    def test_paw_probability_three_terms(self, paw):
        cd = ClassDistribution(
            4,
            {
                UnlabeledClass.of(paw): Fraction(1, 2),
                UnlabeledClass.empty(): Fraction(1, 4),
                triangle_class(): Fraction(1, 4),
            },
        )
        mv = mobius_from_class_distribution(cd)
        diamond = UnlabeledClass.of(
            LabeledNetwork.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        )
        k4 = UnlabeledClass.of(LabeledNetwork.complete(4))
        expect = (
            mv.z[UnlabeledClass.of(paw)] - 2 * mv.z[diamond] + mv.z[k4]
        )
        assert exch_joint_from_mobius(mv, paw) == expect

    def test_er_moments_reproduce_er_joint(self):
        p = Fraction(1, 3)
        mv = er_mobius(4, p)
        for mask in range(64):
            x = LabeledNetwork.from_mask(4, mask)
            want = p**x.edge_count * (1 - p) ** (6 - x.edge_count)
            assert exch_joint_from_mobius(mv, x) == want

    def test_probabilities_sum_to_one(self):
        cd = ClassDistribution(
            4,
            {
                triangle_class(): Fraction(2, 5),
                edge_class(): Fraction(1, 5),
                UnlabeledClass.empty(): Fraction(2, 5),
            },
        )
        mv = mobius_from_class_distribution(cd)
        total = sum(
            exch_joint_from_mobius(mv, u.padded(4)) * class_size(u, 4)
            for u in enumerate_classes(4, True)
        )
        assert total == 1

    def test_uniform_within_class_reconstruction(self):
        rng = random.Random(9)
        for n in (3, 4, 5, 6):
            classes = enumerate_classes(n, True)
            weights = {u: Fraction(rng.randrange(1, 9)) for u in classes}
            total = sum(weights.values())
            cd = ClassDistribution(n, {u: w / total for u, w in weights.items()})
            mv = mobius_from_class_distribution(cd)
            for u in classes:
                x = u.padded(n)
                assert exch_joint_from_mobius(mv, x) == cd.value(u) / class_size(u, n)

    def test_labeled_expansion_round_trip(self):
        mv = er_mobius(4, Fraction(1, 5))
        assert exchangeable_from_labeled(labeled_from_exchangeable(mv)) == mv

    def test_class_set_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MobiusVector(4, {UnlabeledClass.empty(): Fraction(1)})

    @pytest.mark.parametrize(
        "joint, message",
        [
            # node propensities 0.5, 0 and -0.5: dyad 1-2 has z 0.6225,
            # dyad 1-3 has 0.5
            (beta_joint(BetaSpec((0.5, 0.0, -0.5))), "class 1-2 has 0.622"),
            # all mass on the graph whose one edge is 1-2
            (
                JointTable(3, tuple(Fraction(int(m == 1)) for m in range(8))),
                "class 1-2 has 1 at mask 1 and 0 at mask 10",
            ),
        ],
        ids=["float", "exact"],
    )
    def test_labeled_z_that_is_not_exchangeable_is_refused(self, joint, message):
        with pytest.raises(InvalidParametersError, match=message):
            exchangeable_from_labeled(labeled_mobius_from_joint(joint))

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: er_mobius(3, Fraction(1, 2)).restrict(4),
                "can only restrict to fewer nodes",
            ),
            (
                lambda: exch_joint_from_mobius(
                    er_mobius(3, Fraction(1, 2)), LabeledNetwork.empty(4)
                ),
                "network on 4 nodes, moments for n=3",
            ),
            (lambda: LabeledMobius(2, (1,)), "need 2 entries for n=2, got 1"),
            (
                lambda: ClassDistribution(3, {class_from_key("1-4,2-3"): Fraction(1)}),
                "unknown classes for n=3: \\['1-4,2-3'\\]",
            ),
            (
                lambda: bidirected_joint(empty_dependence_graph(3), {}, 0),
                "needs a bidirected structure",
            ),
        ],
        ids=["restrict-up", "joint-wrong-size", "labeled-length", "class-past-n",
             "undirected"],
    )
    def test_malformed_request_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestClassMomentsAgainstTheScalarLoop:
    """Class moments summed on arrays take the scalar loop's operations."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_float_moments_of_every_fit_are_bit_identical(self, n):
        for family in FAMILIES:
            for u in enumerate_classes(n, True):
                cd = ergm_fit(ErgmSpec(family, n), u.padded(n)).q
                got = mobius_from_class_distribution(cd).z
                want = oracle_class_moments(cd, class_table(n))
                assert [(w, v.hex()) for w, v in got.items()] == [
                    (w, v.hex()) for w, v in want.items()
                ], (family, u.key())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_moments_are_equal_fractions(self, n):
        rng = random.Random(n)
        classes = enumerate_classes(n, True)
        support = rng.sample(classes, min(5, len(classes)))
        weights = [rng.randint(1, 9) for _ in support]
        laws = [
            er_class_distribution(n, Fraction(1, 3)),
            er_class_distribution(n, 1),
            ClassDistribution(n, {u: Fraction(w, sum(weights)) for u, w in zip(support, weights)}),
        ]
        for cd in laws:
            got = mobius_from_class_distribution(cd).z
            assert got == oracle_class_moments(cd, class_table(n))
            assert all(type(v) is Fraction for v in got.values())


class TestPointMassAndMixture:
    def test_point_mass_on_complete_class(self):
        cd = ClassDistribution.point_mass(
            UnlabeledClass.of(LabeledNetwork.complete(4)), 4
        )
        mv = mobius_from_class_distribution(cd)
        assert all(v == 1 for _, v in mv.in_order())

    def test_uniform_on_paw_edge_moment(self, paw):
        cd = ClassDistribution.point_mass(UnlabeledClass.of(paw), 4)
        mv = mobius_from_class_distribution(cd)
        assert mv.z[edge_class()] == Fraction(2, 3)

    def test_dissociated_mixture_moments(self, paw):
        cd = ClassDistribution(
            4,
            {
                UnlabeledClass.of(paw): Fraction(3, 4),
                UnlabeledClass.empty(): Fraction(1, 4),
            },
        )
        mv = mobius_from_class_distribution(cd)
        want = {
            "1-2": Fraction(1, 2),
            "1-3,2-3": Fraction(5, 16),
            "1-4,2-3": Fraction(1, 4),
            "1-2,1-3,2-3": Fraction(3, 16),
            "1-4,2-4,3-4": Fraction(3, 16),
            "1-4,2-3,3-4": Fraction(1, 8),
            "1-4,2-3,2-4,3-4": Fraction(1, 16),
        }
        for u, v in mv.in_order():
            if u.is_empty:
                assert v == 1
            else:
                assert v == want.get(u.key(), Fraction(0))


@pytest.mark.parametrize("kind", ["joint", "class distribution"])
def test_mixed_values_are_held_as_floats(kind):
    # one float among rationals makes every value the float of its input
    if kind == "joint":
        values = [Fraction(1, 8)] * 7 + [0.125]
        held = JointTable(3, tuple(values))
        got = held.probs
    else:
        values = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), 1 / 6]
        held = ClassDistribution(3, dict(zip(enumerate_classes(3, True), values)))
        got = list(held.q.values())
    assert not held.is_exact
    assert [(type(v), v) for v in got] == [(float, float(v)) for v in values]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_class_distribution_round_trip_is_exact(data):
    # q -> z -> P(X = rep) |class| returns every rational q unchanged
    n = data.draw(st.integers(1, 5))
    classes = enumerate_classes(n, True)
    weights = data.draw(
        st.lists(
            st.integers(0, 9), min_size=len(classes), max_size=len(classes)
        ).filter(any)
    )
    total = sum(weights)
    cd = ClassDistribution(
        n, {u: Fraction(w, total) for u, w in zip(classes, weights) if w}
    )
    mv = mobius_from_class_distribution(cd)
    for u in classes:
        p = exch_joint_from_mobius(mv, u.padded(n))
        assert p * class_size(u, n) == cd.value(u)


class TestBidirectedEvaluation:
    @pytest.mark.parametrize("structure", [kneser_graph, incidence_graph])
    def test_float_sum_order_matches_oracle(self, structure):
        # perturbed independent-ties moments keep every configuration
        # positive, and their float sum depends on the order of its terms
        dep = structure(4, BIDIRECTED)
        rng = random.Random(11)
        z = {
            mask: 0.3 ** bin(mask).count("1") * (1 + 1e-6 * rng.random())
            for mask in range(1, 1 << dep.m)
        }
        for h in range(1 << dep.m):
            assert bidirected_joint(dep, z, h) == oracle_bidirected_joint(dep, z, h)

    def test_chain_identities(self):
        from exchnet.dependence import dependence_graph_from_edges

        dep = dependence_graph_from_edges(
            3, BIDIRECTED, [("1-2", "1-3"), ("1-3", "2-3")]
        )
        z1, z2, z3 = Fraction(1, 2), Fraction(2, 5), Fraction(3, 7)
        z12, z23, z123 = Fraction(1, 6), Fraction(1, 8), Fraction(1, 11)
        z = {
            mask_of([0]): z1,
            mask_of([1]): z2,
            mask_of([2]): z3,
            mask_of([0, 1]): z12,
            mask_of([1, 2]): z23,
            mask_of([0, 2]): z1 * z3,
            mask_of([0, 1, 2]): z123,
        }
        only_first = bidirected_joint(dep, z, mask_of([0]))
        assert only_first == z1 - z12 - z1 * z3 + z123
        marg = bidirected_joint(dep, z, mask_of([0, 2])) + bidirected_joint(
            dep, z, mask_of([0, 1, 2])
        )
        assert marg == z1 * z3

    def test_complete_dependence_reduces_to_lattice_inversion(self):
        rng = random.Random(3)
        jt = JointTable(
            3,
            tuple(
                Fraction(w, 36)
                for w in [5, 4, 6, 3, 7, 2, 8, 1]
            ),
        )
        lm = labeled_mobius_from_joint(jt)
        dep = complete_dependence_graph(3, BIDIRECTED)
        z = {mask_of([k for k in range(3) if m >> k & 1]): lm.z[m] for m in range(1, 8)}
        for h in range(8):
            assert bidirected_joint(dep, z, h) == jt.probs[h]

    def test_matching_structure_closed_form(self, paw):
        dep = kneser_graph(4, BIDIRECTED)
        ze = Fraction(1, 2)
        zu = Fraction(1, 5)
        z = {mask_of([k]): ze for k in range(6)}
        for pair in ([0, 5], [1, 4], [2, 3]):
            z[mask_of(pair)] = zu
        got = bidirected_joint(dep, z, paw.mask)
        assert got == ze**2 * zu - 2 * ze * zu**2 + zu**3

    def test_joint_table_normalizes(self):
        dep = kneser_graph(4, BIDIRECTED)
        ze = Fraction(1, 2)
        zu = Fraction(1, 4)
        z = {mask_of([k]): ze for k in range(6)}
        for pair in ([0, 5], [1, 4], [2, 3]):
            z[mask_of(pair)] = zu
        assert sum(bidirected_joint(dep, z, h) for h in range(1 << dep.m)) == 1

    def test_incidence_structure_matches_product_completed_expansion(self):
        # z on connected classes, products elsewhere: evaluating through the
        # bidirected incidence structure must agree with the class-indexed
        # inclusion-exclusion applied to the product-completed moment vector
        from exchnet.dependence import incidence_graph
        from exchnet.graphs import disconnected_classes

        golden = {
            "1-2": Fraction(1, 2),
            "1-3,2-3": Fraction(5, 16),
            "1-2,1-3,2-3": Fraction(3, 16),
            "1-4,2-4,3-4": Fraction(3, 16),
            "1-4,2-3,3-4": Fraction(1, 8),
            "1-4,2-3,2-4,3-4": Fraction(1, 16),
            "1-3,1-4,2-3,2-4": Fraction(0),
            "1-3,1-4,2-3,2-4,3-4": Fraction(0),
            "1-2,1-3,1-4,2-3,2-4,3-4": Fraction(0),
        }
        by_key = {u.key(): u for u in enumerate_classes(4, True)}
        z_map = {UnlabeledClass.empty(): Fraction(1)}
        for key, val in golden.items():
            z_map[by_key[key]] = val
        # complete the disconnected classes by component products
        for u, comps in disconnected_classes(4):
            prod = Fraction(1)
            for c in comps:
                prod *= z_map[c]
            z_map[u] = prod
        mv = MobiusVector(4, z_map)
        assert validate_mobius(mv).ok

        dep = incidence_graph(4, BIDIRECTED)
        z_conn = {}
        for mask in range(1, 64):
            net = LabeledNetwork.from_mask(4, mask)
            from exchnet.graphs import connected_components

            if len(connected_components(net)) == 1:
                z_conn[mask] = z_map[UnlabeledClass.of(net)]
        for mask in range(64):
            x = LabeledNetwork.from_mask(4, mask)
            assert bidirected_joint(dep, z_conn, mask) == exch_joint_from_mobius(
                mv, x
            )


def near_degenerate_law(gap: float) -> MobiusVector:
    """z at n = 3 with every z_U = 1 except z_cherry = 1 - gap: each labeled
    cherry gets probability -gap and the empty network -3 gap."""
    cherry = UnlabeledClass.of(LabeledNetwork.from_edges(3, [(1, 3), (2, 3)]))
    z = {u: 1.0 for u in enumerate_classes(3, True)}
    z[cherry] = 1 - gap
    return MobiusVector(3, z)


class TestOneNegativeTolerance:
    """Class moments and the full lattice judge a float law alike."""

    def test_both_paths_refuse_a_negative_beyond_tolerance(self):
        mv = near_degenerate_law(2e-10)
        assert not validate_mobius(mv).ok
        with pytest.raises(InvalidParametersError):
            joint_from_labeled_mobius(labeled_from_exchangeable(mv))

    def test_both_paths_accept_a_negative_within_tolerance(self):
        mv = near_degenerate_law(1e-13)
        assert validate_mobius(mv).ok
        joint_from_labeled_mobius(labeled_from_exchangeable(mv))


class TestValidateMobius:
    def test_er_always_valid(self):
        for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert validate_mobius(er_mobius(4, p)).ok

    def test_float_empty_class_within_tolerance(self):
        # MobiusVector holds a float z of the empty class within 1e-12 of 1
        z = {**er_mobius(4, 0.3).z, UnlabeledClass.empty(): 1 - 1e-13}
        assert validate_mobius(MobiusVector(4, z)).ok

    def test_forced_contradiction(self):
        tri = triangle_class()
        e = edge_class()
        s2 = UnlabeledClass.of(LabeledNetwork.from_edges(3, [(1, 3), (2, 3)]))
        z = {
            UnlabeledClass.empty(): Fraction(1),
            e: Fraction(1),
            s2: Fraction(1),
            tri: Fraction(0),
        }
        report = validate_mobius(MobiusVector(3, z))
        assert not report.ok
        assert report.first() is not None

    def test_mle_of_paw_is_valid(self, paw):
        from exchnet.estimation import exch_mle

        assert validate_mobius(exch_mle(paw)).ok

    def test_out_of_range_value(self):
        z = {u: Fraction(0) for u in enumerate_classes(3, True)}
        z[UnlabeledClass.empty()] = Fraction(1)
        z[edge_class()] = Fraction(3, 2)
        report = validate_mobius(MobiusVector(3, z))
        assert not report.ok
        assert report.violations[0][0] == "range"

    @pytest.mark.parametrize("law", ["er", "mle"])
    def test_exact_seven_node_laws_are_valid(self, law):
        from exchnet.estimation import exch_mle

        if law == "er":
            mv = er_mobius(7, Fraction(1, 3))
        else:
            k7 = LabeledNetwork.complete(7)
            mv = exch_mle(LabeledNetwork.from_edges(7, sorted(k7.edges)[1:]))
        assert validate_mobius(mv) == MobiusValidation(ok=True)

    def test_nudged_seven_node_law_has_a_negative_class(self):
        z = dict(er_mobius(7, Fraction(1, 3)).z)
        z[edge_class()] += Fraction(1, 100)
        report = validate_mobius(MobiusVector(7, z))
        assert not report.ok
        kind, message = report.first()
        assert kind == "negative_config" and message.endswith(" < 0")

    def test_float_seven_node_validation_is_refused(self):
        with pytest.raises(SizeCapError, match="float validation") as err:
            validate_mobius(er_mobius(7, 0.3))
        assert "lattice" not in str(err.value)
