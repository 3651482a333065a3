import random
from fractions import Fraction

import pytest

from exchnet.dependence import dissociated_check
from exchnet.estimation import exch_mle
from exchnet import extendability
from exchnet.extendability import (
    CertificateError,
    dissociated_extendable_check,
    extendable_check,
    marginalize_joint,
    marginalize_mobius,
)
from exchnet.genmodels import (
    MixingSpec,
    er_class_distribution,
    er_joint,
    er_mobius,
    marginal_beta_joint,
)
from exchnet.graphs import (
    LabeledNetwork,
    SizeCapError,
    enumerate_classes,
    num_dyads,
)
from exchnet.mobius import (
    InvalidParametersError,
    JointTable,
    MobiusVector,
    exchangeable_from_labeled,
    labeled_mobius_from_joint,
    mobius_from_class_distribution,
    validate_mobius,
)
from oracles import oracle_inj


def random_rational_joint(n, rng):
    m = num_dyads(n)
    weights = [rng.randrange(0, 9) for _ in range(1 << m)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return JointTable(n, tuple(Fraction(w, total) for w in weights))


class TestMarginalizeJoint:
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
        assert marginalize_mobius(mv, 4) == mv

    def test_er_restricts_to_er(self):
        p = Fraction(2, 7)
        assert marginalize_mobius(er_mobius(5, p), 3) == er_mobius(3, p)

    def test_values_unchanged(self):
        paw = LabeledNetwork.from_edges(4, [(1, 4), (2, 3), (2, 4), (3, 4)])
        mv = exch_mle(paw)
        sub = marginalize_mobius(mv, 3)
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

    def test_feasible_verdict_carries_no_dual(self):
        rep = extendable_check(er_mobius(4, Fraction(1, 3)), 5)
        assert rep.dual is None

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

    def test_float_mode(self):
        mv = er_mobius(4, Fraction(1, 3)).to_float()
        rep = extendable_check(mv, 5)
        assert rep.feasible


class TestDissociatedExtendableCheck:
    def test_er_certifies_through_shortcut(self):
        mv = er_mobius(4, Fraction(1, 3))
        rep = dissociated_extendable_check(mv, 5)
        assert rep.feasible
        assert rep.method == "er-candidate"

    def test_paw_dissociated_fit_report(self, paw_dissociated_fit):
        rep = dissociated_extendable_check(paw_dissociated_fit.z, 5)
        # no published verdict for this case: require an honest, validated
        # report either way
        if rep.feasible:
            assert rep.certificate is not None
            back = mobius_from_class_distribution(
                rep.certificate.to_float()
            ).restrict(4)
            for u, v in back.in_order():
                assert abs(v - paw_dissociated_fit.z.z[u]) < 1e-5
        else:
            assert rep.infeasibility_margin is not None

    def test_constant_kernel_moments_extend(self):
        mv = er_mobius(4, 0.25)
        rep = dissociated_extendable_check(mv, 6)
        assert rep.feasible

    def test_negative_restarts_rejected(self):
        with pytest.raises(InvalidParametersError):
            dissociated_extendable_check(er_mobius(4, 0.25), 5, restarts=-1)


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
