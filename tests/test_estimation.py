import dataclasses
import hashlib
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from exchnet import estimation

from exchnet.counting import (
    edge_class,
    matching_class,
    sigma,
    star_class,
    triangle_class,
    two_disjoint_edges_class,
)
from exchnet.dependence import dissociated_check
from exchnet.estimation import (
    FAMILIES,
    ErgmSpec,
    degree_collision_classes,
    dissociated_mle,
    ergm_eval,
    ergm_fit,
    ergm_stats,
    exch_mle,
    sigma_is_degree_function,
    summarized_check,
    summarized_constraints,
)
from exchnet.genmodels import (
    BetaSpec,
    MixingSpec,
    beta_joint,
    er_joint,
    er_mobius,
    marginal_beta_joint,
)
from exchnet.graphs import (
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    aut_count,
    class_from_key,
    class_size,
    degree_distribution,
    enumerate_classes,
    num_dyads,
)
from exchnet.mobius import (
    ClassDistribution,
    InvalidParametersError,
    exch_joint_from_mobius,
    exchangeable_from_labeled,
    labeled_from_exchangeable,
    labeled_mobius_from_joint,
    mobius_from_class_distribution,
    validate_mobius,
)
from exchnet.serialize import dump_json, fit_report_to_json
from oracles import oracle_facial_set, oracle_sub

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


class TestExchMle:
    def test_paw_golden_values(self, paw):
        mv = exch_mle(paw)
        for u, v in mv.in_order():
            if u.is_empty:
                assert v == 1
            else:
                assert v == GOLDEN_MLE.get(u.key(), Fraction(0))

    def test_complete_network(self):
        mv = exch_mle(LabeledNetwork.complete(4))
        assert all(v == 1 for _, v in mv.in_order())

    def test_empty_network(self):
        mv = exch_mle(LabeledNetwork.empty(4))
        for u, v in mv.in_order():
            assert v == (1 if u.is_empty else 0)

    def test_induced_distribution_is_uniform_on_class(self):
        for n in (3, 4):
            for w in enumerate_classes(n, True):
                x = w.padded(n)
                mv = exch_mle(x)
                size = class_size(w, n)
                # mass 1/|class| at the observation, zero off the class
                assert exch_joint_from_mobius(mv, x) == Fraction(1, size)
                for other in enumerate_classes(n, True):
                    if other != w:
                        assert exch_joint_from_mobius(mv, other.padded(n)) == 0

    def test_mle_matches_point_mass_distribution(self, paw):
        cd = ClassDistribution.point_mass(UnlabeledClass.of(paw), paw.n)
        assert mobius_from_class_distribution(cd) == exch_mle(paw)


class TestDissociatedMle:
    def test_paw_golden(self, paw_dissociated_fit):
        rep = paw_dissociated_fit
        for u, v in rep.z.in_order():
            want = GOLDEN_DISSOCIATED.get(
                u.key(), Fraction(1) if u.is_empty else Fraction(0)
            )
            assert abs(v - float(want)) <= 1e-4, u.key()
        assert abs(rep.likelihood - 1 / 16) <= 1e-6
        assert rep.constraint_residual < 1e-8

    def test_paw_interpretation_is_mixture(self, paw, paw_dissociated_fit):
        q = paw_dissociated_fit.q
        assert abs(q.value(UnlabeledClass.of(paw)) - 0.75) < 1e-4
        assert abs(q.value(UnlabeledClass.empty()) - 0.25) < 1e-4

    def test_fit_is_dissociated_and_valid(self, paw_dissociated_fit):
        mv = paw_dissociated_fit.z
        assert dissociated_check(labeled_from_exchangeable(mv)).holds
        assert validate_mobius(mv).ok

    def test_beats_independence_fit(self, paw, paw_dissociated_fit):
        p_hat = Fraction(paw.edge_count, num_dyads(paw.n))
        er_lik = float(
            p_hat**paw.edge_count * (1 - p_hat) ** (6 - paw.edge_count)
        )
        assert paw_dissociated_fit.likelihood >= er_lik - 1e-12

    def test_path4_flat_family(self, path4_dissociated_fit):
        rep = path4_dissociated_fit
        assert rep.status == "non_unique"
        assert abs(rep.likelihood - 1 / 16) <= 1e-6

    def test_path4_stays_at_its_exact_maximum(self, path4, path4_dissociated_fit):
        # the branch and bound closes path4 within LP rounding, so no
        # golden-section step pushes q(path4) past 3/4 (likelihood 1/16)
        rep = path4_dissociated_fit
        assert rep.q.value(UnlabeledClass.of(path4)) <= 0.75
        assert rep.log_likelihood <= math.log(1 / 16)

    @pytest.mark.parametrize(
        "key, most",
        [("1-4,2-3,2-4,3-4", 15), ("1-4,2-3,3-4", 11)],
        ids=["paw", "path4"],
    )
    def test_a_closed_gap_skips_refinement(self, monkeypatch, key, most):
        lps = count_lps(monkeypatch, class_from_key(key).padded(4))
        assert lps <= most

    def test_an_open_gap_still_refines(self, monkeypatch):
        # 2K2's branch and bound stops 3.5e-10 (relative) short of its bound
        assert count_lps(monkeypatch, class_from_key("1-4,2-3").padded(4)) == 74

    def test_path4_endpoints_feasible_and_tied(self, path4):
        # both ends of the flat family: the leftover quarter sits entirely on
        # the triangle class or entirely on the 3-star class
        p4 = UnlabeledClass.of(path4)
        for extreme in (triangle_class(), star_class(3)):
            cd = ClassDistribution(
                4, {p4: Fraction(3, 4), extreme: Fraction(1, 4)}
            )
            mv = mobius_from_class_distribution(cd)
            assert dissociated_check(labeled_from_exchangeable(mv)).holds
            lik = cd.labeled_prob(path4)
            assert abs(float(lik) - 1 / 16) <= 1e-7
            assert validate_mobius(mv).ok

    def test_empty_observation(self):
        rep = dissociated_mle(LabeledNetwork.empty(3))
        assert rep.likelihood > 1 - 1e-9

    def test_six_nodes_over_the_cap(self):
        with pytest.raises(SizeCapError):
            dissociated_mle(LabeledNetwork.path(6))


def count_lps(monkeypatch, x: LabeledNetwork) -> int:
    """The number of LPs the dissociated fit of x solves."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = estimation.maximize
    monkeypatch.setattr(estimation, "maximize", counted)
    dissociated_mle(x)
    return len(calls)


class TestGoldenMax:
    @pytest.mark.parametrize(
        "f, peak",
        [
            (lambda t: -((t - 0.3) ** 2), 0.3),
            (lambda t: -abs(t - 1 / math.sqrt(2)), 1 / math.sqrt(2)),
        ],
        ids=["quadratic", "kink"],
    )
    def test_finds_the_peak_within_its_tolerance(self, f, peak):
        tol = estimation.GOLDEN_TOL
        assert abs(estimation._golden_max(f, 0.0, 1.0, tol) - peak) <= tol


def complement(x: LabeledNetwork) -> LabeledNetwork:
    return LabeledNetwork.from_edges(
        x.n, [e for e in LabeledNetwork.complete(x.n).edges if e not in x.edges]
    )


def grid_v(x_idx: int, ts: np.ndarray) -> np.ndarray:
    """v(t) = max q_x over class distributions q at n = 4 with z_edge = t
    and z_2K2 = t^2, at each t: the rows (sum q, z_edge, z_2K2) are three,
    so every vertex of that set is supported on at most 3 classes, and the
    best of every such support solving the rows with q >= 0 is v(t).  The
    moment rows are brute-force subgraph counts."""
    reps = [u.padded(4) for u in enumerate_classes(4, True)]
    k4 = LabeledNetwork.complete(4)
    fs = [LabeledNetwork.from_edges(4, e) for e in ([(1, 2)], [(1, 2), (3, 4)])]
    a = np.array(
        [[1.0] * len(reps)]
        + [[oracle_sub(f, w) / oracle_sub(f, k4) for w in reps] for f in fs]
    )
    b = np.vstack([np.ones_like(ts), ts, ts**2])
    best = np.zeros_like(ts)
    for k in (1, 2, 3):
        for support in combinations(range(len(reps)), k):
            if x_idx in support:
                cols = a[:, support]
                q = np.linalg.pinv(cols) @ b
                ok = np.abs(cols @ q - b).max(axis=0) <= 1e-12
                ok &= q.min(axis=0) >= -1e-12
                qx = q[support.index(x_idx)]
                best = np.where(ok, np.maximum(best, qx), best)
    return best


# ROADMAP item 3's likelihoods at n = 5, from HiGHS on a t grid refined in 1-d
TABLE_N5 = {
    "1-2": 0.0918368,
    "1-4,2-3": 0.0467917,
    "1-4,1-5,2-3,2-5,3-4": 11 / 312,
    "1-3,1-4,1-5,2-3,2-4,2-5,3-5,4-5": 0.0467917,
    "1-3,1-4,1-5,2-3,2-4,2-5,3-4,3-5,4-5": 0.0918367,
}


# The four inputs whose branch and bound closes within LP rounding and whose
# golden-section refinement moved t (triangle, star3 and path4 at n = 4, and
# 1-4,1-5,2-3,2-5,3-4,4-5 at n = 5) report the branch and bound's own t; the
# other 48 reports of every class padded to n = 1..5 are pinned to their
# bytes from before refinement was skipped, concatenated in class order.
REFINED_BEFORE = {
    (4, "1-2,1-3,2-3"),
    (4, "1-4,2-4,3-4"),
    (4, "1-4,2-3,3-4"),
    (5, "1-4,1-5,2-3,2-5,3-4,4-5"),
}
UNREFINED_REPORTS_DIGEST = (
    "1151d97bba58871ed194fc6f0faee419a2a53f16f8366758072e4df83012825f"
)


@pytest.fixture(scope="module")
def every_dissociated_fit():
    return {
        (n, u.key()): dissociated_mle(u.padded(n))
        for n in range(1, 6)
        for u in enumerate_classes(n, True)
    }


class TestDissociatedOracles:
    def test_every_class_at_four_against_a_t_grid(self):
        ts = np.linspace(0.0, 1.0, 2001)
        edge = edge_class()
        # 2K2, the triangle, star3, path4 and C4
        non_unique = {
            "1-4,2-3", "1-2,1-3,2-3", "1-4,2-4,3-4", "1-4,2-3,3-4", "1-3,1-4,2-3,2-4",
        }
        for k, u in enumerate(enumerate_classes(4, True)):
            rep = dissociated_mle(u.padded(4))
            want = "non_unique" if u.key() in non_unique else "optimal"
            assert rep.status == want, u.key()
            qx = rep.q.value(u)
            # no grid point beats the fit, and the fit's t attains it
            assert qx >= grid_v(k, ts).max() - 1e-9, u.key()
            assert abs(grid_v(k, np.array([rep.z.z[edge]]))[0] - qx) <= 1e-8
            assert rep.constraint_residual <= 1e-9

    def test_every_fit_stays_below_its_bound(self, every_dissociated_fit):
        assert len(every_dissociated_fit) == 52
        for key, rep in every_dissociated_fit.items():
            assert rep.log_likelihood <= rep.log_likelihood_upper, key

    def test_reports_refinement_did_not_move_are_pinned(self, every_dissociated_fit):
        digest = hashlib.sha256()
        for key, rep in every_dissociated_fit.items():
            if key not in REFINED_BEFORE:
                digest.update(dump_json(fit_report_to_json(rep)).encode())
        assert digest.hexdigest() == UNREFINED_REPORTS_DIGEST

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complement_duality_up_to_four(self, n):
        fits = {
            u: dissociated_mle(u.padded(n)).likelihood
            for u in enumerate_classes(n, True)
        }
        for u, lik in fits.items():
            other = UnlabeledClass.of(complement(u.padded(n)))
            assert abs(lik - fits[other]) <= 1e-9, u.key()

    def test_complement_pairs_at_five_match_the_table(self):
        fits = {}
        for key, want in TABLE_N5.items():
            x = class_from_key(key).padded(5)
            rep = dissociated_mle(x)
            assert rep.status == "optimal"
            assert abs(rep.likelihood - want) <= 1e-7, key
            fits[UnlabeledClass.of(x)] = rep.likelihood
        for u, lik in fits.items():
            other = fits[UnlabeledClass.of(complement(u.padded(5)))]
            assert abs(lik - other) <= 1e-8, u.key()

    def test_failed_node_lps_keep_the_parent_bound(self, monkeypatch, paw):
        real = estimation.maximize
        failed = []

        def flaky(rows, rhs, c):
            # the first three relaxation LPs (the ones with slack columns)
            if len(rows[0]) > 11 and len(failed) < 3:
                failed.append(rows)
                raise InvariantError("float pivots revisited a basis")
            return real(rows, rhs, c)

        monkeypatch.setattr(estimation, "maximize", flaky)
        rep = dissociated_mle(paw)
        assert len(failed) == 3
        assert abs(rep.likelihood - 1 / 16) <= 1e-9
        assert abs(rep.z.z[edge_class()] - 0.5) <= 1e-6


class TestErgmStats:
    def test_frank_strauss_paw(self, paw):
        assert ergm_stats(ErgmSpec("frank_strauss", 4), paw) == (4, 5, 1, 1)

    def test_kneser_paw(self, paw):
        assert ergm_stats(ErgmSpec("kneser", 4), paw) == (4, 1)

    def test_se_star_paw(self, paw):
        assert ergm_stats(ErgmSpec("se_star", 4), paw) == (4, 5, 1, 1)

    def test_sem_uses_degree_counts(self, paw):
        assert ergm_stats(ErgmSpec("sem", 4), paw) == (1, 2, 1)

    def test_full_family_is_sigma_vector(self, paw):
        spec = ErgmSpec("full_exchangeable", 4)
        got = ergm_stats(spec, paw)
        want = tuple(sigma(u, paw) for u in enumerate_classes(4, False))
        assert got == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_matches_independent_counts(self, n):
        # sem counts degrees; every other statistic is the search-based
        # sigma of its class, 0 for a class on more than n vertices (the
        # frank_strauss triangle at n = 2, se_star's two disjoint edges at 3)
        named = {"triangle": triangle_class(), "two_disjoint_edges": two_disjoint_edges_class()}

        def stat_class(name):
            for prefix, make in (("star", star_class), ("matching", matching_class)):
                if name.startswith(prefix) and name[len(prefix):].isdigit():
                    return make(int(name[len(prefix):]))
            return named[name] if name in named else class_from_key(name)

        for family in FAMILIES:
            assert not estimation._stat_table(family, n).flags.writeable
        for u in enumerate_classes(n, True):
            x = u.padded(n)
            for family in FAMILIES:
                spec = ErgmSpec(family, n)
                if family == "sem":
                    want = degree_distribution(x).counts[1:]
                else:
                    want = tuple(sigma(stat_class(name), x) for name in spec.stat_names())
                assert ergm_stats(spec, x) == want, (family, u.key())


class TestErgmEval:
    def test_exponent_past_float_range_is_refused(self, paw):
        # exp overflows to inf in every class with an edge, so the log
        # partition would be inf - inf
        with pytest.raises(InvalidParametersError, match="log partition"):
            ergm_eval(ErgmSpec("edges", 4), {"star1": 1e308}, paw)

    def test_zero_parameters_give_uniform(self, paw):
        spec = ErgmSpec("full_exchangeable", 4)
        p = ergm_eval(spec, {}, paw)
        assert abs(p - 1 / 64) < 1e-14

    def test_edge_parameter_recovers_independence(self):
        spec = ErgmSpec("full_exchangeable", 4)
        p = 0.3
        nu = {"1-2": math.log(p / (1 - p))}
        for mask in (0, 1, 7, 63):
            x = LabeledNetwork.from_mask(4, mask)
            want = p**x.edge_count * (1 - p) ** (6 - x.edge_count)
            assert abs(ergm_eval(spec, nu, x) - want) < 1e-12

    def test_edge_shift_reweights_by_edge_count(self, paw):
        spec = ErgmSpec("frank_strauss", 4)
        nu = {"star1": 0.4, "triangle": -0.3}
        c = 0.7
        shifted = dict(nu)
        shifted["star1"] = nu["star1"] + c
        base = {
            mask: ergm_eval(spec, nu, LabeledNetwork.from_mask(4, mask))
            for mask in range(64)
        }
        norm = sum(
            base[m] * math.exp(c * bin(m).count("1")) for m in base
        )
        for mask in (0, 5, 21, 63):
            want = base[mask] * math.exp(c * bin(mask).count("1")) / norm
            got = ergm_eval(spec, shifted, LabeledNetwork.from_mask(4, mask))
            assert abs(got - want) < 1e-12


class TestErgmFit:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_gibbs_products_read_c_order_floats(self, family, paw, monkeypatch):
        # the bits of stats @ nu depend on the layout: C order made the recorded outputs
        seen = []

        def spy(stats, sizes, nu):
            seen.append(stats.flags.c_contiguous and stats.dtype == np.float64)
            return gibbs(stats, sizes, nu)

        gibbs = estimation._gibbs_weights
        monkeypatch.setattr(estimation, "_gibbs_weights", spy)
        spec = ErgmSpec(family, 4)
        ergm_fit(spec, paw)
        ergm_eval(spec, [0.1] * len(spec.stat_names()), paw)
        assert seen and all(seen)

    def test_full_family_single_observation_is_boundary(self, paw):
        rep = ergm_fit(ErgmSpec("full_exchangeable", 4), paw)
        assert rep.status == "boundary"

    def test_single_edge_statistic_recovers_logit(self):
        for e in range(1, 6):
            edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)][:e]
            x = LabeledNetwork.from_edges(4, edges)
            rep = ergm_fit(ErgmSpec("edges", 4), x)
            assert rep.status == "optimal"
            want = math.log((e / 6) / (1 - e / 6))
            assert abs(rep.nu["star1"] - want) < 1e-8

    def test_degenerate_edge_counts_are_boundary(self):
        for x in (LabeledNetwork.empty(4), LabeledNetwork.complete(4)):
            rep = ergm_fit(ErgmSpec("edges", 4), x)
            assert rep.status == "boundary"

    def test_mean_value_match_when_optimal(self):
        x = LabeledNetwork.from_edges(4, [(1, 2), (3, 4)])
        spec = ErgmSpec("edges", 4)
        rep = ergm_fit(spec, x)
        assert rep.status == "optimal"
        expected = sum(
            ergm_stats(spec, u.padded(4))[0] * rep.q.value(u)
            for u in enumerate_classes(4, True)
        )
        assert abs(expected - 2) < 1e-8

    def test_summarized_families_fit_summarized_distributions(self, paw):
        for family in ("se_star", "sem"):
            rep = ergm_fit(ErgmSpec(family, 4), paw)
            assert rep.q is not None
            assert summarized_check(rep.q).holds

    def test_frank_strauss_eval_depends_only_on_statistics(self):
        # find two non-isomorphic graphs with equal statistics (none exist
        # at five nodes, so search at six)
        spec = ErgmSpec("frank_strauss", 6)
        by_stats = {}
        pair = None
        for u in enumerate_classes(6, True):
            x = u.padded(6)
            key = ergm_stats(spec, x)
            if key in by_stats:
                pair = (by_stats[key], x)
                break
            by_stats[key] = x
        assert pair is not None
        nu = {"star1": 0.3, "star2": -0.2, "triangle": 0.15}
        p1 = ergm_eval(spec, nu, pair[0])
        p2 = ergm_eval(spec, nu, pair[1])
        assert abs(p1 - p2) < 1e-14
        assert pair[0].edges != pair[1].edges


class TestErgmBoundaryFaces:
    """Boundary verdicts from the exact facial set, and the fit on it."""

    def test_se_star_cherry_reaches_the_supremum(self):
        x = LabeledNetwork.from_edges(5, [(1, 2), (2, 3)])
        rep = ergm_fit(ErgmSpec("se_star", 5), x)
        assert rep.status == "boundary"
        assert abs(rep.likelihood - 1 / 30) < 1e-12

    @pytest.mark.parametrize(
        "key, zero_stats",
        [
            ("1-5,2-5,3-4,4-5", ("star4", "star5", "triangle")),
            ("1-4,1-5,2-3,2-5,3-4", ("star3", "star4", "star5", "triangle")),
        ],
    )
    def test_frank_strauss_at_minimal_statistics_is_boundary(
        self, key, zero_stats
    ):
        spec = ErgmSpec("frank_strauss", 6)
        x = class_from_key(key).padded(6)
        assert ergm_fit(spec, x).status == "boundary"
        # y = -(sum of the statistics that sit at 0) separates s(x)
        y = [-1 if name in zero_stats else 0 for name in spec.stat_names()]
        s_x = ergm_stats(spec, x)
        scores = [
            sum(a * (b - c) for a, b, c in zip(y, ergm_stats(spec, u.padded(6)), s_x))
            for u in enumerate_classes(6, True)
        ]
        assert max(scores) == 0
        assert min(scores) < 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fitted_means_match_observed(self, n):
        classes = enumerate_classes(n, True)
        for family in FAMILIES:
            spec = ErgmSpec(family, n)
            stats = {u: ergm_stats(spec, u.padded(n)) for u in classes}
            for x_cls in classes:
                rep = ergm_fit(spec, x_cls.padded(n))
                assert rep.status in ("optimal", "boundary")
                for k, want in enumerate(stats[x_cls]):
                    got = sum(rep.q.value(u) * stats[u][k] for u in classes)
                    assert abs(got - want) < 1e-8, (family, x_cls.key())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_family_fit_is_the_exchangeable_mle(self, n):
        spec = ErgmSpec("full_exchangeable", n)
        for u in enumerate_classes(n, True):
            x = u.padded(n)
            rep = ergm_fit(spec, x)
            want = exch_mle(x)
            assert {w: float(v) for w, v in want.z.items()} == rep.z.z


# sha256 of one line "family key mask" per family (sorted) and class (in
# enumeration order) at n, the face a string of 0s and 1s over the classes;
# recorded from facial sets scored in Fractions
FACE_DIGESTS = {
    5: "26f2e219ae4e4801e853f6b1738c26266d917eae31d563f82c4ffe1e13f4771e",
    6: "f9122b2027d4aa47d2e863a1c272985a04aa11c15d9f8228bd2deaabfe068c83",
}


def facial_set(family: str, n: int, u: UnlabeledClass) -> list:
    spec = ErgmSpec(family, n)
    stats = estimation._stat_table(family, n)
    return estimation._facial_set(spec, stats, estimation._class_index(spec, u.padded(n))).tolist()


class TestFacialSet:
    """The exact face that holds s(x), against vertex enumeration."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_equals_the_oracle(self, family):
        for n in range(1, 5):
            stats = estimation._stat_table(family, n).tolist()
            for x_idx, u in enumerate(enumerate_classes(n, True)):
                want = oracle_facial_set(stats, x_idx)
                assert facial_set(family, n, u) == want, (n, u.key())

    @pytest.mark.parametrize("n", [5, 6])
    def test_every_face_is_pinned(self, n):
        digest = hashlib.sha256()
        for family in sorted(FAMILIES):
            for u in enumerate_classes(n, True):
                mask = "".join("1" if on else "0" for on in facial_set(family, n, u))
                digest.update(f"{family} {u.key()} {mask}\n".encode())
        assert digest.hexdigest() == FACE_DIGESTS[n]

    @pytest.mark.parametrize("dual", [[1, -3], [0, 0]])
    def test_a_dual_that_does_not_separate_raises(self, monkeypatch, dual):
        # s(empty) = (0, 0) is a vertex of the kneser points at n = 4, so the
        # first LP is infeasible; y = (1, -3) scores (1, 0) at 1 and (2, 1)
        # at -1, and y = 0 scores every point 0.  Only the first round's dual
        # is replaced, so the first round's check must raise.
        real = estimation.solve_feasibility
        rounds = []

        def spoiled(rows, b):
            res = real(rows, b)
            rounds.append(res)
            if len(rounds) > 1 or res.feasible:
                return res
            return dataclasses.replace(res, dual=[Fraction(v) for v in dual])

        monkeypatch.setattr(estimation, "solve_feasibility", spoiled)
        with pytest.raises(InvariantError, match="kneser Farkas vector"):
            ergm_fit(ErgmSpec("kneser", 4), UnlabeledClass.empty().padded(4))


class TestCanonicalParams:
    """The full exchangeable family: one canonical weight per class key."""

    SPEC = ErgmSpec("full_exchangeable", 4)

    def test_psi_is_finite_and_normalizes(self):
        nu = {edge_class().key(): 0.4, triangle_class().key(): -0.7}
        probs = [
            ergm_eval(self.SPEC, nu, LabeledNetwork.from_mask(4, mask))
            for mask in range(64)
        ]
        assert all(0 < p < 1 for p in probs)
        assert abs(sum(probs) - 1.0) < 1e-12

    def test_zero_parameters_give_uniform(self):
        for mask in range(64):
            p = ergm_eval(self.SPEC, {}, LabeledNetwork.from_mask(4, mask))
            assert p == pytest.approx(1 / 64)

    def test_rejects_foreign_class(self):
        big = star_class(5)  # six vertices, does not fit at n=4
        empty = LabeledNetwork.from_mask(4, 0)
        with pytest.raises(ValueError):
            ergm_eval(self.SPEC, {big.key(): 1.0}, empty)


class TestDegreeCollisions:
    def test_none_at_four_nodes(self):
        assert degree_collision_classes(4) == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_node_is_invalid_parameters(self, n):
        with pytest.raises(InvalidParametersError):
            degree_collision_classes(n)

    def test_three_pairs_at_five_nodes(self):
        groups = degree_collision_classes(5)
        assert len(groups) == 3
        assert all(len(g) == 2 for g in groups)
        multisets = {
            tuple(sorted(g[0].padded(5).degrees(), reverse=True))
            for g in groups
        }
        assert multisets == {
            (2, 2, 2, 1, 1),
            (3, 2, 2, 2, 1),
            (3, 3, 2, 2, 2),
        }

    def test_six_nodes_against_orbit_counting_oracle(self):
        # independent grouping: bucket all labeled graphs by degree counts,
        # then count classes per bucket through the orbit-size identity
        # (sum of aut over a class's members equals n!)
        buckets = {}
        for mask in range(1 << 15):
            g = LabeledNetwork.from_mask(6, mask)
            key = degree_distribution(g).counts
            buckets.setdefault(key, 0)
            buckets[key] += aut_count(g)
        fact = math.factorial(6)
        groups = 0
        for key, total in buckets.items():
            classes, rem = divmod(total, fact)
            assert rem == 0
            if classes >= 2:
                groups += 1
        assert groups == len(degree_collision_classes(6))

    def test_degree_counts_build_no_sigma_table(self, monkeypatch):
        # collisions at n read the sem table alone, so they cost no S_n
        monkeypatch.setattr(estimation, "class_table", None)
        sem = estimation._stat_table.__wrapped__("sem", 6)
        assert sem.shape == (156, 5)


class TestSummarized:
    def test_er_is_summarized(self):
        assert summarized_check(er_joint(4, Fraction(1, 3))).holds

    def test_unequal_propensities_are_not(self):
        jt = beta_joint(BetaSpec((0.5, -0.25, 1.0, 0.0)))
        res = summarized_check(jt)
        assert not res.holds
        m1, m2 = res.witness
        d1 = degree_distribution(LabeledNetwork.from_mask(4, m1))
        d2 = degree_distribution(LabeledNetwork.from_mask(4, m2))
        assert d1 == d2

    def test_two_point_marginal_beta_summarized_at_five(self):
        jt = marginal_beta_joint(5, MixingSpec.two_point(-1.0, 1.5, 0.5))
        assert summarized_check(jt).holds

    def test_class_distributions_at_five(self):
        # n = 5 has degree collisions, so the groups' classes are compared
        p = Fraction(1, 3)
        er = ClassDistribution(5, {
            u: class_size(u, 5) * p**u.edge_count * (1 - p) ** (10 - u.edge_count)
            for u in enumerate_classes(5, True)
        })
        assert summarized_check(er).holds
        u1, u2 = degree_collision_classes(5)[0]
        res = summarized_check(ClassDistribution.point_mass(u1, 5))
        assert not res.holds and res.witness == (u1, u2)


class TestSigmaDegreeFunction:
    def test_stars_and_matching_are_degree_functions(self):
        for u in (star_class(2), two_disjoint_edges_class()):
            ok, witness = sigma_is_degree_function(u, 6)
            assert ok and witness is None

    def test_triangle_is_not(self):
        ok, witness = sigma_is_degree_function(triangle_class(), 6)
        assert not ok
        x1, x2 = witness
        assert degree_distribution(x1) == degree_distribution(x2)
        assert sigma(triangle_class(), x1) != sigma(triangle_class(), x2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ErgmSpec("nope", 4), ValueError, "unknown family 'nope'"),
        (
            lambda: ergm_stats(ErgmSpec("edges", 5), LabeledNetwork.path(4)),
            ValueError,
            "network on 4 nodes, family at n=5",
        ),
        (lambda: summarized_constraints(8), SizeCapError, "support n <= 7, got 8"),
        (lambda: summarized_check(object()), TypeError, "expected JointTable"),
    ],
    ids=["unknown-family", "stats-wrong-size", "constraints-n8", "check-type"],
)
def test_library_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestSummarizedConstraints:
    def test_none_at_four(self):
        assert summarized_constraints(4) == []

    def test_three_at_five(self):
        assert len(summarized_constraints(5)) == 3

    def test_seven_nodes_one_per_collision_pair(self):
        cons = summarized_constraints(7)
        groups = degree_collision_classes(7)
        assert len(cons) == sum(math.comb(len(g), 2) for g in groups) == 3282
        mv = er_mobius(7, Fraction(1, 3))
        for c in cons[::97]:
            assert c.evaluate(mv) == 0

    def test_constraints_annihilate_summarized_models(self):
        cons = summarized_constraints(5)
        mv_er = er_mobius(5, Fraction(1, 3))
        for c in cons:
            assert c.evaluate(mv_er) == 0
        jt = marginal_beta_joint(5, MixingSpec.two_point(-1.0, 1.5, 0.5))
        mv = exchangeable_from_labeled(labeled_mobius_from_joint(jt))
        for c in cons:
            assert abs(c.evaluate(mv)) < 1e-10

    def test_constraint_detects_non_summarized_distribution(self):
        cons = summarized_constraints(5)
        # a distribution concentrated on one collision class is exchangeable
        # but not summarized; its own constraint must not vanish
        groups = degree_collision_classes(5)
        u1, _u2 = groups[0]
        cd = ClassDistribution(5, {u1: Fraction(1)})
        mv = mobius_from_class_distribution(cd)
        hit = [c for c in cons if c.pair[0] in groups[0]]
        assert any(c.evaluate(mv) != 0 for c in hit)
