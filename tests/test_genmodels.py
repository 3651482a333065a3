import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchnet import genmodels
from exchnet.counting import (
    complete_class,
    cycle_class,
    edge_class,
    star_class,
    triangle_class,
)
from exchnet.dependence import dissociated_check
from exchnet.estimation import summarized_check
from exchnet.genmodels import (
    SYMMETRY_TOL,
    BetaSpec,
    Graphon,
    MixingSpec,
    beta_joint,
    beta_sample,
    er_characterization_diagnostic,
    er_class_distribution,
    er_joint,
    er_mobius,
    graphon_mobius,
    graphon_sample,
    graphon_z,
    marginal_beta_joint,
    marginal_beta_sample,
    parse_graphon_name,
    parse_graphon_text,
)
from exchnet.graphs import LabeledNetwork, SizeCapError, dyads
from exchnet.mobius import InvalidParametersError, labeled_mobius_from_joint


def _is_exchangeable(jt, tol=1e-12) -> bool:
    n = jt.n
    swap = {v: v for v in range(1, n + 1)}
    swap[1], swap[2] = 2, 1
    cycle = {v: v % n + 1 for v in range(1, n + 1)}
    for gen in (swap, cycle):
        for mask in range(len(jt.probs)):
            x = LabeledNetwork.from_mask(n, mask)
            if abs(float(jt.probs[mask] - jt.probs[x.permute(gen).mask])) > tol:
                return False
    return True


class TestIndependentTies:
    def test_moments_are_powers(self):
        p = Fraction(2, 7)
        mv = er_mobius(4, p)
        for u, v in mv.in_order():
            assert v == p**u.edge_count

    def test_zero_probability_is_point_mass_on_empty(self):
        jt = er_joint(3, Fraction(0))
        assert jt.probs[0] == 1
        assert sum(jt.probs[1:]) == 0

    def test_half_is_uniform(self):
        jt = er_joint(3, Fraction(1, 2))
        assert all(p == Fraction(1, 8) for p in jt.probs)

    def test_class_distribution_matches_joint(self):
        p = Fraction(1, 3)
        cd = er_class_distribution(4, p)
        jt = er_joint(4, p)
        assert cd.to_joint().probs == jt.probs


class TestBetaModel:
    def test_equal_propensities_reduce_to_independence(self):
        b = 0.4
        jt = beta_joint(BetaSpec((b, b, b, b)))
        p = math.exp(2 * b) / (1 + math.exp(2 * b))
        want = er_joint(4, p)
        assert max(
            abs(a - c) for a, c in zip(jt.probs, want.probs)
        ) < 1e-15

    def test_zero_propensities_give_uniform(self):
        jt = beta_joint(BetaSpec((0.0, 0.0, 0.0)))
        assert all(abs(p - 1 / 8) < 1e-15 for p in jt.probs)

    def test_equal_degree_sequences_equal_probability(self):
        spec = BetaSpec((0.5, -0.3, 0.8, 0.1))
        jt = beta_joint(spec)
        by_degrees = {}
        for mask in range(64):
            g = LabeledNetwork.from_mask(4, mask)
            key = g.degrees()
            if key in by_degrees:
                assert abs(jt.probs[mask] - by_degrees[key]) < 1e-15
            else:
                by_degrees[key] = jt.probs[mask]


class TestMarginalBeta:
    def test_point_mass_equals_constant_beta(self):
        jt = marginal_beta_joint(4, MixingSpec.point_mass(0.7))
        want = beta_joint(BetaSpec((0.7,) * 4))
        assert max(abs(a - b) for a, b in zip(jt.probs, want.probs)) < 1e-15

    def test_two_point_all_three_properties(self):
        jt = marginal_beta_joint(4, MixingSpec.two_point(-1.0, 1.5, 0.5))
        assert _is_exchangeable(jt)
        assert dissociated_check(labeled_mobius_from_joint(jt)).holds
        assert summarized_check(jt).holds

    def test_edge_moment_is_average_tie_probability(self):
        mix = MixingSpec.two_point(-1.0, 1.5, 0.25)
        jt = marginal_beta_joint(4, mix)
        lm = labeled_mobius_from_joint(jt)
        atoms = mix.atoms()
        # direct double atom sum of the logistic link
        want = sum(
            wa * wb * (math.exp(ba + bb) / (1 + math.exp(ba + bb)))
            for ba, wa in atoms
            for bb, wb in atoms
        )
        assert abs(lm.z[1] - want) < 1e-14

    def test_gaussian_kind_is_seeded_and_reports_error(self):
        mix = MixingSpec.gaussian(0.0, 1.0, 200, seed=42)
        jt1 = marginal_beta_joint(3, mix)
        jt2 = marginal_beta_joint(3, mix)
        assert jt1.probs == jt2.probs
        assert jt1.mc_std_error is not None and jt1.mc_std_error > 0


class TestGraphonSampling:
    def test_all_ones_kernel_gives_complete_graph(self):
        phi = Graphon.constant(1.0)
        for seed in range(5):
            assert graphon_sample(phi, 4, seed) == LabeledNetwork.complete(4)

    def test_determinism_under_seed(self):
        phi = parse_graphon_name("product:logistic:0.0,1.0")
        a = graphon_sample(phi, 5, 99)
        b = graphon_sample(phi, 5, 99)
        assert a == b

    def test_constant_kernel_edge_frequency(self):
        eta = 0.35
        phi = Graphon.constant(eta)
        draws = 10000
        edges = 0
        for seed in range(draws):
            edges += graphon_sample(phi, 3, seed).edge_count
        total = draws * 3
        se = math.sqrt(eta * (1 - eta) / total)
        assert abs(edges / total - eta) < 3 * se

    def test_product_form_matches_marginal_beta_moments(self):
        # the logistic product kernel driven by the normal quantile samples
        # the same model as Gaussian propensity mixing
        mu, sigma = 0.2, 0.8
        phi = Graphon.product_logistic(mu, sigma)
        est = graphon_z(phi, edge_class(), method="mc", samples=30000, seed=5)
        jt = marginal_beta_joint(3, MixingSpec.gaussian(mu, sigma, 20000, seed=11))
        lm = labeled_mobius_from_joint(jt)
        tol = 3 * (est.error + (jt.mc_std_error or 0) * 8)
        assert abs(est.value - lm.z[1]) < max(tol, 0.01)


def _symmetric_grid(r: int, upper: list) -> list:
    grid = [[0.0] * r for _ in range(r)]
    cells = iter(upper)
    for i in range(r):
        for j in range(i, r):
            grid[i][j] = grid[j][i] = next(cells)
    return grid


symmetric_grids = st.integers(1, 6).flatmap(
    lambda r: st.lists(
        st.floats(0, 1), min_size=r * (r + 1) // 2, max_size=r * (r + 1) // 2
    ).map(lambda upper: _symmetric_grid(r, upper))
)


@settings(max_examples=60, deadline=None)
@given(symmetric_grids, st.floats(0, 1), st.floats(0, 1))
def test_grid_kernel_is_symmetric(grid, u, v):
    # bilinear interpolation rounds differently in the two orders, so the
    # check is to the tolerance, not bitwise
    phi = Graphon.from_grid(grid)
    assert abs(phi(u, v) - phi(v, u)) <= SYMMETRY_TOL


@settings(max_examples=60, deadline=None)
@given(symmetric_grids, st.floats(0, 1), st.floats(0, 1))
def test_grid_kernel_is_bitwise_symmetric(grid, u, v):
    phi = Graphon.from_grid(grid)
    assert phi(u, v) == phi(v, u)


@settings(max_examples=30, deadline=None)
@given(symmetric_grids.filter(lambda g: len(g) > 1), st.data())
def test_asymmetric_grid_is_refused(grid, data):
    i, j = data.draw(
        st.tuples(st.integers(0, len(grid) - 1), st.integers(0, len(grid) - 1))
        .filter(lambda ij: ij[0] != ij[1])
    )
    grid[i][j] = (grid[j][i] + 0.5) % 1.0
    with pytest.raises(ValueError, match="symmetric"):
        Graphon.from_grid(grid)


class TestSampleNodeCap:
    """Every sampler draws one number per dyad, so time and memory grow as
    n^2; n past ``MAX_SAMPLE_NODES`` is refused."""

    @pytest.mark.parametrize(
        "draw",
        [
            lambda n: graphon_sample(Graphon.constant(0.5), n, 0),
            lambda n: beta_sample(BetaSpec((0.0,) * n), 0),
            lambda n: marginal_beta_sample(n, MixingSpec.point_mass(0.0), 0),
        ],
        ids=["graphon", "beta", "marginal-beta"],
    )
    def test_one_past_the_cap_is_size_cap(self, draw):
        with pytest.raises(SizeCapError):
            draw(genmodels.MAX_SAMPLE_NODES + 1)

    def test_a_sample_caches_no_dyad_list(self):
        # a cached dyad list at n = 1500 holds about 100 MB for the process
        before = dyads.cache_info()
        assert graphon_sample(Graphon.constant(0.5), 41, 0).n == 41
        assert dyads.cache_info() == before


class TestGraphonMoments:
    def test_constant_kernel_exact(self):
        phi = Graphon.constant(0.3)
        for u in (edge_class(), star_class(2), cycle_class(4), complete_class(4)):
            est = graphon_z(phi, u)
            assert est.value == 0.3**u.edge_count
            assert est.error == 0.0

    def test_product_kernel_closed_forms(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        est_edge = graphon_z(uv, edge_class())
        assert est_edge.value == pytest.approx(0.25, abs=1e-12)
        est_star = graphon_z(uv, star_class(2))
        assert abs(est_star.value - 1 / 12) <= max(est_star.error, 1e-5)

    def test_quadrature_error_shrinks_with_resolution(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        coarse = graphon_z(uv, star_class(2), r=16)
        fine = graphon_z(uv, star_class(2), r=128)
        assert abs(fine.value - 1 / 12) < abs(coarse.value - 1 / 12)

    def test_mc_error_shrinks_with_samples(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        small = graphon_z(uv, edge_class(), method="mc", samples=2000, seed=3)
        big = graphon_z(uv, edge_class(), method="mc", samples=6000, seed=3)
        assert big.error < small.error

    def test_grid_kernel_round_trip(self, tmp_path):
        text = "3\n0.1 0.2 0.3\n0.2 0.4 0.5\n0.3 0.5 0.9\n"
        phi = parse_graphon_text(text)
        assert phi(0.0, 0.0) == pytest.approx(0.1)
        assert phi(1.0, 1.0) == pytest.approx(0.9)
        assert phi(0.3, 0.8) == phi(0.8, 0.3)

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ValueError):
            parse_graphon_text("2\n0.1 0.2\n0.3 0.4\n")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_mc_needs_a_sample(self, samples):
        with pytest.raises(InvalidParametersError, match="samples"):
            graphon_z(
                Graphon.constant(0.3), edge_class(), method="mc",
                samples=samples, seed=1,
            )

    def test_negative_sigma_refused_zero_is_constant(self):
        with pytest.raises(ValueError, match="sigma"):
            parse_graphon_name("product:logistic:0.5,-1.0")
        flat = parse_graphon_name("product:logistic:0.5,0.0")
        assert flat(0.1, 0.9) == flat(0.5, 0.5) == 1 / (1 + math.exp(-1.0))


class TestKernelGridCache:
    GRID = [[0.9, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.7]]

    def test_cached_grid_is_read_only(self):
        grid = Graphon.from_grid(self.GRID).midpoint_grid(8)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5

    def test_grids_are_built_once_per_resolution(self):
        phi = Graphon.from_grid(self.GRID)
        assert phi.midpoint_grid(8) is phi.midpoint_grid(8)
        assert phi.midpoint_grid(4).shape == (4, 4)

    def test_same_resolution_kernels_keep_their_own_grids(self):
        low, high = [[0.2, 0.4], [0.4, 0.6]], [[0.7, 0.1], [0.1, 0.3]]
        a, b = Graphon.from_grid(low), Graphon.from_grid(high)
        assert a.description == b.description == "grid:2"
        za, zb = graphon_z(a, star_class(2)), graphon_z(b, star_class(2))
        assert za != zb
        assert za == graphon_z(Graphon.from_grid(low), star_class(2))
        assert zb == graphon_z(Graphon.from_grid(high), star_class(2))

    def test_mobius_matches_fresh_kernel_bitwise(self):
        phi = Graphon.from_grid(self.GRID)
        warm = graphon_mobius(phi, 4)
        again = graphon_mobius(phi, 4)
        fresh = graphon_mobius(Graphon.from_grid(self.GRID), 4)
        assert warm.z == again.z == fresh.z

    def test_named_kernel_is_built_once(self):
        phi = parse_graphon_name("product:logistic:0.0,1.0")
        assert parse_graphon_name("product:logistic:0.0,1.0") is phi
        assert parse_graphon_name("product:logistic:0.0,2.0") is not phi


class TestKernelJointsAreDissociated:
    def test_quadrature_moments_factor_over_components(self):
        from exchnet.mobius import labeled_from_exchangeable

        uv = Graphon(lambda a, b: a * b, "uv")
        mv = graphon_mobius(uv, 4)
        lm = labeled_from_exchangeable(mv)
        assert dissociated_check(lm).holds
        from exchnet.mobius import validate_mobius

        assert validate_mobius(mv).ok


class TestErDiagnostic:
    def test_er_moments_are_clean(self):
        diag = er_characterization_diagnostic(er_mobius(4, Fraction(1, 4)), 0.25)
        assert diag.max_deviation == 0
        assert not diag.flags_dependence()

    def test_constant_kernel_is_clean(self):
        mv = graphon_mobius(Graphon.constant(0.25), 4)
        diag = er_characterization_diagnostic(mv, 0.25)
        assert diag.residual_two_star == 0
        assert diag.max_deviation == 0

    def test_product_kernel_is_flagged(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        mv = graphon_mobius(uv, 4)
        diag = er_characterization_diagnostic(mv, 0.25)
        assert diag.flags_dependence()
        assert diag.residual_two_star > 0.01
