import gc
import hashlib
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
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
from exchnet.graphs import (
    LabeledNetwork,
    SizeCapError,
    class_size,
    dyads,
    enumerate_classes,
)
from exchnet.mobius import (
    InvalidParametersError,
    exchangeable_from_labeled,
    joint_from_labeled_mobius,
    labeled_from_exchangeable,
    labeled_mobius_from_joint,
)
from oracles import oracle_kernel, oracle_midpoint_lattice


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

    @pytest.mark.parametrize("p", [0, 1, Fraction(1, 3), 0.3])
    def test_exactness_follows_the_tie_probability(self, p):
        # an int or Fraction p gives exact containers, a float p float ones
        exact = not isinstance(p, float)
        m = len(dyads(4))
        mv = er_mobius(4, p)
        assert mv.is_exact == exact
        assert mv.z == {u: p**u.edge_count for u in enumerate_classes(4, True)}
        cd = er_class_distribution(4, p)
        assert cd.is_exact == exact
        one = 1 if exact else 1.0
        assert cd.q == {
            u: class_size(u, 4) * p**u.edge_count * (one - p) ** (m - u.edge_count)
            for u in enumerate_classes(4, True)
        }
        assert cd.to_joint().is_exact == exact

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "mu, sigma", [(0.0, 1.0), (-1.5, 2.5), (0.5, 0.0)], ids=["std", "wide", "flat"]
    )
    def test_gaussian_kind_is_the_product_logistic_law(self, n, mu, sigma):
        jt = marginal_beta_joint(n, MixingSpec.gaussian(mu, sigma))
        phi = Graphon.product_logistic(mu, sigma)
        # exchangeable, and the label expansion of the kernel moments bit for bit
        lm = labeled_mobius_from_joint(jt)
        exchangeable_from_labeled(lm)
        want = labeled_from_exchangeable(graphon_mobius(phi, n))
        assert jt.probs == joint_from_labeled_mobius(want).probs
        gaps = [graphon_z(phi, u).error for u in enumerate_classes(n, True)]
        assert jt.quadrature_gap == max(gaps) < 1e-3
        if sigma == 0.0:
            assert jt.quadrature_gap == 0.0


# sha256 of repr((probs, error field, is_exact)), recorded before the
# per-dyad product became one doubling array shared by every caller;
# gaussian-5 since Gaussian mixing became the product-logistic kernel's law
TABLE_DIGESTS = {
    "er-0-float": (lambda: er_joint(0, 0.3), "f989e0f14c9620560789b97f4c79ec7aeb41118f858458000cc2cd32fd31a102"),
    "er-0-exact": (lambda: er_joint(0, Fraction(1, 3)), "f250f819587ed3c598a994e056b31871f54190457628f51942b3ee8d1be3db23"),
    "er-1-float": (lambda: er_joint(1, 0.3), "f989e0f14c9620560789b97f4c79ec7aeb41118f858458000cc2cd32fd31a102"),
    "er-1-exact": (lambda: er_joint(1, Fraction(1, 3)), "f250f819587ed3c598a994e056b31871f54190457628f51942b3ee8d1be3db23"),
    "er-5-2/7": (lambda: er_joint(5, Fraction(2, 7)), "e4264300fc7597eccfa380be59dfec28b49b1ff02827350f3d210c4c8f753762"),
    "er-6-1/3": (lambda: er_joint(6, Fraction(1, 3)), "c1622d05d14afe1c850e689da7250e8195ac842864cdad46280e0cc4b6eb7189"),
    "er-6-0.3": (lambda: er_joint(6, 0.3), "ff574b47937ba080d5a4918f91fd1fbe304f19cfda8c86dd7971c1a72206928c"),
    "beta-5": (lambda: beta_joint(BetaSpec((0.5, -0.3, 0.8, 0.1, -1.2))), "20d8270a4269c2a1861fd589daa1dc18cad06c80ca19de5c742c5e97b367a421"),
    "two-point-5": (
        lambda: marginal_beta_joint(5, MixingSpec.two_point(-1.0, 1.5, 0.5)),
        "4dda4b7b721c7d293895bc689a78a59b01a592930f6590a015fd7c8fb9fa19a3",
    ),
    "point-mass-5": (
        lambda: marginal_beta_joint(5, MixingSpec.point_mass(0.4)),
        "10c04168b8704b7113cb6e7cdc7d94fd24611c969f497972addc5fb16a5fb143",
    ),
    "gaussian-5": (
        lambda: marginal_beta_joint(5, MixingSpec.gaussian(0.0, 1.0)),
        "a5bb2fc44620669bcc2219f9971ebfd9354b078a8873079541ddf7bbf7900733",
    ),
}


@pytest.mark.parametrize("case", sorted(TABLE_DIGESTS))
def test_joint_table_bytes(case):
    build, digest = TABLE_DIGESTS[case]
    jt = build()
    data = repr((jt.probs, jt.quadrature_gap, jt.is_exact)).encode()
    assert hashlib.sha256(data).hexdigest() == digest


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
        # Monte Carlo draws of the logistic product kernel driven by the
        # normal quantile land on the quadrature law of Gaussian mixing
        mu, sigma = 0.2, 0.8
        phi = Graphon.product_logistic(mu, sigma)
        est = graphon_z(phi, edge_class(), method="mc", samples=30000, seed=5)
        jt = marginal_beta_joint(3, MixingSpec.gaussian(mu, sigma))
        lm = labeled_mobius_from_joint(jt)
        assert abs(est.value - lm.z[1]) < 3 * est.error + jt.quadrature_gap


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

    def test_k6_quadrature_is_the_lattice_sum(self):
        # K6's first elimination joins six vertices, an r^5 output: answered
        # while that is at most 64^4 entries (r <= 27), refused past it
        phi = parse_graphon_name("product:logistic:0.0,1.0")
        grid = oracle_midpoint_lattice(oracle_kernel(("logistic", 0.0, 1.0)), 4)
        pairs = list(itertools.combinations(range(6), 2))
        want = sum(
            math.prod(grid[x[a]][x[b]] for a, b in pairs)
            for x in itertools.product(range(4), repeat=6)
        ) / 4**6
        got = graphon_z(phi, complete_class(6), r=4).value
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(SizeCapError, match="lower the resolution"):
            graphon_z(phi, complete_class(6), r=28)

    def test_mobius_at_six_nodes_refuses_all_but_constant_kernels(self, monkeypatch):
        # graphon_mobius takes no resolution: at r = 64 K6 is past the cap,
        # so a kernel that is not constant is refused before any class
        calls = []
        real = genmodels._quadrature_value
        monkeypatch.setattr(
            genmodels, "_quadrature_value", lambda *a: calls.append(a) or real(*a)
        )
        phi = parse_graphon_name("product:logistic:0.0,1.0")
        with pytest.raises(SizeCapError, match=r"n=6.*r = 64") as err:
            graphon_mobius(phi, 6)
        assert "lower the resolution" not in str(err.value)
        assert calls == []
        mv = graphon_mobius(Graphon.constant(0.3), 6)
        assert mv.z[complete_class(6)] == 0.3**15
        assert len(calls) == len(enumerate_classes(6, True))

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

    def test_mc_past_the_cap_draws_nothing(self):
        calls = []
        phi = Graphon(lambda a, b: calls.append((a, b)) or 0.5, "counted")
        calls.clear()  # the constructor's symmetry spot check
        with pytest.raises(SizeCapError, match="samples <= 1000000"):
            graphon_z(
                phi, edge_class(), method="mc",
                samples=genmodels.MAX_MC_SAMPLES + 1, seed=1,
            )
        assert calls == []

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: marginal_beta_joint(3, MixingSpec.gaussian(math.inf, 1)),
                ValueError,
                "mu and sigma must be finite",
            ),
            (
                lambda: MixingSpec.gaussian(0, 1).atoms(),
                ValueError,
                "kind 'gaussian' has no finite atom list",
            ),
            (
                lambda: marginal_beta_joint(3, MixingSpec("uniform", (0.0, 1.0))),
                ValueError,
                "unknown mixing kind 'uniform'",
            ),
            (lambda: er_joint(7, 0.5), SizeCapError, "joint tables support n <= 6"),
            (
                lambda: beta_joint(BetaSpec((0.0,) * 7)),
                SizeCapError,
                "joint tables support n <= 6",
            ),
            (
                lambda: marginal_beta_joint(6, MixingSpec.point_mass(0.0)),
                SizeCapError,
                "mixing joints support n <= 5",
            ),
            (lambda: Graphon(lambda a, b: a, "asym"), ValueError, "kernel not symmetric at"),
            (
                lambda: Graphon(lambda a, b: a + b + 2, "high"),
                ValueError,
                "kernel value 2.0 outside \\[0, 1\\]",
            ),
            (lambda: Graphon.from_grid([[0.5, 0.5]]), ValueError, "grid must be square"),
            (
                lambda: graphon_z(Graphon.constant(0.3), edge_class(), method="simpson"),
                ValueError,
                "unknown method 'simpson'",
            ),
        ],
        ids=["gaussian-infinite-mu", "gaussian-atoms", "unknown-kind", "er-joint-n7",
             "beta-joint-n7", "mixing-joint-n6", "asymmetric-kernel", "kernel-above-1",
             "grid-not-square", "unknown-method"],
    )
    def test_library_refusal(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

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


# each kernel kind by its library constructor and by the scalar oracle
LATTICE_KERNELS = {
    "const": (lambda: parse_graphon_name("const:0.3"), ("const", 0.3)),
    "logistic": (
        lambda: parse_graphon_name("product:logistic:0.0,1.0"), ("logistic", 0.0, 1.0)
    ),
    "logistic-shifted": (
        lambda: Graphon.product_logistic(-1.5, 2.5), ("logistic", -1.5, 2.5)
    ),
    "logistic-flat": (
        lambda: parse_graphon_name("product:logistic:0.3,0.0"), ("logistic", 0.3, 0.0)
    ),
    "grid": (
        lambda: Graphon.from_grid([[0.9, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.7]]),
        ("grid", [[0.9, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.7]]),
    ),
    "grid-1": (lambda: Graphon.from_grid([[0.4]]), ("grid", [[0.4]])),
    # cells that interpolate to -0.0 or to just above 1 read as 0.0 and 1.0
    "grid-signed": (
        lambda: Graphon.from_grid([[-0.0, -0.0, 1.0], [-0.0, -0.0, 1.0], [1.0, 1.0, 1.0]]),
        ("grid", [[-0.0, -0.0, 1.0], [-0.0, -0.0, 1.0], [1.0, 1.0, 1.0]]),
    ),
}


@pytest.mark.parametrize("r", [1, 2, 7, 64, 200])
@pytest.mark.parametrize("kind", sorted(LATTICE_KERNELS))
def test_midpoint_grid_matches_per_cell_oracle(kind, r):
    # bitwise, -0.0 included; r = 200 is evaluated in two blocks of rows
    build, spec = LATTICE_KERNELS[kind]
    want = np.array(oracle_midpoint_lattice(oracle_kernel(spec), r))
    assert build().midpoint_grid(r).tobytes() == want.tobytes()


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

    def test_only_small_grids_are_kept_and_only_with_their_kernel(self):
        phi = Graphon.from_grid(self.GRID)
        big = phi.midpoint_grid(128)  # past graphon_z's default r = 64
        assert big is not phi.midpoint_grid(128) and not big.flags.writeable
        phi.midpoint_grid(64)
        kernel = weakref.ref(phi)
        del phi
        gc.collect()
        assert kernel() is None

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


class TestEinsumPaths:
    @pytest.mark.parametrize(
        "spec", ["ab,bc,b->ac", "ab,ac,ad,a->bcd", "abc,ab,bc,b->ac", "ab,ab,a->b"]
    )
    def test_stored_path_contracts_bitwise_as_a_fresh_search(self, spec):
        rng = np.random.default_rng(7)
        ops = [rng.random((16,) * len(sub)) for sub in spec.split("->")[0].split(",")]
        path = genmodels._einsum_path(spec, tuple(op.shape for op in ops))
        assert list(path) == np.einsum_path(spec, *ops, optimize=True)[0]
        got = np.einsum(spec, *ops, optimize=path)
        assert np.array_equal(got, np.einsum(spec, *ops, optimize=True))

    def test_cache_is_bounded(self):
        assert genmodels._einsum_path.cache_info().maxsize is not None


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

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -0.25, 1.5])
    def test_level_outside_the_unit_interval_is_refused(self, eta):
        with pytest.raises(InvalidParametersError, match=r"outside \[0, 1\]"):
            er_characterization_diagnostic(er_mobius(4, Fraction(1, 4)), eta)

    def test_product_kernel_is_flagged(self):
        uv = Graphon(lambda a, b: a * b, "uv")
        mv = graphon_mobius(uv, 4)
        diag = er_characterization_diagnostic(mv, 0.25)
        assert diag.flags_dependence()
        assert diag.residual_two_star > 0.01
