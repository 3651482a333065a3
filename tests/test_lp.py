"""The phase-one LP: the certified float basis against pure exact Bland.

``solve_feasibility`` on rational data pivots in floats and proves the final
basis in rationals; ``_phase_one(..., exact=True)`` pivots in Fractions all
the way.  Both must give the same verdict, residual and point, and every
exact answer is re-checked here in Fraction arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchnet import extendability, lp
from exchnet.estimation import exch_mle
from exchnet.extendability import _sigma_rows, dissociated_extendable_check
from exchnet.genmodels import er_mobius
from exchnet.graphs import InvariantError, LabeledNetwork, enumerate_classes
from exchnet.lp import (
    FLOAT_EPS,
    _bland,
    _exact_from_basis,
    _phase_one,
    _initial_tableau,
    maximize,
    solve_feasibility,
)
from exchnet.mobius import MobiusVector
from oracles import oracle_block_moments, oracle_lp_max

PAW = LabeledNetwork.from_edges(4, [(1, 4), (2, 3), (2, 4), (3, 4)])


def extension_lp(mv, m):
    """The rows extendable_check hands to the LP: moments, then normalization."""
    targets, classes_m, rows = _sigma_rows(m, mv.n)
    a_rows = [list(r) for r in rows] + [[Fraction(1)] * len(classes_m)]
    b = [mv.z[u] for u in targets] + [Fraction(1)]
    return a_rows, b


def bad_mv():
    """Certain ties with no triangle at n = 3: not a moment vector at all."""
    bad = dict(er_mobius(3, Fraction(1)).z)
    tri = [u for u in bad if u.edge_count == 3][0]
    bad[tri] = Fraction(0)
    return MobiusVector(3, bad)


def assert_exactly_certified(a_rows, b, res):
    """A feasible x solves A x = b, x >= 0 in Fractions; an infeasible
    verdict's dual is a Farkas certificate and its value is the residual."""
    assert isinstance(res.residual, Fraction)
    if res.feasible:
        assert res.residual == 0
        assert all(isinstance(v, Fraction) and v >= 0 for v in res.x)
        for row, bi in zip(a_rows, b):
            assert sum(Fraction(a) * v for a, v in zip(row, res.x)) == bi
    else:
        y = res.dual
        assert all(isinstance(v, Fraction) for v in y)
        for j in range(len(a_rows[0])):
            assert sum(yi * Fraction(row[j]) for yi, row in zip(y, a_rows)) <= 0
        yb = sum(yi * Fraction(bi) for yi, bi in zip(y, b))
        assert yb > 0
        assert yb == res.residual


def assert_same_answer(got, want):
    assert got.feasible == want.feasible
    assert got.residual == want.residual
    assert got.x == want.x


CASES = (
    [(f"er4-{p}-m{m}", er_mobius(4, p), m)
     for m in (5, 6)
     for p in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5))]
    + [("er5-1/5-m6", er_mobius(5, Fraction(1, 5)), 6),
       ("paw-mle-m5", exch_mle(PAW), 5),
       ("bad-mv-m3", bad_mv(), 3)]
)


@pytest.mark.parametrize("mv,m", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_certified_equals_exact_bland(mv, m):
    a_rows, b = extension_lp(mv, m)
    got = solve_feasibility(a_rows, b)
    want = _phase_one(a_rows, b, exact=True)
    assert_same_answer(got, want)
    # the float pass took the exact pass's path, so the bases agree too
    assert got.pivots == want.pivots
    assert got.worst_row == want.worst_row
    assert got.dual == want.dual
    assert_exactly_certified(a_rows, b, got)


def test_verdicts_of_the_cases():
    verdicts = {name: solve_feasibility(*extension_lp(mv, m)).feasible
                for name, mv, m in CASES}
    assert not verdicts.pop("paw-mle-m5")
    assert not verdicts.pop("bad-mv-m3")
    assert all(verdicts.values())


class TestForcedFallback:
    """_exact_from_basis handed a basis that is not optimal."""

    def test_artificial_basis_continues_by_exact_pivoting(self):
        a_rows, b = extension_lp(er_mobius(4, Fraction(1, 2)), 5)
        start = [len(a_rows[0]) + i for i in range(len(a_rows))]
        got = _exact_from_basis(a_rows, b, start, 0)
        want = _phase_one(a_rows, b, exact=True)
        assert got.pivots == want.pivots > 0
        assert_same_answer(got, want)
        assert_exactly_certified(a_rows, b, got)

    def test_reduced_cost_below_tolerance_continues_exactly(self):
        # x1 + x2 = 1, d x2 = d: the float pass stops at x = (1, 0) with
        # reduced cost -d on x2, above -FLOAT_EPS; one exact pivot more
        # reaches the only solution (0, 1)
        d = Fraction(1, 10**12)
        a_rows, b = [[1, 1], [0, d]], [Fraction(1), d]
        got = solve_feasibility(a_rows, b)
        assert got.feasible
        assert got.x == [0, 1]
        assert_same_answer(got, _phase_one(a_rows, b, exact=True))

    def test_ratios_merged_by_rounding_restart_exactly(self):
        # x = 1 + d and x = 1: the float ratio test takes 1 + d and 1 as a
        # tie and ends on a basis with an artificial at -d
        d = Fraction(1, 10**12)
        a_rows, b = [[1], [1]], [1 + d, Fraction(1)]
        got = solve_feasibility(a_rows, b)
        assert not got.feasible
        assert got.residual == d
        assert_same_answer(got, _phase_one(a_rows, b, exact=True))
        assert_exactly_certified(a_rows, b, got)

    def test_artificial_with_negative_reduced_cost_continues(self):
        # -2 x = 1, x = 1; the basis {a0, x} has value 3 and the dual
        # y = (1, 2), so the nonbasic a1 has reduced cost 1 - 2 < 0.  The
        # optimum is x = 0 with value 2.
        a_rows, b = [[-2], [1]], [Fraction(1), Fraction(1)]
        got = _exact_from_basis(a_rows, b, [1, 0], 0)
        assert got.residual == 2
        assert_same_answer(got, _phase_one(a_rows, b, exact=True))
        assert_exactly_certified(a_rows, b, got)

    def test_infeasible_start_restarts_from_artificials(self):
        # x1 + x2 = 1, x1 - x2 = 1/2; the basis {x1, a2} gives a2 = -1/2
        a_rows = [[1, 1], [1, -1]]
        b = [Fraction(1), Fraction(1, 2)]
        got = _exact_from_basis(a_rows, b, [0, 3], 0)
        assert got.feasible
        assert got.x == [Fraction(3, 4), Fraction(1, 4)]

    def test_singular_start_restarts_from_artificials(self):
        a_rows, b = extension_lp(exch_mle(PAW), 5)
        singular = [0] * len(a_rows)  # one column in every position
        got = _exact_from_basis(a_rows, b, singular, 0)
        assert_same_answer(got, _phase_one(a_rows, b, exact=True))
        assert_exactly_certified(a_rows, b, got)


def test_negative_rhs_rows_are_signed():
    # -x1 = -1/3, x1 + x2 = 1: feasible at (1/3, 2/3); the dual is in the
    # caller's row signs
    a_rows = [[-1, 0], [1, 1]]
    b = [Fraction(-1, 3), Fraction(1)]
    res = solve_feasibility(a_rows, b)
    assert res.x == [Fraction(1, 3), Fraction(2, 3)]
    # -x1 = -2, x1 + x2 = 1: infeasible
    b = [Fraction(-2), Fraction(1)]
    res = solve_feasibility(a_rows, b)
    assert not res.feasible
    assert_exactly_certified(a_rows, b, res)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    a_rows = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        # b = A x0 for some x0 >= 0, so that feasible systems are common
        x0 = [draw(st.fractions(min_value=0, max_value=2, max_denominator=3))
              for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in a_rows]
    else:
        b = [draw(rationals) for _ in range(m)]
    return a_rows, b


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_random_systems_match_exact_bland(system):
    a_rows, b = system
    got = solve_feasibility(a_rows, b)
    want = _phase_one(a_rows, b, exact=True)
    assert got.feasible == want.feasible
    # the phase-one optimum is unique even where the optimal basis is not
    assert got.residual == want.residual
    assert_exactly_certified(a_rows, b, got)


def test_float_data_stay_on_the_float_pass():
    res = solve_feasibility([[0.5, 0.25], [1.0, 1.0]], [0.375, 1.0])
    assert res.feasible
    assert all(isinstance(v, float) for v in res.x)
    assert abs(0.5 * res.x[0] + 0.25 * res.x[1] - 0.375) < 1e-12


def test_one_float_coefficient_makes_the_float_pass():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    res = solve_feasibility([[half, quarter], [1, 1]], [0.375, Fraction(1)])
    assert res.feasible
    assert all(isinstance(v, float) for v in res.x)
    assert abs(0.5 * res.x[0] + 0.25 * res.x[1] - 0.375) < 1e-12


@pytest.fixture(scope="module")
def cycling_lp():
    """The rows of a dissociated extension at m = 6 on which the first float
    pass cycles: it takes rounding noise of ~1e-9 as pivots.  The moments
    are those at n = 3 of two blocks of weight 1/2, with no ties inside the
    first block and certain ties elsewhere."""
    one = Fraction(1)
    z = oracle_block_moments(
        enumerate_classes(3, True), (one / 2, one / 2), ((0, one), (one, one))
    )
    seen = []

    def spy(a_rows, b):
        seen.append((a_rows, b))
        return solve_feasibility(a_rows, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extendability, "solve_feasibility", spy)
        dissociated_extendable_check(MobiusVector(3, z), 6)
    (rows,) = seen
    return rows


class TestNoisePivots:
    def test_float_pivots_on_noise_cycle(self, cycling_lp):
        tab, basis, _ = _initial_tableau(*cycling_lp, float)
        assert _bland(tab, basis, FLOAT_EPS, FLOAT_EPS)[1]

    def test_float_basis_is_certified(self, cycling_lp):
        res = solve_feasibility(*cycling_lp)
        assert res.feasible
        assert_exactly_certified(*cycling_lp, res)

    def test_float_data(self, cycling_lp):
        a_rows = [[float(v) for v in row] for row in cycling_lp[0]]
        b = [float(v) for v in cycling_lp[1]]
        res = solve_feasibility(a_rows, b)
        assert res.feasible and all(isinstance(v, float) for v in res.x)
        for row, bi in zip(a_rows, b):
            assert abs(sum(a * v for a, v in zip(row, res.x)) - bi) <= 1e-9


def report_cycles(monkeypatch):
    """Make every float pass of ``_bland`` report a repeated basis."""
    real = lp._bland

    def cycling(tab, basis, eps, pivot_eps):
        return real(tab, basis, eps, pivot_eps)[0], eps == FLOAT_EPS

    monkeypatch.setattr(lp, "_bland", cycling)


def test_cycling_float_pass_on_rational_data_is_decided_exactly(monkeypatch):
    report_cycles(monkeypatch)
    a_rows, b = extension_lp(exch_mle(PAW), 5)
    res = solve_feasibility(a_rows, b)
    assert not res.feasible
    assert_exactly_certified(a_rows, b, res)


def test_cycling_float_pass_on_float_data_raises(monkeypatch):
    report_cycles(monkeypatch)
    with pytest.raises(InvariantError):
        solve_feasibility([[0.5, 0.25], [1.0, 1.0]], [0.375, 1.0])


small_ints = st.integers(-3, 3)


@st.composite
def bounded_lps(draw):
    """max c.x over x >= 0 with A x = b and sum x = s: small integer data,
    often degenerate (a duplicated row, zero right-hand sides)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    a_rows = [[draw(small_ints) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        a_rows.append(list(a_rows[0]))
    kind = draw(st.sampled_from(["feasible", "zero", "any"]))
    if kind == "feasible":
        x0 = [draw(st.integers(0, 2)) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in a_rows]
    elif kind == "zero":
        b = [0] * len(a_rows)
    else:
        b = [draw(small_ints) for _ in a_rows]
    a_rows.append([1] * n)
    b.append(draw(st.integers(0, 3)))
    return a_rows, b, [draw(small_ints) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(bounded_lps())
def test_maximize_equals_vertex_enumeration(lp_data):
    a_rows, b, c = lp_data
    want = oracle_lp_max(a_rows, b, c)
    got = maximize([[float(v) for v in row] for row in a_rows],
                   [float(v) for v in b], [float(v) for v in c])
    assert (got is None) == (want is None)
    if got is not None:
        assert abs(got.value - float(want)) <= 1e-9
        assert got.x.min() >= -1e-12
        for row, bi in zip(a_rows, b):
            assert abs(sum(a * v for a, v in zip(row, got.x)) - bi) <= 1e-9
        # the objective falls by the reduced cost per unit of a column
        assert got.reduced.min() >= -1e-9
        assert abs(sum(cj * v for cj, v in zip(c, got.x)) - got.value) <= 1e-9


def test_maximize_starts_from_the_feasibility_pass():
    # the same phase one as solve_feasibility's float pass: its pivots are
    # the first ones, so an LP whose phase one ends optimal adds none
    a_rows, b = [[1.0, 1.0, 1.0]], [1.0]
    first = solve_feasibility(a_rows, b)
    res = maximize(a_rows, b, [1.0, 0.0, 0.0])
    assert first.x == [1.0, 0.0, 0.0]
    assert res.pivots == first.pivots and res.value == 1.0


def test_maximize_of_an_unbounded_lp_raises():
    with pytest.raises(InvariantError):
        maximize([[1.0, -1.0]], [0.0], [1.0, 0.0])
