"""The phase-one LP: the certified float basis against pure exact Bland.

``solve_feasibility`` on rational data pivots in floats and proves the final
basis in rationals, continuing by exact Bland pivots from that basis, or
from the artificial one, when the proof fails; the oracle
``oracle_exact_bland`` pivots in Fractions all the way.  Both must give the
same verdict, residual and point, and every exact answer is re-checked here
in Fraction arithmetic.
"""

import hashlib
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchnet import extendability, lp
from exchnet.estimation import dissociated_mle, exch_mle
from exchnet.extendability import _sigma_rows, dissociated_extendable_check
from exchnet.genmodels import er_mobius
from exchnet.graphs import InvariantError, LabeledNetwork, enumerate_classes
from exchnet.lp import (
    FLOAT_EPS,
    _bland,
    _exact_from_basis,
    _initial_tableau,
    _Row,
    _Scaled,
    _solve,
    maximize,
    solve_feasibility,
)
from exchnet.mobius import MobiusVector
from oracles import (
    oracle_block_moments,
    oracle_exact_bland,
    oracle_lp_max,
    oracle_solve,
)

PAW = LabeledNetwork.from_edges(4, [(1, 4), (2, 3), (2, 4), (3, 4)])


def extension_lp(mv, m):
    """The rows extendable_check hands to the LP: moments, then normalization."""
    targets, _, rows = _sigma_rows(m, mv.n)
    a_rows = [list(r) for r in rows]
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


def assert_same_path(got, want):
    """The same answer by as many pivots, so from the same basis: the same
    dual and worst row too."""
    assert_same_answer(got, want)
    assert got.pivots == want.pivots
    assert got.worst_row == want.worst_row
    assert got.dual == want.dual


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
    # the float pass took the exact pass's path, so the bases agree too
    assert_same_path(got, oracle_exact_bland(a_rows, b))
    assert_exactly_certified(a_rows, b, got)


# solve_feasibility's pivots on ER moments, recorded before the float pivot
# loop ran on whole tableaus and a Python ratio test; where the exact Bland
# reference is rerun (m <= 6, ER(5, 1/2) taking about 17 s) it takes the
# same pivots, and at m = 7 it takes about 45 s, so there the pin stands alone
PINNED_PIVOTS = [
    (4, Fraction(1, 3), 5, 27),
    (4, Fraction(2, 5), 5, 32),
    (4, Fraction(1, 3), 6, 85),
    (5, Fraction(1, 3), 6, 502),
    (5, Fraction(1, 2), 6, 953),
    (4, Fraction(1, 3), 7, 286),
    (4, Fraction(1, 2), 7, 655),
    (4, Fraction(2, 5), 7, 484),
]


@pytest.mark.parametrize(
    "n,p,m,pivots", PINNED_PIVOTS, ids=[f"er{n}-{p}-m{m}" for n, p, m, _ in PINNED_PIVOTS]
)
def test_pivot_counts_on_er_moments_are_pinned(n, p, m, pivots):
    a_rows, b = extension_lp(er_mobius(n, p), m)
    got = solve_feasibility(a_rows, b)
    assert got.feasible and got.pivots == pivots
    if m <= 6:
        assert oracle_exact_bland(a_rows, b).pivots == pivots


def float_pass_digest(run) -> str:
    """sha256 of the pivots, final basis and tableau bytes of every float
    ``_bland`` pass that run() makes, in order."""
    real = lp._bland
    digest = hashlib.sha256()

    def spy(tab, basis, *rule):
        out = real(tab, basis, *rule)
        if tab.dtype != object:
            digest.update(repr((out[0], list(basis))).encode())
            digest.update(tab.tobytes())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_bland", spy)
        run()
    return digest.hexdigest()


TWO_K2 = LabeledNetwork.from_edges(4, [(1, 2), (3, 4)])


def extend_lp(mv, m):
    return lambda: solve_feasibility(*extension_lp(mv, m))


# every float pass bit for bit, signed zeros included, recorded before the
# float pivot lost its factor copy and ``_bland`` took a bitmask basis key:
# the moment LPs of ER and the paw MLE, and every node LP of two dissociated
# fits
FLOAT_PASS_DIGESTS = {
    "er4-1/3-m5": (extend_lp(er_mobius(4, Fraction(1, 3)), 5),
                   "35bd49077cdeceedf7a5ee9f1693e6ef589026b781abc5324fa8de0a53acbf72"),
    "er4-1/2-m6": (extend_lp(er_mobius(4, Fraction(1, 2)), 6),
                   "3550da5778ea264da8336f4b8cf1b53ef6be56a7f0f8520ea6624f0ccce5e987"),
    "er4-2/5-m7": (extend_lp(er_mobius(4, Fraction(2, 5)), 7),
                   "76ba0764da1e2a0e5ab1bece6d566cfc6cb790747e9cb9bb432552b690c11615"),
    "er5-1/3-m6": (extend_lp(er_mobius(5, Fraction(1, 3)), 6),
                   "d790bf58c4631cb2f30efe3eb8c53436402f68b6e31c5a3da898f6967fcb7075"),
    "paw-mle-m5": (extend_lp(exch_mle(PAW), 5),
                   "cb3fb9264b830ebdedd74527e5aa7747d2db2d4026b48666d88cede502a7f926"),
    "paw-mle-m6": (extend_lp(exch_mle(PAW), 6),
                   "80252080fcb981a8454d5b602a960e7d2e366fc0d25f352c7e61959e4922be7b"),
    "paw-dissociated-fit": (lambda: dissociated_mle(PAW),
                            "39bdf659c89dff4f2f6a2cf5cac087e426850b4edb47016bfdf80ead505a10f0"),
    "2k2-dissociated-fit": (lambda: dissociated_mle(TWO_K2),
                            "b75132d018c6e59eb2afa9b710eae90aafd39a4436fc8bf9a4233d051352710f"),
}


@pytest.mark.parametrize("name", sorted(FLOAT_PASS_DIGESTS))
def test_float_pass_is_pinned_bit_for_bit(name):
    run, want = FLOAT_PASS_DIGESTS[name]
    assert float_pass_digest(run) == want


def test_an_lp_with_no_columns_takes_no_pivot():
    res = solve_feasibility([], [])
    assert res.feasible and res.pivots == 0 and res.x == []
    assert maximize([], [], []).pivots == 0


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
        got = _exact_from_basis(_Scaled.of(a_rows, b), start, 0)
        want = oracle_exact_bland(a_rows, b)
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
        assert_same_answer(got, oracle_exact_bland(a_rows, b))

    def test_ratios_merged_by_rounding_restart_exactly(self):
        # x = 1 + d and x = 1: the float ratio test takes 1 + d and 1 as a
        # tie and ends on a basis with an artificial at -d
        d = Fraction(1, 10**12)
        a_rows, b = [[1], [1]], [1 + d, Fraction(1)]
        got = solve_feasibility(a_rows, b)
        assert not got.feasible
        assert got.residual == d
        assert_same_answer(got, oracle_exact_bland(a_rows, b))
        assert_exactly_certified(a_rows, b, got)

    def test_artificial_with_negative_reduced_cost_continues(self):
        # -2 x = 1, x = 1; the basis {a0, x} has value 3 and the dual
        # y = (1, 2), so the nonbasic a1 has reduced cost 1 - 2 < 0.  The
        # optimum is x = 0 with value 2.
        a_rows, b = [[-2], [1]], [Fraction(1), Fraction(1)]
        got = _exact_from_basis(_Scaled.of(a_rows, b), [1, 0], 0)
        assert got.residual == 2
        assert_same_answer(got, oracle_exact_bland(a_rows, b))
        assert_exactly_certified(a_rows, b, got)

    # a start that is not primal feasible, or singular, hands over to the
    # artificial basis, whose tableau is the oracle's, and exact Bland
    # continues from it by the oracle's pivots

    def test_infeasible_start_restarts_from_artificials(self):
        # x1 + x2 = 1, x1 - x2 = 1/2; the basis {x1, a2} gives a2 = -1/2
        a_rows = [[1, 1], [1, -1]]
        b = [Fraction(1), Fraction(1, 2)]
        got = _exact_from_basis(_Scaled.of(a_rows, b), [0, 3], 0)
        assert got.feasible
        assert got.x == [Fraction(3, 4), Fraction(1, 4)]
        assert_same_path(got, oracle_exact_bland(a_rows, b))

    def test_singular_start_restarts_from_artificials(self):
        for mv, m, pivots in ((exch_mle(PAW), 5, 15),
                              (er_mobius(4, Fraction(1, 2)), 6, 212)):
            a_rows, b = extension_lp(mv, m)
            singular = [0] * len(a_rows)  # one column in every position
            got = _exact_from_basis(_Scaled.of(a_rows, b), singular, 0)
            assert got.pivots == pivots
            assert_same_path(got, oracle_exact_bland(a_rows, b))
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
    want = oracle_exact_bland(a_rows, b)
    assert got.feasible == want.feasible
    # the phase-one optimum is unique even where the optimal basis is not
    assert got.residual == want.residual
    assert_exactly_certified(a_rows, b, got)


@st.composite
def degenerate_systems(draw):
    """Copies of a few base rows, each copy the row and its right-hand side
    times 1 (a duplicate), -1, 2, 1/2 or -3/2; right-hand sides are often 0."""
    n = draw(st.integers(1, 6))
    base = [[draw(rationals) for _ in range(n)] for _ in range(draw(st.integers(1, 3)))]
    x0 = [draw(st.integers(0, 2)) for _ in range(n)]
    a_rows, b = [], []
    for row in base:
        kind = draw(st.sampled_from(["zero", "feasible", "any"]))
        if kind == "zero":
            rhs = 0
        elif kind == "feasible":
            rhs = sum(a * x for a, x in zip(row, x0))
        else:
            rhs = draw(rationals)
        for _ in range(draw(st.integers(1, 3))):
            f = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
            a_rows.append([f * a for a in row])
            b.append(f * rhs)
    order = draw(st.permutations(range(len(b))))
    return [a_rows[i] for i in order], [b[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(degenerate_systems())
def test_degenerate_systems_match_exact_bland(system):
    a_rows, b = system
    got = solve_feasibility(a_rows, b)
    want = oracle_exact_bland(a_rows, b)
    assert_same_answer(got, want)
    assert got.dual == want.dual
    assert_exactly_certified(a_rows, b, got)


# ints and Fractions with numerators and denominators beyond 2^53
wide = st.one_of(
    st.just(0),
    rationals,
    st.integers(-(2**60), 2**60),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(wide, min_size=3, max_size=3), min_size=m, max_size=m),
    st.lists(wide, min_size=m, max_size=m),
)))
def test_float_tableau_from_the_scaled_rows_is_bit_identical(system):
    # a ``_Row``'s floats (int / lcm) are numpy's rounding of its ints and
    # Fractions, so the float pass is the same from either
    a_rows, b = system
    want = _initial_tableau(a_rows, b)
    got = _initial_tableau([_Row.of(r) for r in a_rows], b)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


def scaled_from_scratch(a_rows, b):
    """Rows, right-hand sides, scales, signs and denominator of A x = b as
    ``_Scaled`` defines them: row i times sign(b_i) and the lcm of the
    denominators in the row, b over the lcm D of its denominators, so that
    the right-hand side of row i is sign(b_i) * lcm * D * b_i."""
    den = lcm(*(Fraction(bi).denominator for bi in b))
    rows, rhs, scales, signs = [], [], [], []
    for row, bi in zip(a_rows, b):
        scale = lcm(*(Fraction(v).denominator for v in row))
        sign = -1 if bi < 0 else 1
        rows.append([sign * scale * Fraction(v) for v in row])
        rhs.append(sign * scale * den * Fraction(bi))
        scales.append(scale)
        signs.append(sign)
    return rows, rhs, scales, signs, den


# right-hand sides whose denominators often do not divide the rows' lcm
rhs_values = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(-3, 3, max_denominator=30), wide
)


@example(([[Fraction(1, 2), Fraction(1, 3), 1]],
          [[Fraction(1, 6)], [Fraction(1, 5)], [Fraction(-7, 6)], [0]]))
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.lists(wide, min_size=3, max_size=3), min_size=m, max_size=m),
    st.lists(st.lists(rhs_values, min_size=m, max_size=m), min_size=1, max_size=4),
)))
def test_cached_row_scaling_is_never_stale(system):
    # rows scaled once (``_Row``) and reused for several right-hand sides
    # scale as rows scaled from scratch do; a float b takes the float pass
    a_rows, bs = system
    cached = [_Row.of(r) for r in a_rows]
    for b in bs:
        want = scaled_from_scratch(a_rows, b)
        for rows in (cached, a_rows):
            got = _Scaled.of(rows, b)
            assert (got.rows, got.rhs, got.scales, got.signs, got.den) == want
            assert all(type(v) is int for r in got.rows for v in r)
            assert all(type(v) is int for v in [*got.rhs, got.den])
        assert _Scaled.of(cached, [float(v) for v in b]) is None
    assert [r.ints for r in cached] == [_Row.of(r).ints for r in a_rows]


def test_float_rhs_on_cached_rows_takes_the_float_pass():
    a_rows = [[Fraction(1, 2), Fraction(1, 4)], [1, 1]]
    got = solve_feasibility([_Row.of(r) for r in a_rows], [0.375, 1.0])
    assert got == solve_feasibility(a_rows, [0.375, 1.0])
    assert all(isinstance(v, float) for v in got.x)


big = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**60), 2**60))


@st.composite
def integer_systems(draw):
    """A square integer B and an integer C of one to three columns; B often
    has a zero corner (the elimination swaps rows) or two equal rows."""
    k = draw(st.integers(1, 5))
    b_rows = [[draw(big) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        b_rows[0][0] = 0
    if k > 1 and draw(st.booleans()):
        b_rows[-1] = list(b_rows[0])
    width = draw(st.integers(1, 3))
    return b_rows, [[draw(big) for _ in range(width)] for _ in range(k)]


@example(([[0, 1], [1, 0]], [[3], [5]]))  # a row swap, det B = -1
@example(([[2, 1], [1, 2]], [[1], [0]]))  # det B = 3: X is not integral
@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_fraction_free_solve_equals_gauss_jordan(system):
    b_rows, c_rows = system
    transposed = [list(col) for col in zip(*b_rows)]
    # B X = C, and B^T X = C as the dual solve uses it
    for mat in (b_rows, transposed):
        got = _solve([r + c for r, c in zip(mat, c_rows)])
        want = [oracle_solve(mat, list(col)) for col in zip(*c_rows)]
        if want[0] is None:
            assert got is None
        else:
            assert got == [list(r) for r in zip(*want)]
            assert all(type(v) is Fraction for r in got for v in r)


nonzero = st.one_of(st.integers(1, 3), st.integers(1, 2**60)).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@st.composite
def sparse_integer_systems(draw):
    """A square integer B of 2 to 12 rows, at least half of its entries 0,
    and an integer C of one to three columns; B often has a zero corner or
    a repeated row.  B has a nonzero entry in every row and column (one per
    row at a drawn permutation of the columns), so it is often nonsingular.
    Rows with a 0 in the pivot column are left alone by the elimination, and
    one of them often becomes a later pivot row while still stale (by a
    swap, when the row in the pivot position has a 0 there)."""
    k = draw(st.integers(2, 12))
    perm = draw(st.permutations(range(k)))
    extra = draw(st.sets(st.integers(0, k * k - 1), max_size=k * k // 2 - k))
    cells = {r * k + c for r, c in enumerate(perm)} | extra
    values = iter(draw(st.lists(nonzero, min_size=len(cells), max_size=len(cells))))
    b_rows = [[next(values) if r * k + c in cells else 0 for c in range(k)]
              for r in range(k)]
    if draw(st.booleans()):
        b_rows[0][0] = 0
    if draw(st.booleans()):
        b_rows[draw(st.integers(1, k - 1))] = list(b_rows[0])
    width = draw(st.integers(1, 3))
    return b_rows, [[draw(big) for _ in range(width)] for _ in range(k)]


# step 0 (pivot 2) skips row 2 and leaves row 1 with a 0 in column 1, so
# row 2 is swapped in as the step-1 pivot row while one pivot behind
@example(([[2, 1, 0, 0], [4, 2, 1, 0], [0, 3, 0, 1], [0, 0, 0, 5]], [[1], [2], [3], [4]]))
@settings(max_examples=300, deadline=None)
@given(sparse_integer_systems())
def test_sparse_solve_equals_gauss_jordan(system):
    b_rows, c_rows = system
    got = _solve([r + c for r, c in zip(b_rows, c_rows)])
    want = [oracle_solve(b_rows, list(col)) for col in zip(*c_rows)]
    if want[0] is None:
        assert got is None
    else:
        assert got == [list(r) for r in zip(*want)]
        assert all(type(v) is Fraction for r in got for v in r)


def test_inexact_back_substitution_raises(monkeypatch):
    # skip the elimination: the last pivot 3 is then not +-det B, and the
    # back substitution meets a division that is not exact
    monkeypatch.setattr(lp, "_bareiss", lambda mat: True)
    with pytest.raises(InvariantError):
        _solve([[2, 1, 0], [0, 3, 1]])


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


def two_block_law():
    """The moments at n = 3 of two blocks of weight 1/2, with no ties inside
    the first block and certain ties elsewhere."""
    one = Fraction(1)
    z = oracle_block_moments(
        enumerate_classes(3, True), (one / 2, one / 2), ((0, one), (one, one))
    )
    return MobiusVector(3, z)


def dissociated_lp(mv, m):
    """The rows and right-hand side of mv's dissociated extension LP at m,
    its result and the report."""
    seen = []

    def spy(a_rows, b):
        seen.append((a_rows, b, solve_feasibility(a_rows, b)))
        return seen[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extendability, "solve_feasibility", spy)
        report = dissociated_extendable_check(mv, m)
    (lp_data,) = seen
    return (*lp_data, report)


@pytest.fixture(scope="module")
def cycling_lp():
    """The rows of the two-block law's dissociated extension at m = 6, on
    which the first float pass cycles: it takes rounding noise of ~1e-9 as
    pivots."""
    return dissociated_lp(two_block_law(), 6)[:2]


class TestNoisePivots:
    def test_float_pivots_on_noise_cycle(self, cycling_lp):
        tab, basis, _ = _initial_tableau(*cycling_lp)
        assert _bland(tab, basis, FLOAT_EPS, FLOAT_EPS)[1]

    def test_repeat_is_seen_at_the_same_pivot(self, cycling_lp):
        # recorded when the basis key was a hash of the sorted basis
        tab, basis, _ = _initial_tableau(*cycling_lp)
        assert _bland(tab, basis, FLOAT_EPS, FLOAT_EPS) == (643, True)

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


def test_two_block_law_at_m7_is_decided_by_the_retry(monkeypatch):
    # the Bland float pass repeats a basis after 2,125 pivots; the retry by
    # Dantzig's rule ends on a basis that the exact check proves optimal, so
    # no exact pivot follows (exact Bland from the repeated basis had not
    # finished after 25 minutes)
    passes = []
    real = lp._bland

    def spy(tab, basis, *rule):
        passes.append((tab.dtype == float, rule[2:], real(tab, basis, *rule)))
        return passes[-1][-1]

    monkeypatch.setattr(lp, "_bland", spy)
    a_rows, b, res, report = dissociated_lp(two_block_law(), 7)
    first, retry = passes
    assert first == (True, (), (2125, True))
    retried, cycled = retry[2]
    assert retry[:2] == (True, (True,)) and not cycled
    assert retried < 300  # 135 when recorded
    assert res.pivots == 2125 + retried
    assert report.feasible
    assert_exactly_certified(a_rows, b, res)


def report_cycles(monkeypatch):
    """Make every float pass of ``_bland``, the retry too, report a repeated
    basis."""
    real = lp._bland

    def cycling(tab, basis, eps, pivot_eps, dantzig=False):
        return real(tab, basis, eps, pivot_eps, dantzig)[0], eps == FLOAT_EPS

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
