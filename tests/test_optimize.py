import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchnet.counting import class_table
from exchnet.extendability import _sigma_rows
from exchnet.genmodels import er_mobius
from exchnet.graphs import UnlabeledClass, disconnected_classes
from exchnet.optimize import (
    _BLOCK,
    LinearConstraint,
    ProductConstraint,
    _project_rows,
    _System,
    dirichlet_starts,
    maximize_batch,
    maximize_on_simplex,
    minimize_violation_on_simplex,
    project_to_simplex,
)


def _moment_matrix(n):
    """The classes at n and the float moment row of each, one row per
    class."""
    table = class_table(n)
    return table.classes, table.moment_rows(table.classes)[2]


def _dissociated_constraints(n, classes, a_matrix):
    """One product constraint z_U = prod z_C per disconnected class U."""
    idx = {u: k for k, u in enumerate(classes)}
    return [
        ProductConstraint(a_matrix[idx[u]], [a_matrix[idx[c]] for c in comps])
        for u, comps in disconnected_classes(n)
    ]


def bisection_projection(v):
    """Projection onto the simplex as max(v - theta, 0) with theta found by
    bisection on sum(max(v - theta, 0)) = 1."""
    lo, hi = float(min(v)) - 1.0, float(max(v))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


values = st.floats(-10, 10, allow_nan=False)


@st.composite
def row_batches(draw):
    dim = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "ties", "negative", "simplex"]))
        if kind == "ties":
            pool = draw(st.lists(values, min_size=1, max_size=3))
            row = [draw(st.sampled_from(pool)) for _ in range(dim)]
        elif kind == "negative":
            negative = st.floats(-10, -1e-3)
            row = draw(st.lists(negative, min_size=dim, max_size=dim))
        elif kind == "simplex":
            unit = st.floats(0, 1)
            w = np.array(draw(st.lists(unit, min_size=dim, max_size=dim)))
            w[draw(st.integers(0, dim - 1))] += 1.0
            row = list(w / w.sum())
        else:
            row = draw(st.lists(values, min_size=dim, max_size=dim))
        rows.append(row)
    return np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(row_batches())
def test_batched_projection_matches_bisection(batch):
    got = _project_rows(batch)
    for row, out in zip(batch, got):
        assert np.abs(out - bisection_projection(row)).max() <= 1e-9
        assert np.array_equal(out, project_to_simplex(row))
        assert out.min() >= 0.0 and abs(out.sum() - 1.0) <= 1e-12


def paw_system():
    classes, a = _moment_matrix(4)
    return _dissociated_constraints(4, classes, a)


def extend_system():
    """Moment rows of ER(4, 1/3) at m = 5 plus the product constraints."""
    mv = er_mobius(4, 1 / 3)
    targets, _, rows = _sigma_rows(5, 4)
    cons = [
        LinearConstraint(np.array(row, dtype=float), float(mv.z[u]))
        for u, row in zip(targets, rows)
    ]
    return cons + _dissociated_constraints(5, *_moment_matrix(5))


def direct_values(cons, q):
    out = []
    for c in cons:
        if isinstance(c, LinearConstraint):
            out.append(c.row @ q - c.rhs)
        else:
            prod = np.prod([r @ q for r in c.factor_rows])
            out.append(c.target_row @ q - prod)
    return np.array(out)


@pytest.mark.parametrize("make", [paw_system, extend_system])
def test_compiled_values_and_gradients(make):
    cons = make()
    dim = len(cons[-1].target_row)
    system = _System(cons, dim)
    rng = np.random.default_rng(3)
    q = np.array(dirichlet_starts(rng, dim, 4))
    w = rng.normal(size=(4, len(cons)))
    v, m = system.values(q)
    assert np.abs(v - [direct_values(cons, row) for row in q]).max() <= 1e-12
    g = system.grad(w, m)
    h = 1e-6
    for r in range(len(q)):
        fd = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            up = w[r] @ system.values((q[r] + e)[None])[0][0]
            down = w[r] @ system.values((q[r] - e)[None])[0][0]
            fd[i] = (up - down) / (2 * h)
        assert np.abs(g[r] - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max())


def test_converging_starts_agree_in_batch_and_alone(paw):
    classes, a = _moment_matrix(4)
    cons = _dissociated_constraints(4, classes, a)
    dim = len(classes)
    c = np.zeros(dim)
    c[classes.index(UnlabeledClass.of(paw))] = 1.0
    starts = [c, np.full(dim, 1.0 / dim)]
    starts += dirichlet_starts(np.random.default_rng(20240), dim, 1)
    batch = maximize_batch(c, cons, np.array(starts))
    converged = 0
    for q0, res in zip(starts, batch):
        if res.max_violation > 1e-8 or res.kkt_residual > 1e-6:
            continue
        converged += 1
        alone = maximize_on_simplex(c, cons, q0)
        assert np.abs(alone.q - res.q).max() <= 1e-9
    assert converged >= 2


def sequential_first_step(constraint, q, slack):
    """The first accepted step of the violation descent, halving one at a
    time; also returns how many halvings it took."""
    def f(x):
        return 0.5 * (constraint.row @ x - constraint.rhs) ** 2

    g = (constraint.row @ q - constraint.rhs) * constraint.row
    t = 1.0
    for halvings in range(40):
        q_new = project_to_simplex(q - t * g)
        if f(q_new) <= f(q) - 1e-4 * (g @ (q - q_new)) + slack:
            return q_new, halvings
        t *= 0.5
    raise AssertionError("no step accepted")


def test_block_backtracking_takes_the_sequential_step():
    # a steep linear moment: the unit step overshoots by far, so Armijo needs
    # more halvings than one block holds
    row = np.array([3000.0, 0.0, 1000.0])
    con = LinearConstraint(row, 1500.0)
    q0 = np.array([0.2, 0.5, 0.3])
    want, halvings = sequential_first_step(con, q0, 1e-18)
    assert halvings > _BLOCK
    got = minimize_violation_on_simplex([con], q0, iters=1)
    assert np.array_equal(got.q, want)


def test_one_row_results_are_scalars():
    e2 = np.array([0.0, 1.0])
    cons = [ProductConstraint(e2, [e2, e2])]
    res = maximize_on_simplex(e2, cons, np.array([0.5, 0.5]))
    assert isinstance(res.outer_iters, int)
    assert isinstance(res.max_violation, float)
    assert isinstance(res.kkt_residual, float)
    assert res.max_violation <= 1e-8
