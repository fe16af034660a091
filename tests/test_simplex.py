from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from multiterm.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    _dual_solve,
    _standard_form_solve,
    feasible_point,
    implied,
    solve_lp,
)


def F(v):
    return Fraction(v)


def primal_solve_lp(objective, ge_rows):
    """Reference: min objective . x s.t. A x >= b in primal standard form.

    Free variables are split into positive parts, x = u - v, and a surplus
    variable per row turns the inequalities into equalities, A x - s = b.
    An m-row system pivots an m x (2d + 2m) tableau; `solve_lp` solves the
    same LP on its d-row dual.
    """
    d = len(objective)
    m = len(ge_rows)
    A, b = [], []
    for r, (co, ct) in enumerate(ge_rows):
        row = [F(v) for v in co] + [-F(v) for v in co] + [F(0)] * m
        row[2 * d + r] = F(-1)
        A.append(row)
        b.append(F(ct))
    c = [F(v) for v in objective] + [-F(v) for v in objective] + [F(0)] * m
    if not A:
        # unconstrained: bounded only if objective is identically zero
        if any(v != 0 for v in objective):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, F(0), [F(0)] * d)
    status, value, z = _standard_form_solve(A, b, c)[:3]
    if status != OPTIMAL:
        return LpResult(status)
    return LpResult(OPTIMAL, value, [z[i] - z[d + i] for i in range(d)])


def test_simple_bounded():
    # min x subject to x >= 3
    res = solve_lp([F(1)], [([F(1)], F(3))])
    assert res.status == OPTIMAL and res.value == 3


def test_unbounded():
    res = solve_lp([F(-1)], [([F(1)], F(0))])
    assert res.status == UNBOUNDED


def test_infeasible():
    res = solve_lp([F(0)], [([F(1)], F(1)), ([F(-1)], F(0))])
    assert res.status == INFEASIBLE


def test_degenerate_rows_terminate():
    rows = [([F(1), F(0)], F(0))] * 5 + [([F(0), F(1)], F(0))] * 5
    res = solve_lp([F(1), F(1)], rows)
    assert res.status == OPTIMAL and res.value == 0


def test_exact_rational_solution():
    # min x + y s.t. 3x + y >= 1, x + 3y >= 1 -> x = y = 1/4
    res = solve_lp([F(1), F(1)],
                   [([F(3), F(1)], F(1)), ([F(1), F(3)], F(1))])
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 2)
    assert res.x == [Fraction(1, 4), Fraction(1, 4)]


def test_feasible_point_none_for_empty_polytope():
    # x >= 1 and x <= 0 cannot both hold
    assert feasible_point([([F(1)], F(1)), ([F(-1)], F(0))], 1) is None


def test_against_scipy_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 8))
        A = rng.integers(-3, 4, size=(m, d))
        b = rng.integers(-4, 5, size=m)
        c = rng.integers(-3, 4, size=d)
        rows = [([F(int(v)) for v in A[i]], F(int(b[i]))) for i in range(m)]
        res = solve_lp([F(int(v)) for v in c], rows)
        feas = linprog(np.zeros(d), A_ub=-A, b_ub=-b,
                       bounds=[(None, None)] * d, method="highs")
        if res.status == INFEASIBLE:
            assert feas.status == 2
            continue
        assert feas.status == 0
        if res.status == OPTIMAL:
            sp = linprog(c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * d,
                         method="highs")
            assert sp.status == 0
            assert abs(float(res.value) - sp.fun) < 1e-7
            x = np.array([float(v) for v in res.x])
            assert np.all(A @ x >= b - 1e-9)
        else:
            # HiGHS reports dual-infeasible presolve results ambiguously
            sp = linprog(c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * d,
                         method="highs")
            assert sp.status in (2, 3, 4)


@st.composite
def implication_cases(draw):
    """(dim, rows, coeffs, const): a small integer system and a candidate row,
    with duplicated rows, all-zero rows and a zero objective mixed in."""
    dim = draw(st.integers(0, 3))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    rows = draw(st.lists(st.tuples(vec, st.integers(-4, 4)), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [([0] * dim, draw(st.integers(-2, 2)))] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    coeffs = draw(st.one_of(st.just([0] * dim), vec))
    return dim, rows, coeffs, draw(st.integers(-4, 4))


@settings(max_examples=300, deadline=None)
@given(case=implication_cases())
@example(case=(0, [([], 1)], [], 0))                             # dim 0, empty
@example(case=(0, [([], 0), ([], -1)], [], 1))                   # dim 0, nonempty
@example(case=(1, [([1], 0)], [-1], 0))                          # unbounded below
@example(case=(1, [([1], 1), ([-1], 0)], [1], 5))                # empty
@example(case=(2, [([1, 0], 0)] * 3 + [([0, 1], 0)] * 3, [1, 1], 0))  # degenerate
@example(case=(2, [([1, 1], 1)], [0, 0], 0))                     # zero objective
@example(case=(2, [], [0, 0], -1))                               # no rows
@example(case=(1, [([1], 0)], [1], Fraction(1, 2 ** 40)))        # gap at binding precision
def test_implied_agrees_with_primal(case):
    """The dual emptiness test equals the primal one; on a nonempty system
    the dual implication equals the primal one, and a True answer comes with
    multipliers y >= 0, A^T y = coeffs, b.y >= const."""
    dim, raw, coeffs, const = case
    rows = [([F(v) for v in co], F(ct)) for co, ct in raw]
    empty = primal_solve_lp([F(0)] * dim, rows).status == INFEASIBLE
    assert implied([0] * dim, 1, rows, dim) == empty
    if empty:
        return  # callers test emptiness first: then both LPs may be infeasible
    primal = primal_solve_lp([F(v) for v in coeffs], rows)
    expected = primal.status == OPTIMAL and primal.value >= const
    assert implied(coeffs, const, rows, dim) == expected
    if expected:
        status, _, y = _dual_solve(coeffs, rows, dim)[:3]
        assert status == OPTIMAL and len(y) == len(rows)
        assert all(v >= 0 for v in y)
        for i in range(dim):
            assert sum(v * co[i] for v, (co, _) in zip(y, rows)) == coeffs[i]
        assert sum(v * ct for v, (_, ct) in zip(y, rows)) >= const


@settings(max_examples=300, deadline=None)
@given(case=implication_cases().map(lambda case: case[:3]))
@example(case=(0, [([], 1)], []))                                # dim 0, empty
@example(case=(0, [([], 0), ([], -1)], []))                      # dim 0, optimal
@example(case=(2, [], [1, 0]))                                   # no rows, unbounded
@example(case=(2, [], [0, 0]))                                   # no rows, optimal
@example(case=(1, [([1], 1), ([-1], 0)], [1]))                   # empty
@example(case=(1, [([1], 0)], [-1]))                             # unbounded below
@example(case=(2, [([1, 0], 0)] * 3 + [([0, 1], 0)] * 3, [1, 1]))  # degenerate
@example(case=(3, [([1, 2, 0], 1), ([2, 4, 0], 3)], [1, 2, 0]))  # rank 1, optimal
@example(case=(3, [([1, 2, 0], 1), ([2, 4, 0], 3)], [1, 2, 1]))  # rank 1, unbounded
@example(case=(2, [([1, 1], 1), ([-1, -1], -3), ([1, 1], 2)], [2, 2]))  # rank 1, ties
def test_solve_lp_matches_primal_reference(case):
    """The dual `solve_lp` has the primal reference's status and value; its
    x satisfies every row exactly and attains the value.  On a tie x may be
    another optimal vertex than the reference's."""
    dim, raw, objective = case
    rows = [([F(v) for v in co], F(ct)) for co, ct in raw]
    got = solve_lp(objective, rows)
    ref = primal_solve_lp(objective, rows)
    assert (got.status, got.value) == (ref.status, ref.value)
    if got.status != OPTIMAL:
        assert got.x is None
        return
    assert all(sum(a * v for a, v in zip(co, got.x)) >= ct for co, ct in rows)
    assert sum(a * v for a, v in zip(objective, got.x)) == got.value
    assert feasible_point(rows, dim) is not None
