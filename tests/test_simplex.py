import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from multiterm import regions, simplex
from multiterm.linineq import LinIneqSystem
from multiterm.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    DualTableau,
    LpResult,
    feasible_point,
    solve_lp,
)


def F(v):
    return Fraction(v)


# -- the reference engine: a dense two-phase simplex in Fraction arithmetic with
# -- Bland's rule, kept here so that the integer engine is checked against an
# -- independent one

def reference_pivot(tableau, cost, basis, row, col):
    inv = Fraction(1) / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    # subtract multiples of the pivot row only where it is nonzero
    nonzero = [(j, v) for j, v in enumerate(tableau[row]) if v]
    for r, target in enumerate(tableau):
        factor = target[col]
        if r != row and factor != 0:
            for j, v in nonzero:
                target[j] -= factor * v
    factor = cost[col]
    if factor != 0:
        for j, v in nonzero:
            cost[j] -= factor * v
    basis[row] = col


def reference_run_simplex(tableau, cost, basis):
    """Minimize; Bland's rule guarantees termination.  Returns True, or
    False when the objective is unbounded below."""
    ncols = len(cost) - 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return True
        best = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return False
        reference_pivot(tableau, cost, basis, best[1], enter)


def reference_standard_form_solve(A, b, c):
    """min c.z  s.t.  A z = b, z >= 0 (all entries Fractions).

    Returns (status, value, z): z only on OPTIMAL.
    """
    m = len(A)
    n = len(c)
    tableau = []
    for i in range(m):
        row = list(A[i]) + [Fraction(0)] * m + [b[i]]
        if b[i] < 0:
            row = [-v for v in row]
        row[n + i] = Fraction(1)
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # phase 1: minimize the artificial sum, priced out against the basis
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n + m + 1):
        cost[j] = (Fraction(1) if n <= j < n + m else Fraction(0)) - sum(
            row[j] for row in tableau)
    # artificial columns start basic with zero reduced cost
    for i in range(m):
        cost[n + i] = Fraction(0)
    reference_run_simplex(tableau, cost, basis)
    if -cost[-1] > 0:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                continue
            reference_pivot(tableau, cost, basis, r, col)
        keep_rows.append(r)
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep_rows]
    basis = [basis[r] for r in keep_rows]

    cost2 = list(c) + [Fraction(0)]
    for r, row in enumerate(tableau):
        if cost2[basis[r]] != 0:
            factor = cost2[basis[r]]
            cost2 = [a - factor * bb for a, bb in zip(cost2, row)]
    if not reference_run_simplex(tableau, cost2, basis):
        return UNBOUNDED, None, None
    z = [Fraction(0)] * n
    for r, bvar in enumerate(basis):
        z[bvar] = tableau[r][-1]
    return OPTIMAL, -cost2[-1], z


def reference_dual_solve(coeffs, ge_rows, dim):
    """The reference's min -b.y s.t. A^T y = coeffs, y >= 0."""
    columns = [[F(co[i]) for co, _ in ge_rows] for i in range(dim)]
    return reference_standard_form_solve(columns, [F(v) for v in coeffs],
                                         [-F(ct) for _, ct in ge_rows])


def reference_implied(coeffs, const, ge_rows, dim):
    """Whether the rows imply coeffs.x >= const, decided by the reference
    engine on the dual at coeffs, as the library once built it: True when
    that dual is unbounded (the rows are empty) or its optimum reaches
    const, False when it is infeasible, which on empty rows is not the
    vacuous answer."""
    status, value = reference_dual_solve(coeffs, ge_rows, dim)[:2]
    if status == UNBOUNDED:
        return True
    return status == OPTIMAL and -value >= const


def fresh_implied(coeffs, const, ge_rows, dim):
    """:meth:`DualTableau.implies` asked of a fresh build of `ge_rows`."""
    return DualTableau(ge_rows, dim).implies(coeffs, const)


def multipliers(tableau):
    """The optimal y >= 0 of a tableau's last query, one per row of its
    system, read off its basic columns (the library has no use for them)."""
    assert tableau.status == OPTIMAL
    y = [Fraction(0)] * tableau._ncols
    for row, bvar in zip(tableau._rows, tableau._basis):
        y[bvar] = Fraction(row[-1], tableau._d * tableau._rhs_scale)
    return y


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
    status, value, z = reference_standard_form_solve(A, b, c)
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
    """The build's emptiness verdict (UNBOUNDED) equals the primal one, and
    an empty system implies every row; on a nonempty system the queried
    implication equals the primal one, and a True answer comes with
    multipliers y >= 0, A^T y = coeffs, b.y >= const."""
    dim, raw, coeffs, const = case
    rows = [([F(v) for v in co], F(ct)) for co, ct in raw]
    empty = primal_solve_lp([F(0)] * dim, rows).status == INFEASIBLE
    tableau = DualTableau(rows, dim)
    assert (tableau.status == UNBOUNDED) == empty
    if empty:
        assert tableau.implies(coeffs, const)
        return
    primal = primal_solve_lp([F(v) for v in coeffs], rows)
    expected = primal.status == OPTIMAL and primal.value >= const
    assert tableau.implies(coeffs, const) == expected
    if expected:
        status, y = tableau.status, multipliers(tableau)
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


@st.composite
def dyadic_cases(draw):
    """(dim, rows, coeffs, const) with integer or dyadic entries whose
    denominators reach 2**40, the precision entropies are bound at."""
    dim = draw(st.integers(0, 4))
    small = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-7, 7), st.sampled_from([2, 4, 8])))
    dyadic = st.one_of(st.integers(-4, 4),
                       st.builds(lambda n, k: Fraction(n, 1 << k),
                                 st.integers(-(3 << 40), 3 << 40), st.integers(0, 40)))
    vec = st.lists(small, min_size=dim, max_size=dim)
    rows = draw(st.lists(st.tuples(vec, dyadic), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    coeffs = draw(st.one_of(st.just([0] * dim), vec))
    return dim, rows, coeffs, draw(dyadic)


@settings(max_examples=400, deadline=None)
@given(case=dyadic_cases())
@example(case=(1, [([1], Fraction(1, 2 ** 40))], [1], Fraction(1, 2 ** 40)))   # tight
@example(case=(2, [([1, 0], Fraction(3, 2 ** 40)), ([0, 1], Fraction(-1, 2 ** 39)),
                   ([-1, -1], Fraction(-5, 2 ** 40))], [1, 1], Fraction(1, 2 ** 40)))
def test_integer_engine_matches_reference_dual(case):
    """The integer tableau's build gives the reference's dual status and
    optimum at coeffs 0, so its emptiness verdict is the reference's.  On a
    nonempty system a query of coeffs gives the reference's status and
    optimum at coeffs, and `implies` answers as the reference does; on an
    empty one the reference's dual at coeffs has no optimum either, and
    `implies` holds vacuously."""
    dim, rows, coeffs, const = case
    tableau = DualTableau(rows, dim)
    status, value = reference_dual_solve([0] * dim, rows, dim)[:2]
    assert (tableau.status, tableau.value) == (status, None if value is None else -value)
    assert (tableau.status == UNBOUNDED) == reference_implied([0] * dim, 1, rows, dim)
    status, value = reference_dual_solve(coeffs, rows, dim)[:2]
    if tableau.status == UNBOUNDED:
        assert status != OPTIMAL and tableau.implies(coeffs, const)
        return
    assert tableau.query(coeffs) == status
    assert tableau.value == (None if value is None else -value)
    assert tableau.implies(coeffs, const) == reference_implied(coeffs, const, rows, dim)


def test_bland_fallback_ends_beales_cycle(monkeypatch):
    """E. M. L. Beale's 1955 example, min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 s.t.
    1/4 x4 - 8 x5 - x6 + 9 x7 <= 0, 1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 <= 0,
    x6 <= 1, x >= 0, cycles from its slack basis under Dantzig's rule with
    ties to the lowest basic column.  Scaled to integers (rows by 4, 2, 1, cost
    by 4), the slack basis has determinant 8, so the tableau is 8 times the
    textbook one.  The fallback to Bland's rule reaches the optimum -5/4 at
    x4 = x6 = 1 within a few pivots."""
    rows = [[2, -64, -8, 72, 8, 0, 0, 0],
            [4, -96, -4, 24, 0, 8, 0, 0],
            [0, 0, 8, 0, 0, 0, 8, 8],
            [-24, 640, -16, 192, 0, 0, 0, 0]]
    basis = [4, 5, 6]
    pivots = []
    pivot = simplex._pivot

    def capped(*args):
        pivots.append(args[2:])
        if len(pivots) > 100:
            raise AssertionError("no optimum within 100 pivots")
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", capped)
    bounded, d = simplex._minimize(rows, basis, 8, 7)
    assert bounded
    assert Fraction(-rows[-1][-1], 4 * d) == Fraction(-5, 4)
    x = [Fraction(0)] * 7
    for row, col in zip(rows, basis):
        x[col] = Fraction(row[-1], d)
    assert x[0] == x[2] == 1 and x[1] == x[3] == 0


@st.composite
def region_systems(draw):
    """Two small numeric systems over the same variables, with repeated and
    scaled rows and dyadic constants."""
    names = ["a", "b", "c"][:draw(st.integers(1, 3))]
    const = st.one_of(st.integers(-3, 3),
                      st.builds(lambda n, k: Fraction(n, 1 << k),
                                st.integers(-(1 << 41), 1 << 41), st.integers(0, 40)))
    row = st.tuples(st.lists(st.integers(-2, 2), min_size=len(names), max_size=len(names)),
                    const)

    def system(raw):
        out = LinIneqSystem(names)
        for co, ct in raw:
            out.add(dict(zip(names, co)), ct)
        return out

    first = draw(st.lists(row, min_size=1, max_size=7))
    first += draw(st.lists(st.sampled_from(first).map(lambda r: ([2 * v for v in r[0]], r[1])),
                           max_size=2))
    return system(first), system(draw(st.lists(row, max_size=6)))


def deletion_filter(system, decide=reference_implied, record=lambda verdict: verdict):
    """The deletion filter that `remove_redundant` decides, each test a
    fresh solve by `decide` (the reference engine by default): row k
    against the rows kept before it and every row after it.  Each verdict,
    the emptiness test first, goes through `record`."""
    system = system.canonicalize()
    if system.infeasible:
        return system
    rows, dim = system.dense_rows(), len(system.vars)
    if record(decide([0] * dim, 1, rows, dim)):
        return system.with_rows(system.rows, infeasible=True)
    keep = []
    for k, (coeffs, const) in enumerate(rows):
        if not record(decide(coeffs, const, [rows[i] for i in keep] + rows[k + 1:], dim)):
            keep.append(k)
    return system.with_rows([system.rows[k] for k in keep])


@settings(max_examples=200, deadline=None)
@given(pair=region_systems())
def test_region_queries_match_reference_engine(pair):
    """`remove_redundant` keeps the same rows as the reference engine's
    deletion filter, and `contains` gives the same verdicts with the
    reference engine patched in: every emptiness test of a tableau and
    every row it is asked about answers as the reference's."""
    a, b = pair

    def run(reference):
        calls = []

        def record(verdict):
            calls.append(verdict)
            return verdict

        class RecordingTableau(DualTableau):
            def __init__(self, rows, dim):
                super().__init__(rows, dim)
                self.rows, self.dim = rows, dim
                if reference:
                    empty = reference_implied([0] * dim, 1, rows, dim)
                    self.status = UNBOUNDED if empty else OPTIMAL
                record(self.status == UNBOUNDED)

            def implies(self, coeffs, const):
                if reference:
                    return record(reference_implied(coeffs, const, self.rows, self.dim))
                return record(super().implies(coeffs, const))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regions, "DualTableau", RecordingTableau)
            reduced = deletion_filter(a, record=record) if reference \
                else regions.remove_redundant(a)
            out = (reduced.render(), regions.contains(a, b), regions.contains(b, a))
        return out, calls

    assert run(False) == run(True)


@st.composite
def requery_cases(draw):
    """(dim, rows, build, queries): a nonempty system, None or the coeffs
    its tableau is first queried at, and (coeffs, const) questions to re-ask
    of it in order.

    The rows pass through a point x0 with nonnegative slacks, so they are
    nonempty; coefficients may be small rationals, constants are dyadic down
    to 2**-40, and rows are repeated and scaled.  A rank-deficient system
    keeps every row in a proper subspace, so phase 1 drops equality rows.
    Questions are nonnegative combinations of rows (inside the row cone,
    some tight), arbitrary vectors (often outside it, so unbounded below),
    the zero vector, and repeats."""
    dim = draw(st.integers(1, 4))
    small = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-7, 7), st.sampled_from([2, 4])))
    dyadic = st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-(3 << 12), 3 << 12),
                       st.integers(0, 40))
    vec = st.lists(small, min_size=dim, max_size=dim)
    coeff_rows = draw(st.lists(vec, min_size=1, max_size=7))
    if dim > 1 and draw(st.booleans()):
        # rank deficient: the last coordinate is a fixed combination of the first
        ratio = draw(st.sampled_from([0, 1, -2, Fraction(1, 2)]))
        coeff_rows = [co[:-1] + [ratio * co[0]] for co in coeff_rows]
    coeff_rows += [[2 * v for v in co] for co in draw(st.lists(st.sampled_from(coeff_rows),
                                                               max_size=2))]
    coeff_rows += draw(st.lists(st.sampled_from(coeff_rows), max_size=2))
    x0 = draw(st.lists(dyadic, min_size=dim, max_size=dim))
    rows = []
    for co in coeff_rows:
        slack = draw(st.one_of(st.just(0), dyadic.map(abs)))
        rows.append((co, sum(a * v for a, v in zip(co, x0)) - slack))
    rows = draw(st.permutations(rows))

    def cone():
        """A nonnegative combination of the rows and its tight constant."""
        weights = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        return ([sum(w * co[i] for w, (co, _) in zip(weights, rows)) for i in range(dim)],
                sum(w * ct for w, (_, ct) in zip(weights, rows)))

    def question():
        coeffs, tight = cone()
        coeffs = draw(st.sampled_from([coeffs, [0] * dim, draw(vec)]))
        return coeffs, draw(st.sampled_from([tight, tight + draw(dyadic), draw(dyadic)]))

    queries = [question() for _ in range(draw(st.integers(1, 6)))]
    queries += draw(st.lists(st.sampled_from(queries), max_size=3))
    build = draw(st.sampled_from([None, cone()[0]]))
    return dim, rows, build, draw(st.permutations(queries))


@settings(max_examples=150, deadline=None)
@given(case=requery_cases())
@example(case=(3, [([1, 2, 0], 1), ([2, 4, 0], 2), ([-1, -2, 0], -5)], None,
               [([1, 2, 1], 0), ([1, 2, 0], 1), ([0, 0, 0], 0), ([1, 2, 0], 2),
                ([-1, -2, 0], -5), ([0, 0, 1], -1)]))       # rank 1, dropped rows
@example(case=(1, [([1], Fraction(1, 2 ** 40))], [1],
               [([1], Fraction(1, 2 ** 40)), ([-1], 0), ([2], Fraction(1, 2 ** 39)),
                ([1], Fraction(1, 2 ** 39))]))              # gaps at binding precision
def test_requeries_match_fresh_reference(case):
    """Every question re-asked of one tableau, in any order, answers as a
    fresh reference solve: the same status and optimum, and the same
    verdict as `reference_implied`.  A True verdict carries multipliers
    y >= 0 with A^T y = coeffs and b.y >= const, and an optimum carries a
    point x of the rows with coeffs.x equal to it."""
    dim, rows, build, queries = case
    tableau = DualTableau(rows, dim)
    assert tableau.status == OPTIMAL
    if build is not None:
        assert tableau.query(build) == OPTIMAL
    for coeffs, const in queries:
        verdict = tableau.implies(coeffs, const)
        assert verdict == reference_implied(coeffs, const, rows, dim)
        status, value = reference_dual_solve(coeffs, rows, dim)[:2]
        assert (tableau.status, tableau.value) == (status, None if value is None else -value)
        if verdict:
            y = multipliers(tableau)
            assert all(v >= 0 for v in y)
            for i in range(dim):
                assert sum(v * co[i] for v, (co, _) in zip(y, rows)) == coeffs[i]
            assert sum(v * ct for v, (_, ct) in zip(y, rows)) >= const
        if tableau.status == OPTIMAL:
            x = tableau.point()
            assert all(sum(a * v for a, v in zip(co, x)) >= ct for co, ct in rows)
            assert sum(a * v for a, v in zip(coeffs, x)) == tableau.value


def test_bland_fallback_ends_the_dual_of_beales_cycle(monkeypatch):
    """Dual pivots on the dual of Beale's example (see the test above): one
    row per x_j with its reduced cost c_j as right-hand side, one column per
    x_j (unit) and per constraint row i (-A_i), whose reduced cost is b_i.
    Over the denominator 256, the determinant of the integer basis (each
    row scaled by 4), it is a valid integer tableau.  Leaving on the most
    negative row alone, it cycles through 12 dual-degenerate pivots, the
    primal cycle transposed; the fallback to Bland's rule reaches the
    optimum within a few pivots: min b.y = 5/4, all of it on the multiplier
    of the third row, x6 <= 1."""
    def run():
        rows = [[256, 0, 0, 0, -64, -128, 0, -192],
                [0, 256, 0, 0, 2048, 3072, 0, 5120],
                [0, 0, 256, 0, 256, 128, -256, -128],
                [0, 0, 0, 256, -2304, -768, 0, 1536],
                [0, 0, 0, 0, 0, 0, 256, 0]]
        basis = [0, 1, 2, 3]
        return simplex._reoptimize(rows, basis, 256, 7), rows, basis

    pivots = []
    pivot = simplex._pivot

    def capped(*args):
        pivots.append(args[2:])
        if len(pivots) > 100:
            raise AssertionError("no optimum within 100 pivots")
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", capped)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_DEGENERATE_RUN", 10 ** 9)
        with pytest.raises(AssertionError, match="within 100 pivots"):
            run()
        assert pivots[:12] == pivots[12:24]
    pivots.clear()
    (feasible, d), rows, basis = run()
    assert feasible and len(pivots) < 20
    assert all(row[-1] >= 0 for row in rows[:-1])
    # the cost row ends in minus min b.y = 5/4, minus Beale's optimum
    assert Fraction(rows[-1][-1], d) == Fraction(-5, 4)
    assert Fraction(rows[basis.index(6)][-1], d) == Fraction(5, 4)


def relax_steps():
    """(basic, pick, delta) steps: relax the pick-th row (cyclically) among
    those whose column is basic in the tableau, or among the others, by
    delta; a negative delta tightens the row."""
    return st.lists(st.tuples(st.booleans(), st.integers(0, 8), st.integers(-2, 3)),
                    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(case=requery_cases(), steps=relax_steps())
@example(case=(3, [([1, 2, 0], 1), ([2, 4, 0], 2), ([-1, -2, 0], -5)], None,
               [([1, 2, 0], 1), ([0, 0, 1], -1), ([-1, -2, 0], -5)]),
         steps=[(True, 0, 1), (False, 0, 1), (True, 1, -1)])    # rank 1, dropped rows
@example(case=(2, [([1, 0], 0), ([0, 1], 0), ([1, 1], Fraction(1, 2 ** 40))], [1, 1],
               [([1, 1], 0), ([-1, 0], 0)]),
         steps=[(True, 0, 1), (False, 0, 2), (True, 1, -1), (False, 0, -3)])  # tightened empty
def test_relax_matches_fresh_build(case, steps):
    """Each `relax(k, delta)` answers coeffs 0 as a fresh build of the rows
    with row k's constant lowered by delta does, UNBOUNDED when they are
    empty, and a later query answers as that fresh build and the
    reference's dual do for its coeffs: the same status and value, and an
    optimum carries a point of those rows.  The steps alternate with the case's questions,
    so a relax may follow a query at nonzero coeffs or one that ended
    INFEASIBLE."""
    dim, rows, build, queries = case
    tableau = DualTableau(rows, dim)
    if build is not None:
        tableau.query(build)
    current = list(rows)
    for (basic, pick, delta), (coeffs, _) in zip(steps, queries * len(steps)):
        columns = [j for j in range(len(rows)) if (j in tableau._basis) == basic]
        k = (columns or range(len(rows)))[pick % len(columns or rows)]
        current[k] = (current[k][0], current[k][1] - delta)
        zero = DualTableau(current, dim)
        assert (tableau.relax(k, delta), tableau.value) == (zero.status, zero.value)
        if zero.status == UNBOUNDED:
            return
        status, value = reference_dual_solve(coeffs, current, dim)[:2]
        assert tableau.query(coeffs) == zero.query(coeffs) == status
        assert tableau.value == zero.value == (None if value is None else -value)
        if tableau.status == OPTIMAL:
            x = tableau.point()
            assert all(sum(a * v for a, v in zip(co, x)) >= ct for co, ct in current)
            assert sum(a * v for a, v in zip(coeffs, x)) == tableau.value


@settings(max_examples=150, deadline=None)
@given(case=requery_cases())
@example(case=(3, [([1, 2, 0], 1), ([2, 4, 0], 2), ([-1, -2, 0], -5)], None,
               [([1, 2, 1], 0), ([1, 2, 0], 1)]))                   # rank 1, dropped rows
def test_zero_right_hand_side_is_a_query_at_coeffs_zero(case):
    """Setting the right-hand side to 0, as `relax` does, leaves the tableau
    exactly as `query` at coeffs 0 does, after the build and after each
    question, INFEASIBLE ones included: the same status, value, basis,
    denominator and rows, and no pivot."""
    dim, rows, build, queries = case
    tableau = DualTableau(rows, dim)
    for coeffs in [build or [0] * dim] + [coeffs for coeffs, _ in queries]:
        tableau.query(coeffs)
        queried, direct = copy.deepcopy(tableau), copy.deepcopy(tableau)
        assert queried.query([0] * dim) == OPTIMAL
        direct._at_zero()
        assert (direct.status, direct.value, direct._basis, direct._d, direct._rows,
                direct._rhs_scale) == (queried.status, queried.value, queried._basis,
                                       queried._d, queried._rows, queried._rhs_scale)
        assert direct._basis == tableau._basis and direct._d == tableau._d


@st.composite
def redundant_systems(draw):
    """A numeric system over 1-4 variables whose rows are drawn rows, rows
    implied by two of them (their sum, its constant lowered by a slack that
    may be 0) and rows scaled from them; sometimes rank deficient, and
    sometimes empty."""
    names = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    n = len(names)
    const = st.one_of(st.integers(-3, 3),
                      st.builds(lambda v, k: Fraction(v, 1 << k),
                                st.integers(-(1 << 41), 1 << 41), st.integers(0, 40)))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(vec, const), min_size=1, max_size=6))
    if n > 1 and draw(st.booleans()):
        rows = [(co[:-1] + [-co[0]], ct) for co, ct in rows]
    for _ in range(draw(st.integers(0, 4))):
        (a, b), (c, e) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        slack = draw(st.sampled_from([0, 0, 1, Fraction(1, 2 ** 40)]))
        rows.append(([u + v for u, v in zip(a, c)], b + e - slack))
    rows += [([3 * v for v in co], 3 * ct + draw(st.integers(-1, 1)))
             for co, ct in draw(st.lists(st.sampled_from(rows), max_size=2))]
    system = LinIneqSystem(names)
    for co, ct in draw(st.permutations(rows)):
        system.add(dict(zip(names, co)), ct)
    return system


@settings(max_examples=1000, deadline=None)
@given(system=redundant_systems())
def test_remove_redundant_is_the_fresh_build_filter(system):
    """`remove_redundant` keeps the rows that the deletion filter keeps with
    a fresh build per test, from one tableau build per call (counted on
    both the `regions` and the `simplex` name, so builds through `solve_lp`
    count too).  Each dropped row carries multipliers of the
    relaxed tableau, y >= 0 with A^T y = a_k and b'.y >= c_k, b' the
    constants with row k and every row dropped before it lowered by 1; so
    b.y >= c_k under the true constants too, since relaxing only lowers b.
    The output is irredundant: the kept rows imply every dropped row and no
    kept row follows from the others."""
    builds, certificates = [], []

    class Watched(DualTableau):
        def __init__(self, *args):
            super().__init__(*args)
            builds.append(args)

        def implies(self, coeffs, const):
            verdict = super().implies(coeffs, const)
            if verdict:
                certificates.append(multipliers(self))
            return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regions, "DualTableau", Watched)
        patch.setattr(simplex, "DualTableau", Watched)
        out = regions.remove_redundant(system)
    canonical = system.canonicalize()
    assert len(builds) == (0 if canonical.infeasible else 1)
    assert out.render() == deletion_filter(system, fresh_implied).render()
    if out.infeasible:
        return
    rows, dim = canonical.dense_rows(), len(system.vars)
    kept = [rows[k] for k, row in enumerate(canonical.rows) if row in out.rows]
    dropped = [rows[k] for k, row in enumerate(canonical.rows) if row not in out.rows]
    assert len(certificates) == len(dropped)
    relaxed = list(rows)
    for (coeffs, const), y in zip(dropped, certificates):
        k = rows.index((coeffs, const))
        relaxed[k] = (coeffs, const - 1)
        assert all(v >= 0 for v in y)
        assert all(sum(v * co[i] for v, (co, _) in zip(y, rows)) == coeffs[i] for i in range(dim))
        assert sum(v * ct for v, (_, ct) in zip(y, relaxed)) >= const
        assert sum(v * ct for v, (_, ct) in zip(y, rows)) >= const
        assert fresh_implied(coeffs, const, kept, dim)
    for k, (coeffs, const) in enumerate(kept):
        assert not fresh_implied(coeffs, const, kept[:k] + kept[k + 1:], dim)


def test_bland_fallback_ends_beales_cycle_inside_relax(monkeypatch):
    """Beale's example (see `test_bland_fallback_ends_beales_cycle`) met by
    `relax`.  The dual of the rows a_j.x >= 0 over four variables, a_j the
    columns of Beale's constraint matrix (x4..x7, three slacks) and of one
    more equality row (3, -80, 2, -24, 0, 0, 0, 1), is set by hand to the
    slack basis, with the eighth column basic in the new row.  At cost 0
    that basis is optimal, and D B^-1 = diag(2, 4, 8, 8) at D = 8.
    `relax(7, 1)` raises that basic column's cost to 1, which prices out to
    8 times Beale's reduced costs; at coeffs 0 every right-hand side is 0,
    so the minimization is Beale's cycle with no third-row bound.  Without
    the fallback to Bland's rule it cycles; with it, it ends at cost 0."""
    columns = [(Fraction(1, 4), Fraction(1, 2), 0, 3), (-8, -12, 0, -80),
               (-1, Fraction(-1, 2), 1, 2), (9, 3, 0, -24),
               (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    rows = [(list(co), 0) for co in columns]

    def run():
        pivots.clear()
        tableau = DualTableau(rows, 4)
        tableau._rows = [[2, -64, -8, 72, 8, 0, 0, 0, 2, 0, 0, 0, 0],
                         [4, -96, -4, 24, 0, 8, 0, 0, 0, 4, 0, 0, 0],
                         [0, 0, 8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0],
                         [24, -640, 16, -192, 0, 0, 0, 8, 0, 0, 0, 8, 0],
                         [0] * 13]
        tableau._basis, tableau._d = [4, 5, 6, 7], 8
        pivots.clear()
        return tableau, tableau.relax(7, 1)

    pivots = []
    pivot = simplex._pivot

    def capped(*args):
        pivots.append(args[2:])
        if len(pivots) > 100:
            raise AssertionError("no optimum within 100 pivots")
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", capped)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_DEGENERATE_RUN", 10 ** 9)
        with pytest.raises(AssertionError, match="within 100 pivots"):
            run()
        assert pivots[:6] == pivots[6:12]
    tableau, status = run()
    assert status == OPTIMAL and tableau.value == 0 and len(pivots) < 20
    relaxed = rows[:7] + [(rows[7][0], -1)]
    for coeffs in ([0, 0, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]):
        fresh = DualTableau(relaxed, 4)
        assert (tableau.query(coeffs), tableau.value) == (fresh.query(coeffs), fresh.value)
