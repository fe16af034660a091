"""Exact linear programming over the rationals.

A small dense simplex, used to certify redundancy removal,
membership/containment queries, and auxiliary-rate feasibility.
Floating-point LP is unsound for those certificates, so every pivot here is
exact.  Problem sizes in this package are tiny (tens of rows), so a full
tableau is fine.

Every LP min c.x s.t. A x >= b over free x is solved on its dual,
max b.y s.t. A^T y = c, y >= 0: one equality row per variable and one
column per inequality, so a system of d variables and m rows pivots a
d x (m + d) tableau.  By Farkas' lemma and strong duality the answers agree,
and both are exact.  Between questions about one system only the
right-hand side c changes, or one cost entry -b_k when row k's constant is
relaxed, so a :class:`DualTableau` is built once per system, at c = 0, and
answers many.  At c = 0, y = 0 is dual feasible and every basis is primal
feasible, so the build ends optimal, or unbounded when the rows are empty.
Its phase 1 starts from one artificial column per equality row and keeps
an objective of 0 throughout, but its pivots choose the structural basis
that phase 2 starts from.  The artificial columns are kept and every pivot
updates them, but they are never priced for entry.  Kept, they hold D B^-1
for the current basis B, so the tableau is always that matrix times
[S A^T | I | S c], S being the per-row scaling fixed at build.  A new c
then costs one integer matrix-vector product: the right-hand side column
becomes D B^-1 (S c), the objective entry the cost row's artificial part
times S c, and each equality row phase 1 dropped as redundant keeps its
artificial part, whose product with S c must be 0 or the new dual is
infeasible.  A new c leaves the last optimal basis dual feasible, and
:meth:`DualTableau.query` re-optimizes it by dual simplex pivots
(C. E. Lemke, "The dual method of solving the linear programming problem",
Naval Res. Logist. Q., 1954): a row with a negative right-hand side leaves,
the column with the least ratio cost_j / |T_rj| over T_rj < 0 enters, and
the query is OPTIMAL once every row is feasible, or its dual INFEASIBLE
(the rows do not bound c.x below) when a negative row has no negative
entry.  A new cost entry is set at c = 0, and :meth:`DualTableau.relax`
re-optimizes by primal pivots.  At c = 0 every right-hand side is 0, so
relax sets that column to 0 directly, with no product and no dual pivot.
The cost row's artificial part is minus D times the simplex multipliers of
the equality rows, which are the primal point: x = S times it, over D, with
the coordinates of dropped rows at 0.

The tableau holds Python integers.  Region systems come in as integer rows
(gcd-1 coefficients, constants over one common denominator) and become
equality rows as they are; rational rows are scaled per equality row by the
lcm of its denominators, the right-hand side once per question by the lcm of
its, and the cost once by the lcm of its; integers pass through each of
these as they are, with scale 1 (:func:`rational.integer_scaled`).  The
tableau is an integer matrix T over one positive common denominator D, the
true tableau being T / D.  A pivot on T[r][c] replaces every other row by
(|T[r][c]| T[i] - sgn(T[r][c]) T[i][c] T[r]) / D, a division that is always
exact, and sets D = |T[r][c]| (E. H. Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp., 1968): D
stays the absolute determinant of the basis and every entry is a minor of
the scaled matrix, so entries stay small.  Primal pivots enter the column
with the most negative reduced cost (Dantzig's rule), dual pivots leave the
row with the most negative right-hand side; after a run of degenerate
pivots either switches to the smallest index (Bland's rule) until a pivot
moves the objective, so neither can cycle (R. G. Bland, "New finite
pivoting rules for the simplex method", Math. Oper. Res., 1977).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .rational import integer_scaled

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

# consecutive degenerate pivots after which Bland's rule prices
_DEGENERATE_RUN = 8


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction] = None
    x: Optional[list] = None


def _pivot(rows, d, r, c):
    """Integer-preserving pivot of `rows` on rows[r][c] at denominator d > 0.

    Every row is an integer list whose true values are its entries over d.
    Returns the new denominator |rows[r][c]|: a negative pivot row is
    negated first.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-v for v in prow]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        elif p != d:
            rows[i] = [p * a // d for a in row]
    return p


def _minimize(rows, basis, d, ncols):
    """Minimize over the tableau `rows`: constraint rows with their right-hand
    side last, then the reduced-cost row, whose last entry is minus the
    objective; `basis[r]` is the column basic in row r, and only the first
    `ncols` columns are priced.

    Returns (bounded, d): False when the objective is unbounded below.
    """
    degenerate = 0
    while True:
        cost = rows[-1]
        negative = [j for j in range(ncols) if cost[j] < 0]
        if not negative:
            return True, d
        if degenerate < _DEGENERATE_RUN:
            enter = min(negative, key=cost.__getitem__)
        else:
            enter = negative[0]
        # ratio test: least rhs / a over a > 0 by cross-multiplication, ties
        # to the lowest basic column
        best = None
        for r, row in enumerate(rows[:-1]):
            a = row[enter]
            if a > 0 and (best is None or row[-1] * best_a < best_rhs * a or (
                    row[-1] * best_a == best_rhs * a and basis[r] < basis[best])):
                best, best_rhs, best_a = r, row[-1], a
        if best is None:
            return False, d
        degenerate = degenerate + 1 if best_rhs == 0 else 0
        d = _pivot(rows, d, best, enter)
        basis[best] = enter


def _reoptimize(rows, basis, d, ncols):
    """Dual simplex on the tableau `rows` (laid out as for :func:`_minimize`),
    whose first `ncols` reduced costs are >= 0.

    Returns (feasible, d): False when a row with a negative right-hand side
    has no negative entry among those columns, so no right-hand side makes
    it feasible.
    """
    degenerate = 0
    while True:
        negative = [r for r in range(len(rows) - 1) if rows[r][-1] < 0]
        if not negative:
            return True, d
        if degenerate < _DEGENERATE_RUN:
            leave = min(negative, key=lambda r: rows[r][-1])
        else:
            leave = min(negative, key=basis.__getitem__)
        # ratio test: least cost_j / |a| over a < 0 by cross-multiplication,
        # ties to the lowest column
        row, cost = rows[leave], rows[-1]
        best = None
        for j in range(ncols):
            a = row[j]
            if a < 0 and (best is None or cost[j] * best_a > best_cost * a):
                best, best_cost, best_a = j, cost[j], a
        if best is None:
            return False, d
        degenerate = degenerate + 1 if best_cost == 0 else 0
        d = _pivot(rows, d, leave, best)
        basis[leave] = best


class DualTableau:
    """The dual of min c.x s.t. A x >= b for one system and many objectives c.

    `ge_rows` is a sequence of (coefficient list, constant) pairs over `dim`
    variables.  The build solves max b.y s.t. A^T y = 0, y >= 0 by two
    phases; :meth:`query` moves to other coeffs c by dual pivots, and
    :meth:`relax` moves one row's constant, b_k, by primal pivots at c = 0.
    `status` answers the last c: OPTIMAL with `value` = max b.y = min c.x
    over the rows; UNBOUNDED when the rows are empty; INFEASIBLE when c.x is
    unbounded below on them.  A build ends OPTIMAL or UNBOUNDED, and only an
    OPTIMAL tableau can be queried again.
    """

    def __init__(self, ge_rows: Sequence[tuple], dim: int):
        if any(len(co) != dim for co, _ in ge_rows):
            raise ValueError("row arity differs from dimension %d" % dim)
        n = self._ncols = len(ge_rows)
        self._rows, self._rhs_scale = None, 1   # no basis until the build ends OPTIMAL
        columns = [list(col) for col in zip(*(co for co, _ in ge_rows))] if ge_rows \
            else [[] for _ in range(dim)]
        self._scales = [1] * dim
        if not {type(v) for col in columns for v in col} <= {int}:
            columns, self._scales = map(list, zip(*map(integer_scaled, columns)))
        rows = [col + [0] * (dim + 1) for col in columns]
        for i, row in enumerate(rows):
            row[n + i] = 1
        basis = [n + i for i in range(dim)]

        # phase 1: minimize the artificial sum, priced out against the basis;
        # it stays 0, but its pivots pick the basis phase 2 starts from, and
        # the artificial columns' own reduced costs start at 0 and never price
        phase1 = [-sum(col) for col in zip(*rows)] if rows else [0] * (n + 1)
        phase1[n:n + dim] = [0] * dim
        rows.append(phase1)
        _, d = _minimize(rows, basis, 1, n)
        rows.pop()

        # drive leftover artificials out of the basis; a row with no
        # structural entry left is redundant, and only its artificial part
        # is kept, to check later right-hand sides against
        self._dropped = []
        kept = []
        for r in range(dim):
            if basis[r] >= n:
                col = next((j for j in range(n) if rows[r][j] != 0), None)
                if col is None:
                    self._dropped.append(rows[r][n:-1])
                    continue
                d = _pivot(rows, d, r, col)
                basis[r] = col
            kept.append(r)
        rows = [rows[r] for r in kept]
        basis = [basis[r] for r in kept]

        # phase 2: minimize -b.y, the scaled cost priced out against the basis, over d
        c_int, self._cost_scale = integer_scaled([-ct for _, ct in ge_rows])
        cost = [d * v for v in c_int] + [0] * (dim + 1)
        for row, bvar in zip(rows, basis):
            if c_int[bvar]:
                cost = [a - c_int[bvar] * v for a, v in zip(cost, row)]
        rows.append(cost)
        bounded, d = _minimize(rows, basis, d, n)
        self.status = OPTIMAL if bounded else UNBOUNDED
        if bounded:
            self._rows, self._basis, self._d = rows, basis, d

    def _value_denominator(self):
        return self._d * self._cost_scale * self._rhs_scale

    @property
    def value(self) -> Optional[Fraction]:
        """max b.y = min coeffs.x for the last coeffs, when OPTIMAL."""
        if self.status != OPTIMAL:
            return None
        return Fraction(self._rows[-1][-1], self._value_denominator())

    def _require_basis(self):
        if self._rows is None:
            raise ValueError("the tableau ended %s: no basis to re-optimize" % self.status)

    def _at_zero(self):
        """What :meth:`query` at coeffs 0 does, without its products: every
        right-hand side, the objective's included, is 0, so the basis is
        primal feasible and optimal as it is, and no pivot is made."""
        self._require_basis()
        for row in self._rows:
            row[-1] = 0
        self._rhs_scale, self.status = 1, OPTIMAL

    def query(self, coeffs: Sequence) -> str:
        """Re-optimize for new coeffs from the last basis; returns `status`.
        Integer coeffs enter the right-hand side as they are."""
        self._require_basis()
        if len(coeffs) != len(self._scales):
            raise ValueError("row arity differs from dimension %d" % len(self._scales))
        rhs, self._rhs_scale = integer_scaled([s * c for s, c in zip(self._scales, coeffs)])
        if any(sum(map(mul, art, rhs)) for art in self._dropped):
            self.status = INFEASIBLE
            return self.status
        n = self._ncols
        for row in self._rows:
            row[-1] = sum(map(mul, row[n:-1], rhs))
        feasible, self._d = _reoptimize(self._rows, self._basis, self._d, n)
        self.status = OPTIMAL if feasible else INFEASIBLE
        return self.status

    def relax(self, k: int, delta: int) -> str:
        """Lower row k's constant by the integer `delta` (raise it when
        negative) and re-optimize at coeffs 0; returns `status`, UNBOUNDED
        when the rows become empty.  At coeffs 0 every basis is feasible:
        y_k's cost entry rises by delta, priced out against its row when y_k
        is basic, and primal pivots restore optimality."""
        self._at_zero()
        rows, step = self._rows, delta * self._cost_scale
        rows[-1][k] += step * self._d
        if k in self._basis:
            rows[-1] = [a - step * v for a, v in zip(rows[-1], rows[self._basis.index(k)])]
        bounded, self._d = _minimize(rows, self._basis, self._d, self._ncols)
        if not bounded:
            self._rows, self.status = None, UNBOUNDED
        return self.status

    def implies(self, coeffs: Sequence, const) -> bool:
        """True iff the rows imply coeffs.x >= const: vacuously when they
        are empty (UNBOUNDED), else when :meth:`query` coeffs finds
        min coeffs.x >= const."""
        return self.status == UNBOUNDED or (self.query(coeffs) == OPTIMAL and (
            self._rows[-1][-1] >= const * self._value_denominator()))

    def point(self) -> list:
        """An x attaining min coeffs.x for the last query: S times the cost
        row's artificial part, over D."""
        if self.status != OPTIMAL:
            raise ValueError("no optimum: the last query is %s" % self.status)
        den = self._d * self._cost_scale
        return [Fraction(s * v, den) for s, v in zip(self._scales, self._rows[-1][self._ncols:-1])]


def solve_lp(objective: Sequence, ge_rows: Sequence[tuple]) -> LpResult:
    """Minimize objective . x over free x subject to coeffs . x >= const.

    `ge_rows` is a sequence of (coefficient list, constant) pairs.  One
    :class:`DualTableau` build decides emptiness (an unbounded dual), and
    one query the objective: an infeasible dual means it is unbounded
    below, an optimal one gives the optimum and x from the cost row.
    """
    tableau = DualTableau(ge_rows, len(objective))
    if tableau.status == UNBOUNDED:
        return LpResult(INFEASIBLE)
    if tableau.query(objective) == INFEASIBLE:
        return LpResult(UNBOUNDED)
    return LpResult(OPTIMAL, tableau.value, tableau.point())


def feasible_point(ge_rows: Sequence[tuple], dim: int) -> Optional[list]:
    """A point satisfying all rows, or None when the system is infeasible."""
    return solve_lp([0] * dim, ge_rows).x
