"""Exact linear programming over the rationals.

A small dense two-phase simplex, used to certify redundancy removal,
membership/containment queries, and auxiliary-rate feasibility.
Floating-point LP is unsound for those certificates, so every pivot here is
exact.  Problem sizes in this package are tiny (tens of rows), so a full
tableau is fine.

Every LP min c.x s.t. A x >= b over free x is solved on its dual,
max b.y s.t. A^T y = c, y >= 0: one equality row per variable and one
column per inequality, so a system of d variables and m rows pivots a
d x (m + d) tableau.  By Farkas' lemma and strong duality the answers agree,
and both are exact.  Yes/no questions ("does A x >= b imply a.x >= c?",
"is A x >= b empty?") are decided by :func:`implied`.  :func:`solve_lp` also
recovers the primal point: the optimal dual basis names one tight row per
kept coordinate, and x solves those rows, A_B x = b_B, with the coordinates
whose dual rows were dropped as redundant fixed to 0.

The tableau holds Python integers.  Region systems come in as integer rows
(gcd-1 coefficients, constants over one common denominator) and become
equality rows as they are; rational rows are scaled per equality row by the
lcm of its denominators, and the cost once by the lcm of its.  The tableau
is an integer matrix T over one positive common denominator D, the true
tableau being T / D.  A pivot on T[r][c] replaces every other row by
(T[r][c] T[i] - T[i][c] T[r]) / D, a division that is always exact, and
sets D = T[r][c] (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp., 1968): D stays the
absolute determinant of the basis and every entry is a minor of the scaled
matrix, so entries stay small.  The entering column has the most negative
reduced cost (Dantzig's rule); after a run of degenerate pivots the first
negative column enters instead (Bland's rule) until a pivot moves the
objective, so the method cannot cycle (R. G. Bland, "New finite pivoting
rules for the simplex method", Math. Oper. Res., 1977).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    Returns the new denominator, positive: a negative pivot first negates
    every row and d.
    """
    p = rows[r][c]
    if p < 0:
        rows[:] = [[-v for v in row] for row in rows]
        p, d = -p, -d
    prow = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        elif p != d:
            rows[i] = [p * a // d for a in row]
    return p


def _minimize(rows, basis, d):
    """Minimize over the tableau `rows`: constraint rows with their right-hand
    side last, then the reduced-cost row, whose last entry is minus the
    objective; `basis[r]` is the column basic in row r.

    Returns (bounded, d): False when the objective is unbounded below.
    """
    ncols = len(rows[-1]) - 1
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


def _standard_form_solve(rows, c):
    """min c.z  s.t.  A z = b, z >= 0: `rows` are the integer rows [*A_i, b_i],
    and `c` holds ints or Fractions.

    Returns (status, value, z, basis, kept): on OPTIMAL, `kept` lists the
    rows of A left after dropping redundant ones and `basis[r]` is the
    column basic in row `kept[r]`; otherwise only the status is set.
    """
    m = len(rows)
    n = len(c)
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]
    # artificial columns are not stored: one that leaves the basis never re-enters
    basis = [n + i for i in range(m)]

    # phase 1: minimize the artificial sum, priced out against the basis
    rows.append([-sum(col) for col in zip(*rows)] if rows else [0] * (n + 1))
    _, d = _minimize(rows, basis, 1)
    if rows.pop()[-1] < 0:   # a positive artificial sum at the optimum
        return INFEASIBLE, None, None, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if rows[r][j] != 0), None)
            if col is None:
                continue
            d = _pivot(rows, d, r, col)
            basis[r] = col
        keep_rows.append(r)
    rows = [rows[r] for r in keep_rows]
    basis = [basis[r] for r in keep_rows]

    # phase 2: the scaled cost priced out against the basis, over d
    c_int, scale = integer_scaled(c)
    cost = [d * v for v in c_int] + [0]
    for row, bvar in zip(rows, basis):
        if c_int[bvar]:
            cost = [a - c_int[bvar] * v for a, v in zip(cost, row)]
    rows.append(cost)
    bounded, d = _minimize(rows, basis, d)
    if not bounded:
        return UNBOUNDED, None, None, None, None
    z = [Fraction(0)] * n
    for r, bvar in enumerate(basis):
        z[bvar] = Fraction(rows[r][-1], d)
    return OPTIMAL, Fraction(-rows[-1][-1], d * scale), z, basis, keep_rows


def _dual_solve(coeffs: Sequence, ge_rows: Sequence[tuple], dim: int):
    """:func:`_standard_form_solve` of min -b.y s.t. A^T y = coeffs, y >= 0.

    Its dual rows are the coordinates of x and its columns the rows of A.
    """
    if len(coeffs) != dim or any(len(co) != dim for co, _ in ge_rows):
        raise ValueError("row arity differs from dimension %d" % dim)
    columns = zip(*(co for co, _ in ge_rows)) if ge_rows else [()] * dim
    rows = [[*col, b] for col, b in zip(columns, coeffs)]
    if not {type(v) for row in rows for v in row} <= {int}:
        rows = [integer_scaled(row)[0] for row in rows]
    return _standard_form_solve(rows, [-ct for _, ct in ge_rows])


def solve_lp(objective: Sequence, ge_rows: Sequence[tuple]) -> LpResult:
    """Minimize objective . x over free x subject to coeffs . x >= const.

    `ge_rows` is a sequence of (coefficient list, constant) pairs.  Solved
    on the dual: an optimal dual gives the optimum, with x from the tight
    rows of its basis; an unbounded dual means the rows are empty; an
    infeasible dual means the rows are empty or the objective is unbounded
    below, told apart by the emptiness test of :func:`implied`.
    """
    d = len(objective)
    status, value, _, basis, kept = _dual_solve(objective, ge_rows, d)
    if status == UNBOUNDED:
        return LpResult(INFEASIBLE)
    if status == INFEASIBLE:
        return LpResult(INFEASIBLE if implied([0] * d, 1, ge_rows, d) else UNBOUNDED)
    # A_B x = b_B on the kept coordinates by Gauss-Jordan pivots: A_B is the
    # transposed dual basis matrix, so it is invertible
    tight = [integer_scaled([ge_rows[k][0][i] for i in kept] + [ge_rows[k][1]])[0]
             for k in basis]
    den = 1
    cols = [None] * len(kept)
    for col in range(len(kept)):
        row = next(r for r in range(len(kept)) if cols[r] is None and tight[r][col] != 0)
        den = _pivot(tight, den, row, col)
        cols[row] = col
    x = [Fraction(0)] * d
    for r, col in enumerate(cols):
        x[kept[col]] = Fraction(tight[r][-1], den)
    return LpResult(OPTIMAL, -value, x)


def implied(coeffs: Sequence, const, ge_rows: Sequence[tuple], dim: int) -> bool:
    """True iff every x with coeffs_k . x >= const_k for all rows has coeffs . x >= const.

    Decided on the dual max b.y s.t. A^T y = coeffs, y >= 0.  An unbounded
    dual means the rows are empty (the implication holds vacuously); an
    optimal one attains max b.y = min coeffs . x over the rows.  An
    infeasible dual means coeffs . x is unbounded below, which answers False
    only when the rows are nonempty: callers guarantee that.  Emptiness is
    ``implied([0] * dim, 1, ge_rows, dim)``, whose dual is feasible at y = 0.
    """
    status, value = _dual_solve(coeffs, ge_rows, dim)[:2]
    if status == UNBOUNDED:
        return True
    return status == OPTIMAL and -value >= const


def feasible_point(ge_rows: Sequence[tuple], dim: int) -> Optional[list]:
    """A point satisfying all rows, or None when the system is infeasible."""
    return solve_lp([0] * dim, ge_rows).x
