"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule, used to certify
redundancy removal, membership/containment queries, and auxiliary-rate
feasibility.  Floating-point LP is unsound for those certificates, so every
pivot here is performed in :class:`fractions.Fraction` arithmetic.  Problem
sizes in this package are tiny (tens of rows), so a full tableau is fine.

Every LP min c.x s.t. A x >= b over free x is solved on its dual,
max b.y s.t. A^T y = c, y >= 0: one equality row per variable and one
column per inequality, so a system of d variables and m rows pivots a
d x (m + d) tableau.  By Farkas' lemma and strong duality the answers agree,
and both are exact because both are in rationals.  Yes/no questions ("does
A x >= b imply a.x >= c?", "is A x >= b empty?") are decided by
:func:`implied`.  :func:`solve_lp` also recovers the primal point: the
optimal dual basis names one tight row per kept coordinate, and x solves
those rows, A_B x = b_B, with the coordinates whose dual rows were dropped
as redundant fixed to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction] = None
    x: Optional[list] = None


def _pivot(tableau, cost, basis, row, col):
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


def _run_simplex(tableau, cost, basis):
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
        _pivot(tableau, cost, basis, best[1], enter)


def _standard_form_solve(A, b, c):
    """min c.z  s.t.  A z = b, z >= 0 (all entries Fractions).

    Returns (status, value, z, basis, kept): on OPTIMAL, `kept` lists the
    rows of A left after dropping redundant ones and `basis[r]` is the
    column basic in row `kept[r]`; otherwise only the status is set.
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
    _run_simplex(tableau, cost, basis)
    if -cost[-1] > 0:
        return INFEASIBLE, None, None, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                continue
            _pivot(tableau, cost, basis, r, col)
        keep_rows.append(r)
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep_rows]
    basis = [basis[r] for r in keep_rows]

    cost2 = list(c) + [Fraction(0)]
    for r, row in enumerate(tableau):
        if cost2[basis[r]] != 0:
            factor = cost2[basis[r]]
            cost2 = [a - factor * bb for a, bb in zip(cost2, row)]
    if not _run_simplex(tableau, cost2, basis):
        return UNBOUNDED, None, None, None, None
    z = [Fraction(0)] * n
    for r, bvar in enumerate(basis):
        z[bvar] = tableau[r][-1]
    return OPTIMAL, -cost2[-1], z, basis, keep_rows


def _dual_solve(coeffs: Sequence, ge_rows: Sequence[tuple], dim: int):
    """:func:`_standard_form_solve` of min -b.y s.t. A^T y = coeffs, y >= 0.

    Its dual rows are the coordinates of x and its columns the rows of A.
    """
    if len(coeffs) != dim or any(len(co) != dim for co, _ in ge_rows):
        raise ValueError("row arity differs from dimension %d" % dim)
    columns = [[Fraction(co[i]) for co, _ in ge_rows] for i in range(dim)]
    return _standard_form_solve(columns, [Fraction(v) for v in coeffs],
                                [-Fraction(ct) for _, ct in ge_rows])


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
    tight = [[Fraction(ge_rows[k][0][i]) for i in kept] + [Fraction(ge_rows[k][1])]
             for k in basis]
    no_cost = [Fraction(0)] * (len(kept) + 1)
    cols = [None] * len(kept)
    for col in range(len(kept)):
        row = next(r for r in range(len(kept)) if cols[r] is None and tight[r][col] != 0)
        _pivot(tight, no_cost, cols, row, col)
    x = [Fraction(0)] * d
    for r, col in enumerate(cols):
        x[kept[col]] = tight[r][-1]
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
    return solve_lp([Fraction(0)] * dim, ge_rows).x
