"""Linear inequality systems over named rate variables.

Every inequality has the sense ``sum(coef*var) >= const``; the constant is a
rational plus a rational combination of named entropy terms (``Hsup(...)`` /
``Hinf(...)``) that can later be bound to rational values.  A system keeps
each row as integers over one positive denominator, in lowest terms: the
rate coefficients, the term coefficients and the offset, ``(a, t, o, q)``
for ``a.x / q >= (t.H + o) / q``.  These integer rows are the only exact
form of an inequality: canonicalization, binding, text and Fourier-Motzkin
elimination all work on them.  Canonicalization scales each row so its rate
coefficients are integers with gcd 1 and orders rows deterministically,
which is what makes golden-file equality tests possible.  Rows go in and
come out as (coefficients, constant) pairs: :meth:`LinIneqSystem.extend`
takes them, the region builders' among them, and
:attr:`LinIneqSystem.ineqs` yields them, the constant a :class:`LinConst`;
:meth:`LinIneqSystem.parse` makes integer rows directly.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Optional

from .errors import ConfigurationError
from .rational import integer_scaled


# -- entropy terms ---------------------------------------------------------------

SUP = "sup"
INF = "inf"


@dataclass(frozen=True, order=True)
class EntropyTerm:
    """A named spectral entropy quantity, e.g. Hsup(W1,W2|Y1).

    `kind` distinguishes sup- from inf-entropy rates; for stationary
    memoryless sources both bind to the same Shannon value.  The names of
    `left` and `given` are kept in natural order, so terms built from
    reordered names are equal.  The hash of (kind, left, given) is taken
    once, at construction, since terms key every column and binding lookup;
    it takes no part in equality, order or repr.
    """

    kind: str
    left: tuple
    given: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (SUP, INF):
            raise ConfigurationError("entropy term kind must be sup or inf")
        object.__setattr__(self, "left", tuple(sorted(self.left, key=_natural_key)))
        object.__setattr__(self, "given", tuple(sorted(self.given, key=_natural_key)))
        if not self.left:
            raise ConfigurationError("entropy term needs at least one left variable")
        object.__setattr__(self, "_hash", hash((self.kind, self.left, self.given)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string hash differs between processes
        return EntropyTerm, (self.kind, self.left, self.given)

    def render(self) -> str:
        head = "Hsup" if self.kind == SUP else "Hinf"
        if self.given:
            return "%s(%s|%s)" % (head, ",".join(self.left), ",".join(self.given))
        return "%s(%s)" % (head, ",".join(self.left))

    def __str__(self):
        return self.render()


@functools.lru_cache(maxsize=4096)
def _natural_key(name: str):
    """Digit runs compare as numbers; the name itself breaks ties ("R_01", "R_1").
    Cached: every term and system sorts its names with it."""
    return (tuple(int(part) if part.isdigit() else part
                  for part in re.split(r"(\d+)", str(name))), str(name))


def _exact(value):
    """`value` as an int or a Fraction: as it is when it is one already."""
    return value if type(value) in (int, Fraction) else Fraction(value)


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, without the Fraction."""
    g = gcd(num, den)
    return str(num // g) if den == g else "%d/%d" % (num // g, den // g)


def _signed_sum(parts) -> str:
    """``a + b - c`` from (positive, magnitude text) pairs."""
    out = ""
    for positive, body in parts:
        out += ((" + " if positive else " - ") if out else ("" if positive else "-")) + body
    return out


# -- systems -----------------------------------------------------------------------


@dataclass(frozen=True)
class LinConst:
    """A row's constant as data: a rational `offset` plus the rational
    coefficients of entropy terms, `terms` holding only the nonzero ones."""

    offset: Fraction = Fraction(0)
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "terms", {t: Fraction(c) for t, c in self.terms.items() if c})


class LinIneqSystem:
    """Rate variables, entropy-term columns in order of first use, and `rows`.

    Each row is one tuple of integers, ``(*a, *t, o, q)``, and stays in that
    form from the moment it is built to the moment the simplex reads it:
    :meth:`extend` and :meth:`add` convert (coefficients, constant) pairs,
    the region builders' among them, once, and :meth:`parse` reads its text
    into rows.  `canonical` marks a system whose rows are already in
    canonical form and order: the result of :meth:`canonicalize` and a
    subset of its rows kept in order (as :func:`regions.remove_redundant`
    keeps them).  A marked system is not canonicalized again, and
    :meth:`dense_rows` and :attr:`denominator` read its rows as they are;
    :meth:`extend` and :meth:`add` clear the mark.
    """

    def __init__(self, vars: Sequence[str], ineqs: Iterable[tuple] = (),
                 infeasible: bool = False):
        vars = list(vars)
        if len(set(vars)) != len(vars):
            raise ConfigurationError("duplicate variable names in system")
        self.vars = tuple(sorted(vars, key=_natural_key))
        self.terms: tuple = ()
        self.rows: list = []
        self.infeasible = infeasible
        self.canonical = False
        self.extend(ineqs)

    def with_rows(self, rows: list, infeasible: bool = False, vars: Optional[tuple] = None,
                  terms: Optional[tuple] = None, canonical: bool = False) -> "LinIneqSystem":
        """A system holding `rows` over this one's columns, or `vars` and `terms`;
        `canonical` marks rows that are canonical and in canonical order."""
        out = LinIneqSystem.__new__(LinIneqSystem)
        out.vars = self.vars if vars is None else vars
        out.terms = self.terms if terms is None else terms
        out.rows, out.infeasible, out.canonical = rows, infeasible, canonical
        return out

    def add(self, coeffs: Mapping[str, object], const=0) -> None:
        """Append ``sum(coeffs[v] * v) >= const``: `const` is a rational, a
        :class:`LinConst`, or a mapping of entropy terms to rational coefficients."""
        self.extend([(coeffs, const)])

    def extend(self, rows: Iterable[tuple]) -> None:
        """:meth:`add` every (coeffs, const) pair of `rows`, the form that
        :attr:`ineqs` yields.  A row ``0 >= c`` with c > 0 marks the system
        infeasible, as :meth:`canonicalize` does."""
        self.canonical = False
        rows = [(coeffs, const.terms, const.offset) if isinstance(const, LinConst) else
                (coeffs, const, 0) if isinstance(const, Mapping) else (coeffs, {}, const)
                for coeffs, const in rows]
        column = {v: k for k, v in enumerate(self.vars)}
        for coeffs, _, _ in rows:
            if not coeffs.keys() <= column.keys():
                raise ConfigurationError("unknown variable %r"
                                         % next(v for v in coeffs if v not in column))
        column.update((t, k) for k, t in enumerate(self.terms, len(column)))
        known = len(column)
        for _, terms, _ in rows:
            for t, c in terms.items():
                if c and t not in column:
                    column[t] = len(column)
        if len(column) > known:
            # new term columns go in front of the offset; older rows hold 0 there
            self.rows = [row[:-2] + (0,) * (len(column) - known) + row[-2:] for row in self.rows]
            self.terms = tuple(column)[len(self.vars):]
        for coeffs, terms, offset in rows:
            values = [0] * len(column) + [offset]
            for key, c in coeffs.items():
                values[column[key]] = c
            for key, c in terms.items():
                if c:
                    values[column[key]] = c
            if offset > 0 and not any(values[:-1]):
                self.infeasible = True
            if {*map(type, coeffs.values()), *map(type, terms.values()), type(offset)} <= {int}:
                self.rows.append((*values, 1))
            else:
                ints, den = integer_scaled([Fraction(v) for v in values])
                self.rows.append((*ints, den))

    @property
    def ineqs(self) -> tuple:
        """The rows as exact (coefficients, :class:`LinConst`) pairs, the form
        :meth:`extend` takes, built on each access.  They carry the infeasible
        flag only through a ``0 >= c`` row: a system found empty by the LP,
        which has no such row, needs the flag passed beside them."""
        n = len(self.vars)
        return tuple(({v: Fraction(c, row[-1]) for v, c in zip(self.vars, row) if c},
                      LinConst(Fraction(row[-2], row[-1]), {
                          t: Fraction(c, row[-1]) for t, c in zip(self.terms, row[n:-2])}))
                     for row in self.rows)

    def _canonical_rows(self):
        """The rows, each in canonical form (not deduplicated or ordered)."""
        if self.canonical:
            return self.rows
        n = len(self.vars)
        return [_canonical(row, n) for row in self.rows]

    @property
    def denominator(self) -> int:
        """The lcm of the rows' constant denominators once rows are canonical."""
        return lcm(*(row[-1] for row in self._canonical_rows()))

    def dense_rows(self, scale: Optional[int] = None) -> list:
        """Canonical rows of a numeric system as (gcd-1 integer coefficients over
        self.vars, integer constant times `scale`, a multiple of :attr:`denominator`
        and by default that).  They bound the polyhedron stretched by `scale`."""
        n, rows = len(self.vars), self._canonical_rows()
        scale = scale or lcm(*(row[-1] for row in rows))
        return [(tuple(v // row[-1] for v in row[:n]), row[-2] * (scale // row[-1]))
                for row in rows]

    @property
    def is_numeric(self) -> bool:
        return not any(any(row[len(self.vars):-2]) for row in self.rows)

    def bind(self, binding: Mapping[EntropyTerm, Fraction]) -> "LinIneqSystem":
        """The numeric system under `binding`: one integer product of each row's
        term coefficients and the values over the lcm of their denominators.
        Every term that a row uses must be bound; one error names each missing
        term, sorted by its text."""
        n = len(self.vars)
        used = {t for t, column in zip(self.terms, list(zip(*self.rows))[n:-2]) if any(column)}
        missing = sorted((t for t in used if t not in binding), key=EntropyTerm.render)
        if missing:
            raise ConfigurationError(
                "missing entropy terms: %s" % ", ".join(t.render() for t in missing))
        values, scale = integer_scaled([_exact(binding[t]) if t in used else 0
                                        for t in self.terms])
        rows = [(*(v * scale for v in row[:n]), sum(map(mul, row[n:-2], values))
                 + row[-2] * scale, row[-1] * scale) for row in self.rows]
        return self.with_rows(rows, self.infeasible, terms=())

    # -- canonical form ------------------------------------------------------------

    def canonicalize(self) -> "LinIneqSystem":
        """Integer gcd-1 coefficients, duplicate collapse, deterministic order.

        For numeric rows, rows sharing a coefficient vector keep only the
        largest constant (dominance), and tautologies ``0 >= c`` with c <= 0
        are dropped; an unsatisfiable ``0 >= c`` row marks the system
        infeasible and is kept.  Rows with symbolic constants collapse only
        when equal.  A system marked `canonical` comes back as a copy.
        """
        if self.canonical:
            return self.with_rows(list(self.rows), self.infeasible, canonical=True)
        n, infeasible = len(self.vars), self.infeasible
        best, seen, keyed = {}, set(), []   # keyed: (sort key, row) pairs
        for row in self._canonical_rows():
            rate = tuple([v // row[-1] for v in row[:n]])
            # numeric rows first; only 0 >= c rows share coefficients among numeric rows
            if any(row[n:-2]):
                if row not in seen:
                    seen.add(row)
                    keyed.append(((rate, 1, self._render_const(row)), row))
            elif not any(rate):
                if row[-2] > 0:   # else 0 >= nonpositive, a tautology
                    infeasible = True
                    keyed.append(((rate, 0, Fraction(row[-2], row[-1])), row))
            elif rate not in best or row[-2] * best[rate][-1] > best[rate][-2] * row[-1]:
                best[rate] = row
        keyed += (((rate, 0), row) for rate, row in best.items())
        keyed.sort(key=itemgetter(0))
        return self.with_rows([row for _, row in keyed], infeasible, canonical=True)

    # -- text form -------------------------------------------------------------------

    def render(self) -> str:
        lines = ["# vars: %s" % " ".join(self.vars)]
        if self.infeasible:
            lines.append("# infeasible")
        lines.extend(map(self.line, self.rows))
        return "\n".join(lines) + "\n"

    def line(self, row: tuple) -> str:
        """The text of one stored row."""
        lhs = _signed_sum((c > 0, var if abs(c) == row[-1] else "%s*%s" % (
            _ratio(abs(c), row[-1]), var)) for var, c in zip(self.vars, row) if c)
        return "%s >= %s" % (lhs or "0", self._render_const(row))

    def _render_const(self, row: tuple) -> str:
        n, den = len(self.vars), row[-1]
        terms = sorted((t.render(), c) for t, c in zip(self.terms, row[n:-2]) if c)
        parts = [(c > 0, text if abs(c) == den else "%s*%s" % (_ratio(abs(c), den), text))
                 for text, c in terms]
        if not parts:
            return _ratio(row[-2], den)
        if row[-2]:
            parts.append((row[-2] > 0, _ratio(abs(row[-2]), den)))
        return _signed_sum(parts)

    @classmethod
    def parse(cls, text: str) -> "LinIneqSystem":
        """Inverse of :meth:`render` for numeric systems, read straight into
        integer rows; a malformed row, or one naming a variable outside the
        ``# vars:`` line, raises a :class:`ConfigurationError` naming its line."""
        vars, lines, infeasible = [], [], False
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if line.startswith("# vars:"):
                vars = line[len("# vars:"):].split()
            infeasible = infeasible or line.startswith("# infeasible")
            if line and not line.startswith("#"):
                lines.append((lineno, raw, line))
        system = cls(vars, infeasible=infeasible)
        column = {v: k for k, v in enumerate(system.vars)}
        for lineno, raw, line in lines:
            try:
                row = _parse_row(line, column)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigurationError("line %d: %s in %r" % (lineno, exc, raw)) from None
            system.infeasible = system.infeasible or (row[-2] > 0 and not any(row[:-2]))
            system.rows.append(row)
        return system


# an integer or p/q in ASCII digits; every other literal is read by Fraction
_INT_RATIO = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*", re.ASCII)


def _rational(text: str) -> tuple:
    """(numerator, positive denominator) of the literal `text`, as
    ``Fraction(text)`` reads it (a decimal such as 0.5 or 1e3 included), and
    refused with its error; not reduced."""
    match = _INT_RATIO.fullmatch(text)
    if match and int(match[2] or 1):
        return int(match[1]), int(match[2] or 1)
    value = Fraction(text)   # a decimal, or a refusal in Fraction's words
    return value.numerator, value.denominator


def _parse_row(line: str, column: Mapping[str, int]) -> tuple:
    """The integer row of one rendered row over the variables `column`
    numbers; ValueError when malformed."""
    sides = line.split(">=")
    if len(sides) != 2:
        raise ValueError("missing >=" if len(sides) == 1 else "more than one >=")
    text = sides[0].strip()
    if not text:
        raise ValueError("empty left side")
    parts = re.split(r"\s+([+-])\s+", text[1:] if text.startswith("-") else text)
    signs = [-1 if text.startswith("-") else 1] + [1 if op == "+" else -1 for op in parts[1::2]]
    coeffs: dict = {}
    for sign, chunk in zip(signs, parts[0::2]):
        if chunk == "0":
            continue
        mag, var = chunk.split("*", 1) if "*" in chunk else ("1", chunk)
        var = var.strip()
        if var in coeffs:
            raise ValueError("repeated variable %s" % var)
        num, den = _rational(mag)
        coeffs[var] = sign * num, den
    offset = _rational(sides[1].strip())
    values = [(0, 1)] * len(column) + [offset]
    for var, value in coeffs.items():
        if var not in column:
            raise ValueError("unknown variable %r" % (var,))
        values[column[var]] = value
    scale = lcm(*(den for _, den in values))
    row = [num * (scale // den) for num, den in values]
    h = gcd(*row, scale)
    return (*(v // h for v in row), scale // h)


def _canonical(row: tuple, n: int) -> tuple:
    """`row` times the positive factor that makes its rate part integers with gcd
    1, in lowest terms; a row without rate coefficients keeps its values."""
    g = gcd(*row[:n])
    if g and g != row[-1]:
        row = (*row[:-1], g)   # the values times denominator / g
    h = gcd(*row)
    return row if h == 1 else tuple(v // h for v in row)


# -- Fourier-Motzkin elimination -------------------------------------------------------


def fme_eliminate(system: LinIneqSystem, drop: Iterable[str]) -> LinIneqSystem:
    """Project the system onto the variables outside `drop`.

    Elimination order follows the smallest-product heuristic (the variable
    with the fewest positive*negative row pairs goes first), with ties broken
    by the canonical variable order.  Each pair of rows combines into an
    integer row divided by its gcd.  A point over the remaining variables
    satisfies the output iff it has a completion satisfying the input.
    """
    drop = set(drop)
    for var in drop:
        if var not in system.vars:
            raise ConfigurationError("unknown variable %r" % (var,))
    n = len(system.vars)
    rows = system.rows
    remaining = {system.vars.index(v) for v in drop}
    while remaining:
        k = min(remaining, key=lambda k: (   # fewest positive * negative pairs first
            sum(r[k] > 0 for r in rows) * sum(r[k] < 0 for r in rows), k))
        remaining.discard(k)
        pos = [row for row in rows if row[k] > 0]
        neg = [row for row in rows if row[k] < 0]
        rows = [row for row in rows if row[k] == 0]
        rows += [_combine(p, q, k) for p in pos for q in neg]
    keep = [k for k, v in enumerate(system.vars) if v not in drop]
    rows = [(*(row[k] for k in keep), *row[n:]) for row in rows]
    return system.with_rows(rows, vars=tuple(system.vars[k] for k in keep)).canonicalize()


def _combine(p: tuple, q: tuple, k: int) -> tuple:
    """(-q[k] / q[-1]) p + (p[k] / p[-1]) q, which is 0 in column k, in lowest terms."""
    a, b = p[k], -q[k]
    row = (*(b * x + a * y for x, y in zip(p[:-1], q[:-1])), p[-1] * q[-1])
    h = gcd(*row)
    return tuple(v // h for v in row)
