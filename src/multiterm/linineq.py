"""Linear inequality systems over named rate variables.

Every inequality has the sense ``sum(coef*var) >= const``.  Coefficients are
exact rationals; the constant is either a rational or a linear combination of
named entropy terms (``Hsup(...)`` / ``Hinf(...)``) that can later be bound to
rational values.  Canonicalization scales each row to integer coefficients
with gcd 1 and orders rows deterministically, which is what makes golden-file
equality tests possible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ConfigurationError
from .rational import integer_scaled


# -- entropy terms ---------------------------------------------------------------

SUP = "sup"
INF = "inf"


@dataclass(frozen=True, order=True)
class EntropyTerm:
    """A named spectral entropy quantity, e.g. Hsup(W1,W2|Y1).

    `kind` distinguishes sup- from inf-entropy rates; for stationary
    memoryless sources both bind to the same Shannon value.
    """

    kind: str
    left: tuple
    given: tuple = ()

    def __post_init__(self):
        if self.kind not in (SUP, INF):
            raise ConfigurationError("entropy term kind must be sup or inf")
        object.__setattr__(self, "left", tuple(sorted(self.left, key=_natural_key)))
        object.__setattr__(self, "given", tuple(sorted(self.given, key=_natural_key)))
        if not self.left:
            raise ConfigurationError("entropy term needs at least one left variable")

    def render(self) -> str:
        head = "Hsup" if self.kind == SUP else "Hinf"
        if self.given:
            return "%s(%s|%s)" % (head, ",".join(self.left), ",".join(self.given))
        return "%s(%s)" % (head, ",".join(self.left))

    def __str__(self):
        return self.render()


def _natural_key(name: str):
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", str(name)))


# -- symbolic constants ------------------------------------------------------------


class LinConst:
    """Rational offset plus a rational combination of entropy terms."""

    __slots__ = ("offset", "terms")

    def __init__(self, offset=0, terms: Optional[Mapping[EntropyTerm, Fraction]] = None):
        self.offset = Fraction(offset)
        self.terms = {t: Fraction(c) for t, c in (terms or {}).items() if c != 0}

    @classmethod
    def of(cls, term: EntropyTerm, coeff=1) -> "LinConst":
        return cls(0, {term: Fraction(coeff)})

    @property
    def is_numeric(self) -> bool:
        return not self.terms

    def bind(self, binding: Mapping[EntropyTerm, Fraction]) -> "LinConst":
        value = self.offset
        for term, coeff in self.terms.items():
            if term not in binding:
                raise ConfigurationError("missing entropy term %s" % term)
            value += coeff * Fraction(binding[term])
        return LinConst(value)

    def value(self) -> Fraction:
        if not self.is_numeric:
            raise ConfigurationError("constant still contains entropy terms")
        return self.offset

    def __add__(self, other: "LinConst") -> "LinConst":
        terms = dict(self.terms)
        for t, c in other.terms.items():
            terms[t] = terms.get(t, Fraction(0)) + c
        return LinConst(self.offset + other.offset, terms)

    def __mul__(self, scalar) -> "LinConst":
        scalar = Fraction(scalar)
        return LinConst(self.offset * scalar,
                        {t: c * scalar for t, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (isinstance(other, LinConst) and self.offset == other.offset
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.offset, frozenset(self.terms.items())))

    def sort_key(self):
        if self.is_numeric:
            return (0, self.offset, "")
        return (1, Fraction(0), self.render())

    def render(self) -> str:
        if self.is_numeric:
            return str(self.offset)
        parts = []
        for term in sorted(self.terms, key=lambda t: t.render()):
            coeff = self.terms[term]
            parts.append((coeff, term.render()))
        out = ""
        for coeff, text in parts:
            mag = abs(coeff)
            body = text if mag == 1 else "%s*%s" % (mag, text)
            if not out:
                out = body if coeff > 0 else "-" + body
            else:
                out += (" + " if coeff > 0 else " - ") + body
        if self.offset != 0:
            out += (" + " if self.offset > 0 else " - ") + str(abs(self.offset))
        return out

    def __repr__(self):
        return "LinConst(%s)" % self.render()


# -- inequalities and systems -------------------------------------------------------


@dataclass(frozen=True)
class LinIneq:
    """One inequality ``sum(coeffs[v] * v) >= const``."""

    coeffs: tuple  # tuple of (var, Fraction), sparse, in system var order
    const: LinConst

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def scaled(self, factor: Fraction) -> "LinIneq":
        if factor <= 0:
            raise ValueError("inequalities only scale by positive factors")
        return LinIneq(tuple((v, c * factor) for v, c in self.coeffs),
                       self.const * factor)


class LinIneqSystem:
    """An ordered variable list plus a list of >= inequalities."""

    def __init__(self, vars: Sequence[str], ineqs: Iterable[LinIneq] = (),
                 infeasible: bool = False):
        vars = list(vars)
        if len(set(vars)) != len(vars):
            raise ConfigurationError("duplicate variable names in system")
        self.vars = tuple(sorted(vars, key=_natural_key))
        self._pos = {v: k for k, v in enumerate(self.vars)}
        self.ineqs: list = []
        self.infeasible = infeasible
        for ineq in ineqs:
            self.add(ineq.coeff_map(), ineq.const)

    def add(self, coeffs: Mapping[str, object], const) -> None:
        if not isinstance(const, LinConst):
            const = LinConst(const)
        row = []
        for var in self.vars:
            c = Fraction(coeffs.get(var, 0))
            if c != 0:
                row.append((var, c))
        for var in coeffs:
            if var not in self._pos:
                raise ConfigurationError("unknown variable %r" % (var,))
        self.ineqs.append(LinIneq(tuple(row), const))

    # -- shape helpers -----------------------------------------------------------

    def dense_rows(self):
        """Rows as (coefficient list over self.vars, Fraction const); numeric only."""
        out = []
        for ineq in self.ineqs:
            cm = ineq.coeff_map()
            out.append(([cm.get(v, Fraction(0)) for v in self.vars],
                        ineq.const.value()))
        return out

    @property
    def is_numeric(self) -> bool:
        return all(ineq.const.is_numeric for ineq in self.ineqs)

    def bind(self, binding: Mapping[EntropyTerm, Fraction]) -> "LinIneqSystem":
        out = LinIneqSystem(self.vars, infeasible=self.infeasible)
        for ineq in self.ineqs:
            out.ineqs.append(LinIneq(ineq.coeffs, ineq.const.bind(binding)))
        return out

    def entropy_terms(self) -> set:
        terms: set = set()
        for ineq in self.ineqs:
            terms.update(ineq.const.terms)
        return terms

    # -- canonical form ------------------------------------------------------------

    @staticmethod
    def _canonical_row(ineq: LinIneq) -> LinIneq:
        coeffs = [c for _, c in ineq.coeffs]
        if not coeffs:
            return ineq
        nums, denom_lcm = integer_scaled(coeffs)
        return ineq.scaled(Fraction(denom_lcm, gcd(*nums)))

    def canonicalize(self) -> "LinIneqSystem":
        """Integer gcd-1 coefficients, duplicate collapse, deterministic order.

        For numeric systems, rows sharing a coefficient vector keep only the
        largest constant (dominance), and tautologies ``0 >= c`` with c <= 0
        are dropped; an unsatisfiable ``0 >= c`` row marks the system
        infeasible and is kept.
        """
        rows = [self._canonical_row(iq) for iq in self.ineqs]
        infeasible = self.infeasible
        best: dict = {}
        kept_sym = set()
        out_rows = []
        for iq in rows:
            if iq.const.is_numeric:
                if not iq.coeffs:
                    if iq.const.value() > 0:
                        infeasible = True
                        out_rows.append(iq)
                    continue  # 0 >= nonpositive is a tautology
                key = iq.coeffs
                if key not in best or iq.const.value() > best[key].const.value():
                    best[key] = iq
            else:
                # symbolic constants compare only by exact equality
                marker = (iq.coeffs, iq.const.render())
                if marker not in kept_sym:
                    kept_sym.add(marker)
                    out_rows.append(iq)
        out_rows.extend(best.values())
        out = LinIneqSystem(self.vars, infeasible=infeasible)
        out.ineqs = sorted(out_rows, key=self._row_sort_key)
        return out

    def _row_sort_key(self, ineq: LinIneq):
        dense = tuple(ineq.coeff_map().get(v, Fraction(0)) for v in self.vars)
        return (dense, ineq.const.sort_key())

    # -- text form -------------------------------------------------------------------

    def render(self) -> str:
        lines = ["# vars: %s" % " ".join(self.vars)]
        if self.infeasible:
            lines.append("# infeasible")
        for ineq in self.ineqs:
            lines.append(self._render_row(ineq))
        return "\n".join(lines) + "\n"

    def _render_row(self, ineq: LinIneq) -> str:
        if not ineq.coeffs:
            lhs = "0"
        else:
            lhs = ""
            for var, c in ineq.coeffs:
                mag = abs(c)
                body = var if mag == 1 else "%s*%s" % (mag, var)
                if not lhs:
                    lhs = body if c > 0 else "-" + body
                else:
                    lhs += (" + " if c > 0 else " - ") + body
        return "%s >= %s" % (lhs, ineq.const.render())

    @classmethod
    def parse(cls, text: str) -> "LinIneqSystem":
        """Inverse of :meth:`render` for numeric systems."""
        vars: list = []
        rows = []
        infeasible = False
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# vars:"):
                    vars = line[len("# vars:"):].split()
                if line.startswith("# infeasible"):
                    infeasible = True
                continue
            if ">=" not in line:
                raise ConfigurationError("line %d: missing >= in %r" % (lineno, raw))
            lhs_text, rhs_text = line.split(">=")
            coeffs: dict = {}
            for sign, chunk in _split_terms(lhs_text.strip()):
                if chunk == "0":
                    continue
                if "*" in chunk:
                    mag, var = chunk.split("*", 1)
                    coeffs[var.strip()] = sign * Fraction(mag)
                else:
                    coeffs[chunk.strip()] = sign * Fraction(1)
            rows.append((coeffs, Fraction(rhs_text.strip())))
        system = cls(vars, infeasible=infeasible)
        for coeffs, const in rows:
            system.add(coeffs, const)
        return system


def _split_terms(text: str):
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    parts = re.split(r"\s+([+-])\s+", text)
    yield sign, parts[0].strip()
    for op, chunk in zip(parts[1::2], parts[2::2]):
        yield (1 if op == "+" else -1), chunk.strip()


# -- Fourier-Motzkin elimination -------------------------------------------------------


def fme_eliminate(system: LinIneqSystem, drop: Iterable[str]) -> LinIneqSystem:
    """Project the system onto the variables outside `drop`.

    Elimination order follows the smallest-product heuristic (the variable
    with the fewest positive*negative row pairs goes first), with ties broken
    by the canonical variable order.  A point over the remaining variables
    satisfies the output iff it has a completion satisfying the input.
    """
    drop = set(drop)
    for var in drop:
        if var not in system.vars:
            raise ConfigurationError("unknown variable %r" % (var,))
    rows = [(iq.coeff_map(), iq.const) for iq in system.ineqs]
    remaining = set(drop)
    while remaining:
        var = min(remaining,
                  key=lambda v: (_pair_count(rows, v), system.vars.index(v)))
        remaining.discard(var)
        pos = [(cm, ct) for cm, ct in rows if cm.get(var, 0) > 0]
        neg = [(cm, ct) for cm, ct in rows if cm.get(var, 0) < 0]
        zero = [(cm, ct) for cm, ct in rows if cm.get(var, 0) == 0]
        combos = []
        for pcm, pct in pos:
            for ncm, nct in neg:
                a, b = pcm[var], -ncm[var]
                cm: dict = {}
                for v, c in pcm.items():
                    cm[v] = cm.get(v, Fraction(0)) + b * c
                for v, c in ncm.items():
                    cm[v] = cm.get(v, Fraction(0)) + a * c
                cm.pop(var, None)
                cm = {v: c for v, c in cm.items() if c != 0}
                combos.append((cm, pct * b + nct * a))
        rows = zero + combos
    keep = [v for v in system.vars if v not in drop]
    out = LinIneqSystem(keep)
    for cm, ct in rows:
        out.add(cm, ct)
    return out.canonicalize()


def _pair_count(rows, var) -> int:
    pos = sum(1 for cm, _ in rows if cm.get(var, 0) > 0)
    neg = sum(1 for cm, _ in rows if cm.get(var, 0) < 0)
    return pos * neg
