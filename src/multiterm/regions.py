"""Achievable-region inequality systems and polyhedral queries.

`build_system` emits the literal inequality families of the five region
definitions (distributed-source-coding information / constrained-generator
forms, the multiple-description form, and the Jana-Blahut lossless/lossy
split).  `fme_eliminate` + `remove_redundant` reproduce the hand-eliminated
systems; membership, containment and auxiliary-rate queries are certified by
the exact rational simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Mapping, Optional

from .errors import ConfigurationError
from .information import cond_entropy
from .linineq import INF, SUP, EntropyTerm, LinIneqSystem
from .network import NetworkConfig, w_name
from .probability import JointPmf
from .rational import integer_scaled
# solve_lp stays bound here: perfbench/tracing.py wraps regions.solve_lp.
from .simplex import UNBOUNDED, DualTableau, feasible_point, solve_lp

DSC_IT = "dsc-it"
DSC_CRNG = "dsc-crng"
MDC_CRNG = "mdc-crng"
JB_IT = "jb-it"
JB_CRNG = "jb-crng"

DEFINITIONS = (DSC_IT, DSC_CRNG, MDC_CRNG, JB_IT, JB_CRNG)

# default rounding precision when binding float entropies to rationals
PRECISION_BITS = 40


def rate_var(i) -> str:
    return "R_%s" % (i,)


def aux_var(i) -> str:
    return "r_%s" % (i,)


@dataclass
class RegionSpec:
    """Which definition to build, over which topology, with which entropies.

    `entropies` maps every required :class:`EntropyTerm` to an exact rational
    value (typically a rounded Shannon entropy of a memoryless joint).
    `raw`, when given, is the definition's system as emitted for `which`
    over `config`, unbound (:attr:`Binding.raw`); :func:`build_system` then
    binds it instead of emitting it again.
    """

    which: str
    config: NetworkConfig
    entropies: dict = field(default_factory=dict)
    raw: Optional[LinIneqSystem] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.which not in DEFINITIONS:
            raise ConfigurationError("unknown region definition %r" % (self.which,))
        for term, value in self.entropies.items():
            if Fraction(value) < 0:
                raise ConfigurationError("negative entropy bound for %s" % (term,))


def _decoder_terms(config: NetworkConfig):
    """(j, I'_j, sup-term) triples of the sum-rate family."""
    for j in config.decoders:
        ij = tuple(config.codewords_to[j])
        y = config.side_info.get(j)
        given_y = (y,) if y else ()
        for size in range(1, len(ij) + 1):
            for sub in itertools.combinations(ij, size):
                rest = tuple(i for i in ij if i not in sub)
                term = EntropyTerm(SUP, tuple(w_name(i) for i in sub),
                                   tuple(w_name(i) for i in rest) + given_y)
                yield j, sub, term


def _cell_x_name(config: NetworkConfig, cell) -> str:
    """Source variable observed by a sharing cell: X<cell label>."""
    label = "".join(str(i) for i in cell)
    return "X%s" % label


def required_terms(which: str, config: NetworkConfig) -> set:
    """Entropy terms the chosen definition needs, as a set."""
    return set(_raw_system(which, config).terms)


def _require_jb_shape(config: NetworkConfig):
    if len(config.decoders) != 1:
        raise ConfigurationError("Jana-Blahut regions assume a single decoder")
    if any(len(cell) != 1 for cell in config.sharing):
        raise ConfigurationError("Jana-Blahut regions assume singleton sharing cells")


def build_system(spec: RegionSpec) -> LinIneqSystem:
    """Emit the inequality family of the chosen definition.

    The entropy terms are substituted by their rational values from
    ``spec.entropies``; missing terms raise one configuration error naming
    each (:meth:`LinIneqSystem.bind`).  The emitted system is
    ``spec.raw`` when the spec carries one.
    """
    raw = spec.raw if spec.raw is not None else _raw_system(spec.which, spec.config)
    return raw.bind(spec.entropies).canonicalize()


def _raw_system(which: str, config: NetworkConfig) -> LinIneqSystem:
    """The definition's inequality family as emitted: unbound, not canonicalized."""
    x_of = {tuple(cell): _cell_x_name(config, cell) for cell in config.sharing}
    build = _build_unified if which in (DSC_IT, DSC_CRNG, MDC_CRNG) else _build_jb
    return build(which, config, x_of)


class _Rows:
    """The integer rows of one emitted system, ``(*a, *t, 0, 1)``: the rate
    coefficients in the system's variable order, the entropy-term
    coefficients in order of first use, offset 0 and denominator 1, as
    :meth:`LinIneqSystem.extend` would store the same (coefficients, terms)
    pairs, without converting them."""

    def __init__(self, vars):
        self._system = LinIneqSystem(vars)
        self._column = {v: k for k, v in enumerate(self._system.vars)}
        self._terms: dict = {}   # term -> its place among the term columns
        self._rows = []          # (rate coefficients, [(term place, coefficient)])

    def add(self, coeffs: Mapping[str, int], terms: Mapping[EntropyTerm, int]):
        """Emit ``sum(coeffs[v] * v) >= sum(terms[t] * t)``."""
        rates = [0] * len(self._column)
        for var, c in coeffs.items():
            rates[self._column[var]] = c
        self._rows.append((rates, [(self._terms.setdefault(t, len(self._terms)), c)
                                   for t, c in terms.items()]))

    def system(self) -> LinIneqSystem:
        rows = []
        for rates, used in self._rows:
            values = [0] * len(self._terms)
            for k, c in used:
                values[k] = c
            rows.append((*rates, *values, 0, 1))
        return self._system.with_rows(rows, terms=tuple(self._terms))


def _w_given_x(config, x_of) -> dict:
    """Encoder i -> Hinf(W_i | X of its cell)."""
    return {i: EntropyTerm(INF, (w_name(i),), (x_of[tuple(config.cell_of(i))],))
            for i in config.encoders}


def _build_unified(which, config, x_of) -> LinIneqSystem:
    """The emitted system of the unified definitions."""
    aux = [aux_var(i) for i in config.encoders] if which != DSC_IT else []
    out = _Rows([rate_var(i) for i in config.encoders] + aux)
    w_given_x = _w_given_x(config, x_of)
    if which == DSC_IT:
        for j, sub, term in _decoder_terms(config):
            const = {term: 1}
            for i in sub:
                const[w_given_x[i]] = -1
            out.add({rate_var(i): 1 for i in sub}, const)
        return out.system()
    # constrained-generator families share the sum-rate rows
    for i in config.encoders:
        out.add({aux_var(i): 1}, {})
    if which == DSC_CRNG:
        for i in config.encoders:
            out.add({aux_var(i): -1}, {w_given_x[i]: -1})
    else:
        for cell in config.sharing:
            x = x_of[tuple(cell)]
            for size in range(1, len(cell) + 1):
                for sub in itertools.combinations(cell, size):
                    term = EntropyTerm(INF, tuple(w_name(i) for i in sub), (x,))
                    out.add({aux_var(i): -1 for i in sub}, {term: -1})
    for j, sub, term in _decoder_terms(config):
        coeffs = {rate_var(i): 1 for i in sub}
        coeffs.update({aux_var(i): 1 for i in sub})
        out.add(coeffs, {term: 1})
    return out.system()


def _build_jb(which, config, x_of) -> LinIneqSystem:
    """The emitted system of the Jana-Blahut definitions."""
    _require_jb_shape(config)
    j = config.decoders[0]
    y = config.side_info.get(j)
    given_y = (y,) if y else ()
    i0 = tuple(config.lossless)
    others = tuple(i for i in config.encoders if i not in i0)
    x_single = {i: x_of[tuple(config.cell_of(i))] for i in config.encoders}
    w_given_x = _w_given_x(config, x_of)
    aux = [aux_var(i) for i in others] if which == JB_CRNG else []
    out = _Rows([rate_var(i) for i in config.encoders] + aux)

    if which == JB_IT:
        for size in range(1, len(i0) + 1):
            for a in itertools.combinations(i0, size):
                rest = tuple(x_single[i] for i in i0 if i not in a)
                term = EntropyTerm(SUP, tuple(x_single[i] for i in a),
                                   tuple(w_name(i) for i in others) + rest + given_y)
                out.add({rate_var(i): 1 for i in a}, {term: 1})
        for size in range(1, len(others) + 1):
            for b in itertools.combinations(others, size):
                rest = tuple(w_name(i) for i in others if i not in b)
                const = {EntropyTerm(SUP, tuple(w_name(i) for i in b), rest + given_y): 1}
                for i in b:
                    const[w_given_x[i]] = -1
                out.add({rate_var(i): 1 for i in b}, const)
        return out.system()

    for i in others:
        out.add({aux_var(i): 1}, {})
        out.add({aux_var(i): -1}, {w_given_x[i]: -1})
    for size in range(1, len(config.encoders) + 1):
        for sub in itertools.combinations(config.encoders, size):
            a = tuple(i for i in sub if i in i0)
            b = tuple(i for i in sub if i not in i0)
            left = tuple(w_name(i) for i in b) + tuple(x_single[i] for i in a)
            given = (tuple(w_name(i) for i in others if i not in b)
                     + tuple(x_single[i] for i in i0 if i not in a) + given_y)
            coeffs = {rate_var(i): 1 for i in sub}
            coeffs.update({aux_var(i): 1 for i in b})
            out.add(coeffs, {EntropyTerm(SUP, left, given): 1})
    return out.system()


# -- binding entropies from a memoryless joint -----------------------------------------


@dataclass
class Binding:
    """Entropy values rounded down to denominator 2**precision_bits, and
    `raw`, the emitted system whose terms they bind."""

    values: dict
    precision_bits: int
    raw: Optional[LinIneqSystem] = field(default=None, repr=False, compare=False)


def round_entropy(bits: float, precision_bits: int = PRECISION_BITS) -> Fraction:
    """`bits` rounded down, exactly, to a multiple of 2**-precision_bits, at
    least 0; at most 1074 bits, where every double is already such a multiple."""
    if not 0 <= precision_bits <= 1074:
        raise ConfigurationError("precision bits must be in 0..1074, got %r" % (precision_bits,))
    n, d = bits.as_integer_ratio()
    return max(Fraction((n << precision_bits) // d, 1 << precision_bits), Fraction(0))


def binding_from_pmf(which: str, config: NetworkConfig, joint: JointPmf,
                     precision_bits: int = PRECISION_BITS) -> Binding:
    """Bind every required entropy term from a single-letter joint law.

    Sup- and inf-rates coincide with the Shannon conditional entropy for
    memoryless sources; values are rounded down to denominator
    2**precision_bits so that downstream algebra is exact.
    """
    entropies = {}   # H(S) by the set S: a marginal does not depend on the order of S

    def h(names):
        key = frozenset(names)
        if key not in entropies:
            entropies[key] = cond_entropy(joint, list(names), [])
        return entropies[key]

    raw = _raw_system(which, config)
    values = {}
    for term in raw.terms:
        bits = max(h(term.left + term.given) - h(term.given), 0.0) if term.given else h(term.left)
        values[term] = round_entropy(bits, precision_bits)
    return Binding(values, precision_bits, raw)


# -- polyhedral queries -----------------------------------------------------------------


def _require_numeric(system: LinIneqSystem):
    if not system.is_numeric:
        raise ConfigurationError("operation requires a numerically bound system")


def remove_redundant(system: LinIneqSystem) -> LinIneqSystem:
    """Minimal subsystem defining the same polyhedron.

    A deletion filter in row order, decided exactly on one
    :class:`simplex.DualTableau`, whose build certifies the system nonempty:
    which rows are kept is a mathematical fact, not a tolerance, and they
    stay canonical and in order.  Row k is tested with its constant lowered
    by 1 (:meth:`simplex.DualTableau.relax`; K. L. Clarkson, "More
    output-sensitive geometric algorithms", FOCS 1994): it is dropped, and
    stays relaxed, when the rows still imply it at its true constant, and is
    restored otherwise.  This decides as deleting it would: the kept rows
    still define the polyhedron P, so if they do not imply row k, a point of
    P on row k's face, moved a small step toward a point that violates row
    k, satisfies every relaxed row.  `_iis` keeps one build per deletion: its
    systems are empty, so there is no such point, and a row relaxed by 1 can
    keep a system empty that deleting it would make nonempty.  An infeasible
    system is returned canonicalized with its infeasibility marker set.
    """
    _require_numeric(system)
    system = system.canonicalize()
    if system.infeasible:
        return system
    rows = system.dense_rows()
    tableau = DualTableau(rows, len(system.vars))
    if tableau.status == UNBOUNDED:
        return system.with_rows(system.rows, infeasible=True, canonical=True)
    keep = []
    for k, (coeffs, const) in enumerate(rows):
        tableau.relax(k, 1)
        if not tableau.implies(coeffs, const):
            tableau.relax(k, -1)
            keep.append(k)
    return system.with_rows([system.rows[k] for k in keep], canonical=True)


def member(system: LinIneqSystem, point: Mapping[str, object]) -> bool:
    """True iff the (fully specified) point satisfies every inequality."""
    _require_numeric(system)
    missing = [v for v in system.vars if v not in point]
    if missing:
        raise ConfigurationError("point is missing variables %r" % (missing,))
    if system.infeasible:
        return False
    x, scale = integer_scaled([Fraction(point[v]) for v in system.vars])
    # a.(x / scale) / q >= o / q  iff  a.x >= o scale
    return all(sum(map(mul, row, x)) >= row[-2] * scale for row in system.rows)


def contains(outer: LinIneqSystem, inner: LinIneqSystem) -> bool:
    """True iff every point of `inner` satisfies `outer`.

    Decided exactly on the dual, all constants over one denominator: one
    :class:`simplex.DualTableau` of `inner` is built, which decides whether
    it is empty, and each row of `outer` is then certified implied by
    re-optimizing that tableau (:meth:`simplex.DualTableau.implies`).
    """
    _require_numeric(outer)
    _require_numeric(inner)
    if outer.vars != inner.vars:   # both in natural order
        raise ConfigurationError(
            "systems are over different variables: %r vs %r" % (outer.vars, inner.vars))
    if inner.infeasible:
        return True
    scale = math.lcm(outer.denominator, inner.denominator)
    tableau = DualTableau(inner.dense_rows(scale), len(outer.vars))
    if tableau.status == UNBOUNDED:   # inner is empty
        return True
    if outer.infeasible:
        return False
    return all(tableau.implies(coeffs, const) for coeffs, const in outer.dense_rows(scale))


def polyhedra_equal(a: LinIneqSystem, b: LinIneqSystem) -> bool:
    return contains(a, b) and contains(b, a)


@dataclass
class Infeasible:
    """Certificate that no auxiliary rates exist: an irreducible violated subset."""

    violated: list  # list of rendered inequality strings

    def __bool__(self):
        return False


def find_aux_rates(spec: RegionSpec, rates: Mapping[object, object]):
    """Auxiliary rates r_i satisfying the chosen definition at fixed R.

    Substitutes R into every row and solves the rows over the auxiliary
    rates alone (:func:`simplex.feasible_point`, exact, on the dual).  A
    definition without auxiliary rates gives rows over no variables, so the
    same path decides plain membership of R.  Returns a dict
    encoder->Fraction on success (empty without auxiliary rates), else an
    :class:`Infeasible` carrying an irreducible infeasible subset: dropping
    any one of its rows leaves rows that some auxiliary rates satisfy.
    """
    missing = [i for i in spec.config.encoders if i not in rates]
    if missing:
        raise ConfigurationError("rates are missing encoders %r" % (missing,))
    system = build_system(spec)
    r_values = {rate_var(i): Fraction(rates[i]) for i in spec.config.encoders}
    if any(v < 0 for v in r_values.values()):
        raise ConfigurationError("rates must be nonnegative")
    aux = [k for k, v in enumerate(system.vars) if v.startswith("r_")]
    fixed = [k for k, v in enumerate(system.vars) if v in r_values]
    r_ints, r_scale = integer_scaled([r_values[system.vars[k]] for k in fixed])
    # (o - a_R.r_ints / r_scale) / q, over the common denominator r_scale * den
    den = system.denominator
    rows = [(tuple(row[k] // row[-1] for k in aux),
             (row[-2] * r_scale - sum(row[k] * r for k, r in zip(fixed, r_ints)))
             * (den // row[-1])) for row in system.rows]
    point = feasible_point(rows, len(aux))
    if point is None:
        return Infeasible(_iis(system, rows, len(aux)))
    names = [system.vars[k] for k in aux]
    return {i: point[names.index(aux_var(i))] / (r_scale * den)
            for i in spec.config.encoders if aux_var(i) in names}


def _iis(system, rows, dim):
    """Deletion-filter irreducible infeasible subset, as rendered rows."""
    active = list(range(len(rows)))
    for idx in list(active):
        trial = [k for k in active if k != idx]
        if DualTableau([rows[k] for k in trial], dim).status == UNBOUNDED:
            active = trial
    return [system.line(system.rows[k]) for k in active]
