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
from typing import Mapping

from .errors import ConfigurationError
from .information import cond_entropy
from .linineq import INF, SUP, EntropyTerm, LinConst, LinIneqSystem
from .network import NetworkConfig, w_name
from .probability import JointPmf
# solve_lp stays bound here: perfbench/tracing.py wraps regions.solve_lp.
from .simplex import feasible_point, implied, solve_lp

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
    """

    which: str
    config: NetworkConfig
    entropies: dict = field(default_factory=dict)

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
    return _raw_system(which, config).entropy_terms()


def _require_jb_shape(config: NetworkConfig):
    if len(config.decoders) != 1:
        raise ConfigurationError("Jana-Blahut regions assume a single decoder")
    if any(len(cell) != 1 for cell in config.sharing):
        raise ConfigurationError("Jana-Blahut regions assume singleton sharing cells")


def build_system(spec: RegionSpec, bind: bool = True) -> LinIneqSystem:
    """Emit the inequality family of the chosen definition.

    With ``bind=True`` (default) the entropy terms are substituted by their
    rational values from ``spec.entropies``; a missing term raises a
    configuration error naming it.
    """
    system = _raw_system(spec.which, spec.config)
    if bind:
        missing = sorted(system.entropy_terms() - set(spec.entropies), key=lambda t: t.render())
        if missing:
            raise ConfigurationError(
                "missing entropy terms: %s" % ", ".join(t.render() for t in missing))
        system = system.bind(spec.entropies)
    return system.canonicalize()


def _raw_system(which: str, config: NetworkConfig) -> LinIneqSystem:
    """The definition's inequality family as emitted: unbound, not canonicalized."""
    x_of = {tuple(cell): _cell_x_name(config, cell) for cell in config.sharing}
    if which in (DSC_IT, DSC_CRNG, MDC_CRNG):
        return _build_unified(which, config, x_of)
    return _build_jb(which, config, x_of)


def _build_unified(which, config, x_of) -> LinIneqSystem:
    aux = [aux_var(i) for i in config.encoders] if which != DSC_IT else []
    vars = [rate_var(i) for i in config.encoders] + aux
    system = LinIneqSystem(vars)
    if which == DSC_IT:
        for j, sub, term in _decoder_terms(config):
            const = LinConst.of(term)
            for i in sub:
                x = x_of[tuple(config.cell_of(i))]
                const = const + LinConst.of(EntropyTerm(INF, (w_name(i),), (x,)), -1)
            system.add({rate_var(i): 1 for i in sub}, const)
        return system
    # constrained-generator families share the sum-rate rows
    for i in config.encoders:
        system.add({aux_var(i): 1}, LinConst(0))
    if which == DSC_CRNG:
        for i in config.encoders:
            x = x_of[tuple(config.cell_of(i))]
            system.add({aux_var(i): -1},
                       LinConst.of(EntropyTerm(INF, (w_name(i),), (x,)), -1))
    else:
        for cell in config.sharing:
            x = x_of[tuple(cell)]
            for size in range(1, len(cell) + 1):
                for sub in itertools.combinations(cell, size):
                    term = EntropyTerm(INF, tuple(w_name(i) for i in sub), (x,))
                    system.add({aux_var(i): -1 for i in sub}, LinConst.of(term, -1))
    for j, sub, term in _decoder_terms(config):
        coeffs = {rate_var(i): 1 for i in sub}
        coeffs.update({aux_var(i): 1 for i in sub})
        system.add(coeffs, LinConst.of(term))
    return system


def _build_jb(which, config, x_of) -> LinIneqSystem:
    _require_jb_shape(config)
    j = config.decoders[0]
    y = config.side_info.get(j)
    given_y = (y,) if y else ()
    i0 = tuple(config.lossless)
    others = tuple(i for i in config.encoders if i not in i0)
    x_single = {i: x_of[tuple(config.cell_of(i))] for i in config.encoders}
    aux = [aux_var(i) for i in others] if which == JB_CRNG else []
    system = LinIneqSystem([rate_var(i) for i in config.encoders] + aux)

    if which == JB_IT:
        for size in range(1, len(i0) + 1):
            for a in itertools.combinations(i0, size):
                rest = tuple(x_single[i] for i in i0 if i not in a)
                term = EntropyTerm(SUP, tuple(x_single[i] for i in a),
                                   tuple(w_name(i) for i in others) + rest + given_y)
                system.add({rate_var(i): 1 for i in a}, LinConst.of(term))
        for size in range(1, len(others) + 1):
            for b in itertools.combinations(others, size):
                rest = tuple(w_name(i) for i in others if i not in b)
                const = LinConst.of(EntropyTerm(SUP, tuple(w_name(i) for i in b),
                                                rest + given_y))
                for i in b:
                    const = const + LinConst.of(
                        EntropyTerm(INF, (w_name(i),), (x_single[i],)), -1)
                system.add({rate_var(i): 1 for i in b}, const)
        return system

    for i in others:
        system.add({aux_var(i): 1}, LinConst(0))
        system.add({aux_var(i): -1},
                   LinConst.of(EntropyTerm(INF, (w_name(i),), (x_single[i],)), -1))
    for size in range(1, len(config.encoders) + 1):
        for sub in itertools.combinations(config.encoders, size):
            a = tuple(i for i in sub if i in i0)
            b = tuple(i for i in sub if i not in i0)
            left = tuple(w_name(i) for i in b) + tuple(x_single[i] for i in a)
            given = (tuple(w_name(i) for i in others if i not in b)
                     + tuple(x_single[i] for i in i0 if i not in a) + given_y)
            coeffs = {rate_var(i): 1 for i in sub}
            coeffs.update({aux_var(i): 1 for i in b})
            system.add(coeffs, LinConst.of(EntropyTerm(SUP, left, given)))
    return system


# -- binding entropies from a memoryless joint -----------------------------------------


@dataclass
class Binding:
    """Rounded entropy values plus the recorded rounding direction."""

    values: dict
    direction: str
    precision_bits: int

    def __getitem__(self, term):
        return self.values[term]

    def items(self):
        return self.values.items()

    def keys(self):
        return self.values.keys()

    def __contains__(self, term):
        return term in self.values

    def __iter__(self):
        return iter(self.values)


def round_entropy(bits: float, precision_bits: int = PRECISION_BITS,
                  direction: str = "floor") -> Fraction:
    scale = 1 << precision_bits
    if direction == "floor":
        value = Fraction(math.floor(bits * scale), scale)
    elif direction == "ceil":
        value = Fraction(math.ceil(bits * scale), scale)
    else:
        raise ConfigurationError("rounding direction must be floor or ceil")
    return max(value, Fraction(0))


def binding_from_pmf(which: str, config: NetworkConfig, joint: JointPmf,
                     precision_bits: int = PRECISION_BITS,
                     direction: str = "floor") -> Binding:
    """Bind every required entropy term from a single-letter joint law.

    Sup- and inf-rates coincide with the Shannon conditional entropy for
    memoryless sources; values are rounded to denominator 2**precision_bits
    in the recorded direction so that downstream algebra is exact.
    """
    dense = joint.to_double()
    values = {}
    for term in required_terms(which, config):
        h = cond_entropy(dense, list(term.left), list(term.given)).bits
        values[term] = round_entropy(h, precision_bits, direction)
    return Binding(values, direction, precision_bits)


# -- polyhedral queries -----------------------------------------------------------------


def _require_numeric(system: LinIneqSystem):
    if not system.is_numeric:
        raise ConfigurationError("operation requires a numerically bound system")


def remove_redundant(system: LinIneqSystem) -> LinIneqSystem:
    """Minimal subsystem defining the same polyhedron.

    Every dropped inequality is certified implied by the remaining ones, and
    the system certified nonempty first, by :func:`simplex.implied` on the
    dual LP: exact rationals, so which rows are kept is a mathematical fact
    and not a tolerance.  An infeasible system is returned canonicalized with
    its infeasibility marker set.
    """
    _require_numeric(system)
    system = system.canonicalize()
    if system.infeasible:
        return system
    rows = system.dense_rows()
    dim = len(system.vars)
    if _empty(rows, dim):
        return LinIneqSystem(system.vars, system.ineqs, infeasible=True)
    keep = list(range(len(rows)))
    for idx in list(keep):
        others = [rows[k] for k in keep if k != idx]
        coeffs, const = rows[idx]
        if implied(coeffs, const, others, dim):
            keep.remove(idx)
    out = LinIneqSystem(system.vars)
    for k in keep:
        out.ineqs.append(system.ineqs[k])
    return out.canonicalize()


def _empty(rows, dim) -> bool:
    """True iff no point satisfies every row (exact, on the dual)."""
    return implied([0] * dim, 1, rows, dim)


def member(system: LinIneqSystem, point: Mapping[str, object]) -> bool:
    """True iff the (fully specified) point satisfies every inequality."""
    _require_numeric(system)
    missing = [v for v in system.vars if v not in point]
    if missing:
        raise ConfigurationError("point is missing variables %r" % (missing,))
    if system.infeasible:
        return False
    values = {v: Fraction(point[v]) for v in system.vars}
    for ineq in system.ineqs:
        lhs = sum((c * values[v] for v, c in ineq.coeffs), Fraction(0))
        if lhs < ineq.const.value():
            return False
    return True


def contains(outer: LinIneqSystem, inner: LinIneqSystem) -> bool:
    """True iff every point of `inner` satisfies `outer`.

    Decided exactly on the dual (:func:`simplex.implied`): `inner` is first
    certified nonempty, then each row of `outer` implied by its rows.
    """
    _require_numeric(outer)
    _require_numeric(inner)
    if set(outer.vars) != set(inner.vars):
        raise ConfigurationError(
            "systems are over different variables: %r vs %r" % (outer.vars, inner.vars))
    inner_rows_raw = inner.dense_rows()
    # reorder inner columns to outer's variable order
    perm = [inner.vars.index(v) for v in outer.vars]
    inner_rows = [([co[p] for p in perm], ct) for co, ct in inner_rows_raw]
    dim = len(outer.vars)
    if inner.infeasible or _empty(inner_rows, dim):
        return True
    if outer.infeasible:
        return False
    return all(implied(coeffs, const, inner_rows, dim) for coeffs, const in outer.dense_rows())


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

    Returns a dict encoder->Fraction on success, else an :class:`Infeasible`
    carrying an irreducible infeasible subset of the violated inequalities.
    """
    system = build_system(spec)
    r_values = {rate_var(i): Fraction(rates[i]) for i in spec.config.encoders}
    for i, v in r_values.items():
        if v < 0:
            raise ConfigurationError("rates must be nonnegative")
    aux_vars = [v for v in system.vars if v.startswith("r_")]
    if not aux_vars:
        ok = member(system, r_values)
        return {} if ok else Infeasible(_irreducible_subset(system, r_values))
    rows = []
    renders = []
    for ineq in system.ineqs:
        cm = ineq.coeff_map()
        const = ineq.const.value() - sum(
            (c * r_values[v] for v, c in cm.items() if v in r_values), Fraction(0))
        rows.append(([cm.get(v, Fraction(0)) for v in aux_vars], const))
        renders.append(system._render_row(ineq))
    point = feasible_point(rows, len(aux_vars))
    if point is None:
        return Infeasible(_iis(rows, renders, len(aux_vars)))
    return {i: point[aux_vars.index(aux_var(i))]
            for i in spec.config.encoders if aux_var(i) in aux_vars}


def _iis(rows, renders, dim):
    """Deletion-filter irreducible infeasible subset."""
    active = list(range(len(rows)))
    for idx in list(active):
        trial = [k for k in active if k != idx]
        if _empty([rows[k] for k in trial], dim):
            active = trial
    return [renders[k] for k in active]


def _irreducible_subset(system, point):
    violated = []
    for ineq in system.ineqs:
        lhs = sum((c * Fraction(point[v]) for v, c in ineq.coeffs), Fraction(0))
        if lhs < ineq.const.value():
            violated.append(system._render_row(ineq))
    return violated
