"""Exact finite probability model: joint pmfs over named discrete variables.

A :class:`JointPmf` table holds :class:`fractions.Fraction` entries, so every
mass, marginal, conditional and Markov check is exact.  Zero-probability rows
are kept (support-set semantics matter for constrained-random draws).  Floats
appear only where an irrational quantity is evaluated: each pmf converts its
positive entries to floats once, on first use, for entropies
(:meth:`JointPmf.float_marginal`), and every seeded draw searches the
cumulative float table of an integer law (:func:`choice_table`) with a
uniform: one of its own generator (:func:`draw`), or one of the single stream
of a Monte Carlo call (:func:`multiterm.codec.simulate`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedConditionError
from .rational import integer_scaled

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct, opaque symbol labels."""

    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ConfigurationError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigurationError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol) -> int:
        return self.symbols.index(symbol)


def binary_alphabet() -> Alphabet:
    return Alphabet((0, 1))


class JointPmf:
    """Joint pmf over an ordered list of named variables.

    `variables` is a sequence of ``(name, Alphabet)`` pairs; `table` maps
    symbol tuples (aligned with the variable order) to probabilities.
    """

    def __init__(self, variables: Sequence[tuple], table: Mapping[tuple, object],
                 _validated: bool = False):
        names = [name for name, _ in variables]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate variable names: %r" % (names,))
        self.variables = tuple((name, alph) for name, alph in variables)
        self._names = tuple(names)
        self._index = {name: k for k, name in enumerate(names)}
        cleaned = {}
        for key, p in table.items():
            key = tuple(key)
            if len(key) != len(self.variables):
                raise ConfigurationError(
                    "tuple arity %d does not match %d variables" % (len(key), len(self.variables)))
            p = Fraction(p)
            if p < 0:
                raise ConfigurationError("negative probability for %r" % (key,))
            cleaned[key] = p
        self._table = cleaned
        self._floats = None   # (key, float) per positive entry, filled on first use
        self._cdf = None      # choice table of the positive entries, filled by `support_table`
        if not _validated:
            self._check_support()
            self._check_mass()

    # -- construction helpers -------------------------------------------------

    def _check_support(self):
        for key in self._table:
            for sym, (name, alph) in zip(key, self.variables):
                if sym not in alph.symbols:
                    raise ConfigurationError(
                        "symbol %r outside alphabet of %r" % (sym, name))

    def _check_mass(self):
        total = sum(self._table.values())
        if total != 1:
            raise ConfigurationError("total mass %s != 1" % (total,))

    # -- basic accessors -------------------------------------------------------

    @property
    def names(self) -> tuple:
        return self._names

    def alphabet(self, name: str) -> Alphabet:
        return self.variables[self._var_pos(name)][1]

    def _var_pos(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError("unknown variable name %r" % (name,)) from None

    def items(self):
        return self._table.items()

    def prob(self, key: tuple) -> Fraction:
        return self._table.get(tuple(key), _ZERO)

    def support(self):
        return [k for k, p in self._table.items() if p > 0]

    def float_marginal(self, names: Iterable[str]) -> dict:
        """Float marginal on `names`: symbol tuple -> sum of the float
        probabilities of the positive entries, added in table order.

        The entries are converted to floats once per pmf, on first use.
        Callers evaluate irrational quantities (entropies) from this; every
        exact check uses the Fraction table instead.
        """
        if self._floats is None:
            self._floats = [(k, float(p)) for k, p in self._table.items() if p > 0]
        positions = [self._var_pos(name) for name in names]
        table: dict = {}
        for key, p in self._floats:
            sub = tuple(key[pos] for pos in positions)
            table[sub] = table.get(sub, 0.0) + p
        return table

    def __eq__(self, other):
        if not isinstance(other, JointPmf):
            return NotImplemented
        if self.variables != other.variables:
            return False
        keys = set(self._table) | set(other._table)
        return all(self.prob(k) == other.prob(k) for k in keys)

    def __repr__(self):
        return "JointPmf(%s; %d rows)" % (",".join(self._names), len(self._table))


# -- core operations -----------------------------------------------------------


def marginalize(pmf: JointPmf, keep: Iterable[str]) -> JointPmf:
    """Sum out all variables not in `keep`; mass is preserved."""
    keep = list(keep)
    positions = [pmf._var_pos(name) for name in keep]
    variables = [pmf.variables[p] for p in positions]
    table: dict = {}
    for key, p in pmf.items():
        sub = tuple(key[pos] for pos in positions)
        table[sub] = table.get(sub, _ZERO) + p
    return JointPmf(variables, table, _validated=True)


def condition(pmf: JointPmf, target: Iterable[str],
              given: Mapping[str, object]) -> JointPmf:
    """Return the conditional pmf of `target` given the assignment `given`.

    Raises :class:`UnsupportedConditionError` when the conditioning event has
    zero probability.
    """
    target = list(target)
    for name in given:
        pmf._var_pos(name)
    tpos = [pmf._var_pos(name) for name in target]
    gpos = {pmf._var_pos(name): sym for name, sym in given.items()}
    table: dict = {}
    mass = _ZERO
    for key, p in pmf.items():
        if any(key[pos] != sym for pos, sym in gpos.items()):
            continue
        mass += p
        sub = tuple(key[pos] for pos in tpos)
        table[sub] = table.get(sub, _ZERO) + p
    if mass == 0:
        raise UnsupportedConditionError(
            "unsupported condition: event %r has zero probability" % (dict(given),))
    table = {k: p / mass for k, p in table.items()}
    variables = [pmf.variables[p] for p in tpos]
    return JointPmf(variables, table, _validated=True)


def merge_vars(pmf: JointPmf, new_name: str, parts: Sequence[str],
               keep: bool = False) -> JointPmf:
    """Add a composite variable whose symbols are the tuples of `parts`.

    With ``keep=False`` the part variables are removed; with ``keep=True``
    they stay alongside the (functionally determined) composite.  Used to
    realize substitutions such as W -> (W0, Wi) in region-equivalence checks.
    """
    part_pos = [pmf._var_pos(name) for name in parts]
    rest = [(k, v) for k, v in enumerate(pmf.variables)
            if keep or k not in part_pos]
    symbols = tuple(itertools.product(*(pmf.variables[p][1].symbols for p in part_pos)))
    variables = [(new_name, Alphabet(symbols))] + [v for _, v in rest]
    table: dict = {}
    for key, p in pmf.items():
        merged = tuple(key[p] for p in part_pos)
        newkey = (merged,) + tuple(key[k] for k, _ in rest)
        table[newkey] = table.get(newkey, _ZERO) + p
    return JointPmf(variables, table, _validated=True)


def check_markov(pmf: JointPmf, a: Iterable[str], b: Iterable[str],
                 c: Iterable[str]) -> bool:
    """True iff the chain A <-> B <-> C holds: the exact factorization
    mu(abc) mu(b) == mu(ab) mu(bc) at every (a, b, c)."""
    a, b, c = list(a), list(b), list(c)
    seen: set = set()
    for group in (a, b, c):
        for name in group:
            pmf._var_pos(name)
            if name in seen:
                raise ConfigurationError("variable %r appears in two blocks" % (name,))
            seen.add(name)
    return _factorizes(pmf, a, b, c)


def _factorizes(pmf: JointPmf, a, b, c) -> bool:
    """W(abc)*W(b) == W(ab)*W(bc) for every (a, b, c) in the table, where W is
    the table scaled to integers by the lcm of its denominators: the exact
    factorization test, with one scaling in place of Fraction products."""
    items = list(pmf.items())
    weights = integer_scaled([p for _, p in items])[0]
    pa, pb, pc = ([pmf._var_pos(name) for name in group] for group in (a, b, c))
    abc: dict = {}
    ab: dict = {}
    bc: dict = {}
    bm: dict = {}
    for (key, _), w in zip(items, weights):
        ka = tuple(key[i] for i in pa)
        kb = tuple(key[i] for i in pb)
        kc = tuple(key[i] for i in pc)
        abc[ka, kb, kc] = abc.get((ka, kb, kc), 0) + w
        ab[ka, kb] = ab.get((ka, kb), 0) + w
        bc[kb, kc] = bc.get((kb, kc), 0) + w
        bm[kb] = bm.get(kb, 0) + w
    return all(w * bm[kb] == ab[ka, kb] * bc[kb, kc] for (ka, kb, kc), w in abc.items())


# -- blocks of a memoryless source ------------------------------------------------


def choice_table(weights, total) -> np.ndarray:
    """The cumulative table that ``Generator.choice(len(p), p=p / p.sum())``
    searches, formed as it forms it, for p[k] = weights[k] / total rounded
    once, as ``float(Fraction(w, total))``: numpy's float64 division rounds
    integers from 2^53 on first, so larger totals are divided as Python ints."""
    p = np.asarray(weights, dtype=np.int64 if total < 1 << 53 else object) / int(total)
    p = p.astype(float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw(cdf, seed, size=None):
    """The indices ``default_rng(seed).choice(len(cdf), size, p=...)`` draws
    from the :func:`choice_table` `cdf`: its uniforms, searched in `cdf`."""
    return cdf.searchsorted(np.random.default_rng(seed).random(size), side="right")


def support_table(pmf: JointPmf) -> np.ndarray:
    """The :func:`choice_table` of the positive entries of `pmf`, built once
    per pmf: a uniform searched in it picks a letter id into ``pmf.support()``."""
    if pmf._cdf is None:
        pmf._cdf = choice_table(*integer_scaled([p for _, p in pmf.items() if p > 0]))
    return pmf._cdf


# -- convenience constructors ----------------------------------------------------


def dsbs(p) -> JointPmf:
    """Doubly symmetric binary source: X1 ~ Bern(1/2), X2 = X1 xor Bern(p)."""
    b = binary_alphabet()
    p = Fraction(p)
    half = Fraction(1, 2)
    table = {}
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[(x1, x2)] = half * (p if x1 != x2 else (1 - p))
    return JointPmf([("X1", b), ("X2", b)], table)


def random_pmf(rng: np.random.Generator, variables, denominator: int = 720) -> JointPmf:
    """Random strictly positive pmf over the given variables.

    Draws integer weights in [1, denominator) and divides by their sum, so
    the table is exact.
    """
    keys = list(itertools.product(*(a.symbols for _, a in variables)))
    weights = [int(x) for x in rng.integers(1, denominator, size=len(keys))]
    total = sum(weights)
    table = {k: Fraction(w, total) for k, w in zip(keys, weights)}
    return JointPmf(variables, table)
