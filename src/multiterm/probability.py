"""Exact finite probability model: joint pmfs over named discrete variables.

A :class:`JointPmf` is integer arrays over one denominator D: per table entry
a row of symbol ids and an integer weight w, its probability exactly w / D
(int64 when D < 2^63, else Python ints).  Rows keep table order, zero
probabilities included (support-set semantics matter for constrained-random
draws), and every operation lists its cells in order of their first row.
Floats appear only where an irrational quantity is evaluated: each pmf forms
w / D, correctly rounded, once for its entropies (:meth:`JointPmf.float_marginal`).
No float decides a draw: every seeded draw is the exact inverse CDF of an
integer law at one double of a ``Generator.random`` stream, decided in
integers (:func:`inverse_cdf`), whether the stream is a draw's own generator
or the single stream of a Monte Carlo call (:func:`multiterm.codec.simulate`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedConditionError
from .rational import int_array, integer_scaled

_ZERO = Fraction(0)
_UNIT = 1 << 53   # a double of Generator.random is m / 2^53, m an integer below this


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


def _ratios(weights, total) -> np.ndarray:
    """weights / total as floats, each correctly rounded, as
    ``float(Fraction(w, total))``: numpy's float64 division rounds integers
    from 2^53 on first, so larger totals are divided as Python ints."""
    weights = np.asarray(weights, dtype=np.int64 if total < 1 << 53 else object)
    return (weights / int(total)).astype(float)


def row_numbers(ids, sizes, symbol=None) -> np.ndarray:
    """The number of each row of the id matrix `ids` in product order of
    alphabets of `sizes` (one size per column, or one for all; the first
    column varies slowest), after mapping each id d to symbol[d] when
    `symbol` is given."""
    number = np.zeros(len(ids), dtype=np.int64)
    for column, size in zip(ids.T, [sizes] * ids.shape[1] if np.isscalar(sizes) else sizes):
        number = number * size + (column if symbol is None else symbol[column])
    return number


def _first_seen(number, bound: int) -> tuple:
    """(cell, first): per entry of `number` (integers below `bound`) its
    cell, equal for equal numbers and numbered in order of first
    appearance, and per cell its first entry."""
    first_at = np.full(bound, len(number))
    np.minimum.at(first_at, number, np.arange(len(number)))
    first = np.sort(first_at[first_at < len(number)])
    cell = np.empty(bound, dtype=np.int64)
    cell[number[first]] = np.arange(len(first))
    return cell[number], first


def first_cells(ids, sizes) -> tuple:
    """:func:`_first_seen` of the rows of the id matrix `ids` (columns over
    alphabets of `sizes`) read as numbers in product order, the prefix read so
    far renumbered by its cells once its numbers could exceed the row count."""
    number, bound = np.zeros(len(ids), dtype=np.int64), 1
    for column, size in zip(ids.T, sizes):
        if bound > len(ids):
            number, first = _first_seen(number, bound)
            bound = len(first)
        number = number * size + column
        bound *= size
    return _first_seen(number, bound)


def sum_at(cell, count: int, weights) -> np.ndarray:
    """The exact sums of `weights` into `count` cells, weight r into cell[r]."""
    sums = np.zeros(count, dtype=weights.dtype)
    np.add.at(sums, cell, weights)
    return sums


def ragged(lengths) -> tuple:
    """(owner, offset, starts) for runs of `lengths` laid end to end: each
    element's run, its place in the run, and where each run starts."""
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(len(owner)) - starts[owner], starts


class JointPmf:
    """Joint pmf over an ordered list of named variables.

    `variables` is a sequence of ``(name, Alphabet)`` pairs; `table` maps
    symbol tuples (aligned with the variable order) to probabilities, and
    its order is the row order.
    """

    def __init__(self, variables: Sequence[tuple], table: Mapping[tuple, object]):
        codes = [{sym: k for k, sym in enumerate(alph.symbols)} for _, alph in variables]
        ids, probs = [], []
        for key, p in table.items():
            key = tuple(key)
            if len(key) != len(codes):
                raise ConfigurationError(
                    "tuple arity %d does not match %d variables" % (len(key), len(codes)))
            for sym, code, (name, _) in zip(key, codes, variables):
                if sym not in code:
                    raise ConfigurationError("symbol %r outside alphabet of %r" % (sym, name))
            if Fraction(p) < 0:
                raise ConfigurationError("negative probability for %r" % (key,))
            ids.append([code[sym] for sym, code in zip(key, codes)])
            probs.append(Fraction(p))
        weights, denominator = integer_scaled(probs)
        self._set(variables, np.array(ids, dtype=np.int64).reshape(len(ids), len(codes)),
                  weights, denominator)
        total = Fraction(int(self.weights.sum()), denominator)
        if total != 1:
            raise ConfigurationError("total mass %s != 1" % (total,))

    @classmethod
    def from_arrays(cls, variables, ids, weights, denominator) -> "JointPmf":
        """The pmf of the distinct id rows `ids` with integer `weights` over
        `denominator`, their sum; the caller guarantees both."""
        pmf = cls.__new__(cls)
        pmf._set(variables, ids, weights, denominator)
        return pmf

    def _set(self, variables, ids, weights, denominator):
        names = [name for name, _ in variables]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate variable names: %r" % (names,))
        self.variables = tuple((name, alph) for name, alph in variables)
        self.names = tuple(names)
        self._index = {name: k for k, name in enumerate(names)}
        self.ids, self.denominator = ids, int(denominator)
        self.weights = int_array(weights, denominator)
        self._floats = None   # (positive rows, their floats), filled on first use

    # -- basic accessors -------------------------------------------------------

    def alphabet(self, name: str) -> Alphabet:
        return self.variables[self._var_pos(name)][1]

    def _var_pos(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError("unknown variable name %r" % (name,)) from None

    def cells(self, names: Iterable[str], rows=slice(None)) -> tuple:
        """:func:`first_cells` of `rows` on the variables `names`: per row
        its cell of their marginal, and per cell its first row."""
        positions = [self._var_pos(name) for name in names]
        return first_cells(self.ids[rows][:, positions],
                           [self.variables[pos][1].size for pos in positions])

    def items(self) -> list:
        """(symbol tuple, probability) per row, in row order."""
        columns = [[alph.symbols[k] for k in column]
                   for (_, alph), column in zip(self.variables, self.ids.T.tolist())]
        return list(zip(list(zip(*columns)) if columns else [()] * len(self.ids),
                        [Fraction(w, self.denominator) for w in self.weights.tolist()]))

    def prob(self, key: tuple) -> Fraction:
        key = tuple(key)
        known = len(key) == len(self.variables) and all(
            sym in alph.symbols for sym, (_, alph) in zip(key, self.variables))
        row = np.flatnonzero((self.ids == [alph.index(sym) for sym, (_, alph) in zip(
            key, self.variables)]).all(axis=1)) if known else []
        return Fraction(int(self.weights[row[0]]), self.denominator) if len(row) else _ZERO

    def float_marginal(self, names: Iterable[str]) -> np.ndarray:
        """Float masses of the positive cells of the marginal on `names`, in
        order of first appearance among the positive rows: each the sum of
        its rows' floats w / D (formed once per pmf, on first use), added in
        row order.  Entropies are evaluated from these; every exact check
        uses the integer weights instead.
        """
        if self._floats is None:
            positive = np.flatnonzero(self.weights > 0)
            self._floats = positive, _ratios(self.weights[positive], self.denominator)
        positive, floats = self._floats
        cell, first = self.cells(names, positive)
        return np.bincount(cell, weights=floats, minlength=len(first))

    def __eq__(self, other):
        if not isinstance(other, JointPmf):
            return NotImplemented
        positive = [{key: p for key, p in pmf.items() if p} for pmf in (self, other)]
        return self.variables == other.variables and positive[0] == positive[1]

    def __repr__(self):
        return "JointPmf(%s; %d rows)" % (",".join(self.names), len(self.ids))


# -- core operations -----------------------------------------------------------


def _summed(pmf: JointPmf, names, rows, denominator) -> JointPmf:
    """The law on `names` of `rows` of `pmf`, weights summed per cell, over `denominator`."""
    positions = [pmf._var_pos(name) for name in names]
    cell, first = pmf.cells(names, rows)
    return JointPmf.from_arrays([pmf.variables[pos] for pos in positions],
                                pmf.ids[rows][first][:, positions],
                                sum_at(cell, len(first), pmf.weights[rows]), denominator)


def marginalize(pmf: JointPmf, keep: Iterable[str]) -> JointPmf:
    """Sum out all variables not in `keep`; mass is preserved."""
    return _summed(pmf, list(keep), slice(None), pmf.denominator)


def condition(pmf: JointPmf, target: Iterable[str],
              given: Mapping[str, object]) -> JointPmf:
    """Return the conditional pmf of `target` given the assignment `given`.

    Raises :class:`UnsupportedConditionError` when the conditioning event has
    zero probability.
    """
    hit = np.ones(len(pmf.ids), dtype=bool)
    for name, sym in given.items():
        symbols = pmf.alphabet(name).symbols
        hit &= pmf.ids[:, pmf._var_pos(name)] == (symbols.index(sym) if sym in symbols else -1)
    mass = int(pmf.weights[hit].sum())
    if mass == 0:
        raise UnsupportedConditionError(
            "unsupported condition: event %r has zero probability" % (dict(given),))
    return _summed(pmf, list(target), np.flatnonzero(hit), mass)


def merge_vars(pmf: JointPmf, new_name: str, parts: Sequence[str],
               keep: bool = False) -> JointPmf:
    """Add a composite variable whose symbols are the tuples of `parts`.

    With ``keep=False`` the part variables are removed; with ``keep=True``
    they stay alongside the (functionally determined) composite.  Used to
    realize substitutions such as W -> (W0, Wi) in region-equivalence checks.
    The composite and the other columns determine a row, so rows stay as
    they are.
    """
    part_pos = [pmf._var_pos(name) for name in parts]
    rest = [k for k in range(len(pmf.variables)) if keep or k not in part_pos]
    symbols = tuple(itertools.product(*(pmf.variables[p][1].symbols for p in part_pos)))
    variables = [(new_name, Alphabet(symbols))] + [pmf.variables[k] for k in rest]
    merged = row_numbers(pmf.ids[:, part_pos], [pmf.variables[p][1].size for p in part_pos])
    return JointPmf.from_arrays(variables, np.column_stack([merged, pmf.ids[:, rest]]),
                                pmf.weights, pmf.denominator)


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
    """W(abc)*W(b) == W(ab)*W(bc) at every row of the table, W the integer
    weights summed over each marginal's cell: the exact factorization test,
    without Fraction products (a product is at most D^2)."""
    weights = int_array(pmf.weights, pmf.denominator ** 2)

    def summed(names):
        cell, first = pmf.cells(names)
        return sum_at(cell, len(first), weights)[cell]

    return bool(np.all(summed(a + b + c) * summed(b) == summed(a + b) * summed(b + c)))


# -- exact draws ---------------------------------------------------------------------


def inverse_cdf(weights, count, law, uniforms) -> np.ndarray:
    """Exact inverse-CDF draws from integer laws laid end to end.

    Law u holds the next count[u] entries of `weights`, a non-negative
    integer array.  Draw t reads law law[t] (one law for all draws, or one
    per draw) at the double u = uniforms[t] of a ``Generator.random``
    stream, which is m / 2^53 for an integer m, and gives the place in
    `weights` of the law's first entry whose prefix sum within the law
    exceeds floor(m * total / 2^53), total the law's sum: the entry k with
    prefix[k - 1] <= u * total < prefix[k].  An empty law (total 0) gives -1.
    The result has the shape of `uniforms`.
    Prefix sums of integers are exact in any grouping, so one cumsum and one
    searchsorted serve every law and every draw.  Numbers are int64 where a
    bound proves they fit and Python ints in object arrays otherwise.  The
    draw differs from ``Generator.choice`` on the law's float probabilities
    only where u lies within float rounding of a law boundary.
    """
    weights = int_array(weights, int(weights.max(initial=0)) * len(weights))
    prefix = np.zeros(len(weights) + 1, dtype=weights.dtype)
    np.cumsum(weights, out=prefix[1:])
    law, ends = np.ravel(law), np.cumsum(count)
    base = prefix[ends - count][law]
    total = prefix[ends][law] - base
    m = int_array((np.ravel(uniforms) * _UNIT).astype(np.int64), int(prefix[-1]) * _UNIT)
    target = (base + (m * total.astype(m.dtype) >> 53)).astype(prefix.dtype)
    place = prefix.searchsorted(target, side="right") - 1
    return np.where(total > 0, place, -1).reshape(np.shape(uniforms))


# -- convenience constructors ----------------------------------------------------


def dsbs(p) -> JointPmf:
    """Doubly symmetric binary source: X1 ~ Bern(1/2), X2 = X1 xor Bern(p)."""
    b, p = Alphabet((0, 1)), Fraction(p)
    return JointPmf([("X1", b), ("X2", b)], {(x1, x2): (p if x1 != x2 else 1 - p) / 2
                                             for x1 in (0, 1) for x2 in (0, 1)})


def random_pmf(rng: np.random.Generator, variables, denominator: int = 720) -> JointPmf:
    """Random strictly positive pmf over the given variables, its rows in
    product order.

    Draws integer weights in [1, denominator) and divides by their sum, so
    the table is exact.
    """
    sizes = [alph.size for _, alph in variables]
    ids = np.indices(sizes).reshape(len(sizes), -1).T
    weights = rng.integers(1, denominator, size=len(ids))
    return JointPmf.from_arrays(variables, ids, weights, int(weights.sum()))
