"""Constrained-random-number-generator source code: encoders, decoders,
exact error oracles, and Monte Carlo simulation.

The encoder of a sharing cell draws the cell's auxiliary blocks from the
channel conditional restricted to the hash constraints f_i(w_i) = c_i and
renormalized; the decoder draws candidate blocks from the model posterior
restricted to all (f, g) constraints.  Everything is enumerated explicitly,
so exactness is provable at desk scale; there is no MCMC.

Blocks are integer arrays.  A W_S-block (S a set of encoders) is a row of
letter ids, one per position, into the positive-mass W_S letters of the model
joint over (W, source).  Each encoder set has one class index, shared by an
encoder cell and a decoder with I_j = S: the rows of its f-admissible blocks
with their g-class ids, each hash evaluated once per W_i-block.  Every
constrained law is in integers.  Each (observed letter, W_S letter) entry of
the model joint is scaled once per code to an integer weight (by the lcm of
that observed letter's denominators, a factor shared by every candidate of a
law, so it cancels), which gives a dense table T; one kernel,
:func:`_weights`, weighs candidate rows by the product over positions of
T[observed letter, W_S letter].  A law is its candidates of positive weight
with their integer total; draws divide each weight by the total once.

The exact oracle applies the same kernel to many classes at once.  It works
on batches of at most ``_ROW_CAP`` rows: source blocks, their encoder draws
(a ragged product of each cell's positive draws), the decoder classes those
reach, and the class candidates.  Numbers are int64 where a bound proves they
fit and Python ints in object arrays otherwise; one Fraction is formed per
distinct denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DecoderAbort,
    EncoderAbort,
    EmptySupportError,
)
from .hashing import HashFunction, _int_array
from .network import (
    ConditionalPmf,
    NetworkConfig,
    Reproducer,
    build_joint,
    w_alphabets,
    w_name,
)
from .probability import JointPmf, block_products, marginalize, sample
from .rational import integer_scaled

_EXACT_BUDGET = 1 << 24
_INDEX_BUDGET = 1 << 20     # W_S-blocks scanned by one class index (4 letters at n = 10)
_ROW_CAP = 1 << 15          # rows of one exact-oracle batch
_INT64 = 1 << 63


# -- generic constrained-random draws -----------------------------------------------


def crng_law(base, constraint):
    """Restrict an enumerated distribution to a predicate and renormalize.

    `base` is an iterable of (item, weight); returns the exact conditional
    law as a list of (item, probability).  Raises
    :class:`EmptySupportError` when the constrained mass is zero.
    """
    kept = [(item, p) for item, p in base if p > 0 and constraint(item)]
    total = sum(p for _, p in kept)
    if not kept or total == 0:
        raise EmptySupportError("constraint set has zero probability mass")
    return [(item, p / total) for item, p in kept]


def law_floats(law) -> np.ndarray:
    """The probabilities of `law` = (items, total) as floats, `weight / total`
    each.  For integer weights this is int true division, which rounds
    correctly: each entry equals ``float(Fraction(weight, total))``."""
    items, total = law
    return np.array([w / total for _, w in items], dtype=float)


def sample_from_law(law, seed):
    """One draw from `law` = (items, total): (item, weight) pairs and their sum."""
    rng = np.random.default_rng(seed)
    probs = law_floats(law)
    probs = probs / probs.sum()
    items, _ = law
    return items[int(rng.choice(len(items), p=probs))][0]


def _transpose(names, letters) -> dict:
    """A block given as its letters (one symbol tuple per position, aligned
    with `names`) as one block per name."""
    return dict(zip(names, zip(*letters)))


def _digits(ids, base: int, n: int, dtype=np.int64) -> np.ndarray:
    """The n base-`base` digits of each id, most significant first: the
    blocks numbered `ids` in product order, as rows of letter ids."""
    out = np.empty((len(ids), n), dtype=dtype)
    for pos in range(n):
        out[:, pos] = ids // base ** (n - 1 - pos) % base
    return out


def _weights(table, observed, rows):
    """The weighting kernel: for each block of `rows` (W_S letter ids,
    positions on the last axis), the product over positions of
    table[observed letter, W_S letter].  `observed` holds observed letter
    ids and broadcasts against `rows`: one block for every row, or one per
    row."""
    return np.multiply.reduce(table[observed, rows], axis=-1)


def _row_ids(rows) -> tuple:
    """(ids, first): an id per row of the integer matrix `rows`, equal for
    equal rows and numbered in sorted row order, and per id the index of its
    first row."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _object_array(values) -> np.ndarray:
    """`values` as a 1-D object array (symbols may themselves be tuples)."""
    out = np.empty(len(values), dtype=object)
    for k, value in enumerate(values):
        out[k] = value
    return out


def _positive_letters(joint: JointPmf, S) -> list:
    """The W_S letters of positive mass in the model joint, in its order."""
    return [w for w, p in marginalize(joint, [w_name(i) for i in S]).items() if p > 0]


def check_index_budget(config: NetworkConfig, joint: JointPmf, n: int):
    """Refuse a code whose class indexes would be too large, before any hash
    is evaluated: each sharing cell's index, then each decoder's I_j index,
    scans letters^n blocks (letters: the positive-mass W_S letters), and one
    above ``_INDEX_BUDGET`` raises :class:`BudgetExceededError`."""
    for S in [*config.sharing, *(tuple(config.codewords_to[j]) for j in config.decoders)]:
        letters = len(_positive_letters(joint, S))
        if letters ** n > _INDEX_BUDGET:
            raise BudgetExceededError(
                "class index of encoders %r needs %d letters ^ n=%d = %d blocks "
                "(budget %d)" % (S, letters, n, letters ** n, _INDEX_BUDGET))


# -- code instances ------------------------------------------------------------------


def realized_size(rate: float, n: int) -> int:
    """Image size realizing a target rate at block length n: round(2^(rate*n)).

    Exact powers of two are hit exactly; other targets use the nearest
    integer (at least 1), so the realized rate log2(size)/n can deviate from
    the target at small n.
    """
    return max(1, round(2 ** (rate * n)))


@dataclass
class _ClassIndex:
    """The f-admissible W_S-blocks of an encoder set S, by their g values on S.

    `rows[r]` holds the letter ids (into `letters`) of admissible block r.
    Rows run class by class, the classes in the order of their first block
    in product order, and in product order within a class.  `cls[r]` is the
    class of row r; class c holds rows bounds[c]:bounds[c + 1]; `lookup`
    maps the g values on S to their class; `row_of` maps a block's
    product-order number to its row, or -1 when it is not admissible;
    `symbols[e][l]` is encoder S[e]'s symbol in letter l; and `blocks` holds
    the rows that a law has held, as blocks by encoder (symbol tuples).
    """

    letters: list
    symbols: list
    rows: np.ndarray
    cls: np.ndarray
    bounds: np.ndarray
    lookup: dict
    row_of: np.ndarray
    blocks: dict = field(default_factory=dict)


@dataclass
class CodeInstance:
    """One concrete code: block length, hash functions, constraint vectors.

    `f[i]`/`g[i]` map encoded W_i-blocks (base-|W_i| integers) to the shared
    constraint alphabet C_i and the codeword alphabet M_i; `c[i]` fixes the
    constraint value shared by encoder i and every decoder seeing codeword i.
    """

    n: int
    config: NetworkConfig
    source: JointPmf
    channels: Mapping[tuple, ConditionalPmf]
    reproducers: Mapping[object, Reproducer]
    f: Mapping[object, HashFunction]
    g: Mapping[object, HashFunction]
    c: Mapping[object, object]

    def __post_init__(self):
        self._w_alph = w_alphabets(self.config, self.channels)
        for i in self.config.encoders:
            dom = self._w_alph[i].size ** self.n
            for fam, label in ((self.f, "f"), (self.g, "g")):
                if i not in fam:
                    raise ConfigurationError("missing %s function for encoder %r" % (label, i))
                if fam[i].domain_size != dom:
                    raise ConfigurationError(
                        "%s_%r domain %d != |W|^n = %d" % (label, i, fam[i].domain_size, dom))
            if i not in self.c:
                raise ConfigurationError("missing constraint value for encoder %r" % (i,))
            c = self.c[i]
            if not (isinstance(c, (int, np.integer)) and 0 <= c < self.f[i].image_size):
                raise ConfigurationError(
                    "constraint value %r for encoder %r outside the f image" % (c, i))
        self._joint = build_joint(self.config, self.source, self.channels)
        self._reproduction_args = self._resolve_reproducers()
        self._hashed_blocks: dict = {}   # encoder -> its hash values per W_i-block
        self._class_indexes: dict = {}   # S -> _ClassIndex
        self._tables: dict = {}          # (S, observed) -> (T, bound)
        self._laws: dict = {}

    def _resolve_reproducers(self) -> dict:
        """Decoder j -> [(k, table of reproducer k, per argument the encoder
        whose block it reads, or None for the side information)]."""
        encoder_of = {w_name(i): i for i in self.config.encoders}
        resolved = {j: [] for j in self.config.decoders}
        for j in self.config.decoders:
            for k in self.config.reproductions.get(j, ()):
                rep = self.reproducers.get(k)
                if rep is None:
                    raise ConfigurationError("missing reproducer for reproduction %r" % (k,))
                for arg in rep.args:
                    if arg.startswith("W") and arg not in encoder_of:
                        raise ConfigurationError("unknown codeword variable %r" % (arg,))
                resolved[j].append((k, rep.table, [encoder_of.get(a) for a in rep.args]))
        return resolved

    # -- rates ------------------------------------------------------------------------

    def aux_rate(self, i) -> float:
        return math.log2(self.f[i].image_size) / self.n

    def rate(self, i) -> float:
        return math.log2(self.g[i].image_size) / self.n

    # -- block encoding helpers ---------------------------------------------------------

    def block_to_int(self, i, block) -> int:
        alph = self._w_alph[i]
        value = 0
        for sym in block:
            value = value * alph.size + alph.index(sym)
        return value

    def model_joint(self) -> JointPmf:
        return self._joint

    def _hashed(self, i):
        """Encoder i's hash values; each hash runs once per W_i-block.

        Returns (digit, meets, gid, values): `digit` numbers the positive-mass
        W_i symbols; for each block of them, numbered in product order by
        those digits, `meets` says whether f_i meets c_i and `gid` is the
        position of its g_i value in `values`.
        """
        hashed = self._hashed_blocks.get(i)
        if hashed is None:
            digit = {w: d for d, (w,) in enumerate(_positive_letters(self._joint, (i,)))}
            f, g, c = self.f[i], self.g[i], self.c[i]
            meets, gid, values = [], [], {}
            for block, _ in block_products([[(w, 1) for w in digit]] * self.n):
                v = self.block_to_int(i, block)
                meets.append(f(v) == c)
                gid.append(values.setdefault(g(v), len(values)))
            hashed = self._hashed_blocks[i] = (
                digit, np.array(meets, dtype=bool), np.array(gid, dtype=np.int64), list(values))
        return hashed

    def _g_value(self, i, block):
        """The g_i value of a W_i-block given as its symbols."""
        digit, _, gid, values = self._hashed(i)
        number = 0
        for w in block:
            number = number * len(digit) + digit[w]
        return values[gid[number]]

    # -- the constrained draw shared by encoders and decoders ----------------------------

    def _index(self, S) -> _ClassIndex:
        """The class index of encoder set S, built on first use and kept.

        The first index built checks the size of every index the code needs
        (:func:`check_index_budget`).
        """
        index = self._class_indexes.get(S)
        if index is None:
            if not self._class_indexes:
                check_index_budget(self.config, self._joint, self.n)
            index = self._class_indexes[S] = self._build_index(S)
        return index

    def _build_index(self, S) -> _ClassIndex:
        letters = _positive_letters(self._joint, S)
        n, size = self.n, len(letters)
        digits = _digits(np.arange(size ** n), size, n, np.min_scalar_type(size - 1))
        admissible = np.ones(size ** n, dtype=bool)
        keys, values = [], []
        for e, i in enumerate(S):
            digit, meets, gid, g_values = self._hashed(i)
            letter_digit = np.array([digit[letter[e]] for letter in letters])
            number = np.zeros(size ** n, dtype=np.int64)
            for pos in range(n):
                number = number * len(digit) + letter_digit[digits[:, pos]]
            admissible &= meets[number]
            keys.append(gid[number])
            values.append(g_values)
        kept = np.flatnonzero(admissible)
        classes = np.stack([key[kept] for key in keys], axis=1)
        ids, first = _row_ids(classes)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        cls = rank[ids]
        by_class = np.argsort(cls, kind="stable")
        kept, cls = kept[by_class], cls[by_class]
        row_of = np.full(size ** n, -1, dtype=np.int64)
        row_of[kept] = np.arange(len(kept))
        keys = classes[first[order]]
        lookup = dict(zip(zip(*(_object_array(values[e])[keys[:, e]].tolist()
                                for e in range(len(S)))), range(len(order))))
        return _ClassIndex(
            letters=letters, symbols=[_object_array([w[e] for w in letters]) for e in range(len(S))],
            rows=digits[kept], cls=cls, bounds=np.searchsorted(cls, np.arange(len(order) + 1)),
            lookup=lookup, row_of=row_of)

    def _table(self, S, given):
        """The weighting table of encoder set S observing the variable `given`
        (None for no observation): (T, bound).

        T[v, l] is the model-joint weight of W_S letter l jointly with the
        `given` letter of alphabet id v, each observed letter's row scaled to
        integers by its own lcm (a row of zeros at an observed letter of zero
        mass); without observation T is the W_S marginal, one row.  `bound`
        bounds the weight of a block, the product of n entries; T is int64
        when every sum of block weights over the index fits.
        """
        table = self._tables.get((S, given))
        if table is None:
            column = {w: l for l, w in enumerate(self._index(S).letters)}
            names = [w_name(i) for i in S] + ([given] if given else [])
            by_letter: dict = {}
            for key, p in marginalize(self._joint, names).items():
                w, v = (key[:-1], key[-1]) if given else (key, None)
                if p:
                    by_letter.setdefault(v, {})[column[w]] = p
            rows = []
            for v in (self._joint.alphabet(given).symbols if given else (None,)):
                row = [0] * len(column)
                weights = by_letter.get(v, {})
                for l, x in zip(weights, integer_scaled(list(weights.values()))[0]):
                    row[l] = x
                rows.append(row)
            bound = max(map(max, rows)) ** self.n
            table = self._tables[S, given] = (
                _int_array(rows, bound * len(column) ** self.n), bound)
        return table

    def _observed(self, var, block) -> np.ndarray:
        """The alphabet ids of an observed block (all 0 without observation)."""
        if var is None:
            return np.zeros(self.n, dtype=np.intp)
        alph = self._joint.alphabet(var)
        return np.array([alph.index(v) for v in block], dtype=np.intp)

    def _weighed(self, S, given, block, first, stop) -> list:
        """The law items of the index rows first..stop-1 of S weighed at the
        `given` block: (blocks by encoder, weight) for each row of positive
        weight, in row order.  Each row's blocks are built once, when a law
        first holds it."""
        index = self._index(S)
        table, _ = self._table(S, given)
        weights = _weights(table, self._observed(given, block), index.rows[first:stop])
        keep = np.flatnonzero(weights)
        kept = weights[keep].tolist()
        keep = (keep + first).tolist()
        new = [r for r in keep if r not in index.blocks]
        if new:
            columns = [map(tuple, symbols[index.rows[new]].tolist()) for symbols in index.symbols]
            index.blocks.update(zip(new, (dict(zip(S, blocks)) for blocks in zip(*columns))))
        return list(zip(map(index.blocks.__getitem__, keep), kept))

    def _law(self, key, weigh, abort, message):
        """The cached law `key` = (side, cell or decoder, ...): (items, total),
        the admissible candidates of positive integer weight that `weigh()`
        returns and the sum of their weights; an empty law raises
        `abort(message % key[1])`."""
        if key not in self._laws:
            items = weigh()
            self._laws[key] = (items, sum(w for _, w in items)) if items else None
        law = self._laws[key]
        if law is None:
            raise abort(message % (key[1],))
        return law

    # -- encoder -------------------------------------------------------------------------

    def cell_base_law(self, cell, x_block):
        """Encoder weighting step: the cell's f-admissible W-blocks of every
        class with their positive integer weights jointly with x_block: the
        channel-row products times P(x_l) per position, which cancels in the
        law.  An x_block with a letter of zero source mass gets no candidates
        (EncoderAbort); no drawn or enumerated source block has one."""
        cell = tuple(cell)
        x_var = self.channels[cell].inputs[0][0]
        return self._weighed(cell, x_var, x_block, 0, len(self._index(cell).rows))

    def cell_constrained_law(self, cell, x_block):
        """Encoder CRNG law: channel law restricted to f_i(w_i) = c_i, as
        (items, total); the probability of a block is weight / total."""
        cell = tuple(cell)
        return self._law(("encoder", cell, tuple(x_block)),
                         lambda: self.cell_base_law(cell, x_block), EncoderAbort,
                         "cell %r: no admissible block for its constraints")

    def encode(self, cell, x_block, seed):
        """Joint draw for one sharing cell: (blocks by encoder, codewords)."""
        blocks = sample_from_law(self.cell_constrained_law(cell, x_block), seed)
        return blocks, {i: self._g_value(i, blocks[i]) for i in cell}

    # -- decoder -------------------------------------------------------------------------

    def decoder_class_law(self, j, m: Mapping, y_block):
        """Posterior over W_{I_j}-blocks restricted to the (f, g) classes, as
        (items, total); the probability of a candidate is weight / total.

        The model posterior factorizes across letters (everything is
        memoryless), so a candidate's weight is the product of its letters'
        model weights jointly with the observed side-information letters.
        Only the candidates of the class that `m` names are weighted.
        """
        ij = tuple(self.config.codewords_to[j])
        values = tuple(m[i] for i in ij)
        if y_block is not None:
            y_block = tuple(y_block)
        return self._law(("decoder", j, values, y_block),
                         lambda: self._class_items(j, ij, values, y_block),
                         DecoderAbort, "decoder %r: empty posterior class")

    def _class_items(self, j, ij, values, y_block) -> list:
        index = self._index(ij)
        c = index.lookup.get(values)
        if c is None:
            return []
        return self._weighed(ij, self.config.side_info.get(j), y_block,
                             index.bounds[c], index.bounds[c + 1])

    def reproduce(self, j, w_blocks: Mapping, y_block):
        """Apply the decoder's reproducers per letter."""
        out = {}
        for k, table, sources in self._reproduction_args[j]:
            arg_blocks = [y_block if i is None else w_blocks[i] for i in sources]
            out[k] = tuple(map(table.__getitem__, zip(*arg_blocks)))
        return out

    def decode(self, j, m: Mapping, y_block, seed, rule: str = "crng"):
        """Draw (or select) the decoder's block estimate and reproductions."""
        law = self.decoder_class_law(j, m, y_block)
        if rule == "crng":
            w_hat = sample_from_law(law, seed)
        elif rule == "map":
            w_hat = map_estimate(law[0], self.config.codewords_to[j])
        else:
            raise ConfigurationError("unknown decode rule %r" % (rule,))
        return w_hat, self.reproduce(j, w_hat, y_block)


def map_estimate(law, ij):
    """Deterministic argmax of the restricted posterior, given as its
    (blocks, weight) items.

    Ties break toward the lexicographically smallest block tuple (encoder
    order, then letter order).
    """
    ij = tuple(ij)
    return min(law, key=lambda item: (-item[1], tuple(tuple(item[0][i]) for i in ij)))[0]


# -- exact error oracle ---------------------------------------------------------------


@dataclass
class ExactError:
    mismatch: Fraction
    exceed: dict
    encoder_abort: Fraction


class _BalancedSum:
    """Exact sum of many Fractions, added in a balanced binary tree.

    The oracle's terms have unrelated denominators, so a running total's
    denominator grows with each term and a left-to-right sum takes time
    quadratic in the number of terms.  Here only partial sums of equal term
    counts are added together, and at most log2(terms) partial sums are kept.
    """

    def __init__(self):
        self._partials: list = []   # _partials[i]: sum of 2^i terms, or None

    def add(self, term):
        for level, partial in enumerate(self._partials):
            if partial is None:
                self._partials[level] = term
                return
            term = partial + term
            self._partials[level] = None
        self._partials.append(term)

    def total(self) -> Fraction:
        return sum((p for p in self._partials if p is not None), Fraction(0))


def _product(factors) -> tuple:
    """The elementwise product of (integer array, bound) factors, as
    (integer array, bound): int64 when the bound proves it fits, Python ints
    in an object array otherwise."""
    bound = math.prod(b for _, b in factors)
    dtype = np.int64 if bound < _INT64 else object
    out = factors[0][0].astype(dtype)
    for values, _ in factors[1:]:
        out = out * values.astype(dtype, copy=False)
    return out, bound


def _sum_at(where, count: int, values, bound) -> np.ndarray:
    """The sums of `values` (each at most `bound`) into `count` groups, value
    v into group where[v]: int64 when len(values) such terms fit."""
    dtype = np.int64 if bound * len(values) < _INT64 else object
    sums = np.zeros(count, dtype=dtype)
    np.add.at(sums, where, values.astype(dtype, copy=False))
    return sums


def _sum_by(keys, values, bound) -> tuple:
    """(distinct keys in sorted order, the sum of `values` over each)."""
    distinct, where = np.unique(keys, return_inverse=True)
    return distinct, _sum_at(where, len(distinct), values, bound)


def _accumulate(numerators: dict, keys: list, denominators: list, values):
    """Add each of `values` = (integers, bound) to the numerator of its
    denominator.  The columns `keys` (small ints, one row per value) name
    the denominator, the product of the (integers, bound) `denominators` at
    that row, so that values are grouped without sorting large integers."""
    where, first = _row_ids(np.stack(keys, axis=1))
    sums = _sum_at(where, len(first), *values)
    totals, _ = _product([(factor[first], bound) for factor, bound in denominators])
    for denominator, total in zip(totals.tolist(), sums.tolist()):
        if total:
            _add(numerators, denominator, total)


def _add(numerators: dict, denominator: int, numerator: int):
    numerators[denominator] = numerators.get(denominator, 0) + numerator


def _fraction_sum(numerators: dict, scale: int) -> Fraction:
    """The exact sum of numerator / (denominator * scale) over a
    denominator -> numerator dict."""
    acc = _BalancedSum()
    for denominator, numerator in numerators.items():
        acc.add(Fraction(numerator, denominator * scale))
    return acc.total()


def _runs(lengths):
    """Consecutive ranges [a, b) of runs whose lengths sum to at most
    ``_ROW_CAP`` (a longer run is a range of its own)."""
    ends = np.cumsum(lengths)
    a = 0
    while a < len(lengths):
        b = int(np.searchsorted(ends, (ends[a - 1] if a else 0) + _ROW_CAP, side="right"))
        b = max(b, a + 1)
        yield a, b
        a = b


def _ragged(lengths) -> tuple:
    """(owner, offset, starts) for runs of `lengths` laid end to end: each
    element's run, its place in the run, and where each run starts."""
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(len(owner)) - starts[owner], starts


def _exceeds(measure, differ, bound) -> np.ndarray:
    """Per row of `differ` (where a reproduced block differs from its source
    block, letter by letter), whether the distortion exceeds `bound`; the
    floats are those of :meth:`DistortionMeasure.block`."""
    if measure.kind == "hamming":
        return np.count_nonzero(differ, axis=1) / differ.shape[1] > bound
    return np.where(differ.any(axis=1), 1.0, 0.0) > bound


class _Source:
    """The source blocks of a code, numbered in product order of the
    positive-mass source letters, with their integer weights."""

    def __init__(self, code: CodeInstance):
        support = [(letter, p) for letter, p in code.source.items() if p > 0]
        self.pmf, self.n = code.source, code.n
        self.letters = [letter for letter, _ in support]
        weights, self.scale = integer_scaled([p for _, p in support])
        self.bound = max(weights) ** code.n
        self.weights = _int_array(weights, self.bound)
        self.count = len(support) ** code.n

    def ids(self, var) -> np.ndarray:
        """Per source letter, the alphabet id of its `var` symbol (0 for no
        variable)."""
        if var is None:
            return np.zeros(len(self.letters), dtype=np.intp)
        pos, alph = self.pmf.names.index(var), self.pmf.alphabet(var)
        return np.array([alph.index(letter[pos]) for letter in self.letters], dtype=np.intp)

    def numbering(self, var) -> tuple:
        """(number, symbols): the alphabet ids `symbols` of the `var` symbols
        that occur, and `number`, which numbers the `var` blocks of source
        blocks (rows of source letter ids) in product order of those."""
        symbols, digit = np.unique(self.ids(var), return_inverse=True)
        powers = len(symbols) ** np.arange(self.n - 1, -1, -1)
        return (lambda digits: digit[digits] @ powers), symbols


class _CellDraws:
    """A sharing cell's encoder laws at every block of its input variable:
    ragged arrays of each law's positive draws."""

    def __init__(self, code: CodeInstance, cell, source: _Source):
        x_var = code.channels[cell].inputs[0][0]
        index = code._index(cell)
        table, self.bound = code._table(cell, x_var)
        self.rows = index.rows
        self.number, symbols = source.numbering(x_var)
        x_rows = symbols[_digits(np.arange(len(symbols) ** code.n), len(symbols), code.n)]
        step = max(1, _ROW_CAP // max(1, len(index.rows)))
        parts = []
        for lo in range(0, len(x_rows), step):
            w = _weights(table, x_rows[lo:lo + step, None, :], index.rows)
            x, row = np.nonzero(w)
            parts.append((row, w[x, row], w.sum(axis=1), np.bincount(x, minlength=len(w))))
        self.letters = index.letters
        self.row, self.weight, self.total, self.count = (
            np.concatenate(part) for part in zip(*parts))
        self.start = np.cumsum(self.count) - self.count
        self.total_bound = self.bound * max(1, len(index.rows))


class _Batch:
    """Encoder draws of a range of source blocks: per source block its source
    letter ids and the product of its cell law totals, with an id per
    distinct product; per state (a source block with one positive draw per
    cell) its source block, its weight, and each cell's drawn W-letter ids."""

    def __init__(self, digits, scale, scale_id, block, weight, letters):
        self.digits, self.scale, self.scale_id = digits, scale, scale_id
        self.block, self.weight, self.letters = block, weight, letters


def _batches(source: _Source, cells: list, lo: int, hi: int):
    """(weight of the source blocks lo..hi-1 at which some cell's law is
    empty, the batches of at most ``_ROW_CAP`` states of the others)."""
    digits = _digits(np.arange(lo, hi), len(source.letters), source.n)
    p = np.prod(source.weights[digits], axis=1)
    x = [cell.number(digits) for cell in cells]
    counts = np.prod([cell.count[u] for cell, u in zip(cells, x)], axis=0)
    abort = sum(p[counts == 0].tolist())
    scale = _product([(cell.total[u], cell.total_bound) for cell, u in zip(cells, x)])
    scale_id = np.unique(scale[0], return_inverse=True)[1]
    ends = np.cumsum(counts)

    def states():
        for s in range(0, int(ends[-1]), _ROW_CAP):
            state = np.arange(s, min(s + _ROW_CAP, int(ends[-1])))
            block = np.searchsorted(ends, state, side="right")
            offset = state - (ends[block] - counts[block])
            entries = []
            for cell, u in zip(reversed(cells), reversed(x)):
                per = cell.count[u[block]]
                entries.append(cell.start[u[block]] + offset % per)
                offset = offset // per
            entries.reverse()
            weight = _product([(p[block], source.bound)]
                              + [(cell.weight[e], cell.bound) for cell, e in zip(cells, entries)])
            yield _Batch(digits, scale, scale_id, block, weight,
                         [cell.rows[cell.row[e]] for cell, e in zip(cells, entries)])
    return abort, states()


class _DecoderClasses:
    """One decoder as the oracle reads it: the class of each state's true
    W_{I_j}-blocks, that class's law given the state's side information, and
    the distortion hits of the class's candidates."""

    def __init__(self, code: CodeInstance, j, cells: list, source: _Source, rule, bounds):
        cfg = code.config
        self.rule = rule
        ij = tuple(cfg.codewords_to[j])
        self.index = index = code._index(ij)
        y = cfg.side_info.get(j)
        self.table, self.bound = code._table(ij, y)
        self.total_bound = self.bound * max(1, len(index.rows))
        self.y_ids = source.ids(y)
        self.y_number, symbols = source.numbering(y)
        self.y_count = len(symbols) ** code.n
        self.powers = len(index.letters) ** np.arange(code.n - 1, -1, -1)
        # the I_j letter of each combination of letters of the cells that hold I_j
        letter_id = {w: l for l, w in enumerate(index.letters)}
        self.parts = [c for c, cell in enumerate(cfg.sharing) if set(cell) & set(ij)]
        sizes = [len(cells[c].letters) for c in self.parts]
        self.strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
        joined = []
        for combo in itertools.product(*map(range, sizes)):
            symbol = {}
            for c, l in zip(self.parts, combo):
                symbol.update(zip(cfg.sharing[c], cells[c].letters[l]))
            joined.append(letter_id.get(tuple(symbol[i] for i in ij), -1))
        self.project = np.array(joined, dtype=np.intp)
        self.reproductions = [
            self._reproduction(code, k, table, sources, ij, y, source, bounds[k])
            for k, table, sources in code._reproduction_args[j]]
        if rule == "map":
            rank = []
            for e in range(len(ij)):
                order = {w: r for r, w in enumerate(sorted({w[e] for w in index.letters}))}
                rank.append([order[w[e]] for w in index.letters])
            self.rank = np.array(rank, dtype=np.int64).T   # (letter, encoder)

    def _reproduction(self, code, k, table, sources, ij, y, source: _Source, bound):
        """(k, measure, bound, x, z) of one reproduction: the distortion measure
        and D_k + delta; x[s], the symbol id of the measured variable in
        source letter s; z[v, l], the symbol id of the reproduction of I_j
        letter l at side-information letter v (-1 at zero mass)."""
        measure = code.config.distortions[k]
        letters = self.index.letters
        symbol_id: dict = {}
        pos = source.pmf.names.index(measure.source)
        x = np.array([symbol_id.setdefault(letter[pos], len(symbol_id))
                      for letter in source.letters], dtype=np.int64)
        y_symbols = code.model_joint().alphabet(y).symbols if y else (None,)
        z = np.full(self.table.shape, -1, dtype=np.int64)
        for v, l in zip(*np.nonzero(self.table)):
            args = tuple(y_symbols[v] if i is None else letters[l][ij.index(i)] for i in sources)
            z[v, l] = symbol_id.setdefault(table[args], len(symbol_id))
        return k, measure, bound, x, z

    def _classes(self, cls, observed):
        """For consecutive ranges [a, b) of (class, observed block) entries,
        their class candidates laid end to end: (a, b, owner, starts, row,
        obs, weight), per candidate its entry (owner, from a), its row and
        observed block and its weight, and where each entry's run starts."""
        index = self.index
        sizes = index.bounds[cls + 1] - index.bounds[cls]
        for a, b in _runs(sizes):
            owner, offset, starts = _ragged(sizes[a:b])
            row = index.bounds[cls[a:b]][owner] + offset
            obs = observed[a:b][owner]
            yield a, b, owner, starts, row, obs, _weights(self.table, obs, index.rows[row])

    def _pick(self, owner, starts, row, weight):
        """Each entry's MAP pick: its largest weight, ties broken toward the
        smallest symbol ranks (encoder order, then position order)."""
        best = weight == np.maximum.reduceat(weight, starts)[owner]
        digits = self.rank[self.index.rows[row]].transpose(0, 2, 1).reshape(len(row), -1)
        return row[np.lexsort([*digits.T[::-1], ~best, owner])[starts]]

    def states(self, batch: _Batch, exceed: dict) -> tuple:
        """Per state of `batch`: the decoder's weight of its true blocks and
        its class total, as (integers, bound) each, and an id per distinct
        class total; the distortion hits of the states' classes are added to
        `exceed`."""
        index = self.index
        cell_letters = sum(batch.letters[c].astype(np.int64) * stride
                           for c, stride in zip(self.parts, self.strides))
        letters = self.project[cell_letters]
        row = index.row_of[letters @ self.powers]
        cls = index.cls[row]
        observed = self.y_ids[batch.digits]
        y_block = self.y_number(batch.digits)
        contexts, first, context = np.unique(cls * self.y_count + y_block[batch.block],
                                             return_index=True, return_inverse=True)
        # (source block, class) pairs: their summed state weights and context
        width = len(index.bounds)
        pairs, weight = _sum_by(batch.block * width + cls, *batch.weight)
        weight = (weight, batch.weight[1] * len(batch.block))
        pair_block, pair_cls = pairs // width, pairs % width
        pair_context = np.searchsorted(contexts, pair_cls * self.y_count + y_block[pair_block])
        pair_obs, pair_digits = observed[pair_block], batch.digits[pair_block]
        scale = (batch.scale[0][pair_block], batch.scale[1])
        scale_id = batch.scale_id[pair_block]

        total = np.zeros(len(contexts), dtype=self.table.dtype)
        pick = np.zeros(len(contexts), dtype=np.int64)
        joins = [r for r in self.reproductions
                 if self.rule == "crng" and r[1].kind == "block-mismatch"]
        equal = {r[0]: np.zeros(len(pairs), dtype=self.table.dtype) for r in joins}
        by_context = np.argsort(pair_context, kind="stable")
        sorted_context = pair_context[by_context]
        for a, b, owner, starts, crow, obs, w in self._classes(cls[first],
                                                                observed[batch.block[first]]):
            total[a:b] = np.add.reduceat(w, starts)
            if self.rule == "map":
                pick[a:b] = self._pick(owner, starts, crow, w)
            lo, hi = np.searchsorted(sorted_context, [a, b])
            chosen = by_context[lo:hi]
            for k, _, _, x, z in joins:
                # sorted join of (context, reproduced block) against (context, source block)
                rank, _ = _row_ids(np.concatenate([z[obs, index.rows[crow]],
                                                   x[pair_digits[chosen]]]))
                keys, mass = _sum_by(owner * len(rank) + rank[:len(w)], w, self.bound)
                query = (pair_context[chosen] - a) * len(rank) + rank[len(w):]
                at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
                equal[k][chosen] = np.where(keys[at] == query, mass[at], 0)

        if self.rule == "map":
            rows = index.rows[pick[pair_context]]
            for k, measure, bound, x, z in self.reproductions:
                hit = _exceeds(measure, x[pair_digits] != z[pair_obs, rows], bound)
                _accumulate(exceed[k], [scale_id], [scale], _product([weight, (hit, 1)]))
            ones = np.ones(len(row), dtype=np.int64)
            return (row == pick[context], 1), (ones, 1), ones

        class_total = total[pair_context]
        hits = {k: (class_total - same) * (1.0 > bound) + same * (0.0 > bound)
                for (k, _, bound, _, _), same in zip(joins, equal.values())}
        counted = [r for r in self.reproductions if r[0] not in hits]
        for k, *_ in counted:
            hits[k] = np.zeros(len(pairs), dtype=self.table.dtype)
        if counted:
            for a, b, owner, starts, crow, obs, w in self._classes(pair_cls, pair_obs):
                candidates = index.rows[crow]
                for k, measure, bound, x, z in counted:
                    hit = _exceeds(measure, x[pair_digits[a:b][owner]] != z[obs, candidates], bound)
                    hits[k][a:b] = np.add.reduceat(np.where(hit, w, 0), starts)
        total_id = np.unique(total, return_inverse=True)[1]
        for k, *_ in self.reproductions:
            _accumulate(exceed[k], [scale_id, total_id[pair_context]],
                        [scale, (class_total, self.total_bound)],
                        _product([weight, (hits[k], self.total_bound)]))
        return ((_weights(self.table, observed[batch.block], letters), self.bound),
                (total[context], self.total_bound), total_id[context])


def exact_error(code: CodeInstance, delta: float, D: Mapping,
                rule: str = "crng") -> ExactError:
    """Exact error probabilities by total enumeration.

    Averages over the source blocks, every encoder draw, and every decoder
    draw; encoder aborts count as errors for the mismatch and for every
    distortion exceedance.

    The sums run in integers over S^n, S the lcm of the source law's
    denominators.  A state is a source block with one positive draw per
    cell; its weight is the source block weight times its draw weights, over
    the cells' law totals.  The mismatch is 1 minus the probability that
    every decoder outputs its true blocks: each state's weight times each
    decoder's weight of the true blocks, over the cell totals times the
    class totals.  An exceedance adds, per source block and decoder class,
    the summed state weights times the class weight of the reproductions
    that exceed D_k + delta, over the cell totals times the class total;
    the MAP rule outputs its pick with weight 1 out of 1.  Numerators are
    summed per distinct denominator, and one Fraction is formed for each.
    """
    if rule not in ("crng", "map"):
        raise ConfigurationError("unknown decode rule %r" % (rule,))
    _check_budget(code)
    cfg = code.config
    bounds = {k: float(D[k]) + delta for k in cfg.reproduction_ids}
    source = _Source(code)
    cells = [_CellDraws(code, cell, source) for cell in cfg.sharing]
    decoders = [_DecoderClasses(code, j, cells, source, rule, bounds) for j in cfg.decoders]
    matched: dict = {}    # denominator -> numerator of P(every decoder is right)
    exceed: dict = {k: {} for k in cfg.reproduction_ids}
    aborted = 0
    for lo in range(0, source.count, _ROW_CAP):
        abort, batches = _batches(source, cells, lo, min(lo + _ROW_CAP, source.count))
        aborted += abort
        for batch in batches:
            numerators = [batch.weight]
            denominators = [(batch.scale[0][batch.block], batch.scale[1])]
            keys = [batch.scale_id[batch.block]]
            for decoder in decoders:
                match, total, total_id = decoder.states(batch, exceed)
                numerators.append(match)
                denominators.append(total)
                keys.append(total_id)
            _accumulate(matched, keys, denominators, _product(numerators))
    scale = source.scale ** code.n
    for numerators in exceed.values():
        _add(numerators, 1, aborted)
    return ExactError(1 - _fraction_sum(matched, scale),
                      {k: _fraction_sum(numerators, scale) for k, numerators in exceed.items()},
                      Fraction(aborted, scale))


def _check_budget(code: CodeInstance):
    """Refuse an exact enumeration that exceeds the budget, before it starts.

    The count is the number of positive-probability (W, source) letters of
    the model joint raised to n.  It bounds the source blocks times their
    encoder draws, and each decoder's candidate blocks.
    """
    letters = sum(1 for _, p in code.model_joint().items() if p > 0)
    states = letters ** code.n
    if states > _EXACT_BUDGET:
        raise BudgetExceededError(
            "exact enumeration needs %d joint states (budget %d)" % (states, _EXACT_BUDGET))


# -- Monte Carlo simulation ----------------------------------------------------------------


@dataclass
class SimReport:
    trials: int
    mismatch_count: int
    exceed_counts: dict
    encoder_abort_count: int
    decoder_abort_count: int
    distortion_sums: dict
    seed: object

    @property
    def mismatch_freq(self) -> float:
        return self.mismatch_count / self.trials

    def exceed_freq(self, k) -> float:
        return self.exceed_counts[k] / self.trials

    def ci(self, count: int) -> tuple:
        """Normal-approximation 3-sigma interval for a count/trials frequency."""
        p = count / self.trials
        half = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / self.trials)
        return (max(0.0, p - half), min(1.0, p + half))


def _trial_seed(seed, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed), int(trial)))


def simulate(code: CodeInstance, delta: float, D: Mapping, trials: int,
             seed: int, rule: str = "crng") -> SimReport:
    """Monte Carlo estimate of the exact-oracle quantities.

    Per-trial randomness derives from (seed, trial index), so the report is
    deterministic in `seed`.
    """
    ks = code.config.reproduction_ids
    report = SimReport(trials=trials, mismatch_count=0, exceed_counts={k: 0 for k in ks},
                       encoder_abort_count=0, decoder_abort_count=0,
                       distortion_sums={k: 0.0 for k in ks}, seed=seed)
    bounds = {k: float(D[k]) + delta for k in ks}
    for trial in range(trials):
        _run_trial(code, bounds, _trial_seed(seed, trial), rule, report)
    return report


def _run_trial(code, bounds, trial_seed, rule, report):
    """One trial from `trial_seed`, counted into `report`; bounds[k] = D_k + delta."""
    cfg = code.config
    exceed, dist_sums = report.exceed_counts, report.distortion_sums
    src_seed, enc_seed, dec_seed = trial_seed.spawn(3)
    letters = sample(code.source, code.n, src_seed)[0]
    blocks = _transpose(code.source.names, letters)

    w_blocks = {}
    m = {}
    cell_seeds = enc_seed.spawn(len(cfg.sharing))
    try:
        for pos, cell in enumerate(cfg.sharing):
            x_var = code.channels[cell].inputs[0][0]
            cell_blocks, cell_m = code.encode(cell, blocks[x_var], cell_seeds[pos])
            w_blocks.update(cell_blocks)
            m.update(cell_m)
    except EncoderAbort:
        report.encoder_abort_count += 1
        report.mismatch_count += 1
        for k in exceed:
            exceed[k] += 1
            dist_sums[k] += cfg.distortions[k].bound
        return

    mismatched = False
    decoder_seeds = dec_seed.spawn(len(cfg.decoders))
    for pos, j in enumerate(cfg.decoders):
        y = cfg.side_info.get(j)
        y_block = blocks[y] if y else None
        try:
            w_hat, z = code.decode(j, m, y_block, decoder_seeds[pos], rule=rule)
        except DecoderAbort:
            report.decoder_abort_count += 1
            mismatched = True
            for k in cfg.reproductions.get(j, ()):
                exceed[k] += 1
                dist_sums[k] += cfg.distortions[k].bound
            continue
        if any(w_hat[i] != w_blocks[i] for i in cfg.codewords_to[j]):
            mismatched = True
        for k in cfg.reproductions.get(j, ()):
            d = cfg.distortions[k].block(blocks, z[k])
            dist_sums[k] += d
            if d > bounds[k]:
                exceed[k] += 1
    if mismatched:
        report.mismatch_count += 1
