"""Constrained-random-number-generator source code: encoders, decoders,
exact error oracles, and Monte Carlo simulation.

The encoder of a sharing cell draws the cell's auxiliary blocks from the
channel conditional restricted to the hash constraints f_i(w_i) = c_i and
renormalized; the decoder draws candidate blocks from the model posterior
restricted to all (f, g) constraints, or picks the most probable one (MAP).
Everything is enumerated explicitly, so exactness is provable at desk scale;
there is no MCMC.

Blocks are integer arrays.  A W_S-block (S a set of encoders) is a row of
letter ids, one per position, into the positive-mass W_S letters of the model
joint over (W, source).  Each encoder set has one class index, shared by an
encoder cell and a decoder with I_j = S: the rows of its f-admissible blocks
with their g-class ids, each hash evaluated once per W_i-block.  Every
constrained law is in integers.  The model joint's weights, summed per
(observed letter, W_S letter) and each observed letter's row divided by its
gcd with the joint's denominator (a factor shared by every candidate of a
law, so it cancels), give a dense integer table T, built once per model; one
kernel, :func:`_weights`, weighs candidate rows by the product over
positions of T[observed letter, W_S letter].  A law is its candidates of
positive weight with their integer total.

The exact oracle applies the same kernel to many classes at once.  It works
on batches of at most ``_ROW_CAP`` rows: source blocks, their encoder draws
(a ragged product of each cell's positive draws), the decoder classes those
reach, and the class candidates.  Numbers are int64 where a bound proves they
fit and Python ints in object arrays otherwise.  Each value's sums over its
distinct denominators are added as integer pairs in one balanced tree
(:func:`_fraction_sum`), and one Fraction is formed per value.  A MAP pick
is the first best-weight candidate in one tie-break order per decoder,
fixed over its index rows (:attr:`_DecoderClasses.order`).  A decoder's
exceedance terms read a state only through its pair
(:meth:`_DecoderClasses.pairs`): the source block's cell totals, its seen
block (its blocks of the decoder's side information and of the variables
its reproductions measure), and the decoder class.  The states of one pair
have equal terms over one denominator, so each pair is weighed once, by its
summed state weight, and the sums do not change.  A decoder that sees the
whole source has a pair per (source block, class); one that sees less
merges the source blocks it cannot tell apart.  The mismatch reads all
decoders jointly, so it stays per state.

Monte Carlo samples the states that the oracle enumerates.  :func:`simulate`
draws each trial's source block as a row of source letter ids, evaluates the
cell laws at the distinct input blocks drawn (:func:`_cell_draws`), reaches
each decoder's class through its index and its law (the MAP pick as a
one-point law) through :class:`_DecoderClasses`, and scores the reproductions
through the oracle's tables.  A draw searches its law's cumulative table
(built at most once per law and call) with one uniform.  A call has one
generator, and its trials lie end to end on that stream, a fixed number of
uniforms each, so a trial can be replayed alone (see :func:`simulate`).  The
per-call methods of :class:`CodeInstance` (the laws, `encode`, `decode`) are
one-trial calls of the same functions.

The codes of one scenario share one :class:`Model`, which keeps what does
not depend on their hashes: the model joint, its W_S letters, the weighting
tables, each decoder's letter maps and the source blocks per n
(:class:`_Source`).  A code keeps what its hashes decide, on first use:
each encoder's hash values per W_i-block, each class index, each decoder's
classes (with its tie-break order and the laws Monte Carlo has drawn from)
and, once the exact oracle has run, each sharing cell's encoder laws at
every block of its input (:class:`_CellDraws`), so a second rule reuses them.
A cell table holds one entry (an index row and a weight) per pair of input
block and W-block of positive joint weight: at most the joint's positive
letters to the n, the count that :func:`_check_budget` holds to 2^24.
:func:`simulate` reads the cell laws only at the input blocks it draws and
keeps none: a Monte Carlo run draws few of them, and a table kept on the
code would hold all of them for as long as the code lives.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DecoderAbort,
    EncoderAbort,
    EmptySupportError,
)
from .hashing import HashFunction
from .network import (
    ConditionalPmf,
    NetworkConfig,
    Reproducer,
    build_joint,
    w_alphabets,
    w_name,
)
from .probability import (
    JointPmf,
    choice_table,
    draw,
    first_cells,
    marginalize,
    ragged,
    row_numbers,
    sum_at,
    support_table,
)
from .rational import int_array

_EXACT_BUDGET = 1 << 24
_INDEX_BUDGET = 1 << 20     # W_S-blocks scanned by one class index (4 letters at n = 10)
_ROW_CAP = 1 << 15          # rows of one exact-oracle batch, trials of one Monte Carlo batch
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


def _split(row, weight, count, total) -> list:
    """Ragged laws as (rows, weights, total) each: law u holds the next
    count[u] entries of `row` and `weight`, of total weight total[u]."""
    ends = np.cumsum(count).tolist()
    return [(row[a:b], weight[a:b], t) for a, b, t in zip([0, *ends], ends, total.tolist())]


def _check_rule(rule: str):
    if rule not in ("crng", "map"):
        raise ConfigurationError("unknown decode rule %r" % (rule,))


def _bounds(D: Mapping, delta: float, ks) -> dict:
    """bounds[k] = D_k + delta; a ConfigurationError unless 0 <= delta < inf
    and D holds a bound for every reproduction k of `ks`."""
    if not 0 <= delta < math.inf:
        raise ConfigurationError("delta must be finite and non-negative, got %r" % (delta,))
    missing = [k for k in ks if k not in D]
    if missing:
        raise ConfigurationError("no distortion bound D for reproduction %s"
                                 % ", ".join(map(repr, missing)))
    return {k: float(D[k]) + delta for k in ks}


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


def _unique(keys) -> tuple:
    """np.unique's (distinct, first index, inverse) without its stable sort."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, inverse, np.arange(len(keys)))
    return distinct, first, inverse


def _row_ids(rows) -> tuple:
    """(ids, first): :func:`first_cells` of the rows of a non-negative
    integer matrix: an id per row, equal for equal rows, and per id its first row."""
    return first_cells(rows, rows.max(axis=0, initial=0) + 1)


def check_index_budget(model: "Model", n: int):
    """Refuse a code whose class indexes would be too large, before any hash
    is evaluated: each sharing cell's index, then each decoder's I_j index,
    scans letters^n blocks (letters: the model's positive-mass W_S letters),
    and one above ``_INDEX_BUDGET`` raises :class:`BudgetExceededError`."""
    cfg = model.config
    for S in dict.fromkeys([*cfg.sharing, *(tuple(cfg.codewords_to[j]) for j in cfg.decoders)]):
        _check_index_size(S, len(model.letters(S)[0]), n)


def _check_index_size(S, letters: int, n: int):
    """Refuse the class index of S when it would scan letters^n blocks above
    ``_INDEX_BUDGET``."""
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
    class of row r; class c holds rows bounds[c]:bounds[c + 1]; `keys[c]`
    holds the ids of class c's g values, one per encoder of S; `row_of` maps
    a block's product-order number to its row, or -1 when it is not
    admissible; and `letters[l]` holds letter l's symbol per encoder of S.
    """

    letters: list
    rows: np.ndarray
    cls: np.ndarray
    bounds: np.ndarray
    keys: np.ndarray
    row_of: np.ndarray


def _kept(cache: dict, key, build):
    """cache[key], built by build() on first use and kept."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


class Model:
    """What codes read that depends on their model and n but not on their
    hashes, shared by the codes of one scenario: the joint over (W, source),
    the W alphabets and the resolved reproducers, and, built on first use,
    one marginal of the joint per variable set, the W_S letters, weighting
    tables and decoder letter maps (all letter-level) and the source blocks
    per n.  `built_from` holds the (config, source, channels, reproducers)
    it was built from."""

    FIELDS = ("config", "source", "channels", "reproducers")

    def __init__(self, config: NetworkConfig, source: JointPmf, channels, reproducers):
        self.built_from = (config, source, channels, reproducers)
        self.config, self.source = config, source
        self.joint = build_joint(config, source, channels)
        self.w_alph = w_alphabets(config, channels)
        self.reproduction_args = self._resolve_reproducers(reproducers)
        self._marginals: dict = {}  # variable names -> marginal of the joint
        self._letters: dict = {}    # S -> (ids, symbols)
        self._tables: dict = {}     # (S, observed) -> T
        self._sources: dict = {}    # n -> _Source
        self._decoders: dict = {}   # j -> (parts, strides, project, reproductions)

    def stale(self, owner) -> list:
        """The :attr:`FIELDS` of `owner` (a scenario or a code) that hold
        other objects than those the model was built from."""
        return [name for name, built in zip(self.FIELDS, self.built_from)
                if getattr(owner, name) is not built]

    def _resolve_reproducers(self, reproducers) -> dict:
        """Decoder j -> [(k, table of reproducer k, per argument the encoder
        whose block it reads, or None for the side information)]."""
        encoder_of = {w_name(i): i for i in self.config.encoders}
        resolved = {j: [] for j in self.config.decoders}
        for j in self.config.decoders:
            for k in self.config.reproductions.get(j, ()):
                rep = reproducers.get(k)
                if rep is None:
                    raise ConfigurationError("missing reproducer for reproduction %r" % (k,))
                for arg in rep.args:
                    if arg.startswith("W") and arg not in encoder_of:
                        raise ConfigurationError("unknown codeword variable %r" % (arg,))
                resolved[j].append((k, rep.table, [encoder_of.get(a) for a in rep.args]))
        return resolved

    def _marginal(self, names: tuple) -> JointPmf:
        """The joint's marginal on `names`, taken once per model: the W_S
        letters and the weighting table of S with no observation read one."""
        return _kept(self._marginals, names, lambda: marginalize(self.joint, names))

    def letters(self, S) -> tuple:
        """(ids, symbols) of encoder set S: the W_S letters of positive mass
        in the joint, in its order, as rows of alphabet ids (a column per
        encoder of S), and per letter its symbol per encoder of S."""
        def build():
            marginal = self._marginal(tuple(w_name(i) for i in S))
            ids = marginal.ids[marginal.weights > 0]
            alphabets = [self.w_alph[i].symbols for i in S]
            return ids, [tuple(s[a] for s, a in zip(alphabets, row)) for row in ids.tolist()]
        return _kept(self._letters, S, build)

    def table(self, S, given, n: int) -> tuple:
        """The weighting table of encoder set S observing the variable
        `given` (None for no observation) at block length n: (T, bound).

        T[v, l] is the model-joint weight of W_S letter l jointly with the
        `given` letter of alphabet id v, each observed letter's row divided by
        the gcd of its weights and the denominator (a row of zeros at an
        observed letter of zero mass); without observation T is the W_S
        marginal, one row.  T is built once and kept; each call derives
        `bound`, which bounds the weight of a block, the product of n
        entries, and makes T int64 when every sum of block weights over the
        index fits.
        """
        def build():
            names = tuple(w_name(i) for i in S)
            marginal = self._marginal(names + ((given,) if given else ()))
            # W_S cells run in the joint's order, so the positive ones are the letters in order
            cell, _ = marginal.cells(names)
            kept = marginal.weights > 0
            T = np.zeros((self.joint.alphabet(given).size if given else 1, len(self.letters(S)[0])),
                         dtype=marginal.weights.dtype)
            T[marginal.ids[kept, -1] if given else 0,
              np.unique(cell[kept], return_inverse=True)[1]] = marginal.weights[kept]
            return T // np.gcd(np.gcd.reduce(T, axis=1), marginal.denominator)[:, None]
        T = _kept(self._tables, (S, given), build)
        bound = int(T.max()) ** n
        return int_array(T, bound * T.shape[1] ** n), bound

    def blocks(self, n: int) -> "_Source":
        """The source blocks at block length n (:class:`_Source`), built once per n."""
        return _kept(self._sources, n, lambda: _Source(self.source, n))

    def decoder(self, j, source: "_Source") -> tuple:
        """Decoder j's letter maps: (parts, strides, project, reproductions),
        `project` the I_j letter of each combination of letters of the cells
        `parts` that hold I_j, numbered with `strides` (-1 for none); `source`
        is the model's :class:`_Source` at any n, as only its letters are read."""
        def build():
            cfg, ij = self.config, tuple(self.config.codewords_to[j])
            letter_id = {w: l for l, w in enumerate(self.letters(ij)[1])}
            parts = [c for c, cell in enumerate(cfg.sharing) if set(cell) & set(ij)]
            cell_letters = [self.letters(cfg.sharing[c])[1] for c in parts]
            sizes = [len(letters) for letters in cell_letters]
            joined = []
            for combo in itertools.product(*cell_letters):
                symbol = {}
                for c, letter in zip(parts, combo):
                    symbol.update(zip(cfg.sharing[c], letter))
                joined.append(letter_id.get(tuple(symbol[i] for i in ij), -1))
            return (parts, [math.prod(sizes[k + 1:]) for k in range(len(sizes))],
                    np.array(joined, dtype=np.intp),
                    [self._reproduction(ij, cfg.side_info.get(j), rep, source)
                     for rep in self.reproduction_args[j]])
        return _kept(self._decoders, j, build)

    def _reproduction(self, ij, y, reproduction, source: "_Source"):
        """(k, measure, x, z) of a reproduction (k, table, sources) of a decoder
        of I_j letters and side information y: x[s], the symbol id of the
        measured variable in source letter s; z[v, l], that of the reproduction
        of I_j letter l at side-information letter v (-1 at zero mass)."""
        k, table, sources = reproduction
        measure, letters = self.config.distortions[k], self.letters(ij)[1]
        T, _ = self.table(ij, y, 1)
        symbol_id: dict = {}
        symbols = self.source.alphabet(measure.source).symbols
        x = np.array([symbol_id.setdefault(symbols[a], len(symbol_id))
                      for a in source.ids(measure.source).tolist()], dtype=np.int64)
        y_symbols = self.joint.alphabet(y).symbols if y else (None,)
        z = np.full(T.shape, -1, dtype=np.int64)
        for v, l in zip(*np.nonzero(T)):
            args = tuple(y_symbols[v] if i is None else letters[l][ij.index(i)] for i in sources)
            z[v, l] = symbol_id.setdefault(table[args], len(symbol_id))
        return k, measure, x, z


@dataclass
class CodeInstance:
    """One concrete code: block length, hash functions, constraint vectors.

    `f[i]`/`g[i]` map encoded W_i-blocks (base-|W_i| integers) to the shared
    constraint alphabet C_i and the codeword alphabet M_i; `c[i]` fixes the
    constraint value shared by encoder i and every decoder seeing codeword i.
    `_model` is the :class:`Model` the code reads, shared with the other
    codes of its scenario; a code given none builds its own, and one built
    from other objects than the code's config, source, channels and
    reproducers is refused, naming the field.  The code itself keeps only
    what its hashes decide.
    """

    n: int
    config: NetworkConfig
    source: JointPmf
    channels: Mapping[tuple, ConditionalPmf]
    reproducers: Mapping[object, Reproducer]
    f: Mapping[object, HashFunction]
    g: Mapping[object, HashFunction]
    c: Mapping[object, object]
    _model: InitVar[Optional[Model]] = None

    def __post_init__(self, _model):
        self.model = _model or Model(self.config, self.source, self.channels, self.reproducers)
        for name in self.model.stale(self):
            raise ConfigurationError("the model was built from another %s than the code's" % name)
        for i in self.config.encoders:
            dom = self.model.w_alph[i].size ** self.n
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
        self._hashed_blocks: dict = {}   # encoder -> its hash values per W_i-block
        self._class_indexes: dict = {}   # S -> _ClassIndex
        self._decoders: dict = {}        # j -> _DecoderClasses
        self._cell_tables: dict = {}     # cell -> _CellDraws

    # -- rates ------------------------------------------------------------------------

    def aux_rate(self, i) -> float:
        return math.log2(self.f[i].image_size) / self.n

    def rate(self, i) -> float:
        return math.log2(self.g[i].image_size) / self.n

    # -- block encoding helpers ---------------------------------------------------------

    def block_to_int(self, i, block) -> int:
        alph = self.model.w_alph[i]
        value = 0
        for sym in block:
            value = value * alph.size + alph.index(sym)
        return value

    def _hashed(self, i):
        """Encoder i's hash values; each hash runs once per W_i-block.

        Returns (digit, meets, gid, values): `digit[a]` numbers the positive-mass
        W_i symbols by alphabet id (-1 for others); for each block of them,
        numbered in product order by those digits, `meets` says whether f_i
        meets c_i and `gid` is the position of its g_i value in `values`.
        """
        def build():
            letters = self.model.letters((i,))[0][:, 0]
            alph, size = self.model.w_alph[i], len(letters)
            # each block's hash input: its number in product order of the whole W_i alphabet
            inputs = row_numbers(_digits(np.arange(size ** self.n), size, self.n), alph.size,
                              letters).tolist()
            f, g, c = self.f[i], self.g[i], self.c[i]
            values: dict = {}
            gid = [values.setdefault(g(v), len(values)) for v in inputs]
            digit = np.full(alph.size, -1, dtype=np.int64)
            digit[letters] = np.arange(size)
            return (digit, np.array([f(v) == c for v in inputs], dtype=bool),
                    np.array(gid, dtype=np.int64), list(values))
        return _kept(self._hashed_blocks, i, build)

    # -- the constrained draw shared by encoders and decoders ----------------------------

    def _index(self, S) -> _ClassIndex:
        """The class index of encoder set S, built on first use and kept."""
        return _kept(self._class_indexes, S, lambda: self._build_index(S))

    def _build_index(self, S) -> _ClassIndex:
        """Build the class index of S; one over the budget is refused
        (:func:`_check_index_size`) before any block is scanned."""
        letters, symbols = self.model.letters(S)
        n, size = self.n, len(letters)
        _check_index_size(S, size, n)
        digits = _digits(np.arange(size ** n), size, n, np.min_scalar_type(size - 1))
        admissible = np.ones(size ** n, dtype=bool)
        keys = []
        for e, i in enumerate(S):
            digit, meets, gid, _ = self._hashed(i)
            number = row_numbers(digits, len(self.model.letters((i,))[0]), digit[letters[:, e]])
            admissible &= meets[number]
            keys.append(gid[number])
        kept = np.flatnonzero(admissible)
        classes = np.stack([key[kept] for key in keys], axis=1)
        cls, first = _row_ids(classes)
        by_class = np.argsort(cls, kind="stable")
        kept, cls = kept[by_class], cls[by_class]
        row_of = np.full(size ** n, -1, dtype=np.int64)
        row_of[kept] = np.arange(len(kept))
        return _ClassIndex(
            letters=symbols, rows=digits[kept], cls=cls,
            bounds=np.searchsorted(cls, np.arange(len(first) + 1)), keys=classes[first],
            row_of=row_of)

    def _observed(self, var, block) -> np.ndarray:
        """The alphabet ids of an observed block (all 0 without observation)."""
        if var is None:
            return np.zeros(self.n, dtype=np.intp)
        alph = self.model.joint.alphabet(var)
        return np.array([alph.index(v) for v in block], dtype=np.intp)

    def _named(self, S, items) -> list:
        """Law items over the index rows of S as items over blocks by encoder:
        ({encoder: block}, weight) per (row, weight)."""
        items = list(items)
        index = self._index(S)
        rows = index.rows[[r for r, _ in items]].tolist()
        return [(dict(zip(S, zip(*map(index.letters.__getitem__, row)))), w)
                for row, (_, w) in zip(rows, items)]

    # -- encoder -------------------------------------------------------------------------

    def cell_base_law(self, cell, x_block):
        """Encoder weighting step: the cell's f-admissible W-blocks of every
        class with their positive integer weights jointly with x_block: the
        channel-row products times P(x_l) per position, which cancels in the
        law.  An x_block with a letter of zero source mass gets no candidates
        (EncoderAbort); no drawn or enumerated source block has one."""
        cell = tuple(cell)
        x_var = self.channels[cell].inputs[0][0]
        row, weight, _, _ = _cell_draws(self, cell, self._observed(x_var, x_block)[None])
        return self._named(cell, zip(row.tolist(), weight.tolist()))

    def cell_constrained_law(self, cell, x_block):
        """Encoder CRNG law: channel law restricted to f_i(w_i) = c_i, as
        (items, total); the probability of a block is weight / total."""
        items = self.cell_base_law(cell, x_block)
        if not items:
            raise EncoderAbort("cell %r: no admissible block for its constraints" % (tuple(cell),))
        return items, sum(w for _, w in items)

    def encode(self, cell, x_block, seed):
        """Joint draw for one sharing cell: (blocks by encoder, codewords)."""
        items, total = self.cell_constrained_law(cell, x_block)
        blocks = items[draw(choice_table([w for _, w in items], total), seed)][0]
        return blocks, {i: self.g[i](self.block_to_int(i, blocks[i])) for i in cell}

    # -- decoder -------------------------------------------------------------------------

    def _decoder(self, j) -> "_DecoderClasses":
        """Decoder j's classes, reproductions and drawn class laws, built on
        first use and kept."""
        return _kept(self._decoders, j, lambda: _DecoderClasses(self, j))

    def _cell_table(self, cell) -> "_CellDraws":
        """A sharing cell's encoder laws at every block of its input
        (:class:`_CellDraws`), built on first use and kept; only the exact
        oracle reads them."""
        return _kept(self._cell_tables, cell, lambda: _CellDraws(self, cell, self.model.blocks(self.n)))

    def _decoder_at(self, j, m: Mapping, y_block, rule: str):
        """Decoder j at the class that `m` names, given y_block (see
        :meth:`_DecoderClasses.laws`); DecoderAbort when the class has no
        candidate of positive weight."""
        decoder = self._decoder(j)
        if not decoder.lookup:
            decoder.lookup.update({tuple(self._hashed(i)[3][g] for i, g in zip(decoder.ij, key)): c
                                   for c, key in enumerate(decoder.index.keys.tolist())})
        c = decoder.lookup.get(tuple(m[i] for i in decoder.ij))
        entry = (np.array([c]), self._observed(decoder.y, y_block)[None])
        law = ((),) if c is None else decoder.laws(*entry, "crng")[0]
        if not len(law[0]):
            raise DecoderAbort("decoder %r: empty posterior class" % (j,))
        return law if rule == "crng" else decoder.laws(*entry, rule)[0]

    def decoder_class_law(self, j, m: Mapping, y_block):
        """Posterior over W_{I_j}-blocks restricted to the (f, g) classes, as
        (items, total); the probability of a candidate is weight / total.

        The model posterior factorizes across letters (everything is
        memoryless), so a candidate's weight is the product of its letters'
        model weights jointly with the observed side-information letters.
        Only the candidates of the class that `m` names are weighted.
        """
        rows, weights, total = self._decoder_at(j, m, y_block, "crng")
        return self._named(self._decoder(j).ij, zip(rows.tolist(), weights.tolist())), total

    def reproduce(self, j, w_blocks: Mapping, y_block):
        """Apply the decoder's reproducers per letter."""
        out = {}
        for k, table, sources in self.model.reproduction_args[j]:
            arg_blocks = [y_block if i is None else w_blocks[i] for i in sources]
            out[k] = tuple(map(table.__getitem__, zip(*arg_blocks)))
        return out

    def decode(self, j, m: Mapping, y_block, seed, rule: str = "crng"):
        """Draw (or select) the decoder's block estimate and reproductions.

        The MAP rule picks the most probable candidate; ties break toward the
        lexicographically smallest blocks (encoder order, then letter order).
        """
        _check_rule(rule)
        rows, weights, total = self._decoder_at(j, m, y_block, rule)
        row = rows[draw(choice_table(weights, total), seed)]
        w_hat = self._named(self._decoder(j).ij, [(row, None)])[0][0]
        return w_hat, self.reproduce(j, w_hat, y_block)


# -- exact error oracle ---------------------------------------------------------------


@dataclass
class ExactError:
    mismatch: Fraction
    exceed: dict
    encoder_abort: Fraction


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


def _sum_by(keys, values, bound) -> tuple:
    """(distinct keys in sorted order, the sum of `values` over each)."""
    distinct, where = np.unique(keys, return_inverse=True)
    return distinct, sum_at(where, len(distinct), int_array(values, bound * len(values)))


def _accumulate(numerators: dict, keys: list, denominators: list, values):
    """Add each of `values` = (integers, bound) to the numerator of its
    denominator.  The columns `keys` (small ints, one row per value) name
    the denominator, the product of the (integers, bound) `denominators` at
    that row, so that values are grouped without sorting large integers."""
    where, first = _row_ids(np.stack(keys, axis=1))
    sums = sum_at(where, len(first), int_array(values[0], values[1] * len(values[0])))
    totals, _ = _product([(factor[first], bound) for factor, bound in denominators])
    for denominator, total in zip(totals.tolist(), sums.tolist()):
        if total:
            _add(numerators, denominator, total)


def _add(numerators: dict, denominator: int, numerator: int):
    numerators[denominator] = numerators.get(denominator, 0) + numerator


def _fraction_sum(numerators: dict, scale: int) -> Fraction:
    """The exact sum of numerator / (denominator * scale) over a
    denominator -> numerator dict.

    The terms have unrelated denominators, so a running total's denominator
    grows with each term and a left-to-right sum takes time quadratic in the
    number of terms.  Here (denominator, numerator) integer pairs are added
    in pairs, level by level: a balanced binary tree.  A merge over
    g = gcd(b, d) puts a/b + c/d over b/g * d, so each node's denominator is
    the lcm of its leaves', and one Fraction is formed at the root.
    """
    terms = list(numerators.items()) or [(1, 0)]
    while len(terms) > 1:
        terms = [_merge(left, right) for left, right in zip(terms[::2], terms[1::2])] \
            + terms[len(terms) & ~1:]
    denominator, numerator = terms[0]
    return Fraction(numerator, denominator * scale)


def _merge(left: tuple, right: tuple) -> tuple:
    """a/b + c/d as (lcm(b, d), numerator) from (b, a) and (d, c)."""
    (b, a), (d, c) = left, right
    g = math.gcd(b, d)
    return b // g * d, a * (d // g) + c * (b // g)


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


def _distortion(measure, differ) -> np.ndarray:
    """Per row of `differ` (where a reproduced block differs from its source
    block, letter by letter), the distortion as a float: the fraction of
    differing letters (hamming) or whether any letter differs
    (block-mismatch)."""
    if measure.kind == "hamming":
        return np.count_nonzero(differ, axis=1) / differ.shape[1]
    return np.where(differ.any(axis=1), 1.0, 0.0)


class _Source:
    """The source blocks of the source pmf at block length n, numbered in
    product order of the positive-mass source letters (the pmf's positive
    rows, as rows of alphabet ids in `letters`), with their integer weights:
    the rows' weights over their gcd with the denominator, over `scale`."""

    def __init__(self, pmf: JointPmf, n: int):
        self.pmf = pmf
        positive = np.flatnonzero(pmf.weights > 0)
        self.n, self.letters = n, pmf.ids[positive]
        common = math.gcd(pmf.denominator, *pmf.weights[positive].tolist())
        weights, self.scale = pmf.weights[positive] // common, pmf.denominator // common
        self.bound = int(weights.max()) ** n
        self.weights = int_array(weights, self.bound)
        self.count = len(positive) ** n
        self._numberings: dict = {}

    def ids(self, var) -> np.ndarray:
        """Per source letter, the alphabet id of its `var` symbol (0 for no
        variable)."""
        if var is None:
            return np.zeros(len(self.letters), dtype=np.intp)
        return self.letters[:, self.pmf.names.index(var)]

    def numbering(self, names: tuple) -> tuple:
        """(number, symbols): `symbols`, the distinct symbols that the source
        letters take on the variables `names`, each the tuple of its alphabet
        ids read as one number in product order of their alphabets (for one
        variable its alphabet id; 0 for none), and `number`, which numbers
        the `names` blocks of source blocks (rows of source letter ids) in
        product order of those."""
        def build():
            number = self.ids(None)
            for v in names:
                number = number * self.pmf.alphabet(v).size + self.ids(v)
            symbols, digit = np.unique(number, return_inverse=True)
            return (lambda digits: row_numbers(digits, len(symbols), digit)), symbols
        return _kept(self._numberings, names, build)


def _cell_draws(code: CodeInstance, cell, x_rows) -> tuple:
    """A sharing cell's encoder laws at the blocks `x_rows` of its input
    variable (rows of alphabet ids), as ragged arrays of their positive
    draws: (row, weight, count, total), per draw its index row and weight,
    per block its number of draws and its total weight."""
    table, _ = code.model.table(cell, code.channels[cell].inputs[0][0], code.n)
    rows = code._index(cell).rows
    step = max(1, _ROW_CAP // max(1, len(rows)))
    parts = []
    for lo in range(0, len(x_rows), step):
        w = _weights(table, x_rows[lo:lo + step, None, :], rows)
        x, row = np.nonzero(w)
        parts.append((row, w[x, row], np.bincount(x, minlength=len(w)), w.sum(axis=1)))
    return tuple(np.concatenate(part) for part in zip(*parts))


class _CellDraws:
    """A sharing cell's encoder laws at every block of its input variable:
    the ragged arrays of :func:`_cell_draws`."""

    def __init__(self, code: CodeInstance, cell, source: _Source):
        x_var = code.channels[cell].inputs[0][0]
        _, self.bound = code.model.table(cell, x_var, code.n)
        self.rows = code._index(cell).rows
        self.number, symbols = source.numbering((x_var,))
        x_rows = symbols[_digits(np.arange(len(symbols) ** code.n), len(symbols), code.n)]
        self.row, self.weight, self.count, self.total = _cell_draws(code, cell, x_rows)
        self.start = np.cumsum(self.count) - self.count
        self.total_bound = self.bound * max(1, len(self.rows))


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
    """One decoder as the oracle and Monte Carlo read it: the class of each
    state's true W_{I_j}-blocks, that class's law given the state's side
    information, the reproductions of the class's candidates (the model's
    letter maps, :meth:`Model.decoder`), and the MAP tie-break :attr:`order`
    over the index rows, built once.  The oracle weighs its exceedance terms
    once per :meth:`pairs`.  `drawn` keeps, per (rule, class and
    side-information block) that Monte Carlo has drawn from, its law under
    the rule (:meth:`laws`) as (index rows, choice table)."""

    def __init__(self, code: CodeInstance, j):
        cfg, source = code.config, code.model.blocks(code.n)
        self.ij = ij = tuple(cfg.codewords_to[j])
        self.index = index = code._index(ij)
        self.y = y = cfg.side_info.get(j)
        self.table, self.bound = code.model.table(ij, y, code.n)
        self.total_bound = self.bound * max(1, len(index.rows))
        self.source = source
        self.y_ids = source.ids(y)
        self.y_number, symbols = source.numbering((y,) if y else ())
        self.y_count = len(symbols) ** code.n
        self.parts, self.strides, self.project, self.reproductions = code.model.decoder(j, source)
        self.drawn: dict = {}
        self.lookup: dict = {}   # g-values -> class, filled by the first one-trial decode

    @functools.cached_property
    def seen(self) -> tuple:
        """(number, count) of the seen blocks: a source block's block of the
        side information and of each reproduction's measured variable.
        Built on first use, as only the exact oracle reads it."""
        names = [self.y, *(measure.source for _, measure, _, _ in self.reproductions)]
        number, symbols = self.source.numbering(tuple(v for v in names if v))
        return number, len(symbols) ** self.source.n

    @functools.cached_property
    def order(self) -> np.ndarray:
        """The MAP tie-break order of the index rows: each row's place among
        them sorted by its symbols' ranks (a symbol's rank among its
        encoder's symbols), encoder-major: encoder by encoder, position by
        position.  Each encoder's block is read as one number in product
        order of its ranks, below letters^n and so within the index budget,
        and one lexsort over the encoders orders the rows."""
        rows = self.index.rows.astype(np.intp)
        blocks = []
        for column in zip(*self.index.letters):
            symbols = sorted(set(column))
            blocks.append(row_numbers(rows, len(symbols),
                                      np.array([symbols.index(w) for w in column])))
        order = np.empty(len(rows), dtype=np.int64)
        order[np.lexsort(blocks[::-1])] = np.arange(len(rows))
        return order

    def truth(self, cell_letters) -> tuple:
        """(letters, row) of each state's true W_{I_j}-block, given each
        cell's drawn blocks (`cell_letters[c]`, rows of its letter ids): the
        block's letter ids and its index row."""
        joined = sum(cell_letters[c].astype(np.int64) * stride
                     for c, stride in zip(self.parts, self.strides))
        letters = self.project[joined]
        return letters, self.index.row_of[row_numbers(letters, len(self.index.letters))]

    def _classes(self, cls, observed):
        """For consecutive ranges [a, b) of (class, observed block) entries,
        their class candidates laid end to end: (a, b, owner, starts, row,
        obs, weight), per candidate its entry (owner, from a), its row and
        observed block and its weight, and where each entry's run starts."""
        index = self.index
        sizes = index.bounds[cls + 1] - index.bounds[cls]
        for a, b in _runs(sizes):
            owner, offset, starts = ragged(sizes[a:b])
            row = index.bounds[cls[a:b]][owner] + offset
            obs = observed[a:b][owner]
            yield a, b, owner, starts, row, obs, _weights(self.table, obs, index.rows[row])

    def _pick(self, owner, starts, row, weight):
        """Each entry's MAP pick: of its candidates of largest weight, the
        one first in the tie-break :attr:`order` (the smallest symbol ranks,
        encoder order, then position order)."""
        best = weight == np.maximum.reduceat(weight, starts)[owner]
        key = np.where(best, self.order[row], _INT64 - 1)
        return row[key == np.minimum.reduceat(key, starts)[owner]]

    def laws(self, cls, observed, rule: str) -> list:
        """Per entry (a class and an observed block of ids) its law over index
        rows, (rows, weights, total): under "crng" the class law, the rows of
        positive weight; under "map" its MAP pick, weight 1 of total 1."""
        out = []
        for a, b, owner, starts, row, _, weight in self._classes(cls, observed):
            if rule == "map":
                pick = self._pick(owner, starts, row, weight)
                out += _split(pick, *[np.ones_like(pick)] * 3)
            else:
                keep = np.flatnonzero(weight)
                out += _split(row[keep], weight[keep], np.bincount(owner[keep], minlength=b - a),
                              np.add.reduceat(weight, starts))
        return out

    def pairs(self, batch: _Batch, cls) -> tuple:
        """(pair, block, cls, weight): per state of `batch` (its class in
        `cls`) its pair, a distinct (cell totals, :attr:`seen` block, class),
        and per pair one of its source blocks, its class and its summed state
        weight as (integers, bound).  The states of a pair have equal
        exceedance terms over one denominator, so the pair's weight sums
        them exactly."""
        seen_number, seen_count = self.seen
        # below 2^60: at most 2^15 scale ids per chunk, 2^24 seen blocks, 2^20 + 1 classes
        keys = (batch.scale_id * seen_count + seen_number(batch.digits))[batch.block] \
            * len(self.index.bounds) + cls
        _, first, pair = _unique(keys)
        bound = batch.weight[1] * len(keys)
        weight = sum_at(pair, len(first), int_array(batch.weight[0], bound))
        return pair, batch.block[first], cls[first], (weight, bound)

    def states(self, batch: _Batch, exceed: dict, rule: str, bounds: dict) -> tuple:
        """Per state of `batch`: the decoder's weight of its true blocks and
        its class total, as (integers, bound) each, and an id per distinct
        class total; the distortion hits (above bounds[k] = D_k + delta) of
        the states' classes are added to `exceed`, once per :meth:`pairs`."""
        index = self.index
        letters, row = self.truth(batch.letters)
        cls = index.cls[row]
        observed = self.y_ids[batch.digits]
        pair, pair_block, pair_cls, weight = self.pairs(batch, cls)
        # a context is a (class, side-information block): one class law
        contexts, first, pair_context = _unique(
            pair_cls * self.y_count + self.y_number(batch.digits)[pair_block])
        context = pair_context[pair]
        pair_obs, pair_digits = observed[pair_block], batch.digits[pair_block]
        scale = (batch.scale[0][pair_block], batch.scale[1])
        scale_id = batch.scale_id[pair_block]

        total = np.zeros(len(contexts), dtype=self.table.dtype)
        pick = np.zeros(len(contexts), dtype=np.int64)
        joins = [r for r in self.reproductions if rule == "crng" and r[1].kind == "block-mismatch"]
        equal = {r[0]: np.zeros(len(pair_cls), dtype=self.table.dtype) for r in joins}
        by_context = np.argsort(pair_context)
        sorted_context = pair_context[by_context]
        for a, b, owner, starts, crow, obs, w in self._classes(pair_cls[first],
                                                                pair_obs[first]):
            total[a:b] = np.add.reduceat(w, starts)
            if rule == "map":
                pick[a:b] = self._pick(owner, starts, crow, w)
            lo, hi = np.searchsorted(sorted_context, [a, b])
            chosen = by_context[lo:hi]
            for k, _, x, z in joins:
                # sorted join of (context, reproduced block) against (context, source
                # block); ids shifted by 1, as z is -1 at zero mass
                rank, _ = _row_ids(np.concatenate([z[obs, index.rows[crow]],
                                                   x[pair_digits[chosen]]]) + 1)
                keys, mass = _sum_by(owner * len(rank) + rank[:len(w)], w, self.bound)
                query = (pair_context[chosen] - a) * len(rank) + rank[len(w):]
                at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
                equal[k][chosen] = np.where(keys[at] == query, mass[at], 0)

        if rule == "map":
            rows = index.rows[pick[pair_context]]
            for k, measure, x, z in self.reproductions:
                hit = _distortion(measure, x[pair_digits] != z[pair_obs, rows]) > bounds[k]
                _accumulate(exceed[k], [scale_id], [scale], _product([weight, (hit, 1)]))
            ones = np.ones(len(row), dtype=np.int64)
            return (row == pick[context], 1), (ones, 1), ones

        class_total = total[pair_context]
        hits = {k: (class_total - same) * (1.0 > bounds[k]) + same * (0.0 > bounds[k])
                for k, same in equal.items()}
        counted = [r for r in self.reproductions if r[0] not in hits]
        for k, *_ in counted:
            hits[k] = np.zeros(len(pair_cls), dtype=self.table.dtype)
        if counted:
            for a, b, owner, starts, crow, obs, w in self._classes(pair_cls, pair_obs):
                candidates = index.rows[crow]
                for k, measure, x, z in counted:
                    differ = x[pair_digits[a:b][owner]] != z[obs, candidates]
                    hit = _distortion(measure, differ) > bounds[k]
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
    class totals.  An exceedance adds, per decoder pair (cell totals, seen
    block, class; :meth:`_DecoderClasses.pairs`), the summed state weights
    times the class weight of the reproductions that exceed D_k + delta,
    over the cell totals times the class total;
    the MAP rule outputs its pick with weight 1 out of 1.  Numerators are
    summed per distinct denominator, and those sums are added in one
    balanced tree of integer pairs (:func:`_fraction_sum`): one Fraction
    per value.
    """
    _check_rule(rule)
    _check_budget(code)
    cfg = code.config
    bounds = _bounds(D, delta, cfg.reproduction_ids)
    source = code.model.blocks(code.n)
    cells = [code._cell_table(cell) for cell in cfg.sharing]
    decoders = [code._decoder(j) for j in cfg.decoders]
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
                match, total, total_id = decoder.states(batch, exceed, rule, bounds)
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
    letters = int(np.count_nonzero(code.model.joint.weights))
    states = letters ** code.n
    if states > _EXACT_BUDGET:
        raise BudgetExceededError(
            "exact enumeration needs %d joint states (budget %d)" % (states, _EXACT_BUDGET))


# -- Monte Carlo simulation ----------------------------------------------------------------


@dataclass
class SimReport:
    """Counts of a Monte Carlo run; `decoder_abort_count` is 0 by construction
    (a decoder's class holds the true blocks, which have positive weight)."""

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


def simulate(code: CodeInstance, delta: float, D: Mapping, trials: int,
             seed: int, rule: str = "crng") -> SimReport:
    """Monte Carlo estimate of the exact-oracle quantities.

    The trials run as batches of at most ``_ROW_CAP`` oracle states, drawn
    instead of enumerated.  The call draws from one generator,
    ``default_rng(seed)``: trial t reads the doubles at offsets [t*w,
    (t+1)*w) of its stream, w = n + (cells) + (decoders), first the n
    source letters, then one per cell and one per decoder (the MAP rule's
    one-point law reads it and ignores its value, so both rules lay out the
    stream alike).  So the report is deterministic in `seed` and does not
    depend on the batching, and trial t replays alone from
    ``Generator(PCG64(seed).advance(t * w))``.  An encoder abort counts as
    an error for the mismatch and for every exceedance, with distortion
    `bound`.  A decoder's class holds the true blocks, which have positive
    weight, so decoders never abort.  `trials` must be a positive int, not a bool.
    """
    _check_rule(rule)
    ks = code.config.reproduction_ids
    bounds = _bounds(D, delta, ks)
    if isinstance(trials, bool) or not (isinstance(trials, (int, np.integer)) and trials > 0):
        raise ConfigurationError("trials must be a positive integer, got %r" % (trials,))
    report = SimReport(trials=trials, mismatch_count=0, exceed_counts={k: 0 for k in ks},
                       encoder_abort_count=0, decoder_abort_count=0,
                       distortion_sums={k: 0.0 for k in ks}, seed=seed)
    rng = np.random.default_rng(seed)
    width = code.n + len(code.config.sharing) + len(code.config.decoders)
    for lo in range(0, trials, _ROW_CAP):
        _run_batch(code, bounds, rng.random((min(_ROW_CAP, trials - lo), width)), rule, report)
    return report


def _run_batch(code: CodeInstance, bounds: dict, uniforms, rule: str, report: SimReport):
    """The trials of `uniforms` (a row per trial, laid out as :func:`simulate`
    says), counted into `report`; bounds[k] = D_k + delta."""
    cfg, n = code.config, code.n
    source = code.model.blocks(code.n)
    digits = support_table(code.source).searchsorted(uniforms[:, :n], side="right")
    # each cell's drawn index row per trial, -1 where its law is empty
    drawn = []
    for c, cell in enumerate(cfg.sharing):
        number, symbols = source.numbering((code.channels[cell].inputs[0][0],))
        blocks, law_of = np.unique(number(digits), return_inverse=True)
        laws = [(rows, choice_table(weights, total)) if len(rows) else None
                for rows, weights, total in _split(*_cell_draws(
                    code, cell, symbols[_digits(blocks, len(symbols), n)]))]
        drawn.append(np.array([laws[u][0][laws[u][1].searchsorted(x, side="right")]
                               if laws[u] else -1
                               for x, u in zip(uniforms[:, n + c], law_of.tolist())]))
    aborted = np.any([rows < 0 for rows in drawn], axis=0)
    live = np.flatnonzero(~aborted)
    digits = digits[live]
    cell_letters = [code._index(cell).rows[rows[live]] for cell, rows in zip(cfg.sharing, drawn)]

    mismatched = aborted.copy()
    distortion = {k: np.full(len(uniforms), cfg.distortions[k].bound) for k in bounds}
    for pos, j in enumerate(cfg.decoders):
        decoder = code._decoder(j)
        _, row = decoder.truth(cell_letters)
        cls = decoder.index.cls[row]
        keys = (cls * decoder.y_count + decoder.y_number(digits)).tolist()
        new = {key: e for e, key in enumerate(keys) if (rule, key) not in decoder.drawn}
        at = np.array(list(new.values()), dtype=np.intp)
        decoder.drawn.update(zip([(rule, key) for key in new], [
            (rows, choice_table(weights, total))
            for rows, weights, total in decoder.laws(cls[at], decoder.y_ids[digits[at]], rule)]))
        laws = [decoder.drawn[rule, key] for key in keys]
        picked = np.array([rows[cdf.searchsorted(x, side="right")] for (rows, cdf), x in zip(
            laws, uniforms[live, n + len(cfg.sharing) + pos])], dtype=np.int64)
        mismatched[live] |= picked != row
        observed = decoder.y_ids[digits]
        for k, measure, x, z in decoder.reproductions:
            reproduced = z[observed, decoder.index.rows[picked]]
            distortion[k][live] = _distortion(measure, x[digits] != reproduced)

    report.mismatch_count += int(np.count_nonzero(mismatched))
    report.encoder_abort_count += int(np.count_nonzero(aborted))
    for k, values in distortion.items():
        report.exceed_counts[k] += int(np.count_nonzero(aborted | (values > bounds[k])))
        # added one at a time, in trial order
        report.distortion_sums[k] = functools.reduce(operator.add, values.tolist(),
                                                     report.distortion_sums[k])
