"""Constrained-random-number-generator source code: encoders, decoders,
exact error oracles, and Monte Carlo simulation.

The encoder of a sharing cell draws the cell's auxiliary blocks from the
channel conditional restricted to the hash constraints f_i(w_i) = c_i and
renormalized; the decoder draws candidate blocks from the model posterior
restricted to all (f, g) constraints.  Both draw from one class index per
encoder set (its f-admissible blocks by g value, shared by an encoder cell
and a decoder that sees the same codewords), each hash evaluated once per
block.  Everything is enumerated explicitly, so exactness is provable at
desk scale; there is no MCMC.

Every constrained law is held in integers: each (W_S, observed letter) table
of the model joint over (W, source) is scaled once per code to integer weights
(by the lcm of its denominators, a factor shared by every candidate of a law,
so it cancels), and a law is its candidates with integer weights plus their
integer total.
Draws divide each weight by the total once; the exact oracle forms one
Fraction per distinct denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
from .hashing import HashFunction
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


def _integer_weights(table: Mapping) -> tuple:
    """A table of rational weights scaled to integers by the lcm of its
    denominators: (integer table, scale)."""
    weights, scale = integer_scaled(list(table.values()))
    return dict(zip(table, weights)), scale


def _transpose(names, letters) -> dict:
    """A block given as its letters (one symbol tuple per position, aligned
    with `names`) as one block per name."""
    return dict(zip(names, zip(*letters)))


# -- code instances ------------------------------------------------------------------


def realized_size(rate: float, n: int) -> int:
    """Image size realizing a target rate at block length n: round(2^(rate*n)).

    Exact powers of two are hit exactly; other targets use the nearest
    integer (at least 1), so the realized rate log2(size)/n can deviate from
    the target at small n.
    """
    return max(1, round(2 ** (rate * n)))


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
        self._hash_values: dict = {}   # (encoder, block) -> (f meets c, g value)
        self._class_indexes: dict = {}
        self._weights: dict = {}       # (S, observed) -> observed letter -> integer table
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

    def _hashes(self, i, block):
        """(f_i meets c_i, g_i value) of a W_i-block; each hash runs once per block."""
        values = self._hash_values.get((i, block))
        if values is None:
            v = self.block_to_int(i, block)
            values = self._hash_values[i, block] = (self.f[i](v) == self.c[i], self.g[i](v))
        return values

    # -- the constrained draw shared by encoders and decoders ----------------------------

    def _class_index(self, S):
        """The f-admissible W_S-blocks of encoder set S, by their g values on S.

        Built on first use and kept; an encoder cell and a decoder with
        I_j = S share it.  Candidates are the W_S-blocks whose letters all
        have positive single-letter mass, in product order of those letters
        (the order in which they first occur in the model joint); each is
        (blocks, letters): a dict encoder->block and its per-position
        W_S-letters.  The first index built checks the size of every index
        the code needs (each sharing cell, then each I_j): one that would scan
        more than ``_INDEX_BUDGET`` blocks raises :class:`BudgetExceededError`.
        """
        classes = self._class_indexes.get(S)
        if classes is None:
            needed = [S]
            if not self._class_indexes:
                needed[:0] = [*self.config.sharing, *(
                    tuple(self.config.codewords_to[j]) for j in self.config.decoders)]
            for T in needed:
                law = marginalize(self._joint, [w_name(i) for i in T])
                letters = [w for w, p in law.items() if p > 0]
                if len(letters) ** self.n > _INDEX_BUDGET:
                    raise BudgetExceededError(
                        "class index of encoders %r needs %d letters ^ n=%d = %d blocks "
                        "(budget %d)" % (T, len(letters), self.n, len(letters) ** self.n,
                                         _INDEX_BUDGET))
            classes = self._class_indexes[S] = {}
            for block_letters in itertools.product(letters, repeat=self.n):
                blocks = _transpose(S, block_letters)
                hashes = [self._hashes(i, block) for i, block in blocks.items()]
                if all(meets for meets, _ in hashes):
                    classes.setdefault(tuple(g for _, g in hashes), []).append(
                        (blocks, block_letters))
        return classes

    def _tables(self, S, given, block) -> list:
        """Per position of `block`, the integer weights of the W_S-letters
        jointly with that position's letter of the observed variable `given`
        in the model joint, or the W_S marginal n times when `given` is None.

        Each observed letter's table is scaled to integers by its own lcm;
        the tables are built once per (S, given).  At an observed letter of
        zero mass every W_S-letter weighs 0.
        """
        tables = self._weights.get((S, given))
        if tables is None:
            names = [w_name(i) for i in S] + ([given] if given else [])
            by_letter: dict = {}
            for key, p in marginalize(self._joint, names).items():
                w, v = (key[:-1], key[-1]) if given else (key, None)
                by_letter.setdefault(v, {})[w] = p
            tables = self._weights[S, given] = {
                v: _integer_weights(table)[0] for v, table in by_letter.items()}
        if given is None:
            return [tables[None]] * self.n
        return [tables.get(v, {}) for v in block]

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
        candidates = itertools.chain.from_iterable(self._class_index(cell).values())
        x_var = self.channels[cell].inputs[0][0]
        return _weigh(candidates, self._tables(cell, x_var, x_block))

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
        return blocks, {i: self._hashes(i, blocks[i])[1] for i in cell}

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
                         lambda: _weigh(self._class_index(ij).get(values, ()),
                                        self._tables(ij, self.config.side_info.get(j), y_block)),
                         DecoderAbort, "decoder %r: empty posterior class")

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


def _weigh(candidates, tables):
    """Each (blocks, letters) candidate with the product of its letters'
    weights, `tables[pos]` mapping a letter at position pos to its weight.

    A candidate is dropped at its first letter of zero weight.
    """
    weighted = []
    for blocks, letters in candidates:
        p = 1
        for table, letter in zip(tables, letters):
            p *= table.get(letter, 0)
            if not p:
                break
        else:
            weighted.append((blocks, p))
    return weighted


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


def exact_error(code: CodeInstance, delta: float, D: Mapping,
                rule: str = "crng") -> ExactError:
    """Exact error probabilities by total enumeration.

    Averages over the source blocks, every encoder draw, and every decoder
    draw; encoder aborts count as errors for the mismatch and for every
    distortion exceedance.

    The sums run in integers.  A source block's weight is an integer over
    D^n (D the lcm of the source law's denominators), each encoder draw an
    integer over its cell's law total.  Within a source block the encoder
    draws are grouped by the decoder classes they reach (each class
    summarized once per call, :func:`_class_summary`), and the distortion
    hits are counted once per group.  Each group's numerators are added to
    the running numerator of their denominator: D^n times the cell totals
    times the class totals for the mismatch, times only the decoder's own
    class total for an exceedance.  One Fraction is formed per distinct
    denominator at the end.
    """
    if rule not in ("crng", "map"):
        raise ConfigurationError("unknown decode rule %r" % (rule,))
    _check_budget(code)
    cfg = code.config
    bounds = {k: float(D[k]) + delta for k in cfg.reproduction_ids}
    cells = [(cell, code.channels[cell].inputs[0][0]) for cell in cfg.sharing]
    decoders = [(j, tuple(cfg.codewords_to[j]), cfg.side_info.get(j)) for j in cfg.decoders]
    source_row, source_scale = _integer_weights(dict(code.source.items()))
    source_row = [(letter, w) for letter, w in source_row.items() if w]
    block_scale = source_scale ** code.n
    mismatch: dict = {}    # denominator -> numerator
    exceed: dict = {k: {} for k in cfg.reproduction_ids}
    abort = 0
    summaries: dict = {}
    for letters, p_src in block_products([source_row] * code.n):
        blocks = _transpose(code.source.names, letters)
        try:
            cell_laws = [code.cell_constrained_law(cell, blocks[x_var]) for cell, x_var in cells]
        except EncoderAbort:
            abort += p_src
            continue
        scale = block_scale
        for _, total in cell_laws:
            scale *= total
        groups: dict = {}   # decoder classes -> [sum of weights, sum of weight * prod match]
        for combo in itertools.product(*(items for items, _ in cell_laws)):
            w_blocks = {}
            weight = p_src
            for cell_blocks, w in combo:
                w_blocks.update(cell_blocks)
                weight *= w
            classes = []
            matched = weight
            for j, ij, y in decoders:
                y_block = blocks[y] if y else None
                key = (j, tuple(code._hashes(i, w_blocks[i])[1] for i in ij), y_block)
                summary = summaries.get(key)
                if summary is None:
                    summary = summaries[key] = _class_summary(code, j, key[1], y_block, rule)
                matched *= summary[0].get(tuple(w_blocks[i] for i in ij), 0)
                classes.append(key)
            group = groups.setdefault(tuple(classes), [0, 0])
            group[0] += weight
            group[1] += matched
        hits_of: dict = {}   # decoder class -> [(k, hits)]
        for classes, (weight, matched) in groups.items():
            total = 1
            for key in classes:
                total *= summaries[key][1]
            if weight * total != matched:
                _add(mismatch, scale * total, weight * total - matched)
            for key in classes:
                hits = hits_of.get(key)
                if hits is None:
                    hits = hits_of[key] = _hits(cfg, blocks, summaries[key][2], bounds)
                for k, count in hits:
                    _add(exceed[k], scale * summaries[key][1], weight * count)
    for numerators in [mismatch, *exceed.values()]:
        _add(numerators, block_scale, abort)
    return ExactError(_fraction_sum(mismatch),
                      {k: _fraction_sum(numerators) for k, numerators in exceed.items()},
                      Fraction(abort, block_scale))


def _add(numerators: dict, denominator: int, numerator: int):
    numerators[denominator] = numerators.get(denominator, 0) + numerator


def _fraction_sum(numerators: dict) -> Fraction:
    """The exact sum of numerator/denominator over a denominator -> numerator dict."""
    acc = _BalancedSum()
    for denominator, numerator in numerators.items():
        acc.add(Fraction(numerator, denominator))
    return acc.total()


def _hits(cfg, blocks, reproduced, bounds) -> list:
    """(k, summed weight of the reproductions whose distortion from the source
    blocks exceeds D_k + delta) for each reproduction of a decoder class."""
    hits = []
    for k, masses in reproduced.items():
        distortion = cfg.distortions[k]
        count = sum(mass for z, mass in masses if distortion.block(blocks, z) > bounds[k])
        if count:
            hits.append((k, count))
    return hits


def _class_summary(code: CodeInstance, j, values: tuple, y_block, rule: str):
    """What the oracle needs from one decoder class, under one decode rule.

    `values` are the codewords of I_j.  Returns (match, total, reproduced):
    `match` maps each candidate (its blocks in I_j order) to the integer
    weight with which the decoder outputs it, out of `total`, the class
    total; `reproduced[k]` lists each distinct reproduced block with its
    summed weight out of the same total.  The MAP rule outputs its pick with
    weight 1 out of 1.
    """
    ij = tuple(code.config.codewords_to[j])
    items, total = code.decoder_class_law(j, dict(zip(ij, values)), y_block)
    if rule == "map":
        items, total = [(map_estimate(items, ij), 1)], 1
    match = {}
    masses = {k: {} for k in code.config.reproductions.get(j, ())}
    for cand, w in items:
        match[tuple(cand[i] for i in ij)] = w
        z = code.reproduce(j, cand, y_block)
        for k, by_block in masses.items():
            by_block[z[k]] = by_block.get(z[k], 0) + w
    return match, total, {k: list(by_block.items()) for k, by_block in masses.items()}


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
