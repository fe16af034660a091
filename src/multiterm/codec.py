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
from .probability import RATIONAL, JointPmf, block_extend, marginalize, sample

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


def sample_from_law(law, seed):
    rng = np.random.default_rng(seed)
    probs = np.array([float(p) for _, p in law], dtype=float)
    probs = probs / probs.sum()
    idx = int(rng.choice(len(law), p=probs))
    return law[idx][0]


def crng_sample(base, constraint, seed):
    """One draw from the constrained, renormalized distribution."""
    return sample_from_law(crng_law(base, constraint), seed)


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
        self._joint = build_joint(self.config, self.source, self.channels, None)
        self._hash_values: dict = {}   # (encoder, block) -> (f meets c, g value)
        self._class_indexes: dict = {}
        self._posteriors: dict = {}
        self._laws: dict = {}

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
        W_S-letters.  An index that would scan more than ``_INDEX_BUDGET``
        blocks raises :class:`BudgetExceededError` before the scan.
        """
        classes = self._class_indexes.get(S)
        if classes is None:
            law = marginalize(self._joint, [w_name(i) for i in S])
            letters = [w for w, p in law.items() if p > 0]
            if len(letters) ** self.n > _INDEX_BUDGET:
                raise BudgetExceededError(
                    "class index of encoders %r needs %d letters ^ n=%d = %d blocks "
                    "(budget %d)" % (S, len(letters), self.n, len(letters) ** self.n,
                                     _INDEX_BUDGET))
            classes = self._class_indexes[S] = {}
            for block_letters in itertools.product(letters, repeat=self.n):
                blocks = [tuple(letter[pos] for letter in block_letters)
                          for pos in range(len(S))]
                hashes = [self._hashes(i, block) for i, block in zip(S, blocks)]
                if all(meets for meets, _ in hashes):
                    classes.setdefault(tuple(g for _, g in hashes), []).append(
                        (dict(zip(S, blocks)), block_letters))
        return classes

    def _law(self, key, weigh, abort, message):
        """The cached law `key` = (side, cell or decoder, ...): `weigh()`
        renormalized; an empty law raises `abort(message % key[1])`."""
        if key not in self._laws:
            try:
                # weigh() returns only admissible candidates of positive weight
                self._laws[key] = crng_law(weigh(), lambda blocks: True)
            except EmptySupportError:
                self._laws[key] = None
        law = self._laws[key]
        if law is None:
            raise abort(message % (key[1],))
        return law

    # -- encoder -------------------------------------------------------------------------

    def cell_base_law(self, cell, x_block):
        """Encoder weighting step: the cell's f-admissible W-blocks of every
        class with their positive weights under the channel rows of x_block."""
        cell = tuple(cell)
        ch = self.channels[cell]
        candidates = itertools.chain.from_iterable(self._class_index(cell).values())
        return _weigh(candidates, [ch.row((x,)) for x in x_block])

    def cell_constrained_law(self, cell, x_block):
        """Encoder CRNG law: channel law restricted to f_i(w_i) = c_i."""
        cell = tuple(cell)
        return self._law(("encoder", cell, tuple(x_block)),
                         lambda: self.cell_base_law(cell, x_block), EncoderAbort,
                         "cell %r: no admissible block for its constraints")

    def encode(self, cell, x_block, seed):
        """Joint draw for one sharing cell: (blocks by encoder, codewords)."""
        blocks = sample_from_law(self.cell_constrained_law(cell, x_block), seed)
        return blocks, {i: self._hashes(i, blocks[i])[1] for i in cell}

    # -- decoder -------------------------------------------------------------------------

    def _posterior_weights(self, j):
        """`weights[y][w]`: model probability of the W_{I_j}-letter w jointly
        with decoder j's side-information letter y (None without side
        information).  Computed once per decoder."""
        weights = self._posteriors.get(j)
        if weights is None:
            y = self.config.side_info.get(j)
            names = [w_name(i) for i in self.config.codewords_to[j]]
            weights = self._posteriors[j] = {}
            for key, p in marginalize(self._joint, names + ([y] if y else [])).items():
                w, yv = (key[:-1], key[-1]) if y else (key, None)
                weights.setdefault(yv, {})[w] = p
        return weights

    def decoder_class_law(self, j, m: Mapping, y_block):
        """Posterior over W_{I_j}-blocks restricted to the (f, g) classes.

        The model posterior factorizes across letters (everything is
        memoryless), so a candidate's weight is the product of its letters'
        model probabilities jointly with the observed side-information
        letters.  Only the candidates of the class that `m` names are weighted.
        """
        ij = tuple(self.config.codewords_to[j])
        values = tuple(m[i] for i in ij)
        weights = self._posterior_weights(j)
        if y_block is None:
            tables = [weights[None]] * self.n
        else:
            y_block = tuple(y_block)
            tables = [weights.get(yv, {}) for yv in y_block]
        return self._law(("decoder", j, values, y_block),
                         lambda: _weigh(self._class_index(ij).get(values, ()), tables),
                         DecoderAbort, "decoder %r: empty posterior class")

    def reproduce(self, j, w_blocks: Mapping, y_block):
        """Apply the decoder's reproducers per letter."""
        out = {}
        for k in self.config.reproductions.get(j, ()):
            rep = self.reproducers[k]
            arg_blocks = [w_blocks[_encoder_of_wvar(a, self.config)] if a.startswith("W")
                          else y_block for a in rep.args]
            out[k] = tuple(rep(args) for args in zip(*arg_blocks))
        return out

    def decode(self, j, m: Mapping, y_block, seed, rule: str = "crng"):
        """Draw (or select) the decoder's block estimate and reproductions."""
        law = self.decoder_class_law(j, m, y_block)
        if rule == "crng":
            w_hat = sample_from_law(law, seed)
        elif rule == "map":
            w_hat = map_estimate(law, self.config.codewords_to[j])
        else:
            raise ConfigurationError("unknown decode rule %r" % (rule,))
        return w_hat, self.reproduce(j, w_hat, y_block)


def _encoder_of_wvar(var: str, config: NetworkConfig):
    for i in config.encoders:
        if w_name(i) == var:
            return i
    raise ConfigurationError("unknown codeword variable %r" % (var,))


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
    """Deterministic argmax of the restricted posterior.

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


def _transpose(source: JointPmf, letters) -> dict:
    return {name: tuple(letter[pos] for letter in letters)
            for pos, name in enumerate(source.names)}


def exact_error(code: CodeInstance, delta: float, D: Mapping,
                rule: str = "crng") -> ExactError:
    """Exact error probabilities by total enumeration.

    Averages over the source blocks, every encoder draw, and every decoder
    draw; encoder aborts count as errors for the mismatch and for every
    distortion exceedance.  Each decoder class is summarized once per call
    (:func:`_class_summary`).  Requires rational-mode inputs.
    """
    if code.source.mode != RATIONAL:
        raise ConfigurationError("exact_error requires rational-mode source/channels")
    if rule not in ("crng", "map"):
        raise ConfigurationError("unknown decode rule %r" % (rule,))
    _check_budget(code)
    cfg = code.config
    bounds = {k: float(D[k]) + delta for k in cfg.reproduction_ids}
    mismatch = _BalancedSum()
    exceed = {k: _BalancedSum() for k in cfg.reproduction_ids}
    abort_mass = Fraction(0)
    summaries: dict = {}
    for letters, p_src in block_extend(code.source, code.n).enumerate_blocks():
        blocks = _transpose(code.source, letters)
        cell_laws = []
        try:
            for cell in cfg.sharing:
                ch = code.channels[tuple(cell)]
                x_var = ch.inputs[0][0]
                cell_laws.append(code.cell_constrained_law(cell, blocks[x_var]))
        except EncoderAbort:
            abort_mass += p_src
            continue
        for combo in itertools.product(*cell_laws):
            w_blocks = {}
            p_w = Fraction(1)
            for cell_blocks, p in combo:
                w_blocks.update(cell_blocks)
                p_w *= p
            weight = p_src * p_w
            if weight == 0:
                continue
            m = {i: code._hashes(i, w_blocks[i])[1] for i in cfg.encoders}
            p_all_match = Fraction(1)
            for j in cfg.decoders:
                ij = cfg.codewords_to[j]
                y = cfg.side_info.get(j)
                y_block = blocks[y] if y else None
                key = (j, tuple(m[i] for i in ij), y_block)
                if key not in summaries:
                    summaries[key] = _class_summary(code, j, m, y_block, rule)
                match, scale, reproduced = summaries[key]
                p_all_match *= match.get(tuple(w_blocks[i] for i in ij), 0)
                for k, masses in reproduced.items():
                    distortion = cfg.distortions[k]
                    hits = sum(mass for z, mass in masses
                               if distortion.block(blocks, blocks, z) > bounds[k])
                    if hits:
                        exceed[k].add(weight * Fraction(hits, scale))
            if p_all_match != 1:
                mismatch.add(weight * (1 - p_all_match))
    mismatch.add(abort_mass)
    for k in exceed:
        exceed[k].add(abort_mass)
    mismatch = mismatch.total()
    exceed = {k: acc.total() for k, acc in exceed.items()}
    return ExactError(mismatch, exceed, abort_mass)


def _class_summary(code: CodeInstance, j, m: Mapping, y_block, rule: str):
    """What the oracle needs from one decoder class, under one decode rule.

    Returns (match, scale, reproduced): `match` maps each candidate (its
    blocks in I_j order) to the probability that the decoder outputs it;
    `reproduced[k]` lists each distinct reproduced block with its
    probability as an integer numerator over the common denominator `scale`,
    so that the oracle sums them as integers.  The MAP rule outputs its pick
    with probability one.
    """
    ij = tuple(code.config.codewords_to[j])
    law = code.decoder_class_law(j, m, y_block)
    if rule == "map":
        law = [(map_estimate(law, ij), Fraction(1))]
    scale = math.lcm(*(p.denominator for _, p in law))
    match = {}
    masses = {k: {} for k in code.config.reproductions.get(j, ())}
    for cand, p in law:
        match[tuple(cand[i] for i in ij)] = p
        z = code.reproduce(j, cand, y_block)
        numerator = p.numerator * (scale // p.denominator)
        for k, by_block in masses.items():
            by_block[z[k]] = by_block.get(z[k], 0) + numerator
    return match, scale, {k: list(by_block.items()) for k, by_block in masses.items()}


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

    def ci(self, count: int, z: float = 3.0) -> tuple:
        """Normal-approximation z-sigma interval for a count/trials frequency."""
        p = count / self.trials
        half = z * math.sqrt(max(p * (1 - p), 1e-12) / self.trials)
        return (max(0.0, p - half), min(1.0, p + half))


def _trial_seed(seed, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed), int(trial)))


def simulate(code: CodeInstance, delta: float, D: Mapping, trials: int,
             seed: int, rule: str = "crng") -> SimReport:
    """Monte Carlo estimate of the exact-oracle quantities.

    Per-trial randomness derives from (seed, trial index), so the report is
    deterministic in `seed`.
    """
    counters = dict(mismatch=0, enc_abort=0, dec_abort=0)
    exceed = {k: 0 for k in code.config.reproduction_ids}
    dist_sums = {k: 0.0 for k in code.config.reproduction_ids}

    for trial in range(trials):
        _run_trial(code, delta, D, seed, trial, rule, counters, exceed, dist_sums)
    return SimReport(
        trials=trials,
        mismatch_count=counters["mismatch"],
        exceed_counts=exceed,
        encoder_abort_count=counters["enc_abort"],
        decoder_abort_count=counters["dec_abort"],
        distortion_sums=dist_sums,
        seed=seed,
    )


def _run_trial(code, delta, D, seed, trial, rule, counters, exceed, dist_sums):
    cfg = code.config
    root = _trial_seed(seed, trial)
    src_seed, enc_seed, dec_seed = root.spawn(3)
    letters = sample(block_extend(code.source, code.n), src_seed)[0]
    blocks = _transpose(code.source, letters)

    w_blocks = {}
    m = {}
    cell_seeds = enc_seed.spawn(len(cfg.sharing))
    try:
        for pos, cell in enumerate(cfg.sharing):
            ch = code.channels[tuple(cell)]
            x_var = ch.inputs[0][0]
            cell_blocks, cell_m = code.encode(cell, blocks[x_var], cell_seeds[pos])
            w_blocks.update(cell_blocks)
            m.update(cell_m)
    except EncoderAbort:
        counters["enc_abort"] += 1
        counters["mismatch"] += 1
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
            counters["dec_abort"] += 1
            mismatched = True
            for k in cfg.reproductions.get(j, ()):
                exceed[k] += 1
                dist_sums[k] += cfg.distortions[k].bound
            continue
        if any(w_hat[i] != w_blocks[i] for i in cfg.codewords_to[j]):
            mismatched = True
        for k in cfg.reproductions.get(j, ()):
            d = cfg.distortions[k].block(blocks, blocks, z[k])
            dist_sums[k] += d
            if d > float(D[k]) + delta:
                exceed[k] += 1
    if mismatched:
        counters["mismatch"] += 1
