"""Coding topology: encoders, sharing cells, decoders, reproductions.

The topology mirrors the unified multi-terminal setting: encoders indexed by
``I`` are grouped into sharing cells (every encoder in one cell observes the
same source variable), each decoder ``j`` receives the codewords of the subset
``I_j`` plus its own side information, and reproduction indices ``K`` are
partitioned across decoders.  A `DistortionMeasure` is plain data, a source
variable and one of two kinds; `codec` scores it on whole blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Mapping

import numpy as np

from .errors import ConfigurationError
from .probability import Alphabet, JointPmf, marginalize, ragged, row_numbers
from .rational import int_array, integer_scaled


def w_name(i) -> str:
    return "W%s" % (i,)


class ConditionalPmf:
    """Conditional distribution of output variables given input variables.

    `rows` maps every input symbol tuple to a pmf over output symbol tuples;
    each row must have non-negative entries of total mass exactly one.
    """

    def __init__(self, inputs, outputs, rows):
        self.inputs = tuple((n, a) for n, a in inputs)
        self.outputs = tuple((n, a) for n, a in outputs)
        self.rows = {}
        in_keys = dict.fromkeys(itertools.product(*(a.symbols for _, a in self.inputs)))
        for key, row in rows.items():
            key = tuple(key)
            if key not in in_keys:
                raise ConfigurationError("channel row key %r outside input alphabet" % (key,))
            row = {tuple(o): Fraction(p) for o, p in row.items()}
            for out, p in row.items():
                if p < 0:
                    raise ConfigurationError("channel row %r has negative probability %s at %r"
                                             % (key, p, out))
            total = sum(row.values())
            if total != 1:
                raise ConfigurationError("channel row %r has mass %s" % (key, total))
            self.rows[key] = row
        missing = in_keys.keys() - self.rows.keys()
        if missing:
            raise ConfigurationError("channel is missing rows for %r" % (sorted(missing, key=repr),))
        # (ids, weights, denominator, counts): the rows end to end, inputs in product
        # order; per entry its output ids and weight over one denominator, per input
        # row its number of entries
        entries = [entry for key in in_keys for entry in self.rows[key].items()]
        codes = [{sym: k for k, sym in enumerate(alph.symbols)} for _, alph in self.outputs]
        try:
            ids = [[code[sym] for sym, code in zip(out, codes)] for out, _ in entries]
        except KeyError as exc:
            raise ConfigurationError("symbol %r outside the alphabets of outputs %r"
                                     % (exc.args[0], [name for name, _ in self.outputs])) from None
        weights, denominator = integer_scaled([p for _, p in entries])
        counts = np.array([len(self.rows[key]) for key in in_keys])
        self.arrays = (np.array(ids, dtype=np.int64).reshape(len(ids), -1),
                       int_array(weights, denominator), denominator, counts)


def identity_channel(in_name: str, out_name_: str, alphabet: Alphabet) -> ConditionalPmf:
    rows = {(s,): {(s,): Fraction(1)} for s in alphabet.symbols}
    return ConditionalPmf([(in_name, alphabet)], [(out_name_, alphabet)], rows)


def bsc_channel(in_name: str, out_name_: str, p) -> ConditionalPmf:
    """Binary symmetric channel with crossover probability p."""
    p = Fraction(p)
    b = Alphabet((0, 1))
    rows = {(x,): {(x,): 1 - p, (1 - x,): p} for x in (0, 1)}
    return ConditionalPmf([(in_name, b)], [(out_name_, b)], rows)


@dataclass(frozen=True)
class Reproducer:
    """Deterministic per-letter reproduction map z = zeta(w_{I_j}, y_j).

    `args` lists the variable names read (codeword variables of the decoder,
    optionally followed by its side-information variable); `table` maps the
    corresponding symbol tuples to output symbols.
    """

    args: tuple
    table: Mapping[tuple, object]
    out_alphabet: Alphabet

    def __post_init__(self):
        for z in self.table.values():
            if z not in self.out_alphabet.symbols:
                raise ConfigurationError("reproducer output %r outside alphabet" % (z,))


def identity_reproducer(var: str, alphabet: Alphabet) -> Reproducer:
    return Reproducer((var,), {(s,): s for s in alphabet.symbols}, alphabet)


@dataclass(frozen=True)
class DistortionMeasure:
    """Distortion of a reproduced block from the block of one source variable.

    `kind` is ``"hamming"``, the fraction of letters that differ, or
    ``"block-mismatch"``, the indicator that the blocks differ anywhere
    (realizes lossless targets).  Both take values in [0, `bound`].
    """

    source: str
    kind: str = "hamming"
    bound: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.kind not in ("hamming", "block-mismatch"):
            raise ConfigurationError("unknown distortion kind %r" % (self.kind,))


@dataclass
class NetworkConfig:
    """Topology of the coding network.

    `sharing` partitions `encoders`; `codewords_to[j]` is the codeword set
    I_j of decoder j; `reproductions[j]` is the cell K_j of the reproduction
    partition; `side_info[j]` names the side-information variable of decoder
    j (None for the trivial constant).  `lossless` lists encoder indices whose
    sources must be reproduced exactly (the mixed lossless/lossy formulation).
    """

    encoders: tuple
    sharing: tuple
    decoders: tuple
    codewords_to: dict
    reproductions: dict
    side_info: dict
    distortions: dict = field(default_factory=dict)
    lossless: tuple = ()

    def __post_init__(self):
        self.encoders = tuple(self.encoders)
        self.sharing = tuple(tuple(cell) for cell in self.sharing)
        self.decoders = tuple(self.decoders)
        flat = [i for cell in self.sharing for i in cell]
        if sorted(flat) != sorted(self.encoders) or len(set(flat)) != len(flat):
            raise ConfigurationError("sharing cells must partition the encoder set")
        for at, j in enumerate(self.decoders):
            if j in self.decoders[:at]:
                raise ConfigurationError("decoder %r is listed twice" % (j,))
            if j not in self.codewords_to or not self.codewords_to[j]:
                raise ConfigurationError("decoder %r needs a nonempty codeword set" % (j,))
            if any(i not in self.encoders for i in self.codewords_to[j]):
                raise ConfigurationError("codeword set of decoder %r mentions unknown encoder" % (j,))
        seen_k: set = set()
        for j in self.decoders:
            for k in self.reproductions.get(j, ()):
                if k in seen_k:
                    raise ConfigurationError("reproduction %r assigned to two decoders" % (k,))
                seen_k.add(k)
        if any(i not in self.encoders for i in self.lossless):
            raise ConfigurationError("lossless set mentions unknown encoder")

    @property
    def reproduction_ids(self) -> tuple:
        return tuple(k for j in self.decoders for k in self.reproductions.get(j, ()))

    def cell_of(self, i):
        for cell in self.sharing:
            if i in cell:
                return cell
        raise ConfigurationError("encoder %r not in any sharing cell" % (i,))


def apply_conditional(pmf: JointPmf, cond: ConditionalPmf) -> JointPmf:
    """Joint of (pmf variables, cond outputs) under pmf * cond: each pmf row
    followed by the entries of its channel row, in their orders.

    The conditional's inputs must be variables of `pmf`; output names must be
    fresh.
    """
    positions = []
    for name, alph in cond.inputs:
        if name not in pmf.names:
            raise ConfigurationError("conditional input %r not a pmf variable" % (name,))
        if pmf.alphabet(name).symbols != alph.symbols:
            raise ConfigurationError("alphabet mismatch on %r" % (name,))
        positions.append(pmf.names.index(name))
    for name, _ in cond.outputs:
        if name in pmf.names:
            raise ConfigurationError("output variable %r already present" % (name,))
    ids, weights, denominator, counts = cond.arrays
    row = row_numbers(pmf.ids[:, positions], [alph.size for _, alph in cond.inputs])
    owner, offset, _ = ragged(counts[row])
    entry = (np.cumsum(counts) - counts)[row][owner] + offset
    denominator *= pmf.denominator
    product = int_array(pmf.weights, denominator)[owner] * int_array(weights, denominator)[entry]
    return JointPmf.from_arrays(list(pmf.variables) + list(cond.outputs),
                                np.hstack([pmf.ids[owner], ids[entry]]), product, denominator)


def w_alphabets(config: NetworkConfig, channels: Mapping[tuple, ConditionalPmf]) -> dict:
    """Encoder i -> alphabet of W_i, read from the outputs of the cell channels."""
    outputs = {}
    for cell in config.sharing:
        outputs.update(channels[tuple(cell)].outputs)
    for i in config.encoders:
        if w_name(i) not in outputs:
            raise ConfigurationError("no channel output for encoder %r" % (i,))
    return {i: outputs[w_name(i)] for i in config.encoders}


def build_joint(config: NetworkConfig, source: JointPmf,
                channels: Mapping[tuple, ConditionalPmf]) -> JointPmf:
    """Assemble the single-letter joint law over (W_I, source vars): the
    product of the source law and one channel conditional per sharing cell.
    Rows run as the source rows, then the entries of each cell's channel
    row, the first cell slowest; the W columns come first, in encoder order.
    """
    joint = source
    for cell in config.sharing:
        key = tuple(cell)
        if key not in channels:
            raise ConfigurationError("missing channel for sharing cell %r" % (key,))
        ch = channels[key]
        expected = tuple(w_name(i) for i in cell)
        if tuple(n for n, _ in ch.outputs) != expected:
            raise ConfigurationError(
                "channel for cell %r must output %r" % (key, expected))
        for name, _ in ch.inputs:
            if name not in source.names:
                raise ConfigurationError(
                    "channel input %r for cell %r not a source variable" % (name, key))
        joint = apply_conditional(joint, ch)
    return marginalize(joint, [w_name(i) for i in config.encoders] + list(source.names))
