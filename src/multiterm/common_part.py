"""Synchronized common randomness from the double-Markov condition.

When X2 <-> X1 <-> X0 and X1 <-> X2 <-> X0 both hold, the conditional law of
X0 given either observation is the same wherever the pair has positive
probability, so both encoders can tile [0,1] with identical interval
partitions and read off the same X0 sample from one shared uniform variable.
The construction here is fully rational: the shared variable is discretized
to the common refinement of all interval endpoints, which preserves the
joint law exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .probability import (
    Alphabet,
    JointPmf,
    check_markov,
    condition,
    marginalize,
    random_pmf,
)
from .reports import Report


def check_double_markov(pmf: JointPmf) -> bool:
    """True iff both chains X2 <-> X1 <-> X0 and X1 <-> X2 <-> X0 hold
    exactly (:func:`check_markov`, the same test :func:`construct_common`
    requires)."""
    return (check_markov(pmf, ["X2"], ["X1"], ["X0"])
            and check_markov(pmf, ["X1"], ["X2"], ["X0"]))


@dataclass
class CommonPartConstruction:
    """Interval partitions and the induced synchronized generators.

    `partitions[(side, x)]` lists (start, end, X0-label) with rational
    endpoints tiling [0,1] for the observation X_side = x; `atoms` are the
    common-refinement cells of every endpoint, each carrying its width as the
    shared variable's probability.
    """

    partitions: dict                # (side index, symbol) -> list of intervals
    atoms: tuple                    # ((start, end), ...) covering [0,1]

    def xi(self, side: int, x, atom_index: int):
        """The label whose interval contains the given shared-randomness atom."""
        start, end = self.atoms[atom_index]
        mid = (start + end) / 2
        for lo, hi, label in self.partitions[(side, x)]:
            if lo <= mid < hi or (mid == hi == Fraction(1) and lo < mid):
                return label
        raise ConfigurationError("atom %r escaped the partition of %r" % (atom_index, x))

    def atom_width(self, atom_index: int) -> Fraction:
        start, end = self.atoms[atom_index]
        return end - start


def construct_common(pmf: JointPmf) -> CommonPartConstruction:
    """Build (xi1, xi2, shared atoms) realizing the common variable X0 of the
    observations X1 and X2 exactly.

    Requires the exact double-Markov condition; the error names the first
    violated chain.
    """
    if not check_markov(pmf, ["X2"], ["X1"], ["X0"]):
        raise PreconditionError("chain X2 <-> X1 <-> X0 is violated")
    if not check_markov(pmf, ["X1"], ["X2"], ["X0"]):
        raise PreconditionError("chain X1 <-> X2 <-> X0 is violated")

    x0_alph = pmf.alphabet("X0")
    partitions = {}
    endpoints = {Fraction(0), Fraction(1)}
    for side, var in ((1, "X1"), (2, "X2")):
        marg = marginalize(pmf, [var])
        for (sym,), p in marg.items():
            if p == 0:
                continue
            cond = condition(pmf, ["X0"], {var: sym})
            intervals = []
            at = Fraction(0)
            for label in x0_alph.symbols:
                width = cond.prob((label,))
                if width == 0:
                    continue
                intervals.append((at, at + width, label))
                endpoints.add(at + width)
                at += width
            partitions[(side, sym)] = intervals
    cut = sorted(endpoints)
    atoms = tuple((lo, hi) for lo, hi in zip(cut, cut[1:]) if hi > lo)
    return CommonPartConstruction(partitions, atoms)


def verify_construction(pmf: JointPmf, built: CommonPartConstruction) -> Report:
    """Exact checks: synchronization, law preservation, independence."""
    report = Report("common-randomness")
    pair = marginalize(pmf, ["X1", "X2"])

    synchronized = True
    for (s1, s2), p in pair.items():
        if p == 0:
            continue
        for a in range(len(built.atoms)):
            if built.xi(1, s1, a) != built.xi(2, s2, a):
                synchronized = False
    report.add("xi1 == xi2 with probability 1", synchronized)

    # reconstructed joint (X0hat, X1, X2) must equal the input law entry-wise
    target = marginalize(pmf, ["X0", "X1", "X2"])
    ok = True
    for key in itertools.product(*(pmf.alphabet(name).symbols for name in ("X0", "X1", "X2"))):
        label, s1, s2 = key
        p_pair = pair.prob((s1, s2))
        mass = Fraction(0)
        if p_pair > 0:
            for a in range(len(built.atoms)):
                if built.xi(1, s1, a) == label:
                    mass += built.atom_width(a)
        if mass * p_pair != target.prob(key):
            ok = False
    report.add("reconstructed law equals input law", ok)

    # independence is structural: atom widths never depend on (x1, x2)
    total = sum(built.atom_width(a) for a in range(len(built.atoms)))
    report.add("shared randomness tiles [0,1]", total == 1, lhs=total, rhs=1)
    return report


# -- instance generators for sweeps -------------------------------------------------


def random_double_markov(rng: np.random.Generator) -> JointPmf:
    """A random law satisfying both chains, via a shared component.

    X_i = (U, V_i) with V1, V2 conditionally independent given U, and X0
    drawn from a random conditional given U alone; then X0 is conditionally
    independent of everything else given either observation.  U and V_i are
    bits and X0 has three symbols.
    """
    u_size, v_size, x0_size = 2, 2, 3
    denom = 120
    u_w = rng.integers(1, denom, size=u_size)
    x0, v1, v2 = (np.array([rng.integers(1, denom, size=size) for _ in range(u_size)])
                  for size in (x0_size, v_size, v_size))
    # rows (u, x0, v1, v2) in product order, weight P(u) P(x0|u) P(v1|u) P(v2|u) unnormalized
    weights = (u_w[:, None, None, None] * x0[:, :, None, None]
               * v1[:, None, :, None] * v2[:, None, None, :]).ravel()
    u, x0_id, v1_id, v2_id = np.indices((u_size, x0_size, v_size, v_size)).reshape(4, -1)
    ids = np.stack([x0_id, u * v_size + v1_id, u * v_size + v2_id], axis=1)
    pairs = Alphabet(tuple(itertools.product(range(u_size), range(v_size))))
    return JointPmf.from_arrays([("X0", Alphabet(tuple(range(x0_size)))), ("X1", pairs),
                                 ("X2", pairs)], ids, weights, int(weights.sum()))


def random_violating(rng: np.random.Generator) -> JointPmf:
    """A generic random joint law of three bits; rejection-samples until a
    chain fails."""
    vars = [(name, Alphabet((0, 1))) for name in ("X0", "X1", "X2")]
    for _ in range(100):
        pmf = random_pmf(rng, vars)
        if not check_double_markov(pmf):
            return pmf
    raise RuntimeError("failed to draw a violating law in 100 attempts")
