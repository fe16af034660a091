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


def check_double_markov(pmf: JointPmf, x0: str = "X0", x1: str = "X1",
                        x2: str = "X2", tol: float = 1e-12) -> bool:
    """True iff both chains X2 <-> X1 <-> X0 and X1 <-> X2 <-> X0 hold."""
    return (check_markov(pmf, [x2], [x1], [x0], tol)
            and check_markov(pmf, [x1], [x2], [x0], tol))


@dataclass
class CommonPartConstruction:
    """Interval partitions and the induced synchronized generators.

    `partitions[(side, x)]` lists (start, end, x0-label) with rational
    endpoints tiling [0,1]; `atoms` are the common-refinement cells of every
    endpoint, each carrying its width as the shared variable's probability.
    """

    variables: tuple                # (x0, x1, x2) names
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

    def dump(self) -> str:
        """Table form: side, symbol, interval start, interval end, label."""
        lines = []
        for (side, x), intervals in sorted(self.partitions.items(), key=repr):
            for lo, hi, label in intervals:
                lines.append("%d\t%r\t%s\t%s\t%r" % (side, x, lo, hi, label))
        return "\n".join(lines) + "\n"


def construct_common(pmf: JointPmf, x0: str = "X0", x1: str = "X1",
                     x2: str = "X2") -> CommonPartConstruction:
    """Build (xi1, xi2, shared atoms) realizing the common variable exactly.

    Requires the exact double-Markov condition; the error names the first
    violated chain.
    """
    if not check_markov(pmf, [x2], [x1], [x0], 0.0):
        raise PreconditionError("chain %s <-> %s <-> %s is violated" % (x2, x1, x0))
    if not check_markov(pmf, [x1], [x2], [x0], 0.0):
        raise PreconditionError("chain %s <-> %s <-> %s is violated" % (x1, x2, x0))

    x0_alph = pmf.alphabet(x0)
    partitions = {}
    endpoints = {Fraction(0), Fraction(1)}
    for side, var in ((1, x1), (2, x2)):
        marg = marginalize(pmf, [var])
        for (sym,), p in marg.items():
            if p == 0:
                continue
            cond = condition(pmf, [x0], {var: sym})
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
    return CommonPartConstruction((x0, x1, x2), partitions, atoms)


def verify_construction(pmf: JointPmf, built: CommonPartConstruction) -> Report:
    """Exact checks: synchronization, law preservation, independence."""
    x0, x1, x2 = built.variables
    report = Report("common-randomness")
    pair = marginalize(pmf, [x1, x2])

    synchronized = True
    for (s1, s2), p in pair.items():
        if p == 0:
            continue
        for a in range(len(built.atoms)):
            if built.xi(1, s1, a) != built.xi(2, s2, a):
                synchronized = False
    report.add("xi1 == xi2 with probability 1", synchronized)

    # reconstructed joint (X0hat, X1, X2) must equal the input law entry-wise
    target = marginalize(pmf, [x0, x1, x2])
    ok = True
    for key in itertools.product(pmf.alphabet(x0).symbols,
                                 pmf.alphabet(x1).symbols,
                                 pmf.alphabet(x2).symbols):
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


def random_double_markov(rng: np.random.Generator, u_size: int = 2,
                         v_size: int = 2, x0_size: int = 3) -> JointPmf:
    """A random law satisfying both chains, via a shared component.

    X_i = (U, V_i) with V1, V2 conditionally independent given U, and X0
    drawn from a random conditional given U alone; then X0 is conditionally
    independent of everything else given either observation.
    """
    u = Alphabet(tuple(range(u_size)))
    v = Alphabet(tuple(range(v_size)))
    x0a = Alphabet(tuple(range(x0_size)))
    denom = 120
    table = {}
    u_w = [int(x) for x in rng.integers(1, denom, size=u_size)]
    x0_rows = {us: [int(x) for x in rng.integers(1, denom, size=x0_size)]
               for us in range(u_size)}
    v1_rows = {us: [int(x) for x in rng.integers(1, denom, size=v_size)]
               for us in range(u_size)}
    v2_rows = {us: [int(x) for x in rng.integers(1, denom, size=v_size)]
               for us in range(u_size)}
    total = Fraction(0)
    raw = {}
    for us in range(u_size):
        for x0 in range(x0_size):
            for v1 in range(v_size):
                for v2 in range(v_size):
                    w = (Fraction(u_w[us]) * x0_rows[us][x0]
                         * v1_rows[us][v1] * v2_rows[us][v2])
                    raw[(x0, (us, v1), (us, v2))] = raw.get(
                        (x0, (us, v1), (us, v2)), Fraction(0)) + w
                    total += w
    pairs = Alphabet(tuple(itertools.product(range(u_size), range(v_size))))
    table = {k: p / total for k, p in raw.items()}
    return JointPmf([("X0", x0a), ("X1", pairs), ("X2", pairs)], table, _validated=True)


def random_violating(rng: np.random.Generator, sizes=(2, 2, 2)) -> JointPmf:
    """A generic random joint law; rejection-samples until a chain fails."""
    vars = [("X0", Alphabet(tuple(range(sizes[0])))),
            ("X1", Alphabet(tuple(range(sizes[1])))),
            ("X2", Alphabet(tuple(range(sizes[2]))))]
    for _ in range(100):
        pmf = random_pmf(rng, vars)
        if not check_double_markov(pmf):
            return pmf
    raise RuntimeError("failed to draw a violating law in 100 attempts")
