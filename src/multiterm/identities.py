"""Per-distribution identities behind the classical single-letter regions.

Each verifier takes a joint law built for the example's Markov class (time
sharing variable, auxiliaries generated from the source, reproductions
generated from auxiliaries) and checks the entropy identities that equate
the constrained-generator bound expressions with the classical inner-region
expressions.  Generators for random laws in each class live here too, so
sweeps and the verification CLI share them.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .information import cond_entropy, cond_mutual_info, entropy, mutual_info
from .network import ConditionalPmf, apply_conditional
from .probability import (
    Alphabet,
    JointPmf,
    check_markov,
    marginalize,
    merge_vars,
    random_pmf,
)
from .reports import Report

# slack of the float entropy identities; every Markov precondition is exact
IDENTITY_TOL = 1e-9


def verify_example_identities(example: str, pmf: JointPmf) -> Report:
    """Dispatch to one example's identity checks.

    The pmf must satisfy the example's Markov class exactly; a violated chain
    raises :class:`PreconditionError` naming it.
    """
    return _example(example)[0](pmf)


def _example(example: str) -> tuple:
    """The ``_EXAMPLES`` entry of `example`; an unknown name is refused."""
    if example not in _EXAMPLES:
        raise ConfigurationError("unknown example %r (known: %s)" % (example, ", ".join(EXAMPLES)))
    return _EXAMPLES[example]


def _require_markov(pmf, a, b, c, label):
    if not check_markov(pmf, a, b, c):
        raise PreconditionError("required Markov chain violated: %s" % label)


def _claim(report: Report, name: str, lhs: float, relation: str, rhs: float) -> None:
    """Add the check `lhs relation rhs` (``"=="``, ``">="`` or ``"<="``) of two
    float entropy expressions, each relation with slack IDENTITY_TOL."""
    passed = {"==": abs(lhs - rhs) <= IDENTITY_TOL,
              ">=": lhs >= rhs - IDENTITY_TOL,
              "<=": lhs <= rhs + IDENTITY_TOL}[relation]
    report.add(name, passed, lhs=lhs, rhs=rhs)


def _berger_tung(pmf: JointPmf) -> Report:
    """H(W_i|W_ic,T) - H(W_i|X_i,T) = I(X_i;W_i|W_ic,T) and the sum form."""
    report = Report("berger-tung")
    for i, ic in ((1, 2), (2, 1)):
        _require_markov(pmf, ["W%d" % ic, "X%d" % ic], ["X%d" % i, "T"], ["W%d" % i],
                        "(W%d,X%d) <-> (X%d,T) <-> W%d" % (ic, ic, i, i))
    _require_markov(pmf, ["X1", "X2"], [], ["T"], "T independent of (X1,X2)")
    for i, ic in ((1, 2), (2, 1)):
        lhs = (cond_entropy(pmf, ["W%d" % i], ["W%d" % ic, "T"])
               - cond_entropy(pmf, ["W%d" % i], ["X%d" % i, "T"]))
        rhs = cond_mutual_info(pmf, ["X%d" % i], ["W%d" % i], ["W%d" % ic, "T"])
        _claim(report, "rate-%d identity" % i, lhs, "==", rhs)
    lhs = (cond_entropy(pmf, ["W1", "W2"], ["T"])
           - cond_entropy(pmf, ["W1"], ["X1", "T"])
           - cond_entropy(pmf, ["W2"], ["X2", "T"]))
    rhs = cond_mutual_info(pmf, ["X1", "X2"], ["W1", "W2"], ["T"])
    _claim(report, "sum-rate identity", lhs, "==", rhs)
    return report


def _el_gamal_cover(pmf: JointPmf) -> Report:
    """Bound expressions dominate the classical two-description forms."""
    report = Report("el-gamal-cover")
    for i, ic in ((1, 2), (2, 1)):
        _require_markov(
            pmf, ["W%d" % ic, "X", "Z12", "Z%d" % ic], ["W%d" % i, "T"], ["Z%d" % i],
            "(W%d,X,Z12,Z%d) <-> (W%d,T) <-> Z%d" % (ic, ic, i, i))
    _require_markov(pmf, ["X", "Z1", "Z2"], ["W1", "W2", "T"], ["Z12"],
                    "(X,Z1,Z2) <-> (W1,W2,T) <-> Z12")
    for i in (1, 2):
        lhs = (cond_entropy(pmf, ["W%d" % i], ["T"])
               - cond_entropy(pmf, ["W%d" % i], ["X", "T"]))
        mid = cond_mutual_info(pmf, ["X"], ["W%d" % i, "Z%d" % i], ["T"])
        low = cond_mutual_info(pmf, ["X"], ["Z%d" % i], ["T"])
        _claim(report, "rate-%d equals I(X;W,Z|T)" % i, lhs, "==", mid)
        _claim(report, "rate-%d dominates I(X;Z|T)" % i, lhs, ">=", low)
    pair = (cond_entropy(pmf, ["W1"], ["T"]) + cond_entropy(pmf, ["W2"], ["T"]))
    ident = (cond_mutual_info(pmf, ["W1", "Z1"], ["W2", "Z2"], ["T"])
             + cond_entropy(pmf, ["W1", "W2"], ["T"]))
    _claim(report, "sum decomposition identity", pair, "==", ident)
    lhs = pair - cond_entropy(pmf, ["W1", "W2"], ["X", "T"])
    rhs = (cond_mutual_info(pmf, ["Z1"], ["Z2"], ["T"])
           + cond_mutual_info(pmf, ["X"], ["Z1", "Z2", "Z12"], ["T"]))
    _claim(report, "sum-rate dominates classical form", lhs, ">=", rhs)
    return report


def _zhang_berger(pmf: JointPmf) -> Report:
    """Substituting W <-> W' preserves the bound values in both directions."""
    report = Report("zhang-berger")
    # forward direction: identities on (X, W0, W1, W2); these hold for any
    # joint law, no Markov precondition needed
    for i in (1, 2):
        lhs = (entropy(pmf, ["W0", "W%d" % i])
               - cond_entropy(pmf, ["W0", "W%d" % i], ["X"]))
        rhs = mutual_info(pmf, ["X"], ["W0", "W%d" % i])
        _claim(report, "forward rate-%d" % i, lhs, "==", rhs)
    lhs = (entropy(pmf, ["W0", "W1"]) + entropy(pmf, ["W0", "W2"])
           - cond_entropy(pmf, ["W0"], ["X"])
           - cond_entropy(pmf, ["W0", "W1", "W2"], ["X"]))
    rhs = (cond_mutual_info(pmf, ["X"], ["W1", "W2"], ["W0"])
           + 2 * mutual_info(pmf, ["X"], ["W0"])
           + cond_mutual_info(pmf, ["W1"], ["W2"], ["W0"]))
    _claim(report, "forward sum-rate", lhs, "==", rhs)

    # reverse direction: W0 := W'0, W_i := (W'0, W'_i) as composite variables
    merged = merge_vars(merge_vars(pmf, "V1", ("W0", "W1"), keep=True),
                        "V2", ("W0", "W2"), keep=True)
    for i in (1, 2):
        lhs = mutual_info(pmf, ["X"], ["W0", "W%d" % i])
        rhs = (entropy(merged, ["V%d" % i])
               - cond_entropy(merged, ["V%d" % i], ["X"]))
        _claim(report, "reverse rate-%d" % i, lhs, "==", rhs)
    # feasibility of dropping the common codeword: H(W0|W_i) - H(W0|X) <= 0
    for i in (1, 2):
        slack = (cond_entropy(merged, ["W0"], ["V%d" % i])
                 - cond_entropy(merged, ["W0"], ["X"]))
        _claim(report, "reverse zero-rate condition (branch %d)" % i, slack, "<=", 0.0)
    return report


def _heegard_berger(pmf: JointPmf) -> Report:
    """Reconstruction with a conditionally independent pair preserves margins.

    The input law must factorize as source * channel * per-decoder
    reproducers; the rebuilt law forces W1 <-> (W0,X) <-> W2 and must agree
    with the input exactly on every (W0, W_j, X, Y_j, Z_j) margin, and each
    decoder's classical bound expression must equal its rebuilt form.
    """
    report = Report("heegard-berger")
    for j, jc in ((1, 2), (2, 1)):
        _require_markov(
            pmf, ["W%d" % jc, "X", "Y%d" % jc, "Z%d" % jc],
            ["W0", "W%d" % j, "Y%d" % j], ["Z%d" % j],
            "(W%d,X,Y%d,Z%d) <-> (W0,W%d,Y%d) <-> Z%d" % (jc, jc, jc, j, j, j))
    _require_markov(pmf, ["Y1", "Y2"], ["X"], ["W0", "W1", "W2"],
                    "(Y1,Y2) <-> X <-> (W0,W1,W2)")

    rebuilt = reconstruct_heegard_berger(pmf)
    ci = check_markov(rebuilt, ["W1"], ["W0", "X"], ["W2"])
    report.add("conditional independence W1 <-> (W0,X) <-> W2", ci)
    for j in (1, 2):
        margin = ["W0", "W%d" % j, "X", "Y%d" % j, "Z%d" % j]
        report.add("margin (W0,W%d,X,Y%d,Z%d) preserved" % (j, j, j),
                   marginalize(pmf, margin) == marginalize(rebuilt, margin))
    for j, jc in ((1, 2), (2, 1)):
        classical = (
            cond_mutual_info(pmf, ["X"], ["W0"], ["Y%d" % j])
            + cond_mutual_info(pmf, ["X"], ["W%d" % j], ["W0", "Y%d" % j])
            + cond_mutual_info(pmf, ["X"], ["W%d" % jc], ["W0", "Y%d" % jc]))
        rebuilt_form = (
            cond_entropy(rebuilt, ["W0", "W%d" % j], ["Y%d" % j])
            + cond_entropy(rebuilt, ["W%d" % jc], ["W0", "Y%d" % jc])
            - cond_entropy(rebuilt, ["W0", "W1", "W2"], ["X"]))
        _claim(report, "decoder-%d bound expressions agree" % j, classical, "==", rebuilt_form)
    return report


def reconstruct_heegard_berger(pmf: JointPmf) -> JointPmf:
    """Rebuild the law with W1, W2 drawn conditionally independently given
    (W0, X), keeping every other conditional; pairwise margins survive."""
    base = marginalize(pmf, ["X", "Y1", "Y2"])
    chain = apply_conditional(base, _conditional_from(pmf, ["W0"], ["X"]))
    chain = apply_conditional(chain, _conditional_from(pmf, ["W1"], ["W0", "X"]))
    chain = apply_conditional(chain, _conditional_from(pmf, ["W2"], ["W0", "X"]))
    for j in (1, 2):
        chain = apply_conditional(
            chain, _conditional_from(pmf, ["Z%d" % j], ["W0", "W%d" % j, "Y%d" % j]))
    return chain


def _conditional_from(pmf: JointPmf, out: list, given: list) -> ConditionalPmf:
    """Extract mu(out | given) as a channel from one pass over the (given, out)
    marginal: each row is what `condition` gives, outcomes of probability zero
    included.  A key of zero mass gets a point mass on the first symbol (it
    carries zero probability downstream)."""
    out_vars = [(n, pmf.alphabet(n)) for n in out]
    in_vars = [(n, pmf.alphabet(n)) for n in given]
    first = tuple(a.symbols[0] for _, a in out_vars)
    rows = {key: {} for key in itertools.product(*(a.symbols for _, a in in_vars))}
    for key, p in marginalize(pmf, given + out).items():
        rows[key[:len(given)]][key[len(given):]] = p
    for key, row in rows.items():
        total = sum(row.values())
        rows[key] = {k: p / total for k, p in row.items()} if total else {first: Fraction(1)}
    return ConditionalPmf(in_vars, out_vars, rows)


# -- random law generators for the sweeps ---------------------------------------------


# Each example's verifier and Markov class: the variables of its independent
# base laws, then its channels (input names, outputs), each variable by its
# alphabet size.
_EXAMPLES = {
    "berger-tung": (_berger_tung, [{"T": 2}, {"X1": 3, "X2": 2}],
                    [("X1 T", {"W1": 2}), ("X2 T", {"W2": 3})]),
    "el-gamal-cover": (_el_gamal_cover, [{"T": 2}, {"X": 3}],
                       [("X T", {"W1": 2, "W2": 2}), ("W1 T", {"Z1": 2}), ("W2 T", {"Z2": 2}),
                        ("W1 W2 T", {"Z12": 2})]),
    "zhang-berger": (_zhang_berger, [{"X": 3}], [("X", {"W0": 2, "W1": 2, "W2": 2})]),
    "heegard-berger": (_heegard_berger, [{"X": 2}],
                       [("X", {"Y1": 2, "Y2": 2}), ("X", {"W0": 2, "W1": 2, "W2": 2}),
                        ("W0 W1 Y1", {"Z1": 2}), ("W0 W2 Y2", {"Z2": 2})]),
}
EXAMPLES = tuple(_EXAMPLES)


def _random_channel(rng, in_vars, out_vars) -> ConditionalPmf:
    """Random strictly positive rows, one :func:`random_pmf` over the outputs
    per input key."""
    return ConditionalPmf(in_vars, out_vars, {
        key: dict(random_pmf(rng, out_vars).items())
        for key in itertools.product(*(a.symbols for _, a in in_vars))})


def _variables(sizes: dict) -> list:
    return [(name, Alphabet(tuple(range(size)))) for name, size in sizes.items()]


def random_example_pmf(example: str, rng: np.random.Generator) -> JointPmf:
    """A random member of the example's Markov class (alphabets <= 3): the
    product of random base laws, then one random channel after another."""
    _, bases, channels = _example(example)
    pmf = functools.reduce(_independent_product,
                           (random_pmf(rng, _variables(base)) for base in bases))
    for inputs, outputs in channels:
        pmf = apply_conditional(pmf, _random_channel(
            rng, [(name, pmf.alphabet(name)) for name in inputs.split()], _variables(outputs)))
    return pmf


def _independent_product(a: JointPmf, b: JointPmf) -> JointPmf:
    """a * b: each row of `a` followed by every row of `b`."""
    return apply_conditional(a, ConditionalPmf([], b.variables, {(): dict(b.items())}))
