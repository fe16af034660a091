"""Shannon quantities on joint pmfs and the single-letter spectral checks.

All values are in bits (log base 2), matching the 2^(-n*gamma) form of the
bounds the hash and decoding checks use.  The spectral sup- and inf-entropy
rates are asymptotic limits and not computable; for a memoryless source they
collapse to single-letter entropies, and only those identities are checked
here.  Entropies are irrational, so they are floats summed over the cells of
:meth:`JointPmf.float_marginal`, in its order, and compared at the fixed
tolerance :data:`SPECTRAL_TOL`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .errors import ConfigurationError
from .probability import JointPmf
from .reports import Report

# slack of the float entropy comparisons in verify_spectral_lemmas
SPECTRAL_TOL = 1e-10


def _plog(p: float) -> float:
    # 0*log(0) = 0 by convention
    return 0.0 if p == 0.0 else p * math.log2(p)


def entropy(pmf: JointPmf, vars: Optional[Iterable[str]] = None) -> float:
    """H(vars) in bits; defaults to the entropy of the full joint.

    Summed over the pmf's float marginal (:meth:`JointPmf.float_marginal`).
    """
    total = 0.0
    for p in pmf.float_marginal(pmf.names if vars is None else vars).tolist():
        total -= _plog(p)
    return max(total, 0.0)


def _check_disjoint(*groups):
    seen: set = set()
    for g in groups:
        for name in g:
            if name in seen:
                raise ConfigurationError("variable %r used in two argument sets" % (name,))
            seen.add(name)


def cond_entropy(pmf: JointPmf, a: Iterable[str], b: Iterable[str]) -> float:
    """H(A|B) = H(A,B) - H(B)."""
    a, b = list(a), list(b)
    _check_disjoint(a, b)
    if not b:
        return entropy(pmf, a)
    return max(entropy(pmf, a + b) - entropy(pmf, b), 0.0)


def mutual_info(pmf: JointPmf, a: Iterable[str], b: Iterable[str]) -> float:
    """I(A;B) = H(A) - H(A|B)."""
    a, b = list(a), list(b)
    _check_disjoint(a, b)
    return max(entropy(pmf, a) - cond_entropy(pmf, a, b), 0.0)


def cond_mutual_info(pmf: JointPmf, a: Iterable[str], b: Iterable[str],
                     c: Iterable[str]) -> float:
    """I(A;B|C) = H(A|C) - H(A|B,C)."""
    a, b, c = list(a), list(b), list(c)
    _check_disjoint(a, b, c)
    return max(cond_entropy(pmf, a, c) - cond_entropy(pmf, a, b + c), 0.0)


# -- single-letter checks of the spectral toolbox ----------------------------------


def kl_divergence(pmf: JointPmf, other: JointPmf) -> float:
    """E_mu[log2 mu/nu] over a common support; +inf if mu escapes nu."""
    total = 0.0
    for key, p in pmf.items():
        p = float(p)
        if p == 0.0:
            continue
        q = float(other.prob(key))
        if q == 0.0:
            return float("inf")
        total += p * math.log2(p / q)
    return total


def verify_spectral_lemmas(pmf: JointPmf) -> Report:
    """Check the single-letter specializations of the spectral toolbox.

    For a stationary memoryless source the sup- and inf-entropy rates both
    collapse to H, so the lemma inequalities become exact entropy identities:
    nonnegativity, the chain rule, conditioning reduction and the
    cardinality bound.  Each float comparison allows :data:`SPECTRAL_TOL`.
    The remaining identity, H(U|V)=0 for U a function of V, is checked by
    ``suites.suite_spectral``.
    """
    if len(pmf.names) > 5:
        raise ConfigurationError("spectral lemma check limited to <= 5 variables")
    report = Report("spectral-lemmas[%s]" % ",".join(pmf.names))
    names = list(pmf.names)

    for name in names:
        rest = [v for v in names if v != name]
        h = cond_entropy(pmf, [name], rest)
        report.add("nonneg H(%s|%s)" % (name, ",".join(rest)), h >= -SPECTRAL_TOL,
                   lhs=h, rhs=0.0)
        hmax = math.log2(pmf.alphabet(name).size)
        hu = entropy(pmf, [name])
        report.add("cardinality H(%s)<=log|alphabet|" % name, hu <= hmax + SPECTRAL_TOL,
                   lhs=hu, rhs=hmax)

    # chain rule H(U,U'|V) = H(U'|U,V) + H(U|V) over all ordered splits
    for u in names:
        for u2 in names:
            if u2 == u:
                continue
            v = [x for x in names if x not in (u, u2)]
            lhs = cond_entropy(pmf, [u, u2], v)
            rhs = cond_entropy(pmf, [u2], [u] + v) + cond_entropy(pmf, [u], v)
            report.add("chain H(%s,%s|.)" % (u, u2), abs(lhs - rhs) <= SPECTRAL_TOL,
                       lhs=lhs, rhs=rhs)

    # conditioning on more never increases entropy
    for u in names:
        rest = [x for x in names if x != u]
        for split in range(len(rest)):
            v, extra = rest[:split], rest[split:]
            if not extra:
                continue
            lhs = cond_entropy(pmf, [u], v)
            rhs = cond_entropy(pmf, [u], v + extra)
            report.add("conditioning H(%s|%s)>=H(%s|%s)" % (u, ",".join(v), u, ",".join(v + extra)),
                       lhs >= rhs - SPECTRAL_TOL, lhs=lhs, rhs=rhs)
    return report
