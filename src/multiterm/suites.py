"""Verification suites behind the `verify` CLI command.

Each suite returns a :class:`Report` with one line per lemma-level check,
carrying the computed left/right sides.  Suite names map to the lemma
groups: spectral identities, collision properties of hash families, the
balanced-coloring and collision-resistance bounds, per-example region
identities, the synchronized-common-randomness construction, and the
stochastic-decision factor-of-two comparison.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .codec import exact_error
from .common_part import (
    check_double_markov,
    construct_common,
    random_double_markov,
    random_violating,
    verify_construction,
)
from .errors import ConfigurationError
from .hashing import (
    BinningEnsemble,
    LinearEnsemble,
    SparseLinearEnsemble,
    compose,
    measure_beta,
    product_difference_gap,
    verify_hash_property,
    verify_mbcp,
    verify_mcrp,
)
from .identities import sweep_examples
from .information import kl_divergence, verify_spectral_lemmas
from .probability import Alphabet, JointPmf, random_pmf
from .reports import Report
from .scenarios import build_scenario

SUITES = ("spectral", "hash", "mbcp", "mcrp", "examples", "common", "decision")
# suites of fixed instances (any draw uses a built-in seed): no sweep size or seed
UNSEEDED = ("hash", "decision")


def run_suite(name: str, seeds: int = 50, seed0: int = 0) -> Report:
    if name == "spectral":
        return suite_spectral(seeds, seed0)
    if name == "hash":
        return suite_hash()
    if name == "mbcp":
        return suite_mbcp(seeds, seed0)
    if name == "mcrp":
        return suite_mcrp(seeds, seed0)
    if name == "examples":
        return suite_examples(seeds, seed0)
    if name == "common":
        return suite_common(seeds, seed0)
    if name == "decision":
        return suite_decision()
    raise ConfigurationError("unknown suite %r (known: %s)" % (name, ", ".join(SUITES)))


def suite_spectral(seeds: int = 50, seed0: int = 0) -> Report:
    report = Report("spectral")
    b2, b3 = Alphabet((0, 1)), Alphabet((0, 1, 2))
    failures = 0
    for s in range(seeds):
        rng = np.random.default_rng((seed0, s))
        pmf = random_pmf(rng, [("U", b2), ("V", b3), ("V2", b2)])
        if not verify_spectral_lemmas(pmf).all_passed:
            failures += 1
    report.add("single-letter identities on %d random laws" % seeds,
               failures == 0, lhs=failures, rhs=0)

    # deterministic U = g(V) has H(U|V) = 0
    det = JointPmf([("U", b2), ("V", b3)],
                   {(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 3), (0, 2): Fraction(1, 3)})
    from .information import cond_entropy
    h = cond_entropy(det, ["U"], ["V"])
    report.add("H(U|V)=0 for deterministic U", abs(h) <= 1e-12, lhs=h, rhs=0.0)

    # divergence surrogate nonnegative on same-support pairs
    bad = 0
    for s in range(seeds):
        rng = np.random.default_rng((seed0, 1000 + s))
        mu = random_pmf(rng, [("U", b3)])
        nu = random_pmf(rng, [("U", b3)])
        if kl_divergence(mu, nu) < -1e-12:
            bad += 1
    report.add("E[log mu/nu] >= 0 on %d pairs" % seeds, bad == 0, lhs=bad, rhs=0)
    return report


def suite_hash() -> Report:
    report = Report("hash")
    for dom, bins in ((16, 2), (64, 8), (256, 16)):
        ens = BinningEnsemble(dom, bins)
        report.add("binning(%d->%d) has the (1,0) property" % (dom, bins),
                   verify_hash_property(ens, 1, 0))
    for n, m in ((4, 2), (8, 4), (8, 6)):
        ens = LinearEnsemble(2, n, m)
        report.add("linear GF(2) (%d->%d) has the (1,0) property" % (n, m),
                   verify_hash_property(ens, 1, 0))
    skew = BinningEnsemble(16, 4, weights=[Fraction(2, 5)] + [Fraction(1, 5)] * 3)
    report.add("skewed binning fails (1,0)", not verify_hash_property(skew, 1, 0))
    report.add("skewed binning passes (2,0)", verify_hash_property(skew, 2, 0))

    f, g = BinningEnsemble(16, 4), LinearEnsemble(2, 4, 1)
    joint = compose(f, g)
    report.add("composition parameters multiply/add",
               joint.alpha == 1 and joint.beta == 0,
               lhs=(joint.alpha, joint.beta), rhs=(1, 0))
    report.add("composed ensemble passes its parameters",
               verify_hash_property(joint, joint.alpha, joint.beta))

    sparse = SparseLinearEnsemble(2, 4, 4, column_weight=2)
    report.add("sparse ensemble satisfies its measured parameters",
               verify_hash_property(sparse, sparse.alpha, sparse.beta),
               lhs=(sparse.alpha, sparse.beta))
    report.add("sparse measured beta is minimal at alpha=1",
               measure_beta(sparse, 1) == sparse.beta,
               lhs=measure_beta(sparse, 1), rhs=sparse.beta)

    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(10_000):
        thetas = rng.uniform(0.0, 2.0, size=rng.integers(1, 6))
        lhs, rhs = product_difference_gap([float(t) for t in thetas])
        if lhs > rhs + 1e-12:
            bad += 1
    report.add("product-difference inequality on 10^4 sequences", bad == 0,
               lhs=bad, rhs=0)
    return report


def _random_subset(rng, universe, size):
    idx = rng.choice(len(universe), size=size, replace=False)
    return {universe[i] for i in idx}


def suite_mbcp(instances: int = 50, seed0: int = 0) -> Report:
    report = Report("mbcp")
    failures = 0
    worst = None
    for s in range(instances):
        rng = np.random.default_rng((seed0, 17, s))
        if s % 2 == 0:
            ensembles = [BinningEnsemble(4, 2), BinningEnsemble(4, 2)]
        else:
            ensembles = [LinearEnsemble(2, 2, 1), BinningEnsemble(4, 2)]
        universe = list(itertools.product(range(4), range(4)))
        T = _random_subset(rng, universe, int(rng.integers(4, 13)))
        Q = {w: Fraction(int(rng.integers(1, 9)), 8) for w in T}
        rep = verify_mbcp(ensembles, Q, T)
        check = rep.checks[0]
        if not check.passed:
            failures += 1
        margin = check.rhs - check.lhs * check.lhs
        if worst is None or margin < worst:
            worst = margin
    report.add("balanced-coloring bound on %d instances" % instances,
               failures == 0, lhs=failures, rhs=0,
               detail="smallest rhs^2 - lhs^2 margin: %s" % worst)
    return report


def suite_mcrp(instances: int = 50, seed0: int = 0) -> Report:
    report = Report("mcrp")
    failures = 0
    worst = None
    for s in range(instances):
        rng = np.random.default_rng((seed0, 23, s))
        if s % 2 == 0:
            ensembles = [BinningEnsemble(8, 4)]
            universe = [(w,) for w in range(8)]
        else:
            ensembles = [BinningEnsemble(4, 2), LinearEnsemble(2, 2, 1)]
            universe = list(itertools.product(range(4), range(4)))
        T = _random_subset(rng, universe, int(rng.integers(2, 9)))
        anchor = sorted(T)[int(rng.integers(0, len(T)))]
        rep = verify_mcrp(ensembles, T, anchor)
        check = rep.checks[0]
        if not check.passed:
            failures += 1
        margin = check.rhs - check.lhs
        if worst is None or margin < worst:
            worst = margin
    report.add("collision-resistance bound on %d instances" % instances,
               failures == 0, lhs=failures, rhs=0,
               detail="smallest rhs - lhs margin: %s" % worst)
    return report


def suite_examples(seeds: int = 100, seed0: int = 0) -> Report:
    return sweep_examples(seeds=seeds, seed0=seed0)


def suite_common(instances: int = 50, seed0: int = 0) -> Report:
    report = Report("common-randomness")
    build_failures = 0
    for s in range(instances):
        rng = np.random.default_rng((seed0, 31, s))
        pmf = random_double_markov(rng)
        built = construct_common(pmf)
        if not verify_construction(pmf, built).all_passed:
            build_failures += 1
    report.add("construction exact on %d double-Markov laws" % instances,
               build_failures == 0, lhs=build_failures, rhs=0)
    detect_failures = 0
    for s in range(instances):
        rng = np.random.default_rng((seed0, 37, s))
        pmf = random_violating(rng)
        if check_double_markov(pmf):
            detect_failures += 1
    report.add("violations detected on %d generic laws" % instances,
               detect_failures == 0, lhs=detect_failures, rhs=0)
    return report


def suite_decision(n: int = 2) -> Report:
    """Exact draw-from-posterior error vs the best deterministic rule."""
    report = Report("stochastic-decision")
    for name, seed in (("slepian-wolf", 3), ("wyner-ziv-binary", 5),
                       ("mdc-two-descriptions", 5)):
        scenario = build_scenario(name)
        code = scenario.make_code(n, seed=seed)
        delta = 0.01
        crng = exact_error(code, delta, scenario.default_D, rule="crng")
        mapped = exact_error(code, delta, scenario.default_D, rule="map")
        ok = crng.mismatch <= 2 * mapped.mismatch
        report.add("%s: posterior-draw error <= 2x best-rule error" % name, ok,
                   lhs=crng.mismatch, rhs=2 * mapped.mismatch,
                   detail="ratio %.4f" % (float(crng.mismatch / mapped.mismatch)
                                          if mapped.mismatch else float("nan")))
    return report
