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
from .identities import EXAMPLES, random_example_pmf, verify_example_identities
from .information import cond_entropy, kl_divergence, verify_spectral_lemmas
from .probability import Alphabet, JointPmf, random_pmf
from .reports import Report
from .scenarios import build_scenario

# suites of fixed instances (any draw uses a built-in seed): no sweep size or seed
UNSEEDED = ("hash", "decision")


def _sweep(report: Report, name: str, count: int, seed_of, instance, margin=None) -> None:
    """Add the line `name` to `report`: how many of `count` seeded instances fail.

    Instance s is `instance(s, np.random.default_rng(seed_of(s)))`, which
    returns whether it passed.  With `margin`, a pair (form, value), it
    returns its lemma-bound check instead, and the line's detail names the
    smallest `value(check)`, a margin of the given form.
    """
    results = [instance(s, np.random.default_rng(seed_of(s))) for s in range(count)]
    detail = ""
    if margin is not None:
        form, value = margin
        detail = "smallest %s margin: %s" % (form, min(map(value, results), default=None))
        results = [check.passed for check in results]
    failures = sum(not passed for passed in results)
    report.add(name, failures == 0, lhs=failures, rhs=0, detail=detail)


def suite_spectral(seeds: int = 50, seed0: int = 0) -> Report:
    report = Report("spectral")
    b2, b3 = Alphabet((0, 1)), Alphabet((0, 1, 2))
    _sweep(report, "single-letter identities on %d random laws" % seeds, seeds,
           lambda s: (seed0, s), lambda s, rng: verify_spectral_lemmas(
               random_pmf(rng, [("U", b2), ("V", b3), ("V2", b2)])).all_passed)

    # deterministic U = g(V) has H(U|V) = 0
    det = JointPmf([("U", b2), ("V", b3)],
                   {(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 3), (0, 2): Fraction(1, 3)})
    h = cond_entropy(det, ["U"], ["V"])
    report.add("H(U|V)=0 for deterministic U", abs(h) <= 1e-12, lhs=h, rhs=0.0)

    # divergence surrogate nonnegative on same-support pairs
    def nonnegative(s, rng):
        mu = random_pmf(rng, [("U", b3)])
        nu = random_pmf(rng, [("U", b3)])
        return not kl_divergence(mu, nu) < -1e-12
    _sweep(report, "E[log mu/nu] >= 0 on %d pairs" % seeds, seeds,
           lambda s: (seed0, 1000 + s), nonnegative)
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
    universe = list(itertools.product(range(4), range(4)))

    def instance(s, rng):
        first = BinningEnsemble(4, 2) if s % 2 == 0 else LinearEnsemble(2, 2, 1)
        T = _random_subset(rng, universe, int(rng.integers(4, 13)))
        Q = {w: Fraction(int(rng.integers(1, 9)), 8) for w in T}
        return verify_mbcp([first, BinningEnsemble(4, 2)], Q, T).checks[0]
    report = Report("mbcp")
    _sweep(report, "balanced-coloring bound on %d instances" % instances, instances,
           lambda s: (seed0, 17, s), instance,
           margin=("rhs^2 - lhs^2", lambda c: c.rhs - c.lhs * c.lhs))
    return report


def suite_mcrp(instances: int = 50, seed0: int = 0) -> Report:
    def instance(s, rng):
        if s % 2 == 0:
            ensembles = [BinningEnsemble(8, 4)]
            universe = [(w,) for w in range(8)]
        else:
            ensembles = [BinningEnsemble(4, 2), LinearEnsemble(2, 2, 1)]
            universe = list(itertools.product(range(4), range(4)))
        T = _random_subset(rng, universe, int(rng.integers(2, 9)))
        anchor = sorted(T)[int(rng.integers(0, len(T)))]
        return verify_mcrp(ensembles, T, anchor).checks[0]
    report = Report("mcrp")
    _sweep(report, "collision-resistance bound on %d instances" % instances, instances,
           lambda s: (seed0, 23, s), instance, margin=("rhs - lhs", lambda c: c.rhs - c.lhs))
    return report


def suite_examples(seeds: int = 50, seed0: int = 0) -> Report:
    """Identity sweep across all four examples with fresh random laws."""
    report = Report("example-identities")
    for idx, example in enumerate(EXAMPLES):
        _sweep(report, "%s sweep (%d laws)" % (example, seeds), seeds,
               lambda s: (seed0, idx, s), lambda s, rng: verify_example_identities(
                   example, random_example_pmf(example, rng)).all_passed)
    return report


def suite_common(instances: int = 50, seed0: int = 0) -> Report:
    report = Report("common-randomness")

    def built(s, rng):
        pmf = random_double_markov(rng)
        return verify_construction(pmf, construct_common(pmf)).all_passed
    _sweep(report, "construction exact on %d double-Markov laws" % instances, instances,
           lambda s: (seed0, 31, s), built)
    _sweep(report, "violations detected on %d generic laws" % instances, instances,
           lambda s: (seed0, 37, s), lambda s, rng: not check_double_markov(random_violating(rng)))
    return report


def suite_decision() -> Report:
    """Exact draw-from-posterior error vs the best deterministic rule."""
    report = Report("stochastic-decision")
    for name, seed in (("slepian-wolf", 3), ("wyner-ziv-binary", 5),
                       ("mdc-two-descriptions", 5)):
        scenario = build_scenario(name)
        code = scenario.make_code(2, seed=seed)
        delta = 0.01
        crng = exact_error(code, delta, scenario.default_D, rule="crng")
        mapped = exact_error(code, delta, scenario.default_D, rule="map")
        ok = crng.mismatch <= 2 * mapped.mismatch
        report.add("%s: posterior-draw error <= 2x best-rule error" % name, ok,
                   lhs=crng.mismatch, rhs=2 * mapped.mismatch,
                   detail="ratio %.4f" % (float(crng.mismatch / mapped.mismatch)
                                          if mapped.mismatch else float("nan")))
    return report


# every suite by name, in the order `verify --suite` lists them
SUITES = {"spectral": suite_spectral, "hash": suite_hash, "mbcp": suite_mbcp,
          "mcrp": suite_mcrp, "examples": suite_examples, "common": suite_common,
          "decision": suite_decision}


def run_suite(name: str, seeds: int = 50, seed0: int = 0) -> Report:
    if name not in SUITES:
        raise ConfigurationError("unknown suite %r (known: %s)" % (name, ", ".join(SUITES)))
    return SUITES[name]() if name in UNSEEDED else SUITES[name](seeds, seed0)
