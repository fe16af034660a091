"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and seed is pinned here.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
from scipy.stats import chisquare

from multiterm.cli import main as cli_main
from multiterm.codec import crng_law, exact_error, simulate
from multiterm.common_part import (
    check_double_markov,
    construct_common,
    random_double_markov,
    random_violating,
    verify_construction,
)
from multiterm.hashing import (
    BinningEnsemble,
    LinearEnsemble,
    compose,
    verify_hash_property,
    verify_mbcp,
    verify_mcrp,
)
from multiterm.identities import random_example_pmf, verify_example_identities
from multiterm.information import entropy
from multiterm.linineq import fme_eliminate
from multiterm.network import NetworkConfig
from multiterm.probability import Alphabet, JointPmf, dsbs
from multiterm.regions import (
    DSC_CRNG,
    DSC_IT,
    RegionSpec,
    build_system,
    polyhedra_equal,
    required_terms,
)
from multiterm.scenarios import build_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _criterion(num: int, description: str, passed: bool, elapsed: float,
               budget: float):
    status = "PASS" if (passed and elapsed < budget) else "FAIL"
    print("%s criterion %d: %s (%.2fs, budget %.0fs)"
          % (status, num, description, elapsed, budget))
    assert passed, "criterion %d failed" % num
    assert elapsed < budget, "criterion %d exceeded %.0fs budget" % (num, budget)


def test_criterion_1_fme_golden_files(tmp_path):
    t0 = time.time()
    ok = True
    for name, golden in (("example1-dsc2", "example1_dsc2.txt"),
                         ("example2-dsc3", "example2_dsc3.txt")):
        out = str(tmp_path / (name + ".txt"))
        code = cli_main(["region", name, "--definition", "dsc-crng",
                         "--eliminate-aux", "--out", out])
        expected = open(os.path.join(GOLDEN_DIR, golden)).read()
        ok = ok and code == 0 and open(out).read() == expected
    _criterion(1, "eliminated families byte-match the golden systems",
               ok, time.time() - t0, 1.0)


def _random_topologies():
    yield NetworkConfig(encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
                        codewords_to={1: (1, 2)}, reproductions={1: ()},
                        side_info={1: None})
    yield NetworkConfig(encoders=(0, 1, 2), sharing=((0,), (1,), (2,)), decoders=(1,),
                        codewords_to={1: (0, 1, 2)}, reproductions={1: ()},
                        side_info={1: None})
    yield NetworkConfig(encoders=(1, 2, 3), sharing=((1,), (2,), (3,)),
                        decoders=(1, 2),
                        codewords_to={1: (1, 2), 2: (2, 3)},
                        reproductions={1: (), 2: ()},
                        side_info={1: None, 2: None})
    yield NetworkConfig(encoders=(1, 2), sharing=((1,), (2,)), decoders=(1, 2),
                        codewords_to={1: (1,), 2: (1, 2)},
                        reproductions={1: (), 2: ()},
                        side_info={1: "Y1", 2: "Y2"})


def test_criterion_2_thm1_equivalence():
    t0 = time.time()
    checked = 0
    ok = True
    topologies = list(_random_topologies())
    for s in range(104):
        config = topologies[s % len(topologies)]
        rng = np.random.default_rng((100, s))
        binding = {t: Fraction(int(rng.integers(0, 360)), 252)
                   for t in required_terms(DSC_CRNG, config)}
        crng = build_system(RegionSpec(DSC_CRNG, config, binding))
        it = build_system(RegionSpec(DSC_IT, config, binding))
        elim = fme_eliminate(crng, [v for v in crng.vars if v.startswith("r_")])
        ok = ok and polyhedra_equal(it, elim)
        checked += 1
    _criterion(2, "information-form equals aux-eliminated form on %d instances"
               % checked, ok and checked >= 100, time.time() - t0, 60.0)


def test_criterion_3_entropy_values():
    t0 = time.time()
    bern = JointPmf([("X", Alphabet((0, 1)))], {(0,): Fraction(89, 100), (1,): Fraction(11, 100)})
    h1 = entropy(bern)
    h2 = entropy(dsbs(Fraction(11, 100)))
    ok = abs(h1 - 0.49991) <= 1e-4 and abs(h2 - 1.49991) <= 1e-4
    _criterion(3, "H(Bern(0.11)) and the doubly-symmetric sum-rate bound",
               ok, time.time() - t0, 1.0)


def test_criterion_4_example_identity_sweeps():
    t0 = time.time()
    ok = True
    for idx, example in enumerate(("berger-tung", "el-gamal-cover",
                                   "zhang-berger", "heegard-berger")):
        for s in range(100):
            rng = np.random.default_rng((200, idx, s))
            pmf = random_example_pmf(example, rng)
            report = verify_example_identities(example, pmf)
            ok = ok and report.all_passed
    _criterion(4, "100 random laws per example satisfy every identity",
               ok, time.time() - t0, 300.0)


def test_criterion_5_hash_suite():
    t0 = time.time()
    ok = True
    # exhaustive (1,0) verification for domains up to 256
    for dom in (4, 16, 64, 256):
        ok = ok and verify_hash_property(BinningEnsemble(dom, 4), 1, 0)
    for n in (2, 4, 8):
        for m in (1, 2, min(n, 4)):
            ok = ok and verify_hash_property(LinearEnsemble(2, n, m), 1, 0)
    # composition parameters and verification at the composed parameters
    f, g = BinningEnsemble(256, 4), LinearEnsemble(2, 8, 2)
    joint = compose(f, g)
    ok = ok and joint.alpha == 1 and joint.beta == 0
    ok = ok and verify_hash_property(joint, 1, 0)

    # balanced-coloring and collision-resistance bounds, 50 exhaustive each
    for s in range(50):
        rng = np.random.default_rng((300, s))
        if s % 2 == 0:
            ens = [BinningEnsemble(4, 2), BinningEnsemble(4, 2)]
        else:
            ens = [LinearEnsemble(2, 2, 1), BinningEnsemble(4, 2)]
        universe = list(itertools.product(range(4), range(4)))
        idx = rng.choice(len(universe), size=int(rng.integers(4, 13)), replace=False)
        T = {universe[i] for i in idx}
        Q = {w: Fraction(int(rng.integers(1, 9)), 8) for w in T}
        ok = ok and verify_mbcp(ens, Q, T).all_passed
    for s in range(50):
        rng = np.random.default_rng((301, s))
        if s % 2 == 0:
            ens = [BinningEnsemble(8, 4)]
            universe = [(w,) for w in range(8)]
        else:
            ens = [BinningEnsemble(4, 2), LinearEnsemble(2, 2, 1)]
            universe = list(itertools.product(range(4), range(4)))
        idx = rng.choice(len(universe), size=int(rng.integers(2, 9)), replace=False)
        T = {universe[i] for i in idx}
        anchor = sorted(T)[int(rng.integers(0, len(T)))]
        ok = ok and verify_mcrp(ens, T, anchor).all_passed
    _criterion(5, "collision property, composition, and both joint bounds",
               ok, time.time() - t0, 600.0)


def _tv_zero(law_a, law_b) -> bool:
    a = dict(law_a)
    b = dict(law_b)
    keys = set(a) | set(b)
    return all(a.get(k, Fraction(0)) == b.get(k, Fraction(0)) for k in keys)


def test_criterion_6_crng_sampler_law():
    t0 = time.time()
    ok = True

    # rational instances up to |W^n| = 4096: encoder cell laws vs the
    # restricted-renormalized formula computed independently
    wz = build_scenario("wyner-ziv-binary")
    code = wz.make_code(12, aux_rates={1: 1.0 / 6.0}, seed=2)
    x_block = tuple((l * 7) % 2 for l in range(12))
    ch = wz.channels[(1,)]
    direct = {}
    for bits in itertools.product((0, 1), repeat=12):
        p = Fraction(1)
        for b, x in zip(bits, x_block):
            p *= ch.rows[(x,)][(b,)]
        if code.f[1](code.block_to_int(1, bits)) == code.c[1]:
            direct[bits] = p
    total = sum(direct.values())
    direct = {k: p / total for k, p in direct.items()}
    items, total = code.cell_constrained_law((1,), x_block)
    law = {blocks[1]: Fraction(w, total) for blocks, w in items}
    ok = ok and _tv_zero(direct.items(), law.items())

    # decoder class law on the two-source lossless pair at n = 4 (4^4 states)
    sw = build_scenario("slepian-wolf")
    sw_code = sw.make_code(4, seed=3)
    x1, x2 = (0, 1, 1, 0), (0, 1, 0, 0)
    m = {}
    for cell, blk in (((1,), x1), ((2,), x2)):
        _, mm = sw_code.encode(cell, blk, seed=0)
        m.update(mm)
    base = dsbs(Fraction(11, 100))
    direct = {}
    for w1 in itertools.product((0, 1), repeat=4):
        for w2 in itertools.product((0, 1), repeat=4):
            p = Fraction(1)
            for a, b in zip(w1, w2):
                p *= base.prob((a, b))
            if (sw_code.g[1](sw_code.block_to_int(1, w1)) == m[1]
                    and sw_code.g[2](sw_code.block_to_int(2, w2)) == m[2]):
                direct[(w1, w2)] = p
    total = sum(direct.values())
    direct = {k: p / total for k, p in direct.items()}
    items, total = sw_code.decoder_class_law(1, m, None)
    law = {(blocks[1], blocks[2]): Fraction(w, total) for blocks, w in items}
    ok = ok and _tv_zero(direct.items(), law.items())

    # shared-source cell at n = 6 (4^6 = 4096 joint states)
    mdc = build_scenario("mdc-two-descriptions")
    mdc_code = mdc.make_code(6, aux_rates={1: 1.0 / 6.0, 2: 0.0}, seed=4)
    x_block = (0, 1, 1, 0, 1, 0)
    items, law_total = mdc_code.cell_constrained_law((1, 2), x_block)
    ch = mdc.channels[(1, 2)]
    direct = {}
    for w1 in itertools.product((0, 1), repeat=6):
        for w2 in itertools.product((0, 1), repeat=6):
            p = Fraction(1)
            for a, b, x in zip(w1, w2, x_block):
                p *= ch.rows[(x,)][(a, b)]
            if (mdc_code.f[1](mdc_code.block_to_int(1, w1)) == mdc_code.c[1]
                    and mdc_code.f[2](mdc_code.block_to_int(2, w2)) == mdc_code.c[2]):
                direct[(w1, w2)] = p
    total = sum(direct.values())
    direct = {k: p / total for k, p in direct.items()}
    got = {(blocks[1], blocks[2]): Fraction(w, law_total) for blocks, w in items}
    ok = ok and _tv_zero(direct.items(), got.items())

    # Monte Carlo goodness of fit on three float-weighted instances
    rng_root = np.random.SeedSequence(77)
    for inst, child in enumerate(rng_root.spawn(3)):
        rng = np.random.default_rng(child)
        weights = rng.uniform(0.1, 1.0, size=16)
        base = [(w, weights[w] / weights.sum()) for w in range(16)]
        law = crng_law(base, lambda w: w % 3 != 0)
        probs = np.array([p for _, p in law])
        probs /= probs.sum()
        draws = rng.choice(len(law), size=100_000, p=probs)
        observed = np.bincount(draws, minlength=len(law))
        ok = ok and chisquare(observed, probs * 100_000).pvalue > 0.001
    _criterion(6, "sampler law exact at desk scale; Monte Carlo fits",
               ok, time.time() - t0, 120.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    ok = True
    for name, seed in (("slepian-wolf", 3), ("wyner-ziv-binary", 5),
                       ("mdc-two-descriptions", 5)):
        scenario = build_scenario(name)
        delta = 0.5 if name == "slepian-wolf" else 0.01
        for n in (2, 4):
            code = scenario.make_code(n, seed=seed)
            exact = exact_error(code, delta, scenario.default_D)
            report = simulate(code, delta, scenario.default_D, trials=3000, seed=11)
            p = float(exact.mismatch)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / report.trials)
            ok = ok and abs(report.mismatch_freq - p) <= 3 * sigma + 1e-9
            for k in scenario.config.reproduction_ids:
                pk = float(exact.exceed[k])
                sigma_k = math.sqrt(max(pk * (1 - pk), 1e-12) / report.trials)
                ok = ok and abs(report.exceed_freq(k) - pk) <= 3 * sigma_k + 1e-9
            mapped = exact_error(code, delta, scenario.default_D, rule="map")
            ok = ok and exact.mismatch <= 2 * mapped.mismatch
    _criterion(7, "Monte Carlo within 3 sigma of the exact oracle; "
               "posterior draw at most twice the best rule",
               ok, time.time() - t0, 600.0)


def test_criterion_8_achievability_trend():
    t0 = time.time()
    scenario = build_scenario("slepian-wolf")
    inside, outside = [], []
    for n in (2, 4, 6, 8):
        code_in = scenario.make_code(n, rates={1: 1.0, 2: 0.75}, seed=17)
        inside.append(exact_error(code_in, 0.5, scenario.default_D).mismatch)
        code_out = scenario.make_code(n, rates={1: 1.0, 2: 0.30}, seed=17)
        outside.append(exact_error(code_out, 0.5, scenario.default_D).mismatch)
    decreasing = all(b < a for a, b in zip(inside, inside[1:]))
    gaps_ok = all(o - i >= Fraction(1, 10) for i, o in zip(inside, outside))
    _criterion(8, "inside-region error strictly decreasing over n in {2,4,6,8}; "
               "outside-region error larger by >= 0.1 at every n",
               decreasing and gaps_ok, time.time() - t0, 900.0)


def test_criterion_9_common_randomness():
    t0 = time.time()
    ok = True
    for s in range(50):
        rng = np.random.default_rng((400, s))
        pmf = random_double_markov(rng)
        built = construct_common(pmf)
        ok = ok and verify_construction(pmf, built).all_passed
    for s in range(50):
        rng = np.random.default_rng((401, s))
        ok = ok and not check_double_markov(random_violating(rng))
    _criterion(9, "50 exact constructions and 50 detected violations",
               ok, time.time() - t0, 60.0)


def test_criterion_10_deterministic_outputs(tmp_path):
    t0 = time.time()
    args = ["simulate", "slepian-wolf", "--n", "2,4", "--trials", "500",
            "--seed", "123"]
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / ("run_%s.csv" % tag))
        assert cli_main(args + ["--out", out]) == 0
        outs.append(open(out).read())
    region_outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / ("region_%s.txt" % tag))
        assert cli_main(["region", "example2-dsc3", "--definition", "dsc-crng",
                         "--eliminate-aux", "--out", out]) == 0
        region_outs.append(open(out).read())
    ok = outs[0] == outs[1] and region_outs[0] == region_outs[1]
    _criterion(10, "repeated runs with one seed are byte-identical",
               ok, time.time() - t0, 60.0)
