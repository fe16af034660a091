"""Seeded inputs and operations for the three benchmark workloads.

A workload's plan is a list of :class:`Op` built from the workload seed.
Each op calls `multiterm`'s public functions on generated inputs, returns a
canonical output (strings, numbers, booleans) so that two runs can be
compared, and carries a check that says whether the output is right.

The names of the functions an op calls are looked up on their modules at
call time (``regions.remove_redundant``, not a name bound at import), so the
tracing wrappers installed by ``tracing.py`` see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import multiterm.cli
from multiterm import codec, hashing, linineq, regions
from multiterm.network import NetworkConfig, bsc_channel, build_joint, ConditionalPmf
from multiterm.probability import Alphabet, JointPmf
from multiterm.scenarios import build_scenario

from definitions import DEFAULT_SEED, WORKLOADS


# Monte Carlo frequencies must lie within Z_SIGMA standard deviations of the
# recorded exact value of the same code.
Z_SIGMA = 4.0

_BIT = Alphabet((0, 1))
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(_ROOT, "tests", "golden")

# (scenario, definition flag, golden file): the four committed fixtures.
GOLDEN = (
    ("example1-dsc2", "dsc-crng", "example1_dsc2.txt"),
    ("example2-dsc3", "dsc-crng", "example2_dsc3.txt"),
    ("example3-mdc2", "mdc-crng", "example3_mdc2.txt"),
    ("example5-dsi2", "dsc-crng", "example5_dsi2.txt"),
)

# Class counts are set so that the median and the ninth decile of op latency
# fall inside a group of ops of like cost, not on the jump between two groups;
# otherwise a small change in one op's cost moves a percentile by a factor.

# region-algebra: (family, encoders, systems per plan)
REGION_FAMILIES = (
    ("side-info", 2, 1),
    ("mdc", 2, 3),
    ("multi-decoder", 3, 2),
    ("dsc-k3", 3, 4),
    ("dsc-k4", 4, 3),
)

# codec-montecarlo: (scenario, n, trials per op, ops per code)
MC_CODES = (
    ("slepian-wolf", 6, 4, 10),
    ("wyner-ziv-binary", 8, 16, 10),
    ("mdc-two-descriptions", 5, 10, 8),
    ("berger-tung-binary", 5, 10, 8),
    ("heegard-berger-two-decoders", 5, 20, 8),
)

# exact-oracle: (scenario, n, codes per plan); each code gets a crng and a map op.
# Of the cheap codes, heegard-berger at n = 2 varies least with its hash draw
# (about 15 %, against up to 3x for berger-tung at n = 2 and mdc at n = 3),
# so it is the largest group and carries the median.
EXACT_CODES = (
    ("slepian-wolf", 6, 2),
    ("wyner-ziv-binary", 4, 3),
    ("heegard-berger-two-decoders", 3, 2),
    ("heegard-berger-two-decoders", 2, 8),
    ("berger-tung-binary", 2, 2),
    ("mdc-two-descriptions", 3, 1),
)

# exhaustive bound checks on small pairs of ensembles, per plan
BOUND_PAIRS = 2


@dataclass
class Op:
    """One closed-loop operation: `run` returns an output, `check` judges it.

    `check` returns None when the output is right, else the reason it is not.
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    inputs: str = ""
    last_output: object = None


def subseed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and integer tags."""
    return int(np.random.SeedSequence((int(seed),) + tags).generate_state(1)[0])


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tags))


def build_plan(workload: str, seed: int, reference: Optional[dict] = None) -> list:
    """The op list of one pass of `workload` at `seed`.

    `reference` holds values recorded at :data:`DEFAULT_SEED`; checks that
    need a stored value run only when `seed` is that seed, and fail when the
    value is missing.  Pass None to build a plan with no stored checks, as
    ``record_reference.py`` does.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))
    stored = None
    if reference is not None and seed == DEFAULT_SEED:
        stored = reference.get(workload, {})
    plan_for = {"region-algebra": region_plan, "codec-montecarlo": montecarlo_plan,
                "exact-oracle": exact_plan}[workload]
    return plan_for(seed, stored)


# A stored value the default seed's checks need but reference.json lacks.
MISSING = {"missing": True}


def stored_value(stored: Optional[dict], name: str):
    """The recorded value for `name`, None off the default seed, else MISSING."""
    if stored is None:
        return None
    return stored.get(name, MISSING)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- region-algebra ------------------------------------------------------------------


def _random_source(rng, names) -> JointPmf:
    keys = list(itertools.product((0, 1), repeat=len(names)))
    weights = [int(w) for w in rng.integers(1, 20, size=len(keys))]
    total = sum(weights)
    return JointPmf([(name, _BIT) for name in names],
                    {key: Fraction(w, total) for key, w in zip(keys, weights)})


def _bsc_channels(rng, encoders) -> dict:
    return {(i,): bsc_channel("X%s" % i, "W%s" % i, Fraction(int(rng.integers(1, 20)), 50))
            for i in encoders}


def region_instance(family: str, k: int, rng):
    """(crng definition, config, joint) of one generated system.

    Entropies come from a random rational source through random channels,
    exactly as `region` binds them, so every system is a real region.
    """
    if family.startswith("dsc-k"):
        enc = tuple(range(1, k + 1))
        config = NetworkConfig(encoders=enc, sharing=tuple((i,) for i in enc), decoders=(1,),
                               codewords_to={1: enc}, reproductions={1: ()},
                               side_info={1: None})
        source = _random_source(rng, ["X%d" % i for i in enc])
        return regions.DSC_CRNG, config, build_joint(config, source, _bsc_channels(rng, enc))
    if family == "multi-decoder":
        config = NetworkConfig(encoders=(1, 2, 3), sharing=((1,), (2,), (3,)), decoders=(1, 2),
                               codewords_to={1: (1, 2), 2: (2, 3)},
                               reproductions={1: (), 2: ()}, side_info={1: None, 2: None})
        source = _random_source(rng, ["X1", "X2", "X3"])
        return regions.DSC_CRNG, config, build_joint(
            config, source, _bsc_channels(rng, (1, 2, 3)))
    if family == "side-info":
        config = NetworkConfig(encoders=(1, 2), sharing=((1,), (2,)), decoders=(1, 2),
                               codewords_to={1: (1,), 2: (1, 2)},
                               reproductions={1: (), 2: ()}, side_info={1: "Y1", 2: "Y2"})
        source = _random_source(rng, ["X1", "X2", "Y1", "Y2"])
        return regions.DSC_CRNG, config, build_joint(
            config, source, _bsc_channels(rng, (1, 2)))
    if family == "mdc":
        config = NetworkConfig(encoders=(1, 2), sharing=((1, 2),), decoders=(1, 2, 12),
                               codewords_to={1: (1,), 2: (2,), 12: (1, 2)},
                               reproductions={1: (), 2: (), 12: ()},
                               side_info={1: None, 2: None, 12: None})
        source = _random_source(rng, ["X12"])
        rows = {}
        for x in (0, 1):
            weights = [int(w) for w in rng.integers(1, 20, size=4)]
            rows[(x,)] = {out: Fraction(w, sum(weights)) for out, w in
                          zip(itertools.product((0, 1), repeat=2), weights)}
        channel = ConditionalPmf([("X12", _BIT)], [("W1", _BIT), ("W2", _BIT)], rows)
        return regions.MDC_CRNG, config, build_joint(config, source, {(1, 2): channel})
    raise ValueError("unknown region family %r" % (family,))


def probe_k5_binding() -> tuple:
    """The five-encoder probe: criterion 2's topology widened, its binding fixed.

    A real-entropy binding at k = 5 keeps all 31 rows and costs 4-7 s per
    redundancy removal, beyond one pass.  Criterion 2's integer binding keeps
    5-9 rows at 1-3 s, and that cost swings with the binding; the binding is
    therefore fixed (not drawn from the workload seed) so the heaviest op
    weighs the same in every run.
    """
    enc = (1, 2, 3, 4, 5)
    config = NetworkConfig(encoders=enc, sharing=tuple((i,) for i in enc), decoders=(1,),
                           codewords_to={1: enc}, reproductions={1: ()}, side_info={1: None})
    rng = np.random.default_rng((100, 5))
    terms = sorted(regions.required_terms(regions.DSC_CRNG, config), key=lambda t: t.render())
    return config, {t: Fraction(int(rng.integers(0, 360)), 252) for t in terms}


def eliminate(spec: regions.RegionSpec) -> str:
    """What `region --eliminate-aux` does after binding."""
    system = regions.build_system(spec)
    aux = [v for v in system.vars if v.startswith("r_")]
    if aux:
        system = linineq.fme_eliminate(system, aux)
    return regions.remove_redundant(system).render()


def _golden_text(name: str, flag: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = multiterm.cli.main(["region", name, "--definition", flag, "--eliminate-aux"])
    if status != 0:
        raise RuntimeError("region %s exited with %d" % (name, status))
    return out.getvalue()


def _check_render(expected_digest, only_rates: bool):
    def check(text):
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# vars:"):
            return "render has no variable header"
        if only_rates and any(not v.startswith("R_") for v in lines[0].split()[2:]):
            return "auxiliary rates left after elimination"
        if "# infeasible" in lines:
            return "eliminated system is infeasible"
        if expected_digest is MISSING:
            return "no value recorded for this op at the default seed"
        if expected_digest is not None and digest(text) != expected_digest:
            return "render differs from the recorded reference"
        return None
    return check


def _check_true(value):
    return None if value is True else "query returned %r" % (value,)


def region_plan(seed: int, stored: Optional[dict]) -> list:
    ops = []
    for name, flag, filename in GOLDEN:
        with open(os.path.join(GOLDEN_DIR, filename)) as handle:
            expected = handle.read()
        ops.append(Op("golden:%s" % name, "golden",
                      lambda name=name, flag=flag: _golden_text(name, flag),
                      lambda text, expected=expected:
                      None if text == expected else "differs from the golden file",
                      inputs="%s %s" % (name, flag)))

    systems = []
    for fam_idx, (family, k, count) in enumerate(REGION_FAMILIES):
        for s in range(count):
            which, config, joint = region_instance(family, k, rng_for(seed, 1, fam_idx, s))
            crng = regions.RegionSpec(which, config, dict(
                regions.binding_from_pmf(which, config, joint).values))
            it = None
            if which == regions.DSC_CRNG:
                it = regions.RegionSpec(regions.DSC_IT, config, dict(
                    regions.binding_from_pmf(regions.DSC_IT, config, joint).values))
            systems.append(("%s#%d" % (family, s), crng, it))
    config, binding = probe_k5_binding()
    systems.append(("dsc-k5-probe", regions.RegionSpec(regions.DSC_CRNG, config, binding),
                    None))

    for label, crng, it in systems:
        name = "eliminate:%s" % label
        expected = stored_value(stored, name)
        ops.append(Op(name, "eliminate", lambda crng=crng: eliminate(crng),
                      _check_render(expected, only_rates=True), inputs=spec_inputs(crng)))
        if it is not None:
            ops.append(Op("query:%s" % label, "query",
                          lambda it=it, prev=ops[-1]: _query(it, prev), _check_true,
                          inputs=spec_inputs(it)))
    return ops


def spec_inputs(spec: regions.RegionSpec) -> str:
    return repr((spec.which, sorted((t.render(), str(v)) for t, v in spec.entropies.items())))


def _query(it_spec, eliminate_op):
    """polyhedra_equal of the information form and the eliminated system.

    The eliminated system is the eliminate op's output from this pass.
    """
    text = eliminate_op.last_output
    return regions.polyhedra_equal(regions.build_system(it_spec),
                                   linineq.LinIneqSystem.parse(text))


# -- codec-montecarlo -------------------------------------------------------------------


def default_delta(scenario) -> float:
    """The `simulate` command's default slack: 1 % of the largest bound."""
    return 0.01 * max(d.bound for d in scenario.config.distortions.values())


def sim_output(report) -> dict:
    return {
        "trials": report.trials,
        "mismatch": report.mismatch_count,
        "exceed": {str(k): v for k, v in sorted(report.exceed_counts.items())},
        "encoder_aborts": report.encoder_abort_count,
        "decoder_aborts": report.decoder_abort_count,
        "distortion_sums": {str(k): repr(v) for k, v in sorted(report.distortion_sums.items())},
    }


def _check_sim(batch: int):
    def check(out):
        counts = [out["mismatch"], out["encoder_aborts"], out["decoder_aborts"]]
        counts += list(out["exceed"].values())
        if out["trials"] != batch:
            return "ran %d trials, asked for %d" % (out["trials"], batch)
        if any(c < 0 or c > batch for c in counts):
            return "a count lies outside [0, trials]"
        if out["encoder_aborts"] + out["decoder_aborts"] > batch:
            return "more aborts than trials"
        if out["encoder_aborts"] > out["mismatch"]:
            return "an encoder abort was not counted as a mismatch"
        return None
    return check


def within_sigma(count: int, trials: int, exact: Fraction) -> bool:
    p = float(exact)
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return abs(count / trials - p) <= Z_SIGMA * sigma + 1e-9


def _check_pooled(batch: int, batch_ops: list, exact: Optional[dict], inputs: str):
    """Per-op check plus, on the code's last op, the pooled z-sigma test."""
    per_op = _check_sim(batch)

    def check(out):
        reason = per_op(out)
        if reason is not None or exact is None:
            return reason
        if exact is MISSING:
            return "no exact value recorded for this code at the default seed"
        if exact["inputs"] != digest(inputs):
            return "the recorded exact value belongs to another code"
        outs = [op.last_output for op in batch_ops]
        trials = sum(o["trials"] for o in outs)
        if not within_sigma(sum(o["mismatch"] for o in outs), trials,
                            Fraction(exact["mismatch"])):
            return "mismatch frequency outside %g sigma of the exact value" % Z_SIGMA
        for k, value in exact["exceed"].items():
            if not within_sigma(sum(o["exceed"][k] for o in outs), trials, Fraction(value)):
                return "exceed frequency %s outside %g sigma of the exact value" % (k, Z_SIGMA)
        return None
    return check


def code_inputs(code) -> str:
    """The realized hash functions and constraint values of a code."""
    return repr((code.n, [(i, code.f[i], code.g[i], code.c[i]) for i in code.config.encoders]))


def montecarlo_codes(seed: int) -> list:
    """(label, scenario, code) per Monte Carlo code; fresh caches each call."""
    out = []
    for idx, (name, n, _, _) in enumerate(MC_CODES):
        scenario = build_scenario(name)
        code = scenario.make_code(n, seed=subseed(seed, 2, idx))
        out.append(("%s-n%d" % (name, n), scenario, code))
    return out


def montecarlo_plan(seed: int, stored: Optional[dict]) -> list:
    ops = []
    for idx, ((label, scenario, code), (_, _, batch, count)) in enumerate(
            zip(montecarlo_codes(seed), MC_CODES)):
        delta = default_delta(scenario)
        exact = stored_value(stored, label)
        code_ops = []
        for b in range(count):
            run = (lambda code=code, scenario=scenario, delta=delta, batch=batch,
                   trial_seed=subseed(seed, 3, idx, b):
                   sim_output(codec.simulate(code, delta, scenario.default_D,
                                             trials=batch, seed=trial_seed)))
            check = _check_pooled(batch, code_ops, exact, code_inputs(code)) \
                if b == count - 1 else _check_sim(batch)
            code_ops.append(Op("simulate:%s#%d" % (label, b), "simulate", run, check,
                               inputs=code_inputs(code)))
        ops.extend(code_ops)
    return ops


# -- exact-oracle -----------------------------------------------------------------------


def exact_output(result) -> dict:
    return {
        "mismatch": str(result.mismatch),
        "exceed": {str(k): str(v) for k, v in sorted(result.exceed.items())},
        "encoder_abort": str(result.encoder_abort),
    }


def _check_exact(expected: Optional[dict], crng_op: Optional[Op]):
    def check(out):
        values = [Fraction(out["mismatch"]), Fraction(out["encoder_abort"])]
        values += [Fraction(v) for v in out["exceed"].values()]
        if any(v < 0 or v > 1 for v in values):
            return "an error probability lies outside [0, 1]"
        if expected is MISSING:
            return "no value recorded for this op at the default seed"
        if expected is not None:
            if Fraction(out["mismatch"]) != Fraction(expected["mismatch"]) or any(
                    Fraction(out["exceed"][k]) != Fraction(v)
                    for k, v in expected["exceed"].items()) or Fraction(
                    out["encoder_abort"]) != Fraction(expected["encoder_abort"]):
                return "differs from the recorded exact value"
        if crng_op is not None:
            crng = Fraction(crng_op.last_output["mismatch"])
            if crng > 2 * Fraction(out["mismatch"]):
                return "posterior-draw mismatch exceeds twice the MAP mismatch"
        return None
    return check


def _report_output(report) -> dict:
    return {"passed": report.all_passed,
            "checks": [[c.name, str(c.lhs), str(c.rhs)] for c in report.checks]}


def _check_passed(out):
    return None if out["passed"] is True else "bound check failed"


def _bound_ops(seed: int) -> list:
    """Exhaustive joint-bound and collision-property checks on seeded sets."""
    ops = []
    rng = rng_for(seed, 5)
    points = sorted(int(w) for w in rng.choice(8, size=5, replace=False))
    T = {(w,) for w in points}
    anchor = (points[int(rng.integers(0, len(points)))],)
    ops.append(Op("verify_mcrp:binning-8-4", "bound",
                  lambda: _report_output(hashing.verify_mcrp(
                      [hashing.BinningEnsemble(8, 4)], T, anchor)), _check_passed,
                  inputs=repr((sorted(T), anchor))))
    universe = list(itertools.product(range(4), range(4)))
    for s in range(BOUND_PAIRS):
        rng = rng_for(seed, 6, s)
        idx = rng.choice(len(universe), size=6, replace=False)
        T2 = {universe[i] for i in idx}
        anchor2 = sorted(T2)[int(rng.integers(0, len(T2)))]
        ens = [hashing.BinningEnsemble(4, 2), hashing.LinearEnsemble(2, 2, 1)]
        ops.append(Op("verify_mcrp:pair#%d" % s, "bound",
                      lambda ens=ens, T2=T2, anchor2=anchor2: _report_output(
                          hashing.verify_mcrp(ens, T2, anchor2)), _check_passed,
                      inputs=repr((sorted(T2), anchor2))))
    for s in range(BOUND_PAIRS):
        rng = rng_for(seed, 7, s)
        idx = rng.choice(len(universe), size=8, replace=False)
        T3 = {universe[i] for i in idx}
        Q = {w: Fraction(int(rng.integers(1, 9)), 8) for w in T3}
        ens = [hashing.BinningEnsemble(4, 2), hashing.BinningEnsemble(4, 2)] if s % 2 == 0 \
            else [hashing.LinearEnsemble(2, 2, 1), hashing.BinningEnsemble(4, 2)]
        ops.append(Op("verify_mbcp:pair#%d" % s, "bound",
                      lambda ens=ens, Q=Q, T3=T3: _report_output(
                          hashing.verify_mbcp(ens, Q, T3)), _check_passed,
                      inputs=repr(sorted(Q.items()))))
    for label, ens in (("binning-256-4", hashing.BinningEnsemble(256, 4)),
                       ("linear-8-4", hashing.LinearEnsemble(2, 8, 4)),
                       ("compose", hashing.compose(hashing.BinningEnsemble(256, 4),
                                                   hashing.LinearEnsemble(2, 8, 2)))):
        ops.append(Op("verify_hash_property:%s" % label, "bound",
                      lambda ens=ens: {"passed": hashing.verify_hash_property(ens, 1, 0)},
                      _check_passed, inputs=ens.describe()))
    return ops


def exact_plan(seed: int, stored: Optional[dict]) -> list:
    ops = []
    for idx, (name, n, count) in enumerate(EXACT_CODES):
        scenario = build_scenario(name)
        delta = default_delta(scenario)
        for c in range(count):
            code = scenario.make_code(n, seed=subseed(seed, 4, idx, c))
            label = "%s-n%d#%d" % (name, n, c)
            crng_op = None
            for rule in ("crng", "map"):
                op_name = "exact_error:%s:%s" % (label, rule)
                expected = stored_value(stored, op_name)
                op = Op(op_name, "exact",
                        lambda code=code, scenario=scenario, delta=delta, rule=rule:
                        exact_output(codec.exact_error(code, delta, scenario.default_D,
                                                       rule=rule)),
                        _check_exact(expected, crng_op), inputs=code_inputs(code))
                ops.append(op)
                crng_op = op
    return ops + _bound_ops(seed)
