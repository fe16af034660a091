"""Batch front-end: region computation, simulation, lemma verification.

Exit codes: 0 success, 2 configuration error, 3 enumeration budget exceeded,
4 verification failure.  The environment variable MULTITERM_SEED overrides
any seed from scenario files or flags.  Outputs are append-only; every run
also appends one JSON line to `<out>.manifest.jsonl` recording the package
version, resolved seed, and a hash of the scenario content.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .codec import exact_error, simulate
from .errors import BudgetExceededError, ConfigurationError
from .linineq import fme_eliminate
from .network import build_joint
from .regions import (
    DEFINITIONS,
    PRECISION_BITS,
    RegionSpec,
    binding_from_pmf,
    build_system,
    remove_redundant,
)
from .scenarios import build_scenario, load_scenario, positive_int, scenario_names, seed_value
from .suites import SUITES, UNSEEDED, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _resolved_seed(cli_seed) -> int:
    """MULTITERM_SEED when set, else `cli_seed`, as a non-negative int."""
    env = os.environ.get("MULTITERM_SEED")
    where, value = ("MULTITERM_SEED", env) if env is not None else ("--seed", cli_seed)
    try:
        return seed_value(value)
    except ValueError as exc:
        raise ConfigurationError("%s: %s" % (where, exc)) from None


def _scenario_hash(scenario) -> str:
    """Hash of every scenario field that shapes a run (all but the description),
    through value reprs only: no repr of a plain object, which shows an address."""
    channels = {cell: (ch.inputs, ch.outputs, ch.rows) for cell, ch in scenario.channels.items()}
    blob = repr((scenario.name, scenario.source.variables, sorted(scenario.source.items()),
                 scenario.config, channels, scenario.reproducers, scenario.code_kinds,
                 scenario.q, scenario.default_rates, scenario.default_aux_rates,
                 scenario.default_D, scenario.run_defaults)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out_path, payload: dict):
    if not out_path:
        return
    payload = dict(payload, version=__version__)
    with open(out_path + ".manifest.jsonl", "a") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit(out_path, text: str):
    if out_path:
        with open(out_path, "a") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _decimal_string(value: Fraction) -> str:
    """Exact decimal expansion when the denominator allows one, else p/q."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return str(value)
    shift = max(twos, fives)
    scaled = value.numerator * 10 ** shift // value.denominator
    text = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if value < 0 else ""
    if shift == 0:
        return sign + text
    return "%s%s.%s" % (sign, text[:-shift], text[-shift:])


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int-to-str digit limit inside the block only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# -- region ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    scenario = load_scenario(args.scenario)
    joint = build_joint(scenario.config, scenario.source, scenario.channels)
    binding = binding_from_pmf(args.definition, scenario.config, joint,
                               precision_bits=args.precision_bits)
    spec = RegionSpec(args.definition, scenario.config, binding.values, raw=binding.raw)
    system = build_system(spec)
    if args.eliminate_aux:
        aux = [v for v in system.vars if v.startswith("r_")]
        if aux:
            system = fme_eliminate(system, aux)
        system = remove_redundant(system)
    _emit(args.out, system.render())
    if args.out:
        sidecar = {
            "scenario": scenario.name,
            "definition": args.definition,
            "precision_bits": args.precision_bits,
            "rounding": "floor",
            "entropies": {term.render(): str(value) for term, value in binding.values.items()},
        }
        with open(args.out + ".binding.json", "a") as handle:
            handle.write(json.dumps(sidecar, sort_keys=True) + "\n")
    _write_manifest(args.out, {
        "command": "region", "scenario": scenario.name,
        "definition": args.definition, "precision_bits": args.precision_bits,
        "eliminate_aux": args.eliminate_aux, "config_hash": _scenario_hash(scenario)})
    return EXIT_OK


# -- simulate -------------------------------------------------------------------------


def _csv_header(scenario, ks) -> str:
    cols = ["scenario", "n"]
    cols += ["R_%s" % i for i in scenario.config.encoders]
    cols += ["r_%s" % i for i in scenario.config.encoders]
    cols += ["delta", "trials", "mismatch_freq"]
    cols += ["exceed_freq_%s" % k for k in ks]
    cols += ["ci_low", "ci_high", "seed", "enc_abort_freq", "dec_abort_freq"]
    return ",".join(cols)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    run = scenario.run_defaults
    seed = _resolved_seed(args.seed if args.seed is not None else run.get("seed", 0))
    ns = ([positive_int(v, "--n") for v in args.n.split(",")] if args.n
          else run.get("n", [2, 4]))
    trials = (positive_int(args.trials, "--trials") if args.trials is not None
              else run.get("trials", 1000))
    delta = args.delta if args.delta is not None else run.get("delta")
    if delta is None:
        if not scenario.config.distortions:
            raise ConfigurationError(
                "scenario %r defines no distortions; give --delta" % (scenario.name,))
        delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    ks = list(scenario.config.reproduction_ids)
    lines = [_csv_header(scenario, ks)]
    for n in ns:
        code = scenario.make_code(n, seed=seed)
        rates = [code.rate(i) for i in scenario.config.encoders]
        aux = [code.aux_rate(i) for i in scenario.config.encoders]
        if args.exact:
            result = exact_error(code, delta, scenario.default_D, rule=args.rule)
            with _unlimited_int_digits():   # large-block rationals
                mismatch = _decimal_string(result.mismatch)
                exceeds = [_decimal_string(result.exceed[k]) for k in ks]
                aborts = [_decimal_string(result.encoder_abort), "0"]
            row = ([scenario.name, str(n)] + [repr(r) for r in rates]
                   + [repr(r) for r in aux]
                   + [repr(delta), "0", mismatch] + exceeds
                   + [mismatch, mismatch, str(seed)] + aborts)
        else:
            report = simulate(code, delta, scenario.default_D, trials=trials,
                              seed=seed, rule=args.rule)
            lo, hi = report.ci(report.mismatch_count)
            row = ([scenario.name, str(n)] + [repr(r) for r in rates]
                   + [repr(r) for r in aux]
                   + [repr(delta), str(trials), repr(report.mismatch_freq)]
                   + [repr(report.exceed_freq(k)) for k in ks]
                   + [repr(lo), repr(hi), str(seed)]
                   + [repr(report.encoder_abort_count / trials),
                      repr(report.decoder_abort_count / trials)])
        lines.append(",".join(row))
    _emit(args.out, "\n".join(lines) + "\n")
    _write_manifest(args.out, {
        "command": "simulate", "scenario": scenario.name, "seed": seed,
        "n": ns, "trials": 0 if args.exact else trials,
        "exact": bool(args.exact), "config_hash": _scenario_hash(scenario)})
    return EXIT_OK


# -- verify ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    unseeded = args.suite in UNSEEDED
    if unseeded and (args.seeds is not None or args.seed is not None):
        raise ConfigurationError(
            "--suite %s runs fixed instances and takes no --seeds or --seed" % args.suite)
    seed = _resolved_seed(0 if args.seed is None else args.seed)
    seeds = 50 if args.seeds is None else positive_int(args.seeds, "--seeds")
    report = run_suite(args.suite, seeds=seeds, seed0=seed)
    text = "\n".join(report.summary_lines()) + "\n"
    _emit(args.out, text)
    if args.out:
        with open(args.out + ".json", "a") as handle:
            handle.write(report.to_json() + "\n")
    _write_manifest(args.out, {"command": "verify", "suite": args.suite,
                               "seed": None if unseeded else seed})
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_scenario_list(args) -> int:
    for name in scenario_names():
        scenario = build_scenario(name)
        sys.stdout.write("%s: %s\n" % (name, scenario.description))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiterm",
        description="rate-distortion region algebra and constrained-random-number-generator codes")
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="emit a region's inequality system")
    region.add_argument("scenario", help="built-in scenario name or JSON file path")
    region.add_argument("--definition", choices=DEFINITIONS, default="dsc-crng")
    region.add_argument("--eliminate-aux", action="store_true",
                        help="project out auxiliary rates and drop redundancy")
    region.add_argument("--precision-bits", type=int, default=PRECISION_BITS)
    region.add_argument("--out", default=None)
    region.set_defaults(func=cmd_region)

    sim = sub.add_parser("simulate", help="run a coding experiment")
    sim.add_argument("scenario")
    sim.add_argument("--n", default=None, help="comma-separated block lengths")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--delta", type=float, default=None,
                     help="distortion slack (default 0.01 * max bound)")
    sim.add_argument("--exact", action="store_true",
                     help="total enumeration instead of Monte Carlo")
    sim.add_argument("--rule", choices=("crng", "map"), default="crng")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a lemma verification suite")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--seeds", type=int, default=None,
                     help="instances per randomized sweep (default 50)")
    ver.add_argument("--seed", type=int, default=None, help="(default 0)")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    lst = sub.add_parser("scenario-list", help="list built-in scenarios")
    lst.set_defaults(func=cmd_scenario_list)
    return parser


# The parser `main` uses: built on its first call, not at import, and shared by
# every later call (a build costs about a millisecond and leaves reference
# cycles to the garbage collector).
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET
    except ConfigurationError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
