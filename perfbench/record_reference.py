"""Record the stored values that the benchmark's output checks compare against.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` for the default seed:

* region-algebra: the SHA-256 of each eliminate op's rendered system;
* exact-oracle: each exact_error op's output (exact fractions as strings);
* codec-montecarlo: the exact error of each Monte Carlo code, against which
  the pooled Monte Carlo frequencies are tested.  These take minutes, so a
  value already recorded for the same code (same hash functions and
  constraint values) is kept rather than computed again.
"""

from __future__ import annotations

import json
import os
import sys

from multiterm import codec

import workloads
from worker import REFERENCE, execute


def main() -> int:
    seed = workloads.DEFAULT_SEED
    reference = {"seed": seed}

    plan = workloads.build_plan("region-algebra", seed)
    eliminate = [op for op in plan if op.kind == "eliminate"]
    records = execute(eliminate)
    bad = [r for r in records if r.error is not None]
    if bad:
        raise SystemExit("eliminate op failed: %s %s" % (bad[0].name, bad[0].error))
    reference["region-algebra"] = {op.name: workloads.digest(op.last_output) for op in eliminate}

    plan = [op for op in workloads.build_plan("exact-oracle", seed) if op.kind == "exact"]
    records = execute(plan)
    bad = [r for r in records if r.error is not None]
    if bad:
        raise SystemExit("exact op failed: %s %s" % (bad[0].name, bad[0].error))
    reference["exact-oracle"] = {op.name: op.last_output for op in plan}

    previous = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as handle:
            previous = json.load(handle).get("codec-montecarlo", {})
    reference["codec-montecarlo"] = {}
    for label, scenario, code in workloads.montecarlo_codes(seed):
        inputs = workloads.digest(workloads.code_inputs(code))
        if previous.get(label, {}).get("inputs") == inputs:
            reference["codec-montecarlo"][label] = previous[label]
            continue
        result = codec.exact_error(code, workloads.default_delta(scenario), scenario.default_D)
        reference["codec-montecarlo"][label] = dict(workloads.exact_output(result), inputs=inputs)
        sys.stderr.write("recorded %s\n" % label)

    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stderr.write("wrote %s\n" % os.path.relpath(REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
