"""One workload in one process: run passes of its op list and summarize them.

``run.py`` starts this file in a fresh single-threaded process per workload
and reads the JSON summary it prints.  A pass builds the op list from the
seed (set-up, with fresh code objects and so empty law caches) and then runs
every op in order, each starting when the previous one returns: a closed
loop with one caller.  Passes repeat while the next one fits in
``--seconds``, and at least often enough for the ninth decile of op latency
to have ten latencies above it.

Every time is reported at the reference speed of ``speed.py``.

With ``--trace 1`` the process runs one untraced pass and then one traced
pass, set-up included, and reports per-layer metrics, the tracing overhead,
and whether the two passes gave identical op outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from definitions import LAYER_METRICS
from speed import REFERENCE_KERNEL_S, Clock
from tracing import Tracer
from workloads import build_plan

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# The ninth decile needs ten pooled latencies above it, so a run pools at
# least this many op latencies; and every op is timed in at least two passes.
MIN_LATENCIES = 110
MIN_PASSES = 2


@dataclass
class OpRecord:
    name: str
    latency: float
    output: str      # canonical JSON of the op's output
    error: Optional[str]
    kernel_s: float = REFERENCE_KERNEL_S   # kernel time around the op


def load_reference() -> dict:
    """Values recorded at the default seed; empty when the file is absent."""
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as handle:
        return json.load(handle)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def execute(plan: list, tracer=None, clock: Optional[Clock] = None) -> list:
    """Run each op, time it, and check its output.

    An op that raises, or whose output fails its check, is recorded with
    the reason and the pass goes on with the next op.
    """
    records = []
    before = []
    for index, op in enumerate(plan):
        if clock is not None:
            before.append(clock.tick())
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # one failing op must not end the run
            output, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency = perf_counter() - start
        op.last_output = output
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        records.append(OpRecord(op.name, latency, canonical(output), error))
    if clock is not None:
        clock.sample()
        for record, index in zip(records, before):
            record.kernel_s = clock.around(index)
    return records


def run_pass(workload: str, seed: int, reference, tracer=None) -> dict:
    """Set up one pass (timed) and run its op list (timed per op)."""
    clock = Clock()
    first = clock.sample()
    if tracer is not None:
        tracer.op = "setup"
    start = perf_counter()
    plan = build_plan(workload, seed, reference)
    setup_s = perf_counter() - start
    clock.sample()
    records = execute(plan, tracer, clock)
    return {"setup_s": setup_s, "setup_kernel_s": clock.around(first), "records": records,
            "kernel_s": statistics.median(clock.samples),
            "wall_s": sum(r.latency for r in records)}


def compare_outputs(first: list, second: list) -> list:
    """Names of ops whose outputs differ between two passes."""
    return [a.name for a, b in zip(first, second) if a.output != b.output]


def summarize(passes: list, peak_rss_mb: float) -> dict:
    """End-to-end metrics over the passes of one run, at the reference speed.

    Every time is scaled by REFERENCE_KERNEL_S over the kernel time taken
    around it.  Every pass runs the same ops on the same inputs, so `wall_s`
    sums each op's median scaled latency over the passes; the percentiles
    pool the scaled latencies of every pass (`op_p90_s` is the ninth decile
    by ``statistics.quantiles``); `setup_s` is the median scaled per-pass
    set-up, to which the caller adds the import time.
    """
    scaled = [[r.latency * REFERENCE_KERNEL_S / r.kernel_s for r in p["records"]]
              for p in passes]
    wall = sum(statistics.median(column) for column in zip(*scaled))
    latencies = [v for pass_latencies in scaled for v in pass_latencies]
    attempted = len(latencies)
    failed = sum(1 for p in passes for r in p["records"] if r.error is not None)
    p90 = statistics.quantiles(latencies, n=10)[8] if attempted >= 2 else latencies[0]
    return {
        "metrics": {
            "wall_s": wall,
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": p90,
            "setup_s": statistics.median(p["setup_s"] * REFERENCE_KERNEL_S / p["setup_kernel_s"]
                                         for p in passes),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": attempted,
        "failed": failed,
        "above_p90": sum(1 for v in latencies if v > p90),
        "ops_per_pass": len(passes[0]["records"]),
        "passes": len(passes),
        "speed": REFERENCE_KERNEL_S / statistics.median(p["kernel_s"] for p in passes),
        "raw_pass_wall_s": [p["wall_s"] for p in passes],
    }


def failures(passes: list) -> list:
    return [[i, r.name, r.error] for i, p in enumerate(passes)
            for r in p["records"] if r.error is not None]


def enough(passes: list, elapsed: float, seconds: float) -> bool:
    """Whether to stop: the minimum is met and the next pass would overrun."""
    pooled = sum(len(p["records"]) for p in passes)
    if len(passes) < MIN_PASSES or pooled < MIN_LATENCIES:
        return False
    return elapsed + elapsed / len(passes) > seconds


def measure(workload: str, seed: int, seconds: float) -> dict:
    reference = load_reference()
    passes = []
    start = perf_counter()
    while not enough(passes, perf_counter() - start, seconds):
        passes.append(run_pass(workload, seed, reference))
    # every pass runs the same inputs, so every pass must give the same outputs
    for p in passes[1:]:
        for record, first in zip(p["records"], passes[0]["records"]):
            if record.error is None and record.output != first.output:
                record.error = "output differs from the first pass"
    summary = summarize(passes, peak_rss_mb())
    summary["failures"] = failures(passes)
    return summary


def measure_traced(workload: str, seed: int, spans_path: Optional[str]) -> dict:
    reference = load_reference()
    untraced = run_pass(workload, seed, reference)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, seed, reference, tracer)
    differ = compare_outputs(untraced["records"], traced["records"])
    for record in traced["records"]:
        if record.name in differ and record.error is None:
            record.error = "traced output differs from the untraced output"
    metrics = tracer.layer_metrics()
    untraced_wall, traced_wall = (sum(r.latency * REFERENCE_KERNEL_S / r.kernel_s
                                      for r in p["records"]) for p in (untraced, traced))
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    if spans_path:
        with open(spans_path, "w") as handle:
            for span in tracer.span_records():
                handle.write(json.dumps(span) + "\n")
    passes = [untraced, traced]
    units = dict(LAYER_METRICS)
    return {
        "metrics": {name: metrics[name] for name in units},
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": sum(1 for p in passes for r in p["records"] if r.error is not None),
        "ops_per_pass": len(traced["records"]),
        "passes": 2,
        "outputs_identical": not differ,
        "spans": len(tracer.spans),
        "failures": failures(passes),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSONL)")
    args = parser.parse_args(argv)
    if args.trace:
        summary = measure_traced(args.workload, args.seed, args.spans)
    else:
        summary = measure(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
