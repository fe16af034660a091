"""Run the multiterm benchmark and print every metric by name and unit.

    python3 perfbench/run.py --workload region-algebra --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --label parent --out parent.json

Run from anywhere; the package under test is the ``src/multiterm`` next to
this directory, imported from source.  Each workload runs in its own fresh
process with one thread (``worker.py``).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced pass.
Everything before that line is a human-readable report.  The exit code is 0
when every workload ran, whether or not its outputs were correct, and not 0
when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from definitions import DEFAULT_SEED, END_TO_END, LAYER_METRICS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "multiterm")

# a run must end within 180 s; the worker gets what is left after the probes
RUN_LIMIT_S = 175.0
IMPORT_PROBES = 4

_PROBE = "import speed; print(speed.scaled_import_seconds())"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env: dict, deadline: float, count: int) -> list:
    """Scaled import times of the benchmark and `multiterm`, each in a fresh process."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_workload(workload: str, args, deadline: float, spans_path) -> dict:
    """Run one workload in a fresh worker process; import probes go around it.

    Probes before and after the worker sample the import time at different
    moments of the run, so one slow moment does not set `setup_s`.
    """
    env = child_env()
    probes = import_seconds(env, deadline, IMPORT_PROBES // 2)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=max(1.0, deadline - time.monotonic()))
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    probes += import_seconds(env, deadline, IMPORT_PROBES - len(probes))
    summary["import_s"] = statistics.median(probes)
    if not args.trace:
        summary["metrics"]["setup_s"] += summary["import_s"]
    return summary


def _git(*argv):
    # the ceiling keeps git from searching above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(argv), capture_output=True,
                             text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def source_lines() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                total += sum(1 for _ in handle)
    return total


def run_record(args) -> dict:
    """What was measured, where, and on which code.

    `src_lines` is metadata, tracked beside the numbers and gating nothing.
    `label` marks the side of a comparison (for example parent or change).
    """
    in_repo = os.path.realpath(_git("rev-parse", "--show-toplevel") or "") == \
        os.path.realpath(ROOT)
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "label": args.label,
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": source_lines(),
    }


def report(workload: str, summary: dict, trace: bool) -> list:
    lines = []
    units = dict(LAYER_METRICS if trace else END_TO_END)
    for name, unit in units.items():
        lines.append("%-16s %-40s %14.6g %s" % (workload, name, summary["metrics"][name], unit))
    failed_frac = summary["failed"] / summary["attempted"]
    lines.append("# %s: %d ops per pass x %d passes = %d attempted, %d failed "
                 "(failed_frac %.4g)" % (workload, summary["ops_per_pass"], summary["passes"],
                                         summary["attempted"], summary["failed"], failed_frac))
    if trace:
        lines.append("# %s: tracing overhead %.3f s (traced %.3f s - untraced %.3f s); "
                     "traced and untraced outputs %s; %d spans"
                     % (workload, summary["metrics"]["trace.overhead_s"],
                        summary["metrics"]["trace.traced_wall_s"],
                        summary["metrics"]["trace.untraced_wall_s"],
                        "identical" if summary["outputs_identical"] else "DIFFER",
                        summary["spans"]))
    else:
        lines.append("# %s: %d op latencies above op_p90_s; import %.3f s of setup_s; "
                     "times at the reference speed, %.3f x measured; measured pass times %s s"
                     % (workload, summary["above_p90"], summary["import_s"], summary["speed"],
                        " ".join("%.3f" % v for v in summary["raw_pass_wall_s"])))
    for pass_index, op, message in summary["failures"][:20]:
        lines.append("# %s: FAILED pass %d %s: %s" % (workload, pass_index + 1, op, message))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25,
                        help="measure passes of the op list for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="", help="tag for the run record, e.g. parent")
    parser.add_argument("--out", default=None,
                        help="also write the run record and results to this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write("perfbench: no package under test at %s\n" % PACKAGE)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = run_record(args)
    print("# perfbench %s" % json.dumps(record, sort_keys=True))
    results = {}
    for workload in workloads:
        spans_path = "%s.%s.spans.jsonl" % (args.out, workload) \
            if args.out and args.trace else None
        try:
            summary = run_workload(workload, args, deadline, spans_path)
        except (subprocess.SubprocessError, OSError, ValueError, IndexError, KeyError) as exc:
            sys.stderr.write("perfbench: %s could not run: %s\n" % (workload, exc))
            return 1
        results[workload] = summary
        for line in report(workload, summary, bool(args.trace)):
            print(line)

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump({"record": record, "results": results}, handle, indent=1, sort_keys=True)
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    prefix = len(workloads) > 1
    metrics = {}
    for workload, summary in results.items():
        for name, unit in units.items():
            key = "%s.%s" % (workload, name) if prefix else name
            metrics[key] = {"value": summary["metrics"][name], "unit": unit}
    failed = sum(s["failed"] for s in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
