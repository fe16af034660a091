"""Tests of the benchmark itself: generator, tracing, metrics, failure accounting.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import definitions
import run
import worker
import workloads
from tracing import Tracer

from multiterm import codec, hashing, regions
from multiterm.scenarios import build_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _inputs(plan):
    return [(op.name, op.inputs) for op in plan]


@pytest.mark.parametrize("workload", definitions.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload):
    first = _inputs(workloads.build_plan(workload, 3))
    assert first == _inputs(workloads.build_plan(workload, 3))
    assert all(inputs for _, inputs in first)
    other = _inputs(workloads.build_plan(workload, 4))
    assert [name for name, _ in other] == [name for name, _ in first]
    assert other != first


def _tiny_plan(workload, seed, reference):
    """A few cheap ops that reach every traced layer."""
    ops = []
    ops.append(workloads.Op("golden", "golden",
                            lambda: workloads._golden_text("example1-dsc2", "dsc-crng"),
                            lambda out: None))
    which, config, joint = workloads.region_instance("dsc-k3", 3, workloads.rng_for(seed, 9))
    crng = regions.RegionSpec(which, config, dict(
        regions.binding_from_pmf(which, config, joint).values))
    it = regions.RegionSpec(regions.DSC_IT, config, dict(
        regions.binding_from_pmf(regions.DSC_IT, config, joint).values))
    ops.append(workloads.Op("eliminate", "eliminate", lambda: workloads.eliminate(crng),
                            workloads._check_render(None, only_rates=True)))
    ops.append(workloads.Op("query", "query", lambda prev=ops[-1]: workloads._query(it, prev),
                            workloads._check_true))
    sw = build_scenario("slepian-wolf")
    sw_code = sw.make_code(2, seed=1)
    ops.append(workloads.Op("simulate", "simulate",
                            lambda: workloads.sim_output(codec.simulate(
                                sw_code, 0.01, sw.default_D, trials=10, seed=2)),
                            workloads._check_sim(10)))
    wz = build_scenario("wyner-ziv-binary")
    wz_code = wz.make_code(2, seed=1)
    for rule in ("crng", "map"):
        ops.append(workloads.Op("exact-" + rule, "exact",
                                lambda rule=rule: workloads.exact_output(codec.exact_error(
                                    wz_code, 0.01, wz.default_D, rule=rule)),
                                workloads._check_exact(None, None)))
    ops.append(workloads.Op("mcrp", "bound", lambda: workloads._report_output(
        hashing.verify_mcrp([hashing.BinningEnsemble(4, 2)], {(0,), (1,), (3,)}, (1,))),
        workloads._check_passed))
    return ops


def test_traced_pass_reports_layers_and_restores_originals(monkeypatch):
    monkeypatch.setattr(worker, "build_plan", _tiny_plan)
    tracer = Tracer()
    with tracer.installed():
        patched = list(tracer._patches)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        traced = worker.run_pass("tiny", 1, None, tracer)
    assert patched and not tracer._patches
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, "%r.%s not restored" % (owner, attr)

    untraced = worker.run_pass("tiny", 1, None)
    assert [r.error for r in traced["records"]] == [None] * len(traced["records"])
    assert worker.compare_outputs(untraced["records"], traced["records"]) == []

    layers = tracer.layer_metrics()
    for name in ("simplex.solve_lp.calls", "regions.contains.calls",
                 "information.cond_entropy.calls", "codec.decode.calls",
                 "codec.encode.calls", "probability.marginalize.calls",
                 "hashing.hash_eval.calls", "codec.cell_base_law.items"):
        assert layers[name] > 0, name
    assert layers["hashing.enumerate_functions.yielded"] == 2 ** 4
    assert layers["codec.exact_error.source_blocks"] == 2 * 4 ** 2
    assert layers["codec.decoder_class_law.distinct"] <= layers["codec.decoder_class_law.calls"]
    assert layers["codec.decoder_class_law.support"] <= layers["codec.decoder_class_law.candidates"]
    assert layers["regions.remove_redundant.rows_kept"] <= layers["regions.remove_redundant.rows_in"]
    assert all(v >= 0 for v in layers.values())
    assert {s["op"] for s in tracer.span_records()} >= {"setup", 0, 3}


def test_tracer_restores_originals_when_the_pass_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            patched = list(tracer._patches)
            raise RuntimeError("stop")
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_failure_accounting_counts_an_op_that_raises():
    def boom():
        raise ValueError("on purpose")

    plan = [workloads.Op("raises", "test", boom, lambda out: None),
            workloads.Op("wrong", "test", lambda: 1, lambda out: "wrong answer"),
            workloads.Op("fine", "test", lambda: 2, lambda out: None)]
    records = worker.execute(plan)
    assert [r.error for r in records] == ["ValueError: on purpose", "wrong answer", None]
    summary = worker.summarize([{"records": records, "setup_s": 0.1, "wall_s": 0.2,
                                 "setup_kernel_s": worker.REFERENCE_KERNEL_S,
                                 "kernel_s": worker.REFERENCE_KERNEL_S}], 10.0)
    assert summary["attempted"] == 3 and summary["failed"] == 2
    assert summary["metrics"]["ok_frac"] == pytest.approx(1 / 3)
    assert worker.failures([{"records": records}])[0] == [0, "raises", "ValueError: on purpose"]


def test_stored_checks_catch_wrong_values():
    check = workloads._check_exact({"mismatch": "1/3", "exceed": {"1": "1/4"},
                                    "encoder_abort": "0"}, None)
    good = {"mismatch": "1/3", "exceed": {"1": "1/4"}, "encoder_abort": "0"}
    assert check(good) is None
    assert check(dict(good, mismatch="1/2")) is not None
    assert workloads._check_exact(workloads.MISSING, None)(good) is not None
    assert workloads.stored_value(None, "op") is None
    assert workloads.stored_value({}, "op") is workloads.MISSING
    assert workloads.within_sigma(30, 100, Fraction(3, 10))
    assert not workloads.within_sigma(60, 100, Fraction(3, 10))


def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(definitions.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(definitions.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(definitions.WORKLOADS)

    for trace, units in ((0, definitions.END_TO_END), (1, definitions.LAYER_METRICS)):
        def fake(workload, args, deadline, spans_path, units=units):
            return {"metrics": {name: 1.5 for name, _ in units}, "attempted": 4, "failed": 0,
                    "ops_per_pass": 2, "passes": 2, "above_p90": 1, "import_s": 0.1,
                    "speed": 1.0, "raw_pass_wall_s": [1.0, 1.1],
                    "outputs_identical": True, "spans": 3, "failures": []}
        monkeypatch.setattr(run, "run_workload", fake)
        assert run.main(["--workload", "exact-oracle", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(units)


def test_summary_has_every_end_to_end_metric():
    records = [worker.OpRecord("op%d" % i, 0.01 * (i + 1), "null", None) for i in range(20)]
    summary = worker.summarize([{"records": records, "setup_s": 0.5, "wall_s": 2.1,
                                 "setup_kernel_s": worker.REFERENCE_KERNEL_S,
                                 "kernel_s": worker.REFERENCE_KERNEL_S}], 50.0)
    assert list(summary["metrics"]) == [name for name, _ in definitions.END_TO_END]
    assert summary["above_p90"] >= 2


def test_times_are_scaled_to_the_reference_speed():
    """A pass on a machine at half the reference speed reports half its measured times."""
    slow_kernel = 2 * worker.REFERENCE_KERNEL_S
    records = [worker.OpRecord("op%d" % i, 0.1 * (i + 1), "null", None, slow_kernel)
               for i in range(10)]
    slow = {"records": records, "setup_s": 0.4, "setup_kernel_s": slow_kernel, "wall_s": 5.5,
            "kernel_s": slow_kernel}
    metrics = worker.summarize([slow, dict(slow)], 1.0)["metrics"]
    assert metrics["wall_s"] == pytest.approx(5.5 / 2)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["op_p50_s"] == pytest.approx(0.55 / 2)


def test_a_run_stops_when_the_next_pass_would_overrun():
    passes = [{"records": [None] * 60}] * 2
    assert not worker.enough(passes[:1], 1.0, 25.0)    # below the minimum passes
    assert not worker.enough(passes, 1.0, 25.0)        # 120 latencies, time left
    assert worker.enough(passes, 20.0, 25.0)           # a third pass would end at 30 s
    assert not worker.enough([{"records": [None] * 20}] * 3, 24.0, 25.0)  # too few latencies


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "region-algebra",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
