"""The benchmark tracer's row counters read the integer-row systems.

One small `region --eliminate-aux` step (`perfbench/workloads.eliminate` on a
three-encoder dsc-crng system) runs inside `perfbench/tracing.Tracer`, which
counts `len(system.ineqs)` of what FME and redundancy removal return.
"""

import os

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_traced_eliminate_counts_rows_and_canonicalize_time(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer
    from workloads import eliminate, region_instance

    from multiterm.regions import RegionSpec, binding_from_pmf

    which, config, joint = region_instance("dsc-k3", 3, np.random.default_rng(3))
    spec = RegionSpec(which, config, dict(binding_from_pmf(which, config, joint).values))
    untraced = eliminate(spec)
    tracer = Tracer()
    with tracer.installed():
        traced = eliminate(spec)
    metrics = tracer.layer_metrics()
    assert traced == untraced
    assert metrics["linineq.fme_eliminate.rows_out"] > 0
    assert metrics["regions.remove_redundant.rows_in"] > 0
    assert metrics["regions.remove_redundant.rows_kept"] > 0
    assert metrics["linineq.canonicalize.self_s"] > 0
