"""The benchmark tracer's patch targets exist in `multiterm` and are restored.

`perfbench/tracing.py` replaces functions and methods by name; a deleted or
renamed target would break ``perfbench/run.py --trace 1``.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_installs_and_restores_every_patch_target(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, "%r.%s not patched" % (owner, attr)
    assert not tracer._patches
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, "%r.%s not restored" % (owner, attr)
