"""Every `multiterm verify` suite's report stays byte-identical.

For each suite the golden files hold the `--out` text (`verify_<suite>.txt`)
and the `.json` line (`verify_<suite>.json`) of `multiterm verify --suite
<suite> --seeds 3 --seed 0`; the fixed-instance suites (`hash`, `decision`)
run without seeds.  `verify_seeds.json` lists, per suite, every integer or
tuple seed the run passes to `numpy.random.default_rng`, in call order, so a
changed seed tuple fails even where the drawn instances all pass.  To record
them again:

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import json
import os

import numpy as np
import pytest

from multiterm.cli import main
from multiterm.suites import SUITES, UNSEEDED

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEEDS = os.path.join(GOLDEN, "verify_seeds.json")


def verify_run(suite: str, out: str):
    """Run the suite's golden command into `out`; return (exit code, seeds drawn)."""
    real, seeds = np.random.default_rng, []

    def spy(seed=None):
        if isinstance(seed, (int, tuple)):
            seeds.append(list(seed) if isinstance(seed, tuple) else seed)
        return real(seed)

    argv = ["verify", "--suite", suite, "--out", out]
    if suite not in UNSEEDED:
        argv += ["--seeds", "3", "--seed", "0"]
    np.random.default_rng = spy
    try:
        status = main(argv)
    finally:
        np.random.default_rng = real
    return status, seeds


@pytest.mark.parametrize("suite", SUITES)
def test_verify_report_matches_golden_files(suite, tmp_path, monkeypatch):
    monkeypatch.delenv("MULTITERM_SEED", raising=False)
    out = str(tmp_path / "verify.txt")
    status, seeds = verify_run(suite, out)
    assert status == 0
    with open(SEEDS) as handle:
        assert seeds == json.load(handle)[suite]
    for produced, golden in ((out, "verify_%s.txt" % suite),
                             (out + ".json", "verify_%s.json" % suite)):
        with open(produced) as got, open(os.path.join(GOLDEN, golden)) as want:
            assert got.read() == want.read()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    os.environ.pop("MULTITERM_SEED", None)
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES:
            out = os.path.join(tmp, suite + ".txt")
            with contextlib.redirect_stdout(io.StringIO()):
                recorded[suite] = verify_run(suite, out)[1]
            for produced, golden in ((out, "verify_%s.txt" % suite),
                                     (out + ".json", "verify_%s.json" % suite)):
                with open(produced) as got, open(os.path.join(GOLDEN, golden), "w") as want:
                    want.write(got.read())
    with open(SEEDS, "w") as handle:
        handle.write("{\n%s\n}\n" % ",\n".join(
            "  %s: %s" % (json.dumps(suite), json.dumps(seeds))
            for suite, seeds in recorded.items()))
