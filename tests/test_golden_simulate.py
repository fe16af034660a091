"""Seeded `multiterm simulate` outputs stay byte-identical.

The golden file holds the stdout of `multiterm simulate <s> --n 2,3,4
--seed 9`, Monte Carlo (`--trials 300`) and `--exact`, under both `--rule`s,
for every built-in scenario that defines distortions.  Each run's output
follows a `# <argv>` line.  To record it again:

    PYTHONPATH=src python tests/test_golden_simulate.py
"""

import contextlib
import io
import os

from multiterm.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "simulate_seed9.txt")
SCENARIOS = ("berger-tung-binary", "heegard-berger-two-decoders", "jb-mixed-lossless-lossy",
             "mdc-two-descriptions", "slepian-wolf", "wyner-ziv-binary")


def simulate_outputs() -> str:
    parts = []
    for name in SCENARIOS:
        for rule in ("crng", "map"):
            for mode in (["--trials", "300"], ["--exact"]):
                argv = ["simulate", name, "--n", "2,3,4", "--seed", "9", *mode, "--rule", rule]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                parts.append("# %s\n%s" % (" ".join(argv), out.getvalue()))
    return "".join(parts)


def test_simulate_outputs_match_golden_file():
    with open(GOLDEN) as handle:
        assert simulate_outputs() == handle.read()


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        handle.write(simulate_outputs())
