"""Two decoders with side information: the three-codeword region projected
onto the total rate reproduces the single-rate closed form.

Pipeline under test: the shared-source builder on the broadcast topology,
auxiliary-rate elimination, then elimination of the individual rates through
the sum constraint; the survivor must be the worst-decoder bound
H(W0,Wj|Yj) + H(W_jc|W0,Y_jc) - H(W0,W1,W2|X), byte-exact under an entropic
binding.
"""

import itertools
from fractions import Fraction

import numpy as np

from multiterm.information import cond_entropy
from multiterm.linineq import LinIneqSystem, fme_eliminate
from multiterm.network import ConditionalPmf, NetworkConfig, build_joint
from multiterm.probability import Alphabet, JointPmf
from multiterm.regions import (
    MDC_CRNG,
    RegionSpec,
    binding_from_pmf,
    build_system,
    polyhedra_equal,
    remove_redundant,
    round_entropy,
)

B = Alphabet((0, 1))


def broadcast_instance():
    rng = np.random.default_rng(5)
    cfg = NetworkConfig(
        encoders=(0, 1, 2), sharing=((0, 1, 2),), decoders=(1, 2),
        codewords_to={1: (0, 1), 2: (0, 2)}, reproductions={1: (), 2: ()},
        side_info={1: "Y1", 2: "Y2"})
    table = {}
    for x in (0, 1):
        for y1 in (0, 1):
            for y2 in (0, 1):
                p1 = Fraction(4, 5) if y1 == x else Fraction(1, 5)
                p2 = Fraction(7, 10) if y2 == x else Fraction(3, 10)
                px = Fraction(2, 5) if x == 0 else Fraction(3, 5)
                table[(x, y1, y2)] = px * p1 * p2
    src = JointPmf([("X012", B), ("Y1", B), ("Y2", B)], table)
    rows = {}
    keys = list(itertools.product((0, 1), repeat=3))
    for x in (0, 1):
        weights = [int(v) for v in rng.integers(1, 40, size=8)]
        total = sum(weights)
        rows[(x,)] = {k: Fraction(w, total) for k, w in zip(keys, weights)}
    channels = {(0, 1, 2): ConditionalPmf(
        [("X012", B)], [("W0", B), ("W1", B), ("W2", B)], rows)}
    return cfg, src, channels


def test_total_rate_projection_matches_closed_form():
    cfg, src, channels = broadcast_instance()
    joint = build_joint(cfg, src, channels)
    binding = binding_from_pmf(MDC_CRNG, cfg, joint)
    system = build_system(RegionSpec(MDC_CRNG, cfg, binding.values))
    over_rates = fme_eliminate(system, ["r_0", "r_1", "r_2"])

    ext = LinIneqSystem(list(over_rates.vars) + ["Rsum"], over_rates.ineqs)
    ext.add({"Rsum": 1, "R_0": -1, "R_1": -1, "R_2": -1}, 0)
    ext.add({"Rsum": -1, "R_0": 1, "R_1": 1, "R_2": 1}, 0)
    projected = remove_redundant(fme_eliminate(ext, ["R_0", "R_1", "R_2"]))

    def h(left, given=()):
        return round_entropy(cond_entropy(joint, list(left), list(given)))

    expected = LinIneqSystem(["Rsum"])
    for j, jc in ((1, 2), (2, 1)):
        expected.add({"Rsum": 1},
                     h(("W0", "W%d" % j), ("Y%d" % j,))
                     + h(("W%d" % jc,), ("W0", "Y%d" % jc))
                     - h(("W0", "W1", "W2"), ("X012",)))
    expected = remove_redundant(expected.canonicalize())

    assert polyhedra_equal(projected, expected)
    assert projected.render() == expected.render()
