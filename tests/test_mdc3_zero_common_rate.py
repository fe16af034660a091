"""The three-codeword system collapses to the two-codeword family when the
common codeword carries no rate.

With auxiliaries of the form W0 = V0, W_i = (V0, V_i) the zero-rate
feasibility condition holds (H(W0|W_i) = 0), and pinning R_0 = 0 makes the
per-branch and mixed-sum inequalities redundant: the region equals the
two-description family re-expressed through the composite auxiliaries.
"""

import itertools
from fractions import Fraction

import numpy as np

from multiterm.information import cond_entropy, entropy
from multiterm.linineq import LinIneqSystem, fme_eliminate
from multiterm.network import ConditionalPmf, NetworkConfig, apply_conditional
from multiterm.probability import Alphabet, JointPmf, merge_vars, random_pmf
from multiterm.regions import (
    MDC_CRNG,
    RegionSpec,
    build_system,
    polyhedra_equal,
    remove_redundant,
    required_terms,
    round_entropy,
)

B = Alphabet((0, 1))


def composite_auxiliary_joint(seed):
    """X with V0, V1, V2 through a random channel, then W_i = (V0, V_i)."""
    rng = np.random.default_rng(seed)
    x = random_pmf(rng, [("X", B)], denominator=40)
    rows = {}
    keys = list(itertools.product((0, 1), repeat=3))
    for xs in (0, 1):
        weights = [int(v) for v in rng.integers(1, 40, size=len(keys))]
        total = sum(weights)
        rows[(xs,)] = {k: Fraction(w, total) for k, w in zip(keys, weights)}
    chan = ConditionalPmf([("X", B)],
                          [("V0", B), ("V1", B), ("V2", B)], rows)
    base = apply_conditional(x, chan)
    merged = merge_vars(merge_vars(base, "P1", ("V0", "V1"), keep=True),
                        "P2", ("V0", "V2"), keep=True)
    return merged


def mdc3_config():
    return NetworkConfig(
        encoders=(0, 1, 2), sharing=((0, 1, 2),), decoders=(1, 2, 12),
        codewords_to={1: (0, 1), 2: (0, 2), 12: (0, 1, 2)},
        reproductions={1: (), 2: (), 12: ()},
        side_info={1: None, 2: None, 12: None})


def test_branch_rows_redundant_at_zero_common_rate():
    joint = composite_auxiliary_joint(3)
    config = mdc3_config()

    # bind the three-codeword system with W0 = V0, W_i = (V0, V_i)
    name_map = {"W0": ["V0"], "W1": ["P1"], "W2": ["P2"], "X012": ["X"]}

    def resolve(names):
        out = []
        for n in names:
            out.extend(name_map[n])
        return out

    binding = {}
    for term in required_terms(MDC_CRNG, config):
        h = cond_entropy(joint, resolve(term.left), resolve(term.given))
        binding[term] = round_entropy(h)
    system = build_system(RegionSpec(MDC_CRNG, config, binding))
    eliminated = fme_eliminate(system, ["r_0", "r_1", "r_2"])

    # the zero-rate condition holds: H(W0 | W_i) = 0 for both branches
    for p in ("P1", "P2"):
        assert cond_entropy(joint, ["V0"], [p]) < 1e-9

    # pin R_0 = 0 and minimize
    pinned = LinIneqSystem(eliminated.vars, eliminated.ineqs)
    pinned.add({"R_0": 1}, 0)
    pinned.add({"R_0": -1}, 0)
    minimal = remove_redundant(pinned)

    # the two-description family through the composite auxiliaries
    direct = LinIneqSystem(["R_0", "R_1", "R_2"])

    def h(left, given=()):
        return round_entropy(cond_entropy(joint, list(left), list(given)))

    for i, p in ((1, "P1"), (2, "P2")):
        direct.add({"R_%d" % i: 1}, h([p]) - h([p], ["X"]))
    direct.add({"R_1": 1, "R_2": 1},
               h(["P1"]) + h(["P2"]) - h(["V0"], ["X"]) - h(["V0", "V1", "V2"], ["X"]))
    direct.add({"R_0": 1}, 0)
    direct.add({"R_0": -1}, 0)
    assert polyhedra_equal(minimal, direct.canonicalize())
