"""Rate splitting: the three-encoder family collapses onto two effective
rates when the common codeword is split across the two branch codewords.

Adding Rp_0i >= 0, R_0 = Rp_01 + Rp_02 and Rp_i = R_i + Rp_0i to the
eliminated three-encoder system and projecting onto (Rp_1, Rp_2) must give
exactly the two-rate family with per-branch bounds and the total-sum bound.
A five-variable elimination through equality constraints, checked
byte-for-byte under an entropic binding.
"""

from multiterm.linineq import INF, SUP, EntropyTerm, LinIneqSystem, fme_eliminate
from multiterm.network import build_joint
from multiterm.regions import (
    DSC_CRNG,
    binding_from_pmf,
    polyhedra_equal,
    remove_redundant,
)
from multiterm.scenarios import build_scenario


def test_rate_splitting_collapses_to_two_effective_rates():
    scenario = build_scenario("example2-dsc3")
    joint = build_joint(scenario.config, scenario.source, scenario.channels)
    B = binding_from_pmf(DSC_CRNG, scenario.config, joint).values

    def S(left, given=()):
        return B[EntropyTerm(SUP, left, given)]

    def A(i):
        return B[EntropyTerm(INF, ("W%d" % i,), ("X%d" % i,))]

    sys = LinIneqSystem(["R_0", "R_1", "R_2", "Rp_01", "Rp_02", "Rp_1", "Rp_2"])
    sys.add({"R_0": 1}, S(("W0",), ("W1", "W2")) - A(0))
    for i in (1, 2):
        ic = 3 - i
        sys.add({"R_%d" % i: 1}, S(("W%d" % i,), ("W0", "W%d" % ic)) - A(i))
        sys.add({"R_0": 1, "R_%d" % i: 1},
                S(("W0", "W%d" % i), ("W%d" % ic,)) - A(0) - A(i))
    sys.add({"R_1": 1, "R_2": 1}, S(("W1", "W2"), ("W0",)) - A(1) - A(2))
    sys.add({"R_0": 1, "R_1": 1, "R_2": 1},
            S(("W0", "W1", "W2")) - A(0) - A(1) - A(2))
    for i in (1, 2):
        sys.add({"Rp_0%d" % i: 1}, 0)
        sys.add({"Rp_%d" % i: 1, "R_%d" % i: -1, "Rp_0%d" % i: -1}, 0)
        sys.add({"Rp_%d" % i: -1, "R_%d" % i: 1, "Rp_0%d" % i: 1}, 0)
    sys.add({"R_0": 1, "Rp_01": -1, "Rp_02": -1}, 0)
    sys.add({"R_0": -1, "Rp_01": 1, "Rp_02": 1}, 0)

    projected = remove_redundant(
        fme_eliminate(sys, ["R_0", "R_1", "R_2", "Rp_01", "Rp_02"]))

    expected = LinIneqSystem(["Rp_1", "Rp_2"])
    for i in (1, 2):
        ic = 3 - i
        expected.add({"Rp_%d" % i: 1}, S(("W%d" % i,), ("W0", "W%d" % ic)) - A(i))
    expected.add({"Rp_1": 1, "Rp_2": 1},
                 S(("W0", "W1", "W2")) - A(0) - A(1) - A(2))
    expected = expected.canonicalize()

    assert polyhedra_equal(expected, projected)
    assert projected.render() == expected.render()
