from fractions import Fraction

import numpy as np
import pytest

from multiterm.common_part import (
    check_double_markov,
    construct_common,
    random_double_markov,
    random_violating,
    verify_construction,
)
from multiterm.errors import PreconditionError
from multiterm.information import cond_mutual_info
from multiterm.probability import Alphabet, JointPmf

B = Alphabet((0, 1))


def test_constant_common_variable():
    table = {}
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[(0, x1, x2)] = Fraction(1, 4)
    pmf = JointPmf([("X0", Alphabet((0,))), ("X1", B), ("X2", B)], table)
    assert check_double_markov(pmf)
    built = construct_common(pmf)
    assert verify_construction(pmf, built).all_passed
    # a single full-width interval per observation
    for (_, _), intervals in built.partitions.items():
        assert intervals == [(Fraction(0), Fraction(1), 0)]


def test_xor_violates_double_markov():
    table = {}
    for x1 in (0, 1):
        for x2 in (0, 1):
            table[(x1 ^ x2, x1, x2)] = Fraction(1, 4)
    pmf = JointPmf([("X0", B), ("X1", B), ("X2", B)], table)
    assert not check_double_markov(pmf)
    # the violated chain carries one full bit
    assert cond_mutual_info(pmf, ["X0"], ["X2"], ["X1"]) == pytest.approx(1.0)
    with pytest.raises(PreconditionError, match="X2 <-> X1 <-> X0"):
        construct_common(pmf)


@pytest.mark.parametrize("digits", [9, 12, 15])
def test_perturbed_double_markov_law_is_refused(digits):
    # moving 10^-digits of mass between two entries breaks both chains; a
    # float conditional mutual information of that size rounds to zero
    pmf = random_double_markov(np.random.default_rng(0))
    table = dict(pmf.items())
    first, second = sorted(table)[:2]
    table[first] -= Fraction(1, 10 ** digits)
    table[second] += Fraction(1, 10 ** digits)
    perturbed = JointPmf(pmf.variables, table)
    assert not check_double_markov(perturbed)
    with pytest.raises(PreconditionError, match="is violated"):
        construct_common(perturbed)


def test_identical_variables_identity_partition():
    table = {(x, x, x): Fraction(1, 2) for x in (0, 1)}
    pmf = JointPmf([("X0", B), ("X1", B), ("X2", B)], table)
    built = construct_common(pmf)
    assert verify_construction(pmf, built).all_passed
    for (side, sym), intervals in built.partitions.items():
        assert intervals == [(Fraction(0), Fraction(1), sym)]


def test_shared_component_reconstruction_exact():
    rng = np.random.default_rng(3)
    pmf = random_double_markov(rng)
    assert check_double_markov(pmf)
    built = construct_common(pmf)
    report = verify_construction(pmf, built)
    assert report.all_passed


def test_sweep_random_instances():
    for s in range(25):
        rng = np.random.default_rng((60, s))
        pmf = random_double_markov(rng)
        built = construct_common(pmf)
        assert verify_construction(pmf, built).all_passed
    for s in range(25):
        rng = np.random.default_rng((61, s))
        assert not check_double_markov(random_violating(rng))
