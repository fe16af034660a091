import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiterm.errors import ConfigurationError
from multiterm.information import (
    cond_entropy,
    entropy,
    kl_divergence,
    mutual_info,
    verify_spectral_lemmas,
)
from multiterm.probability import (
    Alphabet,
    JointPmf,
    dsbs,
    marginalize,
    random_pmf,
)

# binary entropy of 0.11, frozen from a 30-digit evaluation
H_011 = 0.4999159581645280


def uniform(variables):
    """The uniform law over the product of the variables' alphabets."""
    keys = list(itertools.product(*(a.symbols for _, a in variables)))
    return JointPmf(variables, {key: Fraction(1, len(keys)) for key in keys})


def bernoulli(p):
    """The law of one bit X with P(X = 1) = p."""
    return JointPmf([("X", Alphabet((0, 1)))], {(0,): 1 - p, (1,): p})


def point_mass(symbol):
    """The law of one bit X that always equals `symbol`."""
    return JointPmf([("X", Alphabet((0, 1)))], {(symbol,): Fraction(1)})


def test_entropy_uniform_eight():
    p = uniform([("X", Alphabet(tuple(range(8))))])
    assert entropy(p) == pytest.approx(3.0, abs=1e-12)


def test_entropy_point_mass():
    assert entropy(point_mass(1)) == 0.0


def test_entropy_bernoulli_011():
    assert entropy(bernoulli(Fraction(11, 100))) == pytest.approx(H_011, abs=1e-5)


def test_dsbs_conditional_and_joint():
    p = dsbs(Fraction(11, 100))
    assert cond_entropy(p, ["X2"], ["X1"]) == pytest.approx(H_011, abs=1e-5)
    assert entropy(p, ["X1", "X2"]) == pytest.approx(1 + H_011, abs=1e-5)


def test_independent_mutual_info_zero():
    p = uniform([("A", Alphabet((0, 1))), ("B", Alphabet((0, 1, 2)))])
    assert mutual_info(p, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)


def test_overlap_rejected():
    p = uniform([("A", Alphabet((0, 1))), ("B", Alphabet((0, 1)))])
    with pytest.raises(ConfigurationError):
        mutual_info(p, ["A"], ["A"])


def test_chain_rule_random_sweep():
    for s in range(100):
        rng = np.random.default_rng((10, s))
        pmf = random_pmf(rng, [("A", Alphabet((0, 1, 2))), ("B", Alphabet((0, 1))),
                               ("C", Alphabet((0, 1)))])
        hab = entropy(pmf, ["A", "B"])
        split = cond_entropy(pmf, ["A"], ["B"]) + entropy(pmf, ["B"])
        assert abs(hab - split) <= 1e-12
        # identity I(A;B) = H(A) - H(A|B)
        lhs = mutual_info(pmf, ["A"], ["B"])
        rhs = entropy(pmf, ["A"]) - cond_entropy(pmf, ["A"], ["B"])
        assert abs(lhs - rhs) <= 1e-10


def test_chain_rule_log_free_rational():
    # the chain rule reduces to exact factorization of tables
    rng = np.random.default_rng(6)
    pmf = random_pmf(rng, [("A", Alphabet((0, 1))), ("B", Alphabet((0, 1, 2)))])
    b = marginalize(pmf, ["B"])
    for (a_sym, b_sym), p in pmf.items():
        # mu(a,b) = mu(b) * mu(a|b) exactly
        from multiterm.probability import condition
        c = condition(pmf, ["A"], {"B": b_sym})
        assert p == b.prob((b_sym,)) * c.prob((a_sym,))


def test_conditioning_never_increases_entropy():
    for s in range(50):
        rng = np.random.default_rng((11, s))
        pmf = random_pmf(rng, [("A", Alphabet((0, 1))), ("B", Alphabet((0, 1))),
                               ("C", Alphabet((0, 1)))])
        assert (cond_entropy(pmf, ["A"], ["B", "C"])
                <= cond_entropy(pmf, ["A"], ["B"]) + 1e-12)


def test_divergence_surrogate_nonnegative():
    for s in range(50):
        rng = np.random.default_rng((12, s))
        mu = random_pmf(rng, [("U", Alphabet((0, 1, 2)))])
        nu = random_pmf(rng, [("U", Alphabet((0, 1, 2)))])
        assert kl_divergence(mu, nu) >= -1e-12


def test_verify_spectral_lemmas_deterministic_function():
    # U = g(V): H(U|V) = 0 and all lemma identities hold
    b = Alphabet((0, 1))
    v3 = Alphabet((0, 1, 2))
    table = {(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 3), (0, 2): Fraction(1, 3)}
    pmf = JointPmf([("U", b), ("V", v3)], table)
    report = verify_spectral_lemmas(pmf)
    assert report.all_passed
    assert cond_entropy(pmf, ["U"], ["V"]) == pytest.approx(0.0, abs=1e-12)


def test_verify_spectral_lemmas_random_sweep():
    for s in range(100):
        rng = np.random.default_rng((13, s))
        pmf = random_pmf(rng, [("U", Alphabet((0, 1))), ("V", Alphabet((0, 1, 2))),
                               ("V2", Alphabet((0, 1)))])
        assert verify_spectral_lemmas(pmf).all_passed


def _reference_entropy(pmf, names):
    """H(names) along the float path of the former double-mode pmfs: a float
    table of the positive entries, then float marginal sums in table order."""
    dense = {key: float(p) for key, p in pmf.items() if p > 0}
    positions = [pmf.names.index(name) for name in names]
    marginal = {}
    for key, p in dense.items():
        sub = tuple(key[pos] for pos in positions)
        marginal[sub] = marginal.get(sub, 0.0) + p
    total = 0.0
    for p in marginal.values():
        total -= 0.0 if p == 0.0 else p * math.log2(p)
    return max(total, 0.0)


@st.composite
def rational_joints(draw):
    """A joint law over 1-4 variables with integer weights (zeros included),
    its rows in a drawn order."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    keys = list(itertools.product(*(range(size) for size in sizes)))
    weights = draw(st.lists(st.integers(0, 10 ** 6), min_size=len(keys), max_size=len(keys)))
    if not any(weights):
        weights[0] = 1
    order = draw(st.permutations(range(len(keys))))
    total = sum(weights)
    variables = [("V%d" % k, Alphabet(tuple(range(size)))) for k, size in enumerate(sizes)]
    return JointPmf(variables, {keys[k]: Fraction(weights[k], total) for k in order})


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pmf=rational_joints())
def test_entropy_matches_float_table_reference_bit_for_bit(data, pmf):
    names = data.draw(st.permutations(pmf.names))
    split = data.draw(st.integers(1, len(names)))
    a = list(names[:split])
    b = list(names[split:data.draw(st.integers(split, len(names)))])
    assert entropy(pmf) == _reference_entropy(pmf, pmf.names)
    assert entropy(pmf, a) == _reference_entropy(pmf, a)
    expected = (max(_reference_entropy(pmf, a + b) - _reference_entropy(pmf, b), 0.0)
                if b else _reference_entropy(pmf, a))
    assert cond_entropy(pmf, a, b) == expected
