import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multiterm import gfq
from multiterm.errors import BudgetExceededError, ConfigurationError
from multiterm.hashing import (
    BinningEnsemble,
    LinearEnsemble,
    SparseLinearEnsemble,
    _group_params,
    _max_fiber,
    _nonempty_subsets,
    compose,
    make_ensemble,
    measure_beta,
    product_difference_gap,
    verify_hash_property,
    verify_mbcp,
    verify_mcrp,
)


def test_binning_collision_probabilities():
    ens = BinningEnsemble(8, 4)
    assert ens.collision_prob(0, 1) == Fraction(1, 4)
    assert ens.collision_prob(3, 3) == Fraction(1)


def test_binning_image_one_is_constant():
    ens = BinningEnsemble(8, 1)
    f = ens.sample_function(0)
    assert len({f(w) for w in range(8)}) == 1


def test_linear_zero_maps_to_zero():
    ens = LinearEnsemble(2, 4, 2)
    f = ens.sample_function(3)
    assert f(0) == 0


def test_linear_collision_by_matrix_enumeration():
    # all 2^6 matrices of linear(2, 3, 2)
    ens = LinearEnsemble(2, 3, 2)
    total = Fraction(0)
    for f, p in ens.enumerate_functions():
        if f(0b101) == f(0b011):
            total += p
    assert total == Fraction(1, 4)
    assert ens.collision_prob(0b101, 0b011) == Fraction(1, 4)


@pytest.mark.parametrize("q,n,m", [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_linear_collision_exact_by_enumeration(q, n, m):
    ens = LinearEnsemble(q, n, m)
    w, w2 = 0, 1
    total = Fraction(0)
    for f, p in ens.enumerate_functions():
        if f(w) == f(w2):
            total += p
    assert total == Fraction(1, q ** m)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4)])
def test_linear_row_collision_factorizes(q, n):
    # per-row exhaustive check: each row annihilates a fixed nonzero
    # difference with probability exactly 1/q, hence q^{-m} for m rows
    for d_int in (1, q ** n - 1, q ** (n - 1)):
        d = gfq.decode(d_int, q, n)
        hits = sum(1 for row in itertools.product(range(q), repeat=n)
                   if sum(a * b for a, b in zip(row, d)) % q == 0)
        assert hits * q == q ** n


def test_linearity_of_sampled_functions():
    ens = LinearEnsemble(2, 4, 2)
    f = ens.sample_function(9)
    for w in range(16):
        for w2 in range(16):
            x = gfq.decode(w, 2, 4)
            y = gfq.decode(w2, 2, 4)
            s = gfq.encode(gfq.add(x, y, 2), 2)
            assert f(s) == gfq.encode(
                gfq.add(gfq.decode(f(w), 2, 2), gfq.decode(f(w2), 2, 2), 2), 2)


def test_hash_property_binning_and_linear():
    assert verify_hash_property(BinningEnsemble(256, 16), 1, 0)
    assert verify_hash_property(LinearEnsemble(2, 8, 3), 1, 0)


def test_hash_property_skewed_binning():
    skew = BinningEnsemble(8, 4, weights=[Fraction(2, 5), Fraction(1, 5),
                                          Fraction(1, 5), Fraction(1, 5)])
    assert not verify_hash_property(skew, 1, 0)
    assert verify_hash_property(skew, 2, 0)


def test_compose_parameters_and_property():
    a = BinningEnsemble(16, 4)
    b = BinningEnsemble(16, 2)
    joint = compose(a, b)
    assert joint.alpha == 1 and joint.beta == 0
    assert joint.image_size == 8
    assert verify_hash_property(joint, 1, 0)
    # composing with a constant-function ensemble keeps the other factor
    const = BinningEnsemble(16, 1)
    both = compose(a, const)
    assert both.alpha == a.alpha and both.beta == a.beta


def test_compose_collision_is_product():
    a = BinningEnsemble(8, 4)
    b = LinearEnsemble(2, 3, 1)
    joint = compose(a, b)
    assert joint.collision_prob(1, 2) == a.collision_prob(1, 2) * b.collision_prob(1, 2)


def test_compose_domain_mismatch():
    with pytest.raises(ConfigurationError):
        compose(BinningEnsemble(8, 2), BinningEnsemble(16, 2))


def test_sparse_column_weight_contract():
    ens = SparseLinearEnsemble(2, 6, 5, column_weight=2)
    f = ens.sample_function(4)
    for j in range(6):
        weight = sum(1 for r in range(5) if f.matrix[r][j] != 0)
        assert weight == 2


def test_sparse_profile_matches_brute_force():
    """The profile's convolution adds column digits mod q: at q = 3 as at
    q = 2, each collision probability is the enumerated ensemble's."""
    for q, n, m, weight in [(2, 3, 3, 2), (3, 2, 2, 1), (3, 2, 3, 2), (2, 4, 3, 1)]:
        ens = SparseLinearEnsemble(q, n, m, column_weight=weight)
        for d in range(1, q ** n):
            total = Fraction(0)
            for f, p in ens.enumerate_functions():
                if f(d) == f(0):
                    total += p
            assert total == ens.collision_prob(d, 0), (q, n, m, weight, d)


def test_sparse_measured_parameters_hold():
    ens = SparseLinearEnsemble(2, 4, 4, column_weight=2)
    assert verify_hash_property(ens, ens.alpha, ens.beta)
    assert measure_beta(ens, ens.alpha) == ens.beta


@pytest.mark.parametrize("image_size", [1, 2])
def test_sparse_default_weight_fits_small_images(image_size):
    """The default column weight is clamped to m, and m = 0 is the constant
    function: beta 0, every point hashed to 0."""
    ens = make_ensemble("sparse-linear", 16, image_size, q=2)
    assert ens.column_weight == ens.m == image_size.bit_length() - 1
    assert verify_hash_property(ens, ens.alpha, ens.beta)
    if image_size == 1:
        assert ens.beta == 0
        assert {ens.sample_function(s)(w) for s in range(3) for w in range(16)} == {0}


def test_sparse_refused_weight_names_the_sizes():
    with pytest.raises(ConfigurationError,
                       match=r"column weight 2 .* sparse-linear ensemble with m = 1"):
        SparseLinearEnsemble(2, 4, 1, column_weight=2)
    with pytest.raises(ConfigurationError, match=r"column weight 1 .* m = 0"):
        SparseLinearEnsemble(2, 4, 0, column_weight=1)


def test_make_ensemble_validation():
    with pytest.raises(ConfigurationError):
        make_ensemble("linear", 12, 4, q=2)  # 12 is not a power of 2
    with pytest.raises(ConfigurationError):
        make_ensemble("nonsense", 8, 2)


def test_composed_sample_reads_the_whole_seed_sequence():
    """Children of one SeedSequence give distinct composed functions, one
    child used twice gives equal ones, and an int seed draws as its root
    sequence does."""
    ens = compose(BinningEnsemble(16, 4), LinearEnsemble(2, 4, 2))
    a, b = np.random.SeedSequence(5).spawn(2)
    assert ens.sample_function(a) != ens.sample_function(b)
    assert ens.sample_function(a) == ens.sample_function(a)
    assert ens.sample_function(5) == ens.sample_function(np.random.SeedSequence(5))


# -- joint-ensemble lemma checks -------------------------------------------------------


def test_mbcp_uniform_binning_whole_space():
    # E sum_c |Q(c) - 1/2| = E|k - 2|/2 = 3/8 for k ~ Bin(4, 1/2) points in bin 0;
    # the bound is (beta + 1) |C| max_w Q(w) / Q(T) = 2 * 1/4
    ens = [BinningEnsemble(4, 2)]
    Q = {(w,): Fraction(1, 4) for w in range(4)}
    T = {(w,) for w in range(4)}
    report = verify_mbcp(ens, Q, T)
    check = report.checks[0]
    assert check.lhs == Fraction(3, 8)
    assert check.rhs == Fraction(1, 2)
    assert report.all_passed


def test_mbcp_fails_for_understated_parameters():
    # every point lands in bin 0, yet the ensemble claims (1, 0): lhs^2 = 1 > 1/2
    ens = BinningEnsemble(4, 2, weights=[1, 0])
    ens.alpha = Fraction(1)
    Q = {(w,): Fraction(1, 4) for w in range(4)}
    report = verify_mbcp([ens], Q, set(Q))
    check = report.checks[0]
    assert check.lhs == 1 and check.rhs == Fraction(1, 2)
    assert not check.passed


def test_mbcp_single_bin_has_zero_deviation():
    ens = [BinningEnsemble(4, 1)]
    Q = {(w,): Fraction(1, 4) for w in range(4)}
    T = {(w,) for w in range(4)}
    report = verify_mbcp(ens, Q, T)
    check = report.checks[0]
    assert check.lhs == 0 and check.passed


def test_mbcp_two_ensembles_random_instances():
    for s in range(10):
        rng = np.random.default_rng((40, s))
        ens = [BinningEnsemble(4, 2), BinningEnsemble(4, 2)]
        universe = list(itertools.product(range(4), range(4)))
        idx = rng.choice(len(universe), size=8, replace=False)
        T = {universe[i] for i in idx}
        Q = {w: Fraction(int(rng.integers(1, 5)), 4) for w in T}
        assert verify_mbcp(ens, Q, T).all_passed


def test_mcrp_exact_quarter_example():
    report = verify_mcrp([BinningEnsemble(8, 4)], {(0,), (5,)}, (0,))
    check = report.checks[0]
    assert check.lhs == Fraction(1, 4)
    assert check.rhs == Fraction(1, 2)
    assert check.passed


def test_mcrp_anchor_only_competitorless():
    report = verify_mcrp([BinningEnsemble(8, 4)], {(3,)}, (3,))
    assert report.checks[0].lhs == 0


def test_mcrp_two_ensembles_random_instances():
    for s in range(10):
        rng = np.random.default_rng((41, s))
        ens = [BinningEnsemble(4, 2), LinearEnsemble(2, 2, 1)]
        universe = list(itertools.product(range(4), range(4)))
        idx = rng.choice(len(universe), size=8, replace=False)
        T = {universe[i] for i in idx}
        anchor = sorted(T)[int(rng.integers(0, len(T)))]
        assert verify_mcrp(ens, T, anchor).all_passed


@pytest.mark.parametrize("check", ["mbcp", "mcrp"])
def test_joint_checks_refuse_huge_ensembles_early(check):
    # 2^14 elements into 64 bins, read at 32 points: a point law of 64^32
    # rows, refused before any row is built, in a message that prints
    ens = [BinningEnsemble(1 << 14, 64)]
    T = {(w,) for w in range(0, 1 << 14, 1 << 9)}
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"at least 2\^192 point-law rows"):
        if check == "mbcp":
            verify_mbcp(ens, {w: Fraction(1, len(T)) for w in T}, T)
        else:
            verify_mcrp(ens, T, (0,))
    assert time.perf_counter() - start < 0.1


def test_joint_checks_read_point_laws_of_huge_ensembles():
    # 2^32 binning functions, but the point law at two points has 4 rows
    report = verify_mcrp([BinningEnsemble(32, 2)], {(0,), (1,)}, (0,))
    assert report.all_passed
    assert (report.checks[0].lhs, report.checks[0].rhs) == (Fraction(1, 2), 1)


@pytest.mark.parametrize("ensemble", [
    BinningEnsemble(1 << 14, 64),
    compose(BinningEnsemble(1 << 14, 64), BinningEnsemble(1 << 14, 2)),
    LinearEnsemble(2, 200, 100),
    SparseLinearEnsemble(2, 400, 4, column_weight=2),
], ids=["binning", "compose", "linear", "sparse-linear"])
def test_enumeration_budget_message_prints_huge_counts(ensemble):
    bits = ensemble.function_count().bit_length() - 1
    with pytest.raises(BudgetExceededError, match=r"too large to exhaust: at least 2\^%d " % bits):
        next(ensemble.enumerate_functions())


# -- the whole-ensemble reference for the joint checks -----------------------------------
#
# The checks once enumerated every joint function with its Fraction
# probability and evaluated the hashes at every point; that path is kept
# here, whole, as the reference the point-law computation must reproduce.


def _function_products(ensembles):
    for combo in itertools.product(*(list(e.enumerate_functions()) for e in ensembles)):
        prob = combo[0][1]
        for _, p in combo[1:]:
            prob *= p
        yield tuple(f for f, _ in combo), prob


def _reference_expectation(ensembles, value):
    total = Fraction(0)
    for funcs, prob in _function_products(ensembles):
        v = value(funcs)
        if v:
            total += prob * v
    return total


def _joint_deviation(funcs, T, Q, qT, image_total, nI):
    bins = {}
    for w in T:
        c = tuple(funcs[i](w[i]) for i in range(nI))
        bins[c] = bins.get(c, Fraction(0)) + Q.get(w, Fraction(0))
    uniform = Fraction(1, image_total)
    deviation = sum(abs(mass / qT - uniform) for mass in bins.values())
    return deviation + (image_total - len(bins)) * uniform


def _reference_mbcp(ensembles, Q, T):
    nI = len(ensembles)
    T = [tuple(w) for w in sorted(T)]
    Q = {tuple(w): Fraction(q) for w, q in Q.items()}
    qT = sum(Q.get(w, Fraction(0)) for w in T)
    image_total = math.prod(e.image_size for e in ensembles)
    rhs_sq = _group_params(ensembles, range(nI))[0] - 1
    for sub, _, (_, b_sub), (a_comp, _), image in _nonempty_subsets(ensembles):
        qbar = _max_fiber(T, lambda w: Q.get(w, Fraction(0)), sub)
        rhs_sq += a_comp * (b_sub + 1) * image * qbar / qT
    lhs = _reference_expectation(
        ensembles, lambda funcs: _joint_deviation(funcs, T, Q, qT, image_total, nI))
    return ("balanced-coloring bound", lhs * lhs <= rhs_sq, lhs, rhs_sq,
            "exact; compared as lhs^2 <= rhs^2")


def _reference_mcrp(ensembles, T, anchor):
    nI = len(ensembles)
    anchor = tuple(anchor)
    T = [tuple(w) for w in sorted(T)]
    competitors = [w for w in T if w != anchor]

    def collides(funcs):
        target = tuple(funcs[i](anchor[i]) for i in range(nI))
        return any(tuple(funcs[i](w[i]) for i in range(nI)) == target
                   for w in competitors)

    rhs = _group_params(ensembles, range(nI))[1]
    for _, comp, (a_sub, _), (_, b_comp), image in _nonempty_subsets(ensembles):
        rhs += a_sub * (b_comp + 1) * _max_fiber(T, lambda w: 1, comp) / image
    lhs = _reference_expectation(ensembles, collides)
    return ("collision-resistance bound", lhs <= rhs, lhs, rhs, "exact")


_BIG_PRIME = (1 << 61) - 1   # three points of one skewed binning: a denominator > 2^63


def _ensemble_pool(skew):
    return {
        "binning-3-2": BinningEnsemble(3, 2),
        "binning-4-2": BinningEnsemble(4, 2),
        # a zero-weight bin, and a denominator near 2^61
        "skewed-3-3": BinningEnsemble(3, 3, weights=[Fraction(skew, _BIG_PRIME),
                                                     1 - Fraction(skew, _BIG_PRIME), 0]),
        "skewed-2-3": BinningEnsemble(2, 3, weights=[0, Fraction(1, 3), Fraction(2, 3)]),
        "linear-2-2-1": LinearEnsemble(2, 2, 1),
        "linear-2-2-2": LinearEnsemble(2, 2, 2),
        "sparse-2-2-2": SparseLinearEnsemble(2, 2, 2, column_weight=1),
        "sparse-3-1-2": SparseLinearEnsemble(3, 1, 2, column_weight=1),
        "compose": compose(BinningEnsemble(4, 2), LinearEnsemble(2, 2, 1)),
    }


@settings(max_examples=80, deadline=None)
@given(data=st.data(), skew=st.integers(1, _BIG_PRIME - 1),
       names=st.lists(st.sampled_from(sorted(_ensemble_pool(1))), min_size=1, max_size=3))
def test_joint_checks_match_whole_ensemble_reference(data, skew, names):
    pool = _ensemble_pool(skew)
    ensembles = [pool[name] for name in names]
    assume(math.prod(e.function_count() for e in ensembles) <= 3000)
    point = st.tuples(*(st.integers(0, e.domain_size - 1) for e in ensembles))
    T = data.draw(st.sets(point, min_size=1, max_size=6))
    anchor = data.draw(st.sampled_from(sorted(T)) | point)   # maybe outside T
    denominators = st.sampled_from([1, 3, 8, _BIG_PRIME])
    Q = {w: Fraction(data.draw(st.integers(0, 9)), data.draw(denominators)) for w in T}
    assume(sum(Q.values()) > 0)

    mbcp = verify_mbcp(ensembles, Q, T).checks[0]
    mcrp = verify_mcrp(ensembles, T, anchor).checks[0]
    for check, reference in ((mbcp, _reference_mbcp(ensembles, Q, T)),
                             (mcrp, _reference_mcrp(ensembles, T, anchor))):
        got = (check.name, check.passed, check.lhs, check.rhs, check.detail)
        assert got == reference
        assert [type(v) for v in got] == [type(v) for v in reference]


def test_joint_checks_never_enumerate_binning(monkeypatch):
    """Binning enters the joint checks through its point law alone."""
    calls = []
    original = BinningEnsemble.enumerate_functions

    def counting(self):
        calls.append(self)
        return original(self)
    monkeypatch.setattr(BinningEnsemble, "enumerate_functions", counting)
    universe = list(itertools.product(range(4), range(4)))
    T = set(universe[::3])
    Q = {w: Fraction(1 + sum(w), 8) for w in T}
    for ens in ([BinningEnsemble(8, 4)], [BinningEnsemble(4, 2), BinningEnsemble(4, 2)],
                [BinningEnsemble(4, 2), LinearEnsemble(2, 2, 1)]):
        T1 = {w[:len(ens)] for w in T}
        assert verify_mcrp(ens, T1, min(T1)).checks[0].detail == "exact"
        assert verify_mbcp(ens, {w[:len(ens)]: q for w, q in Q.items()}, T1
                           ).checks[0].detail.startswith("exact")
    assert calls == []


def test_product_difference_inequality_sweep():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        thetas = [float(t) for t in rng.uniform(0, 2, size=rng.integers(1, 6))]
        lhs, rhs = product_difference_gap(thetas)
        assert lhs <= rhs + 1e-12
    # exact rational check as well
    lhs, rhs = product_difference_gap([Fraction(1, 2), Fraction(5, 3), Fraction(2)])
    assert lhs <= rhs
