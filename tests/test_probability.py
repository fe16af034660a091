import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from multiterm.errors import ConfigurationError, UnsupportedConditionError
from multiterm.information import entropy
from multiterm.network import (
    ConditionalPmf,
    NetworkConfig,
    apply_conditional,
    build_joint,
    w_name,
)
from multiterm.probability import (
    _factorizes,
    Alphabet,
    JointPmf,
    check_markov,
    condition,
    dsbs,
    inverse_cdf,
    marginalize,
    merge_vars,
    random_pmf,
)

B = Alphabet((0, 1))


def uniform(variables):
    """The uniform law over the product of the variables' alphabets."""
    keys = list(itertools.product(*(a.symbols for _, a in variables)))
    return JointPmf(variables, {key: Fraction(1, len(keys)) for key in keys})


def bernoulli(p):
    """The law of one bit X with P(X = 1) = p."""
    return JointPmf([("X", B)], {(0,): 1 - p, (1,): p})


def test_alphabet_invariants():
    with pytest.raises(ConfigurationError):
        Alphabet(())
    with pytest.raises(ConfigurationError):
        Alphabet((0, 0))
    assert Alphabet((0, 1, 2)).size == 3


def test_mass_validation():
    with pytest.raises(ConfigurationError):
        JointPmf([("X", B)], {(0,): Fraction(1, 2)})
    with pytest.raises(ConfigurationError):
        JointPmf([("X", B)], {(0, 1): Fraction(1)})
    with pytest.raises(ConfigurationError):
        JointPmf([("X", B)], {(2,): Fraction(1)})


def test_marginalize_uniform_pair():
    pair = uniform([("X1", B), ("X2", B)])
    m = marginalize(pair, ["X1"])
    assert m.prob((0,)) == Fraction(1, 2)
    assert m.prob((1,)) == Fraction(1, 2)


def test_marginalize_identity():
    p = dsbs(Fraction(11, 100))
    assert marginalize(p, ["X1", "X2"]) == p


def test_marginalize_dsbs_by_summation_oracle():
    p = dsbs(Fraction(11, 100))
    # direct summation over the table
    expected = {}
    for (x1, x2), q in p.items():
        expected[x2] = expected.get(x2, Fraction(0)) + q
    m = marginalize(p, ["X2"])
    for x2, q in expected.items():
        assert m.prob((x2,)) == q
    assert m.prob((0,)) == Fraction(1, 2)


def test_condition_independent_pair():
    pair = uniform([("X1", B), ("X2", B)])
    c = condition(pair, ["X2"], {"X1": 0})
    assert c == marginalize(pair, ["X2"])


def test_condition_deterministic():
    p = JointPmf([("X1", B), ("X2", B)],
                 {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    c = condition(p, ["X2"], {"X1": 1})
    assert c.prob((1,)) == 1 and c.prob((0,)) == 0


def test_condition_dsbs_value():
    c = condition(dsbs(Fraction(11, 100)), ["X2"], {"X1": 0})
    assert c.prob((0,)) == Fraction(89, 100)
    assert c.prob((1,)) == Fraction(11, 100)


def test_condition_zero_probability_event():
    p = JointPmf([("X1", B), ("X2", B)], {(0, 0): Fraction(1)})
    with pytest.raises(UnsupportedConditionError):
        condition(p, ["X2"], {"X1": 1})


def test_marginalize_then_condition_commutes_with_direct():
    rng = np.random.default_rng(3)
    vars = [("A", Alphabet((0, 1, 2))), ("B", B), ("C", B), ("D", B)]
    pmf = random_pmf(rng, vars)
    sub = marginalize(pmf, ["A", "B"])
    c1 = condition(sub, ["A"], {"B": 1})
    # direct: condition the full table then marginalize
    c2 = marginalize(condition(pmf, ["A", "C", "D"], {"B": 1}), ["A"])
    for a in (0, 1, 2):
        assert c1.prob((a,)) == c2.prob((a,))


def exact_place(weights, u) -> int:
    """The exact inverse CDF of the integer law `weights` at the double u,
    in Fractions: the entry k with prefix[k - 1] <= u * total < prefix[k],
    or -1 for a law of total 0."""
    prefix = list(itertools.accumulate(weights, initial=0))
    return bisect.bisect_right(prefix, Fraction(u) * prefix[-1]) - 1 if prefix[-1] else -1


def near_boundary(weights, u) -> bool:
    """Whether the double u lies within 2^-50 of a boundary prefix[k] / total
    of the integer law `weights`."""
    total = sum(weights)
    return any(abs(Fraction(u) - Fraction(p, total)) <= Fraction(1, 2 ** 50)
               for p in itertools.accumulate(weights))


def letters(pmf, n, seed, count):
    """`count` i.i.d. blocks of n letters of `pmf`, each the exact inverse CDF
    (:func:`exact_place`) of its positive weights at a uniform of
    ``default_rng(seed)``, as their letters (symbol tuples)."""
    support = [(key, p) for key, p in pmf.items() if p > 0]
    weights = [int(p * pmf.denominator) for _, p in support]
    uniforms = np.random.default_rng(seed).random((count, n))
    return [tuple(support[exact_place(weights, u)][0] for u in row) for row in uniforms.tolist()]


def test_sample_point_mass_and_determinism():
    forced = JointPmf([("X", B)], {(1,): Fraction(1)})
    blocks = letters(forced, 4, seed=11, count=3)
    assert all(b == ((1,),) * 4 for b in blocks)
    assert letters(forced, 4, seed=5, count=2) == letters(forced, 4, seed=5, count=2)


def test_sample_law_of_large_numbers():
    blocks = letters(bernoulli(Fraction(11, 100)), 1, seed=1, count=100_000)
    freq = sum(b[0][0] for b in blocks) / 100_000
    assert abs(freq - 0.11) < 0.01


def test_sample_chi_square_consistency():
    base = random_pmf(np.random.default_rng(4), [("X", Alphabet((0, 1, 2, 3)))])
    blocks = letters(base, 1, seed=2, count=100_000)
    counts = [0, 0, 0, 0]
    for b in blocks:
        counts[b[0][0]] += 1
    expected = [float(base.prob((s,))) * 100_000 for s in range(4)]
    assert chisquare(counts, expected).pvalue > 0.001


def test_check_markov_cases():
    indep = uniform([("A", B), ("B", B), ("C", B)])
    assert check_markov(indep, ["A"], ["B"], ["C"])
    # A = C fully correlated, B independent: I(A;C|B) = H(A) = 1 bit
    table = {}
    for a in (0, 1):
        for b in (0, 1):
            table[(a, b, a)] = Fraction(1, 4)
    corr = JointPmf([("A", B), ("B", B), ("C", B)], table)
    assert not check_markov(corr, ["A"], ["B"], ["C"])
    with pytest.raises(ConfigurationError):
        check_markov(indep, ["A"], ["A"], ["C"])


def test_check_markov_constructed_chain():
    rng = np.random.default_rng(8)
    # mu_A mu_{B|A} mu_{C|B} by direct construction
    table = {}
    pa = [Fraction(2, 5), Fraction(3, 5)]
    pb = {0: [Fraction(1, 3), Fraction(2, 3)], 1: [Fraction(3, 4), Fraction(1, 4)]}
    pc = {0: [Fraction(1, 6), Fraction(5, 6)], 1: [Fraction(1, 2), Fraction(1, 2)]}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                table[(a, b, c)] = pa[a] * pb[a][b] * pc[b][c]
    pmf = JointPmf([("A", B), ("B", B), ("C", B)], table)
    assert check_markov(pmf, ["A"], ["B"], ["C"])


def test_merge_vars_keep_and_consume():
    p = dsbs(Fraction(11, 100))
    consumed = merge_vars(p, "V", ("X1", "X2"))
    assert consumed.names == ("V",)
    assert consumed.prob(((0, 1),)) == Fraction(11, 200)
    kept = merge_vars(p, "V", ("X1", "X2"), keep=True)
    assert set(kept.names) == {"V", "X1", "X2"}
    assert kept.prob(((0, 1), 0, 1)) == Fraction(11, 200)


def _fraction_factorizes(pmf, a, b, c):
    """The exact factorization test in Fraction arithmetic, kept as the reference."""
    abc = marginalize(pmf, a + b + c)
    ab = dict(marginalize(pmf, a + b).items())
    bc = dict(marginalize(pmf, b + c).items())
    bm = dict(marginalize(pmf, b).items())
    la, lb = len(a), len(b)
    for key, p in abc.items():
        ka, kb, kc = key[:la], key[la:la + lb], key[la + lb:]
        if p * bm.get(kb, Fraction(0)) != ab.get(ka + kb, Fraction(0)) * bc.get(kb + kc, Fraction(0)):
            return False
    return True


def _weights(draw, size):
    """`size` integer weights, zeros allowed, not all zero."""
    weights = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    if not any(weights):
        weights[0] = 1
    return weights


@settings(max_examples=300, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3),
       chain=st.booleans())
def test_integer_factorizes_matches_fraction_reference(data, sizes, chain):
    """On chains A -> B -> C (which factorize) and on generic laws, and for
    every assignment of A, B, C to the blocks a, b, c or to none."""
    keys = list(itertools.product(*(range(size) for size in sizes)))
    if chain:
        pa = _weights(data.draw, sizes[0])
        pb = {x: _weights(data.draw, sizes[1]) for x in range(sizes[0])}
        pc = {y: _weights(data.draw, sizes[2]) for y in range(sizes[1])}
        raw = {(x, y, z): Fraction(pa[x] * pb[x][y] * pc[y][z], sum(pb[x]) * sum(pc[y]))
               for x, y, z in keys}
    else:
        raw = dict(zip(keys, _weights(data.draw, len(keys))))
    total = sum(raw.values())
    pmf = JointPmf([(name, Alphabet(tuple(range(size))))
                    for name, size in zip("ABC", sizes)],
                   {key: Fraction(p) / total for key, p in raw.items()})
    if chain:
        assert _factorizes(pmf, ["A"], ["B"], ["C"])
    blocks = data.draw(st.lists(st.sampled_from("abcx"), min_size=3, max_size=3))
    a, b, c = ([name for name, blk in zip("ABC", blocks) if blk == g] for g in "abc")
    assert _factorizes(pmf, a, b, c) == _fraction_factorizes(pmf, a, b, c)


def _reference_sample(pmf, n, seed, count):
    """The block sampler as formed from the exact table, kept as the
    reference: the support in table order and float(prob(key)) per key."""
    rng = np.random.default_rng(seed)
    support = [key for key, p in pmf.items() if p > 0]
    probs = np.array([float(pmf.prob(k)) for k in support], dtype=float)
    probs = probs / probs.sum()
    idx = rng.choice(len(support), size=(count, n), p=probs)
    return [tuple(support[j] for j in row) for row in idx]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 4))
def test_sample_matches_reference_formula(data, sizes, n, seed, count):
    """Random exact pmfs with zero entries, their table in shuffled order:
    :func:`inverse_cdf` on the positive weights draws the letters of the
    Fraction rule (:func:`letters`), and those are the letters
    ``Generator.choice`` draws on the float probabilities, except where a
    uniform lies within 2^-50 of a boundary."""
    keys = list(itertools.product(*(range(size) for size in sizes)))
    weights = data.draw(st.lists(st.integers(0, 1000), min_size=len(keys),
                                 max_size=len(keys)))
    if not any(weights):
        weights[0] = 1
    order = data.draw(st.permutations(range(len(keys))))
    total = sum(weights)
    pmf = JointPmf([(name, Alphabet(tuple(range(size)))) for name, size in zip("ABC", sizes)],
                   {keys[k]: Fraction(weights[k], total) for k in order})
    exact = letters(pmf, n, seed, count)
    support = [key for key, p in pmf.items() if p > 0]
    positive = pmf.weights[pmf.weights > 0]
    uniforms = np.random.default_rng(seed).random((count, n))
    drawn = inverse_cdf(positive, [len(positive)], 0, uniforms)
    assert [tuple(support[i] for i in row) for row in drawn] == exact
    for row, reference, us in zip(exact, _reference_sample(pmf, n, seed, count),
                                  uniforms.tolist()):
        for letter, other, u in zip(row, reference, us):
            assert letter == other or near_boundary(positive.tolist(), u)


def _seeds():
    """Integer seeds and SeedSequences with spawn keys: seeds that
    ``default_rng`` takes, as `encode` and `decode` take them."""
    keyed = st.builds(lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
                      st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 16)),
                      st.lists(st.integers(0, 3), max_size=2).map(tuple))
    return st.integers(0, 2 ** 64 - 1) | keyed


def _choice_table(weights):
    """The cumulative float table that ``Generator.choice(len(p), p=p / p.sum())``
    searches for p = float(Fraction(w, total)), formed as it forms it."""
    total = sum(weights)
    p = np.array([float(Fraction(w, total)) for w in weights])
    cdf = (p / p.sum()).cumsum()
    return cdf / cdf[-1]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), top=st.sampled_from([1, 2 ** 20, 2 ** 52, 2 ** 61, 2 ** 80]),
       size=st.sampled_from([None, 1, 7, (3, 4)]), seed=_seeds(), as_array=st.booleans())
@example(data=None, top=5, size=None, seed=0, as_array=False)   # a single-item law
@example(data=None, top=5, size=(2, 3), seed=np.random.SeedSequence((9, 4), spawn_key=(1, 0)),
         as_array=True)
def test_draw_matches_generator_choice(data, top, size, seed, as_array):
    """:func:`inverse_cdf` at the uniforms of ``default_rng(seed)`` draws the
    indices that ``default_rng(seed).choice(len(p), size, p=p / p.sum())``
    returns for p = float(Fraction(w, total)) of integer weights up to 2^80
    (given as an int64 array where they fit, else as Python ints), except
    where a uniform lies within 2^-50 of a law boundary; and it draws the
    Fraction rule's index (:func:`exact_place`) everywhere."""
    weights = [top] if data is None else data.draw(
        st.lists(st.integers(0, top), min_size=1, max_size=12).filter(any))
    total = sum(weights)
    array = np.array(weights, dtype=np.int64 if as_array and total < 1 << 63 else object)
    probs = np.array([float(Fraction(w, total)) for w in weights])
    expected = np.random.default_rng(seed).choice(len(probs), size, p=probs / probs.sum())
    uniforms = np.random.default_rng(seed).random(size)
    got = inverse_cdf(array, [len(weights)], 0, uniforms)
    assert np.shape(got) == np.shape(expected)
    for place, other, u in zip(np.ravel(got).tolist(), np.ravel(expected).tolist(),
                               np.ravel(uniforms).tolist()):
        assert place == exact_place(weights, u)
        assert place == other or near_boundary(weights, u)


_ULP = 2.0 ** -53


def _boundary_doubles(weights) -> list:
    """0, the largest double below 1, and for each boundary prefix[k] / total
    of the law the double just below it and the first at or above it."""
    total, out = sum(weights), [0.0, 1 - _ULP]
    for p in itertools.accumulate(weights):
        if total:
            at = -(-p * 2 ** 53 // total)   # the least m with m / 2^53 >= p / total
            out += [m * _ULP for m in (at - 1, at) if 0 <= m < 2 ** 53]
    return out


@st.composite
def _ragged_laws(draw):
    """1 to 4 laws of 0 to 5 integer weights each: empty, one-point,
    single-entry and all-zero laws, and weights up to 2^80, so that a
    law's total can pass 2^63."""
    top = draw(st.sampled_from([1, 9, 2 ** 40, 2 ** 62, 2 ** 80]))
    entry = st.integers(0, top) | st.just(0) | st.just(top)
    return draw(st.lists(st.lists(entry, max_size=5), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), laws=_ragged_laws(), as_array=st.booleans())
@example(data=None, laws=[[2 ** 62, 2 ** 62, 2 ** 62], [], [0, 0], [7]], as_array=True)
@example(data=None, laws=[[2 ** 80, 1], [5]], as_array=False)
def test_inverse_cdf_matches_the_fraction_reference(data, laws, as_array):
    """Ragged laws laid end to end, every law read at 0, at the largest
    double below 1 and at the doubles just below and at each of its
    boundaries (plus drawn doubles): each draw is the entry k with
    prefix[k - 1] <= Fraction(u) * total < prefix[k] (its place in the
    concatenated weights), -1 for a law of total 0.  Weights come as an
    int64 array where their sum fits and as Python ints otherwise.  Where
    the float table that ``Generator.choice`` searches decides otherwise, u
    lies within 2^-50 of a boundary."""
    flat = [w for law in laws for w in law]
    fits = sum(flat) < 1 << 63
    weights = np.array(flat, dtype=np.int64 if as_array and fits else object)
    starts = list(itertools.accumulate((len(law) for law in laws), initial=0))
    draws = [(u, k) for k, law in enumerate(laws) for u in _boundary_doubles(law)]
    if data is not None:
        draws += data.draw(st.lists(st.tuples(st.integers(0, 2 ** 53 - 1).map(lambda m: m * _ULP),
                                              st.integers(0, len(laws) - 1)), max_size=6))
    uniforms = np.array([u for u, _ in draws])
    got = inverse_cdf(weights, [len(law) for law in laws], np.array([k for _, k in draws]),
                      uniforms).tolist()
    for place, (u, k) in zip(got, draws):
        law, exact = laws[k], exact_place(laws[k], u)
        assert place == (exact if exact < 0 else starts[k] + exact)
        if exact >= 0:
            other = int(_choice_table(law).searchsorted(u, side="right"))
            assert other == exact or near_boundary(law, u)
    # one law for every draw, the uniforms in any shape
    law = max(laws, key=sum)
    block = np.array(_boundary_doubles(law)[:6] * 2).reshape(2, -1)
    got = inverse_cdf(np.array(law, dtype=object), [len(law)], 0, block)
    assert got.shape == block.shape
    assert got.tolist() == [[exact_place(law, u) for u in row] for row in block.tolist()]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5])
def test_generator_doubles_are_multiples_of_2_to_the_minus_53(seed):
    """The premise of :func:`inverse_cdf`: every double that
    ``Generator.random`` returns is m / 2^53 for an integer 0 <= m < 2^53,
    the top 53 bits of one raw 64-bit word of its PCG64 stream."""
    uniforms = np.random.default_rng(seed).random(100_000)
    raw = np.random.PCG64(seed).random_raw(100_000)
    m = uniforms * 2.0 ** 53
    assert np.array_equal(m, np.floor(m)) and m.min() >= 0 and m.max() < 2.0 ** 53
    assert np.array_equal(m.astype(np.uint64), raw >> np.uint64(11))


# -- the integer-array core against the Fraction-dict reference ---------------------
#
# The reference keeps each law as its variables and a dict from symbol tuples
# to Fractions in table order, and each operation as a loop over that dict:
# cells in order of first appearance, Fraction sums, floats summed per cell
# in table order.  The arrays must give the same rows in the same order, the
# same Fractions and the same float bits.


class _Ref:
    def __init__(self, variables, table):
        self.variables = list(variables)
        self.names = [name for name, _ in self.variables]
        self.table = dict(table)

    def pos(self, names):
        return [self.names.index(name) for name in names]


def _ref_sum(rows, positions):
    table = {}
    for key, p in rows:
        sub = tuple(key[pos] for pos in positions)
        table[sub] = table.get(sub, Fraction(0)) + p
    return table


def _ref_marginalize(ref, keep):
    positions = ref.pos(keep)
    return _Ref([ref.variables[p] for p in positions], _ref_sum(ref.table.items(), positions))


def _ref_condition(ref, target, given):
    hit = [(key, p) for key, p in ref.table.items()
           if all(key[ref.names.index(name)] == sym for name, sym in given.items())]
    mass = sum((p for _, p in hit), Fraction(0))
    if mass == 0:
        raise UnsupportedConditionError("zero mass")
    positions = ref.pos(target)
    return _Ref([ref.variables[p] for p in positions],
                {k: p / mass for k, p in _ref_sum(hit, positions).items()})


def _ref_merge(ref, new_name, parts, keep):
    part_pos = ref.pos(parts)
    rest = [k for k in range(len(ref.names)) if keep or k not in part_pos]
    symbols = tuple(itertools.product(*(ref.variables[p][1].symbols for p in part_pos)))
    table = {}
    for key, p in ref.table.items():
        new = (tuple(key[q] for q in part_pos),) + tuple(key[k] for k in rest)
        table[new] = table.get(new, Fraction(0)) + p
    return _Ref([(new_name, Alphabet(symbols))] + [ref.variables[k] for k in rest], table)


def _ref_apply(ref, channel):
    positions = ref.pos([name for name, _ in channel.inputs])
    table = {}
    for key, p in ref.table.items():
        for out, q in channel.rows[tuple(key[pos] for pos in positions)].items():
            table[key + out] = table.get(key + out, Fraction(0)) + p * q
    return _Ref(ref.variables + list(channel.outputs), table)


def _ref_build_joint(config, ref, channels):
    w_vars = [(w_name(i), dict(o for c in config.sharing for o in channels[c].outputs)[w_name(i)])
              for i in config.encoders]
    table = {}
    for src_key, p_src in ref.table.items():
        assign = dict(zip(ref.names, src_key))
        rows = [(channels[cell], channels[cell].rows[
            tuple(assign[name] for name, _ in channels[cell].inputs)]) for cell in config.sharing]
        for combo in itertools.product(*(row.items() for _, row in rows)):
            p, w = p_src, {}
            for (channel, _), (out, q) in zip(rows, combo):
                p *= q
                w.update(zip((name for name, _ in channel.outputs), out))
            key = tuple(w[name] for name, _ in w_vars) + src_key
            table[key] = table.get(key, Fraction(0)) + p
    return _Ref(w_vars + ref.variables, table)


def _ref_factorizes(ref, a, b, c):
    rows = list(ref.table.items())
    abc, ab, bc, bm = (_ref_sum(rows, ref.pos(g)) for g in (a + b + c, a + b, b + c, b))
    la, lb = len(a), len(b)
    return all(p * bm[k[la:la + lb]] == ab[k[:la + lb]] * bc[k[la:]] for k, p in abc.items())


def _ref_float_marginal(ref, names):
    floats = [(key, float(p)) for key, p in ref.table.items() if p > 0]
    positions = ref.pos(names)
    table = {}
    for key, p in floats:
        sub = tuple(key[pos] for pos in positions)
        table[sub] = table.get(sub, 0.0) + p
    return list(table.values())


def _ref_entropy(ref, names):
    total = 0.0
    for p in _ref_float_marginal(ref, names):
        total -= p * math.log2(p)
    return max(total, 0.0)


def _alphabet(draw, size):
    """Integer symbols in either order, or tuple symbols."""
    return Alphabet(draw(st.sampled_from([tuple(range(size)), tuple(range(size))[::-1],
                                          tuple((k, "t") for k in range(size))])))


def _weights_over(draw, count):
    """`count` integer weights, zeros allowed and not all zero, up to a top
    that puts the denominator below 2^53, in [2^53, 2^63) or above 2^63."""
    top = draw(st.sampled_from([9, 2 ** 40, 2 ** 58, 2 ** 80]))
    weights = draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
    if not any(weights):
        weights[0] = top
    return weights


def _table(draw, keys):
    """A law over some of `keys`, inserted in a drawn order."""
    keys = draw(st.permutations(keys))
    keys = keys[:draw(st.integers(1, len(keys)))]
    weights = _weights_over(draw, len(keys))
    return {key: Fraction(w, sum(weights)) for key, w in zip(keys, weights)}


@st.composite
def _laws(draw, names="ABC"):
    variables = [(name, _alphabet(draw, draw(st.integers(1, 3))))
                 for name in names[:draw(st.integers(1, len(names)))]]
    table = _table(draw, list(itertools.product(*(a.symbols for _, a in variables))))
    return JointPmf(variables, table), _Ref(variables, table)


@st.composite
def _channels(draw, inputs, outputs):
    """A channel whose rows list their outputs in drawn orders (a binary
    symmetric row of x = 1 may list (1,) before (0,)), zero entries allowed."""
    out_keys = list(itertools.product(*(a.symbols for _, a in outputs)))
    rows = {key: _table(draw, out_keys)
            for key in itertools.product(*(a.symbols for _, a in inputs))}
    return ConditionalPmf(inputs, outputs, rows)


def _same(pmf, ref):
    """Same variables, rows in the same order, the same Fractions."""
    assert pmf.variables == tuple(ref.variables)
    assert pmf.items() == list(ref.table.items())
    for names in itertools.chain.from_iterable(
            itertools.permutations(ref.names, r) for r in range(len(ref.names) + 1)):
        assert pmf.float_marginal(names).tolist() == _ref_float_marginal(ref, names)
        assert entropy(pmf, list(names)) == _ref_entropy(ref, names)


def _blocks(draw, names):
    """Disjoint blocks a, b, c of `names` (some names in none)."""
    where = draw(st.lists(st.sampled_from("abcx"), min_size=len(names), max_size=len(names)))
    return [[name for name, w in zip(names, where) if w == g] for g in "abc"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), law=_laws())
def test_array_core_matches_dict_reference(data, law):
    """marginalize, condition, merge_vars, check_markov, float_marginal and
    entropy on laws in table order other than product order, with zero-mass
    rows, tuple symbols and denominators below 2^53, up to 2^63 and beyond."""
    pmf, ref = law
    _same(pmf, ref)
    keep = data.draw(st.permutations(ref.names))[:data.draw(st.integers(0, len(ref.names)))]
    _same(marginalize(pmf, keep), _ref_marginalize(ref, keep))
    given_names = keep[:data.draw(st.integers(0, len(keep)))]
    assignment = {name: data.draw(st.sampled_from(pmf.alphabet(name).symbols))
                  for name in given_names}
    target = [name for name in ref.names if name not in assignment]
    try:
        expected = _ref_condition(ref, target, assignment)
    except UnsupportedConditionError:
        with pytest.raises(UnsupportedConditionError):
            condition(pmf, target, assignment)
    else:
        _same(condition(pmf, target, assignment), expected)
    parts = data.draw(st.permutations(ref.names))[:data.draw(st.integers(1, len(ref.names)))]
    keep_parts = data.draw(st.booleans())
    _same(merge_vars(pmf, "M", parts, keep=keep_parts), _ref_merge(ref, "M", parts, keep_parts))
    a, b, c = _blocks(data.draw, ref.names)
    assert check_markov(pmf, a, b, c) == _ref_factorizes(ref, a, b, c)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), law=_laws("AB"))
def test_apply_conditional_matches_dict_reference(data, law):
    """A channel from some of the law's variables to one or two fresh ones;
    the outputs then depend on the rest only through the inputs."""
    pmf, ref = law
    inputs = data.draw(st.permutations(ref.names))[:data.draw(st.integers(0, len(ref.names)))]
    outputs = [(name, _alphabet(data.draw, data.draw(st.integers(1, 3))))
               for name in ("Y", "Z")[:data.draw(st.integers(1, 2))]]
    channel = data.draw(_channels([(name, pmf.alphabet(name)) for name in inputs], outputs))
    joint, expected = apply_conditional(pmf, channel), _ref_apply(ref, channel)
    _same(joint, expected)
    rest = [name for name in ref.names if name not in inputs]
    out = [name for name, _ in outputs]
    assert check_markov(joint, rest, inputs, out)
    a, b, c = _blocks(data.draw, expected.names)
    assert check_markov(joint, a, b, c) == _ref_factorizes(expected, a, b, c)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), law=_laws("XY"), cells=st.sampled_from([((1,),), ((1, 2),), ((1,), (2,)),
                                                                ((1, 2), (3,))]))
def test_build_joint_matches_dict_reference(data, law, cells):
    """One channel per sharing cell, from a drawn source variable to the
    cell's W variables; the first cell varies slowest."""
    source, ref = law
    encoders = tuple(i for cell in cells for i in cell)
    config = NetworkConfig(encoders=encoders, sharing=cells, decoders=(1,),
                           codewords_to={1: encoders}, reproductions={1: ()},
                           side_info={1: None})
    channels = {}
    for cell in cells:
        name = data.draw(st.sampled_from(ref.names))
        outputs = [(w_name(i), _alphabet(data.draw, data.draw(st.integers(1, 2)))) for i in cell]
        channels[cell] = data.draw(_channels([(name, source.alphabet(name))], outputs))
    _same(build_joint(config, source, channels), _ref_build_joint(config, ref, channels))
