import bisect
import dataclasses
import itertools
import math
import operator
import os
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from multiterm import codec, hashing
from multiterm.codec import (
    CodeInstance,
    SimReport,
    _check_budget,
    crng_law,
    exact_error,
    realized_size,
    simulate,
)
from multiterm.errors import (
    BudgetExceededError,
    ConfigurationError,
    DecoderAbort,
    EmptySupportError,
    EncoderAbort,
)
from multiterm.hashing import BinningEnsemble, HashFunction, make_ensemble
from multiterm.network import (
    DistortionMeasure,
    NetworkConfig,
    identity_channel,
    identity_reproducer,
    w_name,
)
from multiterm.probability import Alphabet, JointPmf, dsbs, inverse_cdf, marginalize
from multiterm.scenarios import build_scenario, scenario_names

B = Alphabet((0, 1))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def with_g(code, g):
    """The same code with the codeword functions `g` pinned instead of sampled."""
    return dataclasses.replace(code, g={**code.g, **g})


def identity_linear(q, n):
    """The identity matrix as a member of the full linear ensemble."""
    rows = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    return HashFunction("linear", q ** n, q ** n, matrix=rows, q=q, n=n)


def exact_places(weights, uniforms) -> list:
    """The exact inverse CDF of the law of non-negative rational `weights` at
    each double u of `uniforms`, in Fractions: the entry k with
    prefix[k - 1] <= u * total < prefix[k]."""
    prefix = list(itertools.accumulate(weights, initial=0))
    return [bisect.bisect_right(prefix, Fraction(u) * prefix[-1]) - 1 for u in uniforms]


def choice(law, seed):
    """One item of `law` = (items, weights' total), the exact inverse CDF
    (:func:`exact_places`) at the first double of ``default_rng(seed)`` (a
    seed or a positioned bit generator): the reference for the draws of
    `encode`, `decode` and `simulate`."""
    items, _ = law
    u = np.random.default_rng(seed).random()
    return items[exact_places([w for _, w in items], [u])[0]][0]


def crng_sample(base, constraint, seed):
    """One draw from the constrained, renormalized distribution."""
    return choice((crng_law(base, constraint), 1), seed)


def fraction_law(law):
    """An integer law (items, total) as (blocks, probability) pairs."""
    items, total = law
    return [(blocks, Fraction(w, total)) for blocks, w in items]


# -- constrained draws ------------------------------------------------------------


def test_crng_law_trivial_constraint_is_base():
    base = [("a", Fraction(1, 2)), ("b", Fraction(1, 4)), ("c", Fraction(1, 4))]
    law = crng_law(base, lambda item: True)
    assert law == base


def test_crng_law_renormalizes():
    base = [("a", Fraction(1, 2)), ("b", Fraction(1, 4)), ("c", Fraction(1, 4))]
    law = dict(crng_law(base, lambda item: item in ("a", "b")))
    assert law == {"a": Fraction(2, 3), "b": Fraction(1, 3)}


def test_crng_law_empty_support():
    with pytest.raises(EmptySupportError):
        crng_law([("a", Fraction(1))], lambda item: False)


def test_crng_sample_matches_restricted_law_chi_square():
    # binary W-blocks, n = 4, parity constraint through a linear map
    n = 4
    ens = make_ensemble("linear", 2 ** n, 2, q=2)
    f = ens.sample_function(1)
    base_probs = {}
    p = 0.3
    for w in range(16):
        bits = [(w >> k) & 1 for k in range(n)]
        prob = 1.0
        for bit in bits:
            prob *= p if bit else (1 - p)
        base_probs[w] = prob
    base = list(base_probs.items())
    law = crng_law(base, lambda w: f(w) == 0)
    draws = {}
    rng_master = np.random.SeedSequence(5)
    samples = 100_000
    seeds = rng_master.spawn(1)[0]
    rng = np.random.default_rng(seeds)
    probs = np.array([float(q) for _, q in law])
    probs /= probs.sum()
    idx = rng.choice(len(law), size=samples, p=probs)
    for i in idx:
        draws[law[i][0]] = draws.get(law[i][0], 0) + 1
    observed = [draws.get(w, 0) for w, _ in law]
    expected = [float(q) / sum(float(q2) for _, q2 in law) * samples for _, q in law]
    assert chisquare(observed, expected).pvalue > 0.001


def test_inverse_cdf_decides_large_integer_weights_exactly():
    """Large integer weights, as an int64 array or as Python ints, are drawn
    in integers: at 0, at the largest double below 1 and at the doubles just
    below and at each boundary, the draw is the Fraction rule's entry, where
    the float table that ``Generator.choice`` forms from
    float(Fraction(w, total)) misplaces a boundary double."""
    weights = [1312494765889401333, 1849897281939139295, 145514431571737540]
    total = sum(weights)
    uniforms = [0.0, 1 - 2.0 ** -53]
    for p in itertools.accumulate(weights[:-1]):
        at = -(-p * 2 ** 53 // total)
        uniforms += [(at - 1) * 2.0 ** -53, at * 2.0 ** -53]
    expected = exact_places(weights, uniforms)
    assert expected == [0, 2, 0, 1, 1, 2]
    for given in (np.array(weights, dtype=np.int64), np.array(weights, dtype=object)):
        assert inverse_cdf(given, [3], 0, np.array(uniforms)).tolist() == expected
    p = np.array([float(Fraction(w, total)) for w in weights])
    cdf = (p / p.sum()).cumsum()
    assert (cdf / cdf[-1]).searchsorted(uniforms, side="right").tolist() != expected


def test_crng_sample_deterministic_in_seed():
    base = [(w, Fraction(1, 8)) for w in range(8)]
    a = crng_sample(base, lambda w: w % 2 == 0, seed=42)
    b = crng_sample(base, lambda w: w % 2 == 0, seed=42)
    assert a == b


# -- encoder behavior --------------------------------------------------------------


def small_sw_code(n=2, seed=3, rates=None):
    scenario = build_scenario("slepian-wolf")
    return scenario, scenario.make_code(n, rates=rates, seed=seed)


def test_encode_lossless_specialization_is_syndrome_former():
    scenario, code = small_sw_code(n=3)
    x_block = (0, 1, 1)
    blocks, m = code.encode((1,), x_block, seed=0)
    assert blocks[1] == x_block  # W identically X
    assert m[1] == code.g[1](code.block_to_int(1, x_block))


def test_unconstrained_when_f_image_is_one():
    # |C_i| = 1 means the constrained law equals the channel law
    scenario = build_scenario("wyner-ziv-binary")
    code = scenario.make_code(2, aux_rates={1: 0.0}, seed=1)
    law = fraction_law(code.cell_constrained_law((1,), (0, 1)))
    ch = scenario.channels[(1,)]
    expect = {}
    for w1 in (0, 1):
        for w2 in (0, 1):
            expect[(w1, w2)] = ch.rows[(0,)][(w1,)] * ch.rows[(1,)][(w2,)]
    for blocks, p in law:
        assert p == expect[blocks[1]]


def test_encoder_constrained_law_matches_direct_formula():
    """Encoder draw law equals channel law restricted & renormalized."""
    scenario = build_scenario("wyner-ziv-binary")
    code = scenario.make_code(3, aux_rates={1: 1.0 / 3.0}, seed=5)
    x_block = (0, 1, 0)
    ch = scenario.channels[(1,)]
    numer = {}
    for bits in itertools.product((0, 1), repeat=3):
        p = Fraction(1)
        for b, x in zip(bits, x_block):
            p *= ch.rows[(x,)][(b,)]
        w_int = code.block_to_int(1, bits)
        if code.f[1](w_int) == code.c[1]:
            numer[bits] = p
    total = sum(numer.values())
    law = dict((blocks[1], p)
               for blocks, p in fraction_law(code.cell_constrained_law((1,), x_block)))
    assert law == {bits: p / total for bits, p in numer.items()}


def test_encoder_abort_on_empty_constraint():
    # deterministic channel + nontrivial f: some constraint values are empty
    cfg = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1,),
        codewords_to={1: (1,)}, reproductions={1: ()}, side_info={1: None})
    src = JointPmf([("X1", B)], {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    channels = {(1,): identity_channel("X1", "W1", B)}
    n = 2
    f_ens = BinningEnsemble(4, 4)
    f = f_ens.sample_function(0)
    g = BinningEnsemble(4, 1).sample_function(0)
    x_block = (0, 1)
    w_int = 0b01
    wrong_c = (f(w_int) + 1) % 4
    code = CodeInstance(n=n, config=cfg, source=src, channels=channels,
                        reproducers={}, f={1: f}, g={1: g}, c={1: wrong_c})
    with pytest.raises(EncoderAbort):
        code.cell_constrained_law((1,), x_block)


# -- decoder behavior ---------------------------------------------------------------


def test_decode_injective_code_recovers_truth():
    scenario, code = small_sw_code(n=2, rates={1: 1.0, 2: 1.0}, seed=17)
    # identity g on both encoders makes (f, g) injective
    ident = identity_linear(2, 2)
    code = with_g(scenario.make_code(2, rates={1: 1.0, 2: 1.0}, seed=17), {1: ident, 2: ident})
    x1, x2 = (0, 1), (1, 1)
    _, m1 = code.encode((1,), x1, seed=0)
    _, m2 = code.encode((2,), x2, seed=0)
    m = {**m1, **m2}
    w_hat, z = code.decode(1, m, None, seed=9)
    assert w_hat == {1: x1, 2: x2}
    assert z == {1: x1, 2: x2}


def test_decode_weighs_its_class_once(monkeypatch):
    """A crng `decode` or `decoder_class_law` weighs its class once (one
    `_DecoderClasses.laws` call); a MAP `decode` checks the class law for a
    candidate of positive weight, then picks.  The g-value lookup is filled
    by the first call and kept."""
    scenario, code = small_sw_code(n=2, seed=3)
    _, m1 = code.encode((1,), (0, 0), seed=0)
    _, m2 = code.encode((2,), (0, 1), seed=0)
    m = {**m1, **m2}
    calls = []
    laws = codec._DecoderClasses.laws

    def counted(self, cls, observed, rule):
        calls.append(rule)
        return laws(self, cls, observed, rule)

    monkeypatch.setattr(codec._DecoderClasses, "laws", counted)
    code.decode(1, m, None, seed=0)
    assert calls == ["crng"]
    lookup = dict(code._decoder(1).lookup)
    assert len(lookup) == len(code._decoder(1).index.keys)
    code.decoder_class_law(1, m, None)
    code.decode(1, m, None, seed=0, rule="map")
    assert calls == ["crng", "crng", "crng", "map"]
    assert code._decoder(1).lookup == lookup


def test_decoder_law_matches_posterior_formula():
    scenario, code = small_sw_code(n=2, seed=3)
    x1, x2 = (0, 0), (0, 1)
    _, m1 = code.encode((1,), x1, seed=0)
    _, m2 = code.encode((2,), x2, seed=0)
    m = {**m1, **m2}
    law = dict((tuple(blocks[i] for i in (1, 2)), p)
               for blocks, p in fraction_law(code.decoder_class_law(1, m, None)))
    # direct: product posterior restricted to the class
    base = dsbs(Fraction(11, 100))
    numer = {}
    for w1 in itertools.product((0, 1), repeat=2):
        for w2 in itertools.product((0, 1), repeat=2):
            p = Fraction(1)
            for a, b in zip(w1, w2):
                p *= base.prob((a, b))
            if (code.g[1](code.block_to_int(1, w1)) == m[1]
                    and code.g[2](code.block_to_int(2, w2)) == m[2]):
                numer[(w1, w2)] = p
    total = sum(numer.values())
    assert law == {k: p / total for k, p in numer.items()}


def test_decode_with_perfect_side_info_is_point_mass():
    # Y equals the source: the posterior given y is a point mass at w = y
    cfg = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1,),
        codewords_to={1: (1,)}, reproductions={1: ()}, side_info={1: "Y"})
    table = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    src = JointPmf([("X1", B), ("Y", B)], table)
    channels = {(1,): identity_channel("X1", "W1", B)}
    n = 2
    g = BinningEnsemble(4, 1).sample_function(0)
    f = BinningEnsemble(4, 1).sample_function(1)
    code = CodeInstance(n=n, config=cfg, source=src, channels=channels,
                        reproducers={}, f={1: f}, g={1: g}, c={1: f(0)})
    law = fraction_law(code.decoder_class_law(1, {1: g(0)}, (1, 0)))
    assert law == [({1: (1, 0)}, 1)]


def _product_and_filter_law(code, j, m, y_block):
    """The decoder law built per class: the product of the per-letter posterior
    supports given the side-information letters, filtered by the (f, g)
    constraints; None for an empty class."""
    ij = tuple(code.config.codewords_to[j])
    y = code.config.side_info.get(j)
    letter = marginalize(code.model.joint, [w_name(i) for i in ij] + ([y] if y else []))
    if y is not None:
        rows = {}
        for k, p in letter.items():
            if p > 0:
                rows.setdefault(k[-1], []).append((k[:-1], p))
        per_letter = [rows.get(yv, []) for yv in y_block]
    else:
        per_letter = [[(k, p) for k, p in letter.items() if p > 0]] * code.n
    items = []
    for combo in itertools.product(*per_letter):
        p = Fraction(1)
        for _, pl in combo:
            p *= pl
        items.append(({i: tuple(key[pos] for key, _ in combo) for pos, i in enumerate(ij)}, p))
    try:
        return crng_law(items, lambda blocks: all(
            code.f[i](code.block_to_int(i, blocks[i])) == code.c[i]
            and code.g[i](code.block_to_int(i, blocks[i])) == m[i] for i in ij))
    except EmptySupportError:
        return None


def _channel_product_law(code, cell, x_block):
    """The encoder law built per source block: the product of the channel rows
    of the x letters, filtered by the f constraints; None when empty."""
    ch = code.channels[cell]
    items = []
    for combo in itertools.product(*(ch.rows[(x,)].items() for x in x_block)):
        p = Fraction(1)
        for _, pl in combo:
            p *= pl
        items.append(({i: tuple(key[pos] for key, _ in combo) for pos, i in enumerate(cell)}, p))
    try:
        return crng_law(items, lambda blocks: all(
            code.f[i](code.block_to_int(i, blocks[i])) == code.c[i] for i in cell))
    except EmptySupportError:
        return None


def _as_mapping(law, ij):
    return None if law is None else {tuple(blocks[i] for i in ij): p for blocks, p in law}


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(scenario_names()), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_class_indexed_law_matches_product_and_filter(name, n, seed):
    """Every encoder law of a random code equals the filtered channel product
    as a mapping; every decoder class gives the same (blocks, probability)
    list, in the same order, and the MAP decoder picks its reference argmax."""
    code = build_scenario(name).make_code(n, seed=seed)
    cfg = code.config
    for cell in map(tuple, cfg.sharing):
        _, x_alph = code.channels[cell].inputs[0]
        for x_block in itertools.product(x_alph.symbols, repeat=n):
            expected = _channel_product_law(code, cell, x_block)
            try:
                law = fraction_law(code.cell_constrained_law(cell, x_block))
            except EncoderAbort:
                law = None
            assert _as_mapping(law, cell) == _as_mapping(expected, cell)
    for j in cfg.decoders:
        ij = tuple(cfg.codewords_to[j])
        y = cfg.side_info.get(j)
        y_blocks = [None]
        if y:
            y_blocks = list(itertools.product(code.source.alphabet(y).symbols, repeat=n))
        for values in itertools.product(*(range(code.g[i].image_size) for i in ij)):
            m = dict(zip(ij, values))
            for y_block in y_blocks:
                expected = _product_and_filter_law(code, j, m, y_block)
                try:
                    law = fraction_law(code.decoder_class_law(j, m, y_block))
                    w_hat, _ = code.decode(j, m, y_block, seed=0, rule="map")
                except DecoderAbort:
                    law = w_hat = None
                assert law == expected
                assert w_hat == (None if expected is None else map_estimate(expected, ij))


@pytest.mark.parametrize("name", ["slepian-wolf", "wyner-ziv-binary",
                                  "heegard-berger-two-decoders"])
def test_each_hash_runs_once_per_block(name, monkeypatch):
    """Encoders, decoders and the oracle share one hash evaluation per W-block."""
    scenario = build_scenario(name)
    code = scenario.make_code(2, seed=4)
    calls = {}
    original = HashFunction.__call__

    def counting(self, w):
        calls[id(self), w] = calls.get((id(self), w), 0) + 1
        return original(self, w)
    monkeypatch.setattr(HashFunction, "__call__", counting)
    for rule in ("crng", "map"):
        exact_error(code, 0.01, scenario.default_D, rule=rule)
    simulate(code, 0.01, scenario.default_D, trials=50, seed=1)
    assert calls
    assert max(calls.values()) == 1


def map_estimate(law, ij):
    """The MAP tie-break reference: the argmax of a restricted posterior
    given as its (blocks, weight) items, ties broken toward the
    lexicographically smallest block tuple (encoder order, then letter
    order)."""
    ij = tuple(ij)
    return min(law, key=lambda item: (-item[1], tuple(tuple(item[0][i]) for i in ij)))[0]


def test_map_estimate_lexicographic_tie_break():
    law = [({1: (1, 1)}, Fraction(1, 2)), ({1: (0, 1)}, Fraction(1, 2))]
    assert map_estimate(law, (1,)) == {1: (0, 1)}


def test_map_agrees_with_most_probable():
    law = [({1: (0, 0)}, Fraction(1, 4)), ({1: (1, 0)}, Fraction(3, 4))]
    assert map_estimate(law, (1,)) == {1: (1, 0)}


def _decoder_over(letters, rows):
    """A `_DecoderClasses` that holds only a class index over `letters` (a
    symbol tuple per letter, one symbol per encoder) and `rows` (letter ids):
    all that `_pick` and its tie-break order read."""
    decoder = object.__new__(codec._DecoderClasses)
    decoder.index = codec._ClassIndex(letters=letters, rows=np.array(rows, dtype=np.uint8),
                                      cls=None, bounds=None, keys=None, row_of=None)
    return decoder


def _lexsort_pick(decoder, owner, starts, row, weight):
    """The MAP pick as one lexsort per batch: per entry, of its candidates of
    largest weight, the one with the smallest symbol ranks, encoder-major."""
    columns = list(zip(*decoder.index.letters))
    rank = np.array([[sorted(set(column)).index(w) for w in column] for column in columns],
                    dtype=np.int64).T
    best = weight == np.maximum.reduceat(weight, starts)[owner]
    digits = rank[decoder.index.rows[row]].transpose(0, 2, 1).reshape(len(row), -1)
    return row[np.lexsort([*digits.T[::-1], ~best, owner])[starts]]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), encoders=st.integers(1, 2), wide=st.booleans())
def test_pick_matches_lexsort_reference(data, encoders, wide):
    """`_pick` equals the lexsort reference on random classes with many tied
    weights, on one- and two-encoder indexes.  The rows run over a few
    letters that share symbols, so tied rows often agree on a prefix.  A
    wide index has letters with 40 symbols per encoder as well: at n = 6 its
    digits, read as one mixed-radix number, would pass 2^63 (40^12), and the
    order still places each row once."""
    if wide:
        encoders, n, size = 2, 6, 40
    else:
        n, size = data.draw(st.integers(1, 4)), 3
    # each encoder's symbols in a drawn order, so that ranks are not symbol ids
    symbols = [data.draw(st.permutations(["s%02d" % a for a in range(size)]))
               for _ in range(encoders)]
    grid = list(itertools.product(*[column[:3 if size == 3 else 2] for column in symbols]))
    letters = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=6, unique=True))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, len(letters) - 1)] * n),
                              min_size=1, max_size=30, unique=True))
    if wide:
        letters += list(zip(*symbols))[2:]
    decoder = _decoder_over(letters, rows)
    assert (math.prod(len(set(c)) for c in zip(*letters)) ** n >= 2 ** 63) == wide
    assert sorted(decoder.order.tolist()) == list(range(len(rows)))
    entries = data.draw(st.lists(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                          unique=True), min_size=1, max_size=8))
    # then every pair of rows, tied, so that the picks compare the whole order
    pairs = [list(pair) for pair in itertools.combinations(range(len(rows)), 2)]
    for entries, draw_weights in ((entries, True), (pairs, False)):
        row = np.array([r for e in entries for r in e], dtype=np.int64)
        if not len(row):
            continue
        owner = np.repeat(np.arange(len(entries)), [len(e) for e in entries])
        starts = np.cumsum([0] + [len(e) for e in entries[:-1]])
        weight = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(row),
                                             max_size=len(row))) if draw_weights
                          else [1] * len(row), dtype=np.int64)
        expected = _lexsort_pick(decoder, owner, starts, row, weight).tolist()
        assert decoder._pick(owner, starts, row, weight).tolist() == expected
        assert decoder._pick(owner, starts, row, weight.astype(object)).tolist() == expected


def test_pick_breaks_ties_encoder_major():
    """Of two tied candidates, the one whose first encoder's block comes
    first wins: ranks (0, 0 | 1, 0) before (0, 1 | 0, 0), though position by
    position (0, 1 | 0, 0) would come first."""
    letters = [(0, 0), (0, 1), (1, 0), (1, 1)]     # letter id = 2 * W1 + W2
    decoder = _decoder_over(letters, [(0, 2), (1, 0)])
    owner, starts, row = np.zeros(2, dtype=np.int64), np.array([0]), np.array([0, 1])
    assert decoder._pick(owner, starts, row, np.array([5, 5])).tolist() == [1]
    assert decoder._pick(owner, starts, row, np.array([5, 4])).tolist() == [0]


# -- exact oracle and simulation -------------------------------------------------------


SIMULATING = [name for name in scenario_names() if build_scenario(name).config.distortions]


def _block_distortion(measure, x_blocks, z_block) -> float:
    """The distortion of `z_block` from the measured source block, letter by
    letter: the fraction that differ (hamming) or whether any does."""
    x_block = x_blocks[measure.source]
    if measure.kind == "hamming":
        return sum(map(operator.ne, x_block, z_block)) / len(z_block)
    return 0.0 if x_block == z_block else 1.0


def _reference_exact_error(code, delta, D, rule):
    """The exact oracle in Fraction arithmetic, term by term, on the
    product-and-filter laws: (mismatch, exceed, encoder_abort)."""
    cfg = code.config
    bounds = {k: float(D[k]) + delta for k in cfg.reproduction_ids}
    encoder_laws, decoder_laws = {}, {}
    mismatch = abort = Fraction(0)
    exceed = {k: Fraction(0) for k in cfg.reproduction_ids}
    support = [(letter, p) for letter, p in code.source.items() if p > 0]
    for combo in itertools.product(support, repeat=code.n):
        letters = tuple(letter for letter, _ in combo)
        p_src = math.prod((p for _, p in combo), start=Fraction(1))
        blocks = {name: tuple(letter[pos] for letter in letters)
                  for pos, name in enumerate(code.source.names)}
        cell_laws = []
        for cell in cfg.sharing:
            key = (cell, blocks[code.channels[cell].inputs[0][0]])
            if key not in encoder_laws:
                encoder_laws[key] = _channel_product_law(code, *key)
            cell_laws.append(encoder_laws[key])
        if None in cell_laws:
            abort += p_src
            continue
        for combo in itertools.product(*cell_laws):
            w_blocks, weight = {}, p_src
            for cell_blocks, p in combo:
                w_blocks.update(cell_blocks)
                weight *= p
            p_all_match = Fraction(1)
            for j in cfg.decoders:
                ij = tuple(cfg.codewords_to[j])
                y = cfg.side_info.get(j)
                y_block = blocks[y] if y else None
                m = {i: code.g[i](code.block_to_int(i, w_blocks[i])) for i in ij}
                key = (j, tuple(m.values()), y_block)
                if key not in decoder_laws:
                    decoder_laws[key] = _product_and_filter_law(code, j, m, y_block)
                law = decoder_laws[key]
                if rule == "map":
                    law = [(map_estimate(law, ij), Fraction(1))]
                p_all_match *= sum((p for cand, p in law
                                    if all(cand[i] == w_blocks[i] for i in ij)), Fraction(0))
                for k in cfg.reproductions.get(j, ()):
                    rep = code.reproducers[k]
                    for cand, p in law:
                        named = {w_name(i): cand[i] for i in ij}
                        if y:
                            named[y] = y_block
                        z = tuple(map(rep.table.__getitem__,
                                      zip(*(named[a] for a in rep.args))))
                        if _block_distortion(cfg.distortions[k], blocks, z) > bounds[k]:
                            exceed[k] += weight * p
            mismatch += weight * (1 - p_all_match)
    return mismatch + abort, {k: v + abort for k, v in exceed.items()}, abort


def _separate_decoders():
    """Berger-Tung's two BSC cells, decoded apart: decoder j decodes only
    codeword j and reproduces X_j, with no side information.  So neither
    decoder sees the other cell's input, and with aux rates > 0 that cell's
    law totals still vary with the block it does not see."""
    scenario = build_scenario("berger-tung-binary")
    config = dataclasses.replace(scenario.config, decoders=(1, 2),
                                 codewords_to={1: (1,), 2: (2,)},
                                 reproductions={1: (1,), 2: (2,)}, side_info={1: None, 2: None})
    return dataclasses.replace(scenario, name="separate-decoders", config=config)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([*SIMULATING, "separate-decoders"]), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), rule=st.sampled_from(["crng", "map"]),
       aux=st.sampled_from([None, 0.5, 1.0]))
@example(name="separate-decoders", n=3, seed=1, rule="crng", aux=0.5)
@example(name="separate-decoders", n=3, seed=2, rule="map", aux=0.5)
def test_integer_oracle_matches_fraction_reference(name, n, seed, rule, aux):
    """The integer oracle equals the Fraction reference as Fractions; larger
    auxiliary rates make encoder aborts common.  The test-local
    :func:`_separate_decoders` has decoders that do not see every cell's
    input, so a decoder's pairs must keep apart source blocks with
    different cell totals."""
    scenario = _separate_decoders() if name == "separate-decoders" else build_scenario(name)
    aux_rates = None if aux is None else {i: aux for i in scenario.config.encoders}
    code = scenario.make_code(n, aux_rates=aux_rates, seed=seed)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    result = exact_error(code, delta, scenario.default_D, rule=rule)
    values = [result.mismatch, result.encoder_abort, *result.exceed.values()]
    assert all(type(v) is Fraction for v in values)
    assert (result.mismatch, result.exceed, result.encoder_abort) == \
        _reference_exact_error(code, delta, scenario.default_D, rule)


def test_pairs_merge_the_source_blocks_a_decoder_cannot_tell_apart(monkeypatch):
    """On the benchmark's seed-0 exact-oracle codes, each heegard-berger
    decoder sees Y_j and X1 of (X1, Y1, Y2), so its (source block, class)
    pairs merge over the Y blocks it does not see: 2,560 -> 320 at n = 3,
    192 -> 48 at n = 2, per decoder and batch.  A slepian-wolf decoder
    sees the whole source, and its 4,096 pairs stay."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import EXACT_CODES, default_delta, subseed

    counts = []
    pairs = codec._DecoderClasses.pairs

    def counted(self, batch, cls):
        out = pairs(self, batch, cls)
        block_pairs = np.unique(batch.block * len(self.index.bounds) + cls)
        counts.append((len(block_pairs), len(out[1])))
        return out

    monkeypatch.setattr(codec._DecoderClasses, "pairs", counted)
    expected = {("heegard-berger-two-decoders", 3): [(2560, 320)] * 2,
                ("heegard-berger-two-decoders", 2): [(192, 48)] * 2,
                ("slepian-wolf", 6): [(4096, 4096)]}
    for idx, (name, n, _) in enumerate(EXACT_CODES):
        if (name, n) not in expected:
            continue
        scenario = build_scenario(name)
        code = scenario.make_code(n, seed=subseed(0, 4, idx, 0))
        for rule in ("crng", "map"):
            counts.clear()
            exact_error(code, default_delta(scenario), scenario.default_D, rule)
            assert counts == expected[name, n]


def _simulating_codes(max_n):
    for name in SIMULATING:
        scenario = build_scenario(name)
        delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
        for n in range(1, max_n + 1):
            for aux in (None, 1.0):
                aux_rates = None if aux is None else {i: aux for i in scenario.config.encoders}
                yield scenario, delta, scenario.make_code(n, aux_rates=aux_rates, seed=n)


def test_batch_boundaries_neither_drop_nor_repeat_rows(monkeypatch):
    """A row cap of 5 splits source blocks, encoder draws, decoder classes and
    class candidates into many batches; every value stays the same."""
    cases = [(scenario, delta, code, rule, exact_error(code, delta, scenario.default_D, rule))
             for scenario, delta, code in _simulating_codes(3) for rule in ("crng", "map")]
    monkeypatch.setattr(codec, "_ROW_CAP", 5)
    for scenario, delta, code, rule, expected in cases:
        fresh = dataclasses.replace(code)
        assert exact_error(fresh, delta, scenario.default_D, rule) == expected


@pytest.mark.parametrize("rule", ["crng", "map"])
def test_exact_oracle_reads_decoder_laws_only_through_laws(monkeypatch, rule):
    """`exact_error` asks each decoder's laws through
    `_DecoderClasses.laws`, one call per decoder per batch, under either
    rule; the class candidates (`_classes`) are reached only inside it.  A
    row cap of 64 makes several batches; the values do not change."""
    cases = [(scenario, delta, code, exact_error(code, delta, scenario.default_D, rule))
             for scenario, delta, code in _simulating_codes(3)]
    laws, classes = codec._DecoderClasses.laws, codec._DecoderClasses._classes
    calls, batches, inside = [], [], []

    def spy_laws(self, cls, observed, law_rule):
        calls.append((self, law_rule))
        inside.append(self)
        try:
            return laws(self, cls, observed, law_rule)
        finally:
            inside.pop()

    def spy_classes(self, cls, observed):
        assert inside == [self], "_classes reached outside laws"
        return classes(self, cls, observed)

    original_batch = codec._Batch.__init__

    def spy_batch(self, *args):
        batches.append(self)
        original_batch(self, *args)

    monkeypatch.setattr(codec._DecoderClasses, "laws", spy_laws)
    monkeypatch.setattr(codec._DecoderClasses, "_classes", spy_classes)
    monkeypatch.setattr(codec._Batch, "__init__", spy_batch)
    monkeypatch.setattr(codec, "_ROW_CAP", 64)
    several = 0
    for scenario, delta, code, expected in cases:
        fresh = dataclasses.replace(code)
        del calls[:], batches[:]
        assert exact_error(fresh, delta, scenario.default_D, rule) == expected
        decoders = [fresh._decoder(j) for j in scenario.config.decoders]
        assert sorted(map(id, (d for d, _ in calls))) == sorted(map(id, decoders * len(batches)))
        assert {r for _, r in calls} == {rule}
        several += len(batches) > 1
    assert several


def _large_denominator_source(source, seed):
    """A positive law on the variables of `source` whose two halves have the
    coprime denominators 2(2^31 - 1) and 2(2^31 - 19): scaled to integers,
    one letter weighs about 2^61, so two letters' product passes 2^63."""
    rng = np.random.default_rng(seed)
    keys = list(itertools.product(*(alph.symbols for _, alph in source.variables)))
    table = {}
    for part, denominator in ((keys[:len(keys) // 2], (1 << 31) - 1),
                              (keys[len(keys) // 2:], (1 << 31) - 19)):
        weights = [int(w) for w in rng.integers(1 << 20, 1 << 28, size=len(part) - 1)]
        weights.append(denominator - sum(weights))
        table.update((key, Fraction(w, 2 * denominator)) for key, w in zip(part, weights))
    return JointPmf(source.variables, table)


@pytest.mark.parametrize("rule", ["crng", "map"])
@pytest.mark.parametrize("name,n", [("slepian-wolf", 2), ("wyner-ziv-binary", 3),
                                    ("heegard-berger-two-decoders", 2),
                                    ("berger-tung-binary", 2)])
def test_oracle_switches_to_python_ints_past_int64(name, n, rule):
    """Source denominators near 2^31 push the oracle's block weights past
    2^63, onto Python ints; the values still equal the Fraction reference."""
    scenario = build_scenario(name)
    scenario = dataclasses.replace(scenario, source=_large_denominator_source(scenario.source, n))
    code = scenario.make_code(n, aux_rates={i: 0.5 for i in scenario.config.encoders}, seed=n)
    assert codec._Source(code.source, n).weights.dtype == object
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    result = exact_error(code, delta, scenario.default_D, rule=rule)
    assert (result.mismatch, result.exceed, result.encoder_abort) == \
        _reference_exact_error(code, delta, scenario.default_D, rule)


def test_exact_error_injective_code_is_zero():
    scenario = build_scenario("slepian-wolf")
    ident = identity_linear(2, 2)
    code = with_g(scenario.make_code(2, rates={1: 1.0, 2: 1.0}, seed=0), {1: ident, 2: ident})
    result = exact_error(code, delta=0.5, D=scenario.default_D)
    assert result.mismatch == 0
    assert all(v == 0 for v in result.exceed.values())


def test_exact_oracle_reuse_is_invisible(monkeypatch):
    """Each exact-oracle code of the benchmark, at its n, keeps one table of
    encoder draws per cell across both rules, and reads the one source table
    of its scenario at that n: either rule order on one code gives the
    values of fresh codes, as Fractions, and `simulate` after them reports
    as on a fresh code."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import EXACT_CODES, default_delta

    made, sources = [], []
    source, cell_draws = codec._Source, codec._CellDraws

    class CountedSource(source):
        def __init__(self, pmf, n):
            sources.append((pmf, n))
            super().__init__(pmf, n)

    class CountedCellDraws(cell_draws):
        def __init__(self, code, cell, blocks):
            made.append((cell, code))
            super().__init__(code, cell, blocks)

    monkeypatch.setattr(codec, "_Source", CountedSource)
    monkeypatch.setattr(codec, "_CellDraws", CountedCellDraws)
    for name, n, _ in EXACT_CODES:
        scenario = build_scenario(name)
        del sources[:]
        delta, D = default_delta(scenario), scenario.default_D
        fresh = {rule: exact_error(scenario.make_code(n, seed=n), delta, D, rule)
                 for rule in ("crng", "map")}
        for rules in (("crng", "map"), ("map", "crng")):
            code = scenario.make_code(n, seed=n)
            for rule in rules:
                assert exact_error(code, delta, D, rule) == fresh[rule]
            assert simulate(code, delta, D, trials=200, seed=5) == \
                simulate(scenario.make_code(n, seed=n), delta, D, trials=200, seed=5)
            assert sorted(map(str, (cell for cell, at in made if at is code))) == \
                sorted(map(str, scenario.config.sharing))
            blocks = code.model.blocks(n)
            assert all(blocks.numbering(names) is blocks.numbering(names)
                       for names in ((), *((v,) for v in blocks.pmf.names),
                                     tuple(blocks.pmf.names)))
        assert [(pmf is scenario.source, at) for pmf, at in sources] == [(True, n)]


def test_make_code_builds_the_joint_once(monkeypatch):
    """The codes that `make_code` makes of one scenario, at two n, share one
    model: one joint, one source table per n, and one marginal per variable
    set, which the W_S letters (the budget check included) and the weighting
    table of S with no observation share, through `exact_error` and
    `simulate` as well."""
    joints, marginals, sources = [], [], []
    build_joint, marginalize, source = codec.build_joint, codec.marginalize, codec._Source

    def counted_joint(*args):
        joints.append(args)
        return build_joint(*args)

    def counted_marginalize(joint, names):
        marginals.append(tuple(names))
        return marginalize(joint, names)

    class CountedSource(source):
        def __init__(self, pmf, n):
            sources.append(n)
            super().__init__(pmf, n)

    monkeypatch.setattr(codec, "build_joint", counted_joint)
    monkeypatch.setattr(codec, "marginalize", counted_marginalize)
    monkeypatch.setattr(codec, "_Source", CountedSource)
    for name in SIMULATING:
        scenario = build_scenario(name)
        del joints[:], marginals[:], sources[:]
        for n in (2, 1):
            for seed in range(3):
                code = scenario.make_code(n, seed=seed)
                exact_error(code, 0.01, scenario.default_D)
                simulate(code, 0.01, scenario.default_D, trials=20, seed=seed)
        assert len(joints) == 1
        assert sorted(sources) == [1, 2]
        model = code.model
        letter_sets = [tuple(w_name(i) for i in S) for S in model._letters]
        tables = [tuple(w_name(i) for i in S) + ((y,) if y else ()) for S, y in model._tables]
        assert sorted(marginals) == sorted(set(letter_sets + tables))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(SIMULATING), n=st.integers(1, 3), seeds=st.lists(
    st.integers(0, 2 ** 16), min_size=3, max_size=3), sim_seed=st.integers(0, 2 ** 16))
def test_codes_sharing_a_model_match_the_reference(name, n, seeds, sim_seed):
    """Three codes of one scenario share its model; under both rules each
    one's exact values equal the Fraction reference and those of the same
    code built with its own model, as Fractions, and so do their Monte
    Carlo reports."""
    scenario = build_scenario(name)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    D = scenario.default_D
    codes = [scenario.make_code(n, aux_rates={i: 0.5 for i in scenario.config.encoders},
                                seed=seed) for seed in seeds]
    assert all(code.model is codes[0].model for code in codes)
    for code in codes:
        alone = dataclasses.replace(code)
        assert alone.model is not code.model
        for rule in ("crng", "map"):
            result = exact_error(code, delta, D, rule)
            assert result == exact_error(alone, delta, D, rule)
            assert (result.mismatch, result.exceed, result.encoder_abort) == \
                _reference_exact_error(code, delta, D, rule)
            assert simulate(code, delta, D, 50, sim_seed, rule) == \
                simulate(alone, delta, D, 50, sim_seed, rule)


def test_code_refuses_a_model_built_from_other_objects():
    scenario, other = build_scenario("wyner-ziv-binary"), build_scenario("wyner-ziv-binary")
    code = scenario.make_code(2, seed=3)
    other.make_code(2, seed=3)
    fields = {name: getattr(code, name)
              for name in ("n", "config", "source", "channels", "reproducers", "f", "g", "c")}
    assert CodeInstance(**fields, _model=code.model).model is code.model
    for name in codec.Model.FIELDS:
        foreign = codec.Model(*(getattr(other if field == name else scenario, field)
                                for field in codec.Model.FIELDS))
        with pytest.raises(ConfigurationError, match="another %s " % name):
            CodeInstance(**fields, _model=foreign)
    with pytest.raises(ConfigurationError, match="another config "):
        CodeInstance(**fields, _model=other._model)


def test_make_code_rebuilds_the_model_after_a_field_is_reassigned():
    scenario = build_scenario("heegard-berger-two-decoders")
    before = scenario.make_code(2, seed=4)
    source = _large_denominator_source(scenario.source, 4)
    scenario.source = source
    code, fresh = scenario.make_code(2, seed=4), dataclasses.replace(
        build_scenario("heegard-berger-two-decoders"), source=source).make_code(2, seed=4)
    assert code.model is not before.model and code.model.source is source
    delta = 0.01
    for rule in ("crng", "map"):
        assert exact_error(code, delta, scenario.default_D, rule) == \
            exact_error(fresh, delta, scenario.default_D, rule)
    assert simulate(code, delta, scenario.default_D, 100, 7) == \
        simulate(fresh, delta, scenario.default_D, 100, 7)


@pytest.mark.parametrize("n", [0, -1, True, 2.5, None])
def test_make_code_refuses_a_block_length_that_is_not_a_positive_int(n):
    with pytest.raises(ConfigurationError, match="block length n: %s is not a positive integer"
                       % re.escape(repr(n))):
        build_scenario("slepian-wolf").make_code(n)


@pytest.mark.parametrize("rates", ["rates", "aux_rates"])
def test_make_code_refuses_a_rate_for_an_unknown_encoder(rates):
    with pytest.raises(ConfigurationError, match=r"rate for 3, which is not an encoder "
                       r"\(encoders: 1, 2\)"):
        build_scenario("slepian-wolf").make_code(2, **{rates: {3: 1.0}})


def test_exact_error_matches_hand_computation_n1():
    """Single-letter Slepian-Wolf with constant g2: decoder knows x1 (identity
    g1) and draws x2 from the conditional; error = P(x2 != argmax-free draw)."""
    scenario = build_scenario("slepian-wolf")
    ident = identity_linear(2, 1)
    const = BinningEnsemble(2, 1).sample_function(0)
    code = with_g(scenario.make_code(1, rates={1: 1.0, 2: 0.0}, seed=0), {1: ident, 2: const})
    result = exact_error(code, delta=0.5, D=scenario.default_D)
    # hand computation: given x1, posterior over x2 is (89/100, 11/100);
    # the draw matches x2 with prob 0.89 when x2 = x1 (mass 89/100) etc.
    p, q = Fraction(89, 100), Fraction(11, 100)
    expected = 1 - (p * p + q * q)
    assert result.mismatch == expected
    assert result.exceed[2] == expected
    assert result.exceed[1] == 0


def _lossless_class_sums(code, rule):
    """Slepian-Wolf error probabilities from the closed-form class sums.

    W is X, so the decoder class of a source block is its pair of g values
    and the posterior of the truth within its class is p / class total; the
    MAP rule picks the most probable block of each class (ties toward the
    lexicographically smallest).
    """
    blocks = {}
    for x1 in itertools.product((0, 1), repeat=code.n):
        for x2 in itertools.product((0, 1), repeat=code.n):
            p = Fraction(1)
            for a, b in zip(x1, x2):
                p *= code.source.prob((a, b))
            blocks[(x1, x2)] = p
    total, agree, best = {}, {}, {}
    cls_of = {x: (code.g[1](code.block_to_int(1, x[0])), code.g[2](code.block_to_int(2, x[1])))
              for x in blocks}
    for x, p in sorted(blocks.items()):
        cls = cls_of[x]
        total[cls] = total.get(cls, Fraction(0)) + p
        for pos in (0, 1):
            key = (cls, pos, x[pos])
            agree[key] = agree.get(key, Fraction(0)) + p
        if cls not in best or p > blocks[best[cls]]:
            best[cls] = x
    mismatch = Fraction(0)
    exceed = {1: Fraction(0), 2: Fraction(0)}
    for x, p in blocks.items():
        cls = cls_of[x]
        if rule == "crng":
            mismatch += p * (1 - p / total[cls])
            for pos in (0, 1):
                exceed[pos + 1] += p * (1 - agree[(cls, pos, x[pos])] / total[cls])
        else:
            mismatch += p * (best[cls] != x)
            for pos in (0, 1):
                exceed[pos + 1] += p * (best[cls][pos] != x[pos])
    return mismatch, exceed


def test_exact_error_matches_lossless_class_sums():
    """The general oracle on a lossless code equals the closed-form class sums."""
    scenario = build_scenario("slepian-wolf")
    for n in (2, 3, 4, 5, 6):
        code = scenario.make_code(n, seed=3)
        for rule in ("crng", "map"):
            result = exact_error(code, delta=0.5, D=scenario.default_D, rule=rule)
            mismatch, exceed = _lossless_class_sums(code, rule)
            assert result.mismatch == mismatch
            assert result.exceed == exceed
            assert result.encoder_abort == 0


# denominators built from a few primes, so that pairs share factors or are
# coprime, times an optional large prime
_DENOMINATORS = st.builds(
    lambda exponents, large: math.prod(p ** e for p, e in zip((2, 3, 5, 7), exponents)) * large,
    st.lists(st.integers(0, 4), min_size=4, max_size=4),
    st.sampled_from([1, 1, 2 ** 61 - 1, 2 ** 127 - 1]))


@settings(max_examples=200, deadline=None)
@given(numerators=st.dictionaries(_DENOMINATORS, st.integers(-2 ** 200, 2 ** 200), max_size=40),
       scale=st.integers(1, 3 ** 40))
@example(numerators={}, scale=1)
@example(numerators={12: 5}, scale=7)
@example(numerators={3: 1, 5: 1, 7: 1}, scale=1)                    # coprime, odd count
@example(numerators={6: 1, 10: -1, 15: 2, 12: 2 ** 200, 9: 1}, scale=4)   # shared factors
def test_fraction_sum_matches_fraction_reference(numerators, scale):
    """The oracle's integer-pair tree sum equals a plain Fraction sum."""
    expected = sum((Fraction(numerator, denominator * scale)
                    for denominator, numerator in numerators.items()), Fraction(0))
    assert codec._fraction_sum(numerators, scale) == expected


def test_exact_error_monotone_in_codeword_count():
    """Refining a codeword map never increases the exact error."""
    scenario = build_scenario("slepian-wolf")
    ident2 = identity_linear(2, 2)
    errs = {}
    for bits in (1, 2):
        ens = make_ensemble("linear", 4, 2 ** bits, q=2)
        g2 = ens.sample_function(7)
        code = with_g(scenario.make_code(2, rates={1: 1.0, 2: bits / 2}, seed=0),
                      {1: ident2, 2: g2})
        errs[bits] = exact_error(code, delta=0.5, D=scenario.default_D).mismatch
    # nested linear maps: the 2-bit map refines its first row's classes only
    # statistically; assert the coarser code is no better
    assert errs[2] <= errs[1]


def test_simulate_agrees_with_exact_within_3_sigma():
    import math
    for name in ("slepian-wolf", "wyner-ziv-binary"):
        scenario = build_scenario(name)
        code = scenario.make_code(2, seed=3)
        delta = 0.01 if name != "slepian-wolf" else 0.5
        exact = exact_error(code, delta=delta, D=scenario.default_D)
        report = simulate(code, delta=delta, D=scenario.default_D,
                          trials=4000, seed=11)
        p = float(exact.mismatch)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / report.trials)
        assert abs(report.mismatch_freq - p) <= 3 * sigma + 1e-9


def test_simulate_zero_distortion_never_exceeds():
    """A Hamming distortion is at most 1, so D = 1 is never exceeded."""
    scenario = build_scenario("wyner-ziv-binary")
    scenario.config.distortions[1] = DistortionMeasure("X1")
    code = scenario.make_code(2, seed=1)
    report = simulate(code, delta=0.01, D={1: 1.0}, trials=500, seed=3)
    assert report.exceed_counts[1] == 0


def test_sim_report_invariants():
    scenario = build_scenario("mdc-two-descriptions")
    code = scenario.make_code(2, seed=5)
    report = simulate(code, 0.01, scenario.default_D, trials=250, seed=8)
    assert report.mismatch_count <= report.trials
    assert 0.0 <= report.mismatch_freq <= 1.0
    for k in scenario.config.reproduction_ids:
        assert report.exceed_counts[k] <= report.trials
        assert 0.0 <= report.exceed_freq(k) <= 1.0
    lo, hi = report.ci(report.mismatch_count)
    assert 0.0 <= lo <= report.mismatch_freq <= hi <= 1.0


def test_code_instance_rejects_bad_constraint_value():
    scenario = build_scenario("wyner-ziv-binary")
    code = scenario.make_code(2, seed=1)
    bad_c = dict(code.c)
    bad_c[1] = code.f[1].image_size  # one past the image
    with pytest.raises(ConfigurationError, match="outside the f image"):
        CodeInstance(n=code.n, config=code.config, source=code.source,
                     channels=code.channels, reproducers=code.reproducers,
                     f=code.f, g=code.g, c=bad_c)


def test_simulate_deterministic_in_seed():
    scenario = build_scenario("mdc-two-descriptions")
    code = scenario.make_code(2, seed=5)
    a = simulate(code, 0.01, scenario.default_D, trials=300, seed=8)
    b = simulate(code, 0.01, scenario.default_D, trials=300, seed=8)
    assert (a.mismatch_count, a.exceed_counts) == (b.mismatch_count, b.exceed_counts)


def _run_trial(code, bounds, seed, trial, rule, report, laws):
    """Trial `trial` of the stream of `seed`, counted into `report`, through
    the one-trial laws `code.cell_constrained_law` and
    `code.decoder_class_law`, each draw the exact inverse CDF at the doubles
    of a PCG64 advanced to the draw's own offset, trial * width + column
    (:func:`exact_places`, :func:`choice`); bounds[k] = D_k + delta.  The set `laws` gains a key per
    law the trial reads: (cell, input block) for every cell and (decoder,
    class, side information) for every decoder reached."""
    cfg = code.config
    exceed, dist_sums = report.exceed_counts, report.distortion_sums
    cells = len(cfg.sharing)
    width = code.n + cells + len(cfg.decoders)

    def at(column):
        return np.random.PCG64(seed).advance(trial * width + column)

    support = [(key, p) for key, p in code.source.items() if p > 0]
    letters = [support[k][0] for k in exact_places(
        [p for _, p in support], np.random.default_rng(at(0)).random(code.n).tolist())]
    blocks = dict(zip(code.source.names, zip(*letters)))

    w_blocks = {}
    m = {}
    laws.update((cell, blocks[code.channels[cell].inputs[0][0]]) for cell in cfg.sharing)
    try:
        for pos, cell in enumerate(cfg.sharing):
            x_var = code.channels[cell].inputs[0][0]
            cell_blocks = choice(code.cell_constrained_law(cell, blocks[x_var]), at(code.n + pos))
            w_blocks.update(cell_blocks)
            m.update({i: code.g[i](code.block_to_int(i, cell_blocks[i])) for i in cell})
    except EncoderAbort:
        report.encoder_abort_count += 1
        report.mismatch_count += 1
        for k in exceed:
            exceed[k] += 1
            dist_sums[k] += cfg.distortions[k].bound
        return

    mismatched = False
    for pos, j in enumerate(cfg.decoders):
        y = cfg.side_info.get(j)
        y_block = blocks[y] if y else None
        laws.add((j, tuple(m[i] for i in cfg.codewords_to[j]), y_block))
        try:
            if rule == "map":
                w_hat, z = code.decode(j, m, y_block, at(code.n + cells + pos), rule=rule)
            else:
                w_hat = choice(code.decoder_class_law(j, m, y_block), at(code.n + cells + pos))
                z = code.reproduce(j, w_hat, y_block)
        except DecoderAbort:
            report.decoder_abort_count += 1
            mismatched = True
            for k in cfg.reproductions.get(j, ()):
                exceed[k] += 1
                dist_sums[k] += cfg.distortions[k].bound
            continue
        if any(w_hat[i] != w_blocks[i] for i in cfg.codewords_to[j]):
            mismatched = True
        for k in cfg.reproductions.get(j, ()):
            d = _block_distortion(cfg.distortions[k], blocks, z[k])
            dist_sums[k] += d
            if d > bounds[k]:
                exceed[k] += 1
    if mismatched:
        report.mismatch_count += 1


def _reference_simulate(code, delta, D, trials, seed, rule, laws=None):
    """Monte Carlo one trial at a time, each trial replayed alone from its
    offset on the stream of `seed`, as `simulate` lays the trials out;
    `laws` gains the keys of the laws read (see :func:`_run_trial`)."""
    ks = code.config.reproduction_ids
    report = SimReport(trials=trials, mismatch_count=0, exceed_counts={k: 0 for k in ks},
                       encoder_abort_count=0, decoder_abort_count=0,
                       distortion_sums={k: 0.0 for k in ks}, seed=seed)
    bounds = {k: float(D[k]) + delta for k in ks}
    for trial in range(trials):
        _run_trial(code, bounds, seed, trial, rule, report, set() if laws is None else laws)
    return report


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SIMULATING), n=st.integers(1, 3), code_seed=st.integers(0, 2 ** 16),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=2),
       trials=st.integers(1, 25), rule=st.sampled_from(["crng", "map"]),
       aux=st.sampled_from([None, 0.5, 1.0]))
def test_simulate_matches_per_trial_reference(name, n, code_seed, seeds, trials, rule, aux):
    """The batched Monte Carlo equals the per-trial reference exactly: every
    count and every distortion sum, with encoder aborts common at auxiliary
    rate 1.  A second call on the same code reads the class laws the first
    one kept."""
    scenario = build_scenario(name)
    aux_rates = None if aux is None else {i: aux for i in scenario.config.encoders}
    code = scenario.make_code(n, aux_rates=aux_rates, seed=code_seed)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    for seed in seeds:
        assert simulate(code, delta, scenario.default_D, trials, seed, rule) == \
            _reference_simulate(code, delta, scenario.default_D, trials, seed, rule)


# (mismatch, exceed, encoder aborts, decoder aborts, distortion sums) of
# simulate(make_code(3, seed=9), 0.01 * max bound, trials=200, seed=9)
PINNED_REPORTS = {
    "wyner-ziv-binary": (46, {1: 102}, 0, 0, {1: 50.33333333333336}),
    "heegard-berger-two-decoders": (90, {1: 78, 2: 102}, 0, 0,
                                    {1: 35.66666666666668, 2: 43.999999999999986}),
    "mdc-two-descriptions": (136, {1: 113, 2: 131, 12: 20}, 0, 0,
                             {1: 62.00000000000005, 2: 56.00000000000004,
                              12: 42.666666666666664}),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_seeded_monte_carlo_reports_are_pinned(name):
    """Seeded Monte Carlo reports stay equal to the recorded ones, floats included."""
    scenario = build_scenario(name)
    code = scenario.make_code(3, seed=9)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    r = simulate(code, delta, scenario.default_D, trials=200, seed=9)
    assert (r.mismatch_count, r.exceed_counts, r.encoder_abort_count,
            r.decoder_abort_count, r.distortion_sums) == PINNED_REPORTS[name]


def test_simulate_batches_neither_drop_nor_repeat_trials(monkeypatch):
    """A row cap of 3 splits the trials into many batches; every report
    stays the same, distortion sums included."""
    cases = []
    for name in sorted(PINNED_REPORTS):
        scenario = build_scenario(name)
        code = scenario.make_code(3, aux_rates={i: 0.5 for i in scenario.config.encoders}, seed=9)
        delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
        for rule in ("crng", "map"):
            args = (delta, scenario.default_D, 40, 9, rule)
            cases.append((code, args, simulate(code, *args)))
    monkeypatch.setattr(codec, "_ROW_CAP", 3)
    for code, args, expected in cases:
        assert simulate(dataclasses.replace(code), *args) == expected


def test_crng_error_at_most_twice_map_error():
    for name, seed in (("slepian-wolf", 3), ("wyner-ziv-binary", 5),
                       ("mdc-two-descriptions", 5)):
        scenario = build_scenario(name)
        code = scenario.make_code(2, seed=seed)
        crng = exact_error(code, 0.01, scenario.default_D, rule="crng")
        mapped = exact_error(code, 0.01, scenario.default_D, rule="map")
        assert crng.mismatch <= 2 * mapped.mismatch


def test_seed_average_equals_law_average():
    """Averaging a statistic over generator seeds equals averaging over the
    induced law (within Monte Carlo tolerance)."""
    import math
    base = [(w, Fraction(1, 6) if w < 2 else Fraction(1, 3)) for w in range(4)]
    law = crng_law(base, lambda w: w != 3)
    stat = lambda w: w * w
    law_avg = sum(float(p) * stat(w) for w, p in law)
    n = 20_000
    seed_avg = sum(stat(crng_sample(base, lambda w: w != 3, seed=(1, t)))
                   for t in range(n)) / n
    second = sum(float(p) * stat(w) ** 2 for w, p in law)
    sigma = math.sqrt((second - law_avg ** 2) / n)
    assert abs(seed_avg - law_avg) <= 3 * sigma


def test_rate_accounting():
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(4, rates={1: 1.0, 2: 0.75}, seed=0)
    import math
    assert code.rate(1) == math.log2(code.g[1].image_size) / 4
    assert code.rate(2) == math.log2(code.g[2].image_size) / 4
    assert code.aux_rate(1) == math.log2(code.f[1].image_size) / 4
    assert realized_size(0.75, 4) == 8
    assert realized_size(0.0, 4) == 1


def test_end_to_end_law_matches_monolithic_enumeration():
    """Compose the encoder/decoder laws the codec exposes into the full joint
    over (X, Y, W, M, What, Z) and compare against a from-scratch enumeration
    that uses only the raw tables and hash maps; TV distance must be 0."""
    scenario = build_scenario("wyner-ziv-binary")
    n = 2
    code = scenario.make_code(n, aux_rates={1: 0.5}, seed=6)
    ch = scenario.channels[(1,)]
    src = scenario.source

    via_code = {}
    for x in itertools.product((0, 1), repeat=n):
        for y in itertools.product((0, 1), repeat=n):
            p_src = Fraction(1)
            for xl, yl in zip(x, y):
                p_src *= src.prob((xl, yl))
            if p_src == 0:
                continue
            try:
                enc_law = fraction_law(code.cell_constrained_law((1,), x))
            except EncoderAbort:
                via_code[("abort", x, y)] = p_src
                continue
            for blocks, p_w in enc_law:
                w = blocks[1]
                m = code.g[1](code.block_to_int(1, w))
                dec_law = fraction_law(code.decoder_class_law(1, {1: m}, y))
                for cand, p_hat in dec_law:
                    w_hat = cand[1]
                    z = code.reproduce(1, cand, y)[1]
                    key = (x, y, w, m, w_hat, z)
                    via_code[key] = via_code.get(key, Fraction(0)) + p_src * p_w * p_hat

    # monolithic: restricted-and-renormalized sums written out longhand
    direct = {}
    f1, g1, c1 = code.f[1], code.g[1], code.c[1]
    w_space = list(itertools.product((0, 1), repeat=n))

    def chan_prob(w, x):
        p = Fraction(1)
        for wl, xl in zip(w, x):
            p *= ch.rows[(xl,)][(wl,)]
        return p

    # model posterior of W given Y under the unconstrained law
    def posterior(y):
        joint = {}
        for x in itertools.product((0, 1), repeat=n):
            p_src = Fraction(1)
            for xl, yl in zip(x, y):
                p_src *= src.prob((xl, yl))
            for w in w_space:
                joint[w] = joint.get(w, Fraction(0)) + p_src * chan_prob(w, x)
        total = sum(joint.values())
        return {w: p / total for w, p in joint.items()}

    for x in itertools.product((0, 1), repeat=n):
        for y in itertools.product((0, 1), repeat=n):
            p_src = Fraction(1)
            for xl, yl in zip(x, y):
                p_src *= src.prob((xl, yl))
            if p_src == 0:
                continue
            numer = {w: chan_prob(w, x) for w in w_space
                     if f1(code.block_to_int(1, w)) == c1}
            tot = sum(numer.values())
            post = posterior(y)
            for w, pw in numer.items():
                if pw == 0:
                    continue
                m = g1(code.block_to_int(1, w))
                class_items = {wh: post[wh] for wh in w_space
                               if f1(code.block_to_int(1, wh)) == c1
                               and g1(code.block_to_int(1, wh)) == m
                               and post[wh] > 0}
                class_tot = sum(class_items.values())
                for wh, ph in class_items.items():
                    key = (x, y, w, m, wh, wh)
                    direct[key] = direct.get(key, Fraction(0)) + (
                        p_src * (pw / tot) * (ph / class_tot))

    keys = set(via_code) | set(direct)
    for key in keys:
        assert via_code.get(key, Fraction(0)) == direct.get(key, Fraction(0))


def _sw_expected_mismatch_vectorized(code) -> float:
    """Float class-sum computation of the lossless mismatch probability;
    handles block lengths where exact enumeration in rationals is too slow."""
    n = code.n
    size = 1 << n
    bit_table = np.array([bin(v).count("1") for v in range(size)])
    p_half = 0.5 ** n
    q = 0.11
    x1 = np.arange(size)
    xor = np.bitwise_xor.outer(x1, np.arange(size))
    flips = bit_table[xor]
    P = p_half * (q ** flips) * ((1 - q) ** (n - flips))
    g1 = np.array([code.g[1](w) for w in range(size)])
    g2 = np.array([code.g[2](w) for w in range(size)])
    m2_card = code.g[2].image_size
    cls = g1[:, None] * m2_card + g2[None, :]
    s1 = np.bincount(cls.ravel(), weights=P.ravel())
    s2 = np.bincount(cls.ravel(), weights=(P * P).ravel())
    mask = s1 > 0
    return float(1.0 - np.sum(s2[mask] / s1[mask]))


def test_sw_mismatch_trend_larger_blocks():
    """Expected mismatch strictly decreasing over n in {4, 8, 12} at rates
    (1.0, 0.75) inside the region.  The helper reads only the g hashes, so
    the n = 12 code, whose decoder index (4^12 blocks) `make_code` refuses,
    is sampled past that refusal and never builds an index."""
    scenario = build_scenario("slepian-wolf")
    values = []
    for n in (4, 8, 12):
        code = scenario._sample_code(n, rates={1: 1.0, 2: 0.75}, seed=17)
        values.append(_sw_expected_mismatch_vectorized(code))
    assert values[1] < values[0] and values[2] < values[1]


def test_sw_vectorized_helper_agrees_with_exact_oracle():
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(6, rates={1: 1.0, 2: 0.75}, seed=17)
    exact = float(exact_error(code, 0.5, scenario.default_D).mismatch)
    fast = _sw_expected_mismatch_vectorized(code)
    assert abs(exact - fast) < 1e-9


def test_exact_error_budget_guard():
    # 4 source letters, each through two binary symmetric channels: 16 states;
    # the state guard fires before any class index is built, so the code is
    # sampled past make_code's index refusal (4^13 blocks)
    scenario = build_scenario("berger-tung-binary")
    code = scenario._sample_code(13, seed=0)
    with pytest.raises(BudgetExceededError, match=str(16 ** 13)):
        exact_error(code, 0.01, scenario.default_D)


def test_make_code_refuses_the_index_budget_before_sampling(monkeypatch):
    def sample_function(self, seed):
        raise AssertionError("a hash was sampled before the budget check")

    for ensemble in (hashing.HashEnsemble, *hashing.HashEnsemble.__subclasses__()):
        monkeypatch.setattr(ensemble, "sample_function", sample_function)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"encoders \(1, 2\) needs 4 letters \^ n=20 = %d "
                       r"blocks \(budget %d\)" % (4 ** 20, 2 ** 20)):
        build_scenario("slepian-wolf").make_code(20)
    assert time.perf_counter() - t0 < 0.5


def test_code_refuses_an_index_over_the_budget_at_its_build():
    # built past make_code's refusal: the 2^11-block cell indexes fit, the
    # decoder's 4^11-block index does not
    scenario = build_scenario("slepian-wolf")
    code = scenario._sample_code(11, seed=0)
    with pytest.raises(BudgetExceededError, match=r"encoders \(1, 2\) needs 4 letters \^ n=11"):
        simulate(code, 0.01, scenario.default_D, trials=1, seed=0)
    assert (1, 2) not in code._class_indexes


def test_budget_counts_positive_probability_states():
    # identity channels: 4 positive (W, X) letters, so 4^8 states fit
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(8, seed=17)
    _check_budget(code)


def _aborting_code():
    """A 1-encoder code whose constraint value lies outside f's table: every
    encoder law is empty, so no trial reaches a decoder."""
    cfg = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1,),
        codewords_to={1: (1,)}, reproductions={1: (1,)}, side_info={1: None},
        distortions={1: DistortionMeasure("X1")})
    src = JointPmf([("X1", B)], {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    f = HashFunction("binning", 4, 2, table=(0, 0, 0, 0))
    return CodeInstance(n=2, config=cfg, source=src,
                        channels={(1,): identity_channel("X1", "W1", B)},
                        reproducers={1: identity_reproducer("W1", B)}, f={1: f},
                        g={1: BinningEnsemble(4, 2).sample_function(0)}, c={1: 1})


def test_encoder_aborts_count_as_exceedances():
    """An aborted trial exceeds every distortion bound, even D_k + delta
    above the largest distortion, and adds the measure's bound to its sum."""
    code = _aborting_code()
    report = simulate(code, 0.01, {1: 1.0}, trials=20, seed=3)
    assert report == _reference_simulate(code, 0.01, {1: 1.0}, 20, 3, "crng")
    assert (report.mismatch_count, report.exceed_counts, report.distortion_sums) == \
        (20, {1: 20}, {1: 20.0})


@pytest.mark.parametrize("estimate", [exact_error, simulate], ids=["exact_error", "simulate"])
def test_exact_error_rejects_unknown_rule(estimate):
    """Both estimates refuse an unknown rule before any trial, even on a code
    whose every trial aborts in its encoder."""
    code = _aborting_code()
    assert simulate(code, 0.01, {1: 0.1}, trials=20, seed=0).encoder_abort_count == 20
    args = (code, 0.01, {1: 0.1}) + ((20, 0) if estimate is simulate else ())
    with pytest.raises(ConfigurationError, match="unknown decode rule 'bogus'"):
        estimate(*args, rule="bogus")


@pytest.mark.parametrize("delta", [math.nan, -1.0, math.inf, -1e-12])
@pytest.mark.parametrize("estimate", [exact_error, simulate], ids=["exact_error", "simulate"])
def test_negative_or_non_finite_delta_is_refused(estimate, delta):
    """A NaN delta would count no exceedance at all (every comparison with NaN
    is false), and a negative one moves every bound below D."""
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(2, seed=1)
    args = (code, delta, scenario.default_D) + ((5, 0) if estimate is simulate else ())
    with pytest.raises(ConfigurationError, match="delta must be finite and non-negative"):
        estimate(*args)


@pytest.mark.parametrize("estimate", [exact_error, simulate], ids=["exact_error", "simulate"])
def test_missing_distortion_bound_is_refused(estimate):
    """A reproduction without its bound D_k is refused by name, not met
    with a KeyError."""
    scenario = build_scenario("mdc-two-descriptions")
    code = scenario.make_code(1, seed=1)
    D = {1: scenario.default_D[1]}
    args = (code, 0.01, D) + ((5, 0) if estimate is simulate else ())
    with pytest.raises(ConfigurationError,
                       match="no distortion bound D for reproduction 2, 12$"):
        estimate(*args)


@pytest.mark.parametrize("trials", [0, -3])
def test_simulate_refuses_trials_below_one(trials):
    """No trial gives no frequency (trials = 0 divided by zero) and a
    negative count gave a report of -3 trials."""
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(2, seed=1)
    with pytest.raises(ConfigurationError, match="trials must be a positive integer, got %d"
                       % trials):
        simulate(code, 0.01, scenario.default_D, trials=trials, seed=1)


def test_simulate_refuses_a_bool_trial_count():
    """trials=True ran one trial and reported `trials=True`."""
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(2, seed=1)
    with pytest.raises(ConfigurationError, match="trials must be a positive integer, got True"):
        simulate(code, 0.01, scenario.default_D, trials=True, seed=1)


def _no_seeding(*args, **kwargs):
    raise AssertionError("a SeedSequence or a PCG64 was built outside default_rng")


@pytest.mark.parametrize("name", SIMULATING)
def test_simulate_searches_one_table_per_law(name, monkeypatch):
    """`simulate` builds exactly one generator per call, not one per trial
    (``default_rng`` counts its calls, and a SeedSequence or a PCG64 built
    directly raises), and draws through one prefix table and one search per
    batch for the source letters, per cell and per decoder: one
    :func:`inverse_cdf` call each, whatever the trial count and the number
    of distinct laws.  Its reports stay those of the per-trial reference,
    computed before the stubs, also when the trials run as several batches."""
    scenario = build_scenario(name)
    code = scenario.make_code(2, seed=4)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    runs = []
    for seed, rule, trials in ((2, "crng", 150), (3, "crng", 7), (2, "map", 150)):
        laws: set = set()
        runs.append((seed, rule, trials, _reference_simulate(
            code, delta, scenario.default_D, trials, seed, rule, laws), len(laws)))
    searches = []
    generators = []
    default_rng = np.random.default_rng

    def counted_rng(seed):
        generators.append(seed)
        return default_rng(seed)

    def counted(*args):
        searches.append(np.size(args[-1]))
        return inverse_cdf(*args)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(np.random, "SeedSequence", _no_seeding)
    monkeypatch.setattr(np.random, "PCG64", _no_seeding)
    monkeypatch.setattr(codec, "inverse_cdf", counted)
    per_batch = 1 + len(code.config.sharing) + len(code.config.decoders)
    fresh = dataclasses.replace(code)   # empty code caches
    for cap in (codec._ROW_CAP, 64):
        monkeypatch.setattr(codec, "_ROW_CAP", cap)
        for seed, rule, trials, reference, laws in runs:
            assert simulate(fresh, delta, scenario.default_D, trials, seed, rule) == reference
            assert generators == [seed]
            # the trials read many laws, yet each batch searches once per draw kind
            assert laws > per_batch or trials < 150
            assert len(searches) == per_batch * -(-trials // cap)
            assert sum(searches) <= trials * (code.n + per_batch - 1)
            del generators[:], searches[:]


def _held(obj) -> dict:
    """What `obj` keeps, attribute by attribute: the length of each dict,
    list, tuple and set, the bytes of each array, and None for the rest."""
    return {name: value.nbytes if isinstance(value, np.ndarray) else
            len(value) if isinstance(value, (dict, list, tuple, set)) else None
            for name, value in vars(obj).items()}


@pytest.mark.parametrize("name", SIMULATING)
def test_repeated_simulate_holds_no_more_than_the_first_call(name):
    """Memory stays bounded across Monte Carlo calls: once `simulate` has run
    under each rule, further calls with other seeds (so other source blocks,
    classes and side information) leave the code and each of its decoders
    (:class:`codec._DecoderClasses`) holding the same attributes with the
    same sizes."""
    scenario = build_scenario(name)
    code = scenario.make_code(3, seed=6)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())

    def state():
        return [_held(code)] + [_held(decoder) for decoder in code._decoders.values()]

    for rule in ("crng", "map"):
        simulate(code, delta, scenario.default_D, 200, 0, rule)
    first = state()
    for seed in range(1, 6):
        for rule in ("crng", "map"):
            simulate(code, delta, scenario.default_D, 200, seed, rule)
    assert state() == first
