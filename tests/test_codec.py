import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from multiterm import codec
from multiterm.codec import (
    CodeInstance,
    _check_budget,
    crng_law,
    exact_error,
    law_floats,
    map_estimate,
    realized_size,
    sample_from_law,
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
from multiterm.network import NetworkConfig, hamming_distortion, identity_channel, w_name
from multiterm.probability import Alphabet, JointPmf, block_products, dsbs, marginalize
from multiterm.scenarios import build_scenario, scenario_names

B = Alphabet((0, 1))


def with_g(code, g):
    """The same code with the codeword functions `g` pinned instead of sampled."""
    return dataclasses.replace(code, g={**code.g, **g})


def identity_linear(q, n):
    """The identity matrix as a member of the full linear ensemble."""
    rows = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    return HashFunction("linear", q ** n, q ** n, matrix=rows, q=q, n=n)


def crng_sample(base, constraint, seed):
    """One draw from the constrained, renormalized distribution."""
    return sample_from_law((crng_law(base, constraint), 1), seed)


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


def test_law_floats_round_integer_weights_correctly():
    """Large integer weights are divided as ints: each probability equals
    float(Fraction(w, total)), where float(w) / float(total) rounds twice."""
    items = [("a", 1371754781240904731), ("b", 1273952213221885462),
             ("c", 1434151720124362380)]
    total = sum(w for _, w in items)
    expected = [float(Fraction(w, total)) for _, w in items]
    assert list(law_floats((items, total))) == expected
    assert [float(w) / float(total) for _, w in items] != expected


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
            expect[(w1, w2)] = ch.prob((w1,), (0,)) * ch.prob((w2,), (1,))
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
            p *= ch.prob((b,), (x,))
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
    letter = marginalize(code.model_joint(), [w_name(i) for i in ij] + ([y] if y else []))
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
    for combo in itertools.product(*(ch.row((x,)).items() for x in x_block)):
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
    list, in the same order."""
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
                except DecoderAbort:
                    law = None
                assert law == expected


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


def test_map_estimate_lexicographic_tie_break():
    law = [({1: (1, 1)}, Fraction(1, 2)), ({1: (0, 1)}, Fraction(1, 2))]
    assert map_estimate(law, (1,)) == {1: (0, 1)}


def test_map_agrees_with_most_probable():
    law = [({1: (0, 0)}, Fraction(1, 4)), ({1: (1, 0)}, Fraction(3, 4))]
    assert map_estimate(law, (1,)) == {1: (1, 0)}


# -- exact oracle and simulation -------------------------------------------------------


SIMULATING = [name for name in scenario_names() if build_scenario(name).config.distortions]


def _reference_exact_error(code, delta, D, rule):
    """The exact oracle in Fraction arithmetic, term by term, on the
    product-and-filter laws: (mismatch, exceed, encoder_abort)."""
    cfg = code.config
    bounds = {k: float(D[k]) + delta for k in cfg.reproduction_ids}
    encoder_laws, decoder_laws = {}, {}
    mismatch = abort = Fraction(0)
    exceed = {k: Fraction(0) for k in cfg.reproduction_ids}
    support = [(letter, p) for letter, p in code.source.items() if p > 0]
    for letters, p_src in block_products([support] * code.n):
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
                        if cfg.distortions[k].block(blocks, z) > bounds[k]:
                            exceed[k] += weight * p
            mismatch += weight * (1 - p_all_match)
    return mismatch + abort, {k: v + abort for k, v in exceed.items()}, abort


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SIMULATING), n=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       rule=st.sampled_from(["crng", "map"]), aux=st.sampled_from([None, 0.5, 1.0]))
def test_integer_oracle_matches_fraction_reference(name, n, seed, rule, aux):
    """The integer oracle equals the Fraction reference as Fractions; larger
    auxiliary rates make encoder aborts common."""
    scenario = build_scenario(name)
    aux_rates = None if aux is None else {i: aux for i in scenario.config.encoders}
    code = scenario.make_code(n, aux_rates=aux_rates, seed=seed)
    delta = 0.01 * max(d.bound for d in scenario.config.distortions.values())
    result = exact_error(code, delta, scenario.default_D, rule=rule)
    values = [result.mismatch, result.encoder_abort, *result.exceed.values()]
    assert all(type(v) is Fraction for v in values)
    assert (result.mismatch, result.exceed, result.encoder_abort) == \
        _reference_exact_error(code, delta, scenario.default_D, rule)


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
    assert codec._Source(code).weights.dtype == object
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
    for n in (2, 3, 4):
        code = scenario.make_code(n, seed=3)
        for rule in ("crng", "map"):
            result = exact_error(code, delta=0.5, D=scenario.default_D, rule=rule)
            mismatch, exceed = _lossless_class_sums(code, rule)
            assert result.mismatch == mismatch
            assert result.exceed == exceed
            assert result.encoder_abort == 0


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
    scenario.config.distortions[1] = hamming_distortion("X1")
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


# (mismatch, exceed, encoder aborts, decoder aborts, distortion sums) of
# simulate(make_code(3, seed=9), 0.01 * max bound, trials=200, seed=9)
PINNED_REPORTS = {
    "wyner-ziv-binary": (45, {1: 104}, 0, 0, {1: 45.66666666666671}),
    "heegard-berger-two-decoders": (93, {1: 88, 2: 101}, 0, 0,
                                    {1: 38.66666666666667, 2: 45.00000000000003}),
    "mdc-two-descriptions": (123, {1: 126, 2: 122, 12: 24}, 0, 0,
                             {1: 62.66666666666675, 2: 53.333333333333364,
                              12: 45.33333333333335}),
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
            p *= ch.prob((wl,), (xl,))
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
    (1.0, 0.75) inside the region."""
    scenario = build_scenario("slepian-wolf")
    values = []
    for n in (4, 8, 12):
        code = scenario.make_code(n, rates={1: 1.0, 2: 0.75}, seed=17)
        values.append(_sw_expected_mismatch_vectorized(code))
    assert values[1] < values[0] and values[2] < values[1]


def test_sw_vectorized_helper_agrees_with_exact_oracle():
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(6, rates={1: 1.0, 2: 0.75}, seed=17)
    exact = float(exact_error(code, 0.5, scenario.default_D).mismatch)
    fast = _sw_expected_mismatch_vectorized(code)
    assert abs(exact - fast) < 1e-9


def test_exact_error_budget_guard():
    # 4 source letters, each through two binary symmetric channels: 16 states
    scenario = build_scenario("berger-tung-binary")
    code = scenario.make_code(13, seed=0)
    with pytest.raises(BudgetExceededError, match=str(16 ** 13)):
        exact_error(code, 0.01, scenario.default_D)


def test_budget_counts_positive_probability_states():
    # identity channels: 4 positive (W, X) letters, so 4^8 states fit
    scenario = build_scenario("slepian-wolf")
    code = scenario.make_code(8, seed=17)
    _check_budget(code)


def test_exact_error_rejects_unknown_rule():
    scenario = build_scenario("wyner-ziv-binary")
    code = scenario.make_code(2, seed=1)
    with pytest.raises(ConfigurationError, match="unknown decode rule 'bogus'"):
        exact_error(code, 0.01, scenario.default_D, rule="bogus")
