import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiterm.codec import _distortion
from multiterm.errors import ConfigurationError
from multiterm.network import (
    ConditionalPmf,
    DistortionMeasure,
    NetworkConfig,
    Reproducer,
    apply_conditional,
    bsc_channel,
    build_joint,
)
from multiterm.probability import Alphabet, JointPmf, check_markov

B = Alphabet((0, 1))


def uniform(variables):
    """The uniform law over the product of the variables' alphabets."""
    keys = list(itertools.product(*(a.symbols for _, a in variables)))
    return JointPmf(variables, {key: Fraction(1, len(keys)) for key in keys})


def test_config_partition_invariants():
    with pytest.raises(ConfigurationError):
        NetworkConfig(encoders=(1, 2), sharing=((1,),), decoders=(1,),
                      codewords_to={1: (1,)}, reproductions={1: ()}, side_info={1: None})
    with pytest.raises(ConfigurationError):
        NetworkConfig(encoders=(1,), sharing=((1,),), decoders=(1,),
                      codewords_to={1: ()}, reproductions={1: ()}, side_info={1: None})
    with pytest.raises(ConfigurationError):
        NetworkConfig(encoders=(1, 2), sharing=((1,), (2,)), decoders=(1, 2),
                      codewords_to={1: (1,), 2: (2,)},
                      reproductions={1: (7,), 2: (7,)},
                      side_info={1: None, 2: None})


def test_channel_row_validation():
    with pytest.raises(ConfigurationError):
        ConditionalPmf([("X", B)], [("W", B)],
                       {(0,): {(0,): Fraction(1, 2)}, (1,): {(0,): Fraction(1)}})
    with pytest.raises(ConfigurationError):
        ConditionalPmf([("X", B)], [("W", B)], {(0,): {(0,): Fraction(1)}})


def wyner_ziv_pieces():
    table = {}
    for x in (0, 1):
        for y in (0, 1):
            table[(x, y)] = Fraction(1, 2) * (Fraction(1, 5) if x != y else Fraction(4, 5))
    src = JointPmf([("X1", B), ("Y", B)], table)
    cfg = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1,),
        codewords_to={1: (1,)}, reproductions={1: (1,)}, side_info={1: "Y"})
    channels = {(1,): bsc_channel("X1", "W1", Fraction(1, 10))}
    return cfg, src, channels


def test_build_joint_matches_hand_built_table():
    cfg, src, channels = wyner_ziv_pieces()
    joint = build_joint(cfg, src, channels)
    # independent construction of the same law
    for w in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                p_src = src.prob((x, y))
                p_w = Fraction(9, 10) if w == x else Fraction(1, 10)
                key = {"W1": w, "X1": x, "Y": y}
                assert joint.prob(tuple(key[name] for name in joint.names)) == p_src * p_w


def test_build_joint_markov_conditions():
    cfg, src, channels = wyner_ziv_pieces()
    joint = build_joint(cfg, src, channels)
    # encoder condition: side info <-> source <-> auxiliary
    assert check_markov(joint, ["Y"], ["X1"], ["W1"])


def test_build_joint_alphabet_mismatch_error():
    cfg, src, _ = wyner_ziv_pieces()
    bad = {(1,): ConditionalPmf([("X1", Alphabet((0, 1, 2)))], [("W1", B)],
                                {(s,): {(0,): Fraction(1)} for s in (0, 1, 2)})}
    with pytest.raises(ConfigurationError):
        build_joint(cfg, src, bad)


def test_reproducer_table_checked_when_built():
    with pytest.raises(ConfigurationError, match="reproducer output 2 outside alphabet"):
        Reproducer(("W1",), {(0,): 0, (1,): 2}, B)


def test_mdc_cell_markov_conditions():
    # shared-source cell with two outputs must satisfy the cell-level chain
    src = JointPmf([("X12", B)], {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    cfg = NetworkConfig(
        encoders=(1, 2), sharing=((1, 2),), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: ()}, side_info={1: None})
    rows = {}
    for x in (0, 1):
        row = {}
        for w1 in (0, 1):
            for w2 in (0, 1):
                p1 = Fraction(9, 10) if w1 == x else Fraction(1, 10)
                p2 = Fraction(4, 5) if w2 == x else Fraction(1, 5)
                row[(w1, w2)] = p1 * p2
        rows[(x,)] = row
    channels = {(1, 2): ConditionalPmf([("X12", B)], [("W1", B), ("W2", B)], rows)}
    joint = build_joint(cfg, src, channels)
    assert check_markov(joint, [], ["X12"], ["W1", "W2"])


def scored(measure, x_blocks, z_block) -> float:
    """The distortion that the codec scores for one reproduced block."""
    return float(_distortion(measure, np.array([x_blocks[measure.source]]) != [z_block])[0])


def test_distortion_measures():
    d = DistortionMeasure("X1")
    assert scored(d, {"X1": (0, 1, 1)}, (0, 1, 0)) == pytest.approx(1 / 3)
    blk = DistortionMeasure("X1", "block-mismatch")
    assert scored(blk, {"X1": (0, 1)}, (0, 1)) == 0.0
    assert scored(blk, {"X1": (0, 1)}, (1, 1)) == 1.0
    assert d.bound == blk.bound == 1.0
    with pytest.raises(ConfigurationError):
        DistortionMeasure("X1", "squared")


def _per_letter_reference(source_var, kind, x_blocks, z_block):
    """The callable form the data measures replaced: a block-kind function of
    whole blocks, or a per-letter function averaged over the block."""
    if kind == "block-mismatch":
        fn = lambda xb, yb, zb: 0.0 if tuple(xb[source_var]) == tuple(zb) else 1.0
        return float(fn(x_blocks, x_blocks, z_block))
    fn = lambda x, y, z: 0.0 if x[source_var] == z else 1.0
    n = len(z_block)
    total = 0.0
    for l in range(n):
        x = {name: blk[l] for name, blk in x_blocks.items()}
        total += float(fn(x, x, z_block[l]))
    return total / n


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), q=st.integers(2, 3),
       kind=st.sampled_from(["hamming", "block-mismatch"]))
def test_distortion_block_matches_per_letter_reference(data, n, q, kind):
    letters = st.integers(0, q - 1)
    x_blocks = {name: tuple(data.draw(st.lists(letters, min_size=n, max_size=n)))
                for name in ("X1", "Y")}
    # flip a random subset of letters, so that equal blocks are drawn too
    flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    z_block = tuple((x + data.draw(st.integers(1, q - 1))) % q if flip else x
                    for x, flip in zip(x_blocks["X1"], flips))
    measure = DistortionMeasure("X1", kind)
    assert scored(measure, x_blocks, z_block) == \
        _per_letter_reference("X1", kind, x_blocks, z_block)


def test_apply_conditional_builds_product():
    base = uniform([("A", B)])
    cond = bsc_channel("A", "B", Fraction(1, 4))
    joint = apply_conditional(base, cond)
    assert joint.prob((0, 0)) == Fraction(1, 2) * Fraction(3, 4)
    assert joint.prob((0, 1)) == Fraction(1, 2) * Fraction(1, 4)
    with pytest.raises(ConfigurationError):
        apply_conditional(joint, cond)  # output name collision
