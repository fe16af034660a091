import itertools
from fractions import Fraction

import numpy as np
import pytest

from multiterm import identities
from multiterm.errors import ConfigurationError, PreconditionError, UnsupportedConditionError
from multiterm.identities import (
    EXAMPLES,
    random_example_pmf,
    reconstruct_heegard_berger,
    verify_example_identities,
)
from multiterm.network import ConditionalPmf
from multiterm.probability import Alphabet, JointPmf, check_markov, condition, marginalize


def test_unknown_example_rejected():
    rng = np.random.default_rng(0)
    pmf = random_example_pmf("berger-tung", rng)
    with pytest.raises(ConfigurationError):
        verify_example_identities("nonsense", pmf)


def test_random_example_refuses_unknown_names_naming_the_known():
    with pytest.raises(ConfigurationError, match="unknown example 'nonsense' \\(known: %s\\)"
                       % ", ".join(EXAMPLES)):
        random_example_pmf("nonsense", np.random.default_rng(0))


def _reference_channel(rng, in_vars, out_vars) -> ConditionalPmf:
    """Per input key, integer weights in [1, 720) over their sum, drawn by
    one ``rng.integers`` call per key: the draw the example laws keep."""
    rows = {}
    out_keys = list(itertools.product(*(a.symbols for _, a in out_vars)))
    for key in itertools.product(*(a.symbols for _, a in in_vars)):
        weights = [int(v) for v in rng.integers(1, 720, size=len(out_keys))]
        total = sum(weights)
        rows[key] = {k: Fraction(v, total) for k, v in zip(out_keys, weights)}
    return ConditionalPmf(in_vars, out_vars, rows)


@pytest.mark.parametrize("example", EXAMPLES)
def test_random_example_laws_keep_their_draws(example, monkeypatch):
    """The golden example reports record only failure counts, so the laws
    themselves are pinned: equal, row for row, to the laws drawn with the
    reference channel rows, for seeds 0-4."""
    laws = [random_example_pmf(example, np.random.default_rng(s)).items() for s in range(5)]
    monkeypatch.setattr(identities, "_random_channel", _reference_channel)
    assert laws == [random_example_pmf(example, np.random.default_rng(s)).items()
                    for s in range(5)]


@pytest.mark.parametrize("example", EXAMPLES)
def test_each_example_passes_on_class_members(example):
    for s in range(10):
        rng = np.random.default_rng((70, s))
        pmf = random_example_pmf(example, rng)
        report = verify_example_identities(example, pmf)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_degenerate_constant_auxiliary():
    """With W constant both sides of the rate identities vanish."""
    rng = np.random.default_rng(4)
    pmf = random_example_pmf("berger-tung", rng)
    # collapse W1 onto symbol 0 by conditioning-like reweighting: rebuild
    table = {}
    for key, p in pmf.items():
        newkey = list(key)
        newkey[pmf.names.index("W1")] = 0
        newkey = tuple(newkey)
        table[newkey] = table.get(newkey, Fraction(0)) + p
    collapsed = JointPmf(pmf.variables, table)
    report = verify_example_identities("berger-tung", collapsed)
    rate1 = next(c for c in report.checks if c.name == "rate-1 identity")
    assert rate1.passed and abs(rate1.lhs) < 1e-9


def test_precondition_error_names_chain():
    rng = np.random.default_rng(8)
    pmf = random_example_pmf("berger-tung", rng)
    # breaking the time-sharing independence must name the chain;
    # build a correlated T by copying X2's value
    table = {}
    for key, p in pmf.items():
        newkey = list(key)
        newkey[pmf.names.index("T")] = key[pmf.names.index("X2")]
        table_key = tuple(newkey)
        table[table_key] = table.get(table_key, Fraction(0)) + p
    broken = JointPmf(pmf.variables, table)
    with pytest.raises(PreconditionError, match="<->"):
        verify_example_identities("berger-tung", broken)


def test_heegard_berger_reconstruction_properties():
    rng = np.random.default_rng(11)
    pmf = random_example_pmf("heegard-berger", rng)
    rebuilt = reconstruct_heegard_berger(pmf)
    # the forced chain holds exactly
    assert check_markov(rebuilt, ["W1"], ["W0", "X"], ["W2"])
    # margins agree exactly
    for j in (1, 2):
        margin = ["W0", "W%d" % j, "X", "Y%d" % j, "Z%d" % j]
        assert marginalize(pmf, margin) == marginalize(rebuilt, margin)


def test_conditional_rows_are_condition_laws_and_zero_mass_keys_point_masses():
    """Each row of the extracted channel is `condition`'s law on that key, in
    its order and with its zero-probability outcomes; only a key of zero mass
    (no row, or rows of probability zero) gets the point mass on the first symbol."""
    b, t = Alphabet((0, 1)), Alphabet((0, 1, 2))
    pmf = JointPmf([("A", t), ("B", b), ("Z", b)],
                   {(0, 0, 1): Fraction(1, 4), (0, 0, 0): 0, (0, 1, 1): Fraction(1, 4),
                    (1, 0, 0): Fraction(1, 2), (1, 1, 0): 0})
    channel = identities._conditional_from(pmf, ["Z"], ["A", "B"])
    zero_mass = []
    for key in itertools.product(t.symbols, b.symbols):
        try:
            expected = condition(pmf, ["Z"], {"A": key[0], "B": key[1]}).items()
        except UnsupportedConditionError:
            zero_mass.append(key)
            expected = [((0,), Fraction(1))]
        assert list(channel.rows[key].items()) == expected
    assert zero_mass == [(1, 1), (2, 0), (2, 1)]
    assert channel.rows[(0, 0)] == {(1,): 1, (0,): 0}


def test_heegard_berger_report_checks_both_bound_expressions():
    for s in range(5):
        pmf = random_example_pmf("heegard-berger", np.random.default_rng((71, s)))
        report = verify_example_identities("heegard-berger", pmf)
        bounds = [c for c in report.checks if "bound expressions agree" in c.name]
        assert [c.name for c in bounds] == ["decoder-1 bound expressions agree",
                                            "decoder-2 bound expressions agree"]
        assert report.all_passed
        assert all(abs(c.lhs - c.rhs) <= 1e-9 for c in bounds)
