from fractions import Fraction

import numpy as np
import pytest

from multiterm import identities
from multiterm.errors import ConfigurationError, PreconditionError
from multiterm.identities import (
    EXAMPLES,
    random_example_pmf,
    reconstruct_heegard_berger,
    verify_example_identities,
)
from multiterm.probability import check_markov, marginalize


def test_unknown_example_rejected():
    rng = np.random.default_rng(0)
    pmf = random_example_pmf("berger-tung", rng)
    with pytest.raises(ConfigurationError):
        verify_example_identities("nonsense", pmf)


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
    from multiterm.probability import JointPmf
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
    from multiterm.probability import JointPmf
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


def test_heegard_berger_reconstruction_propagates_configuration_errors(monkeypatch):
    """Only a zero-probability condition becomes a point-mass row; any other
    error from `condition` reaches the caller."""
    pmf = random_example_pmf("heegard-berger", np.random.default_rng(11))

    def broken(*args, **kwargs):
        raise ConfigurationError("broken condition")

    monkeypatch.setattr(identities, "condition", broken)
    with pytest.raises(ConfigurationError, match="broken condition"):
        reconstruct_heegard_berger(pmf)


def test_heegard_berger_report_checks_both_bound_expressions():
    for s in range(5):
        pmf = random_example_pmf("heegard-berger", np.random.default_rng((71, s)))
        report = verify_example_identities("heegard-berger", pmf)
        bounds = [c for c in report.checks if "bound expressions agree" in c.name]
        assert [c.name for c in bounds] == ["decoder-1 bound expressions agree",
                                            "decoder-2 bound expressions agree"]
        assert report.all_passed
        assert all(abs(c.lhs - c.rhs) <= 1e-9 for c in bounds)
