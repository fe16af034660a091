"""Golden elimination families: the committed files must equal both the
command-line output and the hand-written closed forms under one binding."""

import os

import pytest

from multiterm import regions, simplex
from multiterm.cli import main as cli_main
from multiterm.linineq import INF, SUP, EntropyTerm, LinIneqSystem
from multiterm.network import build_joint
from multiterm.regions import (
    DSC_CRNG,
    DSC_IT,
    MDC_CRNG,
    RegionSpec,
    binding_from_pmf,
    build_system,
    polyhedra_equal,
    remove_redundant,
)
from multiterm.scenarios import build_scenario

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _binding(name, which):
    scenario = build_scenario(name)
    joint = build_joint(scenario.config, scenario.source, scenario.channels)
    return binding_from_pmf(which, scenario.config, joint).values


def closed_form_example1(B):
    def S(left, given=()):
        return B[EntropyTerm(SUP, left, given)]

    def I_(i):
        return B[EntropyTerm(INF, ("W%d" % i,), ("X%d" % i,))]

    sys = LinIneqSystem(["R_1", "R_2"])
    sys.add({"R_1": 1}, S(("W1",), ("W2",)) - I_(1))
    sys.add({"R_2": 1}, S(("W2",), ("W1",)) - I_(2))
    sys.add({"R_1": 1, "R_2": 1}, S(("W1", "W2")) - I_(1) - I_(2))
    return sys.canonicalize()


def closed_form_example2(B):
    def S(left, given=()):
        return B[EntropyTerm(SUP, left, given)]

    def I_(i):
        return B[EntropyTerm(INF, ("W%d" % i,), ("X%d" % i,))]

    sys = LinIneqSystem(["R_0", "R_1", "R_2"])
    sys.add({"R_0": 1}, S(("W0",), ("W1", "W2")) - I_(0))
    for i in (1, 2):
        ic = 3 - i
        sys.add({"R_%d" % i: 1}, S(("W%d" % i,), ("W0", "W%d" % ic)) - I_(i))
        sys.add({"R_0": 1, "R_%d" % i: 1},
                S(("W0", "W%d" % i), ("W%d" % ic,)) - I_(0) - I_(i))
    sys.add({"R_1": 1, "R_2": 1}, S(("W1", "W2"), ("W0",)) - I_(1) - I_(2))
    sys.add({"R_0": 1, "R_1": 1, "R_2": 1},
            S(("W0", "W1", "W2")) - I_(0) - I_(1) - I_(2))
    return sys.canonicalize()


def closed_form_example3(B):
    def S(left, given=()):
        return B[EntropyTerm(SUP, left, given)]

    def I_(sub):
        return B[EntropyTerm(INF, sub, ("X12",))]

    sys = LinIneqSystem(["R_1", "R_2"])
    sys.add({"R_1": 1}, S(("W1",)) - I_(("W1",)))
    sys.add({"R_2": 1}, S(("W2",)) - I_(("W2",)))
    sys.add({"R_1": 1, "R_2": 1}, S(("W1",)) + S(("W2",)) - I_(("W1", "W2")))
    return remove_redundant(sys.canonicalize())


def closed_form_example5(B):
    sys = LinIneqSystem(["R_1"])
    hx = B[EntropyTerm(INF, ("W1",), ("X1",))]
    for y in ("Y1", "Y2"):
        sys.add({"R_1": 1}, B[EntropyTerm(SUP, ("W1",), (y,))] - hx)
    return remove_redundant(sys.canonicalize())


CASES = [
    ("example1-dsc2", "dsc-crng", DSC_CRNG, "example1_dsc2.txt", closed_form_example1),
    ("example2-dsc3", "dsc-crng", DSC_CRNG, "example2_dsc3.txt", closed_form_example2),
    ("example3-mdc2", "mdc-crng", MDC_CRNG, "example3_mdc2.txt", closed_form_example3),
    ("example5-dsi2", "dsc-crng", DSC_CRNG, "example5_dsi2.txt", closed_form_example5),
]


@pytest.mark.parametrize("name,flag,which,golden,closed", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_three_way_equality(tmp_path, name, flag, which, golden, closed):
    out = str(tmp_path / "out.txt")
    assert cli_main(["region", name, "--definition", flag,
                     "--eliminate-aux", "--out", out]) == 0
    produced = open(out).read()
    committed = open(os.path.join(GOLDEN, golden)).read()
    assert produced == committed
    assert closed(_binding(name, which)).render() == committed


def test_golden_pivot_counts(tmp_path, monkeypatch):
    """Pins the exact simplex's work: the `simplex._pivot` calls of each
    golden `region --eliminate-aux` run, and of each dsc-crng golden
    system's equality with its scenario's dsc-it system (Theorem 1).  A
    change to pricing or to the build moves these counts and has to update
    them."""
    count = [0]
    pivot = simplex._pivot

    def counted(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    runs, checks = [], []
    for name, flag, which, golden, _ in CASES:
        count[0] = 0
        assert cli_main(["region", name, "--definition", flag, "--eliminate-aux",
                         "--out", str(tmp_path / golden)]) == 0
        runs.append(count[0])
        if which == DSC_CRNG:
            it = build_system(RegionSpec(DSC_IT, build_scenario(name).config,
                                         _binding(name, DSC_IT)))
            committed = LinIneqSystem.parse(open(os.path.join(GOLDEN, golden)).read())
            count[0] = 0
            assert polyhedra_equal(it, committed)
            checks.append(count[0])
    assert (runs, checks) == ([3, 8, 6, 1], [6, 16, 2])


def test_golden_conversion_counts(tmp_path, monkeypatch):
    """Pins the row conversions of each golden `region --eliminate-aux` run:
    the raw system is emitted once (`binding_from_pmf` reads its terms and
    `build_system` binds it), and `canonicalize` works twice, on the bound
    system and on the eliminated one, while the call in `remove_redundant`
    finds its input marked canonical.  A change that converts rows again
    moves these counts and has to update them."""
    raw, worked = [0], [0]
    raw_system, canonicalize = regions._raw_system, LinIneqSystem.canonicalize

    def counted_raw(*args):
        raw[0] += 1
        return raw_system(*args)

    def counted_canonicalize(system):
        worked[0] += not system.canonical
        return canonicalize(system)

    monkeypatch.setattr(regions, "_raw_system", counted_raw)
    monkeypatch.setattr(LinIneqSystem, "canonicalize", counted_canonicalize)
    counts = []
    for name, flag, _, golden, _ in CASES:
        raw[0] = worked[0] = 0
        assert cli_main(["region", name, "--definition", flag, "--eliminate-aux",
                         "--out", str(tmp_path / golden)]) == 0
        assert open(tmp_path / golden).read() == open(os.path.join(GOLDEN, golden)).read()
        counts.append((raw[0], worked[0]))
    assert counts == [(1, 2)] * 4
