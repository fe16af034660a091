import itertools
from fractions import Fraction

import numpy as np
import pytest

from multiterm.errors import ConfigurationError
from multiterm.linineq import INF, SUP, EntropyTerm, LinConst, LinIneqSystem, fme_eliminate
from multiterm.network import NetworkConfig, bsc_channel, build_joint
from multiterm.probability import Alphabet, JointPmf
from multiterm.regions import (
    DSC_CRNG,
    DSC_IT,
    JB_CRNG,
    JB_IT,
    MDC_CRNG,
    Infeasible,
    RegionSpec,
    _raw_system,
    aux_var,
    binding_from_pmf,
    build_system,
    contains,
    find_aux_rates,
    member,
    polyhedra_equal,
    rate_var,
    remove_redundant,
    required_terms,
    round_entropy,
)
from multiterm.scenarios import build_scenario
from multiterm.simplex import feasible_point

B2 = Alphabet((0, 1))

H_011 = 0.4999159581645280


def two_encoder_config():
    return NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: ()}, side_info={1: None})


def single_encoder_config():
    return NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1,),
        codewords_to={1: (1,)}, reproductions={1: ()}, side_info={1: "Y"})


def rand_binding(rng, which, config):
    return {t: Fraction(int(rng.integers(1, 300)), 210)
            for t in required_terms(which, config)}


def test_build_dsc_crng_two_encoders_has_seven_rows():
    cfg = two_encoder_config()
    rng = np.random.default_rng(0)
    sys = build_system(RegionSpec(DSC_CRNG, cfg, rand_binding(rng, DSC_CRNG, cfg)))
    assert len(sys.ineqs) == 7
    assert set(sys.vars) == {"R_1", "R_2", "r_1", "r_2"}


def test_build_single_encoder_side_info():
    cfg = single_encoder_config()
    w_x = EntropyTerm(INF, ("W1",), ("X1",))
    w_y = EntropyTerm(SUP, ("W1",), ("Y",))
    sys = build_system(RegionSpec(DSC_CRNG, cfg, {w_x: Fraction(1, 3),
                                                  w_y: Fraction(4, 5)}))
    rendered = sys.render()
    # exactly {0 <= r <= H(W|X), r + R >= H(W|Y)}
    assert len(sys.ineqs) == 3
    assert "R_1 + r_1 >= 4/5" in rendered
    assert "-r_1 >= -1/3" in rendered
    assert "r_1 >= 0" in rendered


def test_degenerate_aux_bound_forces_zero():
    cfg = single_encoder_config()
    sys = build_system(RegionSpec(DSC_CRNG, cfg, {
        EntropyTerm(INF, ("W1",), ("X1",)): Fraction(0),
        EntropyTerm(SUP, ("W1",), ("Y",)): Fraction(1, 2)}))
    point = feasible_point(sys.dense_rows(), len(sys.vars))
    r_pos = sys.vars.index("r_1")
    assert point is not None and point[r_pos] == 0


def test_missing_entropy_term_is_named():
    cfg = single_encoder_config()
    with pytest.raises(ConfigurationError, match=r"Hsup\(W1\|Y\)"):
        build_system(RegionSpec(DSC_CRNG, cfg, {
            EntropyTerm(INF, ("W1",), ("X1",)): Fraction(1, 3)}))


def test_every_missing_entropy_term_is_named_once():
    """Binding the raw system and building the spec give one error naming
    both missing terms, sorted by their text."""
    cfg = two_encoder_config()
    binding = {t: Fraction(1) for t in required_terms(DSC_CRNG, cfg)}
    del binding[EntropyTerm(SUP, ("W1", "W2"))], binding[EntropyTerm(INF, ("W2",), ("X2",))]
    message = r"^missing entropy terms: Hinf\(W2\|X2\), Hsup\(W1,W2\)$"
    with pytest.raises(ConfigurationError, match=message):
        _raw_system(DSC_CRNG, cfg).bind(binding)
    with pytest.raises(ConfigurationError, match=message):
        build_system(RegionSpec(DSC_CRNG, cfg, binding))


def test_thm1_equivalence_random_assignments():
    cfg = two_encoder_config()
    for s in range(30):
        rng = np.random.default_rng((20, s))
        binding = rand_binding(rng, DSC_CRNG, cfg)
        crng = build_system(RegionSpec(DSC_CRNG, cfg, binding))
        it = build_system(RegionSpec(DSC_IT, cfg, binding))
        elim = fme_eliminate(crng, ["r_1", "r_2"])
        assert polyhedra_equal(it, elim)


def test_jb_equivalence_random_assignments():
    cfg = NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: ()}, side_info={1: None},
        lossless=(1,))
    for s in range(30):
        rng = np.random.default_rng((21, s))
        binding = rand_binding(rng, JB_CRNG, cfg)
        crng = build_system(RegionSpec(JB_CRNG, cfg, binding))
        elim = fme_eliminate(crng, [v for v in crng.vars if v.startswith("r_")])
        # the eliminated family: sum_{I'} R >= Hsup(term) - sum Hinf
        direct = LinIneqSystem(["R_1", "R_2"])
        hinf = binding[EntropyTerm(INF, ("W2",), ("X2",))]
        direct.add({"R_1": 1}, binding[EntropyTerm(SUP, ("X1",), ("W2",))])
        direct.add({"R_2": 1},
                   binding[EntropyTerm(SUP, ("W2",), ("X1",))] - hinf)
        direct.add({"R_1": 1, "R_2": 1},
                   binding[EntropyTerm(SUP, ("W2", "X1"))] - hinf)
        assert polyhedra_equal(direct.canonicalize(), elim)


def test_jb_it_region_shape():
    cfg = NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: ()}, side_info={1: None},
        lossless=(1, 2))
    rng = np.random.default_rng(5)
    binding = rand_binding(rng, JB_IT, cfg)
    sys = build_system(RegionSpec(JB_IT, cfg, binding))
    # pure lossless: three Slepian-Wolf style rows over R only
    assert set(sys.vars) == {"R_1", "R_2"}
    assert len(sys.ineqs) == 3


def test_fme_projection_against_completion_oracle():
    """Soundness/completeness of the projection on random systems."""
    rng = np.random.default_rng(9)
    for trial in range(200):
        nvars = int(rng.integers(2, 5))
        nrows = int(rng.integers(2, 7))
        names = ["v_%d" % k for k in range(nvars)]
        sys = LinIneqSystem(names)
        for _ in range(nrows):
            coeffs = {n: Fraction(int(c)) for n, c in
                      zip(names, rng.integers(-2, 3, size=nvars)) if c != 0}
            sys.add(coeffs, Fraction(int(rng.integers(-3, 4))))
        drop = [names[0]] if nvars == 2 else [names[0], names[1]]
        proj = fme_eliminate(sys, drop)
        keep = [v for v in sys.vars if v not in drop]
        for _ in range(10):
            point = {v: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                     for v in keep}
            inside = member(proj, point) if not proj.infeasible else False
            # oracle: LP feasibility of a completion over the dropped vars
            rows = []
            for cm, const in sys.ineqs:
                offset = const.offset - sum(cm.get(v, 0) * point[v] for v in keep)
                rows.append(([cm.get(v, 0) for v in drop], offset))
            completion = feasible_point(rows, len(drop))
            assert inside == (completion is not None)


def test_remove_redundant_examples():
    sys = LinIneqSystem(["R"])
    sys.add({"R": 1}, 1)
    sys.add({"R": 1}, 0)
    out = remove_redundant(sys)
    assert out.ineqs == (({"R": 1}, LinConst(1)),)

    # an inequality implied by two others is certified and removed
    sys2 = LinIneqSystem(["R_1", "R_2"])
    sys2.add({"R_1": 1}, 1)
    sys2.add({"R_2": 1}, 1)
    sys2.add({"R_1": 1, "R_2": 1}, 1)
    out2 = remove_redundant(sys2)
    assert len(out2.ineqs) == 2


def test_remove_redundant_preserves_membership():
    rng = np.random.default_rng(14)
    for trial in range(5):
        names = ["x", "y", "z"]
        sys = LinIneqSystem(names)
        for _ in range(8):
            coeffs = {n: Fraction(int(c)) for n, c in
                      zip(names, rng.integers(-2, 3, size=3)) if c != 0}
            sys.add(coeffs, Fraction(int(rng.integers(-2, 3))))
        out = remove_redundant(sys)
        if out.infeasible:
            continue
        for _ in range(2000):
            point = {v: Fraction(int(rng.integers(-4, 5)), 2) for v in names}
            assert member(sys.canonicalize(), point) == member(out, point)


def test_remove_redundant_flags_infeasible():
    sys = LinIneqSystem(["R"])
    sys.add({"R": 1}, 2)
    sys.add({"R": -1}, -1)
    out = remove_redundant(sys)
    assert out.infeasible


def test_five_encoder_real_entropy_elimination_keeps_every_row():
    """k = 5 dsc-crng from a random source through binary symmetric channels:
    the 31 sum-rate rows are all facets, and the eliminated system equals the
    dsc-it region.  Primal-form LPs made this instance about 20 times slower."""
    rng = np.random.default_rng(0)
    enc = (1, 2, 3, 4, 5)
    cfg = NetworkConfig(encoders=enc, sharing=tuple((i,) for i in enc), decoders=(1,),
                        codewords_to={1: enc}, reproductions={1: ()}, side_info={1: None})
    keys = list(itertools.product((0, 1), repeat=len(enc)))
    weights = [int(w) for w in rng.integers(1, 20, size=len(keys))]
    src = JointPmf([("X%d" % i, B2) for i in enc],
                   {key: Fraction(w, sum(weights)) for key, w in zip(keys, weights)})
    channels = {(i,): bsc_channel("X%d" % i, "W%d" % i, Fraction(int(rng.integers(1, 20)), 50))
                for i in enc}
    joint = build_joint(cfg, src, channels)
    crng = build_system(RegionSpec(DSC_CRNG, cfg, binding_from_pmf(DSC_CRNG, cfg, joint).values))
    it = build_system(RegionSpec(DSC_IT, cfg, binding_from_pmf(DSC_IT, cfg, joint).values))
    eliminated = fme_eliminate(crng, [aux_var(i) for i in enc])
    reduced = remove_redundant(eliminated)
    assert len(eliminated.ineqs) == len(reduced.ineqs) == 31
    assert polyhedra_equal(reduced, it)


def _dsc_k4_joint(seed):
    """A dsc-k4 joint as the benchmark draws one: four binary sources
    through binary symmetric channels, 8 binary variables and 256 rows."""
    rng = np.random.default_rng(seed)
    enc = (1, 2, 3, 4)
    cfg = NetworkConfig(encoders=enc, sharing=tuple((i,) for i in enc), decoders=(1,),
                        codewords_to={1: enc}, reproductions={1: ()}, side_info={1: None})
    keys = list(itertools.product((0, 1), repeat=len(enc)))
    weights = [int(w) for w in rng.integers(1, 20, size=len(keys))]
    src = JointPmf([("X%d" % i, B2) for i in enc],
                   {key: Fraction(w, sum(weights)) for key, w in zip(keys, weights)})
    channels = {(i,): bsc_channel("X%d" % i, "W%d" % i, Fraction(int(rng.integers(1, 20)), 50))
                for i in enc}
    return cfg, lambda: build_joint(cfg, src, channels)


def test_binding_never_iterates_pmf_rows(monkeypatch):
    """`binding_from_pmf` reads a pmf's arrays: on a dsc-k4 joint it never
    calls `JointPmf.items` or `prob`, and converts no Fraction to a float (a
    row loop would, once per row), and its values are those computed
    before the stubs."""
    cfg, joint = _dsc_k4_joint(3)
    assert len(joint().items()) == 256
    expected = {which: binding_from_pmf(which, cfg, joint()).values for which in (DSC_CRNG, DSC_IT)}
    fresh = joint()   # no floats formed yet

    def no_rows(*args):
        raise AssertionError("a pmf's rows were read one at a time")

    monkeypatch.setattr(JointPmf, "items", no_rows)
    monkeypatch.setattr(JointPmf, "prob", no_rows)
    monkeypatch.setattr(Fraction, "__float__", no_rows)
    for which, values in expected.items():
        assert binding_from_pmf(which, cfg, fresh).values == values


def test_member_contains_slepian_wolf_numbers():
    h = round_entropy(H_011)
    hsum = round_entropy(1 + H_011)
    sw = LinIneqSystem(["R_1", "R_2"])
    sw.add({"R_1": 1}, h)
    sw.add({"R_2": 1}, h)
    sw.add({"R_1": 1, "R_2": 1}, hsum)
    sw = sw.canonicalize()
    assert member(sw, {"R_1": 1, "R_2": Fraction(6, 10)})
    assert not member(sw, {"R_1": Fraction(6, 10), "R_2": Fraction(6, 10)})
    assert contains(sw, sw)
    with pytest.raises(ConfigurationError):
        member(sw, {"R_1": 1})


def test_contains_rejects_variable_mismatch():
    a = LinIneqSystem(["R_1"])
    b = LinIneqSystem(["R_2"])
    with pytest.raises(ConfigurationError):
        contains(a, b)


def test_find_aux_rates_feasible_and_infeasible():
    cfg = two_encoder_config()
    ones = {t: Fraction(1) for t in required_terms(DSC_CRNG, cfg)}
    spec = RegionSpec(DSC_CRNG, cfg, ones)
    got = find_aux_rates(spec, {1: 1, 2: 1})
    assert not isinstance(got, Infeasible)
    # verify against brute force over a rational grid
    grid = [Fraction(k, 4) for k in range(5)]
    ok = False
    for r1 in grid:
        for r2 in grid:
            if (r1 <= 1 and r2 <= 1 and r1 + 1 >= 1 and r2 + 1 >= 1
                    and r1 + r2 + 2 >= 1):
                ok = True
    assert ok
    sys = build_system(spec)
    point = {rate_var(1): Fraction(1), rate_var(2): Fraction(1)}
    point.update({aux_var(i): v for i, v in got.items()})
    assert member(sys, point)

    # R = (0,0) with sum bound exceeding the aux budget is infeasible
    binding = dict(ones)
    binding[EntropyTerm(SUP, ("W1", "W2"))] = Fraction(3)
    bad = find_aux_rates(RegionSpec(DSC_CRNG, cfg, binding), {1: 0, 2: 0})
    assert isinstance(bad, Infeasible)
    assert bad.violated  # carries an irreducible violated subset


def test_find_aux_rates_slepian_wolf_specialization():
    """With H(W|X) = 0 the auxiliaries are forced to zero and feasibility
    reduces to direct membership in the Slepian-Wolf region."""
    cfg = two_encoder_config()
    h = round_entropy(H_011)
    hs = round_entropy(1 + H_011)
    binding = {
        EntropyTerm(INF, ("W1",), ("X1",)): Fraction(0),
        EntropyTerm(INF, ("W2",), ("X2",)): Fraction(0),
        EntropyTerm(SUP, ("W1",), ("W2",)): h,
        EntropyTerm(SUP, ("W2",), ("W1",)): h,
        EntropyTerm(SUP, ("W1", "W2")): hs,
    }
    spec = RegionSpec(DSC_CRNG, cfg, binding)
    assert not isinstance(find_aux_rates(spec, {1: 1, 2: Fraction(6, 10)}), Infeasible)
    assert isinstance(find_aux_rates(spec, {1: Fraction(6, 10), 2: Fraction(6, 10)}),
                      Infeasible)


def test_find_aux_rates_names_missing_encoders():
    """Rates without an encoder are refused by a configuration error that
    names it, not a bare KeyError."""
    sc = build_scenario("slepian-wolf")
    joint = build_joint(sc.config, sc.source, sc.channels)
    spec = RegionSpec(DSC_IT, sc.config, binding_from_pmf(DSC_IT, sc.config, joint).values)
    with pytest.raises(ConfigurationError, match=r"rates are missing encoders \[2\]"):
        find_aux_rates(spec, {1: 1})
    with pytest.raises(ConfigurationError, match=r"rates are missing encoders \[1, 2\]"):
        find_aux_rates(spec, {})


@pytest.mark.parametrize("which", [DSC_IT, JB_IT, DSC_CRNG])
def test_find_aux_rates_infeasible_subset_is_irreducible(which):
    """Slepian-Wolf rates (1/8, 1/8) violate several rows at zero auxiliary
    rates; the certificate is infeasible and every row of it is needed."""
    sc = build_scenario("slepian-wolf")
    joint = build_joint(sc.config, sc.source, sc.channels)
    spec = RegionSpec(which, sc.config, binding_from_pmf(which, sc.config, joint).values)
    rates = {1: Fraction(1, 8), 2: Fraction(1, 8)}
    got = find_aux_rates(spec, rates)
    assert isinstance(got, Infeasible)

    system = build_system(spec)
    aux = [v for v in system.vars if v.startswith("r_")]
    fixed = {rate_var(i): v for i, v in rates.items()}
    rows = {system.line(row): (
        [coeffs.get(v, 0) for v in aux],
        const.offset - sum(c * fixed[v] for v, c in coeffs.items() if v in fixed))
        for row, (coeffs, const) in zip(system.rows, system.ineqs)}
    assert sum(ct > 0 for _, ct in rows.values()) >= 2
    subset = [rows[r] for r in got.violated]
    assert feasible_point(subset, len(aux)) is None
    for k in range(len(subset)):
        assert feasible_point(subset[:k] + subset[k + 1:], len(aux)) is not None


def test_dsc_feasibility_transfers_to_mdc():
    """Per-encoder independent channels: auxiliary rates found under the
    separate-encoders definition satisfy the shared-source families too."""
    b = Alphabet((0, 1))
    src = JointPmf([("X12", b)], {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    # shared-source topology, one cell
    mdc_cfg = NetworkConfig(
        encoders=(1, 2), sharing=((1, 2),), decoders=(1, 2, 12),
        codewords_to={1: (1,), 2: (2,), 12: (1, 2)},
        reproductions={1: (), 2: (), 12: ()},
        side_info={1: None, 2: None, 12: None})
    rows = {}
    for x in (0, 1):
        row = {}
        for w1 in (0, 1):
            for w2 in (0, 1):
                p1 = Fraction(9, 10) if w1 == x else Fraction(1, 10)
                p2 = Fraction(4, 5) if w2 == x else Fraction(1, 5)
                row[(w1, w2)] = p1 * p2
        rows[(x,)] = row
    from multiterm.network import ConditionalPmf
    channels = {(1, 2): ConditionalPmf([("X12", b)], [("W1", b), ("W2", b)], rows)}
    joint = build_joint(mdc_cfg, src, channels)
    mdc_binding = binding_from_pmf(MDC_CRNG, mdc_cfg, joint)
    # the separate-encoder bounds per encoder i with the same joint
    dsc_terms = {}
    for t in required_terms(DSC_CRNG, mdc_cfg):
        dsc_terms[t] = mdc_binding.values.get(t)
    for t, v in dsc_terms.items():
        if v is None:
            # per-encoder inf terms share the cell source variable
            from multiterm.information import cond_entropy
            dsc_terms[t] = round_entropy(
                cond_entropy(joint, list(t.left), list(t.given)))
    dsc_spec = RegionSpec(DSC_CRNG, mdc_cfg, dsc_terms)
    mdc_spec = RegionSpec(MDC_CRNG, mdc_cfg, mdc_binding.values)
    rates = {1: Fraction(1), 2: Fraction(1)}
    r = find_aux_rates(dsc_spec, rates)
    assert not isinstance(r, Infeasible)
    mdc_sys = build_system(mdc_spec)
    point = {rate_var(i): rates[i] for i in (1, 2)}
    point.update({aux_var(i): r[i] for i in (1, 2)})
    assert member(mdc_sys, point)
