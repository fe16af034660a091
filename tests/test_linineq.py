import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiterm.errors import ConfigurationError
from multiterm.linineq import (
    INF,
    SUP,
    EntropyTerm,
    LinConst,
    LinIneqSystem,
    fme_eliminate,
)
from multiterm.rational import integer_scaled
from multiterm.regions import remove_redundant
from multiterm.simplex import UNBOUNDED, DualTableau


def test_entropy_term_sorting_and_render():
    t = EntropyTerm(SUP, ("W2", "W1"), ("Y1",))
    assert t.left == ("W1", "W2")
    assert t.render() == "Hsup(W1,W2|Y1)"
    assert EntropyTerm(INF, ("W1",), ("X1",)).render() == "Hinf(W1|X1)"


def test_canonical_scaling_gcd_one():
    sys = LinIneqSystem(["R_1", "R_2"])
    sys.add({"R_1": Fraction(2, 3), "R_2": Fraction(4, 3)}, Fraction(5, 3))
    out = sys.canonicalize()
    assert out.ineqs == (({"R_1": 1, "R_2": 2}, LinConst(Fraction(5, 2))),)


def test_duplicate_and_dominance_collapse():
    sys = LinIneqSystem(["R"])
    sys.add({"R": 1}, 1)
    sys.add({"R": 1}, 0)
    sys.add({"R": 2}, 2)  # same canonical row as R >= 1
    out = sys.canonicalize()
    assert out.ineqs == (({"R": 1}, LinConst(1)),)


def test_tautology_drop_and_infeasibility_marker():
    sys = LinIneqSystem(["R"])
    sys.add({}, -1)
    out = sys.canonicalize()
    assert not out.ineqs and not out.infeasible
    sys2 = LinIneqSystem(["R"])
    sys2.add({}, 1)
    out2 = sys2.canonicalize()
    assert out2.infeasible


def test_render_parse_round_trip():
    sys = LinIneqSystem(["R_1", "R_2", "r_1"])
    sys.add({"R_1": 1, "r_1": -2}, Fraction(-3, 4))
    sys.add({"R_2": 1}, 2)
    text = sys.canonicalize().render()
    back = LinIneqSystem.parse(text)
    assert back.render() == text


def test_variable_order_natural():
    sys = LinIneqSystem(["R_10", "R_2", "r_1"])
    assert sys.vars == ("R_2", "R_10", "r_1")


def test_fme_single_variable():
    # {R1 + r >= 2, r <= 1, r >= 0} eliminate r -> {R1 >= 1}
    sys = LinIneqSystem(["R_1", "r"])
    sys.add({"R_1": 1, "r": 1}, 2)
    sys.add({"r": -1}, -1)
    sys.add({"r": 1}, 0)
    out = fme_eliminate(sys, ["r"])
    assert out.vars == ("R_1",)
    assert out.ineqs == (({"R_1": 1}, LinConst(1)),)


def test_fme_unknown_variable():
    sys = LinIneqSystem(["R_1"])
    with pytest.raises(ConfigurationError):
        fme_eliminate(sys, ["zzz"])


def test_fme_empty_system():
    out = fme_eliminate(LinIneqSystem(["R_1", "r"]), ["r"])
    assert out.vars == ("R_1",) and not out.ineqs


def test_fme_symbolic_constants_combine():
    h1 = EntropyTerm(SUP, ("W1",))
    h2 = EntropyTerm(INF, ("W1",), ("X1",))
    sys = LinIneqSystem(["R_1", "r_1"])
    sys.add({"R_1": 1, "r_1": 1}, {h1: 1})
    sys.add({"r_1": -1}, LinConst(0, {h2: -1}))
    out = fme_eliminate(sys, ["r_1"])
    assert out.ineqs == (({"R_1": 1}, LinConst(0, {h1: 1, h2: -1})),)



@pytest.mark.parametrize("row, reason", [
    ("2*R_1 + 3*R_1 >= 1", "repeated variable R_1"),
    ("R_1 >= 1 >= 0", "more than one >="),
    ("R_1 + R_2 >= one", "Invalid literal for Fraction: 'one'"),
    ("R_1 + R_3 >= 1", "unknown variable 'R_3'"),
    (" >= 1", "empty left side"),
])
def test_parse_refuses_a_malformed_row_naming_its_line(row, reason):
    text = "# vars: R_1 R_2\nR_2 >= 0\n%s\n" % row
    with pytest.raises(ConfigurationError, match=r"^line 3: %s in " % re.escape(reason)):
        LinIneqSystem.parse(text)


# -- the rational reference: rows as (sparse Fraction coefficients, LinConst), the
# -- algebra the integer rows replace, checked render for render

def _ref_scaled(const, factor):
    return LinConst(const.offset * factor, {t: c * factor for t, c in const.terms.items()})


def _ref_add(a, b):
    terms = dict(a.terms)
    for t, c in b.terms.items():
        terms[t] = terms.get(t, 0) + c
    return LinConst(a.offset + b.offset, terms)


def _ref_const_text(const):
    if not const.terms:
        return str(const.offset)
    out = ""
    for term in sorted(const.terms, key=lambda t: t.render()):
        coeff = const.terms[term]
        body = term.render() if abs(coeff) == 1 else "%s*%s" % (abs(coeff), term.render())
        out += ((" + " if coeff > 0 else " - ") if out else ("" if coeff > 0 else "-")) + body
    if const.offset != 0:
        out += (" + " if const.offset > 0 else " - ") + str(abs(const.offset))
    return out


def _ref_render(vars, rows, infeasible):
    lines = ["# vars: %s" % " ".join(vars)] + (["# infeasible"] if infeasible else [])
    for coeffs, const in rows:
        lhs = ""
        for var, c in coeffs:
            body = var if abs(c) == 1 else "%s*%s" % (abs(c), var)
            lhs += ((" + " if c > 0 else " - ") if lhs else ("" if c > 0 else "-")) + body
        lines.append("%s >= %s" % (lhs or "0", _ref_const_text(const)))
    return "\n".join(lines) + "\n"


def _ref_canonicalize(vars, rows, infeasible=False):
    best, seen, out = {}, set(), []
    for coeffs, const in rows:
        coeffs = tuple((v, Fraction(dict(coeffs)[v])) for v in vars
                       if dict(coeffs).get(v, 0) != 0)
        if coeffs:
            scale = math.lcm(*(c.denominator for _, c in coeffs))
            factor = Fraction(scale, math.gcd(*(int(c * scale) for _, c in coeffs)))
            coeffs, const = tuple((v, c * factor) for v, c in coeffs), _ref_scaled(const, factor)
        if const.terms:
            if (coeffs, _ref_const_text(const)) not in seen:
                seen.add((coeffs, _ref_const_text(const)))
                out.append((coeffs, const))
        elif not coeffs:
            if const.offset > 0:
                infeasible = True
                out.append((coeffs, const))
        elif coeffs not in best or const.offset > best[coeffs][1].offset:
            best[coeffs] = (coeffs, const)

    def key(row):
        dense = tuple(dict(row[0]).get(v, Fraction(0)) for v in vars)
        const = row[1]
        return dense, (1, 0, _ref_const_text(const)) if const.terms else (0, const.offset, "")
    return sorted(out + list(best.values()), key=key), infeasible


def _ref_bind(rows, binding):
    return [(coeffs, LinConst(const.offset + sum((c * binding[t] for t, c in const.terms.items()),
                                                 Fraction(0))))
            for coeffs, const in rows]


def _ref_fme(vars, rows, drop):
    rows = [(dict(coeffs), const) for coeffs, const in rows]
    remaining = set(drop)
    while remaining:
        var = min(remaining, key=lambda v: (sum(cm.get(v, 0) > 0 for cm, _ in rows)
                                            * sum(cm.get(v, 0) < 0 for cm, _ in rows),
                                            vars.index(v)))
        remaining.discard(var)
        pos = [(cm, ct) for cm, ct in rows if cm.get(var, 0) > 0]
        neg = [(cm, ct) for cm, ct in rows if cm.get(var, 0) < 0]
        rows = [(cm, ct) for cm, ct in rows if cm.get(var, 0) == 0]
        for pcm, pct in pos:
            for ncm, nct in neg:
                a, b = pcm[var], -ncm[var]
                cm = {v: b * pcm.get(v, 0) + a * ncm.get(v, 0) for v in set(pcm) | set(ncm)}
                rows.append(({v: c for v, c in cm.items() if v != var and c != 0},
                             _ref_add(_ref_scaled(pct, b), _ref_scaled(nct, a))))
    keep = [v for v in vars if v not in drop]
    return keep, _ref_canonicalize(keep, [(tuple(cm.items()), ct) for cm, ct in rows])


def _ref_remove_redundant(vars, rows):
    rows, infeasible = _ref_canonicalize(vars, rows)
    if infeasible:
        return rows, True
    # each row times the lcm of its denominators: the integer rows the LP takes
    scaled = [integer_scaled([*(dict(co).get(v, Fraction(0)) for v in vars), ct.offset])[0]
              for co, ct in rows]
    dense = [(ints[:-1], ints[-1]) for ints in scaled]
    dim = len(vars)
    if DualTableau(dense, dim).status == UNBOUNDED:
        return rows, True
    keep = list(range(len(rows)))
    for idx in list(keep):
        if DualTableau([dense[k] for k in keep if k != idx], dim).implies(*dense[idx]):
            keep.remove(idx)
    return _ref_canonicalize(vars, [rows[k] for k in keep])


NAMES = ("R_1", "R_2", "r_1")
TERMS = (EntropyTerm(SUP, ("W1",)), EntropyTerm(INF, ("W1",), ("X1",)),
         EntropyTerm(SUP, ("W1", "W2"), ("Y1",)))
_SMALL = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def raw_systems(draw):
    """(vars, rows) with fractional coefficients, duplicate rows scaled by a
    positive factor, dominated rows, rows without coefficients (tautologies
    and 0 >= c) and, when drawn, symbolic constants."""
    vars = NAMES[:draw(st.integers(1, 3))]
    symbolic = draw(st.booleans())

    def row():
        coeffs = {v: draw(_SMALL) for v in vars if draw(st.booleans())}
        terms = {t: draw(_SMALL) for t in TERMS if symbolic and draw(st.booleans())}
        return coeffs, LinConst(draw(_SMALL), terms)

    rows = [row() for _ in range(draw(st.integers(0, 6)))]
    for coeffs, const in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []:
        factor = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]))
        const = LinConst(const.offset - draw(st.integers(0, 2)), const.terms)
        rows.append(({v: c * factor for v, c in coeffs.items()}, _ref_scaled(const, factor)))
    return vars, rows


_BINDING = {TERMS[0]: Fraction(3, 4), TERMS[1]: Fraction(-5, 2 ** 40), TERMS[2]: Fraction(7, 3)}
_GCD_AND_DOMINANCE = (("R_1",), [({"R_1": 2}, LinConst(1)), ({"R_1": 4}, LinConst(3)),
                                 ({"R_1": 2}, LinConst(0))])
_UNSATISFIED = (("R_1", "R_2"), [({"R_1": 1}, LinConst(0)), ({}, LinConst(Fraction(1, 3))),
                                  ({"R_2": 0}, LinConst(-1))])


def _system(vars, rows):
    system = LinIneqSystem(vars)
    for coeffs, const in rows:
        system.add(coeffs, const)
    return system


def _ref_rows(vars, rows):
    return [(tuple((v, Fraction(coeffs[v])) for v in vars if coeffs.get(v, 0) != 0), const)
            for coeffs, const in rows]


@settings(max_examples=300, deadline=None)
@given(case=raw_systems())
@example(case=_GCD_AND_DOMINANCE)
def test_integer_rows_match_the_rational_reference(case):
    """canonicalize, bind, fme_eliminate and remove_redundant render exactly
    as the Fraction/LinConst algebra they replace."""
    vars, rows = case
    system, ref = _system(vars, rows), _ref_rows(vars, rows)
    assert system.canonicalize().render() == _ref_render(vars, *_ref_canonicalize(vars, ref))
    bound, ref_bound = system.bind(_BINDING), _ref_bind(ref, _BINDING)
    assert bound.canonicalize().render() == _ref_render(
        vars, *_ref_canonicalize(vars, ref_bound))
    drop = list(vars[1:] if len(rows) % 2 and len(vars) > 1 else vars[-1:])
    keep, (ref_rows, ref_infeasible) = _ref_fme(vars, ref, drop)
    assert fme_eliminate(system, drop).render() == _ref_render(keep, ref_rows, ref_infeasible)
    reduced = remove_redundant(bound)
    assert reduced.render() == _ref_render(vars, *_ref_remove_redundant(vars, ref_bound))
    # the kept rows of a canonical system are canonical and in order already
    assert reduced.render() == reduced.canonicalize().render()


@settings(max_examples=200, deadline=None)
@given(case=raw_systems())
@example(case=_GCD_AND_DOMINANCE)
@example(case=_UNSATISFIED)
def test_ineqs_round_trip_through_extend(case):
    """`ineqs` yields the (coefficients, LinConst) pairs that `extend` takes: a
    system built from them renders as the one they came from, raw, canonical
    and eliminated, with or without its infeasible flag passed (a ``0 >= c``
    row with c > 0 sets it), and they equal the reference rows exactly."""
    vars, rows = case
    system, ref = _system(vars, rows), _ref_rows(vars, rows)
    ref_canonical, _ = _ref_canonicalize(vars, ref)
    _, (ref_eliminated, _) = _ref_fme(vars, ref, vars[-1:])
    for s, ref_rows in ((system, ref), (system.canonicalize(), ref_canonical),
                        (fme_eliminate(system, vars[-1:]), ref_eliminated)):
        assert LinIneqSystem(s.vars, s.ineqs, s.infeasible).render() == s.render()
        assert LinIneqSystem(s.vars, s.ineqs).render() == s.render()
        assert list(s.ineqs) == [(dict(coeffs), const) for coeffs, const in ref_rows]


_NAMES = ("W1", "W2", "W10", "X12", "Y1")


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([SUP, INF]), left=st.lists(st.sampled_from(_NAMES), min_size=1,
                                                        max_size=3, unique=True),
       given_=st.lists(st.sampled_from(_NAMES), max_size=3, unique=True), data=st.data())
def test_entropy_terms_from_reordered_names_are_equal_and_hash_equal(kind, left, given_, data):
    """Terms built from reordered names are equal and hash equal, to each
    other and to a copy or a pickled term; they sort and render as the
    (kind, left, given) fields in natural order say."""
    a = EntropyTerm(kind, tuple(left), tuple(given_))
    b = EntropyTerm(kind, tuple(data.draw(st.permutations(left))),
                    tuple(data.draw(st.permutations(given_))))
    for other in (b, copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert other == a and hash(other) == hash(a) and repr(other) == repr(a)
    assert hash(a) == hash((a.kind, a.left, a.given))
    assert len({a, b}) == 1
    natural = sorted(left, key=lambda n: (n[0], int(n[1:])))   # one letter, then digits
    assert list(a.left) == natural
    head = "Hsup" if kind == SUP else "Hinf"
    assert a.render() == ("%s(%s|%s)" % (head, ",".join(a.left), ",".join(a.given))
                          if a.given else "%s(%s)" % (head, ",".join(a.left)))
    terms = [a, EntropyTerm(SUP, ("W2",)), EntropyTerm(INF, ("W1",), ("X12",))]
    assert sorted(terms) == sorted(terms, key=lambda t: (t.kind, t.left, t.given))


@settings(max_examples=200, deadline=None)
@given(case=raw_systems(), bound=st.booleans())
@example(case=_UNSATISFIED, bound=True)
def test_the_canonical_mark_skips_only_repeated_work(case, bound):
    """A system that `canonicalize` returns is marked canonical, and so is
    what `remove_redundant` keeps of it; canonicalizing, `dense_rows` and
    `denominator` give on a marked system what they give on an unmarked
    copy of its rows.  `extend` and `add` clear the mark, and the rows they
    add are canonicalized with the rest."""
    vars, rows = case
    system = _system(vars, rows)
    if bound:
        system = system.bind(_BINDING)
    marked = system.canonicalize()
    assert marked.canonical and not system.canonical
    unmarked = marked.with_rows(list(marked.rows), marked.infeasible)
    assert not unmarked.canonical
    again, fresh = marked.canonicalize(), unmarked.canonicalize()
    assert again.canonical and fresh.canonical and again.rows is not marked.rows
    assert (again.rows, again.infeasible) == (fresh.rows, fresh.infeasible) == (
        marked.rows, marked.infeasible)
    if marked.is_numeric:
        assert marked.denominator == unmarked.denominator
        for scale in (None, 6 * marked.denominator):
            assert marked.dense_rows(scale) == unmarked.dense_rows(scale)
        kept = remove_redundant(marked)
        assert kept.canonical
        assert kept.rows == kept.with_rows(list(kept.rows), kept.infeasible).canonicalize().rows
    marked.add({vars[0]: 2}, Fraction(1, 3))
    assert not marked.canonical
    assert marked.canonicalize().render() == _ref_render(
        vars, *_ref_canonicalize(vars, _ref_rows(vars, [
            *((co, ct) for co, ct in marked.ineqs)])))
    again.extend([])
    assert not again.canonical


_DECIMALS = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 12)),
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 999)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-3, 3)),
    st.builds("{}.{}E+{}".format, st.integers(0, 9), st.integers(0, 99), st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(case=raw_systems())
@example(case=_UNSATISFIED)
@example(case=_GCD_AND_DOMINANCE)
def test_parse_inverts_render_on_rational_systems(case):
    """`parse(render(s))` is `s` on numeric systems: the same variables,
    integer rows and infeasible flag, raw or canonical."""
    vars, rows = case
    system = _system(vars, [(co, LinConst(ct.offset)) for co, ct in rows])
    for s in (system, system.canonicalize()):
        back = LinIneqSystem.parse(s.render())
        assert (back.vars, back.terms, back.rows, back.infeasible) == (
            s.vars, s.terms, s.rows, s.infeasible)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.one_of(st.none(), _DECIMALS), min_size=2, max_size=2),
       const=_DECIMALS)
@example(coeffs=["0.5", None], const="1e3")
@example(coeffs=["2/4", "-3"], const="-0.125")
def test_parse_reads_decimal_and_ratio_literals_as_fraction_does(coeffs, const):
    """Every literal that `Fraction` reads, decimals and exponents included,
    parses to the row that its `Fraction` value makes through `add`."""
    terms = [(mag, var) for mag, var in zip(coeffs, ("R_1", "R_2")) if mag is not None]
    lhs = " + ".join("%s*%s" % (mag, var) for mag, var in terms) or "0"
    parsed = LinIneqSystem.parse("# vars: R_1 R_2\n%s >= %s\n" % (lhs, const))
    ref = LinIneqSystem(["R_1", "R_2"])
    ref.add({var: Fraction(mag) for mag, var in terms}, Fraction(const))
    assert (parsed.rows, parsed.infeasible) == (ref.rows, ref.infeasible)
