"""Named coding scenarios and the on-disk scenario format.

Each scenario wires a classical problem as a special case of the unified
topology: distributed lossless coding, lossy coding with decoder side
information, distributed lossy coding, two-description coding, two decoders
with distinct side information, and the mixed lossless/lossy single-decoder
formulation.  A scenario bundles the topology, the per-letter source law,
the auxiliary channels, the reproducers, and default code parameters; its
`make_code` realizes a concrete code at a chosen block length.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .codec import CodeInstance, Model, check_index_budget, realized_size
from .errors import ConfigurationError
from .hashing import make_ensemble
from .network import (
    ConditionalPmf,
    DistortionMeasure,
    NetworkConfig,
    Reproducer,
    bsc_channel,
    identity_channel,
    identity_reproducer,
)
from .probability import Alphabet, JointPmf, dsbs


@dataclass
class Scenario:
    name: str
    description: str
    config: NetworkConfig
    source: JointPmf
    channels: dict
    reproducers: dict
    default_D: dict
    code_kinds: dict = field(default_factory=dict)   # encoder -> hash kind
    default_rates: dict = field(default_factory=dict)
    default_aux_rates: dict = field(default_factory=dict)
    q: int = 2
    run_defaults: dict = field(default_factory=dict)  # n list, trials, seed, delta

    def make_code(self, n: int, rates: Optional[Mapping] = None,
                  aux_rates: Optional[Mapping] = None, seed: int = 0) -> CodeInstance:
        """Realize one code: sample hash functions and constraint values.

        `n` must be a positive integer (:func:`positive_int`).  The
        scenario's codes share one :class:`codec.Model`, rebuilt when
        `config`, `source`, `channels` or `reproducers` is reassigned.  A
        code whose class indexes would exceed the budget is refused
        (:func:`codec.check_index_budget`) before any hash is sampled.
        """
        n = positive_int(n, "block length n")
        model = getattr(self, "_model", None)
        if model is None or model.stale(self):
            model = self._model = Model(self.config, self.source, self.channels, self.reproducers)
        check_index_budget(model, n)
        return self._sample_code(n, rates, aux_rates, seed, model)

    def _sample_code(self, n: int, rates: Optional[Mapping] = None,
                     aux_rates: Optional[Mapping] = None, seed: int = 0,
                     model: Optional[Model] = None) -> CodeInstance:
        """The code :meth:`make_code` realizes, without its early budget
        refusal; the code still refuses each class index over the budget at
        its first build.  `model` (built when not given) is the code's `_model`.
        A rate for a key that is not an encoder is a configuration error.

        Image sizes realize the target rates as round(2^(rate*n)).  Each
        encoder's hashes are of the kind `code_kinds` names (binning when it
        names none); a linear or sparse-linear kind needs domain and image
        sizes that are powers of q, and any other size is a configuration
        error naming it and q.
        """
        rates = {**self.default_rates, **(rates or {})}
        aux_rates = {**self.default_aux_rates, **(aux_rates or {})}
        for key in [*rates, *aux_rates]:
            if key not in self.config.encoders:
                raise ConfigurationError("rate for %r, which is not an encoder (encoders: %s)"
                                         % (key, ", ".join(map(repr, self.config.encoders))))
        model = model or Model(self.config, self.source, self.channels, self.reproducers)
        root = np.random.SeedSequence(seed)
        f, g, c = {}, {}, {}
        per_encoder = root.spawn(len(self.config.encoders))
        for enc_seed, i in zip(per_encoder, self.config.encoders):
            dom = model.w_alph[i].size ** n
            g_size = realized_size(float(rates.get(i, 0.0)), n)
            f_size = realized_size(float(aux_rates.get(i, 0.0)), n)
            kind = self.code_kinds.get(i, "binning")
            f_seed, g_seed, c_seed = enc_seed.spawn(3)
            f_ens = make_ensemble(kind, dom, f_size, q=self.q)
            g_ens = make_ensemble(kind, dom, g_size, q=self.q)
            f[i] = f_ens.sample_function(f_seed)
            g[i] = g_ens.sample_function(g_seed)
            c[i] = int(np.random.default_rng(c_seed).integers(0, f_ens.image_size))
        return CodeInstance(
            n=n, config=self.config, source=self.source, channels=self.channels,
            reproducers=self.reproducers, f=f, g=g, c=c, _model=model)


# -- built-in scenarios ------------------------------------------------------------------


def _slepian_wolf() -> Scenario:
    b = Alphabet((0, 1))
    source = dsbs(Fraction(11, 100))
    config = NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: (1, 2)}, side_info={1: None},
        distortions={1: DistortionMeasure("X1", "block-mismatch"),
                     2: DistortionMeasure("X2", "block-mismatch")},
        lossless=(1, 2))
    channels = {(1,): identity_channel("X1", "W1", b),
                (2,): identity_channel("X2", "W2", b)}
    reproducers = {1: identity_reproducer("W1", b), 2: identity_reproducer("W2", b)}
    return Scenario(
        name="slepian-wolf",
        description="distributed lossless coding of a doubly symmetric binary pair",
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D={1: 0.0, 2: 0.0},
        default_rates={1: 1.0, 2: 0.75}, default_aux_rates={1: 0.0, 2: 0.0})


def _flip(q, a, b) -> Fraction:
    """The probability that a binary symmetric channel of crossover q maps b to a."""
    return q if a != b else 1 - q


def _noisy_pair(q1, q2) -> JointPmf:
    """X1 uniform; Y1, Y2 its copies through independent BSC(q1), BSC(q2)."""
    b = Alphabet((0, 1))
    return JointPmf([("X1", b), ("Y1", b), ("Y2", b)],
                    {(x, y1, y2): Fraction(1, 2) * _flip(q1, y1, x) * _flip(q2, y2, x)
                     for x in (0, 1) for y1 in (0, 1) for y2 in (0, 1)})


def _wyner_ziv() -> Scenario:
    b = Alphabet((0, 1))
    # X uniform; Y = X through BSC(0.2); W = X through BSC(0.1)
    source = JointPmf([("X1", b), ("Y", b)], {(x, y): Fraction(1, 2) * _flip(Fraction(1, 5), x, y)
                                              for x in (0, 1) for y in (0, 1)})
    config = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1,),
        codewords_to={1: (1,)}, reproductions={1: (1,)}, side_info={1: "Y"},
        distortions={1: DistortionMeasure("X1")})
    channels = {(1,): bsc_channel("X1", "W1", Fraction(1, 10))}
    reproducers = {1: identity_reproducer("W1", b)}
    return Scenario(
        name="wyner-ziv-binary",
        description="lossy coding of a uniform bit with decoder side information",
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D={1: 0.12}, default_rates={1: 0.75}, default_aux_rates={1: 0.2})


def _berger_tung() -> Scenario:
    b = Alphabet((0, 1))
    source = dsbs(Fraction(11, 100))
    config = NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: (1, 2)}, side_info={1: None},
        distortions={1: DistortionMeasure("X1"), 2: DistortionMeasure("X2")})
    channels = {(1,): bsc_channel("X1", "W1", Fraction(1, 10)),
                (2,): bsc_channel("X2", "W2", Fraction(1, 10))}
    reproducers = {1: identity_reproducer("W1", b), 2: identity_reproducer("W2", b)}
    return Scenario(
        name="berger-tung-binary",
        description="distributed lossy coding, both auxiliaries through noisy channels",
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D={1: 0.12, 2: 0.12},
        default_rates={1: 0.8, 2: 0.8}, default_aux_rates={1: 0.25, 2: 0.25})


def _mdc_two() -> Scenario:
    b = Alphabet((0, 1))
    source = JointPmf([("X12", b)], {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    config = NetworkConfig(
        encoders=(1, 2), sharing=((1, 2),), decoders=(1, 2, 12),
        codewords_to={1: (1,), 2: (2,), 12: (1, 2)},
        reproductions={1: (1,), 2: (2,), 12: (12,)},
        side_info={1: None, 2: None, 12: None},
        distortions={j: DistortionMeasure("X12") for j in (1, 2, 12)})
    # cell channel: conditionally independent noisy copies given the source
    rows = {(x,): {(w1, w2): _flip(Fraction(1, 10), w1, x) * _flip(Fraction(3, 20), w2, x)
                   for w1 in (0, 1) for w2 in (0, 1)} for x in (0, 1)}
    channels = {(1, 2): ConditionalPmf([("X12", b)], [("W1", b), ("W2", b)], rows)}
    and_table = {(w1, w2): w1 & w2 for w1 in (0, 1) for w2 in (0, 1)}
    reproducers = {
        1: identity_reproducer("W1", b),
        2: identity_reproducer("W2", b),
        12: Reproducer(("W1", "W2"), and_table, b),
    }
    return Scenario(
        name="mdc-two-descriptions",
        description="one source, two descriptions, three decoders",
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D={1: 0.15, 2: 0.2, 12: 0.35},
        default_rates={1: 0.8, 2: 0.8}, default_aux_rates={1: 0.2, 2: 0.2})


def _heegard_berger() -> Scenario:
    b = Alphabet((0, 1))
    source = _noisy_pair(Fraction(1, 5), Fraction(3, 10))
    config = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1, 2),
        codewords_to={1: (1,), 2: (1,)}, reproductions={1: (1,), 2: (2,)},
        side_info={1: "Y1", 2: "Y2"},
        distortions={1: DistortionMeasure("X1"), 2: DistortionMeasure("X1")})
    channels = {(1,): bsc_channel("X1", "W1", Fraction(1, 10))}
    reproducers = {1: identity_reproducer("W1", b), 2: identity_reproducer("W1", b)}
    return Scenario(
        name="heegard-berger-two-decoders",
        description="one codeword broadcast to two decoders with distinct side information",
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D={1: 0.15, 2: 0.15},
        default_rates={1: 0.9}, default_aux_rates={1: 0.1})


def _jb_mixed() -> Scenario:
    b = Alphabet((0, 1))
    source = dsbs(Fraction(11, 100))
    config = NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: (1, 2)}, side_info={1: None},
        distortions={1: DistortionMeasure("X1", "block-mismatch"),
                     2: DistortionMeasure("X2")},
        lossless=(1,))
    channels = {(1,): identity_channel("X1", "W1", b),
                (2,): bsc_channel("X2", "W2", Fraction(1, 10))}
    reproducers = {1: identity_reproducer("W1", b), 2: identity_reproducer("W2", b)}
    return Scenario(
        name="jb-mixed-lossless-lossy",
        description="one lossless and one lossy reproduction at a single decoder",
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D={1: 0.0, 2: 0.12},
        default_rates={1: 0.9, 2: 0.8}, default_aux_rates={1: 0.0, 2: 0.25})


def _example1_dsc2() -> Scenario:
    """Region-algebra fixture: two encoders, one decoder, generic channels."""
    b = Alphabet((0, 1))
    source = JointPmf([("X1", b), ("X2", b)],
                      {(0, 0): Fraction(9, 20), (0, 1): Fraction(1, 20),
                       (1, 0): Fraction(1, 10), (1, 1): Fraction(2, 5)})
    config = NetworkConfig(
        encoders=(1, 2), sharing=((1,), (2,)), decoders=(1,),
        codewords_to={1: (1, 2)}, reproductions={1: ()}, side_info={1: None})
    channels = {(1,): bsc_channel("X1", "W1", Fraction(1, 10)),
                (2,): bsc_channel("X2", "W2", Fraction(3, 20))}
    return Scenario(
        name="example1-dsc2",
        description="golden fixture: two-encoder elimination identity",
        config=config, source=source, channels=channels, reproducers={},
        default_D={})


def _example2_dsc3() -> Scenario:
    """Region-algebra fixture: three encoders, one decoder."""
    b = Alphabet((0, 1))
    source = JointPmf(
        [("X0", b), ("X1", b), ("X2", b)],
        {(0, 0, 0): Fraction(9, 107), (0, 0, 1): Fraction(4, 107),
         (0, 1, 0): Fraction(21, 107), (0, 1, 1): Fraction(10, 107),
         (1, 0, 0): Fraction(16, 107), (1, 0, 1): Fraction(17, 107),
         (1, 1, 0): Fraction(22, 107), (1, 1, 1): Fraction(8, 107)})
    config = NetworkConfig(
        encoders=(0, 1, 2), sharing=((0,), (1,), (2,)), decoders=(1,),
        codewords_to={1: (0, 1, 2)}, reproductions={1: ()}, side_info={1: None})
    channels = {(0,): bsc_channel("X0", "W0", Fraction(1, 8)),
                (1,): bsc_channel("X1", "W1", Fraction(1, 10)),
                (2,): bsc_channel("X2", "W2", Fraction(1, 5))}
    return Scenario(
        name="example2-dsc3",
        description="golden fixture: three-encoder elimination identity",
        config=config, source=source, channels=channels, reproducers={},
        default_D={})


def _example3_mdc2() -> Scenario:
    """Region-algebra fixture: one shared source, two descriptions.

    The cell channel is deliberately non-factorizing so that no two bound
    expressions coincide numerically.
    """
    b = Alphabet((0, 1))
    source = JointPmf([("X12", b)], {(0,): Fraction(2, 5), (1,): Fraction(3, 5)})
    config = NetworkConfig(
        encoders=(1, 2), sharing=((1, 2),), decoders=(1, 2, 12),
        codewords_to={1: (1,), 2: (2,), 12: (1, 2)},
        reproductions={1: (), 2: (), 12: ()},
        side_info={1: None, 2: None, 12: None})
    rows = {
        (0,): {(0, 0): Fraction(3, 5), (0, 1): Fraction(1, 10),
               (1, 0): Fraction(1, 5), (1, 1): Fraction(1, 10)},
        (1,): {(0, 0): Fraction(1, 10), (0, 1): Fraction(3, 10),
               (1, 0): Fraction(1, 20), (1, 1): Fraction(11, 20)},
    }
    channels = {(1, 2): ConditionalPmf([("X12", b)], [("W1", b), ("W2", b)], rows)}
    return Scenario(
        name="example3-mdc2",
        description="golden fixture: two-description elimination identity",
        config=config, source=source, channels=channels, reproducers={},
        default_D={})


def _example5_dsi2() -> Scenario:
    """Region-algebra fixture: one encoder, two decoders with side info."""
    source = _noisy_pair(Fraction(1, 5), Fraction(7, 20))
    config = NetworkConfig(
        encoders=(1,), sharing=((1,),), decoders=(1, 2),
        codewords_to={1: (1,), 2: (1,)}, reproductions={1: (), 2: ()},
        side_info={1: "Y1", 2: "Y2"})
    channels = {(1,): bsc_channel("X1", "W1", Fraction(3, 25))}
    return Scenario(
        name="example5-dsi2",
        description="golden fixture: side-information elimination identity",
        config=config, source=source, channels=channels, reproducers={},
        default_D={})


_BUILTINS = {
    "slepian-wolf": _slepian_wolf,
    "wyner-ziv-binary": _wyner_ziv,
    "berger-tung-binary": _berger_tung,
    "mdc-two-descriptions": _mdc_two,
    "heegard-berger-two-decoders": _heegard_berger,
    "jb-mixed-lossless-lossy": _jb_mixed,
    "example1-dsc2": _example1_dsc2,
    "example2-dsc3": _example2_dsc3,
    "example3-mdc2": _example3_mdc2,
    "example5-dsi2": _example5_dsi2,
}


def scenario_names() -> list:
    return sorted(_BUILTINS)


def build_scenario(name: str) -> Scenario:
    if name not in _BUILTINS:
        raise ConfigurationError(
            "unknown scenario %r (known: %s)" % (name, ", ".join(scenario_names())))
    return _BUILTINS[name]()


# -- structured scenario files -------------------------------------------------------------


def _frac(value) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10 ** 12)
    raise ConfigurationError("cannot parse probability %r" % (value,))


def _ident(value):
    if isinstance(value, str) and value.lstrip("-").isdigit():
        return int(value)
    return value


def _symbols(raw) -> tuple:
    return tuple(tuple(s) if isinstance(s, list) else s for s in raw)


def _table(pairs) -> dict:
    """A mapping from (key, value) pairs, keys read by :func:`_symbols`; a
    repeated key is a ValueError, not an overwrite."""
    table = {}
    for key, value in pairs:
        key = _symbols(key)
        if key in table:
            raise ValueError("repeated key %r" % (key,))
        table[key] = value
    return table


def _integer(value) -> int:
    """`value` (an int, an integral float or an integer string) as an int;
    a bool or a fractional number is a ValueError, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("%r is not an integer" % (value,))
    return int(value)


def positive_int(value, where) -> int:
    """`value` as a positive int, else a configuration error naming it and `where`."""
    try:
        if _integer(value) > 0:
            return _integer(value)
    except (TypeError, ValueError):
        pass
    raise ConfigurationError("%s: %r is not a positive integer" % (where, value))


def _nonnegative(value, what: str):
    """`value`, a number, or a ValueError naming `what` unless 0 <= value < inf."""
    if not 0 <= value < float("inf"):
        raise ValueError("%s is negative or not finite: %r" % (what, value))
    return value


def seed_value(value) -> int:
    """`value` as a seed: a non-negative int, else a ValueError."""
    return _nonnegative(_integer(value), "seed")


def _field(section: dict, key: str, where: str):
    """`section[key]`, else a configuration error naming `where` and the key."""
    try:
        return section[key]
    except KeyError:
        raise ConfigurationError("scenario file: %s has no key %r" % (where, key)) from None


@contextmanager
def _section(where: str):
    """A value of the wrong type or shape inside `where` (a number for a list,
    a list for a mapping, text for a probability) as a configuration error
    naming `where`."""
    try:
        yield
    except ConfigurationError:
        raise
    except (TypeError, ValueError, AttributeError, IndexError, ArithmeticError) as exc:
        raise ConfigurationError(
            "scenario file: %s has a malformed value (%s)" % (where, exc)) from None


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from the documented JSON structure.

    Sections: topology, source, channels, reproducers, code, run.  See the
    README for the schema; errors name the offending section and key.
    """
    with _section("the top level"):
        topo = _field(data, "topology", "the top level")
        src = _field(data, "source", "the top level")

    with _section("source"):
        variables = [(name, Alphabet(_symbols(al)))
                     for name, al in _field(src, "variables", "source")]
        table = {k: _frac(v) for k, v in _table(_field(src, "table", "source")).items()}
        source = JointPmf(variables, table)

    distortions = {}
    with _section("topology.distortions"):
        distortion_specs = list(topo.get("distortions", {}).items())
    for k, spec in distortion_specs:
        k = _ident(k)
        where = "topology.distortions[%r]" % (k,)
        with _section(where):
            measured = _field(spec, "source", where)
            try:
                distortions[k] = DistortionMeasure(measured, spec.get("kind", "hamming"))
            except ConfigurationError as exc:
                raise ConfigurationError("%s: %s" % (where, exc)) from None

    with _section("topology"):
        config = NetworkConfig(
            encoders=tuple(_ident(i) for i in _field(topo, "encoders", "topology")),
            sharing=tuple(tuple(_ident(i) for i in cell)
                          for cell in _field(topo, "sharing", "topology")),
            decoders=tuple(_ident(j) for j in _field(topo, "decoders", "topology")),
            codewords_to={_ident(j): tuple(_ident(i) for i in ids)
                          for j, ids in _field(topo, "codewords_to", "topology").items()},
            reproductions={_ident(j): tuple(_ident(k) for k in ks)
                           for j, ks in _field(topo, "reproductions", "topology").items()},
            side_info={_ident(j): y for j, y in _field(topo, "side_info", "topology").items()},
            distortions=distortions,
            lossless=tuple(_ident(i) for i in topo.get("lossless", ())))

    channels = {}
    with _section("channels"):
        channel_specs = list(enumerate(data.get("channels", [])))
    for idx, ch in channel_specs:
        where = "channels[%d]" % idx
        with _section(where):
            cell = tuple(_ident(i) for i in _field(ch, "cell", where))
            name = _field(ch, "input", where)
            inputs = [(name, source.alphabet(name))]
            outputs = [(out, Alphabet(_symbols(al))) for out, al in _field(ch, "outputs", where)]
            rows = {key: {out: _frac(p) for out, p in _table(row).items()}
                    for key, row in _table(_field(ch, "rows", where)).items()}
            channels[cell] = ConditionalPmf(inputs, outputs, rows)

    reproducers = {}
    with _section("reproducers"):
        reproducer_specs = list(data.get("reproducers", {}).items())
    for k, spec in reproducer_specs:
        k = _ident(k)
        where = "reproducers[%r]" % (k,)
        with _section(where):
            alph = Alphabet(_symbols(_field(spec, "alphabet", where)))
            args = _field(spec, "args", where)
            if spec.get("identity"):
                reproducers[k] = identity_reproducer(args[0], alph)
            else:
                table = _table(_field(spec, "table", where))
                reproducers[k] = Reproducer(tuple(args), table, alph)

    with _section("run"):
        run = data.get("run", {})
        run_defaults = {}
        if "n" in run:
            run_defaults["n"] = [positive_int(v, "run.n") for v in run["n"]]
        if "trials" in run:
            run_defaults["trials"] = positive_int(run["trials"], "run.trials")
        if "seed" in run:
            run_defaults["seed"] = seed_value(run["seed"])
        if "delta" in run:
            run_defaults["delta"] = _nonnegative(float(run["delta"]), "run.delta")
        default_D = {_ident(k): _nonnegative(float(_frac(v)), "D[%s]" % k)
                     for k, v in run.get("D", {}).items()}
    with _section("code"):
        code = data.get("code", {})
        code_kinds = {_ident(i): kind for i, kind in code.get("kinds", {}).items()}
        default_rates = {_ident(i): _nonnegative(float(v), "rate of encoder %s" % i)
                         for i, v in code.get("rates", {}).items()}
        default_aux_rates = {_ident(i): _nonnegative(float(v), "auxiliary rate of encoder %s" % i)
                             for i, v in code.get("aux_rates", {}).items()}
        q = _integer(code.get("q", 2))
    return Scenario(
        name=data.get("name", "custom"),
        description=data.get("description", ""),
        config=config, source=source, channels=channels, reproducers=reproducers,
        default_D=default_D, code_kinds=code_kinds, default_rates=default_rates,
        default_aux_rates=default_aux_rates, q=q, run_defaults=run_defaults)


def load_scenario(name_or_path: str) -> Scenario:
    """A built-in scenario by name, or a JSON scenario file by path."""
    if name_or_path in _BUILTINS:
        return _BUILTINS[name_or_path]()
    try:
        with open(name_or_path) as handle:
            data = json.load(handle)
    except OSError:
        raise ConfigurationError(
            "no scenario named %r and no readable file at that path (known: %s)"
            % (name_or_path, ", ".join(scenario_names()))) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            "scenario file %s: line %d column %d: %s"
            % (name_or_path, exc.lineno, exc.colno, exc.msg)) from None
    return scenario_from_dict(data)
