"""Spans around `multiterm`'s public functions, recorded from outside.

:class:`Tracer` replaces functions where they are called: module attributes
for names bound with ``from .x import y`` (``multiterm.regions.solve_lp``,
``multiterm.codec.marginalize``, ``multiterm.cli.remove_redundant``) and
methods on the classes that define them (``CodeInstance.decode``,
``HashFunction.__call__``).  Every replacement is undone when the
:meth:`Tracer.installed` block ends.

A span records its name, start, end, parent span and op id.  A span's self
time is its duration minus the time its child spans and its hot leaves cover.
Hot leaves (hash evaluation, reproducers, ensemble enumeration) are too
frequent for one span each; they add a count and a total to their layer and
charge their time to the span that encloses them, so memory stays bounded.
Spans are kept in memory and summarized when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import multiterm.cli
from multiterm import codec, hashing, linineq, probability, regions, scenarios
from multiterm.errors import DecoderAbort, EncoderAbort

from definitions import LAYER_METRICS

_NAME, _START, _END, _PARENT, _OP, _LEAF = range(6)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, op id, leaf time]
        self.stack: list = []      # indices of open spans
        self.op = None             # id of the op being run ("setup" during set-up)
        self.top = None            # the innermost open span's record
        self.leaf_totals: dict = {}  # leaf name -> [calls, seconds]
        self.counts: dict = {}     # metric name -> summed or maximal count
        self.keys: dict = {}       # metric name -> set of distinct argument keys
        self._in_leaf = False
        self._patches: list = []   # (owner, attribute, original) to restore

    # -- recording --------------------------------------------------------------------

    def add(self, metric: str, value: int):
        self.counts[metric] = self.counts.get(metric, 0) + value

    def maximum(self, metric: str, value: int):
        self.counts[metric] = max(self.counts.get(metric, 0), value)

    def distinct(self, metric: str, key):
        self.keys.setdefault(metric, set()).add(key)

    def enclosing(self):
        return self.top[_NAME] if self.top is not None else None

    def _charge(self, name: str, elapsed: float, calls: int):
        total = self.leaf_totals.setdefault(name, [0, 0.0])
        total[0] += calls
        total[1] += elapsed
        if self.top is not None:
            self.top[_LEAF] += elapsed

    # -- wrappers -----------------------------------------------------------------------

    def span(self, name, fn, after=None, on_error=None):
        """Wrap `fn` in a span; `after(args, result)` and `on_error(exc)` record counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, 0.0]
            outer = tracer.top
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer.top = record
            record[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[_END] = perf_counter()
                tracer.stack.pop()
                tracer.top = outer
                if on_error is not None:
                    on_error(exc)
                raise
            record[_END] = perf_counter()
            tracer.stack.pop()
            tracer.top = outer
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        """Aggregate `fn` into a count and a total; nested leaf calls are not counted."""
        tracer = self
        total = self.leaf_totals.setdefault(name, [0, 0.0])   # [calls, seconds]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_leaf = False
                total[0] += 1
                total[1] += elapsed
                if tracer.top is not None:
                    tracer.top[_LEAF] += elapsed
        return wrapper

    def leaf_generator(self, name, fn):
        """Like :meth:`leaf` for a generator: time each item as it is consumed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if tracer._in_leaf:
                    yield from gen
                    return
                tracer._in_leaf = True
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._in_leaf = False
                    tracer._charge(name, perf_counter() - start, 0)
                tracer.add(name + ".yielded", 1)
                yield item
        return wrapper

    def patch(self, owner, attribute: str, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        try:
            self._install()
            yield self
        finally:
            for owner, attribute, original in reversed(self._patches):
                setattr(owner, attribute, original)
            self._patches.clear()

    def _install(self):
        span, leaf, patch = self.span, self.leaf, self.patch
        Code = codec.CodeInstance

        # simplex, as regions calls it
        patch(regions, "solve_lp", span(
            "simplex.solve_lp", regions.solve_lp,
            after=lambda a, r: self.maximum("simplex.solve_lp.rows_max", len(a[1]))))
        patch(regions, "feasible_point", span("simplex.feasible_point", regions.feasible_point))

        # linineq
        fme = span("linineq.fme_eliminate", linineq.fme_eliminate,
                   after=lambda a, r: self.add("linineq.fme_eliminate.rows_out", len(r.ineqs)))
        patch(linineq, "fme_eliminate", fme)
        patch(multiterm.cli, "fme_eliminate", fme)
        patch(linineq.LinIneqSystem, "canonicalize",
              span("linineq.canonicalize", linineq.LinIneqSystem.canonicalize))

        # regions
        def redundant(args, result):
            self.add("regions.remove_redundant.rows_in", len(args[0].ineqs))
            self.add("regions.remove_redundant.rows_kept", len(result.ineqs))
        rr = span("regions.remove_redundant", regions.remove_redundant, after=redundant)
        patch(regions, "remove_redundant", rr)
        patch(multiterm.cli, "remove_redundant", rr)
        patch(regions, "polyhedra_equal", span("regions.polyhedra_equal", regions.polyhedra_equal))
        patch(regions, "contains", span("regions.contains", regions.contains))
        build = span("regions.build_system", regions.build_system)
        patch(regions, "build_system", build)
        patch(multiterm.cli, "build_system", build)
        binding = span("regions.binding_from_pmf", regions.binding_from_pmf)
        patch(regions, "binding_from_pmf", binding)
        patch(multiterm.cli, "binding_from_pmf", binding)
        patch(regions, "cond_entropy", span("information.cond_entropy", regions.cond_entropy))
        patch(multiterm.cli, "main", span("cli.main", multiterm.cli.main))

        # hashing
        patch(hashing.HashFunction, "__call__",
              leaf("hashing.hash_eval", hashing.HashFunction.__call__))
        for cls in (hashing.BinningEnsemble, hashing.LinearEnsemble,
                    hashing.SparseLinearEnsemble, hashing.ComposedEnsemble):
            patch(cls, "enumerate_functions", self.leaf_generator(
                "hashing.enumerate_functions", cls.__dict__["enumerate_functions"]))
            patch(cls, "sample_function", span(
                "hashing.sample_function", cls.__dict__["sample_function"]))
        for name in ("verify_mcrp", "verify_mbcp", "verify_hash_property"):
            patch(hashing, name, span("hashing." + name, getattr(hashing, name)))
        patch(scenarios.Scenario, "make_code",
              span("scenarios.make_code", scenarios.Scenario.make_code))

        # codec
        patch(codec, "simulate", span("codec.simulate", codec.simulate))
        patch(Code, "encode", span("codec.encode", Code.encode))
        patch(Code, "decode", span("codec.decode", Code.decode))
        patch(Code, "reproduce", leaf("codec.reproduce", Code.reproduce))

        def decoder_key(code, j, m, y_block):
            ij = tuple(code.config.codewords_to[j])
            key = (id(code), j, tuple(m[i] for i in ij),
                   tuple(y_block) if y_block is not None else None)
            self.distinct("codec.decoder_class_law.distinct", key)

        def decoder_abort(exc):
            if isinstance(exc, DecoderAbort):
                self.add("codec.decoder_aborts", 1)

        decoder_law = span("codec.decoder_class_law", Code.decoder_class_law,
                           on_error=decoder_abort)

        @functools.wraps(Code.decoder_class_law)
        def decoder_class_law(code, j, m, y_block):
            # the key is taken before the call so that aborting calls count too
            decoder_key(code, j, m, y_block)
            return decoder_law(code, j, m, y_block)
        patch(Code, "decoder_class_law", decoder_class_law)

        def encoder_abort(exc):
            if isinstance(exc, EncoderAbort):
                self.add("codec.encoder_aborts", 1)

        encoder_law = span("codec.cell_constrained_law", Code.cell_constrained_law,
                           on_error=encoder_abort)

        @functools.wraps(Code.cell_constrained_law)
        def cell_constrained_law(code, cell, x_block):
            self.distinct("codec.cell_constrained_law.distinct",
                          (id(code), tuple(cell), tuple(x_block)))
            return encoder_law(code, cell, x_block)
        patch(Code, "cell_constrained_law", cell_constrained_law)
        patch(Code, "cell_base_law", span(
            "codec.cell_base_law", Code.cell_base_law,
            after=lambda a, r: self.add("codec.cell_base_law.items", len(r))))

        original_crng_law = codec.crng_law

        @functools.wraps(original_crng_law)
        def crng_law(base, constraint):
            # candidates and support of the law being built, charged to its caller
            owner = self.enclosing()
            base = list(base)
            if owner == "codec.decoder_class_law":
                self.add("codec.decoder_class_law.candidates", len(base))
            law = original_crng_law(base, constraint)
            if owner in ("codec.decoder_class_law", "codec.cell_constrained_law"):
                self.add(owner + ".support", len(law))
            return law
        patch(codec, "crng_law", crng_law)

        def blocks(args, result):
            code = args[0]
            letters = sum(1 for _, p in code.source.items() if p > 0)
            self.add("codec.exact_error.source_blocks", letters ** code.n)
        patch(codec, "exact_error", span("codec.exact_error", codec.exact_error, after=blocks))
        patch(codec, "marginalize", span("probability.marginalize", probability.marginalize))

    # -- summary ------------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric of :data:`LAYER_METRICS` except the trace.* ones.

        Layers that did not run report 0.
        """
        duration = [rec[_END] - rec[_START] for rec in self.spans]
        covered = [rec[_LEAF] for rec in self.spans]
        for idx, rec in enumerate(self.spans):
            if rec[_PARENT] >= 0:
                covered[rec[_PARENT]] += duration[idx]
        calls: dict = {}
        self_s: dict = {}
        for idx, rec in enumerate(self.spans):
            name = rec[_NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration[idx] - covered[idx]
        for name, (count, seconds) in self.leaf_totals.items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + seconds
        values = {}
        for metric, _ in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = calls.get(layer, 0)
            elif field == "self_s":
                values[metric] = self_s.get(layer, 0.0)
            elif field == "distinct":
                values[metric] = len(self.keys.get(metric, ()))
            else:
                values[metric] = self.counts.get(metric, 0)
        return values

    def span_records(self) -> list:
        """Spans as dicts, for writing out after the pass."""
        return [{"name": rec[_NAME], "start": rec[_START], "end": rec[_END],
                 "parent": rec[_PARENT], "op": rec[_OP]} for rec in self.spans]
