"""Names shared by the runner and the worker: workloads, seeds and metrics.

The runner imports only this module, so it can check its arguments and print
results without importing `multiterm`.
"""

WORKLOADS = ("region-algebra", "codec-montecarlo", "exact-oracle")

# The seed whose outputs ``reference.json`` records.
DEFAULT_SEED = 0

# End-to-end metrics (untraced run), with units, in report order.  `ok_frac`
# is 1 - failed_frac: a benchmark metric must never read 0.
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    ("simplex.solve_lp.calls", "count"),
    ("simplex.solve_lp.self_s", "s"),
    ("simplex.solve_lp.rows_max", "count"),
    ("simplex.feasible_point.calls", "count"),
    ("simplex.feasible_point.self_s", "s"),
    ("linineq.fme_eliminate.self_s", "s"),
    ("linineq.fme_eliminate.rows_out", "count"),
    ("linineq.canonicalize.self_s", "s"),
    ("regions.remove_redundant.self_s", "s"),
    ("regions.remove_redundant.rows_in", "count"),
    ("regions.remove_redundant.rows_kept", "count"),
    ("regions.polyhedra_equal.self_s", "s"),
    ("regions.contains.calls", "count"),
    ("regions.build_system.self_s", "s"),
    ("regions.binding_from_pmf.self_s", "s"),
    ("information.cond_entropy.calls", "count"),
    ("information.cond_entropy.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("hashing.hash_eval.calls", "count"),
    ("hashing.hash_eval.self_s", "s"),
    ("hashing.enumerate_functions.yielded", "count"),
    ("hashing.enumerate_functions.self_s", "s"),
    ("hashing.verify_mcrp.self_s", "s"),
    ("hashing.verify_mbcp.self_s", "s"),
    ("hashing.verify_hash_property.self_s", "s"),
    ("hashing.sample_function.self_s", "s"),
    ("scenarios.make_code.self_s", "s"),
    ("codec.simulate.self_s", "s"),
    ("codec.encode.calls", "count"),
    ("codec.encode.self_s", "s"),
    ("codec.decode.calls", "count"),
    ("codec.decode.self_s", "s"),
    ("codec.reproduce.self_s", "s"),
    ("codec.decoder_class_law.calls", "count"),
    ("codec.decoder_class_law.distinct", "count"),
    ("codec.decoder_class_law.self_s", "s"),
    ("codec.decoder_class_law.support", "count"),
    ("codec.decoder_class_law.candidates", "count"),
    ("codec.cell_constrained_law.calls", "count"),
    ("codec.cell_constrained_law.distinct", "count"),
    ("codec.cell_constrained_law.self_s", "s"),
    ("codec.cell_constrained_law.support", "count"),
    ("codec.cell_base_law.items", "count"),
    ("codec.exact_error.self_s", "s"),
    ("codec.exact_error.source_blocks", "count"),
    ("codec.encoder_aborts", "count"),
    ("codec.decoder_aborts", "count"),
    ("probability.marginalize.calls", "count"),
    ("probability.marginalize.self_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

