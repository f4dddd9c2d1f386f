"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test keeps the two in step.  ``moves`` records, for each layer
metric, which end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median over at least 3 set-ups (and at least 4 s of them) of writing the workload's inputs plus a cold `import dfrep.cli` process"),
    ("wall_s", "s", "lower", 0.25,
     "one pass over the workload's operations: sum over operations of each one's median wall time"),
    ("op_p50_s", "s", "lower", 0.25,
     "median wall time over every operation run"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the process doing the work (largest CLI process on cli_cold)"),
)

# name, unit, better, moves
PER_LAYER = (
    ("cli.import_s", "s", "lower", "op_p50_s on cli_cold; setup_s everywhere"),
    ("cli.process_overhead_s", "s", "lower", "op_p50_s on cli_cold"),
    ("cli.main_s", "s", "lower", "op_p50_s on cli_cold"),
    ("cli.command_self_s", "s", "lower", "wall_s on represent_dense and sample_small"),
    ("cli.emit_s", "s", "lower", "op_p50_s on cli_cold"),
    ("scenarios.parse_s", "s", "lower", "wall_s on represent_dense; op_p50_s on cli_cold"),
    ("scenarios.parse_bytes", "bytes", "lower", "wall_s on represent_dense; op_p50_s on cli_cold"),
    ("scenarios.functional_at_s", "s", "lower", "wall_s on sample_small"),
    ("functionals.pair_table_s", "s", "lower", "wall_s and peak_rss_mb on represent_dense"),
    ("functionals.pair_table_calls", "count", "lower", "wall_s on represent_dense"),
    ("functionals.pair_evals", "count", "lower", "wall_s and peak_rss_mb on represent_dense"),
    ("functionals.evaluate_calls", "count", "lower", "wall_s on sample_small"),
    ("functionals.evaluate_s", "s", "lower", "wall_s on sample_small"),
    ("functionals.check_axioms_s", "s", "lower", "wall_s on sample_small"),
    ("histories.pair_table_s", "s", "lower", "wall_s on represent_dense"),
    ("histories.pair_evals", "count", "lower", "wall_s on represent_dense"),
    ("histories.model_build_s", "s", "lower", "setup_s; op_p50_s on cli_cold"),
    ("ils.atom_count", "count", "lower", "peak_rss_mb on represent_dense"),
    ("ils.table_bytes_computed", "bytes", "lower", "peak_rss_mb on represent_dense"),
    ("ils.atoms_s", "s", "lower", "wall_s on represent_dense"),
    ("ils.unit_table_s", "s", "lower", "wall_s on represent_dense"),
    ("ils.diagnostics_s", "s", "lower", "wall_s on represent_dense"),
    ("ils.verify_s", "s", "lower", "wall_s on represent_dense and sample_small"),
    ("ils.extract_s", "s", "lower", "wall_s on represent_dense"),
    ("tracial.gram_s", "s", "lower", "wall_s on represent_dense"),
    ("tracial.decompose_s", "s", "lower", "wall_s on represent_dense"),
    ("tracial.gram_eigs_kept", "count", "lower", "wall_s on represent_dense"),
    ("tracial.gram_eigs_dropped", "count", "lower", "wall_s on represent_dense"),
    ("tracial.beta_s", "s", "lower", "wall_s on represent_dense and sample_small"),
    ("tracial.pairing_operator_s", "s", "lower", "wall_s on sample_small"),
    ("tracial.kron_terms", "count", "lower", "wall_s on sample_small"),
    ("tracial.double_sum_s", "s", "lower", "wall_s on sample_small"),
    ("tracial.double_sum_calls", "count", "lower", "wall_s on sample_small"),
    ("tracial.reconstruct_s", "s", "lower", "wall_s on sample_small"),
    ("tracial.oracle_calls", "count", "lower", "wall_s on sample_small"),
    ("probes.tensor_bound_s", "s", "lower", "wall_s on sample_small"),
    ("probes.samples", "count", "lower", "wall_s on sample_small"),
    ("linalg.trace_norm_s", "s", "lower", "wall_s on represent_dense"),
    ("linalg.trace_norm_calls", "count", "lower", "wall_s on represent_dense"),
    ("linalg.operator_norm_s", "s", "lower", "wall_s on represent_dense"),
    ("linalg.swap_operator_s", "s", "lower", "wall_s on represent_dense"),
    ("linalg.random_projection_s", "s", "lower", "wall_s on sample_small"),
    ("linalg.random_projection_calls", "count", "lower", "wall_s on sample_small"),
    ("linalg.kron_trace_s", "s", "lower", "wall_s on sample_small"),
    ("linalg.kron_trace_calls", "count", "lower", "wall_s on sample_small"),
    ("linalg.projection_new_calls", "count", "lower", "wall_s on sample_small"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
