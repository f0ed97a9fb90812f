"""Metric definitions shared by run.py, the child process and the smoke test.

BENCHMARK.json lists the same names, units and directions; the smoke test
checks that the two agree.  The last field of each entry says which
end-to-end metric, on which workload, a change in that metric should move.
"""

WORKLOADS = ("catalog_table", "wide_products", "locality_sweep")

# name, unit, better, what it is; every time is in paced seconds (pace.py)
END_TO_END = (
    ("setup_s", "s", "lower",
     "fresh process: import, 17 catalog builds, workload inputs; median of 5"),
    ("wall_s", "s", "lower", "median time of one pass over the query list"),
    ("query_p50_ms", "ms", "lower", "median latency of every timed query"),
    ("query_p90_ms", "ms", "lower", "90th percentile latency of every timed query"),
    ("peak_rss_mb", "MB", "lower", "ru_maxrss of the workload's child process"),
)

# name, unit, better, source, should move
#
# Sources, aggregated over the traced set-up plus the mean traced pass:
#   ("time", span...)  duration of spans of these names not nested in another
#   ("self", span)     duration minus the time covered by direct child spans
#   ("calls", span)    number of spans
#   ("extra", span)    sum of the value a span records (rows checked)
#   ("counter", key)   a counter kept by a wrapper that records no span
#   ("ratio", a, b)    counter a / counter b
#   ("max", key)       largest value seen
#   ("overhead",)      median traced pass minus median untraced pass
PER_LAYER = (
    ("cli.self_s", "s", "lower", ("self", "cli"), "query_p50_ms on catalog_table"),
    ("catalog.build_s", "s", "lower", ("time", "catalog.build"), "setup_s on all workloads"),
    ("catalog.builds", "count", "lower", ("calls", "catalog.build"),
     "setup_s on all workloads"),
    ("parser.parse_s", "s", "lower", ("time", "parser.parse"),
     "setup_s; wall_s on catalog_table"),
    ("parser.parse_calls", "count", "lower", ("calls", "parser.parse"),
     "setup_s; wall_s on catalog_table"),
    ("parser.pretty_s", "s", "lower", ("time", "parser.pretty"),
     "setup_s; wall_s on catalog_table"),
    ("parser.pretty_calls", "count", "lower", ("calls", "parser.pretty"),
     "setup_s; wall_s on catalog_table"),
    ("free3.closure_s", "s", "lower", ("time", "free3.closure"), "wall_s on catalog_table"),
    ("free3.closure_calls", "count", "lower", ("calls", "free3.closure"),
     "wall_s on catalog_table"),
    ("free3.guard_s", "s", "lower", ("time", "free3.guard"),
     "wall_s and query_p90_ms on wide_products; wall_s on catalog_table; "
     "no change on locality_sweep"),
    ("free3.guard_calls", "count", "lower", ("calls", "free3.guard"),
     "wall_s on wide_products and catalog_table"),
    ("free3.guard_rows", "count", "lower", ("extra", "free3.guard"),
     "wall_s on wide_products and catalog_table"),
    ("operad.load_s", "s", "lower", ("time", "operad.load"), "wall_s on catalog_table"),
    ("operad.projection_s", "s", "lower", ("time", "operad.project", "operad.p3_projection"),
     "wall_s on catalog_table"),
    ("operad.project_calls", "count", "lower", ("calls", "operad.project"),
     "wall_s on catalog_table"),
    ("linalg.add_calls", "count", "lower", ("counter", "add_calls"),
     "wall_s on locality_sweep"),
    ("linalg.add_useful_ratio", "ratio", "higher", ("ratio", "add_useful", "add_calls"),
     "wall_s on locality_sweep"),
    ("linalg.contains_calls", "count", "lower", ("calls", "linalg.contains"),
     "wall_s on locality_sweep"),
    ("linalg.contains_s", "s", "lower", ("time", "linalg.contains"),
     "wall_s on locality_sweep"),
    ("linalg.canon_s", "s", "lower", ("time", "linalg.canon"), "wall_s on wide_products"),
    ("linalg.perp_s", "s", "lower", ("time", "linalg.perp"), "wall_s on wide_products"),
    ("linalg.perp_calls", "count", "lower", ("calls", "linalg.perp"),
     "wall_s on wide_products"),
    ("linalg.intersect_s", "s", "lower", ("time", "linalg.intersect"),
     "query_p50_ms on catalog_table"),
    ("linalg.max_ambient_dim", "dim", "lower", ("max", "ambient_dim"),
     "peak_rss_mb on wide_products and locality_sweep"),
    ("koszul.dual_s", "s", "lower", ("time", "koszul.dual"), "wall_s on wide_products"),
    ("koszul.dual_self_s", "s", "lower", ("self", "koszul.dual"), "wall_s on wide_products"),
    ("manin.white_s", "s", "lower", ("time", "manin.white"), "wall_s on wide_products"),
    ("manin.white_self_s", "s", "lower", ("self", "manin.white"), "wall_s on wide_products"),
    ("manin.black_s", "s", "lower", ("time", "manin.black"), "wall_s on catalog_table"),
    ("manin.split_s", "s", "lower", ("time", "manin.split"), "wall_s on catalog_table"),
    ("dong.verdict_s", "s", "lower", ("time", "dong.verdict"), "query_p50_ms on catalog_table"),
    ("dong.verdict_self_s", "s", "lower", ("self", "dong.verdict"),
     "query_p50_ms on catalog_table"),
    ("locality.instance_s", "s", "lower", ("time", "locality.instance"),
     "wall_s and peak_rss_mb on locality_sweep"),
    ("locality.block_build_s", "s", "lower", ("time", "locality.block_build"),
     "wall_s and peak_rss_mb on locality_sweep"),
    ("locality.blocks_built", "count", "lower", ("calls", "locality.block_build"),
     "wall_s and peak_rss_mb on locality_sweep"),
    ("locality.membership_s", "s", "lower", ("time", "locality.membership"),
     "wall_s on locality_sweep"),
    ("locality.membership_calls", "count", "lower", ("calls", "locality.membership"),
     "wall_s on locality_sweep"),
    ("trace.overhead_s", "s", "lower", ("overhead",), "none: the cost of tracing"),
)
