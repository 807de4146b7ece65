//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics.  `BENCHMARK.json`
//! at the repository root is the output of `fivm-e2e spec`; `ci-smoke.sh`
//! fails when the two drift apart.

use crate::util::json_str;

/// Seconds one run measures (`--seconds` when the driver calls).
pub const RUN_SECONDS: u64 = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as Up, Lower as Down};

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "retailer-fact",
        "Engine, Retailer at 108K rows, fact-only bulks of 1000: views exceed cache and ring work is trivial-to-dense, so common and core do the work; contrast = COUNT",
    ),
    (
        "favorita-ring",
        "Engine, Favorita, generalized COVAR (contrast = MI) with model refresh: ring tables and ml dominate, keys and probes are a rounding error - the mirror image of retailer-fact",
    ),
    (
        "retailer-mixed",
        "Engine, same database as retailer-fact, batches of 10 rows and every 10th a dimension-row replacement: scalar kernel path, index probes and fan-out; contrast = COUNT",
    ),
    (
        "retailer-service",
        "CdcService COVAR: open loop 1000 batches/s x 50 rows (latency), closed loop with rotation and snapshots (throughput), crash recovery; contrast = the same batches in memory",
    ),
    (
        "retailer-fleet",
        "Eight COVAR group-by variants through one QueryRegistry DAG, bulks of 1000 with a dimension bulk per ten: dag is the layer under test; contrast = eight independent engines",
    ),
];

/// Metrics a user of the system sees.  Every workload reports every one of
/// them through its own deployment (see README.md for what each means per
/// workload).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Down, 0.25),
    e2e("covar_rows_per_s", "rows/s", Up, 0.25),
    e2e("contrast_rows_per_s", "rows/s", Up, 0.25),
    e2e("visible_p50_ms", "ms", Down, 0.25),
    e2e("recover_s", "s", Down, 0.25),
    e2e("resident_mb", "MB", Down, 0.05),
    e2e("peak_rss_mb", "MB", Down, 0.15),
];

/// Metrics of single layers (layer = crate), from the traced run.
pub const PER_LAYER: &[Metric] = &[
    // data → setup_s
    layer("data.gen_db_s", "s", Down),
    layer("data.gen_stream_rows_per_s", "rows/s", Up),
    // query → setup_s
    layer("query.compile_us", "us", Down),
    layer("query.fingerprint_us", "us", Down),
    layer("query.partition_plan_us", "us", Down),
    // common → contrast_rows_per_s @ retailer-fact/-mixed, service, recover
    layer("common.dict_encode_ns", "ns", Down),
    layer("common.table_find_ns", "ns", Down),
    layer("common.table_upsert_ns", "ns", Down),
    layer("common.table_bytes_per_entry", "B", Down),
    layer("common.wire_row_ns", "ns", Down),
    // ring → covar/contrast_rows_per_s @ favorita-ring
    layer("ring.cofactor_fma_ns", "ns", Down),
    layer("ring.gencofactor_fma_ns", "ns", Down),
    layer("ring.relvalue_fma_ns", "ns", Down),
    layer("ring.lift_cont_ns", "ns", Down),
    layer("ring.lift_cat_ns", "ns", Down),
    layer("ring.adds_per_row", "count", Down),
    layer("ring.muls_per_row", "count", Down),
    layer("ring.rehashes_per_krow", "count", Down),
    layer("ring.payload_bytes_per_entry", "B", Down),
    layer("ring.persist_mb_per_s", "MB/s", Up),
    // relation → shard.result_merge_ms
    layer("relation.union_add_ns", "ns", Down),
    // core → every *_rows_per_s
    layer("core.count_apply_ns_per_row", "ns", Down),
    layer("core.covar_apply_ns_per_row", "ns", Down),
    layer("core.mi_apply_ns_per_row", "ns", Down),
    layer("core.fact_apply_ns_per_row", "ns", Down),
    layer("core.dim_apply_ns_per_row", "ns", Down),
    layer("core.apply_ns_per_row_b1", "ns", Down),
    layer("core.apply_ns_per_row_b10", "ns", Down),
    layer("core.apply_ns_per_row_b1000", "ns", Down),
    layer("core.count_rows_per_s_cached", "rows/s", Up),
    layer("core.delta_entries_per_row", "count", Down),
    layer("core.probes_per_row", "count", Down),
    layer("core.probe_hit_ratio", "ratio", Up),
    layer("core.rehashes", "count", Down),
    layer("core.deferred_index_builds", "count", Down),
    layer("core.view_bytes_per_row", "B", Down),
    layer("core.load_rows_per_s", "rows/s", Up),
    layer("core.result_us", "us", Down),
    layer("core.result_relation_ms", "ms", Down),
    layer("core.save_state_ms", "ms", Down),
    layer("core.load_state_ms", "ms", Down),
    layer("core.state_mb", "MB", Down),
    layer("core.visible_p99_ms", "ms", Down),
    // ml → ml.refresh_ms (demoted from end to end, see README.md)
    layer("ml.refresh_ms", "ms", Down),
    layer("ml.densecovar_ms", "ms", Down),
    layer("ml.ridge_closed_ms", "ms", Down),
    layer("ml.ridge_gd_ms", "ms", Down),
    layer("ml.ridge_gd_iters", "count", Down),
    layer("ml.mi_matrix_ms", "ms", Down),
    layer("ml.chow_liu_us", "us", Down),
    layer("ml.rank_us", "us", Down),
    // cdc → everything @ retailer-service
    layer("cdc.ack_p50_ms", "ms", Down),
    layer("cdc.ack_p99_ms", "ms", Down),
    layer("cdc.visible_p99_ms", "ms", Down),
    layer("cdc.visible_p999_ms", "ms", Down),
    layer("cdc.visible_over_250ms", "count", Down),
    layer("cdc.apply_lag_p50_ms", "ms", Down),
    layer("cdc.generator_late_max_ms", "ms", Down),
    layer("cdc.submit_p50_us", "us", Down),
    layer("cdc.submit_p99_us", "us", Down),
    layer("cdc.rows_per_group", "rows", Up),
    layer("cdc.fsyncs_per_krow", "count", Down),
    layer("cdc.log_bytes_per_row", "B", Down),
    layer("cdc.max_queue_depth", "count", Down),
    layer("cdc.append_ns_per_row", "ns", Down),
    layer("cdc.fsync_us", "us", Down),
    layer("cdc.snapshot_ms", "ms", Down),
    layer("cdc.snapshot_mb", "MB", Down),
    layer("cdc.snapshot_stall_ms", "ms", Down),
    layer("cdc.snapshots", "count", Down),
    layer("cdc.retired_segments", "count", Up),
    layer("cdc.disk_peak_mb", "MB", Down),
    layer("cdc.restore_ms", "ms", Down),
    layer("cdc.replay_rows_per_s", "rows/s", Up),
    layer("cdc.replayed_rows", "rows", Down),
    layer("cdc.durable_engine_rows_per_s", "rows/s", Up),
    layer("cdc.durable_overhead_x", "x", Down),
    // shard → shard.rows_per_s (demoted from end to end, see README.md)
    layer("shard.rows_per_s", "rows/s", Up),
    layer("shard.apply_ns_per_row", "ns", Down),
    layer("shard.speedup_x", "x", Up),
    layer("shard.route_skew", "ratio", Down),
    layer("shard.broadcast_fraction", "ratio", Down),
    layer("shard.result_merge_ms", "ms", Down),
    layer("shard.load_s", "s", Down),
    layer("shard.resident_mb", "MB", Down),
    // dag → covar_rows_per_s @ retailer-fleet, setup_s
    layer("dag.register_ms", "ms", Down),
    layer("dag.live_nodes", "count", Down),
    layer("dag.solo_nodes", "count", Down),
    layer("dag.apply_ns_per_query_row", "ns", Down),
    layer("dag.speedup_x", "x", Up),
    layer("dag.k1_overhead_x", "x", Down),
    layer("dag.resident_mb", "MB", Down),
    layer("dag.unregister_ms", "ms", Down),
    layer("dag.durable_rows_per_s", "rows/s", Up),
    // baselines, bench
    layer("baselines.naive_check_s", "s", Down),
    layer("bench.trace_overhead_pct", "%", Down),
    layer("bench.trace_spans", "count", Down),
    layer("bench.unattributed_pct", "%", Down),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// A metric that counts (repeats exactly for one seed), as opposed to one
/// that times.
pub fn is_count(name: &str) -> bool {
    const COUNTS: &[&str] = &[
        "resident_mb",
        "common.table_bytes_per_entry",
        "ring.adds_per_row",
        "ring.muls_per_row",
        "ring.rehashes_per_krow",
        "ring.payload_bytes_per_entry",
        "core.delta_entries_per_row",
        "core.probes_per_row",
        "core.probe_hit_ratio",
        "core.rehashes",
        "core.deferred_index_builds",
        "core.view_bytes_per_row",
        "core.state_mb",
        "cdc.log_bytes_per_row",
        "cdc.snapshot_mb",
        "cdc.replayed_rows",
        "shard.broadcast_fraction",
        "shard.resident_mb",
        "dag.live_nodes",
        "dag.solo_nodes",
        "dag.resident_mb",
    ];
    COUNTS.contains(&name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |b: Better| if b == Up { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m.better)),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m.better))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
