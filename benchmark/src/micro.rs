//! Micro-kernels: fixed operation counts against the public primitives of
//! single layers, run once per traced run after the workload's own pass.
//! Each runs in a churn-and-return shape (apply, then undo) so tables stay
//! warm and no state grows.

use crate::gen;
use crate::harness::{churn, fast, scratch_dir, EngineTarget, Params, Report};
use crate::pair::covar_engine;
use crate::trace::Tracer;
use crate::util::timed;
use fivm_cdc::SegmentedLog;
use fivm_common::table::RawTable;
use fivm_common::{wire, Dict, EncodedValue, Value, WireReader};
use fivm_core::apps;
use fivm_data::retailer::{retailer_query_continuous, retailer_tree, retailer_variable_order};
use fivm_data::RetailerConfig;
use fivm_query::fingerprint::tree_fingerprints;
use fivm_query::PartitionPlan;
use fivm_relation::{tuple, Relation};
use fivm_ring::lift::{
    cofactor_continuous_lift, gen_categorical_lift, gen_continuous_lift, relational_lift,
};
use fivm_ring::{Cofactor, GenCofactor, RelValue, Ring, RingCtx};
use std::hint::black_box;

const OPS: usize = 100_000;
const REPEATS: usize = 5;

/// Fast-quartile ns per operation of `f(i)` over `REPEATS` runs of `ops`
/// calls.
fn ns_per_op(ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let ((), s) = timed(|| {
                for i in 0..ops {
                    f(i);
                }
            });
            s * 1e9 / ops as f64
        })
        .collect();
    fast(&runs)
}

fn common(report: &mut Report) {
    // Dictionary-encoding a fact-shaped row: three int keys and a double.
    let rows: Vec<[Value; 4]> = (0..4096i64)
        .map(|i| {
            [
                Value::int(i % 60),
                Value::int(i % 200),
                Value::int(i % 400),
                Value::double((i % 97) as f64),
            ]
        })
        .collect();
    let mut dict = Dict::new();
    report.layer(
        "common.dict_encode_ns",
        ns_per_op(OPS, |i| {
            black_box(dict.encode_key(&rows[i % rows.len()]));
        }),
    );

    // A table of 100K encoded keys: hit probes, then remove + reinsert.
    let keys: Vec<_> = (0..100_000i64)
        .map(|i| dict.encode_key(&[Value::int(i), Value::int(i * 7)]))
        .collect();
    let hashes: Vec<u64> = keys.iter().map(|k| k.fx_hash()).collect();
    let mut table: RawTable<_, i64> = RawTable::with_capacity(keys.len());
    for (k, h) in keys.iter().zip(&hashes) {
        table.insert(*h, k.clone(), 1);
    }
    report.layer(
        "common.table_bytes_per_entry",
        table.allocated_bytes() as f64 / table.len() as f64,
    );
    // A stride walk defeats the prefetcher the way hashed probes do.
    let at = |i: usize| (i * 7919) % keys.len();
    report.layer(
        "common.table_find_ns",
        ns_per_op(OPS, |i| {
            let j = at(i);
            black_box(table.find_idx(hashes[j], |k, _| *k == keys[j]));
        }),
    );
    report.layer(
        "common.table_upsert_ns",
        ns_per_op(OPS, |i| {
            let j = at(i);
            let v = table.remove(hashes[j], &keys[j]).unwrap_or(0);
            table.insert(hashes[j], keys[j].clone(), v + 1);
        }) / 2.0,
    );

    // One changelog-shaped row through the wire format and back.
    let mut buf = Vec::with_capacity(256);
    report.layer(
        "common.wire_row_ns",
        ns_per_op(OPS, |i| {
            buf.clear();
            for v in &rows[i % rows.len()] {
                wire::put_value(&mut buf, v);
            }
            let mut r = WireReader::new(&buf);
            for _ in 0..4 {
                black_box(wire::read_value(&mut r).is_ok());
            }
        }),
    );
}

fn ring(report: &mut Report) {
    const DIM: usize = 8;
    // Dense cofactor accumulate: slot += a * b, then undone.
    let a = cofactor_continuous_lift(DIM, 1, "x").apply(&Value::double(3.0));
    let b = cofactor_continuous_lift(DIM, 5, "y")
        .apply(&Value::double(7.0))
        .mul(&a);
    let mut slot = a.mul(&b);
    report.layer(
        "ring.cofactor_fma_ns",
        ns_per_op(OPS, |i| {
            slot.fma_scaled(&a, &b, if i % 2 == 0 { 1 } else { -1 });
        }),
    );
    black_box(&slot);

    let ctx = RingCtx::new();
    let cont = gen_continuous_lift(DIM, 1, "x");
    let cat = gen_categorical_lift(DIM, 2, 2, "c", &ctx);
    let ga = cont.apply(&Value::double(3.0));
    let gb = cat.apply(&Value::int(4)).mul(&ga);
    let mut gslot = ga.mul(&gb);
    report.layer(
        "ring.gencofactor_fma_ns",
        ns_per_op(OPS / 4, |i| {
            gslot.fma_scaled(&ga, &gb, if i % 2 == 0 { 1 } else { -1 });
        }),
    );

    // Relation-ring accumulate over 64 churned keys.
    let lift_x = relational_lift(0, "x", &ctx);
    let lift_y = relational_lift(1, "y", &ctx);
    let xs: Vec<RelValue> = (0..64).map(|i| lift_x.apply(&Value::int(i))).collect();
    let y = lift_y.apply(&Value::int(9));
    let mut rslot = RelValue::zero();
    for x in &xs {
        rslot.fma_scaled(x, &y, 1);
    }
    report.layer(
        "ring.relvalue_fma_ns",
        ns_per_op(OPS, |i| {
            rslot.fma_scaled(
                &xs[i % xs.len()],
                &y,
                if (i / xs.len()).is_multiple_of(2) {
                    1
                } else {
                    -1
                },
            );
        }),
    );

    // Fused lift-multiply-accumulate, continuous and categorical.
    let lift = cofactor_continuous_lift(DIM, 3, "z");
    let acc = Cofactor::one();
    let mut cslot = lift.apply(&Value::double(1.0));
    let values: Vec<Value> = (0..64).map(|i| Value::double(i as f64)).collect();
    report.layer(
        "ring.lift_cont_ns",
        ns_per_op(OPS, |i| {
            lift.fma_apply(
                &values[i % values.len()],
                &acc,
                if (i / values.len()).is_multiple_of(2) {
                    1
                } else {
                    -1
                },
                &mut cslot,
            );
        }),
    );
    let gacc = GenCofactor::one();
    let mut catslot = cat.apply(&Value::int(0));
    let evs: Vec<EncodedValue> = (0..64).map(EncodedValue::int).collect();
    report.layer(
        "ring.lift_cat_ns",
        ns_per_op(OPS, |i| {
            let scale = if (i / evs.len()).is_multiple_of(2) {
                1
            } else {
                -1
            };
            cat.fma_apply_encoded(
                evs[i % evs.len()],
                |ev| ctx.decode_value(ev),
                &gacc,
                scale,
                &mut catslot,
            );
        }),
    );
}

fn relation(report: &mut Report) {
    // Merging two shard partials keyed by (locn, dateid): per entry.
    let partial = |offset: i64| {
        Relation::from_entries(
            vec![0, 1],
            (0..4096i64).map(|i| (tuple([Value::int(i + offset), Value::int(i % 200)]), 1i64)),
        )
    };
    let (a, b) = (partial(0), partial(2048));
    let entries = b.len();
    report.layer(
        "relation.union_add_ns",
        ns_per_op(20, |_| {
            let mut merged = a.clone();
            merged.union_add(&b);
            black_box(merged);
        }) / entries as f64,
    );
}

fn cdc(p: &Params, report: &mut Report) {
    let (cfg, _) = gen::retailer_db(RetailerConfig::default(), p.seed);
    let round = gen::retailer_fact_round(&cfg, p.seed, 5, 1000, 50);
    let dir = scratch_dir("micro-cdc");
    let mut log = SegmentedLog::create(&dir, 64 << 20).expect("segmented log");
    let mut appended_rows = 0usize;
    let (mut append_ns, mut fsync_us) = (Vec::new(), Vec::new());
    // Groups of 8 batches per fsync, the open-loop service's regime.
    for group in round.forward.chunks(8) {
        let rows: usize = group.iter().map(|u| u.len()).sum();
        let ((), s) = timed(|| {
            for update in group {
                log.append_unsynced(update).expect("append");
            }
        });
        append_ns.push(s * 1e9 / rows as f64);
        let ((), s) = timed(|| log.sync().expect("fsync"));
        fsync_us.push(s * 1e6);
        appended_rows += rows;
    }
    report.layer("cdc.append_ns_per_row", fast(&append_ns));
    report.layer("cdc.fsync_us", fast(&fsync_us));
    // One segment, nothing retired: bytes on disk are the bytes logged.
    report.layer(
        "cdc.log_bytes_per_row",
        log.total_bytes() as f64 / appended_rows as f64,
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Default-scale (cache-resident) Retailer: the batch-size sweep for COVAR
/// and the COUNT twin of `retailer-fact`.
fn core(p: &Params, tr: &mut Tracer, report: &mut Report) {
    let (cfg, db) = gen::retailer_db(RetailerConfig::default(), p.seed);
    let tree = retailer_tree(retailer_query_continuous());
    let mut scratch = Report::default();
    let window_s = if p.full { 0.3 } else { 0.1 };
    for (batch_rows, name) in [
        (1, "core.apply_ns_per_row_b1"),
        (10, "core.apply_ns_per_row_b10"),
        (1000, "core.apply_ns_per_row_b1000"),
    ] {
        let round = gen::retailer_fact_round(&cfg, p.seed, 2, 1000, batch_rows);
        let mut target = EngineTarget::loaded(covar_engine(tree.clone()).0, &db);
        churn(
            tr,
            "core.apply_update.covar",
            &round,
            &mut target,
            0.0,
            1,
            &mut scratch,
        );
        let w = churn(
            tr,
            "core.apply_update.covar",
            &round,
            &mut target,
            window_s,
            3,
            &mut scratch,
        );
        report.layer(name, 1e9 / w.rows_per_s());
    }
    let round = gen::retailer_fact_round(&cfg, p.seed, 5, 1000, 1000);
    let mut target =
        EngineTarget::loaded(apps::count_engine(tree.clone()).expect("count engine"), &db);
    churn(
        tr,
        "core.apply_update.count",
        &round,
        &mut target,
        0.0,
        1,
        &mut scratch,
    );
    let w = churn(
        tr,
        "core.apply_update.count",
        &round,
        &mut target,
        window_s,
        3,
        &mut scratch,
    );
    report.layer("core.count_rows_per_s_cached", w.rows_per_s());
    report.attempted += scratch.attempted;
    report.failed += scratch.failed;
    report.failures.extend(scratch.failures);

    let spec = tree.spec();
    let order = retailer_variable_order(spec);
    report.layer(
        "query.fingerprint_us",
        ns_per_op(200, |_| {
            black_box(tree_fingerprints(&tree));
        }) / 1e3,
    );
    report.layer(
        "query.partition_plan_us",
        ns_per_op(200, |_| {
            black_box(PartitionPlan::choose(spec, &order).is_ok());
        }) / 1e3,
    );
}

pub fn run(p: &Params, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    tr.span("bench.micro", 0, |tr| {
        tr.leaf("common.micro", 0, || common(&mut report));
        tr.leaf("ring.micro", 0, || ring(&mut report));
        tr.leaf("relation.micro", 0, || relation(&mut report));
        tr.leaf("cdc.micro", 0, || cdc(p, &mut report));
        core(p, tr, &mut report);
    });
    report
}
