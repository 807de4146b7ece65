//! Diagnostic: allocation counts and phase timings on the maintenance hot
//! path.  Not an experiment from the paper — a tool for keeping the
//! in-place hot path honest (run after changes to `fivm-core`/`fivm-ring`
//! to see allocations/row, probe volume and where the time goes).
//!
//! `--favorita` profiles the ring-bound regime instead: Favorita at default
//! scale under the generalized COVAR and MI payloads, each 1000-row bulk
//! applied and then inverted (the cancel-and-refill churn a maintained view
//! lives in), measured after one warm round — ns/row, allocations/row,
//! ring-interior rehashes per 1000 rows, the resident `table_bytes` and
//! those bytes per view entry (what `ring.payload_bytes_per_entry` reports
//! in the benchmark: payloads plus the view maps that hold them).

use fivm_bench::Workload;
use fivm_core::Engine;
use fivm_ring::GenCofactor;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[path = "../../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

/// Runs `f`, returning its wall time and the allocations it made.
fn measured(f: impl FnOnce()) -> (Duration, u64) {
    let t0 = Instant::now();
    let allocs = allocations_during(f);
    (t0.elapsed(), allocs)
}

/// The `--favorita` profile of one engine: a warm forward-then-inverse
/// round fixes the key set and sizes every table, the second round is
/// measured.
fn favorita_profile(label: &str, workload: &Workload, mut engine: Engine<GenCofactor>) {
    engine.load_database(&workload.database).unwrap();
    let round = |engine: &mut Engine<GenCofactor>| {
        for u in &workload.updates {
            black_box(engine.apply_update(u).unwrap());
            black_box(engine.apply_update(&u.inverse()).unwrap());
        }
    };
    round(&mut engine);
    let before = engine.stats();
    let (dt, da) = measured(|| round(&mut engine));
    let stats = engine.stats();
    let rows = (stats.rows_applied - before.rows_applied) as f64;
    println!(
        "{label}: {:>7.0} ns/row  {:>6.1} allocs/row  {:>7.1} ring rehashes/krow  {:>6.1} MB table_bytes  {:>6.0} B/view entry  ({rows} rows)",
        dt.as_nanos() as f64 / rows,
        da as f64 / rows,
        (stats.ring_rehashes - before.ring_rehashes) as f64 * 1000.0 / rows,
        stats.table_bytes as f64 / (1024.0 * 1024.0),
        stats.table_bytes as f64 / engine.total_view_entries().max(1) as f64,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--favorita") {
        let workload = Workload::favorita(
            fivm_data::FavoritaConfig::default(),
            fivm_data::StreamConfig {
                bulks: if quick { 2 } else { 10 },
                bulk_size: 1_000,
                delete_fraction: 0.2,
                seed: 1,
            },
        );
        println!(
            "Favorita, {} bulks of 1000 rows, each applied then inverted",
            workload.updates.len()
        );
        favorita_profile("gen-COVAR", &workload, workload.gen_covar_engine());
        favorita_profile("MI       ", &workload, workload.mi_engine());
        return;
    }
    let workload = Workload::retailer(
        fivm_data::RetailerConfig::default(),
        fivm_data::StreamConfig {
            bulks: if quick { 10 } else { 100 },
            bulk_size: 1_000,
            delete_fraction: 0.2,
            seed: 1,
        },
        true,
    );
    let rows: usize = workload.updates.iter().map(|u| u.len()).sum();
    println!("Retailer, {} update rows in {} bulks", rows, workload.updates.len());

    // COUNT engine.
    let mut count = workload.count_engine();
    count.load_database(&workload.database).unwrap();
    let (dt, da) = measured(|| {
        for u in &workload.updates {
            black_box(count.apply_update(u).unwrap());
        }
    });
    println!(
        "COUNT : {:>8.0} rows/s  {:>6.1} allocs/row  {:>7.0} ns/row  stats={:?}",
        rows as f64 / dt.as_secs_f64(),
        da as f64 / rows as f64,
        dt.as_nanos() as f64 / rows as f64,
        count.stats()
    );

    // COVAR engine.
    let mut covar = workload.covar_engine();
    covar.load_database(&workload.database).unwrap();
    let (dt, da) = measured(|| {
        for u in &workload.updates {
            black_box(covar.apply_update(u).unwrap());
        }
    });
    println!(
        "COVAR : {:>8.0} rows/s  {:>6.1} allocs/row  {:>7.0} ns/row  stats={:?}",
        rows as f64 / dt.as_secs_f64(),
        da as f64 / rows as f64,
        dt.as_nanos() as f64 / rows as f64,
        covar.stats()
    );

    // Baseline cost of just iterating + cloning the update rows (what any
    // engine pays before touching views).
    let mut n = 0usize;
    let (dt, da) = measured(|| {
        for u in &workload.updates {
            for (row, m) in u.rows.iter() {
                black_box((row.clone(), m));
                n += 1;
            }
        }
    });
    println!(
        "clone : {:>8.0} rows/s  {:>6.1} allocs/row  {:>7.0} ns/row  ({n} rows)",
        rows as f64 / dt.as_secs_f64(),
        da as f64 / rows as f64,
        dt.as_nanos() as f64 / rows as f64,
    );
}
