//! Diagnostic: allocation counts and phase timings on the maintenance hot
//! path.  Not an experiment from the paper — a tool for keeping the
//! in-place hot path honest (run after changes to `fivm-core`/`fivm-ring`
//! to see allocations/row, probe volume and where the time goes; the
//! trailing ablation compares allocs/probe and ns/probe between the boxed
//! and dictionary-encoded key representations).

use fivm_bench::{ProbeAblation, Workload};
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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
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

    // Probe ablation: the same fact-table keys probed as boxed Value
    // tuples vs dictionary-encoded keys (allocs/probe must be 0 for both —
    // probing never allocates — the difference is pure probe cost).
    let ablation = ProbeAblation::from_workload(&workload);
    let passes = if quick { 20 } else { 100 };
    for (label, encoded) in [("boxed ", false), ("encode", true)] {
        let (dt, da) = measured(|| {
            let mut acc = 0i64;
            for _ in 0..passes {
                acc += if encoded {
                    ablation.run_encoded()
                } else {
                    ablation.run_boxed()
                };
            }
            black_box(acc);
        });
        let probes = (ablation.num_probes() * passes) as f64;
        println!(
            "{label}: {:>8.1}M probes/s  {:>6.1} allocs/probe  {:>7.1} ns/probe  ({} keys)",
            probes / dt.as_secs_f64() / 1e6,
            da as f64 / probes,
            dt.as_nanos() as f64 / probes,
            ablation.len(),
        );
    }

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
