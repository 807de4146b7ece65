//! Experiment E2 — update throughput and speedups over the baselines.
//!
//! Reproduces the shape of the paper's §1 claims: F-IVM sustains on the
//! order of 10K updates/second per thread for batches of aggregates over
//! joins of five relations, and is orders of magnitude faster than
//! maintaining the join itself (DBToaster-style) or recomputing from
//! scratch.  Absolute numbers depend on the machine; the ordering and rough
//! ratios are what this experiment checks.
//!
//! Also emits `BENCH_ivm.json` — the machine-readable perf baseline
//! (rows/second, delta entries and ring-operation counts per F-IVM
//! workload) that later perf PRs are measured against.
//!
//! Run with `--quick` for a fast smoke-test configuration; `--json PATH`
//! overrides the artifact location; `--shards N` adds paired
//! single-vs-N-shard runs (`PAR-*` records).

use fivm_baselines::{JoinMaintenance, NaiveReevaluation, UnsharedCovar};
use fivm_bench::{
    format_speedup, measure, print_table, write_bench_json, BenchRecord, MemAblation,
    ProbeAblation, RingAblation, Throughput, Workload,
};
use fivm_core::apps::{count_lifts, covar_lifts, gen_covar_lifts};
use fivm_core::{Engine, EngineStats};
use fivm_relation::Update;
use fivm_ring::{LiftFn, Ring, RingCtx};
use fivm_shard::ShardedEngine;

/// Replays the update stream through an F-IVM engine, returning wall-clock
/// timing and the engine's work counters for the **warm window** only: one
/// unmeasured warmup replay fixes the key set (the stream revisits its own
/// keys), then the measured replay runs in steady state and its counter
/// deltas reflect the pinned invariants — in particular `rehashes` /
/// `ring_rehashes` stay 0 instead of carrying warmup table growth into the
/// artifact.  `table_bytes` is a gauge and reports the absolute resident
/// footprint at the end of the run.
///
/// Only the F-IVM engines get this warmup; the baselines are still
/// measured cold (warming the naive re-evaluator is prohibitively slow),
/// so the printed "slowdown vs F-IVM" columns compare steady-state F-IVM
/// against cold baselines and overstate the gap by the baselines' warmup
/// share — they are order-of-magnitude context, not paired measurements
/// (stated again next to the printed table).
fn run_fivm<R: Ring>(engine: &mut Engine<R>, updates: &[Update]) -> (Throughput, EngineStats) {
    for b in updates {
        engine.apply_update(b).unwrap();
    }
    let before = engine.stats();
    let t = measure(updates, |b| {
        engine.apply_update(b).unwrap();
    });
    (t, engine.stats().delta_since(&before))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_ivm.json".to_string());
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .map(|i| {
            args.get(i + 1)
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("--shards takes a positive shard count");
                    std::process::exit(2);
                })
        })
        .unwrap_or(0);
    let (retailer_cfg, favorita_cfg, stream) = if quick {
        (
            fivm_data::RetailerConfig::tiny(),
            fivm_data::FavoritaConfig::tiny(),
            fivm_data::StreamConfig {
                bulks: 4,
                bulk_size: 100,
                delete_fraction: 0.2,
                seed: 1,
            },
        )
    } else {
        (
            fivm_data::RetailerConfig::default(),
            fivm_data::FavoritaConfig::default(),
            fivm_data::StreamConfig {
                bulks: 10,
                bulk_size: 1_000,
                delete_fraction: 0.2,
                seed: 1,
            },
        )
    };

    println!(
        "== E2: update throughput (updates/second), bulk size {} ==\n",
        stream.bulk_size
    );
    let mut rows = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();

    for dataset in ["Retailer", "Favorita"] {
        let workload = match dataset {
            "Retailer" => Workload::retailer(retailer_cfg.clone(), stream, true),
            _ => Workload::favorita(favorita_cfg.clone(), stream),
        };
        println!(
            "{dataset}: |DB| = {} rows, stream = {} updates in {} bulks",
            workload.database.total_rows(),
            workload.total_updates(),
            workload.updates.len()
        );

        // --- F-IVM: COUNT, COVAR (or generalized COVAR), MI ----------------
        let mut count = workload.count_engine();
        count.load_database(&workload.database).unwrap();
        let (t_count, s_count) = run_fivm(&mut count, &workload.updates);
        record(&mut records, dataset, "COUNT", stream.bulk_size, t_count, s_count);
        push_row(&mut rows, dataset, "F-IVM", "COUNT", t_count, Some(s_count), None);

        let (fivm_covar, s_covar) = if dataset == "Retailer" {
            let mut covar = workload.covar_engine();
            covar.load_database(&workload.database).unwrap();
            run_fivm(&mut covar, &workload.updates)
        } else {
            let mut covar = workload.gen_covar_engine();
            covar.load_database(&workload.database).unwrap();
            run_fivm(&mut covar, &workload.updates)
        };
        record(&mut records, dataset, "COVAR", stream.bulk_size, fivm_covar, s_covar);
        push_row(&mut rows, dataset, "F-IVM", "COVAR", fivm_covar, Some(s_covar), None);
        if dataset == "Favorita" {
            // The co-resident regime's limiting number: the resident bytes
            // of the generalized-COVAR engine (views incl. ring-payload
            // interiors) after the full replay — the `MEM-engine` record.
            println!(
                "  gen-covar engine footprint: {:.2} MiB of view/ring tables",
                s_covar.table_bytes as f64 / (1024.0 * 1024.0)
            );
            records.push(BenchRecord {
                dataset: dataset.to_string(),
                app: "MEM-engine-covar".to_string(),
                bulk_size: stream.bulk_size,
                updates: fivm_covar.updates,
                // Memory-only record: untimed by convention (the timed
                // run is the COVAR record above).
                seconds: 0.0,
                delta_entries: 0,
                ring_adds: 0,
                ring_muls: 0,
                probes: 0,
                probe_hits: 0,
                rehashes: 0,
                table_bytes: s_covar.table_bytes,
            });
        }

        let mut mi = workload.mi_engine();
        mi.load_database(&workload.database).unwrap();
        let (t_mi, s_mi) = run_fivm(&mut mi, &workload.updates);
        record(&mut records, dataset, "MI", stream.bulk_size, t_mi, s_mi);
        push_row(&mut rows, dataset, "F-IVM", "MI", t_mi, Some(s_mi), None);

        // --- Baseline: first-order join maintenance (COVAR aggregate) ------
        if dataset == "Retailer" {
            let lifts = covar_lifts(&workload.spec).expect("continuous covar lifts");
            let mut jm = JoinMaintenance::new(workload.spec.clone(), lifts).unwrap();
            jm.load_database(&workload.database).unwrap();
            let t = measure(&workload.updates, |b| {
                jm.apply_update(b).unwrap();
            });
            println!(
                "  join-maintenance materialized join size: {} tuples",
                jm.join_size()
            );
            push_row(&mut rows, dataset, "join-maintenance", "COVAR", t, None, Some(fivm_covar));
        } else {
            // Favorita: the join-maintenance baseline maintains the join with
            // a count aggregate on top (its cost is dominated by the join).
            let mut jm = JoinMaintenance::new(
                workload.spec.clone(),
                vec![LiftFn::<i64>::identity(); workload.spec.num_vars()],
            )
            .unwrap();
            jm.load_database(&workload.database).unwrap();
            let t = measure(&workload.updates, |b| {
                jm.apply_update(b).unwrap();
            });
            println!(
                "  join-maintenance materialized join size: {} tuples",
                jm.join_size()
            );
            push_row(
                &mut rows,
                dataset,
                "join-maintenance",
                "COUNT (join kept)",
                t,
                None,
                Some(t_count),
            );
        }

        // --- Ablation: encoded (hash-once) vs boxed probe keys --------------
        {
            let ablation = ProbeAblation::from_workload(&workload);
            let passes = if quick { 5 } else { 20 };
            let boxed = ablation.measure(false, passes);
            let encoded = ablation.measure(true, passes);
            println!(
                "  probe ablation ({} keys, {} probes/pass): boxed {:.2}M probes/s, \
                 encoded {:.2}M probes/s ({} from dictionary encoding)",
                ablation.len(),
                ablation.num_probes(),
                boxed / 1e6,
                encoded / 1e6,
                format_speedup(encoded / boxed),
            );
            let probes = ablation.num_probes() * passes;
            for (app, rate) in [("PROBE-boxed", boxed), ("PROBE-encoded", encoded)] {
                records.push(BenchRecord {
                    dataset: dataset.to_string(),
                    app: app.to_string(),
                    bulk_size: stream.bulk_size,
                    updates: probes,
                    seconds: probes as f64 / rate,
                    delta_entries: 0,
                    ring_adds: 0,
                    ring_muls: 0,
                    probes,
                    probe_hits: 0,
                    rehashes: 0,
                    table_bytes: 0,
                });
            }
        }

        // --- Ablation: encoded vs boxed RING-interior keys ------------------
        {
            let mut ablation = RingAblation::from_workload(&workload, 256);
            let passes = if quick { 3 } else { 10 };
            let boxed = ablation.measure(false, passes);
            let encoded = ablation.measure(true, passes);
            println!(
                "  ring ablation ({} fma ops/pass): boxed {:.2}M ops/s, \
                 encoded {:.2}M ops/s ({} from encoded ring keys)",
                ablation.num_ops(),
                boxed / 1e6,
                encoded / 1e6,
                format_speedup(encoded / boxed),
            );
            let ops = ablation.num_ops() * passes;
            for (app, rate) in [("RING-boxed", boxed), ("RING-encoded", encoded)] {
                records.push(BenchRecord {
                    dataset: dataset.to_string(),
                    app: app.to_string(),
                    bulk_size: stream.bulk_size,
                    updates: ops,
                    seconds: ops as f64 / rate,
                    delta_entries: 0,
                    ring_adds: ops,
                    ring_muls: ops,
                    probes: 0,
                    probe_hits: 0,
                    rehashes: 0,
                    table_bytes: 0,
                });
            }
        }

        // --- Ablation: ring-table memory (MEM-* records) --------------------
        {
            let mem = MemAblation::from_workload(&workload);
            let entries = mem.entries();
            let (new, boxed) = (mem.new_bytes(), mem.boxed_bytes());
            let per = |b: usize| b as f64 / entries as f64;
            println!(
                "  mem ablation ({entries} ring entries, value + heap): boxed {:.1} B/entry, \
                 encoded {:.1} B/entry",
                per(boxed),
                per(new),
            );
            for (app, bytes) in [("MEM-ring-boxed", boxed), ("MEM-ring-new", new)] {
                records.push(BenchRecord {
                    dataset: dataset.to_string(),
                    app: app.to_string(),
                    bulk_size: stream.bulk_size,
                    updates: entries,
                    // Memory-only record: untimed by convention.
                    seconds: 0.0,
                    delta_entries: 0,
                    ring_adds: 0,
                    ring_muls: 0,
                    probes: 0,
                    probe_hits: 0,
                    rehashes: 0,
                    table_bytes: bytes,
                });
            }
        }

        // --- Baseline: naive re-evaluation after every bulk ----------------
        if dataset == "Retailer" {
            let spec = fivm_data::retailer::retailer_query_continuous();
            let mut naive =
                NaiveReevaluation::new(spec.clone(), covar_lifts(&spec).unwrap()).unwrap();
            naive.load_database(&workload.database).unwrap();
            // Re-evaluation is slow; replay only the first bulks.
            let subset = &workload.updates[..workload.updates.len().min(3)];
            let t = measure(subset, |b| {
                naive.apply_update(b).unwrap();
                std::hint::black_box(naive.result());
            });
            push_row(&mut rows, dataset, "naive re-evaluation", "COVAR", t, None, Some(fivm_covar));

            // --- Ablation: unshared per-aggregate maintenance --------------
            let tree = fivm_data::retailer::retailer_tree(spec);
            let mut unshared = UnsharedCovar::new(tree).unwrap();
            unshared.load_database(&workload.database).unwrap();
            let t = measure(subset, |b| {
                unshared.apply_update(b).unwrap();
            });
            push_row(&mut rows, dataset, "unshared aggregates", "COVAR", t, None, Some(fivm_covar));
        }
        println!();
    }

    // --- Paired single-vs-sharded runs (PAR-* records) ----------------------
    if shards > 0 {
        let rounds = if quick { 3 } else { 7 };
        println!(
            "== PAR: paired 1-vs-{shards}-shard throughput, {rounds} interleaved rounds ==\n"
        );
        let workload = Workload::retailer(retailer_cfg.clone(), stream, true);
        let spec = workload.spec.clone();
        run_paired(
            &workload,
            move |_| count_lifts(&spec),
            shards,
            rounds,
            "COUNT",
            stream.bulk_size,
            &mut records,
        );
        let spec = workload.spec.clone();
        run_paired(
            &workload,
            move |_| covar_lifts(&spec).expect("continuous covar lifts"),
            shards,
            rounds,
            "COVAR",
            stream.bulk_size,
            &mut records,
        );
        let workload = Workload::favorita(favorita_cfg.clone(), stream);
        let spec = workload.spec.clone();
        run_paired(
            &workload,
            move |ctx| gen_covar_lifts(&spec, ctx),
            shards,
            rounds,
            "COVAR",
            stream.bulk_size,
            &mut records,
        );
        println!();
    }

    print_table(
        &[
            "dataset",
            "system",
            "application",
            "updates/s",
            "delta entries",
            "ring adds",
            "ring muls",
            "probes",
            "probe hits",
            "slowdown vs F-IVM",
        ],
        &rows,
    );

    match write_bench_json(&json_path, &records) {
        Ok(()) => println!("\nwrote {json_path} ({} records)", records.len()),
        Err(e) => eprintln!("\nfailed to write {json_path}: {e}"),
    }
    println!("\n(paper's claim: F-IVM averages ~10K updates/s and beats DBToaster-style");
    println!(" join maintenance by orders of magnitude on these workloads;");
    println!(" F-IVM rows are warm-window/steady-state, baselines are measured cold —");
    println!(" the slowdown columns are order-of-magnitude context, not paired runs)");
}

/// Paired single-vs-sharded measurement: both engines are built and loaded
/// once, then the update stream is replayed `rounds` times on each,
/// alternating single/sharded within every round so machine drift hits
/// both sides equally (the noisy-box methodology from ROADMAP.md).
/// Replaying the same stream keeps the key set fixed after round one, so
/// later rounds measure true steady state.  Emits `PAR-<app>-x1` and
/// `PAR-<app>-x<N>` records with median throughput and last-round work
/// counters.
fn run_paired<R: Ring>(
    workload: &Workload,
    lifts: impl Fn(&RingCtx) -> Vec<LiftFn<R>> + Clone,
    shards: usize,
    rounds: usize,
    app: &str,
    bulk_size: usize,
    records: &mut Vec<BenchRecord>,
) {
    let dataset = workload.dataset.name();
    // Lifts are built per engine against that engine's own context (the
    // ring-key contract: lifts and engine share one dictionary).
    let single_ctx = RingCtx::new();
    let mut single =
        Engine::new_with_ctx(workload.tree.clone(), lifts(&single_ctx), single_ctx)
            .expect("single engine");
    single.load_database(&workload.database).expect("load");
    let factory = lifts.clone();
    let mut sharded =
        ShardedEngine::with_lift_factory(workload.tree.clone(), move |ctx| Ok(factory(ctx)), shards)
            .expect("sharded engine");
    sharded.load_database(&workload.database).expect("load");

    let mut single_rates = Vec::with_capacity(rounds);
    let mut sharded_rates = Vec::with_capacity(rounds);
    let mut single_stats = EngineStats::default();
    let mut sharded_stats = EngineStats::default();
    let mut updates = 0usize;
    for _ in 0..rounds {
        let before = single.stats();
        let t = measure(&workload.updates, |b| {
            single.apply_update(b).unwrap();
        });
        single_stats = single.stats().delta_since(&before);
        single_rates.push(t.updates_per_second());

        let before = sharded.stats().expect("shard stats");
        let ts = measure(&workload.updates, |b| {
            sharded.apply_update(b).unwrap();
        });
        // `delta_since` carries the byte gauge through: the sharded stats
        // report the resident footprint summed across all shards.
        sharded_stats = sharded.stats().expect("shard stats").delta_since(&before);
        sharded_rates.push(ts.updates_per_second());
        updates = t.updates;
    }

    let med1 = median(&mut single_rates.clone());
    let medn = median(&mut sharded_rates.clone());
    println!(
        "{dataset} {app}: single median {:.0} rows/s, {shards}-shard median {:.0} rows/s \
         ({} vs single; per-round ratios {})",
        med1,
        medn,
        format_speedup(medn / med1),
        sharded_rates
            .iter()
            .zip(&single_rates)
            .map(|(n, s)| format!("{:.2}", n / s))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for (suffix, rate, stats) in [
        ("x1".to_string(), med1, single_stats),
        (format!("x{shards}"), medn, sharded_stats),
    ] {
        records.push(BenchRecord {
            dataset: dataset.to_string(),
            app: format!("PAR-{app}-{suffix}"),
            bulk_size,
            updates,
            seconds: updates as f64 / rate,
            delta_entries: stats.delta_entries,
            ring_adds: stats.ring_adds,
            ring_muls: stats.ring_muls,
            probes: stats.probes,
            probe_hits: stats.probe_hits,
            rehashes: stats.rehashes,
            table_bytes: stats.table_bytes,
        });
    }
}

/// The median of a sample (sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    xs[xs.len() / 2]
}

/// Appends one measured F-IVM configuration to the JSON record list.
fn record(
    records: &mut Vec<BenchRecord>,
    dataset: &str,
    app: &str,
    bulk_size: usize,
    t: Throughput,
    stats: EngineStats,
) {
    records.push(BenchRecord {
        dataset: dataset.to_string(),
        app: app.to_string(),
        bulk_size,
        updates: t.updates,
        seconds: t.seconds,
        delta_entries: stats.delta_entries,
        ring_adds: stats.ring_adds,
        ring_muls: stats.ring_muls,
        probes: stats.probes,
        probe_hits: stats.probe_hits,
        rehashes: stats.rehashes,
        table_bytes: stats.table_bytes,
    });
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    rows: &mut Vec<Vec<String>>,
    dataset: &str,
    system: &str,
    app: &str,
    t: Throughput,
    stats: Option<EngineStats>,
    fivm_reference: Option<Throughput>,
) {
    let slowdown = fivm_reference
        .map(|r| format_speedup(r.updates_per_second() / t.updates_per_second()))
        .unwrap_or_else(|| "-".to_string());
    let (de, ra, rm, pr, ph) = stats
        .map(|s| {
            (
                s.delta_entries.to_string(),
                s.ring_adds.to_string(),
                s.ring_muls.to_string(),
                s.probes.to_string(),
                s.probe_hits.to_string(),
            )
        })
        .unwrap_or_else(|| ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()));
    rows.push(vec![
        dataset.to_string(),
        system.to_string(),
        app.to_string(),
        format!("{:.0}", t.updates_per_second()),
        de,
        ra,
        rm,
        pr,
        ph,
        slowdown,
    ]);
}
