//! `retailer-fleet`: eight COVAR group-by variants (masks 0–7 of
//! `locn/dateid/zip`) maintained by one `QueryRegistry` DAG, against the
//! same eight queries as independent engines.  Bulks of 1000 fact rows with
//! one dimension bulk per ten: broadcast traffic for shards, shared-node
//! fan-out for the DAG.
//!
//! A traced pass adds the scalar query through `ShardedEngine` N = 2
//! (coordinator blocked + two workers = `nproc` threads) and the K = 1
//! registry against a plain engine.

use crate::gen::{self, Round};
use crate::harness::{
    churn, churn_lanes, fast, oracle_check, scratch_dir, set_up, stats_per_row, EngineTarget, Lane,
    Params, Report, Target,
};
use crate::pair::{covar_engine, fit_ridge};
use crate::trace::Tracer;
use crate::util::{mb, timed};
use fivm_core::AggregateLayout;
use fivm_dag::{DurableRegistry, QueryId, QueryKind, QueryRegistry};
use fivm_data::retailer::retailer_tree;
use fivm_data::RetailerConfig;
use fivm_query::ViewTree;
use fivm_relation::{Database, Relation, Update};
use fivm_ring::Cofactor;
use fivm_shard::apps::sharded_covar_engine;
use fivm_shard::ShardedEngine;
use std::path::PathBuf;

/// Fleet size: every subset of `locn`, `dateid`, `zip` as a group-by.
const K: usize = 8;
/// A journal-and-recover cycle runs after every this-many-th round.
const RECOVER_EVERY_ROUNDS: usize = 3;

fn trees(k: usize) -> Vec<ViewTree> {
    (0..k)
        .map(|mask| retailer_tree(gen::retailer_masked_query(mask)))
        .collect()
}

fn registered(trees: &[ViewTree]) -> (QueryRegistry, Vec<QueryId>) {
    let mut registry = QueryRegistry::new();
    let ids = trees
        .iter()
        .map(|t| {
            registry
                .register(t.clone(), QueryKind::Covar, None)
                .expect("register")
        })
        .collect();
    (registry, ids)
}

fn relations(registry: &QueryRegistry, ids: &[QueryId]) -> Vec<Relation<Cofactor>> {
    ids.iter()
        .map(|id| registry.covar_result_relation(*id).expect("fleet result"))
        .collect()
}

/// The registry with its queries as a [`Target`].
struct Fleet {
    registry: QueryRegistry,
    ids: Vec<QueryId>,
    /// The scalar query's result after the load.
    baseline: Cofactor,
}

impl Fleet {
    fn loaded(trees: &[ViewTree], db: &Database) -> Fleet {
        let (mut registry, ids) = registered(trees);
        registry.load_database(db).expect("registry load");
        let baseline = registry.covar_result(ids[0]).expect("scalar result");
        Fleet {
            registry,
            ids,
            baseline,
        }
    }
}

impl Target for Fleet {
    fn apply(&mut self, update: &Update) -> bool {
        self.registry.apply_update(update).is_ok()
    }

    /// Between rounds only the scalar query is compared (cheap); all eight
    /// relations are compared against the standalone engines before and
    /// after the window.
    fn at_baseline(&mut self) -> bool {
        self.registry
            .covar_result(self.ids[0])
            .is_ok_and(|r| r == self.baseline)
    }
}

/// The measured fleet: refreshes its outputs between batches and, every
/// few rounds, journals a forward stream through `DurableRegistry` and
/// rebuilds a fresh fleet from the database plus that changelog.
struct MeasuredFleet<'a> {
    fleet: Fleet,
    trees: &'a [ViewTree],
    db: &'a Database,
    round: &'a Round,
    log: PathBuf,
    layout: AggregateLayout,
    label: usize,
    recover_s: Vec<f64>,
    durable_rows_per_s: Vec<f64>,
}

impl Target for MeasuredFleet<'_> {
    fn apply(&mut self, update: &Update) -> bool {
        self.fleet.apply(update)
    }

    fn at_baseline(&mut self) -> bool {
        self.fleet.at_baseline()
    }

    /// Reads all eight results and fits the scalar query's ridge model.
    fn refresh(&mut self, tr: &mut Tracer, op: u64) -> bool {
        let relations = tr.leaf("dag.result", op, || {
            relations(&self.fleet.registry, &self.fleet.ids)
        });
        let payload = self
            .fleet
            .registry
            .covar_result(self.fleet.ids[0])
            .expect("scalar result");
        fit_ridge(tr, op, &self.layout, self.label, &payload);
        std::hint::black_box(relations);
        true
    }

    fn between_rounds(&mut self, tr: &mut Tracer, round: usize, report: &mut Report) {
        if !round.is_multiple_of(RECOVER_EVERY_ROUNDS) {
            return;
        }
        let op = round as u64;
        let registry = std::mem::replace(&mut self.fleet.registry, QueryRegistry::new());
        let mut durable = DurableRegistry::create(registry, &self.log).expect("durable registry");
        let ((), s) = timed(|| {
            for update in &self.round.forward {
                let ok = tr.leaf("dag.durable_apply", op, || {
                    durable.apply_update(update).is_ok()
                });
                report.op(ok);
            }
        });
        self.durable_rows_per_s
            .push(self.round.rows() as f64 / 2.0 / s);
        let expected = relations(durable.registry(), &self.fleet.ids);
        let (recovered, s) = timed(|| {
            tr.leaf("dag.recover", op, || {
                let (fresh, ids) = registered(self.trees);
                DurableRegistry::recover(fresh, self.db, &self.log)
                    .map(|d| relations(d.registry(), &ids))
            })
        });
        self.recover_s.push(s);
        report.check(
            "recovered fleet differs from the journaled one",
            recovered.is_ok_and(|got| got == expected),
        );
        // Back to the loaded state, in memory.
        self.fleet.registry = durable.into_registry();
        for update in &self.round.inverse {
            report.op(self.fleet.apply(update));
        }
    }
}

/// The same queries as independent engines; one "row" of its throughput is
/// one query maintained for one input row, as for the fleet.
struct Independent {
    engines: Vec<EngineTarget<Cofactor>>,
}

impl Independent {
    fn loaded(trees: &[ViewTree], db: &Database) -> Independent {
        Independent {
            engines: trees
                .iter()
                .map(|t| EngineTarget::loaded(covar_engine(t.clone()).0, db))
                .collect(),
        }
    }
}

impl Target for Independent {
    fn apply(&mut self, update: &Update) -> bool {
        self.engines.iter_mut().all(|e| e.apply(update))
    }

    fn at_baseline(&mut self) -> bool {
        self.engines[0].at_baseline()
    }
}

struct Sharded {
    engine: ShardedEngine<Cofactor>,
    baseline: Cofactor,
}

impl Target for Sharded {
    fn apply(&mut self, update: &Update) -> bool {
        self.engine.apply_update(update).is_ok()
    }

    fn at_baseline(&mut self) -> bool {
        self.engine.result().is_ok_and(|r| r == self.baseline)
    }
}

struct Setup {
    db: Database,
    round: Round,
    trees: Vec<ViewTree>,
    fleet: Fleet,
    independent: Independent,
    gen_db_s: f64,
    gen_stream_s: f64,
    compile_s: f64,
    register_s: f64,
    load_s: f64,
}

fn setup(p: &Params, tr: &mut Tracer, report: &mut Report) -> Setup {
    // 18K Inventory rows at full scale: eight standalone engines next to
    // the DAG fit a few hundred MB and load in under a second.
    let config = if p.full {
        RetailerConfig {
            locations: 30,
            dates: 100,
            items: 300,
            zips: 15,
            inventory_density: 0.02,
            seed: 0,
        }
    } else {
        RetailerConfig::default()
    };
    let ((cfg, db), gen_db_s) =
        timed(|| tr.leaf("data.generate", 0, || gen::retailer_db(config, p.seed)));
    let fact_rows = if p.full { 18_000 } else { 9_000 };
    let (round, gen_stream_s) = timed(|| {
        tr.leaf("data.generate", 1, || {
            gen::retailer_mixed_round(&cfg, &db, p.seed, fact_rows, 1000, 10, 10)
        })
    });
    let (trees, compile_s) = timed(|| tr.leaf("query.compile", 0, || trees(K)));
    let (registration, register_s) = timed(|| tr.leaf("dag.register", 0, || registered(&trees)));
    drop(registration);
    let (mut fleet, load_s) =
        timed(|| tr.leaf("dag.load_database", 0, || Fleet::loaded(&trees, &db)));
    let mut independent = tr.leaf("core.load_database", 0, || Independent::loaded(&trees, &db));
    churn(tr, "dag.apply_update", &round, &mut fleet, 0.0, 1, report);
    churn(
        tr,
        "core.apply_update.covar",
        &round,
        &mut independent,
        0.0,
        1,
        report,
    );
    Setup {
        db,
        round,
        trees,
        fleet,
        independent,
        gen_db_s,
        gen_stream_s,
        compile_s,
        register_s,
        load_s,
    }
}

/// Every fleet query against its standalone engine, bit for bit.
fn cross_check(fleet: &Fleet, independent: &Independent, report: &mut Report) {
    for (mask, (got, engine)) in relations(&fleet.registry, &fleet.ids)
        .iter()
        .zip(&independent.engines)
        .enumerate()
    {
        report.check(
            &format!("fleet query mask {mask} differs from its standalone engine"),
            *got == engine.engine.result_relation(),
        );
    }
}

/// The scalar query through two shards against the single engine.
fn sharded_probe(
    p: &Params,
    (tree, db, round): (&ViewTree, &Database, &Round),
    single: &mut EngineTarget<Cofactor>,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let (mut sharded, load_s) = timed(|| {
        let mut engine = sharded_covar_engine(tree.clone(), 2).expect("sharded engine");
        tr.leaf("shard.load_database", 0, || {
            engine.load_database(db).expect("sharded load")
        });
        let baseline = engine.result().expect("sharded result");
        Sharded { engine, baseline }
    });
    report.layer("shard.load_s", load_s);
    report.check(
        "sharded result differs from the single engine after load",
        sharded.baseline == single.baseline,
    );
    churn(
        tr,
        "shard.apply_update",
        round,
        &mut sharded,
        0.0,
        1,
        report,
    );
    let mut lanes = [
        Lane {
            span: "shard.apply_update",
            target: &mut sharded,
        },
        Lane {
            span: "core.apply_update.covar",
            target: single,
        },
    ];
    let windows = churn_lanes(tr, round, &mut lanes, p.seconds * 0.2, 3, report);
    report.layer("shard.rows_per_s", windows[0].rows_per_s());
    report.layer("shard.apply_ns_per_row", windows[0].ns_per_row());
    report.layer(
        "shard.speedup_x",
        windows[0].rows_per_s() / windows[1].rows_per_s(),
    );
    let merge_ms: Vec<f64> = (0..20)
        .map(|i| {
            timed(|| {
                tr.leaf("shard.result", i, || {
                    sharded.engine.result().expect("sharded result")
                })
            })
            .1 * 1e3
        })
        .collect();
    report.layer("shard.result_merge_ms", fast(&merge_ms));
    let per_shard = sharded.engine.shard_stats().expect("shard stats");
    let rows: Vec<f64> = per_shard.iter().map(|s| s.rows_applied as f64).collect();
    report.layer(
        "shard.route_skew",
        rows.iter().copied().fold(0.0, f64::max) / (rows.iter().sum::<f64>() / rows.len() as f64),
    );
    let broadcast: usize = round
        .batches()
        .filter(|u| round.is_dimension(u))
        .map(Update::len)
        .sum();
    report.layer(
        "shard.broadcast_fraction",
        broadcast as f64 / round.rows() as f64,
    );
    report.layer(
        "shard.resident_mb",
        mb(per_shard.iter().map(|s| s.table_bytes).sum()),
    );
}

/// K = 1 through the registry against the plain engine.
fn k1_probe(
    p: &Params,
    (tree, db, round): (&ViewTree, &Database, &Round),
    single: &mut EngineTarget<Cofactor>,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let mut solo = Fleet::loaded(std::slice::from_ref(tree), db);
    churn(tr, "dag.apply_update", round, &mut solo, 0.0, 1, report);
    let mut lanes = [
        Lane {
            span: "dag.apply_update",
            target: &mut solo,
        },
        Lane {
            span: "core.apply_update.covar",
            target: single,
        },
    ];
    let windows = churn_lanes(tr, round, &mut lanes, p.seconds * 0.1, 3, report);
    report.layer(
        "dag.k1_overhead_x",
        windows[1].rows_per_s() / windows[0].rows_per_s(),
    );
}

pub fn run(p: &Params, tr: &mut Tracer) -> Report {
    let mut report = Report::default();

    // Gate 1: the naive baseline is scalar, so the scalar variant of the
    // fleet stands for its application; the grouped variants are pinned to
    // their standalone engines by the cross-check.
    let naive_s = tr.leaf("baselines.naive_check", 0, || {
        let (tiny_cfg, tiny_db) = gen::retailer_db(RetailerConfig::tiny(), p.seed);
        let tiny_round = gen::retailer_mixed_round(&tiny_cfg, &tiny_db, p.seed, 300, 50, 3, 2);
        let (engine, lifts) = covar_engine(retailer_tree(gen::retailer_masked_query(0)));
        oracle_check(
            "retailer-fleet scalar covar",
            engine,
            lifts,
            &tiny_db,
            &tiny_round,
            &mut report,
        )
    });
    report.layer("baselines.naive_check_s", naive_s);

    let Setup {
        db,
        round,
        trees,
        fleet,
        mut independent,
        gen_db_s,
        gen_stream_s,
        compile_s,
        register_s,
        load_s,
    } = set_up(p, tr, &mut report, |tr, report| setup(p, tr, report));
    let db_rows = db.total_rows();
    report.layer("data.gen_db_s", gen_db_s);
    report.layer(
        "data.gen_stream_rows_per_s",
        round.rows() as f64 / 2.0 / gen_stream_s,
    );
    report.layer("query.compile_us", compile_s * 1e6 / K as f64);
    report.layer("core.load_rows_per_s", db_rows as f64 / load_s);
    report.layer("dag.register_ms", register_s * 1e3);
    report.layer("dag.live_nodes", fleet.registry.total_live_nodes() as f64);
    report.layer(
        "dag.solo_nodes",
        trees
            .iter()
            .map(|t| t.len() + t.spec().num_relations())
            .sum::<usize>() as f64,
    );
    cross_check(&fleet, &independent, &mut report);

    let dir = scratch_dir("fleet");
    let layout = AggregateLayout::of(trees[0].spec());
    let label = layout.label.expect("the query declares a label");
    let mut fleet = MeasuredFleet {
        fleet,
        trees: &trees,
        db: &db,
        round: &round,
        log: dir.join("fleet.fvcl"),
        layout,
        label,
        recover_s: Vec::new(),
        durable_rows_per_s: Vec::new(),
    };

    // The measured window: rounds through the shared DAG and through the
    // independent engines take turns.  A traced pass first spends an
    // eighth of the time with recording paused, which prices the tracing.
    let mut budget = p.seconds;
    let mut untraced_rate = None;
    if p.trace {
        tr.set_enabled(false);
        let off = churn(
            tr,
            "dag.apply_update",
            &round,
            &mut fleet.fleet,
            budget / 8.0,
            3,
            &mut report,
        );
        tr.set_enabled(true);
        untraced_rate = Some(off.rows_per_s());
        budget *= 0.75;
    }
    let before = fleet.fleet.registry.stats();
    let windows = tr.span("bench.window", 0, |tr| {
        let mut lanes = [
            Lane {
                span: "dag.apply_update",
                target: &mut fleet,
            },
            Lane {
                span: "core.apply_update.covar",
                target: &mut independent,
            },
        ];
        churn_lanes(tr, &round, &mut lanes, budget, 3, &mut report)
    });
    let (shared, solo) = (&windows[0], &windows[1]);
    let after = fleet.fleet.registry.stats();
    report.check(
        "steady state: a DAG view table rehashed inside a measured window",
        after.delta_since(&before).rehashes == 0,
    );
    stats_per_row(&mut report, &before, &after);
    cross_check(&fleet.fleet, &independent, &mut report);

    let k = K as f64;
    report.e2e("covar_rows_per_s", k * shared.rows_per_s());
    report.e2e("contrast_rows_per_s", k * solo.rows_per_s());
    report.e2e("visible_p50_ms", shared.visible_p50_ms());
    report.layer("ml.refresh_ms", shared.refresh_ms());
    report.e2e("recover_s", fast(&fleet.recover_s));
    report.e2e("resident_mb", mb(after.table_bytes));
    report.layer("core.visible_p99_ms", shared.latency_ms(0.99));
    report.layer("dag.apply_ns_per_query_row", shared.ns_per_row() / k);
    report.layer("core.covar_apply_ns_per_row", solo.ns_per_row() / k);
    report.layer(
        "core.fact_apply_ns_per_row",
        shared.fact_s * 1e9 / shared.fact_rows.max(1) as f64,
    );
    report.layer(
        "core.dim_apply_ns_per_row",
        shared.dim_s * 1e9 / shared.dim_rows.max(1) as f64,
    );
    report.layer("dag.speedup_x", shared.rows_per_s() / solo.rows_per_s());
    report.layer("dag.durable_rows_per_s", fast(&fleet.durable_rows_per_s));
    report.layer("dag.resident_mb", mb(after.table_bytes));
    report.layer("core.result_relation_ms", shared.refresh_ms());
    report.layer(
        "core.view_bytes_per_row",
        after.table_bytes as f64 / db_rows as f64,
    );
    if let Some(off) = untraced_rate {
        report.layer(
            "bench.trace_overhead_pct",
            100.0 * (off - shared.rows_per_s()) / off,
        );
    }
    let scalar = fleet.fleet.ids[0];
    let result_us: Vec<f64> = (0..200)
        .map(|_| timed(|| std::hint::black_box(fleet.fleet.registry.covar_result(scalar))).1 * 1e6)
        .collect();
    report.layer("core.result_us", fast(&result_us));

    if p.trace {
        let inputs = (&trees[0], &db, &round);
        sharded_probe(p, inputs, &mut independent.engines[0], tr, &mut report);
        k1_probe(p, inputs, &mut independent.engines[0], tr, &mut report);
    }

    let MeasuredFleet {
        fleet: Fleet {
            mut registry, ids, ..
        },
        ..
    } = fleet;
    let ((), secs) = timed(|| {
        tr.leaf("dag.unregister", 0, || {
            for id in &ids {
                registry.unregister(*id).expect("unregister");
            }
        })
    });
    report.layer("dag.unregister_ms", secs * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
    report
}
