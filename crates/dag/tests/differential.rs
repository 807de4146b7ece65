//! Seeded differential tests: a shared multi-query DAG against standalone
//! one-query engines, on Retailer and Favorita update streams.
//!
//! Every configuration registers K ≥ 3 overlapping queries (same relations
//! and variable order, different group-bys and aggregates) in one
//! registry, feeds both sides byte-identical update sequences, and
//! compares each query's result to its own standalone engine at several
//! points of the stream — including after a mid-stream `register` (backed
//! by shared-prefix backfill, no stream replay) and a mid-stream
//! `unregister`.
//!
//! # Exactness
//!
//! A standalone engine is the same driver hosting one query, but a query
//! registered mid-stream is *backfilled* from materialized
//! state, which re-associates ring additions relative to the standalone
//! replay; the shared dictionary also changes hash iteration orders.
//! Exactly as in the sharded differential suite:
//!
//! * COUNT (`i64`) and MI (integer-count `f64`s) are asserted
//!   **bit-for-bit**;
//! * COVAR over *quantized* streams (every continuous value an integer)
//!   is exact in any addition order, so it is asserted bit-for-bit too;
//! * COVAR over raw float streams is asserted to a tight relative
//!   tolerance.

use fivm_core::{apps, AggregateLayout, BinSpec, Engine};
use fivm_common::Value;
use fivm_dag::{QueryId, QueryKind, QueryRegistry};
use fivm_data::retailer::{retailer_query_continuous, retailer_tree};
use fivm_data::{FavoritaConfig, RetailerConfig, StreamConfig};
use fivm_query::QuerySpec;
use fivm_relation::{BaseTable, Database, Relation, Tuple, Update};
use fivm_ring::{ApproxEq, Ring};
use std::collections::HashMap;

// ---------------------------------------------------------------- helpers

fn quantize_value(v: &Value) -> Value {
    match v {
        Value::Double(d) => Value::double(d.get().round()),
        other => other.clone(),
    }
}

fn quantize_tuple(t: &[Value]) -> Tuple {
    t.iter().map(quantize_value).collect::<Vec<_>>().into_boxed_slice()
}

fn quantize_updates(updates: &[Update]) -> Vec<Update> {
    updates
        .iter()
        .map(|u| {
            Update::with_multiplicities(
                u.table.clone(),
                u.rows.iter().map(|(r, m)| (quantize_tuple(r), *m)).collect(),
            )
        })
        .collect()
}

fn quantize_database(db: &Database) -> Database {
    let mut out = Database::new();
    for table in db.tables() {
        let mut t = BaseTable::new(table.name.clone(), table.schema.clone());
        for (row, mult) in &table.rows {
            t.push_with_multiplicity(quantize_tuple(row), *mult);
        }
        out.add_table(t).expect("names stay unique");
    }
    out
}

fn sorted_entries<R: Ring>(rel: &Relation<R>) -> Vec<(Tuple, R)> {
    let mut entries: Vec<(Tuple, R)> = rel.iter().map(|(k, p)| (k.clone(), p.clone())).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[derive(Clone, Copy)]
enum Agreement {
    Exact,
    Approx(f64),
}

fn assert_agrees<R: Ring + ApproxEq>(
    got: &Relation<R>,
    expected: &Relation<R>,
    agreement: Agreement,
    ctx: &str,
) {
    let got = sorted_entries(got);
    let expected = sorted_entries(expected);
    assert_eq!(got.len(), expected.len(), "{ctx}: result cardinality diverged");
    for ((gk, gp), (ek, ep)) in got.iter().zip(expected.iter()) {
        assert_eq!(gk, ek, "{ctx}: decoded keys diverged");
        match agreement {
            Agreement::Exact => {
                assert!(gp == ep, "{ctx}: payload not bit-for-bit equal at key {gk:?}")
            }
            Agreement::Approx(tol) => assert!(
                gp.approx_eq(ep, tol),
                "{ctx}: payload outside tolerance at key {gk:?}"
            ),
        }
    }
}

/// The Retailer continuous-feature query with an explicit group-by: same
/// declarations (hence same fingerprints below the group-by divergence) as
/// `retailer_query_continuous`, grouped by the named key variables.
fn retailer_grouped(group_by: &[&str]) -> QuerySpec {
    let mut b = QuerySpec::builder(format!("retailer_continuous_by_{}", group_by.join("_")));
    let locn = b.key("locn");
    let dateid = b.key("dateid");
    let ksn = b.key("ksn");
    let zip = b.key("zip");
    let units = b.label("inventoryunits");
    let price = b.continuous_feature("price");
    let avghhi = b.continuous_feature("avghhi");
    let dist = b.continuous_feature("competitordistance");
    let population = b.continuous_feature("population");
    let medianage = b.continuous_feature("medianage");
    let maxtemp = b.continuous_feature("maxtemp");
    let mintemp = b.continuous_feature("mintemp");
    b.relation("Inventory", &[locn, dateid, ksn, units]);
    b.relation("Location", &[locn, zip, avghhi, dist]);
    b.relation("Census", &[zip, population, medianage]);
    b.relation("Item", &[ksn, price]);
    b.relation("Weather", &[locn, dateid, maxtemp, mintemp]);
    let by: Vec<usize> = group_by
        .iter()
        .map(|n| match *n {
            "locn" => locn,
            "dateid" => dateid,
            "ksn" => ksn,
            "zip" => zip,
            other => panic!("unknown group-by key {other}"),
        })
        .collect();
    b.group_by(&by);
    b.build().expect("grouped retailer query is valid")
}

fn mi_binnings(spec: &QuerySpec) -> HashMap<usize, BinSpec> {
    let layout = AggregateLayout::of(spec);
    let mut bins = HashMap::new();
    for (pos, &v) in layout.vars.iter().enumerate() {
        if layout.kinds[pos].is_continuous() {
            bins.insert(v, BinSpec::new(0.0, 1_000.0, 8));
        }
    }
    bins
}

fn retailer_workload() -> (Database, Vec<Update>) {
    let cfg = RetailerConfig {
        locations: 8,
        dates: 12,
        items: 16,
        zips: 4,
        inventory_density: 0.2,
        seed: 11,
    };
    let db = cfg.generate();
    let updates = cfg
        .update_stream(StreamConfig {
            bulks: 6,
            bulk_size: 150,
            delete_fraction: 0.25,
            seed: 5,
        })
        .into_bulks();
    (db, updates)
}

/// Folds applied updates into a copy of the database — the "full history"
/// a backfill source must carry for relations new to the DAG.
fn fold_updates(db: &Database, updates: &[Update]) -> Database {
    let mut out = Database::new();
    for table in db.tables() {
        let mut t = BaseTable::new(table.name.clone(), table.schema.clone());
        for (row, mult) in &table.rows {
            t.push_with_multiplicity(row.clone(), *mult);
        }
        for u in updates.iter().filter(|u| u.table == table.name) {
            for (row, mult) in &u.rows {
                t.push_with_multiplicity(row.clone(), *mult);
            }
        }
        out.add_table(t).expect("names stay unique");
    }
    out
}

// ----------------------------------------------------------------- tests

/// K=4 COUNT queries (scalar, by locn, by locn+zip, by dateid) share one
/// DAG; each must stay bit-identical to its own standalone engine across
/// the whole stream, and the DAG must actually share nodes.
#[test]
fn overlapping_count_queries_are_bit_identical_to_standalone_engines() {
    let (db, updates) = retailer_workload();
    let groupings: Vec<Vec<&str>> = vec![vec![], vec!["locn"], vec!["locn", "zip"], vec!["dateid"]];

    let mut registry = QueryRegistry::new();
    let mut ids: Vec<QueryId> = Vec::new();
    let mut singles: Vec<Engine<i64>> = Vec::new();
    let mut solo_nodes = 0usize;
    for g in &groupings {
        let tree = retailer_tree(retailer_grouped(g));
        solo_nodes += tree.len() + tree.spec().num_relations();
        ids.push(registry.register(tree.clone(), QueryKind::Count, None).unwrap());
        let mut e = apps::count_engine(tree).unwrap();
        e.load_database(&db).unwrap();
        singles.push(e);
    }
    assert!(
        registry.total_live_nodes() < solo_nodes,
        "no sharing: DAG holds {} nodes, standalone plans total {}",
        registry.total_live_nodes(),
        solo_nodes
    );
    registry.load_database(&db).unwrap();

    for (i, u) in updates.iter().enumerate() {
        let outcome = registry.apply_update(u).unwrap();
        assert_eq!(outcome.input_rows, u.len());
        for e in singles.iter_mut() {
            e.apply_update(u).unwrap();
        }
        // Compare at the start, middle and end of the stream.
        if i == 0 || i == updates.len() / 2 || i == updates.len() - 1 {
            for (q, (id, e)) in ids.iter().zip(singles.iter()).enumerate() {
                assert_agrees(
                    &registry.count_result_relation(*id).unwrap(),
                    &e.result_relation(),
                    Agreement::Exact,
                    &format!("Retailer/COUNT q{q} after bulk {i}"),
                );
            }
        }
    }
}

/// Mixed aggregates under one registry: COUNT, COVAR (quantized stream,
/// bit-exact) and MI share the input batches; each ring group runs its own
/// DAG and each query matches its standalone engine.
#[test]
fn mixed_count_covar_mi_fleet_matches_standalone_engines() {
    let (db, updates) = retailer_workload();
    let db = quantize_database(&db);
    let updates = quantize_updates(&updates);
    let spec = retailer_query_continuous();
    let bins = mi_binnings(&spec);

    let mut registry = QueryRegistry::new();
    let count_id = registry
        .register(retailer_tree(retailer_grouped(&["locn"])), QueryKind::Count, None)
        .unwrap();
    let covar_id = registry
        .register(retailer_tree(spec.clone()), QueryKind::Covar, None)
        .unwrap();
    let mi_id = registry
        .register(retailer_tree(spec.clone()), QueryKind::Mi(bins.clone()), None)
        .unwrap();
    registry.load_database(&db).unwrap();

    let mut count_single = apps::count_engine(retailer_tree(retailer_grouped(&["locn"]))).unwrap();
    let mut covar_single = apps::covar_engine(retailer_tree(spec.clone())).unwrap();
    let mut mi_single = apps::mi_engine(retailer_tree(spec.clone()), &bins).unwrap();
    count_single.load_database(&db).unwrap();
    covar_single.load_database(&db).unwrap();
    mi_single.load_database(&db).unwrap();

    for u in &updates {
        registry.apply_update(u).unwrap();
        count_single.apply_update(u).unwrap();
        covar_single.apply_update(u).unwrap();
        mi_single.apply_update(u).unwrap();
    }

    assert_agrees(
        &registry.count_result_relation(count_id).unwrap(),
        &count_single.result_relation(),
        Agreement::Exact,
        "Retailer/COUNT in mixed fleet",
    );
    assert_agrees(
        &registry.covar_result_relation(covar_id).unwrap(),
        &covar_single.result_relation(),
        Agreement::Exact,
        "Retailer/COVAR-quantized in mixed fleet",
    );
    assert_agrees(
        &registry.gen_result_relation(mi_id).unwrap(),
        &mi_single.result_relation(),
        Agreement::Exact,
        "Retailer/MI in mixed fleet",
    );

    // Steady-state hash-once contract holds across the whole DAG fleet.
    let fact_rows: Vec<(Tuple, i64)> = db
        .table("Inventory")
        .unwrap()
        .rows
        .iter()
        .take(100)
        .map(|(r, _)| (r.clone(), 1))
        .collect();
    let plus = Update::with_multiplicities("Inventory", fact_rows.clone());
    let minus = Update::with_multiplicities(
        "Inventory",
        fact_rows.iter().map(|(r, _)| (r.clone(), -1)).collect(),
    );
    let before = registry.stats();
    registry.apply_update(&plus).unwrap();
    registry.apply_update(&minus).unwrap();
    let after = registry.stats();
    assert_eq!(after.rehashes, before.rehashes, "DAG rehashed a view in steady state");
    assert_eq!(
        after.ring_rehashes, before.ring_rehashes,
        "DAG rehashed a ring-interior table in steady state"
    );
}

/// COVAR on the raw (unquantized) float stream agrees to tolerance.
#[test]
fn covar_on_raw_floats_agrees_to_tolerance() {
    let (db, updates) = retailer_workload();
    let spec = retailer_query_continuous();
    let mut registry = QueryRegistry::new();
    let covar_id = registry
        .register(retailer_tree(spec.clone()), QueryKind::Covar, None)
        .unwrap();
    // A second overlapping COVAR query so the shared pass is exercised.
    let grouped_id = registry
        .register(retailer_tree(retailer_grouped(&["locn"])), QueryKind::Covar, None)
        .unwrap();
    registry.load_database(&db).unwrap();

    let mut single = apps::covar_engine(retailer_tree(spec.clone())).unwrap();
    let mut grouped_single = apps::covar_engine(retailer_tree(retailer_grouped(&["locn"]))).unwrap();
    single.load_database(&db).unwrap();
    grouped_single.load_database(&db).unwrap();

    for u in &updates {
        registry.apply_update(u).unwrap();
        single.apply_update(u).unwrap();
        grouped_single.apply_update(u).unwrap();
    }
    assert_agrees(
        &registry.covar_result_relation(covar_id).unwrap(),
        &single.result_relation(),
        Agreement::Approx(1e-9),
        "Retailer/COVAR-raw scalar",
    );
    assert_agrees(
        &registry.covar_result_relation(grouped_id).unwrap(),
        &grouped_single.result_relation(),
        Agreement::Approx(1e-9),
        "Retailer/COVAR-raw by locn",
    );
}

/// Favorita: COUNT and gen-COVAR (quantized) share a registry.
#[test]
fn favorita_count_and_gen_covar_match_standalone_engines() {
    let cfg = FavoritaConfig::tiny();
    let db = quantize_database(&cfg.generate());
    let updates = quantize_updates(
        &cfg.update_stream(StreamConfig {
            bulks: 4,
            bulk_size: 120,
            delete_fraction: 0.25,
            seed: 9,
        })
        .into_bulks(),
    );
    let spec = fivm_data::favorita::favorita_query();
    let tree = fivm_data::favorita::favorita_tree(spec.clone());

    let mut registry = QueryRegistry::new();
    let count_id = registry.register(tree.clone(), QueryKind::Count, None).unwrap();
    let gen_id = registry.register(tree.clone(), QueryKind::GenCovar, None).unwrap();
    registry.load_database(&db).unwrap();

    let mut count_single = apps::count_engine(tree.clone()).unwrap();
    let mut gen_single = apps::gen_covar_engine(tree.clone()).unwrap();
    count_single.load_database(&db).unwrap();
    gen_single.load_database(&db).unwrap();

    for u in &updates {
        registry.apply_update(u).unwrap();
        count_single.apply_update(u).unwrap();
        gen_single.apply_update(u).unwrap();
    }
    assert_agrees(
        &registry.count_result_relation(count_id).unwrap(),
        &count_single.result_relation(),
        Agreement::Exact,
        "Favorita/COUNT",
    );
    assert_agrees(
        &registry.gen_result_relation(gen_id).unwrap(),
        &gen_single.result_relation(),
        Agreement::Exact,
        "Favorita/gen-COVAR-quantized",
    );
}

/// A query registered mid-stream — its relations already live in the DAG —
/// is backfilled from shared materialized state (no replay) and then
/// converges bit-identically to a standalone engine that saw the whole
/// stream. Unregistering a sibling mid-stream must not disturb survivors.
#[test]
fn mid_stream_register_and_unregister_converge_bit_identically() {
    let (db, updates) = retailer_workload();
    let (first, second) = updates.split_at(updates.len() / 2);

    let mut registry = QueryRegistry::new();
    let scalar_id = registry
        .register(retailer_tree(retailer_grouped(&[])), QueryKind::Count, None)
        .unwrap();
    let locn_id = registry
        .register(retailer_tree(retailer_grouped(&["locn"])), QueryKind::Count, None)
        .unwrap();
    registry.load_database(&db).unwrap();
    for u in first {
        registry.apply_update(u).unwrap();
    }

    // Mid-stream: a new grouping over the same relations — every leaf is
    // shared, so no backfill database is needed; new inner nodes evaluate
    // from the shared leaves' materialized history.
    let late_id = registry
        .register(retailer_tree(retailer_grouped(&["locn", "zip"])), QueryKind::Count, None)
        .unwrap();
    // And mid-stream retirement of a sibling that shares the prefix.
    registry.unregister(locn_id).unwrap();

    for u in second {
        registry.apply_update(u).unwrap();
    }

    for (name, id, group) in [
        ("scalar", scalar_id, vec![]),
        ("late locn+zip", late_id, vec!["locn", "zip"]),
    ] {
        let mut single = apps::count_engine(retailer_tree(retailer_grouped(&group))).unwrap();
        single.load_database(&db).unwrap();
        for u in &updates {
            single.apply_update(u).unwrap();
        }
        assert_agrees(
            &registry.count_result_relation(id).unwrap(),
            &single.result_relation(),
            Agreement::Exact,
            &format!("mid-stream churn, {name} query"),
        );
    }
    // The retired handle is gone.
    assert!(registry.count_result_relation(locn_id).is_err());
}

/// Registering a query whose relations are **new** to a DAG that already
/// applied data demands a backfill database carrying their full history —
/// without one it is a typed `state` error; with one, results converge
/// bit-identically.
#[test]
fn new_relations_need_full_history_backfill() {
    let (retailer_db, retailer_updates) = retailer_workload();

    // Start the registry on Favorita so Retailer's relations are new later.
    let fav = FavoritaConfig::tiny();
    let fav_db = fav.generate();
    let fav_updates = fav
        .update_stream(StreamConfig {
            bulks: 4,
            bulk_size: 100,
            delete_fraction: 0.2,
            seed: 7,
        })
        .into_bulks();
    let (fav_first, fav_second) = fav_updates.split_at(fav_updates.len() / 2);
    let fav_tree = fivm_data::favorita::favorita_tree(fivm_data::favorita::favorita_query());
    let mut registry = QueryRegistry::new();
    let fav_id = registry.register(fav_tree.clone(), QueryKind::Count, None).unwrap();
    // Merge both datasets into one database (disjoint table names) so the
    // late Retailer query's base state is available to both sides.
    let mut merged = Database::new();
    for t in fav_db.tables().iter().chain(retailer_db.tables()) {
        let mut copy = BaseTable::new(t.name.clone(), t.schema.clone());
        for (row, mult) in &t.rows {
            copy.push_with_multiplicity(row.clone(), *mult);
        }
        merged.add_table(copy).unwrap();
    }
    registry.load_database(&merged).unwrap();
    for u in fav_first {
        registry.apply_update(u).unwrap();
    }

    let retailer = retailer_tree(retailer_grouped(&["locn"]));
    let err = registry
        .register(retailer.clone(), QueryKind::Count, None)
        .expect_err("new relations after data flowed must demand a backfill");
    assert_eq!(err.kind(), "state", "wrong error kind: {err}");

    // Backfill = initial database + every already-applied batch.
    let history = fold_updates(&merged, fav_first);
    let late_id = registry
        .register(retailer, QueryKind::Count, Some(&history))
        .unwrap();
    for u in retailer_updates.iter().chain(fav_second) {
        registry.apply_update(u).unwrap();
    }

    let mut single = apps::count_engine(retailer_tree(retailer_grouped(&["locn"]))).unwrap();
    single.load_database(&retailer_db).unwrap();
    for u in &retailer_updates {
        single.apply_update(u).unwrap();
    }
    assert_agrees(
        &registry.count_result_relation(late_id).unwrap(),
        &single.result_relation(),
        Agreement::Exact,
        "backfilled new-relation query",
    );
    // The original Favorita query sees only its own stream.
    let mut fav_single = apps::count_engine(fav_tree).unwrap();
    fav_single.load_database(&fav_db).unwrap();
    for u in &fav_updates {
        fav_single.apply_update(u).unwrap();
    }
    assert_agrees(
        &registry.count_result_relation(fav_id).unwrap(),
        &fav_single.result_relation(),
        Agreement::Exact,
        "resident query after sibling registration",
    );
}
