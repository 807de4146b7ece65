//! Runtime registration churn: refcounted node retirement, memory release,
//! re-registration after retirement, and the registry's typed error
//! surface (unknown handles, ring-group mismatches, the sharded gate).

use fivm_core::{apps, EngineError};
use fivm_dag::{DagEngine, DagError, QueryKind, QueryRegistry};
use fivm_data::retailer::retailer_tree;
use fivm_data::{RetailerConfig, StreamConfig};
use fivm_query::QuerySpec;
use fivm_relation::Database;

fn retailer_grouped(group_by: &[&str]) -> QuerySpec {
    let mut b = QuerySpec::builder(format!("retailer_by_{}", group_by.join("_")));
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

fn tiny_workload() -> (Database, Vec<fivm_relation::Update>) {
    let cfg = RetailerConfig::tiny();
    let db = cfg.generate();
    let updates = cfg
        .update_stream(StreamConfig {
            bulks: 3,
            bulk_size: 80,
            delete_fraction: 0.2,
            seed: 3,
        })
        .into_bulks();
    (db, updates)
}

/// Two queries sharing a prefix: unregistering the one that *created* the
/// shared nodes must leave them alive for the sibling (refcount 1), retire
/// only its exclusive nodes, and release their view bytes.
#[test]
fn unregistering_the_prefix_owner_keeps_shared_nodes_alive() {
    let (db, updates) = tiny_workload();
    let mut dag: DagEngine<i64> = DagEngine::new();
    let spec = retailer_grouped(&["locn"]);
    let lifts = apps::count_lifts(&spec);
    let owner = dag.register(retailer_tree(spec), lifts, None).unwrap();
    let spec2 = retailer_grouped(&["locn", "zip"]);
    let lifts2 = apps::count_lifts(&spec2);
    let sibling = dag.register(retailer_tree(spec2), lifts2, None).unwrap();

    let owner_nodes = dag.query_nodes(owner).unwrap();
    let sibling_nodes = dag.query_nodes(sibling).unwrap();
    let shared: Vec<usize> = owner_nodes
        .iter()
        .copied()
        .filter(|id| sibling_nodes.contains(id))
        .collect();
    let exclusive: Vec<usize> = owner_nodes
        .iter()
        .copied()
        .filter(|id| !sibling_nodes.contains(id))
        .collect();
    assert!(!shared.is_empty(), "the two groupings must share a prefix");
    assert!(!exclusive.is_empty(), "the two groupings must diverge somewhere");
    for &id in &shared {
        assert_eq!(dag.node_refcount(id), Some(2));
    }
    for &id in &exclusive {
        assert_eq!(dag.node_refcount(id), Some(1));
    }

    dag.load_database(&db).unwrap();
    for u in &updates {
        dag.apply_update(u).unwrap();
    }
    let bytes_before = dag.stats().table_bytes;

    dag.unregister(owner).unwrap();
    for &id in &shared {
        assert_eq!(dag.node_refcount(id), Some(1), "shared node lost by retirement");
    }
    for &id in &exclusive {
        assert_eq!(dag.node_refcount(id), None, "exclusive node survived retirement");
    }
    assert!(
        dag.stats().table_bytes < bytes_before,
        "retiring exclusive views must release bytes ({} -> {})",
        bytes_before,
        dag.stats().table_bytes
    );

    // The sibling keeps answering, and keeps maintaining.
    for u in &updates {
        dag.apply_update(u).unwrap();
    }
    assert!(dag.result_relation(sibling).is_ok());
    assert!(matches!(dag.result_relation(owner), Err(EngineError::State(_))));
}

/// Register/unregister cycles drain the DAG completely (`live_nodes` back
/// to 0, bytes released) and retired ids/state never leak into the next
/// generation — which must still produce correct results.
#[test]
fn full_churn_cycles_drain_and_rebuild_cleanly() {
    let (db, updates) = tiny_workload();
    let mut dag: DagEngine<i64> = DagEngine::new();

    // Reference result computed once on a standalone engine.
    let spec = retailer_grouped(&["locn"]);
    let mut single = apps::count_engine(retailer_tree(spec.clone())).unwrap();
    single.load_database(&db).unwrap();
    for u in &updates {
        single.apply_update(u).unwrap();
    }
    let expected = single.result_relation();

    for round in 0..3 {
        let lifts = apps::count_lifts(&spec);
        // After round 0 the DAG has applied data, so the (retired, hence
        // new again) relations need the full history as backfill.
        let history = {
            let mut merged = Database::new();
            for t in db.tables() {
                let mut copy =
                    fivm_relation::BaseTable::new(t.name.clone(), t.schema.clone());
                for (row, mult) in &t.rows {
                    copy.push_with_multiplicity(row.clone(), *mult);
                }
                for u in updates.iter().filter(|u| u.table == t.name) {
                    if round > 0 {
                        for (row, mult) in &u.rows {
                            copy.push_with_multiplicity(row.clone(), *mult);
                        }
                    }
                }
                merged.add_table(copy).unwrap();
            }
            merged
        };
        // Round 0 loads and streams normally; later rounds re-register
        // against full-history backfill (load + backfill would double).
        let backfill = if round == 0 { None } else { Some(&history) };
        let q = dag
            .register(retailer_tree(spec.clone()), lifts, backfill)
            .unwrap();
        if round == 0 {
            dag.load_database(&db).unwrap();
            for u in &updates {
                dag.apply_update(u).unwrap();
            }
        }
        let got = dag.result_relation(q).unwrap();
        assert!(got == expected, "round {round}: churned DAG diverged from reference");

        dag.unregister(q).unwrap();
        assert_eq!(dag.live_nodes(), 0, "round {round}: nodes leaked");
        assert_eq!(dag.live_queries(), 0, "round {round}: queries leaked");
        assert_eq!(
            dag.stats().table_bytes,
            0,
            "round {round}: view bytes leaked after full retirement"
        );
    }
}

/// Register mid-churn reuses retired slot ids without aliasing: a handle
/// retired in one generation stays invalid even after its slot is reused.
#[test]
fn retired_handles_stay_invalid_after_slot_reuse() {
    let mut dag: DagEngine<i64> = DagEngine::new();
    let spec = retailer_grouped(&[]);
    let lifts = apps::count_lifts(&spec);
    let q1 = dag.register(retailer_tree(spec.clone()), lifts.clone(), None).unwrap();
    dag.unregister(q1).unwrap();
    let q2 = dag.register(retailer_tree(spec), lifts, None).unwrap();
    // Slot reuse is an implementation detail; what matters is that the new
    // handle works and double-unregister of the old one fails cleanly.
    assert!(dag.result_relation(q2).is_ok());
    if q1 != q2 {
        assert!(dag.unregister(q1).is_err());
    }
    assert!(dag.unregister(q2).is_ok());
    assert!(dag.unregister(q2).is_err(), "double unregister must fail");
}

/// The registry's typed error surface: ring-group mismatches on result
/// accessors and the deliberately unwired sharded combination.
#[test]
fn registry_errors_are_typed() {
    let mut registry = QueryRegistry::new();
    let spec = retailer_grouped(&["locn"]);
    let id = registry
        .register(retailer_tree(spec), QueryKind::Count, None)
        .unwrap();

    // Asking for a COUNT query through the COVAR accessor is a state error.
    let err = registry.covar_result_relation(id).expect_err("wrong group");
    assert_eq!(err.kind(), "state");

    // ShardedEngine parity: the registry-over-shards combination is a
    // typed `Unsupported`, not a panic or a silent degradation.
    assert!(QueryRegistry::sharded(1).is_ok());
    let err = QueryRegistry::sharded(4).expect_err("sharded registry is unwired");
    assert_eq!(err.kind(), "unsupported");
    assert!(
        matches!(err, DagError::Unsupported(_)),
        "wrong variant: {err:?}"
    );
}

/// A registration that fails — wrong lift count, new relations without the
/// backfill a loaded DAG demands, a backfill missing their tables — is
/// validated before anything is mutated: node count, every refcount and
/// the view bytes stay exactly where they were, and the DAG keeps working.
#[test]
fn invalid_registration_leaves_the_dag_untouched() {
    use fivm_data::favorita::{favorita_query, favorita_tree};
    let (db, updates) = tiny_workload();
    let mut dag: DagEngine<i64> = DagEngine::new();
    let spec = retailer_grouped(&["locn"]);
    let q = dag
        .register(retailer_tree(spec.clone()), apps::count_lifts(&spec), None)
        .unwrap();
    dag.load_database(&db).unwrap();
    for u in &updates[..1] {
        dag.apply_update(u).unwrap();
    }
    let snapshot = |dag: &DagEngine<i64>| {
        let refs: Vec<Option<usize>> = (0..64).map(|id| dag.node_refcount(id)).collect();
        (
            dag.live_nodes(),
            dag.live_queries(),
            refs,
            dag.stats().table_bytes,
        )
    };
    let before = snapshot(&dag);

    // Shares every leaf and a prefix, but brings one lift too few.
    let by_zip = retailer_grouped(&["locn", "zip"]);
    let mut short = apps::count_lifts(&by_zip);
    short.pop();
    let err = dag
        .register(retailer_tree(by_zip.clone()), short, None)
        .expect_err("a lift per variable is required");
    assert_eq!(err.kind(), "invalid_query");
    assert_eq!(
        snapshot(&dag),
        before,
        "a rejected lift set mutated the DAG"
    );

    // New relations on a loaded DAG: no backfill, then one without them.
    let fav = favorita_query();
    for backfill in [None, Some(&db)] {
        let err = dag
            .register(
                favorita_tree(fav.clone()),
                apps::count_lifts(&fav),
                backfill,
            )
            .expect_err("new relations need their full history");
        assert_eq!(err.kind(), "state");
        assert_eq!(
            snapshot(&dag),
            before,
            "a rejected backfill mutated the DAG"
        );
    }

    // The DAG keeps maintaining, and a valid registration still lands.
    for u in &updates[1..] {
        dag.apply_update(u).unwrap();
    }
    assert!(dag.result_relation(q).is_ok());
    dag.register(
        retailer_tree(by_zip.clone()),
        apps::count_lifts(&by_zip),
        None,
    )
    .unwrap();
}
