//! DAG twin of `crates/core/tests/big_then_small.rs`: one big batch must
//! not tax the small batches that follow it.
//!
//! DAG A applies a 50 000-row Inventory batch in one pass, then two cycles
//! of 200 single-row / 10-row batches (deletes, then re-inserts of the same
//! rows); DAG B receives the very same rows in batches of at most ten.
//! Each hosts two queries — the Retailer aggregate and its group-by-`locn`
//! variant — so every pass fans out.  Results and root views must agree bit
//! for bit (COUNT, and COVAR over integer-valued data), and the big batch
//! must leave no trace in the steady state: no rehashes, no allocations
//! (COUNT), and a propagation scratch bounded by `SCRATCH_KEEP_BYTES` + the
//! payload pool — smaller than a single load-sized delta buffer.

use fivm_core::apps;
use fivm_core::delta::DeltaEntry;
use fivm_core::kernel::{POOL_CAP, SCRATCH_KEEP_BYTES};
use fivm_dag::{DagEngine, QueryKind, QueryRegistry};
use fivm_data::retailer::{retailer_query_continuous, retailer_tree};
use fivm_data::RetailerConfig;
use fivm_query::QuerySpec;
use fivm_relation::{Database, Update};
use fivm_ring::{LiftFn, Ring};

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

#[path = "../../core/tests/support/big_batch.rs"]
mod big_batch;
use big_batch::{workload, BIG};

/// `retailer_query_continuous` grouped by `locn`.
fn retailer_by_locn() -> QuerySpec {
    let mut b = QuerySpec::builder("retailer_by_locn");
    let locn = b.key("locn");
    for key in ["dateid", "ksn", "zip"] {
        b.key(key);
    }
    b.label("inventoryunits");
    for feature in [
        "price",
        "avghhi",
        "competitordistance",
        "population",
        "medianage",
        "maxtemp",
        "mintemp",
    ] {
        b.continuous_feature(feature);
    }
    for (relation, vars) in [
        (
            "Inventory",
            &["locn", "dateid", "ksn", "inventoryunits"][..],
        ),
        ("Location", &["locn", "zip", "avghhi", "competitordistance"]),
        ("Census", &["zip", "population", "medianage"]),
        ("Item", &["ksn", "price"]),
        ("Weather", &["locn", "dateid", "maxtemp", "mintemp"]),
    ] {
        b.relation_by_names(relation, vars).unwrap();
    }
    b.group_by(&[locn]);
    b.build().unwrap()
}

/// A DAG hosting the scalar and the by-`locn` query, loaded with `db`.
fn fleet<R: Ring>(lifts: &impl Fn(&QuerySpec) -> Vec<LiftFn<R>>, db: &Database) -> DagEngine<R> {
    let mut dag = DagEngine::new();
    for spec in [retailer_query_continuous(), retailer_by_locn()] {
        let lifts = lifts(&spec);
        dag.register(retailer_tree(spec), lifts, None).unwrap();
    }
    dag.load_database(db).unwrap();
    dag
}

fn assert_same_results<R: Ring>(a: &DagEngine<R>, b: &DagEngine<R>, ctx: &str) {
    for q in 0..2 {
        assert!(
            a.result_relation(q).unwrap() == b.result_relation(q).unwrap(),
            "{ctx}: q{q}"
        );
        assert!(
            a.root_relations(q).unwrap() == b.root_relations(q).unwrap(),
            "{ctx}: root views of q{q} differ between the big-batch and the small-batch DAG"
        );
    }
}

/// Runs the scenario on two fresh DAGs and returns the allocations each
/// made during its second (warm) churn cycle.
fn big_then_small<R: Ring>(lifts: impl Fn(&QuerySpec) -> Vec<LiftFn<R>>, ctx: &str) -> (u64, u64) {
    let (db, big, cycle) = workload();
    let entry = std::mem::size_of::<DeltaEntry<R>>();
    let budget = SCRATCH_KEEP_BYTES + POOL_CAP * std::mem::size_of::<R>();

    let mut a = fleet(&lifts, &db);
    a.apply_update(&Update::inserts("Inventory", big.clone()))
        .unwrap();
    let after_big = a.stats().scratch_bytes;
    assert!(
        after_big <= budget && after_big < BIG * entry,
        "{ctx}: {after_big} B of scratch survive the {BIG}-row batch \
         (one delta buffer of that batch is {} B)",
        BIG * entry
    );

    let mut b = fleet(&lifts, &db);
    for rows in big.chunks(10) {
        b.apply_update(&Update::inserts("Inventory", rows.to_vec()))
            .unwrap();
    }
    assert_same_results(&a, &b, &format!("{ctx}, after the {BIG} rows"));

    // Cycle 1 warms both DAGs (view free lists, spare-buffer capacities).
    for u in &cycle {
        a.apply_update(u).unwrap();
        b.apply_update(u).unwrap();
    }
    assert_same_results(&a, &b, &format!("{ctx}, after churn cycle 1"));

    // Cycle 2 is the steady state under test.
    let (before_a, before_b) = (a.stats(), b.stats());
    let mut worst = 0;
    let allocs_a = allocations_during(|| {
        for u in &cycle {
            a.apply_update(u).unwrap();
            worst = worst.max(a.stats().scratch_bytes);
        }
    });
    let allocs_b = allocations_during(|| {
        for u in &cycle {
            b.apply_update(u).unwrap();
        }
    });
    assert_same_results(&a, &b, &format!("{ctx}, after churn cycle 2"));
    assert_eq!(
        a.stats().delta_since(&before_a).rehashes,
        0,
        "{ctx}: A rehashed"
    );
    assert_eq!(
        b.stats().delta_since(&before_b).rehashes,
        0,
        "{ctx}: B rehashed"
    );
    assert!(
        worst <= budget && worst < BIG * entry,
        "{ctx}: scratch reached {worst} B during 1- and 10-row batches"
    );
    assert!(
        a.stats().delta_since(&before_a).delta_entries > 0,
        "{ctx}: churn did nothing"
    );
    (allocs_a, allocs_b)
}

#[test]
fn count_big_batch_then_small_batches() {
    let (a, b) = big_then_small(apps::count_lifts, "DAG/COUNT");
    // The pass keeps its bookkeeping (delta arena, fan-out queue, delta
    // buffers) in the propagation scratch and COUNT deltas carry no heap,
    // so a warm pass allocates nothing — after a big batch or not.
    assert_eq!(
        (a, b),
        (0, 0),
        "warm COUNT passes allocated (after the {BIG}-row batch, without it)"
    );
}

#[test]
fn covar_big_batch_then_small_batches() {
    big_then_small(|spec| apps::covar_lifts(spec).unwrap(), "DAG/COVAR");
}

#[test]
fn registry_reports_the_scratch_of_every_ring_group() {
    let db = RetailerConfig::tiny().generate();
    let mut registry = QueryRegistry::new();
    let tree = retailer_tree(retailer_query_continuous());
    registry
        .register(tree.clone(), QueryKind::Count, None)
        .unwrap();
    registry.register(tree, QueryKind::Covar, None).unwrap();
    assert_eq!(registry.stats().scratch_bytes, 0);
    registry.load_database(&db).unwrap();
    let (count, covar) = (registry.count_dag().stats(), registry.covar_dag().stats());
    assert!(count.scratch_bytes > 0 && covar.scratch_bytes > 0);
    assert_eq!(
        registry.stats().scratch_bytes,
        count.scratch_bytes + covar.scratch_bytes
    );
}
