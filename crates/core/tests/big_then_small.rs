//! One big batch must not tax the small batches that follow it.
//!
//! Engine A applies a 50 000-row Inventory batch in one call, then two
//! cycles of 200 single-row / 10-row batches (deletes, then re-inserts of
//! the same rows); engine B receives the very same rows in batches of at
//! most ten.  The two must agree bit for bit on the result and on every
//! materialized view (COUNT, and COVAR over integer-valued data), and the
//! big batch must leave no trace in the steady state: no rehashes, no
//! allocations (COUNT), and a propagation scratch bounded by
//! `SCRATCH_KEEP_BYTES` + the payload pool — smaller than a single
//! load-sized delta buffer.

use fivm_core::delta::DeltaEntry;
use fivm_core::kernel::{POOL_CAP, SCRATCH_KEEP_BYTES};
use fivm_core::{apps, Engine};
use fivm_data::retailer::{retailer_query_continuous, retailer_tree};
use fivm_relation::Update;
use fivm_ring::Ring;

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

#[path = "support/big_batch.rs"]
mod big_batch;
use big_batch::{workload, BIG};

fn assert_same_views<R: Ring>(a: &Engine<R>, b: &Engine<R>, ctx: &str) {
    assert!(a.result() == b.result(), "{ctx}: results differ");
    for view in 0..a.tree().len() + a.tree().spec().num_relations() {
        assert!(
            a.view_relation(view) == b.view_relation(view),
            "{ctx}: view {view} differs between the big-batch and the small-batch engine"
        );
    }
    assert_eq!(a.total_view_entries(), b.total_view_entries(), "{ctx}");
}

/// Runs the scenario on two fresh engines and returns the allocations
/// engine A made during its second (warm) churn cycle.
fn big_then_small<R: Ring>(make: impl Fn() -> Engine<R>, ctx: &str) -> u64 {
    let (db, big, cycle) = workload();
    let entry = std::mem::size_of::<DeltaEntry<R>>();
    let budget = SCRATCH_KEEP_BYTES + POOL_CAP * std::mem::size_of::<R>();

    let mut a = make();
    a.load_database(&db).unwrap();
    a.apply_update(&Update::inserts("Inventory", big.clone()))
        .unwrap();
    let after_big = a.stats().scratch_bytes;
    assert!(
        after_big <= budget && after_big < BIG * entry,
        "{ctx}: {after_big} B of scratch survive the {BIG}-row batch \
         (one delta buffer of that batch is {} B)",
        BIG * entry
    );

    let mut b = make();
    b.load_database(&db).unwrap();
    for rows in big.chunks(10) {
        b.apply_update(&Update::inserts("Inventory", rows.to_vec()))
            .unwrap();
    }
    assert_same_views(&a, &b, &format!("{ctx}, after the {BIG} rows"));

    // Cycle 1 warms both engines (view free lists, scratch capacities).
    for u in &cycle {
        a.apply_update(u).unwrap();
        b.apply_update(u).unwrap();
    }
    assert_same_views(&a, &b, &format!("{ctx}, after churn cycle 1"));

    // Cycle 2 is the steady state under test.
    let (before_a, before_b) = (a.stats(), b.stats());
    let mut worst = 0;
    let allocs = allocations_during(|| {
        for u in &cycle {
            a.apply_update(u).unwrap();
            worst = worst.max(a.stats().scratch_bytes);
        }
    });
    for u in &cycle {
        b.apply_update(u).unwrap();
    }
    assert_same_views(&a, &b, &format!("{ctx}, after churn cycle 2"));
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
    allocs
}

#[test]
fn count_big_batch_then_small_batches() {
    let allocs = big_then_small(
        || apps::count_engine(retailer_tree(retailer_query_continuous())).unwrap(),
        "COUNT",
    );
    assert_eq!(
        allocs, 0,
        "warm COUNT maintenance of 1- and 10-row batches allocated after a {BIG}-row batch"
    );
}

#[test]
fn covar_big_batch_then_small_batches() {
    big_then_small(
        || apps::covar_engine(retailer_tree(retailer_query_continuous())).unwrap(),
        "COVAR",
    );
}
