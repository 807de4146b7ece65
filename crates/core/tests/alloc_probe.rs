//! Verifies the acceptance criterion of the hash-once probe path: probing
//! materialized views — probe-key construction (gather/projection of
//! encoded keys), hashing, primary-map and secondary-index lookups, and
//! streaming matches out of the slab — performs **no heap allocation** on
//! the `Elem` hot path (inline-sized keys, dense cofactor payloads).  The
//! steady-state COUNT maintenance path is additionally held to zero
//! allocations per row end to end.
//!
//! The counting allocator (per-thread, so the default parallel test runner
//! cannot charge another test's allocations here) is shared with
//! `crates/ring/tests/alloc_fma.rs`.

use fivm_common::{Dict, EncodedKey, EncodedValue, Value};
use fivm_core::{apps, MaterializedView};
use fivm_query::spec::figure1_query;
use fivm_query::{EliminationHeuristic, VariableOrder, ViewTree};
use fivm_relation::{tuple, Update};
use fivm_ring::{Cofactor, Ring};
use std::hint::black_box;

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

/// A COVAR-shaped view (dense cofactor payloads) keyed by two columns with
/// a secondary index on the first.
fn dense_view(dict: &mut Dict, keys: i64) -> MaterializedView<Cofactor> {
    let dim = 8;
    let mut view: MaterializedView<Cofactor> = MaterializedView::new(vec![0, 1]);
    let idx = view.ensure_index(vec![0]);
    for a in 0..keys {
        for b in 0..4 {
            let payload = Cofactor::lift(dim, 1, a as f64).mul(&Cofactor::lift(dim, 4, b as f64));
            view.add(dict, &tuple([Value::int(a), Value::int(b)]), payload);
        }
    }
    // Indexes are lazy: build before the (immutable) probing under test.
    view.ensure_index_built(idx);
    view
}

#[test]
fn view_probes_do_not_allocate() {
    let mut dict = Dict::new();
    let view = dense_view(&mut dict, 64);
    assert_eq!(view.len(), 64 * 4);

    // Pre-encode the probe source: a full key and an encoded assignment,
    // as the engine holds them on the hot path.
    let full = dict.encode_key(&tuple([Value::int(17), Value::int(2)]));
    let assignment: Vec<EncodedValue> = (0..2)
        .map(|i| full.col(i))
        .collect();

    let allocs = allocations_during(|| {
        for _ in 0..1_000 {
            // Primary probe: gather the probe key from the assignment,
            // hash once, look up the slot, read the payload.
            let probe = EncodedKey::gather(&assignment, &[0, 1]);
            let hash = probe.fx_hash();
            let slot = view.find_slot(hash, &probe).expect("key present");
            black_box(view.slot_payload(slot));

            // Index probe: project the full key onto the index columns
            // (copy-only), hash once, stream every match out of the slab.
            let sub = full.project(&[0]);
            let sub_hash = sub.fx_hash();
            for (k, p) in view.probe_index(0, sub_hash, &sub) {
                black_box((k, p));
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "view probing allocated {allocs} times across 1000 probe rounds"
    );
}

#[test]
fn missed_probes_do_not_allocate_or_intern() {
    let mut dict = Dict::new();
    let view = dense_view(&mut dict, 8);
    let miss = dict.encode_key(&tuple([Value::int(999), Value::int(0)]));
    let allocs = allocations_during(|| {
        for _ in 0..1_000 {
            let hash = miss.fx_hash();
            assert!(view.find_slot(hash, &miss).is_none());
            let sub = miss.project(&[0]);
            assert!(view.index_bucket(0, sub.fx_hash(), &sub).is_none());
        }
    });
    assert_eq!(allocs, 0, "missed probes allocated {allocs} times");
}

#[test]
fn steady_state_count_maintenance_does_not_allocate() {
    // COUNT over the Figure-1 join: after one warm-up application sizes
    // the scratch tables, re-applying a batch of existing keys walks the
    // whole grouped-propagation path (group, probe, emit, apply) without
    // a single allocation.
    let spec = figure1_query(false);
    let order = VariableOrder::heuristic(&spec, EliminationHeuristic::MinDegree).unwrap();
    let tree = ViewTree::new(spec, order).unwrap();
    let mut engine = apps::count_engine(tree).unwrap();

    let r_batch = Update::inserts(
        "R",
        (0..32)
            .map(|i| tuple([Value::int(i % 8), Value::int(i)]))
            .collect(),
    );
    let s_batch = Update::inserts(
        "S",
        (0..32)
            .map(|i| tuple([Value::int(i % 8), Value::int(i % 5), Value::int(i)]))
            .collect(),
    );
    // Warm up: first application creates slots, grows tables and scratch.
    for _ in 0..2 {
        engine.apply_update(&r_batch).unwrap();
        engine.apply_update(&s_batch).unwrap();
    }

    let allocs = allocations_during(|| {
        engine.apply_update(&r_batch).unwrap();
        engine.apply_update(&s_batch).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "steady-state COUNT maintenance allocated {allocs} times for 64 rows"
    );
    assert!(engine.result() > 0);
}
