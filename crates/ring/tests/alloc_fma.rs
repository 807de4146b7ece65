//! Verifies the acceptance criterion of the in-place ring API: the fused
//! multiply-add on the cofactor ring performs **no heap allocation** in the
//! `Elem × Elem` case (a dense accumulator receiving dense products), which
//! is the op that dominates COVAR maintenance.
//!
//! A counting global allocator records every allocation the measuring
//! thread makes; the assertion would catch any regression that
//! reintroduces temporaries on this path.

use fivm_common::EncodedValue;
use fivm_ring::{Cofactor, GenCofactor, RelKey, RelValue, Ring};

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

#[test]
fn cofactor_fma_elem_elem_does_not_allocate() {
    let dim = 8;
    let a = Cofactor::lift(dim, 1, 3.5).mul(&Cofactor::lift(dim, 4, -2.0));
    let b = Cofactor::lift(dim, 0, 1.25).mul(&Cofactor::lift(dim, 7, 6.0));
    // Dense accumulator, same dimension — the hot case.
    let mut acc = a.mul(&b);

    let allocs = allocations_during(|| {
        for sign in [1i64, -1, 1, -1, 2, -2] {
            acc.fma_scaled(&a, &b, sign);
        }
    });
    assert_eq!(
        allocs, 0,
        "Cofactor::fma_scaled allocated {allocs} times in the Elem×Elem case"
    );

    // The accumulated value must still be correct (the loop above sums to
    // zero net, so acc is back to a·b).
    assert_eq!(acc, a.mul(&b));
}

#[test]
fn cofactor_fma_scalar_elem_does_not_allocate_into_dense_accumulator() {
    let dim = 6;
    let e = Cofactor::lift(dim, 2, 4.0);
    let s = Cofactor::scalar(3.0);
    let mut acc = e.mul(&e);
    let allocs = allocations_during(|| {
        acc.fma_scaled(&s, &e, 1);
        acc.fma_scaled(&e, &s, -1);
    });
    assert_eq!(
        allocs, 0,
        "Cofactor::fma_scaled allocated {allocs} times in the Scalar×Elem case"
    );
}

/// Zero elements of the relation ring must not allocate: `scalar(0.0)` /
/// `weighted(.., 0.0)` construct the empty table, which defers its first
/// allocation to the first insert.
#[test]
fn relvalue_zero_construction_does_not_allocate() {
    let allocs = allocations_during(|| {
        for _ in 0..100 {
            std::hint::black_box(RelValue::scalar(0.0));
            std::hint::black_box(RelValue::weighted(3, EncodedValue::int(7), 0.0));
            std::hint::black_box(RelValue::empty());
            std::hint::black_box(RelValue::zero());
        }
    });
    assert_eq!(
        allocs, 0,
        "constructing relation-ring zeros allocated {allocs} times"
    );
}

/// The sparse singleton-lift accumulate on the generalized cofactor ring
/// (`fma_lift_continuous` / `fma_lift_categorical`) must be allocation-free
/// once the accumulator's interior tables hold the touched keys — the
/// steady-state hot path of GenCofactor-bound maintenance, which used to
/// materialize `dim + dim·(dim+1)/2` relation buffers per input row.
#[test]
fn gen_cofactor_singleton_lift_fma_does_not_allocate_when_warm() {
    let dim = 6;
    let cat = |v: i64| EncodedValue::int(v);
    // A dense accumulator holding every key the lift stream touches.
    let mut acc = GenCofactor::lift_continuous(dim, 0, 2.0)
        .mul(&GenCofactor::lift_categorical(dim, 1, 1, cat(3)))
        .mul(&GenCofactor::lift_categorical(dim, 2, 2, cat(4)))
        .mul(&GenCofactor::lift_continuous(dim, 3, -1.5));
    // Mixed accumulator shapes on the other operand: scalar and dense.
    let scalar_acc = GenCofactor::scalar(2.0);
    let dense_acc = acc.clone();
    // Warm-up: one signed cycle sizes every interior table.
    for sign in [1i64, -1] {
        acc.fma_lift_continuous(&scalar_acc, dim, 0, 2.0, sign);
        acc.fma_lift_continuous(&dense_acc, dim, 3, -1.5, sign);
        acc.fma_lift_categorical(&scalar_acc, dim, 1, 1, cat(3), sign);
        acc.fma_lift_categorical(&dense_acc, dim, 2, 2, cat(4), sign);
    }

    let allocs = allocations_during(|| {
        for sign in [1i64, -1, 1, -1, 2, -2] {
            acc.fma_lift_continuous(&scalar_acc, dim, 0, 2.0, sign);
            acc.fma_lift_continuous(&dense_acc, dim, 3, -1.5, sign);
            acc.fma_lift_categorical(&scalar_acc, dim, 1, 1, cat(3), sign);
            acc.fma_lift_categorical(&dense_acc, dim, 2, 2, cat(4), sign);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm singleton-lift fma allocated {allocs} times"
    );
}

/// A single tuple's categories are one-entry relations, one-entry relations
/// live inline, and a payload lists only the components that hold mass.
/// Lifting a categorical value into a payload the delta pool handed back
/// after `reset_zero` performs **no** allocation (the component list and
/// the vectors of the components it kept are reused); into a never-used
/// fresh zero exactly **one** — the component list itself.  Cancelling
/// one-entry relations and cloning them allocates nothing, and a second
/// distinct key is exactly one allocation (the two-entry vector).
#[test]
fn categorical_lift_into_pooled_elem_does_not_allocate_and_into_fresh_zero_once() {
    let dim = 6;
    let cat = |v: i64| EncodedValue::int(v);
    let one = GenCofactor::scalar(1.0);
    // A fresh dense zero: no component listed, no list allocated.
    let mut fresh = GenCofactor::lift_continuous(dim, 0, 1.0);
    fresh.reset_zero();
    // A pooled payload: held two joined tuples (so some components grew
    // into vectors, which `reset_zero` keeps cleared), then was reset.
    let tuple = |a: i64, b: i64| {
        GenCofactor::lift_categorical(dim, 1, 1, cat(a))
            .mul(&GenCofactor::lift_categorical(dim, 2, 2, cat(b)))
            .mul(&GenCofactor::lift_continuous(dim, 3, -1.5))
    };
    let mut pooled = tuple(3, 4).add(&tuple(5, 4));
    pooled.reset_zero();
    assert!(fresh.is_zero() && pooled.is_zero());
    assert!(
        pooled.payload_bytes() > fresh.payload_bytes(),
        "test premise: kept vectors"
    );

    for (name, slot, expected) in [("fresh zero", &mut fresh, 1), ("pooled", &mut pooled, 0)] {
        let bytes = slot.payload_bytes();
        let allocs = allocations_during(|| {
            for v in [3i64, 5, 3] {
                slot.fma_lift_categorical(&one, dim, 1, 1, cat(v), 1);
                std::hint::black_box(&*slot);
                slot.fma_lift_categorical(&one, dim, 1, 1, cat(v), -1);
            }
            slot.fma_lift_categorical(&one, dim, 2, 2, cat(4), 1);
        });
        assert_eq!(
            allocs, expected,
            "categorical lift into a {name} Elem allocated {allocs} times"
        );
        assert_eq!(slot.count(), 1.0);
        if expected == 0 {
            assert_eq!(
                slot.payload_bytes(),
                bytes,
                "{name}: the lifts changed the footprint"
            );
        }
    }

    // The relation-level statement: one-entry relations never touch the
    // heap…
    let allocs = allocations_during(|| {
        let mut r = RelValue::weighted(2, cat(7), 2.0);
        r.add_scaled(&RelValue::weighted(2, cat(7), 1.0), -2.0);
        assert!(r.is_zero());
        r.fma_scaled(
            &RelValue::weighted(1, cat(1), 1.0),
            &RelValue::weighted(2, cat(2), 1.0),
            1,
        );
        std::hint::black_box(r.clone());
    });
    assert_eq!(allocs, 0, "one-entry relations allocated {allocs} times");
    // …and the second distinct key is one allocation, not a table's four.
    let mut r = RelValue::weighted(2, cat(7), 1.0);
    let allocs = allocations_during(|| r.add_entry(&RelKey::singleton(2, cat(8)), 1.0));
    assert_eq!(allocs, 1, "One -> Small promotion allocated {allocs} times");
    assert_eq!(r.len(), 2);
}

/// Point lookups by encoded pairs sort a stack copy of the key: reading a
/// COVAR/MI payload cell (one or two pairs) allocates nothing.
#[test]
fn relvalue_get_of_an_inline_width_key_does_not_allocate() {
    let cat = |v: i64| EncodedValue::int(v);
    let r = RelValue::weighted(1, cat(3), 2.0).mul(&RelValue::weighted(2, cat(4), 1.5));
    let mut sum = 0.0;
    let allocs = allocations_during(|| {
        sum += r.get(&[(2, cat(4)), (1, cat(3))]);
        sum += r.get(&[(1, cat(3)), (2, cat(4))]);
        sum += r.get(&[(1, cat(3))]);
        sum += r.get(&[]);
    });
    assert_eq!(allocs, 0, "RelValue::get allocated {allocs} times");
    assert_eq!(sum, 6.0);
}

/// The batch-fused lift channel must be allocation-free once warm: a run
/// of scalar-weight rows applied over pooled columnar buffers reduces to
/// dense scalar updates (continuous) or prehashed upserts into already-
/// sized tables (categorical) — 0 allocations per row is the columnar
/// kernel's steady-state contract.
#[test]
fn batch_lift_channels_do_not_allocate_when_warm() {
    let dim = 6;
    let evs: Vec<EncodedValue> = [3i64, 4, 3, 5, 4, 3]
        .iter()
        .map(|&v| EncodedValue::int(v))
        .collect();
    let ws = [1.0, 2.0, -1.0, 3.0, 1.0, -2.0];

    // Continuous: horizontal sums into the dense scalar fields.
    let mut cof = Cofactor::lift(dim, 1, 2.0).mul(&Cofactor::lift(dim, 2, 3.0));
    let mut gen = GenCofactor::lift_continuous(dim, 0, 2.0)
        .mul(&GenCofactor::lift_continuous(dim, 3, -1.0));
    // Categorical / relational: warm the interior tables with the keys the
    // batch touches.
    let mut gen_cat = GenCofactor::zero();
    gen_cat.fma_lift_categorical_weighted(dim, 2, 2, &evs, &ws);
    let mut rel = RelValue::zero();
    rel.fma_indicator_weighted(2, &evs, &ws);

    let allocs = allocations_during(|| {
        for _ in 0..4 {
            cof.fma_lift_continuous_sums(dim, 1, 3.0, -1.5, 0.75);
            gen.fma_lift_continuous_sums(dim, 0, -3.0, 1.5, -0.75);
            gen_cat.fma_lift_categorical_weighted(dim, 2, 2, &evs, &ws);
            rel.fma_indicator_weighted(2, &evs, &ws);
        }
    });
    assert_eq!(allocs, 0, "warm batch lift channels allocated {allocs} times");
}

#[test]
fn cofactor_mul_into_reuses_matching_accumulator() {
    let dim = 8;
    let a = Cofactor::lift(dim, 1, 3.5);
    let b = Cofactor::lift(dim, 0, 1.25);
    let mut out = a.mul(&b); // correctly shaped buffer
    let allocs = allocations_during(|| {
        a.mul_into(&b, &mut out);
        b.mul_into(&a, &mut out);
    });
    assert_eq!(
        allocs, 0,
        "Cofactor::mul_into allocated {allocs} times with a matching out buffer"
    );
    assert_eq!(out, b.mul(&a));
}
