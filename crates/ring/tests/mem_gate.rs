//! Bytes-per-entry regression gate for the relation-ring interior.
//!
//! The gate pins the **absolute** footprint of a population shaped like the
//! real ring working set: per relation, the value itself
//! (`size_of::<RelValue>()` — where an inline singleton lives) plus the heap
//! it owns ([`RelValue::allocated_bytes`]: the boxed table header and its
//! control/hash/entry arrays).  Earlier generations of this gate compared
//! against a *model* of the `Vec<Option<(u64, RelKey, f64)>>` slot layout
//! two representations ago; a model of a layout nobody runs says nothing
//! about a regression, so the figures below are what the current layout
//! measures, with the arithmetic behind each written next to it.
//!
//! The population mirrors what generalized-cofactor maintenance actually
//! materializes (see `GenCofactor`): a large majority of *tiny* relations
//! — every categorical component of a single joined tuple is a one-entry
//! relation — plus categorical components of a few dozen to a few hundred
//! categories and a handful of large root-level accumulators.

use fivm_common::EncodedValue;
use fivm_ring::{RelKey, RelValue};

/// A relation with `n` distinct integer keys.
fn with_keys(n: usize) -> RelValue {
    let mut r = RelValue::empty();
    for i in 0..n {
        r.add_entry(&RelKey::singleton(0, EncodedValue::int(i as i64)), 1.0);
    }
    r
}

/// Everything a relation costs: the value itself plus the heap it owns.
fn footprint(r: &RelValue) -> usize {
    std::mem::size_of::<RelValue>() + r.allocated_bytes()
}

/// Heap bytes of a boxed table with `slots` slots: the 72-byte `RawTable`
/// header, one control byte per slot (padded to one 8-byte group), an
/// 8-byte stored hash and a 40-byte `(RelKey, f64)` entry per slot.
fn table_bytes(slots: usize) -> usize {
    72 + slots.max(8) + slots * (8 + 40)
}

#[test]
fn ring_population_footprint_is_pinned() {
    let header = std::mem::size_of::<RelValue>();
    assert!(header <= 56, "RelValue grew to {header} bytes");

    // (relation size, how many, slots its table holds) — the
    // GenCofactor-shaped population.  Slot counts follow the growth policy
    // (power-of-two doubling at 3/4 load; the second key promotes the
    // inline singleton into a 4-slot table).
    let mix: &[(usize, usize, usize)] = &[
        (1, 2000, 0), // single-tuple components: inline, no heap
        (3, 200, 4),  // small categorical components
        (8, 100, 16),
        (30, 30, 64), // mid-size category sets
        (100, 10, 256),
        (1000, 2, 2048), // root-level accumulators
    ];
    let (mut entries, mut bytes) = (0usize, 0usize);
    for &(size, count, slots) in mix {
        let r = with_keys(size);
        assert_eq!(r.len(), size);
        let heap = if slots == 0 { 0 } else { table_bytes(slots) };
        assert_eq!(
            r.allocated_bytes(),
            heap,
            "a {size}-entry relation should own a {slots}-slot table"
        );
        // A right-sized clone never costs more than the relation it copies.
        assert!(footprint(&r.clone()) <= footprint(&r));
        entries += size * count;
        bytes += footprint(&r) * count;
    }

    // 2 000 inline singletons at 48 B and 342 tables of 4–2048 slots:
    // 675 664 bytes over 7 300 entries = 92.6 B/entry (the previous layout,
    // a 72-byte header plus a 104-byte two-slot table per singleton, cost
    // 125.4 on the same population).  The ceiling leaves no slack worth
    // the name: any layout change must re-derive it.
    let per_entry = bytes as f64 / entries as f64;
    assert!(
        per_entry <= 93.0,
        "bytes/entry regression: {per_entry:.1} B/entry ({bytes} bytes over {entries} entries)"
    );
}
