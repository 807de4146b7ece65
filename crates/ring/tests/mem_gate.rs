//! Bytes-per-entry regression gate for the relation-ring interior.
//!
//! The gate pins the **absolute** footprint of a population shaped like the
//! real ring working set: per relation, the value itself
//! (`size_of::<RelValue>()` — where an inline singleton lives) plus the heap
//! it owns ([`RelValue::allocated_bytes`]: the `Small` entry vector, or the
//! boxed table header and its control/hash/entry arrays).  Earlier
//! generations of this gate compared against a *model* of the
//! `Vec<Option<(u64, RelKey, f64)>>` slot layout two representations ago; a
//! model of a layout nobody runs says nothing about a regression, so the
//! figures below are what the current layout measures, with the arithmetic
//! behind each written next to it.
//!
//! The population mirrors what generalized-cofactor maintenance actually
//! materializes (see `GenCofactor`): a large majority of *tiny* relations
//! — every categorical component of a single joined tuple is a one-entry
//! relation — plus categorical components of a few dozen to a few hundred
//! categories and a handful of large root-level accumulators.  A second
//! pin covers the payload those relations sit in.

use fivm_common::EncodedValue;
use fivm_ring::{GenCofactor, RelKey, RelValue, Ring};

/// A relation with `n` distinct integer keys, grown one key at a time.
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

/// One `Small` entry: an 8-byte stored hash, the 32-byte `RelKey` and the
/// 8-byte weight.
const ENTRY: usize = 48;

/// Heap bytes of a boxed table with `slots` slots: the 72-byte `RawTable`
/// header, one control byte per slot (padded to one 8-byte group), an
/// 8-byte stored hash and a 40-byte `(RelKey, f64)` entry per slot.
fn table_bytes(slots: usize) -> usize {
    72 + slots.max(8) + slots * (8 + 40)
}

#[test]
fn every_size_class_owns_exactly_its_shape() {
    // (distinct keys, heap grown one key at a time, heap of a clone).  A
    // second key promotes the inline singleton into a vector with room for
    // four, which doubles to eight (384 B, the byte budget); the ninth key
    // spills into a table sized for nine — 16 slots — and tables grow by
    // doubling at 3/4 load.  Clones are right-sized: a vector of `len`, a
    // table of `RawTable::with_capacity(len)`.
    let classes: &[(usize, usize, usize)] = &[
        (0, 0, 0),
        (1, 0, 0),
        (2, 4 * ENTRY, 2 * ENTRY),
        (3, 4 * ENTRY, 3 * ENTRY),
        (4, 4 * ENTRY, 4 * ENTRY),
        (5, 8 * ENTRY, 5 * ENTRY),
        (8, 8 * ENTRY, 8 * ENTRY),
        (9, table_bytes(16), table_bytes(16)),
        (12, table_bytes(16), table_bytes(16)),
        (13, table_bytes(32), table_bytes(32)),
        (100, table_bytes(256), table_bytes(256)),
    ];
    for &(size, grown, cloned) in classes {
        let r = with_keys(size);
        assert_eq!(r.len(), size);
        assert_eq!(r.allocated_bytes(), grown, "{size} keys grown");
        assert_eq!(r.clone().allocated_bytes(), cloned, "{size} keys cloned");
    }
}

#[test]
fn ring_population_footprint_is_pinned() {
    let header = std::mem::size_of::<RelValue>();
    assert!(header <= 56, "RelValue grew to {header} bytes");

    // (relation size, how many, heap it owns) — the GenCofactor-shaped
    // population, grown one key at a time (the shapes above).
    let mix: &[(usize, usize, usize)] = &[
        (1, 2000, 0),              // single-tuple components: inline, no heap
        (3, 200, 4 * ENTRY),       // small categorical components: one vector
        (8, 100, 8 * ENTRY),       // …at the byte budget
        (30, 30, table_bytes(64)), // mid-size category sets
        (100, 10, table_bytes(256)),
        (1000, 2, table_bytes(2048)), // root-level accumulators
    ];
    let (mut entries, mut bytes) = (0usize, 0usize);
    for &(size, count, heap) in mix {
        let r = with_keys(size);
        assert_eq!(r.len(), size);
        assert_eq!(
            r.allocated_bytes(),
            heap,
            "a {size}-entry relation should own {heap} bytes"
        );
        // A right-sized clone never costs more than the relation it copies.
        assert!(footprint(&r.clone()) <= footprint(&r));
        entries += size * count;
        bytes += footprint(&r) * count;
    }

    // 2 000 inline singletons at 48 B = 96 000; 200 three-entry vectors at
    // 48 + 192 = 48 000; 100 eight-entry vectors at 48 + 384 = 43 200; and
    // the 42 tables of 64–2048 slots, 30·3 256 + 10·12 664 + 2·100 472 =
    // 425 264: 612 464 bytes over 7 300 entries = 83.9 B/entry.  With the
    // small relations in tables of 4 and 16 slots (320 and 904 B each) the
    // same population cost 675 664 bytes, 92.6 B/entry.  The ceiling
    // leaves no slack worth the name: any layout change must re-derive it.
    assert_eq!(bytes, 612_464);
    let per_entry = bytes as f64 / entries as f64;
    assert!(
        per_entry <= 84.0,
        "bytes/entry regression: {per_entry:.1} B/entry ({bytes} bytes over {entries} entries)"
    );
}

/// The payload those relations sit in: one joined tuple of a Favorita-
/// shaped generalized cofactor (dimension 10, one categorical and one
/// continuous lift) owns its dense half and a list of the three components
/// with categorical mass — `s_c`, `Q_cc`, `Q_cx`, each an inline singleton.
#[test]
fn a_joined_tuple_payload_owns_its_dense_half_and_three_components() {
    let dim = 10;
    let tuple = GenCofactor::lift_categorical(dim, 2, 2, EncodedValue::int(7))
        .mul(&GenCofactor::lift_continuous(dim, 5, 1.5));
    // sums: 10 × 8 B = 80; the packed triangle: 55 × 8 B = 440; one list
    // entry: a `u32` id beside a 48-byte `RelValue`, 56 B.
    let dense = dim * 8 + dim * (dim + 1) / 2 * 8;
    let component = std::mem::size_of::<(u32, RelValue)>();
    assert_eq!((dense, component), (520, 56));
    // The product's list allocates once, four slots — the smallest
    // capacity a growing vector takes — for the two components the
    // categorical operand brings and the one cross term.  A clone — what
    // a view stores — holds exactly three.
    assert_eq!(tuple.payload_bytes(), dense + 4 * component);
    assert_eq!(tuple.clone().payload_bytes(), dense + 3 * component);
    // 744 and 688 B, against 80 + 440 + 65 × 48 = 3 640 B for one
    // `RelValue` per categorical component whether it held mass or not.
    assert!(tuple.payload_bytes() <= 800);
}
