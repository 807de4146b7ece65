//! The level-local delta accumulator.
//!
//! A propagation level upserts contributions under output keys, drops the
//! keys whose payloads cancelled to zero, and hands what is left to the
//! view application and to the parent level.  [`DeltaTable`] is shaped for
//! exactly that life cycle, so that **every step costs O(entries carried)**
//! — never O(the largest batch the table ever held):
//!
//! * Entries live densely in a `Vec<(hash, key, payload)>` in
//!   **first-arrival order**.  Handing a finished level over is a buffer
//!   swap ([`DeltaTable::finish_into`]), not a move of every entry out of
//!   table slots.
//! * Keys are found through a power-of-two open-addressed index of packed
//!   `u64` words — the key hash's high half as a tag, the entry's position
//!   plus one in the low half, `0` for an empty slot.  Nothing is removed
//!   while a level accumulates, so there are no tombstones, and a lookup
//!   ([`DeltaTable::slot_for`]) never writes.
//! * Teardown re-visits only the index slots of the entries the table
//!   holds (one bulk `fill` when the table is dense), so a table that once
//!   held a 100 000-row load resets after a 3-row batch by touching a
//!   handful of words.
//!
//! Like every table in the workspace it is keyed by caller-supplied hashes
//! (the hash-once contract): equal keys must be presented with equal
//! hashes, and the hash travels with the entry to whoever consumes it.

use fivm_common::EncodedKey;

/// One delta entry: the key's precomputed hash, the key, the payload.
pub type DeltaEntry<V> = (u64, EncodedKey, V);

/// Low half of an index word: the entry's position plus one.
const ENTRY_MASK: u64 = 0xffff_ffff;
/// High half of an index word: the high half of the key's hash.  (The slot
/// position comes from the hash's *low* bits, so the tag is independent of
/// it.)
const TAG_MASK: u64 = !ENTRY_MASK;

/// Smallest index allocated: one cache line of words.
const MIN_INDEX_BYTES: usize = 64;

/// Teardown takes one bulk `fill` of the index instead of per-entry slot
/// walks when at least one slot in this many is occupied: a sequential
/// cache line of eight words is cheaper to rewrite than one random slot is
/// to find.
const DENSE_FILL_RATIO: usize = 8;

#[cfg(test)]
thread_local! {
    /// Index words visited or written by teardowns on this thread — backs
    /// the O(entries) teardown test (same pattern as `CTRL_WORDS_WIPED` in
    /// `fivm_common::table`).
    static INDEX_WORDS_TOUCHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records `words` index words touched by a teardown (test builds only).
#[inline]
fn note_touched(words: usize) {
    #[cfg(test)]
    INDEX_WORDS_TOUCHED.with(|c| c.set(c.get() + words as u64));
    #[cfg(not(test))]
    let _ = words;
}

/// Where a key lives in a [`DeltaTable`] (see [`DeltaTable::slot_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaSlot {
    /// The key's entry, by position in arrival order — pass to
    /// [`DeltaTable::value_mut`].
    Found(usize),
    /// The key is absent; [`DeltaTable::insert_at`] accepts this index
    /// position until the next insert.  Discarding it leaves no trace.
    Vacant(usize),
}

/// Upsert accumulator for one propagation level's delta; see the module
/// docs for the design.
pub struct DeltaTable<V> {
    /// The delta, in first-arrival order.
    entries: Vec<DeltaEntry<V>>,
    /// Open-addressed (linear probing) index into `entries`: empty until
    /// the first insert, then a power-of-two number of words at most half
    /// occupied.  Invariant: entry `i` owns exactly one word, reachable
    /// from slot `hash & mask` without crossing an empty word; every other
    /// word is `0`.
    index: Vec<u64>,
}

impl<V> Default for DeltaTable<V> {
    fn default() -> Self {
        DeltaTable::new()
    }
}

impl<V> DeltaTable<V> {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> Self {
        DeltaTable {
            entries: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Number of entries accumulated so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up under its precomputed `hash`.  Read-only: a
    /// [`DeltaSlot::Vacant`] answer that is not followed by
    /// [`DeltaTable::insert_at`] changes nothing.
    #[inline]
    pub fn slot_for(&self, hash: u64, key: &EncodedKey) -> DeltaSlot {
        if self.index.is_empty() {
            return DeltaSlot::Vacant(0);
        }
        let mask = self.index.len() - 1;
        let tag = hash & TAG_MASK;
        let mut pos = hash as usize & mask;
        loop {
            let word = self.index[pos];
            if word == 0 {
                return DeltaSlot::Vacant(pos);
            }
            if word & TAG_MASK == tag {
                let entry = (word & ENTRY_MASK) as usize - 1;
                let (h, k, _) = &self.entries[entry];
                if *h == hash && k == key {
                    return DeltaSlot::Found(entry);
                }
            }
            // At most half the words are occupied, so an empty one ends
            // every walk.
            pos = (pos + 1) & mask;
        }
    }

    /// The payload of the entry at a [`DeltaSlot::Found`] position.
    #[inline]
    pub fn value_mut(&mut self, entry: usize) -> &mut V {
        &mut self.entries[entry].2
    }

    /// Appends an entry for a key [`DeltaTable::slot_for`] just reported
    /// [`DeltaSlot::Vacant`] at `pos` (same hash, no insert in between).
    /// Panics if `pos` is not a vacant index position.
    #[inline]
    pub fn insert_at(&mut self, pos: usize, hash: u64, key: EncodedKey, value: V) {
        let entry = self.entries.len();
        assert!(
            (entry as u64) < ENTRY_MASK,
            "delta table entry positions fit 32 bits"
        );
        self.entries.push((hash, key, value));
        if self.entries.len() * 2 > self.index.len() {
            self.grow_index();
        } else {
            assert!(self.index[pos] == 0, "insert_at() target slot is taken");
            self.index[pos] = (hash & TAG_MASK) | (entry as u64 + 1);
        }
    }

    /// Doubles the index and re-buckets every entry from its stored hash
    /// (keys are never re-hashed).
    #[cold]
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_INDEX_BYTES / std::mem::size_of::<u64>());
        self.index.clear();
        self.index.resize(slots, 0);
        let mask = slots - 1;
        for (entry, (hash, _, _)) in self.entries.iter().enumerate() {
            let mut pos = *hash as usize & mask;
            while self.index[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.index[pos] = (hash & TAG_MASK) | (entry as u64 + 1);
        }
    }

    /// Empties the index by re-visiting the slots of the entries held —
    /// O(entries) however large the retained index is.  Must run while
    /// `entries` still matches the index (before any entry is dropped).
    fn reset_index(&mut self) {
        let held = self.entries.len();
        if held == 0 {
            return; // lookups never write, so the index is already clean
        }
        if held * DENSE_FILL_RATIO >= self.index.len() {
            self.index.fill(0);
            note_touched(self.index.len());
            return;
        }
        let mask = self.index.len() - 1;
        let mut touched = 0;
        for (entry, (hash, _, _)) in self.entries.iter().enumerate() {
            // Entry `entry`'s word sits at or after its home slot.  Words
            // already zeroed by this loop are skipped, not stopped at: the
            // walk looks for this entry's own position, which is unique.
            let own = entry as u64 + 1;
            let mut pos = *hash as usize & mask;
            touched += 1;
            while self.index[pos] & ENTRY_MASK != own {
                pos = (pos + 1) & mask;
                touched += 1;
            }
            self.index[pos] = 0;
        }
        note_touched(touched);
    }

    /// Ends a level: drops the entries whose payload fails `keep` and
    /// hands the rest to `out` — which must be empty — in first-arrival
    /// order, by swapping buffers.  The table is left empty with its index
    /// reset, holding `out`'s former allocation.
    pub fn finish_into(&mut self, out: &mut Vec<DeltaEntry<V>>, mut keep: impl FnMut(&V) -> bool) {
        debug_assert!(out.is_empty(), "finish_into() target holds a delta");
        self.reset_index();
        self.entries.retain(|(_, _, value)| keep(value));
        std::mem::swap(&mut self.entries, out);
        self.entries.clear();
    }

    /// Drops every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.reset_index();
        self.entries.clear();
    }

    /// Heap bytes of the table's own buffers (entry vector and index) —
    /// capacities × element size, O(1).
    #[inline]
    pub fn allocated_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<DeltaEntry<V>>()
            + self.index.capacity() * std::mem::size_of::<u64>()
    }

    /// Frees both buffers.  The table must be empty.
    pub fn release(&mut self) {
        debug_assert!(self.is_empty(), "release() on a table holding a delta");
        *self = DeltaTable::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_common::EncodedValue;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn key(k: i64) -> EncodedKey {
        EncodedKey::from_values(&[EncodedValue::int(k)])
    }

    fn words_touched() -> u64 {
        INDEX_WORDS_TOUCHED.with(|c| c.get())
    }

    /// `slot += v` under `(hash, key)`, the kernel's upsert shape.
    fn upsert(t: &mut DeltaTable<i64>, hash: u64, k: i64, v: i64) {
        match t.slot_for(hash, &key(k)) {
            DeltaSlot::Found(e) => *t.value_mut(e) += v,
            DeltaSlot::Vacant(pos) => t.insert_at(pos, hash, key(k), v),
        }
    }

    fn finish(t: &mut DeltaTable<i64>) -> Vec<DeltaEntry<i64>> {
        let mut out = Vec::new();
        t.finish_into(&mut out, |v| *v != 0);
        assert!(t.is_empty());
        out
    }

    #[test]
    fn upsert_streams_match_std_hashmap_across_growth_and_reuse() {
        let mut rng = StdRng::seed_from_u64(0xde17a);
        let mut t: DeltaTable<i64> = DeltaTable::new();
        // Levels of very different sizes through one table: the big one
        // crosses many index doublings, the small ones run on the index it
        // leaves behind.
        for (level, &(keys, ops)) in [(50, 400), (20_000, 60_000), (3, 20), (700, 5_000), (1, 4)]
            .iter()
            .enumerate()
        {
            let mut model: HashMap<i64, i64> = HashMap::new();
            let mut arrival: Vec<i64> = Vec::new();
            for _ in 0..ops {
                let k = rng.gen_range(0..keys as i64);
                let v = rng.gen_range(-2..=2i64);
                upsert(&mut t, key(k).fx_hash(), k, v);
                if !model.contains_key(&k) {
                    arrival.push(k);
                }
                *model.entry(k).or_insert(0) += v;
            }
            assert_eq!(t.len(), model.len(), "level {level}");
            let out = finish(&mut t);
            let expected: Vec<(i64, i64)> = arrival
                .iter()
                .map(|k| (*k, model[k]))
                .filter(|(_, v)| *v != 0)
                .collect();
            let got: Vec<(i64, i64)> = out
                .iter()
                .map(|(h, k, v)| {
                    assert_eq!(*h, k.fx_hash(), "entries carry their hash");
                    (k.col(0).decode_dictless().unwrap().as_i64().unwrap(), *v)
                })
                .collect();
            assert_eq!(
                got, expected,
                "level {level}: zeros dropped, arrival order kept"
            );
        }
    }

    #[test]
    fn colliding_hashes_and_tags_keep_keys_apart() {
        let mut t: DeltaTable<i64> = DeltaTable::new();
        // Two different keys presented with the same 64-bit hash.
        let same = 0xabcd_ef01_2345_6789u64;
        upsert(&mut t, same, 1, 10);
        upsert(&mut t, same, 2, 20);
        upsert(&mut t, same, 1, 1);
        // Same tag (high half) and same home slot, different hash.
        let a = 0x7777_0000_0000_0003u64;
        let b = 0x7777_0000_0001_0003u64;
        upsert(&mut t, a, 3, 30);
        upsert(&mut t, b, 4, 40);
        upsert(&mut t, b, 4, 4);
        // Same key under every one of its hashes is found again.
        assert_eq!(t.slot_for(same, &key(1)), DeltaSlot::Found(0));
        assert_eq!(t.slot_for(same, &key(2)), DeltaSlot::Found(1));
        assert_eq!(t.slot_for(a, &key(3)), DeltaSlot::Found(2));
        assert_eq!(t.slot_for(b, &key(4)), DeltaSlot::Found(3));
        assert!(matches!(t.slot_for(a, &key(4)), DeltaSlot::Vacant(_)));
        let out = finish(&mut t);
        let got: Vec<(u64, i64)> = out.iter().map(|(h, _, v)| (*h, *v)).collect();
        assert_eq!(got, vec![(same, 11), (same, 20), (a, 30), (b, 44)]);
        // The index came back clean: nothing is found on the next level.
        assert!(matches!(t.slot_for(same, &key(1)), DeltaSlot::Vacant(_)));
    }

    #[test]
    fn vacant_lookup_without_insert_leaves_no_trace() {
        let mut t: DeltaTable<i64> = DeltaTable::new();
        // On a never-used table, and again on a warm one.
        for round in 0..2 {
            let h = key(7).fx_hash();
            let DeltaSlot::Vacant(first) = t.slot_for(h, &key(7)) else {
                panic!("fresh key reported found");
            };
            let bytes = t.allocated_bytes();
            assert_eq!(t.slot_for(h, &key(7)), DeltaSlot::Vacant(first));
            assert_eq!(t.len(), 0);
            assert_eq!(
                t.allocated_bytes(),
                bytes,
                "round {round}: lookup allocated"
            );
            // The level ends with nothing to hand over and nothing to reset.
            let before = words_touched();
            assert!(finish(&mut t).is_empty());
            assert_eq!(words_touched() - before, 0);
            // Warm the table for the second round.
            for k in 0..100 {
                upsert(&mut t, key(k).fx_hash(), k, 1);
            }
            assert_eq!(finish(&mut t).len(), 100);
        }
    }

    #[test]
    fn finish_swaps_buffers_instead_of_moving_entries() {
        let mut t: DeltaTable<i64> = DeltaTable::new();
        for k in 0..1_000 {
            upsert(&mut t, key(k).fx_hash(), k, 1);
        }
        let mut out: Vec<DeltaEntry<i64>> = Vec::with_capacity(3);
        t.finish_into(&mut out, |_| true);
        assert_eq!(out.len(), 1_000);
        // The table now owns the 3-slot buffer `out` came with.
        assert!(t.entries.capacity() < 1_000);
        // clear() is the error path's teardown: same clean state.
        upsert(&mut t, key(5).fx_hash(), 5, 1);
        t.clear();
        assert!(t.is_empty());
        assert!(matches!(
            t.slot_for(key(5).fx_hash(), &key(5)),
            DeltaSlot::Vacant(_)
        ));
        t.release();
        assert_eq!(t.allocated_bytes(), 0);
    }

    #[test]
    fn teardown_work_is_proportional_to_the_entries_held() {
        let mut t: DeltaTable<i64> = DeltaTable::new();
        for k in 0..100_000 {
            upsert(&mut t, key(k).fx_hash(), k, 1);
        }
        let index_words = t.index.len() as u64;
        let before = words_touched();
        assert_eq!(finish(&mut t).len(), 100_000);
        // Dense: one bulk fill.
        assert_eq!(words_touched() - before, index_words);

        // Three entries on the index the 100 000 left behind.
        for k in [11, 22, 33] {
            upsert(&mut t, key(k).fx_hash(), k, 1);
        }
        assert_eq!(
            t.index.len() as u64,
            index_words,
            "index capacity is retained"
        );
        let before = words_touched();
        assert_eq!(finish(&mut t).len(), 3);
        let touched = words_touched() - before;
        assert!(
            touched <= 4 * 3,
            "teardown of 3 entries touched {touched} of {index_words} index words"
        );
        // And the index really is clean.
        for k in [11, 22, 33] {
            assert!(matches!(
                t.slot_for(key(k).fx_hash(), &key(k)),
                DeltaSlot::Vacant(_)
            ));
        }
    }
}
