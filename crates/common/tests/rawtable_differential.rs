//! Randomized differential tests: [`RawTable`] must behave exactly like
//! `std::collections::HashMap` under arbitrary interleavings of insert,
//! remove, upsert and iteration — including tombstone reuse and growth at
//! high load factors.
//!
//! (The environment has no crates.io access, so this uses a seeded RNG
//! harness instead of `proptest`; every case is deterministic and
//! reproducible from the printed seed — the same style as
//! `crates/core/tests/proptest_engine.rs`.)

use fivm_common::{fx_hash_words, Probe, RawTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn h(k: u64) -> u64 {
    fx_hash_words(&[k])
}

/// Runs `body` once per case with a per-case RNG, labelling failures with
/// the case seed.
fn for_cases(test: &str, cases: u64, body: impl Fn(&mut StdRng)) {
    for case in 0..cases {
        let seed = 0x7AB1E + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(err) = result {
            eprintln!("{test}: failing case seed = {seed}");
            std::panic::resume_unwind(err);
        }
    }
}

/// Checks that the table and the reference map hold identical contents.
fn assert_same(table: &RawTable<u64, i64>, reference: &HashMap<u64, i64>) {
    assert_eq!(table.len(), reference.len(), "length diverged");
    let mut seen = 0usize;
    for (k, v) in table.iter() {
        assert_eq!(reference.get(k), Some(v), "table entry {k} diverged");
        seen += 1;
    }
    assert_eq!(seen, reference.len(), "iteration count diverged");
    for (k, v) in reference {
        assert_eq!(table.get(h(*k), k), Some(v), "reference entry {k} missing");
    }
}

#[test]
fn random_op_sequences_match_std_hashmap() {
    for_cases("random_op_sequences_match_std_hashmap", 20, |rng| {
        let mut table: RawTable<u64, i64> = RawTable::new();
        let mut reference: HashMap<u64, i64> = HashMap::new();
        // A small key domain forces constant hit/miss/remove/reinsert mixing
        // (i.e. heavy tombstone churn and reuse).
        let domain = rng.gen_range(8..64u64);
        let ops = rng.gen_range(200..1200usize);
        for _ in 0..ops {
            let k = rng.gen_range(0..domain);
            match rng.gen_range(0..4u8) {
                // Upsert through the single-walk probe API.
                0 => {
                    let delta = rng.gen_range(-5..=5i64);
                    match table.probe(h(k), |key, _| *key == k) {
                        Probe::Found(idx) => *table.value_at_mut(idx) += delta,
                        Probe::Vacant(idx) => table.occupy(idx, h(k), k, delta),
                    }
                    *reference.entry(k).or_insert(0) += delta;
                }
                // Insert-if-absent through get + insert.
                1 => {
                    if table.get(h(k), &k).is_none() {
                        assert!(!reference.contains_key(&k));
                        table.insert(h(k), k, k as i64);
                        reference.insert(k, k as i64);
                    }
                }
                // Remove.
                2 => {
                    let removed = table.remove(h(k), &k);
                    assert_eq!(removed, reference.remove(&k), "remove({k}) diverged");
                }
                // Point lookups (hit or miss).
                _ => {
                    assert_eq!(table.get(h(k), &k), reference.get(&k));
                }
            }
        }
        assert_same(&table, &reference);

        // Retain a random predicate, then drain and compare the remains.
        let keep_mod = rng.gen_range(1..5u64);
        table.retain(|k, _| k % keep_mod == 0);
        reference.retain(|k, _| k % keep_mod == 0);
        assert_same(&table, &reference);

        let mut drained = Vec::new();
        table.drain_into(&mut drained);
        assert!(table.is_empty());
        assert_eq!(drained.len(), reference.len());
        for (hash, k, v) in &drained {
            assert_eq!(*hash, h(*k), "drained entry lost its stored hash");
            assert_eq!(reference.get(k), Some(v));
        }
    });
}

#[test]
fn growth_at_high_load_factor_keeps_every_entry() {
    for_cases("growth_at_high_load_factor", 8, |rng| {
        let n = rng.gen_range(1_000..20_000u64);
        let mut table: RawTable<u64, u64> = RawTable::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for i in 0..n {
            // Some duplicate keys, so growth interleaves with upserts.
            let k = rng.gen_range(0..n);
            match table.probe(h(k), |key, _| *key == k) {
                Probe::Found(idx) => *table.value_at_mut(idx) += i,
                Probe::Vacant(idx) => table.occupy(idx, h(k), k, i),
            }
            *reference.entry(k).or_insert(0) += i;
            // The reference starts at 0 and always adds; align the insert.
            if reference[&k] != *table.get(h(k), &k).expect("just upserted") {
                // First touch: occupy stored `i`, entry added `i` → equal;
                // any mismatch is a real divergence.
                panic!("upsert diverged for key {k} at op {i}");
            }
        }
        assert!(table.rehashes() > 0, "growing to {n} entries must rehash");
        assert!(table.capacity().is_power_of_two());
        assert!(
            table.len() * 4 <= table.capacity() * 3,
            "load factor bound violated: {} entries in {} slots",
            table.len(),
            table.capacity()
        );
        assert_eq!(table.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(table.get(h(*k), k), Some(v), "entry {k} lost across growth");
        }
    });
}

/// A key that behaves like a spilled `RelKey` (owned boxed words) and
/// counts its live instances, so leaks and double drops through the
/// table's `unsafe` storage show up as a non-zero balance (a double drop
/// would drive the counter negative or crash outright on the box).
#[derive(Debug)]
struct DropKey {
    k: u64,
    words: Box<[u64]>,
    live: std::sync::Arc<std::sync::atomic::AtomicIsize>,
}

impl DropKey {
    fn new(k: u64, live: &std::sync::Arc<std::sync::atomic::AtomicIsize>) -> DropKey {
        live.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        DropKey {
            k,
            words: vec![k, !k, k.rotate_left(7)].into_boxed_slice(),
            live: live.clone(),
        }
    }
}

impl Clone for DropKey {
    fn clone(&self) -> Self {
        self.live.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        DropKey {
            k: self.k,
            words: self.words.clone(),
            live: self.live.clone(),
        }
    }
}

impl Drop for DropKey {
    fn drop(&mut self) {
        self.live.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl PartialEq for DropKey {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.words == other.words
    }
}
impl Eq for DropKey {}

/// Churn-under-drop: owned keys (boxed words, like spilled `RelKey`s) and
/// `String` values through every storage transition — insert, probe/occupy,
/// remove, retain, growth and compaction rehashes, clone, clear, drain and
/// final drop.  The discriminant-free storage keeps liveness only in the
/// control bytes; this pins that no path leaks or double-drops an entry.
#[test]
fn churn_with_owned_keys_never_leaks_or_double_drops() {
    for_cases("churn_with_owned_keys", 12, |rng| {
        let live = std::sync::Arc::new(std::sync::atomic::AtomicIsize::new(0));
        let mut table: RawTable<DropKey, String> = RawTable::new();
        let mut reference: HashMap<u64, String> = HashMap::new();
        let domain = rng.gen_range(8..48u64);
        let ops = rng.gen_range(300..1500usize);
        for _ in 0..ops {
            let k = rng.gen_range(0..domain);
            match rng.gen_range(0..5u8) {
                // Upsert via probe/occupy (fresh DropKey either way; the
                // miss path hands it to the table, the hit path drops it).
                0 | 1 => {
                    let key = DropKey::new(k, &live);
                    let val = format!("v{k}");
                    match table.probe(h(k), |kk, _| *kk == key) {
                        Probe::Found(idx) => *table.value_at_mut(idx) = val.clone(),
                        Probe::Vacant(idx) => table.occupy(idx, h(k), key, val.clone()),
                    }
                    reference.insert(k, val);
                }
                // Remove (the returned entry drops here).
                2 => {
                    let key = DropKey::new(k, &live);
                    let removed = table.remove_with(h(k), |kk, _| *kk == key);
                    assert_eq!(removed.map(|(_, v)| v), reference.remove(&k));
                }
                // Point lookup.
                3 => {
                    let key = DropKey::new(k, &live);
                    assert_eq!(
                        table.find(h(k), |kk, _| *kk == key).map(|(_, v)| v),
                        reference.get(&k)
                    );
                }
                // Occasional retain sweep (drops in place).
                _ => {
                    let keep = rng.gen_range(1..4u64);
                    table.retain(|kk, _| kk.k % keep != 1);
                    reference.retain(|k, _| k % keep != 1);
                }
            }
        }
        assert_eq!(table.len(), reference.len());
        // One live DropKey per stored entry, exactly.
        assert_eq!(
            live.load(std::sync::atomic::Ordering::Relaxed),
            table.len() as isize,
            "live key count diverged from table length"
        );

        // Clone doubles the key population...
        let cloned = table.clone();
        assert_eq!(
            live.load(std::sync::atomic::Ordering::Relaxed),
            2 * table.len() as isize
        );
        // ...clear drops the clone's entries in place...
        let mut cloned = cloned;
        cloned.clear();
        assert!(cloned.is_empty());
        assert_eq!(
            live.load(std::sync::atomic::Ordering::Relaxed),
            table.len() as isize
        );
        // ...drain_into moves (not copies) ownership out of the table...
        let before_drain = table.len();
        let mut drained = Vec::new();
        table.drain_into(&mut drained);
        assert_eq!(drained.len(), before_drain);
        assert_eq!(
            live.load(std::sync::atomic::Ordering::Relaxed),
            before_drain as isize
        );
        for (hash, k, v) in &drained {
            assert_eq!(*hash, h(k.k));
            assert_eq!(reference.get(&k.k), Some(v));
        }
        // ...and dropping everything balances the books to zero.
        drop(drained);
        drop(table);
        drop(cloned);
        assert_eq!(
            live.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "leak or double drop through the raw storage"
        );
    });
}

/// Pins the load-factor pitfall as an API contract: [`RawTable::probe`]
/// reserves capacity for one insert *up front* — before it can know the
/// walk ends in [`Probe::Found`] — so a steady-state hit path that upserts
/// through `probe` rehashes the moment the table sits at the load-factor
/// boundary.  [`RawTable::find_idx`] never reserves.  Interior upserts on
/// long-lived tables (ring payload relations, view maps) must therefore
/// try `find_idx` first and fall back to `probe` only on a genuine miss —
/// the discipline of `RelValue::upsert` — while level-local delta tables
/// that grow and drain every level may use `probe` directly.  If either
/// half of this contract changes, the steady-state
/// `rehashes`/`ring_rehashes = 0` benchmark records go stale with it.
#[test]
fn find_idx_never_reserves_but_probe_reserves_even_on_hits() {
    let mut table: RawTable<u64, u64> = RawTable::new();
    // Fill to the exact load-factor boundary: the next reservation grows.
    let mut k = 0u64;
    while table.len() * 4 < table.capacity() * 3 || table.capacity() == 0 {
        table.insert(h(k), k, k);
        k += 1;
    }
    assert_eq!(
        table.len() * 4,
        table.capacity() * 3,
        "fill should stop exactly at the 3/4 boundary"
    );
    let (rehashes, capacity) = (table.rehashes(), table.capacity());

    // Hit and miss lookups through `find_idx` at the boundary: no
    // reservation, no growth, ever.
    for key in 0..2 * k {
        let found = table.find_idx(h(key), |kk, _| *kk == key);
        assert_eq!(found.is_some(), key < k);
    }
    assert_eq!(table.rehashes(), rehashes, "find_idx must never rehash");
    assert_eq!(table.capacity(), capacity, "find_idx must never reserve");

    // One `probe` on an *existing* key — a pure hit — still reserves up
    // front and therefore grows at the boundary.  This is the pitfall:
    // `probe` is an upsert primitive, not a lookup.
    match table.probe(h(0), |kk, _| *kk == 0) {
        Probe::Found(idx) => assert_eq!(*table.value_at_mut(idx), 0),
        Probe::Vacant(_) => panic!("key 0 is present"),
    }
    assert!(
        table.capacity() > capacity,
        "probe reserves up front even when the walk ends in Found"
    );
    assert!(table.rehashes() > rehashes);
    // The grown table still holds every entry.
    for key in 0..k {
        assert_eq!(table.get(h(key), &key), Some(&key));
    }
}

#[test]
fn tombstone_churn_reuses_slots_without_unbounded_growth() {
    for_cases("tombstone_churn_reuses_slots", 8, |rng| {
        let mut table: RawTable<u64, u64> = RawTable::new();
        let domain = 64u64;
        // Fill once so the capacity settles.
        for k in 0..domain {
            table.insert(h(k), k, k);
        }
        let settled = {
            // Churn a little to let compaction pick the steady-state size.
            for _ in 0..1_000 {
                let k = rng.gen_range(0..domain);
                table.remove(h(k), &k);
                table.insert(h(k), k, k);
            }
            table.capacity()
        };
        // Heavy delete/reinsert churn at fixed occupancy must never grow
        // the table: tombstones are reused or compacted away, not
        // accumulated.
        for _ in 0..20_000 {
            let k = rng.gen_range(0..domain);
            table.remove(h(k), &k);
            table.insert(h(k), k, k);
        }
        assert_eq!(table.len(), domain as usize);
        assert_eq!(
            table.capacity(),
            settled,
            "tombstone churn changed the steady-state capacity"
        );
        for k in 0..domain {
            assert_eq!(table.get(h(k), &k), Some(&k));
        }
    });
}

/// The swiss-table deletion rule under cancel-and-refill churn: a removed
/// slot goes back to `EMPTY` while its control group still shows an `EMPTY`
/// byte, so a table that fits one group — 2, 4 and 8 slots, filled to the
/// most the load factor admits — never collects a tombstone and therefore
/// never compacts, however long it churns.  Multi-group tables (16 and 64
/// slots, here at half load) tombstone only inside groups that filled up,
/// and refills reuse those slots, so they stay flat too.  Runs under the
/// drop-counting keys: every freed slot must have dropped exactly once.
#[test]
fn cancel_and_refill_never_rehashes_after_the_first_fill() {
    for (cap, n) in [(2usize, 1u64), (4, 3), (8, 6), (16, 8), (64, 32)] {
        for_cases("cancel_and_refill", 6, |rng| {
            let live = std::sync::Arc::new(std::sync::atomic::AtomicIsize::new(0));
            let mut table: RawTable<DropKey, String> = RawTable::new();
            // First fill: the table grows to its steady capacity.
            for k in 0..n {
                table.insert(h(k), DropKey::new(k, &live), format!("v{k}"));
            }
            assert_eq!(
                table.capacity(),
                cap,
                "test premise: {n} entries settle at {cap} slots"
            );
            let rehashes = table.rehashes();
            let mut present: Vec<bool> = vec![true; n as usize];
            for round in 0..300 {
                // Cancel a random subset — every third round all of it —
                // through remove or a retain sweep...
                let all = round % 3 == 0;
                let doomed: Vec<u64> = (0..n).filter(|_| all || rng.gen_bool(0.5)).collect();
                if rng.gen_bool(0.5) {
                    table.retain(|kk, _| !doomed.contains(&kk.k));
                } else {
                    for &k in &doomed {
                        let probe = DropKey::new(k, &live);
                        let removed = table.remove_with(h(k), |kk, _| *kk == probe);
                        assert_eq!(removed.is_some(), present[k as usize]);
                    }
                }
                for &k in &doomed {
                    present[k as usize] = false;
                }
                assert_eq!(
                    live.load(std::sync::atomic::Ordering::Relaxed),
                    table.len() as isize,
                    "a cancelled entry leaked or dropped twice"
                );
                // ...then refill some of the holes, through the upsert walk
                // or the known-absent insert.
                for k in 0..n {
                    if present[k as usize] || rng.gen_bool(0.3) {
                        continue;
                    }
                    let key = DropKey::new(k, &live);
                    if rng.gen_bool(0.5) {
                        match table.probe(h(k), |kk, _| *kk == key) {
                            Probe::Vacant(idx) => table.occupy(idx, h(k), key, format!("v{k}")),
                            Probe::Found(_) => panic!("cancelled key {k} still present"),
                        }
                    } else {
                        table.insert(h(k), key, format!("v{k}"));
                    }
                    present[k as usize] = true;
                }
                for k in 0..n {
                    let probe = DropKey::new(k, &live);
                    assert_eq!(
                        table.find(h(k), |kk, _| *kk == probe).is_some(),
                        present[k as usize],
                        "cap {cap}, round {round}: key {k} presence diverged"
                    );
                }
            }
            assert_eq!(table.rehashes(), rehashes, "cap {cap}: churn rehashed");
            assert_eq!(table.capacity(), cap);
            drop(table);
            assert_eq!(live.load(std::sync::atomic::Ordering::Relaxed), 0);
        });
    }
}

/// The other half of the rule: a slot freed in a group that has **no**
/// `EMPTY` byte left must stay a tombstone, because keys displaced past
/// that group are only reachable by probing through it.  Hashes are
/// caller-supplied, so the test sends ten keys to one home group of a
/// two-group (16-slot) and an eight-group (64-slot) table: eight fill the
/// group, two land further along the probe chain.
#[test]
fn keys_displaced_past_a_full_group_survive_removals_in_it() {
    for slots in [16usize, 64] {
        let live = std::sync::Arc::new(std::sync::atomic::AtomicIsize::new(0));
        let mut table: RawTable<DropKey, String> = RawTable::with_capacity(slots * 3 / 4);
        assert_eq!(table.capacity(), slots);
        let groups = (slots / 8) as u64;
        // Home group 1 for every key; distinct hashes above the group bits.
        let hash = |k: u64| 1 % groups + groups * (k + 1) * 0x9E37_79B9;
        for k in 0..10u64 {
            table.insert(hash(k), DropKey::new(k, &live), format!("v{k}"));
        }
        let rehashes = table.rehashes();
        let present = |table: &RawTable<DropKey, String>, k: u64| {
            table.find(hash(k), |kk, _| kk.k == k).is_some()
        };
        // Remove neighbours inside the full home group: the displaced keys
        // 8 and 9 must stay reachable through it.
        for k in [3u64, 0, 7] {
            assert!(table.remove_with(hash(k), |kk, _| kk.k == k).is_some());
            assert!(
                present(&table, 8) && present(&table, 9),
                "{slots} slots: lost a displaced key"
            );
            assert!(!present(&table, k));
        }
        // Remove a displaced key from its (non-full) group: the other one
        // and the survivors of the full group are untouched.
        assert!(table.remove_with(hash(8), |kk, _| kk.k == 8).is_some());
        assert!(present(&table, 9) && !present(&table, 8));
        // Refill: the freed slots are reused, nothing compacts or grows.
        for k in [0u64, 3, 7, 8] {
            table.insert(hash(k), DropKey::new(k, &live), format!("v{k}"));
        }
        for k in 0..10u64 {
            assert!(
                present(&table, k),
                "{slots} slots: key {k} lost after refill"
            );
        }
        assert_eq!(table.len(), 10);
        assert_eq!(table.rehashes(), rehashes);
        assert_eq!(live.load(std::sync::atomic::Ordering::Relaxed), 10);
        drop(table);
        assert_eq!(live.load(std::sync::atomic::Ordering::Relaxed), 0);
    }
}
