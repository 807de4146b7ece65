#![allow(unsafe_code)] // the one sanctioned unsafe module — see the memory contract in ROADMAP.md
//! An open-addressing hash table keyed by **precomputed** 64-bit hashes.
//!
//! # Why `std::collections::HashMap` is not enough
//!
//! The F-IVM maintenance hot path probes the same key against several
//! tables per propagation level: a view's primary map, one or more
//! secondary indexes, and the per-level delta accumulator.  With `std`'s
//! `HashMap` every one of those probes re-hashes the key, because the map
//! owns the hashing: there is no stable API to probe or insert with a hash
//! computed by the caller (`raw_entry` never stabilized, and
//! `HashMap::entry` additionally demands an owned key up front, forcing a
//! clone per probe).  [`RawTable`] inverts the contract — every operation
//! takes `(hash, key)` — so the engine hashes each key exactly once per
//! level and reuses the hash everywhere, including on growth: entries store
//! their hash, so resizing never touches key bytes at all.
//!
//! The table is a compact swiss-table-style design: power-of-two capacity,
//! one control byte per slot carrying a 7-bit hash fragment, probed in
//! groups of eight bytes with portable SWAR word tricks (no SIMD
//! intrinsics) so most mismatched slots are rejected eight at a time
//! without reading any entry.  Groups are visited in triangular order
//! (every group reached, no primary clustering).  Deletion follows the
//! swiss-table rule: a removed slot goes back to `EMPTY` whenever its
//! (aligned) control group still holds an `EMPTY` byte, and becomes a
//! tombstone only in a group that is otherwise full.  A lookup leaves a
//! group for the next one only when the group has no `EMPTY` byte, and a
//! group never regains one except through this rule, a clear or a rehash
//! — so a group that shows an `EMPTY` byte now has shown one ever since,
//! no probe chain has ever continued past it, and freeing one of its
//! slots outright cannot cut a chain.  Every table of at most eight slots
//! is a single group that the load factor never fills (a 2- or 4-slot
//! table keeps permanently-empty padding bytes, an 8-slot table never
//! holds more than 6 entries), so small tables — the relation-ring
//! interiors under cancel-and-refill churn — never tombstone at all.
//! Tables that do collect tombstones are compacted in place by a same-size
//! rehash instead of growing.  Rehash events are counted in
//! [`RawTable::rehashes`], which the engine surfaces as an `EngineStats`
//! counter — a key is re-bucketed (never re-hashed) only when a table
//! grows or compacts.
//!
//! # Storage: discriminant-free slots
//!
//! The control bytes are the **single liveness authority**.  Entry storage
//! is split into a hash array (`Box<[u64]>`) and an uninitialized entry
//! array (`Box<[MaybeUninit<(K, V)>]>`); there is no per-slot `Option`
//! discriminant and no second bookkeeping structure to keep in sync.  The
//! invariant every `unsafe` block in this module relies on:
//!
//! > `ctrl[i] < 0x80` (a stored hash fragment) **iff** `hashes[i]` and
//! > `entries[i]` hold an initialized entry.  Control bytes at
//! > `i >= capacity` (the padding of sub-group tables, below) are always
//! > `CTRL_EMPTY`.
//!
//! Every transition maintains it: `occupy`/`insert` write the entry before
//! (or with) the control byte, `remove_at`/`retain` read the entry out (or
//! drop it in place) while marking the byte dead (`EMPTY` or tombstone —
//! both read dead, so the choice is invisible to the invariant),
//! `clear`/`drop` walk the
//! control bytes to drop exactly the live entries, and `rehash` moves
//! entries bitwise into a fresh array.  All `unsafe` is confined to this
//! module; the public API stays safe (slot-index accessors check the
//! control byte and panic on a dead slot, exactly like the previous
//! `Option`-based storage did).
//!
//! Because entry slots no longer pay an `Option` tag, and because the
//! minimum capacity is [`MIN_CAP`] = 2 slots (the control array is padded
//! to one SWAR group with permanently-empty bytes), the millions of tiny
//! relation-ring interiors this table backs shrink from one 8-slot
//! allocation to a right-sized few: see [`RawTable::allocated_bytes`] and
//! the bytes-per-entry gate in `crates/ring/tests/mem_gate.rs`.
//!
//! Like the rest of the workspace the table is keyed by trusted,
//! internally generated hashes ([`crate::hash::FxHasher`]-style mixing);
//! it is not HashDoS-resistant.

use std::fmt;
use std::mem::MaybeUninit;

/// Control byte: a free slot no probe chain has passed (chains stop here).
const CTRL_EMPTY: u8 = 0x80;
/// Control byte: slot held an entry that was removed from a group with no
/// `EMPTY` byte left (probe chains may have passed it, so they go on).
const CTRL_TOMBSTONE: u8 = 0x81;

/// The 7-bit hash fragment stored in a slot's control byte.
#[inline]
fn h2(hash: u64) -> u8 {
    ((hash >> 57) & 0x7f) as u8
}

/// Control bytes are probed in groups of this many (one `u64` at a time).
const GROUP: usize = 8;

/// Smallest slot capacity.  Sub-group tables keep a full 8-byte control
/// group whose trailing bytes are permanently `CTRL_EMPTY`; real slots
/// occupy the *low* indices, so the SWAR "first matching byte" selection
/// can never pick a padding slot while a live/free real slot exists (the
/// load-factor reserve guarantees a free real slot before every insert).
const MIN_CAP: usize = 2;

/// `b` repeated in every byte of a word.
#[inline]
fn repeat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// SWAR mask with the high bit set in every byte of `x` that is zero
/// (the classic "hasless" trick) — used to locate matching control bytes
/// eight at a time without SIMD intrinsics.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080
}

/// Mask of bytes in `word` equal to `b` (high bit per matching byte).
#[inline]
fn match_bytes(word: u64, b: u8) -> u64 {
    zero_bytes(word ^ repeat(b))
}

/// Loads the control group starting at slot `g * GROUP` (little-endian, so
/// `trailing_zeros / 8` of a byte mask is the in-group offset).
#[inline]
fn load_group(ctrl: &[u8], g: usize) -> u64 {
    u64::from_le_bytes(
        ctrl[g * GROUP..g * GROUP + GROUP]
            .try_into()
            .expect("full control group"),
    )
}

/// A control word whose every byte is `CTRL_EMPTY`.
const ALL_EMPTY: u64 = u64::from_ne_bytes([CTRL_EMPTY; 8]);

#[cfg(test)]
thread_local! {
    /// Counter backing the sparse-wipe tests: control *words* written by
    /// [`RawTable`] clears on this thread.
    static CTRL_WORDS_WIPED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records `words` control words written by a clear (test builds only).
#[inline]
fn note_wiped(words: usize) {
    #[cfg(test)]
    CTRL_WORDS_WIPED.with(|c| c.set(c.get() + words as u64));
    #[cfg(not(test))]
    let _ = words;
}

/// Result of [`RawTable::probe`]: the matching entry's slot index, or the
/// slot index a new entry for the probed key should occupy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// An entry matched at this slot index.
    Found(usize),
    /// No match; a new entry may be placed at this slot index via
    /// [`RawTable::occupy`].
    Vacant(usize),
}

/// An open-addressing hash table mapping `K` to `V` under caller-supplied
/// hashes.  See the module docs for the design rationale and the storage
/// invariant.
///
/// Contract: for the table to behave like a map, equal keys must always be
/// presented with equal hashes, and [`RawTable::insert`] must only be
/// called for keys not currently present (use [`RawTable::get_mut`] /
/// [`RawTable::find_idx`] first — with the hash already in hand the extra
/// probe is a handful of word compares).
pub struct RawTable<K, V> {
    /// One control byte per slot (`CTRL_EMPTY`, `CTRL_TOMBSTONE`, or the
    /// entry's `h2` fragment), padded to at least one SWAR group; padding
    /// bytes are permanently `CTRL_EMPTY`.
    ctrl: Box<[u8]>,
    /// The stored 64-bit hash of each live slot (uninitialized slots hold
    /// an arbitrary word that is never read).  Length is the capacity,
    /// always a power of two (or zero before the first insert).
    hashes: Box<[u64]>,
    /// Entry storage; `entries[i]` is initialized iff `ctrl[i]` is live.
    entries: Box<[MaybeUninit<(K, V)>]>,
    len: usize,
    /// Slots whose control byte is `CTRL_TOMBSTONE` (removals that went
    /// back to `CTRL_EMPTY` are not counted — they cost no load).
    tombstones: usize,
    rehashes: u64,
}

impl<K, V> Default for RawTable<K, V> {
    fn default() -> Self {
        RawTable::new()
    }
}

/// An uninitialized entry array of `cap` slots.
fn uninit_entries<K, V>(cap: usize) -> Box<[MaybeUninit<(K, V)>]> {
    std::iter::repeat_with(MaybeUninit::uninit).take(cap).collect()
}

impl<K, V> RawTable<K, V> {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> Self {
        RawTable {
            ctrl: Box::from([]),
            hashes: Box::from([]),
            entries: Box::from([]),
            len: 0,
            tombstones: 0,
            rehashes: 0,
        }
    }

    /// An empty table that can hold `cap` entries without growing.
    pub fn with_capacity(cap: usize) -> Self {
        let mut t = RawTable::new();
        if cap > 0 {
            t.rehash(
                (cap * 4)
                    .div_ceil(3)
                    .next_power_of_two()
                    .max(MIN_CAP),
            );
            t.rehashes = 0; // initial sizing is not a rehash
        }
        t
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (entry capacity before load-factor headroom; the
    /// control array may be padded beyond it, see the module docs).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.hashes.len()
    }

    /// Heap bytes owned by the table's own arrays (control bytes, stored
    /// hashes, entry slots).  Excludes heap owned *by* keys or values
    /// (spilled key boxes, nested tables) — byte rollups that need those
    /// add them at the layer that knows the types (`Ring::payload_bytes`,
    /// `MaterializedView::table_bytes`).
    #[inline]
    pub fn allocated_bytes(&self) -> usize {
        self.ctrl.len()
            + self.hashes.len() * std::mem::size_of::<u64>()
            + self.entries.len() * std::mem::size_of::<(K, V)>()
    }

    /// Number of rehashes (growth or tombstone compaction) performed.
    /// Entries are re-bucketed from their *stored* hashes — keys are never
    /// re-hashed by the table.
    #[inline]
    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    /// Shared borrow of a live slot's entry.
    ///
    /// # Safety
    /// `idx` must be a live slot (`ctrl[idx] < CTRL_EMPTY`).
    #[inline]
    unsafe fn entry_ref(&self, idx: usize) -> &(K, V) {
        debug_assert!(self.ctrl[idx] < CTRL_EMPTY, "entry_ref on a dead slot");
        self.entries[idx].assume_init_ref()
    }

    /// Mutable borrow of a live slot's entry.
    ///
    /// # Safety
    /// `idx` must be a live slot (`ctrl[idx] < CTRL_EMPTY`).
    #[inline]
    unsafe fn entry_mut(&mut self, idx: usize) -> &mut (K, V) {
        debug_assert!(self.ctrl[idx] < CTRL_EMPTY, "entry_mut on a dead slot");
        self.entries[idx].assume_init_mut()
    }

    /// Index of the entry matching `hash` and `eq`, if present.
    ///
    /// The returned index is stable until the next mutating call and can be
    /// used with [`RawTable::at`] / [`RawTable::value_at_mut`] — this is
    /// what lets probe results be memoized for the duration of a
    /// propagation level.
    #[inline]
    pub fn find_idx(&self, hash: u64, mut eq: impl FnMut(&K, &V) -> bool) -> Option<usize> {
        let groups = self.ctrl.len() / GROUP;
        if groups == 0 {
            return None;
        }
        let gmask = groups - 1;
        let fragment = h2(hash);
        let mut g = (hash as usize) & gmask;
        let mut step = 0;
        loop {
            let word = load_group(&self.ctrl, g);
            // Candidate slots: control bytes matching the hash fragment.
            // A fragment byte is < 0x80, so every candidate is live and its
            // hash/entry are initialized (the storage invariant).
            let mut candidates = match_bytes(word, fragment);
            while candidates != 0 {
                let i = g * GROUP + (candidates.trailing_zeros() as usize) / 8;
                if self.hashes[i] == hash {
                    let (k, v) = unsafe { self.entry_ref(i) };
                    if eq(k, v) {
                        return Some(i);
                    }
                }
                candidates &= candidates - 1;
            }
            // A never-occupied slot in the group ends the probe chain.
            if match_bytes(word, CTRL_EMPTY) != 0 {
                return None;
            }
            step += 1;
            if step > groups {
                return None;
            }
            g = (g + step) & gmask;
        }
    }

    /// The entry at a slot index returned by [`RawTable::find_idx`].
    /// Panics on a dead slot index (liveness is checked against the control
    /// byte, the single authority).
    #[inline]
    pub fn at(&self, idx: usize) -> (&K, &V) {
        assert!(self.ctrl[idx] < CTRL_EMPTY, "slot index of a live entry");
        let (k, v) = unsafe { self.entry_ref(idx) };
        (k, v)
    }

    /// Mutable value access by slot index; panics on a dead slot index.
    #[inline]
    pub fn value_at_mut(&mut self, idx: usize) -> &mut V {
        assert!(self.ctrl[idx] < CTRL_EMPTY, "slot index of a live entry");
        let (_, v) = unsafe { self.entry_mut(idx) };
        v
    }

    /// The entry matching `hash` and `eq`, if present.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(&K, &V) -> bool) -> Option<(&K, &V)> {
        let idx = self.find_idx(hash, eq)?;
        let (k, v) = unsafe { self.entry_ref(idx) };
        Some((k, v))
    }

    /// Mutable variant of [`RawTable::find`].
    #[inline]
    pub fn find_mut(&mut self, hash: u64, eq: impl FnMut(&K, &V) -> bool) -> Option<(&K, &mut V)> {
        let idx = self.find_idx(hash, eq)?;
        let (k, v) = unsafe { self.entry_mut(idx) };
        Some((&*k, v))
    }

    /// Probes for `hash`/`eq` in a single walk, returning either the
    /// matching slot or the slot a new entry should occupy — the upsert
    /// primitive: one probe sequence serves both the hit and the miss.
    ///
    /// Capacity for one insert is reserved up front, so a
    /// [`Probe::Vacant`] index stays valid until the next mutating call
    /// and can be passed to [`RawTable::occupy`] (or simply discarded).
    pub fn probe(&mut self, hash: u64, mut eq: impl FnMut(&K, &V) -> bool) -> Probe {
        self.reserve_one();
        let groups = self.ctrl.len() / GROUP;
        let gmask = groups - 1;
        let fragment = h2(hash);
        let mut g = (hash as usize) & gmask;
        let mut step = 0;
        let mut insert_at = usize::MAX;
        loop {
            let word = load_group(&self.ctrl, g);
            let mut candidates = match_bytes(word, fragment);
            while candidates != 0 {
                let i = g * GROUP + (candidates.trailing_zeros() as usize) / 8;
                if self.hashes[i] == hash {
                    let (k, v) = unsafe { self.entry_ref(i) };
                    if eq(k, v) {
                        return Probe::Found(i);
                    }
                }
                candidates &= candidates - 1;
            }
            if insert_at == usize::MAX {
                // Remember the first reusable tombstone along the chain.
                let tombs = match_bytes(word, CTRL_TOMBSTONE);
                if tombs != 0 {
                    insert_at = g * GROUP + (tombs.trailing_zeros() as usize) / 8;
                }
            }
            let empties = match_bytes(word, CTRL_EMPTY);
            if empties != 0 {
                return Probe::Vacant(if insert_at == usize::MAX {
                    g * GROUP + (empties.trailing_zeros() as usize) / 8
                } else {
                    insert_at
                });
            }
            step += 1;
            g = (g + step) & gmask;
        }
    }

    /// Fills a vacant slot returned by [`RawTable::probe`] (same hash, no
    /// mutation in between).  Panics if the slot is live.
    pub fn occupy(&mut self, idx: usize, hash: u64, key: K, value: V) {
        assert!(
            idx < self.capacity(),
            "occupy() index beyond the slot capacity (padding slots are not occupiable)"
        );
        assert!(self.ctrl[idx] >= CTRL_EMPTY, "occupy() target slot is live");
        if self.ctrl[idx] == CTRL_TOMBSTONE {
            self.tombstones -= 1;
        }
        self.hashes[idx] = hash;
        self.entries[idx].write((key, value));
        self.ctrl[idx] = h2(hash);
        self.len += 1;
    }

    /// Marks a live slot's control byte dead by the swiss-table deletion
    /// rule (module docs): `EMPTY` when the slot's aligned group still has
    /// an `EMPTY` byte — no probe chain can have continued past such a
    /// group — and a counted tombstone otherwise.  The caller disposes of
    /// the entry and adjusts `len`.
    #[inline]
    fn mark_dead(&mut self, idx: usize) {
        debug_assert!(self.ctrl[idx] < CTRL_EMPTY, "mark_dead on a dead slot");
        if match_bytes(load_group(&self.ctrl, idx / GROUP), CTRL_EMPTY) != 0 {
            self.ctrl[idx] = CTRL_EMPTY;
        } else {
            self.ctrl[idx] = CTRL_TOMBSTONE;
            self.tombstones += 1;
        }
    }

    /// Removes the entry at a slot index; `None` if the slot is dead.
    pub fn remove_at(&mut self, idx: usize) -> Option<(K, V)> {
        if self.ctrl[idx] >= CTRL_EMPTY {
            return None;
        }
        self.mark_dead(idx);
        self.len -= 1;
        // The control byte now marks the slot dead, so the entry read is
        // the single move out of the slot.
        Some(unsafe { self.entries[idx].assume_init_read() })
    }

    /// Inserts an entry **known to be absent** (the caller has already
    /// probed with the same hash).  Reuses freed and tombstone slots.
    pub fn insert(&mut self, hash: u64, key: K, value: V) {
        self.reserve_one();
        let groups = self.ctrl.len() / GROUP;
        let gmask = groups - 1;
        let mut g = (hash as usize) & gmask;
        let mut step = 0;
        loop {
            let word = load_group(&self.ctrl, g);
            // Any dead byte (EMPTY or TOMBSTONE — both have the high bit
            // set) in the group can hold the new entry.  Padding bytes sit
            // at the highest indices of the (single) group of a sub-group
            // table, so the lowest dead byte is always a real slot.
            let dead = word & 0x8080_8080_8080_8080;
            if dead != 0 {
                let i = g * GROUP + (dead.trailing_zeros() as usize) / 8;
                self.occupy(i, hash, key, value);
                return;
            }
            step += 1;
            g = (g + step) & gmask;
        }
    }

    /// Removes and returns the entry matching `hash` and `eq`.
    pub fn remove_with(&mut self, hash: u64, eq: impl FnMut(&K, &V) -> bool) -> Option<(K, V)> {
        let idx = self.find_idx(hash, eq)?;
        self.remove_at(idx)
    }

    /// Visits the indices of every live slot, in storage order.  Scans the
    /// control bytes (1 byte per slot, eight at a time) instead of the
    /// entry array, so sparse tables never touch the memory of empty
    /// slots — full-table walks cost `O(capacity)` byte reads plus
    /// `O(len)` entry reads.
    #[inline]
    fn for_each_live(ctrl: &[u8], mut visit: impl FnMut(usize)) {
        let mut base = 0;
        for chunk in ctrl.chunks_exact(GROUP) {
            let word = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            if word != ALL_EMPTY {
                for (off, &c) in chunk.iter().enumerate() {
                    if c < CTRL_EMPTY {
                        visit(base + off);
                    }
                }
            }
            base += GROUP;
        }
        // The control array length is always a multiple of GROUP.
        debug_assert_eq!(ctrl.len() % GROUP, 0);
    }

    /// Keeps only the entries for which `f` returns `true`.  Scans control
    /// bytes like [`RawTable::for_each_live`], eight at a time; removed
    /// entries are dropped in place.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        let cap = self.ctrl.len();
        let mut removed = 0;
        let mut base = 0;
        while base + GROUP <= cap {
            let word =
                u64::from_ne_bytes(self.ctrl[base..base + GROUP].try_into().expect("8-byte chunk"));
            if word != ALL_EMPTY {
                for i in base..base + GROUP {
                    removed += usize::from(self.retain_slot(i, &mut f));
                }
            }
            base += GROUP;
        }
        self.len -= removed;
    }

    /// Applies the retain predicate to one slot; returns whether the slot
    /// was removed.
    #[inline]
    fn retain_slot(&mut self, i: usize, f: &mut impl FnMut(&K, &mut V) -> bool) -> bool {
        if self.ctrl[i] >= CTRL_EMPTY {
            return false;
        }
        let (k, v) = unsafe { self.entry_mut(i) };
        if f(k, v) {
            false
        } else {
            self.mark_dead(i);
            // Dead per the control byte; drop the entry in place.
            unsafe { self.entries[i].assume_init_drop() };
            true
        }
    }

    /// Resets every control byte to `CTRL_EMPTY` after the caller has
    /// disposed of all live entries.  When the table is sparsely occupied
    /// (live + tombstones well below capacity — the pooled-scratch shape),
    /// only the dirty control *words* are rewritten, guided by the same
    /// SWAR walk the iterators use; a dense table takes one bulk fill.
    fn wipe_ctrl(&mut self) {
        let dirty = self.len + self.tombstones;
        if dirty * GROUP >= self.ctrl.len() {
            self.ctrl.fill(CTRL_EMPTY);
            note_wiped(self.ctrl.len() / GROUP);
        } else {
            let mut wiped = 0;
            for chunk in self.ctrl.chunks_exact_mut(GROUP) {
                let word = u64::from_ne_bytes((&*chunk).try_into().expect("8-byte chunk"));
                if word != ALL_EMPTY {
                    chunk.fill(CTRL_EMPTY);
                    wiped += 1;
                }
            }
            note_wiped(wiped);
        }
        self.len = 0;
        self.tombstones = 0;
    }

    /// Moves every `(hash, key, value)` entry into `out` and clears the
    /// table, keeping its capacity (the drained hashes stay reusable — this
    /// is how the engine hands a level's delta to the next level without
    /// re-hashing anything).
    pub fn drain_into(&mut self, out: &mut Vec<(u64, K, V)>) {
        if self.len == 0 && self.tombstones == 0 {
            // Already clean: clearing must stay O(1) for empty tables no
            // matter how large their retained capacity is (scratch tables
            // are cleared once per reuse, usually while empty).
            return;
        }
        if self.len > 0 {
            // Reserve up front so the pushes below cannot panic between
            // reading an entry out and recording it (a panic after the
            // read, with the control byte still live, would double-drop
            // the entry when the table is later dropped — same discipline
            // as `take_live_entries`).
            out.reserve(self.len);
            self.take_live_entries(|hash, k, v| out.push((hash, k, v)));
        }
        self.wipe_ctrl();
    }

    /// Walks the live slots SWAR-word-wise, marking each slot dead
    /// **before** moving its entry out to `consume`.  The
    /// mark-then-dispose order makes the walk panic-safe: if a consumer
    /// or an entry's own `Drop` unwinds, every slot already visited —
    /// including the one in flight — reads dead, so the table's `Drop`
    /// cannot touch it again.  Counters are left to the caller
    /// (`wipe_ctrl` resets them).
    fn take_live_entries(&mut self, mut consume: impl FnMut(u64, K, V)) {
        let cap = self.ctrl.len();
        let mut base = 0;
        while base + GROUP <= cap {
            let word =
                u64::from_ne_bytes(self.ctrl[base..base + GROUP].try_into().expect("8-byte chunk"));
            if word != ALL_EMPTY {
                for i in base..base + GROUP {
                    if self.ctrl[i] < CTRL_EMPTY {
                        self.ctrl[i] = CTRL_TOMBSTONE;
                        // Dead per the control byte; this is the single
                        // move out of the slot.
                        let (k, v) = unsafe { self.entries[i].assume_init_read() };
                        consume(self.hashes[i], k, v);
                    }
                }
            }
            base += GROUP;
        }
    }

    /// Removes every entry, keeping capacity.  O(1) when the table is
    /// already clean, and writes only the dirty control words when it is
    /// sparse (see [`RawTable::drain_into`]).
    pub fn clear(&mut self) {
        if self.len == 0 && self.tombstones == 0 {
            return;
        }
        if std::mem::needs_drop::<(K, V)>() && self.len > 0 {
            // Slots are marked dead before each entry drops, so a
            // panicking entry `Drop` cannot lead to a second drop from
            // the table's own `Drop` during unwinding.
            self.take_live_entries(|_, k, v| drop((k, v)));
        }
        self.wipe_ctrl();
    }

    /// Iterates over `(key, value)` pairs in unspecified order.  Guided by
    /// the control bytes, so iteration reads `O(len)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.iter_hashed().map(|(_, k, v)| (k, v))
    }

    /// Iterates over `(stored hash, key, value)` triples in unspecified
    /// order.  The stored hash is the one the entry was inserted under —
    /// callers merging one table into another reuse it instead of
    /// re-hashing the key (the hash-once contract applied to table-to-table
    /// traffic, e.g. ring-value addition).
    ///
    /// A named, SWAR-chunked iterator: control bytes are consumed one
    /// *word* (eight slots) at a time and empty groups are skipped with a
    /// single compare, so walking a sparse table costs `O(capacity / 8)`
    /// word reads plus `O(len)` entry reads — and callers can store the
    /// iterator inline (no boxing) inside their own iterator types.
    pub fn iter_hashed(&self) -> IterHashed<'_, K, V> {
        IterHashed {
            table: self,
            base: 0,
            mask: 0,
        }
    }

    /// Ensures a free slot exists, growing or compacting when the load
    /// factor (live + tombstones) would exceed 3/4 of the slot capacity.
    fn reserve_one(&mut self) {
        let cap = self.capacity();
        if cap == 0 {
            self.rehash(MIN_CAP);
            self.rehashes = 0; // initial allocation is not a rehash
            return;
        }
        if (self.len + self.tombstones + 1) * 4 > cap * 3 {
            // Grow only if the *live* entries justify it; otherwise rehash
            // at the same size, which clears the tombstones.
            let new_cap = if (self.len + 1) * 4 > cap * 2 { cap * 2 } else { cap };
            self.rehash(new_cap);
        }
    }

    /// Re-buckets every entry into a table of `new_cap` slots using the
    /// stored hashes.  Entries move bitwise — no clone, no re-hash.
    fn rehash(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap >= MIN_CAP);
        self.rehashes += 1;
        let old_ctrl = std::mem::replace(
            &mut self.ctrl,
            vec![CTRL_EMPTY; new_cap.max(GROUP)].into_boxed_slice(),
        );
        let old_hashes = std::mem::replace(
            &mut self.hashes,
            vec![0u64; new_cap].into_boxed_slice(),
        );
        let old_entries = std::mem::replace(&mut self.entries, uninit_entries(new_cap));
        self.tombstones = 0;
        let gmask = self.ctrl.len() / GROUP - 1;
        Self::for_each_live(&old_ctrl, |i| {
            let hash = old_hashes[i];
            // Move out of the old array; `old_entries` is dropped as a
            // plain uninitialized box afterwards, so this is the only read.
            let entry = unsafe { old_entries[i].assume_init_read() };
            let mut g = (hash as usize) & gmask;
            let mut step = 0;
            loop {
                let word = load_group(&self.ctrl, g);
                let empties = match_bytes(word, CTRL_EMPTY);
                if empties != 0 {
                    let i = g * GROUP + (empties.trailing_zeros() as usize) / 8;
                    self.ctrl[i] = h2(hash);
                    self.hashes[i] = hash;
                    self.entries[i].write(entry);
                    break;
                }
                step += 1;
                g = (g + step) & gmask;
            }
        });
    }
}

impl<K, V> Drop for RawTable<K, V> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<(K, V)>() && self.len > 0 {
            // No dead-marking needed here (unlike `clear`): if an entry's
            // `Drop` unwinds, this body does not run again — the field
            // boxes drop as plain (uninitialized) storage — so already
            // visited slots cannot be dropped twice; the unvisited rest
            // leaks, which is the standard collection contract.
            let RawTable { ctrl, entries, .. } = self;
            Self::for_each_live(ctrl, |i| unsafe { entries[i].assume_init_drop() });
        }
    }
}

impl<K: Eq, V> RawTable<K, V> {
    /// The value stored under `key`, if present.
    #[inline]
    pub fn get(&self, hash: u64, key: &K) -> Option<&V> {
        self.find(hash, |k, _| k == key).map(|(_, v)| v)
    }

    /// Mutable variant of [`RawTable::get`].
    #[inline]
    pub fn get_mut(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        self.find_mut(hash, |k, _| k == key).map(|(_, v)| v)
    }

    /// Removes `key`'s entry, returning its value.
    pub fn remove(&mut self, hash: u64, key: &K) -> Option<V> {
        self.remove_with(hash, |k, _| k == key).map(|(_, v)| v)
    }
}

/// Iterator over `(stored hash, key, value)` triples of a [`RawTable`];
/// see [`RawTable::iter_hashed`].
pub struct IterHashed<'a, K, V> {
    table: &'a RawTable<K, V>,
    /// Slot index of the first slot of the next unread control word.
    base: usize,
    /// Per-byte high-bit mask of still-unvisited live slots in the word
    /// *before* `base` (little-endian: `trailing_zeros / 8` is the
    /// in-word slot offset).
    mask: u64,
}

impl<'a, K, V> Iterator for IterHashed<'a, K, V> {
    type Item = (u64, &'a K, &'a V);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.mask != 0 {
                let off = (self.mask.trailing_zeros() as usize) / 8;
                self.mask &= self.mask - 1;
                let i = self.base - GROUP + off;
                // Live per the mask (control high bit clear) — the storage
                // invariant guarantees the hash and entry are initialized.
                let (k, v) = unsafe { self.table.entry_ref(i) };
                return Some((self.table.hashes[i], k, v));
            }
            let ctrl = &self.table.ctrl;
            while self.base + GROUP <= ctrl.len() {
                let word = u64::from_le_bytes(
                    ctrl[self.base..self.base + GROUP]
                        .try_into()
                        .expect("8-byte chunk"),
                );
                self.base += GROUP;
                // Live slots have the control high bit clear.
                let live = !word & 0x8080_8080_8080_8080;
                if live != 0 {
                    self.mask = live;
                    break;
                }
            }
            if self.mask == 0 {
                // The control array length is a multiple of GROUP, so the
                // word walk is exhaustive.
                return None;
            }
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for RawTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Clone, V: Clone> Clone for RawTable<K, V> {
    fn clone(&self) -> Self {
        let mut entries = uninit_entries(self.capacity());
        Self::for_each_live(&self.ctrl, |i| {
            // A panicking K/V clone leaks the already-cloned prefix (the
            // fresh box drops as uninitialized storage) — safe, and the
            // workspace's key/value clones do not panic.
            entries[i].write(unsafe { self.entry_ref(i) }.clone());
        });
        RawTable {
            ctrl: self.ctrl.clone(),
            hashes: self.hashes.clone(),
            entries,
            len: self.len,
            tombstones: self.tombstones,
            rehashes: self.rehashes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash_words;

    fn h(k: u64) -> u64 {
        fx_hash_words(&[k])
    }

    /// Control words written by table clears on this thread so far.
    fn words_wiped() -> u64 {
        CTRL_WORDS_WIPED.with(|c| c.get())
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: RawTable<u64, String> = RawTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(h(1), &1), None);
        t.insert(h(1), 1, "one".into());
        t.insert(h(2), 2, "two".into());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(h(1), &1).map(String::as_str), Some("one"));
        assert_eq!(t.get(h(3), &3), None);
        *t.get_mut(h(2), &2).unwrap() = "TWO".into();
        assert_eq!(t.remove(h(2), &2).as_deref(), Some("TWO"));
        assert_eq!(t.remove(h(2), &2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_keeps_all_entries_and_counts_rehashes() {
        let mut t: RawTable<u64, u64> = RawTable::new();
        for k in 0..10_000u64 {
            t.insert(h(k), k, k * 3);
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.rehashes() > 0, "growth to 10k entries must rehash");
        for k in 0..10_000u64 {
            assert_eq!(t.get(h(k), &k), Some(&(k * 3)));
        }
        assert!(t.capacity().is_power_of_two());
    }

    #[test]
    fn small_tables_start_tiny_and_grow() {
        // The first insert allocates MIN_CAP slots, not a full group: a
        // singleton relation costs a right-sized few dozen bytes.
        let mut t: RawTable<u64, u64> = RawTable::new();
        assert_eq!(t.allocated_bytes(), 0);
        t.insert(h(7), 7, 7);
        assert_eq!(t.capacity(), MIN_CAP);
        let singleton_bytes = t.allocated_bytes();
        assert!(
            singleton_bytes <= GROUP + MIN_CAP * (8 + std::mem::size_of::<(u64, u64)>()),
            "singleton table too large: {singleton_bytes} bytes"
        );
        // Sub-group capacities stay probe-able and grow through 4 to 8.
        for k in 0..20u64 {
            match t.probe(h(k), |key, _| *key == k) {
                Probe::Found(idx) => *t.value_at_mut(idx) += 1,
                Probe::Vacant(idx) => t.occupy(idx, h(k), k, k),
            }
        }
        assert_eq!(t.len(), 20);
        for k in 0..20u64 {
            assert!(t.get(h(k), &k).is_some(), "key {k} lost across sub-group growth");
        }
        assert!(t.capacity() >= 20);
    }

    #[test]
    fn allocated_bytes_tracks_capacity() {
        let t: RawTable<u64, u64> = RawTable::with_capacity(100);
        let cap = t.capacity();
        assert_eq!(
            t.allocated_bytes(),
            cap.max(GROUP) + cap * 8 + cap * std::mem::size_of::<(u64, u64)>()
        );
    }

    #[test]
    fn drain_into_empties_but_keeps_capacity() {
        let mut t: RawTable<u64, u64> = RawTable::new();
        for k in 0..100 {
            t.insert(h(k), k, k);
        }
        let cap = t.capacity();
        let mut out = Vec::new();
        t.drain_into(&mut out);
        assert_eq!(out.len(), 100);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        // Drained entries carry their stored hash.
        assert!(out.iter().all(|(hash, k, _)| *hash == h(*k)));
        t.insert(h(7), 7, 7);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn retain_and_clear() {
        let mut t: RawTable<u64, u64> = RawTable::new();
        for k in 0..50 {
            t.insert(h(k), k, k);
        }
        t.retain(|k, _| k % 2 == 0);
        assert_eq!(t.len(), 25);
        assert_eq!(t.get(h(3), &3), None);
        assert_eq!(t.get(h(4), &4), Some(&4));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn sparse_clear_writes_only_dirty_ctrl_words() {
        // The pooled-scratch shape: a large-capacity table holding a
        // handful of entries.  Clearing it must rewrite only the control
        // words those entries dirtied, not the whole control array.
        let mut t: RawTable<u64, u64> = RawTable::with_capacity(4096);
        let total_words = (t.capacity() / GROUP) as u64;
        for k in 0..4u64 {
            t.insert(h(k), k, k);
        }
        let before = words_wiped();
        t.clear();
        let wiped = words_wiped() - before;
        assert!(t.is_empty());
        assert!(
            wiped <= 4,
            "sparse clear rewrote {wiped} control words for 4 entries"
        );
        assert!(wiped >= 1, "a dirty table must wipe at least one word");
        assert!(wiped < total_words, "sparse clear must not touch every word");

        // A clean table's clear is O(1): no words written at all.
        let before = words_wiped();
        t.clear();
        assert_eq!(words_wiped() - before, 0, "clean clear must be a no-op");

        // A dense table takes the bulk fill (all words, one pass).
        let mut dense: RawTable<u64, u64> = RawTable::new();
        for k in 0..1000u64 {
            dense.insert(h(k), k, k);
        }
        let dense_words = (dense.capacity().max(GROUP) / GROUP) as u64;
        let before = words_wiped();
        dense.clear();
        assert_eq!(words_wiped() - before, dense_words);

        // drain_into takes the same sparse path.
        let mut t: RawTable<u64, u64> = RawTable::with_capacity(4096);
        for k in 0..4u64 {
            t.insert(h(k), k, k);
        }
        let mut out = Vec::new();
        let before = words_wiped();
        t.drain_into(&mut out);
        assert_eq!(out.len(), 4);
        assert!(
            words_wiped() - before <= 4,
            "sparse drain rewrote too many control words"
        );
    }

    #[test]
    fn probe_occupy_upsert_in_one_walk() {
        let mut t: RawTable<u64, u64> = RawTable::new();
        for k in 0..200u64 {
            match t.probe(h(k), |key, _| *key == k) {
                Probe::Found(_) => panic!("fresh key reported found"),
                Probe::Vacant(idx) => t.occupy(idx, h(k), k, k * 2),
            }
        }
        assert_eq!(t.len(), 200);
        for k in 0..200u64 {
            match t.probe(h(k), |key, _| *key == k) {
                Probe::Found(idx) => {
                    assert_eq!(t.at(idx), (&k, &(k * 2)));
                    *t.value_at_mut(idx) += 1;
                }
                Probe::Vacant(_) => panic!("stored key reported vacant"),
            }
        }
        assert_eq!(t.get(h(9), &9), Some(&19));
        // remove_at via probe, then the freed slot is reused by occupy.
        let Probe::Found(idx) = t.probe(h(9), |key, _| *key == 9) else {
            panic!("expected hit");
        };
        assert_eq!(t.remove_at(idx), Some((9, 19)));
        assert_eq!(t.get(h(9), &9), None);
        let Probe::Vacant(idx) = t.probe(h(9), |key, _| *key == 9) else {
            panic!("expected vacancy");
        };
        t.occupy(idx, h(9), 9, 0);
        assert_eq!(t.get(h(9), &9), Some(&0));
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn find_idx_is_stable_between_mutations() {
        let mut t: RawTable<u64, u64> = RawTable::with_capacity(64);
        for k in 0..20 {
            t.insert(h(k), k, k);
        }
        let idx = t.find_idx(h(11), |k, _| *k == 11).unwrap();
        assert_eq!(t.at(idx), (&11, &11));
        *t.value_at_mut(idx) = 99;
        assert_eq!(t.get(h(11), &11), Some(&99));
    }

    #[test]
    fn drop_and_clone_handle_owned_entries() {
        // Drop-heavy keys and values (boxed slices, strings) across clone,
        // retain, clear and plain drop — miri-style churn for the unsafe
        // storage; the full drop-count accounting lives in
        // `tests/rawtable_differential.rs`.
        let mut t: RawTable<Box<[u64]>, String> = RawTable::new();
        for k in 0..64u64 {
            t.insert(h(k), vec![k, k + 1].into_boxed_slice(), format!("v{k}"));
        }
        let c = t.clone();
        assert_eq!(c.len(), 64);
        for k in 0..64u64 {
            let key: Box<[u64]> = vec![k, k + 1].into_boxed_slice();
            assert_eq!(c.get(h(k), &key).map(String::as_str), Some(&*format!("v{k}")));
        }
        t.retain(|k, _| k[0] % 2 == 0);
        assert_eq!(t.len(), 32);
        t.clear();
        assert!(t.is_empty());
        drop(c);
    }
}
