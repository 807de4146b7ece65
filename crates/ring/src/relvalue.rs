//! The relation ring: relations as ring values.
//!
//! A [`RelValue`] is a (small) relation mapping tuples of categorical values
//! to real weights.  Addition is union with summed weights; multiplication is
//! natural join with multiplied weights; the empty relation is `0`; the
//! relation containing only the empty tuple with weight 1 is `1`.
//!
//! Keys are sorted `(attribute id, value)` pairs so the join is schema-aware
//! without threading schemas through ring operations: shared attributes must
//! match, the remaining attributes are concatenated in attribute order.
//!
//! # Storage: inline singleton, small vector, hash-once table
//!
//! Most relations the engine ever holds have **one** entry: a single joined
//! tuple contributes one key to every categorical component of a
//! generalized-cofactor payload, and fact-grain views keep one tuple per
//! view key.  Most of the rest have a handful.  The interior therefore has
//! four shapes, chosen by the number of distinct keys and by nothing else:
//!
//! * `Empty` — the zero relation;
//! * `One(hash, key, weight)` — a one-entry relation stored **inline** in
//!   the value itself: no heap, and the key's hash is kept beside it so the
//!   entry can move into a vector, a table, another relation or a snapshot
//!   without being hashed again;
//! * `Small` — one vector of `(hash, key, weight)` entries in arrival
//!   order, from 2 entries up to `SMALL_MAX_BYTES` of them (eight 48-byte
//!   entries): one allocation, searched linearly with the stored
//!   hash compared first — at this size the scan needs no probe structure,
//!   so the table's box, control bytes and hash array go;
//! * `Table` — a boxed [`RawTable`] keyed by [`RelKey`], the same
//!   dictionary-encoded flat-word keys and caller-hashed open addressing
//!   the view layer uses (ROADMAP "hash-once" contract).
//!
//! The second distinct key promotes `One` to `Small`; the first key past
//! the byte budget moves a full `Small` into a `Table`, re-bucketed from
//! the stored hashes.  Neither demotes in place — a vector or table that
//! cancels down to a single entry, or to none, keeps its shape, so a pooled
//! delta payload keeps its buffers — but every *rebuild* ([`Clone`],
//! [`RelValue::from_hashed_entries`], scaling, rekeying) sizes by `len` and
//! so picks the smallest shape again.  Removal from `Small` shifts the
//! later entries down, so its entries always read in arrival order.  The
//! shape is unobservable through the ring API: `is_zero`, equality,
//! iteration contents and the bits of every weight are those of the
//! relation, whatever holds it.
//!
//! The hash-once rules hold in every shape:
//!
//! * a key is hashed exactly once, when it is constructed (lift, join
//!   merge, or rebuild); every upsert, lookup and relation-to-relation copy
//!   reuses that hash ([`RelValue::iter_hashed`] carries stored hashes, so
//!   `add_assign` never re-hashes the right-hand side);
//! * string categories are dictionary ids (interned through the engine's
//!   [`crate::RingCtx`] at lift time), so hashing and equality are word
//!   compares with no `Arc` traffic;
//! * exact cancellation removes the key immediately, keeping
//!   [`Ring::is_zero`] exact as the in-place contract requires.  In a
//!   vector the later entries shift down; in a table the freed slot goes
//!   back to `EMPTY` under the swiss-table deletion rule (see
//!   [`fivm_common::table`]), so cancel-and-refill churn never triggers a
//!   compaction rehash.
//!
//! `RelValue` is used in two places:
//!
//! * on its own, it is the ring of the paper's *factorized conjunctive query
//!   evaluation*: maintaining the query with `RelValue` payloads maintains a
//!   (listing of the) join result,
//! * as the scalar type of the generalized cofactor ring
//!   ([`crate::GenCofactor`]) that handles categorical attributes and the
//!   mutual-information matrix.
//!
//! The boxed-`Value` representation this module replaces survives as
//! `BoxedRelValue` in `crates/ring/tests/support/boxed.rs`, the reference
//! implementation of the differential suite (`relvalue_differential.rs`).

use crate::relkey::{RelKey, INLINE_PAIRS};
use crate::ring::{approx_f64, ApproxEq, Ring};
use fivm_common::table::IterHashed;
use fivm_common::{Dict, EncodedValue, Probe, RawTable, Value, VarId};
use std::borrow::Cow;

/// One decoded relation entry: `(attr, Value)` pairs plus the weight — the
/// output-boundary form of a [`RelValue`] entry.
pub type DecodedRelEntry = (Box<[(u32, Value)]>, f64);

/// Largest interior-table footprint, in **bytes** of table allocation
/// ([`RelValue::allocated_bytes`]), that [`Ring::reset_zero`] keeps alive
/// for buffer reuse; anything bigger is released.
///
/// The threshold is deliberately a byte budget, not a slot or entry count:
/// the point of the pool hygiene is bounding how much *memory* a recycled
/// payload can drag into a tiny delta (where iteration and cloning pay for
/// the retained capacity), and bytes are the unit that survives layout
/// changes.  8 KiB keeps every table up to 128 slots of the current
/// 48-byte `RelKey`/`f64` slot layout — roughly the "up to ~96 live
/// entries" regime the old entry-count intent described, without the old
/// bug of comparing a *slot* count against an *entry* budget (which
/// dropped buffers from ~49 live entries on, because 64 entries already
/// need 128 slots).  The keep/release boundary is pinned by
/// `reset_zero_pools_by_bytes` below.
const POOL_KEEP_BYTES: usize = 8 * 1024;

/// Largest `Small` interior, in **bytes** of its entry vector
/// ([`RelValue::allocated_bytes`]); a relation whose entries would need
/// more lives in a table.  384 B is eight 48-byte `(hash, RelKey, f64)`
/// entries — a short scan of stored hashes, in one allocation where a
/// table makes four.  A byte budget, like every threshold of the
/// memory contract, so it survives a change of entry size.
const SMALL_MAX_BYTES: usize = 384;

/// One stored entry: `(stored hash, key, weight)`.
type Entry = (u64, RelKey, f64);

/// Most entries a `Small` interior may hold — derived from
/// [`SMALL_MAX_BYTES`], never set on its own.
const SMALL_MAX_LEN: usize = SMALL_MAX_BYTES / std::mem::size_of::<Entry>();

/// The table shape of a relation's interior.
type Table = RawTable<RelKey, f64>;

/// The interior of a [`RelValue`]; see the module docs for the four
/// shapes and when each is chosen.
#[derive(Debug, Default)]
enum Repr {
    /// No entries.
    #[default]
    Empty,
    /// Exactly one entry, `(stored hash, key, weight)`, held inline.  The
    /// weight is never `0.0` (cancellation turns the value `Empty`).
    One(u64, RelKey, f64),
    /// Up to [`SMALL_MAX_LEN`] entries in arrival order, in a vector whose
    /// capacity never exceeds that (a vector that shrank stays a vector).
    Small(Vec<Entry>),
    /// Any number of entries (a table that shrank stays a table).
    Table(Box<Table>),
}

/// A relation-valued ring element with a hash-once encoded interior.
#[derive(Debug, Default)]
pub struct RelValue {
    repr: Repr,
}

// A `GenCofactor` payload's component list is a vector of these and most
// of them hold one entry, so the inline shape must stay within the header a
// boxed table used to cost (72 bytes before the inline singleton); growing
// the key or the entry must revisit the `One` variant first.
const _: () = assert!(std::mem::size_of::<RelValue>() <= 56);

impl Clone for RelValue {
    /// Clones are **right-sized**: the copy is rebuilt in the shape its
    /// entries need (inline for at most one entry, else a vector or table of
    /// `len` capacity filled from stored hashes — nothing is re-hashed), so
    /// materialized copies — view payloads cloned from scratch deltas,
    /// result snapshots — never inherit the working capacity of the buffer
    /// they were accumulated in.
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Empty => RelValue::empty(),
            Repr::One(h, k, w) => RelValue {
                repr: Repr::One(*h, k.clone(), *w),
            },
            Repr::Small(_) | Repr::Table(_) => {
                let mut out = RelValue::sized_for(self.len());
                for (h, k, w) in self.iter_hashed() {
                    out.insert_new(h, k.clone(), w);
                }
                out
            }
        }
    }
}

/// Iterator over the `(stored hash, key, weight)` entries of a
/// [`RelValue`]; see [`RelValue::iter_hashed`].
pub struct HashedEntries<'a>(EntriesRepr<'a>);

enum EntriesRepr<'a> {
    /// The inline shapes: at most one entry left to yield.
    Inline(Option<(u64, &'a RelKey, f64)>),
    Small(std::slice::Iter<'a, Entry>),
    Table(IterHashed<'a, RelKey, f64>),
}

impl<'a> Iterator for HashedEntries<'a> {
    type Item = (u64, &'a RelKey, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            EntriesRepr::Inline(entry) => entry.take(),
            EntriesRepr::Small(it) => it.next().map(|(h, k, w)| (*h, k, *w)),
            EntriesRepr::Table(it) => it.next().map(|(h, k, &w)| (h, k, w)),
        }
    }
}

impl RelValue {
    /// The empty relation (ring zero).  Allocation-free, and usable in a
    /// `static` (the generalized cofactor ring hands out one for every
    /// component it does not store).
    pub const fn empty() -> Self {
        RelValue { repr: Repr::Empty }
    }

    /// An empty relation right-sized for `len` distinct keys to be stored
    /// with [`RelValue::insert_new`]: nothing up front for the inline
    /// shapes, a vector or table that takes `len` inserts without growing
    /// otherwise.
    fn sized_for(len: usize) -> Self {
        let repr = if len <= 1 {
            Repr::Empty
        } else if len <= SMALL_MAX_LEN {
            Repr::Small(Vec::with_capacity(len))
        } else {
            Repr::Table(Box::new(RawTable::with_capacity(len)))
        };
        RelValue { repr }
    }

    /// The relation `{() -> w}` over the empty schema.  `scalar(0.0)` is the
    /// zero element; no weight allocates (a one-entry relation is inline).
    pub fn scalar(w: f64) -> Self {
        let mut out = RelValue::empty();
        out.add_entry(&RelKey::empty(), w);
        out
    }

    /// The indicator relation `{(attr = value) -> 1}` used to one-hot encode
    /// a categorical value.
    pub fn indicator(attr: VarId, value: EncodedValue) -> Self {
        Self::weighted(attr, value, 1.0)
    }

    /// The singleton relation `{(attr = value) -> w}`.  `weighted(.., 0.0)`
    /// is the zero element; no weight allocates.
    pub fn weighted(attr: VarId, value: EncodedValue, w: f64) -> Self {
        let mut out = RelValue::empty();
        out.add_entry(&RelKey::singleton(attr as u32, value), w);
        out
    }

    /// Builds a relation from `(pairs, weight)` entries; pairs need not be
    /// sorted.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Vec<(u32, EncodedValue)>, f64)>,
    {
        let mut out = RelValue::empty();
        for (mut pairs, w) in entries {
            out.add_entry(&RelKey::from_pairs(&mut pairs), w);
        }
        out
    }

    /// Number of tuples with non-zero weight.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::One(..) => 1,
            Repr::Small(v) => v.len(),
            Repr::Table(t) => t.len(),
        }
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Weight of the empty tuple (the "scalar part"), or 0.
    pub fn scalar_part(&self) -> f64 {
        self.get_key(&RelKey::empty())
    }

    /// Removes the empty-tuple entry and returns its weight (0 if absent).
    /// This is the *split* step of the generalized-cofactor decode path:
    /// [`crate::GenCofactorElem`] stores continuous (empty-key) mass in
    /// dense scalar fields, with the invariant that its interior relations
    /// never contain the empty key.
    pub fn take_scalar_part(&mut self) -> f64 {
        let key = RelKey::empty();
        let hash = key.fx_hash();
        match &mut self.repr {
            Repr::One(h, k, w) if *h == hash && *k == key => {
                let w = *w;
                self.repr = Repr::Empty;
                w
            }
            Repr::Small(v) => match small_position(v, hash, &key) {
                Some(i) => v.remove(i).2,
                None => 0.0,
            },
            Repr::Table(t) => t.remove(hash, &key).unwrap_or(0.0),
            Repr::Empty | Repr::One(..) => 0.0,
        }
    }

    /// The weight stored under `key`, whose hash the caller supplies.
    #[inline]
    fn find(&self, hash: u64, key: &RelKey) -> Option<f64> {
        match &self.repr {
            Repr::Empty => None,
            Repr::One(h, k, w) => (*h == hash && k == key).then_some(*w),
            Repr::Small(v) => small_position(v, hash, key).map(|i| v[i].2),
            Repr::Table(t) => t.get(hash, key).copied(),
        }
    }

    /// Weight of a specific key, or 0 if absent.
    pub fn get_key(&self, key: &RelKey) -> f64 {
        self.find(key.fx_hash(), key).unwrap_or(0.0)
    }

    /// Weight of the key given as (unsorted) encoded pairs, or 0 if absent.
    /// Keys of up to `INLINE_PAIRS` pairs — every COVAR/MI key — are sorted
    /// in a stack copy, so a lookup allocates nothing.
    pub fn get(&self, pairs: &[(u32, EncodedValue)]) -> f64 {
        if pairs.len() <= INLINE_PAIRS {
            let mut stack = [(0u32, EncodedValue::NULL); INLINE_PAIRS];
            let stack = &mut stack[..pairs.len()];
            stack.copy_from_slice(pairs);
            self.get_key(&RelKey::from_pairs(stack))
        } else {
            let mut pairs = pairs.to_vec();
            self.get_key(&RelKey::from_pairs(&mut pairs))
        }
    }

    /// Weight of a `Value`-level key (output boundary: encodes through the
    /// dictionary without interning; an unseen string means the key cannot
    /// be stored, so its weight is 0).
    pub fn get_values(&self, dict: &Dict, pairs: &[(u32, Value)]) -> f64 {
        let mut encoded = Vec::with_capacity(pairs.len());
        for (attr, v) in pairs {
            match dict.try_encode_value(v) {
                Some(ev) => encoded.push((*attr, ev)),
                None => return 0.0,
            }
        }
        self.get_key(&RelKey::from_pairs(&mut encoded))
    }

    /// Iterates over `(key, weight)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&RelKey, f64)> + '_ {
        self.iter_hashed().map(|(_, k, w)| (k, w))
    }

    /// Iterates `(stored hash, key, weight)` entries in unspecified order.
    /// The hash is the one the key was inserted under — relation-to-relation
    /// traffic (`add_scaled`, clones, rebuilds) and the snapshot encoder
    /// (`fivm_ring::persist`) carry it along, so no key is ever hashed
    /// twice and a restore re-buckets without hashing anything.
    pub fn iter_hashed(&self) -> HashedEntries<'_> {
        HashedEntries(match &self.repr {
            Repr::Empty => EntriesRepr::Inline(None),
            Repr::One(h, k, w) => EntriesRepr::Inline(Some((*h, k, *w))),
            Repr::Small(v) => EntriesRepr::Small(v.iter()),
            Repr::Table(t) => EntriesRepr::Table(t.iter_hashed()),
        })
    }

    /// Rebuilds a relation from `(stored hash, key, weight)` entries with
    /// distinct keys — the snapshot-restore constructor.  Like [`Clone`],
    /// the interior is right-sized up front by `len`: at most one entry
    /// stays inline, more go into a table sized for `len`
    /// ([`RawTable::with_capacity`]), so inserting the entries performs
    /// **zero** growth rehashes and the restored value reports
    /// `table_rehashes() == 0`, keeping the ring half of the "rehashes
    /// pinned to 0" contract intact across a restart.
    pub fn from_hashed_entries<I>(len: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, RelKey, f64)>,
    {
        let mut out = RelValue::sized_for(len);
        for (h, k, w) in entries {
            if w != 0.0 {
                out.insert_new(h, k, w);
            }
        }
        out
    }

    /// Sum of all weights (the count aggregate if weights are counts).
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, w)| w).sum()
    }

    /// Decodes every entry into owned `(attr, Value)` pairs, sorted by key —
    /// the canonical output-boundary listing (stable across dictionaries,
    /// so it is also how cross-engine results are compared).
    pub fn decode_entries(&self, dict: &Dict) -> Vec<DecodedRelEntry> {
        let mut out: Vec<DecodedRelEntry> =
            self.iter().map(|(k, w)| (k.decode(dict), w)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Rehash (growth/compaction) events of the interior table (0 for the
    /// other shapes, which have none); the ring half of the steady-state
    /// "rehashes pinned to 0" contract.
    pub fn table_rehashes(&self) -> u64 {
        match &self.repr {
            Repr::Table(t) => t.rehashes(),
            Repr::Empty | Repr::One(..) | Repr::Small(_) => 0,
        }
    }

    /// Heap bytes this relation owns: the `Small` entry vector at its
    /// capacity, or the boxed table header plus the table's arrays (control
    /// bytes, stored hashes, `(RelKey, f64)` slots), and **0** for the
    /// inline shapes — their bytes are the `size_of::<RelValue>()` the
    /// holder already accounts for (a `GenCofactor` counts its component
    /// list at capacity).  Boxes spilled by wide (≥ 3-pair) keys are *not*
    /// counted — they are owned by the keys, and every key of the COVAR/MI
    /// workloads is slot-inline (see `crate::relkey`).  This is the
    /// `RelValue` leaf of the engine-wide byte rollup (`Ring::payload_bytes`
    /// → `MaterializedView::table_bytes` → `EngineStats::table_bytes`).
    pub fn allocated_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.capacity() * std::mem::size_of::<Entry>(),
            Repr::Table(t) => std::mem::size_of::<Table>() + t.allocated_bytes(),
            Repr::Empty | Repr::One(..) => 0,
        }
    }

    /// Stores an entry whose key is known to be absent — a confirmed upsert
    /// miss, or the rebuild paths (clone, restore, scaling, rekeying), which
    /// copy distinct keys.  A vector grows by doubling up to the byte
    /// budget and spills into a table past it.
    fn insert_new(&mut self, hash: u64, key: RelKey, w: f64) {
        match &mut self.repr {
            Repr::Empty => self.repr = Repr::One(hash, key, w),
            Repr::One(..) => self.promote(hash, key, w),
            Repr::Small(v) if v.len() < SMALL_MAX_LEN => {
                if v.len() == v.capacity() {
                    let grown = (2 * v.len()).min(SMALL_MAX_LEN);
                    v.reserve_exact(grown - v.len());
                }
                v.push((hash, key, w));
            }
            Repr::Small(_) => self.spill(hash, key, w),
            Repr::Table(t) => t.insert(hash, key, w),
        }
    }

    /// The second distinct key: moves the inline entry and the new one into
    /// a vector (one allocation; both keep their stored hashes).  The vector
    /// has room for four: a relation that gains keys in place is an
    /// accumulator and usually keeps gaining them (on the Favorita churn of
    /// `profile_hotpath --favorita`, room for two cost 1.7 more allocations
    /// per updated row under gen-COVAR, 2.2 under MI), while every copy of
    /// it is rebuilt at its length anyway.
    fn promote(&mut self, hash: u64, key: RelKey, w: f64) {
        let Repr::One(h0, k0, w0) = std::mem::take(&mut self.repr) else {
            unreachable!("only the inline singleton promotes");
        };
        let mut v = Vec::with_capacity(4);
        v.push((h0, k0, w0));
        v.push((hash, key, w));
        self.repr = Repr::Small(v);
    }

    /// The first key past the byte budget: moves a full vector and the new
    /// entry into a table sized for them, bucketed by the stored hashes.
    fn spill(&mut self, hash: u64, key: RelKey, w: f64) {
        let Repr::Small(v) = std::mem::take(&mut self.repr) else {
            unreachable!("only a full vector spills");
        };
        let mut table = RawTable::with_capacity(v.len() + 1);
        for (h, k, x) in v {
            table.insert(h, k, x);
        }
        table.insert(hash, key, w);
        self.repr = Repr::Table(Box::new(table));
    }

    /// Accumulates `w` under a key whose hash is already computed, pruning
    /// the key on exact cancellation.  A borrowed key is cloned only when
    /// it has to be stored.
    ///
    /// In a table the hit path runs [`RawTable::find_idx`], which never
    /// reserves: accumulating into existing keys — the steady-state regime
    /// — must not trigger table growth even when the table sits at the
    /// load-factor boundary ([`RawTable::probe`] reserves up front, because
    /// its vacant slot must stay valid, so it runs on a confirmed miss
    /// only).
    #[inline]
    fn upsert(&mut self, hash: u64, key: Cow<'_, RelKey>, w: f64) {
        if w == 0.0 {
            return;
        }
        match &mut self.repr {
            Repr::Empty => self.repr = Repr::One(hash, key.into_owned(), w),
            Repr::One(h, k, slot) => {
                if *h == hash && *k == *key {
                    *slot += w;
                    if *slot == 0.0 {
                        self.repr = Repr::Empty;
                    }
                } else {
                    self.promote(hash, key.into_owned(), w);
                }
            }
            Repr::Small(v) => match small_position(v, hash, &key) {
                Some(i) => {
                    let slot = &mut v[i].2;
                    *slot += w;
                    if *slot == 0.0 {
                        v.remove(i);
                    }
                }
                None => self.insert_new(hash, key.into_owned(), w),
            },
            Repr::Table(t) => {
                if let Some(idx) = t.find_idx(hash, |k, _| *k == *key) {
                    let slot = t.value_at_mut(idx);
                    *slot += w;
                    if *slot == 0.0 {
                        t.remove_at(idx);
                    }
                    return;
                }
                match t.probe(hash, |k, _| *k == *key) {
                    Probe::Vacant(idx) => t.occupy(idx, hash, key.into_owned(), w),
                    Probe::Found(_) => unreachable!("key was just absent"),
                }
            }
        }
    }

    /// Accumulates `w` under `key`, hashing the key once.
    pub fn add_entry(&mut self, key: &RelKey, w: f64) {
        self.upsert(key.fx_hash(), Cow::Borrowed(key), w);
    }

    /// Accumulates `w` under a key whose hash the caller already computed —
    /// the hash-once primitive behind the sparse-lift accumulators, which
    /// touch several component relations with one key.
    pub fn add_entry_prehashed(&mut self, hash: u64, key: &RelKey, w: f64) {
        debug_assert_eq!(hash, key.fx_hash(), "prehashed key/hash mismatch");
        self.upsert(hash, Cow::Borrowed(key), w);
    }

    /// Removes every entry; a vector or table keeps its allocation.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Small(v) => v.clear(),
            Repr::Table(t) => t.clear(),
            Repr::Empty | Repr::One(..) => self.repr = Repr::Empty,
        }
    }

    /// `self += k * other`, reusing `other`'s stored hashes (no key is
    /// re-hashed) and pruning exactly cancelled keys so [`Ring::is_zero`]
    /// stays exact.
    pub fn add_scaled(&mut self, other: &RelValue, k: f64) {
        if k == 0.0 {
            return;
        }
        for (hash, key, w) in other.iter_hashed() {
            self.upsert(hash, Cow::Borrowed(key), k * w);
        }
    }

    /// `self += k * (a ⋈ b)` — the fused multiply-add on the relation
    /// ring, accumulating the weighted join directly into `self` without
    /// materializing the product relation.  Merged keys are gathered by
    /// word copies and hashed exactly once each.
    pub fn add_product_scaled(&mut self, a: &RelValue, b: &RelValue, k: f64) {
        if k == 0.0 || a.is_empty() || b.is_empty() {
            return;
        }
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        for (ka, wa) in small.iter() {
            for (kb, wb) in large.iter() {
                if let Some(key) = ka.join(kb) {
                    self.upsert(key.fx_hash(), Cow::Owned(key), k * wa * wb);
                }
            }
        }
    }

    /// `self += k * (acc ⋈ {attr = value})` — the singleton-lift fused
    /// accumulate behind categorical lifts and the relational listing lift.
    /// Joining with a singleton either extends a key by one pair (gathered
    /// copy-only for inline-sized keys) or filters on an already-bound
    /// attribute; nothing is materialized.
    pub fn fma_indicator(&mut self, acc: &RelValue, attr: u32, value: EncodedValue, k: f64) {
        if k == 0.0 {
            return;
        }
        for (hash, key, w) in acc.iter_hashed() {
            match key.get(attr) {
                // Attribute already bound: the join keeps or drops the key
                // unchanged — its stored hash is reused, nothing re-hashes.
                Some(bound) => {
                    if bound == value {
                        self.upsert(hash, Cow::Borrowed(key), k * w);
                    }
                }
                None => {
                    let merged = key
                        .join(&RelKey::singleton(attr, value))
                        .expect("disjoint attributes always join");
                    self.upsert(merged.fx_hash(), Cow::Owned(merged), k * w);
                }
            }
        }
    }

    /// Batch form of the singleton-lift accumulate for runs of
    /// **scalar-weight** accumulators: `self += Σ_i w_i · {attr = ev_i}` —
    /// one prehashed upsert per row, with the per-row lift dispatch and
    /// accumulator-table walk of [`RelValue::fma_indicator`] hoisted out of
    /// the loop.  Rows are applied in slice order, so per-key accumulation
    /// order matches the equivalent per-row sequence exactly.
    pub fn fma_indicator_weighted(&mut self, attr: u32, evs: &[EncodedValue], ws: &[f64]) {
        debug_assert_eq!(evs.len(), ws.len());
        for (&ev, &w) in evs.iter().zip(ws) {
            let key = RelKey::singleton(attr, ev);
            self.upsert(key.fx_hash(), Cow::Owned(key), w);
        }
    }

    pub(crate) fn map_weights(&self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = RelValue::sized_for(self.len());
        for (hash, k, w) in self.iter_hashed() {
            let nw = f(w);
            if nw != 0.0 {
                out.insert_new(hash, k.clone(), nw);
            }
        }
        out
    }

    /// Re-encodes every key from `src`'s dictionary into `dst`'s — the only
    /// sanctioned way to move a relation value between engines (string ids
    /// are dictionary-local; see the ring-key contract in ROADMAP.md).
    pub fn rekey_dicts(&self, src: &Dict, dst: &mut Dict) -> RelValue {
        let mut out = RelValue::sized_for(self.len());
        for (hash, k, w) in self.iter_hashed() {
            let nk = k.rekey(src, dst);
            // Int/double-only keys keep their words, hence their hash.
            let nh = if &nk == k { hash } else { nk.fx_hash() };
            out.insert_new(nh, nk, w);
        }
        out
    }
}

/// Position of `key` in a `Small` interior: a linear scan comparing the
/// stored hash first, so the key words are read only on a hash match.
#[inline]
fn small_position(v: &[Entry], hash: u64, key: &RelKey) -> Option<usize> {
    v.iter().position(|(h, k, _)| *h == hash && k == key)
}

impl PartialEq for RelValue {
    /// Equality of relations, whatever shape holds them: an inline
    /// singleton equals a one-entry vector or table with the same entry.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter_hashed()
                .all(|(h, k, w)| other.find(h, k) == Some(w))
    }
}

impl Ring for RelValue {
    fn zero() -> Self {
        RelValue::empty()
    }

    fn one() -> Self {
        RelValue::scalar(1.0)
    }

    fn is_zero(&self) -> bool {
        self.is_empty()
    }

    fn add(&self, rhs: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    fn add_assign(&mut self, rhs: &Self) {
        self.add_scaled(rhs, 1.0);
    }

    fn mul(&self, rhs: &Self) -> Self {
        let mut out = RelValue::empty();
        out.add_product_scaled(self, rhs, 1.0);
        out
    }

    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        out.clear();
        out.add_product_scaled(self, rhs, 1.0);
    }

    fn fma_scaled(&mut self, a: &Self, b: &Self, scale: i64) {
        self.add_product_scaled(a, b, scale as f64);
    }

    fn neg(&self) -> Self {
        self.map_weights(|w| -w)
    }

    fn scale_int(&self, k: i64) -> Self {
        if k == 0 {
            return RelValue::empty();
        }
        self.map_weights(|w| w * k as f64)
    }

    fn reset_zero(&mut self) {
        // Pool hygiene: small tables are kept (cleared) for reuse, but a
        // buffer that grew large (a root-level delta) is dropped — a
        // recycled payload may serve a tiny delta next, and iterating or
        // cloning it must not drag a root-sized capacity along.  The
        // threshold is a byte budget on the table allocation (see
        // [`POOL_KEEP_BYTES`]); a `Small` vector always fits it, and the
        // inline shapes own nothing to keep.
        if self.allocated_bytes() > POOL_KEEP_BYTES {
            self.repr = Repr::Empty;
        } else {
            self.clear();
        }
    }

    fn needs_rekey() -> bool {
        true
    }

    fn rekey(&self, src: &Dict, dst: &mut Dict) -> Self {
        self.rekey_dicts(src, dst)
    }

    fn payload_rehashes(&self) -> u64 {
        self.table_rehashes()
    }

    fn payload_bytes(&self) -> usize {
        self.allocated_bytes()
    }

    fn scalar_weight(&self) -> Option<f64> {
        // Scalar shapes: the empty relation (zero) and the single
        // empty-tuple entry `{() -> w}`.  Anything carrying a bound
        // attribute is more than a count and must take the per-row path.
        match self.len() {
            0 => Some(0.0),
            1 => {
                let (k, w) = self.iter().next().expect("len checked");
                (*k == RelKey::empty()).then_some(w)
            }
            _ => None,
        }
    }
}

impl ApproxEq for RelValue {
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        // Every key of either side must match approximately.
        let covers = |a: &RelValue, b: &RelValue| {
            a.iter_hashed()
                .all(|(h, k, w)| approx_f64(w, b.find(h, k).unwrap_or(0.0), tol))
        };
        covers(self, other) && covers(other, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms;
    use crate::ctx::RingCtx;

    fn ev(x: i64) -> EncodedValue {
        EncodedValue::int(x)
    }

    fn key(parts: &[(u32, i64)]) -> Vec<(u32, EncodedValue)> {
        parts.iter().map(|(a, v)| (*a, ev(*v))).collect()
    }

    #[test]
    fn scalar_and_indicator_construction() {
        let s = RelValue::scalar(3.0);
        assert_eq!(s.scalar_part(), 3.0);
        assert_eq!(s.len(), 1);
        assert!(RelValue::scalar(0.0).is_empty());
        assert!(RelValue::weighted(0, ev(1), 0.0).is_empty());

        let ctx = RingCtx::new();
        let red = ctx.encode_value(&Value::str("red"));
        let blue = ctx.encode_value(&Value::str("blue"));
        let ind = RelValue::indicator(2, red);
        assert_eq!(ind.get(&[(2, red)]), 1.0);
        assert_eq!(ind.get(&[(2, blue)]), 0.0);
        assert_eq!(ind.total(), 1.0);
        // The Value-level probe agrees and refuses to intern.
        ctx.with_dict(|d| {
            assert_eq!(ind.get_values(d, &[(2, Value::str("red"))]), 1.0);
            assert_eq!(ind.get_values(d, &[(2, Value::str("unseen"))]), 0.0);
        });
    }

    #[test]
    fn addition_is_union_with_summed_weights() {
        let a = RelValue::indicator(0, ev(1));
        let b = RelValue::indicator(0, ev(1));
        let c = RelValue::indicator(0, ev(2));
        let sum = a.add(&b).add(&c);
        assert_eq!(sum.get(&[(0, ev(1))]), 2.0);
        assert_eq!(sum.get(&[(0, ev(2))]), 1.0);
        assert_eq!(sum.len(), 2);
        assert_eq!(sum.total(), 3.0);
    }

    #[test]
    fn deletion_cancels_and_removes_keys() {
        let a = RelValue::indicator(0, ev(1));
        let cancelled = a.add(&a.neg());
        assert!(cancelled.is_zero());
        assert_eq!(cancelled.len(), 0);
        assert!(a.scale_int(0).is_zero());
        assert_eq!(a.scale_int(-2).get(&[(0, ev(1))]), -2.0);
    }

    #[test]
    fn multiplication_is_join_on_shared_attributes() {
        // {(A=1) -> 2} * {(B=5) -> 3} = {(A=1, B=5) -> 6}
        let a = RelValue::weighted(0, ev(1), 2.0);
        let b = RelValue::weighted(1, ev(5), 3.0);
        let ab = a.mul(&b);
        assert_eq!(ab.get(&key(&[(0, 1), (1, 5)])), 6.0);

        // Shared attribute must match: {(A=1)} * {(A=2)} = empty.
        let c = RelValue::indicator(0, ev(2));
        assert!(a.mul(&c).is_zero());
        // Matching shared attribute multiplies weights.
        let a2 = RelValue::weighted(0, ev(1), 5.0);
        assert_eq!(a.mul(&a2).get(&key(&[(0, 1)])), 10.0);
    }

    #[test]
    fn multiplication_by_scalar_scales_weights() {
        let ctx = RingCtx::new();
        let x = ctx.encode_value(&Value::str("x"));
        let a = RelValue::indicator(3, x);
        let s = RelValue::scalar(4.0);
        let out = a.mul(&s);
        assert_eq!(out.get(&[(3, x)]), 4.0);
        // One is the multiplicative identity.
        assert_eq!(a.mul(&RelValue::one()), a);
        assert!(a.mul(&RelValue::zero()).is_zero());
    }

    #[test]
    fn join_orders_attributes_canonically() {
        let a = RelValue::indicator(5, ev(9));
        let b = RelValue::indicator(1, ev(4));
        let ab = a.mul(&b);
        let ba = b.mul(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(&key(&[(1, 4), (5, 9)])), 1.0);
    }

    #[test]
    fn from_entries_normalizes_key_order() {
        let r = RelValue::from_entries(vec![
            (key(&[(3, 7), (1, 2)]), 1.5),
            (key(&[(1, 2), (3, 7)]), 0.5),
        ]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&key(&[(1, 2), (3, 7)])), 2.0);
    }

    #[test]
    fn fma_indicator_matches_materialized_join() {
        let acc = RelValue::weighted(0, ev(1), 2.0)
            .add(&RelValue::weighted(1, ev(7), 3.0))
            .add(&RelValue::scalar(0.5));
        for (attr, v) in [(1u32, ev(7)), (1, ev(8)), (2, ev(4))] {
            let mut fused = RelValue::empty();
            fused.fma_indicator(&acc, attr, v, 2.0);
            let expected = acc
                .mul(&RelValue::indicator(attr as VarId, v))
                .scale_int(2);
            assert_eq!(fused, expected, "attr={attr}");
        }
        // k = 0 is a no-op.
        let mut noop = acc.clone();
        noop.fma_indicator(&acc, 0, ev(1), 0.0);
        assert_eq!(noop, acc);
    }

    #[test]
    fn decode_entries_is_sorted_and_dictionary_stable() {
        let ctx = RingCtx::new();
        let red = ctx.encode_value(&Value::str("red"));
        let r = RelValue::weighted(1, red, 2.0).add(&RelValue::weighted(0, ev(5), 1.0));
        let entries = ctx.with_dict(|d| r.decode_entries(d));
        assert_eq!(entries.len(), 2);
        assert_eq!(&*entries[0].0, &[(0, Value::int(5))]);
        assert_eq!(&*entries[1].0, &[(1, Value::str("red"))]);
        // Rekey into a fresh dictionary: encoded form changes, decoded
        // listing does not, weights are bit-identical.
        let other = RingCtx::new();
        other.with_dict_mut(|dst| {
            dst.intern("shift");
            let moved = ctx.with_dict(|src| r.rekey_dicts(src, dst));
            assert_eq!(moved.decode_entries(dst), entries);
        });
    }

    #[test]
    fn ring_axioms_hold() {
        let ctx = RingCtx::new();
        let z = ctx.encode_value(&Value::str("z"));
        let a = RelValue::indicator(0, ev(1)).add(&RelValue::weighted(1, ev(2), 3.0));
        let b = RelValue::scalar(2.0).add(&RelValue::indicator(0, ev(1)));
        let c = RelValue::weighted(2, z, -1.5);
        axioms::check_ring_axioms(&a, &b, &c, 1e-9);
    }

    /// A relation with `n` distinct integer keys under attribute 0.
    fn with_keys(n: usize) -> RelValue {
        let mut r = RelValue::empty();
        for i in 0..n {
            r.add_entry(&RelKey::singleton(0, ev(i as i64)), 1.0);
        }
        r
    }

    use crate::relkey::RelKey;

    #[test]
    fn reset_zero_pools_by_bytes() {
        // The keep/release boundary of the delta-payload pool is a *byte*
        // budget on the interior table, not a slot or entry count.  Grow a
        // relation until its table allocation first exceeds the budget:
        // one entry fewer must be kept (buffers reused), the grown one
        // must be released.
        let mut n = 1;
        while with_keys(n).allocated_bytes() <= POOL_KEEP_BYTES {
            n += 1;
            assert!(n < 1_000_000, "pool budget never exceeded");
        }
        let mut over = with_keys(n);
        let mut under = with_keys(n - 1);
        assert!(over.allocated_bytes() > POOL_KEEP_BYTES);
        assert!(under.allocated_bytes() <= POOL_KEEP_BYTES);

        under.reset_zero();
        assert!(under.is_zero(), "reset_zero must leave an exact zero");
        assert!(
            under.allocated_bytes() > 0 && under.allocated_bytes() <= POOL_KEEP_BYTES,
            "an in-budget buffer must be kept for reuse"
        );

        over.reset_zero();
        assert!(over.is_zero());
        assert_eq!(
            over.allocated_bytes(),
            0,
            "an over-budget buffer must be released"
        );

        // Regression for the old slot-vs-entry confusion: a relation of
        // ~49 entries (128 slots under the 3/4 load factor) sits far below
        // the byte budget and must be pooled, not dropped.
        let mut mid = with_keys(49);
        let bytes = mid.allocated_bytes();
        assert!(bytes >= 64 * 48, "test premise: table grew ({bytes} bytes)");
        assert!(bytes <= POOL_KEEP_BYTES, "49 entries are {bytes} bytes");
        mid.reset_zero();
        assert!(mid.allocated_bytes() > 0, "49-entry buffer must be kept");
    }

    #[test]
    fn allocated_bytes_reflects_interior_growth() {
        // The inline shapes own no heap: their bytes are the value itself.
        assert_eq!(RelValue::empty().allocated_bytes(), 0);
        assert_eq!(RelValue::scalar(1.0).allocated_bytes(), 0);
        // The second key moves both entries into a vector with room for
        // four; past the byte budget they live in a boxed table, whose
        // header is counted with its arrays.
        let small = with_keys(2).allocated_bytes();
        assert_eq!(small, 4 * std::mem::size_of::<Entry>());
        assert!(with_keys(SMALL_MAX_LEN + 1).allocated_bytes() > std::mem::size_of::<Table>());
        let many = with_keys(1000);
        assert!(many.allocated_bytes() > small * 100);
        // Right-sized clones never exceed the source's footprint.
        assert!(many.clone().allocated_bytes() <= many.allocated_bytes());
    }

    /// The keys of a relation, in iteration order.
    fn keys_of(r: &RelValue) -> Vec<i64> {
        r.iter().map(|(k, _)| k.value(0).word as i64).collect()
    }

    #[test]
    fn shape_follows_the_number_of_distinct_keys() {
        let k = |i: i64| RelKey::singleton(0, ev(i));
        let small_len = |r: &RelValue| match &r.repr {
            Repr::Small(v) => Some((v.len(), v.capacity())),
            _ => None,
        };
        let top = SMALL_MAX_LEN as i64;
        assert_eq!(SMALL_MAX_LEN, 8, "384 B holds eight 48-byte entries");

        let mut r = RelValue::empty();
        assert!(matches!(r.repr, Repr::Empty));
        r.add_entry(&k(1), 2.0);
        r.add_entry(&k(1), 1.0);
        assert!(matches!(r.repr, Repr::One(_, _, w) if w == 3.0));
        // Exact cancellation of the inline entry is the zero relation.
        r.add_entry(&k(1), -3.0);
        assert!(matches!(r.repr, Repr::Empty) && r.is_zero());
        // The second distinct key promotes to a vector with room for four,
        // which doubles up to the byte budget and never past it…
        r.add_entry(&k(1), 1.0);
        r.add_entry(&k(2), 1.0);
        assert_eq!(small_len(&r), Some((2, 4)));
        for i in 3..=top {
            r.add_entry(&k(i), 1.0);
            let (len, cap) = small_len(&r).expect("still a vector");
            assert_eq!(len, i as usize);
            assert!(cap <= SMALL_MAX_LEN, "vector grew past the budget: {cap}");
        }
        assert_eq!(r.allocated_bytes(), SMALL_MAX_BYTES);
        // …where one more key spills into a table, every entry kept.
        r.add_entry(&k(top + 1), 1.0);
        assert!(matches!(r.repr, Repr::Table(_)) && r.len() == SMALL_MAX_LEN + 1);
        assert_eq!(r.get_key(&k(top)), 1.0);
        // A table never demotes in place…
        for i in 2..=top + 1 {
            r.add_entry(&k(i), -1.0);
        }
        assert!(matches!(r.repr, Repr::Table(_)) && r.len() == 1);
        // …but equals the inline relation with the same entry, and every
        // rebuild picks its shape by `len`.
        assert_eq!(r, RelValue::weighted(0, ev(1), 1.0));
        assert!(matches!(r.clone().repr, Repr::One(..)));
        assert!(matches!(r.neg().repr, Repr::One(..)));
        r.add_entry(&k(2), 1.0);
        r.add_entry(&k(3), 1.0);
        assert_eq!(small_len(&r.clone()), Some((3, 3)));
        assert_eq!(small_len(&r.scale_int(2)), Some((3, 3)));
        let restored = RelValue::from_hashed_entries(
            3,
            r.iter_hashed().map(|(h, key, w)| (h, key.clone(), w)),
        );
        assert_eq!(small_len(&restored), Some((3, 3)));
        assert_eq!(restored, r);
        for i in 1..=3 {
            r.add_entry(&k(i), -1.0);
        }
        assert!(matches!(r.repr, Repr::Table(_)) && r.is_zero());
        assert!(matches!(r.clone().repr, Repr::Empty));
        // reset_zero keeps an in-budget table (cleared) and drops the
        // inline entry.
        r.reset_zero();
        assert!(matches!(r.repr, Repr::Table(_)) && r.allocated_bytes() > 0);
        let mut one = RelValue::scalar(4.0);
        one.reset_zero();
        assert!(matches!(one.repr, Repr::Empty));

        // A vector keeps arrival order through removals mid-vector, never
        // demotes in place (down to one entry and to none), and is kept —
        // cleared — by reset_zero.
        let mut v = RelValue::empty();
        for i in [5, 1, 4, 2, 3] {
            v.add_entry(&k(i), 1.0);
        }
        v.add_entry(&k(4), -1.0);
        assert_eq!(keys_of(&v), [5, 1, 2, 3]);
        assert_eq!(v.take_scalar_part(), 0.0);
        for i in [1, 3, 5] {
            v.add_entry(&k(i), -1.0);
        }
        assert_eq!(small_len(&v), Some((1, 8)));
        assert_eq!(v, RelValue::weighted(0, ev(2), 1.0));
        v.add_entry(&k(7), 1.0);
        assert_eq!(keys_of(&v), [2, 7]);
        v.reset_zero();
        assert_eq!(small_len(&v), Some((0, 8)));
        assert!(v.is_zero() && v == RelValue::empty());
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = RelValue::weighted(0, ev(1), 1.0);
        let b = RelValue::weighted(0, ev(1), 1.0 + 1e-13);
        assert!(a.approx_eq(&b, 1e-9));
        let c = RelValue::weighted(0, ev(2), 1.0);
        assert!(!a.approx_eq(&c, 1e-9));
    }
}
