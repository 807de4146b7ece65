//! Encoded keys of the relation ring.
//!
//! A [`RelKey`] is a sorted sequence of `(attribute id, value)` pairs — the
//! key of one [`crate::RelValue`] entry — flattened into tagged `u64` words
//! like the view layer's `EncodedKey`, but with a layout tuned to the ring
//! interior, where *millions* of tiny relations live and the key is stored
//! inline in every table slot:
//!
//! * **Inline** (`≤ 2` pairs — every COVAR/MI lift, linear and interaction
//!   key): one *meta word* packing the pair count plus per-pair attribute
//!   id and type tag, followed by one value word per pair.  Three words,
//!   32 bytes, no heap — constructing, merging and comparing such keys is
//!   copy-only word arithmetic.
//! * **Spilled** (`≥ 3` pairs — wider factorized-listing keys): one boxed
//!   slice with two words per pair (`attr | tag`, value).
//!
//! Attribute ids index query variables and must fit 8 bits (queries have
//! far fewer variables; asserted on construction).  Pairs are kept sorted
//! by attribute id so the relational join ([`RelKey::join`]) is a linear
//! merge and equal relations have bit-identical keys regardless of
//! construction order.  Hashing ([`RelKey::fx_hash`]) is the Fx fold over
//! the canonical words, computed once per constructed key and carried
//! through every table the key touches.

use fivm_common::hash::fx_hash_words;
use fivm_common::{Dict, EncodedValue, Value};
use std::fmt;

/// Pairs a meta word can address inline.
pub(crate) const INLINE_PAIRS: usize = 2;

/// Key storage (see the module docs).  The two layouts never collide:
/// the representation is a function of the pair count.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Rep {
    /// `words[0]` = meta (count + packed attr/tag per pair),
    /// `words[1..=n]` = value words.
    Inline([u64; 1 + INLINE_PAIRS]),
    /// `words[2i] = attr << 8 | tag`, `words[2i + 1]` = value word.
    Spilled(Box<[u64]>),
}

/// The encoded key of one relation-ring entry: `(attr, value)` pairs
/// sorted by attribute id.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RelKey {
    rep: Rep,
}

#[inline]
fn check_attr(attr: u32) -> u64 {
    assert!(attr < 256, "relation-ring attribute id {attr} exceeds 255");
    u64::from(attr)
}

#[inline]
fn check_tag(tag: u8) -> u64 {
    // Both layouts give a value tag 4 bits; a wider tag in `dict.rs` must
    // widen this layout first (silent truncation would merge distinct
    // value kinds into one key).
    debug_assert!(tag < 16, "encoded value tag {tag} exceeds the 4-bit key layout");
    u64::from(tag & 0xF)
}

#[inline]
fn inline_meta_slot(meta: u64, i: usize, attr: u32, tag: u8) -> u64 {
    meta | (check_attr(attr) << (8 + 16 * i)) | (check_tag(tag) << (16 + 16 * i))
}

impl RelKey {
    /// The key of the empty tuple (the schema-less "scalar" entry).
    #[inline]
    pub fn empty() -> RelKey {
        RelKey {
            rep: Rep::Inline([0; 1 + INLINE_PAIRS]),
        }
    }

    /// The single-pair key `(attr = value)` — the one-hot indicator key.
    /// Copy-only: two words of arithmetic, no heap.
    #[inline]
    pub fn singleton(attr: u32, value: EncodedValue) -> RelKey {
        let mut words = [0u64; 1 + INLINE_PAIRS];
        words[0] = inline_meta_slot(1, 0, attr, value.tag);
        words[1] = value.word;
        RelKey { rep: Rep::Inline(words) }
    }

    /// Builds a key from pairs; sorts them by attribute id.  Panics (in
    /// debug builds) on a duplicated attribute — a relation key binds each
    /// attribute once.
    pub fn from_pairs(pairs: &mut [(u32, EncodedValue)]) -> RelKey {
        pairs.sort_by_key(|(a, _)| *a);
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 != w[1].0),
            "relation key binds an attribute twice"
        );
        Self::from_sorted(pairs)
    }

    /// Builds a key from pairs already sorted by attribute id.
    fn from_sorted(pairs: &[(u32, EncodedValue)]) -> RelKey {
        let n = pairs.len();
        if n <= INLINE_PAIRS {
            let mut words = [0u64; 1 + INLINE_PAIRS];
            let mut meta = n as u64;
            for (i, (attr, v)) in pairs.iter().enumerate() {
                meta = inline_meta_slot(meta, i, *attr, v.tag);
                words[1 + i] = v.word;
            }
            words[0] = meta;
            RelKey { rep: Rep::Inline(words) }
        } else {
            let mut words = Vec::with_capacity(2 * n);
            for (attr, v) in pairs {
                words.push(check_attr(*attr) << 8 | check_tag(v.tag));
                words.push(v.word);
            }
            RelKey {
                rep: Rep::Spilled(words.into_boxed_slice()),
            }
        }
    }

    /// Number of `(attr, value)` pairs.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.rep {
            Rep::Inline(w) => (w[0] & 0xFF) as usize,
            Rep::Spilled(w) => w.len() / 2,
        }
    }

    /// Whether this is the empty-tuple key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The attribute id of pair `i`.
    #[inline]
    pub fn attr(&self, i: usize) -> u32 {
        match &self.rep {
            Rep::Inline(w) => ((w[0] >> (8 + 16 * i)) & 0xFF) as u32,
            Rep::Spilled(w) => (w[2 * i] >> 8) as u32,
        }
    }

    /// The encoded value of pair `i`.
    #[inline]
    pub fn value(&self, i: usize) -> EncodedValue {
        match &self.rep {
            Rep::Inline(w) => EncodedValue {
                tag: ((w[0] >> (16 + 16 * i)) & 0xF) as u8,
                word: w[1 + i],
            },
            Rep::Spilled(w) => EncodedValue {
                tag: (w[2 * i] & 0xF) as u8,
                word: w[2 * i + 1],
            },
        }
    }

    /// Iterates over `(attr, value)` pairs in attribute order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, EncodedValue)> + '_ {
        (0..self.len()).map(|i| (self.attr(i), self.value(i)))
    }

    /// The value bound for `attr`, if any.
    pub fn get(&self, attr: u32) -> Option<EncodedValue> {
        (0..self.len())
            .find(|&i| self.attr(i) == attr)
            .map(|i| self.value(i))
    }

    /// The key's 64-bit Fx hash over the canonical words.  Ring operations
    /// call it exactly once per constructed key and carry the hash through
    /// every table the key touches (stored hashes travel with
    /// [`fivm_common::RawTable`] entries).
    #[inline]
    pub fn fx_hash(&self) -> u64 {
        match &self.rep {
            Rep::Inline(w) => fx_hash_words(&w[..1 + (w[0] & 0xFF) as usize]),
            Rep::Spilled(w) => fx_hash_words(w),
        }
    }

    /// The relational join of two keys: shared attributes must carry equal
    /// values (else `None`), the union is returned in attribute order — a
    /// linear merge, stack-buffered for every realistic width.
    pub fn join(&self, other: &RelKey) -> Option<RelKey> {
        if self.is_empty() {
            return Some(other.clone());
        }
        if other.is_empty() {
            return Some(self.clone());
        }
        let (n, m) = (self.len(), other.len());
        let mut stack = [(0u32, EncodedValue::NULL); 8];
        let mut heap: Vec<(u32, EncodedValue)>;
        let buf: &mut [(u32, EncodedValue)] = if n + m <= 8 {
            &mut stack
        } else {
            heap = vec![(0, EncodedValue::NULL); n + m];
            &mut heap
        };
        let (mut i, mut j, mut out) = (0, 0, 0);
        while i < n && j < m {
            let (a, b) = (self.attr(i), other.attr(j));
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    buf[out] = (a, self.value(i));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    buf[out] = (b, other.value(j));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if self.value(i) != other.value(j) {
                        return None;
                    }
                    buf[out] = (a, self.value(i));
                    i += 1;
                    j += 1;
                }
            }
            out += 1;
        }
        while i < n {
            buf[out] = (self.attr(i), self.value(i));
            i += 1;
            out += 1;
        }
        while j < m {
            buf[out] = (other.attr(j), other.value(j));
            j += 1;
            out += 1;
        }
        Some(Self::from_sorted(&buf[..out]))
    }

    /// Decodes the key into owned `(attr, Value)` pairs (output boundary).
    pub fn decode(&self, dict: &Dict) -> Box<[(u32, Value)]> {
        self.pairs()
            .map(|(a, ev)| (a, dict.decode_value(ev)))
            .collect()
    }

    /// Re-encodes the key from `src`'s dictionary into `dst`'s (see
    /// [`Dict::rekey_value`]); a pass-through when no pair holds a string.
    pub fn rekey(&self, src: &Dict, dst: &mut Dict) -> RelKey {
        if self.pairs().all(|(_, v)| !v.is_str()) {
            return self.clone();
        }
        let mut pairs: Vec<(u32, EncodedValue)> = self
            .pairs()
            .map(|(a, v)| (a, src.rekey_value(v, dst)))
            .collect();
        RelKey::from_pairs(&mut pairs)
    }
}

impl fmt::Debug for RelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.pairs().map(|(a, v)| (a, (v.tag, v.word))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(pairs: &[(u32, i64)]) -> RelKey {
        let mut v: Vec<(u32, EncodedValue)> = pairs
            .iter()
            .map(|&(a, x)| (a, EncodedValue::int(x)))
            .collect();
        RelKey::from_pairs(&mut v)
    }

    #[test]
    fn key_struct_is_compact() {
        // The whole point of the layout: a slot-inline key of two pairs in
        // 32 bytes.
        assert_eq!(std::mem::size_of::<RelKey>(), 32);
    }

    #[test]
    fn construction_orders_pairs_canonically() {
        let a = k(&[(3, 7), (1, 2)]);
        let b = k(&[(1, 2), (3, 7)]);
        assert_eq!(a, b);
        assert_eq!(a.fx_hash(), b.fx_hash());
        assert_eq!(a.len(), 2);
        assert_eq!(a.attr(0), 1);
        assert_eq!(a.value(1), EncodedValue::int(7));
        assert_eq!(a.get(3), Some(EncodedValue::int(7)));
        assert_eq!(a.get(9), None);
        assert!(RelKey::empty().is_empty());
        assert_eq!(RelKey::singleton(5, EncodedValue::int(9)), k(&[(5, 9)]));
    }

    #[test]
    fn spilled_keys_roundtrip_and_join() {
        // 3+ pairs spill to the boxed layout; semantics are unchanged.
        let wide = k(&[(0, 1), (3, 4), (7, 9)]);
        assert_eq!(wide.len(), 3);
        assert_eq!(wide.attr(2), 7);
        assert_eq!(wide.value(2), EncodedValue::int(9));
        assert_eq!(wide.get(3), Some(EncodedValue::int(4)));
        // Joining inline keys across the spill boundary.
        let ab = k(&[(0, 1), (3, 4)]).join(&k(&[(7, 9)])).unwrap();
        assert_eq!(ab, wide);
        assert_eq!(ab.fx_hash(), wide.fx_hash());
        // Wider joins (stack-buffer and heap-buffer paths).
        let many: Vec<(u32, i64)> = (0..6).map(|i| (i as u32 * 2, i)).collect();
        let left = k(&many[..3]);
        let right = k(&many[3..]);
        let joined = left.join(&right).unwrap();
        assert_eq!(joined.len(), 6);
        assert_eq!(joined, k(&many));
    }

    #[test]
    fn join_merges_and_rejects_conflicts() {
        let a = k(&[(0, 1), (2, 5)]);
        let b = k(&[(1, 4)]);
        let ab = a.join(&b).unwrap();
        assert_eq!(ab, k(&[(0, 1), (1, 4), (2, 5)]));
        // Shared attribute, equal value: merged once.
        let c = k(&[(2, 5), (7, 0)]);
        assert_eq!(a.join(&c).unwrap(), k(&[(0, 1), (2, 5), (7, 0)]));
        // Shared attribute, different value: no join result.
        let d = k(&[(2, 6)]);
        assert!(a.join(&d).is_none());
        // Empty key is the join identity.
        assert_eq!(a.join(&RelKey::empty()).unwrap(), a);
        assert_eq!(RelKey::empty().join(&a).unwrap(), a);
        // Join is symmetric.
        assert_eq!(b.join(&a).unwrap(), ab);
    }

    #[test]
    fn value_kinds_stay_distinct_inside_keys() {
        let int_key = RelKey::singleton(0, EncodedValue::int(1));
        let dbl_key = RelKey::singleton(0, EncodedValue::double(1.0));
        let null_key = RelKey::singleton(0, EncodedValue::NULL);
        assert_ne!(int_key, dbl_key);
        assert_ne!(int_key, null_key);
        // Canonical double bits: -0.0 and 0.0 are one key.
        assert_eq!(
            RelKey::singleton(0, EncodedValue::double(-0.0)),
            RelKey::singleton(0, EncodedValue::double(0.0))
        );
    }

    #[test]
    fn decode_and_rekey_round_trip() {
        let mut src = Dict::new();
        let red = src.encode_value(&Value::str("red"));
        let mut pairs = vec![(2, red), (0, EncodedValue::int(4))];
        let key = RelKey::from_pairs(&mut pairs);
        let decoded = key.decode(&src);
        assert_eq!(&*decoded, &[(0, Value::int(4)), (2, Value::str("red"))]);
        // Rekey into a dictionary where "red" gets a different id.
        let mut dst = Dict::new();
        dst.intern("occupied");
        let moved = key.rekey(&src, &mut dst);
        assert_ne!(moved, key, "string ids differ across dictionaries");
        assert_eq!(&*moved.decode(&dst), &*decoded);
        // Int-only keys pass through untouched.
        let ints = k(&[(1, 3)]);
        assert_eq!(ints.rekey(&src, &mut dst), ints);
    }

    #[test]
    #[should_panic(expected = "exceeds 255")]
    fn oversized_attribute_ids_are_rejected() {
        let _ = RelKey::singleton(300, EncodedValue::int(1));
    }
}
