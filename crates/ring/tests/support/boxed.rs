//! The boxed-key reference implementation of the relation ring.
//!
//! This is the representation `fivm_ring::RelValue` used before the ring
//! interior moved onto the hash-once machinery: keys are heap-boxed slices
//! of `(attribute id, Value)` pairs inside an `FxHashMap`, so every ring
//! operation re-hashes dynamically typed values (enum-tag matching, string
//! refcount traffic, one allocation per constructed key).
//!
//! It is kept — deliberately unoptimized — as the **oracle** of the seeded
//! encoded-vs-boxed differential suite
//! (`crates/ring/tests/relvalue_differential.rs`, which includes this file
//! by `#[path]`), and lives under `tests/` because it is test code, not
//! product code.
//!
//! It must stay semantically identical to `fivm_ring::RelValue`.

#![allow(dead_code)]

use fivm_common::{FxHashMap, Value, VarId};
use fivm_ring::ring::{approx_f64, ApproxEq, Ring};

/// The key of one entry: categorical assignments, sorted by attribute id.
pub type BoxedCatKey = Box<[(u32, Value)]>;

/// A relation-valued ring element keyed by boxed `Value` tuples (reference
/// implementation; see the module docs).
#[derive(Clone, Debug, Default)]
pub struct BoxedRelValue {
    entries: FxHashMap<BoxedCatKey, f64>,
}

impl BoxedRelValue {
    /// The empty relation (ring zero).
    pub fn empty() -> Self {
        BoxedRelValue::default()
    }

    /// The relation `{() -> w}` over the empty schema.
    pub fn scalar(w: f64) -> Self {
        let mut entries = FxHashMap::default();
        if w != 0.0 {
            entries.insert(Vec::new().into_boxed_slice(), w);
        }
        BoxedRelValue { entries }
    }

    /// The singleton relation `{(attr = value) -> w}`.
    pub fn weighted(attr: VarId, value: Value, w: f64) -> Self {
        let mut entries = FxHashMap::default();
        if w != 0.0 {
            entries.insert(vec![(attr as u32, value)].into_boxed_slice(), w);
        }
        BoxedRelValue { entries }
    }

    /// The indicator relation `{(attr = value) -> 1}`.
    pub fn indicator(attr: VarId, value: Value) -> Self {
        Self::weighted(attr, value, 1.0)
    }

    /// Number of tuples with non-zero weight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight of a key given as (unsorted) pairs, or 0 if absent.
    pub fn get(&self, key: &[(u32, Value)]) -> f64 {
        let mut k: Vec<(u32, Value)> = key.to_vec();
        k.sort_by_key(|(a, _)| *a);
        self.entries.get(k.as_slice()).copied().unwrap_or(0.0)
    }

    /// The entries as a sorted `(pairs, weight)` listing — the same
    /// canonical form as `RelValue::decode_entries`, which is how
    /// the differential suite compares the two representations.
    pub fn sorted_entries(&self) -> Vec<(BoxedCatKey, f64)> {
        let mut out: Vec<(BoxedCatKey, f64)> = self
            .entries
            .iter()
            .map(|(k, &w)| (k.clone(), w))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// `self += k * other`.
    pub fn add_scaled(&mut self, other: &BoxedRelValue, k: f64) {
        if k == 0.0 {
            return;
        }
        for (key, &w) in &other.entries {
            match self.entries.get_mut(key) {
                Some(slot) => *slot += k * w,
                None => {
                    self.entries.insert(key.clone(), k * w);
                }
            }
        }
        self.entries.retain(|_, w| *w != 0.0);
    }

    /// `self += k * (a ⋈ b)` without materializing the product.
    pub fn add_product_scaled(&mut self, a: &BoxedRelValue, b: &BoxedRelValue, k: f64) {
        if k == 0.0 || a.is_empty() || b.is_empty() {
            return;
        }
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        for (ka, &wa) in &small.entries {
            for (kb, &wb) in &large.entries {
                if let Some(key) = Self::join_keys(ka, kb) {
                    match self.entries.get_mut(&key) {
                        Some(slot) => *slot += k * wa * wb,
                        None => {
                            self.entries.insert(key, k * wa * wb);
                        }
                    }
                }
            }
        }
        self.entries.retain(|_, w| *w != 0.0);
    }

    /// Joins two keys: shared attributes must match, the union is returned
    /// in attribute order; `None` if the shared attributes disagree.
    fn join_keys(a: &BoxedCatKey, b: &BoxedCatKey) -> Option<BoxedCatKey> {
        let mut out: Vec<(u32, Value)> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    out.push(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Some(out.into_boxed_slice())
    }

    fn map_weights(&self, f: impl Fn(f64) -> f64) -> Self {
        let mut entries = FxHashMap::default();
        for (k, &w) in &self.entries {
            let nw = f(w);
            if nw != 0.0 {
                entries.insert(k.clone(), nw);
            }
        }
        BoxedRelValue { entries }
    }
}

impl PartialEq for BoxedRelValue {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Ring for BoxedRelValue {
    fn zero() -> Self {
        BoxedRelValue::empty()
    }

    fn one() -> Self {
        BoxedRelValue::scalar(1.0)
    }

    fn is_zero(&self) -> bool {
        self.entries.is_empty()
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
        let mut out = BoxedRelValue::empty();
        out.add_product_scaled(self, rhs, 1.0);
        out
    }

    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        out.entries.clear();
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
            return BoxedRelValue::empty();
        }
        self.map_weights(|w| w * k as f64)
    }
}

impl ApproxEq for BoxedRelValue {
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for (k, &w) in &self.entries {
            if !approx_f64(w, other.entries.get(k).copied().unwrap_or(0.0), tol) {
                return false;
            }
        }
        for (k, &w) in &other.entries {
            if !approx_f64(w, self.entries.get(k).copied().unwrap_or(0.0), tol) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_ring::axioms;

    #[test]
    fn boxed_reference_satisfies_the_ring_axioms() {
        let a = BoxedRelValue::indicator(0, Value::int(1))
            .add(&BoxedRelValue::weighted(1, Value::int(2), 3.0));
        let b = BoxedRelValue::scalar(2.0).add(&BoxedRelValue::indicator(0, Value::int(1)));
        let c = BoxedRelValue::weighted(2, Value::str("z"), -1.5);
        axioms::check_ring_axioms(&a, &b, &c, 1e-9);
    }

    #[test]
    fn join_and_cancellation_semantics() {
        let a = BoxedRelValue::weighted(0, Value::int(1), 2.0);
        let b = BoxedRelValue::weighted(1, Value::int(5), 3.0);
        assert_eq!(
            a.mul(&b).get(&[(0, Value::int(1)), (1, Value::int(5))]),
            6.0
        );
        assert!(a.add(&a.neg()).is_zero());
        assert!(a.mul(&BoxedRelValue::indicator(0, Value::int(2))).is_zero());
    }
}
