//! Snapshot encode/decode for ring payloads: the [`PersistRing`] trait.
//!
//! The durability layer (`fivm_cdc`) serializes an engine's materialized
//! views; the payload half of every view entry is a ring value, and this
//! module defines its wire form.  Only the rings the engine snapshots
//! implement the trait — test oracles (`tests/support/boxed.rs`) and experimental
//! rings stay out, which keeps [`crate::ring::Ring`] itself unchanged (no
//! breaking additions to every ad-hoc ring in the test suite).
//!
//! Invariants the format maintains:
//!
//! * **Bit-identical round-trips.**  Floats are stored as raw bits; no
//!   canonicalization happens on the persist path, so a restored payload
//!   compares `==` to the saved one.
//! * **Stored hashes travel with relational entries.**  [`RelValue`]
//!   interiors are written `(hash, key, weight)`; decode right-sizes the
//!   table ([`RelValue::from_hashed_entries`]) and re-buckets from the
//!   stored hashes, so a restore performs zero key hashing and zero growth
//!   rehashes — the hash-once and `ring_rehashes == 0` contracts survive
//!   restart.
//! * **Dictionary-local words stay local.**  Encoded words inside
//!   relational keys are only meaningful under the dictionary that encoded
//!   them; the engine snapshot serializes that dictionary alongside
//!   (`fivm_common::wire::put_dict`), and both are restored together.
//!   Payload bytes are never exchanged across engines on their own.

use crate::cofactor::{Cofactor, CofactorElem};
use crate::gencofactor::{GenCofactor, GenCofactorElem};
use crate::relkey::RelKey;
use crate::relvalue::RelValue;
use crate::ring::Ring;
use crate::symmatrix::SymMatrix;
use fivm_common::wire::{
    put_encoded_value, put_f64, put_i64, put_u32, put_u64, put_u8, read_encoded_value, WireError,
    WireReader, WireResult,
};

/// Upper bound on the cofactor dimension accepted while decoding.  Real
/// aggregate batches have tens of attributes; the cap rejects absurd
/// dimensions from corrupt input before they turn into giant allocations
/// (checksums catch corruption first, but decoding stays safe without them).
const MAX_DIM: usize = 1 << 16;

/// A ring whose values can be serialized into a snapshot and restored
/// bit-identically.  Extends [`Ring`]; implemented by the payload rings the
/// engine ships (`i64`, `f64`, [`Cofactor`], [`GenCofactor`], [`RelValue`]).
pub trait PersistRing: Ring {
    /// Stable format tag written into snapshot headers; a restore onto an
    /// engine of a different ring fails the header check instead of
    /// misinterpreting payload bytes.
    const RING_TAG: &'static str;

    /// Appends this value's wire form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value written by [`PersistRing::encode`].
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self>;
}

impl PersistRing for i64 {
    const RING_TAG: &'static str = "i64";

    fn encode(&self, out: &mut Vec<u8>) {
        put_i64(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.i64()
    }
}

impl PersistRing for f64 {
    const RING_TAG: &'static str = "f64";

    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.f64()
    }
}

/// Reads a cofactor dimension, rejecting corrupt sizes.
fn read_dim(r: &mut WireReader<'_>) -> WireResult<usize> {
    let dim = r.u32()? as usize;
    if dim > MAX_DIM {
        return Err(WireError::Malformed("cofactor dimension out of range"));
    }
    Ok(dim)
}

impl PersistRing for Cofactor {
    const RING_TAG: &'static str = "cofactor";

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Cofactor::Scalar(c) => {
                put_u8(out, 0);
                put_f64(out, *c);
            }
            Cofactor::Elem(e) => {
                put_u8(out, 1);
                put_f64(out, e.count);
                let dim = e.dim();
                put_u32(out, dim as u32);
                for &s in &e.sums {
                    put_f64(out, s);
                }
                // Packed upper triangle, row-major — the matrix's own layout.
                for i in 0..dim {
                    for j in i..dim {
                        put_f64(out, e.prods.get(i, j));
                    }
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(Cofactor::Scalar(r.f64()?)),
            1 => {
                let count = r.f64()?;
                let dim = read_dim(r)?;
                let mut sums = Vec::with_capacity(dim);
                for _ in 0..dim {
                    sums.push(r.f64()?);
                }
                let mut prods = SymMatrix::zeros(dim);
                for i in 0..dim {
                    for j in i..dim {
                        prods.set(i, j, r.f64()?);
                    }
                }
                Ok(Cofactor::Elem(CofactorElem { count, sums, prods }))
            }
            _ => Err(WireError::Malformed("cofactor variant tag out of range")),
        }
    }
}

/// Writes one relational-key interior: pair count, then `(attr, value)`
/// pairs in the key's canonical order.
fn put_rel_key(out: &mut Vec<u8>, key: &RelKey) {
    put_u8(out, u8::try_from(key.len()).expect("relational key wider than 255 pairs"));
    for (attr, value) in key.pairs() {
        put_u32(out, attr);
        put_encoded_value(out, value);
    }
}

/// Reads a relational key written by [`put_rel_key`].  Rebuilding through
/// [`RelKey::from_pairs`] re-canonicalizes, so the restored key's words —
/// and its [`RelKey::fx_hash`] — match the saved key exactly.
fn read_rel_key(r: &mut WireReader<'_>) -> WireResult<RelKey> {
    let n = r.u8()? as usize;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = r.u32()?;
        let value = read_encoded_value(r)?;
        pairs.push((attr, value));
    }
    Ok(RelKey::from_pairs(&mut pairs))
}

impl PersistRing for RelValue {
    const RING_TAG: &'static str = "relvalue";

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for (hash, key, w) in self.iter_hashed() {
            put_u64(out, hash);
            put_rel_key(out, key);
            put_f64(out, w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = r.u32()? as usize;
        if len > r.remaining() {
            // Each entry needs well over one byte; an impossible length is
            // corruption, not a huge value.
            return Err(WireError::Malformed("relation entry count out of range"));
        }
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            let hash = r.u64()?;
            let key = read_rel_key(r)?;
            if hash != key.fx_hash() {
                return Err(WireError::Malformed("stored hash does not match key"));
            }
            let w = r.f64()?;
            entries.push((hash, key, w));
        }
        Ok(RelValue::from_hashed_entries(len, entries))
    }
}

impl PersistRing for GenCofactor {
    const RING_TAG: &'static str = "gen_cofactor";

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GenCofactor::Scalar(c) => {
                put_u8(out, 0);
                put_f64(out, *c);
            }
            GenCofactor::Elem(e) => {
                put_u8(out, 1);
                put_f64(out, e.count);
                let dim = e.dim();
                put_u32(out, dim as u32);
                // Components travel in composed form (empty-key scalar mass
                // folded back into each relation): the wire format predates
                // the split in-memory representation and stays compatible
                // with snapshots taken before it.
                for i in 0..dim {
                    e.sum(i).encode(out);
                }
                for i in 0..dim {
                    for j in i..dim {
                        e.prod(i, j).encode(out);
                    }
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(GenCofactor::Scalar(r.f64()?)),
            1 => {
                let count = r.f64()?;
                let dim = read_dim(r)?;
                let mut sums = Vec::with_capacity(dim);
                for _ in 0..dim {
                    sums.push(RelValue::decode(r)?);
                }
                let tri = dim * (dim + 1) / 2;
                let mut prods = Vec::with_capacity(tri);
                for _ in 0..tri {
                    prods.push(RelValue::decode(r)?);
                }
                // Split each composed component back into dense scalar mass
                // + cats-only interior; the relations are reused in place,
                // so the zero-growth-rehash restore property is preserved.
                Ok(GenCofactor::Elem(GenCofactorElem::from_composed(
                    count, sums, prods,
                )))
            }
            _ => Err(WireError::Malformed("cofactor variant tag out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_common::EncodedValue;

    fn round_trip<R: PersistRing>(v: &R) -> R {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        let out = R::decode(&mut r).expect("decode");
        assert!(r.is_empty(), "decoder left trailing bytes");
        out
    }

    #[test]
    fn numeric_rings_round_trip() {
        assert_eq!(round_trip(&42i64), 42);
        assert_eq!(round_trip(&-7i64), -7);
        assert_eq!(round_trip(&2.5f64), 2.5);
        // Raw bits: -0.0 stays -0.0.
        assert_eq!(round_trip(&-0.0f64).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn cofactor_round_trips_bit_identically() {
        assert_eq!(round_trip(&Cofactor::Scalar(3.0)), Cofactor::Scalar(3.0));
        let mut e = CofactorElem::zeros(3);
        e.count = 5.0;
        e.sums = vec![1.5, -2.0, 0.25];
        e.prods.set(0, 1, 7.75);
        e.prods.set(2, 2, -0.125);
        let v = Cofactor::Elem(e);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn relvalue_round_trip_has_zero_rehashes() {
        let mut v = RelValue::scalar(2.0);
        for i in 0..200 {
            v.add_entry(
                &RelKey::singleton(3, EncodedValue::int(i)),
                (i as f64) + 0.5,
            );
        }
        let restored = round_trip(&v);
        assert_eq!(restored, v);
        // The restore right-sizes the table: no growth rehashes, and every
        // entry sits under its stored hash.
        assert_eq!(restored.table_rehashes(), 0);
    }

    #[test]
    fn gen_cofactor_round_trips() {
        // Mixed continuous/categorical element: the wire form composes each
        // component (empty-key mass folded in), decode splits it back.
        let mut v = GenCofactor::lift_continuous(2, 0, 1.5)
            .mul(&GenCofactor::lift_categorical(2, 1, 7, EncodedValue::int(9)));
        v.fma_lift_continuous(&GenCofactor::scalar(2.5), 2, 0, -1.0, 1);
        let restored = round_trip(&v);
        assert_eq!(restored, v);
        // Restored relational interiors are right-sized: zero growth rehashes.
        assert_eq!(restored.table_rehashes(), 0);
        assert_eq!(
            round_trip(&GenCofactor::Scalar(1.0)),
            GenCofactor::Scalar(1.0)
        );
    }

    /// Encodes, decodes and encodes again; the two byte strings must be
    /// identical (decode → encode is the identity on wire bytes).
    fn reencoded<R: PersistRing>(v: &R) -> (Vec<u8>, R) {
        let mut first = Vec::new();
        v.encode(&mut first);
        let restored = R::decode(&mut WireReader::new(&first)).expect("decode");
        let mut second = Vec::new();
        restored.encode(&mut second);
        assert_eq!(first, second, "decode -> encode changed the bytes");
        (first, restored)
    }

    #[test]
    fn relvalue_wire_form_is_representation_independent() {
        // The wire form of a relation is `u32 len` then `(u64 hash, key,
        // f64 weight)` per entry — written out here by hand, so a change
        // of the in-memory shape cannot move it.
        let key = RelKey::singleton(1, EncodedValue::int(5));
        let mut golden = Vec::new();
        put_u32(&mut golden, 1);
        put_u64(&mut golden, key.fx_hash());
        put_u8(&mut golden, 1);
        put_u32(&mut golden, 1);
        put_encoded_value(&mut golden, EncodedValue::int(5));
        put_f64(&mut golden, 2.0);

        let inline = RelValue::weighted(1, EncodedValue::int(5), 2.0);
        assert_eq!(inline.allocated_bytes(), 0);
        // The same relation held by a table that shrank to one entry.
        let mut table = inline.clone();
        table.add_entry(&RelKey::singleton(1, EncodedValue::int(6)), 1.0);
        table.add_entry(&RelKey::singleton(1, EncodedValue::int(6)), -1.0);
        assert!(table.allocated_bytes() > 0 && table == inline);

        for v in [&inline, &table] {
            let (bytes, restored) = reencoded(v);
            assert_eq!(bytes, golden);
            assert_eq!(&restored, v);
            // A restored singleton is inline whatever held it when saved.
            assert_eq!(restored.allocated_bytes(), 0);
            assert_eq!(restored.table_rehashes(), 0);
        }
        // Bytes written before the inline singleton existed load the same.
        let old = RelValue::decode(&mut WireReader::new(&golden)).expect("decode");
        assert_eq!(old, inline);

        // The empty relation is four zero bytes and restores to no heap.
        let (bytes, restored) = reencoded(&RelValue::empty());
        assert_eq!(bytes, [0u8; 4]);
        assert!(restored.is_empty() && restored.allocated_bytes() == 0);

        // Multi-entry relations: a restored (right-sized) value re-encodes
        // to the bytes it was decoded from.
        let mut many = RelValue::scalar(2.0);
        for i in 0..40 {
            many.add_entry(&RelKey::singleton(3, EncodedValue::int(i)), i as f64 - 0.5);
        }
        let (_, restored) = reencoded(&many);
        assert_eq!(restored, many);
        reencoded(&restored);
    }

    #[test]
    fn gen_cofactor_decode_encode_is_byte_identical() {
        let cat =
            |idx: usize, v: i64| GenCofactor::lift_categorical(3, idx, idx, EncodedValue::int(v));
        // One joined tuple (every component inline) and a sum of two
        // (components with two categories are tables).
        let tuple = cat(0, 1)
            .mul(&cat(1, 7))
            .mul(&GenCofactor::lift_continuous(3, 2, 2.5));
        let two = tuple.add(
            &cat(0, 2)
                .mul(&cat(1, 7))
                .mul(&GenCofactor::lift_continuous(3, 2, -1.0)),
        );
        for v in [&tuple, &two, &GenCofactor::Scalar(3.0)] {
            let (_, restored) = reencoded(v);
            assert_eq!(&restored, v);
            assert_eq!(restored.table_rehashes(), 0);
            assert!(restored.allocated_bytes() <= v.allocated_bytes());
        }
        // A single tuple's payload owns its dense buffers and component
        // vectors only — no relation of it touches the heap.
        let GenCofactor::Elem(e) = &tuple else {
            panic!("dense element expected");
        };
        let interiors: usize = (0..3)
            .map(|i| e.sum_cats(i).allocated_bytes())
            .chain(
                (0..3)
                    .flat_map(|i| (i..3).map(move |j| (i, j)))
                    .map(|(i, j)| e.prod_cats(i, j).allocated_bytes()),
            )
            .sum();
        assert_eq!(interiors, 0);
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        // Bad variant tag.
        let mut r = WireReader::new(&[9u8]);
        assert!(Cofactor::decode(&mut r).is_err());
        // Truncated relation.
        let mut buf = Vec::new();
        RelValue::scalar(1.0).encode(&mut buf);
        let mut r = WireReader::new(&buf[..buf.len() - 2]);
        assert!(RelValue::decode(&mut r).is_err());
        // Stored hash that does not match its key.
        let mut buf = Vec::new();
        RelValue::weighted(1, EncodedValue::int(5), 2.0).encode(&mut buf);
        buf[4] ^= 0x40; // flip a bit inside the stored hash
        assert!(matches!(
            RelValue::decode(&mut WireReader::new(&buf)),
            Err(WireError::Malformed(_))
        ));
    }
}
