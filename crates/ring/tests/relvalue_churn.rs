//! Cancel-and-refill churn of small relations must not rehash.
//!
//! A maintained view cancels and refills the same few keys forever: a
//! delete removes a tuple's categories from every component relation of its
//! payload, the next insert puts them back.  With tombstoning deletes that
//! was a table rebuild per cycle (`ring.rehashes_per_krow` ≈ 2,100 on the
//! benchmark's `favorita-ring`); with the inline singleton, the small
//! vector and the swiss-table deletion rule it is none.  These tests churn 1–6-entry
//! relations — alone and as the components of a generalized-cofactor
//! payload — 10 000 times each and pin [`RelValue::table_rehashes`] to the
//! value it had after the first fill.

use fivm_common::EncodedValue;
use fivm_ring::{GenCofactor, RelKey, RelValue, Ring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(i: usize) -> RelKey {
    RelKey::singleton(0, EncodedValue::int(i as i64))
}

#[test]
fn small_relations_churn_ten_thousand_times_without_a_rehash() {
    for n in 1..=6usize {
        let mut rng = StdRng::seed_from_u64(0xC4A2 + n as u64);
        let mut r = RelValue::empty();
        for i in 0..n {
            r.add_entry(&key(i), 1.0);
        }
        // Growth to `n` entries may reallocate (up to six keys live in one
        // vector, which never rehashes); from here on neither the rehash
        // count nor the footprint may move.
        let settled = r.table_rehashes();
        let bytes = r.allocated_bytes();
        let mut present = vec![true; n];
        for round in 0..10_000 {
            // Cancel a random subset (all of it every fourth round)...
            for (i, p) in present.iter_mut().enumerate() {
                if *p && (round % 4 == 0 || rng.gen_bool(0.5)) {
                    r.add_entry(&key(i), -1.0);
                    *p = false;
                }
            }
            assert_eq!(r.len(), present.iter().filter(|&&p| p).count());
            assert_eq!(r.is_zero(), present.iter().all(|&p| !p));
            // ...and refill a random subset of the holes.
            for (i, p) in present.iter_mut().enumerate() {
                if !*p && rng.gen_bool(0.7) {
                    r.add_entry(&key(i), 1.0);
                    *p = true;
                }
            }
            for (i, &p) in present.iter().enumerate() {
                assert_eq!(r.get_key(&key(i)), if p { 1.0 } else { 0.0 });
            }
        }
        assert_eq!(
            r.table_rehashes(),
            settled,
            "{n}-entry relation rehashed under cancel-and-refill churn"
        );
        assert_eq!(
            r.allocated_bytes(),
            bytes,
            "{n}-entry relation changed its footprint"
        );
    }
}

/// The same churn one level up: single joined tuples inserted into and
/// deleted from a generalized-cofactor payload through the sparse lifts.
/// Every categorical component holds 1–3 keys at a time.
#[test]
fn gen_cofactor_payload_churns_without_a_rehash() {
    let dim = 4;
    let mut rng = StdRng::seed_from_u64(0xC4A2);
    // One joined tuple = a product of one lift per attribute: two
    // categorical (three categories each), two continuous.
    let tuple = |c0: i64, c1: i64| {
        GenCofactor::lift_categorical(dim, 0, 0, EncodedValue::int(c0))
            .mul(&GenCofactor::lift_categorical(
                dim,
                1,
                1,
                EncodedValue::int(c1),
            ))
            .mul(&GenCofactor::lift_continuous(dim, 2, 2.0))
            .mul(&GenCofactor::lift_continuous(dim, 3, -0.5))
    };
    let tuples: Vec<GenCofactor> = (0..3)
        .flat_map(|a| (0..3).map(move |b| (a, b)))
        .map(|(a, b)| tuple(a, b))
        .collect();
    let mut payload = GenCofactor::zero();
    let mut held = vec![0i64; tuples.len()];
    // First fill: every tuple once, so every component reaches its widest.
    for (t, h) in tuples.iter().zip(&mut held) {
        payload.add_assign(t);
        *h += 1;
    }
    let settled = payload.table_rehashes();
    for _ in 0..10_000 {
        let i = rng.gen_range(0..tuples.len());
        if held[i] > 0 && rng.gen_bool(0.6) {
            payload.fma_scaled(&tuples[i], &GenCofactor::one(), -1);
            held[i] -= 1;
        } else {
            payload.fma_scaled(&tuples[i], &GenCofactor::one(), 1);
            held[i] += 1;
        }
        assert_eq!(payload.count(), held.iter().sum::<i64>() as f64);
    }
    assert_eq!(
        payload.table_rehashes(),
        settled,
        "payload components rehashed under churn"
    );
    // Drain what is left: the payload must come back to an exact zero.
    for (t, &h) in tuples.iter().zip(&held) {
        payload.fma_scaled(t, &GenCofactor::one(), -h);
    }
    assert!(payload.is_zero());
    assert_eq!(payload.table_rehashes(), settled);
}
