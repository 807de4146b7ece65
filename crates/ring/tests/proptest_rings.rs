//! Randomized property tests of the ring axioms for every ring
//! implementation.
//!
//! The F-IVM engine is only correct if its payload types really behave like
//! rings (commutative addition with inverses, associative multiplication,
//! distributivity).  These tests generate random elements of each ring from
//! seeded generators and check the axioms with the shared checkers from
//! `fivm_ring::axioms`.  (The environment has no crates.io access, so this
//! uses a seeded RNG harness instead of `proptest`; every case is
//! deterministic and reproducible from the printed seed.)

use fivm_common::EncodedValue;
use fivm_ring::{axioms, ApproxEq, Cofactor, GenCofactor, RelValue, Ring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 3;
const CASES: u64 = 48;

/// Runs `body` once per case with a per-case RNG, labelling failures with
/// the case seed.
fn for_cases(test: &str, body: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0xF1B0 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(err) = result {
            eprintln!("{test}: failing case seed = {seed}");
            std::panic::resume_unwind(err);
        }
    }
}

fn rand_cofactor(rng: &mut StdRng) -> Cofactor {
    let mut acc = Cofactor::zero();
    for _ in 0..rng.gen_range(0..3usize) {
        let factor = |rng: &mut StdRng| {
            if rng.gen_bool(0.7) {
                Cofactor::lift(DIM, rng.gen_range(0..DIM), rng.gen_range(-8.0..8.0f64))
            } else {
                Cofactor::scalar(rng.gen_range(-4.0..4.0f64))
            }
        };
        let (a, b) = (factor(rng), factor(rng));
        acc.add_assign(&a.mul(&b));
    }
    acc
}

fn rand_relvalue(rng: &mut StdRng) -> RelValue {
    let mut acc = RelValue::empty();
    for _ in 0..rng.gen_range(0..4usize) {
        acc.add_assign(&RelValue::weighted(
            rng.gen_range(0..3usize),
            EncodedValue::int(rng.gen_range(-3..4i64)),
            rng.gen_range(-3.0..3.0f64),
        ));
    }
    acc
}

fn rand_gen_cofactor(rng: &mut StdRng) -> GenCofactor {
    let mut acc = GenCofactor::zero();
    for _ in 0..rng.gen_range(0..3usize) {
        let factor = |rng: &mut StdRng| match rng.gen_range(0..3u32) {
            0 => GenCofactor::lift_continuous(DIM, rng.gen_range(0..DIM), rng.gen_range(-5.0..5.0)),
            1 => {
                let idx = rng.gen_range(0..DIM);
                GenCofactor::lift_categorical(DIM, idx, idx, EncodedValue::int(rng.gen_range(0..4i64)))
            }
            _ => GenCofactor::scalar(rng.gen_range(-3.0..3.0f64)),
        };
        let (a, b) = (factor(rng), factor(rng));
        acc.add_assign(&a.mul(&b));
    }
    acc
}

#[test]
fn integer_ring_axioms() {
    for_cases("integer_ring_axioms", |rng| {
        let (a, b, c) = (
            rng.gen_range(-50..50i64),
            rng.gen_range(-50..50i64),
            rng.gen_range(-50..50i64),
        );
        axioms::check_ring_axioms(&a, &b, &c, 0.0);
    });
}

#[test]
fn real_ring_axioms() {
    for_cases("real_ring_axioms", |rng| {
        let (a, b, c) = (
            rng.gen_range(-50.0..50.0f64),
            rng.gen_range(-50.0..50.0f64),
            rng.gen_range(-50.0..50.0f64),
        );
        axioms::check_ring_axioms(&a, &b, &c, 1e-9);
    });
}

#[test]
fn cofactor_ring_axioms() {
    for_cases("cofactor_ring_axioms", |rng| {
        let (a, b, c) = (rand_cofactor(rng), rand_cofactor(rng), rand_cofactor(rng));
        axioms::check_ring_axioms(&a, &b, &c, 1e-6);
    });
}

#[test]
fn relvalue_ring_axioms() {
    for_cases("relvalue_ring_axioms", |rng| {
        let (a, b, c) = (rand_relvalue(rng), rand_relvalue(rng), rand_relvalue(rng));
        axioms::check_ring_axioms(&a, &b, &c, 1e-6);
    });
}

#[test]
fn gen_cofactor_ring_axioms() {
    for_cases("gen_cofactor_ring_axioms", |rng| {
        let (a, b, c) = (
            rand_gen_cofactor(rng),
            rand_gen_cofactor(rng),
            rand_gen_cofactor(rng),
        );
        axioms::check_ring_axioms(&a, &b, &c, 1e-6);
    });
}

#[test]
fn cofactor_deletion_cancels_insertion() {
    for_cases("cofactor_deletion_cancels_insertion", |rng| {
        let a = rand_cofactor(rng);
        let cancelled = a.add(&a.neg());
        assert!(cancelled.is_zero() || cancelled.approx_eq(&Cofactor::zero(), 1e-9));
    });
}

#[test]
fn gen_cofactor_scale_matches_repeated_add() {
    for_cases("gen_cofactor_scale_matches_repeated_add", |rng| {
        let a = rand_gen_cofactor(rng);
        let k = rng.gen_range(0..5i64);
        let mut acc = GenCofactor::zero();
        for _ in 0..k {
            acc.add_assign(&a);
        }
        assert!(a.scale_int(k).approx_eq(&acc, 1e-7));
    });
}
