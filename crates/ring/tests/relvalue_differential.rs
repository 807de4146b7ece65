//! Seeded differential suite: the encoded relation ring ([`RelValue`])
//! against the boxed-`Value`-keyed reference implementation
//! ([`BoxedRelValue`]) under identical random operation streams.
//!
//! Mirrors `crates/common/tests/rawtable_differential.rs` one layer up: the
//! hash-once interior (encoded keys, caller-supplied hashes, eager pruning,
//! inline singletons) must be observationally identical to the straightforward
//! hash-map implementation on every ring operation, including the key edge
//! cases the encoding canonicalizes — strings (dictionary ids), integers,
//! `-0.0` vs `0.0`, and NaN payloads.

use fivm_common::{EncodedValue, Value};
use fivm_ring::{ApproxEq, GenCofactor, RelValue, Ring, RingCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/boxed.rs"]
mod boxed;
use boxed::BoxedRelValue;

/// The value pool: every kind the encoding must canonicalize, including the
/// `-0.0`/`0.0` pair and two NaN payloads that must collapse to one key.
fn value_pool() -> Vec<Value> {
    vec![
        Value::int(0),
        Value::int(1),
        Value::int(-7),
        Value::int(i64::MAX),
        Value::double(0.0),
        Value::double(-0.0),
        Value::double(2.5),
        Value::double(f64::NAN),
        Value::Double(fivm_common::OrdF64::new(f64::from_bits(0x7ff8_0000_0000_0001))),
        Value::str("red"),
        Value::str("blue"),
        Value::str(""),
        Value::Null,
    ]
}

/// Both representations of one random relation over up to `attrs`
/// attributes.
fn random_pair(
    rng: &mut StdRng,
    ctx: &RingCtx,
    pool: &[Value],
    attrs: u32,
    entries: usize,
) -> (RelValue, BoxedRelValue) {
    let mut enc = RelValue::empty();
    let mut boxed = BoxedRelValue::empty();
    for _ in 0..entries {
        let w = (rng.gen_range(-4..5i64)) as f64 * 0.5;
        match rng.gen_range(0..3) {
            // A scalar (empty-key) entry.
            0 => {
                enc.add_scaled(&RelValue::scalar(1.0), w);
                boxed.add_scaled(&BoxedRelValue::scalar(1.0), w);
            }
            // A singleton entry.
            1 => {
                let attr = rng.gen_range(0..attrs) as usize;
                let v = pool[rng.gen_range(0..pool.len())].clone();
                enc.add_scaled(&RelValue::weighted(attr, ctx.encode_value(&v), 1.0), w);
                boxed.add_scaled(&BoxedRelValue::weighted(attr, v, 1.0), w);
            }
            // A two-attribute entry, built by joining two singletons.
            _ => {
                let a1 = rng.gen_range(0..attrs) as usize;
                let a2 = ((a1 as u32 + 1 + rng.gen_range(0..attrs - 1)) % attrs) as usize;
                let v1 = pool[rng.gen_range(0..pool.len())].clone();
                let v2 = pool[rng.gen_range(0..pool.len())].clone();
                enc.fma_scaled(
                    &RelValue::weighted(a1, ctx.encode_value(&v1), 1.0),
                    &RelValue::weighted(a2, ctx.encode_value(&v2), 1.0),
                    1,
                );
                boxed.fma_scaled(
                    &BoxedRelValue::weighted(a1, v1, 1.0),
                    &BoxedRelValue::weighted(a2, v2, 1.0),
                    1,
                );
                let _ = w;
            }
        }
    }
    (enc, boxed)
}

/// Asserts the two representations hold identical relations (canonical
/// decoded listings, weights bit-for-bit).
fn assert_same(ctx: &RingCtx, enc: &RelValue, boxed: &BoxedRelValue, what: &str) {
    let decoded = ctx.with_dict(|d| enc.decode_entries(d));
    let reference = boxed.sorted_entries();
    assert_eq!(
        decoded.len(),
        reference.len(),
        "{what}: cardinality diverged ({} encoded vs {} boxed)",
        decoded.len(),
        reference.len()
    );
    for ((dk, dw), (rk, rw)) in decoded.iter().zip(reference.iter()) {
        assert_eq!(dk, rk, "{what}: keys diverged");
        assert!(
            dw == rw || (dw.is_nan() && rw.is_nan()),
            "{what}: weight diverged at {dk:?}: {dw} vs {rw}"
        );
    }
    assert_eq!(enc.is_zero(), boxed.is_zero(), "{what}: is_zero diverged");
}

#[test]
fn random_operation_streams_agree_with_the_boxed_reference() {
    let pool = value_pool();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF + seed);
        let ctx = RingCtx::new();
        let (mut enc_acc, mut boxed_acc) = random_pair(&mut rng, &ctx, &pool, 4, 6);
        for step in 0..60 {
            let what = format!("seed {seed}, step {step}");
            match rng.gen_range(0..6) {
                // add_assign of a random relation.
                0 => {
                    let (e, b) = random_pair(&mut rng, &ctx, &pool, 4, 4);
                    enc_acc.add_assign(&e);
                    boxed_acc.add_assign(&b);
                }
                // add_scaled, occasionally cancelling exactly.
                1 => {
                    let k = [2.0, -1.0, 0.0][rng.gen_range(0..3usize)];
                    let (e, b) = random_pair(&mut rng, &ctx, &pool, 4, 3);
                    enc_acc.add_scaled(&e, k);
                    boxed_acc.add_scaled(&b, k);
                }
                // fused multiply-add (join accumulate), insert and delete.
                2 => {
                    let scale = [1i64, -1, 2][rng.gen_range(0..3usize)];
                    let (e1, b1) = random_pair(&mut rng, &ctx, &pool, 3, 3);
                    let (e2, b2) = random_pair(&mut rng, &ctx, &pool, 4, 3);
                    enc_acc.fma_scaled(&e1, &e2, scale);
                    boxed_acc.fma_scaled(&b1, &b2, scale);
                }
                // full multiplication (replaces the accumulator).
                3 => {
                    let (e, b) = random_pair(&mut rng, &ctx, &pool, 3, 3);
                    enc_acc = enc_acc.mul(&e);
                    boxed_acc = boxed_acc.mul(&b);
                }
                // negation / integer scaling.
                4 => {
                    let k = rng.gen_range(-2..3i64);
                    enc_acc = enc_acc.scale_int(k);
                    boxed_acc = boxed_acc.scale_int(k);
                }
                // exact self-cancellation: x + (-x) prunes every key.
                _ => {
                    let neg_e = enc_acc.neg();
                    let neg_b = boxed_acc.neg();
                    let mut e = enc_acc.clone();
                    let mut b = boxed_acc.clone();
                    e.add_assign(&neg_e);
                    b.add_assign(&neg_b);
                    assert!(e.is_zero(), "{what}: encoded self-cancellation left keys");
                    assert!(b.is_zero(), "{what}: boxed self-cancellation left keys");
                }
            }
            assert_same(&ctx, &enc_acc, &boxed_acc, &what);
        }
    }
}

#[test]
fn canonical_float_keys_collapse_identically() {
    let ctx = RingCtx::new();
    // -0.0 and 0.0 are one key in both representations (OrdF64 semantics).
    let enc = RelValue::weighted(0, ctx.encode_value(&Value::double(0.0)), 1.0).add(
        &RelValue::weighted(0, ctx.encode_value(&Value::double(-0.0)), 2.0),
    );
    let boxed = BoxedRelValue::weighted(0, Value::double(0.0), 1.0)
        .add(&BoxedRelValue::weighted(0, Value::double(-0.0), 2.0));
    assert_eq!(enc.len(), 1);
    assert_same(&ctx, &enc, &boxed, "-0.0/0.0 collapse");

    // All NaN payloads are one key.
    let nan_a = Value::double(f64::NAN);
    let nan_b = Value::Double(fivm_common::OrdF64::new(f64::from_bits(0x7ff8_0000_0000_0001)));
    let enc = RelValue::weighted(1, ctx.encode_value(&nan_a), 1.0).add(&RelValue::weighted(
        1,
        ctx.encode_value(&nan_b),
        1.0,
    ));
    let boxed = BoxedRelValue::weighted(1, nan_a, 1.0).add(&BoxedRelValue::weighted(1, nan_b, 1.0));
    assert_eq!(enc.len(), 1);
    assert_same(&ctx, &enc, &boxed, "NaN collapse");

    // Int(0), Double(0.0), Null and the first interned string stay
    // distinct keys despite sharing payload word 0.
    let zeros = [
        Value::int(0),
        Value::double(0.0),
        Value::Null,
        Value::str("s"),
    ];
    let mut enc = RelValue::empty();
    let mut boxed = BoxedRelValue::empty();
    for v in &zeros {
        enc.add_assign(&RelValue::weighted(2, ctx.encode_value(v), 1.0));
        boxed.add_assign(&BoxedRelValue::weighted(2, v.clone(), 1.0));
    }
    assert_eq!(enc.len(), 4);
    assert_same(&ctx, &enc, &boxed, "zero-word kinds stay distinct");
}

#[test]
fn string_joins_agree_across_attributes() {
    let ctx = RingCtx::new();
    let red = ctx.encode_value(&Value::str("red"));
    let blue = ctx.encode_value(&Value::str("blue"));
    // (A=red)·2 ⋈ ((B=red) + (B=blue)) — join over different attributes
    // with shared string values.
    let enc = RelValue::weighted(0, red, 2.0).mul(
        &RelValue::indicator(1, red).add(&RelValue::indicator(1, blue)),
    );
    let boxed = BoxedRelValue::weighted(0, Value::str("red"), 2.0).mul(
        &BoxedRelValue::indicator(1, Value::str("red"))
            .add(&BoxedRelValue::indicator(1, Value::str("blue"))),
    );
    assert_eq!(enc.len(), 2);
    assert_same(&ctx, &enc, &boxed, "string join");
    // Conflicting shared attribute annihilates in both.
    let enc2 = enc.mul(&RelValue::indicator(0, blue));
    let boxed2 = boxed.mul(&BoxedRelValue::indicator(0, Value::str("blue")));
    assert!(enc2.is_zero() && boxed2.is_zero());
}

/// A relation's interior changes shape with its number of distinct keys —
/// nothing, an inline singleton, a table — and the shape must be
/// unobservable.  Seeded streams walk one accumulator through
/// `Empty → One → Table → (cancel) → 1 entry → 0 → refill` against the
/// boxed reference, with every kind of key (strings, `-0.0`, NaN, NULL)
/// taking its turn in the inline slot.
#[test]
fn representation_transitions_agree_with_the_boxed_reference() {
    let pool = value_pool();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x0E1A + seed);
        let ctx = RingCtx::new();
        let mut enc = RelValue::empty();
        let mut boxed = BoxedRelValue::empty();
        // Both sides of one weighted singleton `{(attr = v) -> w}`.
        let single = |attr: usize, v: &Value, w: f64| {
            (
                RelValue::weighted(attr, ctx.encode_value(v), w),
                BoxedRelValue::weighted(attr, v.clone(), w),
            )
        };
        for cycle in 0..6 {
            let what = |stage: &str| format!("seed {seed}, cycle {cycle}, {stage}");
            // Empty → One: a random key takes the inline slot.
            let first = pool[rng.gen_range(0..pool.len())].clone();
            let w1 = [0.5, -1.5, 2.0][rng.gen_range(0..3usize)];
            let (e, b) = single(0, &first, w1);
            enc.add_assign(&e);
            boxed.add_assign(&b);
            assert_same(&ctx, &enc, &boxed, &what("empty -> one"));
            assert_eq!(enc.len(), 1);

            // A different key with the weight that would cancel the inline
            // entry must not cancel it: One → Table.
            let mut second = pool[rng.gen_range(0..pool.len())].clone();
            while second == first {
                second = pool[rng.gen_range(0..pool.len())].clone();
            }
            let (e, b) = single(0, &second, -w1);
            enc.add_assign(&e);
            boxed.add_assign(&b);
            assert_same(&ctx, &enc, &boxed, &what("one -> table"));
            assert_eq!(
                enc.len(),
                2,
                "{}",
                what("a different key cancelled the inline entry")
            );

            // Grow the table by a few more keys (other attribute, joins).
            let (e, b) = random_pair(&mut rng, &ctx, &pool, 4, 5);
            enc.add_assign(&e);
            boxed.add_assign(&b);
            assert_same(&ctx, &enc, &boxed, &what("table growth"));

            // Cancel everything but the first key: a one-entry table that
            // equals the inline singleton holding the same entry.
            let (e, b) = single(0, &first, w1);
            let (mut rest_e, mut rest_b) = (enc.clone(), boxed.clone());
            rest_e.add_scaled(&e, -1.0);
            rest_b.add_scaled(&b, -1.0);
            enc.add_scaled(&rest_e, -1.0);
            boxed.add_scaled(&rest_b, -1.0);
            assert_same(&ctx, &enc, &boxed, &what("cancel to one entry"));
            assert_eq!(enc.len(), 1);
            assert_eq!(enc, e, "{}", what("one-entry table != inline singleton"));
            assert_eq!(e, enc, "{}", what("inline singleton != one-entry table"));
            assert!(enc.approx_eq(&e, 0.0) && e.approx_eq(&enc, 0.0));
            assert!(enc.allocated_bytes() > 0 && e.allocated_bytes() == 0);
            // A rebuild picks the inline shape again and changes nothing.
            assert_eq!(enc.clone(), enc);
            assert_eq!(enc.clone().allocated_bytes(), 0);
            // A near-equal inline singleton is approx-equal, not equal.
            let (near, _) = single(0, &first, w1 + 1e-13);
            assert!(near.approx_eq(&enc, 1e-9) && enc.approx_eq(&near, 1e-9));
            assert_ne!(near, enc);

            // → 0: the last entry cancels exactly.
            enc.add_scaled(&e, -1.0);
            boxed.add_scaled(&b, -1.0);
            assert_same(&ctx, &enc, &boxed, &what("cancel to zero"));
            assert!(enc.is_zero() && enc == RelValue::empty());

            // Every other cycle the accumulator goes back to the pool, as
            // the engine's delta payloads do; the refill then starts from
            // a kept (cleared) table instead of the empty shape.
            if cycle % 2 == 1 {
                enc.reset_zero();
                boxed.reset_zero();
            }
        }
    }
}

/// The vector shape's own transitions, one key at a time against the boxed
/// reference: `One → Small` at the second distinct key, growth to the byte
/// budget (eight entries, never more than 384 heap bytes), the spill into a
/// table one key past it, and — on a fresh vector — a removal mid-vector
/// (the later entries keep their arrival order), the refill after it, and a
/// cancellation to zero that keeps the vector for the next refill.
#[test]
fn small_vector_transitions_agree_with_the_boxed_reference() {
    const BUDGET: usize = 384;
    let mut pool = value_pool();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5A11 + seed);
        let ctx = RingCtx::new();
        // Distinct keys: the pool's values (as keys, so -0.0/0.0 and the
        // two NaNs count once) in a seeded order under attribute 0, then
        // integers under attribute 1 — more than a vector holds.
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.gen_range(0..=i));
        }
        let mut keys: Vec<(usize, Value)> = Vec::new();
        for v in &pool {
            if !keys.iter().any(|(_, k)| k == v) {
                keys.push((0, v.clone()));
            }
        }
        keys.extend((0..4).map(|i| (1, Value::int(100 + i))));
        let weighted = |(attr, v): &(usize, Value), w: f64| {
            (
                RelValue::weighted(*attr, ctx.encode_value(v), w),
                BoxedRelValue::weighted(*attr, v.clone(), w),
            )
        };
        let what = |stage: &str| format!("seed {seed}, {stage}");

        // Empty → One → Small → (budget) → Table, one distinct key a step.
        let mut enc = RelValue::empty();
        let mut boxed = BoxedRelValue::empty();
        for (n, key) in keys.iter().take(10).enumerate() {
            let (e, b) = weighted(key, [0.5, -1.5, 2.0, 3.0][rng.gen_range(0..4usize)]);
            enc.add_assign(&e);
            boxed.add_assign(&b);
            let stage = what(&format!("{} keys", n + 1));
            assert_same(&ctx, &enc, &boxed, &stage);
            assert_eq!(enc.len(), n + 1, "{stage}");
            let heap = enc.allocated_bytes();
            match n + 1 {
                1 => assert_eq!(heap, 0, "{stage}: not inline"),
                2..=8 => assert!(heap > 0 && heap <= BUDGET, "{stage}: {heap} B"),
                _ => assert!(heap > BUDGET, "{stage}: did not spill ({heap} B)"),
            }
        }

        // A fresh vector: removal mid-vector, refill, cancel to zero.
        let len = rng.gen_range(3..=8usize);
        let mut enc = RelValue::empty();
        let mut boxed = BoxedRelValue::empty();
        let mut order = Vec::new();
        for key in &keys[..len] {
            let (e, b) = weighted(key, 1.0);
            enc.add_assign(&e);
            boxed.add_assign(&b);
            order.push(e.iter().next().expect("one entry").0.clone());
        }
        let in_order = |enc: &RelValue| enc.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(in_order(&enc), order, "{}", what("arrival order"));
        let mid = rng.gen_range(1..len - 1);
        let (e, b) = weighted(&keys[mid], -1.0);
        enc.add_assign(&e);
        boxed.add_assign(&b);
        let gone = order.remove(mid);
        assert_same(&ctx, &enc, &boxed, &what("removal mid-vector"));
        assert_eq!(in_order(&enc), order, "{}", what("order after removal"));
        let (e, b) = weighted(&keys[mid], 2.0);
        enc.add_assign(&e);
        boxed.add_assign(&b);
        order.push(gone);
        assert_same(&ctx, &enc, &boxed, &what("refill"));
        assert_eq!(in_order(&enc), order, "{}", what("order after refill"));
        let bytes = enc.allocated_bytes();
        let (mut rest_e, mut rest_b) = (enc.clone(), boxed.clone());
        rest_e.add_scaled(&enc, -2.0);
        rest_b.add_scaled(&boxed, -2.0);
        enc.add_assign(&rest_e);
        boxed.add_assign(&rest_b);
        assert_same(&ctx, &enc, &boxed, &what("cancel to zero"));
        assert!(enc.is_zero() && enc == RelValue::empty());
        assert_eq!(enc.allocated_bytes(), bytes, "{}", what("vector dropped"));
        let (e, b) = weighted(&keys[0], 1.0);
        enc.add_assign(&e);
        boxed.add_assign(&b);
        assert_same(&ctx, &enc, &boxed, &what("refill after zero"));
        assert_eq!(
            enc.allocated_bytes(),
            bytes,
            "{}",
            what("refill reallocated")
        );
    }
}

/// Adversarial weights through every interior shape (inline, vector at and
/// below the budget, table), against the boxed reference: NaN never
/// cancels, `inf + -inf` is NaN and not a removal, a `-0.0` contribution
/// is skipped, and a delete of a never-inserted key leaves a negative
/// weight that survives until the insert cancels it.  `is_zero` must agree
/// with the reference after every step.
#[test]
fn adversarial_weights_through_every_shape_end_in_the_oracles_answer() {
    let ctx = RingCtx::new();
    for size in [0usize, 1, 4, 7, 12] {
        let mut enc = RelValue::empty();
        let mut boxed = BoxedRelValue::empty();
        let add = |enc: &mut RelValue, boxed: &mut BoxedRelValue, attr: usize, v: i64, w: f64| {
            enc.add_assign(&RelValue::weighted(
                attr,
                ctx.encode_value(&Value::int(v)),
                w,
            ));
            boxed.add_assign(&BoxedRelValue::weighted(attr, Value::int(v), w));
        };
        // The background fixes the shape the adversarial keys land in.
        for i in 0..size {
            add(&mut enc, &mut boxed, 3, i as i64, 1.0);
        }
        let what = |stage: &str| format!("{size} background keys, {stage}");
        let steps: &[(&str, i64, f64)] = &[
            ("-0.0 into a fresh key", 10, -0.0),
            ("NaN", 11, f64::NAN),
            ("NaN cancelled by -NaN", 11, -f64::NAN),
            ("+inf", 12, f64::INFINITY),
            ("inf + -inf", 12, f64::NEG_INFINITY),
            ("delete of a never-inserted key", 13, -1.0),
            ("-0.0 into a live key", 13, -0.0),
            ("its insert", 13, 1.0),
        ];
        for &(stage, v, w) in steps {
            add(&mut enc, &mut boxed, 0, v, w);
            assert_same(&ctx, &enc, &boxed, &what(stage));
        }
        let nan = enc.get(&[(0, EncodedValue::int(11))]);
        assert!(nan.is_nan(), "{}", what("NaN cancelled"));
        assert!(
            enc.get(&[(0, EncodedValue::int(12))]).is_nan(),
            "{}",
            what("inf + -inf")
        );
        assert_eq!(enc.get(&[(0, EncodedValue::int(10))]), 0.0);
        assert_eq!(enc.get(&[(0, EncodedValue::int(13))]), 0.0);
        // Draining the background leaves exactly the two NaN keys: not zero.
        for i in 0..size {
            add(&mut enc, &mut boxed, 3, i as i64, -1.0);
        }
        assert_same(&ctx, &enc, &boxed, &what("drained"));
        assert_eq!(enc.len(), 2);
        assert!(!enc.is_zero());
        // A relation that only ever saw -0.0 and a delete-then-insert is
        // an exact zero in both.
        let mut enc = RelValue::empty();
        let mut boxed = BoxedRelValue::empty();
        for i in 0..size {
            add(&mut enc, &mut boxed, 3, i as i64, 1.0);
        }
        for &(v, w) in &[(20, -0.0), (21, -1.0), (21, 1.0)] {
            add(&mut enc, &mut boxed, 0, v, w);
        }
        for i in 0..size {
            add(&mut enc, &mut boxed, 3, i as i64, -1.0);
        }
        assert_same(&ctx, &enc, &boxed, &what("exact zero"));
        assert!(enc.is_zero());
    }
}

/// The same adversarial weights through the sparse component list of a
/// generalized cofactor — a fresh payload and a pooled one — against one
/// boxed relation per component, accumulated with the contributions the
/// ring owes it: a categorical lift over a scalar accumulator (`s_0` and
/// `Q_00` gain `scale·w·{c}`) and a categorical × continuous product (`s_0`
/// and `Q_00` gain `scale·{c}`, `Q_01` gains `scale·x·{c}`).
#[test]
fn adversarial_weights_through_the_sparse_component_list_end_in_the_oracles_answer() {
    let dim = 3;
    let tri = |i: usize, j: usize| dim + i * dim - i * (i + 1) / 2 + j;
    let ctx = RingCtx::new();
    let (c, d) = (Value::str("c"), Value::str("d"));
    let (ec, ed) = (ctx.encode_value(&c), ctx.encode_value(&d));
    let weights = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 2.0];
    for (&x, pooled) in weights.iter().flat_map(|x| [(x, false), (x, true)]) {
        let mut payload = GenCofactor::zero();
        if pooled {
            payload = GenCofactor::lift_categorical(dim, 0, 0, ec)
                .mul(&GenCofactor::lift_continuous(dim, 1, 1.0))
                .add(&GenCofactor::lift_categorical(dim, 0, 0, ed));
            payload.reset_zero();
        }
        let mut oracle = vec![BoxedRelValue::empty(); dim + dim * (dim + 1) / 2];
        let check = |payload: &GenCofactor, oracle: &[BoxedRelValue], stage: &str| {
            let what = format!("x = {x}, pooled = {pooled}, {stage}");
            let dense = payload.to_dense(dim);
            for i in 0..dim {
                assert_same(
                    &ctx,
                    dense.sum_cats(i),
                    &oracle[i],
                    &format!("{what}: s[{i}]"),
                );
                for j in i..dim {
                    let name = format!("{what}: Q[{i},{j}]");
                    assert_same(&ctx, dense.prod_cats(i, j), &oracle[tri(i, j)], &name);
                }
            }
            let dense_zero = payload.count() == 0.0
                && (0..dim).all(|i| {
                    payload.sum_scalar(i) == 0.0
                        && (i..dim).all(|j| payload.prod_scalar(i, j) == 0.0)
                });
            let expected = dense_zero && oracle.iter().all(BoxedRelValue::is_zero);
            assert_eq!(payload.is_zero(), expected, "{what}: is_zero");
        };
        let tuple = GenCofactor::lift_categorical(dim, 0, 0, ec)
            .mul(&GenCofactor::lift_continuous(dim, 1, x));
        let onehot = |v: &Value| BoxedRelValue::weighted(0, v.clone(), 1.0);
        for scale in [1i64, -1] {
            // Insert, then delete, the tuple `{c} × x`.
            payload.fma_scaled(&tuple, &GenCofactor::one(), scale);
            let s = scale as f64;
            oracle[0].add_scaled(&onehot(&c), s);
            oracle[tri(0, 0)].add_scaled(&onehot(&c), s);
            oracle[tri(0, 1)].add_scaled(&onehot(&c), s * x);
            check(&payload, &oracle, &format!("tuple, scale {scale}"));
        }
        // A weight-`x` categorical lift over a scalar accumulator, then its
        // delete; and a delete of a never-inserted category, then its insert.
        for (v, e, w, scale) in [
            (&c, ec, x, 1i64),
            (&c, ec, x, -1),
            (&d, ed, 1.0, -1),
            (&d, ed, 1.0, 1),
        ] {
            payload.fma_lift_categorical(&GenCofactor::scalar(w), dim, 0, 0, e, scale);
            let k = scale as f64 * w;
            if w != 0.0 {
                oracle[0].add_scaled(&onehot(v), k);
                oracle[tri(0, 0)].add_scaled(&onehot(v), k);
            }
            check(
                &payload,
                &oracle,
                &format!("lift of {v:?} · {w}, scale {scale}"),
            );
        }
        if x.is_finite() {
            assert!(payload.is_zero(), "x = {x}: finite churn did not cancel");
        }
    }
}

/// The inline slot stores the key's hash beside it; a join result, a scaled
/// copy and a rekeyed copy of an inline singleton must all carry a hash
/// that still finds the key (so a later promotion buckets it correctly).
#[test]
fn inline_singletons_keep_their_hash_through_every_rebuild() {
    let ctx = RingCtx::new();
    for v in value_pool() {
        let one = RelValue::weighted(1, ctx.encode_value(&v), 2.0);
        assert_eq!(one.allocated_bytes(), 0);
        let joined = one.mul(&RelValue::weighted(
            2,
            ctx.encode_value(&Value::str("j")),
            0.5,
        ));
        for r in [one.neg(), one.scale_int(3), one.clone(), joined] {
            assert_eq!(r.len(), 1);
            assert_eq!(
                r.allocated_bytes(),
                0,
                "{v:?}: a one-entry rebuild left the inline shape"
            );
            let (h, k, w) = r.iter_hashed().next().expect("one entry");
            assert_eq!(h, k.fx_hash(), "{v:?}: stored hash went stale");
            // Promote by a second key, then look the first one up again.
            let mut grown = r.clone();
            grown.add_assign(&RelValue::weighted(
                3,
                ctx.encode_value(&Value::int(9)),
                1.0,
            ));
            assert_eq!(grown.len(), 2);
            assert_eq!(grown.get_key(k), w);
        }
    }
}
