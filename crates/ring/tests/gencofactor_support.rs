//! The support-aware `Elem × Elem` product of the generalized cofactor ring
//! against an oracle that never takes that arm.
//!
//! `GenCofactor::fma_scaled` skips the cross terms of every `(i, j)` pair
//! whose operands cannot contribute (no mass of one at `i` or of the other
//! at `j`, or no categorical mass on either side).  The skip must be
//! invisible.  Every element is a sum of *monomials* — a coefficient times
//! a product of attribute lifts — and the ring distributes, so
//! `acc += s·(A·B)` equals the sum over monomial pairs of
//! `s·(m_a·m_b)`, where each pair product is built by chaining the sparse
//! singleton-lift accumulators (`fma_lift_continuous` /
//! `fma_lift_categorical`) and folded in through the `Elem × Scalar` arm.
//! All inputs are small dyadic rationals, so every sum and product is exact
//! in `f64` and the two sides must agree **bit for bit** whatever the
//! association.

use fivm_common::EncodedValue;
use fivm_ring::{GenCofactor, Ring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
enum Lift {
    Continuous { idx: usize, x: f64 },
    Categorical { idx: usize, attr: usize, v: i64 },
}

/// A coefficient times a product of lifts.
type Monomial = (f64, Vec<Lift>);

/// `cur · g(v)` through the sparse-lift accumulators only.
fn times_lift(cur: &GenCofactor, dim: usize, lift: Lift) -> GenCofactor {
    let mut out = GenCofactor::zero();
    match lift {
        Lift::Continuous { idx, x } => out.fma_lift_continuous(cur, dim, idx, x, 1),
        Lift::Categorical { idx, attr, v } => {
            out.fma_lift_categorical(cur, dim, idx, attr, EncodedValue::int(v), 1)
        }
    }
    out
}

/// `coeff · Π lifts`, chained left to right.
fn product(dim: usize, coeff: f64, lifts: impl Iterator<Item = Lift>) -> GenCofactor {
    lifts.fold(GenCofactor::scalar(coeff), |cur, l| {
        times_lift(&cur, dim, l)
    })
}

fn sum_of(dim: usize, monomials: &[Monomial]) -> GenCofactor {
    let mut out = GenCofactor::zero();
    for (c, lifts) in monomials {
        out.add_assign(&product(dim, *c, lifts.iter().copied()));
    }
    out
}

/// Asserts two elements equal component by component, weights by bits.
fn assert_bit_identical(dim: usize, got: &GenCofactor, want: &GenCofactor, what: &str) {
    let bits = |x: f64| x.to_bits();
    assert_eq!(bits(got.count()), bits(want.count()), "{what}: count");
    for i in 0..dim {
        assert_eq!(
            bits(got.sum_scalar(i)),
            bits(want.sum_scalar(i)),
            "{what}: s[{i}] scalar"
        );
        for j in i..dim {
            assert_eq!(
                bits(got.prod_scalar(i, j)),
                bits(want.prod_scalar(i, j)),
                "{what}: Q[{i},{j}] scalar"
            );
        }
    }
    let (g, w) = (got.to_dense(dim), want.to_dense(dim));
    let rel_pairs = (0..dim)
        .map(|i| (g.sum_cats(i), w.sum_cats(i), format!("s[{i}]")))
        .chain(
            (0..dim)
                .flat_map(|i| (i..dim).map(move |j| (i, j)))
                .map(|(i, j)| (g.prod_cats(i, j), w.prod_cats(i, j), format!("Q[{i},{j}]"))),
        );
    for (gr, wr, name) in rel_pairs {
        assert_eq!(gr.len(), wr.len(), "{what}: {name} cardinality");
        for (k, x) in gr.iter() {
            assert_eq!(bits(x), bits(wr.get_key(k)), "{what}: {name} at {k:?}");
        }
    }
    assert_eq!(got.is_zero(), want.is_zero(), "{what}: is_zero");
}

#[test]
fn support_aware_product_matches_the_monomial_expansion_bit_for_bit() {
    let xs = [-2.0, -1.0, 0.5, 1.0, 2.0, 3.0];
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5A99 + seed);
        let dim = rng.gen_range(2..7usize);
        // Per attribute index: continuous or categorical, and the key tag a
        // categorical one uses — usually its own index, sometimes a tag
        // shared with a neighbour, so joins filter on the shared attribute.
        let categorical: Vec<bool> = (0..dim).map(|_| rng.gen_bool(0.6)).collect();
        let attr: Vec<usize> = (0..dim)
            .map(|i| {
                if i > 0 && rng.gen_bool(0.25) {
                    i - 1
                } else {
                    i
                }
            })
            .collect();
        // Operand supports: a partition of the indices (join-tree operands)
        // or two arbitrary overlapping subsets.
        let disjoint = seed % 2 == 0;
        let side: Vec<(bool, bool)> = (0..dim)
            .map(|_| {
                if disjoint {
                    let a = rng.gen_bool(0.5);
                    (a, !a)
                } else {
                    (rng.gen_bool(0.6), rng.gen_bool(0.6))
                }
            })
            .collect();
        let mut monomials = |mine: &dyn Fn(usize) -> bool| -> Vec<Monomial> {
            let support: Vec<usize> = (0..dim).filter(|&i| mine(i)).collect();
            (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let mut lifts = Vec::new();
                    for &idx in &support {
                        if !rng.gen_bool(0.7) {
                            continue;
                        }
                        lifts.push(if categorical[idx] {
                            Lift::Categorical {
                                idx,
                                attr: attr[idx],
                                v: rng.gen_range(0..3),
                            }
                        } else {
                            Lift::Continuous {
                                idx,
                                x: xs[rng.gen_range(0..xs.len())],
                            }
                        });
                    }
                    ([1.0, -1.0, 2.0, 0.5][rng.gen_range(0..4usize)], lifts)
                })
                .collect()
        };
        let ma = monomials(&|i| side[i].0);
        let mb = monomials(&|i| side[i].1);
        // Dense operands even when a side drew no lift at all.
        let a = GenCofactor::Elem(sum_of(dim, &ma).to_dense(dim));
        let b = GenCofactor::Elem(sum_of(dim, &mb).to_dense(dim));

        for scale in [-2i64, -1, 1, 3] {
            for warm in [false, true] {
                let what = format!("seed {seed}, dim {dim}, scale {scale}, warm {warm}");
                // Into a fresh zero, or on top of earlier content.
                let start = if warm { a.add(&b) } else { GenCofactor::zero() };
                let mut got = start.clone();
                got.fma_scaled(&a, &b, scale);

                let mut want = start;
                for (ca, la) in &ma {
                    for (cb, lb) in &mb {
                        let pair = product(dim, ca * cb, la.iter().chain(lb).copied());
                        want.fma_scaled(&pair, &GenCofactor::one(), scale);
                    }
                }
                assert_bit_identical(dim, &got, &want, &what);
                // `mul` is the same arm into a fresh zero.
                if !warm && scale == 1 {
                    assert_bit_identical(dim, &a.mul(&b), &want, &format!("{what} (mul)"));
                    assert_bit_identical(dim, &b.mul(&a), &want, &format!("{what} (commuted)"));
                }
            }
        }
    }
}
