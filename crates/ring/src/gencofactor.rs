//! The generalized degree-m matrix ring with relational values.
//!
//! This is the composition of the cofactor ring with the relation ring used
//! by the paper to unify continuous and categorical attributes: the entries
//! of the sum vector `s` and the interaction matrix `Q` are relations
//! ([`RelValue`]) instead of scalars.
//!
//! * For a continuous attribute `X`, `s_X` and `Q_XX` hold relations over the
//!   empty schema (plain sums).
//! * For a categorical attribute `X`, `s_X = SUM(1) GROUP BY X` and
//!   `Q_XY = SUM(...) GROUP BY` the categorical attributes among `{X, Y}` —
//!   a compact one-hot encoding that only stores categories present in the
//!   join result.
//!
//! The very same structure doubles as the **mutual information (MI)** payload
//! when every attribute is lifted categorically: `c = SUM(1)`,
//! `s_X = SUM(1) GROUP BY X` and `Q_XY = SUM(1) GROUP BY (X, Y)` are exactly
//! the aggregates needed to compute pairwise MI.
//!
//! The count component stays a scalar: it is never grouped by anything.
//!
//! # The split representation
//!
//! Semantically every component is a relation, but its empty-key ("scalar")
//! mass — the continuous sums and products — behaves exactly like the plain
//! cofactor ring, and storing it inside a hash table makes every continuous
//! accumulation a table probe.  [`GenCofactorElem`] therefore *splits* each
//! component: the empty-key weights live in dense fields (`sums_scalar`, a
//! packed [`SymMatrix`] for the products — literally a [`crate::CofactorElem`]
//! shape, sharing its auto-vectorized slice kernels), and the interior
//! relations hold **only non-empty keys**.  That invariant makes the split
//! canonical, so component-wise equality is sound, and it turns the dense
//! half of every GenCofactor operation into straight-line `f64` slice
//! arithmetic.  Composed views (empty key folded back in) are available at
//! the output boundary via [`GenCofactorElem::sum`] /
//! [`GenCofactorElem::prod`].
//!
//! The categorical half is **sparse**: one list of `(component id,
//! relation)` pairs sorted by id — `i` for `s_i`, `dim + tri_index(i, j)`
//! for `Q_ij` — holding only the components with categorical mass, as the
//! paper's one-hot encoding stores only the categories present in the join
//! result.  A payload of one joined tuple with a categorical lift has mass
//! in two or three of Favorita's 65 categorical components, so the list
//! holds those and nothing else; an absent component reads as a shared
//! empty relation, so the accessors keep their `&RelValue` signatures.
//! Every operation visits the list by a sorted merge or a binary search,
//! and an accumulation lists a new component only when it leaves mass in
//! it.  Each component still receives its contributions in the order a
//! dense walk would give them, so every weight is the same to the bit.
//! The categorical components of a single joined tuple hold one key each,
//! and a one-entry [`RelValue`] is stored inline — so a single-tuple payload
//! owns its dense half and one short list, and lifting a category into a
//! pooled payload allocates nothing.
//!
//! # The support-aware product
//!
//! The `Elem × Elem` arm of [`Ring::fma_scaled`] owes every interaction
//! `Q_ij` the cross terms `s_a[i] ⋈ s_b[j] + s_b[i] ⋈ s_a[j]`.  The operands
//! of a view-tree product cover *disjoint* attribute sets (each variable is
//! lifted in one subtree), so for most `(i, j)` one factor of each term is
//! zero.  The arm derives, per call and from the operands alone, which
//! indices carry any mass and which carry categorical mass (two bit sets
//! per operand, `dim` emptiness checks each — nothing stored, nothing to
//! keep in sync) and visits the cross terms of a pair only if one of them
//! can be non-zero.  Skipped calls are exactly the ones that would have
//! returned without touching the accumulator, so results are unchanged to
//! the bit (`tests/gencofactor_support.rs` checks against an expansion
//! into sparse-lift monomials that never takes this arm).
//!
//! # The sparse lift path
//!
//! A lifted input value is extremely sparse: count 1, one non-zero `s`
//! entry, one non-zero `Q` entry.  Materializing it as a dense element
//! costs `dim + dim·(dim+1)/2` relation buffers per input row — the
//! dominant cost of GenCofactor-bound workloads.  The fused accumulators
//! [`GenCofactor::fma_lift_continuous`] and
//! [`GenCofactor::fma_lift_categorical`] apply `self += (acc · g(v)) ·
//! scale` directly from the lift's three non-zero components, touching only
//! the rows/columns of the lifted index beyond a scaled copy of `acc` —
//! the generalized-ring extension of the PR-1 in-place contract
//! (`fivm_ring::axioms::check_inplace_ops`), wired to the engine through
//! [`crate::LiftFn::with_fma_encoded`].  Their batch forms
//! ([`GenCofactor::fma_lift_continuous_sums`],
//! [`GenCofactor::fma_lift_categorical_weighted`]) accumulate a whole run of
//! scalar-weight delta rows with the promote/dispatch hoisted out of the
//! loop — the columnar kernel's `LiftFn::with_fma_batch` channel.

use crate::relkey::RelKey;
use crate::relvalue::RelValue;
use crate::ring::{approx_f64, ApproxEq, Ring};
use crate::symmatrix::SymMatrix;
use fivm_common::{Dict, EncodedValue};

/// A value of the generalized (relational) cofactor ring.
#[derive(Clone, Debug, PartialEq)]
pub enum GenCofactor {
    /// `(c, 0, 0)` — a pure count, valid for any dimension.
    Scalar(f64),
    /// A full `(c, s, Q)` triple with relational entries.
    Elem(GenCofactorElem),
}

/// Dense representation of a generalized cofactor element of dimension `m`,
/// in split form (see the module docs): continuous (empty-key) mass in
/// dense scalar fields, categorical mass in a sparse list of relations that
/// never contain the empty key.
#[derive(Debug)]
pub struct GenCofactorElem {
    /// The count aggregate `SUM(1)`.
    pub count: f64,
    /// Empty-key weight of each linear aggregate (`SUM(X_i)` for a
    /// continuous attribute `i`; 0 for categorical attributes).
    pub(crate) sums_scalar: Vec<f64>,
    /// Empty-key weights of the interaction aggregates (`SUM(X_i·X_j)`),
    /// packed upper triangle.
    pub(crate) prods_scalar: SymMatrix,
    /// Categorical parts of the linear and interaction aggregates that
    /// hold any, as `(component id, relation)` sorted by id: `i` for `s_i`,
    /// `dim + tri_index(dim, i, j)` for `Q_ij`.  An absent id is the empty
    /// relation.  Invariant: no empty keys — that mass lives in the dense
    /// fields.  A listed relation may be empty (cancelled in place, or
    /// kept by `reset_zero` for its buffer); equality, `is_zero` and
    /// [`Clone`] look through such components, and a clone drops them.
    pub(crate) cats: Vec<(u32, RelValue)>,
}

/// The relation every component absent from a component list reads as.
static NO_MASS: RelValue = RelValue::empty();

#[inline]
fn tri_len(dim: usize) -> usize {
    dim * (dim + 1) / 2
}

#[inline]
fn tri_index(dim: usize, i: usize, j: usize) -> usize {
    let (i, j) = if i <= j { (i, j) } else { (j, i) };
    debug_assert!(j < dim);
    i * dim - i * (i + 1) / 2 + j
}

/// The component id of the interaction `(i, j)` in a dimension-`dim`
/// component list (linear aggregate `i` is id `i`).
#[inline]
fn prod_id(dim: usize, i: usize, j: usize) -> u32 {
    (dim + tri_index(dim, i, j)) as u32
}

/// Runs `f` on component `id` of a component list.  An absent component
/// is built in a local and listed only if `f` leaves mass in it, so an
/// accumulation that adds nothing touches nothing.
#[inline]
fn update_cat(cats: &mut Vec<(u32, RelValue)>, id: u32, f: impl FnOnce(&mut RelValue)) {
    match cats.binary_search_by_key(&id, |&(c, _)| c) {
        Ok(p) => f(&mut cats[p].1),
        Err(p) => {
            let mut fresh = RelValue::empty();
            f(&mut fresh);
            if !fresh.is_empty() {
                cats.insert(p, (id, fresh));
            }
        }
    }
}

/// The listed components that hold mass.
fn live(cats: &[(u32, RelValue)]) -> impl Iterator<Item = &(u32, RelValue)> {
    cats.iter().filter(|(_, r)| !r.is_empty())
}

/// `dst += k · src` over whole component lists — a sorted merge: a
/// component both hold accumulates in place; one only `src` holds is
/// listed as a right-sized scaled copy (the entries, order and bits the
/// accumulation into an empty relation would give).
fn add_cats_scaled(dst: &mut Vec<(u32, RelValue)>, src: &[(u32, RelValue)], k: f64) {
    if k == 0.0 {
        return;
    }
    let mut p = 0;
    for (id, r) in live(src) {
        while p < dst.len() && dst[p].0 < *id {
            p += 1;
        }
        if p < dst.len() && dst[p].0 == *id {
            dst[p].1.add_scaled(r, k);
        } else {
            let copy = r.map_weights(|w| k * w);
            if copy.is_empty() {
                continue;
            }
            dst.insert(p, (*id, copy));
        }
        p += 1;
    }
}

/// The non-empty components of a list, right-sized: the list and each
/// relation rebuilt at their length (through `f`, which may also rekey or
/// scale a relation; a result that came out empty is dropped).
fn rebuild_cats(
    cats: &[(u32, RelValue)],
    mut f: impl FnMut(&RelValue) -> RelValue,
) -> Vec<(u32, RelValue)> {
    let mut out = Vec::with_capacity(live(cats).count());
    for (id, r) in live(cats) {
        let r = f(r);
        if !r.is_empty() {
            out.push((*id, r));
        }
    }
    out
}

/// The composed (relation) view of a split component: the categorical part
/// plus the empty-key scalar mass.
fn compose(scalar: f64, cats: &RelValue) -> RelValue {
    let mut out = cats.clone();
    if scalar != 0.0 {
        out.add_entry(&RelKey::empty(), scalar);
    }
    out
}

/// Which linear aggregates of an element carry mass, as two bit sets over
/// the attribute index: `cat` — the categorical part of `s_i` is
/// non-empty; `any` — that, or the continuous mass `sums_scalar[i]` is
/// non-zero.  Derived from the operands at every product (a dozen
/// emptiness checks), never stored, so there is nothing to keep in sync.
/// Indices past the 64 a word holds read as carrying mass, which only
/// costs them the skip.
#[derive(Clone, Copy)]
struct Support {
    any: u64,
    cat: u64,
}

impl Support {
    fn of(e: &GenCofactorElem) -> Support {
        let mut cat = 0u64;
        for (i, _) in e.sum_parts().filter(|&(i, _)| i < 64) {
            cat |= 1 << i;
        }
        let mut any = cat;
        for (i, &x) in e.sums_scalar.iter().enumerate().take(64) {
            any |= u64::from(x != 0.0) << i;
        }
        Support { any, cat }
    }

    #[inline]
    fn any(self, i: usize) -> bool {
        i >= 64 || (self.any >> i) & 1 == 1
    }

    #[inline]
    fn cat(self, i: usize) -> bool {
        i >= 64 || (self.cat >> i) & 1 == 1
    }
}

impl GenCofactorElem {
    /// A zero element of dimension `dim`: the dense half, and an empty
    /// component list that allocates on its first categorical component.
    pub fn zeros(dim: usize) -> Self {
        GenCofactorElem {
            count: 0.0,
            sums_scalar: vec![0.0; dim],
            prods_scalar: SymMatrix::zeros(dim),
            cats: Vec::new(),
        }
    }

    /// Builds an element from *composed* per-component relations (empty-key
    /// mass included), splitting each into the dense scalar fields and the
    /// cats-only interior — the snapshot-decode constructor.  The input
    /// relations are moved into the component list, so restored components
    /// keep their right-sized interiors (zero growth rehashes); components
    /// with no categorical mass are not listed.
    pub fn from_composed(count: f64, mut sums: Vec<RelValue>, mut prods: Vec<RelValue>) -> Self {
        let dim = sums.len();
        assert_eq!(prods.len(), tri_len(dim), "packed triangle length mismatch");
        let mut sums_scalar = vec![0.0; dim];
        for (dst, s) in sums_scalar.iter_mut().zip(&mut sums) {
            *dst = s.take_scalar_part();
        }
        let mut prods_scalar = SymMatrix::zeros(dim);
        let mut t = 0;
        for i in 0..dim {
            for j in i..dim {
                let w = prods[t].take_scalar_part();
                if w != 0.0 {
                    prods_scalar.set(i, j, w);
                }
                t += 1;
            }
        }
        let live = sums.iter().chain(&prods).filter(|r| !r.is_empty()).count();
        let mut cats = Vec::with_capacity(live);
        for (id, r) in sums.into_iter().chain(prods).enumerate() {
            if !r.is_empty() {
                cats.push((id as u32, r));
            }
        }
        GenCofactorElem {
            count,
            sums_scalar,
            prods_scalar,
            cats,
        }
    }

    /// The dimension `m`.
    pub fn dim(&self) -> usize {
        self.sums_scalar.len()
    }

    /// Component `id`'s categorical part (the empty relation when absent).
    #[inline]
    fn cat(&self, id: u32) -> &RelValue {
        match self.cats.binary_search_by_key(&id, |&(c, _)| c) {
            Ok(p) => &self.cats[p].1,
            Err(_) => &NO_MASS,
        }
    }

    /// The non-empty categorical parts of the linear aggregates, as
    /// `(i, s_i)` in index order (they lead the component list).
    fn sum_parts(&self) -> impl Iterator<Item = (usize, &RelValue)> {
        let dim = self.dim();
        live(&self.cats)
            .take_while(move |&&(id, _)| (id as usize) < dim)
            .map(|(id, r)| (*id as usize, r))
    }

    /// The empty-key (continuous) mass of the linear aggregate `idx`.
    #[inline]
    pub fn sum_scalar(&self, idx: usize) -> f64 {
        self.sums_scalar[idx]
    }

    /// The categorical part of the linear aggregate `idx` (no empty keys;
    /// a shared empty relation when it holds no categorical mass).
    #[inline]
    pub fn sum_cats(&self, idx: usize) -> &RelValue {
        assert!(
            idx < self.dim(),
            "aggregate {idx} out of bounds for dimension {}",
            self.dim()
        );
        self.cat(idx as u32)
    }

    /// The empty-key (continuous) mass of the interaction `(i, j)`.
    #[inline]
    pub fn prod_scalar(&self, i: usize, j: usize) -> f64 {
        self.prods_scalar.get(i, j)
    }

    /// The categorical part of the interaction `(i, j)` (no empty keys; a
    /// shared empty relation when it holds no categorical mass).
    #[inline]
    pub fn prod_cats(&self, i: usize, j: usize) -> &RelValue {
        let dim = self.dim();
        assert!(
            i < dim && j < dim,
            "interaction ({i}, {j}) out of bounds for dimension {dim}"
        );
        self.cat(prod_id(dim, i, j))
    }

    /// The composed linear aggregate `idx` as a relation (output boundary;
    /// allocates a fresh relation).
    pub fn sum(&self, idx: usize) -> RelValue {
        compose(self.sums_scalar[idx], self.sum_cats(idx))
    }

    /// The composed interaction `(i, j)` as a relation (output boundary;
    /// allocates a fresh relation).
    pub fn prod(&self, i: usize, j: usize) -> RelValue {
        compose(self.prod_scalar(i, j), self.prod_cats(i, j))
    }
}

impl GenCofactor {
    /// Lifts a **continuous** attribute value: `s_idx = {() -> x}`,
    /// `Q_idx,idx = {() -> x²}` — stored directly in the dense scalar
    /// fields of the split representation.
    pub fn lift_continuous(dim: usize, idx: usize, x: f64) -> Self {
        assert!(idx < dim, "lift index {idx} out of bounds for dimension {dim}");
        let mut e = GenCofactorElem::zeros(dim);
        e.count = 1.0;
        e.sums_scalar[idx] = x;
        e.prods_scalar.set(idx, idx, x * x);
        GenCofactor::Elem(e)
    }

    /// Lifts a **categorical** attribute value: `s_idx = {(attr=v) -> 1}`,
    /// `Q_idx,idx = {(attr=v) -> 1}`.
    ///
    /// `attr` is the attribute tag used inside relational keys; by
    /// convention the engine passes the feature index so keys are
    /// self-describing.  The value is already dictionary-encoded — string
    /// categories go through the engine's [`crate::RingCtx`] (integer and
    /// double categories encode without a dictionary,
    /// [`EncodedValue::int`] / [`EncodedValue::double`]).
    pub fn lift_categorical(dim: usize, idx: usize, attr: usize, value: EncodedValue) -> Self {
        assert!(idx < dim, "lift index {idx} out of bounds for dimension {dim}");
        let mut e = GenCofactorElem::zeros(dim);
        e.count = 1.0;
        e.cats = vec![
            (idx as u32, RelValue::indicator(attr, value)),
            (prod_id(dim, idx, idx), RelValue::indicator(attr, value)),
        ];
        GenCofactor::Elem(e)
    }

    /// A pure count element.
    pub fn scalar(c: f64) -> Self {
        GenCofactor::Scalar(c)
    }

    /// The count component.
    pub fn count(&self) -> f64 {
        match self {
            GenCofactor::Scalar(c) => *c,
            GenCofactor::Elem(e) => e.count,
        }
    }

    /// The composed linear aggregate relation for attribute `idx` (empty
    /// for scalars).  Output boundary — allocates; hot paths use
    /// [`GenCofactor::sum_scalar`] / [`GenCofactor::sum_cats`].
    pub fn sum(&self, idx: usize) -> RelValue {
        match self {
            GenCofactor::Scalar(_) => RelValue::empty(),
            GenCofactor::Elem(e) => {
                if idx < e.dim() {
                    e.sum(idx)
                } else {
                    RelValue::empty()
                }
            }
        }
    }

    /// The empty-key (continuous) mass of linear aggregate `idx` (0 for
    /// scalars).
    pub fn sum_scalar(&self, idx: usize) -> f64 {
        match self {
            GenCofactor::Scalar(_) => 0.0,
            GenCofactor::Elem(e) => e.sums_scalar.get(idx).copied().unwrap_or(0.0),
        }
    }

    /// The categorical part of linear aggregate `idx` (`None` for scalars,
    /// which have no relational components to borrow).
    pub fn sum_cats(&self, idx: usize) -> Option<&RelValue> {
        match self {
            GenCofactor::Scalar(_) => None,
            GenCofactor::Elem(e) => (idx < e.dim()).then(|| e.sum_cats(idx)),
        }
    }

    /// The composed interaction relation for `(i, j)` (empty for scalars).
    /// Output boundary — allocates; hot paths use
    /// [`GenCofactor::prod_scalar`] / [`GenCofactor::prod_cats`].
    pub fn prod(&self, i: usize, j: usize) -> RelValue {
        match self {
            GenCofactor::Scalar(_) => RelValue::empty(),
            GenCofactor::Elem(e) => e.prod(i, j),
        }
    }

    /// The empty-key (continuous) mass of interaction `(i, j)` (0 for
    /// scalars).
    pub fn prod_scalar(&self, i: usize, j: usize) -> f64 {
        match self {
            GenCofactor::Scalar(_) => 0.0,
            GenCofactor::Elem(e) => e.prod_scalar(i, j),
        }
    }

    /// The categorical part of interaction `(i, j)` (`None` for scalars).
    pub fn prod_cats(&self, i: usize, j: usize) -> Option<&RelValue> {
        match self {
            GenCofactor::Scalar(_) => None,
            GenCofactor::Elem(e) => Some(e.prod_cats(i, j)),
        }
    }

    /// The dimension, if the element carries one.
    pub fn dim(&self) -> Option<usize> {
        match self {
            GenCofactor::Scalar(_) => None,
            GenCofactor::Elem(e) => Some(e.dim()),
        }
    }

    /// Materializes a dense element of dimension `dim`.
    pub fn to_dense(&self, dim: usize) -> GenCofactorElem {
        match self {
            GenCofactor::Scalar(c) => {
                let mut e = GenCofactorElem::zeros(dim);
                e.count = *c;
                e
            }
            GenCofactor::Elem(e) => {
                assert_eq!(e.dim(), dim, "generalized cofactor dimension mismatch");
                e.clone()
            }
        }
    }

    fn scale_all(&self, k: f64) -> Self {
        if k == 0.0 {
            return GenCofactor::Scalar(0.0);
        }
        match self {
            GenCofactor::Scalar(c) => GenCofactor::Scalar(c * k),
            GenCofactor::Elem(e) => {
                let mut prods_scalar = e.prods_scalar.clone();
                prods_scalar.scale_in_place(k);
                GenCofactor::Elem(GenCofactorElem {
                    count: e.count * k,
                    sums_scalar: e.sums_scalar.iter().map(|&x| x * k).collect(),
                    prods_scalar,
                    cats: rebuild_cats(&e.cats, |r| r.map_weights(|w| w * k)),
                })
            }
        }
    }

    /// Turns `self` into a dense element of dimension `dim` (keeping the
    /// count) and returns it; allocates only when `self` was a scalar.
    fn promote_to_elem(&mut self, dim: usize) -> &mut GenCofactorElem {
        if let GenCofactor::Scalar(c) = *self {
            let mut e = GenCofactorElem::zeros(dim);
            e.count = c;
            *self = GenCofactor::Elem(e);
        }
        match self {
            GenCofactor::Elem(e) => {
                assert_eq!(e.dim(), dim, "generalized cofactor dimension mismatch");
                e
            }
            GenCofactor::Scalar(_) => unreachable!("promoted above"),
        }
    }

    /// Sparse-lift fused accumulate, continuous:
    /// `self += (acc · lift_continuous(dim, idx, x)) · scale` without
    /// materializing the lifted element.  For a scalar `acc` this touches
    /// three dense scalars (no table traffic at all in the split
    /// representation); for a dense `acc` the continuous half is slice
    /// arithmetic plus a rank-one cross update on the packed triangle, and
    /// only the categorical parts walk relation tables.
    pub fn fma_lift_continuous(
        &mut self,
        acc: &GenCofactor,
        dim: usize,
        idx: usize,
        x: f64,
        scale: i64,
    ) {
        if scale == 0 {
            return;
        }
        let s = scale as f64;
        match acc {
            GenCofactor::Scalar(c) => {
                if *c == 0.0 {
                    return;
                }
                let o = self.promote_to_elem(dim);
                let sc = s * c;
                o.count += sc;
                o.sums_scalar[idx] += sc * x;
                o.prods_scalar.add_at(idx, idx, sc * x * x);
            }
            GenCofactor::Elem(a) => {
                assert_eq!(a.dim(), dim, "generalized cofactor dimension mismatch");
                let o = self.promote_to_elem(dim);
                o.count += s * a.count;
                // The lift's count is 1: every component of `acc` joins a
                // plain scalar, i.e. accumulates as a scaled copy.
                for (dst, &src) in o.sums_scalar.iter_mut().zip(&a.sums_scalar) {
                    *dst += s * src;
                }
                o.prods_scalar.add_scaled(&a.prods_scalar, s);
                add_cats_scaled(&mut o.cats, &a.cats, s);
                // s_idx gains x per joined tuple: s · x · acc.count.
                o.sums_scalar[idx] += s * x * a.count;
                // Cross terms touch only row/column idx; the (idx, idx)
                // cell receives both symmetric halves.  Only the linear
                // aggregates of `acc` with categorical mass contribute.
                o.prods_scalar
                    .add_rank_one_cross_scaled(idx, &a.sums_scalar, s * x);
                for (i, part) in a.sum_parts() {
                    let factor = if i == idx { 2.0 * s * x } else { s * x };
                    update_cat(&mut o.cats, prod_id(dim, i, idx), |q| {
                        q.add_scaled(part, factor)
                    });
                }
                o.prods_scalar.add_at(idx, idx, s * x * x * a.count);
            }
        }
    }

    /// Batch-fused continuous lift for a run of **scalar-weight**
    /// accumulators: `self += Σ_i w_i · lift_continuous(dim, idx, x_i)`
    /// reduced to its three horizontal sums `(Σw, Σw·x, Σw·x²)` — the whole
    /// run costs three dense scalar updates.  The batch channel behind
    /// `LiftFn::with_fma_batch` for the generalized continuous lift.
    pub fn fma_lift_continuous_sums(
        &mut self,
        dim: usize,
        idx: usize,
        sw: f64,
        swx: f64,
        swx2: f64,
    ) {
        if sw == 0.0 && swx == 0.0 && swx2 == 0.0 {
            return;
        }
        let o = self.promote_to_elem(dim);
        o.count += sw;
        o.sums_scalar[idx] += swx;
        o.prods_scalar.add_at(idx, idx, swx2);
    }

    /// Sparse-lift fused accumulate, categorical:
    /// `self += (acc · lift_categorical(dim, idx, attr, value)) · scale`.
    /// The singleton key `(attr = value)` is built and hashed exactly once;
    /// for a scalar `acc` the whole accumulation is two relation upserts.
    pub fn fma_lift_categorical(
        &mut self,
        acc: &GenCofactor,
        dim: usize,
        idx: usize,
        attr: usize,
        value: EncodedValue,
        scale: i64,
    ) {
        if scale == 0 {
            return;
        }
        let s = scale as f64;
        let key = RelKey::singleton(attr as u32, value);
        let hash = key.fx_hash();
        match acc {
            GenCofactor::Scalar(c) => {
                if *c == 0.0 {
                    return;
                }
                let o = self.promote_to_elem(dim);
                let sc = s * c;
                o.count += sc;
                update_cat(&mut o.cats, idx as u32, |r| {
                    r.add_entry_prehashed(hash, &key, sc)
                });
                update_cat(&mut o.cats, prod_id(dim, idx, idx), |r| {
                    r.add_entry_prehashed(hash, &key, sc)
                });
            }
            GenCofactor::Elem(a) => {
                assert_eq!(a.dim(), dim, "generalized cofactor dimension mismatch");
                let o = self.promote_to_elem(dim);
                o.count += s * a.count;
                for (dst, &src) in o.sums_scalar.iter_mut().zip(&a.sums_scalar) {
                    *dst += s * src;
                }
                o.prods_scalar.add_scaled(&a.prods_scalar, s);
                add_cats_scaled(&mut o.cats, &a.cats, s);
                // s_idx = SUM(1) GROUP BY attr over the joined tuples.
                update_cat(&mut o.cats, idx as u32, |r| {
                    r.add_entry_prehashed(hash, &key, s * a.count)
                });
                // Cross terms: acc.s[i] ⋈ {attr = value}, row and column of
                // idx; (idx, idx) receives both symmetric halves.  The
                // accumulator's empty-key mass joins the singleton to a
                // singleton, so every contribution lands in cats; an `i`
                // where `acc` holds no mass contributes nothing.
                for i in 0..dim {
                    let scalar_i = a.sums_scalar[i];
                    let part = a.cat(i as u32);
                    if scalar_i == 0.0 && part.is_empty() {
                        continue;
                    }
                    let halves = if i == idx { 2 } else { 1 };
                    update_cat(&mut o.cats, prod_id(dim, i, idx), |q| {
                        for _ in 0..halves {
                            if scalar_i != 0.0 {
                                q.add_entry_prehashed(hash, &key, s * scalar_i);
                            }
                            q.fma_indicator(part, attr as u32, value, s);
                        }
                    });
                }
                update_cat(&mut o.cats, prod_id(dim, idx, idx), |q| {
                    q.add_entry_prehashed(hash, &key, s * a.count)
                });
            }
        }
    }

    /// Batch-fused categorical lift for a run of **scalar-weight**
    /// accumulators: `self += Σ_i w_i · lift_categorical(dim, idx, attr,
    /// ev_i)`.  One promote/dispatch for the whole run; each row is one
    /// hashed singleton key and two prehashed upserts (rows applied in
    /// slice order, so per-key accumulation matches the per-row sequence
    /// exactly).  The batch channel behind `LiftFn::with_fma_batch` for the
    /// generalized categorical lift.
    pub fn fma_lift_categorical_weighted(
        &mut self,
        dim: usize,
        idx: usize,
        attr: usize,
        evs: &[EncodedValue],
        ws: &[f64],
    ) {
        debug_assert_eq!(evs.len(), ws.len());
        let o = self.promote_to_elem(dim);
        let diag = prod_id(dim, idx, idx);
        for (&ev, &w) in evs.iter().zip(ws) {
            if w == 0.0 {
                continue;
            }
            let key = RelKey::singleton(attr as u32, ev);
            let hash = key.fx_hash();
            o.count += w;
            update_cat(&mut o.cats, idx as u32, |r| {
                r.add_entry_prehashed(hash, &key, w)
            });
            update_cat(&mut o.cats, diag, |r| r.add_entry_prehashed(hash, &key, w));
        }
    }

    /// Sum of interior-table rehash events over every relational component.
    pub fn table_rehashes(&self) -> u64 {
        match self {
            GenCofactor::Scalar(_) => 0,
            GenCofactor::Elem(e) => e.cats.iter().map(|(_, r)| r.table_rehashes()).sum(),
        }
    }

    /// Heap bytes of this element's interior allocations: the dense scalar
    /// buffers, the component list at its capacity — which is where inline
    /// one-entry relations live, at `size_of::<(u32, RelValue)>()` per
    /// component — plus the vector or boxed table of every component that
    /// holds one (see [`RelValue::allocated_bytes`] for the accounting
    /// boundary).  Scalars own nothing.
    pub fn allocated_bytes(&self) -> usize {
        match self {
            GenCofactor::Scalar(_) => 0,
            GenCofactor::Elem(e) => {
                e.sums_scalar.capacity() * std::mem::size_of::<f64>()
                    + e.prods_scalar.heap_bytes()
                    + e.cats.capacity() * std::mem::size_of::<(u32, RelValue)>()
                    + e.cats
                        .iter()
                        .map(|(_, r)| r.allocated_bytes())
                        .sum::<usize>()
            }
        }
    }
}

impl Ring for GenCofactor {
    fn zero() -> Self {
        GenCofactor::Scalar(0.0)
    }

    fn one() -> Self {
        GenCofactor::Scalar(1.0)
    }

    fn is_zero(&self) -> bool {
        match self {
            GenCofactor::Scalar(c) => *c == 0.0,
            GenCofactor::Elem(e) => {
                e.count == 0.0
                    && e.sums_scalar.iter().all(|&x| x == 0.0)
                    && e.prods_scalar.is_zero()
                    && e.cats.iter().all(|(_, r)| r.is_zero())
            }
        }
    }

    fn add(&self, rhs: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    fn add_assign(&mut self, rhs: &Self) {
        match (&mut *self, rhs) {
            (GenCofactor::Scalar(a), GenCofactor::Scalar(b)) => *a += b,
            (GenCofactor::Elem(a), GenCofactor::Scalar(b)) => a.count += b,
            (GenCofactor::Elem(a), GenCofactor::Elem(b)) => {
                assert_eq!(
                    a.dim(),
                    b.dim(),
                    "cannot add generalized cofactors of dimensions {} and {}",
                    a.dim(),
                    b.dim()
                );
                a.count += b.count;
                for (x, &y) in a.sums_scalar.iter_mut().zip(&b.sums_scalar) {
                    *x += y;
                }
                a.prods_scalar.add_scaled(&b.prods_scalar, 1.0);
                add_cats_scaled(&mut a.cats, &b.cats, 1.0);
            }
            (slot @ GenCofactor::Scalar(_), GenCofactor::Elem(b)) => {
                let mut out = b.clone();
                if let GenCofactor::Scalar(a) = slot {
                    out.count += *a;
                }
                *slot = GenCofactor::Elem(out);
            }
        }
    }

    fn mul(&self, rhs: &Self) -> Self {
        // The fused accumulate into a fresh zero covers every shape pair
        // (scalar arms stay scalar; zero factors never promote).
        let mut out = GenCofactor::zero();
        out.fma_scaled(self, rhs, 1);
        out
    }

    fn fma_scaled(&mut self, a: &Self, b: &Self, scale: i64) {
        if scale == 0 {
            return;
        }
        let s = scale as f64;
        match (a, b) {
            (GenCofactor::Scalar(x), GenCofactor::Scalar(y)) => match self {
                GenCofactor::Scalar(c) => *c += s * x * y,
                GenCofactor::Elem(e) => e.count += s * x * y,
            },
            (GenCofactor::Scalar(x), GenCofactor::Elem(e))
            | (GenCofactor::Elem(e), GenCofactor::Scalar(x)) => {
                let k = s * x;
                if k == 0.0 {
                    return;
                }
                let o = self.promote_to_elem(e.dim());
                o.count += k * e.count;
                for (dst, &src) in o.sums_scalar.iter_mut().zip(&e.sums_scalar) {
                    *dst += k * src;
                }
                o.prods_scalar.add_scaled(&e.prods_scalar, k);
                add_cats_scaled(&mut o.cats, &e.cats, k);
            }
            (GenCofactor::Elem(ea), GenCofactor::Elem(eb)) => {
                assert_eq!(
                    ea.dim(),
                    eb.dim(),
                    "cannot multiply generalized cofactors of dimensions {} and {}",
                    ea.dim(),
                    eb.dim()
                );
                let dim = ea.dim();
                let o = self.promote_to_elem(dim);
                let (ka, kb) = (s * eb.count, s * ea.count);
                o.count += s * ea.count * eb.count;
                // Dense half: exactly the cofactor-ring fused multiply-add,
                // on the same vectorized SymMatrix/slice kernels.
                for (dst, &src) in o.sums_scalar.iter_mut().zip(&ea.sums_scalar) {
                    *dst += ka * src;
                }
                for (dst, &src) in o.sums_scalar.iter_mut().zip(&eb.sums_scalar) {
                    *dst += kb * src;
                }
                o.prods_scalar.add_scaled(&ea.prods_scalar, ka);
                o.prods_scalar.add_scaled(&eb.prods_scalar, kb);
                o.prods_scalar
                    .add_symmetric_outer_scaled(&ea.sums_scalar, &eb.sums_scalar, s);
                // Categorical half: the scaled copies of both operands'
                // components (every component receives `ka·a` before
                // `kb·b`, then its cross terms, as a dense walk would).
                add_cats_scaled(&mut o.cats, &ea.cats, ka);
                add_cats_scaled(&mut o.cats, &eb.cats, kb);
                // The cross terms of pair (i, j) are
                //   s·(s_a[i] ⋈ s_b[j]) + s·(s_b[i] ⋈ s_a[j]),
                // with the scalar×scalar parts already in `prods_scalar`
                // via the symmetric outer above: scalar×cats scales a
                // copy, cats×cats joins.  The first needs mass of `a` at i
                // and of `b` at j, one of them categorical; the second the
                // mirror image.  Join-tree operands cover disjoint
                // attribute sets, so most pairs have neither and are
                // skipped whole — every call skipped would have been a
                // no-op, so the result is the same to the bit.
                let (sa, sb) = (Support::of(ea), Support::of(eb));
                for i in 0..dim {
                    for j in i..dim {
                        let ab = sa.any(i) && sb.any(j) && (sa.cat(i) || sb.cat(j));
                        let ba = sb.any(i) && sa.any(j) && (sb.cat(i) || sa.cat(j));
                        if !(ab || ba) {
                            continue;
                        }
                        update_cat(&mut o.cats, prod_id(dim, i, j), |q| {
                            if ab {
                                let (ai, bj) = (ea.cat(i as u32), eb.cat(j as u32));
                                q.add_scaled(bj, s * ea.sums_scalar[i]);
                                q.add_scaled(ai, s * eb.sums_scalar[j]);
                                q.add_product_scaled(ai, bj, s);
                            }
                            if ba {
                                let (bi, aj) = (eb.cat(i as u32), ea.cat(j as u32));
                                q.add_scaled(aj, s * eb.sums_scalar[i]);
                                q.add_scaled(bi, s * ea.sums_scalar[j]);
                                q.add_product_scaled(bi, aj, s);
                            }
                        });
                    }
                }
            }
        }
    }

    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        match (self, rhs) {
            (GenCofactor::Scalar(a), GenCofactor::Scalar(b)) => {
                *out = GenCofactor::Scalar(a * b);
            }
            _ => {
                // Reuse `out`'s relation buffers when its shape matches by
                // resetting it to zero and running the fused accumulate.
                let dim = self.dim().or(rhs.dim()).expect("one operand is dense");
                match out {
                    GenCofactor::Elem(o) if o.dim() == dim => {
                        o.count = 0.0;
                        o.sums_scalar.fill(0.0);
                        o.prods_scalar.clear();
                        for (_, r) in &mut o.cats {
                            r.clear();
                        }
                    }
                    _ => *out = GenCofactor::Elem(GenCofactorElem::zeros(dim)),
                }
                out.fma_scaled(self, rhs, 1);
            }
        }
    }

    fn neg(&self) -> Self {
        self.scale_all(-1.0)
    }

    fn scale_int(&self, k: i64) -> Self {
        self.scale_all(k as f64)
    }

    fn reset_zero(&mut self) {
        match self {
            GenCofactor::Scalar(c) => *c = 0.0,
            GenCofactor::Elem(e) => {
                e.count = 0.0;
                e.sums_scalar.fill(0.0);
                e.prods_scalar.fill_zero();
                // Pool hygiene per component: keep (cleared) the ones whose
                // vector or table `RelValue::reset_zero` keeps — within its
                // byte budget — and unlist the rest, which have nothing
                // left to reuse.
                e.cats.retain_mut(|(_, r)| {
                    r.reset_zero();
                    r.allocated_bytes() > 0
                });
            }
        }
    }

    fn needs_rekey() -> bool {
        true
    }

    fn rekey(&self, src: &Dict, dst: &mut Dict) -> Self {
        match self {
            GenCofactor::Scalar(c) => GenCofactor::Scalar(*c),
            GenCofactor::Elem(e) => GenCofactor::Elem(GenCofactorElem {
                count: e.count,
                sums_scalar: e.sums_scalar.clone(),
                prods_scalar: e.prods_scalar.clone(),
                cats: rebuild_cats(&e.cats, |r| r.rekey_dicts(src, dst)),
            }),
        }
    }

    fn payload_rehashes(&self) -> u64 {
        self.table_rehashes()
    }

    fn payload_bytes(&self) -> usize {
        self.allocated_bytes()
    }

    fn scalar_weight(&self) -> Option<f64> {
        match self {
            GenCofactor::Scalar(c) => Some(*c),
            GenCofactor::Elem(_) => None,
        }
    }
}

impl ApproxEq for GenCofactor {
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        let dim = self.dim().or(other.dim());
        match dim {
            None => approx_f64(self.count(), other.count(), tol),
            Some(dim) => {
                let a = self.to_dense(dim);
                let b = other.to_dense(dim);
                approx_f64(a.count, b.count, tol)
                    && a.sums_scalar
                        .iter()
                        .zip(&b.sums_scalar)
                        .all(|(x, y)| approx_f64(*x, *y, tol))
                    && a.prods_scalar.approx_eq(&b.prods_scalar, tol)
                    // A component listed on one side only is compared with
                    // the other side's empty relation.
                    && a.cats.iter().all(|(id, r)| r.approx_eq(b.cat(*id), tol))
                    && b.cats.iter().all(|(id, r)| r.approx_eq(a.cat(*id), tol))
            }
        }
    }
}

impl Clone for GenCofactorElem {
    /// Clones are right-sized: components that hold no mass are not copied,
    /// and the list and each relation are rebuilt at their length — so a
    /// view payload cloned from a pooled scratch delta carries neither its
    /// retained empty components nor their capacity.
    fn clone(&self) -> Self {
        GenCofactorElem {
            count: self.count,
            sums_scalar: self.sums_scalar.clone(),
            prods_scalar: self.prods_scalar.clone(),
            cats: rebuild_cats(&self.cats, RelValue::clone),
        }
    }
}

impl PartialEq for GenCofactorElem {
    /// Equality of the aggregates: components listed but empty read as
    /// absent.
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sums_scalar == other.sums_scalar
            && self.prods_scalar == other.prods_scalar
            && live(&self.cats).eq(live(&other.cats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms;
    use crate::ctx::RingCtx;
    use fivm_common::Value;

    fn ev(x: i64) -> EncodedValue {
        EncodedValue::int(x)
    }

    #[test]
    fn continuous_lift_matches_cofactor_semantics() {
        let g = GenCofactor::lift_continuous(3, 1, 4.0);
        assert_eq!(g.count(), 1.0);
        assert_eq!(g.sum(1).scalar_part(), 4.0);
        assert_eq!(g.prod(1, 1).scalar_part(), 16.0);
        assert!(g.prod(0, 1).is_zero());
        // Split representation: the continuous mass lives in the dense
        // fields, the categorical interior stays empty.
        assert_eq!(g.sum_scalar(1), 4.0);
        assert_eq!(g.prod_scalar(1, 1), 16.0);
        assert!(g.sum_cats(1).expect("dense").is_empty());
    }

    #[test]
    fn categorical_lift_one_hot_encodes() {
        let ctx = RingCtx::new();
        let red = ctx.encode_value(&Value::str("red"));
        let g = GenCofactor::lift_categorical(3, 2, 2, red);
        assert_eq!(g.count(), 1.0);
        assert_eq!(g.sum(2).get(&[(2, red)]), 1.0);
        assert_eq!(g.prod(2, 2).get(&[(2, red)]), 1.0);
        assert!(g.sum(0).is_zero());
        assert_eq!(g.sum_scalar(2), 0.0);
    }

    #[test]
    fn figure1_covar_with_categorical_c() {
        // Figure 1, COVAR with categorical C and continuous B, D (b_i = d_i = i).
        // Variables indexed: B = 0, C = 1, D = 2.
        let ctx = RingCtx::new();
        let c1 = ctx.encode_value(&Value::str("c1"));
        let c2 = ctx.encode_value(&Value::str("c2"));
        // V_S(a1) = g_C(c1)*g_D(d1) + g_C(c2)*g_D(d3)
        let term1 = GenCofactor::lift_categorical(3, 1, 1, c1)
            .mul(&GenCofactor::lift_continuous(3, 2, 1.0));
        let term2 = GenCofactor::lift_categorical(3, 1, 1, c2)
            .mul(&GenCofactor::lift_continuous(3, 2, 3.0));
        let vs_a1 = term1.add(&term2);
        assert_eq!(vs_a1.count(), 2.0);
        // s_C = SUM(1) GROUP BY C = {c1 -> 1, c2 -> 1}
        assert_eq!(vs_a1.sum(1).get(&[(1, c1)]), 1.0);
        assert_eq!(vs_a1.sum(1).get(&[(1, c2)]), 1.0);
        // s_D = SUM(D) = 1 + 3
        assert_eq!(vs_a1.sum(2).scalar_part(), 4.0);
        // Q_CD = SUM(D) GROUP BY C = {c1 -> 1, c2 -> 3}
        assert_eq!(vs_a1.prod(1, 2).get(&[(1, c1)]), 1.0);
        assert_eq!(vs_a1.prod(1, 2).get(&[(1, c2)]), 3.0);

        // Join with V_R(a1) = g_B(b1) (B continuous, b1 = 1).
        let vr_a1 = GenCofactor::lift_continuous(3, 0, 1.0);
        let q = vr_a1.mul(&vs_a1);
        assert_eq!(q.count(), 2.0);
        // Q_BC = SUM(B) GROUP BY C = {c1 -> 1, c2 -> 1}
        assert_eq!(q.prod(0, 1).get(&[(1, c1)]), 1.0);
        assert_eq!(q.prod(0, 1).get(&[(1, c2)]), 1.0);
        // Q_BD = SUM(B*D) = 1*1 + 1*3 = 4
        assert_eq!(q.prod(0, 2).scalar_part(), 4.0);
    }

    #[test]
    fn mi_payload_counts_pairwise_cooccurrences() {
        // All attributes categorical: the payload holds C_X and C_XY counts.
        let t1 = GenCofactor::lift_categorical(2, 0, 0, ev(1))
            .mul(&GenCofactor::lift_categorical(2, 1, 1, ev(10)));
        let t2 = GenCofactor::lift_categorical(2, 0, 0, ev(1))
            .mul(&GenCofactor::lift_categorical(2, 1, 1, ev(20)));
        let total = t1.add(&t2);
        assert_eq!(total.count(), 2.0);
        assert_eq!(total.sum(0).get(&[(0, ev(1))]), 2.0);
        assert_eq!(total.sum(1).get(&[(1, ev(10))]), 1.0);
        assert_eq!(total.prod(0, 1).get(&[(0, ev(1)), (1, ev(10))]), 1.0);
        assert_eq!(total.prod(0, 1).get(&[(0, ev(1)), (1, ev(20))]), 1.0);
    }

    #[test]
    fn deletes_cancel() {
        let ctx = RingCtx::new();
        let a = ctx.encode_value(&Value::str("a"));
        let x = GenCofactor::lift_categorical(2, 0, 0, a)
            .mul(&GenCofactor::lift_continuous(2, 1, 2.0));
        assert!(x.add(&x.neg()).is_zero());
        assert!(x.scale_int(0).is_zero());
        assert_eq!(x.scale_int(-1), x.neg());
    }

    #[test]
    fn scalar_interactions() {
        let e = GenCofactor::lift_categorical(2, 0, 0, ev(5));
        let s = GenCofactor::scalar(3.0);
        let prod = s.mul(&e);
        assert_eq!(prod.count(), 3.0);
        assert_eq!(prod.sum(0).get(&[(0, ev(5))]), 3.0);
        let sum = s.add(&e);
        assert_eq!(sum.count(), 4.0);
        assert_eq!(sum.sum(0).get(&[(0, ev(5))]), 1.0);
        let sum_rev = e.add(&s);
        assert_eq!(sum, sum_rev);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn dimension_mismatch_panics() {
        let _ = GenCofactor::lift_continuous(2, 0, 1.0)
            .mul(&GenCofactor::lift_continuous(3, 0, 1.0));
    }

    #[test]
    fn ring_axioms_hold_approximately() {
        let ctx = RingCtx::new();
        let x = ctx.encode_value(&Value::str("x"));
        let a = GenCofactor::lift_categorical(3, 0, 0, x);
        let b = GenCofactor::lift_continuous(3, 1, 2.5)
            .mul(&GenCofactor::lift_categorical(3, 2, 2, ev(7)));
        let c = GenCofactor::scalar(2.0).add(&GenCofactor::lift_continuous(3, 1, -1.0));
        axioms::check_ring_axioms(&a, &b, &c, 1e-9);
    }

    /// The sparse-lift fused accumulators must agree exactly with
    /// materialize-then-fma for every accumulator shape.
    #[test]
    fn sparse_lift_fma_matches_materialized_lift() {
        let dim = 3;
        let accs = [
            GenCofactor::zero(),
            GenCofactor::scalar(2.5),
            GenCofactor::lift_categorical(dim, 0, 0, ev(4))
                .mul(&GenCofactor::lift_continuous(dim, 1, 1.5)),
            GenCofactor::lift_categorical(dim, 2, 2, ev(9)),
        ];
        for acc in &accs {
            for scale in [-2i64, -1, 0, 1, 3] {
                // Continuous lift at idx 1.
                let mut fused = acc.mul(acc);
                let mut reference = fused.clone();
                fused.fma_lift_continuous(acc, dim, 1, 2.0, scale);
                reference.fma_scaled(acc, &GenCofactor::lift_continuous(dim, 1, 2.0), scale);
                assert_eq!(fused, reference, "continuous, scale={scale}");

                // Categorical lift at idx 2 — shares attribute 0 categories
                // with the accumulator to exercise the join filter.
                let mut fused = acc.mul(acc);
                let mut reference = fused.clone();
                fused.fma_lift_categorical(acc, dim, 2, 0, ev(4), scale);
                reference.fma_scaled(
                    acc,
                    &GenCofactor::lift_categorical(dim, 2, 0, ev(4)),
                    scale,
                );
                assert_eq!(fused, reference, "categorical, scale={scale}");
            }
        }
    }

    /// The batch (run-of-scalar-weights) lift accumulators must agree with
    /// the per-row fused path exactly.
    #[test]
    fn batch_lifts_match_per_row_fma() {
        let dim = 3;
        let xs = [2.0, -1.5, 0.25, 4.0];
        let ws = [1.0, 2.0, -1.0, 3.0];
        // Continuous: per-row over scalar accumulators vs horizontal sums.
        let mut per_row = GenCofactor::zero();
        let (mut sw, mut swx, mut swx2) = (0.0, 0.0, 0.0);
        for (&x, &w) in xs.iter().zip(&ws) {
            per_row.fma_lift_continuous(&GenCofactor::scalar(w), dim, 1, x, 1);
            sw += w;
            swx += w * x;
            swx2 += w * x * x;
        }
        let mut batch = GenCofactor::zero();
        batch.fma_lift_continuous_sums(dim, 1, sw, swx, swx2);
        assert!(batch.approx_eq(&per_row, 1e-12));

        // Categorical: integer weights, exact equality.
        let evs = [ev(1), ev(2), ev(1), ev(3)];
        let mut per_row = GenCofactor::zero();
        for (&v, &w) in evs.iter().zip(&ws) {
            per_row.fma_lift_categorical(&GenCofactor::scalar(w), dim, 2, 2, v, 1);
        }
        let mut batch = GenCofactor::zero();
        batch.fma_lift_categorical_weighted(dim, 2, 2, &evs, &ws);
        assert_eq!(batch, per_row);
    }

    /// The split invariant: relational components never hold the empty key;
    /// `from_composed` splits exactly what `sum`/`prod` compose.
    #[test]
    fn split_representation_round_trips_through_composed_form() {
        let dim = 2;
        let mixed = GenCofactor::lift_continuous(dim, 0, 3.0)
            .mul(&GenCofactor::lift_categorical(dim, 1, 1, ev(7)))
            .add(&GenCofactor::lift_continuous(dim, 0, -1.0));
        let GenCofactor::Elem(e) = &mixed else {
            panic!("dense element expected");
        };
        for i in 0..dim {
            assert_eq!(e.sum_cats(i).scalar_part(), 0.0, "empty key leaked into sums_cats[{i}]");
            for j in i..dim {
                assert_eq!(e.prod_cats(i, j).scalar_part(), 0.0, "empty key leaked into prods_cats");
            }
        }
        let sums: Vec<RelValue> = (0..dim).map(|i| e.sum(i)).collect();
        let prods: Vec<RelValue> = (0..dim)
            .flat_map(|i| (i..dim).map(move |j| (i, j)))
            .map(|(i, j)| e.prod(i, j))
            .collect();
        let rebuilt = GenCofactorElem::from_composed(e.count, sums, prods);
        assert_eq!(&rebuilt, e);
    }

    /// An accumulation lists a component only when it leaves mass in it: a
    /// join that filters every key out (a category lifted against another
    /// value of the same attribute tag) and a zero continuous value add
    /// nothing, so they list nothing.
    #[test]
    fn accumulations_list_only_components_they_leave_mass_in() {
        let dim = 3;
        let acc = GenCofactor::lift_categorical(dim, 0, 0, ev(1));
        let mut out = GenCofactor::zero();
        // Q_01 = s_0 ⋈ {tag 0 = 2}: the shared tag disagrees.
        out.fma_lift_categorical(&acc, dim, 1, 0, ev(2), 1);
        // Q_02 = 0 · s_0.
        out.fma_lift_continuous(&acc, dim, 2, 0.0, 1);
        let GenCofactor::Elem(e) = &out else {
            panic!("dense element expected");
        };
        let listed: Vec<u32> = e.cats.iter().map(|(id, _)| *id).collect();
        // s_0 and Q_00 from the accumulator, s_1 and Q_11 from the lift.
        assert_eq!(listed, [0, 1, prod_id(dim, 0, 0), prod_id(dim, 1, 1)]);
        assert!(e.cats.iter().all(|(_, r)| !r.is_empty()));
        assert!(e.prod_cats(0, 1).is_empty() && e.prod_cats(0, 2).is_empty());
    }

    #[test]
    fn rekey_moves_string_categories_between_dictionaries() {
        let a = RingCtx::new();
        let red = a.encode_value(&Value::str("red"));
        let g = GenCofactor::lift_categorical(2, 0, 0, red)
            .mul(&GenCofactor::lift_continuous(2, 1, 2.0));
        let b = RingCtx::new();
        // "blue" takes id 0 in the destination — the same *encoding* as
        // "red" in the source.  Ids are dictionary-local; interpreting the
        // payload under `b` without rekeying would read the wrong string.
        let blue_first = b.encode_value(&Value::str("blue"));
        assert_eq!(red, blue_first);
        let moved = b.with_dict_mut(|dst| a.with_dict(|src| g.rekey(src, dst)));
        // Same decoded content under the destination dictionary.
        let red_b = b.encode_value(&Value::str("red"));
        assert_eq!(moved.sum(0).get(&[(0, red_b)]), 1.0);
        assert_eq!(moved.count(), g.count());
        assert!(GenCofactor::needs_rekey());
        assert!(!<f64 as Ring>::needs_rekey());
    }
}
