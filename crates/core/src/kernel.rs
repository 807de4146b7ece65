//! The shared delta-propagation kernel.
//!
//! Everything a maintenance pass needs at one view level — grouping input
//! rows into a keyed delta, probing sibling views to extend assignments,
//! applying lifts, accumulating contributions — lives here, decoupled from
//! any particular owner of the views.  The one driver,
//! [`crate::dag::DagEngine`], runs these functions across a shared
//! multi-query DAG where one produced delta fans out to several parents;
//! [`crate::engine::Engine`] is that driver hosting a single query, so a
//! standalone engine and a DAG agree bit for bit, which is what the DAG's
//! differential suite asserts.
//!
//! The kernel upholds the hash-once contract: every key is hashed exactly
//! once (when it is first gathered/encoded) and the hash travels with the
//! key through delta tables, view application and parent levels.

use crate::delta::{DeltaEntry, DeltaSlot, DeltaTable};
use crate::plan::{DeltaPlan, DeltaStep, DirectEmit, ProbeKind, ALREADY_BOUND};
use crate::view::MaterializedView;
use crate::EngineStats;
use fivm_common::{Dict, EncodedKey, EncodedValue, FivmError, Result, Value};
use fivm_ring::{LiftFn, Ring, RingCtx};

/// Debug-only tally backing the hash-once contract: within one
/// propagation level, the kernel may compute at most one hash per key it
/// materializes.  [`hash_tally::LevelScope`] brackets a level
/// ([`direct_level`] / [`probe_level`]); `note_key` marks every key
/// materialization (project / gather / passthrough clone) and `note_hash`
/// every `fx_hash` call.  The scope's drop asserts `hashes <= keys` — a
/// second hash of an already-materialized key (the regression the
/// contract forbids) pushes the tally over.  Outside a scope (ingestion's
/// `group_row`, ad-hoc callers) the notes no-op; release builds compile
/// the whole thing away.
#[cfg(debug_assertions)]
pub(crate) mod hash_tally {
    use std::cell::Cell;

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
        static KEYS: Cell<u64> = const { Cell::new(0) };
        static HASHES: Cell<u64> = const { Cell::new(0) };
    }

    /// RAII bracket around one propagation level.  `None` when a scope is
    /// already active on this thread (a nested level keeps the outer
    /// scope's tally — the contract is per outermost level).
    pub(crate) struct LevelScope {
        name: &'static str,
    }

    impl LevelScope {
        pub(crate) fn enter(name: &'static str) -> Option<LevelScope> {
            if ACTIVE.with(|a| a.replace(true)) {
                return None;
            }
            KEYS.with(|k| k.set(0));
            HASHES.with(|h| h.set(0));
            Some(LevelScope { name })
        }
    }

    impl Drop for LevelScope {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
            if std::thread::panicking() {
                return;
            }
            let keys = KEYS.with(Cell::get);
            let hashes = HASHES.with(Cell::get);
            assert!(
                hashes <= keys,
                "hash-once contract violated in {}: {hashes} hashes computed \
                 for {keys} materialized keys",
                self.name
            );
        }
    }

    #[inline]
    pub(crate) fn note_key() {
        if ACTIVE.with(Cell::get) {
            KEYS.with(|k| k.set(k.get() + 1));
        }
    }

    #[inline]
    pub(crate) fn note_hash() {
        if ACTIVE.with(Cell::get) {
            HASHES.with(|h| h.set(h.get() + 1));
        }
    }
}

/// Release builds: the tally is free.
#[cfg(not(debug_assertions))]
pub(crate) mod hash_tally {
    pub(crate) struct LevelScope;

    impl LevelScope {
        #[inline(always)]
        pub(crate) fn enter(_name: &'static str) -> Option<LevelScope> {
            None
        }
    }

    #[inline(always)]
    pub(crate) fn note_key() {}

    #[inline(always)]
    pub(crate) fn note_hash() {}
}

/// A memoized probe result for one probe depth, valid for the duration of
/// one propagation level (views are immutable while a level's delta is
/// being extended).  Grouped deltas on skewed data repeatedly probe the
/// same sub-key; the memo answers those repeats with a stored slot/bucket
/// handle instead of a table walk.
pub struct StepMemo {
    hash: u64,
    key: EncodedKey,
    state: MemoState,
}

enum MemoState {
    /// The memo holds nothing (level boundary).
    Invalid,
    /// Last probe of this depth missed.
    Miss,
    /// Last primary probe hit this view slot.
    Slot(u32),
    /// Last index probe hit this bucket handle.
    Bucket(usize),
}

impl StepMemo {
    /// A fresh (invalid) memo.
    pub fn new() -> Self {
        StepMemo {
            hash: 0,
            key: EncodedKey::empty(),
            state: MemoState::Invalid,
        }
    }

    /// Forgets the stored probe result (call at every level boundary).
    pub fn invalidate(&mut self) {
        self.state = MemoState::Invalid;
    }

    #[inline]
    fn matches(&self, hash: u64, key: &EncodedKey) -> bool {
        !matches!(self.state, MemoState::Invalid) && self.hash == hash && self.key == *key
    }

    /// Resolves a primary probe, consulting the memo first.
    #[inline]
    pub fn probe_primary<R: Ring>(
        &mut self,
        view: &MaterializedView<R>,
        hash: u64,
        key: EncodedKey,
    ) -> Option<u32> {
        if self.matches(hash, &key) {
            return match self.state {
                MemoState::Slot(slot) => Some(slot),
                _ => None,
            };
        }
        let found = view.find_slot(hash, &key);
        self.hash = hash;
        self.key = key;
        self.state = match found {
            Some(slot) => MemoState::Slot(slot),
            None => MemoState::Miss,
        };
        found
    }

    /// Resolves a secondary-index probe, consulting the memo first.
    #[inline]
    pub fn probe_index<R: Ring>(
        &mut self,
        view: &MaterializedView<R>,
        index_id: usize,
        hash: u64,
        key: EncodedKey,
    ) -> Option<usize> {
        if self.matches(hash, &key) {
            return match self.state {
                MemoState::Bucket(bucket) => Some(bucket),
                _ => None,
            };
        }
        let found = view.find_index_bucket(index_id, hash, &key);
        self.hash = hash;
        self.key = key;
        self.state = match found {
            Some(bucket) => MemoState::Bucket(bucket),
            None => MemoState::Miss,
        };
        found
    }
}

impl Default for StepMemo {
    fn default() -> Self {
        StepMemo::new()
    }
}

/// Reusable buffers for delta propagation, kept across updates so the hot
/// path performs no per-update container allocation.
pub struct PropagationScratch<R: Ring> {
    /// The delta being produced for the next level, keyed by precomputed
    /// hashes.
    pub next: DeltaTable<R>,
    /// Drained delta buffers kept for their capacity (at most
    /// `SPARE_CAP`); a finished level swaps its entries into one.
    pub spare: Vec<Vec<DeltaEntry<R>>>,
    /// The deltas of the pass in flight, one per non-empty level, kept
    /// until every parent has read them (empty between passes).
    pub arena: Vec<Vec<DeltaEntry<R>>>,
    /// The pass's fan-out queue: `(node, child position, arena index of
    /// the child's delta)` (empty between passes).
    pub queue: Vec<(usize, usize, usize)>,
    /// Per-probe-depth partial products (`acc * sibling payload`); their
    /// inner allocations (vectors, matrices, maps) are reused by
    /// [`Ring::mul_into`].
    pub partials: Vec<R>,
    /// Per-probe-depth memoized probe results (valid within one level).
    pub memo: Vec<StepMemo>,
    /// The assignment (bound variable values) at the current node, in
    /// encoded form — scatters and gathers are plain word copies.
    pub assignment: Vec<EncodedValue>,
    /// Recycled delta payloads: exact-zero ring values whose interior
    /// buffers (relation tables, cofactor matrices) are reused by the next
    /// level's accumulation instead of being freed and reallocated.
    /// Capped at [`POOL_CAP`], and disabled entirely for identity-only
    /// lift sets (e.g. COUNT): only the fused-lift emit arm draws from the
    /// pool, so an engine without non-identity lifts must not pay any
    /// pooling work (not even the pool vector's growth).
    pub pool: Vec<R>,
    /// Whether any lift can draw from the pool (see `pool`).
    pub pool_enabled: bool,
    /// Columnar scratch for probe-free levels (see [`direct_level`]); its
    /// column buffers are reused across updates like every other scratch
    /// buffer here.
    pub columns: LevelColumns,
}

/// Smallest level input (grouped delta entries, not update rows) that
/// [`direct_level`] and [`probe_level`] route to their columnar kernel;
/// below it the scalar walk runs (sorting a handful of entries costs more
/// than it fuses).
pub const COLUMNAR_MIN_ROWS: usize = 8;

/// Struct-of-arrays scratch for one probe-free propagation level: parallel
/// hash/key/value/weight column slices over the incoming delta, plus the
/// run-local gather buffers the batch lift channel consumes.  Owned by
/// [`PropagationScratch`] so a warm engine fills these columns without
/// allocating.
#[derive(Default)]
pub struct LevelColumns {
    /// Output keys, one per input row.
    keys: Vec<EncodedKey>,
    /// The lifted variable's encoded value per row.
    evs: Vec<EncodedValue>,
    /// The row payload's scalar mass, when it has one
    /// ([`Ring::scalar_weight`]); rows with `None` force the run onto the
    /// per-row fused path.
    scalar_ws: Vec<Option<f64>>,
    /// `(run hash, input index)` per row — the output-key hash on direct
    /// levels, a mix of the probe-key and output-key hashes on probe
    /// levels.  Sorting this flat column groups equal hashes — hence equal
    /// run identities — into adjacent spans in arrival order, without
    /// touching key words in the comparator.
    ord: Vec<(u64, u32)>,
    /// Output-key hashes, one per row (probe levels only; on direct levels
    /// `ord` already carries them).
    out_hashes: Vec<u64>,
    /// Gathered probe keys, `steps.len()` per row, row-major (probe levels
    /// only).
    probe_keys: Vec<EncodedKey>,
    /// Probe-key hashes, same stride as `probe_keys`.
    probe_hashes: Vec<u64>,
    /// Gathered encoded values of the current run (batch-channel operand).
    run_evs: Vec<EncodedValue>,
    /// Gathered scalar weights of the current run (batch-channel operand).
    run_ws: Vec<f64>,
    /// Sibling view slots the current run's probes resolved to.
    run_slots: Vec<u32>,
}

impl LevelColumns {
    /// Heap bytes of the column buffers (capacities × element size).
    fn allocated_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.keys)
            + bytes(&self.evs)
            + bytes(&self.scalar_ws)
            + bytes(&self.ord)
            + bytes(&self.out_hashes)
            + bytes(&self.probe_keys)
            + bytes(&self.probe_hashes)
            + bytes(&self.run_evs)
            + bytes(&self.run_ws)
            + bytes(&self.run_slots)
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.evs.clear();
        self.scalar_ws.clear();
        self.ord.clear();
        self.out_hashes.clear();
        self.probe_keys.clear();
        self.probe_hashes.clear();
    }
}

/// Order-insensitive is not required here — a fixed left fold of the
/// probe-key hashes and the output-key hash into one run identity.  Equal
/// `(probe keys…, output key)` tuples always collide (good: they must land
/// in one run); unequal tuples colliding is handled by the key-uniformity
/// check in [`probe_level`].
#[inline]
fn mix_hash(acc: u64, h: u64) -> u64 {
    (acc.rotate_left(5) ^ h).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Upper bound on pooled delta payloads (see `PropagationScratch::pool`).
pub const POOL_CAP: usize = 4096;

/// Upper bound on pooled delta buffers (see `PropagationScratch::spare`).
const SPARE_CAP: usize = 32;

/// Byte budget for the delta buffers a scratch keeps between propagations
/// (`next`, `columns`, `spare`).  [`PropagationScratch::trim`]
/// frees them all when their combined allocation exceeds it, so one bulk
/// load cannot leave load-sized buffers resident.  Sized so that steady
/// streams never reallocate: 1000-row Retailer COVAR batches hold 0.5 MB
/// through one view tree and 2 MB through the eight-query DAG.
pub const SCRATCH_KEEP_BYTES: usize = 8 << 20;

/// Empty scratch, sized by [`PropagationScratch::grow`].
impl<R: Ring> Default for PropagationScratch<R> {
    fn default() -> Self {
        PropagationScratch {
            next: DeltaTable::new(),
            spare: Vec::new(),
            arena: Vec::new(),
            queue: Vec::new(),
            partials: Vec::new(),
            memo: Vec::new(),
            assignment: Vec::new(),
            pool: Vec::new(),
            pool_enabled: false,
            columns: LevelColumns::default(),
        }
    }
}

impl<R: Ring> PropagationScratch<R> {
    /// Grows the per-depth and per-node buffers in place to a plan's
    /// deepest probe chain and widest node (every registered query can
    /// deepen or widen them).  Never shrinks.
    pub fn grow(&mut self, max_probe_depth: usize, max_local_vars: usize, pool_enabled: bool) {
        while self.partials.len() < max_probe_depth {
            self.partials.push(R::zero());
            self.memo.push(StepMemo::new());
        }
        if self.assignment.len() < max_local_vars {
            self.assignment.resize(max_local_vars, EncodedValue::NULL);
        }
        self.pool_enabled |= pool_enabled;
    }

    /// Empties a consumed delta buffer, keeping its capacity (its payloads
    /// were applied to the view by reference): each payload is reset to an
    /// exact zero keeping its in-budget buffers and pooled, up to
    /// [`POOL_CAP`] payloads, when the pool is enabled.
    pub fn clear_buffer(&mut self, buffer: &mut Vec<DeltaEntry<R>>) {
        if !self.pool_enabled {
            buffer.clear();
            return;
        }
        for (_, _, mut payload) in buffer.drain(..) {
            if self.pool.len() < POOL_CAP {
                payload.reset_zero();
                self.pool.push(payload);
            }
        }
    }

    /// Recycles a consumed delta buffer: emptied as by
    /// [`PropagationScratch::clear_buffer`], then kept in `spare` for its
    /// capacity.
    pub fn recycle_buffer(&mut self, mut buffer: Vec<DeltaEntry<R>>) {
        self.clear_buffer(&mut buffer);
        if self.spare.len() < SPARE_CAP {
            self.spare.push(buffer);
        }
    }

    /// Allocation of the delta buffers [`PropagationScratch::trim`]
    /// governs.
    fn buffer_bytes(&self) -> usize {
        let entry = std::mem::size_of::<DeltaEntry<R>>();
        self.next.allocated_bytes()
            + self.columns.allocated_bytes()
            + self.spare.iter().map(|b| b.capacity() * entry).sum::<usize>()
    }

    /// Heap bytes the scratch holds between propagations: the delta
    /// buffers (at most [`SCRATCH_KEEP_BYTES`] after a
    /// [`PropagationScratch::trim`]), the pass bookkeeping (arena and
    /// queue vectors, O(DAG nodes)) and the payload pool's vector (at
    /// most [`POOL_CAP`] payloads; their interiors are bounded by the
    /// ring's `reset_zero` budget and not visited here).  O(1):
    /// capacities × element size, no scan.
    pub fn allocated_bytes(&self) -> usize {
        self.buffer_bytes()
            + self.arena.capacity() * std::mem::size_of::<Vec<DeltaEntry<R>>>()
            + self.queue.capacity() * std::mem::size_of::<(usize, usize, usize)>()
            + self.pool.capacity() * std::mem::size_of::<R>()
    }

    /// Called at the end of every propagation, with all delta buffers
    /// drained: frees them when together they exceed
    /// [`SCRATCH_KEEP_BYTES`], so the scratch a batch leaves behind is
    /// bounded by the budget, not by the batch.
    pub fn trim(&mut self) {
        if self.buffer_bytes() > SCRATCH_KEEP_BYTES {
            debug_assert!(self.arena.is_empty(), "trim() with a delta in flight");
            self.next.release();
            self.columns = LevelColumns::default();
            self.spare = Vec::new();
        }
    }
}

/// The one row-shape rule of a leaf: a bound row must hold every bound
/// column, an unbound row exactly the relation's `arity` values.
/// [`group_row`] applies it while grouping, and
/// [`DagEngine::check_update`](crate::DagEngine::check_update) ahead of any
/// mutation.
pub(crate) fn check_row(binding: Option<&[usize]>, arity: usize, row: &[Value]) -> Result<()> {
    match binding {
        Some(cols) => match cols.iter().find(|&&c| c >= row.len()) {
            Some(&c) => Err(FivmError::InvalidUpdate(format!(
                "row has {} columns but column {c} was bound",
                row.len()
            ))),
            None => Ok(()),
        },
        None if row.len() != arity => Err(FivmError::InvalidUpdate(format!(
            "row arity {} does not match relation arity {arity}",
            row.len()
        ))),
        None => Ok(()),
    }
}

/// Merges one input row into the grouped leaf delta: encodes the row
/// through the table binding (or validates its arity) directly into an
/// [`EncodedKey`], hashes the key **once**, then accumulates `1 · mult`
/// under that key.  On error the grouped delta is cleared so the scratch
/// stays drained for the next batch.
#[allow(clippy::too_many_arguments)]
pub fn group_row<R: Ring>(
    delta: &mut DeltaTable<R>,
    dict: &mut Dict,
    stats: &mut EngineStats,
    one: &R,
    binding: Option<&[usize]>,
    arity: usize,
    row: &[Value],
    mult: i64,
) -> Result<()> {
    if mult == 0 {
        return Ok(());
    }
    if let Err(e) = check_row(binding, arity, row) {
        delta.clear();
        return Err(e);
    }
    // Encode the projected row straight into the key — one pass, no
    // intermediate buffer.
    let key = match binding {
        Some(cols) => EncodedKey::from_fn(cols.len(), |i| dict.encode_value(&row[cols[i]])),
        None => EncodedKey::from_fn(arity, |i| dict.encode_value(&row[i])),
    };
    let hash = key.fx_hash();
    match delta.slot_for(hash, &key) {
        DeltaSlot::Found(entry) => {
            delta.value_mut(entry).fma_scaled(one, one, mult);
            stats.ring_adds += 1;
        }
        DeltaSlot::Vacant(pos) => {
            delta.insert_at(pos, hash, key, one.scale_int(mult));
        }
    }
    Ok(())
}

/// Accumulates one contribution under an output key into a level's delta
/// table.  `hash` is the key's precomputed hash; `ev` is the lifted
/// variable's dictionary-encoded value, consumed directly by lifts with an
/// encoded fused accumulate — a raw [`Value`] materializes only for lifts
/// without one (the decode goes through the context, off the lock-free
/// path).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn emit<R: Ring>(
    out: &mut DeltaTable<R>,
    lift: &LiftFn<R>,
    ev: EncodedValue,
    ctx: &RingCtx,
    key: EncodedKey,
    hash: u64,
    acc: &R,
    pool: &mut Vec<R>,
    stats: &mut EngineStats,
) {
    if lift.is_identity() {
        match out.slot_for(hash, &key) {
            DeltaSlot::Found(entry) => {
                out.value_mut(entry).add_assign(acc);
                stats.ring_adds += 1;
            }
            DeltaSlot::Vacant(pos) => {
                // Clone rather than accumulate into a pooled zero: a pooled
                // buffer may carry a different zero *shape* (a recycled
                // dense element vs a scalar), and the stored payload's
                // representation must not depend on pool history.  The
                // fused-lift arm below is shape-deterministic (the lift
                // promotes to a dense element either way) and does pool.
                out.insert_at(pos, hash, key, acc.clone());
            }
        }
    } else {
        // Fused lift-multiply-accumulate: `slot += acc · g(v)` without
        // materializing the (sparse) lifted element when the lift carries a
        // specialization.
        match out.slot_for(hash, &key) {
            DeltaSlot::Found(entry) => {
                lift.fma_apply_encoded(ev, |e| ctx.decode_value(e), acc, 1, out.value_mut(entry));
                stats.ring_adds += 1;
                stats.ring_muls += 1;
            }
            DeltaSlot::Vacant(pos) => {
                let mut payload = pool.pop().unwrap_or_else(R::zero);
                debug_assert!(payload.is_zero(), "pooled payload must be zero");
                lift.fma_apply_encoded(ev, |e| ctx.decode_value(e), acc, 1, &mut payload);
                stats.ring_muls += 1;
                if !payload.is_zero() {
                    out.insert_at(pos, hash, key, payload);
                } else {
                    pool.push(payload);
                }
            }
        }
    }
}

/// Runs one probe-free (direct-emit) propagation level: projects every
/// incoming delta row to its output key and accumulates the lifted
/// contributions into `out`.
///
/// `out` is the level-local [`DeltaTable`] (the driver's emptied
/// scratch): both kernels upsert with one [`DeltaTable::slot_for`] walk per
/// lookup, and the entries it accumulates — in first-arrival order — are
/// what the driver hands to the view and the parent level.
///
/// Two kernels, selected by the input size (identical results; see the
/// kernel contract in ROADMAP.md for the exactness fine print):
///
/// * **Scalar** — the per-row loop: project, hash, [`emit`].  Runs below
///   [`COLUMNAR_MIN_ROWS`] input entries.
/// * **Columnar** — fills struct-of-arrays column slices (one pass), sorts
///   the flat `(hash, input index)` column so rows sharing an output key
///   form adjacent *runs* in arrival order (equal keys hash equal; the
///   index tie-break keeps per-key accumulation order identical to the
///   scalar path), then applies each run with **one** table lookup
///   instead of one per row.  A run whose rows all carry scalar payload
///   mass ([`Ring::scalar_weight`]) and whose lift has a batch channel
///   ([`LiftFn::fma_batch`]) collapses further into a single lift dispatch
///   over the gathered value/weight slices.  Distinct keys colliding on
///   the 64-bit hash would interleave inside a run, so a run that is not
///   key-uniform (checked with one linear scan) falls back to per-row
///   [`emit`] — vanishingly rare, semantics identical.
///
/// On passthrough levels (`direct.passthrough`) the output key *is* the
/// input key: both kernels reuse the incoming precomputed hash and clone
/// the key instead of projecting and rehashing — the hash-once contract
/// extended across the level boundary.
#[allow(clippy::too_many_arguments)]
pub fn direct_level<R: Ring>(
    direct: &DirectEmit,
    lift: &LiftFn<R>,
    ctx: &RingCtx,
    input: &[DeltaEntry<R>],
    out: &mut DeltaTable<R>,
    cols: &mut LevelColumns,
    pool: &mut Vec<R>,
    stats: &mut EngineStats,
) {
    // xlint:allow(no-panic): the expects guard run invariants established two lines above each site (`batchable` implies every `scalar_ws` is Some and `batch` is Some) — unreachable by construction, not error paths.
    let _tally = hash_tally::LevelScope::enter("direct_level");
    if input.len() < COLUMNAR_MIN_ROWS {
        for (hash, key, payload) in input {
            let (out_key, out_hash) = if direct.passthrough {
                (key.clone(), *hash)
            } else {
                let k = key.project(&direct.key_cols);
                let h = k.fx_hash();
                (k, h)
            };
            emit(
                out,
                lift,
                key.col(direct.var_col),
                ctx,
                out_key,
                out_hash,
                payload,
                pool,
                stats,
            );
        }
        return;
    }

    // ---- Columnar kernel ----
    let n = input.len();
    cols.clear();
    for (i, (hash, key, payload)) in input.iter().enumerate() {
        let (out_key, out_hash) = if direct.passthrough {
            hash_tally::note_key();
            (key.clone(), *hash)
        } else {
            let k = key.project(&direct.key_cols);
            hash_tally::note_key();
            let h = k.fx_hash();
            hash_tally::note_hash();
            (k, h)
        };
        cols.ord.push((out_hash, i as u32));
        cols.keys.push(out_key);
        cols.evs.push(key.col(direct.var_col));
        cols.scalar_ws.push(payload.scalar_weight());
    }
    // Equal output keys hash equal, so sorting the packed (hash, index)
    // pairs groups each key's rows into one adjacent span — in arrival
    // order, thanks to the index tie-break — without a single key-word
    // compare in the comparator.
    cols.ord.sort_unstable();

    let identity = lift.is_identity();
    let batch = lift.fma_batch().cloned();
    let mut start = 0usize;
    while start < n {
        let (run_hash, i0) = cols.ord[start];
        let i0 = i0 as usize;
        let run_key = &cols.keys[i0];
        let mut end = start + 1;
        while end < n && cols.ord[end].0 == run_hash {
            end += 1;
        }
        // Distinct keys sharing a 64-bit hash would interleave inside the
        // span; such spans take the per-row scalar path, which handles each
        // row independently in arrival order.
        let uniform = cols.ord[start + 1..end]
            .iter()
            .all(|&(_, j)| cols.keys[j as usize] == *run_key);
        if !uniform {
            for &(h, j) in &cols.ord[start..end] {
                let j = j as usize;
                emit(
                    out,
                    lift,
                    cols.evs[j],
                    ctx,
                    cols.keys[j].clone(),
                    h,
                    &input[j].2,
                    pool,
                    stats,
                );
            }
            start = end;
            continue;
        }
        let len = end - start;
        // One lookup per run — the same upsert as the scalar path's
        // `emit`, amortized over the whole run.
        let slot = out.slot_for(run_hash, run_key);
        if identity {
            match slot {
                DeltaSlot::Found(entry) => {
                    let v = out.value_mut(entry);
                    for &(_, j) in &cols.ord[start..end] {
                        v.add_assign(&input[j as usize].2);
                    }
                    stats.ring_adds += len;
                }
                DeltaSlot::Vacant(pos) => {
                    // Clone the first payload rather than accumulate into a
                    // pooled zero — same shape-determinism rule as `emit`'s
                    // identity arm.
                    let mut payload = input[i0].2.clone();
                    for &(_, j) in &cols.ord[start + 1..end] {
                        payload.add_assign(&input[j as usize].2);
                    }
                    stats.ring_adds += len - 1;
                    if !payload.is_zero() {
                        out.insert_at(pos, run_hash, run_key.clone(), payload);
                    }
                }
            }
        } else {
            // Batch-fuse the run when every row reduced to a scalar weight
            // and the lift can consume a weighted column slice; singleton,
            // mixed, or dense-payload runs fall back to per-row fused
            // accumulates (still amortizing the table lookup over the run).
            let batchable = len > 1
                && batch.is_some()
                && cols.ord[start..end]
                    .iter()
                    .all(|&(_, j)| cols.scalar_ws[j as usize].is_some());
            if batchable {
                cols.run_evs.clear();
                cols.run_ws.clear();
                for &(_, j) in &cols.ord[start..end] {
                    let j = j as usize;
                    cols.run_evs.push(cols.evs[j]);
                    cols.run_ws.push(cols.scalar_ws[j].expect("scalar run"));
                }
            }
            let batch_run = batchable.then(|| batch.as_ref().expect("batchable"));
            match slot {
                DeltaSlot::Found(entry) => {
                    let v = out.value_mut(entry);
                    match batch_run {
                        Some(b) => b(&cols.run_evs, &cols.run_ws, v),
                        None => {
                            for &(_, j) in &cols.ord[start..end] {
                                let j = j as usize;
                                lift.fma_apply_encoded(
                                    cols.evs[j],
                                    |e| ctx.decode_value(e),
                                    &input[j].2,
                                    1,
                                    v,
                                );
                            }
                        }
                    }
                    stats.ring_adds += len;
                    stats.ring_muls += len;
                }
                DeltaSlot::Vacant(pos) => {
                    let mut payload = pool.pop().unwrap_or_else(R::zero);
                    debug_assert!(payload.is_zero(), "pooled payload must be zero");
                    match batch_run {
                        Some(b) => b(&cols.run_evs, &cols.run_ws, &mut payload),
                        None => {
                            for &(_, j) in &cols.ord[start..end] {
                                let j = j as usize;
                                lift.fma_apply_encoded(
                                    cols.evs[j],
                                    |e| ctx.decode_value(e),
                                    &input[j].2,
                                    1,
                                    &mut payload,
                                );
                            }
                        }
                    }
                    stats.ring_muls += len;
                    stats.ring_adds += len - 1;
                    if !payload.is_zero() {
                        out.insert_at(pos, run_hash, run_key.clone(), payload);
                    } else {
                        pool.push(payload);
                    }
                }
            }
        }
        start = end;
    }
}

/// Extends a partial assignment by probing the remaining siblings, then
/// applies the lift and accumulates the marginalized contribution into
/// `out`.
///
/// Probe keys and output keys are gathered from the encoded assignment by
/// word copies and hashed exactly once each; probe results are memoized per
/// depth for the duration of the level.  Partial products are written into
/// `partials` (one slot per probe depth, reused across calls via
/// [`Ring::mul_into`]); the final contribution is accumulated with
/// [`Ring::fma_scaled`], so the dense-payload hot path performs no ring
/// allocation.
#[allow(clippy::too_many_arguments)]
pub fn extend_assignment<R: Ring>(
    views: &[MaterializedView<R>],
    ctx: &RingCtx,
    dp: &DeltaPlan,
    lift: &LiftFn<R>,
    steps: &[DeltaStep],
    memo: &mut [StepMemo],
    assignment: &mut [EncodedValue],
    acc: &R,
    partials: &mut [R],
    out: &mut DeltaTable<R>,
    pool: &mut Vec<R>,
    stats: &mut EngineStats,
) {
    let Some((step, rest)) = steps.split_first() else {
        // All siblings probed: apply the lift and emit the contribution
        // under the node's output key (hashed once, reused by the upsert
        // and, travelling with the entry, by the view application and
        // parent level).
        let key = EncodedKey::gather(assignment, &dp.key_positions);
        hash_tally::note_key();
        let hash = key.fx_hash();
        hash_tally::note_hash();
        emit(
            out,
            lift,
            assignment[dp.var_position],
            ctx,
            key,
            hash,
            acc,
            pool,
            stats,
        );
        return;
    };

    // xlint:allow(no-panic): `memo` and `partials` are sized to the plan's probe depth at construction and consumed one slot per recursion step — the split_first expects are compiled-plan invariants, and no caller-visible error state exists when they break.
    let (step_memo, memo_rest) = memo.split_first_mut().expect("probe depth memo");
    let view = &views[step.sibling_view];
    let probe = EncodedKey::gather(assignment, &step.probe_positions);
    hash_tally::note_key();
    let hash = probe.fx_hash();
    hash_tally::note_hash();
    stats.probes += 1;

    match &step.probe {
        ProbeKind::Primary => {
            if let Some(slot) = step_memo.probe_primary(view, hash, probe) {
                stats.probe_hits += 1;
                let payload = view.slot_payload(slot);
                let (head, tail) = partials.split_first_mut().expect("probe depth scratch");
                acc.mul_into(payload, head);
                stats.ring_muls += 1;
                if !head.is_zero() {
                    // Move `head` out of the mutable borrow: recursion only
                    // needs it immutably, and `tail` covers deeper levels.
                    let next: &R = head;
                    extend_assignment(
                        views, ctx, dp, lift, rest, memo_rest, assignment, next, tail, out,
                        pool, stats,
                    );
                }
            }
        }
        ProbeKind::Index(idx) => {
            // The bucket stores slot ids: matches stream straight out of
            // the sibling's slab (full key and payload side by side), with
            // no per-match primary-map lookup and no cloned matches.
            let Some(bucket) = step_memo.probe_index(view, *idx, hash, probe) else {
                return;
            };
            stats.probe_hits += 1;
            let slots = view.index_bucket_at(*idx, bucket);
            for &slot in slots {
                let full_key = view.slot_key(slot);
                for (col, &pos) in step.write_positions.iter().enumerate() {
                    if pos != ALREADY_BOUND {
                        assignment[pos] = full_key.col(col);
                    }
                }
                let payload = view.slot_payload(slot);
                let (head, tail) = partials.split_first_mut().expect("probe depth scratch");
                acc.mul_into(payload, head);
                stats.ring_muls += 1;
                if !head.is_zero() {
                    let next: &R = head;
                    extend_assignment(
                        views, ctx, dp, lift, rest, memo_rest, assignment, next, tail, out,
                        pool, stats,
                    );
                }
            }
        }
    }
}

/// Runs one probe level end to end: scatters each delta row into the
/// assignment, joins against the sibling views, applies the lift,
/// marginalizes and accumulates into `out`.  The single entry point for
/// probe levels (mirroring [`direct_level`] for probe-free ones).
///
/// Two kernels, selected by the input size and the plan's step kinds:
///
/// * **Scalar** — the per-row walk: scatter, then recursive
///   [`extend_assignment`].
/// * **Columnar** — applies only when every step is a primary probe (no
///   step binds new columns), so each row's probe keys and output key are
///   computable up front.  Rows are sorted by a mixed
///   `(probe keys…, output key)` hash; a *run* of rows agreeing on all of
///   them shares one probe per step and — exploiting ring commutativity —
///   one pass over the (large, aggregated) sibling payloads:
///
///   ```text
///   scalar:    slot += gₓ(ev_i) ⊗ ((acc_i ⊗ P₁) ⊗ … ⊗ Pₖ)   per row
///   columnar:  m = Σ_i acc_i ⊗ gₓ(ev_i)                     per row (small)
///              slot += (m ⊗ P₁ ⊗ … ⊗ Pₖ)                    per run (large)
///   ```
///
///   The per-row work shrinks to a lift FMA on the row's own (small) delta
///   payload; the expensive products against sibling payloads — aggregated
///   view entries that dwarf the delta — happen once per run instead of
///   once per row.  Equal output keys under different probe keys still
///   land in separate runs (the sibling product differs), and the final
///   product is fused into the output slot with [`Ring::fma_scaled`].
///   Requires the ring to be commutative — which F-IVM rings are by
///   definition; the reordering reassociates float work, so the exactness
///   contract matches the direct-level columnar kernel (bit-for-bit on
///   integer-valued payloads, tolerance on raw floats).
///
///   A level with any secondary-index step, or fewer than
///   [`COLUMNAR_MIN_ROWS`] input entries, takes the scalar walk
///   unchanged.  Mixed-hash spans that are not key-uniform
///   (64-bit collisions) fall back to per-row [`extend_assignment`].
#[allow(clippy::too_many_arguments)]
pub fn probe_level<R: Ring>(
    views: &[MaterializedView<R>],
    ctx: &RingCtx,
    dp: &DeltaPlan,
    lift: &LiftFn<R>,
    input: &[DeltaEntry<R>],
    out: &mut DeltaTable<R>,
    cols: &mut LevelColumns,
    memo: &mut [StepMemo],
    assignment: &mut [EncodedValue],
    partials: &mut [R],
    pool: &mut Vec<R>,
    pool_enabled: bool,
    stats: &mut EngineStats,
) {
    // xlint:allow(no-panic): the two expects guard the `batchable` run predicate established immediately above them (every `scalar_ws` Some, `batch` Some) — compile-time-style invariants, not error paths.
    let _tally = hash_tally::LevelScope::enter("probe_level");
    assignment.iter_mut().for_each(|v| *v = EncodedValue::NULL);
    // Views are immutable for the whole level; probe memos reset at the
    // level boundary.
    for m in memo.iter_mut() {
        m.invalidate();
    }

    let k = dp.steps.len();
    let columnar = input.len() >= COLUMNAR_MIN_ROWS
        && k >= 1
        && dp
            .steps
            .iter()
            .all(|s| matches!(s.probe, ProbeKind::Primary));
    if !columnar {
        for (_, key, payload) in input {
            for (col, &pos) in dp.scatter.iter().enumerate() {
                assignment[pos] = key.col(col);
            }
            extend_assignment(
                views,
                ctx,
                dp,
                lift,
                &dp.steps,
                memo,
                assignment,
                payload,
                partials,
                out,
                pool,
                stats,
            );
        }
        return;
    }

    // ---- Columnar kernel ----
    let n = input.len();
    cols.clear();
    for (i, (_, key, payload)) in input.iter().enumerate() {
        for (col, &pos) in dp.scatter.iter().enumerate() {
            assignment[pos] = key.col(col);
        }
        let mut run_hash = 0u64;
        for step in &dp.steps {
            let pk = EncodedKey::gather(assignment, &step.probe_positions);
            hash_tally::note_key();
            let ph = pk.fx_hash();
            hash_tally::note_hash();
            run_hash = mix_hash(run_hash, ph);
            cols.probe_keys.push(pk);
            cols.probe_hashes.push(ph);
        }
        let out_key = EncodedKey::gather(assignment, &dp.key_positions);
        hash_tally::note_key();
        let out_hash = out_key.fx_hash();
        hash_tally::note_hash();
        run_hash = mix_hash(run_hash, out_hash);
        cols.ord.push((run_hash, i as u32));
        cols.keys.push(out_key);
        cols.out_hashes.push(out_hash);
        cols.evs.push(assignment[dp.var_position]);
        cols.scalar_ws.push(payload.scalar_weight());
    }
    cols.ord.sort_unstable();

    let identity = lift.is_identity();
    let batch = lift.fma_batch().cloned();
    let mut start = 0usize;
    while start < n {
        let (run_hash, i0) = cols.ord[start];
        let i0 = i0 as usize;
        let mut end = start + 1;
        while end < n && cols.ord[end].0 == run_hash {
            end += 1;
        }
        // The mixed hash identifies a run only up to 64-bit collisions:
        // verify every row agrees on the output key and all probe keys,
        // falling back to the per-row walk for the (vanishingly rare)
        // spans that do not.
        let uniform = cols.ord[start + 1..end].iter().all(|&(_, j)| {
            let j = j as usize;
            cols.keys[j] == cols.keys[i0]
                && cols.probe_keys[j * k..(j + 1) * k] == cols.probe_keys[i0 * k..(i0 + 1) * k]
        });
        if !uniform {
            for &(_, j) in &cols.ord[start..end] {
                let j = j as usize;
                let (_, key, payload) = &input[j];
                for (col, &pos) in dp.scatter.iter().enumerate() {
                    assignment[pos] = key.col(col);
                }
                extend_assignment(
                    views,
                    ctx,
                    dp,
                    lift,
                    &dp.steps,
                    memo,
                    assignment,
                    payload,
                    partials,
                    out,
                    pool,
                    stats,
                );
            }
            start = end;
            continue;
        }

        // One probe per step per run (memoized like the scalar walk).
        cols.run_slots.clear();
        let mut hit = true;
        for (s, step) in dp.steps.iter().enumerate() {
            let view = &views[step.sibling_view];
            let ph = cols.probe_hashes[i0 * k + s];
            let pk = cols.probe_keys[i0 * k + s].clone();
            stats.probes += 1;
            match memo[s].probe_primary(view, ph, pk) {
                Some(slot) => {
                    stats.probe_hits += 1;
                    cols.run_slots.push(slot);
                }
                None => {
                    hit = false;
                    break;
                }
            }
        }
        if !hit {
            start = end;
            continue;
        }

        let len = end - start;
        if len == 1 {
            // Singleton run — the common case on fact streams, where the
            // delta grain leaves nothing to fuse.  Materializing
            // `m = acc ⊗ g(ev)` here would cost one full ring op more than
            // the scalar walk, so instead chain the accumulator straight
            // through the sibling payloads and fold the lift into the
            // final slot FMA: `slot += g(ev) ⊗ (acc ⊗ P₁ ⊗ … ⊗ Pₖ)`,
            // the exact float order of the scalar walk (bit-for-bit).
            let acc: &R = &input[i0].2;
            let out_hash = cols.out_hashes[i0];
            let out_key = &cols.keys[i0];
            let depth = if identity { k - 1 } else { k };
            let mut zeroed = false;
            for s in 0..depth {
                let payload = views[dp.steps[s].sibling_view].slot_payload(cols.run_slots[s]);
                let (done, rest) = partials.split_at_mut(s);
                let dst = &mut rest[0];
                let cur: &R = if s == 0 { acc } else { &done[s - 1] };
                cur.mul_into(payload, dst);
                stats.ring_muls += 1;
                if dst.is_zero() {
                    zeroed = true;
                    break;
                }
            }
            if !zeroed {
                if identity {
                    let cur: &R = if k == 1 { acc } else { &partials[k - 2] };
                    let last =
                        views[dp.steps[k - 1].sibling_view].slot_payload(cols.run_slots[k - 1]);
                    match out.slot_for(out_hash, out_key) {
                        DeltaSlot::Found(entry) => {
                            out.value_mut(entry).fma_scaled(cur, last, 1);
                            stats.ring_adds += 1;
                            stats.ring_muls += 1;
                        }
                        DeltaSlot::Vacant(pos) => {
                            let mut payload = if pool_enabled {
                                pool.pop().unwrap_or_else(R::zero)
                            } else {
                                R::zero()
                            };
                            debug_assert!(payload.is_zero(), "pooled payload must be zero");
                            payload.fma_scaled(cur, last, 1);
                            stats.ring_muls += 1;
                            if payload.is_zero() {
                                if pool_enabled && pool.len() < POOL_CAP {
                                    pool.push(payload);
                                }
                            } else {
                                out.insert_at(pos, out_hash, out_key.clone(), payload);
                            }
                        }
                    }
                } else {
                    let chain: &R = &partials[k - 1];
                    let ev = cols.evs[i0];
                    match out.slot_for(out_hash, out_key) {
                        DeltaSlot::Found(entry) => {
                            lift.fma_apply_encoded(
                                ev,
                                |e| ctx.decode_value(e),
                                chain,
                                1,
                                out.value_mut(entry),
                            );
                            stats.ring_adds += 1;
                            stats.ring_muls += 1;
                        }
                        DeltaSlot::Vacant(pos) => {
                            let mut payload = if pool_enabled {
                                pool.pop().unwrap_or_else(R::zero)
                            } else {
                                R::zero()
                            };
                            debug_assert!(payload.is_zero(), "pooled payload must be zero");
                            lift.fma_apply_encoded(
                                ev,
                                |e| ctx.decode_value(e),
                                chain,
                                1,
                                &mut payload,
                            );
                            stats.ring_muls += 1;
                            if payload.is_zero() {
                                if pool_enabled && pool.len() < POOL_CAP {
                                    pool.push(payload);
                                }
                            } else {
                                out.insert_at(pos, out_hash, out_key.clone(), payload);
                            }
                        }
                    }
                }
            }
            start = end;
            continue;
        }

        // m = Σ_i acc_i ⊗ g(ev_i): the per-row half, touching only the
        // rows' own delta payloads.  Batch-fused when the run reduces to
        // scalar weights and the lift has a batch channel.
        let mut m;
        if identity {
            // Clone the first payload rather than accumulate into a pooled
            // zero — the shape-determinism rule from `emit`'s identity arm.
            m = input[i0].2.clone();
            for &(_, j) in &cols.ord[start + 1..end] {
                m.add_assign(&input[j as usize].2);
            }
            stats.ring_adds += len - 1;
        } else {
            m = if pool_enabled {
                pool.pop().unwrap_or_else(R::zero)
            } else {
                R::zero()
            };
            debug_assert!(m.is_zero(), "pooled payload must be zero");
            let batchable = len > 1
                && batch.is_some()
                && cols.ord[start..end]
                    .iter()
                    .all(|&(_, j)| cols.scalar_ws[j as usize].is_some());
            if batchable {
                cols.run_evs.clear();
                cols.run_ws.clear();
                for &(_, j) in &cols.ord[start..end] {
                    let j = j as usize;
                    cols.run_evs.push(cols.evs[j]);
                    cols.run_ws.push(cols.scalar_ws[j].expect("scalar run"));
                }
                (batch.as_ref().expect("batchable"))(&cols.run_evs, &cols.run_ws, &mut m);
            } else {
                for &(_, j) in &cols.ord[start..end] {
                    let j = j as usize;
                    lift.fma_apply_encoded(
                        cols.evs[j],
                        |e| ctx.decode_value(e),
                        &input[j].2,
                        1,
                        &mut m,
                    );
                }
            }
            stats.ring_muls += len;
            stats.ring_adds += len - 1;
        }
        if m.is_zero() {
            if pool_enabled && pool.len() < POOL_CAP {
                pool.push(m);
            }
            start = end;
            continue;
        }

        // The per-run half: multiply through the sibling payload chain,
        // fusing the last product straight into the output slot.
        let mut zeroed = false;
        for s in 0..k - 1 {
            let payload = views[dp.steps[s].sibling_view].slot_payload(cols.run_slots[s]);
            let (done, rest) = partials.split_at_mut(s);
            let dst = &mut rest[0];
            let cur: &R = if s == 0 { &m } else { &done[s - 1] };
            cur.mul_into(payload, dst);
            stats.ring_muls += 1;
            if dst.is_zero() {
                zeroed = true;
                break;
            }
        }
        if !zeroed {
            let cur: &R = if k == 1 { &m } else { &partials[k - 2] };
            let last = views[dp.steps[k - 1].sibling_view].slot_payload(cols.run_slots[k - 1]);
            let out_hash = cols.out_hashes[i0];
            let out_key = &cols.keys[i0];
            match out.slot_for(out_hash, out_key) {
                DeltaSlot::Found(entry) => {
                    out.value_mut(entry).fma_scaled(cur, last, 1);
                    stats.ring_adds += 1;
                    stats.ring_muls += 1;
                }
                DeltaSlot::Vacant(pos) => {
                    let mut payload = if pool_enabled {
                        pool.pop().unwrap_or_else(R::zero)
                    } else {
                        R::zero()
                    };
                    debug_assert!(payload.is_zero(), "pooled payload must be zero");
                    payload.fma_scaled(cur, last, 1);
                    stats.ring_muls += 1;
                    if !payload.is_zero() {
                        out.insert_at(pos, out_hash, out_key.clone(), payload);
                    } else if pool_enabled && pool.len() < POOL_CAP {
                        pool.push(payload);
                    }
                }
            }
        }
        if pool_enabled && pool.len() < POOL_CAP {
            m.reset_zero();
            pool.push(m);
        }
        start = end;
    }
}
