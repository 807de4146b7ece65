#![forbid(unsafe_code)]
//! Shared harness code for the F-IVM experiments and benchmarks.
//!
//! The experiment binaries in `src/bin/` regenerate the paper's figures and
//! claims (see `DESIGN.md` and `EXPERIMENTS.md` for the experiment index);
//! the Criterion benchmarks in `benches/` provide statistically sound
//! micro/macro measurements of the same scenarios.

use fivm_common::{Dict, EncodedKey, EncodedValue, FxHashMap, Value};
use fivm_core::{apps, BinSpec, Engine, MaterializedView};
use fivm_query::{QuerySpec, ViewTree};
use fivm_relation::{Database, Tuple, Update};
use fivm_ring::{BoxedRelValue, Cofactor, GenCofactor, RelKey, RelValue};
use std::collections::HashMap;
use std::time::Instant;

/// Which dataset an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// The synthetic Retailer snowflake (5 relations, Inventory fact table).
    Retailer,
    /// The synthetic Favorita star (6 relations, Sales fact table).
    Favorita,
}

impl Dataset {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Retailer => "Retailer",
            Dataset::Favorita => "Favorita",
        }
    }
}

/// A prepared workload: database, query, view tree and update stream.
pub struct Workload {
    /// The dataset this workload was generated from.
    pub dataset: Dataset,
    /// The generated database.
    pub database: Database,
    /// The query (mixed continuous/categorical features).
    pub spec: QuerySpec,
    /// The view tree under the hand-written (paper-style) variable order.
    pub tree: ViewTree,
    /// The bulk update stream against the fact table.
    pub updates: Vec<Update>,
}

impl Workload {
    /// Builds a Retailer workload with the mixed (categorical + continuous)
    /// query.
    pub fn retailer(
        cfg: fivm_data::RetailerConfig,
        stream: fivm_data::StreamConfig,
        continuous_only: bool,
    ) -> Self {
        let database = cfg.generate();
        let spec = if continuous_only {
            fivm_data::retailer::retailer_query_continuous()
        } else {
            fivm_data::retailer::retailer_query_mixed()
        };
        let tree = fivm_data::retailer::retailer_tree(spec.clone());
        let updates = cfg.update_stream(stream).into_bulks();
        Workload {
            dataset: Dataset::Retailer,
            database,
            spec,
            tree,
            updates,
        }
    }

    /// Builds a Favorita workload.
    pub fn favorita(cfg: fivm_data::FavoritaConfig, stream: fivm_data::StreamConfig) -> Self {
        let database = cfg.generate();
        let spec = fivm_data::favorita::favorita_query();
        let tree = fivm_data::favorita::favorita_tree(spec.clone());
        let updates = cfg.update_stream(stream).into_bulks();
        Workload {
            dataset: Dataset::Favorita,
            database,
            spec,
            tree,
            updates,
        }
    }

    /// Total number of individual updates in the stream.
    pub fn total_updates(&self) -> usize {
        self.updates.iter().map(Update::len).sum()
    }

    /// A COVAR engine over the workload's query (requires the continuous
    /// query variant for Retailer).
    pub fn covar_engine(&self) -> Engine<Cofactor> {
        apps::covar_engine(self.tree.clone()).expect("continuous covar engine")
    }

    /// A generalized-COVAR engine (mixed features).
    pub fn gen_covar_engine(&self) -> Engine<GenCofactor> {
        apps::gen_covar_engine(self.tree.clone()).expect("generalized covar engine")
    }

    /// A count engine.
    pub fn count_engine(&self) -> Engine<i64> {
        apps::count_engine(self.tree.clone()).expect("count engine")
    }

    /// An MI engine; continuous aggregate attributes are binned into 10
    /// equi-width bins over a generous range.
    pub fn mi_engine(&self) -> Engine<GenCofactor> {
        apps::mi_engine(self.tree.clone(), &self.default_binnings()).expect("mi engine")
    }

    /// Default equi-width binnings for the continuous aggregate attributes,
    /// sized to the value ranges produced by the synthetic generators.
    pub fn default_binnings(&self) -> HashMap<usize, BinSpec> {
        let layout = fivm_core::AggregateLayout::of(&self.spec);
        let mut bins = HashMap::new();
        for (pos, &v) in layout.vars.iter().enumerate() {
            if layout.kinds[pos].is_continuous() {
                let spec = match layout.names[pos].as_str() {
                    "inventoryunits" => BinSpec::new(0.0, 500.0, 10),
                    "unitsales" => BinSpec::new(0.0, 80.0, 10),
                    "price" => BinSpec::new(0.0, 80.0, 10),
                    "avghhi" => BinSpec::new(30_000.0, 120_000.0, 10),
                    "competitordistance" => BinSpec::new(0.0, 40.0, 10),
                    "population" => BinSpec::new(5_000.0, 200_000.0, 10),
                    "medianage" => BinSpec::new(25.0, 55.0, 10),
                    "maxtemp" => BinSpec::new(-15.0, 40.0, 10),
                    "mintemp" => BinSpec::new(-15.0, 20.0, 10),
                    "transactions" => BinSpec::new(200.0, 4_000.0, 10),
                    "oilprice" => BinSpec::new(20.0, 80.0, 10),
                    _ => BinSpec::new(0.0, 1_000.0, 10),
                };
                bins.insert(v, spec);
            }
        }
        bins
    }
}

/// The encoded-vs-boxed key ablation: the same key set stored and probed
/// under both view-storage designs, so the probe-path gain of dictionary
/// encoding is measurable in isolation from the rest of the engine.
///
/// * **Boxed** — the pre-encoding view storage: an `FxHashMap` keyed by
///   boxed `Value` tuples (enum-tag matching, `Arc<str>` compares, one
///   heap allocation per key), payloads inline.
/// * **Encoded** — the hash-once view storage, measured on the real
///   [`MaterializedView`]: dictionary-encoded flat-word keys in a slot
///   slab behind a [`fivm_common::RawTable`] of precomputed hashes.
///
/// Both sides hold identical logical keys (the fact table of a workload)
/// and are probed with the identical probe sequence (the keys of the
/// update stream — a realistic hit/miss mix).  Probe-key hashing is inside
/// the measured loop for both, as it is on the engine's hot path.
pub struct ProbeAblation {
    boxed: FxHashMap<Tuple, i64>,
    boxed_probes: Vec<Tuple>,
    encoded: MaterializedView<i64>,
    encoded_probes: Vec<EncodedKey>,
}

impl ProbeAblation {
    /// Builds both representations from a workload's fact table and update
    /// stream.
    pub fn from_workload(workload: &Workload) -> ProbeAblation {
        let fact_name = &workload.updates[0].table;
        let fact = workload
            .database
            .table(fact_name)
            .expect("update stream targets a database table");
        let mut dict = Dict::new();
        let mut boxed: FxHashMap<Tuple, i64> = FxHashMap::default();
        let mut encoded: MaterializedView<i64> =
            MaterializedView::new((0..fact.schema.arity()).collect());
        for (row, mult) in &fact.rows {
            *boxed.entry(row.clone()).or_insert(0) += mult;
            encoded.add(&mut dict, row, *mult);
        }
        boxed.retain(|_, m| *m != 0);
        let mut boxed_probes = Vec::new();
        let mut encoded_probes = Vec::new();
        for bulk in &workload.updates {
            for (row, _) in &bulk.rows {
                boxed_probes.push(row.clone());
                encoded_probes.push(dict.encode_key(row));
            }
        }
        ProbeAblation {
            boxed,
            boxed_probes,
            encoded,
            encoded_probes,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.boxed.len()
    }

    /// Whether the ablation holds no keys.
    pub fn is_empty(&self) -> bool {
        self.boxed.is_empty()
    }

    /// Number of probes per pass.
    pub fn num_probes(&self) -> usize {
        self.boxed_probes.len()
    }

    /// One probe pass over the boxed representation; returns the payload
    /// sum of the hits (both passes must agree).
    pub fn run_boxed(&self) -> i64 {
        let mut acc = 0;
        for key in &self.boxed_probes {
            if let Some(v) = self.boxed.get(&key[..]) {
                acc += *v;
            }
        }
        acc
    }

    /// One probe pass over the encoded representation (hash once, probe
    /// the primary map, read the payload out of the slab).
    pub fn run_encoded(&self) -> i64 {
        let mut acc = 0;
        for key in &self.encoded_probes {
            let hash = key.fx_hash();
            if let Some(slot) = self.encoded.find_slot(hash, key) {
                acc += *self.encoded.slot_payload(slot);
            }
        }
        acc
    }

    /// Times `passes` probe passes of one representation, returning
    /// probes/second (the hit sums are checked for agreement first).
    pub fn measure(&self, encoded: bool, passes: usize) -> f64 {
        assert_eq!(self.run_boxed(), self.run_encoded(), "representations diverge");
        let start = Instant::now();
        let mut acc = 0i64;
        for _ in 0..passes {
            acc += if encoded { self.run_encoded() } else { self.run_boxed() };
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        (self.num_probes() * passes) as f64 / secs
    }
}

/// The encoded-vs-boxed **ring-key** ablation: the same relation-ring
/// operation stream applied to [`fivm_ring::RelValue`] (the hash-once
/// encoded interior) and to [`fivm_ring::BoxedRelValue`] (the boxed
/// `Value`-keyed reference representation), so the ring-interior gain of
/// dictionary encoding is measurable in isolation from the engine — the
/// `RING-*` counterpart of the `PROBE-*` records.
///
/// The op stream mimics interaction-matrix (`Q_XY`) maintenance, the
/// dominant relation-ring operation of the generalized COVAR/MI
/// applications: per input row, `acc += (g_X(x) ⋈ g_Y(y)) · mult` into one
/// of a fixed set of accumulators.  Each measured pass applies every op
/// with `+mult` and then with `-mult`, so the accumulators return to their
/// baseline and later passes measure steady state (warm tables, churn
/// without growth) — the same regime the engine runs in.
pub struct RingAblation {
    ctx: fivm_ring::RingCtx,
    boxed: Vec<fivm_ring::BoxedRelValue>,
    encoded: Vec<fivm_ring::RelValue>,
    /// `(accumulator, x, y, mult)` per op, in raw and encoded form.
    ops: Vec<(usize, Value, Value, i64)>,
    ops_encoded: Vec<(usize, EncodedValue, EncodedValue, i64)>,
}

impl RingAblation {
    /// Builds the ablation from a workload's update stream: `x` and `y`
    /// are the first and last column of each update row (a join key and a
    /// measure — realistic distinct-value distributions on both sides).
    pub fn from_workload(workload: &Workload, accumulators: usize) -> RingAblation {
        let ctx = fivm_ring::RingCtx::new();
        let mut ops = Vec::new();
        let mut ops_encoded = Vec::new();
        let mut slot = 0usize;
        for bulk in &workload.updates {
            for (row, mult) in &bulk.rows {
                let (x, y) = (row[0].clone(), row[row.len() - 1].clone());
                ops_encoded.push((slot, ctx.encode_value(&x), ctx.encode_value(&y), *mult));
                ops.push((slot, x, y, *mult));
                slot = (slot + 1) % accumulators;
            }
        }
        let mut ablation = RingAblation {
            ctx,
            boxed: vec![fivm_ring::BoxedRelValue::empty(); accumulators],
            encoded: vec![fivm_ring::RelValue::empty(); accumulators],
            ops,
            ops_encoded,
        };
        // Warm-up: one +/- pass sizes every table; steady state follows.
        ablation.run_boxed();
        ablation.run_encoded();
        // The agreement gate runs once, here — `measure` stays pure timing.
        assert!(
            ablation.representations_agree(),
            "ring representations diverge"
        );
        ablation
    }

    /// Ring operations per pass (each op is applied with `+` and `-`).
    pub fn num_ops(&self) -> usize {
        self.ops.len() * 2
    }

    /// One steady-state pass over the boxed representation.
    pub fn run_boxed(&mut self) {
        use fivm_ring::{BoxedRelValue, Ring};
        for sign in [1i64, -1] {
            for (slot, x, y, mult) in &self.ops {
                let gx = BoxedRelValue::indicator(0, x.clone());
                let gy = BoxedRelValue::indicator(1, y.clone());
                self.boxed[*slot].fma_scaled(&gx, &gy, sign * mult);
            }
        }
    }

    /// One steady-state pass over the encoded representation.
    pub fn run_encoded(&mut self) {
        use fivm_ring::{RelValue, Ring};
        for sign in [1i64, -1] {
            for (slot, x, y, mult) in &self.ops_encoded {
                let gx = RelValue::indicator(0, *x);
                let gy = RelValue::indicator(1, *y);
                self.encoded[*slot].fma_scaled(&gx, &gy, sign * mult);
            }
        }
    }

    /// Checks that both representations hold identical relations after a
    /// half-pass (the agreement gate run before timing).
    pub fn representations_agree(&mut self) -> bool {
        use fivm_ring::{BoxedRelValue, RelValue, Ring};
        for (slot, x, y, mult) in &self.ops {
            let gx = BoxedRelValue::indicator(0, x.clone());
            let gy = BoxedRelValue::indicator(1, y.clone());
            self.boxed[*slot].fma_scaled(&gx, &gy, *mult);
        }
        for (slot, x, y, mult) in &self.ops_encoded {
            let gx = RelValue::indicator(0, *x);
            let gy = RelValue::indicator(1, *y);
            self.encoded[*slot].fma_scaled(&gx, &gy, *mult);
        }
        let agree = self.ctx.with_dict(|dict| {
            self.boxed.iter().zip(self.encoded.iter()).all(|(b, e)| {
                let decoded = e.decode_entries(dict);
                let reference = b.sorted_entries();
                decoded.len() == reference.len()
                    && decoded
                        .iter()
                        .zip(reference.iter())
                        .all(|((dk, dw), (rk, rw))| dk == rk && dw == rw)
            })
        });
        // Undo the half-pass so timing starts from the baseline.
        for (slot, x, y, mult) in &self.ops {
            let gx = BoxedRelValue::indicator(0, x.clone());
            let gy = BoxedRelValue::indicator(1, y.clone());
            self.boxed[*slot].fma_scaled(&gx, &gy, -mult);
        }
        for (slot, x, y, mult) in &self.ops_encoded {
            let gx = RelValue::indicator(0, *x);
            let gy = RelValue::indicator(1, *y);
            self.encoded[*slot].fma_scaled(&gx, &gy, -mult);
        }
        agree
    }

    /// Times `passes` steady-state passes of one representation, returning
    /// ring ops/second (representations are checked for agreement once,
    /// at construction).
    pub fn measure(&mut self, encoded: bool, passes: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..passes {
            if encoded {
                self.run_encoded();
            } else {
                self.run_boxed();
            }
        }
        let secs = start.elapsed().as_secs_f64();
        (self.num_ops() * passes) as f64 / secs
    }
}

/// The ring-table **memory** ablation: the same relation population held
/// in three storage designs, measured in bytes per stored entry — the
/// `MEM-*` counterpart of the `PROBE-*`/`RING-*` speed ablations.
///
/// Per input row of the workload's update stream the ablation maintains
/// the three relation shapes generalized-cofactor maintenance actually
/// materializes (see `GenCofactor`): a **scalar** component (`s`/`Q` of a
/// continuous attribute — a single-entry relation over the empty key), a
/// **linear** categorical component (`s_X = SUM(1) GROUP BY X`), and a
/// pairwise **interaction** component (`Q_XY`, grouped by two
/// attributes).  Accumulators are keyed by the row's *fact key* (every
/// column but the trailing measure) — the granularity of the fact-leaf
/// view, which holds the overwhelming majority of an engine's ring
/// payloads (one payload per distinct fact key, versus a handful of
/// coarser interior/root keys).  That is the regime the ring interior
/// lives in: *many tiny relations*.
///
/// Two numbers come out, both for identical logical relations and both
/// full footprints — the value itself (`size_of`) plus the heap it owns,
/// because a one-entry [`RelValue`] lives inline and owns no heap at all:
///
/// * **new** — `size_of::<RelValue>()` + [`RelValue::allocated_bytes`],
/// * **boxed** — `size_of::<BoxedRelValue>()` +
///   [`BoxedRelValue::approx_heap_bytes`] of the boxed-`Value` reference
///   representation.
pub struct MemAblation {
    scalar: Vec<RelValue>,
    linear: Vec<RelValue>,
    interaction: Vec<RelValue>,
    boxed: Vec<BoxedRelValue>,
}

impl MemAblation {
    /// Replays the workload's update stream, accumulating one component
    /// triple per distinct fact key (every row column but the trailing
    /// measure).
    pub fn from_workload(workload: &Workload) -> MemAblation {
        let ctx = fivm_ring::RingCtx::new();
        let mut groups: FxHashMap<Vec<(u8, u64)>, usize> = FxHashMap::default();
        let mut scalar: Vec<RelValue> = Vec::new();
        let mut linear: Vec<RelValue> = Vec::new();
        let mut interaction: Vec<RelValue> = Vec::new();
        let mut boxed_scalar: Vec<BoxedRelValue> = Vec::new();
        let mut boxed_linear: Vec<BoxedRelValue> = Vec::new();
        let mut boxed_interaction: Vec<BoxedRelValue> = Vec::new();
        let empty = RelKey::empty();
        for bulk in &workload.updates {
            for (row, mult) in &bulk.rows {
                let w = *mult as f64;
                let (x, y) = (&row[0], &row[row.len() - 1]);
                let (ex, ey) = (ctx.encode_value(x), ctx.encode_value(y));
                let fact_key: Vec<(u8, u64)> = row[..row.len() - 1]
                    .iter()
                    .map(|v| {
                        let ev = ctx.encode_value(v);
                        (ev.tag, ev.word)
                    })
                    .collect();
                let slot = *groups.entry(fact_key).or_insert_with(|| {
                    scalar.push(RelValue::empty());
                    linear.push(RelValue::empty());
                    interaction.push(RelValue::empty());
                    boxed_scalar.push(BoxedRelValue::empty());
                    boxed_linear.push(BoxedRelValue::empty());
                    boxed_interaction.push(BoxedRelValue::empty());
                    scalar.len() - 1
                });
                scalar[slot].add_entry(&empty, w);
                linear[slot].add_entry(&RelKey::singleton(0, ex), w);
                interaction[slot].add_product_scaled(
                    &RelValue::indicator(0, ex),
                    &RelValue::indicator(1, ey),
                    w,
                );
                boxed_scalar[slot].add_scaled(&BoxedRelValue::scalar(1.0), w);
                boxed_linear[slot].add_scaled(&BoxedRelValue::indicator(0, x.clone()), w);
                boxed_interaction[slot].add_product_scaled(
                    &BoxedRelValue::indicator(0, x.clone()),
                    &BoxedRelValue::indicator(1, y.clone()),
                    w,
                );
            }
        }
        let mut boxed = boxed_scalar;
        boxed.append(&mut boxed_linear);
        boxed.append(&mut boxed_interaction);
        MemAblation {
            scalar,
            linear,
            interaction,
            boxed,
        }
    }

    fn relations(&self) -> impl Iterator<Item = &RelValue> {
        self.scalar
            .iter()
            .chain(self.linear.iter())
            .chain(self.interaction.iter())
    }

    /// Stored entries across the population (identical in every design;
    /// checked against the boxed mirror).
    pub fn entries(&self) -> usize {
        let encoded: usize = self.relations().map(RelValue::len).sum();
        let boxed: usize = self.boxed.iter().map(BoxedRelValue::len).sum();
        assert_eq!(encoded, boxed, "mem ablation representations diverge");
        encoded
    }

    /// Total footprint of the encoded relations (values + owned heap).
    pub fn new_bytes(&self) -> usize {
        self.relations()
            .map(|r| std::mem::size_of::<RelValue>() + r.allocated_bytes())
            .sum()
    }

    /// Total approximate footprint under the boxed-`Value` reference
    /// layout (values + owned heap).
    pub fn boxed_bytes(&self) -> usize {
        self.boxed
            .iter()
            .map(|r| std::mem::size_of::<BoxedRelValue>() + r.approx_heap_bytes())
            .sum()
    }
}

/// Timing result of replaying an update stream through a maintenance
/// strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// Total wall-clock seconds spent applying updates.
    pub seconds: f64,
    /// Number of individual updates applied.
    pub updates: usize,
}

impl Throughput {
    /// Updates per second.
    pub fn updates_per_second(&self) -> f64 {
        if self.seconds == 0.0 {
            f64::INFINITY
        } else {
            self.updates as f64 / self.seconds
        }
    }
}

/// Measures the wall-clock time of applying every update bulk through a
/// callback (the callback applies one bulk and may also read the result, to
/// mirror the refresh-per-bulk behaviour of the demo).
pub fn measure<F: FnMut(&Update)>(updates: &[Update], mut apply: F) -> Throughput {
    let start = Instant::now();
    for bulk in updates {
        apply(bulk);
    }
    Throughput {
        seconds: start.elapsed().as_secs_f64(),
        updates: updates.iter().map(Update::len).sum(),
    }
}

/// One measured F-IVM configuration, as recorded in `BENCH_ivm.json`.
///
/// The JSON file gives every future perf PR a machine-readable baseline:
/// rows/second plus the engine's own work counters (delta entries and ring
/// operations), so a regression in either wall-clock or algorithmic work
/// is visible from the artifact alone.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Dataset name (`Retailer`, `Favorita`).
    pub dataset: String,
    /// Application / ring (`COUNT`, `COVAR`, `MI`).
    pub app: String,
    /// Updates per bulk in the replayed stream.
    pub bulk_size: usize,
    /// Individual updates applied (for `MEM-*` records: entries measured).
    pub updates: usize,
    /// Wall-clock seconds spent applying them.  `0.0` marks an *untimed*
    /// record (the memory-only `MEM-*` rows) — the JSON writer emits
    /// `rows_per_sec: 0.0` for those instead of a fabricated rate.
    pub seconds: f64,
    /// Delta entries pushed into views (update phase only).
    pub delta_entries: usize,
    /// Ring additions (update phase only).
    pub ring_adds: usize,
    /// Ring multiplications (update phase only).
    pub ring_muls: usize,
    /// Sibling-view probes requested during propagation (update phase
    /// only) — with hash-once probing each counts one key hash.
    pub probes: usize,
    /// Probes that found a match (update phase only).
    pub probe_hits: usize,
    /// View-table rehash events (measured window only).  Engine records
    /// report **warm-window deltas** — a post-warmup snapshot is
    /// subtracted — so a non-zero value here is a violation of the
    /// steady-state "rehashes pinned to 0" contract, not warmup growth.
    pub rehashes: usize,
    /// Byte gauge.  Engine records: the absolute `EngineStats::table_bytes`
    /// footprint (all materialized view storage) at the end of the run —
    /// for sharded records, summed across shards.  `MEM-*` records: total
    /// bytes of the measured relation population under the named layout.
    /// 0 for the speed-only `PROBE-*`/`RING-*` ablations.
    pub table_bytes: usize,
}

impl BenchRecord {
    /// Updates (rows) per second.
    pub fn rows_per_sec(&self) -> f64 {
        if self.seconds == 0.0 {
            f64::INFINITY
        } else {
            self.updates as f64 / self.seconds
        }
    }
}

/// Renders one record as a single JSON object line (no indentation, no
/// trailing comma) — the unit both artifact writers assemble from.
fn render_record(r: &BenchRecord) -> String {
    format!(
        concat!(
            "{{\"dataset\": \"{}\", \"app\": \"{}\", \"bulk_size\": {}, ",
            "\"updates\": {}, \"seconds\": {:.6}, \"rows_per_sec\": {:.1}, ",
            "\"delta_entries\": {}, \"ring_adds\": {}, \"ring_muls\": {}, ",
            "\"probes\": {}, \"probe_hits\": {}, \"rehashes\": {}, ",
            "\"table_bytes\": {}}}"
        ),
        r.dataset,
        r.app,
        r.bulk_size,
        r.updates,
        r.seconds,
        // Untimed (memory-only) records report 0.0, not a fabricated
        // or non-JSON `inf` rate.
        if r.seconds == 0.0 { 0.0 } else { r.rows_per_sec() },
        r.delta_entries,
        r.ring_adds,
        r.ring_muls,
        r.probes,
        r.probe_hits,
        r.rehashes,
        r.table_bytes,
    )
}

/// Assembles rendered record lines into the `BENCH_*.json` document.
fn write_record_lines(path: &str, lines: &[String]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"benchmark\": \"ivm_throughput\",\n  \"workloads\": [\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str("    ");
        out.push_str(line);
        if i + 1 != lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Writes the benchmark records as a `BENCH_*.json` artifact (hand-rolled
/// JSON — the build environment has no serde).
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(render_record).collect();
    write_record_lines(path, &lines)
}

/// Merges `records` into an existing `BENCH_*.json` artifact: previous
/// records whose `app` starts with `family` (e.g. `"REC-"`) are replaced,
/// everything else is kept verbatim.  Lets a family-specific experiment
/// (like `exp_recovery`) refresh its own rows without clobbering the
/// records `exp_throughput` wrote.  A missing artifact is created.
///
/// Hand-rolled like the writer: record lines are recognized by their
/// `    {"dataset": ` shape, so this only understands artifacts produced
/// by [`write_bench_json`] / itself.
pub fn append_bench_json(
    path: &str,
    family: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return write_bench_json(path, records);
        }
        Err(e) => return Err(e),
    };
    let family_marker = format!("\"app\": \"{family}");
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"dataset\":"))
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| !l.contains(&family_marker))
        .collect();
    lines.extend(records.iter().map(render_record));
    write_record_lines(path, &lines)
}

/// Formats a ratio like `123.4x` with a sensible precision.
pub fn format_speedup(ratio: f64) -> String {
    if ratio >= 100.0 {
        format!("{ratio:.0}x")
    } else if ratio >= 10.0 {
        format!("{ratio:.1}x")
    } else {
        format!("{ratio:.2}x")
    }
}

/// Prints a simple aligned table: a header row followed by data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_retailer() -> Workload {
        Workload::retailer(
            fivm_data::RetailerConfig::tiny(),
            fivm_data::StreamConfig {
                bulks: 2,
                bulk_size: 20,
                delete_fraction: 0.2,
                seed: 1,
            },
            true,
        )
    }

    #[test]
    fn workload_construction_and_engines() {
        let w = tiny_retailer();
        assert_eq!(w.dataset.name(), "Retailer");
        assert_eq!(w.total_updates(), 40);
        let mut e = w.covar_engine();
        e.load_database(&w.database).unwrap();
        assert!(e.result().count() > 0.0);
        let mut c = w.count_engine();
        c.load_database(&w.database).unwrap();
        assert!(c.result() > 0);
        let mut mi = w.mi_engine();
        mi.load_database(&w.database).unwrap();
        assert!(mi.result().count() > 0.0);
    }

    #[test]
    fn favorita_workload_and_gen_covar() {
        let w = Workload::favorita(
            fivm_data::FavoritaConfig::tiny(),
            fivm_data::StreamConfig {
                bulks: 1,
                bulk_size: 10,
                delete_fraction: 0.0,
                seed: 2,
            },
        );
        assert_eq!(w.dataset.name(), "Favorita");
        let mut e = w.gen_covar_engine();
        e.load_database(&w.database).unwrap();
        assert!(e.result().count() > 0.0);
    }

    #[test]
    fn probe_ablation_representations_agree() {
        let w = tiny_retailer();
        let ab = ProbeAblation::from_workload(&w);
        assert!(!ab.is_empty());
        assert_eq!(ab.num_probes(), 40);
        // Both representations must return identical hit sums, and the
        // measurement helper enforces that before timing.
        assert_eq!(ab.run_boxed(), ab.run_encoded());
        assert!(ab.measure(true, 2) > 0.0);
        assert!(ab.measure(false, 2) > 0.0);
    }

    #[test]
    fn mem_ablation_accounts_identical_populations() {
        let w = tiny_retailer();
        let mem = MemAblation::from_workload(&w);
        let entries = mem.entries();
        assert!(entries > 0);
        assert!(mem.new_bytes() > 0);
        assert!(mem.boxed_bytes() > 0);
    }

    #[test]
    fn measurement_and_formatting_helpers() {
        let w = tiny_retailer();
        let mut engine = w.count_engine();
        engine.load_database(&w.database).unwrap();
        let t = measure(&w.updates, |bulk| {
            engine.apply_update(bulk).unwrap();
        });
        assert_eq!(t.updates, 40);
        assert!(t.updates_per_second() > 0.0);
        assert_eq!(format_speedup(250.0), "250x");
        assert_eq!(format_speedup(12.34), "12.3x");
        assert_eq!(format_speedup(2.5), "2.50x");
        print_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
