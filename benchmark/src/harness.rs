//! What every workload shares: run parameters, the report a workload
//! fills, the steady-state churn loop, and the tiny-scale oracle gate.

use crate::gen::Round;
use crate::trace::Tracer;
use crate::util::{median, percentile, sorted, timed};
use fivm_baselines::NaiveReevaluation;
use fivm_core::{Engine, EngineStats};
use fivm_relation::{Database, Update};
use fivm_ring::{LiftFn, Ring};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How often set-up is repeated in a full-scale untraced run.
const SETUP_REPEATS: usize = 3;

/// The quantile at which repeated timings are reported.  Interference from
/// the box's other tenants only ever slows a timing down, in bursts that
/// cover a fifth to a half of a run, so the lower quartile of the times
/// (the upper quartile of the rates) sits in the undisturbed mode where the
/// median flips between modes from run to run.
pub const FAST_QUANTILE: f64 = 0.25;

/// [`FAST_QUANTILE`] of repeated timings of one operation.
pub fn fast(times: &[f64]) -> f64 {
    percentile(&sorted(times.to_vec()), FAST_QUANTILE)
}

#[derive(Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Seconds of measurement the pass may spend.
    pub seconds: f64,
    /// Full scale (the workload as named) or reduced scale (`--quick`, and
    /// the passes a traced run makes over the *other* workloads' layers).
    pub full: bool,
    /// A per-layer pass (`--trace 1`): one set-up, a stretch with recording
    /// paused, and the probes that only per-layer metrics need.  Whether
    /// spans are recorded is the [`Tracer`]'s business.
    pub trace: bool,
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory for one pass of one workload, emptied first.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
    dir
}

/// What a pass of a workload produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation (a batch applied or submitted).
    #[inline]
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one correctness check, remembering which one failed.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(ok);
        if !ok && self.failures.len() < 20 {
            self.failures.push(what.to_string());
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }

    /// Folds in the per-layer metrics of a reduced-scale pass over another
    /// workload, keeping whatever this report measured itself.
    pub fn adopt_layers(&mut self, other: Report) {
        for (name, value) in other.per_layer {
            self.per_layer.entry(name).or_insert(value);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Runs `setup` — everything before the first measured operation — inside
/// a `bench.setup` span and records `setup_s`.  A full-scale untraced pass
/// sets up [`SETUP_REPEATS`] times, dropping each state before building the
/// next, and reports the median; the last state is the one measured.
pub fn set_up<S>(
    p: &Params,
    tr: &mut Tracer,
    report: &mut Report,
    mut setup: impl FnMut(&mut Tracer, &mut Report) -> S,
) -> S {
    let repeats = if p.trace || !p.full { 1 } else { SETUP_REPEATS };
    let mut seconds = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let (s, secs) = timed(|| tr.span("bench.setup", 0, |tr| setup(tr, report)));
        seconds.push(secs);
        state = Some(s);
    }
    report.e2e("setup_s", median(&seconds));
    state.expect("at least one set-up")
}

/// Binds every relation of the engine's query to its table's column
/// layout — what a restore does in place of `load_database`.
pub fn bind_tables<R: Ring>(engine: &mut Engine<R>, db: &Database) {
    let spec = engine.tree().spec().clone();
    for rel in 0..spec.num_relations() {
        let table = db
            .table(&spec.relation(rel).name)
            .expect("the database has every query relation");
        engine.bind_table(rel, &table.schema).expect("bind");
    }
}

/// Something a round can be replayed into.
pub trait Target {
    /// Applies one batch; `false` counts as a failed operation.
    fn apply(&mut self, update: &Update) -> bool;
    /// Whether the maintained result equals the post-load result (called
    /// between rounds, when the database is back in its loaded state).
    fn at_baseline(&mut self) -> bool;
    /// Maintained payload → fresh model.  Called between batches, a few
    /// times per round, and timed apart from them; returns whether there
    /// was a model to refresh.
    fn refresh(&mut self, _tr: &mut Tracer, _op: u64) -> bool {
        false
    }
    /// Called after each round's baseline check, outside every timing: the
    /// place for a persist-and-restore cycle.
    fn between_rounds(&mut self, _tr: &mut Tracer, _round: usize, _report: &mut Report) {}
}

/// An [`Engine`] with the result it had after the load.
pub struct EngineTarget<R: Ring> {
    pub engine: Engine<R>,
    pub baseline: R,
}

impl<R: Ring> EngineTarget<R> {
    pub fn loaded(mut engine: Engine<R>, db: &Database) -> Self {
        engine.load_database(db).expect("load database");
        let baseline = engine.result();
        EngineTarget { engine, baseline }
    }
}

impl<R: Ring> Target for EngineTarget<R> {
    fn apply(&mut self, update: &Update) -> bool {
        self.engine.apply_update(update).is_ok()
    }

    fn at_baseline(&mut self) -> bool {
        self.engine.result() == self.baseline
    }
}

/// One measured window of rounds.
pub struct Window {
    /// Seconds each batch took, round after round (`batches_per_round`
    /// entries per round).
    pub batch_s: Vec<f64>,
    /// Seconds each model refresh took.
    pub refresh_s: Vec<f64>,
    pub batches_per_round: usize,
    pub rows_per_round: usize,
    /// Seconds and rows spent in fact and in dimension batches.
    pub fact_s: f64,
    pub fact_rows: usize,
    pub dim_s: f64,
    pub dim_rows: usize,
}

impl Window {
    pub fn new(batches_per_round: usize, rows_per_round: usize) -> Window {
        Window {
            batch_s: Vec::with_capacity(1 << 16),
            refresh_s: Vec::with_capacity(1 << 10),
            batches_per_round,
            rows_per_round,
            fact_s: 0.0,
            fact_rows: 0,
            dim_s: 0.0,
            dim_rows: 0,
        }
    }

    pub fn rounds(&self) -> usize {
        self.batch_s.len() / self.batches_per_round
    }

    /// Appends the rounds of a later window over the same round.
    pub fn absorb(&mut self, other: Window) {
        debug_assert_eq!(self.batches_per_round, other.batches_per_round);
        self.batch_s.extend(other.batch_s);
        self.refresh_s.extend(other.refresh_s);
        self.fact_s += other.fact_s;
        self.fact_rows += other.fact_rows;
        self.dim_s += other.dim_s;
        self.dim_rows += other.dim_rows;
    }

    /// Each batch position of the round at its fast quartile over the
    /// rounds: what the round costs when nothing disturbs it.
    fn undisturbed_batch_s(&self) -> Vec<f64> {
        let rounds = self.rounds();
        let mut column = Vec::with_capacity(rounds);
        (0..self.batches_per_round)
            .map(|j| {
                column.clear();
                column.extend((0..rounds).map(|r| self.batch_s[r * self.batches_per_round + j]));
                fast(&column)
            })
            .collect()
    }

    /// The steady-state throughput: the rows of one round over the sum of
    /// its batches' fast-quartile times.
    pub fn rows_per_s(&self) -> f64 {
        self.rows_per_round as f64 / self.undisturbed_batch_s().iter().sum::<f64>()
    }

    pub fn ns_per_row(&self) -> f64 {
        1e9 / self.rows_per_s()
    }

    /// The median batch of the round, timed at its fast quartile, ms.
    pub fn visible_p50_ms(&self) -> f64 {
        median(&self.undisturbed_batch_s()) * 1e3
    }

    /// Quantile of the per-batch latency over all batches as they fell,
    /// disturbances included, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        percentile(&sorted(self.batch_s.clone()), q) * 1e3
    }

    /// The fast-quartile refresh time, ms (0 when the target has no model).
    pub fn refresh_ms(&self) -> f64 {
        if self.refresh_s.is_empty() {
            0.0
        } else {
            fast(&self.refresh_s) * 1e3
        }
    }
}

/// One target of an interleaved measurement and the span its applies get.
pub struct Lane<'a> {
    pub span: &'static str,
    pub target: &'a mut dyn Target,
}

/// Model refreshes per round (spread evenly over its batches).
const REFRESHES_PER_ROUND: usize = 8;

/// Replays `round` into every lane in turn — one round of the first lane,
/// one of the second, … — until `budget_s` has passed (at least
/// `min_rounds` rounds each).  Interleaving makes every lane's window span
/// the whole budget, so a slow stretch of the box hits a part of each
/// lane's rounds and not one lane's whole window.  Every batch is timed,
/// the round trip is checked after every round, and each apply is wrapped
/// in the lane's span.
pub fn churn_lanes(
    tr: &mut Tracer,
    round: &Round,
    lanes: &mut [Lane<'_>],
    budget_s: f64,
    min_rounds: usize,
    report: &mut Report,
) -> Vec<Window> {
    let dims: Vec<bool> = round.batches().map(|u| round.is_dimension(u)).collect();
    let refresh_every = (round.num_batches() / REFRESHES_PER_ROUND).max(1);
    let mut windows: Vec<Window> = lanes
        .iter()
        .map(|_| Window::new(round.num_batches(), round.rows()))
        .collect();
    let start = Instant::now();
    let mut op = 0u64;
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < budget_s {
        for (lane, w) in lanes.iter_mut().zip(&mut windows) {
            let mut last = Instant::now();
            for (i, (update, &is_dim)) in round.batches().zip(&dims).enumerate() {
                op += 1;
                let ok = tr.leaf(lane.span, op, || lane.target.apply(update));
                report.op(ok);
                let now = Instant::now();
                let elapsed = (now - last).as_secs_f64();
                last = now;
                if is_dim {
                    w.dim_s += elapsed;
                    w.dim_rows += update.len();
                } else {
                    w.fact_s += elapsed;
                    w.fact_rows += update.len();
                }
                w.batch_s.push(elapsed);
                if (i + 1) % refresh_every == 0 && lane.target.refresh(tr, op) {
                    let now = Instant::now();
                    w.refresh_s.push((now - last).as_secs_f64());
                    last = now;
                }
            }
            let ok = tr.leaf("core.result", op, || lane.target.at_baseline());
            report.check(
                "round trip: result after the round differs from the result after load",
                ok,
            );
            lane.target.between_rounds(tr, rounds, report);
        }
        rounds += 1;
    }
    windows
}

/// [`churn_lanes`] with a single lane.
pub fn churn(
    tr: &mut Tracer,
    span: &'static str,
    round: &Round,
    target: &mut dyn Target,
    budget_s: f64,
    min_rounds: usize,
    report: &mut Report,
) -> Window {
    churn_lanes(
        tr,
        round,
        &mut [Lane { span, target }],
        budget_s,
        min_rounds,
        report,
    )
    .pop()
    .expect("one lane, one window")
}

/// Engine counters over a window, per input row.
pub fn stats_per_row(report: &mut Report, before: &EngineStats, after: &EngineStats) {
    let d = after.delta_since(before);
    let rows = d.rows_applied.max(1) as f64;
    report.layer("ring.adds_per_row", d.ring_adds as f64 / rows);
    report.layer("ring.muls_per_row", d.ring_muls as f64 / rows);
    report.layer(
        "ring.rehashes_per_krow",
        d.ring_rehashes as f64 * 1000.0 / rows,
    );
    report.layer("core.delta_entries_per_row", d.delta_entries as f64 / rows);
    report.layer("core.probes_per_row", d.probes as f64 / rows);
    report.layer(
        "core.probe_hit_ratio",
        d.probe_hits as f64 / d.probes.max(1) as f64,
    );
    report.layer("core.rehashes", d.rehashes as f64);
    report.layer("core.deferred_index_builds", d.deferred_index_builds as f64);
}

/// The tiny-scale oracle: `engine` against naive re-evaluation over a
/// seeded stream (forward half of `round`), checked after the load and
/// after the stream.  Returns the seconds the oracle side took.
pub fn oracle_check<R: Ring>(
    what: &str,
    mut engine: Engine<R>,
    lifts: Vec<LiftFn<R>>,
    db: &Database,
    round: &Round,
    report: &mut Report,
) -> f64 {
    let spec = engine.tree().spec().clone();
    engine.load_database(db).expect("oracle: engine load");
    let t = Instant::now();
    let mut naive = NaiveReevaluation::new(spec, lifts).expect("oracle: naive baseline");
    naive.load_database(db).expect("oracle: naive load");
    let mut naive_s = t.elapsed().as_secs_f64();
    report.check(
        &format!("oracle {what}: after load"),
        engine.result() == naive.result(),
    );
    for update in &round.forward {
        engine.apply_update(update).expect("oracle: engine update");
        let t = Instant::now();
        naive.apply_update(update).expect("oracle: naive update");
        naive_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let expected = naive.result();
    naive_s += t.elapsed().as_secs_f64();
    report.check(
        &format!("oracle {what}: after stream"),
        engine.result() == expected,
    );
    naive_s
}
