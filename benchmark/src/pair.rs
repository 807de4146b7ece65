//! The three single-`Engine` workloads — `retailer-fact`, `favorita-ring`,
//! `retailer-mixed` — share one driver: a *primary* COVAR-family engine and
//! a *contrast* engine replay the same round; only the inputs, the rings
//! and the model refresh differ.

use crate::gen::{self, Round};
use crate::harness::{
    bind_tables, churn, churn_lanes, fast, oracle_check, set_up, stats_per_row, EngineTarget, Lane,
    Params, Report, Target,
};
use crate::trace::Tracer;
use crate::util::{mb, timed};
use fivm_core::{apps, AggregateLayout, Engine};
use fivm_data::favorita::{favorita_query, favorita_tree};
use fivm_data::retailer::{retailer_query_continuous, retailer_tree};
use fivm_data::{FavoritaConfig, RetailerConfig};
use fivm_ml::{chow_liu_tree, mi_matrix, rank_by_mi, DenseCovar, RidgeSolver};
use fivm_query::{QuerySpec, ViewTree};
use fivm_relation::{Database, Update};
use fivm_ring::{Cofactor, GenCofactor, LiftFn, PersistRing};

/// A save/restore cycle runs after every this-many-th round of the primary.
const RECOVER_EVERY_ROUNDS: usize = 3;

pub struct Inputs {
    pub db: Database,
    pub round: Round,
    pub gen_db_s: f64,
    pub gen_stream_s: f64,
}

/// One engine-pair workload.
pub trait Pair {
    type Primary: PersistRing;
    type Contrast: PersistRing;
    const NAME: &'static str;
    /// Span names of the two apply paths, and the per-layer metric each
    /// one's time per row is reported under.
    const PRIMARY_SPAN: &'static str;
    const CONTRAST_SPAN: &'static str;
    const PRIMARY_NS_PER_ROW: &'static str;
    const CONTRAST_NS_PER_ROW: &'static str;

    fn spec() -> QuerySpec;
    fn tree(spec: QuerySpec) -> ViewTree;
    /// Database and round; `tiny` is the oracle's scale.
    fn inputs(p: &Params, tiny: bool) -> Inputs;
    fn primary(tree: ViewTree) -> (Engine<Self::Primary>, Vec<LiftFn<Self::Primary>>);
    fn contrast(tree: ViewTree) -> (Engine<Self::Contrast>, Vec<LiftFn<Self::Contrast>>);
    /// The primary's maintained payload as the dense `X^T X` summary.
    fn dense_covar(
        layout: &AggregateLayout,
        label: usize,
        engine: &Engine<Self::Primary>,
        payload: &Self::Primary,
    ) -> fivm_common::Result<DenseCovar>;
    /// Whatever model the contrast engine's payload feeds (none for
    /// COUNT); returns whether there was one.
    fn refresh_contrast(
        _layout: &AggregateLayout,
        _label: usize,
        _engine: &Engine<Self::Contrast>,
        _parts: &mut RefreshParts,
    ) -> bool {
        false
    }
}

/// Per-step refresh timings, one entry per refresh.
#[derive(Default)]
pub struct RefreshParts {
    pub densecovar_ms: Vec<f64>,
    pub ridge_closed_ms: Vec<f64>,
    pub mi_matrix_ms: Vec<f64>,
    pub chow_liu_us: Vec<f64>,
    pub rank_us: Vec<f64>,
}

/// The primary engine as a [`Target`]: applies, refreshes its ridge model
/// between batches, and every few rounds saves its state and restores it
/// into a fresh engine.
struct Primary<'a, W: Pair> {
    target: EngineTarget<W::Primary>,
    tree: &'a ViewTree,
    db: &'a Database,
    layout: AggregateLayout,
    label: usize,
    parts: RefreshParts,
    save_ms: Vec<f64>,
    restore_s: Vec<f64>,
    state_bytes: Vec<u8>,
}

impl<W: Pair> Primary<'_, W> {
    /// Save, then restore into a fresh engine, which must land on the
    /// saved engine's result.
    fn recover_cycle(&mut self, tr: &mut Tracer, op: u64, report: &mut Report) {
        self.state_bytes.clear();
        let ((), s) = timed(|| {
            tr.leaf("core.save_state", op, || {
                self.target.engine.save_state(&mut self.state_bytes)
            })
        });
        self.save_ms.push(s * 1e3);
        let (restored, s) = timed(|| {
            tr.leaf("core.load_state", op, || {
                let (mut fresh, _) = W::primary(self.tree.clone());
                bind_tables(&mut fresh, self.db);
                fresh.load_state(&self.state_bytes).map(|()| fresh)
            })
        });
        self.restore_s.push(s);
        let ok = restored.is_ok_and(|e| e.result() == self.target.engine.result());
        report.check("recover: restored engine differs from the saved one", ok);
    }
}

impl<W: Pair> Target for Primary<'_, W> {
    fn apply(&mut self, update: &Update) -> bool {
        self.target.apply(update)
    }

    fn at_baseline(&mut self) -> bool {
        self.target.at_baseline()
    }

    /// Maintained payload → ridge model by the closed form.
    fn refresh(&mut self, tr: &mut Tracer, op: u64) -> bool {
        let payload = tr.leaf("core.result", op, || self.target.engine.result());
        tr.leaf("ml.ridge", op, || {
            let (covar, s) =
                timed(|| W::dense_covar(&self.layout, self.label, &self.target.engine, &payload));
            self.parts.densecovar_ms.push(s * 1e3);
            let (model, s) =
                timed(|| covar.and_then(|c| RidgeSolver::default().solve_closed_form(&c)));
            self.parts.ridge_closed_ms.push(s * 1e3);
            std::hint::black_box(model.expect("ridge closed form"));
        });
        true
    }

    fn between_rounds(&mut self, tr: &mut Tracer, round: usize, report: &mut Report) {
        if round.is_multiple_of(RECOVER_EVERY_ROUNDS) {
            self.recover_cycle(tr, round as u64, report);
        }
    }
}

/// The contrast engine as a [`Target`]; it refreshes whatever model its
/// payload feeds.
struct Contrast<W: Pair> {
    target: EngineTarget<W::Contrast>,
    layout: AggregateLayout,
    label: usize,
    parts: RefreshParts,
}

impl<W: Pair> Target for Contrast<W> {
    fn apply(&mut self, update: &Update) -> bool {
        self.target.apply(update)
    }

    fn at_baseline(&mut self) -> bool {
        self.target.at_baseline()
    }

    fn refresh(&mut self, tr: &mut Tracer, op: u64) -> bool {
        tr.leaf("ml.contrast_model", op, || {
            W::refresh_contrast(
                &self.layout,
                self.label,
                &self.target.engine,
                &mut self.parts,
            )
        })
    }
}

struct Setup<W: Pair> {
    inputs: Inputs,
    tree: ViewTree,
    primary: EngineTarget<W::Primary>,
    contrast: EngineTarget<W::Contrast>,
    compile_s: f64,
    load_s: f64,
}

/// Everything before the first measured operation: generate, compile,
/// build, load, one warm round through each engine.
fn setup<W: Pair>(p: &Params, tr: &mut Tracer, report: &mut Report) -> Setup<W> {
    let inputs = tr.leaf("data.generate", 0, || W::inputs(p, false));
    let (tree, compile_s) = timed(|| tr.leaf("query.compile", 0, || W::tree(W::spec())));
    let ((mut primary, mut contrast), load_s) = timed(|| {
        tr.leaf("core.load_database", 0, || {
            let primary = EngineTarget::loaded(W::primary(tree.clone()).0, &inputs.db);
            let contrast = EngineTarget::loaded(W::contrast(tree.clone()).0, &inputs.db);
            (primary, contrast)
        })
    });
    // One unmeasured round warms tables, indexes and the delta pool.
    churn(
        tr,
        W::PRIMARY_SPAN,
        &inputs.round,
        &mut primary,
        0.0,
        1,
        report,
    );
    churn(
        tr,
        W::CONTRAST_SPAN,
        &inputs.round,
        &mut contrast,
        0.0,
        1,
        report,
    );
    Setup {
        inputs,
        tree,
        primary,
        contrast,
        compile_s,
        load_s,
    }
}

/// Gradient descent warm-started from the model of the previous bulk, as
/// the demo resumes it after every update: `(ms, iterations)`.
fn gradient_descent_probe<W: Pair>(
    primary: &mut Primary<'_, W>,
    round: &crate::gen::Round,
    report: &mut Report,
) -> (f64, f64) {
    let solver = RidgeSolver::default();
    let covar = |p: &Primary<'_, W>| {
        W::dense_covar(
            &p.layout,
            p.label,
            &p.target.engine,
            &p.target.engine.result(),
        )
        .expect("dense covar")
    };
    let before = solver
        .solve_closed_form(&covar(primary))
        .expect("ridge closed form");
    report.op(primary.apply(round.batch(0)));
    let after = covar(primary);
    let (model, s) = timed(|| solver.solve_gradient_descent(&after, Some(&before.params)));
    // Batch 0 of the forward stream is undone by the last inverse batch.
    report.op(primary.apply(round.batch(round.num_batches() - 1)));
    (s * 1e3, model.map_or(0.0, |m| m.iterations as f64))
}

/// Tiny-scale oracle for both engines of the pair.
fn oracle<W: Pair>(p: &Params, report: &mut Report) -> f64 {
    let tiny = W::inputs(p, true);
    let tree = W::tree(W::spec());
    let (e, lifts) = W::primary(tree.clone());
    let a = oracle_check(
        &format!("{} primary", W::NAME),
        e,
        lifts,
        &tiny.db,
        &tiny.round,
        report,
    );
    let (e, lifts) = W::contrast(tree);
    a + oracle_check(
        &format!("{} contrast", W::NAME),
        e,
        lifts,
        &tiny.db,
        &tiny.round,
        report,
    )
}

pub fn run<W: Pair>(p: &Params, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let naive_s = tr.leaf("baselines.naive_check", 0, || oracle::<W>(p, &mut report));
    report.layer("baselines.naive_check_s", naive_s);

    let Setup {
        inputs,
        tree,
        primary,
        contrast,
        compile_s,
        load_s,
    } = set_up(p, tr, &mut report, |tr, report| setup::<W>(p, tr, report));
    let db_rows = inputs.db.total_rows();
    report.layer("data.gen_db_s", inputs.gen_db_s);
    report.layer(
        "data.gen_stream_rows_per_s",
        inputs.round.rows() as f64 / 2.0 / inputs.gen_stream_s,
    );
    report.layer("query.compile_us", compile_s * 1e6);
    report.layer("core.load_rows_per_s", 2.0 * db_rows as f64 / load_s);

    let layout = AggregateLayout::of(tree.spec());
    let label = layout.label.expect("the query declares a label");
    let mut primary: Primary<'_, W> = Primary {
        target: primary,
        tree: &tree,
        db: &inputs.db,
        layout: layout.clone(),
        label,
        parts: RefreshParts::default(),
        save_ms: Vec::new(),
        restore_s: Vec::new(),
        state_bytes: Vec::new(),
    };
    let mut contrast: Contrast<W> = Contrast {
        target: contrast,
        layout,
        label,
        parts: RefreshParts::default(),
    };

    // Counts are taken over one fixed round and the footprint right after
    // it, so they repeat exactly whatever the box's speed: the number of
    // rounds the timed window fits is not a count.
    let counted = primary.target.engine.stats();
    churn(
        tr,
        W::PRIMARY_SPAN,
        &inputs.round,
        &mut primary.target,
        0.0,
        1,
        &mut report,
    );
    let primary_stats = primary.target.engine.stats();
    stats_per_row(&mut report, &counted, &primary_stats);
    report.e2e(
        "resident_mb",
        mb(primary_stats.table_bytes + contrast.target.engine.stats().table_bytes),
    );
    report.layer(
        "core.view_bytes_per_row",
        primary_stats.table_bytes as f64 / db_rows as f64,
    );
    report.layer(
        "ring.payload_bytes_per_entry",
        primary_stats.table_bytes as f64 / primary.target.engine.total_view_entries().max(1) as f64,
    );

    // The measured window: rounds of the primary and of the contrast
    // engine take turns for `--seconds`.  A traced pass first spends a
    // quarter of it with recording paused, which prices the tracing.
    let mut budget = p.seconds;
    let mut untraced_rate = None;
    if p.trace {
        tr.set_enabled(false);
        let off = churn(
            tr,
            W::PRIMARY_SPAN,
            &inputs.round,
            &mut primary,
            budget / 8.0,
            3,
            &mut report,
        );
        tr.set_enabled(true);
        untraced_rate = Some(off.rows_per_s());
        budget *= 0.75;
    }
    let before = (
        primary.target.engine.stats(),
        contrast.target.engine.stats(),
    );
    let mut windows = tr.span("bench.window", 0, |tr| {
        let mut lanes = [
            Lane {
                span: W::PRIMARY_SPAN,
                target: &mut primary,
            },
            Lane {
                span: W::CONTRAST_SPAN,
                target: &mut contrast,
            },
        ];
        churn_lanes(tr, &inputs.round, &mut lanes, budget, 3, &mut report)
    });
    let (contrast_window, primary_window) = (
        windows.pop().expect("contrast window"),
        windows.pop().expect("primary window"),
    );
    let after = (
        primary.target.engine.stats(),
        contrast.target.engine.stats(),
    );
    let rehashes =
        after.0.delta_since(&before.0).rehashes + after.1.delta_since(&before.1).rehashes;
    report.check(
        "steady state: a view table rehashed inside a measured window",
        rehashes == 0,
    );

    report.e2e("covar_rows_per_s", primary_window.rows_per_s());
    report.e2e("contrast_rows_per_s", contrast_window.rows_per_s());
    report.e2e("visible_p50_ms", primary_window.visible_p50_ms());
    report.layer(
        "ml.refresh_ms",
        primary_window.refresh_ms() + contrast_window.refresh_ms(),
    );
    report.e2e("recover_s", fast(&primary.restore_s));
    report.layer("core.visible_p99_ms", primary_window.latency_ms(0.99));
    report.layer(W::PRIMARY_NS_PER_ROW, primary_window.ns_per_row());
    report.layer(W::CONTRAST_NS_PER_ROW, contrast_window.ns_per_row());
    if primary_window.dim_rows > 0 {
        report.layer(
            "core.fact_apply_ns_per_row",
            primary_window.fact_s * 1e9 / primary_window.fact_rows as f64,
        );
        report.layer(
            "core.dim_apply_ns_per_row",
            primary_window.dim_s * 1e9 / primary_window.dim_rows as f64,
        );
    }
    if let Some(off) = untraced_rate {
        report.layer(
            "bench.trace_overhead_pct",
            100.0 * (off - primary_window.rows_per_s()) / off,
        );
    }
    for (name, values) in [
        ("ml.densecovar_ms", &primary.parts.densecovar_ms),
        ("ml.ridge_closed_ms", &primary.parts.ridge_closed_ms),
        ("ml.mi_matrix_ms", &contrast.parts.mi_matrix_ms),
        ("ml.chow_liu_us", &contrast.parts.chow_liu_us),
        ("ml.rank_us", &contrast.parts.rank_us),
    ] {
        if !values.is_empty() {
            report.layer(name, fast(values));
        }
    }
    report.layer("core.save_state_ms", fast(&primary.save_ms));
    report.layer("core.load_state_ms", fast(&primary.restore_s) * 1e3);
    report.layer("core.state_mb", mb(primary.state_bytes.len()));
    report.layer(
        "ring.persist_mb_per_s",
        mb(primary.state_bytes.len()) / (fast(&primary.save_ms) / 1e3),
    );

    if p.trace {
        let (ms, iters) = gradient_descent_probe::<W>(&mut primary, &inputs.round, &mut report);
        report.layer("ml.ridge_gd_ms", ms);
        report.layer("ml.ridge_gd_iters", iters);
    }
    let engine = &primary.target.engine;
    let result_us: Vec<f64> = (0..200)
        .map(|i| {
            timed(|| tr.leaf("core.result", i, || std::hint::black_box(engine.result()))).1 * 1e6
        })
        .collect();
    report.layer("core.result_us", fast(&result_us));
    let (relation, s) = timed(|| tr.leaf("core.result_relation", 0, || engine.result_relation()));
    std::hint::black_box(relation);
    report.layer("core.result_relation_ms", s * 1e3);

    report
}

// ---------------------------------------------------------------------------

pub fn retailer_config(p: &Params, tiny: bool) -> RetailerConfig {
    if tiny {
        RetailerConfig::tiny()
    } else if p.full {
        RetailerConfig::benchmark()
    } else {
        RetailerConfig::default()
    }
}

fn retailer_inputs(p: &Params, tiny: bool, batch_rows: usize, mixed: bool) -> Inputs {
    let ((cfg, db), gen_db_s) = timed(|| gen::retailer_db(retailer_config(p, tiny), p.seed));
    let fact_rows = match (tiny, p.full, mixed) {
        (true, _, _) => 300,
        (_, true, false) => 40_000,
        (_, true, true) => 10_000,
        (_, false, _) => 5_000,
    };
    let (round, gen_stream_s) = timed(|| {
        if mixed {
            gen::retailer_mixed_round(&cfg, &db, p.seed, fact_rows, batch_rows, 10, 1)
        } else {
            gen::retailer_fact_round(
                &cfg,
                p.seed,
                fact_rows.div_ceil(1000),
                1000.min(fact_rows),
                batch_rows,
            )
        }
    });
    Inputs {
        db,
        round,
        gen_db_s,
        gen_stream_s,
    }
}

pub fn covar_engine(tree: ViewTree) -> (Engine<Cofactor>, Vec<LiftFn<Cofactor>>) {
    let lifts = apps::covar_lifts(tree.spec()).expect("continuous lifts");
    (apps::covar_engine(tree).expect("covar engine"), lifts)
}

fn count_engine(tree: ViewTree) -> (Engine<i64>, Vec<LiftFn<i64>>) {
    let lifts = apps::count_lifts(tree.spec());
    (apps::count_engine(tree).expect("count engine"), lifts)
}

/// Continuous COVAR payload → ridge model by the closed form, inside an
/// `ml.ridge` span: the model refresh of the Cofactor-ring deployments
/// outside this module (service twin, fleet).
pub fn fit_ridge(
    tr: &mut Tracer,
    op: u64,
    layout: &AggregateLayout,
    label: usize,
    payload: &Cofactor,
) {
    tr.leaf("ml.ridge", op, || {
        let covar = DenseCovar::from_cofactor(payload, &layout.names, label).expect("dense covar");
        let model = RidgeSolver::default().solve_closed_form(&covar);
        std::hint::black_box(model.expect("ridge closed form"));
    });
}

/// Continuous COVAR (primary) and COUNT (contrast) over the Retailer
/// continuous query; `MIXED` selects the small-batch stream with dimension
/// updates.
pub struct Retailer<const MIXED: bool>;
pub type RetailerFact = Retailer<false>;
pub type RetailerMixed = Retailer<true>;

impl<const MIXED: bool> Pair for Retailer<MIXED> {
    type Primary = Cofactor;
    type Contrast = i64;
    const NAME: &'static str = if MIXED {
        "retailer-mixed"
    } else {
        "retailer-fact"
    };
    const PRIMARY_SPAN: &'static str = "core.apply_update.covar";
    const CONTRAST_SPAN: &'static str = "core.apply_update.count";
    const PRIMARY_NS_PER_ROW: &'static str = "core.covar_apply_ns_per_row";
    const CONTRAST_NS_PER_ROW: &'static str = "core.count_apply_ns_per_row";

    fn spec() -> QuerySpec {
        retailer_query_continuous()
    }
    fn tree(spec: QuerySpec) -> ViewTree {
        retailer_tree(spec)
    }
    fn inputs(p: &Params, tiny: bool) -> Inputs {
        retailer_inputs(p, tiny, if MIXED { 10 } else { 1000 }, MIXED)
    }
    fn primary(tree: ViewTree) -> (Engine<Cofactor>, Vec<LiftFn<Cofactor>>) {
        covar_engine(tree)
    }
    fn contrast(tree: ViewTree) -> (Engine<i64>, Vec<LiftFn<i64>>) {
        count_engine(tree)
    }
    fn dense_covar(
        layout: &AggregateLayout,
        label: usize,
        _: &Engine<Cofactor>,
        payload: &Cofactor,
    ) -> fivm_common::Result<DenseCovar> {
        DenseCovar::from_cofactor(payload, &layout.names, label)
    }
}

/// Generalized COVAR (primary) and MI (contrast) over Favorita.
pub struct FavoritaRing;

impl Pair for FavoritaRing {
    type Primary = GenCofactor;
    type Contrast = GenCofactor;
    const NAME: &'static str = "favorita-ring";
    const PRIMARY_SPAN: &'static str = "core.apply_update.covar";
    const CONTRAST_SPAN: &'static str = "core.apply_update.mi";
    const PRIMARY_NS_PER_ROW: &'static str = "core.covar_apply_ns_per_row";
    const CONTRAST_NS_PER_ROW: &'static str = "core.mi_apply_ns_per_row";

    fn spec() -> QuerySpec {
        favorita_query()
    }
    fn tree(spec: QuerySpec) -> ViewTree {
        favorita_tree(spec)
    }
    fn inputs(p: &Params, tiny: bool) -> Inputs {
        let cfg = if tiny {
            FavoritaConfig::tiny()
        } else {
            FavoritaConfig::default()
        };
        let ((cfg, db), gen_db_s) = timed(|| gen::favorita_db(cfg, p.seed));
        let (bulks, bulk_size) = match (tiny, p.full) {
            (true, _) => (3, 100),
            (_, true) => (5, 1000),
            (_, false) => (1, 1000),
        };
        let (round, gen_stream_s) =
            timed(|| gen::favorita_fact_round(&cfg, p.seed, bulks, bulk_size));
        Inputs {
            db,
            round,
            gen_db_s,
            gen_stream_s,
        }
    }
    fn primary(tree: ViewTree) -> (Engine<GenCofactor>, Vec<LiftFn<GenCofactor>>) {
        let engine = apps::gen_covar_engine(tree).expect("generalized covar engine");
        let lifts = apps::gen_covar_lifts(engine.tree().spec(), engine.ctx());
        (engine, lifts)
    }
    fn contrast(tree: ViewTree) -> (Engine<GenCofactor>, Vec<LiftFn<GenCofactor>>) {
        let bins = gen::mi_binnings(tree.spec());
        let engine = apps::mi_engine(tree, &bins).expect("mi engine");
        let lifts = apps::mi_lifts(engine.tree().spec(), &bins, engine.ctx()).expect("mi lifts");
        (engine, lifts)
    }
    fn dense_covar(
        layout: &AggregateLayout,
        label: usize,
        engine: &Engine<GenCofactor>,
        payload: &GenCofactor,
    ) -> fivm_common::Result<DenseCovar> {
        DenseCovar::from_gen_cofactor(payload, &layout.names, &layout.kinds, label, engine.ctx())
    }
    /// MI payload → MI matrix → Chow-Liu tree → attribute ranking.
    fn refresh_contrast(
        layout: &AggregateLayout,
        label: usize,
        engine: &Engine<GenCofactor>,
        parts: &mut RefreshParts,
    ) -> bool {
        let payload = engine.result();
        let (mi, s) = timed(|| mi_matrix(&payload, layout.dim()));
        parts.mi_matrix_ms.push(s * 1e3);
        let (tree, s) = timed(|| chow_liu_tree(&mi, label));
        parts.chow_liu_us.push(s * 1e6);
        let (ranking, s) = timed(|| rank_by_mi(&payload, layout.dim(), label, 0.02));
        parts.rank_us.push(s * 1e6);
        std::hint::black_box((tree.expect("chow-liu tree"), ranking));
        true
    }
}
