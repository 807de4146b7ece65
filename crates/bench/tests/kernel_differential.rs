//! Seeded differential suite for the columnar batch kernel, driven the way
//! the kernels are deployed: the propagation kernel picks the scalar walk
//! below [`COLUMNAR_MIN_ROWS`] input entries and the columnar kernel (sorted
//! run detection + batch-fused lifts) from there up.  The **reference**
//! engine therefore receives every table and every update split into calls
//! of `COLUMNAR_MIN_ROWS - 1` rows — always the scalar walk — and the
//! engine **under test** receives the whole bulk; results are compared at
//! the root.
//!
//! A level's input is the grouped delta below it, which an index step can
//! fan out past the threshold however few rows the call had.  The reference
//! therefore loads the tables smallest first and the fact table last: each
//! row then finds its sibling views either empty or keyed by columns it
//! already binds, and no call of the reference reaches a columnar kernel
//! (the boundary case at the bottom would fail if one did).
//!
//! # Exactness
//!
//! The columnar kernel sorts a level's delta by `(hash, key)` with the
//! arrival index as tie-break, so rows sharing a key accumulate in the
//! same order as the scalar path; the only re-association is inside the
//! *batch-fused continuous* lift, which folds a run into horizontal sums
//! `(Σw, Σw·x, Σw·x²)`.  Hence, exactly as in the sharded and DAG
//! differential suites:
//!
//! * COUNT (`i64`) and MI (integer-count `f64`s in binned categorical
//!   tables) are asserted **bit-for-bit**;
//! * COVAR over *quantized* streams (every continuous value an integer)
//!   is exact in any addition order, so it is asserted bit-for-bit too;
//! * COVAR over raw float streams is asserted to a tight relative
//!   tolerance (1e-9).
//!
//! All streams carry deletes (`delete_fraction > 0`), so the kernel's
//! negative-multiplicity and cancel-to-zero paths are exercised; a final
//! `+pulse/-pulse` replay pins the steady-state hash-once contract
//! (`rehashes == 0`, `ring_rehashes == 0`) on **both** feeds.

use fivm_bench::Workload;
use fivm_common::{EncodedKey, Value};
use fivm_core::kernel::COLUMNAR_MIN_ROWS;
use fivm_core::Engine;
use fivm_dag::{QueryKind, QueryRegistry};
use fivm_data::{FavoritaConfig, RetailerConfig, StreamConfig};
use fivm_relation::{BaseTable, Database, Relation, Tuple, Update};
use fivm_ring::{ApproxEq, Ring};

// ---------------------------------------------------------------- helpers

fn quantize_value(v: &Value) -> Value {
    match v {
        Value::Double(d) => Value::double(d.get().round()),
        other => other.clone(),
    }
}

fn quantize_tuple(t: &[Value]) -> Tuple {
    t.iter().map(quantize_value).collect::<Vec<_>>().into_boxed_slice()
}

fn quantize_updates(updates: &[Update]) -> Vec<Update> {
    updates
        .iter()
        .map(|u| {
            Update::with_multiplicities(
                u.table.clone(),
                u.rows.iter().map(|(r, m)| (quantize_tuple(r), *m)).collect(),
            )
        })
        .collect()
}

fn quantize_database(db: &Database) -> Database {
    let mut out = Database::new();
    for table in db.tables() {
        let mut t = BaseTable::new(table.name.clone(), table.schema.clone());
        for (row, mult) in &table.rows {
            t.push_with_multiplicity(quantize_tuple(row), *mult);
        }
        out.add_table(t).expect("names stay unique");
    }
    out
}

#[derive(Clone, Copy)]
enum Agreement {
    Exact,
    Approx(f64),
}

fn sorted_entries<R: Ring>(rel: &Relation<R>) -> Vec<(Tuple, R)> {
    let mut entries: Vec<(Tuple, R)> = rel.iter().map(|(k, p)| (k.clone(), p.clone())).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

fn assert_agrees<R: Ring + ApproxEq>(
    columnar: &Relation<R>,
    scalar: &Relation<R>,
    agreement: Agreement,
    ctx: &str,
) {
    let columnar = sorted_entries(columnar);
    let scalar = sorted_entries(scalar);
    assert_eq!(
        columnar.len(),
        scalar.len(),
        "{ctx}: result cardinality diverged between kernels"
    );
    for ((ck, cp), (sk, sp)) in columnar.iter().zip(scalar.iter()) {
        assert_eq!(ck, sk, "{ctx}: decoded keys diverged between kernels");
        match agreement {
            Agreement::Exact => assert!(
                cp == sp,
                "{ctx}: payload not bit-for-bit equal at key {ck:?}"
            ),
            Agreement::Approx(tol) => assert!(
                cp.approx_eq(sp, tol),
                "{ctx}: payload outside tolerance at key {ck:?}"
            ),
        }
    }
}

/// Feeds `update` in calls of `COLUMNAR_MIN_ROWS - 1` rows: no level of
/// such a call sees enough input entries for the columnar kernel.
fn feed_scalar(update: &Update, mut apply: impl FnMut(&Update)) {
    for rows in update.rows.chunks(COLUMNAR_MIN_ROWS - 1) {
        apply(&Update::with_multiplicities(update.table.clone(), rows.to_vec()));
    }
}

/// The database as the reference loads it: a rows-free copy (loading it
/// binds every table's columns without running a kernel) and one insert
/// update per table, `fact` last.
fn load_schedule(db: &Database, fact: &str) -> (Database, Vec<Update>) {
    let mut schemas = Database::new();
    let mut inserts = Vec::new();
    for table in db.tables() {
        schemas
            .add_table(BaseTable::new(table.name.clone(), table.schema.clone()))
            .expect("names stay unique");
        inserts.push(Update::with_multiplicities(table.name.clone(), table.rows.clone()));
    }
    inserts.sort_by_key(|u| (u.table == fact, u.rows.len()));
    (schemas, inserts)
}

/// Feeds every update to `engine` through [`feed_scalar`].
fn apply_scalar<'a, R: Ring>(
    engine: &mut Engine<R>,
    updates: impl IntoIterator<Item = &'a Update>,
) {
    for u in updates {
        feed_scalar(u, |chunk| {
            engine.apply_update(chunk).expect("scalar update");
        });
    }
}

/// Loads `db` into `engine` without entering a columnar kernel.
fn load_scalar<R: Ring>(engine: &mut Engine<R>, db: &Database, fact: &str) {
    let (schemas, inserts) = load_schedule(db, fact);
    engine.load_database(&schemas).expect("scalar bind");
    apply_scalar(engine, &inserts);
}

/// Loads the database and replays the stream into both engines: the left
/// one through [`feed_scalar`], the right one in bulk (`load_database`,
/// whole updates).
fn run_pair<R: Ring>(
    mut scalar: Engine<R>,
    mut columnar: Engine<R>,
    db: &Database,
    updates: &[Update],
) -> (Engine<R>, Engine<R>) {
    load_scalar(&mut scalar, db, &updates[0].table);
    apply_scalar(&mut scalar, updates);
    columnar.load_database(db).expect("columnar load");
    for u in updates {
        columnar.apply_update(u).expect("columnar update");
    }
    (scalar, columnar)
}

/// A `+1`/`-1` pulse over fact rows the engines have already seen — the
/// steady-state probe from the DAG differential suite.  (A full stream
/// replay would not do: its deletes keep removing entries, and tombstone
/// compaction counts as a rehash under either kernel.)
fn steady_state_pulse(db: &Database, fact: &str) -> (Update, Update) {
    let rows: Vec<(Tuple, i64)> = db
        .table(fact)
        .expect("fact table exists")
        .rows
        .iter()
        .take(100)
        .map(|(r, _)| (r.clone(), 1))
        .collect();
    let plus = Update::with_multiplicities(fact, rows);
    let minus = plus.inverse();
    (plus, minus)
}

/// Applies the pulse — chunked to the scalar engine, whole to the columnar
/// one — and asserts the hash-once contract held: no view-table and no
/// ring-interior rehash under either kernel.
fn assert_steady_state_rehash_free<R: Ring>(
    scalar: &mut Engine<R>,
    columnar: &mut Engine<R>,
    db: &Database,
    fact: &str,
    ctx: &str,
) {
    let (plus, minus) = steady_state_pulse(db, fact);
    let before = [scalar.stats(), columnar.stats()];
    apply_scalar(scalar, [&plus, &minus]);
    for pulse in [&plus, &minus] {
        columnar.apply_update(pulse).expect("steady-state pulse");
    }
    let after = [scalar.stats(), columnar.stats()];
    for (kernel, (after, before)) in ["scalar", "columnar"].iter().zip(after.iter().zip(&before)) {
        let delta = after.delta_since(before);
        assert_eq!(delta.rehashes, 0, "{ctx}: {kernel} kernel rehashed a view in steady state");
        assert_eq!(
            delta.ring_rehashes, 0,
            "{ctx}: {kernel} kernel rehashed a ring interior in steady state"
        );
    }
}

fn retailer_workload(continuous_only: bool) -> Workload {
    Workload::retailer(
        RetailerConfig {
            locations: 8,
            dates: 12,
            items: 16,
            zips: 4,
            inventory_density: 0.2,
            seed: 11,
        },
        StreamConfig {
            bulks: 6,
            bulk_size: 150,
            delete_fraction: 0.25,
            seed: 5,
        },
        continuous_only,
    )
}

fn favorita_workload() -> Workload {
    Workload::favorita(
        FavoritaConfig::tiny(),
        StreamConfig {
            bulks: 5,
            bulk_size: 120,
            delete_fraction: 0.25,
            seed: 9,
        },
    )
}

// ----------------------------------------------------------------- tests

/// COUNT on both datasets: integer ring, bit-for-bit in any order.
#[test]
fn count_columnar_matches_scalar_bit_for_bit() {
    for (name, w) in [
        ("Retailer", retailer_workload(true)),
        ("Favorita", favorita_workload()),
    ] {
        let (mut s, mut c) = run_pair(w.count_engine(), w.count_engine(), &w.database, &w.updates);
        assert_agrees(
            &c.result_relation(),
            &s.result_relation(),
            Agreement::Exact,
            &format!("{name}/COUNT"),
        );
        let fact = w.updates[0].table.clone();
        assert_steady_state_rehash_free(&mut s, &mut c, &w.database, &fact, &format!("{name}/COUNT"));
    }
}

/// Continuous COVAR (Cofactor ring) on the quantized Retailer stream:
/// integer-valued floats make the batch sums exact, so bit-for-bit.
#[test]
fn retailer_covar_quantized_is_bit_for_bit() {
    let w = retailer_workload(true);
    let db = quantize_database(&w.database);
    let updates = quantize_updates(&w.updates);
    let (mut s, mut c) = run_pair(w.covar_engine(), w.covar_engine(), &db, &updates);
    assert_agrees(
        &c.result_relation(),
        &s.result_relation(),
        Agreement::Exact,
        "Retailer/COVAR-quantized",
    );
    assert_steady_state_rehash_free(&mut s, &mut c, &db, &w.updates[0].table, "Retailer/COVAR-quantized");
}

/// Continuous COVAR on the raw float stream: the batch-fused continuous
/// lift re-associates the within-run sums, so tolerance, not identity.
#[test]
fn retailer_covar_raw_floats_agree_to_tolerance() {
    let w = retailer_workload(true);
    let (s, c) = run_pair(w.covar_engine(), w.covar_engine(), &w.database, &w.updates);
    assert_agrees(
        &c.result_relation(),
        &s.result_relation(),
        Agreement::Approx(1e-9),
        "Retailer/COVAR-raw",
    );
}

/// Generalized COVAR (mixed continuous/categorical) on quantized Favorita:
/// exercises the split GenCofactor representation's dense *and*
/// categorical batch channels; exact on integer-valued floats.
#[test]
fn favorita_gen_covar_quantized_is_bit_for_bit() {
    let w = favorita_workload();
    let db = quantize_database(&w.database);
    let updates = quantize_updates(&w.updates);
    let (mut s, mut c) = run_pair(w.gen_covar_engine(), w.gen_covar_engine(), &db, &updates);
    assert_agrees(
        &c.result_relation(),
        &s.result_relation(),
        Agreement::Exact,
        "Favorita/gen-COVAR-quantized",
    );
    assert_steady_state_rehash_free(&mut s, &mut c, &db, &w.updates[0].table, "Favorita/gen-COVAR-quantized");
}

/// Generalized COVAR on raw Favorita floats agrees to tolerance.
#[test]
fn favorita_gen_covar_raw_floats_agree_to_tolerance() {
    let w = favorita_workload();
    let (s, c) = run_pair(w.gen_covar_engine(), w.gen_covar_engine(), &w.database, &w.updates);
    assert_agrees(
        &c.result_relation(),
        &s.result_relation(),
        Agreement::Approx(1e-9),
        "Favorita/gen-COVAR-raw",
    );
}

/// MI on both datasets: after binning, all mass lives in categorical
/// tables with integer-count weights — bit-for-bit even on raw floats.
#[test]
fn mi_columnar_matches_scalar_bit_for_bit() {
    for (name, w) in [
        ("Retailer", retailer_workload(true)),
        ("Favorita", favorita_workload()),
    ] {
        let (mut s, mut c) = run_pair(w.mi_engine(), w.mi_engine(), &w.database, &w.updates);
        assert_agrees(
            &c.result_relation(),
            &s.result_relation(),
            Agreement::Exact,
            &format!("{name}/MI"),
        );
        let fact = w.updates[0].table.clone();
        assert_steady_state_rehash_free(&mut s, &mut c, &w.database, &fact, &format!("{name}/MI"));
    }
}

/// The DAG engine's shared propagation pass under both kernels: one
/// registry per feed, COUNT + gen-COVAR sharing the quantized Favorita
/// batches; results bit-for-bit, steady state rehash-free in both.
#[test]
fn dag_shared_pass_columnar_matches_scalar() {
    let w = favorita_workload();
    let db = quantize_database(&w.database);
    let updates = quantize_updates(&w.updates);
    let (schemas, inserts) = load_schedule(&db, &updates[0].table);
    let (plus, minus) = steady_state_pulse(&db, &updates[0].table);

    let mut results = Vec::new();
    for (kernel, chunked) in [("scalar", true), ("columnar", false)] {
        let mut registry = QueryRegistry::new();
        let count_id = registry
            .register(w.tree.clone(), QueryKind::Count, None)
            .expect("register count");
        let gen_id = registry
            .register(w.tree.clone(), QueryKind::GenCovar, None)
            .expect("register gen-covar");
        let feed = |registry: &mut QueryRegistry, update: &Update| {
            let mut apply = |u: &Update| {
                registry.apply_update(u).expect("update");
            };
            if chunked {
                feed_scalar(update, apply);
            } else {
                apply(update);
            }
        };
        if chunked {
            registry.load_database(&schemas).expect("bind");
            for u in &inserts {
                feed(&mut registry, u);
            }
        } else {
            registry.load_database(&db).expect("load");
        }
        for u in &updates {
            feed(&mut registry, u);
        }
        results.push((
            registry.count_result_relation(count_id).unwrap(),
            registry.gen_result_relation(gen_id).unwrap(),
        ));

        let before = registry.stats();
        feed(&mut registry, &plus);
        feed(&mut registry, &minus);
        let after = registry.stats();
        assert_eq!(
            after.rehashes, before.rehashes,
            "DAG {kernel} kernel rehashed a view in steady state"
        );
        assert_eq!(
            after.ring_rehashes, before.ring_rehashes,
            "DAG {kernel} kernel rehashed a ring interior in steady state"
        );
    }
    let (columnar_count, columnar_gen) = results.pop().expect("columnar results");
    let (scalar_count, scalar_gen) = results.pop().expect("scalar results");
    assert_agrees(&columnar_count, &scalar_count, Agreement::Exact, "Favorita/DAG-COUNT");
    assert_agrees(
        &columnar_gen,
        &scalar_gen,
        Agreement::Exact,
        "Favorita/DAG-gen-COVAR-quantized",
    );
}

/// The policy boundary itself.  Inventory's path through the Retailer tree
/// is one direct level and three all-primary probe levels, and rows with
/// pairwise distinct `locn` stay distinct under every projection on it, so
/// each level's input has as many entries as the call has distinct rows:
/// 7 take the scalar walk, 8 are the first call to fill `LevelColumns` —
/// visible in `scratch_bytes` on an engine loaded through [`feed_scalar`],
/// whose columns are still unallocated.  It is grouped delta entries that
/// count, not rows: 8 rows over 7 keys stay scalar.  All three agree bit
/// for bit with the same rows fed one per call.
#[test]
fn seven_entries_walk_scalar_and_eight_fill_the_columns() {
    let w = retailer_workload(true);
    let db = quantize_database(&w.database);
    let fact = w.updates[0].table.clone();
    let loaded = || {
        let mut engine = w.covar_engine();
        load_scalar(&mut engine, &db, &fact);
        engine
    };
    let row = |i: i64| (RetailerConfig::inventory_row(i, i, i, (10 + i) as f64), 1);
    let distinct: Vec<(Tuple, i64)> = (0..COLUMNAR_MIN_ROWS as i64).map(row).collect();
    let mut repeated = distinct[..COLUMNAR_MIN_ROWS - 1].to_vec();
    repeated.push(row(0));

    for (rows, fills_columns, ctx) in [
        (&distinct[..COLUMNAR_MIN_ROWS - 1], false, "7 rows"),
        (&repeated[..], false, "8 rows over 7 keys"),
        (&distinct[..], true, "8 rows"),
    ] {
        let mut one_call = loaded();
        let before = one_call.stats().scratch_bytes;
        one_call
            .apply_update(&Update::with_multiplicities(fact.clone(), rows.to_vec()))
            .expect("one call");
        let grown = one_call.stats().scratch_bytes - before;
        if fills_columns {
            // At least the key column; a load that had already been through
            // a columnar kernel would leave next to nothing to grow.
            assert!(
                grown >= COLUMNAR_MIN_ROWS * std::mem::size_of::<EncodedKey>(),
                "{ctx}: the columnar kernel did not run ({grown} B of new scratch)"
            );
        } else {
            assert_eq!(grown, 0, "{ctx}: the scalar walk grew the scratch");
        }

        let mut row_by_row = loaded();
        for r in rows {
            row_by_row
                .apply_update(&Update::with_multiplicities(fact.clone(), vec![r.clone()]))
                .expect("row by row");
        }
        assert_agrees(
            &one_call.result_relation(),
            &row_by_row.result_relation(),
            Agreement::Exact,
            ctx,
        );
    }
}
