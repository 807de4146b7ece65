//! Fault-injected crash-recovery differential: Retailer and Favorita
//! streams, COUNT / COVAR / MI applications.
//!
//! Every scenario compares a **recovered** engine against a **reference**
//! engine that applied the same durable prefix uninterrupted.  Agreement
//! is bit-for-bit (`==` on ring payloads): COUNT uses `i64`; MI payloads
//! are integer-valued `f64` counts; COVAR runs on quantized streams
//! (continuous values rounded to integers), so all float arithmetic is
//! exact and any divergence is a real state difference, not rounding.
//! Payload `==` on relational interiors is dictionary-independent here
//! because every categorical value in these workloads is an integer (see
//! `crates/shard/tests/differential.rs` for the string caveat).
//!
//! Injected faults, per workload/application configuration:
//!
//! * crash after a snapshot, tail replayed from the changelog;
//! * crash between the write-ahead log append and the engine apply;
//! * short write / torn tail at several cut points inside the last record;
//! * flipped payload byte and flipped checksum byte mid-log;
//! * crash mid-snapshot-write (stray `.tmp`, previous snapshot intact);
//! * corrupt snapshot detected, recovery falls back to full replay;
//! * crashes at segment-rotation and retirement boundaries, replay across
//!   ≥3 segments with interleaved snapshots, and an empty tail segment
//!   (rotation happened, crash before its first append).
//!
//! After a snapshot restore the hash-once contract must survive:
//! `rehashes` and `ring_rehashes` read 0 on the recovered engine.

use fivm_cdc::{
    changelog, fault, framing, recover, segment_file_name, snapshot, DurableEngine, LogEnd,
    SNAPSHOT_FILE,
};
use fivm_common::Value;
use fivm_core::{apps, AggregateLayout, BinSpec, Engine};
use fivm_data::retailer::{retailer_query_continuous, retailer_tree};
use fivm_data::{FavoritaConfig, RetailerConfig, StreamConfig};
use fivm_query::ViewTree;
use fivm_relation::{BaseTable, Database, Relation, Tuple, Update};
use fivm_ring::{LiftFn, PersistRing, Ring, RingCtx};
use std::collections::HashMap;
use std::path::PathBuf;

// ---------------------------------------------------------------- helpers

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fivm_cdc_diff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn sorted_entries<R: Ring>(rel: &Relation<R>) -> Vec<(Tuple, R)> {
    let mut entries: Vec<(Tuple, R)> = rel.iter().map(|(k, p)| (k.clone(), p.clone())).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

/// Asserts two engines' results are bit-for-bit equal, then applies one
/// extra probe batch to both and re-compares — a divergence anywhere in
/// the interior views would surface in the probe's delta propagation.
fn assert_engines_agree<R: Ring>(
    reference: &mut Engine<R>,
    recovered: &mut Engine<R>,
    probe: Option<&Update>,
    ctx: &str,
) {
    let want = sorted_entries(&reference.result_relation());
    let got = sorted_entries(&recovered.result_relation());
    assert_eq!(got.len(), want.len(), "{ctx}: result cardinality diverged");
    for ((gk, gp), (wk, wp)) in got.iter().zip(want.iter()) {
        assert_eq!(gk, wk, "{ctx}: decoded keys diverged");
        assert!(gp == wp, "{ctx}: payload not bit-for-bit equal at key {gk:?}");
    }
    if let Some(u) = probe {
        reference.apply_update(u).expect("reference probe");
        recovered.apply_update(u).expect("recovered probe");
        let want = sorted_entries(&reference.result_relation());
        let got = sorted_entries(&recovered.result_relation());
        assert_eq!(got.len(), want.len(), "{ctx}: post-probe cardinality diverged");
        for ((gk, gp), (wk, wp)) in got.iter().zip(want.iter()) {
            assert_eq!(gk, wk);
            assert!(gp == wp, "{ctx}: post-probe payload diverged at key {gk:?}");
        }
    }
}

/// One workload/application configuration under test.
struct Config<R: PersistRing, F: Fn(&RingCtx) -> Vec<LiftFn<R>>> {
    tree: ViewTree,
    lifts: F,
    db: Database,
    updates: Vec<Update>,
    label: &'static str,
}

impl<R: PersistRing, F: Fn(&RingCtx) -> Vec<LiftFn<R>>> Config<R, F> {
    fn fresh_engine(&self) -> Engine<R> {
        let ctx = RingCtx::new();
        Engine::new_with_ctx(self.tree.clone(), (self.lifts)(&ctx), ctx).expect("engine")
    }

    /// Reference: uninterrupted load + the first `prefix` update batches.
    fn reference(&self, prefix: usize) -> Engine<R> {
        let mut e = self.fresh_engine();
        e.load_database(&self.db).expect("reference load");
        for u in &self.updates[..prefix] {
            e.apply_update(u).expect("reference update");
        }
        e
    }

    /// A probe batch re-inserting then deleting some base fact rows
    /// (net-zero), used to shake divergences out of interior views.
    fn probe(&self) -> Update {
        let fact = &self.updates[0].table;
        let rows: Vec<(Tuple, i64)> = self.db.table(fact).expect("fact table").rows
            [..8]
            .iter()
            .flat_map(|(r, _)| [(r.clone(), 1), (r.clone(), -1)])
            .collect();
        Update::with_multiplicities(fact.clone(), rows)
    }
}

/// Runs every fault scenario against one configuration.
fn exercise<R: PersistRing, F: Fn(&RingCtx) -> Vec<LiftFn<R>>>(cfg: &Config<R, F>) {
    let n = cfg.updates.len();
    assert!(n >= 4, "need a few batches to place faults between");
    let dir = tempdir(cfg.label);
    // The default segment bound is far above these tiny streams, so the
    // whole log lives in the first (active) segment — single-file faults
    // below target it directly.  Multi-segment faults have their own
    // scenarios further down.
    let log_path = dir.join(segment_file_name(1));
    let snap_path = dir.join(SNAPSHOT_FILE);
    // A kept copy of the snapshot at seq n-1, for scenarios that need the
    // last batch to live only in the changelog tail.
    let tail_snap = dir.join("snapshot_tail.fvsn");

    // ---- Build the durable run: load, apply all batches; snapshot at
    // n-1 (copied aside) and again at n.
    let mut durable = DurableEngine::create(cfg.fresh_engine(), &dir).expect("create");
    durable.load_database(&cfg.db).expect("load");
    let mut tail_snap_seq = 0;
    for (i, u) in cfg.updates.iter().enumerate() {
        durable.apply_update(u).expect("durable update");
        if i + 2 == n {
            tail_snap_seq = durable.snapshot().expect("snapshot");
            std::fs::copy(&snap_path, &tail_snap).unwrap();
        }
    }
    assert_eq!(tail_snap_seq, (n - 1) as u64);
    assert_eq!(durable.snapshot().expect("final snapshot"), n as u64);
    drop(durable);

    // ---- Scenario 1: clean crash right after a snapshot.  Restore is a
    // pure re-bucketing from stored hashes into right-sized tables — the
    // hash-once contract carries over the restart: zero rehashes.
    {
        let engine = cfg.fresh_engine();
        let (recovered, report) =
            DurableEngine::recover(engine, &cfg.db, &dir).map_err(|e| e.to_string()).expect("recover");
        assert_eq!(report.snapshot_seq, Some(n as u64));
        assert_eq!(report.replayed_batches, 0, "snapshot already covers the log");
        assert_eq!(report.last_seq, n as u64);
        assert!(report.log_end.is_clean());
        let mut recovered = recovered.into_state();
        let stats = recovered.stats();
        assert_eq!(stats.rehashes, 0, "{}: view tables rehashed on restore", cfg.label);
        assert_eq!(stats.ring_rehashes, 0, "{}: ring tables rehashed on restore", cfg.label);
        assert_engines_agree(
            &mut cfg.reference(n),
            &mut recovered,
            Some(&cfg.probe()),
            &format!("{}/snapshot-at-head", cfg.label),
        );
    }

    // ---- Scenario 2: crash between WAL append and engine apply — the
    // snapshot knows seq n-1, batch n is durable only in the changelog.
    // Recovery must replay the tail and converge on the state that
    // *includes* the appended batch.
    {
        let mut engine = cfg.fresh_engine();
        let report = recover::recover(&mut engine, &cfg.db, Some(&tail_snap), &dir)
            .expect("recover primitives");
        assert_eq!(report.snapshot_seq, Some(tail_snap_seq));
        assert_eq!(report.replayed_batches, 1, "one batch after the snapshot");
        assert_eq!(report.last_seq, n as u64);
        assert_engines_agree(
            &mut cfg.reference(n),
            &mut engine,
            Some(&cfg.probe()),
            &format!("{}/append-before-apply", cfg.label),
        );
    }

    // ---- Scenario 3: torn tails.  Cut the last record at several points
    // (1 byte short, mid-payload, inside the length field): the last
    // batch was never durable, recovery yields the n-1 state.
    let full_log = std::fs::read(&log_path).unwrap();
    let offsets = record_offsets(&full_log);
    let (last_start, last_len) = *offsets.last().unwrap();
    for cut in [
        full_log.len() - 1,                              // short write
        last_start + framing::RECORD_OVERHEAD + last_len / 2, // mid-payload
        last_start + 2,                                  // inside the length field
    ] {
        std::fs::write(&log_path, &full_log).unwrap();
        fault::truncate_to(&log_path, cut as u64).unwrap();
        let (batches, end) = changelog::read_changelog(&log_path).expect("torn log reads");
        assert_eq!(batches.len(), n - 1, "cut at {cut}");
        assert_eq!(end, LogEnd::TornTail { valid_len: last_start });

        let mut engine = cfg.fresh_engine();
        let report = recover::recover(&mut engine, &cfg.db, Some(&tail_snap), &dir)
            .expect("recover torn");
        assert_eq!(report.last_seq, (n - 1) as u64);
        assert_eq!(report.log_end, LogEnd::TornTail { valid_len: last_start });
        assert_engines_agree(
            &mut cfg.reference(n - 1),
            &mut engine,
            None,
            &format!("{}/torn@{cut}", cfg.label),
        );
    }

    // ---- Scenario 4: corruption mid-log.  Flip a payload byte, then a
    // checksum byte, of the second-to-last record: durability ends before
    // it, even though later records are intact.
    let (victim_start, _) = offsets[offsets.len() - 2];
    for (what, offset) in [
        ("payload", victim_start + framing::RECORD_OVERHEAD + 3),
        ("checksum", victim_start + 4),
    ] {
        std::fs::write(&log_path, &full_log).unwrap();
        fault::flip_byte(&log_path, offset as u64, 0x20).unwrap();
        let (batches, end) = changelog::read_changelog(&log_path).expect("corrupt log reads");
        assert_eq!(batches.len(), n - 2, "flipped {what} byte");
        assert_eq!(end, LogEnd::Corrupt { valid_len: victim_start });

        let mut engine = cfg.fresh_engine();
        let report = recover::recover(&mut engine, &cfg.db, Some(&tail_snap), &dir)
            .expect("recover corrupt");
        // Snapshot (at n-1) is *newer* than the durable log prefix (n-2):
        // replay applies nothing and the state is the snapshot's.
        assert_eq!(report.last_seq, (n - 1) as u64);
        assert_engines_agree(
            &mut cfg.reference(n - 1),
            &mut engine,
            None,
            &format!("{}/corrupt-{what}", cfg.label),
        );
    }
    std::fs::write(&log_path, &full_log).unwrap();

    // ---- Scenario 5: crash mid-snapshot-save leaves a stray tmp; the
    // real snapshot and recovery are unaffected.
    {
        std::fs::write(snap_path.with_extension("tmp"), b"half-written garbage").unwrap();
        let mut engine = cfg.fresh_engine();
        let report = recover::recover(&mut engine, &cfg.db, Some(&snap_path), &dir)
            .expect("recover with stray tmp");
        assert_eq!(report.last_seq, n as u64);
        assert_engines_agree(
            &mut cfg.reference(n),
            &mut engine,
            None,
            &format!("{}/stray-tmp", cfg.label),
        );
    }

    // ---- Scenario 6: the snapshot itself is corrupt — detected by
    // checksum, and a full replay of the (intact) log still recovers.
    {
        let snap_len = fault::file_len(&snap_path).unwrap();
        fault::flip_byte(&snap_path, snap_len / 2, 0x01).unwrap();
        let mut engine = cfg.fresh_engine();
        let err = recover::recover(&mut engine, &cfg.db, Some(&snap_path), &dir)
            .expect_err("corrupt snapshot must not restore");
        assert_eq!(err.kind(), "corrupt", "{}: {err}", cfg.label);

        // Fallback: ignore the snapshot, replay everything.
        let mut engine = cfg.fresh_engine();
        let report =
            recover::recover(&mut engine, &cfg.db, None, &dir).expect("full replay");
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(report.replayed_batches, n);
        assert_engines_agree(
            &mut cfg.reference(n),
            &mut engine,
            Some(&cfg.probe()),
            &format!("{}/full-replay", cfg.label),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offsets `(start, payload_len)` of every record in a framed file.
fn record_offsets(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = framing::HEADER_LEN;
    while pos + framing::RECORD_OVERHEAD <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos, len));
        pos += framing::RECORD_OVERHEAD + len;
    }
    out
}

// ------------------------------------------------------------- workloads

fn retailer_workload() -> (ViewTree, Database, Vec<Update>) {
    let cfg = RetailerConfig {
        locations: 6,
        dates: 10,
        items: 12,
        zips: 4,
        inventory_density: 0.25,
        seed: 21,
    };
    let db = cfg.generate();
    let updates = cfg
        .update_stream(StreamConfig {
            bulks: 6,
            bulk_size: 80,
            delete_fraction: 0.25,
            seed: 7,
        })
        .into_bulks();
    (retailer_tree(retailer_query_continuous()), db, updates)
}

fn favorita_workload() -> (ViewTree, Database, Vec<Update>) {
    let cfg = FavoritaConfig::tiny();
    let db = cfg.generate();
    let updates = cfg
        .update_stream(StreamConfig {
            bulks: 6,
            bulk_size: 60,
            delete_fraction: 0.25,
            seed: 13,
        })
        .into_bulks();
    let spec = fivm_data::favorita::favorita_query();
    (fivm_data::favorita::favorita_tree(spec), db, updates)
}

fn mi_binnings(spec: &fivm_query::QuerySpec) -> HashMap<usize, BinSpec> {
    let layout = AggregateLayout::of(spec);
    let mut bins = HashMap::new();
    for (pos, &v) in layout.vars.iter().enumerate() {
        if layout.kinds[pos].is_continuous() {
            bins.insert(v, BinSpec::new(0.0, 1_000.0, 8));
        }
    }
    bins
}

// ----------------------------------------------------------------- tests

#[test]
fn count_recovers_bit_identically_on_both_datasets() {
    let (tree, db, updates) = retailer_workload();
    let spec = tree.spec().clone();
    exercise(&Config {
        tree,
        lifts: move |_: &RingCtx| apps::count_lifts(&spec),
        db,
        updates,
        label: "retailer_count",
    });

    let (tree, db, updates) = favorita_workload();
    let spec = tree.spec().clone();
    exercise(&Config {
        tree,
        lifts: move |_: &RingCtx| apps::count_lifts(&spec),
        db,
        updates,
        label: "favorita_count",
    });
}

#[test]
fn covar_recovers_bit_identically_on_quantized_streams() {
    let (tree, db, updates) = retailer_workload();
    let spec = tree.spec().clone();
    exercise(&Config {
        tree,
        lifts: move |_: &RingCtx| apps::covar_lifts(&spec).unwrap(),
        db: quantize_database(&db),
        updates: quantize_updates(&updates),
        label: "retailer_covar",
    });

    let (tree, db, updates) = favorita_workload();
    let spec = tree.spec().clone();
    exercise(&Config {
        tree,
        lifts: move |ctx: &RingCtx| apps::gen_covar_lifts(&spec, ctx),
        db: quantize_database(&db),
        updates: quantize_updates(&updates),
        label: "favorita_covar",
    });
}

#[test]
fn mi_recovers_bit_identically_on_both_datasets() {
    let (tree, db, updates) = retailer_workload();
    let spec = tree.spec().clone();
    let bins = mi_binnings(&spec);
    exercise(&Config {
        tree,
        lifts: move |ctx: &RingCtx| apps::mi_lifts(&spec, &bins, ctx).unwrap(),
        db,
        updates,
        label: "retailer_mi",
    });

    let (tree, db, updates) = favorita_workload();
    let spec = tree.spec().clone();
    let bins = mi_binnings(&spec);
    exercise(&Config {
        tree,
        lifts: move |ctx: &RingCtx| apps::mi_lifts(&spec, &bins, ctx).unwrap(),
        db,
        updates,
        label: "favorita_mi",
    });
}

#[test]
fn recovery_report_shape_and_log_reopen_after_crash() {
    // A compact end-to-end: crash with a torn tail, recover through
    // DurableEngine (which truncates the torn bytes), keep ingesting, and
    // verify the continued run equals an uninterrupted one.
    let (tree, db, updates) = retailer_workload();
    let spec = tree.spec().clone();
    let lifts = move |_: &RingCtx| apps::count_lifts(&spec);
    let make_engine = |tree: &ViewTree| {
        let ctx = RingCtx::new();
        Engine::new_with_ctx(tree.clone(), lifts(&ctx), ctx).unwrap()
    };
    let n = updates.len();
    let dir = tempdir("reopen_e2e");

    let mut durable = DurableEngine::create(make_engine(&tree), &dir).unwrap();
    durable.load_database(&db).unwrap();
    for u in &updates[..n - 1] {
        durable.apply_update(u).unwrap();
    }
    durable.snapshot().unwrap();
    drop(durable);
    // Torn append of the would-be next batch: header-only fragment.
    let log_path = dir.join(segment_file_name(1));
    let mut broken = std::fs::OpenOptions::new().append(true).open(&log_path).unwrap();
    use std::io::Write;
    broken.write_all(&[0x55; 5]).unwrap();
    drop(broken);

    let (mut durable, report) = DurableEngine::recover(make_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.snapshot_seq, Some((n - 1) as u64));
    assert_eq!(report.replayed_batches, 0);
    assert!(matches!(report.log_end, LogEnd::TornTail { .. }));

    // Continue ingesting where durability left off; compare to a
    // reference that never crashed.
    durable.apply_update(&updates[n - 1]).unwrap();
    assert_eq!(durable.applied_seq(), n as u64);
    let mut reference = make_engine(&tree);
    reference.load_database(&db).unwrap();
    for u in &updates {
        reference.apply_update(u).unwrap();
    }
    let mut recovered = durable.into_state();
    assert_engines_agree(&mut reference, &mut recovered, None, "reopen_e2e");

    // The reopened log is fully durable again: one more recovery from the
    // same directory replays cleanly to the same state.
    let (final_engine, report) = DurableEngine::recover(make_engine(&tree), &db, &dir).unwrap();
    assert!(report.log_end.is_clean());
    assert_eq!(report.last_seq, n as u64);
    let mut final_engine = final_engine.into_state();
    assert_engines_agree(&mut reference, &mut final_engine, None, "reopen_e2e/second");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_mismatches_are_typed_errors() {
    // Restoring a COUNT snapshot into a COVAR engine (wrong ring), or into
    // a non-empty engine, fails loudly instead of corrupting state.
    let (tree, db, updates) = retailer_workload();
    let spec = tree.spec().clone();
    let dir = tempdir("mismatch");
    let count_lifts = apps::count_lifts(&spec);
    let mut engine = Engine::new(tree.clone(), count_lifts.clone()).unwrap();
    engine.load_database(&db).unwrap();
    engine.apply_update(&updates[0]).unwrap();
    let snap = dir.join(SNAPSHOT_FILE);
    snapshot::write_snapshot(&snap, 1, &engine).unwrap();

    // Wrong ring.
    let mut covar = Engine::new(tree.clone(), apps::covar_lifts(&spec).unwrap()).unwrap();
    let err = snapshot::load_snapshot(&snap, &mut covar).unwrap_err();
    assert_eq!(err.kind(), "state");
    assert!(err.to_string().contains("ring"), "{err}");

    // Non-empty target.
    let mut busy = Engine::new(tree, count_lifts).unwrap();
    busy.load_database(&db).unwrap();
    let err = snapshot::load_snapshot(&snap, &mut busy).unwrap_err();
    assert_eq!(err.kind(), "state");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- segmented-log scenarios

/// Retailer COUNT engine (i64 ring) for the segmented-log scenarios.
fn count_engine(tree: &ViewTree) -> Engine<i64> {
    let spec = tree.spec().clone();
    let ctx = RingCtx::new();
    Engine::new_with_ctx(tree.clone(), apps::count_lifts(&spec), ctx).unwrap()
}

fn count_reference(tree: &ViewTree, db: &Database, updates: &[Update]) -> Engine<i64> {
    let mut e = count_engine(tree);
    e.load_database(db).unwrap();
    for u in updates {
        e.apply_update(u).unwrap();
    }
    e
}

#[test]
fn replay_crosses_segment_boundaries_with_interleaved_snapshots() {
    // A 1-byte rotation bound puts every batch in its own segment: six
    // updates, six segments, snapshots interleaved after batches 2 and 4.
    let (tree, db, updates) = retailer_workload();
    let n = updates.len();
    assert!(n >= 6);
    let dir = tempdir("segments_interleaved");
    let snap_path = dir.join(SNAPSHOT_FILE);
    let snap2 = dir.join("snapshot_seq2.fvsn");

    let mut durable = DurableEngine::create_with(count_engine(&tree), &dir, 1).unwrap();
    durable.load_database(&db).unwrap();
    for (i, u) in updates.iter().enumerate() {
        durable.apply_update(u).unwrap();
        if i + 1 == 2 {
            assert_eq!(durable.snapshot().unwrap(), 2);
            std::fs::copy(&snap_path, &snap2).unwrap();
        }
        if i + 1 == 4 {
            assert_eq!(durable.snapshot().unwrap(), 4);
        }
    }
    drop(durable);
    assert_eq!(fivm_cdc::list_segments(&dir).unwrap().len(), n);

    // Full replay, no snapshot: every batch, across every boundary.
    let mut replayed = count_engine(&tree);
    let report = recover::recover(&mut replayed, &db, None, &dir).unwrap();
    assert_eq!(report.replayed_batches, n);
    assert_eq!(report.segments_scanned, n);
    assert!(report.log_end.is_clean());
    assert_engines_agree(
        &mut count_reference(&tree, &db, &updates),
        &mut replayed,
        None,
        "segments/full-replay",
    );

    // Old interleaved snapshot: replay the tail across >= 3 segments.
    let mut tailed = count_engine(&tree);
    let report = recover::recover(&mut tailed, &db, Some(&snap2), &dir).unwrap();
    assert_eq!(report.snapshot_seq, Some(2));
    assert_eq!(report.replayed_batches, n - 2);
    assert_engines_agree(
        &mut count_reference(&tree, &db, &updates),
        &mut tailed,
        None,
        "segments/interleaved-snapshot",
    );

    // The DurableEngine path uses the newest on-disk snapshot (seq 4).
    let (recovered, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.snapshot_seq, Some(4));
    assert_eq!(report.replayed_batches, n - 4);
    assert_eq!(report.last_seq, n as u64);
    let mut recovered = recovered.into_state();
    assert_engines_agree(
        &mut count_reference(&tree, &db, &updates),
        &mut recovered,
        None,
        "segments/durable-recover",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retirement_and_crash_mid_retirement_recover() {
    let (tree, db, updates) = retailer_workload();
    let n = updates.len();
    let dir = tempdir("retirement");
    let snap_path = dir.join(SNAPSHOT_FILE);
    let snap2 = dir.join("snapshot_seq2.fvsn");

    let mut durable = DurableEngine::create_with(count_engine(&tree), &dir, 1).unwrap();
    durable.load_database(&db).unwrap();
    for (i, u) in updates.iter().enumerate() {
        durable.apply_update(u).unwrap();
        if i + 1 == 2 {
            durable.snapshot().unwrap();
            std::fs::copy(&snap_path, &snap2).unwrap();
        }
    }
    let snap_seq = durable.snapshot().unwrap();
    assert_eq!(snap_seq, n as u64);
    let bytes_before = durable.changelog_bytes();

    // Retire everything the snapshot covers: only the active segment
    // survives, and disk shrinks accordingly.
    let retired = durable.retire_segments(snap_seq).unwrap();
    assert_eq!(retired, n - 1, "all sealed segments are snapshot-covered");
    assert!(durable.changelog_bytes() < bytes_before);
    drop(durable);
    assert_eq!(fivm_cdc::list_segments(&dir).unwrap().len(), 1);

    // Recovery from snapshot + the remaining segment is bit-identical.
    let (recovered, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.snapshot_seq, Some(n as u64));
    assert_eq!(report.replayed_batches, 0);
    let mut recovered = recovered.into_state();
    assert_engines_agree(
        &mut count_reference(&tree, &db, &updates),
        &mut recovered,
        None,
        "retirement/after-retire",
    );

    // An outdated snapshot cannot bridge the retired gap: typed error,
    // not a silent skip.
    let mut stale = count_engine(&tree);
    let err = recover::recover(&mut stale, &db, Some(&snap2), &dir).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
    assert!(err.to_string().contains("retired"), "{err}");

    // Crash *mid*-retirement: rebuild, then delete only the oldest two
    // sealed segments by hand (retirement deletes oldest-first, so a
    // crash partway leaves exactly this contiguous suffix).
    let dir2 = tempdir("retirement_crash");
    let mut durable = DurableEngine::create_with(count_engine(&tree), &dir2, 1).unwrap();
    durable.load_database(&db).unwrap();
    for u in &updates {
        durable.apply_update(u).unwrap();
    }
    assert_eq!(durable.snapshot().unwrap(), n as u64);
    drop(durable);
    std::fs::remove_file(dir2.join(segment_file_name(1))).unwrap();
    std::fs::remove_file(dir2.join(segment_file_name(2))).unwrap();
    let (recovered, report) = DurableEngine::recover(count_engine(&tree), &db, &dir2).unwrap();
    assert_eq!(report.snapshot_seq, Some(n as u64));
    assert_eq!(report.segments_scanned, n - 2);
    let mut recovered = recovered.into_state();
    assert_engines_agree(
        &mut count_reference(&tree, &db, &updates),
        &mut recovered,
        None,
        "retirement/mid-crash",
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn rotation_crashes_leave_recoverable_tail_segments() {
    let (tree, db, updates) = retailer_workload();
    let dir = tempdir("rotation_crash");

    let mut durable = DurableEngine::create_with(count_engine(&tree), &dir, 1).unwrap();
    durable.load_database(&db).unwrap();
    for u in &updates[..3] {
        durable.apply_update(u).unwrap();
    }
    drop(durable);
    assert_eq!(fivm_cdc::list_segments(&dir).unwrap().len(), 3);

    // Crash A: rotation finished creating the next segment (header only),
    // crash before its first append — an *empty tail segment*.
    fivm_cdc::ChangelogWriter::create_at(dir.join(segment_file_name(4)), 4).unwrap();
    let (mut durable, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.last_seq, 3);
    assert_eq!(report.replayed_batches, 3);
    assert!(report.log_end.is_clean());
    // Ingestion continues into the empty segment at its named sequence.
    durable.apply_update(&updates[3]).unwrap();
    assert_eq!(durable.applied_seq(), 4);
    drop(durable);

    // Crash B: rotation crashed mid-header — a tail segment too short to
    // be a log at all.  Treated as torn at offset 0, then recreated.
    std::fs::write(dir.join(segment_file_name(5)), [0x46, 0x56]).unwrap();
    let (mut durable, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.last_seq, 4);
    assert_eq!(report.log_end, LogEnd::TornTail { valid_len: 0 });
    durable.apply_update(&updates[4]).unwrap();
    assert_eq!(durable.applied_seq(), 5);
    let mut recovered = durable.into_state();
    assert_engines_agree(
        &mut count_reference(&tree, &db, &updates[..5]),
        &mut recovered,
        None,
        "rotation-crash/continued",
    );

    // The repaired chain reads clean end to end.
    let (_, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert!(report.log_end.is_clean());
    assert_eq!(report.last_seq, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stray_snapshot_tmp_is_cleaned_on_recovery_and_next_save() {
    let (tree, db, updates) = retailer_workload();
    let dir = tempdir("tmp_cleanup");
    let snap_path = dir.join(SNAPSHOT_FILE);
    let tmp_path = snap_path.with_extension("tmp");

    let mut durable = DurableEngine::create(count_engine(&tree), &dir).unwrap();
    durable.load_database(&db).unwrap();
    for u in &updates[..2] {
        durable.apply_update(u).unwrap();
    }
    durable.snapshot().unwrap();
    drop(durable);

    // Crash mid-save: a half-written temp file next to the good snapshot.
    std::fs::write(&tmp_path, b"half-written snapshot bytes").unwrap();
    let (mut durable, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.snapshot_seq, Some(2));
    assert!(!tmp_path.exists(), "recovery startup removes the stray tmp");

    // The next save works and leaves no orphan either.
    durable.apply_update(&updates[2]).unwrap();
    assert_eq!(durable.snapshot().unwrap(), 3);
    assert!(snap_path.exists());
    assert!(!tmp_path.exists(), "a successful save leaves no orphan");
    let _ = std::fs::remove_dir_all(&dir);
}
