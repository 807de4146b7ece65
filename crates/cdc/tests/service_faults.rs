//! Fault-injected end-to-end suite for the CDC service front end
//! ([`fivm_cdc::CdcService`]): group commit, bounded-queue backpressure,
//! fsync poisoning, shutdown drain, bounded disk under churn, and batches
//! the engine refuses (never logged, by the service or a `DurableEngine`).
//!
//! Every scenario closes with the same differential check the recovery
//! suite uses: the service's engine — and an engine *recovered* from the
//! service's durable artifacts — must agree bit-for-bit with a reference
//! engine that applied the same acknowledged prefix uninterrupted.
//!
//! Determinism: the [`CommitGate`] fault hook parks the commit thread
//! *before* it drains a group, so tests can fill the queue against a
//! "stalled" pipeline without sleeping, and [`SyncFaults`] injects fsync
//! failures at exact points.

use fivm_cdc::framing::MAX_RECORD_LEN;
use fivm_cdc::{
    BackpressurePolicy, CdcService, CommitGate, DurableEngine, ServiceConfig, SyncFaults,
};
use fivm_common::Value;
use fivm_core::{apps, Engine};
use fivm_data::retailer::{retailer_query_continuous, retailer_tree};
use fivm_data::{RetailerConfig, StreamConfig};
use fivm_query::ViewTree;
use fivm_relation::{Database, Relation, Tuple, Update};
use fivm_ring::RingCtx;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- helpers

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fivm_cdc_svc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Retailer COUNT workload, re-chunked into small batches so group commit
/// has many submissions to coalesce.
fn workload() -> (ViewTree, Database, Vec<Update>) {
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
            bulks: 4,
            bulk_size: 80,
            delete_fraction: 0.25,
            seed: 7,
        })
        .into_bulks();
    (retailer_tree(retailer_query_continuous()), db, rechunk(&updates, 10))
}

/// Splits each update into batches of at most `rows` rows.
fn rechunk(updates: &[Update], rows: usize) -> Vec<Update> {
    let mut out = Vec::new();
    for u in updates {
        for chunk in u.rows.chunks(rows) {
            out.push(Update::with_multiplicities(u.table.clone(), chunk.to_vec()));
        }
    }
    out
}

fn count_engine(tree: &ViewTree) -> Engine<i64> {
    let spec = tree.spec().clone();
    let ctx = RingCtx::new();
    Engine::new_with_ctx(tree.clone(), apps::count_lifts(&spec), ctx).unwrap()
}

/// Reference: uninterrupted load + the given batches.
fn reference(tree: &ViewTree, db: &Database, batches: &[Update]) -> Engine<i64> {
    let mut e = count_engine(tree);
    e.load_database(db).unwrap();
    for u in batches {
        e.apply_update(u).unwrap();
    }
    e
}

fn sorted_entries(rel: &Relation<i64>) -> Vec<(Tuple, i64)> {
    let mut entries: Vec<(Tuple, i64)> = rel.iter().map(|(k, p)| (k.clone(), *p)).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

fn assert_agree(want: &Engine<i64>, got: &Engine<i64>, ctx: &str) {
    assert_eq!(
        sorted_entries(&got.result_relation()),
        sorted_entries(&want.result_relation()),
        "{ctx}: results diverged"
    );
}

/// Recovers a fresh engine from the service's durable directory and
/// checks it agrees with a reference over the durable prefix.
fn assert_recovery_matches_prefix(
    tree: &ViewTree,
    db: &Database,
    batches: &[Update],
    dir: &PathBuf,
    acked_seq: u64,
    ctx: &str,
) -> u64 {
    let (recovered, report) = DurableEngine::recover(count_engine(tree), db, dir).unwrap();
    assert!(
        report.last_seq >= acked_seq,
        "{ctx}: recovery reached seq {} but {acked_seq} was acknowledged",
        report.last_seq
    );
    let want = reference(tree, db, &batches[..report.last_seq as usize]);
    assert_agree(&want, recovered.state(), ctx);
    report.last_seq
}

// ----------------------------------------------------------------- tests

#[test]
fn group_commit_is_bit_identical_and_coalesces_fsyncs() {
    let (tree, db, batches) = workload();
    let dir = tempdir("group_commit");
    let gate = CommitGate::closed_gate();
    let config = ServiceConfig {
        queue_capacity: batches.len() + 1,
        group_commit_max: 8,
        commit_gate: Some(gate.clone()),
        ..ServiceConfig::default()
    };

    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config).unwrap();
    // Gate closed: every batch queues up; opening it drains in groups of
    // exactly group_commit_max — one fsync per group, not per batch.
    for u in &batches {
        service.submit(u.clone()).unwrap();
    }
    assert_eq!(service.queue_depth(), batches.len());
    gate.open();
    let durable = service.flush().unwrap();
    assert_eq!(durable, batches.len() as u64);

    let stats = service.stats();
    assert_eq!(stats.accepted_batches, batches.len() as u64);
    assert_eq!(stats.committed_groups, batches.len().div_ceil(8) as u64);
    assert_eq!(stats.shed_batches, 0);
    assert_eq!(stats.max_queue_depth, batches.len());

    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_eq!(done.durable_seq, batches.len() as u64);
    assert_eq!(done.applied_seq, batches.len() as u64);
    assert_agree(&reference(&tree, &db, &batches), &done.engine, "group-commit/live");
    assert_recovery_matches_prefix(&tree, &db, &batches, &dir, done.durable_seq, "group-commit/recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_fsync_poisons_the_service_and_acks_stop() {
    let (tree, db, batches) = workload();
    let dir = tempdir("fsync_poison");
    let faults: SyncFaults = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let config = ServiceConfig {
        queue_capacity: batches.len() + 1,
        group_commit_max: 16,
        sync_faults: Some(Arc::clone(&faults)),
        ..ServiceConfig::default()
    };

    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config).unwrap();

    // Phase 1: a healthy prefix, fully acknowledged.
    let healthy = batches.len() / 2;
    for u in &batches[..healthy] {
        service.submit(u.clone()).unwrap();
    }
    let acked = service.flush().unwrap();
    assert_eq!(acked, healthy as u64);

    // Phase 2: arm one fsync failure and keep submitting.  The next
    // group's sync fails; nothing past the healthy prefix is ever acked.
    faults.store(1, Ordering::SeqCst);
    for u in &batches[healthy..] {
        if service.submit(u.clone()).is_err() {
            break; // poison propagated into submit — also correct
        }
    }
    let err = service.flush().unwrap_err();
    assert_eq!(err.kind(), "poisoned", "{err}");
    assert!(service.is_poisoned());
    let err = service.submit(batches[0].clone()).unwrap_err();
    assert_eq!(err.kind(), "poisoned", "{err}");

    let done = service.shutdown();
    let poison = done.error.expect("the injected fsync failure is reported");
    assert_eq!(poison.kind(), "io", "{poison}");
    assert_eq!(done.durable_seq, healthy as u64, "no ack after a failed sync");
    assert_eq!(done.applied_seq, healthy as u64, "poisoned groups are not applied");
    assert_agree(
        &reference(&tree, &db, &batches[..healthy]),
        &done.engine,
        "fsync-poison/live",
    );

    // Recovery reads the on-disk prefix.  The sync-failed group's bytes
    // may or may not have reached the disk (that is exactly why the
    // writer poisons); either way the acked prefix is covered and the
    // recovered state matches an uninterrupted run over what survived.
    let last = assert_recovery_matches_prefix(
        &tree,
        &db,
        &batches,
        &dir,
        done.durable_seq,
        "fsync-poison/recovered",
    );
    assert!(last <= batches.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch that encodes past the record cap must reach producers as its
/// cause, not as a commit-thread panic (ROADMAP finding (f)): the service
/// poisons with the size in the message, what was acknowledged before
/// stays acknowledged, and recovery lands on exactly that prefix (the
/// refused record never reached the file).
#[test]
fn over_cap_batch_poisons_with_the_size_error_and_keeps_the_acked_prefix() {
    let (tree, db, batches) = workload();
    let dir = tempdir("over_cap");
    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, ServiceConfig::default()).unwrap();

    let healthy = 5;
    for u in &batches[..healthy] {
        service.submit(u.clone()).unwrap();
    }
    assert_eq!(service.flush().unwrap(), healthy as u64);

    // One row whose single string value alone is over the cap.
    let mut row = batches[0].rows[0].0.to_vec();
    row[3] = Value::str("x".repeat(MAX_RECORD_LEN + 1));
    let table = batches[0].table.clone();
    service
        .submit(Update::inserts(table, vec![row.into_boxed_slice()]))
        .unwrap();
    let err = service.flush().unwrap_err();
    assert_eq!(err.kind(), "poisoned", "{err}");
    let cap = format!("exceeds the {MAX_RECORD_LEN}-byte record cap");
    assert!(err.to_string().contains(&cap), "{err}");
    let err = service.submit(batches[healthy].clone()).unwrap_err();
    assert_eq!(err.kind(), "poisoned", "{err}");

    let done = service.shutdown();
    let cause = done.error.expect("the size error is reported");
    assert_eq!(cause.kind(), "record-too-large", "{cause}");
    assert_eq!(done.durable_seq, healthy as u64);
    assert_eq!(done.applied_seq, healthy as u64);

    let last =
        assert_recovery_matches_prefix(&tree, &db, &batches, &dir, done.durable_seq, "over-cap");
    assert_eq!(last, healthy as u64, "the refused record left no bytes behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batches a durable front end must refuse *before* logging them: a
/// table the query does not read, and a fact row shorter than its table
/// binding.  Logging one would make every later recovery fail on it.
fn refused_batches(batches: &[Update]) -> [(&'static str, Update); 2] {
    let fact = &batches[0];
    let short = fact.rows[0].0[..2].to_vec().into_boxed_slice();
    let unknown = vec![vec![Value::int(1)].into_boxed_slice()];
    [
        ("unknown_table", Update::inserts("NoSuchTable", unknown)),
        ("short_row", Update::inserts(fact.table.clone(), vec![short])),
    ]
}

#[test]
fn a_refused_batch_is_never_logged_by_the_durable_engine() {
    let (tree, db, batches) = workload();
    for (what, bad) in refused_batches(&batches) {
        let dir = tempdir(&format!("refused_engine_{what}"));
        let mut engine = count_engine(&tree);
        engine.load_database(&db).unwrap();
        let mut durable = DurableEngine::create(engine, &dir).unwrap();
        durable.apply_update(&batches[0]).unwrap();
        let err = durable.apply_update(&bad).unwrap_err();
        assert_eq!(err.kind(), "invalid_update", "{what}: {err}");
        // The log continues right after the accepted batch.
        durable.apply_update(&batches[1]).unwrap();
        assert_eq!(durable.applied_seq(), 2, "{what}: the refused batch took no seq");
        drop(durable);
        let last = assert_recovery_matches_prefix(&tree, &db, &batches, &dir, 2, what);
        assert_eq!(last, 2, "{what}: the refused batch left no bytes behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_refused_batch_poisons_the_service_after_its_accepted_prefix() {
    let (tree, db, batches) = workload();
    for (what, bad) in refused_batches(&batches) {
        let dir = tempdir(&format!("refused_service_{what}"));
        // Closed gate: all four batches land in one commit group.
        let gate = CommitGate::closed_gate();
        let config = ServiceConfig {
            commit_gate: Some(gate.clone()),
            ..ServiceConfig::default()
        };
        let mut engine = count_engine(&tree);
        engine.load_database(&db).unwrap();
        let service = CdcService::start(engine, &dir, config).unwrap();
        for u in [&batches[0], &batches[1], &bad, &batches[2]] {
            service.submit(u.clone()).unwrap();
        }
        gate.open();
        let err = service.flush().unwrap_err();
        assert_eq!(err.kind(), "poisoned", "{what}: {err}");

        // The group's valid prefix is durable and applied; the refused
        // batch and everything after it were never appended.
        let done = service.shutdown();
        let cause = done.error.expect("the refusal poisons the service");
        assert_eq!(cause.kind(), "invalid_update", "{what}: {cause}");
        assert_eq!((done.durable_seq, done.applied_seq), (2, 2), "{what}");
        assert_agree(&reference(&tree, &db, &batches[..2]), &done.engine, what);
        let last = assert_recovery_matches_prefix(&tree, &db, &batches, &dir, 2, what);
        assert_eq!(last, 2, "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn full_queue_block_deadline_and_reject_are_typed_errors() {
    let (tree, db, batches) = workload();
    for (policy, expect_kind) in [
        (BackpressurePolicy::Block { deadline: Duration::from_millis(50) }, "backpressure"),
        (BackpressurePolicy::Reject, "backpressure"),
    ] {
        let dir = tempdir(if matches!(policy, BackpressurePolicy::Reject) {
            "bp_reject"
        } else {
            "bp_block"
        });
        let gate = CommitGate::closed_gate();
        let config = ServiceConfig {
            queue_capacity: 4,
            backpressure: policy,
            commit_gate: Some(gate.clone()),
            ..ServiceConfig::default()
        };
        let mut engine = count_engine(&tree);
        engine.load_database(&db).unwrap();
        let service = CdcService::start(engine, &dir, config).unwrap();

        // The gate stalls the pipeline before any drain: four batches fill
        // the queue, the fifth hits the policy.
        for u in &batches[..4] {
            service.submit(u.clone()).unwrap();
        }
        let err = service.submit(batches[4].clone()).unwrap_err();
        assert_eq!(err.kind(), expect_kind, "{err}");
        assert!(err.to_string().contains("4 batches queued"), "{err}");
        assert_eq!(service.queue_depth(), 4, "the refused batch was not enqueued");

        // Unstall: the four accepted batches commit and apply; the refused
        // one is gone without a trace.
        gate.open();
        assert_eq!(service.flush().unwrap(), 4);
        let done = service.shutdown();
        assert!(done.error.is_none());
        assert_eq!(done.stats.shed_batches, 0);
        assert_agree(&reference(&tree, &db, &batches[..4]), &done.engine, "backpressure/live");
        assert_recovery_matches_prefix(&tree, &db, &batches, &dir, 4, "backpressure/recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shed_oldest_drops_pending_batches_without_acking_them() {
    let (tree, db, batches) = workload();
    let dir = tempdir("bp_shed");
    let gate = CommitGate::closed_gate();
    let config = ServiceConfig {
        queue_capacity: 4,
        backpressure: BackpressurePolicy::ShedOldest,
        commit_gate: Some(gate.clone()),
        ..ServiceConfig::default()
    };
    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config).unwrap();

    // Six submissions into a stalled queue of four: batches 0 and 1 are
    // shed (oldest first), 2..=5 survive.
    for u in &batches[..6] {
        service.submit(u.clone()).unwrap();
    }
    assert_eq!(service.queue_depth(), 4);
    gate.open();
    service.flush().unwrap();
    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_eq!(done.stats.shed_batches, 2);
    assert_eq!(done.stats.accepted_batches, 6);
    assert_eq!(done.durable_seq, 4, "four batches were committed");

    // The surviving stream is batches[2..6], in order — the shed ones
    // left no trace in the engine or the log.
    assert_agree(&reference(&tree, &db, &batches[2..6]), &done.engine, "shed/live");
    let (recovered, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.last_seq, 4);
    assert_agree(&reference(&tree, &db, &batches[2..6]), recovered.state(), "shed/recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_every_accepted_batch_durably() {
    let (tree, db, batches) = workload();
    let dir = tempdir("shutdown_drain");
    let config = ServiceConfig {
        queue_capacity: batches.len() + 1,
        group_commit_max: 8,
        ..ServiceConfig::default()
    };
    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config).unwrap();
    for u in &batches {
        service.submit(u.clone()).unwrap();
    }
    // No flush: shutdown itself must drain everything accepted.
    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_eq!(done.durable_seq, batches.len() as u64);
    assert_eq!(done.applied_seq, batches.len() as u64);
    assert_agree(&reference(&tree, &db, &batches), &done.engine, "drain/live");
    assert_recovery_matches_prefix(&tree, &db, &batches, &dir, done.durable_seq, "drain/recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_stream_disk_plateaus_under_retirement() {
    // An "infinite" churn stream: the same rows inserted and deleted over
    // and over.  Sequence numbers grow forever, engine state stays small,
    // and with snapshots + retirement the changelog's on-disk footprint
    // must plateau instead of growing with the stream.
    let (tree, db, batches) = workload();
    let dir = tempdir("bounded_disk");
    let config = ServiceConfig {
        queue_capacity: 64,
        group_commit_max: 4,
        max_segment_bytes: 4 * 1024,
        snapshot_every_batches: Some(16),
        ..ServiceConfig::default()
    };
    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config.clone()).unwrap();

    let churn_rounds = 400;
    let up = &batches[0];
    let down = up.inverse();
    for _ in 0..churn_rounds {
        service.submit(up.clone()).unwrap();
        service.submit(down.clone()).unwrap();
    }
    service.flush().unwrap();
    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_eq!(done.durable_seq, (churn_rounds * 2) as u64);

    // Disk plateau: every batch is ~hundreds of bytes, so the stream
    // appended far more than the retained bound; retirement must have
    // kept the live footprint to a handful of segments.
    let cap = 16 * config.max_segment_bytes;
    assert!(done.stats.retired_segments > 10, "stats: {:?}", done.stats);
    assert!(
        done.stats.max_changelog_bytes < cap,
        "changelog peaked at {} bytes (cap {cap}): retirement is not keeping up",
        done.stats.max_changelog_bytes
    );
    let appended_lower_bound = (churn_rounds * 2) as u64 * 40;
    assert!(
        appended_lower_bound > 2 * done.stats.max_changelog_bytes,
        "churn stream too small to demonstrate a plateau"
    );
    assert!(done.stats.snapshots > 10);

    // The retained suffix still recovers to the exact final state.
    let (recovered, report) = DurableEngine::recover(count_engine(&tree), &db, &dir).unwrap();
    assert_eq!(report.last_seq, done.durable_seq);
    assert_agree(&done.engine, recovered.state(), "bounded-disk/recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_resumes_from_recovered_artifacts() {
    // Crash/restart round trip through the service API itself:
    // start → ingest → shutdown → start_recovered → ingest the rest.
    let (tree, db, batches) = workload();
    let dir = tempdir("service_resume");
    let half = batches.len() / 2;
    let config = ServiceConfig {
        queue_capacity: batches.len() + 1,
        snapshot_every_batches: Some(8),
        ..ServiceConfig::default()
    };

    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config.clone()).unwrap();
    for u in &batches[..half] {
        service.submit(u.clone()).unwrap();
    }
    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_eq!(done.durable_seq, half as u64);

    let (service, report) =
        CdcService::start_recovered(count_engine(&tree), &db, &dir, config).unwrap();
    assert_eq!(report.last_seq, half as u64);
    assert_eq!(service.durable_seq(), half as u64);
    for u in &batches[half..] {
        service.submit(u.clone()).unwrap();
    }
    assert_eq!(service.flush().unwrap(), batches.len() as u64);
    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_agree(&reference(&tree, &db, &batches), &done.engine, "resume/live");
    assert_recovery_matches_prefix(&tree, &db, &batches, &dir, done.durable_seq, "resume/recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_service_survives_torn_tail_and_continues() {
    // Torn group tail + service restart: the torn batch was never acked,
    // recovery truncates it, and the resumed service re-ingests it.
    let (tree, db, batches) = workload();
    let dir = tempdir("service_torn");
    let config = ServiceConfig {
        queue_capacity: batches.len() + 1,
        ..ServiceConfig::default()
    };
    let mut engine = count_engine(&tree);
    engine.load_database(&db).unwrap();
    let service = CdcService::start(engine, &dir, config.clone()).unwrap();
    let half = batches.len() / 2;
    for u in &batches[..half] {
        service.submit(u.clone()).unwrap();
    }
    service.flush().unwrap();
    let done = service.shutdown();
    assert!(done.error.is_none());

    // Crash artifact: a half-appended record at the end of the active
    // segment (the next batch's frame, cut short).
    let segs = fivm_cdc::list_segments(&dir).unwrap();
    let active = &segs.last().unwrap().path;
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(active).unwrap();
        f.write_all(&[0x99; 11]).unwrap();
    }

    let (service, report) =
        CdcService::start_recovered(count_engine(&tree), &db, &dir, config).unwrap();
    assert_eq!(report.last_seq, half as u64, "torn bytes were never durable");
    assert!(!report.log_end.is_clean());
    for u in &batches[half..] {
        service.submit(u.clone()).unwrap();
    }
    assert_eq!(service.flush().unwrap(), batches.len() as u64);
    let done = service.shutdown();
    assert!(done.error.is_none());
    assert_agree(&reference(&tree, &db, &batches), &done.engine, "torn/live");
    assert_recovery_matches_prefix(&tree, &db, &batches, &dir, done.durable_seq, "torn/recovered");
    let _ = std::fs::remove_dir_all(&dir);
}
