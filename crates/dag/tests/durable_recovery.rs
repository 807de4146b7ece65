//! The durable registry through the fault-injection scenarios of the
//! engine suite (`crates/cdc/tests/recovery_differential.rs`): a fleet of
//! queries journals its stream to a segmented CDC changelog; after a
//! simulated crash — clean, between append and apply, with a torn tail, a
//! flipped byte, or across rotated segments — a freshly re-registered
//! registry replays the durable prefix **once** and every sink converges
//! bit-identically to an uninterrupted twin.  Damage in a sealed segment is
//! a typed `corrupt` error, and a batch the fleet refuses is never logged.
//! Every scenario runs on a COUNT fleet and an MI fleet (both exact rings).

use fivm_cdc::{
    fault, framing, list_segments, segment_file_name, CdcBatch, ChangelogWriter,
};
use fivm_common::Value;
use fivm_core::{AggregateLayout, BinSpec};
use fivm_dag::{DagError, DurableRegistry, QueryId, QueryKind, QueryRegistry};
use fivm_data::retailer::{retailer_query_continuous, retailer_query_mixed, retailer_tree};
use fivm_data::{RetailerConfig, StreamConfig};
use fivm_query::QuerySpec;
use fivm_relation::{Database, Relation, Tuple, Update};
use fivm_ring::GenCofactor;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn mi_binnings(spec: &QuerySpec, bins: usize) -> HashMap<usize, BinSpec> {
    let layout = AggregateLayout::of(spec);
    let mut out = HashMap::new();
    for (pos, &v) in layout.vars.iter().enumerate() {
        if layout.kinds[pos].is_continuous() {
            out.insert(v, BinSpec::new(0.0, 1_000.0, bins));
        }
    }
    out
}

/// A scalar COUNT and an MI matrix over the same Retailer tree: two ring
/// groups (both exact rings, so recovery must be bit-for-bit).
fn build_fleet() -> (QueryRegistry, (QueryId, QueryId)) {
    let spec = retailer_query_continuous();
    let bins = mi_binnings(&spec, 8);
    let mut registry = QueryRegistry::new();
    let count = registry.register(retailer_tree(spec.clone()), QueryKind::Count, None).unwrap();
    let mi = registry.register(retailer_tree(spec), QueryKind::Mi(bins), None).unwrap();
    (registry, (count, mi))
}

#[test]
fn recovered_fleet_replays_the_changelog_once_and_converges() {
    let stream = Stream::new();
    let (first, second) = stream.updates.split_at(stream.updates.len() / 2);
    let dir = tempdir("two_groups");
    let sinks = |r: &QueryRegistry, (count, mi): (QueryId, QueryId)| {
        (r.count_result_relation(count).unwrap(), r.gen_result_relation(mi).unwrap())
    };

    // Primary: load, journal + apply half the stream, then "crash" (drop
    // without any clean shutdown — every acknowledged batch was fsynced).
    let (mut registry, ids) = build_fleet();
    registry.load_database(&stream.db).unwrap();
    let mut durable = DurableRegistry::create(registry, &dir).unwrap();
    let logged_rows: usize = first.iter().map(|u| durable.apply_update(u).unwrap().input_rows).sum();
    let before = sinks(durable.registry(), ids);
    drop(durable);

    // Recovery: same registrations (metadata, not journaled), same initial
    // database, one replay of the changelog.  `logged_rows` already counts
    // both ring groups (the outcome merges them); the load counts once per
    // group.
    let (fresh, ids) = build_fleet();
    let mut recovered = DurableRegistry::recover(fresh, &stream.db, &dir).unwrap();
    let load_rows: usize = stream.db.tables().iter().map(|t| t.rows.len()).sum();
    assert_eq!(
        recovered.registry().stats().rows_applied,
        load_rows * 2 + logged_rows,
        "replay must process the initial load plus each logged batch exactly once per ring group"
    );
    assert!(sinks(recovered.registry(), ids) == before, "recovered sinks diverged from the pre-crash fleet");

    // The recovered fleet keeps journaling and tracks an uninterrupted twin
    // bit-for-bit through the rest of the stream.
    let (mut twin, twin_ids) = build_fleet();
    twin.load_database(&stream.db).unwrap();
    for u in first {
        twin.apply_update(u).unwrap();
    }
    for u in second {
        recovered.apply_update(u).unwrap();
        twin.apply_update(u).unwrap();
    }
    let after = sinks(recovered.registry(), ids);
    assert!(after == sinks(&twin, twin_ids), "post-recovery maintenance diverged");

    // A second crash/recovery over the longer log still converges.
    drop(recovered);
    let (fresh, ids) = build_fleet();
    let recovered = DurableRegistry::recover(fresh, &stream.db, &dir).unwrap();
    assert!(sinks(recovered.registry(), ids) == after, "second recovery diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- fault-injected fleets

#[derive(Clone, Copy, Debug)]
enum Fleet {
    Count,
    Mi,
}

/// Every sink of a fleet, for bit-for-bit comparison.
#[derive(PartialEq)]
enum Sinks {
    Count(Vec<Relation<i64>>),
    Mi(Vec<Relation<GenCofactor>>),
}

/// A fleet of two queries of one ring over the Retailer relations that
/// share their leaves: COUNT over the continuous and the mixed query, or MI
/// over the continuous query binned two ways.
fn fleet(kind: Fleet) -> (QueryRegistry, Vec<QueryId>) {
    let mut registry = QueryRegistry::new();
    let queries = match kind {
        Fleet::Count => vec![
            (retailer_query_continuous(), QueryKind::Count),
            (retailer_query_mixed(), QueryKind::Count),
        ],
        Fleet::Mi => {
            let spec = retailer_query_continuous();
            let (fine, coarse) = (mi_binnings(&spec, 8), mi_binnings(&spec, 4));
            vec![(spec.clone(), QueryKind::Mi(fine)), (spec, QueryKind::Mi(coarse))]
        }
    };
    let ids = queries
        .into_iter()
        .map(|(spec, query)| registry.register(retailer_tree(spec), query, None).unwrap())
        .collect();
    (registry, ids)
}

fn sinks(kind: Fleet, registry: &QueryRegistry, ids: &[QueryId]) -> Sinks {
    match kind {
        Fleet::Count => Sinks::Count(
            ids.iter()
                .map(|&id| registry.count_result_relation(id).unwrap())
                .collect(),
        ),
        Fleet::Mi => Sinks::Mi(
            ids.iter()
                .map(|&id| registry.gen_result_relation(id).unwrap())
                .collect(),
        ),
    }
}

/// The stream under test and its base database.
struct Stream {
    db: Database,
    updates: Vec<Update>,
}

impl Stream {
    fn new() -> Stream {
        let cfg = RetailerConfig::tiny();
        let updates = cfg
            .update_stream(StreamConfig {
                bulks: 6,
                bulk_size: 60,
                delete_fraction: 0.25,
                seed: 29,
            })
            .into_bulks();
        Stream {
            db: cfg.generate(),
            updates,
        }
    }

    /// The sinks of an uninterrupted fleet after the first `prefix` batches.
    fn twin(&self, kind: Fleet, prefix: usize) -> Sinks {
        let (mut registry, ids) = fleet(kind);
        registry.load_database(&self.db).unwrap();
        for u in &self.updates[..prefix] {
            registry.apply_update(u).unwrap();
        }
        sinks(kind, &registry, &ids)
    }

    /// Journals the first `prefix` batches into a fresh durable registry in
    /// `dir`, then "crashes" (drops it).
    fn journal(&self, kind: Fleet, dir: &Path, max_segment_bytes: u64, prefix: usize) {
        let (mut registry, _) = fleet(kind);
        registry.load_database(&self.db).unwrap();
        let mut durable = DurableRegistry::create_with(registry, dir, max_segment_bytes).unwrap();
        for u in &self.updates[..prefix] {
            durable.apply_update(u).unwrap();
        }
        assert_eq!(durable.applied_seq(), prefix as u64);
    }

    /// Recovers a freshly registered fleet from `dir`; asserts it reached
    /// `prefix` and equals the twin there.
    fn assert_recovers(&self, kind: Fleet, dir: &Path, prefix: usize, ctx: &str) -> DurableRegistry {
        let (fresh, ids) = fleet(kind);
        let recovered = DurableRegistry::recover(fresh, &self.db, dir)
            .unwrap_or_else(|e| panic!("{kind:?}/{ctx}: recovery failed: {e}"));
        assert_eq!(recovered.applied_seq(), prefix as u64, "{kind:?}/{ctx}");
        assert!(
            sinks(kind, recovered.registry(), &ids) == self.twin(kind, prefix),
            "{kind:?}/{ctx}: recovered fleet differs from its uninterrupted twin"
        );
        recovered
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fivm_dag_durable_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

const ONE_SEGMENT: u64 = 64 << 20;

#[test]
fn registry_recovers_from_torn_and_flipped_tails_in_the_active_segment() {
    let stream = Stream::new();
    let n = stream.updates.len();
    for kind in [Fleet::Count, Fleet::Mi] {
        let dir = tempdir(&format!("tails_{kind:?}"));
        stream.journal(kind, &dir, ONE_SEGMENT, n);
        let log = dir.join(segment_file_name(1));
        let full = std::fs::read(&log).unwrap();
        let offsets = record_offsets(&full);
        assert_eq!(offsets.len(), n);

        // Torn tail: the last record cut at three points — durability ends
        // before it, and the reopened log continues the sequence.
        let (last_start, last_len) = offsets[n - 1];
        for cut in [
            full.len() - 1,
            last_start + framing::RECORD_OVERHEAD + last_len / 2,
            last_start + 2,
        ] {
            std::fs::write(&log, &full).unwrap();
            fault::truncate_to(&log, cut as u64).unwrap();
            let mut recovered = stream.assert_recovers(kind, &dir, n - 1, &format!("torn@{cut}"));
            recovered.apply_update(&stream.updates[n - 1]).unwrap();
            drop(recovered);
            stream.assert_recovers(kind, &dir, n, &format!("torn@{cut}/continued"));
        }

        // A flipped payload byte mid-log: replay stops at the damage, even
        // though the record after it is intact.
        let (victim, _) = offsets[n - 2];
        std::fs::write(&log, &full).unwrap();
        fault::flip_byte(&log, (victim + framing::RECORD_OVERHEAD + 3) as u64, 0x20).unwrap();
        stream.assert_recovers(kind, &dir, n - 2, "flipped-payload");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn registry_replays_across_rotated_segments_and_refuses_sealed_damage() {
    let stream = Stream::new();
    let n = stream.updates.len();
    for kind in [Fleet::Count, Fleet::Mi] {
        // A 1-byte bound: every batch in its own segment.
        let dir = tempdir(&format!("segments_{kind:?}"));
        stream.journal(kind, &dir, 1, n);
        assert_eq!(list_segments(&dir).unwrap().len(), n);
        assert!(n >= 3);
        stream.assert_recovers(kind, &dir, n, "rotated");

        // Bit rot in a sealed segment is a loud error, not a shorter prefix.
        fault::flip_byte(dir.join(segment_file_name(2)), 12, 0x40).unwrap();
        let (fresh, _) = fleet(kind);
        match DurableRegistry::recover(fresh, &stream.db, &dir) {
            Err(DagError::Cdc(e)) => assert_eq!(e.kind(), "corrupt", "{kind:?}: {e}"),
            Err(e) => panic!("{kind:?}: sealed damage must be a corrupt log, got {e}"),
            Ok(_) => panic!("{kind:?}: sealed damage must not recover"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn registry_converges_after_a_crash_between_append_and_apply() {
    let stream = Stream::new();
    let n = stream.updates.len();
    for kind in [Fleet::Count, Fleet::Mi] {
        let dir = tempdir(&format!("append_apply_{kind:?}"));
        stream.journal(kind, &dir, 1, n - 1);
        // The last batch reached the active segment; the process died
        // before the fleet applied it.
        let active = list_segments(&dir).unwrap().pop().unwrap();
        let mut writer = ChangelogWriter::open_append_at(&active.path, active.first_seq).unwrap();
        assert_eq!(writer.next_seq(), n as u64);
        writer
            .append_unsynced(&CdcBatch::from_update(n as u64, &stream.updates[n - 1]))
            .unwrap();
        writer.sync().unwrap();
        drop(writer);
        stream.assert_recovers(kind, &dir, n, "append-before-apply");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_refused_batch_is_never_logged_by_the_registry() {
    let stream = Stream::new();
    let fact = &stream.updates[0];
    let short: Tuple = fact.rows[0].0[..2].to_vec().into_boxed_slice();
    let refused = [
        ("unknown-table", Update::inserts("NoSuchTable", vec![vec![Value::int(1)].into_boxed_slice()])),
        ("short-row", Update::inserts(fact.table.clone(), vec![short])),
    ];
    for kind in [Fleet::Count, Fleet::Mi] {
        for (what, bad) in &refused {
            let dir = tempdir(&format!("refused_{kind:?}_{what}"));
            let (mut registry, _) = fleet(kind);
            registry.load_database(&stream.db).unwrap();
            let mut durable = DurableRegistry::create(registry, &dir).unwrap();
            durable.apply_update(&stream.updates[0]).unwrap();
            assert!(durable.apply_update(bad).is_err(), "{kind:?}/{what}");
            assert_eq!(durable.applied_seq(), 1, "{kind:?}/{what}: the refused batch took no seq");
            durable.apply_update(&stream.updates[1]).unwrap();
            drop(durable);
            stream.assert_recovers(kind, &dir, 2, what);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
