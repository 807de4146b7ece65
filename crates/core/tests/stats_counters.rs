//! Pins the engine's probe-volume counters so regressions fail loudly.
//!
//! The hash-once contract says every delta key is hashed (and each sibling
//! probed) at most once per propagation level; with batch grouping, probe
//! volume is bounded by *distinct* keys, not input rows.  These tests
//! assert exact `probes`/`probe_hits` counts on the Figure-1 join under a
//! hand-picked view tree, so any change that re-probes (or re-hashes via
//! extra probes) shows up as a counter mismatch, and `rehashes` tracks
//! table growth.

use fivm_common::{AttrKind, Value};
use fivm_core::apps;
use fivm_core::delta::DeltaEntry;
use fivm_core::kernel::SCRATCH_KEEP_BYTES;
use fivm_core::plan::{child_infos, compile_delta_plan};
use fivm_data::figure1::figure1_tree;
use fivm_query::{ChildRef, ViewTree};
use fivm_relation::{tuple, BaseTable, Database, Schema, Tuple};

fn t(vals: &[i64]) -> Tuple {
    tuple(vals.iter().map(|&v| Value::int(v)))
}

#[test]
fn probe_counts_are_exact_per_propagation_level() {
    let mut engine = apps::count_engine(figure1_tree(false)).unwrap();
    assert_eq!(engine.stats().probes, 0);
    assert_eq!(engine.stats().probe_hits, 0);

    // R(1, 2): B's level is probe-free (single child); at the root the
    // sibling C-view is probed once and missed (it is empty).
    engine.apply_rows(0, vec![(t(&[1, 2]), 1)]).unwrap();
    let s = engine.stats();
    assert_eq!((s.probes, s.probe_hits), (1, 0));

    // S(1, 3, 4): D and C levels are probe-free; at the root the sibling
    // B-view is probed once and hits (it holds A=1).
    engine.apply_rows(1, vec![(t(&[1, 3, 4]), 1)]).unwrap();
    let s = engine.stats();
    assert_eq!((s.probes, s.probe_hits), (2, 1));

    // R(2, 5): the root probes the C-view for A=2 — a miss.
    engine.apply_rows(0, vec![(t(&[2, 5]), 1)]).unwrap();
    let s = engine.stats();
    assert_eq!((s.probes, s.probe_hits), (3, 1));

    // R(1, 7): the root probes the C-view for A=1 — a hit.
    engine.apply_rows(0, vec![(t(&[1, 7]), 1)]).unwrap();
    let s = engine.stats();
    assert_eq!((s.probes, s.probe_hits), (4, 2));
    assert_eq!(engine.result(), 2);
}

#[test]
fn grouped_batches_probe_once_per_distinct_key() {
    let mut engine = apps::count_engine(figure1_tree(false)).unwrap();
    engine.apply_rows(1, vec![(t(&[1, 3, 4]), 1)]).unwrap();
    let before = engine.stats();

    // 10 rows, all with join key A=1 and the same B: grouping collapses
    // them to ONE delta entry, so the root's sibling is probed exactly
    // once — probe volume scales with distinct keys, not rows.
    let rows: Vec<(Tuple, i64)> = (0..10).map(|_| (t(&[1, 2]), 1)).collect();
    engine.apply_rows(0, rows).unwrap();
    let delta = engine.stats().delta_since(&before);
    assert_eq!(delta.rows_applied, 10);
    assert_eq!(delta.probes, 1, "grouped batch must probe once per distinct key");
    assert_eq!(delta.probe_hits, 1);

    // Rows that cancel inside a batch never reach a probe.
    let before = engine.stats();
    engine
        .apply_rows(0, vec![(t(&[5, 5]), 1), (t(&[5, 5]), -1)])
        .unwrap();
    let delta = engine.stats().delta_since(&before);
    assert_eq!((delta.probes, delta.delta_entries), (0, 0));
}

#[test]
fn rehashes_count_table_growth_and_stay_flat_at_steady_state() {
    let mut engine = apps::count_engine(figure1_tree(false)).unwrap();
    assert_eq!(engine.stats().rehashes, 0);

    // Loading plenty of distinct keys forces the view tables to grow.
    let rows: Vec<(Tuple, i64)> = (0..2_000).map(|i| (t(&[i % 50, i]), 1)).collect();
    engine.apply_rows(0, rows).unwrap();
    let grown = engine.stats().rehashes;
    assert!(grown > 0, "2000 distinct keys must grow some view table");

    // Re-touching existing keys rehashes nothing.
    let before = engine.stats();
    let rows: Vec<(Tuple, i64)> = (0..100).map(|i| (t(&[i % 50, i]), 1)).collect();
    engine.apply_rows(0, rows).unwrap();
    assert_eq!(
        engine.stats().delta_since(&before).rehashes,
        0,
        "steady-state updates must not rehash"
    );
}

#[test]
fn deferred_index_builds_fire_once_per_probed_index() {
    // Star query R(A,B) ⋈ S(A,C,D) ⋈ T(C,E): propagating an S delta binds
    // A and C and probes the sibling leaves on key *subsets*, which the
    // plan serves with secondary indexes.  Those indexes are deferred:
    // they cost nothing until the first S update forces a build, and each
    // index builds exactly once.
    let spec = {
        let mut b = fivm_query::QuerySpec::builder("star");
        let a = b.key("A");
        let bb = b.continuous_feature("B");
        let c = b.key("C");
        let d = b.continuous_feature("D");
        let e = b.continuous_feature("E");
        b.relation("R", &[a, bb]);
        b.relation("S", &[a, c, d]);
        b.relation("T", &[c, e]);
        b.build().unwrap()
    };
    let vo = fivm_query::VariableOrder::heuristic(&spec, fivm_query::EliminationHeuristic::MinDegree)
        .unwrap();
    let tree = ViewTree::new(spec, vo).unwrap();
    // The distinct (view, columns) secondary indexes the delta plans of
    // every node request, views numbered in tree order.
    let mut planned: Vec<(usize, Vec<usize>)> = Vec::new();
    for node in tree.nodes() {
        let children = child_infos(&tree, node, |c| match c {
            ChildRef::View(v) => *v,
            ChildRef::Relation(r) => tree.len() + r,
        });
        for j in 0..children.len() {
            compile_delta_plan(node, &children, j, &mut |view, cols| {
                if !planned.contains(&(view, cols.clone())) {
                    planned.push((view, cols));
                }
                0
            })
            .unwrap();
        }
    }
    let planned_indexes = planned.len();
    assert!(planned_indexes > 0, "the star query must plan index probes");

    let mut engine = apps::count_engine(tree).unwrap();
    assert_eq!(engine.stats().deferred_index_builds, 0);

    // The first pass over every relation forces the probed indexes to
    // build (each exactly once, lazily, at the level that probes it).
    engine
        .apply_rows(0, (0..20).map(|i| (t(&[i % 6, i]), 1)))
        .unwrap();
    engine
        .apply_rows(2, (0..20).map(|i| (t(&[i % 5, i]), 1)))
        .unwrap();
    engine
        .apply_rows(1, (0..10).map(|i| (t(&[i % 6, i % 5, i]), 1)))
        .unwrap();
    let built = engine.stats().deferred_index_builds;
    assert!(built > 0, "the update pattern must have probed an index");
    assert!(
        built <= planned_indexes,
        "each planned index builds at most once ({built} builds, {planned_indexes} planned)"
    );

    // Further batches maintain the built indexes incrementally: the
    // deferred-build counter stays flat.
    engine
        .apply_rows(1, (10..30).map(|i| (t(&[i % 6, i % 5, i]), 1)))
        .unwrap();
    engine
        .apply_rows(0, (20..30).map(|i| (t(&[i % 6, i]), 1)))
        .unwrap();
    assert_eq!(engine.stats().deferred_index_builds, built);

    // ...and the lazily built indexes serve a non-trivial join result (the
    // equivalence suite covers exact correctness under mixed streams).
    assert!(engine.result() > 0);
}

#[test]
fn stats_merge_sums_every_counter() {
    // Two engines fed disjoint slices of the same workload: merged
    // counters must equal the counters of one engine fed everything —
    // `merge` is how a sharded deployment aggregates its shards.
    let mut whole = apps::count_engine(figure1_tree(false)).unwrap();
    let mut left = apps::count_engine(figure1_tree(false)).unwrap();
    let mut right = apps::count_engine(figure1_tree(false)).unwrap();

    let rows: Vec<(Tuple, i64)> = (0..40).map(|i| (t(&[i, i]), 1)).collect();
    let (l, r) = rows.split_at(20);
    whole.apply_rows(0, rows.clone()).unwrap();
    left.apply_rows(0, l.to_vec()).unwrap();
    right.apply_rows(0, r.to_vec()).unwrap();

    let merged = left.stats().merge(&right.stats());
    assert_eq!(merged.rows_applied, whole.stats().rows_applied);
    assert_eq!(merged.delta_entries, whole.stats().delta_entries);
    assert_eq!(merged.ring_adds, whole.stats().ring_adds);
    assert_eq!(merged.updates_applied, 2);

    // Field-wise sum holds for every counter, probes/rehashes included.
    let a = fivm_core::EngineStats {
        updates_applied: 1,
        rows_applied: 2,
        delta_entries: 3,
        ring_adds: 4,
        ring_muls: 5,
        probes: 6,
        probe_hits: 7,
        rehashes: 8,
        ring_rehashes: 9,
        deferred_index_builds: 1,
        table_bytes: 100,
        scratch_bytes: 7,
    };
    let b = fivm_core::EngineStats {
        updates_applied: 10,
        rows_applied: 20,
        delta_entries: 30,
        ring_adds: 40,
        ring_muls: 50,
        probes: 60,
        probe_hits: 70,
        rehashes: 80,
        ring_rehashes: 90,
        deferred_index_builds: 10,
        table_bytes: 1000,
        scratch_bytes: 70,
    };
    let m = a.merge(&b);
    assert_eq!(
        m,
        fivm_core::EngineStats {
            updates_applied: 11,
            rows_applied: 22,
            delta_entries: 33,
            ring_adds: 44,
            ring_muls: 55,
            probes: 66,
            probe_hits: 77,
            rehashes: 88,
            ring_rehashes: 99,
            deferred_index_builds: 11,
            table_bytes: 1100,
            scratch_bytes: 77,
        }
    );
    // merge and delta_since are inverses for the counters; the byte gauges
    // are not differenced — delta_since carries the later snapshot's
    // footprint through (a difference of a shrinkable gauge is
    // meaningless, and consumers always want the resident footprint).
    assert_eq!(
        m.delta_since(&b),
        fivm_core::EngineStats {
            table_bytes: m.table_bytes,
            scratch_bytes: m.scratch_bytes,
            ..a
        }
    );
    let shrunk = fivm_core::EngineStats { table_bytes: 5, scratch_bytes: 3, ..a };
    let d = shrunk.delta_since(&a);
    assert_eq!((d.table_bytes, d.scratch_bytes), (5, 3));
}

#[test]
fn scratch_bytes_after_load_database_is_bounded_by_the_budget_not_the_load() {
    // `load_database` applies each table as one batch.  R's 120 000 distinct
    // keys need ~80 B of delta entry each on every level they reach — well
    // over the scratch budget — so the load-sized buffers must be gone when
    // the load returns; S loads second and leaves its few entries' worth.
    let mut db = Database::new();
    let mut r = BaseTable::new(
        "R",
        Schema::of(&[("A", AttrKind::Categorical), ("B", AttrKind::Categorical)]),
    );
    for i in 0..120_000 {
        r.push(t(&[i % 50, i]));
    }
    db.add_table(r).unwrap();
    let mut s = BaseTable::new(
        "S",
        Schema::of(&[
            ("A", AttrKind::Categorical),
            ("C", AttrKind::Categorical),
            ("D", AttrKind::Categorical),
        ]),
    );
    for i in 0..50 {
        s.push(t(&[i, i % 7, i]));
    }
    db.add_table(s).unwrap();

    let mut engine = apps::count_engine(figure1_tree(false)).unwrap();
    assert_eq!(engine.stats().scratch_bytes, 0, "a fresh engine holds no scratch");
    engine.load_database(&db).unwrap();
    assert_eq!(engine.result(), 120_000);
    let loaded = engine.stats().scratch_bytes;
    let load_sized = 120_000 * std::mem::size_of::<DeltaEntry<i64>>();
    assert!(load_sized > SCRATCH_KEEP_BYTES, "the load must exceed the budget");
    assert!(
        loaded < 64 << 10,
        "scratch after load_database is {loaded} B — sized by the 120 000-row table, not the 50-row one"
    );

    // Small updates afterwards keep their (small) buffers: the gauge is
    // live, and stays where a 50-row batch put it.
    engine
        .apply_rows(0, vec![(t(&[1, 120_001]), 1), (t(&[2, 120_002]), 1)])
        .unwrap();
    let after = engine.stats().scratch_bytes;
    assert!(after > 0 && after < 64 << 10, "scratch after a 2-row update: {after} B");
}

#[test]
fn table_bytes_tracks_view_growth() {
    let mut engine = apps::count_engine(figure1_tree(false)).unwrap();
    let empty = engine.stats().table_bytes;
    let rows: Vec<(Tuple, i64)> = (0..2_000).map(|i| (t(&[i % 50, i]), 1)).collect();
    engine.apply_rows(0, rows.clone()).unwrap();
    let grown = engine.stats().table_bytes;
    assert!(
        grown > empty,
        "2000 distinct keys must grow the byte footprint ({empty} -> {grown})"
    );
    // Deleting every row shrinks the live key set.  The retained table
    // capacity (parked slots keep their buffers) means the gauge does not
    // return to the empty footprint, and the freed-slot bookkeeping (the
    // view free list) may add a few KB — but deletes must not grow the
    // footprint beyond that bookkeeping.
    let deletes: Vec<(Tuple, i64)> = rows.iter().map(|(r, _)| (r.clone(), -1)).collect();
    engine.apply_rows(0, deletes).unwrap();
    let after = engine.stats().table_bytes;
    let free_list_slack = 2 * rows.len() * std::mem::size_of::<u32>();
    assert!(
        after <= grown + free_list_slack,
        "deletes ballooned the footprint: {grown} -> {after}"
    );
}

#[test]
fn outcome_merge_sums_rows_and_delta_entries() {
    let mut left = apps::count_engine(figure1_tree(false)).unwrap();
    let mut right = apps::count_engine(figure1_tree(false)).unwrap();
    let a = left
        .apply_rows(0, vec![(t(&[1, 2]), 1), (t(&[2, 3]), 1)])
        .unwrap();
    let b = right.apply_rows(0, vec![(t(&[3, 4]), 1)]).unwrap();
    let m = a.merge(&b);
    assert_eq!(m.input_rows, 3);
    assert_eq!(m.delta_entries, a.delta_entries + b.delta_entries);
}
