//! Snapshots written before a ring's in-memory representation changed must
//! load after it: the engine-state wire format is versioned
//! (`STATE_VERSION`, the leading `u32`), and a change of how a payload is
//! *held* — inline singletons in `RelValue`, the split `GenCofactor` — must
//! not change how it is *written*.
//!
//! `fixtures/figure1_gen_covar_state_v1.bin` is `Engine::save_state` of the
//! Figure 1 query under the generalized cofactor ring (categorical `C` with
//! string categories, continuous `B`, `D`), written by the build that
//! preceded the inline-singleton `RelValue` (every relation a boxed table).

use fivm_common::Value;
use fivm_core::apps;
use fivm_data::figure1::figure1_tree;
use fivm_relation::tuple;
use fivm_ring::{GenCofactor, Ring};

const FIXTURE: &[u8] = include_bytes!("fixtures/figure1_gen_covar_state_v1.bin");

fn r_rows() -> Vec<(fivm_relation::Tuple, i64)> {
    vec![
        (tuple([Value::int(1), Value::int(1)]), 1),
        (tuple([Value::int(2), Value::int(2)]), 1),
    ]
}

fn s_rows() -> Vec<(fivm_relation::Tuple, i64)> {
    vec![
        (tuple([Value::int(1), Value::str("c1"), Value::int(1)]), 1),
        (tuple([Value::int(1), Value::str("c2"), Value::int(3)]), 1),
        (tuple([Value::int(2), Value::str("c2"), Value::int(2)]), 1),
    ]
}

/// Component-wise, bit-for-bit comparison of two results.
fn assert_same(got: &GenCofactor, want: &GenCofactor) {
    assert_eq!(got.count().to_bits(), want.count().to_bits());
    for i in 0..3 {
        assert_eq!(got.sum(i), want.sum(i), "s[{i}]");
        for j in i..3 {
            assert_eq!(got.prod(i, j), want.prod(i, j), "Q[{i},{j}]");
        }
    }
}

#[test]
fn a_snapshot_from_before_the_inline_singleton_loads_and_keeps_working() {
    // The format version did not move.
    assert_eq!(FIXTURE[..4], 1u32.to_le_bytes(), "STATE_VERSION changed");

    let mut live = apps::gen_covar_engine(figure1_tree(true)).unwrap();
    live.apply_rows(0, r_rows()).unwrap();
    live.apply_rows(1, s_rows()).unwrap();
    // Today's build writes the same header and the same number of bytes
    // (entry order inside a relation is storage order, which may differ).
    let mut now = Vec::new();
    live.save_state(&mut now);
    assert_eq!(now[..4], FIXTURE[..4]);
    assert_eq!(now.len(), FIXTURE.len(), "the wire form changed size");

    let mut restored = apps::gen_covar_engine(figure1_tree(true)).unwrap();
    restored
        .load_state(FIXTURE)
        .expect("pre-change snapshot must load");
    assert_same(&restored.result(), &live.result());
    assert_eq!(restored.total_view_entries(), live.total_view_entries());
    let stats = restored.stats();
    assert_eq!(
        (stats.rehashes, stats.ring_rehashes),
        (0, 0),
        "restore rehashed"
    );
    // Restored tables and payloads are right-sized: never above the
    // footprint of the engine that grew into the same state.
    assert!(stats.table_bytes <= live.stats().table_bytes);
    // Saving the restored engine writes the fixture back byte for byte:
    // views in the query's tree order, entries in their stored order.
    let mut again = Vec::new();
    restored.save_state(&mut again);
    assert!(again == FIXTURE, "re-saved bytes differ from the fixture");

    // Both engines keep maintaining: a new category, then deletes down to
    // an exact zero.
    let extra = vec![(tuple([Value::int(2), Value::str("c3"), Value::int(5)]), 1)];
    for e in [&mut restored, &mut live] {
        e.apply_rows(1, extra.clone()).unwrap();
    }
    assert_same(&restored.result(), &live.result());
    let negate = |rows: Vec<(fivm_relation::Tuple, i64)>| -> Vec<_> {
        rows.into_iter().map(|(t, m)| (t, -m)).collect()
    };
    for e in [&mut restored, &mut live] {
        e.apply_rows(1, negate(extra.clone())).unwrap();
        e.apply_rows(1, negate(s_rows())).unwrap();
    }
    assert!(restored.result().is_zero() && live.result().is_zero());
}
