//! Allocation and payload-byte gate for the generalized cofactor ring on
//! Favorita: gen-COVAR (mixed continuous / categorical lifts) and MI (every
//! attribute categorical), each churned forward-then-inverse the way a
//! maintained view lives — a warm round fixes the key set and sizes every
//! buffer, the second round is measured.
//!
//! What it pins is the container mechanism behind the payloads, not a
//! timing: a `GenCofactorElem` lists only the categorical components that
//! hold mass, and a relation of 2–8 entries is one vector.  Allocations per
//! updated row and resident bytes per view entry are counts of that
//! mechanism and repeat exactly for one stream.
//!
//! Measured on this stream (the test prints both figures):
//!
//! | ring      | allocs/row    | view bytes/entry |
//! |-----------|--------------:|-----------------:|
//! | gen-COVAR | 32.24 → 12.12 | 3 280 → 1 025    |
//! | MI        | 39.60 → 15.08 | 3 458 → 1 225    |
//!
//! (left: one `RelValue` per categorical component and a hash table from
//! the second key on; right: the sparse component list and the small
//! vector; both exact, in debug and release builds alike).  Each ceiling
//! sits 15 % above the right-hand figure — room for a small shift in
//! pooling or growth, far below the left-hand figure.
//! Ceilings are never loosened to admit a regression; a change that moves
//! a figure re-measures it and writes the new arithmetic here.

use fivm_core::{apps, BinSpec, Engine};
use fivm_data::favorita::{favorita_query, favorita_tree};
use fivm_data::{FavoritaConfig, StreamConfig};
use fivm_relation::Database;
use fivm_ring::GenCofactor;
use std::collections::HashMap;

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

/// What one measured churn round cost.
struct Churn {
    allocs_per_row: f64,
    bytes_per_entry: f64,
}

fn churn(mut engine: Engine<GenCofactor>, db: &Database, cfg: &FavoritaConfig) -> Churn {
    engine.load_database(db).unwrap();
    let updates = cfg
        .update_stream(StreamConfig {
            bulks: 2,
            bulk_size: 500,
            delete_fraction: 0.2,
            seed: 1,
        })
        .into_bulks();
    let round = |engine: &mut Engine<GenCofactor>| {
        for u in &updates {
            engine.apply_update(u).unwrap();
            engine.apply_update(&u.inverse()).unwrap();
        }
    };
    round(&mut engine);
    let before = engine.stats().rows_applied;
    let allocs = allocations_during(|| round(&mut engine));
    let stats = engine.stats();
    let rows = (stats.rows_applied - before) as f64;
    Churn {
        allocs_per_row: allocs as f64 / rows,
        bytes_per_entry: stats.table_bytes as f64 / engine.total_view_entries() as f64,
    }
}

fn assert_under(ring: &str, got: Churn, allocs_ceiling: f64, bytes_ceiling: f64) {
    println!(
        "{ring}: {:.2} allocs/row, {:.0} view bytes/entry",
        got.allocs_per_row, got.bytes_per_entry
    );
    assert!(
        got.allocs_per_row <= allocs_ceiling,
        "{ring}: {:.2} allocations per row, ceiling {allocs_ceiling}",
        got.allocs_per_row
    );
    assert!(
        got.bytes_per_entry <= bytes_ceiling,
        "{ring}: {:.0} view bytes per entry, ceiling {bytes_ceiling}",
        got.bytes_per_entry
    );
}

#[test]
fn favorita_gen_covar_and_mi_churn_stay_under_their_allocation_and_byte_ceilings() {
    let cfg = FavoritaConfig::default();
    let db = cfg.generate();
    let tree = || favorita_tree(favorita_query());
    // MI bins every continuous attribute into ten equal-width bins over
    // the generator's value range (the ranges `profile_hotpath --favorita`
    // uses).
    let layout = fivm_core::AggregateLayout::of(&favorita_query());
    let range = |name: &str| match name {
        "inventoryunits" => (0.0, 500.0),
        "unitsales" | "price" => (0.0, 80.0),
        "avghhi" => (30_000.0, 120_000.0),
        "competitordistance" => (0.0, 40.0),
        "population" => (5_000.0, 200_000.0),
        "medianage" => (25.0, 55.0),
        "maxtemp" => (-15.0, 40.0),
        "mintemp" => (-15.0, 20.0),
        "transactions" => (200.0, 4_000.0),
        "oilprice" => (20.0, 80.0),
        _ => (0.0, 1_000.0),
    };
    let bins: HashMap<_, _> = (0..layout.vars.len())
        .filter(|&p| layout.kinds[p].is_continuous())
        .map(|p| {
            let (lo, hi) = range(&layout.names[p]);
            (layout.vars[p], BinSpec::new(lo, hi, 10))
        })
        .collect();

    let covar = churn(apps::gen_covar_engine(tree()).unwrap(), &db, &cfg);
    let mi = churn(apps::mi_engine(tree(), &bins).unwrap(), &db, &cfg);
    // 12.12 × 1.15 = 13.9 and 1 025 × 1.15 = 1 179; 15.08 × 1.15 = 17.3
    // and 1 225 × 1.15 = 1 409.
    assert_under("gen-COVAR", covar, 13.9, 1_179.0);
    assert_under("MI", mi, 17.3, 1_409.0);
}
