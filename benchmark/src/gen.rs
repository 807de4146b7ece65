//! Seeded inputs.  `--seed` reaches only this module: the engines receive
//! generated rows and never see the seed.
//!
//! Every stream is a *round*: a seeded insert/delete stream `S` applied
//! forward, then `S⁻¹` (each batch inverted, in reverse order).  After a
//! round the database is back in its loaded state, so memory is bounded,
//! the key set is fixed, and "result after the round == result after the
//! load" is a free correctness check.  Doubles are quantized to integers
//! so the COVAR sums are exact and that check can be bit-for-bit.

use fivm_common::{Value, VarId};
use fivm_core::{AggregateLayout, BinSpec};
use fivm_data::{FavoritaConfig, RetailerConfig, StreamConfig, UpdateStream};
use fivm_query::QuerySpec;
use fivm_relation::{BaseTable, Database, Tuple, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One forward stream with its inverse, ready to replay.
pub struct Round {
    /// `S`: the batches in application order.
    pub forward: Vec<Update>,
    /// `S⁻¹`: the inverted batches, already in reverse order.
    pub inverse: Vec<Update>,
    /// Names of the dimension tables some batch updates (empty for a
    /// fact-only stream).
    pub dimension_tables: Vec<String>,
}

impl Round {
    fn new(forward: Vec<Update>, fact_table: &str) -> Round {
        let inverse = forward.iter().rev().map(Update::inverse).collect();
        let mut dimension_tables: Vec<String> = forward
            .iter()
            .filter(|u| u.table != fact_table)
            .map(|u| u.table.clone())
            .collect();
        dimension_tables.sort();
        dimension_tables.dedup();
        Round {
            forward,
            inverse,
            dimension_tables,
        }
    }

    /// All batches of the round in application order.
    pub fn batches(&self) -> impl Iterator<Item = &Update> + '_ {
        self.forward.iter().chain(self.inverse.iter())
    }

    /// The `i`-th batch of the round in application order.
    pub fn batch(&self, i: usize) -> &Update {
        match i.checked_sub(self.forward.len()) {
            None => &self.forward[i],
            Some(j) => &self.inverse[j],
        }
    }

    /// Rows applied by one round (forward and inverse).
    pub fn rows(&self) -> usize {
        self.batches().map(Update::len).sum()
    }

    pub fn num_batches(&self) -> usize {
        self.forward.len() * 2
    }

    pub fn is_dimension(&self, update: &Update) -> bool {
        self.dimension_tables.contains(&update.table)
    }
}

fn quantize_tuple(t: &[Value]) -> Tuple {
    t.iter()
        .map(|v| match v {
            Value::Double(d) => Value::double(d.get().round()),
            other => other.clone(),
        })
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// The database with every double rounded to an integer.
fn quantize_database(db: &Database) -> Database {
    let mut out = Database::new();
    for table in db.tables() {
        let mut t = BaseTable::new(table.name.clone(), table.schema.clone());
        for (row, mult) in &table.rows {
            t.push_with_multiplicity(quantize_tuple(row), *mult);
        }
        out.add_table(t).expect("table names stay unique");
    }
    out
}

fn quantize_updates(updates: Vec<Update>) -> Vec<Update> {
    updates
        .into_iter()
        .map(|u| {
            let rows = u
                .rows
                .iter()
                .map(|(r, m)| (quantize_tuple(r), *m))
                .collect();
            Update::with_multiplicities(u.table, rows)
        })
        .collect()
}

fn stream_config(seed: u64, bulks: usize, bulk_size: usize) -> StreamConfig {
    StreamConfig {
        bulks,
        bulk_size,
        delete_fraction: 0.2,
        seed,
    }
}

/// Seeded, quantized Retailer database.
pub fn retailer_db(mut cfg: RetailerConfig, seed: u64) -> (RetailerConfig, Database) {
    cfg.seed = seed;
    let db = quantize_database(&cfg.generate());
    (cfg, db)
}

/// Seeded, quantized Favorita database.
pub fn favorita_db(mut cfg: FavoritaConfig, seed: u64) -> (FavoritaConfig, Database) {
    cfg.seed = seed;
    let db = quantize_database(&cfg.generate());
    (cfg, db)
}

/// Fact-only Retailer round: `bulks` Inventory bulks of `bulk_size` rows,
/// re-cut into batches of `batch_rows`.
pub fn retailer_fact_round(
    cfg: &RetailerConfig,
    seed: u64,
    bulks: usize,
    bulk_size: usize,
    batch_rows: usize,
) -> Round {
    let stream = cfg
        .update_stream(stream_config(seed, bulks, bulk_size))
        .rechunk(batch_rows);
    Round::new(quantize_updates(stream.into_bulks()), "Inventory")
}

/// Fact-only Favorita round of Sales bulks.
pub fn favorita_fact_round(
    cfg: &FavoritaConfig,
    seed: u64,
    bulks: usize,
    bulk_size: usize,
) -> Round {
    let stream: UpdateStream = cfg.update_stream(stream_config(seed, bulks, bulk_size));
    Round::new(quantize_updates(stream.into_bulks()), "Sales")
}

/// The dimension tables a mixed stream rewrites, with the continuous
/// column each replacement changes.  A replacement keeps every key and
/// categorical column, so the join structure never changes.
const DIMENSIONS: [(&str, &str); 3] = [
    ("Item", "price"),
    ("Location", "avghhi"),
    ("Weather", "maxtemp"),
];

/// Retailer round mixing fact batches with dimension updates: after every
/// `dimension_every - 1` fact batches comes one batch that replaces
/// `dimension_rows` rows of a dimension table (delete + insert each).
pub fn retailer_mixed_round(
    cfg: &RetailerConfig,
    db: &Database,
    seed: u64,
    fact_rows: usize,
    batch_rows: usize,
    dimension_every: usize,
    dimension_rows: usize,
) -> Round {
    let fact = retailer_fact_round(
        cfg,
        seed,
        fact_rows.div_ceil(1000),
        1000.min(fact_rows),
        batch_rows,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1_4E_45_10);
    // Working copies, so a row replaced twice deletes its current version.
    let mut tables: Vec<(usize, Vec<Tuple>)> = DIMENSIONS
        .iter()
        .map(|(name, column)| {
            let t = db.table(name).expect("retailer dimension table");
            let col = t.schema.position(column).expect("dimension column");
            (col, t.rows.iter().map(|(r, _)| r.clone()).collect())
        })
        .collect();
    let mut forward =
        Vec::with_capacity(fact.forward.len() * dimension_every / (dimension_every - 1) + 1);
    let mut next_dimension = 0;
    for (i, batch) in fact.forward.into_iter().enumerate() {
        forward.push(batch);
        if (i + 1) % (dimension_every - 1) == 0 {
            let (name, _) = DIMENSIONS[next_dimension % DIMENSIONS.len()];
            let (col, rows) = &mut tables[next_dimension % DIMENSIONS.len()];
            next_dimension += 1;
            let mut changes = Vec::with_capacity(dimension_rows * 2);
            for _ in 0..dimension_rows {
                let idx = rng.gen_range(0..rows.len());
                let old = rows[idx].clone();
                let mut new = old.to_vec();
                let shifted =
                    old[*col].as_f64().expect("continuous column") + rng.gen_range(1..6) as f64;
                new[*col] = Value::double(shifted);
                let new: Tuple = new.into_boxed_slice();
                rows[idx] = new.clone();
                changes.push((old, -1));
                changes.push((new, 1));
            }
            forward.push(Update::with_multiplicities(name, changes));
        }
    }
    Round::new(forward, "Inventory")
}

/// The Retailer continuous-feature COVAR query grouped by the subset of
/// `locn`, `dateid`, `zip` that `mask` selects (bit i → i-th of the three);
/// mask 0 is the scalar query.  The eight variants share every declaration,
/// so their view trees unify below the group-by divergence in the DAG.
pub fn retailer_masked_query(mask: usize) -> QuerySpec {
    let mut b = QuerySpec::builder(format!("retailer_covar_m{mask}"));
    let locn = b.key("locn");
    let dateid = b.key("dateid");
    let ksn = b.key("ksn");
    let zip = b.key("zip");
    let units = b.label("inventoryunits");
    let price = b.continuous_feature("price");
    let avghhi = b.continuous_feature("avghhi");
    let dist = b.continuous_feature("competitordistance");
    let population = b.continuous_feature("population");
    let medianage = b.continuous_feature("medianage");
    let maxtemp = b.continuous_feature("maxtemp");
    let mintemp = b.continuous_feature("mintemp");
    b.relation("Inventory", &[locn, dateid, ksn, units]);
    b.relation("Location", &[locn, zip, avghhi, dist]);
    b.relation("Census", &[zip, population, medianage]);
    b.relation("Item", &[ksn, price]);
    b.relation("Weather", &[locn, dateid, maxtemp, mintemp]);
    let ids = [locn, dateid, zip];
    let by: Vec<VarId> = (0..3)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| ids[i])
        .collect();
    b.group_by(&by);
    b.build().expect("masked retailer query is valid")
}

/// Equi-width binnings for the continuous aggregate attributes of the MI
/// application, sized to the value ranges the generators produce.
pub fn mi_binnings(spec: &QuerySpec) -> HashMap<VarId, BinSpec> {
    let layout = AggregateLayout::of(spec);
    let mut bins = HashMap::new();
    for (pos, &v) in layout.vars.iter().enumerate() {
        if layout.kinds[pos].is_continuous() {
            let bin = match layout.names[pos].as_str() {
                "unitsales" => BinSpec::new(0.0, 80.0, 10),
                "transactions" => BinSpec::new(200.0, 4_000.0, 10),
                "oilprice" => BinSpec::new(20.0, 80.0, 10),
                "inventoryunits" => BinSpec::new(0.0, 500.0, 10),
                _ => BinSpec::new(0.0, 1_000.0, 10),
            };
            bins.insert(v, bin);
        }
    }
    bins
}
