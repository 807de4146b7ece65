//! The workload of the two `big_then_small.rs` suites (this crate's and
//! `crates/dag/tests/`, which includes this file by `#[path]`).

use fivm_common::Value;
use fivm_data::RetailerConfig;
use fivm_relation::{BaseTable, Database, Tuple, Update};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rows in the big batch.
pub const BIG: usize = 50_000;

fn quantize(row: &[Value]) -> Tuple {
    row.iter()
        .map(|v| match v {
            Value::Double(d) => Value::double(d.get().round()),
            other => other.clone(),
        })
        .collect()
}

/// Dimension tables plus a thin Inventory, every double rounded to an
/// integer so COVAR sums are exact in any order; the big batch's rows; and
/// one churn cycle over them — 100 delete batches then 100 re-insert
/// batches, alternately of 1 and 10 rows — after which the database is
/// back where the big batch left it.
pub fn workload() -> (Database, Vec<Tuple>, Vec<Update>) {
    let cfg = RetailerConfig {
        locations: 40,
        dates: 100,
        items: 200,
        zips: 10,
        inventory_density: 0.001,
        seed: 17,
    };
    let mut db = Database::new();
    for table in cfg.generate().tables() {
        let mut t = BaseTable::new(table.name.clone(), table.schema.clone());
        for (row, mult) in &table.rows {
            t.push_with_multiplicity(quantize(row), *mult);
        }
        db.add_table(t).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(50_000);
    let big: Vec<Tuple> = (0..BIG)
        .map(|_| quantize(&cfg.random_inventory_row(&mut rng)))
        .collect();

    let mut batches: Vec<Vec<Tuple>> = Vec::new();
    let mut next = 0;
    for b in 0..100 {
        let len = if b % 2 == 0 { 1 } else { 10 };
        batches.push(big[next..next + len].to_vec());
        next += 97; // spread the churn over the big batch
    }
    let cycle = batches
        .iter()
        .map(|rows| Update::deletes("Inventory", rows.clone()))
        .chain(
            batches
                .iter()
                .map(|rows| Update::inserts("Inventory", rows.clone())),
        )
        .collect();
    (db, big, cycle)
}
