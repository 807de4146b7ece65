#![forbid(unsafe_code)]
//! Shared harness code for the paper walkthroughs and ablations.
//!
//! The binaries in `src/bin/` walk through the paper's figures and
//! applications (`exp_figure1`, `exp_regression`, `exp_chow_liu`,
//! `exp_model_selection`, `exp_view_tree`) and profile the hot path
//! (`profile_hotpath`); the Criterion benchmarks in `benches/` are the
//! paper's ablations against `fivm_baselines`.  Performance is measured and
//! claimed in `benchmark/` (`fivm-e2e`) only.

use fivm_core::{apps, BinSpec, Engine};
use fivm_query::{QuerySpec, ViewTree};
use fivm_relation::{Database, Update};
use fivm_ring::{Cofactor, GenCofactor};
use std::collections::HashMap;

/// Which dataset an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// The synthetic Retailer snowflake (5 relations, Inventory fact table).
    Retailer,
    /// The synthetic Favorita star (6 relations, Sales fact table).
    Favorita,
}

impl Dataset {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Retailer => "Retailer",
            Dataset::Favorita => "Favorita",
        }
    }
}

/// A prepared workload: database, query, view tree and update stream.
pub struct Workload {
    /// The dataset this workload was generated from.
    pub dataset: Dataset,
    /// The generated database.
    pub database: Database,
    /// The query (mixed continuous/categorical features).
    pub spec: QuerySpec,
    /// The view tree under the hand-written (paper-style) variable order.
    pub tree: ViewTree,
    /// The bulk update stream against the fact table.
    pub updates: Vec<Update>,
}

impl Workload {
    /// Builds a Retailer workload with the mixed (categorical + continuous)
    /// query.
    pub fn retailer(
        cfg: fivm_data::RetailerConfig,
        stream: fivm_data::StreamConfig,
        continuous_only: bool,
    ) -> Self {
        let database = cfg.generate();
        let spec = if continuous_only {
            fivm_data::retailer::retailer_query_continuous()
        } else {
            fivm_data::retailer::retailer_query_mixed()
        };
        let tree = fivm_data::retailer::retailer_tree(spec.clone());
        let updates = cfg.update_stream(stream).into_bulks();
        Workload {
            dataset: Dataset::Retailer,
            database,
            spec,
            tree,
            updates,
        }
    }

    /// Builds a Favorita workload.
    pub fn favorita(cfg: fivm_data::FavoritaConfig, stream: fivm_data::StreamConfig) -> Self {
        let database = cfg.generate();
        let spec = fivm_data::favorita::favorita_query();
        let tree = fivm_data::favorita::favorita_tree(spec.clone());
        let updates = cfg.update_stream(stream).into_bulks();
        Workload {
            dataset: Dataset::Favorita,
            database,
            spec,
            tree,
            updates,
        }
    }

    /// Total number of individual updates in the stream.
    pub fn total_updates(&self) -> usize {
        self.updates.iter().map(Update::len).sum()
    }

    /// A COVAR engine over the workload's query (requires the continuous
    /// query variant for Retailer).
    pub fn covar_engine(&self) -> Engine<Cofactor> {
        apps::covar_engine(self.tree.clone()).expect("continuous covar engine")
    }

    /// A generalized-COVAR engine (mixed features).
    pub fn gen_covar_engine(&self) -> Engine<GenCofactor> {
        apps::gen_covar_engine(self.tree.clone()).expect("generalized covar engine")
    }

    /// A count engine.
    pub fn count_engine(&self) -> Engine<i64> {
        apps::count_engine(self.tree.clone()).expect("count engine")
    }

    /// An MI engine; continuous aggregate attributes are binned into 10
    /// equi-width bins over a generous range.
    pub fn mi_engine(&self) -> Engine<GenCofactor> {
        apps::mi_engine(self.tree.clone(), &self.default_binnings()).expect("mi engine")
    }

    /// Default equi-width binnings for the continuous aggregate attributes,
    /// sized to the value ranges produced by the synthetic generators.
    pub fn default_binnings(&self) -> HashMap<usize, BinSpec> {
        let layout = fivm_core::AggregateLayout::of(&self.spec);
        let mut bins = HashMap::new();
        for (pos, &v) in layout.vars.iter().enumerate() {
            if layout.kinds[pos].is_continuous() {
                let spec = match layout.names[pos].as_str() {
                    "inventoryunits" => BinSpec::new(0.0, 500.0, 10),
                    "unitsales" => BinSpec::new(0.0, 80.0, 10),
                    "price" => BinSpec::new(0.0, 80.0, 10),
                    "avghhi" => BinSpec::new(30_000.0, 120_000.0, 10),
                    "competitordistance" => BinSpec::new(0.0, 40.0, 10),
                    "population" => BinSpec::new(5_000.0, 200_000.0, 10),
                    "medianage" => BinSpec::new(25.0, 55.0, 10),
                    "maxtemp" => BinSpec::new(-15.0, 40.0, 10),
                    "mintemp" => BinSpec::new(-15.0, 20.0, 10),
                    "transactions" => BinSpec::new(200.0, 4_000.0, 10),
                    "oilprice" => BinSpec::new(20.0, 80.0, 10),
                    _ => BinSpec::new(0.0, 1_000.0, 10),
                };
                bins.insert(v, spec);
            }
        }
        bins
    }
}

/// Prints a simple aligned table: a header row followed by data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_retailer() -> Workload {
        Workload::retailer(
            fivm_data::RetailerConfig::tiny(),
            fivm_data::StreamConfig {
                bulks: 2,
                bulk_size: 20,
                delete_fraction: 0.2,
                seed: 1,
            },
            true,
        )
    }

    #[test]
    fn workload_construction_and_engines() {
        let w = tiny_retailer();
        assert_eq!(w.dataset.name(), "Retailer");
        assert_eq!(w.total_updates(), 40);
        let mut e = w.covar_engine();
        e.load_database(&w.database).unwrap();
        assert!(e.result().count() > 0.0);
        let mut c = w.count_engine();
        c.load_database(&w.database).unwrap();
        assert!(c.result() > 0);
        let mut mi = w.mi_engine();
        mi.load_database(&w.database).unwrap();
        assert!(mi.result().count() > 0.0);
    }

    #[test]
    fn favorita_workload_and_gen_covar() {
        let w = Workload::favorita(
            fivm_data::FavoritaConfig::tiny(),
            fivm_data::StreamConfig {
                bulks: 1,
                bulk_size: 10,
                delete_fraction: 0.0,
                seed: 2,
            },
        );
        assert_eq!(w.dataset.name(), "Favorita");
        let mut e = w.gen_covar_engine();
        e.load_database(&w.database).unwrap();
        assert!(e.result().count() > 0.0);
    }
}
