//! # bitempo-workloads
//!
//! The full TPC-BiH query workload (paper §3.3), implemented as physical
//! plans over the engine scan interface:
//!
//! * [`tt`] — synthetic time travel (T1–T9, plus ALL/T5, the yardstick that
//!   retrieves the complete ORDERS history);
//! * [`tpch`] — all 22 TPC-H queries under bitemporal time travel (the H
//!   workload of §5.4);
//! * [`key`] — pure-key / audit queries (K1–K6);
//! * [`range`] — range-timeslice queries (R1–R7), including temporal
//!   aggregation and temporal joins;
//! * [`bitemporal`] — the B3.1–B3.11 bitemporal-dimension matrix (Table 3);
//! * [`params`] — benchmark parameter selection (time points, hot keys);
//! * [`sharding`] — the stable key-space partitioning function the sharded
//!   serving layer routes DML with;
//! * [`suite`] — one representative query per class, bundled as the
//!   five-class equivalence probe the crash-recovery tests compare on.
//!
//! Every query function takes a [`Ctx`] plus explicit temporal parameters
//! and returns materialized rows, so the same plan text runs against any
//! engine — mirroring how the paper ran identical SQL against all four
//! systems (modulo dialect).

pub mod bitemporal;
pub mod key;
pub mod params;
pub mod range;
pub mod sharding;
pub mod suite;
pub mod tpch;
pub mod tt;

pub use params::QueryParams;
pub use suite::{five_class_answers, five_class_diff, FIVE_CLASSES};

use bitempo_core::{Result, Row, TableId};
use bitempo_engine::api::{AppSpec, ColRange, ScanOutput, SysSpec};
use bitempo_engine::BitemporalEngine;

/// Resolved ids of the eight benchmark tables.
#[derive(Debug, Clone, Copy)]
pub struct TableIds {
    /// REGION.
    pub region: TableId,
    /// NATION.
    pub nation: TableId,
    /// SUPPLIER.
    pub supplier: TableId,
    /// CUSTOMER.
    pub customer: TableId,
    /// PART.
    pub part: TableId,
    /// PARTSUPP.
    pub partsupp: TableId,
    /// ORDERS.
    pub orders: TableId,
    /// LINEITEM.
    pub lineitem: TableId,
}

impl TableIds {
    /// Resolves all table names against an engine.
    pub fn resolve(engine: &dyn BitemporalEngine) -> Result<TableIds> {
        Ok(TableIds {
            region: engine.resolve("region")?,
            nation: engine.resolve("nation")?,
            supplier: engine.resolve("supplier")?,
            customer: engine.resolve("customer")?,
            part: engine.resolve("part")?,
            partsupp: engine.resolve("partsupp")?,
            orders: engine.resolve("orders")?,
            lineitem: engine.resolve("lineitem")?,
        })
    }
}

/// Query execution context: an engine plus resolved table ids.
pub struct Ctx<'a> {
    /// The engine under test.
    pub engine: &'a dyn BitemporalEngine,
    /// Resolved tables.
    pub t: TableIds,
}

impl<'a> Ctx<'a> {
    /// Builds a context by resolving table names.
    pub fn new(engine: &'a dyn BitemporalEngine) -> Result<Ctx<'a>> {
        Ok(Ctx {
            t: TableIds::resolve(engine)?,
            engine,
        })
    }

    /// Scans a table under the given temporal specification.
    pub fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<Vec<Row>> {
        Ok(self.engine.scan(table, sys, app, preds)?.rows)
    }

    /// Like [`Ctx::scan`], but returns the full [`ScanOutput`] — rows plus
    /// access paths and work counters. The parallel-equivalence tests use
    /// this to compare entire outputs across worker counts.
    pub fn scan_output(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        self.engine.scan(table, sys, app, preds)
    }

    /// Number of value columns of `table` (period columns follow them in
    /// scan outputs).
    pub fn value_arity(&self, table: TableId) -> usize {
        self.engine.table_def(table).schema.arity()
    }

    /// `(app_start, app_end)` column positions in scan outputs of a
    /// bitemporal table.
    pub fn app_cols(&self, table: TableId) -> (usize, usize) {
        let def = self.engine.table_def(table);
        debug_assert!(def.has_app_time(), "{} has no app time", def.name);
        let base = def.schema.arity();
        (base, base + 1)
    }

    /// `(sys_start, sys_end)` column positions in scan outputs of a
    /// system-versioned table.
    pub fn sys_cols(&self, table: TableId) -> (usize, usize) {
        let def = self.engine.table_def(table);
        debug_assert!(def.has_system_time(), "{} has no system time", def.name);
        let base = def.schema.arity() + if def.has_app_time() { 2 } else { 0 };
        (base, base + 1)
    }
}

/// Canonically sorts rows for cross-engine comparison.
pub fn sort_canonical(rows: &mut [Row]) {
    rows.sort();
}

/// Compares two values, treating doubles as equal within a relative
/// tolerance. Engines scan rows in different physical orders, so float
/// aggregates legitimately differ in the last bits.
pub fn value_approx_eq(a: &bitempo_core::Value, b: &bitempo_core::Value, tol: f64) -> bool {
    use bitempo_core::Value;
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            if x.is_nan() && y.is_nan() {
                return true;
            }
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= tol * scale
        }
        (Value::Double(_), Value::Int(_)) | (Value::Int(_), Value::Double(_)) => {
            let (x, y) = (
                a.as_double().unwrap_or(f64::NAN),
                b.as_double().unwrap_or(f64::NAN),
            );
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= tol * scale
        }
        _ => a == b,
    }
}

/// Row-set comparison with float tolerance (inputs must be canonically
/// sorted). Returns the first mismatch description, or `None` when equal.
pub fn rows_approx_diff(a: &[Row], b: &[Row], tol: f64) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("row count {} vs {}", a.len(), b.len()));
    }
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        if ra.arity() != rb.arity() {
            return Some(format!("row {i}: arity {} vs {}", ra.arity(), rb.arity()));
        }
        for ci in 0..ra.arity() {
            if !value_approx_eq(ra.get(ci), rb.get(ci), tol) {
                return Some(format!(
                    "row {i}, column {ci}: {} vs {}",
                    ra.get(ci),
                    rb.get(ci)
                ));
            }
        }
    }
    None
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! A shared, lazily-built benchmark instance so the workload tests do
    //! not regenerate and reload data per test.

    use super::*;
    use bitempo_dbgen::ScaleConfig;
    use bitempo_engine::{build_engine, SystemKind};
    use bitempo_histgen::{loader, HistoryConfig};
    use std::sync::OnceLock;

    #[allow(dead_code)]
    pub struct Fixture {
        pub engines: Vec<(SystemKind, Box<dyn BitemporalEngine>)>,
        pub history: bitempo_histgen::History,
        pub params: QueryParams,
    }

    static FIXTURE: OnceLock<Fixture> = OnceLock::new();

    pub fn fixture() -> &'static Fixture {
        FIXTURE.get_or_init(|| {
            let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
            let history = bitempo_histgen::generate_history(&data, &HistoryConfig::tiny());
            let mut engines = Vec::new();
            for kind in SystemKind::ALL {
                let mut engine = build_engine(kind);
                let ids = loader::load_initial(engine.as_mut(), &data).unwrap();
                loader::replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
                engine.checkpoint();
                engines.push((kind, engine));
            }
            let params = QueryParams::derive(engines[0].1.as_ref()).unwrap();
            Fixture {
                engines,
                history,
                params,
            }
        })
    }

    /// Runs a query on every engine and asserts identical (sorted) results;
    /// returns System A's rows.
    pub fn assert_equivalent<F>(run: F) -> Vec<Row>
    where
        F: Fn(&Ctx<'_>) -> Result<Vec<Row>>,
    {
        let fx = fixture();
        let mut reference: Option<(SystemKind, Vec<Row>)> = None;
        for (kind, engine) in &fx.engines {
            let ctx = Ctx::new(engine.as_ref()).unwrap();
            let mut rows = run(&ctx).unwrap();
            sort_canonical(&mut rows);
            match &reference {
                None => reference = Some((*kind, rows)),
                Some((ref_kind, expected)) => {
                    if let Some(diff) = rows_approx_diff(&rows, expected, 1e-9) {
                        panic!("{kind} disagrees with {ref_kind}: {diff}");
                    }
                }
            }
        }
        reference.unwrap().1
    }
}
