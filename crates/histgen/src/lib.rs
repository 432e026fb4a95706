//! # bitempo-histgen
//!
//! The TPC-BiH **Bitemporal Data Generator** (paper §3.2, §4.1): evolves the
//! dbgen version-0 population through `m × 1 000 000` executions of nine
//! update scenarios (Table 1), producing:
//!
//! * a system-independent **generator archive** — the ordered list of
//!   transactions that every engine replays one by one (system time cannot
//!   be bulk-set, §4.2), with optional batching of scenarios into larger
//!   transactions (Fig 13);
//! * the generator's **in-memory bitemporal state** ([`state::GenDb`]). The
//!   scenario loop keeps it only for the two tables its scenarios read
//!   ([`scenario::READ_TABLES`]: ORDERS and PARTSUPP), so generating a
//!   history does not build a fifth database beside the four engines. The
//!   full state — the correctness oracle for the engines and the source of
//!   pre-stamped versions for System D's bulk load (§5.8) — is built on
//!   request by [`generate_history_with_state`], which applies the finished
//!   archive to a fresh `GenDb` with the same `apply`;
//! * per-table **operation statistics** reproducing Table 2.
//!
//! Scenario probabilities follow Table 1. Where the OCR of the paper is
//! ambiguous (see DESIGN.md §6) we use: New Order 0.30 (half with a new
//! customer), Cancel 0.05, Deliver 0.25, Receive Payment 0.20, Update Stock
//! 0.05, Delay Availability 0.05, Change Price 0.05, Update Supplier 0.04,
//! Manipulate Order Data 0.01 — summing to 1.0.

pub mod archive;
pub mod loader;
pub mod ops;
pub mod scenario;
pub mod state;
pub mod stats;

pub use archive::{decode_txn, encode_txn, Archive};
pub use loader::{apply_op, apply_txn, load_initial, replay, LoadReport};
pub use ops::{Op, ScenarioKind, Transaction};
pub use state::GenDb;
pub use stats::{HistoryStats, TableOps};

use bitempo_dbgen::TpchData;

/// History generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct HistoryConfig {
    /// History scale: `m = 1.0` means one million scenario executions.
    pub m: f64,
    /// Seed for the scenario stream (independent of the dbgen seed).
    pub seed: u64,
    /// Scenarios per application-time day (the paper's history spans months
    /// of simulated business on top of the TPC-H epoch).
    pub scenarios_per_day: u64,
}

impl HistoryConfig {
    /// A laptop-scale default: `m = 0.0005` → 500 scenarios.
    pub fn tiny() -> HistoryConfig {
        HistoryConfig {
            m: 0.0005,
            seed: 0x415C,
            scenarios_per_day: 4,
        }
    }

    /// A configuration with the given `m` and default seed.
    pub fn with_m(m: f64) -> HistoryConfig {
        HistoryConfig {
            m,
            seed: 0x415C,
            scenarios_per_day: 4,
        }
    }

    /// Number of scenario executions.
    pub fn scenarios(&self) -> u64 {
        ((self.m * 1_000_000.0).round() as u64).max(1)
    }
}

/// Output of a full history generation run.
#[derive(Debug)]
pub struct History {
    /// The replayable transaction archive.
    pub archive: Archive,
    /// Operation statistics (Table 2).
    pub stats: HistoryStats,
}

/// Runs the update scenarios against the version-0 data. The scenario
/// loop's state (two tables' current versions) is dropped with the run.
pub fn generate_history(data: &TpchData, config: &HistoryConfig) -> History {
    scenario::run(data, config)
}

/// [`generate_history`], also handing over the full final bitemporal state
/// (current + invalidated versions of every table): the oracle the engines
/// are compared with, and what System D's bulk load reads. It is the
/// archive replayed into a fresh [`GenDb`], which checks on the way that
/// every generated op applies.
pub fn generate_history_with_state(data: &TpchData, config: &HistoryConfig) -> (History, GenDb) {
    let history = generate_history(data, config);
    let db = GenDb::replay(data, &history.archive).expect("every generated op applies");
    (history, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_count_scaling() {
        assert_eq!(HistoryConfig::with_m(1.0).scenarios(), 1_000_000);
        assert_eq!(HistoryConfig::with_m(0.001).scenarios(), 1_000);
        assert_eq!(HistoryConfig::tiny().scenarios(), 500);
        assert_eq!(HistoryConfig::with_m(0.0).scenarios(), 1, "never zero");
    }

    #[test]
    fn a_history_owns_the_archive_and_the_stats_and_no_database() {
        let data = bitempo_dbgen::generate(&bitempo_dbgen::ScaleConfig::tiny());
        let config = HistoryConfig::tiny();
        // Exhaustive on purpose: a third field stops this compiling.
        let History { archive, stats } = generate_history(&data, &config);
        assert_eq!(
            std::mem::size_of::<History>(),
            std::mem::size_of::<Archive>() + std::mem::size_of::<HistoryStats>()
        );
        // The state is the same run's, handed out beside the history.
        let (with_state, db) = generate_history_with_state(&data, &config);
        assert_eq!(archive, with_state.archive);
        assert_eq!(stats.scenario_counts, with_state.stats.scenario_counts);
        assert_eq!(db.now().0, 1 + archive.transactions.len() as u64);
    }

    /// The validity check the scenario loop no longer makes for the tables
    /// it does not keep: every op of the archive applies to the full state,
    /// at two scales. A poisoned op does not.
    #[test]
    fn replaying_the_archive_into_a_full_state_applies_every_op() {
        use bitempo_core::{AppDate, Error, Key, Period};
        use bitempo_dbgen::ScaleConfig;
        for (scale, config) in [
            (ScaleConfig::tiny(), HistoryConfig::tiny()),
            (ScaleConfig::with_h(0.002), HistoryConfig::with_m(0.002)),
        ] {
            let data = bitempo_dbgen::generate(&scale);
            let mut archive = generate_history(&data, &config).archive;
            let db = GenDb::replay(&data, &archive).expect("every op applies");
            assert_eq!(db.now().0, 1 + archive.transactions.len() as u64);
            let lineitem = db.table_index("lineitem").unwrap();
            assert!(db.invalidated_len(lineitem) > 0, "cancelled orders' lines");

            let last = archive.transactions.len() - 1;
            archive.transactions[last].ops.push(Op::OverwriteApp {
                table: 4,
                key: Key::int(i64::MAX),
                period: Period::new(AppDate(0), AppDate::MAX),
            });
            let err = GenDb::replay(&data, &archive).unwrap_err();
            assert!(matches!(err, Error::KeyNotFound(_)), "{err:?}");
        }
    }
}
