//! # bitempo-engine
//!
//! Four bitemporal storage engines behind one trait, each reproducing the
//! *architecture archetype* of one of the anonymized systems in the paper
//! (§2, §5.2). The logical bitemporal model is implemented once, by the
//! [`Engine`] shell ([`shell`]): validation, sequenced DML, the commit
//! clock, key lookups and the scan driver that runs every partition through
//! the one planner-and-executor in [`rowscan`]. The four engines are that
//! shell over four [`TableLayout`]s and differ only in physical design:
//!
//! | Engine | Archetype | Physical design |
//! |---|---|---|
//! | [`SystemA`] | native bitemporal row store | current + history heap, instant history writes, auto PK index on current |
//! | [`SystemB`] | row store with vertically partitioned temporal metadata | current value/temporal split (merge-joined at scan), undo-log staging, rich history metadata |
//! | [`SystemC`] | in-memory column store, system time only | delta/main columnar partitions, snapshot recompute, B-Tree tuning accepted but never built |
//! | [`SystemD`] | non-temporal RDBMS, simulated periods | single heap, manual timestamps + bulk load, B-Tree and GiST (R-Tree) indexes |
//!
//! The observation the paper leads with — *"all systems store their data in
//! regular, statically partitioned tables and rely on standard indexes as
//! well as query rewrites"* — is the design rule for this crate: a layout
//! says where versions live, which structure resolves a key's open
//! versions, which partitions and indexes a scan may use and what a
//! checkpoint reorganizes, and nothing else.

// Tests may unwrap freely; production engine code must not (TB004, and
// `clippy::unwrap_used` in Cargo.toml as the compiler-level backstop).
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod api;
pub mod catalog;
pub mod index;
pub mod morsel;
mod partindex;
pub mod rowscan;
pub mod sequenced;
pub mod shell;
pub mod system_a;
pub mod system_b;
pub mod system_c;
pub mod system_d;
pub mod testutil;
pub mod version;

pub use api::{
    AccessPath, AppSpec, BitemporalEngine, ColRange, KeyStructuresFootprint, ScanOutput, SysSpec,
    TableStats, TuningConfig,
};
pub use catalog::Catalog;
pub use morsel::ScanMetrics;
pub use shell::{Engine, TableLayout};
pub use system_a::SystemA;
pub use system_b::SystemB;
pub use system_c::SystemC;
pub use system_d::SystemD;
pub use version::Version;

/// Which engine archetype to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Native bitemporal row store (instant history writes).
    A,
    /// Row store with vertical temporal partitioning and undo-log staging.
    B,
    /// In-memory column store (delta/main), system time only.
    C,
    /// Non-temporal row store with simulated periods.
    D,
}

impl SystemKind {
    /// All four archetypes, in paper order.
    pub const ALL: [SystemKind; 4] = [SystemKind::A, SystemKind::B, SystemKind::C, SystemKind::D];

    /// Anonymized display name, as in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::A => "System A",
            SystemKind::B => "System B",
            SystemKind::C => "System C",
            SystemKind::D => "System D",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiates an engine of the given archetype.
pub fn build_engine(kind: SystemKind) -> Box<dyn BitemporalEngine> {
    match kind {
        SystemKind::A => Box::new(SystemA::new()),
        SystemKind::B => Box::new(SystemB::new()),
        SystemKind::C => Box::new(SystemC::new()),
        SystemKind::D => Box::new(SystemD::new()),
    }
}

#[cfg(test)]
mod open_slots_tests;
#[cfg(test)]
mod slack_tests;
