//! # bitempo-txn
//!
//! The MVCC serving layer: interactive snapshot transactions over any of
//! the four engines, with first-committer-wins conflict detection and
//! WAL-backed durability.
//!
//! The paper benchmarks single-threaded query streams, but its "ready for
//! the future" question is about serving concurrent mixed workloads. The
//! engines already are version stores ordered by commit time, so snapshot
//! isolation falls out of the bitemporal model itself: a transaction pins
//! the system time `T` of the latest commit at [`TxnManager::begin`], and
//! every read translates its system-time specification so only versions
//! committed at or before `T` are visible (`AS OF T` is the snapshot).
//!
//! **Concurrency model.** A [`std::sync::RwLock`] guards the engine:
//! snapshot reads share it, a committing writer takes it exclusively for
//! the short *validate → apply → log → commit* critical section — the
//! atomic publish point. Readers therefore never observe a partially
//! applied transaction: between commits there is no pending state at all,
//! and during one the writer holds the lock exclusively. Writes are
//! buffered in the [`Transaction`], so the writer's exclusive window is
//! proportional to the write set, never to the user's think time; the
//! expensive part of commit — waiting for group-commit durability — happens
//! *after* the lock is released, so concurrent committers amortize one
//! fsync ([`bitempo_wal::DurabilityWaiter`]).
//!
//! **Durable-log agreement.** Buffered ops are validated against the
//! cached [`bitempo_core::TableDef`] as they are buffered (arity, temporal
//! class, empty periods, column bounds), so every deterministic apply
//! failure surfaces before commit even starts. At commit the ops are *applied first and
//! logged after*, still inside the exclusive section: a WAL record
//! therefore always describes a transaction that fully applied, which is
//! what lets [`bitempo_wal::recover`](fn@bitempo_wal::recover) replay every logged record. In both
//! failure directions the durable log and the reported outcome agree — a
//! failed apply logs nothing, and an append failure after apply poisons
//! the manager without a record, so recovery never resurrects a
//! transaction whose commit returned an error.
//!
//! **First-committer-wins.** Each buffered write contributes a
//! `(table, key, application-period)` entry to the transaction's write
//! set. Commit validation scans the records of transactions that committed
//! after the snapshot was pinned; any entry with the same table and key
//! whose application period overlaps aborts the committer with
//! [`bitempo_core::Error::Conflict`] before anything is logged or applied.
//! The caller re-runs the transaction against a fresh snapshot.
//!
//! **One pipeline.** Every path that publishes — [`Transaction::commit`],
//! the cluster's stamped [`Transaction::commit_at`], and the two-phase
//! [`PreparedTxn::commit`] — runs the same private pipeline in `manager`,
//! differing only in the WAL record it submits; the conflict rule lives
//! once in [`CommitLog`], which a sharded cluster reuses for its own
//! cross-shard log; and every write enters through [`CheckedOp`] into an
//! [`OpBuffer`], whichever facade buffered it.
//!
//! **Snapshot contract.** A pinned snapshot guarantees the *row set*: every
//! read returns exactly the rows of the commit-prefix state at `T`. The
//! rendered system-period end of a version closed after `T` reflects the
//! later close (the engines store one period per version); row visibility
//! is unaffected, which is the isolation property the oracle tests check.

// Tests may unwrap freely; production serving-layer code must not (tblint
// TB010 for lock results, `clippy::unwrap_used` in Cargo.toml for the rest).
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod commit_log;
mod manager;
mod prepared;
mod snapshot;
mod transaction;

#[cfg(test)]
mod tests;

pub use commit_log::{CommitLog, WriteEntry};
pub use manager::{CommitWait, TxnCounters, TxnManager};
pub use prepared::PreparedTxn;
pub use snapshot::{Snapshot, SnapshotView};
pub use transaction::{CheckedOp, OpBuffer, Transaction};
