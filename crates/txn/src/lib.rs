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
//! the system time `T` of the latest published commit at
//! [`TxnManager::begin`], and
//! every read translates its system-time specification so only versions
//! committed at or before `T` are visible (`AS OF T` is the snapshot).
//!
//! **Concurrency model.** A [`std::sync::RwLock`] guards each engine and
//! nothing else: snapshot reads share it, a committing writer takes it
//! exclusively for the short *preflight → apply → commit* critical
//! section. Readers therefore never observe a partially applied
//! transaction: between commits there is no pending state at all, and
//! during one the writer holds the lock exclusively. The participant's
//! commit gate, a [`std::sync::Mutex`] held from validation through
//! publish, owns its WAL and orders the log: the record is submitted under
//! the gate once the state lock is released, so WAL order is commit order
//! and a submit queued behind another committer's fsync never holds a
//! reader up. Writes are
//! buffered in the [`Transaction`], so the writer's exclusive window is
//! proportional to the write set, never to the user's think time; the
//! expensive part of commit — waiting for group-commit durability — happens
//! *after* every lock is released, so concurrent committers amortize one
//! fsync ([`bitempo_wal::DurabilityWaiter`]).
//!
//! **Durable-log agreement.** Buffered ops are validated against the
//! cached [`bitempo_core::TableDef`] as they are buffered (arity, temporal
//! class, empty periods, column bounds), so every deterministic apply
//! failure surfaces before commit even starts. At commit the ops are *applied first and
//! logged after*, still under the commit gate: a WAL record
//! therefore always describes a transaction that fully applied, which is
//! what lets [`bitempo_wal::recover`](fn@bitempo_wal::recover) replay every logged record. In both
//! failure directions the durable log and the reported outcome agree — a
//! failed apply logs nothing, and an append failure after apply poisons
//! the participant without a record, so recovery never resurrects a
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
//! **One commit path.** A [`TxnManager`] is one coordinator over `n ≥ 1`
//! [`Participant`]s plus a key router. The coordinator alone owns the
//! snapshot pins, the [`CommitLog`] (first-committer-wins, run once per
//! commit), the commit timestamps and one [`TxnCounters`]; a participant
//! owns only its engine, its WAL and the private pipeline that lands a
//! validated write set (*preflight → apply → engine commit*, then the WAL
//! submit). There is one client [`Transaction`] type. A standalone
//! manager ([`TxnManager::new`]) is the one-participant case: its commits
//! land at the engine's own next commit time with the plain archive
//! record. A sharded cluster ([`TxnManager::sharded`]) draws timestamps
//! from a [`CommitOracle`]: a commit that touches one participant logs a
//! stamped record there, and one that touches several runs two-phase
//! commit. Every write enters through a buffer-time-checked op, whichever
//! front-end buffered it.
//!
//! **One read view.** [`SnapshotView`] is the only pinned read surface: it
//! borrows a non-empty slice of [`Snapshot`]s pinned at one time and a key
//! router. [`Snapshot::view`] is the one-member case; a [`Cut`] holds one
//! snapshot per participant. Each member translates the system-time
//! specification against its own watermark, scans concatenate the members'
//! outputs, and key lookups go to the routed member.
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
mod oracle;
mod participant;
mod prepared;
mod snapshot;
mod transaction;

#[cfg(test)]
mod tests;

pub use commit_log::{CommitLog, WriteEntry};
pub use manager::{TxnCounters, TxnManager};
pub use oracle::CommitOracle;
pub use participant::Participant;
pub use snapshot::{Cut, Snapshot, SnapshotView};
pub use transaction::Transaction;
