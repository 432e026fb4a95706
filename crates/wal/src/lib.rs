//! # bitempo-wal
//!
//! The durability subsystem: a write-ahead log of committed transactions,
//! periodic engine checkpoints, and a crash-recovery path that restores any
//! engine to a state equivalent to an uncrashed run.
//!
//! The paper benchmarks systems whose durability cost is baked into every
//! commit; to reproduce that trade-off honestly the benchmark needs its own
//! log. The split of responsibilities:
//!
//! * **`bitempo-storage::wal`** owns the byte format (record framing,
//!   checksums, torn-tail scan) — shared vocabulary, no I/O;
//! * [`sink`] abstracts *where* bytes go ([`sink::WalSink`]: a file, a
//!   shared in-memory buffer for tests, a fault-injecting writer);
//! * [`log`] owns *when* bytes become durable ([`log::TxnWal`]): `fsync`
//!   per commit (`dur_strict`), a group-commit flusher thread
//!   (`dur_batched_Nms`), or never until close (`dur_async`);
//! * [`checkpoint`] serializes a quiesced engine's full version set so
//!   recovery never replays the whole history;
//! * [`recover`](mod@recover) ties it together: the [`recover::durable_replay`] driver
//!   appends each committed transaction to the WAL and checkpoints on a
//!   fixed cadence, and [`recover::recover`] rebuilds an engine from the
//!   newest valid checkpoint plus the WAL tail, truncating at the first
//!   torn or corrupt record.
//!
//! Fault injection reuses [`bitempo_core::fault`]: wrapping the sink in a
//! `FaultyWriter` simulates a crash at an arbitrary byte of the log, and
//! the recovery tests assert the recovered engine answers all five query
//! classes identically to an uncrashed oracle replay of the same prefix.

// Tests may unwrap freely; production durability code must not (tblint
// TB010 for lock results, `clippy::unwrap_used` in Cargo.toml for the rest).
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod checkpoint;
pub mod log;
pub mod record;
pub mod recover;
pub mod sink;

// The byte format's vocabulary, re-exported so that nothing above this crate
// imports `bitempo_storage::wal` directly.
pub use bitempo_storage::wal::{
    scan, DurabilityMode, BODY_OVERHEAD, FRAME_OVERHEAD, WAL_HEADER_LEN,
};
pub use checkpoint::Checkpoint;
pub use log::{DurabilityWaiter, TxnWal};
pub use record::{
    decode_payload, encode_committed_at, encode_decision, encode_prepare, WalPayload,
};
pub use recover::{
    canonical_state, durable_replay, oracle_replay, recover, DurableOptions, DurableRun,
    PendingPrepare, Recovered, RecoveryReport,
};
pub use sink::{NullSink, SharedBuf, WalSink};
