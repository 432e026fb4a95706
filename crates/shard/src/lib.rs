//! Hash-sharded bitemporal cluster: N engines behind one router and one
//! commit-timestamp oracle.
//!
//! The paper benchmarks single-node bitemporal engines; this crate asks
//! the follow-on scaling question: does the serving layer's throughput
//! scale when the key space is hash-partitioned across shards, each with
//! its own engine and write-ahead log — *without* giving up globally
//! consistent snapshots?
//!
//! The pieces:
//!
//! * [`cluster::Cluster`] — the serving layer's one coordinator
//!   ([`bitempo_txn::TxnManager`]) over one participant per shard, with
//!   timestamps from a [`CommitOracle`]: single-key DML commits on its
//!   owning shard alone; multi-shard transactions run two-phase commit
//!   over the shards' existing WALs with presumed-abort recovery
//!   semantics. The oracle issues globally unique commit timestamps and
//!   publishes the read watermark at which a cross-shard snapshot is a
//!   consistent prefix of the global commit order.
//! * [`recover_cluster`] — per-shard crash recovery plus cross-shard
//!   resolution of undecided prepares against the union of durable commit
//!   decisions.
//!
//! Reads need no cluster-specific adapter: a [`ClusterRead`] holds one
//! shard snapshot per shard at one oracle timestamp, and its
//! [`ClusterRead::view`] is the serving layer's own
//! [`bitempo_txn::SnapshotView`] over them, routed by
//! [`bitempo_workloads::sharding::shard_of`].
//!
//! Because every commit lands at exactly its oracle timestamp (via the
//! engines' `advance_clock` seam), a sharded cluster's history is
//! byte-identical — per key, per timestamp, for all five query classes —
//! to a single engine executing the same transactions serially. The
//! cross-shard consistency suite in `tests/` asserts precisely that.

// Tests may unwrap freely; production coordination code must not (tblint
// TB010 for lock results, `clippy::unwrap_used` in Cargo.toml for the rest).
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cluster;
pub mod recover;

pub use bitempo_txn::CommitOracle;
pub use cluster::{partition_checkpoint, Cluster, ClusterRead, ClusterSnapshot};
pub use recover::{recover_cluster, ClusterRecovered, ShardInput};
