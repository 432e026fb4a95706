//! The sharded cluster: a hash-partitioned set of engines behind one
//! router and one commit-timestamp oracle.
//!
//! A [`Cluster`] is the serving layer's [`TxnManager`] coordinating one
//! [`bitempo_txn::Participant`] per shard — an engine and a WAL with its
//! own durability mode — routed by the stable key hash
//! ([`bitempo_workloads::sharding`]). Snapshot pins, first-committer-wins
//! and the commit timestamps live once, in the coordinator; a shard holds
//! no pin and no commit log. What makes the set a *cluster* rather than N
//! databases is the time axis: every commit lands at a timestamp drawn
//! from the shared [`crate::CommitOracle`], and the engines'
//! `advance_clock` seam forces each shard's commit to stamp its versions
//! with exactly that timestamp. Shard-local system time and global time
//! are therefore the same axis, and a cross-shard snapshot is simply every
//! shard read `AS OF` one oracle watermark — byte-identical to the state a
//! single engine would hold after the same serial history.
//!
//! **Write protocol.** A [`Transaction`] buffers checked DML locally. At
//! commit the coordinator routes each op, takes the *commit gate* of every
//! participating shard in ascending shard order (two committers with a key
//! in common always share a shard, hence a gate), validates
//! first-committer-wins against its commit log, draws the global
//! timestamp, and then:
//!
//! * **one participant** — apply, log a stamped commit record, publish. No
//!   coordination needed; a single-shard cluster is a standalone manager
//!   whose clock is the oracle.
//! * **several participants** — two-phase commit over the existing WALs.
//!   Phase one logs a *prepare* record per shard (full op payload, nothing
//!   applied) and waits until every prepare is durable; phase two applies
//!   and logs the *decision* on each shard. An undecided prepare is
//!   presumed aborted by recovery, so a crash anywhere before the first
//!   decision record loses the transaction cleanly, and a crash after it
//!   lets [`crate::recover_cluster`] finish the remaining shards from the
//!   decision evidence.
//!
//! **Lock hierarchy** (outermost first): shard gates (ascending index) →
//! commit log → oracle; each shard's engine and WAL locks nest inside its
//! gate. Durability waits run outside everything except the gates held
//! across the prepare barrier, which is the point of 2PC — and the one
//! deliberate blocking-under-lock site in the workspace.

pub use bitempo_txn::Cut as ClusterRead;

use bitempo_core::{Error, Key, Result, SysTime, TableId};
use bitempo_engine::api::BitemporalEngine;
use bitempo_engine::{build_engine, SystemKind};
use bitempo_txn::{Participant, Transaction, TxnCounters, TxnManager};
use bitempo_wal::{Checkpoint, TxnWal};
use bitempo_workloads::sharding::shard_of;

/// A hash-sharded cluster of engines behind one coordinator. See the module
/// docs for the protocol; see [`Cluster::from_checkpoint`] for the
/// canonical way in.
pub struct Cluster {
    mgr: TxnManager,
}

impl Cluster {
    /// Builds a cluster over standalone managers (one per shard, all over
    /// engines of the same kind holding *disjoint* key partitions of the
    /// same tables), each becoming a participant. The oracle starts from
    /// the newest shard clock, so the first issued timestamp is newer than
    /// anything any shard holds.
    pub fn from_managers(shards: Vec<TxnManager>) -> Result<Cluster> {
        let mgr = TxnManager::sharded(shards, shard_of)?;
        Ok(Cluster { mgr })
    }

    /// Builds a cluster of `wals.len()` shards from one base checkpoint:
    /// the key space is partitioned by the stable hash, each shard's engine
    /// is restored from its partition, and `wals[i]` becomes shard `i`'s
    /// log (with its own durability mode; `None` runs the shard without
    /// durability). Keep the per-shard partitions of the base — from
    /// [`partition_checkpoint`] — if you intend to run recovery later.
    pub fn from_checkpoint(
        kind: SystemKind,
        base: &Checkpoint,
        wals: Vec<Option<TxnWal>>,
    ) -> Result<Cluster> {
        if wals.is_empty() {
            return Err(Error::Invalid("a cluster needs at least one shard".into()));
        }
        let parts = partition_checkpoint(base, wals.len());
        let mut mgrs = Vec::with_capacity(wals.len());
        for (part, wal) in parts.iter().zip(wals) {
            let mut engine = build_engine(kind);
            let ids = part.restore_into(engine.as_mut())?;
            mgrs.push(TxnManager::new(engine, ids, wal)?);
        }
        Cluster::from_managers(mgrs)
    }

    /// Table ids in load order (valid on every shard).
    pub fn table_ids(&self) -> &[TableId] {
        self.mgr.table_ids()
    }

    /// The commit counters.
    pub fn counters(&self) -> &TxnCounters {
        self.mgr.counters()
    }

    /// Shard `i`'s commit clock — at most the oracle watermark, exactly
    /// the last global timestamp that landed on this shard.
    pub fn shard_now(&self, i: usize) -> SysTime {
        self.mgr.participants()[i].now()
    }

    /// Read pins currently registered on the cluster (shards hold none).
    /// Zero once every transaction has resolved — the balance the
    /// consistency suite asserts.
    pub fn active_pins(&self) -> usize {
        self.mgr.active_pins()
    }

    /// The oracle's read watermark: the newest globally consistent
    /// timestamp.
    pub fn read_ts(&self) -> SysTime {
        self.mgr.read_ts()
    }

    /// Shuts the cluster down shard by shard: closes each WAL and returns
    /// every shard's engine, table ids, and durable watermark.
    #[allow(clippy::type_complexity)]
    pub fn close(self) -> Result<Vec<(Box<dyn BitemporalEngine>, Vec<TableId>, u64)>> {
        self.mgr
            .into_participants()
            .into_iter()
            .map(Participant::close)
            .collect()
    }

    /// Begins a cluster transaction pinned at the current read watermark.
    pub fn begin(&self) -> Result<Transaction<'_>> {
        self.mgr.begin()
    }

    /// Opens a read-only snapshot at the current watermark, without a
    /// transaction. The timestamp is captured once; [`ClusterSnapshot::read`]
    /// may be called repeatedly and always sees the same consistent cut.
    pub fn snapshot(&self) -> ClusterSnapshot<'_> {
        ClusterSnapshot {
            cluster: self,
            at: self.mgr.read_ts(),
        }
    }
}

/// Partitions a base checkpoint's versions by the stable key hash into one
/// checkpoint per shard (all carrying the base's clock, relabelled to WAL
/// sequence 0 — they pair with *fresh* per-shard WALs). The partitions are
/// disjoint and their union is the base, which is what makes the sharded
/// cluster byte-equivalent to a single engine over the same history.
pub fn partition_checkpoint(base: &Checkpoint, shards: usize) -> Vec<Checkpoint> {
    let mut out: Vec<Checkpoint> = (0..shards)
        .map(|_| Checkpoint {
            seq: 0,
            now: base.now,
            tables: base
                .tables
                .iter()
                .map(|(def, _)| (def.clone(), Vec::new()))
                .collect(),
        })
        .collect();
    for (ti, (def, versions)) in base.tables.iter().enumerate() {
        for v in versions {
            let key = Key::from_row(&v.row, &def.key);
            out[shard_of(&key, shards)].tables[ti].1.push(v.clone());
        }
    }
    out
}

/// A consistent read point captured from the oracle watermark. Cheap; holds
/// no locks until [`Self::read`].
pub struct ClusterSnapshot<'a> {
    cluster: &'a Cluster,
    at: SysTime,
}

impl ClusterSnapshot<'_> {
    /// The captured global timestamp.
    pub fn at(&self) -> SysTime {
        self.at
    }

    /// Opens the per-shard read guards for this cut. Fails while a shard
    /// is poisoned: it may be missing a decided commit its siblings serve.
    pub fn read(&self) -> Result<ClusterRead<'_>> {
        self.cluster.mgr.read_at(self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recover_cluster, ShardInput};
    use bitempo_core::fault::FaultyWriter;
    use bitempo_core::{AppPeriod, Value};
    use bitempo_engine::api::{AccessPath, AppSpec, SysSpec, TuningConfig};
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_txn::SnapshotView;
    use bitempo_wal::{DurabilityMode, SharedBuf, BODY_OVERHEAD, FRAME_OVERHEAD, WAL_HEADER_LEN};
    use std::sync::atomic::Ordering;

    /// A base checkpoint with keys 0..n committed at SysTime(1).
    fn base_checkpoint(n: i64) -> Checkpoint {
        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).expect("create");
        for k in 0..n {
            engine
                .insert(t, simple_row(k, 10 * k), None)
                .expect("insert");
        }
        engine.commit();
        Checkpoint::capture(engine.as_mut(), &[t], 0).expect("capture")
    }

    fn cluster_with_bufs(shards: usize, n: i64) -> (Cluster, Vec<SharedBuf>) {
        let base = base_checkpoint(n);
        let bufs: Vec<SharedBuf> = (0..shards).map(|_| SharedBuf::new()).collect();
        let wals = bufs
            .iter()
            .map(|b| {
                Some(
                    TxnWal::create(Box::new(b.clone()), DurabilityMode::Strict)
                        .expect("wal create"),
                )
            })
            .collect();
        (
            Cluster::from_checkpoint(SystemKind::A, &base, wals).expect("cluster"),
            bufs,
        )
    }

    /// Two keys in 0..n guaranteed to live on different shards.
    fn split_keys(shards: usize, n: i64) -> (i64, i64) {
        let first = 0;
        let home = shard_of(&Key::int(first), shards);
        for k in 1..n {
            if shard_of(&Key::int(k), shards) != home {
                return (first, k);
            }
        }
        panic!("no key split across {shards} shards in 0..{n}");
    }

    fn current_vals(view: &SnapshotView<'_>, t: TableId) -> Vec<(i64, i64)> {
        let mut rows: Vec<(i64, i64)> = view
            .scan(t, &SysSpec::Current, &AppSpec::All, &[])
            .expect("scan")
            .rows
            .iter()
            .map(|r| match (r.get(0), r.get(1)) {
                (Value::Int(k), Value::Int(v)) => (*k, *v),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let base = base_checkpoint(20);
        let parts = partition_checkpoint(&base, 4);
        let total: usize = parts.iter().map(|p| p.tables[0].1.len()).sum();
        assert_eq!(total, base.tables[0].1.len());
        for p in &parts {
            assert_eq!(p.now, base.now);
            assert_eq!(p.seq, 0);
        }
    }

    #[test]
    fn single_shard_commits_land_at_oracle_timestamps() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let before = cluster.read_ts();

        let mut txn = cluster.begin().expect("begin");
        txn.update(t, &Key::int(0), &[(1, Value::Int(111))], None)
            .expect("update");
        let ts = txn.commit().expect("commit");
        assert_eq!(ts, before.next(), "first commit lands right after the base");
        assert_eq!(cluster.read_ts(), ts, "watermark follows the publish");
        assert_eq!(cluster.counters().single_shard.load(Ordering::Relaxed), 1);

        let read = cluster.snapshot();
        let guards = read.read().expect("read");
        let view = guards.view();
        let vals = current_vals(&view, t);
        assert!(vals.contains(&(0, 111)));
    }

    #[test]
    fn cross_shard_commit_is_atomic_under_the_snapshot() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let (a, b) = split_keys(2, 8);

        let before = cluster.snapshot();
        let mut txn = cluster.begin().expect("begin");
        txn.update(t, &Key::int(a), &[(1, Value::Int(-1))], None)
            .expect("update a");
        txn.update(t, &Key::int(b), &[(1, Value::Int(-2))], None)
            .expect("update b");
        let ts = txn.commit().expect("commit");
        assert_eq!(cluster.counters().cross_shard.load(Ordering::Relaxed), 1);

        // The pre-commit snapshot sees neither write...
        let guards = before.read().expect("read");
        let vals = current_vals(&guards.view(), t);
        assert!(vals.contains(&(a, 10 * a)) && vals.contains(&(b, 10 * b)));
        drop(guards);
        // ...and a post-commit snapshot sees both, at one timestamp.
        let after = cluster.snapshot();
        assert_eq!(after.at(), ts);
        let guards = after.read().expect("read");
        let vals = current_vals(&guards.view(), t);
        assert!(vals.contains(&(a, -1)) && vals.contains(&(b, -2)));
        // Both shards landed the same commit time.
        assert_eq!(cluster.shard_now(0), ts);
        assert_eq!(cluster.shard_now(1), ts);
    }

    /// Each member of a cut decides its own current-partition gate: a cut
    /// taken right after a shard-0 commit may read shard 0's current
    /// partition, but shard 1, which commits past the cut, must answer
    /// `Current` as of the pin.
    #[test]
    fn each_member_decides_its_own_current_gate() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let on = |s| {
            (0..8)
                .find(|k| shard_of(&Key::int(*k), 2) == s)
                .expect("a key on the shard")
        };
        let (a, b) = (on(0), on(1));
        let commit = |k: i64, v: i64| {
            let mut txn = cluster.begin().expect("begin");
            txn.update(t, &Key::int(k), &[(1, Value::Int(v))], None)
                .expect("update");
            txn.commit().expect("commit")
        };

        let old = cluster.snapshot();
        let ts_a = commit(a, -1);
        let mid = cluster.snapshot();
        commit(b, -2);
        assert_eq!(cluster.counters().single_shard.load(Ordering::Relaxed), 2);
        assert_eq!((mid.at(), cluster.shard_now(0)), (ts_a, ts_a));

        let guards = old.read().expect("read");
        let vals = current_vals(&guards.view(), t);
        assert!(
            vals.contains(&(a, 10 * a)) && vals.contains(&(b, 10 * b)),
            "{vals:?}"
        );
        drop(guards);
        let guards = mid.read().expect("read");
        let vals = current_vals(&guards.view(), t);
        assert!(
            vals.contains(&(a, -1)) && vals.contains(&(b, 10 * b)),
            "{vals:?}"
        );
    }

    /// A cluster scan reports the most specific access path across every
    /// shard's partitions, as one engine's scan does across its own.
    #[test]
    fn cluster_scan_reports_the_merged_access_path() {
        let (cluster, _bufs) = cluster_with_bufs(4, 32);
        let t = cluster.table_ids()[0];
        let snap = cluster.snapshot();
        let guards = snap.read().expect("read");
        let out = guards
            .view()
            .scan(t, &SysSpec::Current, &AppSpec::All, &[])
            .expect("scan");
        assert_eq!(out.rows.len(), 32);
        assert_eq!(
            out.partition_paths,
            vec![AccessPath::FullScan { partitions: 1 }; 4]
        );
        assert_eq!(out.access, AccessPath::FullScan { partitions: 4 });
    }

    #[test]
    fn cluster_first_committer_wins_across_shards() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let (a, b) = split_keys(2, 8);

        let mut first = cluster.begin().expect("begin");
        let mut second = cluster.begin().expect("begin");
        // Both write key `a`; `first` also writes `b` so it runs 2PC.
        first
            .update(t, &Key::int(a), &[(1, Value::Int(1))], None)
            .expect("update");
        first
            .update(t, &Key::int(b), &[(1, Value::Int(2))], None)
            .expect("update");
        second
            .update(t, &Key::int(a), &[(1, Value::Int(3))], None)
            .expect("update");
        first.commit().expect("first commits");
        match second.commit() {
            Err(Error::Conflict(_)) => {}
            other => panic!("expected a conflict, got {other:?}"),
        }
        assert_eq!(cluster.counters().conflicts.load(Ordering::Relaxed), 1);
        assert_eq!(cluster.active_pins(), 0, "all pins released");
    }

    /// Shards are commit participants: no cluster commit pins a shard —
    /// first-committer-wins ran once, against the coordinator's log.
    #[test]
    fn cluster_commits_take_no_shard_pins() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let (a, b) = split_keys(2, 8);
        let mut single = cluster.begin().expect("begin");
        assert_eq!(cluster.active_pins(), 1);
        single
            .update(t, &Key::int(a), &[(1, Value::Int(1))], None)
            .expect("update");
        single.commit().expect("single-shard commit");
        assert_eq!(cluster.active_pins(), 0);
        let mut cross = cluster.begin().expect("begin");
        assert_eq!(cluster.active_pins(), 1);
        for k in [a, b] {
            cross
                .update(t, &Key::int(k), &[(1, Value::Int(2))], None)
                .expect("update");
        }
        cross.commit().expect("cross-shard commit");
        let c = cluster.counters();
        assert_eq!(c.single_shard.load(Ordering::Relaxed), 1);
        assert_eq!(c.cross_shard.load(Ordering::Relaxed), 1);
        // A shard has no pin registry at all: the two transactions' pins
        // are the coordinator's, one each, and both were released.
        assert_eq!(cluster.active_pins(), 0);
    }

    /// A preflight failure — a key absent from its shard — aborts the whole
    /// commit, whether it fails a cross-shard prepare or the single
    /// participant's commit: nothing applies anywhere, the ghost's shard
    /// logs nothing, and the next commit still lands.
    #[test]
    fn failed_cross_shard_commit_applies_nowhere() {
        let a = 0;
        let ghost = (8..1000)
            .find(|k| shard_of(&Key::int(*k), 2) != shard_of(&Key::int(a), 2))
            .expect("ghost key");
        let owner = shard_of(&Key::int(ghost), 2);
        for cross_shard in [true, false] {
            let (cluster, bufs) = cluster_with_bufs(2, 8);
            let t = cluster.table_ids()[0];
            let (before, logged) = (cluster.read_ts(), bufs[owner].snapshot().len());
            let mut txn = cluster.begin().expect("begin");
            if cross_shard {
                txn.update(t, &Key::int(a), &[(1, Value::Int(-5))], None)
                    .expect("update");
            }
            txn.update(t, &Key::int(ghost), &[(1, Value::Int(0))], None)
                .expect("update");
            match txn.commit() {
                Err(Error::KeyNotFound(_)) => {}
                other => panic!("expected KeyNotFound, got {other:?}"),
            }
            assert_eq!(bufs[owner].snapshot().len(), logged, "the ghost was logged");
            for i in 0..2 {
                assert_eq!(cluster.shard_now(i), before, "shard {i} applied");
            }
            let snap = cluster.snapshot();
            let guards = snap.read().expect("read");
            assert!(current_vals(&guards.view(), t).contains(&(a, 10 * a)));
            drop(guards);
            let mut txn = cluster.begin().expect("begin");
            txn.update(t, &Key::int(a), &[(1, Value::Int(7))], None)
                .expect("update");
            txn.commit().expect("commit after abort");
            assert_eq!(cluster.active_pins(), 0, "all pins released");
        }
    }

    /// Each shard's WAL, byte for byte (CRC-32 and length), after a fixed
    /// single-threaded script on a 2-shard strict cluster: one single-shard
    /// commit, one cross-shard commit, and one cross-shard transaction
    /// whose shard-1 key is missing, so shard 0 logs a prepare and then an
    /// abort decision while shard 1 logs nothing for it.
    #[test]
    fn shard_wal_bytes_are_pinned() {
        let (cluster, bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let on = |shard: usize, keys: std::ops::Range<i64>| {
            keys.into_iter()
                .find(|k| shard_of(&Key::int(*k), 2) == shard)
                .expect("a key on the shard")
        };
        let (a, b, ghost) = (on(0, 0..8), on(1, 0..8), on(1, 8..1000));
        let write = |keys: &[i64], v: i64| {
            let mut txn = cluster.begin().expect("begin");
            for k in keys {
                txn.update(t, &Key::int(*k), &[(1, Value::Int(v))], None)
                    .expect("update");
            }
            txn.commit()
        };
        write(&[a], 100).expect("single-shard commit");
        write(&[a, b], 200).expect("cross-shard commit");
        match write(&[a, ghost], 300) {
            Err(Error::KeyNotFound(_)) => {}
            other => panic!("expected KeyNotFound, got {other:?}"),
        }
        drop(cluster.close().expect("close"));
        let pins: Vec<(u32, usize)> = bufs
            .iter()
            .map(|b| {
                let bytes = b.snapshot();
                (bitempo_core::crc32(&bytes), bytes.len())
            })
            .collect();
        // Shard 0: commit-at, prepare + commit decision, prepare + abort
        // decision (5 records); shard 1: prepare + commit decision. Each
        // prepare and decision once carried a second 8 B copy of its `gts`
        // as a transaction id; dropping it shrank shard 0 by 4 × 8 = 32 B
        // (306 → 274) and shard 1 by 2 × 8 = 16 B (124 → 108).
        assert_eq!(pins, [(0xAD1D_2456, 274), (0x432F_9121, 108)]);
    }

    #[test]
    fn lookup_routes_to_the_owning_shard() {
        let (cluster, _bufs) = cluster_with_bufs(4, 32);
        let t = cluster.table_ids()[0];
        let snap = cluster.snapshot();
        let guards = snap.read().expect("read");
        let view = guards.view();
        for k in 0..32 {
            let out = view
                .lookup_key(t, &Key::int(k), &SysSpec::Current, &AppSpec::All)
                .expect("lookup");
            assert_eq!(out.rows.len(), 1, "key {k}");
        }
    }

    #[test]
    fn decided_commit_with_a_failed_shard_still_publishes_and_waits() {
        let base = base_checkpoint(8);
        let parts = partition_checkpoint(&base, 2);
        let k0 = (0..8)
            .find(|k| shard_of(&Key::int(*k), 2) == 0)
            .expect("a key on shard 0");
        let k1 = (0..8)
            .find(|k| shard_of(&Key::int(*k), 2) == 1)
            .expect("a key on shard 1");
        // Predict shard 1's prepare record byte-for-byte so the fault cuts
        // its log exactly at the record boundary: the prepare lands whole,
        // the decision submit that follows fails. The base commits at 1,
        // so the first oracle timestamp is 2.
        let gts = 2u64;
        let prepare = bitempo_wal::encode_prepare(
            gts,
            &bitempo_histgen::Transaction {
                scenarios: Vec::new(),
                ops: vec![bitempo_histgen::Op::Update {
                    table: 0,
                    key: Key::int(k1),
                    updates: vec![(1, Value::Int(-2))],
                    portion: None,
                }],
            },
        )
        .expect("encode");
        let cut = (WAL_HEADER_LEN + FRAME_OVERHEAD + BODY_OVERHEAD + prepare.len()) as u64;
        let buf0 = SharedBuf::new();
        let buf1 = SharedBuf::new();
        let wals = vec![
            Some(TxnWal::create(Box::new(buf0.clone()), DurabilityMode::Strict).expect("wal")),
            Some(
                TxnWal::create(
                    Box::new(FaultyWriter::new(buf1.clone(), cut)),
                    DurabilityMode::Strict,
                )
                .expect("wal"),
            ),
        ];
        let cluster = Cluster::from_checkpoint(SystemKind::A, &base, wals).expect("cluster");
        let t = cluster.table_ids()[0];

        let mut txn = cluster.begin().expect("begin");
        txn.update(t, &Key::int(k0), &[(1, Value::Int(-1))], None)
            .expect("update");
        txn.update(t, &Key::int(k1), &[(1, Value::Int(-2))], None)
            .expect("update");
        let err = txn
            .commit()
            .expect_err("shard 1's decision submit must fail");
        assert!(matches!(err, Error::Internal(_)), "{err:?}");
        // Shard 0 decided: the transaction stands globally — the watermark
        // and commit log reflect it, shard 0 holds the effects, and its
        // durability wait was honored before commit() returned.
        assert_eq!(cluster.read_ts(), SysTime(gts));
        assert_eq!(cluster.shard_now(0), SysTime(gts));
        assert_eq!(cluster.active_pins(), 0, "all pins released");
        // ...but reads fail-stop on the poisoned straggler until recovery.
        assert!(cluster.snapshot().read().is_err());

        // Recovery from the durable remains converges the straggler: shard
        // 0's decision record finishes shard 1's prepared-but-undecided
        // half at the original global timestamp.
        drop(cluster);
        let inputs = vec![
            ShardInput {
                wal: buf0.snapshot(),
                checkpoints: vec![parts[0].encode()],
            },
            ShardInput {
                wal: buf1.snapshot(),
                checkpoints: vec![parts[1].encode()],
            },
        ];
        let rec = recover_cluster(SystemKind::A, &inputs, &TuningConfig::none()).expect("recover");
        assert_eq!(rec.committed_pending, vec![(1, gts)]);
        assert!(rec.degraded.is_empty());
        assert_eq!(rec.consistent_prefix(), SysTime(gts));
    }

    /// Malformed DML fails when it is buffered, with the error a
    /// `Transaction` gives — not at commit, after gates are taken and
    /// participants called — and the rejection costs nothing: the
    /// same transaction still commits, and every pin is released.
    #[test]
    fn malformed_dml_is_rejected_at_buffer_time() {
        use bitempo_core::AppDate;
        let mut engine = build_engine(SystemKind::A);
        let t = engine.create_table(bitemp_table("t")).expect("create");
        let p = engine
            .create_table(bitempo_engine::testutil::plain_table("p"))
            .expect("create");
        for k in 0..4 {
            engine.insert(t, simple_row(k, k), None).expect("insert");
            engine.insert(p, simple_row(k, k), None).expect("insert");
        }
        engine.commit();
        let base = Checkpoint::capture(engine.as_mut(), &[t, p], 0).expect("capture");
        let cluster =
            Cluster::from_checkpoint(SystemKind::A, &base, vec![None, None]).expect("cluster");

        let empty = AppPeriod::new(AppDate(7), AppDate(7));
        let some = AppPeriod::new(AppDate(0), AppDate(10));
        let key = Key::int(0);
        let mut txn = cluster.begin().expect("begin");
        assert!(matches!(
            txn.update(t, &key, &[(7, Value::Int(0))], None),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            txn.update(p, &key, &[(1, Value::Int(0))], Some(some)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            txn.delete(p, &key, Some(some)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            txn.overwrite_app_period(t, &key, empty),
            Err(Error::EmptyPeriod(_))
        ));
        assert!(matches!(
            txn.overwrite_app_period(p, &key, some),
            Err(Error::Unsupported(_))
        ));
        assert_eq!(cluster.active_pins(), 1, "only the cluster's own read pin");

        txn.update(t, &key, &[(1, Value::Int(5))], None)
            .expect("update");
        txn.commit().expect("the rejections buffered nothing");
        assert_eq!(cluster.active_pins(), 0, "all pins released");
        assert_eq!(cluster.counters().single_shard.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn one_shard_cluster_degenerates_to_the_serving_layer() {
        let (cluster, _bufs) = cluster_with_bufs(1, 4);
        let t = cluster.table_ids()[0];
        let mut txn = cluster.begin().expect("begin");
        txn.insert(t, simple_row(100, 1), None).expect("insert");
        txn.update(t, &Key::int(0), &[(1, Value::Int(5))], None)
            .expect("update");
        let ts = txn.commit().expect("commit");
        assert_eq!(cluster.counters().single_shard.load(Ordering::Relaxed), 1);
        assert_eq!(cluster.shard_now(0), ts);
    }
}
