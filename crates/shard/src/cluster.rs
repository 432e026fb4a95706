//! The sharded cluster: a hash-partitioned set of independent serving
//! layers behind one router and one commit-timestamp oracle.
//!
//! Each shard is a full PR 8 stack — its own engine, [`TxnManager`], and
//! WAL with its own durability mode — that the cluster drives as a commit
//! *participant*, never through a shard-level transaction: snapshot pins
//! and first-committer-wins live once, in the cluster. What makes the set
//! a *cluster* rather than N databases is the time axis: every commit
//! lands at a timestamp drawn from the shared [`CommitOracle`], and the
//! engines' `advance_clock` seam forces the shard's commit to stamp its
//! versions with exactly that timestamp. Shard-local system time and
//! global time are therefore the same axis, and a cross-shard snapshot is
//! simply every shard read `AS OF` one oracle watermark — byte-identical
//! to the state a single engine would hold after the same serial history.
//!
//! **Write protocol.** A [`ClusterTxn`] buffers DML locally, routing each
//! statement by the stable key hash ([`bitempo_workloads::sharding`]). At
//! commit it takes the *commit gate* of every participating shard in
//! ascending shard order (two committers with a key in common always share
//! a shard, hence a gate), validates first-committer-wins against the
//! cluster commit log, draws the global timestamp, and then:
//!
//! * **one participant** — [`TxnManager::commit_at`]: apply, log a
//!   stamped commit record, publish. No coordination needed; a
//!   single-shard cluster degenerates to PR 8 plus one atomic increment.
//! * **several participants** — two-phase commit over the existing WALs
//!   ([`TxnManager::prepare`], then [`PreparedTxn::commit`]).
//!   Phase one logs a *prepare* record per shard (full op payload, nothing
//!   applied) and waits until every prepare is durable; phase two applies
//!   and logs the *decision* on each shard. An undecided prepare is
//!   presumed aborted by recovery, so a crash anywhere before the first
//!   decision record loses the transaction cleanly, and a crash after it
//!   lets [`crate::recover_cluster`] finish the remaining shards from the
//!   decision evidence.
//!
//! **Lock hierarchy** (outermost first): shard gates (ascending index) →
//! cluster `commit_log` → oracle. The per-shard `TxnManager` locks nest
//! strictly inside a gate, and a shard's own `commit_log` is never taken:
//! [`Cluster::from_managers`] takes the managers by value, so no
//! shard-level `Transaction` can exist beside the cluster's. Durability
//! waits run outside everything except the gates held across the prepare
//! barrier, which is the point of 2PC — and the one deliberate
//! blocking-under-lock site in the workspace.

use crate::oracle::CommitOracle;
use bitempo_core::{AppPeriod, Error, Key, Result, Row, SysTime, TableDef, TableId, Value};
use bitempo_engine::api::BitemporalEngine;
use bitempo_engine::{build_engine, SystemKind};
use bitempo_txn::{
    CheckedOp, CommitLog, CommitWait, OpBuffer, PreparedTxn, Snapshot, SnapshotView, TxnManager,
    WriteEntry,
};
use bitempo_wal::{Checkpoint, TxnWal};
use bitempo_workloads::sharding::shard_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One shard: a serving layer plus its commit gate. The gate serializes
/// commits *to this shard only* — it is held from validation through
/// publish (and across the 2PC prepare barrier), so a shard's WAL never
/// interleaves one transaction's prepare with another's records.
struct Shard {
    mgr: TxnManager,
    gate: Mutex<()>,
}

/// Monotonic counters for the `sharding` experiment's series.
#[derive(Debug, Default)]
pub struct ClusterCounters {
    /// Cluster transactions committed (including read-only).
    pub committed: AtomicU64,
    /// Commits that routed to exactly one shard (the fast path).
    pub single_shard: AtomicU64,
    /// Commits that ran two-phase commit across several shards.
    pub cross_shard: AtomicU64,
    /// Read-only commits (no participants, no timestamp drawn).
    pub read_only: AtomicU64,
    /// Transactions aborted by cluster-level first-committer-wins.
    pub conflicts: AtomicU64,
}

/// A hash-sharded cluster of serving layers. See the module docs for the
/// protocol; see [`Cluster::from_checkpoint`] for the canonical way in.
pub struct Cluster {
    shards: Vec<Shard>,
    oracle: CommitOracle,
    /// The cluster-level first-committer-wins log (timestamps are oracle
    /// issued) and the read pins that floor its pruning.
    commit_log: Mutex<CommitLog>,
    counters: ClusterCounters,
}

impl Cluster {
    /// Builds a cluster over pre-built serving layers (one per shard, all
    /// over engines of the same kind holding *disjoint* key partitions of
    /// the same tables). The oracle starts from the newest shard clock, so
    /// the first issued timestamp is newer than anything any shard holds.
    pub fn from_managers(shards: Vec<TxnManager>) -> Result<Cluster> {
        let first = shards
            .first()
            .ok_or_else(|| Error::Invalid("a cluster needs at least one shard".into()))?;
        // One table layout on every shard is what lets one `TableId` —
        // and one checked op — address all of them.
        for (i, s) in shards.iter().enumerate() {
            if s.table_ids() != first.table_ids() {
                return Err(Error::Invalid(format!(
                    "shard {i} disagrees with shard 0 on table layout"
                )));
            }
        }
        let start = shards
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(SysTime::ZERO);
        Ok(Cluster {
            shards: shards
                .into_iter()
                .map(|mgr| Shard {
                    mgr,
                    gate: Mutex::new(()),
                })
                .collect(),
            oracle: CommitOracle::new(start),
            commit_log: Mutex::new(CommitLog::default()),
            counters: ClusterCounters::default(),
        })
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
        self.shards[0].mgr.table_ids()
    }

    /// The cluster counters.
    pub fn counters(&self) -> &ClusterCounters {
        &self.counters
    }

    /// Shard `i`'s commit clock — at most the oracle watermark, exactly
    /// the last global timestamp that landed on this shard.
    pub fn shard_now(&self, i: usize) -> SysTime {
        self.shards[i].mgr.now()
    }

    /// Read pins currently registered on the cluster (shards hold none).
    /// Zero once every transaction has resolved — the balance the
    /// consistency suite asserts.
    pub fn active_pins(&self) -> usize {
        let log = self.commit_log.lock().expect("commit log poisoned");
        log.active_pins()
    }

    /// The oracle's read watermark: the newest globally consistent
    /// timestamp.
    pub fn read_ts(&self) -> SysTime {
        self.oracle.read_ts()
    }

    /// Shuts the cluster down shard by shard: closes each WAL and returns
    /// every shard's engine, table ids, and durable watermark.
    #[allow(clippy::type_complexity)]
    pub fn close(self) -> Result<Vec<(Box<dyn BitemporalEngine>, Vec<TableId>, u64)>> {
        self.shards.into_iter().map(|s| s.mgr.close()).collect()
    }

    /// Begins a cluster transaction pinned at the current read watermark.
    pub fn begin(&self) -> Result<ClusterTxn<'_>> {
        let read_g = {
            // Register the pin and read the watermark under the cluster
            // lock, so no concurrent committer can prune commit-log
            // entries newer than our watermark in between.
            let mut log = self.commit_log.lock().expect("commit log poisoned");
            let g = self.oracle.read_ts();
            log.pin(g);
            g
        };
        Ok(ClusterTxn {
            cluster: self,
            read_g,
            per_shard: (0..self.shards.len())
                .map(|_| OpBuffer::default())
                .collect(),
            unpinned: false,
        })
    }

    /// Opens a read-only snapshot at the current watermark, without a
    /// transaction. The timestamp is captured once; [`ClusterSnapshot::read`]
    /// may be called repeatedly and always sees the same consistent cut.
    pub fn snapshot(&self) -> ClusterSnapshot<'_> {
        ClusterSnapshot {
            cluster: self,
            at: self.oracle.read_ts(),
        }
    }

    /// Opens per-shard read guards pinned at `at` (which must be at or
    /// below the watermark for a consistent cut — [`Cluster::snapshot`]
    /// and [`ClusterTxn::read`] both guarantee that).
    fn read_at(&self, at: SysTime) -> Result<ClusterRead<'_>> {
        let mut snaps = Vec::with_capacity(self.shards.len());
        for (i, s) in self.shards.iter().enumerate() {
            let snap = s.mgr.snapshot_at(at)?;
            // A poisoned shard may be missing a decided cross-shard
            // commit its healthy siblings already serve, so any cut that
            // includes it can be non-atomic at watermarks past the
            // failure. Fail-stop until recovery rebuilds the shard.
            if snap.degraded() {
                return Err(Error::Internal(format!(
                    "shard {i} is poisoned: cluster snapshots are unavailable until recovery"
                )));
            }
            snaps.push(snap);
        }
        Ok(ClusterRead { snaps, at })
    }

    fn unpin(&self, g: SysTime) {
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        log.unpin(g);
    }

    /// Logs the write set at `gts`, advances the oracle, and prunes
    /// entries no active pin can still conflict with. Called with the
    /// participating gates held, so any later committer sharing a shard
    /// observes the entry.
    fn publish_commit(&self, gts: u64, writes: Vec<WriteEntry>) {
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        log.insert(SysTime(gts), writes);
        // Advance the oracle *while still holding the commit log* (the
        // documented lock hierarchy runs commit log → oracle): begin()
        // reads the watermark under this same lock, so a concurrent
        // transaction either pins before this publish — its pin is
        // registered and floors the prune below — or after it, at a
        // watermark past everything pruned here.
        self.oracle.publish(gts);
        // The idle floor is the *watermark*, never `gts` itself: with
        // older commits still in flight the watermark (and any future
        // pin) can sit well below `gts`, and a transaction pinned there
        // must still find this entry to validate against.
        log.prune(self.oracle.read_ts());
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

/// An open cluster transaction: a read watermark plus DML buffered per
/// owning shard. Dropping it without committing is a rollback.
pub struct ClusterTxn<'a> {
    cluster: &'a Cluster,
    /// The read watermark this transaction's snapshot and validation pin.
    read_g: SysTime,
    /// Checked writes, routed; index = shard. Each participant's buffer
    /// goes to its shard manager whole at commit.
    per_shard: Vec<OpBuffer>,
    unpinned: bool,
}

impl<'a> ClusterTxn<'a> {
    /// The pinned read watermark.
    pub fn pin(&self) -> SysTime {
        self.read_g
    }

    /// Opens the transaction's consistent snapshot: every shard `AS OF`
    /// the pinned watermark. Holds every shard's shared lock for the
    /// guard's lifetime — obtain per query burst and drop promptly.
    pub fn read(&self) -> Result<ClusterRead<'a>> {
        self.cluster.read_at(self.read_g)
    }

    /// Table metadata is immutable and identical on every shard, so shard
    /// 0's cache answers for all of them without taking a shard lock.
    fn def_for(&self, table: TableId) -> Result<(u8, &'a TableDef)> {
        self.cluster.shards[0].mgr.def_for(table)
    }

    /// Routes a checked write to the shard owning its key.
    fn buffer(&mut self, op: CheckedOp) {
        let shard = shard_of(op.key(), self.per_shard.len());
        self.per_shard[shard].push(op);
    }

    /// Buffers an insert of `row` valid for `app`, routed to the shard
    /// owning the row's primary key.
    pub fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        self.buffer(CheckedOp::insert(t, def, row, app)?);
        Ok(())
    }

    /// Buffers a sequenced update of `key` for `portion` on its owning
    /// shard.
    pub fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        self.buffer(CheckedOp::update(t, def, key, updates, portion)?);
        Ok(())
    }

    /// Buffers a sequenced delete of `key` for `portion` on its owning
    /// shard.
    pub fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        self.buffer(CheckedOp::delete(t, def, key, portion)?);
        Ok(())
    }

    /// Buffers an application-period overwrite of `key` on its owning
    /// shard (conservatively conflicting with any write to the key, like
    /// the per-shard buffering does).
    pub fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<()> {
        let (t, def) = self.def_for(table)?;
        self.buffer(CheckedOp::overwrite_app_period(t, def, key, period)?);
        Ok(())
    }

    /// Discards the buffered writes and releases the read pin.
    pub fn rollback(mut self) {
        self.release_pin();
    }

    fn release_pin(&mut self) {
        if !self.unpinned {
            self.unpinned = true;
            self.cluster.unpin(self.read_g);
        }
    }

    /// Commits the buffered writes at one oracle timestamp, waiting for
    /// every participating shard's durability contract before returning.
    /// Returns the global commit timestamp (the read pin for a read-only
    /// transaction, which draws no timestamp at all).
    ///
    /// On [`Error::Conflict`] nothing was logged or applied anywhere;
    /// re-run against a fresh transaction. Other errors follow the
    /// per-shard contracts: validation and preflight failures abort the
    /// whole transaction cleanly (any prepares already logged are decided
    /// *abort*), while a failure after the first commit decision poisons
    /// the failing shard fail-stop and reports `Internal` — the
    /// transaction is then globally committed, the poisoned shard catches
    /// up at recovery.
    pub fn commit(mut self) -> Result<SysTime> {
        let bufs = std::mem::take(&mut self.per_shard);
        let cluster = self.cluster;
        let participants: Vec<usize> = (0..bufs.len()).filter(|&i| !bufs[i].is_empty()).collect();
        if participants.is_empty() {
            cluster.counters.read_only.fetch_add(1, Ordering::Relaxed);
            cluster.counters.committed.fetch_add(1, Ordering::Relaxed);
            self.release_pin();
            return Ok(self.read_g);
        }
        // The cluster-level write set: the participants consume their
        // buffers, the cluster log keeps its own copy.
        let writes: Vec<WriteEntry> = participants
            .iter()
            .flat_map(|&i| bufs[i].writes().iter().cloned())
            .collect();

        // Commit gates, ascending shard index (the workspace lock order).
        // Conflicting committers share a key, hence a shard, hence a gate.
        let gates: Vec<_> = participants
            .iter()
            .map(|&i| cluster.shards[i].gate.lock().expect("shard gate poisoned"))
            .collect();

        // Cluster-level first-committer-wins, then draw the timestamp.
        // Validated under the gates: any conflicting commit either already
        // published its record (we see it here) or is queued behind a gate
        // we hold (it will see ours).
        let gts = {
            let log = cluster.commit_log.lock().expect("commit log poisoned");
            if let Some((ts, theirs)) = log.first_conflict(self.read_g, &writes) {
                cluster.counters.conflicts.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Conflict(format!(
                    "table {} key {} app {:?}: written by the cluster \
                     transaction committed at {ts} after this pin {}",
                    theirs.table, theirs.key, theirs.app, self.read_g
                )));
            }
            cluster.oracle.begin_commit()
        };

        let (outcome, waits) = match run_on_shards(cluster, &participants, bufs, gts) {
            Ok(waits) => (Ok(SysTime(gts)), waits),
            // At least one shard logged a commit decision: the transaction
            // *is* committed globally (recovery finishes the stragglers), so
            // the record and the watermark must reflect it even though we
            // report the shard failure to the caller.
            Err((e, Some(waits))) => (Err(e), waits),
            Err((e, None)) => {
                cluster.oracle.abort(gts);
                self.release_pin();
                drop(gates);
                return Err(e);
            }
        };
        cluster.publish_commit(gts, writes);
        self.release_pin();
        if outcome.is_ok() {
            cluster.counters.committed.fetch_add(1, Ordering::Relaxed);
            if participants.len() == 1 {
                cluster
                    .counters
                    .single_shard
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                cluster.counters.cross_shard.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Durability belongs outside every lock: one shard's fsync must
        // never serialize another shard's committers. A decided failure
        // honors the committed shards' waits too: "decided" must mean
        // *durably* decided before this returns, or a crash right after
        // could lose every decision record while readers had already
        // observed the commit. There a wait failure poisons its shard
        // fail-stop on its own; the error returned already tells the caller
        // recovery is needed.
        drop(gates);
        for w in waits {
            let waited = w.wait();
            if outcome.is_ok() {
                waited?;
            }
        }
        outcome
    }
}

impl Drop for ClusterTxn<'_> {
    fn drop(&mut self) {
        self.release_pin();
    }
}

/// Hands each participating shard its routed buffer and lands the commit
/// at `gts`: directly for one participant, via two-phase commit for
/// several. The participants neither pin nor validate first-committer-wins:
/// the caller did, once, under the gates it holds. On error the second
/// slot says whether a commit decision was already logged somewhere:
/// `Some(waits)` means the transaction stands globally and carries the
/// committed shards' durability waits, which the caller must still honor;
/// `None` means nothing decided — globally an abort.
fn run_on_shards<'a>(
    cluster: &'a Cluster,
    participants: &[usize],
    mut bufs: Vec<OpBuffer>,
    gts: u64,
) -> std::result::Result<Vec<CommitWait<'a>>, (Error, Option<Vec<CommitWait<'a>>>)> {
    let mut take = |i: usize| (&cluster.shards[i].mgr, std::mem::take(&mut bufs[i]));

    // Fast path: one participant needs no coordination — a stamped commit
    // record already recovers to exactly this state.
    if let [only] = participants {
        let (mgr, buf) = take(*only);
        return match mgr.commit_at(buf, gts) {
            // `commit_at` publishes before handing back the wait, so an
            // `Ok` here is a decided commit; an `Err` never published nor
            // logged (apply/submit failures poison the shard *without* a
            // WAL record).
            Ok((_ts, wait)) => Ok(wait.into_iter().collect()),
            Err(e) => Err((e, None)),
        };
    }

    // Phase one: prepare everywhere. Any failure — a poisoned shard, a
    // vanished key — aborts every prepare already logged, explicitly,
    // though recovery would presume it.
    let mut prepared: Vec<PreparedTxn<'a>> = Vec::with_capacity(participants.len());
    for &i in participants {
        let (mgr, buf) = take(i);
        match mgr.prepare(buf, gts) {
            Ok(p) => prepared.push(p),
            Err(e) => {
                abort_all(prepared);
                return Err((e, None));
            }
        }
    }

    // The prepare barrier: every participant's prepare record must be
    // durable before any shard logs a decision — this is what makes an
    // observed decision sufficient evidence for recovery to commit every
    // participant. Blocking on the flusher under the held commit gates is
    // the price of that guarantee, and it is paid per *cluster* commit,
    // not per shard.
    for p in &prepared {
        // Deliberately blocks under the commit gates held by the caller:
        // releasing them before the barrier would let another commit
        // interleave WAL records between our prepares and decisions.
        if let Err(e) = p.wait_prepared() {
            abort_all(prepared);
            return Err((e, None));
        }
    }

    // Phase two: decide commit on every shard. After the first durable
    // decision the transaction stands; a later shard failing to apply is
    // poisoned fail-stop and recovery converges it from the decision
    // evidence, so we keep committing the healthy shards.
    let mut waits = Vec::with_capacity(prepared.len());
    let mut decided = false;
    let mut failure: Option<Error> = None;
    let mut rest = prepared.into_iter();
    while let Some(p) = rest.next() {
        match p.commit() {
            Ok((_ts, wait)) => {
                decided = true;
                waits.extend(wait);
            }
            Err(e) => {
                if !decided {
                    // No decision logged anywhere yet: globally this is an
                    // abort, and the remaining prepares say so explicitly.
                    abort_all(rest.collect());
                    return Err((e, None));
                }
                failure.get_or_insert(e);
            }
        }
    }
    match failure {
        None => Ok(waits),
        Some(e) => Err((
            Error::Internal(format!(
                "cross-shard commit {gts} decided but a shard failed to apply it: {e}"
            )),
            Some(waits),
        )),
    }
}

fn abort_all(prepared: Vec<PreparedTxn<'_>>) {
    for p in prepared {
        // An abort that fails to log poisons its shard; the cluster-level
        // outcome (aborted) is already decided, so the error is not ours
        // to propagate — recovery presumes the abort regardless.
        let _ = p.abort();
    }
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

    /// Opens the per-shard read guards for this cut.
    pub fn read(&self) -> Result<ClusterRead<'_>> {
        self.cluster.read_at(self.at)
    }
}

/// Open read guards on every shard, all pinned at one global timestamp.
/// Obtain per query burst and drop promptly: the guards are what a
/// committer on each shard waits for.
pub struct ClusterRead<'a> {
    snaps: Vec<Snapshot<'a>>,
    at: SysTime,
}

impl ClusterRead<'_> {
    /// The pinned global timestamp.
    pub fn at(&self) -> SysTime {
        self.at
    }

    /// The read-only engine view over the whole cluster: scans fan out to
    /// every shard and concatenate, key lookups route to the owning shard,
    /// and each shard caps every system-time specification at the pinned
    /// timestamp. Implements the full [`BitemporalEngine`] read surface, so
    /// the workload query classes run on a cluster exactly as they run on
    /// one engine.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView::over(&self.snaps, shard_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recover_cluster, ShardInput};
    use bitempo_core::fault::FaultyWriter;
    use bitempo_engine::api::{AccessPath, AppSpec, SysSpec, TuningConfig};
    use bitempo_engine::testutil::{bitemp_table, simple_row};
    use bitempo_wal::{DurabilityMode, SharedBuf, BODY_OVERHEAD, FRAME_OVERHEAD, WAL_HEADER_LEN};

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

    /// Shards are commit participants: no cluster commit pins a shard
    /// manager — first-committer-wins ran once, against the cluster log.
    #[test]
    fn cluster_commits_take_no_shard_pins() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        let (a, b) = split_keys(2, 8);
        let mut single = cluster.begin().expect("begin");
        single
            .update(t, &Key::int(a), &[(1, Value::Int(1))], None)
            .expect("update");
        single.commit().expect("single-shard commit");
        let mut cross = cluster.begin().expect("begin");
        for k in [a, b] {
            cross
                .update(t, &Key::int(k), &[(1, Value::Int(2))], None)
                .expect("update");
        }
        cross.commit().expect("cross-shard commit");
        assert_eq!(cluster.counters().single_shard.load(Ordering::Relaxed), 1);
        assert_eq!(cluster.counters().cross_shard.load(Ordering::Relaxed), 1);
        for (i, s) in cluster.shards.iter().enumerate() {
            let pinned = s.mgr.counters().snapshots.load(Ordering::Relaxed);
            assert_eq!(pinned, 0, "shard {i} was pinned");
            assert_eq!(s.mgr.active_pins(), 0, "shard {i} holds a pin");
        }
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
    fn publish_ahead_of_the_watermark_keeps_its_commit_record() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        // Two in-flight timestamps; the *newer* publishes first while the
        // older still holds the watermark back. The record must survive
        // pruning: readers can still pin below it and need it to validate.
        let a = cluster.oracle.begin_commit();
        let b = cluster.oracle.begin_commit();
        cluster.publish_commit(
            b,
            vec![WriteEntry {
                table: 0,
                key: Key::int(0),
                app: AppPeriod::ALL,
            }],
        );
        assert!(cluster.read_ts().0 < b, "a still in flight");
        {
            let log = cluster.commit_log.lock().expect("commit log");
            assert!(
                log.timestamps().any(|ts| ts.0 == b),
                "pruning must floor at the watermark, not at the published gts"
            );
        }
        let mut txn = cluster.begin().expect("begin");
        assert!(txn.pin().0 < b);
        txn.update(t, &Key::int(0), &[(1, Value::Int(9))], None)
            .expect("update");
        match txn.commit() {
            Err(Error::Conflict(_)) => {}
            other => panic!("expected a conflict with b's write, got {other:?}"),
        }
        cluster.oracle.abort(a);
    }

    #[test]
    fn out_of_order_publishes_cannot_hide_commits_from_validation() {
        let (cluster, _bufs) = cluster_with_bufs(2, 8);
        let t = cluster.table_ids()[0];
        // A long-lived pin keeps the log from pruning.
        let reader = cluster.begin().expect("begin");
        // Three in-flight commits; the newest publishes first, the oldest
        // second, so *append* order would be [c, a] while gts order is
        // [a, c].
        let a = cluster.oracle.begin_commit();
        let b = cluster.oracle.begin_commit();
        let c = cluster.oracle.begin_commit();
        cluster.publish_commit(
            c,
            vec![WriteEntry {
                table: 0,
                key: Key::int(0),
                app: AppPeriod::ALL,
            }],
        );
        cluster.publish_commit(a, Vec::new());
        {
            let log = cluster.commit_log.lock().expect("commit log");
            let order: Vec<u64> = log.timestamps().map(|ts| ts.0).collect();
            assert_eq!(order, vec![a, c], "log stays ascending by gts");
        }
        assert_eq!(cluster.read_ts().0, a, "b still holds the watermark at a");
        // A transaction pinned at exactly a must still see c's conflicting
        // write: the reverse scan's early exit stops at the first record
        // at or below the pin, which must never be an out-of-order entry
        // sitting in front of a newer one.
        let mut txn = cluster.begin().expect("begin");
        assert_eq!(txn.pin().0, a);
        txn.update(t, &Key::int(0), &[(1, Value::Int(9))], None)
            .expect("update");
        match txn.commit() {
            Err(Error::Conflict(_)) => {}
            other => panic!("expected a conflict with c's write, got {other:?}"),
        }
        cluster.oracle.abort(b);
        reader.rollback();
    }

    #[test]
    fn poisoned_shard_fail_stops_cluster_reads() {
        let base = base_checkpoint(8);
        let buf0 = SharedBuf::new();
        let buf1 = SharedBuf::new();
        // Shard 1's log accepts the stream header and nothing else: its
        // prepare submit fails, poisoning the shard before any decision.
        let wals = vec![
            Some(TxnWal::create(Box::new(buf0.clone()), DurabilityMode::Strict).expect("wal")),
            Some(
                TxnWal::create(
                    Box::new(FaultyWriter::new(buf1.clone(), WAL_HEADER_LEN as u64)),
                    DurabilityMode::Strict,
                )
                .expect("wal"),
            ),
        ];
        let cluster = Cluster::from_checkpoint(SystemKind::A, &base, wals).expect("cluster");
        let t = cluster.table_ids()[0];
        let k0 = (0..8)
            .find(|k| shard_of(&Key::int(*k), 2) == 0)
            .expect("a key on shard 0");
        let k1 = (0..8)
            .find(|k| shard_of(&Key::int(*k), 2) == 1)
            .expect("a key on shard 1");
        let before = cluster.read_ts();

        let mut txn = cluster.begin().expect("begin");
        txn.update(t, &Key::int(k0), &[(1, Value::Int(-1))], None)
            .expect("update");
        txn.update(t, &Key::int(k1), &[(1, Value::Int(-2))], None)
            .expect("update");
        match txn.commit() {
            Err(Error::Internal(_)) => {}
            other => panic!("expected the prepare submit failure, got {other:?}"),
        }
        // Nothing decided: the abort burns the slot (the watermark may step
        // over it), but no shard applied anything and nothing was published.
        assert_eq!(cluster.shard_now(0), before);
        assert_eq!(cluster.shard_now(1), before);
        assert!(cluster
            .commit_log
            .lock()
            .unwrap()
            .timestamps()
            .next()
            .is_none());
        // The poisoned shard makes any cluster-wide cut potentially
        // non-atomic; reads fail-stop instead of serving it.
        match cluster.snapshot().read() {
            Err(Error::Internal(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
            other => panic!("expected fail-stop, got {:?}", other.map(|r| r.at())),
        };
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
    /// same `ClusterTxn` still commits, and every pin is released.
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
