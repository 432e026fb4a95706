//! The manager: engine state behind the reader/writer lock, the WAL, the
//! commit log — and the one commit pipeline every publishing path runs.

use crate::commit_log::CommitLog;
use crate::transaction::{preflight, OpBuffer, Transaction};
use crate::Snapshot;
use bitempo_core::{Error, Result, SysTime, TableDef, TableId};
use bitempo_engine::api::BitemporalEngine;
use bitempo_histgen::apply_op;
use bitempo_wal::{Checkpoint, DurabilityWaiter, TxnWal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Engine-side state under the manager's reader/writer lock.
pub(crate) struct EngineState {
    pub(crate) engine: Box<dyn BitemporalEngine>,
    pub(crate) ids: Vec<TableId>,
    /// WAL records appended so far (0 when running without a WAL).
    pub(crate) applied_seq: u64,
    /// Set when an apply failed mid-transaction: the engine holds
    /// uncommitted partial state that has no rollback path. New
    /// transactions are refused and existing snapshots stop using the
    /// current-partition fast path (pending versions are visible there).
    pub(crate) poisoned: Option<String>,
}

impl EngineState {
    /// Refuses service once poisoned, reporting the original cause.
    pub(crate) fn live(&self) -> Result<()> {
        match &self.poisoned {
            Some(why) => Err(Error::Internal(format!("txn manager poisoned: {why}"))),
            None => Ok(()),
        }
    }

    /// Fail-stops the manager (the first cause is the one later calls
    /// see) and returns the error the failing call reports.
    fn poison(&mut self, why: String) -> Error {
        let err = Error::Internal(format!("txn manager poisoned: {why}"));
        self.poisoned.get_or_insert(why);
        err
    }
}

/// Monotonic counters: the conflict rate of the `mvcc` and `sharding`
/// experiments and the pin-balance check of the isolation suite.
#[derive(Debug, Default)]
pub struct TxnCounters {
    /// Transactions committed (including read-only commits).
    pub committed: AtomicU64,
    /// Transactions aborted by first-committer-wins validation.
    pub conflicts: AtomicU64,
    /// Snapshots pinned by [`TxnManager::begin`].
    pub snapshots: AtomicU64,
    /// Snapshot pins released — by commit (at publish), rollback, or drop.
    /// Balances [`Self::snapshots`] once every transaction has resolved;
    /// the isolation suite asserts the two agree after each storm.
    pub released: AtomicU64,
}

/// What the commit pipeline submits to the WAL once the ops have applied.
#[derive(Clone, Copy)]
pub(crate) enum Record {
    /// A standalone commit: the raw archive framing PR 7 recovery replays,
    /// landing at the engine's next commit time.
    Plain,
    /// A single-shard cluster commit: the same payload wrapped so recovery
    /// re-stamps it at the oracle timestamp.
    CommittedAt(u64),
    /// The commit decision of a prepared transaction, whose ops are
    /// already durable (and validated) in its prepare record.
    Decision(u64),
}

/// The MVCC front-end over one engine. See the crate docs for the model.
///
/// Lock hierarchy, outermost first: `state` → `wal` → `commit_log`.
pub struct TxnManager {
    pub(crate) state: RwLock<EngineState>,
    /// The commit log sink; `None` runs without durability (tests).
    pub(crate) wal: Mutex<Option<TxnWal>>,
    /// First-committer-wins records and the snapshot pins that floor their
    /// pruning. Innermost lock: held for one statement at a time.
    pub(crate) commit_log: Mutex<CommitLog>,
    /// Immutable table metadata, cached so write buffering never takes the
    /// state lock (a transaction may buffer while holding a [`Snapshot`],
    /// and `std`'s `RwLock` read-reentrancy can deadlock behind a queued
    /// writer).
    defs: Vec<TableDef>,
    /// Table ids in load order, mirroring `defs` (immutable).
    ids: Vec<TableId>,
    pub(crate) counters: TxnCounters,
}

impl TxnManager {
    /// Wraps a loaded engine. `ids` must be the engine's tables in archive
    /// load order (at most 256, the [`bitempo_histgen::Op`] addressing
    /// limit); `wal`, when present, receives one record per committed
    /// writing transaction, encoded exactly as the durability driver's —
    /// [`bitempo_wal::recover`](fn@bitempo_wal::recover) replays interactive history and replayed
    /// history identically.
    ///
    /// A non-empty `wal` is adopted, not reset: sequence numbering
    /// continues from its last appended record, so checkpoints taken from
    /// this manager stay labelled with the exact WAL seq they cover. The
    /// caller must hand over an engine that already contains the effects
    /// of every record in the log (the WAL only ever records applied
    /// transactions).
    pub fn new(
        engine: Box<dyn BitemporalEngine>,
        ids: Vec<TableId>,
        wal: Option<TxnWal>,
    ) -> Result<TxnManager> {
        if ids.len() > 256 {
            return Err(Error::Invalid(format!(
                "op encoding addresses at most 256 tables, got {}",
                ids.len()
            )));
        }
        let defs = ids.iter().map(|&id| engine.table_def(id).clone()).collect();
        let applied_seq = wal.as_ref().map_or(0, |w| w.submitted_seq());
        Ok(TxnManager {
            state: RwLock::new(EngineState {
                engine,
                ids: ids.clone(),
                applied_seq,
                poisoned: None,
            }),
            wal: Mutex::new(wal),
            commit_log: Mutex::new(CommitLog::default()),
            defs,
            ids,
            counters: TxnCounters::default(),
        })
    }

    /// The commit counters.
    pub fn counters(&self) -> &TxnCounters {
        &self.counters
    }

    /// Table ids in load order (the same order as at construction).
    pub fn table_ids(&self) -> &[TableId] {
        &self.ids
    }

    /// System time of the latest commit.
    pub fn now(&self) -> SysTime {
        self.state.read().expect("txn state poisoned").engine.now()
    }

    /// Begins a transaction pinned to the latest commit time. Reads through
    /// [`Transaction::snapshot`] see exactly that commit-prefix state;
    /// writes buffer locally until [`Transaction::commit`].
    pub fn begin(&self) -> Result<Transaction<'_>> {
        self.begin_with(OpBuffer::default())
    }

    /// [`Self::begin`] adopting writes already buffered elsewhere — the
    /// cluster router's per-shard buffer. Every op in `buf` must have been
    /// checked against this manager's table layout ([`Self::def_for`] of a
    /// manager over the same tables).
    pub fn begin_with(&self, buf: OpBuffer) -> Result<Transaction<'_>> {
        let pin = {
            let st = self.state.read().expect("txn state poisoned");
            st.live()?;
            let pin = st.engine.now();
            // Register the pin while still holding the read lock, so no
            // concurrent committer can prune past it in between. Naming
            // the guard keeps its region explicit to readers and to
            // tblint's guard-region scanner.
            let mut log = self.commit_log.lock().expect("commit log poisoned");
            log.pin(pin);
            drop(log);
            pin
        };
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(Transaction {
            mgr: self,
            pin,
            buf,
            unpinned: false,
        })
    }

    /// Opens a read-only snapshot pinned at an explicit system time,
    /// without registering a pin or creating a [`Transaction`]. This is
    /// the cross-shard read seam: a cluster snapshot pins every shard at
    /// one oracle timestamp and reads each through the same sys-spec
    /// translation interactive snapshots use. Reading *committed history*
    /// needs no pin bookkeeping — pins only guard the first-committer-wins
    /// log, which read-only views never consult. `pin` may exceed the
    /// shard's local watermark (the shard simply has nothing newer yet);
    /// visibility is still exactly the commit-prefix at `pin`.
    pub fn snapshot_at(&self, pin: SysTime) -> Result<Snapshot<'_>> {
        let guard = self.state.read().expect("txn state poisoned");
        Ok(Snapshot::new(guard, pin))
    }

    /// Captures a durability checkpoint of the current committed state,
    /// labelled with the exact WAL sequence number it covers. Runs under
    /// the *write* lock: a checkpoint can never interleave with a commit,
    /// so the transaction committing concurrently with checkpoint capture
    /// is either fully inside it (and `seq` covers its WAL record) or fully
    /// after it (and recovery replays it) — never half-captured.
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        let mut st = self.state.write().expect("txn state poisoned");
        let EngineState {
            engine,
            ids,
            applied_seq,
            ..
        } = &mut *st;
        engine.checkpoint();
        Checkpoint::capture(engine.as_mut(), ids, *applied_seq)
    }

    /// Shuts the manager down: closes the WAL (surfacing any sink failure
    /// and the durable watermark) and returns the engine with its ids.
    pub fn close(self) -> Result<(Box<dyn BitemporalEngine>, Vec<TableId>, u64)> {
        let wal = self.wal.into_inner().expect("wal lock poisoned");
        let durable = match wal {
            Some(w) => w.close()?,
            None => 0,
        };
        let st = self.state.into_inner().expect("txn state poisoned");
        Ok((st.engine, st.ids, durable))
    }

    /// Number of currently registered snapshot pins (the pruning floor's
    /// population). Zero once every transaction has committed, rolled
    /// back, or dropped — the balance the isolation suite asserts.
    pub fn active_pins(&self) -> usize {
        let log = self.commit_log.lock().expect("commit log poisoned");
        log.active_pins()
    }

    /// The load-order index and cached definition of `table`: what
    /// [`crate::CheckedOp`]'s constructors validate against.
    pub fn def_for(&self, table: TableId) -> Result<(u8, &TableDef)> {
        let idx = self
            .ids
            .iter()
            .position(|&id| id == table)
            .ok_or_else(|| Error::Invalid(format!("table {table:?} is not managed here")))?;
        Ok((idx as u8, &self.defs[idx]))
    }

    pub(crate) fn unpin(&self, pin: SysTime) {
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        log.unpin(pin);
        drop(log);
        self.counters.released.fetch_add(1, Ordering::Relaxed);
    }

    /// [`EngineState::poison`] for callers that hold no state guard.
    pub(crate) fn poison(&self, why: String) -> Error {
        let mut st = self.state.write().expect("txn state poisoned");
        st.poison(why)
    }

    /// The checks that let a buffered write set proceed, under either
    /// state guard: the manager is live, no commit newer than `pin` wrote
    /// an overlapping entry (first-committer-wins), and every sequenced
    /// op's key exists — the overwhelmingly common apply failure, caught
    /// *before* the engine is touched because the engines have no
    /// rollback.
    pub(crate) fn validate(&self, st: &EngineState, pin: SysTime, buf: &OpBuffer) -> Result<()> {
        st.live()?;
        let log = self.commit_log.lock().expect("commit log poisoned");
        if let Some((ts, theirs)) = log.first_conflict(pin, buf.writes()) {
            self.counters.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Conflict(format!(
                "table {} key {} app {:?}: written by the transaction \
                 committed at {ts} after this snapshot's pin {pin}",
                theirs.table, theirs.key, theirs.app
            )));
        }
        drop(log);
        preflight(st, &buf.txn().ops)
    }

    /// Submits a record that describes no applied state (a prepare, an
    /// abort decision) and returns its durability handle. A failure
    /// fail-stops the manager even though nothing applied: the stream's
    /// integrity is now unknown, and a torn frame mid-log would silently
    /// truncate every later record at recovery.
    pub(crate) fn submit_unapplied(
        &self,
        payload: &[u8],
        what: &str,
    ) -> Result<(DurabilityWaiter, u64)> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        let w = wal.as_mut().expect("caller checked the WAL exists");
        match w.submit(payload) {
            Ok(seq) => Ok((w.waiter(), seq)),
            Err(e) => {
                drop(wal);
                Err(self.poison(format!("{what} not logged, WAL submit failed: {e}")))
            }
        }
    }

    /// True when commits are logged (the WAL is fixed at construction).
    pub(crate) fn logs(&self) -> bool {
        self.wal.lock().expect("wal lock poisoned").is_some()
    }

    /// The commit pipeline — *validate → apply → WAL submit → engine
    /// commit → log insert → prune → unpin* — run by every path
    /// that publishes: [`Transaction::commit`], [`Transaction::commit_at`]
    /// and [`crate::PreparedTxn::commit`] differ only in `record`. Returns
    /// the commit time and the durability wait still owed, having released
    /// the pin; on error the pin is the caller's to release.
    ///
    /// On [`Error::Conflict`] (or a preflight error) nothing was logged or
    /// applied. A later failure poisons the manager *with no WAL record*,
    /// so recovery never replays a transaction whose commit reported
    /// failure.
    pub(crate) fn commit_pipeline(
        &self,
        pin: SysTime,
        buf: OpBuffer,
        record: Record,
    ) -> Result<(SysTime, Option<CommitWait<'_>>)> {
        let mut st = self.state.write().expect("txn state poisoned");
        let gts = match record {
            Record::Plain => None,
            Record::CommittedAt(g) | Record::Decision(g) => Some(g),
        };
        if matches!(record, Record::Decision(_)) {
            // Validated at prepare, under the commit gate held since.
            st.live()?;
        } else {
            self.validate(&st, pin, &buf)?;
        }
        let (txn, writes) = buf.into_parts();

        // Encode the WAL payload up front: encoding is pure on the
        // buffered ops, so a failure here aborts cleanly, pre-apply.
        let payload = match record {
            _ if !self.logs() => None,
            Record::Plain => Some(bitempo_histgen::encode_txn(&txn)?),
            Record::CommittedAt(g) => Some(bitempo_wal::encode_committed_at(g, &txn)?),
            Record::Decision(g) => Some(bitempo_wal::encode_decision(g, g, true)),
        };

        let EngineState {
            engine,
            ids,
            applied_seq,
            ..
        } = &mut *st;
        // Cluster commits land at the oracle's global timestamp: advance
        // the shard clock first so the ops' version stamps (`now.next()`)
        // and the commit itself all carry `gts`, byte-identical to a
        // single-engine serial history at the same timestamps.
        if let Some(g) = gts {
            debug_assert!(
                g > engine.now().0,
                "oracle timestamps are unique and ascending"
            );
            engine.advance_clock(SysTime(g.saturating_sub(1)));
        }
        // Apply before logging: a record only enters the WAL once its
        // transaction has fully applied, so recovery can replay every
        // logged record. An apply failure past preflight leaves
        // unpublishable partial state (no rollback), so it poisons the
        // manager — with nothing logged, the durable history still agrees
        // with the reported failure. (For a decision the transaction
        // stands on the shards that did commit: this shard is the
        // casualty, and recovery converges it from their evidence.)
        for op in &txn.ops {
            if let Err(e) = apply_op(engine.as_mut(), ids, op) {
                return Err(st.poison(format!("transaction half-applied: {e}")));
            }
        }

        // Log after apply, still inside the exclusive section, so WAL
        // order is commit order. `submit` writes the frame without
        // syncing: the fsync belongs to the waiter below, *outside* every
        // lock, so a strict-mode sync never serializes readers behind the
        // disk (tblint TB008). A submit failure here poisons: the applied
        // state cannot be rolled back and must not publish as committed,
        // and since the record never landed, recovery excludes the
        // transaction exactly as the returned error reports.
        let mut waiter: Option<(DurabilityWaiter, u64)> = None;
        if let Some(payload) = payload {
            let mut wal = self.wal.lock().expect("wal lock poisoned");
            let w = wal.as_mut().expect("wal vanished mid-commit");
            match w.submit(&payload) {
                Ok(seq) => {
                    // A decision follows its own prepare record instead.
                    debug_assert!(
                        matches!(record, Record::Decision(_)) || seq == *applied_seq + 1,
                        "WAL order must be commit order"
                    );
                    waiter = Some((w.waiter(), seq));
                }
                Err(e) => {
                    return Err(st.poison(format!(
                        "transaction applied but not logged, WAL submit failed: {e}"
                    )));
                }
            }
        }
        let ts = engine.commit();
        debug_assert!(
            gts.is_none_or(|g| ts.0 == g),
            "a cluster commit must land exactly at its oracle timestamp"
        );
        *applied_seq = match &waiter {
            Some((_, seq)) => *seq,
            None => *applied_seq + 1,
        };

        // Publish the write set, then prune what no active snapshot can
        // still conflict with: nothing pins below this manager's own
        // newest commit once no pin is registered.
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        log.insert(ts, writes);
        log.prune(ts);
        drop(log);
        drop(st);

        // Release the snapshot pin at publish, not at drop: the pin is a
        // pruning floor, and the durability wait ahead can be as long as
        // an fsync. Rollback and drop release the same way, so pin
        // accounting stays balanced on every path (the isolation suite
        // asserts released == snapshots after each storm).
        self.unpin(pin);
        self.counters.committed.fetch_add(1, Ordering::Relaxed);
        // The durability wait belongs outside every lock. Under `Batched`,
        // concurrent committers park in `wait()` together and one flusher
        // fsync acks them all; under `Strict`, the waiter performs the
        // deferred fsync itself — still amortized, because one waiter's
        // sync covers everything submitted before it ran. Either way
        // readers are never stuck behind the disk.
        let wait = waiter.map(|(waiter, seq)| CommitWait {
            mgr: self,
            waiter,
            seq,
        });
        Ok((ts, wait))
    }
}

/// The durability wait a publish still owes. Dropping it without calling
/// [`Self::wait`] skips the wait entirely — callers that need the
/// durability contract must call it.
#[must_use = "the commit is published but not yet durable: call wait()"]
pub struct CommitWait<'a> {
    mgr: &'a TxnManager,
    waiter: DurabilityWaiter,
    seq: u64,
}

impl CommitWait<'_> {
    /// The WAL sequence number the wait covers.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the record is durable under the WAL's mode. On
    /// failure the record is published and written but its durability is
    /// unknown (the fsync failed or the flusher died), so the in-memory
    /// state may be ahead of what the log preserves. Fail-stop: the
    /// manager poisons rather than letting later commits build on a
    /// possibly-lost prefix — the one honest ambiguity in the protocol.
    pub fn wait(self) -> Result<()> {
        self.waiter.wait_for(self.seq).map_err(|e| {
            self.mgr
                .poison(format!("commit published but durability is unknown: {e}"))
        })
    }
}
