//! A commit participant: one engine behind the reader/writer lock, its
//! WAL behind the commit gate, and the one pipeline that lands a validated
//! write set on it. It holds no snapshot pin and no commit log:
//! first-committer-wins and the pins belong to the coordinator,
//! [`crate::TxnManager`].

use crate::prepared::PreparedTxn;
use crate::Snapshot;
use bitempo_core::{Error, Key, Result, SysTime, TableDef, TableId};
use bitempo_engine::api::{AppSpec, BitemporalEngine, SysSpec};
use bitempo_histgen::{apply_txn, Op, Transaction as TxnOps};
use bitempo_wal::{Checkpoint, DurabilityWaiter, TxnWal};
use std::sync::{Mutex, OnceLock, RwLock};

/// What the commit gate guards: the participant's log and how far it has
/// come. Whoever holds the gate is the only writer of both, so WAL order
/// is the order in which gate holders submit.
pub(crate) struct Log {
    /// The commit log sink; `None` runs without durability (tests).
    wal: Option<TxnWal>,
    /// The last record the WAL took (a prepare, a decision or a commit);
    /// without a WAL, the number of commits landed. A checkpoint is
    /// labelled with it.
    seq: u64,
}

/// What the commit pipeline submits to the WAL once the ops have applied.
#[derive(Clone, Copy)]
pub(crate) enum Record {
    /// A standalone manager's commit: the raw archive framing PR 7
    /// recovery replays, landing at the engine's next commit time.
    Plain,
    /// A single-participant commit at an oracle timestamp: the same
    /// payload wrapped so recovery re-stamps it there.
    CommittedAt(u64),
    /// The commit decision of a prepared transaction, whose ops are
    /// already durable (and preflighted) in its prepare record.
    Decision(u64),
}

/// One engine, its WAL and its commit gate, driven by a coordinator.
///
/// Lock hierarchy, outermost first: `gate` → `state`. The coordinator's
/// commit log nests inside the gate and is never held while `state` is
/// taken. The WAL has no lock of its own: it lives in the gate, and every
/// submit runs with the gate held and `state` released.
pub struct Participant {
    /// The engine alone: snapshots share it, the pipeline's *preflight →
    /// apply → commit* and a checkpoint take it exclusively.
    state: RwLock<Box<dyn BitemporalEngine>>,
    /// The fail-stop cause, once an apply, submit or durability wait
    /// failed: the engine may hold state that no WAL record backs and that
    /// has no rollback path. New transactions are refused and snapshots
    /// stop using the current-partition fast path. The first cause stays.
    poisoned: OnceLock<String>,
    /// Serializes commits to this participant from the coordinator's
    /// validation through publish, and across the 2PC prepare barrier, and
    /// owns the WAL: its records never interleave one transaction's
    /// prepare with another's records, and land in commit order.
    pub(crate) gate: Mutex<Log>,
    /// Immutable table metadata, cached so write buffering never takes the
    /// state lock (a transaction may buffer while holding a [`Snapshot`],
    /// and `std`'s `RwLock` read-reentrancy can deadlock behind a queued
    /// writer).
    defs: Vec<TableDef>,
    /// Table ids in load order, mirroring `defs` (immutable).
    ids: Vec<TableId>,
}

impl Participant {
    /// See [`crate::TxnManager::new`] for the contract on `ids` and `wal`.
    pub(crate) fn new(
        engine: Box<dyn BitemporalEngine>,
        ids: Vec<TableId>,
        wal: Option<TxnWal>,
    ) -> Result<Participant> {
        if ids.len() > 256 {
            return Err(Error::Invalid(format!(
                "op encoding addresses at most 256 tables, got {}",
                ids.len()
            )));
        }
        let defs = ids.iter().map(|&id| engine.table_def(id).clone()).collect();
        let seq = wal.as_ref().map_or(0, |w| w.submitted_seq());
        Ok(Participant {
            state: RwLock::new(engine),
            poisoned: OnceLock::new(),
            gate: Mutex::new(Log { wal, seq }),
            defs,
            ids,
        })
    }

    /// Table ids in load order (the same order as at construction).
    pub(crate) fn table_ids(&self) -> &[TableId] {
        &self.ids
    }

    /// System time of the latest commit on this participant.
    pub fn now(&self) -> SysTime {
        self.state.read().expect("txn state poisoned").now()
    }

    /// Refuses service once poisoned, reporting the original cause.
    pub(crate) fn live(&self) -> Result<()> {
        match self.poisoned.get() {
            Some(why) => Err(Error::Internal(format!("txn manager poisoned: {why}"))),
            None => Ok(()),
        }
    }

    /// Fail-stops the participant (the first cause is the one later calls
    /// see) and returns the error the failing call reports.
    pub(crate) fn poison(&self, why: String) -> Error {
        let err = Error::Internal(format!("txn manager poisoned: {why}"));
        // A later cause loses to the first, which is the one to report.
        let _ = self.poisoned.set(why);
        err
    }

    /// A read guard at `pin`, which may exceed this participant's own
    /// watermark (it simply has nothing newer yet); visibility is still
    /// exactly the commit prefix at `pin`.
    pub(crate) fn snapshot_at(&self, pin: SysTime) -> Snapshot<'_> {
        let guard = self.state.read().expect("txn state poisoned");
        Snapshot::new(guard, pin, self.poisoned.get().is_some())
    }

    /// The load-order index and cached definition of `table`: what
    /// `CheckedOp`'s constructors validate against.
    pub(crate) fn def_for(&self, table: TableId) -> Result<(u8, &TableDef)> {
        let idx = self
            .ids
            .iter()
            .position(|&id| id == table)
            .ok_or_else(|| Error::Invalid(format!("table {table:?} is not managed here")))?;
        Ok((idx as u8, &self.defs[idx]))
    }

    /// See [`crate::TxnManager::checkpoint`]. Takes the gate, then the
    /// state lock: no commit is between its engine commit and its record,
    /// and no prepare is waiting for its decision, so the label is exact.
    /// Refused once poisoned: the engine may hold a commit no record backs.
    pub(crate) fn checkpoint(&self) -> Result<Checkpoint> {
        let log = self.gate.lock().expect("commit gate poisoned");
        let mut engine = self.state.write().expect("txn state poisoned");
        self.live()?;
        engine.checkpoint();
        Checkpoint::capture(engine.as_mut(), &self.ids, log.seq)
    }

    /// Closes the WAL (surfacing any sink failure and the durable
    /// watermark) and returns the engine with its ids.
    pub fn close(self) -> Result<(Box<dyn BitemporalEngine>, Vec<TableId>, u64)> {
        let log = self.gate.into_inner().expect("commit gate poisoned");
        let durable = match log.wal {
            Some(w) => w.close()?,
            None => 0,
        };
        let engine = self.state.into_inner().expect("txn state poisoned");
        Ok((engine, self.ids, durable))
    }

    /// First half of a cross-participant two-phase commit: preflights
    /// `txn`, then logs a *prepare* record — the full op payload tagged
    /// with its oracle timestamp — without applying anything. `log` is
    /// this participant's gate, which the caller holds until the decision;
    /// it decides only once every participant passed
    /// [`PreparedTxn::wait_prepared`]. An undecided prepare is *presumed
    /// aborted* by recovery, so crashing here loses nothing and resurrects
    /// nothing.
    ///
    /// `gts` is the transaction's identity: oracle timestamps are unique,
    /// and carrying the same value in the prepare and decision records is
    /// what lets recovery match them up.
    pub(crate) fn prepare(&self, log: &mut Log, txn: TxnOps, gts: u64) -> Result<PreparedTxn<'_>> {
        {
            let engine = self.state.read().expect("txn state poisoned");
            self.live()?;
            preflight(engine.as_ref(), &self.ids, &txn.ops)?;
        }
        // Unlike a commit record the prepare describes a transaction that
        // has *not* applied — that is the point: it makes the ops durable
        // before any participant applies, so a crash between participants
        // can always finish (or presume-abort) the transaction.
        let logged = if log.wal.is_some() {
            let payload = bitempo_wal::encode_prepare(gts, &txn)?;
            Some(self.log_record(log, &payload, "prepare")?)
        } else {
            None
        };
        Ok(PreparedTxn {
            part: self,
            gts,
            txn,
            logged,
        })
    }

    /// Submits one record to the WAL under the gate (the caller checked it
    /// exists) and returns its durability handle; `what` names the record
    /// in the fail-stop cause. A failure fail-stops the participant even
    /// when nothing applied: the stream's integrity is now unknown, and a
    /// torn frame mid-log would silently truncate every later record at
    /// recovery.
    pub(crate) fn log_record(
        &self,
        log: &mut Log,
        payload: &[u8],
        what: &str,
    ) -> Result<(DurabilityWaiter, u64)> {
        let w = log.wal.as_mut().expect("caller checked the WAL exists");
        match w.submit(payload) {
            Ok(seq) => {
                // The gate is the only way to the WAL, so nothing lands
                // between two of this participant's records.
                debug_assert_eq!(seq, log.seq + 1, "WAL order must be commit order");
                log.seq = seq;
                Ok((w.waiter(), seq))
            }
            Err(e) => Err(self.poison(format!("{what} not logged, WAL submit failed: {e}"))),
        }
    }

    /// The commit pipeline — *preflight → apply → engine commit* under the
    /// state lock, then the WAL submit under `log`, this participant's
    /// gate — run by every path that publishes; `record` is all that
    /// differs. The caller validated first-committer-wins and holds the
    /// gate. Returns the commit time and the durability wait still owed.
    ///
    /// On a preflight error nothing was logged or applied. A later failure
    /// poisons the participant *with no WAL record*, so recovery never
    /// replays a transaction whose commit reported failure.
    pub(crate) fn commit(
        &self,
        log: &mut Log,
        txn: TxnOps,
        record: Record,
    ) -> Result<(SysTime, Option<CommitWait<'_>>)> {
        let gts = match record {
            Record::Plain => None,
            Record::CommittedAt(g) | Record::Decision(g) => Some(g),
        };
        let (ts, payload) = {
            let mut engine = self.state.write().expect("txn state poisoned");
            self.live()?;
            if !matches!(record, Record::Decision(_)) {
                // A decision was preflighted at prepare, under the gate
                // held since.
                preflight(engine.as_ref(), &self.ids, &txn.ops)?;
            }

            // Encode the WAL payload up front: encoding is pure on the
            // buffered ops, so a failure here aborts cleanly, pre-apply.
            let payload = match record {
                _ if log.wal.is_none() => None,
                Record::Plain => Some(bitempo_histgen::encode_txn(&txn)?),
                Record::CommittedAt(g) => Some(bitempo_wal::encode_committed_at(g, &txn)?),
                Record::Decision(g) => Some(bitempo_wal::encode_decision(g, true)),
            };

            // Oracle commits land at the global timestamp, so the ops'
            // version stamps and the commit itself all carry `gts`,
            // byte-identical to a single-engine serial history at the same
            // timestamps.
            debug_assert!(
                gts.is_none_or(|g| g > engine.now().0),
                "oracle timestamps are unique and ascending"
            );
            // Apply before logging: a record only enters the WAL once its
            // transaction has fully applied, so recovery can replay every
            // logged record. An apply failure past preflight leaves
            // unpublishable partial state (no rollback), so it poisons the
            // participant — with nothing logged, the durable history still
            // agrees with the reported failure. (For a decision the
            // transaction stands on the participants that did commit: this
            // one is the casualty, and recovery converges it from their
            // evidence.)
            if let Err(e) = apply_txn(engine.as_mut(), &self.ids, &txn.ops, gts) {
                return Err(self.poison(format!("transaction half-applied: {e}")));
            }
            let ts = engine.commit();
            debug_assert!(
                gts.is_none_or(|g| ts.0 == g),
                "an oracle commit must land exactly at its timestamp"
            );
            (ts, payload)
        };

        // Log after the state lock is released, under the gate, so WAL
        // order is commit order and no reader waits while a submit queues
        // behind another committer's fsync. `submit` writes the frame
        // without syncing: the fsync belongs to the waiter below, *outside*
        // every lock, so a strict-mode sync never serializes readers behind
        // the disk (tblint TB008). A submit failure here poisons: the
        // committed state cannot be rolled back and must not publish, and
        // since the record never landed, recovery excludes the transaction
        // exactly as the returned error reports.
        let waiter = match payload {
            Some(payload) => Some(self.log_record(log, &payload, "transaction applied but")?),
            None => {
                log.seq += 1;
                None
            }
        };
        // The durability wait belongs outside every lock. Under `Batched`,
        // concurrent committers park in `wait()` together and one flusher
        // fsync acks them all; under `Strict`, the waiter performs the
        // deferred fsync itself — still amortized, because one waiter's
        // sync covers everything submitted before it ran. Either way
        // readers are never stuck behind the disk.
        let wait = waiter.map(|(waiter, seq)| CommitWait {
            part: self,
            waiter,
            seq,
        });
        Ok((ts, wait))
    }
}

/// Checks that every sequenced op's key is visible (or created earlier in
/// the same transaction), so apply cannot fail on a vanished key — the
/// overwhelmingly common apply failure, caught *before* the engine is
/// touched because the engines have no rollback.
fn preflight(engine: &dyn BitemporalEngine, ids: &[TableId], ops: &[Op]) -> Result<()> {
    let mut fresh: Vec<(u8, &Key)> = Vec::new();
    let mut fresh_rows: Vec<(u8, Key)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert { table, row, .. } => {
                let def = engine.table_def(ids[*table as usize]);
                fresh_rows.push((*table, Key::from_row(row, &def.key)));
            }
            Op::Update { table, key, .. }
            | Op::Delete { table, key, .. }
            | Op::OverwriteApp { table, key, .. } => {
                let created = fresh.iter().any(|(t, k)| t == table && *k == key)
                    || fresh_rows.iter().any(|(t, k)| t == table && k == key);
                if !created {
                    let out = engine.lookup_key(
                        ids[*table as usize],
                        key,
                        &SysSpec::Current,
                        &AppSpec::All,
                    )?;
                    if out.rows.is_empty() {
                        return Err(Error::KeyNotFound(format!("{key} in table index {table}")));
                    }
                    fresh.push((*table, key));
                }
            }
        }
    }
    Ok(())
}

/// The durability wait a publish still owes. Dropping it without calling
/// [`Self::wait`] skips the wait entirely — callers that need the
/// durability contract must call it.
#[must_use = "the commit is published but not yet durable: call wait()"]
pub(crate) struct CommitWait<'a> {
    part: &'a Participant,
    waiter: DurabilityWaiter,
    seq: u64,
}

impl CommitWait<'_> {
    /// Blocks until the record is durable under the WAL's mode. On
    /// failure the record is published and written but its durability is
    /// unknown (the fsync failed or the flusher died), so the in-memory
    /// state may be ahead of what the log preserves. Fail-stop: the
    /// participant poisons rather than letting later commits build on a
    /// possibly-lost prefix — the one honest ambiguity in the protocol.
    pub(crate) fn wait(self) -> Result<()> {
        self.waiter.wait_for(self.seq).map_err(|e| {
            self.part
                .poison(format!("commit published but durability is unknown: {e}"))
        })
    }
}
