//! The coordinator: snapshot pins, the first-committer-wins log, commit
//! timestamps and the counters, once, over `n ≥ 1` participants — and the
//! commit protocol every transaction runs through them.

use crate::commit_log::{CommitLog, WriteEntry};
use crate::participant::{CommitWait, Log, Participant, Record};
use crate::prepared::PreparedTxn;
use crate::transaction::OpBuffer;
use crate::{CommitOracle, Cut, Transaction};
use bitempo_core::{Error, Key, Result, SysTime, TableId};
use bitempo_engine::api::BitemporalEngine;
use bitempo_histgen::Transaction as TxnOps;
use bitempo_wal::{Checkpoint, TxnWal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Monotonic counters: the commit classes and conflict rates of the `mvcc`
/// and `sharding` experiments. The pins are counted once, by the commit
/// log ([`TxnManager::active_pins`]).
#[derive(Debug, Default)]
pub struct TxnCounters {
    /// Writing commits that landed on exactly one participant.
    pub single_shard: AtomicU64,
    /// Writing commits that ran two-phase commit across participants.
    pub cross_shard: AtomicU64,
    /// Read-only commits (no participant, no timestamp drawn).
    pub read_only: AtomicU64,
    /// Transactions aborted by first-committer-wins validation.
    pub conflicts: AtomicU64,
}

impl TxnCounters {
    /// Transactions committed, read-only commits included: every commit
    /// counts in exactly one of the three classes.
    pub fn committed(&self) -> u64 {
        [&self.single_shard, &self.cross_shard, &self.read_only]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Where commit timestamps come from, and the watermark transactions pin.
pub(crate) enum Clock {
    /// The one participant's own commit clock: a commit lands at the
    /// engine's next commit time with a [`Record::Plain`] WAL record. Holds
    /// the newest published commit.
    Local(AtomicU64),
    /// A shared oracle over several participants (or one, in a 1-shard
    /// cluster): a commit lands at the timestamp drawn after validation.
    Oracle(CommitOracle),
}

impl Clock {
    /// The newest time every commit at or below has published.
    fn read_ts(&self) -> SysTime {
        match self {
            Clock::Local(ts) => SysTime(ts.load(Ordering::Acquire)),
            Clock::Oracle(o) => o.read_ts(),
        }
    }
}

/// The MVCC front-end: one coordinator over one participant (a standalone
/// manager, [`Self::new`]) or several (a sharded cluster,
/// [`Self::sharded`]). See the crate docs for the model.
///
/// Lock hierarchy, outermost first: participant gates (ascending index) →
/// `commit_log` → oracle. A participant's `state` nests inside its gate and
/// never overlaps `commit_log`; its WAL lives in the gate and is submitted
/// to with `state` released.
pub struct TxnManager {
    participants: Vec<Participant>,
    /// `route(key, n)` is the participant that owns `key`.
    route: fn(&Key, usize) -> usize,
    pub(crate) clock: Clock,
    /// First-committer-wins records and the snapshot pins that floor their
    /// pruning. Held for one statement at a time.
    pub(crate) commit_log: Mutex<CommitLog>,
    counters: TxnCounters,
}

impl TxnManager {
    /// Wraps a loaded engine as a standalone manager. `ids` must be the
    /// engine's tables in archive load order (at most 256, the
    /// [`bitempo_histgen::Op`] addressing limit); `wal`, when present,
    /// receives one record per committed writing transaction, encoded
    /// exactly as the durability driver's —
    /// [`bitempo_wal::recover`](fn@bitempo_wal::recover) replays
    /// interactive history and replayed history identically.
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
        let now = engine.now();
        let part = Participant::new(engine, ids, wal)?;
        Ok(TxnManager::over(
            vec![part],
            |_, _| 0,
            Clock::Local(AtomicU64::new(now.0)),
        ))
    }

    /// The coordinator over the participants of `shards` (each built by
    /// [`Self::new`] over an engine of one kind holding a *disjoint* key
    /// partition of the same tables), routing keys by `route`. Commits
    /// land at timestamps from one [`CommitOracle`], which starts from the
    /// newest participant clock, so the first issued timestamp is newer
    /// than anything any participant holds.
    pub fn sharded(shards: Vec<TxnManager>, route: fn(&Key, usize) -> usize) -> Result<TxnManager> {
        let participants: Vec<Participant> =
            shards.into_iter().flat_map(|m| m.participants).collect();
        let first = participants
            .first()
            .ok_or_else(|| Error::Invalid("a cluster needs at least one shard".into()))?;
        // One table layout on every participant is what lets one
        // `TableId` — and one checked op — address all of them.
        for (i, p) in participants.iter().enumerate() {
            if p.table_ids() != first.table_ids() {
                return Err(Error::Invalid(format!(
                    "shard {i} disagrees with shard 0 on table layout"
                )));
            }
        }
        let start = participants
            .iter()
            .map(Participant::now)
            .max()
            .unwrap_or(SysTime::ZERO);
        let clock = Clock::Oracle(CommitOracle::new(start));
        Ok(TxnManager::over(participants, route, clock))
    }

    fn over(
        participants: Vec<Participant>,
        route: fn(&Key, usize) -> usize,
        clock: Clock,
    ) -> TxnManager {
        TxnManager {
            participants,
            route,
            clock,
            commit_log: Mutex::new(CommitLog::default()),
            counters: TxnCounters::default(),
        }
    }

    /// The commit counters.
    pub fn counters(&self) -> &TxnCounters {
        &self.counters
    }

    /// The participants, in routing order.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Table ids in load order (the same on every participant).
    pub fn table_ids(&self) -> &[TableId] {
        self.participants[0].table_ids()
    }

    /// The read watermark: the newest time at which every commit has
    /// published, and the pin [`Self::begin`] takes.
    pub fn read_ts(&self) -> SysTime {
        self.clock.read_ts()
    }

    /// Number of currently registered snapshot pins (the pruning floor's
    /// population). Zero once every transaction has committed, rolled
    /// back, or dropped — the balance the isolation suites assert.
    pub fn active_pins(&self) -> usize {
        let log = self.commit_log.lock().expect("commit log poisoned");
        log.active_pins()
    }

    /// Begins a transaction pinned at the read watermark. Its snapshot
    /// sees exactly that commit-prefix state; writes buffer locally until
    /// [`Transaction::commit`]. Refused while a participant is poisoned.
    pub fn begin(&self) -> Result<Transaction<'_>> {
        for p in &self.participants {
            p.live()?;
        }
        let pin = {
            // Read the watermark and register the pin under the log lock,
            // so no concurrent committer can prune entries newer than the
            // watermark in between.
            let mut log = self.commit_log.lock().expect("commit log poisoned");
            let pin = self.clock.read_ts();
            log.pin(pin);
            pin
        };
        Ok(Transaction {
            mgr: self,
            pin,
            buf: OpBuffer::default(),
            unpinned: false,
        })
    }

    /// Opens read guards on every participant pinned at `at`, which must
    /// be at or below the watermark for a consistent cut. Needs no pin:
    /// pins only guard the first-committer-wins log, which reads never
    /// consult.
    pub fn read_at(&self, at: SysTime) -> Result<Cut<'_>> {
        let mut snaps = Vec::with_capacity(self.participants.len());
        for (i, p) in self.participants.iter().enumerate() {
            let snap = p.snapshot_at(at);
            // A poisoned participant may be missing a decided commit its
            // healthy siblings already serve, so any cut that includes it
            // can be non-atomic at watermarks past the failure. Fail-stop
            // until recovery rebuilds it.
            if snap.degraded() {
                return Err(Error::Internal(format!(
                    "shard {i} is poisoned: cluster snapshots are unavailable until recovery"
                )));
            }
            snaps.push(snap);
        }
        Ok(Cut {
            snaps,
            at,
            route: self.route,
        })
    }

    /// Captures a durability checkpoint of a standalone manager's state,
    /// labelled with the exact WAL sequence number it covers. Runs under
    /// the participant's gate, then its *write* lock: a checkpoint can
    /// never interleave with a commit, so the transaction committing
    /// concurrently with capture is either fully inside it (its engine
    /// commit and its WAL record both, and `seq` covers the record) or
    /// fully after it (and recovery replays it) — never half-captured.
    /// Refused while the participant is poisoned.
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        match self.participants.as_slice() {
            [only] => only.checkpoint(),
            _ => Err(Error::Invalid(
                "checkpoint each shard of a cluster on its own".into(),
            )),
        }
    }

    /// Shuts a standalone manager down: closes the WAL (surfacing any sink
    /// failure and the durable watermark) and returns the engine with its
    /// ids.
    pub fn close(self) -> Result<(Box<dyn BitemporalEngine>, Vec<TableId>, u64)> {
        let mut parts = self.into_participants();
        match (parts.pop(), parts.is_empty()) {
            (Some(only), true) => only.close(),
            _ => Err(Error::Invalid("close a cluster shard by shard".into())),
        }
    }

    /// The participants, in routing order, once the manager is gone.
    pub fn into_participants(self) -> Vec<Participant> {
        self.participants
    }

    /// Releases one snapshot pin.
    pub(crate) fn unpin(&self, pin: SysTime) {
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        log.unpin(pin);
    }

    /// Commits `buf` for a transaction pinned at `pin` and releases the
    /// pin, on every path. Under the gate of every participant the writes
    /// touch (ascending index, the workspace lock order; conflicting
    /// committers share a key, hence a participant, hence a gate) it
    /// validates first-committer-wins, draws the timestamp and lands the
    /// ops: one participant commits directly, several run two-phase commit.
    /// It publishes into the commit log and the watermark before the gates
    /// drop, and waits for durability after.
    pub(crate) fn commit(&self, pin: SysTime, buf: OpBuffer) -> Result<SysTime> {
        if buf.is_empty() {
            self.unpin(pin);
            self.counters.read_only.fetch_add(1, Ordering::Relaxed);
            return Ok(pin);
        }
        let (txn, writes) = buf.into_parts();
        let n = self.participants.len();
        let home = (self.route)(&writes[0].key, n);
        if writes.iter().any(|w| (self.route)(&w.key, n) != home) {
            return self.commit_across(pin, txn, writes);
        }
        let part = &self.participants[home];
        let (ts, wait) = {
            let mut log = part.gate.lock().expect("commit gate poisoned");
            let gts = self.validate(pin, &writes)?;
            let record = gts.map_or(Record::Plain, Record::CommittedAt);
            // An `Err` here never published nor logged: preflight refused,
            // or apply/submit poisoned the participant *without* a record.
            let landed = part
                .commit(&mut log, txn, record)
                .map_err(|e| self.abandon(pin, gts, e))?;
            self.publish(pin, landed.0, writes);
            landed
        };
        self.counters.single_shard.fetch_add(1, Ordering::Relaxed);
        // The durability wait belongs outside every lock: one participant's
        // fsync must never serialize another's committers, nor readers.
        if let Some(wait) = wait {
            wait.wait()?;
        }
        Ok(ts)
    }

    /// [`Self::commit`] for writes that route to several participants.
    fn commit_across(&self, pin: SysTime, txn: TxnOps, writes: Vec<WriteEntry>) -> Result<SysTime> {
        let n = self.participants.len();
        let mut parts: Vec<TxnOps> = (0..n).map(|_| TxnOps::default()).collect();
        for (op, w) in txn.ops.into_iter().zip(&writes) {
            parts[(self.route)(&w.key, n)].ops.push(op);
        }
        // The gate of each participant the writes touch, ascending.
        let mut gates: Vec<MutexGuard<'_, Log>> = self
            .participants
            .iter()
            .zip(&parts)
            .filter(|(_, ops)| !ops.ops.is_empty())
            .map(|(p, _)| p.gate.lock().expect("commit gate poisoned"))
            .collect();
        let gts = self.validate(pin, &writes)?;
        let gts = gts.expect("several participants share an oracle");
        let (outcome, waits) = match self.two_phase(parts, &mut gates, gts) {
            Ok(waits) => (Ok(SysTime(gts)), waits),
            // At least one participant logged a commit decision: the
            // transaction *is* committed globally (recovery finishes the
            // stragglers), so the log and the watermark must reflect it
            // even though the failure is reported to the caller.
            Err((e, Some(waits))) => (Err(e), waits),
            Err((e, None)) => return Err(self.abandon(pin, Some(gts), e)),
        };
        self.publish(pin, SysTime(gts), writes);
        if outcome.is_ok() {
            self.counters.cross_shard.fetch_add(1, Ordering::Relaxed);
        }
        // A decided failure honors the committed participants' waits too:
        // "decided" must mean *durably* decided before this returns, or a
        // crash right after could lose every decision record while readers
        // had already observed the commit. There a wait failure poisons
        // its participant fail-stop on its own; the error returned already
        // tells the caller recovery is needed.
        drop(gates);
        for w in waits {
            let waited = w.wait();
            if outcome.is_ok() {
                waited?;
            }
        }
        outcome
    }

    /// First-committer-wins for a transaction pinned at `pin`, then the
    /// timestamp draw: the oracle's next, or `None` when the participant's
    /// own clock stamps the commit. Runs under the gates of every
    /// participant `writes` touch: any conflicting commit either already
    /// published its record (seen here) or queues behind a held gate (and
    /// will see ours). A conflict releases the pin.
    fn validate(&self, pin: SysTime, writes: &[WriteEntry]) -> Result<Option<u64>> {
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        if let Some((ts, theirs)) = log.first_conflict(pin, writes) {
            let err = Error::Conflict(format!(
                "table {} key {} app {:?}: written by the transaction \
                 committed at {ts} after this snapshot's pin {pin}",
                theirs.table, theirs.key, theirs.app
            ));
            log.unpin(pin);
            drop(log);
            self.counters.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(err);
        }
        Ok(match &self.clock {
            Clock::Local(_) => None,
            Clock::Oracle(o) => Some(o.begin_commit()),
        })
    }

    /// Gives up a commit that decided nothing: burns its timestamp, if it
    /// drew one, and releases the pin. Returns `e`.
    fn abandon(&self, pin: SysTime, gts: Option<u64>, e: Error) -> Error {
        if let (Some(g), Clock::Oracle(o)) = (gts, &self.clock) {
            o.abort(g);
        }
        self.unpin(pin);
        e
    }

    /// Logs the write set committed at `ts`, advances the watermark,
    /// releases the committer's pin and prunes what no remaining pin can
    /// still conflict with — one acquisition of the log. Called with the
    /// participating gates held, so any later committer sharing a
    /// participant observes the entry.
    pub(crate) fn publish(&self, pin: SysTime, ts: SysTime, writes: Vec<WriteEntry>) {
        let mut log = self.commit_log.lock().expect("commit log poisoned");
        log.insert(ts, writes);
        // Advance the watermark *while still holding the log*: begin()
        // reads it under this same lock, so a concurrent transaction either
        // pins before this publish — its pin floors the prune below — or
        // after it, at a watermark past everything pruned here.
        match &self.clock {
            Clock::Local(published) => published.store(ts.0, Ordering::Release),
            Clock::Oracle(o) => o.publish(ts.0),
        }
        log.unpin(pin);
        // The idle floor is the *watermark*, never `ts` itself: with older
        // oracle commits still in flight the watermark (and any future pin)
        // can sit well below `ts`, and a transaction pinned there must
        // still find this entry to validate against.
        log.prune(self.clock.read_ts());
    }

    /// Two-phase commit of `parts[i]` on participant `i` (empty parts skip
    /// their participant) at `gts`; `gates` holds, in order, the gate of
    /// each participant with a non-empty part. On error the second slot
    /// says whether a commit decision was already logged somewhere:
    /// `Some(waits)` means the transaction stands globally and carries the
    /// committed participants' durability waits, which the caller must
    /// still honor; `None` means nothing decided — globally an abort.
    fn two_phase(
        &self,
        parts: Vec<TxnOps>,
        gates: &mut [MutexGuard<'_, Log>],
        gts: u64,
    ) -> std::result::Result<Vec<CommitWait<'_>>, (Error, Option<Vec<CommitWait<'_>>>)> {
        // Phase one: prepare everywhere, each participant under its own
        // gate. Any failure — a poisoned participant, a vanished key —
        // aborts every prepare already logged, explicitly, though recovery
        // would presume it.
        let mut prepared: Vec<PreparedTxn<'_>> = Vec::with_capacity(parts.len());
        let touched = self.participants.iter().zip(parts);
        for (i, (p, ops)) in touched.filter(|(_, ops)| !ops.ops.is_empty()).enumerate() {
            match p.prepare(&mut gates[i], ops, gts) {
                Ok(prep) => prepared.push(prep),
                Err(e) => {
                    abort_all(prepared.into_iter().zip(gates.iter_mut()));
                    return Err((e, None));
                }
            }
        }

        // The prepare barrier: every participant's prepare record must be
        // durable before any participant logs a decision — this is what
        // makes an observed decision sufficient evidence for recovery to
        // commit every participant. Blocking on the flusher under the held
        // gates is the price of that guarantee, paid per cross-participant
        // commit; releasing them before the barrier would let another
        // commit interleave WAL records between our prepares and decisions.
        if let Err(e) = prepared.iter().try_for_each(PreparedTxn::wait_prepared) {
            abort_all(prepared.into_iter().zip(gates.iter_mut()));
            return Err((e, None));
        }

        // Phase two: decide commit everywhere. After the first durable
        // decision the transaction stands; a later participant failing to
        // apply is poisoned fail-stop and recovery converges it from the
        // decision evidence, so the healthy participants keep committing.
        let mut waits = Vec::with_capacity(prepared.len());
        let mut decided = false;
        let mut failure: Option<Error> = None;
        let mut rest = prepared.into_iter().zip(gates.iter_mut());
        while let Some((p, log)) = rest.next() {
            match p.commit(log) {
                Ok((_ts, wait)) => {
                    decided = true;
                    waits.extend(wait);
                }
                Err(e) => {
                    if !decided {
                        // No decision logged anywhere yet: globally this is
                        // an abort, and the remaining prepares say so.
                        abort_all(rest);
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
}

/// Logs an abort decision for each prepared transaction, under its
/// participant's gate.
fn abort_all<'a, 'g: 'a>(
    prepared: impl Iterator<Item = (PreparedTxn<'a>, &'a mut MutexGuard<'g, Log>)>,
) {
    for (p, log) in prepared {
        // An abort that fails to log poisons its participant; the
        // transaction's outcome (aborted) is already decided, so the error
        // is not ours to propagate — recovery presumes the abort anyway.
        let _ = p.abort(log);
    }
}
