//! A participant's half of two-phase commit between prepare and decision.

use crate::participant::{CommitWait, Log, Participant, Record};
use bitempo_core::{Error, Result, SysTime};
use bitempo_histgen::Transaction as TxnOps;
use bitempo_wal::DurabilityWaiter;

/// A transaction prepared on one participant by `Participant::prepare`:
/// ops preflighted and durably logged, nothing applied, the participant's
/// gate held by the caller until it resolves the transaction with
/// [`Self::commit`] or [`Self::abort`], under that gate's `&mut Log`.
/// Dropping it unresolved logs no decision — recovery then presumes abort,
/// which is also what [`Self::abort`] makes explicit.
pub(crate) struct PreparedTxn<'a> {
    pub(crate) part: &'a Participant,
    pub(crate) gts: u64,
    pub(crate) txn: TxnOps,
    /// Prepare-record durability handle (`None` without a WAL).
    pub(crate) logged: Option<(DurabilityWaiter, u64)>,
}

impl<'a> PreparedTxn<'a> {
    /// Blocks until the prepare record is durable under the participant's
    /// WAL mode — the barrier every participant must pass before any may
    /// decide commit. A failure here is clean: nothing applied, no
    /// decision logged, the caller aborts all participants.
    pub(crate) fn wait_prepared(&self) -> Result<()> {
        if let Some((waiter, seq)) = &self.logged {
            waiter
                .wait_for(*seq)
                .map_err(|e| Error::Internal(format!("prepare durability wait failed: {e}")))?;
        }
        Ok(())
    }

    /// Applies the prepared ops, logs the commit decision, and publishes
    /// at exactly the prepared `gts` — the same pipeline as a
    /// single-participant commit, minus the preflight prepare already did.
    /// A failure poisons this participant fail-stop; the decision stands on
    /// participants that already committed.
    pub(crate) fn commit(self, log: &mut Log) -> Result<(SysTime, Option<CommitWait<'a>>)> {
        self.part.commit(log, self.txn, Record::Decision(self.gts))
    }

    /// Logs an explicit abort decision (recovery would presume it anyway;
    /// the record just spares the scan). Applies nothing, so it takes no
    /// lock beyond the gate the caller holds.
    pub(crate) fn abort(self, log: &mut Log) -> Result<()> {
        if self.logged.is_some() {
            let payload = bitempo_wal::encode_decision(self.gts, false);
            self.part.log_record(log, &payload, "abort decision")?;
        }
        Ok(())
    }
}
