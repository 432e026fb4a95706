//! The shard-local half of two-phase commit between prepare and decision.

use crate::manager::{Record, TxnManager};
use crate::transaction::OpBuffer;
use crate::CommitWait;
use bitempo_core::{Error, Result, SysTime};
use bitempo_wal::DurabilityWaiter;

/// A transaction prepared on this shard by [`TxnManager::prepare`]: ops
/// preflighted and durably logged, nothing applied, no pin held. Resolved
/// by [`Self::commit`] or [`Self::abort`]; dropping it unresolved logs no
/// decision — recovery then presumes abort, which is also what
/// [`Self::abort`] makes explicit.
pub struct PreparedTxn<'a> {
    pub(crate) mgr: &'a TxnManager,
    pub(crate) gts: u64,
    pub(crate) buf: OpBuffer,
    /// Prepare-record durability handle (`None` without a WAL).
    pub(crate) logged: Option<(DurabilityWaiter, u64)>,
}
impl<'a> PreparedTxn<'a> {
    /// The global commit timestamp (and transaction id) this prepare
    /// carries.
    pub fn gts(&self) -> u64 {
        self.gts
    }

    /// Blocks until the prepare record is durable under the shard's WAL
    /// mode — the barrier every participant must pass before any shard
    /// may decide commit. A failure here is clean: nothing applied, no
    /// decision logged, the caller aborts all participants.
    pub fn wait_prepared(&self) -> Result<()> {
        if let Some((waiter, seq)) = &self.logged {
            waiter
                .wait_for(*seq)
                .map_err(|e| Error::Internal(format!("prepare durability wait failed: {e}")))?;
        }
        Ok(())
    }

    /// Applies the prepared ops, logs the commit decision, and publishes
    /// at exactly the prepared `gts` — the same pipeline as a single-shard
    /// commit, minus the validation prepare already did. A failure
    /// poisons this shard fail-stop; the decision stands on shards that
    /// already committed.
    pub fn commit(self) -> Result<(SysTime, Option<CommitWait<'a>>)> {
        self.mgr
            .commit_pipeline(self.buf, Record::Decision(self.gts))
    }

    /// Logs an explicit abort decision (recovery would presume it anyway;
    /// the record just spares the scan). Applies nothing.
    pub fn abort(self) -> Result<()> {
        if self.logged.is_some() {
            let payload = bitempo_wal::encode_decision(self.gts, false);
            let (_, seq) = self.mgr.submit_unapplied(&payload, "abort decision")?;
            let mut st = self.mgr.state.write().expect("txn state poisoned");
            st.applied_seq = seq;
        }
        Ok(())
    }
}
