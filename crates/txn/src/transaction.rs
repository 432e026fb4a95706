//! An open transaction: a pinned snapshot plus the write buffer it will
//! commit, and the buffer-time validation every write passes through.

use crate::commit_log::WriteEntry;
use crate::{Cut, Snapshot, TxnManager};
use bitempo_core::{
    AppPeriod, Error, Key, Result, Row, SysTime, TableDef, TableId, TemporalClass, Value,
};
use bitempo_histgen::{Op, Transaction as TxnOps};

/// One write that passed buffer-time validation against its table's
/// definition — arity, column bounds, temporal class, empty periods — so a
/// malformed op can never reach the apply loop, where a deterministic
/// failure would poison a participant. Carries the replayable [`Op`] and
/// the write-set entry it will be validated under.
pub(crate) struct CheckedOp {
    op: Op,
    write: WriteEntry,
}

impl CheckedOp {
    /// An insert of `row` valid for `app` into table `t` (defined by `def`).
    pub(crate) fn insert(
        t: u8,
        def: &TableDef,
        row: Row,
        app: Option<AppPeriod>,
    ) -> Result<CheckedOp> {
        if row.arity() != def.schema.arity() {
            return Err(Error::Invalid(format!(
                "arity {} vs schema {} for {}",
                row.arity(),
                def.schema.arity(),
                def.name
            )));
        }
        check_app_period(def, app.as_ref(), "application period")?;
        Ok(CheckedOp {
            write: WriteEntry {
                table: t,
                key: Key::from_row(&row, &def.key),
                app: app.unwrap_or(AppPeriod::ALL),
            },
            op: Op::Insert { table: t, row, app },
        })
    }

    /// A sequenced update of `key` for `portion`.
    pub(crate) fn update(
        t: u8,
        def: &TableDef,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<CheckedOp> {
        if let Some((col, _)) = updates.iter().find(|(c, _)| *c >= def.schema.arity()) {
            return Err(Error::Invalid(format!(
                "update column {col} out of range for {} (arity {})",
                def.name,
                def.schema.arity()
            )));
        }
        check_portion(def, portion.as_ref())?;
        Ok(CheckedOp {
            write: WriteEntry {
                table: t,
                key: key.clone(),
                app: portion.unwrap_or(AppPeriod::ALL),
            },
            op: Op::Update {
                table: t,
                key: key.clone(),
                updates: updates
                    .iter()
                    .map(|(c, v)| (*c as u16, v.clone()))
                    .collect(),
                portion,
            },
        })
    }

    /// A sequenced delete of `key` for `portion`.
    pub(crate) fn delete(
        t: u8,
        def: &TableDef,
        key: &Key,
        portion: Option<AppPeriod>,
    ) -> Result<CheckedOp> {
        check_portion(def, portion.as_ref())?;
        Ok(CheckedOp {
            write: WriteEntry {
                table: t,
                key: key.clone(),
                app: portion.unwrap_or(AppPeriod::ALL),
            },
            op: Op::Delete {
                table: t,
                key: key.clone(),
                portion,
            },
        })
    }

    /// An application-period overwrite of `key`. Conservatively conflicts
    /// with any concurrent write to the key: the overwrite rewrites every
    /// visible version's period, so no portion is safe.
    pub(crate) fn overwrite_app_period(
        t: u8,
        def: &TableDef,
        key: &Key,
        period: AppPeriod,
    ) -> Result<CheckedOp> {
        check_app_period(def, Some(&period), "application-period overwrite")?;
        Ok(CheckedOp {
            write: WriteEntry {
                table: t,
                key: key.clone(),
                app: AppPeriod::ALL,
            },
            op: Op::OverwriteApp {
                table: t,
                key: key.clone(),
                period,
            },
        })
    }
}

/// Buffer-time twin of the engines' deterministic period validation: a
/// given period on a table without application time is [`Error::Unsupported`],
/// an empty one is [`Error::EmptyPeriod`].
fn check_app_period(def: &TableDef, period: Option<&AppPeriod>, what: &str) -> Result<()> {
    match period {
        Some(_) if def.temporal != TemporalClass::Bitemporal => Err(Error::Unsupported(format!(
            "{what} on table {} without application time",
            def.name
        ))),
        Some(p) if p.is_empty() => Err(Error::EmptyPeriod(format!("{p}"))),
        _ => Ok(()),
    }
}

/// The portion variant of [`check_app_period`]: sequenced DML with an empty
/// portion is an engine-level no-op (it overlaps nothing), not an error, so
/// only the temporal-class check applies here.
fn check_portion(def: &TableDef, portion: Option<&AppPeriod>) -> Result<()> {
    if portion.is_some() && def.temporal != TemporalClass::Bitemporal {
        return Err(Error::Unsupported(format!(
            "FOR PORTION OF on table {} without application time",
            def.name
        )));
    }
    Ok(())
}

/// Checked writes in execution order, with the write set they will be
/// validated under (one entry per op).
#[derive(Default)]
pub(crate) struct OpBuffer {
    /// The ops, already in the shape the WAL encoders take.
    txn: TxnOps,
    writes: Vec<WriteEntry>,
}

impl OpBuffer {
    /// Appends a checked write.
    fn push(&mut self, op: CheckedOp) {
        self.txn.ops.push(op.op);
        self.writes.push(op.write);
    }

    /// True when nothing is buffered (a read-only transaction).
    pub(crate) fn is_empty(&self) -> bool {
        self.txn.ops.is_empty()
    }

    pub(crate) fn into_parts(self) -> (TxnOps, Vec<WriteEntry>) {
        (self.txn, self.writes)
    }
}

/// An open transaction: a pinned snapshot plus locally buffered writes,
/// over every participant of its manager. Dropping it without committing
/// is a rollback.
pub struct Transaction<'a> {
    pub(crate) mgr: &'a TxnManager,
    pub(crate) pin: SysTime,
    pub(crate) buf: OpBuffer,
    pub(crate) unpinned: bool,
}

impl<'a> Transaction<'a> {
    /// The snapshot's pinned system time.
    pub fn pin(&self) -> SysTime {
        self.pin
    }

    /// Opens the pinned snapshot of a standalone manager's one participant
    /// for reading. Holds its shared lock for the guard's lifetime —
    /// queries on it never block each other, and a committer waits only
    /// for guards currently open, not for the transaction's think time. A
    /// transaction over several participants reads through [`Self::read`].
    pub fn snapshot(&self) -> Snapshot<'a> {
        debug_assert_eq!(self.mgr.participants().len(), 1, "read a cut instead");
        self.mgr.participants()[0].snapshot_at(self.pin)
    }

    /// Opens the transaction's cut: every participant at the pin. Fails
    /// while a participant is poisoned.
    pub fn read(&self) -> Result<Cut<'a>> {
        self.mgr.read_at(self.pin)
    }

    /// Buffers a checked write; every participant holds the same tables,
    /// so the first one's cached definitions check for all of them.
    fn buffer(
        &mut self,
        table: TableId,
        check: impl FnOnce(u8, &TableDef) -> Result<CheckedOp>,
    ) -> Result<()> {
        let (t, def) = self.mgr.participants()[0].def_for(table)?;
        self.buf.push(check(t, def)?);
        Ok(())
    }

    /// Buffers an insert of `row` valid for `app`.
    pub fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        self.buffer(table, |t, def| CheckedOp::insert(t, def, row, app))
    }

    /// Buffers a sequenced update of `key` for `portion`.
    pub fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<()> {
        self.buffer(table, |t, def| {
            CheckedOp::update(t, def, key, updates, portion)
        })
    }

    /// Buffers a sequenced delete of `key` for `portion`.
    pub fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<()> {
        self.buffer(table, |t, def| CheckedOp::delete(t, def, key, portion))
    }

    /// Buffers an application-period overwrite of `key`. It conservatively
    /// conflicts with any concurrent write to the key: the overwrite
    /// rewrites every visible version's period, so no portion is safe.
    pub fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<()> {
        self.buffer(table, |t, def| {
            CheckedOp::overwrite_app_period(t, def, key, period)
        })
    }

    /// Releases the snapshot pin now rather than at drop. Idempotent.
    fn release_pin(&mut self) {
        if !self.unpinned {
            self.unpinned = true;
            self.mgr.unpin(self.pin);
        }
    }

    /// Discards the buffered writes and releases the snapshot pin —
    /// explicitly, so the release is symmetric with [`Self::commit`]'s
    /// release-at-publish rather than deferred to a later drop.
    pub fn rollback(mut self) {
        self.release_pin();
    }

    /// Validates, applies, logs and publishes the buffered writes, then
    /// waits for every participant's durability contract *outside* the
    /// publish locks. Returns the commit's system time (the pin itself for
    /// a read-only transaction, which neither validates nor logs anything).
    ///
    /// On [`Error::Conflict`] nothing was logged or applied; re-run the
    /// whole transaction against a fresh snapshot. On any other error,
    /// one of these states holds and the error says which: nothing applied
    /// (the preflight paths, and a cross-participant commit aborted before
    /// its first decision); a participant is poisoned *and its WAL holds no
    /// record of this transaction* (apply/submit failures — recovery never
    /// replays a transaction whose commit reported failure); a
    /// cross-participant commit was decided but a participant failed to
    /// apply it (it stands globally, and recovery finishes the straggler);
    /// or, rarest, the record was published and written but the
    /// durability wait itself failed — the participant poisons fail-stop,
    /// because whether that tail survives a crash is unknown.
    pub fn commit(mut self) -> Result<SysTime> {
        let buf = std::mem::take(&mut self.buf);
        // The manager releases the pin on every path from here on.
        self.unpinned = true;
        self.mgr.commit(self.pin, buf)
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        self.release_pin();
    }
}
