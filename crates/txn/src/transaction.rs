//! An open transaction: a pinned snapshot plus the write buffer it will
//! commit, and the buffer-time validation every write passes through.

use crate::commit_log::WriteEntry;
use crate::manager::{EngineState, Record, TxnManager};
use crate::Snapshot;
use bitempo_core::{
    AppPeriod, Error, Key, Result, Row, SysTime, TableDef, TableId, TemporalClass, Value,
};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_histgen::{Op, Transaction as TxnOps};
use std::sync::atomic::Ordering;

/// One write that passed buffer-time validation against its table's
/// definition — arity, column bounds, temporal class, empty periods — so a
/// malformed op can never reach the apply loop, where a deterministic
/// failure would poison the manager. Carries the replayable [`Op`] and the
/// write-set entry it will be validated under.
pub struct CheckedOp {
    op: Op,
    write: WriteEntry,
}

impl CheckedOp {
    /// An insert of `row` valid for `app` into table `t` (defined by `def`).
    pub fn insert(t: u8, def: &TableDef, row: Row, app: Option<AppPeriod>) -> Result<CheckedOp> {
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
    pub fn update(
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
    pub fn delete(
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
    pub fn overwrite_app_period(
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

    /// The primary key the op touches (what a router shards on).
    pub fn key(&self) -> &Key {
        &self.write.key
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
/// validated under. A [`Transaction`] owns one; a cluster transaction owns
/// one per shard and hands each participant's to [`TxnManager::commit_at`]
/// or [`TxnManager::prepare`] at commit.
#[derive(Default)]
pub struct OpBuffer {
    /// The ops, already in the shape the WAL encoders take.
    txn: TxnOps,
    writes: Vec<WriteEntry>,
}

impl OpBuffer {
    /// Appends a checked write.
    pub fn push(&mut self, op: CheckedOp) {
        self.txn.ops.push(op.op);
        self.writes.push(op.write);
    }

    /// True when nothing is buffered (a read-only transaction).
    pub fn is_empty(&self) -> bool {
        self.txn.ops.is_empty()
    }

    /// The write set, one entry per buffered op.
    pub fn writes(&self) -> &[WriteEntry] {
        &self.writes
    }

    pub(crate) fn txn(&self) -> &TxnOps {
        &self.txn
    }

    pub(crate) fn into_parts(self) -> (TxnOps, Vec<WriteEntry>) {
        (self.txn, self.writes)
    }
}

/// Checks that every sequenced op's key is visible (or created earlier in
/// the same transaction), so apply cannot fail on a vanished key.
pub(crate) fn preflight(st: &EngineState, ops: &[Op]) -> Result<()> {
    let mut fresh: Vec<(u8, &Key)> = Vec::new();
    let mut fresh_rows: Vec<(u8, Key)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert { table, row, .. } => {
                let def = st.engine.table_def(st.ids[*table as usize]);
                fresh_rows.push((*table, Key::from_row(row, &def.key)));
            }
            Op::Update { table, key, .. }
            | Op::Delete { table, key, .. }
            | Op::OverwriteApp { table, key, .. } => {
                let created = fresh.iter().any(|(t, k)| t == table && *k == key)
                    || fresh_rows.iter().any(|(t, k)| t == table && k == key);
                if !created {
                    let out = st.engine.lookup_key(
                        st.ids[*table as usize],
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

/// An open transaction: a pinned snapshot plus locally buffered writes.
/// Dropping it without committing is a rollback.
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

    /// Opens the pinned snapshot for reading. Holds the manager's shared
    /// lock for the guard's lifetime — queries on it never block each
    /// other, and a committer waits only for guards currently open, not
    /// for the transaction's think time.
    pub fn snapshot(&self) -> Snapshot<'_> {
        let guard = self.mgr.state.read().expect("txn state poisoned");
        Snapshot::new(guard, self.pin)
    }

    /// Buffers an insert of `row` valid for `app`.
    pub fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        let (t, def) = self.mgr.def_for(table)?;
        self.buf.push(CheckedOp::insert(t, def, row, app)?);
        Ok(())
    }

    /// Buffers a sequenced update of `key` for `portion`.
    pub fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<()> {
        let (t, def) = self.mgr.def_for(table)?;
        self.buf
            .push(CheckedOp::update(t, def, key, updates, portion)?);
        Ok(())
    }

    /// Buffers a sequenced delete of `key` for `portion`.
    pub fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<()> {
        let (t, def) = self.mgr.def_for(table)?;
        self.buf.push(CheckedOp::delete(t, def, key, portion)?);
        Ok(())
    }

    /// Buffers an application-period overwrite of `key` (see
    /// [`CheckedOp::overwrite_app_period`] for its conflict footprint).
    pub fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<()> {
        let (t, def) = self.mgr.def_for(table)?;
        self.buf
            .push(CheckedOp::overwrite_app_period(t, def, key, period)?);
        Ok(())
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
    /// waits for the WAL's durability contract *outside* the publish lock.
    /// Returns the commit's system time (the pin itself for a read-only
    /// transaction, which neither validates nor logs anything).
    ///
    /// On [`Error::Conflict`] nothing was logged or applied; re-run the
    /// whole transaction against a fresh snapshot. On any other error,
    /// one of three states holds and the error says which: nothing applied
    /// (the validation and preflight paths); the manager is poisoned *and
    /// the WAL holds no record of this transaction* (apply/submit
    /// failures — recovery never replays a transaction whose commit
    /// reported failure); or, rarest, the record was published and written
    /// but the durability wait itself failed — the manager poisons
    /// fail-stop, because whether that tail survives a crash is unknown.
    pub fn commit(mut self) -> Result<SysTime> {
        if self.buf.is_empty() {
            self.mgr.counters.committed.fetch_add(1, Ordering::Relaxed);
            self.release_pin();
            return Ok(self.pin);
        }
        let buf = std::mem::take(&mut self.buf);
        let (ts, wait) = self
            .mgr
            .commit_pipeline(buf, Record::Plain { pin: self.pin })?;
        self.unpinned = true; // released at publish
        if let Some(wait) = wait {
            wait.wait()?;
        }
        Ok(ts)
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        self.release_pin();
    }
}
