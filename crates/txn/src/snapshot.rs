//! Pinned read views: the guard a transaction reads through, and the
//! engine adapter that caps every system-time specification at the pin.

use crate::manager::EngineState;
use bitempo_core::{AppPeriod, Error, Key, Result, Row, SysTime, TableDef, TableId, Value};
use bitempo_engine::api::{
    AppSpec, BitemporalEngine, ColRange, ScanOutput, SysSpec, TableStats, TuningConfig,
};
use std::sync::RwLockReadGuard;

/// A read guard over the pinned snapshot. Obtain per query burst and drop
/// promptly: open guards are what a committer waits for.
pub struct Snapshot<'a> {
    guard: RwLockReadGuard<'a, EngineState>,
    pin: SysTime,
    /// The engine's commit watermark while this guard is held (constant:
    /// the guard excludes writers).
    now: SysTime,
    degraded: bool,
}

impl<'a> Snapshot<'a> {
    pub(crate) fn new(guard: RwLockReadGuard<'a, EngineState>, pin: SysTime) -> Snapshot<'a> {
        Snapshot {
            now: guard.engine.now(),
            degraded: guard.poisoned.is_some(),
            guard,
            pin,
        }
    }

    /// True when the owning manager is poisoned. The snapshot still
    /// serves the committed prefix (with the current-partition fast path
    /// disabled), but a poisoned *shard* may sit on the wrong side of a
    /// decided cross-shard commit its healthy siblings already show —
    /// cluster readers must treat a degraded member as fail-stop rather
    /// than assemble a non-atomic cut from it.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The read-only engine view at the pinned time. Implements the full
    /// [`BitemporalEngine`] read surface, so the workload query classes run
    /// on a snapshot exactly as they run on a raw engine.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            engine: self.guard.engine.as_ref(),
            pin: self.pin,
            // The current-partition fast path is sound only when the pin
            // is at (or past — a shard lagging the global oracle clock)
            // the newest commit and no poisoned pending state lingers.
            current_ok: self.pin >= self.now && !self.degraded,
        }
    }
}

/// [`BitemporalEngine`] adapter that rewrites every system-time
/// specification to the pinned snapshot. DML and schema changes are
/// rejected — writes go through [`crate::Transaction`] buffering.
pub struct SnapshotView<'a> {
    engine: &'a dyn BitemporalEngine,
    pin: SysTime,
    current_ok: bool,
}

impl SnapshotView<'_> {
    /// Rewrites `sys` so only versions committed at or before the pin are
    /// visible. See the crate docs for the row-visibility argument.
    fn sys_at_pin(&self, sys: &SysSpec) -> SysSpec {
        let t = self.pin;
        match sys {
            SysSpec::Current => {
                if self.current_ok {
                    SysSpec::Current
                } else {
                    SysSpec::AsOf(t)
                }
            }
            SysSpec::AsOf(x) => SysSpec::AsOf((*x).min(t)),
            // Half-open: end `t.next()` includes versions committed at
            // exactly `t` and excludes everything later.
            SysSpec::All => SysSpec::Range(bitempo_core::Period::new(SysTime::ZERO, t.next())),
            SysSpec::Range(p) => {
                let end = p.end.min(t.next());
                SysSpec::Range(bitempo_core::Period::new(p.start.min(end), end))
            }
        }
    }

    fn read_only_err<T>(&self, what: &str) -> Result<T> {
        Err(Error::Unsupported(format!(
            "{what} on a pinned snapshot: buffer writes on the Transaction instead"
        )))
    }
}

impl BitemporalEngine for SnapshotView<'_> {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn architecture(&self) -> &'static str {
        self.engine.architecture()
    }

    fn create_table(&mut self, _def: TableDef) -> Result<TableId> {
        self.read_only_err("create_table")
    }

    fn resolve(&self, name: &str) -> Result<TableId> {
        self.engine.resolve(name)
    }

    fn table_names(&self) -> Vec<String> {
        self.engine.table_names()
    }

    fn table_def(&self, table: TableId) -> &TableDef {
        self.engine.table_def(table)
    }

    fn apply_tuning(&mut self, _tuning: &TuningConfig) -> Result<()> {
        self.read_only_err("apply_tuning")
    }

    fn insert(&mut self, _table: TableId, _row: Row, _app: Option<AppPeriod>) -> Result<()> {
        self.read_only_err("insert")
    }

    fn update(
        &mut self,
        _table: TableId,
        _key: &Key,
        _updates: &[(usize, Value)],
        _portion: Option<AppPeriod>,
    ) -> Result<usize> {
        self.read_only_err("update")
    }

    fn delete(
        &mut self,
        _table: TableId,
        _key: &Key,
        _portion: Option<AppPeriod>,
    ) -> Result<usize> {
        self.read_only_err("delete")
    }

    fn overwrite_app_period(
        &mut self,
        _table: TableId,
        _key: &Key,
        _period: AppPeriod,
    ) -> Result<usize> {
        self.read_only_err("overwrite_app_period")
    }

    /// A snapshot has nothing to commit; its "commit time" is the pin.
    fn commit(&mut self) -> SysTime {
        self.pin
    }

    /// The snapshot's frozen notion of "now" — the pin, so any query that
    /// derives parameters from the commit watermark stays inside it.
    fn now(&self) -> SysTime {
        self.pin
    }

    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        self.engine.scan(table, &self.sys_at_pin(sys), app, preds)
    }

    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        self.engine
            .lookup_key(table, key, &self.sys_at_pin(sys), app)
    }

    fn stats(&self, table: TableId) -> TableStats {
        self.engine.stats(table)
    }

    fn snapshot_versions(&self, _table: TableId) -> Result<Vec<bitempo_engine::version::Version>> {
        self.read_only_err("snapshot_versions")
    }

    fn restore(
        &mut self,
        _table: TableId,
        _versions: Vec<bitempo_engine::version::Version>,
        _now: SysTime,
    ) -> Result<()> {
        self.read_only_err("restore")
    }
}
