//! Pinned read views: the guard a transaction reads through, the cut of
//! every participant at one time, and the one engine adapter that caps
//! every system-time specification at the pin — over one participant's
//! snapshot or over a cut of several.

use bitempo_core::{AppPeriod, Error, Key, Result, Row, SysTime, TableDef, TableId, Value};
use bitempo_engine::api::{
    AppSpec, BitemporalEngine, ColRange, ScanOutput, SysSpec, TableStats, TuningConfig,
};
use bitempo_engine::rowscan::merge_access;
use bitempo_engine::Version;
use std::sync::RwLockReadGuard;

/// A read guard over the pinned snapshot. Obtain per query burst and drop
/// promptly: open guards are what a committer waits for.
pub struct Snapshot<'a> {
    guard: RwLockReadGuard<'a, Box<dyn BitemporalEngine>>,
    pin: SysTime,
    /// The engine's commit watermark while this guard is held (constant:
    /// the guard excludes writers).
    now: SysTime,
    degraded: bool,
}

impl<'a> Snapshot<'a> {
    pub(crate) fn new(
        guard: RwLockReadGuard<'a, Box<dyn BitemporalEngine>>,
        pin: SysTime,
        degraded: bool,
    ) -> Snapshot<'a> {
        Snapshot {
            now: guard.now(),
            degraded,
            guard,
            pin,
        }
    }

    /// True when the owning participant is poisoned. The snapshot still
    /// serves the committed prefix (with the current-partition fast path
    /// disabled), but a poisoned participant may sit on the wrong side of
    /// a decided cross-participant commit its healthy siblings already
    /// show — a [`Cut`] treats a degraded member as fail-stop rather than
    /// assemble a non-atomic cut from it.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The read-only engine view at the pinned time. Implements the full
    /// [`BitemporalEngine`] read surface, so the workload query classes run
    /// on a snapshot exactly as they run on a raw engine.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView::over(std::slice::from_ref(self), |_, _| 0)
    }

    fn engine(&self) -> &dyn BitemporalEngine {
        self.guard.as_ref()
    }

    /// Rewrites `sys` so only versions committed at or before the pin are
    /// visible. See the crate docs for the row-visibility argument.
    fn sys_at_pin(&self, sys: &SysSpec) -> SysSpec {
        let t = self.pin;
        match sys {
            // The current-partition fast path is sound only when the pin
            // is at (or past — a shard lagging the global oracle clock)
            // this engine's newest commit and no poisoned pending state
            // lingers.
            SysSpec::Current if self.pin >= self.now && !self.degraded => SysSpec::Current,
            SysSpec::Current => SysSpec::AsOf(t),
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
}

/// Open read guards on every participant, all pinned at one time. Obtain
/// per query burst and drop promptly: the guards are what a committer on
/// each participant waits for.
pub struct Cut<'a> {
    pub(crate) snaps: Vec<Snapshot<'a>>,
    pub(crate) at: SysTime,
    pub(crate) route: fn(&Key, usize) -> usize,
}

impl Cut<'_> {
    /// The pinned time.
    pub fn at(&self) -> SysTime {
        self.at
    }

    /// The read-only engine view over every participant: scans fan out
    /// and concatenate, key lookups route to the owning participant, and
    /// each caps every system-time specification at the pinned time.
    /// Implements the full [`BitemporalEngine`] read surface, so the
    /// workload query classes run on a cut exactly as they run on one
    /// engine.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView::over(&self.snaps, self.route)
    }
}

/// [`BitemporalEngine`] adapter over snapshots pinned at one time: one
/// participant's, or every participant's of a [`Cut`]. Scans fan out to every
/// member and concatenate, key lookups go to the member `route` names, and
/// each member caps the system-time specification at the pin against its
/// own watermark. DML and schema changes are rejected — writes are
/// buffered on a transaction.
pub struct SnapshotView<'a> {
    snaps: &'a [Snapshot<'a>],
    route: fn(&Key, usize) -> usize,
    /// The members' common pin.
    pin: SysTime,
}

impl<'a> SnapshotView<'a> {
    /// The view over `snaps`, which must be non-empty and pinned at one
    /// time; `route(key, snaps.len())` is the member that owns `key`.
    pub fn over(snaps: &'a [Snapshot<'a>], route: fn(&Key, usize) -> usize) -> SnapshotView<'a> {
        let pin = snaps
            .first()
            .expect("a view reads at least one snapshot")
            .pin;
        debug_assert!(snaps.iter().all(|s| s.pin == pin), "members pinned apart");
        SnapshotView { snaps, route, pin }
    }

    /// The catalog member: every member holds the same tables.
    fn first(&self) -> &dyn BitemporalEngine {
        self.snaps[0].engine()
    }

    fn read_only_err<T>(&self, what: &str) -> Result<T> {
        Err(Error::Unsupported(format!(
            "{what} on a pinned snapshot: buffer writes on a transaction instead"
        )))
    }
}

impl BitemporalEngine for SnapshotView<'_> {
    fn name(&self) -> &'static str {
        self.first().name()
    }

    fn architecture(&self) -> &'static str {
        self.first().architecture()
    }

    fn create_table(&mut self, _def: TableDef) -> Result<TableId> {
        self.read_only_err("create_table")
    }

    fn resolve(&self, name: &str) -> Result<TableId> {
        self.first().resolve(name)
    }

    fn table_names(&self) -> Vec<String> {
        self.first().table_names()
    }

    fn table_def(&self, table: TableId) -> &TableDef {
        self.first().table_def(table)
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
        let scan = |s: &Snapshot<'_>| s.engine().scan(table, &s.sys_at_pin(sys), app, preds);
        let mut out = scan(&self.snaps[0])?;
        if self.snaps.len() > 1 {
            // Partitioning is by key, so the union of the per-member row
            // sets *is* the single-engine row set; callers needing a
            // canonical order sort, exactly as they do across engines with
            // different physical scan orders.
            for s in &self.snaps[1..] {
                let part = scan(s)?;
                out.rows.extend(part.rows);
                out.partition_paths.extend(part.partition_paths);
                out.metrics.merge(&part.metrics);
            }
            out.access = merge_access(&out.partition_paths);
        }
        Ok(out)
    }

    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        let s = &self.snaps[(self.route)(key, self.snaps.len())];
        s.engine().lookup_key(table, key, &s.sys_at_pin(sys), app)
    }

    fn stats(&self, table: TableId) -> TableStats {
        let mut acc = TableStats::default();
        for s in self.snaps {
            let part = s.engine().stats(table);
            acc.current_rows += part.current_rows;
            acc.history_rows += part.history_rows;
        }
        acc
    }

    fn snapshot_versions(&self, _table: TableId) -> Result<Vec<Version>> {
        self.read_only_err("snapshot_versions")
    }

    fn restore(&mut self, _table: TableId, _versions: Vec<Version>, _now: SysTime) -> Result<()> {
        self.read_only_err("restore")
    }
}
