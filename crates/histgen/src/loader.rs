//! Loading histories into engines (paper §4.2, §5.8).
//!
//! Two paths:
//!
//! * [`replay`] — transaction-by-transaction execution of the archive
//!   through the engine's DML interface. This is the *only* correct way to
//!   build a history on engines that stamp system time at commit
//!   ("bulkloading of a history is not an option since it would result in a
//!   single timestamp for all involved tuples"). A `batch_size > 1` merges
//!   consecutive scenarios into one transaction (Fig 13).
//! * [`bulk_load`] — for engines with manual system time (System D), ships
//!   fully-stamped versions straight from the generator state, reproducing
//!   the paper's §5.8 observation that System D's load cost "is much lower
//!   since we can set the timestamps manually and perform a bulk load".

use crate::archive::Archive;
use crate::ops::{Op, ScenarioKind};
use crate::state::GenDb;
use bitempo_core::{AppPeriod, Key, Result, Row, SysTime, TableId, TemporalClass, Value};
use bitempo_dbgen::TpchData;
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::BitemporalEngine;
use std::time::Instant;

/// Per-transaction load timing.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `(first scenario of the transaction, wall nanoseconds)` per commit.
    pub timings: Vec<(ScenarioKind, u64)>,
    /// Total wall time of the replay, nanoseconds.
    pub total_nanos: u64,
    /// System time after the replay.
    pub version: SysTime,
    /// Op-level accounting: how many ops were applied, and how many of
    /// those were saved by a retry.
    pub ops: ReplayReport,
}

/// Op-level accounting for one replay. A returned report always covers
/// every op in the archive: the first op that fails for good aborts the
/// replay with its error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Ops applied successfully (including those that needed a retry).
    pub applied: u64,
    /// Ops that failed with a retryable error and succeeded on the retry
    /// (a subset of `applied`).
    pub retried: u64,
}

impl LoadReport {
    /// Median latency in nanoseconds for one scenario kind (`None` = all).
    pub fn median_nanos(&self, kind: Option<ScenarioKind>) -> Option<u64> {
        percentile(self.filtered(kind), 0.50)
    }

    /// 97th-percentile latency in nanoseconds (the paper's Fig 16 metric).
    pub fn p97_nanos(&self, kind: Option<ScenarioKind>) -> Option<u64> {
        percentile(self.filtered(kind), 0.97)
    }

    fn filtered(&self, kind: Option<ScenarioKind>) -> Vec<u64> {
        self.timings
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, n)| *n)
            .collect()
    }
}

fn percentile(mut xs: Vec<u64>, q: f64) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    let idx = ((xs.len() - 1) as f64 * q).round() as usize;
    Some(xs[idx])
}

/// Creates the eight tables and loads version 0 in a single transaction, so
/// every initial tuple shares one system timestamp (paper §4.1 "loading the
/// output of TPC-H dbgen as version 0").
pub fn load_initial(engine: &mut dyn BitemporalEngine, data: &TpchData) -> Result<Vec<TableId>> {
    let mut ids = Vec::with_capacity(data.tables.len());
    for table in &data.tables {
        ids.push(engine.create_table(table.def.clone())?);
    }
    for (idx, table) in data.tables.iter().enumerate() {
        for (row, app) in &table.rows {
            engine.insert(ids[idx], row.clone(), *app)?;
        }
    }
    engine.commit();
    Ok(ids)
}

/// Applies one archive op to an open engine transaction. The durability
/// WAL replays through exactly this dispatch (via [`apply_txn`]) —
/// recovery and the original load must interpret an op identically.
pub fn apply_op(engine: &mut dyn BitemporalEngine, ids: &[TableId], op: &Op) -> Result<()> {
    match op {
        Op::Insert { table, row, app } => engine.insert(ids[*table as usize], row.clone(), *app),
        Op::Update {
            table,
            key,
            updates,
            portion,
        } => {
            let assignments: Vec<(usize, Value)> = updates
                .iter()
                .map(|(c, v)| (*c as usize, v.clone()))
                .collect();
            engine
                .update(ids[*table as usize], key, &assignments, *portion)
                .map(|_| ())
        }
        Op::Delete {
            table,
            key,
            portion,
        } => engine
            .delete(ids[*table as usize], key, *portion)
            .map(|_| ()),
        Op::OverwriteApp { table, key, period } => engine
            .overwrite_app_period(ids[*table as usize], key, *period)
            .map(|_| ()),
    }
}

/// Applies one transaction's ops to an open engine transaction — the one
/// landing rule of every path that lands a whole transaction (the serving
/// pipeline, WAL replay, cluster recovery, the durability drivers). A
/// stamped transaction (`gts`, a cluster's oracle timestamp) first
/// advances the clock to `gts − 1`, so its versions and the commit that
/// follows carry exactly `gts`; an unstamped one lands at the engine's
/// next commit time. The caller commits, and owns the failure policy: the
/// engine holds partial state after an error.
pub fn apply_txn(
    engine: &mut dyn BitemporalEngine,
    ids: &[TableId],
    ops: &[Op],
    gts: Option<u64>,
) -> Result<()> {
    if let Some(g) = gts {
        engine.advance_clock(SysTime(g.saturating_sub(1)));
    }
    ops.iter().try_for_each(|op| apply_op(engine, ids, op))
}

/// True if a *pending* version — one created by the currently open
/// transaction — already carries exactly `row`'s values and application
/// period, i.e. a failed insert's first attempt actually landed in the
/// engine before the error surfaced.
///
/// Sequenced ops are idempotent when re-applied inside the same open
/// transaction (re-closing an open version leaves an empty `[p, p)` system
/// period the engines discard, and the rewritten portions are absolute),
/// but a bare insert is not: re-driving one after a partial apply would
/// duplicate the version. The retry path consults this probe first.
///
/// The probe attributes a match to the open transaction by its system
/// start: only a version whose system period opens at the engine's pending
/// timestamp was created inside it. An identical version committed by an
/// *earlier* transaction opens strictly before that and must not satisfy
/// the probe — engines insert duplicates unconditionally, so such a false
/// positive would skip the retry and silently drop the insert. Tables
/// without system time offer no such attribution; there the probe stays
/// conservative and reports "not applied" (the generated scenarios never
/// insert into non-temporal tables, and a visible duplicate is the lesser
/// risk than a silent drop).
fn insert_effect_present(
    engine: &dyn BitemporalEngine,
    id: TableId,
    row: &Row,
    app: Option<AppPeriod>,
) -> bool {
    let def = engine.table_def(id);
    if !def.has_system_time() {
        return false;
    }
    let key = Key::from_row(row, &def.key);
    let value_arity = def.schema.arity();
    let want = app.unwrap_or(AppPeriod::ALL);
    let bitemporal = def.temporal == TemporalClass::Bitemporal;
    let sys_col = value_arity + if bitemporal { 2 } else { 0 };
    let pending = Value::SysTime(engine.now().next());
    // Pending (uncommitted) versions have open system periods, so a plain
    // current-snapshot lookup sees the eventual effect of this transaction.
    let Ok(out) = engine.lookup_key(id, &key, &SysSpec::Current, &AppSpec::All) else {
        return false;
    };
    out.rows.iter().any(|r| {
        let values_match = (0..value_arity).all(|c| r.get(c) == row.get(c));
        let app_match = !bitemporal
            || (r.get(value_arity) == &Value::Date(want.start)
                && r.get(value_arity + 1) == &Value::Date(want.end));
        values_match && app_match && r.get(sys_col) == &pending
    })
}

/// Replays the archive, committing every `batch_size` scenarios. Strict:
/// the first op that fails for good aborts the whole replay. Ops already
/// applied in the failing batch stay in the open transaction and are
/// committed first — the engines have no rollback.
pub fn replay(
    engine: &mut dyn BitemporalEngine,
    ids: &[TableId],
    archive: &Archive,
    batch_size: usize,
) -> Result<LoadReport> {
    // tblint: allow(TB001) load-latency percentiles are the experiment's measurement (Fig 16)
    let started = Instant::now();
    let mut timings = Vec::with_capacity(archive.transactions.len());
    let mut ops = ReplayReport::default();
    for batch in archive.transactions.chunks(batch_size.max(1)) {
        let kind = batch[0]
            .scenarios
            .first()
            .copied()
            .unwrap_or(ScenarioKind::NewOrderExistingCustomer);
        // tblint: allow(TB001) per-batch wall-clock is the measured quantity here
        let t0 = Instant::now();
        for txn in batch {
            for op in &txn.ops {
                let outcome = match apply_op(engine, ids, op) {
                    // One retry for transient failures: an op that succeeds
                    // on the second attempt was never lost, and the report
                    // counts it as retried instead of failing the replay.
                    // The retry must be idempotent: a transient error can
                    // surface *after* the op mutated the engine (e.g. a
                    // contained worker panic mid-bookkeeping), and blindly
                    // re-driving an insert would then duplicate a version.
                    Err(e) if e.is_retryable() => {
                        let already_applied = match op {
                            Op::Insert { table, row, app } => {
                                insert_effect_present(engine, ids[*table as usize], row, *app)
                            }
                            // Sequenced ops re-apply idempotently (see
                            // `insert_effect_present` for the argument).
                            _ => false,
                        };
                        let second = if already_applied {
                            Ok(())
                        } else {
                            apply_op(engine, ids, op)
                        };
                        if second.is_ok() {
                            ops.retried += 1;
                        }
                        second
                    }
                    other => other,
                };
                if let Err(e) = outcome {
                    engine.commit();
                    return Err(e);
                }
                ops.applied += 1;
            }
        }
        engine.commit();
        timings.push((kind, t0.elapsed().as_nanos() as u64));
    }
    Ok(LoadReport {
        timings,
        total_nanos: started.elapsed().as_nanos() as u64,
        version: engine.now(),
        ops,
    })
}

/// Bulk-loads a fully-evolved history into an engine with manual system
/// time. The engine must support it (System D); tables are created here.
pub fn bulk_load(engine: &mut dyn BitemporalEngine, db: &GenDb) -> Result<Vec<TableId>> {
    let mut ids = Vec::with_capacity(db.table_count());
    for idx in 0..db.table_count() {
        ids.push(engine.create_table(db.def(idx).clone())?);
    }
    for (idx, &id) in ids.iter().enumerate() {
        engine.bulk_load(id, db.all_versions(idx))?;
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryConfig;
    use bitempo_core::Error;
    use bitempo_dbgen::ScaleConfig;
    use bitempo_engine::api::{AppSpec, SysSpec};
    use bitempo_engine::{build_engine, SystemKind};

    fn tiny_inputs() -> (TpchData, crate::History, GenDb) {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let (history, db) = crate::generate_history_with_state(&data, &HistoryConfig::tiny());
        (data, history, db)
    }

    #[test]
    fn initial_load_is_one_version() {
        let (data, ..) = tiny_inputs();
        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), &data).unwrap();
        assert_eq!(engine.now(), SysTime(1));
        let orders = ids[6];
        let out = engine
            .scan(orders, &SysSpec::Current, &AppSpec::All, &[])
            .unwrap();
        assert_eq!(out.rows.len(), 1_500);
        // Every tuple was stamped with the same commit time.
        let arity = out.rows[0].arity();
        for row in &out.rows {
            assert_eq!(row.get(arity - 2), &Value::SysTime(SysTime(1)));
        }
    }

    #[test]
    fn replay_matches_generator_state_on_all_engines() {
        let (data, history, db) = tiny_inputs();
        for kind in SystemKind::ALL {
            let mut engine = build_engine(kind);
            let ids = load_initial(engine.as_mut(), &data).unwrap();
            let report = replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
            assert_eq!(
                report.version,
                db.now(),
                "{kind}: commit counts must line up"
            );
            engine.checkpoint();
            for (idx, &id) in ids.iter().enumerate() {
                let mut got = engine
                    .scan(id, &SysSpec::All, &AppSpec::All, &[])
                    .unwrap()
                    .rows;
                let mut want = db.scan(idx, &SysSpec::All, &AppSpec::All);
                got.sort();
                want.sort();
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{kind}, table {}: version counts",
                    db.def(idx).name
                );
                assert_eq!(got, want, "{kind}, table {}", db.def(idx).name);
            }
        }
    }

    #[test]
    fn bulk_load_equals_replay_on_system_d() {
        let (data, history, db) = tiny_inputs();
        let mut replayed = build_engine(SystemKind::D);
        let ids = load_initial(replayed.as_mut(), &data).unwrap();
        replay(replayed.as_mut(), &ids, &history.archive, 1).unwrap();

        let mut bulk = build_engine(SystemKind::D);
        let bulk_ids = bulk_load(bulk.as_mut(), &db).unwrap();

        for (&a, &b) in ids.iter().zip(&bulk_ids) {
            let mut ra = replayed
                .scan(a, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let mut rb = bulk
                .scan(b, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn bulk_load_fails_without_manual_time() {
        let (.., db) = tiny_inputs();
        let mut engine = build_engine(SystemKind::A);
        assert!(bulk_load(engine.as_mut(), &db).is_err());
    }

    #[test]
    fn batched_replay_reaches_same_final_state() {
        let (data, history, _) = tiny_inputs();
        let mut one = build_engine(SystemKind::A);
        let ids1 = load_initial(one.as_mut(), &data).unwrap();
        replay(one.as_mut(), &ids1, &history.archive, 1).unwrap();

        let mut batched = build_engine(SystemKind::A);
        let ids2 = load_initial(batched.as_mut(), &data).unwrap();
        let report = replay(batched.as_mut(), &ids2, &history.archive, 16).unwrap();
        assert!(report.version < one.now(), "fewer commits when batching");

        // Current state is identical even though version timestamps differ.
        for (&a, &b) in ids1.iter().zip(&ids2) {
            let mut ra = one
                .scan(a, &SysSpec::Current, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let mut rb = batched
                .scan(b, &SysSpec::Current, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let arity = ra.first().map_or(0, |r| r.arity());
            // Strip the system-time columns (they legitimately differ).
            let strip = |rows: &mut Vec<bitempo_core::Row>| {
                if arity >= 2 {
                    for r in rows.iter_mut() {
                        *r = r.project(&(0..r.arity().saturating_sub(2)).collect::<Vec<_>>());
                    }
                }
            };
            strip(&mut ra);
            strip(&mut rb);
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn load_report_percentiles() {
        let report = LoadReport {
            timings: (1..=100)
                .map(|i| (ScenarioKind::DeliverOrder, i * 100))
                .collect(),
            total_nanos: 0,
            version: SysTime(0),
            ops: ReplayReport::default(),
        };
        assert_eq!(report.median_nanos(None), Some(5_100));
        assert_eq!(report.p97_nanos(None), Some(9_700));
        assert_eq!(report.median_nanos(Some(ScenarioKind::CancelOrder)), None);
    }

    #[test]
    fn replay_aborts_on_a_poisoned_batch() {
        let (data, history, _) = tiny_inputs();
        // Poison a middle transaction with an update to a nonexistent key.
        let mut archive = history.archive.clone();
        let mid = archive.transactions.len() / 2;
        archive.transactions[mid].ops.insert(
            0,
            Op::OverwriteApp {
                table: 6,
                key: bitempo_core::Key::int(i64::MAX),
                period: bitempo_core::Period::new(
                    bitempo_core::AppDate(0),
                    bitempo_core::AppDate::MAX,
                ),
            },
        );

        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), &data).unwrap();
        let err = replay(engine.as_mut(), &ids, &archive, 1).unwrap_err();
        assert!(matches!(err, Error::KeyNotFound(_)), "{err:?}");
    }

    /// When the transient fault fires relative to the insert's effect.
    #[derive(Clone, Copy, PartialEq)]
    enum FaultPhase {
        /// The insert fully applies, then the error surfaces (e.g. a
        /// contained panic in post-apply bookkeeping). The regression
        /// target: a blind retry here double-applies.
        AfterApply,
        /// The error surfaces before anything is mutated; a retry is the
        /// correct and only recovery.
        BeforeApply,
    }

    /// Delegating wrapper that injects one transient failure on the n-th
    /// insert, either before or after the inner engine applied it.
    struct FlakyEngine {
        inner: Box<dyn BitemporalEngine>,
        phase: FaultPhase,
        /// Fire on this (1-based) insert call; 0 = spent.
        fuse: usize,
        calls: usize,
    }

    impl BitemporalEngine for FlakyEngine {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn architecture(&self) -> &'static str {
            self.inner.architecture()
        }
        fn create_table(&mut self, def: bitempo_core::TableDef) -> Result<TableId> {
            self.inner.create_table(def)
        }
        fn resolve(&self, name: &str) -> Result<TableId> {
            self.inner.resolve(name)
        }
        fn table_names(&self) -> Vec<String> {
            self.inner.table_names()
        }
        fn table_def(&self, table: TableId) -> &bitempo_core::TableDef {
            self.inner.table_def(table)
        }
        fn apply_tuning(&mut self, tuning: &bitempo_engine::TuningConfig) -> Result<()> {
            self.inner.apply_tuning(tuning)
        }
        fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
            self.calls += 1;
            if self.calls == self.fuse {
                self.fuse = 0;
                if self.phase == FaultPhase::AfterApply {
                    self.inner.insert(table, row, app)?;
                }
                return Err(Error::Transient("fault after partial apply".into()));
            }
            self.inner.insert(table, row, app)
        }
        fn update(
            &mut self,
            table: TableId,
            key: &Key,
            updates: &[(usize, Value)],
            portion: Option<AppPeriod>,
        ) -> Result<usize> {
            self.inner.update(table, key, updates, portion)
        }
        fn delete(
            &mut self,
            table: TableId,
            key: &Key,
            portion: Option<AppPeriod>,
        ) -> Result<usize> {
            self.inner.delete(table, key, portion)
        }
        fn overwrite_app_period(
            &mut self,
            table: TableId,
            key: &Key,
            period: AppPeriod,
        ) -> Result<usize> {
            self.inner.overwrite_app_period(table, key, period)
        }
        fn commit(&mut self) -> SysTime {
            self.inner.commit()
        }
        fn now(&self) -> SysTime {
            self.inner.now()
        }
        fn scan(
            &self,
            table: TableId,
            sys: &SysSpec,
            app: &AppSpec,
            preds: &[bitempo_engine::api::ColRange],
        ) -> Result<bitempo_engine::api::ScanOutput> {
            self.inner.scan(table, sys, app, preds)
        }
        fn lookup_key(
            &self,
            table: TableId,
            key: &Key,
            sys: &SysSpec,
            app: &AppSpec,
        ) -> Result<bitempo_engine::api::ScanOutput> {
            self.inner.lookup_key(table, key, sys, app)
        }
        fn stats(&self, table: TableId) -> bitempo_engine::api::TableStats {
            self.inner.stats(table)
        }
        fn checkpoint(&mut self) {
            self.inner.checkpoint();
        }
        fn snapshot_versions(
            &self,
            table: TableId,
        ) -> Result<Vec<bitempo_engine::version::Version>> {
            self.inner.snapshot_versions(table)
        }
        fn restore(
            &mut self,
            table: TableId,
            versions: Vec<bitempo_engine::version::Version>,
            now: SysTime,
        ) -> Result<()> {
            self.inner.restore(table, versions, now)
        }
    }

    /// The satellite regression: a transient fault that surfaces *after*
    /// the insert already applied must not be re-driven into the engine —
    /// the retried replay has to converge on the clean replay's exact
    /// state, with the op counted as retried, not duplicated or dropped.
    #[test]
    fn retry_after_partial_apply_does_not_double_apply() {
        let (data, history, _) = tiny_inputs();
        let mut clean = build_engine(SystemKind::A);
        let clean_ids = load_initial(clean.as_mut(), &data).unwrap();
        replay(clean.as_mut(), &clean_ids, &history.archive, 1).unwrap();

        for phase in [FaultPhase::AfterApply, FaultPhase::BeforeApply] {
            let mut inner = build_engine(SystemKind::A);
            let ids = load_initial(inner.as_mut(), &data).unwrap();
            let mut flaky = FlakyEngine {
                inner,
                phase,
                // First insert *during the replay* (the initial load ran
                // against the unwrapped engine).
                fuse: 1,
                calls: 0,
            };
            let report = replay(&mut flaky, &ids, &history.archive, 1).unwrap();
            assert_eq!(report.ops.retried, 1, "the fault was absorbed");

            for (&a, &b) in clean_ids.iter().zip(&ids) {
                let mut want = clean
                    .scan(a, &SysSpec::All, &AppSpec::All, &[])
                    .unwrap()
                    .rows;
                let mut got = flaky
                    .inner
                    .scan(b, &SysSpec::All, &AppSpec::All, &[])
                    .unwrap()
                    .rows;
                want.sort();
                got.sort();
                assert_eq!(
                    got, want,
                    "replay with an injected fault must converge on the clean state"
                );
            }
        }
    }

    /// The probe must attribute effects to the *open* transaction: an
    /// identical version committed by an earlier transaction must not
    /// satisfy it. Engines insert duplicates unconditionally, so a false
    /// positive here would skip the retry and silently drop the insert
    /// when the fault fired *before* anything applied.
    #[test]
    fn retry_probe_ignores_identical_committed_versions() {
        use crate::ops::Transaction;
        use bitempo_engine::testutil::{bitemp_table, simple_row};

        // Two transactions insert byte-identical rows (same key, values,
        // application period); the transient fault fires on the second.
        let duplicate = || Transaction {
            scenarios: Vec::new(),
            ops: vec![Op::Insert {
                table: 0,
                row: simple_row(1, 10),
                app: None,
            }],
        };
        let archive = Archive {
            dbgen_seed: 0,
            hist_seed: 0,
            transactions: vec![duplicate(), duplicate()],
        };

        for phase in [FaultPhase::BeforeApply, FaultPhase::AfterApply] {
            let mut inner = build_engine(SystemKind::A);
            let t = inner.create_table(bitemp_table("t")).unwrap();
            let ids = vec![t];
            let mut flaky = FlakyEngine {
                inner,
                phase,
                fuse: 2, // the second transaction's insert
                calls: 0,
            };
            let report = replay(&mut flaky, &ids, &archive, 1).unwrap();
            assert_eq!(report.ops.retried, 1);
            let rows = flaky
                .inner
                .scan(t, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            assert_eq!(
                rows.len(),
                2,
                "both inserts must land exactly once: the first transaction's \
                 identical committed version is not the second's effect"
            );
        }
    }
}
