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
use bitempo_core::{Result, SysTime, TableId, Value};
use bitempo_dbgen::TpchData;
use bitempo_engine::BitemporalEngine;
use std::time::Instant;

/// Per-transaction load timing.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `(first scenario of the transaction, wall nanoseconds)` per commit.
    pub timings: Vec<(ScenarioKind, u64)>,
    /// Total wall time of the replay, nanoseconds.
    pub total_nanos: u64,
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

/// Replays the archive, committing every `batch_size` scenarios. Strict:
/// the first op that fails aborts the whole replay. Ops already
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
                if let Err(e) = apply_op(engine, ids, op) {
                    engine.commit();
                    return Err(e);
                }
            }
        }
        engine.commit();
        timings.push((kind, t0.elapsed().as_nanos() as u64));
    }
    Ok(LoadReport {
        timings,
        total_nanos: started.elapsed().as_nanos() as u64,
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

    /// Every engine's replay lands on the generator's full state (the
    /// archive replayed into a fresh `GenDb`): the same versions across
    /// all of system time and as of a commit halfway through, and the same
    /// current / superseded split per table.
    #[test]
    fn replay_matches_generator_state_on_all_engines() {
        let (data, history, db) = tiny_inputs();
        let mid = SysTime(db.now().0 / 2);
        for kind in SystemKind::ALL {
            let mut engine = build_engine(kind);
            let ids = load_initial(engine.as_mut(), &data).unwrap();
            replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
            assert_eq!(engine.now(), db.now(), "{kind}: commit counts must line up");
            engine.checkpoint();
            for (idx, &id) in ids.iter().enumerate() {
                let name = &db.def(idx).name;
                for sys in [SysSpec::All, SysSpec::AsOf(mid)] {
                    let mut got = engine.scan(id, &sys, &AppSpec::All, &[]).unwrap().rows;
                    let mut want = db.scan(idx, &sys, &AppSpec::All);
                    got.sort();
                    want.sort();
                    assert_eq!(got.len(), want.len(), "{kind}, {name}, {sys:?}: counts");
                    assert_eq!(got, want, "{kind}, {name}, {sys:?}");
                }
                let stats = engine.stats(id);
                assert_eq!(
                    (stats.current_rows, stats.history_rows),
                    (db.current_len(idx), db.invalidated_len(idx)),
                    "{kind}, {name}: current / superseded"
                );
            }
        }
    }

    /// The bulk-load feed has a defined order, so two loads of one history
    /// from two generator states lay System D out identically.
    #[test]
    fn bulk_loads_from_two_states_lay_out_identically() {
        let (data, history, db) = tiny_inputs();
        let other = GenDb::replay(&data, &history.archive).unwrap();
        let layout = |db: &GenDb| {
            let mut engine = build_engine(SystemKind::D);
            let ids = bulk_load(engine.as_mut(), db).unwrap();
            let mut versions = Vec::new();
            for id in ids {
                engine
                    .for_each_version(id, &mut |v| versions.push(v.clone()))
                    .unwrap();
            }
            versions
        };
        let (a, b) = (layout(&db), layout(&other));
        assert_eq!(a.len(), b.len());
        assert!(a == b, "the two bulk loads differ in order");
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
        replay(batched.as_mut(), &ids2, &history.archive, 16).unwrap();
        assert!(batched.now() < one.now(), "fewer commits when batching");

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
        };
        assert_eq!(report.median_nanos(None), Some(5_100));
        assert_eq!(report.p97_nanos(None), Some(9_700));
        assert_eq!(report.median_nanos(Some(ScenarioKind::CancelOrder)), None);
    }

    /// The strict policy: the first failing op aborts the replay, and what
    /// the failing batch applied before it is committed, not lost.
    #[test]
    fn replay_aborts_on_a_poisoned_batch_and_commits_what_it_applied() {
        let (data, history, _) = tiny_inputs();
        // Poison the end of a middle transaction with an overwrite of a
        // nonexistent key: every op before it applies.
        let mut archive = history.archive.clone();
        let mid = archive.transactions.len() / 2;
        archive.transactions[mid].ops.push(Op::OverwriteApp {
            table: 6,
            key: bitempo_core::Key::int(i64::MAX),
            period: bitempo_core::Period::new(bitempo_core::AppDate(0), bitempo_core::AppDate::MAX),
        });

        let mut engine = build_engine(SystemKind::A);
        let ids = load_initial(engine.as_mut(), &data).unwrap();
        let err = replay(engine.as_mut(), &ids, &archive, 1).unwrap_err();
        assert!(matches!(err, Error::KeyNotFound(_)), "{err:?}");

        // A clean replay of the first `mid + 1` transactions is the state
        // the aborted one must have committed.
        let mut prefix = history.archive.clone();
        prefix.transactions.truncate(mid + 1);
        let mut clean = build_engine(SystemKind::A);
        let clean_ids = load_initial(clean.as_mut(), &data).unwrap();
        replay(clean.as_mut(), &clean_ids, &prefix, 1).unwrap();
        assert_eq!(engine.now(), clean.now(), "the failing batch was committed");
        for (&a, &b) in ids.iter().zip(&clean_ids) {
            let mut got = engine
                .scan(a, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            let mut want = clean
                .scan(b, &SysSpec::All, &AppSpec::All, &[])
                .unwrap()
                .rows;
            got.sort();
            want.sort();
            assert_eq!(got, want, "table {}", engine.table_def(a).name);
        }
    }
}
