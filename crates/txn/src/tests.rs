//! In-crate tests: the serving-layer contracts that need private access
//! (the commit log behind its lock, the oracle, the publish step) or
//! fault-injecting WAL sinks.

use crate::manager::Clock;
use crate::*;
use bitempo_core::fault::FaultyWriter;
use bitempo_core::{AppDate, AppPeriod, Error, Key, Row, SysTime, TableId, Value};
use bitempo_engine::api::{AppSpec, BitemporalEngine, SysSpec, TuningConfig};
use bitempo_engine::testutil::{bitemp_table, plain_table, simple_row};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_histgen::{apply_op, encode_txn, Op, Transaction as TxnOps};
use bitempo_storage::DurabilityMode;
use bitempo_wal::{canonical_state, recover, Checkpoint, SharedBuf, TxnWal, WAL_HEADER_LEN};
use std::sync::atomic::Ordering;

/// One bitemporal table with rows (1, 10) and (2, 20), committed.
fn manager(kind: SystemKind, wal: Option<TxnWal>) -> TxnManager {
    let mut engine = build_engine(kind);
    let t = engine.create_table(bitemp_table("t")).unwrap();
    engine.insert(t, simple_row(1, 10), None).unwrap();
    engine.insert(t, simple_row(2, 20), None).unwrap();
    engine.commit();
    TxnManager::new(engine, vec![t], wal).unwrap()
}

fn current_ids(view: &SnapshotView<'_>, t: TableId) -> Vec<i64> {
    let mut ids: Vec<i64> = view
        .scan(t, &SysSpec::Current, &AppSpec::All, &[])
        .unwrap()
        .rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => *i,
            other => panic!("unexpected key {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn snapshot_is_stable_across_a_concurrent_commit() {
    for kind in SystemKind::ALL {
        let mgr = manager(kind, None);
        let t = mgr.table_ids()[0];
        let reader = mgr.begin().unwrap();

        let mut writer = mgr.begin().unwrap();
        writer.insert(t, simple_row(3, 30), None).unwrap();
        let ts = writer.commit().unwrap();
        assert!(ts > reader.pin(), "{kind}: commit advanced system time");

        // The old snapshot still answers from its pin...
        let snap = reader.snapshot();
        assert_eq!(current_ids(&snap.view(), t), vec![1, 2], "{kind}");
        drop(snap);
        // ...while a fresh one sees the commit.
        let fresh = mgr.begin().unwrap();
        let snap = fresh.snapshot();
        assert_eq!(current_ids(&snap.view(), t), vec![1, 2, 3], "{kind}");
    }
}

#[test]
fn first_committer_wins_and_the_loser_aborts_cleanly() {
    let mgr = manager(SystemKind::A, None);
    let t = mgr.table_ids()[0];

    let mut first = mgr.begin().unwrap();
    let mut second = mgr.begin().unwrap();
    first
        .update(t, &Key::int(1), &[(1, Value::Int(11))], None)
        .unwrap();
    second
        .update(t, &Key::int(1), &[(1, Value::Int(12))], None)
        .unwrap();
    first.commit().unwrap();
    match second.commit() {
        Err(Error::Conflict(_)) => {}
        other => panic!("expected a conflict, got {other:?}"),
    }
    assert_eq!(mgr.counters().conflicts.load(Ordering::Relaxed), 1);

    // The aborted write never published: the winner's value stands.
    let txn = mgr.begin().unwrap();
    let snap = txn.snapshot();
    let out = snap
        .view()
        .lookup_key(t, &Key::int(1), &SysSpec::Current, &AppSpec::All)
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].get(1), &Value::Int(11));
}

#[test]
fn disjoint_portions_of_one_key_do_not_conflict() {
    let mgr = manager(SystemKind::A, None);
    let t = mgr.table_ids()[0];
    let early = AppPeriod::new(AppDate(0), AppDate(10));
    let late = AppPeriod::new(AppDate(10), AppDate(20));

    let mut a = mgr.begin().unwrap();
    let mut b = mgr.begin().unwrap();
    a.update(t, &Key::int(2), &[(1, Value::Int(21))], Some(early))
        .unwrap();
    b.update(t, &Key::int(2), &[(1, Value::Int(22))], Some(late))
        .unwrap();
    a.commit().unwrap();
    b.commit().unwrap();
    assert_eq!(mgr.counters().conflicts.load(Ordering::Relaxed), 0);
}

#[test]
fn snapshot_translation_caps_every_sys_spec_at_the_pin() {
    let mgr = manager(SystemKind::B, None);
    let t = mgr.table_ids()[0];
    let pinned = mgr.begin().unwrap();

    let mut w = mgr.begin().unwrap();
    w.insert(t, simple_row(3, 30), None).unwrap();
    w.commit().unwrap();

    let snap = pinned.snapshot();
    let view = snap.view();
    // AS OF a future time clamps to the pin.
    let future = SysSpec::AsOf(SysTime(u64::MAX - 1));
    let rows = view.scan(t, &future, &AppSpec::All, &[]).unwrap().rows;
    assert_eq!(rows.len(), 2, "the post-pin insert stays invisible");
    // ALL and RANGE are right-clamped the same way.
    let rows = view
        .scan(t, &SysSpec::All, &AppSpec::All, &[])
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 2);
    let range = SysSpec::Range(bitempo_core::Period::new(SysTime::ZERO, SysTime(u64::MAX)));
    let rows = view.scan(t, &range, &AppSpec::All, &[]).unwrap().rows;
    assert_eq!(rows.len(), 2);
    // now() is frozen at the pin.
    assert_eq!(view.now(), pinned.pin());
}

#[test]
fn snapshot_view_rejects_dml_and_schema_changes() {
    let mgr = manager(SystemKind::C, None);
    let t = mgr.table_ids()[0];
    let txn = mgr.begin().unwrap();
    let snap = txn.snapshot();
    let mut view = snap.view();
    assert!(matches!(
        view.insert(t, simple_row(9, 9), None),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        view.delete(t, &Key::int(1), None),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        view.create_table(bitemp_table("u")),
        Err(Error::Unsupported(_))
    ));
}

#[test]
fn vanished_key_aborts_before_anything_applies() {
    let mgr = manager(SystemKind::A, None);
    let t = mgr.table_ids()[0];
    let mut txn = mgr.begin().unwrap();
    txn.insert(t, simple_row(7, 70), None).unwrap();
    txn.update(t, &Key::int(999), &[(1, Value::Int(0))], None)
        .unwrap();
    match txn.commit() {
        Err(Error::KeyNotFound(_)) => {}
        other => panic!("expected KeyNotFound, got {other:?}"),
    }
    // The insert buffered before the bad op must not have leaked.
    let txn = mgr.begin().unwrap();
    let snap = txn.snapshot();
    assert_eq!(current_ids(&snap.view(), t), vec![1, 2]);
}

#[test]
fn read_only_commit_returns_the_pin_without_logging() {
    let buf = SharedBuf::new();
    let wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
    let mgr = manager(SystemKind::D, Some(wal));
    let txn = mgr.begin().unwrap();
    let pin = txn.pin();
    assert_eq!(txn.commit().unwrap(), pin);
    let (_, _, durable) = mgr.close().unwrap();
    assert_eq!(durable, 0, "read-only commits write no WAL records");
}

#[test]
fn interactive_commits_recover_from_the_wal() {
    for mode in [DurabilityMode::Strict, DurabilityMode::Batched(1)] {
        let buf = SharedBuf::new();
        let wal = TxnWal::create(Box::new(buf.clone()), mode).unwrap();
        let mgr = manager(SystemKind::A, Some(wal));
        let t = mgr.table_ids()[0];
        let base = mgr.checkpoint().unwrap().encode();

        for i in 0..5i64 {
            let mut txn = mgr.begin().unwrap();
            txn.insert(t, simple_row(10 + i, i), None).unwrap();
            txn.update(t, &Key::int(1), &[(1, Value::Int(100 + i))], None)
                .unwrap();
            txn.commit().unwrap();
        }

        let (engine, ids, durable) = mgr.close().unwrap();
        assert_eq!(durable, 5);
        let rec = recover(
            SystemKind::A,
            &buf.snapshot(),
            &[base],
            &TuningConfig::none(),
        )
        .unwrap();
        assert_eq!(rec.report.replayed, 5);
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            canonical_state(engine.as_ref(), &ids).unwrap(),
            "{mode:?}: recovered state matches the served state"
        );
    }
}

/// Deterministic apply failures — arity, temporal class, empty
/// periods, bad update columns — must surface when the op is buffered,
/// never poison the manager, and never leave a WAL record that
/// recovery cannot replay.
#[test]
fn malformed_ops_are_rejected_at_buffer_time() {
    let buf = SharedBuf::new();
    let wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
    let mut engine = build_engine(SystemKind::A);
    let t = engine.create_table(bitemp_table("t")).unwrap();
    let p = engine.create_table(plain_table("p")).unwrap();
    engine.insert(t, simple_row(1, 10), None).unwrap();
    engine.insert(p, simple_row(1, 10), None).unwrap();
    engine.commit();
    let mgr = TxnManager::new(engine, vec![t, p], Some(wal)).unwrap();
    let base = mgr.checkpoint().unwrap().encode();

    let empty = AppPeriod::new(AppDate(7), AppDate(7));
    let some = AppPeriod::new(AppDate(0), AppDate(10));
    let mut txn = mgr.begin().unwrap();
    assert!(matches!(
        txn.insert(t, Row::new(vec![Value::Int(9)]), None),
        Err(Error::Invalid(_))
    ));
    assert!(matches!(
        txn.insert(t, simple_row(9, 90), Some(empty)),
        Err(Error::EmptyPeriod(_))
    ));
    assert!(matches!(
        txn.insert(p, simple_row(9, 90), Some(some)),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        txn.update(t, &Key::int(1), &[(7, Value::Int(0))], None),
        Err(Error::Invalid(_))
    ));
    assert!(matches!(
        txn.update(p, &Key::int(1), &[(1, Value::Int(0))], Some(some)),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        txn.delete(p, &Key::int(1), Some(some)),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        txn.overwrite_app_period(t, &Key::int(1), empty),
        Err(Error::EmptyPeriod(_))
    ));
    assert!(matches!(
        txn.overwrite_app_period(p, &Key::int(1), some),
        Err(Error::Unsupported(_))
    ));

    // The rejections buffered nothing and poisoned nothing: the same
    // transaction still commits its valid write, and the WAL replays.
    txn.insert(t, simple_row(2, 20), None).unwrap();
    txn.commit().unwrap();
    let (engine, ids, durable) = mgr.close().unwrap();
    assert_eq!(durable, 1, "only the valid commit was logged");
    let rec = recover(
        SystemKind::A,
        &buf.snapshot(),
        &[base],
        &TuningConfig::none(),
    )
    .unwrap();
    assert!(rec.report.unreplayable.is_none());
    assert_eq!(rec.report.replayed, 1);
    assert_eq!(
        canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
        canonical_state(engine.as_ref(), &ids).unwrap()
    );
}

/// A WAL append failure after apply poisons the manager, and the
/// failed transaction is absent from the durable log: recovery
/// reproduces exactly the acknowledged commit prefix, never a
/// transaction whose commit returned an error.
#[test]
fn wal_append_failure_poisons_and_leaves_no_ghost_record() {
    let buf = SharedBuf::new();
    let sink = FaultyWriter::new(buf.clone(), 220);
    let wal = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
    let mgr = manager(SystemKind::A, Some(wal));
    let t = mgr.table_ids()[0];
    let base = mgr.checkpoint().unwrap().encode();

    let mut acknowledged = 0i64;
    let mut failure = None;
    for i in 0..64i64 {
        let mut txn = mgr.begin().unwrap();
        txn.insert(t, simple_row(100 + i, i), None).unwrap();
        match txn.commit() {
            Ok(_) => acknowledged += 1,
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let failure = failure.expect("the byte cut must fire");
    assert!(matches!(failure, Error::Internal(_)), "{failure:?}");
    assert!(acknowledged >= 1, "need an acknowledged prefix to verify");
    // Poisoned: the manager stops serving rather than lying, and takes no
    // checkpoint of an engine that holds the unlogged commit.
    assert!(matches!(mgr.begin(), Err(Error::Internal(_))));
    assert!(matches!(mgr.checkpoint(), Err(Error::Internal(_))));

    // A fault-free twin serving the same acknowledged prefix is the
    // oracle for what the durable history may contain.
    let twin = manager(SystemKind::A, None);
    let tt = twin.table_ids()[0];
    for i in 0..acknowledged {
        let mut txn = twin.begin().unwrap();
        txn.insert(tt, simple_row(100 + i, i), None).unwrap();
        txn.commit().unwrap();
    }
    let (twin_engine, twin_ids, _) = twin.close().unwrap();

    let rec = recover(
        SystemKind::A,
        &buf.snapshot(),
        &[base],
        &TuningConfig::none(),
    )
    .unwrap();
    assert_eq!(rec.report.commits, acknowledged as u64);
    assert!(rec.report.unreplayable.is_none());
    assert_eq!(
        canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
        canonical_state(twin_engine.as_ref(), &twin_ids).unwrap(),
        "recovery serves exactly the acknowledged prefix"
    );
}

/// A manager constructed over a non-empty WAL continues its sequence
/// numbering, so checkpoints stay labelled with the exact WAL seq they
/// cover — the drop/double-replay boundary guarantee.
#[test]
fn manager_adopts_a_non_empty_wal_sequence() {
    let buf = SharedBuf::new();
    let mut wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();

    // A prior serving run: base state (rows 1, 2), then one applied
    // and logged transaction (row 3).
    let mut engine = build_engine(SystemKind::A);
    let t = engine.create_table(bitemp_table("t")).unwrap();
    engine.insert(t, simple_row(1, 10), None).unwrap();
    engine.insert(t, simple_row(2, 20), None).unwrap();
    engine.commit();
    let ids = vec![t];
    let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
        .unwrap()
        .encode();
    let prior = TxnOps {
        scenarios: Vec::new(),
        ops: vec![Op::Insert {
            table: 0,
            row: simple_row(3, 30),
            app: None,
        }],
    };
    for op in &prior.ops {
        apply_op(engine.as_mut(), &ids, op).unwrap();
    }
    engine.commit();
    wal.append(&encode_txn(&prior).unwrap()).unwrap();

    // Adoption: the next commit is record 2, not record 1.
    let mgr = TxnManager::new(engine, ids, Some(wal)).unwrap();
    let t = mgr.table_ids()[0];
    let mut txn = mgr.begin().unwrap();
    txn.insert(t, simple_row(4, 40), None).unwrap();
    txn.commit().unwrap();
    let ckpt = mgr.checkpoint().unwrap();
    assert_eq!(ckpt.seq, 2, "checkpoint labelled with the adopted seq");

    let (engine, ids, durable) = mgr.close().unwrap();
    assert_eq!(durable, 2);
    // From the late checkpoint nothing replays; from the base, both
    // records replay — either way the served state is reproduced.
    let late = recover(
        SystemKind::A,
        &buf.snapshot(),
        &[base.clone(), ckpt.encode()],
        &TuningConfig::none(),
    )
    .unwrap();
    assert_eq!(late.report.checkpoint_seq, 2);
    assert_eq!(late.report.replayed, 0);
    assert_eq!(
        canonical_state(late.engine.as_ref(), &late.ids).unwrap(),
        canonical_state(engine.as_ref(), &ids).unwrap()
    );
    let full = recover(
        SystemKind::A,
        &buf.snapshot(),
        &[base],
        &TuningConfig::none(),
    )
    .unwrap();
    assert_eq!(full.report.replayed, 2);
    assert_eq!(
        canonical_state(full.engine.as_ref(), &full.ids).unwrap(),
        canonical_state(engine.as_ref(), &ids).unwrap()
    );
}

#[test]
fn commit_log_is_pruned_once_no_snapshot_needs_it() {
    let mgr = manager(SystemKind::A, None);
    let t = mgr.table_ids()[0];
    for i in 0..20i64 {
        let mut txn = mgr.begin().unwrap();
        txn.insert(t, simple_row(100 + i, i), None).unwrap();
        txn.commit().unwrap();
    }
    let log = mgr.commit_log.lock().expect("commit log poisoned");
    assert!(
        log.timestamps().count() <= 1,
        "with no pinned snapshots the log must not grow, got {}",
        log.timestamps().count()
    );
}

/// A sink whose `sync` parks on a gate: `entered` flips when a sync is
/// in flight, and the sync does not return until `release` flips.
struct GateSink {
    inner: SharedBuf,
    entered: std::sync::Arc<std::sync::atomic::AtomicBool>,
    release: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl std::io::Write for GateSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::Write::write(&mut self.inner, buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(&mut self.inner)
    }
}

impl bitempo_wal::WalSink for GateSink {
    fn sync(&mut self) -> std::io::Result<()> {
        self.entered
            .store(true, std::sync::atomic::Ordering::SeqCst);
        while !self.release.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        self.inner.sync()
    }
}

/// Regression for the TB008 finding this PR fixed: a strict-mode
/// commit's fsync used to run inside the `state` write lock, so a
/// slow disk stalled every reader. Now the fsync is deferred to the
/// durability waiter, outside all manager locks — a reader must be
/// able to begin, snapshot and scan while a committer is stuck
/// mid-fsync.
#[test]
fn readers_are_not_blocked_while_a_strict_fsync_is_in_flight() {
    use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
    let entered = std::sync::Arc::new(AtomicBool::new(false));
    let release = std::sync::Arc::new(AtomicBool::new(false));
    let sink = GateSink {
        inner: SharedBuf::new(),
        entered: std::sync::Arc::clone(&entered),
        release: std::sync::Arc::clone(&release),
    };
    let wal = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
    let mgr = manager(SystemKind::A, Some(wal));
    let t = mgr.table_ids()[0];

    std::thread::scope(|scope| {
        let committer = scope.spawn(|| {
            let mut txn = mgr.begin().unwrap();
            txn.insert(t, simple_row(3, 30), None).unwrap();
            txn.commit().unwrap();
        });

        // Wait until the committer is provably inside the fsync.
        while !entered.load(AtOrd::SeqCst) {
            std::thread::yield_now();
        }

        // With the gate still closed, a reader gets a full snapshot
        // read done. Before the fix this deadlocked: the fsync ran
        // under the state write lock, and begin() needs the read lock.
        let reader = mgr.begin().unwrap();
        let snap = reader.snapshot();
        let ids = current_ids(&snap.view(), t);
        assert!(
            ids == vec![1, 2] || ids == vec![1, 2, 3],
            "reader saw a consistent prefix either side of the publish, got {ids:?}"
        );
        drop(snap);
        drop(reader);

        release.store(true, AtOrd::SeqCst);
        committer.join().expect("committer thread");
    });
}

/// With two strict committers, the second submits while the first is
/// still inside its deferred fsync, which holds the WAL sink. The second
/// queues there under its gate alone, never under the state lock, so a
/// reader still gets a snapshot read done.
#[test]
fn readers_are_not_blocked_while_a_second_committer_queues_behind_a_strict_fsync() {
    use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
    let entered = std::sync::Arc::new(AtomicBool::new(false));
    let release = std::sync::Arc::new(AtomicBool::new(false));
    let sink = GateSink {
        inner: SharedBuf::new(),
        entered: std::sync::Arc::clone(&entered),
        release: std::sync::Arc::clone(&release),
    };
    let wal = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
    let mgr = &manager(SystemKind::A, Some(wal));
    let t = mgr.table_ids()[0];
    let commit_row = |k: i64| {
        let mut txn = mgr.begin().unwrap();
        txn.insert(t, simple_row(k, 10 * k), None).unwrap();
        txn.commit().unwrap();
    };

    let part = &mgr.participants()[0];
    let second_commit = part.now().next().next();

    std::thread::scope(|scope| {
        let first = scope.spawn(|| commit_row(3));
        while !entered.load(AtOrd::SeqCst) {
            std::thread::yield_now();
        }
        // The first committer is inside its fsync, past its gate. The
        // second lands its engine commit and then queues on the sink.
        let second = scope.spawn(|| commit_row(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = scope.spawn(move || {
            // Once the engine holds the second commit, that committer is
            // at or in its submit, which cannot finish before the fsync.
            while part.now() < second_commit {
                std::thread::yield_now();
            }
            let txn = mgr.begin().unwrap();
            let snap = txn.snapshot();
            tx.send(current_ids(&snap.view(), t)).unwrap();
        });
        let read = rx.recv_timeout(std::time::Duration::from_secs(5));
        // Open the fsync either way, so a blocked reader fails the test
        // instead of hanging it.
        release.store(true, AtOrd::SeqCst);
        for h in [first, second, reader] {
            h.join().expect("test thread");
        }
        let ids = read.expect("the reader waited for the second committer's submit");
        // The first commit published before its fsync; the second cannot
        // publish before its record lands.
        assert_eq!(ids, [1, 2, 3]);
    });
}

/// A sink whose writes take a while, which holds a committer between its
/// engine commit and its WAL record long enough for a checkpoint to land
/// there if nothing keeps it out.
struct SlowWriteSink(SharedBuf);

impl std::io::Write for SlowWriteSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_micros(200));
        std::io::Write::write(&mut self.0, buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(&mut self.0)
    }
}

impl bitempo_wal::WalSink for SlowWriteSink {
    fn sync(&mut self) -> std::io::Result<()> {
        self.0.sync()
    }
}

/// A checkpoint takes the gate before the state lock, so it never lands
/// between a commit's engine commit and its WAL record: recovering the
/// final log from any checkpoint taken while commits ran reproduces the
/// served state.
#[test]
fn checkpoints_taken_while_commits_run_recover_to_the_served_state() {
    use std::sync::atomic::AtomicBool;
    const COMMITS: i64 = 100;
    let buf = SharedBuf::new();
    let sink = SlowWriteSink(buf.clone());
    let wal = TxnWal::create(Box::new(sink), DurabilityMode::Async).unwrap();
    let mgr = manager(SystemKind::A, Some(wal));
    let t = mgr.table_ids()[0];
    let done = AtomicBool::new(false);

    let ckpts = std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..COMMITS {
                let mut txn = mgr.begin().unwrap();
                txn.insert(t, simple_row(100 + i, i), None).unwrap();
                txn.update(t, &Key::int(1), &[(1, Value::Int(i))], None)
                    .unwrap();
                txn.commit().unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        // One checkpoint per covered seq is enough to check every label.
        let mut ckpts: Vec<Checkpoint> = Vec::new();
        while !done.load(Ordering::SeqCst) {
            let ckpt = mgr.checkpoint().unwrap();
            if ckpts.last().is_none_or(|c| c.seq != ckpt.seq) {
                ckpts.push(ckpt);
            }
        }
        ckpts
    });

    let (engine, ids, durable) = mgr.close().unwrap();
    assert_eq!(durable, COMMITS as u64);
    let served = canonical_state(engine.as_ref(), &ids).unwrap();
    let log = buf.snapshot();
    assert!(!ckpts.is_empty());
    for ckpt in &ckpts {
        let rec = recover(SystemKind::A, &log, &[ckpt.encode()], &TuningConfig::none()).unwrap();
        assert_eq!(rec.report.checkpoint_seq, ckpt.seq);
        assert_eq!(rec.report.replayed, COMMITS as u64 - ckpt.seq);
        assert_eq!(
            canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
            served,
            "recovered from the checkpoint at seq {}",
            ckpt.seq
        );
    }
}

/// A sink whose `sync` always fails (writes succeed).
struct FailingSyncSink(SharedBuf);

impl std::io::Write for FailingSyncSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::Write::write(&mut self.0, buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(&mut self.0)
    }
}

impl bitempo_wal::WalSink for FailingSyncSink {
    fn sync(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("simulated fsync failure"))
    }
}

/// The deferred strict fsync creates one genuinely ambiguous outcome:
/// the commit published and its record was written, but the sync
/// failed, so whether the record survives a crash is unknown. The
/// manager must fail-stop — the commit errors and nothing further is
/// accepted.
#[test]
fn a_failed_durability_wait_after_publish_poisons_the_manager() {
    let wal = TxnWal::create(
        Box::new(FailingSyncSink(SharedBuf::new())),
        DurabilityMode::Strict,
    )
    .unwrap();
    let mgr = manager(SystemKind::A, Some(wal));
    let t = mgr.table_ids()[0];

    let mut txn = mgr.begin().unwrap();
    txn.insert(t, simple_row(3, 30), None).unwrap();
    match txn.commit() {
        Err(Error::Internal(msg)) => {
            assert!(
                msg.contains("durability is unknown"),
                "commit must report the ambiguity, got: {msg}"
            );
        }
        other => panic!("expected a fail-stop internal error, got {other:?}"),
    }
    match mgr.begin() {
        Err(Error::Internal(msg)) => {
            assert!(msg.contains("poisoned"), "begin must refuse, got: {msg}");
        }
        Err(other) => panic!("expected the manager to be poisoned, got {other:?}"),
        Ok(_) => panic!("expected the manager to be poisoned, but begin succeeded"),
    };
}

/// Routes an integer key by parity: the sharded tests' stand-in for the
/// stable key hash.
fn parity(key: &Key, n: usize) -> usize {
    match key.to_values()[0] {
        Value::Int(k) => k.rem_euclid(n as i64) as usize,
        ref other => panic!("unexpected key {other:?}"),
    }
}

/// A two-participant manager over keys 0..8, even keys on participant 0
/// and odd keys on participant 1, each row `(k, 10 k)` committed at 1.
fn sharded(wals: [Option<TxnWal>; 2]) -> TxnManager {
    let shards = wals
        .into_iter()
        .enumerate()
        .map(|(i, wal)| {
            let mut engine = build_engine(SystemKind::A);
            let t = engine.create_table(bitemp_table("t")).unwrap();
            for k in (0..8).filter(|k| parity(&Key::int(*k), 2) == i) {
                engine.insert(t, simple_row(k, 10 * k), None).unwrap();
            }
            engine.commit();
            TxnManager::new(engine, vec![t], wal).unwrap()
        })
        .collect();
    TxnManager::sharded(shards, parity).unwrap()
}

fn oracle(mgr: &TxnManager) -> &CommitOracle {
    match &mgr.clock {
        Clock::Oracle(o) => o,
        Clock::Local(_) => panic!("a sharded manager draws from an oracle"),
    }
}

/// Publishes `writes` at `gts` the way a committer pinned at the watermark
/// does once its commit has landed.
fn publish_at(mgr: &TxnManager, gts: u64, writes: Vec<WriteEntry>) {
    let mut committer = mgr.begin().unwrap();
    committer.unpinned = true; // the publish releases it
    mgr.publish(committer.pin(), SysTime(gts), writes);
}

fn key0_write() -> Vec<WriteEntry> {
    vec![WriteEntry {
        table: 0,
        key: Key::int(0),
        app: AppPeriod::ALL,
    }]
}

#[test]
fn publish_ahead_of_the_watermark_keeps_its_commit_record() {
    let mgr = sharded([None, None]);
    let t = mgr.table_ids()[0];
    // Two in-flight timestamps; the *newer* publishes first while the
    // older still holds the watermark back. The record must survive
    // pruning: readers can still pin below it and need it to validate.
    let a = oracle(&mgr).begin_commit();
    let b = oracle(&mgr).begin_commit();
    publish_at(&mgr, b, key0_write());
    assert!(mgr.read_ts().0 < b, "a still in flight");
    {
        let log = mgr.commit_log.lock().expect("commit log");
        assert!(
            log.timestamps().any(|ts| ts.0 == b),
            "pruning must floor at the watermark, not at the published gts"
        );
    }
    let mut txn = mgr.begin().expect("begin");
    assert!(txn.pin().0 < b);
    txn.update(t, &Key::int(0), &[(1, Value::Int(9))], None)
        .expect("update");
    match txn.commit() {
        Err(Error::Conflict(_)) => {}
        other => panic!("expected a conflict with b's write, got {other:?}"),
    }
    oracle(&mgr).abort(a);
}

#[test]
fn out_of_order_publishes_cannot_hide_commits_from_validation() {
    let mgr = sharded([None, None]);
    let t = mgr.table_ids()[0];
    // A long-lived pin keeps the log from pruning.
    let reader = mgr.begin().expect("begin");
    // Three in-flight commits; the newest publishes first, the oldest
    // second, so *append* order would be [c, a] while gts order is [a, c].
    let a = oracle(&mgr).begin_commit();
    let b = oracle(&mgr).begin_commit();
    let c = oracle(&mgr).begin_commit();
    publish_at(&mgr, c, key0_write());
    publish_at(&mgr, a, Vec::new());
    {
        let log = mgr.commit_log.lock().expect("commit log");
        let order: Vec<u64> = log.timestamps().map(|ts| ts.0).collect();
        assert_eq!(order, vec![a, c], "log stays ascending by gts");
    }
    assert_eq!(mgr.read_ts().0, a, "b still holds the watermark at a");
    // A transaction pinned at exactly a must still see c's conflicting
    // write: the reverse scan's early exit stops at the first record at or
    // below the pin, which must never be an out-of-order entry sitting in
    // front of a newer one.
    let mut txn = mgr.begin().expect("begin");
    assert_eq!(txn.pin().0, a);
    txn.update(t, &Key::int(0), &[(1, Value::Int(9))], None)
        .expect("update");
    match txn.commit() {
        Err(Error::Conflict(_)) => {}
        other => panic!("expected a conflict with c's write, got {other:?}"),
    }
    oracle(&mgr).abort(b);
    reader.rollback();
}

#[test]
fn poisoned_shard_fail_stops_cluster_reads() {
    let buf0 = SharedBuf::new();
    let buf1 = SharedBuf::new();
    // Participant 1's log accepts the stream header and nothing else: its
    // prepare submit fails, poisoning it before any decision.
    let mgr = sharded([
        Some(TxnWal::create(Box::new(buf0.clone()), DurabilityMode::Strict).expect("wal")),
        Some(
            TxnWal::create(
                Box::new(FaultyWriter::new(buf1.clone(), WAL_HEADER_LEN as u64)),
                DurabilityMode::Strict,
            )
            .expect("wal"),
        ),
    ]);
    let t = mgr.table_ids()[0];
    let before = mgr.read_ts();

    let mut txn = mgr.begin().expect("begin");
    txn.update(t, &Key::int(0), &[(1, Value::Int(-1))], None)
        .expect("update");
    txn.update(t, &Key::int(1), &[(1, Value::Int(-2))], None)
        .expect("update");
    match txn.commit() {
        Err(Error::Internal(_)) => {}
        other => panic!("expected the prepare submit failure, got {other:?}"),
    }
    // Nothing decided: the abort burns the slot (the watermark may step
    // over it), but no participant applied anything and nothing was
    // published.
    assert_eq!(mgr.participants()[0].now(), before);
    assert_eq!(mgr.participants()[1].now(), before);
    let log = mgr.commit_log.lock().expect("commit log poisoned");
    assert!(log.timestamps().next().is_none(), "nothing was published");
    drop(log);
    // The poisoned participant makes any cut potentially non-atomic; reads
    // fail-stop instead of serving it.
    match mgr.read_at(mgr.read_ts()) {
        Err(Error::Internal(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("expected fail-stop, got {:?}", other.map(|r| r.at())),
    };
}
