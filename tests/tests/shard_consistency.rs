//! Cross-shard consistency oracle suite.
//!
//! The claim under test: a hash-sharded cluster executing a transaction
//! history is **byte-identical** to a single engine executing the same
//! history serially — per key, per version stamp, at *every* commit
//! timestamp, for all five temporal query classes (implicit current,
//! system `AS OF`, application `AS OF`, system range, all versions).
//! Commit-at-gts makes that possible: every cluster commit lands on its
//! shards at exactly the oracle timestamp the serial engine would have
//! assigned, so the two histories share one time axis. A standalone
//! `TxnManager`, the one-participant case of the same commit path, runs
//! the same script as a further row.
//!
//! The crash seeds then check the 2PC recovery matrix at its two
//! interesting edges: a WAL truncated *after* one shard's commit decision
//! (the surviving decision must finish the sibling's undecided prepare)
//! and truncated *at* the prepares on every participant (presumed abort —
//! the transaction vanishes atomically from all shards).

use bitempo_core::{AppDate, AppPeriod, Key, Row, Value};
use bitempo_core::{Period, SysTime, TableId};
use bitempo_engine::api::{AppSpec, BitemporalEngine, SysSpec};
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_shard::{partition_checkpoint, recover_cluster, Cluster, ShardInput};
use bitempo_txn::{Transaction, TxnManager};
use bitempo_wal::{CanonicalState, Checkpoint, DurabilityMode, SharedBuf, TxnWal};

/// Keys seeded before the scripted history starts.
const SEED_KEYS: i64 = 12;

/// One scripted statement; a transaction is a slice of these.
#[derive(Clone)]
enum St {
    Ins(i64, i64, Option<AppPeriod>),
    Upd(i64, i64, Option<AppPeriod>),
    Del(i64),
}

fn app(start: i64, end: i64) -> AppPeriod {
    Period {
        start: AppDate(start),
        end: AppDate(end),
    }
}

/// The scripted history: a deterministic mix of inserts, whole-period and
/// `FOR PORTION OF` updates, and deletes, with several multi-key
/// transactions that straddle shards at any shard count ≥ 2.
fn script() -> Vec<Vec<St>> {
    vec![
        vec![St::Upd(0, 100, None)],
        vec![St::Ins(50, 1, Some(app(10, 30))), St::Upd(1, 101, None)],
        vec![St::Upd(2, 102, Some(app(5, 15))), St::Upd(3, 103, None)],
        vec![St::Del(4)],
        vec![
            St::Upd(5, 105, None),
            St::Upd(6, 106, None),
            St::Upd(7, 107, Some(app(0, 20))),
        ],
        vec![St::Ins(51, 2, None), St::Ins(52, 3, Some(app(1, 9)))],
        vec![St::Upd(0, 200, Some(app(12, 18))), St::Del(8)],
        vec![St::Upd(9, 109, None), St::Upd(10, 110, None)],
        vec![St::Ins(53, 4, None), St::Upd(50, 5, Some(app(11, 29)))],
        vec![St::Upd(11, 111, None), St::Upd(5, 205, None)],
    ]
}

fn seed_engine(kind: SystemKind) -> (Box<dyn BitemporalEngine>, TableId) {
    let mut engine = build_engine(kind);
    let t = engine.create_table(bitemp_table("acct")).unwrap();
    for k in 0..SEED_KEYS {
        let per = if k % 3 == 0 { Some(app(0, 50)) } else { None };
        engine.insert(t, simple_row(k, k), per).unwrap();
    }
    engine.commit();
    (engine, t)
}

/// Applies one scripted transaction directly to the serial oracle engine.
fn apply_serial(engine: &mut dyn BitemporalEngine, t: TableId, txn: &[St]) {
    for st in txn {
        match st {
            St::Ins(id, v, per) => engine.insert(t, simple_row(*id, *v), *per).unwrap(),
            St::Upd(id, v, per) => {
                engine
                    .update(t, &Key::int(*id), &[(1, Value::Int(*v))], *per)
                    .unwrap();
            }
            St::Del(id) => {
                engine.delete(t, &Key::int(*id), None).unwrap();
            }
        }
    }
    engine.commit();
}

/// Buffers one scripted transaction on `ctx` and commits it.
fn apply_txn(mut ctx: Transaction<'_>, t: TableId, txn: &[St]) -> SysTime {
    for st in txn {
        match st {
            St::Ins(id, v, per) => ctx.insert(t, simple_row(*id, *v), *per).unwrap(),
            St::Upd(id, v, per) => ctx
                .update(t, &Key::int(*id), &[(1, Value::Int(*v))], *per)
                .unwrap(),
            St::Del(id) => ctx.delete(t, &Key::int(*id), None).unwrap(),
        }
    }
    ctx.commit().unwrap()
}

/// Sorted debug lines of one scan — the byte-for-byte comparison unit.
/// The scan schema appends both periods to every row, so two equal line
/// sets agree on values *and* version stamps.
fn scan_lines(
    view: &dyn BitemporalEngine,
    t: TableId,
    sys: &SysSpec,
    app: &AppSpec,
) -> Vec<String> {
    let out = view.scan(t, sys, app, &[]).unwrap();
    let mut lines: Vec<String> = out.rows.iter().map(|r: &Row| format!("{r:?}")).collect();
    lines.sort();
    lines
}

/// Compares a served view and the serial oracle across the five query
/// classes. The `AS OF`-style classes sweep **every** commit timestamp.
fn assert_equivalent(
    view: &dyn BitemporalEngine,
    oracle: &dyn BitemporalEngine,
    ct: TableId,
    ot: TableId,
    last_ts: u64,
    label: &str,
) {
    let mid = AppDate(14);
    // Classes 1 and 5: implicit current, all versions.
    for (sys, app) in [
        (SysSpec::Current, AppSpec::All),
        (SysSpec::All, AppSpec::All),
    ] {
        assert_eq!(
            scan_lines(view, ct, &sys, &app),
            scan_lines(oracle, ot, &sys, &app),
            "{label}: {sys:?}/{app:?}"
        );
    }
    // Classes 2–4 at every commit timestamp: system AS OF, application
    // AS OF (on top of a system pin), system range from the base.
    for ts in 1..=last_ts {
        for (sys, app) in [
            (SysSpec::AsOf(SysTime(ts)), AppSpec::All),
            (SysSpec::AsOf(SysTime(ts)), AppSpec::AsOf(mid)),
            (
                SysSpec::Range(Period {
                    start: SysTime(1),
                    end: SysTime(ts + 1),
                }),
                AppSpec::All,
            ),
        ] {
            assert_eq!(
                scan_lines(view, ct, &sys, &app),
                scan_lines(oracle, ot, &sys, &app),
                "{label} at ts {ts}: {sys:?}/{app:?}"
            );
        }
    }
}

/// Per-shard canonical states of a full-state checkpoint partition — what
/// `bitempo_wal::canonical_state` reports for an engine restored from each
/// part.
fn partitioned_canonical(full: &Checkpoint, shards: usize) -> Vec<CanonicalState> {
    partition_checkpoint(full, shards)
        .iter()
        .map(|part| CanonicalState::of_checkpoint(part).unwrap())
        .collect()
}

/// Runs the scripted history on a cluster of `shards` shards with Strict
/// WALs; returns the WAL images, the per-shard base checkpoints, and the
/// final commit timestamp (the cluster is verified against `oracle` at
/// every timestamp before close).
fn run_sharded(
    kind: SystemKind,
    shards: usize,
    oracle: &dyn BitemporalEngine,
    ot: TableId,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, u64) {
    let (mut seed, st) = seed_engine(kind);
    let base = Checkpoint::capture(seed.as_mut(), &[st], 0).unwrap();
    let bases: Vec<Vec<u8>> = partition_checkpoint(&base, shards)
        .iter()
        .map(|p| p.encode())
        .collect();
    let bufs: Vec<SharedBuf> = (0..shards).map(|_| SharedBuf::new()).collect();
    let wals = bufs
        .iter()
        .map(|b| Some(TxnWal::create(Box::new(b.clone()), DurabilityMode::Strict).unwrap()))
        .collect();
    let cluster = Cluster::from_checkpoint(kind, &base, wals).unwrap();
    let ct = cluster.table_ids()[0];
    let mut last = SysTime(1);
    for txn in &script() {
        last = apply_txn(cluster.begin().unwrap(), ct, txn);
    }
    let snap = cluster.snapshot();
    let guards = snap.read().unwrap();
    let label = format!("{kind}/{shards}sh");
    assert_equivalent(&guards.view(), oracle, ct, ot, last.0, &label);
    drop(guards);
    assert_eq!(cluster.active_pins(), 0, "{label}: leaked pins");
    cluster.close().unwrap();
    (bufs.iter().map(|b| b.snapshot()).collect(), bases, last.0)
}

/// Runs the scripted history on a standalone `TxnManager` with a Strict
/// WAL and verifies it against `oracle` at every timestamp, from a
/// transaction pinned after the last commit.
fn run_standalone(kind: SystemKind, oracle: &dyn BitemporalEngine, ot: TableId) {
    let (seed, st) = seed_engine(kind);
    let wal = TxnWal::create(Box::new(SharedBuf::new()), DurabilityMode::Strict).unwrap();
    let mgr = TxnManager::new(seed, vec![st], Some(wal)).unwrap();
    let mt = mgr.table_ids()[0];
    let mut last = SysTime(1);
    for txn in &script() {
        last = apply_txn(mgr.begin().unwrap(), mt, txn);
    }
    let reader = mgr.begin().unwrap();
    assert_eq!(reader.pin(), last, "{kind}/txn: the pin is the last commit");
    let snap = reader.snapshot();
    assert_equivalent(&snap.view(), oracle, mt, ot, last.0, &format!("{kind}/txn"));
    drop(snap);
    reader.rollback();
    assert_eq!(mgr.active_pins(), 0, "{kind}/txn: leaked pins");
    mgr.close().unwrap();
}

#[test]
fn sharded_execution_is_byte_identical_to_the_serial_oracle() {
    for kind in SystemKind::ALL {
        let (mut oracle, ot) = seed_engine(kind);
        for txn in &script() {
            apply_serial(oracle.as_mut(), ot, txn);
        }
        run_standalone(kind, oracle.as_ref(), ot);
        for shards in [1usize, 2, 4] {
            run_sharded(kind, shards, oracle.as_ref(), ot);
        }
    }
}

/// Truncates `wal` to drop its last `n` records.
fn drop_last(wal: &[u8], n: usize) -> Vec<u8> {
    use bitempo_wal::{scan, BODY_OVERHEAD, FRAME_OVERHEAD, WAL_HEADER_LEN};
    let scan = scan(wal);
    assert!(scan.records.len() >= n, "cannot drop {n} records");
    let keep = scan.records.len() - n;
    let cut = WAL_HEADER_LEN
        + scan.records[..keep]
            .iter()
            .map(|r| FRAME_OVERHEAD + BODY_OVERHEAD + r.payload.len())
            .sum::<usize>();
    wal[..cut].to_vec()
}

#[test]
fn crash_after_decision_converges_to_the_full_serial_state() {
    // The script's final transaction is multi-key (keys 11 and 5), so at
    // 2 shards it either straddles both (2PC, prepare+decision on each)
    // or lands on one (commit record). The seed only applies to the 2PC
    // case; find a shard whose log ends in a decision and cut it.
    for kind in SystemKind::ALL {
        let (mut oracle, ot) = seed_engine(kind);
        for txn in &script() {
            apply_serial(oracle.as_mut(), ot, txn);
        }
        let (wals, bases, _) = run_sharded(kind, 2, oracle.as_ref(), ot);
        let expected =
            partitioned_canonical(&Checkpoint::capture(oracle.as_mut(), &[ot], 0).unwrap(), 2);

        let ends_in_decision = |wal: &[u8]| {
            let scan = bitempo_wal::scan(wal);
            scan.records.last().is_some_and(|r| {
                matches!(
                    bitempo_wal::decode_payload(&r.payload),
                    Ok(bitempo_wal::WalPayload::Decision { commit: true, .. })
                )
            })
        };
        let victim = (0..2).find(|&i| ends_in_decision(&wals[i]));
        let Some(victim) = victim else {
            // Both final-txn keys hashed to one shard at this count; the
            // presumed-abort seed below still covers the 2PC paths.
            continue;
        };
        let inputs: Vec<ShardInput> = (0..2)
            .map(|i| ShardInput {
                wal: if i == victim {
                    drop_last(&wals[i], 1)
                } else {
                    wals[i].clone()
                },
                checkpoints: vec![bases[i].clone()],
            })
            .collect();
        let rec = recover_cluster(kind, &inputs, &Default::default()).unwrap();
        assert!(
            !rec.committed_pending.is_empty(),
            "{kind}: the cut decision must be recovered from the sibling"
        );
        assert!(rec.presumed_aborted.is_empty(), "{kind}");
        for (si, r) in rec.shards.iter().enumerate() {
            assert_eq!(
                bitempo_wal::canonical_state(r.engine.as_ref(), &r.ids).unwrap(),
                expected[si],
                "{kind}: shard {si} must converge to the full serial state"
            );
        }
    }
}

#[test]
fn crash_at_prepare_aborts_the_tail_transaction_on_every_shard() {
    // Cut every shard's log at the last transaction's records (decision
    // AND prepare where present): no decision survives anywhere, so the
    // final transaction is presumed aborted — the recovered cluster must
    // equal a serial oracle that never ran it.
    for kind in SystemKind::ALL {
        let (mut full_oracle, ot) = seed_engine(kind);
        for txn in &script() {
            apply_serial(full_oracle.as_mut(), ot, txn);
        }
        let (wals, bases, last_ts) = run_sharded(kind, 2, full_oracle.as_ref(), ot);

        // The prefix oracle: the same history minus the last transaction.
        let (mut prefix, pt) = seed_engine(kind);
        let all = script();
        for txn in &all[..all.len() - 1] {
            apply_serial(prefix.as_mut(), pt, txn);
        }
        let expected =
            partitioned_canonical(&Checkpoint::capture(prefix.as_mut(), &[pt], 0).unwrap(), 2);

        // Drop every record stamped with the final commit timestamp from
        // each shard: prepare + decision where it ran 2PC, a lone commit
        // record where one shard owned every key, nothing on shards the
        // transaction never touched. Matching on the stamp (not record
        // kind) keeps an *earlier* transaction's trailing decision safe
        // on non-participant shards.
        let gts_of = |payload: &[u8]| match bitempo_wal::decode_payload(payload) {
            Ok(bitempo_wal::WalPayload::Commit { gts, .. }) => gts,
            Ok(bitempo_wal::WalPayload::Prepare { gts, .. }) => Some(gts),
            Ok(bitempo_wal::WalPayload::Decision { gts, .. }) => Some(gts),
            Err(_) => None,
        };
        let last_txn_records = |wal: &[u8]| {
            bitempo_wal::scan(wal)
                .records
                .iter()
                .rev()
                .take_while(|r| gts_of(&r.payload) == Some(last_ts))
                .count()
        };
        let inputs: Vec<ShardInput> = (0..2)
            .map(|i| ShardInput {
                wal: drop_last(&wals[i], last_txn_records(&wals[i])),
                checkpoints: vec![bases[i].clone()],
            })
            .collect();
        let rec = recover_cluster(kind, &inputs, &Default::default()).unwrap();
        assert!(
            rec.committed_pending.is_empty(),
            "{kind}: no decision survived, nothing may commit"
        );
        for (si, r) in rec.shards.iter().enumerate() {
            assert_eq!(
                bitempo_wal::canonical_state(r.engine.as_ref(), &r.ids).unwrap(),
                expected[si],
                "{kind}: shard {si} must equal the serial prefix without the tail txn"
            );
        }
    }
}
