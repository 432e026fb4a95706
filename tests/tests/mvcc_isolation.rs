//! Multi-threaded MVCC isolation stress suite.
//!
//! Concurrent committers and snapshot readers hammer a [`TxnManager`] per
//! engine, then two oracles judge the run:
//!
//! * **Serial-replay oracle** — re-applying the successful transactions in
//!   commit-timestamp order on a fresh engine must reproduce the served
//!   engine's canonical state *byte-identically* (same version stamps, same
//!   rows). First-committer-wins plus the exclusive publish section make
//!   the concurrent history equivalent to that serial one.
//! * **Prefix oracle** — every snapshot read taken mid-storm must equal the
//!   state after some commit prefix: exactly the commits with `ts <= pin`,
//!   never a partially applied transaction (each writer commits two inserts
//!   plus an update atomically, so a torn read would surface immediately).

use bitempo_core::{Key, Pcg32, Value};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_txn::TxnManager;
use bitempo_wal::canonical_state;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Initial hot keys every writer contends on.
const HOT_KEYS: i64 = 8;
/// Transactions attempted per worker thread.
const TXNS_PER_THREAD: i64 = 30;
/// First id used for writer-unique inserts (clear of the hot range).
const INSERT_BASE: i64 = 1_000;

/// One committed writer transaction, as its thread recorded it.
#[derive(Debug, Clone)]
struct CommitDesc {
    ts: u64,
    ins_a: i64,
    ins_b: i64,
    hot: i64,
    val: i64,
}

fn fresh_engine(kind: SystemKind) -> (Box<dyn BitemporalEngine>, bitempo_core::TableId) {
    let mut engine = build_engine(kind);
    let t = engine.create_table(bitemp_table("acct")).unwrap();
    for k in 0..HOT_KEYS {
        engine.insert(t, simple_row(k, 0), None).unwrap();
    }
    engine.commit();
    (engine, t)
}

/// `id -> val` of the current snapshot, via the pinned view.
fn observe(view: &dyn BitemporalEngine, t: bitempo_core::TableId) -> BTreeMap<i64, i64> {
    let out = view.scan(t, &SysSpec::Current, &AppSpec::All, &[]).unwrap();
    out.rows
        .iter()
        .map(|r| match (r.get(0), r.get(1)) {
            (Value::Int(id), Value::Int(v)) => (*id, *v),
            other => panic!("unexpected row shape {other:?}"),
        })
        .collect()
}

/// Runs the storm and checks both oracles. Returns (commits, conflicts).
/// `seed` perturbs every worker's stream, so repeated rounds explore
/// different interleavings (the race-hunting tier sweeps it).
fn storm(kind: SystemKind, threads: usize, seed: u64) -> (usize, u64) {
    let (engine, t) = fresh_engine(kind);
    let mgr = TxnManager::new(engine, vec![t], None).unwrap();
    let commits: Mutex<Vec<CommitDesc>> = Mutex::new(Vec::new());
    let reads: Mutex<Vec<(u64, BTreeMap<i64, i64>)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for worker in 0..threads {
            let mgr = &mgr;
            let commits = &commits;
            let reads = &reads;
            s.spawn(move || {
                let mut rng = Pcg32::new(0xB17E_5EED ^ kind as u64 ^ seed, worker as u64);
                for i in 0..TXNS_PER_THREAD {
                    if rng.chance(0.4) {
                        // Reader: pin a snapshot, record what it shows,
                        // then release the pin either way — half roll back
                        // explicitly, half rely on the drop backstop, so
                        // both unpin paths stay exercised.
                        let txn = mgr.begin().unwrap();
                        {
                            let snap = txn.snapshot();
                            let seen = observe(&snap.view(), t);
                            reads.lock().unwrap().push((txn.pin().0, seen));
                        }
                        if rng.chance(0.5) {
                            txn.rollback();
                        }
                        continue;
                    }
                    // Writer: two inserts + one hot-key update, atomically.
                    let serial = worker as i64 * TXNS_PER_THREAD + i;
                    let ins_a = INSERT_BASE + serial * 2;
                    let ins_b = ins_a + 1;
                    let val = serial + 1;
                    let hot = rng.int_range(0, HOT_KEYS - 1);
                    loop {
                        let mut txn = mgr.begin().unwrap();
                        txn.insert(t, simple_row(ins_a, val), None).unwrap();
                        txn.insert(t, simple_row(ins_b, val), None).unwrap();
                        txn.update(t, &Key::int(hot), &[(1, Value::Int(val))], None)
                            .unwrap();
                        match txn.commit() {
                            Ok(ts) => {
                                commits.lock().unwrap().push(CommitDesc {
                                    ts: ts.0,
                                    ins_a,
                                    ins_b,
                                    hot,
                                    val,
                                });
                                break;
                            }
                            Err(bitempo_core::Error::Conflict(_)) => continue,
                            Err(e) => panic!("unexpected commit failure: {e}"),
                        }
                    }
                }
            });
        }
    });

    let conflicts = mgr
        .counters()
        .conflicts
        .load(std::sync::atomic::Ordering::Relaxed);
    // Pin accounting balances after every resolution path has run:
    // commit releases at publish, conflict-abort and rollback release
    // eagerly, drop is the backstop. A leak here would pin the commit-log
    // pruning floor forever.
    // The commit log is the one pin count; a double release debug-asserts
    // there.
    assert_eq!(
        mgr.active_pins(),
        0,
        "{kind}/{threads}: leaked snapshot pins"
    );
    let (served, ids, _) = mgr.close().unwrap();

    let mut commits = commits.into_inner().unwrap();
    commits.sort_by_key(|c| c.ts);
    // Commit timestamps must be dense and unique: one publish at a time.
    for (i, c) in commits.iter().enumerate() {
        assert_eq!(c.ts, 2 + i as u64, "{kind}/{threads}: dense commit order");
    }

    // Serial-replay oracle: same transactions, commit order, fresh engine.
    let (mut oracle, ot) = fresh_engine(kind);
    for c in &commits {
        oracle.insert(ot, simple_row(c.ins_a, c.val), None).unwrap();
        oracle.insert(ot, simple_row(c.ins_b, c.val), None).unwrap();
        oracle
            .update(ot, &Key::int(c.hot), &[(1, Value::Int(c.val))], None)
            .unwrap();
        let ts = oracle.commit();
        assert_eq!(ts.0, c.ts, "{kind}/{threads}: oracle reuses the stamp");
    }
    assert_eq!(
        canonical_state(served.as_ref(), &ids).unwrap(),
        canonical_state(oracle.as_ref(), &[ot]).unwrap(),
        "{kind}/{threads}: served state must equal the serial replay, byte for byte"
    );

    // Prefix oracle: every snapshot read equals some commit-prefix state.
    let mut prefix: BTreeMap<i64, i64> = (0..HOT_KEYS).map(|k| (k, 0)).collect();
    let mut states: BTreeMap<u64, BTreeMap<i64, i64>> = BTreeMap::new();
    states.insert(1, prefix.clone());
    for c in &commits {
        prefix.insert(c.ins_a, c.val);
        prefix.insert(c.ins_b, c.val);
        prefix.insert(c.hot, c.val);
        states.insert(c.ts, prefix.clone());
    }
    for (pin, seen) in reads.into_inner().unwrap() {
        let want = states
            .range(..=pin)
            .next_back()
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("no state at or before pin {pin}"));
        assert_eq!(
            &seen, want,
            "{kind}/{threads}: snapshot pinned at {pin} must see exactly that prefix"
        );
    }

    (commits.len(), conflicts)
}

#[test]
fn single_threaded_history_is_its_own_oracle() {
    for kind in SystemKind::ALL {
        let (commits, conflicts) = storm(kind, 1, 0);
        assert!(commits > 0, "{kind}: the mix must commit something");
        assert_eq!(conflicts, 0, "{kind}: one thread can never conflict");
    }
}

#[test]
fn eight_threads_serialize_to_the_commit_order() {
    for kind in SystemKind::ALL {
        let (commits, _) = storm(kind, 8, 0);
        assert!(commits > 0, "{kind}: the mix must commit something");
    }
}

/// The race-hunting tier: the same oracles, run under an elevated thread
/// count for several rounds of distinct seeds, so CI's dedicated job
/// explores many more interleavings than the default suite. Locally this
/// stays cheap (4 threads, 1 round); CI raises both via the environment:
///
/// ```text
/// BITEMPO_STRESS_THREADS=16 BITEMPO_STRESS_ROUNDS=8 \
///     cargo test --release -p bitempo-tests race_hunting_tier
/// ```
///
/// Every round's seed is printed on entry, so a failure names the exact
/// `(threads, seed)` pair to replay deterministically.
#[test]
fn race_hunting_tier_explores_seeded_interleavings() {
    let threads: usize = std::env::var("BITEMPO_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let rounds: u64 = std::env::var("BITEMPO_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    for round in 0..rounds {
        // Distinct, reproducible per-round seed (splitmix-style spread).
        let seed = (round + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        println!("race-hunt round {round}: threads={threads} seed={seed:#x}");
        for kind in SystemKind::ALL {
            let (commits, _) = storm(kind, threads, seed);
            assert!(commits > 0, "{kind}: round {round} must commit something");
        }
    }
}

/// A snapshot pinned before later commits free its versions' slots — and
/// successors take them — still reads the versions it pinned, through a
/// scan and through key lookups, on every layout whose heaps reuse slots
/// and under every tuning, so that the PK, the Key+Time index and the
/// temporal index each get to answer. Each writer updates every key twice:
/// on A and B a close frees the slot its successor takes, and on D the
/// first successor never becomes visible and hands its slot to the second.
#[test]
fn a_snapshot_pinned_before_a_slot_is_reused_reads_the_old_version() {
    let tunings = [
        ("none", TuningConfig::none()),
        ("key_time", TuningConfig::key_time()),
        ("temporal", TuningConfig::temporal()),
    ];
    for kind in [SystemKind::A, SystemKind::B, SystemKind::D] {
        for (name, tuning) in &tunings {
            let (mut engine, t) = fresh_engine(kind);
            engine
                .apply_tuning(&tuning.clone().with_workers(1))
                .unwrap();
            let mgr = TxnManager::new(engine, vec![t], None).unwrap();
            let reader = mgr.begin().unwrap();
            for round in 1..=3 {
                let mut txn = mgr.begin().unwrap();
                for k in 0..HOT_KEYS {
                    for val in [10 * round, 10 * round + 1] {
                        txn.update(t, &Key::int(k), &[(1, Value::Int(val))], None)
                            .unwrap();
                    }
                }
                txn.commit().unwrap();
            }
            let lookup = |view: &dyn BitemporalEngine, k| {
                let out = view.lookup_key(t, &Key::int(k), &SysSpec::Current, &AppSpec::All);
                let rows = out.unwrap().rows;
                rows.iter().map(|r| r.get(1).clone()).collect::<Vec<_>>()
            };
            {
                let snap = reader.snapshot();
                let view = snap.view();
                let pinned: BTreeMap<i64, i64> = (0..HOT_KEYS).map(|k| (k, 0)).collect();
                assert_eq!(observe(&view, t), pinned, "{kind} {name}");
                for k in 0..HOT_KEYS {
                    assert_eq!(lookup(&view, k), [Value::Int(0)], "{kind} {name} key {k}");
                }
            }
            reader.rollback();
            let now = mgr.begin().unwrap();
            let snap = now.snapshot();
            let latest: BTreeMap<i64, i64> = (0..HOT_KEYS).map(|k| (k, 31)).collect();
            assert_eq!(observe(&snap.view(), t), latest, "{kind} {name}");
        }
    }
}
