//! The write path pinned against a committed table: for every engine ×
//! front-end × durability mode, one line per commit class of a fixed
//! single-threaded script, with the allocations and bytes allocated by
//! the client transaction (begin, buffered DML and commit), the WAL bytes
//! and frames it logged, the sink writes and syncs it caused, and the
//! snapshot pins still registered once it resolved. All of it must equal
//! `write_counters_golden.txt`.
//!
//! Front-ends: `txn` is a standalone [`TxnManager`]; `shard1` and `shard4`
//! are a [`Cluster`] at 1 and 4 shards over the same base state. Commit
//! classes, in script order: `update1` (one key), `insert`, `update2` (two
//! keys on different shards at 4 shards, so it runs two-phase commit
//! there), `conflict` (a transaction pinned before a committed write to
//! its key, which loses first-committer-wins), `rollback` and `read_only`.
//! Each line reads `system front mode class allocs bytes wal_bytes frames
//! sink_writes syncs pins`.
//!
//! Only `Strict` and `Async` run: both write on the committing thread,
//! while `Batched` leaves writes and syncs to its flusher's clock. Counts
//! are exact and host-independent, but depend on the build: the file pins
//! the debug build `cargo test` makes, and a release run only checks that
//! two runs count the same. Regenerate (only when a count is *meant* to
//! change) with `BITEMPO_WRITE_GOLDEN=1 cargo test -p bitempo-tests --test
//! write_counters_golden`.

mod counting;
mod golden;

use bitempo_core::{Error, Key, Value};
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_shard::Cluster;
use bitempo_txn::TxnManager;
use bitempo_wal::{Checkpoint, DurabilityMode, TxnWal, WalSink};
use bitempo_workloads::sharding::shard_of;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/write_counters_golden.txt"
);

/// Keys seeded before the script runs.
const KEYS: i64 = 16;

/// The largest log a cell writes, reserved up front so the sink never
/// allocates inside a counted region.
const SINK_CAPACITY: usize = 64 << 10;

/// What one WAL sink received: its bytes, write calls and syncs.
#[derive(Default)]
struct SinkLog {
    bytes: Mutex<Vec<u8>>,
    writes: AtomicU64,
    syncs: AtomicU64,
}

/// A WAL sink that counts what it is asked to do. Sync is a no-op.
struct CountingSink(Arc<SinkLog>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.writes.fetch_add(1, Ordering::Relaxed);
        let mut bytes = self.0.bytes.lock().unwrap();
        assert!(
            bytes.len() + buf.len() <= SINK_CAPACITY,
            "a sink outgrew its reservation"
        );
        bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl WalSink for CountingSink {
    fn sync(&mut self) -> std::io::Result<()> {
        self.0.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Totals over every sink of a cell: WAL bytes, frames, writes, syncs.
fn totals(logs: &[Arc<SinkLog>]) -> [u64; 4] {
    let mut out = [0; 4];
    for log in logs {
        let bytes = log.bytes.lock().unwrap();
        out[0] += bytes.len() as u64;
        out[1] += bitempo_wal::scan(&bytes).records.len() as u64;
        out[2] += log.writes.load(Ordering::Relaxed);
        out[3] += log.syncs.load(Ordering::Relaxed);
    }
    out
}

/// A fresh log per sink, each over a counting sink.
fn wals(n: usize, mode: DurabilityMode) -> (Vec<Option<TxnWal>>, Vec<Arc<SinkLog>>) {
    let logs: Vec<Arc<SinkLog>> = (0..n)
        .map(|_| {
            let log = SinkLog::default();
            log.bytes.lock().unwrap().reserve_exact(SINK_CAPACITY);
            Arc::new(log)
        })
        .collect();
    let wals = logs
        .iter()
        .map(|log| Some(TxnWal::create(Box::new(CountingSink(Arc::clone(log))), mode).unwrap()))
        .collect();
    (wals, logs)
}

/// The base state every cell starts from: rows `(k, 10 k)` for every key.
fn base(kind: SystemKind) -> Checkpoint {
    let mut engine = build_engine(kind);
    let t = engine.create_table(bitemp_table("acct")).unwrap();
    for k in 0..KEYS {
        engine.insert(t, simple_row(k, 10 * k), None).unwrap();
    }
    engine.commit();
    Checkpoint::capture(engine.as_mut(), &[t], 0).unwrap()
}

/// Two keys that live on different shards at 4 shards.
fn straddling_keys() -> (i64, i64) {
    let a = 1;
    let b = (0..KEYS)
        .find(|k| shard_of(&Key::int(*k), 4) != shard_of(&Key::int(a), 4))
        .expect("a key on another shard");
    (a, b)
}

/// One counted region's allocations and bytes.
type Counted = (u64, u64);

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    let (out, n) = counting::counted(f);
    (out, (n.allocs, n.bytes))
}

/// Runs the script on front-end `$f` (a `TxnManager` or a `Cluster`, which
/// share the method names the script calls) whose sinks are `$logs`, and
/// appends one line per commit class, prefixed by `$cell`.
macro_rules! script {
    ($f:expr, $logs:expr, $cell:expr, $out:expr) => {{
        let f = $f;
        let t = f.table_ids()[0];
        let (a, b) = straddling_keys();
        let set = |v: i64| [(1usize, Value::Int(v))];
        let mut line = |class: &str, (allocs, bytes): Counted, before: [u64; 4]| {
            let after = totals($logs);
            let d: Vec<u64> = (0..4).map(|i| after[i] - before[i]).collect();
            $out.push(format!(
                "{} {class} {allocs} {bytes} {} {} {} {} {}",
                $cell,
                d[0],
                d[1],
                d[2],
                d[3],
                f.active_pins()
            ));
        };

        let before = totals($logs);
        let (_, n) = counted(|| {
            let mut txn = f.begin().unwrap();
            txn.update(t, &Key::int(0), &set(1), None).unwrap();
            txn.commit().unwrap();
        });
        line("update1", n, before);

        let before = totals($logs);
        let (_, n) = counted(|| {
            let mut txn = f.begin().unwrap();
            txn.insert(t, simple_row(100, 1000), None).unwrap();
            txn.commit().unwrap();
        });
        line("insert", n, before);

        let before = totals($logs);
        let (_, n) = counted(|| {
            let mut txn = f.begin().unwrap();
            txn.update(t, &Key::int(a), &set(2), None).unwrap();
            txn.update(t, &Key::int(b), &set(2), None).unwrap();
            txn.commit().unwrap();
        });
        line("update2", n, before);

        // The loser is pinned before the winner commits; only the loser's
        // own begin, write and commit are counted.
        let (mut stale, pinned) = counted(|| f.begin().unwrap());
        let mut winner = f.begin().unwrap();
        winner.update(t, &Key::int(0), &set(3), None).unwrap();
        winner.commit().unwrap();
        let before = totals($logs);
        let (lost, n) = counted(|| {
            stale.update(t, &Key::int(0), &set(4), None).unwrap();
            stale.commit()
        });
        assert!(matches!(lost, Err(Error::Conflict(_))), "{}", $cell);
        line("conflict", (pinned.0 + n.0, pinned.1 + n.1), before);

        let before = totals($logs);
        let (_, n) = counted(|| {
            let mut txn = f.begin().unwrap();
            txn.update(t, &Key::int(0), &set(5), None).unwrap();
            txn.rollback();
        });
        line("rollback", n, before);

        let before = totals($logs);
        let (_, n) = counted(|| {
            let txn = f.begin().unwrap();
            txn.commit().unwrap();
        });
        line("read_only", n, before);
    }};
}

fn table() -> String {
    let mut out = Vec::new();
    for kind in SystemKind::ALL {
        let name = kind.name().trim_start_matches("System ");
        let base = base(kind);
        for (mode_name, mode) in [
            ("strict", DurabilityMode::Strict),
            ("async", DurabilityMode::Async),
        ] {
            let (mut wal, logs) = wals(1, mode);
            let mut engine = build_engine(kind);
            let ids = base.restore_into(engine.as_mut()).unwrap();
            let mgr = TxnManager::new(engine, ids, wal.pop().unwrap()).unwrap();
            script!(&mgr, &logs, format!("{name} txn {mode_name}"), out);
            drop(mgr.close().unwrap());

            for shards in [1usize, 4] {
                let (wals, logs) = wals(shards, mode);
                let cluster = Cluster::from_checkpoint(kind, &base, wals).unwrap();
                script!(
                    &cluster,
                    &logs,
                    format!("{name} shard{shards} {mode_name}"),
                    out
                );
                drop(cluster.close().unwrap());
            }
        }
    }
    out.join("\n") + "\n"
}

#[test]
fn write_counts_match_the_committed_table() {
    let table = table();
    assert_eq!(table, self::table(), "write counts differ run to run");
    if !cfg!(debug_assertions) {
        return;
    }
    golden::assert_golden(GOLDEN, &table);
}
