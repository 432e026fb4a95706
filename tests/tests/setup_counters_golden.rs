//! The set-up path pinned against a committed table: for every phase of
//! the tiny TPC-BiH set-up — generation, the archive round trip, the
//! generator's own replay, and per engine the load, the archive replay,
//! each tuning, a checkpoint's capture / encode / decode / restore, the
//! recovery of a commit-only log and the canonical state — and of the
//! serving set-up over a 200-key table — the seed, its checkpoint's capture
//! and encode, the 4-way partition, each shard's restore, a churn of 2 000
//! single-key updates through a `TxnManager` logging to a shared buffer,
//! and the recovery of that log from the seed's checkpoint — the
//! allocation count, the bytes allocated, the live high-water mark above
//! the phase's start, the live bytes the phase left behind (its output
//! included), and the size of what the phase produced. All of it must
//! equal `setup_counters_golden.txt`.
//!
//! These are the exact twins of the benchmark's `setup_s` and
//! `peak_rss_mib`: counts do not depend on the host, the high-water column
//! shows which phase sets the peak, and the retained column what a phase
//! keeps or gives back (it is negative when the phase frees more than it
//! allocates). They do depend on the build:
//! the file pins the debug build `cargo test` makes, and a release run
//! only checks that two runs count the same. Regenerate (only when a count
//! is *meant* to change) with `BITEMPO_WRITE_GOLDEN=1 cargo test -p
//! bitempo-tests --test setup_counters_golden`.
//!
//! The counter is thread-local and counts only inside [`counted`], so every
//! engine runs at one worker. Tracing stays off.

mod counting;
mod golden;

use bitempo_core::{Key, TableId, Value};
use bitempo_dbgen::ScaleConfig;
use bitempo_engine::api::TuningConfig;
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{
    encode_txn, generate_history, load_initial, replay, Archive, GenDb, HistoryConfig,
};
use bitempo_shard::partition_checkpoint;
use bitempo_txn::TxnManager;
use bitempo_wal::{canonical_state, recover, Checkpoint, DurabilityMode, SharedBuf, TxnWal};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/setup_counters_golden.txt"
);

/// Keys of the serving set-up's table.
const SERVE_KEYS: i64 = 200;

/// Shards the serving set-up partitions its checkpoint into.
const SERVE_SHARDS: usize = 4;

/// Single-key updates the serving churn commits, round-robin over the keys.
const SERVE_CHURN: i64 = 2000;

/// Runs `f` counted and renders what it allocated as
/// `"{allocs} {bytes} {high-water} {retained}"`. The result is dropped after
/// counting stops.
fn counted<R>(f: impl FnOnce() -> R) -> (R, String) {
    let (out, n) = counting::counted(f);
    (
        out,
        format!("{} {} {} {}", n.allocs, n.bytes, n.high, n.live),
    )
}

/// The table's lines, one per phase: `phase allocs bytes high retained out
/// unit`.
struct Lines(Vec<String>);

impl Lines {
    /// Adds phase `phase`'s counts and the size of its output, `out`
    /// `unit`s.
    fn push(&mut self, phase: &str, counts: String, out: usize, unit: &str) {
        self.0.push(format!("{phase} {counts} {out} {unit}"));
    }
}

/// Versions stored over `ids`.
fn versions(engine: &dyn BitemporalEngine, ids: &[TableId]) -> usize {
    ids.iter().map(|&id| engine.stats(id).total()).sum()
}

/// Versions a checkpoint holds.
fn checkpoint_versions(ck: &Checkpoint) -> usize {
    ck.tables.iter().map(|(_, v)| v.len()).sum()
}

/// A fresh engine of `kind` at one worker.
fn engine_at_one_worker(kind: SystemKind) -> Box<dyn BitemporalEngine> {
    let mut engine = build_engine(kind);
    engine
        .apply_tuning(&TuningConfig::none().with_workers(1))
        .unwrap();
    engine
}

/// The commit-only log of `archive`: one record per transaction, its
/// encoded body, as the logged loop writes it. Not counted.
fn commit_only_log(archive: &Archive) -> Vec<u8> {
    let buf = SharedBuf::new();
    let mut log = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
    for txn in &archive.transactions {
        log.append(&encode_txn(txn).unwrap()).unwrap();
    }
    log.close().unwrap();
    buf.snapshot()
}

/// One engine's set-up, phase by phase.
fn engine_lines(
    kind: SystemKind,
    data: &bitempo_dbgen::TpchData,
    archive: &Archive,
    log: &[u8],
    lines: &mut Lines,
) {
    let name = kind.name().trim_start_matches("System ");
    let label = |phase: &str| format!("{name} {phase}");
    let mut engine = engine_at_one_worker(kind);
    let (ids, n) = counted(|| load_initial(engine.as_mut(), data).unwrap());
    let stored = |engine: &dyn BitemporalEngine| versions(engine, &ids);
    lines.push(
        &label("load_initial"),
        n,
        stored(engine.as_ref()),
        "versions",
    );
    // Recovery starts from the seq-0 checkpoint of the initial load.
    let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
        .unwrap()
        .encode();
    let (_, n) = counted(|| replay(engine.as_mut(), &ids, archive, 1).unwrap());
    lines.push(&label("replay"), n, stored(engine.as_ref()), "versions");
    let (_, n) = counted(|| engine.checkpoint());
    lines.push(
        &label("engine_checkpoint"),
        n,
        stored(engine.as_ref()),
        "versions",
    );
    for (tuning_name, tuning) in [
        ("none", TuningConfig::none()),
        ("key_time", TuningConfig::key_time()),
        ("temporal", TuningConfig::temporal()),
    ] {
        let tuning = tuning.with_workers(1);
        let (_, n) = counted(|| engine.apply_tuning(&tuning).unwrap());
        let phase = label(&format!("apply_tuning {tuning_name}"));
        lines.push(&phase, n, stored(engine.as_ref()), "versions");
    }
    let seq = archive.transactions.len() as u64;
    let (ck, n) = counted(|| Checkpoint::capture(engine.as_mut(), &ids, seq).unwrap());
    lines.push(
        &label("checkpoint capture"),
        n,
        checkpoint_versions(&ck),
        "versions",
    );
    let (bytes, n) = counted(|| ck.encode());
    lines.push(&label("checkpoint encode"), n, bytes.len(), "bytes");
    drop(ck);
    let (ck, n) = counted(|| Checkpoint::decode(&bytes).unwrap());
    lines.push(
        &label("checkpoint decode"),
        n,
        checkpoint_versions(&ck),
        "versions",
    );
    drop(bytes);
    let mut fresh = engine_at_one_worker(kind);
    let (restored, n) = counted(|| ck.restore_into(fresh.as_mut()).unwrap());
    let out = versions(fresh.as_ref(), &restored);
    lines.push(&label("checkpoint restore"), n, out, "versions");
    drop((ck, fresh));
    let tuning = TuningConfig::none().with_workers(1);
    let (rec, n) = counted(|| recover(kind, log, std::slice::from_ref(&base), &tuning).unwrap());
    lines.push(
        &label("recover"),
        n,
        rec.report.replayed as usize,
        "records",
    );
    drop(rec);
    let (state, n) = counted(|| canonical_state(engine.as_ref(), &ids).unwrap());
    lines.push(&label("canonical_state"), n, state.len(), "versions");
}

/// One engine's serving set-up: the seeded table, its checkpoint, and the
/// shards a cluster restores from it.
fn serve_lines(kind: SystemKind, lines: &mut Lines) {
    let name = kind.name().trim_start_matches("System ");
    let label = |phase: &str| format!("{name} serve {phase}");
    let mut engine = engine_at_one_worker(kind);
    let t = engine.create_table(bitemp_table("balance")).unwrap();
    let (_, n) = counted(|| {
        for k in 0..SERVE_KEYS {
            engine.insert(t, simple_row(k, 0), None).unwrap();
        }
        engine.commit();
    });
    lines.push(
        &label("seed"),
        n,
        versions(engine.as_ref(), &[t]),
        "versions",
    );
    let (base, n) = counted(|| Checkpoint::capture(engine.as_mut(), &[t], 0).unwrap());
    lines.push(&label("capture"), n, checkpoint_versions(&base), "versions");
    let (bytes, n) = counted(|| base.encode());
    lines.push(&label("encode"), n, bytes.len(), "bytes");
    let (parts, n) = counted(|| partition_checkpoint(&base, SERVE_SHARDS));
    lines.push(&label("partition"), n, parts.len(), "shards");
    for (i, part) in parts.iter().enumerate() {
        let mut shard = engine_at_one_worker(kind);
        let (ids, n) = counted(|| part.restore_into(shard.as_mut()).unwrap());
        let out = versions(shard.as_ref(), &ids);
        lines.push(&label(&format!("restore {i}")), n, out, "versions");
    }
    drop(parts);
    let buf = SharedBuf::new();
    let wal = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Async).unwrap();
    let mgr = TxnManager::new(engine, vec![t], Some(wal)).unwrap();
    let (_, n) = counted(|| {
        for i in 0..SERVE_CHURN {
            let mut txn = mgr.begin().unwrap();
            let key = Key::int(i % SERVE_KEYS);
            txn.update(t, &key, &[(1, Value::Int(i))], None).unwrap();
            txn.commit().unwrap();
        }
    });
    let (engine, ids, _) = mgr.close().unwrap();
    lines.push(
        &label("churn"),
        n,
        versions(engine.as_ref(), &ids),
        "versions",
    );
    drop(engine);
    let log = buf.snapshot();
    let tuning = TuningConfig::none().with_workers(1);
    let (rec, n) = counted(|| recover(kind, &log, std::slice::from_ref(&bytes), &tuning).unwrap());
    let out = versions(rec.engine.as_ref(), &rec.ids);
    lines.push(&label("churn recover"), n, out, "versions");
}

fn table() -> String {
    let mut lines = Lines(vec![
        "# phase allocs bytes high_water retained output unit".into()
    ]);
    let (data, n) = counted(|| bitempo_dbgen::generate(&ScaleConfig::tiny()));
    let rows = data.tables.iter().map(|t| t.rows.len()).sum();
    lines.push("dbgen generate", n, rows, "rows");
    let (archive, n) = counted(|| generate_history(&data, &HistoryConfig::tiny()).archive);
    lines.push("histgen generate", n, archive.transactions.len(), "txns");
    let (encoded, n) = counted(|| archive.encode().unwrap());
    lines.push("archive encode", n, encoded.len(), "bytes");
    let (decoded, n) = counted(|| Archive::decode(&encoded).unwrap());
    lines.push("archive decode", n, decoded.transactions.len(), "txns");
    assert_eq!(decoded, archive, "the archive round-trips");
    drop((encoded, decoded));
    let (db, n) = counted(|| GenDb::replay(&data, &archive).unwrap());
    let stored = (0..db.table_count())
        .map(|t| db.current_len(t) + db.invalidated_len(t))
        .sum();
    lines.push("gendb replay", n, stored, "versions");
    drop(db);
    let log = commit_only_log(&archive);
    for kind in SystemKind::ALL {
        engine_lines(kind, &data, &archive, &log, &mut lines);
        serve_lines(kind, &mut lines);
    }
    lines.0.join("\n") + "\n"
}

#[test]
fn setup_allocations_match_the_committed_table() {
    let table = table();
    assert_eq!(table, self::table(), "set-up counts differ run to run");
    if !cfg!(debug_assertions) {
        return;
    }
    golden::assert_golden(GOLDEN, &table);
}
