//! The memory ledger: what each engine holds after every set-up phase, and
//! which owner holds it. Per engine, over the tiny TPC-BiH instance at one
//! worker, after `load_initial`, the archive replay, the engine checkpoint,
//! each tuning, a restore from a checkpoint and a serving churn, one line
//! gives the live bytes counted since that engine was built, the bytes
//! each self-reporting owner claims — `key` (the system PK index), `heap`
//! (the heap slot arrays on A, B and D; the column fragments on C),
//! `tuning` (the tuning indexes) and `tindex` (the temporal indexes) —
//! and `unattributed`, the live bytes no owner claims. All of it must equal
//! `memory_ledger.txt`.
//!
//! `unattributed` is what no footprint reports yet: row payloads behind
//! their `Arc`, System B's history layout, digests and undo log, the
//! catalogs and System C's shared strings. A memory change names the owner
//! lines it moves; a new structure that no owner counts moves
//! `unattributed`.
//!
//! Live bytes are the counting allocator's net total over every counted
//! phase of one engine's life, so the data the engine is loaded from,
//! generated before counting, is not in them. Like the set-up golden, the
//! file pins the debug build `cargo test` makes, and a release run only
//! checks that two runs count the same. Regenerate (only when an owner is
//! *meant* to move) with `BITEMPO_WRITE_GOLDEN=1 cargo test -p
//! bitempo-tests --test memory_ledger`.

mod counting;
mod golden;

use bitempo_core::{Key, Value};
use bitempo_dbgen::{ScaleConfig, TpchData};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::testutil::{bitemp_table, simple_row};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{generate_history, load_initial, replay, Archive, HistoryConfig};
use bitempo_txn::TxnManager;
use bitempo_wal::{Checkpoint, DurabilityMode, SharedBuf, TxnWal};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/memory_ledger.txt");

/// Keys of the serving table, as in the set-up golden.
const SERVE_KEYS: i64 = 200;

/// Single-key updates of the serving churn, round-robin over the keys.
const SERVE_CHURN: i64 = 2000;

/// The live bytes of one engine's life so far: the sum of what every
/// counted phase since its build left behind.
#[derive(Default)]
struct Live(i64);

impl Live {
    /// Runs `f` counted and adds what it left live.
    fn count<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (out, n) = counting::counted(f);
        self.0 += n.live;
        out
    }
}

/// One ledger line: `system phase live key heap tuning tindex
/// unattributed`.
fn line(name: &str, phase: &str, live: &Live, engine: &dyn BitemporalEngine) -> String {
    let keys = engine.key_structures_footprint();
    let tindex = engine.temporal_index_footprint().bytes as usize;
    let owners = [
        keys.key_bytes,
        keys.heap_bytes,
        keys.tuning_index_bytes,
        tindex,
    ];
    let unattributed = live.0 - owners.iter().sum::<usize>() as i64;
    let [key, heap, tuning, tindex] = owners;
    format!(
        "{name} {phase} {} {key} {heap} {tuning} {tindex} {unattributed}",
        live.0
    )
}

/// A fresh engine of `kind` at one worker, built inside `live`.
fn build(kind: SystemKind, live: &mut Live) -> Box<dyn BitemporalEngine> {
    live.count(|| {
        let mut engine = build_engine(kind);
        engine
            .apply_tuning(&TuningConfig::none().with_workers(1))
            .unwrap();
        engine
    })
}

/// One engine's set-up lines: the load, the replay, the engine checkpoint,
/// each tuning, then a fresh engine restored from its checkpoint.
fn engine_lines(kind: SystemKind, data: &TpchData, archive: &Archive, lines: &mut Vec<String>) {
    let name = kind.name().trim_start_matches("System ");
    let mut live = Live::default();
    let mut engine = build(kind, &mut live);
    let ids = live.count(|| load_initial(engine.as_mut(), data).unwrap());
    lines.push(line(name, "load_initial", &live, engine.as_ref()));
    live.count(|| replay(engine.as_mut(), &ids, archive, 1).unwrap());
    lines.push(line(name, "replay", &live, engine.as_ref()));
    live.count(|| engine.checkpoint());
    lines.push(line(name, "checkpoint", &live, engine.as_ref()));
    for (tuning_name, tuning) in [
        ("none", TuningConfig::none()),
        ("key_time", TuningConfig::key_time()),
        ("temporal", TuningConfig::temporal()),
    ] {
        live.count(|| engine.apply_tuning(&tuning.with_workers(1)).unwrap());
        let phase = format!("tuning_{tuning_name}");
        lines.push(line(name, &phase, &live, engine.as_ref()));
    }
    // The checkpoint is taken and the first engine dropped uncounted: the
    // restored engine's ledger starts at its own build.
    let ck = Checkpoint::capture(engine.as_mut(), &ids, archive.transactions.len() as u64).unwrap();
    drop(engine);
    let mut live = Live::default();
    let mut fresh = build(kind, &mut live);
    live.count(|| ck.restore_into(fresh.as_mut()).unwrap());
    lines.push(line(name, "restore", &live, fresh.as_ref()));
}

/// One engine's serving line: a 200-key table seeded, then churned by
/// single-key updates through a `TxnManager` logging to a shared buffer,
/// whose bytes are freed before the line is taken.
fn serve_line(kind: SystemKind, lines: &mut Vec<String>) {
    let name = kind.name().trim_start_matches("System ");
    let mut live = Live::default();
    let mut engine = build(kind, &mut live);
    let t = live.count(|| {
        let t = engine.create_table(bitemp_table("balance")).unwrap();
        for k in 0..SERVE_KEYS {
            engine.insert(t, simple_row(k, 0), None).unwrap();
        }
        engine.commit();
        t
    });
    let engine = live.count(|| {
        let buf = SharedBuf::new();
        let wal = TxnWal::create(Box::new(buf), DurabilityMode::Async).unwrap();
        let mgr = TxnManager::new(engine, vec![t], Some(wal)).unwrap();
        for i in 0..SERVE_CHURN {
            let mut txn = mgr.begin().unwrap();
            let key = Key::int(i % SERVE_KEYS);
            txn.update(t, &key, &[(1, Value::Int(i))], None).unwrap();
            txn.commit().unwrap();
        }
        mgr.close().unwrap().0
    });
    lines.push(line(name, "serve_churn", &live, engine.as_ref()));
}

fn ledger() -> String {
    let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
    let archive = generate_history(&data, &HistoryConfig::tiny()).archive;
    let mut lines = vec!["# system phase live key heap tuning tindex unattributed".to_string()];
    for kind in SystemKind::ALL {
        engine_lines(kind, &data, &archive, &mut lines);
        serve_line(kind, &mut lines);
    }
    lines.join("\n") + "\n"
}

#[test]
fn memory_owners_match_the_committed_ledger() {
    let ledger = ledger();
    assert_eq!(ledger, self::ledger(), "the ledger differs run to run");
    if !cfg!(debug_assertions) {
        return;
    }
    golden::assert_golden(GOLDEN, &ledger);
}
