//! Crash–recovery equivalence, end to end, verified by fault injection.
//!
//! The contract under test (DESIGN.md §10): for any crash point in the WAL
//! stream, recovery from the surviving bytes plus the captured checkpoints
//! rebuilds an engine whose state is equivalent to an uncrashed oracle that
//! replayed exactly the recovered prefix through the production loader,
//! with no WAL and no checkpoints — on every engine, under both
//! durability modes that acknowledge before the end of the run. Equivalence
//! is asserted twice per cell: full canonical state (every version of every
//! table) and the five-class query probe from `bitempo_workloads::suite`.
//!
//! The torn-tail fuzz below is satellite coverage for the byte layer: a log
//! truncated at *every* offset of its final record, and 100 seeded single
//! bit-flips anywhere in the stream, must never panic, and must yield either
//! the exact clean prefix or a clean truncation report.

use bitempo_core::fault::FaultyWriter;
use bitempo_core::Pcg32;
use bitempo_dbgen::{ScaleConfig, TpchData};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_histgen::{generate_history, load_initial, replay, Archive, HistoryConfig};
use bitempo_wal::{
    canonical_state, durable_replay, recover, Checkpoint, DurabilityMode, DurableRun, SharedBuf,
    TxnWal, WalReader, WalSink, WAL_HEADER_LEN,
};
use bitempo_workloads::{five_class_answers, five_class_diff, Ctx, QueryParams};
use std::sync::OnceLock;

/// Checkpoint cadence used throughout: small enough that every crash point
/// exercises a checkpoint + WAL-tail recovery, not a full replay.
const CHECKPOINT_EVERY: u64 = 25;

fn world() -> &'static (TpchData, Archive) {
    static WORLD: OnceLock<(TpchData, Archive)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let data = bitempo_dbgen::generate(&ScaleConfig {
            h: 0.0004,
            seed: 0xCAFE,
        });
        let hist = generate_history(
            &data,
            &HistoryConfig {
                m: 0.0001, // 100 scenario transactions
                seed: 0x5EED,
            },
        );
        (data, hist.archive)
    })
}

/// A logged load of the world on `kind`, the way every caller drives the
/// loop: version 0 and its seq-0 checkpoint, the logged loop into `sink`
/// under `mode`, then `close`. Returns the run with the seq-0 checkpoint
/// put first, and whether the sink failed — at an append, or only at
/// `close`, where a group-commit failure may first surface.
fn logged_load(
    kind: SystemKind,
    sink: Box<dyn WalSink>,
    mode: DurabilityMode,
) -> (DurableRun, bool) {
    let (data, archive) = world();
    let mut engine = build_engine(kind);
    let ids = load_initial(engine.as_mut(), data).unwrap();
    let base = Checkpoint::capture(engine.as_mut(), &ids, 0)
        .unwrap()
        .encode();
    let mut log = TxnWal::create(sink, mode).unwrap();
    let txns = &archive.transactions;
    let mut run = durable_replay(engine.as_mut(), &ids, txns, &mut log, CHECKPOINT_EVERY)
        .unwrap_or_else(|e| panic!("{kind}: replay errored hard: {e}"));
    run.checkpoints.insert(0, base);
    let closed = log.close();
    let crashed = run.crashed.is_some() || closed.is_err();
    (run, crashed)
}

/// The uncrashed oracle is the production load path: version 0, then the
/// first `commits` archive transactions one per commit (`replay`, batch
/// 1), then a checkpoint. It runs no WAL and no checkpoint along the way,
/// so it shares no code with the logged loop or with recovery.
fn oracle(
    kind: SystemKind,
    commits: u64,
) -> (Box<dyn BitemporalEngine>, Vec<bitempo_core::TableId>) {
    let (data, archive) = world();
    let mut engine = build_engine(kind);
    let ids = load_initial(engine.as_mut(), data).unwrap();
    let prefix = Archive {
        dbgen_seed: archive.dbgen_seed,
        hist_seed: archive.hist_seed,
        transactions: archive.transactions[..commits as usize].to_vec(),
    };
    replay(engine.as_mut(), &ids, &prefix, 1).unwrap();
    engine.checkpoint();
    (engine, ids)
}

/// A clean (uncrashed, strict-mode) run on System A: the full log bytes,
/// the captured checkpoints, and the commit count. The WAL bytes are
/// engine-independent (they encode archive transactions, not engine
/// state), so the fuzz tests can corrupt this one stream.
fn clean_log() -> &'static (Vec<u8>, Vec<Vec<u8>>, u64) {
    static CLEAN: OnceLock<(Vec<u8>, Vec<Vec<u8>>, u64)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let buf = SharedBuf::new();
        let (run, crashed) =
            logged_load(SystemKind::A, Box::new(buf.clone()), DurabilityMode::Strict);
        assert!(!crashed);
        (buf.snapshot(), run.checkpoints, run.commits)
    })
}

/// The full fault matrix of the issue's acceptance criterion: seeded crash
/// points mid-stream × all four engines × both acknowledged-durability
/// modes. Every cell must recover a prefix that the oracle confirms, with
/// zero skipped operations.
#[test]
fn crash_recovery_matches_the_oracle_on_every_engine_and_mode() {
    let tuning = TuningConfig::none().with_workers(1);
    let clean_len = clean_log().0.len() as u64;
    let mut rng = Pcg32::new(0xC4A5_4B17, 0xD0);
    for kind in SystemKind::ALL {
        for mode in [DurabilityMode::Strict, DurabilityMode::Batched(5)] {
            for _ in 0..2 {
                // Crash strictly inside the record stream, past the header.
                let cut = rng.int_range(WAL_HEADER_LEN as i64 + 1, clean_len as i64 - 1) as u64;
                let label = format!("{kind}/{}/cut={cut}", mode.label());

                let buf = SharedBuf::new();
                let sink = Box::new(FaultyWriter::new(buf.clone(), cut));
                let (run, crashed) = logged_load(kind, sink, mode);
                assert!(crashed, "{label}: the cut must fire");

                let rec = recover(kind, &buf.snapshot(), &run.checkpoints, &tuning)
                    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
                if mode == DurabilityMode::Strict {
                    // Strict acknowledges only durable commits, so recovery
                    // must restore every one of them.
                    assert_eq!(rec.report.commits, run.commits, "{label}");
                } else {
                    // Group commit may lose an acknowledged suffix; never
                    // more than was committed.
                    assert!(rec.report.commits <= run.commits, "{label}");
                }
                // Zero skips: everything between the checkpoint and the end
                // of the valid WAL prefix was replayed.
                assert_eq!(
                    rec.report.replayed,
                    rec.report.commits - rec.report.checkpoint_seq,
                    "{label}: replay skipped records"
                );

                let (oracle, oracle_ids) = oracle(kind, rec.report.commits);
                assert_eq!(
                    canonical_state(rec.engine.as_ref(), &rec.ids).unwrap(),
                    canonical_state(oracle.as_ref(), &oracle_ids).unwrap(),
                    "{label}: full state diverges from the oracle"
                );

                let params = QueryParams::derive(oracle.as_ref()).unwrap();
                let oracle_ctx = Ctx::new(oracle.as_ref()).unwrap();
                let recovered_ctx = Ctx::new(rec.engine.as_ref()).unwrap();
                let want = five_class_answers(&oracle_ctx, &params).unwrap();
                let got = five_class_answers(&recovered_ctx, &params).unwrap();
                if let Some(diff) = five_class_diff(&got, &want) {
                    panic!("{label}: query class diverges: {diff}");
                }
            }
        }
    }
}

/// A [`WalReader`] read to the end must report exactly what `scan` does for
/// the same bytes: records, truncation point, tear reason, stream state.
/// Recovery reads through the former, the fuzz assertions speak of the
/// latter.
fn assert_reader_matches_scan(bytes: &[u8], label: &str) {
    let scan = bitempo_wal::scan(bytes);
    let mut reader = WalReader::new(bytes);
    let read: Vec<(u64, &[u8])> = reader.by_ref().collect();
    let scanned: Vec<(u64, &[u8])> = scan
        .records
        .iter()
        .map(|r| (r.seq, r.payload.as_slice()))
        .collect();
    assert_eq!(read, scanned, "{label}: records");
    assert_eq!(reader.valid_len(), scan.valid_len, "{label}: valid_len");
    assert_eq!(reader.torn(), scan.torn.as_deref(), "{label}: torn");
    assert_eq!(reader.stream(), scan.stream, "{label}: stream");
}

/// Satellite 3a: truncate the WAL at every byte offset of the final record.
/// The scan layer must always salvage exactly the first `commits - 1`
/// records — the exact prefix — and report a clean cut only at the record
/// boundary itself. A seeded sample of offsets goes through full recovery.
#[test]
fn truncating_anywhere_in_the_final_record_keeps_the_exact_prefix() {
    let (bytes, checkpoints, commits) = clean_log();
    let full = bitempo_wal::scan(bytes);
    assert!(full.is_clean());
    assert_eq!(full.records.len() as u64, *commits);
    // Chopping one byte off invalidates exactly the final record, so the
    // valid prefix of that scan ends where the final record starts.
    let last_start = bitempo_wal::scan(&bytes[..bytes.len() - 1]).valid_len as usize;
    assert!(last_start > WAL_HEADER_LEN && last_start < bytes.len());

    for cut in last_start..bytes.len() {
        assert_reader_matches_scan(&bytes[..cut], &format!("cut at {cut}"));
        let scan = bitempo_wal::scan(&bytes[..cut]);
        assert_eq!(
            scan.records.len() as u64,
            *commits - 1,
            "cut at {cut}: wrong record count"
        );
        assert_eq!(
            scan.valid_len as usize, last_start,
            "cut at {cut}: wrong truncation point"
        );
        if cut == last_start {
            assert!(scan.is_clean(), "cut at the boundary is a clean log");
        } else {
            assert!(scan.torn.is_some(), "cut at {cut}: tear not reported");
        }
    }

    // End to end on a seeded sample: recovery restores exactly the prefix.
    // The clean run's final checkpoint snapshots the *complete* state (the
    // commit count is a cadence multiple), which would let recovery ignore
    // the WAL tail entirely — drop it so the tail is load-bearing.
    let checkpoints = &checkpoints[..checkpoints.len() - 1];
    let tuning = TuningConfig::none().with_workers(1);
    let mut rng = Pcg32::new(0xF0_22, 7);
    for _ in 0..6 {
        let cut = rng.int_range(last_start as i64, bytes.len() as i64 - 1) as usize;
        let rec = recover(SystemKind::A, &bytes[..cut], checkpoints, &tuning)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(rec.report.commits, *commits - 1, "cut at {cut}");
        assert_eq!(
            rec.report.replayed,
            rec.report.commits - rec.report.checkpoint_seq,
            "cut at {cut}: replay skipped records"
        );
    }
}

/// Satellite 3b: 100 seeded single bit-flips anywhere in the stream. The
/// scan must never panic, must never fabricate records, and every record it
/// keeps must be byte-identical to the clean log's prefix; full recovery
/// from the corrupt bytes must either succeed with a verified prefix or —
/// never — fail.
#[test]
fn seeded_bit_flips_never_panic_and_salvage_a_true_prefix() {
    let (bytes, checkpoints, commits) = clean_log();
    let clean = bitempo_wal::scan(bytes);
    let tuning = TuningConfig::none().with_workers(1);
    let mut rng = Pcg32::new(0xB17_F11D, 3);
    for trial in 0..100 {
        let mut corrupt = bytes.clone();
        let offset = rng.int_range(0, corrupt.len() as i64 - 1) as usize;
        let mask = rng.int_range(1, 255) as u8;
        corrupt[offset] ^= mask;
        let label = format!("trial {trial}: flip {mask:#04x} at {offset}");

        assert_reader_matches_scan(&corrupt, &label);
        let scan = bitempo_wal::scan(&corrupt);
        assert!(
            scan.records.len() as u64 <= *commits,
            "{label}: fabricated records"
        );
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1, "{label}: sequence gap");
            assert_eq!(
                rec.payload, clean.records[i].payload,
                "{label}: salvaged record {i} differs from the clean log"
            );
        }

        let rec = recover(SystemKind::A, &corrupt, checkpoints, &tuning)
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert!(rec.report.commits <= *commits, "{label}");
        assert_eq!(
            rec.report.replayed,
            rec.report.commits - rec.report.checkpoint_seq,
            "{label}: replay skipped records"
        );
    }
}
