//! Fault-injection suite: seeded corruption fuzzing of the archive format,
//! format-version compatibility, worker-panic containment in the morsel
//! layer, and graceful degradation of the experiment harness. The tentpole
//! guarantee under test: **no injected fault may escalate beyond a typed
//! error** — no panic, no abort, no silently-wrong data.

use bitempo_core::fault::{FaultKind, FaultPlan, FaultyReader};
use bitempo_core::Error;
use bitempo_dbgen::ScaleConfig;
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::{build_engine, SystemKind};
use bitempo_histgen::{loader, Archive, HistoryConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One serialized tiny archive, shared across all fuzz cases.
fn archive_bytes() -> &'static (Archive, Vec<u8>) {
    static BYTES: OnceLock<(Archive, Vec<u8>)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let history = bitempo_histgen::generate_history(&data, &HistoryConfig::tiny());
        let mut bytes = Vec::new();
        history.archive.write_to(&mut bytes).unwrap();
        (history.archive, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Corruption fuzz: any single-byte mutation anywhere in the archive
    /// stream must yield either a clean parse (the flip hit padding-free
    /// but semantically inert bits — in practice the checksums make this
    /// nearly impossible) or `Error::Archive`. Never a panic, never an
    /// unbounded allocation, never another error class.
    #[test]
    fn single_byte_corruption_is_always_contained(
        offset_seed in any::<u64>(),
        mask_seed in 0u8..255,
    ) {
        let (_, bytes) = archive_bytes();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        let mask = mask_seed.wrapping_add(1); // never 0: always a real flip
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= mask;
        match Archive::read_from_slice(&corrupted) {
            Ok(_) => {}
            Err(Error::Archive(_)) => {}
            Err(other) => prop_assert!(
                false,
                "byte {offset} ^ {mask:#04x} escalated to {other:?}"
            ),
        }
    }

    /// Same property through the fault-injection reader: seeded fault plans
    /// (bit flip + optional truncation + optional transient) against the
    /// streaming reader must be contained the same way.
    #[test]
    fn seeded_fault_plans_are_contained(seed in any::<u64>()) {
        let (_, bytes) = archive_bytes();
        let plan = FaultPlan::seeded(seed, bytes.len() as u64);
        let mut reader = FaultyReader::new(&bytes[..], plan);
        match Archive::read_from(&mut reader) {
            Ok(_) => {}
            Err(Error::Archive(_)) => {}
            Err(other) => prop_assert!(false, "seed {seed} escalated to {other:?}"),
        }
    }
}

/// Truncation at every prefix length of the header and first record must be
/// detected, not parsed (exhaustive, not sampled: this is the region where
/// a lying length prefix once caused unbounded allocation).
#[test]
fn every_header_truncation_is_detected() {
    let (_, bytes) = archive_bytes();
    for cut in 0..bytes.len().min(128) {
        match Archive::read_from_slice(&bytes[..cut]) {
            Err(Error::Archive(_)) => {}
            Ok(_) => panic!("truncation to {cut} bytes parsed as a full archive"),
            Err(other) => panic!("truncation to {cut} escalated to {other:?}"),
        }
    }
}

/// The unchecksummed v1 layout is gone: a version-1 header is rejected by
/// name, and a payload bit flip in a v2 archive — which v1 parsed without
/// complaint — is caught by the per-transaction checksum.
#[test]
fn v1_is_rejected_and_v2_detects_payload_flips() {
    let (_, v2) = archive_bytes();
    let mut v1_header = v2.clone();
    v1_header[4..8].copy_from_slice(&1u32.to_le_bytes());
    match Archive::read_from_slice(&v1_header) {
        Err(Error::Archive(msg)) => assert_eq!(msg, "unsupported version 1"),
        other => panic!("expected the version to be rejected, got {other:?}"),
    }
    // Flip one payload bit well past the headers.
    let mut v2_bad = v2.clone();
    let off2 = v2.len() / 2;
    v2_bad[off2] ^= 0x40;
    assert!(
        matches!(Archive::read_from_slice(&v2_bad), Err(Error::Archive(_))),
        "v2 checksum missed a payload flip at {off2}"
    );
}

/// Worker-panic containment, per engine: a panic injected into morsel 0 of
/// a parallel scan must surface as `Error::WorkerPanicked` naming that
/// morsel, and the engine must scan cleanly once the injection is cleared.
#[test]
fn worker_panic_is_contained_on_every_engine() {
    let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
    let history = bitempo_histgen::generate_history(&data, &HistoryConfig::tiny());
    for kind in SystemKind::ALL {
        let mut engine = build_engine(kind);
        let ids = loader::load_initial(engine.as_mut(), &data).unwrap();
        loader::replay(engine.as_mut(), &ids, &history.archive, 1).unwrap();
        engine.checkpoint();

        let poisoned = TuningConfig::none().with_workers(2).with_panic_morsel(0);
        engine.apply_tuning(&poisoned).unwrap();
        let orders = engine.resolve("orders").unwrap();
        match engine.scan(orders, &SysSpec::All, &AppSpec::All, &[]) {
            Err(Error::WorkerPanicked { morsel, message }) => {
                assert_eq!(morsel, 0, "{kind}");
                assert!(message.contains("injected fault"), "{kind}: {message}");
            }
            other => panic!("{kind}: expected WorkerPanicked, got {other:?}"),
        }

        // Recovery: same engine, same data, injection cleared.
        engine
            .apply_tuning(&TuningConfig::none().with_workers(2))
            .unwrap();
        let rows = engine
            .scan(orders, &SysSpec::All, &AppSpec::All, &[])
            .unwrap()
            .rows;
        assert!(
            !rows.is_empty(),
            "{kind}: post-recovery scan came back empty"
        );
    }
}

/// Graceful degradation end to end: with every query forced to time out,
/// the fig2 experiment still produces a complete, renderable report whose
/// cells are error markers — the benchmark run survives its worst query.
#[test]
fn degraded_experiment_yields_complete_report() {
    let cfg = bitempo_bench::BenchConfig {
        h: 0.001,
        m: 0.0003,
        repetitions: 1,
        discard: 0,
        batch_size: 1,
        workers: 2,
        query_timeout_millis: 0,
        trace: false,
    };
    let report = bitempo_bench::experiments::fig2(&cfg).unwrap();
    assert_eq!(report.series.len(), 4, "one series per engine");
    for s in &report.series {
        assert_eq!(s.points.len(), 5, "{}: full shape despite faults", s.label);
        assert_eq!(s.errors.len(), 5, "{}: every cell degraded", s.label);
    }
    let md = report.to_markdown();
    assert!(md.contains("ERR"), "{md}");
    assert!(
        md.contains("wall-clock") || md.contains("timed out") || md.contains("timeout"),
        "error footnotes should name the timeout: {md}"
    );
}

/// The transient-fault path recovers through the retry loop and delivers a
/// payload identical to the clean read.
#[test]
fn transient_faults_recover_with_retry() {
    let (archive, bytes) = archive_bytes();
    let reread = bitempo_histgen::read_archive_with_retry(
        || {
            let plan = FaultPlan::none().with(FaultKind::TransientAt(48));
            let mut r = FaultyReader::new(&bytes[..], plan);
            Archive::read_from(&mut r)
        },
        3,
    )
    .unwrap();
    assert_eq!(archive, &reread);
}
