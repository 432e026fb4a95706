//! Fault-injection suite: seeded corruption fuzzing of the archive format
//! and of every decoder behind the shared byte codec, and frame-boundary
//! truncation. The guarantee under test: **no injected fault may escalate
//! beyond a typed error** — no panic, no abort, no silently-wrong data.
//! Worker-panic containment is tested where it lives, in the engine's
//! `morsel` and `rowscan` modules.

use bitempo_core::{Error, Result};
use bitempo_dbgen::ScaleConfig;
use bitempo_engine::{build_engine, SystemKind};
use bitempo_histgen::{decode_txn, encode_txn, loader, Archive, HistoryConfig};
use bitempo_wal::{decode_payload, encode_prepare, Checkpoint, WalReader};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One serialized tiny archive, shared across all fuzz cases.
fn archive_bytes() -> &'static (Archive, Vec<u8>) {
    static BYTES: OnceLock<(Archive, Vec<u8>)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let history = bitempo_histgen::generate_history(&data, &HistoryConfig::tiny());
        let bytes = history.archive.encode().unwrap();
        (history.archive, bytes)
    })
}

/// One valid encoding per decoder behind the shared codec: an archive, a
/// transaction body, an enveloped WAL payload and a checkpoint.
fn valid_encodings() -> &'static [Vec<u8>; 4] {
    static ENCODINGS: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        let (archive, bytes) = archive_bytes();
        let txn = &archive.transactions[0];
        let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
        let mut engine = build_engine(SystemKind::A);
        let ids = loader::load_initial(engine.as_mut(), &data).unwrap();
        let checkpoint = Checkpoint::capture(engine.as_mut(), &ids[..1], 0).unwrap();
        [
            bytes.clone(),
            encode_txn(txn).unwrap(),
            encode_prepare(42, txn).unwrap(),
            checkpoint.encode(),
        ]
    })
}

/// Feeds `bytes` to every decoder behind the shared codec: each must answer
/// `Ok` or `Error::Archive`, never panic and never another error class.
fn every_decoder_contains(bytes: &[u8]) -> std::result::Result<(), String> {
    let verdicts: [(&str, Result<()>); 4] = [
        ("decode_txn", decode_txn(bytes).map(drop)),
        ("decode_payload", decode_payload(bytes).map(drop)),
        ("Checkpoint::decode", Checkpoint::decode(bytes).map(drop)),
        ("Archive::decode", Archive::decode(bytes).map(drop)),
    ];
    for (decoder, verdict) in verdicts {
        if let Err(e) = verdict {
            if !matches!(e, Error::Archive(_)) {
                return Err(format!("{decoder} escalated to {e:?}"));
            }
        }
    }
    Ok(())
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
        match Archive::decode(&corrupted) {
            Ok(_) => {}
            Err(Error::Archive(_)) => {}
            Err(other) => prop_assert!(
                false,
                "byte {offset} ^ {mask:#04x} escalated to {other:?}"
            ),
        }
    }

    /// The same containment for a flip plus a truncation anywhere: a
    /// corrupted, cut-short archive decodes to `Ok` or `Error::Archive`.
    #[test]
    fn flip_and_truncation_are_contained(
        offset_seed in any::<u64>(),
        mask_seed in 0u8..255,
        cut_seed in any::<u64>(),
    ) {
        let (_, bytes) = archive_bytes();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[offset] ^= mask_seed.wrapping_add(1);
        damaged.truncate(cut);
        match Archive::decode(&damaged) {
            Ok(_) => {}
            Err(Error::Archive(_)) => {}
            Err(other) => prop_assert!(
                false,
                "byte {offset} flipped, cut at {cut}: escalated to {other:?}"
            ),
        }
    }

    /// The shared reader under fuzz: arbitrary bytes, and a single-byte
    /// mutation of each valid encoding, fed to every decoder behind it.
    #[test]
    fn every_decoder_contains_arbitrary_and_mutated_bytes(
        garbage in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
        offset_seed in any::<u64>(),
        mask_seed in 0u8..255,
    ) {
        if let Err(why) = every_decoder_contains(&garbage) {
            prop_assert!(false, "{garbage:?}: {why}");
        }
        for valid in valid_encodings() {
            let offset = (offset_seed % valid.len() as u64) as usize;
            let mut mutated = valid.clone();
            mutated[offset] ^= mask_seed.wrapping_add(1);
            if let Err(why) = every_decoder_contains(&mutated) {
                prop_assert!(false, "byte {offset} of a {}-byte encoding: {why}", valid.len());
            }
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
        match Archive::decode(&bytes[..cut]) {
            Err(Error::Archive(_)) => {}
            Ok(_) => panic!("truncation to {cut} bytes parsed as a full archive"),
            Err(other) => panic!("truncation to {cut} escalated to {other:?}"),
        }
    }
}

/// A payload bit flip is caught by the frame checksum.
#[test]
fn payload_flips_are_detected() {
    let (_, bytes) = archive_bytes();
    // Flip one payload bit well past the headers.
    let mut bad = bytes.clone();
    let off = bytes.len() / 2;
    bad[off] ^= 0x40;
    assert!(
        matches!(Archive::decode(&bad), Err(Error::Archive(_))),
        "the frame checksum missed a payload flip at {off}"
    );
}

/// Truncation exactly at a frame boundary leaves every remaining frame
/// intact; only the header frame's count can tell. Every such cut — after
/// the stream header, after the header frame, after each transaction but
/// the last — must be rejected.
#[test]
fn every_frame_boundary_truncation_is_rejected() {
    let (archive, bytes) = archive_bytes();
    let mut frames = WalReader::new(bytes);
    let mut boundaries = vec![frames.valid_len()];
    while frames.next().is_some() {
        boundaries.push(frames.valid_len());
    }
    assert_eq!(frames.torn(), None);
    assert_eq!(boundaries.pop(), Some(bytes.len() as u64));
    assert_eq!(boundaries.len(), archive.transactions.len() + 1);
    for cut in boundaries {
        match Archive::decode(&bytes[..cut as usize]) {
            Err(Error::Archive(_)) => {}
            Ok(_) => panic!("a cut at the frame boundary {cut} parsed as a full archive"),
            Err(other) => panic!("a cut at the frame boundary {cut} escalated to {other:?}"),
        }
    }
}
