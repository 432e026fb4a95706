//! Record-kind envelope for two-phase-commit WAL payloads.
//!
//! PR 7's WAL records are raw archive transaction bodies: one record =
//! one committed, fully applied transaction. The sharded serving layer
//! needs two more kinds — a *prepare* (the full op payload made durable
//! before anything applies) and a *decision* (commit or abort of a
//! prepared transaction) — plus commit records stamped with the cluster
//! oracle's global timestamp so recovery re-lands every shard's commits at
//! exactly the timestamps the live run used.
//!
//! The envelope is backward compatible by construction: new kinds start
//! with [`RECORD_MAGIC`], whose leading bytes decode as an archive
//! scenario count of `0x3242` (12 866) — orders of magnitude beyond what
//! any generated history carries, and the serving layer always encodes
//! zero scenarios (leading bytes `00 00`). A payload without the magic is
//! decoded as a legacy committed body, so every pre-existing WAL replays
//! unchanged through [`decode_payload`].
//!
//! Wire layout after the 4-byte magic:
//!
//! | kind | byte | body |
//! |------|------|------|
//! | commit-at | `1` | `gts: u64 LE`, then the archive txn body |
//! | prepare | `2` | `gts: u64 LE`, then the txn body |
//! | decision | `3` | `gts: u64 LE`, `commit: u8` (1/0) |
//!
//! `gts` is the cluster oracle's commit timestamp. It is unique per
//! transaction (an aborted one is burned, never reissued), so it is also
//! the transaction's identity: a prepare and its decision carry the same
//! `gts`, and recovery matches them by it across a crash.

use bitempo_core::codec::Cursor;
use bitempo_core::{Error, Result};
use bitempo_histgen::{decode_txn, encode_txn, Transaction as TxnOps};

/// Leading bytes of every enveloped (non-legacy) record payload.
pub const RECORD_MAGIC: [u8; 4] = *b"B2PC";

const KIND_COMMIT_AT: u8 = 1;
const KIND_PREPARE: u8 = 2;
const KIND_DECISION: u8 = 3;

/// A decoded WAL record payload, legacy or enveloped.
#[derive(Debug, Clone, PartialEq)]
pub enum WalPayload {
    /// A committed, fully applied transaction. `gts` is `None` for legacy
    /// raw bodies (replay stamps them with the engine's own next commit
    /// time) and `Some` for cluster commits (replay re-lands them at
    /// exactly that oracle timestamp).
    Commit {
        /// Oracle commit timestamp, if the record carries one.
        gts: Option<u64>,
        /// The transaction body.
        txn: TxnOps,
    },
    /// Phase one of a cross-shard commit: the full op payload, durable
    /// *before* anything applies. Undecided prepares are presumed aborted.
    Prepare {
        /// Oracle commit timestamp the transaction will land at.
        gts: u64,
        /// The transaction body.
        txn: TxnOps,
    },
    /// Phase two: the coordinator's verdict on a prepared transaction.
    Decision {
        /// Oracle commit timestamp of the prepared transaction this decides.
        gts: u64,
        /// `true` commits the prepared ops; `false` discards them.
        commit: bool,
    },
}

/// Encodes a committed transaction stamped with its oracle timestamp.
pub fn encode_committed_at(gts: u64, txn: &TxnOps) -> Result<Vec<u8>> {
    let body = encode_txn(txn)?;
    let mut out = Vec::with_capacity(RECORD_MAGIC.len() + 9 + body.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(KIND_COMMIT_AT);
    out.extend_from_slice(&gts.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Encodes a prepare record: `txn` tagged with its oracle commit timestamp.
pub fn encode_prepare(gts: u64, txn: &TxnOps) -> Result<Vec<u8>> {
    let body = encode_txn(txn)?;
    let mut out = Vec::with_capacity(RECORD_MAGIC.len() + 9 + body.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(KIND_PREPARE);
    out.extend_from_slice(&gts.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Encodes a decision record for the transaction prepared at `gts`.
pub fn encode_decision(gts: u64, commit: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_MAGIC.len() + 10);
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(KIND_DECISION);
    out.extend_from_slice(&gts.to_le_bytes());
    out.push(u8::from(commit));
    out
}

/// Decodes a WAL record payload: enveloped kinds by magic, anything else
/// as a legacy committed body.
pub fn decode_payload(bytes: &[u8]) -> Result<WalPayload> {
    if bytes.len() <= RECORD_MAGIC.len() || !bytes.starts_with(&RECORD_MAGIC) {
        return Ok(WalPayload::Commit {
            gts: None,
            txn: decode_txn(bytes)?,
        });
    }
    let mut cur = Cursor::new(&bytes[RECORD_MAGIC.len()..]);
    match cur.u8("record kind")? {
        KIND_COMMIT_AT => Ok(WalPayload::Commit {
            gts: Some(cur.u64("commit gts")?),
            txn: decode_txn(cur.rest())?,
        }),
        KIND_PREPARE => Ok(WalPayload::Prepare {
            gts: cur.u64("prepare gts")?,
            txn: decode_txn(cur.rest())?,
        }),
        KIND_DECISION => {
            let gts = cur.u64("decision gts")?;
            let flag = cur.u8("decision flag")?;
            cur.finish("decision record")?;
            if flag > 1 {
                return Err(Error::Archive("malformed decision record".into()));
            }
            Ok(WalPayload::Decision {
                gts,
                commit: flag == 1,
            })
        }
        other => Err(Error::Archive(format!("unknown record kind {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Row;
    use bitempo_core::Value;
    use bitempo_histgen::Op;

    fn sample_txn() -> TxnOps {
        TxnOps {
            scenarios: Vec::new(),
            ops: vec![Op::Insert {
                table: 0,
                row: Row::new(vec![Value::Int(1), Value::Int(2)]),
                app: None,
            }],
        }
    }

    #[test]
    fn all_kinds_round_trip() {
        let txn = sample_txn();
        let c = encode_committed_at(42, &txn).unwrap();
        assert_eq!(
            decode_payload(&c).unwrap(),
            WalPayload::Commit {
                gts: Some(42),
                txn: txn.clone()
            }
        );
        let p = encode_prepare(42, &txn).unwrap();
        assert_eq!(
            decode_payload(&p).unwrap(),
            WalPayload::Prepare {
                gts: 42,
                txn: txn.clone()
            }
        );
        for commit in [true, false] {
            let d = encode_decision(42, commit);
            assert_eq!(
                decode_payload(&d).unwrap(),
                WalPayload::Decision { gts: 42, commit }
            );
        }
    }

    #[test]
    fn legacy_bodies_decode_as_unstamped_commits() {
        let txn = sample_txn();
        let raw = encode_txn(&txn).unwrap();
        assert_eq!(
            raw[..2],
            [0, 0],
            "serving-layer bodies lead with zero scenarios"
        );
        assert_eq!(
            decode_payload(&raw).unwrap(),
            WalPayload::Commit { gts: None, txn }
        );
    }

    #[test]
    fn truncated_envelopes_are_rejected() {
        let txn = sample_txn();
        let p = encode_prepare(42, &txn).unwrap();
        assert!(decode_payload(&p[..12]).is_err());
        let mut d = encode_decision(42, true);
        d.push(0); // trailing byte
        assert!(decode_payload(&d).is_err());
        d.truncate(10);
        assert!(decode_payload(&d).is_err());
    }
}
