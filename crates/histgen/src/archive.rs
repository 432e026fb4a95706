//! The generator archive: a system-independent, versioned binary encoding
//! of the transaction stream (paper §4: "the result is serialized in a
//! generator archive... the same input can be applied for the population of
//! all database systems").
//!
//! Format **v3** is a sealed stream of WAL frames (`bitempo_core::frame`),
//! so the archive and the durability log share one framing and one reader:
//!
//! * the WAL stream header, then a header frame `"BIHA" | 3 | dbgen_seed |
//!   hist_seed | count`, then one frame per transaction carrying its body
//!   ([`encode_txn`], written with `bitempo_core::codec`);
//! * every frame's CRC is verified before its payload is parsed, and the
//!   chained stream CRC rejects reordered or substituted frames;
//! * the count sits in the checksummed header frame, so truncation at a
//!   frame boundary — invisible to per-frame checksums — is an error, and so
//!   are trailing bytes and a count of 0;
//! * every length prefix is bounded by the bytes that remain before
//!   anything is allocated, so a flipped length byte yields
//!   [`Error::Archive`] instead of an out-of-memory abort.
//!
//! Versions 1 and 2 are no longer read: they are rejected by name.

use crate::ops::{Op, ScenarioKind, Transaction};
use bitempo_core::codec::{put_i64, put_row, put_u16, put_u32, put_u64, put_value, Cursor};
use bitempo_core::frame::{header_bytes, WalAppender, WalReader, BODY_OVERHEAD, MAX_RECORD_BYTES};
use bitempo_core::{AppDate, AppPeriod, Error, Key, Period, Result, Value};
use std::path::Path;

const MAGIC: [u8; 4] = *b"BIHA";
const VERSION: u32 = 3;

/// Upper bound on one encoded transaction body: whatever fits in one frame.
const MAX_TXN_BYTES: usize = MAX_RECORD_BYTES as usize - BODY_OVERHEAD;

/// A serialized history: seeds plus the ordered transaction list.
#[derive(Debug, Clone, PartialEq)]
pub struct Archive {
    /// Seed of the dbgen population this history was generated against.
    pub dbgen_seed: u64,
    /// Seed of the scenario stream.
    pub hist_seed: u64,
    /// Transactions in commit order.
    pub transactions: Vec<Transaction>,
}

impl Archive {
    /// Groups scenarios into batches of `batch_size` transactions each —
    /// the loader knob behind Fig 13 ("combine a series of scenarios into
    /// batches of variable sizes"). Lazy: each batch is materialized only
    /// when the iterator reaches it, so large-`m` replays never hold a
    /// second copy of the whole transaction stream.
    pub fn batched(&self, batch_size: usize) -> impl Iterator<Item = Transaction> + '_ {
        let batch_size = batch_size.max(1);
        self.transactions
            .chunks(batch_size)
            .map(|chunk| Transaction {
                scenarios: chunk.iter().flat_map(|t| t.scenarios.clone()).collect(),
                ops: chunk.iter().flat_map(|t| t.ops.clone()).collect(),
            })
    }

    /// Serializes the archive as a v3 frame stream.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut head = MAGIC.to_vec();
        put_u32(&mut head, VERSION);
        put_u64(&mut head, self.dbgen_seed);
        put_u64(&mut head, self.hist_seed);
        put_u64(&mut head, self.transactions.len() as u64);
        let mut frames = WalAppender::new();
        let mut out = header_bytes().to_vec();
        out.extend_from_slice(&frames.encode(&head).1);
        for txn in &self.transactions {
            out.extend_from_slice(&frames.encode(&encode_txn(txn)?).1);
        }
        Ok(out)
    }

    /// Deserializes and validates a v3 frame stream. Any malformation — a
    /// torn or corrupt frame, another version, a missing or extra
    /// transaction, trailing bytes — is [`Error::Archive`].
    pub fn decode(bytes: &[u8]) -> Result<Archive> {
        let mut frames = WalReader::new(bytes);
        let Some((_, head)) = frames.next() else {
            let why = frames.torn().unwrap_or("no header frame");
            return Err(Error::Archive(format!("archive header: {why}")));
        };
        let mut cur = Cursor::new(head);
        if cur.take(4, "archive magic")? != MAGIC {
            return Err(Error::Archive("bad magic".into()));
        }
        let version = cur.u32("archive version")?;
        if version != VERSION {
            return Err(Error::Archive(format!("unsupported version {version}")));
        }
        let dbgen_seed = cur.u64("dbgen seed")?;
        let hist_seed = cur.u64("hist seed")?;
        let count = cur.u64("transaction count")?;
        cur.finish("archive header")?;
        // The generator never emits an empty history, and a count of 0
        // would make every later check vacuous.
        if count == 0 {
            return Err(Error::Archive("empty transaction stream".into()));
        }
        let mut transactions = Vec::new();
        for (_, body) in frames
            .by_ref()
            .take(usize::try_from(count).unwrap_or(usize::MAX))
        {
            transactions.push(decode_txn(body)?);
        }
        let n = transactions.len();
        if (n as u64) < count {
            let why = frames.torn().unwrap_or("clean end of stream");
            return Err(Error::Archive(format!(
                "archive ends after {n} of {count} transactions: {why}"
            )));
        }
        match bytes.len() as u64 - frames.valid_len() {
            0 => Ok(Archive {
                dbgen_seed,
                hist_seed,
                transactions,
            }),
            rest => Err(Error::Archive(format!(
                "{rest} trailing bytes after archive"
            ))),
        }
    }

    /// Writes the archive to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(std::fs::write(path, self.encode()?)?)
    }

    /// Reads an archive from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Archive> {
        Archive::decode(&std::fs::read(path)?)
    }
}

/// Encodes one transaction body: the payload of an archive frame, and of
/// the durability WAL's commit records, so a WAL tail and an archive speak
/// the same wire language.
pub fn encode_txn(txn: &Transaction) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_u16(&mut out, txn.scenarios.len() as u16);
    out.extend(txn.scenarios.iter().map(|s| s.tag()));
    put_u32(&mut out, txn.ops.len() as u32);
    for op in &txn.ops {
        put_op(&mut out, op);
    }
    if out.len() > MAX_TXN_BYTES {
        return Err(Error::Archive(format!(
            "transaction body too large: {} bytes",
            out.len()
        )));
    }
    Ok(out)
}

/// Decodes one transaction body produced by [`encode_txn`], rejecting
/// trailing bytes. Checksums are the *framing* layer's job (the archive or
/// WAL frame around the body).
pub fn decode_txn(bytes: &[u8]) -> Result<Transaction> {
    let mut cur = Cursor::new(bytes);
    let n_scen = cur.u16("scenario count")?;
    let mut scenarios = Vec::with_capacity(cur.count(n_scen.into(), 1, "scenario count")?);
    for _ in 0..n_scen {
        let tag = cur.u8("scenario tag")?;
        scenarios.push(
            ScenarioKind::from_tag(tag)
                .ok_or_else(|| Error::Archive(format!("bad scenario tag {tag}")))?,
        );
    }
    let n_ops = cur.u32("op count")?;
    // Each op needs at least 2 bytes (tag + table).
    let mut ops = Vec::with_capacity(cur.count(n_ops.into(), 2, "op count")?);
    for _ in 0..n_ops {
        ops.push(read_op(&mut cur)?);
    }
    cur.finish("transaction body")?;
    Ok(Transaction { scenarios, ops })
}

fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Insert { table, row, app } => {
            out.extend_from_slice(&[0, *table]);
            put_row(out, row.values());
            put_opt_period(out, app);
        }
        Op::Update {
            table,
            key,
            updates,
            portion,
        } => {
            out.extend_from_slice(&[1, *table]);
            put_row(out, &key.to_values());
            put_u16(out, updates.len() as u16);
            for (c, v) in updates {
                put_u16(out, *c);
                put_value(out, v);
            }
            put_opt_period(out, portion);
        }
        Op::Delete {
            table,
            key,
            portion,
        } => {
            out.extend_from_slice(&[2, *table]);
            put_row(out, &key.to_values());
            put_opt_period(out, portion);
        }
        Op::OverwriteApp { table, key, period } => {
            out.extend_from_slice(&[3, *table]);
            put_row(out, &key.to_values());
            put_period(out, period);
        }
    }
}

fn read_op(cur: &mut Cursor<'_>) -> Result<Op> {
    let tag = cur.u8("op tag")?;
    let table = cur.u8("op table")?;
    match tag {
        0 => Ok(Op::Insert {
            table,
            row: cur.row()?,
            app: read_opt_period(cur)?,
        }),
        1 => {
            let key = read_key(cur)?;
            let n = cur.u16("update count")?;
            // Each update needs at least 3 bytes (column + value tag).
            let mut updates = Vec::with_capacity(cur.count(n.into(), 3, "update count")?);
            for _ in 0..n {
                let c = cur.u16("update column")?;
                updates.push((c, cur.value()?));
            }
            Ok(Op::Update {
                table,
                key,
                updates,
                portion: read_opt_period(cur)?,
            })
        }
        2 => Ok(Op::Delete {
            table,
            key: read_key(cur)?,
            portion: read_opt_period(cur)?,
        }),
        3 => Ok(Op::OverwriteApp {
            table,
            key: read_key(cur)?,
            period: read_period(cur)?,
        }),
        other => Err(Error::Archive(format!("bad op tag {other}"))),
    }
}

fn read_key(cur: &mut Cursor<'_>) -> Result<Key> {
    let values = cur.values("key arity")?;
    Ok(match values.as_slice() {
        [Value::Int(a)] => Key::Int(*a),
        [Value::Int(a), Value::Int(b)] => Key::Int2(*a, *b),
        _ => Key::General(values),
    })
}

fn put_period(out: &mut Vec<u8>, p: &AppPeriod) {
    put_i64(out, p.start.0);
    put_i64(out, p.end.0);
}

fn read_period(cur: &mut Cursor<'_>) -> Result<AppPeriod> {
    let start = AppDate(cur.i64("period start")?);
    let end = AppDate(cur.i64("period end")?);
    if start > end {
        return Err(Error::Archive(format!(
            "inverted period in stream: start {} > end {}",
            start.0, end.0
        )));
    }
    Ok(Period::new(start, end))
}

fn put_opt_period(out: &mut Vec<u8>, p: &Option<AppPeriod>) {
    match p {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_period(out, p);
        }
    }
}

fn read_opt_period(cur: &mut Cursor<'_>) -> Result<Option<AppPeriod>> {
    Ok(match cur.u8("option tag")? {
        0 => None,
        1 => Some(read_period(cur)?),
        other => return Err(Error::Archive(format!("bad option tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitempo_core::Row;

    fn sample_archive() -> Archive {
        Archive {
            dbgen_seed: 11,
            hist_seed: 22,
            transactions: vec![
                Transaction {
                    scenarios: vec![ScenarioKind::NewOrderNewCustomer],
                    ops: vec![
                        Op::Insert {
                            table: 3,
                            row: Row::new(vec![
                                Value::Int(1),
                                Value::str("x"),
                                Value::Double(1.5),
                                Value::Date(AppDate(100)),
                                Value::Null,
                            ]),
                            app: Some(Period::new(AppDate(1), AppDate::MAX)),
                        },
                        Op::Update {
                            table: 6,
                            key: Key::int(5),
                            updates: vec![(2, Value::str("F"))],
                            portion: None,
                        },
                    ],
                },
                Transaction {
                    scenarios: vec![ScenarioKind::CancelOrder],
                    ops: vec![
                        Op::Delete {
                            table: 7,
                            key: Key::int2(5, 1),
                            portion: Some(Period::new(AppDate(0), AppDate(10))),
                        },
                        Op::OverwriteApp {
                            table: 4,
                            key: Key::int(9),
                            period: Period::new(AppDate(3), AppDate::MAX),
                        },
                    ],
                },
            ],
        }
    }

    /// A v3 stream of the given header fields and transaction bodies,
    /// framed by hand so tests can write what `encode` never would.
    fn framed(version: u32, count: u64, bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut head = MAGIC.to_vec();
        put_u32(&mut head, version);
        put_u64(&mut head, 11);
        put_u64(&mut head, 22);
        put_u64(&mut head, count);
        let mut frames = WalAppender::new();
        let mut out = header_bytes().to_vec();
        out.extend_from_slice(&frames.encode(&head).1);
        for body in bodies {
            out.extend_from_slice(&frames.encode(body).1);
        }
        out
    }

    /// Bytes before the first transaction frame: the stream header and the
    /// header frame around its 32-byte payload.
    const FIRST_TXN_FRAME: usize = 8 + 8 + 12 + 32;

    #[test]
    fn round_trip_in_memory() {
        let a = sample_archive();
        let buf = a.encode().unwrap();
        assert_eq!(Archive::decode(&buf).unwrap(), a);
        let bodies: Vec<_> = a
            .transactions
            .iter()
            .map(|t| encode_txn(t).unwrap())
            .collect();
        assert_eq!(
            buf,
            framed(VERSION, 2, &bodies),
            "the layout is as documented"
        );
    }

    #[test]
    fn round_trip_via_file() {
        let a = sample_archive();
        let dir = std::env::temp_dir().join("bitempo_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.biha");
        a.save(&path).unwrap();
        let b = Archive::load(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let mut bad = b"NOPE".to_vec();
        bad.extend_from_slice(&[0u8; 32]);
        assert!(matches!(Archive::decode(&bad), Err(Error::Archive(_))));
        // Truncated stream.
        let mut buf = sample_archive().encode().unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(Archive::decode(&buf), Err(Error::Archive(_))));
    }

    #[test]
    fn detects_flipped_payload_byte() {
        let mut buf = sample_archive().encode().unwrap();
        // Flip a byte inside the first transaction body (past its frame's
        // length, checksum, sequence number and stream checksum).
        buf[FIRST_TXN_FRAME + 20 + 3] ^= 0x10;
        let err = Archive::decode(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn detects_truncation_at_transaction_boundary() {
        let a = sample_archive();
        let mut buf = a.encode().unwrap();
        // Drop the last frame entirely: every remaining frame is intact, so
        // only the header's count can notice.
        buf.truncate(buf.len() - 20 - encode_txn(&a.transactions[1]).unwrap().len());
        let err = Archive::decode(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("after 1 of 2")),
            "{err}"
        );
    }

    #[test]
    fn lying_length_prefix_is_rejected_not_allocated() {
        let mut buf = sample_archive().encode().unwrap();
        // Overwrite the first transaction frame's length with a huge value;
        // the claimed size exceeds the remaining input and must be rejected
        // before any allocation happens.
        let len = FIRST_TXN_FRAME..FIRST_TXN_FRAME + 4;
        buf[len.clone()].copy_from_slice(&(MAX_RECORD_BYTES - 1).to_le_bytes());
        let err = Archive::decode(&buf).unwrap_err();
        assert!(matches!(err, Error::Archive(_)), "{err}");
        // Beyond the hard bound, it is rejected by bound.
        buf[len].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Archive::decode(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("bound")),
            "{err}"
        );
    }

    #[test]
    fn rejects_trailing_bytes() {
        let a = sample_archive();
        let mut buf = a.encode().unwrap();
        buf.extend_from_slice(&[0u8; 7]);
        let err = Archive::decode(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("trailing")),
            "{err}"
        );
        // A well-formed frame past the header's count is trailing too.
        let body = encode_txn(&a.transactions[0]).unwrap();
        let err = Archive::decode(&framed(VERSION, 1, &[body.clone(), body])).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("trailing")),
            "{err}"
        );
    }

    #[test]
    fn empty_stream_with_valid_footer_is_corrupt() {
        // Regression: a count of 0 in a well-formed stream used to read back
        // as a complete (empty) archive — indistinguishable from a stream
        // whose records were lost. The reader must reject it...
        let empty = Archive {
            dbgen_seed: 1,
            hist_seed: 2,
            transactions: Vec::new(),
        };
        let err = Archive::decode(&empty.encode().unwrap()).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("empty")),
            "{err}"
        );
        // ...while non-empty archives are unaffected.
        let a = sample_archive();
        assert_eq!(Archive::decode(&a.encode().unwrap()).unwrap(), a);
    }

    #[test]
    fn other_versions_are_rejected_by_name() {
        let body = encode_txn(&sample_archive().transactions[0]).unwrap();
        for version in [1, 2] {
            let bytes = framed(version, 1, std::slice::from_ref(&body));
            assert_eq!(
                Archive::decode(&bytes),
                Err(Error::Archive(format!("unsupported version {version}")))
            );
        }
        assert!(Archive::decode(&framed(VERSION, 1, &[body])).is_ok());
    }

    #[test]
    fn standalone_txn_codec_round_trips() {
        let a = sample_archive();
        for txn in &a.transactions {
            let body = encode_txn(txn).unwrap();
            assert_eq!(&decode_txn(&body).unwrap(), txn);
            // Trailing bytes are rejected, like the archive reader.
            let mut padded = body.clone();
            padded.push(0);
            assert!(decode_txn(&padded).is_err());
            // Truncation is rejected.
            assert!(decode_txn(&body[..body.len() - 1]).is_err());
        }
    }

    #[test]
    fn batching_merges_transactions() {
        let a = sample_archive();
        let batched: Vec<Transaction> = a.batched(2).collect();
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].scenarios.len(), 2);
        assert_eq!(batched[0].ops.len(), 4);
        // Batch size 1 is the identity.
        assert!(a.batched(1).eq(a.transactions.iter().cloned()));
        // Zero is clamped to 1.
        assert!(a.batched(0).eq(a.transactions.iter().cloned()));
    }

    #[test]
    fn generated_history_round_trips() {
        let data = bitempo_dbgen::generate(&bitempo_dbgen::ScaleConfig::tiny());
        let h = crate::generate_history(&data, &crate::HistoryConfig::tiny());
        let b = Archive::decode(&h.archive.encode().unwrap()).unwrap();
        assert_eq!(h.archive, b);
    }

    /// The generator's output, byte for byte: the CRC-32 and length of the
    /// encoded archive at two scales. A change to how the history is
    /// generated (not only to what it contains) must leave these alone.
    #[test]
    fn encoded_archive_is_pinned() {
        use bitempo_dbgen::ScaleConfig;
        let cases = [
            (
                ScaleConfig::tiny(),
                crate::HistoryConfig::tiny(),
                0x55AE_93B1,
                183_138,
            ),
            (
                ScaleConfig::with_h(0.002),
                crate::HistoryConfig::with_m(0.002),
                0xF083_BF4E,
                669_594,
            ),
        ];
        for (scale, config, crc, len) in cases {
            let data = bitempo_dbgen::generate(&scale);
            let bytes = crate::generate_history(&data, &config)
                .archive
                .encode()
                .unwrap();
            assert_eq!(
                (bitempo_core::crc32(&bytes), bytes.len()),
                (crc, len),
                "archive at m = {}",
                config.m
            );
        }
    }
}
