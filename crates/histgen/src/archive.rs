//! The generator archive: a system-independent, versioned binary encoding
//! of the transaction stream (paper §4: "the result is serialized in a
//! generator archive... the same input can be applied for the population of
//! all database systems").
//!
//! The format is a flat length-prefixed encoding (little-endian), hand
//! rolled so the wire layout is explicit and auditable; see DESIGN.md §2.
//!
//! Format **v2** hardens the v1 layout against corruption:
//!
//! * every transaction is encoded as `len: u32 | crc32: u32 | body`, and the
//!   CRC is verified *before* the body is parsed;
//! * the stream ends with a footer `"BIHF" | count: u64 | stream_crc: u32`
//!   (CRC over all transaction bodies), so truncation at a transaction
//!   boundary — invisible to per-record checksums — is detected too;
//! * every length prefix is validated against the remaining input size
//!   before allocation, so a flipped length byte yields
//!   [`Error::Archive`] instead of an out-of-memory abort.
//!
//! The unchecksummed v1 layout is no longer read: a version-1 header is
//! rejected as unsupported.

use crate::ops::{Op, ScenarioKind, Transaction};
use bitempo_core::crc::{crc32, Crc32};
use bitempo_core::{AppDate, AppPeriod, Error, Key, Period, Result, Row, Value};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"BIHA";
const FOOTER_MAGIC: [u8; 4] = *b"BIHF";
const VERSION: u32 = 2;

/// Upper bound on one encoded transaction body. Far above anything the
/// generator emits; a length prefix beyond it is corruption, not data.
const MAX_TXN_BYTES: u32 = 64 << 20;

/// Allocation cap for length-prefixed buffers when the total input size is
/// unknown: allocate at most this much up front and grow by reading.
const PREALLOC_CAP: usize = 1 << 20;

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

    /// Serializes into `w` using the current (v2, checksummed) format.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.dbgen_seed.to_le_bytes())?;
        w.write_all(&self.hist_seed.to_le_bytes())?;
        w.write_all(&(self.transactions.len() as u64).to_le_bytes())?;
        let mut stream = Crc32::new();
        let mut body = Vec::new();
        for txn in &self.transactions {
            body.clear();
            write_txn_body(&mut body, txn)?;
            let len = u32::try_from(body.len())
                .ok()
                .filter(|&l| l <= MAX_TXN_BYTES)
                .ok_or_else(|| {
                    Error::Archive(format!("transaction body too large: {} bytes", body.len()))
                })?;
            w.write_all(&len.to_le_bytes())?;
            w.write_all(&crc32(&body).to_le_bytes())?;
            w.write_all(&body)?;
            stream.update(&body);
        }
        w.write_all(&FOOTER_MAGIC)?;
        w.write_all(&(self.transactions.len() as u64).to_le_bytes())?;
        w.write_all(&stream.finish().to_le_bytes())?;
        Ok(())
    }

    /// Deserializes from `r`, without knowing the input size.
    /// Length prefixes are still bounded (allocation is capped and grows by
    /// reading), but exact length-vs-remaining validation needs a sized
    /// source — prefer [`Archive::load`] or [`Archive::read_from_slice`].
    pub fn read_from(r: &mut impl Read) -> Result<Archive> {
        Archive::read_limited(r, None)
    }

    /// Deserializes from an in-memory buffer, validating every length
    /// prefix against the exact number of remaining bytes.
    pub fn read_from_slice(bytes: &[u8]) -> Result<Archive> {
        Archive::read_limited(&mut &bytes[..], Some(bytes.len() as u64))
    }

    fn read_limited(r: &mut impl Read, limit: Option<u64>) -> Result<Archive> {
        let mut src = Src {
            r,
            remaining: limit,
        };
        let mut magic = [0u8; 4];
        src.read_exact(&mut magic, "header magic")?;
        if magic != MAGIC {
            return Err(Error::Archive("bad magic".into()));
        }
        let version = src.read_u32("header version")?;
        let dbgen_seed = src.read_u64("dbgen seed")?;
        let hist_seed = src.read_u64("hist seed")?;
        let n = src.read_u64("transaction count")?;
        if version != VERSION {
            return Err(Error::Archive(format!("unsupported version {version}")));
        }
        let transactions = read_txns(&mut src, n)?;
        if let Some(rem) = src.remaining {
            if rem != 0 {
                return Err(Error::Archive(format!(
                    "{rem} trailing bytes after archive"
                )));
            }
        }
        Ok(Archive {
            dbgen_seed,
            hist_seed,
            transactions,
        })
    }

    /// Writes the archive to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.write_to(&mut w)?;
        use std::io::Write as _;
        w.flush()?;
        Ok(())
    }

    /// Reads an archive from a file, bounding every length prefix by the
    /// file size.
    pub fn load(path: impl AsRef<Path>) -> Result<Archive> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = std::io::BufReader::new(file);
        Archive::read_limited(&mut r, Some(len))
    }
}

/// Encodes one transaction as a standalone archive-v2 record body — the
/// payload format the durability WAL appends per commit, so a WAL tail and
/// an archive speak the same wire language.
pub fn encode_txn(txn: &Transaction) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    write_txn_body(&mut body, txn)?;
    if body.len() as u64 > u64::from(MAX_TXN_BYTES) {
        return Err(Error::Archive(format!(
            "transaction body too large: {} bytes",
            body.len()
        )));
    }
    Ok(body)
}

/// Decodes one standalone transaction body produced by [`encode_txn`],
/// rejecting trailing bytes. Checksums are the *framing* layer's job (the
/// archive record or WAL frame around the body).
pub fn decode_txn(bytes: &[u8]) -> Result<Transaction> {
    let mut slice = bytes;
    let mut src = Src {
        r: &mut slice,
        remaining: Some(bytes.len() as u64),
    };
    let txn = read_txn_body(&mut src)?;
    if src.remaining != Some(0) {
        return Err(Error::Archive(
            "trailing bytes after transaction body".into(),
        ));
    }
    Ok(txn)
}

/// Encodes one transaction body (the payload of a checksummed record).
fn write_txn_body(w: &mut impl Write, txn: &Transaction) -> Result<()> {
    w.write_all(&(txn.scenarios.len() as u16).to_le_bytes())?;
    for s in &txn.scenarios {
        w.write_all(&[s.tag()])?;
    }
    w.write_all(&(txn.ops.len() as u32).to_le_bytes())?;
    for op in &txn.ops {
        write_op(w, op)?;
    }
    Ok(())
}

fn read_txns<R: Read>(src: &mut Src<'_, R>, n: u64) -> Result<Vec<Transaction>> {
    // Each record needs at least 8 bytes (length + checksum).
    src.claim(n.saturating_mul(8), "transaction count")?;
    let mut transactions = Vec::with_capacity(cap_count(n, src.remaining, 8));
    let mut stream = Crc32::new();
    for i in 0..n {
        let len = src.read_u32("transaction length")?;
        if len > MAX_TXN_BYTES {
            return Err(Error::Archive(format!(
                "transaction {i} length {len} exceeds {MAX_TXN_BYTES}-byte bound"
            )));
        }
        let expect = src.read_u32("transaction checksum")?;
        let body = src.read_vec(len as usize, "transaction body")?;
        if crc32(&body) != expect {
            return Err(Error::Archive(format!(
                "checksum mismatch in transaction {i}"
            )));
        }
        stream.update(&body);
        let mut slice = &body[..];
        let mut bsrc = Src {
            r: &mut slice,
            remaining: Some(u64::from(len)),
        };
        let txn = read_txn_body(&mut bsrc)?;
        if bsrc.remaining != Some(0) {
            return Err(Error::Archive(format!("trailing bytes in transaction {i}")));
        }
        transactions.push(txn);
    }
    let mut footer = [0u8; 4];
    src.read_exact(&mut footer, "footer magic")?;
    if footer != FOOTER_MAGIC {
        return Err(Error::Archive("missing or corrupt footer".into()));
    }
    let count = src.read_u64("footer count")?;
    if count != n {
        return Err(Error::Archive(format!(
            "footer count {count} disagrees with header count {n}"
        )));
    }
    let crc = src.read_u32("footer checksum")?;
    if crc != stream.finish() {
        return Err(Error::Archive("stream checksum mismatch in footer".into()));
    }
    // A zero-transaction stream passes every check above vacuously (the CRC
    // of nothing is a constant), so "count 0 + well-formed footer" is
    // indistinguishable from an archive whose records were all lost before
    // the header count was overwritten. The generator never emits an empty
    // history; treat the combination as corruption, not as completeness.
    if n == 0 {
        return Err(Error::Archive(
            "empty transaction stream with a well-formed footer".into(),
        ));
    }
    Ok(transactions)
}

fn read_txn_body<R: Read>(src: &mut Src<'_, R>) -> Result<Transaction> {
    let n_scen = u64::from(src.read_u16("scenario count")?);
    src.claim(n_scen, "scenario count")?;
    let mut scenarios = Vec::with_capacity(n_scen as usize);
    for _ in 0..n_scen {
        let tag = src.read_u8("scenario tag")?;
        scenarios.push(
            ScenarioKind::from_tag(tag)
                .ok_or_else(|| Error::Archive(format!("bad scenario tag {tag}")))?,
        );
    }
    let n_ops = u64::from(src.read_u32("op count")?);
    // Each op needs at least 2 bytes (tag + table).
    src.claim(n_ops.saturating_mul(2), "op count")?;
    let mut ops = Vec::with_capacity(cap_count(n_ops, src.remaining, 2));
    for _ in 0..n_ops {
        ops.push(read_op(src)?);
    }
    Ok(Transaction { scenarios, ops })
}

/// A safe pre-allocation size for `n` elements of at least `min_bytes`
/// each: bounded by what the remaining input could possibly hold, and by a
/// fixed cap when the input size is unknown.
fn cap_count(n: u64, remaining: Option<u64>, min_bytes: u64) -> usize {
    let bound = match remaining {
        Some(rem) => rem / min_bytes.max(1),
        None => PREALLOC_CAP as u64,
    };
    n.min(bound).min(PREALLOC_CAP as u64) as usize
}

/// A bounded source: tracks the remaining input size (when known) so every
/// length prefix can be validated *before* allocation, and a lying prefix
/// surfaces as [`Error::Archive`] instead of an OOM abort.
struct Src<'a, R: Read> {
    r: &'a mut R,
    remaining: Option<u64>,
}

impl<R: Read> Src<'_, R> {
    /// Fails unless at least `n` more bytes could remain in the input.
    fn claim(&self, n: u64, what: &str) -> Result<()> {
        if let Some(rem) = self.remaining {
            if n > rem {
                return Err(Error::Archive(format!(
                    "{what}: {n} bytes claimed but only {rem} remain"
                )));
            }
        }
        Ok(())
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> Result<()> {
        self.claim(buf.len() as u64, what)?;
        self.r.read_exact(buf)?;
        if let Some(rem) = &mut self.remaining {
            *rem -= buf.len() as u64;
        }
        Ok(())
    }

    /// Reads exactly `len` bytes, pre-allocating at most [`PREALLOC_CAP`]
    /// so an unvalidated length cannot trigger a huge allocation.
    fn read_vec(&mut self, len: usize, what: &str) -> Result<Vec<u8>> {
        self.claim(len as u64, what)?;
        let mut out = Vec::with_capacity(len.min(PREALLOC_CAP));
        let mut chunk = [0u8; 8192];
        let mut left = len;
        while left > 0 {
            let n = left.min(chunk.len());
            self.r.read_exact(&mut chunk[..n])?;
            if let Some(rem) = &mut self.remaining {
                *rem -= n as u64;
            }
            out.extend_from_slice(&chunk[..n]);
            left -= n;
        }
        Ok(out)
    }

    fn read_u8(&mut self, what: &str) -> Result<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b, what)?;
        Ok(b[0])
    }

    fn read_u16(&mut self, what: &str) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b, what)?;
        Ok(u16::from_le_bytes(b))
    }

    fn read_u32(&mut self, what: &str) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self, what: &str) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_i64(&mut self, what: &str) -> Result<i64> {
        Ok(self.read_u64(what)? as i64)
    }
}

fn write_op(w: &mut impl Write, op: &Op) -> Result<()> {
    match op {
        Op::Insert { table, row, app } => {
            w.write_all(&[0, *table])?;
            write_row(w, row)?;
            write_opt_period(w, app)?;
        }
        Op::Update {
            table,
            key,
            updates,
            portion,
        } => {
            w.write_all(&[1, *table])?;
            write_key(w, key)?;
            w.write_all(&(updates.len() as u16).to_le_bytes())?;
            for (c, v) in updates {
                w.write_all(&c.to_le_bytes())?;
                write_value(w, v)?;
            }
            write_opt_period(w, portion)?;
        }
        Op::Delete {
            table,
            key,
            portion,
        } => {
            w.write_all(&[2, *table])?;
            write_key(w, key)?;
            write_opt_period(w, portion)?;
        }
        Op::OverwriteApp { table, key, period } => {
            w.write_all(&[3, *table])?;
            write_key(w, key)?;
            write_period(w, period)?;
        }
    }
    Ok(())
}

fn read_op<R: Read>(src: &mut Src<'_, R>) -> Result<Op> {
    let tag = src.read_u8("op tag")?;
    let table = src.read_u8("op table")?;
    match tag {
        0 => Ok(Op::Insert {
            table,
            row: read_row(src)?,
            app: read_opt_period(src)?,
        }),
        1 => {
            let key = read_key(src)?;
            let n = u64::from(src.read_u16("update count")?);
            // Each update needs at least 3 bytes (column + value tag).
            src.claim(n.saturating_mul(3), "update count")?;
            let mut updates = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let c = src.read_u16("update column")?;
                updates.push((c, read_value(src)?));
            }
            Ok(Op::Update {
                table,
                key,
                updates,
                portion: read_opt_period(src)?,
            })
        }
        2 => Ok(Op::Delete {
            table,
            key: read_key(src)?,
            portion: read_opt_period(src)?,
        }),
        3 => Ok(Op::OverwriteApp {
            table,
            key: read_key(src)?,
            period: read_period(src)?,
        }),
        other => Err(Error::Archive(format!("bad op tag {other}"))),
    }
}

fn write_value(w: &mut impl Write, v: &Value) -> Result<()> {
    match v {
        Value::Null => w.write_all(&[0])?,
        Value::Int(i) => {
            w.write_all(&[1])?;
            w.write_all(&i.to_le_bytes())?;
        }
        Value::Double(d) => {
            w.write_all(&[2])?;
            w.write_all(&d.to_bits().to_le_bytes())?;
        }
        Value::Str(s) => {
            w.write_all(&[3])?;
            w.write_all(&(s.len() as u32).to_le_bytes())?;
            w.write_all(s.as_bytes())?;
        }
        Value::Date(d) => {
            w.write_all(&[4])?;
            w.write_all(&d.0.to_le_bytes())?;
        }
        Value::SysTime(t) => {
            w.write_all(&[5])?;
            w.write_all(&t.0.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_value<R: Read>(src: &mut Src<'_, R>) -> Result<Value> {
    Ok(match src.read_u8("value tag")? {
        0 => Value::Null,
        1 => Value::Int(src.read_i64("int value")?),
        2 => Value::Double(f64::from_bits(src.read_u64("double value")?)),
        3 => {
            let len = src.read_u32("string length")? as usize;
            let buf = src.read_vec(len, "string value")?;
            Value::Str(
                String::from_utf8(buf)
                    .map_err(|e| Error::Archive(format!("bad utf8: {e}")))?
                    .into(),
            )
        }
        4 => Value::Date(AppDate(src.read_i64("date value")?)),
        5 => Value::SysTime(bitempo_core::SysTime(src.read_u64("systime value")?)),
        other => return Err(Error::Archive(format!("bad value tag {other}"))),
    })
}

fn write_row(w: &mut impl Write, row: &Row) -> Result<()> {
    w.write_all(&(row.arity() as u16).to_le_bytes())?;
    for v in row.values() {
        write_value(w, v)?;
    }
    Ok(())
}

fn read_row<R: Read>(src: &mut Src<'_, R>) -> Result<Row> {
    let n = u64::from(src.read_u16("row arity")?);
    src.claim(n, "row arity")?;
    let mut values = Vec::with_capacity(n as usize);
    for _ in 0..n {
        values.push(read_value(src)?);
    }
    Ok(Row::new(values))
}

fn write_key(w: &mut impl Write, key: &Key) -> Result<()> {
    let values = key.to_values();
    w.write_all(&(values.len() as u16).to_le_bytes())?;
    for v in &values {
        write_value(w, v)?;
    }
    Ok(())
}

fn read_key<R: Read>(src: &mut Src<'_, R>) -> Result<Key> {
    let n = u64::from(src.read_u16("key arity")?);
    src.claim(n, "key arity")?;
    let mut values = Vec::with_capacity(n as usize);
    for _ in 0..n {
        values.push(read_value(src)?);
    }
    Ok(match values.as_slice() {
        [Value::Int(a)] => Key::Int(*a),
        [Value::Int(a), Value::Int(b)] => Key::Int2(*a, *b),
        _ => Key::General(values),
    })
}

fn write_period(w: &mut impl Write, p: &AppPeriod) -> Result<()> {
    w.write_all(&p.start.0.to_le_bytes())?;
    w.write_all(&p.end.0.to_le_bytes())?;
    Ok(())
}

fn read_period<R: Read>(src: &mut Src<'_, R>) -> Result<AppPeriod> {
    let start = AppDate(src.read_i64("period start")?);
    let end = AppDate(src.read_i64("period end")?);
    if start > end {
        return Err(Error::Archive(format!(
            "inverted period in stream: start {} > end {}",
            start.0, end.0
        )));
    }
    Ok(Period::new(start, end))
}

fn write_opt_period(w: &mut impl Write, p: &Option<AppPeriod>) -> Result<()> {
    match p {
        None => w.write_all(&[0])?,
        Some(p) => {
            w.write_all(&[1])?;
            write_period(w, p)?;
        }
    }
    Ok(())
}

fn read_opt_period<R: Read>(src: &mut Src<'_, R>) -> Result<Option<AppPeriod>> {
    Ok(match src.read_u8("option tag")? {
        0 => None,
        1 => Some(read_period(src)?),
        other => return Err(Error::Archive(format!("bad option tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_in_memory() {
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        let b = Archive::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(a, b);
        let c = Archive::read_from_slice(&buf).unwrap();
        assert_eq!(a, c);
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
        assert!(matches!(
            Archive::read_from(&mut bad.as_slice()),
            Err(Error::Archive(_))
        ));
        // Truncated stream.
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Archive::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn detects_flipped_payload_byte() {
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        // Flip a byte inside the first transaction body (past the 32-byte
        // header and the 8-byte record prefix).
        buf[32 + 8 + 3] ^= 0x10;
        let err = Archive::read_from_slice(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn detects_truncation_at_transaction_boundary() {
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        // Drop the footer entirely: every remaining record is intact, so
        // only the footer check can notice.
        buf.truncate(buf.len() - 16);
        let err = Archive::read_from_slice(&buf).unwrap_err();
        assert!(matches!(err, Error::Archive(_)), "{err}");
    }

    #[test]
    fn lying_length_prefix_is_rejected_not_allocated() {
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        // Overwrite the first transaction's length with a huge value; the
        // claimed size exceeds the remaining input and must be rejected
        // before any allocation happens.
        buf[32..36].copy_from_slice(&(MAX_TXN_BYTES - 1).to_le_bytes());
        let err = Archive::read_from_slice(&buf).unwrap_err();
        assert!(matches!(err, Error::Archive(_)), "{err}");
        // Beyond the hard bound, even a sized source rejects it by bound.
        buf[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Archive::read_from_slice(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("bound")),
            "{err}"
        );
    }

    #[test]
    fn rejects_trailing_bytes() {
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        buf.extend_from_slice(&[0u8; 7]);
        let err = Archive::read_from_slice(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("trailing")),
            "{err}"
        );
    }

    #[test]
    fn empty_stream_with_valid_footer_is_corrupt() {
        // Regression: count 0 + a well-formed footer used to read back as a
        // complete (empty) archive — indistinguishable from a stream whose
        // records were lost. The v2 reader must reject it...
        let empty = Archive {
            dbgen_seed: 1,
            hist_seed: 2,
            transactions: Vec::new(),
        };
        let mut buf = Vec::new();
        empty.write_to(&mut buf).unwrap();
        let err = Archive::read_from_slice(&buf).unwrap_err();
        assert!(
            matches!(err, Error::Archive(ref m) if m.contains("empty")),
            "{err}"
        );
        let err = Archive::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, Error::Archive(_)), "{err}");
        // ...while non-empty archives are unaffected.
        let a = sample_archive();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        assert_eq!(Archive::read_from_slice(&buf).unwrap(), a);
    }

    #[test]
    fn standalone_txn_codec_round_trips() {
        let a = sample_archive();
        for txn in &a.transactions {
            let body = encode_txn(txn).unwrap();
            assert_eq!(&decode_txn(&body).unwrap(), txn);
            // Trailing bytes are rejected, like the archive record reader.
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
        let mut buf = Vec::new();
        h.archive.write_to(&mut buf).unwrap();
        let b = Archive::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(h.archive, b);
    }
}
