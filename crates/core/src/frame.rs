//! Framed-record streams: the byte format of the write-ahead log and of the
//! generator archive, which is a sealed stream of the same frames.
//!
//! * the stream starts with an 8-byte header `"BIWL" | version: u32`;
//! * every record is `len: u32 | crc32: u32 | body`, where the body is
//!   `seq: u64 | stream_crc: u32 | payload` — `seq` is the dense 1-based
//!   record number and `stream_crc` chains a CRC-32 over every payload up
//!   to and including this one, so a record can neither be reordered nor
//!   substituted without breaking the chain;
//! * a record body is at most [`MAX_RECORD_BYTES`]: the reader takes a
//!   longer length prefix for corruption, and [`WalAppender::encode`]
//!   refuses a payload that would need one;
//! * there is no footer: a WAL is torn by definition whenever the machine
//!   stops, and [`WalReader`] yields the longest valid prefix, one borrowed
//!   record at a time, instead of demanding completeness; [`scan`] is that
//!   reader collected. A reader that needs completeness — the archive —
//!   records the expected record count in its first payload.
//!
//! Reading is deliberately infallible: corruption is an *expected* input
//! (that is the whole point of a WAL), so the reader reports the clean
//! truncation point and the reason the tail was rejected rather than
//! erroring, and it never panics or over-allocates on hostile length
//! prefixes. Payload bytes are the caller's; they are written and read with
//! [`crate::codec`].

use crate::crc::{crc32, Crc32};
use crate::{Error, Result};

/// WAL stream magic.
pub const WAL_MAGIC: [u8; 4] = *b"BIWL";
/// WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Header length: magic + version.
pub const WAL_HEADER_LEN: usize = 8;
/// Per-record frame overhead: length + frame checksum.
pub const FRAME_OVERHEAD: usize = 8;
/// Body overhead inside the frame: sequence number + stream checksum.
pub const BODY_OVERHEAD: usize = 12;
/// Upper bound on one record body: a length prefix above this is
/// corruption, not data.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;
/// Upper bound on one payload: whatever fits in one record body. The
/// writer refuses more, so it never writes what the reader rejects.
pub const MAX_PAYLOAD_BYTES: usize = MAX_RECORD_BYTES as usize - BODY_OVERHEAD;

/// The 8-byte WAL stream header.
pub fn header_bytes() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Stateful record encoder: assigns dense sequence numbers and maintains
/// the chained stream CRC. One appender per WAL stream, for its lifetime.
#[derive(Debug, Clone)]
pub struct WalAppender {
    stream: Crc32,
    next_seq: u64,
}

impl Default for WalAppender {
    fn default() -> WalAppender {
        WalAppender::new()
    }
}

impl WalAppender {
    /// A fresh appender for a new stream; the first record gets `seq` 1.
    pub fn new() -> WalAppender {
        WalAppender {
            stream: Crc32::new(),
            next_seq: 1,
        }
    }

    /// Frames `payload` as the next record, returning `(seq, frame bytes)`:
    /// one exact-size buffer, its frame CRC patched in last.
    ///
    /// A payload over [`MAX_PAYLOAD_BYTES`] is [`Error::Archive`], refused
    /// before it takes a sequence number or enters the stream CRC, so the
    /// writer never frames a record [`WalReader`] would reject as a torn
    /// tail and the next record still chains.
    pub fn encode(&mut self, payload: &[u8]) -> Result<(u64, Vec<u8>)> {
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(Error::Archive(format!(
                "record payload of {} bytes exceeds the bound of {MAX_PAYLOAD_BYTES}",
                payload.len()
            )));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stream.update(payload);
        let len = BODY_OVERHEAD + payload.len();
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + len);
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.extend_from_slice(&[0; 4]);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&self.stream.finish().to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame[FRAME_OVERHEAD..]);
        frame[4..FRAME_OVERHEAD].copy_from_slice(&crc.to_le_bytes());
        Ok((seq, frame))
    }
}

/// One validated record recovered from a WAL stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Dense 1-based record number.
    pub seq: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

/// The result of scanning a (possibly torn) WAL stream: the longest valid
/// prefix, where it ends, and why the rest was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record of the valid prefix, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the first invalid byte — the clean truncation point.
    pub valid_len: u64,
    /// `Some(reason)` if the stream ended in a torn or corrupt tail;
    /// `None` if every byte of the input was a valid record.
    pub torn: Option<String>,
    /// Chained stream CRC state after the valid prefix.
    pub stream: Crc32,
}

impl WalScan {
    /// True when the input parsed completely, with no torn tail.
    pub fn is_clean(&self) -> bool {
        self.torn.is_none()
    }

    /// Sequence number of the last valid record (0 when none).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }
}

/// Reads a WAL stream one validated record at a time, borrowing each
/// payload from the input: `(seq, payload)` per record of the longest
/// valid prefix, so a consumer holds one record, never the whole log.
///
/// Infallible by design: any malformed byte — bad header, truncated frame,
/// hostile length, checksum mismatch, broken sequence or stream-CRC chain —
/// ends the iteration at the last clean record boundary. Once `next` has
/// returned `None`, [`WalReader::valid_len`], [`WalReader::torn`] and
/// [`WalReader::stream`] describe the whole input exactly as [`WalScan`]
/// does. The reader never panics and never allocates for a record.
#[derive(Debug)]
pub struct WalReader<'a> {
    bytes: &'a [u8],
    valid_len: usize,
    expect_seq: u64,
    stream: Crc32,
    torn: Option<String>,
    done: bool,
}

impl<'a> WalReader<'a> {
    /// A reader over `bytes`; a bad header ends it before the first record.
    pub fn new(bytes: &'a [u8]) -> WalReader<'a> {
        let mut reader = WalReader {
            bytes,
            valid_len: 0,
            expect_seq: 1,
            stream: Crc32::new(),
            torn: None,
            done: false,
        };
        match bytes.get(..WAL_HEADER_LEN) {
            None => reader.stop(format!("truncated header: {} bytes", bytes.len())),
            Some(h) if h[..4] != WAL_MAGIC => reader.stop("bad stream magic".to_string()),
            Some(h) => match u32::from_le_bytes([h[4], h[5], h[6], h[7]]) {
                WAL_VERSION => reader.valid_len = WAL_HEADER_LEN,
                v => reader.stop(format!("unsupported wal version {v}")),
            },
        }
        reader
    }

    /// Byte offset of the first invalid byte read so far — the clean
    /// truncation point once the reader is exhausted.
    pub fn valid_len(&self) -> u64 {
        self.valid_len as u64
    }

    /// Why the stream stopped before its end, if it did; `None` while
    /// records remain or when every byte was a valid record.
    pub fn torn(&self) -> Option<&str> {
        self.torn.as_deref()
    }

    /// Chained stream CRC state after the records read so far.
    pub fn stream(&self) -> Crc32 {
        self.stream
    }

    fn stop(&mut self, why: String) {
        self.torn = Some(why);
        self.done = true;
    }
}

impl<'a> Iterator for WalReader<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        if self.done {
            return None;
        }
        let pos = self.valid_len;
        let rest = &self.bytes[pos..];
        if rest.is_empty() {
            self.done = true; // clean end on a record boundary
            return None;
        }
        if rest.len() < FRAME_OVERHEAD {
            self.stop(format!("torn frame header at offset {pos}"));
            return None;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let expect_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES {
            self.stop(format!(
                "record at offset {pos} claims {len} bytes (bound {MAX_RECORD_BYTES})"
            ));
            return None;
        }
        let body_len = len as usize;
        if body_len < BODY_OVERHEAD {
            self.stop(format!("record at offset {pos} shorter than its envelope"));
            return None;
        }
        let Some(body) = rest.get(FRAME_OVERHEAD..FRAME_OVERHEAD + body_len) else {
            self.stop(format!("torn record at offset {pos}"));
            return None;
        };
        if crc32(body) != expect_crc {
            self.stop(format!("checksum mismatch at offset {pos}"));
            return None;
        }
        let seq = u64::from_le_bytes([
            body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
        ]);
        if seq != self.expect_seq {
            let expect = self.expect_seq;
            self.stop(format!(
                "sequence break at offset {pos}: record {seq}, expected {expect}"
            ));
            return None;
        }
        let chain = u32::from_le_bytes([body[8], body[9], body[10], body[11]]);
        let payload = &body[BODY_OVERHEAD..];
        let mut next_stream = self.stream;
        next_stream.update(payload);
        if next_stream.finish() != chain {
            self.stop(format!("stream checksum break at offset {pos}"));
            return None;
        }
        self.stream = next_stream;
        self.valid_len = pos + FRAME_OVERHEAD + body_len;
        self.expect_seq += 1;
        Some((seq, payload))
    }
}

/// Scans a WAL stream, recovering the longest valid record prefix: a
/// [`WalReader`] read to the end, with every payload copied out.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut reader = WalReader::new(bytes);
    let records = reader
        .by_ref()
        .map(|(seq, payload)| WalRecord {
            seq,
            payload: payload.to_vec(),
        })
        .collect();
    WalScan {
        records,
        valid_len: reader.valid_len(),
        torn: reader.torn,
        stream: reader.stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        let mut app = WalAppender::new();
        for p in payloads {
            let (_, frame) = app.encode(p).unwrap();
            bytes.extend_from_slice(&frame);
        }
        bytes
    }

    #[test]
    fn roundtrip_clean_stream() {
        let bytes = stream_of(&[b"alpha", b"", b"gamma"]);
        let s = scan(&bytes);
        assert!(s.is_clean(), "{:?}", s.torn);
        assert_eq!(s.valid_len, bytes.len() as u64);
        assert_eq!(s.last_seq(), 3);
        assert_eq!(s.records[0].payload, b"alpha");
        assert_eq!(s.records[1].payload, b"");
        assert_eq!(s.records[2].payload, b"gamma");
    }

    #[test]
    fn header_only_is_clean_and_empty() {
        let s = scan(&header_bytes());
        assert!(s.is_clean());
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, WAL_HEADER_LEN as u64);
    }

    #[test]
    fn truncation_recovers_the_prefix() {
        let bytes = stream_of(&[b"one", b"two", b"three"]);
        let two = stream_of(&[b"one", b"two"]);
        for cut in two.len() + 1..bytes.len() {
            let s = scan(&bytes[..cut]);
            assert!(!s.is_clean());
            assert_eq!(s.records.len(), 2, "cut at {cut}");
            assert_eq!(s.valid_len, two.len() as u64, "cut at {cut}");
        }
        // Cutting exactly on the boundary is a clean two-record stream.
        let s = scan(&two);
        assert!(s.is_clean());
        assert_eq!(s.records.len(), 2);
    }

    #[test]
    fn bit_flip_stops_at_the_flipped_record() {
        let bytes = stream_of(&[b"first-record", b"second-record"]);
        let one = stream_of(&[b"first-record"]).len();
        // Flip one payload bit inside the second record.
        let mut bad = bytes.clone();
        let target = one + FRAME_OVERHEAD + BODY_OVERHEAD + 2;
        bad[target] ^= 0x40;
        let s = scan(&bad);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.valid_len, one as u64);
        assert!(s.torn.unwrap().contains("checksum mismatch"));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert!(s.torn.unwrap().contains("bound"));
    }

    #[test]
    fn sequence_and_stream_chain_reject_record_substitution() {
        // Swap two equally-framed records: frame CRCs still match, but the
        // seq chain breaks on the first swapped record.
        let mut a = WalAppender::new();
        let (_, f1) = a.encode(b"payload-A").unwrap();
        let (_, f2) = a.encode(b"payload-B").unwrap();
        let mut swapped = header_bytes().to_vec();
        swapped.extend_from_slice(&f2);
        swapped.extend_from_slice(&f1);
        let s = scan(&swapped);
        assert!(s.records.is_empty());
        assert!(s.torn.unwrap().contains("sequence break"));

        // A forged record with the right seq but recomputed frame CRC still
        // breaks the chained stream CRC (which covers the true history).
        let mut b = WalAppender::new();
        let (_, g1) = b.encode(b"payload-A").unwrap();
        let mut c = WalAppender::new();
        let (_, _) = c.encode(b"something-else").unwrap();
        let (_, g2_forged) = c.encode(b"payload-B").unwrap();
        let mut forged = header_bytes().to_vec();
        forged.extend_from_slice(&g1);
        forged.extend_from_slice(&g2_forged);
        let s = scan(&forged);
        assert_eq!(s.records.len(), 1);
        assert!(s.torn.unwrap().contains("stream checksum"));
    }

    /// One byte over the bound is refused without touching the appender:
    /// the next record still gets seq 1 and the chain of an untouched
    /// stream. Exactly at the bound frames a record of `MAX_RECORD_BYTES`.
    #[test]
    fn the_writer_refuses_what_the_reader_would_reject() {
        let mut app = WalAppender::new();
        let over = vec![0u8; MAX_PAYLOAD_BYTES + 1];
        assert!(matches!(app.encode(&over), Err(Error::Archive(_))));
        drop(over);
        let (seq, small) = app.encode(b"after").unwrap();
        assert_eq!(seq, 1);
        assert_eq!(small, WalAppender::new().encode(b"after").unwrap().1);

        let at = vec![7u8; MAX_PAYLOAD_BYTES];
        let (seq, frame) = app.encode(&at).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(frame[..4], MAX_RECORD_BYTES.to_le_bytes());
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&small);
        bytes.extend_from_slice(&frame);
        let mut reader = WalReader::new(&bytes);
        assert_eq!(reader.next(), Some((1, &b"after"[..])));
        assert_eq!(reader.next(), Some((2, &at[..])));
        assert_eq!(reader.next(), None);
        assert_eq!(reader.torn(), None);
    }

    #[test]
    fn never_panics_on_garbage() {
        let mut x = 0x2545_F491u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 0..64 {
            let garbage: Vec<u8> = (0..len).map(|_| (rng() & 0xFF) as u8).collect();
            let _ = scan(&garbage);
        }
    }
}
