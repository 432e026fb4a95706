//! The byte vocabulary shared by every durable format: the generator
//! archive's transaction bodies, the WAL's record payloads and the engine
//! checkpoints all write through the `put_*` functions and read through one
//! bounded [`Cursor`].
//!
//! Every integer is little-endian. A [`Value`] is a one-byte tag followed by
//! its payload (`0` NULL, `1` Int as `i64`, `2` Double as its `u64` bits,
//! `3` Str as `u32` length + UTF-8, `4` Date as `i64`, `5` SysTime as
//! `u64`), so the encoding is prefix-free and distinct values never share an
//! image. A row is a `u16` arity followed by its values.
//!
//! Every length and count goes through one checked writer, [`put_len`]: a
//! length past its field's width is an [`Error::Archive`] before a byte of
//! it is written, never a count that wraps under a valid checksum.
//!
//! The cursor trusts nothing: every read names what it reads, a read past
//! the end is an [`Error::Archive`], and a claimed element count is checked
//! against the bytes that remain *before* anything is reserved for it, so a
//! lying length prefix can neither panic nor over-allocate.

use crate::{AppDate, Error, Result, Row, SysTime, Value};

/// Appends a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A length or count field: an unsigned integer of a fixed width.
pub trait LenField: TryFrom<usize> {
    /// Appends the field, little-endian.
    fn put(self, out: &mut Vec<u8>);
}

impl LenField for u16 {
    fn put(self, out: &mut Vec<u8>) {
        put_u16(out, self);
    }
}

impl LenField for u32 {
    fn put(self, out: &mut Vec<u8>) {
        put_u32(out, self);
    }
}

/// Appends `len`, a length or count that `what` names, as a `T` field;
/// refuses it with [`Error::Archive`], writing nothing, when it is past
/// `T`'s width.
pub fn put_len<T: LenField>(out: &mut Vec<u8>, len: usize, what: &str) -> Result<()> {
    let field = T::try_from(len).map_err(|_| {
        Error::Archive(format!(
            "{what} {len} is past its {}-byte field",
            std::mem::size_of::<T>()
        ))
    })?;
    field.put(out);
    Ok(())
}

/// Appends a string as its `u32` byte length and its UTF-8 bytes;
/// refuses one longer than `u32::MAX` bytes, writing nothing.
pub fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    put_len::<u32>(out, s.len(), "string length")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// The length of [`put_value`]'s image of `v`.
pub fn value_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Str(s) => 5 + s.len(),
        Value::Int(_) | Value::Double(_) | Value::Date(_) | Value::SysTime(_) => 9,
    }
}

/// The length of [`put_row`]'s image of `values`.
pub fn row_len(values: &[Value]) -> usize {
    2 + values.iter().map(value_len).sum::<usize>()
}

/// Appends one tagged value; refuses a string [`put_str`] refuses.
pub fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_i64(out, *i);
        }
        Value::Double(d) => {
            out.push(2);
            put_u64(out, d.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s)?;
        }
        Value::Date(d) => {
            out.push(4);
            put_i64(out, d.0);
        }
        Value::SysTime(t) => {
            out.push(5);
            put_u64(out, t.0);
        }
    }
    Ok(())
}

/// Appends an arity-prefixed value list: a row's values, or a key's;
/// refuses one of more than `u16::MAX` values, writing nothing.
pub fn put_row(out: &mut Vec<u8>, values: &[Value]) -> Result<()> {
    put_len::<u16>(out, values.len(), "row arity")?;
    for v in values {
        put_value(out, v)?;
    }
    Ok(())
}

/// A bounded reader over one encoded buffer.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes every byte not read yet.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let rem = self.remaining();
        if n > rem {
            return Err(Error::Archive(format!(
                "truncated reading {what}: {n} bytes claimed but only {rem} remain"
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads an `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// Checks a claimed count of `n` elements of at least `min_bytes` each
    /// against the bytes that remain, returning it as a safe capacity.
    pub fn count(&self, n: u64, min_bytes: u64, what: &str) -> Result<usize> {
        let rem = self.remaining() as u64;
        if n.saturating_mul(min_bytes.max(1)) > rem {
            return Err(Error::Archive(format!(
                "{what} {n} claims more than the {rem} bytes that remain"
            )));
        }
        Ok(n as usize)
    }

    fn utf8(&mut self, what: &str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|e| Error::Archive(format!("invalid utf-8 in {what}: {e}")))
    }

    /// Reads a [`put_str`] string.
    pub fn string(&mut self, what: &str) -> Result<String> {
        self.utf8(what).map(str::to_owned)
    }

    /// Reads a [`put_value`] value.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8("value tag")? {
            0 => Value::Null,
            1 => Value::Int(self.i64("int value")?),
            2 => Value::Double(f64::from_bits(self.u64("double value")?)),
            3 => Value::str(self.utf8("string value")?),
            4 => Value::Date(AppDate(self.i64("date value")?)),
            5 => Value::SysTime(SysTime(self.u64("systime value")?)),
            t => return Err(Error::Archive(format!("bad value tag {t}"))),
        })
    }

    /// Reads a [`put_row`] value list; `what` names its arity.
    pub fn values(&mut self, what: &str) -> Result<Vec<Value>> {
        let n = self.u16(what)?;
        // Every value is at least its tag byte.
        let mut values = Vec::with_capacity(self.count(n.into(), 1, what)?);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(values)
    }

    /// Reads a [`put_row`] row.
    pub fn row(&mut self) -> Result<Row> {
        self.values("row arity").map(Row::new)
    }

    /// Fails unless every byte was read.
    pub fn finish(self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::Archive(format!("{n} trailing bytes after {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_every_truncation_is_an_archive_error() {
        let values = vec![
            Value::Null,
            Value::Int(-7),
            Value::Double(-0.5),
            Value::str("héllo"),
            Value::Date(AppDate(-3)),
            Value::SysTime(SysTime(u64::MAX)),
        ];
        let mut bytes = Vec::new();
        put_row(&mut bytes, &values).unwrap();
        assert_eq!(row_len(&values), bytes.len());
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.row().unwrap(), Row::new(values));
        cur.finish("row").unwrap();

        for cut in 0..bytes.len() {
            let mut cur = Cursor::new(&bytes[..cut]);
            assert!(
                matches!(cur.row(), Err(Error::Archive(_))),
                "a row cut at {cut} bytes decoded"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        let mut cur = Cursor::new(&padded);
        cur.row().unwrap();
        assert!(matches!(cur.finish("row"), Err(Error::Archive(m)) if m.contains("trailing")));

        // A count whose byte claim overflows u64 (2^63 × 2 wraps to 0) is
        // refused, not wrapped.
        let cur = Cursor::new(&bytes);
        assert!(cur.count(1 << 63, 2, "element count").is_err());
        assert_eq!(cur.count(3, 2, "element count").unwrap(), 3);
        assert!(cur
            .count(bytes.len() as u64 + 1, 1, "element count")
            .is_err());
    }

    /// Every length field at its bound reads back, and one past it is
    /// refused before a byte is written.
    #[test]
    fn lengths_at_the_bound_read_back_and_one_over_writes_nothing() {
        let mut out = vec![9];
        put_len::<u16>(&mut out, u16::MAX.into(), "count").unwrap();
        put_len::<u32>(&mut out, u32::MAX as usize, "count").unwrap();
        let mut cur = Cursor::new(&out[1..]);
        assert_eq!(cur.u16("count").unwrap(), u16::MAX);
        assert_eq!(cur.u32("count").unwrap(), u32::MAX);
        let over = put_len::<u16>(&mut out, usize::from(u16::MAX) + 1, "row arity");
        assert!(matches!(over, Err(Error::Archive(m)) if m.contains("row arity 65536")));
        let over = put_len::<u32>(&mut out, u32::MAX as usize + 1, "op count");
        assert!(matches!(over, Err(Error::Archive(_))));
        assert_eq!(out.len(), 1 + 2 + 4, "a refused length writes nothing");

        let full = vec![Value::Null; u16::MAX.into()];
        let mut bytes = Vec::new();
        put_row(&mut bytes, &full).unwrap();
        assert_eq!(Cursor::new(&bytes).row().unwrap().values(), &full[..]);
        let over = vec![Value::Null; usize::from(u16::MAX) + 1];
        let mut bytes = vec![7];
        assert!(matches!(put_row(&mut bytes, &over), Err(Error::Archive(_))));
        assert_eq!(bytes, [7], "a refused row writes nothing");
    }
}
