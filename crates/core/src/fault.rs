//! Fault injection and panic reporting.
//!
//! A benchmark suite that populates four engines from one generator archive
//! (paper §4) is only trustworthy if every layer fails *loudly and
//! recoverably* when a sink dies or a worker misbehaves. This module holds
//! [`FaultyWriter`], a sink that truncates its stream at a byte offset (a
//! crash mid-write, for the WAL and crash-recovery tests), and
//! [`panic_message`], which names a contained panic. The detection and
//! recovery sides live in the CRC-checked frames of the archive and the
//! WAL ([`crate::frame`]) and the morsel layer (panic containment). Byte
//! corruption needs no wrapper: archives and records decode from slices, so
//! a test flips the byte directly.

use std::io::{self, Write};

/// Extracts a human-readable message from a panic payload
/// (the `Box<dyn Any>` handed to [`std::panic::catch_unwind`]).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A [`Write`] adapter whose sink is full after `cut` bytes: everything
/// before the cut reaches `inner`, every later write fails.
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    pos: u64,
    cut: u64,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, truncating the stream at byte offset `cut`.
    pub fn new(inner: W, cut: u64) -> FaultyWriter<W> {
        FaultyWriter { inner, pos: 0, cut }
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.pos >= self.cut {
            // A truncated sink cannot accept more bytes; writing zero would
            // loop forever in write_all, so fail loudly instead.
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected truncation: sink full",
            ));
        }
        let n = buf.len().min((self.cut - self.pos) as usize);
        self.inner.write_all(&buf[..n])?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_ends_stream_early() {
        let data = [7u8; 100];
        let mut out = Vec::new();
        let mut w = FaultyWriter::new(&mut out, 42);
        assert_eq!(
            w.write(&data).unwrap(),
            42,
            "a write across the cut is short"
        );
        let err = w.write(&data[42..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(out.len(), 42);
    }

    #[test]
    fn writer_injects_flip_and_truncation() {
        let mut out = Vec::new();
        let mut w = FaultyWriter::new(&mut out, 2);
        assert_eq!(w.write(&[]).unwrap(), 0, "an empty write before the cut");
        let err = w.write_all(&[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(w.write(&[]).unwrap(), 0, "an empty write after the cut");
        assert_eq!(out, vec![1, 2], "bytes before the cut are kept");
    }

    #[test]
    fn panic_message_extracts_strings() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("bang"));
        assert_eq!(panic_message(payload.as_ref()), "bang");
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
