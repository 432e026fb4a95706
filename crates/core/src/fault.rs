//! Deterministic fault injection for the archive / load / scan pipeline.
//!
//! A benchmark suite that populates four engines from one generator archive
//! (paper §4) is only trustworthy if every layer fails *loudly and
//! recoverably* when the archive is damaged or a worker misbehaves. This
//! module provides the injection side: seeded [`FaultPlan`]s (following the
//! same PCG32 substream discipline as [`crate::rng`]) and [`FaultyReader`] /
//! [`FaultyWriter`] wrappers that corrupt an I/O stream in flight —
//! truncations, single-byte bit-flips and short reads/writes. The detection
//! and recovery sides live in the CRC-checked frames of the archive and the
//! WAL ([`crate::frame`]), the morsel layer (panic containment), and the
//! bench runner (per-query timeout + `catch_unwind`).

use std::io::{self, Read, Write};

use crate::rng::Pcg32;

/// One kind of injected fault, positioned by byte offset in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The stream ends (EOF on read, sink-full error on write) once the
    /// cursor reaches this offset.
    TruncateAt(u64),
    /// XOR the byte at `offset` with `mask` as it passes through.
    BitFlip {
        /// Byte offset within the stream.
        offset: u64,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// Cap every read/write at `max` bytes, exercising short-I/O handling.
    ShortIo {
        /// Maximum bytes transferred per call (at least 1).
        max: usize,
    },
}

/// A deterministic set of faults to inject into one stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, applied independently.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan that injects nothing (the wrappers become transparent).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: adds one fault to the plan.
    #[must_use]
    pub fn with(mut self, fault: FaultKind) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// A seeded random plan against a stream of `len` bytes: one bit-flip,
    /// and with 50% probability a truncation.
    /// Identical `(seed, len)` always yields the identical plan.
    pub fn seeded(seed: u64, len: u64) -> FaultPlan {
        let mut rng = Pcg32::new(seed, 0xFA_07).derive_stream(len);
        let mut plan = FaultPlan::none();
        let offset = rng.int_range(0, len.max(1) as i64 - 1) as u64;
        let mask = rng.int_range(1, 255) as u8;
        plan = plan.with(FaultKind::BitFlip { offset, mask });
        if rng.chance(0.5) {
            let cut = rng.int_range(0, len.max(1) as i64 - 1) as u64;
            plan = plan.with(FaultKind::TruncateAt(cut));
        }
        plan
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

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

/// Shared fault-application state for the reader/writer wrappers.
#[derive(Debug, Clone)]
struct Injector {
    plan: FaultPlan,
    pos: u64,
    /// Which faults already fired (parallel to `plan.faults`).
    fired: Vec<bool>,
    injected: usize,
}

impl Injector {
    fn new(plan: FaultPlan) -> Injector {
        let n = plan.faults.len();
        Injector {
            plan,
            pos: 0,
            fired: vec![false; n],
            injected: 0,
        }
    }

    /// Caps `want` according to truncation and short-I/O faults; returns 0
    /// at a reached truncation point.
    fn admit(&mut self, want: usize) -> usize {
        let mut allow = want;
        for (i, fault) in self.plan.faults.iter().enumerate() {
            match *fault {
                FaultKind::TruncateAt(cut) => {
                    if self.pos >= cut {
                        if !self.fired[i] {
                            self.fired[i] = true;
                            self.injected += 1;
                        }
                        return 0;
                    }
                    allow = allow.min((cut - self.pos) as usize);
                }
                FaultKind::ShortIo { max } => {
                    if !self.fired[i] && allow > max.max(1) {
                        self.fired[i] = true;
                        self.injected += 1;
                    }
                    allow = allow.min(max.max(1));
                }
                FaultKind::BitFlip { .. } => {}
            }
        }
        allow
    }

    /// Applies bit-flips to a buffer that occupies stream offsets
    /// `[self.pos, self.pos + buf.len())`, then advances the cursor.
    fn corrupt_and_advance(&mut self, buf: &mut [u8]) {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if let FaultKind::BitFlip { offset, mask } = *fault {
                if offset >= self.pos && offset < self.pos + buf.len() as u64 {
                    buf[(offset - self.pos) as usize] ^= mask;
                    if !self.fired[i] {
                        self.fired[i] = true;
                        self.injected += 1;
                    }
                }
            }
        }
        self.pos += buf.len() as u64;
    }
}

/// A [`Read`] adapter that injects the faults of a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyReader<R: Read> {
    inner: R,
    injector: Injector,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, injecting `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> FaultyReader<R> {
        FaultyReader {
            inner,
            injector: Injector::new(plan),
        }
    }

    /// How many distinct faults actually fired so far.
    pub fn injected(&self) -> usize {
        self.injector.injected
    }

    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let allow = self.injector.admit(buf.len());
        if allow == 0 {
            return Ok(0);
        }
        let n = self.inner.read(&mut buf[..allow])?;
        self.injector.corrupt_and_advance(&mut buf[..n]);
        Ok(n)
    }
}

/// A [`Write`] adapter that injects the faults of a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    injector: Injector,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, injecting `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            injector: Injector::new(plan),
        }
    }

    /// How many distinct faults actually fired so far.
    pub fn injected(&self) -> usize {
        self.injector.injected
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let allow = self.injector.admit(buf.len());
        if allow == 0 {
            // A truncated sink cannot accept more bytes; writing zero would
            // loop forever in write_all, so fail loudly instead.
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected truncation: sink full",
            ));
        }
        let mut chunk = buf[..allow].to_vec();
        self.injector.corrupt_and_advance(&mut chunk);
        self.inner.write_all(&chunk)?;
        Ok(allow)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(mut r: impl Read) -> Vec<u8> {
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        out
    }

    #[test]
    fn no_faults_is_transparent() {
        let data: Vec<u8> = (0..=255).collect();
        let r = FaultyReader::new(&data[..], FaultPlan::none());
        assert_eq!(read_all(r), data);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_byte() {
        let data = [0u8; 32];
        let plan = FaultPlan::none().with(FaultKind::BitFlip {
            offset: 17,
            mask: 0x40,
        });
        let mut r = FaultyReader::new(&data[..], plan);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(r.injected(), 1);
        assert_eq!(out[17], 0x40);
        assert!(out.iter().enumerate().all(|(i, &b)| i == 17 || b == 0));
    }

    #[test]
    fn truncation_ends_stream_early() {
        let data = [7u8; 100];
        let plan = FaultPlan::none().with(FaultKind::TruncateAt(42));
        let mut r = FaultyReader::new(&data[..], plan);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 42);
        assert_eq!(r.injected(), 1);
    }

    #[test]
    fn short_io_caps_each_read() {
        let data = [1u8; 64];
        let plan = FaultPlan::none().with(FaultKind::ShortIo { max: 3 });
        let mut r = FaultyReader::new(&data[..], plan);
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 3);
        assert_eq!(read_all(r).len(), 64 - 3);
    }

    #[test]
    fn writer_injects_flip_and_truncation() {
        let plan = FaultPlan::none().with(FaultKind::BitFlip {
            offset: 2,
            mask: 0xFF,
        });
        let mut w = FaultyWriter::new(Vec::new(), plan);
        w.write_all(&[0, 0, 0, 0]).unwrap();
        assert_eq!(w.injected(), 1);
        assert_eq!(w.into_inner(), vec![0, 0, 0xFF, 0]);

        let plan = FaultPlan::none().with(FaultKind::TruncateAt(2));
        let mut w = FaultyWriter::new(Vec::new(), plan);
        let err = w.write_all(&[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(w.into_inner(), vec![1, 2]);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 1000);
        let b = FaultPlan::seeded(42, 1000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::seeded(43, 1000);
        assert_ne!(a, c);
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
