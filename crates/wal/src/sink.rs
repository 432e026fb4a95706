//! Where WAL bytes go: the sink abstraction and its implementations.
//!
//! A [`WalSink`] is an ordered byte sink with one extra operation the
//! durability modes are defined in terms of: [`WalSink::sync`], the point
//! at which previously-written bytes are promised to survive a crash.
//! Everything above this trait is sink-agnostic, so the same log writer
//! runs against a real file (benchmarks), a shared in-memory buffer
//! (tests and oracles) or a fault-injecting wrapper (crash simulation).

use bitempo_core::fault::FaultyWriter;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// An ordered byte sink with an explicit durability barrier.
///
/// `Send + 'static` because the group-commit flusher owns its sink on a
/// separate thread.
pub trait WalSink: Write + Send {
    /// Forces every byte written so far to stable storage. What "stable"
    /// means is the sink's business: `fdatasync` for files, a no-op for
    /// in-memory buffers (whose stability boundary is the process).
    fn sync(&mut self) -> io::Result<()>;
}

impl WalSink for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// An in-memory sink the test harness can keep a handle on: clones share
/// the same buffer, so the "disk image" survives handing the sink (or a
/// [`FaultyWriter`] around it) to a [`crate::TxnWal`].
///
/// Sync is a no-op — in-memory bytes are as stable as they will ever get —
/// which makes the *logic* of the durability modes testable without real
/// fsync latency. The crash tests simulate the missing stability by only
/// ever reading the buffer, never trusting acknowledgements.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// A copy of everything written so far — the simulated disk image.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().expect("wal buffer poisoned").clone()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.lock().expect("wal buffer poisoned").len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes
            .lock()
            .expect("wal buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WalSink for SharedBuf {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that discards everything: the oracle replays (which need the
/// durability *code path* but no log) and throughput baselines use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WalSink for NullSink {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A fault-injecting sink is still a sink: this is how the crash tests
/// seed truncations and bit flips into the log stream. Sync degrades to
/// flush — the injected crash point is the write failure itself.
impl<W: Write + Send> WalSink for FaultyWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_buf_clones_share_bytes() {
        let mut a = SharedBuf::new();
        let b = a.clone();
        assert!(b.is_empty());
        a.write_all(b"hello").unwrap();
        a.sync().unwrap();
        assert_eq!(b.snapshot(), b"hello");
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn null_sink_swallows_everything() {
        let mut n = NullSink;
        n.write_all(b"gone").unwrap();
        n.sync().unwrap();
    }

    #[test]
    fn faulty_writer_is_a_sink_and_keeps_the_prefix() {
        let buf = SharedBuf::new();
        let mut w = FaultyWriter::new(buf.clone(), 4);
        let err = w.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(buf.snapshot(), b"0123", "bytes before the cut are kept");
    }
}
