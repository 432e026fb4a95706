//! The transaction log writer: when appended bytes become durable.
//!
//! [`TxnWal`] frames payloads with `bitempo_core::frame` and pushes them
//! into a [`WalSink`] under one of the three durability modes:
//!
//! * [`DurabilityMode::Strict`] — every append writes *and syncs* before
//!   returning; an acknowledged commit is durable.
//! * [`DurabilityMode::Batched`]`(N)` — appends enqueue without blocking; a
//!   flusher thread wakes roughly every `N` milliseconds, writes the
//!   accumulated batch and syncs it once — the classic group commit.
//!   [`TxnWal::sync`] is the barrier that waits for the flusher's
//!   acknowledgement.
//! * [`DurabilityMode::Async`] — appends only write; nothing is synced
//!   until an explicit [`TxnWal::sync`] or [`TxnWal::close`]. A crash may
//!   lose any suffix of acknowledged commits.
//!
//! The flusher paces itself with `Condvar::wait_timeout`, not wall-clock
//! reads — benchmark timing stays confined to the bench crate (TB001).

use crate::sink::WalSink;
use bitempo_core::frame::{header_bytes, WalAppender};
use bitempo_core::{Error, Result};
use bitempo_storage::DurabilityMode;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A write-ahead log of framed payloads under a durability mode.
///
/// One `TxnWal` per log stream, for its lifetime. Sequence numbers are the
/// dense 1-based record numbers assigned by the framing layer. A
/// commit-only log holds exactly one record per committed transaction, so
/// there record `seq` *is* the commit number; a shard log also numbers its
/// prepare and decision records.
pub struct TxnWal {
    mode: DurabilityMode,
    backend: Backend,
}

enum Backend {
    /// Strict and async modes: the sink sits behind a mutex shared with
    /// strict-mode durability waiters, so a committer can *submit* (write,
    /// no sync) inside its critical section and let the waiter perform the
    /// fsync after every lock is released.
    Direct {
        shared: Arc<DirectShared>,
        appender: WalAppender,
    },
    /// Batched mode: a flusher thread owns the sink.
    Batched(Batched),
}

/// The direct backend's sink and watermarks, shared between the appending
/// side and strict-mode [`DurabilityWaiter`]s.
struct DirectShared {
    /// The field is named `sink` (not `state`) so tblint's lock-order
    /// graph keys this mutex distinctly from the batched backend's
    /// `Shared.state` and the txn manager's `state` lock.
    sink: Mutex<DirectSink>,
}

struct DirectSink {
    sink: Box<dyn WalSink>,
    /// Highest sequence number written to the sink.
    written: u64,
    /// Highest sequence number synced to stable storage.
    durable: u64,
    /// The first write or sync failure; every later submit, wait, sync and
    /// close returns it. A failed write has already taken its record's seq
    /// and stream CRC, so a later record would chain after a torn frame
    /// that recovery stops at; a failed sync may have dropped the written
    /// pages, so a later sync that succeeds proves nothing about them.
    error: Option<Error>,
}

impl DirectSink {
    /// `Ok` until a write or sync has failed, then that first failure.
    fn alive(&self) -> Result<()> {
        self.error.clone().map_or(Ok(()), Err)
    }

    /// Keeps `res`'s failure unless an earlier one stands, then answers
    /// as [`Self::alive`].
    fn check(&mut self, res: std::io::Result<()>) -> Result<()> {
        if let Err(e) = res {
            self.error.get_or_insert(e.into());
        }
        self.alive()
    }
}

impl DirectShared {
    /// Syncs everything written unless record `seq` is already durable,
    /// returning the durable watermark. The one place the direct backend
    /// syncs: the barrier and the final drain pass `u64::MAX` (always
    /// sync), a strict waiter its record's sequence number.
    fn sync_through(&self, seq: u64) -> Result<u64> {
        let mut s = self.sink.lock().expect("wal sink poisoned");
        s.alive()?;
        if s.durable < seq {
            // tblint: allow(TB008) the sink mutex serializes the sink itself; the sync runs under it by design, outside every caller lock
            let synced = s.sink.sync();
            s.check(synced)?;
            s.durable = s.written;
        }
        Ok(s.durable)
    }
}

impl TxnWal {
    /// Creates a log on `sink`, writing the stream header immediately.
    pub fn create(mut sink: Box<dyn WalSink>, mode: DurabilityMode) -> Result<TxnWal> {
        sink.write_all(&header_bytes())?;
        let backend = match mode {
            DurabilityMode::Strict | DurabilityMode::Async => Backend::Direct {
                shared: Arc::new(DirectShared {
                    sink: Mutex::new(DirectSink {
                        sink,
                        written: 0,
                        durable: 0,
                        error: None,
                    }),
                }),
                appender: WalAppender::new(),
            },
            DurabilityMode::Batched(ms) => Backend::Batched(Batched::spawn(sink, ms)),
        };
        Ok(TxnWal { mode, backend })
    }

    /// Appends one payload as the next record, returning its sequence
    /// number. Under `Strict` the record is durable on return; under
    /// `Batched` it is merely *submitted* (watch [`TxnWal::durable_seq`]
    /// or call [`TxnWal::sync`]); under `Async` it is written, unsynced.
    ///
    /// Single-threaded drivers (replay, benchmarks) use this: it is
    /// [`TxnWal::submit`] followed, under `Strict` only, by the waiter's
    /// sync. Concurrent committers holding other locks should call those
    /// two themselves, so the strict fsync runs outside their critical
    /// section.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let seq = self.submit(payload)?;
        if self.mode == DurabilityMode::Strict {
            self.waiter().wait_for(seq)?;
        }
        Ok(seq)
    }

    /// Appends one payload *without* a durability wait: the frame is
    /// written (or enqueued, under `Batched`) and its sequence number
    /// returned, but nothing is synced. Pair with [`TxnWal::waiter`]: under
    /// `Strict` the returned waiter performs the sync — once, covering
    /// every record submitted so far — after the committer has dropped its
    /// locks, so the fsync latency never sits inside a lock-protected
    /// critical section.
    pub fn submit(&mut self, payload: &[u8]) -> Result<u64> {
        match &mut self.backend {
            Backend::Direct { shared, appender } => {
                let (seq, frame) = appender.encode(payload)?;
                let mut s = shared.sink.lock().expect("wal sink poisoned");
                s.alive()?;
                let wrote = s.sink.write_all(&frame);
                s.check(wrote)?;
                s.written = seq;
                Ok(seq)
            }
            Backend::Batched(b) => b.enqueue(payload),
        }
    }

    /// Highest sequence number known durable (synced to stable storage).
    pub fn durable_seq(&self) -> u64 {
        match &self.backend {
            Backend::Direct { shared, .. } => {
                shared.sink.lock().expect("wal sink poisoned").durable
            }
            Backend::Batched(b) => b.durable_seq(),
        }
    }

    /// Highest sequence number submitted so far.
    pub fn submitted_seq(&self) -> u64 {
        match &self.backend {
            Backend::Direct { shared, .. } => {
                shared.sink.lock().expect("wal sink poisoned").written
            }
            Backend::Batched(b) => b.submitted_seq(),
        }
    }

    /// Durability barrier: blocks until every submitted record is durable
    /// (or the sink has failed).
    pub fn sync(&mut self) -> Result<()> {
        match &mut self.backend {
            Backend::Direct { shared, .. } => shared.sync_through(u64::MAX).map(|_| ()),
            Backend::Batched(b) => b.barrier(),
        }
    }

    /// A handle a committer can block on *after* releasing whatever lock
    /// serializes appends. Waiting for group commit inside the commit
    /// critical section would serialize the fsync latency across committers
    /// and defeat batching; the waiter carries just enough shared state to
    /// park outside all locks until a given sequence number is durable.
    pub fn waiter(&self) -> DurabilityWaiter {
        match &self.backend {
            Backend::Direct { shared, .. } => match self.mode {
                // Strict: a submitted record is not yet synced; the waiter
                // performs the deferred fsync (amortized across every
                // committer that submitted before it runs). Records already
                // durable short-circuit on the watermark.
                DurabilityMode::Strict => DurabilityWaiter(Waiter::StrictSync {
                    shared: Arc::clone(shared),
                }),
                // Async: no durability contract until an explicit sync —
                // nothing to wait for at commit time.
                _ => DurabilityWaiter(Waiter::Immediate),
            },
            Backend::Batched(b) => DurabilityWaiter(Waiter::Batched {
                shared: Arc::clone(&b.shared),
                interval: b.interval,
            }),
        }
    }

    /// Drains and closes the log, returning the highest durable sequence
    /// number. A sink failure anywhere before or during the drain surfaces
    /// here, with the watermark of what *did* survive available via the
    /// error-path test hooks (recovery scans the bytes, not the return).
    pub fn close(mut self) -> Result<u64> {
        match &mut self.backend {
            Backend::Direct { shared, .. } => shared.sync_through(u64::MAX),
            Backend::Batched(b) => b.shutdown(),
        }
    }
}

/// A detached handle for awaiting durability of one appended record.
///
/// Cloned freely and used concurrently: many committers can park on the
/// same group-commit flusher at once, which is exactly what amortizes the
/// fsync (paper §2.4's commit-cost trade-off, now under concurrency).
#[derive(Clone)]
pub struct DurabilityWaiter(Waiter);

#[derive(Clone)]
enum Waiter {
    /// Async mode (no wait contract): return immediately.
    Immediate,
    /// Strict mode after [`TxnWal::submit`]: perform the deferred fsync if
    /// the target record is not durable yet. One waiter's sync covers every
    /// record written before it — concurrent strict committers get their
    /// fsyncs amortized exactly like group commit, without the flusher
    /// thread or its latency floor.
    StrictSync { shared: Arc<DirectShared> },
    /// Group commit: park on the flusher's ack condvar until the durable
    /// watermark passes the target sequence number.
    Batched {
        shared: Arc<Shared>,
        /// Re-check cadence while parked (the flusher's flush interval).
        interval: Duration,
    },
}

impl DurabilityWaiter {
    /// Blocks until record `seq` is durable under this log's mode. Under
    /// strict mode it runs the deferred fsync unless `seq` is already
    /// durable; under async it is a no-op (nothing is promised until an
    /// explicit sync).
    pub fn wait_for(&self, seq: u64) -> Result<()> {
        match &self.0 {
            Waiter::Immediate => Ok(()),
            Waiter::StrictSync { shared } => shared.sync_through(seq).map(|_| ()),
            Waiter::Batched { shared, interval } => {
                let mut st = shared.state.lock().expect("wal state poisoned");
                while st.durable < seq {
                    if let Some(e) = &st.error {
                        return Err(Error::Archive(format!("wal flusher failed: {e}")));
                    }
                    if st.shutdown {
                        return Err(Error::Archive(
                            "wal flusher shut down before the commit became durable".into(),
                        ));
                    }
                    st = shared
                        .ack
                        .wait_timeout(st, *interval)
                        .expect("wal state poisoned")
                        .0;
                }
                Ok(())
            }
        }
    }
}

/// Shared state between the submitting thread and the flusher.
#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signaled to wake the flusher early (barrier, shutdown).
    work: Condvar,
    /// Signaled by the flusher after each batch (durable watermark moved).
    ack: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// Encoded frames awaiting the next flush.
    buf: Vec<u8>,
    /// Highest sequence number enqueued.
    submitted: u64,
    /// Highest sequence number written + synced.
    durable: u64,
    /// First sink failure; the flusher stops consuming after it.
    error: Option<String>,
    shutdown: bool,
}

/// The group-commit backend: a flusher thread that coalesces submitted
/// frames and syncs them in batches.
struct Batched {
    shared: Arc<Shared>,
    appender: WalAppender,
    interval: Duration,
    handle: Option<JoinHandle<()>>,
}

impl Batched {
    fn spawn(mut sink: Box<dyn WalSink>, interval_ms: u32) -> Batched {
        let interval = Duration::from_millis(u64::from(interval_ms.max(1)));
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            ack: Condvar::new(),
        });
        let flusher_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("wal-flusher".into())
            .spawn(move || {
                loop {
                    // Sleep one group-commit interval (or until a barrier /
                    // shutdown pokes us), then flush whatever accumulated.
                    // Ordinary appends do NOT signal `work` — that is what
                    // makes commits coalesce instead of syncing one by one.
                    let (batch, target, stop) = {
                        let mut st = flusher_shared
                            .state
                            .lock()
                            .expect("wal flusher state poisoned");
                        if st.buf.is_empty() && !st.shutdown {
                            st = flusher_shared
                                .work
                                .wait_timeout(st, interval)
                                .expect("wal flusher state poisoned")
                                .0;
                        }
                        (std::mem::take(&mut st.buf), st.submitted, st.shutdown)
                    };
                    if !batch.is_empty() {
                        let res = sink.write_all(&batch).and_then(|()| sink.sync());
                        let mut st = flusher_shared
                            .state
                            .lock()
                            .expect("wal flusher state poisoned");
                        match res {
                            Ok(()) => st.durable = st.durable.max(target),
                            Err(e) => {
                                st.error.get_or_insert(e.to_string());
                                st.shutdown = true;
                            }
                        }
                        let failed = st.error.is_some();
                        drop(st);
                        flusher_shared.ack.notify_all();
                        if failed {
                            return;
                        }
                    } else if stop {
                        flusher_shared.ack.notify_all();
                        return;
                    }
                }
            })
            .expect("spawn wal flusher");
        Batched {
            shared,
            appender: WalAppender::new(),
            interval,
            handle: Some(handle),
        }
    }

    /// Non-blocking append: encodes the frame into the pending batch.
    /// (Named `enqueue` so the workspace-unique name `submit` belongs to
    /// [`TxnWal::submit`] for tblint's one-hop call resolution.)
    fn enqueue(&mut self, payload: &[u8]) -> Result<u64> {
        let (seq, frame) = self.appender.encode(payload)?;
        let mut st = self.shared.state.lock().expect("wal state poisoned");
        if let Some(e) = &st.error {
            return Err(Error::Archive(format!("wal flusher failed: {e}")));
        }
        st.buf.extend_from_slice(&frame);
        st.submitted = seq;
        Ok(seq)
    }

    fn durable_seq(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("wal state poisoned")
            .durable
    }

    fn submitted_seq(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("wal state poisoned")
            .submitted
    }

    /// Blocks until everything submitted is durable, or the flusher died.
    fn barrier(&mut self) -> Result<()> {
        let mut st = self.shared.state.lock().expect("wal state poisoned");
        let target = st.submitted;
        while st.durable < target {
            if let Some(e) = &st.error {
                return Err(Error::Archive(format!("wal flusher failed: {e}")));
            }
            let flusher_dead = self.handle.as_ref().is_none_or(JoinHandle::is_finished);
            if flusher_dead {
                return Err(Error::Archive(
                    "wal flusher exited before the barrier".into(),
                ));
            }
            self.shared.work.notify_one();
            st = self
                .shared
                .ack
                .wait_timeout(st, self.interval)
                .expect("wal state poisoned")
                .0;
        }
        Ok(())
    }

    /// Asks the flusher to drain and exit, then joins it.
    fn shutdown(&mut self) -> Result<u64> {
        self.shared
            .state
            .lock()
            .expect("wal state poisoned")
            .shutdown = true;
        // The flusher reads the flag under the state mutex before every
        // wait, and a wait releases that mutex atomically, so the flag set
        // above cannot slip past it: this one notify wakes it if it sleeps.
        self.shared.work.notify_one();
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .map_err(|_| Error::Internal("wal flusher panicked".into()))?;
        }
        let st = self.shared.state.lock().expect("wal state poisoned");
        match &st.error {
            Some(e) => Err(Error::Archive(format!("wal flusher failed: {e}"))),
            None => Ok(st.durable),
        }
    }
}

impl Drop for Batched {
    fn drop(&mut self) {
        // Best-effort drain on drop; `close()` is the checked path.
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SharedBuf;
    use bitempo_core::fault::FaultyWriter;
    use bitempo_core::frame;

    /// A sink that counts `sync` calls, for asserting *when* fsyncs happen.
    struct CountingSink {
        inner: SharedBuf,
        syncs: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl std::io::Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl WalSink for CountingSink {
        fn sync(&mut self) -> std::io::Result<()> {
            self.syncs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.sync()
        }
    }

    #[test]
    fn submit_defers_the_strict_fsync_to_the_waiter() {
        let buf = SharedBuf::new();
        let syncs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let sink = CountingSink {
            inner: buf.clone(),
            syncs: std::sync::Arc::clone(&syncs),
        };
        let mut w = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
        assert_eq!(w.submit(b"t1").unwrap(), 1);
        assert_eq!(w.submit(b"t2").unwrap(), 2);
        assert_eq!(
            syncs.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "submit writes without syncing"
        );
        assert_eq!(w.durable_seq(), 0, "nothing promised before the waiter");
        let waiter = w.waiter();
        waiter.wait_for(2).unwrap();
        assert_eq!(
            syncs.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "one fsync covers the whole submitted group"
        );
        assert_eq!(w.durable_seq(), 2);
        waiter.wait_for(1).unwrap();
        assert_eq!(
            syncs.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "already-durable records do not re-sync"
        );
        assert_eq!(w.close().unwrap(), 2);
        let s = frame::scan(&buf.snapshot());
        assert!(s.is_clean());
        assert_eq!(s.last_seq(), 2);
    }

    #[test]
    fn strict_append_still_syncs_inline_so_the_waiter_is_free() {
        let buf = SharedBuf::new();
        let syncs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let sink = CountingSink {
            inner: buf.clone(),
            syncs: std::sync::Arc::clone(&syncs),
        };
        let mut w = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
        assert_eq!(w.append(b"t1").unwrap(), 1);
        assert_eq!(syncs.load(std::sync::atomic::Ordering::SeqCst), 1);
        w.waiter().wait_for(1).unwrap();
        assert_eq!(
            syncs.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "the waiter sees the record already durable and does nothing"
        );
    }

    #[test]
    fn strict_mode_is_durable_per_append() {
        let buf = SharedBuf::new();
        let mut w = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Strict).unwrap();
        assert_eq!(w.append(b"t1").unwrap(), 1);
        assert_eq!(w.durable_seq(), 1);
        assert_eq!(w.append(b"t2").unwrap(), 2);
        assert_eq!(w.durable_seq(), 2);
        assert_eq!(w.close().unwrap(), 2);
        let s = frame::scan(&buf.snapshot());
        assert!(s.is_clean());
        assert_eq!(s.last_seq(), 2);
    }

    #[test]
    fn async_mode_syncs_only_on_demand() {
        let buf = SharedBuf::new();
        let mut w = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Async).unwrap();
        w.append(b"t1").unwrap();
        w.append(b"t2").unwrap();
        assert_eq!(w.durable_seq(), 0, "nothing promised yet");
        assert_eq!(w.submitted_seq(), 2);
        w.sync().unwrap();
        assert_eq!(w.durable_seq(), 2);
        w.append(b"t3").unwrap();
        assert_eq!(w.close().unwrap(), 3);
    }

    #[test]
    fn batched_mode_coalesces_and_acknowledges() {
        let buf = SharedBuf::new();
        let mut w = TxnWal::create(Box::new(buf.clone()), DurabilityMode::Batched(1)).unwrap();
        for i in 0..20u8 {
            w.append(&[i]).unwrap();
        }
        assert_eq!(w.submitted_seq(), 20);
        w.sync().unwrap();
        assert!(w.durable_seq() >= 20);
        assert_eq!(w.close().unwrap(), 20);
        let s = frame::scan(&buf.snapshot());
        assert!(s.is_clean(), "{:?}", s.torn);
        assert_eq!(s.records.len(), 20);
    }

    /// A payload the reader would reject is refused in every mode before
    /// any byte reaches the sink or the sequence moves; the log goes on.
    #[test]
    fn an_oversized_record_is_refused_and_the_log_goes_on() {
        let modes = [
            DurabilityMode::Strict,
            DurabilityMode::Async,
            DurabilityMode::Batched(1),
        ];
        let over = vec![0u8; frame::MAX_PAYLOAD_BYTES + 1];
        for mode in modes {
            let buf = SharedBuf::new();
            let mut w = TxnWal::create(Box::new(buf.clone()), mode).unwrap();
            assert_eq!(w.submit(b"t1").unwrap(), 1);
            w.sync().unwrap();
            let before = buf.snapshot();
            assert!(
                matches!(w.submit(&over), Err(Error::Archive(_))),
                "{mode:?}"
            );
            assert_eq!(w.submitted_seq(), 1, "{mode:?}");
            w.sync().unwrap();
            assert_eq!(buf.snapshot(), before, "{mode:?}");
            assert_eq!(w.submit(b"t2").unwrap(), 2, "{mode:?}");
            assert_eq!(w.close().unwrap(), 2, "{mode:?}");
            let s = frame::scan(&buf.snapshot());
            assert!(s.is_clean(), "{mode:?}: {:?}", s.torn);
            let payloads: Vec<&[u8]> = s.records.iter().map(|r| &r.payload[..]).collect();
            assert_eq!(payloads, [&b"t1"[..], &b"t2"[..]], "{mode:?}");
        }
    }

    #[test]
    fn strict_append_surfaces_the_crash() {
        let buf = SharedBuf::new();
        let sink = FaultyWriter::new(buf.clone(), 40);
        let mut w = TxnWal::create(Box::new(sink), DurabilityMode::Strict).unwrap();
        let mut crashed_at = None;
        for i in 0..10u64 {
            if w.append(format!("txn-{i}").as_bytes()).is_err() {
                crashed_at = Some(i);
                break;
            }
        }
        let crashed_at = crashed_at.expect("the 40-byte cut must fire");
        // Everything acknowledged before the crash is recoverable.
        let s = frame::scan(&buf.snapshot());
        assert_eq!(s.last_seq(), crashed_at, "acknowledged appends survive");
        assert!(!s.is_clean(), "the torn tail is detected");
    }

    /// A sink that fails exactly its `fail_write`-th write and its
    /// `fail_sync`-th sync (1-based; the stream header is write 1) and
    /// succeeds at every other call.
    struct FlakySink {
        inner: SharedBuf,
        writes: usize,
        syncs: usize,
        fail_write: usize,
        fail_sync: usize,
    }

    impl FlakySink {
        fn new(inner: SharedBuf, fail_write: usize, fail_sync: usize) -> FlakySink {
            FlakySink {
                inner,
                writes: 0,
                syncs: 0,
                fail_write,
                fail_sync,
            }
        }
    }

    impl std::io::Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes == self.fail_write {
                return Err(std::io::Error::other("simulated write failure"));
            }
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl WalSink for FlakySink {
        fn sync(&mut self) -> std::io::Result<()> {
            self.syncs += 1;
            if self.syncs == self.fail_sync {
                return Err(std::io::Error::other("simulated fsync failure"));
            }
            self.inner.sync()
        }
    }

    /// Every call after the first failure returns it, even though the sink
    /// itself would succeed again.
    fn assert_fail_stop(w: &mut TxnWal, failure: &Error) {
        assert_eq!(w.submit(b"later").as_ref(), Err(failure), "submit");
        // An async waiter promises nothing, so it has nothing to report.
        if w.mode == DurabilityMode::Strict {
            assert_eq!(w.waiter().wait_for(1).as_ref(), Err(failure), "wait_for");
        }
        assert_eq!(w.sync().as_ref(), Err(failure), "sync");
    }

    /// fsyncgate: a failed sync may have dropped the written pages, so a
    /// later sync that succeeds must not mark them durable.
    #[test]
    fn a_failed_sync_is_sticky() {
        for mode in [DurabilityMode::Strict, DurabilityMode::Async] {
            let buf = SharedBuf::new();
            let sink = FlakySink::new(buf.clone(), usize::MAX, 1);
            let mut w = TxnWal::create(Box::new(sink), mode).unwrap();
            assert_eq!(w.submit(b"t1").unwrap(), 1, "{mode:?}");
            let failure = w.sync().unwrap_err();
            assert!(format!("{failure}").contains("simulated fsync"), "{mode:?}");
            assert_eq!(w.durable_seq(), 0, "{mode:?}: nothing became durable");
            assert_fail_stop(&mut w, &failure);
            assert_eq!(w.durable_seq(), 0, "{mode:?}: nothing became durable");
            assert_eq!(w.close(), Err(failure), "{mode:?}: close");
        }
    }

    /// A failed write has taken its record's seq and stream CRC: a later
    /// record would chain after a torn frame that recovery stops at.
    #[test]
    fn a_failed_write_is_sticky() {
        for mode in [DurabilityMode::Strict, DurabilityMode::Async] {
            let buf = SharedBuf::new();
            let sink = FlakySink::new(buf.clone(), 2, usize::MAX);
            let mut w = TxnWal::create(Box::new(sink), mode).unwrap();
            let failure = w.submit(b"t1").unwrap_err();
            assert!(format!("{failure}").contains("simulated write"), "{mode:?}");
            assert_fail_stop(&mut w, &failure);
            assert_eq!(w.close(), Err(failure), "{mode:?}: close");
            assert_eq!(
                buf.snapshot().len(),
                frame::header_bytes().len(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn batched_mode_reports_the_failure_at_the_barrier() {
        let buf = SharedBuf::new();
        let sink = FaultyWriter::new(buf.clone(), 64);
        let mut w = TxnWal::create(Box::new(sink), DurabilityMode::Batched(1)).unwrap();
        for i in 0..50u64 {
            // Submission may start failing once the flusher has died.
            let _ = w.append(format!("txn-{i}").as_bytes());
        }
        assert!(w.close().is_err(), "the sink failure surfaces on close");
        let s = frame::scan(&buf.snapshot());
        assert!(s.last_seq() < 50, "the cut lost a suffix");
    }
}
