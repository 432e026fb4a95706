//! The traced run's recorder. Spans are recorded only here, around calls
//! into the crates' public functions: a [`TracedEngine`] around any
//! `Box<dyn BitemporalEngine>`, a [`TracedSink`] around any `WalSink`, and
//! [`span`] guards the workload files put around loader, query, txn, shard,
//! checkpoint and recovery calls. `core::obs` stays off. End-to-end numbers
//! never come from a traced run.
//!
//! Recording is thread-local and the traced storm runs one client, so every
//! span nests inside its op's root span and self times partition it exactly.

use bitempo_core::{AppPeriod, Key, Result, Row, SysTime, TableDef, TableId, Value};
use bitempo_engine::api::{
    AccessPath, AppSpec, BitemporalEngine, ColRange, ScanOutput, SysSpec, TableStats, TuningConfig,
};
use bitempo_engine::{ScanMetrics, Version};
use bitempo_wal::WalSink;
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// "No parent": the span is an op's root.
pub const ROOT: u32 = u32::MAX;

/// What a scan or key lookup did, from `ScanOutput`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanCounts {
    pub rows_out: u64,
    pub metrics: ScanMetrics,
    /// No partition was walked sequentially: every partition path was an
    /// index access.
    pub index_served: bool,
}

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate name.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recording, or [`ROOT`].
    pub parent: u32,
    /// The op this span belongs to (shared by every span of one op).
    pub op: u32,
    /// Engine lane (index into `SystemKind::ALL`) of the op.
    pub lane: u8,
    pub scan: Option<Box<ScanCounts>>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    lane: u8,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on this thread on or off. Off costs one thread-local
/// flag test per wrapped call; untraced runs do not wrap at all.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Sets the engine lane of the ops that follow.
pub fn set_lane(lane: usize) {
    REC.with(|r| r.borrow_mut().lane = lane as u8);
}

/// Takes everything recorded on this thread so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        debug_assert!(r.stack.is_empty(), "take() inside an open span");
        std::mem::take(&mut r.spans)
    })
}

/// An open span; closes when dropped.
pub struct Guard(Option<u32>);

impl Guard {
    /// Attaches scan counters to the span.
    fn set_scan(&self, counts: ScanCounts) {
        if let Some(i) = self.0 {
            REC.with(|r| r.borrow_mut().spans[i as usize].scan = Some(Box::new(counts)));
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.0 {
            let end = now_ns();
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[i as usize].end = end;
                r.stack.pop();
            });
        }
    }
}

/// Opens a span under whatever span is open on this thread; a span opened
/// with none open is a root and starts a new op.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let parent = r.stack.last().copied().unwrap_or(ROOT);
        if parent == ROOT {
            r.op += 1;
        }
        let i = r.spans.len() as u32;
        let (op, lane) = (r.op, r.lane);
        r.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            op,
            lane,
            scan: None,
        });
        r.stack.push(i);
        Guard(Some(i))
    })
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if s.parent != ROOT {
            own[s.parent as usize] -= s.dur_us();
        }
    }
    own
}

/// Writes spans as chrome-trace JSON (`chrome://tracing`, Perfetto). Keeps
/// the first `ops_per_cell` ops of every (root name, lane) cell so the file
/// stays small; a kept op is written whole. `pid` is the process, `tid` the
/// engine lane; `args` carry the span's own index, its parent's and the op.
pub fn write_chrome_trace(
    path: &std::path::Path,
    spans: &[Span],
    ops_per_cell: usize,
) -> io::Result<usize> {
    let mut kept_ops = std::collections::BTreeSet::new();
    let mut per_cell: std::collections::BTreeMap<(&str, u8), usize> = Default::default();
    for s in spans.iter().filter(|s| s.parent == ROOT) {
        let n = per_cell.entry((s.name, s.lane)).or_insert(0);
        if *n < ops_per_cell {
            *n += 1;
            kept_ops.insert(s.op);
        }
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    let mut written = 0;
    for (i, s) in spans.iter().enumerate() {
        if !kept_ops.contains(&s.op) {
            continue;
        }
        if written > 0 {
            out.write_all(b",\n")?;
        }
        written += 1;
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.dur_us(),
            s.lane,
            s.op
        )?;
        if let Some(c) = &s.scan {
            write!(
                out,
                ",\"rows_out\":{},\"rows_visited\":{},\"index_probes\":{}",
                c.rows_out, c.metrics.rows_visited, c.metrics.index_probes
            )?;
        }
        out.write_all(b"}}")?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()?;
    Ok(written)
}

/// A `BitemporalEngine` that records a span around every DML, commit, scan
/// and key lookup of the engine it wraps, and forwards everything else.
pub struct TracedEngine(pub Box<dyn BitemporalEngine>);

/// Wraps `engine` when `traced`, else returns it untouched.
pub fn maybe_traced(engine: Box<dyn BitemporalEngine>, traced: bool) -> Box<dyn BitemporalEngine> {
    if traced {
        Box::new(TracedEngine(engine))
    } else {
        engine
    }
}

fn scan_counts(out: &ScanOutput) -> ScanCounts {
    ScanCounts {
        rows_out: out.rows.len() as u64,
        metrics: out.metrics,
        index_served: !out.partition_paths.is_empty()
            && !out
                .partition_paths
                .iter()
                .any(|p| matches!(p, AccessPath::FullScan { .. })),
    }
}

impl BitemporalEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn architecture(&self) -> &'static str {
        self.0.architecture()
    }
    fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        self.0.create_table(def)
    }
    fn resolve(&self, name: &str) -> Result<TableId> {
        self.0.resolve(name)
    }
    fn table_names(&self) -> Vec<String> {
        self.0.table_names()
    }
    fn table_def(&self, table: TableId) -> &TableDef {
        self.0.table_def(table)
    }
    fn apply_tuning(&mut self, tuning: &TuningConfig) -> Result<()> {
        let _s = span("engine.apply_tuning");
        self.0.apply_tuning(tuning)
    }
    fn insert(&mut self, table: TableId, row: Row, app: Option<AppPeriod>) -> Result<()> {
        let _s = span("engine.insert");
        self.0.insert(table, row, app)
    }
    fn update(
        &mut self,
        table: TableId,
        key: &Key,
        updates: &[(usize, Value)],
        portion: Option<AppPeriod>,
    ) -> Result<usize> {
        let _s = span("engine.update");
        self.0.update(table, key, updates, portion)
    }
    fn delete(&mut self, table: TableId, key: &Key, portion: Option<AppPeriod>) -> Result<usize> {
        let _s = span("engine.delete");
        self.0.delete(table, key, portion)
    }
    fn overwrite_app_period(
        &mut self,
        table: TableId,
        key: &Key,
        period: AppPeriod,
    ) -> Result<usize> {
        let _s = span("engine.overwrite_app_period");
        self.0.overwrite_app_period(table, key, period)
    }
    fn commit(&mut self) -> SysTime {
        let _s = span("engine.commit");
        self.0.commit()
    }
    fn now(&self) -> SysTime {
        self.0.now()
    }
    fn advance_clock(&mut self, to: SysTime) {
        self.0.advance_clock(to)
    }
    fn scan(
        &self,
        table: TableId,
        sys: &SysSpec,
        app: &AppSpec,
        preds: &[ColRange],
    ) -> Result<ScanOutput> {
        let s = span("engine.scan");
        let out = self.0.scan(table, sys, app, preds)?;
        s.set_scan(scan_counts(&out));
        Ok(out)
    }
    fn lookup_key(
        &self,
        table: TableId,
        key: &Key,
        sys: &SysSpec,
        app: &AppSpec,
    ) -> Result<ScanOutput> {
        let s = span("engine.lookup_key");
        let out = self.0.lookup_key(table, key, sys, app)?;
        s.set_scan(scan_counts(&out));
        Ok(out)
    }
    fn stats(&self, table: TableId) -> TableStats {
        self.0.stats(table)
    }
    fn temporal_index_footprint(&self) -> bitempo_tindex::IndexFootprint {
        self.0.temporal_index_footprint()
    }
    fn supports_manual_system_time(&self) -> bool {
        self.0.supports_manual_system_time()
    }
    fn bulk_load(
        &mut self,
        table: TableId,
        versions: Vec<(Row, AppPeriod, bitempo_core::SysPeriod)>,
    ) -> Result<()> {
        self.0.bulk_load(table, versions)
    }
    fn checkpoint(&mut self) {
        let _s = span("engine.checkpoint");
        self.0.checkpoint()
    }
    fn snapshot_versions(&self, table: TableId) -> Result<Vec<Version>> {
        self.0.snapshot_versions(table)
    }
    fn restore(&mut self, table: TableId, versions: Vec<Version>, now: SysTime) -> Result<()> {
        self.0.restore(table, versions, now)
    }
}

/// What a [`TracedSink`] saw. Shared, because the sink moves into the WAL
/// (and, under `dur_batched`, onto its flusher thread).
#[derive(Debug, Default)]
pub struct SinkCounts {
    pub writes: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
}

impl SinkCounts {
    /// `(writes, bytes, syncs)` so far.
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.writes.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        )
    }
}

/// A `WalSink` that counts writes, bytes and syncs of the sink it wraps and
/// records a span around each (on the committing thread, so under
/// `dur_strict` and `dur_async`; a flusher thread's spans are not kept).
pub struct TracedSink<S> {
    inner: S,
    counts: Arc<SinkCounts>,
}

impl<S: WalSink> TracedSink<S> {
    pub fn new(inner: S) -> (TracedSink<S>, Arc<SinkCounts>) {
        let counts = Arc::new(SinkCounts::default());
        (
            TracedSink {
                inner,
                counts: Arc::clone(&counts),
            },
            counts,
        )
    }
}

impl<S: WalSink> Write for TracedSink<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let _s = span("wal.sink_write");
        let n = self.inner.write(buf)?;
        // Statistics only: they publish no other data.
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: WalSink> WalSink for TracedSink<S> {
    fn sync(&mut self) -> io::Result<()> {
        let _s = span("wal.sink_sync");
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_partition_the_root() {
        set_recording(true);
        {
            let _op = span("op.outer");
            {
                let _a = span("engine.scan");
            }
            {
                let _b = span("wal.sink_write");
            }
        }
        {
            let _op = span("op.next");
        }
        set_recording(false);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, ROOT);
        assert_eq!(spans[1].op, spans[0].op);
        assert_ne!(spans[3].op, spans[0].op);
        assert_eq!(spans[1].layer(), "engine");
        let own = self_times_us(&spans);
        let sum: f64 = own[..3].iter().sum();
        assert!((sum - spans[0].dur_us()).abs() < 1e-6);
        assert!(span("op.off").0.is_none(), "recording is off again");
    }
}
