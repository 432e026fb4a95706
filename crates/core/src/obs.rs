//! Scan observability: access-path traces, operator spans, and a
//! chrome-trace exporter.
//!
//! The paper explains every headline number by *access-path choices* — which
//! partition a query touches, whether an index is used, how many versions
//! are visited (§5.2, Figs. 5–9). This module lets the benchmark record that
//! explanation alongside the wall-clock numbers:
//!
//! * **Work counters** ([`ScanMetrics`]) — the one set of scan counters:
//!   morsels, rows visited, versions pruned, index probes, hits and node
//!   visits, and the planner's estimate. A scan output, a partition trace
//!   and a report row each carry one.
//! * **Access-path traces** ([`ScanTrace`]) — one record per physical
//!   partition scanned: engine, partition, access path, rows emitted, that
//!   partition's [`ScanMetrics`], worker count, and the monotonic time
//!   spent.
//! * **Operator spans** ([`Span`]) — named, categorized durations recorded
//!   by the engine and query layers (scan, temporal filter, temporal join,
//!   temporal aggregation, sort/merge).
//! * **Chrome-trace export** ([`TraceLog::to_chrome_trace`]) — the JSON
//!   event format `about:tracing` and Perfetto load directly.
//!
//! # Zero cost when disabled
//!
//! Recording is per-thread and **off by default**. Every instrumentation
//! point first consults a thread-local flag ([`is_enabled`]) and does *no*
//! allocation, formatting, or clock reads while tracing is disabled — the
//! equivalence tests assert that a traced scan returns byte-identical rows
//! and metrics to an untraced one. Timings use [`std::time::Instant`], so
//! they are monotonic.
//!
//! Morsel workers run on scoped threads whose recorders stay disabled; the
//! coordinating thread records the aggregate per-partition trace, so a scan
//! produces the same trace for every worker count.
//!
//! ```
//! use bitempo_core::obs;
//!
//! obs::enable();
//! {
//!     let mut span = obs::span("query", "filter");
//!     span.arg_with("rows", || "42".to_string());
//! }
//! let log = obs::disable();
//! assert_eq!(log.spans.len(), 1);
//! assert!(log.to_chrome_trace().contains("\"traceEvents\""));
//! assert!(!obs::is_enabled());
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed operator span, relative to the trace epoch ([`enable`] time).
#[derive(Debug, Clone)]
pub struct Span {
    /// Category (chrome-trace `cat`): `"engine"`, `"exec"`, `"index"`,
    /// `"query"`, `"temporal"`.
    pub cat: &'static str,
    /// Span name, e.g. `"temporal_join"` or `"System A scan orders"`.
    pub name: String,
    /// Start offset from the trace epoch, nanoseconds (monotonic clock).
    pub start_nanos: u64,
    /// Duration, nanoseconds.
    pub dur_nanos: u64,
    /// Free-form key/value annotations (chrome-trace `args`).
    pub args: Vec<(String, String)>,
}

/// The work counters of a scan: one set per scan output, per partition
/// trace and per report row. Every counter is additive, and the totals are
/// identical across worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Morsels dispatched across all sequentially-scanned partitions.
    pub morsels: u64,
    /// Version records examined (sequential morsels and index probes alike).
    pub rows_visited: u64,
    /// Examined versions rejected by the temporal specs or predicates.
    pub versions_pruned: u64,
    /// Slots resolved through an index (PK, B-Tree, GiST, or temporal) probe.
    pub index_probes: u64,
    /// Probed slots that survived every residual filter — "the index
    /// helped", as opposed to `index_probes` which only says it was asked.
    pub index_hits: u64,
    /// Index entries examined internally while probing (checkpoint slots,
    /// replayed events, endpoint-list entries, B-Tree leaf entries).
    pub index_node_visits: u64,
    /// Rows the chosen access path was *estimated* to visit when the
    /// optimizer committed to it. Comparing against `rows_visited` exposes
    /// estimate error per scan; the error is reported, never fed back.
    pub planned_rows: u64,
}

impl ScanMetrics {
    /// Accumulates `other` into `self` (all counters are additive).
    #[inline]
    pub fn merge(&mut self, other: &ScanMetrics) {
        self.morsels += other.morsels;
        self.rows_visited += other.rows_visited;
        self.versions_pruned += other.versions_pruned;
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.index_node_visits += other.index_node_visits;
        self.planned_rows += other.planned_rows;
    }
}

/// The access-path trace of one physical partition scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanTrace {
    /// Engine display name ("System A" .. "System D").
    pub engine: String,
    /// Table name.
    pub table: String,
    /// Physical partition label ("current", "history", "staging", "all").
    pub partition: String,
    /// Rendered access path ("full-scan(1)", "btree(ix_...)", ...).
    pub access: String,
    /// Qualifying rows appended to the scan output.
    pub rows_emitted: u64,
    /// The work this partition's scan did.
    pub metrics: ScanMetrics,
    /// Configured worker threads for the scan.
    pub workers: u64,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_nanos: u64,
    /// Wall time spent scanning this partition, nanoseconds.
    pub dur_nanos: u64,
}

/// Everything one traced region recorded: spans plus access-path traces.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Operator spans, in completion order.
    pub spans: Vec<Span>,
    /// Per-partition access-path traces, in scan order.
    pub scans: Vec<ScanTrace>,
}

impl TraceLog {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.scans.is_empty()
    }

    /// Merges `other`'s events into `self` (timestamps are kept as-is, so
    /// only merge logs taken from the same [`enable`] epoch).
    pub fn merge(&mut self, other: TraceLog) {
        self.spans.extend(other.spans);
        self.scans.extend(other.scans);
    }

    /// Renders the log in the chrome-trace JSON event format, loadable in
    /// `about:tracing` and [Perfetto](https://ui.perfetto.dev). Spans become
    /// complete (`"ph":"X"`) duration events; scan traces become duration
    /// events in the `"scan"` category with the access-path counters as
    /// `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |out: &mut String,
                              cat: &str,
                              name: &str,
                              start: u64,
                              dur: u64,
                              args: &[(String, String)]| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":1,\"args\":{{",
                    json_string(name),
                    json_string(cat),
                    start / 1_000,
                    start % 1_000,
                    dur / 1_000,
                    dur % 1_000,
                );
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(k), json_string(v));
            }
            out.push_str("}}");
        };
        for s in &self.spans {
            push_event(
                &mut out,
                s.cat,
                &s.name,
                s.start_nanos,
                s.dur_nanos,
                &s.args,
            );
        }
        for t in &self.scans {
            let name = format!("{} scan {}/{}", t.engine, t.table, t.partition);
            let m = &t.metrics;
            let args = vec![
                ("access".to_string(), t.access.clone()),
                ("rows_visited".to_string(), m.rows_visited.to_string()),
                ("rows_emitted".to_string(), t.rows_emitted.to_string()),
                ("versions_pruned".to_string(), m.versions_pruned.to_string()),
                ("index_probes".to_string(), m.index_probes.to_string()),
                ("index_hits".to_string(), m.index_hits.to_string()),
                (
                    "index_node_visits".to_string(),
                    m.index_node_visits.to_string(),
                ),
                ("morsels".to_string(), m.morsels.to_string()),
                ("planned_rows".to_string(), m.planned_rows.to_string()),
                ("workers".to_string(), t.workers.to_string()),
            ];
            push_event(&mut out, "scan", &name, t.start_nanos, t.dur_nanos, &args);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    log: TraceLog,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        log: TraceLog::default(),
    });
}

/// Enables tracing on this thread, clearing any previous log and resetting
/// the trace epoch. Idempotent (re-enabling also clears).
pub fn enable() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.epoch = Instant::now();
        r.log = TraceLog::default();
    });
}

/// Disables tracing on this thread and returns everything recorded since
/// [`enable`]. Returns an empty log when tracing was not enabled.
pub fn disable() -> TraceLog {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        std::mem::take(&mut r.log)
    })
}

/// True when tracing is enabled on this thread. Instrumentation points guard
/// all allocation and clock work behind this check.
pub fn is_enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Nanoseconds since the trace epoch.
fn epoch_nanos(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// An in-flight operator span; records itself into the thread-local log on
/// drop. Inert (no clock reads, no allocation) while tracing is disabled.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    cat: &'static str,
    name: String,
    start_nanos: u64,
    args: Vec<(String, String)>,
}

impl SpanGuard {
    /// Attaches an annotation; `value` is only invoked when the span is
    /// live, so callers pay nothing while tracing is disabled.
    pub fn arg_with(&mut self, key: &str, value: impl FnOnce() -> String) {
        if let Some(active) = &mut self.active {
            active.args.push((key.to_string(), value()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            if !r.enabled {
                return;
            }
            let end = epoch_nanos(r.epoch);
            r.log.spans.push(Span {
                cat: active.cat,
                name: active.name,
                start_nanos: active.start_nanos,
                dur_nanos: end.saturating_sub(active.start_nanos),
                args: active.args,
            });
        });
    }
}

/// Opens a span with a static-ish name. The name is only copied when
/// tracing is enabled.
pub fn span(cat: &'static str, name: &str) -> SpanGuard {
    span_dyn(cat, || name.to_string())
}

/// Opens a span whose name is built lazily — `name` is only invoked when
/// tracing is enabled, so `format!` costs nothing on the disabled path.
/// The `RefCell` borrow is released before `name` runs, so the closure may
/// itself call into this module.
pub fn span_dyn(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    let epoch = RECORDER.with(|r| {
        let r = r.borrow();
        r.enabled.then_some(r.epoch)
    });
    let active = epoch.map(|epoch| ActiveSpan {
        cat,
        name: name(),
        start_nanos: epoch_nanos(epoch),
        args: Vec::new(),
    });
    SpanGuard { active }
}

/// Nanoseconds since the trace epoch, or `None` when tracing is disabled —
/// the building block for callers that assemble a [`ScanTrace`] themselves.
pub fn trace_clock() -> Option<u64> {
    RECORDER.with(|r| {
        let r = r.borrow();
        r.enabled.then(|| epoch_nanos(r.epoch))
    })
}

/// Records an access-path trace. `build` is only invoked when tracing is
/// enabled, and runs outside the recorder borrow so it may itself call into
/// this module (e.g. [`trace_clock`]).
pub fn record_scan(build: impl FnOnce() -> ScanTrace) {
    if !is_enabled() {
        return;
    }
    let trace = build();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.log.scans.push(trace);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scan(start: u64) -> ScanTrace {
        ScanTrace {
            engine: "System A".into(),
            table: "orders".into(),
            partition: "current".into(),
            access: "full-scan(1)".into(),
            rows_emitted: 10,
            metrics: ScanMetrics {
                morsels: 1,
                rows_visited: 100,
                versions_pruned: 90,
                planned_rows: 100,
                ..ScanMetrics::default()
            },
            workers: 4,
            start_nanos: start,
            dur_nanos: 1_500,
        }
    }

    #[test]
    fn disabled_by_default_and_inert() {
        assert!(!is_enabled());
        assert!(trace_clock().is_none());
        {
            let mut g = span("query", "noop");
            g.arg_with("k", || panic!("must not be invoked while disabled"));
        }
        record_scan(|| panic!("must not be invoked while disabled"));
        assert!(disable().is_empty());
    }

    #[test]
    fn spans_and_scans_are_recorded() {
        enable();
        {
            let mut g = span("engine", "scan");
            g.arg_with("rows", || "7".to_string());
            let _inner = span_dyn("index", || format!("probe {}", 3));
        }
        record_scan(|| sample_scan(trace_clock().unwrap()));
        let log = disable();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.scans.len(), 1);
        // Inner span completed (and was pushed) first.
        assert_eq!(log.spans[0].name, "probe 3");
        assert_eq!(log.spans[1].name, "scan");
        assert_eq!(
            log.spans[1].args,
            vec![("rows".to_string(), "7".to_string())]
        );
        assert!(log.spans[1].start_nanos <= log.spans[0].start_nanos);
        // Disabling again yields nothing new.
        assert!(disable().is_empty());
    }

    #[test]
    fn reenabling_clears_previous_log() {
        enable();
        let _ = span("query", "first");
        enable();
        drop(span("query", "second"));
        let log = disable();
        assert_eq!(log.spans.len(), 1);
        assert_eq!(log.spans[0].name, "second");
    }

    #[test]
    fn chrome_trace_shape() {
        let mut log = TraceLog::default();
        log.spans.push(Span {
            cat: "temporal",
            name: "join \"q\"".into(),
            start_nanos: 2_500,
            dur_nanos: 10_000,
            args: vec![("rows".into(), "3".into())],
        });
        log.scans.push(sample_scan(0));
        let json = log.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":2.500"), "{json}");
        assert!(json.contains("\"dur\":10.000"), "{json}");
        assert!(json.contains("join \\\"q\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"access\":\"full-scan(1)\""));
        assert!(json.contains("System A scan orders/current"));
        assert!(
            json.contains(
                "\"args\":{\"access\":\"full-scan(1)\",\"rows_visited\":\"100\",\
                 \"rows_emitted\":\"10\",\"versions_pruned\":\"90\",\"index_probes\":\"0\",\
                 \"index_hits\":\"0\",\"index_node_visits\":\"0\",\"morsels\":\"1\",\
                 \"planned_rows\":\"100\",\"workers\":\"4\"}"
            ),
            "scan args keep their names and order: {json}"
        );
        // Braces/brackets balance — the cheap structural validity check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn merge_combines_logs() {
        let mut a = TraceLog::default();
        a.scans.push(sample_scan(0));
        let mut b = TraceLog::default();
        b.scans.push(sample_scan(10));
        a.merge(b);
        assert_eq!(a.scans.len(), 2);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
