//! Morsel-driven parallel scan execution.
//!
//! Sequential partition scans are split into fixed-size row-range *morsels*
//! (after Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014) and executed
//! on a [`std::thread::scope`] worker pool. Workers pull morsels from a
//! shared atomic counter, so load balances automatically; each worker
//! produces `(morsel index, rows, metrics)` triples, and the results are
//! merged *in morsel order* — making parallel output byte-identical to a
//! sequential scan over the same ranges. The sequential path (one worker, or
//! a partition smaller than one morsel) iterates exactly the same morsel
//! ranges, so the per-scan [`ScanMetrics`] are also identical regardless of
//! worker count. The cross-engine equivalence tests rely on both properties.
//!
//! Panics inside a morsel are contained: every morsel body runs under
//! [`std::panic::catch_unwind`], a poisoned flag halts further dispatch, and
//! the scan surfaces [`Error::WorkerPanicked`] with the index of the first
//! panicking morsel instead of tearing down the thread scope. The
//! [`MorselExec`] config carries an injected-panic hook so each engine's
//! containment path can be exercised deterministically.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use bitempo_core::fault::panic_message;
use bitempo_core::{obs, Error, Result};

/// Rows per morsel. Small enough to load-balance skewed partitions, large
/// enough that the per-morsel dispatch cost is negligible; partitions below
/// this size never spawn threads.
pub const MORSEL_ROWS: usize = 1024;

/// Execution parameters for one morsel-driven scan: worker count plus the
/// fault-injection hook used by the panic-containment tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselExec {
    /// Worker threads (including the calling thread). `<= 1` runs inline.
    pub workers: usize,
    /// If set, the worker that picks up this morsel index panics before
    /// scanning it — a deterministic fault for testing containment.
    pub panic_morsel: Option<u64>,
}

impl Default for MorselExec {
    fn default() -> MorselExec {
        MorselExec::workers(1)
    }
}

impl MorselExec {
    /// Plain execution with `workers` threads and no injected faults.
    pub fn workers(workers: usize) -> MorselExec {
        MorselExec {
            workers,
            panic_morsel: None,
        }
    }

    /// Builder-style: injects a panic at the given morsel index.
    #[must_use]
    pub fn with_panic_morsel(mut self, morsel: u64) -> MorselExec {
        self.panic_morsel = Some(morsel);
        self
    }
}

/// Counters collected by one scan, identical across worker counts.
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

/// The morsel ranges covering `0..units`, in order.
pub fn morsel_ranges(units: usize) -> Vec<Range<usize>> {
    (0..units)
        .step_by(MORSEL_ROWS)
        .map(|start| start..(start + MORSEL_ROWS).min(units))
        .collect()
}

/// Runs one morsel under panic containment, returning its rows and metrics
/// or a [`Error::WorkerPanicked`] naming the morsel.
fn run_one<T, F>(
    index: usize,
    range: Range<usize>,
    exec: MorselExec,
    scan: &F,
) -> Result<(Vec<T>, ScanMetrics)>
where
    F: Fn(Range<usize>, &mut Vec<T>, &mut ScanMetrics) + Sync,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        if exec.panic_morsel == Some(index as u64) {
            panic!("injected fault: morsel {index}");
        }
        let mut rows = Vec::new();
        let mut m = ScanMetrics::default();
        scan(range, &mut rows, &mut m);
        (rows, m)
    }));
    result.map_err(|payload| Error::WorkerPanicked {
        morsel: index as u64,
        message: panic_message(payload.as_ref()),
    })
}

/// Runs `scan` over every morsel range covering `0..units`, per the
/// [`MorselExec`] config, and returns the concatenated rows plus merged
/// metrics.
///
/// `scan` is invoked once per morsel with a fresh output buffer and metrics;
/// results are concatenated in morsel order, so the returned row vector is
/// identical for every worker count. With one worker (or a single morsel) no
/// threads are spawned and the morsels run inline, in order.
///
/// A panic inside any morsel (including one injected via
/// [`MorselExec::panic_morsel`]) aborts the scan with
/// [`Error::WorkerPanicked`]; remaining morsels are not dispatched, already
/// running ones finish, and the thread scope unwinds cleanly.
pub fn run_morsels<T, F>(units: usize, exec: MorselExec, scan: F) -> Result<(Vec<T>, ScanMetrics)>
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>, &mut ScanMetrics) + Sync,
{
    let morsels = morsel_ranges(units);
    let mut metrics = ScanMetrics {
        morsels: morsels.len() as u64,
        ..ScanMetrics::default()
    };
    let workers = exec.workers.max(1).min(morsels.len().max(1));
    // Worker threads never record (their thread-local recorders stay
    // disabled); this span on the coordinating thread times the whole
    // dispatch, so traces are identical for every worker count.
    let mut morsel_span = obs::span("exec", "run_morsels");
    morsel_span.arg_with("morsels", || morsels.len().to_string());
    morsel_span.arg_with("workers", || workers.to_string());

    if workers == 1 {
        let mut rows = Vec::new();
        for (i, range) in morsels.into_iter().enumerate() {
            let (mut chunk, m) = run_one(i, range, exec, &scan)?;
            rows.append(&mut chunk);
            metrics.merge(&m);
        }
        // Inline metrics count dispatched morsels only on success; on the
        // error path above the whole scan is discarded anyway.
        return Ok((rows, metrics));
    }

    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<(u64, Error)>> = Mutex::new(None);
    let drain = |produced: &mut Vec<(usize, Vec<T>, ScanMetrics)>| loop {
        if poisoned.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(range) = morsels.get(i) else { break };
        match run_one(i, range.clone(), exec, &scan) {
            Ok((rows, m)) => produced.push((i, rows, m)),
            Err(e) => {
                poisoned.store(true, Ordering::Relaxed);
                let mut slot = first_panic.lock().unwrap_or_else(|p| p.into_inner());
                // Keep the lowest-index panic so the reported morsel is
                // deterministic even when several workers trip at once.
                let replace = match slot.as_ref() {
                    None => true,
                    Some((idx, _)) => (i as u64) < *idx,
                };
                if replace {
                    *slot = Some((i as u64, e));
                }
            }
        }
    };
    // The calling thread participates as a worker, so only `workers - 1`
    // threads are spawned — at two workers that halves the dispatch cost.
    let mut done: Vec<(usize, Vec<T>, ScanMetrics)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut produced = Vec::new();
                    drain(&mut produced);
                    produced
                })
            })
            .collect();
        let mut all = Vec::new();
        drain(&mut all);
        for h in handles {
            // Workers never unwind (morsel bodies are caught), but stay
            // defensive: fold an unexpected worker death into the error.
            match h.join() {
                Ok(produced) => all.extend(produced),
                Err(payload) => {
                    poisoned.store(true, Ordering::Relaxed);
                    let mut slot = first_panic.lock().unwrap_or_else(|p| p.into_inner());
                    if slot.is_none() {
                        *slot = Some((
                            u64::MAX,
                            Error::WorkerPanicked {
                                morsel: u64::MAX,
                                message: panic_message(payload.as_ref()),
                            },
                        ));
                    }
                }
            }
        }
        all
    });

    if let Some((_, e)) = first_panic.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }

    done.sort_unstable_by_key(|(i, _, _)| *i);
    let mut rows = Vec::with_capacity(done.iter().map(|(_, r, _)| r.len()).sum());
    for (_, mut chunk, m) in done {
        rows.append(&mut chunk);
        metrics.merge(&m);
    }
    Ok((rows, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic scan emitting every even unit in the range.
    fn evens(range: Range<usize>, out: &mut Vec<usize>, m: &mut ScanMetrics) {
        for u in range {
            m.rows_visited += 1;
            if u % 2 == 0 {
                out.push(u);
            } else {
                m.versions_pruned += 1;
            }
        }
    }

    #[test]
    fn ranges_tile_the_unit_space() {
        assert!(morsel_ranges(0).is_empty());
        assert_eq!(morsel_ranges(1), vec![0..1]);
        assert_eq!(morsel_ranges(MORSEL_ROWS), vec![0..MORSEL_ROWS]);
        let r = morsel_ranges(MORSEL_ROWS * 2 + 5);
        assert_eq!(r.len(), 3);
        assert_eq!(r[2], MORSEL_ROWS * 2..MORSEL_ROWS * 2 + 5);
    }

    #[test]
    fn parallel_matches_sequential_rows_and_metrics() {
        let units = MORSEL_ROWS * 7 + 123;
        let (seq_rows, seq_m) = run_morsels(units, MorselExec::workers(1), evens).unwrap();
        for workers in [2, 4, 16] {
            let (par_rows, par_m) =
                run_morsels(units, MorselExec::workers(workers), evens).unwrap();
            assert_eq!(par_rows, seq_rows, "workers={workers}");
            assert_eq!(par_m, seq_m, "workers={workers}");
        }
        assert_eq!(seq_m.morsels, 8);
        assert_eq!(seq_m.rows_visited, units as u64);
        assert_eq!(seq_rows.len(), units.div_ceil(2));
    }

    #[test]
    fn small_input_and_zero_workers_run_inline() {
        let (rows, m) = run_morsels(10, MorselExec::workers(0), evens).unwrap();
        assert_eq!(rows, vec![0, 2, 4, 6, 8]);
        assert_eq!(m.morsels, 1);
        let (rows, m) = run_morsels(0, MorselExec::workers(4), evens).unwrap();
        assert!(rows.is_empty());
        assert_eq!(m.morsels, 0);
    }

    #[test]
    fn injected_panic_is_contained_inline() {
        let units = MORSEL_ROWS * 3;
        let exec = MorselExec::workers(1).with_panic_morsel(1);
        let err = run_morsels(units, exec, evens).unwrap_err();
        assert_eq!(
            err,
            Error::WorkerPanicked {
                morsel: 1,
                message: "injected fault: morsel 1".into(),
            }
        );
    }

    #[test]
    fn injected_panic_is_contained_parallel() {
        let units = MORSEL_ROWS * 8 + 17;
        for workers in [2, 4] {
            let exec = MorselExec::workers(workers).with_panic_morsel(3);
            let err = run_morsels(units, exec, evens).unwrap_err();
            match err {
                Error::WorkerPanicked { morsel, message } => {
                    assert_eq!(morsel, 3, "workers={workers}");
                    assert_eq!(message, "injected fault: morsel 3");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn scan_panic_is_contained_too() {
        let bomb = |range: Range<usize>, out: &mut Vec<usize>, _m: &mut ScanMetrics| {
            if range.start >= MORSEL_ROWS * 2 {
                panic!("scan bug at {}", range.start);
            }
            out.extend(range);
        };
        let err = run_morsels(MORSEL_ROWS * 4, MorselExec::workers(2), bomb).unwrap_err();
        match err {
            Error::WorkerPanicked { morsel, message } => {
                assert!(morsel >= 2);
                assert!(message.starts_with("scan bug at "));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn scan_succeeds_after_failed_attempt() {
        let units = MORSEL_ROWS * 2;
        let exec = MorselExec::workers(2).with_panic_morsel(0);
        assert!(run_morsels(units, exec, evens).is_err());
        // The same scan with the fault cleared recovers fully.
        let (rows, _) = run_morsels(units, MorselExec::workers(2), evens).unwrap();
        assert_eq!(rows.len(), units / 2);
    }
}
