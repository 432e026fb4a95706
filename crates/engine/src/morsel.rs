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
//! panicking morsel instead of tearing down the thread scope. The tests here
//! and in [`crate::rowscan`] drive that path with scan bodies that panic.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use bitempo_core::fault::panic_message;
use bitempo_core::{obs, Error, Result};

pub use bitempo_core::obs::ScanMetrics;

/// Rows per morsel. Small enough to load-balance skewed partitions, large
/// enough that the per-morsel dispatch cost is negligible; partitions below
/// this size never spawn threads.
pub const MORSEL_ROWS: usize = 1024;

/// The morsel ranges covering `0..units`, in order.
pub fn morsel_ranges(units: usize) -> Vec<Range<usize>> {
    (0..units)
        .step_by(MORSEL_ROWS)
        .map(|start| start..(start + MORSEL_ROWS).min(units))
        .collect()
}

/// Runs morsel `index` of `scan` under panic containment, appending its
/// rows to `rows`: its metrics, or a [`Error::WorkerPanicked`] naming the
/// morsel.
fn run_one<T, F>(
    index: usize,
    range: Range<usize>,
    scan: &F,
    rows: &mut Vec<T>,
) -> Result<ScanMetrics>
where
    F: Fn(Range<usize>, &mut Vec<T>, &mut ScanMetrics) + Sync,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut m = ScanMetrics::default();
        scan(range, rows, &mut m);
        m
    }));
    result.map_err(|payload| Error::WorkerPanicked {
        morsel: index as u64,
        message: panic_message(payload.as_ref()),
    })
}

/// Runs `scan` over every morsel range covering `0..units` on `workers`
/// threads (the calling thread included; `<= 1` runs inline), appends the
/// rows to `out` and returns the merged metrics.
///
/// `scan` is invoked once per morsel with fresh metrics and an output
/// buffer it appends to; results are appended in morsel order, so `out`
/// ends identical for every worker count. With one worker (or a single
/// morsel) no threads are spawned and the morsels run inline, in order,
/// appending straight to `out`.
///
/// A panic inside any morsel aborts the scan with
/// [`Error::WorkerPanicked`] and leaves `out` as it was; remaining morsels
/// are not dispatched, already running ones finish, and the thread scope
/// unwinds cleanly.
pub fn run_morsels<T, F>(
    units: usize,
    workers: usize,
    out: &mut Vec<T>,
    scan: F,
) -> Result<ScanMetrics>
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>, &mut ScanMetrics) + Sync,
{
    let morsels = morsel_ranges(units);
    let mut metrics = ScanMetrics {
        morsels: morsels.len() as u64,
        ..ScanMetrics::default()
    };
    let workers = workers.max(1).min(morsels.len().max(1));
    // Worker threads never record (their thread-local recorders stay
    // disabled); this span on the coordinating thread times the whole
    // dispatch, so traces are identical for every worker count.
    let mut morsel_span = obs::span("exec", "run_morsels");
    morsel_span.arg_with("morsels", || morsels.len().to_string());
    morsel_span.arg_with("workers", || workers.to_string());

    if workers == 1 {
        let before = out.len();
        for (i, range) in morsels.into_iter().enumerate() {
            match run_one(i, range, &scan, out) {
                Ok(m) => metrics.merge(&m),
                Err(e) => {
                    out.truncate(before);
                    return Err(e);
                }
            }
        }
        return Ok(metrics);
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
        let mut rows = Vec::new();
        match run_one(i, range.clone(), &scan, &mut rows) {
            Ok(m) => produced.push((i, rows, m)),
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
    out.reserve(done.iter().map(|(_, r, _)| r.len()).sum());
    for (_, mut chunk, m) in done {
        out.append(&mut chunk);
        metrics.merge(&m);
    }
    Ok(metrics)
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

    /// [`run_morsels`] into a fresh buffer: the rows and the metrics.
    fn run<F>(units: usize, workers: usize, scan: F) -> Result<(Vec<usize>, ScanMetrics)>
    where
        F: Fn(Range<usize>, &mut Vec<usize>, &mut ScanMetrics) + Sync,
    {
        let mut rows = Vec::new();
        let m = run_morsels(units, workers, &mut rows, scan)?;
        Ok((rows, m))
    }

    /// [`evens`], except that the morsel at index `i` panics.
    fn panics_at(i: usize) -> impl Fn(Range<usize>, &mut Vec<usize>, &mut ScanMetrics) + Sync {
        move |range, out, m| {
            if range.start == i * MORSEL_ROWS {
                panic!("injected fault: morsel {i}");
            }
            evens(range, out, m);
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
        let (seq_rows, seq_m) = run(units, 1, evens).unwrap();
        for workers in [2, 4, 16] {
            let (par_rows, par_m) = run(units, workers, evens).unwrap();
            assert_eq!(par_rows, seq_rows, "workers={workers}");
            assert_eq!(par_m, seq_m, "workers={workers}");
        }
        assert_eq!(seq_m.morsels, 8);
        assert_eq!(seq_m.rows_visited, units as u64);
        assert_eq!(seq_rows.len(), units.div_ceil(2));
    }

    #[test]
    fn small_input_and_zero_workers_run_inline() {
        let (rows, m) = run(10, 0, evens).unwrap();
        assert_eq!(rows, vec![0, 2, 4, 6, 8]);
        assert_eq!(m.morsels, 1);
        let (rows, m) = run(0, 4, evens).unwrap();
        assert!(rows.is_empty());
        assert_eq!(m.morsels, 0);
    }

    #[test]
    fn injected_panic_is_contained_inline() {
        let units = MORSEL_ROWS * 3;
        let err = run(units, 1, panics_at(1)).unwrap_err();
        assert_eq!(
            err,
            Error::WorkerPanicked {
                morsel: 1,
                message: "injected fault: morsel 1".into(),
            }
        );
    }

    #[test]
    fn a_failed_scan_leaves_the_output_as_it_was() {
        let units = MORSEL_ROWS * 3;
        for workers in [1, 2] {
            let mut out = vec![7, 9];
            assert!(run_morsels(units, workers, &mut out, panics_at(2)).is_err());
            assert_eq!(out, [7, 9], "workers={workers}");
            let m = run_morsels(units, workers, &mut out, evens).unwrap();
            assert_eq!(out.len(), 2 + units / 2, "workers={workers}");
            assert_eq!((out[2], m.rows_visited), (0, units as u64));
        }
    }

    #[test]
    fn injected_panic_is_contained_parallel() {
        let units = MORSEL_ROWS * 8 + 17;
        for workers in [2, 4] {
            let err = run(units, workers, panics_at(3)).unwrap_err();
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
        let err = run(MORSEL_ROWS * 4, 2, bomb).unwrap_err();
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
        assert!(run(units, 2, panics_at(0)).is_err());
        // The same scan without the fault recovers fully.
        let (rows, _) = run(units, 2, evens).unwrap();
        assert_eq!(rows.len(), units / 2);
    }
}
