//! Temporal operators — implemented as the SQL:2011 workarounds the paper
//! measured, plus the efficient algorithms the literature proposes.
//!
//! SQL:2011 has no temporal aggregation or temporal join (paper §3.3, R3:
//! "a rather costly join over the time interval boundaries followed by a
//! grouping on these points"). We provide both formulations so the
//! benchmark can show the gap:
//!
//! * [`temporal_aggregate_naive`] — the boundary-points self-join the
//!   systems actually execute: O(boundaries × rows). This reproduces
//!   Fig 14's "more than two orders of magnitude more expensive than a full
//!   access to the history".
//! * [`temporal_aggregate`] — the event-sweep algorithm (cf. the Timeline
//!   Index line of work the paper cites): O(n log n).
//! * [`temporal_join`] — value equi-join with period-overlap correlation
//!   (R5), returning the intersection period.
//! * [`version_delta`] — consecutive-version pairing along system time
//!   (R7, K4/K5).

use bitempo_core::{obs, Result, Row, Value};
use std::cell::Cell;
use std::collections::HashMap;

/// Reads a period column pair `(start, end)` as orderable values.
fn period_of(row: &Row, start_col: usize, end_col: usize) -> (Value, Value) {
    (row.get(start_col).clone(), row.get(end_col).clone())
}

/// Temporal aggregation by event sweep: for every elementary interval
/// between consecutive period boundaries, outputs
/// `(interval_start, interval_end, SUM(value), COUNT(*))` over the rows
/// whose `[start_col, end_col)` period covers the interval. Intervals with
/// no covering rows are omitted (the paper's definition: "a new result row
/// for each timestamp where data changed").
///
/// Returns the rows with the operator's *work counter*: the number of
/// elementary steps taken (event construction, sort comparisons, sweep
/// iterations). The counter exists so tests can prove the sweep is
/// O(n log n) — the regression the naive formulation fell into was
/// invisible to output-equivalence tests alone.
pub fn temporal_aggregate(
    rows: &[Row],
    start_col: usize,
    end_col: usize,
    value: &crate::Expr,
) -> Result<(Vec<Row>, u64)> {
    let _span = obs::span("temporal", "temporal_aggregate");
    // Event list: +value at start, -value at end.
    let mut events: Vec<(Value, f64, i64)> = Vec::with_capacity(rows.len() * 2);
    for row in rows {
        let (start, end) = period_of(row, start_col, end_col);
        if start >= end {
            continue;
        }
        let v = value.eval(row)?;
        let x = if v.is_null() { 0.0 } else { v.as_double()? };
        events.push((start, x, 1));
        events.push((end, -x, -1));
    }
    let mut work = events.len() as u64;
    let comparisons = Cell::new(0u64);
    events.sort_by(|a, b| {
        comparisons.set(comparisons.get() + 1);
        a.0.cmp(&b.0)
    });
    work += comparisons.get();
    let mut out = Vec::new();
    let mut sum = 0.0;
    let mut count: i64 = 0;
    let mut i = 0;
    while i < events.len() {
        let boundary = events[i].0.clone();
        while i < events.len() && events[i].0 == boundary {
            sum += events[i].1;
            count += events[i].2;
            i += 1;
            work += 1;
        }
        if i < events.len() && count > 0 {
            out.push(Row::new(vec![
                boundary,
                events[i].0.clone(),
                Value::Double(sum),
                Value::Int(count),
            ]));
        }
    }
    Ok((out, work))
}

/// The naive SQL:2011 formulation: collect all distinct boundary points,
/// then for each point rescan the whole input to aggregate the covering
/// rows — the plan shape the paper's systems produced for R3.
///
/// Returns the rows with the work counter (rows rescanned per boundary
/// window) — the quadratic witness the linearithmic-bound test compares
/// against.
pub fn temporal_aggregate_naive(
    rows: &[Row],
    start_col: usize,
    end_col: usize,
    value: &crate::Expr,
) -> Result<(Vec<Row>, u64)> {
    let _span = obs::span("temporal", "temporal_aggregate_naive");
    let mut boundaries: Vec<Value> = Vec::with_capacity(rows.len() * 2);
    for row in rows {
        let (s, e) = period_of(row, start_col, end_col);
        boundaries.push(s);
        boundaries.push(e);
    }
    boundaries.sort();
    boundaries.dedup();
    let mut work = 0u64;
    let mut out = Vec::new();
    for w in boundaries.windows(2) {
        let (point, next) = (&w[0], &w[1]);
        let mut sum = 0.0;
        let mut count: i64 = 0;
        for row in rows {
            work += 1;
            let (s, e) = period_of(row, start_col, end_col);
            if s <= *point && *point < e {
                let v = value.eval(row)?;
                if !v.is_null() {
                    sum += v.as_double()?;
                }
                count += 1;
            }
        }
        if count > 0 {
            out.push(Row::new(vec![
                point.clone(),
                next.clone(),
                Value::Double(sum),
                Value::Int(count),
            ]));
        }
    }
    Ok((out, work))
}

/// Temporal join: equi-join on `(left_keys, right_keys)` where the two
/// periods overlap. Output: left row ++ right row ++ intersection start ++
/// intersection end.
pub fn temporal_join(
    left: &[Row],
    right: &[Row],
    left_keys: &[usize],
    right_keys: &[usize],
    left_period: (usize, usize),
    right_period: (usize, usize),
) -> Vec<Row> {
    let mut span = obs::span("temporal", "temporal_join");
    // Keys are borrowed, not cloned — the hash table only lives for the
    // duration of the join, so `Vec<&Value>` avoids a deep clone per row.
    let mut table: HashMap<Vec<&Value>, Vec<&Row>> = HashMap::with_capacity(right.len());
    for row in right {
        let key: Vec<&Value> = right_keys.iter().map(|&c| row.get(c)).collect();
        table.entry(key).or_default().push(row);
    }
    let mut out = Vec::new();
    for lrow in left {
        let key: Vec<&Value> = left_keys.iter().map(|&c| lrow.get(c)).collect();
        let Some(candidates) = table.get(&key) else {
            continue;
        };
        let (ls, le) = (lrow.get(left_period.0), lrow.get(left_period.1));
        for rrow in candidates {
            let (rs, re) = (rrow.get(right_period.0), rrow.get(right_period.1));
            // Intersection test on borrowed endpoints *before* any
            // materialization: non-overlapping (and empty, `start >= end`)
            // intersections allocate nothing.
            let start = if ls >= rs { ls } else { rs };
            let end = if le <= re { le } else { re };
            if start < end {
                let mut values = Vec::with_capacity(lrow.arity() + rrow.arity() + 2);
                values.extend_from_slice(lrow.values());
                values.extend_from_slice(rrow.values());
                values.push(start.clone());
                values.push(end.clone());
                out.push(Row::new(values));
            }
        }
    }
    span.arg_with("rows", || out.len().to_string());
    out
}

/// Pairs each version with its immediate predecessor along `order_col`
/// (typically `sys_start`) within the same key. Output: previous row ++
/// next row. This generalizes K4/K5's "previous version" retrieval to all
/// keys, as R7 requires.
pub fn version_delta(rows: &[Row], key_cols: &[usize], order_col: usize) -> Vec<Row> {
    let _span = obs::span("temporal", "version_delta");
    let mut chains: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = key_cols.iter().map(|&c| row.get(c).clone()).collect();
        chains.entry(key).or_default().push(row);
    }
    let mut keys: Vec<&Vec<Value>> = chains.keys().collect();
    keys.sort();
    let mut out = Vec::new();
    for key in keys {
        let chain = &chains[key];
        let mut ordered: Vec<&&Row> = chain.iter().collect();
        ordered.sort_by(|a, b| a.get(order_col).cmp(b.get(order_col)));
        for w in ordered.windows(2) {
            out.push(w[0].concat(w[1]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use bitempo_core::AppDate;

    /// Rows: (id, value, start, end).
    fn interval_rows() -> Vec<Row> {
        let r = |id: i64, v: f64, s: i64, e: i64| {
            Row::new(vec![
                Value::Int(id),
                Value::Double(v),
                Value::Date(AppDate(s)),
                Value::Date(AppDate(e)),
            ])
        };
        vec![r(1, 10.0, 0, 10), r(2, 20.0, 5, 15), r(3, 40.0, 10, 20)]
    }

    #[test]
    fn sweep_aggregation() {
        let rows = interval_rows();
        let out = temporal_aggregate(&rows, 2, 3, &col(1)).unwrap().0;
        // Elementary intervals: [0,5) sum 10, [5,10) sum 30, [10,15) sum 60,
        // [15,20) sum 40.
        assert_eq!(out.len(), 4);
        let sums: Vec<f64> = out.iter().map(|r| r.get(2).as_double().unwrap()).collect();
        assert_eq!(sums, vec![10.0, 30.0, 60.0, 40.0]);
        let counts: Vec<i64> = out.iter().map(|r| r.get(3).as_int().unwrap()).collect();
        assert_eq!(counts, vec![1, 2, 2, 1]);
        assert_eq!(out[0].get(0), &Value::Date(AppDate(0)));
        assert_eq!(out[0].get(1), &Value::Date(AppDate(5)));
    }

    #[test]
    fn naive_matches_sweep() {
        let rows = interval_rows();
        let sweep = temporal_aggregate(&rows, 2, 3, &col(1)).unwrap().0;
        let naive = temporal_aggregate_naive(&rows, 2, 3, &col(1)).unwrap().0;
        assert_eq!(sweep, naive);
    }

    #[test]
    fn naive_matches_sweep_randomized() {
        let mut rng = bitempo_core::Pcg32::new(5, 5);
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                let s = rng.int_range(0, 500);
                let e = s + rng.int_range(1, 100);
                Row::new(vec![
                    Value::Int(i),
                    Value::Double(rng.int_range(1, 100) as f64),
                    Value::Date(AppDate(s)),
                    Value::Date(AppDate(e)),
                ])
            })
            .collect();
        let sweep = temporal_aggregate(&rows, 2, 3, &col(1)).unwrap().0;
        let naive = temporal_aggregate_naive(&rows, 2, 3, &col(1)).unwrap().0;
        assert_eq!(sweep, naive);
    }

    #[test]
    fn sweep_is_linearithmic_naive_is_quadratic() {
        // Randomized input, large enough that the asymptotic gap is
        // unambiguous: the sweep's counted work must stay within a
        // linearithmic bound while the naive formulation provably does
        // Ω(n²) row visits. Output equivalence is asserted on the same run.
        let n: u64 = 1000;
        let mut rng = bitempo_core::Pcg32::new(11, 7);
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| {
                let s = rng.int_range(0, 2000);
                let e = s + rng.int_range(1, 200);
                Row::new(vec![
                    Value::Int(i),
                    Value::Double(rng.int_range(1, 100) as f64),
                    Value::Date(AppDate(s)),
                    Value::Date(AppDate(e)),
                ])
            })
            .collect();
        let (sweep, sweep_work) = temporal_aggregate(&rows, 2, 3, &col(1)).unwrap();
        let (naive, naive_work) = temporal_aggregate_naive(&rows, 2, 3, &col(1)).unwrap();
        assert_eq!(sweep, naive, "same answer from both formulations");

        // 2n events; sort comparisons + construction + sweep iterations
        // must stay within C·m·log2(m), m = 2n, with generous C = 4.
        let m = 2 * n;
        let bound = 4 * m * (u64::BITS - m.leading_zeros()) as u64;
        assert!(
            sweep_work <= bound,
            "sweep work {sweep_work} exceeds linearithmic bound {bound}"
        );
        // The naive plan rescans all n rows for ~2n-1 boundary windows.
        assert!(
            naive_work >= n * n / 8,
            "naive work {naive_work} unexpectedly below quadratic floor"
        );
        assert!(
            naive_work > 8 * sweep_work,
            "sweep ({sweep_work}) must beat naive ({naive_work}) by a wide margin"
        );
    }

    #[test]
    fn empty_and_degenerate_periods() {
        assert!(temporal_aggregate(&[], 2, 3, &col(1)).unwrap().0.is_empty());
        let degenerate = vec![Row::new(vec![
            Value::Int(1),
            Value::Double(5.0),
            Value::Date(AppDate(3)),
            Value::Date(AppDate(3)),
        ])];
        assert!(
            temporal_aggregate(&degenerate, 2, 3, &col(1))
                .unwrap()
                .0
                .is_empty(),
            "empty periods contribute nothing"
        );
    }

    #[test]
    fn overlap_join() {
        // left: (key, start, end); right: (key, start, end).
        let l = |k: i64, s: i64, e: i64| {
            Row::new(vec![
                Value::Int(k),
                Value::Date(AppDate(s)),
                Value::Date(AppDate(e)),
            ])
        };
        let left = vec![l(1, 0, 10), l(2, 0, 10)];
        let right = vec![l(1, 5, 15), l(1, 20, 30), l(3, 0, 10)];
        let out = temporal_join(&left, &right, &[0], &[0], (1, 2), (1, 2));
        assert_eq!(out.len(), 1, "only key 1 with overlapping periods");
        let row = &out[0];
        assert_eq!(row.arity(), 8);
        assert_eq!(row.get(6), &Value::Date(AppDate(5)), "intersection start");
        assert_eq!(row.get(7), &Value::Date(AppDate(10)), "intersection end");
    }

    #[test]
    fn join_meeting_periods_produce_no_row() {
        // [1,5) ⋈ [5,9): the periods *meet* but do not overlap — the
        // intersection [5,5) is empty and must yield no output row (and,
        // since the test is hoisted before materialization, no allocation).
        let l = |k: i64, s: i64, e: i64| {
            Row::new(vec![
                Value::Int(k),
                Value::Date(AppDate(s)),
                Value::Date(AppDate(e)),
            ])
        };
        let left = vec![l(1, 1, 5)];
        let right = vec![l(1, 5, 9)];
        let out = temporal_join(&left, &right, &[0], &[0], (1, 2), (1, 2));
        assert!(out.is_empty(), "meeting periods have an empty intersection");
        // Flipped operands too.
        let out = temporal_join(&right, &left, &[0], &[0], (1, 2), (1, 2));
        assert!(out.is_empty());
    }

    /// §5.6.2: the SQL:2011 workaround's output is not coalesced. Two
    /// meeting periods with equal sums stay two rows in both formulations.
    #[test]
    fn sweep_keeps_adjacent_equal_intervals_apart() {
        let r = |id: i64, s: i64, e: i64| {
            Row::new(vec![
                Value::Int(id),
                Value::Double(10.0),
                Value::Date(AppDate(s)),
                Value::Date(AppDate(e)),
            ])
        };
        let rows = vec![r(1, 0, 5), r(2, 5, 10)];
        let sweep = temporal_aggregate(&rows, 2, 3, &col(1)).unwrap().0;
        let naive = temporal_aggregate_naive(&rows, 2, 3, &col(1)).unwrap().0;
        for out in [sweep, naive] {
            assert_eq!(out.len(), 2, "[0,5) and [5,10) are not merged: {out:?}");
            for row in &out {
                assert_eq!(row.get(2), &Value::Double(10.0));
            }
        }
    }

    /// §5.6.2: a temporal join returns one row per overlapping pair, so a
    /// left period split across two right versions yields two intersections.
    #[test]
    fn join_returns_one_row_per_overlapping_pair() {
        let l = |k: i64, s: i64, e: i64| {
            Row::new(vec![
                Value::Int(k),
                Value::Date(AppDate(s)),
                Value::Date(AppDate(e)),
            ])
        };
        let left = vec![l(1, 0, 10)];
        let right = vec![l(1, 0, 5), l(1, 5, 10)];
        let out = temporal_join(&left, &right, &[0], &[0], (1, 2), (1, 2));
        let mut periods: Vec<(&Value, &Value)> = out.iter().map(|r| (r.get(6), r.get(7))).collect();
        periods.sort();
        let d = |x| Value::Date(AppDate(x));
        assert_eq!(periods, [(&d(0), &d(5)), (&d(5), &d(10))], "not one [0,10)");
    }

    #[test]
    fn version_deltas() {
        // (key, price, sys_start)
        let v =
            |k: i64, p: f64, t: i64| Row::new(vec![Value::Int(k), Value::Double(p), Value::Int(t)]);
        let rows = vec![v(1, 100.0, 1), v(1, 110.0, 5), v(1, 90.0, 9), v(2, 50.0, 2)];
        let out = version_delta(&rows, &[0], 2);
        assert_eq!(out.len(), 2, "two consecutive pairs for key 1, none for 2");
        assert_eq!(out[0].get(1), &Value::Double(100.0));
        assert_eq!(out[0].get(4), &Value::Double(110.0));
        assert_eq!(out[1].get(1), &Value::Double(110.0));
        assert_eq!(out[1].get(4), &Value::Double(90.0));
    }
}
