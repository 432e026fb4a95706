//! Property-based tests of the temporal algebra and temporal operators.

use bitempo_core::{AppDate, AppPeriod, Period, Row, Value};
use bitempo_engine::sequenced::split_for_portion;
use bitempo_query::expr::col;
use bitempo_query::{temporal_aggregate, temporal_aggregate_naive, temporal_join};
use proptest::prelude::*;

fn p(a: i64, b: i64) -> AppPeriod {
    Period::new(AppDate(a.min(b)), AppDate(a.max(b) + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Period algebra: intersection is the overlap witness, difference plus
    /// intersection tile the original period exactly.
    #[test]
    fn period_algebra_laws(a in (0i64..100, 0i64..100), b in (0i64..100, 0i64..100)) {
        let x = p(a.0, a.1);
        let y = p(b.0, b.1);
        // Overlap ⇔ non-empty intersection.
        prop_assert_eq!(x.overlaps(&y), x.intersect(&y).is_some());
        // Intersection is symmetric and contained in both.
        prop_assert_eq!(x.intersect(&y), y.intersect(&x));
        if let Some(ix) = x.intersect(&y) {
            prop_assert!(x.contains_period(&ix));
            prop_assert!(y.contains_period(&ix));
        }
        // difference(x, y) ∪ intersect(x, y) tiles x with no overlap.
        let (left, right) = x.difference(&y);
        let mut pieces: Vec<AppPeriod> = [left, right].into_iter().flatten().collect();
        if let Some(ix) = x.intersect(&y) {
            pieces.push(ix);
        }
        pieces.sort_by_key(|q| q.start);
        let total: i64 = pieces.iter().map(|q| q.end.0 - q.start.0).sum();
        prop_assert_eq!(total, x.end.0 - x.start.0);
        for w in pieces.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    /// Portion splitting is exactly the difference/intersection tiling.
    #[test]
    fn split_tiles_exactly(v in (0i64..100, 0i64..100), portion in (0i64..100, 0i64..100)) {
        let version = p(v.0, v.1);
        let portion = p(portion.0, portion.1);
        match split_for_portion(version, portion) {
            None => prop_assert!(!version.overlaps(&portion)),
            Some(split) => {
                prop_assert!(version.contains_period(&split.affected));
                prop_assert!(portion.contains_period(&split.affected));
                let mut pieces = split.residues.clone();
                pieces.push(split.affected);
                let total: i64 = pieces.iter().map(|q| q.end.0 - q.start.0).sum();
                prop_assert_eq!(total, version.end.0 - version.start.0);
                for r in &split.residues {
                    prop_assert!(!r.overlaps(&portion));
                }
            }
        }
    }

    /// The event-sweep temporal aggregation agrees with the naive SQL:2011
    /// boundary formulation on arbitrary interval sets (integer values keep
    /// floating point exact).
    #[test]
    fn sweep_equals_naive_aggregation(
        intervals in proptest::collection::vec((0i64..80, 1i64..30, 1i64..50), 0..60),
    ) {
        let rows: Vec<Row> = intervals
            .iter()
            .map(|(s, len, v)| {
                Row::new(vec![
                    Value::Int(*v),
                    Value::Date(AppDate(*s)),
                    Value::Date(AppDate(s + len)),
                ])
            })
            .collect();
        let (sweep, _) = temporal_aggregate(&rows, 1, 2, &col(0)).unwrap();
        let (naive, _) = temporal_aggregate_naive(&rows, 1, 2, &col(0)).unwrap();
        prop_assert_eq!(sweep, naive);
    }

    /// Temporal aggregation conservation: the time-weighted sum over the
    /// output intervals equals the sum of value × duration over the input.
    #[test]
    fn aggregation_conserves_mass(
        intervals in proptest::collection::vec((0i64..80, 1i64..30, 1i64..50), 1..60),
    ) {
        let rows: Vec<Row> = intervals
            .iter()
            .map(|(s, len, v)| {
                Row::new(vec![
                    Value::Int(*v),
                    Value::Date(AppDate(*s)),
                    Value::Date(AppDate(s + len)),
                ])
            })
            .collect();
        let (out, _) = temporal_aggregate(&rows, 1, 2, &col(0)).unwrap();
        let output_mass: f64 = out
            .iter()
            .map(|r| {
                let s = r.get(0).as_date().unwrap().0;
                let e = r.get(1).as_date().unwrap().0;
                r.get(2).as_double().unwrap() * (e - s) as f64
            })
            .sum();
        let input_mass: f64 = intervals
            .iter()
            .map(|(_, len, v)| (*v * *len) as f64)
            .sum();
        prop_assert!((output_mass - input_mass).abs() < 1e-6,
            "mass {} vs {}", output_mass, input_mass);
    }

    /// Temporal join output periods are exactly the pairwise intersections.
    #[test]
    fn temporal_join_is_overlap_semantics(
        left in proptest::collection::vec((0i64..5, 0i64..40, 1i64..20), 0..30),
        right in proptest::collection::vec((0i64..5, 0i64..40, 1i64..20), 0..30),
    ) {
        let mk = |items: &[(i64, i64, i64)]| -> Vec<Row> {
            items
                .iter()
                .map(|(k, s, len)| {
                    Row::new(vec![
                        Value::Int(*k),
                        Value::Date(AppDate(*s)),
                        Value::Date(AppDate(s + len)),
                    ])
                })
                .collect()
        };
        let l = mk(&left);
        let r = mk(&right);
        let joined = temporal_join(&l, &r, &[0], &[0], (1, 2), (1, 2));
        // Brute-force expected count.
        let mut expected = 0usize;
        for (lk, ls, ll) in &left {
            for (rk, rs, rl) in &right {
                if lk == rk && ls < &(rs + rl) && rs < &(ls + ll) {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(joined.len(), expected);
        for row in &joined {
            // Appended intersection is non-empty and inside both periods.
            let n = row.arity();
            let (is_, ie) = (row.get(n - 2).as_date().unwrap(), row.get(n - 1).as_date().unwrap());
            prop_assert!(is_ < ie);
            let ls = row.get(1).as_date().unwrap();
            let le = row.get(2).as_date().unwrap();
            let rs = row.get(4).as_date().unwrap();
            let re = row.get(5).as_date().unwrap();
            prop_assert!(is_ >= ls.max(rs));
            prop_assert!(ie <= le.min(re));
        }
    }
}
