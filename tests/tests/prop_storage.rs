//! Property-based tests for the storage substrate: the flat-key B+Tree against
//! a sorted multimap at every arity the engines use, the R-Tree against a
//! linear scan, and the columnar store against a row-store model.

use bitempo_core::{AppDate, Row, SysTime, Value};
use bitempo_core::{Column, DataType, Schema};
use bitempo_storage::{BPlusTree, ColumnTable, RTree, Rect};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Trailing mixed-radix digits of a model key at each arity: the cells of
/// `k` are its digits, leading digit unbounded, so cell order is `k` order.
const RADIX: [&[i64]; 3] = [&[], &[10], &[4, 5]];

/// The `arity` cells of model key `k`.
fn cells(k: i64, arity: usize) -> Vec<i64> {
    let mut out = vec![0; arity];
    let mut rest = k;
    for (i, radix) in RADIX[arity - 1].iter().enumerate().rev() {
        out[i + 1] = rest % radix;
        rest /= radix;
    }
    out[0] = rest;
    out
}

/// The smallest model key sharing its first `prefix` cells with `k`.
fn prefix_floor(k: i64, arity: usize, prefix: usize) -> i64 {
    let span: i64 = RADIX[arity - 1][prefix - 1..].iter().product();
    k - k % span
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At arity 1, 2 and 3, insert/remove/range behaviour matches a sorted
    /// multimap `BTreeMap<(key, val, seq), val>`, `seq` being the insertion
    /// counter: range order is key order, duplicates of a key come back in
    /// value order (equal entries in insertion order), `remove` takes
    /// exactly the first `(key, val)` entry (wherever in the key's run of
    /// duplicates, which leaf boundaries cut, it sits), and a bound shorter
    /// than the arity sorts before every key
    /// it is a prefix of. Long enough op lists split leaves in the middle,
    /// at the right edge (ascending runs) and split the root. The first
    /// `bulk_quarters` quarters of the ops (none to all) are inserts whose
    /// tree is bulk-built with `from_sorted`; the rest insert into and
    /// remove from that tree.
    #[test]
    fn bplustree_matches_sorted_multimap_model(
        ops in proptest::collection::vec((0i64..120, 0u32..4, 0u8..4), 1..2500),
        ascending_from in 0i64..120,
        range in (0i64..120, 0i64..120),
        bulk_quarters in 0usize..5,
    ) {
        let bulk = ops.len() * bulk_quarters / 4;
        for arity in 1..=3 {
            let mut model: BTreeMap<(i64, u32, usize), u32> = BTreeMap::new();
            let mut rising = ascending_from;
            // kind 1 appends past the largest key so far, the rest anywhere.
            let mut key_of = |key, kind| {
                if kind == 1 {
                    rising += 1;
                    rising
                } else {
                    key
                }
            };
            for (seq, &(key, val, kind)) in ops[..bulk].iter().enumerate() {
                model.insert((key_of(key, kind), val, seq), val);
            }
            let bulk_cells = model.keys().flat_map(|(k, _, _)| cells(*k, arity));
            let mut tree = BPlusTree::from_sorted(arity, bulk_cells, model.values().copied());
            for (seq, &(key, val, kind)) in ops.iter().enumerate().skip(bulk) {
                // kind 0 removes.
                if kind == 0 {
                    let removed = tree.remove(&cells(key, arity), &val);
                    let hit = model
                        .range((key, val, 0)..=(key, val, usize::MAX))
                        .next()
                        .map(|(k, _)| *k);
                    prop_assert_eq!(removed, hit.is_some());
                    if let Some(k) = hit {
                        model.remove(&k);
                    }
                } else {
                    let key = key_of(key, kind);
                    tree.insert(&cells(key, arity), val);
                    model.insert((key, val, seq), val);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
            let entries = |lo: Bound<&[i64]>, hi: Bound<&[i64]>| -> Vec<(Vec<i64>, u32)> {
                tree.range((lo, hi)).map(|(k, v)| (k.to_vec(), *v)).collect()
            };
            let modelled = |keys: &mut dyn Iterator<Item = (&(i64, u32, usize), &u32)>| {
                keys.map(|((k, _, _), v)| (cells(*k, arity), *v)).collect::<Vec<_>>()
            };
            prop_assert_eq!(
                entries(Bound::Unbounded, Bound::Unbounded),
                modelled(&mut model.iter())
            );
            for key in [0, 7, 60, 119, rising] {
                let want: Vec<u32> = model
                    .range((key, 0, 0)..=(key, u32::MAX, usize::MAX))
                    .map(|(_, v)| *v)
                    .collect();
                prop_assert_eq!(tree.get(&cells(key, arity)), want);
            }
            let (lo, hi) = (range.0.min(range.1), range.0.max(range.1));
            let (lo_key, hi_key) = (cells(lo, arity), cells(hi, arity));
            prop_assert_eq!(
                entries(Bound::Included(&lo_key), Bound::Excluded(&hi_key)),
                modelled(&mut model.range((lo, 0, 0)..(hi, 0, 0)))
            );
            let past = |k| (k, u32::MAX, usize::MAX);
            prop_assert_eq!(
                entries(Bound::Excluded(&lo_key), Bound::Included(&hi_key)),
                modelled(&mut model.range(past(lo)..=past(hi)))
            );
            // A proper prefix is no stored key: as a lower bound of either
            // kind it admits every key from its first extension on, as an
            // upper bound of either kind none of them.
            for prefix in 1..arity {
                let (lo_floor, hi_floor) =
                    (prefix_floor(lo, arity, prefix), prefix_floor(hi, arity, prefix));
                let want = modelled(&mut model.range((lo_floor, 0, 0)..(hi_floor, 0, 0)));
                let (lo_prefix, hi_prefix) = (&lo_key[..prefix], &hi_key[..prefix]);
                prop_assert_eq!(
                    entries(Bound::Included(lo_prefix), Bound::Excluded(hi_prefix)),
                    want.clone()
                );
                prop_assert_eq!(
                    entries(Bound::Excluded(lo_prefix), Bound::Included(hi_prefix)),
                    want
                );
            }
        }
    }

    /// R-Tree intersection queries agree with a brute-force scan.
    #[test]
    fn rtree_matches_linear_scan(
        rects in proptest::collection::vec((0i64..200, 0i64..40, 0i64..200, 0i64..40), 1..150),
        query in (0i64..200, 0i64..80, 0i64..200, 0i64..80),
    ) {
        let mut tree = RTree::new();
        let mut stored = Vec::new();
        for (i, (x, w, y, h)) in rects.iter().enumerate() {
            let r = Rect::new(*x, x + w, *y, y + h);
            tree.insert(r, i as u32);
            stored.push(r);
        }
        let q = Rect::new(query.0, query.0 + query.1, query.2, query.2 + query.3);
        let mut visits = 0;
        let mut got = tree.search(&q, &mut visits);
        // Every hit is a leaf entry the search examined.
        prop_assert!(visits >= got.len() as u64);
        got.sort_unstable();
        let mut want: Vec<u32> = stored
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&q))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The columnar store returns exactly the rows appended, before and
    /// after any number of merges, with stable row ids.
    #[test]
    fn column_table_round_trips_rows(
        rows in proptest::collection::vec(
            (any::<i64>(), "[a-z]{0,6}", any::<bool>(), -50_000i64..50_000, 0u64..1000),
            1..120,
        ),
        merge_points in proptest::collection::vec(0usize..120, 0..4),
    ) {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
            Column::new("c", DataType::Date),
            Column::new("d", DataType::SysTime),
        ]);
        let mut table = ColumnTable::new(schema);
        let mut model: Vec<Row> = Vec::new();
        for (i, (a, b, b_null, c, d)) in rows.iter().enumerate() {
            let row = Row::new(vec![
                Value::Int(*a),
                if *b_null { Value::Null } else { Value::str(b.clone()) },
                Value::Date(AppDate(*c)),
                Value::SysTime(SysTime(*d)),
            ]);
            let id = table.append_row(&row).unwrap();
            prop_assert_eq!(id, i);
            model.push(row);
            if merge_points.contains(&i) {
                table.merge();
            }
        }
        table.merge();
        prop_assert_eq!(table.len(), model.len());
        for (i, want) in model.iter().enumerate() {
            prop_assert_eq!(&table.get_row(i), want, "row {}", i);
        }
    }
}
