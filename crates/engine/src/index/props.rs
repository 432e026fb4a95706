//! Property tests: an [`OrderedIndex`] on integer cells answers every probe —
//! slots, their order and the visit count — like the same index forced onto
//! [`Value`] cells from the start, and one built in bulk answers like one
//! built by inserts.
//!
//! A program inserts versions whose indexed values come from a small domain
//! (so duplicate runs form and removes land inside them) salted with NULL,
//! the reserved-cell neighbours `i64::MIN`/`i64::MAX`, `SysTime::MAX`, and
//! 2^53 + 1, which `Value`'s ordering cannot tell from the double 2^53. From
//! step `odd_from` on it may also insert what no integer cell holds (a
//! string, a double, `i64::MIN`, `AppDate::MIN`, a system time past
//! `i64::MAX`), so most programs widen late and some never do.

use super::*;
use bitempo_core::{AppPeriod, Row, SysPeriod};
use proptest::prelude::*;

const TWO_53: i64 = 1 << 53;

/// A value for table column `col` of a generated version.
fn column_value(pick: u64, odd: bool) -> Value {
    let sub = pick / 16;
    match pick % 16 {
        0 => Value::Null,
        1 => Value::Int(i64::MAX - (sub % 2) as i64),
        2 => Value::Int(i64::MIN + 1),
        3 => Value::Int(TWO_53 + (sub % 2) as i64),
        4 if odd => match sub % 5 {
            0 => Value::Int(i64::MIN),
            1 => Value::Double(2.0),
            2 => Value::Double(2.5),
            3 => Value::str("m"),
            _ => Value::Date(AppDate(2)),
        },
        _ => Value::Int((sub % 7) as i64 - 2),
    }
}

fn version(pick: u64, odd: bool) -> Version {
    let app_start = match (pick >> 8) % 9 {
        0 if odd => AppDate::MIN,
        1 => AppDate(i64::MIN + 1),
        2 => AppDate::MAX,
        d => AppDate(d as i64 - 4),
    };
    let sys_start = match (pick >> 16) % 8 {
        0 if odd => SysTime(i64::MAX as u64 + (pick >> 20) % 2),
        1 => SysTime(i64::MAX as u64 - 1),
        2..=4 => SysTime::MAX,
        _ => SysTime((pick >> 12) % 6),
    };
    Version {
        row: Row::new(vec![
            column_value(pick >> 24, odd),
            column_value(pick >> 40, odd),
        ]),
        app: AppPeriod::new(app_start, AppDate::MAX),
        sys: SysPeriod::since(sys_start),
    }
}

/// Probe values of every type, on, between and beyond the stored ones.
fn palette() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(i64::MIN),
        Value::Int(i64::MIN + 1),
        Value::Int(-2),
        Value::Int(2),
        Value::Int(3),
        Value::Int(TWO_53),
        Value::Int(TWO_53 + 1),
        Value::Int(i64::MAX - 1),
        Value::Int(i64::MAX),
        Value::Double(-1e30),
        Value::Double(2.0),
        Value::Double(2.5),
        Value::Double(TWO_53 as f64),
        Value::Double(i64::MAX as f64),
        Value::Double(f64::NAN),
        Value::str("m"),
        Value::Date(AppDate::MIN),
        Value::Date(AppDate(-1)),
        Value::Date(AppDate(2)),
        Value::Date(AppDate::MAX),
        Value::SysTime(SysTime(0)),
        Value::SysTime(SysTime(3)),
        Value::SysTime(SysTime(i64::MAX as u64)),
        Value::SysTime(SysTime::MAX),
    ]
}

fn shapes() -> Vec<Vec<IndexedCol>> {
    use IndexedCol::{AppStart, SysStart};
    vec![
        vec![IndexedCol::Value(0)],
        vec![IndexedCol::Value(0), IndexedCol::Value(1)],
        vec![IndexedCol::Value(0), SysStart],
        vec![IndexedCol::Value(1), IndexedCol::Value(0), SysStart],
        vec![AppStart],
        vec![SysStart, IndexedCol::Value(0)],
    ]
}

fn bound(kind: u64, v: &Value) -> Bound<&Value> {
    match kind % 3 {
        0 => Bound::Included(v),
        1 => Bound::Excluded(v),
        _ => Bound::Unbounded,
    }
}

/// Every probe the two indexes must agree on, for one `(lo, hi)` pair and
/// one key.
fn agree(
    narrow: &OrderedIndex,
    wide: &OrderedIndex,
    (lo, hi): (Bound<&Value>, Bound<&Value>),
    key: &[Value],
) -> Result<(), TestCaseError> {
    let (mut n, mut w) = (0, 0);
    prop_assert_eq!(
        narrow.probe_range(lo, hi, &mut n),
        wide.probe_range(lo, hi, &mut w),
        "probe_range({lo:?}, {hi:?})"
    );
    prop_assert_eq!(n, w, "visits of probe_range({lo:?}, {hi:?})");
    prop_assert_eq!(
        narrow.estimate_selectivity(lo, hi),
        wide.estimate_selectivity(lo, hi)
    );
    for len in 0..=key.len() {
        let prefix = &key[..len];
        // `Value`'s ordering is not transitive past 2^53 — Int(2^53) <
        // Int(2^53 + 1), and both equal Double(2^53) — so where the
        // reference tree's seek lands is unspecified once such a double is
        // followed by another cell. Last in the prefix it is well defined.
        let big = |v: &Value| matches!(v, Value::Double(d) if d.abs() >= TWO_53 as f64);
        if prefix.iter().rev().skip(1).any(big) {
            continue;
        }
        let (mut n, mut w) = (0, 0);
        prop_assert_eq!(
            narrow.probe_prefix(prefix, &mut n),
            wide.probe_prefix(prefix, &mut w),
            "probe_prefix({prefix:?})"
        );
        prop_assert_eq!(n, w, "visits of probe_prefix({prefix:?})");
        prop_assert_eq!(narrow.slots_of(prefix), wide.slots_of(prefix));
        let as_key = Key::General(prefix.to_vec());
        prop_assert_eq!(narrow.slots_of_key(&as_key), wide.slots_of(prefix));
    }
    Ok(())
}

fn check(cols: &[IndexedCol], steps: &[u64], odd_from: usize) -> Result<(), TestCaseError> {
    let def = IndexDef {
        name: "ix".into(),
        cols: cols.to_vec(),
    };
    let mut narrow = OrderedIndex::new(def.clone());
    let mut wide = OrderedIndex::new(def);
    wide.widen();
    let palette = palette();
    let mut stored: Vec<(Version, u64)> = Vec::new();
    let key_of = |v: &Version| -> Vec<Value> { cols.iter().map(|&c| extract_col(v, c)).collect() };
    for (i, &pick) in steps.iter().enumerate() {
        let v = version(pick, i >= odd_from);
        if pick % 4 == 0 && !stored.is_empty() {
            // Remove a stored entry — or, one time in four, its version
            // under a slot it never had.
            let at = (pick >> 4) as usize % stored.len();
            let (v, slot) = if pick % 16 == 0 {
                (stored[at].0.clone(), u64::MAX)
            } else {
                stored.swap_remove(at)
            };
            prop_assert_eq!(narrow.remove(&v, slot), wide.remove(&v, slot));
        } else {
            let slot = i as u64;
            narrow.insert(&v, slot);
            wide.insert(&v, slot);
            stored.push((v.clone(), slot));
        }
        prop_assert_eq!(narrow.len(), wide.len());
        prop_assert_eq!(narrow.distinct_first(), wide.distinct_first());
        // A stored key (so that prefixes hit duplicate runs), this step's
        // key, and the first with one cell swapped for a palette value.
        let (lo, hi) = (
            &palette[(pick >> 3) as usize % palette.len()],
            &palette[(pick >> 9) as usize % palette.len()],
        );
        let bounds = (bound(pick >> 5, lo), bound(pick >> 7, hi));
        let mut key = stored
            .get((pick >> 11) as usize % stored.len().max(1))
            .map_or_else(|| key_of(&v), |(v, _)| key_of(v));
        agree(&narrow, &wide, bounds, &key)?;
        agree(&narrow, &wide, bounds, &key_of(&v))?;
        key[(pick >> 13) as usize % cols.len()] = lo.clone();
        agree(&narrow, &wide, bounds, &key)?;
    }
    // The whole palette against what is left.
    for (i, lo) in palette.iter().enumerate() {
        for (j, hi) in palette.iter().enumerate() {
            let kinds = (i + j + steps.len()) as u64 % 9;
            let bounds = (bound(kinds, lo), bound(kinds / 3, hi));
            let key = [lo.clone(), hi.clone()];
            agree(&narrow, &wide, bounds, &key[..cols.len().min(2)])?;
        }
    }
    // Integer keys over integer cells go straight in; they must still
    // come out as `slots_of` says.
    for (v, _) in &stored {
        let key = Key::from_row(&v.row, &[0, 1]);
        if cols == [IndexedCol::Value(0), IndexedCol::Value(1)] {
            prop_assert_eq!(narrow.slots_of_key(&key), wide.slots_of(&key.to_values()));
        }
    }
    Ok(())
}

/// `OrderedIndex::build` over a program's versions, under slots in no
/// particular order, against inserting them one by one: the same cells,
/// kinds, entries and answers, in no more bytes.
fn check_build(cols: &[IndexedCol], picks: &[u64], odd_from: usize) -> Result<(), TestCaseError> {
    let def = IndexDef {
        name: "ix".into(),
        cols: cols.to_vec(),
    };
    let entries: Vec<(u64, Version)> = picks
        .iter()
        .enumerate()
        .map(|(i, &pick)| (pick >> 58, version(pick, i >= odd_from)))
        .collect();
    let mut inserted = OrderedIndex::new(def.clone());
    for (slot, v) in &entries {
        inserted.insert(v, *slot);
    }
    let built = OrderedIndex::build(def, entries.iter().map(|(slot, v)| (*slot, v)));
    match (&built.cells, &inserted.cells) {
        (Cells::Int { kinds, .. }, Cells::Int { kinds: want, .. }) => prop_assert_eq!(kinds, want),
        (Cells::Wide(_), Cells::Wide(_)) => {}
        _ => prop_assert!(false, "one index widened, the other did not"),
    }
    prop_assert_eq!(built.len(), inserted.len());
    prop_assert_eq!(built.distinct_first(), inserted.distinct_first());
    prop_assert!(built.memory_bytes() <= inserted.memory_bytes());
    let palette = palette();
    for (i, lo) in palette.iter().enumerate() {
        for (j, hi) in palette.iter().enumerate() {
            let kinds = (i + j + picks.len()) as u64 % 9;
            let bounds = (bound(kinds, lo), bound(kinds / 3, hi));
            let key = [lo.clone(), hi.clone()];
            agree(&built, &inserted, bounds, &key[..cols.len().min(2)])?;
        }
    }
    for (slot, v) in &entries {
        let bounds = (Bound::Unbounded, Bound::Unbounded);
        let key: Vec<Value> = cols.iter().map(|&c| extract_col(v, c)).collect();
        agree(&built, &inserted, bounds, &key)?;
        let key = Key::from_row(&v.row, &[0, 1]);
        prop_assert_eq!(
            built.slots_of_key(&key),
            inserted.slots_of_key(&key),
            "{}",
            slot
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_bulk_build_answers_like_inserts(
        picks in proptest::collection::vec(any::<u64>(), 0..300),
        odd_from in 0usize..600,
    ) {
        for cols in shapes() {
            check_build(&cols, &picks, odd_from)?;
        }
    }

    #[test]
    fn integer_cells_answer_like_value_cells(
        steps in proptest::collection::vec(any::<u64>(), 1..90),
        odd_from in 0usize..180,
    ) {
        for cols in shapes() {
            check(&cols, &steps, odd_from)?;
        }
    }
}

/// The two regimes the property test must both reach.
#[test]
fn an_index_widens_on_the_first_value_without_a_cell_and_not_before() {
    let def = IndexDef {
        name: "ix".into(),
        cols: vec![IndexedCol::Value(0), IndexedCol::SysStart],
    };
    let mut ix = OrderedIndex::new(def);
    for (slot, pick) in [5u64 << 24, 0, 1 << 24, (2 << 16) | (3 << 24)]
        .into_iter()
        .enumerate()
    {
        ix.insert(&version(pick, false), slot as u64);
        assert!(matches!(ix.cells, Cells::Int { .. }), "NULL, i64::MAX, ∞");
    }
    let per_entry_narrow = ix.memory_bytes();
    let mut late = version(0, false);
    late.row = Row::new(vec![Value::str("late"), Value::Null]);
    ix.insert(&late, 9);
    assert!(matches!(ix.cells, Cells::Wide(_)));
    assert!(ix.memory_bytes() > per_entry_narrow);
    assert_eq!(ix.probe_prefix(&[Value::str("late")], &mut 0), vec![9]);
    assert_eq!(ix.len(), 5);
}
