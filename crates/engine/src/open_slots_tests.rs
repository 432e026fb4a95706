//! Differential test of "which open versions does key *k* have" on all four
//! layouts: the system PK-index probe every layout answers with against the
//! bookkeeping every engine used to carry — a `HashMap<Key, Vec<slot>>`
//! pushed at insert and `retain`ed at close — kept here as the reference,
//! wrapped around each layout as a layout of its own.

use crate::api::{BitemporalEngine, KeyStructuresFootprint, SysSpec, TableStats, TuningConfig};
use crate::rowscan::PartitionView;
use crate::shell::{Engine, TableLayout};
use crate::system_a::TableA;
use crate::system_b::TableB;
use crate::system_c::TableC;
use crate::system_d::TableD;
use crate::version::Version;
use bitempo_core::{
    AppDate, AppPeriod, Column, DataType, Key, Pcg32, Period, Result, Row, Schema, SysTime,
    TableDef, TableId, TemporalClass, Value,
};
use bitempo_tindex::TemporalIndex;
use std::collections::HashMap;

/// A layout whose sequenced DML resolves keys from the old map instead of
/// the layout's own structure; everything else is the wrapped layout's.
struct OldMap<T> {
    inner: T,
    map: HashMap<Key, Vec<u64>>,
    /// One past the highest slot ever handed out.
    slots: u64,
}

impl<T: TableLayout> TableLayout for OldMap<T> {
    const NAME: &'static str = T::NAME;
    const ARCHITECTURE: &'static str = T::ARCHITECTURE;

    fn new(def: &TableDef) -> Self {
        OldMap {
            inner: T::new(def),
            map: HashMap::new(),
            slots: 0,
        }
    }
    fn open_slots(&self, key: &Key) -> Vec<u64> {
        self.map.get(key).cloned().unwrap_or_default()
    }
    fn peek(&self, def: &TableDef, slot: u64) -> Option<Version> {
        self.inner.peek(def, slot)
    }
    fn close(&mut self, def: &TableDef, slot: u64, end: SysTime) -> Result<()> {
        let closed = self.inner.peek(def, slot);
        self.inner.close(def, slot, end)?;
        let key = closed.map(|v| Key::from_row(&v.row, &def.key));
        if let Some(slots) = key.and_then(|k| self.map.get_mut(&k)) {
            slots.retain(|&s| s != slot);
        }
        Ok(())
    }
    fn insert_version(&mut self, def: &TableDef, version: Version) -> u64 {
        let key = Key::from_row(&version.row, &def.key);
        let open = version.sys.is_current();
        let slot = self.inner.insert_version(def, version);
        self.slots = self.slots.max(slot + 1);
        if open {
            self.map.entry(key).or_default().push(slot);
        }
        slot
    }
    fn partitions(
        &self,
        def: &TableDef,
        sys: &SysSpec,
        scan: &mut dyn FnMut(&'static str, &PartitionView<'_>) -> Result<()>,
    ) -> Result<()> {
        self.inner.partitions(def, sys, scan)
    }
    fn retune(&mut self, def: &TableDef, tuning: &TuningConfig) -> Result<()> {
        self.inner.retune(def, tuning)
    }
    /// Rebuilds the map afterwards, which is what System C's merge did to
    /// its own (it renumbers row ids); on the other layouts slots are
    /// stable and the rebuild changes nothing.
    fn checkpoint(&mut self, def: &TableDef) {
        self.inner.checkpoint(def);
        self.map.clear();
        for slot in 0..self.slots {
            if let Some(v) = self.peek(def, slot).filter(|v| v.sys.is_current()) {
                self.map
                    .entry(Key::from_row(&v.row, &def.key))
                    .or_default()
                    .push(slot);
            }
        }
    }
    fn stats(&self) -> TableStats {
        self.inner.stats()
    }
    fn temporal_indexes(&self) -> [Option<&TemporalIndex>; 2] {
        self.inner.temporal_indexes()
    }
    fn key_structures_footprint(&self) -> KeyStructuresFootprint {
        self.inner.key_structures_footprint()
    }
    fn for_each_version(&self, def: &TableDef, f: &mut dyn FnMut(&Version)) {
        self.inner.for_each_version(def, f)
    }
    fn restore_from(_: &TableDef, _: Vec<Version>) -> Result<Self> {
        unimplemented!("the reference model is never restored")
    }
}

/// `(a Int, c Int, b Str, val Int)` keyed by `key`: `[0]` gives `Key::Int`,
/// `[0, 1]` `Key::Int2`, anything with the string column `Key::General`,
/// and `[]` a keyless table whose one empty key covers every row.
fn table(key: &[usize]) -> TableDef {
    TableDef::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("c", DataType::Int),
            Column::new("b", DataType::Str),
            Column::new("val", DataType::Int),
        ]),
        key.to_vec(),
        TemporalClass::Bitemporal,
        Some("vt"),
    )
    .unwrap()
}

fn identity(rng: &mut Pcg32) -> Row {
    Row::new(vec![
        Value::Int(rng.int_range(0, 5)),
        Value::Int(rng.int_range(0, 1)),
        Value::str(*rng.pick(&["x", "y"])),
        Value::Int(0),
    ])
}

fn period(rng: &mut Pcg32) -> AppPeriod {
    let start = rng.int_range(0, 90);
    Period::new(AppDate(start), AppDate(start + rng.int_range(1, 30)))
}

fn canonical(engine: &dyn BitemporalEngine, t: TableId) -> Vec<String> {
    let mut lines: Vec<String> = engine
        .snapshot_versions(t)
        .unwrap()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    lines.sort();
    lines
}

/// Runs `statements` random statements on a real engine and on one whose
/// tables resolve keys from the old map, comparing every key's open slots —
/// content and order — after each one.
fn run<T: TableLayout>(seed: u64, key: &[usize], statements: usize) {
    let mut rng = Pcg32::new(seed, 0x51075);
    let mut real = Engine::<T>::new();
    let t = real.create_table(table(key)).unwrap();
    let mut model = Engine::<OldMap<T>>::new();
    assert_eq!(model.create_table(table(key)).unwrap(), t);
    let what = format!("{} key {key:?} seed {seed}", real.name());
    let mut spilled = false;

    for step in 0..statements {
        let row = identity(&mut rng);
        let k = Key::from_row(&row, key);
        let val = Value::Int(step as i64);
        let portion = rng.chance(0.5).then(|| period(&mut rng));
        let apply = |e: &mut dyn BitemporalEngine, op: i64, p: AppPeriod| match op {
            // Inserts do not check for an open version of the key, so a key
            // is deleted and re-inserted, and re-inserted while still open.
            0..=2 => e.insert(t, row.with(3, val.clone()), Some(p)).map(|()| 1),
            3..=5 => e.update(t, &k, &[(3, val.clone())], portion),
            6..=7 => e.delete(t, &k, portion),
            8 => e.overwrite_app_period(t, &k, p),
            _ => {
                e.checkpoint();
                Ok(0)
            }
        };
        let op = rng.int_range(0, 9);
        let p = if op <= 2 || op == 8 {
            period(&mut rng)
        } else {
            AppPeriod::ALL
        };
        let (got, want) = (apply(&mut real, op, p), apply(&mut model, op, p));
        assert_eq!(got.ok(), want.ok(), "{what} step {step}: affected rows");
        // Often no commit: the next statement then closes versions created
        // in the same transaction, which are discarded, not archived.
        if rng.chance(0.6) {
            assert_eq!(real.commit(), model.commit());
        }
        let (real_t, model_t) = (&real.tables[0], &model.tables[0]);
        for probe in model_t.map.keys().chain([&k]) {
            let want = model_t.open_slots(probe);
            assert_eq!(
                real_t.open_slots(probe),
                want,
                "{what} step {step}: {probe}"
            );
            assert_eq!(model_t.inner.open_slots(probe), want, "{what} step {step}");
            spilled |= want.len() > 1;
        }
    }
    assert!(spilled, "{what}: no key ever held two open versions");
    real.checkpoint();
    model.checkpoint();
    assert_eq!(
        canonical(&real, t),
        canonical(&model, t),
        "{what}: state after driving DML from the old map"
    );
}

fn run_all_keys<T: TableLayout>() {
    for (seed, key) in [
        (1, &[0][..]),
        (2, &[0, 1]),
        (3, &[2]),
        (4, &[0, 2]),
        (5, &[]),
        (6, &[0]),
    ] {
        run::<T>(seed, key, 400);
    }
}

#[test]
fn system_a_pk_probe_matches_the_old_key_map() {
    run_all_keys::<TableA>();
}

#[test]
fn system_b_pk_probe_matches_the_old_key_map() {
    run_all_keys::<TableB>();
}

#[test]
fn system_c_pk_probe_matches_the_old_key_map() {
    run_all_keys::<TableC>();
}

#[test]
fn system_d_pk_probe_matches_the_old_key_map() {
    run_all_keys::<TableD>();
}

/// A table without key columns has one key, the empty one, and on every
/// layout it covers every open row in slot order — after inserts, a `FOR
/// PORTION OF` split, the close of one row and a checkpoint (on C, a delta
/// merge that renumbers the rows). Any other key matches nothing.
#[test]
fn keyless_table_addresses_every_open_row_by_the_empty_key() {
    fn check<T: TableLayout>() {
        let mut e = Engine::<T>::new();
        let t = e.create_table(table(&[])).unwrap();
        let def = e.table_def(t).clone();
        let empty = Key::General(Vec::new());
        let expect = |e: &Engine<T>, open: usize, what: &str| {
            let table = &e.tables[0];
            let rows: Vec<u64> = (0..64)
                .filter(|&slot| table.peek(&def, slot).is_some_and(|v| v.sys.is_current()))
                .collect();
            assert_eq!(rows.len(), open, "{} {what}", e.name());
            assert_eq!(table.open_slots(&empty), rows, "{} {what}", e.name());
            assert_eq!(e.stats(t).current_rows, open, "{} {what}", e.name());
        };
        for a in 0..3 {
            let row = Row::new(vec![
                Value::Int(a),
                Value::Int(0),
                Value::str("x"),
                Value::Int(0),
            ]);
            e.insert(t, row, Some(Period::new(AppDate(0), AppDate(100))))
                .unwrap();
            e.commit();
        }
        assert_eq!(
            e.tables[0].open_slots(&empty),
            vec![0, 1, 2],
            "{}",
            e.name()
        );
        expect(&e, 3, "after inserts");
        assert!(
            e.tables[0].open_slots(&Key::int(0)).is_empty(),
            "{}",
            e.name()
        );
        assert_eq!(e.delete(t, &Key::int(0), None).unwrap(), 0);
        let portion = Period::new(AppDate(20), AppDate(40));
        let split = e.update(t, &empty, &[(3, Value::Int(7))], Some(portion));
        assert_eq!(split.unwrap(), 3, "{}", e.name());
        e.commit();
        expect(&e, 9, "after a split");
        let slot = e.tables[0].open_slots(&empty)[4];
        let end = e.now().next();
        e.tables[0].close(&def, slot, end).unwrap();
        e.commit();
        expect(&e, 8, "after a close");
        e.checkpoint();
        expect(&e, 8, "after a checkpoint");
        assert_eq!(e.delete(t, &empty, None).unwrap(), 8, "{}", e.name());
        e.commit();
        expect(&e, 0, "after deleting the empty key");
    }
    check::<TableA>();
    check::<TableB>();
    check::<TableC>();
    check::<TableD>();
}
