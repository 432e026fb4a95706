//! Differential test of "which open versions does key *k* have" on all four
//! engines: the PK-index probe of Systems A and B and the `KeyMap` of C and
//! D against the bookkeeping every engine used to carry — a
//! `HashMap<Key, Vec<slot>>` pushed at insert and `retain`ed at close — kept
//! here as the reference.

use crate::api::BitemporalEngine;
use crate::system_a::{overwrite_period, sequenced_dml, SequencedOps};
use crate::version::Version;
use crate::{SystemA, SystemB, SystemC, SystemD};
use bitempo_core::{
    AppDate, AppPeriod, Column, DataType, Key, Pcg32, Period, Result, Row, Schema, SysPeriod,
    SysTime, TableDef, TableId, TemporalClass, Value,
};
use std::collections::HashMap;

/// An engine driven through its close/insert primitives, with sequenced DML
/// resolving keys from the old map instead of the engine's own structure.
struct OldMap<E> {
    engine: E,
    map: HashMap<Key, Vec<u64>>,
    /// One past the highest slot ever handed out.
    slots: u64,
}

impl<E: SequencedOps> OldMap<E> {
    fn key_of(&self, table: TableId, row: &Row) -> Key {
        Key::from_row(row, &self.engine.def(table).key)
    }

    /// What System C's merge did to its map (it renumbers row ids); on the
    /// other engines slots are stable and this changes nothing.
    fn rebuild(&mut self, table: TableId) {
        self.map.clear();
        for slot in 0..self.slots {
            if let Some(v) = self.engine.peek(table, slot).filter(|v| v.sys.is_current()) {
                self.map
                    .entry(self.key_of(table, &v.row))
                    .or_default()
                    .push(slot);
            }
        }
    }
}

impl<E: SequencedOps> SequencedOps for OldMap<E> {
    fn def(&self, table: TableId) -> &TableDef {
        self.engine.def(table)
    }
    fn pending_time(&self) -> SysTime {
        self.engine.pending_time()
    }
    fn open_slots(&self, _: TableId, key: &Key) -> Vec<u64> {
        self.map.get(key).cloned().unwrap_or_default()
    }
    fn peek(&self, table: TableId, slot: u64) -> Option<Version> {
        self.engine.peek(table, slot)
    }
    fn close(&mut self, table: TableId, slot: u64, end: SysTime) -> Result<Version> {
        let closed = self.engine.close(table, slot, end)?;
        if let Some(slots) = self.map.get_mut(&self.key_of(table, &closed.row)) {
            slots.retain(|&s| s != slot);
        }
        Ok(closed)
    }
    fn insert_version_at(&mut self, table: TableId, version: Version) -> u64 {
        let key = self.key_of(table, &version.row);
        let open = version.sys.is_current();
        let slot = self.engine.insert_version_at(table, version);
        self.slots = self.slots.max(slot + 1);
        if open {
            self.map.entry(key).or_default().push(slot);
        }
        slot
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

/// Runs `statements` random statements on a real engine (public API) and on
/// the old-map model (same primitives, reference map), comparing every key's
/// open slots — content and order — after each one.
fn run<E: BitemporalEngine + SequencedOps + Default>(seed: u64, key: &[usize], statements: usize) {
    let mut rng = Pcg32::new(seed, 0x51075);
    let mut real = E::default();
    let t = real.create_table(table(key)).unwrap();
    let mut model = OldMap {
        engine: E::default(),
        map: HashMap::new(),
        slots: 0,
    };
    assert_eq!(model.engine.create_table(table(key)).unwrap(), t);
    let what = format!("{} key {key:?} seed {seed}", real.name());
    let mut spilled = false;

    for step in 0..statements {
        let row = identity(&mut rng);
        let k = Key::from_row(&row, key);
        let val = Value::Int(step as i64);
        let portion = rng.chance(0.5).then(|| period(&mut rng));
        let (got, want) = match rng.int_range(0, 9) {
            // Inserts do not check for an open version of the key, so a key
            // is deleted and re-inserted, and re-inserted while still open.
            0..=2 => {
                let app = period(&mut rng);
                let version = Version {
                    row: row.with(3, val),
                    app,
                    sys: SysPeriod::since(model.pending_time()),
                };
                model.insert_version_at(t, version.clone());
                (real.insert(t, version.row, Some(app)).map(|()| 1), Ok(1))
            }
            3..=5 => {
                let updates = [(3, val)];
                (
                    real.update(t, &k, &updates, portion),
                    sequenced_dml(&mut model, t, &k, portion, Some(&updates)),
                )
            }
            6..=7 => (
                real.delete(t, &k, portion),
                sequenced_dml(&mut model, t, &k, portion, None),
            ),
            8 => {
                let p = period(&mut rng);
                (
                    real.overwrite_app_period(t, &k, p),
                    overwrite_period(&mut model, t, &k, p),
                )
            }
            _ => {
                real.checkpoint();
                model.engine.checkpoint();
                model.rebuild(t);
                (Ok(0), Ok(0))
            }
        };
        assert_eq!(got.ok(), want.ok(), "{what} step {step}: affected rows");
        // Often no commit: the next statement then closes versions created
        // in the same transaction, which are discarded, not archived.
        if rng.chance(0.6) {
            assert_eq!(real.commit(), model.engine.commit());
        }
        for probe in model.map.keys().chain([&k]) {
            let want = model.open_slots(t, probe);
            assert_eq!(
                real.open_slots(t, probe),
                want,
                "{what} step {step}: {probe}"
            );
            assert_eq!(
                model.engine.open_slots(t, probe),
                want,
                "{what} step {step}"
            );
            spilled |= want.len() > 1;
        }
    }
    assert!(spilled, "{what}: no key ever held two open versions");
    real.checkpoint();
    model.engine.checkpoint();
    assert_eq!(
        canonical(&real, t),
        canonical(&model.engine, t),
        "{what}: state after driving DML from the old map"
    );
}

fn run_all_keys<E: BitemporalEngine + SequencedOps + Default>() {
    for (seed, key) in [
        (1, &[0][..]),
        (2, &[0, 1]),
        (3, &[2]),
        (4, &[0, 2]),
        (5, &[]),
        (6, &[0]),
    ] {
        run::<E>(seed, key, 400);
    }
}

#[test]
fn system_a_pk_probe_matches_the_old_key_map() {
    run_all_keys::<SystemA>();
}

#[test]
fn system_b_pk_probe_matches_the_old_key_map() {
    run_all_keys::<SystemB>();
}

#[test]
fn system_c_key_map_matches_the_old_key_map() {
    run_all_keys::<SystemC>();
}

#[test]
fn system_d_key_map_matches_the_old_key_map() {
    run_all_keys::<SystemD>();
}

/// A table without key columns has one key, the empty one, and it covers
/// every open version — on the engines whose PK index such a table lacks as
/// on the ones with a map. Any other key matches nothing.
#[test]
fn keyless_table_addresses_every_open_row_by_the_empty_key() {
    fn check<E: BitemporalEngine + SequencedOps + Default>() {
        let mut e = E::default();
        let t = e.create_table(table(&[])).unwrap();
        for a in 0..3 {
            let row = Row::new(vec![
                Value::Int(a),
                Value::Int(0),
                Value::str("x"),
                Value::Int(0),
            ]);
            e.insert(t, row, None).unwrap();
            e.commit();
        }
        let empty = Key::General(Vec::new());
        assert_eq!(e.open_slots(t, &empty), vec![0, 1, 2], "{}", e.name());
        assert!(e.open_slots(t, &Key::int(0)).is_empty(), "{}", e.name());
        assert_eq!(e.delete(t, &Key::int(0), None).unwrap(), 0);
        assert_eq!(e.delete(t, &empty, None).unwrap(), 3, "{}", e.name());
        e.commit();
        assert!(e.open_slots(t, &empty).is_empty());
        assert_eq!(e.stats(t).current_rows, 0);
    }
    check::<SystemA>();
    check::<SystemB>();
    check::<SystemC>();
    check::<SystemD>();
}
