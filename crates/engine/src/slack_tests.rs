//! Storage holds what it stores: on every layout, over the tiny TPC-H
//! instance with a churned history, neither a checkpoint nor a restore
//! leaves a slot array — or, on System C, a column or dictionary vector —
//! with capacity past its length. On A, B and D that is `heap_bytes` in
//! the footprint equalling slots × slot size.

use crate::api::BitemporalEngine;
use crate::shell::{Engine, TableLayout};
use crate::system_a::TableA;
use crate::system_b::TableB;
use crate::system_c::TableC;
use crate::system_d::TableD;
use bitempo_core::{Key, TableId};
use bitempo_dbgen::ScaleConfig;

/// What a layout's slot arrays hold past their last slot, in bytes.
pub(crate) trait SlotArrays {
    fn spare_bytes(&self) -> usize;
}

/// Bytes of `v`'s capacity past its length.
pub(crate) fn vec_spare<T>(v: &Vec<T>) -> usize {
    (v.capacity() - v.len()) * std::mem::size_of::<T>()
}

/// The tiny TPC-H instance loaded in one commit, then, table by table,
/// every seventh row's key deleted and every third one's updated (its last
/// non-key column set to what it holds), twelve statements a commit.
fn churned<T: TableLayout>() -> (Engine<T>, Vec<TableId>) {
    let data = bitempo_dbgen::generate(&ScaleConfig::tiny());
    let mut e = Engine::<T>::new();
    let ids: Vec<TableId> = data
        .tables
        .iter()
        .map(|t| e.create_table(t.def.clone()).unwrap())
        .collect();
    for (&id, table) in ids.iter().zip(&data.tables) {
        for (row, app) in &table.rows {
            e.insert(id, row.clone(), *app).unwrap();
        }
    }
    e.commit();
    let mut statements = 0;
    for (&id, table) in ids.iter().zip(&data.tables) {
        let def = &table.def;
        let Some(col) = (0..def.schema.arity()).rev().find(|c| !def.key.contains(c)) else {
            continue;
        };
        for (i, (row, _)) in table.rows.iter().enumerate() {
            let key = Key::from_row(row, &def.key);
            if i % 7 == 0 {
                e.delete(id, &key, None).unwrap();
            } else if i % 3 == 0 {
                e.update(id, &key, &[(col, row.get(col).clone())], None)
                    .unwrap();
            } else {
                continue;
            }
            statements += 1;
            if statements % 12 == 0 {
                e.commit();
            }
        }
    }
    e.commit();
    (e, ids)
}

/// Spare bytes per table of `e`.
fn spare<T: TableLayout + SlotArrays>(e: &Engine<T>) -> Vec<usize> {
    e.tables.iter().map(SlotArrays::spare_bytes).collect()
}

fn assert_no_slack<T: TableLayout + SlotArrays>() {
    let (mut e, ids) = churned::<T>();
    assert!(
        spare(&e).iter().any(|&b| b > 0),
        "{}: the churn leaves growth slack to trim",
        T::NAME
    );
    e.checkpoint();
    let none = vec![0; ids.len()];
    assert_eq!(spare(&e), none, "{}: after checkpoint", T::NAME);
    let mut restored = Engine::<T>::new();
    for &id in &ids {
        let r = restored.create_table(e.table_def(id).clone()).unwrap();
        let versions = e.snapshot_versions(id).unwrap();
        restored.restore(r, versions, e.now()).unwrap();
    }
    assert_eq!(spare(&restored), none, "{}: after restore", T::NAME);
}

#[test]
fn checkpoint_and_restore_leave_no_slot_array_slack() {
    assert_no_slack::<TableA>();
    assert_no_slack::<TableB>();
    assert_no_slack::<TableC>();
    assert_no_slack::<TableD>();
}
